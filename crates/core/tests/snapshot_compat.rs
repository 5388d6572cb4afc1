//! Pins the `ModelSnapshot` JSON format and the bits of every incremental
//! skill-update path against a committed fixture.
//!
//! `fixtures/snapshot_v1.json` is a small fitted model — four workers, one
//! of them never scored, K = 3, eleven training rows over ten task ids (one
//! id repeats, and ids arrive out of order) — after three `record_feedback`
//! calls. The test checks that:
//!
//! - restoring the file and capturing the result reproduces it byte for
//!   byte, and so does the copy whose `feedback_forgetting` is 0.9;
//! - each incremental path gives the committed capture hashes: the first
//!   feedback after a restore (the precision is refactorized), a second one
//!   to the same worker (the cached factor takes a rank-1 update),
//!   `add_worker` then feedback, feedback to the never-scored worker, and
//!   all of these again on the 0.9 copy (the decay path). They use
//!   hand-built projections and the restored parameters only — no `exp` or
//!   `ln` — so the bits match on every IEEE host;
//! - on Linux x86-64, fitting the same platform again and replaying the
//!   feedback reproduces the file. The fit calls the platform libm's `exp`
//!   and `ln`, whose last-ulp results are not specified across targets (see
//!   `tests/fit_fingerprint.rs`).
//!
//! The test only reads its fixture. A change meant to move the format or
//! these numbers writes `ModelSnapshot::capture(&fixture_model())` to the
//! file, pastes the hashes the failure prints, and says why in CHANGES.md.

use crowd_core::dataset::TaskData;
use crowd_core::{ModelSnapshot, TaskProjection, TdpmConfig, TdpmModel, TdpmTrainer, TrainingSet};
use crowd_math::Vector;
use crowd_store::{TaskId, WorkerId};

const FIXTURE: &str = include_str!("fixtures/snapshot_v1.json");

/// The fixture's `feedback_forgetting`, and the value the decay copy uses.
const NO_DECAY: &str = "\"feedback_forgetting\":1.0,";
const DECAY: &str = "\"feedback_forgetting\":0.9,";

/// FNV-1a of the capture after each step of [`replay`], without decay.
const STEP_HASHES: [u64; 6] = [
    0x9443_69d5_55f0_297b,
    0x25fa_e8e7_ed46_6b5d,
    0xd775_acb6_c0ac_26ca,
    0x1340_b02d_d451_c60e,
    0x0cdf_a9e8_1f6b_676c,
    0xf5a3_9ab3_83f9_0fb9,
];

/// The same steps on the copy with `feedback_forgetting = 0.9`.
const DECAY_STEP_HASHES: [u64; 6] = [
    0xfa6c_97a8_afb9_33d7,
    0xfd55_1d9c_b8ab_cfcd,
    0x00e9_416b_d1f0_edda,
    0x0b01_f7d6_4692_971e,
    0x665c_2307_45ae_f27b,
    0xf202_b922_f80e_b7e4,
];

/// Whether this target's libm is the one the fixture was fitted with.
const PINNED_TARGET: bool = cfg!(all(target_os = "linux", target_arch = "x86_64"));

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn projection(lambda: [f64; 3], nu2: [f64; 3]) -> TaskProjection {
    TaskProjection {
        lambda: Vector::from_vec(lambda.to_vec()),
        nu2: Vector::from_vec(nu2.to_vec()),
        num_tokens: 0.0,
    }
}

/// Two hand-built projections with exactly representable entries.
fn projections() -> [TaskProjection; 2] {
    [
        projection([0.75, -0.5, 1.25], [0.125, 0.25, 0.0625]),
        projection([-0.25, 1.5, 0.5], [0.5, 0.125, 0.25]),
    ]
}

fn capture(model: &TdpmModel) -> String {
    ModelSnapshot::capture(model)
        .to_json()
        .expect("capture serializes")
}

fn restore(json: &str) -> TdpmModel {
    ModelSnapshot::from_json(json)
        .and_then(ModelSnapshot::restore)
        .expect("fixture restores")
}

/// The fixture's platform: two topics (terms 0–2 and 3–5), workers 0–2
/// scored, worker 3 registered but never scored.
fn platform() -> TrainingSet {
    let ids = [7u32, 3, 12, 0, 5, 9, 3, 14, 1, 20, 6];
    let tasks = ids
        .iter()
        .enumerate()
        .map(|(j, &id)| {
            let topic_a = j % 2 == 0;
            let words = if topic_a {
                vec![(0, 3), (1, 1), (2, 1)]
            } else {
                vec![(3, 2), (4, 2), (5, 1)]
            };
            let num_tokens = words.iter().map(|&(_, c)| f64::from(c)).sum();
            let (good, bad) = if topic_a { (0, 1) } else { (1, 0) };
            let mut scores = vec![(good, 4.0), (bad, 0.5)];
            if j % 3 == 0 {
                scores.push((2, 2.0));
            }
            TaskData {
                task: TaskId(id),
                words,
                num_tokens,
                scores,
            }
        })
        .collect();
    TrainingSet::from_parts(tasks, 4, 6)
}

/// The model the fixture holds.
fn fixture_model() -> TdpmModel {
    let config = TdpmConfig {
        num_categories: 3,
        max_em_iters: 6,
        seed: 5,
        ..TdpmConfig::default()
    };
    let (mut model, _) = TdpmTrainer::new(config).fit(&platform()).expect("fit");
    let [a, b] = projections();
    model
        .record_feedback(WorkerId(0), &a, 3.0)
        .expect("feedback");
    model
        .record_feedback(WorkerId(0), &b, 1.0)
        .expect("feedback");
    model
        .record_feedback(WorkerId(2), &b, 2.5)
        .expect("feedback");
    model
}

/// Runs every incremental path on `model`, returning the capture hash
/// after each step.
fn replay(model: &mut TdpmModel) -> [u64; 6] {
    let [a, b] = projections();
    let mut hashes = [0u64; 6];
    // Restored models hold no cached factor: the first update refactorizes.
    model.record_feedback(WorkerId(1), &a, 2.5).expect("step 0");
    hashes[0] = fnv(capture(model).as_bytes());
    // The second update to the same worker goes through the cached factor.
    model
        .record_feedback(WorkerId(1), &b, -1.0)
        .expect("step 1");
    hashes[1] = fnv(capture(model).as_bytes());
    model.add_worker(WorkerId(9));
    hashes[2] = fnv(capture(model).as_bytes());
    model.record_feedback(WorkerId(9), &a, 1.5).expect("step 3");
    hashes[3] = fnv(capture(model).as_bytes());
    model.record_feedback(WorkerId(9), &b, 0.5).expect("step 4");
    hashes[4] = fnv(capture(model).as_bytes());
    model.record_feedback(WorkerId(3), &b, 3.0).expect("step 5");
    hashes[5] = fnv(capture(model).as_bytes());
    hashes
}

fn decay_fixture() -> String {
    assert!(FIXTURE.contains(NO_DECAY), "the fixture has no decay");
    FIXTURE.replacen(NO_DECAY, DECAY, 1)
}

#[test]
fn fixture_round_trips_byte_for_byte() {
    assert_eq!(capture(&restore(FIXTURE)), FIXTURE);
    let decay = decay_fixture();
    assert_eq!(capture(&restore(&decay)), decay);
}

#[test]
fn incremental_paths_match_committed_bits() {
    let got = replay(&mut restore(FIXTURE));
    let got_decay = replay(&mut restore(&decay_fixture()));
    assert_eq!(
        (got, got_decay),
        (STEP_HASHES, DECAY_STEP_HASHES),
        "new constants: STEP_HASHES = {got:#018x?}, DECAY_STEP_HASHES = {got_decay:#018x?}"
    );
}

#[test]
fn refitting_the_platform_reproduces_the_fixture() {
    if !PINNED_TARGET {
        return;
    }
    assert_eq!(capture(&fixture_model()), FIXTURE);
}
