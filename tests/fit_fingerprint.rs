//! Pins the numbers of a whole fit, bit for bit.
//!
//! The shard oracle (`crates/core/tests/shard_oracle.rs`) compares
//! partitions of the same code against each other: a reordered
//! accumulation inside a per-entity kernel changes every partition
//! equally, so that oracle still passes. This test compares two fits of a
//! fixed Yahoo-like platform (280 workers, 960 tasks, 2788 scored pairs, so
//! both entity axes span several 256-entity reduction blocks) against
//! constants committed in this file:
//!
//! - the ELBO trace, as `f64::to_bits`;
//! - one FNV-1a hash over the bits of every serving-matrix mean and
//!   variance row, `μ_w`, `μ_c`, `τ`, `Σ_w`, `Σ_c`, `β`, and the trained task
//!   projections in `TaskId` order.
//!
//! One fit runs at the default fan-out (one shard, one thread), the other
//! at `num_shards = 4, num_threads = 2`; both must hit the same constants.
//!
//! The constants are only compared on Linux x86-64: the fit calls the
//! platform libm's `exp` and `ln`, whose last-ulp results are not specified
//! across targets. Elsewhere the two fits are still checked against each
//! other.
//!
//! On a mismatch the test prints the new constants. Paste them only for a
//! change that is meant to move the fit's numbers, and say why in
//! CHANGES.md.

use crowdselect::prelude::*;

/// `objective_trace` bits of both fits.
const TRACE_BITS: [u64; 4] = [
    0xc0ed_8c08_0a24_08cf,
    0xc0e8_42cf_8867_bdc6,
    0xc0e7_fa81_b14c_00b5,
    0xc0e7_d02e_234a_cc57,
];

/// FNV-1a over the fitted model (see [`model_hash`]).
const MODEL_HASH: u64 = 0xf083_8341_0506_b2a7;

/// Whether this target's libm is the one the constants were taken on.
const PINNED_TARGET: bool = cfg!(all(target_os = "linux", target_arch = "x86_64"));

/// 64-bit FNV-1a over the little-endian bits of a stream of `f64`s.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn f64s<'a>(&mut self, xs: impl IntoIterator<Item = &'a f64>) {
        for x in xs {
            for byte in x.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    fn matrix(&mut self, m: &crowdselect::math::Matrix) {
        for r in 0..m.rows() {
            self.f64s(m.row(r));
        }
    }
}

/// Hashes everything a fit produces that serving or a later refit reads.
fn model_hash(model: &TdpmModel) -> u64 {
    let mut h = Fnv::new();
    let matrix = model.skill_matrix();
    for row in 0..matrix.ids().len() {
        h.f64s(matrix.mean_row(row));
        h.f64s(matrix.var_row(row));
    }
    let p = model.params();
    h.f64s(p.mu_w.as_slice());
    h.f64s(p.mu_c.as_slice());
    h.f64s([p.tau].iter());
    h.matrix(&p.sigma_w);
    h.matrix(&p.sigma_c);
    h.matrix(&p.beta);
    let mut tasks: Vec<TaskId> = model.trained_task_ids().collect();
    tasks.sort_unstable();
    for t in tasks {
        let proj = model.trained_projection(t).expect("listed task");
        h.f64s(proj.lambda.as_slice());
        h.f64s(proj.nu2.as_slice());
        h.f64s([proj.num_tokens].iter());
    }
    h.0
}

#[test]
fn fit_matches_committed_fingerprint() {
    let platform = PlatformGenerator::new(SimConfig::yahoo(0.4, 5)).generate();
    let ts = TrainingSet::from_db(&platform.db);
    assert_eq!(
        (ts.num_workers(), ts.num_tasks(), ts.num_scored_pairs()),
        (280, 960, 2788),
        "the generated platform changed shape"
    );

    let base = TdpmConfig {
        num_categories: 4,
        max_em_iters: 4,
        seed: 3,
        ..TdpmConfig::default()
    };
    let fanned_out = TdpmConfig {
        num_shards: 4,
        num_threads: 2,
        ..base.clone()
    };
    let mut fingerprints = Vec::new();
    for (name, config) in [("default", base), ("4 shards x 2 threads", fanned_out)] {
        let (model, report) = TdpmTrainer::new(config).fit(&ts).unwrap();
        let trace: Vec<u64> = report.objective_trace.iter().map(|x| x.to_bits()).collect();
        let hash = model_hash(&model);
        if PINNED_TARGET && (trace != TRACE_BITS || hash != MODEL_HASH) {
            let listed: Vec<String> = trace.iter().map(|b| format!("{b:#018x}")).collect();
            panic!(
                "the {name} fit no longer matches the committed fingerprint.\n\
                 new constants:\n  TRACE_BITS = [{}]\n  MODEL_HASH = {hash:#018x}\n\
                 Paste them only for a change that is meant to move the fit's \
                 numbers, and say why in CHANGES.md.",
                listed.join(", ")
            );
        }
        fingerprints.push((trace, hash));
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "the fan-out changed the fit"
    );
}
