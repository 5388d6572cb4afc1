//! Property-based tests for the crowd database.

use crowd_store::wal::{apply, decode_record};
use crowd_store::{recover, CrowdDb, LoggedDb, StoreError, TaskId, WorkerId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A random sequence of valid operations on a small db.
#[derive(Debug, Clone)]
enum Op {
    AddWorker,
    AddTask,
    Assign(u32, u32),
    Feedback(u32, u32, f64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            Just(Op::AddWorker),
            Just(Op::AddTask),
            (0u32..8, 0u32..8).prop_map(|(w, t)| Op::Assign(w, t)),
            (0u32..8, 0u32..8, 0.0f64..10.0).prop_map(|(w, t, s)| Op::Feedback(w, t, s)),
        ],
        0..60,
    )
}

/// Like [`arb_ops`] over a tiny id space with feedback drawn twice as
/// often, so pairs are scored and then re-scored.
fn arb_scoring_ops() -> impl Strategy<Value = Vec<Op>> {
    let feedback = || (0u32..4, 0u32..4, 0.0f64..10.0).prop_map(|(w, t, s)| Op::Feedback(w, t, s));
    prop::collection::vec(
        prop_oneof![
            Just(Op::AddWorker),
            Just(Op::AddTask),
            (0u32..4, 0u32..4).prop_map(|(w, t)| Op::Assign(w, t)),
            feedback(),
            feedback(),
        ],
        0..80,
    )
}

/// `worker_task_count` as it was first written: walk the worker's entries
/// and count the scored ones.
fn scored_entries(db: &CrowdDb, w: WorkerId) -> usize {
    db.tasks_of(w).filter(|&(_, s)| s.is_some()).count()
}

/// Writes a valid WAL for the op sequence at a fresh temp path.
fn build_wal(ops: &[Op]) -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("crowd-wal-prop-{}-{case}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut logged = LoggedDb::open(&path).unwrap();
    for op in ops {
        match *op {
            Op::AddWorker => {
                logged.add_worker("w").unwrap();
            }
            Op::AddTask => {
                logged.add_task("alpha beta gamma delta").unwrap();
            }
            Op::Assign(w, t) => {
                let _ = logged.assign(WorkerId(w), TaskId(t));
            }
            Op::Feedback(w, t, s) => {
                let _ = logged.record_feedback(WorkerId(w), TaskId(t), s);
            }
        }
    }
    path
}

/// Splits bytes into non-empty lines exactly the way `recover` does.
fn nonempty_lines(bytes: &[u8]) -> Vec<Vec<u8>> {
    bytes
        .split(|&b| b == b'\n')
        .map(|raw| raw.strip_suffix(b"\r").unwrap_or(raw).to_vec())
        .filter(|l| !l.iter().all(|b| b.is_ascii_whitespace()))
        .collect()
}

proptest! {
    /// Whatever sequence of operations runs, the secondary indexes stay
    /// consistent with the primary data.
    #[test]
    fn indexes_always_consistent(ops in arb_ops()) {
        let mut db = CrowdDb::new();
        let mut expected_pairs: Vec<(WorkerId, TaskId)> = Vec::new();

        for op in ops {
            match op {
                Op::AddWorker => {
                    db.add_worker("w");
                }
                Op::AddTask => {
                    db.add_task("some question text here");
                }
                Op::Assign(w, t) => {
                    let (w, t) = (WorkerId(w), TaskId(t));
                    let fresh = w.index() < db.num_workers()
                        && t.index() < db.num_tasks()
                        && !db.is_assigned(w, t);
                    match db.assign(w, t) {
                        Ok(()) => {
                            prop_assert!(fresh);
                            expected_pairs.push((w, t));
                        }
                        Err(_) => prop_assert!(!fresh),
                    }
                }
                Op::Feedback(w, t, s) => {
                    let (w, t) = (WorkerId(w), TaskId(t));
                    let assigned = db.is_assigned(w, t);
                    match db.record_feedback(w, t, s) {
                        Ok(()) => {
                            prop_assert!(assigned);
                            prop_assert_eq!(db.feedback(w, t), Some(s));
                        }
                        Err(e) => {
                            prop_assert!(!assigned, "unexpected error {e}");
                        }
                    }
                }
            }
        }

        // Assignment count matches what succeeded.
        prop_assert_eq!(db.num_assignments(), expected_pairs.len());
        // Both directions of the index agree with the pair list.
        for &(w, t) in &expected_pairs {
            prop_assert!(db.tasks_of(w).any(|(tt, _)| tt == t));
            prop_assert!(db.workers_of(t).any(|(ww, _)| ww == w));
        }
        // resolved_tasks is exactly the set of scored pairs grouped by task.
        let resolved_pairs: usize = db.resolved_tasks().iter().map(|rt| rt.scores.len()).sum();
        prop_assert_eq!(resolved_pairs, db.num_resolved());
    }

    /// Snapshot round-trips preserve observable state for arbitrary dbs.
    #[test]
    fn snapshot_roundtrip(ops in arb_ops()) {
        let mut db = CrowdDb::new();
        for op in ops {
            match op {
                Op::AddWorker => { db.add_worker("w"); }
                Op::AddTask => { db.add_task("alpha beta gamma delta"); }
                Op::Assign(w, t) => { let _ = db.assign(WorkerId(w), TaskId(t)); }
                Op::Feedback(w, t, s) => {
                    let _ = db.record_feedback(WorkerId(w), TaskId(t), s);
                }
            }
        }
        let snap = crowd_store::snapshot::Snapshot::capture(&db);
        let restored = crowd_store::snapshot::Snapshot::from_json(&snap.to_json().unwrap())
            .unwrap()
            .restore();
        prop_assert_eq!(restored.num_workers(), db.num_workers());
        prop_assert_eq!(restored.num_tasks(), db.num_tasks());
        prop_assert_eq!(restored.num_assignments(), db.num_assignments());
        prop_assert_eq!(restored.num_resolved(), db.num_resolved());
        for w in db.worker_ids() {
            for (t, s) in db.tasks_of(w) {
                prop_assert_eq!(restored.feedback(w, t), s);
            }
        }
    }

    /// Feedback scores must be finite; NaN/inf are always rejected and leave
    /// no trace.
    #[test]
    fn invalid_scores_never_stored(bad in prop_oneof![
        Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)
    ]) {
        let mut db = CrowdDb::new();
        let w = db.add_worker("w");
        let t = db.add_task("q");
        db.assign(w, t).unwrap();
        let r = db.record_feedback(w, t, bad);
        prop_assert!(matches!(r, Err(StoreError::InvalidScore(_))));
        prop_assert_eq!(db.feedback(w, t), None);
        prop_assert_eq!(db.num_resolved(), 0);
    }

    /// WAL recovery under random corruption: flip a bit or truncate the
    /// file anywhere, and `recover` must still (a) never error or panic,
    /// (b) apply every record that precedes the first damaged line, and
    /// (c) account for every line as applied, skipped, or a torn tail —
    /// deterministically.
    #[test]
    fn corrupted_wal_recovers_prefix_and_reports(
        ops in arb_ops(),
        mode in 0u8..2,
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let path = build_wal(&ops);
        let pristine = std::fs::read(&path).unwrap();
        prop_assume!(!pristine.is_empty());

        // Corrupt: mode 0 flips one bit, mode 1 truncates at a byte offset.
        let off = ((pos * pristine.len() as f64) as usize).min(pristine.len() - 1);
        let corrupted = if mode == 0 {
            let mut bytes = pristine.clone();
            bytes[off] ^= 1 << bit;
            bytes
        } else {
            pristine[..off].to_vec()
        };
        std::fs::write(&path, &corrupted).unwrap();

        // (a) Salvage-mode recovery never fails outright.
        let (db, report) = recover(&path).unwrap();

        // (b) Everything before the first damaged line is applied. The
        // damage point is the first line of the corrupted file that no
        // longer matches the pristine log (bit flips can also split or
        // merge lines by touching a newline byte; truncation shortens the
        // tail — the common-prefix comparison covers all of these).
        let pristine_lines = nonempty_lines(&pristine);
        let corrupted_lines = nonempty_lines(&corrupted);
        let intact = pristine_lines
            .iter()
            .zip(corrupted_lines.iter())
            .take_while(|(a, b)| a == b)
            .count();
        let mut expected = CrowdDb::new();
        for raw in &pristine_lines[..intact] {
            let line = std::str::from_utf8(raw).expect("pristine log is UTF-8");
            let op = decode_record(line).expect("pristine record must decode");
            apply(&mut expected, &op).expect("pristine prefix must replay");
        }
        prop_assert!(report.applied >= intact);
        prop_assert!(db.num_workers() >= expected.num_workers());
        prop_assert!(db.num_tasks() >= expected.num_tasks());
        prop_assert!(db.num_assignments() >= expected.num_assignments());
        for w in expected.worker_ids() {
            for (t, _) in expected.tasks_of(w) {
                prop_assert!(db.is_assigned(w, t));
            }
        }

        // (c) Every surviving line is accounted for exactly once.
        let torn = usize::from(report.torn_tail);
        prop_assert_eq!(
            report.applied + report.skipped.len() + torn,
            corrupted_lines.len()
        );
        // Damage anywhere but the tail must be *reported*, not silent —
        // unless the flip left a semantically identical record (e.g. it
        // only changed the case of a checksum hex digit).
        if intact + 1 < corrupted_lines.len() {
            let damaged_still_decodes = std::str::from_utf8(&corrupted_lines[intact])
                .ok()
                .and_then(|l| decode_record(l).ok())
                .is_some();
            if !damaged_still_decodes {
                prop_assert!(!report.is_clean());
            }
        }

        // Recovery is deterministic: same file, same report, same state.
        let (db2, report2) = recover(&path).unwrap();
        prop_assert_eq!(report2, report);
        prop_assert_eq!(db2.num_workers(), db.num_workers());
        prop_assert_eq!(db2.num_tasks(), db.num_tasks());
        prop_assert_eq!(db2.num_assignments(), db.num_assignments());

        let _ = std::fs::remove_file(&path);
    }

    /// `worker_task_count` reads a count `record_feedback` keeps; it equals
    /// the entry walk after any mix of assignments, first scores and score
    /// overwrites — live, after WAL recovery and after a snapshot round
    /// trip.
    #[test]
    fn worker_task_count_matches_an_entry_walk(ops in arb_scoring_ops()) {
        let path = build_wal(&ops);
        let (recovered, report) = recover(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert!(report.is_clean());
        let mut live = CrowdDb::new();
        for op in ops {
            match op {
                Op::AddWorker => { live.add_worker("w"); }
                Op::AddTask => { live.add_task("alpha beta gamma delta"); }
                Op::Assign(w, t) => { let _ = live.assign(WorkerId(w), TaskId(t)); }
                Op::Feedback(w, t, s) => {
                    let _ = live.record_feedback(WorkerId(w), TaskId(t), s);
                }
            }
        }
        let snap = crowd_store::snapshot::Snapshot::capture(&live);
        let restored = crowd_store::snapshot::Snapshot::from_json(&snap.to_json().unwrap())
            .unwrap()
            .restore();
        for db in [&live, &recovered, &restored] {
            prop_assert_eq!(db.num_workers(), live.num_workers());
            for w in db.worker_ids() {
                prop_assert_eq!(db.worker_task_count(w), scored_entries(db, w));
                prop_assert_eq!(db.worker_task_count(w), scored_entries(&live, w));
            }
        }
    }

    /// Worker groups are nested: group(n+1) ⊆ group(n), and coverage is
    /// monotone non-increasing.
    #[test]
    fn groups_are_nested(ops in arb_ops()) {
        let mut db = CrowdDb::new();
        for op in ops {
            match op {
                Op::AddWorker => { db.add_worker("w"); }
                Op::AddTask => { db.add_task("q r s"); }
                Op::Assign(w, t) => { let _ = db.assign(WorkerId(w), TaskId(t)); }
                Op::Feedback(w, t, s) => {
                    let _ = db.record_feedback(WorkerId(w), TaskId(t), s);
                }
            }
        }
        use crowd_store::WorkerGroup;
        let mut prev: Option<WorkerGroup> = None;
        for n in 0..5 {
            let g = WorkerGroup::extract(&db, n);
            if let Some(p) = &prev {
                for &m in &g.members {
                    prop_assert!(p.contains(m), "group({n}) ⊆ group({})", n - 1);
                }
                prop_assert!(g.coverage(&db) <= p.coverage(&db) + 1e-12);
            }
            prev = Some(g);
        }
    }
}
