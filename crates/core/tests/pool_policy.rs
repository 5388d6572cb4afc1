//! Spawn-policy regression pin: sub-threshold selections never enqueue
//! pool work.
//!
//! The bug this guards against: before the [`MIN_POOL_CHUNK_ROWS`] floor, a
//! caller passing an explicit thread count could shred a 1k-candidate
//! selection at 8 threads into 128-row chunks whose pool hand-off cost more
//! than the whole inline scan. The floor collapses such splits back to the
//! inline path, for single queries and batches alike; this test pins that
//! via the pool's own accounting.
//!
//! Runs as an *integration* test so it owns the process: the global
//! [`ScoringPool`] counters are process-wide, and unit tests running in
//! parallel would race the deltas observed here. Everything is asserted
//! from one `#[test]` for the same reason.
//!
//! [`MIN_POOL_CHUNK_ROWS`]: crowd_core::MIN_POOL_CHUNK_ROWS

use crowd_core::{ScoreSpec, SkillMatrix, MIN_POOL_CHUNK_ROWS};
use crowd_math::ScoringPool;
use crowd_store::WorkerId;

fn seeded_matrix(workers: u32) -> SkillMatrix {
    let mut m = SkillMatrix::new(2);
    for w in 0..workers {
        let mean = [(f64::from(w) * 0.713).sin(), (f64::from(w) * 0.291).cos()];
        m.upsert(WorkerId(w), &mean, &[0.1, 0.1]);
    }
    m
}

#[test]
fn pool_enqueues_only_past_the_min_chunk_floor() {
    let pool = ScoringPool::global();
    let lambda = [0.9, -1.7];

    // Small pool: a 1k-candidate selection at 8 threads must stay inline —
    // zero tasks enqueued, regardless of the requested thread count.
    let small = seeded_matrix(1_000);
    let resolved_small = small.resolve_all();
    assert!(resolved_small.len() < MIN_POOL_CHUNK_ROWS);
    let before = pool.stats();
    for threads in [2usize, 8, 64] {
        let ranked = small
            .select(
                &[&lambda],
                &resolved_small,
                7,
                &ScoreSpec {
                    threads: Some(threads),
                    ..ScoreSpec::default()
                },
            )
            .remove(0)
            .ranked;
        assert_eq!(ranked.len(), 7);
    }
    // A 32-query batch below the floor stays inline too.
    let batch = small.select(
        &[lambda.as_slice(); 32],
        &resolved_small,
        7,
        &ScoreSpec {
            threads: Some(8),
            ..ScoreSpec::default()
        },
    );
    assert!(batch.iter().all(|p| p.complete && p.ranked.len() == 7));
    let after = pool.stats();
    assert_eq!(
        after.tasks_enqueued, before.tasks_enqueued,
        "sub-floor selections must not touch the pool"
    );

    // Exactly at the floor the split is still a single chunk (chunk >= n),
    // so it stays inline too.
    let edge = seeded_matrix(u32::try_from(MIN_POOL_CHUNK_ROWS).unwrap());
    let resolved_edge = edge.resolve_all();
    let before = pool.stats();
    let ranked = edge
        .select(
            &[&lambda],
            &resolved_edge,
            7,
            &ScoreSpec {
                threads: Some(8),
                ..ScoreSpec::default()
            },
        )
        .remove(0)
        .ranked;
    assert_eq!(ranked.len(), 7);
    let after = pool.stats();
    assert_eq!(
        after.tasks_enqueued, before.tasks_enqueued,
        "a single-chunk split runs inline"
    );

    // Past the floor a multi-chunk split must go through the pool: the
    // enqueue counter moves and every worker stays alive.
    let large = seeded_matrix(u32::try_from(2 * MIN_POOL_CHUNK_ROWS).unwrap());
    let resolved_large = large.resolve_all();
    let before = pool.stats();
    let pooled = large
        .select(
            &[&lambda],
            &resolved_large,
            7,
            &ScoreSpec {
                threads: Some(8),
                ..ScoreSpec::default()
            },
        )
        .remove(0)
        .ranked;
    let after = pool.stats();
    assert!(
        after.tasks_enqueued > before.tasks_enqueued,
        "past the floor, chunks are pooled"
    );
    assert_eq!(after.live_workers, after.workers, "no worker died");

    // And the pooled result is bit-identical to the inline walk.
    let inline = large
        .select(
            &[&lambda],
            &resolved_large,
            7,
            &ScoreSpec {
                threads: Some(1),
                ..ScoreSpec::default()
            },
        )
        .remove(0)
        .ranked;
    assert_eq!(pooled.len(), inline.len());
    for (a, b) in pooled.iter().zip(&inline) {
        assert_eq!(a.worker, b.worker);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
}
