//! Seeded concurrency stress for the metrics registry.
//!
//! The registry promises lock-light recording: handles are `Arc`-shared
//! atomics, and the registry lock is only taken to create or snapshot.
//! These tests hammer one registry from many threads with a deterministic
//! workload and assert the totals are *exact* — atomics may interleave, but
//! no increment may be lost — and that snapshots taken mid-stampede are
//! internally consistent.

use crowd_obs::Registry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;
const OPS_PER_THREAD: u64 = 20_000;

#[test]
fn concurrent_counters_lose_nothing() {
    let registry = Arc::new(Registry::new());
    // Half the threads share one hot counter; the rest get their own — both
    // the contended and uncontended paths must be exact.
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                let shared = registry.counter("stress", "shared");
                let own = registry.counter("stress", &format!("own_{t}"));
                for i in 0..OPS_PER_THREAD {
                    shared.inc();
                    own.add(i % 3);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }

    let snap = registry.snapshot();
    let get = |name: &str| {
        snap.counter("stress", name)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert_eq!(get("shared"), THREADS as u64 * OPS_PER_THREAD);
    // Σ_{i<N} (i % 3) for N = 20_000: 6_666 full cycles of (0+1+2) + 0 + 1.
    let own_expected: u64 = (0..OPS_PER_THREAD).map(|i| i % 3).sum();
    for t in 0..THREADS {
        assert_eq!(get(&format!("own_{t}")), own_expected, "thread {t}");
    }
}

#[test]
fn concurrent_histograms_account_for_every_observation() {
    let registry = Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                let h = registry.histogram("stress", "latency");
                // Deterministic per-thread sequence spanning several buckets.
                for i in 0..OPS_PER_THREAD {
                    let v = ((t as u64 * OPS_PER_THREAD + i) % 997) as f64 * 1e-5;
                    h.observe(v);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }

    let snap = registry.snapshot();
    let hist = snap
        .histogram("stress", "latency")
        .expect("histogram missing");
    let total = THREADS as u64 * OPS_PER_THREAD;
    assert_eq!(hist.count, total);
    // Per-bucket tallies plus the overflow bin must account for every
    // observation (each one lands somewhere exactly once).
    let bucketed: u64 = hist.buckets.iter().map(|b| b.count).sum();
    assert_eq!(bucketed + hist.overflow, total);
    // The workload is deterministic, so the sum is too (f64 addition of
    // identical multisets under atomic CAS accumulates the same total
    // regardless of interleaving only approximately — check tolerance).
    let expected: f64 = (0..THREADS as u64 * OPS_PER_THREAD)
        .map(|x| (x % 997) as f64 * 1e-5)
        .sum();
    assert!(
        (hist.sum - expected).abs() < 1e-6 * expected.max(1.0),
        "sum {} vs expected {expected}",
        hist.sum
    );
}

#[test]
fn snapshots_during_stampede_are_consistent() {
    let registry = Arc::new(Registry::new());
    let stop = Arc::new(AtomicBool::new(false));
    // Writers and the reader meet here once every writer has registered its
    // metrics, so the first snapshot already holds the `stampede` component.
    let registered = Arc::new(Barrier::new(THREADS + 1));

    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let registered = Arc::clone(&registered);
            std::thread::spawn(move || {
                let c = registry.counter("stampede", "events");
                let g = registry.gauge("stampede", &format!("level_{t}"));
                registered.wait();
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    c.inc();
                    g.set(n as f64);
                    n += 1;
                }
                n
            })
        })
        .collect();

    // Reader thread: counters must be monotone across snapshots taken while
    // writers are running, and every snapshot must serialize cleanly.
    registered.wait();
    let mut last = 0u64;
    for _ in 0..50 {
        let snap = registry.snapshot();
        if let Some(c) = snap.counter("stampede", "events") {
            assert!(c >= last, "counter went backwards: {c} < {last}");
            last = c;
        }
        let json = snap.to_json();
        assert!(json.contains("stampede"));
    }
    stop.store(true, Ordering::Relaxed);

    let written: u64 = writers
        .into_iter()
        .map(|h| h.join().expect("writer panicked"))
        .sum();
    let final_snap = registry.snapshot();
    assert_eq!(
        final_snap.counter("stampede", "events").unwrap(),
        written,
        "final count must equal the number of increments performed"
    );
}
