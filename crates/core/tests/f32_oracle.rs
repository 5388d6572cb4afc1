//! Property oracle for the opt-in f32 serving path: `SkillMatrix::select`
//! under `Precision::F32` against the bit-exact f64 ranking on arbitrary
//! matrices.
//!
//! The f32 precision contract pinned here (DESIGN.md §10c):
//!
//! 1. **Bounded error.** For every candidate the f32 score differs from
//!    the f64 score by at most `C · ε_f32 · Σ_d |λ_d · μ_d|` with
//!    `C = 2(k + 3)`: one rounding per stored mean, one per rounded query
//!    coefficient, one per product and at most `k` for the summation
//!    tree, with headroom. The bound is relative to the *absolute-sum*
//!    mass of the dot product, not its value — cancellation can make the
//!    error relative to the result arbitrarily large, and the contract
//!    deliberately does not promise otherwise.
//! 2. **Rank agreement modulo ties.** The f32 top-k agrees with the f64
//!    top-k except for candidates whose f64 scores sit within the error
//!    bound of the f64 cut-off score — exactly the ties the precision
//!    loss is allowed to reorder.
//! 3. **NaN hygiene.** Workers with NaN means are skipped by both paths.
//! 4. **Extreme magnitudes.** The bounds hold for coefficients up to
//!    1e18 in magnitude (products up to 1e36 stay finite in f32).
//!
//! The complementary *determinism* pins (f32 across thread counts and
//! batching is bit-identical to itself) live in the skillmatrix unit
//! tests; this file pins f32 *against f64*.

use crowd_core::{Precision, ScoreSpec, SkillMatrix};
use crowd_store::WorkerId;
use proptest::prelude::*;

/// Per-candidate score error bound, relative to the absolute-sum mass of
/// the dot product (see module docs). The `1e-40` absolute slack covers
/// gradual underflow: products below the f32 normal range round into
/// denormals with absolute (not relative) error, at most ~7e-46 per term.
fn error_bound(k: usize, lambda: &[f64], mean: &[f64]) -> f64 {
    let mass: f64 = lambda.iter().zip(mean).map(|(&l, &m)| (l * m).abs()).sum();
    2.0 * (k as f64 + 3.0) * f64::from(f32::EPSILON) * mass + 1e-40
}

/// Mostly moderate coefficients, with occasional zeros and extreme
/// magnitudes (±1e±18 — the weighting is emulated with an index draw since
/// the vendored proptest's `prop_oneof!` is unweighted).
fn arb_coeff() -> impl Strategy<Value = f64> {
    (0usize..8, -10.0..10.0f64).prop_map(|(pick, moderate)| match pick {
        0 => 0.0,
        1 => 1e18 * moderate.signum(),
        2 => 1e-18 * moderate,
        _ => moderate,
    })
}

#[derive(Debug, Clone)]
struct Case {
    k: usize,
    lambda: Vec<f64>,
    /// Per-worker mean rows; `None` marks a row poisoned with NaN.
    rows: Vec<Option<Vec<f64>>>,
    top: usize,
}

/// Draws at the maximum width (6 dims) and truncates to `k` — the vendored
/// proptest has no `prop_flat_map` to thread a drawn `k` into inner sizes.
fn arb_case() -> impl Strategy<Value = Case> {
    const MAX_K: usize = 6;
    (
        1usize..=MAX_K,
        prop::collection::vec(arb_coeff(), MAX_K),
        prop::collection::vec(
            (0usize..10, prop::collection::vec(arb_coeff(), MAX_K)),
            1..60,
        ),
        1usize..12,
    )
        .prop_map(|(k, lambda, rows, top)| Case {
            k,
            lambda: lambda[..k].to_vec(),
            rows: rows
                .into_iter()
                .map(|(pick, mean)| (pick != 0).then(|| mean[..k].to_vec()))
                .collect(),
            top,
        })
}

fn build(case: &Case) -> SkillMatrix {
    let mut m = SkillMatrix::new(case.k);
    let vars = vec![0.1; case.k];
    for (w, row) in case.rows.iter().enumerate() {
        let mean = match row {
            Some(mean) => mean.clone(),
            None => {
                let mut poisoned = vec![1.0; case.k];
                poisoned[0] = f64::NAN;
                poisoned
            }
        };
        m.upsert(WorkerId(u32::try_from(w).unwrap()), &mean, &vars);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn f32_serving_oracle(case in arb_case()) {
        let m = build(&case);
        let resolved = m.resolve_all();
        let f64_spec = ScoreSpec { threads: Some(1), ..ScoreSpec::default() };
        let f32_spec = ScoreSpec { precision: Precision::F32, ..f64_spec };
        let f64_ranked = m.select(&[&case.lambda], &resolved, case.top, &f64_spec).remove(0).ranked;
        let f32_ranked = m.select(&[&case.lambda], &resolved, case.top, &f32_spec).remove(0).ranked;

        // NaN hygiene: both paths rank exactly the non-poisoned workers.
        let live = case.rows.iter().filter(|r| r.is_some()).count();
        let expect = live.min(case.top);
        prop_assert_eq!(f64_ranked.len(), expect, "f64 ranks the live workers");
        prop_assert_eq!(f32_ranked.len(), expect, "f32 ranks the live workers");

        // Per-score error bound, matched by worker id against the full f64
        // scoring (every ranked f32 worker has a live f64 score).
        let score_f64 = |w: WorkerId| -> f64 {
            let mean = case.rows[w.0 as usize].as_ref().expect("live row");
            case.lambda.iter().zip(mean).map(|(&l, &mu)| l * mu).sum()
        };
        for r in &f32_ranked {
            let mean = case.rows[r.worker.0 as usize].as_ref().expect("live row");
            let oracle = score_f64(r.worker);
            let bound = error_bound(case.k, &case.lambda, mean);
            prop_assert!(
                (r.score - oracle).abs() <= bound,
                "worker {:?}: f32 score {} vs f64 {} exceeds bound {}",
                r.worker, r.score, oracle, bound
            );
        }

        // Rank agreement modulo ties at the cut-off: every f32 pick must
        // score within the error window of the f64 cut, and every f64 pick
        // clearly above the cut (by more than the window) must be in the
        // f32 set. The window is the largest error bound of any live row —
        // the widest amount precision loss can move a score.
        if f64_ranked.len() == case.top {
            let cut = f64_ranked.last().expect("non-empty").score;
            let window: f64 = case
                .rows
                .iter()
                .flatten()
                .map(|mean| error_bound(case.k, &case.lambda, mean))
                .fold(0.0, f64::max)
                * 2.0;
            let f32_set: Vec<WorkerId> = f32_ranked.iter().map(|r| r.worker).collect();
            for r in &f32_ranked {
                prop_assert!(
                    score_f64(r.worker) >= cut - window,
                    "f32 picked {:?} (f64 score {}) far below the f64 cut {}",
                    r.worker, score_f64(r.worker), cut
                );
            }
            for r in &f64_ranked {
                if r.score > cut + window {
                    prop_assert!(
                        f32_set.contains(&r.worker),
                        "f64 pick {:?} (score {}, cut {}) missing from the f32 set",
                        r.worker, r.score, cut
                    );
                }
            }
        } else {
            // Fewer live workers than `top`: both paths rank all of them.
            let mut a: Vec<WorkerId> = f64_ranked.iter().map(|r| r.worker).collect();
            let mut b: Vec<WorkerId> = f32_ranked.iter().map(|r| r.worker).collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "same membership when everyone ranks");
        }
    }
}
