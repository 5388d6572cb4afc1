//! Bracketed root finding for strictly decreasing scalar functions.

use crate::{MathError, Result};

/// Finds the root of a strictly decreasing function `f` on `(0, ∞)`.
///
/// `f` returns its value and its derivative at `x`.
///
/// The stationarity condition for the variational variances `ν²` (paper
/// Eq. 15 / 23) has exactly this shape: the derivative of the ELBO with
/// respect to `ν²_k` decreases monotonically from `+∞` (as `ν² → 0⁺`, driven
/// by the entropy term `1/(2ν²)`) to negative values, so a unique positive
/// root exists whenever the function changes sign.
///
/// The search brackets the root by halving or doubling from `x0` until `f`
/// changes sign, then runs a safeguarded Newton iteration (rtsafe) inside
/// the bracket to a relative tolerance of `tol`. A Newton step is taken only
/// when it lands inside the bracket and is at most half as long as the step
/// before last; otherwise the bracket is bisected. Newton alone would
/// diverge on this shape: where the exponential term dominates, a step from
/// the left of the root overshoots by orders of magnitude, and where the
/// `1/(2x)` term dominates, a step from the right lands at `x ≤ 0`. The
/// bracket bounds both, and near the root the iteration converges
/// quadratically.
pub fn solve_decreasing(f: impl Fn(f64) -> (f64, f64), x0: f64, tol: f64) -> Result<f64> {
    debug_assert!(x0 > 0.0, "initial guess must be positive");
    // Bracket ends as (x, f(x), f'(x)): f(lo) > 0 > f(hi).
    let (v0, d0) = f(x0);
    let mut lo = (x0, v0, d0);
    let mut hi = lo;

    // Expand downward until f(lo) > 0; the last point passed bounds the root
    // from above.
    let mut tries = 0;
    while lo.1 <= 0.0 {
        if lo.1 == 0.0 {
            return Ok(lo.0);
        }
        hi = lo;
        let x = 0.5 * lo.0;
        let (v, d) = f(x);
        lo = (x, v, d);
        tries += 1;
        if tries > 200 || x < 1e-300 {
            return Err(MathError::DidNotConverge {
                routine: "solve_decreasing (lower bracket)",
                iterations: tries,
            });
        }
    }
    // Expand upward until f(hi) < 0; the last point passed bounds it from
    // below.
    tries = 0;
    while hi.1 >= 0.0 {
        if hi.1 == 0.0 {
            return Ok(hi.0);
        }
        lo = hi;
        let x = 2.0 * hi.0;
        let (v, d) = f(x);
        hi = (x, v, d);
        tries += 1;
        if tries > 200 || x > 1e300 {
            return Err(MathError::DidNotConverge {
                routine: "solve_decreasing (upper bracket)",
                iterations: tries,
            });
        }
    }

    // rtsafe from the end whose Newton step is shorter.
    let (mut x, mut fx, mut dfx) = if (hi.1 / hi.2).abs() < (lo.1 / lo.2).abs() {
        hi
    } else {
        lo
    };
    let mut step = hi.0 - lo.0;
    let mut step_before = step;
    for _ in 0..200 {
        let mid = 0.5 * (lo.0 + hi.0);
        if (hi.0 - lo.0) <= tol * mid.max(1e-12) {
            return Ok(mid);
        }
        let newton = x - fx / dfx;
        let take_newton =
            newton >= lo.0 && newton <= hi.0 && (2.0 * fx).abs() <= (step_before * dfx).abs();
        step_before = step;
        if take_newton {
            step = (x - newton).abs();
            x = newton;
            if step <= tol * x.max(1e-12) {
                return Ok(x);
            }
        } else {
            step = 0.5 * (hi.0 - lo.0);
            x = mid;
        }
        (fx, dfx) = f(x);
        if fx > 0.0 {
            lo = (x, fx, dfx);
        } else if fx < 0.0 {
            hi = (x, fx, dfx);
        } else {
            return Ok(x);
        }
    }
    Ok(0.5 * (lo.0 + hi.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn linear_root() {
        // f(x) = 5 − x, root at 5.
        let r = solve_decreasing(|x| (5.0 - x, -1.0), 1.0, 1e-12).unwrap();
        assert!((r - 5.0).abs() < 1e-9);
    }

    #[test]
    fn elbo_like_shape() {
        // 1/(2x) − a − b·e^{x/2}: the actual ν² stationarity shape.
        let (a, b) = (0.7, 0.3);
        let f = |x: f64| 1.0 / (2.0 * x) - a - b * (x / 2.0).exp();
        let df = |x: f64| -1.0 / (2.0 * x * x) - 0.5 * b * (x / 2.0).exp();
        let r = solve_decreasing(|x| (f(x), df(x)), 1.0, 1e-12).unwrap();
        assert!(f(r).abs() < 1e-8, "residual {}", f(r));
        assert!(r > 0.0);
    }

    #[test]
    fn bracket_expands_in_both_directions() {
        // Root far above the initial guess.
        let r = solve_decreasing(|x| (1e6 - x, -1.0), 1.0, 1e-10).unwrap();
        assert!((r - 1e6).abs() / 1e6 < 1e-8);
        // Root far below the initial guess.
        let r = solve_decreasing(|x| (1e-6 - x, -1.0), 1.0, 1e-12).unwrap();
        assert!((r - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn all_negative_function_errors() {
        // f(x) = −1 never changes sign: no positive root.
        assert!(solve_decreasing(|_| (-1.0, 0.0), 1.0, 1e-10).is_err());
    }

    #[test]
    fn all_positive_function_errors() {
        assert!(solve_decreasing(|_| (1.0, 0.0), 1.0, 1e-10).is_err());
    }

    /// Plain bracket-and-bisect on the value alone: the root finder this
    /// module used before the Newton steps, kept as the oracle.
    fn bisect(f: impl Fn(f64) -> f64, x0: f64, tol: f64) -> f64 {
        let (mut lo, mut hi) = (x0, x0);
        while f(lo) <= 0.0 {
            lo *= 0.5;
        }
        while f(hi) >= 0.0 {
            hi *= 2.0;
        }
        loop {
            let mid = 0.5 * (lo + hi);
            if (hi - lo) <= tol * mid.max(1e-12) {
                return mid;
            }
            let fm = f(mid);
            if fm > 0.0 {
                lo = mid;
            } else if fm < 0.0 {
                hi = mid;
            } else {
                return mid;
            }
        }
    }

    /// `n` points from `10^a` to `10^b`, evenly spaced in the exponent.
    fn logspace(a: f64, b: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 10f64.powf(a + (b - a) * i as f64 / (n - 1) as f64))
            .collect()
    }

    #[test]
    fn newton_matches_bisection_on_the_elbo_shape_in_no_more_evaluations() {
        // 1/(2x) − q − s·e^{λ+x/2} over the ranges the ν² update meets.
        let mut scales = vec![0.0];
        scales.extend(logspace(-3.0, 3.0, 5));
        let (mut points, mut newton_evals, mut bisect_evals) = (0usize, 0usize, 0usize);
        for &q in &logspace(-3.0, 3.0, 5) {
            for &s in &scales {
                for lam in [-10.0, -5.0, 0.0, 5.0, 10.0] {
                    for x0 in [1e-8, 1e-2, 1.0, 1e2, 1e8] {
                        let word = |x: f64| {
                            if s > 0.0 {
                                s * (lam + x / 2.0).exp()
                            } else {
                                0.0
                            }
                        };
                        let calls = Cell::new(0usize);
                        let root = solve_decreasing(
                            |x| {
                                calls.set(calls.get() + 1);
                                let w = word(x);
                                (1.0 / (2.0 * x) - q - w, -1.0 / (2.0 * x * x) - 0.5 * w)
                            },
                            x0,
                            1e-10,
                        )
                        .unwrap();
                        let newton = calls.replace(0);
                        let oracle = bisect(
                            |x| {
                                calls.set(calls.get() + 1);
                                1.0 / (2.0 * x) - q - word(x)
                            },
                            x0,
                            1e-10,
                        );
                        let bisected = calls.get();
                        let at = format!("q={q:e} s={s:e} λ={lam} x0={x0:e}");
                        assert!(
                            (root - oracle).abs() <= 1e-9 * oracle,
                            "{at}: Newton {root:e} vs bisection {oracle:e}"
                        );
                        assert!(
                            newton <= bisected,
                            "{at}: {newton} evaluations vs bisection's {bisected}"
                        );
                        points += 1;
                        newton_evals += newton;
                        bisect_evals += bisected;
                    }
                }
            }
        }
        assert_eq!(points, 750);
        assert!(newton_evals < bisect_evals);
    }
}
