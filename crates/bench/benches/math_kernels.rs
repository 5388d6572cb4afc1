//! Micro-benchmarks of the math kernels the inference hot path relies on:
//! Cholesky factor+solve (worker update, Eq. 10) and softmax (logistic
//! link, Eq. 4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd_math::special::softmax;
use crowd_math::{Cholesky, Matrix, Vector};
use std::hint::black_box;

fn spd(n: usize) -> Matrix {
    let mut a = Matrix::identity(n);
    for i in 0..n {
        for j in 0..n {
            let v = 1.0 / (1.0 + (i as f64 - j as f64).abs());
            a[(i, j)] += 0.5 * v;
        }
    }
    a.symmetrize();
    a
}

fn math_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholesky_factor_solve");
    for n in [10usize, 20, 50] {
        let a = spd(n);
        let b = Vector::from_fn(n, |i| (i as f64).sin());
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                let chol = Cholesky::factor(&a).unwrap();
                black_box(chol.solve(&b).unwrap())
            })
        });
    }
    group.finish();

    // The worker E-step resets a precision matrix and RHS to the prior for
    // every worker each EM iteration. Contrast the old per-worker clone with
    // the reuse pattern of `run_worker_range`: one allocation via copy_from.
    let mut group = c.benchmark_group("estep_buffer_reset");
    for k in [10usize, 50] {
        let prior_prec = spd(k);
        let prior_rhs = Vector::from_fn(k, |i| (i as f64).cos());
        group.bench_with_input(BenchmarkId::new("clone", k), &k, |bench, _| {
            bench.iter(|| {
                let mut prec = prior_prec.clone();
                let mut rhs = prior_rhs.clone();
                prec[(0, 0)] += 1.0;
                rhs[0] += 1.0;
                black_box((prec, rhs))
            })
        });
        group.bench_with_input(BenchmarkId::new("copy_from", k), &k, |bench, _| {
            let mut prec = prior_prec.clone();
            let mut rhs = prior_rhs.clone();
            bench.iter(|| {
                prec.copy_from(&prior_prec).unwrap();
                rhs.copy_from(&prior_rhs).unwrap();
                prec[(0, 0)] += 1.0;
                rhs[0] += 1.0;
                black_box((&mut prec, &mut rhs));
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("softmax");
    for n in [10usize, 50, 200] {
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 5.0).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &xs, |bench, xs| {
            bench.iter(|| black_box(softmax(xs)))
        });
    }
    group.finish();
}

criterion_group!(benches, math_kernels);
criterion_main!(benches);
