//! Criterion micro-benchmarks for the ML toolbox: Hungarian matching at
//! tracker-realistic sizes, KNN queries at association-realistic training
//! sizes, and homography estimation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mvs_geometry::Point2;
use mvs_ml::{
    brute_force_k_nearest, estimate_homography, hungarian, Classifier, KnnClassifier, KnnRegressor,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_hungarian(c: &mut Criterion) {
    let mut group = c.benchmark_group("hungarian");
    for &n in &[5usize, 20, 50] {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..10.0)).collect())
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &cost, |b, cost| {
            b.iter(|| hungarian(black_box(cost)).expect("finite costs"))
        });
    }
    group.finish();
}

/// KNN association lookups at the three per-pair training-set sizes
/// bench-e2e reports (`ml.knn_train_samples`: serve tenants, city128,
/// s1-balb), 4-d box features, k = 3: the flat sorted-sweep index behind
/// `KnnClassifier`/`KnnRegressor` against the brute-force scan it replaced,
/// so the crossover (if any) is on record.
fn bench_knn(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut random_box = move || {
        let (x, y) = (rng.gen_range(0.0..1200.0), rng.gen_range(0.0..650.0));
        let (w, h) = (rng.gen_range(20.0..160.0), rng.gen_range(20.0..120.0));
        [x, y, x + w, y + h]
    };
    let queries: Vec<[f64; 4]> = (0..256).map(|_| random_box()).collect();
    let mut group = c.benchmark_group("knn_query");
    for &n_train in &[233usize, 857, 2644] {
        let xs: Vec<[f64; 4]> = (0..n_train).map(|_| random_box()).collect();
        let labels: Vec<usize> = (0..n_train).map(|i| i % 2).collect();
        let classifier = KnnClassifier::fit(3, &xs, &labels).expect("valid data");
        let regressor = KnnRegressor::fit(3, &xs, &xs).expect("valid data");
        let mut next = 0usize;
        let mut query = || {
            next = (next + 1) % queries.len();
            queries[next]
        };
        let id = |arm| BenchmarkId::new(arm, n_train);
        group.bench_with_input(id("index_classify"), &classifier, |b, classifier| {
            b.iter(|| classifier.predict(black_box(&query())))
        });
        group.bench_with_input(id("index_regress"), &regressor, |b, regressor| {
            let mut out = [0.0; 4];
            b.iter(|| {
                regressor.predict_into(black_box(&query()), &mut out);
                out
            })
        });
        group.bench_with_input(id("reference_scan"), &xs, |b, xs| {
            b.iter(|| brute_force_k_nearest(black_box(xs), black_box(&query()), 3))
        });
    }
    group.finish();
}

fn bench_homography(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let src: Vec<Point2> = (0..100)
        .map(|_| Point2::new(rng.gen_range(0.0..1280.0), rng.gen_range(0.0..704.0)))
        .collect();
    let dst: Vec<Point2> = src
        .iter()
        .map(|p| Point2::new(p.x * 1.02 + 30.0, p.y * 0.98 - 10.0))
        .collect();
    c.bench_function("homography_100pts", |b| {
        b.iter(|| estimate_homography(black_box(&src), black_box(&dst)).expect("well-posed"))
    });
}

criterion_group!(benches, bench_hungarian, bench_knn, bench_homography);
criterion_main!(benches);
