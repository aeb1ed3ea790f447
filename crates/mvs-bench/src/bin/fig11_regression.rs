//! Fig. 11 — cross-camera *regression module* comparison.
//!
//! For every scenario: train KNN / homography / linear-regression / RANSAC
//! models mapping bounding boxes between camera pairs (first half of the
//! labels), and report the mean absolute error of the predicted box
//! coordinates on the second half, pooled over all ordered pairs.
//!
//! Run with `cargo run --release -p mvs-bench --bin fig11_regression`.

use mvs_bench::{regression_dataset, write_json, SCENARIOS, SEED, TRAIN_S};
use mvs_geometry::Point2;
use mvs_metrics::TextTable;
use mvs_ml::{
    estimate_homography, train_test_split, KnnRegressor, LinearRegression, Ransac, RansacConfig,
    Regressor,
};
use mvs_sim::{CorrespondenceData, Scenario};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    scenario: String,
    model: String,
    mae_px: f64,
}

/// Accumulates |error| over box coordinates.
#[derive(Default)]
struct MaeAcc {
    total: f64,
    count: usize,
}

impl MaeAcc {
    fn add(&mut self, pred: &[f64], truth: &[f64]) {
        for (p, t) in pred.iter().zip(truth) {
            self.total += (p - t).abs();
            self.count += 1;
        }
    }
    fn mae(&self) -> f64 {
        self.total / self.count.max(1) as f64
    }
}

fn main() {
    let mut rows = Vec::new();
    let mut table = TextTable::new(vec!["scenario", "model", "MAE (px)"]);
    for kind in SCENARIOS {
        let scenario = Scenario::new(kind);
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        let data = CorrespondenceData::collect(&scenario, 2.0 * TRAIN_S, 2, &mut rng);
        let mut acc: Vec<(&'static str, MaeAcc)> = vec![
            ("KNN", MaeAcc::default()),
            ("Homography", MaeAcc::default()),
            ("LinearRegression", MaeAcc::default()),
            ("RANSAC", MaeAcc::default()),
        ];
        for &(src, dst) in data.pairs.keys() {
            let (xs, ys) = regression_dataset(data.samples(src, dst));
            if xs.len() < 40 {
                continue; // not enough shared observations on this pair
            }
            let Ok((xtr, ytr, xte, yte)) = train_test_split(&xs, &ys, 0.5) else {
                continue;
            };
            // KNN.
            let knn = KnnRegressor::fit(3, &xtr, &ytr).expect("valid training data");
            for (x, y) in xte.iter().zip(&yte) {
                acc[0].1.add(&knn.predict(x), y);
            }
            // Homography on box centres (mapped through corner transport).
            let src_pts: Vec<Point2> = xtr
                .iter()
                .map(|b| Point2::new((b[0] + b[2]) / 2.0, (b[1] + b[3]) / 2.0))
                .collect();
            let dst_pts: Vec<Point2> = ytr
                .iter()
                .map(|b| Point2::new((b[0] + b[2]) / 2.0, (b[1] + b[3]) / 2.0))
                .collect();
            if let Ok(h) = estimate_homography(&src_pts, &dst_pts) {
                for (x, y) in xte.iter().zip(&yte) {
                    let corners = [Point2::new(x[0], x[1]), Point2::new(x[2], x[3])];
                    let mapped: Option<Vec<Point2>> = corners.iter().map(|&c| h.apply(c)).collect();
                    if let Some(m) = mapped {
                        acc[1].1.add(&[m[0].x, m[0].y, m[1].x, m[1].y], y);
                    }
                }
            }
            // Linear regression.
            let lin = LinearRegression::fit(&xtr, &ytr).expect("valid training data");
            for (x, y) in xte.iter().zip(&yte) {
                acc[2].1.add(&lin.predict(x), y);
            }
            // RANSAC.
            let ransac =
                Ransac::fit(RansacConfig::default(), &xtr, &ytr).expect("valid training data");
            for (x, y) in xte.iter().zip(&yte) {
                acc[3].1.add(&ransac.predict(x), y);
            }
        }
        for (name, a) in acc {
            table.row(vec![
                kind.to_string(),
                name.to_string(),
                format!("{:.1}", a.mae()),
            ]);
            rows.push(Row {
                scenario: kind.to_string(),
                model: name.to_string(),
                mae_px: a.mae(),
            });
        }
    }
    println!("Fig. 11 — cross-camera box regression, MAE by model\n");
    println!("{table}");
    println!("Paper shape: KNN lowest in S1/S3, competitive in S2; homography much worse.");
    let path = write_json("fig11_regression", &rows);
    println!("\nwrote {}", path.display());
}
