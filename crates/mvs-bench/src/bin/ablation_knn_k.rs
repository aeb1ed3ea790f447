//! Ablation: the paper fixes KNN's `k = 3` for both association models
//! without reporting a sweep. This harness cross-validates k ∈ {1,3,5,9}
//! on the classification task and measures the end-to-end pipeline recall
//! per k, checking whether the paper's choice sits on the plateau.
//!
//! Run with `cargo run --release -p mvs-bench --bin ablation_knn_k`.

use mvs_bench::{classification_dataset, experiment_config, write_json, SEED, TRAIN_S};
use mvs_metrics::TextTable;
use mvs_ml::{cross_validate, Classifier, KnnClassifier};
use mvs_sim::{run_pipeline, Algorithm, CorrespondenceData, Scenario, ScenarioKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    k: usize,
    cv_accuracy_s1: f64,
    pipeline_recall_s2: f64,
    pipeline_latency_s2: f64,
}

fn main() {
    // Cross-validated classification accuracy on S1's pooled pairs.
    let scenario = Scenario::new(ScenarioKind::S1);
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let data = CorrespondenceData::collect(&scenario, TRAIN_S, 2, &mut rng);
    let mut pooled_x = Vec::new();
    let mut pooled_y = Vec::new();
    for &(src, dst) in data.pairs.keys() {
        let (xs, ys) = classification_dataset(data.samples(src, dst));
        pooled_x.extend(xs);
        pooled_y.extend(ys);
    }

    let s2 = Scenario::new(ScenarioKind::S2);
    let mut rows = Vec::new();
    let mut table = TextTable::new(vec![
        "k",
        "CV accuracy (S1 cls)",
        "pipeline recall (S2)",
        "latency (ms)",
    ]);
    for k in [1usize, 3, 5, 9] {
        let acc = cross_validate(&pooled_x, &pooled_y, 5, |tx, ty, vx| {
            let model = KnnClassifier::fit(k, tx, ty)?;
            Ok(model.predict_batch(vx))
        })
        .expect("pooled data is well-formed");
        let mut config = experiment_config(Algorithm::Balb);
        config.assoc_k = k;
        let result = run_pipeline(&s2, &config);
        table.row(vec![
            k.to_string(),
            format!("{acc:.3}"),
            format!("{:.3}", result.recall),
            format!("{:.1}", result.mean_latency_ms),
        ]);
        rows.push(Row {
            k,
            cv_accuracy_s1: acc,
            pipeline_recall_s2: result.recall,
            pipeline_latency_s2: result.mean_latency_ms,
        });
    }
    println!("Ablation — KNN neighbour count k\n");
    println!("{table}");
    println!("The paper's k = 3 should sit on the accuracy plateau: k = 1 is noisier,");
    println!("large k blurs the visibility boundary at camera-view edges.");
    let path = write_json("ablation_knn_k", &rows);
    println!("\nwrote {}", path.display());
}
