//! Fig. 10 — cross-camera *classification module* comparison.
//!
//! For every scenario: collect correspondence labels, split half/half in
//! time (the paper's protocol), train KNN / SVM / logistic / decision-tree
//! classifiers on "is this object visible in the other camera?", and
//! report precision and recall pooled over all ordered camera pairs.
//!
//! Run with `cargo run --release -p mvs-bench --bin fig10_classification`.

use mvs_bench::{classification_dataset, write_json, SCENARIOS, SEED, TRAIN_S};
use mvs_metrics::TextTable;
use mvs_ml::{
    train_test_split, BinaryConfusion, Classifier, DecisionTree, DecisionTreeConfig, KnnClassifier,
    LinearSvm, LogisticRegression,
};
use mvs_sim::{CorrespondenceData, Scenario};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    scenario: String,
    model: String,
    precision: f64,
    recall: f64,
}

fn main() {
    let mut rows = Vec::new();
    let mut table = TextTable::new(vec!["scenario", "model", "precision", "recall"]);
    for kind in SCENARIOS {
        let scenario = Scenario::new(kind);
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        // Collect labels over the combined train+test span, then split in
        // time: first half trains, second half tests.
        let data = CorrespondenceData::collect(&scenario, 2.0 * TRAIN_S, 2, &mut rng);
        let mut confusion: Vec<(&'static str, BinaryConfusion)> = vec![
            ("KNN", BinaryConfusion::default()),
            ("SVM", BinaryConfusion::default()),
            ("Logistic", BinaryConfusion::default()),
            ("DecisionTree", BinaryConfusion::default()),
        ];
        for &(src, dst) in data.pairs.keys() {
            let (xs, ys) = classification_dataset(data.samples(src, dst));
            let Ok((xtr, ytr, xte, yte)) = train_test_split(&xs, &ys, 0.5) else {
                continue;
            };
            // Degenerate pairs (all one class) teach nothing about the
            // comparison; every model would be trivially perfect.
            if xtr.len() < 10 || xte.is_empty() {
                continue;
            }
            let models: Vec<Box<dyn Classifier>> = vec![
                Box::new(KnnClassifier::fit(3, &xtr, &ytr).expect("valid training data")),
                Box::new(LinearSvm::fit(&xtr, &ytr).expect("valid training data")),
                Box::new(LogisticRegression::fit(&xtr, &ytr).expect("valid training data")),
                Box::new(
                    DecisionTree::fit(DecisionTreeConfig::default(), &xtr, &ytr)
                        .expect("valid training data"),
                ),
            ];
            for (model, (_, acc)) in models.iter().zip(confusion.iter_mut()) {
                let pred = model.predict_batch(&xte);
                let c = BinaryConfusion::from_predictions(&pred, &yte);
                acc.tp += c.tp;
                acc.fp += c.fp;
                acc.tn += c.tn;
                acc.fn_ += c.fn_;
            }
        }
        for (name, c) in confusion {
            table.row(vec![
                kind.to_string(),
                name.to_string(),
                format!("{:.3}", c.precision()),
                format!("{:.3}", c.recall()),
            ]);
            rows.push(Row {
                scenario: kind.to_string(),
                model: name.to_string(),
                precision: c.precision(),
                recall: c.recall(),
            });
        }
    }
    println!("Fig. 10 — visibility classification, precision/recall by model\n");
    println!("{table}");
    println!("Paper shape: KNN best precision in S1/S3; logistic competitive in S2.");
    let path = write_json("fig10_classification", &rows);
    println!("\nwrote {}", path.display());
}
