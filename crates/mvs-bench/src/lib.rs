//! Shared plumbing for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's experiment index). This library holds the pieces they
//! share: standard run durations, result serialization, and the
//! classification/regression feature extraction used by Figs. 10/11.

use mvs_assoc::CorrespondenceSample;
use mvs_sim::{resolve_threads, Algorithm, PipelineConfig, ScenarioKind};
use serde::Serialize;
use std::path::PathBuf;

/// Simulation seconds used to train association models in experiments.
pub const TRAIN_S: f64 = 90.0;
/// Simulation seconds evaluated in experiments.
const EVAL_S: f64 = 90.0;
/// Master seed for all experiment binaries.
pub const SEED: u64 = 2022;
/// Number of seed replications for the headline result figures.
pub const REPLICATIONS: usize = 3;

/// The standard experiment configuration: the paper's operating point with
/// the harness's durations and seed.
pub fn experiment_config(algorithm: Algorithm) -> PipelineConfig {
    PipelineConfig {
        train_s: TRAIN_S,
        eval_s: EVAL_S,
        seed: SEED,
        ..PipelineConfig::paper_default(algorithm)
    }
}

/// Directory where experiment binaries drop machine-readable results.
fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("results");
    std::fs::create_dir_all(&dir).expect("results directory is creatable");
    dir
}

/// Writes a result struct as pretty JSON under `results/<name>.json` and
/// returns the path.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("results serialize");
    std::fs::write(&path, json).expect("results are writable");
    path
}

/// Scenario display order used by every figure.
pub const SCENARIOS: [ScenarioKind; 3] = [ScenarioKind::S1, ScenarioKind::S2, ScenarioKind::S3];

/// Runs `f` over `items` on the persistent pool ([`mvs_exec::pool`]) and
/// returns the outputs in input order. Pipeline runs in a sweep are
/// independent and each is deterministic in its config, so fanning a sweep
/// out across threads changes wall-clock time only — every figure binary
/// produces the same JSON at any pool width. The pool width follows
/// [`resolve_threads`]`(0)`: `MVS_THREADS` if set, else the machine.
pub fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    mvs_exec::pool().par_map(&items, resolve_threads(0), f)
}

/// Classification dataset extracted from correspondence samples: features
/// are the source bounding-box coordinates, the label is whether the object
/// is visible in the target camera (Fig. 10's task).
///
/// Takes a pair's samples in arrival order, e.g.
/// `CorrespondenceData::samples(src, dst)`.
pub fn classification_dataset(
    samples: impl IntoIterator<Item = CorrespondenceSample>,
) -> (Vec<Vec<f64>>, Vec<usize>) {
    samples
        .into_iter()
        .map(|s| (s.src.to_array().to_vec(), usize::from(s.dst.is_some())))
        .unzip()
}

/// Regression dataset: visible pairs only; targets are the target-camera
/// box coordinates (Fig. 11's task).
pub fn regression_dataset(
    samples: impl IntoIterator<Item = CorrespondenceSample>,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    samples
        .into_iter()
        .filter_map(|s| Some((s.src.to_array().to_vec(), s.dst?.to_array().to_vec())))
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvs_geometry::BBox;

    fn sample(visible: bool) -> CorrespondenceSample {
        CorrespondenceSample {
            src: BBox::new(0.0, 0.0, 10.0, 10.0).unwrap(),
            dst: visible.then(|| BBox::new(5.0, 5.0, 15.0, 15.0).unwrap()),
        }
    }

    #[test]
    fn classification_dataset_labels() {
        let (xs, ys) = classification_dataset([sample(true), sample(false)]);
        assert_eq!(xs.len(), 2);
        assert_eq!(ys, vec![1, 0]);
        assert_eq!(xs[0], vec![0.0, 0.0, 10.0, 10.0]);
    }

    #[test]
    fn regression_dataset_filters_invisible() {
        let (xs, ys) = regression_dataset([sample(true), sample(false)]);
        assert_eq!(xs.len(), 1);
        assert_eq!(ys[0], vec![5.0, 5.0, 15.0, 15.0]);
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        let out = parallel_map(items.clone(), |&i| i * 3);
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(
            parallel_map(Vec::<usize>::new(), |&i| i),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn experiment_config_uses_harness_durations() {
        let c = experiment_config(Algorithm::Balb);
        assert_eq!(c.train_s, TRAIN_S);
        assert_eq!(c.eval_s, EVAL_S);
        assert_eq!(c.seed, SEED);
        assert_eq!(c.horizon, 10);
    }
}
