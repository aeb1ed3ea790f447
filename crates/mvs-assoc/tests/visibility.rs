//! Differential proptest: `CameraPairModel::is_visible` against the form it
//! replaces in the takeover verdict, `predict(..).is_some()`.
//!
//! `is_visible` skips the regression when it can prove the regressed box
//! finite (every training and query coordinate at most 1e150 in magnitude)
//! and otherwise runs `predict`. The cases sit on both sides of that guard,
//! on the model side and on the query side: coordinates exactly at ±1e150,
//! at 1e151 (unbounded, still finite arithmetic) and at 1e300 (squared
//! differences overflow, the regression is NaN and `predict` is `None`
//! although the classifier votes "visible") — plus classifier-only models,
//! `k` above the training-set size and queries at exact training rows.

use mvs_assoc::{train_pair_model, CorrespondenceSample};
use mvs_geometry::BBox;
use proptest::prelude::*;

/// Coordinate magnitudes on either side of the guard.
const SCALES: [f64; 5] = [1.0, 1e3, 1e150, 1e151, 1e300];

/// A box with corners on a 5-point lattice in `[-1, 1]` (so `±scale`
/// itself occurs) or anywhere inside it, times `scale`.
fn arb_box(scale: f64) -> impl Strategy<Value = BBox> {
    let coord = (any::<bool>(), -2i32..3, -1.0f64..1.0)
        .prop_map(move |(lattice, i, c)| if lattice { f64::from(i) * 0.5 } else { c } * scale);
    prop::collection::vec(coord, 4).prop_map(|c| {
        BBox::from_array_lenient([c[0], c[1], c[2], c[3]]).expect("finite coordinates")
    })
}

#[derive(Debug, Clone)]
struct Case {
    k: usize,
    samples: Vec<CorrespondenceSample>,
    queries: Vec<BBox>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        1usize..7,
        1usize..25,
        prop::sample::select(SCALES.to_vec()),
        prop::sample::select(SCALES.to_vec()),
        prop::sample::select(SCALES.to_vec()),
        // 0: no pair ever overlaps (classifier-only model); else mixed.
        0u32..4,
    )
        .prop_flat_map(|(k, n, src_scale, dst_scale, query_scale, overlap)| {
            (
                prop::collection::vec(arb_box(src_scale), n),
                prop::collection::vec(arb_box(dst_scale), n),
                prop::collection::vec(any::<bool>(), n),
                prop::collection::vec(arb_box(query_scale), 1..6),
                prop::collection::vec(0usize..n, 1..4),
            )
                .prop_map(move |(src, dst, seen, mut queries, hits)| {
                    let samples: Vec<CorrespondenceSample> = src
                        .iter()
                        .zip(&dst)
                        .zip(&seen)
                        .map(|((&src, &dst), &seen)| CorrespondenceSample {
                            src,
                            dst: (overlap > 0 && seen).then_some(dst),
                        })
                        .collect();
                    // Exact hits: query some training rows themselves.
                    queries.extend(hits.iter().map(|&i| samples[i].src));
                    Case {
                        k,
                        samples,
                        queries,
                    }
                })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn is_visible_equals_predict_is_some(case in arb_case()) {
        let model = train_pair_model(case.k, &case.samples).expect("non-empty finite samples");
        for q in &case.queries {
            prop_assert_eq!(
                model.is_visible(q),
                model.predict(q).is_some(),
                "k = {}, {} samples, query {:?}",
                case.k,
                case.samples.len(),
                q
            );
        }
    }
}

fn bb(x: f64, y: f64, w: f64, h: f64) -> BBox {
    BBox::new(x, y, x + w, y + h).expect("valid box")
}

/// The guard is load-bearing: with training rows at 1e300 every squared
/// difference overflows, every weight is `1 / inf = 0` and the regression
/// is `0 / 0` — `predict` is `None` for a box the classifier calls visible.
#[test]
fn an_overflowing_regression_is_not_visible() {
    let everywhere_visible = |scale: f64| {
        let samples: Vec<CorrespondenceSample> = (0..6)
            .map(|i| {
                let src = bb(f64::from(i) * 0.1 * scale, 0.0, 0.05 * scale, 0.05 * scale);
                CorrespondenceSample {
                    src,
                    dst: Some(src),
                }
            })
            .collect();
        train_pair_model(3, &samples).expect("non-empty finite samples")
    };
    let probe = |scale: f64| bb(0.33 * scale, 0.0, 0.05 * scale, 0.05 * scale);

    let bounded = everywhere_visible(1.0);
    assert!(bounded.predict(&probe(1.0)).is_some());
    assert!(bounded.is_visible(&probe(1.0)));
    // An unbounded query against a bounded model takes the slow side too.
    assert!(bounded.predict(&probe(1e300)).is_none());
    assert!(!bounded.is_visible(&probe(1e300)));

    let huge = everywhere_visible(1e300);
    assert!(huge.predict(&probe(1e300)).is_none());
    assert!(!huge.is_visible(&probe(1e300)));
}
