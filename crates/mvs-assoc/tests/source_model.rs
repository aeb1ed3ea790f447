//! Differential proptest: every head of a [`CameraSourceModel`] against
//! the per-pair model it replaces, under `f64::to_bits`.
//!
//! A camera's pair models used to be fitted one by one, each with its own
//! classifier index over the same source boxes. A source model indexes the
//! boxes once and hangs one head per destination off them; head `h` must
//! answer exactly as the pair model of pair `h`'s expanded samples does —
//! both the library's [`train_pair_model`] (the one-destination case of the
//! same code) and `ReferencePairModel` below, the pre-table pair model
//! spelled out over `KnnClassifier` / `KnnRegressor`.
//!
//! Sources are drawn to hit what sharing a table can get wrong: duplicate
//! rows and tied distances (rows picked, with repeats, from a small pool of
//! lattice boxes), `k` above the row count and above the inline top-k
//! capacity (8), destinations with no positives at all, and coordinates on
//! both sides of the 1e150 guard of `is_visible`, per destination.
//!
//! A head no longer has an index of its own either: it lists its nearest
//! positives from the rows the one sweep visits. The [`Shape`]s aim at
//! that: heads with fewer positives than `k` (a list that never fills),
//! positives all at the far end of one axis from the queries (the sweep
//! has to be resumed a long way), a table of one or two boxes repeated
//! (every distance tied, positive for one head and negative for the
//! next), every coordinate on a coarse grid. And since a head asked after
//! another finds more rows visited, whole association rounds over a
//! shuffled subset of the heads must group as rounds over pair models do.

use mvs_assoc::{train_pair_model, train_source_model, AssociationEngine, CorrespondenceSample};
use mvs_geometry::BBox;
use mvs_ml::{Classifier, KnnClassifier, KnnRegressor, MlError};
use proptest::prelude::*;

/// Coordinate magnitudes on either side of the guard.
const SCALES: [f64; 5] = [1.0, 1e3, 1e150, 1e151, 1e300];

/// A box with corners on a 5-point lattice in `[-1, 1]` (so `±scale`
/// itself occurs) or — unless `grid` — anywhere inside it, times `scale`.
fn arb_box(scale: f64, grid: bool) -> impl Strategy<Value = BBox> {
    let coord = (any::<bool>(), -2i32..3, -1.0f64..1.0).prop_map(move |(lattice, i, c)| {
        let unit = if lattice || grid {
            f64::from(i) * 0.5
        } else {
            c
        };
        unit * scale
    });
    prop::collection::vec(coord, 4).prop_map(|c| {
        BBox::from_array_lenient([c[0], c[1], c[2], c[3]]).expect("finite coordinates")
    })
}

/// The pair model as it was before the source table: a classifier over all
/// samples, a regressor over the visible ones.
struct ReferencePairModel {
    classifier: KnnClassifier,
    regressor: Option<KnnRegressor>,
}

impl ReferencePairModel {
    fn train(k: usize, samples: &[CorrespondenceSample]) -> Result<Self, MlError> {
        let xs: Vec<[f64; 4]> = samples.iter().map(|s| s.src.to_array()).collect();
        let labels: Vec<usize> = samples
            .iter()
            .map(|s| usize::from(s.dst.is_some()))
            .collect();
        let classifier = KnnClassifier::fit(k, &xs, &labels)?;
        let (rx, ry): (Vec<[f64; 4]>, Vec<[f64; 4]>) = samples
            .iter()
            .filter_map(|s| s.dst.map(|dst| (s.src.to_array(), dst.to_array())))
            .unzip();
        let regressor = if rx.is_empty() {
            None
        } else {
            Some(KnnRegressor::fit(k, &rx, &ry)?)
        };
        Ok(ReferencePairModel {
            classifier,
            regressor,
        })
    }

    fn predict(&self, src: &BBox) -> Option<BBox> {
        let features = src.to_array();
        if self.classifier.predict(&features) == 0 {
            return None;
        }
        let mut coords = [0.0; 4];
        self.regressor
            .as_ref()?
            .predict_into(&features, &mut coords);
        BBox::from_array_lenient(coords).ok()
    }
}

/// One destination: which rows it saw, and where.
#[derive(Debug, Clone)]
struct Destination {
    positives: Vec<(usize, BBox)>,
}

#[derive(Debug, Clone)]
struct Case {
    k: usize,
    rows: Vec<BBox>,
    destinations: Vec<Destination>,
    queries: Vec<BBox>,
    /// Heads in the order a round asks them: a shuffled subset.
    asked: Vec<usize>,
}

/// What a case is bent towards, beyond the mix every case has.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Mixed,
    /// Every destination keeps at most `k − 1` of its positives.
    FewPositives,
    /// A destination sees only the rows furthest up one axis; the rows
    /// furthest down it are queried.
    FarPositives,
    /// The table is one or two boxes, repeated.
    Repeated,
    /// Every coordinate on the 5-point lattice.
    Grid,
}

const SHAPES: [Shape; 6] = [
    Shape::Mixed,
    Shape::Mixed,
    Shape::FewPositives,
    Shape::FarPositives,
    Shape::Repeated,
    Shape::Grid,
];

fn arb_destination(rows: usize, scales: &'static [f64]) -> impl Strategy<Value = Destination> {
    (
        prop::sample::select(scales.to_vec()),
        // 0: the destination never shares an object; else mixed.
        0u32..4,
    )
        .prop_flat_map(move |(scale, overlap)| {
            (
                prop::collection::vec(arb_box(scale, false), rows),
                prop::collection::vec(any::<bool>(), rows),
            )
                .prop_map(move |(there, seen)| Destination {
                    positives: there
                        .into_iter()
                        .zip(seen)
                        .enumerate()
                        .filter(|&(_, (_, seen))| overlap > 0 && seen)
                        .map(|(row, (there, _))| (row, there))
                        .collect(),
                })
        })
}

fn arb_case(scales: &'static [f64]) -> impl Strategy<Value = Case> {
    (
        1usize..13,
        1usize..25,
        1usize..7,
        1usize..7,
        prop::sample::select(scales.to_vec()),
        prop::sample::select(scales.to_vec()),
        prop::sample::select(SHAPES.to_vec()),
    )
        .prop_flat_map(
            move |(k, n, pool, destinations, src_scale, query_scale, shape)| {
                let pool = if shape == Shape::Repeated {
                    pool.min(2)
                } else {
                    pool
                };
                let grid = shape == Shape::Grid;
                (
                    prop::collection::vec(arb_box(src_scale, grid), pool),
                    prop::collection::vec(0usize..pool, n),
                    prop::collection::vec(arb_destination(n, scales), destinations),
                    prop::collection::vec(arb_box(query_scale, grid), 1..6),
                    prop::collection::vec(0usize..n, 1..4),
                    prop::collection::vec(0usize..destinations, 1..7),
                    (0usize..4, 0usize..12),
                )
                    .prop_map(
                        move |(pool, picks, mut destinations, mut queries, hits, asked, bend)| {
                            // More rows than pool entries: some rows repeat.
                            let rows: Vec<BBox> = picks.iter().map(|&i| pool[i]).collect();
                            // Exact hits: query some training rows themselves.
                            queries.extend(hits.iter().map(|&i| rows[i]));
                            let (axis, few) = bend;
                            let along = |b: &BBox| b.to_array()[axis];
                            match shape {
                                Shape::FewPositives => {
                                    for d in &mut destinations {
                                        d.positives.truncate(1 + few % k.saturating_sub(1).max(1));
                                    }
                                }
                                Shape::FarPositives => {
                                    let far = rows.iter().map(along).fold(f64::MIN, f64::max);
                                    let near = rows.iter().map(along).fold(f64::MAX, f64::min);
                                    destinations[0]
                                        .positives
                                        .retain(|&(row, _)| along(&rows[row]) == far);
                                    queries
                                        .extend(rows.iter().filter(|b| along(b) == near).take(2));
                                }
                                _ => {}
                            }
                            let mut order = Vec::new();
                            for head in asked {
                                if !order.contains(&head) {
                                    order.push(head);
                                }
                            }
                            Case {
                                k,
                                rows,
                                destinations,
                                queries,
                                asked: order,
                            }
                        },
                    )
            },
        )
}

/// The samples of one pair as the per-pair layout stored them.
fn expand(rows: &[BBox], positives: &[(usize, BBox)]) -> Vec<CorrespondenceSample> {
    rows.iter()
        .enumerate()
        .map(|(row, &src)| CorrespondenceSample {
            src,
            dst: positives
                .iter()
                .find(|&&(at, _)| at == row)
                .map(|&(_, there)| there),
        })
        .collect()
}

fn bits(mapped: Option<BBox>) -> Option<[u64; 4]> {
    mapped.map(|b| b.to_array().map(f64::to_bits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_head_answers_as_its_pair_model(case in arb_case(&SCALES)) {
        let positives: Vec<&[(usize, BBox)]> = case
            .destinations
            .iter()
            .map(|d| d.positives.as_slice())
            .collect();
        let model = train_source_model(case.k, &case.rows, &positives)
            .expect("non-empty finite rows");
        prop_assert_eq!(model.num_heads(), case.destinations.len());
        let mut regressed = 0;
        for (head, destination) in case.destinations.iter().enumerate() {
            let samples = expand(&case.rows, &destination.positives);
            let pair = train_pair_model(case.k, &samples).expect("non-empty finite samples");
            let reference =
                ReferencePairModel::train(case.k, &samples).expect("non-empty finite samples");
            prop_assert_eq!(model.has_regressor(head), !destination.positives.is_empty());
            regressed += destination.positives.len();
            for q in &case.queries {
                let want = reference.predict(q);
                let context = format!(
                    "head {head} of {}, k = {}, {} rows, {} positives, query {q:?}",
                    case.destinations.len(),
                    case.k,
                    case.rows.len(),
                    destination.positives.len(),
                );
                prop_assert_eq!(bits(model.predict(head, q)), bits(want), "{}", context);
                prop_assert_eq!(bits(pair.predict(q)), bits(want), "pair model, {}", context);
                prop_assert_eq!(model.is_visible(head, q), want.is_some(), "{}", context);
                prop_assert_eq!(pair.is_visible(q), want.is_some(), "pair model, {}", context);
            }
        }
        // The rows are indexed once, whatever the number of heads, and a
        // head keeps a target per positive.
        prop_assert_eq!(model.indexed_rows(), (case.rows.len(), regressed));
    }

    // One sweep per source box serves every asked head, a later head
    // picking up where an earlier one left the sweep: a round over any
    // subset of the heads, in any order, groups as the round over those
    // pairs' own models does. Scales stay where an IoU is finite.
    #[test]
    fn a_round_groups_as_pair_models_do_whichever_heads_are_asked(case in arb_case(&[1.0, 1e3])) {
        let positives: Vec<&[(usize, BBox)]> = case
            .destinations
            .iter()
            .map(|d| d.positives.as_slice())
            .collect();
        let model = train_source_model(case.k, &case.rows, &positives)
            .expect("non-empty finite rows");
        let cameras = 1 + case.destinations.len();
        let iou = AssociationEngine::DEFAULT_IOU_THRESHOLD;
        let mut fused = AssociationEngine::new(cameras, iou);
        fused.insert_source(0, model, case.asked.iter().map(|&head| (1 + head, head)).collect());
        let mut paired = AssociationEngine::new(cameras, iou);
        // Each destination detects what its pair model predicts (so views
        // do merge), every second one nudged, and one box of its own.
        let mut detections = vec![case.queries.clone()];
        for (head, destination) in case.destinations.iter().enumerate() {
            let samples = expand(&case.rows, &destination.positives);
            let pair = train_pair_model(case.k, &samples).expect("non-empty finite samples");
            let mut seen: Vec<BBox> = (case.queries.iter().filter_map(|q| pair.predict(q)))
                .enumerate()
                .map(|(i, b)| if i % 2 == 0 { b } else { b.scaled_about_center(1.2) })
                .collect();
            seen.push(BBox::new(-9.0, -9.0, -8.0, -8.0).expect("valid box"));
            detections.push(seen);
            if case.asked.contains(&head) {
                paired.insert_model(0, 1 + head, pair);
            }
        }
        prop_assert_eq!(fused.num_models(), case.asked.len());
        prop_assert_eq!(fused.associate(&detections), paired.associate(&detections));
    }
}

fn bb(x: f64) -> BBox {
    BBox::new(x, 100.0, x + 40.0, 140.0).expect("valid box")
}

#[test]
fn training_rejects_what_no_pair_expansion_could_be() {
    let rows: Vec<BBox> = (0..5).map(|i| bb(50.0 * f64::from(i))).collect();
    let there = bb(7.0);
    assert!(matches!(
        train_source_model(3, &[], &[&[]]),
        Err(MlError::EmptyTrainingSet)
    ));
    assert!(matches!(
        train_source_model(0, &rows, &[&[]]),
        Err(MlError::InvalidParameter(_))
    ));
    for bad in [
        &[(5, there)][..],             // past the last row
        &[(2, there), (2, there)][..], // a row labeled twice
        &[(3, there), (1, there)][..], // out of arrival order
    ] {
        assert!(
            matches!(
                train_source_model(3, &rows, &[&[(0, there)], bad]),
                Err(MlError::InvalidParameter(_))
            ),
            "{bad:?}"
        );
    }
    // No destination at all is a table nobody can ask anything.
    let bare = train_source_model(3, &rows, &[]).expect("rows alone are valid");
    assert_eq!((bare.num_heads(), bare.indexed_rows()), (0, (5, 0)));
}
