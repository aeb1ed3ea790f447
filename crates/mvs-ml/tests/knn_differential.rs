//! Differential proptests: the flat sorted-sweep KNN index against the
//! brute-force scan it replaced, under `f64::to_bits` equality.
//!
//! The index may only change *which rows are visited*, never the answer:
//! the neighbour `(index, distance)` list, the classifier's label and the
//! regressor's output must be the scan's, bit for bit. The reference is
//! `mvs_ml::brute_force_k_nearest` (the pre-index query path, kept for this
//! purpose) plus verbatim copies of the old vote and inverse-distance
//! folds below.
//!
//! Training sets are drawn to hit what an outward sweep with a pruning
//! bound can get wrong: duplicated rows, exact distance ties on both sides
//! of the sweep boundary (small-integer lattices), `k ≥ n`, `n = 1`, all
//! rows on one sweep key, `k` above the inline top-k capacity (8), negative
//! coordinates, dims 1–6, and coordinate scales whose squares underflow to
//! zero or overflow to infinity.
//!
//! The same cases hold the parts the index is made of — the resumable
//! [`Sweep`] and the [`TopK`] list — to the scan directly: a sweep emits
//! every row once, nearer sweep key first, at the scan's distance, and a
//! list that joins a sweep late (offered the visited rows it keeps, then
//! fed until its reach ends) is the scan's list over the kept rows alone.

use mvs_ml::{
    brute_force_k_nearest, Classifier, KnnClassifier, KnnIndex, KnnRegressor, Neighbour, Regressor,
    TopK,
};
use proptest::prelude::*;

/// The pre-index majority vote, verbatim.
fn reference_label(neighbours: &[(usize, f64)], ys: &[usize]) -> usize {
    let mut votes: Vec<(usize, usize)> = Vec::new(); // (label, count)
    for &(i, _) in neighbours {
        let label = ys[i];
        match votes.iter_mut().find(|(l, _)| *l == label) {
            Some((_, c)) => *c += 1,
            None => votes.push((label, 1)),
        }
    }
    votes
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(l, _)| l)
        .unwrap_or(0)
}

/// The pre-index inverse-distance fold, verbatim.
fn reference_regress(neighbours: &[(usize, f64)], ys: &[Vec<f64>]) -> Vec<f64> {
    if let Some(&(i, _)) = neighbours.iter().find(|&&(_, d)| d < 1e-12) {
        return ys[i].clone();
    }
    let mut out = vec![0.0; ys[0].len()];
    let mut wsum = 0.0;
    for &(i, d) in neighbours {
        let w = 1.0 / d;
        wsum += w;
        for (o, y) in out.iter_mut().zip(&ys[i]) {
            *o += w * y;
        }
    }
    for o in &mut out {
        *o /= wsum;
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn neighbour_bits(n: &[(usize, f64)]) -> Vec<(usize, u64)> {
    n.iter().map(|&(i, d)| (i, d.to_bits())).collect()
}

/// One differential case: a training set, its labels/targets and queries.
#[derive(Debug, Clone)]
struct Case {
    k: usize,
    xs: Vec<Vec<f64>>,
    labels: Vec<usize>,
    targets: Vec<Vec<f64>>,
    queries: Vec<Vec<f64>>,
}

/// A coordinate: either on a 7-point integer lattice (ties and duplicates
/// galore) or continuous, both signs, times the case's scale.
fn arb_coord(lattice: bool, scale: f64) -> impl Strategy<Value = f64> {
    (-3i32..4, -1000.0f64..1000.0)
        .prop_map(move |(i, c)| if lattice { f64::from(i) } else { c } * scale)
}

fn arb_case() -> impl Strategy<Value = Case> {
    let scales = vec![1.0, 1e-160, 1e-300, 1e160];
    (
        1usize..7,
        1usize..41,
        1usize..21,
        any::<bool>(),
        prop::sample::select(scales),
        1usize..4,
        0u32..8,
    )
        .prop_flat_map(|(dim, n, k, lattice, scale, target_dim, shape)| {
            let row = move || prop::collection::vec(arb_coord(lattice, scale), dim);
            (
                prop::collection::vec(row(), n),
                prop::collection::vec(0usize..3, n),
                prop::collection::vec(prop::collection::vec(-50.0f64..50.0, target_dim), n),
                prop::collection::vec(row(), 1..6),
                prop::collection::vec(0usize..n, 1..4),
            )
                .prop_map(move |(mut xs, labels, targets, mut queries, hits)| {
                    match shape {
                        // Every row on one sweep key: all rows identical.
                        0 => {
                            let first = xs[0].clone();
                            xs.iter_mut().for_each(|r| r.clone_from(&first));
                        }
                        // Duplicate the first half over the second.
                        1 => {
                            let half = xs.len() / 2;
                            for i in 0..half {
                                xs[half + i] = xs[i].clone();
                            }
                        }
                        _ => {}
                    }
                    // Exact hits: query some training rows themselves.
                    queries.extend(hits.iter().map(|&i| xs[i].clone()));
                    Case {
                        k,
                        xs,
                        labels,
                        targets,
                        queries,
                    }
                })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn index_matches_brute_force_bitwise(case in arb_case()) {
        let Case { k, xs, labels, targets, queries } = &case;
        let classifier = KnnClassifier::fit(*k, xs, labels).expect("finite rectangular rows");
        let regressor = KnnRegressor::fit(*k, xs, targets).expect("finite rectangular rows");
        for q in queries {
            let reference = brute_force_k_nearest(xs, q, *k);
            prop_assert_eq!(reference.len(), (*k).min(xs.len()));
            prop_assert_eq!(
                neighbour_bits(&classifier.neighbours(q)),
                neighbour_bits(&reference),
                "neighbour list diverged for query {:?}",
                q
            );
            prop_assert_eq!(
                classifier.predict(q),
                reference_label(&reference, labels),
                "label diverged for query {:?}",
                q
            );
            let expected = bits(&reference_regress(&reference, targets));
            prop_assert_eq!(bits(&regressor.predict(q)), expected.clone());
            let mut row = vec![f64::NAN; targets[0].len()];
            regressor.predict_into(q, &mut row);
            prop_assert_eq!(bits(&row), expected);
        }
    }
}

/// The feature column with the largest value range, the first of equals:
/// the axis the index sorts and sweeps along.
fn widest_axis(xs: &[Vec<f64>]) -> usize {
    let range = |a: usize| {
        let column = || xs.iter().map(|row| row[a]);
        column().fold(f64::MIN, f64::max) - column().fold(f64::MAX, f64::min)
    };
    (1..xs[0].len()).fold(0, |best, a| if range(a) > range(best) { a } else { best })
}

/// The `k` nearest of the rows `keep` keeps, as a list that joins the
/// sweep after it has already run for the `joined_after` nearest rows of
/// all.
fn late_list(
    index: &KnnIndex,
    q: &[f64],
    k: usize,
    joined_after: usize,
    keep: impl Fn(u32) -> bool,
) -> Vec<(usize, f64)> {
    let mut sweep = index.sweep(q).expect("finite query of the index's width");
    let mut first = vec![TopK::VACANT; joined_after.min(index.len())];
    let mut first = TopK::clear(&mut first);
    while let Some(row) = sweep.next_within(first.reach()) {
        first.offer(row);
    }
    let kept = (0..index.len() as u32).filter(|&row| keep(row)).count();
    let mut slots = vec![TopK::VACANT; k.min(kept)];
    let mut list = TopK::clear(&mut slots);
    for row in sweep.visited(&keep) {
        list.offer(row);
    }
    while let Some(row) = sweep.next_within(list.reach()) {
        if keep(row.0) {
            list.offer(row);
        }
    }
    list.found().iter().map(|&(i, d)| (i as usize, d)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sweep_and_late_lists_match_brute_force_bitwise(case in arb_case()) {
        let Case { k, xs, labels, queries, .. } = &case;
        let index = KnnIndex::build(xs).expect("finite rectangular rows");
        let axis = widest_axis(xs);
        for q in queries {
            // Emission: every row once, at the scan's distance, gaps on the
            // sweep axis never decreasing; nothing beyond a reach is taken.
            let everything = brute_force_k_nearest(xs, q, xs.len());
            let mut sweep = index.sweep(q).expect("finite query");
            prop_assert!(sweep.next_within(f64::NEG_INFINITY).is_none());
            let mut emitted: Vec<Neighbour> = Vec::new();
            while let Some(row) = sweep.next_within(f64::INFINITY) {
                emitted.push(row);
            }
            let gaps: Vec<f64> = emitted
                .iter()
                .map(|&(i, _)| (xs[i as usize][axis] - q[axis]).abs())
                .collect();
            prop_assert!(gaps.windows(2).all(|w| w[0] <= w[1]), "gaps {:?}", gaps);
            let mut by_distance: Vec<(usize, f64)> =
                emitted.iter().map(|&(i, d)| (i as usize, d)).collect();
            by_distance.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            prop_assert_eq!(neighbour_bits(&by_distance), neighbour_bits(&everything));
            prop_assert_eq!(sweep.visited(|_| true).count(), xs.len());

            // A list over the rows of one label, joining early and late.
            for label in 0..3 {
                let kept: Vec<usize> = (0..xs.len()).filter(|&i| labels[i] == label).collect();
                let kept_rows: Vec<&Vec<f64>> = kept.iter().map(|&i| &xs[i]).collect();
                let reference: Vec<(usize, f64)> = brute_force_k_nearest(&kept_rows, q, *k)
                    .into_iter()
                    .map(|(i, d)| (kept[i], d))
                    .collect();
                for joined_after in [0, 1, *k, xs.len()] {
                    let list = late_list(&index, q, *k, joined_after, |row| {
                        labels[row as usize] == label
                    });
                    prop_assert_eq!(
                        neighbour_bits(&list),
                        neighbour_bits(&reference),
                        "label {} joined after {} for query {:?}",
                        label,
                        joined_after,
                        q
                    );
                }
            }
        }
    }
}

/// Five rows all at distance exactly 5 from the origin; the two that arrive
/// first sit at the *far ends* of the sweep axis (gap 5 = the k-th
/// distance). Pruning on `gap >= kth` instead of `gap > kth` would return
/// the nearer-key rows 2 and 3.
#[test]
fn ties_at_the_pruning_boundary_keep_arrival_order() {
    let xs = vec![
        vec![5.0, 0.0],
        vec![-5.0, 0.0],
        vec![0.0, 5.0],
        vec![3.0, 4.0],
        vec![-4.0, 3.0],
    ];
    let c = KnnClassifier::fit(2, &xs, &[1, 1, 0, 0, 0]).unwrap();
    assert_eq!(c.neighbours(&[0.0, 0.0]), vec![(0, 5.0), (1, 5.0)]);
    assert_eq!(
        c.neighbours(&[0.0, 0.0]),
        brute_force_k_nearest(&xs, &[0.0, 0.0], 2)
    );
    assert_eq!(c.predict(&[0.0, 0.0]), 1);
}

/// Gaps whose squares underflow compute distance 0 while the gap itself is
/// positive: the sweep key is then *not* a lower bound and must not prune.
#[test]
fn underflowing_gaps_are_never_pruned_on() {
    let xs = vec![vec![3e-200], vec![0.0], vec![1e-200], vec![-2e-200]];
    let c = KnnClassifier::fit(2, &xs, &[0, 1, 2, 3]).unwrap();
    // Every distance is exactly 0, so the scan keeps arrivals 0 and 1 —
    // row 0 has the largest gap of all.
    let reference = brute_force_k_nearest(&xs, &[0.0], 2);
    assert_eq!(reference, vec![(0, 0.0), (1, 0.0)]);
    assert_eq!(c.neighbours(&[0.0]), reference);
}

#[test]
fn spilled_top_k_matches_the_scan() {
    // k = 12 > 8 inline slots, n = 30, a single query.
    let xs: Vec<Vec<f64>> = (0..30)
        .map(|i| vec![f64::from(i % 7) - 3.0, f64::from(i % 5), f64::from(i % 3)])
        .collect();
    let labels: Vec<usize> = (0..30).map(|i| i % 4).collect();
    let c = KnnClassifier::fit(12, &xs, &labels).unwrap();
    let q = [0.5, 2.0, 1.0];
    let reference = brute_force_k_nearest(&xs, &q, 12);
    assert_eq!(
        neighbour_bits(&c.neighbours(&q)),
        neighbour_bits(&reference)
    );
    assert_eq!(c.predict(&q), reference_label(&reference, &labels));
}
