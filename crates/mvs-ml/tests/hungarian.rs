//! Unit tests for the Hungarian solver on the shapes the pipeline actually
//! feeds it: rectangular matrices (tracks vs detections rarely match in
//! count), tied costs, and degenerate all-equal matrices.

use mvs_ml::{hungarian, hungarian_max, HungarianSolver, MlError};
use proptest::prelude::*;

/// Brute-force minimum over all row→column injections of a (possibly
/// rectangular) matrix — the ground truth for small instances.
fn brute_force_min(cost: &[Vec<f64>]) -> f64 {
    fn rec(cost: &[Vec<f64>], row: usize, skips_left: usize, used: &mut Vec<bool>) -> f64 {
        if row == cost.len() {
            return 0.0;
        }
        // More rows than columns: up to `rows - cols` rows stay unassigned
        // (the matching still has exactly min(r, c) pairs).
        let mut best = if skips_left > 0 {
            rec(cost, row + 1, skips_left - 1, used)
        } else {
            f64::INFINITY
        };
        for col in 0..used.len() {
            if !used[col] {
                used[col] = true;
                best = best.min(cost[row][col] + rec(cost, row + 1, skips_left, used));
                used[col] = false;
            }
        }
        best
    }
    let cols = cost.first().map_or(0, Vec::len);
    let skips = cost.len().saturating_sub(cols);
    rec(cost, 0, skips, &mut vec![false; cols])
}

fn assert_valid_matching(pairs: &[Option<usize>], rows: usize, cols: usize) {
    assert_eq!(pairs.len(), rows);
    let assigned: Vec<usize> = pairs.iter().filter_map(|&c| c).collect();
    assert_eq!(
        assigned.len(),
        rows.min(cols),
        "expected min(r, c) pairs, got {assigned:?}"
    );
    let mut seen = vec![false; cols];
    for &c in &assigned {
        assert!(c < cols, "column {c} out of range");
        assert!(!seen[c], "column {c} assigned twice");
        seen[c] = true;
    }
}

#[test]
fn wide_matrix_assigns_every_row() {
    // 2 tracks, 4 detections: both tracks match, two detections stay free.
    let cost = vec![vec![9.0, 2.0, 7.0, 8.0], vec![6.0, 4.0, 3.0, 7.0]];
    let a = hungarian(&cost).unwrap();
    assert_valid_matching(&a.pairs, 2, 4);
    assert_eq!(a.total, brute_force_min(&cost));
    assert_eq!(a.total, 5.0); // 2 + 3
}

#[test]
fn tall_matrix_leaves_extra_rows_unassigned() {
    // 4 tracks, 2 detections: exactly two tracks match.
    let cost = vec![
        vec![5.0, 9.0],
        vec![1.0, 4.0],
        vec![8.0, 2.0],
        vec![7.0, 7.0],
    ];
    let a = hungarian(&cost).unwrap();
    assert_valid_matching(&a.pairs, 4, 2);
    assert_eq!(a.total, brute_force_min(&cost));
    assert_eq!(a.total, 3.0); // 1 + 2
    assert_eq!(a.pairs[3], None, "the dominated row stays unmatched");
}

#[test]
fn tall_matrix_skips_expensive_rows_not_just_trailing_ones() {
    // The cheap rows are at the bottom; padding must not blindly keep the
    // first `cols` rows.
    let cost = vec![vec![100.0, 100.0], vec![90.0, 95.0], vec![1.0, 2.0]];
    let a = hungarian(&cost).unwrap();
    assert_valid_matching(&a.pairs, 3, 2);
    assert_eq!(a.total, brute_force_min(&cost));
    assert_eq!(a.total, 92.0); // row 1 on column 0, row 2 on column 1
    assert_eq!(a.pairs[0], None, "the expensive leading row is skipped");
}

#[test]
fn tied_costs_still_produce_an_optimal_permutation() {
    // Two optimal matchings exist (swap rows 0/1); either is acceptable,
    // but the total is unique.
    let cost = vec![
        vec![1.0, 1.0, 5.0],
        vec![1.0, 1.0, 5.0],
        vec![5.0, 5.0, 2.0],
    ];
    let a = hungarian(&cost).unwrap();
    assert_valid_matching(&a.pairs, 3, 3);
    assert_eq!(a.total, 4.0);
    assert_eq!(a.total, brute_force_min(&cost));
}

#[test]
fn all_equal_costs_yield_a_full_matching_at_fixed_total() {
    let cost = vec![vec![3.5; 4]; 4];
    let a = hungarian(&cost).unwrap();
    assert_valid_matching(&a.pairs, 4, 4);
    assert_eq!(a.total, 14.0);
}

#[test]
fn all_equal_rectangular_costs() {
    let cost = vec![vec![2.0; 5]; 3];
    let a = hungarian(&cost).unwrap();
    assert_valid_matching(&a.pairs, 3, 5);
    assert_eq!(a.total, 6.0);
}

#[test]
fn maximization_mirrors_minimization() {
    let score = vec![
        vec![4.0, 1.0, 3.0],
        vec![2.0, 0.0, 5.0],
        vec![3.0, 2.0, 2.0],
    ];
    let a = hungarian_max(&score).unwrap();
    assert_valid_matching(&a.pairs, 3, 3);
    assert_eq!(a.total, 11.0); // 4 + 5 + 2
    let negated: Vec<Vec<f64>> = score
        .iter()
        .map(|r| r.iter().map(|&v| -v).collect())
        .collect();
    assert_eq!(a.total, -brute_force_min(&negated));
}

#[test]
fn rectangular_max_prefers_the_large_entries() {
    let score = vec![vec![0.1, 0.9, 0.2], vec![0.8, 0.3, 0.4]];
    let a = hungarian_max(&score).unwrap();
    assert_valid_matching(&a.pairs, 2, 3);
    assert_eq!(a.pairs[0], Some(1));
    assert_eq!(a.pairs[1], Some(0));
    assert!((a.total - 1.7).abs() < 1e-12);
}

#[test]
fn empty_and_degenerate_shapes() {
    let empty: Vec<Vec<f64>> = Vec::new();
    let a = hungarian(&empty).unwrap();
    assert!(a.pairs.is_empty());
    assert_eq!(a.total, 0.0);

    let no_cols = vec![Vec::new(), Vec::new()];
    let a = hungarian(&no_cols).unwrap();
    assert_eq!(a.pairs, vec![None, None]);
    assert_eq!(a.total, 0.0);
}

#[test]
fn ragged_and_non_finite_inputs_are_rejected() {
    let ragged = vec![vec![1.0, 2.0], vec![3.0]];
    assert!(matches!(
        hungarian(&ragged),
        Err(MlError::DimensionMismatch { .. })
    ));
    let nan = vec![vec![1.0, f64::NAN]];
    assert!(matches!(hungarian(&nan), Err(MlError::InvalidParameter(_))));
}

/// One matrix of a solve sequence: flat row-major entries plus its shape.
/// Entries come from a 4-point lattice (ties everywhere) or a continuous
/// range; shapes include `0 × n`, `n × 0`, `1 × 1`, wide and tall.
fn arb_matrix() -> impl Strategy<Value = (usize, usize, Vec<f64>)> {
    (0usize..7, 0usize..7, any::<bool>()).prop_flat_map(|(rows, cols, lattice)| {
        let entry = (0i32..4, -1.0f64..1.0)
            .prop_map(move |(i, c)| if lattice { f64::from(i) * 0.25 } else { c });
        prop::collection::vec(entry, rows * cols).prop_map(move |flat| (rows, cols, flat))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // A solver reused over matrices of changing shape carries nothing from
    // one solve into the next: every result equals a fresh solve's, in
    // `pairs` and in the bits of `total`.
    #[test]
    fn reused_solver_matches_fresh_solves_bitwise(
        sequence in prop::collection::vec(arb_matrix(), 1..12),
    ) {
        let mut solver = HungarianSolver::new();
        for (rows, cols, flat) in &sequence {
            let nested: Vec<Vec<f64>> = if *cols == 0 {
                vec![Vec::new(); *rows]
            } else {
                flat.chunks(*cols).map(<[f64]>::to_vec).collect()
            };
            let fresh = hungarian_max(&nested).expect("finite rectangular");
            let reused = solver.solve_max(*rows, *cols, flat).expect("finite rectangular");
            prop_assert_eq!(&reused.pairs, &fresh.pairs);
            prop_assert_eq!(reused.total.to_bits(), fresh.total.to_bits());
            let fresh = hungarian(&nested).expect("finite rectangular");
            let reused = solver.solve_min(*rows, *cols, flat).expect("finite rectangular");
            prop_assert_eq!(&reused.pairs, &fresh.pairs);
            prop_assert_eq!(reused.total.to_bits(), fresh.total.to_bits());
        }
    }
}

#[test]
fn solver_rejects_wrong_length_and_non_finite_input() {
    let mut solver = HungarianSolver::new();
    assert!(matches!(
        solver.solve_max(2, 2, &[1.0, 2.0, 3.0]),
        Err(MlError::DimensionMismatch {
            expected: 4,
            found: 3
        })
    ));
    assert!(matches!(
        solver.solve_min(1, 2, &[1.0, f64::INFINITY]),
        Err(MlError::InvalidParameter(_))
    ));
    // A rejected solve leaves the solver usable.
    assert_eq!(
        solver.solve_min(1, 2, &[3.0, 1.0]).unwrap().pairs,
        vec![Some(1)]
    );
}
