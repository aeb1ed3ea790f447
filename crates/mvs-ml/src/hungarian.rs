//! The Hungarian (Kuhn–Munkres) assignment algorithm.
//!
//! Used twice in the paper's pipeline: to associate detected bounding boxes
//! with tracked-object predictions inside one camera (tracking-by-detection)
//! and to match predicted cross-camera locations with actual detections in
//! the target camera (Sec. II-C, step 3).

use crate::MlError;

/// Result of an assignment problem.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Assignment {
    /// `pairs[r]` is the column assigned to row `r`, or `None` when the row
    /// is unassigned (possible for rectangular problems).
    pub pairs: Vec<Option<usize>>,
    /// Total cost (or score, for maximization) of the assigned pairs.
    pub total: f64,
}

impl Assignment {
    /// Iterates over the `(row, col)` pairs of the matching.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pairs
            .iter()
            .enumerate()
            .filter_map(|(r, c)| c.map(|c| (r, c)))
    }
}

/// Solves the minimum-cost assignment problem on a (possibly rectangular)
/// cost matrix given as `rows × cols` row slices.
///
/// With `r` rows and `c` columns, `min(r, c)` pairs are produced; every cost
/// must be finite.
///
/// # Errors
///
/// Returns [`MlError::DimensionMismatch`] for ragged input and
/// [`MlError::InvalidParameter`] if any cost is not finite. An empty matrix
/// yields an empty assignment.
///
/// # Examples
///
/// ```
/// let cost = vec![
///     vec![4.0, 1.0, 3.0],
///     vec![2.0, 0.0, 5.0],
///     vec![3.0, 2.0, 2.0],
/// ];
/// let a = mvs_ml::hungarian(&cost)?;
/// assert_eq!(a.total, 5.0); // 1 + 2 + 2
/// # Ok::<(), mvs_ml::MlError>(())
/// ```
pub fn hungarian(cost: &[Vec<f64>]) -> Result<Assignment, MlError> {
    solve_rows(cost, false)
}

/// Solves the *maximum*-score assignment problem (e.g. maximize summed IoU
/// proximity between predictions and detections).
///
/// # Errors
///
/// Same conditions as [`hungarian`].
pub fn hungarian_max(score: &[Vec<f64>]) -> Result<Assignment, MlError> {
    solve_rows(score, true)
}

/// The row-slice entry points: validate row by row, flatten, then one run
/// of a fresh [`HungarianSolver`] whose result is moved out.
fn solve_rows(input: &[Vec<f64>], maximize: bool) -> Result<Assignment, MlError> {
    let cols = input.first().map_or(0, Vec::len);
    let mut flat = Vec::with_capacity(input.len() * cols);
    for r in input {
        if r.len() != cols {
            return Err(MlError::DimensionMismatch {
                expected: cols,
                found: r.len(),
            });
        }
        check_finite(r)?;
        flat.extend_from_slice(r);
    }
    let mut solver = HungarianSolver::new();
    solver.run(input.len(), cols, &flat, maximize);
    Ok(solver.result)
}

fn check_finite(costs: &[f64]) -> Result<(), MlError> {
    if costs.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(MlError::InvalidParameter("costs must be finite"))
    }
}

/// A Kuhn–Munkres solver that keeps its working arrays between solves.
///
/// The frame loop solves one small assignment problem per camera per frame
/// (tracking) and one per camera pair per key frame (association); a solver
/// held across them stops allocating once its buffers reach the largest
/// problem seen. Every solve is independent of the ones before it: the
/// result is bit-identical to [`hungarian`] / [`hungarian_max`] on the same
/// matrix.
///
/// # Examples
///
/// ```
/// let mut solver = mvs_ml::HungarianSolver::new();
/// // 2 × 3, row-major.
/// let a = solver.solve_max(2, 3, &[0.9, 0.1, 0.0, 0.8, 0.2, 0.7])?;
/// assert_eq!(a.pairs, vec![Some(0), Some(2)]);
/// let a = solver.solve_min(1, 2, &[3.0, 1.0])?;
/// assert_eq!(a.pairs, vec![Some(1)]);
/// # Ok::<(), mvs_ml::MlError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct HungarianSolver {
    /// The signed, zero-padded square matrix, 1-indexed, row-major.
    a: Vec<f64>,
    u: Vec<f64>,
    v: Vec<f64>,
    /// `p[j]` = row matched to column `j`.
    p: Vec<usize>,
    way: Vec<usize>,
    minv: Vec<f64>,
    used: Vec<bool>,
    result: Assignment,
}

impl HungarianSolver {
    /// Creates a solver with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Minimum-cost assignment on a flat row-major `rows × cols` matrix.
    /// The returned assignment is valid until the next solve.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when `cost.len()` is not
    /// `rows * cols` and [`MlError::InvalidParameter`] if any cost is not
    /// finite.
    pub fn solve_min(
        &mut self,
        rows: usize,
        cols: usize,
        cost: &[f64],
    ) -> Result<&Assignment, MlError> {
        self.solve(rows, cols, cost, false)
    }

    /// Maximum-score assignment on a flat row-major `rows × cols` matrix.
    /// The returned assignment is valid until the next solve.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HungarianSolver::solve_min`].
    pub fn solve_max(
        &mut self,
        rows: usize,
        cols: usize,
        score: &[f64],
    ) -> Result<&Assignment, MlError> {
        self.solve(rows, cols, score, true)
    }

    fn solve(
        &mut self,
        rows: usize,
        cols: usize,
        input: &[f64],
        maximize: bool,
    ) -> Result<&Assignment, MlError> {
        if input.len() != rows * cols {
            return Err(MlError::DimensionMismatch {
                expected: rows * cols,
                found: input.len(),
            });
        }
        check_finite(input)?;
        Ok(self.run(rows, cols, input, maximize))
    }

    /// The solve proper, on validated input (`input.len() == rows * cols`,
    /// all finite).
    fn run(&mut self, rows: usize, cols: usize, input: &[f64], maximize: bool) -> &Assignment {
        let HungarianSolver {
            a,
            u,
            v,
            p,
            way,
            minv,
            used,
            result,
        } = self;
        result.pairs.clear();
        result.pairs.resize(rows, None);
        result.total = 0.0;
        if rows == 0 || cols == 0 {
            return result;
        }

        // Pad to a square matrix with zero-cost dummy entries; dummy pairings are
        // stripped from the result.
        let n = rows.max(cols);
        let sign = if maximize { -1.0 } else { 1.0 };
        let stride = n + 1; // 1-indexed, row-major
        a.clear();
        a.resize(stride * stride, 0.0);
        for (i, row) in input.chunks_exact(cols).enumerate() {
            for (j, &x) in row.iter().enumerate() {
                a[(i + 1) * stride + j + 1] = sign * x;
            }
        }

        // Jonker-style O(n³) potentials implementation of Kuhn–Munkres.
        for buf in [&mut *u, &mut *v] {
            buf.clear();
            buf.resize(n + 1, 0.0);
        }
        for buf in [&mut *p, &mut *way] {
            buf.clear();
            buf.resize(n + 1, 0);
        }
        minv.resize(n + 1, f64::INFINITY);
        used.resize(n + 1, false);
        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            minv.fill(f64::INFINITY);
            used.fill(false);
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let row = &a[i0 * stride..(i0 + 1) * stride];
                let mut delta = f64::INFINITY;
                let mut j1 = 0usize;
                for j in 1..=n {
                    if used[j] {
                        continue;
                    }
                    let cur = row[j] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=n {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }

        for j in 1..=n {
            let i = p[j];
            if i >= 1 && i <= rows && j <= cols {
                result.pairs[i - 1] = Some(j - 1);
                result.total += input[(i - 1) * cols + j - 1];
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_minimization() {
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let a = hungarian(&cost).unwrap();
        assert_eq!(a.total, 5.0);
        // All rows assigned to distinct columns.
        let mut cols: Vec<usize> = a.pairs.iter().map(|c| c.unwrap()).collect();
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 1, 2]);
    }

    #[test]
    fn maximization_flips_objective() {
        let score = vec![vec![0.9, 0.1], vec![0.8, 0.2]];
        let a = hungarian_max(&score).unwrap();
        // 0.9 + 0.2 beats 0.1 + 0.8.
        assert!((a.total - 1.1).abs() < 1e-12);
        assert_eq!(a.pairs, vec![Some(0), Some(1)]);
    }

    #[test]
    fn rectangular_more_rows_than_cols() {
        let cost = vec![vec![1.0], vec![0.5], vec![2.0]];
        let a = hungarian(&cost).unwrap();
        // Only one real column: cheapest row gets it.
        assert_eq!(a.pairs.iter().filter(|c| c.is_some()).count(), 1);
        assert_eq!(a.pairs[1], Some(0));
        assert_eq!(a.total, 0.5);
    }

    #[test]
    fn rectangular_more_cols_than_rows() {
        let cost = vec![vec![3.0, 1.0, 2.0]];
        let a = hungarian(&cost).unwrap();
        assert_eq!(a.pairs, vec![Some(1)]);
        assert_eq!(a.total, 1.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(hungarian(&[]).unwrap().pairs.len(), 0);
        let a = hungarian(&[vec![], vec![]]).unwrap();
        assert_eq!(a.pairs, vec![None, None]);
    }

    #[test]
    fn identity_matrix_prefers_diagonal_zeros() {
        // Cost 0 on the diagonal, 1 elsewhere.
        let n = 5;
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 0.0 } else { 1.0 }).collect())
            .collect();
        let a = hungarian(&cost).unwrap();
        assert_eq!(a.total, 0.0);
        for (r, c) in a.iter() {
            assert_eq!(r, c);
        }
    }

    #[test]
    fn negative_costs_are_fine() {
        let cost = vec![vec![-5.0, 0.0], vec![0.0, -5.0]];
        let a = hungarian(&cost).unwrap();
        assert_eq!(a.total, -10.0);
    }

    #[test]
    fn rejects_non_finite_and_ragged() {
        assert!(hungarian(&[vec![f64::NAN]]).is_err());
        assert!(hungarian(&[vec![1.0, 2.0], vec![1.0]]).is_err());
    }

    #[test]
    fn brute_force_agreement_small() {
        // Compare against exhaustive search on all 4x4 permutations.
        let cost = vec![
            vec![7.0, 3.0, 6.0, 9.0],
            vec![2.0, 8.0, 4.0, 9.0],
            vec![6.0, 2.0, 2.0, 2.0],
            vec![1.0, 7.0, 5.0, 8.0],
        ];
        let a = hungarian(&cost).unwrap();
        let mut best = f64::INFINITY;
        let perms = permutations(4);
        for p in perms {
            let t: f64 = p.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
            best = best.min(t);
        }
        assert_eq!(a.total, best);
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 1 {
            return vec![vec![0]];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for i in 0..n {
                let mut q: Vec<usize> = p.iter().map(|&x| if x >= i { x + 1 } else { x }).collect();
                q.insert(0, i);
                out.push(q);
            }
        }
        out
    }
}
