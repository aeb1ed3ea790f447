//! K-nearest-neighbour classification and regression.
//!
//! These are the paper's chosen cross-camera association models (Sec. II-C):
//! non-parametric lookup tables that use the nearest memorized cases to
//! predict (a) whether an object seen by camera *i* is visible in camera
//! *i'* and (b) where its bounding box lands there.
//!
//! Both models query one flat, immutable, **exact** index ([`KnnIndex`],
//! see DESIGN.md §17): the neighbour list is the brute-force scan's, bit
//! for bit, at a fraction of the rows touched and without heap traffic for
//! small `k`. The index is a type of its own because a neighbour list
//! depends on the rows alone: models that memorize the same rows under
//! different labels share one index and one [`Sweep`] per query, each
//! casting its own [`majority_vote`] and, over the rows it cares for,
//! keeping its own [`TopK`].

use crate::{Classifier, MlError, Regressor};
use serde::{Deserialize, Serialize};

/// The distance both the index and the brute-force reference compute. One
/// shared expression, so "bit-identical" is a property of the row *set*
/// each side visits, never of two spellings of the arithmetic.
#[inline]
fn distance(row: &[f64], x: &[f64]) -> f64 {
    row.iter()
        .zip(x)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// Brute-force reference for the index: indices (into the training set, in
/// arrival order) and distances of the `k` nearest rows, nearest first,
/// equal distances in arrival order.
///
/// Not called by any shipping path; the differential tests and the `ml`
/// bench compare the index against it.
#[doc(hidden)]
pub fn brute_force_k_nearest<R: AsRef<[f64]>>(
    train: &[R],
    x: &[f64],
    k: usize,
) -> Vec<(usize, f64)> {
    let mut best: Vec<(usize, f64)> = Vec::with_capacity(k.min(train.len()) + 1);
    for (i, row) in train.iter().enumerate() {
        let d = distance(row.as_ref(), x);
        // Insertion sort into the running top-k: k is tiny (≤ ~10).
        let pos = best.partition_point(|&(_, bd)| bd <= d);
        if pos < k {
            best.insert(pos, (i, d));
            best.truncate(k);
        }
    }
    best
}

/// One neighbour: original (arrival-order) row index and distance.
pub type Neighbour = (u32, f64);

/// Neighbour lists up to this long live on the stack; longer ones spill to
/// one heap buffer per query.
const INLINE_K: usize = 8;

/// Below this gap `g`, `g * g` is subnormal and `sqrt(g * g) == g` no
/// longer holds, so the sweep key stops being a lower bound on the computed
/// distance. Such gaps are never pruned on (2⁻⁵¹¹ ≈ 1.5e-154).
const MIN_EXACT_GAP: f64 = f64::from_bits((1023 - 511) << 52);

/// Maps a finite `f64` to a `u64` whose unsigned order is the float's
/// numeric order (−0.0 just below +0.0).
#[inline]
fn ordered_bits(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// Flat exact nearest-neighbour index: row-major features sorted along
/// their widest axis, queried by a binary search plus an outward sweep.
///
/// # Examples
///
/// ```
/// use mvs_ml::{majority_vote, KnnIndex};
///
/// // One set of rows, two label sets voting on the same neighbour list.
/// let index = KnnIndex::build(&[[0.0], [1.0], [10.0], [11.0]])?;
/// let (parity, side) = ([0, 1, 0, 1], [0, 0, 1, 1]);
/// let votes = index.with_nearest(&[9.0], 3, |nearest| {
///     (majority_vote(nearest, |row| parity[row]), majority_vote(nearest, |row| side[row]))
/// });
/// assert_eq!(votes, (1, 1));
/// # Ok::<(), mvs_ml::MlError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KnnIndex {
    dim: usize,
    /// The sweep axis: the feature column with the largest value range.
    axis: usize,
    /// `order.len() × dim` features, rows in ascending `axis` order.
    rows: Vec<f64>,
    /// Arrival-order index of each sorted row.
    order: Vec<u32>,
}

impl KnnIndex {
    /// Validates and indexes the feature rows (`&[Vec<f64>]`,
    /// `&[[f64; N]]`, …).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`] for empty input,
    /// [`MlError::InvalidParameter`] when the rows have no columns or
    /// number more than `u32::MAX`, [`MlError::DimensionMismatch`] when
    /// they are ragged and [`MlError::NonFinite`] when a feature is NaN or
    /// infinite.
    pub fn build<R: AsRef<[f64]>>(xs: &[R]) -> Result<KnnIndex, MlError> {
        let dim = validate_rows(xs)?;
        if dim == 0 {
            return Err(MlError::InvalidParameter(
                "feature rows need at least one column",
            ));
        }
        if u32::try_from(xs.len()).is_err() {
            return Err(MlError::InvalidParameter(
                "training set exceeds u32::MAX rows",
            ));
        }
        let first = xs[0].as_ref();
        let (mut lo, mut hi) = (first.to_vec(), first.to_vec());
        for row in xs {
            for ((l, h), &v) in lo.iter_mut().zip(&mut hi).zip(row.as_ref()) {
                *l = l.min(v);
                *h = h.max(v);
            }
        }
        let mut axis = 0;
        for a in 1..dim {
            if hi[a] - lo[a] > hi[axis] - lo[axis] {
                axis = a;
            }
        }
        // Sort a contiguous (key bits, row) array rather than the rows: the
        // comparator never chases a pointer, and ties keep arrival order.
        let mut keys: Vec<(u64, u32)> = xs
            .iter()
            .enumerate()
            .map(|(i, row)| (ordered_bits(row.as_ref()[axis]), i as u32))
            .collect();
        keys.sort_unstable();
        let mut rows = Vec::with_capacity(xs.len() * dim);
        let mut order = Vec::with_capacity(xs.len());
        for &(_, i) in &keys {
            rows.extend_from_slice(xs[i as usize].as_ref());
            order.push(i);
        }
        Ok(KnnIndex {
            dim,
            axis,
            rows,
            order,
        })
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the index holds no rows (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Starts an outward sweep from `x`'s position on the sweep axis;
    /// `None` for a query of the wrong length or with a non-finite
    /// coordinate, which has no neighbours.
    #[inline]
    pub fn sweep<'a>(&'a self, x: &'a [f64]) -> Option<Sweep<'a>> {
        if x.len() != self.dim || !x.iter().all(|v| v.is_finite()) {
            return None;
        }
        let (dim, axis, n) = (self.dim, self.axis, self.len());
        // First sorted position whose key is not below the query's.
        let (mut below, mut above) = (0, n);
        while below < above {
            let mid = below + (above - below) / 2;
            if self.rows[mid * dim + axis] < x[axis] {
                below = mid + 1;
            } else {
                above = mid;
            }
        }
        Some(Sweep {
            index: self,
            x,
            below,
            above,
            gap_below: self.gap_at(x, below.checked_sub(1)),
            gap_above: self.gap_at(x, Some(above)),
        })
    }

    /// Key gap between `x` and the row at sorted position `pos`, if any.
    #[inline]
    fn gap_at(&self, x: &[f64], pos: Option<usize>) -> Option<f64> {
        let pos = pos.filter(|&pos| pos < self.len())?;
        Some((self.rows[pos * self.dim + self.axis] - x[self.axis]).abs())
    }

    /// Calls `f` with the `k` nearest rows as the brute-force scan would
    /// list them: ascending `(distance, arrival index)`. A query of the
    /// wrong length or with a non-finite coordinate has no neighbours.
    /// Does not allocate for `k ≤ 8`.
    pub fn with_nearest<T>(&self, x: &[f64], k: usize, f: impl FnOnce(&[Neighbour]) -> T) -> T {
        let cap = k.min(self.len());
        let mut inline = [TopK::VACANT; INLINE_K];
        let mut spill = Vec::new();
        let mut top = TopK::clear(if cap <= INLINE_K {
            &mut inline[..cap]
        } else {
            spill.resize(cap, TopK::VACANT);
            &mut spill[..]
        });
        if let Some(mut sweep) = self.sweep(x) {
            while let Some(row) = sweep.next_within(top.reach()) {
                top.offer(row);
            }
        }
        f(top.found())
    }
}

/// The rows of a [`KnnIndex`] outward from a query's position on the sweep
/// axis, nearer key first, so the key gaps `|key − x[axis]|` arrive in
/// non-decreasing order. Resumable: a caller takes rows while their gap is
/// within its [`TopK::reach`] and may pick the sweep up again for a list
/// that reaches further.
#[derive(Debug)]
pub struct Sweep<'a> {
    index: &'a KnnIndex,
    x: &'a [f64],
    /// Unvisited: sorted positions `..below` and `above..`.
    below: usize,
    above: usize,
    /// Gap of the next unvisited row on either side, `None` past the end.
    gap_below: Option<f64>,
    gap_above: Option<f64>,
}

impl Sweep<'_> {
    /// Visits the next row if its gap is at most `reach`: its arrival
    /// index and distance to the query. `None` leaves the sweep where it
    /// is — every unvisited row lies beyond `reach`, or none is left.
    #[inline]
    pub fn next_within(&mut self, reach: f64) -> Option<Neighbour> {
        let (take_below, gap) = match (self.gap_below, self.gap_above) {
            (Some(b), Some(a)) if b <= a => (true, b),
            (Some(b), None) => (true, b),
            (_, Some(a)) => (false, a),
            (None, None) => return None,
        };
        if gap > reach {
            return None;
        }
        let pos = if take_below {
            self.below -= 1;
            self.gap_below = self.index.gap_at(self.x, self.below.checked_sub(1));
            self.below
        } else {
            self.above += 1;
            self.gap_above = self.index.gap_at(self.x, Some(self.above));
            self.above - 1
        };
        Some(self.row_at(pos))
    }

    /// Arrival index and distance of the row at sorted position `pos`.
    #[inline]
    fn row_at(&self, pos: usize) -> Neighbour {
        let dim = self.index.dim;
        let row = &self.index.rows[pos * dim..(pos + 1) * dim];
        (self.index.order[pos], distance(row, self.x))
    }

    /// The rows visited so far whose arrival index `keep` keeps, in no
    /// particular order: what a list that was not kept while the sweep ran
    /// has to be offered before it can take the sweep up.
    #[inline]
    pub fn visited<'s>(
        &'s self,
        keep: impl Fn(u32) -> bool + 's,
    ) -> impl Iterator<Item = Neighbour> + 's {
        (self.below..self.above)
            .filter(move |&pos| keep(self.index.order[pos]))
            .map(|pos| self.row_at(pos))
    }
}

/// A running list of the nearest rows offered so far, ascending
/// `(distance, arrival index)`, over a caller's slots — as many as
/// neighbours are wanted. A free slot holds [`TopK::VACANT`], which sorts
/// after every row.
#[derive(Debug)]
pub struct TopK<'a>(&'a mut [Neighbour]);

impl<'a> TopK<'a> {
    /// What a slot no row has taken yet holds: no index is `u32::MAX`
    /// rows long, and no distance is above infinity.
    pub const VACANT: Neighbour = (u32::MAX, f64::INFINITY);

    /// An empty list over `slots`.
    #[inline]
    pub fn clear(slots: &'a mut [Neighbour]) -> Self {
        slots.fill(Self::VACANT);
        TopK(slots)
    }

    /// Enters `candidate` if it sorts before the last slot's row.
    #[inline]
    pub fn offer(&mut self, candidate: Neighbour) {
        let before = |a: Neighbour, b: Neighbour| a.1 < b.1 || (a.1 == b.1 && a.0 < b.0);
        if !self.0.last().is_some_and(|&last| before(candidate, last)) {
            return;
        }
        let mut slot = self.0.len() - 1;
        while slot > 0 && before(candidate, self.0[slot - 1]) {
            self.0[slot] = self.0[slot - 1];
            slot -= 1;
        }
        self.0[slot] = candidate;
    }

    /// The largest key gap at which an unvisited row of a [`Sweep`] could
    /// still enter the list. A row's computed distance is never below its
    /// gap (DESIGN.md §17), so once the list is full a row whose gap
    /// *strictly* exceeds the last slot's distance cannot enter — not even
    /// as an equal-distance, lower-index tie. A list with a vacant slot
    /// reaches every row; one without slots, none.
    #[inline]
    pub fn reach(&self) -> f64 {
        self.0
            .last()
            .map_or(f64::NEG_INFINITY, |&(_, kth)| kth.max(MIN_EXACT_GAP))
    }

    /// The rows entered, nearest first.
    #[inline]
    pub fn found(self) -> &'a [Neighbour] {
        let taken = self.0.partition_point(|&(row, _)| row != u32::MAX);
        &self.0[..taken]
    }
}

/// The classifier's vote over a neighbour list: the label most of the
/// listed rows carry, ties to the lower label, `0` for an empty list.
/// `label_of` maps an arrival-order row to its label.
pub fn majority_vote(nearest: &[Neighbour], label_of: impl Fn(usize) -> usize) -> usize {
    let label_at = |&(row, _): &Neighbour| label_of(row as usize);
    let mut winner: Option<(usize, usize)> = None; // (count, label)
    for (pos, label) in nearest.iter().map(label_at).enumerate() {
        if nearest[..pos].iter().any(|n| label_at(n) == label) {
            continue; // counted at its first occurrence
        }
        let count = nearest[pos..]
            .iter()
            .filter(|n| label_at(n) == label)
            .count();
        if winner.is_none_or(|(c, l)| count > c || (count == c && label < l)) {
            winner = Some((count, label));
        }
    }
    winner.map_or(0, |(_, label)| label)
}

/// The regressor's fold over a neighbour list, into `out`: the target of
/// the first listed row closer than 1e-12 (an exact hit — weighting would
/// divide by zero), else the inverse-distance weighted mean of the listed
/// rows' targets; all-NaN for an empty list. `target_of` maps an
/// arrival-order row to its target, `out.len()` values long.
pub fn inverse_distance_mean<'t>(
    nearest: &[Neighbour],
    target_of: impl Fn(usize) -> &'t [f64],
    out: &mut [f64],
) {
    if let Some(&(row, _)) = nearest.iter().find(|&&(_, d)| d < 1e-12) {
        out.copy_from_slice(target_of(row as usize));
        return;
    }
    out.fill(0.0);
    let mut wsum = 0.0;
    for &(row, d) in nearest {
        let w = 1.0 / d;
        wsum += w;
        for (o, y) in out.iter_mut().zip(target_of(row as usize)) {
            *o += w * y;
        }
    }
    for o in out.iter_mut() {
        *o /= wsum;
    }
}

/// K-nearest-neighbour classifier (majority vote, ties to lower label).
///
/// # Examples
///
/// ```
/// use mvs_ml::{Classifier, KnnClassifier};
///
/// let xs = vec![vec![0.0], vec![1.0], vec![10.0], vec![11.0]];
/// let ys = vec![0, 0, 1, 1];
/// let model = KnnClassifier::fit(3, &xs, &ys)?;
/// assert_eq!(model.predict(&[0.5]), 0);
/// assert_eq!(model.predict(&[10.4]), 1);
/// # Ok::<(), mvs_ml::MlError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KnnClassifier {
    k: usize,
    index: KnnIndex,
    ys: Vec<usize>,
}

impl KnnClassifier {
    /// Memorizes the training set (`&[Vec<f64>]`, `&[[f64; N]]`, … rows).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidParameter`] when `k == 0` or the rows have
    /// no columns, [`MlError::EmptyTrainingSet`] for empty input,
    /// [`MlError::DimensionMismatch`] when `xs` and `ys` differ in length or
    /// feature rows are ragged, and [`MlError::NonFinite`] when a feature
    /// is NaN or infinite.
    pub fn fit<R: AsRef<[f64]>>(k: usize, xs: &[R], ys: &[usize]) -> Result<Self, MlError> {
        if k == 0 {
            return Err(MlError::InvalidParameter("k must be positive"));
        }
        let index = KnnIndex::build(xs)?;
        if xs.len() != ys.len() {
            return Err(MlError::DimensionMismatch {
                expected: xs.len(),
                found: ys.len(),
            });
        }
        Ok(KnnClassifier {
            k,
            index,
            ys: ys.to_vec(),
        })
    }

    /// Number of neighbours consulted per query.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Size of the memorized training set.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the training set is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The index's neighbour list for `x` as `(training row, distance)`,
    /// for the differential tests against [`brute_force_k_nearest`].
    #[doc(hidden)]
    pub fn neighbours(&self, x: &[f64]) -> Vec<(usize, f64)> {
        self.index.with_nearest(x, self.k, |nearest| {
            nearest.iter().map(|&(i, d)| (i as usize, d)).collect()
        })
    }
}

impl Classifier for KnnClassifier {
    /// Majority label of the `k` nearest rows. Does not allocate for
    /// `k ≤ 8`. A query with a NaN/infinite coordinate (or of the wrong
    /// length) has no neighbours and gets label `0`.
    fn predict(&self, x: &[f64]) -> usize {
        self.index.with_nearest(x, self.k, |nearest| {
            majority_vote(nearest, |row| self.ys[row])
        })
    }

    fn name(&self) -> &'static str {
        "KNN"
    }
}

/// K-nearest-neighbour multi-output regressor with inverse-distance
/// weighting.
///
/// # Examples
///
/// ```
/// use mvs_ml::{KnnRegressor, Regressor};
///
/// let xs = vec![vec![0.0], vec![2.0], vec![4.0]];
/// let ys = vec![vec![0.0], vec![20.0], vec![40.0]];
/// let model = KnnRegressor::fit(2, &xs, &ys)?;
/// let y = model.predict(&[1.0]);
/// assert!(y[0] > 5.0 && y[0] < 15.0);
/// # Ok::<(), mvs_ml::MlError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KnnRegressor {
    k: usize,
    index: KnnIndex,
    target_dim: usize,
    /// `len × target_dim` targets, row-major, in arrival order.
    ys: Vec<f64>,
}

impl KnnRegressor {
    /// Memorizes the training set.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KnnClassifier::fit`]; additionally the target
    /// rows must share one dimensionality and be finite.
    pub fn fit<R: AsRef<[f64]>, T: AsRef<[f64]>>(
        k: usize,
        xs: &[R],
        ys: &[T],
    ) -> Result<Self, MlError> {
        if k == 0 {
            return Err(MlError::InvalidParameter("k must be positive"));
        }
        let index = KnnIndex::build(xs)?;
        let target_dim = validate_rows(ys)?;
        if xs.len() != ys.len() {
            return Err(MlError::DimensionMismatch {
                expected: xs.len(),
                found: ys.len(),
            });
        }
        let mut flat = Vec::with_capacity(ys.len() * target_dim);
        for row in ys {
            flat.extend_from_slice(row.as_ref());
        }
        Ok(KnnRegressor {
            k,
            index,
            target_dim,
            ys: flat,
        })
    }

    /// Number of neighbours consulted per query.
    pub fn k(&self) -> usize {
        self.k
    }

    /// [`Regressor::predict`] into a caller-provided row (a stack array on
    /// the association hot path); does not allocate for `k ≤ 8`.
    ///
    /// A query with a NaN/infinite coordinate (or of the wrong length) has
    /// no neighbours to average and yields all-NaN.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not the training targets' dimensionality.
    pub fn predict_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.target_dim,
            "output row must match the target dimensionality"
        );
        let target = |row: usize| &self.ys[row * self.target_dim..][..self.target_dim];
        self.index.with_nearest(x, self.k, |nearest| {
            inverse_distance_mean(nearest, target, out);
        });
    }
}

impl Regressor for KnnRegressor {
    fn predict(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.target_dim];
        self.predict_into(x, &mut out);
        out
    }

    fn name(&self) -> &'static str {
        "KNN"
    }
}

/// Checks the rows are non-empty, rectangular and finite; returns their
/// width.
fn validate_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<usize, MlError> {
    let Some(first) = rows.first() else {
        return Err(MlError::EmptyTrainingSet);
    };
    let d = first.as_ref().len();
    for (i, r) in rows.iter().enumerate() {
        let r = r.as_ref();
        if r.len() != d {
            return Err(MlError::DimensionMismatch {
                expected: d,
                found: r.len(),
            });
        }
        if !r.iter().all(|v| v.is_finite()) {
            return Err(MlError::NonFinite { row: i });
        }
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_majority_vote() {
        let xs = vec![vec![0.0], vec![0.1], vec![0.2], vec![10.0]];
        let ys = vec![1, 1, 0, 0];
        let m = KnnClassifier::fit(3, &xs, &ys).unwrap();
        // 3 nearest to 0.05 are labels {1,1,0} → majority 1.
        assert_eq!(m.predict(&[0.05]), 1);
    }

    #[test]
    fn classifier_k_larger_than_train() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![0, 1];
        let m = KnnClassifier::fit(10, &xs, &ys).unwrap();
        // Uses all available points; tie between {0,1} breaks to lower label.
        assert_eq!(m.predict(&[0.5]), 0);
    }

    #[test]
    fn classifier_validates() {
        assert!(KnnClassifier::fit(0, &[vec![1.0]], &[0]).is_err());
        assert!(KnnClassifier::fit::<Vec<f64>>(1, &[], &[]).is_err());
        assert!(KnnClassifier::fit(1, &[vec![1.0]], &[0, 1]).is_err());
        assert!(KnnClassifier::fit(1, &[vec![]], &[0]).is_err());
    }

    #[test]
    fn fit_rejects_non_finite_rows() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let xs = vec![vec![0.0, 1.0], vec![2.0, bad]];
            assert_eq!(
                KnnClassifier::fit(1, &xs, &[0, 1]).unwrap_err(),
                MlError::NonFinite { row: 1 }
            );
            let ok = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
            assert_eq!(
                KnnRegressor::fit(1, &xs, &ok).unwrap_err(),
                MlError::NonFinite { row: 1 }
            );
            assert_eq!(
                KnnRegressor::fit(1, &ok, &xs).unwrap_err(),
                MlError::NonFinite { row: 1 }
            );
        }
    }

    /// Before the index, a NaN distance sorted to the front of the running
    /// top-k and a NaN query returned the *last* k rows as "nearest".
    #[test]
    fn non_finite_query_has_no_neighbours() {
        let xs = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]];
        let c = KnnClassifier::fit(2, &xs, &[1, 1, 1]).unwrap();
        let r = KnnRegressor::fit(2, &xs, &xs).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(c.neighbours(&[0.0, bad]).is_empty());
            assert_eq!(c.predict(&[bad, 0.0]), 0);
            assert!(r.predict(&[0.0, bad]).iter().all(|v| v.is_nan()));
        }
        // A query of the wrong width is answered the same way.
        assert!(c.neighbours(&[0.0]).is_empty());
        assert!(r.predict(&[0.0, 0.0, 0.0]).iter().all(|v| v.is_nan()));
    }

    #[test]
    fn regressor_exact_hit_returns_target() {
        let xs = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let ys = vec![vec![10.0], vec![20.0]];
        let m = KnnRegressor::fit(2, &xs, &ys).unwrap();
        assert_eq!(m.predict(&[1.0, 2.0]), vec![10.0]);
    }

    #[test]
    fn regressor_interpolates_between_neighbours() {
        let xs = vec![vec![0.0], vec![10.0]];
        let ys = vec![vec![0.0], vec![100.0]];
        let m = KnnRegressor::fit(2, &xs, &ys).unwrap();
        let y = m.predict(&[5.0])[0];
        assert!((y - 50.0).abs() < 1e-9); // equidistant → plain average
        let y = m.predict(&[1.0])[0];
        assert!(y < 50.0); // closer to 0 → pulled toward 0
    }

    #[test]
    fn regressor_multi_output() {
        let xs = vec![vec![0.0], vec![1.0], vec![2.0]];
        let ys = vec![vec![0.0, 1.0], vec![1.0, 2.0], vec![2.0, 3.0]];
        let m = KnnRegressor::fit(1, &xs, &ys).unwrap();
        assert_eq!(m.predict(&[1.9]), vec![2.0, 3.0]);
        let mut row = [0.0; 2];
        m.predict_into(&[0.1], &mut row);
        assert_eq!(row, [0.0, 1.0]);
    }

    #[test]
    fn k_nearest_orders_by_distance() {
        let train = vec![vec![5.0], vec![1.0], vec![3.0]];
        let n = brute_force_k_nearest(&train, &[0.0], 2);
        assert_eq!(n[0].0, 1);
        assert_eq!(n[1].0, 2);
    }

    #[test]
    fn index_sweeps_the_widest_axis_and_keeps_arrival_order_on_ties() {
        // Column 1 spans 90, column 0 spans 2: the sweep runs on column 1.
        let xs = [[1.0, 50.0], [0.0, 10.0], [2.0, 100.0], [1.0, 50.0]];
        let index = KnnIndex::build(&xs).unwrap();
        assert_eq!(index.axis, 1);
        assert_eq!(index.order, vec![1, 0, 3, 2]);
        assert_eq!(
            index.rows,
            vec![0.0, 10.0, 1.0, 50.0, 1.0, 50.0, 2.0, 100.0]
        );
        // Rows 0 and 3 are duplicates: the tie lists the earlier arrival.
        let c = KnnClassifier::fit(1, &xs, &[7, 8, 9, 6]).unwrap();
        assert_eq!(c.neighbours(&[1.0, 49.0]), vec![(0, 1.0)]);
        assert_eq!(c.predict(&[1.0, 49.0]), 7);
    }

    #[test]
    fn ordered_bits_follow_numeric_order() {
        let vs = [-1e300, -2.5, -0.0, 0.0, 1e-300, 3.0, 1e300];
        for w in vs.windows(2) {
            assert!(ordered_bits(w[0]) < ordered_bits(w[1]), "{w:?}");
        }
    }

    #[test]
    fn min_exact_gap_is_two_to_the_minus_511() {
        assert_eq!(MIN_EXACT_GAP, 2.0f64.powi(-511));
        assert!((MIN_EXACT_GAP * MIN_EXACT_GAP).is_normal());
    }
}
