//! Structure-of-arrays bounding-box storage.
//!
//! The per-frame hot path (flow displacement lookup, new-region coverage,
//! pairwise IoU) spends its time in tight loops over many boxes. The AoS
//! [`BBox`] layout interleaves the four coordinates of each box with
//! whatever struct carries it, so those loops stride through memory and
//! defeat auto-vectorization. [`BBoxSoA`] stores each coordinate in its own
//! flat column; kernels iterate the columns directly and compile to
//! branch-light, vectorizable loops.
//!
//! Every kernel evaluates *exactly* the same floating-point expression, in
//! the same order, as the corresponding [`BBox`] method — SoA results are
//! bitwise identical to the scalar path (`f64::to_bits` equal), which the
//! differential proptests in `tests/soa_differential.rs` lock down.

use crate::{BBox, Point2};

/// A column-major batch of bounding boxes.
///
/// # Examples
///
/// ```
/// use mvs_geometry::{BBox, BBoxSoA};
///
/// let boxes = [
///     BBox::new(0.0, 0.0, 10.0, 10.0)?,
///     BBox::new(5.0, 5.0, 15.0, 15.0)?,
/// ];
/// let soa = BBoxSoA::from_boxes(&boxes);
/// assert_eq!(soa.len(), 2);
/// // Kernels match the scalar methods bitwise.
/// assert_eq!(
///     soa.intersection_area(0, &boxes[1]).to_bits(),
///     boxes[0].intersection_area(&boxes[1]).to_bits()
/// );
/// # Ok::<(), mvs_geometry::BBoxError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BBoxSoA {
    x1: Vec<f64>,
    y1: Vec<f64>,
    x2: Vec<f64>,
    y2: Vec<f64>,
}

impl BBoxSoA {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        BBoxSoA::default()
    }

    /// Builds a batch by copying the coordinates of `boxes` into columns.
    #[must_use]
    pub fn from_boxes(boxes: &[BBox]) -> Self {
        let mut soa = BBoxSoA::new();
        soa.extend_from_boxes(boxes);
        soa
    }

    /// Number of boxes in the batch.
    pub fn len(&self) -> usize {
        self.x1.len()
    }

    /// True when the batch holds no boxes.
    pub fn is_empty(&self) -> bool {
        self.x1.is_empty()
    }

    /// Removes all boxes, keeping column capacity (the per-frame
    /// buffer-reuse path).
    pub fn clear(&mut self) {
        self.x1.clear();
        self.y1.clear();
        self.x2.clear();
        self.y2.clear();
    }

    /// Appends one box.
    pub fn push(&mut self, b: BBox) {
        self.x1.push(b.x1());
        self.y1.push(b.y1());
        self.x2.push(b.x2());
        self.y2.push(b.y2());
    }

    /// Appends every box in `boxes`, in order. Each column is extended in
    /// one pass from an exact-size iterator, so the copy reserves once per
    /// column and runs without per-element capacity checks.
    fn extend_from_boxes(&mut self, boxes: &[BBox]) {
        self.x1.extend(boxes.iter().map(|b| b.x1()));
        self.y1.extend(boxes.iter().map(|b| b.y1()));
        self.x2.extend(boxes.iter().map(|b| b.x2()));
        self.y2.extend(boxes.iter().map(|b| b.y2()));
    }

    /// Clears the batch and refills it from `boxes` — `from_boxes` without
    /// the allocation once capacity is warm.
    pub fn fill_from_boxes(&mut self, boxes: &[BBox]) {
        self.clear();
        self.extend_from_boxes(boxes);
    }

    /// The four coordinate columns `(x1, y1, x2, y2)`.
    pub fn columns(&self) -> (&[f64], &[f64], &[f64], &[f64]) {
        (&self.x1, &self.y1, &self.x2, &self.y2)
    }

    /// Reconstructs box `i` (the AoS adapter direction).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> BBox {
        BBox::new(self.x1[i], self.y1[i], self.x2[i], self.y2[i])
            .expect("columns only ever hold coordinates of valid boxes")
    }

    /// Area of box `i` — same expression as [`BBox::area`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn area(&self, i: usize) -> f64 {
        (self.x2[i] - self.x1[i]) * (self.y2[i] - self.y1[i])
    }

    /// Centre of box `i` — same expression as [`BBox::center`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn center(&self, i: usize) -> Point2 {
        Point2::new(
            (self.x1[i] + self.x2[i]) / 2.0,
            (self.y1[i] + self.y2[i]) / 2.0,
        )
    }

    /// Whether box `i` contains `p` (boundary inclusive) — same comparisons
    /// as [`BBox::contains_point`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn contains_point(&self, i: usize, p: Point2) -> bool {
        p.x >= self.x1[i] && p.x <= self.x2[i] && p.y >= self.y1[i] && p.y <= self.y2[i]
    }

    /// Overlap area of box `i` with `b` — same expression as
    /// [`BBox::intersection_area`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn intersection_area(&self, i: usize, b: &BBox) -> f64 {
        let w = (self.x2[i].min(b.x2()) - self.x1[i].max(b.x1())).max(0.0);
        let h = (self.y2[i].min(b.y2()) - self.y1[i].max(b.y1())).max(0.0);
        w * h
    }

    /// Pairwise IoU matrix: `out[i * other.len() + j]` is the IoU of box
    /// `i` of `self` with box `j` of `other`, bitwise equal to
    /// [`BBox::iou`] on the corresponding pair. Clears and refills `out`.
    pub fn iou_matrix_into(&self, other: &BBoxSoA, out: &mut Vec<f64>) {
        let (n, m) = (self.len(), other.len());
        out.clear();
        out.resize(n * m, 0.0);
        let (bx1, by1, bx2, by2) = (
            &other.x1[..m],
            &other.y1[..m],
            &other.x2[..m],
            &other.y2[..m],
        );
        for i in 0..n {
            let (ax1, ay1, ax2, ay2) = (self.x1[i], self.y1[i], self.x2[i], self.y2[i]);
            let area_a = (ax2 - ax1) * (ay2 - ay1);
            // Writing whole rows through a bounds-checked-once slice keeps
            // the inner loop branch-free (the union guard compiles to a
            // select), so it vectorizes; the arithmetic per pair is still
            // the exact `BBox::iou` expression.
            let row = &mut out[i * m..(i + 1) * m];
            for j in 0..m {
                let w = (ax2.min(bx2[j]) - ax1.max(bx1[j])).max(0.0);
                let h = (ay2.min(by2[j]) - ay1.max(by1[j])).max(0.0);
                let inter = w * h;
                let union = area_a + (bx2[j] - bx1[j]) * (by2[j] - by1[j]) - inter;
                row[j] = if union > 0.0 { inter / union } else { 0.0 };
            }
        }
    }

    /// For each box `i` of `self`, whether *some single* box of `covers`
    /// covers at least `threshold` of box `i`'s area — the coverage test of
    /// new-region detection, evaluated column-wise. Clears and refills
    /// `out` with one flag per box of `self`.
    ///
    /// Per pair, the coverage fraction is the exact [`BBox::coverage_by`]
    /// expression (`intersection_area / area`, zero for degenerate boxes),
    /// so the flag matches `covers.iter().any(|p| c.coverage_by(p) >=
    /// threshold)` on the scalar path exactly.
    pub fn covered_mask_into(&self, covers: &BBoxSoA, threshold: f64, out: &mut Vec<bool>) {
        out.clear();
        out.reserve(self.len());
        for i in 0..self.len() {
            out.push(covers.covers_box(&self.get(i), threshold));
        }
    }

    /// Index of the smallest-area box containing `p`, or `None` when no box
    /// does. Ties break to the earliest index — the exact selection rule of
    /// the scalar displacement lookup (strict `area <` improvement over an
    /// in-order scan).
    #[inline]
    pub fn smallest_containing(&self, p: Point2) -> Option<usize> {
        let n = self.len();
        let (x1, y1, x2, y2) = (&self.x1[..n], &self.y1[..n], &self.x2[..n], &self.y2[..n]);
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            if p.x >= x1[i] && p.x <= x2[i] && p.y >= y1[i] && p.y <= y2[i] {
                let area = (x2[i] - x1[i]) * (y2[i] - y1[i]);
                if best.is_none_or(|(_, a)| area < a) {
                    best = Some((i, area));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Whether some single box of `self` covers at least `threshold` of
    /// `b`'s area — one row of [`covered_mask_into`](Self::covered_mask_into)
    /// with the candidate box in AoS form, so a caller holding plain
    /// [`BBox`] candidates only has to columnize the cover set. Per pair
    /// the fraction is the exact [`BBox::coverage_by`] expression, and the
    /// scan short-circuits exactly like the scalar `any(..)`.
    #[inline]
    pub fn covers_box(&self, b: &BBox, threshold: f64) -> bool {
        let m = self.len();
        let (x1, y1, x2, y2) = (&self.x1[..m], &self.y1[..m], &self.x2[..m], &self.y2[..m]);
        let (cx1, cy1, cx2, cy2) = (b.x1(), b.y1(), b.x2(), b.y2());
        let area = (cx2 - cx1) * (cy2 - cy1);
        for j in 0..m {
            let w = (cx2.min(x2[j]) - cx1.max(x1[j])).max(0.0);
            let h = (cy2.min(y2[j]) - cy1.max(y1[j])).max(0.0);
            let inter = w * h;
            let frac = if area > 0.0 { inter / area } else { 0.0 };
            if frac >= threshold {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bb(x: f64, y: f64, s: f64) -> BBox {
        BBox::new(x, y, x + s, y + s).unwrap()
    }

    #[test]
    fn round_trips_boxes() {
        let boxes = [bb(0.0, 0.0, 10.0), bb(3.5, -2.0, 7.25)];
        let soa = BBoxSoA::from_boxes(&boxes);
        assert_eq!(soa.len(), 2);
        assert!(!soa.is_empty());
        for (i, b) in boxes.iter().enumerate() {
            assert_eq!(soa.get(i), *b);
            assert_eq!(soa.area(i).to_bits(), b.area().to_bits());
            assert_eq!(soa.center(i), b.center());
        }
    }

    #[test]
    fn fill_reuses_capacity() {
        let mut soa = BBoxSoA::from_boxes(&[bb(0.0, 0.0, 5.0), bb(1.0, 1.0, 5.0)]);
        soa.fill_from_boxes(&[bb(9.0, 9.0, 2.0)]);
        assert_eq!(soa.len(), 1);
        assert_eq!(soa.get(0), bb(9.0, 9.0, 2.0));
        soa.clear();
        assert!(soa.is_empty());
    }

    #[test]
    fn iou_matrix_matches_scalar() {
        let a = [bb(0.0, 0.0, 10.0), bb(5.0, 5.0, 10.0)];
        let b = [
            bb(2.0, 2.0, 10.0),
            bb(100.0, 100.0, 3.0),
            bb(0.0, 0.0, 10.0),
        ];
        let sa = BBoxSoA::from_boxes(&a);
        let sb = BBoxSoA::from_boxes(&b);
        let mut out = Vec::new();
        sa.iou_matrix_into(&sb, &mut out);
        assert_eq!(out.len(), a.len() * b.len());
        for (i, ba) in a.iter().enumerate() {
            for (j, bbx) in b.iter().enumerate() {
                assert_eq!(out[i * b.len() + j].to_bits(), ba.iou(bbx).to_bits());
            }
        }
    }

    #[test]
    fn covered_mask_matches_any_coverage() {
        let clusters = [bb(100.0, 100.0, 50.0), bb(500.0, 400.0, 40.0)];
        let predicted = [bb(95.0, 95.0, 60.0)];
        let sc = BBoxSoA::from_boxes(&clusters);
        let sp = BBoxSoA::from_boxes(&predicted);
        let mut mask = Vec::new();
        sc.covered_mask_into(&sp, 0.5, &mut mask);
        assert_eq!(mask, vec![true, false]);
        // Empty cover set: nothing is covered.
        sc.covered_mask_into(&BBoxSoA::new(), 0.5, &mut mask);
        assert_eq!(mask, vec![false, false]);
    }

    #[test]
    fn smallest_containing_prefers_small_then_early() {
        let boxes = [
            BBox::new(0.0, 0.0, 200.0, 200.0).unwrap(),
            BBox::new(50.0, 50.0, 90.0, 90.0).unwrap(),
            BBox::new(50.0, 50.0, 90.0, 90.0).unwrap(), // same area: earlier wins
        ];
        let soa = BBoxSoA::from_boxes(&boxes);
        assert_eq!(soa.smallest_containing(Point2::new(70.0, 70.0)), Some(1));
        assert_eq!(soa.smallest_containing(Point2::new(10.0, 10.0)), Some(0));
        assert_eq!(soa.smallest_containing(Point2::new(500.0, 500.0)), None);
    }
}
