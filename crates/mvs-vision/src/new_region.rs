//! New-region detection.
//!
//! Clusters of moving pixels that belong to no predicted track box indicate
//! newly appeared objects (Sec. II-B). Feeding these regions to the
//! detector catches new objects at first appearance instead of waiting for
//! the next key frame.

use mvs_geometry::{BBox, BBoxSoA};

/// Finds moving clusters that are not explained by any predicted track box.
///
/// A cluster is *explained* when at least `coverage_threshold` of its area
/// is covered by some single predicted box. Unexplained clusters that
/// overlap each other are merged (hull) so one new object produces one
/// probe region.
///
/// Per frame this is the densest pairwise loop of the distributed stage, so
/// the finder copies the predicted set into [`BBoxSoA`] columns once and
/// evaluates each cluster's coverage test against the columns
/// ([`BBoxSoA::covers_box`]). The per-pair arithmetic — and short-circuit
/// order — is that of [`BBox::coverage_by`], so the surviving clusters, and
/// therefore the merged hulls, are those of the box-by-box scan (the
/// test-only reference in `scalar.rs`; see its differential proptests).
///
/// # Examples
///
/// ```
/// use mvs_geometry::BBox;
/// use mvs_vision::NewRegionFinder;
///
/// let clusters = [
///     BBox::new(100.0, 100.0, 150.0, 150.0)?, // tracked object
///     BBox::new(600.0, 300.0, 660.0, 360.0)?, // brand new object
/// ];
/// let predicted = [BBox::new(95.0, 95.0, 155.0, 155.0)?];
/// let mut fresh = Vec::new();
/// NewRegionFinder::new().find_into(&clusters, &predicted, 0.5, &mut fresh);
/// assert_eq!(fresh, [clusters[1]]);
/// # Ok::<(), mvs_geometry::BBoxError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct NewRegionFinder {
    predicted: BBoxSoA,
}

impl NewRegionFinder {
    /// A finder with empty scratch columns.
    #[must_use]
    pub fn new() -> Self {
        NewRegionFinder::default()
    }

    /// Clears `out` and fills it with the merged unexplained regions;
    /// allocation-free once the scratch columns are warm.
    pub fn find_into(
        &mut self,
        clusters: &[BBox],
        predicted: &[BBox],
        coverage_threshold: f64,
        out: &mut Vec<BBox>,
    ) {
        self.predicted.fill_from_boxes(predicted);
        let predicted_cols = &self.predicted;
        let fresh = out;
        fresh.clear();
        fresh.extend(
            clusters
                .iter()
                .filter(|c| !predicted_cols.covers_box(c, coverage_threshold)),
        );
        merge_overlapping(fresh);
    }
}

/// Merges transitively-overlapping regions into hulls, in place (shared
/// with the test-only scalar reference).
pub(crate) fn merge_overlapping(fresh: &mut Vec<BBox>) {
    let mut merged = true;
    while merged {
        merged = false;
        'outer: for i in 0..fresh.len() {
            for j in i + 1..fresh.len() {
                if fresh[i].intersection_area(&fresh[j]) > 0.0 {
                    let hull = fresh[i].union_hull(&fresh[j]);
                    fresh.swap_remove(j);
                    fresh[i] = hull;
                    merged = true;
                    break 'outer;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bb(x: f64, y: f64, s: f64) -> BBox {
        BBox::new(x, y, x + s, y + s).unwrap()
    }

    /// The regions the frame loop's finder reports, at threshold 0.5.
    fn fresh_regions(clusters: &[BBox], predicted: &[BBox]) -> Vec<BBox> {
        let mut fresh = Vec::new();
        NewRegionFinder::new().find_into(clusters, predicted, 0.5, &mut fresh);
        fresh
    }

    #[test]
    fn covered_clusters_are_dropped() {
        let clusters = [bb(100.0, 100.0, 50.0)];
        let predicted = [bb(95.0, 95.0, 60.0)];
        assert!(fresh_regions(&clusters, &predicted).is_empty());
    }

    #[test]
    fn uncovered_clusters_survive() {
        let clusters = [bb(100.0, 100.0, 50.0), bb(500.0, 400.0, 40.0)];
        let predicted = [bb(95.0, 95.0, 60.0)];
        let fresh = fresh_regions(&clusters, &predicted);
        assert_eq!(fresh, vec![bb(500.0, 400.0, 40.0)]);
    }

    #[test]
    fn partial_coverage_below_threshold_counts_as_new() {
        let clusters = [bb(100.0, 100.0, 100.0)];
        // Covers only ~25% of the cluster.
        let predicted = [bb(100.0, 100.0, 50.0)];
        let fresh = fresh_regions(&clusters, &predicted);
        assert_eq!(fresh.len(), 1);
    }

    #[test]
    fn overlapping_new_clusters_merge() {
        let clusters = [bb(100.0, 100.0, 60.0), bb(140.0, 120.0, 60.0)];
        let fresh = fresh_regions(&clusters, &[]);
        assert_eq!(fresh.len(), 1);
        assert!(fresh[0].contains_box(&clusters[0]));
        assert!(fresh[0].contains_box(&clusters[1]));
    }

    #[test]
    fn chain_of_overlaps_merges_transitively() {
        let clusters = [bb(0.0, 0.0, 50.0), bb(40.0, 0.0, 50.0), bb(80.0, 0.0, 50.0)];
        let fresh = fresh_regions(&clusters, &[]);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0], BBox::new(0.0, 0.0, 130.0, 50.0).unwrap());
    }

    #[test]
    fn disjoint_new_clusters_stay_separate() {
        let clusters = [bb(0.0, 0.0, 30.0), bb(500.0, 500.0, 30.0)];
        let fresh = fresh_regions(&clusters, &[]);
        assert_eq!(fresh.len(), 2);
    }

    #[test]
    fn empty_inputs() {
        assert!(fresh_regions(&[], &[]).is_empty());
        let clusters = [bb(0.0, 0.0, 30.0)];
        assert_eq!(fresh_regions(&clusters, &[]), clusters.to_vec());
    }
}
