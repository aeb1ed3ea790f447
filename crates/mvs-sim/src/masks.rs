//! Mask precomputation and the static world partition.
//!
//! Cell coverage sets depend only on the (static) camera deployment and the
//! trained cross-camera models, so they are computed once per run; per
//! horizon, only the priority-based owner selection changes (Sec. III-C2).
//! The same module hosts the geometric static partition used by the SP
//! baseline: an offline, processing-power-proportional division of the
//! ground plane among the cameras that cover it.

use crate::correspond::CorrespondenceData;
use mvs_core::{CameraId, CameraMask};
#[cfg(test)]
use mvs_geometry::BBox;
use mvs_geometry::{FrameDims, Grid, Point2, Polygon};
use serde::{Deserialize, Serialize};

/// Precomputed per-camera, per-cell coverage sets.
#[derive(Debug, Clone)]
pub struct MaskPrecompute {
    grids: Vec<Grid>,
    /// `covered_by[cam]` = the other cameras that observe the world region
    /// behind at least one cell of `cam`'s frame, ascending by index, each
    /// with the cells (ascending) it covers. `cam` itself trivially covers
    /// all of its own cells and is not listed.
    covered_by: Vec<Vec<(usize, Vec<usize>)>>,
    /// `canon_frac[cam][cell]` = a cross-camera-consistent coordinate of
    /// the world region behind the cell, in `[0, 1]`: the cell's location
    /// mapped into the lowest-indexed covering camera's frame, normalized
    /// by that frame's width. Two cameras looking at the same world spot
    /// derive (model errors aside) the same value, which lets the SP
    /// baseline cut *contiguous*, cross-camera-consistent regions without
    /// runtime communication.
    canon_frac: Vec<Vec<f64>>,
}

impl MaskPrecompute {
    /// Minimum labeled objects a cell must have seen before another
    /// camera can be credited with covering it.
    const MIN_SAMPLES: usize = 3;
    /// Fraction of a cell's objects the other camera must have observed to
    /// count as covering the cell.
    const COVER_FRACTION: f64 = 0.5;

    /// Builds per-cell coverage statistics from the labeled correspondence
    /// data (the same training labels the association models use): for
    /// every cell of every camera's frame, camera `j` covers the cell iff
    /// it observed at least half of the labeled objects centred there
    /// (minimum three samples). Cells that never contained an object are
    /// conservatively owned by their own camera.
    ///
    /// Time and memory follow the labeled pairs, not the fleet: a camera
    /// is only ever weighed against the destinations `data` pairs it with.
    pub fn build(frames: &[FrameDims], data: &CorrespondenceData, cell_px: u32) -> MaskPrecompute {
        let m = frames.len();
        let grids: Vec<Grid> = frames.iter().map(|&f| Grid::new(f, cell_px)).collect();
        let mut covered_by = Vec::with_capacity(m);
        let mut canon_frac = Vec::with_capacity(m);
        // One source camera's accumulators, reused across sources: the
        // cell of each labeled object, labeled objects per cell, and per
        // (cell, paired destination) how many of them the destination saw
        // plus the sum of their mapped x there.
        let mut cell_of_row: Vec<Option<usize>> = Vec::new();
        let mut totals: Vec<usize> = Vec::new();
        let mut visible: Vec<usize> = Vec::new();
        let mut dst_x_sum: Vec<f64> = Vec::new();
        for (cam, grid) in grids.iter().enumerate() {
            let pairs = data.pairs.range((cam, 0)..=(cam, usize::MAX));
            let mut covering: Vec<(usize, Vec<usize>)> = pairs
                .clone()
                .map(|(&(_, dst), _)| (dst, Vec::new()))
                .collect();
            let degree = covering.len();
            totals.clear();
            totals.resize(grid.len(), 0);
            visible.clear();
            visible.resize(grid.len() * degree, 0);
            dst_x_sum.clear();
            dst_x_sum.resize(grid.len() * degree, 0.0);
            cell_of_row.clear();
            cell_of_row.extend(data.rows(cam).iter().map(|seen| {
                let cell = grid.cell_at(seen.center())?.0;
                totals[cell] += 1;
                Some(cell)
            }));
            for (slot, (_, labels)) in pairs.enumerate() {
                for &(row, there) in labels.positives() {
                    if let Some(cell) = cell_of_row[row] {
                        visible[cell * degree + slot] += 1;
                        dst_x_sum[cell * degree + slot] += there.center().x;
                    }
                }
            }
            let mut fracs = Vec::with_capacity(grid.len());
            for cell in grid.iter() {
                let total = totals[cell.0];
                let seen = &visible[cell.0 * degree..(cell.0 + 1) * degree];
                // Canonical coordinate: this world spot as seen from the
                // lowest-indexed camera that covers it (empirical mean of
                // the labeled mappings).
                let mut canon = (cam, grid.cell_center(cell).x);
                for slot in 0..degree {
                    if total >= Self::MIN_SAMPLES
                        && seen[slot] as f64 >= Self::COVER_FRACTION * total as f64
                    {
                        let (other, cells) = &mut covering[slot];
                        cells.push(cell.0);
                        if canon.0 == cam && *other < cam {
                            let x_sum = dst_x_sum[cell.0 * degree + slot];
                            canon = (*other, x_sum / seen[slot].max(1) as f64);
                        }
                    }
                }
                let (canon_cam, canon_x) = canon;
                let width = frames[canon_cam].width as f64;
                fracs.push((canon_x / width).clamp(0.0, 1.0));
            }
            covering.retain(|(_, cells)| !cells.is_empty());
            covered_by.push(covering);
            canon_frac.push(fracs);
        }
        MaskPrecompute {
            grids,
            covered_by,
            canon_frac,
        }
    }

    /// Number of cameras.
    pub fn num_cameras(&self) -> usize {
        self.grids.len()
    }

    /// The cameras other than `camera` that cover cell `cell` of
    /// `camera`'s frame, ascending by index.
    pub fn covering(&self, camera: usize, cell: usize) -> impl Iterator<Item = usize> + '_ {
        self.covered_by[camera]
            .iter()
            .filter(move |(_, cells)| cells.binary_search(&cell).is_ok())
            .map(|&(other, _)| other)
    }

    /// Builds the distributed-stage mask for `camera` under the given
    /// priority order (cheap — just owner selection over the precomputed
    /// coverage).
    ///
    /// # Panics
    ///
    /// Panics if `camera` is out of range or absent from `priority`.
    pub fn mask_for(&self, camera: usize, priority: &[CameraId]) -> CameraMask {
        let mut slot = None;
        self.mask_for_into(camera, priority, &mut slot);
        slot.expect("mask_for_into fills an empty slot")
    }

    /// Buffer-reusing variant of [`MaskPrecompute::mask_for`]: when `slot`
    /// already holds this camera's mask from a previous horizon, its owner
    /// table is recomputed in place (no grid clone, no allocation); an
    /// empty slot gets a freshly built mask.
    ///
    /// Each cell goes to the first camera in `priority` that is `camera`
    /// or covers the cell; cameras absent from `priority` own nothing.
    ///
    /// # Panics
    ///
    /// Panics if `camera` is out of range, absent from `priority`, or
    /// `slot` holds a different camera's mask.
    pub fn mask_for_into(
        &self,
        camera: usize,
        priority: &[CameraId],
        slot: &mut Option<CameraMask>,
    ) {
        let own = CameraId(camera);
        assert!(
            priority.contains(&own),
            "priority order must contain the mask's own camera"
        );
        let mask = slot.get_or_insert_with(|| {
            let grid = self.grids[camera].clone();
            let owners = vec![own; grid.len()];
            CameraMask::from_owners(own, grid, owners)
        });
        assert_eq!(
            mask.camera(),
            own,
            "mask slot belongs to a different camera"
        );
        // Lowest priority first, so a higher-priority camera overwrites
        // the cells it shares with a lower one; `own` claims every cell.
        let covering = &self.covered_by[camera];
        let owners = mask.owners_mut();
        for &c in priority.iter().rev() {
            if c == own {
                owners.fill(own);
            } else if let Ok(i) = covering.binary_search_by_key(&c.0, |&(other, _)| other) {
                for &cell in &covering[i].1 {
                    owners[cell] = c;
                }
            }
        }
    }

    /// Builds the *static partitioning* masks (one per camera): each
    /// overlap region — the cells sharing one coverage set — is divided
    /// offline among its covering cameras into **contiguous bands** whose
    /// widths are proportional to the given processing-power `weights`.
    /// A cell's band position is its percentile (by canonical coordinate)
    /// within its overlap region, so the split is proportional regardless
    /// of where the region sits in the canonical frame. The allocation
    /// never depends on load — the property the paper's SP baseline is
    /// defined by — and all cameras derive the same bands from the same
    /// synchronized models.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not have one entry per camera.
    pub fn sp_masks(&self, weights: &[f64]) -> Vec<CameraMask> {
        assert_eq!(
            weights.len(),
            self.num_cameras(),
            "one weight per camera required"
        );
        // Gather the canonical-coordinate distribution of every overlap
        // region (keyed by its full candidate set) across all cameras.
        let mut groups: std::collections::BTreeMap<Vec<usize>, Vec<f64>> = Default::default();
        for cam in 0..self.num_cameras() {
            for cell in self.grids[cam].iter() {
                let key = self.candidates(cam, cell.0);
                groups
                    .entry(key)
                    .or_default()
                    .push(self.canon_frac[cam][cell.0]);
            }
        }
        for fracs in groups.values_mut() {
            fracs.sort_by(|a, b| a.partial_cmp(b).expect("finite fracs"));
        }
        (0..self.num_cameras())
            .map(|cam| {
                let grid = self.grids[cam].clone();
                let owners = grid
                    .iter()
                    .map(|cell| {
                        let candidates = self.candidates(cam, cell.0);
                        let fracs = &groups[&candidates];
                        let frac = self.canon_frac[cam][cell.0];
                        let rank = fracs.partition_point(|&f| f < frac);
                        let pct = (rank as f64 + 0.5) / fracs.len() as f64;
                        let total: f64 = candidates.iter().map(|&c| weights[c]).sum();
                        let mut acc = 0.0;
                        let mut winner = *candidates.last().expect("self is a candidate");
                        for &c in &candidates {
                            acc += weights[c] / total;
                            if pct <= acc {
                                winner = c;
                                break;
                            }
                        }
                        CameraId(winner)
                    })
                    .collect();
                CameraMask::from_owners(CameraId(cam), grid, owners)
            })
            .collect()
    }

    /// Sorted covering cameras of a cell, including the cell's own camera.
    fn candidates(&self, cam: usize, cell: usize) -> Vec<usize> {
        let mut candidates: Vec<usize> = self.covering(cam, cell).collect();
        candidates.push(cam);
        candidates.sort_unstable();
        candidates
    }
}

/// Offline static partition of the ground plane (the SP baseline).
///
/// Each point of the monitored region is owned by one of the cameras whose
/// view polygon contains it, chosen by a *multiplicatively weighted
/// Voronoi* rule: the covering camera minimizing
/// `distance(point, view centroid) / speed_score` wins. Faster devices
/// therefore receive proportionally larger **contiguous** regions around
/// their own views — the realistic shape of an offline spatial partition —
/// and the allocation never reacts to the current load, which is exactly
/// the weakness BALB exploits (a platoon parked inside one camera's region
/// spikes that camera's latency while its neighbours idle).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct StaticWorldPartition {
    views: Vec<Polygon>,
    anchors: Vec<Point2>,
    weights: Vec<f64>,
}

impl StaticWorldPartition {
    /// Creates a partition from the cameras' view polygons and their speed
    /// scores. Anchors default to the view polygons' bounding-box centres.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty/mismatched or a weight is not positive.
    pub fn new(views: Vec<Polygon>, weights: Vec<f64>) -> Self {
        assert!(!views.is_empty(), "need at least one camera view");
        assert_eq!(views.len(), weights.len(), "one weight per view required");
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let anchors = views.iter().map(|v| v.bbox().center()).collect();
        StaticWorldPartition {
            views,
            anchors,
            weights,
        }
    }

    /// The camera owning `pos`, or `None` when no camera covers it.
    pub fn owner(&self, pos: Point2) -> Option<usize> {
        self.views
            .iter()
            .enumerate()
            .filter(|(_, v)| v.contains(pos))
            .map(|(i, _)| (i, self.anchors[i].distance(pos) / self.weights[i]))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(x1: f64, y1: f64, x2: f64, y2: f64) -> Polygon {
        Polygon::rectangle(&BBox::new(x1, y1, x2, y2).unwrap())
    }

    #[test]
    fn partition_respects_coverage() {
        let p = StaticWorldPartition::new(
            vec![square(0.0, 0.0, 50.0, 50.0), square(40.0, 0.0, 100.0, 50.0)],
            vec![1.0, 1.0],
        );
        // Only camera 0 covers the far left.
        assert_eq!(p.owner(Point2::new(5.0, 25.0)), Some(0));
        // Only camera 1 covers the far right.
        assert_eq!(p.owner(Point2::new(90.0, 25.0)), Some(1));
        // Nobody covers the outside.
        assert_eq!(p.owner(Point2::new(500.0, 500.0)), None);
        // Overlap points belong to exactly one of the two.
        let o = p.owner(Point2::new(45.0, 25.0)).unwrap();
        assert!(o == 0 || o == 1);
    }

    #[test]
    fn partition_is_contiguous_around_anchors() {
        let p = StaticWorldPartition::new(
            vec![square(0.0, 0.0, 100.0, 50.0), square(0.0, 0.0, 100.0, 50.0)],
            vec![1.0, 1.0],
        );
        // Identical views share one anchor → a single camera owns all of
        // it (ties break deterministically); with shifted views each side
        // belongs to the nearer camera.
        let shifted = StaticWorldPartition::new(
            vec![square(0.0, 0.0, 60.0, 50.0), square(40.0, 0.0, 100.0, 50.0)],
            vec![1.0, 1.0],
        );
        assert_eq!(shifted.owner(Point2::new(42.0, 25.0)), Some(0));
        assert_eq!(shifted.owner(Point2::new(58.0, 25.0)), Some(1));
        let _ = p;
    }

    #[test]
    fn weights_skew_allocation() {
        let p = StaticWorldPartition::new(
            vec![
                square(0.0, 0.0, 200.0, 200.0),
                square(100.0, 0.0, 300.0, 200.0),
            ],
            vec![5.0, 1.0],
        );
        // Count ownership over the overlap strip: the fast camera's region
        // must reach far beyond the midpoint.
        let mut counts = [0usize; 2];
        for i in 0..40 {
            for j in 0..40 {
                let pos = Point2::new(
                    102.0 + (196.0 - 4.0) * i as f64 / 40.0 / 2.0,
                    2.5 + 4.875 * j as f64,
                );
                if let Some(o) = p.owner(pos) {
                    counts[o] += 1;
                }
            }
        }
        assert!(
            counts[0] > counts[1],
            "fast camera got {} points vs {}",
            counts[0],
            counts[1]
        );
    }

    #[test]
    #[should_panic(expected = "one weight per view")]
    fn validates_weight_count() {
        StaticWorldPartition::new(vec![square(0.0, 0.0, 1.0, 1.0)], vec![]);
    }
}
