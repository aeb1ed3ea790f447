//! Camera masks for the distributed stage (Fig. 8).
//!
//! After the central stage, each camera's frame is divided into a grid of
//! cells; for each cell the *coverage set* (which cameras can observe the
//! world region behind that cell) is computed via the cross-camera models,
//! and the cell is claimed by the highest-priority covering camera. During
//! the horizon each camera tracks new objects only in cells it owns — a
//! consistent, communication-free division of responsibility, because every
//! camera derives the same masks from the same synchronized inputs.

use crate::CameraId;
use mvs_geometry::{BBox, Grid, Point2};
use serde::{Deserialize, Serialize};

/// The per-camera responsibility mask over frame cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CameraMask {
    camera: CameraId,
    grid: Grid,
    /// Owner camera of each cell, indexed by cell index.
    owners: Vec<CameraId>,
}

impl CameraMask {
    /// Builds the mask for `camera`'s frame.
    ///
    /// `priority` is the central stage's latency-sorted camera order
    /// (highest priority first). `observed_by(other, cell_center)` answers
    /// whether camera `other` can also observe the world region behind this
    /// camera's pixel `cell_center` — in the paper this comes from the
    /// cross-camera KNN classification model. The camera itself always
    /// covers its own cells.
    ///
    /// # Panics
    ///
    /// Panics if `priority` does not contain `camera`.
    pub fn build<F>(camera: CameraId, grid: Grid, priority: &[CameraId], observed_by: F) -> Self
    where
        F: Fn(CameraId, Point2) -> bool,
    {
        assert!(
            priority.contains(&camera),
            "priority order must contain the mask's own camera"
        );
        let owners = grid
            .iter()
            .map(|cell| {
                let center = grid.cell_center(cell);
                *priority
                    .iter()
                    .find(|&&c| c == camera || observed_by(c, center))
                    .expect("own camera always covers its own cells")
            })
            .collect();
        CameraMask {
            camera,
            grid,
            owners,
        }
    }

    /// Builds a mask from explicitly computed per-cell owners (used by
    /// allocation policies other than priority order, e.g. the static
    /// partitioning baseline's power-proportional split).
    ///
    /// # Panics
    ///
    /// Panics if the owner count does not match the grid's cell count.
    pub fn from_owners(camera: CameraId, grid: Grid, owners: Vec<CameraId>) -> Self {
        assert_eq!(owners.len(), grid.len(), "one owner per grid cell required");
        CameraMask {
            camera,
            grid,
            owners,
        }
    }

    /// The camera this mask belongs to.
    pub fn camera(&self) -> CameraId {
        self.camera
    }

    /// The owner of every cell, indexed by cell index, for re-selecting
    /// owners in place at a new horizon (the grid, hence the cell count, is
    /// a per-camera constant).
    pub fn owners_mut(&mut self) -> &mut [CameraId] {
        &mut self.owners
    }

    /// Owner of the cell containing `p`, or `None` outside the frame.
    pub fn owner_at(&self, p: Point2) -> Option<CameraId> {
        self.grid.cell_at(p).map(|cell| self.owners[cell.0])
    }

    /// Whether this camera is responsible for new objects appearing at `p`
    /// (i.e. it owns the cell — no higher-priority camera covers it).
    pub fn is_responsible_at(&self, p: Point2) -> bool {
        self.owner_at(p) == Some(self.camera)
    }

    /// Whether this camera is responsible for a new object with bounding
    /// box `b` (decided at the box centre).
    pub fn is_responsible_for(&self, b: &BBox) -> bool {
        self.is_responsible_at(b.center())
    }

    /// Fraction of cells owned by this camera (diagnostic).
    pub fn owned_fraction(&self) -> f64 {
        let own = self.owners.iter().filter(|&&c| c == self.camera).count();
        own as f64 / self.owners.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvs_geometry::FrameDims;

    fn grid() -> Grid {
        Grid::new(FrameDims::new(200, 100), 50)
    }

    #[test]
    fn sole_camera_owns_everything() {
        let mask = CameraMask::build(CameraId(0), grid(), &[CameraId(0)], |_, _| false);
        assert_eq!(mask.owned_fraction(), 1.0);
        assert!(mask.is_responsible_at(Point2::new(10.0, 10.0)));
    }

    #[test]
    fn higher_priority_camera_claims_shared_cells() {
        // Camera 1 (this mask) vs camera 0 with higher priority; camera 0
        // observes the left half of camera 1's frame.
        let observed = |c: CameraId, p: Point2| c == CameraId(0) && p.x < 100.0;
        let mask = CameraMask::build(CameraId(1), grid(), &[CameraId(0), CameraId(1)], observed);
        assert_eq!(mask.owner_at(Point2::new(10.0, 10.0)), Some(CameraId(0)));
        assert_eq!(mask.owner_at(Point2::new(150.0, 10.0)), Some(CameraId(1)));
        assert!(!mask.is_responsible_at(Point2::new(10.0, 10.0)));
        assert!(mask.is_responsible_at(Point2::new(150.0, 10.0)));
        assert!((mask.owned_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lower_priority_overlap_does_not_steal_cells() {
        // Camera 2 also sees everything, but has *lower* priority than this
        // camera (1), so this camera keeps its cells.
        let observed = |c: CameraId, _: Point2| c == CameraId(2);
        let mask = CameraMask::build(
            CameraId(1),
            grid(),
            &[CameraId(0), CameraId(1), CameraId(2)],
            observed,
        );
        assert_eq!(mask.owned_fraction(), 1.0);
    }

    #[test]
    fn out_of_frame_queries_return_none() {
        let mask = CameraMask::build(CameraId(0), grid(), &[CameraId(0)], |_, _| false);
        assert_eq!(mask.owner_at(Point2::new(-5.0, 10.0)), None);
        assert!(!mask.is_responsible_at(Point2::new(1000.0, 10.0)));
    }

    #[test]
    fn box_responsibility_uses_center() {
        let observed = |c: CameraId, p: Point2| c == CameraId(0) && p.x < 100.0;
        let mask = CameraMask::build(CameraId(1), grid(), &[CameraId(0), CameraId(1)], observed);
        // Box centred on the right half → responsible even if it pokes left.
        let b = BBox::new(80.0, 10.0, 180.0, 60.0).unwrap();
        assert!(mask.is_responsible_for(&b));
        let b_left = BBox::new(10.0, 10.0, 90.0, 60.0).unwrap();
        assert!(!mask.is_responsible_for(&b_left));
    }

    #[test]
    #[should_panic(expected = "priority order must contain")]
    fn build_requires_own_camera_in_priority() {
        CameraMask::build(CameraId(5), grid(), &[CameraId(0)], |_, _| false);
    }

    #[test]
    fn dropping_a_camera_from_priority_lifts_its_cells_to_survivors() {
        // Degraded re-sync: a dead camera is omitted from the priority
        // order entirely, so the cells it used to claim fall to the next
        // covering camera instead of going unowned.
        let observed = |c: CameraId, p: Point2| c == CameraId(0) && p.x < 100.0;
        let full = CameraMask::build(CameraId(1), grid(), &[CameraId(0), CameraId(1)], observed);
        assert_eq!(full.owner_at(Point2::new(10.0, 10.0)), Some(CameraId(0)));

        let degraded = CameraMask::build(CameraId(1), grid(), &[CameraId(1)], observed);
        // Camera 1 absorbs the dead camera's half …
        assert_eq!(
            degraded.owner_at(Point2::new(10.0, 10.0)),
            Some(CameraId(1))
        );
        assert_eq!(degraded.owned_fraction(), 1.0);
        // … and the right half is unchanged.
        assert_eq!(
            degraded.owner_at(Point2::new(150.0, 10.0)),
            full.owner_at(Point2::new(150.0, 10.0))
        );
    }

    #[test]
    fn reordering_priority_moves_contested_cells_only() {
        // Cameras 0 and 2 both observe the left half of camera 1's frame;
        // flipping their relative priority re-owns exactly the contested
        // cells and nothing else.
        let observed =
            |c: CameraId, p: Point2| (c == CameraId(0) || c == CameraId(2)) && p.x < 100.0;
        let zero_first = CameraMask::build(
            CameraId(1),
            grid(),
            &[CameraId(0), CameraId(2), CameraId(1)],
            observed,
        );
        let two_first = CameraMask::build(
            CameraId(1),
            grid(),
            &[CameraId(2), CameraId(0), CameraId(1)],
            observed,
        );
        let left = Point2::new(10.0, 10.0);
        let right = Point2::new(150.0, 10.0);
        assert_eq!(zero_first.owner_at(left), Some(CameraId(0)));
        assert_eq!(two_first.owner_at(left), Some(CameraId(2)));
        assert_eq!(zero_first.owner_at(right), Some(CameraId(1)));
        assert_eq!(two_first.owner_at(right), Some(CameraId(1)));
        assert_eq!(zero_first.owned_fraction(), two_first.owned_fraction());
    }

    #[test]
    fn promoting_own_camera_to_top_priority_claims_every_covered_cell() {
        // When this camera leads the priority order its cells cannot be
        // claimed by anyone, whatever the overlap models say.
        let observed = |_: CameraId, _: Point2| true;
        let mask = CameraMask::build(
            CameraId(1),
            grid(),
            &[CameraId(1), CameraId(0), CameraId(2)],
            observed,
        );
        assert_eq!(mask.owned_fraction(), 1.0);
    }
}
