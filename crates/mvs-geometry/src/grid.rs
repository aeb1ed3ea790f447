//! Cell grids over a camera frame.
//!
//! The distributed stage of BALB divides each camera frame into a grid of
//! pixel-level cells, computes a coverage set per cell, and assigns each cell
//! to the highest-priority camera that can observe it (Fig. 8 of the paper).
//! [`Grid`] provides the frame↔cell bookkeeping for those masks.

use crate::{BBox, FrameDims, Point2};
use serde::{Deserialize, Serialize};

/// Index of a cell within a [`Grid`], in row-major order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellIndex(pub usize);

/// A uniform cell grid laid over a camera frame.
///
/// # Examples
///
/// ```
/// use mvs_geometry::{FrameDims, Grid, Point2};
///
/// let grid = Grid::new(FrameDims::new(1280, 704), 64);
/// assert_eq!(grid.cols(), 20);
/// assert_eq!(grid.rows(), 11);
/// let cell = grid.cell_at(Point2::new(100.0, 100.0)).unwrap();
/// assert!(grid.cell_bbox(cell).contains_point(Point2::new(100.0, 100.0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Grid {
    frame: FrameDims,
    cell_size: u32,
    cols: usize,
    rows: usize,
}

impl Grid {
    /// Creates a grid of `cell_size`×`cell_size` pixel cells over `frame`.
    /// Edge cells are truncated to the frame boundary.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is zero or the frame is empty.
    pub fn new(frame: FrameDims, cell_size: u32) -> Self {
        assert!(cell_size > 0, "cell size must be positive");
        assert!(
            frame.width > 0 && frame.height > 0,
            "frame must be non-empty"
        );
        let cols = frame.width.div_ceil(cell_size) as usize;
        let rows = frame.height.div_ceil(cell_size) as usize;
        Grid {
            frame,
            cell_size,
            cols,
            rows,
        }
    }

    /// Number of cell columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of cell rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.cols * self.rows
    }

    /// True when the grid has no cells (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The frame this grid covers.
    #[inline]
    pub fn frame(&self) -> FrameDims {
        self.frame
    }

    /// The cell containing `p`, or `None` if `p` is outside the frame.
    pub fn cell_at(&self, p: Point2) -> Option<CellIndex> {
        if p.x < 0.0 || p.y < 0.0 {
            return None;
        }
        if p.x >= self.frame.width as f64 || p.y >= self.frame.height as f64 {
            return None;
        }
        let col = (p.x / self.cell_size as f64) as usize;
        let row = (p.y / self.cell_size as f64) as usize;
        Some(CellIndex(row * self.cols + col))
    }

    /// Pixel bounding box of a cell (truncated at the frame edge).
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn cell_bbox(&self, cell: CellIndex) -> BBox {
        assert!(cell.0 < self.len(), "cell index out of range");
        let row = cell.0 / self.cols;
        let col = cell.0 % self.cols;
        let x1 = (col as u32 * self.cell_size) as f64;
        let y1 = (row as u32 * self.cell_size) as f64;
        let x2 = ((col as u32 + 1) * self.cell_size).min(self.frame.width) as f64;
        let y2 = ((row as u32 + 1) * self.cell_size).min(self.frame.height) as f64;
        BBox::new(x1, y1, x2, y2).expect("cell bounds are valid by construction")
    }

    /// Centre point of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn cell_center(&self, cell: CellIndex) -> Point2 {
        self.cell_bbox(cell).center()
    }

    /// Iterates over every cell index.
    pub fn iter(&self) -> impl Iterator<Item = CellIndex> + '_ {
        (0..self.len()).map(CellIndex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_round_up() {
        let g = Grid::new(FrameDims::new(130, 65), 64);
        assert_eq!(g.cols(), 3);
        assert_eq!(g.rows(), 2);
        assert_eq!(g.len(), 6);
    }

    #[test]
    fn cell_lookup_and_bbox_agree() {
        let g = Grid::new(FrameDims::new(1280, 704), 64);
        for p in [
            Point2::new(0.0, 0.0),
            Point2::new(63.9, 63.9),
            Point2::new(64.0, 64.0),
            Point2::new(1279.0, 703.0),
        ] {
            let c = g.cell_at(p).unwrap();
            assert!(g.cell_bbox(c).contains_point(p), "point {p:?} cell {c:?}");
        }
    }

    #[test]
    fn out_of_frame_points_have_no_cell() {
        let g = Grid::new(FrameDims::new(100, 100), 10);
        assert!(g.cell_at(Point2::new(-1.0, 5.0)).is_none());
        assert!(g.cell_at(Point2::new(100.0, 5.0)).is_none());
        assert!(g.cell_at(Point2::new(5.0, 100.0)).is_none());
    }

    #[test]
    fn edge_cells_truncate_to_frame() {
        let g = Grid::new(FrameDims::new(100, 50), 64);
        let last = CellIndex(g.len() - 1);
        let b = g.cell_bbox(last);
        assert_eq!(b.x2(), 100.0);
        assert_eq!(b.y2(), 50.0);
    }

    #[test]
    fn iter_covers_all_cells() {
        let g = Grid::new(FrameDims::new(64, 64), 32);
        let all: Vec<_> = g.iter().collect();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0], CellIndex(0));
        assert_eq!(all[3], CellIndex(3));
    }
}
