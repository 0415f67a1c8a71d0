//! Block-to-grid coverage mapping.
//!
//! Thermal solvers discretize the die onto a regular `rows x cols` grid.
//! Power assigned to a block must be spread over the cells it covers, and a
//! block's temperature is the area-weighted average of those cells. This
//! module precomputes the exact geometric coverage fractions once, so both
//! directions are cheap at solve time (HotSpot's grid↔block mapping).

use crate::plan::Floorplan;

/// Precomputed geometric mapping between a [`Floorplan`] and a regular grid.
///
/// Cell `(row, col)` has row 0 at the **bottom** of the die (y = 0) and
/// col 0 at the **left** (x = 0), matching the floorplan's coordinate frame.
/// Cells are indexed linearly as `row * cols + col`.
///
/// # Examples
///
/// ```
/// use hotiron_floorplan::{Block, Floorplan, GridMapping};
///
/// let plan = Floorplan::new(vec![
///     Block::new("left", 1.0, 1.0, 0.0, 0.0),
///     Block::new("right", 1.0, 1.0, 1.0, 0.0),
/// ])?;
/// let map = GridMapping::new(&plan, 4, 8);
/// // Block powers spread over cells sum back to the original total.
/// let cell_power = map.spread_block_values(&[2.0, 6.0]);
/// let total: f64 = cell_power.iter().sum();
/// assert!((total - 8.0).abs() < 1e-12);
/// # Ok::<(), hotiron_floorplan::FloorplanError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GridMapping {
    rows: usize,
    cols: usize,
    cell_width: f64,
    cell_height: f64,
    /// Per-block list of (cell index, fraction of the *block's* area in that cell).
    block_cells: Vec<Vec<(usize, f64)>>,
    /// Per-cell list of (block index, fraction of the *block's* area in this
    /// cell), in ascending block order — the gather-form transpose of
    /// `block_cells`, so per-cell consumers (parallel power spreading) add
    /// contributions in exactly the order the serial scatter loop would.
    cell_gather: Vec<Vec<(usize, f64)>>,
    block_count: usize,
}

impl GridMapping {
    /// Computes the mapping for a `rows x cols` grid over the plan's die.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    pub fn new(plan: &Floorplan, rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid must have at least one cell");
        let cell_width = plan.width() / cols as f64;
        let cell_height = plan.height() / rows as f64;
        let cell_area = cell_width * cell_height;
        let mut block_cells = vec![Vec::new(); plan.len()];
        let mut cell_gather = vec![Vec::new(); rows * cols];

        for (bi, b) in plan.iter().enumerate() {
            // Only visit the cells the block's bounding box can touch.
            let c0 = ((b.left() / cell_width).floor() as isize).max(0) as usize;
            let c1 = (((b.right() / cell_width).ceil() as isize).max(0) as usize).min(cols);
            let r0 = ((b.bottom() / cell_height).floor() as isize).max(0) as usize;
            let r1 = (((b.top() / cell_height).ceil() as isize).max(0) as usize).min(rows);
            let barea = b.area();
            for r in r0..r1 {
                for c in c0..c1 {
                    let (cl, cb) = (c as f64 * cell_width, r as f64 * cell_height);
                    let ov = b.overlap_area(cl, cb, cl + cell_width, cb + cell_height);
                    if ov > 1e-12 * cell_area {
                        let idx = r * cols + c;
                        block_cells[bi].push((idx, ov / barea));
                        cell_gather[idx].push((bi, ov / barea));
                    }
                }
            }
        }
        Self {
            rows,
            cols,
            cell_width,
            cell_height,
            block_cells,
            cell_gather,
            block_count: plan.len(),
        }
    }

    /// Number of grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of blocks in the source floorplan.
    pub fn block_count(&self) -> usize {
        self.block_count
    }

    /// Cell width in meters.
    pub fn cell_width(&self) -> f64 {
        self.cell_width
    }

    /// Cell height in meters.
    pub fn cell_height(&self) -> f64 {
        self.cell_height
    }

    /// Cell area in m².
    pub fn cell_area(&self) -> f64 {
        self.cell_width * self.cell_height
    }

    /// Linear index of cell `(row, col)`.
    pub fn cell_index(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// `(row, col)` of a linear cell index.
    pub fn cell_coords(&self, index: usize) -> (usize, usize) {
        (index / self.cols, index % self.cols)
    }

    /// Center `(x, y)` of a cell in die coordinates (meters).
    pub fn cell_center(&self, row: usize, col: usize) -> (f64, f64) {
        ((col as f64 + 0.5) * self.cell_width, (row as f64 + 0.5) * self.cell_height)
    }

    /// The cell `(row, col)` containing point `(x, y)`; clamps to the die.
    pub fn cell_at(&self, x: f64, y: f64) -> (usize, usize) {
        let c = ((x / self.cell_width) as usize).min(self.cols - 1);
        let r = ((y / self.cell_height) as usize).min(self.rows - 1);
        (r, c)
    }

    /// Cells covered by a block, with block-area fractions (summing to ~1 if
    /// the block lies entirely on the die).
    pub fn cells_of_block(&self, block: usize) -> &[(usize, f64)] {
        &self.block_cells[block]
    }

    /// Blocks covering a cell with *block*-area fractions, in ascending
    /// block order — the transpose of [`Self::cells_of_block`]. Summing
    /// `values[block] * fraction` over this list reproduces
    /// [`Self::spread_block_values`] for that cell bitwise, which lets
    /// callers parallelize the spread per cell without changing results.
    pub fn blocks_of_cell(&self, cell: usize) -> &[(usize, f64)] {
        &self.cell_gather[cell]
    }

    /// Spreads per-block extensive values (e.g. power in W) over cells,
    /// proportionally to covered area. Returns one value per cell.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the block count.
    pub fn spread_block_values(&self, values: &[f64]) -> Vec<f64> {
        assert_eq!(values.len(), self.block_count, "one value per block required");
        let mut out = vec![0.0; self.cell_count()];
        for (bi, cells) in self.block_cells.iter().enumerate() {
            for &(ci, frac) in cells {
                out[ci] += values[bi] * frac;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;

    /// Fraction of each cell's area covered by blocks, from the gather
    /// lists: block-area fractions scaled back to cell area.
    fn cell_cover(m: &GridMapping, plan: &Floorplan, cell: usize) -> f64 {
        let blocks = plan.blocks();
        m.blocks_of_cell(cell).iter().map(|&(b, f)| f * blocks[b].area()).sum::<f64>()
            / m.cell_area()
    }

    fn plan() -> Floorplan {
        Floorplan::new(vec![
            Block::new("a", 1.0, 2.0, 0.0, 0.0),
            Block::new("b", 1.0, 2.0, 1.0, 0.0),
        ])
        .unwrap()
    }

    #[test]
    fn basic_geometry() {
        let m = GridMapping::new(&plan(), 4, 4);
        assert_eq!(m.cell_count(), 16);
        assert_eq!(m.cell_width(), 0.5);
        assert_eq!(m.cell_height(), 0.5);
        assert_eq!(m.cell_index(1, 2), 6);
        assert_eq!(m.cell_coords(6), (1, 2));
        assert_eq!(m.cell_at(0.25, 1.9), (3, 0));
        // Clamping at the top-right corner.
        assert_eq!(m.cell_at(2.0, 2.0), (3, 3));
    }

    #[test]
    fn coverage_partitions_cells() {
        let p = plan();
        let m = GridMapping::new(&p, 4, 4);
        for cell in 0..m.cell_count() {
            let total = cell_cover(&m, &p, cell);
            assert!((total - 1.0).abs() < 1e-9, "cell {cell} covered {total}");
        }
        // Spreading each block's own area puts exactly one cell area in
        // every cell of a full tiling.
        let areas: Vec<f64> = p.iter().map(Block::area).collect();
        for (cell, a) in m.spread_block_values(&areas).into_iter().enumerate() {
            assert!((a / m.cell_area() - 1.0).abs() < 1e-9, "cell {cell}");
        }
    }

    #[test]
    fn block_cells_partition_blocks() {
        let m = GridMapping::new(&plan(), 4, 4);
        for b in 0..2 {
            let total: f64 = m.cells_of_block(b).iter().map(|&(_, f)| f).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn spread_conserves_totals() {
        let m = GridMapping::new(&plan(), 7, 5);
        let cells = m.spread_block_values(&[3.0, 9.0]);
        let total: f64 = cells.iter().sum();
        assert!((total - 12.0).abs() < 1e-9);
    }

    #[test]
    fn misaligned_grid_still_partitions() {
        // 3x3 grid over a 2x2 die: cell boundaries don't align with the
        // block boundary at x=1.
        let p = plan();
        let m = GridMapping::new(&p, 3, 3);
        for cell in 0..m.cell_count() {
            assert!((cell_cover(&m, &p, cell) - 1.0).abs() < 1e-9);
        }
        let cells = m.spread_block_values(&[1.0, 1.0]);
        assert!((cells.iter().sum::<f64>() - 2.0).abs() < 1e-9);
        // Middle column cells are split between the two blocks.
        let mid = m.blocks_of_cell(m.cell_index(1, 1));
        assert_eq!(mid.len(), 2);
    }

    #[test]
    #[should_panic(expected = "one value per block")]
    fn spread_checks_len() {
        let m = GridMapping::new(&plan(), 2, 2);
        let _ = m.spread_block_values(&[1.0]);
    }
}
