//! Validated floorplan container.

use crate::block::Block;
use crate::error::FloorplanError;
use std::collections::HashMap;

/// Relative tolerance on pairwise overlap area (fraction of the smaller
/// block's area) below which an overlap is attributed to floating-point
/// round-off and ignored.
const OVERLAP_REL_TOL: f64 = 1e-9;

/// A validated chip floorplan: a set of uniquely-named, non-overlapping
/// rectangular blocks.
///
/// The die extent is the bounding box of all blocks; blocks need not tile the
/// die completely (gaps are treated as un-powered silicon by consumers), but
/// the built-in library floorplans do tile it exactly, which the test-suite
/// checks.
///
/// # Examples
///
/// ```
/// use hotiron_floorplan::{Block, Floorplan};
///
/// let plan = Floorplan::new(vec![
///     Block::new("left", 1e-3, 2e-3, 0.0, 0.0),
///     Block::new("right", 1e-3, 2e-3, 1e-3, 0.0),
/// ])?;
/// assert_eq!(plan.len(), 2);
/// assert!((plan.width() - 2e-3).abs() < 1e-15);
/// # Ok::<(), hotiron_floorplan::FloorplanError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    blocks: Vec<Block>,
    index: HashMap<String, usize>,
    width: f64,
    height: f64,
}

impl Floorplan {
    /// Builds a floorplan from blocks, validating names and overlaps.
    ///
    /// # Errors
    ///
    /// * [`FloorplanError::Empty`] if `blocks` is empty.
    /// * [`FloorplanError::DuplicateName`] if two blocks share a name.
    /// * [`FloorplanError::Overlap`] if two blocks overlap by more than a
    ///   round-off tolerance.
    pub fn new(blocks: Vec<Block>) -> Result<Self, FloorplanError> {
        if blocks.is_empty() {
            return Err(FloorplanError::Empty);
        }
        let mut index = HashMap::with_capacity(blocks.len());
        for (i, b) in blocks.iter().enumerate() {
            if index.insert(b.name().to_owned(), i).is_some() {
                return Err(FloorplanError::DuplicateName(b.name().to_owned()));
            }
        }
        for i in 0..blocks.len() {
            for j in (i + 1)..blocks.len() {
                let area = blocks[i].overlap_with(&blocks[j]);
                let tol = OVERLAP_REL_TOL * blocks[i].area().min(blocks[j].area());
                if area > tol {
                    return Err(FloorplanError::Overlap {
                        a: blocks[i].name().to_owned(),
                        b: blocks[j].name().to_owned(),
                        area,
                    });
                }
            }
        }
        let (mut right, mut top) = (0.0f64, 0.0f64);
        let (mut left, mut bottom) = (f64::INFINITY, f64::INFINITY);
        for b in &blocks {
            right = right.max(b.right());
            top = top.max(b.top());
            left = left.min(b.left());
            bottom = bottom.min(b.bottom());
        }
        // Normalize so the die's bounding box starts at the origin. Library
        // floorplans are already origin-anchored; user plans may not be.
        let blocks: Vec<Block> = if left.abs() > 0.0 || bottom.abs() > 0.0 {
            blocks
                .into_iter()
                .map(|b| {
                    Block::new(
                        b.name(),
                        b.width(),
                        b.height(),
                        b.left() - left,
                        b.bottom() - bottom,
                    )
                })
                .collect()
        } else {
            blocks
        };
        Ok(Self { blocks, index, width: right - left, height: top - bottom })
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the floorplan has no blocks (never true for a constructed plan).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Die width (x extent) in meters.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Die height (y extent) in meters.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Total die area (bounding box) in m².
    pub fn die_area(&self) -> f64 {
        self.width * self.height
    }

    /// Sum of block areas in m² (≤ [`Floorplan::die_area`]).
    pub fn covered_area(&self) -> f64 {
        self.blocks.iter().map(Block::area).sum()
    }

    /// Fraction of the die covered by blocks, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        self.covered_area() / self.die_area()
    }

    /// The blocks, in insertion order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Iterates over the blocks in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Block> {
        self.blocks.iter()
    }

    /// Looks up a block by name.
    pub fn block(&self, name: &str) -> Option<&Block> {
        self.index.get(name).map(|&i| &self.blocks[i])
    }

    /// Looks up a block's index by name.
    pub fn block_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Looks up a block's index by name, failing loudly.
    ///
    /// # Errors
    ///
    /// Returns [`FloorplanError::UnknownBlock`] if no block has this name.
    pub fn require_block_index(&self, name: &str) -> Result<usize, FloorplanError> {
        self.block_index(name).ok_or_else(|| FloorplanError::UnknownBlock(name.to_owned()))
    }

    /// Block names in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.blocks.iter().map(|b| b.name())
    }
}

impl<'a> IntoIterator for &'a Floorplan {
    type Item = &'a Block;
    type IntoIter = std::slice::Iter<'a, Block>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_block_plan() -> Floorplan {
        Floorplan::new(vec![
            Block::new("a", 1.0, 1.0, 0.0, 0.0),
            Block::new("b", 1.0, 1.0, 1.0, 0.0),
        ])
        .unwrap()
    }

    #[test]
    fn builds_and_indexes() {
        let p = two_block_plan();
        assert_eq!(p.len(), 2);
        assert_eq!(p.width(), 2.0);
        assert_eq!(p.height(), 1.0);
        assert_eq!(p.block("a").unwrap().name(), "a");
        assert_eq!(p.block_index("b"), Some(1));
        assert!(p.block("c").is_none());
        assert_eq!(
            p.require_block_index("zzz").unwrap_err(),
            FloorplanError::UnknownBlock("zzz".into())
        );
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Floorplan::new(vec![]).unwrap_err(), FloorplanError::Empty);
    }

    #[test]
    fn rejects_duplicates() {
        let e = Floorplan::new(vec![
            Block::new("a", 1.0, 1.0, 0.0, 0.0),
            Block::new("a", 1.0, 1.0, 1.0, 0.0),
        ])
        .unwrap_err();
        assert_eq!(e, FloorplanError::DuplicateName("a".into()));
    }

    #[test]
    fn rejects_overlap() {
        let e = Floorplan::new(vec![
            Block::new("a", 1.0, 1.0, 0.0, 0.0),
            Block::new("b", 1.0, 1.0, 0.5, 0.0),
        ])
        .unwrap_err();
        assert!(matches!(e, FloorplanError::Overlap { .. }));
    }

    #[test]
    fn tolerates_roundoff_overlap() {
        // Abutting blocks whose shared edge wobbles by 1e-18 m.
        let p = Floorplan::new(vec![
            Block::new("a", 1.0, 1.0, 0.0, 0.0),
            Block::new("b", 1.0, 1.0, 1.0 - 1e-13, 0.0),
        ]);
        assert!(p.is_ok());
    }

    #[test]
    fn normalizes_to_origin() {
        let p = Floorplan::new(vec![Block::new("a", 1.0, 1.0, 5.0, 7.0)]).unwrap();
        let b = p.block("a").unwrap();
        assert_eq!(b.left(), 0.0);
        assert_eq!(b.bottom(), 0.0);
        assert_eq!(p.width(), 1.0);
    }

    #[test]
    fn coverage_and_areas() {
        let p = two_block_plan();
        assert!((p.coverage() - 1.0).abs() < 1e-12);
        let p = Floorplan::new(vec![
            Block::new("a", 1.0, 1.0, 0.0, 0.0),
            Block::new("b", 1.0, 1.0, 3.0, 0.0),
        ])
        .unwrap();
        assert!((p.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn iterates_in_order() {
        let p = two_block_plan();
        let names: Vec<_> = p.iter().map(|b| b.name().to_owned()).collect();
        assert_eq!(names, vec!["a", "b"]);
        let names2: Vec<_> = (&p).into_iter().map(|b| b.name()).collect();
        assert_eq!(names2, vec!["a", "b"]);
    }
}

impl Floorplan {
    /// Returns the floorplan rotated 90° counter-clockwise (the die's
    /// width and height swap). Useful for studying coolant-flow direction:
    /// rotating the die is equivalent to rotating the flow.
    pub fn rotated_90(&self) -> Floorplan {
        let h = self.height();
        let blocks = self
            .blocks
            .iter()
            .map(|b| {
                // (x, y) -> (h - y - bh, x): CCW rotation about the origin,
                // shifted back into the first quadrant.
                Block::new(b.name(), b.height(), b.width(), h - b.bottom() - b.height(), b.left())
            })
            .collect();
        Floorplan::new(blocks).expect("rotation preserves validity")
    }
}

#[cfg(test)]
mod transform_tests {
    use super::*;

    #[test]
    fn rotation_swaps_dimensions_and_preserves_area() {
        let p = Floorplan::new(vec![
            Block::new("a", 2.0, 1.0, 0.0, 0.0),
            Block::new("b", 2.0, 1.0, 0.0, 1.0),
        ])
        .unwrap();
        let r = p.rotated_90();
        assert_eq!(r.width(), p.height());
        assert_eq!(r.height(), p.width());
        assert!((r.covered_area() - p.covered_area()).abs() < 1e-12);
        // Four rotations restore the original.
        let back = r.rotated_90().rotated_90().rotated_90();
        for (x, y) in p.iter().zip(back.iter()) {
            assert_eq!(x.name(), y.name());
            assert!((x.left() - y.left()).abs() < 1e-12);
            assert!((x.bottom() - y.bottom()).abs() < 1e-12);
        }
    }

    #[test]
    fn rotation_moves_top_edge_to_left_edge() {
        let p = crate::library::ev6();
        let r = p.rotated_90();
        // IntReg touched the top edge; after CCW rotation it touches the left.
        let b = r.block("IntReg").unwrap();
        assert!(b.left().abs() < 1e-12, "IntReg left edge {}", b.left());
    }
}
