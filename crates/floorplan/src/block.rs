//! A single named rectangular floorplan unit.

use std::fmt;

/// A named, axis-aligned rectangular functional unit on the die.
///
/// All dimensions are in **meters**, with the origin at the bottom-left
/// corner of the die (HotSpot's `.flp` convention). `x` grows rightward and
/// `y` grows upward.
///
/// # Examples
///
/// ```
/// use hotiron_floorplan::Block;
///
/// let b = Block::new("IntReg", 1.4e-3, 1.7e-3, 8.0e-3, 14.3e-3);
/// assert_eq!(b.name(), "IntReg");
/// assert!((b.area() - 1.4e-3 * 1.7e-3).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    name: String,
    width: f64,
    height: f64,
    left: f64,
    bottom: f64,
}

impl Block {
    /// Creates a new block from its width/height and bottom-left corner.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is not strictly positive and finite, or
    /// if `left`/`bottom` are not finite. Use [`Block::try_new`] for a
    /// fallible constructor.
    pub fn new(name: impl Into<String>, width: f64, height: f64, left: f64, bottom: f64) -> Self {
        Self::try_new(name, width, height, left, bottom).expect("invalid block geometry")
    }

    /// Fallible counterpart of [`Block::new`].
    ///
    /// # Errors
    ///
    /// Returns an error string describing the first invalid field.
    pub fn try_new(
        name: impl Into<String>,
        width: f64,
        height: f64,
        left: f64,
        bottom: f64,
    ) -> Result<Self, String> {
        let name = name.into();
        if name.is_empty() {
            return Err("block name must be non-empty".to_owned());
        }
        if !(width.is_finite() && width > 0.0) {
            return Err(format!("block `{name}`: width must be positive, got {width}"));
        }
        if !(height.is_finite() && height > 0.0) {
            return Err(format!("block `{name}`: height must be positive, got {height}"));
        }
        if !left.is_finite() || !bottom.is_finite() {
            return Err(format!("block `{name}`: corner must be finite"));
        }
        Ok(Self { name, width, height, left, bottom })
    }

    /// The block's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Width along x, in meters.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Height along y, in meters.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// x coordinate of the left edge, in meters.
    pub fn left(&self) -> f64 {
        self.left
    }

    /// y coordinate of the bottom edge, in meters.
    pub fn bottom(&self) -> f64 {
        self.bottom
    }

    /// x coordinate of the right edge, in meters.
    pub fn right(&self) -> f64 {
        self.left + self.width
    }

    /// y coordinate of the top edge, in meters.
    pub fn top(&self) -> f64 {
        self.bottom + self.height
    }

    /// Area in m².
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Center point `(x, y)` in meters.
    pub fn center(&self) -> (f64, f64) {
        (self.left + 0.5 * self.width, self.bottom + 0.5 * self.height)
    }

    /// Area of overlap with another axis-aligned rectangle, in m².
    ///
    /// The rectangle is given as `(left, bottom, right, top)`.
    pub fn overlap_area(&self, left: f64, bottom: f64, right: f64, top: f64) -> f64 {
        let w = (self.right().min(right) - self.left.max(left)).max(0.0);
        let h = (self.top().min(top) - self.bottom.max(bottom)).max(0.0);
        w * h
    }

    /// Area of overlap with another block, in m².
    pub fn overlap_with(&self, other: &Block) -> f64 {
        self.overlap_area(other.left(), other.bottom(), other.right(), other.top())
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\t{:.6e}\t{:.6e}\t{:.6e}\t{:.6e}",
            self.name, self.width, self.height, self.left, self.bottom
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sets_geometry() {
        let b = Block::new("a", 2.0, 3.0, 1.0, 4.0);
        assert_eq!(b.right(), 3.0);
        assert_eq!(b.top(), 7.0);
        assert_eq!(b.area(), 6.0);
        assert_eq!(b.center(), (2.0, 5.5));
    }

    #[test]
    fn try_new_rejects_bad_inputs() {
        assert!(Block::try_new("", 1.0, 1.0, 0.0, 0.0).is_err());
        assert!(Block::try_new("a", 0.0, 1.0, 0.0, 0.0).is_err());
        assert!(Block::try_new("a", 1.0, -1.0, 0.0, 0.0).is_err());
        assert!(Block::try_new("a", f64::NAN, 1.0, 0.0, 0.0).is_err());
        assert!(Block::try_new("a", 1.0, 1.0, f64::INFINITY, 0.0).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid block geometry")]
    fn new_panics_on_bad_input() {
        let _ = Block::new("a", -1.0, 1.0, 0.0, 0.0);
    }

    #[test]
    fn overlap_area_partial_and_disjoint() {
        let b = Block::new("a", 2.0, 2.0, 0.0, 0.0);
        assert_eq!(b.overlap_area(1.0, 1.0, 3.0, 3.0), 1.0);
        assert_eq!(b.overlap_area(5.0, 5.0, 6.0, 6.0), 0.0);
        // Full containment.
        assert_eq!(b.overlap_area(-1.0, -1.0, 3.0, 3.0), 4.0);
    }

    #[test]
    fn overlap_with_blocks() {
        let a = Block::new("a", 2.0, 2.0, 0.0, 0.0);
        let b = Block::new("b", 2.0, 2.0, 1.0, 1.0);
        assert_eq!(a.overlap_with(&b), 1.0);
        assert_eq!(b.overlap_with(&a), 1.0);
    }

    #[test]
    fn display_is_flp_row() {
        let b = Block::new("x", 0.001, 0.002, 0.0, 0.003);
        let s = b.to_string();
        assert!(s.starts_with("x\t"));
        assert!(s.contains("1.000000e-3") || s.contains("1.000000e-03"));
    }
}
