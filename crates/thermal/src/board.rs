//! The board-level intermediate representation (IR).
//!
//! A [`Board`] composes placed [`LayerStack`]s over a shared PCB substrate:
//! each [`Placement`] positions a die stack at an `(x, y)` offset (board
//! frame, origin at the PCB's lower-left corner) with an optional quarter
//! -turn [`Rotation`], and [`ViaField`]s add anisotropic through-plane
//! conductance patches — the exposed-pad via arrays of a QFN-style package —
//! that shunt the die attach straight through the resin-filled board.
//!
//! The IR mirrors the layer-stack design one level up: validation is
//! explicit ([`Board::validate`] returns a typed [`BoardError`] naming the
//! offending placement, via or PCB parameter), and every board has a
//! deterministic FNV-1a [`content hash`](Board::content_hash) extending the
//! stack scheme, which keys the bounded circuit cache.
//!
//! A board with no PCB (`pcb: None`, built via [`Board::solo`]) holds
//! exactly one placement. That degenerate form is how a bare stack is
//! assembled:
//! [`build_circuit_from_stack`](crate::circuit::build_circuit_from_stack),
//! the circuit cache and single-die scenarios all lower through it, so there
//! is one assembler and one cache key for every circuit.
//!
//! # Grid discipline
//!
//! Every conduction plane of a board — each placement layer and the PCB
//! itself — is discretized on one shared `rows × cols` grid (cell *sizes*
//! differ per plane; a 12 mm die and a 100 mm board each spread their own
//! extent over the grid). One resolution for every plane keeps the
//! assembled circuit a uniform stack of `rows × cols` planes, exactly the
//! structure the geometric multigrid hierarchy coarsens; heterogeneous
//! per-placement grids would demote the whole board to plain CG.

use crate::materials::Material;
use crate::stack::{hash_boundary, Boundary, DieGeometry, Fnv, LayerStack, StackError};
use std::error::Error;
use std::fmt;

/// Quarter-turn rotation of a placed stack about its own lower-left corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Rotation {
    /// No rotation.
    #[default]
    R0,
    /// 90° counter-clockwise.
    R90,
    /// 180°.
    R180,
    /// 270° counter-clockwise.
    R270,
}

impl Rotation {
    /// The rotation in degrees.
    pub fn degrees(self) -> u32 {
        match self {
            Rotation::R0 => 0,
            Rotation::R90 => 90,
            Rotation::R180 => 180,
            Rotation::R270 => 270,
        }
    }

    /// Parses a quarter-turn angle in degrees.
    pub fn from_degrees(d: u32) -> Option<Self> {
        Some(match d {
            0 => Rotation::R0,
            90 => Rotation::R90,
            180 => Rotation::R180,
            270 => Rotation::R270,
            _ => return None,
        })
    }

    /// Footprint of a `w × h` die under this rotation.
    pub fn footprint(self, w: f64, h: f64) -> (f64, f64) {
        match self {
            Rotation::R0 | Rotation::R180 => (w, h),
            Rotation::R90 | Rotation::R270 => (h, w),
        }
    }

    /// Maps a die-local point (origin at the die's lower-left corner) into
    /// footprint coordinates (origin at the footprint's lower-left corner).
    pub fn apply(self, x: f64, y: f64, w: f64, h: f64) -> (f64, f64) {
        match self {
            Rotation::R0 => (x, y),
            Rotation::R90 => (h - y, x),
            Rotation::R180 => (w - x, h - y),
            Rotation::R270 => (y, w - x),
        }
    }

    fn hash_tag(self) -> u8 {
        match self {
            Rotation::R0 => 0,
            Rotation::R90 => 1,
            Rotation::R180 => 2,
            Rotation::R270 => 3,
        }
    }
}

/// The shared PCB substrate every placement couples through.
#[derive(Debug, Clone, PartialEq)]
pub struct PcbSpec {
    /// Board width, m (x extent).
    pub width: f64,
    /// Board height, m (y extent).
    pub height: f64,
    /// Board thickness, m.
    pub thickness: f64,
    /// Board bulk material (typically [`crate::materials::PCB`]).
    pub material: Material,
    /// Boundary under the PCB back face: `Insulated` or `Lumped` (natural
    /// or forced convection off the board back). An oil film on the board
    /// back is rejected by [`Board::validate`].
    pub bottom: Boundary,
}

/// One die stack placed on the board.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Placement designator (`u1`, `cpu`, …), used in reports and errors.
    pub name: String,
    /// Die geometry of this stack.
    pub die: DieGeometry,
    /// The stack itself. When the board has a PCB the stack's bottom
    /// boundary must be `Insulated` — heat leaves through the board.
    pub stack: LayerStack,
    /// Board-frame x of the footprint's lower-left corner, m.
    pub x: f64,
    /// Board-frame y of the footprint's lower-left corner, m.
    pub y: f64,
    /// Quarter-turn rotation of the footprint.
    pub rotation: Rotation,
}

impl Placement {
    /// Footprint extent on the board, m.
    pub fn footprint(&self) -> (f64, f64) {
        self.rotation.footprint(self.die.width, self.die.height)
    }
}

/// A rectangular through-plane conductance patch: a thermal-via array
/// (e.g. the exposed-pad vias under a QFN) shunting the die attach through
/// the PCB. Purely anisotropic — vias add vertical conductance only, never
/// lateral spreading.
#[derive(Debug, Clone, PartialEq)]
pub struct ViaField {
    /// Field designator, used in errors and reports.
    pub name: String,
    /// Board-frame x of the patch's lower-left corner, m.
    pub x: f64,
    /// Board-frame y of the patch's lower-left corner, m.
    pub y: f64,
    /// Patch width, m.
    pub width: f64,
    /// Patch height, m.
    pub height: f64,
    /// Through-plane conductance per unit area, W/(K·m²), of the via array
    /// (copper fill fraction × k_cu / t_pcb for a plated-via field).
    pub conductance_per_area: f64,
}

impl ViaField {
    /// Overlap area between this patch and an axis-aligned rectangle
    /// `[x0, x1] × [y0, y1]`, m².
    pub fn overlap_area(&self, x0: f64, x1: f64, y0: f64, y1: f64) -> f64 {
        let w = (x1.min(self.x + self.width) - x0.max(self.x)).max(0.0);
        let h = (y1.min(self.y + self.height) - y0.max(self.y)).max(0.0);
        w * h
    }
}

/// A multi-package board: placed stacks over an optional shared PCB, plus
/// via fields. See the module docs for the grid discipline.
#[derive(Debug, Clone, PartialEq)]
pub struct Board {
    /// Grid rows shared by every conduction plane.
    pub rows: usize,
    /// Grid columns shared by every conduction plane.
    pub cols: usize,
    /// The PCB substrate; `None` is the degenerate free-standing form
    /// (exactly one placement, no coupling plane).
    pub pcb: Option<PcbSpec>,
    /// Placed stacks, in placement order (which fixes node numbering).
    pub placements: Vec<Placement>,
    /// Via fields over the PCB.
    pub vias: Vec<ViaField>,
}

impl Board {
    /// A board with a PCB and no placements yet.
    pub fn new(rows: usize, cols: usize, pcb: PcbSpec) -> Self {
        Self { rows, cols, pcb: Some(pcb), placements: Vec::new(), vias: Vec::new() }
    }

    /// The degenerate single-package board a bare stack assembles as: no
    /// PCB, one placement of `stack` over `die` at the origin, unrotated,
    /// under a fixed name. The name is fixed so that the
    /// [`content_hash`](Self::content_hash) — the circuit cache key —
    /// depends only on the die, the grid and the stack.
    pub fn solo(rows: usize, cols: usize, die: DieGeometry, stack: LayerStack) -> Self {
        let placement =
            Placement { name: "die".into(), die, stack, x: 0.0, y: 0.0, rotation: Rotation::R0 };
        Self { rows, cols, pcb: None, placements: vec![placement], vias: Vec::new() }
    }

    /// Adds a placement (builder style).
    #[must_use]
    pub fn with_placement(mut self, p: Placement) -> Self {
        self.placements.push(p);
        self
    }

    /// Adds a via field (builder style).
    #[must_use]
    pub fn with_via(mut self, v: ViaField) -> Self {
        self.vias.push(v);
        self
    }

    /// Checks the board, returning the first offending placement, via or
    /// PCB parameter.
    ///
    /// # Errors
    ///
    /// Any [`BoardError`] variant except `GridMismatch` (which only arises
    /// at assembly time, against concrete grid mappings).
    pub fn validate(&self) -> Result<(), BoardError> {
        if self.placements.is_empty() {
            return Err(BoardError::NoPlacements);
        }
        if self.rows == 0 || self.cols == 0 {
            return Err(BoardError::BadGrid {
                reason: format!(
                    "grid {}x{} must be positive in both dimensions",
                    self.rows, self.cols
                ),
            });
        }
        for (i, p) in self.placements.iter().enumerate() {
            if p.name.is_empty() {
                return Err(BoardError::BadPlacement {
                    placement: format!("#{i}"),
                    reason: "placement name must be non-empty".into(),
                });
            }
            if self.placements[i + 1..].iter().any(|q| q.name == p.name) {
                return Err(BoardError::DuplicatePlacement { placement: p.name.clone() });
            }
            // On a PCB board a fully insulated stack is legal — its heat
            // leaves through the board coupling — so validate against a
            // stand-in lumped bottom; the real bottom must be insulated and
            // is checked below. Free-standing placements validate as-is.
            if self.pcb.is_some() {
                let mut probe = p.stack.clone();
                probe.bottom = Boundary::Lumped { r_total: 1.0, c_total: 0.0 };
                probe.validate(p.die)
            } else {
                p.stack.validate(p.die)
            }
            .map_err(|source| BoardError::InvalidStack { placement: p.name.clone(), source })?;
            for (what, v) in [("x", p.x), ("y", p.y)] {
                if !v.is_finite() || v < 0.0 {
                    return Err(BoardError::BadPlacement {
                        placement: p.name.clone(),
                        reason: format!("offset {what} = {v} must be finite and non-negative"),
                    });
                }
            }
        }
        let Some(pcb) = &self.pcb else {
            if self.placements.len() != 1 {
                return Err(BoardError::UncoupledPlacements { count: self.placements.len() });
            }
            if let Some(v) = self.vias.first() {
                return Err(BoardError::BadVia {
                    via: v.name.clone(),
                    reason: "via fields require a PCB to conduct through".into(),
                });
            }
            return Ok(());
        };
        for (what, v) in
            [("width", pcb.width), ("height", pcb.height), ("thickness", pcb.thickness)]
        {
            if !(v.is_finite() && v > 0.0) {
                return Err(BoardError::BadPcb { reason: format!("{what} must be positive") });
            }
        }
        match &pcb.bottom {
            Boundary::Insulated => {}
            Boundary::Lumped { r_total, c_total } => {
                if !(r_total.is_finite() && *r_total > 0.0) {
                    return Err(BoardError::BadPcb {
                        reason: format!("lumped resistance {r_total} must be positive"),
                    });
                }
                if !(c_total.is_finite() && *c_total >= 0.0) {
                    return Err(BoardError::BadPcb {
                        reason: format!("lumped capacitance {c_total} must be non-negative"),
                    });
                }
            }
            Boundary::OilFilm(_) => {
                return Err(BoardError::BadPcb {
                    reason: "oil film on the PCB back is not supported; use a lumped film".into(),
                });
            }
        }
        for p in &self.placements {
            if p.stack.bottom != Boundary::Insulated {
                return Err(BoardError::PlacementBottomNotInsulated { placement: p.name.clone() });
            }
            let (fw, fh) = p.footprint();
            if p.x + fw > pcb.width + 1e-12 || p.y + fh > pcb.height + 1e-12 {
                return Err(BoardError::PlacementOutOfBounds {
                    placement: p.name.clone(),
                    x: p.x,
                    y: p.y,
                    footprint_w: fw,
                    footprint_h: fh,
                    board_w: pcb.width,
                    board_h: pcb.height,
                });
            }
        }
        for (i, a) in self.placements.iter().enumerate() {
            let (aw, ah) = a.footprint();
            for b in &self.placements[i + 1..] {
                let (bw, bh) = b.footprint();
                let overlap_w = (a.x + aw).min(b.x + bw) - a.x.max(b.x);
                let overlap_h = (a.y + ah).min(b.y + bh) - a.y.max(b.y);
                if overlap_w > 1e-12 && overlap_h > 1e-12 {
                    return Err(BoardError::PlacementsOverlap {
                        first: a.name.clone(),
                        second: b.name.clone(),
                    });
                }
            }
        }
        for v in &self.vias {
            if v.name.is_empty() {
                return Err(BoardError::BadVia {
                    via: "<unnamed>".into(),
                    reason: "via field name must be non-empty".into(),
                });
            }
            for (what, val) in [("width", v.width), ("height", v.height)] {
                if !(val.is_finite() && val > 0.0) {
                    return Err(BoardError::BadVia {
                        via: v.name.clone(),
                        reason: format!("{what} must be positive"),
                    });
                }
            }
            if !(v.conductance_per_area.is_finite() && v.conductance_per_area >= 0.0) {
                return Err(BoardError::BadVia {
                    via: v.name.clone(),
                    reason: format!(
                        "conductance per area {} must be finite and non-negative",
                        v.conductance_per_area
                    ),
                });
            }
            if !v.x.is_finite()
                || !v.y.is_finite()
                || v.x < 0.0
                || v.y < 0.0
                || v.x + v.width > pcb.width + 1e-12
                || v.y + v.height > pcb.height + 1e-12
            {
                return Err(BoardError::BadVia {
                    via: v.name.clone(),
                    reason: format!(
                        "patch [{}, {}] + {}x{} m lies outside the {}x{} m board",
                        v.x, v.y, v.width, v.height, pcb.width, pcb.height
                    ),
                });
            }
        }
        let pcb_cooled = matches!(pcb.bottom, Boundary::Lumped { .. });
        let any_top = self.placements.iter().any(|p| p.stack.top != Boundary::Insulated);
        if !pcb_cooled && !any_top {
            return Err(BoardError::NoAmbientPath);
        }
        Ok(())
    }

    /// Deterministic FNV-1a hash over the board's physical content,
    /// extending [`LayerStack::content_hash`]: grid resolution, PCB
    /// geometry/material/boundary, each placement (name, die, stack hash,
    /// offset, rotation) and each via field. Combined with nothing else it
    /// keys the circuit cache — the grid is already part of the board.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.str("board");
        h.usize(self.rows);
        h.usize(self.cols);
        match &self.pcb {
            None => h.u8(0),
            Some(p) => {
                h.u8(1);
                h.f64(p.width);
                h.f64(p.height);
                h.f64(p.thickness);
                h.str(p.material.name());
                h.f64(p.material.conductivity());
                h.f64(p.material.volumetric_heat_capacity());
                hash_boundary(&mut h, &p.bottom);
            }
        }
        h.usize(self.placements.len());
        for p in &self.placements {
            h.str(&p.name);
            h.f64(p.die.width);
            h.f64(p.die.height);
            h.f64(p.die.thickness);
            h.u64(p.stack.content_hash());
            h.f64(p.x);
            h.f64(p.y);
            h.u8(p.rotation.hash_tag());
        }
        h.usize(self.vias.len());
        for v in &self.vias {
            h.str(&v.name);
            h.f64(v.x);
            h.f64(v.y);
            h.f64(v.width);
            h.f64(v.height);
            h.f64(v.conductance_per_area);
        }
        h.finish()
    }
}

/// Typed validation error for a board. Every variant names the offending
/// placement, via field or PCB parameter.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BoardError {
    /// The board has no placements.
    NoPlacements,
    /// The shared grid resolution is unusable.
    BadGrid {
        /// What is wrong with it.
        reason: String,
    },
    /// A placement has a non-physical parameter (offset, name).
    BadPlacement {
        /// Name (or `#index`) of the offending placement.
        placement: String,
        /// What is wrong with it.
        reason: String,
    },
    /// Two placements share one designator.
    DuplicatePlacement {
        /// The duplicated name.
        placement: String,
    },
    /// A placement's stack failed its own validation.
    InvalidStack {
        /// Name of the offending placement.
        placement: String,
        /// The underlying stack error (naming the offending layer).
        source: StackError,
    },
    /// Multiple placements but no PCB plane to couple them.
    UncoupledPlacements {
        /// How many placements the board has.
        count: usize,
    },
    /// The PCB substrate has a non-physical parameter.
    BadPcb {
        /// What is wrong with it.
        reason: String,
    },
    /// A placed stack's bottom boundary is not insulated although the board
    /// has a PCB (heat must leave through the board, not around it).
    PlacementBottomNotInsulated {
        /// Name of the offending placement.
        placement: String,
    },
    /// A placement's footprint extends past the board edge.
    PlacementOutOfBounds {
        /// Name of the offending placement.
        placement: String,
        /// Footprint lower-left x, m.
        x: f64,
        /// Footprint lower-left y, m.
        y: f64,
        /// Footprint width (after rotation), m.
        footprint_w: f64,
        /// Footprint height (after rotation), m.
        footprint_h: f64,
        /// Board width, m.
        board_w: f64,
        /// Board height, m.
        board_h: f64,
    },
    /// Two placement footprints overlap.
    PlacementsOverlap {
        /// First offending placement.
        first: String,
        /// Second offending placement.
        second: String,
    },
    /// A via field has a non-physical parameter or lies off the board.
    BadVia {
        /// Name of the offending via field.
        via: String,
        /// What is wrong with it.
        reason: String,
    },
    /// Nothing on the board reaches ambient (PCB back insulated and every
    /// placement top insulated).
    NoAmbientPath,
    /// A grid mapping handed to the assembler disagrees with the board's
    /// shared resolution.
    GridMismatch {
        /// Name of the offending placement.
        placement: String,
        /// The board's shared rows.
        expected_rows: usize,
        /// The board's shared cols.
        expected_cols: usize,
        /// The mapping's rows.
        rows: usize,
        /// The mapping's cols.
        cols: usize,
    },
}

impl fmt::Display for BoardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoPlacements => write!(f, "board has no placements"),
            Self::BadGrid { reason } => write!(f, "invalid board grid: {reason}"),
            Self::BadPlacement { placement, reason } => {
                write!(f, "placement `{placement}`: {reason}")
            }
            Self::DuplicatePlacement { placement } => {
                write!(f, "duplicate placement name `{placement}`")
            }
            Self::InvalidStack { placement, source } => {
                write!(f, "placement `{placement}`: {source}")
            }
            Self::UncoupledPlacements { count } => write!(
                f,
                "{count} placements but no PCB plane to couple them; \
                 give the board a PCB or use a single free-standing placement"
            ),
            Self::BadPcb { reason } => write!(f, "invalid PCB: {reason}"),
            Self::PlacementBottomNotInsulated { placement } => write!(
                f,
                "placement `{placement}`: stack bottom must be insulated when the board \
                 has a PCB (heat leaves through the board)"
            ),
            Self::PlacementOutOfBounds {
                placement,
                x,
                y,
                footprint_w,
                footprint_h,
                board_w,
                board_h,
            } => write!(
                f,
                "placement `{placement}` at ({x}, {y}) with footprint {footprint_w}x{footprint_h} m \
                 extends past the {board_w}x{board_h} m board"
            ),
            Self::PlacementsOverlap { first, second } => {
                write!(f, "placements `{first}` and `{second}` overlap")
            }
            Self::BadVia { via, reason } => write!(f, "via field `{via}`: {reason}"),
            Self::NoAmbientPath => write!(
                f,
                "board has no path to ambient: PCB back is insulated and every placement \
                 top is insulated"
            ),
            Self::GridMismatch { placement, expected_rows, expected_cols, rows, cols } => write!(
                f,
                "placement `{placement}`: grid mapping is {rows}x{cols} but the board's \
                 shared grid is {expected_rows}x{expected_cols}"
            ),
        }
    }
}

impl Error for BoardError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::InvalidStack { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materials::{PCB, SILICON};
    use crate::stack::Layer;

    fn die12() -> DieGeometry {
        DieGeometry { width: 0.012, height: 0.012, thickness: 0.5e-3 }
    }

    fn placed(name: &str, x: f64, y: f64) -> Placement {
        let stack = LayerStack::new(vec![Layer::new("silicon", SILICON, 0.5e-3)], 0)
            .with_top(Boundary::Lumped { r_total: 2.0, c_total: 30.0 });
        Placement { name: name.into(), die: die12(), stack, x, y, rotation: Rotation::R0 }
    }

    fn pcb_spec() -> PcbSpec {
        PcbSpec {
            width: 0.08,
            height: 0.06,
            thickness: 1.6e-3,
            material: PCB,
            bottom: Boundary::Lumped { r_total: 4.0, c_total: 200.0 },
        }
    }

    fn duo() -> Board {
        Board::new(16, 16, pcb_spec())
            .with_placement(insulated_bottom(placed("u1", 0.01, 0.01)))
            .with_placement(insulated_bottom(placed("u2", 0.05, 0.03)))
    }

    fn insulated_bottom(p: Placement) -> Placement {
        // placed() already leaves the bottom insulated; named for clarity.
        p
    }

    #[test]
    fn valid_board_passes() {
        assert_eq!(duo().validate(), Ok(()));
    }

    #[test]
    fn free_standing_requires_one_placement() {
        let b = Board {
            rows: 8,
            cols: 8,
            pcb: None,
            placements: vec![placed("a", 0.0, 0.0), placed("b", 0.0, 0.0)],
            vias: vec![],
        };
        let e = b.validate().unwrap_err();
        assert!(matches!(e, BoardError::UncoupledPlacements { count: 2 }));
        assert!(e.to_string().contains("no PCB"), "{e}");
    }

    #[test]
    fn out_of_bounds_placement_is_named() {
        let b = Board::new(8, 8, pcb_spec())
            .with_placement(insulated_bottom(placed("edge", 0.075, 0.01)));
        let e = b.validate().unwrap_err();
        assert!(matches!(e, BoardError::PlacementOutOfBounds { .. }));
        assert!(e.to_string().contains("edge"), "{e}");
    }

    #[test]
    fn rotation_moves_the_footprint_bound() {
        // A 12x4 mm die at x = 70 mm fits R0 (ends at 82 > 80? no: 70+12=82
        // exceeds) — use a die that fits only when rotated.
        let die = DieGeometry { width: 0.012, height: 0.004, thickness: 0.5e-3 };
        let stack = LayerStack::new(vec![Layer::new("silicon", SILICON, 0.5e-3)], 0)
            .with_top(Boundary::Lumped { r_total: 2.0, c_total: 30.0 });
        let mut p =
            Placement { name: "tall".into(), die, stack, x: 0.07, y: 0.01, rotation: Rotation::R0 };
        let b = |p: Placement| Board::new(8, 8, pcb_spec()).with_placement(p);
        assert!(matches!(b(p.clone()).validate(), Err(BoardError::PlacementOutOfBounds { .. })));
        p.rotation = Rotation::R90;
        assert_eq!(b(p).validate(), Ok(()));
    }

    #[test]
    fn overlap_names_both_placements() {
        let b = Board::new(8, 8, pcb_spec())
            .with_placement(placed("u1", 0.01, 0.01))
            .with_placement(placed("u2", 0.015, 0.015));
        let e = b.validate().unwrap_err();
        match &e {
            BoardError::PlacementsOverlap { first, second } => {
                assert_eq!((first.as_str(), second.as_str()), ("u1", "u2"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(e.to_string().contains("u1") && e.to_string().contains("u2"), "{e}");
    }

    #[test]
    fn pcb_board_requires_insulated_placement_bottoms() {
        let mut p = placed("u1", 0.01, 0.01);
        p.stack = p.stack.with_bottom(Boundary::Lumped { r_total: 1.0, c_total: 1.0 });
        let b = Board::new(8, 8, pcb_spec()).with_placement(p);
        let e = b.validate().unwrap_err();
        assert!(matches!(e, BoardError::PlacementBottomNotInsulated { .. }));
        assert!(e.to_string().contains("u1"), "{e}");
    }

    #[test]
    fn invalid_stack_carries_source() {
        let mut p = placed("u9", 0.01, 0.01);
        p.stack.layers[0].thickness = -1.0;
        let b = Board::new(8, 8, pcb_spec()).with_placement(p);
        let e = b.validate().unwrap_err();
        assert!(matches!(e, BoardError::InvalidStack { .. }));
        assert!(e.to_string().contains("u9"), "names the placement: {e}");
        assert!(e.to_string().contains("silicon"), "names the layer: {e}");
        assert!(Error::source(&e).is_some(), "source() exposes the StackError");
    }

    #[test]
    fn via_outside_board_is_rejected() {
        let b = duo().with_via(ViaField {
            name: "pad9".into(),
            x: 0.079,
            y: 0.0,
            width: 0.01,
            height: 0.01,
            conductance_per_area: 1e4,
        });
        let e = b.validate().unwrap_err();
        assert!(matches!(e, BoardError::BadVia { .. }));
        assert!(e.to_string().contains("pad9"), "{e}");
    }

    #[test]
    fn fully_insulated_board_is_rejected() {
        let mut b = duo();
        b.pcb.as_mut().unwrap().bottom = Boundary::Insulated;
        for p in &mut b.placements {
            p.stack.top = Boundary::Insulated;
        }
        assert_eq!(b.validate(), Err(BoardError::NoAmbientPath));
    }

    #[test]
    fn oil_on_pcb_back_is_rejected() {
        let mut b = duo();
        b.pcb.as_mut().unwrap().bottom = Boundary::OilFilm(crate::stack::OilFilm {
            fluid: crate::fluid::MINERAL_OIL,
            velocity: 1.0,
            direction: crate::convection::FlowDirection::LeftToRight,
            local_h: false,
            local_boundary_layer: false,
        });
        let e = b.validate().unwrap_err();
        assert!(matches!(e, BoardError::BadPcb { .. }));
        assert!(e.to_string().contains("oil film"), "{e}");
    }

    #[test]
    fn content_hash_is_stable_and_sensitive() {
        let a = duo();
        assert_eq!(a.content_hash(), duo().content_hash());
        // Offset moves a package: different hash.
        let mut b = duo();
        b.placements[1].x += 1e-3;
        assert_ne!(a.content_hash(), b.content_hash());
        // Rotation matters.
        let mut c = duo();
        c.placements[0].rotation = Rotation::R90;
        assert_ne!(a.content_hash(), c.content_hash());
        // A via field matters, and so does its conductance.
        let v = ViaField {
            name: "pad1".into(),
            x: 0.01,
            y: 0.01,
            width: 0.008,
            height: 0.008,
            conductance_per_area: 4e4,
        };
        let d = duo().with_via(v.clone());
        assert_ne!(a.content_hash(), d.content_hash());
        let mut v2 = v;
        v2.conductance_per_area = 5e4;
        let e = duo().with_via(v2);
        assert_ne!(d.content_hash(), e.content_hash());
        // PCB thickness matters.
        let mut f = duo();
        f.pcb.as_mut().unwrap().thickness = 1.0e-3;
        assert_ne!(a.content_hash(), f.content_hash());
    }

    #[test]
    fn rotation_apply_round_trips_quarter_turns() {
        let (w, h) = (0.012, 0.004);
        // R90 then R270 of the rotated frame is identity.
        let (x, y) = (0.003, 0.001);
        let (rx, ry) = Rotation::R90.apply(x, y, w, h);
        let (fw, fh) = Rotation::R90.footprint(w, h);
        let (bx, by) = Rotation::R270.apply(rx, ry, fw, fh);
        assert!((bx - x).abs() < 1e-15 && (by - y).abs() < 1e-15, "({bx}, {by})");
        assert_eq!(Rotation::from_degrees(180), Some(Rotation::R180));
        assert_eq!(Rotation::from_degrees(45), None);
        assert_eq!(Rotation::R270.degrees(), 270);
    }
}
