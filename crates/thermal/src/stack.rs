//! The layer-stack intermediate representation (IR).
//!
//! A [`LayerStack`] is the open, composable description of everything the
//! circuit assemblers consume: an ordered bottom→top list of conduction
//! [`Layer`]s (one of which is the silicon die) bracketed by two typed
//! [`Boundary`] attachments. The closed [`Package`](crate::package::Package)
//! enum *lowers* into this IR via
//! [`Package::to_stack`](crate::package::Package::to_stack); scenario files,
//! fuzzers and user code can build stacks directly and express
//! configurations the enum cannot (bare-die forced air, oil washing the
//! spreader top, extra plates, ...).
//!
//! Validation is explicit: [`LayerStack::validate`] returns a typed
//! [`StackError`] naming the offending layer or boundary instead of the
//! assembly-time `panic!`s the package enum used to rely on.
//!
//! Every stack also has a deterministic [`content hash`](LayerStack::content_hash)
//! over its physical content (names, material properties, thicknesses,
//! plate sides, boundaries). Combined with the die geometry and grid
//! resolution it keys the circuit cache
//! ([`CircuitCache`](crate::circuit::CircuitCache)),
//! so repeated solves over the same stack share one assembled circuit — and
//! with it the lazily built multigrid hierarchy — across experiments.

use crate::convection::FlowDirection;
use crate::fluid::Fluid;
use crate::materials::Material;
use std::error::Error;
use std::fmt;

/// Geometry of the die a stack is assembled around.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieGeometry {
    /// Die width, m.
    pub width: f64,
    /// Die height, m.
    pub height: f64,
    /// Die (bulk silicon) thickness, m.
    pub thickness: f64,
}

/// One conduction layer of a stack.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Layer name, used in reports, node-kind introspection and errors.
    pub name: String,
    /// Layer material.
    pub material: Material,
    /// Layer thickness, m.
    pub thickness: f64,
    /// `None`: the layer covers exactly the die footprint. `Some(side)`:
    /// a square plate of this side length with a peripheral ring node
    /// (spreader, heatsink, substrate, PCB).
    pub side: Option<f64>,
}

impl Layer {
    /// A die-footprint layer.
    pub fn new(name: impl Into<String>, material: Material, thickness: f64) -> Self {
        Self { name: name.into(), material, thickness, side: None }
    }

    /// An oversized square plate layer.
    pub fn plate(name: impl Into<String>, material: Material, thickness: f64, side: f64) -> Self {
        Self { name: name.into(), material, thickness, side: Some(side) }
    }
}

/// A distributed laminar coolant film on an exposed stack surface
/// (the paper's Eqns 1–4, 7–8).
#[derive(Debug, Clone, PartialEq)]
pub struct OilFilm {
    /// The coolant.
    pub fluid: Fluid,
    /// Bulk flow velocity, m/s.
    pub velocity: f64,
    /// Flow direction across the surface.
    pub direction: FlowDirection,
    /// Position-dependent `h(x)` of Eqn 8 (true) or the uniform average
    /// `h_L` of Eqn 2 (false).
    pub local_h: bool,
    /// Local boundary-layer thickness `δt(x)` for the film capacitance
    /// (true) or the trailing-edge value of Eqn 4 (false).
    pub local_boundary_layer: bool,
}

/// Boundary attached above the top layer or below the bottom layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Boundary {
    /// Adiabatic surface.
    Insulated,
    /// Lumped coolant (forced-air heatsink, natural convection at a PCB):
    /// total resistance (K/W) and capacitance (J/K), half-split around one
    /// coolant node.
    Lumped {
        /// Total surface-to-ambient resistance, K/W.
        r_total: f64,
        /// Lumped coolant capacitance, J/K.
        c_total: f64,
    },
    /// Distributed laminar film, one oil node per surface cell.
    OilFilm(OilFilm),
}

impl Boundary {
    fn describe(&self) -> &'static str {
        match self {
            Boundary::Insulated => "insulated",
            Boundary::Lumped { .. } => "lumped",
            Boundary::OilFilm(_) => "oil film",
        }
    }
}

/// Which end of the stack a boundary error refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundarySide {
    /// The boundary above the top layer.
    Top,
    /// The boundary below the bottom layer.
    Bottom,
}

impl fmt::Display for BoundarySide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BoundarySide::Top => "top",
            BoundarySide::Bottom => "bottom",
        })
    }
}

/// Typed validation error for a layer stack. Every variant names the
/// offending layer or boundary so CLI surfaces (`figures`, `hotiron-verify`)
/// can report actionable messages instead of panicking.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StackError {
    /// The stack has no conduction layers.
    EmptyStack,
    /// `si_index` does not point inside `layers`.
    SiliconIndexOutOfRange {
        /// The claimed silicon index.
        si_index: usize,
        /// Number of layers in the stack.
        layers: usize,
    },
    /// The die geometry itself is unusable.
    BadDie {
        /// What is wrong with it.
        reason: String,
    },
    /// A layer has a non-physical property.
    BadLayer {
        /// Name of the offending layer.
        layer: String,
        /// What is wrong with it.
        reason: String,
    },
    /// An oversized plate is smaller than the die it must cover.
    PlateSmallerThanDie {
        /// Name of the offending plate layer.
        layer: String,
        /// The plate's side, m.
        side: f64,
        /// The die's larger extent, m.
        die_extent: f64,
    },
    /// A boundary attachment has a non-physical parameter.
    BadBoundary {
        /// Which end of the stack.
        side: BoundarySide,
        /// What is wrong with it.
        reason: String,
    },
    /// A package requested a cooling combination that cannot be lowered
    /// (e.g. `PcbCooling::Oil` on an AIR-SINK package, which has no oil
    /// flow to wash the PCB with).
    IncompatibleCooling {
        /// Why the combination is invalid.
        reason: String,
    },
}

impl fmt::Display for StackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyStack => write!(f, "layer stack has no conduction layers"),
            Self::SiliconIndexOutOfRange { si_index, layers } => {
                write!(f, "silicon index {si_index} out of range for {layers} layer(s)")
            }
            Self::BadDie { reason } => write!(f, "invalid die geometry: {reason}"),
            Self::BadLayer { layer, reason } => write!(f, "layer `{layer}`: {reason}"),
            Self::PlateSmallerThanDie { layer, side, die_extent } => write!(
                f,
                "plate `{layer}` ({side} m) is smaller than the die ({die_extent} m); \
                 oversized plates must cover the die"
            ),
            Self::BadBoundary { side, reason } => write!(f, "{side} boundary: {reason}"),
            Self::IncompatibleCooling { reason } => write!(f, "incompatible cooling: {reason}"),
        }
    }
}

impl Error for StackError {}

/// An ordered bottom→top stack of conduction layers bracketed by two
/// boundary attachments — the IR every assembler consumes.
///
/// # Examples
///
/// A bare die losing heat through a lumped convection path — a stack the
/// closed `Package` enum could not express:
///
/// ```
/// use hotiron_thermal::materials::SILICON;
/// use hotiron_thermal::stack::{Boundary, DieGeometry, Layer, LayerStack};
///
/// let stack = LayerStack::new(vec![Layer::new("silicon", SILICON, 0.5e-3)], 0)
///     .with_top(Boundary::Lumped { r_total: 2.0, c_total: 50.0 });
/// let die = DieGeometry { width: 0.02, height: 0.02, thickness: 0.5e-3 };
/// assert!(stack.validate(die).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStack {
    /// Conduction layers, bottom→top.
    pub layers: Vec<Layer>,
    /// Index of the silicon (power-dissipating) layer in `layers`.
    pub si_index: usize,
    /// Boundary below `layers[0]`.
    pub bottom: Boundary,
    /// Boundary above `layers[len - 1]`.
    pub top: Boundary,
}

impl LayerStack {
    /// Creates a stack with insulated boundaries.
    pub fn new(layers: Vec<Layer>, si_index: usize) -> Self {
        Self { layers, si_index, bottom: Boundary::Insulated, top: Boundary::Insulated }
    }

    /// Sets the boundary above the top layer.
    pub fn with_top(mut self, top: Boundary) -> Self {
        self.top = top;
        self
    }

    /// Sets the boundary below the bottom layer.
    pub fn with_bottom(mut self, bottom: Boundary) -> Self {
        self.bottom = bottom;
        self
    }

    /// The silicon layer.
    ///
    /// # Panics
    ///
    /// Panics if `si_index` is out of range (a stack that failed
    /// [`validate`](Self::validate)).
    pub fn silicon(&self) -> &Layer {
        &self.layers[self.si_index]
    }

    /// Checks the stack against a die geometry, returning the first
    /// offending layer or boundary.
    ///
    /// # Errors
    ///
    /// Any [`StackError`] variant except `IncompatibleCooling` (which only
    /// arises while lowering a `Package`).
    pub fn validate(&self, die: DieGeometry) -> Result<(), StackError> {
        if self.layers.is_empty() {
            return Err(StackError::EmptyStack);
        }
        if self.si_index >= self.layers.len() {
            return Err(StackError::SiliconIndexOutOfRange {
                si_index: self.si_index,
                layers: self.layers.len(),
            });
        }
        for (what, v) in
            [("width", die.width), ("height", die.height), ("thickness", die.thickness)]
        {
            if !(v.is_finite() && v > 0.0) {
                return Err(StackError::BadDie { reason: format!("{what} must be positive") });
            }
        }
        let die_extent = die.width.max(die.height);
        for layer in &self.layers {
            if layer.name.is_empty() {
                return Err(StackError::BadLayer {
                    layer: "<unnamed>".into(),
                    reason: "layer name must be non-empty".into(),
                });
            }
            if !(layer.thickness.is_finite() && layer.thickness > 0.0) {
                return Err(StackError::BadLayer {
                    layer: layer.name.clone(),
                    reason: format!("thickness {} must be positive", layer.thickness),
                });
            }
            if let Some(side) = layer.side {
                if !(side.is_finite() && side > 0.0) {
                    return Err(StackError::BadLayer {
                        layer: layer.name.clone(),
                        reason: format!("plate side {side} must be positive"),
                    });
                }
                if side < die_extent {
                    return Err(StackError::PlateSmallerThanDie {
                        layer: layer.name.clone(),
                        side,
                        die_extent,
                    });
                }
            }
        }
        for (side, boundary) in
            [(BoundarySide::Top, &self.top), (BoundarySide::Bottom, &self.bottom)]
        {
            match boundary {
                Boundary::Insulated => {}
                Boundary::Lumped { r_total, c_total } => {
                    if !(r_total.is_finite() && *r_total > 0.0) {
                        return Err(StackError::BadBoundary {
                            side,
                            reason: format!("lumped resistance {r_total} must be positive"),
                        });
                    }
                    if !(c_total.is_finite() && *c_total >= 0.0) {
                        return Err(StackError::BadBoundary {
                            side,
                            reason: format!("lumped capacitance {c_total} must be non-negative"),
                        });
                    }
                }
                Boundary::OilFilm(film) => {
                    if !(film.velocity.is_finite() && film.velocity > 0.0) {
                        return Err(StackError::BadBoundary {
                            side,
                            reason: format!("oil velocity {} must be positive", film.velocity),
                        });
                    }
                }
            }
        }
        if matches!(self.top, Boundary::Insulated) && matches!(self.bottom, Boundary::Insulated) {
            return Err(StackError::BadBoundary {
                side: BoundarySide::Top,
                reason: format!(
                    "both boundaries are insulated (top {}, bottom {}); \
                     the stack has no path to ambient",
                    self.top.describe(),
                    self.bottom.describe()
                ),
            });
        }
        Ok(())
    }

    /// Deterministic FNV-1a hash over the stack's physical content: layer
    /// names, material properties (bit-exact), thicknesses, plate sides,
    /// silicon index and both boundaries. Two stacks that assemble to
    /// identical circuits over the same die and grid hash identically; any
    /// physical difference changes the hash.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.usize(self.layers.len());
        for layer in &self.layers {
            h.str(&layer.name);
            h.str(layer.material.name());
            h.f64(layer.material.conductivity());
            h.f64(layer.material.volumetric_heat_capacity());
            h.f64(layer.thickness);
            match layer.side {
                None => h.u8(0),
                Some(s) => {
                    h.u8(1);
                    h.f64(s);
                }
            }
        }
        h.usize(self.si_index);
        hash_boundary(&mut h, &self.bottom);
        hash_boundary(&mut h, &self.top);
        h.finish()
    }
}

pub(crate) fn hash_boundary(h: &mut Fnv, b: &Boundary) {
    match b {
        Boundary::Insulated => h.u8(0),
        Boundary::Lumped { r_total, c_total } => {
            h.u8(1);
            h.f64(*r_total);
            h.f64(*c_total);
        }
        Boundary::OilFilm(film) => {
            h.u8(2);
            h.str(film.fluid.name());
            h.f64(film.fluid.conductivity());
            h.f64(film.fluid.density());
            h.f64(film.fluid.specific_heat());
            h.f64(film.fluid.dynamic_viscosity());
            h.f64(film.velocity);
            h.u8(match film.direction {
                FlowDirection::LeftToRight => 0,
                FlowDirection::RightToLeft => 1,
                FlowDirection::BottomToTop => 2,
                FlowDirection::TopToBottom => 3,
            });
            h.u8(film.local_h as u8);
            h.u8(film.local_boundary_layer as u8);
        }
    }
}

/// Minimal dependency-free FNV-1a 64-bit hasher: the one behind every
/// content digest in the workspace (stack, board, spectral response and the
/// serve coalesce key). Floats hash by their raw bit pattern, so hashing is
/// exact (no epsilon surprises) and stable across platforms; integers hash
/// as little-endian `u64` bytes.
///
/// ```
/// use hotiron_thermal::stack::Fnv;
///
/// let mut h = Fnv::new();
/// h.bytes(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV-1a 64-bit offset basis.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Mixes one byte.
    pub fn u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    /// Mixes a byte string, byte by byte.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.u8(b);
        }
    }

    /// Mixes a string's bytes followed by its length.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        // Length terminator: "ab"+"c" must not collide with "a"+"bc".
        self.usize(s.len());
    }

    /// Mixes the eight little-endian bytes of `v`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes `v` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Mixes `v`'s bit pattern as a `u64`.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest of everything mixed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::MINERAL_OIL;
    use crate::materials::{COPPER, INTERFACE, SILICON};

    fn die() -> DieGeometry {
        DieGeometry { width: 0.02, height: 0.02, thickness: 0.5e-3 }
    }

    fn bare_die() -> LayerStack {
        LayerStack::new(vec![Layer::new("silicon", SILICON, 0.5e-3)], 0)
            .with_top(Boundary::Lumped { r_total: 1.0, c_total: 10.0 })
    }

    #[test]
    fn valid_stack_passes() {
        assert!(bare_die().validate(die()).is_ok());
    }

    #[test]
    fn empty_stack_rejected() {
        let s = LayerStack::new(vec![], 0);
        assert_eq!(s.validate(die()), Err(StackError::EmptyStack));
    }

    #[test]
    fn silicon_index_checked() {
        let mut s = bare_die();
        s.si_index = 3;
        assert!(matches!(s.validate(die()), Err(StackError::SiliconIndexOutOfRange { .. })));
    }

    #[test]
    fn undersized_plate_names_layer() {
        let mut s = bare_die();
        s.layers.push(Layer::plate("tiny-spreader", COPPER, 1e-3, 0.01));
        let err = s.validate(die()).unwrap_err();
        match &err {
            StackError::PlateSmallerThanDie { layer, side, die_extent } => {
                assert_eq!(layer, "tiny-spreader");
                assert_eq!(*side, 0.01);
                assert_eq!(*die_extent, 0.02);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("tiny-spreader"), "{err}");
    }

    #[test]
    fn bad_thickness_names_layer() {
        let mut s = bare_die();
        s.layers.push(Layer::new("interface", INTERFACE, -1e-6));
        let err = s.validate(die()).unwrap_err();
        assert!(err.to_string().contains("interface"), "{err}");
    }

    #[test]
    fn bad_boundary_rejected() {
        let s = bare_die().with_top(Boundary::Lumped { r_total: 0.0, c_total: 1.0 });
        assert!(matches!(
            s.validate(die()),
            Err(StackError::BadBoundary { side: BoundarySide::Top, .. })
        ));
        let s = bare_die().with_top(Boundary::OilFilm(OilFilm {
            fluid: MINERAL_OIL,
            velocity: f64::NAN,
            direction: FlowDirection::LeftToRight,
            local_h: true,
            local_boundary_layer: true,
        }));
        assert!(matches!(s.validate(die()), Err(StackError::BadBoundary { .. })));
    }

    #[test]
    fn fully_insulated_stack_rejected() {
        let s = LayerStack::new(vec![Layer::new("silicon", SILICON, 0.5e-3)], 0);
        let err = s.validate(die()).unwrap_err();
        assert!(err.to_string().contains("no path to ambient"), "{err}");
    }

    #[test]
    fn bad_die_rejected() {
        let bad = DieGeometry { width: 0.0, ..die() };
        assert!(matches!(bare_die().validate(bad), Err(StackError::BadDie { .. })));
    }

    #[test]
    fn content_hash_is_stable_and_sensitive() {
        let a = bare_die();
        let b = bare_die();
        assert_eq!(a.content_hash(), b.content_hash());

        let mut c = bare_die();
        c.layers[0].thickness = 0.4e-3;
        assert_ne!(a.content_hash(), c.content_hash());

        let d = bare_die().with_top(Boundary::Lumped { r_total: 1.0, c_total: 11.0 });
        assert_ne!(a.content_hash(), d.content_hash());

        let e = bare_die().with_bottom(Boundary::OilFilm(OilFilm {
            fluid: MINERAL_OIL,
            velocity: 10.0,
            direction: FlowDirection::LeftToRight,
            local_h: true,
            local_boundary_layer: true,
        }));
        assert_ne!(a.content_hash(), e.content_hash());
        // Direction matters.
        let mut f = e.clone();
        if let Boundary::OilFilm(film) = &mut f.bottom {
            film.direction = FlowDirection::TopToBottom;
        }
        assert_ne!(e.content_hash(), f.content_hash());
    }

    #[test]
    fn hash_distinguishes_name_boundaries() {
        // "ab" + "c" must not collide with "a" + "bc".
        let mut a = Fnv::new();
        a.str("ab");
        a.str("c");
        let mut b = Fnv::new();
        b.str("a");
        b.str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn accessors_split_around_silicon() {
        let s = LayerStack::new(
            vec![
                Layer::new("interconnect", INTERFACE, 12e-6),
                Layer::new("silicon", SILICON, 0.5e-3),
                Layer::new("interface", INTERFACE, 20e-6),
                Layer::plate("spreader", COPPER, 1e-3, 0.03),
            ],
            1,
        );
        assert_eq!(s.silicon().name, "silicon");
    }

    #[test]
    fn error_display_is_informative() {
        let e = StackError::IncompatibleCooling {
            reason: "PcbCooling::Oil requires an OilSilicon package".into(),
        };
        assert!(e.to_string().contains("OilSilicon"));
        let e = StackError::BadBoundary {
            side: BoundarySide::Bottom,
            reason: "oil velocity -1 must be positive".into(),
        };
        assert!(e.to_string().starts_with("bottom boundary"));
    }
}
