//! Thermal package descriptions: AIR-SINK, OIL-SILICON and the secondary
//! heat-transfer path.
//!
//! A package describes everything *around* the silicon die. The circuit
//! builder (`crate::circuit`) turns a die floorplan plus a package into an
//! RC network.

use crate::convection::{FlowDirection, LaminarFlow};
use crate::fluid::{Fluid, MINERAL_OIL};
use crate::materials::{
    Material, C4_UNDERFILL, COPPER, INTERCONNECT, INTERFACE, PCB, SOLDER_BALLS, SUBSTRATE,
};
use crate::stack::{Boundary, DieGeometry, Layer, LayerStack, OilFilm, StackError};

/// A square package component larger than the die (spreader, heatsink,
/// substrate, PCB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlateSpec {
    /// Side length of the square plate, m.
    pub side: f64,
    /// Thickness, m.
    pub thickness: f64,
    /// Plate material.
    pub material: Material,
}

impl PlateSpec {
    /// Creates a plate spec.
    ///
    /// # Panics
    ///
    /// Panics if `side` or `thickness` is not strictly positive and finite.
    pub fn new(side: f64, thickness: f64, material: Material) -> Self {
        assert!(side.is_finite() && side > 0.0, "plate side must be positive");
        assert!(thickness.is_finite() && thickness > 0.0, "plate thickness must be positive");
        Self { side, thickness, material }
    }
}

/// How the exposed PCB back side sheds heat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PcbCooling {
    /// The same oil flow that washes the die also washes the PCB back
    /// (the IR measurement rig of the paper's Fig 1).
    Oil,
    /// A lumped convection path (e.g. natural convection in a desktop case):
    /// total resistance (K/W) and capacitance (J/K).
    Fixed {
        /// Total PCB-to-ambient resistance, K/W.
        r: f64,
        /// Lumped coolant capacitance, J/K.
        c: f64,
    },
    /// Adiabatic PCB back (used in sensitivity studies).
    Insulated,
}

/// The secondary heat-transfer path of the paper's Fig 1: on-chip
/// interconnect, C4 bumps + underfill, package substrate, solder balls and
/// the printed-circuit board.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecondaryPath {
    /// On-chip interconnect (metal + dielectric) layer thickness, m.
    pub interconnect_thickness: f64,
    /// Interconnect composite material.
    pub interconnect_material: Material,
    /// C4 pads + underfill layer thickness, m.
    pub c4_thickness: f64,
    /// C4/underfill composite material.
    pub c4_material: Material,
    /// Package substrate plate (larger than the die).
    pub substrate: PlateSpec,
    /// Solder-ball layer thickness, m (under the substrate footprint).
    pub solder_thickness: f64,
    /// Solder-ball composite material.
    pub solder_material: Material,
    /// Printed-circuit board plate (larger than the substrate).
    pub pcb: PlateSpec,
    /// PCB back-side cooling.
    pub pcb_cooling: PcbCooling,
}

impl SecondaryPath {
    /// Secondary path for an IR measurement rig: PCB back washed by the oil.
    pub fn for_oil_rig() -> Self {
        Self { pcb_cooling: PcbCooling::Oil, ..Self::baseline() }
    }

    /// Secondary path for a conventional system: PCB sheds heat by natural
    /// convection (a large, slow path).
    pub fn for_air_system() -> Self {
        Self { pcb_cooling: PcbCooling::Fixed { r: 8.0, c: 200.0 }, ..Self::baseline() }
    }

    fn baseline() -> Self {
        Self {
            interconnect_thickness: 12e-6,
            interconnect_material: INTERCONNECT,
            c4_thickness: 150e-6,
            c4_material: C4_UNDERFILL,
            substrate: PlateSpec::new(0.035, 1.2e-3, SUBSTRATE),
            solder_thickness: 0.6e-3,
            solder_material: SOLDER_BALLS,
            pcb: PlateSpec::new(0.1, 1.6e-3, PCB),
            pcb_cooling: PcbCooling::Insulated,
        }
    }
}

/// Forced-air cooling over a copper heatsink: HotSpot's default package
/// (TIM → spreader → sink → lumped convection).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AirSinkPackage {
    /// Thermal-interface-material bondline thickness, m.
    pub interface_thickness: f64,
    /// TIM material.
    pub interface_material: Material,
    /// Copper heat spreader.
    pub spreader: PlateSpec,
    /// Copper heatsink base (fins folded into `r_convec`/`c_convec`).
    pub sink: PlateSpec,
    /// Sink-to-ambient convection resistance, K/W (the paper's `Rconv`).
    pub r_convec: f64,
    /// Lumped convection (air + fin) capacitance, J/K.
    pub c_convec: f64,
    /// Optional secondary heat-transfer path.
    pub secondary: Option<SecondaryPath>,
}

impl AirSinkPackage {
    /// The paper's §4 configuration: HotSpot-default copper spreader and
    /// sink with `Rconv = 1.0 K/W` and no secondary path.
    pub fn paper_default() -> Self {
        Self {
            interface_thickness: 20e-6,
            interface_material: INTERFACE,
            spreader: PlateSpec::new(0.03, 1.0e-3, COPPER),
            sink: PlateSpec::new(0.06, 6.9e-3, COPPER),
            r_convec: 1.0,
            c_convec: 140.4,
            secondary: None,
        }
    }

    /// Same geometry with a different convection resistance (Fig 12 uses
    /// 0.3 K/W).
    pub fn with_r_convec(mut self, r: f64) -> Self {
        assert!(r.is_finite() && r > 0.0, "r_convec must be positive");
        self.r_convec = r;
        self
    }

    /// Attaches the secondary heat-transfer path.
    pub fn with_secondary(mut self, secondary: SecondaryPath) -> Self {
        self.secondary = Some(secondary);
        self
    }
}

impl Default for AirSinkPackage {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Laminar oil flow over the exposed bare die: the IR-imaging cooling
/// configuration (the paper's §3 extension to HotSpot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OilSiliconPackage {
    /// The coolant.
    pub oil: Fluid,
    /// Bulk flow velocity, m/s.
    pub velocity: f64,
    /// Flow direction across the die.
    pub direction: FlowDirection,
    /// Use the position-dependent `h(x)` of Eqn 8 (true) or a uniform
    /// average `h_L` of Eqn 2 (false — "no flow direction assumed").
    pub local_h: bool,
    /// Size the per-cell oil capacitance with the local boundary-layer
    /// thickness `δt(x)` (true) or the trailing-edge value of Eqn 4 (false,
    /// the paper's lumped Eqn 3).
    pub local_boundary_layer: bool,
    /// If set, the velocity is adjusted at model-build time so the overall
    /// die convection resistance of Eqn 1 equals this value (the paper's
    /// Fig 12 "artificially set to 0.3 K/W").
    pub target_r_convec: Option<f64>,
    /// Optional secondary heat-transfer path.
    pub secondary: Option<SecondaryPath>,
}

impl OilSiliconPackage {
    /// The paper's §3.2 validation configuration: 10 m/s mineral oil,
    /// left-to-right, local `h(x)`, no secondary path.
    pub fn paper_default() -> Self {
        Self {
            oil: MINERAL_OIL,
            velocity: 10.0,
            direction: FlowDirection::LeftToRight,
            local_h: true,
            local_boundary_layer: true,
            target_r_convec: None,
            secondary: None,
        }
    }

    /// Sets the flow direction.
    pub fn with_direction(mut self, direction: FlowDirection) -> Self {
        self.direction = direction;
        self
    }

    /// Requests an overall `Rconv` (velocity solved at model build).
    pub fn with_target_r_convec(mut self, r: f64) -> Self {
        assert!(r.is_finite() && r > 0.0, "target Rconv must be positive");
        self.target_r_convec = Some(r);
        self
    }

    /// Attaches the secondary heat-transfer path.
    pub fn with_secondary(mut self, secondary: SecondaryPath) -> Self {
        self.secondary = Some(secondary);
        self
    }

    /// Disables the flow-direction dependence (uniform average `h`).
    pub fn with_uniform_h(mut self) -> Self {
        self.local_h = false;
        self
    }

    /// Fully position-independent film: uniform average `h` *and* uniform
    /// overall boundary-layer thickness, so the oil conductances and the
    /// film's stored-heat capacitance are identical at every cell. This is
    /// the shape the spectral transient stepper requires.
    pub fn with_uniform_film(mut self) -> Self {
        self.local_h = false;
        self.local_boundary_layer = false;
        self
    }

    /// The oil film this package puts over the die, with `target_r_convec`
    /// (if set) resolved to a velocity: from Eqns 1–2, `R ∝ 1/√u`, so the
    /// velocity that yields the requested overall resistance is solved at
    /// lowering time and baked into the film.
    pub fn film_over(&self, die: DieGeometry) -> OilFilm {
        let mut velocity = self.velocity;
        if let Some(target) = self.target_r_convec {
            let length = self.direction.flow_length(die.width, die.height);
            let flow = LaminarFlow::new(self.oil, self.velocity, length);
            velocity = flow.velocity_for_resistance(target, die.width * die.height);
        }
        OilFilm {
            fluid: self.oil,
            velocity,
            direction: self.direction,
            local_h: self.local_h,
            local_boundary_layer: self.local_boundary_layer,
        }
    }
}

impl Default for OilSiliconPackage {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A complete cooling configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Package {
    /// Forced air over a copper heatsink (conventional operation).
    AirSink(AirSinkPackage),
    /// Laminar oil over bare silicon (IR measurement rig).
    OilSilicon(OilSiliconPackage),
}

impl Package {
    /// Short label for reports ("AIR-SINK" / "OIL-SILICON").
    pub fn label(&self) -> &'static str {
        match self {
            Package::AirSink(_) => "AIR-SINK",
            Package::OilSilicon(_) => "OIL-SILICON",
        }
    }

    /// The attached secondary path, if any.
    pub fn secondary(&self) -> Option<&SecondaryPath> {
        match self {
            Package::AirSink(p) => p.secondary.as_ref(),
            Package::OilSilicon(p) => p.secondary.as_ref(),
        }
    }

    /// Lowers the package into the open [`LayerStack`] IR for a given die.
    ///
    /// This is the *only* place the closed enum is interpreted; every
    /// assembler consumes the resulting stack.
    /// A package's `target_r_convec` is resolved to a concrete oil velocity
    /// here, so the stack is self-contained.
    ///
    /// # Errors
    ///
    /// [`StackError::IncompatibleCooling`] when the secondary path requests
    /// [`PcbCooling::Oil`] on an AIR-SINK package (no oil flow exists to
    /// wash the PCB with).
    pub fn to_stack(&self, die: DieGeometry) -> Result<LayerStack, StackError> {
        use crate::materials::SILICON;
        let mut layers = Vec::new();
        let mut bottom = Boundary::Insulated;

        // Secondary path below the die, bottom-first.
        if let Some(sec) = self.secondary() {
            bottom = match sec.pcb_cooling {
                PcbCooling::Oil => match self {
                    Package::OilSilicon(p) => Boundary::OilFilm(OilFilm {
                        fluid: p.oil,
                        velocity: p.velocity,
                        direction: p.direction,
                        local_h: p.local_h,
                        local_boundary_layer: p.local_boundary_layer,
                    }),
                    Package::AirSink(_) => {
                        return Err(StackError::IncompatibleCooling {
                            reason: "PcbCooling::Oil requires an OilSilicon package \
                                     (an AIR-SINK system has no oil flow to wash the PCB)"
                                .into(),
                        })
                    }
                },
                PcbCooling::Fixed { r, c } => Boundary::Lumped { r_total: r, c_total: c },
                PcbCooling::Insulated => Boundary::Insulated,
            };
            // Solder balls sit under the whole substrate, so the solder
            // layer inherits the substrate's extent to keep the ring chain
            // connected.
            layers.push(Layer::plate("pcb", sec.pcb.material, sec.pcb.thickness, sec.pcb.side));
            layers.push(Layer::plate(
                "solder",
                sec.solder_material,
                sec.solder_thickness,
                sec.substrate.side,
            ));
            layers.push(Layer::plate(
                "substrate",
                sec.substrate.material,
                sec.substrate.thickness,
                sec.substrate.side,
            ));
            layers.push(Layer::new("c4", sec.c4_material, sec.c4_thickness));
            layers.push(Layer::new(
                "interconnect",
                sec.interconnect_material,
                sec.interconnect_thickness,
            ));
        }

        let si_index = layers.len();
        layers.push(Layer::new("silicon", SILICON, die.thickness));

        let top = match self {
            Package::AirSink(p) => {
                layers.push(Layer::new("interface", p.interface_material, p.interface_thickness));
                layers.push(Layer::plate(
                    "spreader",
                    p.spreader.material,
                    p.spreader.thickness,
                    p.spreader.side,
                ));
                layers.push(Layer::plate("sink", p.sink.material, p.sink.thickness, p.sink.side));
                Boundary::Lumped { r_total: p.r_convec, c_total: p.c_convec }
            }
            Package::OilSilicon(p) => Boundary::OilFilm(p.film_over(die)),
        };
        Ok(LayerStack { layers, si_index, bottom, top })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let air = AirSinkPackage::paper_default();
        assert_eq!(air.r_convec, 1.0);
        assert_eq!(air.spreader.side, 0.03);
        assert_eq!(air.sink.side, 0.06);
        let oil = OilSiliconPackage::paper_default();
        assert_eq!(oil.velocity, 10.0);
        assert!(oil.local_h);
    }

    #[test]
    fn builders_chain() {
        let p = AirSinkPackage::paper_default()
            .with_r_convec(0.3)
            .with_secondary(SecondaryPath::for_air_system());
        assert_eq!(p.r_convec, 0.3);
        assert!(p.secondary.is_some());
        let o = OilSiliconPackage::paper_default()
            .with_direction(FlowDirection::TopToBottom)
            .with_target_r_convec(0.3)
            .with_secondary(SecondaryPath::for_oil_rig());
        assert_eq!(o.direction, FlowDirection::TopToBottom);
        assert_eq!(o.target_r_convec, Some(0.3));
    }

    #[test]
    fn package_labels() {
        assert_eq!(Package::AirSink(AirSinkPackage::paper_default()).label(), "AIR-SINK");
        assert_eq!(Package::OilSilicon(OilSiliconPackage::paper_default()).label(), "OIL-SILICON");
    }

    #[test]
    fn secondary_presets_differ_in_cooling() {
        assert_eq!(SecondaryPath::for_oil_rig().pcb_cooling, PcbCooling::Oil);
        assert!(matches!(SecondaryPath::for_air_system().pcb_cooling, PcbCooling::Fixed { .. }));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn plate_rejects_zero_side() {
        let _ = PlateSpec::new(0.0, 1e-3, COPPER);
    }
}
