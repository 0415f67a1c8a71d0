//! Solid material properties for the layer stack.
//!
//! All properties are SI: thermal conductivity in W/(m·K) and *volumetric*
//! heat capacity in J/(m³·K) (specific heat x density), the two quantities a
//! lumped RC discretization needs.

/// An isotropic solid material.
///
/// # Examples
///
/// ```
/// use hotiron_thermal::materials::{Material, SILICON};
///
/// // The paper's R_th,Si = 0.0125 K/W for a 0.5 mm die over 4 cm².
/// let r = SILICON.vertical_resistance(0.5e-3, 4.0e-4);
/// assert!((r - 0.0125).abs() < 1e-6);
/// let custom = Material::new("diamond", 2200.0, 1.78e6);
/// assert!(custom.conductivity() > SILICON.conductivity());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    name: &'static str,
    /// Thermal conductivity, W/(m·K).
    conductivity: f64,
    /// Volumetric heat capacity, J/(m³·K).
    volumetric_heat_capacity: f64,
}

impl Material {
    /// Creates a material from conductivity (W/m·K) and volumetric heat
    /// capacity (J/m³·K).
    ///
    /// # Panics
    ///
    /// Panics if either property is not strictly positive and finite.
    pub const fn new(name: &'static str, conductivity: f64, volumetric_heat_capacity: f64) -> Self {
        assert!(conductivity > 0.0, "conductivity must be positive");
        assert!(volumetric_heat_capacity > 0.0, "heat capacity must be positive");
        Self { name, conductivity, volumetric_heat_capacity }
    }

    /// Material name.
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Thermal conductivity, W/(m·K).
    pub const fn conductivity(&self) -> f64 {
        self.conductivity
    }

    /// Volumetric heat capacity, J/(m³·K).
    pub const fn volumetric_heat_capacity(&self) -> f64 {
        self.volumetric_heat_capacity
    }

    /// Conduction resistance through thickness `t` (m) across area `a` (m²),
    /// in K/W: `R = t / (k·A)`.
    pub fn vertical_resistance(&self, t: f64, a: f64) -> f64 {
        t / (self.conductivity * a)
    }

    /// Heat capacity of a volume `v` (m³), in J/K.
    pub fn capacitance(&self, v: f64) -> f64 {
        self.volumetric_heat_capacity * v
    }
}

/// Bulk silicon. `k = 100 W/m·K` is HotSpot's value and reproduces the
/// paper's `R_th,Si = 0.0125 K/W` example exactly.
pub const SILICON: Material = Material::new("silicon", 100.0, 1.75e6);

/// Copper (heat spreader, heatsink base).
pub const COPPER: Material = Material::new("copper", 400.0, 3.55e6);

/// Thermal interface material between die and spreader (HotSpot default).
pub const INTERFACE: Material = Material::new("interface", 4.0, 4.0e6);

/// On-chip interconnect stack: Cu wires embedded in dielectric, treated as a
/// composite (secondary-path layer 1).
pub const INTERCONNECT: Material = Material::new("interconnect", 7.0, 2.0e6);

/// C4 solder bumps in underfill epoxy, treated as a composite
/// (secondary-path layer 2).
pub const C4_UNDERFILL: Material = Material::new("c4-underfill", 1.2, 2.2e6);

/// Organic package substrate with thermal vias (secondary-path layer 3).
pub const SUBSTRATE: Material = Material::new("substrate", 5.0, 1.8e6);

/// BGA solder-ball layer: solder spheres plus air gaps, composite
/// (secondary-path layer 4).
pub const SOLDER_BALLS: Material = Material::new("solder-balls", 2.0, 1.5e6);

/// FR4 printed-circuit board with copper planes, composite
/// (secondary-path layer 5).
pub const PCB: Material = Material::new("pcb", 0.8, 1.9e6);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silicon_matches_paper_example() {
        // §4.1.2: R_th,Si = 0.0125 K/W for the 20x20x0.5 mm die.
        let r = SILICON.vertical_resistance(0.5e-3, 0.02 * 0.02);
        assert!((r - 0.0125).abs() < 1e-9);
    }

    #[test]
    fn heatsink_capacitance_dwarfs_silicon() {
        // §4.1.2: C_sink ≈ 250x C_si.
        let c_si = SILICON.capacitance(0.02 * 0.02 * 0.5e-3);
        let c_sink = COPPER.capacitance(0.06 * 0.06 * 6.9e-3);
        let ratio = c_sink / c_si;
        assert!(ratio > 150.0 && ratio < 400.0, "ratio {ratio}");
    }

    #[test]
    fn resistances_scale_properly() {
        let m = Material::new("m", 10.0, 1e6);
        assert!((m.vertical_resistance(1e-3, 1e-4) - 1.0).abs() < 1e-12);
        // Doubling area halves resistance.
        assert!((m.vertical_resistance(1e-3, 2e-4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacitance_is_volumetric() {
        assert!((COPPER.capacitance(1.0) - 3.55e6).abs() < 1.0);
    }

    #[test]
    fn copper_spreads_better_than_oil_film_conducts() {
        // The core qualitative fact behind every figure: copper's k is ~3000x
        // a mineral oil's (0.13), so lateral spreading in the spreader/sink
        // dominates while the oil cannot spread heat at all.
        assert!(COPPER.conductivity() / 0.13 > 3000.0 - 1.0);
    }
}
