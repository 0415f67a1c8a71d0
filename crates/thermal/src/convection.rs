//! Laminar flat-plate convection correlations (the paper's Eqns 1–4, 7–8).
//!
//! These formulas come from Cengel, *Heat and Mass Transfer* (the paper's
//! ref \[3\]) and are the heart of the OIL-SILICON package model:
//!
//! * average coefficient `h_L = 0.664 (k/L) Re_L^1/2 Pr^1/3`      (Eqn 2)
//! * overall resistance `R_conv = 1 / (h_L · A_chip)`             (Eqn 1)
//! * oil capacitance `C_conv = ρ · c_p · A_chip · δ_t`            (Eqn 3)
//! * boundary-layer thickness `δ_t = 4.91 L / (Pr^1/3 √Re_L)`     (Eqn 4)
//! * local coefficient `h(x) = 0.332 (k/x) Re_x^1/2 Pr^1/3`       (Eqn 8)
//! * local resistance `R_local = 1 / (h(x) · A_local)`            (Eqn 7)
//!
//! The local coefficient is largest at the flow's leading edge and decays as
//! `1/√x`, which is why the oil-flow *direction* moves hot spots (§4.2).

use crate::fluid::Fluid;

/// Reynolds number above which a flat-plate boundary layer transitions to
/// turbulence; the laminar correlations are invalid beyond it.
pub const LAMINAR_RE_LIMIT: f64 = 5.0e5;

/// Direction of coolant flow across the die, in floorplan coordinates
/// (x grows rightward, y grows upward).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowDirection {
    /// Flow enters at the left edge (x = 0) and exits at the right.
    LeftToRight,
    /// Flow enters at the right edge and exits at the left.
    RightToLeft,
    /// Flow enters at the bottom edge (y = 0) and exits at the top.
    BottomToTop,
    /// Flow enters at the top edge and exits at the bottom.
    TopToBottom,
}

impl FlowDirection {
    /// All four directions, in the column order of the paper's Fig 11.
    pub const ALL: [FlowDirection; 4] = [
        FlowDirection::LeftToRight,
        FlowDirection::RightToLeft,
        FlowDirection::BottomToTop,
        FlowDirection::TopToBottom,
    ];

    /// Distance (m) of the point `(x, y)` from the leading edge of a
    /// `width` x `height` die for this flow direction.
    pub fn distance_from_leading_edge(self, x: f64, y: f64, width: f64, height: f64) -> f64 {
        match self {
            FlowDirection::LeftToRight => x,
            FlowDirection::RightToLeft => width - x,
            FlowDirection::BottomToTop => y,
            FlowDirection::TopToBottom => height - y,
        }
    }

    /// Length of the die along the flow (the `L` of Eqns 2 and 4).
    pub fn flow_length(self, width: f64, height: f64) -> f64 {
        match self {
            FlowDirection::LeftToRight | FlowDirection::RightToLeft => width,
            FlowDirection::BottomToTop | FlowDirection::TopToBottom => height,
        }
    }

    /// Human-readable label matching the paper's Fig 11 column headers.
    pub fn label(self) -> &'static str {
        match self {
            FlowDirection::LeftToRight => "left to right",
            FlowDirection::RightToLeft => "right to left",
            FlowDirection::BottomToTop => "bottom to top",
            FlowDirection::TopToBottom => "top to bottom",
        }
    }
}

impl std::fmt::Display for FlowDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A laminar coolant flow over a flat plate of length `length` (m) along the
/// flow at bulk `velocity` (m/s).
///
/// # Examples
///
/// ```
/// use hotiron_thermal::convection::LaminarFlow;
/// use hotiron_thermal::fluid::MINERAL_OIL;
///
/// // The paper's validation setup: 10 m/s oil over a 20 mm die.
/// let flow = LaminarFlow::new(MINERAL_OIL, 10.0, 0.02);
/// let r = flow.overall_resistance(0.02 * 0.02);
/// assert!((r - 1.0).abs() < 0.05, "Rconv = {r} K/W (paper: ~1.0)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaminarFlow {
    fluid: Fluid,
    velocity: f64,
    length: f64,
}

impl LaminarFlow {
    /// Creates a flow; `length` is the plate length along the flow direction.
    ///
    /// # Panics
    ///
    /// Panics if `velocity` or `length` is not strictly positive and finite.
    pub fn new(fluid: Fluid, velocity: f64, length: f64) -> Self {
        assert!(velocity.is_finite() && velocity > 0.0, "velocity must be positive");
        assert!(length.is_finite() && length > 0.0, "length must be positive");
        Self { fluid, velocity, length }
    }

    /// The coolant fluid.
    pub fn fluid(&self) -> &Fluid {
        &self.fluid
    }

    /// Bulk velocity, m/s.
    pub fn velocity(&self) -> f64 {
        self.velocity
    }

    /// Plate length along the flow, m.
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Overall Reynolds number `Re_L`.
    pub fn reynolds(&self) -> f64 {
        self.fluid.reynolds(self.velocity, self.length)
    }

    /// Whether the whole plate stays in the laminar regime.
    pub fn is_laminar(&self) -> bool {
        self.reynolds() < LAMINAR_RE_LIMIT
    }

    /// Average heat-transfer coefficient `h_L` (Eqn 2), W/(m²·K).
    pub fn average_h(&self) -> f64 {
        0.664
            * (self.fluid.conductivity() / self.length)
            * self.reynolds().sqrt()
            * self.fluid.prandtl().cbrt()
    }

    /// Overall convective resistance over plate area `area` (Eqn 1), K/W.
    pub fn overall_resistance(&self, area: f64) -> f64 {
        1.0 / (self.average_h() * area)
    }

    /// Local heat-transfer coefficient at distance `x` (m) from the leading
    /// edge (Eqn 8), W/(m²·K).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not strictly positive (the correlation is singular
    /// at the leading edge; callers evaluate at cell centers).
    pub fn local_h(&self, x: f64) -> f64 {
        assert!(x > 0.0, "local h is singular at the leading edge");
        let re_x = self.fluid.reynolds(self.velocity, x);
        0.332 * (self.fluid.conductivity() / x) * re_x.sqrt() * self.fluid.prandtl().cbrt()
    }

    /// Thermal boundary-layer thickness at the trailing edge `δ_t` (Eqn 4), m.
    pub fn boundary_layer_thickness(&self) -> f64 {
        4.91 * self.length / (self.fluid.prandtl().cbrt() * self.reynolds().sqrt())
    }

    /// Local thermal boundary-layer thickness at distance `x` from the
    /// leading edge, m (Eqn 4 evaluated with `L = x`).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not strictly positive.
    pub fn local_boundary_layer_thickness(&self, x: f64) -> f64 {
        assert!(x > 0.0, "boundary layer undefined at the leading edge");
        let re_x = self.fluid.reynolds(self.velocity, x);
        4.91 * x / (self.fluid.prandtl().cbrt() * re_x.sqrt())
    }

    /// Effective oil thermal capacitance over plate area `area` (Eqn 3), J/K.
    pub fn effective_capacitance(&self, area: f64) -> f64 {
        self.fluid.volumetric_heat_capacity() * area * self.boundary_layer_thickness()
    }

    /// The velocity needed to reach a target overall resistance `r_target`
    /// (K/W) over `area` m², holding fluid and length fixed.
    ///
    /// From Eqns 1–2, `R ∝ 1/√u`, so `u = u_0 · (R_0/R_target)²`.
    ///
    /// Used by the paper's §5.1.1 observation that 0.3 K/W would need an
    /// unrealistic ~100 m/s oil flow.
    pub fn velocity_for_resistance(&self, r_target: f64, area: f64) -> f64 {
        assert!(r_target > 0.0, "target resistance must be positive");
        let r0 = self.overall_resistance(area);
        self.velocity * (r0 / r_target).powi(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::MINERAL_OIL;

    fn paper_flow() -> LaminarFlow {
        LaminarFlow::new(MINERAL_OIL, 10.0, 0.02)
    }

    #[test]
    fn paper_rconv_is_about_one() {
        // §3.2: "The equivalent convection thermal resistance is about 1.0 K/W."
        let r = paper_flow().overall_resistance(4e-4);
        assert!((r - 1.0).abs() < 0.05, "Rconv = {r}");
    }

    #[test]
    fn paper_boundary_layer_is_order_100um() {
        // §4.1.2: "about 100 µm thick for a 10 m/s oil flow".
        let d = paper_flow().boundary_layer_thickness();
        assert!(d > 5e-5 && d < 3e-4, "δt = {d}");
    }

    #[test]
    fn flow_is_laminar() {
        assert!(paper_flow().is_laminar());
    }

    #[test]
    fn local_h_decays_downstream() {
        let f = paper_flow();
        let h1 = f.local_h(0.002);
        let h2 = f.local_h(0.018);
        assert!(h1 > h2, "leading edge must cool best: {h1} vs {h2}");
        // 1/sqrt(x) decay: h(x)·sqrt(x) constant.
        let c1 = h1 * 0.002f64.sqrt();
        let c2 = h2 * 0.018f64.sqrt();
        assert!((c1 / c2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn average_h_is_integral_of_local() {
        // hL = (1/L)∫h(x)dx, and for h ∝ x^-1/2 the mean is 2·h(L), i.e.
        // 0.664 = 2 × 0.332.
        let f = paper_flow();
        assert!((f.average_h() - 2.0 * f.local_h(f.length())).abs() < 1e-6);
    }

    #[test]
    fn capacitance_matches_eqn3() {
        let f = paper_flow();
        let c = f.effective_capacitance(4e-4);
        let by_hand = MINERAL_OIL.density()
            * MINERAL_OIL.specific_heat()
            * 4e-4
            * f.boundary_layer_thickness();
        assert!((c - by_hand).abs() < 1e-12);
        // The oil film's capacitance is tiny compared to the silicon die's
        // 0.35 J/K (§4.1.2: "much smaller even compared to that of silicon").
        assert!(c < 0.35);
    }

    #[test]
    fn resistance_scales_inverse_sqrt_velocity() {
        let f1 = LaminarFlow::new(MINERAL_OIL, 10.0, 0.02);
        let f2 = LaminarFlow::new(MINERAL_OIL, 40.0, 0.02);
        let r1 = f1.overall_resistance(4e-4);
        let r2 = f2.overall_resistance(4e-4);
        assert!((r1 / r2 - 2.0).abs() < 1e-9, "R ∝ 1/√u");
    }

    #[test]
    fn velocity_for_resistance_is_consistent() {
        let f = paper_flow();
        let u = f.velocity_for_resistance(0.3, 4e-4);
        let f2 = LaminarFlow::new(MINERAL_OIL, u, 0.02);
        assert!((f2.overall_resistance(4e-4) - 0.3).abs() < 1e-6);
        // §5.1.1: ~100 m/s would be needed for 0.3 K/W — "unrealistic".
        assert!(u > 60.0 && u < 200.0, "u = {u}");
    }

    #[test]
    fn directions_distance_from_leading_edge() {
        use FlowDirection::*;
        let (w, h) = (0.016, 0.016);
        assert_eq!(LeftToRight.distance_from_leading_edge(0.004, 0.0, w, h), 0.004);
        assert_eq!(RightToLeft.distance_from_leading_edge(0.004, 0.0, w, h), 0.012);
        assert_eq!(BottomToTop.distance_from_leading_edge(0.0, 0.01, w, h), 0.01);
        assert!((TopToBottom.distance_from_leading_edge(0.0, 0.01, w, h) - 0.006).abs() < 1e-12);
        assert_eq!(LeftToRight.flow_length(w, h), w);
        assert_eq!(TopToBottom.flow_length(w, h), h);
    }

    #[test]
    fn direction_labels_match_fig11() {
        assert_eq!(FlowDirection::ALL[0].to_string(), "left to right");
        assert_eq!(FlowDirection::ALL[3].to_string(), "top to bottom");
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn local_h_rejects_leading_edge() {
        let _ = paper_flow().local_h(0.0);
    }
}
