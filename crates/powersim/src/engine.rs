//! The activity engine: workload phases × unit specs → power trace.

use crate::trace::PowerTrace;
use crate::uarch::{LeakageModel, UnitSpec};
use crate::workload::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic CPU: a set of unit power models driven by a workload.
///
/// Deterministic for a given seed, so every figure regenerates identically.
///
/// # Examples
///
/// ```
/// use hotiron_floorplan::library;
/// use hotiron_powersim::{engine::SyntheticCpu, uarch, workload};
///
/// let plan = library::ev6();
/// let cpu = SyntheticCpu::new(uarch::ev6_units(&plan).expect("ev6 units align to the floorplan"), workload::gcc(), 1);
/// let a = cpu.simulate(500);
/// let b = cpu.simulate(500);
/// assert_eq!(a, b, "same seed, same trace");
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticCpu {
    units: Vec<UnitSpec>,
    workload: Workload,
    seed: u64,
    leakage: Option<LeakageModel>,
}

impl SyntheticCpu {
    /// Creates a synthetic CPU.
    ///
    /// # Panics
    ///
    /// Panics if `units` is empty.
    pub fn new(units: Vec<UnitSpec>, workload: Workload, seed: u64) -> Self {
        assert!(!units.is_empty(), "need at least one unit");
        Self { units, workload, seed, leakage: None }
    }

    /// Enables temperature-dependent leakage; [`SyntheticCpu::simulate_at`]
    /// then scales each unit's leakage by the model's factor.
    pub fn with_leakage_model(mut self, model: LeakageModel) -> Self {
        self.leakage = Some(model);
        self
    }

    /// The leakage model set by [`SyntheticCpu::with_leakage_model`], if any.
    pub fn leakage_model(&self) -> Option<LeakageModel> {
        self.leakage
    }

    /// The unit specs.
    pub fn units(&self) -> &[UnitSpec] {
        &self.units
    }

    /// The workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Generates `n` samples at the workload's reference temperature.
    pub fn simulate(&self, n: usize) -> PowerTrace {
        self.simulate_from(n, 0)
    }

    /// Generates `n` samples starting at absolute sample offset `start`
    /// (useful for windowed re-simulation of a long run).
    pub fn simulate_from(&self, n: usize, start: usize) -> PowerTrace {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (start as u64).wrapping_mul(0x9E37_79B9));
        let mut trace = PowerTrace::new(self.workload.sample_period, self.units.len());
        let mut sample = vec![0.0; self.units.len()];
        for i in 0..n {
            self.fill_sample(start + i, &mut rng, None, &mut sample);
            trace.push(&sample);
        }
        trace
    }

    /// Generates one sample at absolute index `n`, with per-unit block
    /// temperatures (kelvin) for leakage feedback if a leakage model is set.
    pub fn simulate_at(&self, n: usize, temps: Option<&[f64]>) -> Vec<f64> {
        // A fresh RNG keyed to the sample index keeps this random-access
        // API consistent with the streaming one.
        let mut rng = StdRng::seed_from_u64(self.seed ^ (n as u64).wrapping_mul(0x9E37_79B9));
        let mut sample = vec![0.0; self.units.len()];
        self.fill_sample(n, &mut rng, temps, &mut sample);
        sample
    }

    fn fill_sample(&self, n: usize, rng: &mut StdRng, temps: Option<&[f64]>, out: &mut [f64]) {
        let phase = self.workload.phase_at(n);
        for (u, (unit, slot)) in self.units.iter().zip(out.iter_mut()).enumerate() {
            let base = phase.activity.level(unit.class);
            let jitter = if phase.dither > 0.0 {
                1.0 + rng.gen_range(-phase.dither..phase.dither)
            } else {
                1.0
            };
            let activity = (base * jitter).clamp(0.0, 1.0);
            let mut leak = unit.leakage;
            if let (Some(model), Some(t)) = (self.leakage, temps) {
                leak *= model.factor(t[u]);
            }
            *slot = leak + unit.peak_dynamic * activity;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uarch::{self, UnitClass};
    use crate::workload;
    use hotiron_floorplan::library;

    fn cpu() -> SyntheticCpu {
        let plan = library::ev6();
        SyntheticCpu::new(
            uarch::ev6_units(&plan).expect("ev6 units align to the floorplan"),
            workload::gcc(),
            7,
        )
    }

    #[test]
    fn deterministic_per_seed() {
        let a = cpu().simulate(200);
        let b = cpu().simulate(200);
        assert_eq!(a, b);
        let plan = library::ev6();
        let other = SyntheticCpu::new(
            uarch::ev6_units(&plan).expect("ev6 units align to the floorplan"),
            workload::gcc(),
            8,
        )
        .simulate(200);
        assert_ne!(a, other, "different seeds must differ");
    }

    #[test]
    fn gcc_total_power_is_tens_of_watts() {
        let t = cpu().simulate(8000);
        let total: f64 = t.average().iter().sum();
        assert!(total > 20.0 && total < 70.0, "gcc total {total} W");
    }

    #[test]
    fn gcc_intreg_density_dominates() {
        let plan = library::ev6();
        let t = cpu().simulate(8000);
        let avg = t.average();
        let dens =
            |name: &str| avg[plan.block_index(name).unwrap()] / plan.block(name).unwrap().area();
        assert!(dens("IntReg") > dens("FPMul") * 4.0, "integer code barely uses FP");
        assert!(dens("IntReg") > dens("L2"), "core denser than cache");
    }

    #[test]
    fn phases_modulate_power() {
        // The stall phase should be visibly lower-power than the hot phase.
        let t = cpu().simulate(8000);
        let hot: f64 = (0..100).map(|i| t.total(i)).sum::<f64>() / 100.0;
        let stall_start = 2600 + 1200; // first stall phase
        let stall: f64 = (stall_start..stall_start + 100).map(|i| t.total(i)).sum::<f64>() / 100.0;
        assert!(stall < 0.7 * hot, "stall {stall} vs hot {hot}");
    }

    #[test]
    fn leakage_feedback_raises_power_when_hot() {
        let plan = library::ev6();
        let base = SyntheticCpu::new(
            uarch::ev6_units(&plan).expect("ev6 units align to the floorplan"),
            workload::idle(),
            3,
        );
        let fb = base.clone().with_leakage_model(LeakageModel::node_130nm());
        let cool = vec![330.0; plan.len()];
        let hot = vec![380.0; plan.len()];
        let p_cool: f64 = fb.simulate_at(0, Some(&cool)).iter().sum();
        let p_hot: f64 = fb.simulate_at(0, Some(&hot)).iter().sum();
        assert!(p_hot > p_cool, "leakage must grow with temperature");
        // Without a model, temperatures are ignored.
        let p_a: f64 = base.simulate_at(0, Some(&hot)).iter().sum();
        let p_b: f64 = base.simulate_at(0, Some(&cool)).iter().sum();
        assert_eq!(p_a, p_b);
    }

    #[test]
    fn flat_out_has_no_jitter() {
        let plan = library::ev6();
        let c = SyntheticCpu::new(
            uarch::ev6_units(&plan).expect("ev6 units align to the floorplan"),
            workload::flat_out(),
            1,
        );
        let t = c.simulate(10);
        for i in 1..10 {
            assert_eq!(t.sample(i), t.sample(0));
        }
    }

    #[test]
    fn blank_units_emit_leakage_only() {
        let plan = library::athlon64();
        let c = SyntheticCpu::new(
            uarch::athlon64_units(&plan).expect("athlon64 units align to the floorplan"),
            workload::flat_out(),
            1,
        );
        let t = c.simulate(1);
        let bi = plan.block_index("blank1").unwrap();
        let spec = c.units().iter().find(|u| u.name == "blank1").unwrap();
        assert!((t.sample(0)[bi] - spec.leakage).abs() < 1e-12);
        let _ = UnitClass::Blank; // silence unused-import lint in this test module
    }
}
