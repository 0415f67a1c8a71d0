//! Closed-loop simulation: synthetic CPU → thermal model → sensors → DTM.
//!
//! This is the full §5 pipeline: every power sample heats the die through
//! the thermal model; sensors sample the die at their own (slower) rate;
//! the DTM controller throttles dynamic power when the sensed temperature
//! crosses its threshold; throttling feeds back into the next power sample.

use crate::policy::{DtmStats, ThresholdDtm};
use crate::sensor::SensorArray;
use hotiron_powersim::SyntheticCpu;
use hotiron_thermal::{PowerMap, ThermalError, ThermalModel};

/// Time series produced by a closed-loop run.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Sample times, s.
    pub times: Vec<f64>,
    /// True maximum silicon temperature per sample, °C.
    pub true_max: Vec<f64>,
    /// Most recent sensed maximum per sample, °C.
    pub sensed_max: Vec<f64>,
    /// Dynamic-power factor in effect per sample (1.0 = full speed).
    pub throttle: Vec<f64>,
    /// Final DTM statistics.
    pub dtm_stats: DtmStats,
}

impl LoopReport {
    /// The fastest observed heating rate of the true maximum, °C/s.
    pub fn max_heating_rate(&self) -> f64 {
        self.true_max
            .windows(2)
            .zip(self.times.windows(2))
            .map(|(t, x)| (t[1] - t[0]) / (x[1] - x[0]).max(1e-30))
            .fold(0.0f64, f64::max)
    }

    /// Fraction of samples running throttled.
    pub fn throttled_fraction(&self) -> f64 {
        if self.throttle.is_empty() {
            return 0.0;
        }
        self.throttle.iter().filter(|&&f| f < 1.0).count() as f64 / self.throttle.len() as f64
    }

    /// Effective performance (1.0 = no throttling), the §5.1 penalty proxy.
    pub fn performance(&self) -> f64 {
        if self.throttle.is_empty() {
            return 1.0;
        }
        self.throttle.iter().sum::<f64>() / self.throttle.len() as f64
    }
}

/// The closed loop simulator around the paper's threshold DTM controller.
///
/// Leakage feedback follows the CPU: when it carries a
/// [`LeakageModel`](hotiron_powersim::LeakageModel) (set with
/// [`SyntheticCpu::with_leakage_model`]), every power sample is computed at
/// the blocks' current temperatures.
#[derive(Debug)]
pub struct ClosedLoop<'m> {
    model: &'m ThermalModel,
    cpu: SyntheticCpu,
    sensors: SensorArray,
    dtm: ThresholdDtm,
}

impl<'m> ClosedLoop<'m> {
    /// Builds the loop around a thermal model.
    pub fn new(
        model: &'m ThermalModel,
        cpu: SyntheticCpu,
        sensors: SensorArray,
        dtm: ThresholdDtm,
    ) -> Self {
        Self { model, cpu, sensors, dtm }
    }

    /// Runs `n_samples` power samples (one thermal step each) starting from
    /// the steady state of the workload's average power.
    ///
    /// # Errors
    ///
    /// Propagates thermal solver failures.
    pub fn run(&mut self, n_samples: usize) -> Result<LoopReport, ThermalError> {
        let plan = self.model.floorplan();
        let dt = self.cpu.workload().sample_period;
        let mut sim = self.model.transient(dt);

        // Initialize at the steady state of the average power (Fig 8/12
        // methodology).
        let warm = self.cpu.simulate(self.cpu.workload().period_samples());
        let avg = PowerMap::from_vec(plan, warm.average());
        sim.init_steady(&avg)?;

        let sensor_every = ((self.sensors.sample_interval() / dt).round() as usize).max(1);

        let mut report = LoopReport {
            times: Vec::with_capacity(n_samples),
            true_max: Vec::with_capacity(n_samples),
            sensed_max: Vec::with_capacity(n_samples),
            throttle: Vec::with_capacity(n_samples),
            dtm_stats: DtmStats::default(),
        };
        let mut factor = 1.0;
        let mut sensed = f64::MIN;
        let mut leak_temps = self.cpu.leakage_model().map(|_| vec![0.0; plan.len()]);

        for i in 0..n_samples {
            // Power for this sample, with leakage feedback and throttling.
            if let Some(t) = leak_temps.as_mut() {
                let sol = sim.solution();
                let blocks = sol.block_celsius();
                for (slot, c) in t.iter_mut().zip(&blocks) {
                    *slot = c + 273.15;
                }
            }
            let raw = self.cpu.simulate_at(i, leak_temps.as_deref());
            let powers: Vec<f64> = raw
                .iter()
                .zip(self.cpu.units())
                .map(|(p, u)| {
                    let dynamic = (p - u.leakage).max(0.0);
                    u.leakage + dynamic * factor
                })
                .collect();
            let pm = PowerMap::from_vec(plan, powers);
            sim.run(&pm, dt)?;

            let sol = sim.solution();
            let t_max = sol.max_celsius();
            if i % sensor_every == 0 {
                sensed = self.sensors.read_max(&sol);
                factor = self.dtm.update(sensed, t_max, sim.time());
            }
            report.times.push(sim.time());
            report.true_max.push(t_max);
            report.sensed_max.push(sensed);
            report.throttle.push(factor);
        }
        report.dtm_stats = self.dtm.stats();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::SensorArray;
    use hotiron_floorplan::library;
    use hotiron_powersim::{uarch, workload, LeakageModel};
    use hotiron_thermal::{AirSinkPackage, ModelConfig, OilSiliconPackage, Package, ThermalModel};

    fn loop_for(pkg: Package, trigger: f64) -> (ThermalModel, SyntheticCpu) {
        let plan = library::ev6();
        let model =
            ThermalModel::new(plan.clone(), pkg, ModelConfig::paper_default().with_grid(8, 8))
                .unwrap();
        let cpu = SyntheticCpu::new(
            uarch::ev6_units(&plan).expect("ev6 units align to the floorplan"),
            workload::gcc(),
            11,
        );
        let _ = trigger;
        (model, cpu)
    }

    #[test]
    fn loop_produces_consistent_series() {
        let (model, cpu) =
            loop_for(Package::AirSink(AirSinkPackage::paper_default().with_r_convec(0.3)), 80.0);
        let sensors = SensorArray::uniform_grid(4, 0.016, 0.016, 5);
        let dtm = ThresholdDtm::new(200.0, 195.0, 0.5, 1e-3); // never triggers
        let mut cl = ClosedLoop::new(&model, cpu, sensors, dtm);
        let r = cl.run(300).unwrap();
        assert_eq!(r.times.len(), 300);
        assert!(r.true_max.iter().all(|t| t.is_finite()));
        // Never throttled.
        assert!((r.performance() - 1.0).abs() < 1e-12);
        assert_eq!(r.dtm_stats.engagements, 0);
        // Times increase uniformly.
        assert!(r.times.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn dtm_throttles_when_hot() {
        let (model, cpu) = loop_for(Package::OilSilicon(OilSiliconPackage::paper_default()), 0.0);
        // Trigger well below the oil-rig operating temperature: DTM must
        // engage almost immediately.
        let sensors = SensorArray::uniform_grid(6, 0.016, 0.016, 5);
        let dtm = ThresholdDtm::new(50.0, 48.0, 0.4, 1e-3);
        let mut cl = ClosedLoop::new(&model, cpu, sensors, dtm);
        let r = cl.run(200).unwrap();
        assert!(r.dtm_stats.engagements >= 1, "{:?}", r.dtm_stats);
        assert!(r.performance() < 1.0);
        assert!(r.throttled_fraction() > 0.5);
    }

    #[test]
    fn leakage_feedback_heats_the_die() {
        let (model, cpu) = loop_for(Package::OilSilicon(OilSiliconPackage::paper_default()), 0.0);
        let run = |cpu: SyntheticCpu| {
            let sensors = SensorArray::uniform_grid(4, 0.016, 0.016, 5);
            let dtm = ThresholdDtm::new(500.0, 490.0, 0.5, 1e-3);
            ClosedLoop::new(&model, cpu, sensors, dtm).run(100).unwrap()
        };
        let cold = run(cpu.clone());
        let hot = run(cpu.with_leakage_model(LeakageModel::node_130nm()));
        assert!(hot.true_max.iter().all(|t| t.is_finite()));
        // The rig runs far above the leakage reference temperature, so
        // feedback must raise every sample's true maximum.
        for (h, c) in hot.true_max.iter().zip(&cold.true_max) {
            assert!(h > c, "leakage feedback must heat the die: {h} vs {c}");
        }
    }

    #[test]
    fn heating_rate_is_positive_under_bursts() {
        let (model, cpu) =
            loop_for(Package::AirSink(AirSinkPackage::paper_default().with_r_convec(0.3)), 0.0);
        let sensors = SensorArray::uniform_grid(4, 0.016, 0.016, 5);
        let dtm = ThresholdDtm::new(500.0, 490.0, 0.5, 1e-3);
        let mut cl = ClosedLoop::new(&model, cpu, sensors, dtm);
        let r = cl.run(400).unwrap();
        assert!(r.max_heating_rate() > 0.0);
    }
}
