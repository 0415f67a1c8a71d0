//! Fig 12: simulated temperature traces of EV6 running gcc under both
//! packages at Rconv = 0.3 K/W, sampled every 10 K cycles (≈3.33 µs).

use crate::common::{ambient_k, Fidelity};
use crate::report::{Row, Table};
use hotiron_floorplan::library;
use hotiron_powersim::{engine::SyntheticCpu, uarch, workload, Workload};
use hotiron_thermal::{
    AirSinkPackage, ModelConfig, OilSiliconPackage, Package, PowerMap, ThermalModel,
};
use std::sync::OnceLock;

/// The five hottest blocks plotted in the paper's Fig 12.
pub const FIG12_BLOCKS: [&str; 5] = ["Dcache", "Bpred", "IntReg", "IntExec", "LdStQ"];

/// Which cooling configuration a trace run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceConfig {
    /// AIR-SINK at Rconv = 0.3 K/W (Fig 12a).
    AirSink,
    /// OIL-SILICON with Rconv forced to 0.3 K/W (Fig 12b).
    OilSilicon,
}

/// A full temperature-trace run: per-sample temperatures of the Fig 12
/// blocks plus summary statistics.
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// Sample period, s.
    pub dt: f64,
    /// `samples x 5` temperatures, °C.
    pub series: Vec<[f64; 5]>,
}

impl TraceRun {
    /// The per-block mean temperature, °C.
    pub fn means(&self) -> [f64; 5] {
        let mut m = [0.0; 5];
        for s in &self.series {
            for (a, v) in m.iter_mut().zip(s) {
                *a += v;
            }
        }
        for a in &mut m {
            *a /= self.series.len().max(1) as f64;
        }
        m
    }

    /// Largest temperature rise of any block over any window of `w` seconds
    /// (the §5.2 "5 degrees in 3 ms" statistic), K.
    pub fn max_rise_over(&self, w: f64) -> f64 {
        let k = ((w / self.dt).round() as usize).max(1);
        let mut worst = 0.0f64;
        for b in 0..5 {
            for i in 0..self.series.len().saturating_sub(k) {
                worst = worst.max(self.series[i + k][b] - self.series[i][b]);
            }
        }
        worst
    }

    /// Fraction of the trace where the hottest block is "almost constant":
    /// its change over a `window`-second interval stays below `rel_eps`
    /// times the trace's full dynamic range — the paper's §5.1 observation
    /// that AIR-SINK spends most time on plateaus while OIL-SILICON spends
    /// most time in transit.
    pub fn plateau_fraction(&self, window: f64, rel_eps: f64) -> f64 {
        let hot = self.hottest_index();
        let k = ((window / self.dt).round() as usize).max(1);
        if self.series.len() <= k {
            return 0.0;
        }
        let vals: Vec<f64> = self.series.iter().map(|s| s[hot]).collect();
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        let range = (max - min).max(1e-9);
        let flat = (0..vals.len() - k)
            .filter(|&i| (vals[i + k] - vals[i]).abs() < rel_eps * range)
            .count();
        flat as f64 / (vals.len() - k) as f64
    }

    /// Index (into [`FIG12_BLOCKS`]) of the block with the highest mean.
    pub fn hottest_index(&self) -> usize {
        let m = self.means();
        m.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).expect("non-empty").0
    }
}

/// Runs the Fig 12 trace for one package. Runs are memoized per fidelity
/// and package, so Fig 12 and the sensing experiment (and the test suite's
/// repeated calls) share one simulation.
pub fn trace_run(fidelity: Fidelity, cfg: TraceConfig) -> TraceRun {
    static RUNS: [[OnceLock<TraceRun>; 2]; 2] = [const { [const { OnceLock::new() }; 2] }; 2];
    RUNS[fidelity as usize][cfg as usize].get_or_init(|| trace_run_uncached(fidelity, cfg)).clone()
}

fn trace_run_uncached(fidelity: Fidelity, cfg: TraceConfig) -> TraceRun {
    let grid = fidelity.pick(8, 16);
    let n = fidelity.pick(6_000, 40_000);
    let plan = library::ev6();
    let model_cfg = ModelConfig::paper_default().with_grid(grid, grid).with_ambient(ambient_k());
    let package = match cfg {
        TraceConfig::AirSink => {
            Package::AirSink(AirSinkPackage::paper_default().with_r_convec(0.3))
        }
        TraceConfig::OilSilicon => {
            Package::OilSilicon(OilSiliconPackage::paper_default().with_target_r_convec(0.3))
        }
    };
    let model = ThermalModel::new(plan.clone(), package, model_cfg).expect("valid model");
    let cpu = SyntheticCpu::new(
        uarch::ev6_units(&plan).expect("ev6 units align to the floorplan"),
        workload::gcc(),
        42,
    );
    let dt = Workload::PAPER_SAMPLE_PERIOD;

    let mut sim = model.transient(dt);
    let warmup = cpu.simulate(cpu.workload().period_samples());
    sim.init_steady(&PowerMap::from_vec(&plan, warmup.average())).expect("steady init");

    let idx: Vec<usize> =
        FIG12_BLOCKS.iter().map(|b| plan.block_index(b).expect("block exists")).collect();
    let mut series = Vec::with_capacity(n);
    for i in 0..n {
        let p = PowerMap::from_vec(&plan, cpu.simulate_at(i, None));
        sim.run(&p, dt).expect("transient step");
        let temps = sim.solution().block_celsius();
        let mut row = [0.0; 5];
        for (slot, &bi) in row.iter_mut().zip(&idx) {
            *slot = temps[bi];
        }
        series.push(row);
    }
    TraceRun { dt, series }
}

/// Fig 12 as a table: strided samples of the five blocks for one package.
pub fn fig12(fidelity: Fidelity, cfg: TraceConfig) -> Table {
    let run = trace_run(fidelity, cfg);
    let label = match cfg {
        TraceConfig::AirSink => "AIR-SINK, Rconv=0.3 K/W",
        TraceConfig::OilSilicon => "OIL-SILICON, Rconv=0.3 K/W",
    };
    let mut table = Table::new(
        format!("Fig 12: EV6/gcc temperature trace, {label} (°C)"),
        "sample",
        FIG12_BLOCKS.iter().map(|s| (*s).to_owned()).collect(),
    );
    let stride = (run.series.len() / 80).max(1);
    for (i, row) in run.series.iter().enumerate().step_by(stride) {
        table.push(Row::new(format!("{i}"), row.to_vec()));
    }
    let means = run.means();
    table.note(format!(
        "means: Dcache {:.1}, Bpred {:.1}, IntReg {:.1}, IntExec {:.1}, LdStQ {:.1} °C",
        means[0], means[1], means[2], means[3], means[4]
    ));
    table.note(format!(
        "max rise over 3 ms: {:.2} K | plateau fraction: {:.2}",
        run.max_rise_over(3e-3),
        run.plateau_fraction(1e-3, 0.05)
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_oil_runs_hotter_with_less_distinct_hotspot() {
        let air = trace_run(Fidelity::Fast, TraceConfig::AirSink);
        let oil = trace_run(Fidelity::Fast, TraceConfig::OilSilicon);
        let ma = air.means();
        let mo = oil.means();
        // Oil hot blocks are far hotter (paper: ~130-170 vs ~60-85 °C).
        let hot_air = ma.iter().cloned().fold(f64::MIN, f64::max);
        let hot_oil = mo.iter().cloned().fold(f64::MIN, f64::max);
        assert!(hot_oil > hot_air + 25.0, "oil {hot_oil} vs air {hot_air}");
        // §5.1 observation: the AIR trace reacts to each workload phase, so
        // *relative* to its operating rise it fluctuates more than OIL,
        // whose long short-term time constant low-pass-filters the phases.
        let rel_fluct = |run: &TraceRun, means: &[f64; 5]| {
            let hot = run.hottest_index();
            let mean = means[hot];
            let var = run.series.iter().map(|s| (s[hot] - mean).powi(2)).sum::<f64>()
                / run.series.len() as f64;
            var.sqrt() / (mean - 45.0)
        };
        let f_air = rel_fluct(&air, &ma);
        let f_oil = rel_fluct(&oil, &mo);
        assert!(
            f_air > f_oil,
            "air must fluctuate more relative to its rise: {f_air:.4} vs {f_oil:.4}"
        );
    }

    #[test]
    fn fig12_air_spends_more_time_on_plateaus() {
        let air = trace_run(Fidelity::Fast, TraceConfig::AirSink);
        let oil = trace_run(Fidelity::Fast, TraceConfig::OilSilicon);
        let pa = air.plateau_fraction(1e-3, 0.05);
        let po = oil.plateau_fraction(1e-3, 0.05);
        assert!(pa > po, "air plateau {pa:.3} vs oil {po:.3}");
    }

    #[test]
    fn fig12_table_renders() {
        let t = fig12(Fidelity::Fast, TraceConfig::AirSink);
        assert!(t.rows.len() > 20);
        assert_eq!(t.columns.len(), 5);
        assert!(t.notes.len() == 2);
    }

    #[test]
    fn trace_statistics_behave() {
        let run = TraceRun {
            dt: 1e-3,
            series: vec![[0.0; 5], [1.0, 0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0]],
        };
        assert!((run.max_rise_over(1e-3) - 1.0).abs() < 1e-12);
        assert_eq!(run.hottest_index(), 0);
        // One of two 1-step windows is flat (0->1 moves, 1->1 does not).
        assert!((run.plateau_fraction(1e-3, 0.5) - 0.5).abs() < 1e-12);
    }
}
