//! `figures-paper`: registered experiments at paper fidelity through
//! `registry::run_experiment`, each artifact diffed against its golden in
//! `results/` with the snapshot checker's tolerances.
//!
//! The untraced pass runs every experiment except the three whose single
//! paper run takes 13–15 s (`fig2`, `fig12`, `sensing`): with them a pass is
//! ~60 s, more than a run can spend. The traced run executes all 20 (that is
//! where `registry.<exp>_s` comes from) and then replays the layers under
//! them: the fig12 power/thermal loop, the refsim solvers, and the fig6
//! backward-Euler LDLᵀ factors.

use crate::stats::{median, percentile, Report};
use crate::trace::{self, span};
use hotiron_bench::common::{self, ambient_k};
use hotiron_bench::runner::Artifact;
use hotiron_bench::{registry, Fidelity};
use hotiron_floorplan::library;
use hotiron_powersim::{engine::SyntheticCpu, uarch, workload, Workload};
use hotiron_refsim::{RefSim, RefSimConfig};
use hotiron_thermal::{
    AirSinkPackage, LdlFactor, ModelConfig, OilSiliconPackage, Package, PowerMap, ThermalModel,
};
use hotiron_verify::snapshot;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Experiments left out of the untraced pass (each over 12 s alone).
const HEAVY_SKIPPED: [&str; 3] = ["fig2", "fig12", "sensing"];
/// Experiments that get their own `registry.<exp>_s` row in the trace.
const NAMED: [&str; 9] =
    ["fig2", "fig3", "fig6", "fig8", "fig9", "fig12", "sensing", "dtm", "movie"];
/// Timed set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 31;

/// Reads every golden CSV in `results`, keyed by file stem.
fn load_goldens(results: &Path) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(results) else { return out };
    for e in entries.flatten() {
        let path = e.path();
        if path.extension().and_then(|x| x.to_str()) != Some("csv") {
            continue;
        }
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default().to_owned();
        if let Ok(text) = std::fs::read_to_string(&path) {
            out.insert(stem, text);
        }
    }
    out
}

/// The set-up a `figures` process pays once: the time-averaged gcc power
/// maps that `common::ev6_gcc` and `common::athlon_gcc` memoize, computed
/// the same way. Returns their total power.
fn gcc_power_maps() -> f64 {
    let ev6 = library::ev6();
    let athlon = library::athlon64();
    let runs = [
        (uarch::ev6_units(&ev6).expect("ev6 units align to the floorplan"), 42, 8_000),
        (uarch::athlon64_units(&athlon).expect("athlon64 units align to the floorplan"), 7, 6_000),
    ];
    runs.into_iter()
        .map(|(units, seed, samples)| {
            let cpu = SyntheticCpu::new(units, workload::gcc(), seed);
            cpu.simulate(samples).average().iter().sum::<f64>()
        })
        .sum()
}

/// Runs one experiment once, checking its artifacts; returns its time.
fn run_one(name: &str, goldens: &BTreeMap<String, String>, report: &mut Report) -> f64 {
    let t = Instant::now();
    let outcome = std::panic::catch_unwind(|| {
        span(&format!("registry.{name}"), || registry::run_experiment(name, Fidelity::Paper))
    });
    let secs = t.elapsed().as_secs_f64();
    report.attempted += 1;
    match outcome {
        Ok(artifacts) => check(name, &artifacts, goldens, report),
        Err(_) => report.fail(format!("experiment `{name}` panicked")),
    }
    secs
}

/// Runs the workload: one pass over the experiments, which fits in the
/// run's `seconds` (15–19 s on the machine the benchmark was defined on).
pub fn run(seed: u64, seconds: f64, results: &Path, report: &mut Report) {
    let goldens = load_goldens(results);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        std::hint::black_box(gcc_power_maps());
        setups.push(t.elapsed().as_secs_f64());
    }
    report.put("setup_s", median(&setups), "s");
    // Fill the memoized maps, so the pass times the experiments alone.
    std::hint::black_box((common::ev6_gcc(), common::athlon_gcc()));

    // Paper experiments have no random inputs, so the seed changes nothing
    // here; the canonical order keeps process-wide cache contents (and so
    // peak heap) the same from run to run.
    let _ = (seed, seconds);
    let traced = trace::enabled();
    let order: Vec<&str> = registry::EXPERIMENTS
        .iter()
        .copied()
        .filter(|e| traced || !HEAVY_SKIPPED.contains(e))
        .collect();
    let times: Vec<f64> = order.iter().map(|name| run_one(name, &goldens, report)).collect();
    // The traced pass also runs the heavy experiments; keep the end-to-end
    // figures over the set the untraced pass runs.
    let pass: Vec<f64> = order
        .iter()
        .zip(&times)
        .filter(|(name, _)| !HEAVY_SKIPPED.contains(name))
        .map(|(_, &t)| t)
        .collect();
    let wall: f64 = pass.iter().sum();
    report.put("wall_s", wall, "s");
    // Every workload prints every end-to-end metric. Here throughput and
    // the typical latency are `wall_s` restated (experiments per second,
    // and the mean time per experiment): the median of 17 experiments
    // that take 10 ms to 7 s jumps between the ~40 ms ones from run to run.
    report.put("throughput_ops_s", pass.len() as f64 / wall, "1/s");
    report.put("latency_p50_ms", wall / pass.len() as f64 * 1e3, "ms");
    // Nearest-rank p99 of 17 samples: the slowest experiment.
    report.put("latency_p99_ms", percentile(&pass, 99.0) * 1e3, "ms");

    if traced {
        let mut rest = 0.0;
        for (name, &s) in order.iter().zip(&times) {
            if NAMED.contains(name) {
                report.put(&format!("registry.{name}_s"), s, "s");
            } else {
                rest += s;
            }
        }
        report.put("registry.rest_s", rest, "s");
        trace_loop_replay(report);
        refsim_probe(report);
        cholesky_probe(&goldens, report);
    }
}

/// Diffs every artifact of one experiment against its golden.
fn check(
    name: &str,
    artifacts: &[(String, Artifact)],
    goldens: &BTreeMap<String, String>,
    report: &mut Report,
) {
    for (stem, artifact) in artifacts {
        let candidate = match artifact {
            Artifact::Table(t) => t.to_csv(),
            Artifact::RawCsv(csv) => csv.clone(),
        };
        let Some(golden) = goldens.get(stem) else {
            report.fail(format!("{name}: no golden results/{stem}.csv"));
            return;
        };
        let r = snapshot::diff_csv(stem, golden, &candidate);
        if !r.ok() {
            report.fail(format!("{name}: results/{stem}.csv {:?} {:?}", r.verdict, r.notes));
            return;
        }
    }
}

/// The fig12 loop (EV6 running gcc, paper 16×16 grid, one 10 K-cycle power
/// sample per backward-Euler run), replayed for a slice of its 40,000 steps
/// with spans around the power model and the thermal step.
fn trace_loop_replay(report: &mut Report) {
    const STEPS: usize = 2_000;
    let plan = library::ev6();
    let cfg = ModelConfig::paper_default().with_grid(16, 16).with_ambient(ambient_k());
    for (tag, package) in [
        ("air", Package::AirSink(AirSinkPackage::paper_default().with_r_convec(0.3))),
        ("oil", Package::OilSilicon(OilSiliconPackage::paper_default().with_target_r_convec(0.3))),
    ] {
        let model = ThermalModel::new(plan.clone(), package, cfg).expect("valid model");
        let cpu = SyntheticCpu::new(
            uarch::ev6_units(&plan).expect("ev6 units align to the floorplan"),
            workload::gcc(),
            42,
        );
        let dt = Workload::PAPER_SAMPLE_PERIOD;
        let mut sim = model.transient(dt);
        let warmup = cpu.simulate(cpu.workload().period_samples());
        sim.init_steady(&PowerMap::from_vec(&plan, warmup.average())).expect("steady init");
        let run_span = format!("model.transient_run.{tag}");
        for i in 0..STEPS {
            let watts = span("powersim.simulate_at", || cpu.simulate_at(i, None));
            let p = PowerMap::from_vec(&plan, watts);
            span(&run_span, || sim.run(&p, dt)).expect("transient step");
        }
        let hot = sim.solution().max_celsius();
        if !hot.is_finite() {
            report.fail(format!("fig12 replay ({tag}) produced a non-finite temperature"));
        }
        report.put(
            &format!("model.transient_run_us.{tag}"),
            trace::median_s(&run_span) * 1e6,
            "us",
        );
    }
    report.put("powersim.simulate_at_us", trace::median_s("powersim.simulate_at") * 1e6, "us");
}

/// The refsim solvers behind fig2 (explicit transient) and fig3 (steady
/// Gauss–Seidel), at the experiments' fast-fidelity sizes.
fn refsim_probe(report: &mut Report) {
    let sim = RefSim::new(RefSimConfig::paper_validation().with_grid(12, 12, 3, 3));
    let p = sim.uniform_power(200.0);
    let mut last = 0.0;
    span("refsim.transient", || sim.run_transient(&p, 1.0, 0.25, |_, f| last = f.center()));
    let sim = RefSim::new(RefSimConfig::paper_validation().with_grid(20, 20, 3, 4));
    let p = sim.center_source_power(2e-3, 10.0);
    let f = span("refsim.steady", || sim.solve_steady(&p, 20_000));
    if !(last > ambient_k() && f.max() > ambient_k()) {
        report.fail("refsim probe did not heat above ambient".into());
    }
    report.put("refsim.transient_s", trace::total_s("refsim.transient"), "s");
    report.put("refsim.steady_s", trace::total_s("refsim.steady"), "s");
}

/// Factors fig6's backward-Euler operators `C/dt + G` (24×24 grid, dt =
/// 2 ms) the way the stepper does, and times the two-sweep solve.
fn cholesky_probe(goldens: &BTreeMap<String, String>, report: &mut Report) {
    let plan = library::ev6();
    let cfg = ModelConfig::paper_default().with_grid(24, 24).with_ambient(ambient_k());
    let dt = 0.002;
    for (tag, package) in [
        ("air", Package::AirSink(AirSinkPackage::paper_default().with_r_convec(1.0))),
        ("oil", Package::OilSilicon(OilSiliconPackage::paper_default().with_target_r_convec(1.0))),
    ] {
        let model = ThermalModel::new(plan.clone(), package, cfg).expect("valid model");
        let c = model.circuit();
        let c_over_dt: Vec<f64> = c.capacitance().iter().map(|cap| cap / dt).collect();
        let a = c.conductance().add_diagonal(&c_over_dt);
        let factor = span(&format!("cholesky.fig6-{tag}.factor"), || LdlFactor::factor(&a))
            .expect("backward-Euler operator is SPD");
        let b: Vec<f64> = (0..a.dim()).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut x = vec![0.0; a.dim()];
        let solve = format!("cholesky.fig6-{tag}.solve");
        for _ in 0..20 {
            span(&solve, || factor.solve_into(&b, &mut x));
        }
        let ax = a.mul_vec(&x);
        let worst = ax.iter().zip(&b).map(|(p, q)| (p - q).abs() / q).fold(0.0, f64::max);
        if worst.is_nan() || worst >= 1e-8 {
            report.fail(format!("fig6 {tag} LDLt solve residual {worst:.3e}"));
        }
        let nnz = factor.nnz_l();
        let golden_nnz = goldens.get("fig06").and_then(|g| {
            g.lines()
                .find_map(|l| l.strip_prefix(&format!("# {tag}.factor_nnz = ")))
                .and_then(|v| v.trim().parse::<usize>().ok())
        });
        if golden_nnz.is_some_and(|g| g != nnz) {
            eprintln!(
                "perfbench: note: fig6 {tag} factor_nnz {nnz} differs from results/fig06.csv ({golden_nnz:?})"
            );
        }
        report.put(&format!("cholesky.fig6-{tag}.factor_s"), factor.factor_seconds(), "s");
        report.put(&format!("cholesky.fig6-{tag}.factor_nnz"), nnz as f64, "count");
        report.put(&format!("cholesky.fig6-{tag}.solve_ms"), trace::median_s(&solve) * 1e3, "ms");
    }
}
