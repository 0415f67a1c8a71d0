//! Figs 6, 8, 9: transient comparisons of AIR-SINK and OIL-SILICON, plus the
//! IR-camera-rate transient movie built on the spectral stepper.

use crate::common::{ambient_k, Fidelity, AMBIENT_C};
use crate::report::{Row, Table};
use hotiron_dtm::{FrameAccumulator, IrCamera};
use hotiron_floorplan::library;
use hotiron_thermal::greens::SpectralTransient;
use hotiron_thermal::model::TransientSim;
use hotiron_thermal::{
    AirSinkPackage, MgStats, ModelConfig, OilSiliconPackage, Package, PowerMap, SolverChoice,
    ThermalModel,
};

/// The Fig 6/8 hot block: Icache at the paper's 2.0 W/mm² power density.
const HOT_BLOCK: &str = "Icache";

fn hot_block_power(plan: &hotiron_floorplan::Floorplan) -> PowerMap {
    let area = plan.block(HOT_BLOCK).expect("block exists").area();
    PowerMap::from_pairs(plan, [(HOT_BLOCK, 2.0e6 * area)]).expect("valid power")
}

/// Snapshot of a finished simulation's solver telemetry: which linear solver
/// ran the steps, the factor fill-in it carried, how many solves amortized
/// that one factorization, and the multigrid hierarchy used by the steady
/// initialization (if any).
struct SolverTelemetry {
    solver: &'static str,
    factor_nnz: usize,
    solves: usize,
    multigrid: Option<MgStats>,
}

fn solver_telemetry(sim: &TransientSim<'_>) -> SolverTelemetry {
    let stepper = sim.stepper();
    // Backward Euler steps on LDLᵀ or, failing a factorization, CG.
    let solver = if stepper.solver() == SolverChoice::Direct { "ldlt" } else { "cg" };
    SolverTelemetry {
        solver,
        factor_nnz: stepper.factor_nnz(),
        solves: stepper.solve_count(),
        multigrid: sim.model().last_solve_stats().and_then(|s| s.multigrid),
    }
}

/// Records solver telemetry under `<key>.*` meta entries of the table.
/// `<key>.mg_levels` is always present (0 when no solve on this model used
/// multigrid); the remaining `mg_*` keys appear only when one did:
/// `mg_cells` (per-level node counts, finest first, `/`-separated),
/// `mg_sweeps` (pre+post smoother sweeps), `mg_cycles` (V-cycles of the most
/// recent steady solve).
fn record_solver_meta(table: &mut Table, key: &str, telemetry: SolverTelemetry) {
    table.set_meta(format!("{key}.solver"), telemetry.solver);
    table.set_meta(format!("{key}.factor_nnz"), telemetry.factor_nnz.to_string());
    table.set_meta(format!("{key}.solves"), telemetry.solves.to_string());
    table
        .set_meta(format!("{key}.threads"), hotiron_thermal::pool::current().threads().to_string());
    match telemetry.multigrid {
        Some(mg) => {
            table.set_meta(format!("{key}.mg_levels"), mg.levels.len().to_string());
            let cells: Vec<String> = mg.levels.iter().map(|l| l.nodes.to_string()).collect();
            table.set_meta(format!("{key}.mg_cells"), cells.join("/"));
            table.set_meta(format!("{key}.mg_sweeps"), format!("{0}+{0}", mg.sweeps));
            table.set_meta(format!("{key}.mg_cycles"), mg.cycles.to_string());
        }
        None => {
            table.set_meta(format!("{key}.mg_levels"), "0");
        }
    }
}

fn ev6_pair(grid: usize) -> (ThermalModel, ThermalModel) {
    let plan = library::ev6();
    let cfg = ModelConfig::paper_default().with_grid(grid, grid).with_ambient(ambient_k());
    let air = ThermalModel::new(
        plan.clone(),
        Package::AirSink(AirSinkPackage::paper_default().with_r_convec(1.0)),
        cfg,
    )
    .expect("valid air model");
    let oil = ThermalModel::new(
        plan,
        Package::OilSilicon(OilSiliconPackage::paper_default().with_target_r_convec(1.0)),
        cfg,
    )
    .expect("valid oil model");
    (air, oil)
}

/// Fig 6: warmup from ambient with a constant hot block (2 W/mm²), both
/// packages at Rconv = 1.0 K/W. Columns: hot-block and coolest-block
/// temperatures for each package (°C).
pub fn fig6(fidelity: Fidelity) -> Table {
    let grid = fidelity.pick(12, 24);
    let duration: f64 = fidelity.pick(2.0, 6.0);
    let dt = fidelity.pick(0.01, 0.002);
    let sample: f64 = fidelity.pick(0.2, 0.05);
    let (air, oil) = ev6_pair(grid);
    let plan = air.floorplan().clone();
    let power = hot_block_power(&plan);

    let mut sim_a = air.transient(dt);
    let mut sim_o = oil.transient(dt);
    let mut table = Table::new(
        "Fig 6: warmup transients, hot block @2 W/mm², Rconv=1.0 both (°C)",
        "time (s)",
        vec!["AIR hot".into(), "AIR cool".into(), "OIL hot".into(), "OIL cool".into()],
    );
    table.push(Row::new("0.00", vec![AMBIENT_C; 4]));
    let n = (duration / sample).round() as usize;
    for s in 1..=n {
        sim_a.run(&power, sample).expect("air step");
        sim_o.run(&power, sample).expect("oil step");
        let sa = sim_a.solution();
        let so = sim_o.solution();
        table.push(Row::new(
            format!("{:.2}", s as f64 * sample),
            vec![
                sa.block(HOT_BLOCK),
                sa.coolest_block().1,
                so.block(HOT_BLOCK),
                so.coolest_block().1,
            ],
        ));
    }
    record_solver_meta(&mut table, "air", solver_telemetry(&sim_a));
    record_solver_meta(&mut table, "oil", solver_telemetry(&sim_o));
    table.note("paper: OIL reaches steady state sooner (smaller long-term tau) but ends far hotter at the hot spot and cooler at the cool spot");
    table
}

/// Fig 8: short-term oscillation around the periodic steady state — the hot
/// block pulses 15 ms on / 85 ms off. Columns: hot-block temperature *rise*
/// above ambient for each package (K).
pub fn fig8(fidelity: Fidelity) -> Table {
    let grid = fidelity.pick(12, 24);
    let dt = fidelity.pick(1e-3, 5e-4);
    let duration = 0.1; // one full period
    let (air, oil) = ev6_pair(grid);
    let plan = air.floorplan().clone();
    let peak = hot_block_power(&plan);
    let avg = peak.scaled(0.15); // 15 ms / 100 ms duty cycle
    let off = PowerMap::zeros(&plan);

    let run = |model: &ThermalModel| -> (Vec<(f64, f64)>, SolverTelemetry) {
        let mut sim = model.transient(dt);
        sim.init_steady(&avg).expect("steady init");
        let mut out = Vec::new();
        let n = (duration / dt).round() as usize;
        for i in 0..n {
            let t = i as f64 * dt;
            let p = if t < 0.015 { &peak } else { &off };
            sim.run(p, dt).expect("transient step");
            out.push((t + dt, sim.solution().block(HOT_BLOCK) - AMBIENT_C));
        }
        (out, solver_telemetry(&sim))
    };
    let (a, tel_a) = run(&air);
    let (o, tel_o) = run(&oil);

    let mut table = Table::new(
        "Fig 8: short-term transient, 15 ms on / 85 ms off (K above ambient)",
        "time (ms)",
        vec!["oil flow".into(), "heatsink".into()],
    );
    let stride = fidelity.pick(5, 4);
    for i in (0..a.len()).step_by(stride) {
        table.push(Row::new(format!("{:.1}", a[i].0 * 1e3), vec![o[i].1, a[i].1]));
    }
    record_solver_meta(&mut table, "air", tel_a);
    record_solver_meta(&mut table, "oil", tel_o);
    table.note("paper: AIR-SINK returns to baseline within ~3 ms of power-off; OIL-SILICON cools far slower and quasi-linearly");
    table
}

/// Fig 9: hot-spot migration — 2 W on IntReg for 10 ms, then 2 W on FPMap.
/// Reports both block temperatures at 14 ms and which is hottest.
pub fn fig9(fidelity: Fidelity) -> Table {
    let grid = fidelity.pick(16, 32);
    let dt = 2.5e-4;
    let (air, oil) = ev6_pair(grid);
    let plan = air.floorplan().clone();
    let p_int = PowerMap::from_pairs(&plan, [("IntReg", 2.0)]).expect("valid power");
    let p_fp = PowerMap::from_pairs(&plan, [("FPMap", 2.0)]).expect("valid power");

    let run = |model: &ThermalModel| -> (Vec<(f64, f64, f64)>, SolverTelemetry) {
        let mut sim = model.transient(dt);
        sim.init_steady(&p_int).expect("steady init");
        let mut out = Vec::new();
        let n = (0.015 / dt).round() as usize;
        for i in 0..n {
            let t = i as f64 * dt;
            let p = if t < 0.010 { &p_int } else { &p_fp };
            sim.run(p, dt).expect("transient step");
            let sol = sim.solution();
            out.push((t + dt, sol.block("IntReg") - AMBIENT_C, sol.block("FPMap") - AMBIENT_C));
        }
        (out, solver_telemetry(&sim))
    };
    let (a, tel_a) = run(&air);
    let (o, tel_o) = run(&oil);

    let mut table = Table::new(
        "Fig 9: hot-spot migration, IntReg 2 W (0-10 ms) then FPMap 2 W (K above ambient)",
        "time (ms)",
        vec!["AIR IntReg".into(), "AIR FPMap".into(), "OIL IntReg".into(), "OIL FPMap".into()],
    );
    for i in (0..a.len()).step_by(2) {
        table.push(Row::new(format!("{:.2}", a[i].0 * 1e3), vec![a[i].1, a[i].2, o[i].1, o[i].2]));
    }
    record_solver_meta(&mut table, "air", tel_a);
    record_solver_meta(&mut table, "oil", tel_o);
    let at = |series: &[(f64, f64, f64)], t: f64| {
        series
            .iter()
            .min_by(|x, y| (x.0 - t).abs().total_cmp(&(y.0 - t).abs()))
            .copied()
            .expect("series non-empty")
    };
    let (_, ai, af) = at(&a, 0.014);
    let (_, oi, of) = at(&o, 0.014);
    table.note(format!(
        "at 14 ms — AIR: IntReg {ai:.2} K vs FPMap {af:.2} K ({}); OIL: IntReg {oi:.2} K vs FPMap {of:.2} K ({})",
        if af > ai { "FPMap now hottest ✓ paper" } else { "IntReg still hottest" },
        if oi > of { "IntReg still hottest ✓ paper" } else { "FPMap now hottest" },
    ));
    table
}

/// The transient movie: the spectral stepper advancing an OIL-SILICON die at
/// 1 kHz under the Fig 8 pulse train (hot block 15 ms on / 85 ms off),
/// batched to IR-camera cadence (30 fps, 0.2 mm PSF) through
/// [`FrameAccumulator`]. One row per camera frame: what the camera records
/// (blurred, exposure-averaged hot-spot and mean) next to what the model
/// knows (the true instantaneous hot-spot peak inside that exposure window)
/// — §5.1's "the camera misses short emergencies" as a golden artifact.
///
/// # Panics
///
/// Panics if the uniform-film oil stack fails spectral-transient
/// eligibility (a regression in the eligibility gate or the package
/// lowering).
pub fn movie(fidelity: Fidelity) -> Table {
    let grid = fidelity.pick(32, 128);
    let frames = fidelity.pick(8, 30);
    let dt = 1e-3;
    let plan = library::ev6();
    let cfg = ModelConfig::paper_default().with_grid(grid, grid).with_ambient(ambient_k());
    let oil = ThermalModel::new(
        plan.clone(),
        // The spectral stepper needs a fully position-independent film; the
        // paper-default local boundary layer would disqualify the stack.
        Package::OilSilicon(
            OilSiliconPackage::paper_default().with_target_r_convec(1.0).with_uniform_film(),
        ),
        cfg,
    )
    .expect("valid oil model");
    let ambient = oil.ambient();
    let stepper = SpectralTransient::new(oil.circuit(), dt)
        .expect("uniform-film oil stack qualifies for the spectral transient");
    let camera = IrCamera::typical();
    let mut acc = FrameAccumulator::new(
        camera,
        dt,
        grid,
        grid,
        plan.width() / grid as f64,
        plan.height() / grid as f64,
    );
    let p_on = oil.cell_power(&hot_block_power(&plan));
    let p_off = vec![0.0; p_on.len()];

    let mut table = Table::new(
        "Transient movie: spectral stepper at IR-camera cadence, hot block 15 ms on / 85 ms off (°C)",
        "time (ms)",
        vec!["camera hot".into(), "camera mean".into(), "model hot peak".into()],
    );
    let mut state = stepper.state();
    let mut scratch = stepper.scratch();
    let mut field = vec![0.0; grid * grid];
    let mut window_peak = f64::MIN;
    let steps = frames * acc.samples_per_frame();
    for i in 0..steps {
        // 100 ms pulse period, on for the first 15 ms of each (Fig 8).
        let p = if i % 100 < 15 { &p_on } else { &p_off };
        stepper.step(&mut state, p, &mut scratch);
        stepper.emit_si(&state, ambient, &mut field, &mut scratch);
        for v in &mut field {
            *v -= 273.15;
        }
        window_peak = window_peak.max(field.iter().cloned().fold(f64::MIN, f64::max));
        if let Some((t, frame)) = acc.push(&field) {
            let hot = frame.iter().cloned().fold(f64::MIN, f64::max);
            let mean = frame.iter().sum::<f64>() / frame.len() as f64;
            table.push(Row::new(format!("{:.0}", t * 1e3), vec![hot, mean, window_peak]));
            window_peak = f64::MIN;
        }
    }
    table.set_meta("movie.solver", "spectral-transient");
    table.set_meta("movie.threads", hotiron_thermal::pool::current().threads().to_string());
    table.set_meta("movie.samples_per_frame", acc.samples_per_frame().to_string());
    table.set_meta("movie.ledger_residual", format!("{:.3e}", state.ledger().residual_rel()));
    let cam_peak = table.rows.iter().map(|r| r.values[0]).fold(f64::MIN, f64::max);
    let true_peak = table.rows.iter().map(|r| r.values[2]).fold(f64::MIN, f64::max);
    table.note(format!(
        "camera peak {cam_peak:.2} °C vs model peak {true_peak:.2} °C — exposure averaging and \
         optical blur hide {:.2} K of the true excursion (§5.1)",
        true_peak - cam_peak
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(t: &Table, idx: usize) -> Vec<f64> {
        t.rows.iter().map(|r| r.values[idx]).collect()
    }

    #[test]
    fn fig6_oil_hot_spot_far_hotter() {
        // Within the plotted window OIL is near steady while AIR's huge sink
        // capacitance keeps it far below its own steady state.
        let t = fig6(Fidelity::Fast);
        let last = t.rows.last().expect("rows");
        let (air_hot, oil_hot) = (last.values[0], last.values[2]);
        assert!(oil_hot > air_hot + 20.0, "oil hot {oil_hot} vs air hot {air_hot}");
    }

    #[test]
    fn fig6_steady_cool_block_is_warmer_under_air() {
        // The paper's caption: "for AIR-SINK, the steady-state temperature at
        // the cool block is actually higher than OIL-SILICON" — copper
        // spreading warms the whole die, the oil leaves remote blocks cool.
        let (air, oil) = ev6_pair(12);
        let power = hot_block_power(air.floorplan());
        let sa = air.steady_state(&power).expect("steady");
        let so = oil.steady_state(&power).expect("steady");
        assert!(
            sa.coolest_block().1 > so.coolest_block().1,
            "air cool {:?} vs oil cool {:?}",
            sa.coolest_block(),
            so.coolest_block()
        );
        assert!(so.hottest_block().1 > sa.hottest_block().1 + 30.0);
    }

    #[test]
    fn fig6_oil_reaches_steady_sooner() {
        let t = fig6(Fidelity::Fast);
        // Fraction of final rise reached halfway through the window.
        let frac = |c: &[f64]| {
            let end = c.last().expect("values") - AMBIENT_C;
            let mid = c[c.len() / 2] - AMBIENT_C;
            mid / end
        };
        let air = frac(&col(&t, 0));
        let oil = frac(&col(&t, 2));
        assert!(oil > air, "oil settles faster during warmup: {oil} vs {air}");
    }

    #[test]
    fn fig6_reports_solver_telemetry() {
        let t = fig6(Fidelity::Fast);
        for key in ["air", "oil"] {
            assert_eq!(t.get_meta(&format!("{key}.solver")), Some("ldlt"));
            let nnz: usize =
                t.get_meta(&format!("{key}.factor_nnz")).expect("meta").parse().expect("usize");
            let solves: usize =
                t.get_meta(&format!("{key}.solves")).expect("meta").parse().expect("usize");
            assert!(nnz > 0, "{key} factor fill-in recorded");
            assert!(solves > 0, "{key} amortized solve count recorded");
            // fig6 never steady-solves, so no multigrid hierarchy was used.
            assert_eq!(t.get_meta(&format!("{key}.mg_levels")), Some("0"));
            assert_eq!(t.get_meta(&format!("{key}.mg_cycles")), None);
        }
    }

    #[test]
    fn mg_meta_records_hierarchy() {
        use hotiron_thermal::multigrid::MgLevelStats;
        let mut t = Table::new("t", "k", vec!["v".to_string()]);
        let telemetry = SolverTelemetry {
            solver: "mg-cg",
            factor_nnz: 7,
            solves: 3,
            multigrid: Some(MgStats {
                cycles: 11,
                sweeps: 1,
                levels: vec![
                    MgLevelStats { rows: 64, cols: 64, nodes: 16401, seconds: 0.0 },
                    MgLevelStats { rows: 32, cols: 32, nodes: 4101, seconds: 0.0 },
                ],
            }),
        };
        record_solver_meta(&mut t, "sim", telemetry);
        assert_eq!(t.get_meta("sim.solver"), Some("mg-cg"));
        assert_eq!(t.get_meta("sim.mg_levels"), Some("2"));
        assert_eq!(t.get_meta("sim.mg_cells"), Some("16401/4101"));
        assert_eq!(t.get_meta("sim.mg_sweeps"), Some("1+1"));
        assert_eq!(t.get_meta("sim.mg_cycles"), Some("11"));
    }

    #[test]
    fn movie_camera_misses_part_of_the_excursion() {
        let t = movie(Fidelity::Fast);
        assert_eq!(t.rows.len(), 8, "one row per camera frame");
        assert_eq!(t.get_meta("movie.solver"), Some("spectral-transient"));
        assert_eq!(t.get_meta("movie.samples_per_frame"), Some("33"), "33 ms exposure at 1 kHz");
        // The exact exponential stepper's energy books must balance.
        let residual: f64 =
            t.get_meta("movie.ledger_residual").expect("meta").parse().expect("float");
        assert!(residual < 1e-9, "ledger residual {residual}");
        for r in &t.rows {
            let (cam_hot, cam_mean, model_peak) = (r.values[0], r.values[1], r.values[2]);
            assert!(cam_mean <= cam_hot + 1e-9, "mean below hot spot");
            // Exposure averaging + blur can only lose peak, never invent it.
            assert!(cam_hot <= model_peak + 1e-9, "camera hot {cam_hot} vs model {model_peak}");
        }
        // The 15 ms pulse inside a 33 ms exposure must cost the camera a
        // visible chunk of the true peak (§5.1).
        let cam_peak = t.rows.iter().map(|r| r.values[0]).fold(f64::MIN, f64::max);
        let true_peak = t.rows.iter().map(|r| r.values[2]).fold(f64::MIN, f64::max);
        assert!(true_peak > cam_peak + 0.5, "camera {cam_peak} vs true {true_peak}");
    }

    #[test]
    fn fig8_oil_cools_slower() {
        let t = fig8(Fidelity::Fast);
        // Find the peak, then compare the decay 10 ms later (relative).
        let oil = col(&t, 0);
        let air = col(&t, 1);
        let times: Vec<f64> = t.rows.iter().map(|r| r.label.parse::<f64>().unwrap()).collect();
        let peak_i = air.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).expect("rows").0;
        let later_i =
            times.iter().position(|&x| x >= times[peak_i] + 10.0).unwrap_or(times.len() - 1);
        let air_decay = (air[peak_i] - air[later_i]) / air[peak_i];
        let oil_decay = (oil[peak_i] - oil[later_i]) / oil[peak_i].max(1e-9);
        assert!(
            air_decay > oil_decay + 0.1,
            "air must shed its pulse much faster: {air_decay} vs {oil_decay}"
        );
    }

    #[test]
    fn fig9_hotspot_migrates_only_under_air() {
        let t = fig9(Fidelity::Fast);
        let note = t.notes.last().expect("note");
        assert!(note.contains("FPMap now hottest ✓ paper"), "air migration: {note}");
        assert!(note.contains("IntReg still hottest ✓ paper"), "oil persistence: {note}");
    }
}
