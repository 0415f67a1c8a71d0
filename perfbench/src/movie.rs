//! `movie-128`: the `movie` experiment's 128×128 spectral transient, stepped
//! at 1 ms and exposure-averaged into 30 fps IR-camera frames for as many
//! frames as the run lasts.
//!
//! The first 30 frames replay the experiment exactly (a 15 ms-on / 85 ms-off
//! pulse on the Icache) and are diffed against `results/movie.csv`; after
//! that each 100 ms period gets a seeded pulse length and hot block. The
//! stepper's energy ledger is checked at the end.

use crate::stats::{median, percentile, Report, Rng};
use crate::trace::{self, span};
use hotiron_bench::common::ambient_k;
use hotiron_bench::report::{Row, Table};
use hotiron_dtm::{FrameAccumulator, IrCamera};
use hotiron_floorplan::{library, Floorplan};
use hotiron_thermal::fft::Dct2;
use hotiron_thermal::greens::SpectralTransient;
use hotiron_thermal::{ModelConfig, OilSiliconPackage, Package, PowerMap, ThermalModel};
use hotiron_verify::{snapshot, tol};
use std::path::Path;
use std::time::{Duration, Instant};

const GRID: usize = 128;
const DT: f64 = 1e-3;
/// Frames diffed against the golden (the whole `movie` experiment).
const GOLDEN_FRAMES: usize = 30;
/// Frames in the fixed clip `wall_s` reports: ten seconds of video.
const CLIP_FRAMES: f64 = 300.0;
/// Blocks the seeded pulses move between; the golden pulse uses the first.
const HOT_BLOCKS: [&str; 4] = ["Icache", "Dcache", "IntExec", "FPAdd"];
/// Timed set-up repetitions, after one untimed warm-up; `setup_s` is their
/// median.
const SETUP_REPS: usize = 9;

struct Rig {
    plan: Floorplan,
    model: ThermalModel,
    stepper: SpectralTransient,
}

fn build() -> Rig {
    let plan = library::ev6();
    let cfg = ModelConfig::paper_default().with_grid(GRID, GRID).with_ambient(ambient_k());
    let model = ThermalModel::new(
        plan.clone(),
        Package::OilSilicon(
            OilSiliconPackage::paper_default().with_target_r_convec(1.0).with_uniform_film(),
        ),
        cfg,
    )
    .expect("valid oil model");
    let stepper = span("greens.transient_new", || SpectralTransient::new(model.circuit(), DT))
        .expect("uniform-film oil stack qualifies for the spectral transient");
    Rig { plan, model, stepper }
}

/// 2 W/mm² over `block` (the experiment's hot-block source).
fn block_power(plan: &Floorplan, block: &str) -> PowerMap {
    let area = plan.block(block).expect("block exists").area();
    PowerMap::from_pairs(plan, [(block, 2.0e6 * area)]).expect("valid power")
}

/// Runs the workload for `seconds`, reading the golden from `results`.
pub fn run(seed: u64, seconds: f64, results: &Path, report: &mut Report) {
    let golden = std::fs::read_to_string(results.join("movie.csv"));
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut rig = None;
    for rep in 0..=SETUP_REPS {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(build());
        if rep > 0 {
            setups.push(t.elapsed().as_secs_f64());
        }
    }
    let Rig { plan, model, stepper } = rig.expect("built");
    report.put("setup_s", median(&setups), "s");

    let ambient = model.ambient();
    let maps: Vec<Vec<f64>> =
        HOT_BLOCKS.iter().map(|b| model.cell_power(&block_power(&plan, b))).collect();
    let off = vec![0.0; GRID * GRID];
    // Seeded schedule after the golden clip: (on-steps, block) per 100 ms.
    let mut rng = Rng::new(seed, 0x6d6f_7669);
    let periods: Vec<(usize, usize)> =
        (0..4096).map(|_| (5 + rng.below(26), rng.below(HOT_BLOCKS.len()))).collect();

    let mut acc = FrameAccumulator::new(
        IrCamera::typical(),
        DT,
        GRID,
        GRID,
        plan.width() / GRID as f64,
        plan.height() / GRID as f64,
    );
    let golden_steps = GOLDEN_FRAMES * acc.samples_per_frame();
    let mut state = stepper.state();
    let mut scratch = stepper.scratch();
    let mut field = vec![0.0; GRID * GRID];
    let mut table = Table::new(
        "Transient movie: spectral stepper at IR-camera cadence, hot block 15 ms on / 85 ms off (°C)",
        "time (ms)",
        vec!["camera hot".into(), "camera mean".into(), "model hot peak".into()],
    );
    let mut window_peak = f64::MIN;
    let mut frame_ms = Vec::new();
    let mut step = 0usize;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while frame_ms.len() < GOLDEN_FRAMES || start.elapsed() < budget {
        trace::set_request(frame_ms.len() as u64 + 1);
        let t0 = Instant::now();
        let frame = span("movie.frame", || loop {
            let p = if step < golden_steps {
                if step % 100 < 15 {
                    &maps[0]
                } else {
                    &off
                }
            } else {
                let (on, block) = periods[(step / 100) % periods.len()];
                if step % 100 < on {
                    &maps[block]
                } else {
                    &off
                }
            };
            step += 1;
            span("greens.step", || stepper.step(&mut state, p, &mut scratch));
            span("greens.emit_si", || stepper.emit_si(&state, ambient, &mut field, &mut scratch));
            for v in &mut field {
                *v -= 273.15;
            }
            window_peak = window_peak.max(field.iter().copied().fold(f64::MIN, f64::max));
            if let Some(done) = span("camera.push", || acc.push(&field)) {
                break done;
            }
        });
        frame_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        report.attempted += 1;
        let (t, pixels) = frame;
        let hot = pixels.iter().copied().fold(f64::MIN, f64::max);
        let mean = pixels.iter().sum::<f64>() / pixels.len() as f64;
        if !(hot.is_finite() && mean.is_finite() && window_peak.is_finite()) {
            report.fail(format!("frame {} has non-finite pixels", frame_ms.len()));
        }
        if frame_ms.len() <= GOLDEN_FRAMES {
            table.push(Row::new(format!("{:.0}", t * 1e3), vec![hot, mean, window_peak]));
        }
        if frame_ms.len() == GOLDEN_FRAMES {
            check_golden(golden.as_deref().ok(), &table, report);
        }
        window_peak = f64::MIN;
    }
    trace::set_request(0);
    let elapsed = start.elapsed().as_secs_f64();

    let residual = state.ledger().residual_rel();
    if residual.is_nan() || residual > tol::TRANSIENT_ENERGY_REL {
        report
            .fail(format!("energy ledger residual {residual:.3e} > {}", tol::TRANSIENT_ENERGY_REL));
    }

    let fps = frame_ms.len() as f64 / elapsed;
    report.put("throughput_ops_s", fps, "1/s");
    // Every workload prints every end-to-end metric; here `wall_s` is the
    // throughput restated, as the time to render a fixed clip.
    report.put("wall_s", CLIP_FRAMES / fps, "s");
    report.put("latency_p50_ms", median(&frame_ms), "ms");
    report.put("latency_p99_ms", percentile(&frame_ms, 99.0), "ms");

    if trace::enabled() {
        report.put("greens.transient_new_ms", trace::median_s("greens.transient_new") * 1e3, "ms");
        report.put("greens.step_us", trace::median_s("greens.step") * 1e6, "us");
        report.put("greens.emit_si_us", trace::median_s("greens.emit_si") * 1e6, "us");
        report.put("camera.push_us", trace::median_s("camera.push") * 1e6, "us");
        dct_probe(report);
    }
}

fn check_golden(golden: Option<&str>, table: &Table, report: &mut Report) {
    let Some(golden) = golden else {
        report.fail("results/movie.csv is missing".into());
        return;
    };
    let verdict = snapshot::diff_csv("movie", golden, &table.to_csv());
    if !verdict.ok() {
        for _ in 0..GOLDEN_FRAMES {
            report.fail(format!("movie frames drift from the golden: {:?}", verdict.verdict));
        }
    }
}

/// Times the 2-D DCT pair the spectral stepper is built on, at 128², and
/// reports bytes moved per transform (two separable passes, each reading
/// and writing the grid once) and the resulting bandwidth.
fn dct_probe(report: &mut Report) {
    const REPS: usize = 400;
    let dct = Dct2::new(GRID, GRID);
    let mut scratch = dct.scratch();
    let src: Vec<f64> = (0..GRID * GRID).map(|i| ((i * 7919) % 1000) as f64 * 1e-3).collect();
    let mut a = src.clone();
    let mut spec = vec![0.0; GRID * GRID];
    let mut back = vec![0.0; GRID * GRID];
    for _ in 0..REPS {
        a.copy_from_slice(&src);
        span("fft.dct2_forward", || dct.forward_into(&mut a, &mut spec, &mut scratch));
        span("fft.dct2_inverse", || dct.inverse_into(&mut spec, &mut back, &mut scratch));
    }
    let worst = src.iter().zip(&back).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max);
    if worst.is_nan() || worst >= 1e-9 {
        report.fail(format!("DCT round trip error {worst:.3e}"));
    }
    let fwd = trace::median_s("fft.dct2_forward");
    let inv = trace::median_s("fft.dct2_inverse");
    let bytes = (4 * GRID * GRID * std::mem::size_of::<f64>()) as f64;
    report.put("fft.dct2_forward_us", fwd * 1e6, "us");
    report.put("fft.dct2_inverse_us", inv * 1e6, "us");
    report.put("fft.dct2_bytes", bytes, "bytes");
    report.put("fft.dct2_gb_s", bytes / fwd.max(1e-12) / 1e9, "GB/s");
}
