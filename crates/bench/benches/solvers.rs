//! Criterion benchmarks: cost of the core solver paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hotiron_floorplan::{library, GridMapping};
use hotiron_refsim::{RefSim, RefSimConfig};
use hotiron_thermal::circuit::{
    build_circuit, build_circuit_from_board, build_circuit_from_stack, DieGeometry,
};
use hotiron_thermal::greens::SpectralTransient;
use hotiron_thermal::multigrid::mg_pcg;
use hotiron_thermal::solve::{solve_steady_with, BackwardEuler, SolverChoice};
use hotiron_thermal::sparse::conjugate_gradient;
use hotiron_thermal::{
    materials, AirSinkPackage, Board, Boundary, Layer, LayerStack, ModelConfig, OilSiliconPackage,
    Package, PcbSpec, Placement, PowerMap, Rotation, ThermalModel,
};
use std::hint::black_box;

fn die() -> DieGeometry {
    DieGeometry { width: 0.016, height: 0.016, thickness: 0.5e-3 }
}

/// A two-package PCB board (powered cpu + passive dram) on a shared
/// `grid`×`grid` plane grid, with the per-placement mappings the assembler
/// stamps through.
fn board_2pkg(grid: usize) -> (Board, Vec<GridMapping>) {
    let pcb = PcbSpec {
        width: 0.05,
        height: 0.03,
        thickness: 1.6e-3,
        material: materials::PCB,
        bottom: Boundary::Lumped { r_total: 8.0, c_total: 20.0 },
    };
    let place = |name: &str, side: f64, x: f64, y: f64, top: Boundary| Placement {
        name: name.into(),
        die: DieGeometry { width: side, height: side, thickness: 0.5e-3 },
        stack: LayerStack::new(vec![Layer::new("silicon", materials::SILICON, 0.5e-3)], 0)
            .with_bottom(Boundary::Insulated)
            .with_top(top),
        x,
        y,
        rotation: Rotation::R0,
    };
    let board = Board::new(grid, grid, pcb)
        .with_placement(place(
            "cpu",
            0.016,
            0.005,
            0.007,
            Boundary::Lumped { r_total: 2.0, c_total: 30.0 },
        ))
        .with_placement(place("dram", 0.01, 0.035, 0.01, Boundary::Insulated));
    let mappings = board
        .placements
        .iter()
        .map(|p| GridMapping::new(&library::uniform_die(p.die.width, p.die.height), grid, grid))
        .collect();
    (board, mappings)
}

/// Cost of stamping a multi-die board into one circuit: per-placement stack
/// lowering plus the shared-PCB coupling stamps, the work the board branch
/// of the circuit cache amortizes.
fn bench_board_assembly(c: &mut Criterion) {
    let mut g = c.benchmark_group("board_assembly");
    for grid in [16usize, 32] {
        let (board, mappings) = board_2pkg(grid);
        g.bench_with_input(BenchmarkId::new("2pkg", grid), &grid, |b, _| {
            b.iter(|| build_circuit_from_board(black_box(&board), &mappings).unwrap())
        });
    }
    g.finish();
}

/// Steady solve over an assembled two-package board at the scenario grid:
/// MG-PCG (the board-scale production path — boards are spectrally
/// ineligible) against plain Jacobi-PCG on the same operator.
fn bench_steady_board_2pkg(c: &mut Criterion) {
    let grid = 32usize;
    let (board, mappings) = board_2pkg(grid);
    let circuit = build_circuit_from_board(&board, &mappings).unwrap();
    let n = circuit.cell_count();
    let mut p = vec![0.0; board.placements.len() * n];
    for cell in &mut p[..n] {
        *cell = 25.0 / n as f64;
    }
    let mut g = c.benchmark_group("steady_board_2pkg");
    g.sample_size(20);
    for (label, choice) in [("mg", SolverChoice::Multigrid), ("cg", SolverChoice::Cg)] {
        g.bench_function(format!("{label}_{grid}x{grid}"), |b| {
            b.iter(|| {
                let mut s = vec![318.15; circuit.node_count()];
                solve_steady_with(&circuit, black_box(&p), 318.15, &mut s, choice).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_assembly(c: &mut Criterion) {
    let plan = library::ev6();
    let mut g = c.benchmark_group("assembly");
    for grid in [16usize, 32, 64] {
        let mapping = GridMapping::new(&plan, grid, grid);
        g.bench_with_input(BenchmarkId::new("oil", grid), &grid, |b, _| {
            b.iter(|| {
                build_circuit(
                    black_box(&mapping),
                    die(),
                    &Package::OilSilicon(OilSiliconPackage::paper_default()),
                )
                .unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("air", grid), &grid, |b, _| {
            b.iter(|| {
                build_circuit(
                    black_box(&mapping),
                    die(),
                    &Package::AirSink(AirSinkPackage::paper_default()),
                )
                .unwrap()
            })
        });
    }
    // The large-grid assembly case: 128×128 oil, the stack-lowering +
    // stamping cost the content-hash circuit cache exists to amortize.
    {
        let mapping = GridMapping::new(&plan, 128, 128);
        let stack = Package::OilSilicon(OilSiliconPackage::paper_default())
            .to_stack(die())
            .expect("paper oil package lowers");
        g.sample_size(10);
        g.bench_with_input(BenchmarkId::new("oil", 128), &128usize, |b, _| {
            b.iter(|| build_circuit_from_stack(black_box(&mapping), die(), &stack).unwrap())
        });
    }
    g.finish();
}

fn bench_steady(c: &mut Criterion) {
    let plan = library::ev6();
    let mut g = c.benchmark_group("steady");
    g.sample_size(20);
    for grid in [16usize, 32, 64] {
        let model = ThermalModel::new(
            plan.clone(),
            Package::OilSilicon(OilSiliconPackage::paper_default()),
            ModelConfig::paper_default().with_grid(grid, grid),
        )
        .unwrap();
        let power = PowerMap::from_pairs(&plan, [("IntReg", 4.0), ("L2", 10.0)]).unwrap();
        let p = model.cell_power(&power);
        // Explicit CG with a cold state per iteration: `steady_state` now
        // warm-starts from the previous solve and auto-selects multigrid at
        // 64×64, either of which would change what this baseline measures.
        g.bench_with_input(BenchmarkId::new("oil_cg", grid), &grid, |b, _| {
            b.iter(|| {
                let mut s = model.initial_state();
                solve_steady_with(model.circuit(), black_box(&p), 318.15, &mut s, SolverChoice::Cg)
                    .unwrap()
            })
        });
    }
    g.finish();
}

/// The parallel-kernel showcase: repeated cold-start CG solves on the 64×64
/// OIL-SILICON grid (the largest steady case), where SpMV and the vector
/// kernels dominate. The bench-gate baseline pins this at the CI thread
/// count; compare `HOTIRON_THREADS=1` vs `4` to see the pool's speedup.
fn bench_steady_cg_64x64(c: &mut Criterion) {
    let plan = library::ev6();
    let model = ThermalModel::new(
        plan.clone(),
        Package::OilSilicon(OilSiliconPackage::paper_default()),
        ModelConfig::paper_default().with_grid(64, 64),
    )
    .unwrap();
    let power = PowerMap::from_pairs(&plan, [("IntReg", 4.0), ("L2", 10.0)]).unwrap();
    let p = model.cell_power(&power);
    let mut g = c.benchmark_group("steady_cg_64x64_oil");
    g.sample_size(10);
    g.bench_function("cold", |b| {
        b.iter(|| {
            let mut s = model.initial_state();
            solve_steady_with(model.circuit(), black_box(&p), 318.15, &mut s, SolverChoice::Cg)
                .unwrap()
        })
    });
    g.finish();
}

/// IR-camera-resolution steady solves: multigrid-preconditioned CG against
/// plain Jacobi-PCG on the same operator, same 1e-9 tolerance, cold state
/// per iteration. The hierarchy is built once outside the timing loop, as
/// in production (`ThermalCircuit` caches it per circuit). CG comparators
/// run at 128×128 only — at 256×256 a single CG solve takes longer than the
/// whole MG sample set, and the 128×128 pair already pins the crossover.
fn bench_steady_large(c: &mut Criterion) {
    let plan = library::ev6();
    let cases: [(&str, usize, Package); 3] = [
        ("128x128_oil", 128, Package::OilSilicon(OilSiliconPackage::paper_default())),
        ("128x128_air", 128, Package::AirSink(AirSinkPackage::paper_default())),
        ("256x256_oil", 256, Package::OilSilicon(OilSiliconPackage::paper_default())),
    ];
    let mut g = c.benchmark_group("steady_large");
    g.sample_size(10);
    for (label, grid, pkg) in cases {
        let mapping = GridMapping::new(&plan, grid, grid);
        let circuit = build_circuit(&mapping, die(), &pkg).unwrap();
        let p = vec![40.0 / (grid * grid) as f64; grid * grid];
        let rhs = circuit.rhs(&p, 318.15);
        let mg = circuit.multigrid().expect("grid large enough for a hierarchy");
        g.bench_function(format!("steady_mg_{label}"), |b| {
            b.iter(|| {
                let mut s = vec![318.15; circuit.node_count()];
                let stats = mg_pcg(mg, black_box(&rhs), &mut s, 1e-9, 200);
                assert!(stats.converged, "mg-cg must converge: {stats:?}");
                stats.iterations
            })
        });
        if grid == 128 {
            g.bench_function(format!("steady_cg_{label}"), |b| {
                b.iter(|| {
                    let mut s = vec![318.15; circuit.node_count()];
                    let cap = 40 * circuit.node_count() + 1000;
                    let stats = conjugate_gradient(
                        circuit.conductance(),
                        black_box(&rhs),
                        &mut s,
                        1e-9,
                        cap,
                    );
                    assert!(stats.converged, "cg must converge: {stats:?}");
                    stats.iterations
                })
            });
        }
    }
    g.finish();
}

/// The spectral Green's-function path at IR-camera resolution: a 256×256
/// qualifying bare-die stack, unit-source response precomputed once outside
/// the loop (as the process-wide response LRU does in production), each
/// iteration one O(n log n) evaluation with reused scratch. The point of the
/// backend: the same steady map `steady_mg_256x256_oil` takes ~70 ms of
/// multigrid lands in well under a millisecond here.
fn bench_steady_spectral_256x256(c: &mut Criterion) {
    let grid = 256usize;
    let plan = library::uniform_die(0.016, 0.016);
    let mapping = GridMapping::new(&plan, grid, grid);
    let stack =
        LayerStack::new(vec![Layer::new("silicon", materials::SILICON, die().thickness)], 0)
            .with_top(Boundary::Lumped { r_total: 2.0, c_total: 30.0 });
    let circuit = build_circuit_from_stack(&mapping, die(), &stack).unwrap();
    let resp = circuit.spectral().expect("bare-die stack qualifies").clone();
    let p = vec![40.0 / (grid * grid) as f64; grid * grid];
    let mut scratch = resp.scratch();
    let mut state = vec![318.15; circuit.node_count()];
    let mut g = c.benchmark_group("steady_spectral_256x256");
    g.sample_size(20);
    g.bench_function("warm", |b| {
        b.iter(|| {
            let residual = resp.solve_into(black_box(&p), 318.15, &mut state, &mut scratch);
            assert!(residual <= 1e-5, "energy residual {residual}");
            residual
        })
    });
    g.finish();
}

fn bench_transient_step(c: &mut Criterion) {
    let plan = library::ev6();
    let mut g = c.benchmark_group("transient_step");
    for grid in [16usize, 32] {
        for (label, pkg) in [
            ("oil", Package::OilSilicon(OilSiliconPackage::paper_default())),
            ("air", Package::AirSink(AirSinkPackage::paper_default())),
        ] {
            let mapping = GridMapping::new(&plan, grid, grid);
            let circuit = build_circuit(&mapping, die(), &pkg).unwrap();
            let be = BackwardEuler::new(&circuit, 1e-4);
            let p = vec![40.0 / (grid * grid) as f64; grid * grid];
            let mut state = vec![318.15; circuit.node_count()];
            // Warm the state so each iteration measures a converged-regime step.
            for _ in 0..10 {
                be.step(&mut state, &p, 318.15).unwrap();
            }
            g.bench_with_input(BenchmarkId::new(label, grid), &grid, |b, _| {
                b.iter(|| {
                    let mut s = state.clone();
                    be.step(black_box(&mut s), &p, 318.15).unwrap()
                })
            });
        }
    }
    g.finish();
}

/// The headline hot path: a 1000-step backward-Euler transient on the 32×32
/// OIL-SILICON grid, factorize-once LDLᵀ vs CG-per-step. Before timing, every
/// direct solve along the trajectory is checked against a tight-tolerance
/// (1e-13) CG solve of the same linear system: ≤1e-8 per-node agreement.
/// (Trajectory-vs-trajectory comparison would instead measure CG's own
/// 1e-10-tolerance slack accumulated over 1000 steps.)
fn bench_transient_1000_steps(c: &mut Criterion) {
    let plan = library::ev6();
    let grid = 32;
    let mapping = GridMapping::new(&plan, grid, grid);
    let circuit =
        build_circuit(&mapping, die(), &Package::OilSilicon(OilSiliconPackage::paper_default()))
            .unwrap();
    let n = circuit.node_count();
    let p = vec![40.0 / (grid * grid) as f64; grid * grid];
    // The paper-scale warmup step (fig 6 uses dt = 0.01 s): the regime where
    // G dominates C/dt, so CG needs its full iteration budget per step.
    let dt = 1e-2;
    let steps = 1000;

    let c_over_dt: Vec<f64> = circuit.capacitance().iter().map(|cap| cap / dt).collect();
    let operator = circuit.conductance().add_diagonal(&c_over_dt);
    let be = BackwardEuler::new(&circuit, dt);
    assert_eq!(be.solver(), SolverChoice::Direct, "direct factorization must succeed");
    let mut s = vec![318.15; n];
    let mut max_diff = 0.0f64;
    for _ in 0..steps {
        let mut rhs = circuit.rhs(&p, 318.15);
        for ((bi, ci), si) in rhs.iter_mut().zip(&c_over_dt).zip(&s) {
            *bi += ci * si;
        }
        be.step(&mut s, &p, 318.15).unwrap();
        let mut refined = s.clone();
        let stats = conjugate_gradient(&operator, &rhs, &mut refined, 1e-13, 100 * n);
        assert!(stats.converged, "reference CG diverged: {stats:?}");
        let diff = s.iter().zip(&refined).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        max_diff = max_diff.max(diff);
    }
    assert!(max_diff <= 1e-8, "direct vs reference-CG per-node diff {max_diff} exceeds 1e-8");
    println!(
        "transient_1000_steps: factor nnz(L) = {}, worst per-step direct-vs-CG diff = {max_diff:.3e} K",
        be.factor_nnz()
    );

    let run = |solver: SolverChoice| -> Vec<f64> {
        let be = BackwardEuler::with_solver(&circuit, dt, solver);
        let mut s = vec![318.15; n];
        for _ in 0..steps {
            be.step(&mut s, &p, 318.15).unwrap();
        }
        s
    };
    let mut g = c.benchmark_group("transient_1000_steps_32x32_oil");
    g.sample_size(10);
    g.bench_function("ldlt_factorize_once", |b| b.iter(|| run(SolverChoice::Direct)));
    g.bench_function("cg_per_step", |b| b.iter(|| run(SolverChoice::Cg)));
    g.finish();
}

/// The IR-camera-grid transient: 1000 steps at 1 kHz on a 128×128
/// uniform-film OIL-SILICON stack — the movie workload the spectral stepper
/// exists for. The spectral run emits a surface frame at camera cadence
/// (every 33rd step) like the registered `movie` experiment does, and is
/// gated against the LDLᵀ path that used to be the only option at this grid
/// (~1.5 M nnz in L; the 1000 back-substitutions dominate at ~3.6 ms each).
fn bench_transient_1000_steps_128(c: &mut Criterion) {
    let plan = library::ev6();
    let grid = 128;
    let mapping = GridMapping::new(&plan, grid, grid);
    let circuit = build_circuit(
        &mapping,
        die(),
        &Package::OilSilicon(OilSiliconPackage::paper_default().with_uniform_film()),
    )
    .unwrap();
    let n = circuit.node_count();
    let cells = grid * grid;
    let p = vec![40.0 / cells as f64; cells];
    let dt = 1e-3;
    let steps = 1000;
    let per_frame = 33; // 30 fps camera at 1 kHz stepping

    let stepper = SpectralTransient::new(&circuit, dt).expect("uniform-film stack qualifies");

    // Cross-validate the spectral trajectory against the direct stepper
    // before timing anything: 50 steps, worst per-cell difference.
    {
        let be = BackwardEuler::new(&circuit, dt);
        assert_eq!(be.solver(), SolverChoice::Direct);
        let mut s_be = vec![318.15; n];
        let mut ts = stepper.state();
        let mut scratch = stepper.scratch();
        let mut frame = vec![0.0; cells];
        for _ in 0..50 {
            be.step(&mut s_be, &p, 318.15).unwrap();
            stepper.step(&mut ts, &p, &mut scratch);
        }
        stepper.emit_si(&ts, 318.15, &mut frame, &mut scratch);
        let si = circuit.si_offset();
        let diff = frame
            .iter()
            .zip(&s_be[si..si + cells])
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        // The gap is BE's first-order truncation error against the exact
        // exponential update (measured ~0.012 K over this 50 ms warmup);
        // anything past a few hundredths of a kelvin means a real bug.
        assert!(diff <= 5e-2, "spectral vs BE after 50 steps: {diff} K");
    }

    let mut g = c.benchmark_group("transient_1000_steps_128x128_oil");
    g.sample_size(10);
    {
        let be = BackwardEuler::new(&circuit, dt);
        assert_eq!(be.solver(), SolverChoice::Direct);
        println!("transient_1000_steps_128x128_oil: ldlt nnz(L) = {}", be.factor_nnz());
    }
    g.bench_function("ldlt_1000_steps", |b| {
        let be = BackwardEuler::new(&circuit, dt);
        b.iter(|| {
            let mut s = vec![318.15; n];
            for _ in 0..steps {
                be.step(&mut s, black_box(&p), 318.15).unwrap();
            }
            black_box(s[0])
        })
    });
    g.bench_function("spectral_1000_steps", |b| {
        b.iter(|| {
            let mut ts = stepper.state();
            let mut scratch = stepper.scratch();
            let mut frame = vec![0.0; cells];
            for i in 0..steps {
                stepper.step(&mut ts, black_box(&p), &mut scratch);
                if (i + 1) % per_frame == 0 {
                    stepper.emit_si(&ts, 318.15, &mut frame, &mut scratch);
                }
            }
            black_box(ts.ledger().residual_rel())
        })
    });
    g.finish();
}

fn bench_refsim(c: &mut Criterion) {
    let mut g = c.benchmark_group("refsim_steady");
    g.sample_size(10);
    for grid in [12usize, 20] {
        let sim = RefSim::new(RefSimConfig::paper_validation().with_grid(grid, grid, 2, 3));
        let p = sim.uniform_power(200.0);
        g.bench_with_input(BenchmarkId::new("gs", grid), &grid, |b, _| {
            b.iter(|| sim.solve_steady(black_box(&p), 20_000))
        });
    }
    g.finish();
}

fn bench_steady_warm_vs_cold(c: &mut Criterion) {
    // Warm-started CG (used by the trace loops) vs cold starts.
    let plan = library::ev6();
    let model = ThermalModel::new(
        plan.clone(),
        Package::OilSilicon(OilSiliconPackage::paper_default()),
        ModelConfig::paper_default().with_grid(32, 32),
    )
    .unwrap();
    let power = PowerMap::from_pairs(&plan, [("IntReg", 4.0), ("L2", 10.0)]).unwrap();
    let p = model.cell_power(&power);
    let solved = model.steady_state(&power).unwrap().into_state();
    let mut g = c.benchmark_group("steady_warmstart");
    g.bench_function("cold", |b| {
        b.iter(|| {
            let mut s = model.initial_state();
            solve_steady_with(model.circuit(), black_box(&p), 318.15, &mut s, SolverChoice::Cg)
                .unwrap()
        })
    });
    g.bench_function("warm", |b| {
        b.iter(|| {
            let mut s = solved.clone();
            solve_steady_with(model.circuit(), black_box(&p), 318.15, &mut s, SolverChoice::Cg)
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_assembly,
    bench_board_assembly,
    bench_steady,
    bench_steady_board_2pkg,
    bench_steady_cg_64x64,
    bench_steady_large,
    bench_steady_spectral_256x256,
    bench_transient_step,
    bench_transient_1000_steps,
    bench_transient_1000_steps_128,
    bench_refsim,
    bench_steady_warm_vs_cold
);
criterion_main!(benches);
