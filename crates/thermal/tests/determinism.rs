//! Bitwise determinism of the parallel solver kernels.
//!
//! The worker pool's reductions sum fixed-size chunks in ascending chunk
//! order, so every floating-point result must be *bitwise* identical no
//! matter how many threads execute the kernels. These tests pin that
//! guarantee for the two paper packages (OIL-SILICON and AIR-SINK) on the
//! auto-selected and multigrid steady solves and a 100-step backward-Euler
//! transient.

use std::sync::Arc;

use hotiron_floorplan::{library, GridMapping};
use hotiron_thermal::circuit::{build_circuit, DieGeometry};
use hotiron_thermal::pool::{with_pool, WorkerPool};
use hotiron_thermal::solve::{solve_steady, solve_steady_with, BackwardEuler, SolverChoice};
use hotiron_thermal::sparse::SolveMethod;
use hotiron_thermal::{
    AirSinkPackage, ModelConfig, OilSiliconPackage, Package, PowerMap, ThermalModel,
};
use hotiron_verify::oracle;

const AMBIENT: f64 = 318.15;

fn packages() -> [(&'static str, Package); 2] {
    [
        ("oil", Package::OilSilicon(OilSiliconPackage::paper_default())),
        ("air", Package::AirSink(AirSinkPackage::paper_default())),
    ]
}

/// Asserts two temperature fields are bitwise identical, reporting the first
/// differing node (with full hex bits) when they are not.
fn assert_bitwise_eq(label: &str, serial: &[f64], parallel: &[f64]) {
    assert_eq!(serial.len(), parallel.len(), "{label}: length mismatch");
    for (i, (a, b)) in serial.iter().zip(parallel).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{label}: node {i} differs: {a:?} ({:#018x}) vs {b:?} ({:#018x})",
            a.to_bits(),
            b.to_bits()
        );
    }
}

/// Runs `f` under a pool of `threads` workers, ignoring `HOTIRON_THREADS`.
fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    with_pool(&Arc::new(WorkerPool::new(threads)), f)
}

#[test]
fn steady_state_bitwise_identical_across_thread_counts() {
    let plan = library::ev6();
    for (label, pkg) in packages() {
        // 64x64 so the kernels are well past the parallel engagement
        // threshold (PAR_MIN) and the pool actually splits the work.
        let model =
            ThermalModel::new(plan.clone(), pkg, ModelConfig::paper_default().with_grid(64, 64))
                .expect("model builds");
        let power =
            PowerMap::from_pairs(&plan, [("IntReg", 4.0), ("L2", 10.0)]).expect("blocks exist");

        let p = model.cell_power(&power);
        let run = |threads: usize| {
            at_threads(threads, || {
                let mut state = model.initial_state();
                let stats =
                    solve_steady(model.circuit(), &p, AMBIENT, &mut state).expect("steady solve");
                (state, stats)
            })
        };

        let (serial, serial_stats) = run(1);
        assert_eq!(serial_stats.threads, 1, "{label}: serial run reports one thread");
        // The auto rule factors the 64×64 OIL die (a 2.4 MB LDLᵀ factor,
        // whose triangular sweeps are serial and report one thread) and
        // keeps the AIR-SINK stack, ~35 MB factored, on parallel multigrid.
        let expected_method = if label == "air" { SolveMethod::MgCg } else { SolveMethod::Ldlt };
        assert_eq!(serial_stats.method, expected_method, "{label}: auto-selected method");
        // Determinism alone can reproduce a wrong answer bit-for-bit; pin
        // that the reproduced solution is also physical.
        oracle::assert_energy_balance(label, model.circuit(), &serial, &p, AMBIENT);
        for threads in [2, 4] {
            let (parallel, stats) = run(threads);
            assert_eq!(
                stats.iterations, serial_stats.iterations,
                "{label}: iteration count must not depend on thread count"
            );
            let reported = if stats.method == SolveMethod::Ldlt { 1 } else { threads };
            assert_eq!(stats.threads, reported, "{label}: reported thread count");
            assert_bitwise_eq(
                &format!("{label} steady 1 vs {threads} threads"),
                &serial,
                &parallel,
            );
        }
    }
}

#[test]
fn multigrid_steady_bitwise_identical_across_thread_counts() {
    // The explicit multigrid path: stencil SpMV, Jacobi smoothing, residual
    // and grid-transfer kernels all fan out over the pool with fixed-chunk
    // reductions, so the whole V-cycle-preconditioned solve must be bitwise
    // thread-count invariant. (The auto-selected test above lands on
    // multigrid only for AIR-SINK at 64×64; this one pins the method
    // explicitly for both packages so the guarantee survives changes to the
    // auto-selection rule.)
    let plan = library::ev6();
    for (label, pkg) in packages() {
        let model =
            ThermalModel::new(plan.clone(), pkg, ModelConfig::paper_default().with_grid(64, 64))
                .expect("model builds");
        let power =
            PowerMap::from_pairs(&plan, [("IntReg", 4.0), ("L2", 10.0)]).expect("blocks exist");

        let p = model.cell_power(&power);
        let run = |threads: usize| {
            at_threads(threads, || {
                let mut state = model.initial_state();
                let stats = solve_steady_with(
                    model.circuit(),
                    &p,
                    AMBIENT,
                    &mut state,
                    SolverChoice::Multigrid,
                )
                .expect("mg steady solve");
                (state, stats)
            })
        };

        let (serial, serial_stats) = run(1);
        assert_eq!(serial_stats.method, SolveMethod::MgCg, "{label}: multigrid actually ran");
        assert_eq!(serial_stats.threads, 1, "{label}: serial run reports one thread");
        for threads in [2, 4] {
            let (parallel, stats) = run(threads);
            assert_eq!(
                stats.iterations, serial_stats.iterations,
                "{label}: V-cycle count must not depend on thread count"
            );
            assert_eq!(stats.threads, threads, "{label}: reported thread count");
            assert_bitwise_eq(
                &format!("{label} mg steady 1 vs {threads} threads"),
                &serial,
                &parallel,
            );
        }
    }
}

#[test]
fn transient_100_steps_bitwise_identical_across_thread_counts() {
    let plan = library::ev6();
    let grid = 32;
    let die = DieGeometry { width: 0.016, height: 0.016, thickness: 0.5e-3 };
    for (label, pkg) in packages() {
        let mapping = GridMapping::new(&plan, grid, grid);
        let circuit = build_circuit(&mapping, die, &pkg).unwrap();
        let p = vec![40.0 / (grid * grid) as f64; grid * grid];

        // CG is the parallel path; the LDLt sweeps are serial by design.
        let run = |threads: usize| {
            at_threads(threads, || {
                let be = BackwardEuler::with_solver(&circuit, 1e-4, SolverChoice::Cg);
                let mut state = vec![AMBIENT; circuit.node_count()];
                for _ in 0..100 {
                    be.step(&mut state, &p, AMBIENT).expect("transient step");
                }
                state
            })
        };

        let serial = run(1);
        for threads in [2, 4] {
            let parallel = run(threads);
            assert_bitwise_eq(
                &format!("{label} transient 1 vs {threads} threads"),
                &serial,
                &parallel,
            );
        }
    }
}

#[test]
fn direct_transient_matches_regardless_of_pool() {
    // The factorize-once LDLt path never fans out, but it consumes
    // pool-produced right-hand sides; pin that it is thread-count invariant
    // end to end too.
    let plan = library::ev6();
    let grid = 32;
    let die = DieGeometry { width: 0.016, height: 0.016, thickness: 0.5e-3 };
    let mapping = GridMapping::new(&plan, grid, grid);
    let circuit =
        build_circuit(&mapping, die, &Package::OilSilicon(OilSiliconPackage::paper_default()))
            .unwrap();
    let p = vec![40.0 / (grid * grid) as f64; grid * grid];

    let run = |threads: usize| {
        at_threads(threads, || {
            let be = BackwardEuler::with_solver(&circuit, 1e-4, SolverChoice::Direct);
            let mut state = vec![AMBIENT; circuit.node_count()];
            for _ in 0..100 {
                be.step(&mut state, &p, AMBIENT).expect("transient step");
            }
            state
        })
    };

    assert_bitwise_eq("oil direct transient 1 vs 4 threads", &run(1), &run(4));
}
