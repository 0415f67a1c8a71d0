//! Multigrid-preconditioned and plain CG steady solves against the direct
//! solver, plus the two structural properties the V-cycle must keep for CG
//! to be valid: the preconditioner is symmetric positive definite, and its
//! strength does not degrade as the grid refines (flat iteration counts).

use hotiron_floorplan::{library, GridMapping};
use hotiron_thermal::circuit::{build_circuit, DieGeometry, ThermalCircuit};
use hotiron_thermal::multigrid::{mg_pcg, MgOptions, Multigrid};
use hotiron_thermal::solve::{solve_steady_with, SolverChoice};
use hotiron_thermal::sparse::{conjugate_gradient, SolveMethod};
use hotiron_thermal::{AirSinkPackage, OilSiliconPackage, Package};
use hotiron_verify::{oracle, tol};
use proptest::prelude::*;
use proptest::TestRng;

const AMBIENT: f64 = 318.15;

fn packages() -> [(&'static str, Package); 2] {
    [
        ("oil", Package::OilSilicon(OilSiliconPackage::paper_default())),
        ("air", Package::AirSink(AirSinkPackage::paper_default())),
    ]
}

fn circuit(grid: usize, pkg: &Package) -> ThermalCircuit {
    let plan = library::ev6();
    let mapping = GridMapping::new(&plan, grid, grid);
    build_circuit(&mapping, DieGeometry { width: 0.016, height: 0.016, thickness: 0.5e-3 }, pkg)
        .unwrap()
}

/// A non-uniform power map so the solve exercises every stencil direction.
fn wavy_power(n_cells: usize) -> Vec<f64> {
    (0..n_cells).map(|i| 2.0 + (i as f64 * 0.13).sin()).collect()
}

#[test]
fn mg_matches_direct_within_1e8() {
    for (label, pkg) in packages() {
        for grid in [16usize, 32] {
            let c = circuit(grid, &pkg);
            let p = wavy_power(grid * grid);

            let mut direct = vec![AMBIENT; c.node_count()];
            solve_steady_with(&c, &p, AMBIENT, &mut direct, SolverChoice::Direct)
                .expect("direct steady solve");
            // The air operator is ill-conditioned enough that the direct
            // solve itself carries ~2e-8 K of error at 32×32; polish it with
            // tight warm-started CG (the suite's usual reference trick) so
            // the bound below measures multigrid, not LDLᵀ round-off.
            let refine = conjugate_gradient(
                c.conductance(),
                &c.rhs(&p, AMBIENT),
                &mut direct,
                tol::CG_REFERENCE_TOL,
                tol::cg_iter_cap(c.node_count()),
            );
            assert!(refine.converged, "{label} {grid}: reference converged: {refine:?}");

            // Any correct reference must at minimum balance energy: total
            // input power equals the heat crossing the ambient boundary.
            oracle::assert_energy_balance(&format!("{label} {grid}"), &c, &direct, &p, AMBIENT);

            let mut mg = vec![AMBIENT; c.node_count()];
            let stats = solve_steady_with(&c, &p, AMBIENT, &mut mg, SolverChoice::Multigrid)
                .expect("mg steady solve");
            assert_eq!(stats.method, SolveMethod::MgCg, "{label} {grid}: multigrid actually ran");
            assert!(stats.multigrid.is_some(), "{label} {grid}: telemetry attached");

            // The default 1e-10 relative residual leaves ~1e-8 K of slack on
            // the worse-conditioned air operator; polish well past it so the
            // comparison bounds multigrid's error, not the shared tolerance.
            let polish = mg_pcg(
                c.multigrid().expect("hierarchy"),
                &c.rhs(&p, AMBIENT),
                &mut mg,
                tol::MG_POLISH_TOL,
                200,
            );
            assert!(polish.converged, "{label} {grid}: polish converged: {polish:?}");

            let worst = direct.iter().zip(&mg).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
            assert!(
                worst <= tol::BACKEND_AGREEMENT_K,
                "{label} {grid}x{grid}: worst per-node diff {worst:.3e} K"
            );

            // Plain Jacobi-PCG from a cold start converges on the same
            // operator within its iteration cap.
            let mut cg = vec![AMBIENT; c.node_count()];
            let stats = solve_steady_with(&c, &p, AMBIENT, &mut cg, SolverChoice::Cg)
                .unwrap_or_else(|e| panic!("{label} {grid}: cold CG steady solve: {e}"));
            assert_eq!(stats.method, SolveMethod::Cg, "{label} {grid}: CG actually ran");
            let worst = direct.iter().zip(&cg).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
            assert!(worst <= 1e-6, "{label} {grid}x{grid}: CG worst per-node diff {worst:.3e} K");
        }
    }
}

#[test]
fn mg_iterations_stay_flat_with_grid_size() {
    // The whole point of the hierarchy: refining the grid must not grow the
    // iteration count the way it does for Jacobi-PCG (which roughly doubles
    // per refinement).
    for (label, pkg) in packages() {
        let iters: Vec<usize> = [64usize, 128]
            .iter()
            .map(|&grid| {
                let c = circuit(grid, &pkg);
                let p = vec![40.0 / (grid * grid) as f64; grid * grid];
                let mut s = vec![AMBIENT; c.node_count()];
                let stats = solve_steady_with(&c, &p, AMBIENT, &mut s, SolverChoice::Multigrid)
                    .expect("mg steady solve");
                assert_eq!(stats.method, SolveMethod::MgCg, "{label} {grid}: multigrid ran");
                stats.iterations
            })
            .collect();
        assert!(
            iters[0].abs_diff(iters[1]) <= 2,
            "{label}: iterations must stay flat from 64x64 to 128x128, got {iters:?}"
        );
    }
}

/// Samples a zero-mean vector of length `n` from a seed.
fn seeded_vec(tag: &str, seed: u64, n: usize) -> Vec<f64> {
    let mut rng = TestRng::from_name(&format!("{tag}{seed}"));
    (0..n).map(|_| 2.0 * rng.next_f64() - 1.0).collect()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// CG with preconditioner M is only correct when M is SPD. Equal
    /// pre/post smoothing, restriction = prolongationᵀ and an exact coarsest
    /// solve make the V-cycle symmetric by construction; check it on random
    /// vectors: ⟨Mx, y⟩ = ⟨x, My⟩ and ⟨Mx, x⟩ > 0.
    #[test]
    fn vcycle_preconditioner_is_spd(sx in 0u64..1_000_000, sy in 0u64..1_000_000) {
        for (label, pkg) in packages() {
            let c = circuit(16, &pkg);
            let mg = Multigrid::from_circuit(&c, MgOptions::default())
                .expect("16x16 builds a hierarchy");
            let n = c.node_count();
            let mut ws = mg.workspace();

            let x = seeded_vec("x", sx, n);
            let y = seeded_vec("y", sy, n);
            let (mut mx, mut my) = (vec![0.0; n], vec![0.0; n]);
            mg.precondition(&x, &mut mx, &mut ws);
            mg.precondition(&y, &mut my, &mut ws);

            let mxy = dot(&mx, &y);
            let xmy = dot(&x, &my);
            let scale = mxy.abs().max(xmy.abs()).max(f64::MIN_POSITIVE);
            prop_assert!(
                (mxy - xmy).abs() <= tol::SYMMETRY_REL * scale,
                "{label}: asymmetric V-cycle: <Mx,y> = {mxy:.17e}, <x,My> = {xmy:.17e}"
            );
            let mxx = dot(&mx, &x);
            prop_assert!(mxx > 0.0, "{label}: <Mx,x> = {mxx:.3e} is not positive");
        }
    }
}
