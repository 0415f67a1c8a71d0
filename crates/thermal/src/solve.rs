//! Steady-state and transient solvers for the assembled RC network.
//!
//! * [`solve_steady`] / [`solve_steady_with`] — `G·T = P + G_amb·T_amb` via
//!   warm-started conjugate gradients or a sparse LDLᵀ direct factorization
//!   ([`SolverChoice`]).
//! * [`BackwardEuler`] — unconditionally stable implicit stepper, the
//!   workhorse for long traces (the oil nodes make the system mildly stiff).
//!   The operator `C/dt + G` is factored **once** at construction; each step
//!   is then two triangular sweeps instead of a CG run.
//! * [`Rk4Adaptive`] — HotSpot's native explicit adaptive scheme, kept as an
//!   independent cross-check of the implicit path.

use crate::cholesky::LdlFactor;
use crate::circuit::ThermalCircuit;
use crate::multigrid::mg_pcg;
use crate::sparse::{conjugate_gradient, CsrMatrix, SolveMethod, SolveStats};
use std::cell::{Cell, RefCell};
use std::error::Error;
use std::fmt;

/// Default relative tolerance for linear solves.
pub const DEFAULT_TOL: f64 = 1e-10;

/// Cells per layer from which [`solve_steady`] leaves plain CG (64×64; below
/// this a few hundred warm-started CG iterations cost less than building a
/// factor, a hierarchy or a spectral response). At or above it the auto
/// rule takes spectral when the stack qualifies, else a direct LDLᵀ solve
/// when its factor fits [`DIRECT_AUTO_MAX_BYTES`], else multigrid.
pub const MG_AUTO_MIN_CELLS: usize = 4096;

/// Largest LDLᵀ factor, in heap bytes ([`Symbolic::bytes`]), that
/// [`solve_steady`] builds on its own (8 MiB). The 64×64 OIL-SILICON die
/// factors to 2.37 MB and is then answered by two triangular sweeps instead
/// of ~330 CG iterations; the 64×64 AIR-SINK stack would need ~35 MB and
/// stays on multigrid. The factor is memoized on the circuit, so the budget
/// bounds what every cached circuit may hold.
///
/// [`Symbolic::bytes`]: crate::cholesky::Symbolic::bytes
pub const DIRECT_AUTO_MAX_BYTES: usize = 8 << 20;

/// Iteration cap for the MG-preconditioned steady solve. MG convergence is
/// flat in grid size (~10–20 iterations at [`DEFAULT_TOL`]), so a solve that
/// reaches this cap is broken, not slow.
const MG_MAX_ITERS: usize = 200;

/// Which linear solver backs a steady or transient solve.
///
/// The decision rule (see DESIGN.md): **Direct** when one operator is solved
/// against many right-hand sides (transient stepping — one factorization
/// amortized over every step), when an exact answer without a tolerance
/// knob is wanted, or for steady solves on grids of at least
/// [`MG_AUTO_MIN_CELLS`] cells whose factor fits [`DIRECT_AUTO_MAX_BYTES`]
/// (the factor is memoized on the circuit, so every later solve is two
/// triangular sweeps); **Cg** when the operator changes between solves,
/// when a good warm start is available (steady-state sweeps over
/// slowly-varying power maps), on grids below [`MG_AUTO_MIN_CELLS`] cells,
/// or as the independent cross-check of the direct path; **Multigrid** for
/// steady solves on grids of at least [`MG_AUTO_MIN_CELLS`] cells whose
/// factor is over the budget, where its grid-size-independent iteration
/// count beats Jacobi-PCG by growing margins. The direct path falls back to
/// CG automatically if factorization hits a non-positive pivot (a non-SPD
/// operator); the multigrid path falls back to CG when the grid is too
/// small for a hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// Sparse LDLᵀ factorization ([`LdlFactor`]) under RCM ordering with
    /// hub rows last ([`crate::sparse::reverse_cuthill_mckee`]).
    #[default]
    Direct,
    /// Jacobi-preconditioned conjugate gradient with warm starts.
    Cg,
    /// Conjugate gradient preconditioned by a geometric multigrid V-cycle
    /// ([`crate::multigrid::Multigrid`]), with the hierarchy built once per
    /// circuit and cached.
    Multigrid,
    /// Green's-function spectral evaluation ([`crate::greens`]): fast cosine
    /// transforms against a precomputed unit-source response, O(n log n) per
    /// solve and exact to FFT roundoff. Only laterally uniform stacks on
    /// power-of-two grids qualify; an ineligible circuit fails the solve
    /// with [`SolveError::SpectralIneligible`] naming the offending layer.
    Spectral,
}

/// Error from a thermal solve.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// The iterative linear solver did not reach the tolerance.
    NotConverged {
        /// Iterations and final residual.
        stats: SolveStats,
    },
    /// The iterative linear solver hit its iteration cap with the residual
    /// still above tolerance (previously indistinguishable from other
    /// non-convergence; callers that want to retry with a looser tolerance
    /// or a different solver key off this variant).
    MaxIters {
        /// The relative residual when the cap was reached.
        achieved_residual: f64,
    },
    /// [`SolverChoice::Spectral`] was requested for a circuit that does not
    /// qualify for the spectral backend (non-uniform lateral properties,
    /// oversized plates, or a non-power-of-two grid).
    SpectralIneligible {
        /// Human-readable disqualification, naming the offending layer.
        reason: String,
    },
    /// An explicit integrator's adapted step underflowed while the local
    /// error still exceeded the tolerance: the network is too stiff for the
    /// scheme. Switch to [`BackwardEuler`].
    StepUnderflow {
        /// The step size (s) at which adaptation gave up.
        step: f64,
        /// The local error estimate (K) at that step.
        error: f64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotConverged { stats } => write!(
                f,
                "linear solve did not converge: {} iterations, residual {:.3e}",
                stats.iterations, stats.relative_residual
            ),
            Self::MaxIters { achieved_residual } => write!(
                f,
                "iterative solve hit its iteration cap with residual {achieved_residual:.3e} \
                 still above tolerance"
            ),
            Self::SpectralIneligible { reason } => {
                write!(f, "spectral solver ineligible: {reason}")
            }
            Self::StepUnderflow { step, error } => write!(
                f,
                "explicit step underflow: h = {step:.3e} s with local error {error:.3e} K \
                 still above tolerance — system too stiff, use BackwardEuler"
            ),
        }
    }
}

impl Error for SolveError {}

/// Solves the steady-state system `G·T = P + G_amb·T_amb`, auto-selecting
/// the solver by problem size:
///
/// * below [`MG_AUTO_MIN_CELLS`] cells per layer, warm-started Jacobi-PCG;
/// * otherwise the spectral backend when the stack qualifies;
/// * otherwise a direct LDLᵀ solve when the factor's [`Symbolic::bytes`]
///   fits [`DIRECT_AUTO_MAX_BYTES`] (the analysis and the factor are
///   memoized on the circuit);
/// * otherwise multigrid-preconditioned CG.
///
/// [`Symbolic::bytes`]: crate::cholesky::Symbolic::bytes
///
/// `state` is used as the warm start of the iterative solvers and holds the
/// solution (kelvin) on success.
///
/// # Errors
///
/// [`SolveError::NotConverged`] or [`SolveError::MaxIters`] if the solver
/// stalls (which indicates a floating node or an extremely ill-conditioned
/// package configuration).
pub fn solve_steady(
    circuit: &ThermalCircuit,
    si_cell_power: &[f64],
    ambient: f64,
    state: &mut [f64],
) -> Result<SolveStats, SolveError> {
    let solver = if circuit.cell_count() < MG_AUTO_MIN_CELLS {
        SolverChoice::Cg
    } else if circuit.spectral().is_ok() {
        // At IR-camera resolution the spectral path beats every other
        // backend by orders of magnitude; take it whenever the circuit
        // qualifies.
        SolverChoice::Spectral
    } else if circuit.symbolic().bytes() <= DIRECT_AUTO_MAX_BYTES {
        SolverChoice::Direct
    } else {
        SolverChoice::Multigrid
    };
    solve_steady_with(circuit, si_cell_power, ambient, state, solver)
}

/// Solves the steady-state system with an explicit [`SolverChoice`].
///
/// With [`SolverChoice::Direct`] the conductance matrix is factored
/// (LDLᵀ, RCM-ordered with hub rows last), solved, and the residual
/// verified against [`DEFAULT_TOL`]. The factorization is memoized on the
/// circuit ([`ThermalCircuit::steady_factor_with_setup`]) so repeated
/// solves of a shared circuit pay it once; the returned stats carry
/// factorization telemetry (`factor_seconds` — zero when the cached factor
/// was reused — and `factor_nnz`). A non-positive pivot — the operator is
/// not SPD, e.g. a floating node — falls back to CG, whose diagnostics
/// (panic on non-positive diagonal, [`SolveError::NotConverged`]) localize
/// the problem.
///
/// # Errors
///
/// [`SolveError::NotConverged`] if the selected solver misses
/// [`DEFAULT_TOL`]; [`SolveError::MaxIters`] when an iterative solver ran
/// out of iterations doing so.
pub fn solve_steady_with(
    circuit: &ThermalCircuit,
    si_cell_power: &[f64],
    ambient: f64,
    state: &mut [f64],
    solver: SolverChoice,
) -> Result<SolveStats, SolveError> {
    if solver == SolverChoice::Spectral {
        return solve_steady_spectral(circuit, si_cell_power, ambient, state);
    }
    let b = circuit.rhs(si_cell_power, ambient);
    let fast = match solver {
        SolverChoice::Direct => {
            circuit.steady_factor_with_setup().map(|(factor, setup_seconds)| {
                factor.solve_into(&b, state);
                let residual = relative_residual(circuit.conductance(), &b, state);
                let stats = SolveStats {
                    method: SolveMethod::Ldlt,
                    iterations: 0,
                    relative_residual: residual,
                    converged: residual <= DEFAULT_TOL,
                    // Charged only to the solve that built the factor; later
                    // solves reuse it and report 0.0.
                    factor_seconds: setup_seconds,
                    factor_nnz: factor.nnz_l(),
                    solve_count: 1,
                    // The triangular sweeps are inherently serial.
                    threads: 1,
                    warm_start: false,
                    multigrid: None,
                };
                (stats, usize::MAX)
            })
        }
        SolverChoice::Multigrid => circuit.multigrid_with_setup().map(|(mg, setup_seconds)| {
            let mut stats = mg_pcg(mg, &b, state, DEFAULT_TOL, MG_MAX_ITERS);
            // Charge the one-time hierarchy construction to the solve that
            // triggered it, like the direct path does for its factorization.
            stats.factor_seconds += setup_seconds;
            (stats, MG_MAX_ITERS)
        }),
        SolverChoice::Cg => None,
        SolverChoice::Spectral => unreachable!("handled above"),
    };
    // Plain CG, or the fallback when no factor (non-SPD operator) or no
    // hierarchy (grid too small) is available.
    let (stats, cap) = fast.unwrap_or_else(|| {
        let cg_cap = 40 * circuit.node_count() + 1000;
        (conjugate_gradient(circuit.conductance(), &b, state, DEFAULT_TOL, cg_cap), cg_cap)
    });
    finish_iterative(stats, cap)
}

/// The [`SolverChoice::Spectral`] steady path: evaluates the precomputed
/// Green's-function response ([`ThermalCircuit::spectral_with_setup`]). The
/// reported `relative_residual` is the O(n) energy-balance residual the
/// evaluation returns (total power in vs. heat leaving to ambient), which
/// for this exact method sits at FFT roundoff; the response precompute time
/// is charged as `factor_seconds` to the solve that triggered it, like the
/// direct path's factorization.
fn solve_steady_spectral(
    circuit: &ThermalCircuit,
    si_cell_power: &[f64],
    ambient: f64,
    state: &mut [f64],
) -> Result<SolveStats, SolveError> {
    let (resp, setup_seconds) = match circuit.spectral_with_setup() {
        Ok(v) => v,
        Err(e) => return Err(SolveError::SpectralIneligible { reason: e.reason.clone() }),
    };
    let residual = resp.solve(si_cell_power, ambient, state);
    let stats = SolveStats {
        method: SolveMethod::Spectral,
        iterations: 0,
        relative_residual: residual,
        converged: residual <= DEFAULT_TOL.sqrt(),
        factor_seconds: setup_seconds,
        factor_nnz: 0,
        solve_count: 1,
        threads: crate::pool::current().threads(),
        warm_start: false,
        multigrid: None,
    };
    finish_iterative(stats, usize::MAX)
}

/// Maps final solve stats to the caller-facing result: converged solves pass
/// through; a solve that stopped *because* it hit the iteration cap reports
/// [`SolveError::MaxIters`]; any other failure (numerical breakdown, direct
/// residual miss) reports [`SolveError::NotConverged`].
fn finish_iterative(stats: SolveStats, max_iters: usize) -> Result<SolveStats, SolveError> {
    if stats.converged {
        Ok(stats)
    } else if stats.iterations >= max_iters {
        Err(SolveError::MaxIters { achieved_residual: stats.relative_residual })
    } else {
        Err(SolveError::NotConverged { stats })
    }
}

/// `‖b − A·x‖ / ‖b‖` (0 when `b = 0`).
fn relative_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let ax = a.mul_vec(x);
    let num: f64 = ax.iter().zip(b).map(|(axi, bi)| (bi - axi) * (bi - axi)).sum::<f64>().sqrt();
    let den: f64 = b.iter().map(|bi| bi * bi).sum::<f64>().sqrt();
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Implicit backward-Euler transient stepper with a fixed time step.
///
/// Each step solves `(C/dt + G)·T⁺ = C/dt·T + P + G_amb·T_amb`. The operator
/// is fixed for the lifetime of the stepper, so with the default
/// [`SolverChoice::Direct`] it is LDLᵀ-factored **once** in [`new`] and every
/// [`step`] is just two triangular sweeps — the 1000-step trace loop costs
/// one factorization plus 1000 back-substitutions instead of 1000 CG runs.
/// The direct solve's residual is verified against [`DEFAULT_TOL`] on the
/// first step and every [`RESIDUAL_CHECK_INTERVAL`]th step thereafter (the
/// factor and operator never change between steps, so the residual is
/// essentially constant, and checking it costs a matrix-vector product that
/// would otherwise dominate the two sweeps); a check that misses tolerance
/// is polished by warm-started CG, keeping the accuracy contract of the CG
/// path. Unconditionally stable, first-order accurate; choose `dt` well
/// below the fastest time constant you care to resolve.
///
/// [`new`]: BackwardEuler::new
/// [`step`]: BackwardEuler::step
///
/// # Examples
///
/// ```
/// use hotiron_floorplan::{library, GridMapping};
/// use hotiron_thermal::circuit::{build_circuit, DieGeometry};
/// use hotiron_thermal::package::{OilSiliconPackage, Package};
/// use hotiron_thermal::solve::BackwardEuler;
///
/// let plan = library::uniform_die(0.02, 0.02);
/// let map = GridMapping::new(&plan, 4, 4);
/// let die = DieGeometry { width: 0.02, height: 0.02, thickness: 0.5e-3 };
/// let circuit = build_circuit(&map, die, &Package::OilSilicon(OilSiliconPackage::paper_default()))?;
/// let mut stepper = BackwardEuler::new(&circuit, 1e-3);
/// let mut state = vec![318.15; circuit.node_count()];
/// let power = vec![200.0 / 16.0; 16];
/// stepper.step(&mut state, &power, 318.15)?;
/// assert!(state[0] > 318.15); // the die started heating
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct BackwardEuler<'c> {
    circuit: &'c ThermalCircuit,
    dt: f64,
    a: CsrMatrix,
    c_over_dt: Vec<f64>,
    /// Cached LDLᵀ of `a`; `None` means the CG path (chosen explicitly or
    /// because factorization hit a non-positive pivot).
    factor: Option<LdlFactor>,
    /// Solves performed against `a` so far (telemetry; see
    /// [`SolveStats::solve_count`]).
    solve_count: Cell<usize>,
    /// Reusable right-hand-side and triangular-solve buffers, so the per-step
    /// hot path allocates nothing.
    scratch: RefCell<StepScratch>,
    /// The residual measured at the most recent direct-path check step
    /// (reported by the steps in between; see the type-level docs).
    last_residual: Cell<f64>,
    /// Cached stepper for the trailing partial step of [`advance`], keyed by
    /// its `dt`. Repeated trace-loop calls with the same fractional remainder
    /// (e.g. `advance(…, 0.0033)` at `dt = 1e-3` every sample) reuse one
    /// assembly + factorization instead of paying both per call.
    ///
    /// [`advance`]: BackwardEuler::advance
    tail: RefCell<Option<Box<BackwardEuler<'c>>>>,
}

/// Buffers reused across [`BackwardEuler::step`] calls.
#[derive(Debug, Default)]
struct StepScratch {
    /// Assembled right-hand side `C/dt·T + P + G_amb·T_amb`.
    b: Vec<f64>,
    /// Permuted work vector for [`LdlFactor::solve_with_scratch`].
    y: Vec<f64>,
}

/// Direct-path steps between residual verifications (the first step is
/// always verified). See [`BackwardEuler`].
pub const RESIDUAL_CHECK_INTERVAL: usize = 64;

impl<'c> BackwardEuler<'c> {
    /// Creates a stepper with time step `dt` (seconds), factoring the
    /// operator `C/dt + G` once ([`SolverChoice::Direct`]). If the operator
    /// is not positive definite the stepper silently falls back to CG, whose
    /// per-step diagnostics localize the broken node.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive and finite.
    pub fn new(circuit: &'c ThermalCircuit, dt: f64) -> Self {
        Self::with_solver(circuit, dt, SolverChoice::Direct)
    }

    /// Creates a stepper with an explicit [`SolverChoice`]: `Direct` factors
    /// the operator once; every other choice steps on warm-started CG
    /// (qualifying stacks should use `greens::SpectralTransient` directly).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive and finite.
    pub fn with_solver(circuit: &'c ThermalCircuit, dt: f64, solver: SolverChoice) -> Self {
        assert!(dt.is_finite() && dt > 0.0, "dt must be positive, got {dt}");
        let c_over_dt: Vec<f64> = circuit.capacitance().iter().map(|c| c / dt).collect();
        let a = circuit.conductance().add_diagonal(&c_over_dt);
        let factor = match solver {
            SolverChoice::Direct => LdlFactor::factor(&a).ok(),
            SolverChoice::Cg | SolverChoice::Multigrid | SolverChoice::Spectral => None,
        };
        Self {
            circuit,
            dt,
            a,
            c_over_dt,
            factor,
            solve_count: Cell::new(0),
            scratch: RefCell::new(StepScratch::default()),
            last_residual: Cell::new(0.0),
            tail: RefCell::new(None),
        }
    }

    /// The fixed time step, s.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The solver actually in use: [`SolverChoice::Direct`] when the
    /// factorization succeeded, [`SolverChoice::Cg`] otherwise.
    pub fn solver(&self) -> SolverChoice {
        if self.factor.is_some() {
            SolverChoice::Direct
        } else {
            SolverChoice::Cg
        }
    }

    /// Stored non-zeros of the cached factor's `L` (0 on the CG path).
    pub fn factor_nnz(&self) -> usize {
        self.factor.as_ref().map_or(0, LdlFactor::nnz_l)
    }

    /// Solves performed against the cached operator so far.
    pub fn solve_count(&self) -> usize {
        self.solve_count.get()
    }

    /// Advances `state` (kelvin) by one step under the given per-silicon-cell
    /// power (W) and ambient (K).
    ///
    /// # Errors
    ///
    /// [`SolveError::NotConverged`] if the solve misses [`DEFAULT_TOL`]
    /// (after CG polishing, on the direct path).
    ///
    /// # Panics
    ///
    /// Panics if `state` has the wrong length.
    pub fn step(
        &self,
        state: &mut [f64],
        si_cell_power: &[f64],
        ambient: f64,
    ) -> Result<SolveStats, SolveError> {
        assert_eq!(state.len(), self.circuit.node_count());
        let mut scratch = self.scratch.borrow_mut();
        let StepScratch { b, y } = &mut *scratch;
        self.circuit.rhs_into(si_cell_power, ambient, b);
        for (bi, (ci, si)) in b.iter_mut().zip(self.c_over_dt.iter().zip(&*state)) {
            *bi += ci * si;
        }
        let n = state.len();
        let cg_cap = 40 * n + 1000;
        self.solve_count.set(self.solve_count.get() + 1);
        let stats = match &self.factor {
            Some(factor) => {
                factor.solve_with_scratch(b, state, y);
                let count = self.solve_count.get();
                let mut residual = self.last_residual.get();
                let mut iterations = 0;
                if count == 1 || count.is_multiple_of(RESIDUAL_CHECK_INTERVAL) {
                    residual = relative_residual(&self.a, b, state);
                    if residual > DEFAULT_TOL {
                        // Rare (severe ill-conditioning): polish the direct
                        // solution with a few warm-started CG iterations.
                        let polish = conjugate_gradient(&self.a, b, state, DEFAULT_TOL, cg_cap);
                        residual = polish.relative_residual;
                        iterations = polish.iterations;
                    }
                    self.last_residual.set(residual);
                }
                SolveStats {
                    method: SolveMethod::Ldlt,
                    iterations,
                    relative_residual: residual,
                    converged: residual <= DEFAULT_TOL,
                    // Charge the one-time factorization to the first step.
                    factor_seconds: if count == 1 { factor.factor_seconds() } else { 0.0 },
                    factor_nnz: factor.nnz_l(),
                    solve_count: count,
                    // The triangular sweeps are inherently serial.
                    threads: 1,
                    warm_start: false,
                    multigrid: None,
                }
            }
            None => {
                // CG warm-starts from `state`, which still holds the previous
                // frame — successive frames differ by O(dt), so the initial
                // residual is already small.
                let mut stats = conjugate_gradient(&self.a, b, state, DEFAULT_TOL, cg_cap);
                stats.solve_count = self.solve_count.get();
                stats
            }
        };
        // A CG-polished direct check that ran out of iterations surfaces the
        // cap the same way the plain CG path does.
        finish_iterative(stats, cg_cap)
    }

    /// Advances `state` by `duration` seconds in fixed steps. A trailing
    /// partial step, if any, runs on a cached tail stepper that is rebuilt
    /// only when the remainder changes — repeated trace-loop calls with the
    /// same `duration` pay the tail's assembly and factorization once, not
    /// per call.
    ///
    /// Remainders below `1e-12 · max(dt, 1)` seconds are float noise from
    /// the `duration / dt` division and are deliberately not integrated;
    /// over a trace this truncation is bounded by ~1e-12 s of simulated time
    /// per call, far below the stepper's own first-order error.
    ///
    /// # Errors
    ///
    /// Propagates the first convergence failure.
    pub fn advance(
        &self,
        state: &mut [f64],
        si_cell_power: &[f64],
        ambient: f64,
        duration: f64,
    ) -> Result<(), SolveError> {
        assert!(duration >= 0.0, "duration must be non-negative");
        let whole = (duration / self.dt).floor() as usize;
        for _ in 0..whole {
            self.step(state, si_cell_power, ambient)?;
        }
        let rem = duration - whole as f64 * self.dt;
        if rem > 1e-12 * self.dt.max(1.0) {
            let mut tail = self.tail.borrow_mut();
            let reuse =
                tail.as_ref().is_some_and(|t| (t.dt - rem).abs() <= f64::EPSILON * rem.abs());
            if !reuse {
                *tail =
                    Some(Box::new(BackwardEuler::with_solver(self.circuit, rem, self.solver())));
            }
            tail.as_ref().expect("tail stepper was just ensured").step(
                state,
                si_cell_power,
                ambient,
            )?;
        }
        Ok(())
    }
}

/// Explicit adaptive 4th-order Runge-Kutta stepper (HotSpot's scheme).
///
/// Accuracy-adaptive via step doubling; stability-limited by the network's
/// fastest time constant, so it is best for short windows and as an
/// independent check on [`BackwardEuler`].
#[derive(Debug)]
pub struct Rk4Adaptive<'c> {
    circuit: &'c ThermalCircuit,
    /// Per-node inverse capacitance, 1/(J/K).
    inv_cap: Vec<f64>,
    /// Local error tolerance (kelvin) per step used by the doubling test.
    pub tolerance: f64,
}

impl<'c> Rk4Adaptive<'c> {
    /// Creates the stepper with a default 0.001 K local error tolerance.
    pub fn new(circuit: &'c ThermalCircuit) -> Self {
        let inv_cap = circuit.capacitance().iter().map(|c| 1.0 / c).collect();
        Self { circuit, inv_cap, tolerance: 1e-3 }
    }

    /// dT/dt = (P + b − G·T) / C.
    fn derivative(&self, state: &[f64], b: &[f64], out: &mut [f64]) {
        self.circuit.conductance().mul_vec_into(state, out);
        for i in 0..state.len() {
            out[i] = (b[i] - out[i]) * self.inv_cap[i];
        }
    }

    fn rk4_step(&self, state: &[f64], b: &[f64], h: f64, out: &mut Vec<f64>) {
        let n = state.len();
        let mut k1 = vec![0.0; n];
        let mut k2 = vec![0.0; n];
        let mut k3 = vec![0.0; n];
        let mut k4 = vec![0.0; n];
        let mut tmp = vec![0.0; n];
        self.derivative(state, b, &mut k1);
        for i in 0..n {
            tmp[i] = state[i] + 0.5 * h * k1[i];
        }
        self.derivative(&tmp, b, &mut k2);
        for i in 0..n {
            tmp[i] = state[i] + 0.5 * h * k2[i];
        }
        self.derivative(&tmp, b, &mut k3);
        for i in 0..n {
            tmp[i] = state[i] + h * k3[i];
        }
        self.derivative(&tmp, b, &mut k4);
        out.clear();
        out.extend(
            (0..n).map(|i| state[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])),
        );
    }

    /// A conservative stability-based initial step: the smallest `C/G_ii`.
    pub fn suggested_step(&self) -> f64 {
        let g = self.circuit.conductance();
        let mut min_tau = f64::INFINITY;
        for i in 0..g.dim() {
            let tau = self.circuit.capacitance()[i] / g.diagonal(i);
            min_tau = min_tau.min(tau);
        }
        min_tau / 2.0
    }

    /// Advances `state` by `duration` seconds, adapting the internal step.
    ///
    /// A step is accepted only when the step-doubling error estimate meets
    /// `tolerance`; a step that must shrink below 1 ps to do so aborts with
    /// [`SolveError::StepUnderflow`] instead of silently accepting an
    /// out-of-tolerance result (the pre-fix behavior: the old accept branch
    /// took any `step < 1e-12` regardless of error, and its underflow
    /// assertion `step >= 1e-12 || err.is_finite()` could never fire for a
    /// finite error).
    ///
    /// # Errors
    ///
    /// [`SolveError::StepUnderflow`] if the network is too stiff for an
    /// explicit scheme at this tolerance — use [`BackwardEuler`].
    pub fn advance(
        &self,
        state: &mut Vec<f64>,
        si_cell_power: &[f64],
        ambient: f64,
        duration: f64,
    ) -> Result<(), SolveError> {
        let b = self.circuit.rhs(si_cell_power, ambient);
        let mut remaining = duration;
        let mut h = self.suggested_step().min(duration.max(1e-30));
        let mut full = Vec::new();
        let mut half1 = Vec::new();
        let mut half2 = Vec::new();
        while remaining > 1e-15 * duration.max(1.0) {
            let step = h.min(remaining);
            self.rk4_step(state, &b, step, &mut full);
            self.rk4_step(state, &b, step / 2.0, &mut half1);
            self.rk4_step(&half1, &b, step / 2.0, &mut half2);
            let err = full.iter().zip(&half2).map(|(a, c)| (a - c).abs()).fold(0.0f64, f64::max);
            if err <= self.tolerance {
                *state = half2.clone();
                remaining -= step;
                if err < self.tolerance / 4.0 {
                    h = step * 2.0;
                }
            } else if step < 1e-12 {
                // Halving further cannot help: the error estimate is either
                // non-finite (overflowed dynamics) or dominated by round-off.
                return Err(SolveError::StepUnderflow { step, error: err });
            } else {
                h = step / 2.0;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{build_circuit, DieGeometry};
    use crate::package::{AirSinkPackage, OilSiliconPackage, Package};
    use hotiron_floorplan::{library, GridMapping};

    const AMBIENT: f64 = 318.15; // 45 °C

    fn oil_circuit(rows: usize) -> ThermalCircuit {
        let plan = library::uniform_die(0.02, 0.02);
        let map = GridMapping::new(&plan, rows, rows);
        let die = DieGeometry { width: 0.02, height: 0.02, thickness: 0.5e-3 };
        build_circuit(&map, die, &Package::OilSilicon(OilSiliconPackage::paper_default())).unwrap()
    }

    fn air_circuit(rows: usize) -> ThermalCircuit {
        let plan = library::uniform_die(0.02, 0.02);
        let map = GridMapping::new(&plan, rows, rows);
        let die = DieGeometry { width: 0.02, height: 0.02, thickness: 0.5e-3 };
        build_circuit(&map, die, &Package::AirSink(AirSinkPackage::paper_default())).unwrap()
    }

    #[test]
    fn steady_energy_balance() {
        // In steady state, total heat into ambient equals total power.
        let c = oil_circuit(8);
        let p = vec![200.0 / 64.0; 64];
        let mut state = vec![AMBIENT; c.node_count()];
        solve_steady(&c, &p, AMBIENT, &mut state).unwrap();
        let q_out: f64 =
            state.iter().zip(c.ambient_conductance()).map(|(t, g)| g * (t - AMBIENT)).sum();
        assert!((q_out - 200.0).abs() < 0.01, "q_out = {q_out}");
    }

    #[test]
    fn steady_uniform_power_matches_lumped_rconv() {
        // Uniform 200 W over the die with Rconv ≈ 1.0 K/W: the average die
        // temperature rise is ≈ 200 K (the Fig 2 scenario, which settles
        // around 520 K from a 318 K ambient in the paper's plot).
        let c = oil_circuit(16);
        let p = vec![200.0 / 256.0; 256];
        let mut state = vec![AMBIENT; c.node_count()];
        solve_steady(&c, &p, AMBIENT, &mut state).unwrap();
        let si = c.silicon_slice(&state);
        let avg: f64 = si.iter().sum::<f64>() / si.len() as f64;
        let rise = avg - AMBIENT;
        assert!(rise > 160.0 && rise < 260.0, "avg rise = {rise} K");
    }

    #[test]
    fn steady_zero_power_is_ambient() {
        let c = air_circuit(6);
        let p = vec![0.0; 36];
        let mut state = vec![300.0; c.node_count()];
        solve_steady(&c, &p, AMBIENT, &mut state).unwrap();
        for t in &state {
            assert!((t - AMBIENT).abs() < 1e-6, "{t}");
        }
    }

    #[test]
    fn air_steady_energy_balance() {
        let c = air_circuit(8);
        let p = vec![50.0 / 64.0; 64];
        let mut state = vec![AMBIENT; c.node_count()];
        solve_steady(&c, &p, AMBIENT, &mut state).unwrap();
        let q_out: f64 =
            state.iter().zip(c.ambient_conductance()).map(|(t, g)| g * (t - AMBIENT)).sum();
        assert!((q_out - 50.0).abs() < 0.005, "q_out = {q_out}");
    }

    #[test]
    fn backward_euler_approaches_steady_state() {
        let c = oil_circuit(8);
        let p = vec![200.0 / 64.0; 64];
        let mut steady = vec![AMBIENT; c.node_count()];
        solve_steady(&c, &p, AMBIENT, &mut steady).unwrap();

        let be = BackwardEuler::new(&c, 0.05);
        let mut state = vec![AMBIENT; c.node_count()];
        // The paper's Fig 2 shows settling within ~2-3 s; integrate 20 s to
        // be safely converged.
        be.advance(&mut state, &p, AMBIENT, 20.0).unwrap();
        let avg_err =
            state.iter().zip(&steady).map(|(a, b)| (a - b).abs()).sum::<f64>() / state.len() as f64;
        assert!(avg_err < 1.0, "avg |T - T_steady| = {avg_err} K");
    }

    #[test]
    fn backward_euler_conserves_monotonic_warmup() {
        let c = oil_circuit(6);
        let p = vec![100.0 / 36.0; 36];
        let be = BackwardEuler::new(&c, 0.01);
        let mut state = vec![AMBIENT; c.node_count()];
        let mut last = AMBIENT;
        for _ in 0..20 {
            be.step(&mut state, &p, AMBIENT).unwrap();
            let t = state[0];
            assert!(t >= last - 1e-9, "warmup must be monotonic");
            last = t;
        }
        assert!(last > AMBIENT + 1.0);
    }

    #[test]
    fn rk4_agrees_with_backward_euler() {
        let c = oil_circuit(4);
        let p = vec![50.0 / 16.0; 16];
        let mut s_be = vec![AMBIENT; c.node_count()];
        let mut s_rk = s_be.clone();
        // Short window with a small BE step so first-order error is small.
        let be = BackwardEuler::new(&c, 1e-4);
        be.advance(&mut s_be, &p, AMBIENT, 0.05).unwrap();
        let rk = Rk4Adaptive::new(&c);
        rk.advance(&mut s_rk, &p, AMBIENT, 0.05).unwrap();
        for (a, b) in s_be.iter().zip(&s_rk) {
            assert!((a - b).abs() < 0.25, "BE {a} vs RK4 {b}");
        }
    }

    #[test]
    fn advance_handles_partial_steps() {
        let c = oil_circuit(4);
        let p = vec![10.0 / 16.0; 16];
        let be = BackwardEuler::new(&c, 0.01);
        let mut a = vec![AMBIENT; c.node_count()];
        be.advance(&mut a, &p, AMBIENT, 0.025).unwrap();
        // Same total duration in uneven chunks.
        let mut b = vec![AMBIENT; c.node_count()];
        be.advance(&mut b, &p, AMBIENT, 0.02).unwrap();
        be.advance(&mut b, &p, AMBIENT, 0.005).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 0.05, "{x} vs {y}");
        }
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn backward_euler_rejects_bad_dt() {
        let c = oil_circuit(2);
        let _ = BackwardEuler::new(&c, 0.0);
    }

    /// Max |a - b| over node pairs.
    fn max_node_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f64, f64::max)
    }

    /// High-accuracy CG reference (tolerance well below [`DEFAULT_TOL`], so
    /// the comparison bound measures the direct solver, not CG's slack).
    fn cg_reference(a: &CsrMatrix, b: &[f64], x0: &[f64]) -> Vec<f64> {
        let mut x = x0.to_vec();
        let stats = conjugate_gradient(a, b, &mut x, 1e-13, 100 * a.dim() + 1000);
        assert!(stats.converged, "reference CG must converge: {stats:?}");
        x
    }

    #[test]
    fn steady_direct_agrees_with_cg_oil() {
        let c = oil_circuit(8);
        let p: Vec<f64> = (0..64).map(|i| 3.0 + (i as f64 * 0.37).sin()).collect();
        let mut t_direct = vec![AMBIENT; c.node_count()];
        let s_dir =
            solve_steady_with(&c, &p, AMBIENT, &mut t_direct, SolverChoice::Direct).unwrap();
        assert_eq!(s_dir.method, SolveMethod::Ldlt);
        assert!(s_dir.factor_nnz > c.node_count());
        let b = c.rhs(&p, AMBIENT);
        let t_cg = cg_reference(c.conductance(), &b, &vec![AMBIENT; c.node_count()]);
        let max_diff = max_node_diff(&t_cg, &t_direct);
        assert!(max_diff <= 1e-8, "max node diff {max_diff}");
    }

    #[test]
    fn steady_direct_agrees_with_cg_air() {
        let c = air_circuit(8);
        let p: Vec<f64> = (0..64).map(|i| 0.5 + 0.1 * (i % 7) as f64).collect();
        let mut t_direct = vec![AMBIENT; c.node_count()];
        solve_steady_with(&c, &p, AMBIENT, &mut t_direct, SolverChoice::Direct).unwrap();
        let b = c.rhs(&p, AMBIENT);
        let t_cg = cg_reference(c.conductance(), &b, &vec![AMBIENT; c.node_count()]);
        let max_diff = max_node_diff(&t_cg, &t_direct);
        assert!(max_diff <= 1e-8, "max node diff {max_diff}");
    }

    #[test]
    fn backward_euler_direct_matches_cg_stepping() {
        let c = oil_circuit(6);
        let p = vec![100.0 / 36.0; 36];
        let dt = 0.01;
        let direct = BackwardEuler::new(&c, dt);
        let cg = BackwardEuler::with_solver(&c, dt, SolverChoice::Cg);
        assert_eq!(direct.solver(), SolverChoice::Direct);
        assert_eq!(cg.solver(), SolverChoice::Cg);
        let mut s_direct = vec![AMBIENT; c.node_count()];
        // Tight-tolerance CG reference replaying the same recurrence, so the
        // bound measures the direct path's error rather than DEFAULT_TOL
        // slack accumulated over 50 steps.
        let c_over_dt: Vec<f64> = c.capacitance().iter().map(|cap| cap / dt).collect();
        let a = c.conductance().add_diagonal(&c_over_dt);
        let mut s_ref = vec![AMBIENT; c.node_count()];
        for _ in 0..50 {
            direct.step(&mut s_direct, &p, AMBIENT).unwrap();
            let mut b = c.rhs(&p, AMBIENT);
            for (bi, (ci, si)) in b.iter_mut().zip(c_over_dt.iter().zip(&s_ref)) {
                *bi += ci * si;
            }
            s_ref = cg_reference(&a, &b, &s_ref);
        }
        let max_diff = max_node_diff(&s_direct, &s_ref);
        assert!(max_diff <= 1e-8, "max node diff after 50 steps {max_diff}");
        // The plain CG-backed stepper stays within its documented tolerance
        // of the direct trajectory as well.
        let mut s_cg = vec![AMBIENT; c.node_count()];
        for _ in 0..50 {
            cg.step(&mut s_cg, &p, AMBIENT).unwrap();
        }
        assert!(max_node_diff(&s_direct, &s_cg) <= 1e-6);
    }

    #[test]
    fn backward_euler_reports_factor_telemetry() {
        let c = oil_circuit(4);
        let p = vec![1.0; 16];
        let be = BackwardEuler::new(&c, 0.01);
        assert!(be.factor_nnz() > 0);
        assert_eq!(be.solve_count(), 0);
        let mut state = vec![AMBIENT; c.node_count()];
        let first = be.step(&mut state, &p, AMBIENT).unwrap();
        assert_eq!(first.method, SolveMethod::Ldlt);
        assert_eq!(first.solve_count, 1);
        assert!(first.factor_seconds > 0.0, "first step carries factor time");
        let second = be.step(&mut state, &p, AMBIENT).unwrap();
        assert_eq!(second.solve_count, 2);
        assert_eq!(second.factor_seconds, 0.0, "cached factor costs nothing");
        assert_eq!(second.factor_nnz, first.factor_nnz);
        assert_eq!(be.solve_count(), 2);
    }

    #[test]
    fn advance_reuses_cached_tail_stepper() {
        // Regression: advance() used to rebuild (and now would also
        // re-factor) the tail operator on every call. The cache makes
        // repeated equal remainders reuse one tail stepper; equality of the
        // trajectory with a fresh stepper guards correctness of the reuse.
        let c = oil_circuit(4);
        let p = vec![10.0 / 16.0; 16];
        let be = BackwardEuler::new(&c, 0.01);
        let mut cached = vec![AMBIENT; c.node_count()];
        // 0.025 s = 2 whole steps + 0.005 s remainder, three times over.
        for _ in 0..3 {
            be.advance(&mut cached, &p, AMBIENT, 0.025).unwrap();
        }
        let mut fresh = vec![AMBIENT; c.node_count()];
        for _ in 0..3 {
            let one_shot = BackwardEuler::new(&c, 0.01);
            one_shot.advance(&mut fresh, &p, AMBIENT, 0.025).unwrap();
        }
        for (a, b) in cached.iter().zip(&fresh) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    /// Two-package PCB board circuit at the board's shared `rows × rows`
    /// grid: bare lumped-top die + air-sink package, lumped PCB back.
    fn board_circuit(rows: usize) -> ThermalCircuit {
        use crate::board::{Board, PcbSpec, Placement, Rotation};
        use crate::stack::{Boundary, Layer, LayerStack};
        let die = DieGeometry { width: 0.02, height: 0.02, thickness: 0.5e-3 };
        let bare =
            LayerStack::new(vec![Layer::new("silicon", crate::materials::SILICON, 0.5e-3)], 0)
                .with_top(Boundary::Lumped { r_total: 2.0, c_total: 30.0 });
        let sink = Package::AirSink(AirSinkPackage::paper_default()).to_stack(die).unwrap();
        let place = |name: &str, stack, x, y| Placement {
            name: name.into(),
            die,
            stack,
            x,
            y,
            rotation: Rotation::R0,
        };
        let board = Board::new(
            rows,
            rows,
            PcbSpec {
                width: 0.08,
                height: 0.06,
                thickness: 1.6e-3,
                material: crate::materials::PCB,
                bottom: Boundary::Lumped { r_total: 4.0, c_total: 200.0 },
            },
        )
        .with_placement(place("u1", bare, 0.005, 0.005))
        .with_placement(place("u2", sink, 0.045, 0.03));
        let plan = library::uniform_die(0.02, 0.02);
        let m = GridMapping::new(&plan, rows, rows);
        crate::circuit::build_circuit_from_board(&board, &[m.clone(), m]).unwrap()
    }

    #[test]
    fn board_solvers_agree_and_multigrid_builds() {
        // The board plane layout (uniform cell planes first, singles after)
        // must coarsen under the stock multigrid derivation; Direct, CG and
        // MG-PCG must agree on the coupled two-package steady state.
        let c = board_circuit(16);
        let p: Vec<f64> = (0..2 * 256).map(|i| 0.02 + 0.0001 * (i % 37) as f64).collect();
        let mut direct = vec![AMBIENT; c.node_count()];
        solve_steady_with(&c, &p, AMBIENT, &mut direct, SolverChoice::Direct).unwrap();
        let mut cg = vec![AMBIENT; c.node_count()];
        solve_steady_with(&c, &p, AMBIENT, &mut cg, SolverChoice::Cg).unwrap();
        let mut mg = vec![AMBIENT; c.node_count()];
        let stats = solve_steady_with(&c, &p, AMBIENT, &mut mg, SolverChoice::Multigrid).unwrap();
        assert_eq!(stats.method, crate::sparse::SolveMethod::MgCg, "hierarchy must build");
        for i in 0..c.node_count() {
            assert!((direct[i] - cg[i]).abs() < 1e-6, "cg drift at {i}");
            assert!((direct[i] - mg[i]).abs() < 1e-6, "mg drift at {i}");
        }
        // The packages actually couple: heating only u1 warms u2's silicon.
        let nodes = c.board_nodes().unwrap();
        let mut p1 = vec![0.0; 2 * 256];
        p1[..256].iter_mut().for_each(|v| *v = 0.1);
        let mut state = vec![AMBIENT; c.node_count()];
        solve_steady_with(&c, &p1, AMBIENT, &mut state, SolverChoice::Direct).unwrap();
        let u2_si = nodes.placements[1].si_plane * 256;
        let u2_rise = state[u2_si..u2_si + 256].iter().sum::<f64>() / 256.0 - AMBIENT;
        assert!(u2_rise > 1e-4, "inter-package coupling must warm the idle die ({u2_rise} K)");
    }

    #[test]
    fn board_spectral_is_ineligible_with_named_reason() {
        let c = board_circuit(16);
        let p = vec![0.05; 2 * 256];
        let mut state = vec![AMBIENT; c.node_count()];
        let err =
            solve_steady_with(&c, &p, AMBIENT, &mut state, SolverChoice::Spectral).unwrap_err();
        match err {
            SolveError::SpectralIneligible { reason } => {
                assert!(reason.contains("board circuit"), "{reason}");
                assert!(reason.contains("PCB"), "{reason}");
            }
            other => panic!("expected SpectralIneligible, got {other:?}"),
        }
    }

    #[test]
    fn rk4_reports_stiffness_instead_of_accepting_bad_steps() {
        // Regression: with an unattainable tolerance the old logic accepted
        // any step below 1e-12 s regardless of error (its underflow
        // assertion `step >= 1e-12 || err.is_finite()` was vacuous for
        // finite error). The fix reports StepUnderflow.
        let c = oil_circuit(4);
        let p = vec![50.0 / 16.0; 16];
        let mut rk = Rk4Adaptive::new(&c);
        rk.tolerance = 0.0; // no finite step can meet this
        let mut state = vec![AMBIENT; c.node_count()];
        let err = rk.advance(&mut state, &p, AMBIENT, 0.01).unwrap_err();
        match err {
            SolveError::StepUnderflow { step, error } => {
                assert!(step < 1e-12);
                assert!(error > 0.0);
            }
            other => panic!("expected StepUnderflow, got {other:?}"),
        }
    }

    /// EV6 under the paper's AIR-SINK package (fig6's and paper-air's
    /// operators) on a `rows × rows` grid.
    fn ev6_air_circuit(rows: usize) -> ThermalCircuit {
        let plan = library::ev6();
        let die = DieGeometry { width: plan.width(), height: plan.height(), thickness: 0.5e-3 };
        let map = GridMapping::new(&plan, rows, rows);
        build_circuit(&map, die, &Package::AirSink(AirSinkPackage::paper_default())).unwrap()
    }

    #[test]
    fn air_sink_factors_stay_sparse() {
        // The lumped convection node and the spreader/sink rings couple to
        // whole layers; ordered inside the RCM sweep they blew these factors
        // up to 980,874 and 190,330 entries.
        let c = ev6_air_circuit(24);
        let c_over_dt: Vec<f64> = c.capacitance().iter().map(|cap| cap / 0.002).collect();
        let be = LdlFactor::factor(&c.conductance().add_diagonal(&c_over_dt)).unwrap();
        assert!(be.nnz_l() < 200_000, "fig6 AIR backward-Euler nnz(L) = {}", be.nnz_l());
        let steady = LdlFactor::factor(ev6_air_circuit(16).conductance()).unwrap();
        assert!(steady.nnz_l() < 60_000, "paper-air steady nnz(L) = {}", steady.nnz_l());
    }

    #[test]
    fn symbolic_counts_the_paper_air_factor() {
        let c = ev6_air_circuit(16);
        let f = LdlFactor::factor(c.conductance()).unwrap();
        let sym = c.symbolic();
        assert_eq!((sym.nnz_l(), f.nnz_l()), (49_504, 49_504));
        assert_eq!(sym.flops(), f.stored_flops());
        let (memo, _) = c.steady_factor_with_setup().unwrap();
        assert_eq!(memo.nnz_l(), 49_504, "the memoized factor reuses the memoized analysis");
    }

    /// EV6 under the paper's OIL-SILICON package (paper-oil's operator).
    fn ev6_oil_circuit(rows: usize) -> ThermalCircuit {
        let plan = library::ev6();
        let die = DieGeometry { width: plan.width(), height: plan.height(), thickness: 0.5e-3 };
        let map = GridMapping::new(&plan, rows, rows);
        build_circuit(&map, die, &Package::OilSilicon(OilSiliconPackage::paper_default())).unwrap()
    }

    #[test]
    fn auto_rule_factors_what_fits_the_budget() {
        let auto = |c: &ThermalCircuit| {
            let p = vec![40.0 / c.cell_count() as f64; c.cell_count()];
            let mut state = vec![AMBIENT; c.node_count()];
            solve_steady(c, &p, AMBIENT, &mut state).unwrap()
        };
        // 64×64 OIL: a 2.37 MB factor, answered directly.
        let oil = ev6_oil_circuit(64);
        assert!(oil.symbolic().bytes() <= DIRECT_AUTO_MAX_BYTES);
        let stats = auto(&oil);
        assert_eq!((stats.method, stats.factor_nnz), (SolveMethod::Ldlt, 189_024));
        // 64×64 AIR-SINK: ~35 MB, over the budget, so multigrid.
        let air = ev6_air_circuit(64);
        assert!(air.symbolic().bytes() > DIRECT_AUTO_MAX_BYTES, "{}", air.symbolic().bytes());
        assert_eq!(auto(&air).method, SolveMethod::MgCg);
        // Below 64×64 the grid stays on CG, however small its factor.
        assert_eq!(auto(&ev6_oil_circuit(32)).method, SolveMethod::Cg);
    }
}
