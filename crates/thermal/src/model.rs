//! The public thermal-model API.
//!
//! [`ThermalModel`] ties a [`Floorplan`] to a [`Package`] and exposes
//! steady-state solves, transient simulation, and per-block temperature
//! read-out — the modified HotSpot of the paper's §3.

use crate::circuit::{CircuitCache, DieGeometry, ThermalCircuit};
use crate::package::Package;
use crate::pool;
use crate::power::PowerMap;
use crate::solve::{solve_steady, BackwardEuler, SolveError};
use crate::sparse::SolveStats;
use crate::stack::StackError;
use crate::units::{celsius_to_kelvin, kelvin_to_celsius};
use hotiron_floorplan::{Floorplan, GridMapping};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Errors from model construction or solving.
#[derive(Debug)]
#[non_exhaustive]
pub enum ThermalError {
    /// Invalid model configuration.
    Config(String),
    /// An invalid layer stack (bad lowering or failed validation).
    Stack(StackError),
    /// A solver failed to converge.
    Solve(SolveError),
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(m) => write!(f, "invalid model configuration: {m}"),
            Self::Stack(e) => write!(f, "invalid layer stack: {e}"),
            Self::Solve(e) => write!(f, "solve failed: {e}"),
        }
    }
}

impl Error for ThermalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Solve(e) => Some(e),
            Self::Stack(e) => Some(e),
            Self::Config(_) => None,
        }
    }
}

impl From<SolveError> for ThermalError {
    fn from(e: SolveError) -> Self {
        Self::Solve(e)
    }
}

impl From<StackError> for ThermalError {
    fn from(e: StackError) -> Self {
        Self::Stack(e)
    }
}

/// Model discretization and environment settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Grid rows (die y direction).
    pub rows: usize,
    /// Grid columns (die x direction).
    pub cols: usize,
    /// Bulk silicon thickness, m.
    pub die_thickness: f64,
    /// Ambient (coolant inlet) temperature, K.
    pub ambient: f64,
}

impl ModelConfig {
    /// The paper's setup: 32x32 grid, 0.5 mm die, 45 °C ambient.
    pub fn paper_default() -> Self {
        Self { rows: 32, cols: 32, die_thickness: 0.5e-3, ambient: celsius_to_kelvin(45.0) }
    }

    /// Overrides the grid resolution.
    pub fn with_grid(mut self, rows: usize, cols: usize) -> Self {
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Overrides the ambient temperature (K).
    pub fn with_ambient(mut self, kelvin: f64) -> Self {
        self.ambient = kelvin;
        self
    }

    /// Overrides the die thickness (m).
    pub fn with_die_thickness(mut self, m: f64) -> Self {
        self.die_thickness = m;
        self
    }

    fn validate(&self) -> Result<(), ThermalError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(ThermalError::Config("grid must be at least 1x1".into()));
        }
        if !(self.die_thickness.is_finite() && self.die_thickness > 0.0) {
            return Err(ThermalError::Config("die thickness must be positive".into()));
        }
        if !(self.ambient.is_finite() && self.ambient > 0.0) {
            return Err(ThermalError::Config("ambient must be positive kelvin".into()));
        }
        Ok(())
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A compact thermal model of one die in one package.
///
/// # Examples
///
/// ```
/// use hotiron_floorplan::library;
/// use hotiron_thermal::model::{ModelConfig, ThermalModel};
/// use hotiron_thermal::package::{OilSiliconPackage, Package};
/// use hotiron_thermal::power::PowerMap;
///
/// let plan = library::ev6();
/// let model = ThermalModel::new(
///     plan.clone(),
///     Package::OilSilicon(OilSiliconPackage::paper_default()),
///     ModelConfig::paper_default(),
/// )?;
/// let power = PowerMap::from_pairs(&plan, [("IntReg", 2.0)])?;
/// let sol = model.steady_state(&power)?;
/// let hottest = sol.hottest_block();
/// assert_eq!(hottest.0, "IntReg");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ThermalModel {
    plan: Floorplan,
    mapping: GridMapping,
    /// Shared handle from the process-wide circuit cache: models built over
    /// identical (stack, die, grid) triples reuse one assembled circuit and
    /// its lazily built multigrid hierarchy.
    circuit: Arc<ThermalCircuit>,
    config: ModelConfig,
    /// Warm-start cache: the most recent steady solution (or an explicitly
    /// seeded state), used as the next steady solve's initial guess. Keyed
    /// to *this* model by construction — solutions never leak across models,
    /// so fanned-out experiments stay order-independent.
    warm: Mutex<Option<Vec<f64>>>,
    /// Telemetry of the most recent steady solve.
    last_stats: Mutex<Option<SolveStats>>,
}

impl ThermalModel {
    /// Builds the model (assembles the RC network, or fetches it from the
    /// process-wide circuit cache when an identical stack/die/grid circuit
    /// is already alive).
    ///
    /// # Errors
    ///
    /// [`ThermalError::Config`] for invalid configuration;
    /// [`ThermalError::Stack`] when the package does not lower to a valid
    /// stack (e.g. `PcbCooling::Oil` on an AIR-SINK package).
    pub fn new(
        plan: Floorplan,
        package: Package,
        config: ModelConfig,
    ) -> Result<Self, ThermalError> {
        config.validate()?;
        let die = DieGeometry {
            width: plan.width(),
            height: plan.height(),
            thickness: config.die_thickness,
        };
        let stack = package.to_stack(die)?;
        let mapping = GridMapping::new(&plan, config.rows, config.cols);
        let (circuit, _) = CircuitCache::process().get_or_build(&mapping, die, &stack)?;
        Ok(Self {
            plan,
            mapping,
            circuit,
            config,
            warm: Mutex::new(None),
            last_stats: Mutex::new(None),
        })
    }

    /// The floorplan.
    pub fn floorplan(&self) -> &Floorplan {
        &self.plan
    }

    /// The grid mapping.
    pub fn mapping(&self) -> &GridMapping {
        &self.mapping
    }

    /// The assembled circuit (for inspection and custom solvers).
    pub fn circuit(&self) -> &ThermalCircuit {
        &self.circuit
    }

    /// The configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Ambient temperature, K.
    pub fn ambient(&self) -> f64 {
        self.config.ambient
    }

    /// Per-silicon-cell power (W) for a block power map.
    ///
    /// Parallelized per cell over the gather transpose
    /// ([`GridMapping::blocks_of_cell`]), whose block-ascending entry order
    /// makes the result bitwise identical to the serial scatter at any
    /// thread count.
    pub fn cell_power(&self, power: &PowerMap) -> Vec<f64> {
        let values = power.values();
        assert_eq!(values.len(), self.mapping.block_count(), "one value per block required");
        let mut out = vec![0.0; self.mapping.cell_count()];
        let p = pool::current();
        pool::fill_chunks(&p, &mut out, |_, start, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                for &(bi, frac) in self.mapping.blocks_of_cell(start + k) {
                    *slot += values[bi] * frac;
                }
            }
        });
        out
    }

    /// An all-ambient initial state.
    pub fn initial_state(&self) -> Vec<f64> {
        vec![self.config.ambient; self.circuit.node_count()]
    }

    /// Solves the steady state for a power map.
    ///
    /// The solve warm-starts from this model's most recent steady solution
    /// (or a state provided via [`seed_warm_start`](Self::seed_warm_start))
    /// when one exists — re-solves under slowly varying power, the common
    /// case in DTM loops and parameter sweeps, then converge in a fraction
    /// of the cold iteration count. [`SolveStats::warm_start`] in
    /// [`last_solve_stats`](Self::last_solve_stats) reports which case ran.
    ///
    /// # Errors
    ///
    /// [`ThermalError::Solve`] if the solver does not converge.
    pub fn steady_state(&self, power: &PowerMap) -> Result<Solution<'_>, ThermalError> {
        let p = self.cell_power(power);
        let mut state = self.initial_state();
        let warm = {
            let cache = self.warm.lock().unwrap_or_else(PoisonError::into_inner);
            match cache.as_ref() {
                Some(prev) => {
                    state.copy_from_slice(prev);
                    true
                }
                None => false,
            }
        };
        let result = solve_steady(&self.circuit, &p, self.config.ambient, &mut state);
        let stats = match result {
            Ok(mut stats) => {
                stats.warm_start = warm;
                stats
            }
            Err(e) => {
                // A failed warm-started solve must not poison later solves.
                *self.warm.lock().unwrap_or_else(PoisonError::into_inner) = None;
                return Err(e.into());
            }
        };
        *self.warm.lock().unwrap_or_else(PoisonError::into_inner) = Some(state.clone());
        *self.last_stats.lock().unwrap_or_else(PoisonError::into_inner) = Some(stats);
        Ok(Solution { model: self, state })
    }

    /// Seeds the warm-start cache with an externally computed state (e.g.
    /// the previous orientation's solution in a flow-direction sweep across
    /// *different* models of the same die).
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the circuit's node count.
    pub fn seed_warm_start(&self, state: Vec<f64>) {
        assert_eq!(state.len(), self.circuit.node_count(), "state length mismatch");
        *self.warm.lock().unwrap_or_else(PoisonError::into_inner) = Some(state);
    }

    /// Telemetry of the most recent [`steady_state`](Self::steady_state)
    /// solve on this model, if any succeeded yet.
    pub fn last_solve_stats(&self) -> Option<SolveStats> {
        self.last_stats.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Creates a transient simulator starting from ambient.
    pub fn transient(&self, dt: f64) -> TransientSim<'_> {
        TransientSim {
            model: self,
            stepper: BackwardEuler::new(&self.circuit, dt),
            state: self.initial_state(),
            time: 0.0,
        }
    }
}

/// A solved thermal state with block-level accessors.
#[derive(Debug, Clone)]
pub struct Solution<'m> {
    model: &'m ThermalModel,
    state: Vec<f64>,
}

impl<'m> Solution<'m> {
    /// The raw node state, kelvin.
    pub fn state(&self) -> &[f64] {
        &self.state
    }

    /// Silicon cell temperatures (kelvin), row-major, row 0 at die bottom.
    pub fn silicon_cells(&self) -> &[f64] {
        self.model.circuit.silicon_slice(&self.state)
    }

    /// Area-weighted average temperature of each block, °C, floorplan order.
    ///
    /// Each block's average is an independent fold over its own cells, so
    /// the per-block parallelization cannot change results.
    pub fn block_celsius(&self) -> Vec<f64> {
        let mapping = &self.model.mapping;
        let field = self.silicon_cells();
        let mut out = vec![0.0; mapping.block_count()];
        let p = pool::current();
        pool::fill_chunks(&p, &mut out, |_, start, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                let mut acc = 0.0;
                let mut wsum = 0.0;
                for &(ci, frac) in mapping.cells_of_block(start + k) {
                    acc += field[ci] * frac;
                    wsum += frac;
                }
                *slot = kelvin_to_celsius(if wsum > 0.0 { acc / wsum } else { 0.0 });
            }
        });
        out
    }

    /// One block's average temperature, °C.
    ///
    /// # Panics
    ///
    /// Panics if the block name is unknown.
    pub fn block(&self, name: &str) -> f64 {
        let i =
            self.model.plan.block_index(name).unwrap_or_else(|| panic!("unknown block `{name}`"));
        self.block_celsius()[i]
    }

    /// Hottest block by average temperature: `(name, °C)`.
    pub fn hottest_block(&self) -> (&str, f64) {
        let temps = self.block_celsius();
        let (i, t) = temps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("floorplan is non-empty");
        (self.model.plan.blocks()[i].name(), *t)
    }

    /// Coolest block by average temperature: `(name, °C)`.
    pub fn coolest_block(&self) -> (&str, f64) {
        let temps = self.block_celsius();
        let (i, t) = temps
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("floorplan is non-empty");
        (self.model.plan.blocks()[i].name(), *t)
    }

    /// Maximum silicon cell temperature, °C.
    pub fn max_celsius(&self) -> f64 {
        kelvin_to_celsius(self.silicon_cells().iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)))
    }

    /// Minimum silicon cell temperature, °C.
    pub fn min_celsius(&self) -> f64 {
        kelvin_to_celsius(self.silicon_cells().iter().fold(f64::INFINITY, |a, &b| a.min(b)))
    }

    /// Across-die temperature difference `Tmax − Tmin`, K.
    pub fn gradient(&self) -> f64 {
        self.max_celsius() - self.min_celsius()
    }

    /// Area-weighted average silicon temperature, °C.
    pub fn average_celsius(&self) -> f64 {
        let cells = self.silicon_cells();
        kelvin_to_celsius(cells.iter().sum::<f64>() / cells.len() as f64)
    }

    /// Temperature at die coordinates `(x, y)` meters, °C (the silicon cell
    /// containing the point; coordinates clamp to the die).
    pub fn celsius_at(&self, x: f64, y: f64) -> f64 {
        let m = self.model.mapping();
        let (r, c) = m.cell_at(x, y);
        kelvin_to_celsius(self.silicon_cells()[m.cell_index(r, c)])
    }

    /// The die's `(width, height)` in meters.
    pub fn die_size(&self) -> (f64, f64) {
        (self.model.floorplan().width(), self.model.floorplan().height())
    }

    /// Die coordinates `(x, y)` of the hottest silicon cell, meters.
    pub fn hottest_cell_position(&self) -> (f64, f64) {
        let cells = self.silicon_cells();
        let (i, _) =
            cells.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).expect("grid is non-empty");
        let m = self.model.mapping();
        let (r, c) = m.cell_coords(i);
        m.cell_center(r, c)
    }

    /// The silicon temperature field as a row-major °C grid
    /// (row 0 at the die bottom).
    pub fn celsius_grid(&self) -> Vec<f64> {
        self.silicon_cells().iter().map(|&k| kelvin_to_celsius(k)).collect()
    }

    /// Consumes the solution, returning the raw state.
    pub fn into_state(self) -> Vec<f64> {
        self.state
    }
}

/// Stateful transient simulator (backward Euler).
///
/// # Examples
///
/// ```
/// use hotiron_floorplan::library;
/// use hotiron_thermal::model::{ModelConfig, ThermalModel};
/// use hotiron_thermal::package::{AirSinkPackage, Package};
/// use hotiron_thermal::power::PowerMap;
///
/// let plan = library::ev6();
/// let model = ThermalModel::new(
///     plan.clone(),
///     Package::AirSink(AirSinkPackage::paper_default()),
///     ModelConfig::paper_default().with_grid(8, 8),
/// )?;
/// let power = PowerMap::from_pairs(&plan, [("IntReg", 2.0)])?;
/// let mut sim = model.transient(1e-3);
/// sim.run(&power, 0.01)?; // 10 ms of heating
/// assert!(sim.solution().block("IntReg") > 45.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TransientSim<'m> {
    model: &'m ThermalModel,
    stepper: BackwardEuler<'m>,
    state: Vec<f64>,
    time: f64,
}

impl<'m> TransientSim<'m> {
    /// Elapsed simulated time, s.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The model this simulator runs on.
    pub fn model(&self) -> &ThermalModel {
        self.model
    }

    /// The backward-Euler stepper driving this simulation, for solver
    /// telemetry (active solver, factor fill-in, amortized solve count).
    pub fn stepper(&self) -> &BackwardEuler<'m> {
        &self.stepper
    }

    /// Replaces the state with the steady state of `power` (the paper's
    /// Fig 8 initialization: steady state of the average power).
    ///
    /// # Errors
    ///
    /// Propagates steady-solve convergence failures.
    pub fn init_steady(&mut self, power: &PowerMap) -> Result<(), ThermalError> {
        let sol = self.model.steady_state(power)?;
        self.state = sol.into_state();
        Ok(())
    }

    /// Advances by `duration` seconds under a constant power map.
    ///
    /// # Errors
    ///
    /// Propagates inner solver failures.
    pub fn run(&mut self, power: &PowerMap, duration: f64) -> Result<(), ThermalError> {
        let p = self.model.cell_power(power);
        self.stepper.advance(&mut self.state, &p, self.model.config.ambient, duration)?;
        self.time += duration;
        Ok(())
    }

    /// Advances by exactly one solver step.
    ///
    /// # Errors
    ///
    /// Propagates inner solver failures.
    pub fn step(&mut self, power: &PowerMap) -> Result<(), ThermalError> {
        let p = self.model.cell_power(power);
        self.stepper.step(&mut self.state, &p, self.model.config.ambient)?;
        self.time += self.stepper.dt();
        Ok(())
    }

    /// A read-only view of the current state.
    pub fn solution(&self) -> Solution<'m> {
        Solution { model: self.model, state: self.state.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convection::FlowDirection;
    use crate::package::{AirSinkPackage, OilSiliconPackage};
    use hotiron_floorplan::library;

    fn small_cfg() -> ModelConfig {
        ModelConfig::paper_default().with_grid(16, 16)
    }

    #[test]
    fn config_validation() {
        let plan = library::ev6();
        let bad = ModelConfig { rows: 0, ..ModelConfig::paper_default() };
        assert!(matches!(
            ThermalModel::new(
                plan.clone(),
                Package::OilSilicon(OilSiliconPackage::paper_default()),
                bad
            ),
            Err(ThermalError::Config(_))
        ));
        let bad = ModelConfig::paper_default().with_die_thickness(-1.0);
        assert!(ThermalModel::new(
            plan,
            Package::OilSilicon(OilSiliconPackage::paper_default()),
            bad
        )
        .is_err());
    }

    #[test]
    fn hot_block_is_hottest_under_oil() {
        let plan = library::ev6();
        let model = ThermalModel::new(
            plan.clone(),
            Package::OilSilicon(OilSiliconPackage::paper_default()),
            small_cfg(),
        )
        .unwrap();
        let power = PowerMap::from_pairs(&plan, [("IntReg", 2.0)]).unwrap();
        let sol = model.steady_state(&power).unwrap();
        assert_eq!(sol.hottest_block().0, "IntReg");
        assert!(sol.block("IntReg") > sol.block("L2") + 1.0);
        assert!(sol.max_celsius() >= sol.block("IntReg"));
        assert!(sol.gradient() > 0.0);
    }

    #[test]
    fn air_sink_spreads_more_than_oil() {
        // The paper's central steady-state claim (§4.2): with the same
        // power, OIL-SILICON has a hotter hot spot and a larger gradient.
        let plan = library::ev6();
        let power = PowerMap::from_pairs(&plan, [("IntReg", 4.0), ("L2", 10.0)]).unwrap();
        let air = ThermalModel::new(
            plan.clone(),
            Package::AirSink(AirSinkPackage::paper_default()),
            small_cfg(),
        )
        .unwrap();
        let oil = ThermalModel::new(
            plan.clone(),
            Package::OilSilicon(OilSiliconPackage::paper_default()),
            small_cfg(),
        )
        .unwrap();
        let sa = air.steady_state(&power).unwrap();
        let so = oil.steady_state(&power).unwrap();
        assert!(
            so.max_celsius() > sa.max_celsius(),
            "{} vs {}",
            so.max_celsius(),
            sa.max_celsius()
        );
        assert!(so.gradient() > 2.0 * sa.gradient(), "{} vs {}", so.gradient(), sa.gradient());
    }

    #[test]
    fn flow_direction_changes_temperatures() {
        let plan = library::ev6();
        let power = PowerMap::from_pairs(&plan, [("IntReg", 4.0)]).unwrap();
        let t_for = |dir| {
            let model = ThermalModel::new(
                plan.clone(),
                Package::OilSilicon(OilSiliconPackage::paper_default().with_direction(dir)),
                small_cfg(),
            )
            .unwrap();
            model.steady_state(&power).unwrap().block("IntReg")
        };
        // IntReg is on the top edge: top-to-bottom flow puts it at the
        // leading edge and cools it best (Fig 11's key observation).
        let t_t2b = t_for(FlowDirection::TopToBottom);
        let t_b2t = t_for(FlowDirection::BottomToTop);
        assert!(t_t2b < t_b2t - 1.0, "t2b {t_t2b} vs b2t {t_b2t}");
    }

    #[test]
    fn transient_sim_warms_toward_steady() {
        let plan = library::ev6();
        let model = ThermalModel::new(
            plan.clone(),
            Package::OilSilicon(OilSiliconPackage::paper_default()),
            ModelConfig::paper_default().with_grid(8, 8),
        )
        .unwrap();
        let power = PowerMap::from_pairs(&plan, [("Icache", 16.0)]).unwrap();
        let steady = model.steady_state(&power).unwrap();
        let mut sim = model.transient(0.02);
        sim.run(&power, 10.0).unwrap();
        let t_sim = sim.solution().block("Icache");
        let t_st = steady.block("Icache");
        assert!((t_sim - t_st).abs() < 1.5, "sim {t_sim} steady {t_st}");
        assert!((sim.time() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn init_steady_matches_steady_state() {
        let plan = library::ev6();
        let model = ThermalModel::new(
            plan.clone(),
            Package::AirSink(AirSinkPackage::paper_default()),
            ModelConfig::paper_default().with_grid(8, 8),
        )
        .unwrap();
        let power = PowerMap::from_pairs(&plan, [("IntReg", 2.0)]).unwrap();
        let mut sim = model.transient(1e-3);
        sim.init_steady(&power).unwrap();
        let a = sim.solution().block("IntReg");
        let b = model.steady_state(&power).unwrap().block("IntReg");
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn identical_models_share_one_cached_circuit() {
        let plan = library::ev6();
        let mk = || {
            ThermalModel::new(
                plan.clone(),
                Package::AirSink(AirSinkPackage::paper_default()),
                small_cfg(),
            )
            .unwrap()
        };
        let a = mk();
        let b = mk();
        assert!(
            std::ptr::eq(a.circuit(), b.circuit()),
            "same stack + die + grid must reuse one assembled circuit"
        );
        // Warm-start caches stay per-model even when the circuit is shared.
        a.seed_warm_start(a.initial_state());
        assert!(b.last_solve_stats().is_none());
    }

    #[test]
    fn invalid_stack_is_a_typed_error() {
        let plan = library::ev6();
        let mut pkg = AirSinkPackage::paper_default();
        pkg.spreader.side = 1e-3; // smaller than the die
        let err = ThermalModel::new(plan, Package::AirSink(pkg), small_cfg()).unwrap_err();
        assert!(matches!(err, ThermalError::Stack(_)), "{err:?}");
        assert!(err.to_string().contains("spreader"), "{err}");
    }

    #[test]
    fn solution_statistics_are_consistent() {
        let plan = library::ev6();
        let model = ThermalModel::new(
            plan.clone(),
            Package::OilSilicon(OilSiliconPackage::paper_default()),
            ModelConfig::paper_default().with_grid(8, 8),
        )
        .unwrap();
        let power = PowerMap::uniform_density(&plan, 1e5);
        let sol = model.steady_state(&power).unwrap();
        assert!(sol.min_celsius() <= sol.average_celsius());
        assert!(sol.average_celsius() <= sol.max_celsius());
        assert!((sol.gradient() - (sol.max_celsius() - sol.min_celsius())).abs() < 1e-12);
    }
}
