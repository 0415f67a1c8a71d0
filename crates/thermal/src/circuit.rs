//! RC network assembly.
//!
//! Turns a floorplan + layer stack into a thermal circuit: a sparse
//! conductance matrix `G` (W/K), a per-node capacitance vector `C` (J/K) and
//! per-node conductances to the ambient Dirichlet node. The governing
//! equations are
//!
//! ```text
//! steady state:   G·T = P + G_amb·T_amb
//! transient:      C·dT/dt = P + G_amb·T_amb − G·T
//! ```
//!
//! with `T` in kelvin and `P` in watts.
//!
//! There is one assembler, and it consumes the [`Board`] IR: a bare
//! [`LayerStack`] is assembled as a one-placement board without a PCB
//! ([`Board::solo`]), and the closed [`Package`] enum reaches it by lowering
//! through [`Package::to_stack`]. Invalid stacks surface as typed
//! [`StackError`]s instead of panics.
//!
//! # Discretization
//!
//! Every layer is a `rows x cols` grid at the die footprint. Package plates
//! larger than the die (spreader, heatsink, substrate, PCB) additionally get
//! one lumped **ring node** for the overhang, coupled laterally to the
//! layer's edge cells and vertically to the ring of the neighboring
//! oversized layer — the compact-model treatment HotSpot uses for the
//! spreader/sink periphery.
//!
//! Convection boundaries:
//!
//! * **Lumped convection** (AIR-SINK's `r_convec`/`c_convec`, or natural
//!   convection at a PCB): a single coolant node; the total resistance is
//!   split half between surface→coolant (apportioned by area) and
//!   coolant→ambient, so the coolant mass participates in transients.
//! * **Oil film** (OIL-SILICON): one oil node *per surface cell*, with the
//!   local heat-transfer coefficient `h(x)` of Eqn 8 and the boundary-layer
//!   capacitance of Eqn 3, again split half/half around the oil node. This
//!   per-cell structure is what makes the flow direction matter.

use std::sync::{Arc, OnceLock};

use crate::board::{Board, BoardError};
use crate::cholesky::{LdlFactor, Symbolic};
use crate::convection::LaminarFlow;
use crate::greens;
use crate::lru::Lru;
use crate::multigrid::Multigrid;
use crate::package::Package;
use crate::sparse::{CsrMatrix, TripletMatrix};
use crate::stack::{Boundary, Layer, LayerStack, StackError};
use hotiron_floorplan::GridMapping;

pub use crate::lru::CacheCounters;
pub use crate::stack::DieGeometry;

/// Role a node plays in the network (used for introspection and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Grid cell of conduction layer `layer`.
    Cell {
        /// Index into [`ThermalCircuit::layer_names`].
        layer: usize,
    },
    /// Peripheral ring of an oversized conduction layer.
    Ring {
        /// Index into [`ThermalCircuit::layer_names`].
        layer: usize,
    },
    /// Lumped coolant node of a convection boundary.
    Coolant,
    /// Per-cell (or per-ring) oil boundary-layer node.
    Oil,
}

/// Node-numbering metadata for one placement of an assembled board
/// circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementNodes {
    /// Placement designator, copied from [`crate::board::Placement::name`].
    pub name: String,
    /// Global index of this placement's first conduction plane; its layer
    /// `l` cells are nodes `(plane_base + l) * cell_count() ..`.
    pub plane_base: usize,
    /// Number of conduction planes this placement contributes.
    pub n_layers: usize,
    /// Global plane index of this placement's silicon layer.
    pub si_plane: usize,
}

/// Node-numbering metadata of a PCB-coupled board circuit: which planes
/// belong to which placement and where the shared PCB plane sits. Present
/// only on circuits assembled from a [`Board`] with a PCB; a free-standing
/// single-placement board numbers its nodes exactly as a lone stack and
/// carries none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoardNodes {
    /// Per-placement plane spans, in placement order.
    pub placements: Vec<PlacementNodes>,
    /// Global plane index of the shared PCB plane.
    pub pcb_plane: usize,
}

/// The assembled RC network.
#[derive(Debug)]
pub struct ThermalCircuit {
    g: CsrMatrix,
    cap: Vec<f64>,
    ambient_g: Vec<f64>,
    kinds: Vec<NodeKind>,
    layer_names: Vec<String>,
    si_offset: usize,
    n_cells: usize,
    rows: usize,
    cols: usize,
    /// `Some` when this circuit was assembled from a PCB-coupled board.
    board: Option<BoardNodes>,
    /// Lazily built geometric multigrid hierarchy for the steady solve.
    /// `None` inside the cell means "grid too small / structure unsuitable";
    /// building is serial and deterministic, so the cached hierarchy is
    /// identical regardless of which solve triggered it.
    mg: OnceLock<Option<Multigrid>>,
    /// Lazily built symbolic analysis of `G`: the direct solver's ordering
    /// and the size of its factor, which [`crate::solve::solve_steady`]
    /// reads on every auto-selected solve and the factorization reuses.
    symbolic: OnceLock<Symbolic>,
    /// Lazily built LDLᵀ factorization of `G` for direct steady solves.
    /// `None` inside the cell means factorization hit a non-positive pivot
    /// (operator not SPD). `G` never changes after assembly, so circuits
    /// shared through the [`CircuitCache`] amortize one factorization over
    /// every request that solves them directly.
    ldlt: OnceLock<Option<LdlFactor>>,
    /// Lazily resolved spectral backend for this circuit: the shared
    /// [`greens::ResponseCache`] entry when the circuit qualifies, or the
    /// [`greens::Ineligible`] reason when it does not. The `f64` is the
    /// response build time charged to the solve that triggered it (0.0 on a
    /// cache hit), mirroring `multigrid_with_setup`.
    spectral: OnceLock<Result<(Arc<greens::SpectralResponse>, f64), greens::Ineligible>>,
}

impl ThermalCircuit {
    /// The conductance matrix `G`, W/K.
    pub fn conductance(&self) -> &CsrMatrix {
        &self.g
    }

    /// Per-node heat capacities, J/K.
    pub fn capacitance(&self) -> &[f64] {
        &self.cap
    }

    /// Per-node conductance to the ambient Dirichlet node, W/K.
    pub fn ambient_conductance(&self) -> &[f64] {
        &self.ambient_g
    }

    /// Number of circuit nodes.
    pub fn node_count(&self) -> usize {
        self.g.dim()
    }

    /// Node roles, one per node.
    pub fn node_kinds(&self) -> &[NodeKind] {
        &self.kinds
    }

    /// Names of the conduction layers, bottom-to-top.
    pub fn layer_names(&self) -> &[String] {
        &self.layer_names
    }

    /// Index of the first silicon-layer cell node; silicon cells are
    /// contiguous: `si_offset() .. si_offset() + cell_count()`.
    pub fn si_offset(&self) -> usize {
        self.si_offset
    }

    /// Cells per layer.
    pub fn cell_count(&self) -> usize {
        self.n_cells
    }

    /// Board node-numbering metadata when this circuit was assembled from a
    /// PCB-coupled [`Board`]; `None` for free-standing single-placement
    /// boards, whose silicon plane is [`si_offset`](Self::si_offset).
    pub fn board_nodes(&self) -> Option<&BoardNodes> {
        self.board.as_ref()
    }

    /// Grid rows per layer.
    pub fn grid_rows(&self) -> usize {
        self.rows
    }

    /// Grid columns per layer.
    pub fn grid_cols(&self) -> usize {
        self.cols
    }

    /// The geometric multigrid hierarchy for this circuit, built on first
    /// use and cached. Returns `None` when the grid is too small for a
    /// hierarchy to pay off (see [`Multigrid::from_circuit`]) or the network
    /// structure defeats coarsening.
    pub fn multigrid(&self) -> Option<&Multigrid> {
        self.multigrid_with_setup().map(|(mg, _)| mg)
    }

    /// Like [`multigrid`](Self::multigrid), additionally reporting the setup
    /// time in seconds — nonzero only for the call that actually built the
    /// hierarchy, so callers can charge it to their `SolveStats` exactly
    /// once.
    pub fn multigrid_with_setup(&self) -> Option<(&Multigrid, f64)> {
        let built_now = self.mg.get().is_none();
        let slot = self.mg.get_or_init(|| Multigrid::from_circuit(self));
        slot.as_ref().map(|mg| (mg, if built_now { mg.setup_seconds() } else { 0.0 }))
    }

    /// The memoized symbolic analysis of `G` (ordering, elimination tree,
    /// column counts): what a direct steady solve would cost, known before
    /// it is paid for.
    pub fn symbolic(&self) -> &Symbolic {
        self.symbolic.get_or_init(|| Symbolic::new(&self.g))
    }

    /// The memoized LDLᵀ factorization of `G` for direct steady solves,
    /// plus the factorization time in seconds — nonzero only for the call
    /// that actually factored, so callers charge it to their [`SolveStats`]
    /// exactly once (mirroring [`multigrid_with_setup`]). `None` means the
    /// operator is not SPD (e.g. a floating node) and the caller should fall
    /// back to an iterative method.
    ///
    /// [`SolveStats`]: crate::sparse::SolveStats
    /// [`multigrid_with_setup`]: Self::multigrid_with_setup
    pub fn steady_factor_with_setup(&self) -> Option<(&LdlFactor, f64)> {
        let built_now = self.ldlt.get().is_none();
        let slot =
            self.ldlt.get_or_init(|| LdlFactor::from_symbolic(&self.g, self.symbolic()).ok());
        slot.as_ref().map(|f| (f, if built_now { f.factor_seconds() } else { 0.0 }))
    }

    /// The spectral (Green's-function) backend for this circuit, when it
    /// qualifies. The response is fetched from the process-wide
    /// [`greens::ResponseCache`] on first use and pinned here, so repeated
    /// solves of a shared circuit skip even the cache lookup.
    ///
    /// # Errors
    ///
    /// [`greens::Ineligible`] explaining why this circuit cannot use the
    /// spectral path (also memoized — the qualification walk runs once).
    pub fn spectral(&self) -> Result<&Arc<greens::SpectralResponse>, &greens::Ineligible> {
        self.spectral_with_setup().map(|(resp, _)| resp)
    }

    /// Like [`spectral`](Self::spectral), additionally reporting the
    /// response build time in seconds — nonzero only when this call caused
    /// the response to be precomputed (a [`greens::ResponseCache`] miss), so
    /// callers charge it to their `SolveStats` exactly once.
    pub fn spectral_with_setup(
        &self,
    ) -> Result<(&Arc<greens::SpectralResponse>, f64), &greens::Ineligible> {
        let built_now = self.spectral.get().is_none();
        let slot = self.spectral.get_or_init(|| {
            let params = greens::SpectralParams::from_circuit(self)?;
            let (resp, hit) = greens::ResponseCache::process().get_or_build(params);
            let setup = if hit { 0.0 } else { resp.build_seconds() };
            Ok((resp, setup))
        });
        match slot {
            Ok((resp, setup)) => Ok((resp, if built_now { *setup } else { 0.0 })),
            Err(e) => Err(e),
        }
    }

    /// Builds the full right-hand side `P + G_amb·T_amb` from per-cell
    /// silicon power (W) and the ambient temperature (K).
    ///
    /// # Panics
    ///
    /// Panics if `si_cell_power.len()` differs from the cell count.
    pub fn rhs(&self, si_cell_power: &[f64], ambient: f64) -> Vec<f64> {
        let mut b = Vec::new();
        self.rhs_into(si_cell_power, ambient, &mut b);
        b
    }

    /// [`rhs`](Self::rhs) into a caller-provided buffer (cleared and resized
    /// as needed) — for per-step hot loops that assemble the same-shape
    /// right-hand side thousands of times.
    ///
    /// For board circuits `si_cell_power` is the concatenation of every
    /// placement's silicon cell powers, in placement order.
    ///
    /// # Panics
    ///
    /// Panics if `si_cell_power` does not have one entry per silicon cell
    /// (of every placement, for board circuits).
    pub fn rhs_into(&self, si_cell_power: &[f64], ambient: f64, b: &mut Vec<f64>) {
        if let Some(board) = &self.board {
            assert_eq!(
                si_cell_power.len(),
                board.placements.len() * self.n_cells,
                "one power entry per silicon cell of every placement"
            );
            b.clear();
            b.extend(self.ambient_g.iter().map(|g| g * ambient));
            for (pn, chunk) in board.placements.iter().zip(si_cell_power.chunks(self.n_cells)) {
                let base = pn.si_plane * self.n_cells;
                for (i, p) in chunk.iter().enumerate() {
                    b[base + i] += p;
                }
            }
            return;
        }
        assert_eq!(si_cell_power.len(), self.n_cells, "one power entry per silicon cell");
        b.clear();
        b.extend(self.ambient_g.iter().map(|g| g * ambient));
        for (i, p) in si_cell_power.iter().enumerate() {
            b[self.si_offset + i] += p;
        }
    }

    /// Sum of all node-to-ambient conductances, W/K (the reciprocal of the
    /// total chip-to-ambient resistance when the whole network is
    /// isothermal).
    pub fn total_ambient_conductance(&self) -> f64 {
        self.ambient_g.iter().sum()
    }

    /// Extracts the silicon-layer temperatures from a full state vector.
    /// For board circuits this is the *first* placement's silicon plane;
    /// use [`board_nodes`](Self::board_nodes) to reach the others.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the node count.
    pub fn silicon_slice<'a>(&self, state: &'a [f64]) -> &'a [f64] {
        assert_eq!(state.len(), self.node_count());
        &state[self.si_offset..self.si_offset + self.n_cells]
    }
}

/// Builds the RC network for a die (described by its grid mapping and
/// geometry) inside a package, by lowering the package through
/// [`Package::to_stack`] and assembling the resulting stack.
///
/// # Errors
///
/// Any [`StackError`] from lowering or validation (e.g.
/// `PcbCooling::Oil` on an AIR-SINK package, or an oversized plate smaller
/// than the die), naming the offending layer or boundary.
pub fn build_circuit(
    mapping: &GridMapping,
    die: DieGeometry,
    package: &Package,
) -> Result<ThermalCircuit, StackError> {
    let stack = package.to_stack(die)?;
    build_circuit_from_stack(mapping, die, &stack)
}

/// Builds the RC network directly from a [`LayerStack`], assembled as the
/// one-placement board [`Board::solo`].
///
/// # Errors
///
/// Any [`StackError`] from [`LayerStack::validate`].
pub fn build_circuit_from_stack(
    mapping: &GridMapping,
    die: DieGeometry,
    stack: &LayerStack,
) -> Result<ThermalCircuit, StackError> {
    stack.validate(die)?;
    let board = Board::solo(mapping.rows(), mapping.cols(), die, stack.clone());
    Ok(assemble_board(&board, std::slice::from_ref(mapping)))
}

/// A bounded LRU cache of assembled circuits, keyed by
/// [`Board::content_hash`] — the grid resolution plus every placement's die
/// and stack. A bare stack is cached as its [`Board::solo`] board, so a
/// [`ThermalModel`](crate::ThermalModel) and a single-die scenario over the
/// same die, grid and stack share one entry.
///
/// The cache holds strong [`Arc`]s, so at most `capacity` circuits (plus
/// whatever callers still reference) are alive at once; inserting into a
/// full cache evicts the least recently used entry. All operations are
/// `Send + Sync` — a server can own one instance per process, per tenant, or
/// per worker group, with no ambient global state. The process-wide default
/// that [`ThermalModel::new`](crate::ThermalModel::new) uses is just one
/// instance ([`CircuitCache::process`]).
///
/// Assembly is deterministic, so a cache hit is observationally identical to
/// a rebuild; hit/miss/eviction counts are exposed for telemetry
/// ([`CircuitCache::counters`]).
pub struct CircuitCache(Lru<ThermalCircuit>);

impl std::fmt::Debug for CircuitCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CircuitCache").field(&self.counters()).finish()
    }
}

/// Capacity of the process-wide default cache. Generous enough that every
/// distinct stack of a full experiment sweep stays resident; servers that
/// need a tighter bound construct their own [`CircuitCache`].
const PROCESS_CACHE_CAPACITY: usize = 64;

impl CircuitCache {
    /// Creates a cache bounded to `capacity` circuits (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self(Lru::new(capacity.max(1)))
    }

    /// The process-wide default instance, which every
    /// [`ThermalModel`](crate::ThermalModel) builds through.
    pub fn process() -> &'static CircuitCache {
        static PROCESS: OnceLock<CircuitCache> = OnceLock::new();
        PROCESS.get_or_init(|| CircuitCache::new(PROCESS_CACHE_CAPACITY))
    }

    /// Returns the cached circuit for (stack, die, grid): the stack's
    /// [`Board::solo`] board through [`get_or_build_board`]'s key and build
    /// path, with the stack's own validation error.
    ///
    /// # Errors
    ///
    /// Any [`StackError`] from [`LayerStack::validate`].
    ///
    /// [`get_or_build_board`]: Self::get_or_build_board
    pub fn get_or_build(
        &self,
        mapping: &GridMapping,
        die: DieGeometry,
        stack: &LayerStack,
    ) -> Result<(Arc<ThermalCircuit>, bool), StackError> {
        stack.validate(die)?;
        let board = Board::solo(mapping.rows(), mapping.cols(), die, stack.clone());
        Ok(self.lookup_or_assemble(&board, std::slice::from_ref(mapping)))
    }

    /// Returns the cached circuit for a board, assembling and inserting it on
    /// a miss. The boolean reports the disposition: `true` for a cache hit,
    /// `false` when this call assembled the circuit.
    ///
    /// Assembly runs outside the cache lock so concurrent builds of
    /// *different* circuits don't serialize; a lost race on the same key
    /// builds one bit-identical circuit twice, keeps the first inserted and
    /// reports a hit.
    ///
    /// # Errors
    ///
    /// Any [`BoardError`] from [`Board::validate`], or
    /// `GridMismatch`/`BadGrid` when `mappings` disagrees with the board's
    /// shared resolution.
    pub fn get_or_build_board(
        &self,
        board: &Board,
        mappings: &[GridMapping],
    ) -> Result<(Arc<ThermalCircuit>, bool), BoardError> {
        board.validate()?;
        check_board_mappings(board, mappings)?;
        Ok(self.lookup_or_assemble(board, mappings))
    }

    /// The one build path: looks a validated board up by its content hash,
    /// assembling and inserting it on a miss.
    fn lookup_or_assemble(
        &self,
        board: &Board,
        mappings: &[GridMapping],
    ) -> (Arc<ThermalCircuit>, bool) {
        self.0.get_or_build(board.content_hash(), || assemble_board(board, mappings))
    }

    /// A snapshot of the hit/miss/eviction counters and current occupancy.
    pub fn counters(&self) -> CacheCounters {
        self.0.counters()
    }

    /// Number of circuits currently held.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the cache currently holds no circuits.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of circuits held at once.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Drops every cached circuit (counters are preserved).
    pub fn clear(&self) {
        self.0.clear();
    }
}

/// Per-stack assembly geometry shared by the stamping helpers. One instance
/// describes one placed stack: its layers, die, grid mapping and the global
/// plane index its layer 0 starts at (`plane_base` — 0 for the first
/// placement). All planes in a circuit share one `rows × cols` resolution, so
/// layer `l`, cell `c` of this stack is node
/// `(plane_base + l) * n_cells + c`.
struct StackGeom<'a> {
    layers: &'a [Layer],
    die: DieGeometry,
    mapping: &'a GridMapping,
    rows: usize,
    cols: usize,
    n_cells: usize,
    dx: f64,
    dy: f64,
    cell_area: f64,
    die_area: f64,
    plane_base: usize,
    /// Global ring-node index per local layer, `None` for die-sized layers.
    ring_of: &'a [Option<usize>],
}

impl<'a> StackGeom<'a> {
    fn new(
        mapping: &'a GridMapping,
        die: DieGeometry,
        layers: &'a [Layer],
        plane_base: usize,
        ring_of: &'a [Option<usize>],
    ) -> Self {
        let (rows, cols) = (mapping.rows(), mapping.cols());
        let (dx, dy) = (mapping.cell_width(), mapping.cell_height());
        Self {
            layers,
            die,
            mapping,
            rows,
            cols,
            n_cells: rows * cols,
            dx,
            dy,
            cell_area: dx * dy,
            die_area: die.width * die.height,
            plane_base,
            ring_of,
        }
    }

    /// Global node index of local layer `l`, cell `c`.
    fn node(&self, l: usize, c: usize) -> usize {
        (self.plane_base + l) * self.n_cells + c
    }
}

/// In-plane conduction of every layer of one stack: the uniform 5-point
/// lateral couplings, plus edge-cell→ring couplings for oversized plates.
fn stamp_in_plane(geom: &StackGeom<'_>, stamps: &mut Vec<(usize, usize, f64)>) {
    for (l, def) in geom.layers.iter().enumerate() {
        let gx = def.material.conductivity() * geom.dy * def.thickness / geom.dx;
        let gy = def.material.conductivity() * geom.dx * def.thickness / geom.dy;
        for r in 0..geom.rows {
            for c in 0..geom.cols {
                let n = geom.node(l, r * geom.cols + c);
                if c + 1 < geom.cols {
                    stamps.push((n, n + 1, gx));
                }
                if r + 1 < geom.rows {
                    stamps.push((n, n + geom.cols, gy));
                }
            }
        }
        // Edge cells to ring.
        if let Some(ring) = geom.ring_of[l] {
            let side = def.side.expect("ring implies oversized");
            let k_t = def.material.conductivity() * def.thickness;
            let overhang_x = (side - geom.die.width) / 2.0;
            let overhang_y = (side - geom.die.height) / 2.0;
            for r in 0..geom.rows {
                for &c in &[0, geom.cols - 1] {
                    let n = geom.node(l, r * geom.cols + c);
                    let g = k_t * geom.dy / (geom.dx / 2.0 + (overhang_x / 2.0).max(geom.dx / 2.0));
                    stamps.push((n, ring, g));
                }
            }
            for c in 0..geom.cols {
                for &r in &[0, geom.rows - 1] {
                    let n = geom.node(l, r * geom.cols + c);
                    let g = k_t * geom.dx / (geom.dy / 2.0 + (overhang_y / 2.0).max(geom.dy / 2.0));
                    stamps.push((n, ring, g));
                }
            }
        }
    }
}

/// Vertical conduction between adjacent layers of one stack (half-thickness
/// series resistances per cell), plus ring-to-ring where both layers are
/// oversized.
fn stamp_vertical(geom: &StackGeom<'_>, stamps: &mut Vec<(usize, usize, f64)>) {
    for l in 0..geom.layers.len().saturating_sub(1) {
        let (a, b) = (&geom.layers[l], &geom.layers[l + 1]);
        let r_pair = a.thickness / (2.0 * a.material.conductivity() * geom.cell_area)
            + b.thickness / (2.0 * b.material.conductivity() * geom.cell_area);
        let g = 1.0 / r_pair;
        for c in 0..geom.n_cells {
            stamps.push((geom.node(l, c), geom.node(l + 1, c), g));
        }
        // Ring-to-ring where both layers are oversized.
        if let (Some(ra), Some(rb)) = (geom.ring_of[l], geom.ring_of[l + 1]) {
            let common = a.side.expect("ring").min(b.side.expect("ring"));
            let annulus = (common * common - geom.die_area).max(0.0);
            if annulus > 0.0 {
                let r_pair = a.thickness / (2.0 * a.material.conductivity() * annulus)
                    + b.thickness / (2.0 * b.material.conductivity() * annulus);
                stamps.push((ra, rb, 1.0 / r_pair));
            }
        }
    }
}

/// Cell and ring heat capacities of one stack's layers.
fn fill_caps(geom: &StackGeom<'_>, cap: &mut [f64]) {
    for (l, def) in geom.layers.iter().enumerate() {
        let c_cell = def.material.volumetric_heat_capacity() * geom.cell_area * def.thickness;
        for c in 0..geom.n_cells {
            cap[geom.node(l, c)] = c_cell;
        }
        if let Some(ring) = geom.ring_of[l] {
            let side = def.side.expect("ring implies oversized");
            let vol = (side * side - geom.die_area).max(0.0) * def.thickness;
            cap[ring] = def.material.volumetric_heat_capacity() * vol;
        }
    }
}

/// Boundary attachment above/below one stack: a lumped coolant node or a
/// distributed oil film over the surface of local layer `layer`, appending
/// its boundary nodes at `*next_node`.
#[allow(clippy::too_many_arguments)]
fn stamp_boundary(
    geom: &StackGeom<'_>,
    att: &Boundary,
    layer: usize,
    stamps: &mut Vec<(usize, usize, f64)>,
    grounded: &mut Vec<(usize, f64)>,
    extra_caps: &mut Vec<(usize, f64)>,
    kinds: &mut Vec<NodeKind>,
    next_node: &mut usize,
) {
    match att {
        Boundary::Insulated => {}
        Boundary::Lumped { r_total, c_total } => {
            debug_assert!(*r_total > 0.0, "validate() admits only positive lumped resistance");
            let def = &geom.layers[layer];
            let plate_area = def.side.map_or(geom.die_area, |s| s * s);
            let coolant = *next_node;
            *next_node += 1;
            kinds.push(NodeKind::Coolant);
            // Coolant node must have some mass to avoid a singular C.
            extra_caps.push((coolant, c_total.max(1e-9)));
            let g_half_total = 2.0 / r_total;
            for c in 0..geom.n_cells {
                let g = g_half_total * (geom.cell_area / plate_area);
                stamps.push((geom.node(layer, c), coolant, g));
            }
            if let Some(ring) = geom.ring_of[layer] {
                let ring_area = plate_area - geom.die_area;
                stamps.push((ring, coolant, g_half_total * (ring_area / plate_area)));
            }
            grounded.push((coolant, g_half_total));
        }
        Boundary::OilFilm(spec) => {
            let def = &geom.layers[layer];
            let (plate_w, plate_h) = match def.side {
                Some(s) => (s, s),
                None => (geom.die.width, geom.die.height),
            };
            let length = spec.direction.flow_length(plate_w, plate_h);
            let flow = LaminarFlow::new(spec.fluid, spec.velocity, length);
            // Die grid centered on the plate.
            let (off_x, off_y) =
                ((plate_w - geom.die.width) / 2.0, (plate_h - geom.die.height) / 2.0);
            let delta_overall = flow.boundary_layer_thickness();
            for r in 0..geom.rows {
                for cidx in 0..geom.cols {
                    let (cx, cy) = geom.mapping.cell_center(r, cidx);
                    let x_flow = spec
                        .direction
                        .distance_from_leading_edge(cx + off_x, cy + off_y, plate_w, plate_h)
                        .max(geom.dx.min(geom.dy) / 4.0);
                    let h = if spec.local_h { flow.local_h(x_flow) } else { flow.average_h() };
                    let delta = if spec.local_boundary_layer {
                        flow.local_boundary_layer_thickness(x_flow)
                    } else {
                        delta_overall
                    };
                    let oil = *next_node;
                    *next_node += 1;
                    kinds.push(NodeKind::Oil);
                    let c_oil = spec.fluid.volumetric_heat_capacity() * geom.cell_area * delta;
                    extra_caps.push((oil, c_oil.max(1e-12)));
                    let g = 2.0 * h * geom.cell_area;
                    stamps.push((geom.node(layer, r * geom.cols + cidx), oil, g));
                    grounded.push((oil, g));
                }
            }
            if let Some(ring) = geom.ring_of[layer] {
                let ring_area = plate_w * plate_h - geom.die_area;
                let h = flow.average_h();
                let oil = *next_node;
                *next_node += 1;
                kinds.push(NodeKind::Oil);
                let c_oil = spec.fluid.volumetric_heat_capacity() * ring_area * delta_overall;
                extra_caps.push((oil, c_oil.max(1e-12)));
                let g = 2.0 * h * ring_area;
                stamps.push((ring, oil, g));
                grounded.push((oil, g));
            }
        }
    }
}

/// Assembles a validated board — the only assembler. Callers must run
/// [`Board::validate`] (or, for a [`Board::solo`] board,
/// [`LayerStack::validate`]) and the grid-mapping checks of
/// [`build_circuit_from_board`] first.
///
/// Node numbering: every placement's cell planes come first (in placement
/// order, each placement's layers bottom→top), then the PCB plane, then
/// rings (per placement, per oversized layer, in order), then boundary
/// nodes in stamping order. All planes share the board's `rows × cols`
/// resolution, so plane `l` starts at `l * n_cells` — exactly the
/// uniform-plane layout the multigrid hierarchy coarsens; the placement→PCB
/// couplings land in its lossless unstructured remainder.
fn assemble_board(board: &Board, mappings: &[GridMapping]) -> ThermalCircuit {
    let (rows, cols) = (board.rows, board.cols);
    let n_cells = rows * cols;
    let pcb = board.pcb.as_ref();

    // ---- plane layout ----
    let mut plane_bases = Vec::with_capacity(board.placements.len());
    let mut total_planes = 0usize;
    for p in &board.placements {
        plane_bases.push(total_planes);
        total_planes += p.stack.layers.len();
    }
    let pcb_plane = pcb.map(|_| total_planes);
    let all_planes = total_planes + usize::from(pcb.is_some());

    // ---- rings after all cell planes ----
    let mut next = all_planes * n_cells;
    let mut ring_ofs: Vec<Vec<Option<usize>>> = Vec::with_capacity(board.placements.len());
    for p in &board.placements {
        let mut ring_of = vec![None; p.stack.layers.len()];
        for (l, def) in p.stack.layers.iter().enumerate() {
            if def.side.is_some() {
                ring_of[l] = Some(next);
                next += 1;
            }
        }
        ring_ofs.push(ring_of);
    }

    // ---- node kinds and layer names ----
    // Free-standing single boards keep bare layer names (a lone stack);
    // PCB boards qualify each as "placement/layer".
    let mut layer_names: Vec<String> = Vec::with_capacity(all_planes);
    let mut kinds = vec![NodeKind::Cell { layer: 0 }; next];
    for (pi, p) in board.placements.iter().enumerate() {
        for (l, def) in p.stack.layers.iter().enumerate() {
            let plane = plane_bases[pi] + l;
            layer_names.push(if pcb.is_some() {
                format!("{}/{}", p.name, def.name)
            } else {
                def.name.clone()
            });
            for c in 0..n_cells {
                kinds[plane * n_cells + c] = NodeKind::Cell { layer: plane };
            }
            if let Some(r) = ring_ofs[pi][l] {
                kinds[r] = NodeKind::Ring { layer: plane };
            }
        }
    }
    if let Some(pp) = pcb_plane {
        layer_names.push("pcb".into());
        for c in 0..n_cells {
            kinds[pp * n_cells + c] = NodeKind::Cell { layer: pp };
        }
    }

    let geom_of = |pi: usize| {
        let p = &board.placements[pi];
        StackGeom::new(&mappings[pi], p.die, &p.stack.layers, plane_bases[pi], &ring_ofs[pi])
    };

    let mut extra_caps: Vec<(usize, f64)> = Vec::new();
    let mut stamps: Vec<(usize, usize, f64)> = Vec::new();
    let mut grounded: Vec<(usize, f64)> = Vec::new();

    // ---- in-plane conduction: placements, then the PCB plane ----
    for pi in 0..board.placements.len() {
        stamp_in_plane(&geom_of(pi), &mut stamps);
    }
    // PCB cell geometry (the board spreads over the full grid).
    let (pdx, pdy) = pcb.map_or((0.0, 0.0), |s| (s.width / cols as f64, s.height / rows as f64));
    if let (Some(spec), Some(pp)) = (pcb, pcb_plane) {
        let gx = spec.material.conductivity() * pdy * spec.thickness / pdx;
        let gy = spec.material.conductivity() * pdx * spec.thickness / pdy;
        for r in 0..rows {
            for c in 0..cols {
                let n = pp * n_cells + r * cols + c;
                if c + 1 < cols {
                    stamps.push((n, n + 1, gx));
                }
                if r + 1 < rows {
                    stamps.push((n, n + cols, gy));
                }
            }
        }
    }

    // ---- vertical conduction within each placement ----
    for pi in 0..board.placements.len() {
        stamp_vertical(&geom_of(pi), &mut stamps);
    }

    // ---- placement → PCB coupling, with via-field bonuses ----
    // Each placement bottom cell couples to the PCB cell under its rotated
    // center through the series of its own lower half-thickness and the
    // PCB's upper half-thickness over the contact (placement-cell) area.
    // Via fields add their anisotropic through-plane conductance times the
    // overlap of the (rotated) cell footprint with the patch — the
    // exposed-pad via array shunting the board resin.
    if let (Some(spec), Some(pp)) = (pcb, pcb_plane) {
        for (pi, p) in board.placements.iter().enumerate() {
            let geom = geom_of(pi);
            let bot = &p.stack.layers[0];
            let r_pair = bot.thickness / (2.0 * bot.material.conductivity() * geom.cell_area)
                + spec.thickness / (2.0 * spec.material.conductivity() * geom.cell_area);
            let g_base = 1.0 / r_pair;
            for r in 0..rows {
                for c in 0..cols {
                    let (cx, cy) = geom.mapping.cell_center(r, c);
                    let (fx, fy) = p.rotation.apply(cx, cy, p.die.width, p.die.height);
                    let (bx, by) = (p.x + fx, p.y + fy);
                    let pc = ((bx / pdx) as usize).min(cols - 1);
                    let pr = ((by / pdy) as usize).min(rows - 1);
                    let mut g = g_base;
                    if !board.vias.is_empty() {
                        // Quarter-turn rotations map the axis-aligned cell
                        // rect to another axis-aligned rect: rotate two
                        // opposite corners and re-sort.
                        let (x0, y0) = (c as f64 * geom.dx, r as f64 * geom.dy);
                        let (ax, ay) = p.rotation.apply(x0, y0, p.die.width, p.die.height);
                        let (bx2, by2) =
                            p.rotation.apply(x0 + geom.dx, y0 + geom.dy, p.die.width, p.die.height);
                        let (rx0, rx1) = (p.x + ax.min(bx2), p.x + ax.max(bx2));
                        let (ry0, ry1) = (p.y + ay.min(by2), p.y + ay.max(by2));
                        for v in &board.vias {
                            g += v.conductance_per_area * v.overlap_area(rx0, rx1, ry0, ry1);
                        }
                    }
                    stamps.push((geom.node(0, r * cols + c), pp * n_cells + pr * cols + pc, g));
                }
            }
        }
    }

    // ---- capacitances ----
    let mut cap = vec![0.0; next];
    for pi in 0..board.placements.len() {
        fill_caps(&geom_of(pi), &mut cap);
    }
    if let (Some(spec), Some(pp)) = (pcb, pcb_plane) {
        let c_cell = spec.material.volumetric_heat_capacity() * (pdx * pdy) * spec.thickness;
        for c in 0..n_cells {
            cap[pp * n_cells + c] = c_cell;
        }
    }

    // ---- boundary attachments: per placement top then bottom, then the
    // PCB back face ----
    let mut next_node = next;
    for (pi, p) in board.placements.iter().enumerate() {
        let geom = geom_of(pi);
        let nl = p.stack.layers.len();
        for (att, layer) in [(&p.stack.top, nl - 1), (&p.stack.bottom, 0)] {
            stamp_boundary(
                &geom,
                att,
                layer,
                &mut stamps,
                &mut grounded,
                &mut extra_caps,
                &mut kinds,
                &mut next_node,
            );
        }
    }
    if let (Some(spec), Some(pp)) = (pcb, pcb_plane) {
        if let Boundary::Lumped { r_total, c_total } = &spec.bottom {
            let coolant = next_node;
            next_node += 1;
            kinds.push(NodeKind::Coolant);
            extra_caps.push((coolant, c_total.max(1e-9)));
            let g_half_total = 2.0 / r_total;
            let pcb_area = spec.width * spec.height;
            let pcb_cell_area = pdx * pdy;
            for c in 0..n_cells {
                let g = g_half_total * (pcb_cell_area / pcb_area);
                stamps.push((pp * n_cells + c, coolant, g));
            }
            grounded.push((coolant, g_half_total));
        }
    }

    let board_nodes = pcb_plane.map(|pp| BoardNodes {
        placements: board
            .placements
            .iter()
            .zip(&plane_bases)
            .map(|(p, &base)| PlacementNodes {
                name: p.name.clone(),
                plane_base: base,
                n_layers: p.stack.layers.len(),
                si_plane: base + p.stack.si_index,
            })
            .collect(),
        pcb_plane: pp,
    });
    let si_offset = (plane_bases[0] + board.placements[0].stack.si_index) * n_cells;

    // ---- fold the stamps into the final matrices; the stamp *order* is
    // part of the circuit's identity (triplet insertion order is preserved
    // into the CSR) ----
    let n = next_node;
    cap.resize(n, 0.0);
    for (node, c) in extra_caps {
        cap[node] += c;
    }
    let mut ambient_g = vec![0.0; n];
    let mut t = TripletMatrix::with_capacity(n, 4 * stamps.len() + grounded.len());
    for (a, b, g) in stamps {
        t.stamp_conductance(a, b, g);
    }
    for (node, g) in grounded {
        t.stamp_grounded_conductance(node, g);
        ambient_g[node] += g;
    }
    let g = t.to_csr();
    debug_assert!(g.is_symmetric(1e-9), "conductance matrix must be symmetric");

    ThermalCircuit {
        g,
        cap,
        ambient_g,
        kinds,
        layer_names,
        si_offset,
        n_cells,
        rows,
        cols,
        board: board_nodes,
        mg: OnceLock::new(),
        symbolic: OnceLock::new(),
        ldlt: OnceLock::new(),
        spectral: OnceLock::new(),
    }
}

/// Checks that `mappings` matches the board: one mapping per placement, each
/// at the board's shared grid resolution.
fn check_board_mappings(board: &Board, mappings: &[GridMapping]) -> Result<(), BoardError> {
    if mappings.len() != board.placements.len() {
        return Err(BoardError::BadGrid {
            reason: format!(
                "{} grid mappings for {} placements",
                mappings.len(),
                board.placements.len()
            ),
        });
    }
    for (p, m) in board.placements.iter().zip(mappings) {
        if m.rows() != board.rows || m.cols() != board.cols {
            return Err(BoardError::GridMismatch {
                placement: p.name.clone(),
                expected_rows: board.rows,
                expected_cols: board.cols,
                rows: m.rows(),
                cols: m.cols(),
            });
        }
    }
    Ok(())
}

/// Builds the RC network for a whole [`Board`]: every placement's stack plus
/// the shared PCB plane, coupled through placement-bottom→PCB conductances
/// and via fields. `mappings` carries one [`GridMapping`] per placement (its
/// floorplan spread over the placement's die), all at the board's shared
/// grid resolution.
///
/// # Errors
///
/// Any [`BoardError`] from [`Board::validate`], or `GridMismatch`/`BadGrid`
/// when `mappings` disagrees with the board's resolution.
pub fn build_circuit_from_board(
    board: &Board,
    mappings: &[GridMapping],
) -> Result<ThermalCircuit, BoardError> {
    board.validate()?;
    check_board_mappings(board, mappings)?;
    Ok(assemble_board(board, mappings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{AirSinkPackage, OilSiliconPackage, Package, SecondaryPath};
    use crate::stack::{Layer, OilFilm};
    use hotiron_floorplan::library;

    fn die20() -> DieGeometry {
        DieGeometry { width: 0.02, height: 0.02, thickness: 0.5e-3 }
    }

    fn mapping(rows: usize, cols: usize) -> GridMapping {
        GridMapping::new(&library::uniform_die(0.02, 0.02), rows, cols)
    }

    #[test]
    fn oil_circuit_structure() {
        let m = mapping(8, 8);
        let c =
            build_circuit(&m, die20(), &Package::OilSilicon(OilSiliconPackage::paper_default()))
                .unwrap();
        // 1 silicon layer (64 cells) + 64 oil nodes.
        assert_eq!(c.node_count(), 128);
        assert_eq!(c.si_offset(), 0);
        assert_eq!(c.layer_names(), &["silicon"]);
        assert!(c.conductance().is_symmetric(1e-9));
        // Every oil node reaches ambient.
        let oil_grounded = c
            .node_kinds()
            .iter()
            .zip(c.ambient_conductance())
            .filter(|(k, g)| **k == NodeKind::Oil && **g > 0.0)
            .count();
        assert_eq!(oil_grounded, 64);
    }

    #[test]
    fn oil_total_conductance_matches_eqn1() {
        // With uniform (non-local) h the parallel combination of the per-cell
        // half-split pairs equals h·A = 1/Rconv exactly.
        let m = mapping(16, 16);
        let pkg = OilSiliconPackage {
            local_h: false,
            local_boundary_layer: false,
            ..OilSiliconPackage::paper_default()
        };
        let c = build_circuit(&m, die20(), &Package::OilSilicon(pkg)).unwrap();
        let flow = LaminarFlow::new(crate::fluid::MINERAL_OIL, 10.0, 0.02);
        let expected = 1.0 / flow.overall_resistance(4e-4);
        // Ambient side of every oil pair sums to 2·h·A; the series pair from
        // silicon to ambient per cell is h·A_cell, so the isothermal total is
        // h·A. Check via total ambient conductance = 2hA.
        let total = c.total_ambient_conductance();
        assert!((total - 2.0 * expected).abs() / (2.0 * expected) < 1e-9, "{total} vs {expected}");
    }

    #[test]
    fn local_h_makes_leading_edge_cells_better_cooled() {
        let m = mapping(8, 8);
        let c =
            build_circuit(&m, die20(), &Package::OilSilicon(OilSiliconPackage::paper_default()))
                .unwrap();
        // Oil nodes are appended after the silicon cells in row-major order;
        // the first row's first (left) cell is upstream for LeftToRight.
        let oil_start = 64;
        let g_left = c.ambient_conductance()[oil_start];
        let g_right = c.ambient_conductance()[oil_start + 7];
        assert!(g_left > g_right, "leading edge must couple more strongly: {g_left} vs {g_right}");
    }

    #[test]
    fn air_circuit_structure() {
        let m = mapping(8, 8);
        let pkg = Package::AirSink(AirSinkPackage::paper_default());
        let c = build_circuit(&m, die20(), &pkg).unwrap();
        // Layers: silicon, interface, spreader, sink = 4x64 cells,
        // + 2 rings + 1 coolant.
        assert_eq!(c.node_count(), 4 * 64 + 2 + 1);
        assert_eq!(c.layer_names(), &["silicon", "interface", "spreader", "sink"]);
        assert_eq!(c.si_offset(), 0);
        // Exactly one grounded node: the coolant.
        let grounded: Vec<_> =
            c.ambient_conductance().iter().enumerate().filter(|(_, g)| **g > 0.0).collect();
        assert_eq!(grounded.len(), 1);
        assert_eq!(c.node_kinds()[grounded[0].0], NodeKind::Coolant);
        // Half-split: coolant-to-ambient conductance = 2 / r_convec.
        assert!((grounded[0].1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn air_with_secondary_has_nine_layers() {
        let pkg = Package::AirSink(
            AirSinkPackage::paper_default().with_secondary(SecondaryPath::for_air_system()),
        );
        let m = mapping(4, 4);
        let c = build_circuit(&m, die20(), &pkg).unwrap();
        assert_eq!(
            c.layer_names(),
            &[
                "pcb",
                "solder",
                "substrate",
                "c4",
                "interconnect",
                "silicon",
                "interface",
                "spreader",
                "sink"
            ]
        );
        // Silicon is layer index 5.
        assert_eq!(c.si_offset(), 5 * 16);
        // Two coolant nodes now: sink air + PCB natural convection.
        let coolant_count = c.node_kinds().iter().filter(|k| **k == NodeKind::Coolant).count();
        assert_eq!(coolant_count, 2);
    }

    #[test]
    fn oil_with_secondary_has_pcb_oil_film() {
        let pkg = Package::OilSilicon(
            OilSiliconPackage::paper_default().with_secondary(SecondaryPath::for_oil_rig()),
        );
        let m = mapping(4, 4);
        let c = build_circuit(&m, die20(), &pkg).unwrap();
        assert_eq!(
            c.layer_names(),
            &["pcb", "solder", "substrate", "c4", "interconnect", "silicon"]
        );
        // Oil nodes: 16 over the die + 16 + 1 ring oil under the PCB.
        let oil_count = c.node_kinds().iter().filter(|k| **k == NodeKind::Oil).count();
        assert_eq!(oil_count, 16 + 16 + 1);
    }

    #[test]
    fn rhs_injects_power_and_ambient() {
        let m = mapping(4, 4);
        let c =
            build_circuit(&m, die20(), &Package::OilSilicon(OilSiliconPackage::paper_default()))
                .unwrap();
        let mut p = vec![0.0; 16];
        p[5] = 2.5;
        let b = c.rhs(&p, 318.15);
        assert!((b[c.si_offset() + 5] - 2.5).abs() < 1e-12);
        // Oil nodes carry the ambient injection.
        let total_amb: f64 = c.ambient_conductance().iter().sum();
        let b_sum: f64 = b.iter().sum();
        assert!((b_sum - (2.5 + total_amb * 318.15)).abs() < 1e-6);
    }

    #[test]
    fn target_rconv_rescales_velocity() {
        let m = mapping(8, 8);
        let pkg = OilSiliconPackage {
            local_h: false,
            local_boundary_layer: false,
            ..OilSiliconPackage::paper_default()
        }
        .with_target_r_convec(0.3);
        let c = build_circuit(&m, die20(), &Package::OilSilicon(pkg)).unwrap();
        // Total ambient conductance should be 2 / 0.3.
        let total = c.total_ambient_conductance();
        assert!((total - 2.0 / 0.3).abs() / (2.0 / 0.3) < 1e-6, "total {total}");
    }

    #[test]
    fn capacitances_positive() {
        let m = mapping(4, 4);
        for pkg in [
            Package::OilSilicon(
                OilSiliconPackage::paper_default().with_secondary(SecondaryPath::for_oil_rig()),
            ),
            Package::AirSink(
                AirSinkPackage::paper_default().with_secondary(SecondaryPath::for_air_system()),
            ),
        ] {
            let c = build_circuit(&m, die20(), &pkg).unwrap();
            for (i, cv) in c.capacitance().iter().enumerate() {
                assert!(*cv > 0.0, "node {i} of {} has cap {cv}", pkg.label());
            }
        }
    }

    #[test]
    fn silicon_capacitance_matches_hand_calculation() {
        let m = mapping(8, 8);
        let c =
            build_circuit(&m, die20(), &Package::OilSilicon(OilSiliconPackage::paper_default()))
                .unwrap();
        let si_total: f64 = c.capacitance()[..64].iter().sum();
        // 1.75e6 J/m³K x 4e-4 m² x 0.5e-3 m = 0.35 J/K.
        assert!((si_total - 0.35).abs() < 1e-9, "{si_total}");
    }

    #[test]
    fn oil_pcb_cooling_needs_oil_package() {
        let m = mapping(2, 2);
        let pkg = Package::AirSink(
            AirSinkPackage::paper_default().with_secondary(SecondaryPath::for_oil_rig()),
        );
        let err = build_circuit(&m, die20(), &pkg).unwrap_err();
        assert!(matches!(err, StackError::IncompatibleCooling { .. }));
        assert!(err.to_string().contains("OilSilicon"), "{err}");
    }

    #[test]
    fn undersized_plate_is_a_typed_error() {
        let m = mapping(2, 2);
        let mut pkg = AirSinkPackage::paper_default();
        pkg.spreader.side = 0.01; // smaller than the 20 mm die
        let err = build_circuit(&m, die20(), &Package::AirSink(pkg)).unwrap_err();
        match &err {
            StackError::PlateSmallerThanDie { layer, .. } => assert_eq!(layer, "spreader"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn stack_route_matches_package_route() {
        // build_circuit is exactly to_stack + build_circuit_from_stack.
        let m = mapping(8, 8);
        for pkg in [
            Package::OilSilicon(OilSiliconPackage::paper_default()),
            Package::AirSink(AirSinkPackage::paper_default()),
        ] {
            let direct = build_circuit(&m, die20(), &pkg).unwrap();
            let stack = pkg.to_stack(die20()).unwrap();
            let via_stack = build_circuit_from_stack(&m, die20(), &stack).unwrap();
            assert_eq!(direct.node_count(), via_stack.node_count());
            assert_eq!(direct.layer_names(), via_stack.layer_names());
            assert_eq!(direct.capacitance(), via_stack.capacitance());
            assert_eq!(direct.ambient_conductance(), via_stack.ambient_conductance());
        }
    }

    #[test]
    fn bare_die_lumped_stack_assembles() {
        // A configuration the closed Package enum cannot express: bare die
        // cooled by a lumped (forced-air) path, no spreader or sink.
        let m = mapping(8, 8);
        let stack =
            LayerStack::new(vec![Layer::new("silicon", crate::materials::SILICON, 0.5e-3)], 0)
                .with_top(Boundary::Lumped { r_total: 2.0, c_total: 30.0 });
        let c = build_circuit_from_stack(&m, die20(), &stack).unwrap();
        assert_eq!(c.layer_names(), &["silicon"]);
        assert_eq!(c.node_count(), 64 + 1);
        let coolant = c.node_kinds().iter().position(|k| *k == NodeKind::Coolant).unwrap();
        assert!((c.ambient_conductance()[coolant] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oil_washed_spreader_stack_assembles() {
        // Oil washing the spreader top — also inexpressible under the enum.
        let m = mapping(8, 8);
        let air = AirSinkPackage::paper_default();
        let stack = LayerStack::new(
            vec![
                Layer::new("silicon", crate::materials::SILICON, 0.5e-3),
                Layer::new("interface", air.interface_material, air.interface_thickness),
                Layer::plate("spreader", air.spreader.material, air.spreader.thickness, 0.03),
            ],
            0,
        )
        .with_top(Boundary::OilFilm(OilFilm {
            fluid: crate::fluid::MINERAL_OIL,
            velocity: 10.0,
            direction: crate::convection::FlowDirection::LeftToRight,
            local_h: true,
            local_boundary_layer: true,
        }));
        let c = build_circuit_from_stack(&m, die20(), &stack).unwrap();
        assert_eq!(c.layer_names(), &["silicon", "interface", "spreader"]);
        // 3 layers x 64 cells + 1 spreader ring + 64 cell oil + 1 ring oil.
        assert_eq!(c.node_count(), 3 * 64 + 1 + 64 + 1);
        assert!(c.conductance().is_symmetric(1e-9));
    }

    use crate::board::{Board, PcbSpec, Placement, Rotation, ViaField};

    fn pcb_spec() -> PcbSpec {
        PcbSpec {
            width: 0.08,
            height: 0.06,
            thickness: 1.6e-3,
            material: crate::materials::PCB,
            bottom: Boundary::Lumped { r_total: 4.0, c_total: 200.0 },
        }
    }

    fn placement(name: &str, stack: LayerStack, x: f64, y: f64) -> Placement {
        Placement { name: name.into(), die: die20(), stack, x, y, rotation: Rotation::R0 }
    }

    /// Two-package board over a PCB: a bare lumped-top die and an air-sink
    /// package, both bottoms insulated (heat leaves through the board).
    fn two_package_board(rows: usize, cols: usize) -> (Board, Vec<GridMapping>) {
        let bare =
            LayerStack::new(vec![Layer::new("silicon", crate::materials::SILICON, 0.5e-3)], 0)
                .with_top(Boundary::Lumped { r_total: 2.0, c_total: 30.0 });
        let sink = Package::AirSink(AirSinkPackage::paper_default()).to_stack(die20()).unwrap();
        let board = Board::new(rows, cols, pcb_spec())
            .with_placement(placement("u1", bare, 0.005, 0.005))
            .with_placement(placement("u2", sink, 0.045, 0.03));
        let mappings = vec![mapping(rows, cols), mapping(rows, cols)];
        (board, mappings)
    }

    #[test]
    fn board_circuit_structure() {
        let (board, mappings) = two_package_board(8, 8);
        let c = build_circuit_from_board(&board, &mappings).unwrap();
        // Planes: u1 silicon + u2's 4 layers + pcb = 6 × 64 cells,
        // + 2 rings (u2 spreader/sink) + u1 coolant + u2 coolant + pcb coolant.
        assert_eq!(c.node_count(), 6 * 64 + 2 + 3);
        assert_eq!(
            c.layer_names(),
            &["u1/silicon", "u2/silicon", "u2/interface", "u2/spreader", "u2/sink", "pcb"]
        );
        let nodes = c.board_nodes().expect("PCB board carries metadata");
        assert_eq!(nodes.pcb_plane, 5);
        assert_eq!(nodes.placements.len(), 2);
        assert_eq!((nodes.placements[0].si_plane, nodes.placements[1].si_plane), (0, 1));
        assert!(c.conductance().is_symmetric(1e-9));
        // Every PCB cell has positive capacitance and the coolant count is 3.
        let coolants = c.node_kinds().iter().filter(|k| **k == NodeKind::Coolant).count();
        assert_eq!(coolants, 3);
        assert!(c.capacitance().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn board_rhs_injects_each_placement() {
        let (board, mappings) = two_package_board(4, 4);
        let c = build_circuit_from_board(&board, &mappings).unwrap();
        let mut p = vec![0.0; 2 * 16];
        p[3] = 1.5; // u1 silicon cell 3
        p[16 + 7] = 2.5; // u2 silicon cell 7
        let b = c.rhs(&p, 318.15);
        let nodes = c.board_nodes().unwrap();
        assert!(
            (b[nodes.placements[0].si_plane * 16 + 3]
                - (1.5 + c.ambient_conductance()[3] * 318.15))
                .abs()
                < 1e-9
        );
        let n2 = nodes.placements[1].si_plane * 16 + 7;
        assert!((b[n2] - (2.5 + c.ambient_conductance()[n2] * 318.15)).abs() < 1e-9);
        let b_sum: f64 = b.iter().sum();
        let amb_sum: f64 = c.ambient_conductance().iter().sum();
        assert!((b_sum - (4.0 + amb_sum * 318.15)).abs() < 1e-6);
    }

    #[test]
    fn via_field_strengthens_board_coupling() {
        let (board, mappings) = two_package_board(4, 4);
        let plain = build_circuit_from_board(&board, &mappings).unwrap();
        let with_via = build_circuit_from_board(
            &board.clone().with_via(ViaField {
                name: "pad1".into(),
                x: 0.005,
                y: 0.005,
                width: 0.02,
                height: 0.02,
                conductance_per_area: 5e4,
            }),
            &mappings,
        )
        .unwrap();
        // Same structure, strictly larger diagonal conductance mass (the
        // full-matrix sum is stamp-neutral: +g on two diagonals, −g twice
        // off-diagonal).
        assert_eq!(plain.node_count(), with_via.node_count());
        let diag_sum = |c: &ThermalCircuit| {
            (0..c.node_count()).map(|i| c.conductance().diagonal(i)).sum::<f64>()
        };
        assert!(diag_sum(&with_via) > diag_sum(&plain), "via field must add conductance");
    }

    #[test]
    fn rotated_placement_changes_coupling_pattern_not_totals() {
        // Rotating a placement permutes which PCB cells it couples into, but
        // conserves the total placement→PCB conductance (no vias involved).
        let die = DieGeometry { width: 0.02, height: 0.01, thickness: 0.5e-3 };
        let stack =
            LayerStack::new(vec![Layer::new("silicon", crate::materials::SILICON, 0.5e-3)], 0)
                .with_top(Boundary::Lumped { r_total: 2.0, c_total: 30.0 });
        let build = |rotation: Rotation| {
            let plan = hotiron_floorplan::library::uniform_die(die.width, die.height);
            let m = GridMapping::new(&plan, 4, 4);
            let board = Board::new(4, 4, pcb_spec()).with_placement(Placement {
                name: "u1".into(),
                die,
                stack: stack.clone(),
                x: 0.01,
                y: 0.01,
                rotation,
            });
            build_circuit_from_board(&board, &[m]).unwrap()
        };
        let r0 = build(Rotation::R0);
        let r90 = build(Rotation::R90);
        let sum = |c: &ThermalCircuit| c.conductance().values().iter().sum::<f64>();
        assert!((sum(&r0) - sum(&r90)).abs() < 1e-9 * sum(&r0).abs());
        assert_ne!(
            r0.conductance().col_indices(),
            r90.conductance().col_indices(),
            "rotation must move the PCB coupling pattern"
        );
    }

    #[test]
    fn board_cache_round_trips() {
        let cache = CircuitCache::new(4);
        let (board, mappings) = two_package_board(4, 4);
        let (a, hit_a) = cache.get_or_build_board(&board, &mappings).unwrap();
        assert!(!hit_a);
        let (b, hit_b) = cache.get_or_build_board(&board, &mappings).unwrap();
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        // A moved placement is a different circuit.
        let mut moved = board.clone();
        moved.placements[0].x += 1e-3;
        let (c, hit_c) = cache.get_or_build_board(&moved, &mappings).unwrap();
        assert!(!hit_c);
        assert!(!Arc::ptr_eq(&a, &c));
        // A bare stack is its solo board: one key, one entry.
        let m = mapping(4, 4);
        let bare =
            LayerStack::new(vec![Layer::new("silicon", crate::materials::SILICON, 0.1e-3)], 0)
                .with_top(Boundary::Lumped { r_total: 2.0, c_total: 30.0 });
        let (d, hit_d) = cache.get_or_build(&m, die20(), &bare).unwrap();
        assert!(!hit_d);
        assert!(!Arc::ptr_eq(&a, &d));
        let solo = Board::solo(4, 4, die20(), bare);
        let (e, hit_e) = cache.get_or_build_board(&solo, std::slice::from_ref(&m)).unwrap();
        assert!(hit_e, "the stack and its solo board share a cache entry");
        assert!(Arc::ptr_eq(&d, &e));
        assert!(e.board_nodes().is_none(), "a free-standing board has no PCB plane");
    }

    #[test]
    fn board_mapping_mismatch_is_typed() {
        let (board, _) = two_package_board(8, 8);
        let bad = vec![mapping(4, 4), mapping(8, 8)];
        let err = build_circuit_from_board(&board, &bad).unwrap_err();
        match &err {
            crate::board::BoardError::GridMismatch { placement, .. } => {
                assert_eq!(placement, "u1");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("u1"), "{err}");
    }

    #[test]
    fn cached_builds_share_one_circuit() {
        let m = mapping(8, 8);
        let stack =
            Package::OilSilicon(OilSiliconPackage::paper_default()).to_stack(die20()).unwrap();
        let cached = |m: &GridMapping, stack: &LayerStack| {
            CircuitCache::process().get_or_build(m, die20(), stack).unwrap().0
        };
        let a = cached(&m, &stack);
        let b = cached(&m, &stack);
        assert!(Arc::ptr_eq(&a, &b), "identical stacks must share one circuit");
        // A physically different stack gets its own circuit.
        let other = Package::OilSilicon(
            OilSiliconPackage::paper_default()
                .with_direction(crate::convection::FlowDirection::TopToBottom),
        )
        .to_stack(die20())
        .unwrap();
        let c = cached(&m, &other);
        assert!(!Arc::ptr_eq(&a, &c));
        // Same stack at a different grid too.
        let m2 = mapping(4, 4);
        let d = cached(&m2, &stack);
        assert!(!Arc::ptr_eq(&a, &d));
    }
}
