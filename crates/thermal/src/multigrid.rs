//! Geometric multigrid V-cycle preconditioner for the steady solve.
//!
//! The conductance matrix of a layered grid circuit is, per layer, a fixed
//! 5-point in-plane stencil plus uniform vertical couplings — exactly the
//! structure geometric multigrid exploits. This module builds a hierarchy of
//! 2×2-agglomerated coarse grids (Galerkin coarse operators `Pᵀ·A·P`,
//! cell-centered bilinear prolongation, full-weighting restriction `R = Pᵀ`)
//! down to at most `COARSEST_DIM` (8) per side, smooths each level with
//! weighted Jacobi, and solves the coarsest level exactly with the
//! existing [`LdlFactor`]. A V-cycle of that hierarchy preconditions
//! conjugate gradient ([`mg_pcg`]), giving iteration counts that are flat in
//! grid size where plain Jacobi-PCG grows with resolution.
//!
//! # Symmetry
//!
//! The V-cycle applies one Jacobi sweep before and one after the
//! coarse-grid correction, restricts with the exact transpose of the
//! prolongation, and solves the coarsest level exactly. Jacobi is a
//! symmetric smoother (`ω·D⁻¹`), so the composite preconditioner `M⁻¹` is
//! symmetric positive definite — a requirement for CG (pinned by a property
//! test).
//!
//! # Matrix-free stencil kernels
//!
//! The finest level never round-trips through generic CSR on the hot path:
//! [`StencilOperator`] decomposes `A` into the per-node diagonal, per-plane
//! uniform in-plane couplings, aligned plane-to-plane couplings (vertical
//! conduction), and a sparse CSR *remainder* for everything irregular (ring
//! nodes, locally varying oil films). Uniformity is established by **exact
//! floating-point equality** during setup — each captured coefficient is a
//! single stamp of a per-layer constant, so capture never changes a single
//! bit of the product. Every kernel in this module runs on the
//! [`pool`] with the fixed-chunk deterministic partition and a
//! fixed per-row fold order, so solves are bitwise identical at any thread
//! count.
//!
//! # Determinism of setup
//!
//! Hierarchy construction (segment derivation, prolongation assembly,
//! Galerkin products, factorization) is fully serial, so the cached
//! hierarchy on a [`ThermalCircuit`] is identical no matter which solve —
//! under which pool — triggered it.

use std::time::Instant;

use crate::cholesky::LdlFactor;
use crate::circuit::{NodeKind, ThermalCircuit};
use crate::pool;
use crate::sparse::{self, CsrMatrix, SolveMethod, SolveStats, TripletMatrix};

/// A contiguous run of nodes with (or without) grid structure.
///
/// Conduction layers and per-cell oil films are `rows × cols` planes that
/// coarsen geometrically; ring, coolant, and ring-oil nodes are structureless
/// singles that pass through the hierarchy unchanged (prolongation is the
/// identity on them).
#[derive(Debug, Clone, Copy)]
enum Segment {
    /// `rows × cols` plane starting at this node index, row-major.
    Grid { start: usize },
    /// One structureless node.
    Single { node: usize },
}

/// The only off-diagonal column of row `i`, if the row has exactly one.
fn sole_off_diagonal(g: &CsrMatrix, i: usize) -> Option<usize> {
    let mut it = g.row(i).filter(|&(j, _)| j != i);
    let first = it.next().map(|(j, _)| j);
    if it.next().is_some() {
        None
    } else {
        first
    }
}

/// Whether the `n_cells` oil nodes starting at `start` mirror a layer grid:
/// oil node `start + k` must pair with cell `k` of one layer. The stamping
/// order guarantees per-cell films are emitted in row-major cell order, but
/// this validates rather than assumes it (each oil node couples to exactly
/// one other node, so checking the run's endpoints pins the whole run).
fn oil_run_is_grid(circuit: &ThermalCircuit, start: usize) -> bool {
    let n_cells = circuit.cell_count();
    let kinds = circuit.node_kinds();
    if start + n_cells > circuit.node_count()
        || kinds[start..start + n_cells].iter().any(|k| *k != NodeKind::Oil)
    {
        return false;
    }
    let g = circuit.conductance();
    let (Some(p0), Some(p1)) =
        (sole_off_diagonal(g, start), sole_off_diagonal(g, start + n_cells - 1))
    else {
        return false;
    };
    p0 % n_cells == 0
        && p1 == p0 + n_cells - 1
        && matches!(kinds.get(p0), Some(NodeKind::Cell { .. }))
}

/// Splits the circuit's node range into grid planes and singles, in node
/// order (the segments tile `0..node_count` exactly).
fn derive_segments(circuit: &ThermalCircuit) -> Vec<Segment> {
    let n_cells = circuit.cell_count();
    let nl = circuit.layer_names().len();
    let mut segs: Vec<Segment> = (0..nl).map(|l| Segment::Grid { start: l * n_cells }).collect();
    let mut i = nl * n_cells;
    while i < circuit.node_count() {
        if circuit.node_kinds()[i] == NodeKind::Oil && oil_run_is_grid(circuit, i) {
            segs.push(Segment::Grid { start: i });
            i += n_cells;
        } else {
            segs.push(Segment::Single { node: i });
            i += 1;
        }
    }
    segs
}

/// One grid plane of a [`StencilOperator`].
#[derive(Debug)]
struct GridPlane {
    start: usize,
    /// Uniform horizontal coupling (the stored, negative off-diagonal), or
    /// 0.0 when the plane has none / it is not uniform.
    gx: f64,
    /// Uniform vertical (in-plane row-to-row) coupling, or 0.0.
    gy: f64,
    /// Aligned couplings to other planes: node `start + k` couples to
    /// `other_start + k` with the uniform stored value.
    partners: Vec<(usize, f64)>,
}

/// Matrix-free form of a layered-grid conductance matrix.
///
/// `A·x` is computed as `diag·x` plus per-plane stencil terms plus a sparse
/// CSR remainder holding every coefficient the stencil decomposition could
/// not capture *exactly* (see the module docs). The decomposition is lossless
/// by construction: captured coefficients are bitwise equal to the CSR
/// entries they replace, and each row folds its terms in a fixed order, so
/// the product is deterministic at any thread count.
#[derive(Debug)]
pub struct StencilOperator {
    n: usize,
    rows: usize,
    cols: usize,
    diag: Vec<f64>,
    planes: Vec<GridPlane>,
    /// Plane index per node; `u32::MAX` for singles.
    node_plane: Vec<u32>,
    remainder: CsrMatrix,
}

/// Value stored at `(i, j)` in `g`, if present.
fn entry(g: &CsrMatrix, i: usize, j: usize) -> Option<f64> {
    g.row(i).find(|&(c, _)| c == j).map(|(_, v)| v)
}

/// The single value stored at every `(i, j)` pair produced by the iterator,
/// required by exact floating-point equality; 0.0 when any entry is missing,
/// differs, or the iterator is empty.
fn uniform_coupling(g: &CsrMatrix, pairs: impl Iterator<Item = (usize, usize)>) -> f64 {
    let mut value: Option<f64> = None;
    for (i, j) in pairs {
        let Some(v) = entry(g, i, j) else {
            return 0.0;
        };
        match value {
            None => value = Some(v),
            Some(u) if u.to_bits() == v.to_bits() => {}
            Some(_) => return 0.0,
        }
    }
    value.unwrap_or(0.0)
}

impl StencilOperator {
    /// Decomposes `g` over the given segments. Never fails: anything that
    /// does not match the stencil pattern lands in the remainder.
    fn build(g: &CsrMatrix, segs: &[Segment], rows: usize, cols: usize) -> Self {
        let n = g.dim();
        let n_cells = rows * cols;
        let diag: Vec<f64> = (0..n).map(|i| g.diagonal(i)).collect();

        let grid_starts: Vec<usize> = segs
            .iter()
            .filter_map(|s| match s {
                Segment::Grid { start } => Some(*start),
                Segment::Single { .. } => None,
            })
            .collect();

        let mut planes = Vec::with_capacity(grid_starts.len());
        for &start in &grid_starts {
            let gx = uniform_coupling(
                g,
                (0..rows).flat_map(|r| {
                    (0..cols - 1).map(move |c| {
                        let i = start + r * cols + c;
                        (i, i + 1)
                    })
                }),
            );
            let gy = uniform_coupling(
                g,
                (0..rows - 1).flat_map(|r| {
                    (0..cols).map(move |c| {
                        let i = start + r * cols + c;
                        (i, i + cols)
                    })
                }),
            );
            let mut partners = Vec::new();
            for &other in &grid_starts {
                if other == start {
                    continue;
                }
                // Cheap reject: no coupling at the first cell means no
                // aligned coupling at all (uniform_coupling would scan the
                // whole plane to conclude the same).
                if entry(g, start, other).is_none() {
                    continue;
                }
                let gv = uniform_coupling(g, (0..n_cells).map(|k| (start + k, other + k)));
                if gv != 0.0 {
                    partners.push((other, gv));
                }
            }
            planes.push(GridPlane { start, gx, gy, partners });
        }

        let mut node_plane = vec![u32::MAX; n];
        for (p, plane) in planes.iter().enumerate() {
            for slot in &mut node_plane[plane.start..plane.start + n_cells] {
                *slot = p as u32;
            }
        }

        // Everything not captured exactly goes to the remainder.
        let mut rem = TripletMatrix::new(n);
        for (i, &node_p) in node_plane.iter().enumerate() {
            let captured = |j: usize| -> bool {
                let p = node_p;
                if p == u32::MAX {
                    return false;
                }
                let plane = &planes[p as usize];
                let off = i - plane.start;
                let (r, c) = (off / cols, off % cols);
                (plane.gx != 0.0 && ((c > 0 && j == i - 1) || (c + 1 < cols && j == i + 1)))
                    || (plane.gy != 0.0
                        && ((r > 0 && j == i - cols) || (r + 1 < rows && j == i + cols)))
                    || plane.partners.iter().any(|&(t, _)| j == t + off)
            };
            for (j, v) in g.row(i) {
                if j != i && !captured(j) {
                    rem.add(i, j, v);
                }
            }
        }

        Self { n, rows, cols, diag, planes, node_plane, remainder: rem.to_csr() }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored non-zeros that fell through to the CSR remainder.
    pub fn remainder_nnz(&self) -> usize {
        self.remainder.nnz()
    }

    /// `y = A·x`, chunk-parallel with a fixed per-row fold order (diagonal,
    /// west, east, south, north, plane partners in stored order, remainder
    /// in CSR order) — bitwise deterministic at any thread count.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        let pool = pool::current();
        pool::fill_chunks(&pool, y, |_, start, chunk| {
            for (k, yi) in chunk.iter_mut().enumerate() {
                let i = start + k;
                let mut acc = self.diag[i] * x[i];
                let p = self.node_plane[i];
                if p != u32::MAX {
                    let plane = &self.planes[p as usize];
                    let off = i - plane.start;
                    let (r, c) = (off / self.cols, off % self.cols);
                    if plane.gx != 0.0 {
                        if c > 0 {
                            acc += plane.gx * x[i - 1];
                        }
                        if c + 1 < self.cols {
                            acc += plane.gx * x[i + 1];
                        }
                    }
                    if plane.gy != 0.0 {
                        if r > 0 {
                            acc += plane.gy * x[i - self.cols];
                        }
                        if r + 1 < self.rows {
                            acc += plane.gy * x[i + self.cols];
                        }
                    }
                    for &(t, gv) in &plane.partners {
                        acc += gv * x[t + off];
                    }
                }
                for (j, v) in self.remainder.row(i) {
                    acc += v * x[j];
                }
                *yi = acc;
            }
        });
    }
}

/// Cell-centered bilinear prolongation `P` (fine ← coarse) with its exact
/// transpose stored alongside for full-weighting restriction `R = Pᵀ`.
#[derive(Debug)]
struct Prolong {
    nf: usize,
    nc: usize,
    // P, by fine rows.
    row_ptr: Vec<u32>,
    col: Vec<u32>,
    val: Vec<f64>,
    // Pᵀ, by coarse rows (fine columns ascending within each row).
    t_row_ptr: Vec<u32>,
    t_col: Vec<u32>,
    t_val: Vec<f64>,
}

/// Coarse indices and weights along one dimension for fine index `f`: the
/// parent `f/2` gets 0.75 and the nearer neighbor 0.25; at a boundary the
/// neighbor weight folds into the parent so rows of `P` always sum to 1
/// (constants prolong to constants).
fn dim_weights(f: usize, nc: usize) -> [(usize, f64); 2] {
    let p = f / 2;
    let neighbor =
        if f.is_multiple_of(2) { p.checked_sub(1) } else { (p + 1 < nc).then_some(p + 1) };
    match neighbor {
        Some(q) => [(p, 0.75), (q, 0.25)],
        None => [(p, 1.0), (p, 0.0)],
    }
}

/// Builds the prolongation from a level's segments, returning the coarse
/// segments (same order, coarse numbering) and the coarse grid dimensions.
fn build_prolong(
    segs: &[Segment],
    rows: usize,
    cols: usize,
) -> (Prolong, Vec<Segment>, (usize, usize)) {
    let (rc, cc) = (rows.div_ceil(2), cols.div_ceil(2));
    let fine_cells = rows * cols;
    let coarse_cells = rc * cc;

    let mut coarse_segs = Vec::with_capacity(segs.len());
    let mut nc = 0usize;
    for s in segs {
        match s {
            Segment::Grid { .. } => {
                coarse_segs.push(Segment::Grid { start: nc });
                nc += coarse_cells;
            }
            Segment::Single { .. } => {
                coarse_segs.push(Segment::Single { node: nc });
                nc += 1;
            }
        }
    }

    let mut row_ptr = vec![0u32];
    let mut col = Vec::new();
    let mut val = Vec::new();
    for (s, cs) in segs.iter().zip(&coarse_segs) {
        match (s, cs) {
            (Segment::Grid { .. }, Segment::Grid { start: cstart }) => {
                for r in 0..rows {
                    let wr = dim_weights(r, rc);
                    for c in 0..cols {
                        let wc = dim_weights(c, cc);
                        let mut entries = [(0u32, 0.0f64); 4];
                        let mut m = 0;
                        for &(ri, rw) in &wr {
                            for &(ci, cw) in &wc {
                                let w = rw * cw;
                                if w != 0.0 {
                                    entries[m] = ((cstart + ri * cc + ci) as u32, w);
                                    m += 1;
                                }
                            }
                        }
                        entries[..m].sort_unstable_by_key(|&(j, _)| j);
                        for &(j, w) in &entries[..m] {
                            col.push(j);
                            val.push(w);
                        }
                        row_ptr.push(col.len() as u32);
                    }
                }
            }
            (Segment::Single { .. }, Segment::Single { node }) => {
                col.push(*node as u32);
                val.push(1.0);
                row_ptr.push(col.len() as u32);
            }
            _ => unreachable!("coarse segments mirror fine segments"),
        }
    }
    let nf = row_ptr.len() - 1;
    debug_assert_eq!(
        nf,
        segs.iter()
            .map(|s| match s {
                Segment::Grid { .. } => fine_cells,
                Segment::Single { .. } => 1,
            })
            .sum::<usize>()
    );

    // Transpose by counting; fine columns come out ascending per coarse row,
    // fixing the restriction fold order.
    let nnz = col.len();
    let mut t_row_ptr = vec![0u32; nc + 1];
    for &j in &col {
        t_row_ptr[j as usize + 1] += 1;
    }
    for i in 0..nc {
        t_row_ptr[i + 1] += t_row_ptr[i];
    }
    let mut t_col = vec![0u32; nnz];
    let mut t_val = vec![0.0f64; nnz];
    let mut next = t_row_ptr.clone();
    for i in 0..nf {
        for idx in row_ptr[i] as usize..row_ptr[i + 1] as usize {
            let j = col[idx] as usize;
            let slot = next[j] as usize;
            t_col[slot] = i as u32;
            t_val[slot] = val[idx];
            next[j] += 1;
        }
    }

    (Prolong { nf, nc, row_ptr, col, val, t_row_ptr, t_col, t_val }, coarse_segs, (rc, cc))
}

impl Prolong {
    /// Entries of fine row `i` of `P`.
    fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        self.col[lo..hi].iter().zip(&self.val[lo..hi]).map(|(&j, &v)| (j as usize, v))
    }

    /// `coarse = Pᵀ·fine` (full weighting), chunk-parallel over coarse rows.
    fn restrict(&self, fine: &[f64], coarse: &mut [f64]) {
        assert_eq!(fine.len(), self.nf);
        assert_eq!(coarse.len(), self.nc);
        let pool = pool::current();
        pool::fill_chunks(&pool, coarse, |_, start, chunk| {
            for (k, ci) in chunk.iter_mut().enumerate() {
                let i = start + k;
                let lo = self.t_row_ptr[i] as usize;
                let hi = self.t_row_ptr[i + 1] as usize;
                let mut acc = 0.0;
                for idx in lo..hi {
                    acc += self.t_val[idx] * fine[self.t_col[idx] as usize];
                }
                *ci = acc;
            }
        });
    }

    /// `fine += P·coarse` (bilinear interpolation), chunk-parallel over fine
    /// rows.
    fn interpolate_add(&self, coarse: &[f64], fine: &mut [f64]) {
        assert_eq!(coarse.len(), self.nc);
        assert_eq!(fine.len(), self.nf);
        let pool = pool::current();
        pool::fill_chunks(&pool, fine, |_, start, chunk| {
            for (k, fi) in chunk.iter_mut().enumerate() {
                let i = start + k;
                let lo = self.row_ptr[i] as usize;
                let hi = self.row_ptr[i + 1] as usize;
                let mut acc = 0.0;
                for idx in lo..hi {
                    acc += self.val[idx] * coarse[self.col[idx] as usize];
                }
                *fi += acc;
            }
        });
    }
}

/// Galerkin coarse operator `Pᵀ·A·P`. Serial and deterministic (triplet
/// accumulation in a fixed order, stable duplicate merge in `to_csr`).
fn galerkin(a: &CsrMatrix, p: &Prolong) -> CsrMatrix {
    let mut t = TripletMatrix::new(p.nc);
    for i in 0..a.dim() {
        for (bi, pv) in p.row(i) {
            for (j, av) in a.row(i) {
                for (bj, qv) in p.row(j) {
                    t.add(bi, bj, pv * av * qv);
                }
            }
        }
    }
    t.to_csr()
}

/// Stop coarsening once `min(rows, cols)` is at or below this; that level is
/// then solved exactly by LDLᵀ.
const COARSEST_DIM: usize = 8;

/// Jacobi sweeps before *and* after each coarse-grid correction (kept equal
/// so the preconditioner stays symmetric): the V-cycle runs one of each.
const SWEEPS: usize = 1;

/// Base Jacobi damping factor; each level additionally rescales by the
/// Gershgorin bound on its own operator (see `jacobi_scale`).
const OMEGA: f64 = 0.8;

/// Gershgorin bound on the spectral radius of `D⁻¹·A`:
/// `max_i Σ_j |a_ij| / a_ii`. Weighted Jacobi with `ω < 2/s` is convergent;
/// `None` when a diagonal entry is non-positive (the hierarchy is unusable).
fn jacobi_scale(a: &CsrMatrix) -> Option<f64> {
    let mut s = 0.0f64;
    for i in 0..a.dim() {
        let d = a.diagonal(i);
        if d <= 0.0 {
            return None;
        }
        let row_sum: f64 = a.row(i).map(|(_, v)| v.abs()).sum();
        s = s.max(row_sum / d);
    }
    Some(s)
}

/// The operator of one level: matrix-free stencil on the finest grid, plain
/// CSR for the 9-point Galerkin operators below it.
#[derive(Debug)]
enum LevelOp {
    Stencil(StencilOperator),
    Csr(CsrMatrix),
}

impl LevelOp {
    fn dim(&self) -> usize {
        match self {
            Self::Stencil(s) => s.dim(),
            Self::Csr(a) => a.dim(),
        }
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        match self {
            Self::Stencil(s) => s.apply(x, y),
            Self::Csr(a) => a.mul_vec_into(x, y),
        }
    }
}

#[derive(Debug)]
struct MgLevel {
    op: LevelOp,
    inv_diag: Vec<f64>,
    /// Effective Jacobi weight for this level: `OMEGA · 2 / max(s, 2)`,
    /// so coarse Galerkin operators that lost diagonal dominance still get a
    /// convergent smoother.
    omega: f64,
    rows: usize,
    cols: usize,
    n: usize,
}

impl MgLevel {
    fn new(op: LevelOp, a: &CsrMatrix, rows: usize, cols: usize) -> Option<Self> {
        let scale = jacobi_scale(a)?;
        let n = op.dim();
        let inv_diag: Vec<f64> = (0..n).map(|i| 1.0 / a.diagonal(i)).collect();
        let omega = OMEGA * 2.0 / scale.max(2.0);
        Some(Self { op, inv_diag, omega, rows, cols, n })
    }
}

/// Per-level telemetry of an MG-preconditioned solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MgLevelStats {
    /// Grid rows at this level.
    pub rows: usize,
    /// Grid columns at this level.
    pub cols: usize,
    /// Total nodes at this level (all planes plus singles).
    pub nodes: usize,
    /// Seconds spent in this level's kernels (smoothing, residual, transfer
    /// on the fine side; the exact LDLᵀ solve on the coarsest).
    pub seconds: f64,
}

/// Multigrid telemetry attached to [`SolveStats::multigrid`].
#[derive(Debug, Clone, PartialEq)]
pub struct MgStats {
    /// V-cycles run (one per preconditioner application).
    pub cycles: usize,
    /// Jacobi sweeps per level on each side of the coarse correction.
    pub sweeps: usize,
    /// Finest-to-coarsest level breakdown.
    pub levels: Vec<MgLevelStats>,
}

/// Reusable V-cycle state: one solution/residual/scratch vector per level.
#[derive(Debug)]
pub struct MgWorkspace {
    x: Vec<Vec<f64>>,
    r: Vec<Vec<f64>>,
    t: Vec<Vec<f64>>,
    /// Scratch for the coarsest-level LDLᵀ solve.
    y: Vec<f64>,
    level_seconds: Vec<f64>,
    cycles: usize,
}

/// A built geometric multigrid hierarchy for one [`ThermalCircuit`].
#[derive(Debug)]
pub struct Multigrid {
    /// Finest first; the last level is the one solved exactly.
    levels: Vec<MgLevel>,
    /// `prolongs[k]` maps level `k+1` (coarse) to level `k` (fine).
    prolongs: Vec<Prolong>,
    coarse_factor: LdlFactor,
    setup_seconds: f64,
}

impl Multigrid {
    /// Builds the hierarchy for a circuit's steady conductance operator, or
    /// `None` when the grid is already at or below the coarsest dimension
    /// (8 cells per side) — callers fall back to plain CG — or the structure
    /// defeats the smoother/factorization.
    pub fn from_circuit(circuit: &ThermalCircuit) -> Option<Self> {
        let start = Instant::now();
        let fine = circuit.conductance();
        let (rows, cols) = (circuit.grid_rows(), circuit.grid_cols());
        if rows.min(cols) <= COARSEST_DIM {
            return None;
        }

        let mut segs = derive_segments(circuit);
        let fine_op = LevelOp::Stencil(StencilOperator::build(fine, &segs, rows, cols));
        let mut levels = vec![MgLevel::new(fine_op, fine, rows, cols)?];
        let mut prolongs = Vec::new();

        // `None` means "the finest operator" (borrowed from the circuit, so
        // the fine CSR is never cloned just to coarsen it).
        let mut current: Option<CsrMatrix> = None;
        let (mut r, mut c) = (rows, cols);
        while r.min(c) > COARSEST_DIM {
            let a = current.as_ref().unwrap_or(fine);
            let (p, coarse_segs, (rc, cc)) = build_prolong(&segs, r, c);
            let coarse = galerkin(a, &p);
            levels.push(MgLevel::new(LevelOp::Csr(coarse.clone()), &coarse, rc, cc)?);
            prolongs.push(p);
            segs = coarse_segs;
            current = Some(coarse);
            (r, c) = (rc, cc);
        }

        let coarse_factor = LdlFactor::factor(current.as_ref()?).ok()?;
        let setup_seconds = start.elapsed().as_secs_f64();
        Some(Self { levels, prolongs, coarse_factor, setup_seconds })
    }

    /// Number of levels, finest included.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Nodes per level, finest first.
    pub fn level_nodes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.n).collect()
    }

    /// Wall-clock seconds the one-time hierarchy construction took.
    pub fn setup_seconds(&self) -> f64 {
        self.setup_seconds
    }

    /// Allocates a workspace sized for this hierarchy.
    pub fn workspace(&self) -> MgWorkspace {
        let per_level = || self.levels.iter().map(|l| vec![0.0; l.n]).collect();
        MgWorkspace {
            x: per_level(),
            r: per_level(),
            t: per_level(),
            y: vec![0.0; self.levels[self.levels.len() - 1].n],
            level_seconds: vec![0.0; self.levels.len()],
            cycles: 0,
        }
    }

    /// Applies the preconditioner: `z ≈ A⁻¹·r` via one V-cycle.
    ///
    /// # Panics
    ///
    /// Panics if `r`/`z` do not match the finest level or `ws` was built for
    /// a different hierarchy.
    pub fn precondition(&self, r: &[f64], z: &mut [f64], ws: &mut MgWorkspace) {
        assert_eq!(r.len(), self.levels[0].n);
        assert_eq!(z.len(), self.levels[0].n);
        ws.r[0].copy_from_slice(r);
        self.vcycle(ws);
        z.copy_from_slice(&ws.x[0]);
    }

    /// One V-cycle on the residual in `ws.r[0]`, leaving the correction in
    /// `ws.x[0]`.
    fn vcycle(&self, ws: &mut MgWorkspace) {
        let last = self.levels.len() - 1;
        for k in 0..last {
            let t0 = Instant::now();
            let lvl = &self.levels[k];
            smooth_from_zero(lvl, &ws.r[k], &mut ws.x[k]);
            residual(lvl, &ws.r[k], &ws.x[k], &mut ws.t[k]);
            self.prolongs[k].restrict(&ws.t[k], &mut ws.r[k + 1]);
            ws.level_seconds[k] += t0.elapsed().as_secs_f64();
        }
        {
            let t0 = Instant::now();
            self.coarse_factor.solve_with_scratch(&ws.r[last], &mut ws.x[last], &mut ws.y);
            ws.level_seconds[last] += t0.elapsed().as_secs_f64();
        }
        for k in (0..last).rev() {
            let t0 = Instant::now();
            let (x_fine, x_coarse) = ws.x.split_at_mut(k + 1);
            self.prolongs[k].interpolate_add(&x_coarse[0], &mut x_fine[k]);
            smooth(&self.levels[k], &ws.r[k], &mut ws.x[k], &mut ws.t[k]);
            ws.level_seconds[k] += t0.elapsed().as_secs_f64();
        }
        ws.cycles += 1;
    }

    /// Telemetry snapshot for a finished solve that used `ws`.
    fn stats_from(&self, ws: &MgWorkspace) -> MgStats {
        MgStats {
            cycles: ws.cycles,
            sweeps: SWEEPS,
            levels: self
                .levels
                .iter()
                .zip(&ws.level_seconds)
                .map(|(l, &seconds)| MgLevelStats {
                    rows: l.rows,
                    cols: l.cols,
                    nodes: l.n,
                    seconds,
                })
                .collect(),
        }
    }
}

/// One Jacobi sweep starting from `x = 0`: `x = ω·D⁻¹·r` (skips the operator
/// application a general sweep needs).
fn smooth_from_zero(lvl: &MgLevel, r: &[f64], x: &mut [f64]) {
    let pool = pool::current();
    pool::fill_chunks(&pool, x, |_, start, chunk| {
        for (k, xi) in chunk.iter_mut().enumerate() {
            let i = start + k;
            *xi = lvl.omega * lvl.inv_diag[i] * r[i];
        }
    });
}

/// One weighted-Jacobi sweep: `x += ω·D⁻¹·(r − A·x)`, using `t` as scratch.
fn smooth(lvl: &MgLevel, r: &[f64], x: &mut [f64], t: &mut [f64]) {
    lvl.op.apply(x, t);
    let pool = pool::current();
    pool::fill_chunks(&pool, x, |_, start, chunk| {
        for (k, xi) in chunk.iter_mut().enumerate() {
            let i = start + k;
            *xi += lvl.omega * lvl.inv_diag[i] * (r[i] - t[i]);
        }
    });
}

/// `out = r − A·x`.
fn residual(lvl: &MgLevel, r: &[f64], x: &[f64], out: &mut [f64]) {
    lvl.op.apply(x, out);
    let pool = pool::current();
    pool::fill_chunks(&pool, out, |_, start, chunk| {
        for (k, oi) in chunk.iter_mut().enumerate() {
            *oi = r[start + k] - *oi;
        }
    });
}

/// Conjugate gradient preconditioned by one V-cycle per iteration.
///
/// Solves `A·x = b` for the hierarchy's circuit, starting from the provided
/// `x` (warm start). The finest-level operator is the matrix-free
/// [`StencilOperator`]; all kernels are bitwise deterministic at any thread
/// count. Returns stats with [`SolveStats::multigrid`] populated;
/// `factor_seconds` is 0.0 — the caller charges hierarchy setup to the solve
/// that triggered it (see `ThermalCircuit::multigrid_with_setup`).
///
/// # Panics
///
/// Panics if `b`/`x` do not match the hierarchy's finest level.
pub fn mg_pcg(
    mg: &Multigrid,
    b: &[f64],
    x: &mut [f64],
    rel_tol: f64,
    max_iter: usize,
) -> SolveStats {
    let n = mg.levels[0].n;
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let mut ws = mg.workspace();
    let (iterations, residual, converged) = sparse::pcg(
        |v, out| mg.levels[0].op.apply(v, out),
        |r, z| mg.precondition(r, z, &mut ws),
        b,
        x,
        rel_tol,
        max_iter,
    );
    let mut s = SolveStats::iterative(SolveMethod::MgCg, iterations, residual, converged)
        .with_threads(pool::current().threads());
    s.factor_nnz = mg.coarse_factor.nnz_l();
    s.multigrid = Some(mg.stats_from(&ws));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{build_circuit, DieGeometry};
    use crate::package::{AirSinkPackage, OilSiliconPackage, Package};
    use hotiron_floorplan::{library, GridMapping};

    fn die20() -> DieGeometry {
        DieGeometry { width: 0.02, height: 0.02, thickness: 0.5e-3 }
    }

    fn circuit(rows: usize, pkg: Package) -> ThermalCircuit {
        let m = GridMapping::new(&library::uniform_die(0.02, 0.02), rows, rows);
        build_circuit(&m, die20(), &pkg).unwrap()
    }

    fn oil(rows: usize) -> ThermalCircuit {
        circuit(rows, Package::OilSilicon(OilSiliconPackage::paper_default()))
    }

    fn air(rows: usize) -> ThermalCircuit {
        circuit(rows, Package::AirSink(AirSinkPackage::paper_default()))
    }

    #[test]
    fn segments_cover_all_nodes_in_order() {
        for c in [oil(8), air(8)] {
            let segs = derive_segments(&c);
            let mut next = 0usize;
            for s in &segs {
                match s {
                    Segment::Grid { start } => {
                        assert_eq!(*start, next);
                        next += c.cell_count();
                    }
                    Segment::Single { node } => {
                        assert_eq!(*node, next);
                        next += 1;
                    }
                }
            }
            assert_eq!(next, c.node_count());
        }
    }

    #[test]
    fn oil_film_is_detected_as_a_grid_plane() {
        let c = oil(8);
        let segs = derive_segments(&c);
        // silicon plane + oil plane, no singles.
        assert_eq!(segs.len(), 2);
        assert!(segs.iter().all(|s| matches!(s, Segment::Grid { .. })));
    }

    #[test]
    fn stencil_apply_matches_csr_product() {
        for (label, c) in [("oil", oil(16)), ("air", air(16))] {
            let segs = derive_segments(&c);
            let op = StencilOperator::build(c.conductance(), &segs, 16, 16);
            let n = c.node_count();
            let x: Vec<f64> = (0..n).map(|i| 300.0 + (i as f64 * 0.37).sin()).collect();
            let want = c.conductance().mul_vec(&x);
            let mut got = vec![0.0; n];
            op.apply(&x, &mut got);
            // The stencil folds its row in fixed direction order, not CSR
            // column order, so the products differ by re-association of
            // mixed-sign terms — a few ULPs, well under 1e-10 relative.
            for i in 0..n {
                let scale = want[i].abs().max(1.0);
                assert!(
                    (want[i] - got[i]).abs() / scale < 1e-10,
                    "{label}: row {i}: {} vs {}",
                    want[i],
                    got[i]
                );
            }
        }
    }

    #[test]
    fn stencil_captures_the_bulk_of_the_conduction_layers() {
        // On the air stack the conduction layers are uniform 5-point
        // stencils with uniform vertical couplings. What falls through to
        // the remainder: ring/coolant attachments plus the die cells'
        // per-cell links into the lumped secondary path (uniform values,
        // but rank-1 structure the plane-partner capture cannot express) —
        // about 12% of off-diagonals at 16×16, shrinking as the boundary
        // fraction does on finer grids.
        let c = air(16);
        let segs = derive_segments(&c);
        let op = StencilOperator::build(c.conductance(), &segs, 16, 16);
        let off_diag = c.conductance().nnz() - c.node_count();
        assert!(
            op.remainder_nnz() * 5 < off_diag,
            "remainder {} of {off_diag} off-diagonals",
            op.remainder_nnz()
        );
    }

    #[test]
    fn prolongation_rows_sum_to_one() {
        let c = oil(16);
        let segs = derive_segments(&c);
        let (p, _, (rc, cc)) = build_prolong(&segs, 16, 16);
        assert_eq!((rc, cc), (8, 8));
        for i in 0..p.nf {
            let sum: f64 = p.row(i).map(|(_, v)| v).sum();
            assert!((sum - 1.0).abs() < 1e-15, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn galerkin_operator_is_symmetric_spd_like() {
        let c = oil(16);
        let segs = derive_segments(&c);
        let (p, _, _) = build_prolong(&segs, 16, 16);
        let coarse = galerkin(c.conductance(), &p);
        assert!(coarse.is_symmetric(1e-9));
        for i in 0..coarse.dim() {
            assert!(coarse.diagonal(i) > 0.0, "coarse diagonal {i}");
        }
    }

    #[test]
    fn hierarchy_shape() {
        let c = oil(32);
        let mg = Multigrid::from_circuit(&c).expect("hierarchy builds");
        // 32 -> 16 -> 8.
        assert_eq!(mg.level_count(), 3);
        let nodes = mg.level_nodes();
        assert_eq!(nodes[0], c.node_count());
        assert_eq!(nodes[1], 2 * 16 * 16);
        assert_eq!(nodes[2], 2 * 8 * 8);
    }

    #[test]
    fn too_small_grids_get_no_hierarchy() {
        assert!(Multigrid::from_circuit(&oil(8)).is_none());
    }

    #[test]
    fn mg_pcg_solves_to_tolerance() {
        for (label, c) in [("oil", oil(16)), ("air", air(16))] {
            let mg =
                Multigrid::from_circuit(&c).unwrap_or_else(|| panic!("{label}: hierarchy builds"));
            let mut power = vec![0.0; c.cell_count()];
            power[3] = 5.0;
            let b = c.rhs(&power, 318.15);
            let mut x = vec![318.15; c.node_count()];
            let stats = mg_pcg(&mg, &b, &mut x, 1e-10, 100);
            assert!(stats.converged, "{label}: {stats:?}");
            assert_eq!(stats.method, SolveMethod::MgCg);
            let telemetry = stats.multigrid.expect("mg telemetry");
            assert_eq!(telemetry.levels.len(), mg.level_count());
            assert!(telemetry.cycles >= stats.iterations);
            // Residual check against the real operator.
            let ax = c.conductance().mul_vec(&x);
            let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
            let rnorm = b.iter().zip(&ax).map(|(bi, ai)| (bi - ai) * (bi - ai)).sum::<f64>().sqrt();
            assert!(rnorm / b_norm < 1e-9, "{label}: residual {}", rnorm / b_norm);
        }
    }
}
