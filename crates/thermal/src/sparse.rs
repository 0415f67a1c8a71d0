//! Minimal sparse linear algebra for thermal RC networks.
//!
//! The conductance matrix of an RC thermal network is symmetric positive
//! definite (strictly diagonally dominant once every node has a path to the
//! ambient), so a Jacobi-preconditioned conjugate-gradient solver is both
//! simple and robust. A triplet-based [`TripletMatrix`] builder assembles the
//! network; [`CsrMatrix`] is the compressed solve-time form.

use std::fmt;

use crate::pool;

/// Coordinate-format builder for a square sparse matrix.
///
/// Duplicate entries are summed on conversion to CSR, which makes circuit
/// "stamping" (adding each conductance to four entries) natural.
///
/// # Examples
///
/// ```
/// use hotiron_thermal::sparse::TripletMatrix;
///
/// let mut t = TripletMatrix::new(2);
/// // Stamp a 1 S conductance between nodes 0 and 1.
/// t.add(0, 0, 1.0);
/// t.add(1, 1, 1.0);
/// t.add(0, 1, -1.0);
/// t.add(1, 0, -1.0);
/// let m = t.to_csr();
/// assert_eq!(m.mul_vec(&[1.0, 0.0]), vec![1.0, -1.0]);
/// ```
#[derive(Debug, Clone)]
pub struct TripletMatrix {
    n: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl TripletMatrix {
    /// Creates an empty `n x n` builder.
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// Creates an empty `n x n` builder with room for `entries` additions
    /// (each [`stamp_conductance`](Self::stamp_conductance) makes up to four,
    /// each [`stamp_grounded_conductance`](Self::stamp_grounded_conductance)
    /// one), so assembly never regrows the list.
    pub fn with_capacity(n: usize, entries: usize) -> Self {
        assert!(n < u32::MAX as usize, "matrix too large for u32 indices");
        Self { n, entries: Vec::with_capacity(entries) }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Adds `value` at `(row, col)`; repeated additions accumulate.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds or `value` is not finite.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "index ({row},{col}) out of bounds for n={}", self.n);
        assert!(value.is_finite(), "matrix entries must be finite");
        if value != 0.0 {
            self.entries.push((row as u32, col as u32, value));
        }
    }

    /// Stamps a two-terminal conductance `g` (S ≡ W/K) between nodes `a`
    /// and `b`: adds `+g` to both diagonals and `-g` off-diagonal.
    ///
    /// # Panics
    ///
    /// Panics if `g` is negative, non-finite, or `a == b`.
    pub fn stamp_conductance(&mut self, a: usize, b: usize, g: f64) {
        assert!(g.is_finite() && g >= 0.0, "conductance must be non-negative, got {g}");
        assert_ne!(a, b, "conductance endpoints must differ");
        if g == 0.0 {
            return;
        }
        self.add(a, a, g);
        self.add(b, b, g);
        self.add(a, b, -g);
        self.add(b, a, -g);
    }

    /// Stamps a conductance from node `a` to a Dirichlet (fixed-temperature)
    /// ground node: only the diagonal gets `+g`; the right-hand side
    /// contribution `g·T_ground` is the caller's responsibility.
    pub fn stamp_grounded_conductance(&mut self, a: usize, g: f64) {
        assert!(g.is_finite() && g >= 0.0, "conductance must be non-negative, got {g}");
        if g > 0.0 {
            self.add(a, a, g);
        }
    }

    /// Converts to CSR, summing duplicates in sorted order. Consumes the
    /// builder and sorts and folds its entry list in place, so the
    /// conversion holds one copy of it and the CSR arrays are allocated at
    /// their final length.
    pub fn to_csr(self) -> CsrMatrix {
        let mut entries = self.entries;
        entries.sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);
        entries.dedup_by(|next, kept| {
            let same = (next.0, next.1) == (kept.0, kept.1);
            if same {
                kept.2 += next.2;
            }
            same
        });
        let mut row_ptr = vec![0u32; self.n + 1];
        for &(r, _, _) in &entries {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..self.n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = entries.iter().map(|&(_, c, _)| c).collect();
        let values = entries.iter().map(|&(_, _, v)| v).collect();
        CsrMatrix { n: self.n, row_ptr, col_idx, values }
    }
}

/// Compressed sparse row matrix.
#[derive(Clone)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrMatrix").field("n", &self.n).field("nnz", &self.values.len()).finish()
    }
}

impl CsrMatrix {
    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Raw CSR row offsets (`dim() + 1` entries).
    pub fn row_offsets(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Raw CSR column indices, row-major.
    pub fn col_indices(&self) -> &[u32] {
        &self.col_idx
    }

    /// Raw stored values, parallel to [`col_indices`](Self::col_indices).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The entries of row `i` as `(column, value)` pairs.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]).map(|(&c, &v)| (c as usize, v))
    }

    /// The diagonal entry of row `i` (0 if absent).
    pub fn diagonal(&self, i: usize) -> f64 {
        self.row(i).find(|&(c, _)| c == i).map_or(0.0, |(_, v)| v)
    }

    /// Dense matrix-vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// `y = A·x` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from `dim()`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        // Row-partitioned across the pool: each row's accumulation is an
        // independent left-to-right fold, so the result is bitwise identical
        // at any thread count.
        let pool = pool::current();
        pool::fill_chunks(&pool, y, |_, start, chunk| {
            for (k, yi) in chunk.iter_mut().enumerate() {
                let i = start + k;
                let lo = self.row_ptr[i] as usize;
                let hi = self.row_ptr[i + 1] as usize;
                let mut acc = 0.0;
                for k in lo..hi {
                    acc += self.values[k] * x[self.col_idx[k] as usize];
                }
                *yi = acc;
            }
        });
    }

    /// Returns `A + D` where `D` is a diagonal given as a vector (used to
    /// form the backward-Euler operator `G + C/dt`).
    ///
    /// # Panics
    ///
    /// Panics if `diag.len() != dim()`.
    pub fn add_diagonal(&self, diag: &[f64]) -> CsrMatrix {
        assert_eq!(diag.len(), self.n);
        let mut t = TripletMatrix::new(self.n);
        for (i, d) in diag.iter().enumerate() {
            for (c, v) in self.row(i) {
                t.add(i, c, v);
            }
            t.add(i, i, *d);
        }
        t.to_csr()
    }

    /// Checks symmetry within a relative tolerance (debug aid).
    pub fn is_symmetric(&self, rel_tol: f64) -> bool {
        for i in 0..self.n {
            for (j, v) in self.row(i) {
                let vt = self.row(j).find(|&(c, _)| c == i).map_or(0.0, |(_, v)| v);
                let scale = v.abs().max(vt.abs()).max(1e-300);
                if (v - vt).abs() / scale > rel_tol {
                    return false;
                }
            }
        }
        true
    }
}

/// Which algorithm produced a [`SolveStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMethod {
    /// Jacobi-preconditioned conjugate gradient.
    Cg,
    /// Conjugate gradient preconditioned by a geometric multigrid V-cycle
    /// ([`crate::multigrid::Multigrid`]).
    MgCg,
    /// Sparse LDLᵀ direct factorization ([`crate::cholesky::LdlFactor`]).
    Ldlt,
    /// Green's-function spectral evaluation ([`crate::greens`]): fast cosine
    /// transforms against a precomputed unit-source response.
    Spectral,
}

impl SolveMethod {
    /// Short lowercase label for telemetry output.
    pub fn label(self) -> &'static str {
        match self {
            Self::Cg => "cg",
            Self::MgCg => "mg-cg",
            Self::Ldlt => "ldlt",
            Self::Spectral => "spectral",
        }
    }
}

/// Outcome of one linear solve, iterative or direct.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    /// Which solver ran.
    pub method: SolveMethod,
    /// Iterations used (CG iterations; iterative-refinement count for
    /// direct solves, usually 0).
    pub iterations: usize,
    /// Final relative residual `‖b − A·x‖ / ‖b‖`.
    pub relative_residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Seconds spent factorizing the operator — charged to the solve that
    /// triggered the factorization, 0.0 when a cached factor was reused or
    /// the method is iterative.
    pub factor_seconds: f64,
    /// Stored non-zeros of the factor `L` (including the unit diagonal);
    /// 0 for iterative methods.
    pub factor_nnz: usize,
    /// Number of solves performed against the same operator so far,
    /// including this one (direct steppers amortize one factorization over
    /// many solves; iterative solves always report 1).
    pub solve_count: usize,
    /// Threads the solve's parallel kernels could dispatch on (the size of
    /// the active [`pool`]); 1 for fully serial solves. Results are bitwise
    /// identical at any value — see the [`pool`] module docs.
    pub threads: usize,
    /// Whether the solve started from a previously computed solution instead
    /// of a cold (all-ambient or zero) initial guess. Set by the layers that
    /// manage warm-start caches (e.g. `ThermalModel::steady_state`).
    pub warm_start: bool,
    /// Per-level multigrid telemetry when the solve was preconditioned by a
    /// V-cycle ([`SolveMethod::MgCg`]); `None` otherwise.
    pub multigrid: Option<crate::multigrid::MgStats>,
}

impl SolveStats {
    /// Stats for an iterative solve (no factorization to report).
    pub fn iterative(
        method: SolveMethod,
        iterations: usize,
        relative_residual: f64,
        converged: bool,
    ) -> Self {
        Self {
            method,
            iterations,
            relative_residual,
            converged,
            factor_seconds: 0.0,
            factor_nnz: 0,
            solve_count: 1,
            threads: 1,
            warm_start: false,
            multigrid: None,
        }
    }

    /// Returns the stats with the thread count recorded.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Jacobi-preconditioned conjugate gradient for SPD systems.
///
/// Solves `A·x = b`, starting from the provided `x` (warm start). Returns
/// solve statistics; `x` holds the solution on return.
///
/// # Panics
///
/// Panics if dimensions disagree or the matrix has a non-positive diagonal
/// entry (which would mean a floating node in the thermal network).
///
/// # Examples
///
/// ```
/// use hotiron_thermal::sparse::{TripletMatrix, conjugate_gradient};
///
/// let mut t = TripletMatrix::new(2);
/// t.add(0, 0, 4.0);
/// t.add(1, 1, 3.0);
/// t.add(0, 1, 1.0);
/// t.add(1, 0, 1.0);
/// let a = t.to_csr();
/// let mut x = vec![0.0; 2];
/// let stats = conjugate_gradient(&a, &[1.0, 2.0], &mut x, 1e-12, 100);
/// assert!(stats.converged);
/// assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-9);
/// ```
pub fn conjugate_gradient(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    rel_tol: f64,
    max_iter: usize,
) -> SolveStats {
    let n = a.dim();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let mut inv_diag = vec![0.0; n];
    for (i, slot) in inv_diag.iter_mut().enumerate() {
        let d = a.diagonal(i);
        assert!(d > 0.0, "node {i} has non-positive diagonal {d}: floating node?");
        *slot = 1.0 / d;
    }
    let pool = pool::current();
    let jacobi = |r: &[f64], z: &mut [f64]| {
        pool::fill_chunks(&pool, z, |_, start, chunk| {
            for (k, zi) in chunk.iter_mut().enumerate() {
                *zi = r[start + k] * inv_diag[start + k];
            }
        });
    };
    let (iterations, residual, converged) =
        pcg(|v, out| a.mul_vec_into(v, out), jacobi, b, x, rel_tol, max_iter);
    SolveStats::iterative(SolveMethod::Cg, iterations, residual, converged)
        .with_threads(pool.threads())
}

/// The preconditioned conjugate-gradient recurrence behind
/// [`conjugate_gradient`] (Jacobi) and [`crate::multigrid::mg_pcg`]
/// (one V-cycle): `apply(v, out)` writes `A·v`, `precondition(r, z)` writes
/// `z ≈ A⁻¹·r`. Starts from `x` (warm start) and leaves the iterate there.
///
/// Returns `(iterations, relative residual, converged)`. A zero right-hand
/// side zeroes `x` and converges at once; a non-positive curvature `pᵀ·A·p`
/// (numerical breakdown) stops with `converged = false` and the last
/// residual. The preconditioner first runs only once the warm start misses
/// the tolerance. Every vector update runs on the [`pool`] with its fixed
/// chunking, so results are bitwise identical at any thread count.
pub(crate) fn pcg(
    apply: impl Fn(&[f64], &mut [f64]),
    mut precondition: impl FnMut(&[f64], &mut [f64]),
    b: &[f64],
    x: &mut [f64],
    rel_tol: f64,
    max_iter: usize,
) -> (usize, f64, bool) {
    let n = b.len();
    let pool = pool::current();
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        x.iter_mut().for_each(|v| *v = 0.0);
        return (0, 0.0, true);
    }

    let mut r = vec![0.0; n];
    apply(x, &mut r);
    pool::fill_chunks(&pool, &mut r, |_, start, chunk| {
        for (k, ri) in chunk.iter_mut().enumerate() {
            *ri = b[start + k] - *ri;
        }
    });
    let mut res = norm2(&r) / b_norm;
    if res <= rel_tol {
        return (0, res, true);
    }

    let mut z = vec![0.0; n];
    precondition(&r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];

    for it in 1..=max_iter {
        apply(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            // Numerical breakdown; report divergence.
            return (it, res, false);
        }
        let alpha = rz / pap;
        pool::fill_chunks2(&pool, x, &mut r, |_, start, xc, rc| {
            for (k, (xi, ri)) in xc.iter_mut().zip(rc.iter_mut()).enumerate() {
                let i = start + k;
                *xi += alpha * p[i];
                *ri -= alpha * ap[i];
            }
        });
        res = norm2(&r) / b_norm;
        if res <= rel_tol {
            return (it, res, true);
        }
        precondition(&r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        pool::fill_chunks(&pool, &mut p, |_, start, chunk| {
            for (k, pi) in chunk.iter_mut().enumerate() {
                *pi = z[start + k] + beta * *pi;
            }
        });
    }
    (max_iter, res, false)
}

/// Reverse Cuthill–McKee fill-reducing ordering, with hub rows set aside.
///
/// Returns a permutation `perm` with `perm[new] = old`: the node that lands
/// at position `new` in the reordered matrix. On mesh-like graphs (thermal RC
/// grids) this concentrates the profile near the diagonal, which keeps the
/// LDLᵀ factor in [`crate::cholesky`] close to banded and cuts fill-in by an
/// order of magnitude versus natural ordering.
///
/// The algorithm is the classic one: pick a minimum-degree start node per
/// connected component (a cheap pseudo-peripheral heuristic), BFS visiting
/// neighbors in ascending-degree order, then reverse the whole sequence.
/// Disconnected components are handled by restarting from the unvisited node
/// of minimum degree.
///
/// Hub rows are kept out of the BFS and appended last, in ascending degree
/// (ties by index). A hub is a row whose degree (stored entries, diagonal
/// included) exceeds `max(⌊√n⌋, 4 × median degree)`. A hub coupled to a
/// whole layer — AIR-SINK's lumped convection node, the spreader and sink
/// perimeter rings — would otherwise pull every cell it touches into one BFS
/// level and widen the profile to the layer size; eliminated last, it only
/// adds its own dense row to `L`. The two terms of the threshold:
///
/// - `⌊√n⌋` catches the perimeter rings: a ring around a `g × g` layer has
///   degree ≈ `4g`, while `√n ≈ g·√layers` stays below that for fewer than
///   16 layers.
/// - `4 × median degree` keeps stencil rows from counting as hubs: the 9- to
///   27-point rows of the multigrid Galerkin coarse operators sit near the
///   median of their own matrix, however small `n` is.
///
/// A matrix with no hub (every OIL-SILICON stack) gets the plain RCM order.
pub fn reverse_cuthill_mckee(a: &CsrMatrix) -> Vec<usize> {
    let n = a.dim();
    let degree: Vec<usize> = (0..n).map(|i| a.row(i).count()).collect();
    let mut sorted = degree.clone();
    let median = if n == 0 { 0 } else { *sorted.select_nth_unstable(n / 2).1 };
    let hub_degree = n.isqrt().max(4 * median);
    let mut hubs: Vec<usize> = (0..n).filter(|&i| degree[i] > hub_degree).collect();
    hubs.sort_by_key(|&i| degree[i]);
    let mut order: Vec<usize> = Vec::with_capacity(n);
    // Hubs start out visited, so the BFS below never enters them.
    let mut visited = vec![false; n];
    for &h in &hubs {
        visited[h] = true;
    }
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut neighbors: Vec<usize> = Vec::new();
    while order.len() + hubs.len() < n {
        // Unvisited node of minimum degree starts the next component.
        let start = (0..n)
            .filter(|&i| !visited[i])
            .min_by_key(|&i| degree[i])
            .expect("order.len() + hubs.len() < n implies an unvisited node exists");
        visited[start] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            neighbors.clear();
            neighbors.extend(a.row(u).map(|(j, _)| j).filter(|&j| !visited[j]));
            neighbors.sort_unstable_by_key(|&j| degree[j]);
            for &j in &neighbors {
                visited[j] = true;
                queue.push_back(j);
            }
        }
    }
    order.reverse();
    order.extend(hubs);
    order
}

/// Dot product via the deterministic fixed-chunk partial-sum tree: partials
/// are computed per [`pool::CHUNK`]-sized chunk (in parallel when the vector
/// is long enough) and summed in ascending chunk order, so the grouping —
/// and thus the floating-point result — depends only on the length, never on
/// the thread count. Shared with [`crate::multigrid`]'s preconditioned CG so
/// both solvers inherit the same bitwise-determinism guarantee.
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    let pool = pool::current();
    pool::det_sum_of(&pool, a.len().min(b.len()), |lo, hi| {
        a[lo..hi].iter().zip(&b[lo..hi]).map(|(x, y)| x * y).sum()
    })
}

pub(crate) fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        // Tridiagonal [-1, 2, -1] plus a ground at both ends: SPD.
        let mut t = TripletMatrix::new(n);
        for i in 0..n {
            t.add(i, i, 2.0);
            if i + 1 < n {
                t.add(i, i + 1, -1.0);
                t.add(i + 1, i, -1.0);
            }
        }
        t.to_csr()
    }

    #[test]
    fn csr_conversion_sums_duplicates() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 1.0);
        t.add(0, 0, 2.5);
        t.add(1, 0, -1.0);
        let m = t.to_csr();
        assert_eq!(m.diagonal(0), 3.5);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn csr_handles_empty_rows() {
        let mut t = TripletMatrix::new(4);
        t.add(0, 0, 1.0);
        t.add(3, 3, 1.0);
        let m = t.to_csr();
        assert_eq!(m.row(1).count(), 0);
        assert_eq!(m.row(2).count(), 0);
        let y = m.mul_vec(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y, vec![1.0, 0.0, 0.0, 4.0]);
    }

    #[test]
    fn stamp_conductance_is_symmetric() {
        let mut t = TripletMatrix::new(3);
        t.stamp_conductance(0, 1, 2.0);
        t.stamp_conductance(1, 2, 0.5);
        t.stamp_grounded_conductance(2, 1.0);
        let m = t.to_csr();
        assert!(m.is_symmetric(1e-12));
        // Row sums: grounded node keeps positive row sum.
        let ones = vec![1.0; 3];
        let y = m.mul_vec(&ones);
        assert!((y[0]).abs() < 1e-12);
        assert!((y[1]).abs() < 1e-12);
        assert!((y[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cg_solves_laplacian() {
        let n = 200;
        let a = laplacian_1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = conjugate_gradient(&a, &b, &mut x, 1e-10, 10 * n);
        assert!(stats.converged, "{stats:?}");
        let ax = a.mul_vec(&x);
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-6);
        }
    }

    #[test]
    fn cg_warm_start_uses_fewer_iterations() {
        let n = 300;
        let a = laplacian_1d(n);
        let b = vec![1.0; n];
        let mut x_cold = vec![0.0; n];
        let cold = conjugate_gradient(&a, &b, &mut x_cold, 1e-10, 10 * n);
        // Warm start at the solution: immediate convergence.
        let mut x_warm = x_cold.clone();
        let warm = conjugate_gradient(&a, &b, &mut x_warm, 1e-8, 10 * n);
        assert_eq!(warm.iterations, 0, "cold {cold:?} warm {warm:?}");
        assert!(cold.iterations > 0);
    }

    #[test]
    fn cg_zero_rhs_returns_zero() {
        let a = laplacian_1d(10);
        let mut x = vec![5.0; 10];
        let stats = conjugate_gradient(&a, &[0.0; 10], &mut x, 1e-12, 100);
        assert!(stats.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn add_diagonal_changes_only_diagonal() {
        let a = laplacian_1d(5);
        let d = vec![10.0; 5];
        let b = a.add_diagonal(&d);
        for i in 0..5 {
            assert!((b.diagonal(i) - (a.diagonal(i) + 10.0)).abs() < 1e-12);
        }
        assert_eq!(b.nnz(), a.nnz());
    }

    #[test]
    fn rcm_is_a_permutation() {
        for a in [laplacian_1d(37), layered_grid_with_hubs(10, 3).0] {
            let perm = reverse_cuthill_mckee(&a);
            let mut seen = vec![false; a.dim()];
            for &p in &perm {
                assert!(!seen[p], "duplicate index {p}");
                seen[p] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_path() {
        // A path graph whose nodes are scattered (stride permutation) has a
        // huge bandwidth under natural order; RCM should recover ~1.
        let n = 101;
        let scatter: Vec<usize> = (0..n).map(|i| (i * 37) % n).collect();
        let mut t = TripletMatrix::new(n);
        for i in 0..n {
            t.add(scatter[i], scatter[i], 2.0);
            if i + 1 < n {
                t.stamp_conductance(scatter[i], scatter[i + 1], 1.0);
            }
        }
        let a = t.to_csr();
        let bandwidth = |perm: &[usize]| -> usize {
            let mut inv = vec![0usize; n];
            for (new, &old) in perm.iter().enumerate() {
                inv[old] = new;
            }
            (0..n)
                .flat_map(|i| a.row(i).map(move |(j, _)| (i, j)))
                .map(|(i, j)| inv[i].abs_diff(inv[j]))
                .max()
                .unwrap_or(0)
        };
        let natural: Vec<usize> = (0..n).collect();
        let rcm = reverse_cuthill_mckee(&a);
        assert!(bandwidth(&natural) > 10);
        assert!(bandwidth(&rcm) <= 2, "rcm bandwidth {}", bandwidth(&rcm));
    }

    #[test]
    fn rcm_handles_disconnected_components() {
        // Two disjoint triangles.
        let mut t = TripletMatrix::new(6);
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            t.stamp_conductance(a, b, 1.0);
        }
        let perm = reverse_cuthill_mckee(&t.to_csr());
        let mut seen = [false; 6];
        for &p in &perm {
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// `layers` stacked `g × g` grids (5-point in-layer stencil, vertical
    /// links between layers), a ring node coupled to the perimeter of the
    /// middle layer, and a convection hub coupled to every top-layer cell.
    /// Returns the matrix and the indices of the ring and the hub.
    pub(crate) fn layered_grid_with_hubs(g: usize, layers: usize) -> (CsrMatrix, usize, usize) {
        let cell = |l: usize, r: usize, c: usize| (l * g + r) * g + c;
        let (ring, hub) = (layers * g * g, layers * g * g + 1);
        let mut t = TripletMatrix::new(layers * g * g + 2);
        for l in 0..layers {
            for r in 0..g {
                for c in 0..g {
                    let i = cell(l, r, c);
                    if c + 1 < g {
                        t.stamp_conductance(i, cell(l, r, c + 1), 1.0);
                    }
                    if r + 1 < g {
                        t.stamp_conductance(i, cell(l, r + 1, c), 1.0);
                    }
                    if l + 1 < layers {
                        t.stamp_conductance(i, cell(l + 1, r, c), 1.0);
                    }
                    if l == layers / 2 && (r == 0 || c == 0 || r + 1 == g || c + 1 == g) {
                        t.stamp_conductance(i, ring, 1.0);
                    }
                    if l + 1 == layers {
                        t.stamp_conductance(i, hub, 1.0);
                    }
                }
            }
        }
        t.stamp_grounded_conductance(hub, 1.0);
        (t.to_csr(), ring, hub)
    }

    #[test]
    fn rcm_orders_hubs_last_by_ascending_degree() {
        let (a, ring, hub) = layered_grid_with_hubs(10, 3);
        let perm = reverse_cuthill_mckee(&a);
        // The ring (degree 37) precedes the hub (degree 101).
        assert_eq!(perm[a.dim() - 2..], [ring, hub]);
    }

    #[test]
    fn rcm_keeps_plain_order_without_hubs() {
        // A 4×3 grid with one grounded corner has no hub, so it keeps the
        // plain RCM order exactly.
        let (nx, ny) = (4, 3);
        let mut t = TripletMatrix::new(nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                let i = y * nx + x;
                if x + 1 < nx {
                    t.stamp_conductance(i, i + 1, 1.0);
                }
                if y + 1 < ny {
                    t.stamp_conductance(i, i + nx, 1.0);
                }
            }
        }
        t.stamp_grounded_conductance(0, 1.0);
        let perm = reverse_cuthill_mckee(&t.to_csr());
        assert_eq!(perm, [11, 10, 7, 9, 6, 3, 8, 5, 2, 4, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplet_bounds_checked() {
        let mut t = TripletMatrix::new(2);
        t.add(2, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-positive diagonal")]
    fn cg_rejects_floating_node() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 1.0);
        // Node 1 has no diagonal: floating.
        let a = t.to_csr();
        let mut x = vec![0.0; 2];
        let _ = conjugate_gradient(&a, &[1.0, 1.0], &mut x, 1e-10, 10);
    }
}
