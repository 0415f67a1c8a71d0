//! Sparse LDLᵀ (Cholesky) direct factorization for the SPD operators of
//! thermal RC networks.
//!
//! The backward-Euler operator `C/dt + G` is fixed for a whole transient run,
//! so factoring it once and back-substituting per step beats re-running
//! conjugate gradient every step by a wide margin on the grids this crate
//! cares about (a 32×32 OIL-SILICON grid is ~2k nodes). The implementation
//! follows the classic up-looking algorithm of Davis's `ldl.c` (elimination
//! tree and column counts in a [`Symbolic`] analysis, then a per-column
//! pattern walk in the numeric pass), adapted to this crate's CSR
//! storage: since the assembled matrices are symmetric, CSR row `k` doubles
//! as CSC column `k`, and a fill-reducing permutation is applied by mapping
//! indices through [`crate::sparse::reverse_cuthill_mckee`] on the fly. That
//! ordering eliminates hub rows last — AIR-SINK's lumped convection node and
//! its spreader/sink ring nodes, each coupled to a whole layer — so they add
//! one dense row each to `L` instead of widening the profile of every
//! column (fig6's AIR-SINK operator factors to 161,328 entries, against
//! 980,874 with the hubs inside the sweep).
//!
//! No pivoting is performed — none is needed: factorization fails with
//! [`FactorError::NonPositivePivot`] exactly when the matrix is not positive
//! definite, which for a thermal circuit means a floating node or a sign
//! error upstream, and callers fall back to CG for diagnosis.
//!
//! Besides the transient stepper, this factorization is the coarsest-level
//! solver of the geometric multigrid hierarchy
//! ([`crate::multigrid::Multigrid`]): the V-cycle agglomerates the grid down
//! to a few hundred unknowns and solves that level exactly via
//! [`LdlFactor::solve_with_scratch`], which keeps the whole preconditioner
//! symmetric positive definite.
//!
//! # Examples
//!
//! ```
//! use hotiron_thermal::cholesky::LdlFactor;
//! use hotiron_thermal::sparse::TripletMatrix;
//!
//! let mut t = TripletMatrix::new(3);
//! t.stamp_conductance(0, 1, 2.0);
//! t.stamp_conductance(1, 2, 0.5);
//! t.stamp_grounded_conductance(2, 1.0);
//! let a = t.to_csr();
//! let f = LdlFactor::factor(&a).unwrap();
//! let x = f.solve(&[1.0, 0.0, 0.0]);
//! let ax = a.mul_vec(&x);
//! assert!((ax[0] - 1.0).abs() < 1e-12 && ax[1].abs() < 1e-12);
//! ```

use std::fmt;
use std::mem::size_of;
use std::time::Instant;

use crate::sparse::{reverse_cuthill_mckee, CsrMatrix};

/// Why a factorization attempt failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FactorError {
    /// The pivot `D[k]` for the given (original, pre-permutation) node index
    /// was not strictly positive: the matrix is not positive definite.
    NonPositivePivot {
        /// Original node index whose elimination produced the bad pivot.
        index: usize,
        /// The offending pivot value.
        value: f64,
    },
}

impl fmt::Display for FactorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonPositivePivot { index, value } => write!(
                f,
                "non-positive pivot {value:e} at node {index}: matrix is not positive definite \
                 (floating node or sign error in assembly?)"
            ),
        }
    }
}

impl std::error::Error for FactorError {}

/// A sparse LDLᵀ factorization `P·A·Pᵀ = L·D·Lᵀ` of an SPD matrix.
///
/// `L` is unit lower triangular stored by columns, `D` a positive diagonal,
/// and `P` a fill-reducing permutation. Solves cost two sweeps over the
/// non-zeros of `L` plus a diagonal scale — no iteration, no tolerance.
#[derive(Debug, Clone)]
pub struct LdlFactor {
    n: usize,
    /// `perm[new] = old` — row/column of `A` placed at position `new`.
    perm: Vec<usize>,
    /// Column pointers of `L` (length `n + 1`).
    lp: Vec<usize>,
    /// Row indices of the strictly-lower entries of `L`, by column.
    li: Vec<u32>,
    /// Values matching `li`.
    lx: Vec<f64>,
    /// The diagonal `D` (all entries strictly positive).
    d: Vec<f64>,
    /// Wall-clock seconds the symbolic + numeric factorization took.
    factor_seconds: f64,
}

/// The symbolic analysis of an LDLᵀ factorization: everything that depends
/// on the sparsity pattern of `A` alone — the fill-reducing ordering, the
/// elimination tree and the column counts of `L` — and so what the numeric
/// factor will cost before paying for it.
///
/// It costs O(nnz(L)) integer work and no floating point, so it can size a
/// factor whose numeric phase would take minutes; [`solve_steady`] reads
/// [`bytes`](Self::bytes) to decide whether a direct solve is affordable,
/// and [`LdlFactor::from_symbolic`] reuses the analysis instead of redoing
/// it.
///
/// [`solve_steady`]: crate::solve::solve_steady
///
/// # Examples
///
/// ```
/// use hotiron_thermal::cholesky::{LdlFactor, Symbolic};
/// use hotiron_thermal::sparse::TripletMatrix;
///
/// let mut t = TripletMatrix::new(3);
/// t.stamp_conductance(0, 1, 2.0);
/// t.stamp_conductance(1, 2, 0.5);
/// t.stamp_grounded_conductance(2, 1.0);
/// let a = t.to_csr();
/// let sym = Symbolic::new(&a);
/// let f = LdlFactor::from_symbolic(&a, &sym).unwrap();
/// assert_eq!(sym.nnz_l(), f.nnz_l());
/// ```
#[derive(Debug, Clone)]
pub struct Symbolic {
    /// `perm[new] = old` — row/column of `A` placed at position `new`.
    perm: Vec<usize>,
    /// Elimination tree: `parent[k]` is the parent of column `k`
    /// (`usize::MAX` at a root).
    parent: Vec<usize>,
    /// Column pointers of the strictly-lower part of `L` (length `n + 1`),
    /// the prefix sums of the column counts.
    lp: Vec<usize>,
    /// Floating-point operations of the numeric phase.
    flops: f64,
    /// Wall-clock seconds the ordering and analysis took.
    seconds: f64,
}

impl Symbolic {
    /// Analyzes `a` under the reverse Cuthill–McKee ordering of
    /// [`reverse_cuthill_mckee`], which places hub rows (rows coupled to a
    /// whole layer) last.
    pub fn new(a: &CsrMatrix) -> Self {
        let start = Instant::now();
        Self::analyze(a, reverse_cuthill_mckee(a), start)
    }

    /// Analyzes `a` under a caller-supplied permutation (`perm[new] = old`).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..a.dim()`.
    pub fn with_ordering(a: &CsrMatrix, perm: Vec<usize>) -> Self {
        Self::analyze(a, perm, Instant::now())
    }

    /// The elimination tree and column counts of `P·A·Pᵀ`, timed from
    /// `start`.
    fn analyze(a: &CsrMatrix, perm: Vec<usize>, start: Instant) -> Self {
        let n = a.dim();
        let iperm = inverse_permutation(&perm, n);
        let mut parent = vec![usize::MAX; n];
        let mut flag = vec![usize::MAX; n];
        let mut lnz = vec![0usize; n];
        for k in 0..n {
            flag[k] = k;
            for (i, _) in upper_col(a, &perm, &iperm, k) {
                let mut i = i;
                while flag[i] != k {
                    if parent[i] == usize::MAX {
                        parent[i] = k;
                    }
                    lnz[i] += 1;
                    flag[i] = k;
                    i = parent[i];
                }
            }
        }
        let mut lp = vec![0usize; n + 1];
        for k in 0..n {
            lp[k + 1] = lp[k] + lnz[k];
        }
        // One multiply and one add per update of a stored entry.
        let flops = lnz.iter().map(|&c| c as f64 * (c as f64 + 1.0)).sum();
        Self { perm, parent, lp, flops, seconds: start.elapsed().as_secs_f64() }
    }

    /// Stored non-zeros the factor's `L` will hold, including the implicit
    /// unit diagonal (what [`LdlFactor::nnz_l`] reports).
    pub fn nnz_l(&self) -> usize {
        let n = self.perm.len();
        self.lp[n] + n
    }

    /// Floating-point operations of the numeric factorization.
    pub fn flops(&self) -> f64 {
        self.flops
    }

    /// Heap bytes the numeric factor will hold: 12 B per strictly-lower
    /// entry of `L` (a `u32` row index and an `f64` value) plus its O(n)
    /// arrays (the permutation, column pointers and diagonal).
    pub fn bytes(&self) -> usize {
        let n = self.perm.len();
        let entry = size_of::<u32>() + size_of::<f64>();
        let column = 2 * size_of::<usize>() + size_of::<f64>();
        self.lp[n] * entry + n * column + size_of::<usize>()
    }
}

/// `iperm[old] = new` for `perm[new] = old`.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..n`.
fn inverse_permutation(perm: &[usize], n: usize) -> Vec<usize> {
    assert_eq!(perm.len(), n, "permutation length must equal matrix dimension");
    let mut iperm = vec![usize::MAX; n];
    for (new, &old) in perm.iter().enumerate() {
        assert!(old < n && iperm[old] == usize::MAX, "perm is not a permutation");
        iperm[old] = new;
    }
    iperm
}

/// Column `k` of the permuted upper triangle, read through the CSR rows: `A`
/// is symmetric, so row `perm[k]` of `A` holds column `k` of `P·A·Pᵀ` once
/// its indices are mapped through `iperm` and filtered to new-index ≤ `k`.
fn upper_col<'a>(
    a: &'a CsrMatrix,
    perm: &'a [usize],
    iperm: &'a [usize],
    k: usize,
) -> impl Iterator<Item = (usize, f64)> + 'a {
    a.row(perm[k]).filter_map(move |(old_j, v)| {
        let i = iperm[old_j];
        (i <= k).then_some((i, v))
    })
}

impl LdlFactor {
    /// Factors `a` using the reverse Cuthill–McKee fill-reducing ordering of
    /// [`reverse_cuthill_mckee`], which places hub rows (rows coupled to a
    /// whole layer) last.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::NonPositivePivot`] if `a` is not positive
    /// definite.
    ///
    /// # Panics
    ///
    /// Panics if `a` is structurally asymmetric enough that an upper-triangle
    /// entry has no mirrored lower entry; assembled RC matrices are exactly
    /// symmetric so this indicates a caller bug.
    pub fn factor(a: &CsrMatrix) -> Result<Self, FactorError> {
        Self::from_symbolic(a, &Symbolic::new(a))
    }

    /// Factors `a` under a caller-supplied permutation (`perm[new] = old`).
    ///
    /// Useful for testing orderings against each other; most callers want
    /// [`LdlFactor::factor`].
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::NonPositivePivot`] if `a` is not positive
    /// definite.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..a.dim()`.
    pub fn factor_with_ordering(a: &CsrMatrix, perm: Vec<usize>) -> Result<Self, FactorError> {
        Self::from_symbolic(a, &Symbolic::with_ordering(a, perm))
    }

    /// The numeric factorization of `a` under an analysis of its pattern,
    /// so a caller that already sized the factor does not analyze twice.
    /// [`factor_seconds`](Self::factor_seconds) includes the analysis time.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::NonPositivePivot`] if `a` is not positive
    /// definite.
    ///
    /// # Panics
    ///
    /// Panics if `symbolic` was built for a matrix of another dimension.
    pub fn from_symbolic(a: &CsrMatrix, symbolic: &Symbolic) -> Result<Self, FactorError> {
        let start = Instant::now();
        let n = a.dim();
        let Symbolic { perm, parent, lp, .. } = symbolic;
        let iperm = inverse_permutation(perm, n);
        let total_nnz = lp[n];

        // Numeric pass (up-looking): for each column k, scatter column k of A
        // into the dense workspace Y, replay the pattern in elimination-tree
        // order, and emit row k of L (== column entries of earlier columns).
        let mut li = vec![0u32; total_nnz];
        let mut lx = vec![0.0f64; total_nnz];
        let mut d = vec![0.0f64; n];
        let mut y = vec![0.0f64; n];
        let mut pattern = vec![0usize; n];
        let mut fill = vec![0usize; n]; // entries emitted so far per column
        let mut flag = vec![usize::MAX; n];
        for k in 0..n {
            let mut top = n;
            flag[k] = k;
            for (i, v) in upper_col(a, perm, &iperm, k) {
                y[i] += v;
                let mut len = 0;
                let mut i = i;
                while flag[i] != k {
                    pattern[len] = i;
                    len += 1;
                    flag[i] = k;
                    i = parent[i];
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    pattern[top] = pattern[len];
                }
            }
            d[k] = y[k];
            y[k] = 0.0;
            for &i in &pattern[top..n] {
                let yi = y[i];
                y[i] = 0.0;
                let p2 = lp[i] + fill[i];
                for p in lp[i]..p2 {
                    y[li[p] as usize] -= lx[p] * yi;
                }
                let l_ki = yi / d[i];
                d[k] -= l_ki * yi;
                li[p2] = k as u32;
                lx[p2] = l_ki;
                fill[i] += 1;
            }
            // `<=` plus an explicit NaN test (rather than `!(d > 0)`) so a
            // poisoned pivot is rejected, not silently divided by.
            if d[k] <= 0.0 || d[k].is_nan() {
                return Err(FactorError::NonPositivePivot { index: perm[k], value: d[k] });
            }
        }

        let factor_seconds = symbolic.seconds + start.elapsed().as_secs_f64();
        Ok(Self { n, perm: perm.clone(), lp: lp.clone(), li, lx, d, factor_seconds })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored non-zeros of `L`, including the implicit unit diagonal.
    pub fn nnz_l(&self) -> usize {
        self.lx.len() + self.n
    }

    /// Wall-clock seconds spent factorizing.
    pub fn factor_seconds(&self) -> f64 {
        self.factor_seconds
    }

    /// Solves `A·x = b`, allocating the result.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A·x = b` into a caller-provided buffer (`b` and `x` may not
    /// alias; `x`'s prior contents are ignored).
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from `dim()`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let mut y = vec![0.0; self.n];
        self.solve_with_scratch(b, x, &mut y);
    }

    /// [`solve_into`] with a caller-provided scratch vector, for hot loops
    /// that solve against the same factor thousands of times and want zero
    /// allocations per call. `scratch` is resized to `dim()` as needed; its
    /// contents are ignored and overwritten.
    ///
    /// [`solve_into`]: LdlFactor::solve_into
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` differs from `dim()`.
    pub fn solve_with_scratch(&self, b: &[f64], x: &mut [f64], scratch: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n);
        assert_eq!(x.len(), self.n);
        scratch.resize(self.n, 0.0);
        let y = &mut scratch[..];
        // Permute: y = P·b.
        for (yi, &old) in y.iter_mut().zip(&self.perm) {
            *yi = b[old];
        }
        let (li, lx) = (&self.li[..], &self.lx[..]);
        // SAFETY invariant for the unchecked `y` accesses below: every entry
        // of `li` is a strictly-lower row index produced by the numeric pass
        // (`li[p2] = k as u32` with `k < n`), and `y` has length `n` (resized
        // above), so `li[p] as usize` is always in bounds.
        // Forward: L·z = y (unit diagonal, columns in order). Column-oriented
        // scatter; slice windows let the compiler drop the li/lx bounds
        // checks.
        for j in 0..self.n {
            let yj = y[j];
            if yj != 0.0 {
                let (lo, hi) = (self.lp[j], self.lp[j + 1]);
                for (&i, &v) in li[lo..hi].iter().zip(&lx[lo..hi]) {
                    // SAFETY: `i < n == y.len()` (see invariant above).
                    unsafe { *y.get_unchecked_mut(i as usize) -= v * yj };
                }
            }
        }
        // Backward: Lᵀ·v = w with the diagonal solve D·w = z fused in
        // (descending j, so every y[i] read below is already final). The dot
        // product runs over four accumulators: a single running sum would
        // serialize on FP-add latency, which dominates this sweep for the
        // short columns RCM produces (≈10 entries on OIL-SILICON grids, ≈70
        // on AIR-SINK stacks).
        for j in (0..self.n).rev() {
            let (lo, hi) = (self.lp[j], self.lp[j + 1]);
            let (idx, vals) = (&li[lo..hi], &lx[lo..hi]);
            let mut acc = [0.0f64; 4];
            let mut ic = idx.chunks_exact(4);
            let mut vc = vals.chunks_exact(4);
            // SAFETY for the four reads: each index comes from `li` (see
            // invariant above).
            for (ii, vv) in (&mut ic).zip(&mut vc) {
                unsafe {
                    acc[0] += vv[0] * y.get_unchecked(ii[0] as usize);
                    acc[1] += vv[1] * y.get_unchecked(ii[1] as usize);
                    acc[2] += vv[2] * y.get_unchecked(ii[2] as usize);
                    acc[3] += vv[3] * y.get_unchecked(ii[3] as usize);
                }
            }
            for (&i, &v) in ic.remainder().iter().zip(vc.remainder()) {
                // SAFETY: `i < n == y.len()` (see invariant above).
                acc[0] += v * unsafe { y.get_unchecked(i as usize) };
            }
            y[j] = y[j] / self.d[j] - (acc[0] + acc[1]) - (acc[2] + acc[3]);
        }
        // Un-permute: x = Pᵀ·v.
        for (&yi, &old) in y.iter().zip(&self.perm) {
            x[old] = yi;
        }
    }
}

#[cfg(test)]
impl LdlFactor {
    /// The numeric pass's operation count, recounted from the columns of
    /// `L` it actually stored.
    pub(crate) fn stored_flops(&self) -> f64 {
        self.lp.windows(2).map(|w| (w[1] - w[0]) as f64).map(|c| c * (c + 1.0)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::tests::layered_grid_with_hubs;
    use crate::sparse::{conjugate_gradient, TripletMatrix};

    fn laplacian_1d(n: usize) -> CsrMatrix {
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

    fn grid_2d(nx: usize, ny: usize) -> CsrMatrix {
        let idx = |x: usize, y: usize| y * nx + x;
        let mut t = TripletMatrix::new(nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    t.stamp_conductance(idx(x, y), idx(x + 1, y), 1.0);
                }
                if y + 1 < ny {
                    t.stamp_conductance(idx(x, y), idx(x, y + 1), 1.0);
                }
                t.stamp_grounded_conductance(idx(x, y), 0.01);
            }
        }
        t.to_csr()
    }

    #[test]
    fn factors_and_solves_identity() {
        let mut t = TripletMatrix::new(4);
        for i in 0..4 {
            t.add(i, i, 1.0);
        }
        let f = LdlFactor::factor(&t.to_csr()).unwrap();
        let b = [3.0, -1.0, 0.5, 2.0];
        assert_eq!(f.solve(&b), b.to_vec());
        assert_eq!(f.nnz_l(), 4); // diagonal only
    }

    #[test]
    fn solves_tridiagonal_exactly() {
        let n = 64;
        let a = laplacian_1d(n);
        let f = LdlFactor::factor(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let x = f.solve(&b);
        let ax = a.mul_vec(&x);
        for (axi, bi) in ax.iter().zip(&b) {
            assert!((axi - bi).abs() < 1e-10, "{axi} vs {bi}");
        }
    }

    #[test]
    fn agrees_with_cg_on_2d_grid() {
        let a = grid_2d(12, 9);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let f = LdlFactor::factor(&a).unwrap();
        let x_direct = f.solve(&b);
        let mut x_cg = vec![0.0; n];
        assert!(conjugate_gradient(&a, &b, &mut x_cg, 1e-13, 10 * n).converged);
        for (u, v) in x_direct.iter().zip(&x_cg) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }

    #[test]
    fn rcm_ordering_reduces_fill_on_grid() {
        let a = grid_2d(16, 16);
        let natural = LdlFactor::factor_with_ordering(&a, (0..a.dim()).collect()).unwrap();
        let rcm = LdlFactor::factor(&a).unwrap();
        assert!(
            rcm.nnz_l() <= natural.nnz_l(),
            "rcm {} vs natural {}",
            rcm.nnz_l(),
            natural.nnz_l()
        );
    }

    #[test]
    fn symbolic_sizes_the_factor_it_feeds() {
        for (label, a) in
            [("1-D Laplacian", laplacian_1d(64)), ("hubs", layered_grid_with_hubs(10, 3).0)]
        {
            let sym = Symbolic::new(&a);
            let f = LdlFactor::from_symbolic(&a, &sym).unwrap();
            assert_eq!(sym.nnz_l(), f.nnz_l(), "{label}");
            assert_eq!(sym.flops(), f.stored_flops(), "{label}");
            assert_eq!(sym.perm, f.perm, "{label}");
            let heap =
                f.li.len() * 4 + (f.lx.len() + f.d.len()) * 8 + (f.perm.len() + f.lp.len()) * 8;
            assert_eq!(sym.bytes(), heap, "{label}");
            assert_eq!(f.nnz_l(), LdlFactor::factor(&a).unwrap().nnz_l(), "{label}");
        }
        // A tridiagonal matrix does not fill: one sub-diagonal entry per
        // column but the last, one multiply-add pair each.
        let sym = Symbolic::new(&laplacian_1d(64));
        assert_eq!((sym.nnz_l(), sym.flops()), (64 + 63, 2.0 * 63.0));
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 1.0);
        t.add(1, 1, -1.0);
        let err = LdlFactor::factor(&t.to_csr()).unwrap_err();
        match err {
            FactorError::NonPositivePivot { index, value } => {
                assert_eq!(index, 1);
                assert!(value < 0.0);
            }
        }
    }

    #[test]
    fn rejects_semidefinite_floating_network() {
        // Pure conductance between two nodes, no ground: singular.
        let mut t = TripletMatrix::new(2);
        t.stamp_conductance(0, 1, 1.0);
        assert!(LdlFactor::factor(&t.to_csr()).is_err());
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = grid_2d(5, 5);
        let f = LdlFactor::factor(&a).unwrap();
        let b: Vec<f64> = (0..25).map(|i| i as f64).collect();
        let mut x = vec![0.0; 25];
        f.solve_into(&b, &mut x);
        assert_eq!(x, f.solve(&b));
    }

    #[test]
    fn factor_telemetry_is_populated() {
        let a = grid_2d(8, 8);
        let f = LdlFactor::factor(&a).unwrap();
        assert_eq!(f.dim(), 64);
        assert!(f.nnz_l() >= 64);
        assert!(f.factor_seconds() >= 0.0);
    }
}
