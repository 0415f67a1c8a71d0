//! Symbolic LDLᵀ analysis: the factor's size and operation count under the
//! same reverse Cuthill–McKee ordering [`hotiron_thermal::LdlFactor`]
//! uses, without the numeric factorization. It costs O(nnz(L)) integer work,
//! so it can count a factor whose numeric phase takes minutes.

use hotiron_thermal::sparse::{reverse_cuthill_mckee, CsrMatrix};

/// Size of a prospective factor.
pub struct FactorShape {
    /// Stored non-zeros of `L` including the unit diagonal, as
    /// `LdlFactor::nnz_l` reports them.
    pub nnz: usize,
    /// Floating-point operations of the up-looking numeric phase (one
    /// multiply and one add per update of a stored entry).
    pub flops: f64,
}

/// Elimination tree and column counts of `P·A·Pᵀ` (the factor's own
/// symbolic pass, reproduced through the public CSR accessors).
pub fn analyze(a: &CsrMatrix) -> FactorShape {
    let n = a.dim();
    let perm = reverse_cuthill_mckee(a);
    let mut iperm = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        iperm[old] = new;
    }
    let mut parent = vec![usize::MAX; n];
    let mut flag = vec![usize::MAX; n];
    let mut lnz = vec![0usize; n];
    for k in 0..n {
        flag[k] = k;
        for (old_j, _) in a.row(perm[k]) {
            let mut i = iperm[old_j];
            if i > k {
                continue;
            }
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
    let strict: usize = lnz.iter().sum();
    let flops = lnz.iter().map(|&c| c as f64 * (c as f64 + 1.0)).sum();
    FactorShape { nnz: strict + n, flops }
}
