//! Spectral backend: precomputed Green's-function response of a laterally
//! uniform [`crate::stack::LayerStack`], evaluated per power map in
//! O(n log n) by fast cosine transforms — steady solves through
//! [`SpectralResponse`], exact-exponential transient stepping through
//! [`SpectralTransient`].
//!
//! # Method
//!
//! For a qualifying stack the assembled cell-block operator is *laterally
//! shift-invariant* with adiabatic (mirror / method-of-images) edges: every
//! cell of a layer has the same x-, y- and vertical conductances and the
//! same boundary-film load. The DCT-II basis `cos(πk(2j+1)/(2N))` — the
//! discrete even extension that the continuous method of images performs
//! with mirrored sources — diagonalizes that operator exactly, so one
//! steady solve becomes:
//!
//! 1. forward 2-D DCT of the power map (rise variables `u = T − T_amb`
//!    make the right-hand side *only* the silicon-layer power, because the
//!    conductance rows sum to the ambient conductances);
//! 2. for each lateral mode `(kc, kr)`, one multiply per layer by the
//!    precomputed unit-source response of that mode;
//! 3. inverse 2-D DCT per layer, then exact back-substitution of the
//!    eliminated per-cell oil nodes and the lumped coolant nodes.
//!
//! Steady and transient share one per-mode operator `K_m` (the layer chain,
//! explicit oil planes for transient, and the lumped coolants in the DC
//! mode, the only mode a uniformly coupled node talks to). Steady solves
//! `K_m·x = e_si` once per mode at build time; transient eigendecomposes
//! the mass-symmetrized `K_m` instead.
//!
//! Per-cell oil nodes with a globally uniform film coefficient are
//! eliminated exactly (`g·g_amb/(g+g_amb)` onto the cell diagonal) for
//! steady solves. The result matches the direct solver to FFT roundoff
//! (~1e-12 K), far inside the cross-backend fuzz tolerance.
//!
//! # Qualification
//!
//! [`SpectralParams::from_circuit`] walks the assembled CSR matrix (not the
//! stack description) and rejects, naming the offending layer:
//!
//! * oversized plates (ring nodes perturb edge-cell rows → not
//!   shift-invariant);
//! * position-dependent oil films (`local_h`: per-cell diagonal varies);
//! * grids whose dimensions are not powers of two (radix-2 transforms);
//! * any structure the walk cannot classify (defense against future
//!   stamping changes — the row-sum identity is re-checked per cell).
//!
//! Responses are cached in the bounded [`ResponseCache`] LRU beside the
//! circuit cache, keyed by a digest of the extracted spectral parameters
//! (which the stack `content_hash()` and grid determine), so repeated
//! solves against the same (stack, grid) pay the plan once.

use crate::circuit::{CacheCounters, NodeKind, ThermalCircuit};
use crate::fft::{Dct2, Dct2Scratch};
use crate::lru::Lru;
use crate::stack::Fnv;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Process-wide response cache capacity (distinct (stack, grid) responses).
pub const RESPONSE_CACHE_CAPACITY: usize = 16;

/// Relative slack when checking that a conductance family is uniform: the
/// assembler computes each family from identical inputs, so bit-identical
/// values are expected and this only absorbs benign last-bit noise.
const UNIFORM_REL_TOL: f64 = 1e-9;

/// Why a circuit does not qualify for the spectral backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ineligible {
    /// Human-readable disqualification, naming the offending layer.
    pub reason: String,
}

impl std::fmt::Display for Ineligible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for Ineligible {}

fn bail(reason: impl Into<String>) -> Ineligible {
    Ineligible { reason: reason.into() }
}

/// One eliminated per-cell oil node: exact back-substitution data.
#[derive(Debug, Clone, PartialEq)]
struct OilNode {
    /// Index in the full state vector.
    node: usize,
    /// The cell it loads (full node index, `< nl·n`).
    cell: usize,
    /// Cell↔oil conductance, W/K.
    g: f64,
    /// Oil↔ambient conductance, W/K.
    g_amb: f64,
}

/// One lumped coolant node, kept exactly as a DC-mode operator slot.
#[derive(Debug, Clone, PartialEq)]
struct CoolantNode {
    /// Index in the full state vector.
    node: usize,
    /// Coolant↔ambient conductance, W/K.
    g_amb: f64,
    /// Per-layer uniform cell↔coolant conductance, W/K per cell.
    couplings: Vec<(usize, f64)>,
}

/// Spectral description of a qualifying circuit, extracted by walking the
/// assembled matrix. Two circuits with equal [`digest`] have identical
/// operators (and identical node numbering, which is deterministic in the
/// grid and layer count), so they can share one [`SpectralResponse`].
///
/// [`digest`]: SpectralParams::digest
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralParams {
    rows: usize,
    cols: usize,
    /// Conduction layers.
    nl: usize,
    /// Layer receiving the power map.
    si_layer: usize,
    /// Per-layer lateral conductances, W/K (0 when the dimension is 1).
    gx: Vec<f64>,
    gy: Vec<f64>,
    /// Inter-layer conductances, W/K (`nl − 1` entries).
    vert: Vec<f64>,
    /// Per-layer uniform extra diagonal: eliminated oil films plus coolant
    /// couplings, W/K per cell.
    diag_extra: Vec<f64>,
    oil: Vec<OilNode>,
    coolants: Vec<CoolantNode>,
    /// Full state-vector length of the source circuit.
    node_count: usize,
}

/// `|a − b| ≤ tol·max(|a|,|b|)`.
fn close_rel(a: f64, b: f64) -> bool {
    (a - b).abs() <= UNIFORM_REL_TOL * a.abs().max(b.abs())
}

/// Records `v` into a uniform-family slot, failing with `what` on mismatch.
fn set_uniform(
    slot: &mut Option<f64>,
    v: f64,
    what: impl Fn() -> String,
) -> Result<(), Ineligible> {
    match slot {
        None => {
            *slot = Some(v);
            Ok(())
        }
        Some(prev) if close_rel(*prev, v) => Ok(()),
        Some(prev) => Err(bail(format!("{} ({prev} W/K vs {v} W/K)", what()))),
    }
}

impl SpectralParams {
    /// Extracts the spectral description of `circuit`, or explains why the
    /// circuit does not qualify.
    ///
    /// # Errors
    ///
    /// [`Ineligible`] naming the disqualifying layer or structure.
    pub fn from_circuit(circuit: &ThermalCircuit) -> Result<Self, Ineligible> {
        if let Some(board) = circuit.board_nodes() {
            return Err(bail(format!(
                "board circuit: {} package(s) couple through the shared PCB plane, which \
                 breaks the lateral shift-invariance the spectral path requires; use the \
                 multigrid or CG solver",
                board.placements.len()
            )));
        }
        let rows = circuit.grid_rows();
        let cols = circuit.grid_cols();
        let n = rows * cols;
        if !rows.is_power_of_two() || !cols.is_power_of_two() {
            return Err(bail(format!(
                "grid {rows}×{cols} is not a power of two in both dimensions \
                 (radix-2 spectral transforms)"
            )));
        }
        let kinds = circuit.node_kinds();
        let names = circuit.layer_names();
        let g = circuit.conductance();
        let amb = circuit.ambient_conductance();
        let layer_name =
            |l: usize| names.get(l).map(String::as_str).unwrap_or("<unknown>").to_owned();

        if let Some(l) = kinds.iter().find_map(|k| match k {
            NodeKind::Ring { layer } => Some(*layer),
            _ => None,
        }) {
            return Err(bail(format!(
                "layer `{}` is an oversized plate: its peripheral ring nodes break lateral \
                 shift-invariance",
                layer_name(l)
            )));
        }

        let cells = kinds.iter().filter(|k| matches!(k, NodeKind::Cell { .. })).count();
        if n == 0 || !cells.is_multiple_of(n) {
            return Err(bail(format!("cannot tile {cells} cell nodes into {rows}×{cols} layers")));
        }
        let nl = cells / n;

        // Boundary nodes: per-cell oil films and lumped coolants.
        let mut oil = Vec::new();
        let mut coolants = Vec::new();
        for (i, kind) in kinds.iter().enumerate() {
            match kind {
                NodeKind::Oil => {
                    let mut neighbors = g.row(i).filter(|&(j, _)| j != i);
                    let (cell, val) =
                        neighbors.next().ok_or_else(|| bail("oil node with no cell coupling"))?;
                    if neighbors.next().is_some() || !matches!(kinds[cell], NodeKind::Cell { .. }) {
                        return Err(bail(
                            "oil node coupled to more than one cell: unrecognized stamping",
                        ));
                    }
                    if amb[i] <= 0.0 || -val <= 0.0 {
                        return Err(bail("oil node with non-positive conductance"));
                    }
                    oil.push(OilNode { node: i, cell, g: -val, g_amb: amb[i] });
                }
                NodeKind::Coolant => {
                    let mut per_layer: HashMap<usize, (f64, usize)> = HashMap::new();
                    for (j, val) in g.row(i).filter(|&(j, _)| j != i) {
                        let NodeKind::Cell { layer } = kinds[j] else {
                            return Err(bail(
                                "coolant coupled to a non-cell node: unrecognized stamping",
                            ));
                        };
                        let gv = -val;
                        let entry = per_layer.entry(layer).or_insert((gv, 0));
                        if !close_rel(entry.0, gv) {
                            return Err(bail(format!(
                                "coolant plate over layer `{}` couples non-uniformly \
                                 ({} W/K vs {gv} W/K per cell)",
                                layer_name(layer),
                                entry.0
                            )));
                        }
                        entry.1 += 1;
                    }
                    let mut couplings = Vec::new();
                    for (layer, (gv, count)) in per_layer {
                        if count != n {
                            return Err(bail(format!(
                                "coolant plate covers {count} of {n} cells of layer `{}`",
                                layer_name(layer)
                            )));
                        }
                        couplings.push((layer, gv));
                    }
                    couplings.sort_by_key(|&(l, _)| l);
                    coolants.push(CoolantNode { node: i, g_amb: amb[i], couplings });
                }
                NodeKind::Cell { .. } | NodeKind::Ring { .. } => {}
            }
        }

        // Cell blocks: extract the uniform lateral / vertical families and
        // re-check the row-sum identity per cell.
        let mut gx: Vec<Option<f64>> = vec![None; nl];
        let mut gy: Vec<Option<f64>> = vec![None; nl];
        let mut vert: Vec<Option<f64>> = vec![None; nl.saturating_sub(1)];
        for l in 0..nl {
            for r in 0..rows {
                for c in 0..cols {
                    let i = l * n + r * cols + c;
                    if !matches!(kinds[i], NodeKind::Cell { layer } if layer == l) {
                        return Err(bail("cell nodes are not layer-major: unrecognized layout"));
                    }
                    if amb[i] != 0.0 {
                        return Err(bail(format!(
                            "cell of layer `{}` is grounded directly: unrecognized stamping",
                            layer_name(l)
                        )));
                    }
                    let mut offsum = 0.0;
                    for (j, val) in g.row(i).filter(|&(j, _)| j != i) {
                        let gv = -val;
                        offsum += gv;
                        let lateral = |axis: &str| {
                            format!(
                                "layer `{}` {axis}-conductance varies across the grid",
                                layer_name(l)
                            )
                        };
                        if c + 1 < cols && j == i + 1 {
                            set_uniform(&mut gx[l], gv, || lateral("x"))?;
                        } else if c > 0 && j == i - 1 {
                            set_uniform(&mut gx[l], gv, || lateral("x"))?;
                        } else if r + 1 < rows && j == i + cols {
                            set_uniform(&mut gy[l], gv, || lateral("y"))?;
                        } else if r > 0 && j == i - cols {
                            set_uniform(&mut gy[l], gv, || lateral("y"))?;
                        } else if l + 1 < nl && j == i + n {
                            set_uniform(&mut vert[l], gv, || {
                                format!(
                                    "vertical conductance `{}`↔`{}` varies across the grid",
                                    layer_name(l),
                                    layer_name(l + 1)
                                )
                            })?;
                        } else if l > 0 && j == i - n {
                            set_uniform(&mut vert[l - 1], gv, || {
                                format!(
                                    "vertical conductance `{}`↔`{}` varies across the grid",
                                    layer_name(l - 1),
                                    layer_name(l)
                                )
                            })?;
                        } else if matches!(kinds[j], NodeKind::Oil | NodeKind::Coolant) {
                            // Captured by the boundary pass (symmetric matrix).
                        } else {
                            return Err(bail(format!(
                                "unclassifiable coupling at cell {i} of layer `{}`",
                                layer_name(l)
                            )));
                        }
                    }
                    let diag = g.diagonal(i);
                    if !close_rel(diag, offsum) {
                        return Err(bail(format!(
                            "cell {i} of layer `{}` breaks the row-sum identity \
                             (diag {diag} vs couplings {offsum})",
                            layer_name(l)
                        )));
                    }
                }
            }
        }

        // Fold the eliminated oil films into per-layer diagonals; a film
        // whose contribution varies per cell (local h) disqualifies.
        let mut oil_diag = vec![0.0f64; nl * n];
        for o in &oil {
            oil_diag[o.cell] += o.g * o.g_amb / (o.g + o.g_amb);
        }
        let mut diag_extra = vec![0.0f64; nl];
        for l in 0..nl {
            let plane = &oil_diag[l * n..(l + 1) * n];
            let first = plane[0];
            if plane.iter().any(|&v| !close_rel(v, first)) {
                return Err(bail(format!(
                    "boundary film on layer `{}` varies per cell (position-dependent h); \
                     the spectral path needs laterally uniform properties",
                    layer_name(l)
                )));
            }
            diag_extra[l] = first;
        }
        for cool in &coolants {
            for &(layer, gv) in &cool.couplings {
                diag_extra[layer] += gv;
            }
        }

        let si_layer = circuit.si_offset() / n;
        Ok(Self {
            rows,
            cols,
            nl,
            si_layer,
            gx: gx.into_iter().map(|v| v.unwrap_or(0.0)).collect(),
            gy: gy.into_iter().map(|v| v.unwrap_or(0.0)).collect(),
            vert: vert
                .into_iter()
                .collect::<Option<Vec<f64>>>()
                .ok_or_else(|| bail("adjacent layers without a vertical coupling"))?,
            diag_extra,
            oil,
            coolants,
            node_count: circuit.node_count(),
        })
    }

    /// Content digest: equal digests ⇒ interchangeable responses.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for v in [self.rows, self.cols, self.nl, self.si_layer] {
            h.usize(v);
        }
        for v in self.gx.iter().chain(&self.gy).chain(&self.vert).chain(&self.diag_extra) {
            h.f64(*v);
        }
        for o in &self.oil {
            h.usize(o.node);
            h.usize(o.cell);
            h.f64(o.g);
            h.f64(o.g_amb);
        }
        for c in &self.coolants {
            h.usize(c.node);
            h.f64(c.g_amb);
            for &(l, gv) in &c.couplings {
                h.usize(l);
                h.f64(gv);
            }
        }
        h.usize(self.node_count);
        h.finish()
    }

    /// Grid cells per layer.
    fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

/// Mode-independent layer diagonal from the vertical couplings alone.
fn vertical_diag(params: &SpectralParams) -> Vec<f64> {
    let nl = params.nl;
    let mut diag = vec![0.0; nl];
    for (l, d) in diag.iter_mut().enumerate() {
        if l > 0 {
            *d += params.vert[l - 1];
        }
        if l + 1 < nl {
            *d += params.vert[l];
        }
    }
    diag
}

/// Builder of the symmetric per-mode operators `K_m` shared by the steady
/// response and the transient stepper. Slots: the layer chain, one pendant
/// slot per explicit oil plane, and — in the DC mode only, the one mode a
/// uniformly coupled lumped node talks to — one slot per lumped coolant in
/// the symmetric variable `v = √n·u_c`.
struct ModeOperator<'a> {
    params: &'a SpectralParams,
    /// Mode-independent layer diagonal.
    diag0: Vec<f64>,
    oil_planes: &'a [OilPlane],
    /// Lateral eigenvalues `4·sin²(πk/2N)` of the mirror-edge Laplacian,
    /// per column and per row mode.
    lam_x: Vec<f64>,
    lam_y: Vec<f64>,
}

impl<'a> ModeOperator<'a> {
    fn new(params: &'a SpectralParams, diag0: Vec<f64>, oil_planes: &'a [OilPlane]) -> Self {
        let lam = |dim: usize| -> Vec<f64> {
            (0..dim)
                .map(|k| {
                    let s = (std::f64::consts::PI * k as f64 / (2.0 * dim as f64)).sin();
                    4.0 * s * s
                })
                .collect()
        };
        Self { params, diag0, oil_planes, lam_x: lam(params.cols), lam_y: lam(params.rows) }
    }

    /// Writes `K_m` for mode `m` (layout of [`Dct2::forward_into`]:
    /// `m = kc·rows + kr`) row-major into `k` and returns its dimension.
    fn write(&self, m: usize, k: &mut [f64]) -> usize {
        let params = self.params;
        let nl = params.nl;
        let lx = self.lam_x[m / params.rows];
        let ly = self.lam_y[m % params.rows];
        let base = nl + self.oil_planes.len();
        let dim = if m == 0 { base + params.coolants.len() } else { base };
        k[..dim * dim].fill(0.0);
        for l in 0..nl {
            k[l * dim + l] = params.gx[l] * lx + params.gy[l] * ly + self.diag0[l];
            if l + 1 < nl {
                k[l * dim + l + 1] = -params.vert[l];
                k[(l + 1) * dim + l] = -params.vert[l];
            }
        }
        for (p, plane) in self.oil_planes.iter().enumerate() {
            let s = nl + p;
            k[s * dim + s] = plane.g + plane.g_amb;
            k[s * dim + plane.layer] = -plane.g;
            k[plane.layer * dim + s] = -plane.g;
        }
        if m == 0 {
            let nn = params.cells() as f64;
            for (j, cool) in params.coolants.iter().enumerate() {
                let t = base + j;
                let mut d = cool.g_amb;
                for &(l, gv) in &cool.couplings {
                    d += gv * nn;
                    k[t * dim + l] = -(gv * nn.sqrt());
                    k[l * dim + t] = k[t * dim + l];
                }
                k[t * dim + t] = d;
            }
        }
        dim
    }
}

/// Solves `K·x = e_col` for the symmetric positive definite `dim×dim`
/// row-major `k` (clobbered) by Gaussian elimination without pivoting,
/// which is stable for SPD matrices.
fn spd_solve_unit(k: &mut [f64], dim: usize, col: usize, x: &mut [f64]) {
    x[..dim].fill(0.0);
    x[col] = 1.0;
    // Each pivot is replaced by its reciprocal once, for both sweeps.
    for p in 0..dim {
        let inv = 1.0 / k[p * dim + p];
        k[p * dim + p] = inv;
        for r in p + 1..dim {
            let f = k[r * dim + p] * inv;
            if f == 0.0 {
                continue;
            }
            for c in p + 1..dim {
                k[r * dim + c] -= f * k[p * dim + c];
            }
            x[r] -= f * x[p];
        }
    }
    for p in (0..dim).rev() {
        let mut acc = x[p];
        for c in p + 1..dim {
            acc -= k[p * dim + c] * x[c];
        }
        x[p] = acc * k[p * dim + p];
    }
}

/// Reusable buffers for [`SpectralResponse::solve_into`]: nothing is
/// allocated on the solve path once this exists.
#[derive(Debug)]
pub struct SpectralScratch {
    /// Spatial planes, layer-major, `nl·n`.
    planes: Vec<f64>,
    /// Spectrum of the power map (transposed mode layout), `n`.
    power: Vec<f64>,
    /// One layer's spectrum, `n` (clobbered by its inverse transform).
    spec: Vec<f64>,
    dct: Dct2Scratch,
}

/// The precomputed unit-source response of one qualifying (stack, grid):
/// transform plans plus, per lateral mode, the response of every layer (and,
/// in the DC mode, every lumped coolant) to unit silicon power. Build once
/// (cached in [`ResponseCache`]), solve any power map in O(n log n).
#[derive(Debug)]
pub struct SpectralResponse {
    params: SpectralParams,
    dct: Dct2,
    /// Per-layer gain planes `x_m[l]` of `K_m·x_m = e_si`, `nl·n`, mode
    /// layout within each plane.
    gain: Vec<f64>,
    /// Coolant rise per unit DC power coefficient, one per coolant.
    coolant_gain: Vec<f64>,
    build_seconds: f64,
}

impl SpectralResponse {
    /// Precomputes the response for `params`.
    pub fn build(params: SpectralParams) -> Self {
        let start = Instant::now();
        let n = params.cells();
        let nl = params.nl;
        // Steady keeps the exact oil fold (`diag_extra`), so the operator
        // carries no pendant slots.
        let mut diag0 = vertical_diag(&params);
        for (d, &extra) in diag0.iter_mut().zip(&params.diag_extra) {
            *d += extra;
        }
        let op = ModeOperator::new(&params, diag0, &[]);
        let stride = nl + params.coolants.len();
        let mut k = vec![0.0; stride * stride];
        let mut x = vec![0.0; stride];
        let mut gain = vec![0.0; nl * n];
        let mut coolant_gain = vec![0.0; params.coolants.len()];
        for m in 0..n {
            let dim = op.write(m, &mut k);
            spd_solve_unit(&mut k, dim, params.si_layer, &mut x);
            for (l, &xl) in x[..nl].iter().enumerate() {
                gain[l * n + m] = xl;
            }
            if m == 0 {
                // Back from the symmetric variable: u_c = v/√n.
                for (g, &v) in coolant_gain.iter_mut().zip(&x[nl..]) {
                    *g = v / (n as f64).sqrt();
                }
            }
        }
        let dct = Dct2::new(params.rows, params.cols);
        Self { params, dct, gain, coolant_gain, build_seconds: start.elapsed().as_secs_f64() }
    }

    /// Parameters this response was built from.
    pub fn params(&self) -> &SpectralParams {
        &self.params
    }

    /// Wall-clock seconds the precomputation took.
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    /// Allocates solve scratch sized for this response.
    pub fn scratch(&self) -> SpectralScratch {
        let n = self.params.cells();
        SpectralScratch {
            planes: vec![0.0; self.params.nl * n],
            power: vec![0.0; n],
            spec: vec![0.0; n],
            dct: self.dct.scratch(),
        }
    }

    /// Steady solve: fills `state` (full node vector, kelvin) for the given
    /// silicon-layer cell powers (W) and ambient (K). Returns the relative
    /// energy-balance residual `|ΣP − Σ g_amb·(T − T_amb)| / ΣP`, which for
    /// this exact method sits at FFT roundoff and doubles as the reported
    /// solver residual.
    ///
    /// # Panics
    ///
    /// Panics if `si_cell_power` is not `rows·cols` long or `state` is not
    /// the source circuit's node count.
    pub fn solve_into(
        &self,
        si_cell_power: &[f64],
        ambient: f64,
        state: &mut [f64],
        scratch: &mut SpectralScratch,
    ) -> f64 {
        let n = self.params.cells();
        let nl = self.params.nl;
        assert_eq!(si_cell_power.len(), n, "power map must cover the grid");
        assert_eq!(state.len(), self.params.node_count, "state must cover every node");
        let SpectralScratch { planes, power, spec, dct } = scratch;
        // Rise variables u = T − T_amb: the right-hand side is the power map
        // alone, so every layer's spectrum is its gain plane times the
        // power spectrum.
        let si = self.params.si_layer;
        planes[si * n..(si + 1) * n].copy_from_slice(si_cell_power);
        self.dct.forward_into(&mut planes[si * n..(si + 1) * n], power, dct);
        for l in 0..nl {
            let gain = &self.gain[l * n..(l + 1) * n];
            for ((s, &g), &p) in spec.iter_mut().zip(gain).zip(power.iter()) {
                *s = g * p;
            }
            self.dct.inverse_into(spec, &mut planes[l * n..(l + 1) * n], dct);
        }
        for (s, &u) in state[..nl * n].iter_mut().zip(planes.iter()) {
            *s = ambient + u;
        }
        for o in &self.params.oil {
            state[o.node] = ambient + o.g / (o.g + o.g_amb) * planes[o.cell];
        }
        let mut heat_out = 0.0;
        for (cool, &g) in self.params.coolants.iter().zip(&self.coolant_gain) {
            let u = g * power[0];
            state[cool.node] = ambient + u;
            heat_out += cool.g_amb * u;
        }
        for o in &self.params.oil {
            heat_out += o.g_amb * (state[o.node] - ambient);
        }
        let p_in: f64 = si_cell_power.iter().sum();
        (p_in - heat_out).abs() / p_in.abs().max(f64::MIN_POSITIVE)
    }

    /// Convenience wrapper that allocates scratch per call (tests, oracles).
    pub fn solve(&self, si_cell_power: &[f64], ambient: f64, state: &mut [f64]) -> f64 {
        let mut scratch = self.scratch();
        self.solve_into(si_cell_power, ambient, state, &mut scratch)
    }
}

// ---------------------------------------------------------------------------
// Spectral transient stepping
// ---------------------------------------------------------------------------

/// One per-cell oil film kept as an explicit pendant plane in every lateral
/// mode. The steady path folds oil onto the cell diagonal as
/// `g·g_amb/(g+g_amb)`, which is only exact when the oil node carries no
/// stored heat; the transient path keeps the plane and its capacitance.
#[derive(Debug, Clone)]
struct OilPlane {
    /// Conduction layer the plane loads.
    layer: usize,
    /// Uniform cell↔oil conductance, W/K.
    g: f64,
    /// Uniform oil↔ambient conductance, W/K.
    g_amb: f64,
    /// Uniform per-cell oil capacitance, J/K.
    cap: f64,
    /// Oil node index per in-plane cell, row-major.
    nodes: Vec<usize>,
}

/// Exact running energy accounting of a spectral transient trajectory,
/// integrated in closed form from the DC mode (plane sums and lumped nodes
/// are exactly the DC coordinates, so no quadrature error enters).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyLedger {
    /// `∫P dt` — joules delivered by the power trace.
    pub power_in_j: f64,
    /// `ΔE` — change in stored thermal energy `Σ C·(T − T_amb)`.
    pub stored_j: f64,
    /// `∫ Σ g_amb·(T − T_amb) dt` — joules returned to ambient.
    pub outflow_j: f64,
}

impl EnergyLedger {
    /// `|in − stored − out|` relative to the largest term.
    pub fn residual_rel(&self) -> f64 {
        let scale = self.power_in_j.abs().max(self.stored_j.abs()).max(self.outflow_j.abs());
        (self.power_in_j - self.stored_j - self.outflow_j).abs() / scale.max(f64::MIN_POSITIVE)
    }
}

/// Modal state of one transient trajectory plus its running energy ledger.
#[derive(Debug, Clone)]
pub struct TransientState {
    /// Eigen-coordinates, mode-major with a uniform slot stride.
    z: Vec<f64>,
    ledger: EnergyLedger,
}

impl TransientState {
    /// The exact energy ledger accumulated since construction.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }
}

/// Reusable buffers for [`SpectralTransient`] stepping: nothing is allocated
/// on the per-step or per-frame path once this exists.
#[derive(Debug)]
pub struct TransientScratch {
    /// One spatial plane (`rows·cols`).
    plane: Vec<f64>,
    /// One spectral plane.
    spec: Vec<f64>,
    /// Previous DC-mode coordinates, for the energy ledger.
    dc: Vec<f64>,
    dct: Dct2Scratch,
}

/// Deterministic cyclic Jacobi eigendecomposition of the symmetric
/// `dim×dim` matrix in `a` (row-major; clobbered). Writes the orthogonal
/// eigenvector matrix into `q` (columns are eigenvectors) and the
/// eigenvalues into `lam`, in slot order. The sweep order is fixed and
/// data-independent, so the decomposition is bitwise reproducible.
fn jacobi_eigen(a: &mut [f64], q: &mut [f64], lam: &mut [f64], dim: usize) {
    q[..dim * dim].fill(0.0);
    for i in 0..dim {
        q[i * dim + i] = 1.0;
    }
    if dim > 1 {
        let frob: f64 = a[..dim * dim].iter().map(|v| v * v).sum();
        let stop = frob * 1e-30;
        for _sweep in 0..64 {
            let mut off = 0.0;
            for p in 0..dim {
                for r in p + 1..dim {
                    off += a[p * dim + r] * a[p * dim + r];
                }
            }
            if 2.0 * off <= stop {
                break;
            }
            for p in 0..dim - 1 {
                for r in p + 1..dim {
                    let apr = a[p * dim + r];
                    if apr == 0.0 {
                        continue;
                    }
                    let theta = (a[r * dim + r] - a[p * dim + p]) / (2.0 * apr);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    for k in 0..dim {
                        let akp = a[k * dim + p];
                        let akr = a[k * dim + r];
                        a[k * dim + p] = c * akp - s * akr;
                        a[k * dim + r] = s * akp + c * akr;
                    }
                    for k in 0..dim {
                        let apk = a[p * dim + k];
                        let ark = a[r * dim + k];
                        a[p * dim + k] = c * apk - s * ark;
                        a[r * dim + k] = s * apk + c * ark;
                    }
                    for k in 0..dim {
                        let qkp = q[k * dim + p];
                        let qkr = q[k * dim + r];
                        q[k * dim + p] = c * qkp - s * qkr;
                        q[k * dim + r] = s * qkp + c * qkr;
                    }
                }
            }
        }
    }
    for i in 0..dim {
        lam[i] = a[i * dim + i];
    }
}

/// Spectral transient stepper: the exact matrix exponential of a qualifying
/// circuit, advanced one `dt` at a time.
///
/// # Method
///
/// The same DCT-II basis that diagonalizes the steady operator turns the
/// transient system `M u̇ = −K u + p` into independent per-mode chains of
/// length `L` = layers + oil planes (+ coolant slots in the DC mode, which
/// are the only mode a uniformly coupled lumped node talks to). Each chain
/// is symmetrized with `B = M^{−1/2} K M^{−1/2}` and eigendecomposed once
/// at build time, after which one step is the exact update
/// `z_i ← e^{−λ_i dt}·z_i + φ_i(dt)·q_i` with `φ = (1 − e^{−λ dt})/λ` —
/// no time-discretization error for piecewise-constant power. One step
/// costs one forward 2-D DCT of the power map plus an O(L) per-mode
/// recurrence; one emitted frame costs one inverse DCT. All hot-path work
/// is pool-partitioned over the fixed deterministic chunks, so results are
/// bitwise identical across thread counts.
///
/// # Qualification
///
/// On top of [`SpectralParams::from_circuit`], the transient path needs
/// laterally uniform *capacitances*: per-layer uniform cell heat capacity,
/// per-layer uniform oil `(g, g_amb, c)` individually (the steady fold
/// only needs the combined film conductance uniform), and full oil plane
/// coverage. [`Ineligible`] names the first violation.
#[derive(Debug)]
pub struct SpectralTransient {
    params: SpectralParams,
    dt: f64,
    dct: Dct2,
    /// Slot stride per mode: layers + oil planes + coolant slots. Coolant
    /// slots are live only in the DC mode; elsewhere their table entries
    /// decay nothing and inject nothing.
    stride: usize,
    /// Live slots in every non-DC mode (layers + oil planes).
    base: usize,
    oil_planes: Vec<OilPlane>,
    /// Square roots / reciprocal square roots of the per-slot masses.
    sqrt_m: Vec<f64>,
    inv_sqrt_m: Vec<f64>,
    /// `e^{−λ_i dt}` per (mode, slot), `n·stride`.
    exp_tab: Vec<f64>,
    /// `φ_i(dt)·Q_m[si,i]/√c_si` per (mode, slot): power-injection gain.
    gain_tab: Vec<f64>,
    /// `Q_m[si,i]/√c_si` per (mode, slot): silicon-plane emission row
    /// (identical to the injection row because the modes are symmetrized).
    out_si: Vec<f64>,
    /// Per-mode eigenvector blocks, `stride²` apiece (`dim²` used).
    q_all: Vec<f64>,
    /// DC-mode `φ_i(dt)` and `(dt − φ_i)/λ_i`, for the exact ledger.
    phi_dc: Vec<f64>,
    intw_dc: Vec<f64>,
    /// Stored-energy and ambient-outflow weights in DC eigen coordinates.
    e_store: Vec<f64>,
    e_out: Vec<f64>,
    build_seconds: f64,
}

impl SpectralTransient {
    /// Builds the exact stepper for `circuit` at step `dt`, or explains why
    /// the circuit does not qualify.
    ///
    /// # Errors
    ///
    /// [`Ineligible`] naming the disqualifying layer or structure.
    ///
    /// # Panics
    ///
    /// Panics unless `dt` is positive and finite.
    pub fn new(circuit: &ThermalCircuit, dt: f64) -> Result<Self, Ineligible> {
        assert!(dt > 0.0 && dt.is_finite(), "time step must be positive");
        let start = Instant::now();
        let params = SpectralParams::from_circuit(circuit)?;
        let n = params.cells();
        let nl = params.nl;
        let names = circuit.layer_names();
        let layer_name =
            |l: usize| names.get(l).map(String::as_str).unwrap_or("<unknown>").to_owned();
        let cap = circuit.capacitance();

        let mut layer_cap = Vec::with_capacity(nl);
        for l in 0..nl {
            let plane = &cap[l * n..(l + 1) * n];
            let first = plane[0];
            if first <= 0.0 || plane.iter().any(|&v| !close_rel(v, first)) {
                return Err(bail(format!(
                    "cell capacitance of layer `{}` varies across the grid; the spectral \
                     transient path needs laterally uniform heat capacity",
                    layer_name(l)
                )));
            }
            layer_cap.push(first);
        }

        // Oil films: exactly one full uniform pendant plane per loaded
        // layer, with g, g_amb and capacitance each uniform on their own.
        let mut by_layer: HashMap<usize, Vec<&OilNode>> = HashMap::new();
        for o in &params.oil {
            by_layer.entry(o.cell / n).or_default().push(o);
        }
        let mut oil_layers: Vec<usize> = by_layer.keys().copied().collect();
        oil_layers.sort_unstable();
        let mut oil_planes = Vec::with_capacity(oil_layers.len());
        for layer in oil_layers {
            let group = &by_layer[&layer];
            let varies = |what: &str| {
                bail(format!(
                    "oil film {what} over layer `{}` varies per cell; the spectral \
                     transient path needs each film property uniform on its own",
                    layer_name(layer)
                ))
            };
            let mut nodes = vec![usize::MAX; n];
            let first = group[0];
            let (g, g_amb, c) = (first.g, first.g_amb, cap[first.node]);
            for o in group {
                let idx = o.cell - layer * n;
                if nodes[idx] != usize::MAX {
                    return Err(bail(format!(
                        "two oil films load one cell of layer `{}`: not a single plane",
                        layer_name(layer)
                    )));
                }
                nodes[idx] = o.node;
                if !close_rel(o.g, g) {
                    return Err(varies("conductance"));
                }
                if !close_rel(o.g_amb, g_amb) {
                    return Err(varies("ambient conductance"));
                }
                if !close_rel(cap[o.node], c) {
                    return Err(varies("capacitance"));
                }
            }
            if nodes.contains(&usize::MAX) {
                return Err(bail(format!(
                    "oil film covers only part of layer `{}`; the spectral transient \
                     path needs a full uniform plane",
                    layer_name(layer)
                )));
            }
            if c <= 0.0 {
                return Err(bail(format!(
                    "oil film over layer `{}` has non-positive capacitance",
                    layer_name(layer)
                )));
            }
            oil_planes.push(OilPlane { layer, g, g_amb, cap: c, nodes });
        }

        // A coolant's symmetrized slot `v = √n·u_c` has mass `C_c`.
        let coolant_cap: Vec<f64> = params.coolants.iter().map(|c| cap[c.node]).collect();
        if coolant_cap.iter().any(|&c| c <= 0.0) {
            return Err(bail("coolant node with non-positive capacitance"));
        }

        let base = nl + oil_planes.len();
        let stride = base + coolant_cap.len();
        let mut mass = vec![0.0; stride];
        mass[..nl].copy_from_slice(&layer_cap);
        for (p, plane) in oil_planes.iter().enumerate() {
            mass[nl + p] = plane.cap;
        }
        mass[base..].copy_from_slice(&coolant_cap);
        let sqrt_m: Vec<f64> = mass.iter().map(|m| m.sqrt()).collect();
        let inv_sqrt_m: Vec<f64> = sqrt_m.iter().map(|m| 1.0 / m).collect();

        // Mode-independent raw layer diagonal: vertical couplings plus oil
        // and coolant loads. This is the *unfolded* diagonal — diag_extra's
        // steady oil fold would be wrong here, the oil slots are explicit.
        let mut diag0 = vertical_diag(&params);
        for plane in &oil_planes {
            diag0[plane.layer] += plane.g;
        }
        for cool in &params.coolants {
            for &(l, gv) in &cool.couplings {
                diag0[l] += gv;
            }
        }
        let op = ModeOperator::new(&params, diag0, &oil_planes);

        let nn = n as f64;
        let si = params.si_layer;
        let mut exp_tab = vec![1.0; n * stride];
        let mut gain_tab = vec![0.0; n * stride];
        let mut out_si = vec![0.0; n * stride];
        let mut q_all = vec![0.0; n * stride * stride];
        let mut phi_dc = vec![0.0; stride];
        let mut intw_dc = vec![0.0; stride];
        let mut k_mat = vec![0.0; stride * stride];
        let mut lam = vec![0.0; stride];
        for m in 0..n {
            let dim = op.write(m, &mut k_mat);
            // Symmetrize with the masses: B = M^{−1/2} K M^{−1/2}.
            for r in 0..dim {
                for c in 0..dim {
                    k_mat[r * dim + c] *= inv_sqrt_m[r] * inv_sqrt_m[c];
                }
            }
            let qm = &mut q_all[m * stride * stride..][..dim * dim];
            jacobi_eigen(&mut k_mat[..dim * dim], qm, &mut lam[..dim], dim);
            for i in 0..dim {
                let l = lam[i].max(0.0);
                let x = l * dt;
                let phi = if l > 0.0 { -(-x).exp_m1() / l } else { dt };
                let o = qm[si * dim + i] * inv_sqrt_m[si];
                exp_tab[m * stride + i] = (-x).exp();
                out_si[m * stride + i] = o;
                gain_tab[m * stride + i] = phi * o;
                if m == 0 {
                    phi_dc[i] = phi;
                    // (dt − φ)/λ, by series when λ·dt is cancellation-prone.
                    intw_dc[i] = if x > 1e-4 {
                        (dt - phi) / l
                    } else {
                        dt * dt * 0.5 * (1.0 - x / 3.0 + x * x / 12.0)
                    };
                }
            }
        }

        // Energy ledger weights, folded into DC eigen coordinates: stored
        // energy and ambient outflow are linear in the DC plane sums (and
        // lumped temperatures), i.e. fixed vectors dotted with z_DC.
        let mut w_store = vec![0.0; stride];
        let mut w_out = vec![0.0; stride];
        w_store[..nl].copy_from_slice(&layer_cap);
        for (p, plane) in oil_planes.iter().enumerate() {
            w_store[nl + p] = plane.cap;
            w_out[nl + p] = plane.g_amb;
        }
        for (j, (cool, &c)) in params.coolants.iter().zip(&coolant_cap).enumerate() {
            w_store[base + j] = c / nn.sqrt();
            w_out[base + j] = cool.g_amb / nn.sqrt();
        }
        let qdc = &q_all[..stride * stride];
        let mut e_store = vec![0.0; stride];
        let mut e_out = vec![0.0; stride];
        for i in 0..stride {
            for s in 0..stride {
                e_store[i] += w_store[s] * inv_sqrt_m[s] * qdc[s * stride + i];
                e_out[i] += w_out[s] * inv_sqrt_m[s] * qdc[s * stride + i];
            }
        }

        let dct = Dct2::new(params.rows, params.cols);
        Ok(Self {
            params,
            dt,
            dct,
            stride,
            base,
            oil_planes,
            sqrt_m,
            inv_sqrt_m,
            exp_tab,
            gain_tab,
            out_si,
            q_all,
            phi_dc,
            intw_dc,
            e_store,
            e_out,
            build_seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// The step length this stepper was factored for.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Parameters this stepper was built from.
    pub fn params(&self) -> &SpectralParams {
        &self.params
    }

    /// Wall-clock seconds the precomputation took.
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    /// Allocates stepping scratch sized for this stepper.
    pub fn scratch(&self) -> TransientScratch {
        let n = self.params.cells();
        TransientScratch {
            plane: vec![0.0; n],
            spec: vec![0.0; n],
            dc: vec![0.0; self.stride],
            dct: self.dct.scratch(),
        }
    }

    /// All-ambient initial state with a zeroed ledger.
    pub fn state(&self) -> TransientState {
        TransientState {
            z: vec![0.0; self.params.cells() * self.stride],
            ledger: EnergyLedger::default(),
        }
    }

    /// Loads an arbitrary full node state (kelvin) into modal coordinates.
    /// Not a hot path: allocates freely.
    ///
    /// # Panics
    ///
    /// Panics unless `state` covers the source circuit's node count.
    pub fn state_from(
        &self,
        state: &[f64],
        ambient: f64,
        scratch: &mut TransientScratch,
    ) -> TransientState {
        assert_eq!(state.len(), self.params.node_count, "state must cover every node");
        let n = self.params.cells();
        let nl = self.params.nl;
        let stride = self.stride;
        // w = M^{1/2}·y, spectral, slot-plane-major: w[s·n + m].
        let mut w = vec![0.0; n * self.base];
        for l in 0..nl {
            for (dst, &t) in scratch.plane.iter_mut().zip(&state[l * n..(l + 1) * n]) {
                *dst = t - ambient;
            }
            self.dct.forward_into(&mut scratch.plane, &mut scratch.spec, &mut scratch.dct);
            for (dst, &v) in w[l * n..(l + 1) * n].iter_mut().zip(scratch.spec.iter()) {
                *dst = self.sqrt_m[l] * v;
            }
        }
        for (p, plane) in self.oil_planes.iter().enumerate() {
            let s = nl + p;
            for (dst, &node) in scratch.plane.iter_mut().zip(&plane.nodes) {
                *dst = state[node] - ambient;
            }
            self.dct.forward_into(&mut scratch.plane, &mut scratch.spec, &mut scratch.dct);
            for (dst, &v) in w[s * n..(s + 1) * n].iter_mut().zip(scratch.spec.iter()) {
                *dst = self.sqrt_m[s] * v;
            }
        }
        let mut ts = self.state();
        for m in 0..n {
            let dim = if m == 0 { stride } else { self.base };
            let qm = &self.q_all[m * stride * stride..][..dim * dim];
            let zm = &mut ts.z[m * stride..][..dim];
            for (i, zi) in zm.iter_mut().enumerate() {
                let mut acc = 0.0;
                for s in 0..self.base {
                    acc += qm[s * dim + i] * w[s * n + m];
                }
                *zi = acc;
            }
        }
        // Coolant slots enter the DC mode only: w = √C_c·(√n·u_c).
        if !self.params.coolants.is_empty() {
            let dim = stride;
            let qm = &self.q_all[..dim * dim];
            for (j, cool) in self.params.coolants.iter().enumerate() {
                let s = self.base + j;
                let wv = self.sqrt_m[s] * (state[cool.node] - ambient) * (n as f64).sqrt();
                for (i, zi) in ts.z[..dim].iter_mut().enumerate() {
                    *zi += qm[s * dim + i] * wv;
                }
            }
        }
        ts
    }

    /// Writes the modal state back into a full node vector (kelvin).
    /// Not a hot path: allocates freely.
    ///
    /// # Panics
    ///
    /// Panics unless `state` covers the source circuit's node count.
    pub fn store_into(
        &self,
        ts: &TransientState,
        ambient: f64,
        state: &mut [f64],
        scratch: &mut TransientScratch,
    ) {
        assert_eq!(state.len(), self.params.node_count, "state must cover every node");
        let n = self.params.cells();
        let nl = self.params.nl;
        let stride = self.stride;
        let mut y = vec![0.0; n * self.base];
        for m in 0..n {
            let dim = if m == 0 { stride } else { self.base };
            let qm = &self.q_all[m * stride * stride..][..dim * dim];
            let zm = &ts.z[m * stride..][..dim];
            for s in 0..self.base {
                let mut acc = 0.0;
                for (i, &zi) in zm.iter().enumerate() {
                    acc += qm[s * dim + i] * zi;
                }
                y[s * n + m] = acc * self.inv_sqrt_m[s];
            }
        }
        for l in 0..nl {
            scratch.spec.copy_from_slice(&y[l * n..(l + 1) * n]);
            self.dct.inverse_into(&mut scratch.spec, &mut scratch.plane, &mut scratch.dct);
            for (dst, &u) in state[l * n..(l + 1) * n].iter_mut().zip(scratch.plane.iter()) {
                *dst = ambient + u;
            }
        }
        for (p, plane) in self.oil_planes.iter().enumerate() {
            let s = nl + p;
            scratch.spec.copy_from_slice(&y[s * n..(s + 1) * n]);
            self.dct.inverse_into(&mut scratch.spec, &mut scratch.plane, &mut scratch.dct);
            for (&node, &u) in plane.nodes.iter().zip(scratch.plane.iter()) {
                state[node] = ambient + u;
            }
        }
        if !self.params.coolants.is_empty() {
            let dim = stride;
            let qm = &self.q_all[..dim * dim];
            for (j, cool) in self.params.coolants.iter().enumerate() {
                let s = self.base + j;
                let mut acc = 0.0;
                for (i, &zi) in ts.z[..dim].iter().enumerate() {
                    acc += qm[s * dim + i] * zi;
                }
                state[cool.node] = ambient + acc * self.inv_sqrt_m[s] / (n as f64).sqrt();
            }
        }
    }

    /// Advances one `dt` step under the given silicon power map (W/cell).
    ///
    /// # Panics
    ///
    /// Panics unless `si_cell_power` covers the grid.
    pub fn step(
        &self,
        ts: &mut TransientState,
        si_cell_power: &[f64],
        scratch: &mut TransientScratch,
    ) {
        self.transform_power(si_cell_power, scratch);
        let TransientScratch { spec, dc, .. } = scratch;
        self.advance_modes(ts, spec, 1, dc);
    }

    /// Advances `steps` equal steps under one constant power map, paying the
    /// forward transform once.
    ///
    /// # Panics
    ///
    /// Panics unless `si_cell_power` covers the grid.
    pub fn advance(
        &self,
        ts: &mut TransientState,
        si_cell_power: &[f64],
        steps: usize,
        scratch: &mut TransientScratch,
    ) {
        self.transform_power(si_cell_power, scratch);
        let TransientScratch { spec, dc, .. } = scratch;
        self.advance_modes(ts, spec, steps, dc);
    }

    /// Forward DCT of the power map into `scratch.spec`.
    fn transform_power(&self, si_cell_power: &[f64], scratch: &mut TransientScratch) {
        let n = self.params.cells();
        assert_eq!(si_cell_power.len(), n, "power map must cover the grid");
        if si_cell_power.iter().all(|&v| v == 0.0) {
            scratch.spec.fill(0.0);
        } else {
            scratch.plane.copy_from_slice(si_cell_power);
            self.dct.forward_into(&mut scratch.plane, &mut scratch.spec, &mut scratch.dct);
        }
    }

    /// The exact modal update, `steps` times under one spectral power map,
    /// with the per-step DC-mode energy ledger.
    fn advance_modes(
        &self,
        ts: &mut TransientState,
        spec: &[f64],
        steps: usize,
        dc_old: &mut [f64],
    ) {
        let stride = self.stride;
        let pool = crate::pool::current();
        let (exp_t, gain_t) = (&self.exp_tab, &self.gain_tab);
        for _ in 0..steps {
            dc_old.copy_from_slice(&ts.z[..stride]);
            crate::pool::fill_chunks(&pool, &mut ts.z, |_, start, chunk| {
                for (k, zv) in chunk.iter_mut().enumerate() {
                    let idx = start + k;
                    *zv = exp_t[idx] * *zv + gain_t[idx] * spec[idx / stride];
                }
            });
            // Exact step integrals from the DC mode: ∫z_i dt over the step
            // is z⁰_i·φ_i + q_i·(dt − φ_i)/λ_i for source q_i.
            let p0 = spec[0];
            let (mut stored, mut out) = (0.0, 0.0);
            for (i, &z_old) in dc_old.iter().enumerate().take(stride) {
                let q_i = self.out_si[i] * p0;
                let int_z = z_old * self.phi_dc[i] + q_i * self.intw_dc[i];
                out += self.e_out[i] * int_z;
                stored += self.e_store[i] * (ts.z[i] - z_old);
            }
            ts.ledger.power_in_j += p0 * self.dt;
            ts.ledger.stored_j += stored;
            ts.ledger.outflow_j += out;
        }
    }

    /// Emits the silicon-plane temperature frame (kelvin) for the current
    /// state: one spectral projection plus one inverse DCT.
    ///
    /// # Panics
    ///
    /// Panics unless `frame` covers the grid.
    pub fn emit_si(
        &self,
        ts: &TransientState,
        ambient: f64,
        frame: &mut [f64],
        scratch: &mut TransientScratch,
    ) {
        let n = self.params.cells();
        assert_eq!(frame.len(), n, "frame must cover the grid");
        let stride = self.stride;
        let pool = crate::pool::current();
        let (z, out) = (&ts.z, &self.out_si);
        crate::pool::fill_chunks(&pool, &mut scratch.spec, |_, start, chunk| {
            for (k, dst) in chunk.iter_mut().enumerate() {
                let m = start + k;
                let mut acc = 0.0;
                for i in 0..stride {
                    acc += out[m * stride + i] * z[m * stride + i];
                }
                *dst = acc;
            }
        });
        self.dct.inverse_into(&mut scratch.spec, frame, &mut scratch.dct);
        for t in frame.iter_mut() {
            *t += ambient;
        }
    }
}

/// Bounded LRU of precomputed spectral responses, keyed by
/// [`SpectralParams::digest`]. The same cache as
/// [`crate::circuit::CircuitCache`]: builds run outside the lock, a lost race
/// keeps the first insert, and hit/miss/eviction counters feed the serve
/// stats.
pub struct ResponseCache(Lru<SpectralResponse>);

impl ResponseCache {
    /// An empty cache holding at most `capacity` responses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self(Lru::new(capacity))
    }

    /// The process-wide shared cache.
    pub fn process() -> &'static ResponseCache {
        static PROCESS: OnceLock<ResponseCache> = OnceLock::new();
        PROCESS.get_or_init(|| ResponseCache::new(RESPONSE_CACHE_CAPACITY))
    }

    /// Returns the cached response for `params`, building and inserting on
    /// a miss. The boolean reports a cache hit.
    pub fn get_or_build(&self, params: SpectralParams) -> (Arc<SpectralResponse>, bool) {
        self.0.get_or_build(params.digest(), || SpectralResponse::build(params))
    }

    /// Hit/miss/eviction counters and occupancy.
    pub fn counters(&self) -> CacheCounters {
        self.0.counters()
    }

    /// Drops every cached response (counters keep accumulating).
    pub fn clear(&self) {
        self.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{build_circuit_from_stack, DieGeometry};
    use crate::materials::{INTERFACE, SILICON};
    use crate::package::{AirSinkPackage, OilSiliconPackage, Package};
    use crate::solve::{solve_steady_with, SolverChoice};
    use crate::stack::{Boundary, Layer, LayerStack};
    use hotiron_floorplan::{library, GridMapping};

    const AMBIENT: f64 = 318.15;

    fn die() -> DieGeometry {
        let plan = library::ev6();
        DieGeometry { width: plan.width(), height: plan.height(), thickness: 0.5e-3 }
    }

    fn bare_die_stack() -> LayerStack {
        LayerStack::new(vec![Layer::new("silicon", SILICON, die().thickness)], 0)
            .with_top(Boundary::Lumped { r_total: 2.0, c_total: 30.0 })
    }

    fn ramp_power(n: usize, total: f64) -> Vec<f64> {
        let weight: f64 = (0..n).map(|i| 1.0 + i as f64).sum();
        (0..n).map(|i| total * (1.0 + i as f64) / weight).collect()
    }

    fn spectral_vs_direct(stack: &LayerStack, grid: (usize, usize), tol: f64) {
        let plan = library::ev6();
        let mapping = GridMapping::new(&plan, grid.0, grid.1);
        let circuit = build_circuit_from_stack(&mapping, die(), stack).expect("circuit");
        let params = SpectralParams::from_circuit(&circuit).expect("eligible");
        let resp = SpectralResponse::build(params);
        let p = ramp_power(grid.0 * grid.1, 40.0);
        let mut spectral = vec![0.0; circuit.node_count()];
        let energy_rel = resp.solve(&p, AMBIENT, &mut spectral);
        assert!(energy_rel < 1e-10, "energy residual {energy_rel}");
        let mut direct = vec![AMBIENT; circuit.node_count()];
        solve_steady_with(&circuit, &p, AMBIENT, &mut direct, SolverChoice::Direct)
            .expect("direct solve");
        let worst = spectral.iter().zip(&direct).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        assert!(worst <= tol, "spectral vs direct diverge by {worst} K");
    }

    #[test]
    fn bare_die_matches_direct() {
        spectral_vs_direct(&bare_die_stack(), (16, 16), 1e-9);
    }

    #[test]
    fn non_square_grid_matches_direct() {
        spectral_vs_direct(&bare_die_stack(), (8, 32), 1e-9);
    }

    #[test]
    fn multi_layer_stack_matches_direct() {
        // Two full-size conduction layers: exercises the per-mode
        // layer chain (no plates, so still shift-invariant).
        let d = die();
        let stack = LayerStack::new(
            vec![
                Layer::new("silicon", SILICON, d.thickness),
                Layer::new("interface", INTERFACE, 2.0e-5),
            ],
            0,
        )
        .with_top(Boundary::Lumped { r_total: 1.0, c_total: 40.0 });
        spectral_vs_direct(&stack, (16, 16), 1e-9);
    }

    #[test]
    fn two_coolant_stack_matches_direct() {
        // Lumped top and bottom: two coolant slots in the DC-mode operator.
        let d = die();
        let stack = LayerStack::new(
            vec![
                Layer::new("interface", INTERFACE, 2.0e-5),
                Layer::new("silicon", SILICON, d.thickness),
            ],
            1,
        )
        .with_top(Boundary::Lumped { r_total: 1.0, c_total: 40.0 })
        .with_bottom(Boundary::Lumped { r_total: 6.0, c_total: 10.0 });
        spectral_vs_direct(&stack, (16, 16), 1e-9);
    }

    #[test]
    fn uniform_oil_package_matches_direct() {
        // Global-h oil: per-cell oil nodes eliminated exactly and
        // back-substituted into the full state.
        let stack = Package::OilSilicon(OilSiliconPackage::paper_default().with_uniform_h())
            .to_stack(die())
            .expect("stack");
        spectral_vs_direct(&stack, (16, 16), 1e-9);
    }

    #[test]
    fn plates_are_ineligible_and_named() {
        let stack =
            Package::AirSink(AirSinkPackage::paper_default()).to_stack(die()).expect("stack");
        let plan = library::ev6();
        let mapping = GridMapping::new(&plan, 16, 16);
        let circuit = build_circuit_from_stack(&mapping, die(), &stack).expect("circuit");
        let err = SpectralParams::from_circuit(&circuit).expect_err("plates disqualify");
        assert!(err.reason.contains("oversized plate"), "got: {}", err.reason);
    }

    #[test]
    fn local_h_oil_is_ineligible_and_named() {
        let stack =
            Package::OilSilicon(OilSiliconPackage::paper_default()).to_stack(die()).expect("stack");
        let plan = library::ev6();
        let mapping = GridMapping::new(&plan, 16, 16);
        let circuit = build_circuit_from_stack(&mapping, die(), &stack).expect("circuit");
        let err = SpectralParams::from_circuit(&circuit).expect_err("local h disqualifies");
        assert!(
            err.reason.contains("silicon") && err.reason.contains("varies per cell"),
            "got: {}",
            err.reason
        );
    }

    #[test]
    fn non_pow2_grid_is_ineligible() {
        let plan = library::ev6();
        let mapping = GridMapping::new(&plan, 12, 12);
        let circuit =
            build_circuit_from_stack(&mapping, die(), &bare_die_stack()).expect("circuit");
        let err = SpectralParams::from_circuit(&circuit).expect_err("non-pow2 disqualifies");
        assert!(err.reason.contains("power of two"), "got: {}", err.reason);
    }

    #[test]
    fn response_cache_hits_and_evicts() {
        let cache = ResponseCache::new(2);
        let plan = library::ev6();
        let build = |grid: usize| {
            let mapping = GridMapping::new(&plan, grid, grid);
            let circuit =
                build_circuit_from_stack(&mapping, die(), &bare_die_stack()).expect("circuit");
            SpectralParams::from_circuit(&circuit).expect("eligible")
        };
        let (_, hit) = cache.get_or_build(build(8));
        assert!(!hit);
        let (_, hit) = cache.get_or_build(build(8));
        assert!(hit, "same params must hit");
        cache.get_or_build(build(16));
        cache.get_or_build(build(32)); // evicts the LRU entry (grid 8)
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.evictions, c.len), (1, 3, 1, 2));
    }

    /// BE Richardson reference: steps backward Euler at `dt/2` and `dt/4`
    /// over `t = dt·steps` and extrapolates, leaving an O(dt²) remainder.
    fn richardson_be(
        circuit: &crate::circuit::ThermalCircuit,
        power: &[f64],
        dt: f64,
        steps: usize,
    ) -> Vec<f64> {
        let be_run = |h: f64, k: usize| {
            let be = crate::solve::BackwardEuler::new(circuit, h);
            let mut state = vec![AMBIENT; circuit.node_count()];
            for _ in 0..k {
                be.step(&mut state, power, AMBIENT).expect("BE step");
            }
            state
        };
        let half = be_run(dt / 2.0, steps * 2);
        let quarter = be_run(dt / 4.0, steps * 4);
        quarter.iter().zip(&half).map(|(&f, &c)| 2.0 * f - c).collect()
    }

    fn transient_vs_richardson(stack: &LayerStack, grid: usize, tol: f64) {
        let plan = library::ev6();
        let mapping = GridMapping::new(&plan, grid, grid);
        let circuit = build_circuit_from_stack(&mapping, die(), stack).expect("circuit");
        let (dt, steps) = (1e-3, 16);
        let stepper = SpectralTransient::new(&circuit, dt).expect("transient-eligible");
        let mut scratch = stepper.scratch();
        let mut ts = stepper.state();
        let p = ramp_power(grid * grid, 30.0);
        stepper.advance(&mut ts, &p, steps, &mut scratch);
        let mut state = vec![0.0; circuit.node_count()];
        stepper.store_into(&ts, AMBIENT, &mut state, &mut scratch);
        let reference = richardson_be(&circuit, &p, dt, steps);
        let worst = state.iter().zip(&reference).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        assert!(worst <= tol, "spectral transient vs BE Richardson diverge by {worst} K");
        assert!(
            ts.ledger().residual_rel() < 1e-10,
            "ledger residual {}",
            ts.ledger().residual_rel()
        );
    }

    #[test]
    fn transient_matches_richardson_be_bare_die() {
        transient_vs_richardson(&bare_die_stack(), 8, 2e-4);
    }

    #[test]
    fn transient_matches_richardson_be_uniform_oil() {
        let stack = Package::OilSilicon(OilSiliconPackage::paper_default().with_uniform_film())
            .to_stack(die())
            .expect("stack");
        transient_vs_richardson(&stack, 8, 2e-4);
    }

    #[test]
    fn transient_warmup_is_monotone_and_reaches_steady() {
        let plan = library::ev6();
        let mapping = GridMapping::new(&plan, 16, 16);
        let circuit =
            build_circuit_from_stack(&mapping, die(), &bare_die_stack()).expect("circuit");
        let dt = 6.0;
        let stepper = SpectralTransient::new(&circuit, dt).expect("transient-eligible");
        let mut scratch = stepper.scratch();
        let mut ts = stepper.state();
        let p = ramp_power(256, 40.0);
        let mut prev = vec![AMBIENT; 256];
        let mut frame = vec![0.0; 256];
        // Exact exponential stepping reproduces the positive semigroup: a
        // warmup from ambient under constant power rises at every cell.
        for step in 0..200 {
            stepper.advance(&mut ts, &p, 1, &mut scratch);
            stepper.emit_si(&ts, AMBIENT, &mut frame, &mut scratch);
            for (i, (&now, &before)) in frame.iter().zip(&prev).enumerate() {
                assert!(
                    now >= before - 1e-9,
                    "cell {i} cooled during warmup at step {step}: {before} -> {now}"
                );
            }
            prev.copy_from_slice(&frame);
        }
        // 1200 s is ~20 lumped-boundary time constants: the movie tail
        // must sit on the steady spectral solution.
        let resp =
            SpectralResponse::build(SpectralParams::from_circuit(&circuit).expect("eligible"));
        let mut steady = vec![0.0; circuit.node_count()];
        resp.solve(&p, AMBIENT, &mut steady);
        let worst =
            frame.iter().zip(&steady[..256]).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        assert!(worst < 1e-6, "transient tail vs steady diverge by {worst} K");
        assert!(ts.ledger().residual_rel() < 1e-10, "ledger drifted");
    }

    #[test]
    fn transient_is_linear_in_power_trace() {
        let plan = library::ev6();
        let mapping = GridMapping::new(&plan, 16, 16);
        let circuit =
            build_circuit_from_stack(&mapping, die(), &bare_die_stack()).expect("circuit");
        let stepper = SpectralTransient::new(&circuit, 1e-2).expect("transient-eligible");
        let mut scratch = stepper.scratch();
        let pa = ramp_power(256, 20.0);
        let pb: Vec<f64> = (0..256).map(|i| if i == 101 { 12.0 } else { 0.125 }).collect();
        let mut run = |traces: &[&[f64]]| {
            let mut ts = stepper.state();
            let mut frame = vec![0.0; 256];
            for p in traces {
                stepper.step(&mut ts, p, &mut scratch);
            }
            stepper.emit_si(&ts, AMBIENT, &mut frame, &mut scratch);
            frame
        };
        let fa = run(&[&pa, &pa, &pb]);
        let fb = run(&[&pb, &pa, &pa]);
        // Same three steps with the power traces scaled and summed: the
        // modal update is linear, so frames must superpose.
        let mixed: Vec<Vec<f64>> = (0..3)
            .map(|s| {
                let (ta, tb): (&[f64], &[f64]) = match s {
                    0 => (&pa, &pb),
                    1 => (&pa, &pa),
                    _ => (&pb, &pa),
                };
                ta.iter().zip(tb).map(|(a, b)| 2.0 * a + 0.5 * b).collect()
            })
            .collect();
        let mut ts = stepper.state();
        let mut fc = vec![0.0; 256];
        for p in &mixed {
            stepper.step(&mut ts, p, &mut scratch);
        }
        stepper.emit_si(&ts, AMBIENT, &mut fc, &mut scratch);
        for i in 0..256 {
            let lin = AMBIENT + 2.0 * (fa[i] - AMBIENT) + 0.5 * (fb[i] - AMBIENT);
            assert!(
                (fc[i] - lin).abs() < 1e-9,
                "trace superposition broken at cell {i}: {} vs {lin}",
                fc[i]
            );
        }
    }

    #[test]
    fn be_error_halves_with_dt_against_exact_stepper() {
        let plan = library::ev6();
        let mapping = GridMapping::new(&plan, 8, 8);
        let circuit =
            build_circuit_from_stack(&mapping, die(), &bare_die_stack()).expect("circuit");
        let p = ramp_power(64, 25.0);
        let horizon = 0.032;
        // Exact reference at the horizon (any dt works; the update is the
        // true matrix exponential for constant power).
        let stepper = SpectralTransient::new(&circuit, horizon / 8.0).expect("eligible");
        let mut scratch = stepper.scratch();
        let mut ts = stepper.state();
        stepper.advance(&mut ts, &p, 8, &mut scratch);
        let mut exact = vec![0.0; circuit.node_count()];
        stepper.store_into(&ts, AMBIENT, &mut exact, &mut scratch);
        let be_err = |steps: usize| {
            let be = crate::solve::BackwardEuler::new(&circuit, horizon / steps as f64);
            let mut state = vec![AMBIENT; circuit.node_count()];
            for _ in 0..steps {
                be.step(&mut state, &p, AMBIENT).expect("BE step");
            }
            state.iter().zip(&exact).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max)
        };
        let (coarse, fine) = (be_err(16), be_err(32));
        let ratio = coarse / fine;
        assert!(
            (1.6..=2.4).contains(&ratio),
            "backward Euler should converge at first order: errors {coarse} / {fine} = {ratio}"
        );
    }

    #[test]
    fn movie_is_bitwise_identical_across_thread_counts() {
        use crate::pool::{with_pool, WorkerPool};
        let plan = library::ev6();
        let mapping = GridMapping::new(&plan, 128, 128);
        let stack = Package::OilSilicon(OilSiliconPackage::paper_default().with_uniform_film())
            .to_stack(die())
            .expect("stack");
        let circuit = build_circuit_from_stack(&mapping, die(), &stack).expect("circuit");
        let n = 128 * 128;
        let p = ramp_power(n, 80.0);
        let movie = |threads: usize| {
            let pool = std::sync::Arc::new(WorkerPool::new(threads));
            with_pool(&pool, || {
                let stepper = SpectralTransient::new(&circuit, 1e-3).expect("eligible");
                let mut scratch = stepper.scratch();
                let mut ts = stepper.state();
                let mut frames = Vec::with_capacity(100);
                let mut frame = vec![0.0; n];
                for _ in 0..100 {
                    stepper.step(&mut ts, &p, &mut scratch);
                    stepper.emit_si(&ts, AMBIENT, &mut frame, &mut scratch);
                    frames.extend(frame.iter().map(|v| v.to_bits()));
                }
                (frames, *ts.ledger())
            })
        };
        let (serial, ledger_1) = movie(1);
        let (parallel, ledger_n) = movie(4);
        assert_eq!(serial, parallel, "100-frame movie must be bitwise thread-independent");
        assert_eq!(ledger_1, ledger_n, "energy ledger must be thread-independent");
        assert!(ledger_1.residual_rel() < 1e-10, "ledger residual {}", ledger_1.residual_rel());
    }

    #[test]
    fn state_roundtrip_preserves_full_state() {
        let stack = Package::OilSilicon(OilSiliconPackage::paper_default().with_uniform_film())
            .to_stack(die())
            .expect("stack");
        let plan = library::ev6();
        let mapping = GridMapping::new(&plan, 16, 16);
        let circuit = build_circuit_from_stack(&mapping, die(), &stack).expect("circuit");
        let stepper = SpectralTransient::new(&circuit, 1e-3).expect("eligible");
        let mut scratch = stepper.scratch();
        let mut ts = stepper.state();
        stepper.advance(&mut ts, &ramp_power(256, 30.0), 10, &mut scratch);
        let mut state = vec![0.0; circuit.node_count()];
        stepper.store_into(&ts, AMBIENT, &mut state, &mut scratch);
        let reloaded = stepper.state_from(&state, AMBIENT, &mut scratch);
        let mut state2 = vec![0.0; circuit.node_count()];
        stepper.store_into(&reloaded, AMBIENT, &mut state2, &mut scratch);
        let worst = state.iter().zip(&state2).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        assert!(worst < 1e-9, "load/store roundtrip drifts by {worst} K");
    }

    #[test]
    fn solve_is_linear_in_power() {
        let plan = library::ev6();
        let mapping = GridMapping::new(&plan, 16, 16);
        let circuit =
            build_circuit_from_stack(&mapping, die(), &bare_die_stack()).expect("circuit");
        let resp =
            SpectralResponse::build(SpectralParams::from_circuit(&circuit).expect("eligible"));
        let n = circuit.node_count();
        let pa = ramp_power(256, 20.0);
        let pb: Vec<f64> = (0..256).map(|i| if i == 37 { 15.0 } else { 0.25 }).collect();
        let combo: Vec<f64> = pa.iter().zip(&pb).map(|(a, b)| 2.0 * a + 0.5 * b).collect();
        let (mut ua, mut ub, mut uc) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        resp.solve(&pa, AMBIENT, &mut ua);
        resp.solve(&pb, AMBIENT, &mut ub);
        resp.solve(&combo, AMBIENT, &mut uc);
        for i in 0..n {
            let lin = AMBIENT + 2.0 * (ua[i] - AMBIENT) + 0.5 * (ub[i] - AMBIENT);
            assert!((uc[i] - lin).abs() < 1e-9, "superposition broken at node {i}");
        }
    }
}
