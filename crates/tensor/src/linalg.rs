//! Dense linear algebra: cache-blocked GEMM kernels and symmetric
//! eigenvalue routines for the NTK spectrum.
//!
//! # GEMM kernels
//!
//! [`gemm_nn`], [`gemm_nt`] and [`gemm_tn`] are the single-precision
//! matrix-multiply primitives behind the im2col convolution path and the
//! linear layers. They are cache-blocked (panels of `B` and unrolled rank-4
//! updates) so the inner loops autovectorise and the `C` traffic is
//! amortised; no external BLAS is involved. The register-tiled schedule of
//! [`gemm_nn`] reads its `B` operand through a crate-private column-operand
//! trait, so the conv forward runs it straight from a zero-padded image
//! (an implicit im2col matrix) with the same arithmetic.
//!
//! # Eigensolver
//!
//! The NTK Gram matrix of a mini-batch is a small (batch × batch) symmetric
//! positive semi-definite matrix; its condition number λ_max / λ_min is the
//! trainability indicator used by MicroNAS and TE-NAS. A cyclic Jacobi
//! rotation solver is plenty for matrices of this size (≤ 128×128) and is
//! numerically robust. [`sym_eigenvalues_with`] exposes a scratch-reusing
//! variant so per-candidate repeat loops stop allocating.

use crate::{Result, Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// Panel width of `B` kept hot in cache by the blocked kernels.
const GEMM_NC: usize = 512;
/// Depth of the rank-k panels processed per pass.
const GEMM_KC: usize = 128;

#[inline]
fn gemm_check(m: usize, k: usize, n: usize, a: usize, b: usize, c: usize) {
    assert_eq!(a, m * k, "gemm: A buffer has wrong length");
    assert_eq!(b, k * n, "gemm: B buffer has wrong length");
    assert_eq!(c, m * n, "gemm: C buffer has wrong length");
}

/// Widest `n` routed to the register-tiled kernel: narrow C rows starve the
/// memory-resident formulation (most of the register file idle), while wide
/// C rows amortise it and prefer the streaming rank-4 updates.
const GEMM_NARROW_N: usize = 32;

/// Smallest `k` routed to the register-tiled kernel even for wide outputs:
/// past this depth the tiled schedule's B-block reuse (each block read once
/// per 4-row band instead of once per row) outweighs the streaming
/// schedule's longer contiguous runs.
const GEMM_DEEP_K: usize = 64;

/// `C = A · B` (or `C += A · B` with `accumulate`), all row-major:
/// `A` is `[m, k]`, `B` is `[k, n]`, `C` is `[m, n]`.
///
/// Dispatches between two schedules on the output width `n` and depth `k`:
///
/// * **row band** (`n ≤ 32` or `k ≥ 64`, e.g. the transposed
///   weight-gradient GEMMs and the paper's conv3×3): register-tiled 4×16,
///   4×8 and 4×1 accumulator tiles with `k` innermost — the tile's partial
///   sums live in vector registers across the whole `k` sweep;
/// * **wide** (spatially-wide feature maps): cache-blocked streaming rank-4
///   C-row updates, which amortise the C traffic over long contiguous rows.
///
/// # Panics
///
/// Panics if a buffer length does not match its dimensions.
pub fn gemm_nn(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
) {
    micronas_telemetry::counter_add("tensor.gemm.calls", 1);
    gemm_nn_uncounted(m, k, n, a, b, c, accumulate);
}

/// [`gemm_nn`] without its `tensor.gemm.calls` count, for a kernel that
/// runs one logical dispatch as several products and counts it once. Still
/// timed under the `tensor.gemm` span.
pub(crate) fn gemm_nn_uncounted(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
) {
    let _span = micronas_telemetry::span!("tensor.gemm");
    gemm_check(m, k, n, a.len(), b.len(), c.len());
    if !accumulate {
        c.fill(0.0);
    }
    if uses_row_band(k, n) {
        gemm_nn_row_bands(m, k, n, a, &DenseColumns { b, n }, c);
    } else {
        gemm_nn_wide(m, k, n, a, b, c);
    }
}

/// [`gemm_nn_uncounted`] (`C = A · B`, no accumulate) for a product that
/// takes the register-tiled schedule ([`uses_row_band`]), with `B` given
/// as any [`ColumnOperand`]. Timed under the `tensor.gemm` span.
pub(crate) fn gemm_nn_implicit(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &impl ColumnOperand,
    c: &mut [f32],
) {
    let _span = micronas_telemetry::span!("tensor.gemm");
    debug_assert!(uses_row_band(k, n));
    assert_eq!(a.len(), m * k, "gemm: A buffer has wrong length");
    assert_eq!(c.len(), m * n, "gemm: C buffer has wrong length");
    c.fill(0.0);
    gemm_nn_row_bands(m, k, n, a, b, c);
}

/// Whether [`gemm_nn`] runs the register-tiled `row_band` schedule for a
/// `k`-deep product of width `n` (otherwise the streaming `wide` one).
pub(crate) fn uses_row_band(k: usize, n: usize) -> bool {
    n <= GEMM_NARROW_N || k >= GEMM_DEEP_K
}

/// The `[k, n]` right-hand operand `B` of the register-tiled schedule, read
/// one `L`-wide column tile at a time. An explicit row-major matrix is one
/// form; the conv forward's zero-padded image, read as its own im2col
/// matrix, is the other.
pub(crate) trait ColumnOperand {
    /// Calls `f(p, B[p, j..j + L])` for every row `p` of `B`, in ascending
    /// order.
    fn for_each_tile_row<const L: usize>(&self, j: usize, f: impl FnMut(usize, &[f32; L]));
}

/// An explicit row-major `[k, n]` matrix.
struct DenseColumns<'a> {
    b: &'a [f32],
    n: usize,
}

impl ColumnOperand for DenseColumns<'_> {
    #[inline(always)]
    fn for_each_tile_row<const L: usize>(&self, j: usize, mut f: impl FnMut(usize, &[f32; L])) {
        for (p, row) in self.b.chunks_exact(self.n).enumerate() {
            f(p, row[j..j + L].try_into().expect("tile inside the row"));
        }
    }
}

/// The register-tiled schedule of [`gemm_nn`] over any [`ColumnOperand`]:
/// `C += A · B` in 4-row bands, then 1-row bands for the remainder. `A` is
/// `[m, k]`, `C` is `[m, n]`. The result depends only on the values of `B`,
/// never on how the operand stores them.
fn gemm_nn_row_bands(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &impl ColumnOperand,
    c: &mut [f32],
) {
    let mut ib = 0;
    while ib + 4 <= m {
        gemm_nn_row_band::<4>(ib, k, n, a, b, c);
        ib += 4;
    }
    while ib < m {
        gemm_nn_row_band::<1>(ib, k, n, a, b, c);
        ib += 1;
    }
}

/// The cache-blocked streaming schedule of [`gemm_nn`] (wide outputs).
fn gemm_nn_wide(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for jb in (0..n).step_by(GEMM_NC) {
        let je = (jb + GEMM_NC).min(n);
        for pb in (0..k).step_by(GEMM_KC) {
            let pe = (pb + GEMM_KC).min(k);
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let c_row = &mut c[i * n + jb..i * n + je];
                let mut p = pb;
                // Rank-4 update: four rows of B per pass over the C row.
                while p + 4 <= pe {
                    let (a0, a1, a2, a3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
                    let b0 = &b[p * n + jb..p * n + je];
                    let b1 = &b[(p + 1) * n + jb..(p + 1) * n + je];
                    let b2 = &b[(p + 2) * n + jb..(p + 2) * n + je];
                    let b3 = &b[(p + 3) * n + jb..(p + 3) * n + je];
                    for (idx, out) in c_row.iter_mut().enumerate() {
                        *out += a0 * b0[idx] + a1 * b1[idx] + a2 * b2[idx] + a3 * b3[idx];
                    }
                    p += 4;
                }
                while p < pe {
                    let ap = a_row[p];
                    if ap != 0.0 {
                        let b_row = &b[p * n + jb..p * n + je];
                        for (out, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                            *out += ap * bv;
                        }
                    }
                    p += 1;
                }
            }
        }
    }
}

/// One `R`-row band of the register-tiled schedule: accumulates
/// `C[ib..ib+R, :] += A[ib..ib+R, :] · B` in 16-wide column tiles, then
/// 8-wide ones, then single columns.
fn gemm_nn_row_band<const R: usize>(
    ib: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &impl ColumnOperand,
    c: &mut [f32],
) {
    let mut jb = 0;
    // Main tile: R×16 accumulators (2R packed-FMA dependency chains), wide
    // enough to hide FMA latency. Tile width does not affect numerics: every
    // output element accumulates over `k` in the same order regardless of
    // which tile it lands in.
    while jb + 16 <= n {
        row_band_tile::<R, 16>(ib, jb, k, n, a, b, c);
        jb += 16;
    }
    while jb + 8 <= n {
        row_band_tile::<R, 8>(ib, jb, k, n, a, b, c);
        jb += 8;
    }
    // Remainder columns (< 8): scalar accumulators per column.
    while jb < n {
        row_band_tile::<R, 1>(ib, jb, k, n, a, b, c);
        jb += 1;
    }
}

/// One R×L tile of [`gemm_nn_row_band`]: the accumulators stay in registers
/// across the whole `k` sweep, each summing its products in ascending `p`,
/// and are then added into `C[ib..ib+R, jb..jb+L]`.
#[inline(always)]
fn row_band_tile<const R: usize, const L: usize>(
    ib: usize,
    jb: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &impl ColumnOperand,
    c: &mut [f32],
) {
    let mut acc = [[0.0f32; L]; R];
    b.for_each_tile_row::<L>(jb, |p, bv| {
        for r in 0..R {
            let av = a[(ib + r) * k + p];
            for l in 0..L {
                acc[r][l] += av * bv[l];
            }
        }
    });
    for r in 0..R {
        let c_row = &mut c[(ib + r) * n + jb..(ib + r) * n + jb + L];
        for l in 0..L {
            c_row[l] += acc[r][l];
        }
    }
}

/// `C = A · Bᵀ` (or `C += A · Bᵀ` with `accumulate`), all row-major:
/// `A` is `[m, k]`, `B` is `[n, k]`, `C` is `[m, n]`.
///
/// Both operands are traversed along contiguous rows, so this is the
/// preferred kernel whenever the right-hand side is naturally transposed
/// (linear-layer forward, conv weight gradients).
///
/// # Panics
///
/// Panics if a buffer length does not match its dimensions.
pub fn gemm_nt(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
) {
    micronas_telemetry::counter_add("tensor.gemm.calls", 1);
    let _span = micronas_telemetry::span!("tensor.gemm");
    assert_eq!(a.len(), m * k, "gemm: A buffer has wrong length");
    assert_eq!(b.len(), n * k, "gemm: B buffer has wrong length");
    assert_eq!(c.len(), m * n, "gemm: C buffer has wrong length");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            // Four-lane dot product; lanes are summed pairwise at the end so
            // the result does not depend on the (fixed) unroll factor.
            let mut acc = [0.0f32; 4];
            let mut chunks_a = a_row.chunks_exact(4);
            let mut chunks_b = b_row.chunks_exact(4);
            for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
                acc[0] += ca[0] * cb[0];
                acc[1] += ca[1] * cb[1];
                acc[2] += ca[2] * cb[2];
                acc[3] += ca[3] * cb[3];
            }
            let mut dot = (acc[0] + acc[1]) + (acc[2] + acc[3]);
            for (&ra, &rb) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
                dot += ra * rb;
            }
            if accumulate {
                c[i * n + j] += dot;
            } else {
                c[i * n + j] = dot;
            }
        }
    }
}

/// `C = Aᵀ · B` (or `C += Aᵀ · B` with `accumulate`), all row-major:
/// `A` is `[k, m]`, `B` is `[k, n]`, `C` is `[m, n]`.
///
/// # Panics
///
/// Panics if a buffer length does not match its dimensions.
pub fn gemm_tn(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
) {
    micronas_telemetry::counter_add("tensor.gemm.calls", 1);
    gemm_tn_uncounted(m, k, n, a, b, c, accumulate);
}

/// [`gemm_tn`] without its `tensor.gemm.calls` count, for a kernel that
/// runs one logical dispatch as several products and counts it once. Still
/// timed under the `tensor.gemm` span.
pub(crate) fn gemm_tn_uncounted(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
) {
    let _span = micronas_telemetry::span!("tensor.gemm");
    assert_eq!(a.len(), k * m, "gemm: A buffer has wrong length");
    assert_eq!(b.len(), k * n, "gemm: B buffer has wrong length");
    assert_eq!(c.len(), m * n, "gemm: C buffer has wrong length");
    if !accumulate {
        c.fill(0.0);
    }
    for jb in (0..n).step_by(GEMM_NC) {
        let je = (jb + GEMM_NC).min(n);
        for pb in (0..k).step_by(GEMM_KC) {
            let pe = (pb + GEMM_KC).min(k);
            for i in 0..m {
                let c_row = &mut c[i * n + jb..i * n + je];
                let mut p = pb;
                while p + 4 <= pe {
                    let a0 = a[p * m + i];
                    let a1 = a[(p + 1) * m + i];
                    let a2 = a[(p + 2) * m + i];
                    let a3 = a[(p + 3) * m + i];
                    let b0 = &b[p * n + jb..p * n + je];
                    let b1 = &b[(p + 1) * n + jb..(p + 1) * n + je];
                    let b2 = &b[(p + 2) * n + jb..(p + 2) * n + je];
                    let b3 = &b[(p + 3) * n + jb..(p + 3) * n + je];
                    for (idx, out) in c_row.iter_mut().enumerate() {
                        *out += a0 * b0[idx] + a1 * b1[idx] + a2 * b2[idx] + a3 * b3[idx];
                    }
                    p += 4;
                }
                while p < pe {
                    let ap = a[p * m + i];
                    if ap != 0.0 {
                        let b_row = &b[p * n + jb..p * n + je];
                        for (out, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                            *out += ap * bv;
                        }
                    }
                    p += 1;
                }
            }
        }
    }
}

/// Length of the inner f32 panels of [`gram_nt_f64`]; each panel's partial
/// dot product is accumulated into `f64` before moving on, which bounds the
/// f32 accumulation error independently of the row length.
const GRAM_KC: usize = 256;

/// Symmetric Gram matrix `G = A · Aᵀ` of a row-major `[n, p]` matrix, in one
/// GEMM-style pass: f32 panel products with f64 panel accumulation.
///
/// This is the NTK Gram build over the contiguous `[n, P]` per-sample
/// gradient matrix. The inner loops run four f32 lanes over `GRAM_KC`-long
/// panels (the same shape the autovectoriser turns into packed FMAs in the
/// GEMM kernels); every panel's partial sum is then widened and accumulated
/// in f64. The result differs from an exact-f64 dot product by at most the
/// rounding of one panel, giving near-f64 accuracy at f32 speed — the
/// "f32 GEMM with f64 correction" scheme.
///
/// Only the lower triangle is computed; the upper triangle is mirrored.
///
/// # Panics
///
/// Panics if `a.len() != n * p` or `out.len() != n * n`.
pub fn gram_nt_f64(n: usize, p: usize, a: &[f32], out: &mut [f64]) {
    micronas_telemetry::counter_add("tensor.gram.calls", 1);
    let _span = micronas_telemetry::span!("tensor.gram");
    assert_eq!(a.len(), n * p, "gram: A buffer has wrong length");
    assert_eq!(out.len(), n * n, "gram: G buffer has wrong length");
    for i in 0..n {
        let row_i = &a[i * p..(i + 1) * p];
        for j in 0..=i {
            let row_j = &a[j * p..(j + 1) * p];
            let mut total = 0.0f64;
            let mut start = 0;
            while start < p {
                let end = (start + GRAM_KC).min(p);
                let mut acc = [0.0f32; 4];
                let mut chunks_a = row_i[start..end].chunks_exact(4);
                let mut chunks_b = row_j[start..end].chunks_exact(4);
                for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
                    acc[0] += ca[0] * cb[0];
                    acc[1] += ca[1] * cb[1];
                    acc[2] += ca[2] * cb[2];
                    acc[3] += ca[3] * cb[3];
                }
                let mut panel = (acc[0] as f64 + acc[1] as f64) + (acc[2] as f64 + acc[3] as f64);
                for (&ra, &rb) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
                    panel += ra as f64 * rb as f64;
                }
                total += panel;
                start = end;
            }
            out[i * n + j] = total;
            out[j * n + i] = total;
        }
    }
}

/// Options controlling the Jacobi eigenvalue iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EigenOptions {
    /// Maximum number of full sweeps over all off-diagonal elements.
    pub max_sweeps: usize,
    /// Convergence threshold on the off-diagonal Frobenius norm.
    pub tolerance: f64,
}

impl Default for EigenOptions {
    fn default() -> Self {
        Self {
            max_sweeps: 64,
            tolerance: 1e-10,
        }
    }
}

/// Result of a symmetric eigendecomposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EigenReport {
    /// Eigenvalues sorted in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Number of Jacobi sweeps performed.
    pub sweeps: usize,
    /// Whether the iteration reached the requested tolerance.
    pub converged: bool,
}

impl EigenReport {
    /// Largest eigenvalue.
    pub fn lambda_max(&self) -> f64 {
        *self
            .eigenvalues
            .last()
            .expect("eigenvalue list is never empty")
    }

    /// Smallest eigenvalue.
    pub fn lambda_min(&self) -> f64 {
        self.eigenvalues[0]
    }

    /// Ratio λ_max / λ_i where `i` is a 1-based index from the smallest
    /// eigenvalue (i = 1 is the classic condition number).
    ///
    /// Indices beyond the matrix size saturate at the last eigenvalue. The
    /// denominator is clamped to a small positive value so the ratio stays
    /// finite for singular Gram matrices.
    pub fn condition_index(&self, i: usize) -> f64 {
        let idx = i.saturating_sub(1).min(self.eigenvalues.len() - 1);
        let denom = self.eigenvalues[idx].max(1e-12);
        self.lambda_max() / denom
    }
}

/// Computes all eigenvalues of a symmetric matrix given as a rank-2 tensor.
///
/// Only the eigenvalues are returned (eigenvectors are not needed by any
/// proxy). The input is symmetrised as `(A + Aᵀ) / 2` to absorb floating
/// point asymmetry from the Gram-matrix accumulation.
///
/// # Errors
///
/// Returns an error if the tensor is not a non-empty square matrix or the
/// iteration fails to make progress.
pub fn sym_eigenvalues(matrix: &Tensor, options: EigenOptions) -> Result<EigenReport> {
    sym_eigenvalues_with(matrix, options, &mut Vec::new())
}

/// Scratch-reusing variant of [`sym_eigenvalues`].
///
/// The symmetrised working copy of the matrix is built directly inside
/// `scratch` (grown once, then reused), so repeated decompositions — the NTK
/// repeat loop decomposes one Gram matrix per repeat — stop allocating. The
/// off-diagonal norm is accumulated during the same fill pass, so a matrix
/// that is already diagonal to within tolerance returns after sweep 0
/// without any rotation work.
///
/// # Errors
///
/// Returns an error if the tensor is not a non-empty square matrix.
pub fn sym_eigenvalues_with(
    matrix: &Tensor,
    options: EigenOptions,
    scratch: &mut Vec<f64>,
) -> Result<EigenReport> {
    let dims = matrix.shape().dims();
    if dims.len() != 2 {
        return Err(TensorError::RankMismatch {
            op: "sym_eigenvalues",
            expected: 2,
            actual: dims.len(),
        });
    }
    if dims[0] != dims[1] {
        return Err(TensorError::IncompatibleShapes {
            op: "sym_eigenvalues (square)",
            lhs: dims.to_vec(),
            rhs: dims.to_vec(),
        });
    }
    let n = dims[0];
    if n == 0 {
        return Err(TensorError::InvalidArgument(
            "cannot decompose an empty matrix".into(),
        ));
    }

    // Work in f64 for stability: NTK Gram entries can span many orders of
    // magnitude. The symmetrised copy is built straight into the reusable
    // scratch buffer, fusing the off-diagonal norm into the same pass.
    scratch.clear();
    scratch.resize(n * n, 0.0);
    let a = &mut scratch[..n * n];
    let data = matrix.data();
    let mut initial_off = 0.0f64;
    for i in 0..n {
        a[i * n + i] = data[i * n + i] as f64;
        for j in (i + 1)..n {
            let v = 0.5 * (data[i * n + j] as f64 + data[j * n + i] as f64);
            a[i * n + j] = v;
            a[j * n + i] = v;
            initial_off += v * v;
        }
    }

    let off_diag_norm = |a: &[f64]| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                s += a[i * n + j] * a[i * n + j];
            }
        }
        (2.0 * s).sqrt()
    };

    let mut sweeps = 0;
    // Early exit at sweep 0: already (numerically) diagonal.
    let mut converged = (2.0 * initial_off).sqrt() <= options.tolerance;
    while !converged && sweeps < options.max_sweeps {
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[p * n + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a[p * n + p];
                let aqq = a[q * n + q];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                for k in 0..n {
                    let akp = a[k * n + p];
                    let akq = a[k * n + q];
                    a[k * n + p] = c * akp - s * akq;
                    a[k * n + q] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[p * n + k];
                    let aqk = a[q * n + k];
                    a[p * n + k] = c * apk - s * aqk;
                    a[q * n + k] = s * apk + c * aqk;
                }
            }
        }
        sweeps += 1;
        converged = off_diag_norm(a) <= options.tolerance;
    }

    let mut eigenvalues: Vec<f64> = (0..n).map(|i| a[i * n + i]).collect();
    eigenvalues.sort_by(|x, y| x.partial_cmp(y).expect("eigenvalues are finite"));
    Ok(EigenReport {
        eigenvalues,
        sweeps,
        converged,
    })
}

/// Convenience wrapper: the classic condition number λ_max / λ_min of a
/// symmetric matrix, clamped to be finite.
///
/// # Errors
///
/// Propagates errors from [`sym_eigenvalues`].
pub fn condition_number(matrix: &Tensor, options: EigenOptions) -> Result<f64> {
    let report = sym_eigenvalues(matrix, options)?;
    Ok(report.condition_index(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeterministicRng, Shape};

    fn tensor_from(n: usize, vals: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::d2(n, n), vals.to_vec()).unwrap()
    }

    fn naive_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    fn random_mat(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
        let mut rng = DeterministicRng::new(seed);
        (0..rows * cols).map(|_| rng.normal()).collect()
    }

    fn assert_close(lhs: &[f32], rhs: &[f32]) {
        assert_eq!(lhs.len(), rhs.len());
        for (x, y) in lhs.iter().zip(rhs.iter()) {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn gram_nt_f64_matches_exact_f64_dots() {
        for &(n, p) in &[(1usize, 1usize), (3, 7), (5, 256), (8, 1023), (4, 424)] {
            let a = random_mat(n, p, 7);
            let mut g = vec![f64::NAN; n * n];
            gram_nt_f64(n, p, &a, &mut g);
            for i in 0..n {
                for j in 0..n {
                    let exact: f64 = a[i * p..(i + 1) * p]
                        .iter()
                        .zip(&a[j * p..(j + 1) * p])
                        .map(|(&x, &y)| x as f64 * y as f64)
                        .sum();
                    let got = g[i * n + j];
                    assert!(
                        (got - exact).abs() <= 1e-4 * (1.0 + exact.abs()),
                        "({i},{j}) at n={n} p={p}: {got} vs {exact}"
                    );
                    assert_eq!(g[i * n + j], g[j * n + i], "gram must be symmetric");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn gram_nt_f64_checks_lengths() {
        let mut g = vec![0.0f64; 4];
        gram_nt_f64(2, 3, &[0.0; 5], &mut g);
    }

    #[test]
    fn gemm_nn_matches_naive_across_odd_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 130, 9),
            (4, 4, 600),
            (33, 257, 19),
        ] {
            let a = random_mat(m, k, 1);
            let b = random_mat(k, n, 2);
            let mut c = vec![f32::NAN; m * n];
            gemm_nn(m, k, n, &a, &b, &mut c, false);
            assert_close(&c, &naive_nn(m, k, n, &a, &b));
        }
    }

    #[test]
    fn gemm_nn_accumulates() {
        let (m, k, n) = (5, 9, 11);
        let a = random_mat(m, k, 3);
        let b = random_mat(k, n, 4);
        let mut c = vec![1.0f32; m * n];
        gemm_nn(m, k, n, &a, &b, &mut c, true);
        let expected: Vec<f32> = naive_nn(m, k, n, &a, &b).iter().map(|v| v + 1.0).collect();
        assert_close(&c, &expected);
    }

    #[test]
    fn gemm_nt_matches_nn_of_transpose() {
        for &(m, k, n) in &[(2, 3, 4), (7, 129, 5), (1, 64, 1)] {
            let a = random_mat(m, k, 5);
            let bt = random_mat(n, k, 6); // B is [n, k]
                                          // Build B = [k, n] explicitly.
            let mut b = vec![0.0f32; k * n];
            for j in 0..n {
                for p in 0..k {
                    b[p * n + j] = bt[j * k + p];
                }
            }
            let mut c = vec![0.0f32; m * n];
            gemm_nt(m, k, n, &a, &bt, &mut c, false);
            assert_close(&c, &naive_nn(m, k, n, &a, &b));
        }
    }

    #[test]
    fn gemm_tn_matches_nn_of_transpose() {
        for &(m, k, n) in &[(2, 3, 4), (6, 130, 9), (1, 5, 600)] {
            let at = random_mat(k, m, 7); // A is [k, m]
            let b = random_mat(k, n, 8);
            let mut a = vec![0.0f32; m * k];
            for p in 0..k {
                for i in 0..m {
                    a[i * k + p] = at[p * m + i];
                }
            }
            let mut c = vec![0.0f32; m * n];
            gemm_tn(m, k, n, &at, &b, &mut c, false);
            assert_close(&c, &naive_nn(m, k, n, &a, &b));
        }
    }

    #[test]
    #[should_panic]
    fn gemm_rejects_bad_lengths() {
        let mut c = vec![0.0f32; 4];
        gemm_nn(2, 3, 2, &[0.0; 5], &[0.0; 6], &mut c, false);
    }

    #[test]
    fn scratch_variant_matches_and_reuses() {
        let mut rng = DeterministicRng::new(31);
        let n = 10;
        let vals: Vec<f32> = (0..n * n).map(|_| rng.normal()).collect();
        let b = tensor_from(n, &vals);
        let sym = b.add(&b.transpose().unwrap()).unwrap();
        let plain = sym_eigenvalues(&sym, EigenOptions::default()).unwrap();
        let mut scratch = Vec::new();
        let reused = sym_eigenvalues_with(&sym, EigenOptions::default(), &mut scratch).unwrap();
        assert_eq!(plain, reused);
        let cap = scratch.capacity();
        let again = sym_eigenvalues_with(&sym, EigenOptions::default(), &mut scratch).unwrap();
        assert_eq!(plain, again);
        assert_eq!(scratch.capacity(), cap, "second call must not reallocate");
    }

    #[test]
    fn already_diagonal_matrix_converges_in_zero_sweeps() {
        let m = tensor_from(3, &[3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        let rep = sym_eigenvalues(&m, EigenOptions::default()).unwrap();
        assert!(rep.converged);
        assert_eq!(
            rep.sweeps, 0,
            "diagonal input must early-exit before any sweep"
        );
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_diagonal() {
        let m = tensor_from(3, &[3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        let rep = sym_eigenvalues(&m, EigenOptions::default()).unwrap();
        assert!(rep.converged);
        let evs: Vec<f64> = rep.eigenvalues.clone();
        assert!((evs[0] - 1.0).abs() < 1e-9);
        assert!((evs[1] - 2.0).abs() < 1e-9);
        assert!((evs[2] - 3.0).abs() < 1e-9);
        assert!((rep.condition_index(1) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn known_2x2_eigenvalues() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let m = tensor_from(2, &[2.0, 1.0, 1.0, 2.0]);
        let rep = sym_eigenvalues(&m, EigenOptions::default()).unwrap();
        assert!((rep.lambda_min() - 1.0).abs() < 1e-9);
        assert!((rep.lambda_max() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn trace_is_preserved() {
        let mut rng = DeterministicRng::new(17);
        let n = 12;
        // Build a random symmetric matrix A = B + Bᵀ.
        let mut vals = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                vals[i * n + j] = rng.normal();
            }
        }
        let b = tensor_from(n, &vals);
        let sym = b.add(&b.transpose().unwrap()).unwrap();
        let trace: f64 = (0..n).map(|i| sym.at2(i, i) as f64).sum();
        let rep = sym_eigenvalues(&sym, EigenOptions::default()).unwrap();
        let sum: f64 = rep.eigenvalues.iter().sum();
        assert!((trace - sum).abs() < 1e-3 * (1.0 + trace.abs()));
    }

    #[test]
    fn gram_matrix_is_psd() {
        // G = J Jᵀ must have non-negative eigenvalues.
        let mut rng = DeterministicRng::new(23);
        let (rows, cols) = (8, 20);
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.normal()).collect();
        let j = Tensor::from_vec(Shape::d2(rows, cols), data).unwrap();
        let g = j.matmul(&j.transpose().unwrap()).unwrap();
        let rep = sym_eigenvalues(&g, EigenOptions::default()).unwrap();
        assert!(
            rep.eigenvalues.iter().all(|&e| e > -1e-4),
            "{:?}",
            rep.eigenvalues
        );
    }

    #[test]
    fn condition_index_saturates_and_is_monotone() {
        let m = tensor_from(3, &[4.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0]);
        let rep = sym_eigenvalues(&m, EigenOptions::default()).unwrap();
        // K1 = 4/1, K2 = 4/2, K3 = 4/4, K10 saturates at K3.
        assert!((rep.condition_index(1) - 4.0).abs() < 1e-9);
        assert!((rep.condition_index(2) - 2.0).abs() < 1e-9);
        assert!((rep.condition_index(3) - 1.0).abs() < 1e-9);
        assert_eq!(rep.condition_index(10), rep.condition_index(3));
        assert!(rep.condition_index(1) >= rep.condition_index(2));
    }

    #[test]
    fn rejects_non_square_and_empty() {
        let rect = Tensor::zeros(Shape::d2(2, 3));
        assert!(sym_eigenvalues(&rect, EigenOptions::default()).is_err());
        let empty = Tensor::zeros(Shape::d2(0, 0));
        assert!(sym_eigenvalues(&empty, EigenOptions::default()).is_err());
        let vec1 = Tensor::zeros(Shape::d1(4));
        assert!(sym_eigenvalues(&vec1, EigenOptions::default()).is_err());
    }

    #[test]
    fn condition_number_of_identity_is_one() {
        let mut eye = Tensor::zeros(Shape::d2(5, 5));
        for i in 0..5 {
            *eye.at2_mut(i, i) = 1.0;
        }
        let k = condition_number(&eye, EigenOptions::default()).unwrap();
        assert!((k - 1.0).abs() < 1e-9);
    }

    #[test]
    fn singular_matrix_condition_is_finite() {
        // Rank-1 matrix: eigenvalues {0, 0, something}; condition clamps denominator.
        let m = tensor_from(3, &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let k = condition_number(&m, EigenOptions::default()).unwrap();
        assert!(k.is_finite());
        assert!(k > 1e6);
    }
}
