//! The SIMD-tiled, rayon-chunked CPU backend (`"simd"`).
//!
//! Two levers the paper-default blocked kernels deliberately leave on the
//! table, because pulling them changes floating-point results:
//!
//! 1. **Packed FMA micro-kernels.** rustc never contracts `a * b + c` into a
//!    fused multiply-add (contraction changes rounding), so the blocked
//!    GEMM's autovectorised inner loops issue separate multiply and add
//!    instructions. This backend's GEMM kernels use explicit AVX2
//!    `_mm256_fmadd_ps` tiles — half the floating-point instruction count on
//!    the dominant inner loops, with the (tolerance-gated) single-rounding
//!    semantics of FMA.
//! 2. **Within-batch parallelism.** Samples are independent through every
//!    convolution, so the forward and per-sample-backward kernels split the
//!    batch into **fixed-size** chunks and fan them out on the rayon pool.
//!    Chunk boundaries depend only on the batch size — never on the thread
//!    count — and every sample's values are computed by the same sequential
//!    code, so results are bitwise-identical at any thread count (including
//!    the sequential path taken when one thread is available).
//!
//! On targets without AVX2+FMA (the workspace pins `x86-64-v3`, so this only
//! affects foreign architectures), the GEMM kernels fall back to the blocked
//! scalar schedule; the backend stays correct, merely without the FMA win.
//! The backend is **not** bitwise-identical to the paper default — FMA
//! contraction rounds once where the blocked kernels round twice — so it
//! carries its own store identity and the conformance suite gates it by
//! tolerance against the direct oracle.

use crate::backend::{backend_fingerprint, KernelBackend};
use crate::conv::{
    below_direct_threshold, check_backward_input_args, check_backward_weight_args, check_conv_args,
    check_per_sample_args, col2im_add, conv2d_backward_input_unchecked,
    conv2d_backward_weight_unchecked, conv2d_direct_unchecked, im2col,
};
use crate::pool::{avg_pool2d_backward_pooled, avg_pool2d_pooled};
use crate::{Conv2dSpec, Result, Shape, Tensor, Workspace};
use rayon::prelude::*;

/// Samples per parallel work item. Fixed — parallel decomposition must be a
/// pure function of the batch size so results and work items are identical
/// at every thread count.
const BATCH_CHUNK: usize = 4;

/// The SIMD-tiled, rayon-chunked CPU backend. Stateless; see the module
/// docs for the execution model.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimdBackend;

impl SimdBackend {
    /// Whether the packed-FMA kernels are compiled in (true on any
    /// `x86-64-v3` build, e.g. via this workspace's `.cargo/config.toml`).
    pub fn fma_kernels_active() -> bool {
        cfg!(all(
            target_arch = "x86_64",
            target_feature = "avx2",
            target_feature = "fma"
        ))
    }
}

// ---------------------------------------------------------------------------
// FMA GEMM kernels
// ---------------------------------------------------------------------------

/// `C (+)= A · B`, row-major, with packed-FMA accumulator tiles.
pub(crate) fn gemm_nn_fma(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "gemm: A buffer has wrong length");
    assert_eq!(b.len(), k * n, "gemm: B buffer has wrong length");
    assert_eq!(c.len(), m * n, "gemm: C buffer has wrong length");
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        if !accumulate {
            c.fill(0.0);
        }
        let mut i = 0;
        while i + 6 <= m {
            fma::nn_band::<6>(i, k, n, a, b, c);
            i += 6;
        }
        while i + 2 <= m {
            fma::nn_band::<2>(i, k, n, a, b, c);
            i += 2;
        }
        while i < m {
            fma::nn_band::<1>(i, k, n, a, b, c);
            i += 1;
        }
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    crate::linalg::gemm_nn(m, k, n, a, b, c, accumulate);
}

/// `C (+)= Aᵀ · B` with `A` row-major `[k, m]`, packed-FMA tiles.
pub(crate) fn gemm_tn_fma(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
) {
    assert_eq!(a.len(), k * m, "gemm: A buffer has wrong length");
    assert_eq!(b.len(), k * n, "gemm: B buffer has wrong length");
    assert_eq!(c.len(), m * n, "gemm: C buffer has wrong length");
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        if !accumulate {
            c.fill(0.0);
        }
        let mut i = 0;
        while i + 6 <= m {
            fma::tn_band::<6>(i, k, n, a, b, c);
            i += 6;
        }
        while i + 2 <= m {
            fma::tn_band::<2>(i, k, n, a, b, c);
            i += 2;
        }
        while i < m {
            fma::tn_band::<1>(i, k, n, a, b, c);
            i += 1;
        }
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    crate::linalg::gemm_tn(m, k, n, a, b, c, accumulate);
}

/// `C (+)= A · Bᵀ` with `B` row-major `[n, k]`: packed-FMA dot products
/// along `k` (eight simultaneous dots per accumulator tile).
pub(crate) fn gemm_nt_fma(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "gemm: A buffer has wrong length");
    assert_eq!(b.len(), n * k, "gemm: B buffer has wrong length");
    assert_eq!(c.len(), m * n, "gemm: C buffer has wrong length");
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        if !accumulate {
            c.fill(0.0);
        }
        for i in 0..m {
            fma::nt_row(i, k, n, a, b, c);
        }
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    crate::linalg::gemm_nt(m, k, n, a, b, c, accumulate);
}

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
mod fma {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_fmadd_ps,
        _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps, _mm_add_ps,
        _mm_add_ss, _mm_cvtss_f32, _mm_movehdup_ps, _mm_movehl_ps,
    };

    /// One `R`-row band of the FMA `gemm_nn`: `C[i..i+R, :] += A[i..i+R, :]·B`.
    ///
    /// Accumulator tiles (`R`×16, then `R`×8, then scalar columns) live in
    /// vector registers across the whole `k` sweep; the only C traffic is one
    /// load-add-store per tile at the end. Tile width never affects numerics:
    /// every output element accumulates over `k` in index order.
    pub(super) fn nn_band<const R: usize>(
        i: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        band::<R, false>(i, k, n, a, b, c);
    }

    /// One `R`-row band of the FMA `gemm_tn` (`A` is `[k, m]`).
    pub(super) fn tn_band<const R: usize>(
        i: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        band::<R, true>(i, k, n, a, b, c);
    }

    /// Shared band body. `TRANSPOSED_A` selects the `A` element layout:
    /// `a[(i+r)*k + p]` (row-major) or `a[p*m + i + r]` (column of a
    /// `[k, m]` matrix); the reduction order is identical.
    fn band<const R: usize, const TRANSPOSED_A: bool>(
        i: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) {
        // `m` only matters for the transposed-A stride.
        let m_stride = if TRANSPOSED_A { a.len() / k.max(1) } else { 0 };
        // SAFETY of the unchecked A reads below: `i + R <= m` (callers' band
        // loops) and `p < k`, so both layouts index inside `a` (length
        // asserted `m·k` by the entry points).
        let a_at = |r: usize, p: usize| -> f32 {
            unsafe {
                if TRANSPOSED_A {
                    *a.get_unchecked(p * m_stride + i + r)
                } else {
                    *a.get_unchecked((i + r) * k + p)
                }
            }
        };
        let mut jb = 0;
        // R×16 main tile: 2R accumulator registers, two packed FMAs per A
        // broadcast — wide enough to hide the 4-5 cycle FMA latency.
        while jb + 16 <= n {
            // SAFETY: all lane loads/stores below stay inside `b` / `c`:
            // `p < k`, `jb + 16 <= n`, `i + R <= m` by the callers' band
            // loops, and buffer lengths are asserted by the entry points.
            unsafe {
                let mut acc0 = [_mm256_setzero_ps(); R];
                let mut acc1 = [_mm256_setzero_ps(); R];
                for p in 0..k {
                    let b0 = _mm256_loadu_ps(b.as_ptr().add(p * n + jb));
                    let b1 = _mm256_loadu_ps(b.as_ptr().add(p * n + jb + 8));
                    for r in 0..R {
                        let av = _mm256_set1_ps(a_at(r, p));
                        acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
                        acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
                    }
                }
                for r in 0..R {
                    let ptr = c.as_mut_ptr().add((i + r) * n + jb);
                    store_add(ptr, acc0[r]);
                    store_add(ptr.add(8), acc1[r]);
                }
            }
            jb += 16;
        }
        while jb + 8 <= n {
            // SAFETY: as above with an 8-wide tile.
            unsafe {
                let mut acc = [_mm256_setzero_ps(); R];
                for p in 0..k {
                    let bv = _mm256_loadu_ps(b.as_ptr().add(p * n + jb));
                    for (r, slot) in acc.iter_mut().enumerate() {
                        *slot = _mm256_fmadd_ps(_mm256_set1_ps(a_at(r, p)), bv, *slot);
                    }
                }
                for (r, &v) in acc.iter().enumerate() {
                    store_add(c.as_mut_ptr().add((i + r) * n + jb), v);
                }
            }
            jb += 8;
        }
        // Scalar remainder columns, FMA-contracted to match the packed lanes.
        for j in jb..n {
            let mut acc = [0.0f32; R];
            for p in 0..k {
                let bv = b[p * n + j];
                for (r, slot) in acc.iter_mut().enumerate() {
                    *slot = a_at(r, p).mul_add(bv, *slot);
                }
            }
            for (r, &v) in acc.iter().enumerate() {
                c[(i + r) * n + j] += v;
            }
        }
    }

    /// `*ptr..*ptr+8 += v` (packed).
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for reading and writing 8 `f32` lanes.
    #[inline(always)]
    unsafe fn store_add(ptr: *mut f32, v: __m256) {
        _mm256_storeu_ps(ptr, _mm256_add_ps(_mm256_loadu_ps(ptr), v));
    }

    /// Horizontal sum of the 8 lanes.
    #[inline(always)]
    fn hsum(v: __m256) -> f32 {
        // SAFETY: pure register arithmetic; no memory access.
        unsafe {
            let lo = _mm256_castps256_ps128(v);
            let hi = _mm256_extractf128_ps(v, 1);
            let q = _mm_add_ps(lo, hi);
            let s = _mm_add_ps(q, _mm_movehl_ps(q, q));
            let s = _mm_add_ss(s, _mm_movehdup_ps(s));
            _mm_cvtss_f32(s)
        }
    }

    /// One row of the FMA `gemm_nt`: `C[i, :] += dot(A[i, :], B[j, :])` for
    /// every `j`, eight dots at a time. Each dot reduces its lane partials
    /// once at the end; the lane decomposition depends only on `k`, so
    /// results are deterministic.
    pub(super) fn nt_row(i: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        let a_row = &a[i * k..(i + 1) * k];
        let k_main = k - k % 8;
        let mut j = 0;
        while j + 8 <= n {
            // SAFETY: `p + 8 <= k_main <= k` and `j + 8 <= n` bound every
            // 8-lane load inside `a_row` / `b`'s row `j + jj`.
            unsafe {
                let mut acc = [_mm256_setzero_ps(); 8];
                let mut p = 0;
                while p < k_main {
                    let av = _mm256_loadu_ps(a_row.as_ptr().add(p));
                    for (jj, slot) in acc.iter_mut().enumerate() {
                        let bv = _mm256_loadu_ps(b.as_ptr().add((j + jj) * k + p));
                        *slot = _mm256_fmadd_ps(av, bv, *slot);
                    }
                    p += 8;
                }
                for (jj, &lanes) in acc.iter().enumerate() {
                    let mut dot = hsum(lanes);
                    for p in k_main..k {
                        dot = a_row[p].mul_add(b[(j + jj) * k + p], dot);
                    }
                    c[i * n + j + jj] += dot;
                }
            }
            j += 8;
        }
        for jj in j..n {
            // SAFETY: as above for the remainder columns.
            unsafe {
                let mut acc = _mm256_setzero_ps();
                let mut p = 0;
                while p < k_main {
                    let av = _mm256_loadu_ps(a_row.as_ptr().add(p));
                    let bv = _mm256_loadu_ps(b.as_ptr().add(jj * k + p));
                    acc = _mm256_fmadd_ps(av, bv, acc);
                    p += 8;
                }
                let mut dot = hsum(acc);
                for p in k_main..k {
                    dot = a_row[p].mul_add(b[jj * k + p], dot);
                }
                c[i * n + jj] += dot;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Convolution on the FMA kernels
// ---------------------------------------------------------------------------

/// Computes the forward convolution of samples `lo..hi` into `out_chunk`
/// (laid out as `hi - lo` consecutive `[C_out, OH, OW]` images), lowering
/// through `col`. The sequential kernel both the one-thread path and every
/// parallel work item run.
#[allow(clippy::too_many_arguments)]
fn forward_chunk(
    input: &Tensor,
    w_mat: &[f32],
    spec: Conv2dSpec,
    geo: ConvGeometry,
    lo: usize,
    hi: usize,
    col: &mut [f32],
    out_chunk: &mut [f32],
) {
    let ConvGeometry {
        c_in,
        h,
        w,
        c_out,
        oh,
        ow,
    } = geo;
    let ohow = oh * ow;
    let ckk = c_in * spec.kernel * spec.kernel;
    let in_stride = c_in * h * w;
    let out_stride = c_out * ohow;
    for b in lo..hi {
        let image = &input.data()[b * in_stride..(b + 1) * in_stride];
        let dst = &mut out_chunk[(b - lo) * out_stride..(b - lo + 1) * out_stride];
        if spec.is_pointwise() {
            gemm_nn_fma(c_out, ckk, ohow, w_mat, image, dst, false);
        } else {
            im2col(image, c_in, h, w, spec, oh, ow, col);
            gemm_nn_fma(c_out, ckk, ohow, w_mat, col, dst, false);
        }
    }
}

/// Per-sample weight gradients of samples `lo..hi`, written as consecutive
/// `[C_out·C_in·K·K]` rows of `out_chunk` — the per-item kernel of the
/// chunked per-sample backward.
///
/// Unlike the blocked backend's transposed narrow formulation, each sample's
/// gradient is one transpose-free `grad_W_b = g_b · col_bᵀ` dot-product GEMM
/// ([`gemm_nt_fma`]): the reduction runs along the deep `OH·OW` axis where
/// the packed-FMA lanes live, and the result lands directly in the
/// `[C_out, C_in·K·K]` weight layout.
#[allow(clippy::too_many_arguments)]
fn per_sample_chunk(
    input: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
    geo: ConvGeometry,
    lo: usize,
    hi: usize,
    col: &mut [f32],
    out_chunk: &mut [f32],
) {
    let ConvGeometry {
        c_in,
        h,
        w,
        c_out,
        oh,
        ow,
    } = geo;
    let k = spec.kernel;
    let ohow = oh * ow;
    let ckk = c_in * k * k;
    let per_sample = c_out * ckk;
    let in_stride = c_in * h * w;
    let out_stride = c_out * ohow;
    for b in lo..hi {
        let image = &input.data()[b * in_stride..(b + 1) * in_stride];
        let bmat: &[f32] = if spec.is_pointwise() {
            image
        } else {
            im2col(image, c_in, h, w, spec, oh, ow, col);
            col
        };
        let g = &grad_out.data()[b * out_stride..(b + 1) * out_stride];
        let dst = &mut out_chunk[(b - lo) * per_sample..(b - lo + 1) * per_sample];
        gemm_nt_fma(c_out, ohow, ckk, g, bmat, dst, false);
    }
}

/// The shape parameters of one convolution call, bundled so the chunk
/// kernels stay under the argument-count lint.
#[derive(Clone, Copy)]
struct ConvGeometry {
    c_in: usize,
    h: usize,
    w: usize,
    c_out: usize,
    oh: usize,
    ow: usize,
}

/// The fixed chunk decomposition of a batch: `[lo, hi)` sample ranges of at
/// most [`BATCH_CHUNK`] samples, independent of the thread count.
fn batch_chunks(n: usize) -> Vec<(usize, usize)> {
    (0..n.div_ceil(BATCH_CHUNK))
        .map(|c| (c * BATCH_CHUNK, ((c + 1) * BATCH_CHUNK).min(n)))
        .collect()
}

impl KernelBackend for SimdBackend {
    fn id(&self) -> &str {
        "simd"
    }

    fn config_fingerprint(&self) -> u64 {
        // The fallback build produces different (non-FMA) values, so it is a
        // different numerical configuration of the same backend family. The
        // tiny-shape dispatch threshold is part of the numerics too (it
        // decides which shapes run the direct loops), so it is folded in:
        // the values are a pure function of inputs and this fingerprint.
        backend_fingerprint(
            "simd",
            1,
            &[
                BATCH_CHUNK as u64,
                Self::fma_kernels_active() as u64,
                crate::conv::DIRECT_MAC_THRESHOLD as u64,
            ],
        )
    }

    fn conv2d(
        &self,
        input: &Tensor,
        weight: &Tensor,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        let (n, c_in, h, w, c_out, k) = check_conv_args(input, weight, spec)?;
        let (oh, ow) = spec.output_hw(h, w);
        let mut out = Tensor::from_vec(
            Shape::nchw(n, c_out, oh, ow),
            workspace.take(n * c_out * oh * ow),
        )
        .expect("length matches shape by construction");
        if below_direct_threshold(n, c_in, c_out, k, oh, ow) {
            // Tiny problems: the lowering costs more than FMA saves; the
            // direct loops write every output element.
            conv2d_direct_unchecked(input, weight, spec, n, c_in, h, w, c_out, oh, ow, &mut out);
            return Ok(out);
        }
        let geo = ConvGeometry {
            c_in,
            h,
            w,
            c_out,
            oh,
            ow,
        };
        let ohow = oh * ow;
        let ckk = c_in * k * k;
        let out_stride = c_out * ohow;
        let col_len = if spec.is_pointwise() { 0 } else { ckk * ohow };
        let w_mat = weight.data();
        if rayon::current_num_threads() > 1 && n > BATCH_CHUNK {
            // Fixed-size chunks fan out on the pool; each work item owns its
            // scratch and its disjoint output range, and results are copied
            // back in chunk order — bitwise-identical to the sequential path.
            let chunks = batch_chunks(n);
            let parts: Vec<Vec<f32>> = chunks
                .par_iter()
                .map(|&(lo, hi)| {
                    let mut col = vec![0.0f32; col_len];
                    let mut part = vec![0.0f32; (hi - lo) * out_stride];
                    forward_chunk(input, w_mat, spec, geo, lo, hi, &mut col, &mut part);
                    part
                })
                .collect();
            let out_data = out.data_mut();
            for (&(lo, _), part) in chunks.iter().zip(&parts) {
                out_data[lo * out_stride..lo * out_stride + part.len()].copy_from_slice(part);
            }
        } else {
            let col = workspace.col_buffer(col_len.max(1));
            forward_chunk(input, w_mat, spec, geo, 0, n, col, out.data_mut());
        }
        Ok(out)
    }

    fn conv2d_backward_input(
        &self,
        weight: &Tensor,
        grad_out: &Tensor,
        input_shape: &Shape,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        let (n, c_in, h, w, c_out, oh, ow) =
            check_backward_input_args(weight, grad_out, input_shape, spec)?;
        let mut grad_in = Tensor::from_vec(
            input_shape.clone(),
            workspace.take_zeroed(input_shape.numel()),
        )
        .expect("length matches shape by construction");
        let k = spec.kernel;
        if below_direct_threshold(n, c_in, c_out, k, oh, ow) {
            conv2d_backward_input_unchecked(
                weight,
                grad_out,
                spec,
                n,
                c_in,
                h,
                w,
                c_out,
                oh,
                ow,
                &mut grad_in,
            );
            return Ok(grad_in);
        }
        let ohow = oh * ow;
        let ckk = c_in * k * k;
        let in_stride = c_in * h * w;
        let out_stride = c_out * ohow;
        let w_mat = weight.data();
        let gi = grad_in.data_mut();
        if spec.is_pointwise() {
            for b in 0..n {
                let g = &grad_out.data()[b * out_stride..(b + 1) * out_stride];
                let dst = &mut gi[b * in_stride..(b + 1) * in_stride];
                gemm_tn_fma(ckk, c_out, ohow, w_mat, g, dst, false);
            }
            return Ok(grad_in);
        }
        let stage = workspace.aux_buffer(ckk * ohow);
        for b in 0..n {
            let g = &grad_out.data()[b * out_stride..(b + 1) * out_stride];
            gemm_tn_fma(ckk, c_out, ohow, w_mat, g, stage, false);
            let dst = &mut gi[b * in_stride..(b + 1) * in_stride];
            col2im_add(stage, c_in, h, w, spec, oh, ow, dst);
        }
        Ok(grad_in)
    }

    fn conv2d_backward_weight(
        &self,
        input: &Tensor,
        grad_out: &Tensor,
        c_out: usize,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        let (n, c_in, h, w, oh, ow) = check_backward_weight_args(input, grad_out, c_out, spec)?;
        let k = spec.kernel;
        if below_direct_threshold(n, c_in, c_out, k, oh, ow) {
            return Ok(conv2d_backward_weight_unchecked(
                input, grad_out, c_out, spec, n, c_in, h, w, oh, ow,
            ));
        }
        let mut grad_w = Tensor::zeros(Shape::nchw(c_out, c_in, k, k));
        let ohow = oh * ow;
        let ckk = c_in * k * k;
        let in_stride = c_in * h * w;
        let out_stride = c_out * ohow;
        let col_len = if spec.is_pointwise() { 0 } else { ckk * ohow };
        let col = workspace.col_buffer(col_len.max(1));
        // Transpose-free accumulation: grad_W += g_b · col_bᵀ lands straight
        // in the [C_out, C_in·K·K] weight layout.
        for b in 0..n {
            let image = &input.data()[b * in_stride..(b + 1) * in_stride];
            let bmat: &[f32] = if spec.is_pointwise() {
                image
            } else {
                im2col(image, c_in, h, w, spec, oh, ow, col);
                col
            };
            let g = &grad_out.data()[b * out_stride..(b + 1) * out_stride];
            gemm_nt_fma(c_out, ohow, ckk, g, bmat, grad_w.data_mut(), true);
        }
        Ok(grad_w)
    }

    fn conv2d_backward_weight_per_sample_into(
        &self,
        input: &Tensor,
        grad_out: &Tensor,
        c_out: usize,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
        out: &mut [f32],
        row_stride: usize,
        offset: usize,
    ) -> Result<()> {
        let (n, c_in, h, w, oh, ow) =
            check_per_sample_args(input, grad_out, c_out, spec, out.len(), row_stride, offset)?;
        let k = spec.kernel;
        let per_sample = c_out * c_in * k * k;
        // Per-sample dispatch, mirroring the blocked backend: each sample is
        // its own batch-1 problem.
        if below_direct_threshold(1, c_in, c_out, k, oh, ow) {
            for b in 0..n {
                let dst = &mut out[b * row_stride + offset..b * row_stride + offset + per_sample];
                crate::conv::direct_weight_grad_sample(
                    input, grad_out, b, c_out, c_in, h, w, oh, ow, spec, dst,
                );
            }
            return Ok(());
        }
        let geo = ConvGeometry {
            c_in,
            h,
            w,
            c_out,
            oh,
            ow,
        };
        let ohow = oh * ow;
        let ckk = c_in * k * k;
        let col_len = if spec.is_pointwise() { 0 } else { ckk * ohow };
        if rayon::current_num_threads() > 1 && n > BATCH_CHUNK {
            let chunks = batch_chunks(n);
            let parts: Vec<Vec<f32>> = chunks
                .par_iter()
                .map(|&(lo, hi)| {
                    let mut col = vec![0.0f32; col_len];
                    let mut part = vec![0.0f32; (hi - lo) * per_sample];
                    per_sample_chunk(input, grad_out, spec, geo, lo, hi, &mut col, &mut part);
                    part
                })
                .collect();
            for (&(lo, hi), part) in chunks.iter().zip(&parts) {
                for b in lo..hi {
                    out[b * row_stride + offset..b * row_stride + offset + per_sample]
                        .copy_from_slice(&part[(b - lo) * per_sample..(b - lo + 1) * per_sample]);
                }
            }
        } else {
            let col = workspace.col_buffer(col_len.max(1));
            for b in 0..n {
                let dst = &mut out[b * row_stride + offset..b * row_stride + offset + per_sample];
                per_sample_chunk(input, grad_out, spec, geo, b, b + 1, col, dst);
            }
        }
        Ok(())
    }

    fn avg_pool2d(
        &self,
        input: &Tensor,
        kernel: usize,
        stride: usize,
        padding: usize,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        avg_pool2d_pooled(input, kernel, stride, padding, workspace)
    }

    fn avg_pool2d_backward(
        &self,
        grad_out: &Tensor,
        input_shape: &Shape,
        kernel: usize,
        stride: usize,
        padding: usize,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        avg_pool2d_backward_pooled(grad_out, input_shape, kernel, stride, padding, workspace)
    }

    fn gemm_nn(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        accumulate: bool,
    ) {
        gemm_nn_fma(m, k, n, a, b, c, accumulate);
    }

    fn gemm_nt(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        accumulate: bool,
    ) {
        gemm_nt_fma(m, k, n, a, b, c, accumulate);
    }

    fn gemm_tn(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        accumulate: bool,
    ) {
        gemm_tn_fma(m, k, n, a, b, c, accumulate);
    }

    fn gram_nt_f64(&self, n: usize, p: usize, j: &[f32], out: &mut [f64]) {
        // f32 panels with f64 accumulation — accuracy is the point here, and
        // the existing schedule is already near-optimal for [n, P] shapes.
        crate::linalg::gram_nt_f64(n, p, j, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeterministicRng;

    fn random_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = DeterministicRng::new(seed);
        (0..len).map(|_| rng.normal()).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= tol * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn fma_gemm_nn_matches_blocked_gemm() {
        for (m, k, n) in [(1, 1, 1), (6, 54, 144), (13, 7, 23), (4, 100, 16)] {
            let a = random_vec(m * k, 1);
            let b = random_vec(k * n, 2);
            let mut c_fma = vec![0.0f32; m * n];
            let mut c_ref = vec![0.0f32; m * n];
            gemm_nn_fma(m, k, n, &a, &b, &mut c_fma, false);
            crate::linalg::gemm_nn(m, k, n, &a, &b, &mut c_ref, false);
            assert_close(&c_fma, &c_ref, 1e-5);
            // Accumulation adds on top of existing contents.
            gemm_nn_fma(m, k, n, &a, &b, &mut c_fma, true);
            for (x, y) in c_fma.iter().zip(&c_ref) {
                assert!((x - 2.0 * y).abs() <= 2e-5 * (1.0 + y.abs()));
            }
        }
    }

    #[test]
    fn fma_gemm_nt_matches_blocked_gemm() {
        for (m, k, n) in [(8, 256, 72), (3, 7, 5), (1, 9, 1), (10, 64, 9)] {
            let a = random_vec(m * k, 7);
            let b = random_vec(n * k, 8);
            let mut c_fma = vec![0.0f32; m * n];
            let mut c_ref = vec![0.0f32; m * n];
            gemm_nt_fma(m, k, n, &a, &b, &mut c_fma, false);
            crate::linalg::gemm_nt(m, k, n, &a, &b, &mut c_ref, false);
            assert_close(&c_fma, &c_ref, 1e-5);
        }
    }

    #[test]
    fn fma_gemm_tn_matches_blocked_gemm() {
        for (m, k, n) in [(54, 6, 144), (5, 9, 17), (16, 3, 8)] {
            let a = random_vec(k * m, 3);
            let b = random_vec(k * n, 4);
            let mut c_fma = vec![0.0f32; m * n];
            let mut c_ref = vec![0.0f32; m * n];
            gemm_tn_fma(m, k, n, &a, &b, &mut c_fma, false);
            crate::linalg::gemm_tn(m, k, n, &a, &b, &mut c_ref, false);
            assert_close(&c_fma, &c_ref, 1e-5);
        }
    }

    #[test]
    fn batch_chunks_are_thread_count_independent() {
        assert_eq!(batch_chunks(1), vec![(0, 1)]);
        assert_eq!(batch_chunks(4), vec![(0, 4)]);
        assert_eq!(batch_chunks(9), vec![(0, 4), (4, 8), (8, 9)]);
    }

    #[test]
    fn simd_conv_is_bitwise_identical_across_thread_counts() {
        use rayon::ThreadPoolBuilder;
        let backend = SimdBackend;
        let input =
            Tensor::from_vec(Shape::nchw(9, 3, 10, 10), random_vec(9 * 3 * 100, 5)).unwrap();
        let weight = Tensor::from_vec(Shape::nchw(8, 3, 3, 3), random_vec(8 * 27, 6)).unwrap();
        let spec = Conv2dSpec::new(3, 1, 1);
        let run = |threads: usize| {
            ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    backend
                        .conv2d(&input, &weight, spec, &mut Workspace::default())
                        .unwrap()
                })
        };
        let one = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(one, run(threads), "threads={threads}");
        }
    }
}
