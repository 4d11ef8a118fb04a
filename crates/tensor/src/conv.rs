//! 2-D convolution kernels (forward, input gradient, weight gradient).
//!
//! Layout conventions follow NCHW for activations and `[out_c, in_c, kh, kw]`
//! for weights, matching the NAS-Bench-201 reference implementation.
//!
//! # Kernel selection
//!
//! Two implementations exist for every kernel:
//!
//! * **Direct** loops: simple quadruple loops, the bodies behind
//!   [`crate::KernelBackend::Direct`]. They are the correctness oracle — the
//!   property tests check the GEMM path against them — and the faster
//!   choice for very small problems where lowering overhead dominates.
//! * **GEMM**: each image's column matrix (`[C_in·K·K, OH·OW]`) is
//!   multiplied by the `[C_out, C_in·K·K]` weight matrix with the
//!   cache-blocked GEMM kernels from [`crate::ops`]'s sibling module
//!   `linalg`. The forward gets that column matrix one of three ways:
//!   - 1×1 / stride-1 / no-padding convolutions multiply the input in
//!     place (their column matrix is the image);
//!   - other stride-1 convolutions whose product takes the register-tiled
//!     `row_band` schedule (`OH·OW ≤ 32` or `C_in·K·K ≥ 64`, e.g. the
//!     paper's 8-channel conv3×3) copy the image once into a zero-padded
//!     `[C_in, OH+K-1, OW+K-1]` staging buffer and read column-matrix
//!     element `((c, ky, kx), (oy, ox))` straight from
//!     `padded[c][oy+ky][ox+kx]`: an implicit GEMM (Chetlur et al. 2014),
//!     bitwise the lowered product;
//!   - everything else (the streaming `wide` schedule, strides above 1)
//!     lowers each image with im2col into a reusable [`Workspace`] buffer.
//!
//!   The backward kernels keep explicit column matrices (im2col, col2im).
//!
//! The dispatching kernels here are the bodies of the paper-default
//! [`crate::KernelBackend::BlockedGemm`]: they run the direct loops below
//! [`DIRECT_MAC_THRESHOLD`] MACs and GEMM above it, a pure function of the
//! shape. Everything outside this crate reaches them through
//! [`crate::KernelBackend`].
//!
//! # Workspace reuse
//!
//! Every kernel takes a `&mut Workspace` for its lowering scratch, so
//! repeated evaluation (NTK repeats, linear-region probes) allocates no
//! scratch; the forward and input-gradient kernels also draw their
//! *output* tensors from the workspace's recycling pool — batch-level
//! feature maps are past the allocator's mmap threshold, so fresh
//! allocation per call costs page faults.
//!
//! # Per-sample weight gradients
//!
//! [`conv2d_backward_weight_per_sample_into`] emits one weight gradient per
//! batch element from a single shared lowering per sample — the kernel
//! behind batched per-sample gradients for the NTK Gram matrix.

use crate::linalg::{
    gemm_nn_implicit, gemm_nn_uncounted, gemm_tn_uncounted, uses_row_band, ColumnOperand,
};
use crate::{Result, Shape, Tensor, TensorError, Workspace};
use serde::{Deserialize, Serialize};

/// Static description of a 2-D convolution: kernel size, stride and padding.
///
/// # Example
///
/// ```
/// use micronas_tensor::Conv2dSpec;
/// let spec = Conv2dSpec::new(3, 1, 1);
/// assert_eq!(spec.output_hw(32, 32), (32, 32));
/// let down = Conv2dSpec::new(3, 2, 1);
/// assert_eq!(down.output_hw(32, 32), (16, 16));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conv2dSpec {
    /// Square kernel size (e.g. 1 or 3).
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub padding: usize,
}

impl Conv2dSpec {
    /// Creates a new convolution spec.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        Self {
            kernel,
            stride,
            padding,
        }
    }

    /// Spatial output size for a given input size.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding).saturating_sub(self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding).saturating_sub(self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Whether this convolution is a pure channel mix (1×1, stride 1, no
    /// padding), for which im2col lowering is the identity.
    pub(crate) fn is_pointwise(&self) -> bool {
        self.kernel == 1 && self.stride == 1 && self.padding == 0
    }
}

/// Problems with fewer MACs than this run the direct kernels: at that size
/// the im2col lowering costs more than the multiply saves.
pub(crate) const DIRECT_MAC_THRESHOLD: usize = 4_096;

/// Whether a problem sits below [`DIRECT_MAC_THRESHOLD`]: a pure function
/// of the shape, so a kernel's values never depend on anything but its
/// inputs.
pub(crate) fn below_direct_threshold(
    n: usize,
    c_in: usize,
    c_out: usize,
    k: usize,
    oh: usize,
    ow: usize,
) -> bool {
    n * c_out * c_in * k * k * oh * ow < DIRECT_MAC_THRESHOLD
}

/// Rejects a zero kernel or stride: the window check every conv and pool
/// entry runs before any output size is computed (a zero stride would
/// divide by zero there). [`Conv2dSpec::new`] asserts the same, but its
/// fields are public and deserializable.
pub(crate) fn check_window(kernel: usize, stride: usize) -> Result<()> {
    if kernel == 0 || stride == 0 {
        return Err(TensorError::InvalidArgument(format!(
            "kernel and stride must be positive (kernel {kernel}, stride {stride})"
        )));
    }
    Ok(())
}

pub(crate) fn check_conv_args(
    input: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
) -> Result<(usize, usize, usize, usize, usize, usize)> {
    check_window(spec.kernel, spec.stride)?;
    let id = input.shape().dims();
    let wd = weight.shape().dims();
    if id.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d input",
            expected: 4,
            actual: id.len(),
        });
    }
    if wd.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d weight",
            expected: 4,
            actual: wd.len(),
        });
    }
    if id[1] != wd[1] {
        return Err(TensorError::IncompatibleShapes {
            op: "conv2d (channels)",
            lhs: id.to_vec(),
            rhs: wd.to_vec(),
        });
    }
    if wd[2] != spec.kernel || wd[3] != spec.kernel {
        return Err(TensorError::InvalidArgument(format!(
            "weight kernel {}x{} does not match spec kernel {}",
            wd[2], wd[3], spec.kernel
        )));
    }
    Ok((id[0], id[1], id[2], id[3], wd[0], wd[2]))
}

// ---------------------------------------------------------------------------
// im2col lowering
// ---------------------------------------------------------------------------

/// Counts the column matrices of `images` images, `elems` floats each:
/// `tensor.im2col.bytes` counts every column matrix a conv multiplies,
/// whether lowered or read in place from a zero-padded image, and
/// `tensor.im2col.lowered_bytes` only those materialized by [`im2col`]. A
/// pointwise conv multiplies the image itself and counts neither.
fn count_columns(elems: usize, images: usize, lowered: bool) {
    let bytes = (elems * images * std::mem::size_of::<f32>()) as u64;
    micronas_telemetry::counter_add("tensor.im2col.bytes", bytes);
    if lowered {
        micronas_telemetry::counter_add("tensor.im2col.lowered_bytes", bytes);
    }
}

/// Lowers one image (`[C, H, W]` slice) into a `[C·K·K, OH·OW]` column
/// matrix. Every element of `col` is written (padding regions get zeros), so
/// the buffer needs no prior clearing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col(
    image: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    col: &mut [f32],
) {
    let _span = micronas_telemetry::span!("tensor.im2col");
    let k = spec.kernel;
    let ohow = oh * ow;
    debug_assert_eq!(col.len(), c_in * k * k * ohow);
    count_columns(c_in * k * k * ohow, 1, true);
    for c in 0..c_in {
        let plane = &image[c * h * w..(c + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                let dst = &mut col[row * ohow..(row + 1) * ohow];
                for oy in 0..oh {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    let dst_row = &mut dst[oy * ow..(oy + 1) * ow];
                    if iy < 0 || iy >= h as isize {
                        dst_row.fill(0.0);
                        continue;
                    }
                    let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                    if spec.stride == 1 {
                        // Contiguous middle segment: ix = ox + kx - padding.
                        let shift = kx as isize - spec.padding as isize;
                        let ox_lo = (-shift).clamp(0, ow as isize) as usize;
                        let ox_hi = (w as isize - shift).clamp(0, ow as isize) as usize;
                        dst_row[..ox_lo].fill(0.0);
                        dst_row[ox_hi..].fill(0.0);
                        if ox_lo < ox_hi {
                            let src_lo = (ox_lo as isize + shift) as usize;
                            dst_row[ox_lo..ox_hi]
                                .copy_from_slice(&src_row[src_lo..src_lo + (ox_hi - ox_lo)]);
                        }
                    } else {
                        for (ox, out) in dst_row.iter_mut().enumerate() {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            *out = if ix < 0 || ix >= w as isize {
                                0.0
                            } else {
                                src_row[ix as usize]
                            };
                        }
                    }
                }
            }
        }
    }
}

/// Scatter-adds a `[C·K·K, OH·OW]` column-gradient matrix back into one
/// image-gradient slice (`[C, H, W]`); the inverse of [`im2col`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn col2im_add(
    col: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    image_grad: &mut [f32],
) {
    let k = spec.kernel;
    let ohow = oh * ow;
    debug_assert_eq!(col.len(), c_in * k * k * ohow);
    for c in 0..c_in {
        let plane = &mut image_grad[c * h * w..(c + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                let src = &col[row * ohow..(row + 1) * ohow];
                for oy in 0..oh {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src_row = &src[oy * ow..(oy + 1) * ow];
                    let dst_row = &mut plane[iy as usize * w..(iy as usize + 1) * w];
                    if spec.stride == 1 {
                        let shift = kx as isize - spec.padding as isize;
                        let ox_lo = (-shift).clamp(0, ow as isize) as usize;
                        let ox_hi = (w as isize - shift).clamp(0, ow as isize) as usize;
                        if ox_lo < ox_hi {
                            let dst_lo = (ox_lo as isize + shift) as usize;
                            for (d, s) in dst_row[dst_lo..dst_lo + (ox_hi - ox_lo)]
                                .iter_mut()
                                .zip(&src_row[ox_lo..ox_hi])
                            {
                                *d += s;
                            }
                        }
                    } else {
                        for (ox, &g) in src_row.iter().enumerate() {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if ix >= 0 && ix < w as isize {
                                dst_row[ix as usize] += g;
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Forward
// ---------------------------------------------------------------------------

/// Forward 2-D convolution, the body of [`crate::KernelBackend::BlockedGemm`]'s
/// `conv2d`.
///
/// `input` is `[N, C_in, H, W]`, `weight` is `[C_out, C_in, K, K]`; the
/// result is `[N, C_out, H_out, W_out]` per [`Conv2dSpec::output_hw`].
/// Dispatches between the direct and GEMM kernels (see the module docs) and
/// draws the output tensor from the workspace recycling pool: callers that
/// return it to the pool ([`Workspace::recycle`]) when done make
/// steady-state forward passes allocation-free.
///
/// # Errors
///
/// Returns an error if ranks or channel counts are inconsistent, or if the
/// weight kernel size does not match `spec.kernel`.
pub(crate) fn conv2d_pooled(
    input: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
    workspace: &mut Workspace,
) -> Result<Tensor> {
    let (n, c_in, h, w, c_out, k) = check_conv_args(input, weight, spec)?;
    let (oh, ow) = spec.output_hw(h, w);
    let shape = Shape::nchw(n, c_out, oh, ow);
    // Unspecified contents: every dispatch path fully overwrites the output
    // (the direct loops assign each element; the GEMM branches run with
    // accumulate=false, which clears the destination themselves).
    let mut out = Tensor::from_vec(shape, workspace.take(n * c_out * oh * ow))
        .expect("length matches shape by construction");
    if below_direct_threshold(n, c_in, c_out, k, oh, ow) {
        conv2d_direct_unchecked(input, weight, spec, n, c_in, h, w, c_out, oh, ow, &mut out);
        return Ok(out);
    }
    count_gemm_dispatch();
    conv2d_gemm_unchecked(input, weight, spec, workspace, out.data_mut());
    Ok(out)
}

/// Counts one logical GEMM dispatch (`tensor.gemm.calls`) for a conv kernel
/// call that takes the GEMM path, however many images it multiplies: the
/// per-image products run uncounted.
pub(crate) fn count_gemm_dispatch() {
    micronas_telemetry::counter_add("tensor.gemm.calls", 1);
}

/// GEMM body of the forward conv, image by image, into each image's
/// `[C_out, OH·OW]` slice of `out`, which is fully overwritten. Each image's
/// column matrix multiplies the `[C_out, C_in·K·K]` weight matrix in one of
/// three forms:
///
/// * a pointwise conv multiplies the image itself;
/// * a stride-1 conv whose product takes the register-tiled schedule
///   ([`uses_row_band`]) copies the image once into a zero-padded
///   `[C_in, OH+K-1, OW+K-1]` staging buffer and multiplies that in place
///   as its own column matrix ([`PaddedImage`], implicit GEMM);
/// * every other conv lowers the image with [`im2col`] and multiplies the
///   columns.
///
/// The implicit form is bitwise the lowered one: the schedule reads the
/// same values (the padding is the same `0.0` that [`im2col`] writes) and
/// accumulates each output element in the same order. Arguments have been
/// validated; the caller counts the dispatch.
fn conv2d_gemm_unchecked(
    input: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
    workspace: &mut Workspace,
    out: &mut [f32],
) {
    let id = input.shape().dims();
    let (n, c_in, h, w) = (id[0], id[1], id[2], id[3]);
    let c_out = weight.shape().dims()[0];
    let k = spec.kernel;
    let (oh, ow) = spec.output_hw(h, w);
    let ohow = oh * ow;
    let ckk = c_in * k * k;
    let in_stride = c_in * h * w;
    let out_stride = c_out * ohow;
    let w_mat = weight.data(); // [C_out, C_in·K·K], already contiguous.
    if spec.is_pointwise() {
        // The column matrix of a pointwise conv is the image itself.
        for b in 0..n {
            let image = &input.data()[b * in_stride..(b + 1) * in_stride];
            let dst = &mut out[b * out_stride..(b + 1) * out_stride];
            gemm_nn_uncounted(c_out, ckk, ohow, w_mat, image, dst, false);
        }
        return;
    }
    if spec.stride == 1 && uses_row_band(ckk, ohow) {
        count_columns(ckk * ohow, n, false);
        let (ph, pw) = (oh + k - 1, ow + k - 1);
        let mut stack = [0; STACK_ROW_STARTS];
        let mut heap = Vec::new();
        let row_starts = if ckk <= STACK_ROW_STARTS {
            &mut stack[..ckk]
        } else {
            heap.resize(ckk, 0);
            &mut heap[..]
        };
        fill_row_starts(row_starts, k, ph, pw);
        let padded = workspace.col_buffer(c_in * ph * pw);
        for b in 0..n {
            let image = &input.data()[b * in_stride..(b + 1) * in_stride];
            pad_image(image, c_in, h, w, spec.padding, ph, pw, padded);
            let columns = PaddedImage {
                data: padded,
                row_starts,
                pw,
                ow,
            };
            let dst = &mut out[b * out_stride..(b + 1) * out_stride];
            gemm_nn_implicit(c_out, ckk, ohow, w_mat, &columns, dst);
        }
        return;
    }
    let col = workspace.col_buffer(ckk * ohow);
    for b in 0..n {
        let image = &input.data()[b * in_stride..(b + 1) * in_stride];
        im2col(image, c_in, h, w, spec, oh, ow, col);
        let dst = &mut out[b * out_stride..(b + 1) * out_stride];
        gemm_nn_uncounted(c_out, ckk, ohow, w_mat, col, dst, false);
    }
}

/// Copies one image (`[C, H, W]` slice) into `padded`, a `[C, PH, PW]`
/// buffer, at offset `(pad, pad)` in every plane, and zeros the rest of
/// the buffer. Every element of `padded` is written.
#[allow(clippy::too_many_arguments)]
fn pad_image(
    image: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    pad: usize,
    ph: usize,
    pw: usize,
    padded: &mut [f32],
) {
    let _span = micronas_telemetry::span!("tensor.pad");
    debug_assert!(pad + h <= ph && pad + w <= pw);
    for c in 0..c_in {
        let src = &image[c * h * w..(c + 1) * h * w];
        let dst = &mut padded[c * ph * pw..(c + 1) * ph * pw];
        dst[..pad * pw].fill(0.0);
        for y in 0..h {
            let row = &mut dst[(pad + y) * pw..(pad + y + 1) * pw];
            row[..pad].fill(0.0);
            row[pad..pad + w].copy_from_slice(&src[y * w..(y + 1) * w]);
            row[pad + w..].fill(0.0);
        }
        dst[(pad + h) * pw..].fill(0.0);
    }
}

/// A zero-padded image (`[C, PH, PW]`, `PH = OH+K-1`, `PW = OW+K-1`) read
/// in place as the `[C·K·K, OH·OW]` column matrix of a stride-1 conv:
/// element `(p = (c, ky, kx), j = (oy, ox))` is `padded[c][oy+ky][ox+kx]`,
/// the value [`im2col`] would have written there.
struct PaddedImage<'a> {
    data: &'a [f32],
    /// Offset of `padded[c][ky][kx]` for every row `p = (c, ky, kx)`.
    row_starts: &'a [usize],
    pw: usize,
    ow: usize,
}

/// Column-matrix depths (`C_in·K·K`) up to which the row-start table of a
/// [`PaddedImage`] lives on the stack. A per-call heap table would scatter
/// small allocations between the large pooled buffers and fragment the
/// heap.
const STACK_ROW_STARTS: usize = 512;

/// Writes the [`PaddedImage::row_starts`] table of a `[C, PH, PW]` padded
/// image and a `K`×`K` kernel into `starts` (`C·K·K` entries).
fn fill_row_starts(starts: &mut [usize], k: usize, ph: usize, pw: usize) {
    for (p, start) in starts.iter_mut().enumerate() {
        let (c, ky, kx) = (p / (k * k), p / k % k, p % k);
        *start = (c * ph + ky) * pw + kx;
    }
}

impl ColumnOperand for PaddedImage<'_> {
    #[inline(always)]
    fn for_each_tile_row<const L: usize>(&self, j: usize, mut f: impl FnMut(usize, &[f32; L])) {
        let (oy, ox) = (j / self.ow, j % self.ow);
        if ox + L <= self.ow {
            // The tile lies in one output row: each of its rows is a
            // contiguous run of the padded image.
            let at = oy * self.pw + ox;
            for (p, &start) in self.row_starts.iter().enumerate() {
                let run = &self.data[start + at..start + at + L];
                f(p, run.try_into().expect("run of length L"));
            }
        } else {
            // The tile straddles output rows: gather each of its rows.
            let at: [usize; L] = std::array::from_fn(|l| {
                let jl = j + l;
                (jl / self.ow) * self.pw + jl % self.ow
            });
            for (p, &start) in self.row_starts.iter().enumerate() {
                f(p, &std::array::from_fn(|l| self.data[start + at[l]]));
            }
        }
    }
}

/// Direct (naive-loop) forward convolution, the reference implementation,
/// writing every element of `out`; callers have validated the arguments.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_direct_unchecked(
    input: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
    n: usize,
    c_in: usize,
    h: usize,
    w: usize,
    c_out: usize,
    oh: usize,
    ow: usize,
    out: &mut Tensor,
) {
    for b in 0..n {
        for oc in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ic in 0..c_in {
                        for ky in 0..spec.kernel {
                            let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..spec.kernel {
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += input.at4(b, ic, iy as usize, ix as usize)
                                    * weight.at4(oc, ic, ky, kx);
                            }
                        }
                    }
                    *out.at4_mut(b, oc, oy, ox) = acc;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cross-candidate packed forward
// ---------------------------------------------------------------------------

/// Forward convolution of several same-shape inputs against one shared
/// weight tensor, counted as one logical GEMM dispatch.
///
/// This is the cross-candidate mega-batching kernel: N candidates whose
/// layers share a geometry (`c_in, c_out, kernel, h, w`) share one weight
/// matrix, so their `N·n` images form one logical `[C_out, C_in·K·K] ×
/// [C_in·K·K, N·n·OH·OW]` product. It is run image by image on the solo
/// path, each image multiplied straight into its member's output: at the
/// paper's 8 channels, 16×16, conv3×3 each image is copied into a
/// zero-padded staging buffer (10 KiB) and read in place as its column
/// matrix, and geometries off the register-tiled schedule lower one
/// image's columns at a time. Either stays in cache, while a column panel
/// of the whole bucket (18 MiB for the paper's largest one) would not.
/// Output tensors are drawn from the workspace recycling pool (recycle
/// them like [`conv2d_pooled`] outputs).
///
/// **Bitwise contract:** the result is bit-for-bit identical to calling
/// [`conv2d_pooled`] once per input: every image takes the same column
/// operand and the same `gemm_nn` shape, so the same schedule. The
/// direct/GEMM choice is made on one candidate's shape, exactly as the solo
/// path makes it.
///
/// Counts one `tensor.gemm.calls` per call that takes the GEMM path, however
/// many inputs and images it holds (a pack of one included; the direct
/// loops count none); each image's multiply is timed under the
/// `tensor.gemm` span.
///
/// # Errors
///
/// Returns an error under the same conditions as [`conv2d_pooled`], or if
/// the inputs do not all share one shape.
pub(crate) fn conv2d_forward_packed_pooled(
    inputs: &[&Tensor],
    weight: &Tensor,
    spec: Conv2dSpec,
    workspace: &mut Workspace,
) -> Result<Vec<Tensor>> {
    let Some(first) = inputs.first() else {
        return Ok(Vec::new());
    };
    let (n, c_in, h, w, c_out, k) = check_conv_args(first, weight, spec)?;
    check_pack_shapes(inputs)?;
    let (oh, ow) = spec.output_hw(h, w);
    if below_direct_threshold(n, c_in, c_out, k, oh, ow) {
        // Identical geometry means every input makes the same dispatch
        // decision the solo path would: the direct loops.
        return inputs
            .iter()
            .map(|input| conv2d_pooled(input, weight, spec, workspace))
            .collect();
    }

    count_gemm_dispatch();
    let shape = Shape::nchw(n, c_out, oh, ow);
    Ok(inputs
        .iter()
        .map(|input| {
            let mut out = Tensor::from_vec(shape.clone(), workspace.take(shape.numel()))
                .expect("length matches shape by construction");
            conv2d_gemm_unchecked(input, weight, spec, workspace, out.data_mut());
            out
        })
        .collect())
}

/// Checks that every input of a packed forward has the first input's shape.
pub(crate) fn check_pack_shapes(inputs: &[&Tensor]) -> Result<()> {
    if let Some((first, rest)) = inputs.split_first() {
        if let Some(input) = rest.iter().find(|input| input.shape() != first.shape()) {
            return Err(TensorError::IncompatibleShapes {
                op: "conv2d_forward_packed (inputs)",
                lhs: first.shape().dims().to_vec(),
                rhs: input.shape().dims().to_vec(),
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Weight gradient
// ---------------------------------------------------------------------------

/// Gradient of the convolution output with respect to its weights, summed
/// over the batch: the body of [`crate::KernelBackend::BlockedGemm`]'s
/// `conv2d_backward_weight`.
///
/// Given the forward `input` and the upstream gradient `grad_out`
/// (`[N, C_out, H_out, W_out]`), returns a tensor with the same shape as the
/// weights. Dispatches like [`conv2d_pooled`].
///
/// # Errors
///
/// Returns an error if the shapes are inconsistent with `spec`.
pub(crate) fn conv2d_backward_weight_with(
    input: &Tensor,
    grad_out: &Tensor,
    c_out: usize,
    spec: Conv2dSpec,
    workspace: &mut Workspace,
) -> Result<Tensor> {
    let (n, c_in, h, w, oh, ow) = check_backward_weight_args(input, grad_out, c_out, spec)?;
    if below_direct_threshold(n, c_in, c_out, spec.kernel, oh, ow) {
        return Ok(conv2d_backward_weight_unchecked(
            input, grad_out, c_out, spec, n, c_in, h, w, oh, ow,
        ));
    }
    count_gemm_dispatch();
    Ok(conv2d_backward_weight_gemm(
        input, grad_out, c_out, spec, workspace,
    ))
}

/// GEMM body of the summed weight gradient. Arguments have been validated;
/// the caller counts the dispatch.
fn conv2d_backward_weight_gemm(
    input: &Tensor,
    grad_out: &Tensor,
    c_out: usize,
    spec: Conv2dSpec,
    workspace: &mut Workspace,
) -> Tensor {
    let id = input.shape().dims();
    let (n, c_in, h, w) = (id[0], id[1], id[2], id[3]);
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let mut grad_w = Tensor::zeros(Shape::nchw(c_out, c_in, k, k));
    let ohow = oh * ow;
    let ckk = c_in * k * k;
    let in_stride = c_in * h * w;
    let out_stride = c_out * ohow;
    // Transposed formulation: grad_Wᵀ [CKK, C_out] = Σ_b col_b · grad_outᵀ_b,
    // which runs the GEMM in `gemm_nn`'s narrow register-tiled shape with a
    // contiguous im2col lowering; one small transpose at the end restores
    // the `[C_out, CKK]` layout. A pointwise conv's column matrix is the
    // image itself, so its lowering is skipped entirely.
    let col_len = if spec.is_pointwise() { 0 } else { ckk * ohow };
    let (col, aux) = workspace.col_and_aux(col_len, (ohow + ckk) * c_out);
    let (g_t, w_t) = aux.split_at_mut(ohow * c_out);
    w_t.fill(0.0);
    for b in 0..n {
        let image = &input.data()[b * in_stride..(b + 1) * in_stride];
        let bmat: &[f32] = if spec.is_pointwise() {
            image
        } else {
            im2col(image, c_in, h, w, spec, oh, ow, col);
            col
        };
        let g = &grad_out.data()[b * out_stride..(b + 1) * out_stride];
        transpose_into(g, c_out, ohow, g_t);
        gemm_nn_uncounted(ckk, ohow, c_out, bmat, g_t, w_t, true);
    }
    let gw = grad_w.data_mut();
    transpose_into(w_t, ckk, c_out, gw);
    grad_w
}

/// Writes `dstᵀ = src` for a row-major `[rows, cols]` `src` into a
/// `[cols, rows]` destination.
pub(crate) fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for r in 0..rows {
        let row = &src[r * cols..(r + 1) * cols];
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

// ---------------------------------------------------------------------------
// Per-sample weight gradient (batched backward)
// ---------------------------------------------------------------------------

/// Per-sample weight gradients written straight into a caller matrix: one
/// `[C_out, C_in, K, K]` gradient per batch element, **not** summed over the
/// batch; sample `b`'s flattened gradient lands at
/// `out[b * row_stride + offset ..][.. c_out·c_in·k²]`. The body of
/// [`crate::KernelBackend::BlockedGemm`]'s `conv2d_backward_weight_per_sample_into`.
///
/// This is the kernel behind batched per-sample gradients for the NTK Gram
/// matrix: one shared im2col lowering per sample feeds one `A · Bᵀ` GEMM per
/// sample, emitting all `N` weight gradients in a single pass instead of `N`
/// separate backward calls. With `row_stride` set to the network's total
/// parameter count and `offset` to this layer's parameter offset, the
/// batched backward pass of a network assembles the full `[N, P]`
/// per-sample gradient matrix with no staging copies.
///
/// # Errors
///
/// Returns an error if the shapes are inconsistent with `spec`, or if `out`
/// is too short for the last sample's slice.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_backward_weight_per_sample_into(
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
    // Dispatch on the per-sample workload: each sample's gradient is its own
    // small GEMM, and matching the per-sample (batch-1) decision keeps these
    // values bitwise-identical to a loop of batch-1 backward calls.
    if below_direct_threshold(1, c_in, c_out, k, oh, ow) {
        let per_sample = c_out * c_in * k * k;
        for b in 0..n {
            let dst = &mut out[b * row_stride + offset..b * row_stride + offset + per_sample];
            direct_weight_grad_sample(input, grad_out, b, c_out, c_in, h, w, oh, ow, spec, dst);
        }
        return Ok(());
    }
    count_gemm_dispatch();
    per_sample_gemm_unchecked(
        input, grad_out, c_out, spec, workspace, out, row_stride, offset,
    );
    Ok(())
}

/// Validates per-sample weight-gradient arguments, including that a
/// `[N, row_stride]` destination of `out_len` floats holds the last
/// sample's slice at `offset`. Returns the geometry like
/// [`check_backward_weight_args`].
pub(crate) fn check_per_sample_args(
    input: &Tensor,
    grad_out: &Tensor,
    c_out: usize,
    spec: Conv2dSpec,
    out_len: usize,
    row_stride: usize,
    offset: usize,
) -> Result<(usize, usize, usize, usize, usize, usize)> {
    let dims = check_backward_weight_args(input, grad_out, c_out, spec)?;
    let (n, c_in) = (dims.0, dims.1);
    let need = (n.max(1) - 1) * row_stride + offset + c_out * c_in * spec.kernel * spec.kernel;
    if n > 0 && out_len < need {
        return Err(TensorError::InvalidArgument(format!(
            "per-sample gradient output buffer too short: {out_len} < {need}"
        )));
    }
    Ok(dims)
}

/// GEMM body of the per-sample weight gradient: one shared im2col lowering
/// per sample feeds that sample's weight-gradient GEMM, in the same
/// transposed narrow shape as [`conv2d_backward_weight_gemm`] — so each
/// batched per-sample gradient is bit-for-bit the value a batch-1 backward
/// call would produce. Arguments have been validated; the caller counts the
/// dispatch.
#[allow(clippy::too_many_arguments)]
fn per_sample_gemm_unchecked(
    input: &Tensor,
    grad_out: &Tensor,
    c_out: usize,
    spec: Conv2dSpec,
    workspace: &mut Workspace,
    out: &mut [f32],
    row_stride: usize,
    offset: usize,
) {
    let id = input.shape().dims();
    let (n, c_in, h, w) = (id[0], id[1], id[2], id[3]);
    let (oh, ow) = spec.output_hw(h, w);
    let k = spec.kernel;
    let per_sample = c_out * c_in * k * k;
    let ohow = oh * ow;
    let ckk = c_in * k * k;
    let in_stride = c_in * h * w;
    let out_stride = c_out * ohow;
    let col_len = if spec.is_pointwise() { 0 } else { ckk * ohow };
    let (col, aux) = workspace.col_and_aux(col_len, (ohow + ckk) * c_out);
    let (g_t, w_t) = aux.split_at_mut(ohow * c_out);
    for b in 0..n {
        let image = &input.data()[b * in_stride..(b + 1) * in_stride];
        let bmat: &[f32] = if spec.is_pointwise() {
            image
        } else {
            im2col(image, c_in, h, w, spec, oh, ow, col);
            col
        };
        let g = &grad_out.data()[b * out_stride..(b + 1) * out_stride];
        transpose_into(g, c_out, ohow, g_t);
        gemm_nn_uncounted(ckk, ohow, c_out, bmat, g_t, w_t, false);
        let dst = &mut out[b * row_stride + offset..b * row_stride + offset + per_sample];
        transpose_into(w_t, ckk, c_out, dst);
    }
}

/// One pack member's destination inside its own `[N, P]` per-sample gradient
/// matrix: sample `b`'s flattened layer gradient lands at
/// `out[b * row_stride + offset ..][.. c_out·c_in·k²]`.
///
/// Pack members generally have *different* parameter counts and layer
/// offsets (their cell topologies differ away from the shared edge), so the
/// packed backward entry points take one slot per member instead of a shared
/// stride/offset pair.
#[derive(Debug)]
pub struct PackedGradSlot<'a> {
    /// The member's full `[N, P]` gradient matrix buffer.
    pub out: &'a mut [f32],
    /// Row stride: the member's total parameter count `P`.
    pub row_stride: usize,
    /// This layer's parameter offset within a row.
    pub offset: usize,
}

/// Checks that a packed per-sample backward has one gradient and one slot
/// per input.
pub(crate) fn check_pack_arity(
    inputs: &[&Tensor],
    grad_outs: &[&Tensor],
    slots: &[PackedGradSlot<'_>],
) -> Result<()> {
    if inputs.len() != grad_outs.len() || inputs.len() != slots.len() {
        return Err(TensorError::InvalidArgument(format!(
            "packed per-sample backward arity mismatch: {} inputs, {} grads, {} slots",
            inputs.len(),
            grad_outs.len(),
            slots.len()
        )));
    }
    Ok(())
}

/// `true` when `a` and `b` hold bitwise-identical f32 payloads.
fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Packed per-sample weight gradients: one grouped dispatch computing
/// [`conv2d_backward_weight_per_sample_into`] for every pack member in a
/// single call.
///
/// All members share the convolution geometry (`spec`, `c_out`, input
/// shape), so the im2col lowering of a member's probe activations depends
/// only on the activation bytes — and in a mega-batched backward sweep those
/// bytes are frequently *identical* across members (every member's first
/// edge consumes the shared stem output). The kernel exploits this by
/// lowering the full batch of a member's input into one tall column panel
/// and reusing that panel verbatim for every subsequent member whose input
/// is bitwise the same, amortising the dominant `k²`-fold expansion across
/// the pack.
///
/// Bitwise identity with the solo path holds by construction rather than by
/// a width gate: the grouped dispatch *iterates* the exact per-candidate,
/// per-sample schedule of [`conv2d_backward_weight_per_sample_into`] — the
/// same batch-1 [`below_direct_threshold`] decision, the same
/// `(ckk, ohow, c_out)` GEMM shapes, the same transpose staging — it never widens a GEMM across
/// members. Sharing a lowered panel is safe for the same reason the shared
/// stem forward is: equal input bytes lower to equal column bytes.
///
/// # Errors
///
/// Returns an error if the slice lengths disagree, any member's shapes are
/// inconsistent with the lead member or with `spec`, or a member's `out`
/// buffer is too short for the last sample's slice.
pub(crate) fn conv2d_backward_weight_per_sample_packed_into(
    inputs: &[&Tensor],
    grad_outs: &[&Tensor],
    c_out: usize,
    spec: Conv2dSpec,
    workspace: &mut Workspace,
    slots: &mut [PackedGradSlot<'_>],
) -> Result<()> {
    check_pack_arity(inputs, grad_outs, slots)?;
    let Some(first) = inputs.first() else {
        return Ok(());
    };
    // A lone member gains nothing from the tall panel; run the solo kernel
    // with its solo-sized workspace footprint.
    if inputs.len() == 1 {
        let slot = &mut slots[0];
        return conv2d_backward_weight_per_sample_into(
            inputs[0],
            grad_outs[0],
            c_out,
            spec,
            workspace,
            slot.out,
            slot.row_stride,
            slot.offset,
        );
    }
    let (n, c_in, h, w, oh, ow) = check_backward_weight_args(first, grad_outs[0], c_out, spec)?;
    let k = spec.kernel;
    let per_sample = c_out * c_in * k * k;
    for ((input, grad_out), slot) in inputs.iter().zip(grad_outs).zip(slots.iter()) {
        if input.shape() != first.shape() {
            return Err(TensorError::IncompatibleShapes {
                op: "conv2d_backward_weight_per_sample_packed",
                lhs: input.shape().dims().to_vec(),
                rhs: first.shape().dims().to_vec(),
            });
        }
        let len = slot.out.len();
        check_per_sample_args(
            input,
            grad_out,
            c_out,
            spec,
            len,
            slot.row_stride,
            slot.offset,
        )?;
    }
    // Same geometry-only (batch-1) engine decision as the solo per-sample
    // kernel — shared by every member, so the packed dispatch can never
    // diverge from a per-member loop of solo calls.
    if below_direct_threshold(1, c_in, c_out, k, oh, ow) {
        for ((input, grad_out), slot) in inputs.iter().zip(grad_outs).zip(slots.iter_mut()) {
            for b in 0..n {
                let dst = &mut slot.out[b * slot.row_stride + slot.offset..][..per_sample];
                direct_weight_grad_sample(input, grad_out, b, c_out, c_in, h, w, oh, ow, spec, dst);
            }
        }
        return Ok(());
    }
    count_gemm_dispatch();
    let ohow = oh * ow;
    let ckk = c_in * k * k;
    let in_stride = c_in * h * w;
    let out_stride = c_out * ohow;
    if spec.is_pointwise() {
        // Pointwise layers use the image itself as the column matrix:
        // nothing to lower or share, so run the solo per-sample schedule per
        // member with a single staging acquisition for the whole pack.
        let (_, aux) = workspace.col_and_aux(0, (ohow + ckk) * c_out);
        let (g_t, w_t) = aux.split_at_mut(ohow * c_out);
        for ((input, grad_out), slot) in inputs.iter().zip(grad_outs).zip(slots.iter_mut()) {
            for b in 0..n {
                let image = &input.data()[b * in_stride..(b + 1) * in_stride];
                let g = &grad_out.data()[b * out_stride..(b + 1) * out_stride];
                transpose_into(g, c_out, ohow, g_t);
                gemm_nn_uncounted(ckk, ohow, c_out, image, g_t, w_t, false);
                let dst = &mut slot.out[b * slot.row_stride + slot.offset..][..per_sample];
                transpose_into(w_t, ckk, c_out, dst);
            }
        }
        return Ok(());
    }
    // Tall column panel: all N samples of one member's input lowered side by
    // side, each sample's block in the exact layout the solo kernel feeds
    // its GEMM. The panel is rebuilt only when a member's input bytes differ
    // from the member whose lowering currently occupies it — a pointer check
    // first, then a bitwise compare (~1/k² of the lowering cost), so packs
    // fed the shared stem output lower it exactly once.
    let (col, aux) = workspace.col_and_aux(n * ckk * ohow, (ohow + ckk) * c_out);
    let (g_t, w_t) = aux.split_at_mut(ohow * c_out);
    let mut lowered_for: Option<&[f32]> = None;
    for ((input, grad_out), slot) in inputs.iter().zip(grad_outs).zip(slots.iter_mut()) {
        let data = input.data();
        let shared = lowered_for
            .is_some_and(|prev| prev.as_ptr() == data.as_ptr() || bitwise_eq(prev, data));
        if !shared {
            for b in 0..n {
                im2col(
                    &data[b * in_stride..(b + 1) * in_stride],
                    c_in,
                    h,
                    w,
                    spec,
                    oh,
                    ow,
                    &mut col[b * ckk * ohow..(b + 1) * ckk * ohow],
                );
            }
            lowered_for = Some(data);
        }
        for b in 0..n {
            let bmat = &col[b * ckk * ohow..(b + 1) * ckk * ohow];
            let g = &grad_out.data()[b * out_stride..(b + 1) * out_stride];
            transpose_into(g, c_out, ohow, g_t);
            gemm_nn_uncounted(ckk, ohow, c_out, bmat, g_t, w_t, false);
            let dst = &mut slot.out[b * slot.row_stride + slot.offset..][..per_sample];
            transpose_into(w_t, ckk, c_out, dst);
        }
    }
    Ok(())
}

/// Direct weight gradient of a single batch element, written into `dst`
/// (`[C_out, C_in, K, K]` flattened). Callers have validated the arguments
/// and zero/overwrite semantics: `dst` is fully overwritten.
#[allow(clippy::too_many_arguments)]
pub(crate) fn direct_weight_grad_sample(
    input: &Tensor,
    grad_out: &Tensor,
    b: usize,
    c_out: usize,
    c_in: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    spec: Conv2dSpec,
    dst: &mut [f32],
) {
    let k = spec.kernel;
    dst.fill(0.0);
    for oc in 0..c_out {
        for oy in 0..oh {
            for ox in 0..ow {
                let g = grad_out.at4(b, oc, oy, ox);
                if g == 0.0 {
                    continue;
                }
                for ic in 0..c_in {
                    for ky in 0..k {
                        let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dst[((oc * c_in + ic) * k + ky) * k + kx] +=
                                g * input.at4(b, ic, iy as usize, ix as usize);
                        }
                    }
                }
            }
        }
    }
}

pub(crate) fn check_backward_weight_args(
    input: &Tensor,
    grad_out: &Tensor,
    c_out: usize,
    spec: Conv2dSpec,
) -> Result<(usize, usize, usize, usize, usize, usize)> {
    check_window(spec.kernel, spec.stride)?;
    let id = input.shape().dims();
    if id.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d_backward_weight input",
            expected: 4,
            actual: id.len(),
        });
    }
    let gd = grad_out.shape().dims();
    if gd.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d_backward_weight grad",
            expected: 4,
            actual: gd.len(),
        });
    }
    let (n, c_in, h, w) = (id[0], id[1], id[2], id[3]);
    let (oh, ow) = spec.output_hw(h, w);
    if gd[0] != n || gd[1] != c_out || gd[2] != oh || gd[3] != ow {
        return Err(TensorError::IncompatibleShapes {
            op: "conv2d_backward_weight",
            lhs: gd.to_vec(),
            rhs: vec![n, c_out, oh, ow],
        });
    }
    Ok((n, c_in, h, w, oh, ow))
}

/// Direct (naive-loop) weight gradient, the reference implementation;
/// callers have validated the arguments.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_backward_weight_unchecked(
    input: &Tensor,
    grad_out: &Tensor,
    c_out: usize,
    spec: Conv2dSpec,
    n: usize,
    c_in: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
) -> Tensor {
    let mut grad_w = Tensor::zeros(Shape::nchw(c_out, c_in, spec.kernel, spec.kernel));
    for b in 0..n {
        for oc in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_out.at4(b, oc, oy, ox);
                    if g == 0.0 {
                        continue;
                    }
                    for ic in 0..c_in {
                        for ky in 0..spec.kernel {
                            let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..spec.kernel {
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                *grad_w.at4_mut(oc, ic, ky, kx) +=
                                    g * input.at4(b, ic, iy as usize, ix as usize);
                            }
                        }
                    }
                }
            }
        }
    }
    grad_w
}

// ---------------------------------------------------------------------------
// Input gradient
// ---------------------------------------------------------------------------

/// Gradient of the convolution output with respect to its input: the body
/// of [`crate::KernelBackend::BlockedGemm`]'s `conv2d_backward_input`. Dispatches
/// like [`conv2d_pooled`] and draws the output tensor from the workspace
/// recycling pool.
///
/// # Errors
///
/// Returns an error if the shapes are inconsistent with `spec`.
pub(crate) fn conv2d_backward_input_pooled(
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
    if below_direct_threshold(n, c_in, c_out, spec.kernel, oh, ow) {
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
    count_gemm_dispatch();
    conv2d_backward_input_gemm(
        weight,
        grad_out,
        input_shape,
        spec,
        workspace,
        grad_in.data_mut(),
    );
    Ok(grad_in)
}

/// GEMM body of the input gradient, accumulating into the pre-zeroed
/// `grad_in` (`input_shape`, flattened). Arguments have been validated; the
/// caller counts the dispatch.
fn conv2d_backward_input_gemm(
    weight: &Tensor,
    grad_out: &Tensor,
    input_shape: &Shape,
    spec: Conv2dSpec,
    workspace: &mut Workspace,
    grad_in: &mut [f32],
) {
    let id = input_shape.dims();
    let (n, c_in, h, w) = (id[0], id[1], id[2], id[3]);
    let c_out = weight.shape().dims()[0];
    let k = spec.kernel;
    let (oh, ow) = spec.output_hw(h, w);
    let ohow = oh * ow;
    let ckk = c_in * k * k;
    let in_stride = c_in * h * w;
    let out_stride = c_out * ohow;
    let w_mat = weight.data();
    if spec.is_pointwise() {
        for b in 0..n {
            let g = &grad_out.data()[b * out_stride..(b + 1) * out_stride];
            let dst = &mut grad_in[b * in_stride..(b + 1) * in_stride];
            // grad_in_b [C_in, HW] = W [C_out, C_in]ᵀ · grad_out_b.
            gemm_tn_uncounted(ckk, c_out, ohow, w_mat, g, dst, false);
        }
        return;
    }
    // Column *gradients* stage in the auxiliary buffer, leaving the column
    // buffer free for kernels that hold an im2col lowering across this call.
    let stage = workspace.aux_buffer(ckk * ohow);
    for b in 0..n {
        let g = &grad_out.data()[b * out_stride..(b + 1) * out_stride];
        gemm_tn_uncounted(ckk, c_out, ohow, w_mat, g, stage, false);
        let dst = &mut grad_in[b * in_stride..(b + 1) * in_stride];
        col2im_add(stage, c_in, h, w, spec, oh, ow, dst);
    }
}

pub(crate) fn check_backward_input_args(
    weight: &Tensor,
    grad_out: &Tensor,
    input_shape: &Shape,
    spec: Conv2dSpec,
) -> Result<(usize, usize, usize, usize, usize, usize, usize)> {
    check_window(spec.kernel, spec.stride)?;
    let id = input_shape.dims();
    if id.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d_backward_input shape",
            expected: 4,
            actual: id.len(),
        });
    }
    let wd = weight.shape().dims();
    let gd = grad_out.shape().dims();
    let (n, c_in, h, w) = (id[0], id[1], id[2], id[3]);
    let c_out = wd[0];
    let (oh, ow) = spec.output_hw(h, w);
    if gd != [n, c_out, oh, ow] {
        return Err(TensorError::IncompatibleShapes {
            op: "conv2d_backward_input",
            lhs: gd.to_vec(),
            rhs: vec![n, c_out, oh, ow],
        });
    }
    Ok((n, c_in, h, w, c_out, oh, ow))
}

/// Direct (naive-loop) input gradient, the reference implementation,
/// accumulating into the pre-zeroed `grad_in`; callers have validated the
/// arguments.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_backward_input_unchecked(
    weight: &Tensor,
    grad_out: &Tensor,
    spec: Conv2dSpec,
    n: usize,
    c_in: usize,
    h: usize,
    w: usize,
    c_out: usize,
    oh: usize,
    ow: usize,
    grad_in: &mut Tensor,
) {
    for b in 0..n {
        for oc in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_out.at4(b, oc, oy, ox);
                    if g == 0.0 {
                        continue;
                    }
                    for ic in 0..c_in {
                        for ky in 0..spec.kernel {
                            let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..spec.kernel {
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                *grad_in.at4_mut(b, ic, iy as usize, ix as usize) +=
                                    g * weight.at4(oc, ic, ky, kx);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeterministicRng, KernelBackend};
    use proptest::prelude::*;

    fn random_tensor(shape: Shape, seed: u64) -> Tensor {
        let mut rng = DeterministicRng::new(seed);
        let data = (0..shape.numel()).map(|_| rng.normal()).collect();
        Tensor::from_vec(shape, data).unwrap()
    }

    /// The dispatching forward on a throwaway workspace.
    fn conv(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Result<Tensor> {
        conv2d_pooled(input, weight, spec, &mut Workspace::default())
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // A 1x1 kernel with weight 1.0 and a single channel is the identity.
        let input = random_tensor(Shape::nchw(1, 1, 4, 4), 1);
        let weight = Tensor::ones(Shape::nchw(1, 1, 1, 1));
        let out = conv(&input, &weight, Conv2dSpec::new(1, 1, 0)).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn known_3x3_convolution() {
        // 3x3 all-ones kernel over a 3x3 all-ones image with padding 1:
        // centre output is 9, corners are 4, edges are 6.
        let input = Tensor::ones(Shape::nchw(1, 1, 3, 3));
        let weight = Tensor::ones(Shape::nchw(1, 1, 3, 3));
        let out = conv(&input, &weight, Conv2dSpec::new(3, 1, 1)).unwrap();
        assert_eq!(out.at4(0, 0, 1, 1), 9.0);
        assert_eq!(out.at4(0, 0, 0, 0), 4.0);
        assert_eq!(out.at4(0, 0, 0, 1), 6.0);
    }

    #[test]
    fn stride_two_halves_resolution() {
        let input = random_tensor(Shape::nchw(2, 3, 8, 8), 2);
        let weight = random_tensor(Shape::nchw(4, 3, 3, 3), 3);
        let out = conv(&input, &weight, Conv2dSpec::new(3, 2, 1)).unwrap();
        assert_eq!(out.shape().dims(), &[2, 4, 4, 4]);
    }

    #[test]
    fn channel_mismatch_rejected() {
        let input = Tensor::zeros(Shape::nchw(1, 3, 4, 4));
        let weight = Tensor::zeros(Shape::nchw(2, 4, 3, 3));
        let spec = Conv2dSpec::new(3, 1, 1);
        assert!(conv(&input, &weight, spec).is_err());
        assert!(KernelBackend::Direct
            .conv2d(&input, &weight, spec, &mut Workspace::default())
            .is_err());
    }

    #[test]
    fn kernel_spec_mismatch_rejected() {
        let input = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        let weight = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        let spec = Conv2dSpec::new(1, 1, 0);
        assert!(conv(&input, &weight, spec).is_err());
        assert!(KernelBackend::Direct
            .conv2d(&input, &weight, spec, &mut Workspace::default())
            .is_err());
    }

    /// Packed-vs-solo bitwise identity over one geometry at several pack
    /// widths.
    fn assert_packed_matches_solo(shape: Shape, weight: Tensor, spec: Conv2dSpec, seed: u64) {
        for width in [1usize, 2, 3, 8] {
            let inputs: Vec<Tensor> = (0..width)
                .map(|i| random_tensor(shape.clone(), seed + i as u64))
                .collect();
            let refs: Vec<&Tensor> = inputs.iter().collect();
            let mut packed_ws = Workspace::default();
            let packed = conv2d_forward_packed_pooled(&refs, &weight, spec, &mut packed_ws)
                .expect("packed conv");
            assert_eq!(packed.len(), width);
            for (input, got) in inputs.iter().zip(&packed) {
                let mut solo_ws = Workspace::default();
                let want = conv2d_pooled(input, &weight, spec, &mut solo_ws).expect("solo conv");
                assert_eq!(got, &want, "width {width} must be bitwise solo");
            }
        }
    }

    #[test]
    fn packed_forward_is_bitwise_solo_across_geometries() {
        // Wide schedule, pointwise (the image is its own column matrix):
        // ohow 144 > 32.
        assert_packed_matches_solo(
            Shape::nchw(2, 6, 12, 12),
            random_tensor(Shape::nchw(6, 6, 1, 1), 40),
            Conv2dSpec::new(1, 1, 0),
            400,
        );
        // Row-band schedule: ckk 72 >= 64, ohow 25 <= 32.
        assert_packed_matches_solo(
            Shape::nchw(2, 8, 5, 5),
            random_tensor(Shape::nchw(8, 8, 3, 3), 41),
            Conv2dSpec::new(3, 1, 1),
            500,
        );
        // Narrow and shallow (ohow <= 32, ckk < 64): row-band per image,
        // though a GEMM over the bucket's columns would dispatch wide.
        assert_packed_matches_solo(
            Shape::nchw(3, 2, 5, 5),
            random_tensor(Shape::nchw(4, 2, 3, 3), 42),
            Conv2dSpec::new(3, 1, 1),
            600,
        );
        assert_packed_matches_solo(
            Shape::nchw(4, 3, 4, 8),
            random_tensor(Shape::nchw(5, 3, 3, 3), 50),
            Conv2dSpec::new(3, 1, 1),
            650,
        );
        // Below the direct-dispatch threshold: per-candidate direct loops.
        assert_packed_matches_solo(
            Shape::nchw(1, 2, 4, 4),
            random_tensor(Shape::nchw(2, 2, 3, 3), 43),
            Conv2dSpec::new(3, 1, 1),
            700,
        );
        // Strided non-pointwise (wide schedule), and a strided conv whose
        // 4×4 output puts it on the narrow row-band schedule.
        assert_packed_matches_solo(
            Shape::nchw(2, 4, 16, 16),
            random_tensor(Shape::nchw(4, 4, 3, 3), 44),
            Conv2dSpec::new(3, 2, 1),
            800,
        );
        assert_packed_matches_solo(
            Shape::nchw(2, 4, 8, 8),
            random_tensor(Shape::nchw(6, 4, 3, 3), 51),
            Conv2dSpec::new(3, 2, 1),
            850,
        );
        // Strided 1×1: lowered through im2col, not copied.
        assert_packed_matches_solo(
            Shape::nchw(2, 8, 12, 12),
            random_tensor(Shape::nchw(8, 8, 1, 1), 52),
            Conv2dSpec::new(1, 2, 0),
            870,
        );
        // Paper geometry (8 channels, 16×16, conv3×3): row-band by depth.
        assert_packed_matches_solo(
            Shape::nchw(5, 8, 16, 16),
            random_tensor(Shape::nchw(8, 8, 3, 3), 53),
            Conv2dSpec::new(3, 1, 1),
            950,
        );
    }

    /// Runs `conv2d_gemm_unchecked` on one stride-1 geometry, with a
    /// staging buffer full of NaN, and asserts it is bit for bit the
    /// explicit `im2col` + `gemm_nn_uncounted` product of every image.
    /// Returns whether the geometry took the implicit operand.
    fn assert_gemm_forward_is_explicit_lowering(
        (c_in, c_out, hw): (usize, usize, usize),
        spec: Conv2dSpec,
        batch: usize,
        seed: u64,
    ) -> bool {
        let (k, pad) = (spec.kernel, spec.padding);
        let (oh, ow) = spec.output_hw(hw, hw);
        let (ckk, ohow) = (c_in * k * k, oh * ow);
        let input = random_tensor(Shape::nchw(batch, c_in, hw, hw), seed);
        let weight = random_tensor(Shape::nchw(c_out, c_in, k, k), !seed);

        let mut ws = Workspace::default();
        let side = hw + 2 * pad + k;
        ws.col_buffer(c_in * side * side).fill(f32::NAN);
        let mut got = vec![f32::NAN; batch * c_out * ohow];
        conv2d_gemm_unchecked(&input, &weight, spec, &mut ws, &mut got);

        let mut col = vec![0.0; ckk * ohow];
        let mut want = vec![0.0; batch * c_out * ohow];
        let images = input.data().chunks_exact(c_in * hw * hw);
        for (image, dst) in images.zip(want.chunks_exact_mut(c_out * ohow)) {
            im2col(image, c_in, hw, hw, spec, oh, ow, &mut col);
            gemm_nn_uncounted(c_out, ckk, ohow, weight.data(), &col, dst, false);
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got),
            bits(&want),
            "c_in {c_in}, c_out {c_out}, {hw}x{hw}, k {k}, pad {pad}, batch {batch}"
        );
        !spec.is_pointwise() && uses_row_band(ckk, ohow)
    }

    /// The packed and solo forward share `conv2d_gemm_unchecked`, whose
    /// stride-1 row-band convs multiply a zero-padded image in place. Over
    /// a grid of geometries (16- and 8-wide tiles that straddle output
    /// rows, scalar remainder columns, 1-row bands, kernels wider than the
    /// padded image) it must be bit for bit the explicit lowering. The
    /// staging buffer starts full of NaN, so a lane the padding copy skips
    /// shows up as a mismatch.
    #[test]
    fn packed_implicit_forward_is_bitwise_the_explicit_lowering() {
        let (mut points, mut implicit) = (0u64, 0);
        for c_in in [1usize, 3, 8, 16] {
            for c_out in [1usize, 3, 4, 8, 9] {
                for hw in [1usize, 4, 5, 8, 12, 16, 17] {
                    for (k, pad) in [(1, 0), (1, 1), (3, 0), (3, 1)] {
                        for batch in [1, 3] {
                            points += 1;
                            let spec = Conv2dSpec::new(k, 1, pad);
                            let geometry = (c_in, c_out, hw);
                            if assert_gemm_forward_is_explicit_lowering(
                                geometry, spec, batch, points,
                            ) {
                                implicit += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(points, 1120);
        assert!(
            implicit >= 400,
            "only {implicit} grid points ran implicitly"
        );
        // A column matrix deeper than the stack row-start table.
        let deep = (STACK_ROW_STARTS / 9 + 1, 4, 5);
        let spec = Conv2dSpec::new(3, 1, 1);
        assert!(assert_gemm_forward_is_explicit_lowering(deep, spec, 2, 0));
    }

    #[test]
    fn packed_forward_rejects_mismatched_input_shapes() {
        let weight = random_tensor(Shape::nchw(4, 3, 3, 3), 47);
        let a = random_tensor(Shape::nchw(2, 3, 8, 8), 48);
        let b = random_tensor(Shape::nchw(1, 3, 8, 8), 49);
        let err = conv2d_forward_packed_pooled(
            &[&a, &b],
            &weight,
            Conv2dSpec::new(3, 1, 1),
            &mut Workspace::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("conv2d_forward_packed"), "{err}");
        // Empty input list is a no-op, not an error.
        assert!(conv2d_forward_packed_pooled(
            &[],
            &weight,
            Conv2dSpec::new(3, 1, 1),
            &mut Workspace::default()
        )
        .unwrap()
        .is_empty());
    }

    /// Finite-difference check of the weight gradient.
    #[test]
    fn weight_gradient_matches_finite_difference() {
        let spec = Conv2dSpec::new(3, 1, 1);
        let input = random_tensor(Shape::nchw(2, 2, 5, 5), 10);
        let mut weight = random_tensor(Shape::nchw(3, 2, 3, 3), 11);
        // Loss = sum of outputs; its gradient w.r.t. output is all-ones.
        let out = conv(&input, &weight, spec).unwrap();
        let grad_out = Tensor::ones(out.shape().clone());
        let analytic =
            conv2d_backward_weight_with(&input, &grad_out, 3, spec, &mut Workspace::default())
                .unwrap();

        let eps = 1e-2f32;
        for &idx in &[0usize, 7, 23, 53] {
            let orig = weight.data()[idx];
            weight.data_mut()[idx] = orig + eps;
            let plus = conv(&input, &weight, spec).unwrap().sum();
            weight.data_mut()[idx] = orig - eps;
            let minus = conv(&input, &weight, spec).unwrap().sum();
            weight.data_mut()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let a = analytic.data()[idx];
            assert!(
                (numeric - a).abs() < 2e-2 * (1.0 + a.abs()),
                "idx {idx}: numeric {numeric} vs analytic {a}"
            );
        }
    }

    /// Finite-difference check of the input gradient.
    #[test]
    fn input_gradient_matches_finite_difference() {
        let spec = Conv2dSpec::new(3, 1, 1);
        let mut input = random_tensor(Shape::nchw(1, 2, 4, 4), 20);
        let weight = random_tensor(Shape::nchw(2, 2, 3, 3), 21);
        let out = conv(&input, &weight, spec).unwrap();
        let grad_out = Tensor::ones(out.shape().clone());
        let shape = Shape::nchw(1, 2, 4, 4);
        let analytic =
            conv2d_backward_input_pooled(&weight, &grad_out, &shape, spec, &mut Workspace::new())
                .unwrap();

        let eps = 1e-2f32;
        for &idx in &[0usize, 5, 17, 31] {
            let orig = input.data()[idx];
            input.data_mut()[idx] = orig + eps;
            let plus = conv(&input, &weight, spec).unwrap().sum();
            input.data_mut()[idx] = orig - eps;
            let minus = conv(&input, &weight, spec).unwrap().sum();
            input.data_mut()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let a = analytic.data()[idx];
            assert!(
                (numeric - a).abs() < 2e-2 * (1.0 + a.abs()),
                "idx {idx}: numeric {numeric} vs analytic {a}"
            );
        }
    }

    #[test]
    fn conv_is_linear_in_input() {
        let spec = Conv2dSpec::new(3, 1, 1);
        let a = random_tensor(Shape::nchw(1, 2, 6, 6), 30);
        let b = random_tensor(Shape::nchw(1, 2, 6, 6), 31);
        let w = random_tensor(Shape::nchw(2, 2, 3, 3), 32);
        let lhs = conv(&a.add(&b).unwrap(), &w, spec).unwrap();
        let rhs = conv(&a, &w, spec)
            .unwrap()
            .add(&conv(&b, &w, spec).unwrap())
            .unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    // -- direct vs im2col/GEMM equivalence ---------------------------------

    fn assert_tensors_close(gemm: &Tensor, reference: &Tensor, tolerance: f32) {
        assert_eq!(gemm.shape(), reference.shape());
        for (g, r) in gemm.data().iter().zip(reference.data().iter()) {
            assert!(
                (g - r).abs() <= tolerance * (1.0 + r.abs()),
                "gemm {g} vs direct {r}"
            );
        }
    }

    /// One full equivalence check (forward + both gradients) for a geometry:
    /// the GEMM bodies, called past the small-shape dispatch so tiny
    /// geometries exercise them too, against the direct loops.
    fn check_engines_agree(
        n: usize,
        c_in: usize,
        c_out: usize,
        h: usize,
        w: usize,
        spec: Conv2dSpec,
        seed: u64,
    ) {
        let input = random_tensor(Shape::nchw(n, c_in, h, w), seed);
        let weight = random_tensor(Shape::nchw(c_out, c_in, spec.kernel, spec.kernel), seed + 1);
        let (oh, ow) = spec.output_hw(h, w);
        if oh == 0 || ow == 0 {
            return;
        }
        let grad_out = random_tensor(Shape::nchw(n, c_out, oh, ow), seed + 2);
        let mut ws = Workspace::default();

        let mut fwd = Tensor::zeros(Shape::nchw(n, c_out, oh, ow));
        conv2d_gemm_unchecked(&input, &weight, spec, &mut ws, fwd.data_mut());
        let gw = conv2d_backward_weight_gemm(&input, &grad_out, c_out, spec, &mut ws);
        let mut gi = Tensor::zeros(input.shape().clone());
        conv2d_backward_input_gemm(
            &weight,
            &grad_out,
            input.shape(),
            spec,
            &mut ws,
            gi.data_mut(),
        );

        let oracle = KernelBackend::Direct;
        let fwd_ref = oracle.conv2d(&input, &weight, spec, &mut ws).unwrap();
        let gw_ref = oracle
            .conv2d_backward_weight(&input, &grad_out, c_out, spec, &mut ws)
            .unwrap();
        let gi_ref = oracle
            .conv2d_backward_input(&weight, &grad_out, input.shape(), spec, &mut ws)
            .unwrap();

        assert_tensors_close(&fwd, &fwd_ref, 1e-5);
        assert_tensors_close(&gw, &gw_ref, 1e-5);
        assert_tensors_close(&gi, &gi_ref, 1e-5);
    }

    #[test]
    fn engines_agree_on_representative_geometries() {
        // The geometries the proxy networks actually use.
        check_engines_agree(2, 3, 8, 16, 16, Conv2dSpec::new(3, 1, 1), 40);
        check_engines_agree(1, 8, 8, 16, 16, Conv2dSpec::new(1, 1, 0), 41);
        check_engines_agree(3, 4, 6, 12, 12, Conv2dSpec::new(3, 2, 1), 42);
    }

    #[test]
    fn pointwise_fast_path_handles_strides_and_padding_variants() {
        // 1x1 kernels with stride or padding do NOT take the fast path; make
        // sure the general path handles them identically.
        check_engines_agree(2, 3, 4, 9, 9, Conv2dSpec::new(1, 2, 0), 50);
        check_engines_agree(2, 3, 4, 9, 9, Conv2dSpec::new(1, 1, 1), 51);
    }

    #[test]
    fn per_sample_weight_grads_sum_to_batch_gradient() {
        let spec = Conv2dSpec::new(3, 1, 1);
        let input = random_tensor(Shape::nchw(3, 2, 6, 6), 60);
        let grad_out = random_tensor(Shape::nchw(3, 4, 6, 6), 61);
        let mut ws = Workspace::default();
        let p = 4 * 2 * 3 * 3;
        let mut per_sample = vec![f32::NAN; 3 * p];
        conv2d_backward_weight_per_sample_into(
            &input,
            &grad_out,
            4,
            spec,
            &mut ws,
            &mut per_sample,
            p,
            0,
        )
        .unwrap();
        let total = conv2d_backward_weight_with(&input, &grad_out, 4, spec, &mut ws).unwrap();
        assert_eq!(total.numel(), p);
        for (idx, &t) in total.data().iter().enumerate() {
            let summed: f32 = (0..3).map(|b| per_sample[b * p + idx]).sum();
            assert!(
                (summed - t).abs() < 1e-4 * (1.0 + t.abs()),
                "param {idx}: per-sample sum {summed} vs batch {t}"
            );
        }
    }

    #[test]
    fn per_sample_into_respects_stride_and_offset() {
        let spec = Conv2dSpec::new(1, 1, 0);
        let input = random_tensor(Shape::nchw(2, 3, 5, 5), 62);
        let grad_out = random_tensor(Shape::nchw(2, 2, 5, 5), 63);
        let mut ws = Workspace::default();
        let per_sample = 2 * 3;
        let (row_stride, offset) = (per_sample + 7, 4);
        let mut out = vec![f32::NAN; 2 * row_stride];
        conv2d_backward_weight_per_sample_into(
            &input, &grad_out, 2, spec, &mut ws, &mut out, row_stride, offset,
        )
        .unwrap();
        let mut reference = vec![f32::NAN; 2 * per_sample];
        conv2d_backward_weight_per_sample_into(
            &input,
            &grad_out,
            2,
            spec,
            &mut ws,
            &mut reference,
            per_sample,
            0,
        )
        .unwrap();
        for b in 0..2 {
            let got = &out[b * row_stride + offset..b * row_stride + offset + per_sample];
            let want = &reference[b * per_sample..(b + 1) * per_sample];
            assert_eq!(got, want);
        }
        // Bytes outside the strided slices are untouched.
        assert!(out[..offset].iter().all(|v| v.is_nan()));

        // A too-short buffer is rejected, not sliced out of bounds.
        let mut short = vec![0.0; row_stride];
        assert!(conv2d_backward_weight_per_sample_into(
            &input, &grad_out, 2, spec, &mut ws, &mut short, row_stride, offset,
        )
        .is_err());
    }

    /// Packed per-sample weight gradients vs a loop of solo calls: bitwise,
    /// across pack widths with interleaved shared/distinct inputs (odd members carry a
    /// fresh allocation holding member 0's exact bytes, the way every pack
    /// member's first edge consumes its own copy of the shared stem output).
    fn assert_packed_backward_matches_solo(
        shape: Shape,
        c_out: usize,
        spec: Conv2dSpec,
        seed: u64,
    ) {
        let dims = shape.dims().to_vec();
        let (n, c_in) = (dims[0], dims[1]);
        let (oh, ow) = spec.output_hw(dims[2], dims[3]);
        let per_sample = c_out * c_in * spec.kernel * spec.kernel;
        for width in [1usize, 2, 8] {
            let inputs: Vec<Tensor> = (0..width)
                .map(|p| {
                    if p % 2 == 1 {
                        let lead = random_tensor(shape.clone(), seed + 1);
                        Tensor::from_vec(shape.clone(), lead.data().to_vec()).unwrap()
                    } else if p == 0 {
                        random_tensor(shape.clone(), seed + 1)
                    } else {
                        random_tensor(shape.clone(), seed + 2 + p as u64)
                    }
                })
                .collect();
            let grad_outs: Vec<Tensor> = (0..width)
                .map(|p| random_tensor(Shape::nchw(n, c_out, oh, ow), seed + 100 + p as u64))
                .collect();
            let input_refs: Vec<&Tensor> = inputs.iter().collect();
            let grad_refs: Vec<&Tensor> = grad_outs.iter().collect();

            // Per-member strides and offsets differ, as they do for real
            // pack members with different parameter counts.
            let strides: Vec<usize> = (0..width).map(|p| per_sample + 3 + p).collect();
            let offsets: Vec<usize> = (0..width).map(|p| p % 3).collect();
            let mut packed_bufs: Vec<Vec<f32>> = (0..width)
                .map(|p| vec![f32::NAN; n * strides[p] + offsets[p]])
                .collect();
            {
                let mut slots: Vec<PackedGradSlot<'_>> = packed_bufs
                    .iter_mut()
                    .enumerate()
                    .map(|(p, buf)| PackedGradSlot {
                        out: buf.as_mut_slice(),
                        row_stride: strides[p],
                        offset: offsets[p],
                    })
                    .collect();
                conv2d_backward_weight_per_sample_packed_into(
                    &input_refs,
                    &grad_refs,
                    c_out,
                    spec,
                    &mut Workspace::default(),
                    &mut slots,
                )
                .unwrap();
            }
            let mut ws = Workspace::default();
            for p in 0..width {
                let mut solo = vec![f32::NAN; n * strides[p] + offsets[p]];
                conv2d_backward_weight_per_sample_into(
                    &inputs[p],
                    &grad_outs[p],
                    c_out,
                    spec,
                    &mut ws,
                    &mut solo,
                    strides[p],
                    offsets[p],
                )
                .unwrap();
                // Bitwise over the whole buffer: written slices agree
                // exactly and NaN canaries outside them are untouched.
                assert!(
                    packed_bufs[p]
                        .iter()
                        .zip(&solo)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "packed per-sample weight grads diverge from solo \
                     (width {width}, member {p}, spec {spec:?})"
                );
            }
        }
    }

    #[test]
    fn packed_backward_is_bitwise_identical_to_solo() {
        // Pointwise merge (image doubles as the column matrix).
        assert_packed_backward_matches_solo(
            Shape::nchw(2, 6, 12, 12),
            6,
            Conv2dSpec::new(1, 1, 0),
            500,
        );
        // General 3×3 GEMM path with a shared tall im2col panel.
        assert_packed_backward_matches_solo(
            Shape::nchw(2, 4, 10, 10),
            4,
            Conv2dSpec::new(3, 1, 1),
            600,
        );
        // Below the direct-dispatch threshold: per-candidate direct loops.
        assert_packed_backward_matches_solo(
            Shape::nchw(1, 2, 4, 4),
            2,
            Conv2dSpec::new(3, 1, 1),
            700,
        );
        // Strided non-pointwise geometry.
        assert_packed_backward_matches_solo(
            Shape::nchw(2, 4, 16, 16),
            4,
            Conv2dSpec::new(3, 2, 1),
            800,
        );
    }

    #[test]
    fn packed_backward_rejects_bad_arguments() {
        let spec = Conv2dSpec::new(3, 1, 1);
        let a = random_tensor(Shape::nchw(2, 3, 8, 8), 70);
        let b = random_tensor(Shape::nchw(1, 3, 8, 8), 71);
        let ga = random_tensor(Shape::nchw(2, 4, 8, 8), 72);
        let gb = random_tensor(Shape::nchw(1, 4, 8, 8), 73);
        let per_sample = 4 * 3 * 3 * 3;
        let mut bufs = [vec![0.0f32; 2 * per_sample], vec![0.0f32; 2 * per_sample]];
        let [buf_a, buf_b] = &mut bufs;

        // Mismatched member input shapes.
        let mut slots = vec![
            PackedGradSlot {
                out: buf_a.as_mut_slice(),
                row_stride: per_sample,
                offset: 0,
            },
            PackedGradSlot {
                out: buf_b.as_mut_slice(),
                row_stride: per_sample,
                offset: 0,
            },
        ];
        let err = conv2d_backward_weight_per_sample_packed_into(
            &[&a, &b],
            &[&ga, &gb],
            4,
            spec,
            &mut Workspace::default(),
            &mut slots,
        )
        .unwrap_err();
        assert!(err.to_string().contains("per_sample_packed"), "{err}");

        // Arity mismatch between inputs and slots.
        let [buf_a, _] = &mut bufs;
        let mut one_slot = vec![PackedGradSlot {
            out: buf_a.as_mut_slice(),
            row_stride: per_sample,
            offset: 0,
        }];
        assert!(conv2d_backward_weight_per_sample_packed_into(
            &[&a, &a],
            &[&ga, &ga],
            4,
            spec,
            &mut Workspace::default(),
            &mut one_slot,
        )
        .is_err());

        // A too-short member buffer is rejected, not sliced out of bounds.
        let mut short = [vec![0.0f32; 2 * per_sample], vec![0.0f32; per_sample - 1]];
        let [long_buf, short_buf] = &mut short;
        let mut slots = vec![
            PackedGradSlot {
                out: long_buf.as_mut_slice(),
                row_stride: per_sample,
                offset: 0,
            },
            PackedGradSlot {
                out: short_buf.as_mut_slice(),
                row_stride: per_sample,
                offset: 0,
            },
        ];
        assert!(conv2d_backward_weight_per_sample_packed_into(
            &[&a, &a],
            &[&ga, &ga],
            4,
            spec,
            &mut Workspace::default(),
            &mut slots,
        )
        .is_err());

        // Empty packs are no-ops, not errors.
        assert!(conv2d_backward_weight_per_sample_packed_into(
            &[],
            &[],
            4,
            spec,
            &mut Workspace::default(),
            &mut [],
        )
        .is_ok());
    }

    proptest! {
        /// Per-sample weight gradients from the GEMM body match the direct
        /// per-sample oracle across random geometries.
        #[test]
        fn per_sample_weight_grads_match_direct_oracle(
            n in 1usize..4,
            c_in in 1usize..4,
            c_out in 1usize..4,
            h in 3usize..9,
            kernel in 1usize..4,
            stride in 1usize..3,
            padding in 0usize..2,
            seed in 0u64..1_000,
        ) {
            let spec = Conv2dSpec::new(kernel, stride, padding);
            let (oh, ow) = spec.output_hw(h, h);
            if h + 2 * padding >= kernel && oh > 0 && ow > 0 {
                let input = random_tensor(Shape::nchw(n, c_in, h, h), seed);
                let grad_out = random_tensor(Shape::nchw(n, c_out, oh, ow), seed + 1);
                let mut ws = Workspace::default();
                let p = c_out * c_in * kernel * kernel;
                let shape = Shape::nchw(n, c_out, c_in * kernel, kernel);
                let mut gemm = Tensor::zeros(shape.clone());
                per_sample_gemm_unchecked(
                    &input, &grad_out, c_out, spec, &mut ws, gemm.data_mut(), p, 0,
                );
                let mut reference = Tensor::zeros(shape);
                KernelBackend::Direct
                    .conv2d_backward_weight_per_sample_into(
                        &input, &grad_out, c_out, spec, &mut ws, reference.data_mut(), p, 0,
                    )
                    .unwrap();
                assert_tensors_close(&gemm, &reference, 1e-5);
            }
        }

        /// The decisive property: im2col/GEMM forward and both gradients
        /// match the direct reference kernels across random geometries.
        #[test]
        fn gemm_conv_matches_direct_reference(
            n in 1usize..3,
            c_in in 1usize..5,
            c_out in 1usize..5,
            h in 3usize..11,
            extra_w in 0usize..4,
            kernel in 1usize..4,
            stride in 1usize..3,
            padding in 0usize..3,
            seed in 0u64..1_000,
        ) {
            let spec = Conv2dSpec::new(kernel, stride, padding);
            let w = h + extra_w;
            // Skip degenerate geometries where the kernel overhangs the
            // padded input entirely.
            if h + 2 * padding >= kernel {
                check_engines_agree(n, c_in, c_out, h, w, spec, seed);
            }
        }
    }
}
