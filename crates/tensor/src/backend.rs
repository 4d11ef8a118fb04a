//! The pluggable execution-backend layer: [`KernelBackend`].
//!
//! Every numerical kernel the network substrate runs — convolution forward
//! and backward, per-sample weight gradients, average pooling, the GEMM
//! primitives behind linear layers and the NTK Gram build — is dispatched
//! through the object-safe [`KernelBackend`] trait, the only public way to
//! run a conv or pool kernel. A backend carries a **stable
//! string id** and a **configuration fingerprint** (mirroring the `Proxy`
//! trait one layer up), so execution policy has a persistent identity that
//! evaluation stores can fold into their keys: results produced by a backend
//! that is not bitwise-identical to the paper default must never alias
//! results produced by it.
//!
//! Three backends ship:
//!
//! * [`DirectBackend`] (`"direct"`) — the naive-loop reference kernels, kept
//!   as the portable correctness oracle the conformance suite compares every
//!   other backend against.
//! * [`BlockedGemmBackend`] (`"blocked_gemm"`) — the paper-default engine:
//!   the im2col + cache-blocked GEMM path (implicit GEMM on the paper's
//!   conv3×3) with the shape-only small-problem direct dispatch. This is the
//!   only backend whose results are **bitwise-identical** to the paper
//!   pipeline ([`KernelBackend::bitwise_paper_identical`]).
//! * `SimdBackend` (`"simd"`, [`crate::SimdBackend`]) — hand-tiled AVX2+FMA
//!   micro-kernels plus fixed-size per-sample batch chunking on the rayon
//!   pool; bitwise-deterministic at any thread count, but *not* bitwise-equal
//!   to the paper default (FMA contracts the multiply-add rounding).
//!
//! [`all_backends`] is the registry the conformance suite iterates, and
//! [`paper_default_backend`] is the shared instance every network uses when
//! no backend is supplied explicitly.

use crate::conv::{
    check_backward_input_args, check_backward_weight_args, check_conv_args, check_per_sample_args,
    conv2d_backward_input_pooled, conv2d_backward_input_unchecked,
    conv2d_backward_weight_per_sample_into, conv2d_backward_weight_per_sample_packed_into,
    conv2d_backward_weight_unchecked, conv2d_backward_weight_with, conv2d_direct_unchecked,
    conv2d_forward_packed_pooled, conv2d_pooled, direct_weight_grad_sample, PackedGradSlot,
};
use crate::pool::{avg_pool2d_backward_pooled, avg_pool2d_pooled};
use crate::rng::hash_mix;
use crate::{Conv2dSpec, Result, Shape, Tensor, TensorError, Workspace};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Retention cap (bytes) for shared per-thread scratch arenas: an arena
/// whose footprint exceeds it is released after an evaluation.
pub const DEFAULT_ARENA_RETENTION_CAP: usize = 64 << 20;

/// An execution backend: the complete kernel set the network substrate runs
/// on, behind one object-safe surface.
///
/// # Contract
///
/// * **Purity** — every method is a pure function of its tensor arguments
///   (plus the backend's own configuration). The [`Workspace`] is scratch
///   only; it never carries numerical state between calls, and no
///   process-global setting changes which kernel a call runs.
/// * **Determinism** — two calls with identical inputs return
///   bitwise-identical outputs, on any thread and at any rayon thread count.
/// * **Identity** — `(id, config_fingerprint)` is the backend's persistent
///   identity. Backends for which [`KernelBackend::bitwise_paper_identical`]
///   is `false` produce values that may diverge from the paper-default
///   pipeline, and stores fold this identity into their namespace so such
///   values can never poison logs written by the default backend.
/// * **Output buffers** — conv/pool methods may draw their output tensors
///   from the workspace recycling pool (callers recycle them in steady
///   state); where the buffer comes from never changes the values.
pub trait KernelBackend: std::fmt::Debug + Send + Sync {
    /// Stable string id of the backend family (e.g. `"blocked_gemm"`).
    /// Hashed into persistent store namespaces — it must never change once
    /// results have been persisted under it.
    fn id(&self) -> &str;

    /// Stable fingerprint of the backend's configuration (folded over an
    /// explicit value encoding with [`hash_mix`], never `std` hashes). The
    /// id is part of the fingerprint domain, so two backend families never
    /// collide structurally.
    fn config_fingerprint(&self) -> u64;

    /// Whether this backend's results are bitwise-identical to the
    /// paper-default execution path on every input. Only such backends may
    /// share the paper pipeline's store namespace.
    fn bitwise_paper_identical(&self) -> bool {
        false
    }

    /// Forward 2-D convolution (`[N, C_in, H, W]` × `[C_out, C_in, K, K]`).
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent shapes.
    fn conv2d(
        &self,
        input: &Tensor,
        weight: &Tensor,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Tensor>;

    /// Forward convolution of several same-shape inputs against one shared
    /// weight — the cross-candidate mega-batching entry point.
    ///
    /// The default implementation is the per-candidate oracle: one
    /// [`KernelBackend::conv2d`] per input, in order, so every backend is
    /// pack-conformant by construction. Backends that can fuse the panels
    /// into one wide dispatch override this; the override must stay
    /// **bitwise identical** to the default for that backend (the packed
    /// evaluation path promises bit-equality with the one-at-a-time path at
    /// every pack width).
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent shapes, or if the inputs do not
    /// all share one shape.
    fn conv2d_forward_packed(
        &self,
        inputs: &[&Tensor],
        weight: &Tensor,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Vec<Tensor>> {
        if let Some(first) = inputs.first() {
            for input in &inputs[1..] {
                if input.shape() != first.shape() {
                    return Err(TensorError::IncompatibleShapes {
                        op: "conv2d_forward_packed (inputs)",
                        lhs: first.shape().dims().to_vec(),
                        rhs: input.shape().dims().to_vec(),
                    });
                }
            }
        }
        inputs
            .iter()
            .map(|input| self.conv2d(input, weight, spec, workspace))
            .collect()
    }

    /// Gradient of the convolution output w.r.t. its input.
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent shapes.
    fn conv2d_backward_input(
        &self,
        weight: &Tensor,
        grad_out: &Tensor,
        input_shape: &Shape,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Tensor>;

    /// Gradient of the convolution output w.r.t. its weights (summed over
    /// the batch).
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent shapes.
    fn conv2d_backward_weight(
        &self,
        input: &Tensor,
        grad_out: &Tensor,
        c_out: usize,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Tensor>;

    /// Per-sample weight gradients written straight into a `[N, P]` matrix:
    /// the flattened `[C_out, C_in, K, K]` gradient of batch element `b`
    /// alone (not summed over the batch) lands at
    /// `out[b * row_stride + offset ..]`.
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent shapes or a too-short buffer.
    #[allow(clippy::too_many_arguments)]
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
    ) -> Result<()>;

    /// Packed per-sample weight gradients: one grouped dispatch computing
    /// [`KernelBackend::conv2d_backward_weight_per_sample_into`] for every
    /// pack member (each with its own destination slot, since members'
    /// parameter counts and layer offsets differ).
    ///
    /// The default implementation loops the solo per-sample kernel, which
    /// makes every backend pack-conformant by construction. Backends that
    /// can amortise work across members (sharing one im2col lowering of
    /// bitwise-identical probe activations) override it, but the override
    /// must keep the per-candidate schedule of the solo path so results stay
    /// bitwise-identical at every pack width — the same discipline as
    /// [`KernelBackend::conv2d_forward_packed`].
    ///
    /// # Errors
    ///
    /// Returns an error if slice lengths disagree, for inconsistent shapes
    /// or a too-short buffer.
    fn conv2d_backward_weight_per_sample_packed(
        &self,
        inputs: &[&Tensor],
        grad_outs: &[&Tensor],
        c_out: usize,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
        slots: &mut [PackedGradSlot<'_>],
    ) -> Result<()> {
        if inputs.len() != grad_outs.len() || inputs.len() != slots.len() {
            return Err(TensorError::InvalidArgument(format!(
                "packed per-sample backward arity mismatch: {} inputs, {} grads, {} slots",
                inputs.len(),
                grad_outs.len(),
                slots.len()
            )));
        }
        for ((input, grad_out), slot) in inputs.iter().zip(grad_outs).zip(slots.iter_mut()) {
            self.conv2d_backward_weight_per_sample_into(
                input,
                grad_out,
                c_out,
                spec,
                workspace,
                slot.out,
                slot.row_stride,
                slot.offset,
            )?;
        }
        Ok(())
    }

    /// Packed input gradients: one grouped dispatch computing
    /// [`KernelBackend::conv2d_backward_input`] for every pack member
    /// against one shared weight tensor.
    ///
    /// The default implementation loops the solo kernel; overrides must be
    /// bitwise-identical to that loop at every pack width (see
    /// [`KernelBackend::conv2d_backward_weight_per_sample_packed`]).
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent shapes.
    fn conv2d_backward_input_packed(
        &self,
        weight: &Tensor,
        grad_outs: &[&Tensor],
        input_shape: &Shape,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Vec<Tensor>> {
        grad_outs
            .iter()
            .map(|grad_out| {
                self.conv2d_backward_input(weight, grad_out, input_shape, spec, workspace)
            })
            .collect()
    }

    /// Average pooling with count-include-pad semantics.
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent shapes.
    fn avg_pool2d(
        &self,
        input: &Tensor,
        kernel: usize,
        stride: usize,
        padding: usize,
        workspace: &mut Workspace,
    ) -> Result<Tensor>;

    /// Backward pass of [`KernelBackend::avg_pool2d`].
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent shapes.
    fn avg_pool2d_backward(
        &self,
        grad_out: &Tensor,
        input_shape: &Shape,
        kernel: usize,
        stride: usize,
        padding: usize,
        workspace: &mut Workspace,
    ) -> Result<Tensor>;

    /// `C = A · B` (or `C += A · B`), all row-major (`A` `[m, k]`, `B`
    /// `[k, n]`). The linear-layer forward/backward primitive.
    ///
    /// # Panics
    ///
    /// Panics if a buffer length does not match its dimensions.
    #[allow(clippy::too_many_arguments)]
    fn gemm_nn(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        accumulate: bool,
    );

    /// `C = A · Bᵀ` with `B` row-major `[n, k]`.
    ///
    /// # Panics
    ///
    /// Panics if a buffer length does not match its dimensions.
    #[allow(clippy::too_many_arguments)]
    fn gemm_nt(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        accumulate: bool,
    );

    /// `C = Aᵀ · B` with `A` row-major `[k, m]`.
    ///
    /// # Panics
    ///
    /// Panics if a buffer length does not match its dimensions.
    #[allow(clippy::too_many_arguments)]
    fn gemm_tn(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        accumulate: bool,
    );

    /// Symmetric Gram matrix `G = J · Jᵀ` of a row-major `[n, p]` matrix,
    /// accumulated in `f64` — the NTK Gram primitive.
    ///
    /// # Panics
    ///
    /// Panics if a buffer length does not match its dimensions.
    fn gram_nt_f64(&self, n: usize, p: usize, j: &[f32], out: &mut [f64]);
}

/// Folds a backend identity chain: domain prefix, id bytes, then the
/// backend's configuration values. Public so external backends fingerprint
/// consistently with the built-ins.
pub fn backend_fingerprint(id: &str, version: u64, params: &[u64]) -> u64 {
    // "MicroNAS" in ASCII, xor-tagged for the backend domain.
    let seed = 0x4D69_6372_6F4E_4153u64 ^ 0x6261_636B_656E_6421;
    let mut h = id.bytes().fold(seed, |h, b| hash_mix(h, b as u64));
    h = hash_mix(h, version);
    for &p in params {
        h = hash_mix(h, p);
    }
    h
}

// ---------------------------------------------------------------------------
// DirectBackend: the naive-loop oracle
// ---------------------------------------------------------------------------

/// The naive-loop reference backend (`"direct"`): quadruple-loop convolution,
/// windowed-gather pooling, triple-loop GEMM and f64 dot-product Gram.
///
/// This is the portable correctness oracle — the backend conformance suite
/// compares every other backend against it. It is *not* bitwise-identical to
/// the paper default (the blocked GEMM path reorders reductions on
/// non-tiny shapes), so it carries its own store identity.
#[derive(Debug, Default, Clone, Copy)]
pub struct DirectBackend;

impl KernelBackend for DirectBackend {
    fn id(&self) -> &str {
        "direct"
    }

    fn config_fingerprint(&self) -> u64 {
        backend_fingerprint("direct", 1, &[])
    }

    fn conv2d(
        &self,
        input: &Tensor,
        weight: &Tensor,
        spec: Conv2dSpec,
        _workspace: &mut Workspace,
    ) -> Result<Tensor> {
        let (n, c_in, h, w, c_out, _) = check_conv_args(input, weight, spec)?;
        let (oh, ow) = spec.output_hw(h, w);
        let mut out = Tensor::zeros(Shape::nchw(n, c_out, oh, ow));
        conv2d_direct_unchecked(input, weight, spec, n, c_in, h, w, c_out, oh, ow, &mut out);
        Ok(out)
    }

    fn conv2d_backward_input(
        &self,
        weight: &Tensor,
        grad_out: &Tensor,
        input_shape: &Shape,
        spec: Conv2dSpec,
        _workspace: &mut Workspace,
    ) -> Result<Tensor> {
        let (n, c_in, h, w, c_out, oh, ow) =
            check_backward_input_args(weight, grad_out, input_shape, spec)?;
        let mut grad_in = Tensor::zeros(input_shape.clone());
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
        Ok(grad_in)
    }

    fn conv2d_backward_weight(
        &self,
        input: &Tensor,
        grad_out: &Tensor,
        c_out: usize,
        spec: Conv2dSpec,
        _workspace: &mut Workspace,
    ) -> Result<Tensor> {
        let (n, c_in, h, w, oh, ow) = check_backward_weight_args(input, grad_out, c_out, spec)?;
        Ok(conv2d_backward_weight_unchecked(
            input, grad_out, c_out, spec, n, c_in, h, w, oh, ow,
        ))
    }

    fn conv2d_backward_weight_per_sample_into(
        &self,
        input: &Tensor,
        grad_out: &Tensor,
        c_out: usize,
        spec: Conv2dSpec,
        _workspace: &mut Workspace,
        out: &mut [f32],
        row_stride: usize,
        offset: usize,
    ) -> Result<()> {
        let (n, c_in, h, w, oh, ow) =
            check_per_sample_args(input, grad_out, c_out, spec, out.len(), row_stride, offset)?;
        let per_sample = c_out * c_in * spec.kernel * spec.kernel;
        for b in 0..n {
            let dst = &mut out[b * row_stride + offset..b * row_stride + offset + per_sample];
            direct_weight_grad_sample(input, grad_out, b, c_out, c_in, h, w, oh, ow, spec, dst);
        }
        Ok(())
    }

    fn avg_pool2d(
        &self,
        input: &Tensor,
        kernel: usize,
        stride: usize,
        padding: usize,
        _workspace: &mut Workspace,
    ) -> Result<Tensor> {
        avg_pool2d_direct(input, kernel, stride, padding)
    }

    fn avg_pool2d_backward(
        &self,
        grad_out: &Tensor,
        input_shape: &Shape,
        kernel: usize,
        stride: usize,
        padding: usize,
        _workspace: &mut Workspace,
    ) -> Result<Tensor> {
        avg_pool2d_backward_direct(grad_out, input_shape, kernel, stride, padding)
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
        assert_eq!(a.len(), m * k, "gemm: A buffer has wrong length");
        assert_eq!(b.len(), k * n, "gemm: B buffer has wrong length");
        assert_eq!(c.len(), m * n, "gemm: C buffer has wrong length");
        if !accumulate {
            c.fill(0.0);
        }
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                for jj in 0..n {
                    c[i * n + jj] += av * b[p * n + jj];
                }
            }
        }
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
        assert_eq!(a.len(), m * k, "gemm: A buffer has wrong length");
        assert_eq!(b.len(), n * k, "gemm: B buffer has wrong length");
        assert_eq!(c.len(), m * n, "gemm: C buffer has wrong length");
        if !accumulate {
            c.fill(0.0);
        }
        for i in 0..m {
            for jj in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[jj * k + p];
                }
                c[i * n + jj] += acc;
            }
        }
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
        assert_eq!(a.len(), k * m, "gemm: A buffer has wrong length");
        assert_eq!(b.len(), k * n, "gemm: B buffer has wrong length");
        assert_eq!(c.len(), m * n, "gemm: C buffer has wrong length");
        if !accumulate {
            c.fill(0.0);
        }
        for i in 0..m {
            for jj in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[p * m + i] * b[p * n + jj];
                }
                c[i * n + jj] += acc;
            }
        }
    }

    fn gram_nt_f64(&self, n: usize, p: usize, j: &[f32], out: &mut [f64]) {
        assert_eq!(j.len(), n * p, "gram: J buffer has wrong length");
        assert_eq!(out.len(), n * n, "gram: output buffer has wrong length");
        for i in 0..n {
            for l in i..n {
                let mut acc = 0.0f64;
                for q in 0..p {
                    acc += j[i * p + q] as f64 * j[l * p + q] as f64;
                }
                out[i * n + l] = acc;
                out[l * n + i] = acc;
            }
        }
    }
}

/// Naive windowed-gather average pooling: the conformance oracle for the
/// separable two-pass kernel.
fn avg_pool2d_direct(
    input: &Tensor,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<Tensor> {
    let _span = micronas_telemetry::span!("tensor.pool");
    if kernel == 0 || stride == 0 {
        return Err(TensorError::InvalidArgument(
            "kernel and stride must be positive".into(),
        ));
    }
    let d = input.shape().dims();
    if d.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "avg_pool2d",
            expected: 4,
            actual: d.len(),
        });
    }
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let oh = (h + 2 * padding).saturating_sub(kernel) / stride + 1;
    let ow = (w + 2 * padding).saturating_sub(kernel) / stride + 1;
    let denom = (kernel * kernel) as f32;
    let mut out = Tensor::zeros(Shape::nchw(n, c, oh, ow));
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ky in 0..kernel {
                        let iy = (oy * stride + ky) as isize - padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kernel {
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc += input.at4(b, ch, iy as usize, ix as usize);
                        }
                    }
                    *out.at4_mut(b, ch, oy, ox) = acc / denom;
                }
            }
        }
    }
    Ok(out)
}

/// Naive scatter backward of [`avg_pool2d_direct`].
fn avg_pool2d_backward_direct(
    grad_out: &Tensor,
    input_shape: &Shape,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<Tensor> {
    let d = input_shape.dims();
    if d.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "avg_pool2d_backward",
            expected: 4,
            actual: d.len(),
        });
    }
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let oh = (h + 2 * padding).saturating_sub(kernel) / stride + 1;
    let ow = (w + 2 * padding).saturating_sub(kernel) / stride + 1;
    if grad_out.shape().dims() != [n, c, oh, ow] {
        return Err(TensorError::IncompatibleShapes {
            op: "avg_pool2d_backward",
            lhs: grad_out.shape().dims().to_vec(),
            rhs: vec![n, c, oh, ow],
        });
    }
    let denom = (kernel * kernel) as f32;
    let mut grad_in = Tensor::zeros(input_shape.clone());
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_out.at4(b, ch, oy, ox) / denom;
                    for ky in 0..kernel {
                        let iy = (oy * stride + ky) as isize - padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kernel {
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            *grad_in.at4_mut(b, ch, iy as usize, ix as usize) += g;
                        }
                    }
                }
            }
        }
    }
    Ok(grad_in)
}

// ---------------------------------------------------------------------------
// BlockedGemmBackend: the paper default
// ---------------------------------------------------------------------------

/// The paper-default backend (`"blocked_gemm"`): im2col lowering (or, for
/// the paper's stride-1 conv3×3 forward, a zero-padded image read in place)
/// into the cache-blocked GEMM kernels, with direct loops for problems below
/// a small MAC threshold — a pure function of the shape. It *is* the paper
/// pipeline, so it is bitwise-identical to it.
#[derive(Debug, Default, Clone, Copy)]
pub struct BlockedGemmBackend;

impl KernelBackend for BlockedGemmBackend {
    fn id(&self) -> &str {
        "blocked_gemm"
    }

    fn config_fingerprint(&self) -> u64 {
        backend_fingerprint("blocked_gemm", 1, &[])
    }

    fn bitwise_paper_identical(&self) -> bool {
        true
    }

    fn conv2d(
        &self,
        input: &Tensor,
        weight: &Tensor,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        conv2d_pooled(input, weight, spec, workspace)
    }

    fn conv2d_forward_packed(
        &self,
        inputs: &[&Tensor],
        weight: &Tensor,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Vec<Tensor>> {
        // The packed kernel runs every member on the solo GEMM path, so this override keeps the paper-default numerics at every
        // pack width.
        conv2d_forward_packed_pooled(inputs, weight, spec, workspace)
    }

    fn conv2d_backward_input(
        &self,
        weight: &Tensor,
        grad_out: &Tensor,
        input_shape: &Shape,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        conv2d_backward_input_pooled(weight, grad_out, input_shape, spec, workspace)
    }

    fn conv2d_backward_weight(
        &self,
        input: &Tensor,
        grad_out: &Tensor,
        c_out: usize,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        conv2d_backward_weight_with(input, grad_out, c_out, spec, workspace)
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
        conv2d_backward_weight_per_sample_into(
            input, grad_out, c_out, spec, workspace, out, row_stride, offset,
        )
    }

    fn conv2d_backward_weight_per_sample_packed(
        &self,
        inputs: &[&Tensor],
        grad_outs: &[&Tensor],
        c_out: usize,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
        slots: &mut [PackedGradSlot<'_>],
    ) -> Result<()> {
        // The packed kernel iterates the exact solo per-candidate
        // schedule (sharing only the im2col lowering of bitwise-equal
        // inputs), so this override keeps the paper-default numerics at
        // every pack width.
        conv2d_backward_weight_per_sample_packed_into(
            inputs, grad_outs, c_out, spec, workspace, slots,
        )
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
        crate::linalg::gemm_nn(m, k, n, a, b, c, accumulate);
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
        crate::linalg::gemm_nt(m, k, n, a, b, c, accumulate);
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
        crate::linalg::gemm_tn(m, k, n, a, b, c, accumulate);
    }

    fn gram_nt_f64(&self, n: usize, p: usize, j: &[f32], out: &mut [f64]) {
        crate::linalg::gram_nt_f64(n, p, j, out);
    }
}

// ---------------------------------------------------------------------------
// Telemetry: per-backend dispatch counters
// ---------------------------------------------------------------------------

/// Static telemetry counter names for one backend family. Counter names
/// must be `&'static str` (the sink contract), so each known backend id
/// maps to a pre-built label set; unknown (external) backends share one
/// `tensor.backend.other.*` set.
#[derive(Debug)]
struct DispatchCounters {
    conv_solo: &'static str,
    conv_packed: &'static str,
    conv_packed_inputs: &'static str,
    backward: &'static str,
    backward_packed: &'static str,
    backward_packed_members: &'static str,
    pool: &'static str,
    gemm: &'static str,
    gram: &'static str,
}

macro_rules! dispatch_counters {
    ($family:literal) => {
        DispatchCounters {
            conv_solo: concat!("tensor.backend.", $family, ".conv_solo_dispatches"),
            conv_packed: concat!("tensor.backend.", $family, ".conv_packed_dispatches"),
            conv_packed_inputs: concat!("tensor.backend.", $family, ".conv_packed_inputs"),
            backward: concat!("tensor.backend.", $family, ".backward_dispatches"),
            backward_packed: concat!("tensor.backend.", $family, ".backward_packed_dispatches"),
            backward_packed_members: concat!(
                "tensor.backend.",
                $family,
                ".backward_packed_members"
            ),
            pool: concat!("tensor.backend.", $family, ".pool_dispatches"),
            gemm: concat!("tensor.backend.", $family, ".gemm_dispatches"),
            gram: concat!("tensor.backend.", $family, ".gram_dispatches"),
        }
    };
}

fn dispatch_counters(id: &str) -> &'static DispatchCounters {
    static DIRECT: DispatchCounters = dispatch_counters!("direct");
    static BLOCKED: DispatchCounters = dispatch_counters!("blocked_gemm");
    static SIMD: DispatchCounters = dispatch_counters!("simd");
    static OTHER: DispatchCounters = dispatch_counters!("other");
    match id {
        "direct" => &DIRECT,
        "blocked_gemm" => &BLOCKED,
        "simd" => &SIMD,
        _ => &OTHER,
    }
}

/// Wraps a backend so every kernel dispatch increments a per-backend
/// telemetry counter (`tensor.backend.<id>.*`) before forwarding.
///
/// The wrapper is identity-transparent — `id`, `config_fingerprint`,
/// and `bitwise_paper_identical` forward unchanged, so store namespaces and conformance identities do not
/// move — and inert: with no enabled sink installed each dispatch pays one
/// relaxed atomic load. [`KernelBackendKind::instantiate`],
/// [`paper_default_backend`] and therefore [`all_backends`] return
/// already-instrumented instances; use this only to instrument an external
/// [`KernelBackend`] implementation.
pub fn instrument_backend(inner: Arc<dyn KernelBackend>) -> Arc<dyn KernelBackend> {
    let counters = dispatch_counters(inner.id());
    Arc::new(InstrumentedBackend { inner, counters })
}

/// See [`instrument_backend`].
#[derive(Debug)]
struct InstrumentedBackend {
    inner: Arc<dyn KernelBackend>,
    counters: &'static DispatchCounters,
}

impl KernelBackend for InstrumentedBackend {
    fn id(&self) -> &str {
        self.inner.id()
    }

    fn config_fingerprint(&self) -> u64 {
        self.inner.config_fingerprint()
    }

    fn bitwise_paper_identical(&self) -> bool {
        self.inner.bitwise_paper_identical()
    }

    fn conv2d(
        &self,
        input: &Tensor,
        weight: &Tensor,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        micronas_telemetry::counter_add(self.counters.conv_solo, 1);
        self.inner.conv2d(input, weight, spec, workspace)
    }

    fn conv2d_forward_packed(
        &self,
        inputs: &[&Tensor],
        weight: &Tensor,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Vec<Tensor>> {
        micronas_telemetry::counter_add(self.counters.conv_packed, 1);
        micronas_telemetry::counter_add(self.counters.conv_packed_inputs, inputs.len() as u64);
        self.inner
            .conv2d_forward_packed(inputs, weight, spec, workspace)
    }

    fn conv2d_backward_input(
        &self,
        weight: &Tensor,
        grad_out: &Tensor,
        input_shape: &Shape,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        micronas_telemetry::counter_add(self.counters.backward, 1);
        self.inner
            .conv2d_backward_input(weight, grad_out, input_shape, spec, workspace)
    }

    fn conv2d_backward_weight(
        &self,
        input: &Tensor,
        grad_out: &Tensor,
        c_out: usize,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        micronas_telemetry::counter_add(self.counters.backward, 1);
        self.inner
            .conv2d_backward_weight(input, grad_out, c_out, spec, workspace)
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
        micronas_telemetry::counter_add(self.counters.backward, 1);
        self.inner.conv2d_backward_weight_per_sample_into(
            input, grad_out, c_out, spec, workspace, out, row_stride, offset,
        )
    }

    fn conv2d_backward_weight_per_sample_packed(
        &self,
        inputs: &[&Tensor],
        grad_outs: &[&Tensor],
        c_out: usize,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
        slots: &mut [PackedGradSlot<'_>],
    ) -> Result<()> {
        micronas_telemetry::counter_add(self.counters.backward_packed, 1);
        micronas_telemetry::counter_add(self.counters.backward_packed_members, inputs.len() as u64);
        self.inner.conv2d_backward_weight_per_sample_packed(
            inputs, grad_outs, c_out, spec, workspace, slots,
        )
    }

    fn conv2d_backward_input_packed(
        &self,
        weight: &Tensor,
        grad_outs: &[&Tensor],
        input_shape: &Shape,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Vec<Tensor>> {
        micronas_telemetry::counter_add(self.counters.backward_packed, 1);
        micronas_telemetry::counter_add(
            self.counters.backward_packed_members,
            grad_outs.len() as u64,
        );
        self.inner
            .conv2d_backward_input_packed(weight, grad_outs, input_shape, spec, workspace)
    }

    fn avg_pool2d(
        &self,
        input: &Tensor,
        kernel: usize,
        stride: usize,
        padding: usize,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        micronas_telemetry::counter_add(self.counters.pool, 1);
        self.inner
            .avg_pool2d(input, kernel, stride, padding, workspace)
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
        micronas_telemetry::counter_add(self.counters.pool, 1);
        self.inner
            .avg_pool2d_backward(grad_out, input_shape, kernel, stride, padding, workspace)
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
        micronas_telemetry::counter_add(self.counters.gemm, 1);
        self.inner.gemm_nn(m, k, n, a, b, c, accumulate);
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
        micronas_telemetry::counter_add(self.counters.gemm, 1);
        self.inner.gemm_nt(m, k, n, a, b, c, accumulate);
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
        micronas_telemetry::counter_add(self.counters.gemm, 1);
        self.inner.gemm_tn(m, k, n, a, b, c, accumulate);
    }

    fn gram_nt_f64(&self, n: usize, p: usize, j: &[f32], out: &mut [f64]) {
        micronas_telemetry::counter_add(self.counters.gram, 1);
        self.inner.gram_nt_f64(n, p, j, out);
    }
}

// ---------------------------------------------------------------------------
// Registry and selection
// ---------------------------------------------------------------------------

/// The built-in backend families, as a serialisable configuration value.
///
/// This is the knob `MicroNasConfig` / `SearchSession::backend(..)` carry:
/// a closed enum of the shipped backends (external `KernelBackend`
/// implementations are threaded as trait objects through the lower-level
/// constructors instead, since a persisted configuration value must name a
/// backend every process can re-instantiate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KernelBackendKind {
    /// [`DirectBackend`] — naive-loop oracle.
    Direct,
    /// [`BlockedGemmBackend`] — the paper default (bitwise-identical).
    #[default]
    BlockedGemm,
    /// [`crate::SimdBackend`] — FMA-tiled, rayon-chunked CPU backend.
    Simd,
}

impl KernelBackendKind {
    /// The backend's stable string id.
    pub fn id(self) -> &'static str {
        match self {
            KernelBackendKind::Direct => "direct",
            KernelBackendKind::BlockedGemm => "blocked_gemm",
            KernelBackendKind::Simd => "simd",
        }
    }

    /// All shipped kinds, in id order.
    pub fn all() -> [KernelBackendKind; 3] {
        [
            KernelBackendKind::Direct,
            KernelBackendKind::BlockedGemm,
            KernelBackendKind::Simd,
        ]
    }

    /// Parses a stable string id back into a kind.
    pub fn from_id(id: &str) -> Option<Self> {
        Self::all().into_iter().find(|k| k.id() == id)
    }

    /// Parses a stable string id, listing the valid ids on failure —
    /// `from_id` for surfaces (CLIs, configuration files) where a bare
    /// "unknown backend" leaves the user guessing.
    ///
    /// # Errors
    ///
    /// Returns a message naming every shipped backend id.
    pub fn parse(id: &str) -> std::result::Result<Self, String> {
        Self::from_id(id).ok_or_else(|| {
            let valid: Vec<&str> = Self::all().iter().map(|k| k.id()).collect();
            format!("unknown backend id {id:?}; valid ids: {}", valid.join(", "))
        })
    }

    /// Whether this kind's results are bitwise-identical to the
    /// paper-default pipeline (see
    /// [`KernelBackend::bitwise_paper_identical`]).
    pub fn bitwise_paper_identical(self) -> bool {
        matches!(self, KernelBackendKind::BlockedGemm)
    }

    /// Instantiates the backend: one cached shared instance per kind and
    /// process (every shipped backend is stateless).
    pub fn instantiate(self) -> Arc<dyn KernelBackend> {
        static DIRECT: OnceLock<Arc<dyn KernelBackend>> = OnceLock::new();
        static SIMD: OnceLock<Arc<dyn KernelBackend>> = OnceLock::new();
        match self {
            KernelBackendKind::Direct => DIRECT
                .get_or_init(|| instrument_backend(Arc::new(DirectBackend)))
                .clone(),
            KernelBackendKind::BlockedGemm => paper_default_backend(),
            KernelBackendKind::Simd => SIMD
                .get_or_init(|| instrument_backend(Arc::new(crate::SimdBackend)))
                .clone(),
        }
    }
}

/// The shared paper-default backend instance ([`BlockedGemmBackend`]): what
/// every network and evaluator runs on when no backend is supplied.
pub fn paper_default_backend() -> Arc<dyn KernelBackend> {
    static DEFAULT: OnceLock<Arc<dyn KernelBackend>> = OnceLock::new();
    DEFAULT
        .get_or_init(|| instrument_backend(Arc::new(BlockedGemmBackend)))
        .clone()
}

/// Every registered built-in backend, in a fixed order — the set the
/// conformance suite runs against the direct oracle.
pub fn all_backends() -> Vec<Arc<dyn KernelBackend>> {
    KernelBackendKind::all()
        .into_iter()
        .map(KernelBackendKind::instantiate)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip_through_ids() {
        for kind in KernelBackendKind::all() {
            assert_eq!(KernelBackendKind::from_id(kind.id()), Some(kind));
            assert_eq!(kind.instantiate().id(), kind.id());
        }
        assert_eq!(KernelBackendKind::from_id("gpu"), None);
    }

    #[test]
    fn parse_error_lists_every_valid_id() {
        let err = KernelBackendKind::parse("gpu").unwrap_err();
        assert!(err.contains("unknown backend id \"gpu\""), "{err}");
        for kind in KernelBackendKind::all() {
            assert!(err.contains(kind.id()), "{err} missing {}", kind.id());
        }
        for kind in KernelBackendKind::all() {
            assert_eq!(KernelBackendKind::parse(kind.id()), Ok(kind));
        }
    }

    #[test]
    fn only_the_paper_default_is_bitwise_identical() {
        let bitwise: Vec<String> = all_backends()
            .iter()
            .filter(|b| b.bitwise_paper_identical())
            .map(|b| b.id().to_string())
            .collect();
        assert_eq!(bitwise, ["blocked_gemm"]);
        assert!(paper_default_backend().bitwise_paper_identical());
        assert_eq!(KernelBackendKind::default(), KernelBackendKind::BlockedGemm);
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let prints: Vec<u64> = all_backends()
            .iter()
            .map(|b| b.config_fingerprint())
            .collect();
        for (i, a) in prints.iter().enumerate() {
            for b in &prints[i + 1..] {
                assert_ne!(a, b, "backend fingerprints must be distinct");
            }
        }
        // Deterministic across instantiations.
        assert_eq!(
            KernelBackendKind::Simd.instantiate().config_fingerprint(),
            KernelBackendKind::Simd.instantiate().config_fingerprint()
        );
        // The id is part of the fingerprint domain.
        assert_ne!(
            backend_fingerprint("a", 1, &[7]),
            backend_fingerprint("b", 1, &[7])
        );
    }

    #[test]
    fn direct_gemms_match_blocked_gemms() {
        let direct = DirectBackend;
        let blocked = BlockedGemmBackend;
        let a: Vec<f32> = (0..6 * 5).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..5 * 4).map(|i| (i as f32 * 0.73).cos()).collect();
        let mut c1 = vec![0.0f32; 6 * 4];
        let mut c2 = vec![1.0f32; 6 * 4];
        direct.gemm_nn(6, 5, 4, &a, &b, &mut c1, false);
        blocked.gemm_nn(6, 5, 4, &a, &b, &mut c2, false);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }
}
