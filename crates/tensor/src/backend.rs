//! The execution backend: [`KernelBackend`].
//!
//! Every numerical kernel the network substrate runs — convolution forward
//! and backward, per-sample weight gradients, average pooling, the GEMM
//! primitives behind linear layers and the NTK Gram build — is dispatched
//! through the [`KernelBackend`] enum, the only public way to run a conv or
//! pool kernel. Each method `match`es straight to the variant's kernel body.
//! A backend carries a **stable string id** and a **configuration
//! fingerprint** (mirroring the `Proxy` trait one layer up), so execution
//! policy has a persistent identity that evaluation stores can fold into
//! their keys: results produced by a backend that is not bitwise-identical
//! to the paper default must never alias results produced by it.
//!
//! Two backends ship:
//!
//! * [`KernelBackend::Direct`] (`"direct"`) — the naive-loop reference
//!   kernels, kept as the portable correctness oracle the conformance suite
//!   compares the paper kernels against.
//! * [`KernelBackend::BlockedGemm`] (`"blocked_gemm"`) — the paper-default
//!   engine: the im2col + cache-blocked GEMM path (implicit GEMM on the
//!   paper's conv3×3) with the shape-only small-problem direct dispatch.
//!   This is the only backend whose results are **bitwise-identical** to the
//!   paper pipeline ([`KernelBackend::bitwise_paper_identical`]).
//!
//! Every public kernel method bumps one `tensor.backend.<id>.*` telemetry
//! counter at entry (one relaxed atomic load when no sink is enabled). The
//! `Direct` packed methods loop the *uncounted* solo bodies, so a packed
//! call counts once whatever its width.

use crate::conv::{
    check_backward_input_args, check_backward_weight_args, check_conv_args, check_pack_arity,
    check_pack_shapes, check_per_sample_args, conv2d_backward_input_pooled,
    conv2d_backward_input_unchecked, conv2d_backward_weight_per_sample_into,
    conv2d_backward_weight_per_sample_packed_into, conv2d_backward_weight_unchecked,
    conv2d_backward_weight_with, conv2d_direct_unchecked, conv2d_forward_packed_pooled,
    conv2d_pooled, direct_weight_grad_sample, PackedGradSlot,
};
use crate::pool::{avg_pool2d_backward_pooled, avg_pool2d_pooled, pool_geometry};
use crate::rng::hash_mix;
use crate::{Conv2dSpec, Result, Shape, Tensor, TensorError, Workspace};
use micronas_telemetry::counter_add;
use serde::{Deserialize, Serialize};

/// Retention cap (bytes) for shared per-thread scratch arenas: an arena
/// whose footprint exceeds it is released after an evaluation.
pub const DEFAULT_ARENA_RETENTION_CAP: usize = 64 << 20;

/// An execution backend: the complete kernel set the network substrate runs
/// on. A plain `Copy` value — networks and evaluators hold it by value, and
/// it doubles as the serialisable configuration knob `MicroNasConfig` and
/// `SearchSession::backend(..)` carry.
///
/// # Contract
///
/// * **Purity** — every method is a pure function of its tensor arguments
///   (plus the variant). The [`Workspace`] is scratch only; it never carries
///   numerical state between calls, and no process-global setting changes
///   which kernel a call runs.
/// * **Determinism** — two calls with identical inputs return
///   bitwise-identical outputs, on any thread and at any rayon thread count.
/// * **Identity** — `(id, config_fingerprint)` is the backend's persistent
///   identity. A backend for which [`KernelBackend::bitwise_paper_identical`]
///   is `false` produces values that may diverge from the paper-default
///   pipeline, and stores fold this identity into their namespace so such
///   values can never poison logs written by the default backend.
/// * **Output buffers** — conv/pool methods may draw their output tensors
///   from the workspace recycling pool (callers recycle them in steady
///   state); where the buffer comes from never changes the values.
/// * **Packing** — every `*_packed` method is bitwise identical to a loop of
///   the matching solo method over its members, at every pack width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KernelBackend {
    /// The naive-loop reference backend (`"direct"`): quadruple-loop
    /// convolution, windowed-gather pooling, triple-loop GEMM and f64
    /// dot-product Gram. It is the portable correctness oracle, *not*
    /// bitwise-identical to the paper default (the blocked GEMM path reorders
    /// reductions on non-tiny shapes), so it carries its own store identity.
    Direct,
    /// The paper-default backend (`"blocked_gemm"`): im2col lowering (or,
    /// for the paper's stride-1 conv3×3 forward, a zero-padded image read in
    /// place) into the cache-blocked GEMM kernels, with direct loops for
    /// problems below a small MAC threshold — a pure function of the shape.
    /// It *is* the paper pipeline, so it is bitwise-identical to it.
    #[default]
    BlockedGemm,
}

/// Static telemetry counter names for one backend. Counter names must be
/// `&'static str` (the sink contract), so each variant maps to a pre-built
/// label set.
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

impl KernelBackend {
    /// Every shipped backend, in id order.
    pub fn all() -> [KernelBackend; 2] {
        [KernelBackend::Direct, KernelBackend::BlockedGemm]
    }

    /// Stable string id of the backend (e.g. `"blocked_gemm"`). Hashed into
    /// persistent store namespaces — it must never change once results have
    /// been persisted under it.
    pub fn id(self) -> &'static str {
        match self {
            KernelBackend::Direct => "direct",
            KernelBackend::BlockedGemm => "blocked_gemm",
        }
    }

    /// Parses a stable string id back into a backend.
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

    /// Stable fingerprint of the backend's configuration: a [`hash_mix`]
    /// fold (never `std` hashes) of a domain prefix, the id bytes and a
    /// version, so two backends never collide structurally.
    pub fn config_fingerprint(self) -> u64 {
        // "MicroNAS" in ASCII, xor-tagged for the backend domain.
        let seed = 0x4D69_6372_6F4E_4153u64 ^ 0x6261_636B_656E_6421;
        let h = self.id().bytes().fold(seed, |h, b| hash_mix(h, b as u64));
        hash_mix(h, 1)
    }

    /// Whether this backend's results are bitwise-identical to the
    /// paper-default execution path on every input. Only such backends may
    /// share the paper pipeline's store namespace.
    pub fn bitwise_paper_identical(self) -> bool {
        matches!(self, KernelBackend::BlockedGemm)
    }

    fn counters(self) -> &'static DispatchCounters {
        static DIRECT: DispatchCounters = dispatch_counters!("direct");
        static BLOCKED: DispatchCounters = dispatch_counters!("blocked_gemm");
        match self {
            KernelBackend::Direct => &DIRECT,
            KernelBackend::BlockedGemm => &BLOCKED,
        }
    }

    /// Forward 2-D convolution (`[N, C_in, H, W]` × `[C_out, C_in, K, K]`).
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent shapes or a zero kernel or stride.
    pub fn conv2d(
        self,
        input: &Tensor,
        weight: &Tensor,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        counter_add(self.counters().conv_solo, 1);
        match self {
            KernelBackend::Direct => direct_conv2d(input, weight, spec),
            KernelBackend::BlockedGemm => conv2d_pooled(input, weight, spec, workspace),
        }
    }

    /// Forward convolution of several same-shape inputs against one shared
    /// weight — the cross-candidate mega-batching entry point. Bitwise
    /// identical to one [`KernelBackend::conv2d`] per input, in order.
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent shapes, or if the inputs do not
    /// all share one shape.
    pub fn conv2d_forward_packed(
        self,
        inputs: &[&Tensor],
        weight: &Tensor,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Vec<Tensor>> {
        counter_add(self.counters().conv_packed, 1);
        counter_add(self.counters().conv_packed_inputs, inputs.len() as u64);
        match self {
            KernelBackend::Direct => {
                check_pack_shapes(inputs)?;
                inputs
                    .iter()
                    .map(|input| direct_conv2d(input, weight, spec))
                    .collect()
            }
            // The packed kernel runs every member on the solo GEMM path, so
            // it keeps the paper-default numerics at every pack width.
            KernelBackend::BlockedGemm => {
                conv2d_forward_packed_pooled(inputs, weight, spec, workspace)
            }
        }
    }

    /// Gradient of the convolution output w.r.t. its input.
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent shapes or a zero kernel or stride.
    pub fn conv2d_backward_input(
        self,
        weight: &Tensor,
        grad_out: &Tensor,
        input_shape: &Shape,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        counter_add(self.counters().backward, 1);
        self.backward_input_uncounted(weight, grad_out, input_shape, spec, workspace)
    }

    fn backward_input_uncounted(
        self,
        weight: &Tensor,
        grad_out: &Tensor,
        input_shape: &Shape,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        match self {
            KernelBackend::Direct => {
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
            KernelBackend::BlockedGemm => {
                conv2d_backward_input_pooled(weight, grad_out, input_shape, spec, workspace)
            }
        }
    }

    /// Packed input gradients: [`KernelBackend::conv2d_backward_input`] for
    /// every pack member against one shared weight tensor, counted as one
    /// packed dispatch.
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent shapes or a zero kernel or stride.
    pub fn conv2d_backward_input_packed(
        self,
        weight: &Tensor,
        grad_outs: &[&Tensor],
        input_shape: &Shape,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Vec<Tensor>> {
        counter_add(self.counters().backward_packed, 1);
        counter_add(
            self.counters().backward_packed_members,
            grad_outs.len() as u64,
        );
        grad_outs
            .iter()
            .map(|grad_out| {
                self.backward_input_uncounted(weight, grad_out, input_shape, spec, workspace)
            })
            .collect()
    }

    /// Gradient of the convolution output w.r.t. its weights (summed over
    /// the batch).
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent shapes or a zero kernel or stride.
    pub fn conv2d_backward_weight(
        self,
        input: &Tensor,
        grad_out: &Tensor,
        c_out: usize,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        counter_add(self.counters().backward, 1);
        match self {
            KernelBackend::Direct => {
                let (n, c_in, h, w, oh, ow) =
                    check_backward_weight_args(input, grad_out, c_out, spec)?;
                Ok(conv2d_backward_weight_unchecked(
                    input, grad_out, c_out, spec, n, c_in, h, w, oh, ow,
                ))
            }
            KernelBackend::BlockedGemm => {
                conv2d_backward_weight_with(input, grad_out, c_out, spec, workspace)
            }
        }
    }

    /// Per-sample weight gradients written straight into a `[N, P]` matrix:
    /// the flattened `[C_out, C_in, K, K]` gradient of batch element `b`
    /// alone (not summed over the batch) lands at
    /// `out[b * row_stride + offset ..]`.
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent shapes, a zero kernel or stride, or
    /// a too-short buffer.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d_backward_weight_per_sample_into(
        self,
        input: &Tensor,
        grad_out: &Tensor,
        c_out: usize,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
        out: &mut [f32],
        row_stride: usize,
        offset: usize,
    ) -> Result<()> {
        counter_add(self.counters().backward, 1);
        match self {
            KernelBackend::Direct => {
                direct_per_sample_into(input, grad_out, c_out, spec, out, row_stride, offset)
            }
            KernelBackend::BlockedGemm => conv2d_backward_weight_per_sample_into(
                input, grad_out, c_out, spec, workspace, out, row_stride, offset,
            ),
        }
    }

    /// Packed per-sample weight gradients: one grouped dispatch computing
    /// [`KernelBackend::conv2d_backward_weight_per_sample_into`] for every
    /// pack member (each with its own destination slot, since members'
    /// parameter counts and layer offsets differ). `BlockedGemm` shares one
    /// im2col lowering between bitwise-identical member inputs but keeps the
    /// per-candidate schedule of the solo path.
    ///
    /// # Errors
    ///
    /// Returns an error if slice lengths disagree, for inconsistent shapes,
    /// a zero kernel or stride, or a too-short buffer.
    pub fn conv2d_backward_weight_per_sample_packed(
        self,
        inputs: &[&Tensor],
        grad_outs: &[&Tensor],
        c_out: usize,
        spec: Conv2dSpec,
        workspace: &mut Workspace,
        slots: &mut [PackedGradSlot<'_>],
    ) -> Result<()> {
        counter_add(self.counters().backward_packed, 1);
        counter_add(self.counters().backward_packed_members, inputs.len() as u64);
        match self {
            KernelBackend::Direct => {
                check_pack_arity(inputs, grad_outs, slots)?;
                for ((input, grad_out), slot) in inputs.iter().zip(grad_outs).zip(slots.iter_mut())
                {
                    direct_per_sample_into(
                        input,
                        grad_out,
                        c_out,
                        spec,
                        slot.out,
                        slot.row_stride,
                        slot.offset,
                    )?;
                }
                Ok(())
            }
            KernelBackend::BlockedGemm => conv2d_backward_weight_per_sample_packed_into(
                inputs, grad_outs, c_out, spec, workspace, slots,
            ),
        }
    }

    /// Average pooling with count-include-pad semantics.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-rank-4 input or a zero kernel or stride.
    pub fn avg_pool2d(
        self,
        input: &Tensor,
        kernel: usize,
        stride: usize,
        padding: usize,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        counter_add(self.counters().pool, 1);
        match self {
            KernelBackend::Direct => avg_pool2d_direct(input, kernel, stride, padding),
            KernelBackend::BlockedGemm => {
                avg_pool2d_pooled(input, kernel, stride, padding, workspace)
            }
        }
    }

    /// Backward pass of [`KernelBackend::avg_pool2d`].
    ///
    /// # Errors
    ///
    /// Returns an error for inconsistent shapes or a zero kernel or stride.
    pub fn avg_pool2d_backward(
        self,
        grad_out: &Tensor,
        input_shape: &Shape,
        kernel: usize,
        stride: usize,
        padding: usize,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        counter_add(self.counters().pool, 1);
        match self {
            KernelBackend::Direct => {
                avg_pool2d_backward_direct(grad_out, input_shape, kernel, stride, padding)
            }
            KernelBackend::BlockedGemm => avg_pool2d_backward_pooled(
                grad_out,
                input_shape,
                kernel,
                stride,
                padding,
                workspace,
            ),
        }
    }

    /// `C = A · B` (or `C += A · B`), all row-major (`A` `[m, k]`, `B`
    /// `[k, n]`). The linear-layer forward/backward primitive.
    ///
    /// # Panics
    ///
    /// Panics if a buffer length does not match its dimensions.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_nn(
        self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        accumulate: bool,
    ) {
        counter_add(self.counters().gemm, 1);
        match self {
            KernelBackend::Direct => direct_gemm_nn(m, k, n, a, b, c, accumulate),
            KernelBackend::BlockedGemm => crate::linalg::gemm_nn(m, k, n, a, b, c, accumulate),
        }
    }

    /// `C = A · Bᵀ` with `B` row-major `[n, k]`.
    ///
    /// # Panics
    ///
    /// Panics if a buffer length does not match its dimensions.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_nt(
        self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        accumulate: bool,
    ) {
        counter_add(self.counters().gemm, 1);
        match self {
            KernelBackend::Direct => direct_gemm_nt(m, k, n, a, b, c, accumulate),
            KernelBackend::BlockedGemm => crate::linalg::gemm_nt(m, k, n, a, b, c, accumulate),
        }
    }

    /// `C = Aᵀ · B` with `A` row-major `[k, m]`.
    ///
    /// # Panics
    ///
    /// Panics if a buffer length does not match its dimensions.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_tn(
        self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        accumulate: bool,
    ) {
        counter_add(self.counters().gemm, 1);
        match self {
            KernelBackend::Direct => direct_gemm_tn(m, k, n, a, b, c, accumulate),
            KernelBackend::BlockedGemm => crate::linalg::gemm_tn(m, k, n, a, b, c, accumulate),
        }
    }

    /// Symmetric Gram matrix `G = J · Jᵀ` of a row-major `[n, p]` matrix,
    /// accumulated in `f64` — the NTK Gram primitive.
    ///
    /// # Panics
    ///
    /// Panics if a buffer length does not match its dimensions.
    pub fn gram_nt_f64(self, n: usize, p: usize, j: &[f32], out: &mut [f64]) {
        counter_add(self.counters().gram, 1);
        match self {
            KernelBackend::Direct => direct_gram_nt_f64(n, p, j, out),
            KernelBackend::BlockedGemm => crate::linalg::gram_nt_f64(n, p, j, out),
        }
    }
}

// ---------------------------------------------------------------------------
// Direct bodies: the naive-loop oracle
// ---------------------------------------------------------------------------

fn direct_conv2d(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Result<Tensor> {
    let (n, c_in, h, w, c_out, _) = check_conv_args(input, weight, spec)?;
    let (oh, ow) = spec.output_hw(h, w);
    let mut out = Tensor::zeros(Shape::nchw(n, c_out, oh, ow));
    conv2d_direct_unchecked(input, weight, spec, n, c_in, h, w, c_out, oh, ow, &mut out);
    Ok(out)
}

fn direct_per_sample_into(
    input: &Tensor,
    grad_out: &Tensor,
    c_out: usize,
    spec: Conv2dSpec,
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

/// Triple-loop `C = A · B` (or `C += A · B`).
fn direct_gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], acc: bool) {
    check_gemm_lengths(m * k, k * n, m * n, a, b, c, acc);
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            for jj in 0..n {
                c[i * n + jj] += av * b[p * n + jj];
            }
        }
    }
}

/// Triple-loop `C = A · Bᵀ`, each dot product summed in a register first.
fn direct_gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], acc: bool) {
    check_gemm_lengths(m * k, n * k, m * n, a, b, c, acc);
    for i in 0..m {
        for jj in 0..n {
            let mut dot = 0.0f32;
            for p in 0..k {
                dot += a[i * k + p] * b[jj * k + p];
            }
            c[i * n + jj] += dot;
        }
    }
}

/// Triple-loop `C = Aᵀ · B`, each dot product summed in a register first.
fn direct_gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], acc: bool) {
    check_gemm_lengths(k * m, k * n, m * n, a, b, c, acc);
    for i in 0..m {
        for jj in 0..n {
            let mut dot = 0.0f32;
            for p in 0..k {
                dot += a[p * m + i] * b[p * n + jj];
            }
            c[i * n + jj] += dot;
        }
    }
}

/// Asserts the three GEMM buffer lengths and, unless accumulating, clears
/// `C`.
fn check_gemm_lengths(
    la: usize,
    lb: usize,
    lc: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    acc: bool,
) {
    assert_eq!(a.len(), la, "gemm: A buffer has wrong length");
    assert_eq!(b.len(), lb, "gemm: B buffer has wrong length");
    assert_eq!(c.len(), lc, "gemm: C buffer has wrong length");
    if !acc {
        c.fill(0.0);
    }
}

fn direct_gram_nt_f64(n: usize, p: usize, j: &[f32], out: &mut [f64]) {
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

/// Naive windowed-gather average pooling: the conformance oracle for the
/// separable two-pass kernel.
fn avg_pool2d_direct(
    input: &Tensor,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Result<Tensor> {
    let _span = micronas_telemetry::span!("tensor.pool");
    let (n, c, h, w, oh, ow) = pool_geometry("avg_pool2d", input.shape(), kernel, stride, padding)?;
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
    let (n, c, h, w, oh, ow) =
        pool_geometry("avg_pool2d_backward", input_shape, kernel, stride, padding)?;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip_through_ids() {
        for kind in KernelBackend::all() {
            assert_eq!(KernelBackend::from_id(kind.id()), Some(kind));
        }
        assert_eq!(KernelBackend::from_id("gpu"), None);
    }

    #[test]
    fn parse_error_lists_every_valid_id() {
        let err = KernelBackend::parse("gpu").unwrap_err();
        assert!(err.contains("unknown backend id \"gpu\""), "{err}");
        for kind in KernelBackend::all() {
            assert!(err.contains(kind.id()), "{err} missing {}", kind.id());
        }
        for kind in KernelBackend::all() {
            assert_eq!(KernelBackend::parse(kind.id()), Ok(kind));
        }
    }

    #[test]
    fn only_the_paper_default_is_bitwise_identical() {
        let bitwise: Vec<&str> = KernelBackend::all()
            .into_iter()
            .filter(|b| b.bitwise_paper_identical())
            .map(KernelBackend::id)
            .collect();
        assert_eq!(bitwise, ["blocked_gemm"]);
        assert_eq!(KernelBackend::default(), KernelBackend::BlockedGemm);
    }

    /// Golden values: the fingerprint is folded into store namespaces, so it
    /// must never drift across refactors or toolchains.
    #[test]
    fn fingerprints_are_stable_and_distinct() {
        assert_eq!(
            KernelBackend::Direct.config_fingerprint(),
            0x8c0d_cad2_495c_a7d4
        );
        assert_eq!(
            KernelBackend::BlockedGemm.config_fingerprint(),
            0xd32f_36ee_b265_50a5
        );
    }

    #[test]
    fn direct_gemms_match_blocked_gemms() {
        let a: Vec<f32> = (0..6 * 5).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..5 * 4).map(|i| (i as f32 * 0.73).cos()).collect();
        let mut c1 = vec![0.0f32; 6 * 4];
        let mut c2 = vec![1.0f32; 6 * 4];
        KernelBackend::Direct.gemm_nn(6, 5, 4, &a, &b, &mut c1, false);
        KernelBackend::BlockedGemm.gemm_nn(6, 5, 4, &a, &b, &mut c2, false);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }
}
