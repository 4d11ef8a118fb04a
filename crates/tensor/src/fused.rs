//! Fused convolution kernels for the graph compiler.
//!
//! These kernels are what the fusing graph compiler lowers its fused ops
//! to. They deliberately bypass the per-op dispatch the eager path goes
//! through:
//!
//! * [`conv2d_relu_gemm`] applies the ReLU *inside* the im2col gather, so
//!   `conv(relu(pre), w)` neither materialises the activation nor pays a
//!   separate elementwise pass — and always runs the GEMM schedule
//!   (no direct-kernel dispatch), which is why its results can differ in
//!   the last bit from the eager path on tiny geometries.
//! * [`conv2d_backward_fused`] computes one conv edge's entire backward —
//!   per-sample weight gradients, input gradient, and the ReLU mask — from
//!   **one** ReLU-fused lowering per sample, where the eager path lowers
//!   the activation once for the weight gradient and stages separate
//!   column gradients for the input gradient.
//!
//! Divergence from the eager schedule is the whole point: callers (the
//! fusing compiler) fold their identity into the evaluation-store
//! namespace, so fused numerics never mix with paper-pinned logs.

use crate::conv::{
    check_backward_weight_args, check_conv_args, col2im_add, count_gemm_dispatch, transpose_into,
};
use crate::linalg::{gemm_nn_uncounted, gemm_tn_uncounted};
use crate::{Conv2dSpec, Result, Shape, Tensor, TensorError, Workspace};

/// The conv forward's im2col gather with the ReLU epilogue folded in:
/// every element lands as `max(v, 0)`. Structure mirrors `conv::im2col`
/// (every element of `col` is written).
#[allow(clippy::too_many_arguments)]
fn im2col_relu(
    image: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    oh: usize,
    ow: usize,
    col: &mut [f32],
) {
    let k = spec.kernel;
    let ohow = oh * ow;
    debug_assert_eq!(col.len(), c_in * k * k * ohow);
    micronas_telemetry::counter_add(
        "tensor.im2col.bytes",
        (c_in * k * k * ohow * std::mem::size_of::<f32>()) as u64,
    );
    let relu = |v: f32| if v > 0.0 { v } else { 0.0 };
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
                        let shift = kx as isize - spec.padding as isize;
                        let ox_lo = (-shift).clamp(0, ow as isize) as usize;
                        let ox_hi = (w as isize - shift).clamp(0, ow as isize) as usize;
                        dst_row[..ox_lo].fill(0.0);
                        dst_row[ox_hi..].fill(0.0);
                        if ox_lo < ox_hi {
                            let src_lo = (ox_lo as isize + shift) as usize;
                            for (d, &s) in dst_row[ox_lo..ox_hi]
                                .iter_mut()
                                .zip(&src_row[src_lo..src_lo + (ox_hi - ox_lo)])
                            {
                                *d = relu(s);
                            }
                        }
                    } else {
                        for (ox, out) in dst_row.iter_mut().enumerate() {
                            let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                            *out = if ix < 0 || ix >= w as isize {
                                0.0
                            } else {
                                relu(src_row[ix as usize])
                            };
                        }
                    }
                }
            }
        }
    }
}

/// Fused `conv2d(relu(pre), weight)`: the activation is applied during the
/// im2col gather and the product always runs on the GEMM schedule.
///
/// The output tensor is drawn from the workspace pool (recycle it when
/// done, like [`crate::KernelBackend::conv2d`] outputs).
///
/// # Errors
///
/// Same shape conditions as [`crate::KernelBackend::conv2d`].
pub fn conv2d_relu_gemm(
    pre: &Tensor,
    weight: &Tensor,
    spec: Conv2dSpec,
    workspace: &mut Workspace,
) -> Result<Tensor> {
    let (n, c_in, h, w, c_out, k) = check_conv_args(pre, weight, spec)?;
    micronas_telemetry::counter_add("tensor.fused.calls", 1);
    count_gemm_dispatch();
    let (oh, ow) = spec.output_hw(h, w);
    let ohow = oh * ow;
    let ckk = c_in * k * k;
    let in_stride = c_in * h * w;
    let out_stride = c_out * ohow;
    let w_mat = weight.data();
    // Unspecified contents are fine: accumulate=false GEMMs clear the
    // destination themselves.
    let mut out = Tensor::from_vec(
        Shape::nchw(n, c_out, oh, ow),
        workspace.take(n * out_stride),
    )
    .expect("length matches shape by construction");
    {
        let out_data = out.data_mut();
        let col = workspace.col_buffer(ckk * ohow);
        for b in 0..n {
            let image = &pre.data()[b * in_stride..(b + 1) * in_stride];
            im2col_relu(image, c_in, h, w, spec, oh, ow, col);
            let dst = &mut out_data[b * out_stride..(b + 1) * out_stride];
            gemm_nn_uncounted(c_out, ckk, ohow, w_mat, col, dst, false);
        }
    }
    Ok(out)
}

/// Fused backward of one `conv(relu(pre), w)` edge: writes each sample's
/// flattened weight gradient into `matrix[b * row_stride + offset ..]`
/// (like [`crate::KernelBackend::conv2d_backward_weight_per_sample_into`])
/// and returns the ReLU-masked input gradient `∂L/∂pre`, all from a single
/// ReLU-fused im2col lowering per sample.
///
/// Per sample, the shared column matrix first feeds the transposed
/// weight-gradient GEMM, is then overwritten with the column *gradients*
/// (`Wᵀ · g`), scattered back through `col2im`, and finally masked by the
/// pre-activation sign. The returned gradient tensor is drawn from the
/// workspace pool.
///
/// # Errors
///
/// Same shape conditions as
/// [`crate::KernelBackend::conv2d_backward_weight_per_sample_into`], plus a
/// weight/spec consistency check.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_fused(
    pre: &Tensor,
    grad_out: &Tensor,
    weight: &Tensor,
    c_out: usize,
    spec: Conv2dSpec,
    workspace: &mut Workspace,
    matrix: &mut [f32],
    row_stride: usize,
    offset: usize,
) -> Result<Tensor> {
    let (n, c_in, h, w, oh, ow) = check_backward_weight_args(pre, grad_out, c_out, spec)?;
    let k = spec.kernel;
    if weight.shape().dims() != [c_out, c_in, k, k] {
        return Err(TensorError::IncompatibleShapes {
            op: "conv2d_backward_fused weight",
            lhs: weight.shape().dims().to_vec(),
            rhs: vec![c_out, c_in, k, k],
        });
    }
    let per_sample = c_out * c_in * k * k;
    if n > 0 && matrix.len() < (n - 1) * row_stride + offset + per_sample {
        return Err(TensorError::InvalidArgument(format!(
            "per-sample gradient output buffer too short: {} < {}",
            matrix.len(),
            (n - 1) * row_stride + offset + per_sample
        )));
    }
    micronas_telemetry::counter_add("tensor.fused.calls", 1);
    // Two logical dispatches, as in the eager sweep: the weight gradient
    // and the input gradient.
    count_gemm_dispatch();
    count_gemm_dispatch();
    let ohow = oh * ow;
    let ckk = c_in * k * k;
    let in_stride = c_in * h * w;
    let out_stride = c_out * ohow;
    let w_mat = weight.data();
    let mut grad_in = Tensor::from_vec(pre.shape().clone(), workspace.take_zeroed(pre.numel()))
        .expect("length matches shape by construction");
    {
        let gi = grad_in.data_mut();
        let (col, aux) = workspace.col_and_aux(ckk * ohow, (ohow + ckk) * c_out);
        let (g_t, w_t) = aux.split_at_mut(ohow * c_out);
        for b in 0..n {
            let image = &pre.data()[b * in_stride..(b + 1) * in_stride];
            let g = &grad_out.data()[b * out_stride..(b + 1) * out_stride];
            // Weight gradient in the transposed narrow shape, off the
            // ReLU-fused lowering.
            im2col_relu(image, c_in, h, w, spec, oh, ow, col);
            transpose_into(g, c_out, ohow, g_t);
            gemm_nn_uncounted(ckk, ohow, c_out, col, g_t, w_t, false);
            let dst = &mut matrix[b * row_stride + offset..b * row_stride + offset + per_sample];
            transpose_into(w_t, ckk, c_out, dst);
            // The activation columns are dead now — reuse `col` for the
            // column gradients, scatter them back, and mask in place.
            gemm_tn_uncounted(ckk, c_out, ohow, w_mat, g, col, false);
            let dst = &mut gi[b * in_stride..(b + 1) * in_stride];
            col2im_add(col, c_in, h, w, spec, oh, ow, dst);
            for (gv, &x) in dst.iter_mut().zip(image) {
                if x <= 0.0 {
                    *gv = 0.0;
                }
            }
        }
    }
    Ok(grad_in)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockedGemmBackend, DeterministicRng, KernelBackend};

    fn random_tensor(shape: Shape, seed: u64) -> Tensor {
        let mut rng = DeterministicRng::new(seed);
        let data = (0..shape.numel()).map(|_| rng.next_f32() - 0.5).collect();
        Tensor::from_vec(shape, data).unwrap()
    }

    fn relu(t: &Tensor) -> Tensor {
        t.map(|v| if v > 0.0 { v } else { 0.0 })
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{what}: element {i} differs: {x} vs {y}"
            );
        }
    }

    #[test]
    fn fused_forward_matches_relu_then_conv() {
        for (shape, c_out, spec) in [
            (Shape::nchw(2, 3, 8, 8), 5, Conv2dSpec::new(3, 1, 1)),
            (Shape::nchw(2, 4, 6, 6), 4, Conv2dSpec::new(1, 1, 0)),
            (Shape::nchw(1, 2, 9, 9), 3, Conv2dSpec::new(3, 2, 1)),
        ] {
            let c_in = shape.dims()[1];
            let pre = random_tensor(shape.clone(), 41);
            let weight = random_tensor(Shape::nchw(c_out, c_in, spec.kernel, spec.kernel), 42);
            let mut ws = Workspace::new();
            let fused = conv2d_relu_gemm(&pre, &weight, spec, &mut ws).unwrap();
            let reference = BlockedGemmBackend
                .conv2d(&relu(&pre), &weight, spec, &mut ws)
                .unwrap();
            assert_eq!(fused.shape().dims(), reference.shape().dims());
            assert_close(fused.data(), reference.data(), 1e-5, "fused forward");
        }
    }

    #[test]
    fn fused_backward_matches_separate_kernels() {
        for (shape, c_out, spec) in [
            (Shape::nchw(3, 4, 8, 8), 4, Conv2dSpec::new(3, 1, 1)),
            (Shape::nchw(2, 3, 6, 6), 3, Conv2dSpec::new(1, 1, 0)),
        ] {
            let (n, c_in) = (shape.dims()[0], shape.dims()[1]);
            let pre = random_tensor(shape.clone(), 7);
            let weight = random_tensor(Shape::nchw(c_out, c_in, spec.kernel, spec.kernel), 8);
            let (oh, ow) = spec.output_hw(shape.dims()[2], shape.dims()[3]);
            let grad_out = random_tensor(Shape::nchw(n, c_out, oh, ow), 9);
            let per_sample = c_out * c_in * spec.kernel * spec.kernel;

            let mut ws = Workspace::new();
            let mut matrix = vec![0.0f32; n * per_sample];
            let grad_in = conv2d_backward_fused(
                &pre,
                &grad_out,
                &weight,
                c_out,
                spec,
                &mut ws,
                &mut matrix,
                per_sample,
                0,
            )
            .unwrap();

            let act = relu(&pre);
            let mut expect_w = vec![0.0f32; n * per_sample];
            BlockedGemmBackend
                .conv2d_backward_weight_per_sample_into(
                    &act,
                    &grad_out,
                    c_out,
                    spec,
                    &mut ws,
                    &mut expect_w,
                    per_sample,
                    0,
                )
                .unwrap();
            let mut expect_in = BlockedGemmBackend
                .conv2d_backward_input(&weight, &grad_out, pre.shape(), spec, &mut ws)
                .unwrap();
            for (g, &x) in expect_in.data_mut().iter_mut().zip(pre.data()) {
                if x <= 0.0 {
                    *g = 0.0;
                }
            }

            assert_close(&matrix, &expect_w, 1e-5, "fused weight grads");
            assert_close(grad_in.data(), expect_in.data(), 1e-5, "fused input grad");
        }
    }

    #[test]
    fn fused_backward_respects_stride_and_offset() {
        let shape = Shape::nchw(2, 2, 5, 5);
        let spec = Conv2dSpec::new(3, 1, 1);
        let c_out = 2;
        let pre = random_tensor(shape.clone(), 3);
        let weight = random_tensor(Shape::nchw(c_out, 2, 3, 3), 4);
        let grad_out = random_tensor(Shape::nchw(2, c_out, 5, 5), 5);
        let per_sample = c_out * 2 * 9;
        let (row_stride, offset) = (per_sample + 11, 7);
        let mut matrix = vec![f32::NAN; 2 * row_stride];
        let mut ws = Workspace::new();
        conv2d_backward_fused(
            &pre,
            &grad_out,
            &weight,
            c_out,
            spec,
            &mut ws,
            &mut matrix,
            row_stride,
            offset,
        )
        .unwrap();
        let mut packed = vec![0.0f32; 2 * per_sample];
        conv2d_backward_fused(
            &pre,
            &grad_out,
            &weight,
            c_out,
            spec,
            &mut ws,
            &mut packed,
            per_sample,
            0,
        )
        .unwrap();
        for b in 0..2 {
            let strided = &matrix[b * row_stride + offset..b * row_stride + offset + per_sample];
            let dense = &packed[b * per_sample..(b + 1) * per_sample];
            assert_eq!(strided, dense, "sample {b} landed in the wrong slice");
        }
        // Untouched lanes stay untouched.
        assert!(matrix[0..offset].iter().all(|v| v.is_nan()));
    }
}
