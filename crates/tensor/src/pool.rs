//! Average pooling and global average pooling with their backward passes.
//!
//! NAS-Bench-201 cells use 3×3 average pooling (stride 1, padding 1, with
//! count-include-pad semantics matching the reference implementation) and a
//! global average pool feeding the classifier head.

use crate::{Result, Shape, Tensor, TensorError, Workspace};

/// Average pooling over `kernel`×`kernel` windows with the given stride and
/// padding, the body of [`crate::BlockedGemmBackend`]'s `avg_pool2d`.
/// Padding contributes zeros and *is* counted in the divisor
/// (count-include-pad), matching the NAS-Bench-201 reference. The output
/// tensor is drawn from the workspace recycling pool.
///
/// # Errors
///
/// Returns an error if the input is not rank 4 or `kernel`/`stride` is zero.
pub(crate) fn avg_pool2d_pooled(
    input: &Tensor,
    kernel: usize,
    stride: usize,
    padding: usize,
    workspace: &mut Workspace,
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
    let out_shape = Shape::nchw(n, c, oh, ow);
    // Every output row is filled before use, so an unspecified-content
    // pooled buffer suffices; the per-row scratch comes from the auxiliary
    // slot so the hot path allocates nothing.
    let mut out_buf = workspace.take(n * c * oh * ow);
    let row_sums = workspace.aux_buffer(h * ow);
    // Separable two-pass windowed sum over plane slices: a horizontal pass
    // (per input row) then a vertical pass, instead of a k×k gather with
    // per-element index arithmetic per output. Padding contributes zeros and
    // is counted in the divisor (count-include-pad).
    let src = input.data();
    for (plane, out_plane) in src
        .chunks_exact(h * w)
        .zip(out_buf.chunks_exact_mut(oh * ow))
    {
        for y in 0..h {
            let row = &plane[y * w..(y + 1) * w];
            let sums = &mut row_sums[y * ow..(y + 1) * ow];
            for (ox, slot) in sums.iter_mut().enumerate() {
                let start = (ox * stride).saturating_sub(padding).min(w);
                let end = (ox * stride + kernel).saturating_sub(padding).min(w);
                *slot = row[start..end].iter().sum();
            }
        }
        for oy in 0..oh {
            let y_start = (oy * stride).saturating_sub(padding).min(h);
            let y_end = (oy * stride + kernel).saturating_sub(padding).min(h);
            let out_row = &mut out_plane[oy * ow..(oy + 1) * ow];
            out_row.fill(0.0);
            for y in y_start..y_end {
                let sums = &row_sums[y * ow..(y + 1) * ow];
                for (o, &s) in out_row.iter_mut().zip(sums.iter()) {
                    *o += s;
                }
            }
            for o in out_row.iter_mut() {
                *o /= denom;
            }
        }
    }
    Ok(Tensor::from_vec(out_shape, out_buf).expect("length matches shape by construction"))
}

/// Backward pass of [`avg_pool2d_pooled`]: distributes the upstream
/// gradient evenly over each pooling window. The output tensor is drawn
/// from the workspace recycling pool.
///
/// # Errors
///
/// Returns an error if shapes are inconsistent.
pub(crate) fn avg_pool2d_backward_pooled(
    grad_out: &Tensor,
    input_shape: &Shape,
    kernel: usize,
    stride: usize,
    padding: usize,
    workspace: &mut Workspace,
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
    // The horizontal spread accumulates (`+=`), so the buffer must be
    // zeroed; the per-row scratch comes from the auxiliary slot so the hot
    // path allocates nothing.
    let mut in_buf = workspace.take_zeroed(n * c * h * w);
    let rows = workspace.aux_buffer(h * ow);
    // Separable two-pass scatter, mirroring the forward: a vertical spread
    // of grad/denom into per-row accumulators, then a horizontal spread into
    // the input-gradient rows.
    let src = grad_out.data();
    for (grad_plane, in_plane) in src
        .chunks_exact(oh * ow)
        .zip(in_buf.chunks_exact_mut(h * w))
    {
        rows.fill(0.0);
        for oy in 0..oh {
            let y_start = (oy * stride).saturating_sub(padding).min(h);
            let y_end = (oy * stride + kernel).saturating_sub(padding).min(h);
            let g_row = &grad_plane[oy * ow..(oy + 1) * ow];
            for y in y_start..y_end {
                let acc = &mut rows[y * ow..(y + 1) * ow];
                for (a, &g) in acc.iter_mut().zip(g_row.iter()) {
                    *a += g / denom;
                }
            }
        }
        for y in 0..h {
            let acc = &rows[y * ow..(y + 1) * ow];
            let in_row = &mut in_plane[y * w..(y + 1) * w];
            for (ox, &v) in acc.iter().enumerate() {
                let start = (ox * stride).saturating_sub(padding).min(w);
                let end = (ox * stride + kernel).saturating_sub(padding).min(w);
                for slot in &mut in_row[start..end] {
                    *slot += v;
                }
            }
        }
    }
    Ok(
        Tensor::from_vec(input_shape.clone(), in_buf)
            .expect("length matches shape by construction"),
    )
}

/// Global average pooling: reduces `[N, C, H, W]` to `[N, C]`.
///
/// # Errors
///
/// Returns an error if the input is not rank 4.
pub fn global_avg_pool(input: &Tensor) -> Result<Tensor> {
    let d = input.shape().dims();
    if d.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "global_avg_pool",
            expected: 4,
            actual: d.len(),
        });
    }
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let denom = (h * w) as f32;
    let hw = h * w;
    let mut out = Tensor::zeros(Shape::d2(n, c));
    let src = input.data();
    let dst = out.data_mut();
    for (plane, o) in src.chunks_exact(hw).zip(dst.iter_mut()) {
        // Sequential accumulation over the plane, matching the reference
        // row-major loop order element for element.
        let mut acc = 0.0f32;
        for &v in plane {
            acc += v;
        }
        *o = acc / denom;
    }
    Ok(out)
}

/// Backward pass of [`global_avg_pool`].
///
/// # Errors
///
/// Returns an error if shapes are inconsistent.
pub fn global_avg_pool_backward(grad_out: &Tensor, input_shape: &Shape) -> Result<Tensor> {
    let d = input_shape.dims();
    if d.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "global_avg_pool_backward",
            expected: 4,
            actual: d.len(),
        });
    }
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    if grad_out.shape().dims() != [n, c] {
        return Err(TensorError::IncompatibleShapes {
            op: "global_avg_pool_backward",
            lhs: grad_out.shape().dims().to_vec(),
            rhs: vec![n, c],
        });
    }
    let denom = (h * w) as f32;
    let hw = h * w;
    let mut grad_in = Tensor::zeros(input_shape.clone());
    let src = grad_out.data();
    let dst = grad_in.data_mut();
    for (&g, plane) in src.iter().zip(dst.chunks_exact_mut(hw)) {
        plane.fill(g / denom);
    }
    Ok(grad_in)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeterministicRng;

    fn avg_pool2d(input: &Tensor, kernel: usize, stride: usize, padding: usize) -> Result<Tensor> {
        avg_pool2d_pooled(input, kernel, stride, padding, &mut Workspace::default())
    }

    fn random_tensor(shape: Shape, seed: u64) -> Tensor {
        let mut rng = DeterministicRng::new(seed);
        let data = (0..shape.numel()).map(|_| rng.normal()).collect();
        Tensor::from_vec(shape, data).unwrap()
    }

    #[test]
    fn avg_pool_constant_input_interior() {
        let input = Tensor::ones(Shape::nchw(1, 1, 5, 5));
        let out = avg_pool2d(&input, 3, 1, 1).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 5, 5]);
        // Interior windows see 9 ones / 9 = 1.0.
        assert_eq!(out.at4(0, 0, 2, 2), 1.0);
        // Corner windows see 4 ones / 9 (count-include-pad).
        assert!((out.at4(0, 0, 0, 0) - 4.0 / 9.0).abs() < 1e-6);
    }

    #[test]
    fn avg_pool_preserves_mean_without_padding() {
        let input = random_tensor(Shape::nchw(1, 2, 4, 4), 5);
        let out = avg_pool2d(&input, 2, 2, 0).unwrap();
        assert_eq!(out.shape().dims(), &[1, 2, 2, 2]);
        assert!((out.mean() - input.mean()).abs() < 1e-5);
    }

    #[test]
    fn avg_pool_rejects_bad_rank() {
        let input = Tensor::zeros(Shape::d2(3, 3));
        assert!(avg_pool2d(&input, 3, 1, 1).is_err());
        let four = Tensor::zeros(Shape::nchw(1, 1, 3, 3));
        assert!(avg_pool2d(&four, 0, 1, 1).is_err());
    }

    #[test]
    fn avg_pool_backward_finite_difference() {
        let mut input = random_tensor(Shape::nchw(1, 1, 4, 4), 6);
        let grad = avg_pool2d_backward_pooled(
            &Tensor::ones(Shape::nchw(1, 1, 4, 4)),
            &Shape::nchw(1, 1, 4, 4),
            3,
            1,
            1,
            &mut Workspace::default(),
        )
        .unwrap();
        let eps = 1e-2f32;
        for &idx in &[0usize, 5, 10, 15] {
            let orig = input.data()[idx];
            input.data_mut()[idx] = orig + eps;
            let plus = avg_pool2d(&input, 3, 1, 1).unwrap().sum();
            input.data_mut()[idx] = orig - eps;
            let minus = avg_pool2d(&input, 3, 1, 1).unwrap().sum();
            input.data_mut()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!((numeric - grad.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn global_avg_pool_reduces_correctly() {
        let mut input = Tensor::zeros(Shape::nchw(2, 2, 2, 2));
        for i in 0..input.numel() {
            input.data_mut()[i] = i as f32;
        }
        let out = global_avg_pool(&input).unwrap();
        assert_eq!(out.shape().dims(), &[2, 2]);
        assert_eq!(out.at2(0, 0), (0.0 + 1.0 + 2.0 + 3.0) / 4.0);
        assert_eq!(out.at2(1, 1), (12.0 + 13.0 + 14.0 + 15.0) / 4.0);
    }

    #[test]
    fn global_avg_pool_backward_distributes_evenly() {
        let grad_out = Tensor::ones(Shape::d2(1, 2));
        let grad_in = global_avg_pool_backward(&grad_out, &Shape::nchw(1, 2, 2, 2)).unwrap();
        assert!(grad_in.data().iter().all(|&g| (g - 0.25).abs() < 1e-6));
    }

    #[test]
    fn global_avg_pool_backward_shape_check() {
        let grad_out = Tensor::ones(Shape::d2(2, 3));
        assert!(global_avg_pool_backward(&grad_out, &Shape::nchw(1, 3, 2, 2)).is_err());
    }
}
