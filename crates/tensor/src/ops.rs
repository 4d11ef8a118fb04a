//! Free-standing element-wise operations that do not naturally belong on
//! [`Tensor`] as methods (activation functions and their derivatives).
//!
//! These are used by the `micronas-nn` layer implementations; keeping them
//! here lets the numerical kernels be tested in isolation.

use crate::Tensor;

/// Rectified linear unit applied element-wise.
///
/// # Example
///
/// ```
/// use micronas_tensor::{Tensor, Shape, ops};
/// # fn main() -> Result<(), micronas_tensor::TensorError> {
/// let x = Tensor::from_vec(Shape::d1(3), vec![-1.0, 0.0, 2.0])?;
/// let y = ops::relu(&x);
/// assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| if v > 0.0 { v } else { 0.0 })
}

/// Gradient of [`relu`]: passes `upstream` through where the forward input
/// was strictly positive and zeroes it elsewhere.
///
/// # Panics
///
/// Panics if `input` and `upstream` have different element counts; the two
/// always originate from the same forward pass in practice.
pub fn relu_backward(input: &Tensor, upstream: &Tensor) -> Tensor {
    assert_eq!(
        input.numel(),
        upstream.numel(),
        "relu_backward: length mismatch"
    );
    let data = input
        .data()
        .iter()
        .zip(upstream.data().iter())
        .map(|(&x, &g)| if x > 0.0 { g } else { 0.0 })
        .collect();
    Tensor::from_vec(input.shape().clone(), data).expect("same shape as input")
}

/// Numerically stable softmax over the last axis of a rank-2 tensor
/// (rows are samples, columns are classes).
///
/// # Panics
///
/// Panics if the tensor is not rank 2.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let dims = x.shape().dims();
    assert_eq!(dims.len(), 2, "softmax_rows expects a rank-2 tensor");
    let (rows, cols) = (dims[0], dims[1]);
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        let row = &x.data()[r * cols..(r + 1) * cols];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&v| (v - m).exp()).collect();
        let denom: f32 = exps.iter().sum();
        for c in 0..cols {
            out[r * cols + c] = exps[c] / denom;
        }
    }
    Tensor::from_vec(x.shape().clone(), out).expect("same shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;
    use proptest::prelude::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(Shape::d1(4), vec![-2.0, -0.5, 0.0, 3.0]).unwrap();
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let x = Tensor::from_vec(Shape::d1(4), vec![-1.0, 0.0, 1.0, 2.0]).unwrap();
        let g = Tensor::from_vec(Shape::d1(4), vec![10.0, 10.0, 10.0, 10.0]).unwrap();
        assert_eq!(relu_backward(&x, &g).data(), &[0.0, 0.0, 10.0, 10.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(Shape::d2(2, 3), vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let s = softmax_rows(&x);
        for r in 0..2 {
            let sum: f32 = (0..3).map(|c| s.at2(r, c)).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(Shape::d2(1, 3), vec![1.0, 2.0, 3.0]).unwrap();
        let y = Tensor::from_vec(Shape::d2(1, 3), vec![101.0, 102.0, 103.0]).unwrap();
        let sx = softmax_rows(&x);
        let sy = softmax_rows(&y);
        for (a, b) in sx.data().iter().zip(sy.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    proptest! {
        #[test]
        fn relu_is_idempotent(vals in proptest::collection::vec(-10.0f32..10.0, 1..64)) {
            let x = Tensor::from_vec(Shape::d1(vals.len()), vals).unwrap();
            let once = relu(&x);
            let twice = relu(&once);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn relu_output_nonnegative(vals in proptest::collection::vec(-10.0f32..10.0, 1..64)) {
            let x = Tensor::from_vec(Shape::d1(vals.len()), vals).unwrap();
            prop_assert!(relu(&x).data().iter().all(|&v| v >= 0.0));
        }
    }
}
