use crate::{Result, Shape, TensorError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An owned, contiguous, row-major dense `f32` tensor.
///
/// `Tensor` is the workhorse value type of the workspace: feature maps,
/// convolution weights, gradients and NTK Gram matrices are all `Tensor`s.
/// All operations allocate their result; this keeps the API simple and is
/// more than fast enough for the small proxy networks used in zero-shot NAS.
///
/// # Example
///
/// ```
/// use micronas_tensor::{Tensor, Shape};
/// # fn main() -> Result<(), micronas_tensor::TensorError> {
/// let t = Tensor::zeros(Shape::d2(2, 2));
/// assert_eq!(t.sum(), 0.0);
/// let u = t.map(|x| x + 1.0);
/// assert_eq!(u.sum(), 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.numel();
        Self {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(shape: Shape) -> Self {
        let n = shape.numel();
        Self {
            shape,
            data: vec![1.0; n],
        }
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        let n = shape.numel();
        Self {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` does not equal
    /// `shape.numel()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self> {
        if shape.numel() != data.len() {
            return Err(TensorError::ShapeMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying buffer (row-major order).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major order).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads a single element by flat index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `index >= numel()`.
    pub fn get(&self, index: usize) -> Result<f32> {
        self.data
            .get(index)
            .copied()
            .ok_or(TensorError::IndexOutOfBounds {
                index,
                len: self.data.len(),
            })
    }

    /// Reinterprets the tensor with a new shape holding the same number of
    /// elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: Shape) -> Result<Self> {
        if shape.numel() != self.numel() {
            return Err(TensorError::ShapeMismatch {
                expected: shape.numel(),
                actual: self.numel(),
            });
        }
        Ok(Self {
            shape,
            data: self.data.clone(),
        })
    }

    /// Element at NCHW position, for rank-4 tensors.
    ///
    /// # Panics
    ///
    /// Debug-asserts that indices are within bounds; out-of-bounds access in
    /// release mode is caught by the slice bounds check.
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        let d = self.shape.dims();
        debug_assert_eq!(d.len(), 4);
        let idx = ((n * d[1] + c) * d[2] + h) * d[3] + w;
        self.data[idx]
    }

    /// Mutable element access at NCHW position, for rank-4 tensors.
    pub fn at4_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let d = self.shape.dims();
        debug_assert_eq!(d.len(), 4);
        let idx = ((n * d[1] + c) * d[2] + h) * d[3] + w;
        &mut self.data[idx]
    }

    /// Element at matrix position, for rank-2 tensors.
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        let d = self.shape.dims();
        debug_assert_eq!(d.len(), 2);
        self.data[r * d[1] + c]
    }

    /// Mutable element access at matrix position, for rank-2 tensors.
    pub fn at2_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        let d = self.shape.dims();
        debug_assert_eq!(d.len(), 2);
        &mut self.data[r * d[1] + c]
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if the shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Self> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if the shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Result<Self> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if the shapes differ.
    pub fn mul(&self, rhs: &Tensor) -> Result<Self> {
        self.zip_with(rhs, "mul", |a, b| a * b)
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Adds `rhs` scaled by `alpha` into `self` in place (`self += alpha * rhs`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) -> Result<()> {
        let _span = micronas_telemetry::span!("tensor.axpy");
        if self.shape != rhs.shape {
            return Err(TensorError::IncompatibleShapes {
                op: "axpy",
                lhs: self.shape.dims().to_vec(),
                rhs: rhs.shape.dims().to_vec(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Euclidean norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Matrix multiplication of two rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either operand is not rank 2
    /// and [`TensorError::IncompatibleShapes`] if the inner dimensions differ.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Self> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        if rhs.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: rhs.shape.rank(),
            });
        }
        let (m, k) = (self.shape.dims()[0], self.shape.dims()[1]);
        let (k2, n) = (rhs.shape.dims()[0], rhs.shape.dims()[1]);
        if k != k2 {
            return Err(TensorError::IncompatibleShapes {
                op: "matmul",
                lhs: self.shape.dims().to_vec(),
                rhs: rhs.shape.dims().to_vec(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        crate::linalg::gemm_nn(m, k, n, &self.data, &rhs.data, &mut out, false);
        Tensor::from_vec(Shape::d2(m, n), out)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    pub fn transpose(&self) -> Result<Self> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        let (m, n) = (self.shape.dims()[0], self.shape.dims()[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(Shape::d2(n, m), out)
    }

    /// Dot product of the flattened tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if lengths differ.
    pub fn flat_dot(&self, rhs: &Tensor) -> Result<f32> {
        if self.numel() != rhs.numel() {
            return Err(TensorError::IncompatibleShapes {
                op: "flat_dot",
                lhs: self.shape.dims().to_vec(),
                rhs: rhs.shape.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    fn zip_with(
        &self,
        rhs: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Self> {
        if self.shape != rhs.shape {
            return Err(TensorError::IncompatibleShapes {
                op,
                lhs: self.shape.dims().to_vec(),
                rhs: rhs.shape.dims().to_vec(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Self {
            shape: self.shape.clone(),
            data,
        })
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor{} n={} mean={:.4}",
            self.shape,
            self.numel(),
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_shape_check() {
        let t = Tensor::from_vec(Shape::d2(2, 2), vec![1., 2., 3., 4.]).unwrap();
        assert_eq!(t.numel(), 4);
        assert!(Tensor::from_vec(Shape::d2(2, 2), vec![1., 2., 3.]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(Shape::d1(3), vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec(Shape::d1(3), vec![4., 5., 6.]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5., 7., 9.]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3., 3., 3.]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4., 10., 18.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
    }

    #[test]
    fn elementwise_shape_mismatch_rejected() {
        let a = Tensor::zeros(Shape::d1(3));
        let b = Tensor::zeros(Shape::d1(4));
        assert!(a.add(&b).is_err());
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(Shape::d2(3, 2), vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_rejects_bad_dims() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(2, 3));
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(Shape::d1(3));
        assert!(v.matmul(&a).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(Shape::d1(4), vec![1., -2., 3., -4.]).unwrap();
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -4.0);
        assert!((a.l2_norm() - (30.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(Shape::d1(3));
        let b = Tensor::from_vec(Shape::d1(3), vec![1., 2., 3.]).unwrap();
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.data(), &[2., 4., 6.]);
        assert!(a.axpy(1.0, &Tensor::zeros(Shape::d1(4))).is_err());
    }

    #[test]
    fn nchw_indexing() {
        let mut t = Tensor::zeros(Shape::nchw(2, 3, 4, 5));
        *t.at4_mut(1, 2, 3, 4) = 7.0;
        assert_eq!(t.at4(1, 2, 3, 4), 7.0);
        assert_eq!(t.data()[t.numel() - 1], 7.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = t.reshape(Shape::d1(6)).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(Shape::d1(5)).is_err());
    }

    #[test]
    fn get_bounds_checked() {
        let t = Tensor::zeros(Shape::d1(2));
        assert!(t.get(1).is_ok());
        assert!(t.get(2).is_err());
    }

    proptest! {
        #[test]
        fn matmul_identity_is_noop(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| ((seed.wrapping_add(i as u64).wrapping_mul(2654435761)) % 1000) as f32 / 100.0)
                .collect();
            let a = Tensor::from_vec(Shape::d2(rows, cols), data).unwrap();
            let mut eye = Tensor::zeros(Shape::d2(cols, cols));
            for i in 0..cols {
                *eye.at2_mut(i, i) = 1.0;
            }
            let prod = a.matmul(&eye).unwrap();
            prop_assert_eq!(prod, a);
        }

        #[test]
        fn add_commutes(len in 1usize..32, seed in 0u64..1000) {
            let va: Vec<f32> = (0..len).map(|i| (seed as f32 + i as f32).sin()).collect();
            let vb: Vec<f32> = (0..len).map(|i| (seed as f32 - i as f32).cos()).collect();
            let a = Tensor::from_vec(Shape::d1(len), va).unwrap();
            let b = Tensor::from_vec(Shape::d1(len), vb).unwrap();
            prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
        }
    }
}
