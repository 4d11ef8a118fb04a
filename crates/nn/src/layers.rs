//! Parameterised layers with explicit forward and backward passes.

use crate::Result;
use micronas_tensor::{Conv2dSpec, InitKind, KernelBackend, Shape, Tensor, Workspace};
use serde::{Deserialize, Serialize};

/// A bias-free 2-D convolution layer.
///
/// NAS-Bench-201 cell convolutions are ReLU–Conv–BN blocks; at random
/// initialisation the batch-norm is an affine identity up to a per-channel
/// scale, so the proxy network omits it (the NTK and linear-region rankings
/// are unaffected by a per-channel rescale, which is absorbed by the Kaiming
/// initialisation). The ReLU is applied by the caller so this type stays a
/// pure linear operator with a well-defined weight gradient.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvLayer {
    weight: Tensor,
    spec: Conv2dSpec,
}

impl ConvLayer {
    /// Creates a convolution layer with freshly initialised weights.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        init: InitKind,
        seed: u64,
    ) -> Self {
        let weight = init.init(Shape::nchw(out_channels, in_channels, kernel, kernel), seed);
        Self {
            weight,
            spec: Conv2dSpec::new(kernel, stride, padding),
        }
    }

    /// The convolution geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// The weight tensor (`[out_c, in_c, k, k]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable access to the weights (used by perturbation ablations).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// Number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.weight.numel()
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weight.shape().dims()[0]
    }

    /// Forward pass on an execution backend. The output tensor may come
    /// from the workspace recycling pool (see [`KernelBackend::conv2d`]).
    ///
    /// # Errors
    ///
    /// Propagates tensor-shape errors from the backend kernel.
    pub fn forward(
        &self,
        backend: &dyn KernelBackend,
        input: &Tensor,
        workspace: &mut Workspace,
    ) -> Result<Tensor> {
        Ok(backend.conv2d(input, &self.weight, self.spec, workspace)?)
    }

    /// Backward pass on an execution backend: returns
    /// `(grad_weight, grad_input)` for the upstream gradient `grad_out`.
    ///
    /// # Errors
    ///
    /// Propagates tensor-shape errors from the backend kernels.
    pub fn backward(
        &self,
        backend: &dyn KernelBackend,
        input: &Tensor,
        grad_out: &Tensor,
        workspace: &mut Workspace,
    ) -> Result<(Tensor, Tensor)> {
        let grad_w = backend.conv2d_backward_weight(
            input,
            grad_out,
            self.out_channels(),
            self.spec,
            workspace,
        )?;
        let grad_in = backend.conv2d_backward_input(
            &self.weight,
            grad_out,
            input.shape(),
            self.spec,
            workspace,
        )?;
        Ok((grad_w, grad_in))
    }
}

/// A bias-free fully connected layer mapping `[N, in]` to `[N, out]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearLayer {
    /// Weight of shape `[out, in]`.
    weight: Tensor,
}

impl LinearLayer {
    /// Creates a linear layer with freshly initialised weights.
    pub fn new(in_features: usize, out_features: usize, init: InitKind, seed: u64) -> Self {
        Self {
            weight: init.init(Shape::d2(out_features, in_features), seed),
        }
    }

    /// Creates a linear layer from an explicit `[out, in]` weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank 2.
    pub fn from_weight(weight: Tensor) -> Self {
        assert_eq!(weight.shape().rank(), 2, "linear weight must be [out, in]");
        Self { weight }
    }

    /// The weight tensor (`[out, in]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.weight.numel()
    }

    /// Forward pass on an execution backend: `output = input · weightᵀ`.
    ///
    /// Runs as a single transpose-free `A · Bᵀ` GEMM (the weight is stored
    /// `[out, in]`, exactly the layout [`KernelBackend::gemm_nt`] wants).
    ///
    /// # Errors
    ///
    /// Propagates tensor-shape errors.
    pub fn forward(&self, backend: &dyn KernelBackend, input: &Tensor) -> Result<Tensor> {
        let (batch, in_features) = self.check_input(input)?;
        let out_features = self.weight.shape().dims()[0];
        let mut out = Tensor::zeros(Shape::d2(batch, out_features));
        backend.gemm_nt(
            batch,
            in_features,
            out_features,
            input.data(),
            self.weight.data(),
            out.data_mut(),
            false,
        );
        Ok(out)
    }

    /// Backward pass on an execution backend: returns
    /// `(grad_weight, grad_input)`.
    ///
    /// # Errors
    ///
    /// Propagates tensor-shape errors.
    pub fn backward(
        &self,
        backend: &dyn KernelBackend,
        input: &Tensor,
        grad_out: &Tensor,
    ) -> Result<(Tensor, Tensor)> {
        let (batch, in_features) = self.check_input(input)?;
        let out_features = self.weight.shape().dims()[0];
        let gd = grad_out.shape().dims();
        if gd.len() != 2 || gd[0] != batch || gd[1] != out_features {
            return Err(crate::NnError::from(
                micronas_tensor::TensorError::IncompatibleShapes {
                    op: "linear backward",
                    lhs: gd.to_vec(),
                    rhs: vec![batch, out_features],
                },
            ));
        }
        // grad_w [out, in] = grad_outᵀ [out, N] · input [N, in]
        let mut grad_w = Tensor::zeros(self.weight.shape().clone());
        backend.gemm_tn(
            out_features,
            batch,
            in_features,
            grad_out.data(),
            input.data(),
            grad_w.data_mut(),
            false,
        );
        // grad_in [N, in] = grad_out [N, out] · weight [out, in]
        let mut grad_in = Tensor::zeros(Shape::d2(batch, in_features));
        backend.gemm_nn(
            batch,
            out_features,
            in_features,
            grad_out.data(),
            self.weight.data(),
            grad_in.data_mut(),
            false,
        );
        Ok((grad_w, grad_in))
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize)> {
        let id = input.shape().dims();
        let in_features = self.weight.shape().dims()[1];
        if id.len() != 2 || id[1] != in_features {
            return Err(crate::NnError::from(
                micronas_tensor::TensorError::IncompatibleShapes {
                    op: "linear forward",
                    lhs: id.to_vec(),
                    rhs: vec![id.first().copied().unwrap_or(0), in_features],
                },
            ));
        }
        Ok((id[0], in_features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micronas_tensor::{BlockedGemmBackend, DeterministicRng};

    const BACKEND: BlockedGemmBackend = BlockedGemmBackend;

    fn random_tensor(shape: Shape, seed: u64) -> Tensor {
        let mut rng = DeterministicRng::new(seed);
        let data = (0..shape.numel()).map(|_| rng.normal()).collect();
        Tensor::from_vec(shape, data).unwrap()
    }

    #[test]
    fn conv_layer_shapes_and_params() {
        let layer = ConvLayer::new(3, 8, 3, 1, 1, InitKind::KaimingNormal, 1);
        assert_eq!(layer.num_parameters(), 8 * 3 * 3 * 3);
        assert_eq!(layer.out_channels(), 8);
        let input = random_tensor(Shape::nchw(2, 3, 8, 8), 2);
        let out = layer
            .forward(&BACKEND, &input, &mut Workspace::default())
            .unwrap();
        assert_eq!(out.shape().dims(), &[2, 8, 8, 8]);
    }

    #[test]
    fn conv_layer_backward_shapes() {
        let layer = ConvLayer::new(4, 6, 3, 1, 1, InitKind::KaimingNormal, 3);
        let input = random_tensor(Shape::nchw(1, 4, 5, 5), 4);
        let mut ws = Workspace::default();
        let out = layer.forward(&BACKEND, &input, &mut ws).unwrap();
        let grad_out = Tensor::ones(out.shape().clone());
        let (gw, gi) = layer
            .backward(&BACKEND, &input, &grad_out, &mut ws)
            .unwrap();
        assert_eq!(gw.shape(), layer.weight().shape());
        assert_eq!(gi.shape(), input.shape());
    }

    #[test]
    fn linear_forward_matches_manual() {
        let mut layer = LinearLayer::new(2, 2, InitKind::KaimingNormal, 5);
        // Overwrite weights with known values: [[1, 2], [3, 4]]
        layer.weight = Tensor::from_vec(Shape::d2(2, 2), vec![1., 2., 3., 4.]).unwrap();
        let input = Tensor::from_vec(Shape::d2(1, 2), vec![5., 6.]).unwrap();
        let out = layer.forward(&BACKEND, &input).unwrap();
        assert_eq!(out.data(), &[17., 39.]);
    }

    #[test]
    fn linear_backward_finite_difference() {
        let layer = LinearLayer::new(6, 4, InitKind::XavierUniform, 7);
        let input = random_tensor(Shape::d2(3, 6), 8);
        let out = layer.forward(&BACKEND, &input).unwrap();
        let grad_out = Tensor::ones(out.shape().clone());
        let (gw, gi) = layer.backward(&BACKEND, &input, &grad_out).unwrap();
        assert_eq!(gw.shape().dims(), &[4, 6]);
        assert_eq!(gi.shape().dims(), &[3, 6]);

        // Finite difference on a few weight entries.
        let eps = 1e-2f32;
        let mut perturbed = layer.clone();
        for &idx in &[0usize, 5, 13, 23] {
            let orig = perturbed.weight.data()[idx];
            perturbed.weight.data_mut()[idx] = orig + eps;
            let plus = perturbed.forward(&BACKEND, &input).unwrap().sum();
            perturbed.weight.data_mut()[idx] = orig - eps;
            let minus = perturbed.forward(&BACKEND, &input).unwrap().sum();
            perturbed.weight.data_mut()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!((numeric - gw.data()[idx]).abs() < 1e-2 * (1.0 + numeric.abs()));
        }
    }

    #[test]
    fn deterministic_initialisation() {
        let a = ConvLayer::new(3, 4, 3, 1, 1, InitKind::KaimingNormal, 9);
        let b = ConvLayer::new(3, 4, 3, 1, 1, InitKind::KaimingNormal, 9);
        assert_eq!(a.weight(), b.weight());
        let c = ConvLayer::new(3, 4, 3, 1, 1, InitKind::KaimingNormal, 10);
        assert_ne!(a.weight(), c.weight());
    }
}
