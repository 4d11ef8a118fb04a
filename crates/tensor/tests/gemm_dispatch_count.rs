//! Unit of the `tensor.gemm.calls` counter: every conv kernel that takes
//! the GEMM path counts one logical dispatch per call, however many images
//! its batch holds (the packed forward has always counted this way).
//!
//! This file holds one test, so the process-global telemetry sink sees no
//! other test's work.

use micronas_telemetry::{install_scoped, Collector};
use micronas_tensor::{
    BlockedGemmBackend, Conv2dSpec, DeterministicRng, KernelBackend, PackedGradSlot, Shape, Tensor,
    Workspace,
};
use std::sync::Arc;

fn random_tensor(shape: Shape, seed: u64) -> Tensor {
    let mut rng = DeterministicRng::new(seed);
    let data = (0..shape.numel()).map(|_| rng.normal()).collect();
    Tensor::from_vec(shape, data).unwrap()
}

/// The `tensor.gemm.calls` count of one call of `kernel`.
fn gemm_calls(kernel: impl FnOnce(&mut Workspace)) -> u64 {
    let collector = Arc::new(Collector::new());
    {
        let _scope = install_scoped(collector.clone());
        kernel(&mut Workspace::default());
    }
    collector.report().counter("tensor.gemm.calls")
}

#[test]
fn every_conv_gemm_kernel_counts_one_call_at_batch_seven() {
    let (n, c, hw) = (7usize, 8usize, 8usize);
    // Both geometries sit above the direct-kernel threshold per sample, so
    // every kernel takes its GEMM path; the 1×1 conv multiplies the image
    // itself and the 3×3 conv lowers it.
    let backend = BlockedGemmBackend;
    for spec in [Conv2dSpec::new(3, 1, 1), Conv2dSpec::new(1, 1, 0)] {
        let k = spec.kernel;
        let input = random_tensor(Shape::nchw(n, c, hw, hw), 1);
        let other = random_tensor(Shape::nchw(n, c, hw, hw), 2);
        let weight = random_tensor(Shape::nchw(c, c, k, k), 3);
        let grad_out = random_tensor(Shape::nchw(n, c, hw, hw), 4);
        let per_sample = c * c * k * k;

        let forward = gemm_calls(|ws| {
            backend.conv2d(&input, &weight, spec, ws).unwrap();
        });
        assert_eq!(forward, 1, "conv2d forward, kernel {k}");

        let summed = gemm_calls(|ws| {
            backend
                .conv2d_backward_weight(&input, &grad_out, c, spec, ws)
                .unwrap();
        });
        assert_eq!(summed, 1, "summed weight gradient, kernel {k}");

        let per_sample_calls = gemm_calls(|ws| {
            let mut out = vec![0.0; n * per_sample];
            backend
                .conv2d_backward_weight_per_sample_into(
                    &input, &grad_out, c, spec, ws, &mut out, per_sample, 0,
                )
                .unwrap();
        });
        assert_eq!(
            per_sample_calls, 1,
            "per-sample weight gradient, kernel {k}"
        );

        for inputs in [vec![&input], vec![&input, &input, &other]] {
            let width = inputs.len();
            let packed = gemm_calls(|ws| {
                let mut bufs = vec![vec![0.0; n * per_sample]; width];
                let mut slots: Vec<PackedGradSlot<'_>> = bufs
                    .iter_mut()
                    .map(|out| PackedGradSlot {
                        out,
                        row_stride: per_sample,
                        offset: 0,
                    })
                    .collect();
                let grads = vec![&grad_out; width];
                backend
                    .conv2d_backward_weight_per_sample_packed(
                        &inputs, &grads, c, spec, ws, &mut slots,
                    )
                    .unwrap();
            });
            assert_eq!(
                packed, 1,
                "packed per-sample weight gradient, width {width}, kernel {k}"
            );
        }

        let input_grad = gemm_calls(|ws| {
            backend
                .conv2d_backward_input(&weight, &grad_out, input.shape(), spec, ws)
                .unwrap();
        });
        assert_eq!(input_grad, 1, "input gradient, kernel {k}");
    }
}
