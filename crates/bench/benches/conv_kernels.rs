//! Convolution kernel micro-benchmarks: the `direct` backend's loops vs the
//! paper-default `blocked_gemm` backend.
//!
//! Measures the forward pass and both gradients on the geometries the proxy
//! networks actually run (3×3 stride-1 and 1×1 cell convolutions at the
//! paper-default 16×16 resolution). Every case is far above the direct-kernel
//! threshold, so `blocked_gemm` runs its GEMM path on all of them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use micronas_bench::banner;
use micronas_tensor::{Conv2dSpec, DeterministicRng, KernelBackendKind, Shape, Tensor, Workspace};

fn random_tensor(shape: Shape, seed: u64) -> Tensor {
    let mut rng = DeterministicRng::new(seed);
    let data = (0..shape.numel()).map(|_| rng.normal()).collect();
    Tensor::from_vec(shape, data).unwrap()
}

struct Case {
    name: &'static str,
    batch: usize,
    channels: usize,
    resolution: usize,
    spec: Conv2dSpec,
}

const CASES: &[Case] = &[
    Case {
        name: "conv3x3_16x16_c8_n32",
        batch: 32,
        channels: 8,
        resolution: 16,
        spec: Conv2dSpec {
            kernel: 3,
            stride: 1,
            padding: 1,
        },
    },
    Case {
        name: "conv1x1_16x16_c8_n32",
        batch: 32,
        channels: 8,
        resolution: 16,
        spec: Conv2dSpec {
            kernel: 1,
            stride: 1,
            padding: 0,
        },
    },
    Case {
        name: "conv3x3_12x12_c6_n12",
        batch: 12,
        channels: 6,
        resolution: 12,
        spec: Conv2dSpec {
            kernel: 3,
            stride: 1,
            padding: 1,
        },
    },
];

fn bench_conv_kernels(c: &mut Criterion) {
    banner(
        "conv kernels: direct vs blocked_gemm backend",
        "proxy-evaluation hot path (NTK forward/backward)",
    );
    let mut group = c.benchmark_group("conv_kernels");
    group.sample_size(20);
    for case in CASES {
        let input = random_tensor(
            Shape::nchw(case.batch, case.channels, case.resolution, case.resolution),
            1,
        );
        let weight = random_tensor(
            Shape::nchw(
                case.channels,
                case.channels,
                case.spec.kernel,
                case.spec.kernel,
            ),
            2,
        );
        let (oh, ow) = case.spec.output_hw(case.resolution, case.resolution);
        let grad_out = random_tensor(Shape::nchw(case.batch, case.channels, oh, ow), 3);
        let mut ws = Workspace::default();
        for kind in [KernelBackendKind::Direct, KernelBackendKind::BlockedGemm] {
            let backend = kind.instantiate();
            group.bench_with_input(BenchmarkId::new(case.name, kind.id()), &kind, |b, _| {
                b.iter(|| {
                    let fwd = backend.conv2d(&input, &weight, case.spec, &mut ws).unwrap();
                    let gw = backend
                        .conv2d_backward_weight(
                            &input,
                            &grad_out,
                            case.channels,
                            case.spec,
                            &mut ws,
                        )
                        .unwrap();
                    let gi = backend
                        .conv2d_backward_input(
                            &weight,
                            &grad_out,
                            input.shape(),
                            case.spec,
                            &mut ws,
                        )
                        .unwrap();
                    let sums = (fwd.sum(), gw.sum(), gi.sum());
                    ws.recycle(fwd.into_vec());
                    ws.recycle(gi.into_vec());
                    sums
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_conv_kernels);
criterion_main!(benches);
