//! Kernel-level backend conformance: every [`KernelBackend`] against the
//! direct-loop oracle.
//!
//! Gates, per backend:
//!
//! * `direct` — trivially the oracle;
//! * `blocked_gemm` (the paper default) — the float tolerance against the
//!   oracle. Its bitwise identity to the paper pipeline is pinned one layer
//!   up, by the sweep and search fingerprints.

use micronas_tensor::{
    Conv2dSpec, DeterministicRng, KernelBackend, PackedGradSlot, Shape, Tensor, TensorError,
    Workspace,
};
use proptest::prelude::*;

fn random_tensor(shape: Shape, seed: u64) -> Tensor {
    let mut rng = DeterministicRng::new(seed);
    let data = (0..shape.numel()).map(|_| rng.normal()).collect();
    Tensor::from_vec(shape, data).unwrap()
}

/// Float tolerance of one backend against the direct oracle.
fn float_tolerance(id: &str) -> f32 {
    match id {
        "direct" => 0.0,
        "blocked_gemm" => 1e-5,
        other => panic!("unregistered backend {other} — add a tolerance gate"),
    }
}

fn assert_close(got: &Tensor, want: &Tensor, tol: f32, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (g, w) in got.data().iter().zip(want.data()) {
        assert!(
            (g - w).abs() <= tol * (1.0 + w.abs()),
            "{what}: {g} vs oracle {w}"
        );
    }
}

/// Runs the full kernel battery for one geometry on one backend.
#[allow(clippy::too_many_arguments)]
fn check_backend(
    backend: KernelBackend,
    n: usize,
    c_in: usize,
    c_out: usize,
    h: usize,
    w: usize,
    spec: Conv2dSpec,
    seed: u64,
) {
    let oracle = KernelBackend::Direct;
    let (oh, ow) = spec.output_hw(h, w);
    if oh == 0 || ow == 0 || h + 2 * spec.padding < spec.kernel {
        return;
    }
    let input = random_tensor(Shape::nchw(n, c_in, h, w), seed);
    let weight = random_tensor(Shape::nchw(c_out, c_in, spec.kernel, spec.kernel), seed + 1);
    let grad_out = random_tensor(Shape::nchw(n, c_out, oh, ow), seed + 2);
    let mut ws = Workspace::default();
    let mut ows = Workspace::default();

    let tol = float_tolerance(backend.id());

    // Forward.
    let fwd = backend.conv2d(&input, &weight, spec, &mut ws).unwrap();
    let fwd_ref = oracle.conv2d(&input, &weight, spec, &mut ows).unwrap();
    assert_close(&fwd, &fwd_ref, tol, &format!("{} conv2d", backend.id()));

    // Pooling.
    let pooled = backend.avg_pool2d(&input, 3, 1, 1, &mut ws).unwrap();
    let pooled_ref = oracle.avg_pool2d(&input, 3, 1, 1, &mut ows).unwrap();
    assert_close(
        &pooled,
        &pooled_ref,
        tol,
        &format!("{} avg_pool2d", backend.id()),
    );

    // Backward weight (summed).
    let gw = backend
        .conv2d_backward_weight(&input, &grad_out, c_out, spec, &mut ws)
        .unwrap();
    let gw_ref = oracle
        .conv2d_backward_weight(&input, &grad_out, c_out, spec, &mut ows)
        .unwrap();
    assert_close(
        &gw,
        &gw_ref,
        tol,
        &format!("{} backward_weight", backend.id()),
    );

    // Backward weight, per sample, strided into a caller matrix.
    let p = c_out * c_in * spec.kernel * spec.kernel;
    let (row_stride, offset) = (p + 5, 3);
    let mut got = vec![f32::NAN; n * row_stride];
    let mut want = vec![f32::NAN; n * row_stride];
    backend
        .conv2d_backward_weight_per_sample_into(
            &input, &grad_out, c_out, spec, &mut ws, &mut got, row_stride, offset,
        )
        .unwrap();
    oracle
        .conv2d_backward_weight_per_sample_into(
            &input, &grad_out, c_out, spec, &mut ows, &mut want, row_stride, offset,
        )
        .unwrap();
    for b in 0..n {
        let g = &got[b * row_stride + offset..b * row_stride + offset + p];
        let r = &want[b * row_stride + offset..b * row_stride + offset + p];
        for (x, y) in g.iter().zip(r) {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "{} per-sample sample {b}: {x} vs {y}",
                backend.id()
            );
        }
    }
    // Bytes outside the strided slices stay untouched.
    assert!(got[..offset].iter().all(|v| v.is_nan()));

    // Backward input.
    let gi = backend
        .conv2d_backward_input(&weight, &grad_out, input.shape(), spec, &mut ws)
        .unwrap();
    let gi_ref = oracle
        .conv2d_backward_input(&weight, &grad_out, input.shape(), spec, &mut ows)
        .unwrap();
    assert_close(
        &gi,
        &gi_ref,
        tol,
        &format!("{} backward_input", backend.id()),
    );

    // Pooling backward, with a gradient shaped like the pooling *forward*
    // output (pool k=3/s=1/p=1 preserves the input shape) — always
    // shape-valid, so this comparison is exercised for every geometry
    // rather than silently erroring out when c_out differs from c_in.
    let pool_grad = random_tensor(pooled_ref.shape().clone(), seed + 3);
    let pg = backend
        .avg_pool2d_backward(&pool_grad, input.shape(), 3, 1, 1, &mut ws)
        .unwrap();
    let pg_ref = oracle
        .avg_pool2d_backward(&pool_grad, input.shape(), 3, 1, 1, &mut ows)
        .unwrap();
    assert_close(
        &pg,
        &pg_ref,
        tol,
        &format!("{} pool backward", backend.id()),
    );
}

#[test]
fn every_backend_matches_the_oracle_on_representative_geometries() {
    for backend in KernelBackend::all() {
        // The geometries the proxy networks actually run.
        check_backend(backend, 2, 3, 8, 16, 16, Conv2dSpec::new(3, 1, 1), 40);
        check_backend(backend, 3, 8, 8, 16, 16, Conv2dSpec::new(1, 1, 0), 41);
        check_backend(backend, 1, 4, 6, 12, 12, Conv2dSpec::new(3, 2, 1), 42);
    }
}

#[test]
fn every_backend_packed_forward_is_bitwise_its_own_solo_path() {
    // The mega-batching contract: for EVERY backend, the packed entry point
    // is bit-for-bit the per-candidate loop over that backend's own conv2d —
    // `direct` by construction, and `blocked_gemm` by its schedule guard.
    for backend in KernelBackend::all() {
        for (n, c_in, c_out, h, spec, seed) in [
            // Wide merged schedule (pointwise, ohow 256).
            (
                2usize,
                8usize,
                8usize,
                16usize,
                Conv2dSpec::new(1, 1, 0),
                60u64,
            ),
            // Deep merged schedule (ckk 72, ohow 25).
            (2, 8, 8, 5, Conv2dSpec::new(3, 1, 1), 61),
            // Schedule boundary: must fall back per candidate.
            (3, 2, 4, 5, Conv2dSpec::new(3, 1, 1), 62),
            // Strided downsampling geometry.
            (2, 4, 6, 12, Conv2dSpec::new(3, 2, 1), 63),
        ] {
            let weight = random_tensor(Shape::nchw(c_out, c_in, spec.kernel, spec.kernel), seed);
            for width in [1usize, 2, 8] {
                let inputs: Vec<Tensor> = (0..width)
                    .map(|i| random_tensor(Shape::nchw(n, c_in, h, h), seed + 10 + i as u64))
                    .collect();
                let refs: Vec<&Tensor> = inputs.iter().collect();
                let mut ws = Workspace::default();
                let packed = backend
                    .conv2d_forward_packed(&refs, &weight, spec, &mut ws)
                    .unwrap();
                for (input, got) in inputs.iter().zip(&packed) {
                    let want = backend
                        .conv2d(input, &weight, spec, &mut Workspace::default())
                        .unwrap();
                    assert_eq!(
                        got.data(),
                        want.data(),
                        "backend {} width {width} packed forward must be bitwise solo",
                        backend.id()
                    );
                }
            }
        }
    }
}

#[test]
fn gemm_and_gram_match_the_oracle() {
    let oracle = KernelBackend::Direct;
    let (m, k, n) = (7, 33, 19);
    let a = random_tensor(Shape::d2(m, k), 1);
    let b = random_tensor(Shape::d2(k, n), 2);
    let bt = random_tensor(Shape::d2(n, k), 3);
    let at = random_tensor(Shape::d2(k, m), 4);
    for backend in KernelBackend::all() {
        let tol = float_tolerance(backend.id());
        let check = |got: &[f32], want: &[f32], what: &str| {
            for (x, y) in got.iter().zip(want) {
                assert!(
                    (x - y).abs() <= tol * (1.0 + y.abs()),
                    "{}: {what} {x} vs {y}",
                    backend.id()
                );
            }
        };
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        backend.gemm_nn(m, k, n, a.data(), b.data(), &mut got, false);
        oracle.gemm_nn(m, k, n, a.data(), b.data(), &mut want, false);
        check(&got, &want, "gemm_nn");

        got.fill(0.0);
        want.fill(0.0);
        backend.gemm_nt(m, k, n, a.data(), bt.data(), &mut got, false);
        oracle.gemm_nt(m, k, n, a.data(), bt.data(), &mut want, false);
        check(&got, &want, "gemm_nt");

        got.fill(0.0);
        want.fill(0.0);
        backend.gemm_tn(m, k, n, at.data(), b.data(), &mut got, false);
        oracle.gemm_tn(m, k, n, at.data(), b.data(), &mut want, false);
        check(&got, &want, "gemm_tn");

        // Gram: f64 accumulated, so every backend meets a tight gate.
        let j = random_tensor(Shape::d2(6, 150), 5);
        let mut gram = vec![0.0f64; 36];
        let mut gram_ref = vec![0.0f64; 36];
        backend.gram_nt_f64(6, 150, j.data(), &mut gram);
        oracle.gram_nt_f64(6, 150, j.data(), &mut gram_ref);
        for (x, y) in gram.iter().zip(&gram_ref) {
            assert!(
                (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                "{}: gram {x} vs {y}",
                backend.id()
            );
        }
    }
}

/// A zero kernel or stride is a typed error at every conv and pool entry,
/// on both backends — never a division by zero or a silently empty result.
/// `Conv2dSpec`'s fields are public, so a literal bypasses the assertion in
/// `Conv2dSpec::new`.
#[test]
fn zero_kernel_or_stride_is_a_typed_error_on_every_backend() {
    let input = random_tensor(Shape::nchw(2, 3, 6, 6), 1);
    let weight = random_tensor(Shape::nchw(4, 3, 3, 3), 2);
    let grad_out = random_tensor(Shape::nchw(2, 4, 6, 6), 3);
    let pool_grad = random_tensor(Shape::nchw(2, 3, 6, 6), 4);
    let bad_specs = [
        Conv2dSpec {
            kernel: 3,
            stride: 0,
            padding: 1,
        },
        Conv2dSpec {
            kernel: 0,
            stride: 1,
            padding: 1,
        },
    ];
    let typed = |what: &str, result: Result<(), TensorError>| {
        assert!(
            matches!(result, Err(TensorError::InvalidArgument(_))),
            "{what}: {result:?}"
        );
    };
    for backend in KernelBackend::all() {
        let id = backend.id();
        let ws = &mut Workspace::default();
        for (kernel, stride) in [(0usize, 1usize), (3, 0)] {
            let what = format!("{id} pool kernel {kernel} stride {stride}");
            typed(
                &format!("{what} forward"),
                backend.avg_pool2d(&input, kernel, stride, 1, ws).map(drop),
            );
            typed(
                &format!("{what} backward"),
                backend
                    .avg_pool2d_backward(&pool_grad, input.shape(), kernel, stride, 1, ws)
                    .map(drop),
            );
        }
        for spec in bad_specs {
            let what = format!("{id} conv {spec:?}");
            typed(
                &format!("{what} forward"),
                backend.conv2d(&input, &weight, spec, ws).map(drop),
            );
            typed(
                &format!("{what} packed forward"),
                backend
                    .conv2d_forward_packed(&[&input, &input], &weight, spec, ws)
                    .map(drop),
            );
            typed(
                &format!("{what} backward input"),
                backend
                    .conv2d_backward_input(&weight, &grad_out, input.shape(), spec, ws)
                    .map(drop),
            );
            typed(
                &format!("{what} packed backward input"),
                backend
                    .conv2d_backward_input_packed(&weight, &[&grad_out], input.shape(), spec, ws)
                    .map(drop),
            );
            typed(
                &format!("{what} backward weight"),
                backend
                    .conv2d_backward_weight(&input, &grad_out, 4, spec, ws)
                    .map(drop),
            );
            let mut out = vec![0.0f32; 2 * 108];
            typed(
                &format!("{what} per-sample backward"),
                backend.conv2d_backward_weight_per_sample_into(
                    &input, &grad_out, 4, spec, ws, &mut out, 108, 0,
                ),
            );
            let (mut a, mut b) = (vec![0.0f32; 2 * 108], vec![0.0f32; 2 * 108]);
            let mut slots = [&mut a, &mut b].map(|out| PackedGradSlot {
                out,
                row_stride: 108,
                offset: 0,
            });
            typed(
                &format!("{what} packed per-sample backward"),
                backend.conv2d_backward_weight_per_sample_packed(
                    &[&input, &input],
                    &[&grad_out, &grad_out],
                    4,
                    spec,
                    ws,
                    &mut slots,
                ),
            );
        }
    }
}

proptest! {
    /// The decisive property: every backend agrees with the
    /// direct-loop oracle across random geometries (each at its gate).
    #[test]
    fn backends_agree_with_the_oracle_across_random_geometries(
        n in 1usize..4,
        c_in in 1usize..5,
        c_out in 1usize..5,
        h in 3usize..11,
        extra_w in 0usize..3,
        kernel in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let spec = Conv2dSpec::new(kernel, stride, padding);
        for backend in KernelBackend::all() {
            check_backend(backend, n, c_in, c_out, h, h + extra_w, spec, seed);
        }
    }
}
