//! Work and footprint gate for the packed conv forward, on the paper's
//! largest bucket: 8 members of a 32-sample NTK batch, 8 channels, 16×16,
//! conv3×3.
//!
//! The kernel must count one logical GEMM dispatch (for a bucket of one
//! input too) and exactly one image's column matrix per image, read in
//! place from a zero-padded copy of the image, never lowered; its staging
//! must stay at one image's column matrix however large the bucket (a
//! whole-bucket panel is 18 MiB here). A stride-2 conv still lowers each
//! image with im2col.
//! This file holds one test, so the process-global telemetry sink sees no
//! other test's work.

use micronas_telemetry::{install_scoped, Collector};
use micronas_tensor::{Conv2dSpec, DeterministicRng, KernelBackend, Shape, Tensor, Workspace};
use std::sync::Arc;

fn random_tensor(shape: Shape, seed: u64) -> Tensor {
    let mut rng = DeterministicRng::new(seed);
    let data = (0..shape.numel()).map(|_| rng.normal()).collect();
    Tensor::from_vec(shape, data).unwrap()
}

#[test]
fn packed_forward_stages_one_image_of_the_paper_ntk_bucket() {
    let (pack, n, c, hw, k) = (8usize, 32usize, 8usize, 16usize, 3usize);
    let spec = Conv2dSpec::new(k, 1, 1);
    let weight = random_tensor(Shape::nchw(c, c, k, k), 1);
    let inputs: Vec<Tensor> = (0..pack)
        .map(|p| random_tensor(Shape::nchw(n, c, hw, hw), 10 + p as u64))
        .collect();
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let backend = KernelBackend::BlockedGemm;

    let collector = Arc::new(Collector::new());
    let mut ws = Workspace::new();
    let outs = {
        let _scope = install_scoped(collector.clone());
        backend
            .conv2d_forward_packed(&refs, &weight, spec, &mut ws)
            .expect("packed conv")
    };
    let report = collector.report();
    assert_eq!(
        report.counter("tensor.gemm.calls"),
        1,
        "one logical dispatch"
    );
    let ohow = hw * hw;
    let image_col_bytes = c * k * k * ohow * 4;
    assert_eq!(
        report.counter("tensor.im2col.bytes"),
        (pack * n * image_col_bytes) as u64,
        "each image's column matrix multiplied exactly once"
    );
    assert_eq!(
        report.counter("tensor.im2col.lowered_bytes"),
        0,
        "the paper bucket multiplies padded images in place"
    );

    // The outputs belong to the caller and the pool is empty, so the
    // workspace capacity is the staging alone.
    assert!(
        ws.capacity_bytes() <= image_col_bytes,
        "staging {} B exceeds one image's column matrix ({} B)",
        ws.capacity_bytes(),
        image_col_bytes
    );

    for (input, got) in inputs.iter().zip(&outs) {
        let want = backend
            .conv2d(input, &weight, spec, &mut Workspace::new())
            .unwrap();
        assert_eq!(got, &want, "packed forward must be bitwise solo");
    }

    // A bucket of one input is still one logical dispatch, not one per
    // image.
    let lone = Arc::new(Collector::new());
    let out = {
        let _scope = install_scoped(lone.clone());
        backend
            .conv2d_forward_packed(&refs[..1], &weight, spec, &mut ws)
            .expect("packed conv")
    };
    assert_eq!(lone.report().counter("tensor.gemm.calls"), 1);
    assert_eq!(
        lone.report().counter("tensor.im2col.bytes"),
        (n * image_col_bytes) as u64
    );
    assert_eq!(
        out[0], outs[0],
        "a bucket of one is bitwise the full bucket's member"
    );

    // A strided conv takes no implicit operand: each image is lowered.
    let down = Conv2dSpec::new(k, 2, 1);
    let strided = Arc::new(Collector::new());
    {
        let _scope = install_scoped(strided.clone());
        backend
            .conv2d_forward_packed(&refs[..2], &weight, down, &mut ws)
            .expect("packed conv");
    }
    let (oh, ow) = down.output_hw(hw, hw);
    let lowered = (2 * n * c * k * k * oh * ow * 4) as u64;
    assert_eq!(strided.report().counter("tensor.im2col.bytes"), lowered);
    assert_eq!(
        strided.report().counter("tensor.im2col.lowered_bytes"),
        lowered
    );
}
