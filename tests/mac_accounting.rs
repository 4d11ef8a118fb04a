//! The kernel's work counter and the MCU cycle model describe the same
//! computation: for the paper conv3×3 (8→8 channels, 16×16), the MACs the
//! `blocked_gemm` conv multiplies, `C_out · tensor.im2col.bytes / 4`, equal
//! `CycleModel::macs`. This is the relation perfbench uses to derive
//! `tensor.flops` from the column bytes.
//!
//! This file holds one test, so the process-global telemetry sink sees no
//! other test's work.

use micronas_suite::mcu::{CycleModel, McuSpec};
use micronas_suite::searchspace::{LayerRole, OpClass, OpInstance, Operation};
use micronas_suite::telemetry::{install_scoped, Collector};
use micronas_suite::tensor::{
    Conv2dSpec, DeterministicRng, KernelBackend, Shape, Tensor, Workspace,
};
use std::sync::Arc;

#[test]
fn blocked_gemm_column_bytes_match_the_mcu_cycle_model_macs() {
    let (c, r, k) = (8usize, 16usize, 3usize);
    let mut rng = DeterministicRng::new(9);
    let input = Tensor::from_vec(
        Shape::nchw(1, c, r, r),
        (0..c * r * r).map(|_| rng.normal()).collect(),
    )
    .unwrap();
    let weight = Tensor::from_vec(
        Shape::nchw(c, c, k, k),
        (0..c * c * k * k).map(|_| rng.normal()).collect(),
    )
    .unwrap();
    let collector = Arc::new(Collector::new());
    {
        let _scope = install_scoped(collector.clone());
        KernelBackend::BlockedGemm
            .conv2d(
                &input,
                &weight,
                Conv2dSpec::new(k, 1, 1),
                &mut Workspace::default(),
            )
            .unwrap();
    }
    let column_bytes = collector.report().counter("tensor.im2col.bytes");
    assert!(column_bytes > 0, "the paper conv3×3 takes the GEMM path");

    let model = CycleModel::new(McuSpec::stm32f746zg());
    let op = OpInstance {
        role: LayerRole::Cell {
            stage: 0,
            cell: 0,
            edge: 0,
        },
        class: OpClass::Conv,
        cell_op: Some(Operation::NorConv3x3),
        kernel: k,
        stride: 1,
        c_in: c,
        c_out: c,
        h_in: r,
        w_in: r,
    };
    assert_eq!(
        c as u64 * column_bytes / std::mem::size_of::<f32>() as u64,
        model.macs(&op),
        "the conv kernel and the cycle model must count the same MACs"
    );
}
