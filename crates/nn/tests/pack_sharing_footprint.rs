//! Exact work of the value-numbered pack forward on a pruning-style pack:
//! the all-conv3×3 cell plus its six one-edge `NorConv1x1` variants, two
//! stacked cells.
//!
//! Every distinct 3×3 `(cell, edge, source value)` key must be lowered once
//! for the batch, and nothing else but the stem. The expected bytes are
//! derived below from the geometry and the cell structure, not read back
//! from the code. This file holds one test, so the process-global telemetry
//! sink and pack counters see no other test's work.

use micronas_nn::{pack_kernel_stats, CellNetwork, CellNetworkPack, ProxyNetworkConfig};
use micronas_nn::{PackKernelStats, SignPatterns};
use micronas_searchspace::{CellTopology, EdgeId, Operation, NUM_EDGES};
use micronas_telemetry::{install_scoped, Collector, TelemetryReport};
use micronas_tensor::{DeterministicRng, Shape, Tensor, Workspace};
use std::sync::Arc;

fn random_batch(config: &ProxyNetworkConfig, n: usize) -> Tensor {
    let mut rng = DeterministicRng::new(17);
    let r = config.input_resolution;
    let shape = Shape::nchw(n, config.input_channels, r, r);
    let data = (0..shape.numel()).map(|_| rng.normal()).collect();
    Tensor::from_vec(shape, data).unwrap()
}

/// The sign patterns of `pack` under a fresh collector, plus the pack
/// counter deltas.
fn traced_signs(
    pack: &CellNetworkPack,
    batch: &Tensor,
) -> (Vec<SignPatterns>, TelemetryReport, PackKernelStats) {
    let collector = Arc::new(Collector::new());
    let before = pack_kernel_stats();
    let signs = {
        let _scope = install_scoped(collector.clone());
        pack.forward_signs_with(batch, &mut Workspace::default())
            .unwrap()
    };
    (
        signs,
        collector.report(),
        pack_kernel_stats().since(&before),
    )
}

#[test]
fn pack_lowers_each_distinct_conv3x3_input_once() {
    let config = ProxyNetworkConfig {
        num_cells: 2,
        ..ProxyNetworkConfig::tiny(10)
    };
    let batch_size = 2;
    let batch = random_batch(&config, batch_size);
    let representative = CellTopology::new([Operation::NorConv3x3; NUM_EDGES]);
    let mut cells = vec![representative];
    for edge in EdgeId::all() {
        cells.push(representative.with_op(edge, Operation::NorConv1x1).unwrap());
    }
    let pack = CellNetworkPack::new(&cells, &config, 3).unwrap();
    let (signs, report, kernels) = traced_signs(&pack, &batch);

    // Edges: e0 0→1, e1 0→2, e2 1→2, e3 0→3, e4 1→3, e5 2→3. Call the
    // representative R and the variant with a 1×1 on edge e `Ve`. In cell
    // 0 every member's node 0 is the stem output; then
    // * node 1: R's (shared by V1..V5) and V0's, 2 values;
    // * node 2: R's (shared by V3..V5), V0's, V1's and V2's, 4 values;
    // * node 3: all 7 differ.
    // Distinct 3×3 (edge, source) keys of cell 0, by edge: e0 {stem},
    // e1 {stem}, e2 {node 1 of R, of V0}, e3 {stem}, e4 {node 1 of R, of
    // V0}, e5 {node 2 of R, V0, V1, V2}: 1 + 1 + 2 + 1 + 2 + 4 = 11 of the
    // 36 (R's 6 plus 5 per variant). In cell 1 node 0 already differs for
    // all 7 members, so all 36 keys are distinct.
    let distinct_conv3x3 = 11 + 36;
    let naive_conv3x3 = 36 + 36;
    let r = config.input_resolution;
    let edge_col_bytes = config.channels * 9 * r * r * 4;
    let stem_col_bytes = config.input_channels * 9 * r * r * 4;
    // Pointwise convs multiply the image itself and lower nothing.
    let expected = batch_size * (stem_col_bytes + distinct_conv3x3 * edge_col_bytes);
    assert_eq!(
        report.counter("tensor.im2col.bytes"),
        expected as u64,
        "each distinct 3×3 input lowered once per image"
    );
    assert_eq!(
        report.counter("nn.pack_forward.shared_inputs"),
        (naive_conv3x3 - distinct_conv3x3) as u64,
        "conv inputs served by sharing"
    );
    // Fill counts members served, not distinct inputs: per cell and edge
    // one 3×3 bucket of 6 members and one 1×1 bucket of 1.
    assert_eq!(kernels.forward_dispatches, 2 * NUM_EDGES as u64 * 2);
    assert_eq!(kernels.forward_members, 2 * NUM_EDGES as u64 * 7);

    // Sharing is exact: every member's signs equal its solo forward's.
    let mut ws = Workspace::default();
    for (cell, got) in cells.iter().zip(&signs) {
        let solo = CellNetwork::new(cell, &config, 3)
            .unwrap()
            .forward_with(&batch, &mut ws)
            .unwrap();
        let want = SignPatterns::from_pre_activations(batch_size, &solo.pre_activations);
        assert_eq!(got, &want);
    }

    // A pack of one shares nothing and counts no packed dispatch.
    let lone = CellNetworkPack::new(&cells[..1], &config, 3).unwrap();
    let (_, report, kernels) = traced_signs(&lone, &batch);
    assert_eq!(report.counter("nn.pack_forward.shared_inputs"), 0);
    assert_eq!(kernels, PackKernelStats::default());
    assert_eq!(
        report.counter("tensor.im2col.bytes"),
        (batch_size * (stem_col_bytes + 6 * 2 * edge_col_bytes)) as u64
    );
}
