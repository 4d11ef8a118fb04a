//! Exact work of the pack per-sample gradient sweep on members whose edges
//! are only 1×1 convs, skips, pools and `None`: the stem's 3×3 conv is then
//! the only lowering in the whole sweep (a pointwise conv multiplies the
//! image itself).
//!
//! The forward lowers the probe batch once for the shared stem, and the
//! backward lowers it once more for every member's per-sample stem weight
//! gradient, so a traced sweep lowers exactly two stem panels at any pack
//! width. A pack of one is solo evaluation and counts no packed dispatch.
//! This file holds one test, so the process-global telemetry sink and pack
//! counters see no other test's work.

use micronas_nn::{pack_kernel_stats, CellNetworkPack, PackKernelStats, ProxyNetworkConfig};
use micronas_searchspace::{CellTopology, Operation, SearchSpace};
use micronas_telemetry::{install_scoped, Collector, TelemetryReport};
use micronas_tensor::{DeterministicRng, Shape, Tensor, Workspace};
use std::sync::Arc;

fn random_batch(config: &ProxyNetworkConfig, n: usize) -> Tensor {
    let mut rng = DeterministicRng::new(23);
    let r = config.input_resolution;
    let shape = Shape::nchw(n, config.input_channels, r, r);
    let data = (0..shape.numel()).map(|_| rng.normal()).collect();
    Tensor::from_vec(shape, data).unwrap()
}

/// Runs the gradient sweep of `pack` under a fresh collector and returns
/// its report plus the pack counter deltas.
fn traced_sweep(pack: &CellNetworkPack, batch: &Tensor) -> (TelemetryReport, PackKernelStats) {
    let collector = Arc::new(Collector::new());
    let before = pack_kernel_stats();
    {
        let _scope = install_scoped(collector.clone());
        let matrices = pack
            .per_sample_gradient_matrices_with(batch, &mut Workspace::default())
            .unwrap();
        assert_eq!(matrices.len(), pack.len());
    }
    (collector.report(), pack_kernel_stats().since(&before))
}

#[test]
fn pack_gradient_sweep_lowers_the_stem_twice_at_every_width() {
    let config = ProxyNetworkConfig {
        num_cells: 2,
        ..ProxyNetworkConfig::tiny(10)
    };
    let batch_size = 3;
    let batch = random_batch(&config, batch_size);
    // Eight distinct cells without a 3×3 conv, each with at least one 1×1
    // conv, spread over the space.
    let space = SearchSpace::nas_bench_201();
    let cells: Vec<CellTopology> = (0..space.len())
        .step_by(97)
        .map(|i| space.cell(i).unwrap())
        .filter(|cell| {
            !cell.edge_ops().contains(&Operation::NorConv3x3)
                && cell.edge_ops().contains(&Operation::NorConv1x1)
        })
        .take(8)
        .collect();
    assert_eq!(cells.len(), 8);

    let r = config.input_resolution;
    let stem_col_bytes = config.input_channels * 9 * r * r * 4;
    for width in [1usize, 2, 8] {
        let pack = CellNetworkPack::new(&cells[..width], &config, 5).unwrap();
        let (report, kernels) = traced_sweep(&pack, &batch);
        assert_eq!(
            report.counter("tensor.im2col.bytes"),
            (2 * batch_size * stem_col_bytes) as u64,
            "width {width}: one forward and one backward stem lowering"
        );
        if width == 1 {
            assert_eq!(
                kernels,
                PackKernelStats::default(),
                "a pack of one counts no packed dispatch"
            );
        } else {
            // The stem's full-width packed backward is one of them.
            assert!(kernels.backward_dispatches >= 1);
            assert!(kernels.backward_members >= width as u64);
        }
    }
}
