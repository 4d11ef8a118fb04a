//! Network-level backend conformance: random cells and batch sizes through
//! [`CellNetwork`] on every registered backend, plus the cross-layer
//! contracts the backend seam promises:
//!
//! * the paper-default backend is **bitwise-identical** to the pre-backend
//!   pipeline at the network and proxy level;
//! * every backend reproduces the direct oracle's per-sample gradient
//!   matrix within its tolerance;
//! * numerically divergent backends land in their own store namespace, so a
//!   default-numerics store is refused instead of being poisoned;
//! * the SIMD backend's batch chunking is bitwise-deterministic at any
//!   thread count.

use micronas_suite::core::MicroNasConfig;
use micronas_suite::datasets::DatasetKind;
use micronas_suite::nn::{CellNetwork, ProxyNetworkConfig};
use micronas_suite::proxies::{LinearRegionConfig, NtkConfig, NtkEvaluator};
use micronas_suite::searchspace::{Operation, SearchSpace};
use micronas_suite::store::EvalStore;
use micronas_suite::tensor::{
    all_backends, paper_default_backend, DeterministicRng, KernelBackendKind, Shape, Tensor,
    Workspace,
};
use std::sync::Arc;

fn random_batch(config: &ProxyNetworkConfig, n: usize, seed: u64) -> Tensor {
    let mut rng = DeterministicRng::new(seed);
    let shape = Shape::nchw(
        n,
        config.input_channels,
        config.input_resolution,
        config.input_resolution,
    );
    let data = (0..shape.numel()).map(|_| rng.normal()).collect();
    Tensor::from_vec(shape, data).unwrap()
}

fn tiny_config() -> ProxyNetworkConfig {
    let mut config = ProxyNetworkConfig::small(10);
    config.input_resolution = 8;
    config.channels = 4;
    config
}

fn rel_l2(got: &[f32], want: &[f32]) -> f32 {
    let err: f32 = got
        .iter()
        .zip(want)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f32>()
        .sqrt();
    let norm: f32 = want.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm == 0.0 {
        err
    } else {
        err / norm
    }
}

/// A spread of cells: conv-heavy, pool/skip-mixed, sparse, all-none.
fn conformance_cells() -> Vec<micronas_suite::searchspace::CellTopology> {
    let space = SearchSpace::nas_bench_201();
    vec![
        micronas_suite::searchspace::CellTopology::new([Operation::NorConv3x3; 6]),
        space.cell(7_000).unwrap(),
        space.cell(11_111).unwrap(),
        space.cell(404).unwrap(),
        space.cell(0).unwrap(),
    ]
}

#[test]
fn every_backend_reproduces_the_oracle_network_forward() {
    let config = tiny_config();
    for (c_idx, cell) in conformance_cells().into_iter().enumerate() {
        let seed = 11 + c_idx as u64;
        let oracle = CellNetwork::with_backend(
            &cell,
            &config,
            seed,
            KernelBackendKind::Direct.instantiate(),
        )
        .unwrap();
        for backend in all_backends() {
            let net = CellNetwork::with_backend(&cell, &config, seed, backend.clone()).unwrap();
            for n in [1usize, 2, 5] {
                let batch = random_batch(&config, n, 100 + n as u64);
                let got = net.forward(&batch).unwrap().logits;
                let want = oracle.forward(&batch).unwrap().logits;
                let err = rel_l2(got.data(), want.data());
                assert!(
                    err <= 1e-3,
                    "backend {} cell {c_idx} n={n}: forward error {err}",
                    backend.id()
                );
            }
        }
    }
}

#[test]
fn gradient_backends_reproduce_the_oracle_gradient_matrix() {
    let config = tiny_config();
    for (c_idx, cell) in conformance_cells().into_iter().enumerate() {
        let seed = 31 + c_idx as u64;
        let oracle = CellNetwork::with_backend(
            &cell,
            &config,
            seed,
            KernelBackendKind::Direct.instantiate(),
        )
        .unwrap();
        for backend in all_backends() {
            let net = CellNetwork::with_backend(&cell, &config, seed, backend.clone()).unwrap();
            for n in [1usize, 3, 7] {
                let batch = random_batch(&config, n, 200 + n as u64);
                let mut ws = Workspace::default();
                let got = net
                    .per_sample_gradient_matrix_with(&batch, &mut ws)
                    .unwrap();
                let want = oracle
                    .per_sample_gradient_matrix_with(&batch, &mut ws)
                    .unwrap();
                for b in 0..n {
                    let err = rel_l2(got.row(b), want.row(b));
                    assert!(
                        err <= 1e-3,
                        "backend {} cell {c_idx} n={n} sample {b}: gradient error {err}",
                        backend.id()
                    );
                }
            }
        }
    }
}

#[test]
fn paper_default_backend_is_bitwise_identical_at_network_and_proxy_level() {
    let space = SearchSpace::nas_bench_201();
    let cell = space.cell(8_888).unwrap();
    let config = tiny_config();
    let implicit = CellNetwork::new(&cell, &config, 5).unwrap();
    let explicit = CellNetwork::with_backend(&cell, &config, 5, paper_default_backend()).unwrap();
    let batch = random_batch(&config, 3, 6);
    assert_eq!(
        implicit.forward(&batch).unwrap().logits,
        explicit.forward(&batch).unwrap().logits,
        "explicit paper-default backend must be bitwise-identical"
    );

    let default_eval = NtkEvaluator::new(NtkConfig::fast());
    let pinned = NtkEvaluator::new(NtkConfig::fast())
        .with_backend(KernelBackendKind::BlockedGemm.instantiate());
    let a = default_eval
        .evaluate(cell, DatasetKind::Cifar10, 2)
        .unwrap();
    let b = pinned.evaluate(cell, DatasetKind::Cifar10, 2).unwrap();
    assert_eq!(
        a, b,
        "NTK under the explicit default backend is bitwise-identical"
    );
}

#[test]
fn divergent_backends_get_their_own_store_namespace() {
    let default_cfg = MicroNasConfig::tiny_test();
    let simd_cfg = MicroNasConfig::tiny_test().with_backend(KernelBackendKind::Simd);
    assert_ne!(default_cfg.store_namespace(), simd_cfg.store_namespace());

    // A store minted for the default numerics is refused under the SIMD
    // configuration — the namespace check fires before any record could be
    // served or appended.
    let store = Arc::new(EvalStore::in_memory(default_cfg.store_namespace()));
    let err = micronas_suite::core::SearchContext::with_store(
        DatasetKind::Cifar10,
        &simd_cfg,
        store.clone(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("namespace"), "{err}");

    // Under its own namespace the SIMD configuration works end-to-end.
    let simd_store = Arc::new(EvalStore::in_memory(simd_cfg.store_namespace()));
    let ctx = micronas_suite::core::SearchContext::with_store(
        DatasetKind::Cifar10,
        &simd_cfg,
        simd_store,
    )
    .unwrap();
    let space = SearchSpace::nas_bench_201();
    let eval = ctx.evaluate(space.cell(123).unwrap()).unwrap();
    assert!(eval.metrics.get("trainability").unwrap().is_finite());
}

/// Cross-candidate mega-batching at the proxy level: for every
/// bitwise-paper-identical backend, packed evaluation of the conformance
/// cell set is bitwise identical to one-at-a-time evaluation, at pack
/// widths 1/2/8 and on a 1-thread and an N-thread rayon pool alike.
#[test]
fn packed_proxy_evaluation_is_bitwise_identical_on_every_bitwise_backend() {
    use micronas_suite::proxies::ZeroCostEvaluator;
    use rayon::ThreadPoolBuilder;
    let cells = conformance_cells();
    for backend in all_backends() {
        if !backend.bitwise_paper_identical() {
            continue;
        }
        let evaluator = ZeroCostEvaluator::with_backend(
            NtkConfig::fast(),
            LinearRegionConfig::fast(),
            backend.clone(),
        );
        let solo: Vec<_> = cells
            .iter()
            .map(|&cell| evaluator.evaluate(cell, DatasetKind::Cifar10, 7).unwrap())
            .collect();
        for width in [1usize, 2, 8] {
            for threads in [1usize, 4] {
                let pool = ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let packed: Vec<_> = pool.install(|| {
                    cells
                        .chunks(width)
                        .flat_map(|pack| {
                            evaluator
                                .evaluate_pack(pack, DatasetKind::Cifar10, 7)
                                .unwrap()
                        })
                        .collect()
                });
                assert_eq!(
                    solo,
                    packed,
                    "backend {} width {width} threads {threads}",
                    backend.id()
                );
            }
        }
    }
}

/// The packed per-sample gradient sweep is bitwise-invisible on **every**
/// backend — including numerically divergent ones, where
/// the contract is identity to that backend's own solo sweep, not to the
/// paper numerics. NTK reports of packs of width 1/2/8 must equal per-cell
/// solo evaluation, on a 1-thread and an N-thread rayon pool alike.
#[test]
fn packed_backward_sweep_is_bitwise_identical_on_every_gradient_backend() {
    use rayon::ThreadPoolBuilder;
    let cells = conformance_cells();
    for backend in all_backends() {
        let evaluator = NtkEvaluator::new(NtkConfig::fast()).with_backend(backend.clone());
        for width in [1usize, 2, 8] {
            for threads in [1usize, 4] {
                let pool = ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let (got, want) = pool.install(|| {
                    let mut ws = Workspace::default();
                    let got: Vec<_> = cells
                        .chunks(width)
                        .flat_map(|pack| {
                            evaluator
                                .evaluate_pack_in(pack, DatasetKind::Cifar10, 7, &mut ws)
                                .unwrap()
                        })
                        .collect();
                    let want: Vec<_> = cells
                        .iter()
                        .map(|&cell| {
                            evaluator
                                .evaluate_in(cell, DatasetKind::Cifar10, 7, &mut ws)
                                .unwrap()
                        })
                        .collect();
                    (got, want)
                });
                assert_eq!(
                    got,
                    want,
                    "backend {} width {width} threads {threads}: packed backward \
                     diverged from solo evaluation",
                    backend.id()
                );
            }
        }
    }
}

#[test]
fn simd_backend_is_bitwise_deterministic_across_thread_counts() {
    use rayon::ThreadPoolBuilder;
    let config = tiny_config();
    let space = SearchSpace::nas_bench_201();
    let cell = space.cell(11_111).unwrap();
    let net = CellNetwork::with_backend(&cell, &config, 3, KernelBackendKind::Simd.instantiate())
        .unwrap();
    let batch = random_batch(&config, 9, 4);
    let run = |threads: usize| {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                let mut ws = Workspace::default();
                let logits = net.forward_with(&batch, &mut ws).unwrap().logits;
                let grads = net
                    .per_sample_gradient_matrix_with(&batch, &mut ws)
                    .unwrap();
                (logits, grads.values().to_vec())
            })
    };
    let (logits_1, grads_1) = run(1);
    for threads in [2, 4, 7] {
        let (logits_n, grads_n) = run(threads);
        assert_eq!(logits_1, logits_n, "forward at {threads} threads");
        assert_eq!(grads_1, grads_n, "gradients at {threads} threads");
    }
}
