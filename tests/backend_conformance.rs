//! Network-level backend conformance: random cells and batch sizes through
//! [`CellNetwork`] on both backends, plus the cross-layer contracts the
//! backend seam promises:
//!
//! * the paper-default backend is **bitwise-identical** to the pre-backend
//!   pipeline at the network and proxy level;
//! * both backends reproduce the direct oracle's per-sample gradient matrix
//!   within tolerance;
//! * the numerically divergent `direct` backend lands in its own store
//!   namespace, so a default-numerics store is refused instead of being
//!   poisoned, and its identity (namespace, backend and proxy fingerprints)
//!   is pinned.

use micronas_suite::core::MicroNasConfig;
use micronas_suite::datasets::DatasetKind;
use micronas_suite::nn::{CellNetwork, ProxyNetworkConfig};
use micronas_suite::proxies::{
    LinearRegionConfig, LinearRegionEvaluator, LinearRegionProxy, NtkConfig, NtkEvaluator,
    NtkProxy, Proxy,
};
use micronas_suite::searchspace::{Operation, SearchSpace};
use micronas_suite::store::EvalStore;
use micronas_suite::tensor::{DeterministicRng, KernelBackend, Shape, Tensor, Workspace};
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
        let oracle =
            CellNetwork::with_backend(&cell, &config, seed, KernelBackend::Direct).unwrap();
        for backend in KernelBackend::all() {
            let net = CellNetwork::with_backend(&cell, &config, seed, backend).unwrap();
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
        let oracle =
            CellNetwork::with_backend(&cell, &config, seed, KernelBackend::Direct).unwrap();
        for backend in KernelBackend::all() {
            let net = CellNetwork::with_backend(&cell, &config, seed, backend).unwrap();
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
    let explicit =
        CellNetwork::with_backend(&cell, &config, 5, KernelBackend::BlockedGemm).unwrap();
    let batch = random_batch(&config, 3, 6);
    assert_eq!(
        implicit.forward(&batch).unwrap().logits,
        explicit.forward(&batch).unwrap().logits,
        "explicit paper-default backend must be bitwise-identical"
    );

    let default_eval = NtkEvaluator::new(NtkConfig::fast());
    let pinned = NtkEvaluator::new(NtkConfig::fast()).with_backend(KernelBackend::BlockedGemm);
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
    let direct_cfg = MicroNasConfig::tiny_test().with_backend(KernelBackend::Direct);
    assert_ne!(default_cfg.store_namespace(), direct_cfg.store_namespace());

    // A store minted for the default numerics is refused under the direct
    // configuration — the namespace check fires before any record could be
    // served or appended.
    let store = Arc::new(EvalStore::in_memory(default_cfg.store_namespace()));
    let err = micronas_suite::core::SearchContext::with_store(
        DatasetKind::Cifar10,
        &direct_cfg,
        store.clone(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("namespace"), "{err}");

    // Under its own namespace the direct configuration works end-to-end.
    let direct_store = Arc::new(EvalStore::in_memory(direct_cfg.store_namespace()));
    let ctx = micronas_suite::core::SearchContext::with_store(
        DatasetKind::Cifar10,
        &direct_cfg,
        direct_store,
    )
    .unwrap();
    let space = SearchSpace::nas_bench_201();
    let eval = ctx.evaluate(space.cell(123).unwrap()).unwrap();
    assert!(eval.metrics.get("trainability").unwrap().is_finite());
}

/// Golden values of the `direct` identity: store namespaces, the backend
/// fingerprint and the proxy fingerprints it folds into. Persisted logs are
/// keyed by them, so they must never drift across refactors.
#[test]
fn direct_identity_is_pinned() {
    let direct = KernelBackend::Direct;
    let namespaces = [
        MicroNasConfig::paper_default()
            .with_backend(direct)
            .store_namespace(),
        MicroNasConfig::tiny_test()
            .with_backend(direct)
            .store_namespace(),
    ];
    assert_eq!(namespaces, [0x2014_b4cd_1523_5dc1, 0xfe24_98d8_bffe_a04d]);
    assert_eq!(direct.config_fingerprint(), 0x8c0d_cad2_495c_a7d4);
    for (backend, ntk, lr) in [
        (direct, 0x5c73_18bb_a266_4445, 0x83c4_c6e1_cb0a_6a7e),
        (
            KernelBackend::BlockedGemm,
            0x203e_6e10_8cd6_b714,
            0x844f_c30f_e10e_9fed,
        ),
    ] {
        let ntk_proxy = NtkProxy::from_evaluator(
            NtkEvaluator::new(NtkConfig::paper_default()).with_backend(backend),
        );
        let lr_proxy = LinearRegionProxy::from_evaluator(
            LinearRegionEvaluator::new(LinearRegionConfig::paper_default()).with_backend(backend),
        );
        assert_eq!(
            [
                ntk_proxy.config_fingerprint(),
                lr_proxy.config_fingerprint()
            ],
            [ntk, lr],
            "{} proxy fingerprints",
            backend.id()
        );
    }
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
    for backend in KernelBackend::all() {
        if !backend.bitwise_paper_identical() {
            continue;
        }
        let evaluator =
            ZeroCostEvaluator::with_backend(NtkConfig::fast(), LinearRegionConfig::fast(), backend);
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
    for backend in KernelBackend::all() {
        let evaluator = NtkEvaluator::new(NtkConfig::fast()).with_backend(backend);
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
