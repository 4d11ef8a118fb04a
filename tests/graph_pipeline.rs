//! Graph-pipeline conformance: the kernel-graph execution path (PR 8)
//! against the eager call tree it lowers.
//!
//! * the **interpreter** compiler replays the eager kernel schedule node by
//!   node, so its forward logits, pre-ReLU activations and per-sample
//!   gradient matrices are **bitwise identical** to the eager path — on
//!   every backend, across random cells and batch sizes;
//! * the **fusing** compiler rewrites the schedule (DCE, conv→ReLU fusion,
//!   backward-pair fusion), so it is gated against the eager oracle within
//!   tolerance instead;
//! * store identity follows the backend rules: the interpreter (bitwise)
//!   does not move `store_namespace` — the paper pin survives with the
//!   graph pipeline enabled — while the fusing compiler lands in its own
//!   namespace and a default-numerics store refuses to open under it;
//! * a full tiny paper sweep through the interpreter reproduces the pinned
//!   identity fingerprint of `tests/paper_identity.rs` at one and several
//!   rayon threads;
//! * fused dispatches and plan-cache traffic are observable through the
//!   telemetry layer.

use micronas_suite::core::experiments::{run_paper_sweep, SweepScale};
use micronas_suite::core::MicroNasConfig;
use micronas_suite::datasets::DatasetKind;
use micronas_suite::graph::CompilerKind;
use micronas_suite::nn::{CellNetwork, ProxyNetworkConfig};
use micronas_suite::searchspace::{CellTopology, Operation, SearchSpace};
use micronas_suite::store::EvalStore;
use micronas_suite::tensor::{all_backends, DeterministicRng, Shape, Tensor, Workspace};
use rayon::ThreadPoolBuilder;
use std::sync::Arc;

/// The same pin as `tests/paper_identity.rs` and
/// `tests/telemetry_inertness.rs`.
const TINY_FINGERPRINT: u64 = 0xa18a_5c02_cac6_7ecd;

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

/// A spread of cells: conv-heavy, sparse, mixed, all-none.
fn property_cells() -> Vec<CellTopology> {
    let space = SearchSpace::nas_bench_201();
    vec![
        CellTopology::new([Operation::NorConv3x3; 6]),
        space.cell(7_000).unwrap(),
        space.cell(11_111).unwrap(),
        space.cell(404).unwrap(),
        space.cell(0).unwrap(),
    ]
}

/// The interpreter must be bitwise-identical to the eager path under every
/// backend — not just the paper-default one: it replays the same kernel
/// entry points in the same order, so whatever numerics the backend
/// produces, eager and interpreted runs produce the *same* ones.
#[test]
fn interpreter_is_bitwise_identical_to_eager_on_every_gradient_backend() {
    let config = tiny_config();
    for (c_idx, cell) in property_cells().into_iter().enumerate() {
        let seed = 17 + c_idx as u64;
        for backend in all_backends() {
            let eager = CellNetwork::with_backend(&cell, &config, seed, backend.clone()).unwrap();
            let graphed = CellNetwork::with_backend(&cell, &config, seed, backend.clone())
                .unwrap()
                .with_compiler(CompilerKind::Interpreter.instantiate());
            for n in [2usize, 5] {
                let batch = random_batch(&config, n, 300 + n as u64);
                let mut ws = Workspace::default();
                let want = eager.forward_with(&batch, &mut ws).unwrap();
                let got = graphed.forward_with(&batch, &mut ws).unwrap();
                assert_eq!(
                    want.logits.data(),
                    got.logits.data(),
                    "backend {} cell {c_idx} n={n}: logits diverged",
                    backend.id()
                );
                assert_eq!(
                    want.pre_activations.len(),
                    got.pre_activations.len(),
                    "backend {} cell {c_idx} n={n}: pre-activation count",
                    backend.id()
                );
                for (i, (w, g)) in want
                    .pre_activations
                    .iter()
                    .zip(&got.pre_activations)
                    .enumerate()
                {
                    assert_eq!(
                        w.data(),
                        g.data(),
                        "backend {} cell {c_idx} n={n}: pre-activation {i}",
                        backend.id()
                    );
                }
                let want_m = eager
                    .per_sample_gradient_matrix_with(&batch, &mut ws)
                    .unwrap();
                let got_m = graphed
                    .per_sample_gradient_matrix_with(&batch, &mut ws)
                    .unwrap();
                assert_eq!(
                    want_m.values(),
                    got_m.values(),
                    "backend {} cell {c_idx} n={n}: gradient matrix diverged",
                    backend.id()
                );
            }
        }
    }
}

/// The fusing compiler rewrites schedules, so it answers to the eager
/// oracle within tolerance rather than bitwise.
#[test]
fn fused_plans_match_the_eager_oracle_within_tolerance() {
    let config = tiny_config();
    for (c_idx, cell) in property_cells().into_iter().enumerate() {
        let seed = 29 + c_idx as u64;
        let eager = CellNetwork::new(&cell, &config, seed).unwrap();
        let fused = CellNetwork::new(&cell, &config, seed)
            .unwrap()
            .with_compiler(CompilerKind::Fusing.instantiate());
        for n in [2usize, 5] {
            let batch = random_batch(&config, n, 400 + n as u64);
            let mut ws = Workspace::default();
            let want = eager.forward_with(&batch, &mut ws).unwrap();
            let got = fused.forward_with(&batch, &mut ws).unwrap();
            let err = rel_l2(got.logits.data(), want.logits.data());
            assert!(err <= 1e-4, "cell {c_idx} n={n}: fused forward error {err}");
            let want_m = eager
                .per_sample_gradient_matrix_with(&batch, &mut ws)
                .unwrap();
            let got_m = fused
                .per_sample_gradient_matrix_with(&batch, &mut ws)
                .unwrap();
            for b in 0..n {
                let err = rel_l2(got_m.row(b), want_m.row(b));
                assert!(
                    err <= 1e-4,
                    "cell {c_idx} n={n} sample {b}: fused gradient error {err}"
                );
            }
        }
    }
}

/// The interpreter shares the eager path's store identity; the fusing
/// compiler gets its own namespace and default-numerics stores refuse it.
#[test]
fn compiler_namespace_rules_mirror_the_backend_rules() {
    // The paper pin survives the graph pipeline.
    assert_eq!(
        MicroNasConfig::paper_default()
            .with_compiler(Some(CompilerKind::Interpreter))
            .store_namespace(),
        0xa01c_0bcb_e15a_bdf4,
        "the bitwise interpreter must not move the paper namespace"
    );

    let default_cfg = MicroNasConfig::tiny_test();
    let interp_cfg = MicroNasConfig::tiny_test().with_compiler(Some(CompilerKind::Interpreter));
    let fused_cfg = MicroNasConfig::tiny_test().with_compiler(Some(CompilerKind::Fusing));
    assert_eq!(default_cfg.store_namespace(), interp_cfg.store_namespace());
    assert_ne!(default_cfg.store_namespace(), fused_cfg.store_namespace());

    // A store minted under eager/interpreter numerics is refused under the
    // fusing configuration before any record could be served or appended.
    let store = Arc::new(EvalStore::in_memory(default_cfg.store_namespace()));
    let err = micronas_suite::core::SearchContext::with_store(
        DatasetKind::Cifar10,
        &fused_cfg,
        store.clone(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("namespace"), "{err}");
    // ... and the interpreter configuration opens it fine.
    micronas_suite::core::SearchContext::with_store(DatasetKind::Cifar10, &interp_cfg, store)
        .unwrap();

    // Under its own namespace the fused configuration works end-to-end.
    let fused_store = Arc::new(EvalStore::in_memory(fused_cfg.store_namespace()));
    let ctx = micronas_suite::core::SearchContext::with_store(
        DatasetKind::Cifar10,
        &fused_cfg,
        fused_store,
    )
    .unwrap();
    let space = SearchSpace::nas_bench_201();
    let eval = ctx.evaluate(space.cell(123).unwrap()).unwrap();
    assert!(eval.metrics.get("trainability").unwrap().is_finite());
}

/// A full tiny paper sweep through the interpreter reproduces the pinned
/// identity fingerprint, at one and several rayon threads — the strongest
/// end-to-end statement that the graph pipeline is a pure scheduling seam.
#[test]
fn interpreter_sweep_reproduces_the_paper_identity_fingerprint() {
    let config = MicroNasConfig::tiny_test().with_compiler(Some(CompilerKind::Interpreter));
    for threads in [1usize, 4] {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let fingerprint = pool.install(|| {
            run_paper_sweep(&config, &SweepScale::tiny(), None)
                .unwrap()
                .identity_fingerprint()
        });
        assert_eq!(
            fingerprint, TINY_FINGERPRINT,
            "graph pipeline @ {threads} threads moved the sweep identity: {fingerprint:#018x}"
        );
    }
}

/// Fused dispatches and plan-cache traffic are observable: a fused
/// evaluation under a collector reports fused kernel launches, and a
/// repeated evaluation hits the process-wide plan cache.
#[test]
fn fused_dispatches_and_plan_cache_are_visible_in_telemetry() {
    use micronas_suite::proxies::{NtkConfig, NtkEvaluator};
    let space = SearchSpace::nas_bench_201();
    let cell = space.cell(7_000).unwrap();
    let evaluator =
        NtkEvaluator::new(NtkConfig::fast()).with_compiler(CompilerKind::Fusing.instantiate());

    let collector = Arc::new(micronas_suite::telemetry::Collector::new());
    let scope = micronas_suite::telemetry::install_scoped(collector.clone());
    let a = evaluator.evaluate(cell, DatasetKind::Cifar10, 5).unwrap();
    let b = evaluator.evaluate(cell, DatasetKind::Cifar10, 5).unwrap();
    drop(scope);
    assert_eq!(a, b, "same-seed fused evaluations must agree");

    let report = collector.report();
    assert!(
        report.counter("graph.fused_dispatches") > 0,
        "fused plans ran but no fused dispatch was counted:\n{}",
        report.table()
    );
    assert!(
        report.counter("graph.plan_cache.hits") > 0,
        "the second evaluation must replay cached plans:\n{}",
        report.table()
    );
}
