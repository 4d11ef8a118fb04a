//! End-to-end NTK evaluation benchmarks.
//!
//! On the paper-default NTK configuration (batch 32, 16×16 proxy networks,
//! two cells), through `NtkEvaluator::with_backend`: the direct-loop oracle
//! against the paper-default `blocked_gemm` backend, plus the evaluation
//! cache and pack density of one fast-scale search.
//!
//! Headline numbers land in `target/bench-json/ntk_engine.json`.
//! Criterion's own `--test` flag runs every benchmark body once without
//! timing. That telemetry's disabled path stays free is proved by counting
//! hook calls (`tests/telemetry_inertness.rs`), not timed here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use micronas::{MicroNasConfig, MicroNasSearch, SearchSession};
use micronas_bench::{banner, batch_stat_fields, cache_stat_fields, record_bench_json};
use micronas_datasets::DatasetKind;
use micronas_proxies::{NtkConfig, NtkEvaluator};
use micronas_searchspace::{CellTopology, SearchSpace};
use micronas_tensor::KernelBackend;
use std::time::Instant;

/// The cell the engine benchmarks pin (a mid-space architecture with conv,
/// skip and none edges).
const BENCH_CELL: usize = 7_000;

fn timed_seconds(evaluator: &NtkEvaluator, cell: CellTopology, runs: usize) -> f64 {
    // One warm-up evaluation, then timed runs.
    evaluator
        .evaluate(cell, DatasetKind::Cifar10, 0)
        .expect("ntk");
    let start = Instant::now();
    for seed in 0..runs {
        evaluator
            .evaluate(cell, DatasetKind::Cifar10, seed as u64)
            .expect("ntk");
    }
    start.elapsed().as_secs_f64() / runs as f64
}

/// Paper-default NTK evaluation seconds under an execution backend.
fn backend_seconds(backend: KernelBackend, cell: CellTopology, runs: usize) -> f64 {
    let evaluator = NtkEvaluator::new(NtkConfig::paper_default()).with_backend(backend);
    timed_seconds(&evaluator, cell, runs)
}

/// Runs the headline comparison and records it; `runs` controls the
/// averaging window.
fn compare_and_record(runs: usize) {
    let space = SearchSpace::nas_bench_201();
    let cell = space.cell(BENCH_CELL).expect("valid index");
    let direct = backend_seconds(KernelBackend::Direct, cell, 1.max(runs / 2));
    let gemm = backend_seconds(KernelBackend::BlockedGemm, cell, runs);

    // Store-backed provenance: how much of a real search's NTK traffic the
    // evaluation caches absorb, and how densely the mega-batcher packs the
    // rest. One proxy-only pruning search at the fast scale;
    // `EvalCacheStats` counts record fetches (a hit was served without
    // running the proxies at all), `BatchStats` counts packed GEMM
    // dispatches.
    let session = SearchSession::builder()
        .dataset(DatasetKind::Cifar10)
        .config(MicroNasConfig::fast())
        .build()
        .expect("session");
    let cost = session
        .run(&MicroNasSearch::te_nas_baseline())
        .expect("search")
        .cost;
    let cache = cost.cache;
    let batch = cost.batch;

    println!("paper-default NTK evaluation (batch 32, 16x16 proxy, 2 cells):");
    println!("  direct backend:            {direct:>8.4} s / evaluation");
    println!("  blocked_gemm backend:      {gemm:>8.4} s / evaluation");
    println!("  direct->blocked speedup:   {:>8.2}x", direct / gemm);
    println!(
        "  search eval-cache:         {} hits / {} misses ({:.1}% absorbed)",
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0
    );
    println!(
        "  search pack density:       {} candidates over {} dispatches ({:.1} per dispatch)",
        batch.computed_candidates,
        batch.dispatches,
        batch.candidates_per_dispatch()
    );

    let mut fields: Vec<(String, f64)> = vec![
        ("direct_engine_seconds".to_string(), direct),
        ("batched_gradients_seconds".to_string(), gemm),
        ("speedup_vs_direct".to_string(), direct / gemm),
    ];
    fields.extend(cache_stat_fields("search_cache", &cache));
    fields.extend(batch_stat_fields("search_batch", &batch));
    record_bench_json("ntk_engine", &fields);
}

fn bench_ntk_engines(c: &mut Criterion) {
    if !c.is_test_mode() {
        banner(
            "NTK end-to-end: direct vs blocked_gemm backend",
            "proxy-evaluation engine + batched per-sample gradients",
        );
        compare_and_record(6);
    }

    let space = SearchSpace::nas_bench_201();
    let cell = space.cell(BENCH_CELL).expect("valid index");
    let mut group = c.benchmark_group("ntk_engine");
    group.sample_size(10);
    for backend in KernelBackend::all() {
        let evaluator = NtkEvaluator::new(NtkConfig::paper_default()).with_backend(backend);
        group.bench_function(BenchmarkId::from_parameter(backend.id()), |b| {
            b.iter(|| {
                evaluator
                    .evaluate(cell, DatasetKind::Cifar10, 1)
                    .expect("ntk")
                    .condition_number
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ntk_engines);
criterion_main!(benches);
