//! End-to-end NTK evaluation benchmarks.
//!
//! Two comparisons, both on the paper-default NTK configuration (batch 32,
//! 16×16 proxy networks, two cells), each through
//! `NtkEvaluator::with_backend`:
//!
//! 1. **direct vs blocked-GEMM execution backend** — the kernel acceptance:
//!    the naive-loop oracle against the paper-default backend;
//! 2. **blocked-GEMM vs SIMD execution backend** — the backend-layer
//!    acceptance: the FMA-tiled `simd` backend against the paper-default
//!    `blocked_gemm` backend. Measured on two cells: the pinned
//!    [`BENCH_CELL`] (one 1×1 conv per cell — an honest "sparse" data
//!    point where shared non-kernel work dominates) and the all-conv3×3
//!    cell, the kernel-dominated end of the space where a *kernel* backend
//!    comparison is meaningful. The regression gate rides on the conv cell.
//!
//! Headline numbers land in `target/bench-json/ntk_engine.json`.
//!
//! # Smoke mode
//!
//! `MICRONAS_BENCH_SMOKE=1` runs a reduced-iteration version of the
//! blocked-vs-SIMD comparison and **fails** (panics) if the SIMD backend
//! regresses below the blocked-GEMM backend on the conv-heavy cell — the
//! CI guard against a silent fallback onto a slow route. That telemetry's
//! disabled path stays free is proved by counting hook calls
//! (`tests/telemetry_inertness.rs`), not timed here. Criterion's own
//! `--test` flag still runs every benchmark body once without timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use micronas::{MicroNasConfig, MicroNasSearch, SearchSession};
use micronas_bench::{banner, batch_stat_fields, cache_stat_fields, record_bench_json};
use micronas_datasets::DatasetKind;
use micronas_proxies::{NtkConfig, NtkEvaluator};
use micronas_searchspace::{CellTopology, Operation, SearchSpace};
use micronas_tensor::KernelBackendKind;
use std::time::Instant;

/// The cell the engine benchmarks pin (a mid-space architecture with conv,
/// skip and none edges).
const BENCH_CELL: usize = 7_000;

/// The kernel-dominated cell of the backend comparison: every edge a 3×3
/// convolution, so the execution backend's conv/GEMM kernels are the
/// workload instead of a minority of it.
fn conv_heavy_cell() -> CellTopology {
    CellTopology::new([Operation::NorConv3x3; 6])
}

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

/// Paper-default NTK evaluation seconds under an execution backend,
/// best-of-`rounds` to shed co-tenant noise.
fn backend_seconds(kind: KernelBackendKind, cell: CellTopology, runs: usize, rounds: usize) -> f64 {
    let evaluator = NtkEvaluator::new(NtkConfig::paper_default()).with_backend(kind.instantiate());
    (0..rounds)
        .map(|_| timed_seconds(&evaluator, cell, runs))
        .fold(f64::INFINITY, f64::min)
}

/// Whether `MICRONAS_BENCH_SMOKE=1` smoke mode is active.
fn smoke_mode() -> bool {
    std::env::var("MICRONAS_BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Runs both headline comparisons and records them; `runs` controls the
/// averaging window.
fn compare_and_record(runs: usize) {
    let space = SearchSpace::nas_bench_201();
    let sparse_cell = space.cell(BENCH_CELL).expect("valid index");
    let direct = backend_seconds(KernelBackendKind::Direct, sparse_cell, 1.max(runs / 2), 1);
    let gemm = backend_seconds(KernelBackendKind::BlockedGemm, sparse_cell, runs, 1);

    // Backend comparison: interleaved best-of-3 rounds per side.
    let conv_cell = conv_heavy_cell();
    let blocked_conv = backend_seconds(KernelBackendKind::BlockedGemm, conv_cell, runs.min(3), 3);
    let simd_conv = backend_seconds(KernelBackendKind::Simd, conv_cell, runs.min(3), 3);
    let blocked_sparse = backend_seconds(KernelBackendKind::BlockedGemm, sparse_cell, runs, 3);
    let simd_sparse = backend_seconds(KernelBackendKind::Simd, sparse_cell, runs, 3);

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
    println!("execution backends (blocked_gemm vs simd, best of 3):");
    println!(
        "  all-conv3x3 cell:          {blocked_conv:>8.4} s -> {simd_conv:>8.4} s  ({:.2}x)",
        blocked_conv / simd_conv
    );
    println!(
        "  sparse bench cell:         {blocked_sparse:>8.4} s -> {simd_sparse:>8.4} s  ({:.2}x)",
        blocked_sparse / simd_sparse
    );
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
        (
            "blocked_backend_seconds_conv_cell".to_string(),
            blocked_conv,
        ),
        ("simd_backend_seconds_conv_cell".to_string(), simd_conv),
        (
            "speedup_simd_vs_blocked".to_string(),
            blocked_conv / simd_conv,
        ),
        (
            "blocked_backend_seconds_bench_cell".to_string(),
            blocked_sparse,
        ),
        ("simd_backend_seconds_bench_cell".to_string(), simd_sparse),
        (
            "speedup_simd_vs_blocked_bench_cell".to_string(),
            blocked_sparse / simd_sparse,
        ),
    ];
    fields.extend(cache_stat_fields("search_cache", &cache));
    fields.extend(batch_stat_fields("search_batch", &batch));
    record_bench_json("ntk_engine", &fields);
}

fn bench_ntk_engines(c: &mut Criterion) {
    if smoke_mode() {
        // Backend gate: the SIMD backend must not regress below the
        // blocked-GEMM backend on the kernel-dominated cell. Same
        // noise-robustness scheme: interleaved best-of-3, a warning at
        // parity, a hard failure only past 1.25× (a real regression, not a
        // co-tenant burst).
        banner(
            "Backend smoke: simd must not regress below blocked_gemm",
            "FMA-tiled SIMD backend regression gate (all-conv3x3 cell)",
        );
        let conv_cell = conv_heavy_cell();
        let (mut blocked_s, mut simd_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            blocked_s = blocked_s.min(backend_seconds(
                KernelBackendKind::BlockedGemm,
                conv_cell,
                2,
                1,
            ));
            simd_s = simd_s.min(backend_seconds(KernelBackendKind::Simd, conv_cell, 2, 1));
        }
        println!("gate: blocked {blocked_s:.4}s vs simd {simd_s:.4}s (best of 3)");
        record_bench_json(
            "ntk_engine_backend_smoke",
            &[
                ("blocked_backend_seconds", blocked_s),
                ("simd_backend_seconds", simd_s),
                ("speedup_simd_vs_blocked", blocked_s / simd_s),
            ],
        );
        if simd_s > blocked_s {
            eprintln!(
                "warning: simd backend ({simd_s:.4}s) is not beating the \
                 blocked_gemm backend ({blocked_s:.4}s) on this runner"
            );
        }
        assert!(
            simd_s <= blocked_s * 1.25,
            "the simd backend ({simd_s:.4}s) regressed below the blocked_gemm \
             backend ({blocked_s:.4}s) on the conv-heavy cell"
        );
        return;
    }

    if !c.is_test_mode() {
        banner(
            "NTK end-to-end: conv engines and backends",
            "proxy-evaluation engine + batched per-sample gradients",
        );
        compare_and_record(6);
    }

    let space = SearchSpace::nas_bench_201();
    let cell = space.cell(BENCH_CELL).expect("valid index");
    let mut group = c.benchmark_group("ntk_engine");
    group.sample_size(10);
    for kind in [KernelBackendKind::Direct, KernelBackendKind::BlockedGemm] {
        let evaluator =
            NtkEvaluator::new(NtkConfig::paper_default()).with_backend(kind.instantiate());
        group.bench_function(BenchmarkId::from_parameter(kind.id()), |b| {
            b.iter(|| {
                evaluator
                    .evaluate(cell, DatasetKind::Cifar10, 1)
                    .expect("ntk")
                    .condition_number
            });
        });
    }
    for kind in [KernelBackendKind::BlockedGemm, KernelBackendKind::Simd] {
        let evaluator =
            NtkEvaluator::new(NtkConfig::paper_default()).with_backend(kind.instantiate());
        let conv_cell = conv_heavy_cell();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}_backend_conv_cell", kind.id())),
            &kind,
            |b, _| {
                b.iter(|| {
                    evaluator
                        .evaluate(conv_cell, DatasetKind::Cifar10, 1)
                        .expect("ntk")
                        .condition_number
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ntk_engines);
criterion_main!(benches);
