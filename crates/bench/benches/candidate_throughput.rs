//! Candidate-scoring throughput: candidates evaluated per second, single
//! thread vs the full rayon pool, and cross-candidate mega-batching vs
//! one-at-a-time evaluation.
//!
//! The zero-cost proxy pipeline is the hot path of every search; this bench
//! scores a fixed candidate set through the search stack and reports the
//! aggregate throughput at both ends of the thread-count range (the
//! histories are bitwise identical — the determinism tests in
//! `micronas::search` enforce that). It also measures the packed evaluator
//! head-to-head: one `ZeroCostEvaluator::evaluate_pack` sweep of eight
//! same-geometry candidates against eight solo `evaluate` calls, interleaved
//! best-of-3, on the pinned sparse bench cell and the all-conv3×3 cell. The
//! search's `EvalCacheStats` and pack-density `BatchStats` ride along in
//! `target/bench-json/candidate_throughput.json`, so a cache- or
//! pack-behaviour regression shows up next to the timing numbers.
//!
//! # Smoke mode
//!
//! `MICRONAS_BENCH_SMOKE=1` runs a reduced-iteration packed-vs-unpacked
//! comparison on the conv-heavy cell and **fails** (panics) if the packed
//! path regresses below one-at-a-time evaluation — the CI guards against the
//! pack path silently degenerating into a loop of solo evaluations plus
//! overhead. Beside the timer it counts work exactly: under a telemetry
//! `Collector`, one packed round must make strictly fewer GEMM dispatches
//! (`tensor.gemm.calls`) and multiply strictly fewer column bytes
//! (`tensor.im2col.bytes`) than one solo round. Criterion's own `--test`
//! flag still runs every benchmark body once without timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use micronas::{
    BatchStats, EvalCacheStats, MicroNasConfig, ObjectiveWeights, RandomSearch, SearchContext,
};
use micronas_bench::{
    banner, batch_stat_fields, bench_config, cache_stat_fields, record_bench_json,
};
use micronas_datasets::DatasetKind;
use micronas_proxies::ZeroCostEvaluator;
use micronas_searchspace::{CellTopology, Operation, SearchSpace};
use micronas_telemetry::Collector;
use rayon::ThreadPoolBuilder;
use std::sync::Arc;
use std::time::Instant;

const BUDGET: usize = 16;

/// Candidates per packed sweep in the head-to-head comparison (the context
/// default width).
const PACK: usize = 8;

/// The sparse bench cell the engine benches pin (one 1×1 conv per cell —
/// shared non-kernel work dominates).
const BENCH_CELL: usize = 7_000;

fn conv_heavy_cell() -> CellTopology {
    CellTopology::new([Operation::NorConv3x3; 6])
}

fn run_search(config: &MicroNasConfig, threads: usize) -> (f64, EvalCacheStats, BatchStats) {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    pool.install(|| {
        // Fresh context per run so the evaluation cache cannot carry over.
        let ctx = SearchContext::new(DatasetKind::Cifar10, config).expect("context");
        let search = RandomSearch::new(ObjectiveWeights::accuracy_only(), BUDGET).expect("search");
        let start = Instant::now();
        let outcome = search.run(&ctx).expect("search run");
        (
            BUDGET as f64 / start.elapsed().as_secs_f64(),
            outcome.cost.cache,
            outcome.cost.batch,
        )
    })
}

/// Seconds for `PACK` candidates, one-at-a-time vs one packed sweep,
/// interleaved best-of-`rounds` to shed co-tenant noise. Both sides evaluate
/// the same cell `PACK` times, so the ratio bundles every packed-path
/// advantage: shared probe batches, one stem forward per pack,
/// geometry-bucketed GEMM dispatches, and the gradient sweep's dedup of
/// identical members (same topology + same seed means bitwise-equal
/// weights, so duplicates' matrices are copies of one representative's
/// sweep).
fn packed_vs_unpacked(config: &MicroNasConfig, cell: CellTopology, rounds: usize) -> (f64, f64) {
    let zero_cost = ZeroCostEvaluator::with_backend(
        config.ntk,
        config.linear_regions,
        config.backend.instantiate(),
    );
    let cells = [cell; PACK];
    // One warm-up per side (arena growth, lazy tables).
    zero_cost
        .evaluate(cell, DatasetKind::Cifar10, 0)
        .expect("solo warm-up");
    zero_cost
        .evaluate_pack(&cells, DatasetKind::Cifar10, 0)
        .expect("packed warm-up");
    let (mut solo, mut packed) = (f64::INFINITY, f64::INFINITY);
    for round in 0..rounds {
        let seed = round as u64;
        let start = Instant::now();
        for _ in 0..PACK {
            zero_cost
                .evaluate(cell, DatasetKind::Cifar10, seed)
                .expect("solo");
        }
        solo = solo.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        zero_cost
            .evaluate_pack(&cells, DatasetKind::Cifar10, seed)
            .expect("packed");
        packed = packed.min(start.elapsed().as_secs_f64());
    }
    (solo, packed)
}

/// `(tensor.gemm.calls, tensor.im2col.bytes)` of one solo round of `PACK`
/// evaluations and of one packed sweep over the same cells, each counted
/// under its own `Collector`.
fn packed_vs_unpacked_work(config: &MicroNasConfig, cell: CellTopology) -> [(u64, u64); 2] {
    let zero_cost = ZeroCostEvaluator::with_backend(
        config.ntk,
        config.linear_regions,
        config.backend.instantiate(),
    );
    let traced = |round: &dyn Fn()| {
        let collector = Arc::new(Collector::new());
        let scope = micronas_telemetry::install_scoped(collector.clone());
        round();
        drop(scope);
        let report = collector.report();
        (
            report.counter("tensor.gemm.calls"),
            report.counter("tensor.im2col.bytes"),
        )
    };
    let solo = traced(&|| {
        for _ in 0..PACK {
            zero_cost
                .evaluate(cell, DatasetKind::Cifar10, 0)
                .expect("solo");
        }
    });
    let packed = traced(&|| {
        zero_cost
            .evaluate_pack(&[cell; PACK], DatasetKind::Cifar10, 0)
            .expect("packed");
    });
    [solo, packed]
}

/// Whether `MICRONAS_BENCH_SMOKE=1` smoke mode is active.
fn smoke_mode() -> bool {
    std::env::var("MICRONAS_BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn print_throughput() {
    banner(
        "candidate scoring throughput",
        "rayon-parallel, mega-batched candidate scoring (random search, zero-cost objective)",
    );
    let config = bench_config();
    // Exercise the parallel path even on single-core machines (there the
    // number reports scheduling overhead rather than speedup).
    let max_threads = rayon::current_num_threads().max(2);
    let (single, cache_1, batch_1) = run_search(&config, 1);
    let (multi, cache_n, batch_n) = run_search(&config, max_threads);
    println!("random search, {BUDGET} candidates, fast proxy configuration:");
    println!("  1 thread:            {single:>8.2} candidates/s");
    println!("  {max_threads} threads:           {multi:>8.2} candidates/s");
    println!("  parallel speedup:    {:>8.2}x", multi / single);
    println!(
        "  eval-cache:          {} hits / {} misses ({:.1}% absorbed)",
        cache_1.hits,
        cache_1.misses,
        cache_1.hit_rate() * 100.0
    );
    println!(
        "  pack density:        {} candidates over {} dispatches \
         ({:.1} per dispatch, {:.0}% of width-{} capacity)",
        batch_1.computed_candidates,
        batch_1.dispatches,
        batch_1.candidates_per_dispatch(),
        batch_1.fill_rate() * 100.0,
        batch_1.pack_width,
    );
    assert_eq!(
        cache_n, cache_1,
        "cache traffic must be thread-count independent"
    );
    assert_eq!(
        batch_n, batch_1,
        "pack density must be thread-count independent"
    );

    // Packed vs one-at-a-time, interleaved best-of-3 on both pinned cells.
    let space = SearchSpace::nas_bench_201();
    let sparse = space.cell(BENCH_CELL).expect("valid index");
    let (sparse_solo, sparse_packed) = packed_vs_unpacked(&config, sparse, 3);
    let (conv_solo, conv_packed) = packed_vs_unpacked(&config, conv_heavy_cell(), 3);
    println!("mega-batched evaluation ({PACK} candidates, best of 3):");
    println!(
        "  sparse bench cell:   {sparse_solo:>8.4} s -> {sparse_packed:>8.4} s  ({:.2}x)",
        sparse_solo / sparse_packed
    );
    println!(
        "  all-conv3x3 cell:    {conv_solo:>8.4} s -> {conv_packed:>8.4} s  ({:.2}x)",
        conv_solo / conv_packed
    );

    let mut fields: Vec<(String, f64)> = vec![
        ("candidates_per_second_1_thread".to_string(), single),
        ("candidates_per_second_max_threads".to_string(), multi),
        ("parallel_speedup".to_string(), multi / single),
    ];
    fields.extend(cache_stat_fields("cache", &cache_1));
    fields.extend(batch_stat_fields("batch", &batch_1));
    fields.extend([
        ("unpacked_seconds_bench_cell".to_string(), sparse_solo),
        ("packed_seconds_bench_cell".to_string(), sparse_packed),
        (
            "packed_speedup_bench_cell".to_string(),
            sparse_solo / sparse_packed,
        ),
        ("unpacked_seconds_conv_cell".to_string(), conv_solo),
        ("packed_seconds_conv_cell".to_string(), conv_packed),
        (
            "packed_speedup_conv_cell".to_string(),
            conv_solo / conv_packed,
        ),
    ]);
    record_bench_json("candidate_throughput", &fields);
}

fn bench_candidate_throughput(c: &mut Criterion) {
    if smoke_mode() {
        banner(
            "Mega-batch smoke: packed must not regress below unpacked",
            "cross-candidate packed GEMM dispatch regression gate (all-conv3x3 cell)",
        );
        // Noise-robust regression gate, same scheme as the ntk_engine gates:
        // interleaved best-of-3, a warning at parity, a hard failure only
        // past 1.25× (a real regression, not a co-tenant burst). A healthy
        // packed path wins outright on the conv-heavy cell, where every
        // edge's GEMM merges across all eight pack members. The
        // reduced-iteration numbers go to their own JSON so they never
        // overwrite the headline measurements.
        let config = bench_config();
        let (solo, packed) = packed_vs_unpacked(&config, conv_heavy_cell(), 3);
        println!("gate: unpacked {solo:.4}s vs packed {packed:.4}s (best of 3, {PACK} candidates)");
        record_bench_json(
            "candidate_throughput_smoke",
            &[
                ("unpacked_seconds_conv_cell", solo),
                ("packed_seconds_conv_cell", packed),
                ("packed_speedup_conv_cell", solo / packed),
            ],
        );
        if packed > solo {
            eprintln!(
                "warning: packed evaluation ({packed:.4}s) is not beating \
                 one-at-a-time evaluation ({solo:.4}s) on this runner"
            );
        }
        assert!(
            packed <= solo * 1.25,
            "packed evaluation ({packed:.4}s) regressed below one-at-a-time \
             evaluation ({solo:.4}s) on the conv-heavy cell"
        );

        // Exact counter gate: no timing noise, so no tolerance.
        let [(solo_gemm, solo_bytes), (packed_gemm, packed_bytes)] =
            packed_vs_unpacked_work(&config, conv_heavy_cell());
        println!(
            "gate: gemm calls {solo_gemm} -> {packed_gemm}, \
             im2col bytes {solo_bytes} -> {packed_bytes} (one round of {PACK})"
        );
        assert!(
            packed_gemm < solo_gemm && packed_bytes < solo_bytes,
            "packed evaluation did no less work than one-at-a-time evaluation: \
             gemm calls {packed_gemm} vs {solo_gemm}, im2col bytes \
             {packed_bytes} vs {solo_bytes}"
        );
        return;
    }

    if !c.is_test_mode() {
        print_throughput();
    }
    let config = bench_config();
    let max_threads = rayon::current_num_threads().max(2);
    let mut group = c.benchmark_group("candidates_scored_per_second");
    group.sample_size(10);
    for threads in [1usize, max_threads] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{threads}_threads")),
            &threads,
            |b, &threads| {
                b.iter(|| run_search(&config, threads));
            },
        );
    }
    let space = SearchSpace::nas_bench_201();
    let sparse = space.cell(BENCH_CELL).expect("valid index");
    group.bench_with_input(
        BenchmarkId::from_parameter("packed_vs_unpacked_bench_cell"),
        &sparse,
        |b, &cell| {
            b.iter(|| packed_vs_unpacked(&config, cell, 1));
        },
    );
    group.finish();
}

criterion_group!(benches, bench_candidate_throughput);
criterion_main!(benches);
