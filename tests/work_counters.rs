//! Work-counter gate: a traced tiny `run_micronas` must do exactly the same
//! work at one and at four threads, and no more than the ceilings below.
//!
//! Counters are exact, so this gate cannot flake on timer noise. A counter
//! that rises past its ceiling means the search computes something it did
//! not before: a lost dedup, an unshared prefix, an extra lowering. Lower
//! a ceiling when a change makes the work smaller; raise one only with the
//! reason in the change's notes.
//!
//! Telemetry installation is process-global; this file holds one test, so
//! the sink sees no other test's work.

use micronas_suite::core::{MicroNasConfig, SearchSession};
use micronas_suite::telemetry::{Collector, TelemetryReport};
use rayon::ThreadPoolBuilder;
use std::sync::Arc;

// Ceilings, captured once the pack forward shared equal prefixes. Before
// that, the same search lowered 9 642 240 bytes in 1 005 GEMM calls. The
// GEMM ceiling was re-captured (808 → 289) when every conv kernel began to
// count one call per kernel call instead of one per image.

/// Bytes of the column matrices multiplied over the whole search, lowered
/// or read in place from a zero-padded image.
const IM2COL_BYTES_CEILING: u64 = 3_732_480;
/// Bytes materialized by im2col. The tiny config's convs take the
/// streaming GEMM schedule, which still lowers every column matrix, so this
/// equals the bytes multiplied.
const IM2COL_LOWERED_BYTES_CEILING: u64 = 3_732_480;
/// Logical GEMM dispatches: one per GEMM-path conv kernel call, plus the
/// plain GEMMs (classifier, Gram).
const GEMM_CALLS_CEILING: u64 = 289;
/// Candidates whose proxies were computed, solo or in a pack.
const COMPUTED_CANDIDATES_CEILING: u64 = 31;
/// Packed evaluation dispatches.
const PACK_DISPATCHES_CEILING: u64 = 4;

/// The counters the gate reads, from one traced search.
fn work(report: &TelemetryReport) -> [(&'static str, u64); 6] {
    // A candidate's NTK runs either solo (one `proxy.ntk` span) or as a
    // member of a packed sweep.
    let solo = report.span("proxy.ntk").map_or(0, |s| s.count);
    [
        ("tensor.im2col.bytes", report.counter("tensor.im2col.bytes")),
        (
            "tensor.im2col.lowered_bytes",
            report.counter("tensor.im2col.lowered_bytes"),
        ),
        ("tensor.gemm.calls", report.counter("tensor.gemm.calls")),
        (
            "computed candidates",
            solo + report.counter("search.pack.computed_candidates"),
        ),
        (
            "search.pack.dispatches",
            report.counter("search.pack.dispatches"),
        ),
        (
            "nn.pack_forward.shared_inputs",
            report.counter("nn.pack_forward.shared_inputs"),
        ),
    ]
}

fn traced_search(threads: usize) -> ((usize, Vec<u64>), TelemetryReport) {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    let collector = Arc::new(Collector::new());
    let session = SearchSession::builder()
        .config(MicroNasConfig::tiny_test())
        .telemetry(collector.clone())
        .build()
        .unwrap();
    let outcome = pool.install(|| session.run_micronas().unwrap());
    let bits = outcome.history.iter().map(|h| h.to_bits()).collect();
    ((outcome.best.index(), bits), collector.report())
}

#[test]
fn tiny_search_work_is_thread_count_independent_and_under_its_ceilings() {
    let (outcome_1, report_1) = traced_search(1);
    let (outcome_4, report_4) = traced_search(4);
    assert_eq!(
        outcome_1, outcome_4,
        "the search outcome moved with threads"
    );
    let (work_1, work_4) = (work(&report_1), work(&report_4));
    assert_eq!(work_1, work_4, "work counters moved with the thread count");

    let [(_, im2col), (_, lowered), (_, gemm), (_, computed), (_, dispatches), (_, shared)] =
        work_1;
    assert!(im2col > 0 && lowered > 0 && gemm > 0 && computed > 0 && dispatches > 0);
    assert!(shared > 0, "no conv input was shared across a pack");
    for (name, value, ceiling) in [
        ("tensor.im2col.bytes", im2col, IM2COL_BYTES_CEILING),
        (
            "tensor.im2col.lowered_bytes",
            lowered,
            IM2COL_LOWERED_BYTES_CEILING,
        ),
        ("tensor.gemm.calls", gemm, GEMM_CALLS_CEILING),
        ("computed candidates", computed, COMPUTED_CANDIDATES_CEILING),
        (
            "search.pack.dispatches",
            dispatches,
            PACK_DISPATCHES_CEILING,
        ),
    ] {
        assert!(
            value <= ceiling,
            "{name} rose to {value}, above its ceiling {ceiling}"
        );
    }
}
