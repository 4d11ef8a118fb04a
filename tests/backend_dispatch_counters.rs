//! The `tensor.backend.<id>.*` dispatch counters, pinned exactly.
//!
//! Each public `KernelBackend` kernel method bumps its counter once at
//! entry; a packed method counts one dispatch plus its member count, and
//! its members run uncounted. One packed NTK + linear-region evaluation of
//! a small pack therefore makes the same counts on both backends: they run
//! the same kernel calls and differ only in the kernel bodies.
//!
//! Telemetry installation is process-global; this file holds one test, so
//! the sink sees no other test's work.

use micronas_suite::datasets::DatasetKind;
use micronas_suite::proxies::{LinearRegionConfig, NtkConfig, ZeroCostEvaluator};
use micronas_suite::searchspace::{CellTopology, Operation};
use micronas_suite::telemetry::Collector;
use micronas_suite::tensor::KernelBackend;
use std::sync::Arc;

/// `(counter suffix, count)` for one packed evaluation of [`pack`]. No
/// counter is missing by accident: the solo backward kernels
/// (`backward_dispatches`) never run, since the per-sample backward always
/// goes through the packed entry points.
const EXPECTED: [(&str, u64); 8] = [
    ("backward_packed_dispatches", 15),
    ("backward_packed_members", 23),
    ("conv_packed_dispatches", 32),
    ("conv_packed_inputs", 32),
    ("conv_solo_dispatches", 4),
    ("gemm_dispatches", 3),
    ("gram_dispatches", 3),
    ("pool_dispatches", 14),
];

/// Three cells covering every kernel family: both convs, pooling, skips
/// and zeroed edges.
fn pack() -> [CellTopology; 3] {
    use Operation::*;
    [
        CellTopology::new([
            NorConv3x3,
            AvgPool3x3,
            NorConv1x1,
            SkipConnect,
            NorConv3x3,
            None,
        ]),
        CellTopology::new([NorConv3x3; 6]),
        CellTopology::new([
            AvgPool3x3,
            NorConv1x1,
            SkipConnect,
            NorConv3x3,
            None,
            AvgPool3x3,
        ]),
    ]
}

#[test]
fn packed_evaluation_counts_each_dispatch_once_on_both_backends() {
    for backend in KernelBackend::all() {
        let evaluator =
            ZeroCostEvaluator::with_backend(NtkConfig::fast(), LinearRegionConfig::fast(), backend);
        let collector = Arc::new(Collector::new());
        let scope = micronas_suite::telemetry::install_scoped(collector.clone());
        evaluator
            .evaluate_pack(&pack(), DatasetKind::Cifar10, 0)
            .unwrap();
        drop(scope);

        let prefix = format!("tensor.backend.{}.", backend.id());
        let mut got: Vec<(String, u64)> = collector
            .metrics()
            .counters()
            .into_iter()
            .filter(|(name, _)| name.starts_with("tensor.backend."))
            .collect();
        got.sort();
        let want: Vec<(String, u64)> = EXPECTED
            .iter()
            .map(|(suffix, count)| (format!("{prefix}{suffix}"), *count))
            .collect();
        assert_eq!(got, want, "backend {}", backend.id());
    }
}
