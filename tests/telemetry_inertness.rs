//! Telemetry must be provably inert.
//!
//! The observability layer (PR 7) promises that attaching any
//! [`TelemetrySink`] — the no-op `NullSink`, a full `Collector` recording,
//! or a counting probe — changes **nothing** about what the pipeline
//! computes: the paper-identity fingerprints pinned by
//! `tests/paper_identity.rs` stay bitwise identical, cache/batch counters
//! match the untraced runs exactly, and two same-seed searches record
//! byte-identical deterministic event streams. Each property is checked at
//! one and several rayon threads.
//!
//! Telemetry installation is process-global, so every test that installs a
//! sink serializes on one mutex — tests in this binary otherwise run
//! concurrently and would observe each other's sinks.

use micronas_suite::core::experiments::{run_paper_sweep, run_paper_sweep_traced, SweepScale};
use micronas_suite::core::{
    replay_diff, replay_events, EventRecorder, MicroNasConfig, RecordedEvent, SearchSession,
};
use micronas_suite::telemetry::{Collector, CountingSink, NullSink, TelemetrySink};
use rayon::ThreadPoolBuilder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// `SweepReport::identity_fingerprint` of `run_paper_sweep(tiny_test,
/// tiny)` — the same pin as `tests/paper_identity.rs`.
const TINY_FINGERPRINT: u64 = 0xa18a_5c02_cac6_7ecd;

/// Serializes the tests that install a process-global telemetry sink.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`TELEMETRY_LOCK`] even after another test panicked while holding
/// it, so one failing test does not fail the others.
fn lock_telemetry() -> MutexGuard<'static, ()> {
    TELEMETRY_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn tiny_fingerprint() -> u64 {
    run_paper_sweep(&MicroNasConfig::tiny_test(), &SweepScale::tiny(), None)
        .unwrap()
        .identity_fingerprint()
}

#[test]
fn sweep_fingerprint_is_pinned_under_every_sink_and_thread_count() {
    let _guard = lock_telemetry();
    let sinks: Vec<(&str, Arc<dyn TelemetrySink>)> = vec![
        ("NullSink", Arc::new(NullSink)),
        ("Collector", Arc::new(Collector::new())),
        ("CountingSink", Arc::new(CountingSink::default())),
    ];
    for (name, sink) in &sinks {
        for threads in [1usize, 4] {
            let scope = micronas_suite::telemetry::install_scoped(sink.clone());
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let fingerprint = pool.install(tiny_fingerprint);
            drop(scope);
            assert_eq!(
                fingerprint, TINY_FINGERPRINT,
                "{name} @ {threads} threads perturbed the sweep: {fingerprint:#018x}"
            );
        }
    }
}

#[test]
fn counting_sink_proves_probes_fire_while_results_stay_pinned() {
    let _guard = lock_telemetry();
    let sink = Arc::new(CountingSink::default());
    let scope = micronas_suite::telemetry::install_scoped(sink.clone());
    let fingerprint = tiny_fingerprint();
    drop(scope);
    assert_eq!(fingerprint, TINY_FINGERPRINT);
    assert!(sink.spans() > 0, "no span probes fired during a full sweep");
    assert!(
        sink.counters() > 0,
        "no counter probes fired during a full sweep"
    );
}

/// A sink that counts every hook call it receives, whether or not it asks
/// to be enabled.
#[derive(Default)]
struct HookCounter {
    enabled: bool,
    calls: AtomicU64,
}

impl TelemetrySink for HookCounter {
    fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn record_span(&self, _label: &'static str, _nanos: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn add_counter(&self, _name: &'static str, _delta: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn gauge_max(&self, _name: &'static str, _value: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// Counter-based inertness: a paper-default NTK and linear-region
/// evaluation of the all-conv3×3 cell under a disabled sink makes no hook
/// call at all, so every probe on the hot path (spans, counters, gauges)
/// stays behind the one-load disabled check. The same evaluation under
/// the enabled variant of the sink does reach the hooks, so the zero is
/// not vacuous, and both give the same bits.
#[test]
fn disabled_sink_receives_no_hook_call_from_a_paper_default_evaluation() {
    use micronas_suite::datasets::DatasetKind;
    use micronas_suite::proxies::{
        LinearRegionConfig, LinearRegionEvaluator, NtkConfig, NtkEvaluator,
    };
    use micronas_suite::searchspace::{CellTopology, Operation};

    let _guard = lock_telemetry();
    let cell = CellTopology::new([Operation::NorConv3x3; 6]);
    let ntk = NtkEvaluator::new(NtkConfig::paper_default());
    let lr = LinearRegionEvaluator::new(LinearRegionConfig::paper_default());
    let run = |enabled: bool| {
        let sink = Arc::new(HookCounter {
            enabled,
            ..HookCounter::default()
        });
        let scope = micronas_suite::telemetry::install_scoped(sink.clone());
        let condition = ntk
            .evaluate(cell, DatasetKind::Cifar10, 0)
            .unwrap()
            .condition_number;
        let regions = lr.evaluate(cell, DatasetKind::Cifar10, 0).unwrap().regions;
        drop(scope);
        (
            (condition.to_bits(), regions),
            sink.calls.load(Ordering::Relaxed),
        )
    };
    let (disabled, disabled_calls) = run(false);
    let (enabled, enabled_calls) = run(true);
    assert_eq!(disabled_calls, 0, "a probe reached a disabled sink");
    assert!(enabled_calls > 0, "no probe fired under an enabled sink");
    assert_eq!(disabled, enabled, "telemetry perturbed the evaluation");
}

#[test]
fn cache_and_batch_stats_match_untraced_runs_sequential_and_packed() {
    let _guard = lock_telemetry();
    let run = |width: usize, traced: bool| {
        let mut builder = SearchSession::builder()
            .config(MicroNasConfig::tiny_test())
            .pack_width(width);
        if traced {
            builder = builder
                .telemetry(Arc::new(Collector::new()))
                .observer(Arc::new(EventRecorder::new()));
        }
        let session = builder.build().unwrap();
        let outcome = session.run_micronas().unwrap();
        (
            outcome.history.clone(),
            outcome.best.index(),
            outcome.cost.cache,
            outcome.cost.batch,
        )
    };
    for width in [1usize, 8] {
        let plain = run(width, false);
        let traced = run(width, true);
        assert_eq!(
            plain, traced,
            "telemetry perturbed the width-{width} search (history/best/cache/batch)"
        );
    }
    // Packed and sequential runs agree on cache traffic (packing is pure
    // scheduling) even while a collector and a recorder are attached.
    let sequential = run(1, true);
    let packed = run(8, true);
    assert_eq!(sequential.0, packed.0, "history must not depend on packing");
    assert_eq!(
        sequential.2, packed.2,
        "cache stats must not depend on packing"
    );
}

#[test]
fn same_seed_searches_record_byte_identical_event_streams() {
    let _guard = lock_telemetry();
    let record = |threads: usize| {
        let recorder = Arc::new(EventRecorder::new());
        let session = SearchSession::builder()
            .config(MicroNasConfig::tiny_test())
            .observer(recorder.clone())
            .build()
            .unwrap();
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let outcome = pool.install(|| session.run_micronas().unwrap());
        (recorder.to_jsonl(), outcome)
    };
    let (a, outcome) = record(1);
    let (a2, outcome2) = record(1);
    let (b, _) = record(4);
    assert_eq!(outcome.history, outcome2.history);

    for (label, x, y) in [
        ("same-seed repeat @1 thread", &a, &a2),
        ("1 thread vs 4 threads", &a, &b),
    ] {
        let diffs = replay_diff(x, y);
        assert!(diffs.is_empty(), "{label}: {diffs:?}");
    }

    // The replayed stream is the full event contract: one started, one
    // step per history entry (scores bit-exact), one finished.
    let events = replay_events(&a).unwrap();
    assert_eq!(events.len(), outcome.history.len() + 2);
    assert_eq!(
        events[0],
        RecordedEvent::Started {
            algorithm: outcome.algorithm.clone()
        }
    );
    for (i, score) in outcome.history.iter().enumerate() {
        assert_eq!(
            events[1 + i],
            RecordedEvent::Step {
                index: i,
                score_bits: score.to_bits()
            }
        );
    }
    assert_eq!(
        events[events.len() - 1],
        RecordedEvent::Finished {
            algorithm: outcome.algorithm.clone(),
            best_index: outcome.evaluation.arch_index,
            steps: outcome.history.len()
        }
    );
}

#[test]
fn traced_sweep_reports_nonzero_spans_for_every_layer() {
    let _guard = lock_telemetry();
    let config = MicroNasConfig::tiny_test();

    // A persistent store so the store layer's log-append path runs too.
    let mut path = std::env::temp_dir();
    path.push(format!(
        "micronas-telemetry-inertness-{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let store =
        Arc::new(micronas_suite::store::EvalStore::open(&path, config.store_namespace()).unwrap());

    let collector = Arc::new(Collector::new());
    let report =
        run_paper_sweep_traced(&config, &SweepScale::tiny(), Some(store), collector.clone())
            .unwrap();
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        report.identity_fingerprint(),
        TINY_FINGERPRINT,
        "tracing the sweep moved its identity"
    );
    let telemetry = report.telemetry.expect("traced sweep folds telemetry in");
    for layer in ["tensor.", "nn.", "proxy.", "store.", "strategy."] {
        assert!(
            telemetry.layer_total_ns(layer) > 0,
            "layer {layer} recorded no span time:\n{}",
            telemetry.table()
        );
    }
    assert!(telemetry.counter("tensor.gemm.calls") > 0);
    assert!(telemetry.counter("search.pack.dispatches") > 0);
    assert!(
        telemetry.counter("store.hits") + telemetry.counter("store.misses") > 0,
        "store counters silent"
    );
    // The report serializes both ways without panicking.
    assert!(telemetry.table().contains("strategy.step"));
    assert!(telemetry.to_json().contains("tensor.gemm"));
}

/// Work counters, not timers, gate the linear-region probe's copy-free
/// forward: a traced tiny search copies no float pre-activation out of any
/// forward pass (`nn.pre_activation.bytes` stays 0, its signs are packed in
/// place), and its exact GEMM and im2col counts reproduce on a rerun while
/// the outcome matches an untraced run bit for bit. Runs on a one-thread
/// pool.
#[test]
fn traced_search_copies_no_pre_activations_and_counts_work_exactly() {
    let _guard = lock_telemetry();
    let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let run = |traced: bool| {
        let collector = Arc::new(Collector::new());
        let mut builder = SearchSession::builder().config(MicroNasConfig::tiny_test());
        if traced {
            builder = builder.telemetry(collector.clone());
        }
        let outcome = pool.install(|| builder.build().unwrap().run_micronas().unwrap());
        let bits: Vec<u64> = outcome.history.iter().map(|h| h.to_bits()).collect();
        ((outcome.best.index(), bits), collector.report())
    };
    let (traced_outcome, first) = run(true);
    let (_, second) = run(true);
    let (plain_outcome, _) = run(false);
    assert_eq!(
        traced_outcome, plain_outcome,
        "telemetry perturbed the search"
    );
    assert_eq!(first.counter("nn.pre_activation.bytes"), 0);
    for name in ["tensor.gemm.calls", "tensor.im2col.bytes"] {
        assert!(first.counter(name) > 0, "{name} never counted");
        assert_eq!(first.counter(name), second.counter(name), "{name}");
    }
}

/// The counter the gate above reads does fire where float pre-activations
/// are still copied out: `ForwardOutput::pre_activations` accounts for
/// every byte it holds.
#[test]
fn pre_activation_copies_are_counted() {
    use micronas_suite::nn::{CellNetworkPack, ProxyNetworkConfig};
    use micronas_suite::searchspace::SearchSpace;
    use micronas_suite::tensor::{Shape, Tensor, Workspace};

    let _guard = lock_telemetry();
    let space = SearchSpace::nas_bench_201();
    let cells = [space.cell(7_000).unwrap(), space.cell(11_111).unwrap()];
    let config = ProxyNetworkConfig::tiny(10);
    let pack = CellNetworkPack::new(&cells, &config, 3).unwrap();
    let r = config.input_resolution;
    let input = Tensor::ones(Shape::nchw(2, config.input_channels, r, r));
    let collector = Arc::new(Collector::new());
    let scope = micronas_suite::telemetry::install_scoped(collector.clone());
    let outputs = pack
        .forward_with(&input, &mut Workspace::default())
        .unwrap();
    drop(scope);
    let copied: usize = outputs
        .iter()
        .flat_map(|o| &o.pre_activations)
        .map(|t| t.numel() * std::mem::size_of::<f32>())
        .sum();
    assert!(copied > 0);
    assert_eq!(
        collector.report().counter("nn.pre_activation.bytes"),
        copied as u64
    );
}
