//! Strategy-trait conformance: one shared suite run over every shipped
//! [`SearchStrategy`] through the `dyn`-object surface.
//!
//! Every strategy must keep the trait contract the redesign rests on:
//!
//! * **Thread determinism** — a bitwise-identical outcome (including the
//!   score history) on a 1-thread and an N-thread rayon pool;
//! * **Store transparency** — bitwise-identical outcomes with the
//!   evaluation store disabled, cold and pre-warmed (and a warm store
//!   serving the proxy-driven searches without a single recomputation);
//! * **Observer contract** — one `Started`, one `Step` per history entry
//!   in order, one `Finished`.

use micronas::{
    EvolutionaryConfig, EvolutionarySearch, MicroNasConfig, MicroNasSearch, ObjectiveWeights,
    RandomSearch, SearchEvent, SearchObserver, SearchOutcome, SearchSession, SearchStrategy,
};
use micronas_datasets::DatasetKind;
use micronas_store::EvalStore;
use parking_lot::Mutex;
use rayon::ThreadPoolBuilder;
use std::sync::Arc;

/// Every shipped strategy, as trait objects.
fn all_strategies() -> Vec<Box<dyn SearchStrategy>> {
    vec![
        Box::new(MicroNasSearch::new(ObjectiveWeights::latency_guided(2.0))),
        Box::new(RandomSearch::new(ObjectiveWeights::accuracy_only(), 8).unwrap()),
        Box::new(EvolutionarySearch::new(EvolutionaryConfig::fast_test()).unwrap()),
    ]
}

fn session(store: Option<Arc<EvalStore>>) -> SearchSession {
    let mut builder = SearchSession::builder()
        .dataset(DatasetKind::Cifar10)
        .config(MicroNasConfig::tiny_test());
    if let Some(store) = store {
        builder = builder.store(store);
    }
    builder.build().unwrap()
}

fn packed_session(width: usize) -> SearchSession {
    SearchSession::builder()
        .dataset(DatasetKind::Cifar10)
        .config(MicroNasConfig::tiny_test())
        .pack_width(width)
        .build()
        .unwrap()
}

fn assert_outcomes_identical(label: &str, a: &SearchOutcome, b: &SearchOutcome) {
    assert_eq!(a.best.index(), b.best.index(), "{label}: best");
    assert_eq!(a.evaluation, b.evaluation, "{label}: evaluation");
    assert_eq!(a.test_accuracy, b.test_accuracy, "{label}: accuracy");
    assert_eq!(a.cost.evaluations, b.cost.evaluations, "{label}: evals");
    // The decisive check: bitwise-equal score trajectories.
    assert_eq!(a.history, b.history, "{label}: history");
}

#[test]
fn every_strategy_is_deterministic_across_thread_counts() {
    for strategy in all_strategies() {
        let run_with = |threads: usize| {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| session(None).run(strategy.as_ref()).unwrap())
        };
        let single = run_with(1);
        for threads in [3, 7] {
            let multi = run_with(threads);
            assert_outcomes_identical(
                &format!("{} @ {threads} threads", strategy.name()),
                &single,
                &multi,
            );
        }
    }
}

/// Cross-candidate mega-batching is a pure scheduling change: for every
/// strategy, the outcome at pack widths 1 (packing disabled), 2 and 8 must
/// be bitwise identical, on a 1-thread and an N-thread rayon pool alike.
#[test]
fn every_strategy_is_bitwise_identical_across_pack_widths_and_threads() {
    for strategy in all_strategies() {
        let reference = {
            let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
            pool.install(|| packed_session(1).run(strategy.as_ref()).unwrap())
        };
        for width in [2usize, 8] {
            for threads in [1usize, 4] {
                let pool = ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let outcome =
                    pool.install(|| packed_session(width).run(strategy.as_ref()).unwrap());
                assert_outcomes_identical(
                    &format!("{} @ width {width}, {threads} threads", strategy.name()),
                    &reference,
                    &outcome,
                );
            }
        }
    }
}

/// Store-namespace audit: mega-batching must not change any proxy output of
/// the default backend, so the persisted-store namespace stays pinned — a
/// bump here would orphan every store warmed before this change.
#[test]
fn mega_batching_does_not_bump_the_store_namespace() {
    assert_eq!(
        MicroNasConfig::paper_default().store_namespace(),
        0xa01c_0bcb_e15a_bdf4,
        "packed evaluation changed paper-default proxy identity: {:#018x}",
        MicroNasConfig::paper_default().store_namespace()
    );

    // The reason the pin holds: packed evaluation is bitwise identical to
    // the one-at-a-time path, so records written by either are interchangeable.
    let config = MicroNasConfig::tiny_test();
    let store = Arc::new(EvalStore::in_memory(config.store_namespace()));
    let solo_ctx =
        micronas::SearchContext::with_store(DatasetKind::Cifar10, &config, Arc::clone(&store))
            .unwrap();
    let packed_ctx = micronas::SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
    let cells: Vec<_> = [0usize, 404, 7_000, 11_111, 15_624]
        .iter()
        .map(|&i| solo_ctx.space().cell(i).unwrap())
        .collect();
    let solo: Vec<_> = cells
        .iter()
        .map(|&cell| solo_ctx.evaluate(cell).unwrap())
        .collect();
    let packed = micronas::BatchedEvaluator::new(&packed_ctx)
        .evaluate_all(&cells)
        .unwrap();
    for (i, (s, p)) in solo.iter().zip(&packed).enumerate() {
        assert_eq!(**s, **p, "store-backed solo vs packed member {i}");
    }
}

#[test]
fn every_strategy_is_bitwise_identical_across_store_modes() {
    let config = MicroNasConfig::tiny_test();
    for strategy in all_strategies() {
        let off = session(None).run(strategy.as_ref()).unwrap();

        let store = Arc::new(EvalStore::in_memory(config.store_namespace()));
        let cold = session(Some(store.clone())).run(strategy.as_ref()).unwrap();
        let warm = session(Some(store)).run(strategy.as_ref()).unwrap();

        assert_outcomes_identical(&format!("{} off/cold", strategy.name()), &off, &cold);
        assert_outcomes_identical(&format!("{} off/warm", strategy.name()), &off, &warm);
        assert_eq!(
            warm.cost.cache.misses,
            0,
            "{}: a pre-warmed store must serve the whole search",
            strategy.name()
        );
    }
}

/// Counts events and records the step trajectory.
#[derive(Default)]
struct Recorder {
    started: Mutex<Vec<String>>,
    steps: Mutex<Vec<(usize, f64)>>,
    finished: Mutex<usize>,
}

impl SearchObserver for Recorder {
    fn on_event(&self, event: &SearchEvent<'_>) {
        match event {
            SearchEvent::Started { algorithm } => {
                self.started.lock().push((*algorithm).to_string());
            }
            SearchEvent::Step { index, score } => self.steps.lock().push((*index, *score)),
            SearchEvent::Finished { .. } => *self.finished.lock() += 1,
        }
    }
}

#[test]
fn every_strategy_honours_the_observer_contract() {
    for strategy in all_strategies() {
        let recorder = Arc::new(Recorder::default());
        let outcome = SearchSession::builder()
            .dataset(DatasetKind::Cifar10)
            .config(MicroNasConfig::tiny_test())
            .observer(recorder.clone())
            .build()
            .unwrap()
            .run(strategy.as_ref())
            .unwrap();

        assert_eq!(
            *recorder.started.lock(),
            vec![outcome.algorithm.clone()],
            "exactly one Started event carrying the algorithm name"
        );
        assert_eq!(*recorder.finished.lock(), 1, "exactly one Finished event");
        let steps = recorder.steps.lock();
        assert_eq!(
            steps.len(),
            outcome.history.len(),
            "{}: one Step per history entry",
            strategy.name()
        );
        for (i, ((index, score), expected)) in steps.iter().zip(&outcome.history).enumerate() {
            assert_eq!(*index, i, "{}: dense ordered indices", strategy.name());
            assert_eq!(
                score.to_bits(),
                expected.to_bits(),
                "{}: step {i} replays the history entry",
                strategy.name()
            );
        }
    }
}
