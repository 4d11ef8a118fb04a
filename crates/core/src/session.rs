//! The [`SearchSession`] builder: one entry point for configuring and
//! running searches.
//!
//! A session bundles everything a search needs — dataset, proxy
//! configuration, pluggable [`Proxy`] plugins, objective weights, an
//! optional shared [`EvalStore`] and an optional progress
//! [`SearchObserver`] — behind one builder, so every strategy runs through
//! the same evaluation surface:
//!
//! ```no_run
//! use micronas::{MicroNasConfig, ObjectiveWeights, SearchSession};
//! use micronas_datasets::DatasetKind;
//!
//! # fn main() -> Result<(), micronas::MicroNasError> {
//! let session = SearchSession::builder()
//!     .dataset(DatasetKind::Cifar10)
//!     .config(MicroNasConfig::fast())
//!     .objective(ObjectiveWeights::latency_guided(2.0))
//!     .build()?;
//! let outcome = session.run_micronas()?;
//! println!("discovered {}", outcome.best);
//! # Ok(())
//! # }
//! ```

use crate::{
    MicroNasConfig, MicroNasSearch, NullObserver, ObjectiveWeights, Result, SearchContext,
    SearchObserver, SearchOutcome, SearchStrategy,
};
use micronas_datasets::DatasetKind;
use micronas_proxies::Proxy;
use micronas_store::EvalStore;
use std::sync::Arc;

/// A fully configured search environment: an evaluation context plus the
/// session-level objective weights and progress observer.
///
/// Build one with [`SearchSession::builder`], then [`SearchSession::run`]
/// any number of [`SearchStrategy`] values against it — they share the
/// session's caches (and store), so overlapping candidate sets are
/// evaluated once.
pub struct SearchSession {
    context: SearchContext,
    weights: ObjectiveWeights,
    observer: Arc<dyn SearchObserver>,
    telemetry: Option<Arc<dyn micronas_telemetry::TelemetrySink>>,
    fabric: Option<Arc<micronas_fabric::RemoteTier>>,
}

impl SearchSession {
    /// Starts building a session. Defaults: CIFAR-10, the paper-default
    /// configuration, the proxy-only objective, no plugins, no store, no
    /// observer.
    pub fn builder() -> SearchSessionBuilder {
        SearchSessionBuilder::default()
    }

    /// The evaluation context strategies run against.
    pub fn context(&self) -> &SearchContext {
        &self.context
    }

    /// The session's objective weights (used by
    /// [`SearchSession::run_micronas`]; strategies constructed explicitly
    /// carry their own).
    pub fn weights(&self) -> &ObjectiveWeights {
        &self.weights
    }

    /// Runs `strategy` against this session's context, reporting progress
    /// to the session observer.
    ///
    /// # Errors
    ///
    /// Propagates the strategy's failures.
    pub fn run(&self, strategy: &dyn SearchStrategy) -> Result<SearchOutcome> {
        let _scope = self
            .telemetry
            .as_ref()
            .map(|sink| micronas_telemetry::install_scoped(sink.clone()));
        strategy.search(&self.context, self.observer.as_ref())
    }

    /// Runs the MicroNAS pruning search with the session's objective
    /// weights.
    ///
    /// # Errors
    ///
    /// Propagates search failures.
    pub fn run_micronas(&self) -> Result<SearchOutcome> {
        self.run(&MicroNasSearch::new(self.weights.clone()))
    }

    /// The remote fabric tier this session's store reads through, when the
    /// configuration joined one (`fabric` in [`MicroNasConfig`] or
    /// [`SearchSessionBuilder::fabric`]). Use it to inspect remote
    /// hit/miss/degradation counters or to [`flush`] write-behind offers at
    /// a sweep boundary.
    ///
    /// [`flush`]: micronas_fabric::RemoteTier::flush
    pub fn fabric_tier(&self) -> Option<&Arc<micronas_fabric::RemoteTier>> {
        self.fabric.as_ref()
    }
}

impl std::fmt::Debug for SearchSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchSession")
            .field("context", &self.context)
            .field("weights", &self.weights)
            .finish()
    }
}

/// Builder for a [`SearchSession`]; see [`SearchSession::builder`].
#[derive(Default)]
pub struct SearchSessionBuilder {
    dataset: Option<DatasetKind>,
    config: Option<MicroNasConfig>,
    weights: Option<ObjectiveWeights>,
    proxies: Vec<Arc<dyn Proxy>>,
    store: Option<Arc<EvalStore>>,
    observer: Option<Arc<dyn SearchObserver>>,
    backend: Option<micronas_tensor::KernelBackend>,
    pack_width: Option<usize>,
    telemetry: Option<Arc<dyn micronas_telemetry::TelemetrySink>>,
    fabric: Option<micronas_fabric::FabricConfig>,
}

impl SearchSessionBuilder {
    /// Sets the dataset the search targets (default: CIFAR-10).
    #[must_use]
    pub fn dataset(mut self, dataset: DatasetKind) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// Sets the proxy/hardware configuration (default:
    /// [`MicroNasConfig::paper_default`]).
    #[must_use]
    pub fn config(mut self, config: MicroNasConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Sets the session objective weights (default:
    /// [`ObjectiveWeights::accuracy_only`]). Weights may reference any
    /// metric id, including ids published by registered plugins.
    #[must_use]
    pub fn objective(mut self, weights: ObjectiveWeights) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Registers one pluggable proxy. Its score joins every candidate's
    /// [`micronas_proxies::MetricSet`] under the proxy's id.
    #[must_use]
    pub fn proxy(mut self, proxy: Arc<dyn Proxy>) -> Self {
        self.proxies.push(proxy);
        self
    }

    /// Registers several pluggable proxies (appending, in order).
    #[must_use]
    pub fn proxies(mut self, proxies: impl IntoIterator<Item = Arc<dyn Proxy>>) -> Self {
        self.proxies.extend(proxies);
        self
    }

    /// Attaches a shared evaluation store. Must have been created for the
    /// session configuration's namespace
    /// ([`MicroNasConfig::store_namespace`]).
    #[must_use]
    pub fn store(mut self, store: Arc<EvalStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Selects the execution backend the session's **built-in** indicators
    /// (NTK, linear regions) run on (overrides the configuration's
    /// `backend` field; default: the bitwise paper-default
    /// [`micronas_tensor::KernelBackend::BlockedGemm`]). A numerically
    /// divergent backend moves the session into its own store namespace, so
    /// an attached store must have been created for that namespace.
    ///
    /// Plugin proxies registered via [`SearchSessionBuilder::proxy`] are
    /// opaque to the session and keep the backend they were built with,
    /// e.g. `NtkProxy::from_evaluator(NtkEvaluator::new(config)
    /// .with_backend(KernelBackend::Direct))`. A plugin that runs on a
    /// backend other than the paper default must fold it into its
    /// `config_fingerprint` with [`micronas_proxies::fold_backend`], as the
    /// built-in adapters do.
    #[must_use]
    pub fn backend(mut self, backend: micronas_tensor::KernelBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Sets the maximum number of candidates the session's context packs
    /// into one mega-batched proxy sweep (default:
    /// [`crate::DEFAULT_PACK_WIDTH`]; clamped to at least 1, and 1 disables
    /// cross-candidate packing). Search outcomes are bitwise identical for
    /// every width — only GEMM dispatch density and wall-clock change.
    #[must_use]
    pub fn pack_width(mut self, width: usize) -> Self {
        self.pack_width = Some(width);
        self
    }

    /// Joins a distributed evaluation fabric (overrides the
    /// configuration's `fabric` field): the session's store reads through
    /// the fleet on local misses and offers fresh evaluations back
    /// write-behind. If no store was attached explicitly, an in-memory
    /// store for the configuration's namespace is created to carry the
    /// fabric tier.
    ///
    /// The fabric never changes search results — records are
    /// content-addressed and evaluations deterministic, so outcomes are
    /// bitwise identical with the fabric enabled, degraded or absent; only
    /// the hit/miss economics move.
    #[must_use]
    pub fn fabric(mut self, fabric: micronas_fabric::FabricConfig) -> Self {
        self.fabric = Some(fabric);
        self
    }

    /// Attaches a progress observer that receives every
    /// [`crate::SearchEvent`] of searches run through the session.
    #[must_use]
    pub fn observer(mut self, observer: Arc<dyn SearchObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches a telemetry sink ([`micronas_telemetry::TelemetrySink`])
    /// that every [`SearchSession::run`] installs for the duration of the
    /// search (restoring the previous sink afterwards), so spans and
    /// counters from all layers — tensor kernels, network forward passes,
    /// proxies, the store and the strategy itself — flow into it. Use a
    /// [`micronas_telemetry::Collector`] and read its
    /// [`micronas_telemetry::Collector::report`] after the run.
    ///
    /// Telemetry is provably inert: outcomes, histories and cache/batch
    /// statistics are bitwise identical with and without a sink attached.
    #[must_use]
    pub fn telemetry(mut self, sink: Arc<dyn micronas_telemetry::TelemetrySink>) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Builds the session.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MicroNasError::InvalidConfig`] if the configuration
    /// is invalid, a proxy id collides, or the store namespace does not
    /// match the configuration.
    pub fn build(self) -> Result<SearchSession> {
        let dataset = self.dataset.unwrap_or(DatasetKind::Cifar10);
        let mut config = self.config.unwrap_or_default();
        if let Some(backend) = self.backend {
            config.backend = backend;
        }
        if let Some(fabric) = self.fabric {
            config.fabric = Some(fabric);
        }
        let mut context = SearchContext::with_proxies(dataset, &config, self.store, self.proxies)?;
        if let Some(width) = self.pack_width {
            context = context.with_pack_width(width);
        }
        // Joining a fabric attaches the remote tier to the context's store —
        // the shared one, or the private in-memory store of sessions that did
        // not attach one. `attach_remote` re-checks the namespace.
        let fabric_tier = match &config.fabric {
            Some(fabric_config) => {
                let tier = Arc::new(micronas_fabric::RemoteTier::from_config(
                    config.store_namespace(),
                    fabric_config,
                ));
                context
                    .store()
                    .attach_remote(Arc::clone(&tier) as Arc<dyn micronas_store::RemoteBackend>)?;
                Some(tier)
            }
            None => None,
        };
        Ok(SearchSession {
            context,
            weights: self.weights.unwrap_or_default(),
            observer: self
                .observer
                .unwrap_or_else(|| Arc::new(NullObserver) as Arc<dyn SearchObserver>),
            telemetry: self.telemetry,
            fabric: fabric_tier,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::strategy::test_support::{assert_event_contract, RecordingObserver};
    use crate::{EvolutionaryConfig, EvolutionarySearch, RandomSearch};
    use micronas_proxies::{metric_ids, SynFlowConfig, SynFlowProxy};

    fn tiny_builder() -> SearchSessionBuilder {
        SearchSession::builder().config(MicroNasConfig::tiny_test())
    }

    #[test]
    fn defaults_are_filled_in() {
        let session = tiny_builder().build().unwrap();
        assert_eq!(session.context().dataset(), DatasetKind::Cifar10);
        assert_eq!(session.weights(), &ObjectiveWeights::accuracy_only());
        assert!(format!("{session:?}").contains("SearchSession"));
    }

    #[test]
    fn session_runs_match_direct_strategy_runs_bitwise() {
        let config = MicroNasConfig::tiny_test();
        let session = SearchSession::builder()
            .dataset(DatasetKind::Cifar10)
            .config(config.clone())
            .objective(ObjectiveWeights::latency_guided(2.0))
            .build()
            .unwrap();
        let via_session = session.run_micronas().unwrap();

        let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        let direct = MicroNasSearch::new(ObjectiveWeights::latency_guided(2.0))
            .run(&ctx)
            .unwrap();
        assert_eq!(via_session.best.index(), direct.best.index());
        assert_eq!(via_session.history, direct.history);
        assert_eq!(via_session.evaluation, direct.evaluation);
    }

    #[test]
    fn observer_receives_the_full_event_contract_for_every_strategy() {
        let strategies: Vec<Box<dyn SearchStrategy>> = vec![
            Box::new(MicroNasSearch::te_nas_baseline()),
            Box::new(RandomSearch::new(ObjectiveWeights::accuracy_only(), 5).unwrap()),
            Box::new(EvolutionarySearch::new(EvolutionaryConfig::fast_test()).unwrap()),
        ];
        for strategy in &strategies {
            let observer = Arc::new(RecordingObserver::default());
            let session = tiny_builder().observer(observer.clone()).build().unwrap();
            let outcome = session.run(strategy.as_ref()).unwrap();
            assert_eq!(outcome.algorithm, strategy.name());
            assert_event_contract(&observer, &outcome);
        }
    }

    #[test]
    fn plugin_weighted_objective_changes_the_session_search() {
        // A session with a SynFlow plugin and a weight on its metric id must
        // run end-to-end; weighting an unpublished id must change nothing.
        let with_plugin = tiny_builder()
            .proxy(Arc::new(SynFlowProxy::new(SynFlowConfig::fast())))
            .objective(ObjectiveWeights::accuracy_only().with_metric(metric_ids::SYNFLOW, 0.5))
            .build()
            .unwrap();
        let outcome = with_plugin.run_micronas().unwrap();
        assert!(outcome
            .evaluation
            .metrics
            .get(metric_ids::SYNFLOW)
            .is_some());

        let baseline = tiny_builder().build().unwrap().run_micronas().unwrap();
        let weight_without_plugin = tiny_builder()
            .objective(ObjectiveWeights::accuracy_only().with_metric(metric_ids::SYNFLOW, 0.5))
            .build()
            .unwrap()
            .run_micronas()
            .unwrap();
        assert_eq!(
            baseline.history, weight_without_plugin.history,
            "weighting a metric no proxy publishes must be a no-op"
        );
    }

    #[test]
    fn ported_built_in_proxies_are_registrable_as_plugins() {
        use micronas_proxies::{LinearRegionConfig, LinearRegionProxy, NtkConfig, NtkProxy};

        // A second, differently-configured probe of each built-in family
        // rides along as a plugin — their ids ("ntk",
        // "linear_region_score") must not collide with the built-in metric
        // ids the session always publishes.
        let session = tiny_builder()
            .proxy(Arc::new(NtkProxy::new(NtkConfig::fast())))
            .proxy(Arc::new(LinearRegionProxy::new(LinearRegionConfig::fast())))
            .build()
            .unwrap();
        let cell = session.context().space().cell(42).unwrap();
        let eval = session.context().evaluate(cell).unwrap();
        assert!(eval.metrics.contains("ntk"));
        assert!(eval.metrics.contains("linear_region_score"));
        // The built-in entries are still present and untouched alongside.
        assert!(eval.metrics.contains(metric_ids::LINEAR_REGIONS));
        assert!(eval.metrics.contains(metric_ids::NTK_CONDITION));
    }

    #[test]
    fn pack_width_flows_into_the_context_and_preserves_outcomes() {
        let narrow = tiny_builder().pack_width(1).build().unwrap();
        assert_eq!(narrow.context().pack_width(), 1);
        let wide = tiny_builder().pack_width(16).build().unwrap();
        assert_eq!(wide.context().pack_width(), 16);
        assert_eq!(
            tiny_builder().build().unwrap().context().pack_width(),
            crate::DEFAULT_PACK_WIDTH
        );

        let a = narrow.run_micronas().unwrap();
        let b = wide.run_micronas().unwrap();
        assert_eq!(a.best.index(), b.best.index());
        assert_eq!(a.history, b.history);
        assert_eq!(a.evaluation, b.evaluation);
        assert!(
            b.cost.batch.dispatches >= 1,
            "wide session must actually pack: {:?}",
            b.cost.batch
        );
        assert_eq!(
            a.cost.batch.packed_candidates, 0,
            "width 1 disables packing: {:?}",
            a.cost.batch
        );
    }

    #[test]
    fn telemetry_sink_collects_spans_without_perturbing_the_search() {
        let plain = tiny_builder().build().unwrap().run_micronas().unwrap();
        let collector = Arc::new(micronas_telemetry::Collector::new());
        let session = tiny_builder().telemetry(collector.clone()).build().unwrap();
        let traced = session.run_micronas().unwrap();
        assert_eq!(traced.best.index(), plain.best.index());
        assert_eq!(traced.history, plain.history);
        assert_eq!(traced.evaluation, plain.evaluation);
        let report = collector.report();
        assert!(report.span("strategy.step").is_some(), "{}", report.table());
    }

    #[test]
    fn mismatched_store_namespace_is_rejected_at_build_time() {
        let store = Arc::new(EvalStore::in_memory(1234));
        assert!(tiny_builder().store(store).build().is_err());
    }

    #[test]
    fn fabric_sessions_share_evaluations_and_preserve_outcomes() {
        // A one-node "fleet" on loopback: the first session computes and
        // writes behind; a second, cold session reads everything through
        // the fabric — bitwise-identical outcome, remote hits visible.
        let namespace = MicroNasConfig::tiny_test().store_namespace();
        let node =
            micronas_fabric::FabricNode::serve(Arc::new(EvalStore::in_memory(namespace))).unwrap();
        let fabric = micronas_fabric::FabricConfig::with_peers(vec![node.addr()]);

        let baseline = tiny_builder().build().unwrap().run_micronas().unwrap();

        let warm_up = tiny_builder().fabric(fabric.clone()).build().unwrap();
        let first = warm_up.run_micronas().unwrap();
        let tier = warm_up
            .fabric_tier()
            .expect("fabric session carries a tier");
        tier.flush().unwrap();
        assert!(tier.stats().delivered > 0, "{:?}", tier.stats());
        assert_eq!(first.best.index(), baseline.best.index());
        assert_eq!(first.history, baseline.history);

        let cold = tiny_builder().fabric(fabric).build().unwrap();
        let second = cold.run_micronas().unwrap();
        assert_eq!(second.best.index(), baseline.best.index());
        assert_eq!(second.history, baseline.history);
        assert_eq!(second.evaluation, baseline.evaluation);
        let stats = cold.fabric_tier().unwrap().stats();
        assert!(stats.remote_hits > 0, "{stats:?}");

        // Sessions without a fabric expose no tier.
        assert!(tiny_builder().build().unwrap().fabric_tier().is_none());
    }

    #[test]
    fn fabric_with_a_divergent_namespace_peer_degrades_not_corrupts() {
        // A node serving a *different* evaluation configuration must be
        // refused at the handshake; the session still runs, locally.
        let foreign_ns = MicroNasConfig::fast().store_namespace();
        let node =
            micronas_fabric::FabricNode::serve(Arc::new(EvalStore::in_memory(foreign_ns))).unwrap();
        let mut fabric = micronas_fabric::FabricConfig::with_peers(vec![node.addr()]);
        fabric.retries = 0;
        fabric.timeout_ms = 200;

        let session = tiny_builder().fabric(fabric).build().unwrap();
        let tier = session.fabric_tier().unwrap();
        let err = tier.connect_all().unwrap_err();
        assert!(
            matches!(err, micronas_fabric::FabricError::HandshakeRefused { .. }),
            "{err:?}"
        );
        let outcome = session.run_micronas().unwrap();
        let baseline = tiny_builder().build().unwrap().run_micronas().unwrap();
        assert_eq!(outcome.history, baseline.history);
        assert_eq!(node.stats().gets, 0, "no request may cross the handshake");
        assert!(node.stats().refused_handshakes > 0);
    }
}
