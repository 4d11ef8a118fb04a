use crate::{BatchStats, EvalCacheStats, MicroNasConfig, Result};
use micronas_datasets::DatasetKind;
use micronas_hw::{HardwareConstraints, HardwareEvaluator, HardwareIndicators};
use micronas_nasbench::SurrogateBenchmark;
use micronas_proxies::{MetricSet, Proxy, ZeroCostEvaluator};
use micronas_searchspace::{Architecture, CellTopology, MacroSkeleton, SearchSpace};
use micronas_store::{custom_proxy_digest, ArchDigest, EvalKey, EvalRecord, EvalStore, ProxyKind};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One registered pluggable proxy plus its precomputed store identity.
pub(crate) struct RegisteredProxy {
    pub(crate) proxy: Arc<dyn Proxy>,
    /// [`custom_proxy_digest`] of `(id, config fingerprint)`, computed once.
    digest: u64,
}

/// Everything a search algorithm needs to evaluate candidates on one dataset:
/// the search space, the zero-cost proxies, the hardware evaluator, the
/// hardware budgets and (for baselines and final reporting only) the
/// surrogate accuracy benchmark.
///
/// # Caching
///
/// Every context owns an [`micronas_store::EvalStore`], the one memo keyed
/// by canonical record: the shared store passed to
/// [`SearchContext::with_store`] — content-addressed, possibly persistent,
/// possibly warmed by other searches in this process or an earlier one — or
/// else a private in-memory store for the configuration's namespace. In
/// front of it sit two fast paths: a handle cache by architecture index, so
/// repeated visits during pruning or evolution cost one refcount bump, and
/// a hardware memo, so warm feasibility checks skip the store. Every
/// evaluation goes through the resolve, compute and commit phases of
/// [`crate::BatchedEvaluator`], which computes each canonical record at most
/// once per context and advances the hit/miss counters in one place (see
/// [`EvalCacheStats`] for the counting rule).
///
/// # Canonical evaluation
///
/// Proxy and hardware values are always computed on the cell's *canonical
/// form* (the representative of its isomorphism orbit —
/// [`CellTopology::canonical_form`]). Evaluation is therefore a pure
/// function of architecture *identity* rather than representation: two
/// isomorphic cells receive bitwise-identical scores, and results are
/// bitwise-identical whether the store is shared, private or pre-warmed.
///
/// # Pluggable proxies
///
/// Beyond the two built-in indicators, any number of [`Proxy`] plugins can
/// be registered ([`SearchContext::with_proxies`], usually via
/// `SearchSession::builder().proxies(..)`). Each plugin's score joins the
/// candidate's [`MetricSet`] under the proxy's id and is cached in the
/// store under a `ProxyKind::Custom` key derived from the proxy's stable
/// identity — adding a proxy never perturbs the built-in records.
pub struct SearchContext {
    space: SearchSpace,
    dataset: DatasetKind,
    zero_cost: ZeroCostEvaluator,
    pub(crate) extra_proxies: Vec<RegisteredProxy>,
    hardware: HardwareEvaluator,
    constraints: HardwareConstraints,
    benchmark: SurrogateBenchmark,
    seed: u64,
    ntk_batch: u16,
    store: Arc<EvalStore>,
    /// Full evaluations by architecture index (the handle cache).
    /// `Arc`-boxed so a hit costs one refcount bump inside the critical
    /// section, never a deep clone of the heap-backed [`MetricSet`].
    pub(crate) cache: Mutex<HashMap<usize, Arc<CandidateEvaluation>>>,
    /// Hardware indicators by canonical digest: the fast path of warm
    /// feasibility checks, in front of the store.
    hw_cache: RwLock<HashMap<ArchDigest, HardwareIndicators>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    /// Maximum number of candidates packed into one mega-batched proxy
    /// sweep (see [`crate::BatchedEvaluator`]).
    pack_width: usize,
    /// Packed proxy sweeps dispatched to the kernels.
    batch_dispatches: AtomicUsize,
    /// Candidates submitted through the packed evaluation path.
    batch_packed: AtomicUsize,
    /// Candidates freshly computed inside a packed sweep.
    batch_computed: AtomicUsize,
    /// Snapshot of the process-global packed-kernel fill counters
    /// ([`micronas_nn::pack_kernel_stats`]) at construction, so
    /// [`SearchContext::batch_stats`] reports this context's lifetime
    /// rather than the whole process history. A construction-time baseline
    /// (instead of per-call deltas) keeps concurrently running packs from
    /// double-attributing each other's kernel work.
    kernel_baseline: micronas_nn::PackKernelStats,
}

/// Default number of candidates packed into one mega-batched proxy sweep.
///
/// Eight keeps the packed im2col panels comfortably inside the retained
/// scratch arena at the paper's probe resolutions while already amortising
/// the GEMM dispatch overhead across candidates; override per context with
/// [`SearchContext::with_pack_width`].
pub const DEFAULT_PACK_WIDTH: usize = 8;

/// The cached evaluation record of one candidate architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateEvaluation {
    /// The candidate's index in the search space.
    pub arch_index: usize,
    /// Every network-analysis metric of the candidate, by id: the built-in
    /// indicators (`ntk_condition`, `linear_regions`, `trainability`,
    /// `expressivity`) followed by one entry per registered pluggable
    /// proxy, in registration order.
    pub metrics: MetricSet,
    /// Hardware indicators.
    pub hardware: HardwareIndicators,
    /// Whether the candidate satisfies the context's hardware constraints.
    pub feasible: bool,
}

impl SearchContext {
    /// Builds a context for `dataset` from a [`MicroNasConfig`], backed by a
    /// private in-memory store.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(dataset: DatasetKind, config: &MicroNasConfig) -> Result<Self> {
        Self::build(dataset, config, None, Vec::new())
    }

    /// Builds a context that shares (and warms) `store`. The store must have
    /// been created for this configuration's namespace
    /// ([`MicroNasConfig::store_namespace`]); sharing a store across
    /// incompatible proxy/hardware configurations would serve wrong values.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or the store
    /// namespace does not match the configuration.
    pub fn with_store(
        dataset: DatasetKind,
        config: &MicroNasConfig,
        store: Arc<EvalStore>,
    ) -> Result<Self> {
        ensure_store_namespace(&store, config)?;
        Self::build(dataset, config, Some(store), Vec::new())
    }

    /// Builds a context with additional pluggable proxies (and optionally a
    /// shared store). Every registered proxy is evaluated per candidate, its
    /// score published in the candidate's [`MetricSet`] under the proxy's id
    /// and cached in the store under a `ProxyKind::Custom` key.
    ///
    /// Proxy ids must be unique (and must not collide with the built-in
    /// metric ids), or two plugins would overwrite each other's metrics and
    /// cached records.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid, a proxy id
    /// collides, or the store namespace does not match the configuration.
    pub fn with_proxies(
        dataset: DatasetKind,
        config: &MicroNasConfig,
        store: Option<Arc<EvalStore>>,
        proxies: Vec<Arc<dyn Proxy>>,
    ) -> Result<Self> {
        if let Some(store) = store.as_deref() {
            ensure_store_namespace(store, config)?;
        }
        Self::build(dataset, config, store, proxies)
    }

    fn build(
        dataset: DatasetKind,
        config: &MicroNasConfig,
        store: Option<Arc<EvalStore>>,
        proxies: Vec<Arc<dyn Proxy>>,
    ) -> Result<Self> {
        config.validate()?;
        let extra_proxies = register_proxies(proxies)?;
        let benchmark = SurrogateBenchmark::new(config.seed);
        let skeleton = benchmark.skeleton_for(dataset);
        let zero_cost = ZeroCostEvaluator::with_backend(
            config.ntk,
            config.linear_regions,
            config.backend.instantiate(),
        );
        let store =
            store.unwrap_or_else(|| Arc::new(EvalStore::in_memory(config.store_namespace())));
        Ok(Self {
            space: SearchSpace::nas_bench_201(),
            dataset,
            zero_cost,
            extra_proxies,
            hardware: HardwareEvaluator::new(skeleton, config.mcu.clone()),
            constraints: config.constraints,
            benchmark,
            seed: config.seed,
            ntk_batch: config.ntk.batch_size as u16,
            store,
            cache: Mutex::new(HashMap::new()),
            hw_cache: RwLock::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            pack_width: DEFAULT_PACK_WIDTH,
            batch_dispatches: AtomicUsize::new(0),
            batch_packed: AtomicUsize::new(0),
            batch_computed: AtomicUsize::new(0),
            kernel_baseline: micronas_nn::pack_kernel_stats(),
        })
    }

    /// Sets the maximum number of candidates packed into one mega-batched
    /// proxy sweep (clamped to at least 1; 1 disables cross-candidate
    /// packing). Results are bitwise identical for every width — only
    /// dispatch density changes.
    #[must_use]
    pub fn with_pack_width(mut self, width: usize) -> Self {
        self.pack_width = width.max(1);
        self
    }

    /// The maximum number of candidates packed into one mega-batched proxy
    /// sweep.
    pub fn pack_width(&self) -> usize {
        self.pack_width
    }

    /// The search space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The dataset the search targets.
    pub fn dataset(&self) -> DatasetKind {
        self.dataset
    }

    /// The hardware budgets in force.
    pub fn constraints(&self) -> &HardwareConstraints {
        &self.constraints
    }

    /// The macro skeleton used for hardware estimation.
    pub fn skeleton(&self) -> &MacroSkeleton {
        self.hardware.skeleton()
    }

    /// The surrogate benchmark (used by training-based baselines and for
    /// reporting the final accuracy of discovered models).
    pub fn benchmark(&self) -> &SurrogateBenchmark {
        &self.benchmark
    }

    /// The hardware evaluator.
    pub fn hardware(&self) -> &HardwareEvaluator {
        &self.hardware
    }

    /// The zero-cost evaluator.
    pub fn zero_cost(&self) -> &ZeroCostEvaluator {
        &self.zero_cost
    }

    /// Ids of the registered pluggable proxies, in registration order.
    pub fn extra_proxy_ids(&self) -> impl Iterator<Item = &str> {
        self.extra_proxies.iter().map(|p| p.proxy.id())
    }

    /// The evaluation store: the shared one this context was built with, or
    /// its private in-memory store.
    pub fn store(&self) -> &Arc<EvalStore> {
        &self.store
    }

    /// The reproducibility seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of distinct architectures evaluated so far (entries of the
    /// handle cache).
    pub fn evaluation_count(&self) -> usize {
        self.cache.lock().len()
    }

    /// Snapshot of the hit/miss counters (see [`EvalCacheStats`]).
    pub fn cache_stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the pack-density counters of the mega-batched evaluation
    /// path (see [`crate::BatchedEvaluator`]).
    ///
    /// The candidate-level counters are private to this context; the
    /// kernel-level forward/backward fill counters are process-wide deltas
    /// since this context's construction (other contexts packing in the same
    /// process would show up here — diff two snapshots around a search with
    /// [`BatchStats::since`] for an exact attribution).
    pub fn batch_stats(&self) -> BatchStats {
        let kernel = micronas_nn::pack_kernel_stats().since(&self.kernel_baseline);
        BatchStats {
            dispatches: self.batch_dispatches.load(Ordering::Relaxed),
            packed_candidates: self.batch_packed.load(Ordering::Relaxed),
            computed_candidates: self.batch_computed.load(Ordering::Relaxed),
            pack_width: self.pack_width,
            forward_kernel_dispatches: kernel.forward_dispatches as usize,
            forward_kernel_members: kernel.forward_members as usize,
            backward_kernel_dispatches: kernel.backward_dispatches as usize,
            backward_kernel_members: kernel.backward_members as usize,
        }
    }

    /// The store keys of the records a canonical cell's evaluation needs:
    /// zero-cost, one per plugin (registration order), hardware — or only
    /// hardware when not `full`.
    pub(crate) fn record_keys(
        &self,
        canonical: CellTopology,
        full: bool,
    ) -> impl Iterator<Item = EvalKey> + '_ {
        let (dataset, seed) = (self.dataset, self.seed);
        let proxies = if full { &self.extra_proxies[..] } else { &[] };
        full.then(|| EvalKey::zero_cost(&canonical, dataset, seed, self.ntk_batch))
            .into_iter()
            .chain(
                proxies
                    .iter()
                    .map(move |entry| EvalKey::custom(&canonical, dataset, seed, entry.digest, 0)),
            )
            .chain(std::iter::once(EvalKey::hardware(&canonical, dataset)))
    }

    /// Reads a record without computing it: hardware from the memo first,
    /// everything from the store.
    pub(crate) fn lookup(&self, key: &EvalKey) -> Option<EvalRecord> {
        if key.kind != ProxyKind::Hardware {
            return self.store.get(key);
        }
        if let Some(&hardware) = self.hw_cache.read().get(&key.cell) {
            return Some(EvalRecord::Hardware(hardware));
        }
        let record = self.store.get(key)?;
        if let Some(hardware) = record.as_hardware() {
            self.hw_cache.write().insert(key.cell, hardware);
        }
        Some(record)
    }

    /// Computes the record `key` names for its canonical cell. Pure: no
    /// counter, no cache or store write.
    pub(crate) fn compute(&self, key: &EvalKey, canonical: CellTopology) -> Result<EvalRecord> {
        Ok(match key.kind {
            ProxyKind::ZeroCost { .. } => EvalRecord::ZeroCost(self.zero_cost.evaluate(
                canonical,
                self.dataset,
                self.seed,
            )?),
            ProxyKind::Custom { id_digest, .. } => {
                let entry = self
                    .extra_proxies
                    .iter()
                    .find(|entry| entry.digest == id_digest)
                    .expect("plugin keys come from registered proxies");
                EvalRecord::Scalar(entry.proxy.evaluate(canonical, self.dataset, self.seed)?)
            }
            ProxyKind::Hardware => EvalRecord::Hardware(self.hardware.evaluate(canonical)),
            ProxyKind::NtkSpectrum { .. } => unreachable!("slates never key NTK spectra"),
        })
    }

    /// Commits a freshly computed record: into the store and, for hardware,
    /// the memo.
    pub(crate) fn remember(&self, key: EvalKey, record: &EvalRecord) -> Result<()> {
        if let Some(hardware) = record.as_hardware() {
            self.hw_cache.write().insert(key.cell, hardware);
        }
        self.store.insert(key, record.clone())?;
        Ok(())
    }

    /// Advances the hit/miss counters — called once per settled slate.
    pub(crate) fn count(&self, hits: usize, misses: usize) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Advances the pack counters of one slate: `submitted` candidates,
    /// whose zero-cost misses ran in packs of the given sizes. Publishes the
    /// fill.
    pub(crate) fn count_packs(&self, submitted: usize, packs: &[usize]) {
        self.batch_packed.fetch_add(submitted, Ordering::Relaxed);
        micronas_telemetry::counter_add("search.pack.candidates", submitted as u64);
        let Some(&fullest) = packs.iter().max() else {
            return;
        };
        let computed: usize = packs.iter().sum();
        let width = self.pack_width.max(1);
        self.batch_dispatches
            .fetch_add(packs.len(), Ordering::Relaxed);
        self.batch_computed.fetch_add(computed, Ordering::Relaxed);
        micronas_telemetry::counter_add("search.pack.dispatches", packs.len() as u64);
        micronas_telemetry::counter_add("search.pack.computed_candidates", computed as u64);
        micronas_telemetry::gauge_max(
            "search.pack.fill_permille",
            (fullest.min(width) * 1000 / width) as u64,
        );
        // Measured kernel-level pack density, split by sweep direction
        // (permille of pack members per packed dispatch, scaled by the
        // configured width): a backward gauge lagging the forward one means
        // the per-sample gradient sweeps only partially merged.
        let kernel = micronas_nn::pack_kernel_stats().since(&self.kernel_baseline);
        if kernel.forward_dispatches > 0 {
            micronas_telemetry::gauge_max(
                "search.pack.forward_fill_permille",
                (kernel.forward_fill() * 1000.0 / width as f64) as u64,
            );
        }
        if kernel.backward_dispatches > 0 {
            micronas_telemetry::gauge_max(
                "search.pack.backward_fill_permille",
                (kernel.backward_fill() * 1000.0 / width as f64) as u64,
            );
        }
    }

    /// Evaluates (or retrieves from cache) the zero-cost and hardware
    /// indicators of a cell: a slate of one through the resolve, compute
    /// and commit phases of [`crate::BatchedEvaluator`], without packing.
    ///
    /// Returns a shared handle to the cached record: a warm hit costs one
    /// refcount bump, never a deep copy of the metric set.
    ///
    /// The result is a pure function of `(architecture identity, dataset,
    /// seed)` — proxies run on the cell's canonical form. Because the
    /// resolve step classifies and counts serially, the counters are
    /// identical regardless of thread count for every call that goes
    /// through it; concurrent calls from several threads may each compute
    /// the same record.
    ///
    /// # Errors
    ///
    /// Propagates proxy evaluation failures and store I/O failures.
    pub fn evaluate(&self, cell: CellTopology) -> Result<Arc<CandidateEvaluation>> {
        let mut evals = crate::BatchedEvaluator::unpacked(self).evaluate_all(&[cell])?;
        Ok(evals.pop().expect("a slate of one yields one evaluation"))
    }

    /// The hardware indicators of a cell, served from the memo or the store
    /// when possible. Cheaper than [`SearchContext::evaluate`] because no
    /// zero-cost proxies run.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn hardware_indicators(&self, cell: CellTopology) -> Result<HardwareIndicators> {
        let mut hardware = crate::BatchedEvaluator::unpacked(self).hardware_all(&[cell])?;
        Ok(hardware.pop().expect("a slate of one yields one record"))
    }

    /// Whether a cell satisfies this context's hardware budgets, using the
    /// memoized/stored hardware indicators. Revisited cells — e.g. mutated
    /// children that land on an already-scored architecture — hit the memo
    /// instead of paying a fresh hardware pass.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn is_feasible(&self, cell: CellTopology) -> Result<bool> {
        Ok(self
            .constraints
            .satisfied_by(&self.hardware_indicators(cell)?))
    }

    /// The surrogate "trained" accuracy of an architecture — never consulted
    /// by the zero-shot search itself, only by training-based baselines and
    /// final reporting.
    pub fn trained_accuracy(&self, arch: &Architecture) -> f64 {
        self.benchmark.query(arch, self.dataset).test_accuracy
    }
}

/// Validates a set of pluggable proxies and precomputes their store
/// identities. Rejects duplicate ids and collisions with the metric ids the
/// built-in indicators always publish — either would overwrite entries in
/// every candidate's [`MetricSet`] and alias cached store records.
fn register_proxies(proxies: Vec<Arc<dyn Proxy>>) -> Result<Vec<RegisteredProxy>> {
    let mut registered: Vec<RegisteredProxy> = Vec::with_capacity(proxies.len());
    for proxy in proxies {
        let id = proxy.id();
        if micronas_proxies::metric_ids::BUILT_IN.contains(&id) {
            return Err(crate::MicroNasError::InvalidConfig(format!(
                "proxy id {id:?} collides with a built-in metric id"
            )));
        }
        if registered.iter().any(|r| r.proxy.id() == id) {
            return Err(crate::MicroNasError::InvalidConfig(format!(
                "duplicate proxy id {id:?}"
            )));
        }
        let digest = custom_proxy_digest(id, proxy.config_fingerprint());
        registered.push(RegisteredProxy { proxy, digest });
    }
    Ok(registered)
}

/// Verifies that `store` was opened for `config`'s evaluation namespace.
/// Every entry point that reads or writes a store on behalf of a
/// configuration must call this first — serving or appending records under
/// the wrong namespace would poison the store's persistent log.
///
/// # Errors
///
/// Returns [`crate::MicroNasError::InvalidConfig`] on a mismatch.
pub(crate) fn ensure_store_namespace(store: &EvalStore, config: &MicroNasConfig) -> Result<()> {
    if store.namespace() != config.store_namespace() {
        return Err(crate::MicroNasError::InvalidConfig(format!(
            "evaluation store namespace {:#018x} does not match the \
             configuration's {:#018x}",
            store.namespace(),
            config.store_namespace()
        )));
    }
    Ok(())
}

/// A record of an unexpected kind under a typed key — only possible if a
/// foreign log was forged into the store's namespace.
pub(crate) fn record_kind_error(expected: &str) -> crate::MicroNasError {
    crate::MicroNasError::Store(format!(
        "store returned a record of the wrong kind (expected {expected})"
    ))
}

impl std::fmt::Debug for SearchContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchContext")
            .field("dataset", &self.dataset)
            .field("seed", &self.seed)
            .field("cached_evaluations", &self.cache.lock().len())
            .field("store", &self.store.namespace())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchedEvaluator, MicroNasConfig};
    use micronas_searchspace::Operation;

    #[test]
    fn evaluations_are_cached() {
        let config = MicroNasConfig::tiny_test();
        let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        let cell = ctx.space().cell(5_000).unwrap();
        let a = ctx.evaluate(cell).unwrap();
        assert_eq!(ctx.evaluation_count(), 1);
        let b = ctx.evaluate(cell).unwrap();
        assert_eq!(
            ctx.evaluation_count(),
            1,
            "second evaluation must hit the cache"
        );
        assert_eq!(a, b);
        let stats = ctx.cache_stats();
        assert!(stats.hits >= 1, "the revisit counts as a hit");
        assert!(stats.misses >= 1, "the first visit computed fresh values");
    }

    #[test]
    fn isomorphic_cells_evaluate_identically() {
        let config = MicroNasConfig::tiny_test();
        let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        let cell = CellTopology::new([
            Operation::NorConv3x3,
            Operation::SkipConnect,
            Operation::None,
            Operation::AvgPool3x3,
            Operation::NorConv1x1,
            Operation::None,
        ]);
        let twin = cell.intermediate_swap().unwrap();
        let a = ctx.evaluate(cell).unwrap();
        let b = ctx.evaluate(twin).unwrap();
        assert_ne!(a.arch_index, b.arch_index, "distinct representations");
        assert_eq!(a.metrics, b.metrics, "identical proxy scores");
        assert_eq!(a.hardware, b.hardware, "identical hardware indicators");
    }

    #[test]
    fn shared_store_serves_hits_across_contexts() {
        let config = MicroNasConfig::tiny_test();
        let store = Arc::new(EvalStore::in_memory(config.store_namespace()));
        let cell = CellTopology::new([Operation::NorConv3x3; 6]);

        let ctx1 = SearchContext::with_store(DatasetKind::Cifar10, &config, store.clone()).unwrap();
        let a = ctx1.evaluate(cell).unwrap();
        let cold = store.stats();
        assert!(cold.misses > 0, "cold store computes fresh values");

        // A brand-new context with an empty private cache: everything must
        // come from the shared store.
        let ctx2 = SearchContext::with_store(DatasetKind::Cifar10, &config, store.clone()).unwrap();
        let b = ctx2.evaluate(cell).unwrap();
        assert_eq!(a, b);
        let warm = store.stats().since(&cold);
        assert_eq!(warm.misses, 0, "warm store must not recompute");
        assert!(warm.hits >= 2, "zero-cost and hardware records both hit");
    }

    #[test]
    fn store_modes_agree_bitwise() {
        let config = MicroNasConfig::tiny_test();
        let cell = CellTopology::new([
            Operation::SkipConnect,
            Operation::NorConv1x1,
            Operation::None,
            Operation::AvgPool3x3,
            Operation::NorConv3x3,
            Operation::None,
        ]);

        let off = SearchContext::new(DatasetKind::Cifar10, &config)
            .unwrap()
            .evaluate(cell)
            .unwrap();

        let store = Arc::new(EvalStore::in_memory(config.store_namespace()));
        let cold = SearchContext::with_store(DatasetKind::Cifar10, &config, store.clone())
            .unwrap()
            .evaluate(cell)
            .unwrap();
        let warm = SearchContext::with_store(DatasetKind::Cifar10, &config, store)
            .unwrap()
            .evaluate(cell)
            .unwrap();

        assert_eq!(off, cold, "store-off vs cold store");
        assert_eq!(off, warm, "store-off vs pre-warmed store");
    }

    #[test]
    fn mismatched_store_namespace_is_rejected() {
        let config = MicroNasConfig::tiny_test();
        let store = Arc::new(EvalStore::in_memory(12345));
        assert!(SearchContext::with_store(DatasetKind::Cifar10, &config, store).is_err());
    }

    #[test]
    fn feasibility_uses_the_hardware_cache() {
        let config = MicroNasConfig::tiny_test();
        let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        let cell = CellTopology::new([Operation::NorConv3x3; 6]);
        assert!(ctx.is_feasible(cell).unwrap());
        let after_first = ctx.cache_stats();
        assert!(ctx.is_feasible(cell).unwrap());
        let delta = ctx.cache_stats().since(&after_first);
        assert_eq!(delta.misses, 0, "second feasibility check is cached");
        assert_eq!(delta.hits, 1);
    }

    #[test]
    fn feasibility_reflects_constraints() {
        let config = MicroNasConfig::tiny_test().with_constraints(
            micronas_hw::HardwareConstraints::unconstrained().with_latency_ms(1e-6),
        );
        let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        let eval = ctx
            .evaluate(CellTopology::new([Operation::NorConv3x3; 6]))
            .unwrap();
        assert!(
            !eval.feasible,
            "an impossible latency budget marks everything infeasible"
        );

        let relaxed = MicroNasConfig::tiny_test();
        let ctx = SearchContext::new(DatasetKind::Cifar10, &relaxed).unwrap();
        let eval = ctx
            .evaluate(CellTopology::new([Operation::NorConv3x3; 6]))
            .unwrap();
        assert!(eval.feasible);
    }

    #[test]
    fn trained_accuracy_comes_from_the_surrogate() {
        let config = MicroNasConfig::tiny_test();
        let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        let arch = ctx.space().architecture(1_234).unwrap();
        let acc = ctx.trained_accuracy(&arch);
        let direct = ctx
            .benchmark()
            .query(&arch, DatasetKind::Cifar10)
            .test_accuracy;
        assert_eq!(acc, direct);
    }

    #[test]
    fn registered_proxies_join_the_metric_set_in_order() {
        use micronas_proxies::{
            JacobianCovarianceConfig, JacobianCovarianceProxy, SynFlowConfig, SynFlowProxy,
        };

        let config = MicroNasConfig::tiny_test();
        let proxies: Vec<Arc<dyn micronas_proxies::Proxy>> = vec![
            Arc::new(SynFlowProxy::new(SynFlowConfig::fast())),
            Arc::new(JacobianCovarianceProxy::new(
                JacobianCovarianceConfig::fast(),
            )),
        ];
        let ctx =
            SearchContext::with_proxies(DatasetKind::Cifar10, &config, None, proxies).unwrap();
        let ids: Vec<&str> = ctx.extra_proxy_ids().collect();
        assert_eq!(ids, ["synflow", "jacob_cov"]);

        let eval = ctx.evaluate(ctx.space().cell(5_000).unwrap()).unwrap();
        let metric_ids: Vec<&str> = eval.metrics.ids().collect();
        assert_eq!(
            metric_ids,
            [
                "ntk_condition",
                "linear_regions",
                "trainability",
                "expressivity",
                "synflow",
                "jacob_cov"
            ],
            "built-ins first, then plugins in registration order"
        );
        assert!(eval.metrics.get("synflow").unwrap().is_finite());
        assert!(eval.metrics.get("jacob_cov").unwrap().is_finite());
    }

    #[test]
    fn plugin_scores_are_cached_under_custom_store_keys() {
        use micronas_proxies::{Proxy, SynFlowConfig, SynFlowProxy};

        let config = MicroNasConfig::tiny_test();
        let store = Arc::new(EvalStore::in_memory(config.store_namespace()));
        let proxy = SynFlowProxy::new(SynFlowConfig::fast());
        let digest = custom_proxy_digest(proxy.id(), proxy.config_fingerprint());
        let cell = CellTopology::new([Operation::NorConv3x3; 6]);
        let direct = proxy
            .evaluate(cell.canonical_form(), DatasetKind::Cifar10, config.seed)
            .unwrap();

        let ctx = SearchContext::with_proxies(
            DatasetKind::Cifar10,
            &config,
            Some(store.clone()),
            vec![Arc::new(proxy)],
        )
        .unwrap();
        let eval = ctx.evaluate(cell).unwrap();
        assert_eq!(eval.metrics.get("synflow"), Some(direct));

        // The score landed in the store under the proxy's Custom key.
        let key = EvalKey::custom(
            &cell.canonical_form(),
            DatasetKind::Cifar10,
            config.seed,
            digest,
            0,
        );
        let record = store.get(&key).expect("custom record must be stored");
        assert_eq!(record.as_scalar(), Some(direct));

        // A second context sharing the store serves the plugin from cache.
        let proxy2: Arc<dyn Proxy> = Arc::new(SynFlowProxy::new(SynFlowConfig::fast()));
        let ctx2 = SearchContext::with_proxies(
            DatasetKind::Cifar10,
            &config,
            Some(store.clone()),
            vec![proxy2],
        )
        .unwrap();
        let before = store.stats();
        let again = ctx2.evaluate(cell).unwrap();
        assert_eq!(again, eval);
        assert_eq!(
            store.stats().since(&before).misses,
            0,
            "warm store must serve the plugin score"
        );
    }

    #[test]
    fn colliding_proxy_ids_are_rejected() {
        use micronas_proxies::{SynFlowConfig, SynFlowProxy};

        let config = MicroNasConfig::tiny_test();
        let dup: Vec<Arc<dyn micronas_proxies::Proxy>> = vec![
            Arc::new(SynFlowProxy::new(SynFlowConfig::fast())),
            Arc::new(SynFlowProxy::new(SynFlowConfig::fast())),
        ];
        assert!(
            SearchContext::with_proxies(DatasetKind::Cifar10, &config, None, dup).is_err(),
            "duplicate plugin ids must be rejected"
        );

        struct Impostor;
        impl micronas_proxies::Proxy for Impostor {
            fn id(&self) -> &str {
                micronas_proxies::metric_ids::TRAINABILITY
            }
            fn config_fingerprint(&self) -> u64 {
                0
            }
            fn evaluate_with(
                &self,
                _cell: CellTopology,
                _dataset: DatasetKind,
                _seed: u64,
                _workspace: &mut micronas_tensor::Workspace,
            ) -> micronas_proxies::Result<f64> {
                Ok(0.0)
            }
        }
        assert!(
            SearchContext::with_proxies(
                DatasetKind::Cifar10,
                &config,
                None,
                vec![Arc::new(Impostor)]
            )
            .is_err(),
            "built-in metric ids are reserved"
        );
    }

    /// An asymmetric cell with a distinct isomorphic twin.
    fn asymmetric_cell() -> CellTopology {
        CellTopology::new([
            Operation::NorConv3x3,
            Operation::SkipConnect,
            Operation::None,
            Operation::AvgPool3x3,
            Operation::NorConv1x1,
            Operation::None,
        ])
    }

    /// A pack mixing fresh cells, an exact duplicate and an isomorphic twin
    /// — the shapes the batched strategies submit.
    fn pack_cells(ctx: &SearchContext) -> Vec<CellTopology> {
        let base = asymmetric_cell();
        vec![
            ctx.space().cell(5_000).unwrap(),
            base,
            ctx.space().cell(7_000).unwrap(),
            ctx.space().cell(5_000).unwrap(),
            base.intermediate_swap().unwrap(),
        ]
    }

    #[test]
    fn packed_evaluation_matches_sequential_evaluation_and_counters() {
        let config = MicroNasConfig::tiny_test();
        let seq_ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        let pack_ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        let cells = pack_cells(&seq_ctx);

        let sequential: Vec<_> = cells
            .iter()
            .map(|&c| seq_ctx.evaluate(c).unwrap())
            .collect();
        let packed = BatchedEvaluator::new(&pack_ctx)
            .evaluate_all(&cells)
            .unwrap();

        assert_eq!(packed.len(), sequential.len());
        for (i, (s, p)) in sequential.iter().zip(&packed).enumerate() {
            assert_eq!(**s, **p, "member {i}");
        }
        assert_eq!(seq_ctx.evaluation_count(), pack_ctx.evaluation_count());
        assert_eq!(seq_ctx.cache_stats(), pack_ctx.cache_stats());
        let batch = pack_ctx.batch_stats();
        assert_eq!(batch.dispatches, 1, "one packed sweep for the fresh cells");
        assert_eq!(batch.packed_candidates, cells.len());
        assert_eq!(
            batch.computed_candidates, 3,
            "duplicate and isomorphic members dedup before dispatch"
        );
    }

    #[test]
    fn packed_evaluation_counters_match_on_a_warm_store() {
        let config = MicroNasConfig::tiny_test();
        let store = Arc::new(EvalStore::in_memory(config.store_namespace()));
        let warmer =
            SearchContext::with_store(DatasetKind::Cifar10, &config, store.clone()).unwrap();
        let cells = pack_cells(&warmer);
        let expected = BatchedEvaluator::new(&warmer).evaluate_all(&cells).unwrap();

        let warm = SearchContext::with_store(DatasetKind::Cifar10, &config, store).unwrap();
        let packed = BatchedEvaluator::new(&warm).evaluate_all(&cells).unwrap();
        for (s, p) in expected.iter().zip(&packed) {
            assert_eq!(**s, **p);
        }
        assert_eq!(
            warm.cache_stats().misses,
            0,
            "a warm store serves the whole pack without running kernels"
        );
        assert_eq!(
            warm.batch_stats().dispatches,
            0,
            "nothing left to dispatch under a warm store"
        );
    }

    #[test]
    fn packed_evaluation_handles_degenerate_packs() {
        let config = MicroNasConfig::tiny_test();
        let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        assert!(BatchedEvaluator::new(&ctx)
            .evaluate_all(&[])
            .unwrap()
            .is_empty());
        let cell = ctx.space().cell(123).unwrap();
        let one = ctx.evaluate(cell).unwrap();
        assert_eq!(
            ctx.batch_stats(),
            SearchContext::new(DatasetKind::Cifar10, &config)
                .unwrap()
                .batch_stats(),
            "one-at-a-time evaluation never packs"
        );
        let ctx = ctx.with_pack_width(0);
        assert_eq!(ctx.pack_width(), 1, "width clamps to 1");
        let again = BatchedEvaluator::new(&ctx).evaluate_all(&[cell]).unwrap();
        assert_eq!(*again[0], *one);
        assert_eq!(
            ctx.batch_stats().packed_candidates,
            0,
            "width 1 never packs"
        );
    }

    /// A plugin that counts how often it runs.
    struct CountingProxy(Arc<AtomicUsize>);

    impl Proxy for CountingProxy {
        fn id(&self) -> &str {
            "counting"
        }
        fn config_fingerprint(&self) -> u64 {
            0
        }
        fn evaluate_with(
            &self,
            cell: CellTopology,
            _dataset: DatasetKind,
            _seed: u64,
            _workspace: &mut micronas_tensor::Workspace,
        ) -> micronas_proxies::Result<f64> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(micronas_store::ArchDigest::of(&cell).value() as f64)
        }
    }

    #[test]
    fn each_canonical_key_is_computed_once_per_context() {
        let config = MicroNasConfig::tiny_test();
        let a = asymmetric_cell();
        let b = CellTopology::new([
            Operation::NorConv1x1,
            Operation::AvgPool3x3,
            Operation::None,
            Operation::SkipConnect,
            Operation::NorConv3x3,
            Operation::SkipConnect,
        ]);
        let twin = |cell: CellTopology| cell.intermediate_swap().unwrap();
        let slate = [a, a, twin(a), b, twin(b), a];
        assert_ne!(a.canonical_form(), b.canonical_form());
        assert!(twin(a) != a && twin(b) != b, "twins are distinct cells");

        // (label, shared store?, pack width or None for one-at-a-time, threads)
        let mut arms = Vec::new();
        for shared in [false, true] {
            for threads in [1usize, 4] {
                for width in [1usize, 8] {
                    arms.push((shared, Some(width), threads));
                }
            }
            arms.push((shared, None, 1));
        }
        let mut stats = Vec::new();
        for (shared, width, threads) in arms {
            let runs = Arc::new(AtomicUsize::new(0));
            let store = shared.then(|| Arc::new(EvalStore::in_memory(config.store_namespace())));
            let ctx = SearchContext::with_proxies(
                DatasetKind::Cifar10,
                &config,
                store,
                vec![Arc::new(CountingProxy(runs.clone()))],
            )
            .unwrap()
            .with_pack_width(width.unwrap_or(1));
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let evals = pool.install(|| match width {
                Some(_) => BatchedEvaluator::new(&ctx).evaluate_all(&slate).unwrap(),
                None => slate.iter().map(|&c| ctx.evaluate(c).unwrap()).collect(),
            });
            let label = format!("shared {shared}, width {width:?}, {threads} threads");
            assert_eq!(evals[1].metrics, evals[2].metrics, "{label}");
            assert_eq!(
                runs.load(Ordering::Relaxed),
                2,
                "{label}: the plugin runs once per distinct canonical key"
            );
            stats.push((label, ctx.cache_stats()));
        }
        for (label, s) in &stats {
            assert_eq!(*s, stats[0].1, "{label} vs {}", stats[0].0);
        }
        assert_eq!(
            stats[0].1,
            EvalCacheStats {
                hits: 6 * 3 - 6,
                misses: 6
            },
            "2 keys × 3 records computed, everything else shared"
        );
    }

    #[test]
    fn debug_format_mentions_dataset() {
        let config = MicroNasConfig::tiny_test();
        let ctx = SearchContext::new(DatasetKind::Cifar100, &config).unwrap();
        assert!(format!("{ctx:?}").contains("Cifar100"));
    }
}
