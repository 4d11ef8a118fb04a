//! The [`Proxy`] trait: the pluggable evaluation surface of the pipeline.
//!
//! A proxy is a train-free scoring function of an architecture. Every proxy
//! carries a **stable string id** and a **configuration fingerprint**; the
//! pair forms the proxy's persistent identity, which evaluation stores use
//! to key cached results (`micronas-store` hashes them into its
//! `ProxyKind::Custom` arm). Scores are plain `f64` values, **larger is
//! better**, so per-metric objective weights compose them without
//! per-proxy special cases.
//!
//! The built-in indicators — NTK trainability ([`NtkProxy`]), linear-region
//! expressivity ([`LinearRegionProxy`]), SynFlow-style saliency
//! ([`crate::SynFlowProxy`]) and the Jacobian-covariance score
//! ([`crate::JacobianCovarianceProxy`]) — all implement the trait; external
//! crates can implement it for their own indicators and plug them into a
//! search session unchanged.

use crate::{LinearRegionConfig, LinearRegionEvaluator, NtkConfig, NtkEvaluator, Result};
use micronas_datasets::DatasetKind;
use micronas_nn::ProxyNetworkConfig;
use micronas_searchspace::CellTopology;
use micronas_tensor::{hash_mix, InitKind, Workspace};

/// A pluggable zero-cost proxy.
///
/// Implementations must be pure functions of `(cell, dataset, seed,
/// configuration)`: two calls with identical inputs return bitwise-identical
/// scores, on any thread, so results can be cached, shared across processes
/// and reproduced exactly.
pub trait Proxy: Send + Sync {
    /// Stable string id of the proxy family (e.g. `"ntk"`, `"synflow"`).
    ///
    /// The id doubles as the metric id the score is published under, and is
    /// hashed into persistent store keys — it must never change once results
    /// have been persisted.
    fn id(&self) -> &str;

    /// Stable fingerprint of the proxy's configuration values.
    ///
    /// Two instances with the same id but different fingerprints must never
    /// share cached results. Hash explicit value encodings (field bits
    /// folded with a fixed mix), never `Debug` renderings or `std` hashes,
    /// whose output can drift across toolchains.
    fn config_fingerprint(&self) -> u64;

    /// Evaluates the proxy score of `cell` (larger is better), threading an
    /// explicit scratch arena.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::ProxyError`] if the configuration is invalid or an
    /// underlying numerical step fails.
    fn evaluate_with(
        &self,
        cell: CellTopology,
        dataset: DatasetKind,
        seed: u64,
        workspace: &mut Workspace,
    ) -> Result<f64>;

    /// [`Proxy::evaluate_with`] on the shared per-thread scratch arena
    /// ([`crate::with_thread_workspace`]), which stays warm across
    /// candidates.
    ///
    /// # Errors
    ///
    /// Propagates [`Proxy::evaluate_with`] failures.
    fn evaluate(&self, cell: CellTopology, dataset: DatasetKind, seed: u64) -> Result<f64> {
        crate::with_thread_workspace(|workspace| self.evaluate_with(cell, dataset, seed, workspace))
    }
}

/// Folds a [`ProxyNetworkConfig`] into a fingerprint accumulator with the
/// shared stable mix. Public so external [`Proxy`] implementations reusing
/// the proxy-network substrate fingerprint it consistently.
pub fn fingerprint_network(mut h: u64, net: &ProxyNetworkConfig) -> u64 {
    for v in [
        net.input_channels,
        net.input_resolution,
        net.channels,
        net.num_cells,
        net.num_classes,
    ] {
        h = hash_mix(h, v as u64);
    }
    let init_tag: u64 = match net.init {
        InitKind::KaimingNormal => 0,
        InitKind::KaimingUniform => 1,
        InitKind::XavierUniform => 2,
    };
    hash_mix(h, init_tag)
}

/// Folds an execution backend's identity into a proxy fingerprint — but
/// **only** for backends that are not bitwise-identical to the paper
/// default. A backend with divergent numerics produces different scores for
/// the same `(cell, dataset, seed, config)` and must therefore never share
/// cached results with the default pipeline; the paper-default backend folds
/// nothing, so pre-existing fingerprints (and every record persisted under
/// them) stay valid. Public so external [`Proxy`] implementations that
/// thread a backend apply the same rule.
pub fn fold_backend(h: u64, backend: &dyn micronas_tensor::KernelBackend) -> u64 {
    if backend.bitwise_paper_identical() {
        h
    } else {
        hash_mix(h, backend.config_fingerprint())
    }
}

/// Seed of every fingerprint chain ("MicroNAS" in ASCII).
const FINGERPRINT_SEED: u64 = 0x4D69_6372_6F4E_4153;

/// Domain-separation seed for proxy config fingerprints: `hash_mix` chains
/// started from distinct per-proxy tags can never collide structurally.
pub(crate) fn fingerprint_domain(tag: &str) -> u64 {
    tag.bytes()
        .fold(FINGERPRINT_SEED, |h, b| hash_mix(h, b as u64))
}

/// The NTK trainability indicator as a pluggable [`Proxy`].
///
/// Publishes the trainability score (negated log condition number, larger
/// is better) under the id [`crate::metric_ids::TRAINABILITY`]'s producer id
/// `"ntk"`.
#[derive(Debug, Clone)]
pub struct NtkProxy {
    evaluator: NtkEvaluator,
}

impl NtkProxy {
    /// Wraps an NTK configuration.
    pub fn new(config: NtkConfig) -> Self {
        Self {
            evaluator: NtkEvaluator::new(config),
        }
    }

    /// Wraps a fully configured evaluator (e.g. one pinned to a
    /// non-default execution backend via [`NtkEvaluator::with_backend`]).
    pub fn from_evaluator(evaluator: NtkEvaluator) -> Self {
        Self { evaluator }
    }

    /// The underlying evaluator.
    pub fn evaluator(&self) -> &NtkEvaluator {
        &self.evaluator
    }
}

impl Proxy for NtkProxy {
    fn id(&self) -> &str {
        "ntk"
    }

    fn config_fingerprint(&self) -> u64 {
        let c = self.evaluator.config();
        let mut h = fingerprint_domain("micronas/proxy/ntk");
        h = hash_mix(h, c.batch_size as u64);
        h = hash_mix(h, c.repeats as u64);
        h = hash_mix(h, c.max_condition_index as u64);
        h = fingerprint_network(h, &c.network);
        fold_backend(h, self.evaluator.backend().as_ref())
    }

    fn evaluate_with(
        &self,
        cell: CellTopology,
        dataset: DatasetKind,
        seed: u64,
        workspace: &mut Workspace,
    ) -> Result<f64> {
        Ok(self
            .evaluator
            .evaluate_in(cell, dataset, seed, workspace)?
            .trainability_score())
    }
}

/// The linear-region expressivity indicator as a pluggable [`Proxy`].
///
/// Publishes the expressivity score (log region count, larger is better)
/// under the id `"linear_region_score"` — deliberately *not*
/// [`crate::metric_ids::LINEAR_REGIONS`], which names the built-in raw-count
/// metric every candidate already carries (plugin ids may not collide with
/// built-in metric ids, or the plugin would overwrite the built-in entry).
/// This keeps the adapter registrable alongside the built-ins, e.g. to run
/// a second linear-region probe at a different segment count.
#[derive(Debug, Clone)]
pub struct LinearRegionProxy {
    evaluator: LinearRegionEvaluator,
}

impl LinearRegionProxy {
    /// Wraps a linear-region configuration.
    pub fn new(config: LinearRegionConfig) -> Self {
        Self {
            evaluator: LinearRegionEvaluator::new(config),
        }
    }

    /// Wraps a fully configured evaluator, e.g. one running on an explicit
    /// execution backend via [`LinearRegionEvaluator::with_backend`].
    pub fn from_evaluator(evaluator: LinearRegionEvaluator) -> Self {
        Self { evaluator }
    }

    /// The underlying evaluator.
    pub fn evaluator(&self) -> &LinearRegionEvaluator {
        &self.evaluator
    }
}

impl Proxy for LinearRegionProxy {
    fn id(&self) -> &str {
        "linear_region_score"
    }

    fn config_fingerprint(&self) -> u64 {
        let c = self.evaluator.config();
        let mut h = fingerprint_domain("micronas/proxy/linear_regions");
        h = hash_mix(h, c.num_segments as u64);
        h = hash_mix(h, c.points_per_segment as u64);
        h = fingerprint_network(h, &c.network);
        fold_backend(h, self.evaluator.backend().as_ref())
    }

    fn evaluate_with(
        &self,
        cell: CellTopology,
        dataset: DatasetKind,
        seed: u64,
        workspace: &mut Workspace,
    ) -> Result<f64> {
        Ok(self
            .evaluator
            .evaluate_in(cell, dataset, seed, workspace)?
            .expressivity_score())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric_ids;
    use micronas_searchspace::SearchSpace;

    #[test]
    fn built_in_proxies_match_their_evaluators() {
        let space = SearchSpace::nas_bench_201();
        let cell = space.cell(8_888).unwrap();

        let ntk = NtkProxy::new(NtkConfig::fast());
        let direct = NtkEvaluator::new(NtkConfig::fast())
            .evaluate(cell, DatasetKind::Cifar10, 3)
            .unwrap();
        assert_eq!(
            ntk.evaluate(cell, DatasetKind::Cifar10, 3).unwrap(),
            direct.trainability_score(),
            "the trait adapter must be bitwise-identical to the evaluator"
        );

        let lr = LinearRegionProxy::new(LinearRegionConfig::fast());
        let direct = LinearRegionEvaluator::new(LinearRegionConfig::fast())
            .evaluate(cell, DatasetKind::Cifar10, 3)
            .unwrap();
        assert_eq!(
            lr.evaluate(cell, DatasetKind::Cifar10, 3).unwrap(),
            direct.expressivity_score()
        );
    }

    #[test]
    fn fingerprints_track_configuration_values() {
        let a = NtkProxy::new(NtkConfig::fast());
        let b = NtkProxy::new(NtkConfig::fast());
        assert_eq!(a.config_fingerprint(), b.config_fingerprint());
        let c = NtkProxy::new(NtkConfig::fast().with_batch_size(16));
        assert_ne!(a.config_fingerprint(), c.config_fingerprint());

        let d = LinearRegionProxy::new(LinearRegionConfig::fast());
        let mut cfg = LinearRegionConfig::fast();
        cfg.num_segments += 1;
        let e = LinearRegionProxy::new(cfg);
        assert_ne!(d.config_fingerprint(), e.config_fingerprint());
        // Different proxy families never share a fingerprint domain.
        assert_ne!(a.config_fingerprint(), d.config_fingerprint());
    }

    #[test]
    fn ids_are_stable() {
        assert_eq!(NtkProxy::new(NtkConfig::fast()).id(), "ntk");
        assert_eq!(
            LinearRegionProxy::new(LinearRegionConfig::fast()).id(),
            "linear_region_score",
            "must not collide with the built-in raw-count metric id"
        );
        assert_ne!(
            LinearRegionProxy::new(LinearRegionConfig::fast()).id(),
            metric_ids::LINEAR_REGIONS
        );
    }

    #[test]
    fn proxies_are_object_safe_and_shareable() {
        let proxies: Vec<std::sync::Arc<dyn Proxy>> = vec![
            std::sync::Arc::new(NtkProxy::new(NtkConfig::fast())),
            std::sync::Arc::new(LinearRegionProxy::new(LinearRegionConfig::fast())),
        ];
        let ids: Vec<&str> = proxies.iter().map(|p| p.id()).collect();
        assert_eq!(ids, ["ntk", "linear_region_score"]);
    }
}
