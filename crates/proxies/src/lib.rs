//! Zero-cost proxies for train-free architecture ranking.
//!
//! MicroNAS scores candidate architectures at random initialisation with two
//! network-analysis indicators plus hardware proxies (the latter live in
//! `micronas-hw`):
//!
//! * **Trainability** — the condition number of the neural tangent kernel
//!   (NTK) Gram matrix of a single mini-batch ([`NtkEvaluator`], §II-A.1 of
//!   the paper). Small condition numbers indicate well-conditioned training
//!   dynamics. The evaluator also exposes the generalised index
//!   `K_i = λ_max / λ_i` needed for the Fig. 2a sweep and supports arbitrary
//!   batch sizes for the Fig. 2b sweep.
//! * **Expressivity** — the number of linear regions the ReLU network carves
//!   the input space into ([`LinearRegionEvaluator`], §II-A.2). The count is
//!   estimated by walking random segments through input space and counting
//!   activation-pattern transitions, a graded estimator that stays
//!   informative at proxy scale.
//!
//! [`ZeroCostEvaluator`] bundles both indicators, and [`correlation`]
//! provides the Kendall-τ / Spearman rank statistics used throughout the
//! paper's analysis.
//!
//! # The pluggable proxy surface
//!
//! Every indicator is also available as a [`Proxy`] — an object-safe trait
//! with a stable string id, a configuration fingerprint (both feed the
//! evaluation store's persistent keys) and a workspace-threaded
//! `evaluate → f64` (larger is better). [`MetricSet`] carries the resulting
//! named scores, and two additional proxies ship as proof of extensibility:
//! [`SynFlowProxy`] (parameter saliency) and [`JacobianCovarianceProxy`]
//! (gradient diversity). Adding an indicator to a search is "implement
//! [`Proxy`], register it" — no enum to extend, no signature to change.
//!
//! # Example
//!
//! ```no_run
//! use micronas_datasets::DatasetKind;
//! use micronas_proxies::{NtkConfig, NtkProxy, Proxy, SynFlowConfig, SynFlowProxy};
//! use micronas_searchspace::SearchSpace;
//!
//! let space = SearchSpace::nas_bench_201();
//! let proxies: Vec<Box<dyn Proxy>> = vec![
//!     Box::new(NtkProxy::new(NtkConfig::fast())),
//!     Box::new(SynFlowProxy::new(SynFlowConfig::fast())),
//! ];
//! for proxy in &proxies {
//!     let score = proxy.evaluate(space.cell(8_888).unwrap(), DatasetKind::Cifar10, 0).unwrap();
//!     println!("{}: {score}", proxy.id());
//! }
//! ```

#![warn(missing_docs)]

pub mod correlation;
mod error;
mod jacobian;
mod linear_regions;
mod metric;
mod ntk;
mod proxy;
mod scratch;
mod synflow;
mod zero_cost;

pub use error::ProxyError;
pub use jacobian::{JacobianCovarianceConfig, JacobianCovarianceProxy};
pub use linear_regions::{LinearRegionConfig, LinearRegionEvaluator, LinearRegionReport};
pub use metric::{metric_ids, MetricSet};
pub use ntk::{NtkConfig, NtkEvaluator, NtkReport};
pub use proxy::{fingerprint_network, fold_backend, LinearRegionProxy, NtkProxy, Proxy};
pub use scratch::with_thread_workspace;
pub use synflow::{SynFlowConfig, SynFlowProxy};
pub use zero_cost::{ZeroCostEvaluator, ZeroCostMetrics};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ProxyError>;
