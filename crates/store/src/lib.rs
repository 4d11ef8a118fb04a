//! `micronas-store`: a shared, persistent evaluation store with
//! content-addressed architecture identity.
//!
//! Every experiment in the MicroNAS evaluation — the Fig. 2 correlation
//! studies, Table I, the latency sweeps, the 1104× efficiency comparison —
//! re-scores largely overlapping sets of NAS-Bench-201 cells. Before this
//! crate, each `SearchContext` cached privately and forgot everything at
//! process exit. This crate gives every proxy and hardware evaluation a
//! durable, shareable identity and a lifetime beyond a single search:
//!
//! 1. **Identity** ([`ArchDigest`], [`EvalKey`]): a cell is identified by a
//!    version-stamped digest of its *canonical form* (the representative of
//!    its isomorphism orbit under intermediate-node relabeling — see
//!    `micronas_searchspace::CellTopology::canonical_form`). Digests use
//!    FNV-1a (64-bit), a publicly specified hash with fixed constants, never
//!    `std::hash::DefaultHasher` (whose output may change across Rust
//!    releases and would orphan every persisted record). A full evaluation
//!    key adds the dataset, seed and [`ProxyKind`].
//! 2. **Store** ([`EvalStore`]): a striped concurrent map (16 `RwLock`
//!    shards) in front of an optional append-only on-disk log with
//!    per-record FNV-1a checksums, crash-tolerant tail recovery and offline
//!    compaction ([`EvalStore::compact_path`]). Rayon workers share warm
//!    hits without a global lock.
//! 3. **Scoping**: stores are namespaced by an evaluation-configuration
//!    fingerprint so records can never leak between incompatible
//!    proxy/hardware configurations; the log header pins the namespace and
//!    refuses to open under a different one. Namespaces must hash explicit,
//!    version-tagged value encodings — see
//!    `micronas::MicroNasConfig::store_namespace` for the pipeline's — never
//!    `Debug` renderings or `std` hashes, whose output can drift.
//!
//! The `micronas` core crate threads an `Arc<EvalStore>` through
//! `SearchContext` and all search strategies, and its
//! `experiments::run_paper_sweep` driver runs the paper's full grid against
//! one store so later experiments — in the same process or a later one —
//! reuse earlier work. Search results are bitwise-identical with the store
//! enabled, disabled or pre-warmed, because evaluations are always computed
//! on the canonical orbit representative.
//!
//! # Example
//!
//! ```
//! use micronas_datasets::DatasetKind;
//! use micronas_proxies::ZeroCostMetrics;
//! use micronas_searchspace::SearchSpace;
//! use micronas_store::{EvalKey, EvalRecord, EvalStore};
//!
//! let space = SearchSpace::nas_bench_201();
//! let store = EvalStore::in_memory(0);
//! let key = EvalKey::zero_cost(&space.cell(4_242).unwrap(), DatasetKind::Cifar10, 0, 32);
//! store.insert(key, EvalRecord::ZeroCost(ZeroCostMetrics {
//!     ntk_condition: 12.0,
//!     linear_regions: 40,
//!     trainability: -2.48,
//!     expressivity: 3.69,
//! })).unwrap();
//! assert!(store.get(&key).is_some());
//! assert_eq!(store.stats().hits, 1);
//! ```

#![warn(missing_docs)]

mod error;
mod fnv;
mod identity;
pub mod log;
mod record;
mod remote;
mod store;

pub use error::StoreError;
pub use fnv::{fnv1a64, Fnv1a};
pub use identity::{custom_proxy_digest, ArchDigest, EvalKey, ProxyKind, IDENTITY_VERSION};
pub use log::CompactStats;
pub use record::{
    decode_entry, decode_key, encode_entry, encode_key, EvalRecord, NtkSpectrumRecord,
    MAX_SPECTRUM_INDICES,
};
pub use remote::RemoteBackend;
pub use store::{EvalStore, StoreOptions, StoreStats};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StoreError>;
