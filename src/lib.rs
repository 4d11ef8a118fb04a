//! Umbrella crate for the MicroNAS reproduction workspace.
//!
//! This crate exists so that the repository-level `examples/` and `tests/`
//! directories have a package to belong to. It simply re-exports every
//! member crate under a short alias so examples can write
//! `use micronas_suite::proxies::NtkConfig;` etc.
//!
//! # The pluggable search API (PR 4)
//!
//! Search runs are configured through one builder and three traits:
//!
//! * [`core::SearchSession`] — `SearchSession::builder()` sets the dataset,
//!   proxy configuration, pluggable proxies, per-metric objective weights,
//!   optional shared evaluation store and optional progress observer.
//! * [`proxies::Proxy`] — any train-free indicator with a stable string id
//!   and config fingerprint. The built-ins (NTK, linear regions) and the
//!   extension proxies ([`proxies::SynFlowProxy`],
//!   [`proxies::JacobianCovarianceProxy`]) all implement it; scores land
//!   in an id-keyed [`proxies::MetricSet`] per candidate and are cached in
//!   the store under `ProxyKind::Custom` keys.
//! * [`core::SearchStrategy`] — the pruning search and both baselines
//!   behind one object-safe `search(ctx, observer)`;
//!   [`core::SearchObserver`] receives one deterministic
//!   [`core::SearchEvent`] per decision step.
//!
//! ```no_run
//! use micronas_suite::core::{MicroNasConfig, ObjectiveWeights, SearchSession};
//! use micronas_suite::datasets::DatasetKind;
//!
//! # fn main() -> Result<(), micronas_suite::core::MicroNasError> {
//! let session = SearchSession::builder()
//!     .dataset(DatasetKind::Cifar10)
//!     .config(MicroNasConfig::fast())
//!     .objective(ObjectiveWeights::latency_guided(2.0))
//!     .build()?;
//! let outcome = session.run_micronas()?;
//! # let _ = outcome;
//! # Ok(())
//! # }
//! ```
//!
//! ## Migrating from the pre-PR 4 API
//!
//! | Before (≤ PR 3) | After |
//! |-----------------|-------|
//! | `SearchContext::new(ds, &cfg)?` + `MicroNasSearch::new(w, &cfg).run(&ctx)?` | `SearchSession::builder().dataset(ds).config(cfg).objective(w).build()?.run_micronas()?` |
//! | `MicroNasSearch::new(weights, &config)` | `MicroNasSearch::new(weights)` (the config parameter was silently ignored) |
//! | `MicroNasSearch::te_nas_baseline(&config)` | `MicroNasSearch::te_nas_baseline()` |
//! | `SearchContext::with_store(ds, &cfg, store)` | `SearchSession::builder()...store(store).build()?` (contexts remain available for low-level use) |
//! | `eval.zero_cost.trainability` | `eval.metrics.trainability()` / `eval.metrics.get("trainability")` |
//! | `ObjectiveWeights { trainability, expressivity, .. }` | per-metric-id weights: presets (`accuracy_only()`, `latency_guided(w)`, …) plus `.with_metric(id, w)` |
//! | `objective.score(&zero_cost, &hw)` | `objective.score(&metrics, &hw)` with a [`proxies::MetricSet`] |
//!
//! The paper-default pipeline is bitwise-identical across the migration
//! (pinned by `tests/paper_identity.rs`), and persisted stores keep
//! resolving: the pre-existing `ProxyKind` encodings are golden-tested in
//! `crates/store/tests/golden_keys.rs`, so no namespace bump was needed.
//!
//! # Execution backends (PR 5)
//!
//! Every kernel the proxy networks run — convolution forward/backward,
//! per-sample weight gradients, pooling, the linear-layer GEMMs and the NTK
//! Gram build — dispatches through the object-safe
//! [`tensor::KernelBackend`] trait, the only public way to run a conv or
//! pool kernel. Three backends ship ([`tensor::all_backends`] is the
//! conformance-suite registry):
//!
//! | backend (`id`) | what it is | numerics |
//! |----------------|------------|----------|
//! | [`tensor::DirectBackend`] (`"direct"`) | naive-loop oracle | reference |
//! | [`tensor::BlockedGemmBackend`] (`"blocked_gemm"`) | im2col + cache-blocked GEMM, the **paper default** | bitwise-identical to the pre-backend pipeline |
//! | [`tensor::SimdBackend`] (`"simd"`) | hand-tiled AVX2+FMA micro-kernels, fixed-size rayon batch chunking | FMA-contracted; tolerance-gated, bitwise-deterministic at any thread count |
//!
//! Selection threads through every layer: `MicroNasConfig::with_backend`
//! and `SearchSession::builder().backend(..)` pick a
//! [`tensor::KernelBackendKind`] for a whole search;
//! `CellNetwork::with_backend`, `NtkEvaluator::with_backend` and
//! `LinearRegionEvaluator::with_backend` pin individual networks and
//! evaluators. No process-global setting changes which kernel runs: the
//! paper default's direct-vs-GEMM choice is a pure function of the shape.
//! **Store identity:** a backend that is
//! not bitwise-identical to the paper default folds its `(id, fingerprint)`
//! into `MicroNasConfig::store_namespace`, so persisted logs written under
//! different numerics *refuse to open* instead of serving values the
//! backend cannot reproduce; the default backend folds nothing and every
//! pre-backend log keeps resolving.
//!
//! # Cross-candidate mega-batching (PR 6 forward, PR 10 backward + slates)
//!
//! Strategies no longer evaluate candidates one at a time: every shipped
//! [`core::SearchStrategy`] hands its whole candidate slate to a
//! [`core::BatchedEvaluator`]. It first resolves the slate serially
//! against the context's handle cache and store, reading each distinct
//! canonical record key once, and counts every hit and miss there. Only
//! the true misses reach the [`core::SlateScheduler`], which plans them
//! into packs of up to [`core::SearchContext::pack_width`] cells (default
//! [`core::DEFAULT_PACK_WIDTH`] = 8, tunable per session via
//! `SearchSession::builder().pack_width(..)`). Planning looks at the
//! whole slate, not arrival order: the misses bucket by geometry
//! signature, and each bucket emits maximal-fill packs with remainders
//! coalesced — exactly `ceil(misses / width)` dispatches, so warm hits
//! leave no holes in packs. Results are committed and reassembled in
//! slate order. Each pack then runs as one fused proxy sweep:
//!
//! * the probe input batch is built once and shared by the whole pack;
//! * the shared stem runs **one** forward for all pack members;
//! * every node value the members compute alike (equal prefixes) is
//!   computed once, and per-edge convolutions are bucketed by kernel
//!   geometry into one packed dispatch per layer
//!   ([`tensor::KernelBackend::conv2d_forward_packed`]) that runs each
//!   distinct input image by image on the solo GEMM path (the paper's
//!   conv3×3 multiplies each zero-padded image in place, no im2col);
//! * the per-sample gradient sweep runs the same lockstep *backward*:
//!   per (cell, edge, kernel-size) buckets dispatch through
//!   [`tensor::KernelBackend::conv2d_backward_weight_per_sample_packed`],
//!   which lowers the shared probe batch once for every member's stem,
//!   and through its input-gradient companion, a per-member loop of the
//!   solo kernel.
//!
//! Why this stays **bitwise identical** to one-at-a-time evaluation: the
//! packed kernels iterate the exact solo per-candidate schedule — same
//! direct-vs-GEMM dispatch decision, same GEMM shapes, same per-member
//! accumulation order — and share work only between bitwise-equal
//! operands (equal input bytes are lowered to one im2col panel; equal
//! bytes in, equal bytes out). The blocked-GEMM backend overrides the
//! packed weight-gradient and forward entry points; every other backend
//! inherits a per-member loop with identical numerics. A solo evaluation
//! is the same sweep over a pack of one. The cross-product is pinned in CI
//! (`crates/core/tests/strategy_conformance.rs` over strategies × widths
//! × threads; `tests/backend_conformance.rs` over gradient backends ×
//! widths × threads), and the store namespace did not move.
//!
//! Measured effect (1-core container, width 8, best-of-3): **1.57×** on
//! the sparse bench cell from forward packing alone, and a further
//! **1.51×** end-to-end from the packed backward over forward-only
//! packing on the same cell (both measured before the forward-only path
//! and its bench arm were retired). Pack density is
//! observable as [`core::BatchStats`] on every [`core::SearchCost`],
//! now split into forward/backward kernel fill. The `candidate_throughput`
//! bench gates packed against one-at-a-time evaluation in CI smoke mode,
//! and exact counter tests hold the work of both sweeps
//! (`crates/nn/tests/pack_sharing_footprint.rs`,
//! `crates/nn/tests/pack_backward_footprint.rs`).
//!
//! # Observability (PR 7)
//!
//! The [`telemetry`] crate ([`micronas_telemetry`]) instruments the whole
//! stack with three zero-dependency primitives:
//!
//! * **Hierarchical span timers** — every layer wraps its hot phases in
//!   RAII [`telemetry::span!`] guards (`"tensor.gemm"`, `"nn.stem_forward"`,
//!   `"proxy.ntk.eigensolve"`, `"store.log_append"`, `"strategy.step"`, …).
//!   A [`telemetry::Collector`] aggregates them per label into call counts,
//!   totals, maxima and p50/p90/p99 from fixed log2-bucket histograms — no
//!   allocation on the hot path, thread-aware via sharded maps.
//! * **A metrics registry** — named atomic counters and gauges behind the
//!   [`telemetry::TelemetrySink`] trait: kernel dispatch counts per backend
//!   (`tensor.backend.blocked_gemm.*`), im2col bytes, workspace high-water,
//!   store hits/misses/evictions, pack fill counters (`search.pack.*`).
//!   The default [`telemetry::NullSink`] keeps the disabled fast path — one
//!   relaxed atomic load per probe.
//! * **A deterministic event recorder** — [`core::EventRecorder`] is a
//!   [`core::SearchObserver`] that serializes every [`core::SearchEvent`]
//!   to JSONL with step scores as exact `f64::to_bits` hex; wall-clock data
//!   is segregated in a `"timing"` section that [`core::replay_diff`]
//!   ignores, so two same-seed searches record byte-identical deterministic
//!   streams and [`core::replay_events`] parses them back into typed
//!   [`core::RecordedEvent`]s.
//!
//! Attach a sink per session with `SearchSession::builder().telemetry(..)`,
//! or trace the whole paper grid with
//! [`core::experiments::run_paper_sweep_traced`], which folds the
//! [`telemetry::TelemetryReport`] (human-readable via
//! `TelemetryReport::table()`, machine-readable via `to_json()`) into the
//! sweep report:
//!
//! ```no_run
//! use micronas_suite::core::{MicroNasConfig, SearchSession};
//! use micronas_suite::telemetry::Collector;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), micronas_suite::core::MicroNasError> {
//! let collector = Arc::new(Collector::new());
//! let session = SearchSession::builder()
//!     .config(MicroNasConfig::fast())
//!     .telemetry(collector.clone())
//!     .build()?;
//! let outcome = session.run_micronas()?;
//! println!("{}", collector.report().table());
//! # let _ = outcome;
//! # Ok(())
//! # }
//! ```
//!
//! Telemetry is **provably inert**: the `tests/telemetry_inertness.rs`
//! suite pins the paper-identity fingerprints and all cache/batch counters
//! bitwise-identical with the sink off, on and recording, at one and many
//! rayon threads. `examples/telemetry_trace.rs` runs a traced paper sweep
//! end to end and validates a recorded event stream replays clean.
//!
//! # Deployment topologies (PR 9): from one process to a fleet
//!
//! The evaluation store has always been the unit of sharing; the [`fabric`]
//! crate ([`micronas_fabric`]) makes it the unit of *distribution*. Three
//! topologies, in increasing order of ambition — all three produce
//! **bitwise-identical** search results, because the fabric only changes
//! where warm [`store::EvalRecord`]s come from, never what is computed:
//!
//! 1. **Single process** — the default. `SearchSession::builder().build()`
//!    evaluates everything locally; an in-memory [`store::EvalStore`]
//!    deduplicates within the run.
//! 2. **Warm local store** — `EvalStore::open` a log file and pass it to
//!    the session; repeat runs replay cached evaluations from disk.
//! 3. **Fabric fleet** — each worker machine runs a [`fabric::FabricNode`]
//!    serving its shard of the keyspace over loopback/LAN TCP, and each
//!    search process joins via `SearchSession::builder().fabric(..)` (or
//!    [`core::MicroNasConfig::fabric`]). A deterministic consistent-hash
//!    ring ([`fabric::HashRing`], virtual-node placement, identical on
//!    every worker with no coordination service) routes each
//!    `EvalKey::shard_hash` to its owning node; local misses read through
//!    the ring ([`fabric::RemoteTier`]), and fresh evaluations are offered
//!    back write-behind on a bounded queue that never blocks the search.
//!
//! The wire protocol reuses the store log's checksummed frame codec
//! byte-for-byte, and every connection opens with a `Hello` carrying the
//! worker's [`core::MicroNasConfig::store_namespace`] fingerprint — a node
//! serving a divergent evaluation configuration refuses the handshake,
//! naming both fingerprints in hex, exactly like a namespace-mismatched
//! store log refuses to open. Fabric membership itself deliberately does
//! **not** fold into the namespace: joining, leaving, or resizing a fleet
//! never invalidates warm records.
//!
//! Failure is a first-class state, not an error: per-request timeouts and
//! bounded retries bound the cost of a sick peer, and a peer that keeps
//! failing is marked dead and drops out of the ring (its arc falls to the
//! next live node; everyone else's shards stay warm). With every peer dead
//! the tier degrades to local recompute — slower, never wrong, and visible
//! in telemetry (`fabric.degraded`, `fabric.remote.*`,
//! `fabric.writebehind.*`, `fabric.node.*` counters). A
//! [`fabric::CompactionDaemon`] rewrites idle node logs on a schedule,
//! skipping logs that are live-locked. `tests/fabric_integration.rs` pins
//! the paper fingerprint across warm two-node and kill-a-node topologies;
//! `examples/fabric_cluster.rs` runs a three-node ring end to end.
//!
//! # Crate map
//!
//! * [`tensor`] — dense tensors and linear algebra ([`micronas_tensor`])
//! * [`nn`] — neural-network substrate with explicit backprop ([`micronas_nn`])
//! * [`searchspace`] — the NAS-Bench-201 cell search space ([`micronas_searchspace`])
//! * [`datasets`] — synthetic CIFAR-style dataset generators ([`micronas_datasets`])
//! * [`nasbench`] — the surrogate accuracy benchmark ([`micronas_nasbench`])
//! * [`mcu`] — cycle-approximate Cortex-M7 MCU model ([`micronas_mcu`])
//! * [`hw`] — FLOPs / latency / memory hardware indicators ([`micronas_hw`])
//! * [`proxies`] — pluggable zero-cost proxies ([`micronas_proxies`])
//! * [`store`] — shared, persistent evaluation store ([`micronas_store`])
//! * [`fabric`] — distributed evaluation fabric over TCP ([`micronas_fabric`])
//! * [`telemetry`] — spans, metrics and the event-line format ([`micronas_telemetry`])
//! * [`core`] — sessions, strategies and the experiment harness ([`micronas`])

pub use micronas as core;
pub use micronas_datasets as datasets;
pub use micronas_fabric as fabric;
pub use micronas_hw as hw;
pub use micronas_mcu as mcu;
pub use micronas_nasbench as nasbench;
pub use micronas_nn as nn;
pub use micronas_proxies as proxies;
pub use micronas_searchspace as searchspace;
pub use micronas_store as store;
pub use micronas_telemetry as telemetry;
pub use micronas_tensor as tensor;
