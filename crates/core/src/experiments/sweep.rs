//! The paper-grid sweep driver: every headline experiment of the paper's
//! evaluation — Fig. 2a, Fig. 2b, Table I and the latency-constraint sweep —
//! executed against **one** shared evaluation store.
//!
//! The experiments overlap heavily: Fig. 2a and Fig. 2b score the same
//! architecture sample (Fig. 2b at several batch sizes, one of which is the
//! paper's adopted setting that Fig. 2a uses), and Table I plus the
//! constraint sweep both run pruning searches whose candidate sets
//! intersect almost completely. Running the grid against a shared
//! [`EvalStore`] deduplicates all of it — within one run, across repeated
//! runs, and (with a persistent store) across processes. A warm store
//! serves the *entire* grid without a single proxy recomputation.
//!
//! Results are bitwise-identical whether the store is disabled, cold or
//! pre-warmed: every proxy evaluation is computed on the cell's canonical
//! orbit representative, making it a pure function of the store key. The
//! [`SweepReport::identity_fingerprint`] hashes exactly the deterministic
//! payload (taus, table rows, sweep points — not wall-clock times or cache
//! counters), so two reports can be compared across store modes with one
//! `u64` comparison.

use crate::experiments::fig2::{run_fig2a_in, run_fig2b_in};
use crate::experiments::sweeps::latency_sweep_in;
use crate::experiments::table1::table1_rows_in;
use crate::experiments::{Fig2aSeries, Fig2bResult, SweepPoint, Table1Row};
use crate::{EvolutionaryConfig, MicroNasConfig, Result, SearchSession};
use micronas_datasets::DatasetKind;
use micronas_store::{EvalStore, Fnv1a, StoreStats};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Scale parameters of one paper-grid sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepScale {
    /// Architectures sampled for the correlation studies (Fig. 2a/2b).
    pub correlation_sample: usize,
    /// Largest NTK condition index reported in Fig. 2a (and stored in every
    /// spectrum record of the sweep).
    pub spectrum_indices: usize,
    /// NTK batch sizes swept in Fig. 2b.
    pub fig2b_batch_sizes: Vec<usize>,
    /// Independent seeds for Fig. 2b.
    pub fig2b_seeds: usize,
    /// Hardware weights of the latency-constraint sweep.
    pub latency_weights: Vec<f64>,
    /// Budget of the µNAS-style evolutionary baseline in Table I.
    pub evolution: EvolutionaryConfig,
    /// Latency weight of the MicroNAS row in Table I.
    pub latency_weight: f64,
}

impl SweepScale {
    /// The paper-scale grid (hundreds of architectures, batch 4–128).
    pub fn paper() -> Self {
        Self {
            correlation_sample: 200,
            spectrum_indices: 16,
            fig2b_batch_sizes: vec![4, 8, 16, 32, 64, 128],
            fig2b_seeds: 3,
            latency_weights: vec![1.0, 2.0, 4.0, 8.0],
            evolution: EvolutionaryConfig::munas_default(),
            latency_weight: 4.0,
        }
    }

    /// A reduced-but-faithful scale for benchmarks and examples. The batch
    /// list includes the `fast` configuration's own NTK batch size so
    /// Fig. 2a's records are reused by Fig. 2b.
    pub fn fast() -> Self {
        Self {
            correlation_sample: 48,
            spectrum_indices: 6,
            fig2b_batch_sizes: vec![8, 12],
            fig2b_seeds: 2,
            latency_weights: vec![2.0, 8.0],
            evolution: EvolutionaryConfig::fast_test(),
            latency_weight: 2.0,
        }
    }

    /// The smallest meaningful grid, for unit tests.
    pub fn tiny() -> Self {
        Self {
            correlation_sample: 10,
            spectrum_indices: 3,
            fig2b_batch_sizes: vec![4],
            fig2b_seeds: 1,
            latency_weights: vec![2.0],
            evolution: EvolutionaryConfig::fast_test(),
            latency_weight: 2.0,
        }
    }
}

/// The output of one paper-grid sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Fig. 2a: Kendall-τ of `-K_i` vs accuracy per dataset.
    pub fig2a: Vec<Fig2aSeries>,
    /// Fig. 2b: Kendall-τ vs NTK batch size, per seed plus average.
    pub fig2b: Fig2bResult,
    /// Table I rows (µNAS, TE-NAS, MicroNAS).
    pub table1: Vec<Table1Row>,
    /// Latency-constraint sweep points.
    pub latency_sweep: Vec<SweepPoint>,
    /// Store counter deltas over this run (`None` without a store).
    pub store: Option<StoreStats>,
    /// Wall-clock duration of the whole grid, in seconds.
    pub wall_seconds: f64,
    /// Telemetry collected over the run (`None` unless the sweep ran
    /// through [`run_paper_sweep_traced`]). Timing data, like
    /// [`SweepReport::wall_seconds`], is explicitly **not** part of
    /// [`SweepReport::identity_fingerprint`].
    pub telemetry: Option<micronas_telemetry::TelemetryReport>,
}

impl SweepReport {
    /// Store hit rate of this run in `[0, 1]`; `None` without a store.
    pub fn hit_rate(&self) -> Option<f64> {
        self.store.as_ref().map(StoreStats::hit_rate)
    }

    /// Number of fresh proxy computations this run paid for; `None` without
    /// a store.
    pub fn recomputations(&self) -> Option<u64> {
        self.store.as_ref().map(|s| s.misses)
    }

    /// A stable fingerprint of the *deterministic* payload of the report:
    /// every τ, table row and sweep point, as exact f64 bit patterns —
    /// excluding wall-clock times, search times and cache counters. Two runs
    /// of the same grid agree on this fingerprint exactly when their results
    /// are bitwise identical.
    pub fn identity_fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for series in &self.fig2a {
            h.update(series.dataset.as_bytes());
            h.update(&(series.sample_size as u64).to_le_bytes());
            for &tau in &series.taus {
                h.update(&tau.to_bits().to_le_bytes());
            }
        }
        for &b in &self.fig2b.batch_sizes {
            h.update(&(b as u64).to_le_bytes());
        }
        for seed_taus in &self.fig2b.taus_per_seed {
            for &tau in seed_taus {
                h.update(&tau.to_bits().to_le_bytes());
            }
        }
        for &tau in &self.fig2b.average {
            h.update(&tau.to_bits().to_le_bytes());
        }
        for row in &self.table1 {
            h.update(row.framework.as_bytes());
            for v in [
                row.flops_m,
                row.params_m,
                row.latency_ms,
                row.speedup,
                row.accuracy,
            ] {
                h.update(&v.to_bits().to_le_bytes());
            }
        }
        for p in &self.latency_sweep {
            for v in [
                p.hardware_weight,
                p.latency_ms,
                p.flops_m,
                p.peak_sram_kib,
                p.accuracy,
                p.speedup_vs_baseline,
            ] {
                h.update(&v.to_bits().to_le_bytes());
            }
        }
        h.finish()
    }
}

/// Runs the full paper grid — Fig. 2a, Fig. 2b, Table I and the latency
/// sweep — against one (optional) shared evaluation store.
///
/// With a persistent store, repeating the sweep in a later process reuses
/// every evaluation: the warm run performs zero proxy recomputations
/// ([`SweepReport::recomputations`] returns `Some(0)`) while producing a
/// bitwise-identical [`SweepReport::identity_fingerprint`].
///
/// # Errors
///
/// Returns [`crate::MicroNasError::InvalidConfig`] if the store was opened
/// under a different configuration namespace (checked *before* anything is
/// read from or written to it), and propagates search, proxy and store
/// failures.
pub fn run_paper_sweep(
    config: &MicroNasConfig,
    scale: &SweepScale,
    store: Option<Arc<EvalStore>>,
) -> Result<SweepReport> {
    run_sweep_inner(config, scale, store, None)
}

/// Runs the same paper grid as [`run_paper_sweep`] with `collector`
/// installed as the process-wide telemetry sink for the duration, folding
/// the collected [`micronas_telemetry::TelemetryReport`] — per-layer span
/// timings, kernel dispatch counters, store traffic — into
/// [`SweepReport::telemetry`].
///
/// Telemetry is inert: the traced report's
/// [`SweepReport::identity_fingerprint`] is bitwise identical to the
/// untraced one's.
///
/// # Errors
///
/// Exactly as [`run_paper_sweep`].
pub fn run_paper_sweep_traced(
    config: &MicroNasConfig,
    scale: &SweepScale,
    store: Option<Arc<EvalStore>>,
    collector: Arc<micronas_telemetry::Collector>,
) -> Result<SweepReport> {
    run_sweep_inner(config, scale, store, Some(collector))
}

fn run_sweep_inner(
    config: &MicroNasConfig,
    scale: &SweepScale,
    store: Option<Arc<EvalStore>>,
    collector: Option<Arc<micronas_telemetry::Collector>>,
) -> Result<SweepReport> {
    let _scope = collector
        .as_ref()
        .map(|c| micronas_telemetry::install_scoped(c.clone()));
    if let Some(store) = store.as_deref() {
        // Refuse a mismatched store up front — Fig. 2a/2b talk to the store
        // directly, before any `SearchContext` would have checked.
        crate::context::ensure_store_namespace(store, config)?;
    }
    let start = Instant::now();
    let stats_before = store.as_deref().map(EvalStore::stats);

    let fig2a = run_fig2a_in(
        config,
        scale.correlation_sample,
        scale.spectrum_indices,
        store.as_deref(),
    )?;
    let fig2b = run_fig2b_in(
        config,
        scale.correlation_sample,
        &scale.fig2b_batch_sizes,
        scale.fig2b_seeds,
        scale.spectrum_indices,
        store.as_deref(),
    )?;

    // ---- Table I + latency sweep: one shared session --------------------
    // The searches intersect almost completely in the candidates they
    // evaluate; a single session (and the store behind it) makes that
    // overlap free.
    let mut builder = SearchSession::builder()
        .dataset(DatasetKind::Cifar10)
        .config(config.clone());
    if let Some(store) = &store {
        builder = builder.store(store.clone());
    }
    let session = builder.build()?;
    let table1 = table1_rows_in(&session, scale.evolution, scale.latency_weight)?;
    let latency_sweep = latency_sweep_in(&session, &scale.latency_weights)?;

    let store_delta = match (stats_before, store.as_deref()) {
        (Some(before), Some(store)) => Some(store.stats().since(&before)),
        _ => None,
    };
    Ok(SweepReport {
        fig2a,
        fig2b,
        table1,
        latency_sweep,
        store: store_delta,
        wall_seconds: start.elapsed().as_secs_f64(),
        telemetry: collector.map(|c| c.report()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each record a cold sweep computes is counted as one store miss: the
    /// resolve step reads every distinct key once, and the commit step
    /// inserts without reading again.
    #[test]
    fn cold_sweep_counts_one_store_miss_per_stored_record() {
        let config = MicroNasConfig::tiny_test();
        let store = Arc::new(EvalStore::in_memory(config.store_namespace()));
        let cold = run_paper_sweep(&config, &SweepScale::tiny(), Some(store.clone())).unwrap();
        assert_eq!(cold.recomputations(), Some(store.len() as u64));
    }

    #[test]
    fn sweep_is_bitwise_identical_across_store_modes_and_warm_runs_hit_everything() {
        let config = MicroNasConfig::tiny_test();
        let scale = SweepScale::tiny();

        let off = run_paper_sweep(&config, &scale, None).unwrap();
        assert!(off.store.is_none());
        assert!(off.hit_rate().is_none());

        let store = Arc::new(EvalStore::in_memory(config.store_namespace()));
        let cold = run_paper_sweep(&config, &scale, Some(store.clone())).unwrap();
        let warm = run_paper_sweep(&config, &scale, Some(store.clone())).unwrap();

        // Bitwise identity: store off vs cold vs pre-warmed.
        assert_eq!(
            off.identity_fingerprint(),
            cold.identity_fingerprint(),
            "store-off and cold-store sweeps must agree bitwise"
        );
        assert_eq!(
            off.identity_fingerprint(),
            warm.identity_fingerprint(),
            "store-off and warm-store sweeps must agree bitwise"
        );

        // The cold run paid for fresh evaluations; the warm run paid for
        // none at all.
        let cold_stats = cold.store.unwrap();
        assert!(cold_stats.misses > 0);
        assert!(cold_stats.entries > 0, "the cold run populates the store");
        assert_eq!(warm.recomputations(), Some(0), "warm sweep recomputed");
        assert_eq!(warm.hit_rate(), Some(1.0));
        assert_eq!(
            warm.store.unwrap().entries,
            0,
            "the warm run adds no records"
        );
    }

    #[test]
    fn mismatched_store_namespace_is_rejected_before_any_store_traffic() {
        let config = MicroNasConfig::tiny_test();
        let store = Arc::new(EvalStore::in_memory(config.store_namespace() ^ 1));
        let err = run_paper_sweep(&config, &SweepScale::tiny(), Some(store.clone()));
        assert!(err.is_err(), "a foreign-namespace store must be refused");
        assert!(
            store.is_empty() && store.stats().hits == 0 && store.stats().misses == 0,
            "the mismatched store must never be read or written"
        );
    }

    #[test]
    fn fingerprint_reacts_to_payload_changes() {
        let config = MicroNasConfig::tiny_test();
        let scale = SweepScale::tiny();
        let report = run_paper_sweep(&config, &scale, None).unwrap();
        let fp = report.identity_fingerprint();

        let mut tweaked = report.clone();
        tweaked.fig2a[0].taus[0] += 1e-9;
        assert_ne!(fp, tweaked.identity_fingerprint());

        // Wall-clock time is explicitly NOT part of the identity.
        let mut slower = report;
        slower.wall_seconds += 100.0;
        assert_eq!(fp, slower.identity_fingerprint());
    }

    #[test]
    fn scales_are_well_formed() {
        for scale in [SweepScale::paper(), SweepScale::fast(), SweepScale::tiny()] {
            assert!(scale.correlation_sample > 0);
            assert!(scale.spectrum_indices > 0);
            assert!(!scale.fig2b_batch_sizes.is_empty());
            assert!(scale.fig2b_seeds > 0);
            assert!(!scale.latency_weights.is_empty());
        }
    }
}
