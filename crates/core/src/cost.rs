use serde::{Deserialize, Serialize};

/// Search-cost accounting, used for the paper's efficiency comparison
/// (Table I "Search Time" column and the ≈1104× claim).
///
/// Zero-shot searches are charged their measured wall-clock time. Training
/// based baselines (µNAS-style evolution) are additionally charged the
/// *simulated* GPU hours that fully training their evaluated candidates would
/// have cost, because that — not the negligible surrogate lookup — is what a
/// real deployment would pay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SearchCost {
    /// Measured wall-clock duration of the search in seconds.
    pub wall_clock_seconds: f64,
    /// Simulated training cost charged to the search, in GPU hours
    /// (zero for train-free methods).
    pub simulated_gpu_hours: f64,
    /// Number of candidate architectures evaluated.
    pub evaluations: usize,
    /// Evaluation-cache traffic of the search: records obtained without
    /// computing them versus freshly computed (see [`EvalCacheStats`]).
    pub cache: EvalCacheStats,
    /// Pack-density accounting of the cross-candidate mega-batched
    /// evaluation path (all-zero for searches that never packed).
    pub batch: BatchStats,
}

/// Pack-density accounting for the cross-candidate mega-batched evaluator.
///
/// The batched candidate path ([`crate::BatchedEvaluator`]) groups the
/// zero-cost misses of a slate into proxy sweeps so same-geometry
/// convolutions share a single wide GEMM dispatch. These counters record how
/// densely that packing actually ran: how many packed sweeps were issued,
/// how many candidates were submitted to the packed path, and how many of
/// them had their proxies computed fresh inside a sweep (the rest were
/// served by a cache, an earlier slate member or the store before any
/// kernel ran). Width 1 and [`crate::SearchContext::evaluate`] never pack
/// and leave them at zero.
/// Like [`EvalCacheStats`], pack density varies with cache and store warmth,
/// so it lives in the cost record, not in the bitwise-stable outcome parts.
///
/// Since the backward sweep packs too, the candidate-level counters above
/// are joined by **kernel-level** fill counters split by sweep direction:
/// one *forward* dispatch is a packed forward conv bucket, one *backward*
/// dispatch is a packed weight-gradient or input-gradient bucket (the stem's
/// full-width packed backward included), and `members / dispatches` is the
/// measured average pack fill of each direction. A backward fill lagging the
/// forward fill would mean per-sample gradient sweeps only partially merged
/// — visible here instead of averaged into one number. The kernel counters
/// are process-wide (reported relative to the context's construction), so
/// they are meaningful as deltas around a search, not across concurrently
/// running contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct BatchStats {
    /// Packed proxy sweeps issued (one per [`ZeroCostEvaluator::evaluate_pack`]
    /// call that reached the kernels).
    ///
    /// [`ZeroCostEvaluator::evaluate_pack`]: micronas_proxies::ZeroCostEvaluator::evaluate_pack
    pub dispatches: usize,
    /// Candidates submitted through the packed evaluation path.
    pub packed_candidates: usize,
    /// Candidates whose zero-cost proxies were freshly computed inside a
    /// packed sweep (distinct canonical forms: duplicates and warm hits are
    /// resolved before planning).
    pub computed_candidates: usize,
    /// The configured maximum pack width (candidates per sweep).
    pub pack_width: usize,
    /// Packed forward conv kernel buckets dispatched.
    pub forward_kernel_dispatches: usize,
    /// Pack members served by the packed forward conv buckets.
    pub forward_kernel_members: usize,
    /// Packed backward kernel buckets dispatched (weight-gradient +
    /// input-gradient, the stem's full-width packed backward included).
    pub backward_kernel_dispatches: usize,
    /// Pack members served by the packed backward buckets.
    pub backward_kernel_members: usize,
}

impl BatchStats {
    /// Counter deltas accumulated since an earlier snapshot (the
    /// configuration-like `pack_width` is carried over, not subtracted).
    pub fn since(&self, earlier: &BatchStats) -> BatchStats {
        BatchStats {
            dispatches: self.dispatches - earlier.dispatches,
            packed_candidates: self.packed_candidates - earlier.packed_candidates,
            computed_candidates: self.computed_candidates - earlier.computed_candidates,
            pack_width: self.pack_width,
            forward_kernel_dispatches: self.forward_kernel_dispatches
                - earlier.forward_kernel_dispatches,
            forward_kernel_members: self.forward_kernel_members - earlier.forward_kernel_members,
            backward_kernel_dispatches: self.backward_kernel_dispatches
                - earlier.backward_kernel_dispatches,
            backward_kernel_members: self.backward_kernel_members - earlier.backward_kernel_members,
        }
    }

    /// Average pack members per packed forward conv dispatch; 0.0 when no
    /// packed forward bucket ran.
    pub fn forward_fill(&self) -> f64 {
        if self.forward_kernel_dispatches == 0 {
            0.0
        } else {
            self.forward_kernel_members as f64 / self.forward_kernel_dispatches as f64
        }
    }

    /// Average pack members per packed backward dispatch; 0.0 when no packed
    /// backward bucket ran.
    pub fn backward_fill(&self) -> f64 {
        if self.backward_kernel_dispatches == 0 {
            0.0
        } else {
            self.backward_kernel_members as f64 / self.backward_kernel_dispatches as f64
        }
    }

    /// Mean number of freshly computed candidates per packed sweep; 0.0 when
    /// no sweep was dispatched.
    pub fn candidates_per_dispatch(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.computed_candidates as f64 / self.dispatches as f64
        }
    }

    /// Fraction of the issued pack capacity that carried fresh work, in
    /// `[0, 1]`; 0.0 when nothing was dispatched.
    pub fn fill_rate(&self) -> f64 {
        let capacity = self.dispatches * self.pack_width.max(1);
        if capacity == 0 {
            0.0
        } else {
            self.computed_candidates as f64 / capacity as f64
        }
    }
}

/// Hit/miss accounting for candidate evaluations.
///
/// The unit counted is one **record request**: a full candidate evaluation
/// requests one zero-cost record, one record per registered plugin and one
/// hardware record; a feasibility check requests one hardware record.
///
/// **Counting rule.** A record is a **hit** when the context got it without
/// computing it: from its handle cache (which serves every record of an
/// architecture it evaluated before), from an earlier member of the same
/// slate with the same canonical key, from its hardware memo, or from its
/// [`micronas_store::EvalStore`]. It is a **miss** when the context
/// computed it. So misses count distinct computed records, and hits count
/// every other request — whether the store is shared, private, cold or
/// warm. Every request is classified and counted serially by the resolve
/// step of [`crate::BatchedEvaluator`], so the counts do not depend on the
/// thread count or the pack width. Cache traffic does vary with store
/// warmth (a pre-warmed store turns every miss into a hit), so these
/// counters live in the cost record, *not* in the parts of
/// [`crate::SearchOutcome`] that must stay bitwise identical across store
/// modes.
///
/// Deliberately distinct from [`micronas_store::StoreStats`]: that type
/// counts traffic *at the store*, across every context sharing it; this one
/// counts requests *of one search*, including those its context's handle
/// cache and memo absorbed before the store ever saw them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct EvalCacheStats {
    /// Records obtained without computing them.
    pub hits: usize,
    /// Records this context computed.
    pub misses: usize,
}

impl EvalCacheStats {
    /// Counter deltas accumulated since an earlier snapshot.
    pub fn since(&self, earlier: &EvalCacheStats) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }

    /// Hit rate in `[0, 1]`; 1.0 when nothing was requested.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl SearchCost {
    /// Total cost expressed in hours: wall clock plus simulated training.
    pub fn total_hours(&self) -> f64 {
        self.wall_clock_seconds / 3_600.0 + self.simulated_gpu_hours
    }

    /// Efficiency factor of `self` relative to `other`
    /// (how many times cheaper `self` is).
    pub fn efficiency_vs(&self, other: &SearchCost) -> f64 {
        other.total_hours() / self.total_hours().max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_hours_combines_both_components() {
        let c = SearchCost {
            wall_clock_seconds: 3_600.0,
            simulated_gpu_hours: 2.0,
            evaluations: 10,
            ..Default::default()
        };
        assert!((c.total_hours() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cache_stats_delta_and_hit_rate() {
        let earlier = EvalCacheStats { hits: 3, misses: 2 };
        let later = EvalCacheStats {
            hits: 10,
            misses: 2,
        };
        let delta = later.since(&earlier);
        assert_eq!(delta, EvalCacheStats { hits: 7, misses: 0 });
        assert_eq!(delta.hit_rate(), 1.0);
        assert_eq!(EvalCacheStats::default().hit_rate(), 1.0);
        assert!((earlier.hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn efficiency_ratio_matches_paper_style_comparison() {
        // A 552 GPU-hour baseline versus a half-GPU-hour zero-shot search is
        // roughly a 1100x efficiency gap — the shape of the paper's claim.
        let micro = SearchCost {
            wall_clock_seconds: 1_800.0,
            simulated_gpu_hours: 0.0,
            evaluations: 400,
            ..Default::default()
        };
        let munas = SearchCost {
            wall_clock_seconds: 0.0,
            simulated_gpu_hours: 552.0,
            evaluations: 500,
            ..Default::default()
        };
        let ratio = micro.efficiency_vs(&munas);
        assert!(ratio > 1_000.0 && ratio < 1_300.0, "ratio {ratio}");
    }

    #[test]
    fn batch_stats_density_and_delta() {
        let earlier = BatchStats {
            dispatches: 1,
            packed_candidates: 8,
            computed_candidates: 6,
            pack_width: 8,
            forward_kernel_dispatches: 4,
            forward_kernel_members: 20,
            backward_kernel_dispatches: 9,
            backward_kernel_members: 48,
        };
        let later = BatchStats {
            dispatches: 3,
            packed_candidates: 24,
            computed_candidates: 18,
            pack_width: 8,
            forward_kernel_dispatches: 12,
            forward_kernel_members: 68,
            backward_kernel_dispatches: 25,
            backward_kernel_members: 160,
        };
        let delta = later.since(&earlier);
        assert_eq!(delta.dispatches, 2);
        assert_eq!(delta.packed_candidates, 16);
        assert_eq!(delta.computed_candidates, 12);
        assert_eq!(delta.pack_width, 8, "pack width carries over");
        assert!((delta.candidates_per_dispatch() - 6.0).abs() < 1e-12);
        assert!((delta.fill_rate() - 0.75).abs() < 1e-12);
        assert_eq!(delta.forward_kernel_dispatches, 8);
        assert_eq!(delta.forward_kernel_members, 48);
        assert_eq!(delta.backward_kernel_dispatches, 16);
        assert_eq!(delta.backward_kernel_members, 112);
        assert!((delta.forward_fill() - 6.0).abs() < 1e-12);
        assert!((delta.backward_fill() - 7.0).abs() < 1e-12);
        assert_eq!(BatchStats::default().candidates_per_dispatch(), 0.0);
        assert_eq!(BatchStats::default().fill_rate(), 0.0);
        assert_eq!(BatchStats::default().forward_fill(), 0.0);
        assert_eq!(BatchStats::default().backward_fill(), 0.0);
    }

    #[test]
    fn efficiency_handles_zero_cost_gracefully() {
        let zero = SearchCost::default();
        let other = SearchCost {
            wall_clock_seconds: 60.0,
            ..Default::default()
        };
        assert!(zero.efficiency_vs(&other).is_finite());
    }
}
