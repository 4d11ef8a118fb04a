//! Cross-candidate mega-batching: the [`BatchedEvaluator`] owns the
//! candidate evaluation queue of every search strategy, and is the one place
//! where a candidate slate is deduplicated and counted.
//!
//! Search strategies enumerate whole slates of candidates per decision step
//! (the pruning search scores every undecided `(edge, op)` pair, random
//! search scores its entire sample budget). Evaluating those candidates one
//! at a time leaves the GEMM kernels starved: at MCU-scale probe resolutions
//! a single candidate's im2col panel is far below the blocked kernel's
//! saturation point. The batched evaluator therefore settles the **whole
//! slate** in three phases:
//!
//! 1. **Resolve**, serially in slate order. A member whose architecture
//!    index sits in the context's handle cache is done. Otherwise each
//!    record it needs (zero-cost metrics, one score per registered plugin,
//!    hardware indicators) is keyed by its canonical store key; a key an
//!    earlier member already asked for is shared, and only the first asker
//!    reads it from the context's [`micronas_store::EvalStore`]. The keys
//!    nobody had are the slate's true misses.
//! 2. **Compute** the misses on the rayon pool, and nothing else. Zero-cost
//!    misses are planned by the [`SlateScheduler`] into geometry-bucketed,
//!    maximal-fill packs of [`SearchContext::pack_width`]; each pack of two
//!    or more runs as one fused proxy sweep in which same-geometry
//!    convolutions of different candidates share one grouped GEMM per
//!    layer, in both the forward probe and the packed per-sample gradient
//!    sweep. A lone zero-cost miss, and every plugin and hardware miss, runs
//!    one key at a time. This phase counts nothing and writes nothing.
//! 3. **Commit**, serially in slate order: computed records go into the
//!    store, fresh evaluations into the handle cache, and the hit/miss
//!    counters advance — the only place they do.
//!
//! Packing is a pure scheduling change: results are bitwise identical to
//! one-at-a-time evaluation at every pack width and thread count, and since
//! classification and counting are serial, so are the counters. Width 1
//! disables packing: every pack is a lone miss, and the pack counters stay
//! untouched. [`SearchContext::evaluate`] and the hardware
//! checks settle slates of one through the same three phases.

use crate::context::record_kind_error;
use crate::{CandidateEvaluation, Result, SearchContext};
use micronas_hw::HardwareIndicators;
use micronas_searchspace::{Architecture, CellTopology, Operation};
use micronas_store::{EvalKey, EvalRecord, ProxyKind};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Geometry-bucketed, cross-candidate batched front-end to
/// [`SearchContext::evaluate`].
///
/// Borrowing the context keeps the evaluator trivially shareable across the
/// rayon scoring workers; it holds no mutable state of its own — all
/// caching, counting and pack-density accounting lives in the context, so
/// evaluations issued through this type and through
/// [`SearchContext::evaluate`] share one coherent view.
#[derive(Debug, Clone, Copy)]
pub struct BatchedEvaluator<'a> {
    ctx: &'a SearchContext,
    scheduler: SlateScheduler,
}

/// One slate member after the resolve step.
enum Member {
    /// Served whole by the context's handle cache.
    Cached(Arc<CandidateEvaluation>),
    /// Assembled from the slate's distinct records: `slots` indexes them in
    /// the order zero-cost, plugins (registration order), hardware — or
    /// just hardware for a hardware-only slate.
    Fresh {
        arch_index: usize,
        slots: Vec<usize>,
    },
}

/// A distinct record one slate needs.
struct Need {
    key: EvalKey,
    canonical: CellTopology,
}

impl<'a> BatchedEvaluator<'a> {
    /// Wraps a context.
    pub fn new(ctx: &'a SearchContext) -> Self {
        Self {
            ctx,
            scheduler: SlateScheduler::new(ctx.pack_width()),
        }
    }

    /// The one-at-a-time front-end behind [`SearchContext::evaluate`]: the
    /// same three phases, without packing.
    pub(crate) fn unpacked(ctx: &'a SearchContext) -> Self {
        Self {
            ctx,
            scheduler: SlateScheduler::new(1),
        }
    }

    /// The wrapped context.
    pub fn context(&self) -> &'a SearchContext {
        self.ctx
    }

    /// The slate scheduler in force (width = the context's pack width).
    pub fn scheduler(&self) -> &SlateScheduler {
        &self.scheduler
    }

    /// Evaluates a whole candidate slate: resolves it against the handle
    /// cache and the store, computes only the distinct misses (zero-cost
    /// misses in [`SlateScheduler`] packs on the rayon pool), commits them
    /// and returns the evaluations in slate order.
    ///
    /// Element `i` is the same shared handle [`SearchContext::evaluate`]
    /// would return for `cells[i]` — bitwise identical for every pack width
    /// and thread count — and the context's counters advance identically
    /// too. Width 1 disables cross-candidate packing: misses compute one by
    /// one (still concurrently), and the context's pack counters stay
    /// untouched.
    ///
    /// # Errors
    ///
    /// Propagates proxy evaluation failures (the first failing pack in
    /// schedule order wins) and store I/O failures.
    pub fn evaluate_all(&self, cells: &[CellTopology]) -> Result<Vec<Arc<CandidateEvaluation>>> {
        let ctx = self.ctx;
        let (members, records) = self.settle(cells, true)?;
        members
            .into_iter()
            .map(|member| {
                let (arch_index, slots) = match member {
                    Member::Cached(eval) => return Ok(eval),
                    Member::Fresh { arch_index, slots } => (arch_index, slots),
                };
                let mut values = slots.iter().map(|&slot| &records[slot]);
                let mut metrics = values
                    .next()
                    .and_then(EvalRecord::as_zero_cost)
                    .ok_or_else(|| record_kind_error("zero-cost"))?
                    .metric_set();
                for entry in &ctx.extra_proxies {
                    let id = entry.proxy.id();
                    let score = values.next().and_then(EvalRecord::as_scalar);
                    metrics.insert(id, score.ok_or_else(|| record_kind_error(id))?);
                }
                let hardware = values
                    .next()
                    .and_then(EvalRecord::as_hardware)
                    .ok_or_else(|| record_kind_error("hardware"))?;
                let eval = CandidateEvaluation {
                    arch_index,
                    metrics,
                    hardware,
                    feasible: ctx.constraints().satisfied_by(&hardware),
                };
                // A repeat of an earlier member shares that member's handle.
                let mut cache = ctx.cache.lock();
                Ok(Arc::clone(
                    cache.entry(arch_index).or_insert_with(|| Arc::new(eval)),
                ))
            })
            .collect()
    }

    /// The hardware indicators of a whole slate, in slate order, through the
    /// same resolve, compute and commit phases as
    /// [`BatchedEvaluator::evaluate_all`] — no proxy kernels run.
    pub(crate) fn hardware_all(&self, cells: &[CellTopology]) -> Result<Vec<HardwareIndicators>> {
        let (members, records) = self.settle(cells, false)?;
        members
            .iter()
            .map(|member| match member {
                Member::Cached(eval) => Ok(eval.hardware),
                Member::Fresh { slots, .. } => records[slots[0]]
                    .as_hardware()
                    .ok_or_else(|| record_kind_error("hardware")),
            })
            .collect()
    }

    /// Checks hardware feasibility of a whole candidate slate, returning the
    /// verdicts in slate order.
    ///
    /// Feasibility needs only the analytic hardware indicators — no proxy
    /// kernels run, so there is nothing to pack; this entry exists so every
    /// strategy's bulk candidate traffic flows through one front-end.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn feasibility_all(&self, cells: &[CellTopology]) -> Result<Vec<bool>> {
        let constraints = self.ctx.constraints();
        Ok(self
            .hardware_all(cells)?
            .iter()
            .map(|hardware| constraints.satisfied_by(hardware))
            .collect())
    }

    /// Resolves, computes and commits the records of a slate — every record
    /// when `full`, only the hardware indicators otherwise. Returns each
    /// member's resolution and the slate's distinct records.
    fn settle(&self, cells: &[CellTopology], full: bool) -> Result<(Vec<Member>, Vec<EvalRecord>)> {
        let ctx = self.ctx;

        // Resolve: handle cache, then an earlier member's key, then one
        // store read per distinct key.
        let mut needs: Vec<Need> = Vec::new();
        let mut found: Vec<Option<EvalRecord>> = Vec::new();
        let mut slot_of: HashMap<EvalKey, usize> = HashMap::new();
        let mut members = Vec::with_capacity(cells.len());
        for &cell in cells {
            let arch_index = Architecture::from_cell(ctx.space(), cell).index();
            if full {
                if let Some(hit) = ctx.cache.lock().get(&arch_index).map(Arc::clone) {
                    members.push(Member::Cached(hit));
                    continue;
                }
            }
            let canonical = cell.canonical_form();
            let slots = ctx
                .record_keys(canonical, full)
                .map(|key| {
                    *slot_of.entry(key).or_insert_with(|| {
                        found.push(ctx.lookup(&key));
                        needs.push(Need { key, canonical });
                        needs.len() - 1
                    })
                })
                .collect();
            members.push(Member::Fresh { arch_index, slots });
        }

        // Compute: only the misses, on the pool; no counter, no store write.
        // Zero-cost misses go through the scheduler. A pack of one shares
        // nothing, so it runs solo like every other miss (at width 1, all
        // do): each job is one miss, or one pack of two or more.
        let misses: Vec<usize> = (0..needs.len()).filter(|&s| found[s].is_none()).collect();
        let (zero_cost, others): (Vec<usize>, Vec<usize>) = misses
            .iter()
            .partition(|&&slot| matches!(needs[slot].key.kind, ProxyKind::ZeroCost { .. }));
        let plan_cells: Vec<CellTopology> = zero_cost.iter().map(|&s| needs[s].canonical).collect();
        let jobs: Vec<Vec<usize>> = self
            .scheduler
            .plan(&plan_cells)
            .packs()
            .iter()
            .map(|pack| pack.iter().map(|&i| zero_cost[i]).collect())
            .chain(others.into_iter().map(|slot| vec![slot]))
            .collect();
        let results: Vec<Result<Vec<EvalRecord>>> = jobs
            .par_iter()
            .map(|job| match job.as_slice() {
                &[slot] => {
                    let need = &needs[slot];
                    Ok(vec![ctx.compute(&need.key, need.canonical)?])
                }
                pack => {
                    let cells: Vec<CellTopology> =
                        pack.iter().map(|&s| needs[s].canonical).collect();
                    let _span = micronas_telemetry::span!("search.pack_eval");
                    let (dataset, seed) = (ctx.dataset(), ctx.seed());
                    let metrics = ctx.zero_cost().evaluate_pack(&cells, dataset, seed)?;
                    Ok(metrics.into_iter().map(EvalRecord::ZeroCost).collect())
                }
            })
            .collect();
        for (job, result) in jobs.iter().zip(results) {
            for (&slot, record) in job.iter().zip(result?) {
                found[slot] = Some(record);
            }
        }
        let records: Vec<EvalRecord> = found
            .into_iter()
            .map(|record| record.expect("every miss was computed"))
            .collect();

        // Commit: computed records into the store, then the counters.
        for &slot in &misses {
            ctx.remember(needs[slot].key, &records[slot])?;
        }
        if full && self.scheduler.width() > 1 {
            let packs: Vec<usize> = jobs.iter().map(Vec::len).filter(|&len| len > 1).collect();
            ctx.count_packs(cells.len(), &packs);
        }
        let per_member = if full { 2 + ctx.extra_proxies.len() } else { 1 };
        ctx.count(cells.len() * per_member - misses.len(), misses.len());
        Ok((members, records))
    }
}

/// Plans a slate of distinct zero-cost misses into geometry-bucketed,
/// maximal-fill packs.
///
/// The fixed-stride slicing this replaces (`cells.chunks(width)`) packed
/// candidates by arrival order, so one mixed slate produced packs whose
/// members rarely shared convolution geometry — each pack then split into
/// many half-empty per-edge kernel buckets. The scheduler looks at the whole
/// slate instead:
///
/// 1. **Bucket** — cells group by geometry signature (the per-edge
///    conv-kernel classes of the canonical form), in first-appearance
///    order.
/// 2. **Emit** — each bucket yields its full packs, then the remainders
///    coalesce across buckets (in bucket order) into the final packs, so
///    the pack count is exactly `ceil(cells / width)` — the minimum any
///    width-bounded schedule can achieve.
///
/// The scheduler does not deduplicate: [`BatchedEvaluator`] hands it only
/// the distinct records its resolve step could not serve, so a warm hit
/// never holds a pack slot. Planning is pure and deterministic: no hash-map
/// iteration order leaks into the plan, so the same slate always yields the
/// same packs.
#[derive(Debug, Clone, Copy)]
pub struct SlateScheduler {
    width: usize,
}

/// The deterministic pack schedule of one slate (see
/// [`SlateScheduler::plan`]): a partition of the slate indices into packs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlatePlan {
    packs: Vec<Vec<usize>>,
}

impl SlatePlan {
    /// The scheduled packs: each inner slice holds slate indices, sorted
    /// ascending, and every slate index appears in exactly one pack.
    pub fn packs(&self) -> &[Vec<usize>] {
        &self.packs
    }
}

impl SlateScheduler {
    /// A scheduler emitting packs of at most `width` candidates (clamped to
    /// at least 1).
    pub fn new(width: usize) -> Self {
        Self {
            width: width.max(1),
        }
    }

    /// The maximum number of candidates per pack.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plans `cells` into packs: geometry-signature buckets over the whole
    /// slate, maximal-fill packs in deterministic order (full packs per
    /// bucket first, remainders coalesced in bucket order).
    pub fn plan(&self, cells: &[CellTopology]) -> SlatePlan {
        // Geometry buckets in first-appearance order. The map is lookup-only
        // — never iterated — so the plan is independent of hash order.
        let mut bucket_of_sig: HashMap<u64, usize> = HashMap::new();
        let mut buckets: Vec<Vec<usize>> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            let sig = geometry_signature(&cell.canonical_form());
            let bucket = *bucket_of_sig.entry(sig).or_insert_with(|| {
                buckets.push(Vec::new());
                buckets.len() - 1
            });
            buckets[bucket].push(i);
        }

        // Maximal fill: full packs bucket by bucket, then one coalescing
        // sweep over the remainders. Exactly ceil(cells / width) packs.
        let mut packs: Vec<Vec<usize>> = Vec::new();
        let mut remainder: Vec<usize> = Vec::new();
        for bucket in &buckets {
            let full = bucket.len() / self.width * self.width;
            for pack in bucket[..full].chunks(self.width) {
                packs.push(pack.to_vec());
            }
            remainder.extend_from_slice(&bucket[full..]);
        }
        for pack in remainder.chunks(self.width) {
            let mut pack = pack.to_vec();
            pack.sort_unstable();
            packs.push(pack);
        }
        SlatePlan { packs }
    }
}

/// The packing-relevant geometry of a canonical cell: which edges carry a
/// 1×1 conv, a 3×3 conv, or no convolution at all. Cells with equal
/// signatures fill every per-edge conv bucket of a pack completely; the
/// non-conv operations (none / skip / pool) never pack, so they all map to
/// one class.
fn geometry_signature(cell: &CellTopology) -> u64 {
    cell.edge_ops().iter().fold(0u64, |sig, op| {
        sig * 4
            + match op {
                Operation::NorConv1x1 => 1,
                Operation::NorConv3x3 => 2,
                Operation::None | Operation::SkipConnect | Operation::AvgPool3x3 => 0,
            }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MicroNasConfig, SearchContext};
    use micronas_datasets::DatasetKind;
    use micronas_searchspace::SearchSpace;

    fn tiny_context(width: usize) -> SearchContext {
        SearchContext::new(DatasetKind::Cifar10, &MicroNasConfig::tiny_test())
            .unwrap()
            .with_pack_width(width)
    }

    #[test]
    fn evaluate_all_is_bitwise_identical_across_pack_widths() {
        let space = micronas_searchspace::SearchSpace::nas_bench_201();
        let cells: Vec<CellTopology> = [5_000usize, 7_000, 404, 11_111, 0, 8_888, 5_000]
            .iter()
            .map(|&i| space.cell(i).unwrap())
            .collect();
        let reference: Vec<_> = {
            let ctx = tiny_context(1);
            cells.iter().map(|&c| ctx.evaluate(c).unwrap()).collect()
        };
        for width in [1usize, 2, 8] {
            let ctx = tiny_context(width);
            let batched = BatchedEvaluator::new(&ctx).evaluate_all(&cells).unwrap();
            assert_eq!(batched.len(), cells.len());
            for (i, (r, b)) in reference.iter().zip(&batched).enumerate() {
                assert_eq!(**r, **b, "width {width} member {i}");
            }
        }
    }

    #[test]
    fn feasibility_all_matches_per_cell_checks() {
        let ctx = tiny_context(8);
        let cells: Vec<CellTopology> = (0..6).map(|i| ctx.space().cell(i * 999).unwrap()).collect();
        let bulk = BatchedEvaluator::new(&ctx).feasibility_all(&cells).unwrap();
        for (cell, &ok) in cells.iter().zip(&bulk) {
            assert_eq!(ctx.is_feasible(*cell).unwrap(), ok);
        }
    }

    #[test]
    fn evaluator_exposes_its_context() {
        let ctx = tiny_context(4);
        let eval = BatchedEvaluator::new(&ctx);
        assert_eq!(eval.context().pack_width(), 4);
        assert_eq!(eval.scheduler().width(), 4);
        assert!(eval.evaluate_all(&[]).unwrap().is_empty());
    }

    /// Two distinct candidates whose canonical forms share cell 7000's
    /// geometry signature, plus one with a different signature — the
    /// scheduler sees canonical geometry, which arbitrary hand-built cells
    /// do not control.
    fn geometry_trio(space: &SearchSpace) -> (CellTopology, CellTopology, CellTopology) {
        let sig_of = |cell: &CellTopology| geometry_signature(&cell.canonical_form());
        let a = space.cell(7_000).unwrap();
        let b = (0..15_625)
            .map(|i| space.cell(i).unwrap())
            .find(|c| sig_of(c) == sig_of(&a) && c.canonical_form() != a.canonical_form())
            .expect("some other candidate shares cell 7000's conv layout");
        let c = (0..15_625)
            .map(|i| space.cell(i).unwrap())
            .find(|c| sig_of(c) != sig_of(&a))
            .expect("some candidate has a different conv layout");
        (a, b, c)
    }

    #[test]
    fn scheduler_groups_same_geometry_across_the_slate() {
        let space = SearchSpace::nas_bench_201();
        let (a, b, c) = geometry_trio(&space);
        let plan = SlateScheduler::new(2).plan(&[a, c, b]);
        // The same-signature cells (0 and 2) pack together despite the
        // different-signature candidate arriving between them, and the odd
        // one out fills the remainder pack.
        assert_eq!(plan.packs(), &[vec![0, 2], vec![1]]);
    }

    /// Satellite property check: on randomized mixed-geometry slates the
    /// plan is a permutation of the slate and its pack count is the
    /// minimum `ceil(cells / width)` — so its fill is at least what
    /// fixed-stride slicing achieves.
    #[test]
    fn scheduler_plan_is_a_permutation_with_fill_at_least_fixed_stride() {
        let space = SearchSpace::nas_bench_201();
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..32 {
            let width = 1 + (next() % 8) as usize;
            let len = 1 + (next() % 40) as usize;
            let cells: Vec<CellTopology> = (0..len)
                .map(|_| space.cell((next() % 15_625) as usize).unwrap())
                .collect();
            let plan = SlateScheduler::new(width).plan(&cells);

            let mut seen: Vec<usize> = plan.packs().iter().flatten().copied().collect();
            seen.sort_unstable();
            let expected: Vec<usize> = (0..len).collect();
            assert_eq!(seen, expected, "trial {trial}: plan must permute the slate");
            assert_eq!(
                plan.packs().len(),
                len.div_ceil(width),
                "trial {trial}: pack count must be minimal"
            );
            assert!(plan.packs().len() <= cells.chunks(width).count());
            assert!(
                plan.packs().iter().all(|pack| pack.len() <= width),
                "trial {trial}: a pack holds more than `width` candidates"
            );
        }
    }

    /// Packs are planned after the resolve step, so warm members leave no
    /// holes: two misses whose warm same-geometry partners were evaluated
    /// earlier share one pack.
    #[test]
    fn warm_hits_leave_no_holes_in_packs() {
        let space = SearchSpace::nas_bench_201();
        let (x, m1, _) = geometry_trio(&space);
        let sig_of = |cell: &CellTopology| geometry_signature(&cell.canonical_form());
        let mut other = (0..15_625)
            .map(|i| space.cell(i).unwrap())
            .filter(|c| sig_of(c) != sig_of(&x));
        let y = other.next().unwrap();
        let m2 = other
            .find(|c| sig_of(c) == sig_of(&y) && c.canonical_form() != y.canonical_form())
            .expect("a second cell shares y's conv layout");

        let ctx = tiny_context(2);
        ctx.evaluate(x).unwrap();
        ctx.evaluate(y).unwrap();
        let before = ctx.batch_stats();
        BatchedEvaluator::new(&ctx)
            .evaluate_all(&[x, m1, y, m2])
            .unwrap();
        let batch = ctx.batch_stats().since(&before);
        assert_eq!(batch.dispatches, 1, "{batch:?}");
        assert_eq!(batch.computed_candidates, 2, "{batch:?}");
    }

    /// Classification and counting are serial, so a slate of canonical
    /// twins counts the same at any thread count.
    #[test]
    fn counters_do_not_depend_on_thread_count() {
        use micronas_searchspace::Operation as Op;
        let cell = CellTopology::new([
            Op::SkipConnect,
            Op::AvgPool3x3,
            Op::None,
            Op::None,
            Op::SkipConnect,
            Op::AvgPool3x3,
        ]);
        let twin = cell.intermediate_swap().unwrap();
        assert_ne!(cell, twin);
        let slate = [cell, twin, twin, cell, twin, cell, cell, twin];
        let run = |threads: usize, hardware_only: bool| {
            let ctx = tiny_context(1);
            let evaluator = BatchedEvaluator::new(&ctx);
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    if hardware_only {
                        evaluator.feasibility_all(&slate).map(drop)
                    } else {
                        evaluator.evaluate_all(&slate).map(drop)
                    }
                })
                .unwrap();
            ctx.cache_stats()
        };
        for hardware_only in [true, false] {
            let expected = run(1, hardware_only);
            for round in 0..200 {
                assert_eq!(
                    run(4, hardware_only),
                    expected,
                    "round {round}, hardware only: {hardware_only}"
                );
            }
        }
    }

    #[test]
    fn evaluate_all_resolves_duplicates_exactly_like_the_sequential_path() {
        let space = SearchSpace::nas_bench_201();
        // A slate longer than one pack whose duplicates straddle what the
        // old fixed-stride slicing would have made separate packs.
        let indices = [7_000usize, 42, 7_000, 11_111, 404, 42, 9_000, 7_000, 1];
        let cells: Vec<CellTopology> = indices.iter().map(|&i| space.cell(i).unwrap()).collect();
        let seq_ctx = tiny_context(4);
        let batch_ctx = tiny_context(4);
        let sequential: Vec<_> = cells
            .iter()
            .map(|&c| seq_ctx.evaluate(c).unwrap())
            .collect();
        let batched = BatchedEvaluator::new(&batch_ctx)
            .evaluate_all(&cells)
            .unwrap();
        for (i, (s, b)) in sequential.iter().zip(&batched).enumerate() {
            assert_eq!(**s, **b, "member {i}");
        }
        assert_eq!(seq_ctx.evaluation_count(), batch_ctx.evaluation_count());
        assert_eq!(
            seq_ctx.cache_stats(),
            batch_ctx.cache_stats(),
            "duplicates resolved before packing must count exactly like \
             sequential handle-cache hits"
        );
    }
}
