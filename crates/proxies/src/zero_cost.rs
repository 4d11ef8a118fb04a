//! Combined zero-cost evaluation of a candidate architecture.

use crate::{
    metric_ids, LinearRegionConfig, LinearRegionEvaluator, MetricSet, NtkConfig, NtkEvaluator,
    Result,
};
use micronas_datasets::DatasetKind;
use micronas_searchspace::CellTopology;
use serde::{Deserialize, Serialize};

/// The two built-in network-analysis indicators, bundled.
///
/// This fixed-layout struct remains the *storage codec* for the paper's two
/// default proxies (the `micronas-store` log encodes it bit-for-bit); the
/// search-facing evaluation surface is the open-ended [`MetricSet`], which
/// [`ZeroCostMetrics::metric_set`] produces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZeroCostMetrics {
    /// NTK condition number (smaller is better).
    pub ntk_condition: f64,
    /// Linear-region count (larger is better).
    pub linear_regions: usize,
    /// Trainability score: negated log condition number (larger is better).
    pub trainability: f64,
    /// Expressivity score: log region count (larger is better).
    pub expressivity: f64,
}

impl ZeroCostMetrics {
    /// Publishes the bundled indicators as an ordered [`MetricSet`]
    /// (`ntk_condition`, `linear_regions`, `trainability`, `expressivity`).
    pub fn metric_set(&self) -> MetricSet {
        MetricSet::with_capacity(4)
            .with(metric_ids::NTK_CONDITION, self.ntk_condition)
            .with(metric_ids::LINEAR_REGIONS, self.linear_regions as f64)
            .with(metric_ids::TRAINABILITY, self.trainability)
            .with(metric_ids::EXPRESSIVITY, self.expressivity)
    }
}

/// Evaluates both zero-cost indicators for candidate cells.
///
/// This is the "network analysis" half of the MicroNAS workflow (Fig. 1);
/// the hardware half lives in [`micronas_hw::HardwareEvaluator`].
///
/// [`micronas_hw::HardwareEvaluator`]: https://docs.rs/micronas-hw
#[derive(Debug, Clone)]
pub struct ZeroCostEvaluator {
    ntk: NtkEvaluator,
    linear_regions: LinearRegionEvaluator,
}

impl ZeroCostEvaluator {
    /// Creates an evaluator from the two proxy configurations on the
    /// paper-default execution backend.
    pub fn new(ntk: NtkConfig, lr: LinearRegionConfig) -> Self {
        Self {
            ntk: NtkEvaluator::new(ntk),
            linear_regions: LinearRegionEvaluator::new(lr),
        }
    }

    /// Creates an evaluator running both indicators on an explicit execution
    /// backend ([`micronas_tensor::KernelBackend`]).
    pub fn with_backend(
        ntk: NtkConfig,
        lr: LinearRegionConfig,
        backend: micronas_tensor::KernelBackend,
    ) -> Self {
        Self {
            ntk: NtkEvaluator::new(ntk).with_backend(backend),
            linear_regions: LinearRegionEvaluator::new(lr).with_backend(backend),
        }
    }

    /// A fast evaluator for tests and quick searches.
    pub fn fast() -> Self {
        Self::new(NtkConfig::fast(), LinearRegionConfig::fast())
    }

    /// The evaluator configured as in the paper (batch-32 NTK).
    pub fn paper_default() -> Self {
        Self::new(
            NtkConfig::paper_default(),
            LinearRegionConfig::paper_default(),
        )
    }

    /// The NTK sub-evaluator.
    pub fn ntk(&self) -> &NtkEvaluator {
        &self.ntk
    }

    /// The linear-region sub-evaluator.
    pub fn linear_regions(&self) -> &LinearRegionEvaluator {
        &self.linear_regions
    }

    /// Evaluates both indicators for one cell.
    ///
    /// # Errors
    ///
    /// Propagates any proxy evaluation failure.
    pub fn evaluate(
        &self,
        cell: CellTopology,
        dataset: DatasetKind,
        seed: u64,
    ) -> Result<ZeroCostMetrics> {
        let ntk = self.ntk.evaluate(cell, dataset, seed)?;
        let lr = self.linear_regions.evaluate(cell, dataset, seed)?;
        Ok(ZeroCostMetrics {
            ntk_condition: ntk.condition_number,
            linear_regions: lr.regions,
            trainability: ntk.trainability_score(),
            expressivity: lr.expressivity_score(),
        })
    }

    /// Cross-candidate mega-batched evaluation of both indicators: one
    /// [`NtkEvaluator::evaluate_pack_in`] sweep and one
    /// [`LinearRegionEvaluator::evaluate_pack_in`] sweep, sharing a single
    /// thread-local scratch arena (retained under the NTK backend's
    /// policy). Element `i` of the result is bitwise identical to
    /// [`ZeroCostEvaluator::evaluate`] on `cells[i]` alone — the packed
    /// sweeps merge same-geometry GEMM dispatches without changing any
    /// per-candidate arithmetic.
    ///
    /// # Errors
    ///
    /// Propagates any proxy evaluation failure.
    pub fn evaluate_pack(
        &self,
        cells: &[CellTopology],
        dataset: DatasetKind,
        seed: u64,
    ) -> Result<Vec<ZeroCostMetrics>> {
        crate::with_thread_workspace(|workspace| {
            let ntk = self.ntk.evaluate_pack_in(cells, dataset, seed, workspace)?;
            let lr = self
                .linear_regions
                .evaluate_pack_in(cells, dataset, seed, workspace)?;
            Ok(ntk
                .into_iter()
                .zip(lr)
                .map(|(n, l)| ZeroCostMetrics {
                    ntk_condition: n.condition_number,
                    linear_regions: l.regions,
                    trainability: n.trainability_score(),
                    expressivity: l.expressivity_score(),
                })
                .collect())
        })
    }
}

impl Default for ZeroCostEvaluator {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micronas_searchspace::{Operation, SearchSpace};

    #[test]
    fn evaluate_produces_consistent_scores() {
        let space = SearchSpace::nas_bench_201();
        let eval = ZeroCostEvaluator::fast();
        let metrics = eval
            .evaluate(space.cell(4_242).unwrap(), DatasetKind::Cifar10, 1)
            .unwrap();
        assert!(metrics.ntk_condition >= 1.0);
        assert!(metrics.linear_regions >= 1);
        assert!((metrics.trainability - -(metrics.ntk_condition.max(1.0)).ln()).abs() < 1e-9);
        assert!((metrics.expressivity - (metrics.linear_regions as f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn conv_rich_cell_beats_pool_cell_on_both_axes() {
        let eval = ZeroCostEvaluator::fast();
        let rich = CellTopology::new([
            Operation::NorConv3x3,
            Operation::SkipConnect,
            Operation::NorConv3x3,
            Operation::SkipConnect,
            Operation::NorConv1x1,
            Operation::NorConv3x3,
        ]);
        let poor = CellTopology::new([Operation::AvgPool3x3; 6]);
        let a = eval.evaluate(rich, DatasetKind::Cifar10, 2).unwrap();
        let b = eval.evaluate(poor, DatasetKind::Cifar10, 2).unwrap();
        assert!(a.trainability > b.trainability);
        assert!(a.expressivity > b.expressivity);
    }

    /// The combined pack entry must reproduce solo evaluation bitwise for
    /// every member, across the regimes the search strategies hit (width 1,
    /// partial packs, full packs, duplicated cells).
    #[test]
    fn packed_evaluation_is_bitwise_identical_to_solo() {
        let space = SearchSpace::nas_bench_201();
        let mut cells: Vec<_> = [7_000usize, 404, 0]
            .iter()
            .map(|&i| space.cell(i).unwrap())
            .collect();
        // Duplicates are legal pack members (the context layer dedups, the
        // evaluator must not depend on it).
        cells.push(cells[0]);
        let eval = ZeroCostEvaluator::fast();
        for width in [1usize, 2, cells.len()] {
            let members = &cells[..width];
            let packed = eval
                .evaluate_pack(members, DatasetKind::Cifar10, 11)
                .unwrap();
            assert_eq!(packed.len(), width);
            for (i, cell) in members.iter().enumerate() {
                let solo = eval.evaluate(*cell, DatasetKind::Cifar10, 11).unwrap();
                assert_eq!(solo, packed[i], "width {width} member {i}");
            }
        }
        assert!(eval
            .evaluate_pack(&[], DatasetKind::Cifar10, 11)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn accessors_expose_sub_evaluators() {
        let eval = ZeroCostEvaluator::fast();
        assert_eq!(eval.ntk().config().batch_size, NtkConfig::fast().batch_size);
        assert_eq!(
            eval.linear_regions().config().num_segments,
            LinearRegionConfig::fast().num_segments
        );
    }
}
