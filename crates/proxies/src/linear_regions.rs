//! Linear-region count proxy (expressivity indicator).

use crate::{ProxyError, Result};
use micronas_datasets::{DatasetKind, SyntheticDataset};
use micronas_nn::{CellNetworkPack, ProxyNetworkConfig, SignPatterns};
use micronas_searchspace::CellTopology;
use micronas_tensor::{KernelBackend, Shape, Tensor};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Configuration of the linear-region proxy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearRegionConfig {
    /// Number of random input-space segments probed.
    pub num_segments: usize,
    /// Number of interpolation points per segment (including endpoints).
    pub points_per_segment: usize,
    /// Geometry of the randomly initialised proxy network.
    pub network: ProxyNetworkConfig,
}

impl LinearRegionConfig {
    /// The default configuration used by the benchmark harness.
    pub fn paper_default() -> Self {
        Self {
            num_segments: 8,
            points_per_segment: 24,
            network: ProxyNetworkConfig::proxy_default(10),
        }
    }

    /// A fast configuration for unit tests.
    pub fn fast() -> Self {
        Self {
            num_segments: 3,
            points_per_segment: 10,
            network: ProxyNetworkConfig::small(10),
        }
    }

    fn validate(&self) -> Result<()> {
        if self.num_segments == 0 {
            return Err(ProxyError::InvalidConfig(
                "at least one probe segment is required".into(),
            ));
        }
        if self.points_per_segment < 2 {
            return Err(ProxyError::InvalidConfig(
                "segments need at least two points".into(),
            ));
        }
        Ok(())
    }
}

impl Default for LinearRegionConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Result of one linear-region evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearRegionReport {
    /// Total number of distinct linear regions encountered across all probe
    /// segments (the expressivity score; larger is better).
    pub regions: usize,
    /// Average number of regions per segment.
    pub regions_per_segment: f64,
    /// Number of distinct global activation patterns seen across all probe
    /// points (an upper-bound style secondary statistic).
    pub distinct_patterns: usize,
    /// Total number of ReLU units in the probe network.
    pub relu_units: usize,
}

impl LinearRegionReport {
    /// The expressivity *score* used inside search objectives: the log of the
    /// region count (larger is better).
    pub fn expressivity_score(&self) -> f64 {
        (self.regions.max(1) as f64).ln()
    }
}

/// Estimates the number of linear regions a candidate cell induces.
///
/// ReLU networks are piecewise linear: each distinct activation pattern
/// corresponds to one linear region of input space (Xiong et al., 2020). At
/// proxy scale, counting distinct patterns over independent random samples
/// saturates almost immediately (every sample lands in its own region), so
/// the evaluator instead walks straight segments between random pairs of
/// inputs and counts how many ReLU hyperplanes each segment crosses (the
/// Hamming distance between consecutive activation patterns, accumulated
/// along the segment). One plus the crossing count is the number of linear
/// pieces the segment is cut into — a graded estimator of region density
/// that preserves the ranking the paper's expressivity indicator provides.
///
/// Activation patterns never exist as floats or booleans: the packed
/// forward pass ([`CellNetworkPack::forward_signs_with`]) writes each probe
/// point's ReLU signs straight into a row of `u64` words
/// ([`SignPatterns`]), the crossing count between consecutive points is
/// XOR + `count_ones` over those rows, and distinct patterns are distinct
/// rows. Solo evaluation is a pack of one, which is bitwise solo.
#[derive(Debug, Clone)]
pub struct LinearRegionEvaluator {
    config: LinearRegionConfig,
    backend: KernelBackend,
}

impl LinearRegionEvaluator {
    /// Creates an evaluator with the given configuration on the
    /// paper-default execution backend.
    pub fn new(config: LinearRegionConfig) -> Self {
        Self {
            config,
            backend: KernelBackend::BlockedGemm,
        }
    }

    /// Returns a copy running on an explicit execution backend.
    pub fn with_backend(mut self, backend: KernelBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The execution backend in force.
    pub fn backend(&self) -> KernelBackend {
        self.backend
    }

    /// The evaluator's configuration.
    pub fn config(&self) -> &LinearRegionConfig {
        &self.config
    }

    /// Evaluates the linear-region count of `cell` using probe inputs shaped
    /// like `dataset` samples.
    ///
    /// # Errors
    ///
    /// Returns a [`ProxyError`] if the configuration is invalid or any
    /// underlying step fails.
    pub fn evaluate(
        &self,
        cell: CellTopology,
        dataset: DatasetKind,
        seed: u64,
    ) -> Result<LinearRegionReport> {
        // The shared per-thread scratch arena serves every probe segment and
        // stays hot across candidates.
        crate::with_thread_workspace(|workspace| self.evaluate_in(cell, dataset, seed, workspace))
    }

    /// [`LinearRegionEvaluator::evaluate`] threading an explicit scratch
    /// arena (identical values; this is the [`crate::Proxy`] entry point).
    ///
    /// # Errors
    ///
    /// Returns a [`ProxyError`] if the configuration is invalid or any
    /// underlying step fails.
    pub fn evaluate_in(
        &self,
        cell: CellTopology,
        dataset: DatasetKind,
        seed: u64,
        workspace: &mut micronas_tensor::Workspace,
    ) -> Result<LinearRegionReport> {
        let _span = micronas_telemetry::span!("proxy.linear_regions");
        let mut reports = self.evaluate_cells(&[cell], dataset, seed, workspace)?;
        Ok(reports.remove(0))
    }

    /// Cross-candidate mega-batched evaluation: every cell probes the
    /// **same** segments (endpoints and interpolation do not depend on the
    /// cell), so each segment's forward pass runs through one
    /// [`CellNetworkPack`] whose same-geometry conv layers merge into packed
    /// GEMM dispatches. Element `i` of the result is bitwise identical to
    /// solo evaluation of `cells[i]` via
    /// [`LinearRegionEvaluator::evaluate_in`].
    ///
    /// # Errors
    ///
    /// Returns a [`ProxyError`] if the configuration is invalid or any
    /// underlying step fails.
    pub fn evaluate_pack_in(
        &self,
        cells: &[CellTopology],
        dataset: DatasetKind,
        seed: u64,
        workspace: &mut micronas_tensor::Workspace,
    ) -> Result<Vec<LinearRegionReport>> {
        let _span = micronas_telemetry::span!("proxy.linear_regions.pack");
        self.evaluate_cells(cells, dataset, seed, workspace)
    }

    /// The probe shared by [`LinearRegionEvaluator::evaluate_in`] (a pack of
    /// one) and [`LinearRegionEvaluator::evaluate_pack_in`], outside their
    /// telemetry spans.
    fn evaluate_cells(
        &self,
        cells: &[CellTopology],
        dataset: DatasetKind,
        seed: u64,
        workspace: &mut micronas_tensor::Workspace,
    ) -> Result<Vec<LinearRegionReport>> {
        self.config.validate()?;
        if cells.is_empty() {
            return Ok(Vec::new());
        }
        let mut net_config = self.config.network;
        net_config.num_classes = dataset.num_classes().min(16);
        let pack = CellNetworkPack::with_backend(cells, &net_config, seed, self.backend)?;
        let data = SyntheticDataset::new(dataset, seed);

        let mut accs: Vec<RegionAccumulator> =
            cells.iter().map(|_| RegionAccumulator::default()).collect();
        for segment in 0..self.config.num_segments {
            // Two endpoint batches of one sample each.
            let endpoints =
                data.sample_batch_with_stream(2, net_config.input_resolution, segment as u64)?;
            let points = self.interpolate(&endpoints.images, self.config.points_per_segment)?;
            let signs = pack.forward_signs_with(&points, workspace)?;
            for (acc, signs) in accs.iter_mut().zip(signs) {
                acc.absorb_segment(signs);
            }
        }
        Ok(accs
            .into_iter()
            .map(|acc| acc.finish(self.config.num_segments))
            .collect())
    }

    /// Builds a batch of `steps` points interpolating linearly between the
    /// two samples of `endpoints`.
    fn interpolate(&self, endpoints: &Tensor, steps: usize) -> Result<Tensor> {
        let d = endpoints.shape().dims();
        let per_sample = d[1] * d[2] * d[3];
        let a = &endpoints.data()[0..per_sample];
        let b = &endpoints.data()[per_sample..2 * per_sample];
        let mut data = Vec::with_capacity(steps * per_sample);
        for s in 0..steps {
            let t = s as f32 / (steps - 1) as f32;
            for k in 0..per_sample {
                data.push((1.0 - t) * a[k] + t * b[k]);
            }
        }
        Tensor::from_vec(Shape::nchw(steps, d[1], d[2], d[3]), data)
            .map_err(|e| ProxyError::Network(e.to_string()))
    }
}

impl Default for LinearRegionEvaluator {
    fn default() -> Self {
        Self::new(LinearRegionConfig::default())
    }
}

/// Per-candidate region counting across probe segments.
///
/// Every segment's patterns have the same bit length (the candidate's ReLU
/// unit count) and zero padding past it, so comparing word rows is
/// comparing patterns: the crossing count of two consecutive points is the
/// popcount of their XOR, and the distinct patterns of the whole probe are
/// the distinct rows. A ReLU-free candidate has empty rows, hence one
/// region per segment and one distinct pattern.
#[derive(Default)]
struct RegionAccumulator {
    total_regions: usize,
    relu_units: usize,
    segments: Vec<SignPatterns>,
}

impl RegionAccumulator {
    fn absorb_segment(&mut self, signs: SignPatterns) {
        self.relu_units = signs.bits_per_point();
        // Pieces along the segment: 1 + number of ReLU hyperplane crossings
        // (Hamming distance between consecutive patterns).
        let mut segment_regions = 1usize;
        for point in 1..signs.points() {
            let crossings: u32 = signs
                .row(point - 1)
                .iter()
                .zip(signs.row(point))
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            segment_regions += crossings as usize;
        }
        self.total_regions += segment_regions;
        self.segments.push(signs);
    }

    fn finish(self, num_segments: usize) -> LinearRegionReport {
        let distinct: HashSet<&[u64]> = self.segments.iter().flat_map(|s| s.rows()).collect();
        LinearRegionReport {
            regions: self.total_regions,
            regions_per_segment: self.total_regions as f64 / num_segments as f64,
            distinct_patterns: distinct.len(),
            relu_units: self.relu_units,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micronas_searchspace::{Operation, SearchSpace};

    fn fast_eval() -> LinearRegionEvaluator {
        LinearRegionEvaluator::new(LinearRegionConfig::fast())
    }

    #[test]
    fn config_validation() {
        let mut cfg = LinearRegionConfig::fast();
        cfg.num_segments = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = LinearRegionConfig::fast();
        cfg.points_per_segment = 1;
        assert!(cfg.validate().is_err());
        assert!(LinearRegionConfig::paper_default().validate().is_ok());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let space = SearchSpace::nas_bench_201();
        let cell = space.cell(7_654).unwrap();
        let eval = fast_eval();
        let a = eval.evaluate(cell, DatasetKind::Cifar10, 1).unwrap();
        let b = eval.evaluate(cell, DatasetKind::Cifar10, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn relu_free_cells_have_one_region_per_segment() {
        // Skip-only and pool-only cells contain no ReLU-conv blocks at all.
        let eval = fast_eval();
        for op in [
            Operation::SkipConnect,
            Operation::AvgPool3x3,
            Operation::None,
        ] {
            let report = eval
                .evaluate(CellTopology::new([op; 6]), DatasetKind::Cifar10, 2)
                .unwrap();
            assert_eq!(report.relu_units, 0);
            assert_eq!(report.regions, eval.config().num_segments);
            assert_eq!(report.distinct_patterns, 1);
            assert_eq!(report.expressivity_score(), (report.regions as f64).ln());
        }
    }

    #[test]
    fn conv_cells_are_more_expressive_than_sparse_cells() {
        let eval = fast_eval();
        let rich = CellTopology::new([Operation::NorConv3x3; 6]);
        let sparse = CellTopology::new([
            Operation::NorConv1x1,
            Operation::None,
            Operation::None,
            Operation::SkipConnect,
            Operation::None,
            Operation::SkipConnect,
        ]);
        let r = eval.evaluate(rich, DatasetKind::Cifar10, 3).unwrap();
        let s = eval.evaluate(sparse, DatasetKind::Cifar10, 3).unwrap();
        assert!(
            r.regions > s.regions,
            "rich cell ({} regions) should beat sparse cell ({} regions)",
            r.regions,
            s.regions
        );
        assert!(r.relu_units > s.relu_units);
    }

    /// The mega-batching identity at the proxy layer: packed region reports
    /// must be bitwise identical to solo evaluation of every pack member.
    #[test]
    fn packed_evaluation_is_bitwise_identical_to_solo() {
        let space = SearchSpace::nas_bench_201();
        let cells: Vec<_> = [7_000usize, 11_111, 404, 0, 15_624]
            .iter()
            .map(|&i| space.cell(i).unwrap())
            .collect();
        let eval = fast_eval();
        let mut ws = micronas_tensor::Workspace::default();
        for width in [1usize, 2, cells.len()] {
            let members = &cells[..width];
            let packed = eval
                .evaluate_pack_in(members, DatasetKind::Cifar10, 8, &mut ws)
                .unwrap();
            assert_eq!(packed.len(), width);
            for (i, cell) in members.iter().enumerate() {
                let solo = eval.evaluate(*cell, DatasetKind::Cifar10, 8).unwrap();
                assert_eq!(solo, packed[i], "width {width} member {i}");
            }
        }
        assert!(eval
            .evaluate_pack_in(&[], DatasetKind::Cifar10, 8, &mut ws)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn regions_per_segment_consistent_with_total() {
        let space = SearchSpace::nas_bench_201();
        let eval = fast_eval();
        let report = eval
            .evaluate(space.cell(11_111).unwrap(), DatasetKind::Cifar100, 4)
            .unwrap();
        let expected = report.regions as f64 / eval.config().num_segments as f64;
        assert!((report.regions_per_segment - expected).abs() < 1e-12);
        assert!(report.regions >= eval.config().num_segments);
    }
}
