//! Neural tangent kernel spectrum proxy (trainability indicator).

use crate::{ProxyError, Result};
use micronas_datasets::{DatasetKind, SyntheticDataset};
use micronas_nn::{CellNetworkPack, PerSampleGradients, ProxyNetworkConfig};
use micronas_searchspace::CellTopology;
use micronas_tensor::{
    sym_eigenvalues_with, EigenOptions, EigenReport, KernelBackend, Shape, Tensor, Workspace,
};
use serde::{Deserialize, Serialize};

/// Configuration of the NTK condition-number proxy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NtkConfig {
    /// Mini-batch size used to form the Gram matrix. The paper studies 4–128
    /// (Fig. 2b) and adopts 32.
    pub batch_size: usize,
    /// Number of independent (init, batch) repetitions averaged together.
    pub repeats: usize,
    /// Geometry of the randomly initialised proxy network.
    pub network: ProxyNetworkConfig,
    /// Largest condition index `K_i` to report (Fig. 2a sweeps i = 1..=16).
    pub max_condition_index: usize,
}

impl NtkConfig {
    /// The configuration used by the paper's adopted setting: batch 32.
    pub fn paper_default() -> Self {
        Self {
            batch_size: 32,
            repeats: 1,
            network: ProxyNetworkConfig::proxy_default(10),
            max_condition_index: 16,
        }
    }

    /// A fast configuration for unit tests and quick sweeps.
    ///
    /// Batch 12 on the [`ProxyNetworkConfig::small`] geometry is the smallest
    /// setting at which the condition number still ranks architectures the
    /// way the paper-scale networks do.
    pub fn fast() -> Self {
        Self {
            batch_size: 12,
            repeats: 1,
            network: ProxyNetworkConfig::small(10),
            max_condition_index: 8,
        }
    }

    /// Returns a copy with a different batch size (Fig. 2b sweep).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Returns a copy with a different repeat count.
    pub fn with_repeats(mut self, repeats: usize) -> Self {
        self.repeats = repeats;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.batch_size < 2 {
            return Err(ProxyError::InvalidConfig(
                "NTK batch size must be at least 2".into(),
            ));
        }
        if self.repeats == 0 {
            return Err(ProxyError::InvalidConfig(
                "NTK repeats must be at least 1".into(),
            ));
        }
        if self.max_condition_index == 0 {
            return Err(ProxyError::InvalidConfig(
                "max condition index must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

impl Default for NtkConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Result of one NTK evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NtkReport {
    /// The classic condition number `K_1 = λ_max / λ_min`, averaged over repeats.
    pub condition_number: f64,
    /// Generalised condition indices `K_i = λ_max / λ_i` for `i = 1..=max_condition_index`.
    pub condition_indices: Vec<f64>,
    /// Eigenvalues of the centred Gram matrix from the first repeat,
    /// ascending, with the structural zero mode of the centring removed
    /// (so the list has `batch_size - 1` entries).
    pub eigenvalues: Vec<f64>,
    /// Batch size used.
    pub batch_size: usize,
    /// Number of repeats averaged.
    pub repeats: usize,
}

impl NtkReport {
    /// The trainability *score* used inside search objectives: the negated
    /// log condition number, so that larger is better.
    pub fn trainability_score(&self) -> f64 {
        -(self.condition_number.max(1.0)).ln()
    }
}

/// Evaluates the NTK condition number of candidate cells.
///
/// For each repeat the evaluator samples a fresh mini-batch from the
/// synthetic dataset, builds a freshly initialised
/// [`micronas_nn::CellNetwork`], computes
/// per-sample parameter gradients `g_i = ∇θ f(x_i)`, centres them
/// (`ĝ_i = g_i - mean(g)`) and forms the normalised Gram matrix
/// `G[i][j] = ĝ_i · ĝ_j / (‖ĝ_i‖ ‖ĝ_j‖)`, whose spectrum — with the
/// structural zero mode of the centring removed — yields the condition
/// indices. Centring and normalising compensates for the missing batch
/// normalisation in the proxy networks: the raw per-sample gradients share a
/// dominant common component whose magnitude spread would otherwise drown the
/// trainability signal the paper's indicator measures.
#[derive(Debug, Clone)]
pub struct NtkEvaluator {
    config: NtkConfig,
    backend: KernelBackend,
}

impl NtkEvaluator {
    /// Creates an evaluator with the given configuration on the
    /// paper-default execution backend.
    pub fn new(config: NtkConfig) -> Self {
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
    pub fn config(&self) -> &NtkConfig {
        &self.config
    }

    /// Evaluates the NTK spectrum of `cell` on a probe batch drawn from
    /// `dataset`, using `seed` for both the batch and the initialisation.
    ///
    /// # Errors
    ///
    /// Returns a [`ProxyError`] if the configuration is invalid or any
    /// underlying numerical step fails.
    pub fn evaluate(
        &self,
        cell: CellTopology,
        dataset: DatasetKind,
        seed: u64,
    ) -> Result<NtkReport> {
        // The thread-local arena keeps batch-level buffers hot across
        // candidates (fresh per-call allocation of batch-32 tensors costs
        // mmap round-trips) and shrinks back to the evaluation's watermark
        // on the way out.
        crate::with_thread_workspace(|workspace| self.evaluate_in(cell, dataset, seed, workspace))
    }

    /// [`NtkEvaluator::evaluate`] threading an explicit scratch arena
    /// (identical values; this is the [`crate::Proxy`] entry point).
    ///
    /// # Errors
    ///
    /// Returns a [`ProxyError`] if the configuration is invalid or any
    /// underlying numerical step fails.
    pub fn evaluate_in(
        &self,
        cell: CellTopology,
        dataset: DatasetKind,
        seed: u64,
        workspace: &mut Workspace,
    ) -> Result<NtkReport> {
        let _span = micronas_telemetry::span!("proxy.ntk");
        let mut reports = self.evaluate_cells(&[cell], dataset, seed, workspace)?;
        Ok(reports.remove(0))
    }

    /// Cross-candidate mega-batched evaluation: every cell in the pack is
    /// evaluated against the **same** probe batch at the **same**
    /// `(seed, repeat)` stream — exactly what per-cell [`NtkEvaluator::evaluate_in`]
    /// calls would use — so the forward passes run through one
    /// [`CellNetworkPack`] whose same-geometry conv layers merge into packed
    /// GEMM dispatches, and the per-sample gradient sweep runs as one packed
    /// backward over the pack (same bucketing, packed weight/input-gradient
    /// kernels, one im2col lowering of the shared probe batch for every
    /// member's stem backward). Only the eigensolves stay per-candidate.
    /// Element `i` of the result is bitwise identical to solo evaluation of
    /// `cells[i]`.
    ///
    /// # Errors
    ///
    /// Returns a [`ProxyError`] if the configuration is invalid or any
    /// underlying numerical step fails.
    pub fn evaluate_pack_in(
        &self,
        cells: &[CellTopology],
        dataset: DatasetKind,
        seed: u64,
        workspace: &mut Workspace,
    ) -> Result<Vec<NtkReport>> {
        let _span = micronas_telemetry::span!("proxy.ntk.pack");
        self.evaluate_cells(cells, dataset, seed, workspace)
    }

    /// The sweep shared by [`NtkEvaluator::evaluate_in`] (a pack of one)
    /// and [`NtkEvaluator::evaluate_pack_in`], outside their telemetry
    /// spans.
    ///
    /// Per repeat, each member's per-sample gradients `[n, P]` give the raw
    /// Gram `G = J·Jᵀ` in one GEMM, which [`finish_gram`] double-centres and
    /// **norm-normalises**. The proxy networks omit batch normalisation, so
    /// at random initialisation the per-sample gradient *norms* spread over
    /// several orders of magnitude with depth; that norm spread dominates
    /// the raw Gram spectrum and inverts the trainability ranking the
    /// paper's indicator relies on. Normalising each gradient to unit
    /// length keeps the angular structure — how sample-specific the tangent
    /// features are — which is the quantity the condition number is meant
    /// to capture.
    fn evaluate_cells(
        &self,
        cells: &[CellTopology],
        dataset: DatasetKind,
        seed: u64,
        workspace: &mut Workspace,
    ) -> Result<Vec<NtkReport>> {
        self.config.validate()?;
        if cells.is_empty() {
            return Ok(Vec::new());
        }
        let mut net_config = self.config.network;
        net_config.num_classes = dataset.num_classes().min(16);

        let mut accs: Vec<NtkAccumulator> = cells
            .iter()
            .map(|_| NtkAccumulator::new(&self.config))
            .collect();
        for repeat in 0..self.config.repeats {
            let repeat_seed = seed.wrapping_add(repeat as u64).wrapping_mul(0x9E37_79B9);
            let data = SyntheticDataset::new(dataset, repeat_seed);
            // The probe batch does not depend on the cell: one sample serves
            // the whole pack, bitwise what each solo call would draw.
            let batch = data.sample_batch_with_stream(
                self.config.batch_size,
                net_config.input_resolution,
                repeat as u64,
            )?;
            let pack =
                CellNetworkPack::with_backend(cells, &net_config, repeat_seed, self.backend)?;
            let n = batch.images.shape().dims()[0];
            let matrices = pack.per_sample_gradient_matrices_with(&batch.images, workspace)?;
            for (acc, j) in accs.iter_mut().zip(matrices) {
                let gram = {
                    let _gram_span = micronas_telemetry::span!("proxy.ntk.gram");
                    let raw = self.raw_gram_from_matrix(n, &j);
                    workspace.recycle(j.into_values());
                    finish_gram(n, &raw)
                };
                acc.absorb(repeat, &gram)?;
            }
        }
        Ok(accs
            .into_iter()
            .map(|acc| acc.finish(&self.config))
            .collect())
    }

    /// The raw (uncentred) Gram `G = J·Jᵀ` of an `[n, P]` per-sample
    /// gradient matrix, as one GEMM with f64 accumulation.
    fn raw_gram_from_matrix(&self, n: usize, j: &PerSampleGradients) -> Vec<f64> {
        let mut raw = vec![0.0f64; n * n];
        self.backend
            .gram_nt_f64(n, j.num_parameters(), j.values(), &mut raw);
        raw
    }
}

/// Double-centres and norm-normalises a raw Gram matrix.
///
/// Centring the gradients (ĝ_i = g_i − mean) is equivalent to
/// double-centring the raw Gram: Ĝ = H G H with H = I − 11ᵀ/n. This
/// O(n²) identity avoids materialising the centred gradient matrix
/// (n × num_parameters) entirely.
fn finish_gram(n: usize, raw: &[f64]) -> Tensor {
    let inv_n = 1.0 / n.max(1) as f64;
    let row_means: Vec<f64> = (0..n)
        .map(|i| raw[i * n..(i + 1) * n].iter().sum::<f64>() * inv_n)
        .collect();
    let total_mean = row_means.iter().sum::<f64>() * inv_n;
    let centred = |i: usize, j: usize| raw[i * n + j] - row_means[i] - row_means[j] + total_mean;
    let norms: Vec<f64> = (0..n).map(|i| centred(i, i).max(0.0).sqrt()).collect();
    let mut gram = Tensor::zeros(Shape::d2(n, n));
    for i in 0..n {
        for j in i..n {
            let scale = norms[i] * norms[j];
            let value = if scale > 0.0 {
                (centred(i, j) / scale) as f32
            } else {
                // A completely disconnected cell produces zero gradients;
                // keep the Gram all-zero (condition_index clamps the
                // denominator so the spectrum stays benign).
                0.0
            };
            *gram.at2_mut(i, j) = value;
            *gram.at2_mut(j, i) = value;
        }
    }
    gram
}

/// Per-candidate spectral accumulation across repeats: eigensolve the
/// centred Gram (with a reused per-candidate scratch buffer), drop the
/// structural zero mode, and average the condition indices.
struct NtkAccumulator {
    condition_sum: f64,
    indices_sum: Vec<f64>,
    first_eigenvalues: Vec<f64>,
    // One eigensolver scratch buffer serves every repeat.
    eigen_scratch: Vec<f64>,
}

impl NtkAccumulator {
    fn new(config: &NtkConfig) -> Self {
        Self {
            condition_sum: 0.0,
            indices_sum: vec![0.0f64; config.max_condition_index],
            first_eigenvalues: Vec::new(),
            eigen_scratch: Vec::new(),
        }
    }

    fn absorb(&mut self, repeat: usize, gram: &Tensor) -> Result<()> {
        let _span = micronas_telemetry::span!("proxy.ntk.eigensolve");
        let full = sym_eigenvalues_with(gram, EigenOptions::default(), &mut self.eigen_scratch)
            .map_err(|e| ProxyError::Eigen(e.to_string()))?;
        // Centring the per-sample gradients (see `finish_gram`) pins one
        // structural zero eigenvalue (the all-ones direction); drop it so
        // the condition indices describe the informative subspace.
        let report = EigenReport {
            eigenvalues: full.eigenvalues[1..].to_vec(),
            sweeps: full.sweeps,
            converged: full.converged,
        };
        self.condition_sum += report.condition_index(1);
        for (i, slot) in self.indices_sum.iter_mut().enumerate() {
            *slot += report.condition_index(i + 1);
        }
        if repeat == 0 {
            self.first_eigenvalues = report.eigenvalues;
        }
        Ok(())
    }

    fn finish(self, config: &NtkConfig) -> NtkReport {
        let repeats = config.repeats as f64;
        NtkReport {
            condition_number: self.condition_sum / repeats,
            condition_indices: self.indices_sum.iter().map(|v| v / repeats).collect(),
            eigenvalues: self.first_eigenvalues,
            batch_size: config.batch_size,
            repeats: config.repeats,
        }
    }
}

impl Default for NtkEvaluator {
    fn default() -> Self {
        Self::new(NtkConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micronas_searchspace::{Operation, SearchSpace};

    fn fast_eval() -> NtkEvaluator {
        NtkEvaluator::new(NtkConfig::fast())
    }

    #[test]
    fn config_validation() {
        assert!(NtkConfig::fast().with_batch_size(1).validate().is_err());
        assert!(NtkConfig::fast().with_repeats(0).validate().is_err());
        let mut cfg = NtkConfig::fast();
        cfg.max_condition_index = 0;
        assert!(cfg.validate().is_err());
        assert!(NtkConfig::paper_default().validate().is_ok());
        assert_eq!(NtkConfig::paper_default().batch_size, 32);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let space = SearchSpace::nas_bench_201();
        let cell = space.cell(8_888).unwrap();
        let eval = fast_eval();
        let a = eval.evaluate(cell, DatasetKind::Cifar10, 3).unwrap();
        let b = eval.evaluate(cell, DatasetKind::Cifar10, 3).unwrap();
        assert_eq!(a, b);
        let c = eval.evaluate(cell, DatasetKind::Cifar10, 4).unwrap();
        assert_ne!(a.condition_number, c.condition_number);
    }

    #[test]
    fn report_structure_is_consistent() {
        let space = SearchSpace::nas_bench_201();
        let cell = space.cell(12_003).unwrap();
        let eval = fast_eval();
        let report = eval.evaluate(cell, DatasetKind::Cifar10, 1).unwrap();
        assert_eq!(report.batch_size, 12);
        // The centring null mode is dropped from the reported spectrum.
        assert_eq!(report.eigenvalues.len(), 11);
        assert_eq!(report.condition_indices.len(), 8);
        // K_1 equals the reported condition number for a single repeat.
        assert!((report.condition_indices[0] - report.condition_number).abs() < 1e-9);
        // K_i is non-increasing in i.
        for w in report.condition_indices.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
        assert!(report.condition_number >= 1.0);
        assert!(report.trainability_score() <= 0.0);
    }

    #[test]
    fn disconnected_cell_has_much_worse_conditioning_than_conv_cell() {
        // A conv-rich connected cell should be far better conditioned than a
        // cell whose only path is a pooling chain (near-degenerate NTK).
        let eval = fast_eval();
        let conv_cell = CellTopology::new([
            Operation::NorConv3x3,
            Operation::SkipConnect,
            Operation::NorConv1x1,
            Operation::SkipConnect,
            Operation::NorConv1x1,
            Operation::NorConv3x3,
        ]);
        let pool_cell = CellTopology::new([Operation::AvgPool3x3; 6]);
        let conv = eval.evaluate(conv_cell, DatasetKind::Cifar10, 5).unwrap();
        let pool = eval.evaluate(pool_cell, DatasetKind::Cifar10, 5).unwrap();
        assert!(
            pool.condition_number > conv.condition_number,
            "pool-only cell (K={}) should be worse conditioned than conv cell (K={})",
            pool.condition_number,
            conv.condition_number
        );
    }

    /// The looped oracle end to end: per-sample gradients from one full
    /// backward per sample and n² scalar Gram dots, through the same
    /// centring, eigensolve and averaging.
    fn looped_report(
        eval: &NtkEvaluator,
        cell: CellTopology,
        dataset: DatasetKind,
        seed: u64,
    ) -> NtkReport {
        let config = eval.config();
        let mut net_config = config.network;
        net_config.num_classes = dataset.num_classes().min(16);
        let mut acc = NtkAccumulator::new(config);
        let mut ws = Workspace::default();
        for repeat in 0..config.repeats {
            let repeat_seed = seed.wrapping_add(repeat as u64).wrapping_mul(0x9E37_79B9);
            let batch = SyntheticDataset::new(dataset, repeat_seed)
                .sample_batch_with_stream(
                    config.batch_size,
                    net_config.input_resolution,
                    repeat as u64,
                )
                .unwrap();
            let net = micronas_nn::CellNetwork::new(&cell, &net_config, repeat_seed).unwrap();
            let grads = net
                .per_sample_gradients_looped_with(&batch.images, &mut ws)
                .unwrap();
            let n = grads.len();
            let mut raw = vec![0.0f64; n * n];
            for i in 0..n {
                for j in i..n {
                    let dot = grads[i].dot(&grads[j]);
                    raw[i * n + j] = dot;
                    raw[j * n + i] = dot;
                }
            }
            acc.absorb(repeat, &finish_gram(n, &raw)).unwrap();
        }
        acc.finish(config)
    }

    #[test]
    fn batched_and_looped_paths_agree() {
        // The per-sample gradients are identical bit-for-bit (see the nn
        // oracle tests); the Gram builds differ only in accumulation
        // order, so the spectra must agree to fine tolerance.
        let space = SearchSpace::nas_bench_201();
        let eval = NtkEvaluator::new(NtkConfig::fast());
        for index in [7_000usize, 11_111, 404] {
            let cell = space.cell(index).unwrap();
            let batched = eval.evaluate(cell, DatasetKind::Cifar10, 2).unwrap();
            let looped = looped_report(&eval, cell, DatasetKind::Cifar10, 2);
            assert!(
                (batched.condition_number - looped.condition_number).abs()
                    < 1e-3 * (1.0 + looped.condition_number.abs()),
                "cell {index}: batched K={} vs looped K={}",
                batched.condition_number,
                looped.condition_number
            );
            for (a, b) in batched.eigenvalues.iter().zip(looped.eigenvalues.iter()) {
                assert!((a - b).abs() < 1e-5 * (1.0 + b.abs()), "{a} vs {b}");
            }
        }
    }

    /// The mega-batching identity at the proxy layer: packed NTK reports —
    /// including the averaged indices and the repeat-0 spectrum — must be
    /// bitwise identical to solo evaluation of every pack member.
    #[test]
    fn packed_evaluation_is_bitwise_identical_to_solo() {
        let space = SearchSpace::nas_bench_201();
        let cells: Vec<_> = [7_000usize, 11_111, 404, 0, 8_888]
            .iter()
            .map(|&i| space.cell(i).unwrap())
            .collect();
        let eval = NtkEvaluator::new(NtkConfig::fast().with_repeats(2));
        let mut ws = Workspace::default();
        for width in [1usize, 2, cells.len()] {
            let members = &cells[..width];
            let packed = eval
                .evaluate_pack_in(members, DatasetKind::Cifar10, 6, &mut ws)
                .unwrap();
            assert_eq!(packed.len(), width);
            for (i, cell) in members.iter().enumerate() {
                let solo = eval.evaluate(*cell, DatasetKind::Cifar10, 6).unwrap();
                assert_eq!(solo, packed[i], "width {width} member {i}");
            }
        }
        assert!(eval
            .evaluate_pack_in(&[], DatasetKind::Cifar10, 6, &mut ws)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn repeats_average_the_condition_number() {
        let space = SearchSpace::nas_bench_201();
        let cell = space.cell(9_431).unwrap();
        let eval1 = NtkEvaluator::new(NtkConfig::fast().with_repeats(1));
        let eval2 = NtkEvaluator::new(NtkConfig::fast().with_repeats(2));
        let r1 = eval1.evaluate(cell, DatasetKind::Cifar10, 10).unwrap();
        let r2 = eval2.evaluate(cell, DatasetKind::Cifar10, 10).unwrap();
        assert_eq!(r2.repeats, 2);
        // The two-repeat average is generally different from the single run.
        assert!(r1.condition_number > 0.0 && r2.condition_number > 0.0);
    }
}
