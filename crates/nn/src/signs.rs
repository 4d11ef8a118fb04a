//! Bit-packed ReLU sign patterns of a forward pass.

use micronas_tensor::Tensor;

/// The ReLU activation pattern of every probe point of one forward pass,
/// packed one bit per pre-activation (`1` where the value is `> 0.0`).
///
/// Point `i`'s pattern is the concatenation, in (cell, edge) order, of the
/// signs of sample `i` of every conv edge's pre-ReLU input — the bit
/// sequence [`crate::ForwardOutput::pre_activations`] would yield under
/// `v > 0.0`. Each point owns one row of `words_per_point` little-endian
/// `u64` words (bit `b` lives in word `b / 64` at position `b % 64`); the
/// bits past `bits_per_point` are zero, so two rows are equal exactly when
/// the patterns are, and Hamming distances are XOR + `count_ones` over
/// whole words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignPatterns {
    points: usize,
    bits_per_point: usize,
    words_per_point: usize,
    words: Vec<u64>,
}

impl SignPatterns {
    /// All-zero patterns of `bits_per_point` bits for `points` points.
    pub(crate) fn zeroed(points: usize, bits_per_point: usize) -> Self {
        let words_per_point = bits_per_point.div_ceil(64);
        Self {
            points,
            bits_per_point,
            words_per_point,
            words: vec![0; points * words_per_point],
        }
    }

    /// Packs the signs of `pre_activations` (one `[points, ...]` tensor per
    /// conv edge, in (cell, edge) order) — the reference the forward passes
    /// that write signs directly agree with.
    ///
    /// # Panics
    ///
    /// Panics if a tensor's leading dimension is not `points`.
    pub fn from_pre_activations(points: usize, pre_activations: &[Tensor]) -> Self {
        let values_per_point = |t: &Tensor| -> usize { t.shape().dims()[1..].iter().product() };
        let bits_per_point = pre_activations.iter().map(values_per_point).sum();
        let mut signs = Self::zeroed(points, bits_per_point);
        let mut offset = 0;
        for t in pre_activations {
            assert_eq!(t.shape().dims()[0], points, "pre-activation batch size");
            let per_point = values_per_point(t);
            for (point, values) in t.data().chunks_exact(per_point).enumerate() {
                set_sign_bits(signs.row_mut(point), offset, values);
            }
            offset += per_point;
        }
        signs
    }

    /// Number of probe points (rows).
    pub fn points(&self) -> usize {
        self.points
    }

    /// Pattern length in bits: the number of ReLU units.
    pub fn bits_per_point(&self) -> usize {
        self.bits_per_point
    }

    /// Point `point`'s packed pattern.
    pub fn row(&self, point: usize) -> &[u64] {
        &self.words[point * self.words_per_point..(point + 1) * self.words_per_point]
    }

    /// Every point's packed pattern, in point order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u64]> + '_ {
        (0..self.points).map(|p| self.row(p))
    }

    pub(crate) fn row_mut(&mut self, point: usize) -> &mut [u64] {
        &mut self.words[point * self.words_per_point..(point + 1) * self.words_per_point]
    }
}

/// ORs the signs (`v > 0.0`) of `values` into `row` starting at bit
/// `offset`; the bits it covers must still be zero.
pub(crate) fn set_sign_bits(row: &mut [u64], offset: usize, values: &[f32]) {
    let mut word = offset / 64;
    let mut shift = offset % 64;
    let mut pending = 0u64;
    for &v in values {
        pending |= u64::from(v > 0.0) << shift;
        shift += 1;
        if shift == 64 {
            row[word] |= pending;
            word += 1;
            shift = 0;
            pending = 0;
        }
    }
    if pending != 0 {
        row[word] |= pending;
    }
}

/// ORs the pattern `src` (a row of a [`SignPatterns`], so zero past its
/// last bit) into `row` starting at bit `offset`, a word at a time; the
/// bits it covers must still be zero. The same bits [`set_sign_bits`] would
/// write at `offset` from the values `src` was packed from.
pub(crate) fn or_sign_bits(row: &mut [u64], offset: usize, src: &[u64]) {
    let base = offset / 64;
    let shift = offset % 64;
    for (i, &w) in src.iter().enumerate() {
        if shift == 0 {
            row[base + i] |= w;
            continue;
        }
        if w << shift != 0 {
            row[base + i] |= w << shift;
        }
        if w >> (64 - shift) != 0 {
            row[base + i + 1] |= w >> (64 - shift);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellNetworkPack, ProxyNetworkConfig};
    use micronas_searchspace::{CellTopology, SearchSpace};
    use micronas_tensor::{DeterministicRng, Shape, Workspace};
    use proptest::TestRng;

    /// The tiny-sweep probe geometry: 3 × 6 × 6 = 108 bits per edge tensor.
    fn tiny_probe() -> ProxyNetworkConfig {
        ProxyNetworkConfig {
            input_resolution: 6,
            channels: 3,
            ..ProxyNetworkConfig::tiny(10)
        }
    }

    /// Copying a packed pattern in at any bit offset writes exactly the
    /// bits packing its values there would: aligned, unaligned (the `fast`
    /// geometry's 864-bit edge tensors land at offsets like 864 % 64 = 32),
    /// across word boundaries and for lengths under one word.
    #[test]
    fn or_sign_bits_matches_packing_at_the_offset() {
        let mut data = DeterministicRng::new(5);
        for len in [1usize, 5, 63, 64, 65, 108, 200] {
            let values: Vec<f32> = (0..len).map(|_| data.normal()).collect();
            let mut packed = SignPatterns::zeroed(1, len);
            set_sign_bits(packed.row_mut(0), 0, &values);
            for offset in [0usize, 1, 31, 32, 63, 64, 100, 864] {
                let mut want = SignPatterns::zeroed(1, offset + len + 7);
                set_sign_bits(want.row_mut(0), offset, &values);
                let mut got = SignPatterns::zeroed(1, offset + len + 7);
                or_sign_bits(got.row_mut(0), offset, packed.row(0));
                assert_eq!(got, want, "len {len} offset {offset}");
            }
        }
    }

    /// `v > 0.0` over every pre-activation, one `Vec<bool>` per point.
    fn naive_patterns(pre_activations: &[Tensor], points: usize) -> Vec<Vec<bool>> {
        let mut patterns = vec![Vec::new(); points];
        for t in pre_activations {
            let per_point = t.numel() / points;
            for (point, pattern) in patterns.iter_mut().enumerate() {
                let values = &t.data()[point * per_point..(point + 1) * per_point];
                pattern.extend(values.iter().map(|&v| v > 0.0));
            }
        }
        patterns
    }

    fn assert_matches_naive(signs: &SignPatterns, naive: &[Vec<bool>], context: &str) {
        assert_eq!(signs.points(), naive.len(), "{context}");
        for (point, pattern) in naive.iter().enumerate() {
            assert_eq!(signs.bits_per_point(), pattern.len(), "{context}");
            let row = signs.row(point);
            assert_eq!(row.len(), pattern.len().div_ceil(64), "{context}");
            for bit in 0..row.len() * 64 {
                let got = row[bit / 64] >> (bit % 64) & 1 == 1;
                let want = pattern.get(bit).copied().unwrap_or(false);
                assert_eq!(got, want, "{context}: point {point} bit {bit}");
            }
        }
    }

    /// Checks `forward_signs_with` against the naive signs of
    /// `forward_with(..).pre_activations` for random cells (plus the
    /// conv-free cell 0, whose rows are empty) at pack widths 1, 2 and 5.
    fn check_geometry(config: &ProxyNetworkConfig, rng: &mut TestRng, context: &str) {
        let space = SearchSpace::nas_bench_201();
        let mut cells: Vec<CellTopology> = (0..4)
            .map(|_| space.cell(rng.below(15_625) as usize).unwrap())
            .collect();
        cells.insert(2, space.cell(0).unwrap());
        let points = 3;
        let r = config.input_resolution;
        let shape = Shape::nchw(points, config.input_channels, r, r);
        let mut data = DeterministicRng::new(rng.next_u64());
        let values = (0..shape.numel()).map(|_| data.normal()).collect();
        let input = Tensor::from_vec(shape, values).unwrap();
        let mut ws = Workspace::default();
        for width in [1usize, 2, 5] {
            let pack = CellNetworkPack::new(&cells[..width], config, 9).unwrap();
            let signs = pack.forward_signs_with(&input, &mut ws).unwrap();
            let outputs = pack.forward_with(&input, &mut ws).unwrap();
            assert_eq!(signs.len(), width);
            for (i, (s, out)) in signs.iter().zip(&outputs).enumerate() {
                let naive = naive_patterns(&out.pre_activations, points);
                let context = format!("{context}, width {width}, member {i}");
                assert_matches_naive(s, &naive, &context);
            }
        }
    }

    /// The packed forward writes exactly the naive sign bits at
    /// word-unaligned edge offsets (108 and 864 bits per edge tensor) and
    /// aligned ones (2048), at one and several rayon threads.
    #[test]
    fn forward_signs_match_naive_pre_activation_signs() {
        let mut rng = TestRng::from_name("forward_signs_match_naive_pre_activation_signs");
        let geometries = [
            ("tiny", tiny_probe()),
            ("fast", ProxyNetworkConfig::small(10)),
            ("paper", ProxyNetworkConfig::proxy_default(10)),
        ];
        for threads in [1usize, 0] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for (name, config) in &geometries {
                let context = format!("{name}, threads {threads}");
                pool.install(|| check_geometry(config, &mut rng, &context));
            }
        }
    }
}
