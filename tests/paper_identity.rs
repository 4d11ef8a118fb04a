//! Golden identity pins for the paper-default pipeline.
//!
//! The API redesign (Proxy trait / MetricSet / SearchSession) promised that
//! the paper-default configuration stays **bitwise identical** to the tree
//! before it (PR 3). These constants were captured from that tree; every
//! proxy value, search trajectory and experiment statistic feeds the sweep
//! fingerprint, so a single drifted bit anywhere in the pipeline fails
//! here. The linear-region counts and the paper-default search outcome
//! were pinned later, from the tree before the bit-packed sign patterns.
//! If an assertion fails after an intentional numerical change, bump the
//! store namespace version and re-capture — never silently update.

use micronas_suite::core::experiments::{run_paper_sweep, SweepScale};
use micronas_suite::core::MicroNasConfig;

/// `SweepReport::identity_fingerprint` of `run_paper_sweep(tiny_test, tiny)`
/// captured on the PR 3 tree.
const TINY_FINGERPRINT: u64 = 0xa18a_5c02_cac6_7ecd;

/// `SweepReport::identity_fingerprint` of `run_paper_sweep(fast, tiny)`
/// captured on the PR 3 tree.
const FAST_FINGERPRINT: u64 = 0xd341_27d1_e32e_c3b1;

#[test]
fn tiny_sweep_fingerprint_matches_the_pre_redesign_tree() {
    let report = run_paper_sweep(&MicroNasConfig::tiny_test(), &SweepScale::tiny(), None).unwrap();
    assert_eq!(
        report.identity_fingerprint(),
        TINY_FINGERPRINT,
        "got {:#018x}",
        report.identity_fingerprint()
    );
}

#[test]
fn fast_sweep_fingerprint_matches_the_pre_redesign_tree() {
    let report = run_paper_sweep(&MicroNasConfig::fast(), &SweepScale::tiny(), None).unwrap();
    assert_eq!(
        report.identity_fingerprint(),
        FAST_FINGERPRINT,
        "got {:#018x}",
        report.identity_fingerprint()
    );
}

/// `(regions, distinct_patterns, relu_units)` of the paper-default
/// linear-region probe on CIFAR-10 at seed 0, captured on the tree before
/// the bit-packed sign patterns.
const LR_PINS: [(usize, (usize, usize, usize)); 6] = [
    (0, (8, 1, 0)),
    (404, (17_379, 192, 4_096)),
    (7_000, (8, 1, 4_096)),
    (7_831, (69_559, 192, 16_384)),
    (8_888, (45_472, 192, 12_288)),
    (11_111, (63_317, 192, 16_384)),
];

#[test]
fn paper_default_linear_regions_match_the_pinned_counts() {
    use micronas_suite::datasets::DatasetKind;
    use micronas_suite::proxies::{LinearRegionConfig, LinearRegionEvaluator, LinearRegionReport};
    use micronas_suite::searchspace::SearchSpace;

    let space = SearchSpace::nas_bench_201();
    let eval = LinearRegionEvaluator::new(LinearRegionConfig::paper_default());
    let triple = |r: &LinearRegionReport| (r.regions, r.distinct_patterns, r.relu_units);
    let cells: Vec<_> = LR_PINS
        .iter()
        .map(|&(i, _)| space.cell(i).unwrap())
        .collect();
    for (&(index, want), cell) in LR_PINS.iter().zip(&cells) {
        let solo = eval.evaluate(*cell, DatasetKind::Cifar10, 0).unwrap();
        assert_eq!(triple(&solo), want, "solo, arch {index}");
    }
    let mut ws = micronas_suite::tensor::Workspace::default();
    for width in [1, cells.len()] {
        for (chunk, pins) in cells.chunks(width).zip(LR_PINS.chunks(width)) {
            let reports = eval
                .evaluate_pack_in(chunk, DatasetKind::Cifar10, 0, &mut ws)
                .unwrap();
            for (report, &(index, want)) in reports.iter().zip(pins) {
                assert_eq!(triple(report), want, "pack width {width}, arch {index}");
            }
        }
    }
}

/// `SearchOutcome::history` bits of the paper-default search (latency-guided
/// 2.0, CIFAR-10), captured on the tree before the bit-packed sign patterns.
const PAPER_SEARCH_HISTORY_BITS: [u64; 24] = [
    0xc035_d999_7433_1dbe,
    0xc035_b7be_7800_567c,
    0xc035_912b_d34f_8e7c,
    0xc035_6c54_8697_fbf0,
    0xc035_67dd_3735_e1ce,
    0xc035_678a_29dc_18e3,
    0xc035_50ec_2bda_5964,
    0xc035_4704_3cce_5ed7,
    0xc035_3227_5ce6_61ff,
    0xc035_2a7f_cacc_bd02,
    0xc034_f1f9_de04_28e8,
    0xc034_c997_478c_270c,
    0xc034_ba71_7a40_9fc6,
    0xc034_b587_d7bb_0488,
    0xc034_989d_f304_a4d2,
    0xc034_f7eb_2802_8426,
    0xc034_6fce_9a78_f55e,
    0xc034_6d59_84f3_bde4,
    0xc034_5ad0_53a6_93ac,
    0xc033_facf_95eb_0aa6,
    0xc033_f243_eb61_3a4c,
    0xc033_d8cd_ec7e_5b8d,
    0xc033_4728_e023_745c,
    0xc033_3200_4b89_ba6b,
];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a paper-default search takes about 7 s in release; run with --release"
)]
fn paper_default_search_finds_the_pinned_architecture() {
    use micronas_suite::core::{ObjectiveWeights, SearchSession};
    use micronas_suite::datasets::DatasetKind;

    let outcome = SearchSession::builder()
        .dataset(DatasetKind::Cifar10)
        .config(MicroNasConfig::paper_default())
        .objective(ObjectiveWeights::latency_guided(2.0))
        .build()
        .unwrap()
        .run_micronas()
        .unwrap();
    assert_eq!(outcome.best.index(), 7_831);
    let metrics = &outcome.evaluation.metrics;
    assert_eq!(
        metrics.get("ntk_condition").map(f64::to_bits),
        Some(38.606106745546526f64.to_bits())
    );
    assert_eq!(metrics.get("linear_regions"), Some(69_559.0));
    let bits: Vec<u64> = outcome.history.iter().map(|h| h.to_bits()).collect();
    assert_eq!(bits, PAPER_SEARCH_HISTORY_BITS);
}
