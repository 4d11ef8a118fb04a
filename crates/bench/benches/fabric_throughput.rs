//! Distributed-fabric throughput: raw loopback RPC rates, plus the headline
//! cold-single-node vs warm-two-node paper-sweep comparison.
//!
//! The sweep comparison is the acceptance check of the fabric: a worker
//! arriving at a warm two-node fleet with an **empty local store** must
//! finish the tiny paper grid faster than a standalone cold worker, produce
//! a bitwise-identical report, and source its evaluations from the fleet
//! (remote hit/miss counters are part of the JSON provenance in
//! `target/bench-json/fabric_throughput.json`).
//!
//! `MICRONAS_BENCH_SMOKE=1` runs the reduced-scale warm-fleet gate only,
//! on exact counters: the warm arrival misses nothing locally or remotely,
//! hits no timeout or error, is served by the fleet, and reproduces the
//! cold report bit for bit.

use criterion::{criterion_group, criterion_main, Criterion};
use micronas::experiments::{run_paper_sweep, SweepScale};
use micronas::MicroNasConfig;
use micronas_bench::{banner, bench_config, paper_scale, record_bench_json};
use micronas_datasets::DatasetKind;
use micronas_fabric::{FabricClient, FabricConfig, FabricNode, RemoteTier, RemoteTierStats};
use micronas_proxies::ZeroCostMetrics;
use micronas_searchspace::SearchSpace;
use micronas_store::{EvalKey, EvalRecord, EvalStore, RemoteBackend, StoreStats};
use std::sync::Arc;
use std::time::Instant;

/// Distinct keys for the raw RPC benchmarks (seeds vary, cells cycle).
fn keys(n: usize) -> Vec<EvalKey> {
    let space = SearchSpace::nas_bench_201();
    (0..n)
        .map(|i| {
            EvalKey::zero_cost(
                &space.cell(i % space.len()).unwrap(),
                DatasetKind::Cifar10,
                i as u64,
                32,
            )
        })
        .collect()
}

fn record(i: usize) -> EvalRecord {
    EvalRecord::ZeroCost(ZeroCostMetrics {
        ntk_condition: 1.0 + i as f64,
        linear_regions: i + 1,
        trainability: -(1.0 + i as f64).ln(),
        expressivity: (1.0 + i as f64).ln(),
    })
}

/// A worker: an empty in-memory store reading through a fabric tier.
fn worker(namespace: u64, fabric: &FabricConfig) -> (Arc<EvalStore>, Arc<RemoteTier>) {
    let store = Arc::new(EvalStore::in_memory(namespace));
    let tier = Arc::new(RemoteTier::from_config(namespace, fabric));
    store
        .attach_remote(Arc::clone(&tier) as Arc<dyn RemoteBackend>)
        .expect("matching namespaces");
    (store, tier)
}

/// Loopback point-get round-trips per second against a warm node.
fn measure_remote_get_throughput(n: usize) -> f64 {
    let node = FabricNode::serve(Arc::new(EvalStore::in_memory(0))).expect("node");
    let keys = keys(n);
    for (i, k) in keys.iter().enumerate() {
        node.store().insert(*k, record(i)).unwrap();
    }
    let client = FabricClient::new(node.addr(), 0, Default::default());
    let start = Instant::now();
    for k in &keys {
        assert!(client.get(k).expect("get").is_some());
    }
    n as f64 / start.elapsed().as_secs_f64()
}

/// Loopback batched-get records per second against a warm node.
fn measure_batch_get_throughput(n: usize, batch: usize) -> f64 {
    let node = FabricNode::serve(Arc::new(EvalStore::in_memory(0))).expect("node");
    let keys = keys(n);
    for (i, k) in keys.iter().enumerate() {
        node.store().insert(*k, record(i)).unwrap();
    }
    let client = FabricClient::new(node.addr(), 0, Default::default());
    let start = Instant::now();
    let mut found = 0usize;
    for chunk in keys.chunks(batch) {
        found += client
            .batch_get(chunk)
            .expect("batch_get")
            .iter()
            .filter(|r| r.is_some())
            .count();
    }
    assert_eq!(found, n);
    n as f64 / start.elapsed().as_secs_f64()
}

/// The headline comparison. Returns `(cold_s, warm_s, identical, local
/// store stats of the warm arrival, its tier stats)`.
///
/// Cold: a standalone worker (no fabric, empty store) runs the sweep.
/// Warm: a two-node fleet is pre-warmed by a first worker, then a *fresh*
/// worker with an empty local store runs the same sweep through the ring.
fn cold_vs_warm_fleet(
    config: &MicroNasConfig,
    scale: &SweepScale,
) -> (f64, f64, bool, StoreStats, RemoteTierStats) {
    let namespace = config.store_namespace();

    let solo = Arc::new(EvalStore::in_memory(namespace));
    let start = Instant::now();
    let cold = run_paper_sweep(config, scale, Some(solo)).expect("cold sweep");
    let cold_s = start.elapsed().as_secs_f64();

    let node_a = FabricNode::serve(Arc::new(EvalStore::in_memory(namespace))).expect("node");
    let node_b = FabricNode::serve(Arc::new(EvalStore::in_memory(namespace))).expect("node");
    let fabric = FabricConfig::with_peers(vec![node_a.addr(), node_b.addr()]);
    let (store1, tier1) = worker(namespace, &fabric);
    run_paper_sweep(config, scale, Some(store1)).expect("warming sweep");
    tier1.flush().expect("flush");

    let (store2, tier2) = worker(namespace, &fabric);
    let start = Instant::now();
    let warm = run_paper_sweep(config, scale, Some(Arc::clone(&store2))).expect("warm sweep");
    let warm_s = start.elapsed().as_secs_f64();

    (
        cold_s,
        warm_s,
        cold.identity_fingerprint() == warm.identity_fingerprint(),
        store2.stats(),
        tier2.stats(),
    )
}

fn fleet_fields(
    cold_s: f64,
    warm_s: f64,
    identical: bool,
    local: &StoreStats,
    tier: &RemoteTierStats,
) -> Vec<(String, f64)> {
    let total = (local.hits + local.misses).max(1);
    vec![
        ("sweep_cold_single_node_seconds".to_string(), cold_s),
        ("sweep_warm_two_node_seconds".to_string(), warm_s),
        ("warm_speedup".to_string(), cold_s / warm_s.max(1e-12)),
        (
            "sweep_bitwise_identical".to_string(),
            f64::from(u8::from(identical)),
        ),
        ("warm_local_hits".to_string(), local.hits as f64),
        ("warm_local_misses".to_string(), local.misses as f64),
        (
            "warm_served_fraction".to_string(),
            local.hits as f64 / total as f64,
        ),
        ("remote_hits".to_string(), tier.remote_hits as f64),
        ("remote_misses".to_string(), tier.remote_misses as f64),
        ("remote_timeouts".to_string(), tier.timeouts as f64),
        ("remote_errors".to_string(), tier.errors as f64),
        ("degraded_peers".to_string(), tier.degraded_peers as f64),
    ]
}

/// Whether `MICRONAS_BENCH_SMOKE=1` smoke mode is active.
fn smoke_mode() -> bool {
    std::env::var("MICRONAS_BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn bench_fabric_throughput(c: &mut Criterion) {
    const GETS: usize = 20_000;
    const BATCH: usize = 256;

    if smoke_mode() {
        banner(
            "Fabric smoke: a warm two-node fleet serves every evaluation",
            "distributed evaluation fabric regression gate (tiny paper grid)",
        );
        // The warm arrival must recompute nothing: every lookup is served
        // from the fleet, so any local or remote miss means the read-through
        // path degraded to recompute. Counters are exact, so the gate cannot
        // flake; the timings are recorded for information only. The
        // reduced-scale numbers go to their own JSON so they never overwrite
        // the headline measurements.
        let (cold_s, warm_s, identical, local, tier) =
            cold_vs_warm_fleet(&MicroNasConfig::tiny_test(), &SweepScale::tiny());
        println!(
            "gate: warm arrival {} local hits / {} misses, {} remote hits / {} misses \
             (cold {cold_s:.3}s, warm {warm_s:.3}s)",
            local.hits, local.misses, tier.remote_hits, tier.remote_misses
        );
        record_bench_json(
            "fabric_throughput_smoke",
            &fleet_fields(cold_s, warm_s, identical, &local, &tier),
        );
        assert!(identical, "fabric sweep must stay bitwise identical");
        assert_eq!(local.misses, 0, "warm arrival recomputed: {local:?}");
        assert_eq!(
            (tier.remote_misses, tier.timeouts, tier.errors),
            (0, 0, 0),
            "fleet failed to serve: {tier:?}"
        );
        assert!(tier.remote_hits > 0, "fleet never served: {tier:?}");
        return;
    }

    if !c.is_test_mode() {
        banner(
            "distributed-fabric throughput",
            "one logical store for a fleet of search workers (cold vs warm fleet)",
        );
    }

    let mut group = c.benchmark_group("fabric_throughput");
    group.sample_size(10);
    group.bench_function("remote_gets_2k_loopback", |b| {
        b.iter(|| measure_remote_get_throughput(2_000))
    });
    group.bench_function("batch_gets_2k_loopback", |b| {
        b.iter(|| measure_batch_get_throughput(2_000, BATCH))
    });
    group.finish();

    let (config, scale) = if c.is_test_mode() {
        (MicroNasConfig::tiny_test(), SweepScale::tiny())
    } else if paper_scale() {
        (bench_config(), SweepScale::paper())
    } else {
        (bench_config(), SweepScale::fast())
    };
    let get_per_s = measure_remote_get_throughput(GETS);
    let batch_per_s = measure_batch_get_throughput(GETS, BATCH);
    let (cold_s, warm_s, identical, local, tier) = cold_vs_warm_fleet(&config, &scale);
    assert!(identical, "cold and warm-fleet sweeps must agree bitwise");

    if !c.is_test_mode() {
        println!();
        println!("loopback point gets:      {get_per_s:>12.0} ops/s");
        println!("loopback batch-{BATCH} gets:  {batch_per_s:>12.0} records/s");
        println!();
        println!("paper sweep, cold single node: {cold_s:>9.3} s");
        println!(
            "paper sweep, warm two-node:    {warm_s:>9.3} s  ({:.1}x faster)",
            cold_s / warm_s.max(1e-12)
        );
        println!(
            "warm arrival served locally+remotely: {} hits / {} misses \
             ({} remote hits, {} remote misses)",
            local.hits, local.misses, tier.remote_hits, tier.remote_misses
        );
        println!("bitwise identical:        {identical}");
    }

    let mut fields = fleet_fields(cold_s, warm_s, identical, &local, &tier);
    fields.push(("remote_gets_per_s".to_string(), get_per_s));
    fields.push(("batch_get_records_per_s".to_string(), batch_per_s));
    record_bench_json("fabric_throughput", &fields);
}

criterion_group!(benches, bench_fabric_throughput);
criterion_main!(benches);
