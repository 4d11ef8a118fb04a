//! The sharded, concurrent, optionally persistent evaluation store.

use crate::log::{self, read_record_at, CompactStats, LogWriter, Replay};
use crate::remote::RemoteBackend;
use crate::{EvalKey, EvalRecord, StoreError};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of lock stripes. Reads take a shard's `RwLock` in shared mode, so
/// rayon workers pounding the same warm store contend only on the stripe
/// holding the same key range — and read-read never blocks at all.
const SHARDS: usize = 16;

/// Hit/miss/entry counters of a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StoreStats {
    /// Lookups answered from memory (or a log-backed re-read of an evicted
    /// record — either way, without recomputation).
    pub hits: u64,
    /// Lookups that required computing (or explicitly missed).
    pub misses: u64,
    /// Records resident in memory (or, in a [`StoreStats::since`] delta,
    /// records that became resident over the measured span).
    pub entries: u64,
}

impl StoreStats {
    /// Hit rate in `[0, 1]`; 1.0 for an unqueried store.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counter deltas accumulated since an earlier snapshot. The
    /// `entries` delta saturates at zero: on an eviction-capped store the
    /// resident count can shrink between snapshots.
    pub fn since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            entries: self.entries.saturating_sub(earlier.entries),
        }
    }
}

/// Construction options for an [`EvalStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreOptions {
    /// Upper bound on records resident in memory **per shard** (16 shards
    /// total, so the store holds at most `16 × cap` records in memory).
    /// `None` (the default) keeps every record resident, the pre-eviction
    /// behaviour.
    ///
    /// When a shard exceeds its cap the least-recently-used record is
    /// evicted. On a persistent store every record was already written
    /// through to the log at insert time, so an evicted record is *not
    /// lost*: a later lookup re-reads it from the log by offset (counting a
    /// hit — the value was served without recomputation). On a memory-only
    /// store eviction discards the record and a later lookup misses; the
    /// capped memory-only store is a plain bounded cache.
    pub max_resident_per_shard: Option<usize>,
}

impl StoreOptions {
    /// Options with an in-memory residency cap per shard.
    pub fn with_max_resident_per_shard(cap: usize) -> Self {
        Self {
            max_resident_per_shard: Some(cap.max(1)),
        }
    }
}

/// Entries examined per eviction when picking the LRU victim (see
/// `EvalStore::insert_resident` — exact LRU up to this shard size, sampled
/// approximate LRU beyond it).
const EVICTION_SCAN: usize = 32;

/// One in-memory record plus its LRU clock stamp.
#[derive(Debug)]
struct Resident {
    record: EvalRecord,
    /// Value of the store clock at the last touch; the smallest stamp in a
    /// shard is the eviction victim. Relaxed atomics: the stamp only guides
    /// the eviction heuristic, never correctness.
    last_used: AtomicU64,
}

/// A shared, persistent evaluation store with content-addressed keys.
///
/// In memory the store is a striped concurrent map: 16 independent
/// `RwLock<HashMap>` stripes selected by the key's stable shard hash, so
/// parallel candidate-scoring workers share hits without a global lock.
/// Optionally, every insert is also appended to an on-disk log (see
/// [`crate::log`]) that is replayed on open — giving evaluations a lifetime
/// beyond a single search, a single process, or a single machine.
///
/// The store is *namespaced* by an evaluation-configuration fingerprint:
/// records are only meaningful under the proxy/hardware configuration that
/// produced them, so the log header pins the namespace and refuses to open
/// under a different one.
///
/// # Bounded residency
///
/// Long-lived daemons replaying ever-growing logs would otherwise pin every
/// record in memory forever; [`StoreOptions::max_resident_per_shard`] caps
/// the in-memory tier with LRU eviction and write-through semantics —
/// persistent stores transparently re-read evicted records from the log by
/// offset.
#[derive(Debug)]
pub struct EvalStore {
    shards: Vec<RwLock<HashMap<EvalKey, Resident>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    entries: AtomicU64,
    /// Monotone LRU clock; every touch stamps the record.
    clock: AtomicU64,
    namespace: u64,
    log: Option<Mutex<LogWriter>>,
    /// Byte offset of every key's latest log record — maintained only on
    /// capped persistent stores, where it is the re-read index for evicted
    /// records.
    offsets: Option<RwLock<HashMap<EvalKey, u64>>>,
    /// Independent read handle for point re-reads of evicted records.
    reader: Option<Mutex<File>>,
    max_resident_per_shard: Option<usize>,
    /// Optional remote tier consulted after the local tiers miss (see
    /// [`EvalStore::attach_remote`]).
    remote: RwLock<Option<Arc<dyn RemoteBackend>>>,
}

impl EvalStore {
    fn with_shards(namespace: u64, log: Option<Mutex<LogWriter>>, options: StoreOptions) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            namespace,
            log,
            offsets: None,
            reader: None,
            max_resident_per_shard: options.max_resident_per_shard,
            remote: RwLock::new(None),
        }
    }

    /// A memory-only store (no persistence) for the given namespace.
    pub fn in_memory(namespace: u64) -> Self {
        Self::with_shards(namespace, None, StoreOptions::default())
    }

    /// A memory-only store with explicit [`StoreOptions`]. With a residency
    /// cap this is a bounded cache: evicted records are recomputed on the
    /// next lookup.
    pub fn in_memory_with_options(namespace: u64, options: StoreOptions) -> Self {
        Self::with_shards(namespace, None, options)
    }

    /// Opens (or creates) a persistent store backed by the log at `path`.
    /// Existing records are replayed into memory; a torn tail left by a
    /// crash is truncated away before appending resumes.
    ///
    /// # Errors
    ///
    /// I/O failures, bad magic, or version/namespace mismatches.
    pub fn open(path: &Path, namespace: u64) -> Result<Self, StoreError> {
        Self::open_with_options(path, namespace, StoreOptions::default())
    }

    /// [`EvalStore::open`] with explicit [`StoreOptions`]. With a residency
    /// cap, replay loads at most the cap per shard (most recent records win)
    /// and evicted records are served from the log by offset.
    ///
    /// # Errors
    ///
    /// I/O failures, bad magic, or version/namespace mismatches.
    pub fn open_with_options(
        path: &Path,
        namespace: u64,
        options: StoreOptions,
    ) -> Result<Self, StoreError> {
        let (writer, replay) = LogWriter::open(path, namespace)?;
        let mut store = Self::with_shards(namespace, Some(Mutex::new(writer)), options);
        if options.max_resident_per_shard.is_some() {
            store.offsets = Some(RwLock::new(HashMap::new()));
            store.reader = Some(Mutex::new(File::open(path)?));
        }
        store.load_replay(replay);
        Ok(store)
    }

    fn load_replay(&self, replay: Replay) {
        for ((key, record), offset) in replay.entries.into_iter().zip(replay.offsets) {
            if let Some(offsets) = &self.offsets {
                offsets.write().insert(key, offset);
            }
            self.insert_resident(key, record);
        }
    }

    fn shard(&self, key: &EvalKey) -> &RwLock<HashMap<EvalKey, Resident>> {
        &self.shards[(key.shard_hash() as usize) % SHARDS]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The evaluation-configuration fingerprint this store is scoped to.
    pub fn namespace(&self) -> u64 {
        self.namespace
    }

    /// Number of records resident in memory. On an eviction-capped
    /// persistent store this can be smaller than the number of records the
    /// log can serve.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
    }

    /// Whether the store holds no resident records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }

    /// Attaches a remote tier that [`EvalStore::get`] and friends consult
    /// after both local tiers (memory, log point read) miss. A remote hit
    /// populates the local shard (and the log, on a persistent store) and
    /// counts as a **hit** — the value was served without recomputation;
    /// fresh local inserts are offered back to the remote (write-behind).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NamespaceMismatch`] when the backend serves a
    /// different evaluation-configuration namespace — the in-process
    /// analogue of a stale log refusing to open, with both fingerprints
    /// reported in hex.
    pub fn attach_remote(&self, remote: Arc<dyn RemoteBackend>) -> Result<(), StoreError> {
        if remote.namespace() != self.namespace {
            return Err(StoreError::NamespaceMismatch {
                found: remote.namespace(),
                expected: self.namespace,
            });
        }
        *self.remote.write() = Some(remote);
        Ok(())
    }

    /// Detaches the remote tier, if any; the store is purely local again.
    pub fn detach_remote(&self) {
        *self.remote.write() = None;
    }

    /// Whether a remote tier is attached.
    pub fn has_remote(&self) -> bool {
        self.remote.read().is_some()
    }

    /// **Local-only** point read: memory, then the log for evicted records —
    /// never the remote tier, and never the hit/miss counters. This is the
    /// read a fabric node answers `Get` requests with (a node serving a peer
    /// must not recurse into its own remote tier or skew its local stats).
    pub fn peek(&self, key: &EvalKey) -> Option<EvalRecord> {
        self.lookup_local(key)
    }

    /// Memory lookup (stamping the LRU clock), falling back to a log point
    /// read for evicted records on capped persistent stores. Does not touch
    /// the hit/miss counters.
    fn lookup_local(&self, key: &EvalKey) -> Option<EvalRecord> {
        {
            let shard = self.shard(key).read();
            if let Some(resident) = shard.get(key) {
                resident.last_used.store(self.tick(), Ordering::Relaxed);
                return Some(resident.record.clone());
            }
        }
        // Evicted-but-persisted records re-enter through the log.
        let offset = *self.offsets.as_ref()?.read().get(key)?;
        let reread = {
            let _span = micronas_telemetry::span!("store.point_read");
            let mut reader = self.reader.as_ref()?.lock();
            read_record_at(&mut reader, offset)
        };
        match reread {
            Ok((stored_key, record)) if stored_key == *key => {
                self.insert_resident(*key, record.clone());
                Some(record)
            }
            // A stale index or a file modified underneath the store: treat
            // as a miss (the caller recomputes) rather than serving bytes of
            // unknown provenance.
            _ => None,
        }
    }

    /// Full lookup: local tiers first, then the remote tier (read-through).
    /// Does not touch the hit/miss counters.
    fn lookup(&self, key: &EvalKey) -> Option<EvalRecord> {
        if let Some(found) = self.lookup_local(key) {
            return Some(found);
        }
        let remote = self.remote.read().clone()?;
        let record = remote.fetch(key)?;
        if record.validate().is_err() {
            // A peer handing out records the local log codec would refuse is
            // misbehaving; recompute rather than poison the local tiers.
            return None;
        }
        // Read-through fill: the fetched record becomes resident (and, on a
        // persistent store, durable) so the next lookup is a memory hit. The
        // fill is deliberately NOT offered back to the remote — it came from
        // there.
        if self.store_local(*key, record.clone()).is_err() {
            micronas_telemetry::counter_add("store.remote_fill_log_errors", 1);
        }
        Some(record)
    }

    /// Inserts into the in-memory tier only, evicting a least-recently-used
    /// record when a residency cap is exceeded.
    ///
    /// Victim selection scans at most [`EVICTION_SCAN`] entries, so an
    /// insert holds the shard's write lock for O(1) work regardless of the
    /// cap: exact LRU for shards up to the scan budget, sampled approximate
    /// LRU beyond it (the classic Redis-style trade — which record gets
    /// evicted only affects what stays warm, never correctness, because
    /// persistent stores re-read evicted records from the log).
    fn insert_resident(&self, key: EvalKey, record: EvalRecord) -> bool {
        let shard = self.shard(&key);
        let mut map = shard.write();
        let fresh = map
            .insert(
                key,
                Resident {
                    record,
                    last_used: AtomicU64::new(self.tick()),
                },
            )
            .is_none();
        if fresh {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(cap) = self.max_resident_per_shard {
            while map.len() > cap {
                let victim = map
                    .iter()
                    .take(EVICTION_SCAN)
                    .min_by_key(|(_, r)| r.last_used.load(Ordering::Relaxed))
                    .map(|(k, _)| *k)
                    .expect("non-empty shard over its cap");
                map.remove(&victim);
                self.entries.fetch_sub(1, Ordering::Relaxed);
                micronas_telemetry::counter_add("store.evictions", 1);
            }
        }
        fresh
    }

    /// Looks a record up, counting a hit or miss.
    pub fn get(&self, key: &EvalKey) -> Option<EvalRecord> {
        self.get_matching(key, |_| true)
    }

    /// Looks a record up, treating it as present only when `usable` accepts
    /// it. A resident-but-unusable record (e.g. a spectrum shorter than the
    /// caller needs) counts as a **miss**, because the caller will have to
    /// recompute — keeping the hit/miss counters an honest measure of work
    /// saved.
    pub fn get_matching<F>(&self, key: &EvalKey, usable: F) -> Option<EvalRecord>
    where
        F: FnOnce(&EvalRecord) -> bool,
    {
        match self.lookup(key) {
            Some(record) if usable(&record) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                micronas_telemetry::counter_add("store.hits", 1);
                Some(record)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                micronas_telemetry::counter_add("store.misses", 1);
                None
            }
        }
    }

    /// Inserts into the local tiers only (memory + log), never offering to
    /// the remote.
    fn store_local(&self, key: EvalKey, record: EvalRecord) -> Result<bool, StoreError> {
        let fresh = self.insert_resident(key, record.clone());
        if let Some(log) = &self.log {
            let _span = micronas_telemetry::span!("store.log_append");
            let offset = log.lock().append(&key, &record)?;
            if let Some(offsets) = &self.offsets {
                offsets.write().insert(key, offset);
            }
        }
        Ok(fresh)
    }

    /// Inserts (or replaces) a record, persisting it when a log is attached
    /// and offering fresh records to the remote tier (write-behind) when one
    /// is attached. Returns `true` when the key was new in memory. Does not
    /// touch the hit/miss counters.
    ///
    /// # Errors
    ///
    /// Propagates log I/O failures; the in-memory insert still took effect.
    pub fn insert(&self, key: EvalKey, record: EvalRecord) -> Result<bool, StoreError> {
        // Reject records the log decoder would refuse; accepting one would
        // truncate it (and every record behind it) on the next replay.
        record.validate()?;
        let fresh = self.store_local(key, record.clone())?;
        if fresh {
            if let Some(remote) = self.remote.read().clone() {
                remote.offer(key, record);
            }
        }
        Ok(fresh)
    }

    /// Offline compaction of the log at `path`: rewrites it with exactly one
    /// record per live key. The store must not have the file open (this is
    /// an associated function, not a method, to make that explicit — a
    /// capped store's offset index would be invalidated by the rewrite).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and header mismatches.
    pub fn compact_path(path: &Path, namespace: u64) -> Result<CompactStats, StoreError> {
        log::compact(path, namespace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProxyKind;
    use micronas_datasets::DatasetKind;
    use micronas_proxies::ZeroCostMetrics;
    use micronas_searchspace::SearchSpace;

    // Distinct seeds rather than distinct cells: cell indices can collapse
    // onto one content address when they are isomorphic (by design).
    fn key(i: usize) -> EvalKey {
        let space = SearchSpace::nas_bench_201();
        EvalKey::zero_cost(
            &space.cell(500).unwrap(),
            DatasetKind::Cifar10,
            i as u64,
            12,
        )
    }

    fn record(v: f64) -> EvalRecord {
        EvalRecord::ZeroCost(ZeroCostMetrics {
            ntk_condition: v,
            linear_regions: 1,
            trainability: -v,
            expressivity: 0.0,
        })
    }

    #[test]
    fn get_counts_hits_and_misses() {
        let store = EvalStore::in_memory(0);
        assert!(store.get(&key(1)).is_none());
        store.insert(key(1), record(1.0)).unwrap();
        assert!(store.get(&key(1)).is_some());
        assert!(store.get(&key(2)).is_none());
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn isomorphic_cells_share_an_entry() {
        let cell = micronas_searchspace::CellTopology::new([
            micronas_searchspace::Operation::NorConv3x3,
            micronas_searchspace::Operation::SkipConnect,
            micronas_searchspace::Operation::None,
            micronas_searchspace::Operation::AvgPool3x3,
            micronas_searchspace::Operation::NorConv1x1,
            micronas_searchspace::Operation::None,
        ]);
        let twin = cell.intermediate_swap().unwrap();
        let store = EvalStore::in_memory(0);
        store
            .insert(
                EvalKey::zero_cost(&cell, DatasetKind::Cifar10, 0, 12),
                record(5.0),
            )
            .unwrap();
        let via_twin = store.get(&EvalKey::zero_cost(&twin, DatasetKind::Cifar10, 0, 12));
        assert_eq!(via_twin, Some(record(5.0)));
    }

    #[test]
    fn concurrent_workers_share_hits() {
        use rayon::prelude::*;
        let store = EvalStore::in_memory(0);
        for i in 0..64 {
            store.insert(key(i), record(i as f64)).unwrap();
        }
        let values: Vec<f64> = (0..64usize)
            .collect::<Vec<_>>()
            .par_iter()
            .map(|&i| {
                store
                    .get(&key(i))
                    .and_then(|r| r.as_zero_cost())
                    .map(|m| m.ntk_condition)
                    .unwrap_or(f64::NAN)
            })
            .collect();
        let sum: f64 = values.iter().sum();
        assert_eq!(sum, (0..64).map(|i| i as f64).sum::<f64>());
        assert_eq!(store.stats().hits, 64);
    }

    #[test]
    fn persistent_store_survives_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("micronas-store-reopen-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let store = EvalStore::open(&path, 42).unwrap();
            store.insert(key(0), record(1.5)).unwrap();
            store.insert(key(1), record(2.5)).unwrap();
        }
        let store = EvalStore::open(&path, 42).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(
            store
                .get(&key(0))
                .unwrap()
                .as_zero_cost()
                .unwrap()
                .ntk_condition,
            1.5
        );
        // While the store holds the log, any second open is refused — the
        // format is single-writer and concurrent appends would corrupt it.
        assert!(matches!(
            EvalStore::open(&path, 42),
            Err(StoreError::Locked { .. })
        ));
        drop(store);
        assert!(matches!(
            EvalStore::open(&path, 43),
            Err(StoreError::NamespaceMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stats_since_subtracts_counters() {
        let store = EvalStore::in_memory(0);
        store.insert(key(0), record(0.0)).unwrap();
        store.get(&key(0));
        let snapshot = store.stats();
        store.get(&key(0));
        store.get(&key(9));
        store.insert(key(9), record(9.0)).unwrap();
        let delta = store.stats().since(&snapshot);
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.misses, 1);
        assert_eq!(delta.entries, 1, "entries delta counts records added");
    }

    #[test]
    fn get_matching_counts_unusable_records_as_misses() {
        let store = EvalStore::in_memory(0);
        store.insert(key(0), record(1.0)).unwrap();
        assert!(store.get_matching(&key(0), |_| false).is_none());
        assert!(store.get_matching(&key(0), |_| true).is_some());
        let stats = store.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn hardware_keys_use_seed_zero() {
        let space = SearchSpace::nas_bench_201();
        let k = EvalKey::hardware(&space.cell(5).unwrap(), DatasetKind::Cifar10);
        assert_eq!(k.seed, 0);
        assert_eq!(k.kind, ProxyKind::Hardware);
    }

    // -- eviction ----------------------------------------------------------

    /// Keys guaranteed to land in ONE shard (filtered by shard hash), so a
    /// per-shard cap is exercised deterministically.
    fn same_shard_keys(count: usize) -> Vec<EvalKey> {
        let target = (key(0).shard_hash() as usize) % SHARDS;
        (0..)
            .map(key)
            .filter(|k| (k.shard_hash() as usize) % SHARDS == target)
            .take(count)
            .collect()
    }

    #[test]
    fn capped_persistent_store_serves_evicted_records_from_the_log() {
        let mut path = std::env::temp_dir();
        path.push(format!("micronas-store-evict-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let options = StoreOptions::with_max_resident_per_shard(2);
        let keys = same_shard_keys(5);
        {
            let store = EvalStore::open_with_options(&path, 7, options).unwrap();
            for (i, k) in keys.iter().enumerate() {
                store.insert(*k, record(i as f64)).unwrap();
            }
            // The shard is capped: at most 2 of the 5 records are resident.
            let resident = store.len();
            assert!(
                resident <= 2,
                "cap of 2 must bound the shard, got {resident}"
            );

            // The first-inserted (least recently used) key was evicted — a
            // lookup must transparently re-read it from the log, count a
            // hit, and return the exact record.
            let before = store.stats();
            let got = store.get(&keys[0]).expect("log-backed re-read");
            assert_eq!(got, record(0.0));
            let delta = store.stats().since(&before);
            assert_eq!(delta.hits, 1, "a log-backed re-read is a hit");
            assert_eq!(delta.misses, 0);

            // The re-read made keys[0] resident again (evicting another);
            // the shard stays within its cap.
            assert!(store.len() <= 2);
        }

        // Reopening under the cap replays last-wins within the bound and
        // still serves everything.
        let store = EvalStore::open_with_options(&path, 7, options).unwrap();
        assert!(store.len() <= 2);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(
                store.get(k).expect("every record served after reopen"),
                record(i as f64)
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lru_eviction_keeps_the_recently_touched_record() {
        let store =
            EvalStore::in_memory_with_options(0, StoreOptions::with_max_resident_per_shard(2));
        let keys = same_shard_keys(3);
        store.insert(keys[0], record(0.0)).unwrap();
        store.insert(keys[1], record(1.0)).unwrap();
        // Touch keys[0] so keys[1] becomes the LRU victim.
        assert!(store.get(&keys[0]).is_some());
        store.insert(keys[2], record(2.0)).unwrap();
        assert!(store.get(&keys[0]).is_some(), "recently touched survives");
        assert!(
            store.get(&keys[1]).is_none(),
            "LRU record evicted from the memory-only cache"
        );
        assert!(store.get(&keys[2]).is_some());
    }

    // -- remote tier -------------------------------------------------------

    /// A scriptable in-process remote: serves from a fixed map, records
    /// every offer.
    #[derive(Debug, Default)]
    struct FakeRemote {
        namespace: u64,
        served: Mutex<HashMap<EvalKey, EvalRecord>>,
        fetches: AtomicU64,
        offers: Mutex<Vec<EvalKey>>,
    }

    impl crate::RemoteBackend for FakeRemote {
        fn namespace(&self) -> u64 {
            self.namespace
        }
        fn fetch(&self, key: &EvalKey) -> Option<EvalRecord> {
            self.fetches.fetch_add(1, Ordering::Relaxed);
            self.served.lock().get(key).cloned()
        }
        fn offer(&self, key: EvalKey, _record: EvalRecord) {
            self.offers.lock().push(key);
        }
    }

    #[test]
    fn attach_remote_enforces_the_namespace_in_hex() {
        let store = EvalStore::in_memory(0xAAAA);
        let remote = Arc::new(FakeRemote {
            namespace: 0xBBBB,
            ..FakeRemote::default()
        });
        let err = store.attach_remote(remote).unwrap_err();
        let msg = err.to_string();
        // Both fingerprints in hex, so an operator can tell a stale log from
        // a divergent-backend peer at a glance.
        assert!(msg.contains("0x000000000000bbbb"), "{msg}");
        assert!(msg.contains("0x000000000000aaaa"), "{msg}");
        assert!(!store.has_remote());
    }

    #[test]
    fn remote_hit_counts_as_a_hit_and_fills_the_local_shard() {
        let remote = Arc::new(FakeRemote::default());
        remote.served.lock().insert(key(1), record(4.5));
        let store = EvalStore::in_memory(0);
        store.attach_remote(remote.clone()).unwrap();

        assert_eq!(store.get(&key(1)), Some(record(4.5)));
        let stats = store.stats();
        assert_eq!(stats.hits, 1, "a remote hit is served without recompute");
        assert_eq!(stats.misses, 0);
        assert_eq!(remote.fetches.load(Ordering::Relaxed), 1);

        // The fill made the record resident: the second get never leaves the
        // process, and the fill was not offered back to the remote.
        assert_eq!(store.get(&key(1)), Some(record(4.5)));
        assert_eq!(remote.fetches.load(Ordering::Relaxed), 1);
        assert!(remote.offers.lock().is_empty());

        // A miss everywhere consults the remote once and counts a miss.
        assert!(store.get(&key(2)).is_none());
        assert_eq!(store.stats().misses, 1);
        assert_eq!(remote.fetches.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn fresh_inserts_are_offered_write_behind() {
        let remote = Arc::new(FakeRemote::default());
        let store = EvalStore::in_memory(0);
        store.attach_remote(remote.clone()).unwrap();
        store.insert(key(3), record(1.0)).unwrap();
        // Re-inserting the same key is not fresh and is not re-offered.
        store.insert(key(3), record(1.0)).unwrap();
        assert_eq!(remote.offers.lock().as_slice(), &[key(3)]);

        store.detach_remote();
        store.insert(key(4), record(2.0)).unwrap();
        assert_eq!(remote.offers.lock().len(), 1, "detached remote is silent");
    }

    #[test]
    fn peek_is_local_only_and_counts_nothing() {
        let remote = Arc::new(FakeRemote::default());
        remote.served.lock().insert(key(5), record(9.0));
        let store = EvalStore::in_memory(0);
        store.attach_remote(remote.clone()).unwrap();

        // peek never consults the remote and never counts.
        assert!(store.peek(&key(5)).is_none());
        assert_eq!(remote.fetches.load(Ordering::Relaxed), 0);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));

        store.insert(key(6), record(3.0)).unwrap();
        assert_eq!(store.peek(&key(6)), Some(record(3.0)));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    fn get_reads_through_the_remote() {
        let remote = Arc::new(FakeRemote::default());
        remote.served.lock().insert(key(7), record(7.0));
        let store = EvalStore::in_memory(0);
        store.attach_remote(remote.clone()).unwrap();
        assert_eq!(store.get(&key(7)), Some(record(7.0)));
        // A genuine miss is computed by the caller and inserted; the fresh
        // record is offered back to the remote.
        assert!(store.get(&key(8)).is_none());
        store.insert(key(8), record(8.0)).unwrap();
        assert_eq!(store.get(&key(8)), Some(record(8.0)));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(remote.offers.lock().as_slice(), &[key(8)]);
    }

    #[test]
    fn uncapped_stores_keep_everything_resident() {
        let store = EvalStore::in_memory_with_options(0, StoreOptions::default());
        let keys = same_shard_keys(40);
        for (i, k) in keys.iter().enumerate() {
            store.insert(*k, record(i as f64)).unwrap();
        }
        assert_eq!(store.len(), 40, "no cap, no eviction");
        for k in &keys {
            assert!(store.get(k).is_some());
        }
    }
}
