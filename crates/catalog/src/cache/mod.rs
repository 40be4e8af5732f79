//! The write-through, multi-version, per-metastore metadata cache (§4.5).
//!
//! Design, mirroring the paper:
//!
//! * Each node caches the metastores it serves. A metastore's cache pins
//!   the **metastore version** it is current as-of, plus the database CSN
//!   at which that version was observed.
//! * **Snapshot reads**: lookups serve the entry version that is newest at
//!   the cache's pinned version. In-flight batched reads pin a
//!   (version, CSN) pair and stay consistent even while writes land.
//! * **Write-through**: a successful write (which bumped the metastore
//!   version in the database, conditioned on the cached version) inserts
//!   the new entity versions immediately — the invariant "cached versions
//!   are the latest as of the version known to the node" is preserved.
//! * **Reconciliation**: when a database read observes a different
//!   metastore version than cached (another node wrote), the cache either
//!   evicts everything (naive) or consumes the database change log to
//!   invalidate exactly the touched entries (optimized) — both modes are
//!   implemented, and the ablation bench compares them.
//! * **Eviction**: unpopular assets are evicted LRU-batch-style when the
//!   per-metastore entry cap is exceeded; superseded entry versions are
//!   trimmed, keeping a small window for in-flight requests (the paper
//!   bounds this window by the API timeout).
//!
//! No consensus service: multiple nodes may own the same metastore; the
//! version-conditioned writes make that safe, merely costing reconciles.
//!
//! # Concurrency model (see DESIGN.md §7)
//!
//! The cache is **read-optimized**: the paper's workload is 98 % reads,
//! and Fig 10(b) sweeps 1→64 clients against the cached path, so a hit
//! must never take an exclusive lock. Concretely:
//!
//! * Entity entries, the name index, and the path index are partitioned
//!   into `RwLock` **shards** keyed by key hash — readers of different
//!   keys share, readers of the same shard share, and only mutation takes
//!   a shard writer.
//! * The `(version, csn)` pin is held in plain atomics guarded by a
//!   **seqlock**: readers load `(version, csn)` and validate the sequence
//!   word, retrying on a torn read instead of blocking.
//! * LRU accounting is an atomic tick: [`MsCache::get_at`] takes `&self`
//!   and bumps the entry's `last_access` with a relaxed store under the
//!   shard *read* lock.
//! * All **mutation** — write-through install, tombstones, reconciles,
//!   eviction — happens while the caller holds the per-metastore
//!   [`MsCache::write_gate`]. Misses serialize on the gate; hits never
//!   touch it. Gate serialization is what lets the mutation paths take
//!   shard locks one at a time without deadlock or lost updates.
//!
//! Mutators make entries visible in an order that preserves snapshot
//! reads without a global critical section: new entry versions are
//! installed *before* the pin advances (readers at the old pin cannot see
//! them), and invalidated entries are removed *before* the pin advances
//! (readers at the new pin cannot see stale data).

pub mod ttl;

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};
use uc_obs::Counter;
use uc_txdb::{ChangeRecord, Db};

use crate::ids::Uid;
use crate::model::entity::Entity;
use crate::model::keys::{self, T_ENTITY, T_MSVER, T_PATH, T_TREE};

/// How many superseded versions of an entry to retain for in-flight reads.
const VERSION_WINDOW: usize = 4;

/// Cache tuning.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Master switch — disabled reproduces the "no caching" baseline of
    /// Fig 10(b).
    pub enabled: bool,
    /// Per-metastore entry cap before LRU batch eviction.
    pub max_entries: usize,
    /// Use change-log-driven selective invalidation instead of full evict.
    pub selective_reconcile: bool,
    /// Shards per index (entities / names / paths); rounded up to a power
    /// of two, minimum 1. One shard reproduces a single-lock cache (the
    /// concurrency ablation baseline).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: true,
            max_entries: 100_000,
            selective_reconcile: true,
            shards: 16,
        }
    }
}

impl CacheConfig {
    pub fn disabled() -> Self {
        CacheConfig { enabled: false, ..Default::default() }
    }
}

/// Counters for cache behaviour.
///
/// Fields are [`uc_obs::Counter`]s (API-compatible with `AtomicU64`), so
/// chaos tests keep their `fetch_add`/`load` call sites while the values
/// surface in the node's metrics registry under `cache.*` names when the
/// stats are [`CacheStats::wired`]. Cloning shares the cells — every
/// [`MsCache`] of a node records into the same counters.
#[derive(Debug, Default, Clone)]
pub struct CacheStats {
    pub hits: Counter,
    /// Logical lookups that had to read the database.
    pub misses: Counter,
    /// Misses served from a database snapshot older than the cache's
    /// pinned version: the read is served as read and installs nothing
    /// (the name stays for the metric consumers that read it).
    pub stale_retries: Counter,
    pub full_reconciles: Counter,
    pub selective_reconciles: Counter,
    pub invalidations: Counter,
    pub evictions: Counter,
    /// Write-gate acquisitions that had to block (contention between
    /// misses/writes on one metastore).
    pub gate_waits: Counter,
    /// Seqlock validation failures on the version pin (a reader raced a
    /// pin advance and re-read).
    pub pin_retries: Counter,
}

impl CacheStats {
    /// Stats whose counters are registered in `registry` under `cache.*`.
    pub fn wired(registry: &uc_obs::Registry) -> Self {
        CacheStats {
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            stale_retries: registry.counter("cache.stale_retries"),
            full_reconciles: registry.counter("cache.reconcile.full"),
            selective_reconciles: registry.counter("cache.reconcile.selective"),
            invalidations: registry.counter("cache.invalidations"),
            evictions: registry.counter("cache.evictions"),
            gate_waits: registry.counter("cache.shard.gate_waits"),
            pin_retries: registry.counter("cache.shard.pin_retries"),
        }
    }

    pub fn hit_rate(&self) -> f64 {
        let h = self.hits.get() as f64;
        let m = self.misses.get() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// One cached entity's recent versions, newest last. `None` marks a
/// deletion at that version.
struct CachedEntry {
    versions: Vec<(u64, Option<Arc<Entity>>)>,
    /// Keys to clean from the secondary maps on eviction.
    path_key: Option<String>,
    /// The entity's name-index key — its tree key (DESIGN.md §11) — once
    /// a by-name read or a write has installed it. By-id installs know no
    /// tree key and add no name mapping.
    tree_key: Option<String>,
    /// Atomic so the hit path can bump recency under a shard *read* lock.
    last_access: AtomicU64,
}

/// FNV-1a, used for both shard selection and the shard maps themselves.
/// The cache is in-process and never hashes attacker-controlled keys at
/// scale, so a cheap non-keyed hash beats SipHash's per-byte cost on the
/// tree keys every cached lookup hashes.
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = h;
    }
}

type FnvBuild = std::hash::BuildHasherDefault<Fnv1a>;

type EntityShard = RwLock<HashMap<Uid, CachedEntry, FnvBuild>>;
type IndexShard = RwLock<HashMap<String, Uid, FnvBuild>>;

/// Cache state for one metastore on one node: sharded maps plus a
/// seqlock-guarded `(version, csn)` pin. Read methods take `&self` and
/// acquire no exclusive lock; mutating methods also take `&self` but must
/// only be called while holding this metastore's [`MsCache::write_gate`].
pub struct MsCache {
    /// Seqlock word for the pin: even = stable, odd = update in progress.
    pin_seq: AtomicU64,
    /// Metastore version this cache is current as-of.
    pin_version: AtomicU64,
    /// Database CSN at which `pin_version` was observed.
    pin_csn: AtomicU64,
    entity_shards: Box<[EntityShard]>,
    name_shards: Box<[IndexShard]>,
    path_shards: Box<[IndexShard]>,
    /// Bitmask selecting a shard from a key hash (shard count is a power
    /// of two).
    shard_mask: usize,
    /// Global access tick; unique per touch, so LRU order is total.
    tick: AtomicU64,
    /// Live entry count across entity shards (maintained by mutators).
    len: AtomicUsize,
    max_entries: usize,
    /// Serializes all mutation on this metastore's cache.
    gate: Mutex<()>,
    stats: CacheStats,
}

/// Shard index bits for a key. Takes the hash's *upper* half: the shard
/// maps hash with the same (unkeyed) FNV, and hashbrown buckets by the
/// hash's low bits — selecting shards by those same low bits would leave
/// every key within a shard sharing them, collapsing small maps into a
/// single bucket.
fn hash_of<K: Hash + ?Sized>(key: &K) -> usize {
    let mut h = Fnv1a::default();
    key.hash(&mut h);
    (h.finish() >> 32) as usize
}

impl MsCache {
    fn new(shards: usize, max_entries: usize, stats: CacheStats) -> Self {
        let n = shards.max(1).next_power_of_two();
        MsCache {
            pin_seq: AtomicU64::new(0),
            pin_version: AtomicU64::new(0),
            pin_csn: AtomicU64::new(0),
            entity_shards: (0..n).map(|_| RwLock::new(HashMap::default())).collect(),
            name_shards: (0..n).map(|_| RwLock::new(HashMap::default())).collect(),
            path_shards: (0..n).map(|_| RwLock::new(HashMap::default())).collect(),
            shard_mask: n - 1,
            tick: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            max_entries,
            gate: Mutex::new(()),
            stats,
        }
    }

    /// Acquire the per-metastore mutation gate. Every mutating method on
    /// this cache must be called under it; the uncontended path is one
    /// `try_lock`.
    pub fn write_gate(&self) -> MutexGuard<'_, ()> {
        if let Some(g) = self.gate.try_lock() {
            return g;
        }
        self.stats.gate_waits.fetch_add(1, Ordering::Relaxed);
        self.gate.lock()
    }

    /// Consistent `(version, csn)` pin via seqlock validation: lock-free,
    /// retries only while a writer is mid-update.
    pub fn pin(&self) -> (u64, u64) {
        loop {
            let s1 = self.pin_seq.load(Ordering::Acquire);
            if s1 & 1 == 0 {
                let v = self.pin_version.load(Ordering::Acquire);
                let c = self.pin_csn.load(Ordering::Acquire);
                if self.pin_seq.load(Ordering::Acquire) == s1 {
                    return (v, c);
                }
            }
            self.stats.pin_retries.fetch_add(1, Ordering::Relaxed);
            std::hint::spin_loop();
        }
    }

    /// Metastore version this cache is current as-of.
    pub fn version(&self) -> u64 {
        self.pin().0
    }

    /// Database CSN at which [`MsCache::version`] was observed.
    pub fn csn(&self) -> u64 {
        self.pin().1
    }

    /// Advance the pin (callers hold the write gate, so there is exactly
    /// one seqlock writer at a time).
    fn set_pin(&self, version: u64, csn: u64) {
        self.pin_seq.fetch_add(1, Ordering::AcqRel); // odd: update begins
        self.pin_version.store(version, Ordering::Release);
        self.pin_csn.store(csn, Ordering::Release);
        self.pin_seq.fetch_add(1, Ordering::AcqRel); // even: stable again
    }

    fn entity_shard(&self, id: &Uid) -> &EntityShard {
        &self.entity_shards[hash_of(id) & self.shard_mask]
    }

    fn name_shard(&self, key: &str) -> &IndexShard {
        &self.name_shards[hash_of(key) & self.shard_mask]
    }

    fn path_shard(&self, key: &str) -> &IndexShard {
        &self.path_shards[hash_of(key) & self.shard_mask]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Entity version visible at `version`, if cached. Outer `None` =
    /// not in cache; `Some(None)` = cached deletion. Lock-free up to one
    /// shard read lock; versions are ascending, so visibility is a binary
    /// search.
    pub fn get_at(&self, id: &Uid, version: u64) -> Option<Option<Arc<Entity>>> {
        let tick = self.next_tick();
        // uc-lint: allow(hotpath) -- the hot cached read itself: a shard read lock; writers serialize behind the write gate, not here
        let shard = self.entity_shard(id).read();
        let entry = shard.get(id)?;
        entry.last_access.store(tick, Ordering::Relaxed);
        let idx = entry.versions.partition_point(|(v, _)| *v <= version);
        if idx == 0 {
            None
        } else {
            Some(entry.versions[idx - 1].1.clone())
        }
    }

    /// Look up by name (the entity's tree key), valid at the cache's
    /// current version.
    pub fn id_by_name(&self, tree_key: &str) -> Option<Uid> {
        self.name_shard(tree_key).read().get(tree_key).cloned()
    }

    /// Look up by path-index key.
    pub fn id_by_path(&self, path_key: &str) -> Option<Uid> {
        self.path_shard(path_key).read().get(path_key).cloned()
    }

    /// Insert (or update) an entity at a version, maintaining secondary
    /// keys and trimming the version window. `tree_key` is the entity's
    /// name-index key when the caller knows it (by-name reads, writes);
    /// by-id installs pass `None`. Caller holds the write gate.
    pub fn insert(
        &self,
        entity: Arc<Entity>,
        at_version: u64,
        path_key: Option<String>,
        tree_key: Option<String>,
    ) {
        let tick = self.next_tick();
        let id = entity.id.clone();
        if let Some(pk) = &path_key {
            self.path_shard(pk).write().insert(pk.clone(), id.clone());
        }
        if let Some(tk) = &tree_key {
            self.name_shard(tk).write().insert(tk.clone(), id.clone());
        }
        {
            let mut shard = self.entity_shard(&id).write();
            let entry = shard.entry(id).or_insert_with(|| {
                self.len.fetch_add(1, Ordering::Relaxed);
                CachedEntry {
                    versions: Vec::new(),
                    path_key: path_key.clone(),
                    tree_key: tree_key.clone(),
                    last_access: AtomicU64::new(tick),
                }
            });
            entry.path_key = path_key;
            // A by-id install must not orphan the mapping a by-name
            // install recorded.
            if tree_key.is_some() {
                entry.tree_key = tree_key;
            }
            entry.last_access.store(tick, Ordering::Relaxed);
            push_version(&mut entry.versions, at_version, Some(entity));
        }
        if self.len.load(Ordering::Relaxed) > self.max_entries {
            self.evict_lru();
        }
    }

    /// Record a deletion at a version (write-through for drops). Caller
    /// holds the write gate.
    pub fn insert_tombstone(&self, id: &Uid, at_version: u64) {
        let tick = self.next_tick();
        let keys = {
            let mut shard = self.entity_shard(id).write();
            let Some(entry) = shard.get_mut(id) else { return };
            entry.last_access.store(tick, Ordering::Relaxed);
            push_version(&mut entry.versions, at_version, None);
            (entry.path_key.clone(), entry.tree_key.clone())
        };
        if let Some(pk) = &keys.0 {
            self.path_shard(pk).write().remove(pk);
        }
        if let Some(tk) = &keys.1 {
            self.name_shard(tk).write().remove(tk);
        }
    }

    /// Drop a name-index mapping (a rename or drop freed the tree key).
    /// Caller holds the write gate.
    pub fn remove_name_mapping(&self, tree_key: &str) {
        self.name_shard(tree_key).write().remove(tree_key);
    }

    /// Batch-evict the least recently used ~10% beyond the cap. Caller
    /// holds the write gate (so no competing mutator), and each shard is
    /// locked one at a time.
    fn evict_lru(&self) {
        let excess =
            self.len.load(Ordering::Relaxed).saturating_sub(self.max_entries) + self.max_entries / 10;
        let mut by_age: Vec<(u64, usize, Uid)> = Vec::with_capacity(self.len.load(Ordering::Relaxed));
        for (i, shard) in self.entity_shards.iter().enumerate() {
            for (id, e) in shard.read().iter() {
                by_age.push((e.last_access.load(Ordering::Relaxed), i, id.clone()));
            }
        }
        by_age.sort_unstable_by_key(|(age, _, _)| *age);
        for (_, shard_idx, id) in by_age.into_iter().take(excess) {
            let removed = self.entity_shards[shard_idx].write().remove(&id);
            if let Some(entry) = removed {
                self.len.fetch_sub(1, Ordering::Relaxed);
                if let Some(pk) = &entry.path_key {
                    self.path_shard(pk).write().remove(pk);
                }
                if let Some(tk) = &entry.tree_key {
                    self.name_shard(tk).write().remove(tk);
                }
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Naive reconciliation: drop everything and adopt the new version.
    /// Caller holds the write gate. Entries are cleared *before* the pin
    /// advances so no reader at the new pin can see stale data.
    pub fn reconcile_full(&self, new_version: u64, new_csn: u64) {
        for shard in self.entity_shards.iter() {
            shard.write().clear();
        }
        for shard in self.name_shards.iter() {
            shard.write().clear();
        }
        for shard in self.path_shards.iter() {
            shard.write().clear();
        }
        self.len.store(0, Ordering::Relaxed);
        self.set_pin(new_version, new_csn);
        self.stats.full_reconciles.fetch_add(1, Ordering::Relaxed);
    }

    /// Optimized reconciliation: invalidate exactly the entries touched by
    /// the change records between the cached CSN and the new one. Caller
    /// holds the write gate; invalidation precedes the pin advance.
    pub fn reconcile_selective(
        &self,
        ms: &Uid,
        new_version: u64,
        new_csn: u64,
        changes: &[ChangeRecord],
    ) {
        let ent_prefix = format!("{ms}/");
        let path_prefix = keys::path_ms_prefix(ms);
        let tree_prefix = keys::tree_ms_prefix(ms);
        for change in changes {
            match change.table.as_str() {
                T_ENTITY => {
                    if let Some(id) = change.key.strip_prefix(&ent_prefix) {
                        let id = Uid::from(id);
                        let removed = self.entity_shard(&id).write().remove(&id);
                        if let Some(entry) = removed {
                            self.len.fetch_sub(1, Ordering::Relaxed);
                            if let Some(pk) = &entry.path_key {
                                self.path_shard(pk).write().remove(pk);
                            }
                            if let Some(tk) = &entry.tree_key {
                                self.name_shard(tk).write().remove(tk);
                            }
                            self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // A touched tree row invalidates its name mapping.
                T_TREE
                    if change.key.starts_with(&tree_prefix) => {
                        self.name_shard(&change.key).write().remove(&change.key);
                    }
                T_PATH
                    if change.key.starts_with(&path_prefix) => {
                        self.path_shard(&change.key).write().remove(&change.key);
                    }
                // Grants, tags, FGAC, etc. are not cached here; the
                // service reads them from the database at the pinned CSN.
                _ => {}
            }
        }
        self.set_pin(new_version, new_csn);
        self.stats.selective_reconciles.fetch_add(1, Ordering::Relaxed);
    }

    /// Advance version/CSN after this node's own successful write. Caller
    /// holds the write gate and has already installed the write's effects.
    pub fn advance(&self, new_version: u64, new_csn: u64) {
        self.set_pin(new_version, new_csn);
    }

    /// Trim superseded versions older than the window everywhere; called
    /// lazily (the paper trims on next access after the API timeout).
    /// Caller holds the write gate.
    pub fn trim_versions(&self) {
        for shard in self.entity_shards.iter() {
            for entry in shard.write().values_mut() {
                trim(&mut entry.versions);
            }
        }
    }

    pub fn entry_count(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    fn version_window_len(&self, id: &Uid) -> usize {
        self.entity_shard(id)
            .read()
            .get(id)
            .map(|e| e.versions.len())
            .unwrap_or(0)
    }
}

fn push_version(versions: &mut Vec<(u64, Option<Arc<Entity>>)>, v: u64, e: Option<Arc<Entity>>) {
    match versions.last_mut() {
        Some((last_v, last_e)) if *last_v == v => *last_e = e,
        Some((last_v, _)) if *last_v > v => {
            // Out-of-order insert (a read at an older snapshot landed after
            // a newer write): keep ordering by inserting at position.
            let pos = versions.partition_point(|(ver, _)| *ver < v);
            if versions.get(pos).map(|(ver, _)| *ver) == Some(v) {
                versions[pos] = (v, e);
            } else {
                versions.insert(pos, (v, e));
            }
        }
        _ => versions.push((v, e)),
    }
    trim(versions);
}

fn trim(versions: &mut Vec<(u64, Option<Arc<Entity>>)>) {
    if versions.len() > VERSION_WINDOW {
        let drop = versions.len() - VERSION_WINDOW;
        versions.drain(..drop);
    }
}

/// All per-metastore caches on one node.
pub struct NodeCache {
    pub config: CacheConfig,
    per_ms: RwLock<HashMap<Uid, Arc<MsCache>>>,
    pub stats: CacheStats,
}

impl NodeCache {
    pub fn new(config: CacheConfig) -> Self {
        NodeCache { config, per_ms: RwLock::new(HashMap::new()), stats: CacheStats::default() }
    }

    /// A node cache whose counters are registered in `registry`.
    pub fn wired(config: CacheConfig, registry: &uc_obs::Registry) -> Self {
        NodeCache { config, per_ms: RwLock::new(HashMap::new()), stats: CacheStats::wired(registry) }
    }

    /// The cache for a metastore, created on first touch. The steady-state
    /// path is a single read-lock probe + `Arc` clone; the write lock is
    /// taken only when the metastore has no cache yet (and the losing side
    /// of a first-touch race lands on `or_insert_with`'s existing entry).
    /// Callers that loop hold on to the returned `Arc` instead of
    /// re-probing per iteration.
    pub fn for_metastore(&self, ms: &Uid) -> Arc<MsCache> {
        if let Some(c) = self.per_ms.read().get(ms) {
            return c.clone();
        }
        self.per_ms
            .write()
            .entry(ms.clone())
            .or_insert_with(|| {
                Arc::new(MsCache::new(self.config.shards, self.config.max_entries, self.stats.clone()))
            })
            .clone()
    }

    /// Reconcile a metastore cache against the database's current state,
    /// using the configured strategy. `db_version`/`db_csn` must come from
    /// one consistent snapshot. Caller holds `cache`'s write gate.
    pub fn reconcile(&self, ms: &Uid, cache: &MsCache, db: &Db, db_version: u64, db_csn: u64) {
        if !self.config.selective_reconcile {
            cache.reconcile_full(db_version, db_csn);
            return;
        }
        let cached_csn = cache.csn();
        let changes = db.changelog().changes_since(cached_csn);
        // If the log was truncated past our position — including the case
        // where it is now empty while history advanced — we cannot trust
        // selective invalidation.
        let missed_history = cached_csn > 0
            && match db.changelog().min_retained_csn() {
                Some(min) => min > cached_csn + 1,
                None => db_csn > cached_csn,
            };
        if missed_history {
            cache.reconcile_full(db_version, db_csn);
        } else {
            cache.reconcile_selective(ms, db_version, db_csn, &changes);
        }
    }

    /// Drop all cached state (tests / failover simulations).
    pub fn clear(&self) {
        self.per_ms.write().clear();
    }
}

/// Re-read the metastore version from a read transaction.
pub fn read_ms_version(rt: &uc_txdb::ReadTxn, ms: &Uid) -> u64 {
    rt.get(T_MSVER, ms.as_str())
        .and_then(|b| String::from_utf8(b.to_vec()).ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SecurableKind;

    fn entity(id: &str, name: &str) -> Arc<Entity> {
        let mut e = Entity::new(
            SecurableKind::Table,
            name,
            None,
            Uid::from("ms"),
            "owner",
            0,
        );
        e.id = Uid::from(id);
        Arc::new(e)
    }

    fn cache_with(max_entries: usize) -> (MsCache, CacheStats) {
        let stats = CacheStats::default();
        (MsCache::new(4, max_entries, stats.clone()), stats)
    }

    /// A stand-in tree key for `name`.
    fn tk(name: &str) -> String {
        format!("tk\u{1}{name}\u{1}")
    }

    fn insert(cache: &MsCache, id: &str, name: &str, ver: u64) {
        cache.insert(entity(id, name), ver, None, Some(tk(name)));
    }

    #[test]
    fn snapshot_reads_see_version_at_or_below() {
        let (c, _) = cache_with(1000);
        insert(&c, "e1", "v1", 1);
        insert(&c, "e1", "v2", 3);
        let at1 = c.get_at(&Uid::from("e1"), 1).unwrap().unwrap();
        assert_eq!(at1.name, "v1");
        let at2 = c.get_at(&Uid::from("e1"), 2).unwrap().unwrap();
        assert_eq!(at2.name, "v1");
        let at3 = c.get_at(&Uid::from("e1"), 3).unwrap().unwrap();
        assert_eq!(at3.name, "v2");
        // before the first cached version: no visible version
        assert_eq!(c.get_at(&Uid::from("e1"), 0), None);
    }

    #[test]
    fn tombstone_hides_entity_and_unlinks_names() {
        let (c, _) = cache_with(1000);
        insert(&c, "e1", "t", 1);
        assert!(c.id_by_name(&tk("t")).is_some());
        c.insert_tombstone(&Uid::from("e1"), 2);
        assert_eq!(c.get_at(&Uid::from("e1"), 2), Some(None));
        // old version still readable for in-flight requests
        assert!(c.get_at(&Uid::from("e1"), 1).unwrap().is_some());
        assert!(c.id_by_name(&tk("t")).is_none());
    }

    #[test]
    fn version_window_is_bounded() {
        let (c, _) = cache_with(1000);
        for v in 1..=20 {
            insert(&c, "e1", &format!("n{v}"), v);
        }
        assert!(c.version_window_len(&Uid::from("e1")) <= VERSION_WINDOW);
        // newest version intact
        assert_eq!(c.get_at(&Uid::from("e1"), 20).unwrap().unwrap().name, "n20");
        // very old pinned version falls out of cache (caller re-reads DB)
        assert_eq!(c.get_at(&Uid::from("e1"), 1), None);
    }

    #[test]
    fn out_of_order_insert_keeps_versions_sorted() {
        let (c, _) = cache_with(1000);
        insert(&c, "e1", "new", 5);
        // a stale read at version 3 lands late
        insert(&c, "e1", "old", 3);
        assert_eq!(c.get_at(&Uid::from("e1"), 5).unwrap().unwrap().name, "new");
        assert_eq!(c.get_at(&Uid::from("e1"), 3).unwrap().unwrap().name, "old");
    }

    #[test]
    fn full_reconcile_clears_everything() {
        let (c, stats) = cache_with(1000);
        insert(&c, "e1", "a", 1);
        insert(&c, "e2", "b", 1);
        c.reconcile_full(9, 99);
        assert_eq!(c.entry_count(), 0);
        assert_eq!(c.version(), 9);
        assert_eq!(c.csn(), 99);
        assert_eq!(stats.full_reconciles.get(), 1);
    }

    #[test]
    fn selective_reconcile_invalidates_only_touched() {
        let ms = Uid::from("ms");
        let (c, stats) = cache_with(1000);
        insert(&c, "e1", "a", 1);
        insert(&c, "e2", "b", 1);
        let changes = vec![ChangeRecord {
            csn: 2,
            table: T_ENTITY.to_string(),
            key: "ms/e1".to_string(),
            kind: uc_txdb::ChangeKind::Put,
            value: None,
        }];
        c.reconcile_selective(&ms, 2, 2, &changes);
        assert!(c.get_at(&Uid::from("e1"), 2).is_none(), "touched entry dropped");
        assert!(c.get_at(&Uid::from("e2"), 1).is_some(), "untouched entry kept");
        assert!(c.id_by_name(&tk("a")).is_none());
        assert!(c.id_by_name(&tk("b")).is_some());
        assert_eq!(stats.invalidations.get(), 1);
    }

    #[test]
    fn selective_reconcile_ignores_other_metastores() {
        let ms = Uid::from("ms");
        let (c, _) = cache_with(1000);
        insert(&c, "e1", "a", 1);
        let changes = vec![ChangeRecord {
            csn: 2,
            table: T_ENTITY.to_string(),
            key: "other/e1".to_string(),
            kind: uc_txdb::ChangeKind::Put,
            value: None,
        }];
        c.reconcile_selective(&ms, 2, 2, &changes);
        assert!(c.get_at(&Uid::from("e1"), 1).is_some());
    }

    #[test]
    fn lru_eviction_respects_cap_and_cleans_indexes() {
        let (c, stats) = cache_with(10);
        for i in 0..20 {
            c.insert(
                entity(&format!("e{i}"), &format!("n{i}")),
                1,
                Some(format!("pk/p{i}")),
                Some(tk(&format!("n{i}"))),
            );
        }
        assert!(c.entry_count() <= 11, "cap 10 plus slack, got {}", c.entry_count());
        assert!(stats.evictions.get() > 0);
        // evicted entries' secondary keys are gone
        let evicted = (0..20)
            .filter(|i| c.get_at(&Uid::from(format!("e{i}").as_str()), 1).is_none())
            .collect::<Vec<_>>();
        assert!(!evicted.is_empty());
        for i in evicted {
            assert!(c.id_by_name(&tk(&format!("n{i}"))).is_none());
            assert!(c.id_by_path(&format!("pk/p{i}")).is_none());
        }
    }

    #[test]
    fn lru_tick_order_is_total_across_shards() {
        // The access tick is one global atomic, so recency forms a total
        // order no matter which shard an entry hashes to: a batch eviction
        // must drop the globally oldest entries, never "oldest per shard".
        let (c, _) = cache_with(12);
        for i in 0..12 {
            c.insert(
                entity(&format!("e{i}"), &format!("n{i}")),
                1,
                Some(format!("pk/p{i}")),
                Some(tk(&format!("n{i}"))),
            );
        }
        // Touch a subset spread across shards (4 shards; ids hash apart),
        // making everything *not* touched strictly older.
        let touched = [0usize, 3, 5, 8, 11];
        for i in touched {
            assert!(c.get_at(&Uid::from(format!("e{i}").as_str()), 1).is_some());
        }
        // Two more inserts push len past the cap and trigger one batch
        // eviction of the oldest (cap/10 + excess) entries.
        insert(&c, "e12", "n12", 1);
        insert(&c, "e13", "n13", 1);
        for i in touched {
            assert!(
                c.get_at(&Uid::from(format!("e{i}").as_str()), 1).is_some(),
                "recently touched e{i} must survive eviction"
            );
            assert!(c.id_by_name(&tk(&format!("n{i}"))).is_some());
        }
        // Every evicted entry must be globally older than every survivor
        // was at eviction time — i.e. all victims come from the untouched
        // set, and their secondary index entries are cleaned.
        let evicted: Vec<usize> = (0..14)
            .filter(|i| c.get_at(&Uid::from(format!("e{i}").as_str()), 1).is_none())
            .collect();
        assert!(!evicted.is_empty(), "inserting past the cap must evict");
        for i in &evicted {
            assert!(!touched.contains(i), "touched e{i} evicted before older entries");
            assert!(c.id_by_name(&tk(&format!("n{i}"))).is_none());
            assert!(c.id_by_path(&format!("pk/p{i}")).is_none());
        }
        // The newest inserts are by definition the most recent ticks.
        assert!(c.get_at(&Uid::from("e13"), 1).is_some());
    }

    #[test]
    fn eviction_racing_readers_never_tears_the_pin() {
        // Evictions take shard write locks while readers probe shards and
        // read the seqlock pin. A reader must never observe a torn
        // (version, csn) pair or a panic, no matter how eviction and pin
        // advance interleave with its probes.
        let (c, stats) = cache_with(16);
        let c = std::sync::Arc::new(c);
        let writer = {
            let c = c.clone();
            std::thread::spawn(move || {
                for v in 1..=4_000u64 {
                    let _gate = c.write_gate();
                    // Insert with a fresh id each round: len keeps crossing
                    // the cap, so evict_lru runs constantly.
                    c.insert(
                        entity(&format!("w{v}"), &format!("wn{v}")),
                        v,
                        Some(format!("pk/wp{v}")),
                        None,
                    );
                    c.advance(v, v);
                }
            })
        };
        let mut readers = Vec::new();
        for r in 0..3 {
            let c = c.clone();
            readers.push(std::thread::spawn(move || {
                let mut last = 0u64;
                loop {
                    let (v, csn) = c.pin();
                    assert_eq!(v, csn, "torn pin observed by reader {r}");
                    assert!(v >= last, "pin went backwards under eviction");
                    last = v;
                    // Probe entries that may be mid-eviction: any outcome
                    // (hit at some version ≤ asked, cached miss, absent) is
                    // legal; what matters is no torn state and no deadlock.
                    let probe = Uid::from(format!("w{}", v.max(1)).as_str());
                    if let Some(Some(hit)) = c.get_at(&probe, v) {
                        assert!(hit.name.starts_with("wn"));
                    }
                    if v >= 4_000 {
                        break;
                    }
                    std::hint::spin_loop();
                }
            }));
        }
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert!(stats.evictions.get() > 0, "the race must actually exercise eviction");
        assert!(c.entry_count() <= 16 + 16 / 10 + 1, "cap respected after the storm");
    }

    #[test]
    fn shard_count_rounds_to_power_of_two_and_one_shard_works() {
        let stats = CacheStats::default();
        let c = MsCache::new(1, 1000, stats.clone());
        insert(&c, "e1", "a", 1);
        assert!(c.get_at(&Uid::from("e1"), 1).is_some());
        let c3 = MsCache::new(3, 1000, stats);
        assert_eq!(c3.shard_mask + 1, 4, "3 rounds up to 4 shards");
    }

    #[test]
    fn pin_is_consistent_under_concurrent_advance() {
        let (c, _) = cache_with(1000);
        let c = std::sync::Arc::new(c);
        let writer = {
            let c = c.clone();
            std::thread::spawn(move || {
                for v in 1..=10_000u64 {
                    let _gate = c.write_gate();
                    // version and csn move in lockstep; a torn read would
                    // observe a (v, c) pair off the v == c diagonal.
                    c.advance(v, v);
                }
            })
        };
        let mut last = 0;
        while last < 10_000 {
            let (v, csn) = c.pin();
            assert_eq!(v, csn, "seqlock must never expose a torn pin");
            assert!(v >= last, "pin went backwards");
            last = v.max(last);
            if writer.is_finished() {
                let (v, csn) = c.pin();
                assert_eq!((v, csn), (10_000, 10_000));
                break;
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn node_cache_returns_same_instance_per_metastore() {
        let nc = NodeCache::new(CacheConfig::default());
        let a = nc.for_metastore(&Uid::from("m1"));
        let b = nc.for_metastore(&Uid::from("m1"));
        let c = nc.for_metastore(&Uid::from("m2"));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn wired_stats_surface_in_registry() {
        let registry = uc_obs::Registry::new();
        let nc = NodeCache::wired(CacheConfig::default(), &registry);
        nc.stats.hits.inc();
        nc.stats.gate_waits.add(2);
        assert_eq!(registry.counter("cache.hits").get(), 1);
        assert_eq!(registry.counter("cache.shard.gate_waits").get(), 2);
    }
}
