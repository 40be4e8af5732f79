//! The Unity Catalog service: one node of the multi-tenant catalog.
//!
//! This module holds the node state and the two protocols everything else
//! is built on:
//!
//! * the **cached read protocol** — serve entity lookups from the
//!   per-metastore write-through cache when the cached metastore version
//!   is current; otherwise read the database at one snapshot and settle
//!   it: reconcile the cache forward if the snapshot is newer than the
//!   pin, and install what was read only if it was read at the pin;
//! * the **write protocol** — a retry loop running each logical write as
//!   a serializable database transaction that reads the metastore version
//!   and commits `version + 1`, then write-through-updates the cache and
//!   publishes change events.
//!
//! The public API surface is split across the sibling modules:
//! [`crud`], [`grants_api`], [`vending`], [`resolve`], [`commits`],
//! [`discovery_api`], [`federation`], [`sharing`].

pub mod commits;
pub mod crud;
pub mod discovery_api;
pub mod federation;
pub mod grants_api;
pub mod resolve;
pub mod rest;
pub mod sharing;
pub mod vending;

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;
use uc_cloudstore::faults::{points, FaultPlan};
use uc_cloudstore::latency::{LatencyModel, OpClass};
use uc_cloudstore::sched;
use uc_cloudstore::{AccessLevel, Clock, ObjectStore, RootCredential, StoragePath, TempCredential};
use uc_obs::{Counter, CounterFamily, Histogram, HistogramFamily, Obs, SpanGuard, WindowSeries};
use uc_txdb::{Db, ReadTxn, TxError, WriteTxn};

use crate::audit::{AuditDecision, AuditLog};
use crate::authz::decision::{AuthzContext, AuthzNode, SecurableAuthz};
use crate::cache::ttl::TtlCache;
use crate::cache::{read_ms_version, CacheConfig, MsCache, NodeCache};
use crate::error::{UcError, UcResult};
use crate::events::{ChangeOp, EventBus, MetadataChangeEvent};
use crate::ids::Uid;
use crate::model::entity::{Entity, PrincipalRecord};
use crate::model::keys::{self, T_ENTITY, T_MSVER, T_PRINCIPAL, T_TREE};
use crate::types::{FullName, SecurableKind};

/// Annotate the active request span with the metastore version a read
/// was served at. The uc-check history recorder consumes these
/// `history.read` events to reconstruct each operation's observed
/// snapshot window. One thread-local probe and no formatting when no
/// span is active, so the cached hit path stays cheap.
fn history_read_event(version: u64) {
    if uc_obs::current_span_id().is_some() {
        uc_obs::span_event("history.read", &format!("version={version}"));
    }
}

/// Node configuration.
#[derive(Clone)]
pub struct UcConfig {
    /// Latency injected on every public API call — the network hop between
    /// an engine and the (remote) catalog service.
    pub api_latency: LatencyModel,
    pub cache: CacheConfig,
    /// Lifetime of vended temporary credentials (paper: tens of minutes).
    pub cred_ttl_ms: u64,
    /// Cache unexpired vended tokens and reuse them across requests.
    pub cred_cache_enabled: bool,
    /// Audit log retention (records).
    pub audit_capacity: usize,
    /// Modelled cost of one cloud STS round trip when minting a token
    /// (cache hits skip it). Zero in unit tests.
    pub sts_mint_cost: std::time::Duration,
    /// Fault plan for catalog-level injection points (chaos tests).
    /// Share the same plan with the store/db for a coherent schedule.
    pub faults: FaultPlan,
    /// Observability handle. Share the same handle with the store/db so
    /// every layer's spans land in one trace and every counter in one
    /// registry (the same sharing pattern as `faults` and the clock).
    pub obs: Obs,
    /// Record per-tenant dimensional series (`catalog.{op}.count.by_tenant`
    /// etc.) on every API call. On by default; benches flip it off for the
    /// unlabeled comparison arm.
    pub tenant_labels: bool,
}

impl Default for UcConfig {
    fn default() -> Self {
        UcConfig {
            api_latency: LatencyModel::zero(),
            cache: CacheConfig::default(),
            cred_ttl_ms: 15 * 60 * 1000,
            cred_cache_enabled: true,
            audit_capacity: 100_000,
            sts_mint_cost: std::time::Duration::ZERO,
            faults: FaultPlan::disabled(),
            obs: Obs::disabled(),
            tenant_labels: true,
        }
    }
}

/// How the calling engine authenticated (§4.3.2): trusted engines are
/// isolated from user code and may receive + enforce FGAC policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineIdentity {
    /// Machine-authenticated, isolated engine (may enforce FGAC).
    Trusted(String),
    /// Engine that can run arbitrary user code.
    Untrusted(String),
}

/// A calling principal plus engine identity and (optionally) the
/// workspace the request originates from — catalogs can be *bound* to
/// specific workspaces (§3.2).
#[derive(Debug, Clone)]
pub struct Context {
    pub principal: String,
    pub engine: EngineIdentity,
    /// Originating workspace, when known. Requests without a workspace
    /// cannot traverse into workspace-bound catalogs.
    pub workspace: Option<String>,
}

impl Context {
    /// A user calling through an untrusted client.
    pub fn user(principal: &str) -> Self {
        Context {
            principal: principal.to_string(),
            engine: EngineIdentity::Untrusted("client".into()),
            workspace: None,
        }
    }

    /// A user calling through a trusted engine.
    pub fn trusted(principal: &str, engine: &str) -> Self {
        Context {
            principal: principal.to_string(),
            engine: EngineIdentity::Trusted(engine.to_string()),
            workspace: None,
        }
    }

    /// Attach the originating workspace.
    pub fn in_workspace(mut self, workspace: &str) -> Self {
        self.workspace = Some(workspace.to_string());
        self
    }

    pub fn is_trusted_engine(&self) -> bool {
        matches!(self.engine, EngineIdentity::Trusted(_))
    }
}

/// Effects a write closure accumulates for write-through caching and event
/// publication after a successful commit.
#[derive(Default)]
pub(crate) struct WriteEffects {
    /// Entities written, each with its tree key (installed as the cache's
    /// name mapping).
    pub upserts: Vec<(Arc<Entity>, String)>,
    pub tombstones: Vec<Uid>,
    /// Tree keys freed by this write (renames, drops), to be dropped from
    /// the cache's name map.
    pub dropped_names: Vec<String>,
    pub events: Vec<(Uid, SecurableKind, String, ChangeOp)>,
}

/// The tree-index key of an entity: its ancestor chain of
/// `{group}:{name}` segments under the metastore, resolved by walking
/// parent ids inside the transaction (so the key is computed against the
/// same snapshot the write validates). The metastore entity itself maps
/// to the bare metastore prefix; catalogs and metastore-level securables
/// are its children.
pub(crate) fn tree_key_of(tx: &mut WriteTxn, ent: &Entity) -> UcResult<String> {
    let ms = &ent.metastore;
    if ent.kind == SecurableKind::Metastore {
        return Ok(keys::tree_ms_prefix(ms));
    }
    let mut segs: Vec<(&'static str, String)> = vec![(ent.kind.name_group(), ent.name.clone())];
    let mut parent = ent.parent.clone();
    let mut guard = 0;
    while let Some(pid) = parent {
        if &pid == ms {
            break;
        }
        let raw = tx
            .get(T_ENTITY, &keys::ent_key(ms, &pid))
            .ok_or_else(|| UcError::Database(format!("dangling parent {pid}")))?;
        let p = Entity::decode(&raw)?;
        segs.push((p.kind.name_group(), p.name));
        parent = p.parent;
        guard += 1;
        if guard > 16 {
            return Err(UcError::Database("parent cycle detected".into()));
        }
    }
    let mut key = keys::tree_ms_prefix(ms);
    for (group, name) in segs.iter().rev() {
        keys::tree_push_child(&mut key, group, name);
    }
    Ok(key)
}

/// Claim the name of an entity about to be created: its tree key, or
/// `AlreadyExists(display)` when an active entity already holds the name.
/// The point read lands in the transaction's read set, so a concurrent
/// create of the same name conflicts at commit.
pub(crate) fn claim_name(
    tx: &mut WriteTxn,
    ent: &Entity,
    display: impl std::fmt::Display,
) -> UcResult<String> {
    let tk = tree_key_of(tx, ent)?;
    if tx.get(T_TREE, &tk).is_some() {
        return Err(UcError::AlreadyExists(display.to_string()));
    }
    Ok(tk)
}

impl WriteEffects {
    /// Persist an entity (entity row + tree row) and record the effect.
    pub fn upsert(&mut self, tx: &mut WriteTxn, ent: Entity, op: ChangeOp) -> UcResult<Arc<Entity>> {
        let tk = tree_key_of(tx, &ent)?;
        Ok(self.upsert_at(tx, ent, op, tk))
    }

    /// [`WriteEffects::upsert`] at an already-computed tree key: from
    /// [`claim_name`], or built from names by bulk loaders, which resolve
    /// each container once per chunk instead of paying `tree_key_of`'s
    /// per-row ancestor point reads.
    pub fn upsert_at(&mut self, tx: &mut WriteTxn, ent: Entity, op: ChangeOp, tk: String) -> Arc<Entity> {
        let encoded = ent.encode();
        tx.put(T_ENTITY, &keys::ent_key(&ent.metastore, &ent.id), encoded.clone());
        // Tree row value is byte-identical to the entity row: a by-name
        // get returns the entity, and one chain scan resolves a whole
        // ancestor path without point reads.
        tx.put(T_TREE, &tk, encoded);
        let arc = Arc::new(ent);
        self.events
            .push((arc.id.clone(), arc.kind, arc.name.clone(), op));
        self.upserts.push((arc.clone(), tk));
        arc
    }
}

/// Node-level counters.
///
/// Fields are [`uc_obs::Counter`]s whose `fetch_add`/`load` mirror the
/// `AtomicU64` API they replaced, so existing callers (and chaos tests)
/// compile unchanged while the values also surface in the node's metrics
/// registry under `catalog.*` names.
#[derive(Debug, Default)]
pub struct ServiceStats {
    pub api_calls: Counter,
    pub write_retries: Counter,
    /// Virtual milliseconds of backoff accumulated by the write protocol
    /// while riding out transient database failures.
    pub write_backoff_ms: Counter,
}

impl ServiceStats {
    fn wired(registry: &uc_obs::Registry) -> Self {
        ServiceStats {
            api_calls: registry.counter("catalog.api.calls"),
            write_retries: registry.counter("catalog.write.retries"),
            write_backoff_ms: registry.counter("catalog.write.backoff_ms"),
        }
    }
}

/// One Unity Catalog node. Share the same [`Db`] and [`ObjectStore`]
/// across several nodes to model a fleet (see [`crate::sharding`]).
pub struct UnityCatalog {
    pub(crate) node_id: String,
    pub(crate) db: Db,
    pub(crate) store: ObjectStore,
    pub(crate) clock: Clock,
    pub(crate) config: UcConfig,
    pub(crate) cache: NodeCache,
    /// Vended-token cache keyed by (asset id, access level).
    pub(crate) cred_cache: TtlCache<(Uid, AccessLevel), TempCredential>,
    /// TTL cache for principal/group records (weak consistency is fine).
    pub(crate) principal_cache: TtlCache<String, PrincipalRecord>,
    /// Root credentials by bucket, mirrored from storage-credential
    /// entities for fast vending.
    pub(crate) roots: RwLock<std::collections::HashMap<String, RootCredential>>,
    pub(crate) audit: AuditLog,
    pub(crate) events: EventBus,
    pub(crate) stats: ServiceStats,
    /// Per-op metric handles for [`UnityCatalog::api_enter`]: a fixed
    /// table built from the sorted [`crate::audit::KNOWN_OPS`] contract at
    /// construction, each slot lazily initialized on first use. The hot
    /// path is a binary search plus a `OnceLock` read — no lock of any
    /// kind (the previous `RwLock<HashMap>` read probe serialized every
    /// API call on one cache line).
    api_instruments: Vec<(&'static str, std::sync::OnceLock<ApiInstruments>)>,
    /// Human-readable tenant aliases for metric labels, keyed by metastore
    /// id. Populated at `create_metastore` from the metastore *name* —
    /// entity `Uid`s are random and must never reach a snapshot (the
    /// telemetry determinism gates diff snapshot bytes without pinning
    /// `UC_SEED`). Metastores created elsewhere in a fleet fall back to a
    /// `ms-`-prefixed uid stub.
    tenant_aliases: RwLock<std::collections::HashMap<Uid, Arc<str>>>,
}

#[derive(Clone)]
struct ApiInstruments {
    count: Counter,
    latency: Histogram,
    /// `catalog.{op}.count.by_tenant` — bounded-cardinality per-tenant
    /// breakout; per-label values + overflow sum exactly to `count`.
    labeled_count: CounterFamily,
    /// `catalog.{op}.latency_ms.by_tenant`.
    labeled_latency: HistogramFamily,
    /// `catalog.{op}.window` — trailing-window rate + quantiles.
    window: WindowSeries,
}

/// RAII guard returned by the `api_enter` family: the request span plus
/// (when tenant labeling is on) the deferred per-tenant/window latency
/// recording and the thread-local tenant scope that lets deeper layers
/// (txdb commit, STS mint) attribute their series to this request's
/// tenant.
pub(crate) struct ApiGuard {
    telemetry: Option<ApiTelemetry>,
    /// Kept alive for the duration of the request; dropped after the
    /// telemetry recording in [`ApiGuard::drop`] closes the books.
    _span: SpanGuard,
}

struct ApiTelemetry {
    obs: Obs,
    start_ms: u64,
    window: WindowSeries,
    labeled_latency: HistogramFamily,
    label: Arc<str>,
    /// Pops the tenant off the thread-local scope stack on drop.
    _scope: uc_obs::TenantScope,
}

impl Drop for ApiGuard {
    fn drop(&mut self) {
        if let Some(t) = self.telemetry.take() {
            let now = t.obs.clock_ms();
            let elapsed = now.saturating_sub(t.start_ms);
            t.window.record(now, elapsed);
            t.labeled_latency.record(&t.label, elapsed);
        }
    }
}

thread_local! {
    /// Per-thread (metastore, principal) → rendered label memo so repeat
    /// requests from the same tenant build no strings and take no locks.
    /// Bounded FIFO; eviction only matters for threads that serve many
    /// distinct tenants, which is exactly the cold case.
    static TENANT_MEMO: std::cell::RefCell<Vec<(Uid, String, Arc<str>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Entries kept in [`TENANT_MEMO`] per thread.
const TENANT_MEMO_CAPACITY: usize = 64;

/// The label used when a request carries no metastore or no principal.
pub(crate) const NO_TENANT: &str = "-";

impl UnityCatalog {
    pub fn new(db: Db, store: ObjectStore, config: UcConfig, node_id: &str) -> Arc<Self> {
        let clock = store.sts().clock().clone();
        Arc::new(UnityCatalog {
            node_id: node_id.to_string(),
            db,
            cache: NodeCache::wired(config.cache.clone(), config.obs.registry()),
            api_instruments: crate::audit::KNOWN_OPS
                .iter()
                .map(|(op, _)| (*op, std::sync::OnceLock::new()))
                .collect(),
            cred_cache: TtlCache::new(clock.clone(), config.cred_ttl_ms),
            principal_cache: TtlCache::new(clock.clone(), 60_000),
            roots: RwLock::new(std::collections::HashMap::new()),
            tenant_aliases: RwLock::new(std::collections::HashMap::new()),
            audit: AuditLog::new(config.audit_capacity),
            events: EventBus::new(),
            stats: ServiceStats::wired(config.obs.registry()),
            clock,
            store,
            config,
        })
    }

    /// Convenience: a node over fresh in-memory substrates (tests).
    pub fn in_memory() -> Arc<Self> {
        UnityCatalog::new(
            Db::in_memory(),
            ObjectStore::in_memory(),
            UcConfig::default(),
            "node-0",
        )
    }

    pub fn node_id(&self) -> &str {
        &self.node_id
    }

    pub fn db(&self) -> &Db {
        &self.db
    }

    pub fn object_store(&self) -> &ObjectStore {
        &self.store
    }

    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    pub fn audit_log(&self) -> &AuditLog {
        &self.audit
    }

    pub fn event_bus(&self) -> &EventBus {
        &self.events
    }

    pub fn cache_stats(&self) -> &crate::cache::CacheStats {
        &self.cache.stats
    }

    pub fn service_stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Fault plan consulted at the catalog's injection points.
    pub fn faults(&self) -> &FaultPlan {
        &self.config.faults
    }

    /// Observability handle: metrics registry + tracer for this node.
    pub fn obs(&self) -> &Obs {
        &self.config.obs
    }

    /// Deterministic text snapshot of every metric this node records —
    /// the `GET /metrics` payload (see [`rest::RestApi`]). The yield point
    /// lets the interleaving explorer schedule stripe folds adversarially
    /// against in-flight recorders.
    pub fn metrics_snapshot(&self) -> String {
        sched::yield_point(sched::points::OBS_FOLD);
        self.config.obs.metrics_snapshot()
    }

    pub fn credential_cache_stats(&self) -> (u64, u64) {
        self.cred_cache.stats()
    }

    pub(crate) fn now_ms(&self) -> u64 {
        self.clock.now_ms()
    }

    /// Entry hook for every public API: models the engine→catalog network
    /// hop, counts the call (globally, per-op, per-tenant, and into the
    /// op's trailing window), and opens the request-scoped span every
    /// deeper layer (txdb, cloudstore) parents under. Callers bind the
    /// returned guard for the duration of the request. Prefer the
    /// [`UnityCatalog::api_enter_t`] / [`UnityCatalog::api_enter_p`]
    /// variants, which attribute the call to a tenant; this bare form is
    /// for the few ops with no request identity at all.
    pub(crate) fn api_enter(&self, op: &str) -> ApiGuard {
        self.api_enter_inner(op, None, None)
    }

    /// [`UnityCatalog::api_enter`] with the tenant taken from the request
    /// context: metastore alias + principal.
    pub(crate) fn api_enter_t(&self, op: &str, ctx: &Context, ms: &Uid) -> ApiGuard {
        self.api_enter_inner(op, Some(&ctx.principal), Some(ms))
    }

    /// [`UnityCatalog::api_enter`] for entry points that carry a bare
    /// principal (and maybe a metastore) instead of a full [`Context`].
    pub(crate) fn api_enter_p(&self, op: &str, principal: &str, ms: Option<&Uid>) -> ApiGuard {
        self.api_enter_inner(op, Some(principal), ms)
    }

    /// Intern the per-op instrument handles in the obs registries. Every
    /// registry lookup takes the registry mutex, so this is the cold half
    /// of [`Self::api_enter_inner`]: callers memoize the result.
    fn make_api_instruments(&self, op: &str) -> ApiInstruments {
        ApiInstruments {
            count: self.config.obs.counter(&format!("catalog.{op}.count")),
            latency: self.config.obs.histogram(&format!("catalog.{op}.latency_ms")),
            labeled_count: self
                .config
                .obs
                .counter_family(&format!("catalog.{op}.count.by_tenant")),
            labeled_latency: self
                .config
                .obs
                .histogram_family(&format!("catalog.{op}.latency_ms.by_tenant")),
            window: self.config.obs.window(&format!("catalog.{op}.window")),
        }
    }

    fn api_enter_inner(&self, op: &str, principal: Option<&str>, ms: Option<&Uid>) -> ApiGuard {
        self.stats.api_calls.fetch_add(1, Ordering::Relaxed);
        // Per-op instrument handles from the fixed KNOWN_OPS table: binary
        // search + OnceLock read, lock-free after the first call per op.
        // An op outside the table (impossible in-tree — the linter
        // cross-checks every entry point against KNOWN_OPS) pays the
        // registry lookups directly rather than panicking.
        // uc-lint: allow(hotpath) -- first-call interning: the OnceLock below makes every later call for this op lock-free
        let make = || self.make_api_instruments(op);
        let instruments = match self.api_instruments.binary_search_by_key(&op, |(name, _)| name) {
            Ok(i) => self.api_instruments[i].1.get_or_init(make).clone(),
            Err(_) => make(),
        };
        instruments.count.inc();
        self.config.api_latency.apply(OpClass::Control);
        let telemetry = if self.config.tenant_labels {
            // Zero-allocation on the repeat path: the label is a memoized
            // Arc<str>, the labeled counter probe is a thread-local hash
            // hit, the window recording is striped atomics.
            let label = self.tenant_label(ms, principal.unwrap_or(NO_TENANT));
            instruments.labeled_count.inc(&label);
            Some(ApiTelemetry {
                start_ms: self.config.obs.clock_ms(),
                window: instruments.window.clone(),
                labeled_latency: instruments.labeled_latency.clone(),
                _scope: uc_obs::tenant_scope(label.clone()),
                label,
                obs: self.config.obs.clone(),
            })
        } else {
            None
        };
        let span = self
            .config
            .obs
            .tracer()
            .span_timed("catalog", op, Some(instruments.latency));
        ApiGuard { telemetry, _span: span }
    }

    /// Record the human-readable alias rendered into this metastore's
    /// metric labels. Called by `create_metastore` with the metastore
    /// name; idempotent.
    pub(crate) fn set_tenant_alias(&self, ms: &Uid, name: &str) {
        let alias: Arc<str> = Arc::from(uc_obs::sanitize_label_value(name));
        self.tenant_aliases.write().insert(ms.clone(), alias);
    }

    /// The `t=<alias>,p=<principal>` label for a request, memoized per
    /// thread so the repeat path allocates nothing and takes no lock. The
    /// serving plane labels its own series with it too, so one tenant
    /// reads the same in catalog and serve telemetry.
    pub fn tenant_label(&self, ms: Option<&Uid>, principal: &str) -> Arc<str> {
        let Some(ms) = ms else {
            // No metastore (node-level ops): rare enough to build fresh.
            return Arc::from(format!("t={NO_TENANT},p={}", uc_obs::sanitize_label_value(principal)));
        };
        let hit = TENANT_MEMO.with(|memo| {
            memo.borrow()
                .iter()
                .find(|(u, p, _)| u == ms && p == principal)
                .map(|(_, _, label)| label.clone())
        });
        if let Some(label) = hit {
            return label;
        }
        // Cold path: resolve the alias under the shared registry lock and
        // memoize the rendered label for this thread.
        let alias = {
            // uc-lint: allow(hotpath) -- read lock only on the first (ms, principal) sighting per thread; the repeat path is the memo above
            let aliases = self.tenant_aliases.read();
            aliases.get(ms).cloned()
        };
        let label: Arc<str> = match alias {
            Some(a) => Arc::from(format!("t={a},p={}", uc_obs::sanitize_label_value(principal))),
            // Unknown metastore (created by another node of the fleet):
            // deterministic uid-derived stub. This never appears in the
            // byte-diffed telemetry gates, which always create their
            // metastores through this node.
            None => Arc::from(format!(
                "t=ms-{},p={}",
                &ms.as_str()[..8.min(ms.as_str().len())],
                uc_obs::sanitize_label_value(principal)
            )),
        };
        TENANT_MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            if memo.len() >= TENANT_MEMO_CAPACITY {
                memo.remove(0);
            }
            memo.push((ms.clone(), principal.to_string(), label.clone()));
        });
        label
    }

    /// Freeze the flight recorder now and return the canonical JSONL dump
    /// (empty-events dump when tracing is disabled). The yield point lets
    /// the interleaving explorer land a freeze adversarially between a
    /// commit and its audit flush.
    pub fn flight_freeze(&self, reason: &str) -> String {
        sched::yield_point(sched::points::FLIGHT_FREEZE);
        self.config.obs.flight_freeze(reason)
    }

    /// The node's current cache version for a metastore — the snapshot
    /// pin every cached read validates against. The serving plane keys
    /// its single-flight coalescing map on this value: a request that
    /// observed version v+1 computes a different flight key than a
    /// leader that started at v, so a leader's result is never served
    /// across an invalidation (read-your-snapshot for followers).
    pub fn metastore_cache_version(&self, ms: &Uid) -> u64 {
        self.ms_cache(ms).map_or(0, |c| c.version())
    }

    /// Audit a request the serving plane shed under admission control.
    /// Shedding is a governance decision like any deny: it must land in
    /// the audit trail (op `serve_admit`, action `requestShed`), never be
    /// a silent drop.
    pub fn audit_shed(&self, principal: &str, detail: impl std::fmt::Display) {
        self.record_audit(principal, "requestShed", None, AuditDecision::Deny, detail);
    }

    pub(crate) fn record_audit(
        &self,
        principal: &str,
        action: &str,
        securable: Option<&Uid>,
        decision: AuditDecision,
        detail: impl std::fmt::Display,
    ) {
        let detail = detail.to_string();
        let trace_id = uc_obs::current_trace_id();
        // Mirror the record into the flight recorder first: its lane lock
        // is a leaf taken and released before the audit log's append lane,
        // keeping the lock order acyclic. No-op when tracing is disabled.
        self.config.obs.flight().note_audit(
            self.now_ms(),
            trace_id.unwrap_or(0),
            action,
            &detail,
        );
        self.audit.record(
            self.now_ms(),
            principal,
            action,
            securable,
            decision,
            detail,
            trace_id,
        );
    }

    // ------------------------------------------------------------------
    // Cached read protocol
    // ------------------------------------------------------------------

    /// This node's cache for a metastore, created on first touch; `None`
    /// with the cache off, so a cache-off node never creates an
    /// [`MsCache`].
    pub(crate) fn ms_cache(&self, ms: &Uid) -> Option<Arc<MsCache>> {
        self.config.cache.enabled.then(|| self.cache.for_metastore(ms))
    }

    fn db_entity_by_id(&self, rt: &ReadTxn, ms: &Uid, id: &Uid) -> UcResult<Option<Arc<Entity>>> {
        match rt.get(T_ENTITY, &keys::ent_key(ms, id)) {
            Some(raw) => {
                let ent = Entity::decode(&raw)?;
                // Soft-deleted rows are invisible to the namespace; only
                // the garbage collector reads them (by direct scan).
                Ok(ent.is_active().then(|| Arc::new(ent)))
            }
            None => Ok(None),
        }
    }

    /// Install an entity read at `at_version`. `tree_key` is its name
    /// mapping when the read was by name (or a write); by-id reads pass
    /// `None` and add no name mapping.
    fn install_in_cache(
        &self,
        c: &MsCache,
        ms: &Uid,
        ent: &Arc<Entity>,
        at_version: u64,
        tree_key: Option<String>,
    ) {
        let pk = ent.storage_path.as_ref().map(|p| keys::path_key(ms, p));
        c.insert(ent.clone(), at_version, pk, tree_key);
    }

    /// The settle step every cache miss ends with, run under the
    /// metastore's write gate once the database snapshot (at `db_ver`,
    /// `db_csn`) has been read:
    ///
    /// * a snapshot newer than the pin reconciles the cache forward to it;
    /// * a snapshot at the pin (also after that reconcile) runs `install`,
    ///   the only case where what was read may enter the cache;
    /// * a snapshot older than the pin (a write's apply advanced the pin
    ///   after the snapshot began) installs nothing and ticks
    ///   `cache.stale_retries`. The caller still serves that snapshot: the
    ///   pin only advances after a commit, so a snapshot begun inside the
    ///   call is at least as new as anything the caller saw before it.
    fn settle(&self, ms: &Uid, c: &MsCache, db_ver: u64, db_csn: u64, install: impl FnOnce()) {
        let _gate = c.write_gate();
        let pin = c.version();
        if db_ver < pin {
            self.cache.stats.stale_retries.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if db_ver > pin {
            self.cache.reconcile(ms, c, &self.db, db_ver, db_csn);
        }
        install();
    }

    /// Look up an entity by id.
    pub(crate) fn entity_by_id(&self, ms: &Uid, id: &Uid) -> UcResult<Option<Arc<Entity>>> {
        match self.ms_cache(ms) {
            Some(c) => self.entity_by_id_in(ms, &c, id),
            None => self.db_entity_by_id(&self.db.begin_read(), ms, id),
        }
    }

    /// [`UnityCatalog::entity_by_id`] against an already-resolved metastore
    /// cache (callers that loop hold the `Arc` once).
    ///
    /// The hit path takes no exclusive lock: a seqlock read of the version
    /// pin and a sharded snapshot read. A miss reads the database at one
    /// snapshot and [settles](Self::settle) it.
    pub(crate) fn entity_by_id_in(
        &self,
        ms: &Uid,
        cache: &MsCache,
        id: &Uid,
    ) -> UcResult<Option<Arc<Entity>>> {
        sched::yield_point(sched::points::READ_LOOKUP);
        let ver = cache.version();
        if let Some(hit) = cache.get_at(id, ver) {
            self.cache.stats.hits.fetch_add(1, Ordering::Relaxed);
            history_read_event(ver);
            return Ok(hit);
        }
        self.cache.stats.misses.fetch_add(1, Ordering::Relaxed);
        // uc-lint: allow(hotpath) -- hot/cold boundary: the cached hit returned above; a miss reads the db and takes the write gate
        self.entity_by_id_miss(ms, cache, id)
    }

    /// The miss half of [`Self::entity_by_id_in`]: one db snapshot, then
    /// the settle step.
    fn entity_by_id_miss(&self, ms: &Uid, cache: &MsCache, id: &Uid) -> UcResult<Option<Arc<Entity>>> {
        let rt = self.db.begin_read();
        let db_ver = read_ms_version(&rt, ms);
        let found = self.db_entity_by_id(&rt, ms, id)?;
        self.settle(ms, cache, db_ver, rt.snapshot_csn(), || {
            if let Some(ent) = &found {
                self.install_in_cache(cache, ms, ent, db_ver, None);
            }
        });
        history_read_event(db_ver);
        Ok(found)
    }

    /// Resolve a storage path to the asset covering it (§4.3.1 path-based
    /// access). Checks the in-memory path map for the path and each of its
    /// ancestors before falling back to the database.
    pub(crate) fn entity_by_path(
        &self,
        ms: &Uid,
        path: &StoragePath,
    ) -> UcResult<Option<(Arc<Entity>, StoragePath)>> {
        let cache = self.ms_cache(ms);
        if let Some(c) = &cache {
            let ver = c.version();
            let mut candidate = Some(path.clone());
            while let Some(p) = candidate {
                if let Some(id) = c.id_by_path(&keys::path_key(ms, &p.to_string())) {
                    if let Some(Some(hit)) = c.get_at(&id, ver) {
                        self.cache.stats.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(Some((hit, p)));
                    }
                }
                candidate = p.parent();
            }
        }
        // Database fallback at one snapshot.
        let rt = self.db.begin_read();
        let found = match crate::model::paths::resolve_path(&rt, ms, path) {
            Some((id, registered)) => self.db_entity_by_id(&rt, ms, &id)?.map(|ent| (ent, registered)),
            None => None,
        };
        if let Some(c) = &cache {
            let db_ver = read_ms_version(&rt, ms);
            self.settle(ms, c, db_ver, rt.snapshot_csn(), || {
                if let Some((ent, _)) = &found {
                    self.install_in_cache(c, ms, ent, db_ver, None);
                }
            });
        }
        Ok(found)
    }

    // ------------------------------------------------------------------
    // Write protocol
    // ------------------------------------------------------------------

    /// Run a logical write against a metastore: serializable transaction,
    /// metastore-version bump, write-through cache update, event
    /// publication. The closure may run multiple times on conflict.
    pub(crate) fn write_ms<T>(
        &self,
        ms: &Uid,
        mut f: impl FnMut(&mut WriteTxn, u64, &mut WriteEffects) -> UcResult<T>,
    ) -> UcResult<T> {
        let cache = self.ms_cache(ms);
        let mut attempts = 0;
        loop {
            // Interleaving-exploration yields bracket the attempt: before
            // the snapshot is taken, before the commit, and (below) after
            // the commit but before the cache apply. All are placed outside
            // the write gate and the DB commit lock so a parked client
            // never wedges the running one. No-ops outside scheduled runs.
            sched::yield_point(sched::points::WRITE_BEGIN);
            let mut tx = self.db.begin_write();
            let cur: u64 = tx
                .get(T_MSVER, ms.as_str())
                .and_then(|b| String::from_utf8(b.to_vec()).ok())
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            let mut fx = WriteEffects::default();
            let out = match f(&mut tx, cur, &mut fx) {
                Ok(out) => out,
                Err(e) => {
                    // The closure decided at metastore version `cur`; the
                    // history checker verifies the error against the model
                    // state at exactly that version.
                    uc_obs::span_event("history.abort", &format!("version={cur}"));
                    return Err(e);
                }
            };
            tx.put(T_MSVER, ms.as_str(), Bytes::from((cur + 1).to_string()));
            sched::yield_point(sched::points::WRITE_PRECOMMIT);
            match tx.commit() {
                Ok(csn) => {
                    uc_obs::span_event(
                        "history.commit",
                        &format!("version={} csn={csn}", cur + 1),
                    );
                    sched::yield_point(sched::points::WRITE_POSTCOMMIT);
                    // CATALOG_CACHE_SKIP models a node crashing between the
                    // database commit and its write-through cache update:
                    // the commit is durable but this node's cache lags until
                    // a later read or reconcile observes db_ver > version.
                    let skip_cache = self.config.faults.should_inject(points::CATALOG_CACHE_SKIP);
                    if let Some(cache_arc) = cache.as_ref().filter(|_| !skip_cache) {
                        let _gate = cache_arc.write_gate();
                        // A slow writer must never regress the shared pin:
                        // if a later commit's apply (or a reader's
                        // reconcile) already advanced past this write's
                        // version, that reconcile consumed the changelog
                        // through a CSN at or beyond this commit, so these
                        // effects are already reflected — applying them now
                        // would pin the cache to an older version and break
                        // read-your-writes for every client on this node.
                        if cache_arc.version() <= cur {
                            if cache_arc.version() != cur {
                                self.cache.reconcile(ms, cache_arc, &self.db, cur + 1, csn);
                            }
                            for nk in &fx.dropped_names {
                                cache_arc.remove_name_mapping(nk);
                            }
                            // Install effects first, advance the pin last:
                            // concurrent readers at the old pin can't see
                            // the new versions, and readers after the
                            // advance see all of them.
                            for (ent, tk) in &fx.upserts {
                                self.install_in_cache(cache_arc, ms, ent, cur + 1, Some(tk.clone()));
                            }
                            for id in &fx.tombstones {
                                cache_arc.insert_tombstone(id, cur + 1);
                            }
                            cache_arc.advance(cur + 1, csn);
                        }
                    }
                    let now = self.now_ms();
                    for (id, kind, name, op) in fx.events {
                        self.events.publish(MetadataChangeEvent {
                            seq: 0,
                            metastore: ms.clone(),
                            entity_id: id,
                            kind,
                            name,
                            op,
                            at_version: cur + 1,
                            timestamp_ms: now,
                        });
                    }
                    return Ok(out);
                }
                Err(err @ (TxError::Conflict { .. } | TxError::Unavailable { .. })) => {
                    self.stats.write_retries.fetch_add(1, Ordering::Relaxed);
                    attempts += 1;
                    if attempts > 64 {
                        return Err(UcError::Database(format!(
                            "write aborted after {attempts} transient failures (last: {err})"
                        )));
                    }
                    // Bounded exponential backoff before retrying, driven by
                    // the virtual clock: on a manual clock we advance time
                    // instead of sleeping, so chaos tests stay instant and
                    // deterministic; on a system clock the in-process retry
                    // is immediate (the injected DB latency already paces it).
                    let backoff_ms = 1u64 << attempts.min(6);
                    let cause = match &err {
                        TxError::Conflict { .. } => "conflict",
                        _ => "unavailable",
                    };
                    uc_obs::span_event(
                        "write.retry",
                        &format!("attempt={attempts} cause={cause} backoff_ms={backoff_ms}"),
                    );
                    self.stats.write_backoff_ms.fetch_add(backoff_ms, Ordering::Relaxed);
                    if self.clock.is_manual() {
                        self.clock.advance_ms(backoff_ms);
                    }
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    // ------------------------------------------------------------------
    // Name resolution and authorization assembly
    // ------------------------------------------------------------------

    /// Resolve a qualified name to the entity chain `[leaf, …, catalog]`.
    /// `leaf_group` selects the namespace group of the final part. A
    /// one-part name with a non-catalog group resolves a metastore-level
    /// securable (share, connection, external location, storage
    /// credential). Four-part names address model versions
    /// (`catalog.schema.model.vN`).
    ///
    /// The whole chain resolves in **one** range scan: the leaf's tree
    /// key is computable from the qualified name alone, and
    /// [`ReadTxn::scan_chain`] returns the row at every ancestor prefix in
    /// a single traversal. The cached fast path probes the same per-level
    /// tree keys under one version pin; a miss ends in the [settle
    /// step](Self::settle), installing every level it read.
    pub(crate) fn lookup_chain(
        &self,
        ms: &Uid,
        name: &FullName,
        leaf_group: &str,
    ) -> UcResult<Vec<Arc<Entity>>> {
        let not_found = || UcError::NotFound(name.to_string());
        let malformed = || UcError::InvalidArgument(format!("malformed name {name}"));
        // (group, segment-name) pairs outermost-first: enough to build
        // every level's tree key without touching the database.
        let mut segs: Vec<(&str, &str)> = Vec::with_capacity(name.len());
        if name.len() == 1 && leaf_group != "catalog" {
            segs.push((leaf_group, name.catalog()));
        } else {
            segs.push(("catalog", name.catalog()));
            if name.len() >= 2 {
                segs.push(("schema", name.schema().ok_or_else(malformed)?));
            }
            if name.len() >= 3 {
                // For four-part names the third segment is always the
                // registered model; `leaf_group` applies to the final one.
                let third_group = if name.len() == 4 {
                    SecurableKind::RegisteredModel.name_group()
                } else {
                    leaf_group
                };
                segs.push((third_group, name.asset().ok_or_else(malformed)?));
            }
            if name.len() == 4 {
                segs.push((SecurableKind::ModelVersion.name_group(), name.parts[3].as_str()));
            }
        }
        let mut level_keys: Vec<String> = Vec::with_capacity(segs.len());
        {
            let mut key = keys::tree_ms_prefix(ms);
            for (group, seg_name) in &segs {
                keys::tree_push_child(&mut key, group, seg_name);
                level_keys.push(key.clone());
            }
        }
        // Resolve the metastore cache once for the whole chain instead of
        // re-probing the node-level map per segment.
        let cache = self.ms_cache(ms);
        if let Some(c) = &cache {
            // Cached fast path: every level present under one version pin.
            sched::yield_point(sched::points::READ_LOOKUP);
            let ver = c.version();
            let mut chain: Vec<Arc<Entity>> = Vec::with_capacity(level_keys.len());
            for lk in level_keys.iter().rev() {
                match c.id_by_name(lk).map(|id| c.get_at(&id, ver)) {
                    Some(Some(Some(hit))) => chain.push(hit),
                    Some(Some(None)) => {
                        // Cached tombstone at this pin: the name is gone.
                        self.cache.stats.hits.fetch_add(1, Ordering::Relaxed);
                        history_read_event(ver);
                        return Err(not_found());
                    }
                    _ => {
                        chain.clear();
                        break;
                    }
                }
            }
            if chain.len() == level_keys.len() {
                self.cache.stats.hits.fetch_add(chain.len() as u64, Ordering::Relaxed);
                history_read_event(ver);
                return Ok(chain);
            }
        }
        let rt = self.db.begin_read();
        let Some(leaf_key) = level_keys.last() else {
            return Err(malformed());
        };
        // The chain scan returns the row at every existing level, shortest
        // key first, led by the metastore's own row. A missing level means
        // the name doesn't resolve (tree rows are removed on soft delete,
        // so presence implies active).
        let rows = rt.scan_chain(T_TREE, leaf_key);
        // Skip the metastore row: the one prefix shorter than level one.
        let levels = rows.iter().skip_while(|(k, _)| k.len() < level_keys[0].len());
        if cache.is_some() {
            self.cache.stats.misses.fetch_add(1, Ordering::Relaxed);
        }
        let db_ver = read_ms_version(&rt, ms);
        let mut ents: Vec<Arc<Entity>> = Vec::with_capacity(segs.len());
        for ((k, raw), lk) in levels.zip(&level_keys) {
            if k != lk {
                break;
            }
            let ent = Entity::decode(raw)?;
            if !ent.is_active() {
                break;
            }
            ents.push(Arc::new(ent));
        }
        let resolved = ents.len() == level_keys.len();
        if let Some(c) = &cache {
            self.settle(ms, c, db_ver, rt.snapshot_csn(), || {
                if resolved {
                    for (ent, lk) in ents.iter().zip(&level_keys) {
                        self.install_in_cache(c, ms, ent, db_ver, Some(lk.clone()));
                    }
                }
            });
        }
        // A not-found also observed a snapshot: record it so checkers can
        // place it against a version.
        history_read_event(db_ver);
        if !resolved {
            return Err(not_found());
        }
        ents.reverse();
        Ok(ents)
    }

    /// Force the node to revalidate a metastore's cache against the
    /// database. Pure cache hits serve the node's last-known metastore
    /// version; under (rare, best-effort) multi-node ownership another
    /// node's writes are only observed when a database read occurs. An
    /// event-driven keeper — or a test — calls this to bound staleness
    /// explicitly.
    pub fn reconcile_metastore(&self, ms: &Uid) {
        let Some(cache) = self.ms_cache(ms) else {
            return;
        };
        let _span = self.config.obs.span("catalog", "reconcile_metastore");
        // A dropped reconciliation pass (keeper lagging, event lost). The
        // next pass — or any read that observes a newer db version — will
        // catch the cache up; chaos tests assert exactly that.
        if self.config.faults.should_inject(points::CATALOG_RECONCILE_SKIP) {
            return;
        }
        let rt = self.db.begin_read();
        self.settle(ms, &cache, read_ms_version(&rt, ms), rt.snapshot_csn(), || {});
    }

    /// Chain from an entity up to (and including) the metastore entity.
    pub(crate) fn chain_from_entity(
        &self,
        ms: &Uid,
        ent: Arc<Entity>,
    ) -> UcResult<Vec<Arc<Entity>>> {
        self.extend_chain(ms, vec![ent])
    }

    /// Extend an already-resolved chain (leaf first) up to and including
    /// the metastore entity, continuing the parent walk from the chain's
    /// last element. Callers that resolved `[leaf, …, catalog]` via
    /// [`Self::lookup_chain`] reuse those entities instead of re-walking
    /// the cache from the leaf.
    pub(crate) fn extend_chain(
        &self,
        ms: &Uid,
        mut chain: Vec<Arc<Entity>>,
    ) -> UcResult<Vec<Arc<Entity>>> {
        let cache = self.ms_cache(ms);
        let lookup = |id: &Uid| match &cache {
            Some(c) => self.entity_by_id_in(ms, c, id),
            None => self.entity_by_id(ms, id),
        };
        let mut guard = 0;
        while let Some(parent_id) = chain.last().and_then(|e| e.parent.clone()) {
            let parent = lookup(&parent_id)?
                .ok_or_else(|| UcError::Database(format!("dangling parent {parent_id}")))?;
            chain.push(parent);
            guard += 1;
            if guard > 16 {
                return Err(UcError::Database("parent cycle detected".into()));
            }
        }
        // Append the metastore entity if the chain didn't reach it.
        if chain.last().map(|e| e.kind) != Some(SecurableKind::Metastore) {
            let ms_ent = lookup(ms)?
                .ok_or_else(|| UcError::NotFound(format!("metastore {ms}")))?;
            chain.push(ms_ent);
        }
        Ok(chain)
    }

    /// The caller's authorization context within a metastore.
    pub(crate) fn authz_context(&self, ms: &Uid, principal: &str) -> UcResult<AuthzContext> {
        let ms_ent = self
            .entity_by_id(ms, ms)?
            .ok_or_else(|| UcError::NotFound(format!("metastore {ms}")))?;
        self.authz_context_with(&ms_ent, principal)
    }

    /// [`Self::authz_context`] when the caller already holds the metastore
    /// entity (e.g. at the end of a completed chain) — skips one lookup.
    pub(crate) fn authz_context_with(
        &self,
        ms_ent: &Entity,
        principal: &str,
    ) -> UcResult<AuthzContext> {
        let record = self.principal_record(principal)?;
        let groups: std::collections::HashSet<String> = record.groups.into_iter().collect();
        // Short-circuit the owner check before parsing the admin list out
        // of the metastore entity's properties.
        let is_admin = ms_ent.owner == principal
            || ms_ent
                .metastore_admins()
                .iter()
                .any(|a| a == principal || groups.contains(a));
        Ok(AuthzContext {
            principal: principal.to_string(),
            groups,
            is_metastore_admin: is_admin,
        })
    }

    /// Fetch (with TTL caching) a principal's record.
    pub(crate) fn principal_record(&self, principal: &str) -> UcResult<PrincipalRecord> {
        if let Some(rec) = self.principal_cache.get(principal) {
            return Ok(rec);
        }
        let rt = self.db.begin_read();
        let rec = match rt.get(T_PRINCIPAL, principal) {
            Some(raw) => PrincipalRecord::decode(&raw)?,
            None => PrincipalRecord::default(),
        };
        self.principal_cache.put(principal.to_string(), rec.clone());
        Ok(rec)
    }

    /// A principal's group memberships — engines use this to build the
    /// evaluation context for FGAC expressions referencing
    /// `is_account_group_member`.
    pub fn principal_groups(&self, name: &str) -> UcResult<Vec<String>> {
        Ok(self.principal_record(name)?.groups)
    }

    /// Register or update a principal and its group memberships. This is
    /// an account-level identity operation (outside metastore governance).
    pub fn upsert_principal(&self, name: &str, groups: &[&str]) -> UcResult<()> {
        let rec = PrincipalRecord { groups: groups.iter().map(|g| g.to_string()).collect() };
        let mut tx = self.db.begin_write();
        tx.put(T_PRINCIPAL, name, rec.encode());
        tx.commit()?;
        // Identity changes take effect within the TTL window; drop our own
        // cached copy immediately.
        self.principal_cache.clear();
        Ok(())
    }

    /// Enforce catalog→workspace bindings (§3.2): if any catalog in the
    /// chain is bound to specific workspaces, the request must originate
    /// from one of them.
    pub(crate) fn enforce_workspace_binding(
        &self,
        ctx: &Context,
        chain: &[Arc<Entity>],
    ) -> UcResult<()> {
        for node in chain.iter().filter(|e| e.kind == SecurableKind::Catalog) {
            let bindings = node.workspace_bindings();
            if bindings.is_empty() {
                continue;
            }
            let ok = ctx
                .workspace
                .as_ref()
                .is_some_and(|w| bindings.iter().any(|b| b == w));
            if !ok {
                return Err(UcError::PermissionDenied(format!(
                    "catalog {} is bound to workspaces {:?}; request came from {:?}",
                    node.name, bindings, ctx.workspace
                )));
            }
        }
        Ok(())
    }

    /// Build the authorization view of a chain.
    pub(crate) fn authz_of(chain: &[Arc<Entity>]) -> SecurableAuthz {
        SecurableAuthz::new(
            chain
                .iter()
                .map(|e| AuthzNode {
                    id: e.id.clone(),
                    kind: e.kind,
                    owner: e.owner.clone(),
                    grants: e.grants.clone(),
                })
                .collect(),
        )
    }

    /// Locate the root credential for a bucket, consulting the in-memory
    /// mirror first and rebuilding it from storage-credential entities on
    /// miss.
    pub(crate) fn root_for_bucket(&self, ms: &Uid, bucket: &str) -> UcResult<RootCredential> {
        if let Some(root) = self.roots.read().get(bucket) {
            return Ok(root.clone());
        }
        // Rebuild from entities: one scan of the metastore's storage
        // credentials, whose tree rows carry the entities themselves.
        let rt = self.db.begin_read();
        let prefix = keys::tree_group_prefix(
            &keys::tree_ms_prefix(ms),
            SecurableKind::StorageCredential.name_group(),
        );
        for (_, raw) in rt.scan_prefix(T_TREE, &prefix) {
            let ent = Entity::decode(&raw)?;
            let (Some(b), Some(secret)) = (
                ent.properties.get(crate::model::entity::props::BUCKET),
                ent.properties.get(crate::model::entity::props::ROOT_SECRET),
            ) else {
                continue;
            };
            if let Ok(secret) = secret.parse::<u64>() {
                let root = RootCredential { bucket: b.clone(), secret };
                self.roots.write().insert(b.clone(), root.clone());
            }
        }
        self.roots
            .read()
            .get(bucket)
            .cloned()
            .ok_or_else(|| UcError::Storage(format!("no storage credential for bucket {bucket}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_id_miss_older_than_the_pin_serves_its_snapshot_and_installs_nothing() {
        let uc = UnityCatalog::in_memory();
        let ms = uc.create_metastore("admin", "m", "r").unwrap();
        let cat = uc.create_catalog(&Context::user("admin"), &ms, "main").unwrap();
        // Cold cache: the catalog's by-id read misses.
        uc.cache.clear();
        let c = uc.ms_cache(&ms).unwrap();
        let stale_before = uc.cache.stats.stale_retries.get();
        let waits_before = uc.cache.stats.gate_waits.get();
        let gate = c.write_gate();
        let reader = {
            let (uc, ms, id) = (uc.clone(), ms.clone(), cat.id.clone());
            std::thread::spawn(move || uc.entity_by_id(&ms, &id))
        };
        // The reader has read its snapshot once it blocks on the gate.
        while uc.cache.stats.gate_waits.get() == waits_before {
            std::thread::yield_now();
        }
        // A write commits and its write-through advances the pin past the
        // reader's snapshot (applied by hand: this thread holds the gate).
        let db_ver = read_ms_version(&uc.db.begin_read(), &ms);
        let mut tx = uc.db.begin_write();
        tx.put(T_MSVER, ms.as_str(), Bytes::from((db_ver + 1).to_string()));
        let csn = tx.commit().unwrap();
        c.advance(db_ver + 1, csn);
        drop(gate);
        let served = reader.join().unwrap().unwrap().expect("the snapshot holds the catalog");
        assert_eq!(served.id, cat.id);
        assert!(c.get_at(&cat.id, db_ver + 1).is_none(), "an older snapshot installs nothing");
        assert_eq!(uc.cache.stats.stale_retries.get() - stale_before, 1);
    }
}
