#![forbid(unsafe_code)]
//! uc-serve: the request-coalescing, batched serving plane.
//!
//! `RestApi` dispatches one request at a time, synchronously; under the
//! paper's Fig 10b engine-metadata storms the database connection pool is
//! the knee (pool permits × per-read latency caps throughput however
//! many clients pile in). This crate puts an explicit serving plane in
//! front of [`UnityCatalog`] — the FoundationDB Record Layer shape: a
//! stateless tier that owns request scheduling so shared storage sees
//! shaped, deduplicated traffic. Three mechanisms (DESIGN.md §10):
//!
//! * **Single-flight coalescing** ([`flight`]): concurrent `getTable`
//!   requests for the same `(metastore, principal, key, cache-version)`
//!   share one execution. The first arrival is the *leader* and runs the
//!   catalog call (one db miss, one audit record); the rest are
//!   *followers* that subscribe to the leader's result. The cache
//!   version in the key is the correctness hinge: a request that
//!   observed an invalidation computes a different key, so a leader's
//!   result is never served across an invalidation (read-your-snapshot
//!   holds for followers — adversarially checked by uc-check's
//!   `coalesce_clients` schedules).
//!
//! * **Batched resolution** ([`batch`]): concurrent `resolve` requests
//!   combine, group-commit style — the first arrival becomes the batch
//!   leader, drains compatible queued requests, and executes one
//!   [`UnityCatalog::resolve_for_query`] call for all of them, falling
//!   back to one call per request if the combined call fails. Batch size
//!   grows with concurrency naturally; no dispatcher thread exists.
//!
//! * **Bounded per-tenant admission** ([`admission`]): each tenant
//!   (metastore × principal) owns a bounded in-flight budget. Over
//!   budget, the request is *shed deterministically*: an audited deny
//!   (`requestShed`), a `serve.shed` counter tick, and a typed
//!   [`UcError::ResourceExhausted`] that `rest.rs` maps to HTTP 429 —
//!   never a silent drop. Shed-and-retry clients use the bounded
//!   virtual-clock backoff helpers.
//!
//! Two execution modes share this policy code: one admission check,
//! one combined-resolve dispatch ([`batch`]) and one backoff formula
//! ([`RetryPolicy::backoff_ms`]). The concurrent mode
//! (`get_table`/`resolve` called from many threads) powers the
//! `fig10b_serve` bench; the deterministic mode ([`replay`]) drives an
//! open-loop [`uc_workload::openloop::Schedule`] single-threaded on the
//! injected clock, so leader election, shedding, batching, telemetry,
//! and audit are pure functions of the seed — that is what the CI
//! byte-diff gates replay.

pub mod admission;
pub mod batch;
pub mod flight;
pub mod replay;

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use uc_catalog::service::resolve::ResolvedSecurable;
use uc_catalog::service::{Context, UnityCatalog};
use uc_catalog::{Entity, FullName, UcError, UcResult, Uid};
use uc_cloudstore::sched::{is_scheduled, yield_point};
use uc_obs::{Counter, CounterFamily, Gauge, Histogram, HistogramFamily, Obs};

/// Scheduler yield points owned by the serving plane. Constants so the
/// interleaving explorer can land adversarial schedules at each stage;
/// all three are reached holding no serve lock.
pub mod points {
    /// Before admission control examines the request.
    pub const SERVE_ENQUEUE: &str = "serve.enqueue";
    /// Before a resolve request joins (or drains) the combining batch.
    pub const SERVE_BATCH: &str = "serve.batch";
    /// Before a leader executes the catalog call, and between a
    /// follower's wait-loop probes under the explorer.
    pub const SERVE_DISPATCH: &str = "serve.dispatch";
}

/// Bounded retry/backoff policy for shed-and-retry clients. Backoff is
/// driven by the injected clock: on a manual clock virtual time advances
/// (deterministic, instant); on a system clock the thread sleeps.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first shed (0 = never retry).
    pub max_retries: u32,
    /// Base of the exponential backoff ([`RetryPolicy::backoff_ms`]).
    pub base_ms: u64,
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (0-based): `base_ms << min(attempt,
    /// 6)`, at least 1 ms.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        self.base_ms.max(1) << attempt.min(6)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3, base_ms: 4 }
    }
}

/// Serving-plane configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-tenant in-flight budget; request N+1 is shed.
    pub queue_capacity: usize,
    /// Maximum requests combined into one `resolve_for_query` dispatch.
    pub max_batch: usize,
    /// Bound on the combining queue across tenants (belt-and-braces on
    /// top of per-tenant admission; overflow sheds).
    pub batch_queue_capacity: usize,
    /// Single-flight coalescing on/off (off = the uncoalesced bench arm).
    pub coalesce: bool,
    pub retry: RetryPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            max_batch: 16,
            batch_queue_capacity: 1024,
            coalesce: true,
            retry: RetryPolicy::default(),
        }
    }
}

/// How a request was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Executed the catalog call itself (coalescing leader, batch
    /// leader, or coalescing disabled).
    Leader,
    /// Subscribed to another request's execution.
    Follower,
}

/// A successful serve-plane response: the value plus how it was served.
#[derive(Debug, Clone)]
pub struct Served<T> {
    pub value: T,
    pub role: Role,
    /// The metastore cache version embedded in the flight key at join
    /// time. Read-your-snapshot invariant: this is never below the
    /// version the caller observed before submitting.
    pub key_version: u64,
}

/// A result slot one execution publishes into and its waiters read: a
/// coalesced flight's followers ([`flight`]) or the requests of a
/// combined batch ([`batch`]).
pub(crate) struct Slot<T> {
    state: Mutex<Option<UcResult<T>>>,
    done: Condvar,
}

impl<T: Clone> Slot<T> {
    pub(crate) fn new() -> Slot<T> {
        Slot { state: Mutex::new(None), done: Condvar::new() }
    }

    /// Publish the result and wake every waiter.
    pub(crate) fn publish(&self, result: UcResult<T>) {
        let mut state = self.state.lock();
        *state = Some(result);
        self.done.notify_all();
    }

    /// Wait for the published result. Under the deterministic scheduler
    /// (where blocking a thread would wedge the baton hand-off) waiters
    /// yield between non-blocking probes, so the explorer controls
    /// exactly when the publisher runs; under real threading they block
    /// on the condvar.
    pub(crate) fn wait(&self) -> UcResult<T> {
        if is_scheduled() {
            loop {
                let published = self.state.lock().clone();
                if let Some(result) = published {
                    return result;
                }
                yield_point(points::SERVE_DISPATCH);
            }
        }
        let mut state = self.state.lock();
        loop {
            if let Some(result) = &*state {
                return result.clone();
            }
            self.done.wait(&mut state);
        }
    }
}

/// The serving plane's instruments, all riding the PR-7 dimensional
/// plane: each global counter has a `.by_tenant` family whose per-label
/// cells (plus `~overflow`) sum exactly to the global value — the
/// conservation law the benches assert.
pub(crate) struct ServeMetrics {
    pub leaders: Counter,
    pub leaders_by: CounterFamily,
    pub followers: Counter,
    pub followers_by: CounterFamily,
    pub admitted: Counter,
    pub admitted_by: CounterFamily,
    pub shed: Counter,
    pub shed_by: CounterFamily,
    pub retries: Counter,
    pub queue_depth: Gauge,
    pub depth_hist: Histogram,
    pub depth_by: HistogramFamily,
    pub batch_size: Histogram,
    pub batches: Counter,
}

impl ServeMetrics {
    fn new(obs: &Obs) -> ServeMetrics {
        ServeMetrics {
            leaders: obs.counter("serve.coalesce.leaders"),
            leaders_by: obs.counter_family("serve.coalesce.leaders.by_tenant"),
            followers: obs.counter("serve.coalesce.followers"),
            followers_by: obs.counter_family("serve.coalesce.followers.by_tenant"),
            admitted: obs.counter("serve.admitted"),
            admitted_by: obs.counter_family("serve.admitted.by_tenant"),
            shed: obs.counter("serve.shed"),
            shed_by: obs.counter_family("serve.shed.by_tenant"),
            retries: obs.counter("serve.retries"),
            queue_depth: obs.gauge("serve.queue.depth"),
            depth_hist: obs.histogram("serve.queue.depth.hist"),
            depth_by: obs.histogram_family("serve.queue.depth.by_tenant"),
            batch_size: obs.histogram("serve.batch.size"),
            batches: obs.counter("serve.batch.count"),
        }
    }
}

/// The serving plane bound to one catalog node.
pub struct ServePlane {
    uc: Arc<UnityCatalog>,
    cfg: ServeConfig,
    metrics: ServeMetrics,
    admission: admission::Admission,
    flights: flight::FlightMap,
    batcher: batch::Batcher,
}

impl ServePlane {
    pub fn new(uc: Arc<UnityCatalog>, cfg: ServeConfig) -> ServePlane {
        let obs = uc.obs().clone();
        ServePlane {
            metrics: ServeMetrics::new(&obs),
            admission: admission::Admission::new(),
            flights: flight::FlightMap::new(),
            batcher: batch::Batcher::new(),
            uc,
            cfg,
        }
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    pub fn catalog(&self) -> &Arc<UnityCatalog> {
        &self.uc
    }

    /// Admit or shed one request; on admit the returned guard holds the
    /// tenant's slot until dropped. Shedding audits a deny and returns
    /// the typed 429 error — never a silent drop.
    pub(crate) fn admit(
        &self,
        ms: &Uid,
        principal: &str,
        what: &str,
    ) -> UcResult<admission::AdmissionGuard<'_>> {
        yield_point(points::SERVE_ENQUEUE);
        let label = self.uc.tenant_label(Some(ms), principal);
        match self.admission.try_admit(
            ms,
            principal,
            self.cfg.queue_capacity,
            &self.metrics,
            &label,
        ) {
            Some(guard) => Ok(guard),
            None => {
                self.metrics.shed.inc();
                self.metrics.shed_by.inc(&label);
                self.uc.audit_shed(
                    principal,
                    format!("{what} shed: tenant over admission budget ({})", self.cfg.queue_capacity),
                );
                Err(UcError::ResourceExhausted(format!(
                    "{what}: tenant admission queue full (capacity {})",
                    self.cfg.queue_capacity
                )))
            }
        }
    }

    /// Serve one `getTable` through admission + single-flight coalescing.
    pub fn get_table(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &str,
    ) -> UcResult<Served<Arc<Entity>>> {
        let _slot = self.admit(ms, &ctx.principal, "getTable")?;
        if !self.cfg.coalesce {
            yield_point(points::SERVE_DISPATCH);
            let value = self.uc.get_table(ctx, ms, name)?;
            return Ok(Served { value, role: Role::Leader, key_version: 0 });
        }
        let key_version = self.uc.metastore_cache_version(ms);
        let label = self.uc.tenant_label(Some(ms), &ctx.principal);
        self.flights.serve(
            &self.uc,
            &self.metrics,
            &label,
            ctx,
            ms,
            name,
            key_version,
        )
    }

    /// [`ServePlane::get_table`] with bounded shed-and-retry backoff.
    pub fn get_table_with_retry(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &str,
    ) -> UcResult<Served<Arc<Entity>>> {
        let mut attempt: u32 = 0;
        loop {
            match self.get_table(ctx, ms, name) {
                Err(UcError::ResourceExhausted(_)) if attempt < self.cfg.retry.max_retries => {
                    self.backoff(attempt);
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Serve one batched resolution through admission + the combining
    /// batcher.
    pub fn resolve(
        &self,
        ctx: &Context,
        ms: &Uid,
        refs: Vec<FullName>,
        want_credentials: bool,
    ) -> UcResult<Served<Vec<ResolvedSecurable>>> {
        let _slot = self.admit(ms, &ctx.principal, "resolve")?;
        let label = self.uc.tenant_label(Some(ms), &ctx.principal);
        self.batcher.serve(
            &self.uc,
            &self.cfg,
            &self.metrics,
            &label,
            ctx,
            ms,
            refs,
            want_credentials,
        )
    }

    /// Bounded virtual-clock backoff after a shed: on a manual clock
    /// virtual time advances (chaos/replay runs stay instant and
    /// deterministic); on a system clock the thread sleeps.
    pub(crate) fn backoff(&self, attempt: u32) {
        let backoff_ms = self.cfg.retry.backoff_ms(attempt);
        self.metrics.retries.inc();
        let clock = self.uc.clock();
        if clock.is_manual() {
            clock.advance_ms(backoff_ms);
        } else {
            std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
        }
    }
}
