//! Deterministic replay of an open-loop schedule through the plane.
//!
//! The concurrent entry points ([`crate::ServePlane::get_table`] /
//! [`crate::ServePlane::resolve`]) are thread-driven: which requests
//! coalesce and who leads depends on OS scheduling, so two runs report
//! different (equally correct) splits. CI byte-diff gates need the
//! opposite — so this module replays a [`Schedule`] single-threaded on
//! the injected manual clock, applying *the same policy code* in
//! arrival order: admission via [`crate::ServePlane::admit`],
//! version-keyed coalescing groups, signature-compatible batch chunks
//! dispatched through the batcher's own [`crate::batch::dispatch`], and
//! bounded shed-retry with [`crate::RetryPolicy::backoff_ms`]. Leader
//! election is deterministic (first arrival in the group), so shed
//! decisions, coalesce splits, batch sizes, telemetry,
//! and the audit trail are pure functions of the schedule seed:
//! `UC_SERVE_REPLAY=1` runs of the fig10b bench diff byte-identically.
//!
//! Requests arriving in the same virtual millisecond are treated as
//! concurrent: they are all admitted (or shed) against the quantum's
//! queue depth, `getTable`s for the same `(tenant, key)` coalesce into
//! one flight, and `Resolve`s with the same tenant signature chunk into
//! combined calls of at most `max_batch`. Errors count per request: a
//! denied ref fails only its own request (the dispatch falls back to one
//! call per request), every failed uncoalesced call counts, and a request
//! naming a malformed table fails alone. A hook runs between quanta so
//! tests can inject invalidations and prove flights never span a cache
//! version change.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use uc_catalog::service::Context;
use uc_catalog::{FullName, UcResult, Uid};
use uc_workload::openloop::{Arrival, RequestKind, Schedule};

use crate::{batch, ServePlane};

/// Binds a schedule's abstract tenant/key indices to a concrete world.
pub struct ReplayBinding {
    /// The metastore every tenant lives in (tenants are principals).
    pub ms: Uid,
    /// Per-tenant request context; tenant index `i` uses
    /// `contexts[i % contexts.len()]`.
    pub contexts: Vec<Context>,
    /// Per-tenant table names; key index `k` of tenant `i` resolves to
    /// `tables[i % tables.len()][k % tables[..].len()]`.
    pub tables: Vec<Vec<String>>,
    /// Whether `Resolve` requests ask for read credentials.
    pub want_credentials: bool,
}

impl ReplayBinding {
    fn context(&self, tenant: usize) -> &Context {
        &self.contexts[tenant % self.contexts.len()]
    }
}

/// Entry `key` of tenant `tenant` in per-tenant lists; both indices wrap.
fn pick<T>(lists: &[Vec<T>], tenant: usize, key: usize) -> &T {
    let list = &lists[tenant % lists.len()];
    &list[key % list.len()]
}

/// Counters accumulated by one replay; [`ReplayReport::canonical_text`]
/// is the byte-diffed CI artifact.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Schedule arrivals plus retry re-arrivals offered to admission.
    pub offered: u64,
    /// Requests admitted past the tenant budget.
    pub admitted: u64,
    /// Shed events (each is one audited deny + one 429).
    pub shed: u64,
    /// Shed requests re-offered after backoff.
    pub retried: u64,
    /// Shed requests dropped after exhausting their retry budget.
    pub dropped: u64,
    /// Coalesce groups executed (each is one catalog call + one audit).
    pub leaders: u64,
    /// Requests served from another request's flight.
    pub followers: u64,
    /// Combined resolve dispatches.
    pub batches: u64,
    /// Resolve requests carried by those dispatches.
    pub batch_items: u64,
    /// Admitted requests that got an error (denies, malformed names etc.);
    /// each request counts at most once.
    pub errors: u64,
    /// Last virtual timestamp processed.
    pub end_ms: u64,
    /// Metastore cache version of the last quantum — flights never span
    /// two values of this (read-your-snapshot).
    pub last_version: u64,
}

impl ReplayReport {
    /// Canonical, line-oriented rendering for byte-for-byte diffing.
    pub fn canonical_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "serve.replay.offered={}", self.offered);
        let _ = writeln!(out, "serve.replay.admitted={}", self.admitted);
        let _ = writeln!(out, "serve.replay.shed={}", self.shed);
        let _ = writeln!(out, "serve.replay.retried={}", self.retried);
        let _ = writeln!(out, "serve.replay.dropped={}", self.dropped);
        let _ = writeln!(out, "serve.replay.leaders={}", self.leaders);
        let _ = writeln!(out, "serve.replay.followers={}", self.followers);
        let _ = writeln!(out, "serve.replay.batches={}", self.batches);
        let _ = writeln!(out, "serve.replay.batch_items={}", self.batch_items);
        let _ = writeln!(out, "serve.replay.errors={}", self.errors);
        let _ = writeln!(out, "serve.replay.end_ms={}", self.end_ms);
        let _ = writeln!(out, "serve.replay.last_version={}", self.last_version);
        out
    }
}

/// One queued request: the arrival plus how many times it has been shed
/// and re-offered.
struct Pending {
    arrival: Arrival,
    attempt: u32,
}

/// Replay `schedule` through `plane` deterministically.
pub fn run(plane: &ServePlane, schedule: &Schedule, binding: &ReplayBinding) -> ReplayReport {
    run_with(plane, schedule, binding, |_, _| {})
}

/// [`run`] with a hook invoked at the start of every quantum (after the
/// clock advance, before admission) — the seam tests use to inject
/// invalidations between quanta.
pub fn run_with(
    plane: &ServePlane,
    schedule: &Schedule,
    binding: &ReplayBinding,
    mut hook: impl FnMut(u64, &ServePlane),
) -> ReplayReport {
    let mut report = ReplayReport::default();
    if binding.contexts.is_empty() || binding.tables.is_empty() {
        return report;
    }
    // Virtual-time queue: schedule arrivals plus shed-retry re-arrivals.
    let mut queue: BTreeMap<u64, Vec<Pending>> = BTreeMap::new();
    for arrival in &schedule.arrivals {
        queue
            .entry(arrival.at_ms)
            .or_default()
            .push(Pending { arrival: arrival.clone(), attempt: 0 });
    }
    let retry = plane.config().retry.clone();
    // Every bound table name, parsed once for the whole run.
    let names: Vec<Vec<UcResult<FullName>>> = binding
        .tables
        .iter()
        .map(|tables| tables.iter().map(|t| FullName::parse(t)).collect())
        .collect();
    while let Some((&t, _)) = queue.iter().next() {
        let quantum = match queue.remove(&t) {
            Some(q) => q,
            None => break,
        };
        report.end_ms = t;
        let clock = plane.catalog().clock();
        if clock.is_manual() {
            let now = clock.now_ms();
            if t > now {
                clock.advance_ms(t - now);
            }
        }
        hook(t, plane);

        // Phase 1 — admission. Every arrival in the quantum is
        // concurrently in flight: slots are held until the quantum is
        // fully served, so a tenant burst above its budget sheds
        // deterministically (later arrivals lose).
        let mut admitted = Vec::new();
        let mut guards = Vec::new();
        for pending in quantum {
            let ctx = binding.context(pending.arrival.tenant);
            let what = match pending.arrival.kind {
                RequestKind::GetTable => "getTable",
                RequestKind::Resolve { .. } => "resolve",
            };
            report.offered += 1;
            match plane.admit(&binding.ms, &ctx.principal, what) {
                Ok(guard) => {
                    guards.push(guard);
                    admitted.push(pending.arrival);
                    report.admitted += 1;
                }
                Err(_) => {
                    report.shed += 1;
                    if pending.attempt < retry.max_retries {
                        plane.metrics.retries.inc();
                        report.retried += 1;
                        queue.entry(t + retry.backoff_ms(pending.attempt)).or_default().push(Pending {
                            arrival: pending.arrival,
                            attempt: pending.attempt + 1,
                        });
                    } else {
                        report.dropped += 1;
                    }
                }
            }
        }

        // Phase 2 — coalesce point reads. Same (tenant, key) in one
        // quantum shares one flight under the quantum's cache version;
        // the first arrival leads.
        let version = plane.catalog().metastore_cache_version(&binding.ms);
        report.last_version = version;
        let mut get_groups: Vec<((usize, usize), u64)> = Vec::new();
        for arrival in admitted.iter().filter(|a| a.kind == RequestKind::GetTable) {
            let key = (arrival.tenant, arrival.key);
            match get_groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => get_groups.push((key, 1)),
            }
        }
        for ((tenant, key), n) in get_groups {
            let ctx = binding.context(tenant);
            let label = plane.catalog().tenant_label(Some(&binding.ms), &ctx.principal);
            let name = pick(&binding.tables, tenant, key);
            let get = || plane.catalog().get_table(ctx, &binding.ms, name).is_err();
            report.errors += if plane.config().coalesce {
                report.leaders += 1;
                report.followers += n - 1;
                plane.metrics.leaders.inc();
                plane.metrics.leaders_by.inc(&label);
                plane.metrics.followers.add(n - 1);
                plane.metrics.followers_by.add(&label, n - 1);
                // Followers share the leader's outcome, error included.
                if get() { n } else { 0 }
            } else {
                // Uncoalesced arm: every request is its own catalog call.
                report.leaders += n;
                plane.metrics.leaders.add(n);
                plane.metrics.leaders_by.add(&label, n);
                (0..n).filter(|_| get()).count() as u64
            };
        }

        // Phase 3 — combined resolution. Same-tenant resolves chunk into
        // dispatches of at most max_batch through the batcher's own
        // `dispatch`; a request naming a malformed table fails alone.
        let mut resolve_groups: Vec<(usize, Vec<Vec<FullName>>)> = Vec::new();
        for arrival in &admitted {
            let RequestKind::Resolve { keys } = &arrival.kind else { continue };
            let refs: UcResult<Vec<FullName>> =
                keys.iter().map(|key| pick(&names, arrival.tenant, *key).clone()).collect();
            let Ok(refs) = refs else {
                report.errors += 1;
                continue;
            };
            match resolve_groups.iter_mut().find(|(t, _)| *t == arrival.tenant) {
                Some((_, items)) => items.push(refs),
                None => resolve_groups.push((arrival.tenant, vec![refs])),
            }
        }
        for (tenant, items) in resolve_groups {
            let ctx = binding.context(tenant);
            for chunk in items.chunks(plane.config().max_batch.max(1)) {
                let chunk: Vec<&[FullName]> = chunk.iter().map(Vec::as_slice).collect();
                report.batches += 1;
                report.batch_items += chunk.len() as u64;
                let results = batch::dispatch(
                    plane.catalog(),
                    &plane.metrics,
                    ctx,
                    &binding.ms,
                    binding.want_credentials,
                    &chunk,
                );
                report.errors += results.iter().filter(|r| r.is_err()).count() as u64;
            }
        }
        // Quantum fully served: admission slots release here.
        drop(guards);
    }
    report
}
