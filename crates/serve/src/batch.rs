//! Group-commit batching for engine metadata resolution.
//!
//! Concurrent `resolve` requests combine instead of queueing behind one
//! another: every arrival enqueues its refs, and the first arrival with
//! no active leader elects itself *batch leader*. The leader drains the
//! queue a compatible group at a time — same principal, engine identity,
//! workspace, and credential mode, so one combined call is
//! authorization-equivalent to the per-request calls it replaces — and
//! executes a single [`UnityCatalog::resolve_for_query`] for the whole
//! group, splitting the positional result back onto each request's slot.
//! There is no dispatcher thread and no timer: batch size grows with
//! concurrency naturally (a lone request is a batch of one), exactly the
//! group-commit shape write-ahead logs use.
//!
//! The leader keeps draining until the queue is empty, *including groups
//! it is not itself part of* — the leader-active flag guarantees some
//! thread owns every enqueued item, and the flag only clears under the
//! same lock that proves the queue is empty, so no item can be enqueued
//! and then orphaned. If the combined call fails, [`dispatch`] resolves
//! each request alone so one poisoned request cannot fail its whole
//! group. The deterministic replay ([`crate::replay`]) calls the same
//! [`dispatch`], so both execution modes run one combining policy.
//!
//! The queue is bounded by `batch_queue_capacity` (checked before the
//! push — the `bounded-queue` lint invariant); overflow sheds with the
//! same audited-429 contract as admission.

use std::sync::Arc;

use parking_lot::Mutex;
use uc_catalog::service::resolve::ResolvedSecurable;
use uc_catalog::service::{Context, EngineIdentity, UnityCatalog};
use uc_catalog::{FullName, UcError, UcResult, Uid};
use uc_cloudstore::sched::yield_point;

use crate::{points, Role, Served, ServeConfig, ServeMetrics, Slot};

/// Authorization-relevant identity of a resolve request. Only requests
/// with identical signatures may share a combined catalog call.
#[derive(Clone, PartialEq, Eq)]
struct Signature {
    ms: Uid,
    principal: String,
    engine: EngineIdentity,
    workspace: Option<String>,
    want_credentials: bool,
}

impl Signature {
    fn context(&self) -> Context {
        Context {
            principal: self.principal.clone(),
            engine: self.engine.clone(),
            workspace: self.workspace.clone(),
        }
    }
}

struct PendingItem {
    sig: Signature,
    refs: Vec<FullName>,
    slot: Arc<Slot<Vec<ResolvedSecurable>>>,
}

struct BatchState {
    items: Vec<PendingItem>,
    leader_active: bool,
}

/// The combining queue plus leader-election flag.
pub(crate) struct Batcher {
    pending: Mutex<BatchState>,
}

impl Batcher {
    pub(crate) fn new() -> Batcher {
        Batcher {
            pending: Mutex::new(BatchState { items: Vec::new(), leader_active: false }),
        }
    }

    /// Serve one resolve request through the combining queue.
    /// [admission]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve(
        &self,
        uc: &UnityCatalog,
        cfg: &ServeConfig,
        metrics: &ServeMetrics,
        label: &Arc<str>,
        ctx: &Context,
        ms: &Uid,
        refs: Vec<FullName>,
        want_credentials: bool,
    ) -> UcResult<Served<Vec<ResolvedSecurable>>> {
        yield_point(points::SERVE_BATCH);
        let sig = Signature {
            ms: ms.clone(),
            principal: ctx.principal.clone(),
            engine: ctx.engine.clone(),
            workspace: ctx.workspace.clone(),
            want_credentials,
        };
        let slot = Arc::new(Slot::new());
        let is_leader = {
            let mut pending = self.pending.lock();
            if pending.items.len() >= cfg.batch_queue_capacity {
                drop(pending);
                metrics.shed.inc();
                metrics.shed_by.inc(label);
                uc.audit_shed(
                    &ctx.principal,
                    format!(
                        "resolve shed: batch queue over capacity ({})",
                        cfg.batch_queue_capacity
                    ),
                );
                return Err(UcError::ResourceExhausted(format!(
                    "resolve: batch queue full (capacity {})",
                    cfg.batch_queue_capacity
                )));
            }
            pending.items.push(PendingItem { sig: sig.clone(), refs, slot: Arc::clone(&slot) });
            if pending.leader_active {
                false
            } else {
                pending.leader_active = true;
                true
            }
        };
        if is_leader {
            self.drain(uc, cfg, metrics);
        }
        // The leader's own item was served by some dispatch of its drain
        // loop (the loop only exits once the queue is empty), so its wait
        // returns immediately; followers wait for whichever leader owns
        // the queue.
        let result = slot.wait();
        let role = if is_leader { Role::Leader } else { Role::Follower };
        result.map(|value| Served { value, role, key_version: 0 })
    }

    /// Leader loop: drain compatible groups until the queue is empty.
    /// The leader-active flag clears only under the lock that observes
    /// emptiness, so every enqueued item is owned by exactly one leader.
    fn drain(&self, uc: &UnityCatalog, cfg: &ServeConfig, metrics: &ServeMetrics) {
        loop {
            let group: Vec<PendingItem> = {
                let mut pending = self.pending.lock();
                if pending.items.is_empty() {
                    pending.leader_active = false;
                    return;
                }
                let sig = pending.items[0].sig.clone();
                let mut group = Vec::new();
                let mut rest = Vec::new();
                for item in pending.items.drain(..) {
                    if group.len() < cfg.max_batch.max(1) && item.sig == sig {
                        group.push(item);
                    } else {
                        rest.push(item);
                    }
                }
                pending.items = rest;
                group
            };
            yield_point(points::SERVE_DISPATCH);
            let sig = &group[0].sig;
            let items: Vec<&[FullName]> = group.iter().map(|item| item.refs.as_slice()).collect();
            let results = dispatch(uc, metrics, &sig.context(), &sig.ms, sig.want_credentials, &items);
            for (item, result) in group.iter().zip(results) {
                item.slot.publish(result);
            }
        }
    }
}

/// Resolve one compatible group of requests (`items`, one ref list per
/// request) with a single combined [`UnityCatalog::resolve_for_query`]
/// and split the positional result back into one result per request.
/// If the combined call fails (one denied ref fails all of it), each
/// request is resolved alone, so each gets its own success or error.
/// Both execution modes dispatch through here: the threaded batcher's
/// leader and the deterministic replay.
pub(crate) fn dispatch(
    uc: &UnityCatalog,
    metrics: &ServeMetrics,
    ctx: &Context,
    ms: &Uid,
    want_credentials: bool,
    items: &[&[FullName]],
) -> Vec<UcResult<Vec<ResolvedSecurable>>> {
    metrics.batches.inc();
    metrics.batch_size.record(items.len() as u64);
    let combined: Vec<FullName> = items.iter().flat_map(|refs| refs.iter().cloned()).collect();
    match uc.resolve_for_query(ctx, ms, &combined, want_credentials) {
        Ok(mut resolved) => {
            // Split positionally, back to front so each split is O(1).
            let mut splits: Vec<UcResult<Vec<ResolvedSecurable>>> = items
                .iter()
                .rev()
                .map(|refs| Ok(resolved.split_off(resolved.len().saturating_sub(refs.len()))))
                .collect();
            splits.reverse();
            splits
        }
        Err(_) => items
            .iter()
            .map(|refs| uc.resolve_for_query(ctx, ms, refs, want_credentials))
            .collect(),
    }
}
