//! Single-flight coalescing for point metadata reads.
//!
//! Concurrent `getTable` requests for the same flight key share one
//! catalog execution: the first arrival (the *leader*) runs the call —
//! one database miss, one audit record — and every concurrent duplicate
//! (a *follower*) subscribes to the leader's result. The flight key is
//! `(metastore, principal, table name, metastore cache version)`:
//!
//! * the **principal** keeps authorization per-caller — two principals
//!   never share a flight, so each gets its own authz decision and its
//!   own audit trail;
//! * the **cache version** is the read-your-snapshot hinge — an
//!   invalidation advances the version, so a request that observed the
//!   invalidation computes a *different* key and can never join (and be
//!   answered from) a pre-invalidation flight. uc-check's
//!   `coalesce_clients` schedules drive this adversarially.
//!
//! A flight is removed from the map *before* its result is published, so
//! a late arrival after completion starts a fresh flight — which then
//! hits the catalog cache. Followers wait on a condvar under real
//! threading; under the deterministic scheduler (where blocking a thread
//! would wedge the baton hand-off) they spin on yield points instead,
//! probed via [`uc_cloudstore::sched::is_scheduled`].

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use uc_catalog::service::{Context, UnityCatalog};
use uc_catalog::{Entity, UcResult, Uid};
use uc_cloudstore::sched::{is_scheduled, yield_point};

use crate::{points, Role, Served, ServeMetrics};

/// Flight identity: metastore, principal, table name, cache version.
type FlightKey = (Uid, String, String, u64);

/// Shared slot the leader publishes into and followers wait on.
struct FlightSlot {
    state: Mutex<Option<UcResult<Arc<Entity>>>>,
    done: Condvar,
}

impl FlightSlot {
    fn new() -> FlightSlot {
        FlightSlot { state: Mutex::new(None), done: Condvar::new() }
    }

    /// Non-blocking probe of the published result.
    fn poll(&self) -> Option<UcResult<Arc<Entity>>> {
        let state = self.state.lock();
        state.clone()
    }

    /// Publish the leader's result and wake all followers.
    fn publish(&self, result: UcResult<Arc<Entity>>) {
        let mut state = self.state.lock();
        *state = Some(result);
        self.done.notify_all();
    }

    /// Follower wait under the deterministic scheduler: yield between
    /// probes so the explorer controls exactly when the leader runs.
    fn wait_scheduled(&self) -> UcResult<Arc<Entity>> {
        loop {
            if let Some(result) = self.poll() {
                return result;
            }
            yield_point(points::SERVE_DISPATCH);
        }
    }

    /// Follower wait under real threading: block on the condvar.
    fn wait_blocking(&self) -> UcResult<Arc<Entity>> {
        let mut state = self.state.lock();
        loop {
            if let Some(result) = &*state {
                return result.clone();
            }
            self.done.wait(&mut state);
        }
    }
}

/// The in-flight table of active flights. Entries exist only between a
/// leader's arrival and its publication, so the map is bounded by live
/// concurrency.
pub(crate) struct FlightMap {
    flights: Mutex<HashMap<FlightKey, Arc<FlightSlot>>>,
}

impl FlightMap {
    pub(crate) fn new() -> FlightMap {
        FlightMap { flights: Mutex::new(HashMap::new()) }
    }

    /// Serve one `getTable` through the flight table: join an existing
    /// flight as a follower, or create one and lead it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve(
        &self,
        uc: &UnityCatalog,
        metrics: &ServeMetrics,
        label: &Arc<str>,
        ctx: &Context,
        ms: &Uid,
        name: &str,
        key_version: u64,
    ) -> UcResult<Served<Arc<Entity>>> {
        let key: FlightKey =
            (ms.clone(), ctx.principal.clone(), name.to_string(), key_version);
        let (slot, is_leader) = {
            let mut flights = self.flights.lock();
            match flights.get(&key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(FlightSlot::new());
                    flights.insert(key.clone(), Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if is_leader {
            yield_point(points::SERVE_DISPATCH);
            // The catalog call runs with no serve lock held; it takes
            // its own pool permits and cache shard locks internally.
            let result = uc.get_table(ctx, ms, name);
            {
                let mut flights = self.flights.lock();
                flights.remove(&key);
            }
            slot.publish(result.clone());
            metrics.leaders.inc();
            metrics.leaders_by.inc(label);
            result.map(|value| Served { value, role: Role::Leader, key_version })
        } else {
            let result = if is_scheduled() {
                slot.wait_scheduled()
            } else {
                slot.wait_blocking()
            };
            metrics.followers.inc();
            metrics.followers_by.inc(label);
            result.map(|value| Served { value, role: Role::Follower, key_version })
        }
    }
}
