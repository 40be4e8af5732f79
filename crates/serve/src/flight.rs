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

use parking_lot::Mutex;
use uc_catalog::service::{Context, UnityCatalog};
use uc_catalog::{Entity, UcResult, Uid};
use uc_cloudstore::sched::yield_point;

use crate::{points, Role, Served, ServeMetrics, Slot};

/// Flight identity: metastore, principal, table name, cache version.
type FlightKey = (Uid, String, String, u64);

/// The in-flight table of active flights. Entries exist only between a
/// leader's arrival and its publication, so the map is bounded by live
/// concurrency.
pub(crate) struct FlightMap {
    flights: Mutex<HashMap<FlightKey, Arc<Slot<Arc<Entity>>>>>,
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
                    let slot = Arc::new(Slot::new());
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
            let result = slot.wait();
            metrics.followers.inc();
            metrics.followers_by.inc(label);
            result.map(|value| Served { value, role: Role::Follower, key_version })
        }
    }
}
