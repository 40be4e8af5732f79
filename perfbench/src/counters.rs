//! Per-layer counters read from the program itself, and their
//! normalisation to per-op metrics over a timed region.
//!
//! Cache, catalog and STS counters come from the node's own
//! `metrics_snapshot()` (parsed with `uc_bench::parse_snapshot`); txdb
//! counters from `DbStats` and the connection pool; the rest from the
//! audit log, the credential cache, the change log and the row store.
//! The `catalog.*.latency_ms` histograms are never read: they run on the
//! injected millisecond clock and record 0 for microsecond calls.

use uc_bench::{parse_snapshot, SnapshotValue};
use uc_catalog::UnityCatalog;

/// Monotonic counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_stale_retries: u64,
    pub cache_gate_waits: u64,
    pub cache_invalidations: u64,
    pub txdb_reads: u64,
    pub txdb_scans: u64,
    pub txdb_commits: u64,
    pub txdb_rows_written: u64,
    pub txdb_conflicts: u64,
    pub txdb_pool_wait_ns: u64,
    pub catalog_calls: u64,
    pub catalog_write_retries: u64,
    pub audit_records: u64,
    pub sts_mints: u64,
    pub sts_verifies: u64,
    pub cred_cache_hits: u64,
    pub cred_cache_misses: u64,
}

impl Counters {
    /// Read every counter of `uc` and its database.
    pub fn sample(uc: &UnityCatalog) -> Counters {
        let snap = parse_snapshot(&uc.metrics_snapshot());
        let counter = |name: &str| match snap.get(name) {
            Some(SnapshotValue::Counter(n)) => *n,
            _ => 0,
        };
        let db = uc.db();
        let (cred_hits, cred_misses) = uc.credential_cache_stats();
        Counters {
            cache_hits: counter("cache.hits"),
            cache_misses: counter("cache.misses"),
            cache_evictions: counter("cache.evictions"),
            cache_stale_retries: counter("cache.stale_retries"),
            cache_gate_waits: counter("cache.shard.gate_waits"),
            cache_invalidations: counter("cache.invalidations"),
            txdb_reads: db.stats().reads(),
            txdb_scans: db.stats().scans(),
            txdb_commits: db.stats().commits(),
            txdb_rows_written: db.stats().writes(),
            txdb_conflicts: db.stats().conflicts(),
            txdb_pool_wait_ns: db.pool().wait_stats().0.as_nanos() as u64,
            catalog_calls: counter("catalog.api.calls"),
            catalog_write_retries: counter("catalog.write.retries"),
            audit_records: uc.audit_log().total_recorded(),
            sts_mints: counter("sts.mint.count"),
            sts_verifies: counter("sts.verify.count"),
            cred_cache_hits: cred_hits,
            cred_cache_misses: cred_misses,
        }
    }

    /// Field-wise `self - before`.
    pub fn since(&self, before: &Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            cache_hits: d(self.cache_hits, before.cache_hits),
            cache_misses: d(self.cache_misses, before.cache_misses),
            cache_evictions: d(self.cache_evictions, before.cache_evictions),
            cache_stale_retries: d(self.cache_stale_retries, before.cache_stale_retries),
            cache_gate_waits: d(self.cache_gate_waits, before.cache_gate_waits),
            cache_invalidations: d(self.cache_invalidations, before.cache_invalidations),
            txdb_reads: d(self.txdb_reads, before.txdb_reads),
            txdb_scans: d(self.txdb_scans, before.txdb_scans),
            txdb_commits: d(self.txdb_commits, before.txdb_commits),
            txdb_rows_written: d(self.txdb_rows_written, before.txdb_rows_written),
            txdb_conflicts: d(self.txdb_conflicts, before.txdb_conflicts),
            txdb_pool_wait_ns: d(self.txdb_pool_wait_ns, before.txdb_pool_wait_ns),
            catalog_calls: d(self.catalog_calls, before.catalog_calls),
            catalog_write_retries: d(self.catalog_write_retries, before.catalog_write_retries),
            audit_records: d(self.audit_records, before.audit_records),
            sts_mints: d(self.sts_mints, before.sts_mints),
            sts_verifies: d(self.sts_verifies, before.sts_verifies),
            cred_cache_hits: d(self.cred_cache_hits, before.cred_cache_hits),
            cred_cache_misses: d(self.cred_cache_misses, before.cred_cache_misses),
        }
    }
}

/// `n / ops`, or 0 when no op ran.
pub fn per_op(n: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        n as f64 / ops as f64
    }
}

/// `good / (good + bad)`, or 0 when there was no lookup at all.
pub fn ratio(good: u64, bad: u64) -> f64 {
    per_op(good, good + bad)
}

/// Size of the stores that grow with writes, read once at the end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndGauges {
    pub live_rows: u64,
    pub changelog_len: u64,
}

impl EndGauges {
    pub fn sample(uc: &UnityCatalog) -> EndGauges {
        EndGauges {
            live_rows: uc.db().live_rows() as u64,
            changelog_len: uc.db().changelog().len() as u64,
        }
    }
}

/// The per-layer metrics derived from counter deltas over `ops` ops, as
/// (name, unit, value), in the order `BENCHMARK.json` lists them.
pub fn per_layer(
    d: &Counters,
    ops: u64,
    end: &EndGauges,
) -> Vec<(&'static str, &'static str, f64)> {
    vec![
        (
            "cache.hit_ratio",
            "ratio",
            ratio(d.cache_hits, d.cache_misses),
        ),
        (
            "cache.misses_per_op",
            "count/op",
            per_op(d.cache_misses, ops),
        ),
        (
            "cache.evictions_per_op",
            "count/op",
            per_op(d.cache_evictions, ops),
        ),
        (
            "cache.stale_retries_per_op",
            "count/op",
            per_op(d.cache_stale_retries, ops),
        ),
        (
            "cache.gate_waits_per_op",
            "count/op",
            per_op(d.cache_gate_waits, ops),
        ),
        (
            "cache.invalidations_per_op",
            "count/op",
            per_op(d.cache_invalidations, ops),
        ),
        ("txdb.reads_per_op", "count/op", per_op(d.txdb_reads, ops)),
        ("txdb.scans_per_op", "count/op", per_op(d.txdb_scans, ops)),
        (
            "txdb.commits_per_op",
            "count/op",
            per_op(d.txdb_commits, ops),
        ),
        (
            "txdb.rows_written_per_op",
            "count/op",
            per_op(d.txdb_rows_written, ops),
        ),
        (
            "txdb.conflicts_per_op",
            "count/op",
            per_op(d.txdb_conflicts, ops),
        ),
        (
            "txdb.pool_wait_us_per_op",
            "us/op",
            per_op(d.txdb_pool_wait_ns, ops) / 1e3,
        ),
        ("txdb.live_rows", "count", end.live_rows as f64),
        ("txdb.changelog_len", "count", end.changelog_len as f64),
        (
            "catalog.calls_per_op",
            "count/op",
            per_op(d.catalog_calls, ops),
        ),
        (
            "catalog.write_retries_per_op",
            "count/op",
            per_op(d.catalog_write_retries, ops),
        ),
        (
            "audit.records_per_op",
            "count/op",
            per_op(d.audit_records, ops),
        ),
        ("sts.mints_per_op", "count/op", per_op(d.sts_mints, ops)),
        (
            "sts.verifies_per_op",
            "count/op",
            per_op(d.sts_verifies, ops),
        ),
        (
            "vending.cred_cache_hit_ratio",
            "ratio",
            ratio(d.cred_cache_hits, d.cred_cache_misses),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(rows: &[(&'static str, &'static str, f64)], name: &str) -> f64 {
        rows.iter()
            .find(|(n, _, _)| *n == name)
            .map(|r| r.2)
            .unwrap()
    }

    #[test]
    fn deltas_are_normalised_per_op() {
        let before = Counters {
            cache_hits: 100,
            cache_misses: 10,
            txdb_reads: 5,
            txdb_pool_wait_ns: 1_000,
            ..Default::default()
        };
        let after = Counters {
            cache_hits: 190,
            cache_misses: 20,
            txdb_reads: 35,
            txdb_pool_wait_ns: 5_000,
            ..Default::default()
        };
        let d = after.since(&before);
        assert_eq!((d.cache_hits, d.cache_misses, d.txdb_reads), (90, 10, 30));
        let rows = per_layer(
            &d,
            100,
            &EndGauges {
                live_rows: 7,
                changelog_len: 3,
            },
        );
        assert_eq!(value(&rows, "cache.hit_ratio"), 0.9);
        assert_eq!(value(&rows, "cache.misses_per_op"), 0.1);
        assert_eq!(value(&rows, "txdb.reads_per_op"), 0.3);
        assert_eq!(value(&rows, "txdb.pool_wait_us_per_op"), 0.04);
        assert_eq!(value(&rows, "txdb.live_rows"), 7.0);
        assert_eq!(value(&rows, "txdb.changelog_len"), 3.0);
    }

    #[test]
    fn empty_denominators_read_zero() {
        let rows = per_layer(&Counters::default(), 0, &EndGauges::default());
        assert!(rows.iter().all(|(_, _, v)| *v == 0.0));
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(per_op(3, 0), 0.0);
    }

    #[test]
    fn a_counter_that_went_backwards_does_not_wrap() {
        let before = Counters {
            sts_mints: 9,
            ..Default::default()
        };
        assert_eq!(Counters::default().since(&before).sts_mints, 0);
    }

    #[test]
    fn sample_reads_the_nodes_own_counters() {
        let w = uc_bench::World::build(&uc_bench::WorldConfig::default());
        let before = Counters::sample(&w.uc);
        w.uc.create_catalog(&w.admin(), &w.ms, "c").unwrap();
        let d = Counters::sample(&w.uc).since(&before);
        assert!(d.catalog_calls >= 1);
        assert!(d.txdb_commits >= 1);
        assert!(d.audit_records >= 1);
    }
}
