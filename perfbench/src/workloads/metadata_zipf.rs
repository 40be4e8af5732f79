//! `metadata_zipf`: the metadata plane over a namespace larger than the
//! cache.
//!
//! Two closed-loop clients, each a distinct non-admin principal reading
//! through group grants, run `get_table` on Zipf-distributed keys over a
//! bulk-loaded namespace of 150k tables — more than the cache's default
//! 100k-entity cap — plus a small fixed share of `list_children` on the
//! key's schema. The cache probe, the miss path, LRU eviction and txdb
//! reads and range scans do the work; Delta and the object store idle.

use std::sync::Arc;

use uc_bench::World;
use uc_catalog::authz::Privilege;
use uc_catalog::service::crud::BulkSchemaSpec;
use uc_catalog::service::Context;
use uc_catalog::{Entity, FullName, UcConfig};
use uc_delta::{DataType, Field, Schema};
use uc_workload::randx::{rng_for, Zipf};

use super::{fill_audit, permutation, world, OpWork, Workload};
use crate::check;
use crate::trace::{Layer, Spans};

const CATALOG: &str = "zipf";
const GROUP: &str = "readers";
/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 0.8;
/// Keys checked across nodes at the end of a run.
const SAMPLE_KEYS: usize = 512;
/// LRU eviction batches the warm-up must run through.
const WARM_EVICTION_BATCHES: u64 = 2;

/// Timed-region ops per client per second of `--seconds` budget, in each
/// of the run's three timed regions; a region takes about 0.6 of the
/// budget on a 2-core host.
pub const OPS_PER_BUDGET_SECOND: usize = 25_000;

/// Size of a run.
#[derive(Debug, Clone)]
pub struct Params {
    pub schemas: usize,
    pub tables_per_schema: usize,
    pub clients: usize,
    /// Timed-region ops per client.
    pub ops_per_client: usize,
    /// Every `list_every`-th op of a client lists its key's schema.
    pub list_every: usize,
    /// Warm-up ops per client, run before the audit trail is filled.
    pub warm_ops_per_client: usize,
}

impl Params {
    pub fn for_budget(seconds: u64) -> Params {
        Params {
            schemas: 750,
            tables_per_schema: 200,
            clients: 2,
            ops_per_client: seconds as usize * OPS_PER_BUDGET_SECOND,
            list_every: 500,
            warm_ops_per_client: 100_000,
        }
    }
}

pub struct MetadataZipf {
    world: World,
    ctxs: Vec<Context>,
    /// Qualified name of every table, by table index.
    names: Vec<String>,
    schemas: Vec<FullName>,
    /// Leaf names of any schema's tables, sorted (all schemas hold the
    /// same leaf names).
    leaves: Vec<String>,
    tables_per_schema: usize,
    list_every: usize,
    /// Per-client table indices of the timed region.
    keys: Vec<Vec<u32>>,
    sample: Vec<u32>,
}

impl MetadataZipf {
    pub fn setup(seed: u64, p: &Params) -> Result<MetadataZipf, String> {
        let world = world();
        let admin = world.admin();
        let (uc, ms) = (&world.uc, &world.ms);
        uc.create_catalog(&admin, ms, CATALOG)
            .map_err(|e| format!("create catalog: {e}"))?;
        let leaves: Vec<String> = (0..p.tables_per_schema)
            .map(|t| format!("t{t:03}"))
            .collect();
        let schema_names: Vec<String> = (0..p.schemas).map(|s| format!("s{s:04}")).collect();
        let specs: Vec<BulkSchemaSpec> = schema_names
            .iter()
            .map(|s| BulkSchemaSpec {
                name: s.clone(),
                tables: leaves.clone(),
            })
            .collect();
        let columns = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("v", DataType::Str),
        ]);
        uc.bulk_create_tables(&admin, ms, CATALOG, &specs, &columns, 1_000)
            .map_err(|e| format!("bulk load: {e}"))?;
        let catalog = FullName::of(&[CATALOG]);
        for privilege in [
            Privilege::UseCatalog,
            Privilege::UseSchema,
            Privilege::Select,
        ] {
            uc.grant(&admin, ms, &catalog, "catalog", GROUP, privilege)
                .map_err(|e| format!("grant: {e}"))?;
        }
        let ctxs: Vec<Context> = (0..p.clients)
            .map(|c| {
                let who = format!("reader{c}");
                uc.upsert_principal(&who, &[GROUP])
                    .map(|_| Context::user(&who))
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("principal: {e}"))?;

        let names: Vec<String> = schema_names
            .iter()
            .flat_map(|s| leaves.iter().map(move |t| format!("{CATALOG}.{s}.{t}")))
            .collect();
        let schemas = schema_names
            .iter()
            .map(|s| FullName::of(&[CATALOG, s]))
            .collect();
        // Popularity rank → table: a seeded permutation, so the hot keys
        // spread over schemas instead of crowding the first one.
        let zipf = Zipf::new(names.len(), ZIPF_S);
        let mut rng = rng_for(seed, 2);
        let by_rank = permutation(&mut rng, names.len());
        let draw = |stream: u64, n: usize| -> Vec<u32> {
            let mut rng = rng_for(seed, stream);
            (0..n).map(|_| by_rank[zipf.sample(&mut rng)]).collect()
        };
        let keys = (0..p.clients)
            .map(|c| draw(10 + c as u64, p.ops_per_client))
            .collect();
        let warm: Vec<Vec<u32>> = (0..p.clients)
            .map(|c| draw(20 + c as u64, p.warm_ops_per_client))
            .collect();
        let sample = draw(3, SAMPLE_KEYS);
        let w = MetadataZipf {
            world,
            ctxs,
            names,
            schemas,
            leaves,
            tables_per_schema: p.tables_per_schema,
            list_every: p.list_every,
            keys,
            sample,
        };
        w.warm_up(&warm)?;
        Ok(w)
    }

    /// Run the warm-up key streams on every client concurrently (cache
    /// fill and several LRU eviction batches), then run the audit trail
    /// past its capacity.
    fn warm_up(&self, warm: &[Vec<u32>]) -> Result<(), String> {
        let evictions = &self.world.uc.cache_stats().evictions;
        let evicted_before = evictions.get();
        std::thread::scope(|scope| {
            let handles: Vec<_> = warm
                .iter()
                .enumerate()
                .map(|(c, keys)| {
                    scope.spawn(move || {
                        keys.iter().enumerate().try_for_each(|(i, &k)| {
                            self.read(c, i, k, &mut crate::trace::NoSpans).map(|_| ())
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("warm-up thread panicked"))
        })?;
        // One LRU batch evicts a tenth of the cap.
        let batch = (UcConfig::default().cache.max_entries / 10) as u64;
        let evicted = evictions.get() - evicted_before;
        if self.names.len() > 10 * batch as usize && evicted < WARM_EVICTION_BATCHES * batch {
            return Err(format!("warm-up evicted {evicted} entries, under {WARM_EVICTION_BATCHES} batches of {batch}"));
        }
        fill_audit(
            &self.world,
            &self.ctxs[0],
            &self.names[..self.names.len().min(4_096)],
        )
    }

    fn read<S: Spans>(&self, c: usize, i: usize, k: u32, spans: &mut S) -> Result<OpWork, String> {
        let World { uc, ms, .. } = &self.world;
        let ctx = &self.ctxs[c];
        let k = k as usize;
        if i % self.list_every == self.list_every - 1 {
            let schema = &self.schemas[k / self.tables_per_schema];
            let children: Vec<Arc<Entity>> = spans
                .call(Layer::CatalogList, || {
                    uc.list_children(ctx, ms, schema, Some("relation"))
                })
                .map_err(|e| format!("list {schema}: {e}"))?;
            check::listing(&children, &self.leaves)?;
        } else {
            let name = &self.names[k];
            let ent = spans
                .call(Layer::CatalogGet, || uc.get_table(ctx, ms, name))
                .map_err(|e| format!("get {name}: {e}"))?;
            check::named(&ent, &self.leaves[k % self.tables_per_schema])?;
        }
        Ok(OpWork::default())
    }
}

impl Workload for MetadataZipf {
    fn world(&self) -> &World {
        &self.world
    }

    fn clients(&self) -> usize {
        self.ctxs.len()
    }

    fn ops_per_client(&self) -> usize {
        self.keys[0].len()
    }

    fn op<S: Spans>(&self, c: usize, i: usize, spans: &mut S) -> Result<OpWork, String> {
        self.read(c, i, self.keys[c][i], spans)
    }

    fn sample_keys(&self) -> Vec<(Context, String)> {
        self.sample
            .iter()
            .map(|&k| (self.ctxs[0].clone(), self.names[k as usize].clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{cross_check, measure};

    fn small() -> Params {
        Params {
            schemas: 3,
            tables_per_schema: 10,
            clients: 2,
            ops_per_client: 140,
            list_every: 7,
            warm_ops_per_client: 20,
        }
    }

    #[test]
    fn smoke_run_reads_and_lists_through_the_cache() {
        let w = MetadataZipf::setup(7, &small()).unwrap();
        let arm = measure(&w, true);
        assert_eq!(arm.failed, 0, "{:?}", arm.errors);
        assert_eq!(arm.ops, 280);
        assert!(arm.counters.cache_hits > 0);
        assert_eq!(arm.counters.txdb_commits, 0, "reads never commit");
        assert_eq!(arm.self_time.unwrap().ops_over_tolerance, 0);
        let (keys, mismatches) = cross_check(&w);
        assert_eq!(keys, SAMPLE_KEYS as u64);
        assert!(mismatches.is_empty(), "{mismatches:?}");
    }

    #[test]
    fn a_wrong_name_or_listing_is_rejected() {
        let mut w = MetadataZipf::setup(7, &small()).unwrap();
        w.leaves[0] = "not_a_table".into();
        let arm = measure(&w, false);
        // Every listing and every read of a t000 key now fails.
        assert!(arm.failed >= 2 * (140 / 7) as u64, "{} failed", arm.failed);
    }

    #[test]
    fn keys_follow_the_seed_and_favour_hot_tables() {
        let a = MetadataZipf::setup(5, &small()).unwrap();
        let b = MetadataZipf::setup(5, &small()).unwrap();
        assert_eq!(a.keys, b.keys);
        assert_ne!(a.keys[0], a.keys[1], "clients draw distinct streams");
        let mut counts = vec![0usize; a.names.len()];
        for &k in a.keys.iter().flatten() {
            counts[k as usize] += 1;
        }
        counts.sort_unstable();
        assert!(
            counts[counts.len() - 1] > 4 * counts[counts.len() / 2],
            "zipf skew: {counts:?}"
        );
    }
}
