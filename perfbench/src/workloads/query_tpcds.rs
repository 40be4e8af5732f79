//! `query_tpcds`: the life of a query (Fig 1, Fig 10a).
//!
//! One closed-loop client, a trusted engine principal that reads through
//! group grants (USE CATALOG, USE SCHEMA, SELECT), runs TPC-DS reference
//! sets. Per op: one `resolve_for_query` with credentials for the whole
//! set, then a Delta snapshot and a scan of every table with the token
//! vended for it. The working set (24 tables) fits the metadata cache,
//! so the op exercises resolution, vending, Delta log replay and
//! object-store reads.

use rand::Rng;
use uc_bench::World;
use uc_catalog::authz::Privilege;
use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::Context;
use uc_catalog::FullName;
use uc_cloudstore::{AccessLevel, Credential, StoragePath};
use uc_delta::value::{DataType, Value};
use uc_delta::{DeltaTable, EvalContext, Row, Schema};
use uc_workload::randx::rng_for;
use uc_workload::tpc::{tpcds_queries, tpcds_tables};

use super::{fill_audit, permutation, world, OpWork, Workload};
use crate::check;
use crate::trace::{Layer, Spans};

const CATALOG: &str = "tpcds";
const SCHEMA: &str = "bench";
const ENGINE: &str = "engine_svc";
const GROUP: &str = "analysts";

/// Timed-region queries per second of `--seconds` budget, in each of the
/// run's three timed regions. A 10 s budget runs about 9 s per region on
/// a 2-core host, with 19 queries beyond the p99.
pub const OPS_PER_BUDGET_SECOND: usize = 200;

/// Size of a run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Queries in the timed region, rounded down to whole passes over the
    /// 99 reference sets (at least one).
    pub queries: usize,
    /// Data files per table.
    pub files: usize,
    /// Rows per table (at least `files`), split over its files at seeded
    /// sizes, so the seed moves rows between files but never changes how
    /// much a scan reads.
    pub rows: usize,
}

impl Params {
    pub fn for_budget(seconds: u64) -> Params {
        Params {
            queries: seconds as usize * OPS_PER_BUDGET_SECOND,
            files: 5,
            rows: 200,
        }
    }
}

pub struct QueryTpcds {
    world: World,
    ctx: Context,
    /// Qualified table references of each of the 99 reference sets.
    refs: Vec<Vec<FullName>>,
    /// Leaf names, parallel to `refs`.
    leaves: Vec<Vec<&'static str>>,
    /// What a scan of any table must return.
    rows: usize,
    files: usize,
    /// The timed region's reference-set indices.
    sequence: Vec<u16>,
    tables: Vec<String>,
}

fn fail<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn row(schema: &Schema, i: usize) -> Row {
    schema
        .fields
        .iter()
        .map(|f| match f.data_type {
            DataType::Int => Value::Int(i as i64),
            DataType::Float => Value::Float(i as f64 * 0.5),
            DataType::Str => Value::Str(format!("v{i}")),
            DataType::Bool => Value::Bool(i.is_multiple_of(2)),
        })
        .collect()
}

impl QueryTpcds {
    /// Build the world, load every table's data files through vended
    /// tokens, grant the engine's group read access, and warm up.
    pub fn setup(seed: u64, p: &Params) -> Result<QueryTpcds, String> {
        let world = world();
        let admin = world.admin();
        let uc = &world.uc;
        let ms = &world.ms;
        uc.create_catalog(&admin, ms, CATALOG)
            .map_err(fail("create catalog"))?;
        uc.create_schema(&admin, ms, CATALOG, SCHEMA)
            .map_err(fail("create schema"))?;
        uc.upsert_principal(ENGINE, &[GROUP])
            .map_err(fail("principal"))?;
        let catalog = FullName::of(&[CATALOG]);
        let schema = FullName::of(&[CATALOG, SCHEMA]);
        for (name, group, privilege) in [
            (&catalog, "catalog", Privilege::UseCatalog),
            (&schema, "schema", Privilege::UseSchema),
            (&schema, "schema", Privilege::Select),
        ] {
            uc.grant(&admin, ms, name, group, GROUP, privilege)
                .map_err(fail("grant"))?;
        }

        let mut tables = Vec::new();
        for (ti, t) in tpcds_tables().into_iter().enumerate() {
            let name = format!("{CATALOG}.{SCHEMA}.{}", t.name);
            let spec = TableSpec::managed(&name, t.schema.clone()).map_err(fail("spec"))?;
            let ent = uc
                .create_table(&admin, ms, spec)
                .map_err(fail("create table"))?;
            let rw = uc
                .temp_credentials(
                    &admin,
                    ms,
                    &FullName::parse(&name).map_err(fail("name"))?,
                    "relation",
                    AccessLevel::ReadWrite,
                )
                .map_err(fail("vend"))?;
            let rw = Credential::Temp(rw);
            let path = StoragePath::parse(ent.storage_path.as_deref().unwrap_or_default())
                .map_err(fail("path"))?;
            let table = DeltaTable::create(
                world.store.clone(),
                path,
                &rw,
                ent.id.as_str(),
                t.schema.clone(),
            )
            .map_err(fail("delta create"))?;
            let mut rng = rng_for(seed, 100 + ti as u64);
            // Every file gets one row, the rest land in seeded files.
            let mut sizes = vec![1usize; p.files];
            for _ in p.files..p.rows {
                sizes[rng.gen_range(0..p.files)] += 1;
            }
            let mut next = rng.gen_range(0..1_000_000);
            for n in sizes {
                let batch: Vec<Row> = (next..next + n).map(|i| row(&t.schema, i)).collect();
                table.append(&rw, &batch).map_err(fail("append"))?;
                next += n;
            }
            tables.push(name);
        }

        let queries = tpcds_queries();
        let refs = queries
            .iter()
            .map(|q| {
                q.tables
                    .iter()
                    .map(|t| FullName::of(&[CATALOG, SCHEMA, t]))
                    .collect()
            })
            .collect();
        let leaves = queries.iter().map(|q| q.tables.clone()).collect();
        // Whole passes over the 99 reference sets, each in a seeded order:
        // every seed runs the same mix of queries.
        let mut rng = rng_for(seed, 1);
        let passes = (p.queries / queries.len()).max(1);
        let sequence = (0..passes)
            .flat_map(|_| permutation(&mut rng, queries.len()))
            .map(|q| q as u16)
            .collect();
        let w = QueryTpcds {
            world,
            ctx: Context::trusted(ENGINE, "dbr"),
            refs,
            leaves,
            rows: p.rows,
            files: p.files,
            sequence,
            tables,
        };
        w.warm_up()?;
        Ok(w)
    }

    /// Run every reference set once (caches every chain and fills the
    /// credential cache), then run the audit trail past its capacity.
    fn warm_up(&self) -> Result<(), String> {
        for q in 0..self.refs.len() {
            self.query(q, &mut crate::trace::NoSpans)?;
        }
        fill_audit(&self.world, &self.ctx, &self.tables)
    }

    fn query<S: Spans>(&self, q: usize, spans: &mut S) -> Result<OpWork, String> {
        let World { uc, store, ms, .. } = &self.world;
        let resolved = spans
            .call(Layer::CatalogResolve, || {
                uc.resolve_for_query(&self.ctx, ms, &self.refs[q], true)
            })
            .map_err(fail("resolve"))?;
        if resolved.len() != self.refs[q].len() {
            return Err(format!(
                "resolved {} of {} tables",
                resolved.len(),
                self.refs[q].len()
            ));
        }
        let mut work = OpWork::default();
        for (r, leaf) in resolved.iter().zip(&self.leaves[q]) {
            check::named(&r.entity, leaf)?;
            let token = r
                .read_credential
                .clone()
                .ok_or_else(|| format!("{leaf}: no credential vended"))?;
            let cred = Credential::Temp(token);
            let path = StoragePath::parse(r.entity.storage_path.as_deref().unwrap_or_default())
                .map_err(fail("path"))?;
            let table = DeltaTable::open(store.clone(), path);
            let snap = spans
                .call(Layer::DeltaSnapshot, || table.snapshot(&cred))
                .map_err(fail("snapshot"))?;
            let (rows, files) = spans
                .call(Layer::DeltaScan, || {
                    table.scan_snapshot(&cred, &snap, None, &EvalContext::anonymous())
                })
                .map_err(fail("scan"))?;
            check::scan(leaf, rows.len(), files, self.rows, self.files)?;
            work.scans += 1;
            work.files += files as u64;
        }
        Ok(work)
    }
}

impl Workload for QueryTpcds {
    fn world(&self) -> &World {
        &self.world
    }

    fn clients(&self) -> usize {
        1
    }

    fn ops_per_client(&self) -> usize {
        self.sequence.len()
    }

    fn op<S: Spans>(&self, _c: usize, i: usize, spans: &mut S) -> Result<OpWork, String> {
        self.query(self.sequence[i] as usize, spans)
    }

    fn sample_keys(&self) -> Vec<(Context, String)> {
        self.tables
            .iter()
            .map(|t| (self.ctx.clone(), t.clone()))
            .collect()
    }

    fn spans_per_op(&self) -> usize {
        16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{cross_check, measure};

    fn small() -> Params {
        Params {
            queries: 40,
            files: 3,
            rows: 12,
        }
    }

    #[test]
    fn smoke_run_resolves_vends_and_scans_from_cache() {
        let w = QueryTpcds::setup(7, &small()).unwrap();
        let arm = measure(&w, true);
        assert_eq!(arm.failed, 0, "{:?}", arm.errors);
        assert!(
            arm.work.scans >= 3 * arm.ops,
            "every reference set has at least three tables"
        );
        assert_eq!(
            arm.counters.txdb_reads + arm.counters.txdb_scans,
            0,
            "warm resolve must not touch txdb"
        );
        assert_eq!(
            arm.counters.sts_mints, 0,
            "warm vending must hit the credential cache"
        );
        assert!(arm.counters.sts_verifies > 0);
        let st = arm.self_time.unwrap();
        assert_eq!(st.ops_over_tolerance, 0);
        assert!(
            st.module_ns.iter().all(|&ns| ns > 0),
            "every module is charged: {:?}",
            st.module_ns
        );
        let (keys, mismatches) = cross_check(&w);
        assert_eq!(keys, 24);
        assert!(mismatches.is_empty(), "{mismatches:?}");
    }

    #[test]
    fn a_wrong_row_count_fails_every_op() {
        let mut w = QueryTpcds::setup(7, &small()).unwrap();
        w.rows += 1;
        let arm = measure(&w, false);
        assert_eq!(arm.failed, arm.ops);
    }

    #[test]
    fn the_seed_fixes_the_query_sequence() {
        let a = QueryTpcds::setup(3, &small()).unwrap();
        let b = QueryTpcds::setup(3, &small()).unwrap();
        let c = QueryTpcds::setup(4, &small()).unwrap();
        assert_eq!(a.sequence, b.sequence);
        assert_ne!(a.sequence, c.sequence);
    }
}
