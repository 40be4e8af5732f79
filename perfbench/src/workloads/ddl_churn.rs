//! `ddl_churn`: the catalog-owned write path beside the same cache and
//! txdb.
//!
//! One closed-loop client, a non-admin principal with CREATE TABLE
//! through a group grant, runs DDL cycles on top of a resident
//! namespace. One op is one cycle: `create_table`, `grant`, a
//! catalog-owned `commit_table`, and a read-your-write `get_table`;
//! every third cycle then drops the table and reads it again, expecting
//! NotFound. (With every second cycle dropping, the op latency is two
//! equal modes and its median jumps between them from run to run.) OCC
//! commits, tree-keyspace upserts, cache write-through and invalidation,
//! and audit do the work.

use bytes::Bytes;
use rand::Rng;
use uc_bench::World;
use uc_catalog::authz::Privilege;
use uc_catalog::service::crud::{BulkSchemaSpec, TableSpec};
use uc_catalog::service::Context;
use uc_catalog::FullName;
use uc_delta::actions::{encode_commit, Action, AddFile, CommitInfo};
use uc_delta::{DataType, Field, Schema};
use uc_workload::randx::rng_for;

use super::{fill_audit, world, OpWork, Workload};
use crate::check;
use crate::trace::{Layer, Spans};

const CATALOG: &str = "churn";
const WRITER: &str = "etl_svc";
const WRITERS: &str = "writers";
const READERS: &str = "analysts";
/// Created and resident keys checked across nodes at the end of a run.
const SAMPLE_KEYS: usize = 512;
const SAMPLE_RESIDENT: usize = 64;
/// Every `DROP_EVERY`-th cycle drops its table.
const DROP_EVERY: usize = 3;

/// Timed-region cycles per second of `--seconds` budget, in each of the
/// run's three timed regions. Every cycle grows the store for good (about
/// 13 KB of resident memory), so a region stays near 400 MB of growth.
pub const OPS_PER_BUDGET_SECOND: usize = 3_000;

/// Size of a run.
#[derive(Debug, Clone)]
pub struct Params {
    pub schemas: usize,
    /// Resident tables per schema, bulk-loaded before the churn.
    pub resident_per_schema: usize,
    /// Timed-region cycles.
    pub cycles: usize,
    /// Warm-up cycles, run before the audit trail is filled.
    pub warm_cycles: usize,
}

impl Params {
    pub fn for_budget(seconds: u64) -> Params {
        Params {
            schemas: 32,
            resident_per_schema: 500,
            cycles: seconds as usize * OPS_PER_BUDGET_SECOND,
            warm_cycles: 2_000,
        }
    }
}

/// One cycle's inputs, precomputed.
struct Cycle {
    spec: TableSpec,
    name: String,
    leaf: String,
    drop: bool,
}

pub struct DdlChurn {
    world: World,
    ctx: Context,
    cycles: Vec<Cycle>,
    payload: Bytes,
    sample: Vec<String>,
}

impl DdlChurn {
    pub fn setup(seed: u64, p: &Params) -> Result<DdlChurn, String> {
        let world = world();
        let admin = world.admin();
        let (uc, ms) = (&world.uc, &world.ms);
        uc.create_catalog(&admin, ms, CATALOG)
            .map_err(|e| format!("create catalog: {e}"))?;
        let schemas: Vec<String> = (0..p.schemas).map(|s| format!("s{s:02}")).collect();
        let specs: Vec<BulkSchemaSpec> = schemas
            .iter()
            .map(|s| BulkSchemaSpec {
                name: s.clone(),
                tables: (0..p.resident_per_schema)
                    .map(|t| format!("r{t:04}"))
                    .collect(),
            })
            .collect();
        let columns = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("amount", DataType::Float),
        ]);
        uc.bulk_create_tables(&admin, ms, CATALOG, &specs, &columns, 1_000)
            .map_err(|e| format!("bulk load: {e}"))?;
        let catalog = FullName::of(&[CATALOG]);
        for privilege in [
            Privilege::UseCatalog,
            Privilege::UseSchema,
            Privilege::CreateTable,
        ] {
            uc.grant(&admin, ms, &catalog, "catalog", WRITERS, privilege)
                .map_err(|e| format!("grant: {e}"))?;
        }
        uc.upsert_principal(WRITER, &[WRITERS])
            .map_err(|e| format!("principal: {e}"))?;

        let mut rng = rng_for(seed, 4);
        let mut cycle = |tag: &str, i: usize| -> Result<Cycle, String> {
            let schema = &schemas[rng.gen_range(0..schemas.len())];
            let leaf = format!("{tag}{i:06}");
            let name = format!("{CATALOG}.{schema}.{leaf}");
            let spec =
                TableSpec::managed(&name, columns.clone()).map_err(|e| format!("spec: {e}"))?;
            Ok(Cycle {
                spec,
                name,
                leaf,
                drop: i % DROP_EVERY == DROP_EVERY - 1,
            })
        };
        let warm: Vec<Cycle> = (0..p.warm_cycles)
            .map(|i| cycle("w", i))
            .collect::<Result<_, _>>()?;
        let cycles: Vec<Cycle> = (0..p.cycles)
            .map(|i| cycle("c", i))
            .collect::<Result<_, _>>()?;
        let payload = encode_commit(&[
            Action::Add(AddFile {
                path: "part-00000.json".into(),
                size_bytes: 4_096,
                num_records: 100,
                stats: Default::default(),
                modification_time_ms: 0,
            }),
            Action::CommitInfo(CommitInfo {
                operation: "WRITE".into(),
                principal: Some(WRITER.into()),
                engine: None,
                timestamp_ms: 0,
            }),
        ]);
        let resident: Vec<String> = specs
            .iter()
            .flat_map(|s| {
                s.tables
                    .iter()
                    .map(move |t| format!("{CATALOG}.{}.{t}", s.name))
            })
            .collect();
        // Created tables (dropped ones included) and resident ones.
        let mut rng = rng_for(seed, 5);
        let mut sample: Vec<String> = (0..SAMPLE_KEYS)
            .map(|_| cycles[rng.gen_range(0..cycles.len())].name.clone())
            .collect();
        sample.extend(
            (0..SAMPLE_RESIDENT).map(|_| resident[rng.gen_range(0..resident.len())].clone()),
        );
        let w = DdlChurn {
            world,
            ctx: Context::user(WRITER),
            cycles,
            payload,
            sample,
        };
        for c in &warm {
            w.cycle(c, &mut crate::trace::NoSpans)?;
        }
        fill_audit(&w.world, &w.ctx, &resident)?;
        Ok(w)
    }

    fn cycle<S: Spans>(&self, c: &Cycle, spans: &mut S) -> Result<OpWork, String> {
        let World { uc, ms, .. } = &self.world;
        let ctx = &self.ctx;
        let fail =
            |what: &'static str| move |e: uc_catalog::UcError| format!("{what} {}: {e}", c.name);
        let created = spans
            .call(Layer::CatalogCreate, || {
                uc.create_table(ctx, ms, c.spec.clone())
            })
            .map_err(fail("create"))?;
        check::named(&created, &c.leaf)?;
        spans
            .call(Layer::CatalogGrant, || {
                uc.grant(
                    ctx,
                    ms,
                    &c.spec.name,
                    "relation",
                    READERS,
                    Privilege::Select,
                )
            })
            .map_err(fail("grant"))?;
        spans
            .call(Layer::CatalogCommit, || {
                uc.commit_table(ctx, ms, &created.id, 0, self.payload.clone())
            })
            .map_err(fail("commit"))?;
        let got = spans
            .call(Layer::CatalogGet, || uc.get_table(ctx, ms, &c.name))
            .map_err(fail("read back"))?;
        check::named(&got, &c.leaf)?;
        if got.id != created.id || got.commit_version() != 0 {
            return Err(format!(
                "{}: read back id/version {}/{}",
                c.name,
                got.id,
                got.commit_version()
            ));
        }
        if !got
            .grants
            .iter()
            .any(|(who, p)| who == READERS && *p == Privilege::Select)
        {
            return Err(format!("{}: grant not visible to its writer", c.name));
        }
        if c.drop {
            spans
                .call(Layer::CatalogDrop, || {
                    uc.drop_securable(ctx, ms, &c.spec.name, "relation")
                })
                .map_err(fail("drop"))?;
            let gone = spans.call(Layer::CatalogGet, || uc.get_table(ctx, ms, &c.name));
            check::not_found(&gone, &c.name)?;
        }
        Ok(OpWork::default())
    }
}

impl Workload for DdlChurn {
    fn world(&self) -> &World {
        &self.world
    }

    fn clients(&self) -> usize {
        1
    }

    fn ops_per_client(&self) -> usize {
        self.cycles.len()
    }

    fn op<S: Spans>(&self, _c: usize, i: usize, spans: &mut S) -> Result<OpWork, String> {
        self.cycle(&self.cycles[i], spans)
    }

    fn sample_keys(&self) -> Vec<(Context, String)> {
        self.sample
            .iter()
            .map(|k| (self.ctx.clone(), k.clone()))
            .collect()
    }

    fn spans_per_op(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{cross_check, measure};

    fn small() -> Params {
        Params {
            schemas: 2,
            resident_per_schema: 5,
            cycles: 20,
            warm_cycles: 4,
        }
    }

    #[test]
    fn smoke_run_commits_reads_back_and_drops() {
        let w = DdlChurn::setup(7, &small()).unwrap();
        let arm = measure(&w, true);
        assert_eq!(arm.failed, 0, "{:?}", arm.errors);
        assert!(
            arm.counters.txdb_commits > arm.ops,
            "create, grant and commit each commit"
        );
        assert_eq!(arm.self_time.unwrap().ops_over_tolerance, 0);
        let (keys, mismatches) = cross_check(&w);
        assert_eq!(keys, (SAMPLE_KEYS + SAMPLE_RESIDENT) as u64);
        assert!(mismatches.is_empty(), "{mismatches:?}");
    }

    #[test]
    fn replaying_the_cycles_fails_on_the_tables_left_behind() {
        let w = DdlChurn::setup(7, &small()).unwrap();
        assert_eq!(measure(&w, false).failed, 0);
        // The undropped tables still exist; creating them again must fail.
        assert!(measure(&w, false).failed >= 13);
    }
}
