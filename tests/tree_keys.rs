//! Property-test corpus for the order-preserving tree key codec
//! (DESIGN.md §11) plus the single-range-scan acceptance assertions:
//! listing children, cascading a subtree drop, and resolving a qualified
//! name (the chain privilege inheritance evaluates over) must each cost
//! exactly one range scan over the tree-encoded keyspace, and the tree is
//! the only name index an entity write maintains.

use proptest::prelude::*;

use uc_bench::{World, WorldConfig};
use uc_catalog::model::{keys, treekey};
use uc_catalog::service::crud::{BulkSchemaSpec, TableSpec};
use uc_catalog::service::Context;
use uc_catalog::types::FullName;
use uc_delta::value::{DataType, Field, Schema};

// ---------------------------------------------------------------------
// 1. Codec properties over an adversarial segment alphabet
// ---------------------------------------------------------------------

/// Segments drawn to stress every framing hazard: empty strings, the
/// terminator/escape bytes themselves, the legacy index separators
/// (`|`, `.`, `/`), multi-byte unicode, and the classic sibling-prefix
/// pairs.
fn arb_segment() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[a-d]{1,4}",
        "[\u{0}-\u{3}]{1,3}",
        "[a-c|./: ]{1,5}",
        "[α-ε]{1,3}",
        Just("t1".to_string()),
        Just("t10".to_string()),
        Just("ware".to_string()),
        Just("warehouse".to_string()),
    ]
}

fn arb_path() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(arb_segment(), 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Round trip: decode ∘ encode is the identity for arbitrary segment
    /// vectors — nothing about the content can confuse the framing.
    #[test]
    fn encode_decode_round_trips(path in arb_path()) {
        let key = treekey::encode(&path);
        prop_assert_eq!(treekey::decode(&key), Some(path));
    }

    /// Order preservation: byte order of encoded keys equals the
    /// lexicographic order of the segment vectors. This is the property
    /// that makes "all descendants of a node" one contiguous key range.
    #[test]
    fn key_order_equals_path_order(a in arb_path(), b in arb_path()) {
        let (ka, kb) = (treekey::encode(&a), treekey::encode(&b));
        prop_assert_eq!(
            ka.cmp(&kb),
            a.cmp(&b),
            "key order diverged from path order for {:?} vs {:?}",
            a,
            b
        );
    }

    /// Prefix containment: a parent's key is a string prefix of every
    /// descendant's key, and depth counts segments without decoding.
    #[test]
    fn parent_prefixes_descendants(base in arb_path(), ext in arb_segment()) {
        let parent = treekey::encode(&base);
        let mut extended = base.clone();
        extended.push(ext);
        let child = treekey::encode(&extended);
        prop_assert!(child.starts_with(&parent));
        prop_assert_eq!(treekey::depth(&parent), base.len());
        prop_assert_eq!(treekey::depth(&child), base.len() + 1);
        // The ancestor chain of the child ends with [parent, child].
        let chain: Vec<&str> = treekey::chain_prefixes(&child).collect();
        prop_assert_eq!(chain.len(), extended.len());
        if !base.is_empty() {
            prop_assert_eq!(chain[base.len() - 1], parent.as_str());
        }
    }
}

// ---------------------------------------------------------------------
// 2. Sibling-prefix traps pinned as explicit regressions
// ---------------------------------------------------------------------

/// `t1` vs `t10`: under the raw flat scheme a prefix scan for `t1`'s
/// subtree would swallow `t10`. The terminator framing keeps them
/// siblings while still placing `t1`'s real descendants inside its range.
#[test]
fn regression_t1_vs_t10_are_siblings() {
    let t1 = treekey::encode(&["ms", "s", "t1"]);
    let t10 = treekey::encode(&["ms", "s", "t10"]);
    assert!(!t10.starts_with(&t1), "t10 must not sit inside t1's key range");
    assert!(t1 < t10, "shorter sibling sorts first");
    let t1_child = treekey::encode(&["ms", "s", "t1", "part"]);
    assert!(t1_child.starts_with(&t1));
    assert!(t1_child < t10, "t1's subtree sits wholly before t10");
}

/// `ware` vs `warehouse`: the storage-path analogue of the same trap.
#[test]
fn regression_ware_vs_warehouse_are_siblings() {
    let ware = treekey::encode(&["ms", "ware"]);
    let warehouse = treekey::encode(&["ms", "warehouse"]);
    assert!(!warehouse.starts_with(&ware));
    assert!(ware < warehouse);
    let under_ware = treekey::encode(&["ms", "ware", "x"]);
    assert!(under_ware.starts_with(&ware));
    assert!(under_ware < warehouse, "ware's subtree ends before warehouse begins");
}

// ---------------------------------------------------------------------
// 3. Single-range-scan acceptance assertions (service level, DbStats)
// ---------------------------------------------------------------------

fn seeded_world(tables: &[&str]) -> (World, Context) {
    let world = World::build(&WorldConfig::default());
    let ctx = world.admin();
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    for t in tables {
        world
            .uc
            .create_table(
                &ctx,
                &world.ms,
                TableSpec::managed(&format!("main.s.{t}"), schema.clone()).unwrap(),
            )
            .unwrap();
    }
    (world, ctx)
}

/// Listing the children of a schema costs exactly one range scan of the
/// tree index — no per-child point reads, regardless of sibling names
/// that are string prefixes of each other.
#[test]
fn list_children_is_one_range_scan() {
    let (world, ctx) = seeded_world(&["t1", "t10", "ware", "warehouse"]);
    let parent = FullName::parse("main.s").unwrap();
    // Warm the cache so parent resolution is served from memory and the
    // measured delta isolates the listing itself.
    world.uc.list_children(&ctx, &world.ms, &parent, Some("relation")).unwrap();
    let scans0 = world.db.stats().scans();
    let listed = world.uc.list_children(&ctx, &world.ms, &parent, Some("relation")).unwrap();
    let mut names: Vec<&str> = listed.iter().map(|e| e.name.as_str()).collect();
    names.sort_unstable();
    assert_eq!(names, vec!["t1", "t10", "ware", "warehouse"]);
    assert_eq!(
        world.db.stats().scans() - scans0,
        1,
        "listing must be a single range scan of the tree index"
    );
}

/// Listing catalogs is one child-only scan of the metastore's catalog
/// group: the scan skips each catalog's subtree, so the keys it steps over
/// do not grow with the number of tables under the catalogs.
#[test]
fn list_catalogs_is_one_scan_independent_of_tables() {
    let world = World::build(&WorldConfig::default());
    let ctx = world.admin();
    let columns = Schema::new(vec![Field::new("x", DataType::Int)]);
    let mut visited = Vec::new();
    for (round, tables) in [0usize, 50, 500].into_iter().enumerate() {
        let catalog = format!("c{round}");
        world.uc.create_catalog(&ctx, &world.ms, &catalog).unwrap();
        let specs = [BulkSchemaSpec {
            name: "s".into(),
            tables: (0..tables).map(|t| format!("t{t}")).collect(),
        }];
        world.uc.bulk_create_tables(&ctx, &world.ms, &catalog, &specs, &columns, 100).unwrap();
        let (scans0, rows0) = (world.db.stats().scans(), world.db.stats().scan_rows());
        let listed = world.uc.list_catalogs(&ctx, &world.ms).unwrap();
        assert_eq!(listed.len(), round + 1);
        assert_eq!(world.db.stats().scans() - scans0, 1, "listing must be a single scan");
        visited.push(world.db.stats().scan_rows() - rows0);
    }
    assert_eq!(visited, [1, 2, 3], "one key per catalog, however many tables lie below");
}

/// One `create_table` writes two entity-bearing rows — the `T_ENTITY`
/// home and the byte-identical `T_TREE` name-index row — plus its path
/// registration and the metastore version: no name→id pointer row.
#[test]
fn create_table_writes_no_name_pointer_row() {
    let (world, ctx) = seeded_world(&[]);
    let (csn0, writes0) = (world.db.current_csn(), world.db.stats().writes());
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    world
        .uc
        .create_table(&ctx, &world.ms, TableSpec::managed("main.s.t", schema).unwrap())
        .unwrap();
    assert_eq!(world.db.stats().writes() - writes0, 4);
    let changes = world.db.changelog().changes_since(csn0);
    let mut tables: Vec<&str> = changes.iter().map(|c| c.table.as_str()).collect();
    tables.sort_unstable();
    assert_eq!(tables, [keys::T_ENTITY, keys::T_MSVER, keys::T_PATH, keys::T_TREE]);
    let value_in = |table: &str| changes.iter().find(|c| c.table == table).and_then(|c| c.value.clone());
    assert_eq!(value_in(keys::T_ENTITY), value_in(keys::T_TREE), "tree row carries the entity row");
}

/// Dropping a schema cascades to every descendant in one range scan of
/// the subtree's key range — the scan returns full entity rows, so no
/// recursive name-index walk and no per-child reads.
#[test]
fn subtree_drop_is_one_range_scan() {
    let (world, ctx) = seeded_world(&["t1", "t10", "t2"]);
    let schema_name = FullName::parse("main.s").unwrap();
    // Warm name resolution for the drop target.
    world.uc.get_securable(&ctx, &world.ms, &schema_name, "schema").unwrap();
    let scans0 = world.db.stats().scans();
    let dropped = world.uc.drop_securable(&ctx, &world.ms, &schema_name, "schema").unwrap();
    assert_eq!(dropped, 4, "schema + three tables");
    assert_eq!(
        world.db.stats().scans() - scans0,
        1,
        "cascade must be a single range scan of the subtree"
    );
    // And nothing under the schema resolves afterwards.
    assert!(world.uc.get_table(&ctx, &world.ms, "main.s.t1").is_err());
    assert!(world.uc.get_table(&ctx, &world.ms, "main.s.t10").is_err());
}

/// The bulk namespace import creates schemas and tables in chunked
/// transactions, is idempotent on re-run, and everything it loads is
/// visible through the ordinary tree-scan listing path.
#[test]
fn bulk_import_populates_and_converges() {
    let world = World::build(&WorldConfig::default());
    let ctx = world.admin();
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    let specs: Vec<BulkSchemaSpec> = (0..3)
        .map(|s| BulkSchemaSpec {
            name: format!("bulk_{s}"),
            tables: (0..10).map(|t| format!("t{t}")).collect(),
        })
        .collect();
    // Chunk smaller than a schema's table list so every schema spans
    // multiple commits.
    let created = world
        .uc
        .bulk_create_tables(&ctx, &world.ms, "main", &specs, &schema, 4)
        .unwrap();
    assert_eq!(created, 3 + 30, "3 schemas + 30 tables");
    // Idempotent: a resumed import creates nothing new.
    let again = world
        .uc
        .bulk_create_tables(&ctx, &world.ms, "main", &specs, &schema, 4)
        .unwrap();
    assert_eq!(again, 0, "re-run must skip every existing row");
    // Loaded rows serve through the normal read paths.
    for s in 0..3 {
        let parent = FullName::parse(&format!("main.bulk_{s}")).unwrap();
        let listed = world
            .uc
            .list_children(&ctx, &world.ms, &parent, Some("relation"))
            .unwrap();
        assert_eq!(listed.len(), 10);
        let got = world
            .uc
            .get_table(&ctx, &world.ms, &format!("main.bulk_{s}.t7"))
            .unwrap();
        assert_eq!(got.name, "t7");
    }
    // And a bulk-loaded subtree still cascades as one range scan.
    let dropped = world
        .uc
        .drop_securable(&ctx, &world.ms, &FullName::parse("main.bulk_1").unwrap(), "schema")
        .unwrap();
    assert_eq!(dropped, 11, "schema + ten tables");
}

/// Bulk import is a metastore-admin capability: ordinary principals are
/// refused before any write happens.
#[test]
fn bulk_import_requires_metastore_admin() {
    let world = World::build(&WorldConfig::default());
    let ctx = world.admin();
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    let specs = [BulkSchemaSpec { name: "s".into(), tables: vec!["t".into()] }];
    let intruder = Context::user("mallory");
    let err = world
        .uc
        .bulk_create_tables(&intruder, &world.ms, "main", &specs, &schema, 8)
        .unwrap_err();
    assert!(
        format!("{err}").contains("metastore admin"),
        "expected a permission error, got: {err}"
    );
}

/// Resolving a qualified name against the database costs one chain scan
/// over the tree index: the ancestor chain — which the privilege
/// inheritance walk evaluates over — comes back from that single scan,
/// not from per-level point reads.
#[test]
fn uncached_name_resolution_is_one_range_scan() {
    let world = World::build(&WorldConfig { cache: false, ..Default::default() });
    let ctx = world.admin();
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    world
        .uc
        .create_table(&ctx, &world.ms, TableSpec::managed("main.s.t", schema).unwrap())
        .unwrap();
    let scans0 = world.db.stats().scans();
    let got = world.uc.get_table(&ctx, &world.ms, "main.s.t").unwrap();
    assert_eq!(got.name, "t");
    assert_eq!(
        world.db.stats().scans() - scans0,
        1,
        "metastore.catalog.schema.table must resolve via one chain scan"
    );
}
