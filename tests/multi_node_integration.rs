//! Multi-node behaviour: sharding, dual ownership, conflict storms, and
//! cache coherence under node churn — the no-consensus design of §4.5.

use std::sync::Arc;

use uc_bench::{World, WorldConfig, ADMIN};
use uc_catalog::service::crud::TableSpec;
use uc_catalog::service::{Context, UcConfig, UnityCatalog};
use uc_catalog::sharding::ShardRouter;
use uc_catalog::types::FullName;
use uc_delta::value::{DataType, Field, Schema};

fn schema() -> Schema {
    Schema::new(vec![Field::new("id", DataType::Int)])
}

fn spawn_node(world: &World, id: &str) -> Arc<UnityCatalog> {
    UnityCatalog::new(world.db.clone(), world.store.clone(), UcConfig::default(), id)
}

#[test]
fn writes_race_across_nodes_without_corruption() {
    // Two nodes both "own" the metastore (split-brain) and hammer writes.
    // The metastore-version conditioning must serialize everything: every
    // created table exists exactly once, no name is double-assigned.
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let node_b = spawn_node(&world, "node-b");

    let mk = |node: Arc<UnityCatalog>, ms: uc_catalog::ids::Uid, start: usize| {
        std::thread::spawn(move || {
            let ctx = Context::user(ADMIN);
            for i in start..start + 20 {
                node.create_table(
                    &ctx,
                    &ms,
                    TableSpec::managed(&format!("main.s.t{i}"), schema()).unwrap(),
                )
                .unwrap();
            }
        })
    };
    let h1 = mk(world.uc.clone(), world.ms.clone(), 0);
    let h2 = mk(node_b.clone(), world.ms.clone(), 20);
    h1.join().unwrap();
    h2.join().unwrap();

    // both nodes agree on the full table set
    for node in [&world.uc, &node_b] {
        node.reconcile_metastore(&world.ms);
        let kids = node
            .list_children(&ctx, &world.ms, &FullName::parse("main.s").unwrap(), None)
            .unwrap();
        assert_eq!(kids.len(), 40, "node {} sees all tables", node.node_id());
    }
}

#[test]
fn same_name_created_on_both_nodes_yields_exactly_one_winner() {
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let node_b = spawn_node(&world, "node-b");

    let mut wins = 0;
    let mut losses = 0;
    for i in 0..10 {
        let name = format!("main.s.contested{i}");
        let a = world.uc.create_table(&ctx, &world.ms, TableSpec::managed(&name, schema()).unwrap());
        let b = node_b.create_table(&ctx, &world.ms, TableSpec::managed(&name, schema()).unwrap());
        match (a.is_ok(), b.is_ok()) {
            (true, false) | (false, true) => {
                wins += 1;
                losses += 1;
            }
            other => panic!("expected exactly one winner, got {other:?}"),
        }
    }
    assert_eq!((wins, losses), (10, 10));
}

#[test]
fn conflict_storm_on_one_entity_retries_to_completion() {
    // Many threads on two nodes update the same catalog's comment: the
    // write path retries serialization conflicts internally; every update
    // must eventually land.
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    let node_b = spawn_node(&world, "node-b");
    let threads = 6;
    let per_thread = 10;
    let mut handles = Vec::new();
    for t in 0..threads {
        let node = if t % 2 == 0 { world.uc.clone() } else { node_b.clone() };
        let ms = world.ms.clone();
        handles.push(std::thread::spawn(move || {
            let ctx = Context::user(ADMIN);
            for i in 0..per_thread {
                node.update_comment(
                    &ctx,
                    &ms,
                    &FullName::parse("main").unwrap(),
                    "catalog",
                    &format!("t{t}-i{i}"),
                )
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Every update succeeded (retry loops absorbed any serialization
    // conflicts — on multi-core hosts `write_retries` is typically > 0),
    // and both nodes converge on the same final value.
    world.uc.reconcile_metastore(&world.ms);
    node_b.reconcile_metastore(&world.ms);
    let read = |node: &Arc<UnityCatalog>| {
        node.get_securable(&ctx, &world.ms, &FullName::parse("main").unwrap(), "catalog")
            .unwrap()
            .comment
            .clone()
            .unwrap()
    };
    let final_a = read(&world.uc);
    let final_b = read(&node_b);
    assert!(final_a.starts_with('t'));
    assert_eq!(final_a, final_b, "both nodes converge after reconciliation");
}

#[test]
fn router_rebalances_on_node_loss_and_service_continues() {
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    let node_b = spawn_node(&world, "node-b");
    let node_c = spawn_node(&world, "node-c");

    let mut router = ShardRouter::new(vec![world.uc.clone(), node_b.clone(), node_c.clone()]);
    let before = router.node_for(&world.ms).node_id().to_string();

    // route through the assigned node
    router
        .node_for(&world.ms)
        .create_schema(&ctx, &world.ms, "main", "s1")
        .unwrap();

    // the assigned node "dies"
    router.remove_node(&before);
    let after = router.node_for(&world.ms).node_id().to_string();
    assert_ne!(before, after);

    // the replacement node serves reads (cold cache → DB) and writes
    let node = router.node_for(&world.ms);
    let kids = node
        .list_children(&ctx, &world.ms, &FullName::parse("main").unwrap(), None)
        .unwrap();
    assert_eq!(kids.len(), 1);
    node.create_schema(&ctx, &world.ms, "main", "s2").unwrap();
    assert_eq!(
        node.list_children(&ctx, &world.ms, &FullName::parse("main").unwrap(), None)
            .unwrap()
            .len(),
        2
    );
}

#[test]
fn cold_node_bootstraps_cache_from_db_reads() {
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    for i in 0..10 {
        world
            .uc
            .create_table(&ctx, &world.ms, TableSpec::managed(&format!("main.s.t{i}"), schema()).unwrap())
            .unwrap();
    }
    let cold = spawn_node(&world, "node-cold");
    // first pass misses, second pass hits
    for _ in 0..2 {
        for i in 0..10 {
            cold.get_table(&ctx, &world.ms, &format!("main.s.t{i}")).unwrap();
        }
    }
    let hits = cold.cache_stats().hits.load(std::sync::atomic::Ordering::Relaxed);
    let misses = cold.cache_stats().misses.load(std::sync::atomic::Ordering::Relaxed);
    assert!(hits > 0, "second pass must hit");
    assert!(misses > 0, "first pass must miss");
}

/// Name-group listings are read at one metastore version. Node A warms
/// its cache with a listing; node B then updates one member and creates
/// another. Node A's next listing must show both changes or neither:
/// mixing a cached (old) member with a freshly read (new) one yields a
/// listing that no metastore version ever held.
#[test]
fn composite_listings_reflect_one_metastore_version() {
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    let node_a = &world.uc;
    node_a.create_catalog(&ctx, &world.ms, "c").unwrap();
    node_a.create_share(&ctx, &world.ms, "sh").unwrap();
    let node_b = spawn_node(&world, "node-b");

    let names = |ents: &[Arc<uc_catalog::Entity>]| -> Vec<String> {
        ents.iter().map(|e| e.name.clone()).collect()
    };
    assert_eq!(names(&node_a.list_catalogs(&ctx, &world.ms).unwrap()), ["c"]);
    assert_eq!(names(&node_a.list_shares(&ctx, &world.ms).unwrap()), ["sh"]);

    for (name, group) in [("c", "catalog"), ("sh", "share")] {
        node_b
            .update_comment(&ctx, &world.ms, &FullName::parse(name).unwrap(), group, "new")
            .unwrap();
    }
    node_b.create_catalog(&ctx, &world.ms, "e").unwrap();
    node_b.create_share(&ctx, &world.ms, "sh2").unwrap();

    let catalogs = node_a.list_catalogs(&ctx, &world.ms).unwrap();
    assert_eq!(names(&catalogs), ["c", "e"]);
    assert_eq!(catalogs[0].comment.as_deref(), Some("new"), "c read at the listing's version");
    let shares = node_a.list_shares(&ctx, &world.ms).unwrap();
    assert_eq!(names(&shares), ["sh", "sh2"]);
    assert_eq!(shares[0].comment.as_deref(), Some("new"), "sh read at the listing's version");
}

#[test]
fn truncated_changelog_forces_full_reconcile() {
    // If the change log was truncated past a node's position, selective
    // invalidation can't be trusted — the node must fall back to a full
    // evict (and still end up coherent).
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    for i in 0..20 {
        world
            .uc
            .create_table(&ctx, &world.ms, TableSpec::managed(&format!("main.s.t{i}"), schema()).unwrap())
            .unwrap();
    }
    let node_b = spawn_node(&world, "node-b");
    // warm node B
    for i in 0..20 {
        node_b.get_table(&ctx, &world.ms, &format!("main.s.t{i}")).unwrap();
    }
    // node A writes; then the changelog is aggressively truncated (as a
    // bounded-retention deployment would)
    world
        .uc
        .update_comment(&ctx, &world.ms, &FullName::parse("main.s.t3").unwrap(), "relation", "fresh")
        .unwrap();
    world.db.changelog().truncate_before(world.db.current_csn() + 1);
    node_b.reconcile_metastore(&world.ms);
    assert!(
        node_b
            .cache_stats()
            .full_reconciles
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "truncation must force the full strategy"
    );
    // and node B still serves the fresh value
    let t3 = node_b.get_table(&ctx, &world.ms, "main.s.t3").unwrap();
    assert_eq!(t3.comment, Some("fresh".into()));
}

#[test]
fn concurrent_path_registrations_never_violate_invariant() {
    // Failure injection: many threads across two nodes race to create
    // external tables whose paths overlap; whatever subset wins, the
    // one-asset-per-path invariant must hold in the end.
    let world = World::build(&WorldConfig::default());
    let ctx = Context::user(ADMIN);
    world.uc.create_catalog(&ctx, &world.ms, "main").unwrap();
    world.uc.create_schema(&ctx, &world.ms, "main", "s").unwrap();
    let root = world.store.create_bucket("ext");
    world.uc.create_storage_credential(&ctx, &world.ms, "ec", &root).unwrap();
    world.uc.create_external_location(&ctx, &world.ms, "el", "s3://ext/data", "ec").unwrap();
    let node_b = spawn_node(&world, "node-b");

    let mut handles = Vec::new();
    for t in 0..4 {
        let node = if t % 2 == 0 { world.uc.clone() } else { node_b.clone() };
        let ms = world.ms.clone();
        handles.push(std::thread::spawn(move || {
            let ctx = Context::user(ADMIN);
            for i in 0..10 {
                // deliberately overlapping path families: x, x/sub
                let depth = (t + i) % 2;
                let path = if depth == 0 {
                    format!("s3://ext/data/dir{i}")
                } else {
                    format!("s3://ext/data/dir{i}/sub")
                };
                let spec = uc_catalog::service::crud::TableSpec {
                    name: FullName::parse(&format!("main.s.race_{t}_{i}")).unwrap(),
                    columns: schema(),
                    format: uc_catalog::types::TableFormat::Parquet,
                    table_type: uc_catalog::types::TableType::External,
                    storage_path: Some(path),
                    foreign_type: None,
                };
                let _ = node.create_table(&ctx, &ms, spec); // conflicts allowed
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // invariant check over the raw path index
    let rt = world.db.begin_read();
    let all = uc_catalog::model::paths::all_paths(&rt, &world.ms);
    for (i, (p1, _)) in all.iter().enumerate() {
        for (p2, _) in &all[i + 1..] {
            assert!(!p1.overlaps(p2), "{p1} overlaps {p2}");
        }
    }
    assert!(all.len() >= 10, "a healthy subset must have won");
}
