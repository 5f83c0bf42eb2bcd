//! Chaos harness for the replicated, self-healing distributed index:
//! whole-server kills answered by replica failover, shard rebalancing
//! under injected migration faults, and cross-shard consistent
//! checkpoints surviving a crash mid-story.
//!
//! The invariants, in order of appearance:
//!
//! * with `R` replicas, killing any single server mid-query still
//!   yields the **exact** top-k — no degradation, full quality — via
//!   failover to a surviving copy;
//! * a hanging primary fails over within the remaining budget window
//!   instead of dragging the query to its own deadline;
//! * a candidate-restricted query is an ordinary query of the cluster:
//!   it fails over, degrades, feeds the loss and latency signals and
//!   rotates over the copies exactly like an unrestricted one;
//! * split/merge rebalancing preserves every query's `(url, score)`
//!   ranking byte for byte, at any layout;
//! * a fault-plan sweep killing each shard's migration stream mid-
//!   rebalance always aborts with the old layout fully intact, the
//!   retry lands the new layout, and the checkpoint taken at any point
//!   restores to the same answers;
//! * a durable engine that crashes after a rebalance (no checkpoint)
//!   replays the WAL's layout record on reopen and lands on the new
//!   layout — and still fails over exactly when a server dies next.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use faults::{Budget, FaultAction, FaultPlan, FaultSpec};
use ir::{DistributedIndex, Rebalancer, ScoreModel, ROUTE_SLOTS};
use websim::{crawl, Site, SiteSpec};

#[path = "common/cluster.rs"]
mod cluster;
use cluster::{query_until_declared, ranking};

fn corpus(n: usize) -> Vec<(String, String)> {
    (0..n)
        .map(|i| {
            let mut body = format!("tennis match report number{i}");
            if i % 7 == 0 {
                body.push_str(" winner winner champion");
            } else if i % 3 == 0 {
                body.push_str(" winner");
            }
            if i % 5 == 0 {
                body.push_str(" melbourne court");
            }
            (format!("http://site/news/{i}.html"), body)
        })
        .collect()
}

fn build(servers: usize, replicas: usize, n: usize) -> DistributedIndex {
    let mut d = DistributedIndex::with_replication(servers, ScoreModel::TfIdf, replicas)
        .expect("valid cluster shape");
    for (url, body) in corpus(n) {
        d.index_document(&url, &body).expect("index");
    }
    d.commit().expect("commit");
    d
}

const QUERY_SET: &[&str] = &[
    "winner tennis",
    "champion melbourne",
    "report number3",
    "court winner champion",
    "tennis",
];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dl_chaos_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// With R = 2, killing ANY single server — its primary shard and every
/// replica it hosts, the whole machine — still returns the exact,
/// non-degraded top-k: some surviving copy of each group answers.
#[test]
fn killing_any_single_server_fails_over_to_the_exact_answer() {
    let servers = 4;
    let reference = build(servers, 2, 120);
    let clean = reference.query_serial("winner tennis", 10);

    for victim in 0..servers {
        let mut d = build(servers, 2, 120);
        let plan = FaultPlan::seeded(7);
        plan.set_sites(d.fault_labels_for_server(victim), FaultSpec::always_error());
        d.set_fault_plan(plan.shared());

        let result = d.query_parallel("winner tennis", 10).expect("query");
        assert_eq!(
            ranking(&result.hits),
            ranking(&clean.hits),
            "killing server {victim} changed the answer"
        );
        assert_eq!(result.shards_failed, 0, "server {victim}: no group may degrade");
        assert!(
            result.failovers >= 1,
            "server {victim} held live copies; at least one group must fail over"
        );
        assert_eq!(result.quality, 1.0, "failover is exact, not degraded");
    }
}

/// A primary that hangs past the shard deadline is abandoned and its
/// replica's answer used — within the caller's budget window, without
/// surfacing a deadline error or a degraded merge.
#[test]
fn a_hanging_primary_fails_over_within_the_budget_window() {
    let mut d = build(3, 1, 90);
    d.set_shard_deadline(Duration::from_millis(150));
    d.set_hang_duration(Duration::from_millis(400));
    let clean = d.query_serial("winner tennis", 8);

    let plan = FaultPlan::seeded(3);
    plan.set_site("shard:0", FaultSpec::always_hang());
    d.set_fault_plan(plan.shared());

    let budget = Budget::with_deadline(Duration::from_secs(5));
    let result = d
        .search("winner tennis", 8, None, &budget)
        .expect("the budget leaves ample room to fail over");
    assert_eq!(ranking(&result.hits), ranking(&clean.hits));
    assert_eq!(result.shards_failed, 0);
    assert!(result.failovers >= 1, "group 0's replica must have answered");
    assert_eq!(result.quality, 1.0);
}

/// Every second document: a genuine a-priori restriction.
fn even_documents(n: usize) -> HashSet<String> {
    corpus(n).into_iter().step_by(2).map(|(url, _)| url).collect()
}

/// A candidate-restricted query goes through the same scatter-gather
/// as an unrestricted one: with one primary killed it fails over
/// exactly at R = 1 and returns the survivors' ranking, honestly
/// stamped, at R = 0.
#[test]
fn a_restricted_query_fails_over_or_degrades_like_any_other() {
    let candidates = even_documents(120);
    let clean = build(3, 0, 120)
        .query_restricted("winner tennis", 200, &candidates)
        .expect("clean");
    assert!(clean.hits.iter().all(|h| candidates.contains(&h.url)));
    let kill_primary_1 = || {
        let plan = FaultPlan::seeded(5);
        plan.set_site("shard:1", FaultSpec::always_error());
        plan.shared()
    };

    let mut replicated = build(3, 1, 120);
    replicated.set_fault_plan(kill_primary_1());
    let rescued = replicated
        .query_restricted("winner tennis", 200, &candidates)
        .expect("a replica answers");
    assert_eq!(ranking(&rescued.hits), ranking(&clean.hits));
    assert_eq!(rescued.failovers, 1);
    assert_eq!(rescued.shards_failed, 0);
    assert_eq!(rescued.quality, 1.0);
    assert_eq!(rescued.served_by[1], Some(1));

    let mut bare = build(3, 0, 120);
    bare.set_fault_plan(kill_primary_1());
    let degraded = bare
        .query_restricted("winner tennis", 200, &candidates)
        .expect("two groups survive");
    assert_eq!(degraded.shards_failed, 1);
    assert_eq!(degraded.failed_shards, vec![1]);
    assert!(degraded.quality < 1.0, "quality {}", degraded.quality);
    let survivors: Vec<ir::SearchHit> = clean
        .hits
        .iter()
        .filter(|h| bare.route(&h.url) != 1)
        .cloned()
        .collect();
    assert_eq!(ranking(&degraded.hits), ranking(&survivors));
}

/// Restricted queries feed the control plane's signals — the failure
/// streaks behind loss declaration, the critical-path histogram behind
/// the operator's windowed p99 trigger — and rotate over the copies of
/// each group like any other read.
#[test]
fn restricted_queries_feed_loss_detection_latency_and_the_read_rotation() {
    let candidates = even_documents(90);
    let clean = ranking(
        &build(3, 0, 90)
            .query_restricted("winner", 10, &candidates)
            .expect("clean")
            .hits,
    );

    let mut rotating = build(3, 1, 90);
    let first = rotating.query_restricted("winner", 10, &candidates).expect("first");
    let second = rotating.query_restricted("winner", 10, &candidates).expect("second");
    assert_eq!(first.served_by, vec![Some(0); 3]);
    assert_eq!(second.served_by, vec![Some(1); 3]);
    assert_eq!(ranking(&first.hits), clean);
    assert_eq!(ranking(&second.hits), clean);

    let o = obs::Obs::enabled();
    let critical_paths = || {
        o.registry()
            .expect("enabled")
            .histogram("ir_critical_path_seconds", "", obs::DEFAULT_TIME_BUCKETS)
            .count()
    };
    let mut d = build(3, 1, 90);
    d.set_obs(&o);
    let victim = 1;
    let plan = FaultPlan::seeded(9);
    plan.set_sites(d.fault_labels_for_server(victim), FaultSpec::always_error());
    d.set_fault_plan(plan.shared());
    assert_eq!(critical_paths(), 0);
    let asked = query_until_declared(&mut d, victim, 3, &clean, |d| {
        d.query_restricted("winner", 10, &candidates).expect("a copy of every group survives")
    });
    assert_eq!(critical_paths(), asked as u64);
    assert!(!d.shard_health()[victim].primary_healthy);

    // Without replicas every query consults the dead primary (and
    // degrades): `threshold × (0 + 1)` queries declare it.
    let mut bare = build(3, 0, 90);
    let plan = FaultPlan::seeded(9);
    plan.set_site("shard:1", FaultSpec::always_error());
    bare.set_fault_plan(plan.shared());
    for round in 1..=3 {
        assert!(bare.lost_servers(3).is_empty(), "declared lost before round {round}");
        bare.query_restricted("winner", 10, &candidates).expect("survivors");
    }
    assert_eq!(bare.lost_servers(3), vec![1], "three failed consultations in a row");
}

/// Through the engine: on a cluster with a dead text server, a `TEXT …
/// WITHIN` query and the same query ranked globally report the same
/// cluster — same text status, same DEGRADED notes — and on a
/// replicated cluster both kinds move the same read rotation.
#[test]
fn within_queries_report_the_cluster_like_global_ones() {
    use dlsearch::{ausopen, qlang, Engine, EngineConfig, QueryOptions};

    let site = Arc::new(Site::generate(SiteSpec {
        players: 8,
        articles: 4,
        seed: 29,
    }));
    let pages = crawl(&site);
    let global = qlang::parse(r#"FROM Player TEXT history CONTAINS "Winner" TOP 10"#).unwrap();
    let within =
        qlang::parse(r#"FROM Player TEXT history CONTAINS "Winner" WITHIN TOP 10"#).unwrap();

    // `ausopen::flaky_engine` keeps its single text server fault-free;
    // the fixture whose text servers take faults is `resilient_engine`.
    let plan = FaultPlan::seeded(3).with_site("shard:2", FaultSpec::always_error());
    let mut engine = ausopen::resilient_engine(Arc::clone(&site), 4, plan.shared()).unwrap();
    engine.populate(&pages).unwrap();
    let a = engine.execute(&global, &QueryOptions::default()).unwrap();
    let b = engine.execute(&within, &QueryOptions::default()).unwrap();
    let status = a.text.as_ref().expect("a text query reports its status");
    assert_eq!(status.failed_shards, vec![2]);
    assert_eq!(status.served_by, vec![Some(0), Some(0), None, Some(0)], "no replicas to read");
    assert_eq!(a.degraded, vec!["DEGRADED: 3 of 4 text servers answered".to_owned()]);
    assert_eq!(b.text, a.text);
    assert_eq!(b.degraded, a.degraded);
    assert_eq!(b.quality, a.quality);
    // No conceptual predicate: the candidates are every player.
    assert_eq!(b.hits, a.hits);

    let mut replicated = Engine::new(EngineConfig {
        text_servers: 3,
        text_replicas: 1,
        ..ausopen::config(Arc::clone(&site))
    })
    .unwrap();
    replicated.populate(&pages).unwrap();
    let first = replicated.execute(&within, &QueryOptions::default()).unwrap();
    let second = replicated.execute(&global, &QueryOptions::default()).unwrap();
    let (first, second) = (first.text.unwrap(), second.text.unwrap());
    assert_eq!(first.served_by, vec![Some(0); 3]);
    assert_eq!(second.served_by, vec![Some(1); 3]);
}

/// Splitting onto more servers and merging back preserves every query
/// of the set byte for byte — document placement is invisible to
/// ranking at any layout.
#[test]
fn rebalancing_preserves_every_query_byte_for_byte() {
    let mut d = build(2, 1, 150);
    let before: Vec<_> = QUERY_SET
        .iter()
        .map(|q| ranking(&d.query_serial(q, 12).hits))
        .collect();

    let r = Rebalancer::new();
    let grown = r.split(&mut d).expect("split");
    assert_eq!(grown.shards_after, 3);
    for (q, expect) in QUERY_SET.iter().zip(&before) {
        assert_eq!(
            &ranking(&d.query_serial(q, 12).hits),
            expect,
            "query {q:?} changed across the split"
        );
    }

    let shrunk = r.merge(&mut d).expect("merge");
    assert_eq!(shrunk.shards_after, 2);
    for (q, expect) in QUERY_SET.iter().zip(&before) {
        assert_eq!(
            &ranking(&d.query_serial(q, 12).hits),
            expect,
            "query {q:?} changed across the merge"
        );
    }
}

/// The fault-plan sweep of the tentpole: for every shard, kill its
/// migration stream mid-rebalance. Each abort must leave the old
/// layout fully intact (same answers, same layout), each retry must
/// land the new layout with byte-identical answers, and the shard
/// checkpoint taken afterwards must restore to the same answers —
/// including when a server is killed mid-query on the restored index.
#[test]
fn killing_shards_mid_rebalance_never_corrupts_answers_or_checkpoints() {
    let servers = 3;
    let target_layout: Vec<u16> = (0..ROUTE_SLOTS).map(|s| (s % 2) as u16).collect();

    for victim in 0..servers {
        let mut d = build(servers, 1, 100);
        let before_layout = d.layout().to_vec();
        let before: Vec<_> = QUERY_SET
            .iter()
            .map(|q| ranking(&d.query_serial(q, 10).hits))
            .collect();

        let plan = FaultPlan::seeded(11);
        plan.set_script(format!("migrate:shard:{victim}"), vec![FaultAction::Error]);
        d.set_fault_plan(plan.shared());

        // The injected kill aborts the rebalance with nothing moved.
        let err = d.apply_layout(2, &target_layout).expect_err("must abort");
        assert!(err.to_string().contains("rebalance aborted"), "{err}");
        assert_eq!(d.layout(), &before_layout[..], "victim {victim}");
        assert_eq!(d.servers(), servers);
        for (q, expect) in QUERY_SET.iter().zip(&before) {
            assert_eq!(
                &ranking(&d.query_serial(q, 10).hits),
                expect,
                "victim {victim}: query {q:?} changed after an aborted rebalance"
            );
        }

        // The script is spent: the retry cuts over.
        let report = d.apply_layout(2, &target_layout).expect("retry");
        assert_eq!(report.shards_after, 2);
        for (q, expect) in QUERY_SET.iter().zip(&before) {
            assert_eq!(
                &ranking(&d.query_serial(q, 10).hits),
                expect,
                "victim {victim}: query {q:?} changed across the rebalance"
            );
        }

        // The post-rebalance checkpoint is one consistent cut…
        let blobs = d.snapshot_shards().expect("snapshot");
        let mut restored = DistributedIndex::restore_shards(&blobs).expect("restore");
        assert_eq!(restored.layout(), d.layout());
        for (q, expect) in QUERY_SET.iter().zip(&before) {
            assert_eq!(
                &ranking(&restored.query_serial(q, 10).hits),
                expect,
                "victim {victim}: query {q:?} changed across the checkpoint"
            );
        }

        // …and the restored cluster still fails over exactly when a
        // whole server dies mid-query.
        let plan = FaultPlan::seeded(13);
        plan.set_sites(restored.fault_labels_for_server(0), FaultSpec::always_error());
        restored.set_fault_plan(plan.shared());
        let result = restored.query_parallel("winner tennis", 10).expect("query");
        assert_eq!(ranking(&result.hits), before[0].clone());
        assert_eq!(result.shards_failed, 0);
        assert!(result.failovers >= 1);
    }
}

/// Crash-recovery lands on a valid layout: a durable engine that
/// rebalances and then crashes *without checkpointing* replays the
/// WAL's layout record on reopen and comes back on the new layout with
/// identical answers; a subsequent checkpoint + reopen persists it.
#[test]
fn a_crash_after_rebalance_recovers_onto_the_new_layout() {
    let site = Arc::new(Site::generate(SiteSpec {
        players: 3,
        articles: 3,
        seed: 17,
    }));
    let pages = crawl(&site);
    let dir = tmp("rebalance_crash");
    let config = || dlsearch::EngineConfig {
        text_servers: 3,
        text_replicas: 1,
        ..dlsearch::ausopen::config(Arc::clone(&site))
    };

    let (mut engine, _) = dlsearch::Engine::open(config(), &dir).expect("open");
    engine.populate(&pages).expect("populate");
    engine.checkpoint().expect("checkpoint");

    let report = engine.rebalance_text(2).expect("rebalance");
    assert_eq!(report.shards_after, 2);
    let layout_after = engine.text_index().layout().to_vec();
    let before = ranking(&engine.text_index().query_serial("winner", 10).hits);
    drop(engine); // crash: the rebalance lives only in the WAL

    let (mut reopened, recovery) = dlsearch::Engine::open(config(), &dir).expect("reopen");
    assert_eq!(
        reopened.text_index().servers(),
        2,
        "replay must land on the rebalanced layout ({recovery:?})"
    );
    assert_eq!(reopened.text_index().layout(), &layout_after[..]);
    assert_eq!(reopened.text_index().replication(), 1);
    assert_eq!(
        ranking(&reopened.text_index().query_serial("winner", 10).hits),
        before
    );
    assert_eq!(reopened.shard_health().len(), 2);

    // Checkpoint the recovered layout, reopen once more: the manifest
    // now carries it and replay has nothing text-side left to do.
    reopened.checkpoint().expect("checkpoint");
    drop(reopened);
    let (mut again, _) = dlsearch::Engine::open(config(), &dir).expect("reopen twice");
    assert_eq!(again.text_index().servers(), 2);
    assert_eq!(again.text_index().layout(), &layout_after[..]);

    // And the recovered, rebalanced cluster still fails over exactly.
    let plan = FaultPlan::seeded(19);
    plan.set_sites(
        again.text_index().fault_labels_for_server(1),
        FaultSpec::always_error(),
    );
    again.text_index_mut().set_fault_plan(plan.shared());
    let result = again
        .text_index_mut()
        .query_parallel("winner", 10)
        .expect("query");
    assert_eq!(ranking(&result.hits), before);
    assert_eq!(result.shards_failed, 0);
    assert!(result.failovers >= 1);

    std::fs::remove_dir_all(&dir).ok();
}
