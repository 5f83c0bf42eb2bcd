//! The self-healing distribution control plane, end to end: the
//! operator tick's policy splitting a hot cluster (rate-limited by its
//! cooldown), a permanently lost server being declared and healed by
//! background re-replication, reads rotating over the replicas, and the
//! chaos sweeps that prove every one of those transitions is atomic.
//!
//! The invariants, in order of appearance:
//!
//! * a shard-load threshold breach makes the operator rebalance
//!   onto more servers — answers byte-identical across the cutover —
//!   and the cooldown keeps it from thrashing;
//! * a server whose every hosted copy fails `loss_threshold`
//!   consecutive consultations is declared lost — within
//!   `loss_threshold × (R + 1)` queries — and one control tick
//!   rebuilds its copies onto survivors: `ir_replicas_healthy` returns
//!   to full and queries answer exactly throughout;
//! * an injected fault at any `control:*` / `rereplicate:*` site aborts
//!   the heal with the cluster byte-identical to never-started; the
//!   retry heals;
//! * two policy-triggered rebalances followed by a crash (no
//!   checkpoint) replay their WAL layout records idempotently into one
//!   consistent final layout;
//! * reads rotate evenly over every copy of a group without changing a
//!   single answer byte, and EXPLAIN shows the route.

use std::path::PathBuf;
use std::sync::Arc;

use dlsearch::{
    ausopen, qlang, standard_slos, ControlOutcome, Engine, EngineConfig, Operator, QueryOptions,
    QueryService,
};
use faults::{FaultAction, FaultPlan, FaultSpec};
use ir::ControlConfig;
use websim::{crawl, Site, SiteSpec};

#[path = "common/cluster.rs"]
mod cluster;
use cluster::{query_until_declared, ranking};

fn spec() -> SiteSpec {
    SiteSpec {
        players: 6,
        articles: 8,
        seed: 23,
    }
}

fn config(site: &Arc<Site>, servers: usize, replicas: usize) -> EngineConfig {
    EngineConfig {
        text_servers: servers,
        text_replicas: replicas,
        ..ausopen::config(Arc::clone(site))
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dl_control_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn metric_value(text: &str, prefix: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            let rest = l.strip_prefix(prefix)?;
            rest.strip_prefix(' ')?.trim().parse::<f64>().ok()
        })
        .unwrap_or_else(|| panic!("metric `{prefix}` missing from scrape:\n{text}"))
}

/// An operator that runs only the control policy: no SLOs to evaluate,
/// no incident directory.
fn control_only(config: ControlConfig) -> Operator {
    Operator::new(config, Vec::new(), None)
}

/// One operator tick, reduced to what its control half did.
fn control_tick(operator: &mut Operator, svc: &QueryService) -> ControlOutcome {
    operator.tick(svc).expect("operator tick").control
}

const TEXT_QUERY: &str = r#"
    FROM Player
    TEXT history CONTAINS "Winner"
    TOP 10
"#;

/// Tentpole, trigger half: a shard over the document threshold makes
/// the next tick rebalance onto one more server (answers unchanged),
/// the cooldown silences the ticks after it, and once the cooldown
/// elapses the policy acts again — up to `max_servers`, never past.
#[test]
fn a_hot_shard_triggers_a_rebalance_once_per_cooldown() {
    let site = Arc::new(Site::generate(spec()));
    let mut engine = Engine::new(config(&site, 2, 0)).unwrap();
    engine.populate(&crawl(&site)).unwrap();
    let q = qlang::parse(TEXT_QUERY).unwrap();
    let before = engine.query(&q).unwrap();
    assert!(!before.is_empty(), "the probe query must have an answer");

    let svc = QueryService::new(engine);
    let mut plane = control_only(ControlConfig {
        split_docs_per_shard: 1, // every shard is "hot"
        merge_docs_per_shard: 0,
        cooldown_ticks: 3,
        max_servers: 4,
        ..ControlConfig::default()
    });

    // Tick 1: split 2 → 3.
    let outcome = control_tick(&mut plane, &svc);
    match &outcome {
        ControlOutcome::Acted(d) => assert!(d.starts_with("split"), "{d}"),
        other => panic!("expected a split, got {other:?}"),
    }
    assert_eq!(svc.engine().text_index().servers(), 3);
    assert_eq!(svc.engine().query(&q).unwrap(), before);

    // Ticks 2–3: still hot, but inside the cooldown window.
    for tick in 2..=3 {
        assert_eq!(
            control_tick(&mut plane, &svc),
            ControlOutcome::Idle,
            "tick {tick} falls in the cooldown"
        );
        assert_eq!(svc.engine().text_index().servers(), 3);
    }

    // Tick 4: cooldown elapsed, split 3 → 4.
    assert!(matches!(control_tick(&mut plane, &svc), ControlOutcome::Acted(_)));
    assert_eq!(svc.engine().text_index().servers(), 4);
    assert_eq!(svc.engine().query(&q).unwrap(), before);

    // At max_servers the policy stops growing no matter how hot.
    for _ in 0..5 {
        control_tick(&mut plane, &svc);
    }
    assert_eq!(svc.engine().text_index().servers(), 4);

    // The decision is on the EXPLAIN plan.
    let explain = svc.engine().explain(&q, None);
    assert!(explain.contains("REBALANCE: control plane last acted: split"), "{explain}");
}

/// Tentpole, healing half: kill one server permanently (R = 2). Every
/// query during the outage answers exactly via failover; once every
/// copy the server hosts has failed `loss_threshold` consecutive
/// consultations it is declared lost, and one control tick re-replicates its copies onto survivors —
/// `ir_replicas_healthy` back to full, subsequent queries exact with no
/// failover needed.
#[test]
fn a_lost_server_is_declared_and_rereplicated_to_full_health() {
    let site = Arc::new(Site::generate(spec()));
    let mut engine = Engine::new(config(&site, 4, 2)).unwrap();
    let o = obs::Obs::enabled();
    engine.set_obs(&o);
    engine.populate(&crawl(&site)).unwrap();

    let clean = ranking(&engine.text_index_mut().query_serial("winner", 10).hits);
    let full_health = {
        let text = engine.metrics_text();
        metric_value(&text, "ir_replicas_healthy")
    };
    assert_eq!(full_health, (4 * 3) as f64, "4 groups × (1 primary + 2 replicas)");

    let victim = 1;
    let plan = FaultPlan::seeded(29);
    plan.set_sites(
        engine.text_index().fault_labels_for_server(victim),
        FaultSpec::always_error(),
    );
    engine.text_index_mut().set_fault_plan(plan.shared());

    // Each query selects one of the victim's copies, which fails over
    // (exactly, not degraded) and lengthens that copy's streak.
    query_until_declared(engine.text_index_mut(), victim, 3, &clean, |text| {
        let result = text.query_parallel("winner", 10).unwrap();
        assert!(result.failovers >= 1);
        result
    });

    let svc = QueryService::new(engine);
    let outcome = control_tick(&mut control_only(ControlConfig::default()), &svc);
    match &outcome {
        ControlOutcome::Acted(d) => {
            assert!(d.starts_with("rereplicate"), "{d}");
            assert!(d.contains(&format!("server {victim}")), "{d}");
        }
        other => panic!("expected re-replication, got {other:?}"),
    }

    // Redundancy is restored: no server is lost, a follow-up query is
    // exact without a single failover (the dead labels point nowhere),
    // and the gauges/counters prove the rebuild.
    {
        let mut engine = svc.engine();
        assert!(engine.text_index().lost_servers(3).is_empty());
        let result = engine.text_index_mut().query_parallel("winner", 10).unwrap();
        assert_eq!(ranking(&result.hits), clean);
        assert_eq!(result.shards_failed, 0);
        assert_eq!(result.failovers, 0, "rebuilt copies serve; no failover left");
        let text = engine.metrics_text();
        assert_eq!(metric_value(&text, "ir_replicas_healthy"), full_health);
        assert!(metric_value(&text, "ir_rereplication_objects_total") >= 1.0);
        assert!(
            metric_value(&text, "ir_control_decisions_total{action=\"rereplicate\"}") >= 1.0
        );
        let explain = engine.explain(&qlang::parse(TEXT_QUERY).unwrap(), None);
        assert!(explain.contains("REBALANCE: control plane last acted: rereplicate"), "{explain}");
    }
}

/// Chaos sweep: inject an `Error` at the control boundary
/// (`control:rereplicate`) and at each consulted re-replication site
/// (`rereplicate:<lost>:<group>`). Every kill must abort with the
/// cluster byte-identical to never-started — layout, placement-visible
/// answers and content snapshots unchanged — and the retry (script
/// spent) must heal to full redundancy.
#[test]
fn killing_rereplication_at_any_site_aborts_byte_identically() {
    let victim = 1;
    // servers = 3, R = 1: the victim hosts group 1's primary and
    // group 0's replica, so the consulted sites are groups 0 and 1.
    for site_label in ["control:rereplicate", "rereplicate:1:0", "rereplicate:1:1"] {
        let site = Arc::new(Site::generate(spec()));
        let mut engine = Engine::new(config(&site, 3, 1)).unwrap();
        engine.populate(&crawl(&site)).unwrap();
        let clean = ranking(&engine.text_index_mut().query_serial("winner", 10).hits);

        let plan = FaultPlan::seeded(31).shared();
        plan.set_sites(
            engine.text_index().fault_labels_for_server(victim),
            FaultSpec::always_error(),
        );
        engine.text_index_mut().set_fault_plan(Arc::clone(&plan));
        query_until_declared(engine.text_index_mut(), victim, 3, &clean, |text| {
            text.query_parallel("winner", 10).unwrap()
        });

        // Arm the kill, snapshot the ground truth.
        plan.set_script(site_label, vec![FaultAction::Error]);
        let layout_before = engine.text_index().layout().to_vec();
        let content_before = engine.text_index_mut().content_snapshot_shards().unwrap();

        // The operator consults the plan the text tier carries.
        let svc = QueryService::new(engine);
        let mut plane = control_only(ControlConfig::default());

        match control_tick(&mut plane, &svc) {
            ControlOutcome::Aborted(d) => {
                assert!(d.starts_with("rereplicate"), "site {site_label}: {d}")
            }
            other => panic!("site {site_label}: expected an abort, got {other:?}"),
        }
        {
            let mut engine = svc.engine();
            assert_eq!(engine.text_index().layout(), &layout_before[..], "site {site_label}");
            assert_eq!(
                engine.text_index_mut().content_snapshot_shards().unwrap(),
                content_before,
                "site {site_label}: an aborted heal must leave the cluster byte-identical"
            );
            assert_eq!(engine.text_index().lost_servers(3), vec![victim]);
            let result = engine.text_index_mut().query_parallel("winner", 10).unwrap();
            assert_eq!(ranking(&result.hits), clean, "site {site_label}");
        }

        // The script is spent: the retry heals completely.
        match control_tick(&mut plane, &svc) {
            ControlOutcome::Acted(d) => {
                assert!(d.contains("rebuilt"), "site {site_label}: {d}")
            }
            other => panic!("site {site_label}: expected the retry to act, got {other:?}"),
        }
        {
            let mut engine = svc.engine();
            assert!(engine.text_index().lost_servers(3).is_empty(), "site {site_label}");
            let result = engine.text_index_mut().query_parallel("winner", 10).unwrap();
            assert_eq!(ranking(&result.hits), clean, "site {site_label}");
            assert_eq!(result.failovers, 0, "site {site_label}");
        }
    }
}

/// Satellite: WAL layout-record replay is idempotent across *repeated
/// automatic* rebalances. Two policy-triggered splits land two layout
/// records in the WAL; a crash before any checkpoint replays both on
/// reopen into the single final layout — and a second replay (reopen
/// again) changes nothing.
#[test]
fn repeated_policy_rebalances_replay_into_one_consistent_layout() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    let dir = tmp("policy_replay");
    let make = || config(&site, 1, 0);

    let (mut engine, _) = Engine::open(make(), &dir).unwrap();
    engine.populate(&pages).unwrap();
    engine.checkpoint().unwrap();
    let clean = ranking(&engine.text_index_mut().query_serial("winner", 10).hits);

    let svc = QueryService::new(engine);
    let mut plane = control_only(ControlConfig {
        split_docs_per_shard: 1,
        merge_docs_per_shard: 0,
        cooldown_ticks: 0,
        max_servers: 3,
        ..ControlConfig::default()
    });
    assert!(matches!(control_tick(&mut plane, &svc), ControlOutcome::Acted(_)));
    assert!(matches!(control_tick(&mut plane, &svc), ControlOutcome::Acted(_)));
    let final_layout = svc.engine().text_index().layout().to_vec();
    assert_eq!(svc.engine().text_index().servers(), 3);
    drop(svc); // crash: both cutovers live only in the WAL

    let (mut reopened, recovery) = Engine::open(make(), &dir).unwrap();
    assert_eq!(
        reopened.text_index().servers(),
        3,
        "replay must land on the final layout ({recovery:?})"
    );
    assert_eq!(reopened.text_index().layout(), &final_layout[..]);
    assert_eq!(
        ranking(&reopened.text_index_mut().query_serial("winner", 10).hits),
        clean
    );
    drop(reopened); // crash again, still no checkpoint: replay twice

    let (mut again, _) = Engine::open(make(), &dir).unwrap();
    assert_eq!(again.text_index().servers(), 3, "replay is idempotent");
    assert_eq!(again.text_index().layout(), &final_layout[..]);
    assert_eq!(
        ranking(&again.text_index_mut().query_serial("winner", 10).hits),
        clean
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: reads rotate over the replicas. A replicated engine
/// answers byte-identically to an unreplicated one, reads spread over
/// replica copies (the `ir_read_route_total{replica="1"}` counter
/// moves), and EXPLAIN ANALYZE's READ-ROUTE line — printed whenever the
/// cluster has replicas — says which copy served each group.
#[test]
fn round_robin_read_scaling_answers_exactly_and_explains_the_route() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    let mut reference = Engine::new(config(&site, 3, 0)).unwrap();
    reference.populate(&pages).unwrap();
    let mut scaled = Engine::new(config(&site, 3, 1)).unwrap();
    let o = obs::Obs::enabled();
    scaled.set_obs(&o);
    scaled.populate(&pages).unwrap();

    let q = qlang::parse(TEXT_QUERY).unwrap();
    let expected = reference.execute(&q, &QueryOptions::default()).unwrap();
    let outcome = scaled.execute(&q, &QueryOptions::default()).unwrap();
    assert_eq!(outcome.hits, expected.hits, "the serving copy must not change answers");
    let status = outcome.text.as_ref().unwrap();
    assert_eq!(status.served_by.len(), 3);
    assert_eq!(status.failovers, 0);

    // Drive the rotation: over a few raw parallel queries every group
    // cycles its copies, so replica 1 serves some group at least once.
    let clean = ranking(&scaled.text_index_mut().query_serial("winner", 10).hits);
    for _ in 0..4 {
        let result = scaled.text_index_mut().query_parallel("winner", 10).unwrap();
        assert_eq!(ranking(&result.hits), clean);
        assert_eq!(result.shards_failed, 0);
    }
    let text = scaled.metrics_text();
    assert!(
        metric_value(&text, "ir_read_route_total{replica=\"1\"}") >= 1.0,
        "replicas must have served reads"
    );

    let explain = scaled.explain(&q, Some(&outcome));
    assert!(explain.contains("READ-ROUTE: one rotating copy per group"), "{explain}");
    let explain = reference.explain(&q, Some(&expected));
    assert!(!explain.contains("READ-ROUTE"), "no replicas, no route to report: {explain}");
}

/// On the benchmark's cluster shape (2 servers × 1 replica) every query
/// reads each group once, alternating between its two copies: over `2N`
/// queries each copy index serves `2N` group reads and nothing fails
/// over.
#[test]
fn reads_split_evenly_over_both_copies_of_a_two_by_one_cluster() {
    let site = Arc::new(Site::generate(spec()));
    let mut engine = Engine::new(config(&site, 2, 1)).unwrap();
    let o = obs::Obs::enabled();
    engine.set_obs(&o);
    engine.populate(&crawl(&site)).unwrap();

    let scrape = |engine: &Engine| {
        let text = engine.metrics_text();
        (
            metric_value(&text, "ir_read_route_total{replica=\"0\"}"),
            metric_value(&text, "ir_read_route_total{replica=\"1\"}"),
            metric_value(&text, "ir_failovers_total"),
        )
    };
    let before = scrape(&engine);
    let n = 3;
    // Distinct top-N values: none of the requests is an answer-cache hit.
    for top in 1..=2 * n {
        let q = qlang::parse(&format!(r#"FROM Player TEXT history CONTAINS "Winner" TOP {top}"#))
            .unwrap();
        engine.execute(&q, &QueryOptions::default()).unwrap();
    }
    let after = scrape(&engine);
    let reads = (2 * n) as f64;
    assert_eq!(after.0 - before.0, reads, "primaries");
    assert_eq!(after.1 - before.1, reads, "replicas");
    assert_eq!(after.2 - before.2, 0.0, "failovers");
}

/// The policy's latency signal is the recorder's windowed shard p99 —
/// and every *other* trigger keeps working beside it: with
/// observability on and SLOs evaluated, the document-threshold split
/// fires while the window holds no parallel query (an empty latency
/// window must never veto or distort a doc-driven decision), answers
/// unchanged.
#[test]
fn doc_threshold_splits_survive_an_empty_p99_window() {
    let site = Arc::new(Site::generate(spec()));
    let mut engine = Engine::new(config(&site, 2, 0)).unwrap();
    engine.populate(&crawl(&site)).unwrap();
    let q = qlang::parse(TEXT_QUERY).unwrap();
    let before = engine.query(&q).unwrap();
    // Observed from here on: the probe query above left no critical
    // path in the registry.
    engine.set_obs(&obs::Obs::enabled());

    let svc = QueryService::new(engine);
    let mut operator = Operator::new(
        ControlConfig {
            split_docs_per_shard: 1, // every shard is "hot" by size
            merge_docs_per_shard: 0,
            cooldown_ticks: 0,
            max_servers: 3,
            ..ControlConfig::default()
        },
        standard_slos(),
        None,
    );

    // The recorder samples the registry but holds no parallel-query
    // latency: the windowed p99 reads zero, and the doc-threshold
    // trigger decides.
    match control_tick(&mut operator, &svc) {
        ControlOutcome::Acted(d) => {
            assert!(d.starts_with("split"), "{d}");
            assert!(d.contains("docs"), "the reason must cite the document load: {d}");
        }
        other => panic!("expected the doc-threshold split, got {other:?}"),
    }
    let report = operator.incident_report(&svc, "probe").render();
    assert!(report.contains("\"shard_p99_us\": 0,"), "{report}");
    assert_eq!(svc.engine().text_index().servers(), 3);
    svc.engine().invalidate_query_cache();
    assert_eq!(svc.engine().query(&q).unwrap(), before);
}
