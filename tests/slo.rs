//! The operator loop's history half end to end: burn rates, incidents
//! and the windowed shard p99.
//!
//! * Ticking the operator — sampling the registry, evaluating SLO burn
//!   rates, even dumping an incident report — never changes an answer:
//!   hits and store digests stay byte-identical to a plain engine.
//! * A fault-injected latency storm drives the fast-window burn over
//!   the page threshold within a handful of ticks; the Page transition
//!   writes a self-contained incident file that carries the paging
//!   state, and lands in the flight recorder.
//! * The control policy reads the *windowed* shard p99 from the
//!   recorder: a slow shard observed over recent queries triggers a
//!   split with answers unchanged across the cutover.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use dlsearch::{
    ausopen, qlang, standard_slos, ControlOutcome, Engine, EngineConfig, Operator, QueryService,
};
use faults::{DelaySpec, FaultPlan};
use ir::ControlConfig;
use obs::{AlertState, Obs, SloSignal, SloSpec};
use websim::{crawl, Site, SiteSpec};

const TEXT_QUERY: &str = r#"
    FROM Player
    TEXT history CONTAINS "Winner"
    TOP 10
"#;

fn site() -> Arc<Site> {
    Arc::new(Site::generate(SiteSpec {
        players: 6,
        articles: 4,
        seed: 23,
    }))
}

fn sharded_config(site: &Arc<Site>, servers: usize) -> EngineConfig {
    EngineConfig {
        text_servers: servers,
        ..ausopen::config(Arc::clone(site))
    }
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dl_slo_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A policy that decides nothing on these small clusters, for the
/// tests that exercise only the history half of the tick: the default
/// `ControlConfig` merges any cluster whose shards all hold under 1 000
/// documents, and every shard here does.
fn hands_off() -> ControlConfig {
    ControlConfig {
        split_docs_per_shard: usize::MAX,
        merge_docs_per_shard: 0,
        slow_shard: Duration::MAX,
        ..ControlConfig::default()
    }
}

/// The integer after `"key": ` in a rendered incident report.
fn report_int(body: &str, key: &str) -> i64 {
    let pattern = format!("\"{key}\": ");
    let at = body.find(&pattern).unwrap_or_else(|| panic!("`{key}` missing:\n{body}"));
    let digits: String = body[at + pattern.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().expect("an integer")
}

/// An aggressive latency objective that a 25ms delay storm violates
/// immediately: 90% of `engine.query` spans under 5ms, paging at a
/// burn of 2.
fn storm_slo() -> SloSpec {
    SloSpec {
        name: "query-latency-storm",
        objective: 0.9,
        signal: SloSignal::LatencyAbove {
            histogram: "obs_span_seconds{span=\"engine.query\"}".to_owned(),
            threshold_seconds: 0.005,
        },
        fast_window: 2,
        slow_window: 4,
        page_burn: 2.0,
        warn_burn: 1.0,
    }
}

/// The history half of the tick is strictly read-only: an engine
/// ticked through the loop — recorder samples, SLO evaluation, a
/// forced incident dump — answers byte-identically to a plain engine,
/// query for query, and the store digests match at the end.
#[test]
fn operator_ticking_is_byte_identical_to_plain() {
    let site = site();
    let pages = crawl(&site);

    let mut plain = Engine::new(sharded_config(&site, 3)).unwrap();
    plain.populate(&pages).unwrap();

    let mut observed = Engine::new(sharded_config(&site, 3)).unwrap();
    let o = Obs::enabled();
    observed.set_obs(&o);
    observed.populate(&pages).unwrap();
    let svc = QueryService::new(observed);
    let dir = tmp("identity");
    let mut operator = Operator::new(hands_off(), standard_slos(), Some(dir.clone()));

    let q = qlang::parse(TEXT_QUERY).unwrap();
    for round in 0..4 {
        let expected = plain.query(&q).unwrap();
        let got = svc.engine().query(&q).unwrap();
        assert_eq!(got, expected, "round {round}");
        assert_eq!(operator.tick(&svc).unwrap().control, ControlOutcome::Idle);
        plain.invalidate_query_cache();
        svc.engine().invalidate_query_cache();
    }
    // Even a forced dump (report assembly reads every subsystem) must
    // not perturb the store.
    let report = operator.incident_report(&svc, "manual");
    assert!(report.render().contains("\"kind\": \"incident\""));
    operator.dump_incident(&svc, "manual").unwrap();

    assert_eq!(
        svc.engine().state_digest().unwrap(),
        plain.state_digest().unwrap(),
        "the operator's history half must never write into the store"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A latency storm (every shard call stalled 25ms by the fault plan)
/// violates the aggressive latency SLO; the fast-window burn pages
/// within a handful of ticks, the Page writes an incident file whose
/// JSON names the trigger and the paging state, and the flight
/// recorder holds the transition.
#[test]
fn a_latency_storm_pages_and_dumps_an_incident() {
    let site = site();
    let mut engine = Engine::new(sharded_config(&site, 2)).unwrap();
    let o = Obs::enabled();
    engine.set_obs(&o);
    engine.populate(&crawl(&site)).unwrap();

    let plan = FaultPlan::seeded(41);
    plan.set_delay_site("shard:0", DelaySpec::always(Duration::from_millis(25)));
    plan.set_delay_site("shard:1", DelaySpec::always(Duration::from_millis(25)));
    engine.text_index_mut().set_fault_plan(plan.shared());

    let svc = QueryService::new(engine);
    let dir = tmp("storm");
    let mut operator = Operator::new(hands_off(), vec![storm_slo()], Some(dir.clone()));

    let q = qlang::parse(TEXT_QUERY).unwrap();
    let mut paged_at = None;
    for tick in 1..=10u64 {
        svc.engine().query(&q).unwrap();
        svc.engine().invalidate_query_cache();
        let round = operator.tick(&svc).unwrap();
        assert_eq!(round.tick, tick);
        assert_eq!(round.control, ControlOutcome::Idle);
        if let Some(page) = round
            .transitions
            .iter()
            .find(|t| t.slo == "query-latency-storm" && t.to == AlertState::Page)
        {
            assert!(page.fast_burn >= 2.0, "fast burn {} must be page-level", page.fast_burn);
            assert_eq!(round.incidents.len(), 1, "the Page must dump exactly once");
            paged_at = Some((tick, round.incidents[0].clone()));
            break;
        }
    }
    let (tick, incident) = paged_at.expect("the storm must page within 10 ticks");
    assert!(tick <= 5, "fast-window detection took {tick} ticks");

    // The incident file is a self-contained report.
    let body = std::fs::read_to_string(&incident).unwrap();
    assert!(body.contains("\"trigger\": \"slo-page:query-latency-storm\""), "{body}");
    assert!(body.contains("\"schema_version\""));
    assert!(body.contains("\"cluster\""));
    assert!(body.contains("obs_slo_state"), "report embeds the metrics dump");
    // The report's SLO section carries the paging state.
    assert!(
        body.contains("\"name\": \"query-latency-storm\",\n      \"state\": \"page\""),
        "{body}"
    );

    // The transition is on the flight recorder.
    assert!(
        o.flight_events()
            .iter()
            .any(|e| e.kind == "slo" && e.detail.contains("query-latency-storm")),
        "flight ring must hold the SLO transition"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The closed loop: the control policy reads the *windowed* shard p99,
/// reconstructed from `ir_critical_path_seconds` bucket deltas in the
/// recorder — its one latency signal. A shard held slow over several
/// queries triggers a latency split on the next tick, and the cutover
/// keeps the answers byte-identical.
#[test]
fn windowed_shard_p99_drives_a_latency_split() {
    let site = site();
    let mut engine = Engine::new(sharded_config(&site, 2)).unwrap();
    let o = Obs::enabled();
    engine.set_obs(&o);
    engine.populate(&crawl(&site)).unwrap();

    let q = qlang::parse(TEXT_QUERY).unwrap();
    let before = engine.query(&q).unwrap();
    assert!(!before.is_empty());
    engine.invalidate_query_cache();

    let plan = FaultPlan::seeded(43);
    plan.set_delay_site("shard:0", DelaySpec::always(Duration::from_millis(25)));
    engine.text_index_mut().set_fault_plan(plan.shared());

    let svc = QueryService::new(engine);
    let mut operator = Operator::new(
        ControlConfig {
            split_docs_per_shard: usize::MAX, // only latency can trigger
            merge_docs_per_shard: 0,
            slow_shard: Duration::from_millis(5),
            cooldown_ticks: 0,
            max_servers: 3,
            ..ControlConfig::default()
        },
        standard_slos(),
        None,
    );

    // Build the slow-shard history: a few observed-slow parallel
    // queries ahead of the tick that samples them.
    for _ in 0..3 {
        svc.engine().query(&q).unwrap();
        svc.engine().invalidate_query_cache();
    }
    match operator.tick(&svc).unwrap().control {
        ControlOutcome::Acted(d) => {
            assert!(d.starts_with("split"), "{d}");
            assert!(d.contains("p99"), "the reason must cite latency: {d}");
        }
        other => panic!("expected a latency split, got {other:?}"),
    }
    // The window still holds the three slow queries; the report shows
    // the p99 the policy read.
    let p99_us = report_int(&operator.incident_report(&svc, "probe").render(), "shard_p99_us");
    assert!(p99_us >= 10_000, "windowed p99 {p99_us}us must see the 25ms stall");
    assert_eq!(svc.engine().text_index().servers(), 3);
    svc.engine().invalidate_query_cache();
    assert_eq!(svc.engine().query(&q).unwrap(), before, "cutover must not change answers");

    // The decision is on the flight recorder.
    assert!(
        o.flight_events()
            .iter()
            .any(|e| e.kind == "control" && e.detail.contains("split")),
        "control decisions must land in the flight ring"
    );
}
