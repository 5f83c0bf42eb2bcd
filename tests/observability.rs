//! The unified observability layer, end to end:
//!
//! * enabling observability never changes an answer — a plain engine
//!   and an instrumented one produce byte-identical hits and store
//!   digests, and a traced `execute` returns exactly what `query` returns,
//! * one scrape of `metrics_text()` spans every layer of the system
//!   (engine, admission, webspace, monetxml, ir, monet, obs itself),
//! * the EXPLAIN ANALYZE tree is physically plausible: child wall time
//!   sums to no more than the root, per-shard children appear under
//!   the text phase, cache hits are annotated,
//! * the slow-query log is bounded.

use std::path::PathBuf;
use std::sync::Arc;

use dlsearch::{ausopen, qlang, Engine, EngineConfig, QueryOptions};
use obs::{Obs, TraceNode};
use websim::{crawl, Site, SiteSpec};

const FIGURE13: &str = r#"
    FROM Player
    WHERE gender = "female" AND hand = "left"
    TEXT history CONTAINS "Winner"
    VIA Is_covered_in
    MEDIA video HAS netplay
    TOP 10
"#;

const TRACED: QueryOptions<'static> = QueryOptions {
    budget: None,
    level: dlsearch::OverloadLevel::Healthy,
    trace: true,
};

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
    let dir = std::env::temp_dir().join(format!("dl_obs_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Enabling observability must not change a single output byte: same
/// hits, same stores, and a traced `execute` answers what `query` answers.
#[test]
fn enabled_observability_is_byte_identical_to_disabled() {
    let site = site();
    let pages = crawl(&site);
    let queries = [
        FIGURE13,
        r#"FROM Player WHERE hand = "right" TOP 5"#,
        r#"FROM Player TEXT history CONTAINS "Winner" TOP 8"#,
    ];

    let mut plain = ausopen::engine(Arc::clone(&site)).unwrap();
    plain.populate(&pages).unwrap();

    let mut observed = ausopen::engine(Arc::clone(&site)).unwrap();
    let o = Obs::enabled();
    observed.set_obs(&o);
    observed.populate(&pages).unwrap();

    for q in &queries {
        let query = qlang::parse(q).unwrap();
        let expected = plain.query(&query).unwrap();
        let answered = observed.query(&query).unwrap();
        assert_eq!(answered, expected, "observed engine diverged on {q}");
        // Asking for the trace returns the identical answer too.
        let traced = observed.execute(&query, &TRACED).unwrap();
        assert_eq!(traced.hits, expected, "traced answer diverged on {q}");
    }
    assert_eq!(
        plain.state_digest().unwrap(),
        observed.state_digest().unwrap(),
        "instrumentation changed persistent state"
    );
    // A never-enabled engine exposes no metrics and collects no trace.
    assert!(plain.metrics_text().is_empty());
    let untraced = plain.execute(&qlang::parse(FIGURE13).unwrap(), &TRACED).unwrap();
    assert!(untraced.trace.is_none());
    assert!(untraced.explain_analyze().contains("observability disabled"));
}

/// One scrape covers the whole system: at least 20 distinct metric
/// families, drawn from at least 5 crate prefixes.
#[test]
fn metrics_scrape_spans_every_layer() {
    let site = site();
    let mut engine =
        Engine::new(sharded_config(&site, 3)).unwrap();
    let o = Obs::enabled();
    engine.set_obs(&o);
    engine.populate(&crawl(&site)).unwrap();
    let dir = tmp("scrape");
    engine.persist_to(&dir).unwrap();
    let query = qlang::parse(FIGURE13).unwrap();
    engine.query(&query).unwrap();
    engine.query(&query).unwrap(); // second run hits the answer cache

    let text = engine.metrics_text();
    let families: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(
        families.len() >= 20,
        "expected >= 20 metric families, got {}: {families:?}",
        families.len()
    );
    let prefixes: std::collections::BTreeSet<&str> = families
        .iter()
        .filter_map(|f| f.split('_').next())
        .collect();
    assert!(
        prefixes.len() >= 5,
        "expected >= 5 crate prefixes, got {prefixes:?}"
    );
    for expected in [
        "engine_queries_total",
        "engine_query_cache_hits_total",
        "admission_level",
        "webspace_queries_total",
        "monetxml_loads_total",
        "ir_queries_total",
        "ir_control_decisions_total",
        "ir_rereplication_objects_total",
        "ir_read_route_total",
        "monet_wal_appends_total",
        "obs_span_seconds",
    ] {
        assert!(
            families.contains(&expected),
            "missing family {expected} in scrape:\n{text}"
        );
    }
    // Exposition format sanity: help + type + a sample per family.
    assert!(text.contains("# HELP engine_queries_total"));
    assert!(text.contains("# TYPE engine_queries_total counter"));
    assert!(text.contains("# TYPE obs_span_seconds histogram"));
    assert!(text.contains("obs_span_seconds_bucket"));
    std::fs::remove_dir_all(&dir).ok();
}

fn assert_child_times_fit(node: &TraceNode) {
    assert!(
        node.child_elapsed_ns() <= node.elapsed_ns,
        "children of `{}` sum to {}ns > parent {}ns",
        node.name,
        node.child_elapsed_ns(),
        node.elapsed_ns
    );
    for child in &node.children {
        assert_child_times_fit(child);
    }
}

/// The EXPLAIN ANALYZE tree: a query root with conceptual / text /
/// refine phases, per-shard children under the text phase, and wall
/// times that nest consistently.
#[test]
fn traced_query_produces_a_consistent_phase_tree() {
    let site = site();
    let mut engine = Engine::new(sharded_config(&site, 3)).unwrap();
    let o = Obs::enabled();
    engine.set_obs(&o);
    engine.populate(&crawl(&site)).unwrap();

    let query = qlang::parse(FIGURE13).unwrap();
    let traced = engine.execute(&query, &TRACED).unwrap();
    let root = traced.trace.clone().expect("enabled engine must collect a trace");

    assert_eq!(root.name, "engine.query");
    assert_child_times_fit(&root);
    let phase_names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
    for phase in ["engine.query.conceptual", "engine.query.text", "engine.query.refine"] {
        assert!(
            phase_names.contains(&phase),
            "missing phase {phase} in {phase_names:?}"
        );
    }
    // Per-shard children (satellite: shard timing on every path) under
    // the text phase — one per shared-nothing text server.
    let text_phase = root
        .children
        .iter()
        .find(|c| c.name == "engine.query.text")
        .unwrap();
    let shard_names: Vec<&str> =
        text_phase.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        shard_names,
        vec!["shard-0", "shard-1", "shard-2"],
        "expected one child span per text server"
    );
    // The rendered report is a readable EXPLAIN ANALYZE.
    let rendered = traced.explain_analyze();
    assert!(rendered.starts_with("EXPLAIN ANALYZE"));
    assert!(rendered.contains("engine.query.text"));
    assert!(rendered.contains("shard-1"));
}

/// The second identical query is served by the answer cache — and the
/// trace says so.
#[test]
fn cache_hits_are_annotated_in_the_trace() {
    let site = site();
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    let o = Obs::enabled();
    engine.set_obs(&o);
    engine.populate(&crawl(&site)).unwrap();

    let query = qlang::parse(FIGURE13).unwrap();
    let first = engine.execute(&query, &TRACED).unwrap();
    let miss_root = first.trace.unwrap();
    assert!(
        miss_root.notes.iter().any(|n| n == "cache=miss"),
        "first run should note cache=miss: {:?}",
        miss_root.notes
    );
    let second = engine.execute(&query, &TRACED).unwrap();
    assert_eq!(second.hits, first.hits);
    let hit_root = second.trace.unwrap();
    assert!(
        hit_root.notes.iter().any(|n| n == "cache=hit"),
        "second run should note cache=hit: {:?}",
        hit_root.notes
    );
    // A cache hit runs no phases.
    assert!(hit_root.children.is_empty());
    let reg = o.registry().unwrap();
    assert_eq!(
        reg.counter("engine_query_cache_hits_total", "").get(),
        1
    );
}

/// The slow-query log keeps only the slowest N traces.
#[test]
fn slow_query_log_is_bounded() {
    let site = site();
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    let o = Obs::enabled();
    o.set_slow_threshold_ns(0); // keep everything…
    o.set_slow_capacity(4); // …up to the ring size
    engine.set_obs(&o);
    engine.populate(&crawl(&site)).unwrap();

    for top in 1..=7 {
        let query = qlang::parse(&format!(
            r#"FROM Player TEXT history CONTAINS "Winner" TOP {top}"#
        ))
        .unwrap();
        engine.execute(&query, &TRACED).unwrap();
    }
    let slow = o.slow_queries();
    assert_eq!(slow.len(), 4, "ring must cap at its capacity");
    // Slowest first, and every entry carries its full trace.
    for pair in slow.windows(2) {
        assert!(pair[0].total_ns >= pair[1].total_ns);
    }
    for entry in &slow {
        assert_eq!(entry.trace.name, "engine.query");
        assert_eq!(entry.total_ns, entry.trace.elapsed_ns);
    }
}

/// Degraded execution is visible: a browned-out answer bumps the
/// degraded counter and the trace outcome.
#[test]
fn brownout_answers_are_counted_and_marked() {
    use dlsearch::OverloadLevel;

    let site = site();
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    let o = Obs::enabled();
    engine.set_obs(&o);
    engine.populate(&crawl(&site)).unwrap();

    let query = qlang::parse(FIGURE13).unwrap();
    let brownout = QueryOptions {
        level: OverloadLevel::Brownout,
        ..TRACED
    };
    let outcome = engine.execute(&query, &brownout).unwrap();
    let root = outcome.trace.clone().expect("brownout query must trace");
    assert!(!outcome.degraded.is_empty());
    assert!(outcome.quality < 1.0);
    assert_eq!(root.outcome, obs::Outcome::Degraded);
    let reg = o.registry().unwrap();
    assert_eq!(reg.counter("engine_degraded_answers_total", "").get(), 1);
}

/// Satellite: slow-ring eviction under equal wall times is
/// deterministic — stable by arrival order, earliest survive.
#[test]
fn slow_ring_tie_eviction_is_stable_by_arrival() {
    let o = Obs::with_clock(Box::new(obs::NoopClock));
    o.set_slow_threshold_ns(100);
    o.set_slow_capacity(2);
    let node = |ns: u64| TraceNode {
        name: "engine.query".to_owned(),
        elapsed_ns: ns,
        work: 0,
        outcome: obs::Outcome::Ok,
        notes: Vec::new(),
        children: Vec::new(),
    };
    // Three offers with identical wall time: the first two arrivals
    // stay, the third is refused — every time.
    o.offer_slow("first", &node(500));
    o.offer_slow("second", &node(500));
    o.offer_slow("third", &node(500));
    let slow = o.slow_queries();
    assert_eq!(slow.len(), 2);
    assert_eq!(slow[0].label, "first");
    assert_eq!(slow[1].label, "second");
    assert!(slow[0].seq < slow[1].seq, "seq must follow arrival order");
    // A strictly slower trace still preempts the tie group…
    o.offer_slow("slowest", &node(900));
    let slow = o.slow_queries();
    assert_eq!(
        slow.iter().map(|e| e.label.as_str()).collect::<Vec<_>>(),
        vec!["slowest", "first"]
    );
    // …and a strictly faster one (above threshold) is refused.
    o.offer_slow("faster", &node(200));
    let slow = o.slow_queries();
    assert_eq!(
        slow.iter().map(|e| e.label.as_str()).collect::<Vec<_>>(),
        vec!["slowest", "first"]
    );
}

/// Satellite: registry hygiene over a fully-exercised engine — every
/// family carries help text and follows the naming convention
/// (`<crate>_<noun>…` with counters ending `_total` and histograms
/// ending in a unit).
#[test]
fn registry_hygiene_help_and_naming_convention() {
    use dlsearch::{QueryService, Telemetry, TelemetryConfig};

    let site = site();
    let mut engine = Engine::new(sharded_config(&site, 3)).unwrap();
    let o = Obs::enabled();
    engine.set_obs(&o);
    engine.populate(&crawl(&site)).unwrap();
    let dir = tmp("hygiene");
    engine.persist_to(&dir).unwrap();
    let query = qlang::parse(FIGURE13).unwrap();
    engine.query(&query).unwrap();
    engine.query(&query).unwrap();
    // Register the telemetry-layer families too.
    let svc = QueryService::new(engine);
    let mut telemetry = Telemetry::new(&o, TelemetryConfig::default());
    telemetry.tick(&svc).unwrap();

    let metas = o.registry().unwrap().family_metas();
    assert!(metas.len() >= 30, "expected a broad registry, got {}", metas.len());
    const PREFIXES: &[&str] = &[
        "engine", "admission", "webspace", "monetxml", "monet", "ir", "acoi", "faults", "obs",
    ];
    for meta in &metas {
        assert!(
            !meta.help.trim().is_empty(),
            "family `{}` has empty help text",
            meta.name
        );
        assert!(
            meta.name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "family `{}` is not lower_snake_case",
            meta.name
        );
        let segments: Vec<&str> = meta.name.split('_').collect();
        assert!(
            segments.len() >= 2 && segments.iter().all(|s| !s.is_empty()),
            "family `{}` must be `<crate>_<noun>[_<unit|total>]`",
            meta.name
        );
        assert!(
            PREFIXES.contains(&segments[0]),
            "family `{}` has unknown crate prefix `{}`",
            meta.name,
            segments[0]
        );
        match meta.kind {
            "counter" => assert!(
                meta.name.ends_with("_total"),
                "counter `{}` must end in `_total`",
                meta.name
            ),
            "histogram" => assert!(
                meta.name.ends_with("_seconds") || meta.name.ends_with("_bytes"),
                "histogram `{}` must end in a unit (`_seconds`/`_bytes`)",
                meta.name
            ),
            _ => {}
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: re-registering a family name as a different kind panics
/// with a message naming the family and both kinds.
#[test]
#[should_panic(expected = "already registered as a counter")]
fn duplicate_family_registration_panics_clearly() {
    let o = Obs::enabled();
    let reg = o.registry().unwrap();
    reg.counter("engine_queries_total", "queries");
    reg.gauge("engine_queries_total", "not a counter");
}
