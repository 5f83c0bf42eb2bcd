//! Populate is deterministic: it analyses media inline, in source
//! order, so two fresh engines fed the same pages under the same
//! seeded fault plan leave identical reports, stores and answers.
//! Plus the epoch-keyed query cache: warm answers equal cold ones,
//! ingestion and store-changing maintenance or refreshes invalidate
//! them, provably store-preserving ones retain them, and a text tier
//! with a fault plan never serves from it.

// Helpers outside `#[test]` functions unwrap too (clippy.toml only
// exempts the tests themselves).
#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use dlsearch::{ausopen, qlang, Engine, PopulateReport, QueryOptions};
use faults::{FaultPlan, FaultSpec};
use websim::{crawl, Site, SiteSpec};

mod common;
use common::run_to_completion;

fn spec() -> SiteSpec {
    SiteSpec {
        players: 8,
        articles: 10,
        seed: 42,
    }
}

const FIGURE13: &str = r#"
    FROM Player
    WHERE gender = "female" AND hand = "left"
    TEXT history CONTAINS "Winner"
    VIA Is_covered_in
    MEDIA video HAS netplay
    TOP 10
"#;

const TEXT_ONLY: &str = r#"
    FROM Article
    TEXT body CONTAINS "tennis court"
    TOP 5
"#;

/// Everything observable about one populated engine: the report, both
/// store snapshots (bytes!), the text-index epoch and the answers to
/// the reference queries.
fn observe(engine: &mut Engine, report: PopulateReport) -> (PopulateReport, Vec<u8>, Vec<u8>, u64, String) {
    let views = engine.views().snapshot().unwrap();
    let meta = engine.meta().store().snapshot().unwrap();
    let text_epoch = engine.text_index().epoch();
    let mut answers = String::new();
    for q in [FIGURE13, TEXT_ONLY] {
        let query = qlang::parse(q).unwrap();
        let hits = engine.query(&query).unwrap();
        answers.push_str(&format!("{hits:?}\n"));
    }
    (report, views, meta, text_epoch, answers)
}

#[test]
fn degraded_populate_is_deterministic() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    // Keyed faults: each (detector, location) pair fails or succeeds as
    // a pure function of the seed.
    let plan = || {
        FaultPlan::seeded(7)
            .with_site("det:segment", FaultSpec::errors(0.4))
            .with_site("det:interview", FaultSpec::errors(0.4))
            .shared()
    };
    let run = || {
        let mut engine = ausopen::flaky_engine(Arc::clone(&site), plan()).unwrap();
        let report = engine.populate(&pages).unwrap();
        observe(&mut engine, report)
    };

    let first = run();
    // The plan must actually bite, or the test is vacuous.
    assert!(
        first.0.media_degraded > 0,
        "fault plan injected nothing: {:?}",
        first.0
    );
    assert!(first.0.detector_failures > 0);
    let second = run();
    assert_eq!(first.0, second.0, "degraded report differs between runs");
    assert_eq!(first.1, second.1, "degraded views differ between runs");
    assert_eq!(first.2, second.2, "degraded meta differs between runs");
    assert_eq!(
        first.3, second.3,
        "degraded text epoch differs between runs"
    );
    assert_eq!(first.4, second.4, "degraded answers differ between runs");
}

#[test]
fn query_cache_serves_warm_answers_until_ingest_invalidates() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&pages).unwrap();

    let query = qlang::parse(FIGURE13).unwrap();
    let cold = engine.execute(&query, &QueryOptions::default()).unwrap();
    assert_eq!(engine.query_cache_stats(), (0, 1));

    // Warm: identical answer, including the text status, no new miss.
    let warm = engine.execute(&query, &QueryOptions::default()).unwrap();
    assert_eq!(cold, warm);
    assert_eq!(engine.query_cache_stats(), (1, 1));
    assert_eq!(
        warm.text.as_ref().map(|s| s.shards_ok),
        Some(1),
        "a cache hit must report the text status of the miss"
    );

    // A source refresh that regenerates the stored tree invalidates, so
    // the same query misses again and recomputes.
    let video = site.players[0].video_url.clone();
    assert!(engine.refresh_source(&video, |_| false).unwrap());
    let after = engine.query(&query).unwrap();
    assert_eq!(engine.query_cache_stats(), (1, 2));
    assert_eq!(cold.hits, after, "recomputing over unchanged stores must not change the answer");
}

#[test]
fn query_cache_normalizes_spelling_variants() {
    let site = Arc::new(Site::generate(spec()));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();

    // "Winner" and "winners" stem identically, so the second query is
    // answered from the first one's cache entry.
    let q1 = qlang::parse(FIGURE13).unwrap();
    let q2 = qlang::parse(&FIGURE13.replace("\"Winner\"", "\"winners\"")).unwrap();
    let a1 = engine.query(&q1).unwrap();
    let a2 = engine.query(&q2).unwrap();
    assert_eq!(a1, a2);
    assert_eq!(engine.query_cache_stats(), (1, 1));
}

#[test]
fn maintenance_invalidates_the_query_cache_only_when_trees_changed() {
    let site = Arc::new(Site::generate(spec()));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();

    let query = qlang::parse(FIGURE13).unwrap();
    engine.query(&query).unwrap();
    engine.query(&query).unwrap();
    assert_eq!(engine.query_cache_stats(), (1, 1));

    // A heal that finds nothing to heal re-parses zero objects: the
    // store is provably unchanged, so the cached answer stays valid
    // and the cache is retained.
    let job = engine.begin_heal("segment").unwrap();
    let report = run_to_completion(&mut engine, job).unwrap();
    assert_eq!(report.objects_reparsed, 0);
    engine.query(&query).unwrap();
    assert_eq!(engine.query_cache_stats(), (2, 1));

    // A minor revision that actually re-parses trees must still
    // invalidate: the same query misses and recomputes.
    let job = engine
        .begin_upgrade(
            "tennis",
            acoi::RevisionLevel::Minor,
            Box::new(|inputs| {
                let begin = inputs[1].as_f64().ok_or("no begin")? as i64;
                Ok(vec![
                    acoi::Token::new("frameNo", begin),
                    acoi::Token::new("xPos", 320.0),
                    acoi::Token::new("yPos", 100.0),
                    acoi::Token::new("Area", 1000i64),
                    acoi::Token::new("Ecc", 0.9),
                    acoi::Token::new("Orient", 90.0),
                ])
            }),
        )
        .unwrap();
    let report = run_to_completion(&mut engine, job).unwrap();
    assert!(report.objects_reparsed > 0);
    engine.query(&query).unwrap();
    assert_eq!(engine.query_cache_stats(), (2, 2));

    // The same rule for a source refresh: one that finds the source
    // still valid regenerates nothing and keeps the cache, one that
    // finds it changed regenerates the tree and invalidates.
    let video = site.players[0].video_url.clone();
    assert!(!engine.refresh_source(&video, |_| true).unwrap());
    engine.query(&query).unwrap();
    assert_eq!(engine.query_cache_stats(), (3, 2));
    assert!(engine.refresh_source(&video, |_| false).unwrap());
    engine.query(&query).unwrap();
    assert_eq!(engine.query_cache_stats(), (3, 3));
}

#[test]
fn fault_injected_engines_bypass_the_cache() {
    let site = Arc::new(Site::generate(spec()));
    let mut engine =
        ausopen::resilient_engine(Arc::clone(&site), 2, FaultPlan::none().shared()).unwrap();
    engine.populate(&crawl(&site)).unwrap();

    let query = qlang::parse(FIGURE13).unwrap();
    engine.query(&query).unwrap();
    engine.query(&query).unwrap();
    // Neither query touched the cache: injection draws must advance.
    assert_eq!(engine.query_cache_stats(), (0, 0));
}

#[test]
fn a_plan_wired_into_the_text_tier_alone_bypasses_the_cache() {
    let site = Arc::new(Site::generate(spec()));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();
    // Wired after construction, as the chaos suites do: the engine's
    // configuration carries no plan, but every query consults this one.
    engine
        .text_index_mut()
        .set_fault_plan(FaultPlan::none().shared());

    let query = qlang::parse(FIGURE13).unwrap();
    engine.query(&query).unwrap();
    engine.query(&query).unwrap();
    assert_eq!(engine.query_cache_stats(), (0, 0));
}

#[test]
fn store_epochs_advance_with_ingestion() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    assert_eq!(engine.views().epoch(), 0);
    assert_eq!(engine.text_index().epoch(), 0);
    engine.populate(&pages).unwrap();
    assert!(engine.views().epoch() > 0);
    assert!(engine.text_index().epoch() > 0);
    assert!(engine.meta().store().epoch() > 0);

    // Maintenance that rewrites stored trees moves the meta epoch, so
    // epoch-keyed cache entries can never survive it.
    let meta1 = engine.meta().store().epoch();
    let job = engine
        .begin_upgrade(
            "segment",
            acoi::RevisionLevel::Minor,
            Box::new(|_| Err("segment offline".into())),
        )
        .unwrap();
    let report = run_to_completion(&mut engine, job).unwrap();
    if report.objects_reparsed > 0 {
        assert!(engine.meta().store().epoch() > meta1);
    }
}

/// An analysis that ends in a rejection still ran its detectors: the
/// populate report and `engine_detector_calls_total` count every
/// detector execution, whatever the outcome of the parse. The MIME
/// sniff of the first media object answers "not media", so its start
/// symbol cannot be proven and that analysis is rejected.
#[test]
fn rejected_analyses_count_their_detector_calls() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    let site = Arc::new(Site::generate(spec()));
    let linked = Arc::new(ausopen::detectors(Arc::clone(&site)));
    let executed = Arc::new(AtomicUsize::new(0));
    let rejected = Arc::new(AtomicBool::new(false));
    let mut registry = acoi::DetectorRegistry::new();
    for name in ["header", "segment", "tennis", "interview"] {
        let (linked, executed, rejected) =
            (Arc::clone(&linked), Arc::clone(&executed), Arc::clone(&rejected));
        let counted: acoi::DetectorFn = Box::new(move |inputs| {
            executed.fetch_add(1, Ordering::Relaxed);
            if name == "header" && !rejected.swap(true, Ordering::Relaxed) {
                return Err(acoi::DetectorError::Reject("not a media object".into()));
            }
            linked
                .run(name, inputs)
                .map_err(|e| acoi::DetectorError::Unavailable(e.to_string()))
        });
        registry.register(name, acoi::Version::new(1, 0, 0), counted);
    }
    let mut engine = Engine::new(dlsearch::EngineConfig {
        registry,
        ..ausopen::config(Arc::clone(&site))
    })
    .unwrap();
    let o = obs::Obs::enabled();
    engine.set_obs(&o);

    let report = engine.populate(&crawl(&site)).unwrap();
    assert_eq!(report.media_rejected, 1, "{report:?}");
    assert!(report.media_analyzed > 0, "{report:?}");
    let executed = executed.load(Ordering::Relaxed);
    assert_eq!(report.detector_calls, executed, "{report:?}");
    let text = engine.metrics_text();
    let counted = text
        .lines()
        .find_map(|l| l.strip_prefix("engine_detector_calls_total "))
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or_else(|| panic!("engine_detector_calls_total missing:\n{text}"));
    assert_eq!(counted, executed);
}
