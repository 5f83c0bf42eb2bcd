//! The parallel ingestion pipeline: `populate_with` fans media
//! analysis over a worker pool, but a single writer merges parse trees
//! in source order — so every store snapshot, report counter and query
//! answer must be *identical* to the sequential run, for any worker
//! count, healthy or degraded. Plus the epoch-keyed query cache:
//! warm answers equal cold ones, ingestion and store-changing
//! maintenance or refreshes invalidate them, and provably
//! store-preserving ones retain them.

// Helpers outside `#[test]` functions unwrap too (clippy.toml only
// exempts the tests themselves).
#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use dlsearch::{ausopen, qlang, Engine, PopulateOptions, PopulateReport, QueryOptions};
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
fn parallel_populate_is_byte_identical_to_sequential() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);

    let mut baseline = None;
    for workers in [1usize, 2, 8] {
        let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
        let report = engine
            .populate_with(&pages, PopulateOptions { workers })
            .unwrap();
        assert!(report.media_analyzed > 0);
        assert_eq!(report.media_degraded, 0);
        let observed = observe(&mut engine, report);
        match &baseline {
            None => baseline = Some(observed),
            Some(base) => {
                assert_eq!(base.0, observed.0, "report differs at workers={workers}");
                assert_eq!(base.1, observed.1, "views snapshot differs at workers={workers}");
                assert_eq!(base.2, observed.2, "meta snapshot differs at workers={workers}");
                assert_eq!(base.3, observed.3, "text epoch differs at workers={workers}");
                assert_eq!(base.4, observed.4, "query answers differ at workers={workers}");
            }
        }
    }
}

#[test]
fn degraded_populate_is_deterministic_across_worker_counts() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    // Keyed faults: each (detector, location) pair fails or succeeds as
    // a pure function of the seed, never of scheduling order.
    let plan = || {
        FaultPlan::seeded(7)
            .with_site("det:segment", FaultSpec::errors(0.4))
            .with_site("det:interview", FaultSpec::errors(0.4))
            .shared()
    };

    let mut baseline = None;
    for workers in [1usize, 2, 8] {
        let mut engine = ausopen::flaky_engine(Arc::clone(&site), plan()).unwrap();
        let report = engine
            .populate_with(&pages, PopulateOptions { workers })
            .unwrap();
        let observed = observe(&mut engine, report);
        match &baseline {
            None => {
                // The plan must actually bite, or the test is vacuous.
                assert!(
                    observed.0.media_degraded > 0,
                    "fault plan injected nothing: {:?}",
                    observed.0
                );
                assert!(observed.0.detector_failures > 0);
                baseline = Some(observed);
            }
            Some(base) => {
                assert_eq!(base.0, observed.0, "degraded report differs at workers={workers}");
                assert_eq!(base.2, observed.2, "degraded meta differs at workers={workers}");
                assert_eq!(base.4, observed.4, "degraded answers differ at workers={workers}");
            }
        }
    }
}

#[test]
fn populate_with_zero_workers_behaves_like_one() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    let mut seq = ausopen::engine(Arc::clone(&site)).unwrap();
    let seq_report = seq.populate(&pages).unwrap();
    let mut zero = ausopen::engine(Arc::clone(&site)).unwrap();
    let zero_report = zero
        .populate_with(&pages, PopulateOptions { workers: 0 })
        .unwrap();
    assert_eq!(seq_report, zero_report);
    assert_eq!(
        seq.views().snapshot().unwrap(),
        zero.views().snapshot().unwrap()
    );
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
