//! Figure 2 — the global system architecture, end to end:
//! crawler → web-object retriever → XML view storage → feature grammar
//! analysis → meta-index → integrated query.

use std::sync::Arc;
use std::time::Duration;

use dlsearch::ausopen;
use faults::{FaultPlan, FaultSpec};
use websim::{crawl, Site, SiteSpec};

fn spec() -> SiteSpec {
    SiteSpec {
        players: 6,
        articles: 8,
        seed: 77,
    }
}

#[test]
fn populate_report_matches_the_site() {
    let site = Arc::new(Site::generate(spec()));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    let pages = crawl(&site);
    let report = engine.populate(&pages).unwrap();

    assert_eq!(report.pages, site.page_count());
    // One Player + one Profile per player, one Article per article.
    assert_eq!(report.objects, 2 * 6 + 8);
    // history per player + body per article.
    assert_eq!(report.text_documents, 6 + 8);
    // One video + one interview clip per player, none rejected.
    assert_eq!(report.media_analyzed, 12);
    assert_eq!(report.media_rejected, 0);
    assert!(report.detector_calls > 0);
    // Associations: player→profile and article→player (≥ 1 each).
    assert!(report.associations >= 6 + 8);
}

#[test]
fn conceptual_views_are_stored_as_xml_documents() {
    let site = Arc::new(Site::generate(spec()));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();

    // Every page that yielded objects has a stored view document.
    let views = engine.views();
    assert!(views.document_count() >= 2 * 6 + 8);
    // The path summary reflects the view encoding.
    let relations = views.summary().all_relations();
    assert!(relations.iter().any(|r| r == "view/object"));
    assert!(relations.iter().any(|r| r == "view/object[class]"));
    assert!(relations.iter().any(|r| r == "view/association[name]"));
}

#[test]
fn meta_index_holds_one_tree_per_media_object() {
    let site = Arc::new(Site::generate(spec()));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();

    assert_eq!(engine.meta().sources().len(), 12);
    for p in &site.players {
        assert!(engine.meta().contains(&p.video_url), "{}", p.video_url);
        assert!(engine.meta().contains(&p.audio_url), "{}", p.audio_url);
    }
}

#[test]
fn netplay_meta_data_matches_cobra_ground_truth() {
    let site = Arc::new(Site::generate(spec()));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();

    let grammar = engine.grammar().clone();
    for p in site.players.clone() {
        let tree = engine.meta_mut().tree(&grammar, &p.video_url).unwrap();
        let shots = dlsearch::video_shots(&tree);
        assert!(!shots.is_empty());
        let any_netplay = shots.iter().any(|s| s.netplay == Some(true));
        assert_eq!(any_netplay, p.video_has_netplay, "{}", p.key);
        // Shot boundaries align with the generated broadcast: 8 shots.
        assert_eq!(shots.len(), 8, "{}", p.key);
        // Tennis/cutaway alternation survived the whole pipeline.
        let tennis_count = shots.iter().filter(|s| s.is_tennis).count();
        assert_eq!(tennis_count, 4, "{}", p.key);
    }
}

#[test]
fn interview_meta_data_matches_audio_ground_truth() {
    let site = Arc::new(Site::generate(spec()));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();

    let grammar = engine.grammar().clone();
    for p in site.players.clone() {
        let tree = engine.meta_mut().tree(&grammar, &p.audio_url).unwrap();
        let verdicts: Vec<_> = tree
            .find_all("isInterview")
            .into_iter()
            .filter_map(|n| tree.value(n).cloned())
            .collect();
        assert_eq!(verdicts.len(), 1, "{}", p.key);
        assert_eq!(
            verdicts[0],
            feagram::FeatureValue::Bit(p.audio_is_interview),
            "{}",
            p.key
        );
    }
}

#[test]
fn interviews_are_queryable_as_media_events() {
    let site = Arc::new(Site::generate(spec()));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();

    let q = dlsearch::qlang::parse(
        "FROM Player VIA Is_covered_in MEDIA interview HAS isInterview TOP 100",
    )
    .unwrap();
    let hits = engine.query(&q).unwrap();
    let expected = site.players.iter().filter(|p| p.audio_is_interview).count();
    assert_eq!(hits.len(), expected);
}

#[test]
fn zero_fault_resilient_engine_answers_identically_to_the_plain_one() {
    // The supervised/remote detectors and the distributed text backend
    // are transparent when nothing fails.
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    let mut plain = ausopen::engine(Arc::clone(&site)).unwrap();
    let mut resilient =
        ausopen::resilient_engine(Arc::clone(&site), 1, FaultPlan::none().shared()).unwrap();
    let r1 = plain.populate(&pages).unwrap();
    let r2 = resilient.populate(&pages).unwrap();
    assert_eq!(r1, r2);
    assert_eq!(r2.media_degraded, 0);
    assert_eq!(r2.detector_failures, 0);

    for query in [
        r#"FROM Player TEXT history CONTAINS "Winner" TOP 10"#,
        "FROM Player VIA Is_covered_in MEDIA video HAS netplay TOP 100",
        "FROM Player VIA Is_covered_in MEDIA interview HAS isInterview TOP 100",
    ] {
        let q = dlsearch::qlang::parse(query).unwrap();
        assert_eq!(plain.query(&q).unwrap(), resilient.query(&q).unwrap(), "{query}");
    }
}

#[test]
fn degraded_run_reports_failures_and_answers_from_survivor_shards() {
    // 20% transport errors on every remote detector plus one text
    // server that hangs on every query: the pipeline must complete end
    // to end, reporting what degraded instead of erroring out.
    let site = Arc::new(Site::generate(spec()));
    let plan = FaultPlan::seeded(11)
        .with_site("rpc:segment", FaultSpec::errors(0.2))
        .with_site("rpc:tennis", FaultSpec::errors(0.2))
        .with_site("rpc:interview", FaultSpec::errors(0.2))
        // One guaranteed outage: the first tennis call errors through
        // all its retries (the probabilistic 20% alone may be absorbed
        // by the supervisor's retries).
        .with_script("rpc:tennis", vec![faults::FaultAction::Error; 3])
        .with_site("shard:2", FaultSpec::always_hang())
        .shared();
    let mut engine = ausopen::resilient_engine(Arc::clone(&site), 4, plan).unwrap();
    engine.text_index_mut().set_shard_deadline(Duration::from_millis(50));
    engine.text_index_mut().set_hang_duration(Duration::from_millis(150));

    let report = engine.populate(&crawl(&site)).unwrap();
    // Every media object was analysed — outages leave healable holes,
    // they don't reject objects.
    assert_eq!(report.media_analyzed, 12);
    assert_eq!(report.media_rejected, 0);
    // The failures were counted, not dropped (seeded plan: this run
    // deterministically exhausts the supervisor's retries at least once).
    assert!(report.detector_failures >= 1, "{report:?}");
    assert!(report.media_degraded >= 1, "{report:?}");

    // Ranked text retrieval answers from the three surviving servers.
    let q = dlsearch::qlang::parse(r#"FROM Player TEXT history CONTAINS "Winner" TOP 10"#)
        .unwrap();
    let outcome = engine.execute(&q, &dlsearch::QueryOptions::default()).unwrap();
    assert!(!outcome.hits.is_empty(), "survivors must still answer");
    let status = outcome.text.as_ref().unwrap();
    assert_eq!(status.shards_failed, 1);
    assert_eq!(status.failed_shards, vec![2]);
    assert!(status.quality > 0.0 && status.quality < 1.0, "{status:?}");

    // The plan explanation surfaces the degradation.
    let explain = engine.explain(&q, Some(&outcome));
    assert!(explain.contains("4 shared-nothing text servers"), "{explain}");
    assert!(explain.contains("DEGRADED"), "{explain}");
}

#[test]
fn repopulating_a_fresh_engine_is_deterministic() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    let mut e1 = ausopen::engine(Arc::clone(&site)).unwrap();
    let r1 = e1.populate(&pages).unwrap();
    let mut e2 = ausopen::engine(Arc::clone(&site)).unwrap();
    let r2 = e2.populate(&pages).unwrap();
    assert_eq!(r1, r2);
}
