//! The maintenance stage: detector evolution handled by the FDS.
//!
//! "The real benefit of a feature grammar shows when the feature
//! detector algorithms change and the index has to be updated."

// Helpers outside `#[test]` functions unwrap too (clippy.toml only
// exempts the tests themselves).
#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use acoi::{RevisionLevel, Token};
use dlsearch::{ausopen, qlang};
use websim::{crawl, Site, SiteSpec};

mod common;
use common::run_to_completion;

fn populated_engine(seed: u64) -> (Arc<Site>, dlsearch::Engine) {
    let site = Arc::new(Site::generate(SiteSpec {
        players: 4,
        articles: 4,
        seed,
    }));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();
    (site, engine)
}

#[test]
fn correction_revision_changes_nothing() {
    let (_, mut engine) = populated_engine(31);
    let job = engine
        .begin_upgrade(
            "tennis",
            RevisionLevel::Correction,
            Box::new(|_| Ok(vec![])),
        )
        .unwrap();
    let report = run_to_completion(&mut engine, job).unwrap();
    assert_eq!(report.objects_reparsed, 0);
    assert_eq!(report.detector_calls, 0);
    // 4 video trees + 4 interview trees, all untouched.
    assert_eq!(report.objects_untouched, 8);
}

#[test]
fn minor_revision_reuses_header_and_segment_results() {
    let (_, mut engine) = populated_engine(32);
    // A new tracker implementation: the player is reported glued to the
    // net in every frame.
    let job = engine
        .begin_upgrade(
            "tennis",
            RevisionLevel::Minor,
            Box::new(|inputs| {
                let begin = inputs[1].as_f64().ok_or("no begin")? as i64;
                Ok(vec![
                    Token::new("frameNo", begin),
                    Token::new("xPos", 320.0),
                    Token::new("yPos", 100.0),
                    Token::new("Area", 1000i64),
                    Token::new("Ecc", 0.9),
                    Token::new("Orient", 90.0),
                ])
            }),
        )
        .unwrap();
    let report = run_to_completion(&mut engine, job).unwrap();

    assert_eq!(report.objects_reparsed, 4);
    // Each video: 4 tennis shots re-analysed, header + segment reused.
    assert_eq!(report.detector_calls, 4 * 4);
    assert_eq!(report.detector_calls_saved, 4 * 2);

    // The change is queryable: every player's video now has netplay in
    // every tennis shot.
    let q = qlang::parse("FROM Player VIA Is_covered_in MEDIA video HAS netplay TOP 100")
        .unwrap();
    let hits = engine.query(&q).unwrap();
    assert_eq!(hits.len(), 4);
    for hit in &hits {
        assert_eq!(hit.shots.len(), 4);
    }
}

#[test]
fn major_revision_of_segment_cascades_to_tennis() {
    let (_, mut engine) = populated_engine(33);
    // One giant tennis shot per video.
    let job = engine
        .begin_upgrade(
            "segment",
            RevisionLevel::Major,
            Box::new(|_| {
                Ok(vec![
                    Token::new("frameNo", 0i64),
                    Token::new("frameNo", 319i64),
                    Token::new("type", "tennis"),
                ])
            }),
        )
        .unwrap();
    let report = run_to_completion(&mut engine, job).unwrap();
    assert_eq!(report.objects_reparsed, 4);
    // Only header results were reusable.
    assert_eq!(report.detector_calls_saved, 4);
    assert!(report.plan.invalidated.contains("tennis"));
    assert!(report.plan.invalidated.contains("netplay"));

    let grammar = engine.grammar().clone();
    let sources: Vec<String> = engine.meta().sources().to_vec();
    for source in sources {
        // Only the video trees contain shots; interview trees were
        // untouched by the segment revision.
        if !source.ends_with(".mpg") {
            continue;
        }
        let tree = engine.meta_mut().tree(&grammar, &source).unwrap();
        assert_eq!(dlsearch::video_shots(&tree).len(), 1, "{source}");
    }
}

#[test]
fn incremental_maintenance_beats_full_rebuild_on_detector_calls() {
    // The quantitative heart of the flexibility claim (experiment E3's
    // correctness side): a tennis revision re-runs tennis only.
    let (site, mut engine) = populated_engine(34);
    let job = engine
        .begin_upgrade(
            "tennis",
            RevisionLevel::Minor,
            Box::new(|inputs| {
                let begin = inputs[1].as_f64().ok_or("no begin")? as i64;
                Ok(vec![
                    Token::new("frameNo", begin),
                    Token::new("xPos", 1.0),
                    Token::new("yPos", 400.0),
                    Token::new("Area", 900i64),
                    Token::new("Ecc", 0.8),
                    Token::new("Orient", 80.0),
                ])
            }),
        )
        .unwrap();
    let report = run_to_completion(&mut engine, job).unwrap();

    // A full rebuild would have cost (header + segment + 4×tennis) per
    // video; incremental cost is 4×tennis per video.
    let full_rebuild_calls = site.players.len() * (1 + 1 + 4);
    let incremental_calls = report.detector_calls;
    assert_eq!(incremental_calls, site.players.len() * 4);
    assert!(incremental_calls < full_rebuild_calls);
    assert_eq!(
        report.detector_calls + report.detector_calls_saved,
        full_rebuild_calls
    );
}

#[test]
fn scripted_fail_then_recover_detector_heals_after_the_scheduler_drains() {
    use faults::{FaultAction, FaultPlan};

    let site = Arc::new(Site::generate(SiteSpec {
        players: 2,
        articles: 0,
        seed: 36,
    }));
    // The first supervised `tennis` call sees a transport error on all
    // three attempts (retries included) and gives up; every later call
    // succeeds — a scripted fail-then-recover outage.
    let plan = FaultPlan::seeded(0)
        .with_script("rpc:tennis", vec![FaultAction::Error; 3])
        .shared();
    let mut engine =
        ausopen::resilient_engine(Arc::clone(&site), 1, plan).unwrap();
    let report = engine.populate(&crawl(&site)).unwrap();
    assert_eq!(report.media_degraded, 1);

    // The outage hit exactly one shot of the first video: a
    // rejected-with-cause hole, not a failed parse.
    let grammar = engine.grammar().clone();
    let broken = site.players[0].video_url.clone();
    let tree = engine.meta_mut().tree(&grammar, &broken).unwrap();
    let rejected = tree.rejected_nodes();
    assert_eq!(rejected.len(), 1, "{rejected:?}");
    assert_eq!(rejected[0].1, "tennis");
    assert!(rejected[0].2.contains("injected transport error"), "{rejected:?}");
    let healthy = engine
        .meta_mut()
        .tree(&grammar, &site.players[1].video_url)
        .unwrap();
    assert!(healthy.rejected_nodes().is_empty());

    // The detector has recovered (script exhausted). The low-priority
    // heal runs as a maintenance job, drained to completion.
    let job = engine.begin_heal("tennis").unwrap();
    let heal = run_to_completion(&mut engine, job).unwrap();
    assert_eq!(heal.objects_reparsed, 1);
    assert_eq!(heal.objects_untouched, report.media_analyzed - 1);

    // The parse tree is complete: no holes, all 8 shots back, player
    // tracking present in all 4 court shots.
    let tree = engine.meta_mut().tree(&grammar, &broken).unwrap();
    assert!(tree.rejected_nodes().is_empty());
    let shots = dlsearch::video_shots(&tree);
    assert_eq!(shots.len(), 8);
    assert_eq!(shots.iter().filter(|s| s.netplay.is_some()).count(), 4);
}

#[test]
fn engine_heal_completes_degraded_populations() {
    use faults::{FaultAction, FaultPlan};

    let site = Arc::new(Site::generate(SiteSpec {
        players: 4,
        articles: 4,
        seed: 37,
    }));
    let plan = FaultPlan::seeded(0)
        .with_script("rpc:tennis", vec![FaultAction::Error; 3])
        .shared();
    let mut engine =
        ausopen::resilient_engine(Arc::clone(&site), 1, plan).unwrap();
    let report = engine.populate(&crawl(&site)).unwrap();
    assert_eq!(report.media_analyzed, 8);
    assert_eq!(report.media_rejected, 0);
    assert_eq!(report.media_degraded, 1);
    assert_eq!(report.detector_failures, 1);

    // The outage hit exactly one shot of one video: a rejected-with-cause
    // hole, not a failed parse. Every other video is whole.
    let grammar = engine.grammar().clone();
    let mut broken = Vec::new();
    for p in &site.players {
        let tree = engine.meta_mut().tree(&grammar, &p.video_url).unwrap();
        let rejected = tree.rejected_nodes();
        if !rejected.is_empty() {
            assert_eq!(rejected.len(), 1, "{rejected:?}");
            assert_eq!(rejected[0].1, "tennis");
            assert!(rejected[0].2.contains("injected transport error"), "{rejected:?}");
            broken.push(p.video_url.clone());
        }
    }
    assert_eq!(broken.len(), 1);

    // Heal re-parses only the one degraded object, reusing every
    // healthy detector result from the harvest cache.
    let job = engine.begin_heal("tennis").unwrap();
    let heal = run_to_completion(&mut engine, job).unwrap();
    assert_eq!(heal.objects_reparsed, 1);
    assert_eq!(heal.objects_untouched, 7);

    // The parse tree is complete: no holes, all 8 shots back, player
    // tracking present in all 4 court shots.
    let tree = engine.meta_mut().tree(&grammar, &broken[0]).unwrap();
    assert!(tree.rejected_nodes().is_empty());
    let shots = dlsearch::video_shots(&tree);
    assert_eq!(shots.len(), 8);
    assert_eq!(shots.iter().filter(|s| s.netplay.is_some()).count(), 4);

    // After healing, media evidence matches the ground truth again.
    let q = qlang::parse("FROM Player VIA Is_covered_in MEDIA video HAS netplay TOP 100")
        .unwrap();
    let hits = engine.query(&q).unwrap();
    let expected = site.players.iter().filter(|p| p.video_has_netplay).count();
    assert_eq!(hits.len(), expected);
}

#[test]
fn source_data_change_regenerates_only_that_tree() {
    let (site, mut engine) = populated_engine(35);
    let victim = site.players[0].video_url.clone();
    let untouched = site.players[1].video_url.clone();

    // Simulate: the victim video changed on the web; the other did not.
    let changed_url = victim.clone();
    let check = move |s: &str| s != changed_url; // valid unless victim
    assert!(engine.refresh_source(&victim, &check).unwrap());
    assert!(!engine.refresh_source(&untouched, &check).unwrap());

    // Both trees still answer queries.
    let grammar = engine.grammar().clone();
    for url in [&victim, &untouched] {
        let tree = engine.meta_mut().tree(&grammar, url).unwrap();
        assert_eq!(dlsearch::video_shots(&tree).len(), 8, "{url}");
    }
}
