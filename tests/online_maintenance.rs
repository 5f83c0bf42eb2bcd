//! Online maintenance: heals and detector upgrades run as background
//! jobs while interactive queries keep serving — with epoch-consistent
//! cutover.
//!
//! The contract under test —
//!
//! * an upgrade storm (correction, minor, fault-killed minor, major,
//!   heal) concurrent with ≥3 query threads never produces a wrong or
//!   torn answer: every answer is exactly correct for *some* single
//!   epoch, and each thread observes epochs monotonically,
//! * a maintenance job killed by an injected fault at *any* point
//!   before cutover leaves the store, the EXPLAIN output and the
//!   detector registry byte-identical to never having run,
//! * maintenance re-parses are admitted through the gate in the
//!   `Batch` class — metrics prove it,
//! * a correction bump (zero nodes re-parsed) provably leaves the
//!   store unchanged, so the warm query answers survive.

// Helpers outside `#[test]` functions unwrap too (clippy.toml only
// exempts the tests themselves).
#![allow(clippy::unwrap_used)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use acoi::{RevisionLevel, Token, Version};
use dlsearch::{
    ausopen, qlang, AdmissionConfig, Engine, EngineHit, Error, Priority, QueryService,
};
use faults::{Budget, FaultAction, FaultPlan};
use obs::Obs;
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

/// No WHERE clause: every player with a "Winner" history and a video
/// is a candidate, so the answer is non-empty and visibly changes when
/// the tennis tracker or the segmenter is upgraded.
const STORM_QUERY: &str = r#"
    FROM Player
    TEXT history CONTAINS "Winner"
    VIA Is_covered_in
    MEDIA video HAS netplay
    TOP 10
"#;

/// A new tracker implementation: the player is reported glued to the
/// net in every frame, so every shot becomes a netplay shot.
fn netplay_tennis() -> acoi::DetectorFn {
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
    })
}

/// A new segmenter: one giant tennis shot per video.
fn giant_segment() -> acoi::DetectorFn {
    Box::new(|_| {
        Ok(vec![
            Token::new("frameNo", 0i64),
            Token::new("frameNo", 319i64),
            Token::new("type", "tennis"),
        ])
    })
}

/// The per-epoch ground truth, computed by a reference engine that
/// applies the same upgrades synchronously: E0 = as populated (a
/// correction bump never changes answers), E1 = after the minor
/// tennis upgrade (the fault-killed upgrade aborts, leaving E1),
/// E2 = after the major segment upgrade.
fn oracle(site: &Arc<Site>, pages: &[(String, String)]) -> [Vec<EngineHit>; 3] {
    let mut reference = ausopen::engine(Arc::clone(site)).unwrap();
    reference.populate(pages).unwrap();
    let q = qlang::parse(STORM_QUERY).unwrap();
    let e0 = reference.query(&q).unwrap();
    let job = reference
        .begin_upgrade("tennis", RevisionLevel::Minor, netplay_tennis())
        .unwrap();
    run_to_completion(&mut reference, job).unwrap();
    let e1 = reference.query(&q).unwrap();
    let job = reference
        .begin_upgrade("segment", RevisionLevel::Major, giant_segment())
        .unwrap();
    run_to_completion(&mut reference, job).unwrap();
    let e2 = reference.query(&q).unwrap();
    [e0, e1, e2]
}

fn metric_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            let rest = l.strip_prefix(name)?;
            rest.strip_prefix(' ')?.trim().parse::<f64>().ok()
        })
        .unwrap_or_else(|| panic!("metric `{name}` missing from scrape:\n{text}"))
}

/// The upgrade storm: three interactive query threads run against the
/// service while the main thread drives two successful upgrade cycles,
/// a fault-killed upgrade and a heal through the background
/// maintenance path. Every answer must be exactly the answer of some
/// single epoch, observed monotonically.
#[test]
fn upgrade_storm_serves_exact_answers_for_some_single_epoch() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);
    let expected = oracle(&site, &pages);
    assert!(!expected[1].is_empty(), "oracle must observe hits");
    assert_ne!(expected[0], expected[1], "minor upgrade must be visible");
    assert_ne!(expected[1], expected[2], "major upgrade must be visible");

    // The third upgrade (tennis 1.1.0 → 1.2.0) dies on its first
    // maintenance fault consultation; everything else runs clean. An
    // engine with a fault plan bypasses the answer cache, so every
    // query below is evaluated live against the current store.
    let plan = FaultPlan::seeded(2001)
        .with_script("maintenance:tennis:1.2.0", vec![FaultAction::Error])
        .shared();
    let mut config = ausopen::config(Arc::clone(&site));
    config.faults = Some(plan);
    let mut engine = Engine::new(config).unwrap();
    let o = Obs::enabled();
    engine.set_obs(&o);
    engine.populate(&pages).unwrap();
    // A roomy gate: this test proves consistency under concurrency,
    // not brownout coarsening (overload.rs owns that), so keep the
    // ladder Healthy and every answer full-fidelity.
    let service = Arc::new(QueryService::with_config(
        engine,
        AdmissionConfig {
            max_concurrent: 8,
            max_queue: 32,
            pressured_queue: 16,
            brownout_queue: 24,
            latency_target: Duration::from_secs(5),
            ..AdmissionConfig::default()
        },
    ));

    let done = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    for t in 0..3 {
        let service = Arc::clone(&service);
        let done = Arc::clone(&done);
        let expected = expected.clone();
        threads.push(thread::spawn(move || {
            let q = qlang::parse(STORM_QUERY).unwrap();
            let mut epoch = 0usize;
            let mut served = 0usize;
            while !done.load(Ordering::Relaxed) || served == 0 {
                let outcome =
                    match service.query(&q, Priority::Interactive, &Budget::unlimited()) {
                        Ok(outcome) => outcome,
                        Err(Error::Overloaded { .. }) => continue,
                        Err(e) => panic!("query thread {t}: unexpected error {e}"),
                    };
                assert_eq!(
                    outcome.quality, 1.0,
                    "thread {t}: the roomy gate must never degrade"
                );
                // Exactly correct for some single epoch, never torn —
                // and never an epoch this thread has already moved past.
                match expected[epoch..].iter().position(|e| *e == outcome.hits) {
                    Some(offset) => epoch += offset,
                    None => panic!(
                        "thread {t} (epoch >= {epoch}) saw a torn or regressed answer: \
                         {:?}",
                        outcome.hits
                    ),
                }
                served += 1;
            }
            served
        }));
    }

    let pause = Duration::from_millis(25);
    thread::sleep(pause);

    // Cycle 1: a correction bump re-parses nothing and changes nothing.
    let report = service
        .upgrade_detector_online("tennis", RevisionLevel::Correction, Box::new(|_| Ok(vec![])))
        .unwrap();
    assert_eq!(report.objects_reparsed, 0);
    thread::sleep(pause);

    // Cycle 2: the minor tracker upgrade re-parses the eight videos.
    let report = service
        .upgrade_detector_online("tennis", RevisionLevel::Minor, netplay_tennis())
        .unwrap();
    assert_eq!(report.objects_reparsed, 8);
    thread::sleep(pause);

    // Cycle 3 is killed by the injected fault mid-upgrade: the error is
    // typed, and the registry rolls back to the surviving epoch.
    let err = service
        .upgrade_detector_online("tennis", RevisionLevel::Minor, Box::new(|_| Ok(vec![])))
        .unwrap_err();
    assert!(matches!(err, Error::Maintenance { .. }), "{err}");
    assert_eq!(
        service.engine().registry().version("tennis"),
        Some(Version::new(1, 1, 0)),
        "aborted upgrade must roll the registry back"
    );
    thread::sleep(pause);

    // Cycle 4: the major segmenter upgrade cascades through tennis.
    let report = service
        .upgrade_detector_online("segment", RevisionLevel::Major, giant_segment())
        .unwrap();
    assert_eq!(report.objects_reparsed, 8);
    thread::sleep(pause);

    // A heal with no rejected backlog is a clean no-op.
    let report = service.heal_detector_online("tennis").unwrap();
    assert_eq!(report.objects_reparsed, 0);
    done.store(true, Ordering::Relaxed);

    let mut served = 0usize;
    for t in threads {
        served += t.join().unwrap();
    }
    assert!(served >= 3, "every query thread must have been served");

    // After the storm the answer is exactly the final epoch's.
    let q = qlang::parse(STORM_QUERY).unwrap();
    let outcome = service
        .query(&q, Priority::Interactive, &Budget::unlimited())
        .unwrap();
    assert_eq!(outcome.hits, expected[2]);

    // Metrics prove the re-parses went through the gate in the Batch
    // class and the jobs ran under maintenance spans.
    let text = service.engine().metrics_text();
    assert!(
        metric_value(&text, "engine_maintenance_batch_admissions_total") >= 1.0,
        "maintenance must take Batch-class permits:\n{text}"
    );
    assert!(
        text.contains(r#"engine_maintenance_jobs_total{kind="minor"}"#),
        "missing per-kind job counter:\n{text}"
    );
    assert!(
        text.contains(r#"obs_span_seconds_count{span="engine.maintenance"}"#),
        "missing maintenance span:\n{text}"
    );
}

/// The abort sweep: a maintenance job killed by an injected fault at
/// *every* possible point before cutover — the k-th fault consultation,
/// for each of the sixteen media objects — leaves the store snapshot,
/// the EXPLAIN output, the registry version and the query answer
/// byte-identical to never having run.
#[test]
fn fault_killed_maintenance_leaves_the_engine_byte_identical() {
    let site = Arc::new(Site::generate(spec()));
    let pages = crawl(&site);

    // One shared script: the k-th run consumes k clean consultations
    // and then dies, sweeping the kill point across every object.
    let mut script = Vec::new();
    for k in 0..16 {
        script.extend(std::iter::repeat_n(FaultAction::None, k));
        script.push(FaultAction::Error);
    }
    let plan = FaultPlan::seeded(7)
        .with_script("maintenance:tennis:1.1.0", script)
        .shared();
    let mut config = ausopen::config(Arc::clone(&site));
    config.faults = Some(plan);
    let mut engine = Engine::new(config).unwrap();
    engine.populate(&pages).unwrap();

    let q = qlang::parse(STORM_QUERY).unwrap();
    let baseline_answer = engine.query(&q).unwrap();
    let baseline_digest = engine.state_digest().unwrap();
    let baseline_explain = engine.explain(&q, None);

    for k in 0..16 {
        let mut job = engine
            .begin_upgrade("tennis", RevisionLevel::Minor, netplay_tennis())
            .unwrap();
        let err = job.run().unwrap_err();
        assert!(matches!(err, Error::Maintenance { .. }), "kill point {k}: {err}");
        engine.abort_maintenance(job).unwrap();
        assert_eq!(
            engine.state_digest().unwrap(),
            baseline_digest,
            "kill point {k}: the store changed"
        );
        assert_eq!(
            engine.explain(&q, None),
            baseline_explain,
            "kill point {k}: the EXPLAIN output changed"
        );
        assert_eq!(
            engine.registry().version("tennis"),
            Some(Version::new(1, 0, 0)),
            "kill point {k}: the registry was not rolled back"
        );
        assert_eq!(
            engine.query(&q).unwrap(),
            baseline_answer,
            "kill point {k}: the answer changed"
        );
    }

    // The script is drained: the same upgrade now survives and commits.
    let mut job = engine
        .begin_upgrade("tennis", RevisionLevel::Minor, netplay_tennis())
        .unwrap();
    job.run().unwrap();
    assert!(job.delta_count() > 0);
    let report = engine.commit_maintenance(job).unwrap();
    assert_eq!(report.objects_reparsed, 8);
    assert_eq!(engine.registry().version("tennis"), Some(Version::new(1, 1, 0)));
    assert_ne!(
        engine.query(&q).unwrap(),
        baseline_answer,
        "the committed upgrade must be visible"
    );
}

/// A correction bump re-parses zero nodes — the store is provably
/// unchanged, so the warm query answers survive the maintenance run.
#[test]
fn correction_bump_retains_the_warm_caches() {
    let site = Arc::new(Site::generate(spec()));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();

    let q = qlang::parse(STORM_QUERY).unwrap();
    let cold = engine.query(&q).unwrap();
    engine.query(&q).unwrap();
    assert_eq!(engine.query_cache_stats(), (1, 1));

    let job = engine
        .begin_upgrade("tennis", RevisionLevel::Correction, Box::new(|_| Ok(vec![])))
        .unwrap();
    let report = run_to_completion(&mut engine, job).unwrap();
    assert_eq!(report.objects_reparsed, 0);

    let warm = engine.query(&q).unwrap();
    assert_eq!(warm, cold);
    assert_eq!(
        engine.query_cache_stats(),
        (2, 1),
        "a provably store-preserving bump must not evict warm answers"
    );
}

/// Satellite: while a maintenance job is in flight, a second
/// `begin_upgrade` / `begin_heal` on the same detector is refused with
/// the typed `MaintenanceBusy` error instead of clobbering the first
/// job's pinned snapshot. A *different* detector is free to begin, and
/// once the first job commits or aborts the detector is released.
#[test]
fn a_second_begin_on_a_busy_detector_is_refused() {
    let site = Arc::new(Site::generate(spec()));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();

    let first = engine
        .begin_upgrade("tennis", RevisionLevel::Minor, netplay_tennis())
        .unwrap();

    // Same detector, any kind of begin: typed refusal, no side effects.
    match engine.begin_upgrade("tennis", RevisionLevel::Minor, netplay_tennis()) {
        Err(Error::MaintenanceBusy { detector }) => assert_eq!(detector, "tennis"),
        other => panic!("expected MaintenanceBusy, got {:?}", other.map(|j| j.delta_count())),
    }
    match engine.begin_heal("tennis") {
        Err(Error::MaintenanceBusy { detector }) => assert_eq!(detector, "tennis"),
        other => panic!("expected MaintenanceBusy, got {:?}", other.map(|j| j.delta_count())),
    }

    // A different detector is not blocked by tennis's job.
    let other_job = engine.begin_heal("segment").unwrap();
    engine.abort_maintenance(other_job).unwrap();

    // Committing the first job releases the detector for the next cycle.
    let mut first = first;
    first.run().unwrap();
    engine.commit_maintenance(first).unwrap();
    let next = engine.begin_heal("tennis").unwrap();
    engine.abort_maintenance(next).unwrap();

    // An *aborted* job releases it too (drop-based, so a job that dies
    // on the floor cannot leak the busy flag).
    let killed = engine
        .begin_upgrade("tennis", RevisionLevel::Minor, netplay_tennis())
        .unwrap();
    engine.abort_maintenance(killed).unwrap();
    let after_abort = engine.begin_heal("tennis").unwrap();
    engine.abort_maintenance(after_abort).unwrap();
}
