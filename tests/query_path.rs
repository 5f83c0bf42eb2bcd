//! One query path: `Engine::execute` is what every caller takes, and
//! the per-call options change exactly what they say they change.
//!
//! Table-driven over the five kinds of query the end-to-end benchmark
//! mixes (`benchmark/src/workload.rs`), on the Australian Open site:
//!
//! * `query(q)` is `execute(q, default).hits`;
//! * asking for the trace changes neither the hits nor the stores, and
//!   the tree's phases are exactly the stages the query has;
//! * a repeat is a cache hit that reports what the miss reported,
//!   text status included;
//! * a `Brownout` answer carries the hits, the quality and the DEGRADED
//!   notes the pre-collapse `query_degraded` produced (pinned below from
//!   commit `b8bddcc`);
//! * browned-out and budget-limited answers never touch the cache;
//! * a media predicate reads the meta store's path relations and
//!   rebuilds no stored tree.

// Helpers outside `#[test]` functions unwrap too (clippy.toml only
// exempts the tests themselves).
#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use dlsearch::{ausopen, qlang, Engine, OverloadLevel, QueryOptions};
use faults::Budget;
use websim::{crawl, Site, SiteSpec};

/// Ranked text; ranked text within the title candidates; the same
/// joined through to the media refinement (Figure 13); a two-step
/// association join; attribute selection with media refinement.
const TEXT: &str = r#"FROM Article TEXT body CONTAINS "commanding performance" TOP 10"#;
const WITHIN: &str = r#"FROM Article WHERE title CONTAINS "final"
    TEXT body CONTAINS "centre court" WITHIN TOP 10"#;
const INTEGRATED: &str = r#"FROM Article WHERE title CONTAINS "final"
    TEXT body CONTAINS "advanced crowd" WITHIN
    VIA About VIA Is_covered_in MEDIA video HAS netplay TOP 10"#;
const JOIN: &str = r#"FROM Article WHERE title CONTAINS "final" VIA About VIA Is_covered_in"#;
const PLAYER_MEDIA: &str =
    r#"FROM Player WHERE hand = "left" VIA Is_covered_in MEDIA video HAS netplay"#;

const KINDS: [&str; 5] = [TEXT, WITHIN, INTEGRATED, JOIN, PLAYER_MEDIA];

/// Figure 13, and a generic media event.
const FIGURE13: &str = r#"FROM Player WHERE gender = "female" AND hand = "left"
    TEXT history CONTAINS "Winner" VIA Is_covered_in MEDIA video HAS netplay TOP 10"#;
const INTERVIEWS: &str = "FROM Player VIA Is_covered_in MEDIA interview HAS isInterview TOP 100";

fn populated(observed: bool) -> Engine {
    let site = Arc::new(Site::generate(SiteSpec::default()));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    if observed {
        engine.set_obs(&obs::Obs::enabled());
    }
    engine.populate(&crawl(&site)).unwrap();
    engine
}

#[test]
fn query_is_execute_with_the_default_options() {
    let mut engine = populated(false);
    let mut twin = populated(false);
    for text in KINDS {
        let q = qlang::parse(text).unwrap();
        let outcome = twin.execute(&q, &QueryOptions::default()).unwrap();
        assert_eq!(engine.query(&q).unwrap(), outcome.hits, "{text}");
        assert!(!outcome.hits.is_empty(), "{text}");
        assert_eq!(outcome.quality, 1.0);
        assert_eq!(outcome.level, OverloadLevel::Healthy);
        assert!(outcome.degraded.is_empty());
        assert_eq!(outcome.text.is_some(), q.text.is_some(), "{text}");
        assert!(outcome.trace.is_none());
    }
}

#[test]
fn tracing_changes_no_answer_and_shows_exactly_the_stages() {
    let traced = QueryOptions {
        trace: true,
        ..QueryOptions::default()
    };
    let mut plain = populated(false);
    let mut observed = populated(true);
    let digest = observed.state_digest().unwrap();
    for text in KINDS {
        let q = qlang::parse(text).unwrap();
        let expected = plain.query(&q).unwrap();
        let outcome = observed.execute(&q, &traced).unwrap();
        assert_eq!(outcome.hits, expected, "{text}");
        let root = outcome.trace.expect("an observed engine collects the trace");
        assert_eq!(root.name, "engine.query");
        let phases: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        let mut stages = vec!["engine.query.conceptual"];
        if q.text.is_some() {
            stages.push("engine.query.text");
        }
        stages.push("engine.query.refine");
        assert_eq!(phases, stages, "{text}");
        // With observability disabled there is nothing to collect.
        let unobserved = plain.execute(&q, &traced).unwrap();
        assert_eq!(unobserved.hits, expected);
        assert!(unobserved.trace.is_none());
    }
    assert_eq!(observed.state_digest().unwrap(), digest);
}

#[test]
fn a_repeat_is_a_cache_hit_that_reports_what_the_miss_reported() {
    let mut engine = populated(false);
    for (n, text) in KINDS.into_iter().enumerate() {
        let n = n as u64;
        let q = qlang::parse(text).unwrap();
        let miss = engine.execute(&q, &QueryOptions::default()).unwrap();
        assert_eq!(engine.query_cache_stats(), (n, n + 1), "{text}");
        let hit = engine.execute(&q, &QueryOptions::default()).unwrap();
        assert_eq!(engine.query_cache_stats(), (n + 1, n + 1), "{text}");
        assert_eq!(hit, miss, "{text}");
        assert_eq!(hit.text.is_some(), q.text.is_some());
    }
}

/// What `Engine::query_degraded(q, unlimited, Brownout)` answered at
/// `b8bddcc`: the quality, the notes, and the chain of every hit.
type Pin = (&'static str, f64, &'static [&'static str], &'static [&'static [&'static str]]);

const TRUNCATED: &str = "DEGRADED: text ranking truncated to top-50 (asked top-100)";
const LIMITED: &str = "DEGRADED: result limit cut to 5 (asked 10)";
const UNREFINED: &str = "DEGRADED: media-event refinement skipped (candidates unverified)";

const PINS: [Pin; 3] = [
    (
        TEXT,
        0.5,
        &[TRUNCATED, LIMITED],
        &[
            &["article:day1-story0"],
            &["article:day1-story1"],
            &["article:day1-story2"],
            &["article:day1-story3"],
            &["article:day2-story4"],
        ],
    ),
    (
        INTEGRATED,
        0.25,
        &[TRUNCATED, LIMITED, UNREFINED],
        &[
            &["article:day2-story4", "player:clijsters15", "profile:clijsters15"],
            &["article:day2-story4", "player:williams4", "profile:williams4"],
            &["article:day2-story5", "player:agassi5", "profile:agassi5"],
            &["article:day2-story5", "player:hewitt11", "profile:hewitt11"],
            &["article:day3-story9", "player:davenport3", "profile:davenport3"],
        ],
    ),
    (
        PLAYER_MEDIA,
        0.5,
        &[LIMITED, UNREFINED],
        &[
            &["player:clijsters15", "profile:clijsters15"],
            &["player:davenport3", "profile:davenport3"],
            &["player:johansson12", "profile:johansson12"],
            &["player:safin9", "profile:safin9"],
            &["player:sampras6", "profile:sampras6"],
        ],
    ),
];

#[test]
fn brownout_answers_are_what_query_degraded_produced() {
    let brownout = QueryOptions {
        level: OverloadLevel::Brownout,
        ..QueryOptions::default()
    };
    let mut engine = populated(false);
    for (text, quality, notes, chains) in PINS {
        let q = qlang::parse(text).unwrap();
        let outcome = engine.execute(&q, &brownout).unwrap();
        assert_eq!(outcome.level, OverloadLevel::Brownout);
        assert_eq!(outcome.quality, quality, "{text}");
        assert_eq!(outcome.degraded, notes, "{text}");
        let got: Vec<Vec<&str>> = outcome
            .hits
            .iter()
            .map(|h| h.chain.iter().map(String::as_str).collect())
            .collect();
        assert_eq!(got, chains, "{text}");
        assert!(outcome.hits.iter().all(|h| h.video.is_none() && h.shots.is_empty()));
    }
}

#[test]
fn brownout_and_budgeted_answers_are_never_cached() {
    let mut engine = populated(false);
    let roomy = Budget::with_work(1 << 20);
    for text in KINDS {
        let q = qlang::parse(text).unwrap();
        let full = engine.query(&q).unwrap();
        let stats = engine.query_cache_stats();
        for opts in [
            QueryOptions {
                level: OverloadLevel::Brownout,
                ..QueryOptions::default()
            },
            QueryOptions {
                level: OverloadLevel::Shedding,
                ..QueryOptions::default()
            },
            QueryOptions {
                budget: Some(&roomy),
                ..QueryOptions::default()
            },
        ] {
            let outcome = engine.execute(&q, &opts).unwrap();
            assert_eq!(engine.query_cache_stats(), stats, "{text}: consulted the cache");
            if opts.budget.is_some() {
                assert_eq!(outcome.hits, full, "{text}: a roomy budget changes nothing");
            }
        }
        // Neither stored anything: the full answer is still the one
        // the cache serves.
        assert_eq!(engine.query(&q).unwrap(), full);
        assert_eq!(engine.query_cache_stats(), (stats.0 + 1, stats.1));
    }
}

#[test]
fn media_predicates_rebuild_no_stored_tree() {
    let mut engine = populated(true);
    let rebuilt = |engine: &Engine| {
        let text = engine.metrics_text();
        text.lines()
            .find_map(|l| l.strip_prefix("monetxml_reconstructions_total "))
            .map(|v| v.trim().parse::<f64>().unwrap())
            .unwrap_or_else(|| panic!("no reconstruction counter in:\n{text}"))
    };
    let before = rebuilt(&engine);
    for text in [FIGURE13, PLAYER_MEDIA, INTERVIEWS] {
        let q = qlang::parse(text).unwrap();
        assert!(!engine.query(&q).unwrap().is_empty(), "{text}");
    }
    assert_eq!(rebuilt(&engine), before);
}
