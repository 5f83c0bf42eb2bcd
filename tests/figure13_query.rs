//! Figure 13 — the paper's flagship integrated query:
//!
//! "Show me video shots of left-handed female players, who have won the
//! Australian Open in the past, and in which they approach the net."
//!
//! The phrase "who has won the Australian Open in the past" becomes a
//! free text search on the word "Winner" in the history attribute; the
//! netplay event decides "approach the net". Because the simulated site
//! carries full ground truth, the answer can be verified exactly.

use std::collections::BTreeSet;
use std::sync::Arc;

use dlsearch::{ausopen, qlang};
use websim::{crawl, Site, SiteSpec};

const FIGURE13: &str = r#"
    FROM Player
    WHERE gender = "female" AND hand = "left"
    TEXT history CONTAINS "Winner"
    VIA Is_covered_in
    MEDIA video HAS netplay
    TOP 10
"#;

#[test]
fn figure13_answer_matches_ground_truth_exactly() {
    let site = Arc::new(Site::generate(SiteSpec::default()));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();

    let query = qlang::parse(FIGURE13).unwrap();
    let hits = engine.query(&query).unwrap();

    // Ground truth: players satisfying all four conditions.
    let expected: BTreeSet<String> = site
        .players
        .iter()
        .filter(|p| {
            p.gender == "female" && p.hand == "left" && p.past_winner && p.video_has_netplay
        })
        .map(|p| format!("player:{}", p.key))
        .collect();
    assert!(
        !expected.is_empty(),
        "site must contain at least one qualifying player"
    );

    let answered: BTreeSet<String> = hits
        .iter()
        .map(|h| h.chain.first().unwrap().clone())
        .collect();
    assert_eq!(answered, expected);

    // Every hit returns *video shots*, not just URLs: tennis shots in
    // which the player approaches the net.
    for hit in &hits {
        assert!(!hit.shots.is_empty(), "hit without shots: {hit:?}");
        assert!(hit.video.is_some());
        for shot in &hit.shots {
            assert!(shot.is_tennis);
            assert_eq!(shot.netplay, Some(true));
            assert!(shot.begin <= shot.end);
        }
        // The text part ranked the hit with a positive score.
        assert!(hit.score > 0.0);
        // The chain walked Player → Profile.
        assert_eq!(hit.chain.len(), 2);
        assert!(hit.chain[1].starts_with("profile:"));
    }
}

#[test]
fn dropping_the_media_clause_widens_the_answer() {
    let site = Arc::new(Site::generate(SiteSpec::default()));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();

    let full = engine.query(&qlang::parse(FIGURE13).unwrap()).unwrap();
    let no_media = engine
        .query(
            &qlang::parse(
                r#"
        FROM Player
        WHERE gender = "female" AND hand = "left"
        TEXT history CONTAINS "Winner"
        VIA Is_covered_in
        TOP 10
    "#,
            )
            .unwrap(),
        )
        .unwrap();
    assert!(no_media.len() >= full.len());
    // Without the media clause, hits carry no shot evidence.
    assert!(no_media.iter().all(|h| h.shots.is_empty()));
}

#[test]
fn conceptual_only_query_returns_plain_concepts() {
    let site = Arc::new(Site::generate(SiteSpec::default()));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();

    let q = qlang::parse(r#"FROM Player WHERE hand = "left" TOP 100"#).unwrap();
    let hits = engine.query(&q).unwrap();
    let expected = site.players.iter().filter(|p| p.hand == "left").count();
    assert_eq!(hits.len(), expected);
}

#[test]
fn within_ranking_finds_at_least_the_global_answers() {
    // The optimizer's a-priori restriction of the ranking candidate set
    // never loses answers that survived the global top-N merge (it can
    // only gain candidates that the global cut excluded).
    let site = Arc::new(Site::generate(SiteSpec::default()));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();

    let global = engine.query(&qlang::parse(FIGURE13).unwrap()).unwrap();
    let restricted = engine
        .query(
            &qlang::parse(
                r#"
        FROM Player
        WHERE gender = "female" AND hand = "left"
        TEXT history CONTAINS "Winner" WITHIN
        VIA Is_covered_in
        MEDIA video HAS netplay
        TOP 10
    "#,
            )
            .unwrap(),
        )
        .unwrap();
    let global_ids: BTreeSet<&String> =
        global.iter().map(|h| h.chain.first().unwrap()).collect();
    let restricted_ids: BTreeSet<&String> =
        restricted.iter().map(|h| h.chain.first().unwrap()).collect();
    assert!(global_ids.is_subset(&restricted_ids));
}

#[test]
fn explain_renders_the_physical_plan() {
    let site = Arc::new(Site::generate(SiteSpec {
        players: 2,
        articles: 2,
        seed: 6,
    }));
    let engine = ausopen::engine(Arc::clone(&site)).unwrap();
    let plan = engine.explain(&qlang::parse(FIGURE13).unwrap(), None);
    assert!(plan.contains("conceptual selection on Player"));
    assert!(plan.contains("ranked text retrieval"));
    assert!(plan.contains("Is_covered_in"));
    assert!(plan.contains("netplay"));
    assert!(plan.contains("top 10"));
}

#[test]
fn unknown_media_event_is_a_query_error() {
    let site = Arc::new(Site::generate(SiteSpec {
        players: 2,
        articles: 2,
        seed: 4,
    }));
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();
    let q = qlang::parse("FROM Player VIA Is_covered_in MEDIA video HAS moonwalk").unwrap();
    let err = engine.query(&q).unwrap_err();
    assert!(err.to_string().contains("moonwalk"));
}
