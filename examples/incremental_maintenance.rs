//! Incremental index maintenance — the paper's flexibility story, live.
//!
//! A deployed engine's tennis detector is upgraded (a better tracker).
//! The FDS localises the change through the dependency graph and
//! re-parses only what the revision invalidated, reusing every other
//! detector's stored output. Compare the detector-call counts against a
//! full rebuild.
//!
//! Run with `cargo run --example incremental_maintenance`.

use std::sync::Arc;

use acoi::{RevisionLevel, Token};
use dlsearch::{ausopen, qlang, QueryService};
use websim::{crawl, Site, SiteSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let site = Arc::new(Site::generate(SiteSpec {
        players: 8,
        articles: 8,
        seed: 42,
    }));
    let mut engine = ausopen::engine(Arc::clone(&site))?;
    let report = engine.populate(&crawl(&site))?;
    println!(
        "initial population: {} videos analysed, {} detector calls",
        report.media_analyzed, report.detector_calls
    );

    // Upgrades run through the front door: begin and cutover borrow the
    // engine briefly, the re-parsing in between runs beside the readers.
    let service = QueryService::new(engine);

    let q = qlang::parse("FROM Player VIA Is_covered_in MEDIA video HAS netplay TOP 100")?;
    let before = service.engine().query(&q)?.len();
    println!("players with netplay footage before the upgrade: {before}");

    // A correction first: nothing happens.
    let r = service.upgrade_detector_online(
        "tennis",
        RevisionLevel::Correction,
        Box::new(|_| Err("never called".into())),
    )?;
    println!(
        "\ncorrection revision: {} objects re-parsed, {} detector calls (priority {:?})",
        r.objects_reparsed, r.detector_calls, r.plan.priority
    );

    // Now a minor revision: the new tracker always finds the player at
    // the net (an exaggerated 'improvement', to make the change visible).
    let r = service.upgrade_detector_online(
        "tennis",
        RevisionLevel::Minor,
        Box::new(|inputs| {
            let begin = inputs[1].as_f64().ok_or("no begin")? as i64;
            Ok(vec![
                Token::new("frameNo", begin),
                Token::new("xPos", 320.0),
                Token::new("yPos", 120.0),
                Token::new("Area", 1100i64),
                Token::new("Ecc", 0.88),
                Token::new("Orient", 88.0),
            ])
        }),
    )?;
    println!(
        "minor revision of `tennis`: invalidated symbols {:?}",
        r.plan.invalidated
    );
    println!(
        "  re-parsed {} objects: {} detector calls, {} calls SAVED by reuse",
        r.objects_reparsed, r.detector_calls, r.detector_calls_saved
    );
    let full_rebuild = r.detector_calls + r.detector_calls_saved;
    println!(
        "  a full rebuild would have made {} calls → {:.0}% saved",
        full_rebuild,
        100.0 * r.detector_calls_saved as f64 / full_rebuild as f64
    );

    let after = service.engine().query(&q)?.len();
    println!("\nplayers with netplay footage after the upgrade: {after}");
    assert!(after >= before);
    Ok(())
}
