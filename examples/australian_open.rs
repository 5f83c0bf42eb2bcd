//! The full Australian Open scenario: several conceptual, content-based
//! and mixed queries over the populated engine — the workloads the
//! paper's introduction motivates.
//!
//! Run with `cargo run --example australian_open`.
//!
//! Set `FAULTS=1` to run the same scenario against an unreliable
//! deployment: the media detectors sit behind an XML-RPC wire with 20%
//! injected transport errors (supervised — deadline, retries, circuit
//! breaker), and one of four text servers hangs on every query. The
//! engine completes end to end, reporting what degraded instead of
//! crashing.

use std::sync::Arc;

use dlsearch::{ausopen, qlang, Engine, QueryOptions, QueryOutcome};
use faults::{FaultPlan, FaultSpec};
use websim::{crawl, Site, SiteSpec};

fn run(
    engine: &mut Engine,
    label: &str,
    query: &str,
) -> Result<QueryOutcome, Box<dyn std::error::Error>> {
    println!("── {label}");
    println!("{}", query.trim());
    let outcome = engine.execute(&qlang::parse(query)?, &QueryOptions::default())?;
    if outcome.hits.is_empty() {
        println!("   (no answers)");
    }
    for hit in &outcome.hits {
        print!("   {}", hit.chain.join(" → "));
        if hit.score > 0.0 {
            print!("  [score {:.3}]", hit.score);
        }
        if !hit.shots.is_empty() {
            let spans: Vec<String> = hit
                .shots
                .iter()
                .map(|s| format!("{}..{}", s.begin, s.end))
                .collect();
            print!("  shots {}", spans.join(", "));
        }
        println!();
    }
    println!();
    Ok(outcome)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let faulty = std::env::var("FAULTS").is_ok_and(|v| v == "1");
    let site = Arc::new(Site::generate(SiteSpec::default()));
    let mut engine = if faulty {
        let plan = FaultPlan::seeded(42)
            .with_site("rpc:segment", FaultSpec::errors(0.2))
            .with_site("rpc:tennis", FaultSpec::errors(0.2))
            .with_site("rpc:interview", FaultSpec::errors(0.2))
            .with_site("shard:2", FaultSpec::always_hang())
            .shared();
        ausopen::resilient_engine(Arc::clone(&site), 4, plan)?
    } else {
        ausopen::engine(Arc::clone(&site))?
    };
    let report = engine.populate(&crawl(&site))?;
    println!(
        "indexed {} pages / {} objects / {} videos\n",
        report.pages, report.objects, report.media_analyzed
    );
    if faulty {
        println!(
            "fault mode: {} detector failure(s) left {} media object(s) degraded (rejected-with-cause holes, healable)\n",
            report.detector_failures, report.media_degraded
        );
    }

    // Pure conceptual search: "ask directly for the history of the
    // player with name Monica Seles" (the motivating example).
    run(
        &mut engine,
        "conceptual lookup",
        r#"FROM Player WHERE name CONTAINS "Seles""#,
    )?;

    // Conceptual join across documents: articles about left-handers.
    run(
        &mut engine,
        "cross-document join",
        r#"FROM Article VIA About TOP 5"#,
    )?;

    // Ranked text retrieval inside a concept.
    run(
        &mut engine,
        "ranked hypertext search",
        r#"FROM Player TEXT history CONTAINS "Winner Australian" TOP 5"#,
    )?;

    // Content-based only: all players whose match videos contain a net
    // approach.
    run(
        &mut engine,
        "content-based video search",
        r#"FROM Player VIA Is_covered_in MEDIA video HAS netplay TOP 20"#,
    )?;

    // Content-based audio search: profiles with a real post-match
    // interview (speech-majority audio with speaker turns).
    run(
        &mut engine,
        "content-based audio search",
        r#"FROM Player VIA Is_covered_in MEDIA interview HAS isInterview TOP 5"#,
    )?;

    // The Figure 13 flagship: everything at once.
    let last = run(
        &mut engine,
        "Figure 13 — the integrated query",
        r#"
        FROM Player
        WHERE gender = "female" AND hand = "left"
        TEXT history CONTAINS "Winner"
        VIA Is_covered_in
        MEDIA video HAS netplay
        TOP 10
        "#,
    )?;

    if faulty {
        if let Some(st) = &last.text {
            println!(
                "text retrieval behind the last answer: {} of {} servers answered (shards {:?} down), estimated quality {:.0}%",
                st.shards_ok,
                st.shards_ok + st.shards_failed,
                st.failed_shards,
                st.quality * 100.0
            );
        }
    }

    Ok(())
}
