//! E15 — the price of observability.
//!
//! Times the flagship integrated query three ways on the same engine:
//! with observability disabled (the default — no clock reads, no
//! recording), with metrics and spans enabled, and with
//! `QueryOptions::trace` (full EXPLAIN ANALYZE assembly plus slow-log offer).
//! Every variant must return byte-identical answers; the deltas are
//! the layer's overhead. One `metrics_text()` scrape is timed too.
//! Results land in `BENCH_obs.json` at the repository root.
//!
//! `BENCH_SMOKE=1` shrinks the workload and skips the JSON write.

use std::time::Instant;

use dlsearch::{qlang, QueryOptions};
use obs::report::{BenchReport, Json};
use obs::Obs;

const FIGURE13: &str = r#"
    FROM Player
    WHERE gender = "female" AND hand = "left"
    TEXT history CONTAINS "Winner"
    VIA Is_covered_in
    MEDIA video HAS netplay
    TOP 10
"#;

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn samples_json(samples: &[f64]) -> Json {
    Json::Arr(samples.iter().map(|s| Json::Num(*s)).collect())
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let (players, iters) = if smoke { (4, 3) } else { (24, 40) };
    let (_site, mut engine) = bench::populated_engine(players, players * 2);
    let query = qlang::parse(FIGURE13).unwrap();

    // Disabled: the default engine. The cache is dropped before every
    // run so each sample pays the full evaluation path.
    let mut disabled = Vec::new();
    let mut reference = None;
    for _ in 0..iters {
        engine.invalidate_query_cache();
        let start = Instant::now();
        let hits = engine.query(&query).expect("disabled query");
        disabled.push(start.elapsed().as_secs_f64() * 1e6);
        reference.get_or_insert(hits);
    }
    let reference = reference.expect("at least one iteration");

    // Enabled: metrics record and spans take timestamps, but no trace
    // is being collected.
    let o = Obs::enabled();
    engine.set_obs(&o);
    let mut enabled = Vec::new();
    for _ in 0..iters {
        engine.invalidate_query_cache();
        let start = Instant::now();
        let hits = engine.query(&query).expect("enabled query");
        enabled.push(start.elapsed().as_secs_f64() * 1e6);
        assert_eq!(hits, reference, "observability changed the answer");
    }

    // Traced: the full EXPLAIN ANALYZE path.
    let mut traced = Vec::new();
    let opts = QueryOptions {
        trace: true,
        ..QueryOptions::default()
    };
    for _ in 0..iters {
        engine.invalidate_query_cache();
        let start = Instant::now();
        let out = engine.execute(&query, &opts).expect("traced query");
        traced.push(start.elapsed().as_secs_f64() * 1e6);
        assert_eq!(out.hits, reference, "tracing changed the answer");
        assert!(out.trace.is_some(), "enabled engine must collect a trace");
    }

    let scrape_start = Instant::now();
    let scrape = engine.metrics_text();
    let scrape_us = scrape_start.elapsed().as_secs_f64() * 1e6;
    let families = scrape
        .lines()
        .filter(|l| l.starts_with("# TYPE "))
        .count();
    assert!(families >= 20, "scrape too thin: {families} families");

    let disabled_med = median(&mut disabled);
    let enabled_med = median(&mut enabled);
    let traced_med = median(&mut traced);
    let overhead_pct = (enabled_med / disabled_med.max(f64::EPSILON) - 1.0) * 100.0;
    let traced_pct = (traced_med / disabled_med.max(f64::EPSILON) - 1.0) * 100.0;
    println!("e15_obs/disabled: median {disabled_med:.1} us");
    println!("e15_obs/enabled:  median {enabled_med:.1} us ({overhead_pct:+.1}%)");
    println!("e15_obs/traced:   median {traced_med:.1} us ({traced_pct:+.1}%)");
    println!("e15_obs/scrape:   {scrape_us:.1} us for {families} metric families");

    if smoke {
        println!("e15_obs: smoke mode, not writing BENCH_obs.json");
        return;
    }
    let report = BenchReport::new("e15_observability_overhead")
        .config("players", Json::Int(players as i64))
        .config("articles", Json::Int(players as i64 * 2))
        .config("iterations", Json::Int(iters as i64))
        .result("disabled_median_us", Json::Num(disabled_med))
        .result("enabled_median_us", Json::Num(enabled_med))
        .result("traced_median_us", Json::Num(traced_med))
        .result("enabled_overhead_pct", Json::Num(overhead_pct))
        .result("traced_overhead_pct", Json::Num(traced_pct))
        .result("scrape_us", Json::Num(scrape_us))
        .result("metric_families", Json::Int(families as i64))
        .result("disabled_samples_us", samples_json(&disabled))
        .result("enabled_samples_us", samples_json(&enabled))
        .result("traced_samples_us", samples_json(&traced))
        .metrics(o.registry().expect("enabled"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(path, report.render()).expect("write BENCH_obs.json");
    println!("e15_obs: wrote {path}");
}
