//! Overload resilience, end to end.
//!
//! The contract under test: a query front-end driven far past capacity
//! must *degrade*, never *collapse*. Concretely —
//!
//! * at zero load the admission layer is invisible: answers are
//!   byte-identical to the plain engine, quality 1.0, ladder Healthy,
//! * at 10× capacity the service stays live: every refusal is a typed
//!   [`dlsearch::Error::Overloaded`], queueing stays bounded by
//!   configuration, interactive latency stays bounded by the queue
//!   timeout, and browned-out answers carry an honest quality < 1,
//! * a query cancelled by its budget — at *any* checkpoint — leaves the
//!   engine bit-for-bit as if it never ran.

// Helpers outside `#[test]` functions unwrap too (clippy.toml only
// exempts the tests themselves).
#![allow(clippy::unwrap_used)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dlsearch::{
    ausopen, qlang, AdmissionConfig, Engine, EngineHit, EngineQuery, Error, OverloadLevel,
    Priority, QueryOptions, QueryService,
};
use faults::{Budget, BudgetExceeded, DelaySpec, FaultPlan};
use websim::{crawl, Site, SiteSpec};

const FIGURE13: &str = r#"
    FROM Player
    WHERE gender = "female" AND hand = "left"
    TEXT history CONTAINS "Winner"
    VIA Is_covered_in
    MEDIA video HAS netplay
    TOP 10
"#;

const STORM_QUERY: &str = r#"
    FROM Player
    WHERE hand = "left"
    TEXT history CONTAINS "Winner"
    TOP 10
"#;

/// `Engine::execute` under `budget`, full fidelity, hits only.
fn budgeted(
    engine: &mut Engine,
    q: &EngineQuery,
    budget: &Budget,
) -> dlsearch::Result<Vec<EngineHit>> {
    let opts = QueryOptions {
        budget: Some(budget),
        ..QueryOptions::default()
    };
    engine.execute(q, &opts).map(|o| o.hits)
}

fn small_site() -> Arc<Site> {
    Arc::new(Site::generate(SiteSpec {
        players: 12,
        articles: 8,
        seed: 11,
    }))
}

#[test]
fn zero_load_is_invisible_byte_identical_and_healthy() {
    let site = Arc::new(Site::generate(SiteSpec::default()));
    let pages = crawl(&site);

    let mut reference = ausopen::engine(Arc::clone(&site)).unwrap();
    reference.populate(&pages).unwrap();
    let q = qlang::parse(FIGURE13).unwrap();
    let expected = reference.query(&q).unwrap();

    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&pages).unwrap();
    let service = QueryService::new(engine);
    for _ in 0..3 {
        let outcome = service
            .query(&q, Priority::Interactive, &Budget::unlimited())
            .unwrap();
        assert_eq!(outcome.hits, expected, "admission layer changed the answer");
        assert_eq!(outcome.quality, 1.0);
        assert_eq!(outcome.level, OverloadLevel::Healthy);
        assert!(outcome.degraded.is_empty(), "{:?}", outcome.degraded);
    }
    let status = service.status();
    assert_eq!(status.level, OverloadLevel::Healthy);
    assert_eq!(status.rejected, 0);
    assert_eq!(status.queued, 0);
    assert_eq!(status.running, 0);
    assert!(
        status.transitions.is_empty(),
        "zero load must not move the ladder: {:?}",
        status.transitions
    );
    // Batch priority is just as welcome on a healthy gate.
    let batch = service
        .query(&q, Priority::Batch, &Budget::unlimited())
        .unwrap();
    assert_eq!(batch.hits, expected);
}

#[test]
fn brownout_truncates_honestly_and_stamps_quality() {
    let site = small_site();
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();

    let q = qlang::parse(FIGURE13).unwrap();
    let full = engine.query(&q).unwrap();
    let brownout = QueryOptions {
        level: OverloadLevel::Brownout,
        ..QueryOptions::default()
    };
    let outcome = engine.execute(&q, &brownout).unwrap();
    assert_eq!(outcome.level, OverloadLevel::Brownout);
    assert!(
        outcome.quality < 1.0,
        "brownout answer must admit lost fidelity, got {}",
        outcome.quality
    );
    assert!(outcome.quality > 0.0);
    assert!(
        outcome.degraded.iter().any(|n| n.contains("DEGRADED")),
        "missing DEGRADED stamp: {:?}",
        outcome.degraded
    );
    // Media refinement was skipped: no shot evidence on brownout hits.
    assert!(outcome.hits.iter().all(|h| h.shots.is_empty()));
    // The browned-out answer is a coarsening, not garbage: every
    // returned chain head was a legitimate text-ranked candidate.
    let full_heads: std::collections::BTreeSet<&String> =
        full.iter().map(|h| h.chain.first().unwrap()).collect();
    for hit in &outcome.hits {
        // Brownout skips the media filter, so it may return players the
        // full answer rejected — but anything it shares with the full
        // answer must agree on the chain.
        if full_heads.contains(hit.chain.first().unwrap()) {
            assert_eq!(hit.chain.len(), 2);
        }
    }
    // Degraded answers are never cached: the next full-fidelity query
    // must recompute (and match) the full answer.
    assert_eq!(engine.query(&q).unwrap(), full);
}

#[test]
fn storm_at_ten_x_capacity_degrades_but_stays_live() {
    let site = small_site();
    let pages = crawl(&site);
    // Every text-server call stalls 4ms: queries are slow enough to
    // pile up behind two slots, and fault-wired engines bypass the
    // answer cache, so every admitted query does real work.
    let plan = Arc::new(
        FaultPlan::seeded(7)
            .with_delay_site("shard:0", DelaySpec::always(Duration::from_millis(4)))
            .with_delay_site("shard:1", DelaySpec::always(Duration::from_millis(4))),
    );
    let mut engine = ausopen::resilient_engine(Arc::clone(&site), 2, plan).unwrap();
    engine.populate(&pages).unwrap();

    let config = AdmissionConfig {
        max_concurrent: 2,
        max_queue: 4,
        queue_timeout: Duration::from_millis(150),
        pressured_queue: 1,
        brownout_queue: 2,
        latency_target: Duration::from_millis(2),
        latency_window: 8,
    };
    let service = Arc::new(QueryService::with_config(engine, config.clone()));

    // 10× capacity: 20 closed-loop clients against 2 slots.
    let clients = 10 * config.max_concurrent;
    let per_client = 6usize;
    let q = qlang::parse(STORM_QUERY).unwrap();

    let ok = Arc::new(AtomicUsize::new(0));
    let overloaded = Arc::new(AtomicUsize::new(0));
    let degraded_honest = Arc::new(AtomicUsize::new(0));
    let degraded_lying = Arc::new(AtomicUsize::new(0));
    let storm_done = Arc::new(AtomicBool::new(false));

    // A watchdog samples the gate throughout the storm: the queue must
    // never exceed its configured bound (that *is* the no-unbounded-
    // queueing property).
    let watchdog = {
        let service = Arc::clone(&service);
        let storm_done = Arc::clone(&storm_done);
        let max_queue = config.max_queue;
        std::thread::spawn(move || {
            let mut worst = 0usize;
            while !storm_done.load(Ordering::Relaxed) {
                worst = worst.max(service.status().queued);
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(
                worst <= max_queue,
                "queue grew past its bound: {worst} > {max_queue}"
            );
        })
    };

    let mut workers = Vec::new();
    for client in 0..clients {
        let service = Arc::clone(&service);
        let q = q.clone();
        let ok = Arc::clone(&ok);
        let overloaded = Arc::clone(&overloaded);
        let degraded_honest = Arc::clone(&degraded_honest);
        let degraded_lying = Arc::clone(&degraded_lying);
        workers.push(std::thread::spawn(move || {
            let mut latencies = Vec::new();
            let priority = if client % 4 == 3 {
                Priority::Batch
            } else {
                Priority::Interactive
            };
            for _ in 0..per_client {
                let start = Instant::now();
                match service.query(&q, priority, &Budget::unlimited()) {
                    Ok(outcome) => {
                        ok.fetch_add(1, Ordering::Relaxed);
                        if outcome.level >= OverloadLevel::Brownout {
                            // STORM_QUERY asks top-10 text: brownout
                            // halves it, so quality must confess.
                            if outcome.quality < 1.0
                                && outcome.degraded.iter().any(|n| n.contains("DEGRADED"))
                            {
                                degraded_honest.fetch_add(1, Ordering::Relaxed);
                            } else {
                                degraded_lying.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        if priority == Priority::Interactive {
                            latencies.push(start.elapsed());
                        }
                    }
                    Err(Error::Overloaded { retry_after_hint }) => {
                        overloaded.fetch_add(1, Ordering::Relaxed);
                        assert!(retry_after_hint >= Duration::from_millis(1));
                        // A cooperative client would back off here; the
                        // storm presses on to keep the pressure at 10×.
                    }
                    Err(other) => panic!("untyped failure under overload: {other}"),
                }
            }
            latencies
        }));
    }

    let mut interactive_latencies = Vec::new();
    for worker in workers {
        interactive_latencies.extend(worker.join().expect("no client may panic"));
    }
    storm_done.store(true, Ordering::Relaxed);
    watchdog.join().expect("queue bound violated");

    let status = service.status();
    // Liveness accounting: every attempt ended, one way or the other.
    assert_eq!(
        ok.load(Ordering::Relaxed) + overloaded.load(Ordering::Relaxed),
        clients * per_client
    );
    assert!(ok.load(Ordering::Relaxed) > 0, "nothing was ever served");
    assert!(
        overloaded.load(Ordering::Relaxed) > 0,
        "10x load should overflow a 4-deep queue at least once"
    );
    assert_eq!(
        degraded_lying.load(Ordering::Relaxed),
        0,
        "a browned-out answer claimed full quality"
    );
    assert!(
        !status.transitions.is_empty(),
        "the ladder never moved under 10x load"
    );
    // Interactive latency is bounded by queueing (timeout) + service;
    // p99 within a generous multiple of that proves boundedness.
    if !interactive_latencies.is_empty() {
        interactive_latencies.sort();
        let p99 = interactive_latencies[(interactive_latencies.len() - 1) * 99 / 100];
        assert!(
            p99 < Duration::from_secs(5),
            "interactive p99 unbounded: {p99:?}"
        );
    }

    // After the storm the gate drains back to Healthy and serves full
    // fidelity again.
    assert_eq!(status.queued, 0);
    assert_eq!(status.running, 0);
    let calm = service
        .query(&q, Priority::Interactive, &Budget::unlimited())
        .unwrap();
    assert_eq!(service.status().level, OverloadLevel::Healthy);
    assert_eq!(calm.quality, 1.0);
    assert!(calm.degraded.is_empty());
}

/// Figure 13 with the ranking restricted a-priori to the conceptual
/// candidates.
const FIGURE13_WITHIN: &str = r#"
    FROM Player
    WHERE gender = "female" AND hand = "left"
    TEXT history CONTAINS "Winner" WITHIN
    VIA Is_covered_in
    MEDIA video HAS netplay
    TOP 10
"#;

#[test]
fn budget_expiry_at_every_checkpoint_leaves_no_trace() {
    // The integrated query, ranked globally and ranked within the
    // conceptual candidates: both text stages charge one unit per
    // answering server group.
    for text in [FIGURE13, FIGURE13_WITHIN] {
        sweep_work_budgets(text);
    }
}

fn sweep_work_budgets(text: &str) {
    let site = small_site();
    let pages = crawl(&site);
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&pages).unwrap();

    // The ground truth comes from an untouched twin engine.
    let mut twin = ausopen::engine(Arc::clone(&site)).unwrap();
    twin.populate(&pages).unwrap();
    let q = qlang::parse(text).unwrap();
    let expected = twin.query(&q).unwrap();

    let digest_before = engine.state_digest().unwrap();
    let epochs_before = (
        engine.views().epoch(),
        engine.meta().store().epoch(),
        engine.text_index().epoch(),
    );
    let cache_before = engine.query_cache_stats();

    // Sweep the work budget through every checkpoint the query crosses:
    // 0..64 exhaustively, then doubling until the budget stops binding.
    let mut budgets: Vec<u64> = (0..64).collect();
    let mut step = 64u64;
    while step < 1 << 20 {
        budgets.push(step);
        step *= 2;
    }
    let mut cancelled = 0usize;
    let mut phases = std::collections::BTreeSet::new();
    let mut converged = None;
    for units in budgets {
        match budgeted(&mut engine, &q, &Budget::with_work(units)) {
            Ok(hits) => {
                converged = Some((units, hits));
                break;
            }
            Err(Error::DeadlineExceeded { partial, cause }) => {
                cancelled += 1;
                assert_eq!(cause, BudgetExceeded::Work);
                phases.insert(partial.phase.clone());
                // The cancelled run must be invisible: stores, epochs
                // and answer-cache counters all untouched.
                assert_eq!(engine.state_digest().unwrap(), digest_before);
                assert_eq!(
                    (
                        engine.views().epoch(),
                        engine.meta().store().epoch(),
                        engine.text_index().epoch(),
                    ),
                    epochs_before
                );
                assert_eq!(engine.query_cache_stats(), cache_before);
            }
            Err(other) => panic!("budget {units}: untyped cancellation: {other}"),
        }
    }
    let (units, hits) = converged.expect("some budget must be enough for the full query");
    assert!(cancelled > 0, "the sweep never actually cancelled anything");
    assert_eq!(
        hits, expected,
        "a sufficient budget (here {units}) must reproduce the unbudgeted answer"
    );
    assert!(
        phases.contains("conceptual") && phases.contains("text") && phases.contains("media"),
        "sweep should cut the early, the text and the late stages, saw {phases:?}"
    );
    // A budget-limited answer is never cached, and the engine still
    // answers the plain path bit-identically.
    assert_eq!(engine.query_cache_stats(), cache_before);
    assert_eq!(engine.query(&q).unwrap(), expected);
}

#[test]
fn cancellation_and_deadlines_are_typed_with_partial_progress() {
    let site = small_site();
    let mut engine = ausopen::engine(Arc::clone(&site)).unwrap();
    engine.populate(&crawl(&site)).unwrap();
    let q = qlang::parse(FIGURE13).unwrap();

    // Pre-cancelled budget: cut at the admission checkpoint.
    let cancelled = Budget::unlimited();
    cancelled.cancel();
    match budgeted(&mut engine, &q, &cancelled) {
        Err(Error::DeadlineExceeded { partial, cause }) => {
            assert_eq!(cause, BudgetExceeded::Cancelled);
            assert_eq!(partial.phase, "admission");
            assert_eq!(partial.completed, 0);
        }
        other => panic!("expected typed cancellation, got {other:?}"),
    }

    // Already-expired wall clock: same checkpoint, deadline cause.
    let expired = Budget::with_deadline(Duration::from_nanos(1));
    std::thread::sleep(Duration::from_millis(2));
    match budgeted(&mut engine, &q, &expired) {
        Err(Error::DeadlineExceeded { cause, .. }) => {
            assert_eq!(cause, BudgetExceeded::Deadline);
        }
        other => panic!("expected typed deadline, got {other:?}"),
    }

    // A mid-flight work cut reports the stage it stopped in and how far
    // that stage got.
    match budgeted(&mut engine, &q, &Budget::with_work(1)) {
        Err(Error::DeadlineExceeded { partial, .. }) => {
            assert_eq!(partial.phase, "conceptual");
        }
        other => panic!("expected conceptual-phase cut, got {other:?}"),
    }

    // The error's Display names the stage — operators grep for this.
    let err = budgeted(&mut engine, &q, &Budget::with_work(0)).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("budget expired") && msg.contains("conceptual"),
        "unhelpful message: {msg}"
    );
}
