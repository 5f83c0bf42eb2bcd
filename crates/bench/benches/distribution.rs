//! E16 — distribution: scale-out, replica failover, and rebalancing.
//!
//! Three questions about the replicated shared-nothing text tier, in
//! one artifact (`BENCH_distribution.json` at the repository root):
//!
//! * **Scaling** (the original E5 claim): per-document assignment
//!   gives "almost perfect shared nothing parallelism" — work per
//!   shard falls ~1/N and the parallel path improves with N until
//!   thread overhead dominates on this corpus size.
//! * **Failover latency**: with a whole server killed, what does a
//!   query cost versus the healthy baseline at R ∈ {0, 1, 2}? At
//!   R ≥ 1 the answer must stay *exact* (same `(url, score)` ranking,
//!   no degradation); at R = 0 the dead primary is lost and quality
//!   drops below 1.0.
//! * **Rebalancing**: wall-clock cost and documents moved for an
//!   epoch-consistent split (grow by one server) and merge (shrink by
//!   one), with the ranking pinned byte for byte across both.
//!
//! `BENCH_SMOKE=1` shrinks the workload and skips the JSON write.

use std::time::Instant;

use faults::{FaultPlan, FaultSpec};
use ir::{DistributedIndex, Rebalancer, ScoreModel, SearchHit};
use obs::report::{BenchReport, Json};

const QUERY: &str = "winner tennis champion";

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn build(servers: usize, replicas: usize, docs: usize) -> DistributedIndex {
    let mut d = DistributedIndex::with_replication(servers, ScoreModel::TfIdf, replicas)
        .expect("valid cluster shape");
    for (url, body) in bench::text_corpus(docs) {
        d.index_document(&url, &body).expect("index");
    }
    d.commit().expect("commit");
    d
}

/// Layout-independent ranking projection: oids are shard-local, so
/// exactness across failovers and layouts is on `(url, score-bits)`.
fn ranking(hits: &[SearchHit]) -> Vec<(String, u64)> {
    hits.iter()
        .map(|h| (h.url.clone(), h.score.to_bits()))
        .collect()
}

struct ScalePoint {
    servers: usize,
    serial_ms: f64,
    parallel_ms: f64,
    tuples_min: usize,
    tuples_max: usize,
}

struct FailoverPoint {
    replicas: usize,
    healthy_ms: f64,
    failover_ms: f64,
    failovers: usize,
    shards_failed: usize,
    quality: f64,
    exact: bool,
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let (docs, iters): (usize, usize) = if smoke { (800, 1) } else { (30_000, 9) };
    let scale_servers: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let obs_handle = obs::Obs::enabled();

    // -- Scaling: serial vs parallel wall clock, plus work balance. --
    let mut scaling = Vec::new();
    for &servers in scale_servers {
        let mut d = build(servers, 0, docs);
        let mut serial = Vec::new();
        let mut parallel = Vec::new();
        for _ in 0..iters {
            let start = Instant::now();
            let r = d.query_serial(QUERY, 10);
            serial.push(start.elapsed().as_secs_f64() * 1e3);
            assert!(!r.hits.is_empty());
            let start = Instant::now();
            let r = d.query_parallel(QUERY, 10).expect("parallel");
            parallel.push(start.elapsed().as_secs_f64() * 1e3);
            assert!(!r.hits.is_empty());
        }
        let work = d.query_serial(QUERY, 10);
        let tuples: Vec<usize> = work.per_shard_work.iter().map(|w| w.tuples).collect();
        let point = ScalePoint {
            servers,
            serial_ms: median(&mut serial),
            parallel_ms: median(&mut parallel),
            tuples_min: tuples.iter().min().copied().unwrap_or(0),
            tuples_max: tuples.iter().max().copied().unwrap_or(0),
        };
        println!(
            "e16_distribution/scaling servers={}: serial {:.3} ms, parallel {:.3} ms, \
             per-shard tuples {}..{}",
            point.servers, point.serial_ms, point.parallel_ms, point.tuples_min, point.tuples_max
        );
        scaling.push(point);
    }

    // -- Failover: healthy vs killed-server latency at R ∈ {0, 1, 2}. --
    let failover_servers = 4;
    let replica_grid: &[usize] = if smoke { &[0, 1] } else { &[0, 1, 2] };
    let mut failover = Vec::new();
    for &replicas in replica_grid {
        let mut d = build(failover_servers, replicas, docs);
        let clean = ranking(&d.query_serial(QUERY, 10).hits);

        let mut healthy = Vec::new();
        for _ in 0..iters {
            let start = Instant::now();
            d.query_parallel(QUERY, 10).expect("healthy");
            healthy.push(start.elapsed().as_secs_f64() * 1e3);
        }

        // Kill one whole machine: its primary shard and every replica
        // it hosts. Each query re-encounters the dead server, so every
        // sample pays the real failover path.
        let victim = 1;
        let plan = FaultPlan::seeded(16);
        plan.set_sites(d.fault_labels_for_server(victim), FaultSpec::always_error());
        d.set_fault_plan(plan.shared());
        let mut killed = Vec::new();
        let mut last = None;
        for _ in 0..iters {
            let start = Instant::now();
            let r = d.query_parallel(QUERY, 10).expect("killed");
            killed.push(start.elapsed().as_secs_f64() * 1e3);
            last = Some(r);
        }
        let last = last.expect("at least one iteration");
        let exact = ranking(&last.hits) == clean;
        if replicas >= 1 {
            assert!(exact, "R={replicas}: failover must be exact");
            assert_eq!(last.shards_failed, 0);
            assert!(last.failovers >= 1);
        } else {
            assert!(last.quality < 1.0, "R=0: a dead primary must degrade");
        }

        let point = FailoverPoint {
            replicas,
            healthy_ms: median(&mut healthy),
            failover_ms: median(&mut killed),
            failovers: last.failovers,
            shards_failed: last.shards_failed,
            quality: last.quality,
            exact,
        };
        println!(
            "e16_distribution/failover R={}: healthy {:.3} ms, server killed {:.3} ms, \
             failovers={}, failed={}, quality={:.3}, exact={}",
            point.replicas,
            point.healthy_ms,
            point.failover_ms,
            point.failovers,
            point.shards_failed,
            point.quality,
            point.exact
        );
        failover.push(point);
    }

    // -- Rebalancing: split 2 → 3, merge 3 → 2, answers pinned. --
    let mut d = build(2, 1, docs);
    d.set_obs(&obs_handle);
    let before = ranking(&d.query_serial(QUERY, 10).hits);
    let r = Rebalancer::new();

    let start = Instant::now();
    let split = r.split(&mut d).expect("split");
    let split_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(split.shards_after, 3);
    assert_eq!(
        ranking(&d.query_serial(QUERY, 10).hits),
        before,
        "the split must be invisible to ranking"
    );

    let start = Instant::now();
    let merge = r.merge(&mut d).expect("merge");
    let merge_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(merge.shards_after, 2);
    assert_eq!(
        ranking(&d.query_serial(QUERY, 10).hits),
        before,
        "the merge must be invisible to ranking"
    );
    println!(
        "e16_distribution/rebalance: split {:.1} ms ({} docs moved), \
         merge {:.1} ms ({} docs moved)",
        split_ms, split.moved_docs, merge_ms, merge.moved_docs
    );

    if smoke {
        println!("e16_distribution: smoke mode, not writing BENCH_distribution.json");
        return;
    }

    let scaling_rows: Vec<Json> = scaling
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("servers".to_owned(), Json::Int(p.servers as i64)),
                ("serial_median_ms".to_owned(), Json::Num(p.serial_ms)),
                ("parallel_median_ms".to_owned(), Json::Num(p.parallel_ms)),
                ("per_shard_tuples_min".to_owned(), Json::Int(p.tuples_min as i64)),
                ("per_shard_tuples_max".to_owned(), Json::Int(p.tuples_max as i64)),
            ])
        })
        .collect();
    let failover_rows: Vec<Json> = failover
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("replicas".to_owned(), Json::Int(p.replicas as i64)),
                ("healthy_median_ms".to_owned(), Json::Num(p.healthy_ms)),
                ("failover_median_ms".to_owned(), Json::Num(p.failover_ms)),
                ("failovers".to_owned(), Json::Int(p.failovers as i64)),
                ("shards_failed".to_owned(), Json::Int(p.shards_failed as i64)),
                ("quality".to_owned(), Json::Num(p.quality)),
                ("exact".to_owned(), Json::Bool(p.exact)),
            ])
        })
        .collect();
    let rebalance_row = Json::Obj(vec![
        ("split_ms".to_owned(), Json::Num(split_ms)),
        ("split_moved_docs".to_owned(), Json::Int(split.moved_docs as i64)),
        ("merge_ms".to_owned(), Json::Num(merge_ms)),
        ("merge_moved_docs".to_owned(), Json::Int(merge.moved_docs as i64)),
    ]);

    let report = BenchReport::new("e16_distribution_failover")
        .config("docs", Json::Int(docs as i64))
        .config("iterations", Json::Int(iters as i64))
        .config("failover_servers", Json::Int(failover_servers as i64))
        .result("scaling", Json::Arr(scaling_rows))
        .result("failover", Json::Arr(failover_rows))
        .result("rebalance", rebalance_row)
        .metrics(obs_handle.registry().expect("enabled"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_distribution.json");
    std::fs::write(path, report.render()).expect("write BENCH_distribution.json");
    println!("e16_distribution: wrote {path}");
}
