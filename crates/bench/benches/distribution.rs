//! E16 — distribution: scale-out, replica failover, and rebalancing.
//!
//! Three questions about the replicated shared-nothing text tier, one
//! printed table each:
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
//! `BENCH_SMOKE=1` shrinks the workload.

use std::time::Instant;

use bench::median;
use faults::{FaultPlan, FaultSpec};
use ir::{DistributedIndex, Rebalancer, ScoreModel, SearchHit};

const QUERY: &str = "winner tennis champion";

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

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let (docs, iters): (usize, usize) = if smoke { (800, 1) } else { (30_000, 9) };
    let scale_servers: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };

    // -- Scaling: serial vs parallel wall clock, plus work balance. --
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
        println!(
            "e16_distribution/scaling servers={servers}: serial {:.3} ms, parallel {:.3} ms, \
             per-shard tuples {}..{}",
            median(&mut serial),
            median(&mut parallel),
            tuples.iter().min().copied().unwrap_or(0),
            tuples.iter().max().copied().unwrap_or(0)
        );
    }

    // -- Failover: healthy vs killed-server latency at R ∈ {0, 1, 2}. --
    let failover_servers = 4;
    let replica_grid: &[usize] = if smoke { &[0, 1] } else { &[0, 1, 2] };
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

        println!(
            "e16_distribution/failover R={replicas}: healthy {:.3} ms, server killed {:.3} ms, \
             failovers={}, failed={}, quality={:.3}, exact={exact}",
            median(&mut healthy),
            median(&mut killed),
            last.failovers,
            last.shards_failed,
            last.quality
        );
    }

    // -- Rebalancing: split 2 → 3, merge 3 → 2, answers pinned. --
    let mut d = build(2, 1, docs);
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
}
