//! E19 — the self-healing distribution control plane.
//!
//! Three questions about the control plane's mechanisms, in one
//! artifact (`BENCH_control.json` at the repository root):
//!
//! * **Read-scaling**: with R replicas per shard group, how much query
//!   throughput does round-robin routing buy over always reading the
//!   primary (replica-0-only)? Answers must stay byte-identical — the
//!   routing spreads work, it never changes a ranking.
//! * **Time to full health**: after a whole server is declared
//!   permanently lost, how long does background re-replication take to
//!   rebuild its copies onto survivors (begin → chunked steps →
//!   epoch-checked commit), and how many copies move?
//! * **Foreground interference**: what is the foreground query p99
//!   *while* re-replication steps run, versus the healthy baseline?
//!   The rebuild works off private snapshots, so the paid cost is the
//!   interleaving itself, not a lock.
//!
//! `BENCH_SMOKE=1` shrinks the workload and skips the JSON write.

use std::time::{Duration, Instant};

use faults::{FaultPlan, FaultSpec};
use ir::{DistributedIndex, ReadRouting, ScoreModel, SearchHit};
use obs::report::{BenchReport, Json};

const QUERY: &str = "winner tennis champion";
const LOSS_THRESHOLD: u32 = 3;

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn p99(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[(samples.len() - 1) * 99 / 100]
}

fn build(servers: usize, replicas: usize, docs: usize) -> DistributedIndex {
    let mut d = DistributedIndex::with_replication(servers, ScoreModel::TfIdf, replicas)
        .expect("valid cluster shape");
    for (url, body) in bench::text_corpus(docs) {
        d.index_document(&url, &body).expect("index");
    }
    d.commit().expect("commit");
    // The serving default (250 ms/shard) is a liveness bound for
    // interactive traffic; on the single-core bench container a full
    // 30k-document scan can exceed it. The bench measures latency, it
    // does not shed it.
    d.set_shard_deadline(Duration::from_secs(30));
    d
}

fn ranking(hits: &[SearchHit]) -> Vec<(String, u64)> {
    hits.iter()
        .map(|h| (h.url.clone(), h.score.to_bits()))
        .collect()
}

struct RoutePoint {
    replicas: usize,
    primary_qps: f64,
    routed_qps: f64,
    replica_share: f64,
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let (docs, iters): (usize, usize) = if smoke { (800, 8) } else { (30_000, 200) };
    let servers = 4;
    let obs_handle = obs::Obs::enabled();

    // -- Read-scaling: primary-only vs round-robin throughput. --
    let replica_grid: &[usize] = if smoke { &[1] } else { &[1, 2] };
    let mut routing = Vec::new();
    for &replicas in replica_grid {
        let mut d = build(servers, replicas, docs);
        let clean = ranking(&d.query_serial(QUERY, 10).hits);

        let measure = |d: &mut DistributedIndex, routing: ReadRouting| -> (f64, usize) {
            d.set_read_routing(routing);
            let mut replica_reads = 0usize;
            let start = Instant::now();
            for _ in 0..iters {
                let r = d.query_parallel(QUERY, 10).expect("query");
                assert_eq!(ranking(&r.hits), clean, "routing changed an answer");
                replica_reads += r
                    .served_by
                    .iter()
                    .flatten()
                    .filter(|&&copy| copy != 0)
                    .count();
            }
            (iters as f64 / start.elapsed().as_secs_f64(), replica_reads)
        };
        let (primary_qps, primary_replica_reads) = measure(&mut d, ReadRouting::Primary);
        assert_eq!(primary_replica_reads, 0, "primary routing must not touch replicas");
        let (routed_qps, routed_replica_reads) = measure(&mut d, ReadRouting::RoundRobin);
        assert!(routed_replica_reads > 0, "round-robin must spread reads");
        let replica_share = routed_replica_reads as f64 / (iters * servers) as f64;

        println!(
            "e19_control/read_scaling R={replicas}: primary {primary_qps:.1} qps, \
             round-robin {routed_qps:.1} qps, replica share {replica_share:.2}"
        );
        routing.push(RoutePoint {
            replicas,
            primary_qps,
            routed_qps,
            replica_share,
        });
    }

    // -- Loss → re-replication: time to full health, and foreground
    //    p99 while the rebuild steps run. --
    let replicas = if smoke { 1 } else { 2 };
    let mut d = build(servers, replicas, docs);
    d.set_obs(&obs_handle);
    let clean = ranking(&d.query_serial(QUERY, 10).hits);

    let mut healthy_lat = Vec::new();
    for _ in 0..iters.max(16) {
        let start = Instant::now();
        d.query_parallel(QUERY, 10).expect("healthy");
        healthy_lat.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let healthy_p99_ms = p99(&mut healthy_lat);

    // Kill a whole server; every hosted copy fails until the loss is
    // declared at the consecutive-failure threshold.
    let victim = 1;
    let plan = FaultPlan::seeded(19);
    plan.set_sites(d.fault_labels_for_server(victim), FaultSpec::always_error());
    d.set_fault_plan(plan.shared());
    let loss_start = Instant::now();
    for _ in 0..LOSS_THRESHOLD {
        let r = d.query_parallel(QUERY, 10).expect("outage query");
        assert_eq!(ranking(&r.hits), clean, "failover must stay exact");
    }
    assert_eq!(d.lost_servers(LOSS_THRESHOLD), vec![victim]);
    let declare_ms = loss_start.elapsed().as_secs_f64() * 1e3;

    // Rebuild, interleaving one foreground query per step — the
    // measured p99 is the query cost *during* the heal.
    let heal_start = Instant::now();
    let mut job = d.begin_rereplication(victim).expect("begin");
    let rebuilt_objects = job.objects();
    let mut during_lat = Vec::new();
    while !job.is_done() {
        job.step(None).expect("step");
        let start = Instant::now();
        let r = d.query_parallel(QUERY, 10).expect("foreground during heal");
        during_lat.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(ranking(&r.hits), clean);
    }
    let installed = d.commit_rereplication(job).expect("commit");
    let heal_ms = heal_start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(installed, rebuilt_objects);
    assert!(d.lost_servers(LOSS_THRESHOLD).is_empty(), "health must be restored");
    let during_p99_ms = p99(&mut during_lat);

    let mut healed_lat = Vec::new();
    let mut last_failovers = usize::MAX;
    for _ in 0..iters.max(16) {
        let start = Instant::now();
        let r = d.query_parallel(QUERY, 10).expect("healed");
        healed_lat.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(ranking(&r.hits), clean);
        last_failovers = r.failovers;
    }
    assert_eq!(last_failovers, 0, "after the heal no failover is left");
    let healed_median_ms = median(&mut healed_lat);

    println!(
        "e19_control/heal R={replicas}: loss declared in {declare_ms:.1} ms \
         ({LOSS_THRESHOLD} strikes), rebuilt {installed} cop(ies) in {heal_ms:.1} ms; \
         foreground p99 healthy {healthy_p99_ms:.3} ms vs during-heal {during_p99_ms:.3} ms, \
         healed median {healed_median_ms:.3} ms"
    );

    if smoke {
        println!("e19_control: smoke mode, not writing BENCH_control.json");
        return;
    }

    let routing_rows: Vec<Json> = routing
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("replicas".to_owned(), Json::Int(p.replicas as i64)),
                ("primary_qps".to_owned(), Json::Num(p.primary_qps)),
                ("round_robin_qps".to_owned(), Json::Num(p.routed_qps)),
                ("replica_read_share".to_owned(), Json::Num(p.replica_share)),
            ])
        })
        .collect();
    let heal_row = Json::Obj(vec![
        ("replicas".to_owned(), Json::Int(replicas as i64)),
        ("loss_threshold".to_owned(), Json::Int(LOSS_THRESHOLD as i64)),
        ("declare_ms".to_owned(), Json::Num(declare_ms)),
        ("rebuild_ms".to_owned(), Json::Num(heal_ms)),
        ("copies_rebuilt".to_owned(), Json::Int(installed as i64)),
        ("healthy_p99_ms".to_owned(), Json::Num(healthy_p99_ms)),
        ("during_heal_p99_ms".to_owned(), Json::Num(during_p99_ms)),
        ("healed_median_ms".to_owned(), Json::Num(healed_median_ms)),
    ]);

    let report = BenchReport::new("e19_control_plane")
        .config("docs", Json::Int(docs as i64))
        .config("iterations", Json::Int(iters as i64))
        .config("servers", Json::Int(servers as i64))
        .result("read_scaling", Json::Arr(routing_rows))
        .result("rereplication", heal_row)
        .metrics(obs_handle.registry().expect("enabled"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_control.json");
    std::fs::write(path, report.render()).expect("write BENCH_control.json");
    println!("e19_control: wrote {path}");
}
