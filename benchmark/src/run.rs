//! One benchmark run: set up, warm up, measure, maintain, recover.
//!
//! Closed loop throughout — callers of a library wait for their reply —
//! with at most as many client threads as the reference machine has
//! cores (2). The clients run whole *passes* of their seeded op lists;
//! the answer cache is emptied before each pass, so every pass does the
//! same work. A pass cut short by the clock is verified but not
//! measured; the first pass always completes.
//!
//! What a run measures more than once it reports at its best (see
//! `summarise`): on a shared host interference only ever adds time.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use crate::gen::{self, Library, Sizes};
use crate::layers;
use crate::oracle::{Digest, Hit, Oracle};
use crate::stats::{median, percentile};
use crate::sut::{Sut, UpgradeReport};
use crate::workload::{self, Op, Plan, Workload, Write};

/// The writer's pause between two writes when it runs beside readers.
const WRITER_THINK: Duration = Duration::from_millis(100);

/// The seed the committed answer digests were taken at.
pub const REFERENCE_SEED: u64 = 2001;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Compare the answers with the committed digest when the seed is
    /// the reference seed (off only while writing that digest).
    pub check_reference: bool,
}

#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric, or with `trace` every per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines for a human reader: counts, ungated percentiles, failures.
    pub notes: Vec<String>,
    /// Digest of the first pass's answers.
    pub answers: Digest,
}

/// Attempts and failures, with the first few failures kept for the
/// report.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub examples: Vec<String>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.examples.extend(other.examples);
        self.examples.truncate(5);
    }

    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.examples.len() < 5 {
                self.examples.push(format!("{what}: {why}"));
            }
        }
    }
}

/// One request's latency and answer.
pub type Reply = (Duration, Result<Vec<Hit>, String>);

/// What one pass of the clients' op lists produced.
pub struct Pass {
    /// Per client, per op reached.
    pub replies: Vec<Vec<Reply>>,
    pub wall: Duration,
    pub complete: bool,
}

impl Pass {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.replies
            .iter()
            .flatten()
            .map(|(d, _)| d.as_secs_f64() * 1e3)
            .collect()
    }

    pub fn qps(&self) -> f64 {
        self.replies.iter().map(Vec::len).sum::<usize>() as f64 / self.wall.as_secs_f64()
    }
}

/// Runs every client's list once, one thread per client, each stopping
/// early once `stop` says so.
pub fn run_pass(sut: &Sut, clients: &[Vec<Op>], stop: &(dyn Fn() -> bool + Sync)) -> Pass {
    sut.invalidate_query_cache();
    let start = Instant::now();
    let replies: Vec<Vec<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .map(|ops| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(ops.len());
                    for op in ops {
                        if stop() {
                            break;
                        }
                        out.push(sut.query(&op.query));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let complete = replies
        .iter()
        .zip(clients)
        .all(|(r, ops)| r.len() == ops.len());
    Pass {
        replies,
        wall,
        complete,
    }
}

/// Checks a pass against the oracle and, from the second pass on,
/// against the first pass's answers.
pub struct Verifier<'a> {
    oracle: &'a Oracle<'a>,
    first: Vec<Vec<Digest>>,
    pub tally: Tally,
}

impl<'a> Verifier<'a> {
    pub fn new(oracle: &'a Oracle<'a>) -> Verifier<'a> {
        Verifier {
            oracle,
            first: Vec::new(),
            tally: Tally::default(),
        }
    }

    pub fn check(&mut self, clients: &[Vec<Op>], pass: &Pass) {
        let remember = self.first.is_empty() && pass.complete;
        let mut digests = Vec::new();
        for (c, (ops, replies)) in clients.iter().zip(&pass.replies).enumerate() {
            let mut client_digests = Vec::with_capacity(replies.len());
            for (i, (op, (_, reply))) in ops.iter().zip(replies).enumerate() {
                let outcome = match reply {
                    Err(e) => Err(e.clone()),
                    Ok(hits) => self.oracle.check(&op.expect, hits).and_then(|()| {
                        let digest = Digest::of(hits);
                        client_digests.push(digest);
                        match self.first.get(c).and_then(|d| d.get(i)) {
                            Some(first) if *first != digest => {
                                Err("answer differs from the first pass".to_owned())
                            }
                            _ => Ok(()),
                        }
                    }),
                };
                self.tally.record(&op.query, outcome);
            }
            digests.push(client_digests);
        }
        if remember {
            self.first = digests;
        }
    }

    /// One digest over the first complete pass, clients in order.
    pub fn answers(&self) -> Digest {
        let mut all = Digest::new();
        for d in self.first.iter().flatten() {
            all.absorb(*d);
        }
        all
    }
}

/// Timings and counts of a write list.
#[derive(Default)]
pub struct WriteStats {
    pub refresh: Vec<Duration>,
    pub checkpoint: Vec<Duration>,
    pub upgrades: Vec<(Duration, UpgradeReport)>,
    pub objects: usize,
    pub wal_bytes: u64,
    pub tally: Tally,
}

impl WriteStats {
    /// Seconds spent re-parsing (refreshes and upgrades, not
    /// checkpoints). Every refresh regenerates a tree of the same shape:
    /// alone, each is counted at the fastest one's time, by the reasoning
    /// of `summarise`; beside readers, waiting for them is the cost, and
    /// the times are summed.
    pub fn maintain_busy(&self, beside_readers: bool) -> f64 {
        let times = seconds(&self.refresh);
        let refreshes = if beside_readers {
            times.iter().sum()
        } else {
            times.len() as f64 * times.iter().copied().reduce(f64::min).unwrap_or(0.0)
        };
        let upgrades: f64 = self.upgrades.iter().map(|(d, _)| d.as_secs_f64()).sum();
        refreshes + upgrades
    }
}

pub fn run_writes(sut: &Sut, lib: &Library, writes: &[Write], think: Duration) -> WriteStats {
    let mut stats = WriteStats::default();
    let wal_before = sut.counters.wal_append_bytes.load(Relaxed);
    for (i, write) in writes.iter().enumerate() {
        if i > 0 && !think.is_zero() {
            std::thread::sleep(think);
        }
        let t = Instant::now();
        match write {
            Write::Refresh(player) => {
                let url = &lib.players[*player].video_url;
                let outcome = sut.refresh_source(url).and_then(|regenerated| {
                    regenerated
                        .then_some(())
                        .ok_or_else(|| "tree kept".to_owned())
                });
                stats.refresh.push(t.elapsed());
                stats.objects += usize::from(outcome.is_ok());
                stats.tally.record(&format!("refresh {url}"), outcome);
            }
            Write::Checkpoint => {
                let outcome = sut.checkpoint();
                stats.checkpoint.push(t.elapsed());
                stats.tally.record("checkpoint", outcome);
            }
            Write::Upgrade => match sut.upgrade_tennis_online() {
                Ok(report) => {
                    let videos = lib.players.len();
                    let outcome = (report.objects == videos)
                        .then_some(())
                        .ok_or_else(|| format!("{} of {videos} videos re-parsed", report.objects));
                    stats.objects += report.objects;
                    stats.upgrades.push((t.elapsed(), report));
                    stats.tally.record("upgrade tennis", outcome);
                }
                Err(e) => stats.tally.record("upgrade tennis", Err(e)),
            },
        }
    }
    stats.wal_bytes = sut.counters.wal_append_bytes.load(Relaxed) - wal_before;
    stats
}

fn seconds(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(Duration::as_secs_f64).collect()
}

/// Reads one un-labelled sample out of a Prometheus text scrape.
fn scrape(metrics_text: &str, name: &str) -> Option<f64> {
    metrics_text.lines().find_map(|line| {
        let value = line.strip_prefix(name)?.strip_prefix(' ')?;
        value.trim().parse().ok()
    })
}

/// A fresh directory for this run's checkpoints, inside the benchmark's
/// own (git-ignored) results directory.
pub fn data_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("data-{}-{tag}", std::process::id()))
}

/// Digest file of a workload at the reference seed.
pub fn expected_path(workload: Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}.digest", workload.name()))
}

pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let dir = data_dir(cfg.workload.name());
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let report = run_in(cfg, &dir);
    // Leave nothing behind, whatever happened.
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn run_in(cfg: &RunConfig, dir: &Path) -> Result<Report, String> {
    let sizes = if cfg.smoke { Sizes::SMOKE } else { Sizes::FULL };
    let started = Instant::now();
    let lib = gen::generate(cfg.seed, sizes);
    let (sut, times) = Sut::setup(&lib, dir)?;
    let setup = started.elapsed();

    let oracle = Oracle::new(&lib);
    let plan = workload::plan(cfg.workload, &lib, &oracle, cfg.seed, cfg.smoke);
    let mut notes = vec![format!(
        "library: {} players, {} articles, {} pages, {} source bytes; ops/pass {:?}, writes {}",
        lib.players.len(),
        lib.articles.len(),
        lib.pages.len(),
        lib.source_bytes,
        plan.clients.iter().map(Vec::len).collect::<Vec<_>>(),
        plan.writes.len()
    )];

    if cfg.trace {
        return layers::traced_run(cfg, sut, &lib, &oracle, &plan, times, notes);
    }
    let mut verifier = Verifier::new(&oracle);

    // Warm-up, not measured here: one pass of the first client's list on
    // the engine as reopened pays for lazily decoded relations and media
    // evidence not yet memoised. (The traced run reports its time.)
    let warm = &plan.clients[..1];
    let warm_pass = run_pass(&sut, warm, &|| false);
    let mut warm_verifier = Verifier::new(&oracle);
    warm_verifier.check(warm, &warm_pass);

    let (passes, phase, mut writes) = measure(cfg, &sut, &lib, &plan, &mut verifier);
    let (latencies, qps) = summarise(&passes, plan.writer_beside_readers, phase);
    notes.push(format!(
        "measured {:.2} s: {} passes started, {} complete, {} requests; p50 {:.3} ms, p99 {:.3} ms, slowest {:.1} ms over {} samples (not gated)",
        phase.as_secs_f64(),
        passes.len(),
        passes.iter().filter(|p| p.complete).count(),
        passes.iter().map(|p| p.replies.iter().map(Vec::len).sum::<usize>()).sum::<usize>(),
        percentile(&latencies, 50.0),
        percentile(&latencies, 99.0),
        percentile(&latencies, 100.0),
        latencies.len()
    ));
    notes.push(format!(
        "per complete pass (p50 ms, p95 ms, 1/s): {}",
        passes
            .iter()
            .filter(|p| p.complete)
            .map(|p| {
                let l = p.latencies_ms();
                format!(
                    "({:.2}, {:.2}, {:.1})",
                    percentile(&l, 50.0),
                    percentile(&l, 95.0),
                    p.qps()
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let scrape_text = sut.metrics_text();
    let resident = scrape(&scrape_text, "monet_bytes_resident")
        .ok_or("the metrics scrape has no monet_bytes_resident")?;
    let disk = sut.disk_bytes();

    // Recovery: what was acknowledged must be what comes back.
    let before = sut.state_digest()?;
    let (sut, first_recovery) = sut.reopen()?;
    let after = sut.state_digest()?;
    let (sut, second_recovery) = sut.reopen()?;
    let recover = first_recovery.min(second_recovery);
    let answers = verifier.answers();
    let mut tally = verifier.tally;
    tally.merge(warm_verifier.tally);
    tally.merge(std::mem::take(&mut writes.tally));
    tally.record(
        "reopen",
        (before == after)
            .then_some(())
            .ok_or_else(|| "state digest changed across reopen".to_owned()),
    );
    drop(sut);

    if cfg.check_reference && cfg.seed == REFERENCE_SEED && !cfg.smoke {
        tally.record("reference answers", check_expected(cfg.workload, answers));
    }
    notes.extend(tally.examples.iter().map(|e| format!("FAILED {e}")));
    notes.push(format!(
        "set-up: populate {:.3} s, checkpoint {:.3} s, open {:.3} s; writes: {} refreshes (median {:.1} ms), {} checkpoints, upgrades {:?} s, {} objects re-parsed",
        times.populate.as_secs_f64(),
        times.persist.as_secs_f64(),
        times.open.as_secs_f64(),
        writes.refresh.len(),
        median(&seconds(&writes.refresh)) * 1e3,
        writes.checkpoint.len(),
        writes.upgrades.iter().map(|(d, _)| (d.as_secs_f64() * 1e3).round() / 1e3).collect::<Vec<_>>(),
        writes.objects
    ));

    let objects = writes.objects.max(1) as f64;
    let metrics = vec![
        ("setup_s", setup.as_secs_f64()),
        ("query_p95_ms", percentile(&latencies, 95.0)),
        ("throughput_qps", qps),
        ("resident_bytes_per_page", resident / lib.pages.len() as f64),
        (
            "disk_bytes_per_source_byte",
            disk as f64 / lib.source_bytes as f64,
        ),
        (
            "maintain_objects_per_s",
            objects / writes.maintain_busy(plan.writer_beside_readers),
        ),
        ("wal_bytes_per_object", writes.wal_bytes as f64 / objects),
        ("recover_s", recover.as_secs_f64()),
    ];
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        answers,
    })
}

/// Request latencies (ms) and throughput (1/s) of the measured phase,
/// which took `phase` from its first request to its last.
///
/// Passes repeat the same requests, and on a shared host interference
/// only ever adds time, in waves from a fraction of a second to many
/// seconds. So with one client and no writer, a request's latency is
/// the lowest it showed in any pass. With several clients, or beside a
/// writer, waiting for the others is part of the latency and differs
/// from pass to pass: there every sample of every pass counts.
/// Throughput is that of the best complete pass, except beside a
/// writer, whose stalls fall where they fall: there it is requests over
/// the whole phase.
fn summarise(passes: &[Pass], beside_writer: bool, phase: Duration) -> (Vec<f64>, f64) {
    let clients = passes.first().map_or(0, |p| p.replies.len());
    let latencies = if clients > 1 || beside_writer {
        passes.iter().flat_map(Pass::latencies_ms).collect()
    } else {
        let mut best: Vec<f64> = Vec::new();
        for pass in passes {
            for (i, (elapsed, _)) in pass.replies[0].iter().enumerate() {
                let ms = elapsed.as_secs_f64() * 1e3;
                match best.get_mut(i) {
                    Some(b) => *b = b.min(ms),
                    None => best.push(ms),
                }
            }
        }
        best
    };
    let qps = if beside_writer {
        let requests: usize = passes.iter().flat_map(|p| &p.replies).map(Vec::len).sum();
        requests as f64 / phase.as_secs_f64()
    } else {
        passes
            .iter()
            .filter(|p| p.complete)
            .map(Pass::qps)
            .fold(0.0, f64::max)
    };
    (latencies, qps)
}

/// The measured phase: passes until the clock runs out and, where the
/// writer runs beside the readers, until it is done too. Elsewhere the
/// write list follows the reads.
fn measure(
    cfg: &RunConfig,
    sut: &Sut,
    lib: &Library,
    plan: &Plan,
    verifier: &mut Verifier,
) -> (Vec<Pass>, Duration, WriteStats) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(cfg.seconds);
    std::thread::scope(|scope| {
        let writer = plan
            .writer_beside_readers
            .then(|| scope.spawn(|| run_writes(sut, lib, &plan.writes, WRITER_THINK)));
        let out_of_time =
            || Instant::now() >= deadline && writer.as_ref().is_none_or(|w| w.is_finished());
        let mut passes = Vec::new();
        loop {
            let pass = if passes.is_empty() {
                run_pass(sut, &plan.clients, &|| false)
            } else {
                run_pass(sut, &plan.clients, &out_of_time)
            };
            verifier.check(&plan.clients, &pass);
            passes.push(pass);
            if cfg.smoke || out_of_time() {
                break;
            }
        }
        let phase = started.elapsed();
        let writes = match writer {
            Some(w) => w.join().expect("writer thread panicked"),
            None => run_writes(sut, lib, &plan.writes, Duration::ZERO),
        };
        (passes, phase, writes)
    })
}

pub fn check_expected(workload: Workload, answers: Digest) -> Result<(), String> {
    let path = expected_path(workload);
    let expected =
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if expected.trim() == answers.hex() {
        Ok(())
    } else {
        Err(format!(
            "digest {} differs from the committed {}",
            answers.hex(),
            expected.trim()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(latencies_ms: &[f64], wall_s: f64, complete: bool) -> Pass {
        Pass {
            replies: vec![latencies_ms
                .iter()
                .map(|ms| (Duration::from_secs_f64(ms / 1e3), Ok(Vec::new())))
                .collect()],
            wall: Duration::from_secs_f64(wall_s),
            complete,
        }
    }

    #[test]
    fn a_request_counts_at_its_best_and_throughput_at_the_best_whole_pass() {
        let passes = [
            pass(&[4.0, 9.0, 2.0], 1.0, true),
            pass(&[5.0, 3.0, 2.5], 0.5, true),
            // Cut short: its samples count, its throughput does not.
            pass(&[1.0], 0.001, false),
        ];
        let (latencies, qps) = summarise(&passes, false, Duration::from_secs(9));
        assert_eq!(latencies.len(), 3);
        assert!((latencies[0] - 1.0).abs() < 1e-9 && (latencies[1] - 3.0).abs() < 1e-9);
        assert!((latencies[2] - 2.0).abs() < 1e-9);
        assert!((qps - 6.0).abs() < 1e-9);
    }

    #[test]
    fn with_company_every_sample_counts() {
        let two = |a: &[f64], b: &[f64], wall: f64| {
            let mut p = pass(a, wall, true);
            p.replies.push(pass(b, wall, true).replies.remove(0));
            p
        };
        let passes = [
            two(&[4.0, 9.0], &[6.0, 1.0], 1.0),
            two(&[5.0, 3.0], &[7.0, 8.0], 0.5),
        ];
        let (latencies, qps) = summarise(&passes, false, Duration::from_secs(9));
        assert_eq!(latencies.len(), 8);
        assert!((qps - 8.0).abs() < 1e-9, "the best pass");

        let passes = [pass(&[4.0, 9.0], 1.0, true), pass(&[5.0], 0.5, false)];
        let (latencies, qps) = summarise(&passes, true, Duration::from_secs(2));
        assert_eq!(latencies.len(), 3);
        assert!((qps - 1.5).abs() < 1e-9, "requests over the whole phase");
    }

    #[test]
    fn scrape_reads_a_plain_sample() {
        let text = "# HELP monet_bytes_resident x\nmonet_bytes_resident_total 7\nmonet_bytes_resident 1234\n";
        assert_eq!(scrape(text, "monet_bytes_resident"), Some(1234.0));
        assert_eq!(scrape(text, "absent"), None);
    }

    /// The whole run shape against the real engine on the smoke library:
    /// every answer of the mixed workload must satisfy the oracle, and
    /// the state must survive the reopen.
    #[test]
    fn smoke_run_of_the_mixed_workload_has_no_failures() {
        let report = run(&RunConfig {
            workload: Workload::LibraryMix,
            seed: 5,
            seconds: 0.0,
            trace: false,
            smoke: true,
            check_reference: true,
        })
        .expect("smoke run");
        assert_eq!(report.failed, 0, "{:?}", report.notes);
        assert!(report.attempted > 60);
        let names: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = crate::metrics::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        assert!(report
            .metrics
            .iter()
            .all(|(_, v)| v.is_finite() && *v > 0.0));
    }
}
