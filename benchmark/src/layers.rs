//! The traced run: per-layer numbers, taken from the benchmark's side of
//! each layer boundary.
//!
//! Every request of the workload is run once through `Engine::query`
//! with the answer cache emptied, then the calls the engine made into
//! the layers below are replayed with the same inputs and timed on
//! their own: `WebspaceIndex::execute`, `DistributedIndex::
//! query_parallel` / `query_restricted`. What is left of the engine's
//! time is its self time (planning, candidate sets, the memoised media
//! check, ranking). Layer costs a request mix does not show — ingest,
//! snapshot encoding, tree reconstruction, BAT probes — are measured by
//! small probes against the same engine or a 1 000-document scratch
//! structure. The layers are the crate names.

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use dlsearch::{ausopen, qlang};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::Library;
use crate::oracle::Oracle;
use crate::run::{run_pass, run_writes, Report, RunConfig, Tally, Verifier};
use crate::stats::{mean, median};
use crate::sut::{self, SetupTimes, Sut};
use crate::workload::{Op, Plan};

const SCRATCH_DOCS: usize = 1000;
const SAMPLED_TREES: usize = 16;
const BAT_PROBES: usize = 100_000;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Per-request samples of the traced pass, in milliseconds.
#[derive(Default)]
struct QueryTrace {
    parse: Vec<f64>,
    engine: Vec<f64>,
    cache_hit: Vec<f64>,
    front_door_hit: Vec<f64>,
    webspace: Vec<f64>,
    ir_query: Vec<f64>,
    ir_restricted: Vec<f64>,
    ir_critical: Vec<f64>,
    ir_gather: Vec<f64>,
    self_time: Vec<f64>,
    rows_out: u64,
    tuples: u64,
    text_hits: u64,
    wall: Duration,
}

fn trace_queries(
    sut: &Sut,
    ops: &[&Op],
    oracle: &Oracle,
    tally: &mut Tally,
) -> Result<QueryTrace, String> {
    let mut trace = QueryTrace::default();
    let started = Instant::now();
    for op in ops {
        // Everything that is compared with something else is timed on
        // its second run, on warm code.
        black_box(qlang::parse(&op.query)).ok();
        let (parsed, parse) = timed(|| qlang::parse(&op.query));
        let q = parsed.map_err(|e| e.to_string())?;
        trace.parse.push(ms(parse));

        let mut engine = sut.engine();
        engine.invalidate_query_cache();
        let (answer, miss) = timed(|| engine.query(&q));
        // Cached answers, directly and through the front door.
        black_box(engine.query(&q)).ok();
        let (_, hit) = timed(|| black_box(engine.query(&q)));
        drop(engine);
        let _warm = sut.query(&op.query);
        let (front_door, _) = sut.query(&op.query);
        trace.engine.push(ms(miss));
        trace.cache_hit.push(ms(hit));
        trace.front_door_hit.push(ms(front_door));
        tally.record(
            &op.query,
            answer
                .map_err(|e| e.to_string())
                .and_then(|hits| oracle.check(&op.expect, &sut::hits(hits))),
        );

        // The replays.
        let mut engine = sut.engine();
        let (rows, webspace) = timed(|| engine.webspace().execute(&q.conceptual));
        let rows = rows.map_err(|e| e.to_string())?;
        trace.webspace.push(ms(webspace));
        trace.rows_out += rows.len() as u64;
        let mut below = webspace;
        if let Some(text) = &q.text {
            let (result, elapsed) = if text.rank_within {
                let candidates: HashSet<String> = rows
                    .iter()
                    .filter_map(|r| r.chain.first())
                    .map(|id| format!("{id}#{}", text.attr))
                    .collect();
                let (result, elapsed) = timed(|| {
                    engine
                        .text_index_mut()
                        .query_restricted(&text.query, text.top_n, &candidates)
                });
                trace.ir_restricted.push(ms(elapsed));
                (result, elapsed)
            } else {
                let (result, elapsed) = timed(|| {
                    engine
                        .text_index_mut()
                        .query_parallel(&text.query, text.top_n)
                });
                trace.ir_query.push(ms(elapsed));
                (result, elapsed)
            };
            let result = result.map_err(|e| e.to_string())?;
            let critical = result.slowest_shard();
            trace.ir_critical.push(ms(critical));
            trace.ir_gather.push(ms(elapsed.saturating_sub(critical)));
            trace.tuples += result
                .per_shard_work
                .iter()
                .map(|w| w.tuples as u64)
                .sum::<u64>();
            trace.text_hits += result.hits.len() as u64;
            below += elapsed;
        }
        trace.self_time.push(ms(miss.saturating_sub(below)));
    }
    trace.wall = started.elapsed();
    Ok(trace)
}

/// Costs of the layers below the request path.
struct Probes {
    extract: Duration,
    index_docs_per_s: f64,
    insert_docs_per_s: f64,
    ir_bytes_per_doc: f64,
    xml_bytes_per_page: f64,
    snapshot: Duration,
    snapshot_bytes: usize,
    reconstruct_ms: f64,
    tree_ms: f64,
    probe_ns: f64,
}

fn probe(sut: &Sut, lib: &Library, seed: u64) -> Result<Probes, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x001a_7e25);

    // webspace: re-engineering every page into views.
    let retriever = ausopen::retriever();
    let (extracted, extract) = timed(|| -> Result<usize, String> {
        let mut extracts = Vec::with_capacity(lib.pages.len());
        for (url, html) in &lib.pages {
            extracts.push(
                retriever
                    .extract_page(url, html)
                    .map_err(|e| e.to_string())?,
            );
        }
        Ok(retriever.finalize(extracts).len())
    });
    black_box(extracted?);

    // ir and monetxml: ingest of a scratch structure.
    let scratch = lib.articles.len().min(SCRATCH_DOCS);
    let mut index = ir::DistributedIndex::with_replication(2, ir::ScoreModel::TfIdf, 1)
        .map_err(|e| e.to_string())?;
    let (indexed, index_time) = timed(|| {
        index
            .index_documents(
                lib.articles[..scratch]
                    .iter()
                    .map(|a| (a.id.as_str(), a.body.as_str())),
            )
            .and_then(|()| index.commit())
    });
    indexed.map_err(|e| e.to_string())?;
    let first_article = lib.pages.len() - lib.articles.len();
    let parsed: Vec<(&str, monetxml::Document)> = lib.pages[first_article..first_article + scratch]
        .iter()
        .map(|(url, html)| {
            Ok((
                url.as_str(),
                monetxml::parse_document(html).map_err(|e| e.to_string())?,
            ))
        })
        .collect::<Result<_, String>>()?;
    let mut store = monetxml::XmlStore::new();
    let (inserted, insert_time) =
        timed(|| store.insert_documents(parsed.iter().map(|(url, doc)| (*url, doc))));
    inserted.map_err(|e| e.to_string())?;

    let mut engine = sut.engine();

    // Footprints, before the probes below decode anything further.
    let servers = engine.text_index().servers();
    let (ir_bytes, ir_docs) = (0..servers).fold((0, 0), |(bytes, docs), k| {
        let shard = engine.text_index().shard(k);
        (
            bytes + shard.db().resident_bytes(),
            docs + shard.document_count(),
        )
    });
    let xml_bytes = engine.views().db().resident_bytes();

    // monet: encoding the view store's snapshot.
    let (snapshot, snapshot_time) = timed(|| engine.views().snapshot());
    let snapshot_bytes = snapshot.map_err(|e| e.to_string())?.len();

    // monetxml and acoi: rebuilding stored parse trees.
    let roots = engine.meta().store().roots().to_vec();
    let mut reconstruct = Vec::new();
    for _ in 0..SAMPLED_TREES.min(roots.len()) {
        let root = roots[rng.gen_range(0..roots.len())];
        let (doc, elapsed) = timed(|| engine.meta_mut().store_mut().reconstruct(root));
        black_box(doc.map_err(|e| e.to_string())?);
        reconstruct.push(ms(elapsed));
    }
    let grammar = engine.grammar().clone();
    let sources = engine.meta().sources().to_vec();
    let mut tree = Vec::new();
    for _ in 0..SAMPLED_TREES.min(sources.len()) {
        let source = &sources[rng.gen_range(0..sources.len())];
        let (parse_tree, elapsed) = timed(|| engine.meta_mut().tree(&grammar, source));
        black_box(parse_tree.map_err(|e| e.to_string())?);
        tree.push(ms(elapsed));
    }

    // monet: point probes on the largest relation of a text shard.
    let db = engine.text_index().shard(0).db();
    let mut largest: Option<&monet::Bat> = None;
    for name in db.relation_names() {
        let bat = db.get(name).map_err(|e| e.to_string())?;
        if largest.is_none_or(|l| bat.len() > l.len()) {
            largest = Some(bat);
        }
    }
    let bat = largest.ok_or("text shard 0 holds no relation")?;
    let heads: Vec<monet::Oid> = bat.heads().collect();
    let picks: Vec<monet::Oid> = (0..BAT_PROBES)
        .map(|_| heads[rng.gen_range(0..heads.len())])
        .collect();
    let (found, probe_time) = timed(|| {
        picks
            .iter()
            .filter(|head| black_box(bat.first_tail_of(**head)).is_some())
            .count()
    });
    if found != picks.len() {
        return Err(format!(
            "{} of {} BAT probes found their head",
            found,
            picks.len()
        ));
    }

    Ok(Probes {
        extract,
        index_docs_per_s: scratch as f64 / index_time.as_secs_f64(),
        insert_docs_per_s: scratch as f64 / insert_time.as_secs_f64(),
        ir_bytes_per_doc: ir_bytes as f64 / ir_docs.max(1) as f64,
        xml_bytes_per_page: xml_bytes as f64 / lib.pages.len() as f64,
        snapshot: snapshot_time,
        snapshot_bytes,
        reconstruct_ms: mean(&reconstruct),
        tree_ms: mean(&tree),
        probe_ns: probe_time.as_nanos() as f64 / picks.len() as f64,
    })
}

pub fn traced_run(
    cfg: &RunConfig,
    sut: Sut,
    lib: &Library,
    oracle: &Oracle,
    plan: &Plan,
    times: SetupTimes,
    mut notes: Vec<String>,
) -> Result<Report, String> {
    let never = || false;
    let mut verifier = Verifier::new(oracle);

    // Untraced passes through the front door: one to warm up, one as
    // the base the other passes are compared with.
    let warmup = run_pass(&sut, &plan.clients[..1], &never).wall;
    let (hits_before, misses_before) = sut.engine().query_cache_stats();
    let base = run_pass(&sut, &plan.clients, &never);
    let (hits_after, misses_after) = sut.engine().query_cache_stats();
    verifier.check(&plan.clients, &base);
    let (hits, misses) = (hits_after - hits_before, misses_after - misses_before);

    // obs: the same pass with the engine's own instrumentation off.
    sut.set_obs(false);
    let dark = run_pass(&sut, &plan.clients, &never);
    sut.set_obs(true);

    // core: the same requests from one client and from two.
    let ops: Vec<&Op> = plan.clients.iter().flatten().collect();
    // One list dealt to two clients, or two lists given to one.
    let other_clients = 3 - plan.clients.len();
    let other: Vec<Vec<Op>> = (0..other_clients)
        .map(|k| {
            ops.iter()
                .skip(k)
                .step_by(other_clients)
                .map(|op| (*op).clone())
                .collect()
        })
        .collect();
    let other_pass = run_pass(&sut, &other, &never);
    let (one_client, two_clients) = if plan.clients.len() == 1 {
        (&base, &other_pass)
    } else {
        (&other_pass, &base)
    };

    let trace = trace_queries(&sut, &ops, oracle, &mut verifier.tally)?;
    let probes = probe(&sut, lib, cfg.seed)?;
    let mut writes = run_writes(&sut, lib, &plan.writes, Duration::ZERO);

    let engine_total: f64 = trace.engine.iter().sum();
    let replayed: f64 = trace
        .webspace
        .iter()
        .chain(&trace.ir_query)
        .chain(&trace.ir_restricted)
        .sum();
    let mut tally = std::mem::take(&mut verifier.tally);
    tally.merge(std::mem::take(&mut writes.tally));
    tally.record(
        "attribution",
        (replayed <= 1.1 * engine_total).then_some(()).ok_or_else(|| {
            format!("replayed layer time {replayed:.1} ms exceeds 1.1 x the engine's {engine_total:.1} ms")
        }),
    );
    notes.extend(tally.examples.iter().map(|e| format!("FAILED {e}")));
    notes.push(format!(
        "traced {} requests: {} with unrestricted text, {} restricted; base pass {:.2} s, traced pass {:.2} s",
        ops.len(),
        trace.ir_query.len(),
        trace.ir_restricted.len(),
        base.wall.as_secs_f64(),
        trace.wall.as_secs_f64()
    ));

    let (calls, saved) = writes.upgrades.iter().fold((0, 0), |(c, s), (_, r)| {
        (c + r.detector_calls, s + r.detector_calls_saved)
    });
    let checkpoints: Vec<f64> = writes.checkpoint.iter().map(|d| ms(*d)).collect();
    let refreshes: Vec<f64> = writes.refresh.iter().map(|d| ms(*d)).collect();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let counters = &sut.counters;
    let metrics = vec![
        ("core.engine.query_ms", mean(&trace.engine)),
        ("core.engine.self_ms", mean(&trace.self_time)),
        (
            "core.service.overhead_us",
            (mean(&trace.front_door_hit) - mean(&trace.parse) - mean(&trace.cache_hit)) * 1e3,
        ),
        (
            "core.service.scaling_2c",
            ratio(two_clients.qps(), one_client.qps()),
        ),
        (
            "core.cache.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        ("core.cache.hit_us", mean(&trace.cache_hit) * 1e3),
        ("core.qlang.parse_us", mean(&trace.parse) * 1e3),
        ("core.warmup_s", warmup.as_secs_f64()),
        (
            "core.populate.pages_per_s",
            lib.pages.len() as f64 / times.populate.as_secs_f64(),
        ),
        ("core.open.ms", ms(times.open)),
        (
            "core.persist.checkpoint_ms",
            if checkpoints.is_empty() {
                ms(times.persist)
            } else {
                median(&checkpoints)
            },
        ),
        ("webspace.execute_ms", mean(&trace.webspace)),
        (
            "webspace.execute_share",
            ratio(trace.webspace.iter().sum(), engine_total),
        ),
        ("webspace.rows_out", trace.rows_out as f64),
        ("webspace.extract_ms", ms(probes.extract)),
        ("ir.query_ms", mean(&trace.ir_query)),
        ("ir.restricted_ms", mean(&trace.ir_restricted)),
        ("ir.shard_critical_ms", mean(&trace.ir_critical)),
        ("ir.gather_ms", mean(&trace.ir_gather)),
        ("ir.tuples", trace.tuples as f64),
        (
            "ir.tuples_per_hit",
            ratio(trace.tuples as f64, trace.text_hits as f64),
        ),
        ("ir.resident_bytes_per_doc", probes.ir_bytes_per_doc),
        ("ir.index_docs_per_s", probes.index_docs_per_s),
        ("monet.bat.probe_ns", probes.probe_ns),
        ("monet.snapshot.encode_ms", ms(probes.snapshot)),
        ("monet.snapshot.bytes", probes.snapshot_bytes as f64),
        (
            "monet.storage.write_bytes",
            counters.write_bytes.load(Relaxed) as f64,
        ),
        ("monet.storage.syncs", counters.syncs.load(Relaxed) as f64),
        (
            "monet.storage.sync_ms",
            counters.sync_ns.load(Relaxed) as f64 / 1e6,
        ),
        (
            "monet.wal.append_bytes",
            counters.wal_append_bytes.load(Relaxed) as f64,
        ),
        ("monetxml.reconstruct_ms", probes.reconstruct_ms),
        ("monetxml.insert_docs_per_s", probes.insert_docs_per_s),
        (
            "monetxml.resident_bytes_per_page",
            probes.xml_bytes_per_page,
        ),
        ("acoi.tree_ms", probes.tree_ms),
        ("acoi.refresh_ms", median(&refreshes)),
        (
            "acoi.upgrade_s",
            writes
                .upgrades
                .first()
                .map_or(0.0, |(d, _)| d.as_secs_f64()),
        ),
        (
            "acoi.calls_saved_ratio",
            ratio(saved as f64, (calls + saved) as f64),
        ),
        (
            "acoi.analyse_ms_per_media",
            ratio(ms(times.analyse), times.media_analysed as f64),
        ),
        (
            "obs.enabled_overhead_ratio",
            ratio(base.wall.as_secs_f64(), dark.wall.as_secs_f64()),
        ),
        (
            "trace.overhead_ratio",
            ratio(trace.wall.as_secs_f64(), base.wall.as_secs_f64()),
        ),
        (
            "trace.unattributed_share",
            ratio(trace.self_time.iter().sum(), engine_total),
        ),
    ];
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        answers: verifier.answers(),
    })
}

#[cfg(test)]
mod tests {
    use crate::run::{run, RunConfig};
    use crate::workload::Workload;

    /// A traced smoke run reports every per-layer metric, in table order,
    /// and keeps the layers apart: no text samples on `concept_join`.
    #[test]
    fn traced_smoke_run_reports_every_layer_metric() {
        let report = run(&RunConfig {
            workload: Workload::ConceptJoin,
            seed: 5,
            seconds: 0.0,
            trace: true,
            smoke: true,
            check_reference: true,
        })
        .expect("traced smoke run");
        assert_eq!(report.failed, 0, "{:?}", report.notes);
        let names: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = crate::metrics::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        assert!(report.metrics.iter().all(|(_, v)| v.is_finite()));
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(value("ir.query_ms"), Some(0.0));
        assert_eq!(value("ir.tuples"), Some(0.0));
        assert!(value("webspace.execute_ms") > Some(0.0));
    }
}
