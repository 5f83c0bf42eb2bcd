//! E17 — data-plane scale: compressed columnar storage at 10^3–10^5
//! documents.
//!
//! Drives the physical level (Monet XML store) and the IR level (text
//! index) over seeded zipfian corpora from `websim::Corpus` at three
//! sizes, measuring:
//!
//! * ingest wall time and **resident bytes per document**,
//! * query latency vs corpus size (dictionary-coded attribute
//!   selection and ranked text retrieval),
//! * snapshot footprint: the compressed v3 format (dictionary strings,
//!   delta oids) against the uncompressed v2 writer, overall and for
//!   the string columns alone,
//! * lazy vs eager snapshot opens (relations decoded on first touch),
//! * **byte-identity**: query answers from a v2-restored store match a
//!   v3-restored store exactly.
//!
//! Results land in `BENCH_scale.json` at the repository root.
//! `BENCH_SMOKE=1` runs two tiny corpora and skips the JSON write.

use std::time::Instant;

use ir::index::{ScoreModel, TextIndex};
use monetxml::XmlStore;
use obs::report::{BenchReport, Json};
use websim::{Corpus, CorpusSpec};

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Body text of a generated article (the `<p>` contents, joined).
fn body_text_of(xml: &str) -> String {
    let mut out = String::new();
    let mut rest = xml;
    while let Some(start) = rest.find("<p>") {
        let after = &rest[start + 3..];
        let Some(end) = after.find("</p>") else { break };
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(&after[..end]);
        rest = &after[end + 4..];
    }
    out
}

/// String-column footprint of a catalog: (uncompressed bytes — every
/// value spelled out, as the v2 writer stores them; compressed bytes —
/// one u32 code per row plus the shared dictionary).
fn string_column_bytes(db: &monet::Db) -> (usize, usize) {
    let names: Vec<String> = db.relation_names().map(str::to_owned).collect();
    let mut uncompressed = 0usize;
    let mut rows = 0usize;
    for name in &names {
        if db.relation_kind(name) != Some(monet::ColumnKind::Str) {
            continue;
        }
        let Ok(bat) = db.get(name) else { continue };
        rows += bat.len();
        for (_, v) in bat.iter() {
            if let Some(s) = v.as_str() {
                uncompressed += s.len() + 4; // v2: u32 length prefix + bytes
            }
        }
    }
    let dict = db.dict_stats();
    (uncompressed, rows * 4 + dict.bytes)
}

struct ScaleRow {
    docs: usize,
    json: Json,
    overall_ratio: f64,
    string_ratio: f64,
}

fn run_scale(docs: usize, query_iters: usize) -> ScaleRow {
    let corpus = Corpus::new(CorpusSpec {
        docs,
        seed: 2001,
        vocab: 20_000,
        exponent: 1.05,
        terms_min: 30,
        terms_max: 90,
    });

    // Ingest: physical level (XML store) + IR level (text index).
    let mut store = XmlStore::new();
    let mut index = TextIndex::new(ScoreModel::TfIdf);
    let gen_t = Instant::now();
    let generated: Vec<(String, String, String)> = corpus
        .iter()
        .map(|d| {
            let body = body_text_of(&d.xml);
            (d.url, d.xml, body)
        })
        .collect();
    let generate_ms = ms(gen_t);

    let ingest_t = Instant::now();
    for (url, xml, _) in &generated {
        store.bulkload_str(url, xml).expect("well-formed corpus XML");
    }
    let store_ingest_ms = ms(ingest_t);

    let text_t = Instant::now();
    index
        .index_documents(generated.iter().map(|(url, _, body)| (url.as_str(), body.as_str())))
        .expect("index corpus");
    index.commit().expect("commit");
    let text_ingest_ms = ms(text_t);

    let store_bytes = store.db().resident_bytes();
    let index_bytes = index.db().resident_bytes();
    let bytes_per_doc = (store_bytes + index_bytes) as f64 / docs as f64;

    // Query latency vs corpus size.
    let mut attr_samples = Vec::new();
    let mut text_samples = Vec::new();
    let mut attr_hits = 0usize;
    let mut text_hits = 0usize;
    let probe = format!("{} {}", Corpus::term(0), Corpus::term(40));
    for _ in 0..query_iters {
        let t = Instant::now();
        let hits = store
            .db()
            .get("article[country]")
            .expect("country attribute relation")
            .select_str_eq("USA");
        attr_samples.push(ms(t));
        attr_hits = hits.len();

        let t = Instant::now();
        let (hits, _) = index.query(&probe, 10);
        text_samples.push(ms(t));
        text_hits = hits.len();
    }
    assert!(attr_hits > 0, "zipf head country must match documents");
    assert!(text_hits > 0, "zipf head term must match documents");

    // Snapshot footprint: compressed v3 vs the uncompressed v2 writer.
    let v3 = monet::persist::snapshot(store.db()).expect("v3 snapshot");
    let v2 = monet::persist::snapshot_v2(store.db()).expect("v2 snapshot");
    let overall_ratio = v2.len() as f64 / v3.len() as f64;
    let (str_uncompressed, str_compressed) = string_column_bytes(store.db());
    let string_ratio = str_uncompressed as f64 / str_compressed.max(1) as f64;

    // Lazy vs eager open: median of 3 (single-shot opens of a
    // hundreds-of-MB buffer are dominated by allocator state).
    let mut eager_samples = Vec::new();
    let mut eager = None;
    for _ in 0..3 {
        let t = Instant::now();
        eager = Some(XmlStore::restore(&v3).expect("eager restore"));
        eager_samples.push(ms(t));
    }
    let eager = eager.expect("three opens");
    let eager_open_ms = median(&mut eager_samples);
    let eager_materialized = eager.db().materialized_count();
    let mut lazy_samples = Vec::new();
    let mut lazy = None;
    for _ in 0..3 {
        let buf = v3.clone(); // restore_lazy keeps the buffer; clone outside the timer
        let t = Instant::now();
        lazy = Some(XmlStore::restore_lazy(buf).expect("lazy restore"));
        lazy_samples.push(ms(t));
    }
    let lazy = lazy.expect("three opens");
    let lazy_open_ms = median(&mut lazy_samples);
    let lazy_materialized = lazy.db().materialized_count();

    // Byte-identity: answers from the uncompressed v2 snapshot match
    // the compressed v3 snapshot exactly.
    let from_v2 = XmlStore::restore(&v2).expect("v2 restore");
    let a = from_v2
        .db()
        .get("article[country]")
        .expect("relation")
        .select_str_eq("USA");
    let b = eager
        .db()
        .get("article[country]")
        .expect("relation")
        .select_str_eq("USA");
    let c = lazy
        .db()
        .get("article[country]")
        .expect("relation")
        .select_str_eq("USA");
    assert_eq!(a, b, "v2 and v3 restores must answer identically");
    assert_eq!(b, c, "lazy and eager opens must answer identically");

    let attr_ms = median(&mut attr_samples);
    let text_ms_med = median(&mut text_samples);
    println!(
        "e17_scale/docs={docs}: ingest store {store_ingest_ms:.0} ms, text {text_ingest_ms:.0} ms, \
         {bytes_per_doc:.0} B/doc, attr query {attr_ms:.3} ms, text query {text_ms_med:.3} ms, \
         snapshot v2/v3 = {overall_ratio:.2}x (strings {string_ratio:.2}x), \
         open eager {eager_open_ms:.1} ms ({eager_materialized} rel) vs lazy {lazy_open_ms:.1} ms \
         ({lazy_materialized} rel)"
    );

    let json = Json::Obj(vec![
        ("docs".to_owned(), Json::Int(docs as i64)),
        ("generate_ms".to_owned(), Json::Num(generate_ms)),
        ("store_ingest_ms".to_owned(), Json::Num(store_ingest_ms)),
        ("text_ingest_ms".to_owned(), Json::Num(text_ingest_ms)),
        ("store_bytes".to_owned(), Json::Int(store_bytes as i64)),
        ("index_bytes".to_owned(), Json::Int(index_bytes as i64)),
        ("bytes_per_doc".to_owned(), Json::Num(bytes_per_doc)),
        ("attr_query_ms".to_owned(), Json::Num(attr_ms)),
        ("text_query_ms".to_owned(), Json::Num(text_ms_med)),
        ("snapshot_v3_bytes".to_owned(), Json::Int(v3.len() as i64)),
        ("snapshot_v2_bytes".to_owned(), Json::Int(v2.len() as i64)),
        ("compression_ratio".to_owned(), Json::Num(overall_ratio)),
        (
            "string_bytes_uncompressed".to_owned(),
            Json::Int(str_uncompressed as i64),
        ),
        (
            "string_bytes_compressed".to_owned(),
            Json::Int(str_compressed as i64),
        ),
        ("string_compression_ratio".to_owned(), Json::Num(string_ratio)),
        ("eager_open_ms".to_owned(), Json::Num(eager_open_ms)),
        ("lazy_open_ms".to_owned(), Json::Num(lazy_open_ms)),
        (
            "eager_open_relations_decoded".to_owned(),
            Json::Int(eager_materialized as i64),
        ),
        (
            "lazy_open_relations_decoded".to_owned(),
            Json::Int(lazy_materialized as i64),
        ),
        ("identical_answers".to_owned(), Json::Bool(true)),
    ]);
    ScaleRow {
        docs,
        json,
        overall_ratio,
        string_ratio,
    }
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let (sizes, query_iters): (&[usize], usize) = if smoke {
        (&[100, 300], 4)
    } else {
        (&[1_000, 10_000, 100_000], 16)
    };

    let mut rows = Vec::new();
    for &docs in sizes {
        let row = run_scale(docs, query_iters);
        // The headline claim: dictionary + delta encoding at least
        // halves the snapshot, and string columns specifically shrink
        // at least 2x on a corpus with realistic repetition.
        assert!(
            row.overall_ratio >= 2.0,
            "snapshot compression ratio {:.2} < 2.0 at {} docs",
            row.overall_ratio,
            row.docs
        );
        assert!(
            row.string_ratio >= 2.0,
            "string-column compression ratio {:.2} < 2.0 at {} docs",
            row.string_ratio,
            row.docs
        );
        rows.push(row.json);
    }

    if smoke {
        println!("e17_scale: smoke mode, not writing BENCH_scale.json");
        return;
    }
    let report = BenchReport::new("e17_scale_compression")
        .config(
            "sizes",
            Json::Arr(sizes.iter().map(|&n| Json::Int(n as i64)).collect()),
        )
        .config("query_iterations", Json::Int(query_iters as i64))
        .result("results", Json::Arr(rows));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, report.render()).expect("write BENCH_scale.json");
    println!("e17_scale: wrote {path}");
}
