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
//! * snapshot footprint: the compressed format (dictionary strings,
//!   delta oids) against the same columns at fixed width, overall and
//!   for the string columns alone,
//! * lazy vs eager snapshot opens (relations decoded on first touch),
//!   which must answer identically.
//!
//! One line per corpus size goes to stdout. `BENCH_SMOKE=1` runs two
//! tiny corpora.

use std::time::Instant;

use bench::median;
use ir::index::{ScoreModel, TextIndex};
use monetxml::XmlStore;
use websim::{Corpus, CorpusSpec};

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Footprint of a catalog's columns: (every value spelled out at fixed
/// width — 8 bytes per oid, int and float, a u32 length prefix per
/// string, a byte per bit — as the pre-compression formats stored them;
/// the string tails alone, spelled out; the string tails compressed —
/// one u32 code per row plus the shared dictionary).
fn column_bytes(db: &monet::Db) -> (usize, usize, usize) {
    let (mut all, mut strings, mut string_rows) = (0usize, 0usize, 0usize);
    for name in db.relation_names() {
        let Ok(bat) = db.get(name) else { continue };
        for (_, v) in bat.iter() {
            all += 8 + match &v {
                monet::Value::Str(s) => {
                    strings += s.len() + 4;
                    string_rows += 1;
                    s.len() + 4
                }
                monet::Value::Bit(_) => 1,
                _ => 8,
            };
        }
    }
    (all, strings, string_rows * 4 + db.dict_stats().bytes)
}

/// Runs one corpus size and prints its row.
fn run_scale(docs: usize, query_iters: usize) {
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
    let generated: Vec<(String, String, String)> = (0..docs)
        .map(|i| {
            let d = corpus.doc(i);
            (d.url, d.xml, corpus.body_text(i))
        })
        .collect();

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

    let bytes_per_doc =
        (store.db().resident_bytes() + index.db().resident_bytes()) as f64 / docs as f64;

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

    // Snapshot footprint.
    let v3 = monet::persist::snapshot(store.db()).expect("snapshot");
    let (uncompressed, str_uncompressed, str_compressed) = column_bytes(store.db());
    let overall_ratio = uncompressed as f64 / v3.len() as f64;
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

    // Lazy and eager opens answer identically.
    let select = |s: &XmlStore| {
        s.db()
            .get("article[country]")
            .expect("relation")
            .select_str_eq("USA")
    };
    assert_eq!(select(&eager), select(&lazy), "lazy and eager opens must answer identically");

    let attr_ms = median(&mut attr_samples);
    let text_ms_med = median(&mut text_samples);
    println!(
        "e17_scale/docs={docs}: ingest store {store_ingest_ms:.0} ms, text {text_ingest_ms:.0} ms, \
         {bytes_per_doc:.0} B/doc, attr query {attr_ms:.3} ms, text query {text_ms_med:.3} ms, \
         snapshot {} B, {overall_ratio:.2}x under fixed width (strings {string_ratio:.2}x), \
         open eager {eager_open_ms:.1} ms ({eager_materialized} rel) vs lazy {lazy_open_ms:.1} ms \
         ({lazy_materialized} rel)",
        v3.len()
    );

    // The headline claim: dictionary + delta encoding at least halves
    // the snapshot, and string columns specifically shrink at least 2x
    // on a corpus with realistic repetition.
    assert!(
        overall_ratio >= 2.0,
        "snapshot compression ratio {overall_ratio:.2} < 2.0 at {docs} docs"
    );
    assert!(
        string_ratio >= 2.0,
        "string-column compression ratio {string_ratio:.2} < 2.0 at {docs} docs"
    );
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok();
    let (sizes, query_iters): (&[usize], usize) = if smoke {
        (&[100, 300], 4)
    } else {
        (&[1_000, 10_000, 100_000], 16)
    };
    for &docs in sizes {
        run_scale(docs, query_iters);
    }
}
