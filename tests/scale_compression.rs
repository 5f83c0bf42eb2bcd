//! Physical-level compression, end to end: dictionary-coded string
//! columns and delta-coded oid heads must be invisible to every
//! consumer.
//!
//! The monet crate's property tests prove the codecs round-trip in
//! isolation; this suite proves the *system-level* claims on a seeded
//! zipfian corpus ([`websim::Corpus`]):
//!
//! * eager and lazy restores of the compressed snapshot answer queries
//!   and reconstruct documents exactly as the live store does (reading
//!   the old v1/v2 formats is pinned by the golden fixture in
//!   `monet::persist`'s unit tests),
//! * lazy opens (payloads decoded on first touch) re-snapshot to the
//!   exact bytes of the eager snapshot,
//! * WAL replay through the batched append path rebuilds a
//!   byte-identical compressed store,
//! * ranked text retrieval (top-k ids *and* scores) and engine-level
//!   EXPLAIN output survive a checkpoint/restore cycle unchanged,
//! * the compressed format actually pays: ≥2x smaller than the same
//!   columns spelled out at fixed width, overall and on the string
//!   columns alone, on a corpus with realistic string repetition.

// Helpers outside `#[test]` functions unwrap too (clippy.toml only
// exempts the tests themselves).
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;
use std::sync::Arc;

use dlsearch::{ausopen, qlang, Engine};
use ir::index::{ScoreModel, TextIndex};
use monet::persist;
use monetxml::XmlStore;
use websim::{crawl, Corpus, CorpusSpec, Site, SiteSpec};

fn corpus(docs: usize) -> Corpus {
    Corpus::new(CorpusSpec {
        docs,
        seed: 4242,
        vocab: 4_000,
        exponent: 1.05,
        terms_min: 20,
        terms_max: 60,
    })
}

fn loaded_store(c: &Corpus) -> XmlStore {
    let mut store = XmlStore::new();
    for doc in c.iter() {
        store.bulkload_str(&doc.url, &doc.xml).unwrap();
    }
    store
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dl_scale_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Everything a consumer can observe about a store: per-relation
/// association counts, an attribute selection, and every reconstructed
/// document.
fn observable_state(store: &mut XmlStore) -> String {
    let mut out = String::new();
    let mut names: Vec<String> = store.db().relation_names().map(str::to_owned).collect();
    names.sort();
    for name in &names {
        let len = store.db().get(name).map(|b| b.len()).unwrap_or(0);
        out.push_str(&format!("{name}={len}\n"));
    }
    let hits = store.db().get("article[country]").unwrap().select_str_eq("USA");
    out.push_str(&format!("usa={hits:?}\n"));
    let roots: Vec<monet::Oid> = store.roots().to_vec();
    for root in roots {
        out.push_str(&format!("{:?}\n", store.reconstruct(root).unwrap()));
    }
    out
}

#[test]
fn eager_and_lazy_restores_answer_like_the_live_store() {
    let c = corpus(120);
    let mut store = loaded_store(&c);

    let v3 = persist::snapshot(store.db()).unwrap();
    let mut from_v3 = XmlStore::restore(&v3).unwrap();
    let mut from_lazy = XmlStore::restore_lazy(v3).unwrap();

    let reference = observable_state(&mut store);
    assert_eq!(observable_state(&mut from_v3), reference);
    assert_eq!(observable_state(&mut from_lazy), reference);
}

#[test]
fn lazy_and_eager_opens_resnapshot_to_the_same_bytes() {
    let c = corpus(80);
    let store = loaded_store(&c);
    let v3 = persist::snapshot(store.db()).unwrap();

    let eager = XmlStore::restore(&v3).unwrap();
    assert_eq!(persist::snapshot(eager.db()).unwrap(), v3);

    // Touch nothing: re-encoding an untouched lazy store must still
    // produce the exact same bytes.
    let lazy = XmlStore::restore_lazy(v3.clone()).unwrap();
    assert_eq!(persist::snapshot(lazy.db()).unwrap(), v3);

    // Touch half the relations, then re-snapshot: mixed
    // materialized/undecoded state encodes identically too.
    let half_touched = XmlStore::restore_lazy(v3.clone()).unwrap();
    for (i, name) in half_touched
        .db()
        .relation_names()
        .map(str::to_owned)
        .collect::<Vec<_>>()
        .into_iter()
        .enumerate()
    {
        if i % 2 == 0 {
            half_touched.db().get(&name).unwrap();
        }
    }
    assert_eq!(persist::snapshot(half_touched.db()).unwrap(), v3);
}

/// The catalog's columns spelled out at fixed width — 8 bytes per oid,
/// int and float, a u32 length prefix per string, a byte per bit — which
/// is what the pre-compression snapshot formats stored per row; then the
/// string tails alone at that width, and the number of string rows.
fn uncompressed_bytes(db: &monet::Db) -> (usize, usize, usize) {
    let (mut bytes, mut string_bytes, mut string_rows) = (0, 0, 0);
    for name in db.relation_names() {
        for (_, value) in db.get(name).unwrap().iter() {
            bytes += 8 + match &value {
                monet::Value::Str(s) => {
                    string_bytes += 4 + s.len();
                    string_rows += 1;
                    4 + s.len()
                }
                monet::Value::Bit(_) => 1,
                _ => 8,
            };
        }
    }
    (bytes, string_bytes, string_rows)
}

#[test]
fn compression_pays_at_least_2x_on_the_corpus() {
    let c = corpus(200);
    let store = loaded_store(&c);
    let v3 = persist::snapshot(store.db()).unwrap();
    let (raw, raw_strings, string_rows) = uncompressed_bytes(store.db());
    let ratio = raw as f64 / v3.len() as f64;
    assert!(
        ratio >= 2.0,
        "compressed snapshot only {ratio:.2}x smaller ({raw} vs {} bytes)",
        v3.len()
    );
    // Dictionary coding on its own: a u32 code per string row plus the
    // shared dictionary, against the same strings spelled out.
    let coded = string_rows * 4 + store.db().dict_stats().bytes;
    let string_ratio = raw_strings as f64 / coded as f64;
    assert!(
        string_ratio >= 2.0,
        "string columns only {string_ratio:.2}x smaller ({raw_strings} vs {coded} bytes)"
    );
}

#[test]
fn batched_wal_replay_rebuilds_a_byte_identical_store() {
    let c = corpus(40);
    let dir = tmp("wal_replay");
    let backend = monet::storage::FsBackend::shared();
    let wal = monet::wal::open_shared(Arc::clone(&backend), &dir).unwrap();

    // Ingest through the batched append path (one WAL record per
    // document, one mutex acquisition per batch).
    let mut live = XmlStore::new();
    live.set_wal(monet::wal::WalHandle::new(Arc::clone(&wal), 0));
    let docs: Vec<(String, monetxml::Document)> = c
        .iter()
        .map(|d| (d.url.clone(), monetxml::parse_document(&d.xml).unwrap()))
        .collect();
    live.insert_documents(docs.iter().map(|(url, doc)| (url.as_str(), doc)))
        .unwrap();
    live.detach_wal().unwrap().flush().unwrap();
    let live_bytes = live.snapshot().unwrap();

    // Replay the log into a fresh store: same bytes, dictionary codes
    // and all.
    let mut replayed = XmlStore::new();
    let records = wal.lock().unwrap().replay_from(0).unwrap();
    assert_eq!(records.len(), c.len(), "one record per document");
    for record in &records {
        let (_, _, fields) = monet::wal::decode_payload(&record.payload).unwrap();
        let url = String::from_utf8(fields[0].clone()).unwrap();
        let xml = String::from_utf8(fields[1].clone()).unwrap();
        replayed.bulkload_str(&url, &xml).unwrap();
    }
    assert_eq!(replayed.snapshot().unwrap(), live_bytes);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ranked_retrieval_survives_a_compressed_round_trip() {
    let c = corpus(150);
    let mut index = TextIndex::new(ScoreModel::TfIdf);
    let docs: Vec<(String, String)> = (0..c.len())
        .map(|i| (c.doc(i).url, c.body_text(i)))
        .collect();
    index
        .index_documents(docs.iter().map(|(url, body)| (url.as_str(), body.as_str())))
        .unwrap();
    index.commit().unwrap();

    let probe = format!("{} {}", Corpus::term(0), Corpus::term(7));
    let (before, _) = index.query(&probe, 10);
    assert!(!before.is_empty(), "zipf head terms must match");

    let snap = index.snapshot().unwrap();
    let restored = TextIndex::restore(&snap).unwrap();
    let (after, _) = restored.query(&probe, 10);
    // Ids *and* scores: the restored index recomputes from
    // dictionary-coded columns and must land on the same floats.
    assert_eq!(format!("{before:?}"), format!("{after:?}"));
    assert_eq!(
        index.idf(&Corpus::term(0)),
        restored.idf(&Corpus::term(0))
    );
}

#[test]
fn engine_explain_and_answers_survive_checkpoint_restore() {
    let site = Arc::new(Site::generate(SiteSpec {
        players: 3,
        articles: 3,
        seed: 77,
    }));
    let pages = crawl(&site);
    let dir = tmp("engine_roundtrip");

    let query = qlang::parse(
        r#"
        FROM Player
        WHERE gender = "female"
        TEXT history CONTAINS "Winner"
        TOP 5
    "#,
    )
    .unwrap();

    let (mut engine, _) = Engine::open(ausopen::config(Arc::clone(&site)), &dir).unwrap();
    engine.populate(&pages).unwrap();
    let explain_before = engine.explain(&query, None);
    let answers_before = format!("{:?}", engine.query(&query).unwrap());
    engine.persist_to(&dir).unwrap();

    // Reopen: recovery takes the lazy-restore path over the compressed
    // snapshot.
    let (mut reopened, report) = Engine::open(ausopen::config(Arc::clone(&site)), &dir).unwrap();
    assert!(!report.fell_back, "snapshot must load");
    assert_eq!(reopened.explain(&query, None), explain_before);
    assert_eq!(format!("{:?}", reopened.query(&query).unwrap()), answers_before);
    std::fs::remove_dir_all(&dir).ok();
}
