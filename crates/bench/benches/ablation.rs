//! E9 — ablations of the design choices DESIGN.md calls out.
//!
//! * **Top-N evaluation strategy** (the query-optimiser choice the paper
//!   leaves open): exact full evaluation vs a-priori fragment cut-off
//!   (approximate) vs braking-distance early termination (exact top-k,
//!   adaptive cost).
//! * **Detector memoisation** (the FDS's engine half): re-parsing a
//!   video with a warm cache vs cold.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ir::{FragmentedIndex, ScoreModel, TextIndex};

use acoi::{Fde, Token, Version};
use feagram::FeatureValue;

fn text_index(docs: usize) -> TextIndex {
    let mut index = TextIndex::new(ScoreModel::TfIdf);
    for (url, body) in bench::text_corpus(docs) {
        index.index_document(&url, &body).unwrap();
    }
    index.commit().unwrap();
    index
}

fn bench_topn_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_topn_strategy");
    group.sample_size(30);

    let docs = 3000;
    let flat = text_index(docs);
    let index = FragmentedIndex::build(&flat, 16).unwrap();
    const QUERY: &str = "extraordinary winner tennis";

    group.bench_function(BenchmarkId::new("full_exact", docs), |b| {
        b.iter(|| index.query_with_cutoff(QUERY, 10, 16).work.tuples)
    });
    group.bench_function(BenchmarkId::new("cutoff_budget2", docs), |b| {
        b.iter(|| index.query_with_cutoff(QUERY, 10, 2).work.tuples)
    });
    group.bench_function(BenchmarkId::new("early_termination", docs), |b| {
        b.iter(|| index.query_top_k_early(QUERY, 10).work.tuples)
    });
    group.finish();

    let full = index.query_with_cutoff(QUERY, 10, 16);
    let cut = index.query_with_cutoff(QUERY, 10, 2);
    let early = index.query_top_k_early(QUERY, 10);
    println!("\nE9 top-N strategies ({docs} docs, 16 fragments, k=10):");
    println!(
        "full:   {:>6} tuples, quality 1.000 (exact)",
        full.work.tuples
    );
    println!(
        "cutoff: {:>6} tuples, quality {:.3} (approximate)",
        cut.work.tuples, cut.quality
    );
    println!(
        "early:  {:>6} tuples, quality 1.000 (exact top-k, {} fragments used)",
        early.work.tuples, early.fragments_used
    );
}

fn scripted_registry(shots: usize) -> acoi::DetectorRegistry {
    let mut reg = acoi::DetectorRegistry::new();
    reg.register(
        "header",
        Version::new(1, 0, 0),
        Box::new(|_| {
            Ok(vec![
                Token::new("primary", "video"),
                Token::new("secondary", "mpeg"),
            ])
        }),
    );
    reg.register(
        "segment",
        Version::new(1, 0, 0),
        Box::new(move |_| {
            let mut tokens = Vec::new();
            for s in 0..shots {
                tokens.push(Token::new("frameNo", (s * 100) as i64));
                tokens.push(Token::new("frameNo", (s * 100 + 99) as i64));
                tokens.push(Token::new(
                    "type",
                    if s % 2 == 0 { "tennis" } else { "other" },
                ));
            }
            Ok(tokens)
        }),
    );
    reg.register(
        "tennis",
        Version::new(1, 0, 0),
        Box::new(|inputs| {
            let begin = inputs[1].as_f64().ok_or("no begin")? as i64;
            let mut tokens = Vec::new();
            for f in 0..20 {
                tokens.push(Token::new("frameNo", begin + f));
                tokens.push(Token::new("xPos", 320.0));
                tokens.push(Token::new("yPos", 380.0));
                tokens.push(Token::new("Area", 1200i64));
                tokens.push(Token::new("Ecc", 0.8));
                tokens.push(Token::new("Orient", 12.0));
            }
            Ok(tokens)
        }),
    );
    reg
}

fn bench_memoisation(c: &mut Criterion) {
    let grammar = feagram::parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
    let initial = || vec![Token::new("location", FeatureValue::url("http://x/v.mpg"))];

    let mut group = c.benchmark_group("e9_detector_memoisation");
    group.sample_size(30);

    let reg = scripted_registry(30);
    let tree = Fde::new(&grammar, &reg).parse(initial()).unwrap();
    let cache = acoi::fde::harvest_cache(&grammar, &reg, &tree, |_| true);
    let empty = acoi::fde::DetectorCache::new();

    group.bench_function("cold_reparse", |b| {
        b.iter(|| {
            Fde::new(&grammar, &reg)
                .parse_with_cache(initial(), &empty)
                .unwrap()
                .len()
        })
    });
    group.bench_function("warm_reparse", |b| {
        b.iter(|| {
            Fde::new(&grammar, &reg)
                .parse_with_cache(initial(), &cache)
                .unwrap()
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_topn_strategies, bench_memoisation);
criterion_main!(benches);
