//! E4 — idf-descending fragmentation with top-N cut-off.
//!
//! Paper claim: fragmenting TF/IDF on descending idf lets the optimizer
//! cut off the expensive low-idf fragments a-priori, trading a bounded,
//! *estimated* quality degrade for large cost savings. Expected shape:
//! evaluation cost falls sharply with the cut-off while the top-ranked
//! documents (driven by high-idf terms) stay put.
//!
//! `BENCH_SMOKE=1` shrinks the corpus (the criterion shim already cuts
//! iteration counts) so the harness can run inside `just verify`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ir::{FragmentedIndex, ScoreModel, TextIndex};

const QUERY: &str = "extraordinary champion winner tennis";

fn build_index(docs: usize) -> TextIndex {
    let mut index = TextIndex::new(ScoreModel::TfIdf);
    for (url, body) in bench::text_corpus(docs) {
        index.index_document(&url, &body).unwrap();
    }
    index.commit().unwrap();
    index
}

fn bench_fragmentation(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_fragment_cutoff");
    group.sample_size(30);

    let docs = if std::env::var("BENCH_SMOKE").is_ok() { 300 } else { 2000 };
    let flat = build_index(docs);
    for fragments in [4usize, 16] {
        let index = FragmentedIndex::build(&flat, fragments).unwrap();
        // Budgets: everything, half, just the high-idf head.
        for budget in [fragments, fragments / 2, 1] {
            group.bench_function(
                BenchmarkId::new(format!("f{fragments}"), format!("budget{budget}")),
                |b| {
                    b.iter(|| {
                        let r = index.query_with_cutoff(QUERY, 10, budget);
                        (r.work.tuples, r.hits.len())
                    })
                },
            );
        }
    }

    // Unfragmented baseline.
    group.bench_function("unfragmented_full_scan", |b| {
        b.iter(|| {
            let (hits, work) = flat.query(QUERY, 10);
            (work.tuples, hits.len())
        })
    });
    group.finish();

    // Print the quality/cost trade-off once, as the table E4 reports.
    let index = FragmentedIndex::build(&flat, 16).unwrap();
    let full = index.query_with_cutoff(QUERY, 10, 16);
    println!("\nE4 quality/cost trade-off ({docs} docs, 16 fragments):");
    println!("budget  tuples  quality  top1_stable");
    for budget in [16usize, 8, 4, 2, 1] {
        let r = index.query_with_cutoff(QUERY, 10, budget);
        println!(
            "{budget:>6}  {:>6}  {:>7.3}  {}",
            r.work.tuples,
            r.quality,
            r.hits.first().map(|h| h.doc) == full.hits.first().map(|h| h.doc)
        );
    }
}

criterion_group!(benches, bench_fragmentation);
criterion_main!(benches);
