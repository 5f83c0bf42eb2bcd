//! E3 — incremental maintenance (FDS) vs full rebuild.
//!
//! Paper claim: the FDS "can localize the effects of the evolutionary
//! changes, and trigger incremental parses … to prevent the
//! regeneration, and the associated calls to detectors, of the complete
//! parse tree". Expected shape: `incremental_minor` is cheaper than
//! `full_rebuild`, and `correction` is (almost) free.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use websim::crawl;

use acoi::{RevisionLevel, Token};
use dlsearch::QueryService;

fn new_tennis_impl() -> acoi::DetectorFn {
    Box::new(|inputs| {
        let begin = inputs[1].as_f64().ok_or("no begin")? as i64;
        Ok(vec![
            Token::new("frameNo", begin),
            Token::new("xPos", 320.0),
            Token::new("yPos", 150.0),
            Token::new("Area", 1000i64),
            Token::new("Ecc", 0.85),
            Token::new("Orient", 88.0),
        ])
    })
}

fn bench_maintenance(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_maintenance");
    group.sample_size(10);

    for players in [4usize, 8] {
        // Incremental: upgrade tennis at minor level; header + segment
        // results are reused from the stored trees.
        group.bench_function(BenchmarkId::new("incremental_minor", players), |b| {
            b.iter_batched(
                || QueryService::new(bench::populated_engine(players, 4).1),
                |service| {
                    let report = service
                        .upgrade_detector_online("tennis", RevisionLevel::Minor, new_tennis_impl())
                        .unwrap();
                    assert!(report.detector_calls_saved > 0);
                    report.detector_calls
                },
                BatchSize::PerIteration,
            )
        });

        // Correction: the FDS takes no action at all.
        group.bench_function(BenchmarkId::new("correction", players), |b| {
            b.iter_batched(
                || QueryService::new(bench::populated_engine(players, 4).1),
                |service| {
                    let report = service
                        .upgrade_detector_online(
                            "tennis",
                            RevisionLevel::Correction,
                            new_tennis_impl(),
                        )
                        .unwrap();
                    assert_eq!(report.detector_calls, 0);
                },
                BatchSize::PerIteration,
            )
        });

        // Full rebuild baseline: throw the index away and re-populate.
        let site = bench::site(players, 4);
        let pages = crawl(&site);
        group.bench_function(BenchmarkId::new("full_rebuild", players), |b| {
            let site = std::sync::Arc::clone(&site);
            b.iter(|| {
                let mut engine = dlsearch::ausopen::engine(std::sync::Arc::clone(&site)).unwrap();
                let report = engine.populate(&pages).unwrap();
                report.detector_calls
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_maintenance);
criterion_main!(benches);
