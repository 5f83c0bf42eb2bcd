//! Property tests for retrieval invariants.
#![allow(clippy::unwrap_used)]

use std::collections::{BTreeMap, HashMap, HashSet};

use faults::{FaultAction, FaultPlan};
use ir::index::{D, DL, DT_DOC, DT_TERM, IDF, T, TF};
use ir::{DistributedIndex, FragmentedIndex, Rebalancer, ScoreModel, TextIndex};
use monet::{Oid, Value};
use proptest::prelude::*;

/// A closed vocabulary (so terms collide).
const VOCAB: [&str; 10] = [
    "tennis", "winner", "champion", "match", "court", "serve", "rally", "title", "crowd",
    "melbourne",
];

/// Random documents over the closed vocabulary.
fn arb_doc() -> impl Strategy<Value = Vec<&'static str>> {
    prop::collection::vec(0usize..VOCAB.len(), 1..20)
        .prop_map(|ids| ids.into_iter().map(|i| VOCAB[i]).collect::<Vec<_>>())
}

/// Random small corpora.
fn arb_corpus() -> impl Strategy<Value = Vec<Vec<&'static str>>> {
    prop::collection::vec(arb_doc(), 1..20)
}

fn build(corpus: &[Vec<&str>]) -> TextIndex {
    let mut idx = TextIndex::new(ScoreModel::TfIdf);
    for (i, words) in corpus.iter().enumerate() {
        idx.index_document(&format!("d{i}"), &words.join(" "))
            .unwrap();
    }
    idx.commit().unwrap();
    idx
}

/// One step of a random index history.
#[derive(Debug, Clone)]
enum Op {
    /// `index_document`.
    Index(Vec<&'static str>),
    /// `index_documents`.
    IndexBatch(Vec<Vec<&'static str>>),
    /// `commit`.
    Commit,
    /// `export_documents` → `import_document` into a fresh index.
    Migrate,
    /// `snapshot` → `restore`.
    Reopen,
    /// `apply_global_df` over `(word, df)`; word 10 is in no document.
    GlobalDf(Vec<(usize, usize)>),
    /// Compare the kernel with the oracle: query words (10 and 11 are
    /// in no document), `k`, and which URLs of every three to allow
    /// (`None`: unrestricted; `Some(3)`: the empty candidate set).
    Check(Vec<usize>, usize, Option<usize>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let check = (
        prop::collection::vec(0usize..VOCAB.len() + 2, 1..5),
        0usize..6,
        prop_oneof![Just(None), (0usize..4).prop_map(Some)],
    )
        .prop_map(|(words, k, restrict)| Op::Check(words, k, restrict));
    prop_oneof![
        arb_doc().prop_map(Op::Index),
        arb_doc().prop_map(Op::Index),
        prop::collection::vec(arb_doc(), 1..4).prop_map(Op::IndexBatch),
        Just(Op::Commit),
        Just(Op::Migrate),
        Just(Op::Reopen),
        prop::collection::vec((0usize..VOCAB.len() + 1, 1usize..40), 1..6).prop_map(Op::GlobalDf),
        check.clone(),
        check,
    ]
}

fn word(i: usize) -> &'static str {
    VOCAB.get(i).copied().unwrap_or(if i == VOCAB.len() { "zebra" } else { "quokka" })
}

/// Ranked retrieval the slow way, straight off the logical relations:
/// T for the term, IDF for its idf (0 when it has none), DT_term →
/// DT_doc / TF for the postings in relation order, DL for the length, D
/// for the URL. Scores accumulate term by term in the query's stem
/// order; the ranking is `(score desc, url asc)`, cut at `k`.
fn oracle(
    idx: &TextIndex,
    text: &str,
    k: usize,
    candidates: Option<&HashSet<String>>,
) -> (Vec<(Oid, String, u64)>, usize, usize) {
    let rows = |name: &str| -> Vec<(Oid, Value)> {
        idx.db().get(name).map(|bat| bat.iter().collect()).unwrap_or_default()
    };
    let first = |rows: &[(Oid, Value)], head: Oid| -> Option<Value> {
        rows.iter().find(|(h, _)| *h == head).map(|(_, v)| v.clone())
    };
    let (t, d, dl, idf) = (rows(T), rows(D), rows(DL), rows(IDF));
    let (dt_term, dt_doc, tf) = (rows(DT_TERM), rows(DT_DOC), rows(TF));
    let tokens: i64 = dl.iter().filter_map(|(_, v)| v.as_int()).map(|n| n.max(0)).sum();
    let avg = if d.is_empty() { 0.0 } else { tokens as usize as f64 / d.len() as f64 };

    let (mut tuples, mut matched) = (0usize, 0usize);
    let mut scores: BTreeMap<Oid, f64> = BTreeMap::new();
    for stem in ir::tokenize_and_stem(text) {
        let Some(term) = t.iter().find(|(_, v)| v.as_str() == Some(&stem)).map(|(o, _)| *o)
        else {
            continue;
        };
        matched += 1;
        let idf = first(&idf, term).and_then(|v| v.as_flt()).unwrap_or(0.0);
        for pair in dt_term.iter().filter(|(h, _)| *h == term).filter_map(|(_, v)| v.as_oid()) {
            let doc = first(&dt_doc, pair).and_then(|v| v.as_oid()).unwrap();
            let url = first(&d, doc).unwrap();
            if candidates.is_some_and(|c| !c.contains(url.as_str().unwrap())) {
                continue;
            }
            tuples += 1;
            let tf = first(&tf, pair).and_then(|v| v.as_int()).unwrap_or(0);
            let dl = first(&dl, doc).and_then(|v| v.as_int()).unwrap_or(0) as f64;
            *scores.entry(doc).or_insert(0.0) += match idx.model() {
                ScoreModel::TfIdf => tf as f64 * idf,
                ScoreModel::Hiemstra { lambda } => {
                    let norm = if dl > 0.0 { avg.max(1.0) / dl } else { 1.0 };
                    (1.0 + (lambda / (1.0 - lambda)) * tf as f64 * idf * norm).ln()
                }
            };
        }
    }
    let mut hits: Vec<(Oid, String, f64)> = scores
        .into_iter()
        .map(|(doc, score)| (doc, first(&d, doc).unwrap().as_str().unwrap().to_owned(), score))
        .collect();
    hits.sort_by(|a, b| b.2.total_cmp(&a.2).then_with(|| a.1.cmp(&b.1)));
    hits.truncate(k);
    let hits = hits.into_iter().map(|(doc, url, score)| (doc, url, score.to_bits())).collect();
    (hits, tuples, matched)
}

/// The kernel's answer in the oracle's shape (scores as bit patterns).
fn kernel(
    idx: &TextIndex,
    text: &str,
    k: usize,
    candidates: Option<&HashSet<String>>,
) -> (Vec<(Oid, String, u64)>, usize, usize) {
    let (hits, work) = idx.ranked(&ir::tokenize_and_stem(text), k, candidates);
    let hits = hits.into_iter().map(|h| (h.doc, h.url, h.score.to_bits())).collect();
    (hits, work.tuples, work.matched_terms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn idf_is_inverse_document_frequency(corpus in arb_corpus()) {
        let idx = build(&corpus);
        for term in ["tennis", "winner", "champion"] {
            let stem = ir::porter_stem(term);
            let df = corpus
                .iter()
                .filter(|doc| doc.iter().any(|w| ir::porter_stem(w) == stem))
                .count();
            match idx.idf(&stem) {
                Some(idf) => prop_assert!((idf - 1.0 / df as f64).abs() < 1e-12),
                None => prop_assert_eq!(df, 0),
            }
        }
    }

    #[test]
    fn top_k_is_a_prefix_of_the_full_ranking(corpus in arb_corpus(), k in 1usize..10) {
        let idx = build(&corpus);
        let (full, _) = idx.query("tennis winner champion", usize::MAX);
        let (top, _) = idx.query("tennis winner champion", k);
        prop_assert_eq!(&full[..top.len()], &top[..]);
        prop_assert!(top.len() <= k);
    }

    #[test]
    fn scores_are_positive_and_sorted(corpus in arb_corpus()) {
        let idx = build(&corpus);
        let (hits, _) = idx.query("tennis match", 50);
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        for h in &hits {
            prop_assert!(h.score > 0.0);
        }
    }

    #[test]
    fn full_budget_fragmented_equals_flat(corpus in arb_corpus(), nfrag in 1usize..6) {
        // Ask for every document (k ≥ corpus size): floating-point
        // accumulation order differs between the two evaluation paths,
        // so tie *order* at a top-k boundary may legitimately differ;
        // the document/score multiset may not.
        let k = corpus.len() + 1;
        let idx = build(&corpus);
        let (flat, _) = idx.query("winner court serve", k);
        let frag = FragmentedIndex::build(&idx, nfrag).unwrap();
        let cut = frag.query_with_cutoff("winner court serve", k, nfrag);
        prop_assert!((cut.quality - 1.0).abs() < 1e-12);
        let sorted = |hits: &[ir::SearchHit]| {
            let mut v: Vec<(monet::Oid, f64)> =
                hits.iter().map(|h| (h.doc, h.score)).collect();
            v.sort_by_key(|p| p.0);
            v
        };
        let flat_docs = sorted(&flat);
        let cut_docs = sorted(&cut.hits);
        prop_assert_eq!(flat_docs.len(), cut_docs.len());
        for (a, b) in flat_docs.iter().zip(&cut_docs) {
            prop_assert_eq!(a.0, b.0);
            prop_assert!((a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn cutoff_quality_is_monotone_in_budget(corpus in arb_corpus()) {
        let idx = build(&corpus);
        let frag = FragmentedIndex::build(&idx, 4).unwrap();
        let mut prev = -1.0;
        for budget in 0..=4 {
            let r = frag.query_with_cutoff("tennis winner rally", 10, budget);
            prop_assert!(r.quality >= prev - 1e-12, "budget {budget}");
            prev = r.quality;
        }
    }

    #[test]
    fn distribution_preserves_the_ranking(corpus in arb_corpus(), servers in 1usize..5) {
        let mut single = DistributedIndex::new(1, ScoreModel::TfIdf).unwrap();
        let mut multi = DistributedIndex::new(servers, ScoreModel::TfIdf).unwrap();
        for (i, words) in corpus.iter().enumerate() {
            let url = format!("d{i}");
            let body = words.join(" ");
            single.index_document(&url, &body).unwrap();
            multi.index_document(&url, &body).unwrap();
        }
        single.commit().unwrap();
        multi.commit().unwrap();
        let a = single.query_serial("tennis winner", corpus.len());
        let b = multi.query_serial("tennis winner", corpus.len());
        let key = |r: &ir::distrib::DistributedResult| {
            let mut v: Vec<(String, i64)> = r
                .hits
                .iter()
                .map(|h| (h.url.clone(), (h.score * 1e9).round() as i64))
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn killing_shards_returns_the_exact_top_k_of_the_survivors(
        corpus in arb_corpus(),
        k in 1usize..10,
        (servers, kills) in (2usize..5).prop_flat_map(|s| {
            (Just(s), prop::collection::vec(0usize..s, 1..s))
        }),
    ) {
        // Deduplicated kill set; `kills` has fewer than `servers`
        // entries, so at least one server always survives.
        let mut dead = kills;
        dead.sort_unstable();
        dead.dedup();

        let build = || {
            let mut d = DistributedIndex::new(servers, ScoreModel::TfIdf).unwrap();
            for (i, words) in corpus.iter().enumerate() {
                d.index_document(&format!("d{i}"), &words.join(" ")).unwrap();
            }
            d.commit().unwrap();
            d
        };

        // Degraded run: the chosen shards fail on their first call.
        let mut faulty = build();
        let plan = FaultPlan::seeded(0);
        for &i in &dead {
            plan.set_script(format!("shard:{i}"), vec![FaultAction::Error]);
        }
        faulty.set_fault_plan(plan.shared());
        let degraded = faulty.query_parallel("tennis winner champion", k).unwrap();
        prop_assert_eq!(degraded.shards_failed, dead.len());
        prop_assert_eq!(&degraded.failed_shards, &dead);
        prop_assert_eq!(degraded.shards_ok, servers - dead.len());

        // Reference run: the fault-free full ranking with the dead
        // shards' documents filtered out, cut at k. The degraded answer
        // must be exactly this — the survivors' top-k, nothing partial.
        let reference = build();
        let full = reference.query_serial("tennis winner champion", corpus.len());
        let expected: Vec<(String, i64)> = full
            .hits
            .iter()
            .filter(|h| !dead.contains(&reference.route(&h.url)))
            .take(k)
            .map(|h| (h.url.clone(), (h.score * 1e9).round() as i64))
            .collect();
        let got: Vec<(String, i64)> = degraded
            .hits
            .iter()
            .map(|h| (h.url.clone(), (h.score * 1e9).round() as i64))
            .collect();
        prop_assert_eq!(got, expected);

        let sizes = reference.shard_sizes();
        let surviving: usize = sizes
            .iter()
            .enumerate()
            .filter(|(i, _)| !dead.contains(i))
            .map(|(_, s)| *s)
            .sum();
        let total: usize = sizes.iter().sum();
        prop_assert!((degraded.quality - surviving as f64 / total as f64).abs() < 1e-12);
    }

    #[test]
    fn routing_is_stable_across_restore_and_rebalance(
        corpus in arb_corpus(),
        servers in 3usize..6,
        replicas in 0usize..3,
    ) {
        let mut d =
            DistributedIndex::with_replication(servers, ScoreModel::TfIdf, replicas).unwrap();
        let urls: Vec<String> = (0..corpus.len()).map(|i| format!("d{i}")).collect();
        for (url, words) in urls.iter().zip(&corpus) {
            d.index_document(url, &words.join(" ")).unwrap();
        }
        d.commit().unwrap();

        // Every URL routes to one in-range primary that holds it, and
        // to R replica hosts that are distinct from the primary and
        // from each other and hold a copy.
        for url in &urls {
            let primary = d.route(url);
            prop_assert!(primary < servers);
            prop_assert!(d.shard(primary).contains_url(url));
            let hosts = d.replica_servers(primary);
            prop_assert_eq!(hosts.len(), replicas);
            let mut seen = vec![primary];
            for h in &hosts {
                prop_assert!(!seen.contains(h), "replica host collision for {url}");
                seen.push(*h);
            }
        }

        // The route function survives a snapshot/restore round trip.
        let blobs = d.snapshot_shards().unwrap();
        let restored = DistributedIndex::restore_shards(&blobs).unwrap();
        prop_assert_eq!(restored.layout(), d.layout());
        prop_assert_eq!(restored.replication(), d.replication());
        for url in &urls {
            prop_assert_eq!(restored.route(url), d.route(url));
        }

        // After a rebalance, every URL's (possibly new) routed primary
        // still holds exactly that document.
        let target = servers.saturating_sub(1).max(replicas + 1);
        Rebalancer::new().rebalance(&mut d, target).unwrap();
        prop_assert_eq!(d.servers(), target);
        for url in &urls {
            let primary = d.route(url);
            prop_assert!(primary < target);
            prop_assert!(d.shard(primary).contains_url(url));
        }
    }
    /// Reads never publish. A twin that is queried between
    /// `index_documents` and `commit` — through the scatter-gather and
    /// through the serial reference — answers with the previously
    /// published ranking (pending documents are invisible), and after
    /// the commit both twins hold the same bytes and rank identically.
    #[test]
    fn a_query_before_the_commit_sees_and_changes_nothing(
        batches in prop::collection::vec(prop::collection::vec(arb_doc(), 1..8), 2..5),
        servers in 2usize..5,
        replicas in 0usize..2,
        hiemstra in any::<bool>(),
    ) {
        const QUERY: &str = "tennis winner champion";
        let model = if hiemstra {
            ScoreModel::Hiemstra { lambda: 0.35 }
        } else {
            ScoreModel::TfIdf
        };
        let mut quiet = DistributedIndex::with_replication(servers, model, replicas).unwrap();
        let mut probed = DistributedIndex::with_replication(servers, model, replicas).unwrap();
        let mut n = 0usize;
        for batch in &batches {
            let docs: Vec<(String, String)> = batch
                .iter()
                .map(|words| {
                    n += 1;
                    (format!("d{n}"), words.join(" "))
                })
                .collect();
            let published = probed.query_serial(QUERY, n);
            for d in [&mut quiet, &mut probed] {
                d.index_documents(docs.iter().map(|(u, b)| (u.as_str(), b.as_str()))).unwrap();
            }
            prop_assert_eq!(&probed.query_parallel(QUERY, n).unwrap().hits, &published.hits);
            prop_assert_eq!(&probed.query_serial(QUERY, n).hits, &published.hits);

            quiet.commit().unwrap();
            probed.commit().unwrap();
            let reference = quiet.query_serial(QUERY, n);
            prop_assert_eq!(&quiet.query_parallel(QUERY, n).unwrap(), &reference);
            prop_assert_eq!(&probed.query_parallel(QUERY, n).unwrap(), &reference);
            prop_assert_eq!(&probed.query_serial(QUERY, n), &reference);
            prop_assert_eq!(probed.snapshot_shards().unwrap(), quiet.snapshot_shards().unwrap());
        }
    }

    #[test]
    fn the_kernel_matches_a_brute_force_oracle_over_the_relations(
        ops in prop::collection::vec(arb_op(), 1..24),
        hiemstra in any::<bool>(),
    ) {
        let model = if hiemstra {
            ScoreModel::Hiemstra { lambda: 0.35 }
        } else {
            ScoreModel::TfIdf
        };
        let mut idx = TextIndex::new(model);
        // URLs in an order unrelated to insertion order, one extra
        // candidate that is never indexed.
        let mut urls: Vec<String> = Vec::new();
        let fresh_url = |urls: &mut Vec<String>| {
            let url = format!("d{:03}", (urls.len() * 37 + 11) % 101);
            urls.push(url.clone());
            url
        };
        let final_check = Op::Check(vec![0, 1, 1, 10, 4], 3, None);
        for op in ops.into_iter().chain([final_check]) {
            match op {
                Op::Index(words) => {
                    let url = fresh_url(&mut urls);
                    idx.index_document(&url, &words.join(" ")).unwrap();
                }
                Op::IndexBatch(docs) => {
                    let batch: Vec<(String, String)> = docs
                        .iter()
                        .map(|words| (fresh_url(&mut urls), words.join(" ")))
                        .collect();
                    idx.index_documents(batch.iter().map(|(u, b)| (u.as_str(), b.as_str())))
                        .unwrap();
                }
                Op::Commit => idx.commit().unwrap(),
                Op::Migrate => {
                    let mut copy = TextIndex::new(model);
                    for doc in idx.export_documents().unwrap() {
                        copy.import_document(&doc).unwrap();
                    }
                    idx = copy;
                }
                Op::Reopen => idx = TextIndex::restore(&idx.snapshot().unwrap()).unwrap(),
                Op::GlobalDf(dfs) => {
                    let global: HashMap<String, usize> = dfs
                        .into_iter()
                        .map(|(w, df)| (ir::porter_stem(word(w)), df))
                        .collect();
                    idx.apply_global_df(&global).unwrap();
                }
                Op::Check(words, k, restrict) => {
                    let text = words.iter().map(|w| word(*w)).collect::<Vec<_>>().join(" ");
                    let candidates: Option<HashSet<String>> = restrict.map(|keep| {
                        urls.iter()
                            .enumerate()
                            .filter(|(i, _)| i % 3 == keep)
                            .map(|(_, u)| u.clone())
                            .chain((keep < 3).then(|| "never-indexed".to_owned()))
                            .collect()
                    });
                    // The oracle reads the relations, the kernel what
                    // was published from them: publish first.
                    idx.commit().unwrap();
                    for k in [k, usize::MAX] {
                        let got = kernel(&idx, &text, k, candidates.as_ref());
                        let want = oracle(&idx, &text, k, candidates.as_ref());
                        prop_assert_eq!(got, want, "query {:?} k {} within {:?}", text, k, candidates);
                    }
                }
            }
        }
    }
}
