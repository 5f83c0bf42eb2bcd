//! The derived posting index: what ranked retrieval actually reads.
//!
//! T / D / DT / TF / IDF / DL stay the logical, durable relations — the
//! ones the paper lists, the snapshot stores and the WAL rebuilds. At
//! every publish point ([`TextIndex::commit`], `apply_global_df`,
//! `restore`) the index **derives** from them a typed, read-only
//! structure: per term a doc-ordinal-sorted posting list with the tf
//! inline (delta + varint, the snapshot codec), the term's idf as the
//! IDF *relation* holds it (so distributed global df wins over the
//! local count), a dense doc-length array, and the rank of every
//! document's URL among the shard's URLs, so the `(score desc, url asc)`
//! order of a ranking is an integer compare. Nothing here is persisted
//! and nothing is built lazily on the read path.
//!
//! Doc and term ordinals are row positions in D and T. Documents are
//! only ever appended, and DT_term, DT_doc and TF gain one row each per
//! `(document, term)` pair in lockstep, so a publish folds in just the
//! rows that arrived since the last one and every posting list stays
//! sorted without a sort.
//!
//! [`TextIndex::commit`]: crate::index::TextIndex::commit

use std::collections::HashSet;

use monet::persist::{get_varint, put_varint, unzigzag, zigzag};
use monet::{Column, Db, Oid, StrPool};

use crate::error::{Error, Result};
use crate::index::{QueryWork, ScoreModel, SearchHit, D, DL, DT_DOC, DT_TERM, IDF, TF};

/// One term of the derived index.
#[derive(Debug, Default)]
struct TermPostings {
    /// The term's idf as the IDF relation holds it (0 until it has one).
    idf: f64,
    /// `(doc-ordinal delta, zigzag tf)` varint pairs, ordinals ascending.
    bytes: Vec<u8>,
    /// Postings in `bytes` — the term's local document frequency.
    count: u32,
    /// Ordinal of the last posting (base of the next delta).
    last_doc: u32,
}

/// Decodes one term's postings as `(doc ordinal, tf)`.
struct PostingIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    doc: u32,
}

impl Iterator for PostingIter<'_> {
    type Item = (u32, i64);

    fn next(&mut self) -> Option<(u32, i64)> {
        let delta = get_varint(self.bytes, &mut self.pos)?;
        let tf = get_varint(self.bytes, &mut self.pos)?;
        self.doc += delta as u32;
        Some((self.doc, unzigzag(tf)))
    }
}

/// Per-posting score contribution, with everything that is constant for
/// one query (the model's odds, the average document length) hoisted.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scorer {
    /// `tf · idf`.
    TfIdf,
    /// `ln(1 + odds · tf · idf · avg/dl)`.
    Hiemstra {
        /// `λ / (1 − λ)`.
        odds: f64,
        /// Average document length, floored at 1.
        avg: f64,
    },
}

impl Scorer {
    /// The scorer of `model` over a collection of average length `avg_dl`.
    pub(crate) fn new(model: ScoreModel, avg_dl: f64) -> Scorer {
        match model {
            ScoreModel::TfIdf => Scorer::TfIdf,
            ScoreModel::Hiemstra { lambda } => Scorer::Hiemstra {
                odds: lambda / (1.0 - lambda),
                avg: avg_dl.max(1.0),
            },
        }
    }

    /// One posting's contribution to its document's score.
    pub(crate) fn score(self, tf: i64, idf: f64, dl: f64) -> f64 {
        match self {
            Scorer::TfIdf => tf as f64 * idf,
            Scorer::Hiemstra { odds, avg } => {
                let norm = if dl > 0.0 { avg / dl } else { 1.0 };
                (1.0 + odds * tf as f64 * idf * norm).ln()
            }
        }
    }
}

/// The derived index of one [`TextIndex`](crate::index::TextIndex).
#[derive(Debug, Default)]
pub(crate) struct PostingIndex {
    /// By term ordinal (T row).
    terms: Vec<TermPostings>,
    /// DT/TF rows already folded into `terms`.
    pairs: usize,
    /// By doc ordinal (D row): the document's oid, the dictionary code
    /// of its URL, its length, and the rank of its URL among the
    /// shard's URLs in ascending order.
    doc_oids: Vec<Oid>,
    url_codes: Vec<u32>,
    doc_len: Vec<f64>,
    url_rank: Vec<u32>,
    /// `Σ doc_len`, kept as the integer DL holds.
    tokens: usize,
    /// `(URL dictionary code, doc ordinal)`, sorted: the probe side of
    /// a candidate restriction.
    by_url: Vec<(u32, u32)>,
}

fn out_of_step(what: &str) -> Error {
    Error::Document(format!("text relations out of step: {what}"))
}

impl PostingIndex {
    /// Folds everything the relations gained since the last publish
    /// into the derived structure and re-reads every idf. `term_oids`
    /// is T's head column (ascending); `grown` names, once each, the
    /// term ordinals that gained DT rows since the last publish.
    pub(crate) fn absorb(
        &mut self,
        db: &Db,
        term_oids: &[Oid],
        grown: impl IntoIterator<Item = u32>,
    ) -> Result<()> {
        self.terms
            .resize_with(term_oids.len(), TermPostings::default);
        self.absorb_docs(db)?;
        self.absorb_pairs(db, term_oids, grown)?;
        self.refresh_idf(db, term_oids)
    }

    fn absorb_docs(&mut self, db: &Db) -> Result<()> {
        if !db.contains(D) {
            return Ok(());
        }
        let (d, dl) = (db.get(D)?, db.get(DL)?);
        let (old, n) = (self.doc_oids.len(), d.len());
        if n == old {
            return Ok(());
        }
        let (Column::Str(urls), Column::Int(lens)) = (d.tail(), dl.tail()) else {
            return Err(out_of_step("D or DL has the wrong tail type"));
        };
        if u32::try_from(n).is_err() {
            return Err(Error::Document(
                "more than 2^32 documents in one index".into(),
            ));
        }
        if !dl.heads().skip(old).eq(d.heads().skip(old)) {
            return Err(out_of_step("DL rows do not follow D rows"));
        }
        self.doc_oids.extend(d.heads().skip(old));
        self.url_codes.extend_from_slice(&urls.codes()[old..]);
        self.doc_len
            .extend(lens[old..].iter().map(|&len| len as f64));
        self.tokens += lens[old..].iter().map(|&len| len.max(0) as usize).sum::<usize>();
        self.by_url
            .extend((old..n).map(|ord| (urls.code(ord), ord as u32)));
        self.by_url.sort_unstable();

        // Re-rank the URLs. The previous order is one sorted run, so
        // the (adaptive) merge sort only has to place the newcomers.
        let strings = urls.decode_all();
        let mut order = vec![0u32; n];
        for (ord, &rank) in self.url_rank.iter().enumerate() {
            order[rank as usize] = ord as u32;
        }
        for (slot, ord) in order[old..].iter_mut().zip(old..) {
            *slot = ord as u32;
        }
        order.sort_by(|&a, &b| strings[a as usize].cmp(&strings[b as usize]));
        self.url_rank.resize(n, 0);
        for (rank, &ord) in order.iter().enumerate() {
            self.url_rank[ord as usize] = rank as u32;
        }
        Ok(())
    }

    fn absorb_pairs(
        &mut self,
        db: &Db,
        term_oids: &[Oid],
        grown: impl IntoIterator<Item = u32>,
    ) -> Result<()> {
        if !db.contains(DT_TERM) {
            return Ok(());
        }
        let (dt_term, dt_doc, tf) = (db.get(DT_TERM)?, db.get(DT_DOC)?, db.get(TF)?);
        let (old, n) = (self.pairs, dt_term.len());
        if n == old {
            return Ok(());
        }
        let (Column::Oid(pairs), Column::Oid(docs), Column::Int(tfs)) =
            (dt_term.tail(), dt_doc.tail(), tf.tail())
        else {
            return Err(out_of_step("DT_term, DT_doc or TF has the wrong tail type"));
        };
        // One row per pair in each relation, appended together: row i
        // of all three describes the same pair.
        if dt_doc.len() != n
            || tf.len() != n
            || !dt_doc.heads().skip(old).eq(pairs[old..].iter().copied())
            || !tf.heads().skip(old).eq(pairs[old..].iter().copied())
        {
            return Err(out_of_step("DT_doc or TF rows do not follow DT_term rows"));
        }
        // The doc ordinal of every new row: a document's pairs are
        // consecutive rows, so the search runs once per document.
        let mut row_doc = Vec::with_capacity(n - old);
        let mut doc_ord = 0usize;
        for doc in &docs[old..] {
            if self.doc_oids.get(doc_ord) != Some(doc) {
                doc_ord = self
                    .doc_oids
                    .binary_search(doc)
                    .map_err(|_| out_of_step("a pair names a document D does not hold"))?;
            }
            row_doc.push(doc_ord as u32);
        }
        // DT_term's head index already groups the rows by term, in row
        // (= doc) order: each grown list is extended sequentially.
        let mut folded = 0usize;
        for term in grown {
            let (Some(list), Some(&oid)) = (
                self.terms.get_mut(term as usize),
                term_oids.get(term as usize),
            ) else {
                return Err(out_of_step("a grown term is not in T"));
            };
            for row in dt_term.positions(oid).map(|row| row as usize) {
                if row < old {
                    continue;
                }
                let doc = row_doc[row - old];
                let delta = doc
                    .checked_sub(list.last_doc)
                    .ok_or_else(|| out_of_step("a term's pairs are not in document order"))?;
                put_varint(&mut list.bytes, u64::from(delta));
                put_varint(&mut list.bytes, zigzag(tfs[row]));
                list.last_doc = doc;
                list.count += 1;
                folded += 1;
            }
            list.bytes.shrink_to_fit();
        }
        if folded != n - old {
            return Err(out_of_step("DT_term grew for a term not reported as grown"));
        }
        self.pairs = n;
        Ok(())
    }

    /// Re-reads every term's idf from the IDF relation — the relation,
    /// not the local df, is the authority: `apply_global_df` overwrites
    /// it with collection-wide frequencies.
    fn refresh_idf(&mut self, db: &Db, term_oids: &[Oid]) -> Result<()> {
        if !db.contains(IDF) {
            return Ok(());
        }
        let idf = db.get(IDF)?;
        let Column::Flt(values) = idf.tail() else {
            return Err(out_of_step("IDF has the wrong tail type"));
        };
        for (row, (term, &value)) in idf.heads().zip(values).enumerate() {
            // IDF rows are created in T order; the search only runs
            // for a relation that was not.
            let ord = if term_oids.get(row) == Some(&term) {
                row
            } else {
                match term_oids.binary_search(&term) {
                    Ok(ord) => ord,
                    Err(_) => continue,
                }
            };
            self.terms[ord].idf = value;
        }
        Ok(())
    }

    /// Average length (tokens) of the published documents.
    pub(crate) fn avg_doc_len(&self) -> f64 {
        match self.doc_len.len() {
            0 => 0.0,
            n => self.tokens as f64 / n as f64,
        }
    }

    /// Estimated heap bytes of the derived structure.
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.terms.capacity() * size_of::<TermPostings>()
            + self.terms.iter().map(|t| t.bytes.capacity()).sum::<usize>()
            + self.doc_oids.capacity() * size_of::<Oid>()
            + self.url_codes.capacity() * size_of::<u32>()
            + self.doc_len.capacity() * size_of::<f64>()
            + self.url_rank.capacity() * size_of::<u32>()
            + self.by_url.capacity() * size_of::<(u32, u32)>()
    }

    /// Published terms.
    pub(crate) fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// The published idf of term `ord`.
    pub(crate) fn idf(&self, ord: usize) -> Option<f64> {
        self.terms.get(ord).map(|t| t.idf)
    }

    /// The published local document frequency of term `ord`.
    pub(crate) fn df(&self, ord: usize) -> usize {
        self.terms.get(ord).map_or(0, |t| t.count as usize)
    }

    fn postings(&self, ord: usize) -> PostingIter<'_> {
        PostingIter {
            bytes: self.terms.get(ord).map_or(&[][..], |t| t.bytes.as_slice()),
            pos: 0,
            doc: 0,
        }
    }

    /// The candidate restriction as a doc-ordinal bitmap: one
    /// dictionary probe and one binary search per candidate URL.
    fn restrict(&self, pool: &StrPool, candidates: &HashSet<String>) -> Vec<bool> {
        let mut allowed = vec![false; self.doc_oids.len()];
        for url in candidates {
            let Some(code) = pool.lookup(url) else {
                continue;
            };
            if let Ok(at) = self.by_url.binary_search_by_key(&code, |&(code, _)| code) {
                allowed[self.by_url[at].1 as usize] = true;
            }
        }
        allowed
    }

    /// Materialises `(doc ordinal, score)` winners as hits — the only
    /// place a query touches URL strings.
    fn hits(&self, pool: &StrPool, winners: Vec<(u32, f64)>) -> Vec<SearchHit> {
        winners
            .into_iter()
            .map(|(ord, score)| SearchHit {
                doc: self.doc_oids[ord as usize],
                url: pool.get(self.url_codes[ord as usize]).unwrap_or_default(),
                score,
            })
            .collect()
    }
}

/// Term-at-a-time evaluation of one query over a [`PostingIndex`]: a
/// dense score accumulator, the documents it touched, and the optional
/// candidate restriction. Terms are added in the caller's order and
/// each list in doc order, so a score is always the same sum in the
/// same order.
pub(crate) struct Accumulator<'a> {
    index: &'a PostingIndex,
    pool: &'a StrPool,
    scorer: Scorer,
    allowed: Option<Vec<bool>>,
    scores: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<u32>,
    /// Work done so far.
    pub(crate) work: QueryWork,
}

impl<'a> Accumulator<'a> {
    /// An empty accumulator; `candidates` restricts scoring to those
    /// URLs.
    pub(crate) fn new(
        index: &'a PostingIndex,
        pool: &'a StrPool,
        scorer: Scorer,
        candidates: Option<&HashSet<String>>,
    ) -> Self {
        let docs = index.doc_oids.len();
        Accumulator {
            index,
            pool,
            scorer,
            allowed: candidates.map(|c| index.restrict(pool, c)),
            scores: vec![0.0; docs],
            seen: vec![false; docs],
            touched: Vec::new(),
            work: QueryWork::default(),
        }
    }

    /// Scores every (allowed) posting of term `ord`.
    pub(crate) fn add_term(&mut self, ord: usize) {
        self.work.matched_terms += 1;
        let Some(idf) = self.index.idf(ord) else {
            return;
        };
        for (doc, tf) in self.index.postings(ord) {
            let d = doc as usize;
            if self.allowed.as_ref().is_some_and(|allowed| !allowed[d]) {
                continue; // restricted out before any scoring work
            }
            self.work.tuples += 1;
            if !self.seen[d] {
                self.seen[d] = true;
                self.touched.push(doc);
            }
            self.scores[d] += self.scorer.score(tf, idf, self.index.doc_len[d]);
        }
    }

    /// The best `k` documents by `(score desc, url asc)`, as hits.
    /// Selection is bounded: the touched documents are partitioned
    /// around the k-th and only the winners are sorted and resolved.
    pub(crate) fn top_k(self, k: usize) -> Vec<SearchHit> {
        let rank = &self.index.url_rank;
        let mut ranked: Vec<(u32, f64)> = self
            .touched
            .iter()
            .map(|&doc| (doc, self.scores[doc as usize]))
            .collect();
        let by_score_then_url = |a: &(u32, f64), b: &(u32, f64)| {
            b.1.total_cmp(&a.1)
                .then_with(|| rank[a.0 as usize].cmp(&rank[b.0 as usize]))
        };
        if k == 0 {
            ranked.clear();
        } else if k < ranked.len() {
            ranked.select_nth_unstable_by(k - 1, by_score_then_url);
            ranked.truncate(k);
        }
        ranked.sort_unstable_by(by_score_then_url);
        self.index.hits(self.pool, ranked)
    }
}
