//! The text index: the paper's T / D / DT / TF / IDF relations.
//!
//! All five live as BATs in one [`monet::Db`], exactly as listed in the
//! paper ("we transparently integrate the necessary relations into our
//! database"):
//!
//! * **T**`(term-oid, term)` — the vocabulary (stemmed, stopped),
//! * **D**`(doc-oid, doc-url)` — the global document registry,
//! * **DT** — document/term pairs; being binary relations we split the
//!   paper's ternary `DT(doc-oid, term-oid, pair-oid)` into
//!   `DT_doc(pair→doc)` and `DT_term(term→pair)` (head-indexed for the
//!   probe direction each side needs),
//! * **TF**`(pair-oid, tf)` — "the number of times a certain term occurs
//!   in a given document",
//! * **IDF**`(term-oid, idf)` — "the idf of a term is defined as 1/df".
//!
//! Indexing is incremental: documents accumulate in DT, and
//! [`TextIndex::commit`] re-derives TF/IDF for the touched terms only —
//! "the incremental full text indexing process is started every time the
//! XML storage manager has parsed a certain number of document bodies.
//! … Using these three basic relations the TF and IDF relations are
//! updated incrementally."
//!
//! The relations are the logical, durable state. Ranked retrieval does
//! not probe them: every publish point ([`TextIndex::commit`],
//! [`TextIndex::apply_global_df`], [`TextIndex::restore`]) folds what
//! they gained into the derived posting index (`postings.rs`), and
//! [`TextIndex::ranked`] is one kernel over that structure.

use std::collections::{HashMap, HashSet};

use monet::wal::WalHandle;
use monet::{Column, ColumnKind, Db, Oid, Value};
use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::postings::{Accumulator, PostingIndex, Scorer};
use crate::text::tokenize_and_stem;

/// Relation names.
pub const T: &str = "T";
/// Document registry relation.
pub const D: &str = "D";
/// Pair → document half of DT.
pub const DT_DOC: &str = "DT_doc";
/// Term → pair half of DT.
pub const DT_TERM: &str = "DT_term";
/// Pair → term frequency.
pub const TF: &str = "TF";
/// Term → inverse document frequency.
pub const IDF: &str = "IDF";
/// Document → length (token count), used by the Hiemstra model.
pub const DL: &str = "DL";

/// The ranking model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScoreModel {
    /// Plain `Σ tf·idf` — the relations as the paper lists them.
    TfIdf,
    /// The Hiemstra-style linguistically motivated model the paper
    /// derives its variant from: `Σ log(1 + (λ·tf·idf·C)/((1-λ)·dl⁻¹))`
    /// simplified to `Σ log(1 + λ/(1-λ) · tf·idf · avgdl)` per matched
    /// term, length-normalised.
    Hiemstra {
        /// Smoothing parameter λ ∈ (0, 1).
        lambda: f64,
    },
}

/// One ranked search result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchHit {
    /// The document oid.
    pub doc: Oid,
    /// The document URL.
    pub url: String,
    /// The score (higher is better).
    pub score: f64,
}

/// Work counters for one query evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryWork {
    /// TF/DT tuples touched.
    pub tuples: usize,
    /// Query terms found in the vocabulary.
    pub matched_terms: usize,
}

/// A document in relation-level form: the stemmed terms and their
/// stored frequencies — the unit of shard migration. Re-tokenizing the
/// original text would not do: stemming is not idempotent, so a
/// migrated document must carry its stored stems verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct DocExport {
    /// The document URL (the routing key).
    pub url: String,
    /// `(stem, tf)` pairs, sorted by stem — the DT/TF rows.
    pub terms: Vec<(String, i64)>,
}

impl DocExport {
    /// Tokenises, stems and counts `text` once: the rows every copy of
    /// the document appends. A document's length is its token count,
    /// which is `Σ tf` by construction.
    pub(crate) fn analyse(url: &str, text: &str) -> DocExport {
        let mut stems = tokenize_and_stem(text);
        stems.sort_unstable();
        let mut terms: Vec<(String, i64)> = Vec::new();
        for stem in stems {
            match terms.last_mut() {
                Some((last, tf)) if *last == stem => *tf += 1,
                _ => terms.push((stem, 1)),
            }
        }
        DocExport {
            url: url.to_owned(),
            terms,
        }
    }

    /// Token count (`Σ tf`) — the DL value the document re-creates on
    /// import (document length is the sum of its term frequencies by
    /// construction).
    pub fn token_count(&self) -> i64 {
        self.terms.iter().map(|(_, tf)| *tf).sum()
    }
}

/// The text index.
pub struct TextIndex {
    db: Db,
    model: ScoreModel,
    /// In-memory mirror of T for O(1) term lookup: the catalog's
    /// **dictionary code** for the stem (rather than an owned copy of
    /// the string) to the term's ordinal, its row in T — the T
    /// relation, the catalog's string pool and this mirror share one
    /// term dictionary (rebuilt on restore).
    vocab: HashMap<u32, u32>,
    /// T's head column: term ordinal → term oid (ascending).
    term_oids: Vec<Oid>,
    /// df per term ordinal (mirror, drives incremental IDF updates).
    df: Vec<usize>,
    /// Term ordinals touched since the last commit.
    dirty_terms: Vec<u32>,
    /// What queries read, derived from the relations at every publish.
    postings: PostingIndex,
    committed: bool,
    /// Bumped on every mutation (insert or commit); cache keys built
    /// from the epoch go stale the moment the index changes.
    epoch: u64,
    /// When attached, every indexed document is logged here *before*
    /// any relation mutates.
    wal: Option<WalHandle>,
}

/// WAL op tag: index a document body (`fields = [url, text]`).
pub const WAL_OP_INDEX: u8 = 0;

impl TextIndex {
    /// An empty index with the given ranking model.
    pub fn new(model: ScoreModel) -> Self {
        TextIndex {
            db: Db::new(),
            model,
            vocab: HashMap::new(),
            term_oids: Vec::new(),
            df: Vec::new(),
            dirty_terms: Vec::new(),
            postings: PostingIndex::default(),
            committed: true,
            epoch: 0,
            wal: None,
        }
    }

    /// A counter that advances on every mutation. Equal epochs guarantee
    /// the index has not changed in between; results derived from it can
    /// be cached keyed by the epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Resumes the epoch counter from a persisted value, so cache keys
    /// derived from epochs stay monotone across restarts.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Whether every indexed document has been committed — i.e. the IDF
    /// relation is up to date and [`TextIndex::commit`] would be a no-op.
    pub fn is_committed(&self) -> bool {
        self.committed
    }

    /// Attaches a write-ahead-log handle: from now on every indexed
    /// document is logged before the relations mutate.
    pub fn set_wal(&mut self, wal: WalHandle) {
        self.wal = Some(wal);
    }

    /// Detaches the log (used during replay so replayed operations are
    /// not re-logged).
    pub fn detach_wal(&mut self) -> Option<WalHandle> {
        self.wal.take()
    }

    /// Whether `url` is already indexed here.
    pub fn contains_url(&self, url: &str) -> bool {
        self.db
            .get(D)
            .map(|bat| !bat.select_str_eq(url).is_empty())
            .unwrap_or(false)
    }

    /// Serialises the index (ranking model + all relations, with a CRC
    /// trailer via the catalog snapshot). Commits pending IDF work first
    /// so the snapshot is self-consistent.
    pub fn snapshot(&mut self) -> Result<Vec<u8>> {
        self.commit()?;
        let mut out = Vec::new();
        match self.model {
            ScoreModel::TfIdf => {
                out.push(0u8);
                out.extend_from_slice(&0u64.to_le_bytes());
            }
            ScoreModel::Hiemstra { lambda } => {
                out.push(1u8);
                out.extend_from_slice(&lambda.to_bits().to_le_bytes());
            }
        }
        out.extend_from_slice(&monet::persist::snapshot(&self.db)?);
        Ok(out)
    }

    /// Restores an index from a [`Self::snapshot`]. The in-memory
    /// mirrors (vocabulary, df counts) and the derived
    /// posting index are rebuilt from the relations.
    pub fn restore(bytes: &[u8]) -> Result<TextIndex> {
        if bytes.len() < 9 {
            return Err(Error::Document("text snapshot shorter than header".into()));
        }
        let lambda = f64::from_bits(u64::from_le_bytes(bytes[1..9].try_into().expect("8 bytes")));
        let model = match bytes[0] {
            0 => ScoreModel::TfIdf,
            1 => ScoreModel::Hiemstra { lambda },
            other => {
                return Err(Error::Document(format!("bad score-model tag {other}")));
            }
        };
        let db = monet::persist::restore(&bytes[9..])?;
        let mut vocab = HashMap::new();
        let mut term_oids = Vec::new();
        if db.contains(T) {
            let t = db.get(T)?;
            if let Column::Str(stems) = t.tail() {
                vocab.extend(stems.codes().iter().zip(0u32..).map(|(&code, ord)| (code, ord)));
            }
            term_oids.extend(t.heads());
        }
        let mut postings = PostingIndex::default();
        postings.absorb(&db, &term_oids, 0..term_oids.len() as u32)?;
        let df = (0..term_oids.len()).map(|ord| postings.df(ord)).collect();
        Ok(TextIndex {
            db,
            model,
            vocab,
            term_oids,
            df,
            dirty_terms: Vec::new(),
            postings,
            committed: true,
            epoch: 0,
            wal: None,
        })
    }

    /// The underlying catalog (the relations are inspectable).
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// The ranking model.
    pub fn model(&self) -> ScoreModel {
        self.model
    }

    /// Number of indexed documents.
    pub fn document_count(&self) -> usize {
        self.db.get(D).map(monet::Bat::len).unwrap_or(0)
    }

    /// Vocabulary size.
    pub fn term_count(&self) -> usize {
        self.vocab.len()
    }

    /// Estimated heap bytes of the whole index: the relations (with
    /// their dictionary) plus the derived posting index.
    pub fn resident_bytes(&self) -> usize {
        self.db.resident_bytes() + self.posting_index_bytes()
    }

    /// Estimated heap bytes of the derived posting index alone.
    pub fn posting_index_bytes(&self) -> usize {
        self.postings.resident_bytes()
    }

    /// Indexes one document body; returns its doc oid. The document
    /// is invisible to queries until the next [`TextIndex::commit`].
    pub fn index_document(&mut self, url: &str, text: &str) -> Result<Oid> {
        self.index_documents([(url, text)]).map(|oids| oids[0])
    }

    /// Logs one `(url, text)` record per document, under a single lock
    /// acquisition, when a WAL is attached. Callers log before they
    /// [`insert`](Self::insert), so the log never lags the relations.
    pub(crate) fn log_documents(&self, docs: &[(&str, &str)]) -> Result<()> {
        if let Some(wal) = &self.wal {
            let groups: Vec<Vec<&[u8]>> = docs
                .iter()
                .map(|(url, text)| vec![url.as_bytes(), text.as_bytes()])
                .collect();
            wal.log_batch(WAL_OP_INDEX, &groups)?;
        }
        Ok(())
    }

    /// Appends one analysed document: a row each to D and DL, a T row
    /// per new stem, and — one row each per `(stem, tf)` pair, in
    /// lockstep — DT_doc, DT_term and TF. Oids are minted in the
    /// document's term order (the doc, then per term its T oid when
    /// new and its pair), and each relation is resolved once per
    /// document. The caller has checked the URL is new.
    pub(crate) fn insert(&mut self, doc: &DocExport) -> Result<Oid> {
        let id = self.db.mint();
        self.db
            .get_or_create(D, ColumnKind::Str)?
            .append_str(id, doc.url.as_str())?;
        self.db
            .get_or_create(DL, ColumnKind::Int)?
            .append_int(id, doc.token_count().max(0))?;
        // `(term ordinal, pair oid)` per row, and the stems new to T.
        let mut rows = Vec::with_capacity(doc.terms.len());
        let mut new_terms = Vec::new();
        for (term, _) in &doc.terms {
            // Intern once into the catalog dictionary; T's string column
            // stores the same code, so the stem bytes live exactly once.
            let code = self.db.pool().intern(term);
            let ord = match self.vocab.get(&code) {
                Some(&ord) => ord,
                None => {
                    let o = self.db.mint();
                    let ord = self.term_oids.len() as u32;
                    self.vocab.insert(code, ord);
                    self.term_oids.push(o);
                    self.df.push(0);
                    new_terms.push((o, term.as_str()));
                    ord
                }
            };
            rows.push((ord, self.db.mint()));
        }
        if !new_terms.is_empty() {
            let t = self.db.get_or_create(T, ColumnKind::Str)?;
            for (o, term) in new_terms {
                t.append_str(o, term)?;
            }
        }
        if !rows.is_empty() {
            let dt_doc = self.db.get_or_create(DT_DOC, ColumnKind::Oid)?;
            for &(_, pair) in &rows {
                dt_doc.append_oid(pair, id)?;
            }
            let dt_term = self.db.get_or_create(DT_TERM, ColumnKind::Oid)?;
            for &(ord, pair) in &rows {
                dt_term.append_oid(self.term_oids[ord as usize], pair)?;
            }
            let tf_bat = self.db.get_or_create(TF, ColumnKind::Int)?;
            for (&(_, pair), (_, tf)) in rows.iter().zip(&doc.terms) {
                tf_bat.append_int(pair, *tf)?;
            }
            for &(ord, _) in &rows {
                self.df[ord as usize] += 1;
                self.dirty_terms.push(ord);
            }
        }
        self.committed = false;
        self.epoch += 1;
        Ok(id)
    }

    /// Indexes a batch of `(url, text)` documents in order — the bulk
    /// entry point for populate, which hands its whole text batch over
    /// in one call and commits once at the end. Returns
    /// the minted doc oids in input order.
    ///
    /// With a WAL attached the whole batch is logged with a **single**
    /// lock acquisition ([`WalHandle::log_batch`]). Duplicate URLs —
    /// against the index or within the batch — are rejected *before*
    /// anything is logged, so the log never carries a record the apply
    /// loop would then refuse.
    pub fn index_documents<'a, I>(&mut self, docs: I) -> Result<Vec<Oid>>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let docs: Vec<(&str, &str)> = docs.into_iter().collect();
        let mut seen = HashSet::new();
        for (url, _) in &docs {
            if self.contains_url(url) || !seen.insert(*url) {
                return Err(Error::Document(format!("`{url}` already indexed")));
            }
        }
        // Log before any relation mutates; a failed append aborts the
        // whole operation with the index untouched.
        self.log_documents(&docs)?;
        docs.iter()
            .map(|(url, text)| self.insert(&DocExport::analyse(url, text)))
            .collect()
    }

    /// Derives IDF entries for the terms touched since the last commit
    /// (`idf = 1/df`, per the paper) and publishes the new rows to the
    /// derived posting index. Idempotent.
    pub fn commit(&mut self) -> Result<()> {
        if self.committed {
            return Ok(());
        }
        let mut dirty = std::mem::take(&mut self.dirty_terms);
        let idf_bat = self.db.get_or_create(IDF, ColumnKind::Flt)?;
        for &term in &dirty {
            let df = self.df[term as usize].max(1);
            idf_bat.upsert(self.term_oids[term as usize], Value::Flt(1.0 / df as f64))?;
        }
        dirty.sort_unstable();
        dirty.dedup();
        self.postings.absorb(&self.db, &self.term_oids, dirty)?;
        self.committed = true;
        self.epoch += 1;
        Ok(())
    }

    /// The published idf of a (stemmed) term — what the IDF relation
    /// held for it at the last commit — if in the vocabulary.
    pub fn idf(&self, stem: &str) -> Option<f64> {
        self.postings.idf(self.term_ordinal(stem)?)
    }

    /// The ordinal (T row) of a stemmed term. Probes through the
    /// catalog dictionary with a **non-inserting** lookup, so querying
    /// never grows the pool.
    pub(crate) fn term_ordinal(&self, stem: &str) -> Option<usize> {
        let code = self.db.pool().lookup(stem)?;
        self.vocab.get(&code).map(|&ord| ord as usize)
    }

    /// Average length (tokens) of the published documents.
    pub fn avg_doc_len(&self) -> f64 {
        self.postings.avg_doc_len()
    }

    /// The derived posting index (what the fragment view evaluates).
    pub(crate) fn postings(&self) -> &PostingIndex {
        &self.postings
    }

    /// An empty accumulator over the published state, scoring under
    /// this index's model.
    pub(crate) fn accumulator(&self, candidates: Option<&HashSet<String>>) -> Accumulator<'_> {
        let scorer = Scorer::new(self.model, self.avg_doc_len());
        Accumulator::new(&self.postings, self.db.pool(), scorer, candidates)
    }

    /// Evaluates a free-text query over the published state and returns
    /// the top `k` documents: [`TextIndex::ranked`] on the stemmed and
    /// stopped words of `text`.
    pub fn query(&self, text: &str, k: usize) -> (Vec<SearchHit>, QueryWork) {
        self.ranked(&tokenize_and_stem(text), k, None)
    }

    /// The ranking kernel: the top `k` documents for the stemmed query
    /// terms over the **published** state (what the last commit
    /// derived — pending documents are invisible until the next one),
    /// optionally restricted to candidate URLs — the paper's
    /// query-optimizer choice: "it is up to the query optimizer whether
    /// the ranking should be unlimited and the results merged
    /// afterwards or the ranking should be restricted to only a limited
    /// domain. For example, if one is only interested in articles about
    /// the Australian Open tennis tournament from a certain author,
    /// this might be … a very interesting a-priori restriction of the
    /// ranking candidate set." Term at a time in the query's stem order
    /// and each posting list in doc order, so a score is the same sum
    /// in the same order on every evaluation; the candidate set becomes
    /// a doc bitmap (restricted-out postings cost no scoring work);
    /// only the `k` winners get a URL string. Reads only — nothing is
    /// built, interned, committed or bumped here.
    pub fn ranked(
        &self,
        stems: &[String],
        k: usize,
        candidates: Option<&HashSet<String>>,
    ) -> (Vec<SearchHit>, QueryWork) {
        let mut acc = self.accumulator(candidates);
        for stem in stems {
            if let Some(term) = self.term_ordinal(stem) {
                acc.add_term(term);
            }
        }
        let work = acc.work;
        (acc.top_k(k), work)
    }

    /// The vocabulary with local document frequencies: `stem → df`.
    pub fn df_map(&self) -> HashMap<String, usize> {
        let pool = self.db.pool();
        self.vocab
            .iter()
            .map(|(code, ord)| (pool.get(*code).unwrap_or_default(), self.df[*ord as usize]))
            .collect()
    }

    /// Overrides the IDF relation with *global* document frequencies —
    /// the paper distributes "the TF (and corresponding IDF tuples)"
    /// to the servers, so a server ranks with collection-wide idf, not
    /// its local one. Terms absent from this server's vocabulary are
    /// ignored (their postings live elsewhere).
    pub fn apply_global_df(&mut self, global: &HashMap<String, usize>) -> Result<()> {
        self.commit()?;
        for (stem, df) in global {
            if let Some(term) = self.term_ordinal(stem) {
                let df = (*df).max(1);
                self.db
                    .get_or_create(IDF, ColumnKind::Flt)?
                    .upsert(self.term_oids[term], Value::Flt(1.0 / df as f64))?;
            }
        }
        self.postings.absorb(&self.db, &self.term_oids, [])?;
        self.epoch += 1;
        Ok(())
    }

    /// Every published term as `(stem, term ordinal)`.
    pub(crate) fn stems(&self) -> impl Iterator<Item = (String, usize)> + '_ {
        let pool = self.db.pool();
        self.vocab
            .iter()
            .map(move |(code, ord)| (pool.get(*code).unwrap_or_default(), *ord as usize))
    }

    /// Exports every document in relation-level form, in D (insertion)
    /// order — the rebalancer's migration feed. Inverts DT/TF back into
    /// per-document `(stem, tf)` lists; [`TextIndex::import_document`]
    /// on the receiving shard reconstructs identical relations.
    pub fn export_documents(&self) -> Result<Vec<DocExport>> {
        if self.document_count() == 0 {
            return Ok(Vec::new());
        }
        let pool = self.db.pool();
        let name_of: HashMap<Oid, String> = self
            .vocab
            .iter()
            .map(|(code, ord)| {
                (
                    self.term_oids[*ord as usize],
                    pool.get(*code).unwrap_or_default(),
                )
            })
            .collect();
        let mut pair_term: HashMap<Oid, Oid> = HashMap::new();
        if let Ok(dt) = self.db.get(DT_TERM) {
            for (term, v) in dt.iter() {
                if let Some(pair) = v.as_oid() {
                    pair_term.insert(pair, term);
                }
            }
        }
        let mut tf_of: HashMap<Oid, i64> = HashMap::new();
        if let Ok(tf) = self.db.get(TF) {
            for (pair, v) in tf.iter() {
                if let Some(n) = v.as_int() {
                    tf_of.insert(pair, n);
                }
            }
        }
        let mut doc_terms: HashMap<Oid, Vec<(String, i64)>> = HashMap::new();
        if let Ok(dt) = self.db.get(DT_DOC) {
            for (pair, v) in dt.iter() {
                let Some(doc) = v.as_oid() else { continue };
                let Some(&term) = pair_term.get(&pair) else {
                    return Err(Error::Document(format!("pair {pair} lost its term")));
                };
                let stem = name_of.get(&term).cloned().unwrap_or_default();
                let tf = tf_of.get(&pair).copied().unwrap_or(0);
                doc_terms.entry(doc).or_default().push((stem, tf));
            }
        }
        let mut out = Vec::with_capacity(self.document_count());
        if let Ok(d) = self.db.get(D) {
            for (doc, v) in d.iter() {
                let Some(url) = v.as_str() else { continue };
                let mut terms = doc_terms.remove(&doc).unwrap_or_default();
                terms.sort();
                out.push(DocExport {
                    url: url.to_owned(),
                    terms,
                });
            }
        }
        Ok(out)
    }

    /// Inserts a document from its relation-level export — the shard
    /// migration path. Identical to [`TextIndex::index_document`] except
    /// the stored stems are taken as-is (no tokenizing — stemming is not
    /// idempotent) and nothing is WAL-logged: migrations replay from
    /// their layout record, which re-derives every move.
    pub fn import_document(&mut self, doc: &DocExport) -> Result<Oid> {
        if self.contains_url(&doc.url) {
            return Err(Error::Document(format!("`{}` already indexed", doc.url)));
        }
        self.insert(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> TextIndex {
        let mut idx = TextIndex::new(ScoreModel::TfIdf);
        idx.index_document(
            "seles-history.html",
            "Winner of the Australian Open. Seles is a champion winner.",
        )
        .unwrap();
        idx.index_document("hingis-history.html", "Runner up at the Australian Open.")
            .unwrap();
        idx.index_document("news.html", "Tennis news from the open era.")
            .unwrap();
        idx.commit().unwrap();
        idx
    }

    #[test]
    fn relations_exist_after_indexing() {
        let idx = small_corpus();
        for rel in [T, D, DT_DOC, DT_TERM, TF, IDF, DL] {
            assert!(idx.db().contains(rel), "missing relation {rel}");
        }
        assert_eq!(idx.document_count(), 3);
    }

    #[test]
    fn idf_is_one_over_df() {
        let idx = small_corpus();
        // "open" appears in all three documents.
        assert_eq!(idx.idf("open"), Some(1.0 / 3.0));
        // "winner" appears only in the first.
        assert_eq!(idx.idf("winner"), Some(1.0));
    }

    #[test]
    fn query_ranks_the_winner_document_first() {
        let idx = small_corpus();
        let (hits, work) = idx.query("winner", 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].url, "seles-history.html");
        // tf("winner") = 2, idf = 1 → score 2.
        assert_eq!(hits[0].score, 2.0);
        assert_eq!(work.matched_terms, 1);
        assert_eq!(work.tuples, 1);
    }

    #[test]
    fn multi_term_queries_accumulate() {
        let idx = small_corpus();
        let (hits, _) = idx.query("australian open", 10);
        assert_eq!(hits.len(), 3);
        // Both history pages mention both terms; news only "open".
        assert_eq!(hits[2].url, "news.html");
        assert!(hits[0].score > hits[2].score);
    }

    #[test]
    fn unknown_terms_match_nothing() {
        let idx = small_corpus();
        let (hits, work) = idx.query("zzzzunknown", 10);
        assert!(hits.is_empty());
        assert_eq!(work.matched_terms, 0);
    }

    #[test]
    fn duplicate_url_is_rejected() {
        let mut idx = small_corpus();
        assert!(idx.index_document("news.html", "again").is_err());
    }

    #[test]
    fn incremental_commit_updates_touched_terms_only() {
        let mut idx = small_corpus();
        assert_eq!(idx.idf("winner"), Some(1.0));
        idx.index_document("more.html", "another winner emerges")
            .unwrap();
        idx.commit().unwrap();
        assert_eq!(idx.idf("winner"), Some(0.5));
        // Untouched term unchanged.
        assert_eq!(idx.idf("runner"), Some(1.0));
    }

    #[test]
    fn hiemstra_model_prefers_rare_terms() {
        let mut idx = TextIndex::new(ScoreModel::Hiemstra { lambda: 0.5 });
        idx.index_document("a", "tennis tennis tennis rare").unwrap();
        idx.index_document("b", "tennis tennis tennis tennis").unwrap();
        idx.index_document("c", "tennis common common").unwrap();
        idx.commit().unwrap();
        let (hits, _) = idx.query("rare", 3);
        assert_eq!(hits[0].url, "a");
        assert!(hits[0].score > 0.0);
    }

    #[test]
    fn restricted_query_ranks_only_candidates() {
        let idx = small_corpus();
        let all: HashSet<String> =
            ["hingis-history.html".to_owned()].into_iter().collect();
        let (hits, work) = idx.ranked(&tokenize_and_stem("australian open"), 10, Some(&all));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].url, "hingis-history.html");
        // The restriction pruned postings before scoring: fewer tuples
        // than the unrestricted evaluation.
        let (_, full_work) = idx.query("australian open", 10);
        assert!(work.tuples < full_work.tuples);
    }

    #[test]
    fn restricted_query_with_empty_candidates_returns_nothing() {
        let idx = small_corpus();
        let none = HashSet::new();
        let (hits, _) = idx.ranked(&tokenize_and_stem("open"), 10, Some(&none));
        assert!(hits.is_empty());
    }

    #[test]
    fn export_import_round_trips_relations_exactly() {
        let mut idx = small_corpus();
        let docs = idx.export_documents().unwrap();
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[0].url, "seles-history.html");
        // tf("winner") = 2 in the first document.
        assert_eq!(
            docs[0].terms.iter().find(|(s, _)| s == "winner"),
            Some(&("winner".to_owned(), 2))
        );

        let mut copy = TextIndex::new(ScoreModel::TfIdf);
        for d in &docs {
            copy.import_document(d).unwrap();
        }
        copy.commit().unwrap();
        assert_eq!(copy.document_count(), 3);
        assert_eq!(copy.avg_doc_len(), idx.avg_doc_len());
        assert_eq!(copy.idf("open"), idx.idf("open"));
        let (a, _) = idx.query("australian open winner", 10);
        let (b, _) = copy.query("australian open winner", 10);
        assert_eq!(a, b);
        // Rebuilding from the same insertion order is byte-stable.
        assert_eq!(idx.snapshot().unwrap(), copy.snapshot().unwrap());
    }

    #[test]
    fn a_query_reads_only() {
        let idx = small_corpus();
        let (epoch, pool) = (idx.epoch(), idx.db().pool().len());
        let only: HashSet<String> = ["news.html".to_owned(), "nowhere.html".to_owned()]
            .into_iter()
            .collect();
        idx.query("open zzzzunknown winner", 10);
        idx.ranked(&tokenize_and_stem("open neverseen"), 10, Some(&only));
        assert_eq!(idx.epoch(), epoch, "a query must not bump the epoch");
        assert_eq!(
            idx.db().pool().len(),
            pool,
            "a query must not intern its words or candidate URLs"
        );
    }

    #[test]
    fn pending_documents_are_invisible_until_the_next_commit() {
        let mut idx = small_corpus();
        idx.index_document("more.html", "another winner emerges").unwrap();
        let stems = tokenize_and_stem("winner emerges");
        let (before, work) = idx.ranked(&stems, 10, None);
        assert_eq!(before.len(), 1, "the kernel reads the published state");
        assert_eq!(work.matched_terms, 2, "both stems are in the vocabulary");
        idx.commit().unwrap();
        let (after, _) = idx.ranked(&stems, 10, None);
        assert_eq!(after.len(), 2);
        assert_eq!(after[0].url, "more.html");
    }

    #[test]
    fn the_derived_index_is_counted_and_small() {
        let idx = small_corpus();
        assert!(idx.posting_index_bytes() > 0);
        assert_eq!(
            idx.resident_bytes(),
            idx.db().resident_bytes() + idx.posting_index_bytes()
        );
    }
}
