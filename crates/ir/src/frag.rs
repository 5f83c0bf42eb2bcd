//! Horizontal fragmentation on descending idf.
//!
//! "Since terms with a high idf … are expected to be more significant to
//! the ranking of a document …, we fragment on descending idf. Note that
//! the less interesting lower idf terms typically are the most
//! computationally expensive terms (their high df means they have many
//! related tuples in the TF relation). Moving these less interesting but
//! more expensive terms to the end of the fragment set allows us to
//! exploit this knowledge later on during query optimization."
//!
//! [`FragmentedIndex::query_with_cutoff`] processes fragments in idf
//! order and stops after a budget of fragments, returning the top-N plus
//! the **quality estimate** of the paper's cost-quality model [BHC+01]:
//! the fraction of the query's total idf mass that was actually
//! evaluated ("estimate the quality degrade resulting from a-priori
//! ignoring fragments with lower idf").

use crate::error::{Error, Result};
use crate::index::{QueryWork, SearchHit, TextIndex};
use crate::text::tokenize_and_stem;

/// One fragment: a contiguous band of terms in the descending-idf
/// order. The postings stay where they are, in the index's posting
/// lists; the fragment records only its shape.
pub struct Fragment {
    /// Terms in the band.
    pub terms: usize,
    /// Largest idf in the fragment.
    pub max_idf: f64,
    /// Smallest idf in the fragment.
    pub min_idf: f64,
    /// Total posting tuples (the fragment's evaluation cost).
    pub tuples: usize,
    /// Largest tf of any posting in the fragment (drives the score upper
    /// bound of the early-termination optimisation).
    pub max_tf: i64,
}

impl Fragment {
    fn empty() -> Fragment {
        Fragment {
            terms: 0,
            max_idf: 0.0,
            min_idf: f64::INFINITY,
            tuples: 0,
            max_tf: 0,
        }
    }
}

/// The fragmented index: a view that cuts a committed [`TextIndex`]'s
/// term order into idf bands, evaluated over the index's own posting
/// lists, document lengths and URLs.
pub struct FragmentedIndex<'a> {
    index: &'a TextIndex,
    fragments: Vec<Fragment>,
    /// Term ordinal → the fragment holding the term.
    fragment_of: Vec<u32>,
}

/// Result of a cut-off query.
#[derive(Debug, Clone, PartialEq)]
pub struct CutoffResult {
    /// The ranked hits.
    pub hits: Vec<SearchHit>,
    /// Estimated quality in `[0, 1]`: evaluated idf mass over total idf
    /// mass of the query.
    pub quality: f64,
    /// Fragments actually processed.
    pub fragments_used: usize,
    /// Work counters.
    pub work: QueryWork,
}

impl<'a> FragmentedIndex<'a> {
    /// Splits the (committed) `index` into `n` fragments balanced by
    /// *posting tuples* (not by term count): because low-idf terms
    /// carry most tuples, equal-tuple fragments put very few, expensive
    /// terms in the last fragments — the shape the paper's argument
    /// depends on.
    pub fn build(index: &'a TextIndex, n: usize) -> Result<FragmentedIndex<'a>> {
        if n == 0 {
            return Err(Error::Config("at least one fragment required".into()));
        }
        if !index.is_committed() {
            return Err(Error::Config("commit the index before fragmenting it".into()));
        }
        let postings = index.postings();
        let mut terms: Vec<(f64, String, usize)> = index
            .stems()
            .map(|(stem, ord)| (postings.idf(ord).unwrap_or(0.0), stem, ord))
            .collect();
        terms.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let total_tuples: usize = terms.iter().map(|t| postings.df(t.2)).sum();

        let per_fragment = (total_tuples / n).max(1);
        let mut fragments = Vec::with_capacity(n);
        let mut fragment_of = vec![0u32; postings.term_count()];
        let mut current = Fragment::empty();
        for (idf, _, ord) in terms {
            if current.tuples >= per_fragment && fragments.len() + 1 < n {
                fragments.push(std::mem::replace(&mut current, Fragment::empty()));
            }
            fragment_of[ord] = fragments.len() as u32;
            current.terms += 1;
            current.tuples += postings.df(ord);
            current.max_idf = current.max_idf.max(idf);
            current.min_idf = current.min_idf.min(idf);
            current.max_tf = current.max_tf.max(postings.max_tf(ord));
        }
        if current.terms > 0 || fragments.is_empty() {
            fragments.push(current);
        }
        Ok(FragmentedIndex {
            index,
            fragments,
            fragment_of,
        })
    }

    /// Per-fragment `(tuples, max_idf, min_idf)` — lets experiments show
    /// the skew the paper exploits.
    pub fn fragment_profile(&self) -> Vec<(usize, f64, f64)> {
        self.fragments
            .iter()
            .map(|f| (f.tuples, f.max_idf, f.min_idf))
            .collect()
    }

    /// The query's terms as `(term ordinal, fragment, idf)`, in stem
    /// order; stems outside the vocabulary drop out.
    fn query_terms(&self, text: &str) -> Vec<(usize, usize, f64)> {
        let postings = self.index.postings();
        tokenize_and_stem(text)
            .iter()
            .filter_map(|stem| {
                let ord = self.index.term_ordinal(stem)?;
                Some((ord, *self.fragment_of.get(ord)? as usize, postings.idf(ord)?))
            })
            .collect()
    }

    /// Evaluates `text` fragment by fragment and **stops as soon as the
    /// top `k` can no longer change** — the paper's top-N optimisation
    /// hook ("both database top-N optimization techniques (e.g. [DR99,
    /// CK98]) and IR top-N optimization techniques (e.g. \[Bro95\]) can
    /// be exploited here"), in the braking-distance style of Carey &
    /// Kossmann: after each fragment, an upper bound on the score any
    /// document could still gain from the remaining fragments is
    /// compared against the current k-th score.
    ///
    /// Unlike [`Self::query_with_cutoff`], the result is *exactly* the
    /// full top-k (quality 1), only cheaper.
    pub fn query_top_k_early(&self, text: &str, k: usize) -> CutoffResult {
        let terms = self.query_terms(text);
        let mut acc = self.index.accumulator(None);
        // Max score any document can still gain from fragment i onward.
        let avg_dl = self.index.avg_doc_len().max(1.0);
        let mut remaining_gain = vec![0.0f64; self.fragments.len() + 1];
        for i in (0..self.fragments.len()).rev() {
            let mut gain = 0.0;
            for &(_, fragment, idf) in &terms {
                if fragment == i {
                    // tf upper bound × idf; length norm ≤ avg/min_dl is
                    // conservatively ignored for TfIdf (norm = 1) and
                    // bounded by avg_dl for Hiemstra.
                    gain += acc.scorer().score(self.fragments[i].max_tf, idf, avg_dl);
                }
            }
            remaining_gain[i] = remaining_gain[i + 1] + gain;
        }

        let mut used = 0usize;
        for (i, &gain) in remaining_gain[..self.fragments.len()].iter().enumerate() {
            // Termination check: can anything outside the current top-k
            // still reach it?
            if i > 0 {
                let mut sorted: Vec<f64> = acc.scores().collect();
                sorted.sort_by(|a, b| b.total_cmp(a));
                if sorted.len() >= k {
                    let kth = sorted[k - 1];
                    let best_below = sorted.get(k).copied().unwrap_or(0.0);
                    if kth >= best_below + gain && kth >= gain {
                        break;
                    }
                }
            }
            used = i + 1;
            for &(ord, fragment, _) in &terms {
                if fragment == i {
                    acc.add_term(ord);
                }
            }
        }

        let work = acc.work;
        CutoffResult {
            hits: acc.top_k(k),
            quality: 1.0,
            fragments_used: used,
            work,
        }
    }

    /// Evaluates `text` over at most `max_fragments` fragments
    /// (processed in descending-idf order) and returns the top `k`,
    /// ranked with the same score-then-url order [`TextIndex::query`]
    /// uses.
    pub fn query_with_cutoff(
        &self,
        text: &str,
        k: usize,
        max_fragments: usize,
    ) -> CutoffResult {
        let terms = self.query_terms(text);
        let budget = max_fragments.min(self.fragments.len());

        // Total idf mass of the query across ALL fragments (denominator
        // of the quality estimate).
        let mut total_mass = 0.0;
        let mut evaluated_mass = 0.0;
        let mut acc = self.index.accumulator(None);
        for i in 0..self.fragments.len() {
            for &(ord, fragment, idf) in &terms {
                if fragment == i {
                    total_mass += idf;
                    if i < budget {
                        evaluated_mass += idf;
                        acc.add_term(ord);
                    }
                }
            }
        }

        let work = acc.work;
        CutoffResult {
            hits: acc.top_k(k),
            quality: if total_mass > 0.0 {
                evaluated_mass / total_mass
            } else {
                1.0
            },
            fragments_used: budget,
            work,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ScoreModel;

    /// A corpus with a deliberate idf skew: one rare term, one medium,
    /// one that appears everywhere.
    fn skewed_index(docs: usize) -> TextIndex {
        let mut idx = TextIndex::new(ScoreModel::TfIdf);
        for i in 0..docs {
            // Unique per-document terms give the vocabulary a realistic
            // long tail of df=1 terms.
            let mut body = format!("common common tennis event{i} report{i}");
            if i % 10 == 0 {
                body.push_str(" medium");
            }
            if i == 7 {
                body.push_str(" rareword");
            }
            idx.index_document(&format!("d{i}.html"), &body).unwrap();
        }
        idx.commit().unwrap();
        idx
    }

    #[test]
    fn fragments_are_ordered_by_descending_idf() {
        let idx = skewed_index(100);
        let f = FragmentedIndex::build(&idx, 4).unwrap();
        let profile = f.fragment_profile();
        assert!(
            (2..=4).contains(&profile.len()),
            "fragment count {}",
            profile.len()
        );
        for w in profile.windows(2) {
            assert!(
                w[0].2 >= w[1].1 - 1e-12,
                "min idf of earlier fragment below max idf of later: {profile:?}"
            );
        }
    }

    #[test]
    fn low_idf_fragments_carry_most_tuples() {
        let idx = skewed_index(100);
        let f = FragmentedIndex::build(&idx, 4).unwrap();
        let profile = f.fragment_profile();
        // The last fragment (lowest idf) should not be smaller than the
        // first (highest idf, rare terms).
        assert!(profile.last().unwrap().0 >= profile.first().unwrap().0);
    }

    #[test]
    fn full_budget_equals_unfragmented_ranking() {
        let idx = skewed_index(60);
        let (exact, _) = idx.query("rareword medium common", 10);
        let f = FragmentedIndex::build(&idx, 4).unwrap();
        let cut = f.query_with_cutoff("rareword medium common", 10, 4);
        assert_eq!(cut.quality, 1.0);
        let exact_docs: Vec<_> = exact.iter().map(|h| h.doc).collect();
        let cut_docs: Vec<_> = cut.hits.iter().map(|h| h.doc).collect();
        assert_eq!(exact_docs, cut_docs);
    }

    #[test]
    fn cutoff_reduces_work_with_bounded_quality_loss() {
        let idx = skewed_index(200);
        let f = FragmentedIndex::build(&idx, 8).unwrap();
        let full = f.query_with_cutoff("rareword medium common", 10, 8);
        let cut = f.query_with_cutoff("rareword medium common", 10, 2);
        assert!(cut.work.tuples < full.work.tuples, "cutoff must save work");
        assert!(cut.quality < 1.0);
        assert!(cut.quality > 0.0);
        // The rare, high-idf term is in an early fragment, so the top
        // document (the only one with "rareword") survives the cutoff.
        assert_eq!(cut.hits[0].doc, full.hits[0].doc);
    }

    #[test]
    fn early_termination_returns_the_exact_top_k_set() {
        let idx = skewed_index(300);
        let (exact, _) = idx.query("rareword medium common", 10);
        let f = FragmentedIndex::build(&idx, 8).unwrap();
        let early = f.query_top_k_early("rareword medium common", 10);
        assert_eq!(early.quality, 1.0);
        // Membership is exact (internal order may differ: members'
        // residual gains in skipped fragments are not applied).
        let exact_set: std::collections::HashSet<_> =
            exact.iter().map(|h| h.doc).collect();
        let early_set: std::collections::HashSet<_> =
            early.hits.iter().map(|h| h.doc).collect();
        assert_eq!(exact_set, early_set);
    }

    #[test]
    fn early_termination_saves_work_on_skewed_queries() {
        let idx = skewed_index(500);
        let f = FragmentedIndex::build(&idx, 16).unwrap();
        let full = f.query_with_cutoff("rareword common", 1, 16);
        let early = f.query_top_k_early("rareword common", 1);
        // The single "rareword" document dominates; the common tail
        // cannot catch up, so evaluation brakes before the last
        // fragments.
        assert!(
            early.fragments_used < 16,
            "used {} fragments",
            early.fragments_used
        );
        assert!(early.work.tuples <= full.work.tuples);
        assert_eq!(early.hits[0].doc, full.hits[0].doc);
    }

    #[test]
    fn zero_fragments_is_a_config_error() {
        let idx = skewed_index(10);
        assert!(FragmentedIndex::build(&idx, 0).is_err());
    }

    #[test]
    fn quality_is_one_for_vocabulary_misses() {
        let idx = skewed_index(10);
        let f = FragmentedIndex::build(&idx, 2).unwrap();
        let r = f.query_with_cutoff("zzzmissing", 5, 1);
        assert!(r.hits.is_empty());
        assert_eq!(r.quality, 1.0);
    }
}
