//! The meta-index: stored parse trees.
//!
//! "By storing this meta-data the retrieval process can be enriched with
//! content-based facilities. … As both conceptual data and meta-data are
//! stored in the same DBMS, we will … refer to the DBMS as index or
//! meta-index." Parse trees are dumped as XML documents and stored
//! through the Monet XML mapping, keyed by the source location of the
//! analysed multimedia object.

use monetxml::XmlStore;

use crate::error::{Error, Result};
use crate::token::Token;
use crate::tree::ParseTree;

/// Stored parse trees, one per analysed object.
#[derive(Default)]
pub struct MetaIndex {
    store: XmlStore,
    /// The minimum token set each object was parsed from (needed to
    /// re-parse during maintenance).
    initial: std::collections::HashMap<String, Vec<Token>>,
    /// Insertion order of sources, for deterministic iteration.
    order: Vec<String>,
}

impl MetaIndex {
    /// An empty meta-index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying XML store (for integrated querying).
    pub fn store(&self) -> &XmlStore {
        &self.store
    }

    /// Mutable access to the underlying XML store.
    pub fn store_mut(&mut self) -> &mut XmlStore {
        &mut self.store
    }

    /// Rebuilds a meta-index around a restored store. Sources come from
    /// the store's document registry (insertion order); the minimum
    /// token set of each — which the store does not record — is
    /// re-derived by `initial_for`, matching whatever convention the
    /// caller used when inserting.
    pub fn from_store(
        store: XmlStore,
        mut initial_for: impl FnMut(&str) -> Vec<Token>,
    ) -> Self {
        let mut order = Vec::new();
        let mut initial = std::collections::HashMap::new();
        for root in store.roots().to_vec() {
            if let Some(source) = store.source_of(root) {
                initial.insert(source.clone(), initial_for(&source));
                order.push(source);
            }
        }
        MetaIndex { store, initial, order }
    }

    /// Inserts (or replaces) the parse tree of `source`, remembering the
    /// initial tokens it was parsed from.
    pub fn insert(
        &mut self,
        source: &str,
        initial: Vec<Token>,
        tree: &ParseTree,
    ) -> Result<monet::Oid> {
        if let Some(old) = self.store.root_for_source(source) {
            self.store.delete_document(old)?;
        } else {
            self.order.push(source.to_owned());
        }
        let doc = tree.to_document()?;
        let root = self.store.insert_document(source, &doc)?;
        self.initial.insert(source.to_owned(), initial);
        Ok(root)
    }

    /// Loads the stored parse tree of `source`.
    pub fn tree(&self, grammar: &feagram::Grammar, source: &str) -> Result<ParseTree> {
        let root = self
            .store
            .root_for_source(source)
            .ok_or_else(|| Error::Grammar(format!("no stored tree for `{source}`")))?;
        let doc = self.store.reconstruct(root)?;
        ParseTree::from_document(grammar, &doc)
    }

    /// The initial tokens `source` was parsed from.
    pub fn initial_tokens(&self, source: &str) -> Option<&[Token]> {
        self.initial.get(source).map(Vec::as_slice)
    }

    /// All indexed sources, in insertion order.
    pub fn sources(&self) -> &[String] {
        &self.order
    }

    /// Whether `source` is indexed.
    pub fn contains(&self, source: &str) -> bool {
        self.initial.contains_key(source)
    }

    /// Removes the stored tree of `source`.
    pub fn remove(&mut self, source: &str) -> Result<()> {
        if let Some(root) = self.store.root_for_source(source) {
            self.store.delete_document(root)?;
        }
        self.initial.remove(source);
        self.order.retain(|s| s != source);
        Ok(())
    }

    /// Rejected-with-cause node counts per symbol across all stored
    /// trees — the per-detector heal backlog. Reads only the `rejected`
    /// attribute relations (no tree reconstruction), so it stays cheap
    /// at metrics-scrape time and is correct straight after a recovery
    /// from snapshot.
    pub fn heal_backlog(&self) -> std::collections::BTreeMap<String, usize> {
        self.store.rejected_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::PNodeKind;
    use feagram::FeatureValue;

    fn sample_tree() -> ParseTree {
        let mut t = ParseTree::new();
        let root = t.add(None, "MMO", PNodeKind::Variable);
        let loc = t.add(Some(root), "location", PNodeKind::Terminal);
        t.set_value(loc, FeatureValue::url("http://x/v.mpg"));
        t
    }

    #[test]
    fn insert_load_round_trip() {
        let g = feagram::parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let mut idx = MetaIndex::new();
        let tree = sample_tree();
        idx.insert(
            "http://x/v.mpg",
            vec![Token::new("location", FeatureValue::url("http://x/v.mpg"))],
            &tree,
        )
        .unwrap();
        assert!(idx.contains("http://x/v.mpg"));
        let back = idx.tree(&g, "http://x/v.mpg").unwrap();
        assert_eq!(back.len(), tree.len());
        assert_eq!(idx.initial_tokens("http://x/v.mpg").unwrap().len(), 1);
    }

    #[test]
    fn reinsert_replaces_previous_tree() {
        let g = feagram::parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let mut idx = MetaIndex::new();
        idx.insert("s", vec![], &sample_tree()).unwrap();
        let mut bigger = sample_tree();
        let root = bigger.root().unwrap();
        bigger.add(Some(root), "header", PNodeKind::Detector);
        idx.insert("s", vec![], &bigger).unwrap();
        assert_eq!(idx.sources().len(), 1);
        assert_eq!(idx.tree(&g, "s").unwrap().len(), 3);
    }

    #[test]
    fn remove_forgets_everything() {
        let g = feagram::parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let mut idx = MetaIndex::new();
        idx.insert("s", vec![], &sample_tree()).unwrap();
        idx.remove("s").unwrap();
        assert!(!idx.contains("s"));
        assert!(idx.tree(&g, "s").is_err());
        assert!(idx.sources().is_empty());
    }

    #[test]
    fn heal_backlog_counts_rejected_nodes_and_survives_restore() {
        let mut idx = MetaIndex::new();
        let mut t = sample_tree();
        let root = t.root().unwrap();
        let seg = t.add(Some(root), "segment", PNodeKind::Detector);
        t.set_rejected(seg, "rpc down");
        idx.insert("s", vec![], &t).unwrap();
        assert_eq!(idx.heal_backlog().get("segment"), Some(&1));
        // The backlog is derived from the attribute relations, so it is
        // correct on a restored snapshot without any replay bookkeeping.
        let bytes = idx.store().snapshot().unwrap();
        let restored = MetaIndex::from_store(XmlStore::restore(&bytes).unwrap(), |_| vec![]);
        assert_eq!(restored.heal_backlog().get("segment"), Some(&1));
        // Replacing with a healed tree drains it.
        idx.insert("s", vec![], &sample_tree()).unwrap();
        assert!(idx.heal_backlog().is_empty());
    }

}
