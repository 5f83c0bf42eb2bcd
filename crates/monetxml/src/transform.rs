//! The Monet transform `Mt(d)` and its inverse.
//!
//! Definition 1 in the paper maps a document to three families of binary
//! relations: `E` (parent→child edges, named `R(path/label)`), `A`
//! (attribute values, named `R(path[name])`) and `T` (sibling ranks,
//! named `R(path[rank])`). Character data becomes a `PCDATA` child node
//! whose text is the special attribute `cdata` — giving relations like
//! `R(image/date/PCDATA[cdata])`.
//!
//! Two auxiliary relations implement the paper's object-oriented
//! perspective ("DOM-like traversals"): [`SYS_RELATION`] registers every
//! document root (`insert(sys, ⟨o1, image⟩)` in the paper's example) and
//! [`PARENT_RELATION`] maps child→parent so upward navigation is indexed.
//! The paper explicitly allows such hooks: "for specific query types …
//! specific accelerators can be hooked in".
//!
//! [`Loader`] is the event-driven core shared by the SAX bulkloader and
//! the document-tree walker: it keeps only a stack of open elements (one
//! entry per ancestor), which is what bounds memory by document *height*
//! rather than document *size*.

use monet::{ColumnKind, Db, Oid, Value};

use crate::doc::{Document, NodeId, NodeKind};
use crate::error::{Error, Result};
use crate::summary::{PathSummary, SumId};

/// Relation registering document roots: `oid × str` (root oid → root tag).
pub const SYS_RELATION: &str = "sys";
/// Relation mapping root oid → source name (URL) of the document.
pub const SOURCE_RELATION: &str = "sys[source]";
/// Accelerator: child oid → parent oid.
pub const PARENT_RELATION: &str = "#parent";
/// The attribute name under which cdata text is stored.
pub const CDATA_ATTR: &str = "cdata";
/// The path label of cdata nodes (Figure 12 uses `PCDATA`).
pub const PCDATA_LABEL: &str = "PCDATA";

/// Statistics of one load, reported so the experiments can verify the
/// paper's resource claims.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Nodes (elements + cdata) inserted.
    pub nodes: usize,
    /// Attributes inserted (excluding rank/cdata bookkeeping).
    pub attrs: usize,
    /// Maximum open-element stack depth — the loader's live state, which
    /// the paper bounds by O(height of document).
    pub max_depth: usize,
    /// Relations created because a path was seen for the first time.
    pub new_relations: usize,
}

struct Frame {
    sum: SumId,
    oid: Oid,
    /// Rank to assign to the next child.
    next_rank: i64,
}

/// Event-driven loader implementing the Monet transform.
///
/// Feed it `start_element` / `characters` / `end_element` in document
/// order (exactly the SAX protocol); it maintains the schema-tree cursor
/// and writes associations straight into the database.
pub struct Loader<'a> {
    db: &'a mut Db,
    summary: &'a mut PathSummary,
    stack: Vec<Frame>,
    root_oid: Option<Oid>,
    source: String,
    stats: LoadStats,
}

impl<'a> Loader<'a> {
    /// Starts a load of one document from `source` into `db`.
    pub fn new(db: &'a mut Db, summary: &'a mut PathSummary, source: &str) -> Self {
        Loader {
            db,
            summary,
            stack: Vec::new(),
            root_oid: None,
            source: source.to_owned(),
            stats: LoadStats::default(),
        }
    }

    /// Handles a start tag with its attributes.
    pub fn start_element(&mut self, tag: &str, attrs: &[(&str, String)]) -> Result<()> {
        let parent_sum = self
            .stack
            .last()
            .map(|f| f.sum)
            .unwrap_or_else(|| self.summary.root());
        let (sum, fresh) = self.summary.ensure_child(parent_sum, tag);
        if fresh {
            self.stats.new_relations += 1;
        }
        let oid = self.db.mint();
        let relation = self.summary.relation(sum).to_owned();

        if let Some(parent) = self.stack.last_mut() {
            let rank = parent.next_rank;
            parent.next_rank += 1;
            let parent_oid = parent.oid;
            self.db
                .get_or_create(&relation, ColumnKind::Oid)?
                .append_oid(parent_oid, oid)?;
            self.append_rank(sum, oid, rank)?;
            self.db
                .get_or_create(PARENT_RELATION, ColumnKind::Oid)?
                .append_oid(oid, parent_oid)?;
        } else {
            // Root element: register in sys, as in the paper's example
            // `insert(sys, ⟨o1, image⟩)`.
            if self.root_oid.is_some() {
                return Err(Error::Store("loader fed multiple roots".into()));
            }
            self.root_oid = Some(oid);
            self.db
                .get_or_create(SYS_RELATION, ColumnKind::Str)?
                .append_str(oid, tag)?;
            self.db
                .get_or_create(SOURCE_RELATION, ColumnKind::Str)?
                .append_str(oid, self.source.clone())?;
            self.append_rank(sum, oid, 1)?;
        }

        for (name, value) in attrs {
            let (attr_rel, fresh) = self.summary.ensure_attr(sum, name);
            if fresh {
                self.stats.new_relations += 1;
            }
            self.db
                .get_or_create(&attr_rel, ColumnKind::Str)?
                .append_str(oid, value.clone())?;
            self.stats.attrs += 1;
        }

        self.stack.push(Frame {
            sum,
            oid,
            next_rank: 1,
        });
        self.stats.nodes += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.stack.len());
        Ok(())
    }

    /// Handles a character-data run: a `PCDATA` child with the text in
    /// its `cdata` attribute.
    pub fn characters(&mut self, text: &str) -> Result<()> {
        let parent = self
            .stack
            .last_mut()
            .ok_or_else(|| Error::Store("characters outside any element".into()))?;
        let rank = parent.next_rank;
        parent.next_rank += 1;
        let (parent_sum, parent_oid) = (parent.sum, parent.oid);

        let (sum, fresh_edge) = self.summary.ensure_child(parent_sum, PCDATA_LABEL);
        let (cdata_rel, fresh_cdata) = self.summary.ensure_attr(sum, CDATA_ATTR);
        self.stats.new_relations += usize::from(fresh_edge) + usize::from(fresh_cdata);

        let oid = self.db.mint();
        let relation = self.summary.relation(sum).to_owned();
        self.db
            .get_or_create(&relation, ColumnKind::Oid)?
            .append_oid(parent_oid, oid)?;
        self.append_rank(sum, oid, rank)?;
        self.db
            .get_or_create(PARENT_RELATION, ColumnKind::Oid)?
            .append_oid(oid, parent_oid)?;
        self.db
            .get_or_create(&cdata_rel, ColumnKind::Str)?
            .append_str(oid, text)?;
        self.stats.nodes += 1;
        Ok(())
    }

    /// Handles an end tag.
    pub fn end_element(&mut self) -> Result<()> {
        self.stack
            .pop()
            .ok_or_else(|| Error::Store("unbalanced end element".into()))?;
        Ok(())
    }

    fn append_rank(&mut self, sum: SumId, oid: Oid, rank: i64) -> Result<()> {
        let (rank_rel, fresh) = self.summary.ensure_attr(sum, "rank");
        if fresh {
            self.stats.new_relations += 1;
        }
        self.db
            .get_or_create(&rank_rel, ColumnKind::Int)?
            .append_int(oid, rank)?;
        Ok(())
    }

    /// Finishes the load, returning the root oid and statistics.
    pub fn finish(self) -> Result<(Oid, LoadStats)> {
        if !self.stack.is_empty() {
            return Err(Error::Store("loader finished with open elements".into()));
        }
        let root = self
            .root_oid
            .ok_or_else(|| Error::Store("loader saw no root element".into()))?;
        Ok((root, self.stats))
    }
}

/// Walks an in-memory [`Document`] through a [`Loader`] — the DOM-side
/// entry point used when upper levels hand over already-built trees.
pub fn load_document(
    db: &mut Db,
    summary: &mut PathSummary,
    source: &str,
    doc: &Document,
) -> Result<(Oid, LoadStats)> {
    let mut loader = Loader::new(db, summary, source);
    walk(&mut loader, doc, doc.root())?;
    loader.finish()
}

fn walk(loader: &mut Loader<'_>, doc: &Document, node: NodeId) -> Result<()> {
    match doc.kind(node) {
        NodeKind::Cdata(text) => loader.characters(text),
        NodeKind::Element(tag) => {
            let attrs: Vec<(&str, String)> = doc
                .attrs(node)
                .iter()
                .map(|(n, v)| (n.as_str(), v.clone()))
                .collect();
            loader.start_element(tag, &attrs)?;
            for child in doc.children(node) {
                walk(loader, doc, *child)?;
            }
            loader.end_element()
        }
    }
}

/// Reconstructs the document rooted at `root` — the inverse mapping
/// `M⁻¹ₜ`; the result is isomorphic to the originally loaded document.
pub fn reconstruct(db: &Db, summary: &PathSummary, root: Oid) -> Result<Document> {
    let root_tag = db
        .get(SYS_RELATION)?
        .first_tail_of(root)
        .and_then(|v| v.as_str().map(str::to_owned))
        .ok_or_else(|| Error::Store(format!("oid {root} is not a document root")))?;
    let sum = summary
        .child(summary.root(), &root_tag)
        .ok_or_else(|| Error::Store(format!("no schema node for root tag {root_tag}")))?;

    let mut doc = Document::new(root_tag);
    let doc_root = doc.root();
    fill_attrs(db, summary, sum, root, &mut doc, doc_root);
    fill_children(db, summary, sum, root, &mut doc, doc_root)?;
    Ok(doc)
}

fn fill_attrs(
    db: &Db,
    summary: &PathSummary,
    sum: SumId,
    oid: Oid,
    doc: &mut Document,
    node: NodeId,
) {
    for name in summary.attr_names(sum) {
        if name == "rank" || name == CDATA_ATTR {
            continue;
        }
        let rel = summary
            .attr_relation(sum, name)
            .expect("name from attr_names");
        if let Ok(bat) = db.get(rel) {
            if let Some(Value::Str(v)) = bat.first_tail_of(oid) {
                doc.set_attr(node, name, v);
            }
        }
    }
}

fn fill_children(
    db: &Db,
    summary: &PathSummary,
    sum: SumId,
    oid: Oid,
    doc: &mut Document,
    node: NodeId,
) -> Result<()> {
    // Gather children across all child path relations, with their ranks,
    // then rebuild sibling order by sorting on rank.
    let mut kids: Vec<(i64, SumId, Oid)> = Vec::new();
    for child_sum in summary.children(sum) {
        let rel = summary.relation(child_sum);
        let Ok(bat) = db.get(rel) else { continue };
        let child_oids: Vec<Oid> = bat
            .tails_of(oid)
            .into_iter()
            .filter_map(|v| v.as_oid())
            .collect();
        if child_oids.is_empty() {
            continue;
        }
        let rank_rel = summary
            .attr_relation(child_sum, "rank")
            .ok_or_else(|| Error::Store(format!("missing rank relation for {rel}")))?;
        let ranks = db.get(rank_rel)?;
        for child in child_oids {
            let rank = ranks
                .first_tail_of(child)
                .and_then(|v| v.as_int())
                .ok_or_else(|| Error::Store(format!("missing rank for {child}")))?;
            kids.push((rank, child_sum, child));
        }
    }
    kids.sort_unstable_by_key(|(rank, _, _)| *rank);

    for (_, child_sum, child_oid) in kids {
        if summary.label(child_sum) == PCDATA_LABEL {
            let cdata_rel = summary
                .attr_relation(child_sum, CDATA_ATTR)
                .ok_or_else(|| Error::Store("PCDATA node without cdata relation".into()))?;
            let text = db
                .get(cdata_rel)?
                .first_tail_of(child_oid)
                .and_then(|v| v.as_str().map(str::to_owned))
                .ok_or_else(|| Error::Store(format!("missing cdata for {child_oid}")))?;
            doc.add_cdata(node, text);
        } else {
            let child_node = doc.add_element(node, summary.label(child_sum));
            fill_attrs(db, summary, child_sum, child_oid, doc, child_node);
            fill_children(db, summary, child_sum, child_oid, doc, child_node)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::figure9;

    #[test]
    fn figure9_load_creates_paper_relations() {
        let mut db = Db::new();
        let mut summary = PathSummary::new();
        let doc = figure9();
        let (root, stats) = load_document(&mut db, &mut summary, "seles.xml", &doc).unwrap();
        assert_eq!(stats.nodes, 10);
        assert_eq!(stats.attrs, 2);
        assert_eq!(stats.max_depth, 3); // image/colors/histogram (cdata is not a frame)
        // Naive-example relations from the paper exist:
        assert!(db.contains("sys"));
        assert!(db.contains("image[key]"));
        assert!(db.contains("image[source]"));
        assert!(db.contains("image/date"));
        assert!(db.contains("image/date/PCDATA"));
        assert!(db.contains("image/colors/histogram"));
        // And sys registered the root.
        assert_eq!(
            db.get_mut("sys").unwrap().first_tail_of(root),
            Some(Value::Str("image".into()))
        );

        // The SAX loader on generated documents 80× apart in size: its
        // live frames follow the height (root + levels + leaf) only.
        for (depth, nodes) in [(4, 283), (8, 22_963)] {
            let xml = nested_doc(depth, 3);
            let mut store = crate::XmlStore::new();
            store.bulkload_str("nested.xml", &xml).unwrap();
            let stats = store.last_stats();
            assert_eq!(stats.nodes, nodes);
            assert_eq!(stats.max_depth, depth + 2, "depth {depth}");
        }
    }

    /// `<root>` over `depth` levels of `width` children each, every
    /// path ending in `<leaf>x</leaf>`.
    fn nested_doc(depth: usize, width: usize) -> String {
        fn level(out: &mut String, depth: usize, width: usize) {
            if depth == 0 {
                out.push_str("<leaf>x</leaf>");
                return;
            }
            for i in 0..width {
                out.push_str(&format!("<n{i}>"));
                level(out, depth - 1, width);
                out.push_str(&format!("</n{i}>"));
            }
        }
        let mut out = String::from("<root>");
        level(&mut out, depth, width);
        out.push_str("</root>");
        out
    }

    #[test]
    fn reconstruct_is_inverse_of_load() {
        let mut db = Db::new();
        let mut summary = PathSummary::new();
        let doc = figure9();
        let (root, _) = load_document(&mut db, &mut summary, "seles.xml", &doc).unwrap();
        let back = reconstruct(&db, &summary, root).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn two_documents_share_relations() {
        let mut db = Db::new();
        let mut summary = PathSummary::new();
        let (r1, s1) = load_document(&mut db, &mut summary, "a.xml", &figure9()).unwrap();
        let (r2, s2) = load_document(&mut db, &mut summary, "b.xml", &figure9()).unwrap();
        assert_ne!(r1, r2);
        assert!(s1.new_relations > 0);
        assert_eq!(s2.new_relations, 0, "same paths, no new relations");
        // Both reconstruct independently.
        assert_eq!(reconstruct(&db, &summary, r1).unwrap(), figure9());
        assert_eq!(reconstruct(&db, &summary, r2).unwrap(), figure9());
    }

    #[test]
    fn reconstruct_unknown_oid_errors() {
        let mut db = Db::new();
        let mut summary = PathSummary::new();
        load_document(&mut db, &mut summary, "a.xml", &figure9()).unwrap();
        let bogus = Oid::from_raw(9999);
        assert!(reconstruct(&db, &summary, bogus).is_err());
    }

    #[test]
    fn sibling_order_with_repeated_tags_survives() {
        let mut doc = Document::new("list");
        let root = doc.root();
        for i in 0..5 {
            let item = doc.add_element(root, "item");
            doc.add_cdata(item, format!("v{i}"));
        }
        let mut db = Db::new();
        let mut summary = PathSummary::new();
        let (r, _) = load_document(&mut db, &mut summary, "l.xml", &doc).unwrap();
        assert_eq!(reconstruct(&db, &summary, r).unwrap(), doc);
    }

    #[test]
    fn mixed_content_order_survives() {
        let mut doc = Document::new("p");
        let root = doc.root();
        doc.add_cdata(root, "before");
        doc.add_element(root, "b");
        doc.add_cdata(root, "after");
        let mut db = Db::new();
        let mut summary = PathSummary::new();
        let (r, _) = load_document(&mut db, &mut summary, "m.xml", &doc).unwrap();
        assert_eq!(reconstruct(&db, &summary, r).unwrap(), doc);
    }
}
