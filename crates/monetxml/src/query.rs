//! Path-expression evaluation over the store.
//!
//! "The main rationale for the path-centric storage of documents is to
//! evaluate the ubiquitous XML path expressions efficiently": because a
//! relation holds *all* nodes with the same ancestry, evaluating
//! `image/colors/histogram` is a single scan of one relation — no
//! per-level joins. The functions here expose that, plus upward
//! navigation through the parent accelerator. All of them read through
//! `&XmlStore`.
//!
//! Path evaluation is on the serving path: the engine answers a media
//! predicate (`MEDIA video HAS netplay`) by walking a [`Descent`] — a
//! path whose per-step relations are resolved once per request — down
//! from each candidate's document root, reading the few values it needs
//! instead of reconstructing the stored parse tree.
//!
//! The module's tests also hold the **edge-table baseline**: documents
//! stored as one generic edge/label heap, evaluated node-at-a-time. The
//! paper argues its path-centric clustering beats this ("a significantly
//! higher degree of semantic clustering than implied by plain data
//! guides"); experiment E2 compares the two.

use faults::Budget;
use monet::{Bat, Oid, Value};

use crate::error::{Error, Result};
use crate::path::Path;
use crate::store::XmlStore;
use crate::summary::SumId;
use crate::transform::{CDATA_ATTR, PARENT_RELATION, PCDATA_LABEL, SYS_RELATION};

/// All node oids at element path `path` — a single relation scan.
pub fn nodes_at(store: &XmlStore, path: &Path) -> Result<Vec<Oid>> {
    nodes_at_budgeted(store, path, &faults::Budget::unlimited())
}

/// [`nodes_at`] under a caller budget: the relation scan pays one work
/// unit per tuple, so even the physical level cancels cooperatively
/// with a typed [`Error::DeadlineExceeded`].
pub fn nodes_at_budgeted(
    store: &XmlStore,
    path: &Path,
    budget: &faults::Budget,
) -> Result<Vec<Oid>> {
    if path.is_attr() {
        return Err(Error::Store(format!(
            "nodes_at expects an element path, got {path}"
        )));
    }
    if let Some(m) = store.metrics() {
        m.path_scans.inc();
    }
    if path.len() == 1 {
        // Root paths live in `sys`.
        let label = path.steps()[0].label().to_owned();
        return match store.db().get(SYS_RELATION) {
            Ok(bat) => {
                let out = bat
                    .select_str_eq_budgeted(&label, budget)
                    .map_err(|cause| Error::DeadlineExceeded { nodes: 0, cause })?;
                if let Some(m) = store.metrics() {
                    m.scan_rows.add(out.len() as u64);
                }
                Ok(out)
            }
            Err(_) => Ok(Vec::new()),
        };
    }
    let rel = path.to_string();
    match store.db().get(&rel) {
        Ok(bat) => {
            let mut out = Vec::new();
            for (_, v) in bat.iter() {
                budget.consume(1).map_err(|cause| Error::DeadlineExceeded {
                    nodes: out.len(),
                    cause,
                })?;
                if let Some(oid) = v.as_oid() {
                    out.push(oid);
                }
            }
            if let Some(m) = store.metrics() {
                m.scan_rows.add(out.len() as u64);
            }
            Ok(out)
        }
        Err(_) => Ok(Vec::new()),
    }
}

/// `(node, value)` pairs for attribute `name` on nodes at element path
/// `path`.
pub fn attr_values(store: &XmlStore, path: &Path, name: &str) -> Result<Vec<(Oid, String)>> {
    let rel = path.attr(name).to_string();
    match store.db().get(&rel) {
        Ok(bat) => Ok(bat
            .iter()
            .filter_map(|(h, v)| v.as_str().map(|s| (h, s.to_owned())))
            .collect()),
        Err(_) => Ok(Vec::new()),
    }
}

/// `(element, text)` pairs: the direct text content of every node at
/// element path `path` (concatenating multiple PCDATA children).
pub fn text_values(store: &XmlStore, path: &Path) -> Result<Vec<(Oid, String)>> {
    text_values_budgeted(store, path, &faults::Budget::unlimited())
}

/// [`text_values`] under a caller budget: the node scan is budgeted and
/// every text fetch pays one further work unit.
pub fn text_values_budgeted(
    store: &XmlStore,
    path: &Path,
    budget: &faults::Budget,
) -> Result<Vec<(Oid, String)>> {
    let Some(sum) = store.summary().resolve(path) else {
        return Ok(Vec::new());
    };
    let nodes = nodes_at_budgeted(store, path, budget)?;
    let mut out = Vec::with_capacity(nodes.len());
    for n in nodes {
        budget.consume(1).map_err(|cause| Error::DeadlineExceeded {
            nodes: out.len(),
            cause,
        })?;
        let text = store.direct_text(sum, n)?;
        if !text.is_empty() {
            out.push((n, text));
        }
    }
    Ok(out)
}

/// The attribute value of `name` on a specific node at `path`.
pub fn attr_of(store: &XmlStore, path: &Path, node: Oid, name: &str) -> Option<String> {
    let rel = path.attr(name).to_string();
    store
        .db()
        .get(&rel)
        .ok()?
        .first_tail_of(node)
        .and_then(|v| v.as_str().map(str::to_owned))
}

/// Child oids of `node` (at element path `path`) reached via child label
/// `label`, in storage order.
pub fn children_of(store: &XmlStore, path: &Path, node: Oid, label: &str) -> Vec<Oid> {
    let rel = path.child(label).to_string();
    match store.db().get(&rel) {
        Ok(bat) => bat
            .tails_of(node)
            .into_iter()
            .filter_map(|v| v.as_oid())
            .collect(),
        Err(_) => Vec::new(),
    }
}

/// Walks the parent accelerator up to the document root.
pub fn root_of(store: &XmlStore, node: Oid) -> Result<Oid> {
    let mut cur = node;
    for _ in 0..64 {
        let parent = store
            .db()
            .get(PARENT_RELATION)
            .ok()
            .and_then(|bat| bat.first_tail_of(cur))
            .and_then(|v| v.as_oid());
        match parent {
            Some(p) => cur = p,
            None => return Ok(cur),
        }
    }
    Err(Error::Store(format!(
        "parent chain from {node} exceeds depth 64 (cycle?)"
    )))
}

/// The recorded extent `(start, end)` of an element node, when the
/// document was loaded with extent recording. Extents nest exactly like
/// elements, so `contains(a, b)` ⇔ a is an ancestor of b — the basis of
/// structural joins.
pub fn extent_of(store: &XmlStore, path: &Path, node: Oid) -> Option<(i64, i64)> {
    let start_rel = path
        .attr(crate::transform::EXTENT_START_ATTR)
        .to_string();
    let end_rel = path.attr(crate::transform::EXTENT_END_ATTR).to_string();
    let start = store
        .db()
        .get(&start_rel)
        .ok()?
        .first_tail_of(node)?
        .as_int()?;
    let end = store
        .db()
        .get(&end_rel)
        .ok()?
        .first_tail_of(node)?
        .as_int()?;
    Some((start, end))
}

/// Whether extent `outer` strictly contains extent `inner`.
pub fn extent_contains(outer: (i64, i64), inner: (i64, i64)) -> bool {
    outer.0 < inner.0 && inner.1 < outer.1
}

/// An element path below a schema-tree node, with the relation of each
/// step resolved to its BAT once. Reading many documents along it costs
/// [`Bat::positions`] probes only — no relation name is formatted or
/// looked up per step — so the query path reads the few values it needs
/// of a stored document without reconstructing the document.
pub struct Descent<'a> {
    /// The parent → child relation of each step; `None` when no stored
    /// document has the path.
    edges: Option<Vec<&'a Bat>>,
    /// `(PCDATA child relation, cdata relation)` of the end of the
    /// path, when a node there ever held text.
    text: Option<(&'a Bat, &'a Bat)>,
}

/// The descent from a node at schema node `from` through the child
/// labels `labels`. From the virtual root the first label is the root
/// tag, and walks start at a document root. A path no stored document
/// has reaches no node.
pub fn descent<'a>(store: &'a XmlStore, from: SumId, labels: &[&str]) -> Descent<'a> {
    resolve(store, from, labels).unwrap_or(Descent { edges: None, text: None })
}

fn resolve<'a>(store: &'a XmlStore, from: SumId, labels: &[&str]) -> Option<Descent<'a>> {
    let (summary, db) = (store.summary(), store.db());
    let mut sum = from;
    let mut edges = Vec::with_capacity(labels.len());
    for label in labels {
        let below_root = sum != summary.root();
        sum = summary.child(sum, label)?;
        // Document roots live in `sys`, not in a path relation.
        if below_root {
            edges.push(db.get(summary.relation(sum)).ok()?);
        }
    }
    let text = summary.child(sum, PCDATA_LABEL).and_then(|pcdata| {
        let cdata = summary.attr_relation(pcdata, CDATA_ATTR)?;
        Some((db.get(summary.relation(pcdata)).ok()?, db.get(cdata).ok()?))
    });
    Some(Descent { edges: Some(edges), text })
}

impl Descent<'_> {
    /// The nodes the descent reaches from `node`, in document order,
    /// paying one budget unit per tuple read. Siblings go in oid order,
    /// which is rank order (a parent's children are minted in document
    /// order) — never in storage order, which [`Bat::delete_heads`]
    /// scrambles.
    pub fn nodes(&self, node: Oid, budget: &Budget) -> Result<Vec<Oid>> {
        let mut out = Vec::new();
        if let Some(edges) = &self.edges {
            descend(edges, node, budget, &mut out)?;
        }
        Ok(out)
    }

    /// The text of `node`, a node at the end of the descent: the `cdata`
    /// of its PCDATA children in rank order, joined by a space; `None`
    /// when it has none. One budget unit per tuple read.
    pub fn text(&self, node: Oid, budget: &Budget) -> Result<Option<String>> {
        let Some((pcdata, cdata)) = self.text else {
            return Ok(None);
        };
        let mut leaves = Vec::new();
        descend(&[pcdata], node, budget, &mut leaves)?;
        pay(budget, leaves.len(), 0)?;
        let parts: Vec<String> = leaves
            .iter()
            .filter_map(|leaf| match cdata.first_tail_of(*leaf) {
                Some(Value::Str(text)) => Some(text),
                _ => None,
            })
            .collect();
        Ok((!parts.is_empty()).then(|| parts.join(" ")))
    }
}

/// Appends to `out` the nodes `edges` reach from `node`. Only a parent
/// with several children buffers them, to sort them.
fn descend(edges: &[&Bat], node: Oid, budget: &Budget, out: &mut Vec<Oid>) -> Result<()> {
    let Some((bat, rest)) = edges.split_first() else {
        out.push(node);
        return Ok(());
    };
    let mut kids = bat.positions(node).filter_map(|p| bat.at(p as usize).1.as_oid());
    match (kids.next(), kids.next()) {
        (None, _) => Ok(()),
        (Some(only), None) => {
            pay(budget, 1, out.len())?;
            descend(rest, only, budget, out)
        }
        (Some(a), Some(b)) => {
            let mut siblings: Vec<Oid> = [a, b].into_iter().chain(kids).collect();
            pay(budget, siblings.len(), out.len())?;
            siblings.sort_unstable();
            siblings.into_iter().try_for_each(|kid| descend(rest, kid, budget, out))
        }
    }
}

fn pay(budget: &Budget, tuples: usize, nodes: usize) -> Result<()> {
    budget
        .consume(tuples as u64)
        .map_err(|cause| Error::DeadlineExceeded { nodes, cause })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{figure9, FIGURE9_XML};
    use crate::doc::{Document, NodeId, NodeKind};
    use monet::{ColumnKind, Db};

    // ---------------------------------------------------------------------
    // Edge-table baseline ("plain data guide" storage).
    // ---------------------------------------------------------------------

    /// Generic edge relation of the baseline store: parent → child.
    const EDGE_RELATION: &str = "#e_edge";
    /// Generic label relation of the baseline store: node → tag label.
    const LABEL_RELATION: &str = "#e_label";

    /// Loads `doc` into the generic edge/label heap (baseline storage mode).
    /// Returns the root oid.
    fn insert_document_edges(db: &mut Db, doc: &Document) -> Result<Oid> {
        fn walk(db: &mut Db, doc: &Document, node: NodeId, parent: Option<Oid>) -> Result<Oid> {
            let oid = db.mint();
            let label = match doc.kind(node) {
                NodeKind::Element(t) => t.clone(),
                NodeKind::Cdata(_) => "PCDATA".to_owned(),
            };
            db.get_or_create(LABEL_RELATION, ColumnKind::Str)
                .append_str(oid, label)?;
            if let Some(p) = parent {
                db.get_or_create(EDGE_RELATION, ColumnKind::Oid)
                    .append_oid(p, oid)?;
            }
            for child in doc.children(node) {
                walk(db, doc, *child, Some(oid))?;
            }
            Ok(oid)
        }
        walk(db, doc, doc.root(), None)
    }

    /// Evaluates a label path over the edge/label heap **node-at-a-time**:
    /// start from all nodes with the first label, then for every frontier
    /// node fetch its children and filter by the next label. This touches
    /// every intermediate node individually — the cost profile the paper's
    /// clustering avoids.
    fn nodes_at_edges(db: &Db, labels: &[&str]) -> Result<Vec<Oid>> {
        let Some((first, rest)) = labels.split_first() else {
            return Ok(Vec::new());
        };
        // All nodes with the first label that are roots (no parent edge).
        let candidates = db
            .get(LABEL_RELATION)
            .map(|bat| bat.select_str_eq(first))
            .unwrap_or_default();
        let mut frontier: Vec<Oid> = Vec::new();
        for c in candidates {
            let has_parent = db
                .get(EDGE_RELATION)
                .map(|bat| !bat.select_oid_eq(c).is_empty())
                .unwrap_or(false);
            if !has_parent {
                frontier.push(c);
            }
        }
        for label in rest {
            let mut next = Vec::new();
            for node in frontier {
                let children: Vec<Oid> = db
                    .get(EDGE_RELATION)
                    .map(|bat| {
                        bat.tails_of(node)
                            .into_iter()
                            .filter_map(|v| v.as_oid())
                            .collect()
                    })
                    .unwrap_or_default();
                for child in children {
                    let matches = db
                        .get(LABEL_RELATION)
                        .ok()
                        .and_then(|bat| bat.first_tail_of(child))
                        .and_then(|v| v.as_str().map(|s| s == *label))
                        .unwrap_or(false);
                    if matches {
                        next.push(child);
                    }
                }
            }
            frontier = next;
        }
        Ok(frontier)
    }

    fn loaded() -> (XmlStore, Oid) {
        let mut store = XmlStore::new();
        let root = store.bulkload_str("s.xml", FIGURE9_XML).unwrap();
        (store, root)
    }

    #[test]
    fn nodes_at_root_path_uses_sys() {
        let (store, root) = loaded();
        assert_eq!(
            nodes_at(&store, &Path::root("image")).unwrap(),
            vec![root]
        );
        assert!(nodes_at(&store, &Path::root("nothing"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn nodes_at_deep_path_is_single_scan() {
        let (store, _) = loaded();
        let hist = nodes_at(
            &store,
            &Path::root("image").child("colors").child("histogram"),
        )
        .unwrap();
        assert_eq!(hist.len(), 1);
    }

    #[test]
    fn attr_values_reads_attribute_relation() {
        let (store, root) = loaded();
        let vals = attr_values(&store, &Path::root("image"), "key").unwrap();
        assert_eq!(vals, vec![(root, "18934".to_owned())]);
    }

    #[test]
    fn text_values_concatenates_pcdata() {
        let (store, _) = loaded();
        let p = Path::root("image").child("colors").child("saturation");
        let vals = text_values(&store, &p).unwrap();
        assert_eq!(vals.len(), 1);
        assert_eq!(vals[0].1, "0.390");
    }

    #[test]
    fn root_of_walks_to_document_root() {
        let (store, root) = loaded();
        let p = Path::root("image").child("colors").child("histogram");
        let hist = nodes_at(&store, &p).unwrap()[0];
        assert_eq!(root_of(&store, hist).unwrap(), root);
        assert_eq!(root_of(&store, root).unwrap(), root);
    }

    #[test]
    fn attr_of_reads_single_node() {
        let (store, root) = loaded();
        assert_eq!(
            attr_of(&store, &Path::root("image"), root, "source"),
            Some("http://.../seles.jpg".to_owned())
        );
        assert_eq!(attr_of(&store, &Path::root("image"), root, "nope"), None);
    }

    #[test]
    fn children_of_follows_labelled_edges() {
        let (store, root) = loaded();
        let colors = children_of(&store, &Path::root("image"), root, "colors");
        assert_eq!(colors.len(), 1);
        let kids = children_of(
            &store,
            &Path::root("image").child("colors"),
            colors[0],
            "histogram",
        );
        assert_eq!(kids.len(), 1);
    }

    #[test]
    fn edge_baseline_agrees_with_path_store_on_node_counts() {
        let mut db = Db::new();
        insert_document_edges(&mut db, &figure9()).unwrap();
        insert_document_edges(&mut db, &figure9()).unwrap();
        let via_edges = nodes_at_edges(&db, &["image", "colors", "histogram"]).unwrap();

        let mut store = XmlStore::new();
        store.bulkload_str("a.xml", FIGURE9_XML).unwrap();
        store.bulkload_str("b.xml", FIGURE9_XML).unwrap();
        let via_paths = nodes_at(
            &store,
            &Path::root("image").child("colors").child("histogram"),
        )
        .unwrap();
        assert_eq!(via_edges.len(), via_paths.len());
        assert_eq!(via_edges.len(), 2);
    }

    #[test]
    fn extents_mirror_ancestry() {
        let mut store = XmlStore::new();
        let root = store
            .bulkload_str_with_extents("s.xml", FIGURE9_XML)
            .unwrap();
        let image_p = Path::root("image");
        let colors_p = image_p.child("colors");
        let hist_p = colors_p.child("histogram");
        let date_p = image_p.child("date");

        let image_ext = extent_of(&store, &image_p, root).unwrap();
        let colors = nodes_at(&store, &colors_p).unwrap()[0];
        let colors_ext = extent_of(&store, &colors_p, colors).unwrap();
        let hist = nodes_at(&store, &hist_p).unwrap()[0];
        let hist_ext = extent_of(&store, &hist_p, hist).unwrap();
        let date = nodes_at(&store, &date_p).unwrap()[0];
        let date_ext = extent_of(&store, &date_p, date).unwrap();

        // Ancestors strictly contain descendants…
        assert!(extent_contains(image_ext, colors_ext));
        assert!(extent_contains(image_ext, hist_ext));
        assert!(extent_contains(colors_ext, hist_ext));
        // …and siblings do not contain each other.
        assert!(!extent_contains(date_ext, colors_ext));
        assert!(!extent_contains(colors_ext, date_ext));
        // Extent-loaded documents still reconstruct isomorphically.
        assert_eq!(store.reconstruct(root).unwrap(), figure9());
    }

    #[test]
    fn plain_loads_record_no_extents() {
        let mut store = XmlStore::new();
        let root = store.bulkload_str("s.xml", FIGURE9_XML).unwrap();
        assert_eq!(extent_of(&store, &Path::root("image"), root), None);
    }

    #[test]
    fn budgeted_scans_are_cancellable() {
        let (store, _) = loaded();
        let p = Path::root("image").child("colors").child("saturation");
        let full = text_values(&store, &p).unwrap();
        assert_eq!(
            text_values_budgeted(&store, &p, &faults::Budget::unlimited()).unwrap(),
            full
        );
        match text_values_budgeted(&store, &p, &faults::Budget::with_work(0)) {
            Err(Error::DeadlineExceeded { cause, .. }) => {
                assert_eq!(cause, faults::BudgetExceeded::Work);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn descent_reads_siblings_in_document_order_and_is_cancellable() {
        let xml = "<a><b><c>1</c><c>2</c><c>3</c></b></a>";
        let mut store = XmlStore::new();
        let first = store.bulkload_str("first.xml", xml).unwrap();
        let root = store.bulkload_str("second.xml", xml).unwrap();
        // Deleting the first document swap-removes the second's rows
        // into reverse storage order.
        store.delete_document(first).unwrap();
        let c = descent(&store, store.summary().root(), &["a", "b", "c"]);
        let all = Budget::unlimited();
        let texts: Vec<String> = c
            .nodes(root, &all)
            .unwrap()
            .into_iter()
            .map(|n| c.text(n, &all).unwrap().unwrap())
            .collect();
        assert_eq!(texts, ["1", "2", "3"]);
        // One unit per tuple: one `b`, three `c`s.
        assert_eq!(c.nodes(root, &Budget::with_work(4)).unwrap().len(), 3);
        assert!(matches!(
            c.nodes(root, &Budget::with_work(3)),
            Err(Error::DeadlineExceeded { cause: faults::BudgetExceeded::Work, .. })
        ));
        // A path no stored document has reaches nothing.
        let none = descent(&store, store.summary().root(), &["a", "x"]);
        assert!(none.nodes(root, &all).unwrap().is_empty());
    }

    #[test]
    fn nodes_at_rejects_attribute_paths() {
        let (store, _) = loaded();
        assert!(nodes_at(&store, &Path::root("image").attr("key")).is_err());
    }
}
