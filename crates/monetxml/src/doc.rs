//! The document model.
//!
//! The paper defines an XML document as a rooted tree
//! `d = (V, E, r, labelE, labelA, rank)`: element nodes with string
//! labels, attribute name/value pairs per node, character data modelled as
//! a special attribute of dedicated *cdata* nodes, and a `rank` function
//! ordering siblings. [`Document`] is that structure in arena form: nodes
//! live in a `Vec` and refer to each other by [`NodeId`], so trees are
//! cheap to build and compare.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Index of a node within its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node is: an element with a tag label, or a cdata node carrying
/// text (the paper's "special attribute of cdata nodes").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// An element node labelled with its tag name.
    Element(String),
    /// A character-data node; the string is the text content.
    Cdata(String),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Node {
    pub(crate) kind: NodeKind,
    /// Attribute name/value pairs, in document order. Only meaningful for
    /// element nodes.
    pub(crate) attrs: Vec<(String, String)>,
    pub(crate) children: Vec<NodeId>,
    pub(crate) parent: Option<NodeId>,
}

/// A rooted, ordered, labelled XML tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Document {
    nodes: Vec<Node>,
    root: NodeId,
}

impl Document {
    /// Creates a document with a single root element.
    pub fn new(root_tag: impl Into<String>) -> Self {
        Document {
            nodes: vec![Node {
                kind: NodeKind::Element(root_tag.into()),
                attrs: Vec::new(),
                children: Vec::new(),
                parent: None,
            }],
            root: NodeId(0),
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of nodes (elements + cdata).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The kind of `id`.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.node(id).kind
    }

    /// The element tag of `id`, if it is an element.
    pub fn tag(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element(t) => Some(t),
            NodeKind::Cdata(_) => None,
        }
    }

    /// The text of `id`, if it is a cdata node.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Cdata(s) => Some(s),
            NodeKind::Element(_) => None,
        }
    }

    /// The parent of `id` (`None` for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Children of `id`, in rank order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children
    }

    /// Attributes of `id`, in document order.
    pub fn attrs(&self, id: NodeId) -> &[(String, String)] {
        &self.node(id).attrs
    }

    /// The value of attribute `name` on `id`, if present.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        self.node(id)
            .attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Appends a fresh element child under `parent` and returns its id.
    pub fn add_element(&mut self, parent: NodeId, tag: impl Into<String>) -> NodeId {
        self.push_node(
            parent,
            Node {
                kind: NodeKind::Element(tag.into()),
                attrs: Vec::new(),
                children: Vec::new(),
                parent: Some(parent),
            },
        )
    }

    /// Appends a cdata child under `parent` and returns its id.
    ///
    /// Adjacent cdata siblings are merged (DOM `normalize()` semantics):
    /// XML serialisation cannot represent two adjacent text nodes, so the
    /// model never holds them. If the last child of `parent` is already a
    /// cdata node, `text` is appended to it and that node's id returned.
    pub fn add_cdata(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        if let Some(&last) = self.node(parent).children.last() {
            if let NodeKind::Cdata(existing) = &mut self.nodes[last.index()].kind {
                existing.push_str(&text.into());
                return last;
            }
        }
        self.push_node(
            parent,
            Node {
                kind: NodeKind::Cdata(text.into()),
                attrs: Vec::new(),
                children: Vec::new(),
                parent: Some(parent),
            },
        )
    }

    fn push_node(&mut self, parent: NodeId, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Sets attribute `name` to `value` on `id` (replacing any existing
    /// value, preserving attribute order).
    pub fn set_attr(&mut self, id: NodeId, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        let node = &mut self.nodes[id.index()];
        if let Some(pair) = node.attrs.iter_mut().find(|(n, _)| *n == name) {
            pair.1 = value;
        } else {
            node.attrs.push((name, value));
        }
    }

    /// The 1-based rank of `id` among its siblings (the paper's `rank`
    /// function). The root has rank 1.
    pub fn rank(&self, id: NodeId) -> usize {
        match self.parent(id) {
            None => 1,
            Some(p) => {
                self.children(p)
                    .iter()
                    .position(|c| *c == id)
                    .expect("child listed under its parent")
                    + 1
            }
        }
    }

    /// The height of the tree (root-only tree has height 1). Governs the
    /// bulkloader's memory bound.
    pub fn height(&self) -> usize {
        fn depth(doc: &Document, id: NodeId) -> usize {
            1 + doc
                .children(id)
                .iter()
                .map(|c| depth(doc, *c))
                .max()
                .unwrap_or(0)
        }
        depth(self, self.root)
    }

    /// Concatenated text of all cdata descendants of `id`, in document
    /// order — the "body of text" view a full-text indexer sees.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        let mut stack = vec![id];
        let mut ordered = Vec::new();
        while let Some(n) = stack.pop() {
            ordered.push(n);
            for c in self.children(n).iter().rev() {
                stack.push(*c);
            }
        }
        for n in ordered {
            if let Some(t) = self.text(n) {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(t);
            }
        }
        out
    }

    /// First child element of `id` with tag `tag`.
    pub fn child_by_tag(&self, id: NodeId, tag: &str) -> Option<NodeId> {
        self.children(id)
            .iter()
            .copied()
            .find(|c| self.tag(*c) == Some(tag))
    }

    /// All child elements of `id` with tag `tag`.
    pub fn children_by_tag<'a>(
        &'a self,
        id: NodeId,
        tag: &'a str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.children(id)
            .iter()
            .copied()
            .filter(move |c| self.tag(*c) == Some(tag))
    }
}

/// Structural equality: same labels, attributes, text and sibling order —
/// "isomorphic" in the paper's sense (node identities are irrelevant).
/// Attribute *order* is insignificant, per the XML specification.
impl PartialEq for Document {
    fn eq(&self, other: &Self) -> bool {
        fn sorted_attrs(doc: &Document, n: NodeId) -> Vec<(String, String)> {
            let mut v = doc.attrs(n).to_vec();
            v.sort();
            v
        }
        fn eq_at(a: &Document, an: NodeId, b: &Document, bn: NodeId) -> bool {
            if a.kind(an) != b.kind(bn) || sorted_attrs(a, an) != sorted_attrs(b, bn) {
                return false;
            }
            let (ac, bc) = (a.children(an), b.children(bn));
            ac.len() == bc.len()
                && ac
                    .iter()
                    .zip(bc)
                    .all(|(x, y)| eq_at(a, *x, b, *y))
        }
        eq_at(self, self.root, other, other.root)
    }
}

impl Eq for Document {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::figure9;

    #[test]
    fn figure9_shape_matches_figure10_syntax_tree() {
        let d = figure9();
        let root = d.root();
        assert_eq!(d.tag(root), Some("image"));
        assert_eq!(d.attr(root, "key"), Some("18934"));
        assert_eq!(d.attr(root, "source"), Some("http://.../seles.jpg"));
        let kids: Vec<_> = d.children(root).iter().map(|c| d.tag(*c).unwrap().to_owned()).collect();
        assert_eq!(kids, vec!["date", "colors"]);
        let colors = d.child_by_tag(root, "colors").unwrap();
        let ckids: Vec<_> = d.children(colors).iter().map(|c| d.tag(*c).unwrap().to_owned()).collect();
        assert_eq!(ckids, vec!["histogram", "saturation", "version"]);
        // 1 image + 1 date + 1 cdata + 1 colors + 3 elements + 3 cdata = 10
        assert_eq!(d.node_count(), 10);
        assert_eq!(d.height(), 4); // image/colors/histogram/PCDATA
    }

    #[test]
    fn rank_orders_siblings() {
        let d = figure9();
        let root = d.root();
        let date = d.child_by_tag(root, "date").unwrap();
        let colors = d.child_by_tag(root, "colors").unwrap();
        assert_eq!(d.rank(date), 1);
        assert_eq!(d.rank(colors), 2);
        assert_eq!(d.rank(root), 1);
    }

    #[test]
    fn set_attr_replaces_in_place() {
        let mut d = Document::new("a");
        d.set_attr(d.root(), "k", "1");
        d.set_attr(d.root(), "j", "2");
        d.set_attr(d.root(), "k", "3");
        assert_eq!(
            d.attrs(d.root()),
            &[("k".to_owned(), "3".to_owned()), ("j".to_owned(), "2".to_owned())]
        );
    }

    #[test]
    fn structural_equality_ignores_build_order_of_arena() {
        // Same tree built in different arena orders compares equal.
        let a = figure9();
        let mut b = Document::new("image");
        let root = b.root();
        b.set_attr(root, "key", "18934");
        b.set_attr(root, "source", "http://.../seles.jpg");
        // Build colors subtree content later than in figure9().
        let date = b.add_element(root, "date");
        let colors = b.add_element(root, "colors");
        b.add_cdata(date, "999010530");
        let histogram = b.add_element(colors, "histogram");
        let saturation = b.add_element(colors, "saturation");
        let version = b.add_element(colors, "version");
        b.add_cdata(histogram, "0.399 0.277 0.344");
        b.add_cdata(saturation, "0.390");
        b.add_cdata(version, "0.8");
        assert_eq!(a, b);
    }

    #[test]
    fn structural_inequality_on_attr_change() {
        let a = figure9();
        let mut b = figure9();
        b.set_attr(b.root(), "key", "other");
        assert_ne!(a, b);
    }

    #[test]
    fn structural_inequality_on_extra_child() {
        let a = figure9();
        let mut b = figure9();
        b.add_element(b.root(), "extra");
        assert_ne!(a, b);
    }

    #[test]
    fn text_content_concatenates_in_document_order() {
        let d = figure9();
        assert_eq!(
            d.text_content(d.root()),
            "999010530 0.399 0.277 0.344 0.390 0.8"
        );
    }

    #[test]
    fn height_of_single_node_is_one() {
        assert_eq!(Document::new("x").height(), 1);
    }
}
