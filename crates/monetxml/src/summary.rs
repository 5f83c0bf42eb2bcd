//! The path summary, organised as the paper's *schema tree* (Figure 12).
//!
//! "The set of all paths in a document is called its Path Summary, which
//! plays a central role in our query engine." The bulkloader keeps a
//! cursor into this tree so that resolving the relation for the next
//! start tag is a single child lookup on the current context node —
//! instead of hashing the whole path, the optimisation the paper
//! describes ("we can do away with much of the hashing if we keep track
//! of the context").

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::path::Path;

/// Index of a node in the schema tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SumId(u32);

impl SumId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct SumNode {
    label: String,
    parent: Option<SumId>,
    children: HashMap<String, SumId>,
    /// attribute name → relation name (`path[name]`).
    attrs: HashMap<String, String>,
    /// Cached full path of this node.
    path: Path,
    /// Cached relation name (= `path.to_string()`); empty for the virtual
    /// root ("All Documents" in Figure 12).
    relation: String,
    /// Creation ordinal, 1-based — the `R1..R12` numbering of Figure 12.
    ordinal: u32,
}

/// The schema tree: every distinct element path and attribute path that
/// has ever entered the database, each mapped to its relation name.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathSummary {
    nodes: Vec<SumNode>,
    /// Next `R<n>` ordinal to assign (element and attribute paths share
    /// the numbering, as in Figure 12).
    next_ordinal: u32,
}

impl PathSummary {
    /// A summary containing only the virtual "All Documents" root.
    pub fn new() -> Self {
        PathSummary {
            nodes: vec![SumNode {
                label: String::new(),
                parent: None,
                children: HashMap::new(),
                attrs: HashMap::new(),
                path: Path::empty(),
                relation: String::new(),
                ordinal: 0,
            }],
            next_ordinal: 1,
        }
    }

    /// The virtual root.
    pub fn root(&self) -> SumId {
        SumId(0)
    }

    /// The child of `node` labelled `label`, if it exists.
    pub fn child(&self, node: SumId, label: &str) -> Option<SumId> {
        self.nodes[node.index()].children.get(label).copied()
    }

    /// The child of `node` labelled `label`, created if missing.
    /// Returns the id and whether it was freshly created (a fresh node
    /// means a fresh relation in the database).
    pub fn ensure_child(&mut self, node: SumId, label: &str) -> (SumId, bool) {
        if let Some(existing) = self.child(node, label) {
            return (existing, false);
        }
        let path = self.nodes[node.index()].path.child(label);
        let relation = path.to_string();
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        let id = SumId(self.nodes.len() as u32);
        self.nodes.push(SumNode {
            label: label.to_owned(),
            parent: Some(node),
            children: HashMap::new(),
            attrs: HashMap::new(),
            path,
            relation,
            ordinal,
        });
        self.nodes[node.index()]
            .children
            .insert(label.to_owned(), id);
        (id, true)
    }

    /// The relation name for attribute `name` on `node`, created if
    /// missing. Returns the name and whether it was freshly created.
    pub fn ensure_attr(&mut self, node: SumId, name: &str) -> (String, bool) {
        if let Some(existing) = self.nodes[node.index()].attrs.get(name) {
            return (existing.clone(), false);
        }
        let relation = self.nodes[node.index()].path.attr(name).to_string();
        self.next_ordinal += 1;
        self.nodes[node.index()]
            .attrs
            .insert(name.to_owned(), relation.clone());
        (relation, true)
    }

    /// The relation name for attribute `name` on `node`, if registered.
    pub fn attr_relation(&self, node: SumId, name: &str) -> Option<&str> {
        self.nodes[node.index()].attrs.get(name).map(String::as_str)
    }

    /// Attribute names registered on `node`, sorted.
    pub fn attr_names(&self, node: SumId) -> Vec<&str> {
        let mut names: Vec<&str> = self.nodes[node.index()].attrs.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// The element label of `node`.
    pub fn label(&self, node: SumId) -> &str {
        &self.nodes[node.index()].label
    }

    /// The full path of `node`.
    pub fn path(&self, node: SumId) -> &Path {
        &self.nodes[node.index()].path
    }

    /// The relation name of `node` (its path rendered as text).
    pub fn relation(&self, node: SumId) -> &str {
        &self.nodes[node.index()].relation
    }

    /// The parent of `node`.
    pub fn parent(&self, node: SumId) -> Option<SumId> {
        self.nodes[node.index()].parent
    }

    /// Child ids of `node`, sorted by label for determinism.
    pub fn children(&self, node: SumId) -> Vec<SumId> {
        let mut kids: Vec<(&String, SumId)> = self.nodes[node.index()]
            .children
            .iter()
            .map(|(l, id)| (l, *id))
            .collect();
        kids.sort_by(|a, b| a.0.cmp(b.0));
        kids.into_iter().map(|(_, id)| id).collect()
    }

    /// Every element path ending in `label`, in creation order.
    pub fn labelled(&self, label: &str) -> Vec<SumId> {
        (1..self.nodes.len())
            .filter(|i| self.nodes[*i].label == label)
            .map(|i| SumId(i as u32))
            .collect()
    }

    /// All relation names — element and attribute paths — sorted.
    pub fn all_relations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for node in self.nodes.iter().skip(1) {
            out.push(node.relation.clone());
        }
        for node in &self.nodes {
            out.extend(node.attrs.values().cloned());
        }
        out.sort();
        out
    }

    /// The `R<n>` ordinal of `node` (1-based creation order).
    pub fn ordinal(&self, node: SumId) -> u32 {
        self.nodes[node.index()].ordinal
    }
}

impl Default for PathSummary {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_child_is_idempotent() {
        let mut s = PathSummary::new();
        let (image, fresh1) = s.ensure_child(s.root(), "image");
        let (again, fresh2) = s.ensure_child(s.root(), "image");
        assert_eq!(image, again);
        assert!(fresh1);
        assert!(!fresh2);
        assert_eq!(s.relation(image), "image");
    }

    #[test]
    fn attr_relations_use_bracket_notation() {
        let mut s = PathSummary::new();
        let (image, _) = s.ensure_child(s.root(), "image");
        let (rel, fresh) = s.ensure_attr(image, "key");
        assert_eq!(rel, "image[key]");
        assert!(fresh);
        assert_eq!(s.attr_relation(image, "key"), Some("image[key]"));
    }

    #[test]
    fn ordinals_follow_creation_order() {
        let mut s = PathSummary::new();
        let (a, _) = s.ensure_child(s.root(), "a");
        let (b, _) = s.ensure_child(a, "b");
        assert_eq!(s.ordinal(a), 1);
        assert_eq!(s.ordinal(b), 2);
    }
}
