//! The XML storage manager: catalog + path summary + document registry.
//!
//! [`XmlStore`] is the public face of the physical level. It supports the
//! paper's three access patterns:
//!
//! * **bulkload / incremental insert** — [`XmlStore::bulkload_str`]
//!   streams XML text through the SAX parser straight into relations,
//!   with memory bounded by document height;
//!   [`XmlStore::insert_document`] walks an already-built tree,
//! * **retrieval** — [`XmlStore::reconstruct`] runs the inverse mapping,
//!   and [`crate::query`] evaluates path expressions; the engine's query
//!   path reads stored meta-data through [`crate::query::descent`],
//!   never through a reconstruction. Every read takes `&self`,
//! * **update** — [`XmlStore::delete_document`] removes a stored document
//!   so the maintenance machinery (FDS) can replace invalidated trees.
//!
//! Two deliberately *worse* code paths are kept as baselines that tests
//! compare the real ones against, mirroring the paper's own strawmen:
//! [`XmlStore::bulkload_str_naive`] (hash the full path string for every
//! single insert — the "first naïve approach" of the bulkload section)
//! and the edge-table storage mode in [`crate::query`]'s tests
//! (node-at-a-time traversal, the "plain data guides" competitor).

use monet::wal::WalHandle;
use monet::{ColumnKind, Db, Oid};

use crate::doc::Document;
use crate::error::{Error, Result};
use crate::parse::{self, SaxHandler};
use crate::summary::PathSummary;
use crate::transform::{
    self, LoadStats, Loader, CDATA_ATTR, PARENT_RELATION, PCDATA_LABEL, SOURCE_RELATION,
    SYS_RELATION,
};

/// The physical level's storage manager.
#[derive(Debug)]
pub struct XmlStore {
    db: Db,
    summary: PathSummary,
    /// Roots of stored documents, in insertion order.
    roots: Vec<Oid>,
    /// Cumulative stats of the most recent load.
    last_stats: LoadStats,
    /// Bumped on every insert or delete; anything derived from the
    /// store can be cached while the epoch holds still.
    epoch: u64,
    /// When attached, every insert/delete is logged here *before* the
    /// catalog mutates, so a crash mid-operation replays cleanly.
    wal: Option<WalHandle>,
    /// Pre-registered metric handles; `None` when observability is off.
    metrics: Option<StoreMetrics>,
}

/// Metric handles for the physical level (loads, scans, reconstructs).
#[derive(Debug, Clone)]
pub(crate) struct StoreMetrics {
    loads: obs::Counter,
    nodes_loaded: obs::Counter,
    deletes: obs::Counter,
    reconstructions: obs::Counter,
    pub(crate) path_scans: obs::Counter,
    pub(crate) scan_rows: obs::Counter,
}

impl StoreMetrics {
    fn register(registry: &obs::Registry) -> StoreMetrics {
        StoreMetrics {
            loads: registry.counter(
                "monetxml_loads_total",
                "Documents loaded (bulkload or tree insert)",
            ),
            nodes_loaded: registry.counter(
                "monetxml_nodes_loaded_total",
                "Nodes inserted into path relations",
            ),
            deletes: registry.counter("monetxml_deletes_total", "Documents deleted"),
            reconstructions: registry.counter(
                "monetxml_reconstructions_total",
                "Documents reconstructed from relations",
            ),
            path_scans: registry.counter(
                "monetxml_path_scans_total",
                "Path-expression relation scans",
            ),
            scan_rows: registry.counter(
                "monetxml_scan_rows_total",
                "Tuples returned by path-expression scans",
            ),
        }
    }
}

/// WAL op tag: insert a document (`fields = [source, xml]`).
pub const WAL_OP_INSERT: u8 = 0;
/// WAL op tag: delete a document (`fields = [source]`).
pub const WAL_OP_DELETE: u8 = 1;

impl XmlStore {
    /// An empty store.
    pub fn new() -> Self {
        XmlStore {
            db: Db::new(),
            summary: PathSummary::new(),
            roots: Vec::new(),
            last_stats: LoadStats::default(),
            epoch: 0,
            wal: None,
            metrics: None,
        }
    }

    /// Connects the store to an observability handle: loads, deletes,
    /// scans and reconstructions feed the `monetxml_*` counters. A
    /// disabled handle disconnects.
    pub fn set_obs(&mut self, o: &obs::Obs) {
        self.metrics = o.registry().map(StoreMetrics::register);
    }

    pub(crate) fn metrics(&self) -> Option<&StoreMetrics> {
        self.metrics.as_ref()
    }

    fn note_load(&self, stats: &LoadStats) {
        if let Some(m) = &self.metrics {
            m.loads.inc();
            m.nodes_loaded.add(stats.nodes as u64);
        }
    }

    /// A counter that advances on every insert or delete. Equal epochs
    /// guarantee the stored documents have not changed in between.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Resumes the epoch counter from a persisted value, so cache keys
    /// derived from epochs stay monotone across restarts.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Attaches a write-ahead-log handle: from now on every insert and
    /// delete is logged before the catalog mutates.
    pub fn set_wal(&mut self, wal: WalHandle) {
        self.wal = Some(wal);
    }

    /// Detaches the log (used during replay so replayed operations are
    /// not re-logged).
    pub fn detach_wal(&mut self) -> Option<WalHandle> {
        self.wal.take()
    }

    fn log_insert(&self, source: &str, xml: &str) -> Result<()> {
        if let Some(wal) = &self.wal {
            wal.log(WAL_OP_INSERT, &[source.as_bytes(), xml.as_bytes()])?;
        }
        Ok(())
    }

    /// The underlying BAT catalog (immutable).
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// The path summary.
    pub fn summary(&self) -> &PathSummary {
        &self.summary
    }

    /// Roots of all stored documents, in insertion order.
    pub fn roots(&self) -> &[Oid] {
        &self.roots
    }

    /// Number of stored documents.
    pub fn document_count(&self) -> usize {
        self.roots.len()
    }

    /// Stats of the most recent load.
    pub fn last_stats(&self) -> LoadStats {
        self.last_stats
    }

    /// Inserts an in-memory document; returns its root oid. With a WAL
    /// attached the document is logged (as serialised XML) first, and
    /// nothing mutates if the log append fails.
    pub fn insert_document(&mut self, source: &str, doc: &Document) -> Result<Oid> {
        if self.wal.is_some() {
            let xml = crate::ser::to_xml(doc);
            self.log_insert(source, &xml)?;
        }
        let (root, stats) = transform::load_document(&mut self.db, &mut self.summary, source, doc)?;
        self.roots.push(root);
        self.note_load(&stats);
        self.last_stats = stats;
        self.epoch += 1;
        Ok(root)
    }

    /// Inserts a batch of `(source, document)` pairs in order — the bulk
    /// entry point the ingestion writer uses to land one merge batch in a
    /// single call. [`XmlStore::last_stats`] afterwards holds the *sum*
    /// over the batch. Returns the root oids in input order.
    ///
    /// With a WAL attached the whole batch is logged with a **single**
    /// lock acquisition ([`WalHandle::log_batch`]) before any relation
    /// mutates — per-record logging was the dominant merge cost at
    /// 10^5-document scale. Replaying the log reproduces the same
    /// per-document insert sequence.
    pub fn insert_documents<'a, I>(&mut self, docs: I) -> Result<Vec<Oid>>
    where
        I: IntoIterator<Item = (&'a str, &'a Document)>,
    {
        let docs: Vec<(&str, &Document)> = docs.into_iter().collect();
        if let Some(wal) = &self.wal {
            let xmls: Vec<(usize, String)> = docs
                .iter()
                .enumerate()
                .map(|(i, (_, doc))| (i, crate::ser::to_xml(doc)))
                .collect();
            let groups: Vec<Vec<&[u8]>> = xmls
                .iter()
                .map(|(i, xml)| vec![docs[*i].0.as_bytes(), xml.as_bytes()])
                .collect();
            wal.log_batch(WAL_OP_INSERT, &groups)?;
        }
        // Already logged above; detach so the per-document path does not
        // log each insert a second time.
        let wal = self.wal.take();
        let mut total = LoadStats::default();
        let mut insert_all = || -> Result<Vec<Oid>> {
            let mut roots = Vec::new();
            for (source, doc) in &docs {
                roots.push(self.insert_document(source, doc)?);
                let stats = self.last_stats;
                total.nodes += stats.nodes;
                total.attrs += stats.attrs;
                total.new_relations += stats.new_relations;
                total.max_depth = total.max_depth.max(stats.max_depth);
            }
            Ok(roots)
        };
        let result = insert_all();
        self.wal = wal;
        let roots = result?;
        self.last_stats = total;
        Ok(roots)
    }

    /// Streams XML text into the store with O(height) live memory — the
    /// paper's bulkload method. Returns the root oid. Logged to the WAL
    /// (when attached) before any relation mutates.
    pub fn bulkload_str(&mut self, source: &str, xml: &str) -> Result<Oid> {
        self.log_insert(source, xml)?;
        struct Sax<'a, 'b>(&'a mut Loader<'b>);
        impl SaxHandler for Sax<'_, '_> {
            fn start_element(&mut self, tag: &str, attrs: &[(&str, String)]) -> Result<()> {
                self.0.start_element(tag, attrs)
            }
            fn end_element(&mut self, _tag: &str) -> Result<()> {
                self.0.end_element()
            }
            fn characters(&mut self, text: &str) -> Result<()> {
                self.0.characters(text)
            }
        }

        let mut loader = Loader::new(&mut self.db, &mut self.summary, source);
        parse::parse_sax(xml, &mut Sax(&mut loader))?;
        let (root, stats) = loader.finish()?;
        self.roots.push(root);
        self.note_load(&stats);
        self.last_stats = stats;
        self.epoch += 1;
        Ok(root)
    }

    /// Like [`XmlStore::bulkload_str`], additionally recording element
    /// extents (`path[xstart]` / `path[xend]` relations) — the paper's
    /// multi-attribute extension hook.
    pub fn bulkload_str_with_extents(&mut self, source: &str, xml: &str) -> Result<Oid> {
        struct Sax<'a, 'b>(&'a mut Loader<'b>);
        impl SaxHandler for Sax<'_, '_> {
            fn start_element(&mut self, tag: &str, attrs: &[(&str, String)]) -> Result<()> {
                self.0.start_element(tag, attrs)
            }
            fn end_element(&mut self, _tag: &str) -> Result<()> {
                self.0.end_element()
            }
            fn characters(&mut self, text: &str) -> Result<()> {
                self.0.characters(text)
            }
        }
        let mut loader = Loader::with_extents(&mut self.db, &mut self.summary, source);
        parse::parse_sax(xml, &mut Sax(&mut loader))?;
        let (root, stats) = loader.finish()?;
        self.roots.push(root);
        self.note_load(&stats);
        self.last_stats = stats;
        self.epoch += 1;
        Ok(root)
    }

    /// The paper's strawman loader: identical output, but instead of
    /// keeping a schema-tree cursor it rebuilds and hashes the **full
    /// path string** for every node and attribute — "a first naïve
    /// approach would thus result in the following sequence of insert
    /// statements … requires us to hash the complete path to a relation
    /// name". Exists only as the baseline for experiment E2.
    pub fn bulkload_str_naive(&mut self, source: &str, xml: &str) -> Result<Oid> {
        struct Naive<'a> {
            db: &'a mut Db,
            summary: &'a mut PathSummary,
            /// (label, oid, next_rank) per open element.
            stack: Vec<(String, Oid, i64)>,
            root: Option<Oid>,
            source: String,
        }
        impl Naive<'_> {
            fn full_path(&self) -> String {
                // Deliberately rebuilds the string every time.
                self.stack
                    .iter()
                    .map(|(l, _, _)| l.as_str())
                    .collect::<Vec<_>>()
                    .join("/")
            }
            /// Resolve a path string through the summary *by reparsing and
            /// re-walking it from the root* — the repeated hashing work the
            /// schema-tree cursor avoids.
            fn resolve_slow(&mut self, path: &str) -> crate::summary::SumId {
                let mut cur = self.summary.root();
                for seg in path.split('/').filter(|s| !s.is_empty()) {
                    cur = self.summary.ensure_child(cur, seg).0;
                }
                cur
            }
        }
        impl SaxHandler for Naive<'_> {
            fn start_element(&mut self, tag: &str, attrs: &[(&str, String)]) -> Result<()> {
                let oid = self.db.mint();
                let parent = self.stack.last().map(|(_, o, _)| *o);
                let rank = match self.stack.last_mut() {
                    Some((_, _, r)) => {
                        let rank = *r;
                        *r += 1;
                        rank
                    }
                    None => 1,
                };
                self.stack.push((tag.to_owned(), oid, 1));
                let path = self.full_path();
                let sum = self.resolve_slow(&path);
                let relation = self.summary.relation(sum).to_owned();
                match parent {
                    Some(p) => {
                        self.db
                            .get_or_create(&relation, ColumnKind::Oid)
                            .append_oid(p, oid)?;
                        self.db
                            .get_or_create(PARENT_RELATION, ColumnKind::Oid)
                            .append_oid(oid, p)?;
                    }
                    None => {
                        if self.root.is_some() {
                            return Err(Error::Store("multiple roots".into()));
                        }
                        self.root = Some(oid);
                        self.db
                            .get_or_create(SYS_RELATION, ColumnKind::Str)
                            .append_str(oid, tag)?;
                        self.db
                            .get_or_create(SOURCE_RELATION, ColumnKind::Str)
                            .append_str(oid, self.source.clone())?;
                    }
                }
                let (rank_rel, _) = self.summary.ensure_attr(sum, "rank");
                self.db
                    .get_or_create(&rank_rel, ColumnKind::Int)
                    .append_int(oid, rank)?;
                for (name, value) in attrs {
                    let (attr_rel, _) = self.summary.ensure_attr(sum, name);
                    self.db
                        .get_or_create(&attr_rel, ColumnKind::Str)
                        .append_str(oid, value.clone())?;
                }
                Ok(())
            }
            fn end_element(&mut self, _tag: &str) -> Result<()> {
                self.stack.pop();
                Ok(())
            }
            fn characters(&mut self, text: &str) -> Result<()> {
                let (parent, rank) = match self.stack.last_mut() {
                    Some((_, o, r)) => {
                        let rank = *r;
                        *r += 1;
                        (*o, rank)
                    }
                    None => return Err(Error::Store("text outside root".into())),
                };
                self.stack.push((PCDATA_LABEL.to_owned(), Oid::from_raw(0), 0));
                let path = self.full_path();
                self.stack.pop();
                let sum = self.resolve_slow(&path);
                let relation = self.summary.relation(sum).to_owned();
                let oid = self.db.mint();
                self.db
                    .get_or_create(&relation, ColumnKind::Oid)
                    .append_oid(parent, oid)?;
                self.db
                    .get_or_create(PARENT_RELATION, ColumnKind::Oid)
                    .append_oid(oid, parent)?;
                let (rank_rel, _) = self.summary.ensure_attr(sum, "rank");
                self.db
                    .get_or_create(&rank_rel, ColumnKind::Int)
                    .append_int(oid, rank)?;
                let (cdata_rel, _) = self.summary.ensure_attr(sum, CDATA_ATTR);
                self.db
                    .get_or_create(&cdata_rel, ColumnKind::Str)
                    .append_str(oid, text)?;
                Ok(())
            }
        }

        let mut handler = Naive {
            db: &mut self.db,
            summary: &mut self.summary,
            stack: Vec::new(),
            root: None,
            source: source.to_owned(),
        };
        parse::parse_sax(xml, &mut handler)?;
        let root = handler
            .root
            .ok_or_else(|| Error::Store("no root element".into()))?;
        self.roots.push(root);
        self.epoch += 1;
        Ok(root)
    }

    /// Reconstructs the document rooted at `root` (the inverse mapping).
    pub fn reconstruct(&self, root: Oid) -> Result<Document> {
        if let Some(m) = &self.metrics {
            m.reconstructions.inc();
        }
        transform::reconstruct(&self.db, &self.summary, root)
    }

    /// The source name a document was loaded from.
    pub fn source_of(&self, root: Oid) -> Option<String> {
        self.db
            .get(SOURCE_RELATION)
            .ok()?
            .first_tail_of(root)
            .and_then(|v| v.as_str().map(str::to_owned))
    }

    /// The root oid of the document loaded from `source`, if any.
    pub fn root_for_source(&self, source: &str) -> Option<Oid> {
        self.db
            .get(SOURCE_RELATION)
            .ok()?
            .select_str_eq(source)
            .first()
            .copied()
    }

    /// Deletes the document rooted at `root`, removing every node it
    /// contributed from every relation. Returns the number of nodes
    /// removed. Used by the FDS when a stored parse tree is invalidated.
    pub fn delete_document(&mut self, root: Oid) -> Result<usize> {
        let root_tag = self
            .db
            .get_mut(SYS_RELATION)?
            .first_tail_of(root)
            .and_then(|v| v.as_str().map(str::to_owned))
            .ok_or_else(|| Error::Store(format!("oid {root} is not a document root")))?;
        // Log the delete (keyed by source, which survives restarts —
        // oids do not) before any relation mutates.
        if self.wal.is_some() {
            let source = self
                .source_of(root)
                .ok_or_else(|| Error::Store(format!("oid {root} has no source entry")))?;
            if let Some(wal) = &self.wal {
                wal.log(WAL_OP_DELETE, &[source.as_bytes()])?;
            }
        }
        let sum = self
            .summary
            .child(self.summary.root(), &root_tag)
            .ok_or_else(|| Error::Store(format!("no schema node for {root_tag}")))?;

        // Two phases: walk the stored tree collecting, per relation, the
        // set of heads to drop, then bulk-delete each relation in a
        // single pass. (Per-node deletion would rebuild each relation's
        // lookup index once per node — quadratic in document size.)
        let mut per_relation: std::collections::HashMap<
            String,
            std::collections::HashSet<Oid>,
        > = std::collections::HashMap::new();
        let removed = self.collect_subtree(sum, root, &mut per_relation)?;
        for (rel, heads) in per_relation {
            if let Ok(bat) = self.db.get_mut(&rel) {
                bat.delete_heads(&heads);
            }
        }
        self.db.get_mut(SYS_RELATION)?.delete_head(root);
        self.db.get_mut(SOURCE_RELATION)?.delete_head(root);
        self.roots.retain(|r| *r != root);
        self.epoch += 1;
        if let Some(m) = &self.metrics {
            m.deletes.inc();
        }
        Ok(removed)
    }

    /// Walks the stored subtree of `oid`, recording every association to
    /// drop in `per_relation`. Returns the number of nodes visited.
    fn collect_subtree(
        &mut self,
        sum: crate::summary::SumId,
        oid: Oid,
        per_relation: &mut std::collections::HashMap<String, std::collections::HashSet<Oid>>,
    ) -> Result<usize> {
        let mut removed = 1;
        for child_sum in self.summary.children(sum) {
            let rel = self.summary.relation(child_sum).to_owned();
            let child_oids: Vec<Oid> = match self.db.get_mut(&rel) {
                Ok(bat) => bat
                    .tails_of(oid)
                    .into_iter()
                    .filter_map(|v| v.as_oid())
                    .collect(),
                Err(_) => continue,
            };
            for child in child_oids {
                removed += self.collect_subtree(child_sum, child, per_relation)?;
                per_relation
                    .entry(PARENT_RELATION.to_owned())
                    .or_default()
                    .insert(child);
            }
            // The edges from this parent.
            per_relation.entry(rel).or_default().insert(oid);
        }
        // This node's attribute/rank/cdata entries.
        for name in self.summary.attr_names(sum) {
            let rel = self
                .summary
                .attr_relation(sum, name)
                .expect("name from attr_names")
                .to_owned();
            per_relation.entry(rel).or_default().insert(oid);
        }
        Ok(removed)
    }

    /// Counts `rejected` attribute markers across all stored documents,
    /// grouped by the owning element's label — read straight off the
    /// per-(path, attribute) relations, without reconstructing a single
    /// document. This is the heal backlog the maintenance layer reports
    /// per detector; because it only touches the (tiny) `rejected`
    /// attribute relations it is cheap enough for metrics-scrape time
    /// even on a lazily-opened store.
    pub fn rejected_counts(&self) -> std::collections::BTreeMap<String, usize> {
        let mut out = std::collections::BTreeMap::new();
        let mut stack = vec![self.summary.root()];
        while let Some(sum) = stack.pop() {
            stack.extend(self.summary.children(sum));
            let Some(rel) = self.summary.attr_relation(sum, "rejected") else {
                continue;
            };
            if let Ok(bat) = self.db.get(rel) {
                let n = bat.len();
                if n > 0 {
                    *out.entry(self.summary.label(sum).to_owned()).or_insert(0) += n;
                }
            }
        }
        out
    }

    /// Serialises the whole store to bytes (the catalog snapshot; the
    /// path summary and document registry are *derived* state, rebuilt
    /// on restore from the relation names and the `sys` relations —
    /// which is exactly why the paper's document-dependent mapping can
    /// afford a DTD-less catalog).
    pub fn snapshot(&self) -> Result<Vec<u8>> {
        Ok(monet::persist::snapshot(&self.db)?)
    }

    /// Restores a store from a [`Self::snapshot`], decoding every
    /// relation eagerly.
    pub fn restore(bytes: &[u8]) -> Result<XmlStore> {
        Self::from_db(monet::persist::restore(bytes)?)
    }

    /// Restores a store from a [`Self::snapshot`] **lazily**: relations
    /// decode on first access. The schema tree needs only the relation
    /// *names* (in the snapshot directory) and the document registry
    /// materializes just the `sys` relation, so opening a large snapshot
    /// touches a tiny fraction of its payload bytes.
    pub fn restore_lazy(bytes: Vec<u8>) -> Result<XmlStore> {
        Self::from_db(monet::persist::restore_lazy(bytes)?)
    }

    /// Rebuilds the derived state (schema tree, document registry) from a
    /// restored catalog. Only the `sys` relation is materialized.
    fn from_db(mut db: Db) -> Result<XmlStore> {
        // Rebuild the schema tree from the relation names.
        let mut summary = PathSummary::new();
        let names: Vec<String> = db.relation_names().map(str::to_owned).collect();
        for name in names {
            if name.starts_with('#') || name == SYS_RELATION || name.starts_with("sys[") {
                continue;
            }
            let Some(path) = crate::path::Path::parse(&name) else {
                continue;
            };
            let mut node = summary.root();
            for step in path.steps() {
                match step {
                    crate::path::Step::Child(label) => {
                        node = summary.ensure_child(node, label).0;
                    }
                    crate::path::Step::Attr(attr) => {
                        summary.ensure_attr(node, attr);
                    }
                }
            }
        }
        // Rebuild the document registry from sys, in oid order (the
        // insertion order of the original store).
        let mut roots: Vec<Oid> = match db.get_mut(SYS_RELATION) {
            Ok(bat) => bat.heads().collect(),
            Err(_) => Vec::new(),
        };
        roots.sort();
        Ok(XmlStore {
            db,
            summary,
            roots,
            last_stats: LoadStats::default(),
            epoch: 0,
            wal: None,
            metrics: None,
        })
    }

    /// Text content of an element node: concatenation of the `cdata` of
    /// its direct `PCDATA` children, in rank order.
    pub fn direct_text(&self, sum: crate::summary::SumId, oid: Oid) -> Result<String> {
        let text = crate::query::descent(self, sum, &[]).text(oid, &faults::Budget::unlimited())?;
        Ok(text.unwrap_or_default())
    }
}

impl Default for XmlStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{figure9, FIGURE9_XML};

    #[test]
    fn bulkload_and_document_walk_agree() {
        let mut a = XmlStore::new();
        let ra = a.bulkload_str("s.xml", FIGURE9_XML).unwrap();
        let mut b = XmlStore::new();
        let rb = b.insert_document("s.xml", &figure9()).unwrap();
        assert_eq!(a.reconstruct(ra).unwrap(), b.reconstruct(rb).unwrap());
        assert_eq!(
            a.db().relation_count(),
            b.db().relation_count(),
            "same relations either way"
        );
    }

    #[test]
    fn naive_loader_produces_identical_database() {
        let mut fast = XmlStore::new();
        fast.bulkload_str("s.xml", FIGURE9_XML).unwrap();
        let mut naive = XmlStore::new();
        let r = naive.bulkload_str_naive("s.xml", FIGURE9_XML).unwrap();
        assert_eq!(
            fast.db().relation_count(),
            naive.db().relation_count()
        );
        assert_eq!(naive.reconstruct(r).unwrap(), figure9());
    }

    #[test]
    fn figure12_schema_tree_has_exactly_twelve_element_paths_plus_attrs() {
        // Figure 12 numbers 12 relations for the example document:
        // /image, /image[key], /image[source], /image/date,
        // /image/date/PCDATA, /image/colors, /image/colors/histogram,
        // + PCDATA, /image/colors/saturation, + PCDATA,
        // /image/colors/version, + PCDATA.
        let mut store = XmlStore::new();
        store.bulkload_str("s.xml", FIGURE9_XML).unwrap();
        let element_paths: Vec<String> = store
            .summary()
            .element_paths()
            .iter()
            .map(|p| p.to_string())
            .collect();
        assert_eq!(
            element_paths,
            vec![
                "image",
                "image/date",
                "image/date/PCDATA",
                "image/colors",
                "image/colors/histogram",
                "image/colors/histogram/PCDATA",
                "image/colors/saturation",
                "image/colors/saturation/PCDATA",
                "image/colors/version",
                "image/colors/version/PCDATA",
            ]
        );
        let all = store.summary().all_relations();
        assert!(all.contains(&"image[key]".to_owned()));
        assert!(all.contains(&"image[source]".to_owned()));
        // The 12 relations of Figure 12 = 10 element paths + 2 attributes.
        let figure12: Vec<&String> = all
            .iter()
            .filter(|r| !r.ends_with("[rank]") && !r.ends_with("[cdata]"))
            .collect();
        assert_eq!(figure12.len(), 12);
    }

    #[test]
    fn delete_document_removes_every_trace() {
        let mut store = XmlStore::new();
        let keep = store.bulkload_str("keep.xml", FIGURE9_XML).unwrap();
        let kill = store.bulkload_str("kill.xml", FIGURE9_XML).unwrap();
        let before = store.db().association_count();
        let removed = store.delete_document(kill).unwrap();
        assert_eq!(removed, 10);
        // Exactly half of the document-payload associations are gone.
        let after = store.db().association_count();
        assert!(after < before);
        assert_eq!(store.document_count(), 1);
        assert!(store.reconstruct(kill).is_err());
        assert_eq!(store.reconstruct(keep).unwrap(), figure9());
        // Re-deleting errors.
        assert!(store.delete_document(kill).is_err());
    }

    #[test]
    fn delete_then_reinsert_round_trips() {
        let mut store = XmlStore::new();
        let r1 = store.bulkload_str("a.xml", FIGURE9_XML).unwrap();
        store.delete_document(r1).unwrap();
        let r2 = store.bulkload_str("a.xml", FIGURE9_XML).unwrap();
        assert_eq!(store.reconstruct(r2).unwrap(), figure9());
        assert_eq!(store.document_count(), 1);
    }

    #[test]
    fn source_registry_round_trips() {
        let mut store = XmlStore::new();
        let r = store.bulkload_str("http://ausopen.org/seles.xml", FIGURE9_XML).unwrap();
        assert_eq!(
            store.source_of(r),
            Some("http://ausopen.org/seles.xml".to_owned())
        );
        assert_eq!(store.root_for_source("http://ausopen.org/seles.xml"), Some(r));
        assert_eq!(store.root_for_source("nope"), None);
    }

    #[test]
    fn snapshot_restore_round_trips_documents_and_summary() {
        let mut store = XmlStore::new();
        let r1 = store.bulkload_str("a.xml", FIGURE9_XML).unwrap();
        let r2 = store.bulkload_str("b.xml", FIGURE9_XML).unwrap();
        let bytes = store.snapshot().unwrap();
        let mut back = XmlStore::restore(&bytes).unwrap();
        assert_eq!(back.document_count(), 2);
        assert_eq!(back.reconstruct(r1).unwrap(), figure9());
        assert_eq!(back.reconstruct(r2).unwrap(), figure9());
        assert_eq!(
            back.summary().all_relations(),
            store.summary().all_relations()
        );
        // The restored store keeps working: insert another document.
        let r3 = back.bulkload_str("c.xml", FIGURE9_XML).unwrap();
        assert_eq!(back.reconstruct(r3).unwrap(), figure9());
        // …and old documents can still be deleted.
        back.delete_document(r1).unwrap();
        assert!(back.reconstruct(r1).is_err());
    }

    #[test]
    fn lazy_restore_matches_eager_restore() {
        let mut store = XmlStore::new();
        let r1 = store.bulkload_str("a.xml", FIGURE9_XML).unwrap();
        let r2 = store.bulkload_str("b.xml", FIGURE9_XML).unwrap();
        let bytes = store.snapshot().unwrap();
        let lazy = XmlStore::restore_lazy(bytes.clone()).unwrap();
        // Opening lazily only materializes the `sys` document registry.
        assert_eq!(lazy.db().materialized_count(), 1);
        assert_eq!(lazy.document_count(), 2);
        assert_eq!(
            lazy.summary().all_relations(),
            store.summary().all_relations()
        );
        // First touch decodes; content matches the eager path.
        let eager = XmlStore::restore(&bytes).unwrap();
        assert_eq!(
            lazy.reconstruct(r1).unwrap(),
            eager.reconstruct(r1).unwrap()
        );
        assert_eq!(lazy.reconstruct(r2).unwrap(), figure9());
        assert!(lazy.db().materialized_count() > 1);
    }

    #[test]
    fn batched_insert_logs_one_wal_record_per_document() {
        use monet::storage::FsBackend;
        use monet::wal::{open_shared, WalHandle};

        let dir = std::env::temp_dir().join(format!(
            "monetxml_store_batch_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let wal = open_shared(FsBackend::shared(), &dir).unwrap();
        let mut store = XmlStore::new();
        store.set_wal(WalHandle::new(wal.clone(), 7));

        let doc = figure9();
        let batch = vec![("a.xml", &doc), ("b.xml", &doc), ("c.xml", &doc)];
        let roots = store.insert_documents(batch).unwrap();
        assert_eq!(roots.len(), 3);
        assert_eq!(store.document_count(), 3);

        // One frame per document, each replayable as a plain insert.
        {
            let mut guard = wal.lock().unwrap();
            guard.flush().unwrap();
        }
        let records = wal.lock().unwrap().replay_from(0).unwrap();
        assert_eq!(records.len(), 3);
        let mut replayed = XmlStore::new();
        for rec in &records {
            let (_store_tag, op, fields) =
                monet::wal::decode_payload(&rec.payload).unwrap();
            assert_eq!(op, WAL_OP_INSERT);
            let source = String::from_utf8(fields[0].clone()).unwrap();
            let xml = String::from_utf8(fields[1].clone()).unwrap();
            replayed.bulkload_str(&source, &xml).unwrap();
        }
        assert_eq!(replayed.document_count(), 3);
        assert_eq!(
            replayed.db().association_count(),
            store.db().association_count()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn direct_text_reads_pcdata_children() {
        let mut store = XmlStore::new();
        let root = store.bulkload_str("s.xml", FIGURE9_XML).unwrap();
        let image_sum = store
            .summary()
            .resolve(&crate::path::Path::root("image"))
            .unwrap();
        // image has no direct text
        assert_eq!(store.direct_text(image_sum, root).unwrap(), "");
        let date_sum = store
            .summary()
            .resolve(&crate::path::Path::root("image").child("date"))
            .unwrap();
        let date_rel = store.summary().relation(date_sum).to_owned();
        let date_oid = store
            .db()
            .get(&date_rel)
            .unwrap()
            .first_tail_of(root)
            .unwrap()
            .as_oid()
            .unwrap();
        assert_eq!(store.direct_text(date_sum, date_oid).unwrap(), "999010530");
    }
}
