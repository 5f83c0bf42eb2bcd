//! The Feature Detector Scheduler.
//!
//! "Opposed to the FDE, which … uses a strictly data-driven paradigm,
//! the Feature Detector Scheduler (FDS) uses the feature grammar also in
//! a demand-driven manner. Based on the dependency graph, deduced from
//! the grammar rules, the FDS can localize the effects of the
//! evolutionary changes, and trigger incremental parses."
//!
//! The paper's three-level version semantics drive everything:
//!
//! * **correction** — "will not lead to invalidation of any nodes …
//!   the FDS does not have to take any action",
//! * **minor** — partial parse trees invalidated, "however, the data may
//!   still be used to answer queries. Those revalidations are scheduled
//!   with a low priority",
//! * **major** — "the changes are so severe that the stored data has
//!   become unusable": high priority.
//!
//! An incremental parse avoids re-running detectors whose stored results
//! are still valid: the FDS harvests their memoised outputs from the
//! stored tree ([`crate::fde::harvest_cache`]) and re-parses with the
//! cache, so only the invalidated closure's detectors execute. The
//! savings are reported in [`MaintenanceReport`] — they are what
//! experiment E3 measures against a full rebuild.
//!
//! This module only plans ([`Fds::plan`], [`Fds::heal_plan`]) and
//! re-parses one object at a time ([`Fds::reparse_object`],
//! [`Fds::heal_object`]). Carrying a plan over the stored trees is the
//! `core` crate's maintenance job: it runs every non-correction plan as
//! one background job, whatever its priority, and readers keep the
//! trees of the epoch they pinned until the job commits.

use std::collections::BTreeSet;

use feagram::{DepGraph, Grammar};

use crate::detector::{DetectorRegistry, RevisionLevel};
use crate::error::Result;
use crate::fde::{harvest_cache, DetectorCache, Fde};
use crate::metaindex::MetaIndex;
use crate::token::Token;
use crate::tree::ParseTree;

/// The paper's scheduling priority of a revalidation. Only
/// [`Priority::None`] changes what maintenance does (nothing); `Low` and
/// `High` plans run alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// No action required (corrections).
    None,
    /// The paper's low priority: data stays queryable (minor revisions).
    Low,
    /// The paper's high priority: stored data unusable (major revisions).
    High,
}

/// The invalidation plan for one detector revision — the output of the
/// paper's three FDS steps, before any re-parsing happens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidationPlan {
    /// The revised detector.
    pub detector: String,
    /// The revision level.
    pub level: RevisionLevel,
    /// Scheduling priority.
    pub priority: Priority,
    /// Step 1: symbols of the invalidated partial parse trees.
    pub invalidated: BTreeSet<String>,
    /// Step 2: detectors needing revalidation because their parameters
    /// come out of the invalidated region.
    pub parameter_dependents: BTreeSet<String>,
    /// Step 3: enclosing detectors (or the start symbol) to revisit if a
    /// subtree turns out invalid.
    pub enclosing: BTreeSet<String>,
}

impl InvalidationPlan {
    /// Detectors that may NOT reuse stored results under this plan: the
    /// invalidated closure plus its parameter dependents.
    pub fn stale_symbols(&self) -> BTreeSet<String> {
        self.invalidated
            .iter()
            .chain(self.parameter_dependents.iter())
            .cloned()
            .collect()
    }
}

/// The outcome of re-parsing one object during maintenance — produced
/// by [`Fds::reparse_object`] / [`Fds::heal_object`] but not yet
/// installed anywhere, so a background maintenance job can collect
/// these as deltas and apply them to the live index at cutover.
#[derive(Debug)]
pub struct ObjectReparse {
    /// The freshly parsed tree.
    pub tree: ParseTree,
    /// The initial tokens the parse started from.
    pub initial: Vec<Token>,
    /// Detector executions this re-parse performed.
    pub detector_calls: usize,
    /// Detector executions avoided by reusing stored results.
    pub detector_calls_saved: usize,
}

/// What one maintenance run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// The plan that was executed.
    pub plan: InvalidationPlan,
    /// Objects whose stored trees were touched.
    pub objects_reparsed: usize,
    /// Objects skipped because their trees cannot contain the detector.
    pub objects_untouched: usize,
    /// Detector executions during maintenance.
    pub detector_calls: usize,
    /// Detector executions avoided by reusing stored results.
    pub detector_calls_saved: usize,
}

/// The FDS. Owns the dependency graph of one grammar.
pub struct Fds {
    depgraph: DepGraph,
}

impl Fds {
    /// Builds the FDS (and the dependency graph) for a grammar.
    pub fn new(grammar: &Grammar) -> Self {
        Fds {
            depgraph: DepGraph::build(grammar),
        }
    }

    /// The dependency graph.
    pub fn depgraph(&self) -> &DepGraph {
        &self.depgraph
    }

    /// Computes the invalidation plan for revising `detector` at `level`
    /// — the paper's three steps, without touching any data.
    pub fn plan(
        &self,
        grammar: &Grammar,
        detector: &str,
        level: RevisionLevel,
    ) -> InvalidationPlan {
        // Step 1 uses the full derivation closure: everything that can
        // occur in a parse subtree rooted at the detector (see
        // `Grammar::derivation_closure` for why this, and not the plain
        // Figure 8 walk, is the safe invalidation set).
        let (priority, invalidated) = match level {
            RevisionLevel::Correction => (Priority::None, BTreeSet::new()),
            RevisionLevel::Minor => (Priority::Low, grammar.derivation_closure(detector)),
            RevisionLevel::Major => (Priority::High, grammar.derivation_closure(detector)),
        };
        let parameter_dependents = self.depgraph.parameter_dependents(&invalidated);
        let enclosing = if invalidated.is_empty() {
            BTreeSet::new()
        } else {
            self.depgraph.upward_to_detector(grammar, detector)
        };
        InvalidationPlan {
            detector: detector.to_owned(),
            level,
            priority,
            invalidated,
            parameter_dependents,
            enclosing,
        }
    }

    /// Re-parses one object for a revision of `detector` whose new
    /// implementation is already installed in the registry. Returns
    /// `None` (untouched) when the stored tree cannot contain the
    /// detector; otherwise the new tree plus the call accounting. The
    /// result is not installed anywhere: a maintenance job keeps it as
    /// a delta and applies it to the live index at cutover.
    pub fn reparse_object(
        &self,
        grammar: &Grammar,
        registry: &DetectorRegistry,
        index: &mut MetaIndex,
        source: &str,
        detector: &str,
        stale: &BTreeSet<String>,
    ) -> Result<Option<ObjectReparse>> {
        let tree = index.tree(grammar, source)?;
        if tree.find_all(detector).is_empty() {
            return Ok(None);
        }
        let cache = harvest_cache(grammar, registry, &tree, |d| !stale.contains(d));
        reparse(grammar, registry, index, source, &cache).map(Some)
    }

    /// Re-parses one object iff its stored tree holds a
    /// rejected-with-cause node for `detector`. Healthy detector results
    /// are reused from the stored tree; `None` means nothing to heal.
    pub fn heal_object(
        &self,
        grammar: &Grammar,
        registry: &DetectorRegistry,
        index: &mut MetaIndex,
        source: &str,
        detector: &str,
    ) -> Result<Option<ObjectReparse>> {
        let tree = index.tree(grammar, source)?;
        let needs_heal = tree
            .rejected_nodes()
            .iter()
            .any(|(_, symbol, _)| symbol == detector);
        if !needs_heal {
            return Ok(None);
        }
        // Rejected nodes carry no version, so the harvest naturally
        // excludes them; every healthy detector is reused.
        let cache = harvest_cache(grammar, registry, &tree, |_| true);
        reparse(grammar, registry, index, source, &cache).map(Some)
    }

    /// The synthetic plan a heal runs under: nothing is invalidated
    /// (stored results stay reusable), data stays queryable throughout.
    pub fn heal_plan(detector: &str) -> InvalidationPlan {
        InvalidationPlan {
            detector: detector.to_owned(),
            level: RevisionLevel::Minor,
            priority: Priority::Low,
            invalidated: BTreeSet::new(),
            parameter_dependents: BTreeSet::new(),
            enclosing: BTreeSet::new(),
        }
    }

    /// Handles a change of the *source data* of one object: "the FDS uses
    /// a special detector associated to the start symbol to determine if
    /// the complete stored parse tree has become invalid due to changes
    /// of the source data, in which case the parse tree will be
    /// regenerated." `still_valid` is that special detector; when it
    /// returns false the object is fully re-parsed (no cache).
    pub fn refresh_source(
        &self,
        grammar: &Grammar,
        registry: &DetectorRegistry,
        index: &mut MetaIndex,
        source: &str,
        still_valid: impl Fn(&str) -> bool,
    ) -> Result<bool> {
        if still_valid(source) {
            return Ok(false);
        }
        let done = reparse(grammar, registry, index, source, &DetectorCache::new())?;
        index.insert(source, done.initial, &done.tree)?;
        Ok(true)
    }
}

/// Parses `source` again from its stored initial tokens, reusing every
/// detector result in `cache`.
fn reparse(
    grammar: &Grammar,
    registry: &DetectorRegistry,
    index: &MetaIndex,
    source: &str,
    cache: &DetectorCache,
) -> Result<ObjectReparse> {
    let initial = index
        .initial_tokens(source)
        .map(<[Token]>::to_vec)
        .unwrap_or_default();
    let mut fde = Fde::new(grammar, registry);
    let tree = fde.parse_with_cache(initial.clone(), cache)?;
    let stats = fde.stats();
    Ok(ObjectReparse {
        tree,
        initial,
        detector_calls: stats.detector_calls,
        detector_calls_saved: stats.cache_hits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DetectorFn, Version};
    use crate::token::Token;
    use feagram::{parse_grammar, FeatureValue};

    /// Same simulated detector implementations as the FDE tests.
    fn video_registry(num_shots: usize) -> DetectorRegistry {
        let mut reg = DetectorRegistry::new();
        reg.register(
            "header",
            Version::new(1, 0, 0),
            Box::new(|_| {
                Ok(vec![
                    Token::new("primary", "video"),
                    Token::new("secondary", "mpeg"),
                ])
            }),
        );
        reg.register(
            "segment",
            Version::new(1, 0, 0),
            Box::new(move |_| {
                let mut tokens = Vec::new();
                for s in 0..num_shots {
                    tokens.push(Token::new("frameNo", (s * 100) as i64));
                    tokens.push(Token::new("frameNo", (s * 100 + 99) as i64));
                    tokens.push(Token::new(
                        "type",
                        if s % 2 == 0 { "tennis" } else { "other" },
                    ));
                }
                Ok(tokens)
            }),
        );
        reg.register(
            "tennis",
            Version::new(1, 0, 0),
            Box::new(|inputs| {
                let begin = inputs[1].as_f64().ok_or("no begin")? as i64;
                let mut tokens = Vec::new();
                for f in 0..2 {
                    tokens.push(Token::new("frameNo", begin + f));
                    tokens.push(Token::new("xPos", 320.0));
                    tokens.push(Token::new("yPos", 400.0));
                    tokens.push(Token::new("Area", 1200i64));
                    tokens.push(Token::new("Ecc", 0.8));
                    tokens.push(Token::new("Orient", 12.0));
                }
                Ok(tokens)
            }),
        );
        reg
    }

    fn populated_index(
        grammar: &Grammar,
        registry: &mut DetectorRegistry,
        objects: usize,
    ) -> MetaIndex {
        let mut index = MetaIndex::new();
        for i in 0..objects {
            let url = format!("http://x/video{i}.mpg");
            let initial = vec![Token::new("location", FeatureValue::url(url.clone()))];
            let mut fde = Fde::new(grammar, registry);
            let tree = fde.parse(initial.clone()).unwrap();
            index.insert(&url, initial, &tree).unwrap();
        }
        index
    }

    /// Installs `run` as `detector`'s implementation at the version
    /// bumped by `level`, the swap a maintenance job performs at begin.
    fn install(reg: &DetectorRegistry, detector: &str, level: RevisionLevel, run: DetectorFn) {
        let version = reg.version(detector).unwrap().bumped(level);
        let _old = reg.replace(detector, version, run).unwrap();
    }

    #[test]
    fn correction_revision_is_a_noop() {
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let mut reg = video_registry(2);
        let mut index = populated_index(&g, &mut reg, 3);
        let fds = Fds::new(&g);
        reg.reset_counts();
        install(&reg, "tennis", RevisionLevel::Correction, Box::new(|_| Ok(vec![])));
        let plan = fds.plan(&g, "tennis", RevisionLevel::Correction);
        assert_eq!(plan.priority, Priority::None);
        assert!(plan.stale_symbols().is_empty());
        assert!(plan.enclosing.is_empty());
        // A correction invalidates nothing: even re-parsing an object
        // reuses every stored result, the corrected detector's included.
        for source in index.sources().to_vec() {
            let done = fds
                .reparse_object(&g, &reg, &mut index, &source, "tennis", &plan.stale_symbols())
                .unwrap()
                .unwrap();
            assert_eq!(done.detector_calls, 0);
        }
        assert_eq!(reg.total_calls(), 0);
    }

    #[test]
    fn minor_revision_reuses_unaffected_detectors() {
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let mut reg = video_registry(4); // 2 tennis shots per object
        let mut index = populated_index(&g, &mut reg, 2);
        let fds = Fds::new(&g);
        reg.reset_counts();

        // New tennis implementation: player closer to the net.
        install(
            &reg,
            "tennis",
            RevisionLevel::Minor,
            Box::new(|inputs| {
                let begin = inputs[1].as_f64().ok_or("no begin")? as i64;
                Ok(vec![
                    Token::new("frameNo", begin),
                    Token::new("xPos", 320.0),
                    Token::new("yPos", 150.0),
                    Token::new("Area", 1000i64),
                    Token::new("Ecc", 0.7),
                    Token::new("Orient", 5.0),
                ])
            }),
        );
        let plan = fds.plan(&g, "tennis", RevisionLevel::Minor);
        assert_eq!(plan.priority, Priority::Low);
        let stale = plan.stale_symbols();
        for source in index.sources().to_vec() {
            let done = fds
                .reparse_object(&g, &reg, &mut index, &source, "tennis", &stale)
                .unwrap()
                .unwrap();
            // tennis ran twice (2 tennis shots); header and segment were
            // reused from the stored tree.
            assert_eq!(done.detector_calls, 2);
            assert_eq!(done.detector_calls_saved, 2);
            index.insert(&source, done.initial, &done.tree).unwrap();
        }
        assert_eq!(reg.call_count("header"), 0);
        assert_eq!(reg.call_count("segment"), 0);
        assert_eq!(reg.call_count("tennis"), 4);

        // The new data is live: netplay now true.
        let tree = index.tree(&g, "http://x/video0.mpg").unwrap();
        let netplays: Vec<_> = tree
            .find_all("netplay")
            .into_iter()
            .map(|n| tree.value(n).cloned().unwrap())
            .collect();
        assert!(netplays.iter().all(|v| *v == FeatureValue::Bit(true)));
    }

    #[test]
    fn major_revision_of_segment_invalidates_downstream_tennis() {
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let mut reg = video_registry(4);
        let mut index = populated_index(&g, &mut reg, 1);
        let fds = Fds::new(&g);
        reg.reset_counts();

        // New segmentation: everything is one big tennis shot.
        install(
            &reg,
            "segment",
            RevisionLevel::Major,
            Box::new(|_| {
                Ok(vec![
                    Token::new("frameNo", 0i64),
                    Token::new("frameNo", 399i64),
                    Token::new("type", "tennis"),
                ])
            }),
        );
        let plan = fds.plan(&g, "segment", RevisionLevel::Major);
        assert_eq!(plan.priority, Priority::High);
        // segment's downward closure contains tennis (and netplay), so
        // tennis re-runs; header stays cached.
        assert!(plan.invalidated.contains("tennis"));
        let url = "http://x/video0.mpg";
        let done = fds
            .reparse_object(&g, &reg, &mut index, url, "segment", &plan.stale_symbols())
            .unwrap()
            .unwrap();
        assert_eq!(reg.call_count("header"), 0);
        assert_eq!(reg.call_count("segment"), 1);
        assert_eq!(reg.call_count("tennis"), 1);
        assert_eq!(done.tree.find_all("shot").len(), 1);
    }

    #[test]
    fn objects_without_the_detector_are_untouched() {
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let mut reg = video_registry(2);
        // One video object and one image object (no tennis subtree).
        let mut index = MetaIndex::new();
        for (url, primary) in [("http://x/v.mpg", "video"), ("http://x/i.jpg", "image")] {
            reg.register(
                "header",
                Version::new(1, 0, 0),
                Box::new(move |_| {
                    Ok(vec![
                        Token::new("primary", primary),
                        Token::new("secondary", "x"),
                    ])
                }),
            );
            let initial = vec![Token::new("location", FeatureValue::url(url))];
            let mut fde = Fde::new(&g, &reg);
            let tree = fde.parse(initial.clone()).unwrap();
            index.insert(url, initial, &tree).unwrap();
        }
        let fds = Fds::new(&g);
        install(&reg, "tennis", RevisionLevel::Major, Box::new(|_| Ok(vec![])));
        let stale = fds.plan(&g, "tennis", RevisionLevel::Major).stale_symbols();
        let mut touched = |url| {
            fds.reparse_object(&g, &reg, &mut index, url, "tennis", &stale)
                .unwrap()
                .is_some()
        };
        assert!(touched("http://x/v.mpg"));
        assert!(!touched("http://x/i.jpg"));
    }

    #[test]
    fn healing_reparses_only_objects_with_rejected_nodes() {
        use crate::detector::DetectorError;
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let mut reg = video_registry(2);
        // Populate object 0 while tennis is down, object 1 while healthy.
        let mut index = MetaIndex::new();
        reg.register(
            "tennis",
            Version::new(1, 0, 1),
            Box::new(|_| Err(DetectorError::Unavailable("rpc down".into()))),
        );
        {
            let url = "http://x/video0.mpg";
            let initial = vec![Token::new("location", FeatureValue::url(url))];
            let tree = Fde::new(&g, &reg).parse(initial.clone()).unwrap();
            assert_eq!(tree.rejected_nodes().len(), 1);
            index.insert(url, initial, &tree).unwrap();
        }
        // Tennis recovers (same version: nothing was revised, it healed).
        reg.register(
            "tennis",
            Version::new(1, 0, 1),
            Box::new(|inputs| {
                let begin = inputs[1].as_f64().ok_or("no begin")? as i64;
                Ok(vec![
                    Token::new("frameNo", begin),
                    Token::new("xPos", 320.0),
                    Token::new("yPos", 150.0),
                    Token::new("Area", 1200i64),
                    Token::new("Ecc", 0.8),
                    Token::new("Orient", 12.0),
                ])
            }),
        );
        {
            let url = "http://x/video1.mpg";
            let initial = vec![Token::new("location", FeatureValue::url(url))];
            let tree = Fde::new(&g, &reg).parse(initial.clone()).unwrap();
            assert!(tree.rejected_nodes().is_empty());
            index.insert(url, initial, &tree).unwrap();
        }

        let fds = Fds::new(&g);
        reg.reset_counts();
        let healthy = fds
            .heal_object(&g, &reg, &mut index, "http://x/video1.mpg", "tennis")
            .unwrap();
        assert!(healthy.is_none());
        let healed = fds
            .heal_object(&g, &reg, &mut index, "http://x/video0.mpg", "tennis")
            .unwrap()
            .unwrap();
        // header and segment were reused from the stored tree.
        assert_eq!(reg.call_count("header"), 0);
        assert_eq!(reg.call_count("segment"), 0);
        assert_eq!(reg.call_count("tennis"), 1);
        // The healed tree is complete.
        assert!(healed.tree.rejected_nodes().is_empty());
        assert!(!healed.tree.find_all("netplay").is_empty());
    }

    #[test]
    fn plan_reproduces_the_papers_header_example() {
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let fds = Fds::new(&g);
        let plan = fds.plan(&g, "header", RevisionLevel::Minor);
        // Step 1: header, MIME_type, secondary, primary.
        let expected: BTreeSet<String> = ["header", "MIME_type", "secondary", "primary"]
            .into_iter()
            .map(String::from)
            .collect();
        assert_eq!(plan.invalidated, expected);
        // Step 2: primary feeds video_type.
        assert!(plan.parameter_dependents.contains("video_type"));
        // Step 3: upward reaches the start symbol MMO.
        assert!(plan.enclosing.contains("MMO"));
    }

    #[test]
    fn refresh_source_regenerates_only_invalid_objects() {
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let mut reg = video_registry(2);
        let mut index = populated_index(&g, &mut reg, 2);
        let fds = Fds::new(&g);
        reg.reset_counts();
        // Object 0 changed on the web; object 1 did not.
        let touched = fds
            .refresh_source(&g, &reg, &mut index, "http://x/video0.mpg", |s| {
                !s.contains("video0")
            })
            .unwrap();
        assert!(touched);
        let untouched = fds
            .refresh_source(&g, &reg, &mut index, "http://x/video1.mpg", |s| {
                !s.contains("video0")
            })
            .unwrap();
        assert!(!untouched);
        // Full regeneration of one object: header + segment + 1 tennis.
        assert_eq!(reg.call_count("header"), 1);
        assert_eq!(reg.call_count("segment"), 1);
    }
}
