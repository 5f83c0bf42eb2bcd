//! Reading shot structure and media events back out of stored parse
//! trees.
//!
//! The video feature grammar (Figure 7) shapes a video's meta-data as
//! `segment : shot*` with `shot : begin end type`; this module projects a
//! parse tree onto that shape so the query level can return "video
//! shots" — the answer granularity of the Figure 13 query.
//! [`video_shots`] projects a rebuilt tree; the query path reads the
//! same answer straight off the meta store's path relations
//! (`MediaPaths`), without rebuilding the tree.

use acoi::{PNodeId, ParseTree};
use faults::Budget;
use feagram::{FeatureValue, Grammar};
use monet::Oid;
use monetxml::query::{descent, Descent};
use monetxml::{Result, Step, XmlStore};

/// One shot as recorded in the meta-index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShotMeta {
    /// First frame.
    pub begin: i64,
    /// Last frame.
    pub end: i64,
    /// Whether the shot was classified as a tennis (court) shot.
    pub is_tennis: bool,
    /// The netplay event outcome, when the shot is a tennis shot.
    pub netplay: Option<bool>,
}

/// Extracts all shots from a video parse tree.
pub fn video_shots(tree: &ParseTree) -> Vec<ShotMeta> {
    tree.find_all("shot")
        .into_iter()
        .filter_map(|shot| shot_meta(tree, shot))
        .collect()
}

fn shot_meta(tree: &ParseTree, shot: PNodeId) -> Option<ShotMeta> {
    let mut begin = None;
    let mut end = None;
    let mut is_tennis = false;
    let mut netplay = None;
    for child in tree.children(shot) {
        match tree.symbol(*child) {
            "begin" => begin = frame_no(tree, *child),
            "end" => end = frame_no(tree, *child),
            "type" => {
                // `type : "tennis" tennis;` — a tennis subtree marks a
                // court shot; its event carries the netplay bit.
                for tc in tree.children(*child) {
                    if tree.symbol(*tc) == "tennis" {
                        is_tennis = true;
                        for n in tree.preorder(*tc) {
                            if tree.symbol(n) == "netplay" {
                                netplay = tree.value(n).and_then(|v| match v {
                                    FeatureValue::Bit(b) => Some(*b),
                                    _ => None,
                                });
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    Some(ShotMeta {
        begin: begin?,
        end: end?,
        is_tennis,
        netplay,
    })
}

fn frame_no(tree: &ParseTree, node: PNodeId) -> Option<i64> {
    tree.children(node).iter().find_map(|c| {
        if tree.symbol(*c) == "frameNo" {
            tree.value(*c).and_then(|v| match v {
                FeatureValue::Int(i) => Some(*i),
                _ => None,
            })
        } else {
            None
        }
    })
}

/// The meta store's relations that answer `MEDIA <attr> HAS <event>`,
/// resolved once per request: the shots of a video as [`video_shots`]
/// reads them, and whether some node labelled the event holds `true`, as
/// a scan of the rebuilt tree would tell.
pub(crate) struct MediaPaths<'a> {
    grammar: &'a Grammar,
    event: &'a str,
    /// One entry per `shot` path of the store (only for `netplay`).
    shots: Vec<ShotPaths<'a>>,
    /// Every path ending in the event's label.
    events: Vec<Descent<'a>>,
}

/// From the document root to its shots, and from a shot down to what
/// [`ShotMeta`] records.
struct ShotPaths<'a> {
    shot: Descent<'a>,
    begin: Descent<'a>,
    end: Descent<'a>,
    tennis: Descent<'a>,
    netplay: Descent<'a>,
}

impl<'a> MediaPaths<'a> {
    pub(crate) fn new(grammar: &'a Grammar, store: &'a XmlStore, event: &'a str) -> Self {
        let summary = store.summary();
        let from_root = |sum| {
            let labels: Vec<&str> = summary.path(sum).steps().iter().map(Step::label).collect();
            descent(store, summary.root(), &labels)
        };
        let shot_paths = |shot| ShotPaths {
            shot: from_root(shot),
            begin: descent(store, shot, &["begin", "frameNo"]),
            end: descent(store, shot, &["end", "frameNo"]),
            tennis: descent(store, shot, &["type", "tennis"]),
            netplay: descent(store, shot, &["type", "tennis", "event", "netplay"]),
        };
        let shots = match event {
            "netplay" => summary.labelled("shot").into_iter().map(shot_paths).collect(),
            _ => Vec::new(),
        };
        let events = summary.labelled(event).into_iter().map(from_root).collect();
        MediaPaths { grammar, event, shots, events }
    }

    /// Whether the event holds in the document rooted at `root`: the
    /// shots it holds in for `netplay` (video events answer at shot
    /// granularity), an empty list for any other event, `None` when it
    /// does not hold.
    pub(crate) fn evidence(&self, root: Oid, budget: &Budget) -> Result<Option<Vec<ShotMeta>>> {
        if self.event != "netplay" {
            return Ok(self.holds(root, budget)?.then(Vec::new));
        }
        let mut shots = self.shots(root, budget)?;
        shots.retain(|s| s.netplay == Some(true));
        Ok((!shots.is_empty()).then_some(shots))
    }

    /// The shots of the document rooted at `root`, in document order.
    pub(crate) fn shots(&self, root: Oid, budget: &Budget) -> Result<Vec<ShotMeta>> {
        let mut out = Vec::new();
        for p in &self.shots {
            for shot in p.shot.nodes(root, budget)? {
                let frame_no = |path| {
                    let values = self.values(path, shot, "frameNo", budget)?;
                    Ok::<_, monetxml::Error>(values.into_iter().find_map(|v| match v {
                        Some(FeatureValue::Int(i)) => Some(i),
                        _ => None,
                    }))
                };
                let (begin, end) = (frame_no(&p.begin)?, frame_no(&p.end)?);
                let is_tennis = !p.tennis.nodes(shot, budget)?.is_empty();
                // The last netplay node decides, as in `shot_meta`.
                let netplay = match self.values(&p.netplay, shot, "netplay", budget)?.pop() {
                    Some(Some(FeatureValue::Bit(b))) => Some(b),
                    _ => None,
                };
                if let (Some(begin), Some(end)) = (begin, end) {
                    out.push(ShotMeta { begin, end, is_tennis, netplay });
                }
            }
        }
        Ok(out)
    }

    /// Whether some node labelled the event holds `true` in the document
    /// rooted at `root` (any node of that symbol with a true outcome).
    pub(crate) fn holds(&self, root: Oid, budget: &Budget) -> Result<bool> {
        for path in &self.events {
            let values = self.values(path, root, self.event, budget)?;
            if values.contains(&Some(FeatureValue::Bit(true))) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The value of every node `path` reaches from `node`, parsed through
    /// the grammar's atom type of `label` as [`ParseTree::from_document`]
    /// parses it.
    fn values(
        &self,
        path: &Descent<'_>,
        node: Oid,
        label: &str,
        budget: &Budget,
    ) -> Result<Vec<Option<FeatureValue>>> {
        let ty = self.grammar.symbols().terminal_type(label).unwrap_or("str");
        let parse = |text: String| {
            FeatureValue::from_lexical(ty, &text).ok_or_else(|| {
                monetxml::Error::Store(format!("value `{text}` does not parse as {ty} for <{label}>"))
            })
        };
        path.nodes(node, budget)?
            .into_iter()
            .map(|n| path.text(n, budget)?.map(parse).transpose())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acoi::tree::PNodeKind;

    fn build_tree() -> ParseTree {
        let mut t = ParseTree::new();
        let mmo = t.add(None, "MMO", PNodeKind::Variable);
        let segment = t.add(Some(mmo), "segment", PNodeKind::Detector);
        // Shot 1: tennis with netplay.
        let s1 = t.add(Some(segment), "shot", PNodeKind::Variable);
        add_frame(&mut t, s1, "begin", 0);
        add_frame(&mut t, s1, "end", 59);
        let ty1 = t.add(Some(s1), "type", PNodeKind::Variable);
        let tennis = t.add(Some(ty1), "tennis", PNodeKind::Detector);
        let event = t.add(Some(tennis), "event", PNodeKind::Variable);
        let np = t.add(Some(event), "netplay", PNodeKind::Detector);
        t.set_value(np, FeatureValue::Bit(true));
        // Shot 2: other.
        let s2 = t.add(Some(segment), "shot", PNodeKind::Variable);
        add_frame(&mut t, s2, "begin", 60);
        add_frame(&mut t, s2, "end", 89);
        let ty2 = t.add(Some(s2), "type", PNodeKind::Variable);
        let lit = t.add(Some(ty2), "literal", PNodeKind::Literal);
        t.set_value(lit, FeatureValue::from("other"));
        t
    }

    fn add_frame(t: &mut ParseTree, parent: PNodeId, tag: &str, v: i64) {
        let n = t.add(Some(parent), tag, PNodeKind::Variable);
        let f = t.add(Some(n), "frameNo", PNodeKind::Terminal);
        t.set_value(f, FeatureValue::Int(v));
    }

    #[test]
    fn shots_are_extracted_with_classification() {
        let shots = video_shots(&build_tree());
        assert_eq!(
            shots,
            vec![
                ShotMeta {
                    begin: 0,
                    end: 59,
                    is_tennis: true,
                    netplay: Some(true)
                },
                ShotMeta {
                    begin: 60,
                    end: 89,
                    is_tennis: false,
                    netplay: None
                },
            ]
        );
    }

    #[test]
    fn empty_tree_has_no_shots() {
        assert!(video_shots(&ParseTree::new()).is_empty());
    }

    /// The path reads of every stored source equal the projection of its
    /// rebuilt tree; returns how many shots and true verdicts were seen.
    fn assert_paths_match_trees(engine: &crate::Engine) -> (usize, usize) {
        let (grammar, meta) = (engine.grammar(), engine.meta());
        let netplay = MediaPaths::new(grammar, meta.store(), "netplay");
        let interview = MediaPaths::new(grammar, meta.store(), "isInterview");
        let budget = Budget::unlimited();
        let (mut shots, mut verdicts) = (0, 0);
        for source in meta.sources() {
            let tree = meta.tree(grammar, source).unwrap();
            let root = meta.store().root_for_source(source).unwrap();
            let read = netplay.shots(root, &budget).unwrap();
            assert_eq!(read, video_shots(&tree), "{source}");
            shots += read.len();
            for (paths, event) in [(&netplay, "netplay"), (&interview, "isInterview")] {
                let holds = tree
                    .find_all(event)
                    .into_iter()
                    .any(|n| tree.value(n) == Some(&FeatureValue::Bit(true)));
                assert_eq!(paths.holds(root, &budget).unwrap(), holds, "{source} {event}");
                verdicts += usize::from(holds);
            }
        }
        (shots, verdicts)
    }

    #[test]
    fn path_reads_match_the_rebuilt_trees_through_regenerations() {
        use std::sync::Arc;
        use websim::{crawl, Site, SiteSpec};

        let site = Arc::new(Site::generate(SiteSpec {
            players: 6,
            articles: 2,
            seed: 7,
        }));
        let mut engine = crate::ausopen::engine(Arc::clone(&site)).unwrap();
        engine.populate(&crawl(&site)).unwrap();
        let (shots, verdicts) = assert_paths_match_trees(&engine);
        assert!(shots > 0 && verdicts > 0, "{shots} shots, {verdicts} true verdicts");

        // A regeneration deletes the stored tree and inserts it anew.
        // Deletes swap-remove rows, so the storage order of the shots
        // stops being their document order.
        let sources = engine.meta().sources().to_vec();
        for round in 0..2 {
            for source in sources.iter().skip(round).step_by(2) {
                assert!(engine.refresh_source(source, |_| false).unwrap());
            }
        }
        assert_paths_match_trees(&engine);

        // A tracker that puts every player at the net changes the
        // netplay verdicts of every tennis shot.
        let at_net: acoi::DetectorFn = Box::new(|inputs| {
            let begin = inputs[1].as_f64().ok_or("no begin")? as i64;
            Ok(vec![
                acoi::Token::new("frameNo", begin),
                acoi::Token::new("xPos", 320.0),
                acoi::Token::new("yPos", 100.0),
                acoi::Token::new("Area", 1000i64),
                acoi::Token::new("Ecc", 0.9),
                acoi::Token::new("Orient", 90.0),
            ])
        });
        let mut job = engine
            .begin_upgrade("tennis", acoi::RevisionLevel::Minor, at_net)
            .unwrap();
        job.run().unwrap();
        assert!(engine.commit_maintenance(job).unwrap().objects_reparsed > 0);
        assert_paths_match_trees(&engine);
    }
}
