//! The Feature Detector Engine.
//!
//! "The current FDE implementation uses a recursive descent algorithm …
//! the FDE works top-down and left-to-right by trying to prove that the
//! start symbol of the grammar is valid. While doing this the FDE manages
//! a stack of tokens (the input sentence), a parse tree, and a set of
//! feature detectors. Tokens are matched against the production rules and
//! move from the stack to the parse tree. Upon its way through the
//! production rules the FDE encounters the detector symbols and executes
//! their associated algorithms. The algorithms produce new tokens which
//! are pushed on the token stack."
//!
//! Semantics worth calling out (each traced to the paper):
//!
//! * **Alternatives backtrack.** Saving the token stack is O(1) in the
//!   default [`StackMode::Shared`] (suffix sharing); the naive
//!   [`StackMode::Copying`] baseline exists for experiment E7.
//! * **Literals select alternatives** before any detector in the same
//!   alternative runs (`type : "tennis" tennis;` — "the right
//!   alternative can directly be validated"), so mis-typed shots never
//!   trigger the expensive tennis detector.
//! * **Whitebox detectors that are also atoms** (Figure 7's `netplay`,
//!   declared `%atom bit netplay`) always succeed and store their boolean
//!   outcome as the node value; whitebox detectors that are *not* atoms
//!   (`video_type`) act as guards — a false predicate rejects the
//!   alternative.
//! * **Special hooks**: `init` fires on the first encounter of a symbol,
//!   `begin`/`end` on every encounter, `final` after a successful parse
//!   (only if `init` fired) — Figure 6 lines 4–5.
//! * **Detector memoisation** ([`Fde::parse_with_cache`]) is the engine
//!   half of incremental maintenance: the FDS extracts the token output
//!   of still-valid detector instances from stored parse trees, and the
//!   engine reuses them instead of re-running the algorithms — "the main
//!   goal of this process is to prevent the regeneration, and the
//!   associated calls to detectors, of the complete parse tree".

use std::collections::{HashMap, HashSet};

use feagram::ast::{DetectorKind, SpecialEvent, Term, TermRep};
use feagram::{FeatureValue, Grammar};

use crate::detector::DetectorRegistry;
use crate::error::{Error, Result};
use crate::token::{CopyingStack, SharedStack, Token, TokenStack};
use crate::tree::{PNodeId, PNodeKind, ParseTree, TreeCtx};

/// Which token-stack representation the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StackMode {
    /// Suffix-sharing persistent stack (the paper's choice).
    #[default]
    Shared,
    /// Whole-vector copies at every save point (the strawman).
    Copying,
}

/// Counters reported after a parse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FdeStats {
    /// Blackbox detector executions.
    pub detector_calls: usize,
    /// Detector executions avoided via the FDS cache.
    pub cache_hits: usize,
    /// Tokens moved from the stack into the parse tree.
    pub tokens_consumed: usize,
    /// Alternatives abandoned (stack/tree rollbacks).
    pub backtracks: usize,
    /// High-water mark of the token stack.
    pub max_stack: usize,
    /// Nodes in the resulting tree.
    pub nodes: usize,
    /// Detector nodes recorded as rejected-with-cause because their
    /// implementation was unavailable (transport failure, deadline,
    /// open circuit breaker).
    pub rejected_nodes: usize,
}

/// Memoised detector outputs, keyed by detector name and the lexical
/// forms of its inputs. Built by the FDS from stored parse trees.
#[derive(Debug, Clone, Default)]
pub struct DetectorCache {
    entries: HashMap<(String, Vec<String>), Vec<Token>>,
}

impl DetectorCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a memoised output.
    pub fn insert(&mut self, detector: &str, inputs: &[FeatureValue], tokens: Vec<Token>) {
        let key = (
            detector.to_owned(),
            inputs.iter().map(FeatureValue::lexical).collect(),
        );
        self.entries.insert(key, tokens);
    }

    /// Looks up a memoised output.
    pub fn get(&self, detector: &str, inputs: &[FeatureValue]) -> Option<&Vec<Token>> {
        let key = (
            detector.to_owned(),
            inputs.iter().map(FeatureValue::lexical).collect(),
        );
        self.entries.get(&key)
    }

    /// Number of memoised entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The engine. Borrows the grammar and the detector registry for the
/// duration of one or more parses.
pub struct Fde<'g> {
    grammar: &'g Grammar,
    registry: &'g DetectorRegistry,
    mode: StackMode,
    stats: FdeStats,
}

enum Flow {
    /// The current alternative failed; backtracking may recover.
    Mismatch(String),
    /// Unrecoverable (unregistered detector, grammar hole, hook error).
    Hard(Error),
}

type FResult<T> = std::result::Result<T, Flow>;

/// Per-parse state threaded through the recursion.
struct RunCtx<'a> {
    cache: &'a DetectorCache,
    inited: HashSet<String>,
    /// Tokens bound to the start detector's inputs (see `run`).
    start_inputs: Vec<Token>,
}

impl<'g> Fde<'g> {
    /// An engine with the default (suffix-sharing) stack.
    ///
    /// The registry is borrowed *shared*: a maintenance job's engine can
    /// parse against the registry the serving engine also holds.
    pub fn new(grammar: &'g Grammar, registry: &'g DetectorRegistry) -> Self {
        Self::with_mode(grammar, registry, StackMode::Shared)
    }

    /// An engine with an explicit stack mode.
    pub fn with_mode(
        grammar: &'g Grammar,
        registry: &'g DetectorRegistry,
        mode: StackMode,
    ) -> Self {
        Fde {
            grammar,
            registry,
            mode,
            stats: FdeStats::default(),
        }
    }

    /// Counters from the most recent parse.
    pub fn stats(&self) -> FdeStats {
        self.stats
    }

    /// Proves the start symbol over `initial` (the minimum token set of
    /// the `%start` declaration) and returns the parse tree.
    pub fn parse(&mut self, initial: Vec<Token>) -> Result<ParseTree> {
        self.parse_with_cache(initial, &DetectorCache::new())
    }

    /// Like [`Fde::parse`], but detector instances found in `cache`
    /// reuse their memoised token output instead of executing.
    pub fn parse_with_cache(
        &mut self,
        initial: Vec<Token>,
        cache: &DetectorCache,
    ) -> Result<ParseTree> {
        self.stats = FdeStats::default();
        match self.mode {
            StackMode::Shared => self.run::<SharedStack>(initial, cache),
            StackMode::Copying => self.run::<CopyingStack>(initial, cache),
        }
    }

    fn run<S: TokenStack>(
        &mut self,
        mut initial: Vec<Token>,
        cache: &DetectorCache,
    ) -> Result<ParseTree> {
        let start = self.grammar.start().symbol.clone();
        let mut tree = ParseTree::new();

        // When the start symbol is itself a blackbox detector (the
        // Internet grammar's `html`), its declared inputs bind directly
        // from the minimum token set — there is no parse tree yet to
        // resolve paths against. The bound tokens are consumed here and
        // materialise as children of the detector node (compare Figure 9,
        // where the object's location appears on the dumped root).
        let mut start_inputs = Vec::new();
        if let Some(decl) = self.grammar.detector(&start) {
            if let DetectorKind::Blackbox { inputs, .. } = &decl.kind {
                for path in inputs {
                    if let Some(last) = path.segments().last() {
                        if let Some(pos) =
                            initial.iter().position(|t| &t.symbol == last)
                        {
                            start_inputs.push(initial.remove(pos));
                        }
                    }
                }
            }
        }

        let mut stack = S::from_tokens(initial);
        self.stats.max_stack = stack.len();
        let mut ctx = RunCtx {
            cache,
            inited: HashSet::new(),
            start_inputs,
        };

        let outcome = self.parse_symbol(&mut tree, None, &start, &mut stack, &mut ctx);
        let inited = ctx.inited;
        match outcome {
            Ok(_) => {
                if !stack.is_empty() {
                    return Err(Error::Reject {
                        symbol: start,
                        reason: format!("{} unconsumed token(s) remain", stack.len()),
                    });
                }
                // Fire `final` hooks for every inited symbol.
                for symbol in &inited {
                    self.registry
                        .fire_hook(symbol, SpecialEvent::Final)
                        .map_err(|e| Error::Grammar(e.to_string()))?;
                }
                self.stats.nodes = tree.len();
                Ok(tree)
            }
            Err(Flow::Mismatch(reason)) => Err(Error::Reject {
                symbol: start,
                reason,
            }),
            Err(Flow::Hard(e)) => Err(e),
        }
    }

    fn parse_symbol<S: TokenStack>(
        &mut self,
        tree: &mut ParseTree,
        parent: Option<PNodeId>,
        sym: &str,
        stack: &mut S,
        ctx: &mut RunCtx<'_>,
    ) -> FResult<PNodeId> {
        // Lifecycle hooks: init on first encounter, begin on every one.
        if ctx.inited.insert(sym.to_owned()) {
            self.registry
                .fire_hook(sym, SpecialEvent::Init)
                .map_err(|e| Flow::Hard(Error::Grammar(e.to_string())))?;
        }
        self.registry
            .fire_hook(sym, SpecialEvent::Begin)
            .map_err(|e| Flow::Mismatch(e.to_string()))?;

        let node = match self.grammar.detector(sym).map(|d| d.kind.clone()) {
            Some(DetectorKind::Blackbox { inputs, .. }) => {
                self.parse_blackbox(tree, parent, sym, &inputs, stack, ctx)?
            }
            Some(DetectorKind::Whitebox { predicate, .. }) => {
                let node = tree.add(parent, sym, PNodeKind::Detector);
                let holds = {
                    let ctx = TreeCtx::new(tree, node);
                    predicate
                        .eval_bool(&ctx)
                        .map_err(|e| Flow::Mismatch(e.to_string()))?
                };
                if self.grammar.symbols().terminal_type(sym).is_some() {
                    // Atom-paired whitebox (netplay): outcome is the value.
                    tree.set_value(node, FeatureValue::Bit(holds));
                } else if holds {
                    tree.set_value(node, FeatureValue::Bit(true));
                } else {
                    return Err(Flow::Mismatch(format!(
                        "whitebox detector `{sym}` predicate is false"
                    )));
                }
                // A whitebox may also have structural rules.
                if !self.grammar.rules_for(sym).is_empty() {
                    self.parse_alternatives(tree, node, sym, stack, ctx)?;
                }
                node
            }
            Some(DetectorKind::Special { .. }) | None => {
                if let Some(ty) = self.grammar.symbols().terminal_type(sym) {
                    let ty = ty.to_owned();
                    self.parse_terminal(tree, parent, sym, &ty, stack)?
                } else if !self.grammar.rules_for(sym).is_empty() {
                    let node = tree.add(parent, sym, PNodeKind::Variable);
                    self.parse_alternatives(tree, node, sym, stack, ctx)?;
                    node
                } else {
                    return Err(Flow::Hard(Error::Grammar(format!(
                        "symbol `{sym}` has neither rules, an ADT, nor a detector binding"
                    ))));
                }
            }
        };

        self.registry
            .fire_hook(sym, SpecialEvent::End)
            .map_err(|e| Flow::Mismatch(e.to_string()))?;
        Ok(node)
    }

    fn parse_blackbox<S: TokenStack>(
        &mut self,
        tree: &mut ParseTree,
        parent: Option<PNodeId>,
        sym: &str,
        input_paths: &[feagram::ast::PathExpr],
        stack: &mut S,
        ctx: &mut RunCtx<'_>,
    ) -> FResult<PNodeId> {
        let node = tree.add(parent, sym, PNodeKind::Detector);

        // Resolve input paths against the tree built so far ("paths can
        // only refer to preceding symbols"); the most recent match wins.
        // Start-detector inputs fall back to the bound initial tokens and
        // materialise as children of the detector node.
        let mut inputs = Vec::with_capacity(input_paths.len());
        for path in input_paths {
            if let Some(value) = tree.resolve_values(node, path.segments()).pop() {
                inputs.push(value);
                continue;
            }
            let last = path.segments().last().map(String::as_str).unwrap_or("");
            if let Some(pos) = ctx.start_inputs.iter().position(|t| t.symbol == last) {
                let token = ctx.start_inputs.remove(pos);
                let child = tree.add(Some(node), &token.symbol, PNodeKind::Terminal);
                tree.set_value(child, token.value.clone());
                inputs.push(token.value);
                continue;
            }
            return Err(Flow::Mismatch(format!(
                "input path `{path}` of `{sym}` matched no token"
            )));
        }

        // Cache hit = detector call avoided (incremental maintenance).
        let tokens = if let Some(cached) = ctx.cache.get(sym, &inputs) {
            self.stats.cache_hits += 1;
            cached.clone()
        } else {
            self.stats.detector_calls += 1;
            match self.registry.run(sym, &inputs) {
                Ok(tokens) => tokens,
                Err(e @ Error::UnregisteredDetector(_)) => return Err(Flow::Hard(e)),
                // The detector never ran — infrastructure, not a verdict
                // about the media object. Record an incomplete node with
                // its cause (no version, so the FDS never reuses it) and
                // keep parsing: the rest of the object's metadata is
                // better than none, and a healing re-parse can fill the
                // hole once the detector recovers.
                Err(Error::DetectorUnavailable { cause, .. }) => {
                    self.stats.rejected_nodes += 1;
                    tree.set_rejected(node, cause);
                    return Ok(node);
                }
                Err(other) => return Err(Flow::Mismatch(other.to_string())),
            }
        };
        if let Some(version) = self.registry.version(sym) {
            tree.set_version(node, version);
        }

        stack.push_front_all(tokens);
        self.stats.max_stack = self.stats.max_stack.max(stack.len());

        self.parse_alternatives(tree, node, sym, stack, ctx)?;
        Ok(node)
    }

    fn parse_terminal<S: TokenStack>(
        &mut self,
        tree: &mut ParseTree,
        parent: Option<PNodeId>,
        sym: &str,
        ty: &str,
        stack: &mut S,
    ) -> FResult<PNodeId> {
        match stack.peek() {
            Some(token) if token.symbol == sym => {
                if token.value.type_name() != ty {
                    return Err(Flow::Mismatch(format!(
                        "token `{sym}` has type {}, expected {ty}",
                        token.value.type_name()
                    )));
                }
                let token = stack.pop().expect("peeked");
                self.stats.tokens_consumed += 1;
                let node = tree.add(parent, sym, PNodeKind::Terminal);
                tree.set_value(node, token.value.clone());
                Ok(node)
            }
            Some(token) => Err(Flow::Mismatch(format!(
                "expected terminal `{sym}`, next token is `{}`",
                token.symbol
            ))),
            None => Err(Flow::Mismatch(format!(
                "expected terminal `{sym}`, token stack is empty"
            ))),
        }
    }

    fn parse_alternatives<S: TokenStack>(
        &mut self,
        tree: &mut ParseTree,
        node: PNodeId,
        sym: &str,
        stack: &mut S,
        ctx: &mut RunCtx<'_>,
    ) -> FResult<()> {
        let rules = self.grammar.rules_for(sym);
        let mut last_reason = format!("no alternative of `{sym}` matched");
        for rule in rules {
            let mark = tree.mark(Some(node));
            let saved = stack.clone(); // O(1) in shared mode
            match self.parse_sequence(tree, node, &rule.rhs, stack, ctx) {
                Ok(()) => return Ok(()),
                Err(Flow::Mismatch(reason)) => {
                    tree.rollback(mark);
                    *stack = saved;
                    self.stats.backtracks += 1;
                    last_reason = reason;
                }
                Err(hard) => return Err(hard),
            }
        }
        Err(Flow::Mismatch(last_reason))
    }

    fn parse_sequence<S: TokenStack>(
        &mut self,
        tree: &mut ParseTree,
        node: PNodeId,
        terms: &[TermRep],
        stack: &mut S,
        ctx: &mut RunCtx<'_>,
    ) -> FResult<()> {
        for tr in terms {
            match tr.rep {
                feagram::Rep::One => {
                    self.parse_term(tree, node, &tr.term, stack, ctx)?;
                }
                feagram::Rep::Opt => {
                    let mark = tree.mark(Some(node));
                    let saved = stack.clone();
                    if let Err(Flow::Mismatch(_)) =
                        self.parse_term(tree, node, &tr.term, stack, ctx)
                    {
                        tree.rollback(mark);
                        *stack = saved;
                        self.stats.backtracks += 1;
                    }
                }
                feagram::Rep::Star | feagram::Rep::Plus => {
                    if tr.rep == feagram::Rep::Plus {
                        self.parse_term(tree, node, &tr.term, stack, ctx)?;
                    }
                    loop {
                        let mark = tree.mark(Some(node));
                        let saved = stack.clone();
                        match self.parse_term(tree, node, &tr.term, stack, ctx) {
                            Ok(()) => {}
                            Err(Flow::Mismatch(_)) => {
                                tree.rollback(mark);
                                *stack = saved;
                                break;
                            }
                            Err(hard) => return Err(hard),
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn parse_term<S: TokenStack>(
        &mut self,
        tree: &mut ParseTree,
        node: PNodeId,
        term: &Term,
        stack: &mut S,
        ctx: &mut RunCtx<'_>,
    ) -> FResult<()> {
        match term {
            Term::Symbol(s) | Term::Reference(s) => {
                // References parse like symbols; structure sharing is a
                // storage concern (see DESIGN.md) — the subtree is built
                // in place.
                self.parse_symbol(tree, Some(node), s, stack, ctx)?;
                Ok(())
            }
            Term::Literal(lit) => match stack.peek() {
                Some(token) if token.value.as_str() == Some(lit.as_str()) => {
                    let token = stack.pop().expect("peeked");
                    self.stats.tokens_consumed += 1;
                    let lnode = tree.add(Some(node), "literal", PNodeKind::Literal);
                    tree.set_value(lnode, token.value.clone());
                    Ok(())
                }
                Some(token) => Err(Flow::Mismatch(format!(
                    "expected literal \"{lit}\", next token is `{}` = {}",
                    token.symbol, token.value
                ))),
                None => Err(Flow::Mismatch(format!(
                    "expected literal \"{lit}\", token stack is empty"
                ))),
            },
            Term::Group(alternatives) => {
                let mut last = "empty group".to_owned();
                for alt in alternatives {
                    let mark = tree.mark(Some(node));
                    let saved = stack.clone();
                    match self.parse_sequence(tree, node, alt, stack, ctx) {
                        Ok(()) => return Ok(()),
                        Err(Flow::Mismatch(reason)) => {
                            tree.rollback(mark);
                            *stack = saved;
                            self.stats.backtracks += 1;
                            last = reason;
                        }
                        Err(hard) => return Err(hard),
                    }
                }
                Err(Flow::Mismatch(last))
            }
        }
    }
}

/// Extracts the memoisable detector outputs from a stored parse tree:
/// for every blackbox detector node whose recorded version is still
/// current in `registry`, the tokens it emitted (the terminal and literal
/// values in its subtree, excluding nested detector subtrees) keyed by
/// its resolved inputs.
pub fn harvest_cache(
    grammar: &Grammar,
    registry: &DetectorRegistry,
    tree: &ParseTree,
    reusable: impl Fn(&str) -> bool,
) -> DetectorCache {
    let mut cache = DetectorCache::new();
    let Some(root) = tree.root() else {
        return cache;
    };
    for node in tree.preorder(root) {
        let sym = tree.symbol(node);
        let Some(decl) = grammar.detector(sym) else {
            continue;
        };
        let DetectorKind::Blackbox { inputs, .. } = &decl.kind else {
            continue;
        };
        if !reusable(sym) {
            continue;
        }
        // The version recorded at parse time must still be current; a
        // correction-level difference is fine ("a correction revision …
        // will not lead to invalidation of any nodes").
        match (tree.version(node), registry.version(sym)) {
            (Some(stored), Some(current)) => match current.diff_level(stored) {
                None | Some(crate::detector::RevisionLevel::Correction) => {}
                Some(_) => continue,
            },
            _ => continue,
        }
        // Re-resolve the inputs the detector saw (paths are stable within
        // the stored tree).
        let mut input_values = Vec::new();
        let mut ok = true;
        for path in inputs {
            match tree.resolve_values(node, path.segments()).pop() {
                Some(v) => input_values.push(v),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        let tokens = emitted_tokens(grammar, tree, node);
        cache.insert(sym, &input_values, tokens);
    }
    cache
}

/// The tokens a detector node emitted: terminal and literal values in its
/// subtree, in document order, skipping nested detector subtrees (their
/// tokens belong to them).
fn emitted_tokens(grammar: &Grammar, tree: &ParseTree, det: PNodeId) -> Vec<Token> {
    let mut out = Vec::new();
    let mut stack: Vec<PNodeId> = tree.children(det).iter().rev().copied().collect();
    while let Some(n) = stack.pop() {
        let sym = tree.symbol(n);
        if grammar.detector(sym).is_some() {
            continue; // nested detector: its subtree is its own output
        }
        match tree.kind(n) {
            PNodeKind::Terminal | PNodeKind::Literal => {
                if let Some(v) = tree.value(n) {
                    out.push(Token {
                        symbol: sym.to_owned(),
                        value: v.clone(),
                    });
                }
            }
            _ => {}
        }
        for c in tree.children(n).iter().rev() {
            stack.push(*c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Version;
    use feagram::parse_grammar;

    /// Registers simulated implementations of the video grammar's three
    /// blackbox detectors against a tiny scripted "video".
    ///
    /// The script: shots alternating tennis/other; tennis shots get two
    /// frames each, the player approaching the net (yPos 150) only in
    /// shot 0.
    fn video_registry(num_shots: usize) -> DetectorRegistry {
        let mut reg = DetectorRegistry::new();
        reg.register(
            "header",
            Version::new(1, 0, 0),
            Box::new(|inputs| {
                let url = inputs[0].as_str().ok_or("no url")?;
                if url.ends_with(".mpg") {
                    Ok(vec![
                        Token::new("primary", "video"),
                        Token::new("secondary", "mpeg"),
                    ])
                } else {
                    Ok(vec![
                        Token::new("primary", "image"),
                        Token::new("secondary", "jpeg"),
                    ])
                }
            }),
        );
        reg.register(
            "segment",
            Version::new(1, 0, 0),
            Box::new(move |_| {
                let mut tokens = Vec::new();
                for s in 0..num_shots {
                    let begin = (s * 100) as i64;
                    let end = begin + 99;
                    tokens.push(Token::new("frameNo", begin));
                    tokens.push(Token::new("frameNo", end));
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
                    tokens.push(Token::new(
                        "yPos",
                        if begin == 0 { 150.0 } else { 400.0 },
                    ));
                    tokens.push(Token::new("Area", 1200i64));
                    tokens.push(Token::new("Ecc", 0.8));
                    tokens.push(Token::new("Orient", 12.0));
                }
                Ok(tokens)
            }),
        );
        reg
    }

    fn mmo_tokens(url: &str) -> Vec<Token> {
        vec![Token::new("location", FeatureValue::url(url))]
    }

    #[test]
    fn video_grammar_end_to_end() {
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let reg = video_registry(4);
        let mut fde = Fde::new(&g, &reg);
        let tree = fde.parse(mmo_tokens("http://ausopen.org/final.mpg")).unwrap();

        // 4 shots, alternating tennis/other.
        assert_eq!(tree.find_all("shot").len(), 4);
        assert_eq!(tree.find_all("tennis").len(), 2);
        // netplay: true for shot 0 (yPos 150), false for shot 2 (yPos 400).
        let netplays: Vec<_> = tree
            .find_all("netplay")
            .into_iter()
            .map(|n| tree.value(n).cloned().unwrap())
            .collect();
        assert_eq!(
            netplays,
            vec![FeatureValue::Bit(true), FeatureValue::Bit(false)]
        );
        // Detector calls: header + segment + 2 tennis.
        let stats = fde.stats();
        assert_eq!(stats.detector_calls, 4);
        assert_eq!(stats.cache_hits, 0);
        assert!(stats.tokens_consumed > 0);
    }

    #[test]
    fn non_video_object_skips_the_video_pipeline() {
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let reg = video_registry(4);
        let mut fde = Fde::new(&g, &reg);
        let tree = fde.parse(mmo_tokens("http://ausopen.org/seles.jpg")).unwrap();
        // mm_type? was skipped: video_type guard failed on "image".
        assert!(tree.find_all("video").is_empty());
        assert!(tree.find_all("segment").is_empty());
        // Only the header ran.
        assert_eq!(fde.stats().detector_calls, 1);
        // The MIME type landed in the tree.
        let primary = tree.find_all("primary")[0];
        assert_eq!(tree.value(primary), Some(&FeatureValue::from("image")));
    }

    #[test]
    fn detector_versions_are_recorded_in_the_tree() {
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let reg = video_registry(2);
        let mut fde = Fde::new(&g, &reg);
        let tree = fde.parse(mmo_tokens("http://x/v.mpg")).unwrap();
        let header = tree.find_all("header")[0];
        assert_eq!(tree.version(header), Some(Version::new(1, 0, 0)));
    }

    #[test]
    fn copying_and_shared_stacks_produce_identical_trees() {
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let reg1 = video_registry(6);
        let mut shared = Fde::with_mode(&g, &reg1, StackMode::Shared);
        let t1 = shared.parse(mmo_tokens("http://x/v.mpg")).unwrap();
        let reg2 = video_registry(6);
        let mut copying = Fde::with_mode(&g, &reg2, StackMode::Copying);
        let t2 = copying.parse(mmo_tokens("http://x/v.mpg")).unwrap();
        assert_eq!(
            t1.to_document().unwrap(),
            t2.to_document().unwrap()
        );
    }

    #[test]
    fn missing_initial_token_rejects() {
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let reg = video_registry(1);
        let mut fde = Fde::new(&g, &reg);
        let err = fde.parse(vec![]).unwrap_err();
        assert!(matches!(err, Error::Reject { .. }), "{err}");
    }

    #[test]
    fn unregistered_detector_is_a_hard_error() {
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let reg = DetectorRegistry::new(); // nothing registered
        let mut fde = Fde::new(&g, &reg);
        let err = fde.parse(mmo_tokens("http://x/v.mpg")).unwrap_err();
        assert!(matches!(err, Error::UnregisteredDetector(_)), "{err}");
    }

    #[test]
    fn detector_failure_rejects_the_sentence() {
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let mut reg = video_registry(1);
        reg.register(
            "header",
            Version::new(1, 0, 1),
            Box::new(|_| Err("404 not found".into())),
        );
        let mut fde = Fde::new(&g, &reg);
        let err = fde.parse(mmo_tokens("http://x/v.mpg")).unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");
    }

    #[test]
    fn unavailable_detector_leaves_a_rejected_node_not_a_failed_parse() {
        use crate::detector::DetectorError;
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let mut reg = video_registry(4);
        reg.register(
            "segment",
            Version::new(1, 0, 1),
            Box::new(|_| Err(DetectorError::Unavailable("deadline exceeded".into()))),
        );
        let mut fde = Fde::new(&g, &reg);
        let tree = fde.parse(mmo_tokens("http://x/v.mpg")).unwrap();
        // The parse completed; the segment subtree is a hole with a cause.
        assert_eq!(fde.stats().rejected_nodes, 1);
        let rejected = tree.rejected_nodes();
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].1, "segment");
        assert_eq!(rejected[0].2, "deadline exceeded");
        // No version on the hole: the FDS can never mistake it for valid.
        assert_eq!(tree.version(rejected[0].0), None);
        assert!(tree.find_all("shot").is_empty());
        // The healthy part of the parse is intact.
        assert_eq!(tree.find_all("primary").len(), 1);
    }

    #[test]
    fn rejected_nodes_are_never_harvested_into_the_cache() {
        use crate::detector::DetectorError;
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let mut reg = video_registry(4);
        reg.register(
            "segment",
            Version::new(1, 0, 1),
            Box::new(|_| Err(DetectorError::Unavailable("circuit open".into()))),
        );
        let tree = {
            let mut fde = Fde::new(&g, &reg);
            fde.parse(mmo_tokens("http://x/v.mpg")).unwrap()
        };
        let cache = harvest_cache(&g, &reg, &tree, |_| true);
        assert!(cache
            .get("segment", &[FeatureValue::url("http://x/v.mpg")])
            .is_none());
    }

    #[test]
    fn hooks_fire_in_lifecycle_order() {
        use std::sync::{Arc, Mutex};
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let mut reg = video_registry(1);
        for (event, tag) in [
            (SpecialEvent::Init, "init"),
            (SpecialEvent::Begin, "begin"),
            (SpecialEvent::End, "end"),
            (SpecialEvent::Final, "final"),
        ] {
            let log = Arc::clone(&log);
            reg.register_hook(
                "header",
                event,
                Box::new(move || {
                    log.lock().unwrap().push(tag);
                    Ok(())
                }),
            );
        }
        let mut fde = Fde::new(&g, &reg);
        fde.parse(mmo_tokens("http://x/v.mpg")).unwrap();
        assert_eq!(*log.lock().unwrap(), vec!["init", "begin", "end", "final"]);
    }

    #[test]
    fn cache_hits_avoid_detector_calls() {
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let reg = video_registry(4);
        // First parse fills a tree; harvest the cache from it.
        let tree = {
            let mut fde = Fde::new(&g, &reg);
            fde.parse(mmo_tokens("http://x/v.mpg")).unwrap()
        };
        let cache = harvest_cache(&g, &reg, &tree, |_| true);
        assert!(cache.len() >= 4, "cache has {} entries", cache.len());

        // Second parse: everything memoised, zero detector executions.
        let mut fde = Fde::new(&g, &reg);
        let tree2 = fde
            .parse_with_cache(mmo_tokens("http://x/v.mpg"), &cache)
            .unwrap();
        assert_eq!(fde.stats().detector_calls, 0);
        assert_eq!(fde.stats().cache_hits, 4);
        assert_eq!(
            tree.to_document().unwrap(),
            tree2.to_document().unwrap()
        );
    }

    #[test]
    fn harvest_respects_version_mismatch() {
        let g = parse_grammar(feagram::paper::VIDEO_GRAMMAR).unwrap();
        let reg = video_registry(2);
        let tree = {
            let mut fde = Fde::new(&g, &reg);
            fde.parse(mmo_tokens("http://x/v.mpg")).unwrap()
        };
        // Upgrade segment: its stored output must not be reused.
        let bumped = reg
            .version("segment")
            .unwrap()
            .bumped(crate::detector::RevisionLevel::Minor);
        let _old = reg
            .replace("segment", bumped, Box::new(|_| Ok(vec![])))
            .unwrap();
        let cache = harvest_cache(&g, &reg, &tree, |_| true);
        // header + tennis remain; segment is out.
        assert!(cache
            .get("header", &[FeatureValue::url("http://x/v.mpg")])
            .is_some());
        assert!(cache
            .get("segment", &[FeatureValue::url("http://x/v.mpg")])
            .is_none());
    }

    #[test]
    fn internet_grammar_parses_an_html_page() {
        let g = parse_grammar(feagram::paper::INTERNET_GRAMMAR).unwrap();
        let mut reg = DetectorRegistry::new();
        reg.register(
            "html",
            Version::new(1, 0, 0),
            Box::new(|_| {
                Ok(vec![
                    Token::new("title", "Australian Open"),
                    Token::new("word", "tennis"),
                    Token::new("word", "champion"),
                    Token::new("location", FeatureValue::url("http://x/seles.jpg")),
                    Token::new("embedded", "img"),
                ])
            }),
        );
        reg.register(
            "header",
            Version::new(1, 0, 0),
            Box::new(|_| {
                Ok(vec![
                    Token::new("primary", "image"),
                    Token::new("secondary", "jpeg"),
                ])
            }),
        );
        let mut fde = Fde::new(&g, &reg);
        let tree = fde
            .parse(vec![Token::new(
                "location",
                FeatureValue::url("http://x/page.html"),
            )])
            .unwrap();
        assert_eq!(tree.find_all("keyword").len(), 2);
        assert_eq!(tree.find_all("anchor").len(), 1);
        assert_eq!(tree.find_all("MMO").len(), 1);
    }
}
