//! Abstract syntax of feature grammars.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::expr::{Expr, Quantifier};
use crate::symbols::SymbolTable;

/// A dotted path into the parse tree (`begin.frameNo`); paths "can only
/// refer to preceding symbols", which the FDE enforces at run time.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathExpr(pub Vec<String>);

impl PathExpr {
    /// The path's segments.
    pub fn segments(&self) -> &[String] {
        &self.0
    }
}

impl std::fmt::Display for PathExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0.join("."))
    }
}

/// The `%start` declaration: the start symbol and the minimum token set
/// that must be supplied to kick off parsing (Figure 6: `MMO(location)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StartDecl {
    /// The start symbol (a variable or detector).
    pub symbol: String,
    /// Paths naming the initial tokens.
    pub args: Vec<PathExpr>,
}

/// How a blackbox detector's implementation is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Transport {
    /// Linked into the parser (the paper's C-linked `header` detector).
    Linked,
    /// Remote procedure via XML-RPC (`xml-rpc::segment`).
    XmlRpc,
    /// Distributed object via CORBA (`corba::…`).
    Corba,
    /// Plain system call (`exec::…`).
    Exec,
}

impl Transport {
    /// Parses a transport prefix identifier.
    pub fn from_prefix(prefix: &str) -> Option<Transport> {
        match prefix {
            "xml-rpc" => Some(Transport::XmlRpc),
            "corba" => Some(Transport::Corba),
            "exec" => Some(Transport::Exec),
            _ => None,
        }
    }
}

/// The lifecycle events of special detectors (Figure 6, lines 4–5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpecialEvent {
    /// Called the first time the parser encounters the symbol.
    Init,
    /// Called when the parser finishes (if init succeeded).
    Final,
    /// Called every time the symbol is entered.
    Begin,
    /// Called every time the symbol is completed.
    End,
}

impl SpecialEvent {
    /// Parses `init` / `final` / `begin` / `end`.
    pub fn from_name(name: &str) -> Option<SpecialEvent> {
        match name {
            "init" => Some(SpecialEvent::Init),
            "final" => Some(SpecialEvent::Final),
            "begin" => Some(SpecialEvent::Begin),
            "end" => Some(SpecialEvent::End),
            _ => None,
        }
    }
}

/// What kind of detector a declaration introduces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DetectorKind {
    /// Implementation outside the grammar; only inputs/outputs are known.
    Blackbox {
        /// How the implementation is reached.
        transport: Transport,
        /// Input token paths.
        inputs: Vec<PathExpr>,
    },
    /// Fully specified inside the grammar as a boolean predicate,
    /// optionally quantified over parse-tree instances
    /// (`some[tennis.frame](…)`).
    Whitebox {
        /// Quantifier binding, if any.
        quantifier: Option<(Quantifier, PathExpr)>,
        /// The predicate.
        predicate: Expr,
    },
    /// A lifecycle hook attached to another symbol
    /// (`%detector header.init();`).
    Special {
        /// The symbol the hook is attached to.
        target: String,
        /// Which lifecycle event.
        event: SpecialEvent,
    },
}

/// A `%detector` declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorDecl {
    /// The detector symbol name (for special detectors, the hook's own
    /// composite name, e.g. `header.init`).
    pub name: String,
    /// Its kind.
    pub kind: DetectorKind,
}

/// A `%atom` declaration: either a new ADT (`%atom url;`) or terminals of
/// an ADT (`%atom flt xPos,yPos;`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AtomDecl {
    /// Declares a new abstract data type.
    Type(String),
    /// Declares terminal symbols with the given type.
    Terminals {
        /// The ADT name.
        ty: String,
        /// The terminal symbol names.
        names: Vec<String>,
    },
}

/// Repetition bounds on a right-hand-side term (regular right parts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rep {
    /// Exactly one.
    One,
    /// `?` — zero or one.
    Opt,
    /// `*` — zero or more.
    Star,
    /// `+` — one or more.
    Plus,
}

impl Rep {
    /// Whether the lower bound is greater than zero (an *obligatory*
    /// term — the paper's rule-dependency definition hinges on this).
    pub fn obligatory(self) -> bool {
        matches!(self, Rep::One | Rep::Plus)
    }
}

/// A term in a right-hand side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Term {
    /// A symbol occurrence (variable, detector or terminal).
    Symbol(String),
    /// A literal token that must match exactly (`"tennis"` in Figure 7 —
    /// "using this type information … the right alternative can directly
    /// be validated").
    Literal(String),
    /// A reference to another symbol's subtree (`&MMO` in Figure 14) —
    /// turns the parse tree into a graph without re-parsing.
    Reference(String),
    /// A parenthesised group of alternatives, each a sequence.
    Group(Vec<Vec<TermRep>>),
}

/// A term with its repetition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TermRep {
    /// The term.
    pub term: Term,
    /// Its repetition bound.
    pub rep: Rep,
}

/// One production rule `lhs : rhs ;`. Several rules with the same
/// left-hand side are alternatives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// Left-hand-side symbol.
    pub lhs: String,
    /// Right-hand-side sequence.
    pub rhs: Vec<TermRep>,
}

impl Rule {
    /// The last obligatory *symbol* term of this rule, per the paper's
    /// rule-dependency definition ("the last symbol with a lower bound
    /// greater than zero").
    pub fn last_obligatory_symbol(&self) -> Option<&str> {
        self.rhs.iter().rev().find_map(|tr| {
            if !tr.rep.obligatory() {
                return None;
            }
            match &tr.term {
                Term::Symbol(s) | Term::Reference(s) => Some(s.as_str()),
                _ => None,
            }
        })
    }

    /// All symbol names mentioned anywhere in the rhs (flattening groups,
    /// including references, excluding literals).
    pub fn rhs_symbols(&self) -> Vec<&str> {
        fn collect<'a>(terms: &'a [TermRep], out: &mut Vec<&'a str>) {
            for tr in terms {
                match &tr.term {
                    Term::Symbol(s) | Term::Reference(s) => out.push(s),
                    Term::Literal(_) => {}
                    Term::Group(alts) => {
                        for alt in alts {
                            collect(alt, out);
                        }
                    }
                }
            }
        }
        let mut out = Vec::new();
        collect(&self.rhs, &mut out);
        out
    }
}

/// A complete feature grammar.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grammar {
    start: StartDecl,
    detectors: Vec<DetectorDecl>,
    atoms: Vec<AtomDecl>,
    rules: Vec<Rule>,
    symbols: SymbolTable,
    /// lhs → indexes into `rules`, preserving declaration order (the FDE
    /// tries alternatives in this order).
    rule_index: HashMap<String, Vec<usize>>,
}

impl Grammar {
    pub(crate) fn assemble(
        start: StartDecl,
        detectors: Vec<DetectorDecl>,
        atoms: Vec<AtomDecl>,
        rules: Vec<Rule>,
        symbols: SymbolTable,
    ) -> Self {
        let mut rule_index: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, rule) in rules.iter().enumerate() {
            rule_index.entry(rule.lhs.clone()).or_default().push(i);
        }
        Grammar {
            start,
            detectors,
            atoms,
            rules,
            symbols,
            rule_index,
        }
    }

    /// The `%start` declaration.
    pub fn start(&self) -> &StartDecl {
        &self.start
    }

    /// All detector declarations (including special hooks).
    pub fn detectors(&self) -> &[DetectorDecl] {
        &self.detectors
    }

    /// The declaration of detector `name`, if any (not special hooks).
    pub fn detector(&self, name: &str) -> Option<&DetectorDecl> {
        self.detectors
            .iter()
            .find(|d| d.name == name && !matches!(d.kind, DetectorKind::Special { .. }))
    }

    /// All atom declarations.
    pub fn atoms(&self) -> &[AtomDecl] {
        &self.atoms
    }

    /// All rules, in declaration order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The alternatives for `lhs`, in declaration order.
    pub fn rules_for(&self, lhs: &str) -> Vec<&Rule> {
        self.rule_index
            .get(lhs)
            .map(|idxs| idxs.iter().map(|&i| &self.rules[i]).collect())
            .unwrap_or_default()
    }

    /// The symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The derivation closure of `sym`: every symbol reachable from it
    /// through rule right-hand sides (including optional and repeated
    /// terms). This is the full set of symbols that can occur in a parse
    /// subtree rooted at `sym` — the set the FDS must treat as
    /// invalidated when `sym`'s detector changes. (The dependency-graph
    /// walk of Figure 8 follows only *last-obligatory* rule edges; on
    /// grammars with starred rules such as `segment : shot*` that walk
    /// under-approximates, so maintenance uses this closure instead.)
    pub fn derivation_closure(&self, sym: &str) -> std::collections::BTreeSet<String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut queue = vec![sym.to_owned()];
        seen.insert(sym.to_owned());
        while let Some(cur) = queue.pop() {
            for rule in self.rules_for(&cur) {
                for s in rule.rhs_symbols() {
                    if seen.insert(s.to_owned()) {
                        queue.push(s.to_owned());
                    }
                }
            }
        }
        seen
    }

    /// Composes two grammars into one (the paper's future-work hook:
    /// "a similar close connection can be realized … From the webspace
    /// schema a feature grammar can be derived, containing references
    /// to, for example, the MMO start symbol" — an Internet grammar
    /// whose `&MMO` references resolve against the video grammar's
    /// rules).
    ///
    /// `self`'s start declaration wins; declarations and rules are
    /// concatenated. Conflicts — a detector declared in both with
    /// different kinds, or a terminal declared with different ADTs — are
    /// errors. Identical re-declarations deduplicate; same-lhs rules
    /// become additional alternatives (self's first).
    pub fn merge(&self, other: &Grammar) -> crate::error::Result<Grammar> {
        use crate::error::Error;

        let mut detectors = self.detectors.clone();
        for det in &other.detectors {
            match detectors.iter().find(|d| d.name == det.name) {
                Some(existing) if existing.kind == det.kind => {}
                Some(_) => {
                    return Err(Error::Validation(format!(
                        "detector `{}` declared differently in both grammars",
                        det.name
                    )))
                }
                None => detectors.push(det.clone()),
            }
        }

        let mut atoms = self.atoms.clone();
        for atom in &other.atoms {
            match atom {
                AtomDecl::Type(_) => {
                    if !atoms.contains(atom) {
                        atoms.push(atom.clone());
                    }
                }
                AtomDecl::Terminals { ty, names } => {
                    for name in names {
                        let conflicting = atoms.iter().any(|a| match a {
                            AtomDecl::Terminals {
                                ty: existing_ty,
                                names: existing,
                            } => existing.contains(name) && existing_ty != ty,
                            AtomDecl::Type(_) => false,
                        });
                        if conflicting {
                            return Err(Error::Validation(format!(
                                "atom `{name}` declared with different ADTs in the two grammars"
                            )));
                        }
                    }
                    atoms.push(atom.clone());
                }
            }
        }

        let mut rules = self.rules.clone();
        for rule in &other.rules {
            if !rules.contains(rule) {
                rules.push(rule.clone());
            }
        }

        let symbols = crate::symbols::build_table(&detectors, &atoms, &rules);
        Ok(Grammar::assemble(
            self.start.clone(),
            detectors,
            atoms,
            rules,
            symbols,
        ))
    }

    /// All symbols that are parents of `sym` (their rules mention it in
    /// the rhs) — the upward direction of the FDS's invalidation walk.
    pub fn parents_of(&self, sym: &str) -> Vec<&str> {
        let mut out = Vec::new();
        for rule in &self.rules {
            if rule.rhs_symbols().contains(&sym) && !out.contains(&rule.lhs.as_str()) {
                out.push(rule.lhs.as_str());
            }
        }
        out
    }
}
