//! Symbol classification.
//!
//! The node types of the dependency graph (Figure 8) are the basic symbol
//! types of a feature grammar: **atoms** (terminals with an ADT),
//! **variables** and **detectors**. The symbol table records the class of
//! every name appearing in the grammar and the set of declared ADTs.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

/// The class of a grammar symbol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SymbolClass {
    /// A plain variable (appears as a rule lhs, not declared otherwise).
    Variable,
    /// A detector (bound to an algorithm or predicate).
    Detector,
    /// A terminal with its ADT name.
    Terminal(String),
}

/// The symbol table of one grammar.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymbolTable {
    classes: BTreeMap<String, SymbolClass>,
    adts: BTreeSet<String>,
}

/// The built-in ADTs every grammar knows.
pub const BUILTIN_ADTS: [&str; 4] = ["str", "int", "flt", "bit"];

impl SymbolTable {
    /// A table with only the built-in ADTs.
    pub fn new() -> Self {
        let mut adts = BTreeSet::new();
        for ty in BUILTIN_ADTS {
            adts.insert(ty.to_owned());
        }
        SymbolTable {
            classes: BTreeMap::new(),
            adts,
        }
    }

    /// Declares a new ADT (e.g. `url`). Returns false if it existed.
    pub fn declare_adt(&mut self, name: &str) -> bool {
        self.adts.insert(name.to_owned())
    }

    /// Whether `name` is a known ADT.
    pub fn is_adt(&self, name: &str) -> bool {
        self.adts.contains(name)
    }

    /// Records `name` as having `class`. Re-declaring with a *different*
    /// class returns the previous class as an error value.
    pub fn declare(&mut self, name: &str, class: SymbolClass) -> Result<(), SymbolClass> {
        match self.classes.get(name) {
            Some(existing) if *existing != class => Err(existing.clone()),
            _ => {
                self.classes.insert(name.to_owned(), class);
                Ok(())
            }
        }
    }

    /// The class of `name`, if declared.
    pub fn class(&self, name: &str) -> Option<&SymbolClass> {
        self.classes.get(name)
    }

    /// Whether `name` is a terminal; returns its ADT.
    pub fn terminal_type(&self, name: &str) -> Option<&str> {
        match self.classes.get(name) {
            Some(SymbolClass::Terminal(ty)) => Some(ty),
            _ => None,
        }
    }

    /// Whether `name` is known at all.
    pub fn contains(&self, name: &str) -> bool {
        self.classes.contains_key(name)
    }

    /// All names with their classes, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SymbolClass)> {
        self.classes.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// All declared ADTs (built-in + user), sorted.
    pub fn adts(&self) -> impl Iterator<Item = &str> {
        self.adts.iter().map(String::as_str)
    }
}

/// Builds the symbol table for a set of declarations and rules (shared
/// by the parser and by [`crate::ast::Grammar::merge`]).
pub(crate) fn build_table(
    detectors: &[crate::ast::DetectorDecl],
    atoms: &[crate::ast::AtomDecl],
    rules: &[crate::ast::Rule],
) -> SymbolTable {
    use crate::ast::{AtomDecl, DetectorKind};
    let mut table = SymbolTable::new();
    for atom in atoms {
        match atom {
            AtomDecl::Type(ty) => {
                table.declare_adt(ty);
            }
            AtomDecl::Terminals { ty, names } => {
                for name in names {
                    // Conflicts surface in validation; last-wins here.
                    let _ = table.declare(name, SymbolClass::Terminal(ty.clone()));
                }
            }
        }
    }
    for det in detectors {
        if !matches!(det.kind, DetectorKind::Special { .. }) {
            let _ = table.declare(&det.name, SymbolClass::Detector);
        }
    }
    for rule in rules {
        if table.class(&rule.lhs).is_none() {
            let _ = table.declare(&rule.lhs, SymbolClass::Variable);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_known() {
        let t = SymbolTable::new();
        for ty in BUILTIN_ADTS {
            assert!(t.is_adt(ty));
        }
        assert!(!t.is_adt("url"));
    }

    #[test]
    fn declare_adt_is_idempotent_check() {
        let mut t = SymbolTable::new();
        assert!(t.declare_adt("url"));
        assert!(!t.declare_adt("url"));
        assert!(t.is_adt("url"));
    }

    #[test]
    fn conflicting_class_is_rejected() {
        let mut t = SymbolTable::new();
        t.declare("x", SymbolClass::Variable).unwrap();
        assert_eq!(
            t.declare("x", SymbolClass::Detector),
            Err(SymbolClass::Variable)
        );
        // Same class re-declaration is fine.
        assert!(t.declare("x", SymbolClass::Variable).is_ok());
    }

    #[test]
    fn terminal_type_lookup() {
        let mut t = SymbolTable::new();
        t.declare("frameNo", SymbolClass::Terminal("int".into()))
            .unwrap();
        assert_eq!(t.terminal_type("frameNo"), Some("int"));
        assert_eq!(t.terminal_type("other"), None);
        assert!(!matches!(t.class("frameNo"), Some(SymbolClass::Detector)));
    }
}
