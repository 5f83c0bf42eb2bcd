//! The detector registry: implementations, versions, hooks.
//!
//! A feature grammar binds detector *symbols* to algorithms; the binding
//! itself lives here. Blackbox implementations are Rust closures (the
//! stand-in for the paper's linked C code — see DESIGN.md §2); whitebox
//! detectors need no registration, their predicate is the grammar.
//!
//! Every implementation carries a three-level [`Version`]
//! (`major.minor.correction`); the Feature Detector Scheduler compares
//! stored parse-tree versions against registry versions to decide what
//! to invalidate:
//!
//! * **correction** — "will not lead to invalidation of any nodes",
//! * **minor** — invalidates partial parse trees, but "the data may
//!   still be used to answer queries": low-priority revalidation,
//! * **major** — "the stored data has become unusable": high priority.
//!
//! Call counts are tracked per detector because the maintenance
//! experiment (E3) measures *detector calls avoided* — the paper's
//! motivation for incremental maintenance is exactly that detectors
//! (video analysis!) dwarf parsing costs.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, RwLock};

use feagram::ast::SpecialEvent;
use feagram::FeatureValue;

use crate::error::{Error, Result};
use crate::token::Token;

/// A three-level detector implementation version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Version {
    /// Incompatible change: stored data unusable.
    pub major: u16,
    /// Meaning-preserving change: stored data stale but usable.
    pub minor: u16,
    /// Correction revision: stored data stays valid.
    pub correction: u16,
}

impl Version {
    /// Builds a version.
    pub const fn new(major: u16, minor: u16, correction: u16) -> Self {
        Version {
            major,
            minor,
            correction,
        }
    }

    /// Parses `"1.2.3"`.
    pub fn parse(text: &str) -> Option<Version> {
        let mut it = text.split('.');
        let major = it.next()?.parse().ok()?;
        let minor = it.next()?.parse().ok()?;
        let correction = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        Some(Version::new(major, minor, correction))
    }

    /// The revision level by which `self` differs from `older` (`None`
    /// when equal). A difference at a higher level dominates.
    pub fn diff_level(self, older: Version) -> Option<RevisionLevel> {
        if self.major != older.major {
            Some(RevisionLevel::Major)
        } else if self.minor != older.minor {
            Some(RevisionLevel::Minor)
        } else if self.correction != older.correction {
            Some(RevisionLevel::Correction)
        } else {
            None
        }
    }

    /// Returns the version bumped at `level` (lower levels reset).
    pub fn bumped(self, level: RevisionLevel) -> Version {
        match level {
            RevisionLevel::Major => Version::new(self.major + 1, 0, 0),
            RevisionLevel::Minor => Version::new(self.major, self.minor + 1, 0),
            RevisionLevel::Correction => {
                Version::new(self.major, self.minor, self.correction + 1)
            }
        }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.major, self.minor, self.correction)
    }
}

/// The three revision levels of a detector implementation change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RevisionLevel {
    /// Lowest: no invalidation needed.
    Correction,
    /// Middle: low-priority revalidation, data stays queryable.
    Minor,
    /// Highest: high-priority invalidation, data unusable.
    Major,
}

/// How a blackbox detector call went wrong.
///
/// The distinction drives recovery: a [`DetectorError::Reject`] is a
/// verdict about the media object (the algorithm ran and said no), while
/// a [`DetectorError::Unavailable`] is an infrastructure failure (the
/// algorithm never ran) — the parse records an incomplete node and a
/// later heal re-parses it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectorError {
    /// The detector ran and rejected its input.
    Reject(String),
    /// The detector could not be reached or did not answer in time.
    Unavailable(String),
}

impl fmt::Display for DetectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectorError::Reject(msg) => f.write_str(msg),
            DetectorError::Unavailable(msg) => write!(f, "unavailable: {msg}"),
        }
    }
}

// Plain strings stay the idiom for in-process detectors (`Err("no
// url".into())`, `.ok_or("not numeric")?`): they mean a rejection.
impl From<String> for DetectorError {
    fn from(msg: String) -> Self {
        DetectorError::Reject(msg)
    }
}

impl From<&str> for DetectorError {
    fn from(msg: &str) -> Self {
        DetectorError::Reject(msg.to_owned())
    }
}

/// A blackbox detector implementation: typed inputs in, tokens out.
/// Errors reject the current parse alternative, except
/// [`DetectorError::Unavailable`] which marks the node for later repair.
///
/// Implementations are `Fn + Send + Sync` because the registry is shared:
/// a maintenance job runs detectors on its own thread, off the engine
/// lock, while the engine keeps serving. Detectors that need mutable
/// state keep it behind their own `Arc<Mutex<…>>`.
pub type DetectorFn = Box<
    dyn Fn(&[FeatureValue]) -> std::result::Result<Vec<Token>, DetectorError> + Send + Sync,
>;

/// A lifecycle hook (`init`/`final`/`begin`/`end`). Hooks run under the
/// registry's hook lock, so `FnMut` state stays sound under sharing.
pub type HookFn = Box<dyn FnMut() -> std::result::Result<(), String> + Send>;

struct Registered {
    run: DetectorFn,
    version: Version,
}

/// The registry of detector implementations for one engine instance.
///
/// Initial registration takes `&mut self` (setup-time structural
/// change); everything else — running detectors, firing hooks and live
/// [`DetectorRegistry::replace`] swaps — works through `&self`, so a
/// maintenance job can run detectors and install a new implementation
/// off the engine lock while the engine keeps serving. The FDE that runs
/// a detector counts the call (`FdeStats`).
#[derive(Default)]
pub struct DetectorRegistry {
    impls: RwLock<HashMap<String, Registered>>,
    hooks: Mutex<HashMap<(String, SpecialEvent), HookFn>>,
}

impl DetectorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the implementation of `name`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        version: Version,
        run: DetectorFn,
    ) -> &mut Self {
        self.impls
            .write()
            .expect("impl lock")
            .insert(name.into(), Registered { run, version });
        self
    }

    /// Registers a lifecycle hook for `target`.
    pub fn register_hook(
        &mut self,
        target: impl Into<String>,
        event: SpecialEvent,
        hook: HookFn,
    ) -> &mut Self {
        self.hooks
            .lock()
            .expect("hook lock")
            .insert((target.into(), event), hook);
        self
    }

    /// Whether `name` has an implementation.
    pub fn contains(&self, name: &str) -> bool {
        self.impls
            .read()
            .expect("impl lock")
            .contains_key(name)
    }

    /// The registered version of `name`.
    pub fn version(&self, name: &str) -> Option<Version> {
        self.impls
            .read()
            .expect("impl lock")
            .get(name)
            .map(|r| r.version)
    }

    /// Installs exactly (`version`, `run`) for `name` and returns the
    /// previous pair. This is the rollback primitive for online
    /// maintenance: a job installs the upgraded implementation at
    /// begin and, if it aborts before cutover, reinstalls the captured
    /// old pair so the registry is byte-for-byte back to never-ran.
    pub fn replace(
        &self,
        name: &str,
        version: Version,
        run: DetectorFn,
    ) -> Result<(Version, DetectorFn)> {
        let mut impls = self.impls.write().expect("impl lock");
        let reg = impls
            .get_mut(name)
            .ok_or_else(|| Error::UnregisteredDetector(name.to_owned()))?;
        let old = std::mem::replace(reg, Registered { run, version });
        Ok((old.version, old.run))
    }

    /// Runs detector `name` on `inputs`.
    pub fn run(&self, name: &str, inputs: &[FeatureValue]) -> Result<Vec<Token>> {
        let impls = self.impls.read().expect("impl lock");
        let reg = impls
            .get(name)
            .ok_or_else(|| Error::UnregisteredDetector(name.to_owned()))?;
        (reg.run)(inputs).map_err(|e| match e {
            DetectorError::Reject(message) => Error::DetectorFailed {
                name: name.to_owned(),
                message,
            },
            DetectorError::Unavailable(cause) => Error::DetectorUnavailable {
                name: name.to_owned(),
                cause,
            },
        })
    }

    /// Fires the hook for `(target, event)` if one is registered.
    pub fn fire_hook(&self, target: &str, event: SpecialEvent) -> Result<()> {
        let mut hooks = self.hooks.lock().expect("hook lock");
        if let Some(hook) = hooks.get_mut(&(target.to_owned(), event)) {
            hook().map_err(|message| Error::DetectorFailed {
                name: format!("{target}.{event:?}"),
                message,
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_display_and_parse_round_trip() {
        let v = Version::new(1, 2, 3);
        assert_eq!(Version::parse(&v.to_string()), Some(v));
        assert_eq!(Version::parse("1.2"), None);
        assert_eq!(Version::parse("a.b.c"), None);
    }

    #[test]
    fn diff_level_dominance() {
        let base = Version::new(1, 2, 3);
        assert_eq!(base.diff_level(base), None);
        assert_eq!(
            Version::new(2, 0, 0).diff_level(base),
            Some(RevisionLevel::Major)
        );
        assert_eq!(
            Version::new(1, 3, 0).diff_level(base),
            Some(RevisionLevel::Minor)
        );
        assert_eq!(
            Version::new(1, 2, 4).diff_level(base),
            Some(RevisionLevel::Correction)
        );
    }

    #[test]
    fn bumped_resets_lower_levels() {
        let v = Version::new(1, 2, 3);
        assert_eq!(v.bumped(RevisionLevel::Major), Version::new(2, 0, 0));
        assert_eq!(v.bumped(RevisionLevel::Minor), Version::new(1, 3, 0));
        assert_eq!(v.bumped(RevisionLevel::Correction), Version::new(1, 2, 4));
    }

    #[test]
    fn registry_runs_and_counts() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let mut reg = DetectorRegistry::new();
        reg.register(
            "echo",
            Version::new(1, 0, 0),
            Box::new(move |inputs| {
                counted.fetch_add(1, Ordering::Relaxed);
                Ok(vec![Token::new("out", inputs[0].clone())])
            }),
        );
        let out = reg.run("echo", &[FeatureValue::from(7i64)]).unwrap();
        assert_eq!(out[0].value, FeatureValue::Int(7));
        // One run, one execution of the implementation.
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unregistered_detector_errors() {
        let reg = DetectorRegistry::new();
        assert!(matches!(
            reg.run("ghost", &[]),
            Err(Error::UnregisteredDetector(_))
        ));
    }

    #[test]
    fn detector_failure_is_reported() {
        let mut reg = DetectorRegistry::new();
        reg.register(
            "bad",
            Version::new(1, 0, 0),
            Box::new(|_| Err("boom".into())),
        );
        match reg.run("bad", &[]) {
            Err(Error::DetectorFailed { name, message }) => {
                assert_eq!(name, "bad");
                assert_eq!(message, "boom");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unavailable_detector_is_distinguished_from_rejection() {
        let mut reg = DetectorRegistry::new();
        reg.register(
            "remote",
            Version::new(1, 0, 0),
            Box::new(|_| Err(DetectorError::Unavailable("connection refused".into()))),
        );
        match reg.run("remote", &[]) {
            Err(Error::DetectorUnavailable { name, cause }) => {
                assert_eq!(name, "remote");
                assert_eq!(cause, "connection refused");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn upgrade_bumps_version_and_swaps_impl() {
        let mut reg = DetectorRegistry::new();
        reg.register("d", Version::new(1, 0, 0), Box::new(|_| Ok(vec![])));
        let v = reg.version("d").unwrap().bumped(RevisionLevel::Minor);
        let _old = reg
            .replace("d", v, Box::new(|_| Ok(vec![Token::new("x", 1i64)])))
            .unwrap();
        assert_eq!(reg.version("d"), Some(Version::new(1, 1, 0)));
        assert_eq!(reg.run("d", &[]).unwrap().len(), 1);
    }

    #[test]
    fn replace_returns_the_old_pair_for_rollback() {
        let mut reg = DetectorRegistry::new();
        reg.register(
            "d",
            Version::new(1, 0, 0),
            Box::new(|_| Ok(vec![Token::new("old", 1i64)])),
        );
        let (old_version, old_run) = reg
            .replace(
                "d",
                Version::new(1, 1, 0),
                Box::new(|_| Ok(vec![Token::new("new", 2i64)])),
            )
            .unwrap();
        assert_eq!(old_version, Version::new(1, 0, 0));
        assert_eq!(reg.version("d"), Some(Version::new(1, 1, 0)));
        assert_eq!(reg.run("d", &[]).unwrap()[0].symbol, "new");
        // Roll back: the registry is exactly as before the swap.
        let _swapped = reg.replace("d", old_version, old_run).unwrap();
        assert_eq!(reg.version("d"), Some(Version::new(1, 0, 0)));
        assert_eq!(reg.run("d", &[]).unwrap()[0].symbol, "old");
    }

    #[test]
    fn hooks_fire_in_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let counter = Arc::new(AtomicUsize::new(0));
        let mut reg = DetectorRegistry::new();
        let c = Arc::clone(&counter);
        reg.register_hook(
            "header",
            SpecialEvent::Init,
            Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }),
        );
        reg.fire_hook("header", SpecialEvent::Init).unwrap();
        reg.fire_hook("header", SpecialEvent::Final).unwrap(); // no hook, no-op
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }
}
