//! Object identifiers and their generator.
//!
//! Every node the Monet transform creates — XML elements, documents, terms,
//! document/term pairs — is identified by an [`Oid`]. Oids are opaque: the
//! only guarantees are equality, a total order (used for sort-merge
//! operations) and uniqueness per [`OidGen`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// An object identifier, the head domain of every BAT.
///
/// `Oid` is a transparent `u64` newtype; construction normally goes through
/// [`OidGen::mint`] so identifiers stay unique within one database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Oid(u64);

impl Oid {
    /// Builds an oid from a raw value.
    ///
    /// Exposed for tests and for deserialising snapshots; regular code
    /// should mint fresh oids via [`OidGen`].
    pub const fn from_raw(raw: u64) -> Self {
        Oid(raw)
    }

    /// Returns the raw numeric value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// A thread-safe monotonic oid generator.
///
/// One generator belongs to one logical database; sharing it across threads
/// is safe and lock-free.
#[derive(Debug)]
pub struct OidGen {
    next: AtomicU64,
}

impl OidGen {
    /// Creates a generator starting at oid 1 (oid 0 is reserved as "nil"
    /// by convention in dumps, though the store never interprets it).
    pub fn new() -> Self {
        OidGen {
            next: AtomicU64::new(1),
        }
    }

    /// Creates a generator that resumes after `last`, for snapshot restore.
    pub fn resume_after(last: Oid) -> Self {
        OidGen {
            next: AtomicU64::new(last.0 + 1),
        }
    }

    /// Mints a fresh, unique oid.
    pub fn mint(&self) -> Oid {
        Oid(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Returns the value the next [`mint`](Self::mint) call would produce,
    /// without consuming it. Used when snapshotting a catalog.
    pub fn peek(&self) -> Oid {
        Oid(self.next.load(Ordering::Relaxed))
    }
}

impl Default for OidGen {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn mint_is_monotonic_and_unique() {
        let g = OidGen::new();
        let a = g.mint();
        let b = g.mint();
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn resume_after_continues_sequence() {
        let g = OidGen::new();
        let last = (0..10).map(|_| g.mint()).last().unwrap();
        let g2 = OidGen::resume_after(last);
        assert!(g2.mint() > last);
    }

    #[test]
    fn concurrent_minting_never_collides() {
        let g = Arc::new(OidGen::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.mint()).collect::<Vec<_>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for oid in h.join().unwrap() {
                assert!(seen.insert(oid), "duplicate oid {oid}");
            }
        }
        assert_eq!(seen.len(), 4000);
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(Oid::from_raw(42).to_string(), "o42");
    }
}
