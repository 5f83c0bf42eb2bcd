//! The catalog: a named collection of BATs plus the oid generator.
//!
//! The Monet XML mapping names relations after root-to-node paths
//! (`R(image/colors/histogram)`), so the catalog is keyed by arbitrary
//! strings. The paper warns that document-dependent mappings can grow the
//! schema; [`Db::relation_count`] exposes that size so the experiments can
//! observe it.
//!
//! Two scale features live here:
//!
//! * every relation's string tails intern into one catalog-wide
//!   [`StrPool`] — the dictionary is stored once per store, not once per
//!   column;
//! * relations restored from a v3 snapshot occupy **lazy slots**: the
//!   catalog knows each relation's name and row count from the
//!   snapshot directory, but decodes the columns only on first access,
//!   so opening a 10^5-document store does not deserialize every BAT.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use crate::bat::Bat;
use crate::error::{Error, Result};
use crate::oid::{Oid, OidGen};
use crate::persist::LazyRelation;
use crate::value::{ColumnKind, DictStats, StrPool};

/// One catalog entry: either a materialized [`Bat`] or a pending lazy
/// decode from a snapshot.
///
/// `cell` is write-once; `pending` holds the undecoded snapshot slice
/// until the first access materializes it. The `rows` hint lets
/// schema-level queries ([`Db::relation_count`],
/// [`Db::association_count`]) answer without decoding anything.
#[derive(Debug)]
struct Slot {
    cell: OnceLock<Bat>,
    pending: Mutex<Option<LazyRelation>>,
    rows: u64,
}

fn lock_pending(slot: &Slot) -> std::sync::MutexGuard<'_, Option<LazyRelation>> {
    slot.pending
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Slot {
    fn eager(bat: Bat) -> Slot {
        let rows = bat.len() as u64;
        let cell = OnceLock::new();
        let _ = cell.set(bat);
        Slot {
            cell,
            pending: Mutex::new(None),
            rows,
        }
    }

    fn lazy(rel: LazyRelation) -> Slot {
        let rows = rel.rows();
        Slot {
            cell: OnceLock::new(),
            pending: Mutex::new(Some(rel)),
            rows,
        }
    }

    /// The materialized BAT, decoding the pending snapshot slice on
    /// first access. Decode errors leave the slot pending so a retry
    /// reports the same error instead of "missing relation".
    fn materialize(&self, name: &str) -> Result<&Bat> {
        if let Some(b) = self.cell.get() {
            return Ok(b);
        }
        let mut pending = lock_pending(self);
        // Double-checked: another thread may have won the race while we
        // waited for the lock.
        if self.cell.get().is_none() {
            let Some(rel) = pending.take() else {
                return Err(Error::Snapshot(format!(
                    "relation {name:?}: lazy payload missing"
                )));
            };
            match rel.decode() {
                Ok(bat) => {
                    let _ = self.cell.set(bat);
                }
                Err(e) => {
                    *pending = Some(rel);
                    return Err(e);
                }
            }
        }
        drop(pending);
        self.cell
            .get()
            .ok_or_else(|| Error::Snapshot(format!("relation {name:?}: not materialized")))
    }

    fn materialized(&self) -> Option<&Bat> {
        self.cell.get()
    }

    /// Row count without forcing a decode.
    fn rows(&self) -> usize {
        match self.cell.get() {
            Some(b) => b.len(),
            None => self.rows as usize,
        }
    }
}

/// A named catalog of BATs with an embedded oid generator.
///
/// `Db` uses `&mut self` for mutation; callers that need sharing across
/// threads wrap it (the IR level gives each logical server its own `Db`,
/// which is exactly the shared-nothing layout the paper advocates).
#[derive(Debug, Serialize, Deserialize)]
pub struct Db {
    bats: BTreeMap<String, Slot>,
    next_oid: u64,
    #[serde(skip, default = "OidGen::new")]
    gen: OidGen,
    #[serde(skip)]
    pool: StrPool,
}

impl Db {
    /// An empty catalog.
    pub fn new() -> Self {
        Db {
            bats: BTreeMap::new(),
            next_oid: 1,
            gen: OidGen::new(),
            pool: StrPool::new(),
        }
    }

    /// The catalog-wide string dictionary shared by every relation.
    pub fn pool(&self) -> &StrPool {
        &self.pool
    }

    /// Mints a fresh oid unique within this database.
    pub fn mint(&mut self) -> Oid {
        let o = self.gen.mint();
        self.next_oid = o.raw() + 1;
        o
    }

    /// Registers `bat` under `name`; fails if the name is taken. The
    /// BAT's string tails (if any) are re-interned into the catalog
    /// pool so the whole store shares one dictionary.
    pub fn create(&mut self, name: impl Into<String>, mut bat: Bat) -> Result<()> {
        let name = name.into();
        if self.bats.contains_key(&name) {
            return Err(Error::BatExists(name));
        }
        bat.adopt_pool(&self.pool);
        self.bats.insert(name, Slot::eager(bat));
        Ok(())
    }

    /// Immutable access to a BAT. First access to a lazily restored
    /// relation decodes it here; decode failures surface as
    /// [`Error::Snapshot`].
    pub fn get(&self, name: &str) -> Result<&Bat> {
        match self.bats.get(name) {
            Some(slot) => slot.materialize(name),
            None => Err(Error::NoSuchBat(name.to_owned())),
        }
    }

    /// Mutable access to a BAT (materializing a lazy slot first).
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Bat> {
        let slot = self
            .bats
            .get_mut(name)
            .ok_or_else(|| Error::NoSuchBat(name.to_owned()))?;
        slot.materialize(name)?;
        slot.cell
            .get_mut()
            .ok_or_else(|| Error::Snapshot(format!("relation {name:?}: not materialized")))
    }

    /// Returns the BAT under `name`, creating an empty one of `kind`
    /// first if it does not exist. The bulkloader's workhorse.
    ///
    /// # Panics
    /// Panics if `name` is a lazily restored relation whose snapshot
    /// slice fails to decode — impossible for snapshots that passed the
    /// open-time CRC check, and the bulkload path only ever touches
    /// relations it created.
    pub fn get_or_create(&mut self, name: &str, kind: ColumnKind) -> &mut Bat {
        // One tree walk, and the pool is borrowed, not cloned. Probing
        // first and copying the name only on a miss costs a second walk
        // on every hit: slower than the copy once a store holds a few
        // hundred path relations with long common prefixes.
        let pool = &self.pool;
        let slot = self
            .bats
            .entry(name.to_owned())
            .or_insert_with(|| Slot::eager(Bat::with_kind_in(kind, pool)));
        slot.materialize(name)
            .unwrap_or_else(|e| panic!("relation {name:?}: lazy decode failed: {e}"));
        slot.cell
            .get_mut()
            .unwrap_or_else(|| panic!("relation {name:?}: not materialized"))
    }

    /// Whether a BAT named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.bats.contains_key(name)
    }

    /// Names of all relations, sorted. Does not materialize lazy slots.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.bats.keys().map(String::as_str)
    }

    /// Number of relations — the "database schema size" the paper's
    /// document-dependent mapping discussion is concerned with.
    pub fn relation_count(&self) -> usize {
        self.bats.len()
    }

    /// Total number of stored associations across all relations. Uses
    /// the snapshot directory's row counts for relations not yet
    /// materialized — no decode needed.
    pub fn association_count(&self) -> usize {
        self.bats.values().map(Slot::rows).sum()
    }

    /// Number of relations whose columns are actually decoded in
    /// memory (the rest are lazy snapshot slots).
    pub fn materialized_count(&self) -> usize {
        self.bats
            .values()
            .filter(|s| s.materialized().is_some())
            .count()
    }

    /// Estimated heap bytes held by materialized relations plus the
    /// shared dictionary payload. Lazy slots cost only their directory
    /// entry.
    pub fn resident_bytes(&self) -> usize {
        let bats: usize = self
            .bats
            .values()
            .filter_map(Slot::materialized)
            .map(Bat::resident_bytes)
            .sum();
        // Dictionary: payload bytes + map/vec entry overhead estimate.
        let stats = self.pool.stats();
        bats + 2 * stats.bytes + stats.entries * 56
    }

    /// Statistics of the shared string dictionary.
    pub fn dict_stats(&self) -> DictStats {
        self.pool.stats()
    }

    pub(crate) fn next_oid_raw(&self) -> u64 {
        self.next_oid.max(self.gen.peek().raw())
    }

    /// Assembles a catalog from a snapshot: oid watermark, shared
    /// dictionary, and per-relation slots (lazy or already decoded).
    pub(crate) fn from_snapshot_parts(
        next: u64,
        pool: StrPool,
        lazy: Vec<(String, LazyRelation)>,
        eager: Vec<(String, Bat)>,
    ) -> Db {
        let mut bats = BTreeMap::new();
        for (name, rel) in lazy {
            bats.insert(name, Slot::lazy(rel));
        }
        for (name, bat) in eager {
            bats.insert(name, Slot::eager(bat));
        }
        Db {
            bats,
            next_oid: next,
            gen: OidGen::resume_after(Oid::from_raw(next.saturating_sub(1))),
            pool,
        }
    }
}

impl Default for Db {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_get_drop() {
        let mut db = Db::new();
        db.create("r", Bat::new_int()).unwrap();
        assert!(db.contains("r"));
        assert!(matches!(
            db.create("r", Bat::new_int()),
            Err(Error::BatExists(_))
        ));
        assert!(db.get("r").unwrap().is_empty());
        assert!(matches!(db.get("s"), Err(Error::NoSuchBat(_))));
    }

    #[test]
    fn get_or_create_is_idempotent() {
        let mut db = Db::new();
        let o = db.mint();
        db.get_or_create("x", ColumnKind::Int)
            .append_int(o, 1)
            .unwrap();
        db.get_or_create("x", ColumnKind::Int)
            .append_int(o, 2)
            .unwrap();
        assert_eq!(db.get("x").unwrap().len(), 2);
        assert_eq!(db.relation_count(), 1);
    }

    #[test]
    fn counters_track_contents() {
        let mut db = Db::new();
        let o = db.mint();
        db.get_or_create("a", ColumnKind::Str)
            .append_str(o, "v")
            .unwrap();
        db.get_or_create("b", ColumnKind::Int)
            .append_int(o, 3)
            .unwrap();
        assert_eq!(db.relation_count(), 2);
        assert_eq!(db.association_count(), 2);
        assert_eq!(
            db.relation_names().collect::<Vec<_>>(),
            vec!["a", "b"]
        );
    }

    #[test]
    fn minted_oids_are_unique() {
        let mut db = Db::new();
        let a = db.mint();
        let b = db.mint();
        assert_ne!(a, b);
    }

    #[test]
    fn relations_share_the_catalog_dictionary() {
        let mut db = Db::new();
        let o = db.mint();
        db.get_or_create("a", ColumnKind::Str)
            .append_str(o, "shared")
            .unwrap();
        db.get_or_create("b", ColumnKind::Str)
            .append_str(o, "shared")
            .unwrap();
        let stats = db.dict_stats();
        assert_eq!(stats.entries, 1, "one dictionary entry across relations");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn created_bat_is_rehomed_into_catalog_pool() {
        let mut standalone = Bat::new_str();
        standalone.append_str(Oid::from_raw(1), "moved").unwrap();
        let mut db = Db::new();
        db.pool().intern("pre-existing");
        db.create("r", standalone).unwrap();
        assert_eq!(db.get("r").unwrap().select_str_eq("moved").len(), 1);
        assert_eq!(db.dict_stats().entries, 2);
    }
}
