//! Binary association tables and their relational operations.
//!
//! A [`Bat`] is the unit of storage: a sequence of associations
//! `(head: Oid, tail: Value)` with a homogeneous tail type. The upper
//! levels use exactly two reads of a BAT:
//!
//! * **lookups** — the tails of one head, through the head index
//!   ([`Bat::positions`], [`Bat::tails_of`], [`Bat::first_tail_of`]);
//!   walking `R(a/b)` then `R(a/b/c)` this way is how Monet XML
//!   descends a path,
//! * **scans** — every association in storage order ([`Bat::iter`]), or
//!   the heads whose string tail equals a value ([`Bat::select_str_eq`]).
//!
//! Mutation is append-mostly; deletion by head exists to support the FDS's
//! incremental invalidation of stored parse trees, and [`Bat::upsert`]
//! rewrites the IDF relation in place.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::oid::Oid;
use crate::value::{Column, ColumnKind, StrPool, Value};

/// Head-lookup index over three consecutive row ranges:
///
/// * **base**, rows `[0, base_rows)`: three flat vectors — `runs`
///   (distinct heads, ascending), `offsets` (`runs.len() + 1` cumulative
///   counts) and `slots` (row positions grouped by head, ascending
///   within a head), built in one sort pass and probed by binary search;
/// * **sorted tail**, rows `[base_rows, sorted_rows)`, whose heads are
///   non-decreasing. The head column is its own index there: a head's
///   rows form one contiguous range, found by binary search. D, DL, T,
///   DT_doc, TF and every XML path relation append freshly minted,
///   ascending oids, so their appends cost nothing beyond the column
///   push, and a column restored in head order needs no base at all;
/// * **overlay**, rows `[sorted_rows, len)`: from the first
///   out-of-order head on, appends land in a per-head hash map until it
///   grows heavy and [`Bat::append`] folds every row into a new base.
///
/// [`Bat::positions`] returns base, then sorted tail, then overlay
/// positions, so they come out ascending.
#[derive(Debug, Clone, Default)]
struct HeadIndex {
    runs: Vec<Oid>,
    offsets: Vec<u32>,
    slots: Vec<u32>,
    /// Rows `[0, base_rows)` are covered by the sorted-run base.
    base_rows: u32,
    /// Rows `[base_rows, sorted_rows)` have non-decreasing heads.
    sorted_rows: u32,
    /// Rows `[sorted_rows, len)` are covered here.
    overlay: HashMap<Oid, Vec<u32>>,
}

impl HeadIndex {
    /// Re-indexes the whole head column and clears the overlay: a
    /// column already in head order becomes one sorted tail, any other
    /// is sorted into the base.
    fn rebuild(&mut self, head: &[Oid]) {
        *self = HeadIndex::default();
        if head.windows(2).all(|w| w[0] <= w[1]) {
            self.sorted_rows = head.len() as u32;
            return;
        }
        let mut slots: Vec<u32> = (0..head.len() as u32).collect();
        slots.sort_unstable_by_key(|&p| (head[p as usize], p));
        self.offsets.push(0);
        for (i, &p) in slots.iter().enumerate() {
            let h = head[p as usize];
            if self.runs.last() != Some(&h) {
                if i > 0 {
                    self.offsets.push(i as u32);
                }
                self.runs.push(h);
            }
        }
        self.offsets.push(slots.len() as u32);
        self.slots = slots;
        self.base_rows = head.len() as u32;
        self.sorted_rows = self.base_rows;
    }

    /// Positions in the base with head `h` (ascending), or `&[]`.
    fn base_positions(&self, h: Oid) -> &[u32] {
        match self.runs.binary_search(&h) {
            Ok(i) => &self.slots[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Positions in the sorted tail with head `h`: one range.
    fn sorted_positions(&self, head: &[Oid], h: Oid) -> std::ops::Range<u32> {
        let tail = &head[self.base_rows as usize..self.sorted_rows as usize];
        let lo = tail.partition_point(|&x| x < h) as u32;
        let hi = tail.partition_point(|&x| x <= h) as u32;
        self.base_rows + lo..self.base_rows + hi
    }

    /// Positions in the overlay with head `h` (ascending), or `&[]`.
    fn overlay_positions(&self, h: Oid) -> &[u32] {
        self.overlay.get(&h).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Records an append of head `h` at row `head.len()`; `head` is the
    /// column before the push.
    fn note_append(&mut self, head: &[Oid], h: Oid) {
        let pos = head.len() as u32;
        if pos == self.sorted_rows && (pos == self.base_rows || head[pos as usize - 1] <= h) {
            self.sorted_rows += 1;
        } else {
            self.overlay.entry(h).or_default().push(pos);
        }
    }

    /// Whether an overlay over rows `[sorted_rows, rows)` is worth
    /// folding into the base.
    fn overlay_is_heavy(&self, rows: usize) -> bool {
        let sorted = self.sorted_rows as usize;
        rows - sorted > (sorted / 2).max(4096)
    }

    /// Heap bytes by capacity; the sorted tail borrows the head column
    /// and costs nothing.
    fn resident_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<Oid>()
            + self.offsets.capacity() * 4
            + self.slots.capacity() * 4
            // Buckets hold a key and a `Vec` header, plus a control byte.
            + self.overlay.capacity() * (std::mem::size_of::<(Oid, Vec<u32>)>() + 1)
            + self.overlay.values().map(|v| v.capacity() * 4).sum::<usize>()
    }
}

/// A binary association table: `head: Vec<Oid>` aligned with a typed tail
/// [`Column`], plus a sorted-run head index for cheap lookups that works
/// through `&self` (the private `HeadIndex`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bat {
    head: Vec<Oid>,
    tail: Column,
    #[serde(skip)]
    index: HeadIndex,
}

impl PartialEq for Bat {
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head && self.tail == other.tail
    }
}

impl Bat {
    /// Creates an empty BAT with the given tail kind. String tails get a
    /// private dictionary; use [`Bat::with_kind_in`] to share a catalog
    /// pool.
    pub fn with_kind(kind: ColumnKind) -> Self {
        Bat {
            head: Vec::new(),
            tail: Column::empty(kind),
            index: HeadIndex::default(),
        }
    }

    /// Creates an empty BAT whose string tails (if any) intern into
    /// `pool`.
    pub fn with_kind_in(kind: ColumnKind, pool: &StrPool) -> Self {
        Bat {
            head: Vec::new(),
            tail: Column::empty_with_pool(kind, pool),
            index: HeadIndex::default(),
        }
    }

    /// Reassembles a BAT from decoded snapshot columns, building the
    /// head index in one pass. Fails if the columns disagree on length.
    pub fn from_parts(head: Vec<Oid>, tail: Column) -> Result<Bat> {
        if head.len() != tail.len() {
            return Err(Error::Snapshot(format!(
                "head/tail length mismatch: {} vs {}",
                head.len(),
                tail.len()
            )));
        }
        let mut index = HeadIndex::default();
        index.rebuild(&head);
        Ok(Bat { head, tail, index })
    }

    /// Re-interns string tails into `pool` (no-op for other kinds or if
    /// already homed there). Called when a BAT is registered in a
    /// catalog so every relation shares one dictionary.
    pub(crate) fn adopt_pool(&mut self, pool: &StrPool) {
        if let Column::Str(col) = &mut self.tail {
            col.rehome(pool);
        }
    }

    /// Estimated heap bytes held by this BAT (head + tail + index; the
    /// shared string pool is accounted once per catalog, not here).
    pub fn resident_bytes(&self) -> usize {
        self.head.capacity() * std::mem::size_of::<Oid>()
            + self.tail.resident_bytes()
            + self.index.resident_bytes()
    }

    /// Empty `oid × oid` BAT.
    pub fn new_oid() -> Self {
        Self::with_kind(ColumnKind::Oid)
    }
    /// Empty `oid × int` BAT.
    pub fn new_int() -> Self {
        Self::with_kind(ColumnKind::Int)
    }

    /// The tail type.
    pub fn kind(&self) -> ColumnKind {
        self.tail.kind()
    }

    /// Number of associations.
    pub fn len(&self) -> usize {
        self.head.len()
    }

    /// Whether the BAT holds no associations.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty()
    }

    /// Appends an association; fails if the value kind does not match the
    /// tail column kind. An append in head order only extends the
    /// index's sorted tail; an out-of-order one goes to the overlay,
    /// which is folded into the base once it grows heavy.
    pub fn append(&mut self, head: Oid, value: Value) -> Result<()> {
        self.tail
            .push(value)
            .map_err(|(expected, got)| Error::TypeMismatch { expected, got })?;
        self.index.note_append(&self.head, head);
        self.head.push(head);
        if self.index.overlay_is_heavy(self.head.len()) {
            self.index.rebuild(&self.head);
        }
        Ok(())
    }

    /// Appends an `oid` tail.
    pub fn append_oid(&mut self, head: Oid, tail: Oid) -> Result<()> {
        self.append(head, Value::Oid(tail))
    }
    /// Appends an `int` tail.
    pub fn append_int(&mut self, head: Oid, tail: i64) -> Result<()> {
        self.append(head, Value::Int(tail))
    }
    /// Appends a `str` tail.
    pub fn append_str(&mut self, head: Oid, tail: impl Into<String>) -> Result<()> {
        self.append(head, Value::Str(tail.into()))
    }

    /// The association at `pos`.
    ///
    /// # Panics
    /// Panics if `pos >= self.len()`.
    pub fn at(&self, pos: usize) -> (Oid, Value) {
        (self.head[pos], self.tail.get(pos))
    }

    /// Iterates over all associations in insertion order (subject to
    /// reordering by [`Self::delete_head`], which swap-removes).
    pub fn iter(&self) -> impl Iterator<Item = (Oid, Value)> + '_ {
        (0..self.len()).map(move |i| self.at(i))
    }

    /// Iterates over the head column.
    pub fn heads(&self) -> impl Iterator<Item = Oid> + '_ {
        self.head.iter().copied()
    }

    /// Borrows the tail column.
    pub fn tail(&self) -> &Column {
        &self.tail
    }

    /// Borrows the head column as a slice (snapshot encoding path).
    pub(crate) fn head_slice(&self) -> &[Oid] {
        &self.head
    }

    /// Positions of associations whose head equals `head`, ascending.
    /// Purely a read: the index stays live across appends (sorted tail
    /// or overlay) and is rebuilt on delete, so no `&mut` access is
    /// needed.
    pub fn positions(&self, head: Oid) -> impl Iterator<Item = u32> + '_ {
        self.index
            .base_positions(head)
            .iter()
            .copied()
            .chain(self.index.sorted_positions(&self.head, head))
            .chain(self.index.overlay_positions(head).iter().copied())
    }

    /// All tails associated with `head`.
    pub fn tails_of(&self, head: Oid) -> Vec<Value> {
        self.positions(head)
            .map(|p| self.tail.get(p as usize))
            .collect()
    }

    /// The first tail associated with `head`, if any.
    pub fn first_tail_of(&self, head: Oid) -> Option<Value> {
        let p = self.positions(head).next()?;
        Some(self.tail.get(p as usize))
    }

    /// Heads with string tail equal to `s`. With dictionary encoding
    /// this is one non-inserting pool probe plus a `u32` scan — no
    /// per-row string comparison, and a probe absent from the
    /// dictionary short-circuits to empty.
    pub fn select_str_eq(&self, s: &str) -> Vec<Oid> {
        let Column::Str(vs) = &self.tail else {
            return Vec::new();
        };
        let Some(code) = vs.find_code(s) else {
            return Vec::new();
        };
        self.head
            .iter()
            .zip(vs.codes())
            .filter(|(_, &c)| c == code)
            .map(|(h, _)| *h)
            .collect()
    }

    /// Deletes every association with head `head`; returns how many were
    /// removed. Uses swap-removal, so storage order is not preserved.
    pub fn delete_head(&mut self, head: Oid) -> usize {
        let mut removed = 0;
        let mut i = 0;
        while i < self.head.len() {
            if self.head[i] == head {
                self.head.swap_remove(i);
                self.tail.swap_remove(i);
                removed += 1;
            } else {
                i += 1;
            }
        }
        if removed > 0 {
            // Swap-removal scrambled positions: rebuild once so the
            // index stays live for shared (&self) readers.
            self.index.rebuild(&self.head);
        }
        removed
    }

    /// Deletes every association whose head is in `heads`, in one pass —
    /// the bulk form the storage layer uses when removing whole
    /// documents (per-head deletion would invalidate and rebuild the
    /// lookup index once per node, which is quadratic in document size).
    /// Returns how many associations were removed.
    pub fn delete_heads(&mut self, heads: &std::collections::HashSet<Oid>) -> usize {
        let before = self.head.len();
        let mut i = 0;
        while i < self.head.len() {
            if heads.contains(&self.head[i]) {
                self.head.swap_remove(i);
                self.tail.swap_remove(i);
            } else {
                i += 1;
            }
        }
        let removed = before - self.head.len();
        if removed > 0 {
            self.index.rebuild(&self.head);
        }
        removed
    }

    /// Replaces the tail of the *first* association with head `head`, or
    /// appends a fresh association if none exists. Returns whether an
    /// existing association was updated.
    pub fn upsert(&mut self, head: Oid, value: Value) -> Result<bool> {
        let first = self.positions(head).next();
        if let Some(pos) = first {
            self.tail
                .set(pos as usize, value)
                .map_err(|(expected, got)| Error::TypeMismatch { expected, got })?;
            Ok(true)
        } else {
            self.append(head, value)?;
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn oid(n: u64) -> Oid {
        Oid::from_raw(n)
    }

    #[test]
    fn append_and_lookup() {
        let mut b = Bat::with_kind(ColumnKind::Str);
        b.append_str(oid(1), "a").unwrap();
        b.append_str(oid(1), "b").unwrap();
        b.append_str(oid(2), "c").unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(
            b.tails_of(oid(1)),
            vec![Value::from("a"), Value::from("b")]
        );
        assert_eq!(b.first_tail_of(oid(3)), None);
    }

    #[test]
    fn append_kind_mismatch_errors() {
        let mut b = Bat::new_int();
        let err = b.append(oid(1), Value::from("nope")).unwrap_err();
        assert!(matches!(err, Error::TypeMismatch { .. }));
        assert!(b.is_empty());
    }

    #[test]
    fn delete_head_removes_all_and_invalidates_index() {
        let mut b = Bat::new_int();
        b.append_int(oid(1), 1).unwrap();
        b.append_int(oid(2), 2).unwrap();
        b.append_int(oid(1), 3).unwrap();
        assert_eq!(b.delete_head(oid(1)), 2);
        assert_eq!(b.len(), 1);
        assert!(b.first_tail_of(oid(1)).is_none());
        assert!(b.first_tail_of(oid(2)).is_some());
    }

    #[test]
    fn delete_heads_bulk_matches_per_head_semantics() {
        let build = || {
            let mut b = Bat::new_int();
            for (h, v) in [(1, 1), (2, 2), (1, 3), (3, 4), (2, 5)] {
                b.append_int(oid(h), v).unwrap();
            }
            b
        };
        let victims: HashSet<Oid> = [oid(1), oid(3)].into();
        let mut bulk = build();
        let removed = bulk.delete_heads(&victims);
        assert_eq!(removed, 3);
        let mut one_by_one = build();
        let mut removed2 = 0;
        for v in &victims {
            removed2 += one_by_one.delete_head(*v);
        }
        assert_eq!(removed, removed2);
        let key = |b: &Bat| {
            let mut v: Vec<_> = b.iter().collect();
            v.sort_by_key(|(h, _)| *h);
            v
        };
        assert_eq!(key(&bulk), key(&one_by_one));
        assert!(bulk.first_tail_of(oid(2)).is_some());
        assert!(bulk.first_tail_of(oid(1)).is_none());
    }

    #[test]
    fn upsert_updates_then_inserts() {
        let mut b = Bat::with_kind(ColumnKind::Str);
        assert!(!b.upsert(oid(1), Value::from("a")).unwrap());
        assert!(b.upsert(oid(1), Value::from("b")).unwrap());
        assert_eq!(b.len(), 1);
        assert_eq!(b.first_tail_of(oid(1)), Some(Value::from("b")));
    }

    #[test]
    fn lookups_work_through_shared_borrow() {
        let mut b = Bat::with_kind(ColumnKind::Str);
        b.append_str(oid(2), "x").unwrap();
        b.append_str(oid(1), "y").unwrap();
        b.append_str(oid(2), "z").unwrap();
        let shared: &Bat = &b;
        assert_eq!(
            shared.tails_of(oid(2)),
            vec![Value::from("x"), Value::from("z")]
        );
        assert!(shared.first_tail_of(oid(1)).is_some());
        assert_eq!(shared.positions(oid(2)).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn overlay_and_base_agree_after_compaction() {
        let mut b = Bat::new_int();
        for i in 0..50 {
            b.append_int(oid(i % 7), i as i64).unwrap();
        }
        // Force a full rebuild (base only), then append more (overlay).
        b.index.rebuild(&b.head);
        for i in 50..100 {
            b.append_int(oid(i % 7), i as i64).unwrap();
        }
        let before: Vec<Vec<Value>> = (0..7).map(|h| b.tails_of(oid(h))).collect();
        b.index.rebuild(&b.head); // compact everything into the base
        let after: Vec<Vec<Value>> = (0..7).map(|h| b.tails_of(oid(h))).collect();
        assert_eq!(before, after);
        for h in 0..7 {
            let ps: Vec<u32> = b.positions(oid(h)).collect();
            assert!(ps.windows(2).all(|w| w[0] < w[1]), "ascending positions");
        }
    }

    #[test]
    fn in_order_appends_skip_the_overlay_and_a_heavy_overlay_folds() {
        let mut b = Bat::new_int();
        for i in 0..10_000 {
            b.append_int(oid(i / 3), i as i64).unwrap();
        }
        assert!(b.index.overlay.is_empty());
        assert_eq!((b.index.base_rows, b.index.sorted_rows), (0, 10_000));
        assert_eq!(b.positions(oid(5)).collect::<Vec<_>>(), vec![15, 16, 17]);
        // Out of order from here on: the overlay takes every row until it
        // outgrows half the sorted rows, and the next append folds it.
        for i in 0..5_000 {
            b.append_int(oid(i * 7 % 1_000), 0).unwrap();
        }
        assert_eq!(b.index.sorted_rows, 10_000);
        assert!(!b.index.overlay.is_empty());
        b.append_int(oid(0), 0).unwrap();
        assert!(b.index.overlay.is_empty());
        assert_eq!(b.index.base_rows, 15_001);
        for h in [0, 5, 999, 3_333] {
            let scan: Vec<u32> = (0..b.len() as u32)
                .filter(|&p| b.head[p as usize] == oid(h))
                .collect();
            assert_eq!(b.positions(oid(h)).collect::<Vec<_>>(), scan);
        }
    }

    #[test]
    fn from_parts_round_trips_and_indexes() {
        let head = vec![oid(3), oid(1), oid(3)];
        let mut col = Column::empty(ColumnKind::Int);
        for v in [30, 10, 31] {
            col.push(Value::Int(v)).unwrap();
        }
        let b = Bat::from_parts(head, col).unwrap();
        assert_eq!(b.tails_of(oid(3)), vec![Value::Int(30), Value::Int(31)]);
        assert_eq!(b.first_tail_of(oid(1)), Some(Value::Int(10)));
        let bad = Bat::from_parts(vec![oid(1)], Column::empty(ColumnKind::Int));
        assert!(bad.is_err());
    }

    #[test]
    fn select_str_eq_uses_dictionary_codes() {
        let mut b = Bat::with_kind(ColumnKind::Str);
        b.append_str(oid(1), "seles").unwrap();
        b.append_str(oid(2), "graf").unwrap();
        b.append_str(oid(3), "seles").unwrap();
        assert_eq!(b.select_str_eq("seles"), vec![oid(1), oid(3)]);
        assert!(Bat::new_int().select_str_eq("seles").is_empty());
        // Probe absent from the dictionary: still empty, and the
        // dictionary must not grow from a read.
        let entries_before = match b.tail() {
            Column::Str(c) => c.pool().len(),
            _ => unreachable!(),
        };
        assert!(b.select_str_eq("absent").is_empty());
        let entries_after = match b.tail() {
            Column::Str(c) => c.pool().len(),
            _ => unreachable!(),
        };
        assert_eq!(entries_before, entries_after);
    }
}
