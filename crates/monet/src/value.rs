//! Tail value domains.
//!
//! The paper's feature grammar language declares atoms of type `url`, `str`,
//! `int`, `flt` and `bit` (Figures 6 and 7); the Monet transform needs
//! `oid`, `string` and `int` tails. [`Value`] is the union of those
//! domains (`url` is stored as a string — its ADT behaviour lives in the
//! grammar layer, not in the store).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use serde::{Deserialize, Serialize};

use crate::oid::Oid;

/// A dynamically typed tail value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// An object identifier (parent→child associations).
    Oid(Oid),
    /// A 64-bit integer (ranks, frame numbers, counts).
    Int(i64),
    /// A 64-bit float (features, scores). NaN is not a legal stored value;
    /// comparisons use IEEE total order so accidental NaNs stay total.
    Flt(f64),
    /// A string (labels, CDATA, terms, URLs).
    Str(String),
    /// A boolean (whitebox detector outcomes such as `netplay`).
    Bit(bool),
}

impl Value {
    /// The kind tag of this value.
    pub fn kind(&self) -> ColumnKind {
        match self {
            Value::Oid(_) => ColumnKind::Oid,
            Value::Int(_) => ColumnKind::Int,
            Value::Flt(_) => ColumnKind::Flt,
            Value::Str(_) => ColumnKind::Str,
            Value::Bit(_) => ColumnKind::Bit,
        }
    }

    /// Returns the contained oid, if any.
    pub fn as_oid(&self) -> Option<Oid> {
        match self {
            Value::Oid(o) => Some(*o),
            _ => None,
        }
    }

    /// Returns the contained integer, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the contained float; integers widen losslessly enough for
    /// predicate evaluation (`frameNo <= 170.0` in the paper's netplay
    /// detector compares an int against a float literal).
    pub fn as_flt(&self) -> Option<f64> {
        match self {
            Value::Flt(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the contained string slice, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A total order across same-kind values (floats via IEEE total order).
    /// Cross-kind comparisons order by kind tag, which keeps sorting total
    /// without claiming cross-kind semantics.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Oid(a), Oid(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Flt(a), Flt(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Bit(a), Bit(b)) => a.cmp(b),
            _ => self.kind().rank().cmp(&other.kind().rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Oid(o) => write!(f, "{o}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Flt(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bit(b) => write!(f, "{b}"),
        }
    }
}

impl From<Oid> for Value {
    fn from(o: Oid) -> Self {
        Value::Oid(o)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Flt(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bit(b)
    }
}

/// The static type of a BAT tail column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnKind {
    /// `oid × oid` — parent/child associations.
    Oid,
    /// `oid × int` — ranks, counts, frame numbers.
    Int,
    /// `oid × float` — features and scores.
    Flt,
    /// `oid × string` — labels, CDATA, terms.
    Str,
    /// `oid × bool` — predicate outcomes.
    Bit,
}

impl ColumnKind {
    fn rank(self) -> u8 {
        match self {
            ColumnKind::Oid => 0,
            ColumnKind::Int => 1,
            ColumnKind::Flt => 2,
            ColumnKind::Str => 3,
            ColumnKind::Bit => 4,
        }
    }
}

impl fmt::Display for ColumnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnKind::Oid => "oid",
            ColumnKind::Int => "int",
            ColumnKind::Flt => "flt",
            ColumnKind::Str => "str",
            ColumnKind::Bit => "bit",
        };
        f.write_str(s)
    }
}

/// Aggregate statistics of a [`StrPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DictStats {
    /// Distinct strings interned.
    pub entries: usize,
    /// Total bytes of the interned string payloads.
    pub bytes: usize,
    /// Interning calls that found an existing entry.
    pub hits: u64,
    /// Interning calls that created a new entry.
    pub misses: u64,
}

impl DictStats {
    /// Fraction of interning calls served by an existing entry, in
    /// `[0, 1]`; `0` before any interning happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Merges another pool's stats into this one (for whole-engine
    /// gauges spanning several catalogs).
    pub fn merge(&mut self, other: &DictStats) {
        self.entries += other.entries;
        self.bytes += other.bytes;
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

#[derive(Debug, Default)]
struct PoolInner {
    /// code → string, append-only.
    strings: Vec<String>,
    /// string → code.
    map: HashMap<String, u32>,
    bytes: usize,
    hits: u64,
    misses: u64,
}

/// A shared string interner: the dictionary behind every `oid × str`
/// column of one catalog.
///
/// Codes are dense `u32`s assigned in first-appearance order, so a
/// catalog built by a deterministic sequence of inserts always assigns
/// the same codes — the property the snapshot byte-identity tests rely
/// on. The pool is append-only: codes stay valid for the lifetime of
/// the pool, even across clones (clones share the same `Arc`).
#[derive(Debug, Clone, Default)]
pub struct StrPool {
    inner: Arc<RwLock<PoolInner>>,
}

/// Read the pool even if a writer panicked mid-update: the inner state
/// is only ever extended (push + insert), so a poisoned lock still
/// guards structurally valid data.
fn read_pool(inner: &RwLock<PoolInner>) -> RwLockReadGuard<'_, PoolInner> {
    inner.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write_pool(inner: &RwLock<PoolInner>) -> RwLockWriteGuard<'_, PoolInner> {
    inner.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl StrPool {
    /// An empty pool.
    pub fn new() -> Self {
        StrPool::default()
    }

    /// Whether two handles view the same underlying dictionary.
    pub fn same_pool(&self, other: &StrPool) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Interns `s`, returning its dictionary code (existing or fresh).
    pub fn intern(&self, s: &str) -> u32 {
        let mut inner = write_pool(&self.inner);
        if let Some(&code) = inner.map.get(s) {
            inner.hits += 1;
            return code;
        }
        let code = inner.strings.len() as u32;
        inner.strings.push(s.to_owned());
        inner.map.insert(s.to_owned(), code);
        inner.bytes += s.len();
        inner.misses += 1;
        code
    }

    /// The code of `s`, if already interned. Never inserts — safe to
    /// call on query probes without perturbing the dictionary.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        read_pool(&self.inner).map.get(s).copied()
    }

    /// The string behind `code`, if in range.
    pub fn get(&self, code: u32) -> Option<String> {
        read_pool(&self.inner).strings.get(code as usize).cloned()
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        read_pool(&self.inner).strings.len()
    }

    /// Whether the pool holds no strings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate statistics (entries, payload bytes, hit/miss counts).
    pub fn stats(&self) -> DictStats {
        let inner = read_pool(&self.inner);
        DictStats {
            entries: inner.strings.len(),
            bytes: inner.bytes,
            hits: inner.hits,
            misses: inner.misses,
        }
    }

    /// Every interned string in code order (the snapshot dictionary
    /// section).
    pub fn dump(&self) -> Vec<String> {
        read_pool(&self.inner).strings.clone()
    }

    /// Runs `f` over the string behind each code in `codes`, in order —
    /// one lock acquisition for the whole batch. Out-of-range codes
    /// (impossible for codes produced by this pool) yield `""`.
    pub fn with_decoded<F: FnMut(&str)>(&self, codes: &[u32], mut f: F) {
        let inner = read_pool(&self.inner);
        for &c in codes {
            f(inner.strings.get(c as usize).map(String::as_str).unwrap_or(""));
        }
    }

    /// Rebuilds a pool from a snapshot dictionary: strings in code
    /// order. Duplicate entries are rejected (a forged dictionary must
    /// not alias two codes to one string).
    pub fn from_dump(strings: Vec<String>) -> Result<StrPool, String> {
        let mut inner = PoolInner::default();
        for (code, s) in strings.into_iter().enumerate() {
            inner.bytes += s.len();
            if inner.map.insert(s.clone(), code as u32).is_some() {
                return Err(format!("duplicate dictionary entry {s:?}"));
            }
            inner.strings.push(s);
        }
        Ok(StrPool {
            inner: Arc::new(RwLock::new(inner)),
        })
    }
}

/// A dictionary-encoded string column: `u32` codes into a [`StrPool`].
///
/// The typed accessor pair ([`StrColumn::push`] / [`StrColumn::get`])
/// round-trips byte-identically: interning stores the exact bytes, so
/// decode returns exactly what was appended. Columns registered in a
/// [`crate::Db`] share the catalog's pool; a standalone column carries
/// a private one.
#[derive(Debug, Clone)]
pub struct StrColumn {
    codes: Vec<u32>,
    pool: StrPool,
}

impl StrColumn {
    /// An empty column over a fresh private pool.
    pub fn new() -> Self {
        StrColumn {
            codes: Vec::new(),
            pool: StrPool::new(),
        }
    }

    /// An empty column interning into `pool`.
    pub fn with_pool(pool: StrPool) -> Self {
        StrColumn {
            codes: Vec::new(),
            pool,
        }
    }

    /// Reassembles a column from snapshot parts. Fails if any code
    /// falls outside the pool (hostile snapshot payload).
    pub fn from_codes(codes: Vec<u32>, pool: StrPool) -> Result<Self, String> {
        let n = pool.len() as u32;
        if let Some(bad) = codes.iter().find(|&&c| c >= n) {
            return Err(format!("dictionary code {bad} out of range (pool has {n})"));
        }
        Ok(StrColumn { codes, pool })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Appends a string (interning it), returning its code.
    pub fn push(&mut self, s: &str) -> u32 {
        let code = self.pool.intern(s);
        self.codes.push(code);
        code
    }

    /// Decodes the entry at `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds, like slice indexing.
    pub fn get(&self, idx: usize) -> String {
        self.pool
            .get(self.codes[idx])
            .unwrap_or_default()
    }

    /// The dictionary code at `idx` (no decode).
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds, like slice indexing.
    pub fn code(&self, idx: usize) -> u32 {
        self.codes[idx]
    }

    /// The raw code vector — the physical representation scans run on.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The dictionary this column encodes against.
    pub fn pool(&self) -> &StrPool {
        &self.pool
    }

    /// The code `s` would decode from, if `s` is in the dictionary.
    /// Never inserts.
    pub fn find_code(&self, s: &str) -> Option<u32> {
        self.pool.lookup(s)
    }

    /// Decodes the whole column in one lock acquisition.
    pub fn decode_all(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.codes.len());
        self.pool.with_decoded(&self.codes, |s| out.push(s.to_owned()));
        out
    }

    /// Re-interns every entry into `pool` (used when a standalone BAT
    /// is registered in a catalog, adopting the shared dictionary).
    pub fn rehome(&mut self, pool: &StrPool) {
        if self.pool.same_pool(pool) {
            return;
        }
        let decoded = self.decode_all();
        self.codes.clear();
        for s in &decoded {
            self.codes.push(pool.intern(s));
        }
        self.pool = pool.clone();
    }

    fn swap_remove(&mut self, idx: usize) {
        self.codes.swap_remove(idx);
    }

    fn set(&mut self, idx: usize, s: &str) {
        self.codes[idx] = self.pool.intern(s);
    }

    /// Heap bytes attributable to this column (codes only — the pool is
    /// shared and accounted once per catalog).
    pub fn resident_bytes(&self) -> usize {
        self.codes.capacity() * std::mem::size_of::<u32>()
    }
}

impl Default for StrColumn {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for StrColumn {
    fn eq(&self, other: &Self) -> bool {
        if self.codes.len() != other.codes.len() {
            return false;
        }
        if self.pool.same_pool(&other.pool) {
            return self.codes == other.codes;
        }
        // Different dictionaries: codes are incomparable, the decoded
        // strings are the ground truth.
        self.decode_all() == other.decode_all()
    }
}

/// A typed tail column: one variant per [`ColumnKind`], stored densely.
///
/// Keeping tails in homogeneous vectors (instead of `Vec<Value>`) is what
/// makes scans over a path relation cache-friendly — the property the
/// paper's "semantic clustering" argument rests on. String tails are
/// dictionary-encoded ([`StrColumn`]): the column holds `u32` codes and
/// the strings live once in a (usually catalog-shared) [`StrPool`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    /// Oid tails.
    Oid(Vec<Oid>),
    /// Integer tails.
    Int(Vec<i64>),
    /// Float tails.
    Flt(Vec<f64>),
    /// String tails (dictionary codes).
    Str(StrColumn),
    /// Boolean tails.
    Bit(Vec<bool>),
}

impl Column {
    /// An empty column of the given kind. String columns get a fresh
    /// private pool; use [`Column::empty_with_pool`] to share a
    /// catalog dictionary.
    pub fn empty(kind: ColumnKind) -> Self {
        match kind {
            ColumnKind::Oid => Column::Oid(Vec::new()),
            ColumnKind::Int => Column::Int(Vec::new()),
            ColumnKind::Flt => Column::Flt(Vec::new()),
            ColumnKind::Str => Column::Str(StrColumn::new()),
            ColumnKind::Bit => Column::Bit(Vec::new()),
        }
    }

    /// An empty column of the given kind whose strings (if any) intern
    /// into `pool`.
    pub fn empty_with_pool(kind: ColumnKind, pool: &StrPool) -> Self {
        match kind {
            ColumnKind::Str => Column::Str(StrColumn::with_pool(pool.clone())),
            other => Column::empty(other),
        }
    }

    /// The kind of this column.
    pub fn kind(&self) -> ColumnKind {
        match self {
            Column::Oid(_) => ColumnKind::Oid,
            Column::Int(_) => ColumnKind::Int,
            Column::Flt(_) => ColumnKind::Flt,
            Column::Str(_) => ColumnKind::Str,
            Column::Bit(_) => ColumnKind::Bit,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Column::Oid(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Flt(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bit(v) => v.len(),
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `idx` (boxed into the dynamic [`Value`]).
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds, like slice indexing.
    pub fn get(&self, idx: usize) -> Value {
        match self {
            Column::Oid(v) => Value::Oid(v[idx]),
            Column::Int(v) => Value::Int(v[idx]),
            Column::Flt(v) => Value::Flt(v[idx]),
            Column::Str(v) => Value::Str(v.get(idx)),
            Column::Bit(v) => Value::Bit(v[idx]),
        }
    }

    /// Appends a dynamic value; fails on kind mismatch.
    pub fn push(&mut self, value: Value) -> Result<(), (ColumnKind, ColumnKind)> {
        match (self, value) {
            (Column::Oid(v), Value::Oid(x)) => v.push(x),
            (Column::Int(v), Value::Int(x)) => v.push(x),
            (Column::Flt(v), Value::Flt(x)) => v.push(x),
            (Column::Str(v), Value::Str(x)) => {
                v.push(&x);
            }
            (Column::Bit(v), Value::Bit(x)) => v.push(x),
            (col, value) => return Err((col.kind(), value.kind())),
        }
        Ok(())
    }

    /// Removes the entry at `idx` by swapping with the last entry.
    pub(crate) fn swap_remove(&mut self, idx: usize) {
        match self {
            Column::Oid(v) => {
                v.swap_remove(idx);
            }
            Column::Int(v) => {
                v.swap_remove(idx);
            }
            Column::Flt(v) => {
                v.swap_remove(idx);
            }
            Column::Str(v) => {
                v.swap_remove(idx);
            }
            Column::Bit(v) => {
                v.swap_remove(idx);
            }
        }
    }

    /// Estimated heap bytes held by this column. String columns count
    /// their codes only — the dictionary payload is shared and
    /// accounted once per catalog pool.
    pub fn resident_bytes(&self) -> usize {
        match self {
            Column::Oid(v) => v.capacity() * std::mem::size_of::<Oid>(),
            Column::Int(v) => v.capacity() * 8,
            Column::Flt(v) => v.capacity() * 8,
            Column::Str(v) => v.resident_bytes(),
            Column::Bit(v) => v.capacity(),
        }
    }

    /// Overwrites the entry at `idx`; fails on kind mismatch.
    pub(crate) fn set(&mut self, idx: usize, value: Value) -> Result<(), (ColumnKind, ColumnKind)> {
        match (self, value) {
            (Column::Oid(v), Value::Oid(x)) => v[idx] = x,
            (Column::Int(v), Value::Int(x)) => v[idx] = x,
            (Column::Flt(v), Value::Flt(x)) => v[idx] = x,
            (Column::Str(v), Value::Str(x)) => v.set(idx, &x),
            (Column::Bit(v), Value::Bit(x)) => v[idx] = x,
            (col, value) => return Err((col.kind(), value.kind())),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors_round_trip() {
        assert_eq!(Value::from(7i64).as_int(), Some(7));
        assert_eq!(Value::from(1.5f64).as_flt(), Some(1.5));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(true), Value::Bit(true));
        assert_eq!(
            Value::from(Oid::from_raw(3)).as_oid(),
            Some(Oid::from_raw(3))
        );
    }

    #[test]
    fn int_widens_to_float_for_predicates() {
        // Paper, Fig. 7: `player.yPos <= 170.0` mixes int/float domains.
        assert_eq!(Value::Int(170).as_flt(), Some(170.0));
    }

    #[test]
    fn total_cmp_is_total_on_floats() {
        let a = Value::Flt(f64::NAN);
        let b = Value::Flt(1.0);
        // No panic, some consistent order.
        let ord1 = a.total_cmp(&b);
        let ord2 = b.total_cmp(&a);
        assert_eq!(ord1, ord2.reverse());
    }

    #[test]
    fn column_push_rejects_kind_mismatch() {
        let mut c = Column::empty(ColumnKind::Int);
        assert!(c.push(Value::Int(1)).is_ok());
        let err = c.push(Value::Str("no".into())).unwrap_err();
        assert_eq!(err, (ColumnKind::Int, ColumnKind::Str));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn column_get_returns_stored_value() {
        let mut c = Column::empty(ColumnKind::Str);
        c.push(Value::from("alpha")).unwrap();
        c.push(Value::from("beta")).unwrap();
        assert_eq!(c.get(1), Value::from("beta"));
    }

    #[test]
    fn interning_dedups_and_round_trips() {
        let pool = StrPool::new();
        let mut col = StrColumn::with_pool(pool.clone());
        let a = col.push("tennis");
        let b = col.push("grass");
        let c = col.push("tennis");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
        assert_eq!(col.get(0), "tennis");
        assert_eq!(col.get(1), "grass");
        assert_eq!(col.get(2), "tennis");
        let stats = pool.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn lookup_never_inserts() {
        let pool = StrPool::new();
        pool.intern("present");
        assert_eq!(pool.lookup("absent"), None);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn columns_over_different_pools_compare_by_content() {
        let mut a = StrColumn::new();
        let mut b = StrColumn::new();
        // Different interleavings → different codes, same content.
        a.push("x");
        a.push("y");
        b.pool().intern("y");
        b.push("x");
        b.push("y");
        assert_eq!(a, b);
        b.push("z");
        assert_ne!(a, b);
    }

    #[test]
    fn rehome_preserves_content_and_shares_pool() {
        let shared = StrPool::new();
        shared.intern("pre-existing");
        let mut col = StrColumn::new();
        col.push("alpha");
        col.push("beta");
        let before = col.decode_all();
        col.rehome(&shared);
        assert!(col.pool().same_pool(&shared));
        assert_eq!(col.decode_all(), before);
    }

    #[test]
    fn from_dump_rejects_duplicates_and_round_trips() {
        let pool = StrPool::new();
        pool.intern("a");
        pool.intern("b");
        let dump = pool.dump();
        let restored = StrPool::from_dump(dump.clone()).unwrap();
        assert_eq!(restored.dump(), dump);
        assert_eq!(restored.lookup("b"), pool.lookup("b"));
        assert!(StrPool::from_dump(vec!["dup".into(), "dup".into()]).is_err());
    }

    #[test]
    fn from_codes_rejects_out_of_range() {
        let pool = StrPool::new();
        pool.intern("only");
        assert!(StrColumn::from_codes(vec![0, 1], pool.clone()).is_err());
        let ok = StrColumn::from_codes(vec![0, 0], pool).unwrap();
        assert_eq!(ok.decode_all(), vec!["only", "only"]);
    }
}
