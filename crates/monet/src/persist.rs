//! Catalog snapshots.
//!
//! The paper's physical level "takes care of scalable and efficient
//! persistent data storage"; this module provides the checkpoint half of
//! that promise: a whole-catalog binary snapshot with a CRC-32 trailer
//! so recovery can tell an intact checkpoint from a torn or bit-flipped
//! one. The format is a small hand-rolled binary encoding built on
//! cursors over `Vec<u8>`/`&[u8]` so no serialisation format crate is
//! needed.
//!
//! Layout (version 3, compressed):
//!
//! ```text
//! magic "MBAT" | version u8 | next_oid u64
//! dictionary: count u32 | count × (u32 len + utf8)    — shared pool, code order
//! relation count u32
//! directory, per relation: name (u32 len + utf8) | kind u8
//!                          | rows varint | payload_len varint
//! payloads, concatenated in directory order:
//!   heads:  zigzag-varint deltas (monotone oid runs collapse to 1 byte/row)
//!   tails:  oid → zigzag-varint deltas · int → zigzag varint
//!           flt → raw 8-byte bits      · str → varint dictionary code
//!           bit → packed 8 rows/byte
//! crc32 of everything above: u32 LE
//! ```
//!
//! The directory-plus-payload split is what makes lazy opening possible:
//! [`SnapshotReader::open`] checks the CRC and parses only the header,
//! dictionary and directory; each relation's payload is decoded on first
//! catalog access (see `catalog::Slot`).
//!
//! Version 3 is the only format read or written; any other version
//! byte is refused with a typed error. Decoding is hardened against
//! hostile input: every length-prefixed allocation is capped by the
//! bytes actually remaining in the buffer, so a corrupt dictionary,
//! relation or row count cannot trigger a multi-gigabyte allocation.

use std::sync::Arc;

use crate::bat::Bat;
use crate::catalog::Db;
use crate::crc::crc32;
use crate::error::{Error, Result};
use crate::oid::Oid;
use crate::storage::{write_atomic, StorageBackend};
use crate::value::{Column, ColumnKind, StrColumn, StrPool};

const MAGIC: &[u8; 4] = b"MBAT";
const VERSION: u8 = 3;

/// Encodes the catalog into a compressed (v3) snapshot with a CRC-32
/// trailer.
pub fn snapshot(db: &Db) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_u64(&mut out, db.next_oid_raw());
    let dict = db.pool().dump();
    put_u32(&mut out, dict.len() as u32);
    for s in &dict {
        put_str(&mut out, s);
    }
    let names: Vec<&str> = db.relation_names().collect();
    put_u32(&mut out, names.len() as u32);
    // Encode payloads first so the directory can carry their lengths.
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(names.len());
    for name in &names {
        let bat = db
            .get(name)
            .map_err(|_| Error::Snapshot(format!("catalog lists missing relation {name}")))?;
        let mut p = Vec::new();
        encode_heads_delta(&mut p, bat.head_slice());
        encode_tail_v3(&mut p, bat, db.pool())?;
        payloads.push(p);
    }
    for (name, payload) in names.iter().zip(&payloads) {
        let bat = db.get(name).map_err(|_| {
            Error::Snapshot(format!("catalog lists missing relation {name}"))
        })?;
        put_str(&mut out, name);
        out.push(kind_tag(bat.kind()));
        put_varint(&mut out, bat.len() as u64);
        put_varint(&mut out, payload.len() as u64);
    }
    for payload in &payloads {
        out.extend_from_slice(payload);
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    Ok(out)
}

/// Decodes a snapshot produced by [`snapshot`], materializing every
/// relation.
pub fn restore(bytes: &[u8]) -> Result<Db> {
    SnapshotReader::open(bytes.to_vec())?.into_db()
}

/// Decodes a snapshot without materializing relation payloads: it opens
/// in time proportional to its directory, and each BAT is decoded on
/// first catalog access.
pub fn restore_lazy(bytes: Vec<u8>) -> Result<Db> {
    Ok(SnapshotReader::open(bytes)?.into_db_lazy())
}

/// An undecoded relation inside an opened v3 snapshot: a payload slice
/// plus the directory facts needed to decode it on demand.
#[derive(Debug, Clone)]
pub(crate) struct LazyRelation {
    bytes: Arc<Vec<u8>>,
    start: usize,
    len: usize,
    kind: ColumnKind,
    rows: u64,
    pool: StrPool,
}

impl LazyRelation {
    pub(crate) fn rows(&self) -> u64 {
        self.rows
    }

    /// Decodes the payload into a [`Bat`] (head index built in the same
    /// pass). The payload must be consumed exactly.
    pub(crate) fn decode(&self) -> Result<Bat> {
        let buf = &self.bytes[self.start..self.start + self.len];
        let mut cur = Cursor { buf, pos: 0 };
        let rows = self.rows as usize;
        let heads = decode_heads_delta(&mut cur, rows)?;
        let tail = decode_tail_v3(&mut cur, self.kind, rows, &self.pool)?;
        if cur.remaining() != 0 {
            return Err(Error::Snapshot(format!(
                "relation payload has {} trailing bytes",
                cur.remaining()
            )));
        }
        Bat::from_parts(heads, tail)
    }
}

/// An opened v3 snapshot: CRC verified, header + dictionary + directory
/// parsed, relation payloads untouched.
#[derive(Debug)]
pub struct SnapshotReader {
    next_oid: u64,
    pool: StrPool,
    entries: Vec<(String, LazyRelation)>,
}

impl SnapshotReader {
    /// Validates the trailer CRC and parses everything except relation
    /// payloads.
    pub fn open(bytes: Vec<u8>) -> Result<SnapshotReader> {
        if bytes.len() < 9 {
            return Err(Error::Snapshot("truncated snapshot".into()));
        }
        if &bytes[..4] != MAGIC {
            return Err(Error::Snapshot("bad magic".into()));
        }
        if bytes[4] != VERSION {
            return Err(Error::Snapshot(format!("unsupported version {}", bytes[4])));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
        let actual = crc32(body);
        if stored != actual {
            return Err(Error::Snapshot(format!(
                "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        let body_len = body.len();
        let mut cur = Cursor { buf: body, pos: 5 };
        let next_oid = cur.u64()?;
        let dict_count = cur.u32()? as usize;
        // Each dictionary entry costs at least its 4-byte length prefix.
        if dict_count > cur.remaining() / 4 {
            return Err(Error::Snapshot(format!(
                "dictionary count {dict_count} exceeds buffer"
            )));
        }
        let mut dict = Vec::with_capacity(dict_count);
        for _ in 0..dict_count {
            dict.push(cur.string()?);
        }
        let pool = StrPool::from_dump(dict).map_err(Error::Snapshot)?;
        let nrel = cur.u32()? as usize;
        // Name length prefix (4) + kind (1) + rows (≥1) + len (≥1).
        if nrel > cur.remaining() / 7 {
            return Err(Error::Snapshot(format!("relation count {nrel} exceeds buffer")));
        }
        let mut dir = Vec::with_capacity(nrel);
        for _ in 0..nrel {
            let name = cur.string()?;
            let kind = tag_kind(cur.u8()?)?;
            let rows = cur.varint()?;
            let len = cur.varint()? as usize;
            dir.push((name, kind, rows, len));
        }
        // Payloads sit back to back and must end exactly at the trailer.
        let mut offset = cur.pos;
        let bytes = Arc::new(bytes);
        let mut entries = Vec::with_capacity(dir.len());
        for (name, kind, rows, len) in dir {
            if len > body_len.saturating_sub(offset) {
                return Err(Error::Snapshot(format!(
                    "payload for {name} overruns the snapshot"
                )));
            }
            // Every head costs at least one varint byte, so a payload
            // cannot describe more rows than it has bytes.
            if rows > len as u64 && rows > 0 {
                return Err(Error::Snapshot(format!(
                    "row count {rows} for {name} exceeds payload"
                )));
            }
            entries.push((
                name,
                LazyRelation {
                    bytes: Arc::clone(&bytes),
                    start: offset,
                    len,
                    kind,
                    rows,
                    pool: pool.clone(),
                },
            ));
            offset += len;
        }
        if offset != body_len {
            return Err(Error::Snapshot(format!(
                "{} unaccounted payload bytes",
                body_len - offset
            )));
        }
        Ok(SnapshotReader {
            next_oid,
            pool,
            entries,
        })
    }

    /// The oid high watermark recorded in the snapshot.
    pub fn next_oid(&self) -> u64 {
        self.next_oid
    }

    /// Relation names in snapshot order, without decoding anything.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// Builds a catalog whose relations decode on first access.
    pub fn into_db_lazy(self) -> Db {
        Db::from_snapshot_parts(self.next_oid, self.pool, self.entries, Vec::new())
    }

    /// Builds a fully materialized catalog (decodes every relation now).
    pub fn into_db(self) -> Result<Db> {
        let mut eager = Vec::with_capacity(self.entries.len());
        for (name, rel) in self.entries {
            eager.push((name, rel.decode()?));
        }
        Ok(Db::from_snapshot_parts(
            self.next_oid,
            self.pool,
            Vec::new(),
            eager,
        ))
    }
}

/// Writes a snapshot atomically (temp file + rename) through `backend`.
pub fn save_atomic(db: &Db, backend: &dyn StorageBackend, path: &std::path::Path) -> Result<()> {
    write_atomic(backend, path, &snapshot(db)?)
}

fn kind_tag(kind: ColumnKind) -> u8 {
    match kind {
        ColumnKind::Oid => 0,
        ColumnKind::Int => 1,
        ColumnKind::Flt => 2,
        ColumnKind::Str => 3,
        ColumnKind::Bit => 4,
    }
}

fn tag_kind(tag: u8) -> Result<ColumnKind> {
    Ok(match tag {
        0 => ColumnKind::Oid,
        1 => ColumnKind::Int,
        2 => ColumnKind::Flt,
        3 => ColumnKind::Str,
        4 => ColumnKind::Bit,
        other => return Err(Error::Snapshot(format!("bad kind tag {other}"))),
    })
}

// ---- v3 column codecs -------------------------------------------------

/// Oid sequences as zigzag-varint deltas: the head column of a
/// bulk-loaded relation is monotone (often with long +0/+1 runs), so
/// most rows cost one byte instead of eight. Wrapping arithmetic keeps
/// the transform lossless for arbitrary (e.g. swap-removed) orders.
fn encode_heads_delta(out: &mut Vec<u8>, heads: &[Oid]) {
    let mut prev = 0u64;
    for h in heads {
        let d = h.raw().wrapping_sub(prev) as i64;
        put_varint(out, zigzag(d));
        prev = h.raw();
    }
}

fn decode_heads_delta(cur: &mut Cursor<'_>, rows: usize) -> Result<Vec<Oid>> {
    if rows > cur.remaining() {
        return Err(Error::Snapshot(format!(
            "row count {rows} exceeds remaining buffer"
        )));
    }
    let mut out = Vec::with_capacity(rows);
    let mut prev = 0u64;
    for _ in 0..rows {
        let d = unzigzag(cur.varint()?);
        prev = prev.wrapping_add(d as u64);
        out.push(Oid::from_raw(prev));
    }
    Ok(out)
}

fn encode_tail_v3(out: &mut Vec<u8>, bat: &Bat, pool: &StrPool) -> Result<()> {
    match bat.tail() {
        Column::Oid(vs) => {
            let mut prev = 0u64;
            for v in vs {
                let d = v.raw().wrapping_sub(prev) as i64;
                put_varint(out, zigzag(d));
                prev = v.raw();
            }
        }
        Column::Int(vs) => {
            for v in vs {
                put_varint(out, zigzag(*v));
            }
        }
        Column::Flt(vs) => {
            for v in vs {
                put_u64(out, v.to_bits());
            }
        }
        Column::Str(col) => {
            if col.pool().same_pool(pool) {
                for &c in col.codes() {
                    put_varint(out, c as u64);
                }
            } else {
                // A column not homed in the catalog pool (shouldn't
                // happen through the public API): encode via strings.
                for s in col.decode_all() {
                    put_varint(out, pool.intern(&s) as u64);
                }
            }
        }
        Column::Bit(vs) => {
            let mut byte = 0u8;
            for (i, v) in vs.iter().enumerate() {
                if *v {
                    byte |= 1 << (i % 8);
                }
                if i % 8 == 7 {
                    out.push(byte);
                    byte = 0;
                }
            }
            if vs.len() % 8 != 0 {
                out.push(byte);
            }
        }
    }
    Ok(())
}

fn decode_tail_v3(
    cur: &mut Cursor<'_>,
    kind: ColumnKind,
    rows: usize,
    pool: &StrPool,
) -> Result<Column> {
    // Bit columns pack 8 rows/byte; everything else is ≥1 byte/row.
    let floor = if kind == ColumnKind::Bit { rows / 8 } else { rows };
    if floor > cur.remaining() {
        return Err(Error::Snapshot(format!(
            "tail rows {rows} exceed remaining buffer"
        )));
    }
    Ok(match kind {
        ColumnKind::Oid => {
            let mut vs = Vec::with_capacity(rows);
            let mut prev = 0u64;
            for _ in 0..rows {
                let d = unzigzag(cur.varint()?);
                prev = prev.wrapping_add(d as u64);
                vs.push(Oid::from_raw(prev));
            }
            Column::Oid(vs)
        }
        ColumnKind::Int => {
            let mut vs = Vec::with_capacity(rows);
            for _ in 0..rows {
                vs.push(unzigzag(cur.varint()?));
            }
            Column::Int(vs)
        }
        ColumnKind::Flt => {
            let mut vs = Vec::with_capacity(rows);
            for _ in 0..rows {
                vs.push(f64::from_bits(cur.u64()?));
            }
            Column::Flt(vs)
        }
        ColumnKind::Str => {
            let mut codes = Vec::with_capacity(rows);
            for _ in 0..rows {
                let c = cur.varint()?;
                if c > u32::MAX as u64 {
                    return Err(Error::Snapshot(format!("dictionary code {c} overflows")));
                }
                codes.push(c as u32);
            }
            Column::Str(StrColumn::from_codes(codes, pool.clone()).map_err(Error::Snapshot)?)
        }
        ColumnKind::Bit => {
            let nbytes = rows.div_ceil(8);
            let packed = cur.take(nbytes)?;
            let mut vs = Vec::with_capacity(rows);
            for i in 0..rows {
                vs.push(packed[i / 8] & (1 << (i % 8)) != 0);
            }
            Column::Bit(vs)
        }
    })
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends `v` as a LEB128 unsigned varint — the codec the snapshot
/// columns use, public so derived in-memory structures (the text tier's
/// posting lists) code their integers the same way.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one LEB128 varint from `buf` at `*pos` and advances `*pos`
/// past it. `None` when the buffer ends mid-value or the value runs
/// past ten bytes.
#[inline]
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in 0..10 {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << (7 * shift);
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// Zigzag maps signed to unsigned so small-magnitude deltas stay short.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(Error::Snapshot("truncated snapshot".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// LEB128 unsigned varint, at most 10 bytes.
    fn varint(&mut self) -> Result<u64> {
        let start = self.pos;
        get_varint(self.buf, &mut self.pos).ok_or_else(|| {
            Error::Snapshot(if self.pos - start == 10 {
                "varint longer than 10 bytes".into()
            } else {
                "truncated snapshot".into()
            })
        })
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        // `take` re-checks, but failing here avoids the allocation for
        // a hostile length in `from_utf8`'s input.
        if len > self.remaining() {
            return Err(Error::Snapshot(format!("string length {len} exceeds buffer")));
        }
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|e| Error::Snapshot(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::FsBackend;

    fn sample_db() -> Db {
        let mut db = Db::new();
        let a = db.mint();
        let b = db.mint();
        db.get_or_create("edges", ColumnKind::Oid)
            .append_oid(a, b)
            .unwrap();
        db.get_or_create("names", ColumnKind::Str)
            .append_str(a, "seles")
            .unwrap();
        db.get_or_create("ranks", ColumnKind::Int)
            .append_int(b, 1)
            .unwrap();
        db.get_or_create("scores", ColumnKind::Flt)
            .append_flt(b, 0.75)
            .unwrap();
        db.get_or_create("flags", ColumnKind::Bit)
            .append_bit(a, true)
            .unwrap();
        db
    }

    /// Size of [`bulky_db`] in the retired v2 format, measured with the
    /// v2 writer before it was deleted.
    const BULKY_DB_V2_LEN: usize = 21_747;

    /// A db with enough repetitive data that compression must bite.
    fn bulky_db() -> Db {
        let mut db = Db::new();
        for i in 0..500 {
            let o = db.mint();
            db.get_or_create("country", ColumnKind::Str)
                .append_str(o, ["australia", "germany", "usa"][i % 3])
                .unwrap();
            db.get_or_create("rank", ColumnKind::Int)
                .append_int(o, (i % 10) as i64)
                .unwrap();
            db.get_or_create("active", ColumnKind::Bit)
                .append_bit(o, i % 2 == 0)
                .unwrap();
        }
        db
    }

    #[test]
    fn snapshot_round_trips_all_kinds() {
        let db = sample_db();
        let bytes = snapshot(&db).unwrap();
        let back = restore(&bytes).unwrap();
        assert_eq!(back.relation_count(), db.relation_count());
        for name in db.relation_names() {
            assert_eq!(back.get(name).unwrap(), db.get(name).unwrap(), "{name}");
        }
    }

    #[test]
    fn v3_is_smaller_than_v2_on_repetitive_data() {
        let db = bulky_db();
        let v2 = BULKY_DB_V2_LEN;
        let v3 = snapshot(&db).unwrap().len();
        assert!(
            v3 * 2 <= v2,
            "expected ≥2x compression, got v2={v2} v3={v3}"
        );
    }

    #[test]
    fn snapshot_is_stable_across_restore_cycles() {
        // snapshot(restore(snapshot(db))) must be byte-identical: the
        // dictionary section reproduces pool codes exactly.
        let db = bulky_db();
        let first = snapshot(&db).unwrap();
        let second = snapshot(&restore(&first).unwrap()).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn lazy_open_defers_decoding() {
        let db = bulky_db();
        let bytes = snapshot(&db).unwrap();
        let lazy = restore_lazy(bytes).unwrap();
        assert_eq!(lazy.materialized_count(), 0, "nothing decoded at open");
        assert_eq!(lazy.relation_count(), db.relation_count());
        assert_eq!(lazy.association_count(), db.association_count());
        // First access materializes exactly that relation.
        assert_eq!(
            lazy.get("country").unwrap(),
            db.get("country").unwrap()
        );
        assert_eq!(lazy.materialized_count(), 1);
        assert_eq!(lazy.get("rank").unwrap(), db.get("rank").unwrap());
        assert_eq!(lazy.materialized_count(), 2);
    }

    #[test]
    fn lazy_catalog_mints_past_watermark_without_decoding() {
        let db = sample_db();
        let max_existing = db.get("edges").unwrap().iter().map(|(h, _)| h).max().unwrap();
        let mut lazy = restore_lazy(snapshot(&db).unwrap()).unwrap();
        let fresh = lazy.mint();
        assert!(fresh > max_existing);
        assert_eq!(lazy.materialized_count(), 0);
    }

    #[test]
    fn restored_db_mints_fresh_oids() {
        let db = sample_db();
        let max_existing = db
            .get("edges")
            .unwrap()
            .iter()
            .map(|(h, _)| h)
            .max()
            .unwrap();
        let mut back = restore(&snapshot(&db).unwrap()).unwrap();
        let fresh = back.mint();
        assert!(fresh > max_existing, "{fresh} vs {max_existing}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(restore(b"XXXX\x01").is_err());
    }

    #[test]
    fn retired_versions_are_refused() {
        for version in [1, 2, 4] {
            let mut bytes = snapshot(&sample_db()).unwrap();
            bytes[4] = version;
            match restore(&bytes) {
                Err(Error::Snapshot(msg)) => assert!(msg.contains("unsupported version"), "{msg}"),
                other => panic!("version {version}: expected Snapshot error, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let bytes = snapshot(&sample_db()).unwrap();
        assert!(restore(&bytes[..bytes.len() / 2]).is_err());
    }

    fn assert_every_flip_is_rejected(bytes: &[u8]) {
        let mut copy = bytes.to_vec();
        for i in 0..copy.len() {
            copy[i] ^= 0x40;
            match restore(&copy) {
                Err(Error::Snapshot(_)) => {}
                Err(other) => panic!("byte {i}: unexpected error kind {other:?}"),
                Ok(_) => panic!("byte {i}: corruption slipped past the checksum"),
            }
            copy[i] ^= 0x40;
        }
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        assert_every_flip_is_rejected(&snapshot(&sample_db()).unwrap());
    }

    #[test]
    fn forged_crc_never_panics() {
        // Flip each body byte AND fix up the trailer so the CRC passes:
        // decoding must then either fail with a typed error or produce
        // some catalog — never panic or over-allocate.
        let db = sample_db();
        let bytes = snapshot(&db).unwrap();
        let mut copy = bytes.clone();
        let body_len = copy.len() - 4;
        for i in 5..body_len {
            copy[i] ^= 0x40;
            let crc = crc32(&copy[..body_len]);
            copy[body_len..].copy_from_slice(&crc.to_le_bytes());
            let _ = restore(&copy);
            copy[i] ^= 0x40;
        }
    }

    #[test]
    fn hostile_row_count_cannot_explode_allocation() {
        // Forge a huge dictionary count, then a huge relation count, and
        // fix up the trailer so the CRC passes: the caps must reject
        // each without allocating.
        let db = sample_db();
        let bytes = snapshot(&db).unwrap();
        let dict_off = 4 + 1 + 8;
        let dict_len: usize = db.pool().dump().iter().map(|s| 4 + s.len()).sum();
        let nrel_off = dict_off + 4 + dict_len;
        for off in [dict_off, nrel_off] {
            let mut copy = bytes.clone();
            copy[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let body_len = copy.len() - 4;
            let crc = crc32(&copy[..body_len]);
            copy[body_len..].copy_from_slice(&crc.to_le_bytes());
            match restore(&copy) {
                Err(Error::Snapshot(msg)) => assert!(msg.contains("exceeds"), "{msg}"),
                other => panic!("offset {off}: expected Snapshot error, got {other:?}"),
            }
        }
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, 64, 1 << 20, -(1 << 40), i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v, "{v}");
        }
        let mut buf = Vec::new();
        let samples = [0u64, 1, 127, 128, 300, 1 << 21, u64::MAX];
        for &v in &samples {
            put_varint(&mut buf, v);
        }
        let mut cur = Cursor { buf: &buf, pos: 0 };
        for &v in &samples {
            assert_eq!(cur.varint().unwrap(), v);
        }
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("monet_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.mbat");
        let db = sample_db();
        save_atomic(&db, &FsBackend, &path).unwrap();
        let back = restore(&FsBackend.read(&path).unwrap()).unwrap();
        assert_eq!(back.association_count(), db.association_count());
        std::fs::remove_file(&path).ok();
    }
}
