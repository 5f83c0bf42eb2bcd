//! A miniature re-implementation of the storage substrate the paper runs on:
//! the Monet database kernel's *binary association tables* (BATs).
//!
//! The paper's physical level ("Monet XML") decomposes XML documents into
//! binary relations of three shapes — `oid × oid`, `oid × string` and
//! `oid × int` — and the IR level adds `oid × float` score relations. This
//! crate provides exactly that model:
//!
//! * [`Oid`] — the object identifier domain, minted by an [`OidGen`],
//! * [`Value`] / [`Column`] — the typed tail domains (oid, int, float,
//!   string, bool),
//! * [`Bat`] — an append-friendly binary table `head: oid → tail: value`
//!   with the operations the upper levels consume (indexed head lookups,
//!   scans, string selection, append / upsert / delete by head),
//! * [`Db`] — a named catalog of BATs with a shared string dictionary
//!   ([`StrPool`]) and lazy per-relation snapshot loading,
//! * [`persist`] — compressed binary snapshots of a catalog
//!   (dictionary-encoded strings, delta-compressed oid columns) with a
//!   lazy [`persist::SnapshotReader`].
//!
//! The store is deliberately in-memory and single-version: the paper never
//! discusses buffer management or transactions, and every experiment in
//! `EXPERIMENTS.md` only needs fast scans and lookups over binary relations.
//!
//! # Example
//!
//! ```
//! use monet::{Bat, ColumnKind, Db, OidGen};
//!
//! let mut db = Db::new();
//! let gen = OidGen::new();
//! let (a, b) = (gen.mint(), gen.mint());
//!
//! let mut names = Bat::with_kind(ColumnKind::Str);
//! names.append_str(a, "Seles").unwrap();
//! names.append_str(b, "Hingis").unwrap();
//! db.create("player/name", names).unwrap();
//!
//! let hits = db.get("player/name").unwrap().select_str_eq("Seles");
//! assert_eq!(hits, vec![a]);
//! ```

#![warn(missing_docs)]

pub mod bat;
pub mod catalog;
pub mod crc;
pub mod error;
pub mod oid;
pub mod persist;
pub mod storage;
pub mod value;
pub mod wal;

pub use bat::Bat;
pub use catalog::Db;
pub use error::{Error, Result};
pub use oid::{Oid, OidGen};
pub use persist::SnapshotReader;
pub use value::{Column, ColumnKind, DictStats, StrColumn, StrPool, Value};
