//! Monet XML — the paper's physical level.
//!
//! XML documents (produced by the conceptual level's web-object retriever
//! and by the logical level's Feature Detector Engine) are stored
//! *path-centrically*: one binary relation per root-to-node label path
//! ("the Monet transform", Definition 1 in the paper). The mapping is
//! **DTD-less** (no schema required up front) and **document-dependent**
//! (the database schema grows with new paths), which is exactly what the
//! dynamic nature of feature grammars needs.
//!
//! The crate provides:
//!
//! * [`doc`] — the rooted, ranked, labelled document tree of the paper's
//!   formal definition,
//! * [`parse`] — a from-scratch SAX-style XML parser (plus a DOM builder),
//! * [`ser`] — the serializer used by the inverse mapping,
//! * [`path`] — label paths `a/b`, attribute steps `a[k]` and the PCDATA
//!   step,
//! * [`summary`] — the *path summary* organised as the schema tree of
//!   Figure 12, mapping paths to relations,
//! * [`transform`] — the Monet transform `Mt(d)` and its inverse,
//! * [`store`] — [`XmlStore`]: catalog + summary + document registry with
//!   the O(height) SAX bulkloader of the paper, lookup by source, and
//!   incremental insert/delete,
//! * [`query`] — the per-document path reads ([`query::descent`]) the
//!   query path answers media predicates with.
//!
//! # Quickstart
//!
//! ```
//! use monetxml::{parse_document, XmlStore};
//!
//! let doc = parse_document(r#"<image key="18934"><date>999010530</date></image>"#).unwrap();
//! let mut store = XmlStore::new();
//! let root = store.insert_document("seles.xml", &doc).unwrap();
//! // Relations are named by path, as in the paper:
//! assert!(store.db().contains("image/date"));
//! // ...and the stored document reconstructs isomorphically:
//! let back = store.reconstruct(root).unwrap();
//! assert_eq!(back, doc);
//! ```

#![warn(missing_docs)]

pub mod doc;
pub mod error;
#[cfg(test)]
pub(crate) mod testutil;
pub mod parse;
pub mod path;
pub mod query;
pub mod ser;
pub mod store;
pub mod summary;
pub mod transform;

pub use doc::{Document, NodeId, NodeKind};
pub use error::{Error, Result};
pub use parse::{parse_document, parse_sax, SaxEvent, SaxHandler};
pub use path::{Path, Step};
pub use ser::to_xml;
pub use store::XmlStore;
pub use summary::PathSummary;
