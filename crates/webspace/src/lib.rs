//! The Webspace Method — the paper's conceptual level.
//!
//! "The Webspace Method defines concepts in a webspace schema using an
//! object-oriented data model. … Each document then forms a materialized
//! view over the webspace schema: describing a part of the webspace.
//! Within a document web-objects are defined along with the relations
//! between them, forming instantiations of classes and associations from
//! the webspace schema."
//!
//! * [`schema`] — classes, attributes (including multimedia types) and
//!   associations; [`paper::ausopen_schema`] reconstructs Figure 3.
//! * [`object`] — web objects and association instances.
//! * [`view`] — materialized views as XML documents (the storage format
//!   the physical level consumes) and back.
//! * [`retriever`] — the web-object retriever: re-engineering
//!   presentation-oriented HTML back into schema-conforming views, driven
//!   by per-site template rules (the paper's "special purpose feature
//!   grammar" for the Australian Open site).
//! * [`query`] — conceptual queries over a populated webspace: selections
//!   on attributes, joins along associations, cross-document results —
//!   "it allows a user to integrate information stored in different
//!   documents in a single query".

#![warn(missing_docs)]

pub mod error;
pub mod object;
pub mod paper;
pub mod query;
pub mod retriever;
pub mod schema;
pub mod view;

pub use error::{Error, Result};
pub use object::{Association, AttrValue, WebObject};
pub use query::{ConceptualQuery, Predicate, QueryResult, WebspaceIndex};
pub use retriever::{Retriever, TemplateRule};
pub use schema::{AttrDef, AttrType, ClassDef, MediaType, WebspaceSchema};
pub use view::MaterializedView;
