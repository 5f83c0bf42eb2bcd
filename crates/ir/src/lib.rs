//! Full-text retrieval — the paper's "optimization support for full text
//! retrieval" at the physical level.
//!
//! "We support a variant of the tf·idf ranking model, derived from the
//! well founded probabilistic retrieval model of \[Hie98\]. … we
//! transparently integrate the necessary relations into our database":
//! the **T** (vocabulary), **D** (documents), **DT** (document/term
//! pairs), **TF** (pair frequencies) and **IDF** (`idf = 1/df`)
//! relations, all BATs in a [`monet::Db`] ([`index`]). They are the
//! logical, durable state; ranked retrieval reads a typed posting index
//! derived from them at every commit (`postings`), through one
//! read-only kernel ([`TextIndex::ranked`]).
//!
//! The two scalability mechanisms the paper describes are both here:
//!
//! * [`frag`] — "we horizontally fragment these relations … on
//!   descending idf": high-idf (selective, cheap) fragments first,
//!   low-idf (expensive, uninteresting) fragments last, so top-N
//!   evaluation can cut off fragments a-priori with an estimated quality
//!   degrade ("a quality model that allows the query optimizer to
//!   estimate the quality degrade resulting from a-priori ignoring
//!   fragments with lower idf").
//! * [`distrib`] — "we distribute the TF (and corresponding IDF tuples)
//!   over several database servers, by assigning parts on a per-document
//!   basis … almost perfect shared nothing parallelism which facilitates
//!   (almost) unlimited scalability": local top-N per server, master
//!   ranking merge at the central node. The distribution layer is
//!   replicated and elastic: every shard group carries R replicas on
//!   distinct virtual hosts (failover before degradation), and
//!   [`rebalance`] splits/merges shards with idf-aware placement under
//!   an epoch-consistent, WAL-logged cutover.
//!
//! [`text`] supplies the tokenizer, English stop list and a from-scratch
//! Porter stemmer ("the terms to be stored … actually will be the
//! corresponding stems. Stop terms are expected to be filtered out").

#![warn(missing_docs)]

pub mod control;
pub mod distrib;
pub mod error;
pub mod frag;
pub mod index;
pub mod lang;
mod postings;
pub mod rebalance;
pub mod text;

pub use control::{ClusterView, ControlConfig, ControlDecision, ControlPolicy};
pub use distrib::{
    DistributedIndex, DistributedResult, RereplicationJob, ShardHealth, ROUTE_SLOTS,
};
pub use error::{Error, Result};
pub use frag::FragmentedIndex;
pub use index::{DocExport, ScoreModel, SearchHit, TextIndex};
pub use rebalance::{RebalanceReport, Rebalancer};
pub use text::{porter_stem, tokenize_and_stem};
