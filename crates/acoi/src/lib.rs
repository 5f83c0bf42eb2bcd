//! The Acoi system: executing feature grammars.
//!
//! The `feagram` crate defines *what* a feature grammar is; this crate
//! makes it run:
//!
//! * [`token`] — tokens and the backtracking token stack. Saved stack
//!   versions **share suffixes** (the paper cites Tomita's stack-prefix
//!   reuse): a save is O(1), not a copy. A copying stack is kept as the
//!   benchmark baseline for experiment E7.
//! * [`tree`] — parse trees, their XML dump (the FDE "dumps the parse
//!   tree as an XML-document") and the parse-tree path resolution that
//!   feeds detector inputs and whitebox predicates.
//! * [`detector`] — the detector registry: blackbox implementations
//!   (Rust closures/trait objects standing in for the paper's linked C
//!   code), three-level versions (`major.minor.correction`), and the
//!   special `init`/`final`/`begin`/`end` hooks.
//! * [`external`] — the remote-detector boundary: inputs and outputs are
//!   serialised over a channel "wire", preserving the paper's XML-RPC /
//!   CORBA contract without a network. Failures are typed
//!   ([`external::WireError`]) and injectable via a `faults::FaultPlan`.
//! * [`supervise`] — supervised detector execution: per-call deadlines
//!   on worker threads, bounded retries with jittered backoff, and a
//!   per-detector circuit breaker; the holes an outage leaves in a parse
//!   tree are filled by a later heal.
//! * [`fde`] — the **Feature Detector Engine**: a recursive-descent
//!   parser with backtracking that runs detectors on demand, validates
//!   their output against the production rules, and produces the parse
//!   tree (data-driven population of the meta-index).
//! * [`fds`] — the **Feature Detector Scheduler**: localises the effect
//!   of detector revisions through the dependency graph and re-parses
//!   one object incrementally instead of rebuilding it (demand-driven
//!   maintenance); `core`'s maintenance job carries a plan over the
//!   stored trees.
//! * [`metaindex`] — stored parse trees in the Monet XML store, keyed by
//!   source location.

#![warn(missing_docs)]

pub mod detector;
pub mod error;
pub mod external;
pub mod fde;
pub mod fds;
pub mod metaindex;
pub mod supervise;
pub mod token;
pub mod tree;

pub use detector::{DetectorError, DetectorFn, DetectorRegistry, RevisionLevel, Version};
pub use error::{Error, Result};
pub use external::{RpcClient, RpcServer, WireError};
pub use fde::{Fde, FdeStats, StackMode};
pub use fds::{Fds, MaintenanceReport};
pub use metaindex::MetaIndex;
pub use supervise::{BreakerState, Supervisor, SupervisorConfig, SupervisorStats};
pub use token::Token;
pub use tree::{PNodeId, ParseTree};
