//! `dlsearch` — Flexible and Scalable Digital Library Search.
//!
//! The integrated search engine of Windhouwer, Schmidt, van Zwol,
//! Petkovic & Blok (CWI INS-R0111 / VLDB 2001): three levels, one
//! system.
//!
//! * **Conceptual** — a webspace schema describes the domain; documents
//!   are materialized views; queries select and join *concepts* (the
//!   [`webspace`] crate).
//! * **Logical** — feature grammars bind multimedia analysis detectors
//!   into a grammar; the Feature Detector Engine populates the
//!   meta-index; the Feature Detector Scheduler maintains it
//!   incrementally (the [`feagram`] and [`acoi`] crates, with the video
//!   pipeline in [`cobra`]).
//! * **Physical** — everything lands in path-centric binary relations
//!   (Monet XML, the [`monetxml`] and [`monet`] crates), with ranked
//!   full-text retrieval, idf fragmentation and per-document
//!   distribution in [`ir`].
//!
//! This crate is the public face: the [`Engine`] drives the lifecycle —
//! **model** ([`ausopen`] configures the running example), **populate /
//! maintain** ([`Engine::populate`],
//! [`QueryService::upgrade_detector_online`]) and
//! **query** ([`Engine::query`], with the small textual query language
//! in [`qlang`]).
//!
//! # The paper's flagship query
//!
//! ```no_run
//! use dlsearch::{ausopen, qlang, Engine};
//! use websim::{Site, SiteSpec};
//!
//! let site = std::sync::Arc::new(Site::generate(SiteSpec::default()));
//! let mut engine = ausopen::engine(std::sync::Arc::clone(&site)).unwrap();
//! engine.populate(&websim::crawl(&site)).unwrap();
//!
//! // "Show me video shots of left-handed female players, who have won
//! //  the Australian Open in the past, and in which they approach the
//! //  net."  (Figure 13)
//! let query = qlang::parse(r#"
//!     FROM Player
//!     WHERE gender = "female" AND hand = "left"
//!     TEXT history CONTAINS "Winner"
//!     VIA Is_covered_in
//!     MEDIA video HAS netplay
//!     TOP 10
//! "#).unwrap();
//! for hit in engine.query(&query).unwrap() {
//!     println!("{:?} shots {:?}", hit.chain, hit.shots);
//! }
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod ausopen;
pub mod control;
pub mod engine;
pub mod error;
pub mod maintenance;
pub mod persist;
pub mod qlang;
pub mod query;
pub mod shots;
pub mod telemetry;

pub use admission::{
    AdmissionConfig, AdmissionGate, LevelTransition, OverloadLevel, OverloadStatus, Permit,
    Priority, QueryOutcome, QueryService,
};
pub use control::{ControlOutcome, ControlPlane};
pub use engine::{
    Engine, EngineConfig, PopulateReport, QueryOptions, StageTimings, TextQueryStatus,
};
pub use error::{Error, PartialProgress, Result};
pub use maintenance::{MaintenanceJob, MaintenanceKind};
pub use persist::RecoveryReport;
pub use query::{EngineHit, EngineQuery, MediaPredicate, TextPredicate};
pub use shots::{video_shots, ShotMeta};
pub use telemetry::{standard_slos, Telemetry, TelemetryConfig, TelemetryTick};
