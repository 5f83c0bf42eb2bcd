//! Error type of the integrated engine.

use std::fmt;
use std::time::Duration;

/// How far a budget-cancelled query got before it was cut off.
///
/// `phase` names the evaluation stage the budget expired in
/// (`"admission"`, `"conceptual"`, `"text"` or `"media"`); `completed`
/// counts the units that stage had finished — rows expanded, server
/// answers merged, candidates refined or nodes read — so callers can
/// judge whether retrying with a
/// bigger budget is worthwhile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialProgress {
    /// Evaluation stage the budget expired in.
    pub phase: String,
    /// Units of work that stage completed before the cut-off.
    pub completed: usize,
}

impl fmt::Display for PartialProgress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} phase, {} unit(s) done", self.phase, self.completed)
    }
}

/// Errors from any of the three levels, unified.
#[derive(Debug)]
pub enum Error {
    /// Conceptual-level error.
    Webspace(webspace::Error),
    /// Logical-level (grammar/engine/scheduler) error.
    Acoi(acoi::Error),
    /// Grammar-language error.
    Feagram(feagram::Error),
    /// Physical-level XML error.
    Xml(monetxml::Error),
    /// Retrieval error.
    Ir(ir::Error),
    /// Query formulation error.
    Query(String),
    /// Engine configuration error.
    Config(String),
    /// Durable-storage error (snapshot, WAL or backend I/O).
    Persist(monet::Error),
    /// Recovery failed: no valid checkpoint generation could be loaded.
    Recovery(String),
    /// The operator loop could not write an incident report.
    Incident(String),
    /// The admission gate turned the query away: every execution slot
    /// and queue position is taken (or the ladder is shedding this
    /// priority class). Not a failure of the query itself — retrying
    /// after roughly `retry_after_hint` has a good chance of admission.
    Overloaded {
        /// Estimated wait until a slot frees up, from recent service
        /// latency and current occupancy.
        retry_after_hint: Duration,
    },
    /// The query's end-to-end budget (wall-clock deadline, work budget
    /// or explicit cancellation) expired mid-evaluation. The engine
    /// state is left exactly as if the query never ran.
    DeadlineExceeded {
        /// How far evaluation got before the cut-off.
        partial: PartialProgress,
        /// Which budget dimension ran out.
        cause: faults::BudgetExceeded,
    },
    /// A background maintenance job could not commit: the live
    /// meta-index advanced past the epoch the job pinned at begin
    /// (something else mutated stored trees mid-job). The store is
    /// untouched and the detector registry rolled back; re-running the
    /// job against the new epoch is safe.
    MaintenanceStale {
        /// The detector the stale job was maintaining.
        detector: String,
    },
    /// A second `begin_upgrade`/`begin_heal` hit a detector that
    /// already has a maintenance job in flight. Beginning anyway would
    /// clobber the first job's pinned snapshot; the caller waits for
    /// the in-flight job to commit or abort and retries.
    MaintenanceBusy {
        /// The detector whose job is still in flight.
        detector: String,
    },
    /// A background maintenance job died mid-run (an injected fault or
    /// a failed re-parse). The live store is untouched; aborting the
    /// job rolls the registry back to the pre-job implementation.
    Maintenance {
        /// The detector the failed job was maintaining.
        detector: String,
        /// What killed the job.
        cause: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Webspace(e) => write!(f, "conceptual level: {e}"),
            Error::Acoi(e) => write!(f, "logical level: {e}"),
            Error::Feagram(e) => write!(f, "grammar: {e}"),
            Error::Xml(e) => write!(f, "physical level: {e}"),
            Error::Ir(e) => write!(f, "retrieval: {e}"),
            Error::Query(m) => write!(f, "query error: {m}"),
            Error::Config(m) => write!(f, "configuration error: {m}"),
            Error::Persist(e) => write!(f, "durable storage: {e}"),
            Error::Recovery(m) => write!(f, "recovery failed: {m}"),
            Error::Incident(m) => write!(f, "incident report: {m}"),
            Error::Overloaded { retry_after_hint } => write!(
                f,
                "overloaded: admission refused, retry after ~{}ms",
                retry_after_hint.as_millis()
            ),
            Error::DeadlineExceeded { partial, cause } => {
                write!(f, "query budget expired ({cause}) in the {partial}")
            }
            Error::MaintenanceStale { detector } => write!(
                f,
                "maintenance of `{detector}` is stale: the meta-index moved past the pinned epoch"
            ),
            Error::MaintenanceBusy { detector } => write!(
                f,
                "maintenance of `{detector}` already in flight: wait for it to commit or abort"
            ),
            Error::Maintenance { detector, cause } => {
                write!(f, "maintenance of `{detector}` failed: {cause}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Webspace(e) => Some(e),
            Error::Acoi(e) => Some(e),
            Error::Feagram(e) => Some(e),
            Error::Xml(e) => Some(e),
            Error::Ir(e) => Some(e),
            Error::Persist(e) => Some(e),
            Error::DeadlineExceeded { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

impl From<monet::Error> for Error {
    fn from(e: monet::Error) -> Self {
        Error::Persist(e)
    }
}

// The conversions below lift the typed budget errors of every layer
// into [`Error::DeadlineExceeded`] instead of burying them in the
// layer's wrapper variant, so callers can match one variant no matter
// which stage the budget expired in.

impl From<webspace::Error> for Error {
    fn from(e: webspace::Error) -> Self {
        match e {
            webspace::Error::DeadlineExceeded { rows, cause } => Error::DeadlineExceeded {
                partial: PartialProgress {
                    phase: "conceptual".into(),
                    completed: rows,
                },
                cause,
            },
            other => Error::Webspace(other),
        }
    }
}
impl From<acoi::Error> for Error {
    fn from(e: acoi::Error) -> Self {
        Error::Acoi(e)
    }
}
impl From<feagram::Error> for Error {
    fn from(e: feagram::Error) -> Self {
        Error::Feagram(e)
    }
}
impl From<monetxml::Error> for Error {
    fn from(e: monetxml::Error) -> Self {
        match e {
            // The query path's one budgeted read of the physical level
            // is the media refinement's.
            monetxml::Error::DeadlineExceeded { nodes, cause } => Error::DeadlineExceeded {
                partial: PartialProgress {
                    phase: "media".into(),
                    completed: nodes,
                },
                cause,
            },
            other => Error::Xml(other),
        }
    }
}
impl From<ir::Error> for Error {
    fn from(e: ir::Error) -> Self {
        match e {
            ir::Error::DeadlineExceeded {
                shards_answered,
                cause,
            } => Error::DeadlineExceeded {
                partial: PartialProgress {
                    phase: "text".into(),
                    completed: shards_answered,
                },
                cause,
            },
            other => Error::Ir(other),
        }
    }
}

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, Error>;
