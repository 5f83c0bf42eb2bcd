//! Error type for the XML level.

use std::fmt;

/// Errors raised while parsing, storing or reconstructing XML.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Malformed XML input; carries a byte offset and a message.
    Parse {
        /// Byte offset into the input where the problem was detected.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// The store refused an operation (unknown oid, missing relation, …).
    Store(String),
    /// An underlying BAT-store error.
    Monet(monet::Error),
    /// The caller's query budget expired mid-scan or mid-path-read.
    DeadlineExceeded {
        /// Nodes processed before expiry.
        nodes: usize,
        /// Which budget dimension expired.
        cause: faults::BudgetExceeded,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { offset, message } => {
                write!(f, "XML parse error at byte {offset}: {message}")
            }
            Error::Store(msg) => write!(f, "store error: {msg}"),
            Error::Monet(e) => write!(f, "monet error: {e}"),
            Error::DeadlineExceeded { nodes, cause } => {
                write!(f, "query budget expired ({cause}) after {nodes} nodes")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Monet(e) => Some(e),
            _ => None,
        }
    }
}

impl From<monet::Error> for Error {
    fn from(e: monet::Error) -> Self {
        Error::Monet(e)
    }
}

/// Result alias for XML-level operations.
pub type Result<T> = std::result::Result<T, Error>;
