//! The harness error hierarchy.
//!
//! Everything the crash-safe execution layer can fail on becomes a value
//! here: engine errors (including `checked`-mode invariant violations and
//! snapshot refusals) are wrapped, filesystem trouble carries the offending
//! path, and manifest/bundle corruption is distinguished from plain I/O so
//! the CLI can map each class to its own exit code.

use btfluid_des::{DesError, SnapshotError};
use btfluid_hybrid::HybridError;
use btfluid_numkit::NumError;
use std::fmt;

/// Errors produced by the checkpoint driver, the sweep supervisor, and the
/// repro-bundle codec.
#[derive(Debug, Clone, PartialEq)]
pub enum HarnessError {
    /// Filesystem failure, with the path involved.
    Io {
        /// The path being read or written.
        path: String,
        /// The underlying OS error, rendered.
        detail: String,
    },
    /// A cell or driver configuration that cannot be run.
    Config(String),
    /// Numeric/validation failure from the model or workload layers.
    Num(NumError),
    /// A typed engine failure (invariant violation, snapshot refusal).
    Engine(DesError),
    /// The sweep journal is unreadable or structurally invalid.
    Manifest {
        /// The journal path.
        path: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A repro bundle is missing pieces or fails to decode.
    Bundle(String),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Io { path, detail } => write!(f, "{path}: {detail}"),
            HarnessError::Config(msg) => write!(f, "{msg}"),
            HarnessError::Num(e) => write!(f, "{e}"),
            HarnessError::Engine(e) => write!(f, "{e}"),
            HarnessError::Manifest { path, detail } => {
                write!(f, "manifest {path}: {detail}")
            }
            HarnessError::Bundle(msg) => write!(f, "repro bundle: {msg}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<NumError> for HarnessError {
    fn from(e: NumError) -> Self {
        HarnessError::Num(e)
    }
}

impl From<DesError> for HarnessError {
    fn from(e: DesError) -> Self {
        HarnessError::Engine(e)
    }
}

impl From<SnapshotError> for HarnessError {
    fn from(e: SnapshotError) -> Self {
        HarnessError::Engine(DesError::Snapshot(e))
    }
}

/// A hybrid snapshot refusal stays a snapshot error (CLI exit 5).
impl From<HybridError> for HarnessError {
    fn from(e: HybridError) -> Self {
        match e {
            HybridError::Num(e) => HarnessError::Num(e),
            HybridError::Des(e) => HarnessError::Engine(e),
            HybridError::Snapshot(msg) => SnapshotError::Corrupt(format!("hybrid: {msg}")).into(),
        }
    }
}

/// Shorthand for wrapping an I/O failure with its path.
pub(crate) fn io_err(path: &std::path::Path, e: std::io::Error) -> HarnessError {
    HarnessError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = HarnessError::Manifest {
            path: "sweep.jsonl".into(),
            detail: "line 3: not JSON".into(),
        };
        let s = e.to_string();
        assert!(s.contains("sweep.jsonl") && s.contains("line 3"), "{s}");

        let e: HarnessError = SnapshotError::BadMagic.into();
        assert!(matches!(e, HarnessError::Engine(DesError::Snapshot(_))));
    }
}
