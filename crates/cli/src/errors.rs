//! CLI failure type: a message plus a documented exit code. The codes
//! are the `EXIT_*` constants below; `btfluid --help` prints the map.

use crate::args::ArgError;
use btfluid_des::{DesError, SnapshotError};
use btfluid_harness::HarnessError;
use btfluid_hybrid::HybridError;
use btfluid_numkit::NumError;
use std::fmt;

/// Exit code: usage error or I/O failure.
pub const EXIT_USAGE: u8 = 1;
/// Exit code: invalid configuration.
pub const EXIT_CONFIG: u8 = 2;
/// Exit code: solver diverged.
pub const EXIT_SOLVER: u8 = 3;
/// Exit code: engine invariant violated (`checked` mode).
pub const EXIT_INVARIANT: u8 = 4;
/// Exit code: snapshot/checkpoint rejected.
pub const EXIT_SNAPSHOT: u8 = 5;
/// Exit code: sweep finished with failures / repro reproduced one.
pub const EXIT_SWEEP_FAILED: u8 = 6;
/// Exit code: refused to overwrite without `--force`.
pub const EXIT_CLOBBER: u8 = 7;

/// A CLI failure: what to tell the user, and which exit code to die with.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError {
    /// Process exit code (1..=7, see the module table).
    pub code: u8,
    /// The message printed to stderr (prefixed `btfluid:`).
    pub message: String,
}

impl CliError {
    /// An error with an explicit code.
    pub fn new(code: u8, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// A refusal to overwrite `path` (exit code 7).
    pub fn clobber(path: &str) -> Self {
        Self::new(
            EXIT_CLOBBER,
            format!("{path} exists; pass --force to overwrite"),
        )
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        Self::new(EXIT_USAGE, e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        Self::new(EXIT_USAGE, e.to_string())
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        Self::new(EXIT_USAGE, message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        Self::new(EXIT_USAGE, message)
    }
}

impl From<NumError> for CliError {
    fn from(e: NumError) -> Self {
        match e {
            // Domain rejections happen before anything runs.
            NumError::InvalidInput { .. } => Self::new(EXIT_CONFIG, e.to_string()),
            // Everything else is an iterative method giving up mid-flight.
            NumError::NoConvergence { .. }
            | NumError::NoBracket { .. }
            | NumError::StepUnderflow { .. }
            | NumError::NonFinite { .. } => Self::new(EXIT_SOLVER, format!("solver diverged: {e}")),
        }
    }
}

impl From<SnapshotError> for CliError {
    fn from(e: SnapshotError) -> Self {
        Self::new(EXIT_SNAPSHOT, e.to_string())
    }
}

impl From<DesError> for CliError {
    fn from(e: DesError) -> Self {
        match e {
            DesError::Num(e) => e.into(),
            DesError::Invariant { .. } => Self::new(EXIT_INVARIANT, e.to_string()),
            DesError::Snapshot(e) => e.into(),
        }
    }
}

impl From<HybridError> for CliError {
    fn from(e: HybridError) -> Self {
        match e {
            HybridError::Num(e) => e.into(),
            HybridError::Des(e) => e.into(),
            HybridError::Snapshot(msg) => {
                Self::new(EXIT_SNAPSHOT, format!("hybrid snapshot: {msg}"))
            }
        }
    }
}

impl From<HarnessError> for CliError {
    fn from(e: HarnessError) -> Self {
        match e {
            HarnessError::Num(e) => e.into(),
            HarnessError::Engine(e) => e.into(),
            HarnessError::Config(msg) => Self::new(EXIT_CONFIG, msg),
            HarnessError::Io { .. } | HarnessError::Manifest { .. } => {
                Self::new(EXIT_USAGE, e.to_string())
            }
            HarnessError::Bundle(_) => Self::new(EXIT_SNAPSHOT, e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_des::InvariantKind;

    #[test]
    fn exit_codes_map_by_failure_class() {
        let e: CliError = NumError::NoConvergence {
            what: "newton",
            iterations: 9,
            residual: 1.0,
        }
        .into();
        assert_eq!(e.code, EXIT_SOLVER);
        assert!(e.message.starts_with("solver diverged:"), "{}", e.message);

        let e: CliError = NumError::InvalidInput {
            what: "DesConfig::validate",
            detail: "bad".into(),
        }
        .into();
        assert_eq!(e.code, EXIT_CONFIG);

        let e: CliError = DesError::Invariant {
            kind: InvariantKind::RateCacheDrift,
            t: 1.0,
            detail: "x".into(),
        }
        .into();
        assert_eq!(e.code, EXIT_INVARIANT);

        let e: CliError = SnapshotError::ChecksumMismatch.into();
        assert_eq!(e.code, EXIT_SNAPSHOT);

        let e: CliError = HybridError::Snapshot("truncated".into()).into();
        assert_eq!(e.code, EXIT_SNAPSHOT);

        let e: CliError = HarnessError::Config("no".into()).into();
        assert_eq!(e.code, EXIT_CONFIG);

        assert_eq!(CliError::clobber("out.csv").code, EXIT_CLOBBER);
    }
}
