//! Errors of the deployment layer.

use anosy_core::AnosyError;
use anosy_solver::SolverError;
use std::fmt;

/// Errors raised by `anosy-serve` operations.
#[derive(Debug)]
pub enum ServeError {
    /// An I/O failure while reading or writing a snapshot or journal.
    Io(std::io::Error),
    /// A snapshot or journal cannot be used: its header names another domain or is not a
    /// journal header at all (an old `anosy-synth-cache v1` file, say), or a journal is
    /// already attached. The load fails and the file is left untouched; a torn or corrupt
    /// *record* is not an error — it only ends the good prefix ([`crate::journal`]).
    Format {
        /// 1-based line of the offending input, `0` for file-level problems.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A session-layer failure surfaced through a deployment API.
    Anosy(AnosyError),
    /// A solver failure while re-verifying a loaded cache entry.
    Solver(SolverError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "cache I/O failure: {e}"),
            ServeError::Format { line, reason } => {
                write!(f, "malformed cache file (line {line}): {reason}")
            }
            ServeError::Anosy(e) => write!(f, "{e}"),
            ServeError::Solver(e) => write!(f, "solver failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Anosy(e) => Some(e),
            ServeError::Solver(e) => Some(e),
            ServeError::Format { .. } => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<AnosyError> for ServeError {
    fn from(e: AnosyError) -> Self {
        ServeError::Anosy(e)
    }
}

impl From<SolverError> for ServeError {
    fn from(e: SolverError) -> Self {
        ServeError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_cover_every_variant() {
        let io: ServeError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(io.to_string().contains("gone"));
        assert!(std::error::Error::source(&io).is_some());
        let fmt = ServeError::Format { line: 3, reason: "bad token".into() };
        assert!(fmt.to_string().contains("line 3"));
        assert!(std::error::Error::source(&fmt).is_none());
        let anosy: ServeError = AnosyError::SecretOutsideLayout.into();
        assert!(anosy.to_string().contains("outside"));
        let solver: ServeError = SolverError::BudgetExhausted { limit: "node", explored: 9 }.into();
        assert!(solver.to_string().contains("solver failure"));
        assert!(std::error::Error::source(&solver).is_some());
    }
}
