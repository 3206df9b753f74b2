//! Error type shared by the numerical routines.

use std::fmt;

/// Errors surfaced by eigensolvers and iterative methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// An iterative eigensolver exceeded its iteration budget.
    NonConvergence {
        /// Routine that failed (e.g. `"tqli"`).
        routine: &'static str,
        /// Iteration budget that was exhausted.
        max_iters: usize,
    },
    /// Operand shapes are incompatible.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Actual dimension received.
        actual: usize,
    },
    /// An input was empty where a non-empty one is required.
    EmptyInput(&'static str),
    /// An input held a NaN or an infinity where finite values are required.
    NonFinite(&'static str),
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NonConvergence { routine, max_iters } => {
                write!(f, "{routine} failed to converge within {max_iters} iterations")
            }
            LinalgError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            LinalgError::EmptyInput(what) => write!(f, "empty input: {what}"),
            LinalgError::NonFinite(what) => write!(f, "non-finite input: {what}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = LinalgError::NonConvergence { routine: "tqli", max_iters: 50 };
        assert!(e.to_string().contains("tqli"));
        let e = LinalgError::DimensionMismatch { expected: 3, actual: 5 };
        assert!(e.to_string().contains("expected 3"));
        let e = LinalgError::EmptyInput("matrix");
        assert!(e.to_string().contains("matrix"));
        let e = LinalgError::NonFinite("tridiagonal coefficient");
        assert!(e.to_string().contains("non-finite"));
    }
}
