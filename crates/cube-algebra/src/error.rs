//! Error type of the algebra layer.

use std::error::Error;
use std::fmt;

/// Errors raised by operators.
///
/// Metadata integration itself is total — any two valid experiments can
/// be integrated (whether the result is *useful* is the user's call, as
/// the paper notes about taking the mean of unrelated programs). Errors
/// therefore only concern degenerate argument lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraError {
    /// An n-ary operator (`mean`, `sum`, `min`, `max`) received an empty
    /// operand list.
    EmptyOperandList {
        /// Operator name for the message.
        operator: &'static str,
    },
    /// A batch expression referenced an operand index outside the plan
    /// (see [`crate::batch::Expr::Operand`]).
    OperandOutOfRange {
        /// The offending operand index.
        index: usize,
        /// Number of operands in the plan.
        len: usize,
    },
    /// Cached [`PlanTables`](crate::batch::PlanTables) were combined
    /// with an operand list they were not built from.
    PlanMismatch {
        /// What disagreed (operand count or a severity shape).
        reason: String,
    },
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyOperandList { operator } => {
                write!(f, "operator '{operator}' requires at least one operand")
            }
            Self::OperandOutOfRange { index, len } => {
                write!(
                    f,
                    "operand index {index} out of range for a plan over {len} operands"
                )
            }
            Self::PlanMismatch { reason } => {
                write!(
                    f,
                    "cached plan tables do not match the operand list: {reason}"
                )
            }
        }
    }
}

impl Error for AlgebraError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_operator() {
        let e = AlgebraError::EmptyOperandList { operator: "mean" };
        assert!(e.to_string().contains("mean"));
    }

    #[test]
    fn display_names_offending_index() {
        let e = AlgebraError::OperandOutOfRange { index: 7, len: 3 };
        let msg = e.to_string();
        assert!(msg.contains('7') && msg.contains('3'));
    }
}
