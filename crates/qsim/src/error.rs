//! Structured simulator errors, mirroring the `qcompile` no-panic policy:
//! every user-triggerable failure of a `try_*` constructor surfaces as a
//! [`SimError`] instead of a panic.

use std::fmt;

/// A failure constructing or driving a simulator backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The requested register does not fit the dense representation.
    RegisterTooLarge {
        /// Requested register width.
        qubits: usize,
        /// Hard cap of the representation.
        limit: usize,
        /// Which dense representation was requested
        /// (`"statevector"` or `"density matrix"`).
        representation: &'static str,
    },
    /// Parameter binding failed before simulation: the supplied values do
    /// not cover the circuit's parameters.
    ParamMismatch {
        /// Parameters the circuit requires (declared count, or the
        /// 1-based index of the first uncovered parameter).
        expected: usize,
        /// Values supplied.
        found: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RegisterTooLarge {
                qubits,
                limit,
                representation,
            } => write!(
                f,
                "{representation} over {qubits} qubits exceeds the {limit}-qubit dense limit"
            ),
            SimError::ParamMismatch { expected, found } => write!(
                f,
                "parameter values do not cover the circuit: need {expected}, got {found}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_representation() {
        let e = SimError::RegisterTooLarge {
            qubits: 30,
            limit: 28,
            representation: "statevector",
        };
        let msg = e.to_string();
        assert!(msg.contains("statevector"));
        assert!(msg.contains("30"));
        assert!(msg.contains("28"));
    }
}
