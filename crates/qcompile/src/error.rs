//! Structured compilation failures.

use std::fmt;

use qroute::RouteError;

/// Why the pipeline could not produce a [`crate::CompiledCircuit`].
///
/// The compile entry point ([`crate::try_compile_artifact_with_context`])
/// and [`crate::compile_batch`] return these instead of panicking, so
/// failures cross thread and API boundaries as values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The program needs more logical qubits than the topology provides.
    ProgramTooLarge {
        /// Logical qubits the program uses.
        logical: usize,
        /// Physical qubits the topology provides.
        physical: usize,
    },
    /// VIC (reliability-weighted incremental compilation) was requested
    /// but the hardware context carries no calibration data.
    MissingCalibration,
    /// `packing_limit` was `Some(0)`, which would make layer formation
    /// diverge.
    ZeroPackingLimit,
    /// Two physical qubits the mapper must relate are disconnected in the
    /// coupling graph.
    Disconnected {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// The backend router failed.
    Routing(RouteError),
    /// The routed circuit could not be lowered to the target basis.
    BasisLowering(String),
    /// The coupling graph is not a single connected component, so some
    /// qubit pairs can never be routed. Surfaced up front instead of the
    /// unreachable-distance artifacts the mapper/router would hit later.
    DisconnectedTopology {
        /// Number of connected components found.
        components: usize,
    },
    /// Calibration data is present but failed validation (NaN or
    /// out-of-range rates, missing/unknown couplings), so VIC's
    /// reliability weights cannot be trusted.
    UnusableCalibration(qhw::CalibrationError),
    /// A pass exceeded its configured time or swap budget
    /// ([`crate::Resilience`]).
    BudgetExceeded {
        /// The pass that blew the budget.
        pass: &'static str,
    },
    /// A fallback-produced circuit failed post-routing verification
    /// (coupling compliance or functional equivalence) and no further
    /// degradation rung was available.
    Verification {
        /// Which check failed (`"coupling"` or `"equivalence"`).
        stage: &'static str,
    },
    /// Binding a [`crate::CompiledArtifact`] failed: the supplied values
    /// do not cover the template's symbolic parameters.
    UnboundParameters {
        /// Parameters the template requires (declared count, or the
        /// 1-based index of the first uncovered parameter).
        expected: usize,
        /// Values supplied.
        found: usize,
    },
    /// A compilation panicked; the panic was caught at the batch
    /// boundary and converted into this structured error so one poisoned
    /// job cannot abort its batch.
    Internal(String),
    /// The caller tripped the run's [`crate::CancelToken`] (deadline
    /// expiry, shutdown); the pipeline aborted at the next pass boundary.
    Cancelled,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::ProgramTooLarge { logical, physical } => write!(
                f,
                "{logical} logical qubits cannot fit on {physical} physical qubits"
            ),
            CompileError::MissingCalibration => {
                write!(f, "VIC (IncrementalReliability) requires calibration data")
            }
            CompileError::ZeroPackingLimit => write!(f, "packing limit must be positive"),
            CompileError::Disconnected { a, b } => {
                write!(f, "physical qubits {a} and {b} are disconnected")
            }
            CompileError::Routing(e) => write!(f, "routing failed: {e}"),
            CompileError::BasisLowering(msg) => write!(f, "basis lowering failed: {msg}"),
            CompileError::DisconnectedTopology { components } => write!(
                f,
                "coupling graph has {components} connected components; routing needs one"
            ),
            CompileError::UnusableCalibration(e) => {
                write!(f, "calibration data is unusable: {e}")
            }
            CompileError::BudgetExceeded { pass } => {
                write!(f, "pass '{pass}' exceeded its compile budget")
            }
            CompileError::Verification { stage } => {
                write!(f, "fallback circuit failed {stage} verification")
            }
            CompileError::UnboundParameters { expected, found } => write!(
                f,
                "parameter values do not cover the compiled template: need {expected}, got {found}"
            ),
            CompileError::Internal(msg) => write!(f, "internal compiler error: {msg}"),
            CompileError::Cancelled => write!(f, "compilation cancelled by caller"),
        }
    }
}

impl CompileError {
    /// Whether the degradation ladder may retry this failure on a less
    /// demanding configuration. Input contract violations
    /// ([`CompileError::ProgramTooLarge`], [`CompileError::ZeroPackingLimit`])
    /// and structurally unroutable targets
    /// ([`CompileError::DisconnectedTopology`]) fail every rung the same
    /// way, so falling back would only waste the budget. A cancelled run
    /// ([`CompileError::Cancelled`]) must stop immediately — the caller
    /// that tripped the token no longer wants *any* rung's answer.
    pub fn recoverable(&self) -> bool {
        !matches!(
            self,
            CompileError::ProgramTooLarge { .. }
                | CompileError::ZeroPackingLimit
                | CompileError::DisconnectedTopology { .. }
                | CompileError::Cancelled
        )
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Routing(e) => Some(e),
            CompileError::UnusableCalibration(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RouteError> for CompileError {
    fn from(e: RouteError) -> Self {
        CompileError::Routing(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_panic_messages() {
        assert_eq!(
            CompileError::ProgramTooLarge {
                logical: 21,
                physical: 20
            }
            .to_string(),
            "21 logical qubits cannot fit on 20 physical qubits"
        );
        assert_eq!(
            CompileError::MissingCalibration.to_string(),
            "VIC (IncrementalReliability) requires calibration data"
        );
        assert_eq!(
            CompileError::ZeroPackingLimit.to_string(),
            "packing limit must be positive"
        );
    }

    #[test]
    fn resilience_variants_display_and_classify() {
        assert_eq!(
            CompileError::DisconnectedTopology { components: 3 }.to_string(),
            "coupling graph has 3 connected components; routing needs one"
        );
        assert_eq!(
            CompileError::BudgetExceeded { pass: "route" }.to_string(),
            "pass 'route' exceeded its compile budget"
        );
        let cal = CompileError::UnusableCalibration(qhw::CalibrationError::NonFiniteCnotRate {
            u: 1,
            v: 2,
        });
        assert!(cal.to_string().contains("not finite"));
        assert!(std::error::Error::source(&cal).is_some());
        // Recoverability drives the ladder.
        assert!(cal.recoverable());
        assert!(CompileError::MissingCalibration.recoverable());
        assert!(CompileError::BudgetExceeded { pass: "qaim" }.recoverable());
        assert!(CompileError::Internal("boom".into()).recoverable());
        assert!(!CompileError::Cancelled.recoverable());
        assert_eq!(
            CompileError::Cancelled.to_string(),
            "compilation cancelled by caller"
        );
        assert!(!CompileError::DisconnectedTopology { components: 2 }.recoverable());
        assert!(!CompileError::ZeroPackingLimit.recoverable());
        assert!(!CompileError::ProgramTooLarge {
            logical: 9,
            physical: 5
        }
        .recoverable());
    }

    #[test]
    fn route_errors_convert_and_chain() {
        let e: CompileError = RouteError::LayoutTooSmall {
            covers: 3,
            needed: 5,
        }
        .into();
        assert!(matches!(e, CompileError::Routing(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
