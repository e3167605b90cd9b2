//! Simulator error type.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use approxdd_circuit::CircuitError;
use approxdd_dd::DdError;

/// Errors reported by the simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The decision-diagram engine rejected an operation.
    Dd(DdError),
    /// The circuit failed validation.
    Circuit(CircuitError),
    /// A strategy parameter was out of range.
    InvalidStrategy {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// An initial state's width does not match the circuit's register.
    WidthMismatch {
        /// Width (level) of the provided state.
        state: usize,
        /// Register width of the circuit.
        circuit: usize,
    },
    /// The run's [`crate::ApproxPolicy`] returned
    /// [`crate::PolicyAction::Abort`].
    PolicyAbort {
        /// Index of the operation after which the policy aborted.
        op_index: usize,
        /// Name of the aborting policy.
        policy: String,
    },
    /// The run's wall-clock budget ([`crate::SimulatorBuilder::deadline`])
    /// ran out: checked after every operation, before the policy
    /// decides.
    DeadlineExceeded {
        /// Index of the first operation after which the budget was
        /// found spent.
        op_index: usize,
        /// The run's wall-clock budget.
        budget: Duration,
    },
    /// A basis-state query indexed outside the run's register.
    BasisOutOfRange {
        /// The requested basis index.
        basis: u64,
        /// Register width of the run.
        n_qubits: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Dd(e) => write!(f, "decision-diagram error: {e}"),
            SimError::Circuit(e) => write!(f, "circuit error: {e}"),
            SimError::InvalidStrategy { reason } => write!(f, "invalid strategy: {reason}"),
            SimError::WidthMismatch { state, circuit } => write!(
                f,
                "initial state has {state} qubits but the circuit expects {circuit}"
            ),
            SimError::PolicyAbort { op_index, policy } => write!(
                f,
                "policy '{policy}' aborted the run after operation {op_index}"
            ),
            SimError::DeadlineExceeded { op_index, budget } => write!(
                f,
                "the run exceeded its {budget:?} deadline after operation {op_index}"
            ),
            SimError::BasisOutOfRange { basis, n_qubits } => {
                write!(f, "basis state {basis} outside a {n_qubits}-qubit register")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Dd(e) => Some(e),
            SimError::Circuit(e) => Some(e),
            SimError::InvalidStrategy { .. }
            | SimError::WidthMismatch { .. }
            | SimError::PolicyAbort { .. }
            | SimError::DeadlineExceeded { .. }
            | SimError::BasisOutOfRange { .. } => None,
        }
    }
}

impl From<DdError> for SimError {
    fn from(e: DdError) -> Self {
        SimError::Dd(e)
    }
}

impl From<CircuitError> for SimError {
    fn from(e: CircuitError) -> Self {
        SimError::Circuit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sources() {
        let e: SimError = DdError::InvalidPermutation.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("decision-diagram"));
    }

    #[test]
    fn basis_out_of_range_names_the_index_and_the_register() {
        let e = SimError::BasisOutOfRange {
            basis: 8,
            n_qubits: 3,
        };
        assert!(e.source().is_none());
        assert_eq!(e.to_string(), "basis state 8 outside a 3-qubit register");
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
