//! The unified execution error.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use approxdd_circuit::CircuitError;
use approxdd_dd::DdError;
use approxdd_sim::SimError;

/// Every way a run of an [`AnyBackend`](crate::backend::AnyBackend), alone
/// or pooled, can fail, absorbing the engine error types via `From` so
/// `?` works across layers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// The DD simulator failed.
    Sim(SimError),
    /// The decision-diagram engine failed.
    Dd(DdError),
    /// The circuit failed validation.
    Circuit(CircuitError),
    /// A basis-state query indexed outside the register.
    BasisOutOfRange {
        /// The requested basis index.
        basis: u64,
        /// Register width of the run.
        n_qubits: usize,
    },
    /// A job panicked. The pool ([`crate::BackendPool`]) catches the
    /// panic at the task boundary, drops the job's engine and replies
    /// with this error; the worker thread lives on. Never produced by
    /// a single-threaded backend. Retryable: the pool's `RetryPolicy`
    /// re-dispatches panicked jobs, and because per-job seeds are a
    /// pure function of the job index, a retried success is
    /// byte-identical to a first-try success.
    Panicked {
        /// Index of the job that panicked.
        job: usize,
        /// Zero-based attempt that panicked (`0` for a first try; the
        /// Display message reports it one-based).
        attempt: u32,
    },
    /// A job's wall-clock deadline elapsed before the run finished.
    /// Enforced cooperatively: a deadline-wrapping policy
    /// (`approxdd_sim::DeadlinePolicy`) aborts the run at the first
    /// operation past the cutoff, and the pool worker surfaces the
    /// abort as this typed error. Produced by the pool.
    DeadlineExceeded {
        /// Index of the job that blew its deadline.
        job: usize,
        /// Zero-based attempt that exceeded the deadline.
        attempt: u32,
        /// The wall-clock budget the job was given.
        budget: Duration,
    },
    /// A seeded fault-injection plan ([`crate::FaultPlan`]) forced
    /// this job to fail. Test/bench only — never produced
    /// unless a plan was explicitly installed on the pool. Retryable,
    /// exactly like [`ExecError::Panicked`].
    FaultInjected {
        /// Index of the faulted job.
        job: usize,
        /// Zero-based attempt the fault fired on.
        attempt: u32,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Sim(e) => write!(f, "dd simulator error: {e}"),
            ExecError::Dd(e) => write!(f, "decision-diagram error: {e}"),
            ExecError::Circuit(e) => write!(f, "circuit error: {e}"),
            ExecError::BasisOutOfRange { basis, n_qubits } => {
                write!(f, "basis state {basis} outside a {n_qubits}-qubit register")
            }
            ExecError::Panicked { job, attempt } => {
                write!(f, "job {job} panicked (attempt {})", attempt + 1)
            }
            ExecError::DeadlineExceeded {
                job,
                attempt,
                budget,
            } => {
                write!(
                    f,
                    "job {job} exceeded its {budget:?} deadline (attempt {})",
                    attempt + 1
                )
            }
            ExecError::FaultInjected { job, attempt } => {
                write!(
                    f,
                    "injected fault failed job {job} (attempt {})",
                    attempt + 1
                )
            }
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Sim(e) => Some(e),
            ExecError::Dd(e) => Some(e),
            ExecError::Circuit(e) => Some(e),
            ExecError::BasisOutOfRange { .. }
            | ExecError::Panicked { .. }
            | ExecError::DeadlineExceeded { .. }
            | ExecError::FaultInjected { .. } => None,
        }
    }
}

impl From<SimError> for ExecError {
    /// Unwraps the simulator's own wrappers so an error surfaces the
    /// same way regardless of which layer reported it.
    fn from(e: SimError) -> Self {
        match e {
            SimError::Dd(inner) => ExecError::Dd(inner),
            SimError::Circuit(inner) => ExecError::Circuit(inner),
            other => ExecError::Sim(other),
        }
    }
}

impl From<DdError> for ExecError {
    fn from(e: DdError) -> Self {
        ExecError::Dd(e)
    }
}

impl From<CircuitError> for ExecError {
    fn from(e: CircuitError) -> Self {
        ExecError::Circuit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_unwrap_nested_sim_errors() {
        let e: ExecError = SimError::Dd(DdError::InvalidPermutation).into();
        assert!(matches!(e, ExecError::Dd(_)), "{e:?}");
        let e: ExecError = DdError::InvalidPermutation.into();
        assert!(matches!(e, ExecError::Dd(_)));
        let e: ExecError = SimError::InvalidStrategy { reason: "x" }.into();
        assert!(matches!(e, ExecError::Sim(_)));
        assert!(e.to_string().contains("dd simulator"));
    }

    #[test]
    fn is_send_sync_error() {
        fn assert_traits<T: Send + Sync + Error>() {}
        assert_traits::<ExecError>();
    }

    /// Walks an error's `source` chain and returns its depth (0 for a
    /// leaf error with no cause).
    fn chain_depth(e: &dyn Error) -> usize {
        let mut depth = 0;
        let mut cursor = e.source();
        while let Some(inner) = cursor {
            depth += 1;
            cursor = inner.source();
        }
        depth
    }

    /// Taxonomy audit: every variant renders a non-empty Display and
    /// its `source` chain is exactly as deep as its construction — the
    /// engine wrappers expose their cause, the execution-layer leaves
    /// (panics, deadlines, injected faults) expose none.
    #[test]
    fn every_variant_displays_and_chains_as_constructed() {
        let wrapped: Vec<(ExecError, usize)> = vec![
            (ExecError::Sim(SimError::InvalidStrategy { reason: "x" }), 1),
            (ExecError::Dd(DdError::InvalidPermutation), 1),
            (
                ExecError::Circuit(CircuitError::QubitOutOfRange {
                    op_index: 0,
                    qubit: 5,
                    n_qubits: 3,
                }),
                1,
            ),
            (
                ExecError::BasisOutOfRange {
                    basis: 9,
                    n_qubits: 3,
                },
                0,
            ),
            (ExecError::Panicked { job: 3, attempt: 1 }, 0),
            (
                ExecError::DeadlineExceeded {
                    job: 5,
                    attempt: 2,
                    budget: Duration::from_millis(250),
                },
                0,
            ),
            (ExecError::FaultInjected { job: 7, attempt: 0 }, 0),
        ];
        for (e, want_depth) in &wrapped {
            assert!(!e.to_string().is_empty(), "{e:?} has an empty Display");
            assert_eq!(chain_depth(e), *want_depth, "{e:?} chain depth");
        }
        // A doubly-nested wrapper keeps chaining through: the Sim layer
        // exposes the DD cause one hop further down.
        let nested = ExecError::Sim(SimError::WidthMismatch {
            state: 2,
            circuit: 3,
        });
        assert_eq!(chain_depth(&nested), 1);
    }

    /// The execution-layer messages must name the job index and the
    /// 1-based attempt count — that is what a server log greps for.
    #[test]
    fn resilience_errors_name_job_and_attempt() {
        let lost = ExecError::Panicked { job: 3, attempt: 1 };
        assert!(lost.to_string().contains("job 3"), "{lost}");
        assert!(lost.to_string().contains("attempt 2"), "{lost}");
        let deadline = ExecError::DeadlineExceeded {
            job: 5,
            attempt: 0,
            budget: Duration::from_millis(250),
        };
        assert!(deadline.to_string().contains("job 5"), "{deadline}");
        assert!(deadline.to_string().contains("attempt 1"), "{deadline}");
        assert!(deadline.to_string().contains("250ms"), "{deadline}");
        let injected = ExecError::FaultInjected { job: 7, attempt: 2 };
        assert!(injected.to_string().contains("job 7"), "{injected}");
        assert!(injected.to_string().contains("attempt 3"), "{injected}");
    }
}
