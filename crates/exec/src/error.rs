//! The unified execution error.

use std::any::Any;
use std::error::Error;
use std::fmt;
use std::time::Duration;

use approxdd_circuit::CircuitError;
use approxdd_dd::DdError;
use approxdd_sim::SimError;

/// Every way a simulator run, alone or pooled, can fail, absorbing the
/// engine error types via `From` so `?` works across layers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// The DD simulator failed.
    Sim(SimError),
    /// The decision-diagram engine failed.
    Dd(DdError),
    /// The circuit failed validation.
    Circuit(CircuitError),
    /// A job panicked. The pool ([`crate::BackendPool`]) catches the
    /// panic at the task boundary, drops the job's engine and replies
    /// with this error; the worker thread lives on. The job server's
    /// runners catch a panic outside the pool the same way. Never
    /// produced by a single-threaded simulator. Final: a job's outcome
    /// is a pure function of its template, its index and the root seed,
    /// so running it again would panic again.
    Panicked {
        /// Index of the job that panicked.
        job: usize,
        /// The panic's message ([`panic_message`] of its payload).
        message: String,
    },
    /// A job's wall-clock deadline elapsed before the run finished.
    /// The simulator checks it after every operation and stops the run
    /// at the first one past the cutoff
    /// (`approxdd_sim::SimError::DeadlineExceeded`); the pool worker
    /// surfaces that as this typed error. Produced by the pool.
    DeadlineExceeded {
        /// Index of the job that blew its deadline.
        job: usize,
        /// The wall-clock budget the job was given.
        budget: Duration,
    },
}

/// The message a caught panic carries: its payload when that is a
/// `&str` or a `String` (what `panic!` makes), a fixed placeholder
/// otherwise. The pool's task boundary and the job server's runners
/// both build [`ExecError::Panicked`] from it.
#[must_use]
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a panic without a message".to_string())
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Sim(e) => write!(f, "dd simulator error: {e}"),
            ExecError::Dd(e) => write!(f, "decision-diagram error: {e}"),
            ExecError::Circuit(e) => write!(f, "circuit error: {e}"),
            ExecError::Panicked { job, message } => write!(f, "job {job} panicked: {message}"),
            ExecError::DeadlineExceeded { job, budget } => {
                write!(f, "job {job} exceeded its {budget:?} deadline")
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
            ExecError::Panicked { .. } | ExecError::DeadlineExceeded { .. } => None,
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
    /// (panics, deadlines) expose none.
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
                ExecError::Panicked {
                    job: 3,
                    message: "boom".into(),
                },
                0,
            ),
            (
                ExecError::DeadlineExceeded {
                    job: 5,
                    budget: Duration::from_millis(250),
                },
                0,
            ),
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

    /// The execution-layer messages must name the job index and what
    /// ended it — that is what a server log greps for.
    #[test]
    fn resilience_errors_name_job_and_cause() {
        let lost = ExecError::Panicked {
            job: 3,
            message: "a policy panicked".into(),
        };
        assert_eq!(lost.to_string(), "job 3 panicked: a policy panicked");
        let deadline = ExecError::DeadlineExceeded {
            job: 5,
            budget: Duration::from_millis(250),
        };
        assert_eq!(deadline.to_string(), "job 5 exceeded its 250ms deadline");
    }

    /// A `panic!` payload is a `&str` (a literal message) or a
    /// `String` (a formatted one); anything else reads as the
    /// placeholder.
    #[test]
    fn panic_messages_come_from_str_and_string_payloads() {
        let literal: Box<dyn Any + Send> = Box::new("a literal");
        let formatted: Box<dyn Any + Send> = Box::new(format!("formatted {}", 7));
        let other: Box<dyn Any + Send> = Box::new(7_u8);
        assert_eq!(panic_message(&*literal), "a literal");
        assert_eq!(panic_message(&*formatted), "formatted 7");
        assert_eq!(panic_message(&*other), "a panic without a message");
    }
}
