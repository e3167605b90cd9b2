//! Typed serving errors with stable HTTP mappings.
//!
//! Every rejection the server hands a client flows through
//! [`ServeError`], so the HTTP status, the machine-readable `kind`
//! string in the JSON body, and the human-readable message stay in one
//! place. Admission failures ([`ServeError::QueueFull`],
//! [`ServeError::QuotaExhausted`]) are *backpressure*, not faults: the
//! client is told to retry later (429), and nothing about them is ever
//! folded into a job result.

use std::error::Error;
use std::fmt;

use approxdd_exec::backend::ExecError;

/// An error surfaced to an HTTP client of the job server.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The scheduler's bounded queue is at capacity: the job was
    /// rejected *before* touching the pool (HTTP 429).
    QueueFull {
        /// Jobs already waiting when the submission arrived.
        queued: usize,
        /// The configured admission capacity.
        capacity: usize,
    },
    /// The submitting client spent its token-bucket quota (HTTP 429).
    QuotaExhausted {
        /// The client identifier whose bucket ran dry.
        client: String,
    },
    /// The request was malformed: bad QASM, an unknown parameter
    /// value, or an invalid policy combination (HTTP 400).
    BadRequest(String),
    /// No such job or route (HTTP 404).
    NotFound(String),
    /// The job with this id settled and its log was evicted to keep
    /// the server's retained logs under budget (HTTP 410).
    Expired(u64),
    /// The server is draining after `POST /shutdown` and accepts no
    /// new jobs (HTTP 503).
    ShuttingDown,
    /// The simulation itself failed after admission (HTTP 500 —
    /// reported on the job's event stream, since submission already
    /// returned 202).
    Exec(ExecError),
}

impl ServeError {
    /// The HTTP status code this error maps to.
    #[must_use]
    pub(crate) fn http_status(&self) -> u16 {
        match self {
            ServeError::QueueFull { .. } | ServeError::QuotaExhausted { .. } => 429,
            ServeError::BadRequest(_) => 400,
            ServeError::NotFound(_) => 404,
            ServeError::Expired(_) => 410,
            ServeError::ShuttingDown => 503,
            ServeError::Exec(_) => 500,
        }
    }

    /// A stable machine-readable discriminant for JSON error bodies.
    #[must_use]
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            ServeError::QueueFull { .. } => "queue_full",
            ServeError::QuotaExhausted { .. } => "quota_exhausted",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::NotFound(_) => "not_found",
            ServeError::Expired(_) => "expired",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::Exec(_) => "exec",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { queued, capacity } => {
                write!(f, "queue full: {queued} jobs queued at capacity {capacity}")
            }
            ServeError::QuotaExhausted { client } => {
                write!(f, "quota exhausted for client {client:?}")
            }
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::NotFound(what) => write!(f, "not found: {what}"),
            ServeError::Expired(job) => write!(f, "job {job} has expired: its log was evicted"),
            ServeError::ShuttingDown => f.write_str("server is shutting down"),
            ServeError::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> Self {
        ServeError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_and_kinds_are_stable() {
        let cases: Vec<(ServeError, u16, &str)> = vec![
            (
                ServeError::QueueFull {
                    queued: 4,
                    capacity: 4,
                },
                429,
                "queue_full",
            ),
            (
                ServeError::QuotaExhausted { client: "a".into() },
                429,
                "quota_exhausted",
            ),
            (ServeError::BadRequest("x".into()), 400, "bad_request"),
            (ServeError::NotFound("job 7".into()), 404, "not_found"),
            (ServeError::Expired(7), 410, "expired"),
            (ServeError::ShuttingDown, 503, "shutting_down"),
        ];
        for (err, status, kind) in cases {
            assert_eq!(err.http_status(), status, "{err}");
            assert_eq!(err.kind(), kind, "{err}");
            assert!(!err.to_string().is_empty());
        }
    }
}
