//! # approxdd-server — simulation as a service
//!
//! A long-lived job server over the workspace's execution stack:
//! clients `POST` OpenQASM circuits with a policy preset and a shot
//! budget, the server runs them on a shared
//! [`approxdd_exec::BackendPool`], and streams results back as
//! newline-delimited JSON — deterministic trace events, partial
//! histograms as sampling chunks settle, then a final record whose
//! fingerprint is byte-identical to a direct pool run of the same job.
//!
//! Everything is `std`-only: the HTTP layer is a hand-rolled
//! HTTP/1.1 subset over [`std::net::TcpListener`] (`http`), the
//! JSON comes from the workspace's shared writer
//! ([`approxdd_sim::json`]); the workspace builds fully offline.
//!
//! ```no_run
//! use approxdd_server::{JobServer, ServerConfig};
//! use approxdd_sim::Simulator;
//!
//! let config = ServerConfig::new()
//!     .template(Simulator::builder().seed(7).workers(4))
//!     .queue_capacity(32)
//!     .sessions(8);
//! let server = JobServer::bind("127.0.0.1:0", config)?;
//! println!("listening on http://{}", server.local_addr());
//! server.run()?; // blocks until POST /shutdown drains it
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! The building blocks, each its own module:
//!
//! * `http` — request parsing and response/NDJSON writing;
//! * `scheduler` — bounded priority admission with per-client
//!   token-bucket quotas (typed 429 backpressure, never blocking);
//! * `session` — the warm-session LRU promoting frozen
//!   [`approxdd_sim::SimSnapshot`]s from per-batch to cross-batch,
//!   with the determinism argument for why that is result-invisible;
//! * `server` — configuration, bind, the accept loop and the drain,
//!   plus the state shared by the stages of the accept → admit →
//!   schedule → stream → settle lifecycle.
//!
//! The stages are private modules, one per seam of that lifecycle:
//!
//! * `routes` — the route table and the connection-side handlers:
//!   request parsing, submission (accept, admit), the event stream,
//!   shutdown;
//! * `run` — the runner loop: schedule, warm session, execute, settle;
//! * `job` — what a job is while the server holds it: `JobSpec`,
//!   `JobState` and its event log, the job table with its byte budget
//!   for settled logs, and the constructors of every event line;
//! * `report` — the one table of served numbers that both `GET /stats`
//!   and `GET /metrics` render from.

#![warn(missing_docs)]

mod error;
mod http;
mod job;
mod report;
mod routes;
mod run;
mod scheduler;
mod server;
mod session;

pub use error::ServeError;
pub use scheduler::{Quota, Scheduler};
pub use server::{JobServer, ServerConfig};
pub use session::{family_hash, SessionCache, SessionStats};
