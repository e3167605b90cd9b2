//! The run / query / release surface over the simulation engine.
//!
//! [`AnyBackend`] is the approximate decision-diagram simulator
//! ([`approxdd_sim::Simulator`]), with every approximation strategy its
//! builder can configure. It is built by [`BuildBackend::build_backend`],
//! and it **runs** a circuit into a [`RunOutcome`] carrying
//! [`BackendStats`] — admission and execution are one call. The
//! outcome then answers measurement-side queries (histograms,
//! amplitudes, basis-state probabilities, diagonal expectations) until
//! it is **released**. All failures funnel into
//! the single [`ExecError`]. The pool ([`crate::BackendPool`]) is its
//! runtime consumer.
//!
//! Table I compares an approximating engine against exact DD simulation:
//! one engine under two policies. The dense baseline
//! (`approxdd_statevector::run_circuit`) stays a plain function that
//! cross-checks call directly.
//!
//! # Examples
//!
//! ```
//! use approxdd_exec::backend::BuildBackend;
//! use approxdd_circuit::generators;
//! use approxdd_sim::Simulator;
//!
//! # fn main() -> Result<(), approxdd_exec::backend::ExecError> {
//! let circuit = generators::ghz(8);
//! let mut dd = Simulator::builder().seed(7).build_backend();
//! let run = dd.run(&circuit)?;
//! let p = dd.probability(&run, 0)? + dd.probability(&run, 0xFF)?;
//! dd.release(run);
//! assert!((p - 1.0).abs() < 1e-9);
//!
//! // The dense exact baseline agrees.
//! let dense = approxdd_statevector::run_circuit(&circuit).expect("dense run");
//! assert!((dense.probability(0) + dense.probability(0xFF) - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

mod engine;

pub use crate::error::ExecError;
pub use engine::AnyBackend;

use std::time::Duration;

use approxdd_sim::{RunResult, SimStats, SimulatorBuilder};

/// The backend layer's result alias.
pub type Result<T> = std::result::Result<T, ExecError>;

/// Statistics of one run — [`SimStats`] under the names the pool, the
/// server and the harnesses read; the quantities a Table I row needs.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendStats {
    /// State-transforming operations applied.
    pub gates_applied: usize,
    /// Peak DD node count of the state.
    pub peak_size: usize,
    /// Approximation rounds performed (0 for exact runs).
    pub approx_rounds: usize,
    /// End-to-end fidelity estimate (1.0 for exact runs).
    pub fidelity: f64,
    /// Guaranteed end-to-end fidelity floor: product of the per-round
    /// *target* fidelities of every fired round that removed nodes
    /// (≤ the measured [`BackendStats::fidelity`]; 1.0 for exact
    /// runs).
    pub fidelity_lower_bound: f64,
    /// Name of the approximation policy that steered the run.
    pub policy: String,
    /// Nodes removed by truncation (0 for exact runs).
    pub nodes_removed: usize,
    /// Wall-clock runtime of the run.
    pub runtime: Duration,
    /// DD size after every gate, when recorded (`record_size_series`;
    /// empty otherwise).
    pub size_series: Vec<usize>,
    /// DD-package counters at the end of the run — the compute
    /// table's hits and misses, unique-table occupancy,
    /// and peak node counts. Always `Some`: every run is a DD run.
    /// Session-cumulative: the package persists across runs of one
    /// backend.
    pub dd: Option<approxdd_dd::PackageStats>,
}

impl From<SimStats> for BackendStats {
    fn from(s: SimStats) -> Self {
        Self {
            gates_applied: s.gates_applied,
            peak_size: s.max_dd_size,
            approx_rounds: s.approx_rounds,
            fidelity: s.fidelity,
            fidelity_lower_bound: s.fidelity_lower_bound,
            policy: s.policy,
            nodes_removed: s.nodes_removed,
            runtime: s.runtime,
            size_series: s.size_series,
            dd: Some(s.package),
        }
    }
}

/// The typed result of [`AnyBackend::run`]: run statistics plus the
/// simulator result queries go through.
///
/// An outcome pins GC roots inside the simulator's package — pass it
/// back to [`AnyBackend::release`] when done so long sessions don't
/// accumulate dead state. Deliberately not `Clone` (unlike
/// [`RunResult`]): release consumes the only copy, so no stale outcome
/// can outlive its engine resources.
#[derive(Debug)]
pub struct RunOutcome {
    /// Run statistics.
    pub stats: BackendStats,
    result: RunResult,
}

impl RunOutcome {
    /// Register width of the run.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.result.n_qubits()
    }
}

/// Extension hook giving [`SimulatorBuilder`] a direct path into the
/// backend layer: `Simulator::builder()….build_backend()`.
pub trait BuildBackend {
    /// Builds the DD backend the builder configures.
    fn build_backend(self) -> AnyBackend;
}

impl BuildBackend for SimulatorBuilder {
    fn build_backend(self) -> AnyBackend {
        AnyBackend::build(self, None)
    }
}
