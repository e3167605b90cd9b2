//! The statistics the pool, the server and the harnesses read, and the
//! execution layer's error.
//!
//! The engine is the DD simulator itself, [`approxdd_sim::Simulator`],
//! with every approximation strategy its builder can configure: it
//! **runs** a circuit into a [`approxdd_sim::RunResult`], whose
//! [`SimStats`] convert into [`BackendStats`]; the simulator answers
//! measurement-side queries on the result (histograms, amplitudes,
//! basis-state probabilities, diagonal expectations) until the result
//! is **released**, and panics on a query of a released one. The pool
//! ([`crate::BackendPool`]) is its runtime consumer, and its failures
//! funnel into the single [`ExecError`].
//!
//! Table I compares an approximating engine against exact DD simulation:
//! one engine under two policies. The dense baseline
//! (`approxdd_statevector::run_circuit`) stays a plain function that
//! cross-checks call directly.
//!
//! # Examples
//!
//! ```
//! use approxdd_circuit::generators;
//! use approxdd_exec::backend::{BackendStats, ExecError};
//! use approxdd_sim::Simulator;
//!
//! # fn main() -> Result<(), ExecError> {
//! let circuit = generators::ghz(8);
//! let mut dd = Simulator::builder().seed(7).build();
//! let run = dd.run(&circuit)?;
//! let p = dd.probability(&run, 0)? + dd.probability(&run, 0xFF)?;
//! let stats = BackendStats::from(run.stats.clone());
//! dd.release(&run);
//! assert!((p - 1.0).abs() < 1e-9);
//! assert_eq!(stats.gates_applied, circuit.gate_count());
//!
//! // The dense exact baseline agrees.
//! let dense = approxdd_statevector::run_circuit(&circuit).expect("dense run");
//! assert!((dense.probability(0) + dense.probability(0xFF) - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub use crate::error::ExecError;

use std::time::Duration;

use approxdd_sim::{SimStats, Simulator, SimulatorBuilder};

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
    /// simulator.
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

/// The builder's path into the backend layer, kept under the name the
/// benchmark harness calls: `Simulator::builder()….build_backend()` is
/// [`SimulatorBuilder::build`].
pub trait BuildBackend {
    /// Builds the simulator the builder configures.
    fn build_backend(self) -> Simulator;
}

impl BuildBackend for SimulatorBuilder {
    fn build_backend(self) -> Simulator {
        self.build()
    }
}
