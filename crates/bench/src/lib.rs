//! Shared harness for regenerating the paper's evaluation artifacts.
//!
//! The paper's evaluation (Section VI, Table I) has two halves:
//!
//! * **memory-driven** on quantum-supremacy grid circuits
//!   (`qsup_AxB_C`), comparing exact simulation against the reactive
//!   threshold strategy at `f_round ∈ {0.99, 0.975, 0.95}`;
//! * **fidelity-driven** on Shor instances (`shor_N_a`) targeting
//!   `f_final = 0.5` at `f_round = 0.9`.
//!
//! [`memory_driven_rows_pooled`] and [`fidelity_driven_row`] produce the
//! table rows; [`workloads`] defines the benchmark instances (laptop-scale
//! defaults plus the paper-scale `--large` set); [`format_rows`] renders
//! the rows in the layout of Table I.

use std::time::Duration;

use approxdd_circuit::{generators, Circuit};
use approxdd_exec::backend::{Backend, BackendStats, BuildBackend, ExecError};
use approxdd_exec::{BackendPool, PoolJob, PoolOutcome};
use approxdd_shor::{factor, shor_circuit, FactorOptions};
use approxdd_sim::json::Json;
use approxdd_sim::{Simulator, SimulatorBuilder, Strategy};

pub mod sweeps;

/// Runs `circuit` on any [`Backend`] and returns its unified run
/// statistics, releasing the outcome — the one generic primitive every
/// benchmark row (and equivalence check) is built from.
///
/// # Errors
///
/// Preparation or execution errors.
pub(crate) fn run_stats<B: Backend>(
    backend: &mut B,
    circuit: &Circuit,
) -> Result<BackendStats, ExecError> {
    let outcome = approxdd_exec::backend::run_circuit(backend, circuit)?;
    let stats = outcome.stats.clone();
    backend.release(outcome);
    Ok(stats)
}

/// One row of the regenerated Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Benchmark name (`qsup_4x4_12_0`, `shor_33_5`, …).
    pub name: String,
    /// Register width.
    pub(crate) qubits: usize,
    /// Exact run: maximum DD node count (`None` when skipped/timeout).
    pub exact_max_dd: Option<usize>,
    /// Exact run: wall-clock runtime.
    pub exact_runtime: Option<Duration>,
    /// Approximate run: maximum DD node count.
    pub(crate) approx_max_dd: usize,
    /// Approximation rounds performed.
    pub rounds: usize,
    /// Per-round target fidelity.
    pub(crate) f_round: f64,
    /// Approximate run: wall-clock runtime.
    pub(crate) approx_runtime: Duration,
    /// Measured final fidelity (product of round fidelities; exact by
    /// Lemma 1).
    pub f_final: f64,
    /// Guaranteed final-fidelity floor: product of the per-round
    /// *target* fidelities of the rounds that removed nodes
    /// (≤ `f_final`).
    pub(crate) fidelity_lower_bound: f64,
    /// Name of the approximation policy that produced the approximate
    /// run (`"memory-driven"`, `"fidelity-driven"`, `"budget"`, or a
    /// custom policy's name).
    pub(crate) policy: String,
    /// For Shor rows: whether classical post-processing recovered the
    /// factors from the approximate state.
    pub factored: Option<bool>,
    /// Approximate run: compute-table hit rate of the DD package (its
    /// one lossy table, `add`).
    pub(crate) ct_hit_rate: Option<f64>,
    /// Approximate run: unique-table occupancy (live entries over
    /// buckets) of the DD package.
    pub(crate) unique_occupancy: Option<f64>,
    /// Approximate run: peak simultaneously-alive DD nodes (vector +
    /// matrix).
    pub(crate) peak_nodes: Option<usize>,
}

/// Copies the DD-package cache columns out of a run's unified stats.
fn cache_columns(stats: &BackendStats) -> (Option<f64>, Option<f64>, Option<usize>) {
    (
        stats.ct_hit_rate(),
        stats.unique_occupancy(),
        stats.peak_nodes(),
    )
}

/// Runs one fidelity-driven Shor benchmark row: an exact reference run
/// (unless `skip_exact`), then the approximate run with
/// `f_final = 0.5`, `f_round = 0.9` (the paper's configuration),
/// finishing with classical post-processing to check that the factors
/// are still recovered.
///
/// # Errors
///
/// Propagates circuit construction and simulator errors.
pub fn fidelity_driven_row(
    n: u64,
    a: u64,
    final_fidelity: f64,
    f_round: f64,
    skip_exact: bool,
) -> Result<TableRow, Box<dyn std::error::Error>> {
    let circuit = shor_circuit(n, a)?;

    let (exact_max_dd, exact_runtime) = if skip_exact {
        (None, None)
    } else {
        let mut exact = Simulator::builder().exact().build_backend();
        let stats = run_stats(&mut exact, &circuit)?;
        (Some(stats.peak_size), Some(stats.runtime))
    };

    let opts = FactorOptions {
        strategy: Strategy::FidelityDriven {
            final_fidelity,
            round_fidelity: f_round,
        },
        base: Some(a),
        ..FactorOptions::default()
    };
    let outcome = factor(n, &opts);
    let (factored, stats) = match &outcome {
        Ok(out) => (
            out.factors.0 * out.factors.1 == n,
            out.sim_stats.clone().map(BackendStats::from),
        ),
        Err(_) => (false, None),
    };
    // If factoring took a classical shortcut we still want the quantum
    // stats; rerun the simulation alone in that case.
    let stats = match stats {
        Some(s) => s,
        None => {
            let mut approx = Simulator::builder().strategy(opts.strategy).build_backend();
            run_stats(&mut approx, &circuit)?
        }
    };

    let (ct_hit_rate, unique_occupancy, peak_nodes) = cache_columns(&stats);
    Ok(TableRow {
        name: circuit.name().to_string(),
        qubits: circuit.n_qubits(),
        exact_max_dd,
        exact_runtime,
        approx_max_dd: stats.peak_size,
        rounds: stats.approx_rounds,
        f_round,
        approx_runtime: stats.runtime,
        f_final: stats.fidelity,
        fidelity_lower_bound: stats.fidelity_lower_bound,
        policy: stats.policy,
        factored: Some(factored),
        ct_hit_rate,
        unique_occupancy,
        peak_nodes,
    })
}

/// Max-DD-size and runtime of an exact reference run, both `None` when
/// the reference was skipped.
type ExactRef = (Option<usize>, Option<Duration>);

/// Builds one [`TableRow`] from a pooled approximate outcome plus the
/// (optional) exact reference numbers.
fn row_from_outcome(outcome: &PoolOutcome, f_round: f64, exact: ExactRef) -> TableRow {
    let (ct_hit_rate, unique_occupancy, peak_nodes) = cache_columns(&outcome.stats);
    TableRow {
        name: outcome.name.clone(),
        qubits: outcome.n_qubits,
        exact_max_dd: exact.0,
        exact_runtime: exact.1,
        approx_max_dd: outcome.stats.peak_size,
        rounds: outcome.stats.approx_rounds,
        f_round,
        approx_runtime: outcome.stats.runtime,
        f_final: outcome.stats.fidelity,
        fidelity_lower_bound: outcome.stats.fidelity_lower_bound,
        policy: outcome.stats.policy.clone(),
        factored: None,
        ct_hit_rate,
        unique_occupancy,
        peak_nodes,
    }
}

/// The memory-driven half of Table I as one pooled submission: exact
/// reference runs (unless `skip_exact`) and every `circuit × f_round`
/// combination execute concurrently across the pool's workers, then
/// assemble into rows (circuit-major, `f_round`-minor). Per-row failures stay confined to their slot.
pub fn memory_driven_rows_pooled(
    pool: &BackendPool,
    circuits: &[Circuit],
    node_threshold: usize,
    f_rounds: &[f64],
    threshold_growth: f64,
    skip_exact: bool,
) -> Vec<Result<TableRow, ExecError>> {
    let mut jobs: Vec<PoolJob> = Vec::new();
    if !skip_exact {
        jobs.extend(
            circuits
                .iter()
                .map(|c| PoolJob::new(c.clone()).strategy(Strategy::Exact)),
        );
    }
    for circuit in circuits {
        for &f_round in f_rounds {
            jobs.push(
                PoolJob::new(circuit.clone()).strategy(Strategy::MemoryDriven {
                    node_threshold,
                    round_fidelity: f_round,
                    threshold_growth,
                }),
            );
        }
    }
    let mut results = pool.run_jobs(jobs);
    let approx = results.split_off(if skip_exact { 0 } else { circuits.len() });
    let exact: Vec<Result<ExactRef, ExecError>> = if skip_exact {
        vec![Ok((None, None)); circuits.len()]
    } else {
        results
            .iter()
            .map(|r| match r {
                Ok(o) => Ok((Some(o.stats.peak_size), Some(o.stats.runtime))),
                Err(e) => Err(e.clone()),
            })
            .collect()
    };

    let mut rows = Vec::with_capacity(circuits.len() * f_rounds.len());
    for (ci, _) in circuits.iter().enumerate() {
        for (fi, &f_round) in f_rounds.iter().enumerate() {
            let row = match (&exact[ci], &approx[ci * f_rounds.len() + fi]) {
                (_, Err(e)) | (Err(e), _) => Err(e.clone()),
                (Ok(exact), Ok(outcome)) => Ok(row_from_outcome(outcome, f_round, *exact)),
            };
            rows.push(row);
        }
    }
    rows
}

/// Parses the `--workers N` flag the same way for every benchmark
/// binary: `Ok(None)` when absent (callers fall back to the builder's
/// default, the machine's available parallelism), an error for a
/// missing or malformed value.
///
/// # Errors
///
/// A human-readable message when the flag has no or a non-numeric
/// value.
pub fn workers_flag(args: &[String]) -> Result<Option<usize>, String> {
    match args.iter().position(|a| a == "--workers") {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| "missing value after --workers".to_string())?
            .parse()
            .map(Some)
            .map_err(|_| "bad --workers value".to_string()),
    }
}

/// Builds the [`BackendPool`] a benchmark binary runs on: `template`
/// with [`workers_flag`] applied (absent flag → the template's default,
/// the machine's available parallelism), and copy-on-write package
/// snapshots enabled — pooled benchmark batches repeat circuit
/// families, exactly the workload snapshots amortize, and results are
/// byte-identical either way (the pool's determinism contract). One
/// wiring for every binary.
///
/// # Errors
///
/// See [`workers_flag`].
pub fn pool_from_args(args: &[String], template: SimulatorBuilder) -> Result<BackendPool, String> {
    let template = match workers_flag(args)? {
        Some(n) => template.workers(n),
        None => template,
    };
    Ok(BackendPool::new(template.share_snapshot(true)))
}

impl TableRow {
    /// The row as a JSON object (runtimes in seconds; missing exact
    /// references serialize as `null`, like the paper's Timeout cells).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name.as_str())),
            ("qubits", Json::int(self.qubits)),
            ("exact_max_dd", Json::opt_int(self.exact_max_dd)),
            (
                "exact_seconds",
                self.exact_runtime
                    .map_or(Json::Null, |d| Json::Num(d.as_secs_f64())),
            ),
            ("approx_max_dd", Json::int(self.approx_max_dd)),
            ("rounds", Json::int(self.rounds)),
            ("f_round", Json::Num(self.f_round)),
            (
                "approx_seconds",
                Json::Num(self.approx_runtime.as_secs_f64()),
            ),
            ("f_final", Json::Num(self.f_final)),
            ("fidelity_lower_bound", Json::Num(self.fidelity_lower_bound)),
            ("policy", Json::str(self.policy.as_str())),
            ("factored", self.factored.map_or(Json::Null, Json::Bool)),
            (
                "ct_hit_rate",
                self.ct_hit_rate.map_or(Json::Null, Json::Num),
            ),
            (
                "unique_occupancy",
                self.unique_occupancy.map_or(Json::Null, Json::Num),
            ),
            ("peak_nodes", Json::opt_int(self.peak_nodes)),
        ])
    }
}

/// Benchmark instance definitions.
pub mod workloads {
    use super::{generators, Circuit};

    /// Laptop-scale supremacy instances: 4×4 grid, depth 12, three
    /// seeds (the paper uses 4×5 depth 15, ~1 h per exact run on a
    /// server; the 4×4 instances keep the same structure at minutes of
    /// total runtime).
    #[must_use]
    pub fn supremacy_default() -> Vec<Circuit> {
        (0..3)
            .map(|seed| generators::supremacy(4, 4, 12, seed))
            .collect()
    }

    /// Paper-scale supremacy instances (`qsup_4x5_15_{0,1,2}`, 20
    /// qubits, depth 15). Expect long exact runtimes.
    #[must_use]
    pub fn supremacy_large() -> Vec<Circuit> {
        (0..3)
            .map(|seed| generators::supremacy(4, 5, 15, seed))
            .collect()
    }

    /// CI-sized smoke instances (`table1 --smoke`): 3×3 grids, depth
    /// 10, two seeds — same structure as the laptop set at seconds of
    /// total runtime, so the bench-smoke job stays under its budget.
    #[must_use]
    pub fn supremacy_smoke() -> Vec<Circuit> {
        (0..2)
            .map(|seed| generators::supremacy(3, 3, 10, seed))
            .collect()
    }

    /// CI-sized Shor smoke instances `(n, a)`.
    pub const SHOR_SMOKE: [(u64, u64); 2] = [(15, 7), (21, 2)];

    /// Default node threshold for the memory-driven strategy on the
    /// laptop-scale instances (the paper used thresholds sized to its
    /// 20-qubit instances).
    pub const SUPREMACY_THRESHOLD: usize = 1 << 12;

    /// The `f_round` values of the memory-driven half of Table I
    /// (the paper's three values plus two lower ones: at laptop scale
    /// the 16-qubit instances saturate at 2^16 nodes, so the runtime
    /// crossover sits at lower per-round fidelity than on the paper's
    /// 20-qubit instances — the extended sweep makes it visible).
    pub const SUPREMACY_ROUND_FIDELITIES: [f64; 5] = [0.99, 0.975, 0.95, 0.9, 0.8];

    /// Laptop-scale Shor instances `(n, a)` from Table I (exact
    /// simulation finishes in seconds to minutes).
    pub const SHOR_DEFAULT: [(u64, u64); 4] = [(33, 5), (55, 2), (69, 2), (221, 4)];

    /// Paper-scale Shor instances; the last two timed out (3 h) even on
    /// the paper's server when simulated exactly.
    pub const SHOR_LARGE: [(u64, u64); 3] = [(323, 8), (629, 8), (1157, 8)];
}

/// Formats rows in the layout of Table I.
#[must_use]
pub fn format_rows(rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18} {:>6} | {:>12} {:>11} | {:>12} {:>6} {:>7} {:>11} {:>8} {:>8}\n",
        "Benchmark",
        "Qubits",
        "ExactMaxDD",
        "Exact[s]",
        "ApproxMaxDD",
        "Rounds",
        "fround",
        "Approx[s]",
        "ffinal",
        "Factored"
    ));
    out.push_str(&"-".repeat(118));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>6} | {:>12} {:>11} | {:>12} {:>6} {:>7.3} {:>11.3} {:>8.3} {:>8}\n",
            r.name,
            r.qubits,
            r.exact_max_dd
                .map_or_else(|| "-".to_string(), |v| v.to_string()),
            r.exact_runtime
                .map_or_else(|| "-".to_string(), |d| format!("{:.3}", d.as_secs_f64())),
            r.approx_max_dd,
            r.rounds,
            r.f_round,
            r.approx_runtime.as_secs_f64(),
            r.f_final,
            r.factored.map_or_else(
                || "-".to_string(),
                |b| if b { "yes" } else { "NO" }.to_string()
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serial row the pooled rows are checked against: an exact
    /// reference run (unless `skip_exact`) and an approximate run with
    /// the given threshold, round fidelity and threshold growth factor,
    /// each on a backend of its own.
    fn memory_driven_row(
        circuit: &Circuit,
        node_threshold: usize,
        f_round: f64,
        threshold_growth: f64,
        skip_exact: bool,
    ) -> Result<TableRow, ExecError> {
        let (exact_max_dd, exact_runtime) = if skip_exact {
            (None, None)
        } else {
            let mut exact = Simulator::builder().exact().build_backend();
            let stats = run_stats(&mut exact, circuit)?;
            (Some(stats.peak_size), Some(stats.runtime))
        };

        let mut approx = Simulator::builder()
            .strategy(Strategy::MemoryDriven {
                node_threshold,
                round_fidelity: f_round,
                threshold_growth,
            })
            .build_backend();
        let stats = run_stats(&mut approx, circuit)?;
        let (ct_hit_rate, unique_occupancy, peak_nodes) = cache_columns(&stats);

        Ok(TableRow {
            name: circuit.name().to_string(),
            qubits: circuit.n_qubits(),
            exact_max_dd,
            exact_runtime,
            approx_max_dd: stats.peak_size,
            rounds: stats.approx_rounds,
            f_round,
            approx_runtime: stats.runtime,
            f_final: stats.fidelity,
            fidelity_lower_bound: stats.fidelity_lower_bound,
            policy: stats.policy,
            factored: None,
            ct_hit_rate,
            unique_occupancy,
            peak_nodes,
        })
    }

    #[test]
    fn memory_driven_row_on_small_instance() {
        let c = generators::supremacy(2, 3, 10, 0);
        let row = memory_driven_row(&c, 8, 0.95, 1.0, false).unwrap();
        assert_eq!(row.qubits, 6);
        assert!(row.exact_max_dd.is_some());
        assert!(row.f_final > 0.0 && row.f_final <= 1.0);
        assert!(row.approx_max_dd <= row.exact_max_dd.unwrap());
    }

    #[test]
    fn fidelity_driven_row_factors_15() {
        let row = fidelity_driven_row(15, 7, 0.5, 0.9, false).unwrap();
        assert_eq!(row.qubits, 12);
        assert_eq!(row.factored, Some(true));
        assert!(row.f_final >= 0.5 - 1e-9);
    }

    #[test]
    fn pooled_rows_match_serial_up_to_runtime() {
        use approxdd_exec::BuildPool;
        let circuits = [
            generators::supremacy(2, 3, 10, 0),
            generators::supremacy(2, 3, 10, 1),
        ];
        let f_rounds = [0.99, 0.95];
        let pool = Simulator::builder().workers(3).build_pool();
        let pooled = memory_driven_rows_pooled(&pool, &circuits, 8, &f_rounds, 1.0, false);
        assert_eq!(pooled.len(), 4);
        for (i, result) in pooled.iter().enumerate() {
            let p = result.as_ref().expect("pooled row");
            let c = &circuits[i / f_rounds.len()];
            let s = memory_driven_row(c, 8, f_rounds[i % f_rounds.len()], 1.0, false).unwrap();
            assert_eq!(p.name, s.name);
            assert_eq!(p.qubits, s.qubits);
            assert_eq!(p.exact_max_dd, s.exact_max_dd);
            assert_eq!(p.approx_max_dd, s.approx_max_dd);
            assert_eq!(p.rounds, s.rounds);
            assert_eq!(p.f_final.to_bits(), s.f_final.to_bits());
        }
    }

    #[test]
    fn table_rows_serialize_to_json() {
        let c = generators::supremacy(2, 2, 6, 0);
        let row = memory_driven_row(&c, 4, 0.9, 1.0, true).unwrap();
        let text = row.to_json().to_string();
        assert!(text.contains("\"name\":\"qsup_2x2_6_0\""));
        assert!(text.contains("\"exact_max_dd\":null"));
        assert!(text.contains("\"f_round\":0.9"));
        // The policy columns CI asserts on in the smoke artifact.
        assert!(text.contains("\"policy\":\"memory-driven\""));
        assert!(text.contains("\"fidelity_lower_bound\":"));
        assert!(text.contains("\"rounds\":"));
    }

    #[test]
    fn formatting_contains_all_rows() {
        let c = generators::supremacy(2, 2, 6, 0);
        let row = memory_driven_row(&c, 4, 0.9, 1.0, false).unwrap();
        let text = format_rows(&[row]);
        assert!(text.contains("qsup_2x2_6_0"));
        assert!(text.contains("Benchmark"));
    }
}
