//! Regenerates Table I of the paper: memory-driven approximation on
//! quantum-supremacy circuits (Section IV-B) and fidelity-driven
//! approximation on Shor instances (Section IV-C), each beside its
//! exact reference run.
//!
//! ```text
//! cargo run --release --example table1 [-- --smoke | --large | --skip-exact]
//! ```
//!
//! * default: laptop-scale instances — 4×4 depth-12 supremacy grids at
//!   a 2^12-node threshold; `shor_33_5` … `shor_221_4`.
//! * `--smoke`: CI-sized instances — 3×3 depth-10 grids at 2^8 nodes
//!   and two `f_round` values; `shor_15_7`, `shor_21_2`.
//! * `--large`: the paper-scale instances — 4×5 depth-15 grids at 2^15
//!   nodes; Shor adds `shor_323_8`, `shor_629_8` and `shor_1157_8`. The
//!   exact runs of the last two timed out (3 h) on the paper's server
//!   and are skipped here.
//! * `--skip-exact`: omits every exact reference run.
//!
//! The exact references and every memory-driven `circuit × f_round` run
//! are one batch on a `BackendPool`; each Shor row then factors its
//! instance with `f_final = 0.5`, `f_round = 0.9`. The run exits
//! non-zero when a row fails, a Shor instance is not factored, or a
//! row's final fidelity falls below its guaranteed floor.
//!
//! The memory-driven rows keep the node threshold fixed
//! (`Strategy::memory_driven_table1`): the paper's text prescribes
//! doubling, but its reported round counts (~50–90) require the
//! fixed-threshold regime.

use std::process::ExitCode;

use approxdd::backend::{BackendStats, ExecError};
use approxdd::circuit::{generators, Circuit};
use approxdd::exec::{BuildPool, PoolJob, PoolOutcome};
use approxdd::shor::{factor, shor_circuit, FactorOptions};
use approxdd::sim::{Simulator, Strategy};

/// The paper's three `f_round` values plus two lower ones: at laptop
/// scale the 16-qubit instances saturate at 2^16 nodes, so the runtime
/// crossover sits at lower per-round fidelity than on the paper's
/// 20-qubit instances.
const F_ROUNDS: &[f64] = &[0.99, 0.975, 0.95, 0.9, 0.8];

/// Table I's Shor instances `(n, a)` whose exact runs finish in seconds.
const SHOR_DEFAULT: &[(u64, u64)] = &[(33, 5), (55, 2), (69, 2), (221, 4)];

/// The instances and parameters of one run size.
struct Workload {
    supremacy: Vec<Circuit>,
    threshold: usize,
    f_rounds: &'static [f64],
    shor: Vec<(u64, u64)>,
}

fn workload(smoke: bool, large: bool) -> Workload {
    let grids = |rows, cols, depth, seeds| {
        (0..seeds)
            .map(|seed| generators::supremacy(rows, cols, depth, seed))
            .collect()
    };
    if smoke {
        Workload {
            supremacy: grids(3, 3, 10, 2),
            threshold: 1 << 8,
            f_rounds: &[0.99, 0.95],
            shor: vec![(15, 7), (21, 2)],
        }
    } else if large {
        Workload {
            supremacy: grids(4, 5, 15, 3),
            threshold: 1 << 15,
            f_rounds: F_ROUNDS,
            shor: [SHOR_DEFAULT, &[(323, 8), (629, 8), (1157, 8)]].concat(),
        }
    } else {
        Workload {
            supremacy: grids(4, 4, 12, 3),
            threshold: 1 << 12,
            f_rounds: F_ROUNDS,
            shor: SHOR_DEFAULT.to_vec(),
        }
    }
}

/// What failed among the rows printed so far.
#[derive(Default)]
struct Table {
    failures: Vec<String>,
}

impl Table {
    /// The stats of the next pooled result, or `None` (noted as a
    /// failure) when its job failed.
    fn take(
        &mut self,
        results: &mut impl Iterator<Item = Result<PoolOutcome, ExecError>>,
        what: &str,
    ) -> Option<BackendStats> {
        match results.next().expect("one result per queued job") {
            Ok(outcome) => Some(outcome.stats),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Prints one row in the layout of Table I, plus the guaranteed
    /// fidelity floor (`fbound`) of the approximate run, and notes a
    /// floor violation. A Shor instance that was not factored has no
    /// row, so `factored` marks the Shor rows.
    fn row(
        &mut self,
        circuit: &Circuit,
        exact: Option<&BackendStats>,
        f_round: f64,
        approx: &BackendStats,
        factored: bool,
    ) {
        let dash = || "-".to_string();
        println!(
            "{:<18} {:>6} | {:>12} {:>11} | {:>12} {:>6} {:>7.3} {:>11.3} {:>8.3} {:>8.3} {:>8}",
            circuit.name(),
            circuit.n_qubits(),
            exact.map_or_else(dash, |s| s.peak_size.to_string()),
            exact.map_or_else(dash, |s| format!("{:.3}", s.runtime.as_secs_f64())),
            approx.peak_size,
            approx.approx_rounds,
            f_round,
            approx.runtime.as_secs_f64(),
            approx.fidelity,
            approx.fidelity_lower_bound,
            if factored { "yes" } else { "-" },
        );
        if approx.fidelity < approx.fidelity_lower_bound {
            self.failures.push(format!(
                "{} at f_round {f_round}: f_final {} below its floor {}",
                circuit.name(),
                approx.fidelity,
                approx.fidelity_lower_bound
            ));
        }
    }
}

fn main() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = ["--smoke", "--large", "--skip-exact"];
    if let Some(bad) = args.iter().find(|a| !flags.contains(&a.as_str())) {
        eprintln!("unknown argument {bad}\nusage: table1 [--smoke | --large] [--skip-exact]");
        return Ok(ExitCode::FAILURE);
    }
    let flag = |name: &str| args.iter().any(|a| a == name);
    let (smoke, large, skip_exact) = (flag("--smoke"), flag("--large"), flag("--skip-exact"));
    let w = workload(smoke, large);
    let shor: Vec<Circuit> = w
        .shor
        .iter()
        .map(|&(n, a)| shor_circuit(n, a))
        .collect::<Result<_, _>>()?;
    let shor_exact = |n: u64| !skip_exact && (!large || n < 629);

    // One batch, in print order: each supremacy circuit's exact
    // reference and its f_round runs, then the Shor exact references.
    let mut jobs = Vec::new();
    for circuit in &w.supremacy {
        if !skip_exact {
            jobs.push(PoolJob::new(circuit.clone()).strategy(Strategy::Exact));
        }
        for &f_round in w.f_rounds {
            jobs.push(
                PoolJob::new(circuit.clone())
                    .strategy(Strategy::memory_driven_table1(w.threshold, f_round)),
            );
        }
    }
    for (&(n, _), circuit) in w.shor.iter().zip(&shor) {
        if shor_exact(n) {
            jobs.push(PoolJob::new(circuit.clone()).strategy(Strategy::Exact));
        }
    }
    let mut results = Simulator::builder().build_pool().run_jobs(jobs).into_iter();

    println!(
        "{:<18} {:>6} | {:>12} {:>11} | {:>12} {:>6} {:>7} {:>11} {:>8} {:>8} {:>8}",
        "Benchmark",
        "Qubits",
        "ExactMaxDD",
        "Exact[s]",
        "ApproxMaxDD",
        "Rounds",
        "fround",
        "Approx[s]",
        "ffinal",
        "fbound",
        "Factored"
    );
    println!("{}", "-".repeat(127));
    let mut table = Table::default();
    for circuit in &w.supremacy {
        let exact = if skip_exact {
            None
        } else {
            table.take(&mut results, &format!("exact {}", circuit.name()))
        };
        for &f_round in w.f_rounds {
            let what = format!("{} at f_round {f_round}", circuit.name());
            if let Some(approx) = table.take(&mut results, &what) {
                table.row(circuit, exact.as_ref(), f_round, &approx, false);
            }
        }
    }
    for (&(n, a), circuit) in w.shor.iter().zip(&shor) {
        let exact = if shor_exact(n) {
            table.take(&mut results, &format!("exact {}", circuit.name()))
        } else {
            None
        };
        let opts = FactorOptions {
            strategy: Strategy::FidelityDriven {
                final_fidelity: 0.5,
                round_fidelity: 0.9,
            },
            base: Some(a),
            ..FactorOptions::default()
        };
        match factor(n, &opts) {
            Ok(out) => match out.sim_stats {
                Some(stats) => table.row(circuit, exact.as_ref(), 0.9, &stats.into(), true),
                None => table.failures.push(format!(
                    "{}: factored without a quantum run",
                    circuit.name()
                )),
            },
            Err(e) => table.failures.push(format!("{}: {e}", circuit.name())),
        }
    }
    println!("\n(Exact columns '-' reproduce the paper's Timeout entries / --skip-exact.)");

    for failure in &table.failures {
        eprintln!("FAILED {failure}");
    }
    Ok(if table.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
