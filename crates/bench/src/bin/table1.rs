//! Regenerates Table I of the paper.
//!
//! ```text
//! table1 [--part memory|fidelity|all] [--large] [--skip-exact]
//!        [--workers N] [--smoke] [--json PATH]
//! ```
//!
//! * `--part` selects the memory-driven (supremacy) or fidelity-driven
//!   (Shor) half; default `all`.
//! * `--large` switches to the paper-scale instances (4×5 depth-15
//!   supremacy grids; shor_323_8 / shor_629_8 / shor_1157_8). Expect
//!   long exact runtimes — combine with `--skip-exact` to reproduce
//!   the paper's "Timeout" rows.
//! * `--skip-exact` omits the non-approximating reference runs.
//! * `--workers N` sizes the `BackendPool` the rows run on (default:
//!   the machine's available parallelism). Both halves use it: the
//!   memory-driven rows run entirely on the pool; the Shor half pools
//!   its exact reference runs (factoring itself stays serial).
//! * `--smoke` caps instances to a CI-sized workload (<60 s) and emits
//!   JSON (to `--json`, default `table1_smoke.json`). Exits non-zero
//!   if any row fails — CI runs exactly this.
//! * `--json PATH` writes the rows as JSON.
//!
//! The memory-driven rows run with a fixed threshold
//! (`threshold_growth = 1.0`): the paper's text prescribes doubling,
//! but its reported round counts (~50–90) require the fixed-threshold
//! regime — see the rustdoc of `Strategy::memory_driven_table1`.

use std::process::ExitCode;
use std::time::Instant;

use approxdd_bench::{
    fidelity_driven_row, format_rows, memory_driven_rows_pooled, workloads, TableRow,
};
use approxdd_exec::PoolJob;
use approxdd_sim::json::Json;
use approxdd_sim::{Simulator, Strategy};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let part = arg_value(&args, "--part").unwrap_or_else(|| "all".to_string());
    let large = args.iter().any(|a| a == "--large");
    let smoke = args.iter().any(|a| a == "--smoke");
    let skip_exact = args.iter().any(|a| a == "--skip-exact");
    let json_path =
        arg_value(&args, "--json").or_else(|| smoke.then(|| "table1_smoke.json".to_string()));

    let pool = match approxdd_bench::pool_from_args(&args, Simulator::builder()) {
        Ok(pool) => pool,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("pool: {} workers", pool.workers());

    let mut rows: Vec<TableRow> = Vec::new();
    let mut failures = 0usize;
    let start = Instant::now();

    if part == "memory" || part == "all" {
        println!("== Memory-driven approximation (quantum-supremacy circuits) ==");
        let circuits = if smoke {
            workloads::supremacy_smoke()
        } else if large {
            workloads::supremacy_large()
        } else {
            workloads::supremacy_default()
        };
        let threshold = if smoke {
            1 << 8
        } else if large {
            1 << 15
        } else {
            workloads::SUPREMACY_THRESHOLD
        };
        let f_rounds: &[f64] = if smoke {
            &[0.99, 0.95]
        } else {
            &workloads::SUPREMACY_ROUND_FIDELITIES
        };
        let results =
            memory_driven_rows_pooled(&pool, &circuits, threshold, f_rounds, 1.0, skip_exact);
        for (i, result) in results.into_iter().enumerate() {
            let (circuit, f_round) = (&circuits[i / f_rounds.len()], f_rounds[i % f_rounds.len()]);
            match result {
                Ok(row) => {
                    eprintln!(
                        "  done: {} fround={f_round} ({} rounds, ffinal {:.3})",
                        row.name, row.rounds, row.f_final
                    );
                    rows.push(row);
                }
                Err(e) => {
                    failures += 1;
                    eprintln!("  FAILED {} fround={f_round}: {e}", circuit.name());
                }
            }
        }
    }

    if part == "fidelity" || part == "all" {
        println!("== Fidelity-driven approximation (Shor, target ffinal = 0.5) ==");
        let instances: Vec<(u64, u64)> = if smoke {
            workloads::SHOR_SMOKE.to_vec()
        } else {
            let mut v = workloads::SHOR_DEFAULT.to_vec();
            if large {
                v.extend_from_slice(&workloads::SHOR_LARGE);
            }
            v
        };
        // The exact reference runs — the expensive part of this half —
        // execute on the pool; the approximate run plus classical
        // post-processing stays serial per row (factor() owns its own
        // simulation). The paper's exact runs of the two largest
        // instances timed out; skip exact there unless the user insists.
        let mut jobs = Vec::new();
        let mut job_instance = Vec::new();
        for (i, &(n, a)) in instances.iter().enumerate() {
            if skip_exact || (large && n >= 629) {
                continue;
            }
            match approxdd_shor::shor_circuit(n, a) {
                Ok(circuit) => {
                    jobs.push(PoolJob::new(circuit).strategy(Strategy::Exact));
                    job_instance.push(i);
                }
                Err(e) => eprintln!("  exact ref skipped for shor_{n}_{a}: {e}"),
            }
        }
        let mut exact_refs: Vec<Option<(usize, std::time::Duration)>> = vec![None; instances.len()];
        for (j, result) in pool.run_jobs(jobs).into_iter().enumerate() {
            let (n, a) = instances[job_instance[j]];
            match result {
                Ok(o) => exact_refs[job_instance[j]] = Some((o.stats.peak_size, o.stats.runtime)),
                Err(e) => {
                    failures += 1;
                    eprintln!("  FAILED exact ref shor_{n}_{a}: {e}");
                }
            }
        }
        for (i, &(n, a)) in instances.iter().enumerate() {
            match fidelity_driven_row(n, a, 0.5, 0.9, true) {
                Ok(mut row) => {
                    if let Some((max_dd, runtime)) = exact_refs[i] {
                        row.exact_max_dd = Some(max_dd);
                        row.exact_runtime = Some(runtime);
                    }
                    eprintln!(
                        "  done: {} ({} rounds, ffinal {:.3}, factored: {:?})",
                        row.name, row.rounds, row.f_final, row.factored
                    );
                    rows.push(row);
                }
                Err(e) => {
                    failures += 1;
                    eprintln!("  FAILED shor_{n}_{a}: {e}");
                }
            }
        }
    }

    println!();
    println!("{}", format_rows(&rows));
    println!("(Exact columns '-' reproduce the paper's Timeout entries / --skip-exact.)");

    if let Some(path) = json_path {
        let report = vec![
            (
                "mode".to_string(),
                Json::str(if smoke { "smoke" } else { "full" }),
            ),
            ("workers".to_string(), Json::int(pool.workers())),
            (
                "wall_seconds".to_string(),
                Json::Num(start.elapsed().as_secs_f64()),
            ),
            ("failures".to_string(), Json::int(failures)),
            (
                "rows".to_string(),
                Json::Arr(rows.iter().map(TableRow::to_json).collect()),
            ),
        ];
        let text = Json::Obj(report).to_string();
        match std::fs::write(&path, text) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                failures += 1;
                eprintln!("FAILED writing {path}: {e}");
            }
        }
    }

    if smoke && failures > 0 {
        eprintln!("smoke run had {failures} failure(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}
