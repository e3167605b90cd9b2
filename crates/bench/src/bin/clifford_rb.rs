//! Clifford randomized-benchmarking scaling: stabilizer vs hybrid vs
//! DD wall time and peak state size on random Clifford circuits.
//!
//! ```text
//! clifford_rb [--smoke] [--json PATH] [--depth N] [--shots N]
//! ```
//!
//! Each row runs one `(width, engine)` cell: a random Clifford circuit
//! of `depth` layers through a single-threaded backend built via the
//! `engine` knob, reporting wall time, peak state size (DD nodes or
//! tableau words — the column that shows the polynomial/exponential
//! split), gate count and a histogram fingerprint over sampled shots.
//!
//! The tableau engines run every width; the DD engine is capped
//! (random Clifford states drive the DD to its `2^n − 1` node ceiling,
//! which is the comparison the paper's approximation story starts
//! from).
//!
//! * `--smoke` caps the workload for CI (< 30 s), emits JSON (default
//!   `clifford_rb.json`), and exits non-zero if any cell fails.
//! * `--json PATH` writes the rows as JSON.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::time::Instant;

use approxdd_circuit::generators;
use approxdd_exec::backend::{AnyBackend, Backend, BuildBackend};
use approxdd_sim::json::Json;
use approxdd_sim::{Engine, Simulator};

/// Widths exercised by the sweep (the ISSUE's RB ladder).
const WIDTHS: [usize; 4] = [8, 16, 24, 32];

/// Widest register the DD engine is asked to handle: beyond this a
/// random Clifford state's node count is exponential and the cell
/// would dominate the whole sweep.
const DD_CAP_SMOKE: usize = 16;
const DD_CAP_FULL: usize = 20;

struct Row {
    engine: Engine,
    width: usize,
}

fn counts_fingerprint(counts: &HashMap<u64, usize>) -> u64 {
    let mut entries: Vec<(u64, usize)> = counts.iter().map(|(k, v)| (*k, *v)).collect();
    entries.sort_unstable();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    entries.hash(&mut h);
    h.finish()
}

fn run_cell(row: &Row, depth: usize, shots: usize) -> Result<Json, String> {
    let circuit = generators::random_clifford(row.width, depth, 42);
    let mut backend: AnyBackend = Simulator::builder()
        .engine(row.engine)
        .seed(7)
        .build_backend();
    let start = Instant::now();
    let exe = backend.prepare(&circuit).map_err(|e| e.to_string())?;
    let outcome = backend.run(&exe).map_err(|e| e.to_string())?;
    let run_secs = start.elapsed().as_secs_f64();
    let counts = backend.sample_counts(&outcome, shots);
    let stats = outcome.stats.clone();
    let final_size = backend.final_size(&outcome);
    backend.release(outcome);
    Ok(Json::obj([
        ("engine", Json::str(row.engine.name())),
        ("width", Json::int(row.width)),
        ("depth", Json::int(depth)),
        ("circuit", Json::str(circuit.name())),
        ("gates", Json::int(stats.gates_applied)),
        ("clifford_prefix_len", Json::int(stats.clifford_prefix_len)),
        ("peak_size", Json::int(stats.peak_size)),
        ("final_size", Json::int(final_size)),
        ("shots", Json::int(shots)),
        (
            "counts_fingerprint",
            Json::str(format!("{:016x}", counts_fingerprint(&counts))),
        ),
        ("wall_seconds", Json::Num(run_secs)),
    ]))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path =
        arg_value(&args, "--json").or_else(|| smoke.then(|| "clifford_rb.json".to_string()));
    let depth: usize = arg_value(&args, "--depth")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 16 } else { 48 });
    let shots: usize = arg_value(&args, "--shots")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 256 } else { 1024 });
    let dd_cap = if smoke { DD_CAP_SMOKE } else { DD_CAP_FULL };

    let mut cells = Vec::new();
    for &width in &WIDTHS {
        cells.push(Row {
            engine: Engine::Stabilizer,
            width,
        });
        cells.push(Row {
            engine: Engine::Hybrid,
            width,
        });
        if width <= dd_cap {
            cells.push(Row {
                engine: Engine::Dd,
                width,
            });
        }
    }

    println!(
        "{:<12} {:>6} {:>6} {:>7} {:>10} {:>10} {:>12}",
        "engine", "width", "depth", "gates", "peak", "final", "wall_s"
    );
    let start = Instant::now();
    let mut rows = Vec::new();
    let mut failures = 0usize;
    for cell in &cells {
        match run_cell(cell, depth, shots) {
            Ok(row) => {
                if let Json::Obj(pairs) = &row {
                    let get = |key: &str| {
                        pairs
                            .iter()
                            .find(|(k, _)| k == key)
                            .map_or(String::from("?"), |(_, v)| v.to_string())
                    };
                    println!(
                        "{:<12} {:>6} {:>6} {:>7} {:>10} {:>10} {:>12}",
                        cell.engine.name(),
                        cell.width,
                        depth,
                        get("gates"),
                        get("peak_size"),
                        get("final_size"),
                        get("wall_seconds"),
                    );
                }
                rows.push(row);
            }
            Err(e) => {
                failures += 1;
                eprintln!(
                    "  FAILED engine={} width={}: {e}",
                    cell.engine.name(),
                    cell.width
                );
            }
        }
    }

    if let Some(path) = json_path {
        let report = Json::obj([
            ("mode", Json::str(if smoke { "smoke" } else { "full" })),
            ("depth", Json::int(depth)),
            ("shots", Json::int(shots)),
            ("dd_width_cap", Json::int(dd_cap)),
            ("wall_seconds", Json::Num(start.elapsed().as_secs_f64())),
            ("failures", Json::int(failures)),
            ("rows", Json::Arr(rows)),
        ]);
        match std::fs::write(&path, report.to_string()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                failures += 1;
                eprintln!("FAILED writing {path}: {e}");
            }
        }
    }

    if failures > 0 {
        eprintln!("sweep had {failures} failure(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}
