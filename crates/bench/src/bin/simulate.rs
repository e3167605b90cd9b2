//! Command-line simulator: run an OpenQASM 2 file (or a named generator)
//! under a chosen approximation strategy and report statistics and
//! measurement samples.
//!
//! ```text
//! simulate --qasm circuit.qasm [options]
//! simulate --generate ghz:20 [options]
//! simulate --generate supremacy:4x4x12 [options]
//!
//! options:
//!   --strategy exact | memory:<threshold>,<fround>[,<growth>]
//!              | fidelity:<ffinal>,<fround>
//!   --shots N          measurement samples to draw (default 16)
//!   --seed S           RNG seed (default 1)
//!   --workers N        shard sampling across a pool of N workers
//!                      (deterministic: same counts for any N)
//!   --dot              print the final state as Graphviz DOT
//!                      (single-threaded mode only)
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use approxdd_circuit::{generators, qasm, Circuit};
use approxdd_exec::{BuildPool, PoolJob};
use approxdd_sim::{Simulator, Strategy};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let circuit = load_circuit(&args)?;
    let strategy = parse_strategy(value(&args, "--strategy").as_deref().unwrap_or("exact"))?;
    let shots: usize = value(&args, "--shots")
        .map(|v| v.parse().map_err(|_| "bad --shots"))
        .transpose()?
        .unwrap_or(16);
    let seed: u64 = value(&args, "--seed")
        .map(|v| v.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(1);
    let workers = approxdd_bench::workers_flag(&args)?;
    let dot = args.iter().any(|a| a == "--dot");
    if dot && workers.is_some() {
        return Err("--dot needs the single-threaded mode (drop --workers)".into());
    }

    println!(
        "circuit: {} ({} qubits, {} gates)",
        circuit.name(),
        circuit.n_qubits(),
        circuit.gate_count()
    );

    if let Some(workers) = workers {
        return run_pooled(&circuit, strategy, shots, seed, workers);
    }

    let mut sim = Simulator::builder().strategy(strategy).seed(seed).build();
    let run = sim.run(&circuit).map_err(|e| e.to_string())?;

    println!("runtime        : {:?}", run.stats.runtime);
    println!("max DD size    : {} nodes", run.stats.max_dd_size);
    println!(
        "final DD size  : {} nodes",
        sim.package().vsize(run.state())
    );
    println!("policy         : {}", run.stats.policy);
    println!("approx rounds  : {}", run.stats.approx_rounds);
    println!("f_final        : {:.6}", run.stats.fidelity);
    println!("f_lower_bound  : {:.6}", run.stats.fidelity_lower_bound);

    if shots > 0 {
        print_counts(&circuit, shots, sim.draw_counts(&run, shots));
    }

    if dot {
        println!("\n{}", sim.package().to_dot(run.state()));
    }
    Ok(())
}

/// The pooled path: the run itself executes as one pool job and the
/// shot budget is sharded across the workers in deterministic chunks
/// (same counts for any worker count, by the pool's seed-stream
/// contract).
fn run_pooled(
    circuit: &Circuit,
    strategy: Strategy,
    shots: usize,
    seed: u64,
    workers: usize,
) -> Result<(), String> {
    let pool = Simulator::builder()
        .seed(seed)
        .workers(workers)
        .build_pool();
    println!("pool           : {} workers", pool.workers());

    // A shot budget that fits one sampling chunk rides along with the
    // run job (one simulation total); larger budgets shard across the
    // workers, which re-run the circuit once per worker to amortize.
    let job_shots = if shots <= approxdd_exec::SHOT_CHUNK {
        shots
    } else {
        0
    };
    let outcome = pool
        .run_jobs(vec![PoolJob::new(circuit.clone())
            .strategy(strategy)
            .shots(job_shots)])
        .pop()
        .expect("one job in, one result out")
        .map_err(|e| e.to_string())?;

    println!("runtime        : {:?}", outcome.stats.runtime);
    println!("max DD size    : {} nodes", outcome.stats.peak_size);
    println!("final DD size  : {} nodes", outcome.final_size);
    println!("policy         : {}", outcome.stats.policy);
    println!("approx rounds  : {}", outcome.stats.approx_rounds);
    println!("f_final        : {:.6}", outcome.stats.fidelity);
    println!("f_lower_bound  : {:.6}", outcome.stats.fidelity_lower_bound);

    if let Some(counts) = outcome.counts {
        print_counts(circuit, shots, counts);
    } else if shots > 0 {
        let counts = pool
            .sample_counts_streamed(circuit, Some(strategy), shots, &mut |_| {})
            .map_err(|e| e.to_string())?;
        print_counts(circuit, shots, counts);
    }
    Ok(())
}

fn print_counts(circuit: &Circuit, shots: usize, counts: HashMap<u64, usize>) {
    let mut entries: Vec<(u64, usize)> = counts.into_iter().collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("\ntop samples ({shots} shots):");
    let n = circuit.n_qubits();
    for (outcome, count) in entries.iter().take(10) {
        println!("  |{outcome:0n$b}> : {count}");
    }
}

fn load_circuit(args: &[String]) -> Result<Circuit, String> {
    if let Some(path) = value(args, "--qasm") {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        return qasm::from_qasm(&src).map_err(|e| e.to_string());
    }
    if let Some(spec) = value(args, "--generate") {
        return generate(&spec);
    }
    Err("pass --qasm <file> or --generate <spec> (e.g. ghz:12, qft:10, grover:8, supremacy:4x4x12, random:8x20)".into())
}

fn generate(spec: &str) -> Result<Circuit, String> {
    let (kind, param) = spec.split_once(':').unwrap_or((spec, ""));
    let nums: Vec<usize> = param
        .split(['x', ','])
        .filter_map(|t| t.parse().ok())
        .collect();
    match (kind, nums.as_slice()) {
        ("ghz", [n]) => Ok(generators::ghz(*n)),
        ("w", [n]) => Ok(generators::w_state(*n)),
        ("qft", [n]) => Ok(generators::qft(*n)),
        ("grover", [n]) => Ok(generators::grover(*n, (1 << (n - 1)) | 1, None)),
        ("bv", [n]) => Ok(generators::bernstein_vazirani(*n, 0xB & ((1 << n) - 1))),
        ("supremacy", [r, c, d]) => Ok(generators::supremacy(*r, *c, *d, 0)),
        ("random", [n, d]) => Ok(generators::random_circuit(*n, *d, 0)),
        ("shor", [n, a]) => {
            approxdd_shor::shor_circuit(*n as u64, *a as u64).map_err(|e| e.to_string())
        }
        _ => Err(format!("unknown generator spec '{spec}'")),
    }
}

fn parse_strategy(s: &str) -> Result<Strategy, String> {
    if s == "exact" {
        return Ok(Strategy::Exact);
    }
    let (kind, params) = s
        .split_once(':')
        .ok_or_else(|| format!("bad strategy '{s}'"))?;
    let nums: Vec<f64> = params
        .split(',')
        .map(|t| t.parse().map_err(|_| format!("bad number in '{s}'")))
        .collect::<Result<_, _>>()?;
    match (kind, nums.as_slice()) {
        ("memory", [t, f]) => Ok(Strategy::MemoryDriven {
            node_threshold: *t as usize,
            round_fidelity: *f,
            threshold_growth: 2.0,
        }),
        ("memory", [t, f, g]) => Ok(Strategy::MemoryDriven {
            node_threshold: *t as usize,
            round_fidelity: *f,
            threshold_growth: *g,
        }),
        ("fidelity", [ff, fr]) => Ok(Strategy::FidelityDriven {
            final_fidelity: *ff,
            round_fidelity: *fr,
        }),
        _ => Err(format!("bad strategy '{s}'")),
    }
}

fn value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}
