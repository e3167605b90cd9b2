//! Command line of the repo benchmark. See `README.md`.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use approxdd_benchmark::env::EnvStart;
use approxdd_benchmark::run::{self, RunConfig};
use approxdd_benchmark::slice::SliceConfig;
use approxdd_benchmark::spec::{self, Workload};
use approxdd_benchmark::workloads;

const USAGE: &str = "\
usage: approxdd-benchmark [--workload NAME] [--seed N] [--seconds T] [--trace 0|1]
                          [--smoke] [--repeat N]

  --workload NAME  run one workload and print the contract's result object as
                   the last line (without it: all four, interleaved round by
                   round for 8 rounds, one JSON document)
  --seed N         chooses the order of the instances and the sampling seeds
                   (default 1)
  --seconds T      with --workload: one round (a fixed-count slice in a fresh
                   process, about 6 s) per 6 s of T (default 30: 5 rounds)
  --trace 1        odd rounds trace: print the per-layer metrics instead of
                   the end-to-end ones and write benchmark/out/trace.ndjson
  --smoke          one round only (all four workloads: about 20 s)
  --repeat N       N interleaved runs; prints each metric's largest pairwise
                   deviation, fails when one exceeds its bound";

struct Args {
    slice: bool,
    workload: Option<Workload>,
    seed: u64,
    seconds: u32,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    fn number<T: std::str::FromStr>(flag: &str, raw: Option<String>) -> Result<T, String> {
        let raw = raw.ok_or_else(|| format!("{flag} requires a value"))?;
        raw.parse()
            .map_err(|_| format!("bad value for {flag}: {raw:?}"))
    }
    let mut args = Args {
        slice: false,
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        smoke: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--slice" => args.slice = true,
            "--smoke" => args.smoke = true,
            "--workload" => {
                let name = it.next().ok_or("--workload requires a value")?;
                args.workload = Some(Workload::from_name(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => args.seed = number("--seed", it.next())?,
            "--seconds" => args.seconds = number("--seconds", it.next())?,
            "--repeat" => args.repeat = Some(number("--repeat", it.next())?),
            "--trace" => args.trace = number::<u8>("--trace", it.next())? != 0,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.repeat == Some(0) {
        return Err("--repeat must be at least 1".to_string());
    }
    if args.repeat.is_some() && args.trace {
        return Err("--repeat compares end-to-end metrics; drop --trace 1".to_string());
    }
    Ok(args)
}

fn run_config(args: &Args) -> RunConfig {
    let rounds = match args.workload {
        _ if args.smoke => 1,
        Some(_) => (args.seconds / spec::SLICE_SECONDS) as usize,
        None => spec::INTERLEAVED_ROUNDS,
    };
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    // Always one slice; with tracing a plain and a traced one, for the
    // overhead.
    let least = if args.trace { 2 } else { 1 };
    RunConfig {
        workloads,
        seed: args.seed,
        rounds: rounds.max(least),
        trace: args.trace,
    }
}

fn write_trace(ndjson: &str) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join("trace.ndjson");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, ndjson))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))
}

fn measure(args: &Args) -> Result<bool, String> {
    let config = run_config(args);
    if let Some(repeats) = args.repeat {
        let mut runs = Vec::with_capacity(repeats);
        for n in 0..repeats {
            let env = EnvStart::now();
            let (results, _) = run::run(&config)?;
            println!("{}", run::document_json(&config, env.finish(), &results));
            eprintln!("run {} of {repeats} done", n + 1);
            runs.push(results);
        }
        let (table, within) = run::repeat_table(&runs);
        println!("{table}");
        return Ok(within && runs.iter().flatten().all(|r| r.correct));
    }

    let env = EnvStart::now();
    let (results, ndjson) = run::run(&config)?;
    if config.trace {
        write_trace(&ndjson)?;
    }
    if args.workload.is_some() {
        // The contract's shape: the result object alone on the last
        // line; the environment and the item times go on the line before.
        let info = approxdd::sim::json::Json::obj([
            ("env", env.finish()),
            ("rounds", approxdd::sim::json::Json::int(config.rounds)),
            ("timing", run::timing_json(&results[0])),
        ]);
        println!("{info}");
        println!("{}", run::result_json(&results[0]));
    } else {
        println!("{}", run::document_json(&config, env.finish(), &results));
    }
    Ok(true)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if args.slice {
        let Some(workload) = args.workload else {
            eprintln!("--slice requires --workload");
            return ExitCode::from(2);
        };
        let config = SliceConfig {
            workload,
            seed: args.seed,
            traced: args.trace,
        };
        print!("{}", workloads::run_slice(config, origin).encode());
        return ExitCode::SUCCESS;
    }
    match measure(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark failed: {message}");
            ExitCode::FAILURE
        }
    }
}
