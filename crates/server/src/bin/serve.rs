//! `serve` — run the approxdd job server from the command line.
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--seed N] [--queue N]
//!       [--sessions N] [--runners N] [--retry N]
//!       [--quota-burst F --quota-refill F] [--addr-file PATH]
//! ```
//!
//! Binds (port 0 picks an ephemeral port), prints the listening
//! address, optionally writes it to `--addr-file` (how the CI smoke
//! test discovers the port), and serves until `POST /shutdown`.

use std::io::Write;
use std::process::ExitCode;

use approxdd_server::{JobServer, Quota, ServerConfig};
use approxdd_sim::{RetryPolicy, Simulator};

struct Args {
    addr: String,
    config: ServerConfig,
    addr_file: Option<String>,
}

/// Folds the flags straight into the configuration they set: the
/// serving defaults are [`ServerConfig`]'s and the simulator's are the
/// builder's, stated there and not again here. Only the root seed has
/// a default of its own (0).
fn parse_args() -> Result<Args, String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut addr_file = None;
    let mut template = Simulator::builder().seed(0);
    let mut config = ServerConfig::new();
    let (mut quota_burst, mut quota_refill) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = value(&mut it, &flag)?,
            "--workers" => template = template.workers(value(&mut it, &flag)?),
            "--seed" => template = template.seed(value(&mut it, &flag)?),
            "--queue" => config = config.queue_capacity(value(&mut it, &flag)?),
            "--sessions" => config = config.sessions(value(&mut it, &flag)?),
            "--runners" => config = config.runners(value(&mut it, &flag)?),
            "--retry" => template = template.retry(RetryPolicy::new(value(&mut it, &flag)?)),
            "--quota-burst" => quota_burst = Some(value(&mut it, &flag)?),
            "--quota-refill" => quota_refill = Some(value(&mut it, &flag)?),
            "--addr-file" => addr_file = Some(value(&mut it, &flag)?),
            "--help" | "-h" => {
                return Err("usage: serve [--addr HOST:PORT] [--workers N] [--seed N] \
                     [--queue N] [--sessions N] [--runners N] [--retry N] \
                     [--quota-burst F --quota-refill F] [--addr-file PATH]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    match (quota_burst, quota_refill) {
        (Some(burst), Some(refill_per_sec)) => {
            config = config.quota(Quota {
                burst: positive(burst, "--quota-burst")?,
                refill_per_sec: positive(refill_per_sec, "--quota-refill")?,
            });
        }
        (None, None) => {}
        _ => return Err("--quota-burst and --quota-refill must be given together".to_string()),
    }
    Ok(Args {
        addr,
        config: config.template(template),
        addr_file,
    })
}

/// The argument after `flag`, parsed as the type its use expects.
fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let raw = it
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    raw.parse()
        .map_err(|_| format!("bad value for {flag}: {raw:?}"))
}

/// `x` when it is finite and above 0: a bucket that never fills or
/// never refills is a typo, not a quota.
fn positive(x: f64, flag: &str) -> Result<f64, String> {
    if x.is_finite() && x > 0.0 {
        Ok(x)
    } else {
        Err(format!("{flag} must be a finite number above 0, got {x}"))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let server = match JobServer::bind(&args.addr, args.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("failed to bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    println!("serve listening on http://{addr}");
    let _ = std::io::stdout().flush();
    if let Some(path) = &args.addr_file {
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    match server.run() {
        Ok(()) => {
            println!("serve drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("server error: {e}");
            ExitCode::FAILURE
        }
    }
}
