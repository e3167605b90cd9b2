//! The machine and its load, read from `/proc`, so a loud run is
//! recognisable from its own output. Every reader degrades to a
//! neutral value off Linux instead of failing the benchmark.

use std::fs;

use approxdd::sim::json::Json;

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model string of the first core (`"unknown"` when absent).
#[must_use]
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The 1-minute load average.
#[must_use]
pub fn loadavg() -> f64 {
    first_number(&fs::read_to_string("/proc/loadavg").unwrap_or_default())
}

/// Share of the last 10 s in which some task waited for a CPU
/// (`some avg10` of `/proc/pressure/cpu`, as a ratio).
#[must_use]
pub fn cpu_pressure_avg10() -> f64 {
    fs::read_to_string("/proc/pressure/cpu")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("some"))
                .and_then(|l| l.split_once("avg10="))
                .map(|(_, rest)| first_number(rest) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Cumulative `(steal, total)` jiffies of the aggregate `cpu` line of
/// `/proc/stat`.
#[must_use]
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so the total stops at steal.
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in KiB.
#[must_use]
pub fn status_kib(field: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| first_number(v) as u64)
        })
        .unwrap_or(0)
}

fn first_number(text: &str) -> f64 {
    text.split_whitespace()
        .next()
        .and_then(|t| t.parse().ok())
        .unwrap_or(0.0)
}

/// Load readings taken when a run starts; [`EnvStart::finish`] turns
/// them into the `env` record of the output.
#[derive(Debug)]
pub struct EnvStart {
    started: std::time::Instant,
    loadavg: f64,
    jiffies: (u64, u64),
}

impl EnvStart {
    /// Reads the start-of-run values.
    #[must_use]
    pub fn now() -> Self {
        Self {
            started: std::time::Instant::now(),
            loadavg: loadavg(),
            jiffies: cpu_jiffies(),
        }
    }

    /// The environment record: machine shape, load at both ends, the
    /// share of CPU time the hypervisor stole during the run, and the
    /// wall-clock span the run's samples cover.
    #[must_use]
    pub fn finish(&self) -> Json {
        let (steal, total) = cpu_jiffies();
        let d_total = total.saturating_sub(self.jiffies.1);
        let steal_share = if d_total == 0 {
            0.0
        } else {
            steal.saturating_sub(self.jiffies.0) as f64 / d_total as f64
        };
        Json::obj([
            ("nproc", Json::int(nproc())),
            ("cpu_model", Json::str(cpu_model())),
            ("loadavg_start", Json::Num(self.loadavg)),
            ("loadavg_end", Json::Num(loadavg())),
            ("cpu_pressure_avg10", Json::Num(cpu_pressure_avg10())),
            ("steal_share", Json::Num(steal_share)),
            ("span_s", Json::Num(self.started.elapsed().as_secs_f64())),
        ])
    }
}
