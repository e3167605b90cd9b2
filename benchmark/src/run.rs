//! The parent side of a run: schedules slices round by round, each in a
//! fresh child process of this binary, folds the slice reports into
//! the metrics of [`crate::spec`], and renders the output.
//!
//! In each round every selected workload runs one slice, so with
//! several workloads each one's samples are spread over the whole run
//! instead of one contiguous window — on a shared machine whose speed
//! drifts over tens of seconds, the span the samples cover is what
//! makes two runs agree (README, "Noise").

use std::process::{Command, Stdio};

use approxdd::sim::json::Json;

use crate::slice::{SliceConfig, SliceReport};
use crate::spec::{
    Combine, Workload, END_TO_END, ITEMS_PER_S, ITEM_P50, ITEM_TAIL, PER_LAYER, TRACE_OVERHEAD,
};
use crate::stats;
use crate::trace;

/// What one invocation measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// Workloads, in schedule order.
    pub workloads: Vec<Workload>,
    /// The `--seed`.
    pub seed: u64,
    /// Rounds (= slices per workload).
    pub rounds: usize,
    /// Whether odd rounds trace (`--trace 1`). Even rounds always run
    /// plain, so one run yields the traced-versus-plain overhead.
    pub trace: bool,
}

/// One workload's folded result.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Whether every check held and the exact metrics agreed across
    /// the workload's slices.
    pub correct: bool,
    /// Items run (timed items of every slice).
    pub attempted: u64,
    /// Items with a failed check.
    pub failed: u64,
    /// Item times of the plain slices.
    pub timing: Timing,
    /// `(name, unit, value)` of every end-to-end metric (plain runs) or
    /// every per-layer metric (`--trace 1` runs), in [`crate::spec`]
    /// order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

/// What the plain slices' items say about time. Reported with every
/// run; a `--trace 1` run also lists the three values as metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Timed items of the plain slices: the sample behind the rest.
    pub items: usize,
    /// `item_s_p50`: their median wall time, seconds.
    pub p50_s: f64,
    /// `item_s_tail`: the workload's fixed tail percentile, seconds.
    pub tail_s: f64,
    /// `items_per_s`: items ÷ Σ wall time of the slices' timed loops.
    pub per_s: f64,
}

/// Runs one slice in a child process and parses its report.
fn run_child(config: SliceConfig) -> Result<SliceReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .arg("--slice")
        .args(["--workload", config.workload.name()])
        .args(["--seed", &config.seed.to_string()])
        .args(["--trace", if config.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start slice process: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "slice process of {} ended with {}",
            config.workload.name(),
            output.status
        ));
    }
    SliceReport::parse(&String::from_utf8_lossy(&output.stdout))
}

/// Runs every slice of `config`. Returns the per-workload results and
/// the spans of the traced slices as NDJSON.
///
/// # Errors
///
/// A slice process that cannot start, dies, or reports garbage.
pub fn run(config: &RunConfig) -> Result<(Vec<WorkloadResult>, String), String> {
    let mut reports: Vec<Vec<(bool, SliceReport)>> = vec![Vec::new(); config.workloads.len()];
    for round in 0..config.rounds {
        for (w, &workload) in config.workloads.iter().enumerate() {
            let traced = config.trace && round % 2 == 1;
            let report = run_child(SliceConfig {
                workload,
                seed: config.seed,
                traced,
            })?;
            reports[w].push((traced, report));
        }
    }

    let mut ndjson = String::new();
    let mut span_base = 0;
    let mut results = Vec::new();
    for (&workload, slices) in config.workloads.iter().zip(&reports) {
        for (round, (_, report)) in slices.iter().enumerate() {
            ndjson.push_str(&trace::to_ndjson(
                workload.name(),
                round,
                span_base,
                &report.spans,
            ));
            span_base += report.spans.len();
        }
        results.push(fold(workload, slices, config.trace));
    }
    Ok((results, ndjson))
}

/// Folds one workload's slices into its result.
#[must_use]
pub fn fold(workload: Workload, slices: &[(bool, SliceReport)], trace: bool) -> WorkloadResult {
    let first = &slices[0].1;
    let exact_agrees = slices.iter().all(|(_, r)| r.exact == first.exact);
    let attempted: u64 = slices.iter().map(|(_, r)| r.items.len() as u64).sum();
    let failed: u64 = slices.iter().map(|(_, r)| r.failed).sum();
    let seconds_of = |traced: bool| -> Vec<f64> {
        slices
            .iter()
            .filter(|(t, _)| *t == traced)
            .flat_map(|(_, r)| r.items.iter().map(|i| i.seconds))
            .collect()
    };
    let plain = stats::sorted(&seconds_of(false));
    let plain_loops: f64 = slices
        .iter()
        .filter(|(traced, _)| !traced)
        .map(|(_, r)| r.loop_s)
        .sum();
    let timing = if plain.is_empty() {
        Timing {
            items: 0,
            p50_s: 0.0,
            tail_s: 0.0,
            per_s: 0.0,
        }
    } else {
        Timing {
            items: plain.len(),
            p50_s: stats::percentile(&plain, 50.0),
            tail_s: stats::percentile(&plain, workload.tail_percentile()),
            per_s: plain.len() as f64 / plain_loops,
        }
    };
    let metrics = if trace {
        per_layer(slices, &timing, &seconds_of(true))
    } else {
        end_to_end(workload, slices)
    };
    WorkloadResult {
        workload,
        correct: exact_agrees && failed == 0 && timing.items > 0,
        attempted,
        failed,
        timing,
        metrics,
    }
}

fn end_to_end(
    workload: Workload,
    slices: &[(bool, SliceReport)],
) -> Vec<(&'static str, &'static str, f64)> {
    let setups: Vec<f64> = slices.iter().map(|(_, r)| r.setup_s).collect();
    let rss_kib = slices
        .iter()
        .map(|(_, r)| r.rss_peak_kib)
        .max()
        .unwrap_or(0);
    let exact = slices[0].1.exact;
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "setup_s" => stats::median(&setups),
                "peak_rss_mib" => rss_kib as f64 / 1024.0,
                "peak_nodes" => exact.peak_nodes as f64,
                "dd_ops_per_item" => exact.dd_ops as f64 / workload.slice_items() as f64,
                "fidelity_min" => exact.fidelity_min,
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            (m.name, m.unit, value)
        })
        .collect()
}

fn per_layer(
    slices: &[(bool, SliceReport)],
    timing: &Timing,
    traced_seconds: &[f64],
) -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|m| {
            if m.combine == Combine::FromItems {
                let value = match m.name {
                    ITEM_P50 => timing.p50_s,
                    ITEMS_PER_S => timing.per_s,
                    ITEM_TAIL => timing.tail_s,
                    TRACE_OVERHEAD if timing.items == 0 || traced_seconds.is_empty() => 0.0,
                    TRACE_OVERHEAD => {
                        let traced = stats::sorted(traced_seconds);
                        stats::percentile(&traced, 50.0) / timing.p50_s - 1.0
                    }
                    other => unreachable!("parent-side metric {other} has no definition"),
                };
                return (m.name, m.unit, value);
            }
            let records: Vec<(f64, f64)> = slices
                .iter()
                .flat_map(|(_, r)| r.layer.iter())
                .filter(|(name, _, _)| name == m.name)
                .map(|(_, a, b)| (*a, *b))
                .collect();
            let firsts = || records.iter().map(|(a, _)| *a);
            // A layer that is not on this workload's path recorded
            // nothing and reads 0.
            let value = match m.combine {
                _ if records.is_empty() => 0.0,
                Combine::Median => stats::median(&firsts().collect::<Vec<_>>()),
                Combine::Max => firsts().fold(f64::MIN, f64::max),
                Combine::Sum => firsts().sum(),
                Combine::FromItems => unreachable!("handled above"),
                Combine::Ratio => {
                    let denominator: f64 = records.iter().map(|(_, b)| b).sum();
                    if denominator == 0.0 {
                        0.0
                    } else {
                        firsts().sum::<f64>() / denominator
                    }
                }
            };
            (m.name, m.unit, value)
        })
        .collect()
}

/// The result object the contract asks for: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
#[must_use]
pub fn result_json(result: &WorkloadResult) -> Json {
    Json::obj([
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        (
            "metrics",
            Json::Obj(
                result
                    .metrics
                    .iter()
                    .map(|(name, unit, value)| {
                        let entry =
                            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]);
                        ((*name).to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A workload's item times with what stands behind them: the sample
/// count, the tail percentile and how many samples lie beyond it.
#[must_use]
pub fn timing_json(result: &WorkloadResult) -> Json {
    let p = result.workload.tail_percentile();
    let t = result.timing;
    Json::obj([
        ("items", Json::int(t.items)),
        (ITEM_P50, Json::Num(t.p50_s)),
        (ITEMS_PER_S, Json::Num(t.per_s)),
        (ITEM_TAIL, Json::Num(t.tail_s)),
        ("tail_percentile", Json::Num(p)),
        ("tail_beyond", Json::int(stats::beyond(t.items, p))),
    ])
}

/// The one document a multi-workload run prints: the run's settings,
/// the environment record, and per workload the contract's result
/// object plus the item times.
#[must_use]
pub fn document_json(config: &RunConfig, env: Json, results: &[WorkloadResult]) -> Json {
    Json::obj([
        ("seed", Json::Num(config.seed as f64)),
        ("rounds", Json::int(config.rounds)),
        ("trace", Json::Bool(config.trace)),
        ("env", env),
        (
            "workloads",
            Json::Obj(
                results
                    .iter()
                    .map(|r| {
                        let mut object = result_json(r);
                        if let Json::Obj(pairs) = &mut object {
                            pairs.push(("timing".to_string(), timing_json(r)));
                        }
                        (r.workload.name().to_string(), object)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `--repeat` table: per metric and workload, the largest pairwise
/// relative deviation over the runs, for the end-to-end metrics against
/// their bound and for the item times (no bound) for information.
/// Returns the table as markdown and whether every bounded cell stayed
/// within its bound.
#[must_use]
pub fn repeat_table(runs: &[Vec<WorkloadResult>]) -> (String, bool) {
    let mut table = String::from("| metric | bound |");
    for result in &runs[0] {
        table.push_str(&format!(" {} |", result.workload.name()));
    }
    table.push_str("\n|---|---|");
    table.push_str(&"---|".repeat(runs[0].len()));
    table.push('\n');
    let mut within = true;
    let mut row = |name: &str, bound: Option<f64>, value: &dyn Fn(&WorkloadResult) -> f64| {
        let shown = bound.map_or("–".to_string(), |b| b.to_string());
        table.push_str(&format!("| `{name}` | {shown} |"));
        for w in 0..runs[0].len() {
            let values: Vec<f64> = runs.iter().map(|run| value(&run[w])).collect();
            let deviation = stats::max_pairwise_deviation(&values);
            let over = bound.is_some_and(|b| deviation > b);
            within &= !over;
            let mark = if over { " **over**" } else { "" };
            table.push_str(&format!(" {deviation:.4}{mark} |"));
        }
        table.push('\n');
    };
    for (m, metric) in END_TO_END.iter().enumerate() {
        row(metric.name, Some(metric.bound), &|r| r.metrics[m].2);
    }
    row(ITEM_P50, None, &|r| r.timing.p50_s);
    row(ITEMS_PER_S, None, &|r| r.timing.per_s);
    row(ITEM_TAIL, None, &|r| r.timing.tail_s);
    (table, within)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::{Exact, Item};

    fn slice(seconds: &[f64], setup_s: f64, dd_ops: u64) -> SliceReport {
        SliceReport {
            setup_s,
            items: seconds
                .iter()
                .map(|&seconds| Item {
                    seconds,
                    cold: false,
                })
                .collect(),
            loop_s: seconds.iter().sum::<f64>() * 1.25,
            failed: 0,
            exact: Exact {
                peak_nodes: 1000,
                dd_ops,
                fidelity_min: 0.75,
            },
            rss_peak_kib: 2048,
            layer: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn value(result: &WorkloadResult, name: &str) -> f64 {
        result.metrics.iter().find(|m| m.0 == name).expect(name).2
    }

    #[test]
    fn end_to_end_metrics_and_item_times_fold_over_the_plain_slices() {
        let slices = [
            (false, slice(&[1.0, 3.0], 0.5, 800)),
            (false, slice(&[2.0, 2.0], 0.7, 800)),
            (false, slice(&[0.5], 0.9, 800)),
        ];
        let result = fold(Workload::SupremacyMemory, &slices, false);
        assert!(result.correct);
        assert_eq!((result.attempted, result.failed), (5, 0));
        assert_eq!(result.metrics.len(), END_TO_END.len());
        assert_eq!(value(&result, "setup_s"), 0.7);
        assert_eq!(value(&result, "peak_rss_mib"), 2.0);
        assert_eq!(value(&result, "peak_nodes"), 1000.0);
        assert_eq!(
            value(&result, "dd_ops_per_item"),
            100.0,
            "800 lookups over a slice of 8"
        );
        assert_eq!(value(&result, "fidelity_min"), 0.75);
        let t = result.timing;
        assert_eq!((t.items, t.p50_s), (5, 2.0));
        assert_eq!(t.tail_s, 2.0, "p75 of 0.5 1 2 2 3");
        assert_eq!(t.per_s, 5.0 / (8.5 * 1.25), "pooled over the timed loops");
    }

    #[test]
    fn failed_items_and_disagreeing_exact_metrics_make_a_run_incorrect() {
        let mut failing = slice(&[1.0], 0.5, 400);
        failing.failed = 1;
        let result = fold(Workload::PoolSweep, &[(false, failing)], false);
        assert!(!result.correct && result.failed == 1);
        let slices = [
            (false, slice(&[1.0], 0.5, 400)),
            (false, slice(&[1.0], 0.5, 401)),
        ];
        assert!(!fold(Workload::PoolSweep, &slices, false).correct);
    }

    #[test]
    fn per_layer_metrics_combine_by_kind_and_absent_layers_read_zero() {
        let mut traced = slice(&[1.5, 1.5], 0.5, 400);
        traced.layer = vec![
            ("core.run_s_p50".to_string(), 1.0, 0.0),
            ("core.run_s_p50".to_string(), 3.0, 0.0),
            ("core.run_s_p50".to_string(), 2.0, 0.0),
            ("dd.ct_hit_rate".to_string(), 1.0, 4.0),
            ("dd.ct_hit_rate".to_string(), 2.0, 4.0),
            ("dd.peak_vnodes".to_string(), 7.0, 0.0),
            ("dd.peak_vnodes".to_string(), 9.0, 0.0),
            ("exec.retries".to_string(), 2.0, 0.0),
            ("exec.retries".to_string(), 3.0, 0.0),
        ];
        let slices = [(false, slice(&[1.0, 1.0], 0.5, 400)), (true, traced)];
        let result = fold(Workload::ShorFidelity, &slices, true);
        assert!(result.correct);
        assert_eq!(result.metrics.len(), PER_LAYER.len());
        assert_eq!(value(&result, "core.run_s_p50"), 2.0);
        assert_eq!(value(&result, "dd.ct_hit_rate"), 0.375);
        assert_eq!(value(&result, "dd.peak_vnodes"), 9.0);
        assert_eq!(value(&result, "exec.retries"), 5.0);
        assert_eq!(value(&result, "server.post_s_p50"), 0.0);
        assert_eq!(value(&result, TRACE_OVERHEAD), 0.5);
        assert_eq!(value(&result, ITEM_P50), 1.0, "from the plain slice only");
        assert_eq!(value(&result, ITEM_TAIL), 1.0);
        assert_eq!(value(&result, ITEMS_PER_S), 2.0 / 2.5);
        assert_eq!(result.timing.items, 2);
    }

    #[test]
    fn repeat_table_flags_bounded_cells_over_their_bound() {
        let run = |setup_s: f64, p50: f64| {
            let slices = [(false, slice(&[p50], setup_s, 400))];
            vec![fold(Workload::SupremacyMemory, &slices, false)]
        };
        let (table, within) = repeat_table(&[run(1.0, 1.0), run(1.2, 2.0)]);
        assert!(within, "item times carry no bound");
        assert!(table.contains("| `setup_s` | 0.25 | 0.2000 |"), "{table}");
        assert!(table.contains("| `item_s_p50` | – | 1.0000 |"), "{table}");
        let (table, within) = repeat_table(&[run(1.0, 1.0), run(1.3, 1.0)]);
        assert!(!within && table.contains("**over**"), "{table}");
    }
}
