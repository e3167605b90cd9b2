//! NDJSON export: one shared line-oriented format for [`TraceEvent`]
//! streams and telemetry snapshots.
//!
//! The server already streams job events as newline-delimited JSON;
//! this module gives the other two observability producers — the
//! [`crate::TraceRecorder`] observer and the
//! [`approxdd_telemetry::MetricsRegistry`] — the same shape, built on
//! the workspace's own [`Json`] writer. Everything exported here is
//! diagnostic: no value ever feeds back into simulation, and none of
//! it participates in result fingerprints.

use crate::json::Json;
use crate::policy::TraceEvent;
use approxdd_telemetry::{MetricValue, MetricsSnapshot};

/// One trace event as a `{"type": ...}` JSON object — the same
/// field names as the [`TraceEvent`] variants.
#[must_use]
pub fn trace_event_json(event: &TraceEvent) -> Json {
    match event {
        TraceEvent::RunStarted {
            circuit,
            n_qubits,
            total_ops,
            policy,
        } => Json::obj([
            ("type", Json::str("run_started")),
            ("circuit", Json::str(circuit.clone())),
            ("n_qubits", Json::int(*n_qubits)),
            ("total_ops", Json::int(*total_ops)),
            ("policy", Json::str(policy.clone())),
        ]),
        TraceEvent::GateApplied {
            op_index,
            gates_applied,
            live_nodes,
        } => Json::obj([
            ("type", Json::str("gate_applied")),
            ("op_index", Json::int(*op_index)),
            ("gates_applied", Json::int(*gates_applied)),
            ("live_nodes", Json::int(*live_nodes)),
        ]),
        TraceEvent::RoundStarted {
            op_index,
            round,
            target_fidelity,
            live_nodes,
        } => Json::obj([
            ("type", Json::str("round_started")),
            ("op_index", Json::int(*op_index)),
            ("round", Json::int(*round)),
            ("target_fidelity", Json::Num(*target_fidelity)),
            ("live_nodes", Json::int(*live_nodes)),
        ]),
        TraceEvent::Truncated {
            op_index,
            round,
            nodes_before,
            nodes_after,
            removed_nodes,
            removed_mass,
        } => Json::obj([
            ("type", Json::str("truncated")),
            ("op_index", Json::int(*op_index)),
            ("round", Json::int(*round)),
            ("nodes_before", Json::int(*nodes_before)),
            ("nodes_after", Json::int(*nodes_after)),
            ("removed_nodes", Json::int(*removed_nodes)),
            ("removed_mass", Json::Num(*removed_mass)),
        ]),
        TraceEvent::RunFinished {
            gates_applied,
            rounds,
            fidelity,
            fidelity_lower_bound,
        } => Json::obj([
            ("type", Json::str("run_finished")),
            ("gates_applied", Json::int(*gates_applied)),
            ("rounds", Json::int(*rounds)),
            ("fidelity", Json::Num(*fidelity)),
            ("fidelity_lower_bound", Json::Num(*fidelity_lower_bound)),
        ]),
        // `TraceEvent` is non_exhaustive towards downstream crates;
        // new variants added here must extend this match.
        #[allow(unreachable_patterns)]
        other => Json::obj([("type", Json::str(format!("{other:?}")))]),
    }
}

/// Serializes a recorded trace as NDJSON: one event object per line,
/// every line newline-terminated — the format the server streams and
/// `SimObserver` traces now share.
///
/// ```
/// use approxdd_circuit::generators;
/// use approxdd_sim::ndjson::trace_to_ndjson;
/// use approxdd_sim::{Simulator, TraceRecorder};
///
/// let recorder = TraceRecorder::shared();
/// let mut sim = Simulator::builder()
///     .memory_driven(8, 0.9)
///     .observe(recorder.clone())
///     .build();
/// sim.run(&generators::qft(5)).unwrap();
/// let ndjson = trace_to_ndjson(recorder.lock().unwrap().events());
/// let first = ndjson.lines().next().unwrap();
/// assert!(first.contains("\"type\":\"run_started\""));
/// assert!(ndjson.lines().last().unwrap().contains("\"type\":\"run_finished\""));
/// ```
#[must_use]
pub fn trace_to_ndjson(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&trace_event_json(event).to_string());
        out.push('\n');
    }
    out
}

/// The bench bins' `telemetry` report object: a phase-time breakdown
/// (seconds per [`approxdd_telemetry::PHASE_METRIC`] phase label) plus
/// the top counters, taken from the global registry.
#[must_use]
pub fn telemetry_json() -> Json {
    telemetry_json_from(&approxdd_telemetry::global().snapshot())
}

/// [`telemetry_json`] over an explicit snapshot (tests, merged worker
/// snapshots).
#[must_use]
pub(crate) fn telemetry_json_from(snapshot: &MetricsSnapshot) -> Json {
    let mut phases: Vec<(String, Json)> = Vec::new();
    let mut counters: Vec<(String, u64)> = Vec::new();
    for entry in &snapshot.entries {
        match &entry.value {
            MetricValue::Histogram(h) if entry.name == approxdd_telemetry::PHASE_METRIC => {
                let phase = entry
                    .labels
                    .iter()
                    .find(|(k, _)| k == "phase")
                    .map_or("?", |(_, v)| v.as_str());
                phases.push((
                    phase.to_string(),
                    Json::obj([
                        ("seconds", Json::Num(h.sum_seconds())),
                        ("count", Json::int(h.count as usize)),
                    ]),
                ));
            }
            MetricValue::Counter(v) => {
                let mut name = entry.name.clone();
                if !entry.labels.is_empty() {
                    let rendered: Vec<String> = entry
                        .labels
                        .iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect();
                    name = format!("{name}{{{}}}", rendered.join(","));
                }
                counters.push((name, *v));
            }
            _ => {}
        }
    }
    // Top counters by value (name-tiebroken for determinism), capped
    // so smoke reports stay readable.
    counters.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    counters.truncate(12);
    Json::obj([
        ("phases", Json::Obj(phases.into_iter().collect())),
        (
            "counters",
            Json::Obj(
                counters
                    .into_iter()
                    .map(|(k, v)| (k, Json::int(v as usize)))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_telemetry::MetricsRegistry;

    #[test]
    fn telemetry_json_splits_phases_and_counters() {
        let registry = MetricsRegistry::new();
        registry
            .histogram_with(approxdd_telemetry::PHASE_METRIC, &[("phase", "dd.apply")])
            .observe(2_000_000_000);
        registry.counter("approxdd_dd_gc_runs_total").add(4);
        registry
            .counter_with("labelled_total", &[("kind", "run")])
            .inc();
        let json = telemetry_json_from(&registry.snapshot()).to_string();
        assert!(json.contains("\"phases\""));
        assert!(json.contains("\"dd.apply\""));
        assert!(json.contains("\"seconds\":2"));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"approxdd_dd_gc_runs_total\":4"));
        assert!(json.contains("\"labelled_total{kind=run}\":1"));
    }

    #[test]
    fn trace_roundtrip_shape() {
        let events = [
            TraceEvent::RunStarted {
                circuit: "ghz".to_string(),
                n_qubits: 3,
                total_ops: 3,
                policy: "exact".to_string(),
            },
            TraceEvent::RunFinished {
                gates_applied: 3,
                rounds: 0,
                fidelity: 1.0,
                fidelity_lower_bound: 1.0,
            },
        ];
        let ndjson = trace_to_ndjson(&events);
        assert_eq!(ndjson.lines().count(), 2);
        assert!(ndjson.ends_with('\n'));
        assert!(ndjson.contains("\"circuit\":\"ghz\""));
    }
}
