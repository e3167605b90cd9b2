//! NDJSON export of [`TraceEvent`] streams: one event object per line,
//! the format the server streams job events in, so a
//! [`crate::TraceRecorder`] trace and a served job read alike. Built on
//! the workspace's own [`Json`] writer. Everything exported here is
//! diagnostic: no value ever feeds back into simulation, and none of
//! it participates in result fingerprints.

use crate::json::Json;
use crate::policy::TraceEvent;

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
/// use approxdd_sim::{Simulator, Strategy, TraceRecorder};
///
/// let recorder = TraceRecorder::shared();
/// let mut sim = Simulator::builder()
///     .strategy(Strategy::memory_driven(8, 0.9))
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

#[cfg(test)]
mod tests {
    use super::*;

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
