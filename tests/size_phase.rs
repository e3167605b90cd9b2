//! The per-gate size count is a phase of its own: `Simulator::run`
//! times every `Package::vsize` it takes after a gate under `dd.size`,
//! so `/metrics` attributes that time instead of leaving it between
//! `dd.apply` and `dd.truncate`. Like every instrument it only records:
//! a run with telemetry off produces the same bits and records nothing.
//!
//! Own test binary: it reads a global phase count and flips the
//! process-global enable flag.

use approxdd::circuit::generators;
use approxdd::sim::{SimStats, Simulator, Strategy};
use approxdd::telemetry;

fn run() -> SimStats {
    let mut sim = Simulator::builder()
        .strategy(Strategy::memory_driven(64, 0.95))
        .record_size_series(true)
        .seed(3)
        .build();
    sim.run(&generators::supremacy(3, 3, 10, 2))
        .expect("supremacy circuits are valid")
        .stats
}

#[test]
fn size_count_is_recorded_per_gate_and_invisible_to_results() {
    let recorded = || telemetry::phase_histogram("dd.size").count();

    telemetry::set_enabled(true);
    let before = recorded();
    let on = run();
    assert!(on.approx_rounds > 0, "the run must truncate");
    assert_eq!(
        recorded() - before,
        on.gates_applied as u64,
        "one size count per applied gate, none after a round"
    );

    telemetry::set_enabled(false);
    let before = recorded();
    let off = run();
    telemetry::set_enabled(true);
    assert_eq!(recorded(), before, "a disabled run records nothing");

    assert_eq!(on.fidelity.to_bits(), off.fidelity.to_bits());
    assert_eq!(on.round_fidelities, off.round_fidelities);
    assert_eq!(on.size_series, off.size_series);
    assert_eq!(on.max_dd_size, off.max_dd_size);
    assert_eq!(on.nodes_removed, off.nodes_removed);
}
