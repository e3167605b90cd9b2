//! Memory-driven approximation on quantum-supremacy circuits — the
//! paper's reactive strategy (Section IV-B): when the decision diagram
//! outgrows a node threshold, truncate to a per-round fidelity, trading
//! accuracy for a representation that fits in memory. The same circuit
//! runs on one exact and three differently-configured approximating
//! backends for the sweep.
//!
//! ```text
//! cargo run --release --example supremacy_memory [rows cols depth]
//! ```

use approxdd::backend::BuildBackend;
use approxdd::circuit::generators;
use approxdd::sim::{Simulator, Strategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|s| s.parse().ok())
        .collect();
    let (rows, cols, depth) = match args.as_slice() {
        [r, c, d, ..] => (*r, *c, *d),
        _ => (4, 4, 12),
    };
    let circuit = generators::supremacy(rows, cols, depth, 0);
    println!(
        "circuit: {} ({} qubits, {} gates)",
        circuit.name(),
        circuit.n_qubits(),
        circuit.gate_count()
    );

    // Exact reference through the same API.
    let mut exact = Simulator::builder()
        .strategy(Strategy::Exact)
        .build_backend();
    let exact_run = exact.run(&circuit)?;
    println!(
        "\nexact:  max DD {:>8} nodes, runtime {:?}",
        exact_run.stats.peak_size, exact_run.stats.runtime
    );
    exact.release(exact_run);

    // Memory-driven at three per-round fidelities (the Table-I sweep,
    // fixed threshold — the regime the table reports).
    let threshold = 1 << 11;
    for f_round in [0.99, 0.975, 0.95] {
        let mut backend = Simulator::builder()
            .strategy(Strategy::memory_driven_table1(threshold, f_round))
            .build_backend();
        let run = backend.run(&circuit)?;
        println!(
            "f_round {f_round:<5}: max DD {:>8} nodes, {:>2} rounds, runtime {:?}, f_final {:.4}",
            run.stats.peak_size, run.stats.approx_rounds, run.stats.runtime, run.stats.fidelity
        );
        backend.release(run);
    }
    println!(
        "\n(threshold fixed at {threshold} nodes — `memory_driven_table1`; lower f_round\n trades more fidelity for smaller DDs and faster simulation)"
    );
    Ok(())
}
