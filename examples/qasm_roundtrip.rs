//! Interchange example: export a benchmark circuit to OpenQASM 2,
//! re-import it, and verify both versions simulate to the same state.
//!
//! ```text
//! cargo run --release --example qasm_roundtrip
//! ```

use approxdd::backend::{Backend, BuildBackend};
use approxdd::circuit::{generators, qasm};
use approxdd::sim::Simulator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = generators::qft(6);
    let text = qasm::to_qasm(&circuit)?;
    println!("--- exported OpenQASM ({} lines) ---", text.lines().count());
    for line in text.lines().take(12) {
        println!("{line}");
    }
    println!("...\n");

    let reimported = qasm::from_qasm(&text)?;
    println!(
        "reimported: {} gates on {} qubits",
        reimported.gate_count(),
        reimported.n_qubits()
    );

    let mut backend = Simulator::builder().exact().build_backend();
    let batch = backend.run_batch(&[backend.prepare(&circuit)?, backend.prepare(&reimported)?])?;
    let fidelity = backend.fidelity_between(&batch[0], &batch[1])?;
    println!("fidelity(original, reimported) = {fidelity:.12}");
    assert!((fidelity - 1.0).abs() < 1e-9);
    println!("round-trip is exact.");
    Ok(())
}
