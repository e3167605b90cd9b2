//! Interchange example: export a benchmark circuit to OpenQASM 2,
//! re-import it, and verify both versions simulate to the same state.
//!
//! ```text
//! cargo run --release --example qasm_roundtrip
//! ```

use approxdd::circuit::{generators, qasm};
use approxdd::sim::{Simulator, Strategy};

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

    let mut sim = Simulator::builder().strategy(Strategy::Exact).build();
    let original = sim.run(&circuit)?;
    let roundtrip = sim.run(&reimported)?;
    let fidelity = sim.fidelity_between(&original, &roundtrip);
    sim.release(&original);
    sim.release(&roundtrip);
    println!("fidelity(original, reimported) = {fidelity:.12}");
    assert!((fidelity - 1.0).abs() < 1e-9);
    println!("round-trip is exact.");
    Ok(())
}
