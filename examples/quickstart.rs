//! Quickstart: run the same circuit on the decision-diagram engine
//! and on the dense exact baseline, compare them, then showcase what
//! makes decision diagrams special (exponential compression, DOT
//! export).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use approxdd::circuit::generators;
use approxdd::sim::Simulator;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Prints one engine's run: peak representation size, gate count,
/// runtime, and a sorted histogram.
fn report(
    engine: &str,
    peak: usize,
    gates: usize,
    runtime: std::time::Duration,
    n: usize,
    counts: impl IntoIterator<Item = (u64, usize)>,
) {
    println!("[{engine:<11}] peak representation {peak:>6} | {gates} gates in {runtime:?}");
    let mut entries: Vec<(u64, usize)> = counts.into_iter().collect();
    entries.sort_unstable();
    for (outcome, count) in entries {
        println!("  |{outcome:0n$b}> : {count}");
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 16;
    let circuit = generators::ghz(n);
    println!(
        "circuit: {} ({} gates on {n} qubits), 1000 shots on each backend\n",
        circuit.name(),
        circuit.gate_count()
    );

    // Approximate decision diagrams (exact here: no policy is set) …
    let mut dd = Simulator::builder().seed(2024).build();
    let run = dd.run(&circuit)?;
    let counts = dd.draw_counts(&run, 1000);
    let stats = &run.stats;
    report(
        "dd",
        stats.max_dd_size,
        stats.gates_applied,
        stats.runtime,
        n,
        counts,
    );
    dd.release(&run);

    // … and the dense exact baseline, which holds all 2^n amplitudes.
    let start = std::time::Instant::now();
    let dense = approxdd::statevector::run_circuit(&circuit)?;
    let runtime = start.elapsed();
    let counts = dense.sample_counts(1000, &mut StdRng::seed_from_u64(2024));
    report(
        "statevector",
        dense.amplitudes().len(),
        circuit.gate_count(),
        runtime,
        n,
        counts,
    );

    // The GHZ state is the showcase of DD compression: one node per
    // qubit regardless of the 2^24 amplitudes it represents.
    let wide = generators::ghz(24);
    let run = dd.run(&wide)?;
    println!(
        "\n24-qubit GHZ on DDs: {} nodes (a dense vector would need {} amplitudes)",
        dd.package().vsize(run.state()),
        1u64 << 24
    );

    // Render a small instance as Graphviz DOT (Fig. 1 style).
    let small = generators::ghz(3);
    let run_small = dd.run(&small)?;
    println!(
        "\nDOT of the 3-qubit GHZ decision diagram:\n{}",
        dd.package().to_dot(run_small.state())
    );
    Ok(())
}
