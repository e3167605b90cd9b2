//! Grover search under approximation: how much final-state fidelity
//! does amplitude amplification tolerate before the marked item stops
//! winning? A small study in the spirit of the paper's error-tolerance
//! argument (Section III) — and of its caveat that suitability depends
//! on the algorithm: mid-amplification the *marked* amplitude is the
//! small one, so aggressive early truncation can remove exactly the
//! signal the algorithm is amplifying.
//!
//! ```text
//! cargo run --release --example grover_search [n_qubits]
//! ```

use approxdd::circuit::generators;
use approxdd::sim::{Simulator, Strategy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let marked: u64 = 0b1011 & ((1 << n) - 1) | (1 << (n - 1));
    let circuit = generators::grover(n, marked, None);
    println!(
        "grover on {n} qubits, marked |{marked:0n$b}>, {} gates",
        circuit.gate_count()
    );

    for (label, strategy) in [
        ("exact        ", Strategy::Exact),
        ("f_final = 0.9", Strategy::fidelity_driven(0.9, 0.99)),
        ("f_final = 0.5", Strategy::fidelity_driven(0.5, 0.9)),
        ("f_final = 0.2", Strategy::fidelity_driven(0.2, 0.8)),
    ] {
        let mut sim = Simulator::builder().strategy(strategy).seed(7).build();
        let run = sim.run(&circuit)?;
        let shots = 500;
        let counts = sim.draw_counts(&run, shots);
        let hits = counts
            .binary_search_by_key(&marked, |&(outcome, _)| outcome)
            .map_or(0, |i| counts[i].1);
        println!(
            "{label}: marked sampled {hits:>3}/{shots}  (measured f_final {:.3}, {} rounds, max DD {})",
            run.stats.fidelity, run.stats.approx_rounds, run.stats.max_dd_size
        );
        sim.release(&run);
    }
    println!("\nMild approximation (f_final ≈ 0.9) leaves the search intact; aggressive");
    println!("early truncation can zero out the still-small marked amplitude and break");
    println!("the algorithm — the per-algorithm suitability caveat of the paper (Sec. IV).");
    println!("Contrast with Shor (see shor_factoring), which tolerates ~50% fidelity.");
    Ok(())
}
