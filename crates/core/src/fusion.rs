//! Gate fusion: matrix–matrix multiplication of consecutive operation
//! DDs before touching the state.
//!
//! Zulehner & Wille ("Matrix-vector vs. matrix-matrix multiplication:
//! Potential in DD-based simulation of quantum computations", DATE
//! 2019 — reference [31] of the reproduced paper, and the source of its
//! Shor benchmarks) showed that fusing gate sequences into a single
//! operation DD can beat gate-by-gate application when intermediate
//! states are larger than the fused operator. This module provides
//! windowed fused execution.

use approxdd_circuit::{Circuit, Operation};
use approxdd_dd::MEdge;

use crate::simulator::{RunResult, SimStats, Simulator};
use crate::Result;

impl Simulator {
    /// Runs a circuit by fusing consecutive gates into windows of
    /// `window` gates each, then applying the fused operators to the
    /// state. `window == 1` degenerates to ordinary simulation (without
    /// approximation — fusion is an exact-simulation technique here).
    ///
    /// # Errors
    ///
    /// Circuit validation or DD engine errors.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn run_fused(&mut self, circuit: &Circuit, window: usize) -> Result<RunResult> {
        assert!(window > 0, "fusion window must be positive");
        circuit.validate()?;
        let span = approxdd_telemetry::Span::enter("dd.run_fused");
        let size_timer = approxdd_telemetry::PhaseTimer::new("dd.size");
        let n = circuit.n_qubits();
        let mut state = self.package_mut().zero_state(n);
        self.package_mut().inc_ref(state);

        let mut stats = SimStats {
            gates_applied: 0,
            max_dd_size: self.package().vsize(state),
            approx_rounds: 0,
            fidelity: 1.0,
            fidelity_lower_bound: 1.0,
            round_fidelities: Vec::new(),
            nodes_removed: 0,
            runtime: std::time::Duration::ZERO,
            final_threshold: None,
            size_series: Vec::new(),
            policy: "exact".to_string(),
            package: approxdd_dd::PackageStats::default(),
        };

        let gates: Vec<&Operation> = circuit.ops().iter().filter(|o| o.is_gate()).collect();
        for chunk in gates.chunks(window) {
            // Fuse the window.
            let mut acc: Option<MEdge> = None;
            for op in chunk {
                let gate = self.gate_dd(circuit, op)?;
                acc = Some(match acc {
                    None => gate,
                    Some(prev) => self.package_mut().mul_mm(gate, prev),
                });
                stats.gates_applied += 1;
            }
            if let Some(fused) = acc {
                let new_state = self.package_mut().apply(fused, state);
                self.package_mut().inc_ref(new_state);
                self.package_mut().dec_ref(state);
                state = new_state;
                let live_nodes = size_timer.time(|| self.package().vsize(state));
                stats.max_dd_size = stats.max_dd_size.max(live_nodes);
            }
        }

        stats.package = self.package().stats();
        stats.runtime = span.finish();
        Ok(RunResult::new(state, n, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_circuit::generators;

    #[test]
    fn fused_windows_agree_with_gate_by_gate() {
        for window in [1usize, 2, 4, 16] {
            let circuit = generators::random_circuit(6, 8, 7);
            let mut sim = Simulator::builder().exact().build();
            let fused = sim.run_fused(&circuit, window).unwrap();
            let seq = sim.run(&circuit).unwrap();
            let f = sim.fidelity_between(&seq, &fused);
            assert!((f - 1.0).abs() < 1e-9, "window {window}: fidelity {f}");
            assert_eq!(fused.stats.gates_applied, seq.stats.gates_applied);
        }
    }

    #[test]
    fn shor_modmul_block_fuses() {
        // Fusing the controlled modular multiplications of shor_15_7
        // yields one operator representing the whole exponentiation.
        let circuit = approxdd_shor_circuit();
        let mut sim = Simulator::builder().exact().build();
        let fused = sim.run_fused(&circuit, 4).unwrap();
        let seq = sim.run(&circuit).unwrap();
        let f = sim.fidelity_between(&seq, &fused);
        assert!((f - 1.0).abs() < 1e-9);
    }

    /// A small Shor-like circuit without depending on the shor crate
    /// (which would create a dependency cycle in dev-deps).
    fn approxdd_shor_circuit() -> approxdd_circuit::Circuit {
        use approxdd_circuit::{Circuit, Control};
        let mut c = Circuit::new(8, "mini_shor");
        c.x(0);
        for j in 0..4 {
            c.h(4 + j);
        }
        // Controlled multiplications by 7^(2^j) mod 15 on the low 4 qubits.
        let mut m = 7u64;
        for j in 0..4 {
            let perm: Vec<usize> = (0..16)
                .map(|x| if x < 15 { (m as usize * x) % 15 } else { x })
                .collect();
            c.permutation(0, 4, perm, &[Control::positive(4 + j)], format!("m{j}"));
            m = m * m % 15;
        }
        c.append(&generators::inverse_qft(4, false), 4);
        c
    }
}
