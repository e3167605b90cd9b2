//! Scheduling of fidelity-driven approximation rounds (Sec. IV-C).
//!
//! Given the maximum round count `⌊log_{f_round} f_final⌋`, rounds are
//! placed at circuit locations:
//!
//! * if the circuit contains [`Operation::ApproxPoint`] markers (block
//!   boundaries, Example 10), rounds are assigned to markers — all of
//!   them when there are at most `rounds` markers, otherwise `rounds`
//!   markers chosen evenly across the marker sequence;
//! * otherwise rounds are spaced evenly across the gate sequence.

use approxdd_circuit::{Circuit, Operation};

/// Computes the set of operation indices *after which* an approximation
/// round runs. Indices refer to positions in `circuit.ops()`.
///
/// Returns an empty set when `rounds == 0` or the circuit has no gates.
#[must_use]
pub(crate) fn plan_rounds(circuit: &Circuit, rounds: usize) -> Vec<usize> {
    if rounds == 0 {
        return Vec::new();
    }
    let markers: Vec<usize> = circuit
        .ops()
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, Operation::ApproxPoint))
        .map(|(i, _)| i)
        .collect();

    if !markers.is_empty() {
        return pick_evenly(&markers, rounds);
    }

    // No markers: space rounds evenly over the gate positions.
    let gate_positions: Vec<usize> = circuit
        .ops()
        .iter()
        .enumerate()
        .filter(|(_, op)| op.is_gate())
        .map(|(i, _)| i)
        .collect();
    if gate_positions.is_empty() {
        return Vec::new();
    }
    let n = gate_positions.len();
    let rounds = rounds.min(n);
    // Place round r after gate floor((r+1) * n / (rounds+1)) - adjusted so
    // rounds sit strictly inside the circuit, not after the last gate
    // (approximating the final state buys no simulation time).
    let mut out: Vec<usize> = (1..=rounds)
        .map(|r| gate_positions[(r * n / (rounds + 1)).min(n - 1)])
        .collect();
    out.dedup();
    out
}

/// Picks `count` elements of `items` evenly (keeping order); returns all
/// of them when `count >= items.len()`.
fn pick_evenly(items: &[usize], count: usize) -> Vec<usize> {
    if count >= items.len() {
        return items.to_vec();
    }
    let n = items.len();
    let mut out = Vec::with_capacity(count);
    for r in 0..count {
        // Spread indices across [0, n): element floor((r+1)*n/(count+1)).
        let idx = ((r + 1) * n / (count + 1)).min(n - 1);
        out.push(items[idx]);
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_circuit::generators;

    #[test]
    fn zero_rounds_is_empty() {
        let c = generators::ghz(4);
        assert!(plan_rounds(&c, 0).is_empty());
    }

    #[test]
    fn markers_take_precedence() {
        let c = generators::inverse_qft(6, true); // 6 markers
        let plan = plan_rounds(&c, 3);
        assert_eq!(plan.len(), 3);
        for idx in &plan {
            assert!(matches!(c.ops()[*idx], Operation::ApproxPoint));
        }
    }

    #[test]
    fn few_markers_are_all_used() {
        let c = generators::inverse_qft(4, true); // 4 markers
        let plan = plan_rounds(&c, 10);
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn unmarked_circuits_get_even_spacing() {
        let c = generators::ghz(10); // 10 gates, no markers
        let plan = plan_rounds(&c, 3);
        assert_eq!(plan.len(), 3);
        // Positions are strictly increasing and inside the circuit.
        for w in plan.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(*plan.last().unwrap() < c.ops().len());
    }

    #[test]
    fn more_rounds_than_gates_saturates() {
        let c = generators::ghz(3); // 3 gates
        let plan = plan_rounds(&c, 100);
        assert!(plan.len() <= 3);
    }

    #[test]
    fn empty_circuit_plans_nothing() {
        let c = approxdd_circuit::Circuit::new(2, "empty");
        assert!(plan_rounds(&c, 5).is_empty());
    }

    use approxdd_circuit::Operation;
}
