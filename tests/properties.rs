//! Property-based integration tests of the paper's mathematical claims:
//! Lemma 1 (fidelity multiplicativity under chained truncation),
//! unitary invariance of fidelity, contribution normalization, and
//! truncation lower bounds — on randomized states and circuits.

use approxdd::complex::Cplx;
use approxdd::dd::Package;
use proptest::prelude::*;

/// Strategy: a random normalized amplitude vector on `n` qubits.
fn unit_state(n: usize) -> impl Strategy<Value = Vec<Cplx>> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1 << n).prop_filter_map(
        "non-degenerate norm",
        |pairs| {
            let norm: f64 = pairs
                .iter()
                .map(|(re, im)| re * re + im * im)
                .sum::<f64>()
                .sqrt();
            if norm < 1e-3 {
                return None;
            }
            Some(
                pairs
                    .into_iter()
                    .map(|(re, im)| Cplx::new(re / norm, im / norm))
                    .collect(),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn contributions_sum_to_one_per_level(amps in unit_state(4)) {
        let mut p = Package::new();
        let root = p.from_amplitudes(&amps).unwrap();
        let cm = p.contributions(root);
        for var in 0..cm.level_count() {
            let sum = cm.level_sum(var);
            prop_assert!((sum - 1.0).abs() < 1e-9, "level {var}: {sum}");
        }
    }

    #[test]
    fn truncation_honors_budget_bound(amps in unit_state(4), budget in 0.0f64..0.5) {
        let mut p = Package::new();
        let root = p.from_amplitudes(&amps).unwrap();
        p.inc_ref(root);
        let r = p.truncate(root, budget).unwrap();
        prop_assert!(r.fidelity >= 1.0 - budget - 1e-9);
        // Reported fidelity equals the true overlap.
        let measured = p.fidelity(root, r.edge);
        prop_assert!((measured - r.fidelity).abs() < 1e-8,
            "reported {} measured {}", r.fidelity, measured);
        // Output is unit norm.
        prop_assert!((r.edge.w.mag() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lemma1_chained_truncations_multiply(amps in unit_state(4),
                                           b1 in 0.01f64..0.3,
                                           b2 in 0.01f64..0.3) {
        let mut p = Package::new();
        let psi = p.from_amplitudes(&amps).unwrap();
        p.inc_ref(psi);
        let r1 = p.truncate(psi, b1).unwrap();
        p.inc_ref(r1.edge);
        let r2 = p.truncate(r1.edge, b2).unwrap();
        let total = p.fidelity(psi, r2.edge);
        let product = r1.fidelity * r2.fidelity;
        prop_assert!((total - product).abs() < 1e-8,
            "total {total} vs product {product}");
    }

    #[test]
    fn fidelity_is_unitarily_invariant(amps_a in unit_state(3), amps_b in unit_state(3), seed in 0u64..1000) {
        use approxdd::circuit::generators;
        let mut p = Package::new();
        let a = p.from_amplitudes(&amps_a).unwrap();
        let b = p.from_amplitudes(&amps_b).unwrap();
        p.inc_ref(a);
        p.inc_ref(b);
        let before = p.fidelity(a, b);

        // Apply the same random unitary circuit to both states.
        let circuit = generators::random_circuit(3, 6, seed);
        let mut ua = a;
        let mut ub = b;
        for op in circuit.ops() {
            if let approxdd::circuit::Operation::Gate { gate, target, controls } = op {
                let pairs: Vec<(usize, bool)> = controls.iter().map(|c| (c.qubit, c.positive)).collect();
                let g = p.controlled_gate_polarized(3, &pairs, *target, gate.matrix()).unwrap();
                ua = p.apply(g, ua);
                ub = p.apply(g, ub);
            }
        }
        let after = p.fidelity(ua, ub);
        prop_assert!((before - after).abs() < 1e-8, "before {before} after {after}");
    }

    #[test]
    fn dd_roundtrip_is_exact(amps in unit_state(5)) {
        let mut p = Package::new();
        let root = p.from_amplitudes(&amps).unwrap();
        let back = p.to_amplitudes(root, 5).unwrap();
        for (x, y) in amps.iter().zip(&back) {
            prop_assert!((*x - *y).mag() < 1e-10);
        }
    }

    #[test]
    fn sampling_matches_probabilities(amps in unit_state(3)) {
        use rand::SeedableRng;
        let mut p = Package::new();
        let root = p.from_amplitudes(&amps).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let shots = 3000;
        let counts: std::collections::HashMap<u64, usize> =
            p.sample_counts(root, shots, &mut rng).into_iter().collect();
        for idx in 0..8u64 {
            let want = p.probability(root, idx);
            let got = *counts.get(&idx).unwrap_or(&0) as f64 / shots as f64;
            // Loose statistical tolerance.
            prop_assert!((want - got).abs() < 0.07,
                "idx {idx}: p={want} sampled={got}");
        }
    }
}
