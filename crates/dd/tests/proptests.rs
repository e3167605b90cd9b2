//! Property-based tests of the decision-diagram engine's invariants:
//! canonicity, linear-algebra laws against dense references, unitarity
//! of constructed gates, and the approximation guarantees.

use approxdd_complex::Cplx;
use approxdd_dd::{GateKind, Package};
use proptest::prelude::*;

/// A random complex amplitude vector of dimension `2^n`, normalized.
fn unit_state(n: usize) -> impl Strategy<Value = Vec<Cplx>> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1 << n).prop_filter_map(
        "usable norm",
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

/// A random single-qubit gate from the full alphabet.
fn random_gate() -> impl Strategy<Value = GateKind> {
    prop_oneof![
        Just(GateKind::X),
        Just(GateKind::Y),
        Just(GateKind::Z),
        Just(GateKind::H),
        Just(GateKind::S),
        Just(GateKind::T),
        Just(GateKind::Sx),
        Just(GateKind::Sy),
        (-3.0f64..3.0).prop_map(GateKind::Phase),
        (-3.0f64..3.0).prop_map(GateKind::Rx),
        (-3.0f64..3.0).prop_map(GateKind::Ry),
        (-3.0f64..3.0).prop_map(GateKind::Rz),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn roundtrip_preserves_amplitudes(amps in unit_state(4)) {
        let mut p = Package::new();
        let e = p.from_amplitudes(&amps).unwrap();
        let back = p.to_amplitudes(e, 4).unwrap();
        for (a, b) in amps.iter().zip(&back) {
            prop_assert!((*a - *b).mag() < 1e-10);
        }
    }

    #[test]
    fn identical_states_share_the_root(amps in unit_state(3)) {
        // Canonicity: building the same vector twice yields the same
        // node, even through an unrelated interleaved construction.
        let mut p = Package::new();
        let e1 = p.from_amplitudes(&amps).unwrap();
        let _noise = p.basis_state(3, 5);
        let e2 = p.from_amplitudes(&amps).unwrap();
        prop_assert_eq!(e1.node, e2.node);
        prop_assert!((e1.w - e2.w).mag() < 1e-9);
    }

    #[test]
    fn global_phase_lands_on_the_edge(amps in unit_state(3), theta in -3.0f64..3.0) {
        // Canonicity is tolerance-grade: phase-rotated weights travel a
        // different float path, so node *identity* can occasionally miss
        // on a quantization-grid boundary. The guaranteed properties are
        // physical equality (fidelity 1) and equal compression.
        let mut p = Package::new();
        let phase = Cplx::from_polar(1.0, theta);
        let rotated: Vec<Cplx> = amps.iter().map(|a| *a * phase).collect();
        let e1 = p.from_amplitudes(&amps).unwrap();
        let e2 = p.from_amplitudes(&rotated).unwrap();
        let f = p.fidelity(e1, e2);
        prop_assert!((f - 1.0).abs() < 1e-9, "fidelity {f}");
        prop_assert_eq!(p.vsize(e1), p.vsize(e2));
    }

    #[test]
    fn addition_is_linear(a in unit_state(3), b in unit_state(3)) {
        let mut p = Package::new();
        let ea = p.from_amplitudes(&a).unwrap();
        let eb = p.from_amplitudes(&b).unwrap();
        let sum = p.add(ea, eb);
        let dense = p.to_amplitudes(sum, 3).unwrap();
        for i in 0..8 {
            prop_assert!((dense[i] - (a[i] + b[i])).mag() < 1e-9, "index {i}");
        }
    }

    #[test]
    fn gate_application_matches_dense_math(amps in unit_state(3),
                                           g in random_gate(),
                                           target in 0usize..3) {
        let mut p = Package::new();
        let e = p.from_amplitudes(&amps).unwrap();
        let dd_gate = p.single_gate(3, target, g.matrix()).unwrap();
        let r = p.apply(dd_gate, e);
        let got = p.to_amplitudes(r, 3).unwrap();

        // Dense reference.
        let m = g.matrix();
        let mut want = amps.clone();
        let tbit = 1usize << target;
        for i in 0..8 {
            if i & tbit == 0 {
                let (a0, a1) = (amps[i], amps[i | tbit]);
                want[i] = m[0][0] * a0 + m[0][1] * a1;
                want[i | tbit] = m[1][0] * a0 + m[1][1] * a1;
            }
        }
        for i in 0..8 {
            prop_assert!((got[i] - want[i]).mag() < 1e-9, "index {i}");
        }
    }

    #[test]
    fn controlled_gates_are_unitary(g in random_gate(),
                                    target in 0usize..4,
                                    control in 0usize..4,
                                    positive in any::<bool>()) {
        prop_assume!(target != control);
        let mut p = Package::new();
        let dd = p
            .controlled_gate_polarized(4, &[(control, positive)], target, g.matrix())
            .unwrap();
        let dag = p.conj_transpose(dd);
        let prod = p.mul_mm(dd, dag);
        let id = p.identity(4);
        prop_assert_eq!(prod.node, id.node, "U U† must be the identity node");
        prop_assert!((prod.w - id.w).mag() < 1e-9);
    }

    #[test]
    fn unitaries_preserve_norm(amps in unit_state(4), g in random_gate(),
                               target in 0usize..4) {
        let mut p = Package::new();
        let e = p.from_amplitudes(&amps).unwrap();
        let dd_gate = p.single_gate(4, target, g.matrix()).unwrap();
        let r = p.apply(dd_gate, e);
        prop_assert!((p.norm(r) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn truncation_bound_holds(amps in unit_state(5), budget in 0.0f64..0.6) {
        let mut p = Package::new();
        let e = p.from_amplitudes(&amps).unwrap();
        p.inc_ref(e);
        let r = p.truncate(e, budget).unwrap();
        prop_assert!(r.fidelity >= 1.0 - budget - 1e-9);
        prop_assert!(r.size_after <= r.size_before);
        let measured = p.fidelity(e, r.edge);
        prop_assert!((measured - r.fidelity).abs() < 1e-8);
    }

    #[test]
    fn permutation_gates_permute(perm_seed in 0u64..1000) {
        // Build a pseudo-random permutation of 8 elements and verify the
        // gate maps basis states accordingly.
        let mut p = Package::new();
        let mut perm: Vec<usize> = (0..8).collect();
        let mut s = perm_seed;
        for i in (1..8usize).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let g = p.permutation_gate(3, 0, 3, &perm, &[]).unwrap();
        for c in 0..8u64 {
            let v = p.basis_state(3, c);
            let r = p.apply(g, v);
            let prob = p.probability(r, perm[c as usize] as u64);
            prop_assert!((prob - 1.0).abs() < 1e-9, "|{c}> -> |{}>", perm[c as usize]);
        }
    }

    #[test]
    fn inner_product_is_cauchy_schwarz_bounded(a in unit_state(4), b in unit_state(4)) {
        let mut p = Package::new();
        let ea = p.from_amplitudes(&a).unwrap();
        let eb = p.from_amplitudes(&b).unwrap();
        let f = p.fidelity(ea, eb);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&f));
    }

    #[test]
    fn kron_matches_dense_tensor(a in unit_state(2), b in unit_state(2)) {
        let mut p = Package::new();
        let ea = p.from_amplitudes(&a).unwrap();
        let eb = p.from_amplitudes(&b).unwrap();
        let joint = p.vkron(ea, eb);
        let dense = p.to_amplitudes(joint, 4).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let want = a[i] * b[j];
                let got = dense[(i << 2) | j];
                prop_assert!((got - want).mag() < 1e-9, "({i},{j})");
            }
        }
    }
}
