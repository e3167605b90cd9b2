//! Behavioral tests of the numerical tolerance and engine limits:
//! looser tolerances buy smaller DDs at bounded accuracy cost, and the
//! guard rails reject out-of-range inputs cleanly.

use approxdd_complex::{Cplx, Tolerance};
use approxdd_dd::{DdError, GateKind, Package, VEdge};

/// A mildly perturbed uniform state: amplitudes 1/√N ± jitter. With a
/// tight tolerance every leaf pair is distinct; with a loose tolerance
/// the jitter merges away and the DD collapses to one node per level.
fn jittered_uniform(p: &mut Package, n: usize, jitter: f64) -> VEdge {
    let dim = 1usize << n;
    let base = 1.0 / (dim as f64).sqrt();
    let amps: Vec<Cplx> = (0..dim)
        .map(|i| Cplx::real(base + jitter * (((i * 2654435761) % 97) as f64 / 97.0 - 0.5)))
        .collect();
    p.from_amplitudes(&amps).unwrap()
}

#[test]
fn loose_tolerance_merges_near_equal_nodes() {
    let n = 8;
    let jitter = 1e-8;

    let mut tight = Package::with_tolerance(Tolerance::new(1e-12));
    let e_tight = jittered_uniform(&mut tight, n, jitter);
    let tight_size = tight.vsize(e_tight);

    let mut loose = Package::with_tolerance(Tolerance::new(1e-5));
    let e_loose = jittered_uniform(&mut loose, n, jitter);
    let loose_size = loose.vsize(e_loose);

    assert!(
        loose_size < tight_size,
        "loose {loose_size} vs tight {tight_size}"
    );
    // The loose DD is the uniform state: one node per level.
    assert_eq!(loose_size, n);
}

#[test]
fn loose_tolerance_errors_stay_bounded() {
    let n = 6;
    let jitter = 1e-8;
    let mut loose = Package::with_tolerance(Tolerance::new(1e-5));
    let e = jittered_uniform(&mut loose, n, jitter);
    let amps = loose.to_amplitudes(e, n).unwrap();
    let want = 1.0 / (1u64 << n) as f64;
    for (i, a) in amps.iter().enumerate() {
        // Rounding error is on the order of the tolerance, amplified at
        // most polynomially through the levels.
        assert!(
            (a.mag2() - want).abs() < 1e-3,
            "amplitude {i}: {} vs {want}",
            a.mag2()
        );
    }
}

#[test]
fn default_tolerance_separates_physical_amplitudes() {
    // Two genuinely different states must not be merged.
    let mut p = Package::new();
    let a = p
        .from_amplitudes(&[Cplx::real(0.6), Cplx::real(0.8)])
        .unwrap();
    let b = p
        .from_amplitudes(&[Cplx::real(0.8), Cplx::real(0.6)])
        .unwrap();
    assert_ne!(a.node, b.node);
    let f = p.fidelity(a, b);
    assert!((f - 0.9216).abs() < 1e-10, "fidelity {f}"); // (0.48+0.48)^2
}

#[test]
fn to_amplitudes_guards_width() {
    let mut p = Package::new();
    let e = p.basis_state(3, 1);
    assert!(matches!(
        p.to_amplitudes(e, 27),
        Err(DdError::TooManyQubits { .. })
    ));
    assert!(matches!(
        p.to_amplitudes(e, 2),
        Err(DdError::DimensionMismatch { .. })
    ));
    // Embedding a smaller DD into a wider register is allowed (zero
    // stubs pad the upper levels).
    let wide = p.to_amplitudes(e, 4);
    assert!(wide.is_ok());
}

#[test]
fn gate_builders_guard_geometry() {
    let mut p = Package::new();
    assert!(matches!(
        p.single_gate(300, 0, GateKind::X.matrix()),
        Err(DdError::TooManyQubits { .. })
    ));
    assert!(matches!(
        p.dense_block_gate(4, 0, 2, &[Cplx::ONE; 7], &[]),
        Err(DdError::InvalidMatrix { .. })
    ));
    assert!(matches!(
        p.permutation_gate(4, 3, 2, &[0, 1, 2, 3], &[]),
        Err(DdError::QubitOutOfRange { .. })
    ));
}

#[test]
fn single_qubit_engine_works_end_to_end() {
    // Degenerate width-1 register: full pipeline.
    let mut p = Package::new();
    let v = p.zero_state(1);
    let h = p.single_gate(1, 0, GateKind::H.matrix()).unwrap();
    let v = p.apply(h, v);
    assert!((p.probability(v, 0) - 0.5).abs() < 1e-12);
    let cm = p.contributions(v);
    assert_eq!(cm.node_count(), 1);
    assert!((cm.level_sum(0) - 1.0).abs() < 1e-12);
    // Truncation has nothing to remove except the root (kept).
    let r = p.truncate(v, 0.4).unwrap();
    assert_eq!(r.fidelity, 1.0);
}

#[test]
fn deep_register_basis_states() {
    // 63 qubits: the basis-index limit.
    let mut p = Package::new();
    let idx = (1u64 << 62) | 0b1011;
    let v = p.basis_state(63, idx);
    assert_eq!(p.vsize(v), 63);
    assert!((p.amplitude(v, idx).mag2() - 1.0).abs() < 1e-12);
    assert!(p.amplitude(v, idx ^ 1).mag2() < 1e-12);
    let mut rng = rand_rng();
    assert_eq!(p.sample(v, &mut rng), idx);
}

fn rand_rng() -> impl rand::Rng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(1)
}

#[test]
fn repeated_gc_cycles_preserve_semantics() {
    let mut p = Package::new();
    let mut kept = p.basis_state(6, 33);
    p.inc_ref(kept);
    let h = p.single_gate(6, 2, GateKind::H.matrix()).unwrap();
    p.inc_ref_m(h);
    for _ in 0..50 {
        // Generate garbage, collect, and verify the kept state.
        let _g1 = p.basis_state(6, 12);
        let tmp = p.apply(h, kept);
        p.inc_ref(tmp);
        let back = p.apply(h, tmp); // H twice = identity
        p.inc_ref(back);
        p.dec_ref(kept);
        p.dec_ref(tmp);
        kept = back;
        let _ = p.collect_garbage();
        assert!((p.probability(kept, 33) - 1.0).abs() < 1e-9);
    }
}
