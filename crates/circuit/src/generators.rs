//! Benchmark circuit generators: the workload families of the paper's
//! evaluation plus standard sanity workloads.
//!
//! * [`supremacy`] — Boixo-et-al.-style quantum-supremacy grid circuits
//!   with conditional phase (CZ) gates, the memory-driven benchmark of
//!   Table I ("qsup_AxB_C").
//! * [`qft`] / [`inverse_qft`] — the quantum Fourier transform, the
//!   expensive tail block of Shor's algorithm; the inverse variant
//!   carries approximation markers after each qubit's rotation block
//!   (Example 10).
//! * [`grover`], [`ghz`], [`w_state`], [`bernstein_vazirani`],
//!   [`random_circuit`] — standard families for tests, examples and
//!   ablations.

use approxdd_complex::Cplx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::op::Control;

/// The GHZ (cat) state preparation `(|0…0⟩ + |1…1⟩)/√2`.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn ghz(n: usize) -> Circuit {
    assert!(n > 0, "ghz requires at least one qubit");
    let mut c = Circuit::new(n, format!("ghz_{n}"));
    c.h(n - 1);
    for q in (0..n - 1).rev() {
        c.cx(q + 1, q);
    }
    c
}

/// The W-state preparation `(|10…0⟩ + |01…0⟩ + … + |0…01⟩)/√n` via a
/// cascade of controlled rotations.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn w_state(n: usize) -> Circuit {
    assert!(n > 0, "w_state requires at least one qubit");
    let mut c = Circuit::new(n, format!("w_{n}"));
    // Standard construction: qubit n-1 starts in |1>, then distribute the
    // excitation downward with controlled rotations + CNOTs.
    c.x(n - 1);
    for i in (1..n).rev() {
        // Keep amplitude 1/sqrt(i+1) of the remaining excitation on
        // qubit i and pass the rest to qubit i-1:
        // controlled-Ry(2*acos(1/sqrt(i+1))) then CX back.
        let theta = 2.0 * (1.0 / (i as f64 + 1.0)).sqrt().acos();
        c.controlled(Gate::Ry(theta), &[i], i - 1);
        c.cx(i - 1, i);
    }
    c
}

/// The quantum Fourier transform on `n` qubits, textbook form with the
/// final swap layer (so the matrix equals `F_{2^n}` in the standard
/// little-endian basis).
#[must_use]
pub fn qft(n: usize) -> Circuit {
    let mut c = Circuit::new(n, format!("qft_{n}"));
    for i in (0..n).rev() {
        c.h(i);
        for j in (0..i).rev() {
            let theta = std::f64::consts::PI / f64::from(1u32 << (i - j));
            c.cp(theta, j, i);
        }
    }
    for q in 0..n / 2 {
        c.swap(q, n - 1 - q);
    }
    c
}

/// The inverse quantum Fourier transform on `n` qubits.
///
/// When `with_markers` is set, an [`crate::Operation::ApproxPoint`] is
/// inserted after each qubit's H+controlled-rotation block — the
/// locations the paper's fidelity-driven strategy uses inside Shor's
/// algorithm (Example 10: "after the controlled rotations during the
/// inverse QFT").
#[must_use]
pub fn inverse_qft(n: usize, with_markers: bool) -> Circuit {
    let mut c = Circuit::new(n, format!("iqft_{n}"));
    for q in 0..n / 2 {
        c.swap(q, n - 1 - q);
    }
    for i in 0..n {
        for j in 0..i {
            let theta = -std::f64::consts::PI / f64::from(1u32 << (i - j));
            c.cp(theta, j, i);
        }
        c.h(i);
        if with_markers {
            c.approx_point();
        }
    }
    c
}

/// Grover search marking the basis state `marked`, with
/// `iterations` rounds (pass `None` for the optimal
/// `⌊π/4 · √(2^n)⌋`).
///
/// # Panics
///
/// Panics if `n == 0` or `n > 63`, or if `marked >= 2^n`.
#[must_use]
pub fn grover(n: usize, marked: u64, iterations: Option<usize>) -> Circuit {
    assert!(n > 0 && n <= 63, "grover supports 1..=63 qubits");
    assert!(marked < (1u64 << n), "marked state out of range");
    let iters = iterations.unwrap_or_else(|| {
        let opt = std::f64::consts::FRAC_PI_4 * ((1u64 << n) as f64).sqrt();
        (opt.floor() as usize).max(1)
    });
    let mut c = Circuit::new(n, format!("grover_{n}_{marked:b}"));
    for q in 0..n {
        c.h(q);
    }
    for _ in 0..iters {
        // Oracle: flip the phase of |marked> using a multi-controlled Z
        // with negative controls on the zero bits.
        oracle_phase_flip(&mut c, n, marked);
        // Diffusion: H^n X^n (multi-controlled Z) X^n H^n.
        for q in 0..n {
            c.h(q);
        }
        oracle_phase_flip(&mut c, n, 0); // flips |0…0> phase
        for q in 0..n {
            c.h(q);
        }
        c.approx_point();
    }
    c
}

/// Appends a phase flip of basis state `marked`: Z on qubit n−1
/// controlled on all other qubits matching `marked` (negative controls
/// for zero bits), conjugated by X on the target when its bit is zero.
fn oracle_phase_flip(c: &mut Circuit, n: usize, marked: u64) {
    let target = n - 1;
    let controls: Vec<Control> = (0..n - 1)
        .map(|q| Control {
            qubit: q,
            positive: (marked >> q) & 1 == 1,
        })
        .collect();
    let target_bit = (marked >> target) & 1 == 1;
    if !target_bit {
        c.x(target);
    }
    if controls.is_empty() {
        c.z(target);
    } else {
        c.push(crate::op::Operation::Gate {
            gate: Gate::Z,
            target,
            controls,
        });
    }
    if !target_bit {
        c.x(target);
    }
}

/// Bernstein–Vazirani circuit recovering the `n`-bit secret `s` in one
/// query (the oracle is compiled inline as CZ/Z gates on the phase
/// register formulation).
///
/// # Panics
///
/// Panics if `n == 0` or `n > 63`, or if `secret >= 2^n`.
#[must_use]
pub fn bernstein_vazirani(n: usize, secret: u64) -> Circuit {
    assert!(n > 0 && n <= 63);
    assert!(secret < (1u64 << n));
    let mut c = Circuit::new(n, format!("bv_{n}"));
    for q in 0..n {
        c.h(q);
    }
    // Phase oracle for f(x) = s·x: a Z on every secret bit.
    for q in 0..n {
        if (secret >> q) & 1 == 1 {
            c.z(q);
        }
    }
    for q in 0..n {
        c.h(q);
    }
    c
}

/// Quantum phase estimation of the phase gate `diag(1, e^{iθ})` with
/// `n_counting` counting qubits: one target qubit prepared in `|1⟩`
/// (the eigenstate) below the counting register. Measuring the counting
/// register yields `round(θ/2π · 2^n)` with high probability. The same
/// phase-estimation skeleton underlies Shor's algorithm (Fig. 2).
///
/// Qubit layout: target = qubit 0, counting = qubits `1..=n_counting`.
///
/// # Panics
///
/// Panics if `n_counting == 0`.
#[must_use]
pub fn phase_estimation(n_counting: usize, theta: f64) -> Circuit {
    assert!(n_counting > 0);
    let mut c = Circuit::new(n_counting + 1, format!("qpe_{n_counting}"));
    c.x(0); // eigenstate |1> of the phase gate
    for j in 0..n_counting {
        c.h(1 + j);
    }
    // Controlled-U^(2^j): powers of a phase gate are phase gates with
    // the angle scaled (reduced mod 2π for numerical hygiene).
    for j in 0..n_counting {
        let angle = (theta * 2f64.powi(j as i32)) % std::f64::consts::TAU;
        c.controlled(Gate::Phase(angle), &[1 + j], 0);
    }
    let iqft = inverse_qft(n_counting, true);
    c.append(&iqft, 1);
    c
}

/// Deutsch–Jozsa on `n` input qubits with a phase oracle: `balanced`
/// selects a balanced function `f(x) = parity(x & mask)` with the given
/// non-zero mask; `None` uses the constant function. Measuring all
/// zeros ⇔ constant.
///
/// # Panics
///
/// Panics if the mask is zero or out of range.
#[must_use]
pub fn deutsch_jozsa(n: usize, balanced: Option<u64>) -> Circuit {
    assert!(n > 0 && n <= 63);
    let mut c = Circuit::new(n, format!("dj_{n}"));
    for q in 0..n {
        c.h(q);
    }
    if let Some(mask) = balanced {
        assert!(
            mask != 0 && mask < (1u64 << n),
            "balanced mask out of range"
        );
        for q in 0..n {
            if (mask >> q) & 1 == 1 {
                c.z(q);
            }
        }
    }
    for q in 0..n {
        c.h(q);
    }
    c
}

/// A random circuit: `depth` layers, each a row of random single-qubit
/// gates from {H, T, S, X, √X} followed by a random non-overlapping CX
/// pairing. Deterministic in `seed`.
#[must_use]
pub fn random_circuit(n: usize, depth: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n, format!("random_{n}_{depth}_{seed}"));
    let singles = [Gate::H, Gate::T, Gate::S, Gate::X, Gate::Sx];
    for _ in 0..depth {
        for q in 0..n {
            let g = singles[rng.gen_range(0..singles.len())];
            c.gate(g, q);
        }
        let mut qubits: Vec<usize> = (0..n).collect();
        for i in (1..qubits.len()).rev() {
            let j = rng.gen_range(0..=i);
            qubits.swap(i, j);
        }
        for pair in qubits.chunks(2) {
            if pair.len() == 2 && rng.gen_bool(0.5) {
                c.cx(pair[0], pair[1]);
            }
        }
    }
    c
}

/// A random **Clifford** circuit in the style of randomized
/// benchmarking: `depth` layers, each applying one uniformly random
/// single-qubit Clifford-alphabet gate per qubit followed by CX/CZ
/// gates on a random qubit pairing. Deterministic in `seed`; the whole
/// circuit classifies as Clifford
/// ([`crate::Circuit::is_clifford`]), so the stabilizer engine
/// simulates it in polynomial time at any width.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn random_clifford(n: usize, depth: usize, seed: u64) -> Circuit {
    assert!(n > 0, "random_clifford requires at least one qubit");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n, format!("clifford_{n}_{depth}_{seed}"));
    let singles = [
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::Sx,
        Gate::Sxdg,
        Gate::Sy,
        Gate::Sydg,
    ];
    for _ in 0..depth {
        for q in 0..n {
            let g = singles[rng.gen_range(0..singles.len())];
            c.gate(g, q);
        }
        let mut qubits: Vec<usize> = (0..n).collect();
        for i in (1..qubits.len()).rev() {
            let j = rng.gen_range(0..=i);
            qubits.swap(i, j);
        }
        for pair in qubits.chunks(2) {
            if pair.len() == 2 {
                if rng.gen_bool(0.5) {
                    c.cx(pair[0], pair[1]);
                } else {
                    c.cz(pair[0], pair[1]);
                }
            }
        }
    }
    c
}

/// A quantum-volume style circuit (Cross et al.): `depth` layers, each
/// a random qubit pairing with a Haar-random SU(4) dense block per
/// pair. These circuits scramble even faster than supremacy grids and
/// exercise the dense-block gate path. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn quantum_volume(n: usize, depth: usize, seed: u64) -> Circuit {
    assert!(n >= 2, "quantum volume needs at least two qubits");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n, format!("qv_{n}_{depth}_{seed}"));
    for layer in 0..depth {
        let mut qubits: Vec<usize> = (0..n).collect();
        for i in (1..qubits.len()).rev() {
            let j = rng.gen_range(0..=i);
            qubits.swap(i, j);
        }
        for (p, pair) in qubits.chunks(2).enumerate() {
            if pair.len() < 2 {
                continue;
            }
            let (a, b) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
            let u4 = random_unitary(4, &mut rng);
            if b == a + 1 {
                // Contiguous: place the block directly.
                c.dense_block(a, 2, u4, &[], format!("su4_l{layer}p{p}"));
            } else {
                // Route qubit b next to a with swaps, apply, swap back.
                c.swap(a + 1, b);
                c.dense_block(a, 2, u4, &[], format!("su4_l{layer}p{p}"));
                c.swap(a + 1, b);
            }
        }
        c.approx_point();
    }
    c
}

/// A Haar-ish random `dim × dim` unitary (row-major) via Gram–Schmidt
/// on complex Gaussian columns (Box–Muller from the given RNG).
#[allow(clippy::needless_range_loop)] // index loops span two columns at once
fn random_unitary(dim: usize, rng: &mut StdRng) -> Vec<Cplx> {
    let mut gauss = || {
        // Box-Muller transform.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    };
    // Columns of a random Gaussian matrix.
    let mut cols: Vec<Vec<Cplx>> = (0..dim)
        .map(|_| (0..dim).map(|_| Cplx::new(gauss(), gauss())).collect())
        .collect();
    // Gram-Schmidt orthonormalization.
    for i in 0..dim {
        for j in 0..i {
            let proj: Cplx = (0..dim).map(|r| cols[j][r].conj() * cols[i][r]).sum();
            for r in 0..dim {
                let adj = proj * cols[j][r];
                cols[i][r] -= adj;
            }
        }
        let norm: f64 = cols[i].iter().map(|z| z.mag2()).sum::<f64>().sqrt();
        for r in 0..dim {
            cols[i][r] = cols[i][r] / norm;
        }
    }
    // Row-major matrix with these orthonormal columns.
    let mut m = vec![Cplx::ZERO; dim * dim];
    for (c, col) in cols.iter().enumerate() {
        for (r, v) in col.iter().enumerate() {
            m[r * dim + c] = *v;
        }
    }
    m
}

/// The Cuccaro ripple-carry adder: computes `|a⟩|b⟩ → |a⟩|a+b⟩` with an
/// ancilla carry-in (qubit 0) and a carry-out qubit (the top qubit).
///
/// Qubit layout: `0` = carry-in ancilla (must be `|0⟩`),
/// `1..=n` = the `a` register (bit `i` of `a` on qubit `1+i`),
/// `n+1..=2n` = the `b` register, `2n+1` = carry-out.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn cuccaro_adder(n: usize) -> Circuit {
    assert!(n > 0, "adder needs at least one bit");
    let total = 2 * n + 2;
    let mut c = Circuit::new(total, format!("cuccaro_{n}"));
    let a = |i: usize| 1 + i;
    let b = |i: usize| 1 + n + i;
    let cin = 0usize;
    let cout = 2 * n + 1;

    // MAJ(x, y, z): y ^= z; x ^= z; z ^= x & y  (majority into z).
    let maj = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.cx(z, y);
        c.cx(z, x);
        c.ccx(x, y, z);
    };
    // UMA(x, y, z): the inverse companion restoring x and producing the
    // sum on y.
    let uma = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.ccx(x, y, z);
        c.cx(z, x);
        c.cx(x, y);
    };

    maj(&mut c, cin, b(0), a(0));
    for i in 1..n {
        maj(&mut c, a(i - 1), b(i), a(i));
    }
    c.cx(a(n - 1), cout);
    for i in (1..n).rev() {
        uma(&mut c, a(i - 1), b(i), a(i));
    }
    uma(&mut c, cin, b(0), a(0));
    c
}

/// A quantum-supremacy grid circuit in the style of Boixo et al.
/// ("Characterizing quantum supremacy in near-term devices", Nature
/// Physics 2018): `rows × cols` qubits, `depth` clock cycles of CZ
/// layers cycling through eight staggered patterns, interleaved with
/// the published single-qubit gate rules:
///
/// * cycle 0 applies H everywhere;
/// * a single-qubit gate is placed on a qubit only if it participated
///   in a CZ in the previous cycle;
/// * the first such gate on a qubit is a T; subsequent ones are chosen
///   uniformly from {√X, √Y} but never repeat the qubit's previous
///   single-qubit gate.
///
/// Qubit `(r, c)` maps to index `r * cols + c`. Deterministic in `seed`
/// (the paper's `qsup_AxB_C_k` instances correspond to distinct seeds).
///
/// # Panics
///
/// Panics if the grid is empty.
#[must_use]
pub fn supremacy(rows: usize, cols: usize, depth: usize, seed: u64) -> Circuit {
    assert!(rows > 0 && cols > 0, "supremacy grid must be non-empty");
    let n = rows * cols;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n, format!("qsup_{rows}x{cols}_{depth}_{seed}"));

    // Cycle 0: Hadamard everywhere.
    for q in 0..n {
        c.h(q);
    }

    // Per-qubit single-gate bookkeeping.
    let mut last_single: Vec<Option<Gate>> = vec![None; n];
    let mut in_prev_cz = vec![false; n];

    for cycle in 0..depth {
        // Single-qubit moment (rules above).
        for q in 0..n {
            if !in_prev_cz[q] {
                continue;
            }
            let g = match last_single[q] {
                None => Gate::T,
                Some(prev) => {
                    let choices: Vec<Gate> = [Gate::Sx, Gate::Sy]
                        .into_iter()
                        .filter(|g| *g != prev)
                        .collect();
                    choices[rng.gen_range(0..choices.len())]
                }
            };
            c.gate(g, q);
            last_single[q] = Some(g);
        }

        // CZ layer: one of eight staggered patterns.
        let mut in_cz = vec![false; n];
        for (a, b) in cz_layer_pairs(rows, cols, cycle % 8) {
            c.cz(a, b);
            in_cz[a] = true;
            in_cz[b] = true;
        }
        in_prev_cz = in_cz;
        c.approx_point();
    }
    c
}

/// The CZ pairs of supremacy layer pattern `layer` (0..8) on a
/// `rows × cols` grid: alternating horizontal/vertical neighbor pairs
/// with a stagger that shifts by two positions every other layer, so
/// all couplings are exercised across eight layers.
fn cz_layer_pairs(rows: usize, cols: usize, layer: usize) -> Vec<(usize, usize)> {
    let horizontal = layer.is_multiple_of(2);
    let shift = (layer / 2) % 4;
    let mut pairs = Vec::new();
    for r in 0..rows {
        for ccol in 0..cols {
            let (r2, c2) = if horizontal {
                (r, ccol + 1)
            } else {
                (r + 1, ccol)
            };
            if r2 >= rows || c2 >= cols {
                continue;
            }
            // Stagger: select every other coupling along the direction,
            // offset by the shift and the perpendicular coordinate.
            let key = if horizontal {
                2 * ccol + r
            } else {
                2 * r + ccol
            };
            if key % 4 != shift {
                continue;
            }
            pairs.push((r * cols + ccol, r2 * cols + c2));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Operation;

    fn approx_points(c: &Circuit) -> usize {
        c.len() - c.gate_count()
    }

    #[test]
    fn ghz_structure() {
        let c = ghz(5);
        assert_eq!(c.n_qubits(), 5);
        assert_eq!(c.gate_count(), 5); // 1 H + 4 CX
        c.validate().unwrap();
    }

    #[test]
    fn qft_gate_count() {
        // n H gates + n(n-1)/2 controlled phases + 3*floor(n/2) swap CXs.
        let n = 6;
        let c = qft(n);
        assert_eq!(c.gate_count(), n + n * (n - 1) / 2 + 3 * (n / 2));
        c.validate().unwrap();
    }

    #[test]
    fn inverse_qft_has_markers() {
        let c = inverse_qft(5, true);
        assert_eq!(approx_points(&c), 5);
        let c = inverse_qft(5, false);
        assert_eq!(approx_points(&c), 0);
    }

    #[test]
    fn grover_defaults_to_optimal_iterations() {
        let c = grover(4, 0b1010, None);
        // floor(pi/4 * 4) = 3 iterations.
        assert_eq!(approx_points(&c), 3);
        c.validate().unwrap();
    }

    #[test]
    fn bv_is_shallow() {
        let c = bernstein_vazirani(8, 0b1011_0010);
        // 2n H + popcount Z gates.
        assert_eq!(c.gate_count(), 16 + 4);
        c.validate().unwrap();
    }

    #[test]
    fn random_circuit_is_deterministic() {
        let a = random_circuit(5, 10, 42);
        let b = random_circuit(5, 10, 42);
        assert_eq!(a, b);
        let c = random_circuit(5, 10, 43);
        assert_ne!(a, c);
        a.validate().unwrap();
    }

    #[test]
    fn supremacy_validates_and_has_czs() {
        let c = supremacy(3, 3, 8, 0);
        c.validate().unwrap();
        let cz_count = c
            .ops()
            .iter()
            .filter(|op| {
                matches!(op, Operation::Gate { gate: Gate::Z, controls, .. } if !controls.is_empty())
            })
            .count();
        assert!(cz_count > 0, "supremacy circuit must contain CZ gates");
        // Initial H layer on all 9 qubits.
        let h_prefix = c
            .ops()
            .iter()
            .take(9)
            .filter(|op| matches!(op, Operation::Gate { gate: Gate::H, .. }))
            .count();
        assert_eq!(h_prefix, 9);
    }

    #[test]
    fn supremacy_single_qubit_rules() {
        let c = supremacy(2, 2, 10, 1);
        // After the initial H layer, the first single-qubit gate on any
        // qubit must be a T.
        let mut first_single: Vec<Option<Gate>> = vec![None; 4];
        for op in c.ops().iter().skip(4) {
            if let Operation::Gate {
                gate,
                target,
                controls,
            } = op
            {
                if controls.is_empty() && first_single[*target].is_none() {
                    first_single[*target] = Some(*gate);
                }
            }
        }
        for (q, g) in first_single.iter().enumerate() {
            if let Some(g) = g {
                assert_eq!(*g, Gate::T, "qubit {q} first single-qubit gate");
            }
        }
    }

    #[test]
    fn cz_layers_cover_all_couplings_over_eight_patterns() {
        let rows = 3;
        let cols = 4;
        let mut covered = std::collections::HashSet::new();
        for layer in 0..8 {
            for pair in cz_layer_pairs(rows, cols, layer) {
                covered.insert(pair);
            }
        }
        // Every horizontal + vertical neighbor coupling appears.
        let expected = rows * (cols - 1) + (rows - 1) * cols;
        assert_eq!(covered.len(), expected);
    }

    #[test]
    fn cz_layers_are_disjoint_within_a_layer() {
        for layer in 0..8 {
            let pairs = cz_layer_pairs(4, 5, layer);
            let mut used = std::collections::HashSet::new();
            for (a, b) in pairs {
                assert!(used.insert(a), "qubit {a} reused in layer {layer}");
                assert!(used.insert(b), "qubit {b} reused in layer {layer}");
            }
        }
    }

    #[test]
    fn w_state_validates() {
        for n in 1..6 {
            w_state(n).validate().unwrap();
        }
    }

    #[test]
    fn phase_estimation_validates_and_has_markers() {
        let c = phase_estimation(6, 1.234);
        assert_eq!(c.n_qubits(), 7);
        c.validate().unwrap();
        assert_eq!(approx_points(&c), 6, "markers from the inverse QFT");
    }

    #[test]
    fn random_unitary_is_unitary() {
        let mut rng = StdRng::seed_from_u64(3);
        let dim = 4;
        let m = random_unitary(dim, &mut rng);
        // U† U = I, checked entry-wise.
        for i in 0..dim {
            for j in 0..dim {
                let mut acc = approxdd_complex::Cplx::ZERO;
                for k in 0..dim {
                    acc += m[k * dim + i].conj() * m[k * dim + j];
                }
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (acc.re - want).abs() < 1e-10 && acc.im.abs() < 1e-10,
                    "({i},{j}): {acc}"
                );
            }
        }
    }

    #[test]
    fn quantum_volume_validates_and_is_deterministic() {
        let a = quantum_volume(5, 4, 9);
        let b = quantum_volume(5, 4, 9);
        assert_eq!(a, b);
        a.validate().unwrap();
        assert!(
            a.ops()
                .iter()
                .filter(|op| matches!(op, Operation::DenseBlock { .. }))
                .count()
                >= 4
        );
    }

    #[test]
    fn cuccaro_adder_structure() {
        let c = cuccaro_adder(4);
        assert_eq!(c.n_qubits(), 10);
        c.validate().unwrap();
        // 2n MAJ/UMA triples of 3 gates each + 1 carry CX.
        assert_eq!(c.gate_count(), 6 * 4 + 1);
    }

    #[test]
    fn deutsch_jozsa_shapes() {
        let constant = deutsch_jozsa(5, None);
        let balanced = deutsch_jozsa(5, Some(0b10101));
        constant.validate().unwrap();
        balanced.validate().unwrap();
        assert_eq!(constant.gate_count(), 10);
        assert_eq!(balanced.gate_count(), 13);
    }
}
