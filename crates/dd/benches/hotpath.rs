//! Microbenchmarks of the DD hot path the lossy-cache redesign targets:
//! `add`, `mul_mv` (gate application), `inner_product`, and
//! `sample_counts`, each on GHZ, QFT, and random-Clifford workloads,
//! plus the package lifecycle (construct, optionally one gate, drop)
//! that pooled execution pays once per job, and the per-gate and
//! per-round passes of an approximating run — `vsize`, `contributions`
//! and a budget `truncate` (whose preamble prints what one round
//! interns) — on a dense 12-qubit state and on a 4×4
//! supremacy-style state part-way through its circuit, and bare node
//! reads (`amplitude` walks) on the latter.
//!
//! Circuits are built from `Package` gate primitives directly (the
//! `dd` crate sits below the circuit IR, so depending on the
//! generators would be a dependency cycle). Run with
//! `cargo bench -p approxdd-dd`; CI runs `cargo bench -p approxdd-dd
//! -- --test` as a smoke pass so the harness cannot rot.

use std::cell::RefCell;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use approxdd_complex::Cplx;
use approxdd_dd::{GateKind, Package, VEdge};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// |GHZ_n⟩ = (|0…0⟩ + |1…1⟩)/√2 via H(0) then a CX ladder.
fn ghz_state(p: &mut Package, n: usize) -> VEdge {
    let mut state = p.zero_state(n);
    let h = p.single_gate(n, 0, GateKind::H.matrix()).expect("H");
    state = p.apply(h, state);
    for k in 1..n {
        let cx = p
            .controlled_gate(n, &[k - 1], k, GateKind::X.matrix())
            .expect("CX");
        state = p.apply(cx, state);
    }
    state
}

/// QFT of a skewed basis state: H plus controlled-phase cascades.
fn qft_state(p: &mut Package, n: usize) -> VEdge {
    let mut state = p.basis_state(n, 0b1011 & ((1 << n) - 1));
    for target in (0..n).rev() {
        let h = p.single_gate(n, target, GateKind::H.matrix()).expect("H");
        state = p.apply(h, state);
        for (k, control) in (0..target).rev().enumerate() {
            let angle = std::f64::consts::PI / f64::powi(2.0, (k + 1) as i32);
            let cp = p
                .controlled_gate(n, &[control], target, GateKind::Phase(angle).matrix())
                .expect("CP");
            state = p.apply(cp, state);
        }
    }
    state
}

/// One step of the 64-bit LCG the reproducible workloads draw from.
fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *seed
}

/// A reproducible random-Clifford state: H/S/CX picked by an LCG.
fn clifford_state(p: &mut Package, n: usize, depth: usize, mut seed: u64) -> VEdge {
    let mut state = p.zero_state(n);
    let mut next = move || (lcg(&mut seed) >> 33) as usize;
    for _ in 0..depth {
        for q in 0..n {
            let gate = match next() % 3 {
                0 => p.single_gate(n, q, GateKind::H.matrix()).expect("H"),
                1 => p.single_gate(n, q, GateKind::S.matrix()).expect("S"),
                _ => {
                    let c = (q + 1 + next() % (n - 1)) % n;
                    p.controlled_gate(n, &[c], q, GateKind::X.matrix())
                        .expect("CX")
                }
            };
            state = p.apply(gate, state);
        }
    }
    state
}

/// The three workloads at a common width.
fn workloads(n: usize) -> Vec<(&'static str, Package, VEdge)> {
    let mut out = Vec::new();
    let mut p = Package::new();
    let s = ghz_state(&mut p, n);
    out.push(("ghz", p, s));
    let mut p = Package::new();
    let s = qft_state(&mut p, n);
    out.push(("qft", p, s));
    let mut p = Package::new();
    let s = clifford_state(&mut p, n, 6, 0xDD);
    out.push(("clifford", p, s));
    out
}

fn bench_add(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_add");
    for (name, mut p, state) in workloads(12) {
        // A second, structurally different operand at the same level.
        let other = clifford_state(&mut p, 12, 4, 0xA5);
        group.bench_function(format!("{name}_12q"), |b| {
            b.iter(|| std::hint::black_box(p.add(state, other)));
        });
    }
    group.finish();
}

fn bench_mul_mv(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_mul_mv");
    for (name, mut p, state) in workloads(12) {
        let h = p.single_gate(12, 5, GateKind::H.matrix()).expect("H");
        let cz = p
            .controlled_gate(12, &[3], 8, GateKind::Z.matrix())
            .expect("CZ");
        group.bench_function(format!("{name}_h_12q"), |b| {
            b.iter(|| std::hint::black_box(p.apply(h, state)));
        });
        group.bench_function(format!("{name}_cz_12q"), |b| {
            b.iter(|| std::hint::black_box(p.apply(cz, state)));
        });
    }
    group.finish();
}

fn bench_inner(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_inner");
    for (name, mut p, state) in workloads(12) {
        let other = clifford_state(&mut p, 12, 4, 0xA5);
        group.bench_function(format!("{name}_12q"), |b| {
            b.iter(|| std::hint::black_box(p.inner_product(state, other)));
        });
        group.bench_function(format!("{name}_norm_12q"), |b| {
            b.iter(|| std::hint::black_box(p.inner_product(state, state)));
        });
    }
    group.finish();
}

fn bench_sample_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_sample_counts");
    for (name, p, state) in workloads(12) {
        // Sampling needs a unit-norm root; normalize defensively (the
        // workload builders already produce unit-norm states).
        let root = VEdge {
            w: state.w * Cplx::real(1.0 / state.w.mag().max(f64::MIN_POSITIVE)),
            node: state.node,
        };
        group.bench_function(format!("{name}_1024shots_12q"), |b| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| std::hint::black_box(p.sample_counts(root, 1024, &mut rng)));
        });
    }
    group.finish();
}

/// A dense 12-qubit state: 4096 unrelated amplitudes, one node per
/// sub-vector (4095 nodes).
fn dense_state(p: &mut Package) -> VEdge {
    let mut seed = 0x5EED_u64;
    let mut next = move || ((lcg(&mut seed) >> 11) as f64) / ((1u64 << 53) as f64) - 0.5;
    let amps: Vec<Cplx> = (0..1 << 12).map(|_| Cplx::new(next(), next())).collect();
    let norm = amps.iter().map(|a| a.mag2()).sum::<f64>().sqrt();
    let amps: Vec<Cplx> = amps.into_iter().map(|a| a / norm).collect();
    p.from_amplitudes(&amps).expect("4096 amplitudes")
}

/// A 4×4 supremacy-style circuit (H layer, then cycles of T/√X/√Y on
/// the qubits the previous cycle coupled and a staggered CZ pattern)
/// stopped after `cycles` cycles, where the state DD is near its
/// largest and the memory-driven scheme would be truncating.
fn supremacy_state(p: &mut Package, cycles: usize) -> VEdge {
    const SIDE: usize = 4;
    let n = SIDE * SIDE;
    let mut state = p.zero_state(n);
    for q in 0..n {
        let h = p.single_gate(n, q, GateKind::H.matrix()).expect("H");
        state = p.apply(h, state);
    }
    let mut coupled = vec![false; n];
    let mut singles = vec![0usize; n];
    for cycle in 0..cycles {
        for q in 0..n {
            if !coupled[q] {
                continue;
            }
            let kind = match singles[q] {
                0 => GateKind::T,
                k if (k + q) % 2 == 0 => GateKind::Sx,
                _ => GateKind::Sy,
            };
            singles[q] += 1;
            let g = p.single_gate(n, q, kind.matrix()).expect("single");
            state = p.apply(g, state);
        }
        coupled.fill(false);
        let horizontal = cycle % 2 == 0;
        let shift = (cycle / 2) % 4;
        for r in 0..SIDE {
            for c in 0..SIDE {
                let (r2, c2, key) = if horizontal {
                    (r, c + 1, 2 * c + r)
                } else {
                    (r + 1, c, 2 * r + c)
                };
                if r2 >= SIDE || c2 >= SIDE || key % 4 != shift {
                    continue;
                }
                let (a, b) = (r * SIDE + c, r2 * SIDE + c2);
                let cz = p
                    .controlled_gate(n, &[a], b, GateKind::Z.matrix())
                    .expect("CZ");
                state = p.apply(cz, state);
                coupled[a] = true;
                coupled[b] = true;
            }
        }
    }
    state
}

/// The two states the size and truncation passes are measured on.
fn approximation_workloads() -> Vec<(&'static str, Package, VEdge)> {
    let mut out = Vec::new();
    let mut p = Package::new();
    let s = dense_state(&mut p);
    out.push(("dense_12q", p, s));
    let mut p = Package::new();
    let s = supremacy_state(&mut p, 10);
    out.push(("supremacy_4x4", p, s));
    out
}

/// The per-gate size count of the run loop.
fn bench_vsize(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_vsize");
    for (name, p, state) in approximation_workloads() {
        println!("{name}: {} nodes", p.vsize(state));
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(p.vsize(state)));
        });
    }
    group.finish();
}

/// What reading a node costs, with nothing else in the loop: root-to-
/// terminal `amplitude` walks (16 node reads each) for a fixed
/// pseudo-random set of basis states on the supremacy state, whose
/// 65 450 nodes lie scattered over the arena's chunks.
fn bench_node_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_node_access");
    let mut p = Package::new();
    let state = supremacy_state(&mut p, 10);
    let mut seed = 0xACCE55_u64;
    let indices: Vec<u64> = (0..1024).map(|_| lcg(&mut seed) >> 48).collect();
    group.bench_function("supremacy_4x4_1024walks", |b| {
        b.iter(|| {
            indices
                .iter()
                .map(|&idx| std::hint::black_box(p.amplitude(state, idx)))
                .fold(Cplx::ZERO, |acc, a| acc + a)
        });
    });
    group.finish();
}

/// A Shor-like 27-qubit state: a 9-level tree of generic weights over
/// 512 distinct 18-level basis chains — a counting register in
/// superposition above a work register that holds one basis state per
/// branch.
fn shor_like_state(p: &mut Package) -> VEdge {
    let mut seed = 0x5407_u64;
    let mut state = VEdge::ZERO;
    for branch in 0..512u64 {
        let chain = lcg(&mut seed) >> 46;
        let mut part = || ((lcg(&mut seed) >> 11) as f64) / ((1u64 << 53) as f64) - 0.5;
        let weight = Cplx::new(part(), part());
        let term = p.basis_state(27, (branch << 18) | chain).scaled(weight);
        state = p.add(state, term);
    }
    state
}

/// |+⟩^n as a run leaves it: one H per qubit on `|0…0⟩`.
fn plus_state(p: &mut Package, n: usize) -> VEdge {
    let mut state = p.zero_state(n);
    for q in 0..n {
        let h = p.single_gate(n, q, GateKind::H.matrix()).expect("H");
        state = p.apply(h, state);
    }
    state
}

/// One cold H on the top qubit: the compute table is emptied (by an
/// untimed collection; state and gate are rooted) before every timed
/// application, so each one walks the operands instead of hitting the
/// root entry. Below the target the operator is the identity, and a
/// state node that carries its image (`crates/dd/src/ops.rs`, "The
/// identity rule") is answered without descending. (a) GHZ: two basis
/// chains, images at 0 ulps. (b) Shor-like: a tree of generic weights
/// over 512 such chains — images a few ulps off 1 above, 0 below. (c)
/// The supremacy state: generic weights throughout, nearly every image
/// off 1; what is left is the top level's own work, the `add`s that
/// merge its two halves, and the rare node without an image. (d) |+⟩^20
/// fresh out of its H gates: no image is 1 (0 of 20 nodes were
/// answerable while the rule knew only that case), all 20 are there.
fn bench_identity_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_identity_apply");
    let mut cases: Vec<(&str, usize, Package, VEdge)> = Vec::new();
    let mut p = Package::new();
    let s = ghz_state(&mut p, 24);
    cases.push(("ghz_24q", 24, p, s));
    let mut p = Package::new();
    let s = shor_like_state(&mut p);
    cases.push(("shor_like_27q", 27, p, s));
    let mut p = Package::new();
    let s = supremacy_state(&mut p, 10);
    cases.push(("supremacy_4x4", 16, p, s));
    let mut p = Package::new();
    let s = plus_state(&mut p, 20);
    cases.push(("plus_20q", 20, p, s));
    for (name, n, mut p, state) in cases {
        let h = p.single_gate(n, n - 1, GateKind::H.matrix()).expect("H");
        p.inc_ref(state);
        p.inc_ref_m(h);
        let _ = p.collect_garbage();
        let before = p.stats();
        let _ = p.apply(h, state);
        let after = p.stats();
        println!(
            "{name}: {} nodes; one cold H: {} lookups, {} identity skips",
            p.vsize(state),
            after.ct_hits + after.ct_misses - before.ct_hits - before.ct_misses,
            after.identity_skips - before.identity_skips
        );
        let p = RefCell::new(p);
        group.bench_function(format!("{name}_h_top"), |b| {
            b.iter_batched(
                || p.borrow_mut().collect_garbage(),
                |_| std::hint::black_box(p.borrow_mut().apply(h, state)),
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

/// The contribution pass every truncation round starts with.
fn bench_contributions(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_contributions");
    for (name, p, state) in approximation_workloads() {
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(p.contributions(state)));
        });
    }
    group.finish();
}

/// One whole round at the Table I budget: contributions, selection,
/// rebuild, size count. The preamble counts what one untimed round
/// interns (unique-table lookups, hits and misses): only the nodes a
/// removal touches — a clean sub-diagram comes back as its identity
/// image without a lookup (`crates/dd/src/approx.rs`, "What a round
/// touches").
fn bench_truncate_budget(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_truncate_budget");
    for (name, mut p, state) in approximation_workloads() {
        p.inc_ref(state);
        let before = p.stats();
        let round = p.truncate(state, 0.025).expect("unit-norm state");
        let after = p.stats();
        println!(
            "{name}: {} nodes; one round: {} removed, {} interned",
            round.size_before,
            round.removed_nodes,
            after.unique_hits + after.unique_misses - before.unique_hits - before.unique_misses
        );
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(p.truncate(state, 0.025).expect("unit-norm state")));
        });
    }
    group.finish();
}

/// What a pooled worker pays per job before any gate runs: building a
/// package (plain and layered over a snapshot) and dropping it, and the
/// same around one gate so a compute-cache slab is provisioned too.
fn bench_package_lifecycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_package_lifecycle");
    group.bench_function("new_drop", |b| {
        b.iter(|| drop(std::hint::black_box(Package::new())));
    });
    let mut base = Package::new();
    let _ = ghz_state(&mut base, 12);
    let snapshot = base.freeze();
    group.bench_function("with_snapshot_drop", |b| {
        b.iter(|| {
            drop(std::hint::black_box(Package::with_snapshot(
                &snapshot, None,
            )))
        });
    });
    group.bench_function("new_h_12q_drop", |b| {
        b.iter(|| {
            let mut p = Package::new();
            let state = p.zero_state(12);
            let h = p.single_gate(12, 5, GateKind::H.matrix()).expect("H");
            std::hint::black_box(p.apply(h, state))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_add,
    bench_mul_mv,
    bench_inner,
    bench_sample_counts,
    bench_vsize,
    bench_node_access,
    bench_identity_apply,
    bench_contributions,
    bench_truncate_budget,
    bench_package_lifecycle
);
criterion_main!(benches);
