//! Aaronson–Gottesman stabilizer-tableau simulation with exact global
//! phase.
//!
//! A [`Tableau`] stores the CHP bit-matrix form of a stabilizer state
//! (2n rows of X/Z bits plus a sign column) and additionally tracks a
//! **witness**: one basis state in the support together with its exact
//! amplitude. The witness is what turns the textbook tableau — which
//! only knows the state up to global phase — into a full engine:
//! amplitudes, probabilities, dense export and exact sampling all
//! derive from it.
//!
//! Amplitudes of a stabilizer state are always of the form
//! `2^{e/2} · ω^m` with `ω = e^{iπ/4}`, so the witness amplitude is the
//! integer pair [`Amp`] `(e, m)` and every update is exact integer
//! arithmetic — there is no float drift even at 60+ qubits, where
//! amplitudes (`2^{-30}` and below) would be indistinguishable from
//! zero under any fixed float tolerance.
//!
//! Samples are drawn from the caller-supplied RNG (one `bool` per
//! support dimension), which is how the backend layer keeps results
//! byte-identical across worker counts: the RNG is seeded per-job from
//! the deterministic seed stream, never from worker-local state.
//!
//! `AnyBackend` in `approxdd_exec::backend` runs it behind the
//! builder's `Engine` knob (crate dependency order); this crate exposes
//! the raw engine.
//!
//! # Examples
//!
//! ```
//! use approxdd_circuit::generators;
//! use approxdd_stabilizer::Tableau;
//!
//! let t = Tableau::run(&generators::ghz(40)).unwrap();
//! assert_eq!(t.support_rank(), 1); // |0…0⟩ + |1…1⟩
//! assert!((t.probability(0) - 0.5).abs() < 1e-12);
//! assert!((t.probability((1u64 << 40) - 1) - 0.5).abs() < 1e-12);
//! assert_eq!(t.probability(1), 0.0);
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use approxdd_circuit::{Circuit, CliffordGate, CliffordOp, Operation};
use approxdd_complex::Cplx;
use rand::Rng;

/// Widest register whose basis states fit a `u64` index (the DD package
/// shares this cap for `basis_state`).
pub const MAX_INDEXED_QUBITS: usize = 63;

/// Widest register [`Tableau::amplitudes`] will export densely.
pub(crate) const MAX_DENSE_QUBITS: usize = 26;

/// Errors from the stabilizer engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StabilizerError {
    /// The circuit contains an operation the tableau cannot execute.
    NonClifford {
        /// Index of the offending operation within the circuit.
        index: usize,
    },
    /// Register too wide for u64 basis indexing / dense export.
    TooManyQubits {
        /// Requested width.
        n_qubits: usize,
        /// Supported maximum for the attempted operation.
        max: usize,
    },
}

impl fmt::Display for StabilizerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StabilizerError::NonClifford { index } => {
                write!(f, "operation {index} is not Clifford")
            }
            StabilizerError::TooManyQubits { n_qubits, max } => {
                write!(f, "{n_qubits} qubits exceeds the supported {max}")
            }
        }
    }
}

impl Error for StabilizerError {}

/// An exact stabilizer amplitude `2^{e/2} · ω^m`, `ω = e^{iπ/4}`, or
/// zero.
///
/// Every nonzero amplitude of a stabilizer state has this form, and the
/// form is closed under the updates the tableau performs (Clifford
/// gates, measurement renormalization, amplitude ratios along the
/// stabilizer group), so the engine never touches floats until a value
/// leaves through [`Amp::to_cplx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Amp {
    zero: bool,
    /// Exponent of √2.
    e: i32,
    /// Exponent of ω, mod 8.
    m: u8,
}

impl Amp {
    /// The amplitude 1.
    #[must_use]
    pub(crate) fn one() -> Self {
        Amp {
            zero: false,
            e: 0,
            m: 0,
        }
    }

    /// The amplitude 0.
    #[must_use]
    pub(crate) fn zero() -> Self {
        Amp {
            zero: true,
            e: 0,
            m: 0,
        }
    }

    /// Multiply by `i^quarter`.
    #[must_use]
    pub(crate) fn mul_i_pow(self, quarter: u32) -> Self {
        self.mul_omega_pow(2 * quarter)
    }

    /// Multiply by `ω^k`.
    #[must_use]
    pub(crate) fn mul_omega_pow(self, k: u32) -> Self {
        if self.zero {
            return self;
        }
        Amp {
            m: ((u32::from(self.m) + k) % 8) as u8,
            ..self
        }
    }

    /// Multiply by `√2^d` (`d` may be negative).
    #[must_use]
    pub(crate) fn mul_sqrt2_pow(self, d: i32) -> Self {
        if self.zero {
            return self;
        }
        Amp {
            e: self.e + d,
            ..self
        }
    }

    /// Squared magnitude, `2^e`.
    #[must_use]
    pub(crate) fn mag2(self) -> f64 {
        if self.zero {
            0.0
        } else {
            (self.e as f64).exp2()
        }
    }

    /// Convert to a complex float at the API boundary.
    #[must_use]
    pub fn to_cplx(self) -> Cplx {
        if self.zero {
            return Cplx::ZERO;
        }
        const S: f64 = std::f64::consts::FRAC_1_SQRT_2;
        const UNIT: [(f64, f64); 8] = [
            (1.0, 0.0),
            (S, S),
            (0.0, 1.0),
            (-S, S),
            (-1.0, 0.0),
            (-S, -S),
            (0.0, -1.0),
            (S, -S),
        ];
        let mag = ((self.e as f64) / 2.0).exp2();
        let (re, im) = UNIT[self.m as usize];
        Cplx::new(mag * re, mag * im)
    }

    /// Exact sum of two amplitudes of the *same* stabilizer state
    /// (their ratio is a 4th root of unity, so the ω-distance is even),
    /// then divided by √2 — the shape of every Hadamard update.
    /// `None` encodes destructive interference (exact zero).
    fn add_div_sqrt2(a: Option<Amp>, b: Option<Amp>) -> Option<Amp> {
        let out = match (a, b) {
            (None, None) => None,
            (Some(x), None) | (None, Some(x)) => Some(x),
            (Some(x), Some(y)) => {
                debug_assert_eq!(x.e, y.e, "same-state amplitudes share magnitude");
                let d = (u32::from(y.m) + 8 - u32::from(x.m)) % 8;
                match d {
                    0 => Some(x.mul_sqrt2_pow(2)),
                    4 => None,
                    2 => Some(x.mul_sqrt2_pow(1).mul_omega_pow(1)),
                    6 => Some(x.mul_sqrt2_pow(1).mul_omega_pow(7)),
                    _ => unreachable!("odd ω-distance between same-state amplitudes"),
                }
            }
        };
        out.map(|v| v.mul_sqrt2_pow(-1))
    }
}

/// A stabilizer state on `n` qubits in CHP tableau form plus a phase
/// witness.
///
/// Rows `0..n` are destabilizers, rows `n..2n` stabilizers; row `i` of
/// each half is conjugate to row `n+i` of the other. X/Z bits are
/// packed 64 per word.
#[derive(Debug, Clone)]
pub struct Tableau {
    n: usize,
    /// Words per row.
    w: usize,
    x: Vec<u64>,
    z: Vec<u64>,
    r: Vec<u8>,
    wit_b: Vec<u64>,
    wit_a: Amp,
}

/// The stabilizer generators in reduced row-echelon form over the
/// X-part, with exact `i^t` phases — the solver behind amplitudes,
/// probabilities and sampling.
struct GroupSolver {
    w: usize,
    rank: usize,
    x: Vec<u64>,
    z: Vec<u64>,
    /// Phase exponent of i, mod 4, per row.
    t: Vec<u8>,
    /// Pivot column per echelon row (`len == rank`).
    pivots: Vec<usize>,
}

/// `i`-exponent of the per-column phase when multiplying Pauli rows
/// `(x1, z1) · (x2, z2)`, summed bit-parallel over one word pair.
fn pauli_mul_phase_word(x1: u64, z1: u64, x2: u64, z2: u64) -> i64 {
    let plus = (x1 & z1 & z2 & !x2) | (x1 & !z1 & z2 & x2) | (!x1 & z1 & x2 & !z2);
    let minus = (x1 & z1 & x2 & !z2) | (x1 & !z1 & z2 & !x2) | (!x1 & z1 & x2 & z2);
    i64::from(plus.count_ones()) - i64::from(minus.count_ones())
}

impl GroupSolver {
    /// Multiply row `dst` (on the left by `src`): phases compose
    /// exactly; X/Z parts XOR.
    fn rowmul(&mut self, dst: usize, src: usize) {
        let w = self.w;
        let mut g = i64::from(self.t[dst]) + i64::from(self.t[src]);
        for k in 0..w {
            g += pauli_mul_phase_word(
                self.x[src * w + k],
                self.z[src * w + k],
                self.x[dst * w + k],
                self.z[dst * w + k],
            );
        }
        self.t[dst] = g.rem_euclid(4) as u8;
        for k in 0..w {
            self.x[dst * w + k] ^= self.x[src * w + k];
            self.z[dst * w + k] ^= self.z[src * w + k];
        }
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let w = self.w;
        for k in 0..w {
            self.x.swap(a * w + k, b * w + k);
            self.z.swap(a * w + k, b * w + k);
        }
        self.t.swap(a, b);
    }

    fn xbit(&self, row: usize, col: usize) -> bool {
        self.x[row * self.w + col / 64] >> (col % 64) & 1 == 1
    }

    /// Express `diff` (an X-part bit vector) as a product of echelon
    /// rows. Returns the accumulated group element `(x, z, t)` or
    /// `None` when `diff` is outside the span — i.e. the target basis
    /// state has amplitude exactly zero.
    fn decompose(&self, diff: &[u64]) -> Option<(Vec<u64>, Vec<u64>, u8)> {
        let w = self.w;
        let mut u = diff.to_vec();
        let mut ax = vec![0u64; w];
        let mut az = vec![0u64; w];
        let mut at: i64 = 0;
        for (idx, &col) in self.pivots.iter().enumerate() {
            if u[col / 64] >> (col % 64) & 1 == 1 {
                at += i64::from(self.t[idx]);
                for k in 0..w {
                    at += pauli_mul_phase_word(
                        self.x[idx * w + k],
                        self.z[idx * w + k],
                        ax[k],
                        az[k],
                    );
                    ax[k] ^= self.x[idx * w + k];
                    az[k] ^= self.z[idx * w + k];
                    u[k] ^= self.x[idx * w + k];
                }
            }
        }
        if u.iter().any(|&word| word != 0) {
            return None;
        }
        Some((ax, az, at.rem_euclid(4) as u8))
    }

    /// `i`-exponent of the amplitude ratio `⟨b ⊕ diff|ψ⟩ / ⟨b|ψ⟩`, or
    /// `None` when `b ⊕ diff` is outside the support.
    ///
    /// With `g = i^t X^u Z^v` the stabilizer element reaching the
    /// target, `⟨b'|ψ⟩ = ⟨b'|g|ψ⟩ = i^{t + |x∧z|} (−1)^{v·b} ⟨b|ψ⟩`.
    fn ratio_quarter(&self, b: &[u64], diff: &[u64]) -> Option<u32> {
        let (ax, az, at) = self.decompose(diff)?;
        let mut q = i64::from(at);
        let mut zb = 0u32;
        for k in 0..self.w {
            q += i64::from((ax[k] & az[k]).count_ones());
            zb ^= (az[k] & b[k]).count_ones() & 1;
        }
        q += 2 * i64::from(zb);
        Some(q.rem_euclid(4) as u32)
    }
}

impl Tableau {
    /// The all-zero computational basis state `|0…0⟩` on `n` qubits.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let w = n.div_ceil(64).max(1);
        let mut t = Tableau {
            n,
            w,
            x: vec![0; 2 * n * w],
            z: vec![0; 2 * n * w],
            r: vec![0; 2 * n],
            wit_b: vec![0; w],
            wit_a: Amp::one(),
        };
        for i in 0..n {
            t.x[i * w + i / 64] |= 1 << (i % 64); // destabilizer X_i
            t.z[(n + i) * w + i / 64] |= 1 << (i % 64); // stabilizer Z_i
        }
        t
    }

    /// Run a whole circuit from `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// [`StabilizerError::NonClifford`] at the first operation the
    /// tableau cannot execute.
    pub fn run(circuit: &Circuit) -> Result<Self, StabilizerError> {
        let mut t = Tableau::new(circuit.n_qubits());
        for (index, op) in circuit.ops().iter().enumerate() {
            t.apply_op(index, op)?;
        }
        Ok(t)
    }

    /// Register width.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Number of `u64` words backing the bit matrices — the tableau
    /// analogue of "peak nodes" for stats reporting.
    #[must_use]
    pub fn storage_words(&self) -> usize {
        self.x.len() + self.z.len() + self.wit_b.len()
    }

    /// Apply one circuit operation. Markers (barrier / approx point)
    /// are identities and return `Ok(false)`; executed gates return
    /// `Ok(true)`.
    ///
    /// # Errors
    ///
    /// [`StabilizerError::NonClifford`] when the operation has no
    /// tableau form; `index` is echoed back for diagnostics.
    pub fn apply_op(&mut self, index: usize, op: &Operation) -> Result<bool, StabilizerError> {
        if !op.is_gate() {
            return Ok(false);
        }
        let Some(cop) = op.clifford_op() else {
            return Err(StabilizerError::NonClifford { index });
        };
        self.apply_clifford(&cop);
        Ok(true)
    }

    /// Apply a classified Clifford operation.
    pub(crate) fn apply_clifford(&mut self, op: &CliffordOp) {
        match *op {
            CliffordOp::Single { gate, target } => self.apply_single(gate, target),
            CliffordOp::Controlled {
                gate,
                control,
                positive,
                target,
            } => {
                if !positive {
                    self.apply_single(CliffordGate::X, control);
                }
                match gate {
                    CliffordGate::X => self.apply_cx(control, target),
                    // CY = S(t) · CX · S†(t), exact including phase.
                    CliffordGate::Y => {
                        self.apply_single(CliffordGate::Sdg, target);
                        self.apply_cx(control, target);
                        self.apply_single(CliffordGate::S, target);
                    }
                    CliffordGate::Z => self.apply_cz(control, target),
                    _ => unreachable!("CliffordOp::Controlled is Pauli by construction"),
                }
                if !positive {
                    self.apply_single(CliffordGate::X, control);
                }
            }
        }
    }

    /// Apply an uncontrolled single-qubit Clifford gate.
    pub(crate) fn apply_single(&mut self, gate: CliffordGate, q: usize) {
        debug_assert!(q < self.n);
        match gate {
            CliffordGate::I => {}
            CliffordGate::X => {
                self.rows_x(q);
                self.toggle_wit_bit(q);
            }
            CliffordGate::Y => {
                // ⟨b⊕e_q|Y_q ψ⟩ = i(−1)^{b_q}⟨b|ψ⟩ with b_q the old bit.
                let old = self.wit_bit(q);
                self.rows_y(q);
                self.toggle_wit_bit(q);
                self.wit_a = self.wit_a.mul_omega_pow(2 + 4 * u32::from(old));
            }
            CliffordGate::Z => {
                self.rows_z(q);
                if self.wit_bit(q) {
                    self.wit_a = self.wit_a.mul_omega_pow(4);
                }
            }
            CliffordGate::H => self.apply_h(q),
            CliffordGate::S => {
                self.rows_s(q);
                if self.wit_bit(q) {
                    self.wit_a = self.wit_a.mul_omega_pow(2);
                }
            }
            CliffordGate::Sdg => {
                self.rows_sdg(q);
                if self.wit_bit(q) {
                    self.wit_a = self.wit_a.mul_omega_pow(6);
                }
            }
            // √X = H·S·H and √X† = H·S†·H, exact with no extra phase.
            CliffordGate::Sx => {
                self.apply_h(q);
                self.apply_single(CliffordGate::S, q);
                self.apply_h(q);
            }
            CliffordGate::Sxdg => {
                self.apply_h(q);
                self.apply_single(CliffordGate::Sdg, q);
                self.apply_h(q);
            }
            // √Y = ω·H·Z and √Y† = ω⁷·Z·H (rightmost factor first).
            CliffordGate::Sy => {
                self.apply_single(CliffordGate::Z, q);
                self.apply_h(q);
                self.wit_a = self.wit_a.mul_omega_pow(1);
            }
            CliffordGate::Sydg => {
                self.apply_h(q);
                self.apply_single(CliffordGate::Z, q);
                self.wit_a = self.wit_a.mul_omega_pow(7);
            }
        }
    }

    /// CNOT.
    pub(crate) fn apply_cx(&mut self, control: usize, target: usize) {
        debug_assert!(control < self.n && target < self.n && control != target);
        let w = self.w;
        let (cw, cm) = (control / 64, 1u64 << (control % 64));
        let (tw, tm) = (target / 64, 1u64 << (target % 64));
        for i in 0..2 * self.n {
            let xc = self.x[i * w + cw] & cm != 0;
            let zc = self.z[i * w + cw] & cm != 0;
            let xt = self.x[i * w + tw] & tm != 0;
            let zt = self.z[i * w + tw] & tm != 0;
            if xc && zt && (xt == zc) {
                self.r[i] ^= 1;
            }
            if xc {
                self.x[i * w + tw] ^= tm;
            }
            if zt {
                self.z[i * w + cw] ^= cm;
            }
        }
        if self.wit_bit(control) {
            self.toggle_wit_bit(target);
        }
    }

    /// CZ (native diagonal update; no Hadamard conjugation).
    pub(crate) fn apply_cz(&mut self, control: usize, target: usize) {
        debug_assert!(control < self.n && target < self.n && control != target);
        let w = self.w;
        let (cw, cm) = (control / 64, 1u64 << (control % 64));
        let (tw, tm) = (target / 64, 1u64 << (target % 64));
        for i in 0..2 * self.n {
            let xc = self.x[i * w + cw] & cm != 0;
            let zc = self.z[i * w + cw] & cm != 0;
            let xt = self.x[i * w + tw] & tm != 0;
            let zt = self.z[i * w + tw] & tm != 0;
            if xc && xt && (zc != zt) {
                self.r[i] ^= 1;
            }
            if xt {
                self.z[i * w + cw] ^= cm;
            }
            if xc {
                self.z[i * w + tw] ^= tm;
            }
        }
        if self.wit_bit(control) && self.wit_bit(target) {
            self.wit_a = self.wit_a.mul_omega_pow(4);
        }
    }

    /// Hadamard. The only gate whose witness update needs the
    /// stabilizer group: the new amplitude mixes the two old
    /// amplitudes at `q ← 0/1`, so one amplitude-ratio solve runs
    /// against the *pre-gate* tableau.
    fn apply_h(&mut self, q: usize) {
        debug_assert!(q < self.n);
        let (wq, m) = (q / 64, 1u64 << (q % 64));
        // Old amplitudes at the witness with qubit q forced to 0 / 1.
        let solver = self.group_solver();
        let mut diff = vec![0u64; self.w];
        diff[wq] = m;
        let other = solver
            .ratio_quarter(&self.wit_b, &diff)
            .map(|quarter| self.wit_a.mul_i_pow(quarter));
        let (a0, a1) = if self.wit_bit(q) {
            (other, Some(self.wit_a))
        } else {
            (Some(self.wit_a), other)
        };
        // New amplitudes: (a0 ± a1)/√2 at q ← 0 / 1; at least one is
        // nonzero because a0 or a1 is the witness amplitude itself.
        let neg = |a: Option<Amp>| a.map(|v| v.mul_omega_pow(4));
        match Amp::add_div_sqrt2(a0, a1) {
            Some(na) => {
                self.set_wit_bit(q, false);
                self.wit_a = na;
            }
            None => {
                let na = Amp::add_div_sqrt2(a0, neg(a1))
                    .expect("H keeps at least one of the two mixed amplitudes nonzero");
                self.set_wit_bit(q, true);
                self.wit_a = na;
            }
        }
        // Tableau rows after the witness is repaired.
        let w = self.w;
        for i in 0..2 * self.n {
            let xb = self.x[i * w + wq] & m != 0;
            let zb = self.z[i * w + wq] & m != 0;
            if xb && zb {
                self.r[i] ^= 1;
            }
            if xb != zb {
                self.x[i * w + wq] ^= m;
                self.z[i * w + wq] ^= m;
            }
        }
    }

    /// Exact amplitude in integer form.
    #[must_use]
    pub(crate) fn amplitude_amp(&self, basis: u64) -> Amp {
        assert!(
            self.n <= MAX_INDEXED_QUBITS,
            "u64 basis indexing caps at {MAX_INDEXED_QUBITS} qubits"
        );
        let solver = self.group_solver();
        let mut diff = vec![0u64; self.w];
        diff[0] = basis ^ self.wit_b[0];
        match solver.ratio_quarter(&self.wit_b, &diff) {
            Some(quarter) => self.wit_a.mul_i_pow(quarter),
            None => Amp::zero(),
        }
    }

    /// Exact probability of `basis`: `2^{−rank}` inside the support,
    /// `0` outside.
    #[must_use]
    pub fn probability(&self, basis: u64) -> f64 {
        self.amplitude_amp(basis).mag2()
    }

    /// Dense amplitude export (support enumerated by Gray code; the
    /// `2^n − 2^rank` off-support entries are exact zeros).
    ///
    /// # Errors
    ///
    /// [`StabilizerError::TooManyQubits`] beyond `MAX_DENSE_QUBITS`.
    pub fn amplitudes(&self) -> Result<Vec<Cplx>, StabilizerError> {
        if self.n > MAX_DENSE_QUBITS {
            return Err(StabilizerError::TooManyQubits {
                n_qubits: self.n,
                max: MAX_DENSE_QUBITS,
            });
        }
        let solver = self.group_solver();
        let mut out = vec![Cplx::ZERO; 1usize << self.n];
        // Walk the support incrementally: Gray-code step s toggles
        // echelon row trailing_zeros(s), so each step is one row
        // multiply instead of a fresh decomposition.
        let mut cur_b = self.wit_b[0];
        let (mut ax, mut az) = (0u64, 0u64);
        let mut at: i64 = 0;
        out[cur_b as usize] = self.wit_a.to_cplx();
        for s in 1u64..1u64 << solver.rank {
            let j = s.trailing_zeros() as usize;
            at += i64::from(solver.t[j]) + pauli_mul_phase_word(solver.x[j], solver.z[j], ax, az);
            ax ^= solver.x[j];
            az ^= solver.z[j];
            cur_b = self.wit_b[0] ^ ax;
            let q = (at
                + i64::from((ax & az).count_ones())
                + 2 * i64::from((az & self.wit_b[0]).count_ones() & 1))
            .rem_euclid(4) as u32;
            out[cur_b as usize] = self.wit_a.mul_i_pow(q).to_cplx();
        }
        Ok(out)
    }

    /// Draw one basis state: witness XOR a uniform subset of the
    /// support basis (one `bool` per support dimension, independent of
    /// tableau internals, so replaying the RNG replays the sample).
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        assert!(self.n <= MAX_INDEXED_QUBITS);
        let solver = self.group_solver();
        self.sample_with(&solver, rng)
    }

    /// Histogram of `shots` samples. Draws the same RNG sequence as
    /// `shots` individual [`Tableau::sample`] calls.
    #[must_use]
    pub fn sample_counts<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> HashMap<u64, usize> {
        assert!(self.n <= MAX_INDEXED_QUBITS);
        let solver = self.group_solver();
        let mut counts = HashMap::new();
        for _ in 0..shots {
            *counts.entry(self.sample_with(&solver, rng)).or_insert(0) += 1;
        }
        counts
    }

    fn sample_with<R: Rng + ?Sized>(&self, solver: &GroupSolver, rng: &mut R) -> u64 {
        let mut b = self.wit_b[0];
        for j in 0..solver.rank {
            if rng.gen::<bool>() {
                b ^= solver.x[j];
            }
        }
        b
    }

    /// Dimension `k` of the affine support: the state is a uniform
    /// superposition (with phases) over `2^k` basis states.
    #[must_use]
    pub fn support_rank(&self) -> usize {
        self.group_solver().rank
    }

    /// The tracked support basis state, as a `u64` index.
    #[must_use]
    pub fn witness_index(&self) -> u64 {
        assert!(self.n <= MAX_INDEXED_QUBITS);
        self.wit_b[0]
    }

    /// The exact amplitude at [`Tableau::witness_index`].
    #[must_use]
    pub fn witness_amplitude(&self) -> Amp {
        self.wit_a
    }

    /// X-bit `q` of stabilizer generator `i` (`i < n`).
    #[must_use]
    pub fn stabilizer_x(&self, i: usize, q: usize) -> bool {
        self.xbit(self.n + i, q)
    }

    /// Z-bit `q` of stabilizer generator `i`.
    #[must_use]
    pub fn stabilizer_z(&self, i: usize, q: usize) -> bool {
        self.z[(self.n + i) * self.w + q / 64] >> (q % 64) & 1 == 1
    }

    /// Sign bit of stabilizer generator `i` (`true` = −1).
    #[must_use]
    pub fn stabilizer_sign(&self, i: usize) -> bool {
        self.r[self.n + i] == 1
    }

    // ---- internals -----------------------------------------------------

    /// X: rows with a Z component flip sign (X Z X = −Z).
    fn rows_x(&mut self, q: usize) {
        let (wq, m) = (q / 64, 1u64 << (q % 64));
        for i in 0..2 * self.n {
            if self.z[i * self.w + wq] & m != 0 {
                self.r[i] ^= 1;
            }
        }
    }

    /// Z: rows with an X component flip sign.
    fn rows_z(&mut self, q: usize) {
        let (wq, m) = (q / 64, 1u64 << (q % 64));
        for i in 0..2 * self.n {
            if self.x[i * self.w + wq] & m != 0 {
                self.r[i] ^= 1;
            }
        }
    }

    /// Y: rows with exactly one of X/Z flip sign.
    fn rows_y(&mut self, q: usize) {
        let (wq, m) = (q / 64, 1u64 << (q % 64));
        for i in 0..2 * self.n {
            if (self.x[i * self.w + wq] & m != 0) != (self.z[i * self.w + wq] & m != 0) {
                self.r[i] ^= 1;
            }
        }
    }

    /// S: X → Y, Y → −X (r ^= x∧z; z ^= x).
    fn rows_s(&mut self, q: usize) {
        let (wq, m) = (q / 64, 1u64 << (q % 64));
        for i in 0..2 * self.n {
            let xb = self.x[i * self.w + wq] & m != 0;
            let zb = self.z[i * self.w + wq] & m != 0;
            if xb && zb {
                self.r[i] ^= 1;
            }
            if xb {
                self.z[i * self.w + wq] ^= m;
            }
        }
    }

    /// S†: X → −Y, Y → X (r ^= x∧¬z; z ^= x).
    fn rows_sdg(&mut self, q: usize) {
        let (wq, m) = (q / 64, 1u64 << (q % 64));
        for i in 0..2 * self.n {
            let xb = self.x[i * self.w + wq] & m != 0;
            let zb = self.z[i * self.w + wq] & m != 0;
            if xb && !zb {
                self.r[i] ^= 1;
            }
            if xb {
                self.z[i * self.w + wq] ^= m;
            }
        }
    }

    fn xbit(&self, row: usize, col: usize) -> bool {
        self.x[row * self.w + col / 64] >> (col % 64) & 1 == 1
    }

    fn wit_bit(&self, q: usize) -> bool {
        self.wit_b[q / 64] >> (q % 64) & 1 == 1
    }

    fn toggle_wit_bit(&mut self, q: usize) {
        self.wit_b[q / 64] ^= 1 << (q % 64);
    }

    fn set_wit_bit(&mut self, q: usize, v: bool) {
        if self.wit_bit(q) != v {
            self.toggle_wit_bit(q);
        }
    }

    /// Reduce copies of the stabilizer rows to reduced row echelon
    /// form over the X-part, phases tracked exactly.
    fn group_solver(&self) -> GroupSolver {
        let (n, w) = (self.n, self.w);
        let mut s = GroupSolver {
            w,
            rank: 0,
            x: self.x[n * w..2 * n * w].to_vec(),
            z: self.z[n * w..2 * n * w].to_vec(),
            t: self.r[n..2 * n].iter().map(|&b| 2 * b).collect(),
            pivots: Vec::new(),
        };
        let mut row = 0;
        for col in 0..n {
            let Some(p) = (row..n).find(|&i| s.xbit(i, col)) else {
                continue;
            };
            s.swap_rows(row, p);
            for i in 0..n {
                if i != row && s.xbit(i, col) {
                    s.rowmul(i, row);
                }
            }
            s.pivots.push(col);
            row += 1;
        }
        s.rank = row;
        debug_assert_eq!(
            self.wit_a.e,
            -(s.rank as i32),
            "normalized stabilizer amplitude is 2^{{-rank/2}}"
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_circuit::generators;
    use approxdd_circuit::{Circuit, Control, Gate};
    use approxdd_statevector::State;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_matches_statevector(circuit: &Circuit) {
        let t = Tableau::run(circuit).unwrap();
        let mut sv = State::zero(circuit.n_qubits());
        sv.run(circuit).unwrap();
        let got = t.amplitudes().unwrap();
        let want = sv.amplitudes();
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (g.re - w.re).abs() < 1e-12 && (g.im - w.im).abs() < 1e-12,
                "{}: amplitude {i}: tableau {g:?} vs statevector {w:?}",
                circuit.name()
            );
        }
    }

    #[test]
    fn single_gate_states_match_statevector_exactly() {
        for gate in [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::Sx,
            Gate::Sxdg,
            Gate::Sy,
            Gate::Sydg,
        ] {
            for pre in [None, Some(Gate::H), Some(Gate::X), Some(Gate::Sx)] {
                let mut c = Circuit::new(1, "single");
                if let Some(p) = pre {
                    c.gate(p, 0);
                }
                c.gate(gate, 0);
                assert_matches_statevector(&c);
            }
        }
    }

    #[test]
    fn two_qubit_gates_match_statevector_exactly() {
        for (name, builder) in [("cx", 0usize), ("cz", 1), ("cy", 2), ("ncx", 3), ("ncz", 4)] {
            for pre in 0..4u32 {
                let mut c = Circuit::new(2, name);
                if pre & 1 != 0 {
                    c.h(0);
                }
                if pre & 2 != 0 {
                    c.gate(Gate::Sy, 1);
                }
                let ctl = |gate, positive: bool| Operation::Gate {
                    gate,
                    target: 1,
                    controls: vec![if positive {
                        Control::positive(0)
                    } else {
                        Control::negative(0)
                    }],
                };
                match builder {
                    0 => c.cx(0, 1),
                    1 => c.cz(0, 1),
                    2 => c.push(ctl(Gate::Y, true)),
                    3 => c.push(ctl(Gate::X, false)),
                    _ => c.push(ctl(Gate::Z, false)),
                };
                assert_matches_statevector(&c);
            }
        }
    }

    #[test]
    fn random_clifford_circuits_match_statevector_exactly() {
        for n in 1..=6 {
            for seed in 0..8 {
                let c = generators::random_clifford(n, 12, seed);
                assert_matches_statevector(&c);
            }
        }
    }

    #[test]
    fn ghz_at_forty_qubits_is_exact() {
        let t = Tableau::run(&generators::ghz(40)).unwrap();
        let ones = (1u64 << 40) - 1;
        assert_eq!(t.support_rank(), 1);
        let a0 = t.amplitude_amp(0).to_cplx();
        let a1 = t.amplitude_amp(ones).to_cplx();
        let expected = (0.5f64).sqrt();
        assert!((a0.re - expected).abs() < 1e-12 && a0.im.abs() < 1e-15);
        assert!((a1.re - expected).abs() < 1e-12 && a1.im.abs() < 1e-15);
        // Off-support amplitudes are exact zeros, not small floats.
        assert_eq!(t.amplitude_amp(1).to_cplx(), Cplx::ZERO);
        assert_eq!(t.probability(ones - 1), 0.0);
    }

    #[test]
    fn probabilities_sum_to_one_over_the_support() {
        for seed in 0..6 {
            let c = generators::random_clifford(8, 10, seed);
            let t = Tableau::run(&c).unwrap();
            let k = t.support_rank();
            let p = t.probability(t.witness_index());
            assert!((p - 0.5f64.powi(k as i32)).abs() < 1e-15);
            let total: f64 = (0..1u64 << 8).map(|b| t.probability(b)).sum();
            assert!((total - 1.0).abs() < 1e-12, "seed {seed}: total {total}");
        }
    }

    #[test]
    fn sampling_stays_inside_the_support_and_replays() {
        let c = generators::random_clifford(9, 10, 3);
        let t = Tableau::run(&c).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let counts = t.sample_counts(256, &mut rng);
        for &b in counts.keys() {
            assert!(t.probability(b) > 0.0, "sampled {b} off-support");
        }
        // Same seed, per-shot draws: identical sequence.
        let mut rng2 = StdRng::seed_from_u64(42);
        let mut replay = HashMap::new();
        for _ in 0..256 {
            *replay.entry(t.sample(&mut rng2)).or_insert(0) += 1;
        }
        assert_eq!(counts, replay);
    }

    #[test]
    fn ghz_samples_are_all_zeros_or_all_ones() {
        let t = Tableau::run(&generators::ghz(24)).unwrap();
        let ones = (1u64 << 24) - 1;
        let mut rng = StdRng::seed_from_u64(7);
        let counts = t.sample_counts(200, &mut rng);
        assert!(counts.keys().all(|&b| b == 0 || b == ones));
        assert_eq!(counts.values().sum::<usize>(), 200);
        assert!(counts.len() == 2, "200 shots virtually surely hit both");
    }

    #[test]
    fn non_clifford_gate_is_rejected_with_its_index() {
        let mut c = Circuit::new(2, "t-gate");
        c.h(0).cx(0, 1).t(1);
        assert_eq!(
            Tableau::run(&c).err(),
            Some(StabilizerError::NonClifford { index: 2 })
        );
    }

    #[test]
    fn markers_are_skipped() {
        let mut c = Circuit::new(2, "markers");
        c.h(0);
        c.barrier();
        c.approx_point();
        c.cx(0, 1);
        let t = Tableau::run(&c).unwrap();
        assert_eq!(t.support_rank(), 1);
        assert!((t.probability(0b11) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn dense_export_caps_at_max_dense_qubits() {
        let t = Tableau::run(&generators::ghz(30)).unwrap();
        assert!(matches!(
            t.amplitudes(),
            Err(StabilizerError::TooManyQubits { n_qubits: 30, .. })
        ));
    }
}
