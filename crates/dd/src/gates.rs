//! Construction of operation (matrix) DDs: standard gates, controlled
//! gates with arbitrary control polarity and position, and multi-qubit
//! blocks given densely or as basis-state permutations (the building
//! block for Shor's modular-multiplication gates).
//!
//! # Construction scheme
//!
//! A gate is described by a contiguous *block* of `k` target qubits
//! `[lo, lo + k)` carrying a `2^k × 2^k` body, plus any number of
//! single-qubit controls outside the block. The full-width DD is built
//! in three zones:
//!
//! * **above the block** — a top-down scan: control levels branch into
//!   an "active" diagonal quadrant and an identity fallback, other
//!   levels are plain diagonal pass-through;
//! * **the block** — quadrant recursion over the body (dense lookup or
//!   permutation with zero-block short-circuit);
//! * **below the block** — each body entry `(r, c)` continues into a
//!   chain that enforces the remaining controls: satisfied paths carry
//!   the entry value, failing control paths fall back to identity if
//!   `r == c` (and to zero otherwise).
//!
//! This yields the exact operator `U ⊗ P_sat + I ⊗ (I − P_sat)` for any
//! placement of controls relative to the block.

use approxdd_complex::Cplx;

use crate::edge::MEdge;
use crate::error::DdError;
use crate::fasthash::FxHashMap;
use crate::package::{Package, MAX_QUBITS};
use crate::Result;

/// The single-qubit gate alphabet (possibly parameterized), shared by
/// the circuit IR (which re-exports it as `Gate`) and the DD gate
/// builders.
///
/// The variants cover the gate alphabet used by the paper's benchmark
/// circuits: Clifford+T, square roots of X/Y (quantum-supremacy
/// circuits), and parameterized rotations/phases (QFT).
///
/// # Examples
///
/// ```
/// use approxdd_dd::GateKind;
/// let h = GateKind::H.matrix();
/// assert!((h[0][0].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-15);
/// assert_eq!(GateKind::T.name(), "t");
/// assert_eq!(GateKind::Phase(0.5).inverse(), GateKind::Phase(-0.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum GateKind {
    /// Identity (useful for timing/padding in generated workloads).
    I,
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = diag(1, i).
    S,
    /// Inverse phase gate S†.
    Sdg,
    /// T gate = diag(1, e^{iπ/4}).
    T,
    /// Inverse T gate.
    Tdg,
    /// Square root of X (√X, a.k.a. V).
    Sx,
    /// Inverse square root of X.
    Sxdg,
    /// Square root of Y.
    Sy,
    /// Inverse square root of Y.
    Sydg,
    /// Phase gate diag(1, e^{iθ}).
    Phase(f64),
    /// Rotation about X by θ.
    Rx(f64),
    /// Rotation about Y by θ.
    Ry(f64),
    /// Rotation about Z by θ (global-phase-free convention
    /// diag(e^{-iθ/2}, e^{iθ/2})).
    Rz(f64),
}

impl GateKind {
    /// The 2×2 unitary matrix of this gate, row-major.
    #[must_use]
    pub fn matrix(self) -> [[Cplx; 2]; 2] {
        use std::f64::consts::FRAC_1_SQRT_2;
        let zero = Cplx::ZERO;
        let one = Cplx::ONE;
        match self {
            GateKind::I => [[one, zero], [zero, one]],
            GateKind::X => [[zero, one], [one, zero]],
            GateKind::Y => [[zero, Cplx::new(0.0, -1.0)], [Cplx::I, zero]],
            GateKind::Z => [[one, zero], [zero, Cplx::real(-1.0)]],
            GateKind::H => {
                let s = Cplx::real(FRAC_1_SQRT_2);
                [[s, s], [s, -s]]
            }
            GateKind::S => [[one, zero], [zero, Cplx::I]],
            GateKind::Sdg => [[one, zero], [zero, Cplx::new(0.0, -1.0)]],
            GateKind::T => [
                [one, zero],
                [zero, Cplx::from_polar(1.0, std::f64::consts::FRAC_PI_4)],
            ],
            GateKind::Tdg => [
                [one, zero],
                [zero, Cplx::from_polar(1.0, -std::f64::consts::FRAC_PI_4)],
            ],
            GateKind::Sx => {
                let a = Cplx::new(0.5, 0.5);
                let b = Cplx::new(0.5, -0.5);
                [[a, b], [b, a]]
            }
            GateKind::Sxdg => {
                let a = Cplx::new(0.5, -0.5);
                let b = Cplx::new(0.5, 0.5);
                [[a, b], [b, a]]
            }
            GateKind::Sy => {
                // √Y = ½ [[1+i, −1−i], [1+i, 1+i]]
                let a = Cplx::new(0.5, 0.5);
                [[a, -a], [a, a]]
            }
            GateKind::Sydg => {
                // (√Y)† = ½ [[1−i, 1−i], [−1+i, 1−i]]
                let a = Cplx::new(0.5, -0.5);
                [[a, a], [-a, a]]
            }
            GateKind::Phase(theta) => [[one, zero], [zero, Cplx::from_polar(1.0, theta)]],
            GateKind::Rx(theta) => {
                let c = Cplx::real((theta / 2.0).cos());
                let s = Cplx::new(0.0, -(theta / 2.0).sin());
                [[c, s], [s, c]]
            }
            GateKind::Ry(theta) => {
                let c = Cplx::real((theta / 2.0).cos());
                let s = Cplx::real((theta / 2.0).sin());
                [[c, -s], [s, c]]
            }
            GateKind::Rz(theta) => [
                [Cplx::from_polar(1.0, -theta / 2.0), zero],
                [zero, Cplx::from_polar(1.0, theta / 2.0)],
            ],
        }
    }

    /// The inverse gate.
    #[must_use]
    pub fn inverse(self) -> GateKind {
        match self {
            GateKind::S => GateKind::Sdg,
            GateKind::Sdg => GateKind::S,
            GateKind::T => GateKind::Tdg,
            GateKind::Tdg => GateKind::T,
            GateKind::Sx => GateKind::Sxdg,
            GateKind::Sxdg => GateKind::Sx,
            GateKind::Sy => GateKind::Sydg,
            GateKind::Sydg => GateKind::Sy,
            GateKind::Phase(t) => GateKind::Phase(-t),
            GateKind::Rx(t) => GateKind::Rx(-t),
            GateKind::Ry(t) => GateKind::Ry(-t),
            GateKind::Rz(t) => GateKind::Rz(-t),
            other => other,
        }
    }

    /// Lowercase mnemonic (OpenQASM style).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GateKind::I => "id",
            GateKind::X => "x",
            GateKind::Y => "y",
            GateKind::Z => "z",
            GateKind::H => "h",
            GateKind::S => "s",
            GateKind::Sdg => "sdg",
            GateKind::T => "t",
            GateKind::Tdg => "tdg",
            GateKind::Sx => "sx",
            GateKind::Sxdg => "sxdg",
            GateKind::Sy => "sy",
            GateKind::Sydg => "sydg",
            GateKind::Phase(_) => "p",
            GateKind::Rx(_) => "rx",
            GateKind::Ry(_) => "ry",
            GateKind::Rz(_) => "rz",
        }
    }

    /// The rotation/phase parameter, if the gate has one.
    #[must_use]
    pub fn parameter(self) -> Option<f64> {
        match self {
            GateKind::Phase(t) | GateKind::Rx(t) | GateKind::Ry(t) | GateKind::Rz(t) => Some(t),
            _ => None,
        }
    }
}

impl std::fmt::Display for GateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.parameter() {
            Some(t) => write!(f, "{}({t})", self.name()),
            None => f.write_str(self.name()),
        }
    }
}

/// The body of a multi-qubit block gate.
enum BlockBody<'a> {
    /// Row-major dense `2^k × 2^k` matrix.
    Dense(&'a [Cplx]),
    /// Basis-state permutation: column `c` maps to row `perm[c]`.
    Perm(&'a [usize]),
}

impl BlockBody<'_> {
    fn entry(&self, row: usize, col: usize) -> Cplx {
        match self {
            BlockBody::Dense(m) => {
                let dim = (m.len() as f64).sqrt() as usize;
                m[row * dim + col]
            }
            BlockBody::Perm(p) => {
                if p[col] == row {
                    Cplx::ONE
                } else {
                    Cplx::ZERO
                }
            }
        }
    }

    /// Whether the sub-block `rows × cols` is entirely zero (cheap exact
    /// test for permutations; dense blocks scan).
    fn block_is_zero(&self, row0: usize, col0: usize, size: usize) -> bool {
        match self {
            BlockBody::Perm(p) => !(col0..col0 + size).any(|c| {
                let r = p[c];
                r >= row0 && r < row0 + size
            }),
            BlockBody::Dense(m) => {
                let dim = (m.len() as f64).sqrt() as usize;
                (row0..row0 + size)
                    .all(|r| (col0..col0 + size).all(|c| m[r * dim + c] == Cplx::ZERO))
            }
        }
    }
}

struct GateBuilder<'a> {
    lo: usize,
    k: usize,
    body: BlockBody<'a>,
    /// Controls sorted descending by qubit; `(qubit, required_value)`.
    controls: Vec<(usize, bool)>,
    /// Memo for below-block continuation chains keyed by quantized
    /// entry weight and diagonal flag.
    below_memo: FxHashMap<(i64, i64, bool), MEdge>,
}

impl Package {
    /// The identity operation DD on `n_qubits` qubits (cached; the cached
    /// nodes are GC roots for the package's lifetime).
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` exceeds the supported maximum (255).
    #[must_use]
    pub fn identity(&mut self, n_qubits: usize) -> MEdge {
        assert!(n_qubits <= MAX_QUBITS, "identity: too many qubits");
        while self.ident_cache.len() <= n_qubits {
            let prev = *self.ident_cache.last().expect("cache is never empty");
            let var = (self.ident_cache.len() - 1) as u8;
            let e = self.make_mnode(var, [prev, MEdge::ZERO, MEdge::ZERO, prev]);
            self.inc_ref_m(e);
            self.ident_cache.push(e);
        }
        self.ident_cache[n_qubits]
    }

    /// Builds the DD of a single-qubit gate `u` on `target` within an
    /// `n_qubits`-wide register.
    ///
    /// # Errors
    ///
    /// [`DdError::QubitOutOfRange`] / [`DdError::TooManyQubits`] on
    /// malformed geometry.
    pub fn single_gate(
        &mut self,
        n_qubits: usize,
        target: usize,
        u: [[Cplx; 2]; 2],
    ) -> Result<MEdge> {
        self.controlled_gate(n_qubits, &[], target, u)
    }

    /// Builds a (multi-)controlled single-qubit gate with all controls
    /// positive (required value `|1⟩`).
    ///
    /// # Errors
    ///
    /// See [`Package::controlled_gate_polarized`].
    pub fn controlled_gate(
        &mut self,
        n_qubits: usize,
        controls: &[usize],
        target: usize,
        u: [[Cplx; 2]; 2],
    ) -> Result<MEdge> {
        let ctl: Vec<(usize, bool)> = controls.iter().map(|&c| (c, true)).collect();
        self.controlled_gate_polarized(n_qubits, &ctl, target, u)
    }

    /// Builds a controlled single-qubit gate with per-control polarity:
    /// `(qubit, true)` requires `|1⟩`, `(qubit, false)` requires `|0⟩`.
    ///
    /// # Errors
    ///
    /// [`DdError::QubitOutOfRange`], [`DdError::OverlappingQubits`] (a
    /// control equals the target or another control), or
    /// [`DdError::TooManyQubits`].
    pub fn controlled_gate_polarized(
        &mut self,
        n_qubits: usize,
        controls: &[(usize, bool)],
        target: usize,
        u: [[Cplx; 2]; 2],
    ) -> Result<MEdge> {
        let dense = [u[0][0], u[0][1], u[1][0], u[1][1]];
        self.block_gate(n_qubits, target, 1, BlockBody::Dense(&dense), controls)
    }

    /// Builds a gate whose body is a dense `2^k × 2^k` matrix acting on
    /// the contiguous qubits `[lo, lo + k)`, optionally controlled.
    ///
    /// # Errors
    ///
    /// [`DdError::InvalidMatrix`] if `entries.len() != 4^k`; geometry
    /// errors as in [`Package::controlled_gate_polarized`].
    pub fn dense_block_gate(
        &mut self,
        n_qubits: usize,
        lo: usize,
        k: usize,
        entries: &[Cplx],
        controls: &[(usize, bool)],
    ) -> Result<MEdge> {
        if k > 16 || entries.len() != (1usize << k) * (1usize << k) {
            return Err(DdError::InvalidMatrix {
                reason: "dense block must have 4^k entries with k <= 16",
            });
        }
        self.block_gate(n_qubits, lo, k, BlockBody::Dense(entries), controls)
    }

    /// Builds a gate whose body permutes the `2^k` basis states of the
    /// contiguous qubits `[lo, lo + k)`: basis state `|c⟩` maps to
    /// `|perm[c]⟩`. This is how modular-multiplication gates for Shor's
    /// algorithm are constructed without materializing a dense matrix.
    ///
    /// # Errors
    ///
    /// [`DdError::InvalidPermutation`] if `perm` is not a bijection on
    /// `0..2^k`; geometry errors as in
    /// [`Package::controlled_gate_polarized`].
    pub fn permutation_gate(
        &mut self,
        n_qubits: usize,
        lo: usize,
        k: usize,
        perm: &[usize],
        controls: &[(usize, bool)],
    ) -> Result<MEdge> {
        let dim = 1usize << k;
        if k > 26 || perm.len() != dim {
            return Err(DdError::InvalidPermutation);
        }
        let mut seen = vec![false; dim];
        for &p in perm {
            if p >= dim || seen[p] {
                return Err(DdError::InvalidPermutation);
            }
            seen[p] = true;
        }
        self.block_gate(n_qubits, lo, k, BlockBody::Perm(perm), controls)
    }

    fn block_gate(
        &mut self,
        n_qubits: usize,
        lo: usize,
        k: usize,
        body: BlockBody<'_>,
        controls: &[(usize, bool)],
    ) -> Result<MEdge> {
        if n_qubits > MAX_QUBITS {
            return Err(DdError::TooManyQubits {
                n_qubits,
                max: MAX_QUBITS,
            });
        }
        if k == 0 || lo + k > n_qubits {
            return Err(DdError::QubitOutOfRange {
                qubit: lo + k.saturating_sub(1),
                n_qubits,
            });
        }
        let mut seen = vec![false; n_qubits];
        seen[lo..lo + k].fill(true);
        for &(c, _) in controls {
            if c >= n_qubits {
                return Err(DdError::QubitOutOfRange { qubit: c, n_qubits });
            }
            if seen[c] {
                return Err(DdError::OverlappingQubits);
            }
            seen[c] = true;
        }
        // Pre-warm the identity cache up to full width (needed for
        // control-failure fallbacks at any level).
        let _ = self.identity(n_qubits);

        let mut builder = GateBuilder {
            lo,
            k,
            body,
            controls: controls.to_vec(),
            below_memo: FxHashMap::default(),
        };
        Ok(builder.build_upper(self, n_qubits as i64 - 1))
    }
}

impl GateBuilder<'_> {
    fn control_at(&self, v: i64) -> Option<bool> {
        self.controls
            .iter()
            .find(|(q, _)| *q as i64 == v)
            .map(|(_, pol)| *pol)
    }

    /// Builds levels above (and including the top of) the block, on the
    /// branch where all controls above the current level are satisfied.
    fn build_upper(&mut self, p: &mut Package, v: i64) -> MEdge {
        let block_top = (self.lo + self.k - 1) as i64;
        if v == block_top {
            let size = 1usize << self.k;
            return self.build_block(p, self.k as i64 - 1, 0, 0, size);
        }
        debug_assert!(v > block_top);
        let below = self.build_upper(p, v - 1);
        if let Some(pol) = self.control_at(v) {
            let ident = p.ident_cache[v as usize];
            let (e00, e11) = if pol { (ident, below) } else { (below, ident) };
            p.make_mnode(v as u8, [e00, MEdge::ZERO, MEdge::ZERO, e11])
        } else {
            p.make_mnode(v as u8, [below, MEdge::ZERO, MEdge::ZERO, below])
        }
    }

    /// Quadrant recursion inside the block. `level` counts block-internal
    /// levels (`k-1` at the top); `row0`/`col0`/`size` delimit the current
    /// sub-block of the body.
    fn build_block(
        &mut self,
        p: &mut Package,
        level: i64,
        row0: usize,
        col0: usize,
        size: usize,
    ) -> MEdge {
        if level < 0 {
            let w = self.body.entry(row0, col0);
            return self.build_below(p, w, row0 == col0);
        }
        // Zero sub-blocks can only be skipped when they cannot host an
        // identity fallback: either no control lives below the block, or
        // the sub-block does not touch the diagonal (row0 != col0).
        let has_below_controls = self.controls.iter().any(|(q, _)| *q < self.lo);
        let half = size / 2;
        let mut quads = [MEdge::ZERO; 4];
        for (i, q) in quads.iter_mut().enumerate() {
            let r = i >> 1;
            let c = i & 1;
            let (r0, c0) = (row0 + r * half, col0 + c * half);
            if (!has_below_controls || r0 != c0) && self.body.block_is_zero(r0, c0, half) {
                continue;
            }
            *q = self.build_block(p, level - 1, r0, c0, half);
        }
        p.make_mnode((self.lo as i64 + level) as u8, quads)
    }

    /// Builds the continuation below the block for a body entry with
    /// value `wsat` at a (row == col) position iff `diag`: paths on which
    /// all remaining (below-block) controls are satisfied terminate with
    /// weight `wsat`; a failing control falls back to identity when
    /// `diag`, and to zero otherwise.
    fn build_below(&mut self, p: &mut Package, wsat: Cplx, diag: bool) -> MEdge {
        if p.tolerance().is_zero(wsat) && !diag {
            return MEdge::ZERO;
        }
        let key = {
            let (a, b) = p.tolerance().key(wsat);
            (a, b, diag)
        };
        if let Some(&e) = self.below_memo.get(&key) {
            return e;
        }
        let e = self.build_below_rec(p, self.lo as i64 - 1, wsat, diag);
        self.below_memo.insert(key, e);
        e
    }

    fn build_below_rec(&mut self, p: &mut Package, v: i64, wsat: Cplx, diag: bool) -> MEdge {
        if v < 0 {
            return if p.tolerance().is_zero(wsat) {
                MEdge::ZERO
            } else {
                MEdge::terminal(wsat)
            };
        }
        let below = self.build_below_rec(p, v - 1, wsat, diag);
        if let Some(pol) = self.control_at(v) {
            let fallback = if diag {
                p.ident_cache[v as usize]
            } else {
                MEdge::ZERO
            };
            let (e00, e11) = if pol {
                (fallback, below)
            } else {
                (below, fallback)
            };
            p.make_mnode(v as u8, [e00, MEdge::ZERO, MEdge::ZERO, e11])
        } else {
            p.make_mnode(v as u8, [below, MEdge::ZERO, MEdge::ZERO, below])
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // dense-matrix comparisons read clearest indexed
mod tests {
    use super::*;

    fn close(a: Cplx, b: Cplx) -> bool {
        (a - b).mag() < 1e-10
    }

    /// Expands an n-qubit operator DD into a dense matrix by applying it
    /// to every basis state.
    fn to_dense(p: &mut Package, m: MEdge, n: usize) -> Vec<Vec<Cplx>> {
        let dim = 1usize << n;
        let mut cols = Vec::with_capacity(dim);
        for c in 0..dim {
            let v = p.basis_state(n, c as u64);
            let r = p.apply(m, v);
            cols.push(p.to_amplitudes(r, n).unwrap());
        }
        // cols[c][r] -> matrix[r][c]
        (0..dim)
            .map(|r| (0..dim).map(|c| cols[c][r]).collect())
            .collect()
    }

    #[test]
    fn x_gate_flips_target_only() {
        let mut p = Package::new();
        let x = p.single_gate(3, 1, GateKind::X.matrix()).unwrap();
        let m = to_dense(&mut p, x, 3);
        for c in 0..8usize {
            let want_row = c ^ 0b010;
            for r in 0..8 {
                let want = if r == want_row { Cplx::ONE } else { Cplx::ZERO };
                assert!(close(m[r][c], want), "entry ({r},{c})");
            }
        }
    }

    #[test]
    fn cnot_control_below_target() {
        let mut p = Package::new();
        // control q0 (low), target q1 (high)
        let cx = p.controlled_gate(2, &[0], 1, GateKind::X.matrix()).unwrap();
        let m = to_dense(&mut p, cx, 2);
        // |00>→|00>, |01>→|11>, |10>→|10>, |11>→|01>
        let expect = [(0usize, 0usize), (1, 3), (2, 2), (3, 1)];
        for (c, r_want) in expect {
            for r in 0..4 {
                let want = if r == r_want { Cplx::ONE } else { Cplx::ZERO };
                assert!(close(m[r][c], want), "entry ({r},{c})");
            }
        }
    }

    #[test]
    fn cnot_control_above_target() {
        let mut p = Package::new();
        let cx = p.controlled_gate(2, &[1], 0, GateKind::X.matrix()).unwrap();
        let m = to_dense(&mut p, cx, 2);
        // |00>→|00>, |01>→|01>, |10>→|11>, |11>→|10>
        let expect = [(0usize, 0usize), (1, 1), (2, 3), (3, 2)];
        for (c, r_want) in expect {
            assert!(close(m[r_want][c], Cplx::ONE));
        }
    }

    #[test]
    fn negative_control_fires_on_zero() {
        let mut p = Package::new();
        let cx = p
            .controlled_gate_polarized(2, &[(1, false)], 0, GateKind::X.matrix())
            .unwrap();
        let m = to_dense(&mut p, cx, 2);
        // fires when q1 = 0: |00>→|01>, |01>→|00>; identity on q1=1.
        assert!(close(m[1][0], Cplx::ONE));
        assert!(close(m[0][1], Cplx::ONE));
        assert!(close(m[2][2], Cplx::ONE));
        assert!(close(m[3][3], Cplx::ONE));
    }

    #[test]
    fn toffoli_from_two_controls() {
        let mut p = Package::new();
        let ccx = p
            .controlled_gate(3, &[0, 2], 1, GateKind::X.matrix())
            .unwrap();
        let m = to_dense(&mut p, ccx, 3);
        for c in 0..8usize {
            let fires = (c & 0b001 != 0) && (c & 0b100 != 0);
            let want_row = if fires { c ^ 0b010 } else { c };
            assert!(close(m[want_row][c], Cplx::ONE), "column {c}");
        }
    }

    #[test]
    fn controlled_phase_is_diagonal() {
        let mut p = Package::new();
        let theta = 0.731;
        let cp = p
            .controlled_gate(2, &[0], 1, GateKind::Phase(theta).matrix())
            .unwrap();
        let m = to_dense(&mut p, cp, 2);
        for c in 0..4usize {
            for r in 0..4 {
                let want = if r == c {
                    if c == 0b11 {
                        Cplx::from_polar(1.0, theta)
                    } else {
                        Cplx::ONE
                    }
                } else {
                    Cplx::ZERO
                };
                assert!(close(m[r][c], want), "entry ({r},{c})");
            }
        }
    }

    #[test]
    fn permutation_gate_matches_map() {
        let mut p = Package::new();
        // A 2-qubit cyclic shift |c> -> |c+1 mod 4> on the low qubits of 3.
        let perm = [1usize, 2, 3, 0];
        let g = p.permutation_gate(3, 0, 2, &perm, &[]).unwrap();
        let m = to_dense(&mut p, g, 3);
        for c in 0..8usize {
            let low = c & 0b11;
            let want_row = (c & 0b100) | perm[low];
            assert!(close(m[want_row][c], Cplx::ONE), "column {c}");
        }
    }

    #[test]
    fn controlled_permutation_with_control_above() {
        let mut p = Package::new();
        let perm = [1usize, 0, 3, 2]; // X on low qubit of the block
        let g = p.permutation_gate(3, 0, 2, &perm, &[(2, true)]).unwrap();
        let m = to_dense(&mut p, g, 3);
        for c in 0..8usize {
            let want_row = if c & 0b100 != 0 {
                (c & 0b100) | perm[c & 0b11]
            } else {
                c
            };
            assert!(close(m[want_row][c], Cplx::ONE), "column {c}");
        }
    }

    #[test]
    fn permutation_rejects_non_bijection() {
        let mut p = Package::new();
        assert!(matches!(
            p.permutation_gate(2, 0, 1, &[0, 0], &[]),
            Err(DdError::InvalidPermutation)
        ));
        assert!(matches!(
            p.permutation_gate(2, 0, 1, &[0, 5], &[]),
            Err(DdError::InvalidPermutation)
        ));
    }

    #[test]
    fn geometry_errors() {
        let mut p = Package::new();
        assert!(matches!(
            p.single_gate(2, 5, GateKind::X.matrix()),
            Err(DdError::QubitOutOfRange { .. })
        ));
        assert!(matches!(
            p.controlled_gate(3, &[1], 1, GateKind::X.matrix()),
            Err(DdError::OverlappingQubits)
        ));
        assert!(matches!(
            p.controlled_gate(3, &[0, 0], 1, GateKind::X.matrix()),
            Err(DdError::OverlappingQubits)
        ));
    }

    #[test]
    fn all_standard_gates_are_unitary() {
        let mut p = Package::new();
        let gates = [
            GateKind::I,
            GateKind::X,
            GateKind::Y,
            GateKind::Z,
            GateKind::H,
            GateKind::S,
            GateKind::Sdg,
            GateKind::T,
            GateKind::Tdg,
            GateKind::Sx,
            GateKind::Sxdg,
            GateKind::Sy,
            GateKind::Sydg,
            GateKind::Phase(0.3),
            GateKind::Rx(1.1),
            GateKind::Ry(-0.7),
            GateKind::Rz(2.9),
        ];
        for g in gates {
            let dd = p.single_gate(2, 0, g.matrix()).unwrap();
            let dag = p.conj_transpose(dd);
            let prod = p.mul_mm(dd, dag);
            let id = p.identity(2);
            assert_eq!(prod.node, id.node, "{g:?} not unitary");
            assert!(close(prod.w, id.w), "{g:?} not unitary: {}", prod.w);
        }
    }

    #[test]
    fn identity_cache_is_stable() {
        let mut p = Package::new();
        let a = p.identity(4);
        let b = p.identity(4);
        assert_eq!(a, b);
        let small = p.identity(2);
        assert_eq!(p.mlevel(small), 2);
    }
}
