//! Noise channels and noise models for stochastic trajectory
//! simulation.
//!
//! A [`NoiseChannel`] is a completely positive trace-preserving map
//! given in Kraus form `ρ → Σᵢ Kᵢ ρ Kᵢ†`. Every channel here is
//! normalized into a list of [`KrausBranch`]es: branch `i` carries a
//! fixed selection probability `qᵢ` and the *rescaled* operator
//! `Kᵢ/√qᵢ` as per-qubit factors. That one representation serves both
//! consumers:
//!
//! * **trajectory sampling** (`approxdd-noise`) selects a branch with
//!   probability `qᵢ` and inserts its factors into the op stream —
//!   Pauli factors as plain gates, general factors (amplitude damping)
//!   as 1-qubit [`Operation::DenseBlock`]s. Because the inserted
//!   operator is `Kᵢ/√qᵢ`, the expected outer product over trajectories
//!   is exactly `Σᵢ qᵢ (Kᵢ/√qᵢ) ρ (Kᵢ/√qᵢ)† = Σᵢ Kᵢ ρ Kᵢ†` — the
//!   channel itself, with no state-dependent branch probabilities
//!   needed. Pauli branches are unitary, so those trajectories stay
//!   normalized; amplitude-damping trajectories carry their importance
//!   weight in the state norm.
//! * the **exact density baseline** (`approxdd-statevector`'s
//!   `DensityMatrix`) applies `Σᵢ qᵢ Fᵢ ρ Fᵢ†` over the same branches.
//!
//! A [`NoiseModel`] attaches channels to a circuit: globally (after
//! every state-transforming operation), per gate name, and per qubit.
//! The model is pure data — deterministic to walk, cheap to clone —
//! so pooled trajectory sampling stays byte-identical across worker
//! counts.

use std::error::Error;
use std::fmt;

use approxdd_complex::Cplx;

use crate::gate::Gate;
use crate::op::Operation;

/// Errors from noise-model construction/validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NoiseError {
    /// A channel probability or damping rate outside `[0, 1]`.
    InvalidRate {
        /// The channel's name.
        channel: &'static str,
        /// The offending rate.
        rate: f64,
    },
    /// A two-qubit channel attached where only one qubit is available
    /// (per-qubit attachments accept only one-qubit channels).
    ArityMismatch {
        /// The channel's name.
        channel: &'static str,
    },
}

impl fmt::Display for NoiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseError::InvalidRate { channel, rate } => {
                write!(f, "{channel}: rate {rate} outside [0, 1]")
            }
            NoiseError::ArityMismatch { channel } => {
                write!(
                    f,
                    "{channel}: two-qubit channel needs a two-qubit attachment point"
                )
            }
        }
    }
}

impl Error for NoiseError {}

/// One single-qubit factor of a Kraus branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KrausFactor {
    /// A unitary factor expressible as a gate from the alphabet
    /// (identity/Pauli for the channels shipped here). Trajectories
    /// insert it as a plain [`Operation::Gate`]; identity factors are
    /// skipped entirely.
    Gate(Gate),
    /// A general (possibly non-unitary) 2×2 factor, row-major.
    /// Trajectories insert it as a width-1 [`Operation::DenseBlock`].
    Matrix([[Cplx; 2]; 2]),
}

impl KrausFactor {
    /// The factor as a dense 2×2 matrix (row-major).
    #[must_use]
    pub fn matrix(&self) -> [[Cplx; 2]; 2] {
        match self {
            KrausFactor::Gate(g) => g.matrix(),
            KrausFactor::Matrix(m) => *m,
        }
    }

    /// Whether inserting this factor is a no-op (the identity gate).
    #[must_use]
    pub fn is_identity(&self) -> bool {
        matches!(self, KrausFactor::Gate(Gate::I))
    }
}

/// One branch of a channel's Kraus decomposition: selection probability
/// `q` plus the rescaled operator `K/√q` as one factor per touched
/// qubit (`factors.len()` equals the channel's [`NoiseChannel::arity`]).
#[derive(Debug, Clone, PartialEq)]
pub struct KrausBranch {
    /// Fixed selection probability (branch probabilities sum to 1).
    pub probability: f64,
    /// Per-qubit factors of `K/√q`, one per channel slot.
    pub factors: Vec<KrausFactor>,
}

/// A noise channel in Kraus form. Rates are validated into `[0, 1]` by
/// the constructors.
///
/// # Examples
///
/// ```
/// use approxdd_circuit::noise::NoiseChannel;
///
/// let depol = NoiseChannel::depolarizing(0.01).unwrap();
/// assert_eq!(depol.arity(), 1);
/// let total: f64 = depol.branches().iter().map(|b| b.probability).sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// assert!(NoiseChannel::bit_flip(1.5).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum NoiseChannel {
    /// Single-qubit depolarizing: with probability `p`, apply a
    /// uniformly random non-identity Pauli (`p/3` each).
    Depolarizing1 {
        /// Error probability in `[0, 1]`.
        p: f64,
    },
    /// Two-qubit depolarizing: with probability `p`, apply a uniformly
    /// random non-identity Pauli pair (`p/15` each).
    Depolarizing2 {
        /// Error probability in `[0, 1]`.
        p: f64,
    },
    /// Bit flip: `X` with probability `p`.
    BitFlip {
        /// Error probability in `[0, 1]`.
        p: f64,
    },
    /// Phase flip: `Z` with probability `p`.
    PhaseFlip {
        /// Error probability in `[0, 1]`.
        p: f64,
    },
    /// Amplitude damping with rate `γ`: Kraus operators
    /// `K₀ = diag(1, √(1−γ))` and `K₁ = |0⟩⟨1|·√γ`.
    AmplitudeDamping {
        /// Damping rate in `[0, 1]`.
        gamma: f64,
    },
}

fn check_rate(channel: &'static str, rate: f64) -> Result<f64, NoiseError> {
    if rate.is_finite() && (0.0..=1.0).contains(&rate) {
        Ok(rate)
    } else {
        Err(NoiseError::InvalidRate { channel, rate })
    }
}

impl NoiseChannel {
    /// Single-qubit depolarizing with error probability `p`.
    ///
    /// # Errors
    ///
    /// [`NoiseError::InvalidRate`] outside `[0, 1]`.
    pub fn depolarizing(p: f64) -> Result<Self, NoiseError> {
        Ok(NoiseChannel::Depolarizing1 {
            p: check_rate("depolarizing", p)?,
        })
    }

    /// Two-qubit depolarizing with error probability `p`.
    ///
    /// # Errors
    ///
    /// [`NoiseError::InvalidRate`] outside `[0, 1]`.
    pub fn depolarizing2(p: f64) -> Result<Self, NoiseError> {
        Ok(NoiseChannel::Depolarizing2 {
            p: check_rate("depolarizing2", p)?,
        })
    }

    /// Bit-flip with error probability `p`.
    ///
    /// # Errors
    ///
    /// [`NoiseError::InvalidRate`] outside `[0, 1]`.
    pub fn bit_flip(p: f64) -> Result<Self, NoiseError> {
        Ok(NoiseChannel::BitFlip {
            p: check_rate("bit_flip", p)?,
        })
    }

    /// Phase-flip with error probability `p`.
    ///
    /// # Errors
    ///
    /// [`NoiseError::InvalidRate`] outside `[0, 1]`.
    pub fn phase_flip(p: f64) -> Result<Self, NoiseError> {
        Ok(NoiseChannel::PhaseFlip {
            p: check_rate("phase_flip", p)?,
        })
    }

    /// Amplitude damping with rate `γ`.
    ///
    /// # Errors
    ///
    /// [`NoiseError::InvalidRate`] outside `[0, 1]`.
    pub fn amplitude_damping(gamma: f64) -> Result<Self, NoiseError> {
        Ok(NoiseChannel::AmplitudeDamping {
            gamma: check_rate("amplitude_damping", gamma)?,
        })
    }

    /// Channel name for labels and error messages.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            NoiseChannel::Depolarizing1 { .. } => "depolarizing",
            NoiseChannel::Depolarizing2 { .. } => "depolarizing2",
            NoiseChannel::BitFlip { .. } => "bit_flip",
            NoiseChannel::PhaseFlip { .. } => "phase_flip",
            NoiseChannel::AmplitudeDamping { .. } => "amplitude_damping",
        }
    }

    /// Number of qubits the channel acts on (1 or 2).
    #[must_use]
    pub fn arity(&self) -> usize {
        match self {
            NoiseChannel::Depolarizing2 { .. } => 2,
            _ => 1,
        }
    }

    /// The channel's error rate (`p` or `γ`).
    #[must_use]
    pub(crate) fn rate(&self) -> f64 {
        match *self {
            NoiseChannel::Depolarizing1 { p }
            | NoiseChannel::Depolarizing2 { p }
            | NoiseChannel::BitFlip { p }
            | NoiseChannel::PhaseFlip { p } => p,
            NoiseChannel::AmplitudeDamping { gamma } => gamma,
        }
    }

    /// The Kraus branches. Selection probabilities are
    /// **trace-proportional**: `qᵢ = tr(Kᵢ†Kᵢ)/2ᵃ` (with `a` the
    /// arity), so `qᵢ = 0` exactly when `Kᵢ = 0` — zero branches are
    /// dropped and the `1/√qᵢ` rescaling of every surviving branch is
    /// well defined for *all* valid rates, including the γ = 1
    /// amplitude-damping edge where `K₀ = diag(1, 0)` is nonzero but
    /// its naive "keep probability" `1 − γ` vanishes. For the Pauli
    /// channels `tr(Kᵢ†Kᵢ)/2ᵃ` reduces to the usual error
    /// probabilities. Probabilities sum to 1 (trace preservation).
    #[must_use]
    pub fn branches(&self) -> Vec<KrausBranch> {
        let pauli1 = |g: Gate, q: f64| KrausBranch {
            probability: q,
            factors: vec![KrausFactor::Gate(g)],
        };
        let branches = match *self {
            NoiseChannel::BitFlip { p } => vec![pauli1(Gate::I, 1.0 - p), pauli1(Gate::X, p)],
            NoiseChannel::PhaseFlip { p } => vec![pauli1(Gate::I, 1.0 - p), pauli1(Gate::Z, p)],
            NoiseChannel::Depolarizing1 { p } => vec![
                pauli1(Gate::I, 1.0 - p),
                pauli1(Gate::X, p / 3.0),
                pauli1(Gate::Y, p / 3.0),
                pauli1(Gate::Z, p / 3.0),
            ],
            NoiseChannel::Depolarizing2 { p } => {
                let paulis = [Gate::I, Gate::X, Gate::Y, Gate::Z];
                let mut v = Vec::with_capacity(16);
                for a in paulis {
                    for b in paulis {
                        let q = if a == Gate::I && b == Gate::I {
                            1.0 - p
                        } else {
                            p / 15.0
                        };
                        v.push(KrausBranch {
                            probability: q,
                            factors: vec![KrausFactor::Gate(a), KrausFactor::Gate(b)],
                        });
                    }
                }
                v
            }
            NoiseChannel::AmplitudeDamping { gamma } => {
                // K₀ = diag(1, √(1−γ)), K₁ = √γ·|0⟩⟨1|. Trace-
                // proportional selection: q₀ = (2−γ)/2, q₁ = γ/2; the
                // inserted operators are Kᵢ/√qᵢ.
                let q0 = (2.0 - gamma) / 2.0;
                let q1 = gamma / 2.0;
                let k0 = [
                    [Cplx::real(1.0 / q0.sqrt()), Cplx::ZERO],
                    [Cplx::ZERO, Cplx::real(((1.0 - gamma) / q0).sqrt())],
                ];
                let k1 = [
                    [Cplx::ZERO, Cplx::real(std::f64::consts::SQRT_2)],
                    [Cplx::ZERO, Cplx::ZERO],
                ];
                vec![
                    KrausBranch {
                        probability: q0,
                        factors: vec![KrausFactor::Matrix(k0)],
                    },
                    KrausBranch {
                        probability: q1,
                        factors: vec![KrausFactor::Matrix(k1)],
                    },
                ]
            }
        };
        branches
            .into_iter()
            .filter(|b| b.probability > 0.0)
            .collect()
    }
}

/// Selects the branch of a cached table that a uniform draw
/// `r ∈ [0, 1)` lands in (cumulative walk; what the trajectory sampler
/// uses over a cached [`NoiseChannel::branches`] table).
///
/// # Panics
///
/// Panics on an empty table (channels always have ≥ 1 branch).
#[must_use]
pub fn select_branch(branches: &[KrausBranch], r: f64) -> &KrausBranch {
    let mut acc = 0.0;
    for branch in branches {
        acc += branch.probability;
        if r < acc {
            return branch;
        }
    }
    branches.last().expect("channels have ≥1 branch")
}

/// One channel application site: the channel plus the qubits it acts on
/// (length equals the channel's arity).
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseApplication {
    /// The channel to apply.
    pub channel: NoiseChannel,
    /// Target qubits in slot order.
    pub qubits: Vec<usize>,
}

/// A noise model: channels attached globally, per gate name, and per
/// qubit, applied after every state-transforming operation.
///
/// # Examples
///
/// ```
/// use approxdd_circuit::noise::{NoiseChannel, NoiseModel};
/// use approxdd_circuit::Circuit;
///
/// let model = NoiseModel::new()
///     .with_global(NoiseChannel::depolarizing(0.01).unwrap())
///     .with_gate("cx", NoiseChannel::depolarizing2(0.02).unwrap())
///     .with_qubit(0, NoiseChannel::amplitude_damping(0.05).unwrap());
/// model.validate().unwrap();
///
/// let mut c = Circuit::new(2, "bell");
/// c.h(1).cx(1, 0);
/// // h touches one qubit: global depolarizing only (no qubit-0 site).
/// assert_eq!(model.applications(&c.ops()[0]).len(), 1);
/// // cx touches both: 2 global + 1 per-gate + 1 per-qubit site.
/// assert_eq!(model.applications(&c.ops()[1]).len(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NoiseModel {
    global: Vec<NoiseChannel>,
    per_gate: Vec<(String, NoiseChannel)>,
    per_qubit: Vec<(usize, NoiseChannel)>,
}

impl NoiseModel {
    /// An ideal (noiseless) model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A uniform depolarizing model: rate `p` after every single-qubit
    /// gate (per touched qubit) and two-qubit depolarizing at the same
    /// rate after every multi-qubit operation — the standard NISQ
    /// smoke-test model.
    ///
    /// # Errors
    ///
    /// [`NoiseError::InvalidRate`] outside `[0, 1]`.
    pub fn depolarizing(p: f64) -> Result<Self, NoiseError> {
        Ok(Self::new()
            .with_global(NoiseChannel::depolarizing(p)?)
            .with_global(NoiseChannel::depolarizing2(p)?))
    }

    /// Attaches a channel after every state-transforming operation:
    /// arity-1 channels fire once per touched qubit, arity-2 channels
    /// once per operation touching ≥ 2 qubits (on its first two).
    #[must_use]
    pub fn with_global(mut self, channel: NoiseChannel) -> Self {
        self.global.push(channel);
        self
    }

    /// Attaches a channel to every operation whose base mnemonic is
    /// `gate` (`"h"`, `"cx"` matches controlled-X, `"perm"` for
    /// permutation blocks, `"unitary"` for dense blocks). Expansion to
    /// qubits follows [`NoiseModel::with_global`].
    #[must_use]
    pub fn with_gate(mut self, gate: impl Into<String>, channel: NoiseChannel) -> Self {
        self.per_gate.push((gate.into(), channel));
        self
    }

    /// Attaches a one-qubit channel to qubit `q`, firing whenever an
    /// operation touches `q`.
    #[must_use]
    pub fn with_qubit(mut self, q: usize, channel: NoiseChannel) -> Self {
        self.per_qubit.push((q, channel));
        self
    }

    /// Whether the model carries no channels at all.
    #[must_use]
    pub fn is_ideal(&self) -> bool {
        self.global.is_empty() && self.per_gate.is_empty() && self.per_qubit.is_empty()
    }

    /// Total number of attached channels (all three attachment kinds).
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.global.len() + self.per_gate.len() + self.per_qubit.len()
    }

    /// Checks rates and attachment arities.
    ///
    /// # Errors
    ///
    /// The first [`NoiseError`] found.
    pub fn validate(&self) -> Result<(), NoiseError> {
        let all = self
            .global
            .iter()
            .chain(self.per_gate.iter().map(|(_, c)| c))
            .chain(self.per_qubit.iter().map(|(_, c)| c));
        for channel in all {
            check_rate(channel.name(), channel.rate())?;
        }
        for (_, channel) in &self.per_qubit {
            if channel.arity() != 1 {
                return Err(NoiseError::ArityMismatch {
                    channel: channel.name(),
                });
            }
        }
        Ok(())
    }

    /// The base mnemonic a [`NoiseModel::with_gate`] attachment matches
    /// against (controls are ignored: `cx` matches as `"x"` *and*
    /// `"cx"` for convenience — see the match below).
    fn op_name(op: &Operation) -> Option<&'static str> {
        match op {
            Operation::Gate { gate, .. } => Some(gate.name()),
            Operation::Permutation { .. } => Some("perm"),
            Operation::DenseBlock { .. } => Some("unitary"),
            Operation::ApproxPoint | Operation::Barrier => None,
        }
    }

    fn matches_gate(key: &str, op: &Operation) -> bool {
        let Some(base) = Self::op_name(op) else {
            return false;
        };
        if key == base {
            return true;
        }
        // "cx"/"ccx"-style keys: controlled forms of a base mnemonic.
        if let Operation::Gate { controls, .. } = op {
            if !controls.is_empty() {
                if let Some(stripped) = key.strip_prefix('c') {
                    return stripped == base && controls.len() == 1
                        || key.strip_prefix("cc") == Some(base) && controls.len() == 2;
                }
            }
        }
        false
    }

    /// The channel application sites this model attaches to `op`, in a
    /// deterministic order (global, then per-gate, then per-qubit —
    /// each in attachment order). Markers and barriers get none.
    ///
    /// Both the trajectory sampler and the exact density baseline walk
    /// this same list, so the two agree on channel ordering (channels
    /// do not commute in general).
    #[must_use]
    pub fn applications(&self, op: &Operation) -> Vec<NoiseApplication> {
        if !op.is_gate() {
            return Vec::new();
        }
        let qubits = op.qubits();
        let mut sites = Vec::new();
        let mut expand = |channel: &NoiseChannel| match channel.arity() {
            1 => {
                for &q in &qubits {
                    sites.push(NoiseApplication {
                        channel: *channel,
                        qubits: vec![q],
                    });
                }
            }
            _ => {
                if qubits.len() >= 2 {
                    sites.push(NoiseApplication {
                        channel: *channel,
                        qubits: vec![qubits[0], qubits[1]],
                    });
                }
            }
        };
        for channel in &self.global {
            expand(channel);
        }
        for (key, channel) in &self.per_gate {
            if Self::matches_gate(key, op) {
                expand(channel);
            }
        }
        for (q, channel) in &self.per_qubit {
            // Arity-2 channels have no single-qubit attachment; the
            // mismatch is reported by validate() — never emitted as a
            // malformed site (a one-qubit site with a two-factor
            // branch would index past its qubit list downstream).
            if channel.arity() == 1 && qubits.contains(q) {
                sites.push(NoiseApplication {
                    channel: *channel,
                    qubits: vec![*q],
                });
            }
        }
        sites
    }
}

/// Deduplicated branch tables of a model's distinct channels — the one
/// table-resolution structure shared by the trajectory sampler and the
/// exact density baseline, so both always agree on which table a site
/// uses. Models attach a handful of distinct channels, so lookup is a
/// linear scan.
#[derive(Debug, Clone, Default)]
pub struct ChannelTables {
    channels: Vec<NoiseChannel>,
    tables: Vec<Vec<KrausBranch>>,
}

impl ChannelTables {
    /// An empty table set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The table index of `channel`, resolving its branches on first
    /// sight.
    pub fn index_of(&mut self, channel: NoiseChannel) -> usize {
        match self.channels.iter().position(|c| *c == channel) {
            Some(i) => i,
            None => {
                self.channels.push(channel);
                self.tables.push(channel.branches());
                self.channels.len() - 1
            }
        }
    }

    /// The branch table at `index` (as returned by
    /// [`ChannelTables::index_of`]).
    #[must_use]
    pub fn table(&self, index: usize) -> &[KrausBranch] {
        &self.tables[index]
    }

    /// Number of distinct channels resolved so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Whether no channel has been resolved yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    #[test]
    fn rates_are_validated() {
        assert!(NoiseChannel::bit_flip(-0.1).is_err());
        assert!(NoiseChannel::depolarizing(1.1).is_err());
        assert!(NoiseChannel::amplitude_damping(f64::NAN).is_err());
        assert!(NoiseChannel::phase_flip(0.0).is_ok());
        assert!(NoiseChannel::depolarizing2(1.0).is_ok());
    }

    #[test]
    fn branch_probabilities_sum_to_one() {
        for channel in [
            NoiseChannel::bit_flip(0.25).unwrap(),
            NoiseChannel::phase_flip(0.1).unwrap(),
            NoiseChannel::depolarizing(0.3).unwrap(),
            NoiseChannel::depolarizing2(0.2).unwrap(),
            NoiseChannel::amplitude_damping(0.4).unwrap(),
        ] {
            let total: f64 = channel.branches().iter().map(|b| b.probability).sum();
            assert!((total - 1.0).abs() < 1e-12, "{}: {total}", channel.name());
            for branch in channel.branches() {
                assert_eq!(branch.factors.len(), channel.arity());
            }
        }
    }

    #[test]
    fn zero_operator_branches_are_dropped() {
        // p = 0: only the identity branch survives, so a trajectory
        // never divides by √0.
        let branches = NoiseChannel::bit_flip(0.0).unwrap().branches();
        assert_eq!(branches.len(), 1);
        assert!(branches[0].factors[0].is_identity());
        // γ = 0: K₁ = √γ·|0⟩⟨1| is the zero operator and is dropped.
        let branches = NoiseChannel::amplitude_damping(0.0).unwrap().branches();
        assert_eq!(branches.len(), 1);
        assert!((branches[0].probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_amplitude_damping_keeps_the_nonzero_k0() {
        // γ = 1: the naive "keep probability" 1 − γ vanishes, but
        // K₀ = diag(1, 0) is NOT the zero operator — trace-proportional
        // selection keeps both branches at q = 1/2 and the channel
        // still satisfies Σ qᵢFᵢ†Fᵢ = I (covered by the completeness
        // test below). Dropping K₀ here would annihilate the ground
        // state: every |0⟩ population would vanish from trajectories
        // and the exact baseline alike.
        let branches = NoiseChannel::amplitude_damping(1.0).unwrap().branches();
        assert_eq!(branches.len(), 2);
        for branch in &branches {
            assert!((branch.probability - 0.5).abs() < 1e-12);
            let m = branch.factors[0].matrix();
            assert!(m.iter().flatten().all(|e| e.is_finite()));
            assert!(
                m.iter().flatten().any(|e| e.mag() > 0.0),
                "no branch may carry the zero operator"
            );
        }
    }

    #[test]
    fn kraus_completeness_sums_to_identity() {
        // Σ Kᵢ†Kᵢ = Σ qᵢ Fᵢ†Fᵢ = I for every channel.
        for channel in [
            NoiseChannel::bit_flip(0.3).unwrap(),
            NoiseChannel::depolarizing(0.2).unwrap(),
            NoiseChannel::amplitude_damping(0.37).unwrap(),
            NoiseChannel::amplitude_damping(0.0).unwrap(),
            NoiseChannel::amplitude_damping(1.0).unwrap(),
        ] {
            let mut sum = [[Cplx::ZERO; 2]; 2];
            for branch in channel.branches() {
                let m = branch.factors[0].matrix();
                for (r, sum_row) in sum.iter_mut().enumerate() {
                    for (c, slot) in sum_row.iter_mut().enumerate() {
                        let acc: Cplx = m.iter().map(|row| row[r].conj() * row[c]).sum();
                        *slot += acc.scale(branch.probability);
                    }
                }
            }
            for (r, sum_row) in sum.iter().enumerate() {
                for (c, value) in sum_row.iter().enumerate() {
                    let want = if r == c { 1.0 } else { 0.0 };
                    assert!(
                        (*value - Cplx::real(want)).mag() < 1e-12,
                        "{}: Σ K†K [{r}][{c}] = {value:?}",
                        channel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn select_walks_the_cumulative_distribution() {
        let branches = NoiseChannel::depolarizing(0.3).unwrap().branches();
        let select = |r| select_branch(&branches, r);
        assert!(select(0.0).factors[0].is_identity());
        assert!(select(0.69).factors[0].is_identity());
        assert!(!select(0.71).factors[0].is_identity());
        // r → 1 lands in the last branch, never panics.
        assert_eq!(select(0.999_999).factors.len(), 1);
    }

    #[test]
    fn model_applications_follow_attachments() {
        let model = NoiseModel::new()
            .with_global(NoiseChannel::depolarizing(0.01).unwrap())
            .with_global(NoiseChannel::depolarizing2(0.02).unwrap())
            .with_gate("t", NoiseChannel::phase_flip(0.1).unwrap())
            .with_qubit(1, NoiseChannel::amplitude_damping(0.2).unwrap());
        model.validate().unwrap();
        let mut c = Circuit::new(3, "m");
        c.t(0).cx(0, 1).approx_point();

        // t q[0]: global depol1 on qubit 0 + per-gate phase flip.
        let t_sites = model.applications(&c.ops()[0]);
        assert_eq!(t_sites.len(), 2);
        assert_eq!(t_sites[0].channel.name(), "depolarizing");
        assert_eq!(t_sites[1].channel.name(), "phase_flip");

        // cx q[0],q[1]: depol1 ×2 + depol2 + per-qubit damping on q1.
        let cx_sites = model.applications(&c.ops()[1]);
        assert_eq!(cx_sites.len(), 4);
        assert_eq!(cx_sites[2].channel.arity(), 2);
        assert_eq!(cx_sites[2].qubits, vec![1, 0]); // target first (op.qubits order)
        assert_eq!(cx_sites[3].qubits, vec![1]);

        // markers get nothing.
        assert!(model.applications(&c.ops()[2]).is_empty());
    }

    #[test]
    fn gate_keys_match_controlled_mnemonics() {
        let mut c = Circuit::new(3, "m");
        c.cx(0, 1).ccx(0, 1, 2).x(0);
        let cx_model = NoiseModel::new().with_gate("cx", NoiseChannel::bit_flip(0.1).unwrap());
        assert_eq!(cx_model.applications(&c.ops()[0]).len(), 2); // both cx qubits
        assert!(cx_model.applications(&c.ops()[1]).is_empty()); // not ccx
        assert!(cx_model.applications(&c.ops()[2]).is_empty()); // not bare x
        let x_model = NoiseModel::new().with_gate("x", NoiseChannel::bit_flip(0.1).unwrap());
        assert_eq!(x_model.applications(&c.ops()[2]).len(), 1);
    }

    #[test]
    fn per_qubit_rejects_two_qubit_channels() {
        let model = NoiseModel::new().with_qubit(0, NoiseChannel::depolarizing2(0.1).unwrap());
        assert!(matches!(
            model.validate(),
            Err(NoiseError::ArityMismatch { .. })
        ));
        // And applications() never emits the malformed site, so even
        // callers that skip validate() cannot index past a site's
        // qubit list.
        let mut c = Circuit::new(2, "m");
        c.cx(0, 1);
        assert!(model.applications(&c.ops()[0]).is_empty());
    }

    #[test]
    fn channel_tables_deduplicate_by_value() {
        let mut tables = ChannelTables::new();
        assert!(tables.is_empty());
        let depol = NoiseChannel::depolarizing(0.1).unwrap();
        let damp = NoiseChannel::amplitude_damping(0.2).unwrap();
        let a = tables.index_of(depol);
        let b = tables.index_of(damp);
        assert_eq!(tables.index_of(depol), a, "same channel, same table");
        assert_ne!(a, b);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables.table(a).len(), depol.branches().len());
    }

    #[test]
    fn ideal_model_is_ideal() {
        assert!(NoiseModel::new().is_ideal());
        assert!(!NoiseModel::depolarizing(0.01).unwrap().is_ideal());
        assert_eq!(NoiseModel::depolarizing(0.01).unwrap().channel_count(), 2);
    }
}
