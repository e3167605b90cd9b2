//! Monte-Carlo trajectory sampling: turning a circuit plus a
//! [`NoiseModel`] into one concrete noisy circuit per trajectory.
//!
//! For every state-transforming operation the sampler visits the
//! model's channel application sites in deterministic order
//! ([`NoiseModel::applications`]), draws one uniform variate per site
//! from a trajectory-local RNG, and inserts the selected Kraus branch
//! into the op stream: Pauli branches as plain gates (every one of
//! them Clifford, so Pauli-noise trajectories of a Clifford circuit
//! stay Clifford and run at tableau cost on the stabilizer and hybrid
//! engines), general branches
//! (amplitude damping) as width-1 dense blocks carrying the rescaled
//! operator `K/√q` (see [`approxdd_circuit::noise`] for why that makes
//! the trajectory mean reproduce the channel exactly).
//!
//! Because the site list and every channel's branch table depend only
//! on `(circuit, model)`, they are resolved **once** into a
//! [`TrajectoryPlan`]; sampling a trajectory then only draws variates
//! and clones ops — the pooled driver samples all trajectories on the
//! submitting thread before the parallel fan-out, so this serial
//! prefix stays cheap.
//!
//! Determinism: the inserted ops are a pure function of
//! `(circuit, model, seed)`. The pooled driver derives the seed of
//! trajectory `t` from the shared [`SeedStream`] under
//! [`DOMAIN_NOISE`], so sampled trajectories are byte-identical across
//! worker counts.
//!
//! [`SeedStream`]: approxdd_exec::SeedStream
//! [`DOMAIN_NOISE`]: approxdd_exec::DOMAIN_NOISE

use approxdd_circuit::noise::{select_branch, ChannelTables, KrausFactor, NoiseModel};
use approxdd_circuit::{Circuit, CliffordGate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One sampled noisy realization of a circuit.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// The circuit with the sampled noise operations inserted.
    pub(crate) circuit: Circuit,
    /// Non-identity noise operations actually inserted.
    pub(crate) noise_ops: usize,
}

/// One resolved channel application site: an index into the plan's
/// branch tables plus the target qubits.
#[derive(Debug, Clone)]
struct PlannedSite {
    table: usize,
    qubits: Vec<usize>,
    label: &'static str,
}

/// A circuit's noise sites and branch tables, resolved once so that
/// sampling many trajectories of the same `(circuit, model)` pair does
/// no per-trajectory model walking or branch-table rebuilding.
#[derive(Debug, Clone)]
pub struct TrajectoryPlan {
    circuit: Circuit,
    /// Per-op site lists, aligned with `circuit.ops()`.
    sites_per_op: Vec<Vec<PlannedSite>>,
    /// One branch table per distinct channel in the model.
    tables: ChannelTables,
}

impl TrajectoryPlan {
    /// Resolves the site list and branch tables of
    /// `(circuit, model)`.
    #[must_use]
    pub fn new(circuit: &Circuit, model: &NoiseModel) -> Self {
        let mut tables = ChannelTables::new();
        let sites_per_op = circuit
            .ops()
            .iter()
            .map(|op| {
                model
                    .applications(op)
                    .into_iter()
                    .map(|site| PlannedSite {
                        table: tables.index_of(site.channel),
                        qubits: site.qubits,
                        label: site.channel.name(),
                    })
                    .collect()
            })
            .collect();
        Self {
            circuit: circuit.clone(),
            sites_per_op,
            tables,
        }
    }

    /// Samples one trajectory, seeded by `seed` (deterministic: same
    /// plan and seed, same trajectory).
    #[must_use]
    pub(crate) fn sample(&self, seed: u64) -> Trajectory {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Circuit::new(self.circuit.n_qubits(), self.circuit.name());
        let mut noise_ops = 0usize;
        for (op, sites) in self.circuit.ops().iter().zip(&self.sites_per_op) {
            out.push(op.clone());
            for site in sites {
                // Exactly one draw per site, fired or not, so the RNG
                // stream position depends only on the site index.
                let branch = select_branch(self.tables.table(site.table), rng.gen::<f64>());
                for (slot, factor) in branch.factors.iter().enumerate() {
                    if factor.is_identity() {
                        continue;
                    }
                    let qubit = site.qubits[slot];
                    match factor {
                        KrausFactor::Gate(gate) => {
                            // Pauli branches are Clifford by
                            // construction, so inserting them preserves
                            // a circuit's Clifford prefix — the hybrid
                            // engine absorbs Pauli noise on Clifford
                            // circuits at tableau cost.
                            debug_assert!(
                                CliffordGate::of(*gate).is_some(),
                                "Kraus gate branches are Pauli (Clifford): {gate:?}"
                            );
                            out.gate(*gate, qubit);
                        }
                        KrausFactor::Matrix(m) => {
                            out.dense_block(
                                qubit,
                                1,
                                vec![m[0][0], m[0][1], m[1][0], m[1][1]],
                                &[],
                                site.label,
                            );
                        }
                    }
                    noise_ops += 1;
                }
            }
        }
        Trajectory {
            circuit: out,
            noise_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_circuit::generators;
    use approxdd_circuit::noise::NoiseChannel;
    use approxdd_circuit::Operation;

    /// Channel application sites of a plan (identical for every
    /// trajectory of one `(circuit, model)` pair).
    fn site_count(plan: &TrajectoryPlan) -> usize {
        plan.sites_per_op.iter().map(Vec::len).sum()
    }

    /// One trajectory from a plan built for this call alone.
    fn sample_trajectory(circuit: &Circuit, model: &NoiseModel, seed: u64) -> Trajectory {
        TrajectoryPlan::new(circuit, model).sample(seed)
    }

    #[test]
    fn sampling_is_deterministic_in_the_seed() {
        let circuit = generators::supremacy(2, 2, 8, 1);
        let model = NoiseModel::depolarizing(0.2).unwrap();
        let a = sample_trajectory(&circuit, &model, 99);
        let b = sample_trajectory(&circuit, &model, 99);
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.noise_ops, b.noise_ops);
        let c = sample_trajectory(&circuit, &model, 100);
        assert_ne!(a.circuit, c.circuit, "distinct seeds should diverge");
    }

    #[test]
    fn plan_reuse_matches_one_shot_sampling() {
        let circuit = generators::qft(4);
        let model = NoiseModel::new()
            .with_global(NoiseChannel::depolarizing(0.1).unwrap())
            .with_global(NoiseChannel::depolarizing2(0.1).unwrap())
            .with_qubit(0, NoiseChannel::amplitude_damping(0.2).unwrap());
        let plan = TrajectoryPlan::new(&circuit, &model);
        for seed in 0..20 {
            let planned = plan.sample(seed);
            let direct = sample_trajectory(&circuit, &model, seed);
            assert_eq!(planned.circuit, direct.circuit, "seed {seed}");
            assert_eq!(planned.noise_ops, direct.noise_ops);
        }
    }

    #[test]
    fn ideal_model_inserts_nothing() {
        let circuit = generators::ghz(5);
        let t = sample_trajectory(&circuit, &NoiseModel::new(), 7);
        assert_eq!(t.circuit.ops(), circuit.ops());
        assert_eq!(t.noise_ops, 0);
        assert_eq!(
            site_count(&TrajectoryPlan::new(&circuit, &NoiseModel::new())),
            0
        );
    }

    #[test]
    fn certain_bit_flip_inserts_one_x_per_site() {
        let mut circuit = Circuit::new(2, "xx");
        circuit.x(0).x(1);
        let model = NoiseModel::new().with_global(NoiseChannel::bit_flip(1.0).unwrap());
        let t = sample_trajectory(&circuit, &model, 1);
        assert_eq!(site_count(&TrajectoryPlan::new(&circuit, &model)), 2);
        assert_eq!(t.noise_ops, 2);
        assert_eq!(t.circuit.gate_count(), 4);
    }

    #[test]
    fn amplitude_damping_inserts_dense_blocks() {
        let mut circuit = Circuit::new(1, "x");
        circuit.x(0);
        let model = NoiseModel::new().with_global(NoiseChannel::amplitude_damping(1.0).unwrap());
        let t = sample_trajectory(&circuit, &model, 5);
        assert_eq!(t.noise_ops, 1);
        let inserted = &t.circuit.ops()[1];
        assert!(
            matches!(inserted, Operation::DenseBlock { k: 1, .. }),
            "{inserted:?}"
        );
        t.circuit.validate().unwrap();
    }

    #[test]
    fn pauli_noise_preserves_clifford_circuits() {
        let circuit = generators::random_clifford(5, 6, 11);
        assert!(circuit.is_clifford());
        let model = NoiseModel::new()
            .with_global(NoiseChannel::depolarizing(0.4).unwrap())
            .with_global(NoiseChannel::depolarizing2(0.4).unwrap());
        let plan = TrajectoryPlan::new(&circuit, &model);
        for seed in 0..50 {
            let t = plan.sample(seed);
            assert!(
                t.circuit.is_clifford(),
                "Pauli branches must keep the trajectory Clifford (seed {seed})"
            );
        }
    }

    #[test]
    fn insertion_rate_tracks_the_channel_rate() {
        let circuit = generators::qft(4);
        let p = 0.3;
        let model = NoiseModel::new().with_global(NoiseChannel::depolarizing(p).unwrap());
        let plan = TrajectoryPlan::new(&circuit, &model);
        let mut fired = 0usize;
        let mut sites = 0usize;
        for seed in 0..200 {
            let t = plan.sample(seed);
            fired += t.noise_ops;
            sites += site_count(&plan);
        }
        #[allow(clippy::cast_precision_loss)]
        let rate = fired as f64 / sites as f64;
        assert!((rate - p).abs() < 0.05, "empirical rate {rate} vs {p}");
    }
}
