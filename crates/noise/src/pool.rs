//! The pooled trajectory driver: Monte-Carlo noise trajectories
//! executed across a [`BackendPool`], aggregated into a
//! [`TrajectoryOutcome`].
//!
//! Trajectories are embarrassingly parallel, and the driver inherits
//! the pool's determinism contract wholesale: trajectory `t`'s noise
//! insertions are sampled (on the submitting thread) from
//! `SeedStream::seed(DOMAIN_NOISE, t)`, its measurement shots from the
//! pool's own `DOMAIN_RUN` stream, and `run_jobs` preserves input
//! order — so [`TrajectoryOutcome::fingerprint`] is byte-identical
//! across 1/2/8 workers for the same `(seed, model, circuit)`.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use approxdd_circuit::noise::NoiseModel;
use approxdd_circuit::Circuit;
use approxdd_exec::backend::{BackendStats, ExecError};
use approxdd_exec::{BackendPool, PoolJob, SeedStream, SharedDiagonal, DOMAIN_NOISE};
use approxdd_sim::{SimulatorBuilder, Strategy};

use crate::sampler::TrajectoryPlan;

/// Configuration of one trajectory run.
#[derive(Clone, Default)]
pub struct TrajectoryConfig {
    trajectories: usize,
    shots: usize,
    strategy: Option<Strategy>,
    observable: Option<SharedDiagonal>,
}

impl std::fmt::Debug for TrajectoryConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrajectoryConfig")
            .field("trajectories", &self.trajectories)
            .field("shots", &self.shots)
            .field("strategy", &self.strategy)
            .field("observable", &self.observable.is_some())
            .finish()
    }
}

impl TrajectoryConfig {
    /// `trajectories` Monte-Carlo samples, no shots, no observable.
    #[must_use]
    pub fn new(trajectories: usize) -> Self {
        Self {
            trajectories,
            ..Self::default()
        }
    }

    /// Draws `shots` measurement samples per trajectory into the merged
    /// histogram.
    #[must_use]
    pub fn shots(mut self, shots: usize) -> Self {
        self.shots = shots;
        self
    }

    /// Runs every trajectory under an approximation strategy override
    /// (instead of the pool template's policy) — noisy trajectories
    /// compose directly with the paper's truncation strategies.
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Evaluates the diagonal observable `Σ f(i)|i⟩⟨i|` on every
    /// trajectory's raw final state, worker-side. The trajectory mean
    /// of this value is an unbiased estimator of `tr(ρ O)` under the
    /// exact noisy evolution (see the crate docs), which is what
    /// `exact::exact_expectation` computes — the pair forms the
    /// statistical validation story. Dense-width-limited.
    #[must_use]
    pub fn observable(mut self, f: SharedDiagonal) -> Self {
        self.observable = Some(f);
        self
    }

    /// Shots per trajectory.
    #[must_use]
    pub fn shots_per_trajectory(&self) -> usize {
        self.shots
    }
}

/// Per-trajectory results (one entry per trajectory, in index order).
#[derive(Debug, Clone)]
pub struct TrajectoryRecord {
    /// Trajectory index (also its seed-stream index).
    pub(crate) index: usize,
    /// Non-identity noise operations inserted.
    pub(crate) noise_ops: usize,
    /// Measured fidelity of the trajectory's run (the DD engine's
    /// end-to-end approximation fidelity — 1.0 when the trajectory ran
    /// exactly).
    pub fidelity: f64,
    /// DD node count of the trajectory's final state.
    pub(crate) final_size: usize,
    /// The requested observable's value on this trajectory, if any.
    pub(crate) observable: Option<f64>,
    /// Full unified run statistics, including the per-trajectory DD
    /// package counters in [`BackendStats::dd`].
    pub stats: BackendStats,
}

/// The aggregated result of a pooled trajectory run.
#[derive(Debug, Clone)]
pub struct TrajectoryOutcome {
    /// Name of the base (noiseless) circuit.
    pub name: String,
    /// Register width.
    pub n_qubits: usize,
    /// Trajectories executed.
    pub trajectories: usize,
    /// Measurement shots drawn per trajectory.
    pub(crate) shots_per_trajectory: usize,
    /// Merged measurement histogram over all trajectories (empty when
    /// no shots were requested).
    pub counts: HashMap<u64, usize>,
    /// Mean of the per-trajectory measured fidelities.
    pub fidelity_mean: f64,
    /// Sample standard deviation (σ, n−1 denominator) of the measured
    /// fidelities.
    pub fidelity_std: f64,
    /// Mean of the per-trajectory observable values, when requested.
    pub observable_mean: Option<f64>,
    /// Sample standard deviation of the observable values.
    pub(crate) observable_std: Option<f64>,
    /// Total noise operations inserted across all trajectories.
    pub noise_ops_total: usize,
    /// Per-trajectory records, in trajectory order.
    pub records: Vec<TrajectoryRecord>,
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    #[allow(clippy::cast_precision_loss)]
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

impl TrajectoryOutcome {
    /// The standard error of the observable mean (`σ/√T`), if an
    /// observable was requested — the scale the statistical validation
    /// tolerance is stated in.
    #[must_use]
    pub fn observable_standard_error(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        self.observable_std
            .map(|s| s / (self.trajectories.max(1) as f64).sqrt())
    }

    /// A hash over every deterministic result field: the aggregate
    /// identity plus each trajectory's inserted-op count, measured
    /// fidelity, observable value and final DD size, and the merged
    /// histogram. Byte-identical across worker counts for the same
    /// `(seed, model, circuit)` — asserted by the workspace's
    /// `tests/noise_api.rs`.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.name.hash(&mut h);
        self.n_qubits.hash(&mut h);
        self.trajectories.hash(&mut h);
        self.shots_per_trajectory.hash(&mut h);
        let mut entries: Vec<(u64, usize)> = self.counts.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable();
        entries.hash(&mut h);
        for record in &self.records {
            record.index.hash(&mut h);
            record.noise_ops.hash(&mut h);
            record.fidelity.to_bits().hash(&mut h);
            record.final_size.hash(&mut h);
            record.observable.map(f64::to_bits).hash(&mut h);
            record.stats.gates_applied.hash(&mut h);
            record.stats.peak_size.hash(&mut h);
            record.stats.approx_rounds.hash(&mut h);
        }
        h.finish()
    }
}

/// A [`BackendPool`] paired with a [`NoiseModel`] and the noise seed
/// stream: the front door of stochastic noisy simulation.
///
/// Build one from a simulator template —
/// `Simulator::builder().noise(model).workers(4).build_noise_pool()`
/// (see [`BuildNoisePool`]) — and call [`NoisePool::run_trajectories`].
///
/// Templates with `share_snapshot(true)` apply here unchanged:
/// trajectory batches go through [`BackendPool::run_jobs`], which
/// freezes the batch's gate DDs once and layers every trajectory's
/// package over the shared prefix. Trajectories of one circuit share
/// most of their gates (noise only inserts channel operations), so the
/// amortization is usually even better than for plain batches, and the
/// determinism contract is identical — trajectory outcomes are
/// byte-identical with snapshots on or off.
///
/// The fault-tolerance layer is inherited the same way: a template's
/// `retry(...)` knob applies to every trajectory
/// job (trajectory batches are ordinary [`BackendPool::run_jobs`]
/// submissions), worker deaths self-heal mid-batch, and because
/// trajectory seeds are keyed on the trajectory index alone, a retried
/// trajectory reproduces its original channel insertions and samples
/// exactly.
///
/// # Examples
///
/// ```
/// use approxdd_circuit::generators;
/// use approxdd_circuit::noise::NoiseModel;
/// use approxdd_noise::{BuildNoisePool, TrajectoryConfig};
/// use approxdd_sim::Simulator;
///
/// # fn main() -> Result<(), approxdd_exec::backend::ExecError> {
/// let pool = Simulator::builder()
///     .noise(NoiseModel::depolarizing(0.02)?)
///     .seed(7)
///     .workers(2)
///     .build_noise_pool();
/// let outcome = pool.run_trajectories(
///     &generators::ghz(6),
///     &TrajectoryConfig::new(8).shots(256),
/// )?;
/// assert_eq!(outcome.trajectories, 8);
/// assert_eq!(outcome.counts.values().sum::<usize>(), 8 * 256);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NoisePool {
    pool: BackendPool,
    model: NoiseModel,
    seeds: SeedStream,
}

impl NoisePool {
    /// Builds from a simulator template, taking the noise model from
    /// [`SimulatorBuilder::noise`] (ideal when unset), the root seed
    /// from the builder seed, and the worker count from the `workers`
    /// knob.
    #[must_use]
    pub fn new(template: SimulatorBuilder) -> Self {
        let model = template.noise_model().cloned().unwrap_or_default();
        Self::with_model(template, model)
    }

    /// Builds with an explicit model, ignoring the template's.
    #[must_use]
    pub fn with_model(template: SimulatorBuilder, model: NoiseModel) -> Self {
        let seeds = SeedStream::new(template.sample_seed());
        Self {
            pool: BackendPool::new(template),
            model,
            seeds,
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Root seed of the noise/job seed streams.
    #[must_use]
    pub fn root_seed(&self) -> u64 {
        self.seeds.root()
    }

    /// The noise model.
    #[must_use]
    pub fn model(&self) -> &NoiseModel {
        &self.model
    }

    /// The underlying backend pool (also usable for noiseless batches:
    /// trajectory work and plain `run_batch`/`sample_counts` draw from
    /// disjoint seed domains, so neither perturbs the other).
    #[must_use]
    pub fn pool(&self) -> &BackendPool {
        &self.pool
    }

    /// Samples the configured number of noise trajectories of
    /// `circuit`, runs them across the pool, and aggregates counts,
    /// fidelity mean/σ, observable mean/σ and per-trajectory records.
    ///
    /// # Errors
    ///
    /// [`ExecError::Noise`] for an invalid model; the lowest-indexed
    /// failing trajectory's error otherwise (all trajectories still
    /// execute).
    pub fn run_trajectories(
        &self,
        circuit: &Circuit,
        cfg: &TrajectoryConfig,
    ) -> Result<TrajectoryOutcome, ExecError> {
        self.model.validate()?;
        let span = approxdd_telemetry::Span::enter("noise.trajectories");
        // Sites and branch tables depend only on (circuit, model):
        // resolve them once, not per trajectory.
        let plan = TrajectoryPlan::new(circuit, &self.model);
        let mut jobs = Vec::with_capacity(cfg.trajectories);
        let mut inserted = Vec::with_capacity(cfg.trajectories);
        for t in 0..cfg.trajectories {
            let seed = self.seeds.seed(DOMAIN_NOISE, t as u64);
            let trajectory = plan.sample(seed);
            inserted.push(trajectory.noise_ops);
            let mut job = PoolJob::new(trajectory.circuit).shots(cfg.shots);
            if let Some(strategy) = cfg.strategy {
                job = job.strategy(strategy);
            }
            if let Some(observable) = &cfg.observable {
                job = job.expectation(observable.clone());
            }
            jobs.push(job);
        }

        let mut counts: HashMap<u64, usize> = HashMap::new();
        let mut fidelities = Vec::with_capacity(cfg.trajectories);
        let mut observables = Vec::with_capacity(cfg.trajectories);
        let mut records = Vec::with_capacity(cfg.trajectories);
        for (index, result) in self.pool.run_jobs(jobs).into_iter().enumerate() {
            let outcome = result?;
            if let Some(job_counts) = &outcome.counts {
                for (k, v) in job_counts {
                    *counts.entry(*k).or_insert(0) += v;
                }
            }
            fidelities.push(outcome.stats.fidelity);
            if let Some(value) = outcome.expectation {
                observables.push(value);
            }
            records.push(TrajectoryRecord {
                index,
                noise_ops: inserted[index],
                fidelity: outcome.stats.fidelity,
                final_size: outcome.final_size,
                observable: outcome.expectation,
                stats: outcome.stats,
            });
        }
        let (fidelity_mean, fidelity_std) = mean_std(&fidelities);
        let (observable_mean, observable_std) = if observables.is_empty() {
            (None, None)
        } else {
            let (m, s) = mean_std(&observables);
            (Some(m), Some(s))
        };
        let _ = span.finish();
        approxdd_telemetry::count("approxdd_noise_trajectories_total", cfg.trajectories as u64);
        approxdd_telemetry::count(
            "approxdd_noise_insertions_total",
            inserted.iter().map(|&n| n as u64).sum(),
        );
        Ok(TrajectoryOutcome {
            name: circuit.name().to_string(),
            n_qubits: circuit.n_qubits(),
            trajectories: cfg.trajectories,
            shots_per_trajectory: cfg.shots,
            counts,
            fidelity_mean,
            fidelity_std,
            observable_mean,
            observable_std,
            noise_ops_total: inserted.iter().sum(),
            records,
        })
    }
}

/// Extension hook giving [`SimulatorBuilder`] a direct path into the
/// noisy-trajectory layer:
/// `Simulator::builder().noise(model).build_noise_pool()`.
pub trait BuildNoisePool {
    /// Builds a [`NoisePool`] from this template.
    fn build_noise_pool(self) -> NoisePool;
}

impl BuildNoisePool for SimulatorBuilder {
    fn build_noise_pool(self) -> NoisePool {
        NoisePool::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_circuit::generators;
    use approxdd_circuit::noise::NoiseChannel;
    use approxdd_sim::Simulator;
    use std::sync::Arc;

    fn small_model() -> NoiseModel {
        NoiseModel::new()
            .with_global(NoiseChannel::depolarizing(0.05).unwrap())
            .with_global(NoiseChannel::depolarizing2(0.05).unwrap())
    }

    #[test]
    fn trajectories_aggregate_counts_and_records() {
        let pool = Simulator::builder()
            .noise(small_model())
            .seed(3)
            .workers(2)
            .build_noise_pool();
        let cfg = TrajectoryConfig::new(6).shots(128);
        let outcome = pool
            .run_trajectories(&generators::ghz(5), &cfg)
            .expect("trajectories");
        assert_eq!(outcome.trajectories, 6);
        assert_eq!(outcome.records.len(), 6);
        assert_eq!(outcome.counts.values().sum::<usize>(), 6 * 128);
        assert!((outcome.fidelity_mean - 1.0).abs() < 1e-12, "exact runs");
        assert_eq!(outcome.fidelity_std, 0.0);
        for (i, record) in outcome.records.iter().enumerate() {
            assert_eq!(record.index, i);
            assert!(record.stats.dd.is_some(), "per-trajectory package stats");
        }
    }

    #[test]
    fn ideal_model_reproduces_noiseless_sampling() {
        // With no channels every trajectory is the base circuit, so the
        // merged histogram only contains GHZ branches.
        let pool = Simulator::builder().seed(11).workers(3).build_noise_pool();
        assert!(pool.model().is_ideal());
        let outcome = pool
            .run_trajectories(&generators::ghz(6), &TrajectoryConfig::new(4).shots(512))
            .expect("trajectories");
        assert_eq!(outcome.noise_ops_total, 0);
        assert!(outcome.counts.keys().all(|&k| k == 0 || k == 0x3F));
    }

    #[test]
    fn observable_means_are_populated_when_requested() {
        let observable: SharedDiagonal = Arc::new(|i: u64| f64::from(i.count_ones()));
        let pool = Simulator::builder()
            .noise(small_model())
            .seed(5)
            .workers(2)
            .build_noise_pool();
        let cfg = TrajectoryConfig::new(5).observable(observable);
        let outcome = pool
            .run_trajectories(&generators::ghz(4), &cfg)
            .expect("trajectories");
        let mean = outcome.observable_mean.expect("requested");
        assert!(outcome.observable_std.is_some());
        assert!(outcome.observable_standard_error().is_some());
        assert!((0.0..=4.0).contains(&mean), "{mean}");
        assert!(outcome.records.iter().all(|r| r.observable.is_some()));
    }

    /// Trajectory batches ride through `BackendPool::run_jobs`, so the
    /// snapshot determinism contract extends to noisy simulation:
    /// byte-identical trajectory outcomes with snapshots on or off.
    #[test]
    fn snapshot_sharing_preserves_trajectory_fingerprints() {
        let circuit = generators::ghz(5);
        let cfg = TrajectoryConfig::new(6).shots(128);
        let run = |share: bool, workers: usize| {
            let pool = Simulator::builder()
                .noise(small_model())
                .seed(13)
                .workers(workers)
                .share_snapshot(share)
                .build_noise_pool();
            let outcome = pool.run_trajectories(&circuit, &cfg).expect("trajectories");
            (
                outcome.fingerprint(),
                pool.pool().stats().snapshot_gate_hits(),
            )
        };
        let (off, off_hits) = run(false, 2);
        assert_eq!(off_hits, 0);
        for workers in [1, 2, 8] {
            let (on, on_hits) = run(true, workers);
            assert_eq!(off, on, "fingerprints diverge at {workers} workers");
            assert!(on_hits > 0, "snapshot unused");
        }
    }

    #[test]
    fn stabilizer_engine_runs_pauli_trajectories_deterministically() {
        // Pauli branches keep Clifford circuits Clifford (see the
        // sampler docs), so the tableau engine can execute every
        // trajectory — and the merged outcome must stay byte-identical
        // across worker counts, exactly like the DD engine.
        use approxdd_sim::Engine;
        let circuit = generators::random_clifford(6, 4, 21);
        let fingerprints: Vec<u64> = [1, 2, 8]
            .into_iter()
            .map(|workers| {
                let pool = Simulator::builder()
                    .engine(Engine::Stabilizer)
                    .noise(small_model())
                    .seed(13)
                    .workers(workers)
                    .build_noise_pool();
                let outcome = pool
                    .run_trajectories(&circuit, &TrajectoryConfig::new(6).shots(64))
                    .expect("stabilizer trajectories");
                assert_eq!(outcome.counts.values().sum::<usize>(), 6 * 64);
                assert!(outcome
                    .records
                    .iter()
                    .all(|r| r.stats.engine == "stabilizer" && r.stats.dd.is_none()));
                outcome.fingerprint()
            })
            .collect();
        assert_eq!(fingerprints[0], fingerprints[1]);
        assert_eq!(fingerprints[0], fingerprints[2]);
    }

    #[test]
    fn invalid_models_fail_fast() {
        let bad = NoiseModel::new().with_qubit(0, NoiseChannel::depolarizing2(0.5).unwrap());
        let pool = NoisePool::with_model(Simulator::builder().workers(1), bad);
        assert!(matches!(
            pool.run_trajectories(&generators::ghz(3), &TrajectoryConfig::new(2)),
            Err(ExecError::Noise(_))
        ));
    }

    #[test]
    fn builder_template_feeds_model_and_seed() {
        let pool = Simulator::builder()
            .noise(small_model())
            .seed(77)
            .workers(2)
            .build_noise_pool();
        assert_eq!(pool.root_seed(), 77);
        assert_eq!(pool.workers(), 2);
        assert!(!pool.model().is_ideal());
        assert_eq!(pool.pool().stats().workers, 2);
    }

    #[test]
    fn mean_std_handles_degenerate_inputs() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[2.5]), (2.5, 0.0));
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}
