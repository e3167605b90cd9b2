//! Seeded fault injection for pool-resilience testing.
//!
//! A [`FaultPlan`] tells a [`crate::BackendPool`] to fail specific jobs
//! in specific ways — panic the executing worker, sleep before running,
//! or force an abort — at **deterministic job indices**, so every
//! recovery path (supervision, retry, deadlines) is reproducibly
//! testable across 1/2/8 workers. Plans are test/bench machinery:
//! nothing installs one by default, and a pool without a plan has zero
//! fault-injection overhead beyond one atomic load per job.
//!
//! Determinism comes from the same seed-stream contract as everything
//! else in this crate: a seeded plan derives job `j`'s fault decision
//! from `SeedStream::seed(DOMAIN_FAULT, j)` — a pure function of (root
//! seed, job index), never of worker count or scheduling. Explicit
//! index lists ([`FaultPlan::panic_on`] and friends) override the
//! seeded decision for pinpoint tests.
//!
//! A fault fires only on a job's **first** attempt, modelling
//! transient failures: retried attempts succeed, and the retried result
//! must be byte-identical to an undisturbed run — the central property
//! test of the resilience suite.

use std::collections::BTreeSet;
use std::sync::Once;
use std::time::Duration;

use crate::seed::{SeedStream, DOMAIN_FAULT};

/// What a [`FaultPlan`] does to a selected job attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic the executing worker thread (via
    /// [`std::panic::panic_any`] with an [`InjectedPanic`] payload), so
    /// the job's reply is dropped, the caller sees
    /// `ExecError::WorkerLost`, and supervision must respawn the
    /// worker.
    Panic,
    /// Sleep for the given duration before running the job normally.
    /// The job still succeeds — delays exercise deadline enforcement
    /// and scheduling skew without changing any result byte (runtime is
    /// fingerprint-excluded).
    Delay(Duration),
    /// Fail the job with `ExecError::FaultInjected` without running it
    /// — a worker-survivable failure, exercising retry without
    /// supervision.
    Abort,
}

/// A deterministic fault-injection plan for a [`crate::BackendPool`].
///
/// Two selection mechanisms compose:
///
/// * **Seeded rates** — [`FaultPlan::seeded`] draws a uniform value
///   `u ∈ [0, 1)` per job from the `DOMAIN_FAULT` stream and maps it
///   onto consecutive probability bands: `u < panic_rate` panics,
///   `u < panic_rate + delay_rate` delays, `u < panic_rate +
///   delay_rate + abort_rate` aborts.
/// * **Explicit indices** — [`FaultPlan::panic_on`] /
///   [`FaultPlan::delay_on`] pin faults to exact job indices; explicit
///   lists take precedence over the seeded decision (panic > delay if
///   one index is listed twice).
///
/// ```
/// use approxdd_exec::{FaultKind, FaultPlan};
/// use std::time::Duration;
///
/// let plan = FaultPlan::new()
///     .panic_on([2])
///     .delay_on([0, 5], Duration::from_millis(10));
/// assert_eq!(plan.decide(2, 0), Some(FaultKind::Panic));
/// assert_eq!(plan.decide(0, 0), Some(FaultKind::Delay(Duration::from_millis(10))));
/// // Retried attempts run clean.
/// assert_eq!(plan.decide(2, 1), None);
/// assert_eq!(plan.decide(3, 0), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seeds: Option<SeedStream>,
    panic_rate: f64,
    delay_rate: f64,
    abort_rate: f64,
    delay: Duration,
    panic_jobs: BTreeSet<usize>,
    delay_jobs: BTreeSet<usize>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultPlan {
    /// An empty plan: no seeded rates, no explicit indices — decides
    /// [`None`] for every job until configured.
    #[must_use]
    pub fn new() -> Self {
        Self {
            seeds: None,
            panic_rate: 0.0,
            delay_rate: 0.0,
            abort_rate: 0.0,
            delay: Duration::from_millis(5),
            panic_jobs: BTreeSet::new(),
            delay_jobs: BTreeSet::new(),
        }
    }

    /// A plan drawing per-job fault decisions from the `DOMAIN_FAULT`
    /// stream rooted at `root` — same root, same faults, at any worker
    /// count. Configure the bands with [`FaultPlan::rates`].
    #[must_use]
    pub fn seeded(root: u64) -> Self {
        Self {
            seeds: Some(SeedStream::new(root)),
            ..Self::new()
        }
    }

    /// Sets the seeded probability bands (each clamped to `[0, 1]`,
    /// summed bands saturate at 1). Only meaningful on a
    /// [`FaultPlan::seeded`] plan.
    #[must_use]
    pub fn rates(mut self, panic: f64, delay: f64, abort: f64) -> Self {
        self.panic_rate = panic.clamp(0.0, 1.0);
        self.delay_rate = delay.clamp(0.0, 1.0);
        self.abort_rate = abort.clamp(0.0, 1.0);
        self
    }

    /// Sets the sleep injected by [`FaultKind::Delay`] faults (default
    /// 5 ms).
    #[must_use]
    pub fn delay_duration(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// Pins worker panics to exact job indices.
    #[must_use]
    pub fn panic_on(mut self, jobs: impl IntoIterator<Item = usize>) -> Self {
        self.panic_jobs.extend(jobs);
        self
    }

    /// Pins delays to exact job indices, with the given sleep.
    #[must_use]
    pub fn delay_on(mut self, jobs: impl IntoIterator<Item = usize>, delay: Duration) -> Self {
        self.delay_jobs.extend(jobs);
        self.delay = delay;
        self
    }

    /// The fault to inject for `job` on its zero-based `attempt`, if
    /// any. A pure function of the plan and its arguments.
    #[must_use]
    pub fn decide(&self, job: usize, attempt: u32) -> Option<FaultKind> {
        if attempt > 0 {
            return None;
        }
        if self.panic_jobs.contains(&job) {
            return Some(FaultKind::Panic);
        }
        if self.delay_jobs.contains(&job) {
            return Some(FaultKind::Delay(self.delay));
        }
        let seeds = self.seeds?;
        // Uniform in [0, 1) from the high 53 bits, like rand's
        // open-interval f64 conversion — deterministic per job index.
        #[allow(clippy::cast_precision_loss)]
        let u = (seeds.seed(DOMAIN_FAULT, job as u64) >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.panic_rate {
            Some(FaultKind::Panic)
        } else if u < self.panic_rate + self.delay_rate {
            Some(FaultKind::Delay(self.delay))
        } else if u < self.panic_rate + self.delay_rate + self.abort_rate {
            Some(FaultKind::Abort)
        } else {
            None
        }
    }
}

/// The panic payload of [`FaultKind::Panic`] — a typed value (not a
/// `&str`) so the filtering hook installed by
/// [`silence_injected_panics`] can tell injected panics from real
/// bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedPanic {
    /// The faulted job's index.
    pub job: usize,
    /// The zero-based attempt the fault fired on.
    pub(crate) attempt: u32,
}

/// Installs (once per process) a panic hook that suppresses the
/// default backtrace spew for [`InjectedPanic`] payloads while leaving
/// every other panic's reporting untouched. Call it at the top of
/// tests that install panic-injecting [`FaultPlan`]s — otherwise every
/// injected worker death prints a scary (but harmless) panic message.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_faults() {
        let plan = FaultPlan::new();
        for job in 0..64 {
            assert_eq!(plan.decide(job, 0), None);
        }
    }

    #[test]
    fn explicit_indices_fire_exactly_once_by_default() {
        let plan = FaultPlan::new()
            .panic_on([1])
            .delay_on([3], Duration::from_millis(7));
        assert_eq!(plan.decide(1, 0), Some(FaultKind::Panic));
        assert_eq!(
            plan.decide(3, 0),
            Some(FaultKind::Delay(Duration::from_millis(7)))
        );
        assert_eq!(plan.decide(0, 0), None);
        // Attempt 1 runs clean — the transient-fault model.
        for job in 0..4 {
            assert_eq!(plan.decide(job, 1), None, "job {job}");
        }
    }

    #[test]
    fn seeded_plans_are_pure_functions_of_root_and_index() {
        let a = FaultPlan::seeded(42).rates(0.2, 0.2, 0.2);
        let b = FaultPlan::seeded(42).rates(0.2, 0.2, 0.2);
        let c = FaultPlan::seeded(43).rates(0.2, 0.2, 0.2);
        let mut kinds = [0usize; 4];
        let mut differs = false;
        for job in 0..256 {
            assert_eq!(a.decide(job, 0), b.decide(job, 0), "job {job}");
            differs |= a.decide(job, 0) != c.decide(job, 0);
            match a.decide(job, 0) {
                None => kinds[0] += 1,
                Some(FaultKind::Panic) => kinds[1] += 1,
                Some(FaultKind::Delay(_)) => kinds[2] += 1,
                Some(FaultKind::Abort) => kinds[3] += 1,
            }
        }
        // All three bands and the clean band are populated at 20% each
        // over 256 jobs, and a different root selects different jobs.
        assert!(kinds.iter().all(|&k| k > 0), "{kinds:?}");
        assert!(differs);
    }

    #[test]
    fn rates_clamp_and_saturate() {
        let plan = FaultPlan::seeded(1).rates(2.0, -1.0, 0.5);
        // panic band clamped to 1.0: everything panics.
        for job in 0..32 {
            assert_eq!(plan.decide(job, 0), Some(FaultKind::Panic));
        }
    }
}
