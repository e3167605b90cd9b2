//! Admission control: a bounded priority queue plus per-client
//! token-bucket quotas.
//!
//! Admission happens *before* a job touches the [`approxdd_exec`]
//! pool, and never blocks: a full queue or an empty bucket rejects
//! immediately with a typed [`ServeError`] that maps to HTTP 429.
//! Accepted jobs are ordered by descending priority, ties broken by
//! submission order (FIFO within a priority band), so a burst of
//! best-effort work cannot starve an urgent request — and two
//! same-priority requests execute in arrival order, keeping the
//! serving schedule deterministic for a deterministic client.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::error::ServeError;

/// Per-client token-bucket quota: `burst` tokens capacity, refilled
/// continuously at `refill_per_sec`. Each accepted job spends one
/// token; a client with an empty bucket is rejected with HTTP 429
/// until time refills it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quota {
    /// Bucket capacity — the largest burst a client can submit
    /// back-to-back.
    pub burst: f64,
    /// Sustained tokens per second.
    pub refill_per_sec: f64,
}

#[derive(Debug)]
struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    /// Credits the tokens earned since the last refill, capped at
    /// `burst`.
    fn refill(&mut self, now: Instant, quota: Quota) {
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + elapsed * quota.refill_per_sec).min(quota.burst);
        self.last_refill = now;
    }
}

/// The bucket map is swept once it holds this many buckets, and from
/// then on whenever it has doubled since the last sweep.
const FIRST_SWEEP: usize = 64;

/// The bounded priority queue with quota enforcement, carrying one
/// payload of type `T` per queued job. Callers hold it behind a mutex;
/// every method is constant-time-ish and non-blocking.
#[derive(Debug)]
pub struct Scheduler<T> {
    capacity: usize,
    /// Keyed `(Reverse(priority), admission number)`, so the first
    /// entry is the highest priority and, within it, the earliest.
    queue: BTreeMap<(Reverse<i32>, u64), T>,
    quota: Option<Quota>,
    buckets: HashMap<String, TokenBucket>,
    /// `buckets.len()` at which refilled buckets are next dropped.
    sweep_at: usize,
    rejected_queue_full: u64,
    rejected_quota: u64,
    admitted: u64,
}

impl<T> Scheduler<T> {
    /// Creates a scheduler admitting at most `capacity` queued jobs,
    /// with optional per-client quotas.
    #[must_use]
    pub fn new(capacity: usize, quota: Option<Quota>) -> Self {
        Scheduler {
            capacity: capacity.max(1),
            queue: BTreeMap::new(),
            quota,
            buckets: HashMap::new(),
            sweep_at: FIRST_SWEEP,
            rejected_queue_full: 0,
            rejected_quota: 0,
            admitted: 0,
        }
    }

    /// Tries to admit `job` for `client` at `priority`. Never blocks:
    /// either the job is queued, or a typed backpressure error comes
    /// back immediately (and `job` is dropped).
    pub(crate) fn admit(&mut self, client: &str, priority: i32, job: T) -> Result<(), ServeError> {
        if self.queue.len() >= self.capacity {
            self.rejected_queue_full += 1;
            return Err(ServeError::QueueFull {
                queued: self.queue.len(),
                capacity: self.capacity,
            });
        }
        if let Some(quota) = self.quota {
            let now = Instant::now();
            // A bucket that has refilled to `burst` is what a client
            // without one starts from, so it can go: the map holds the
            // clients seen recently, not every `client=` value ever
            // sent. Amortised O(1) per admission.
            if self.buckets.len() >= self.sweep_at {
                self.buckets.retain(|_, bucket| {
                    bucket.refill(now, quota);
                    bucket.tokens < quota.burst
                });
                self.sweep_at = (2 * self.buckets.len()).max(FIRST_SWEEP);
            }
            let bucket = self
                .buckets
                .entry(client.to_string())
                .or_insert(TokenBucket {
                    tokens: quota.burst,
                    last_refill: now,
                });
            bucket.refill(now, quota);
            if bucket.tokens < 1.0 {
                self.rejected_quota += 1;
                return Err(ServeError::QuotaExhausted {
                    client: client.to_string(),
                });
            }
            bucket.tokens -= 1.0;
        }
        self.queue.insert((Reverse(priority), self.admitted), job);
        self.admitted += 1;
        Ok(())
    }

    /// Pops the highest-priority (earliest within a band) queued job.
    pub(crate) fn pop(&mut self) -> Option<T> {
        self.queue.pop_first().map(|(_, job)| job)
    }

    /// Jobs currently queued.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Jobs admitted over the scheduler's lifetime.
    #[must_use]
    pub(crate) fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Submissions rejected because the queue was full.
    #[must_use]
    pub(crate) fn rejected_queue_full(&self) -> u64 {
        self.rejected_queue_full
    }

    /// Submissions rejected because the client's bucket ran dry.
    #[must_use]
    pub(crate) fn rejected_quota(&self) -> u64 {
        self.rejected_quota
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_bands_pop_fifo_within_band() {
        let mut s = Scheduler::new(16, None);
        s.admit("a", 0, 1).unwrap();
        s.admit("a", 5, 2).unwrap();
        s.admit("a", 0, 3).unwrap();
        s.admit("a", 5, 4).unwrap();
        assert_eq!(
            [s.pop(), s.pop(), s.pop(), s.pop()],
            [Some(2), Some(4), Some(1), Some(3)]
        );
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn full_queue_rejects_typed() {
        let mut s = Scheduler::new(2, None);
        s.admit("a", 0, 1).unwrap();
        s.admit("a", 0, 2).unwrap();
        match s.admit("a", 0, 3) {
            Err(ServeError::QueueFull { queued, capacity }) => {
                assert_eq!((queued, capacity), (2, 2));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(s.rejected_queue_full(), 1);
        assert_eq!(s.admitted(), 2);
        // Draining makes room again.
        assert!(s.pop().is_some());
        s.admit("a", 0, 3).unwrap();
    }

    #[test]
    fn quota_rejects_per_client_and_refills() {
        let quota = Quota {
            burst: 2.0,
            refill_per_sec: 1000.0,
        };
        let mut s = Scheduler::new(64, Some(quota));
        s.admit("alice", 0, 1).unwrap();
        s.admit("alice", 0, 2).unwrap();
        // Timing-tolerant: keep submitting in a tight loop until the
        // bucket runs dry instead of asserting on the exact third
        // call (the 1000/s refill could sneak a token in between).
        let mut rejected = false;
        for job in 3..40 {
            if matches!(
                s.admit("alice", 0, job),
                Err(ServeError::QuotaExhausted { .. })
            ) {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "sustained burst must exhaust the bucket");
        // An unrelated client is unaffected.
        s.admit("bob", 0, 100).unwrap();
        // Waiting refills alice.
        std::thread::sleep(std::time::Duration::from_millis(5));
        s.admit("alice", 0, 200).unwrap();
        assert!(s.rejected_quota() >= 1);
    }

    #[test]
    fn refilled_buckets_are_dropped() {
        // One token per nanosecond: a client's bucket is full again
        // by the time the next client is admitted.
        let quota = Quota {
            burst: 2.0,
            refill_per_sec: 1e9,
        };
        let mut s = Scheduler::new(4, Some(quota));
        for job in 0..10_000 {
            s.admit(&format!("client-{job}"), 0, job).unwrap();
            assert_eq!(s.pop(), Some(job));
        }
        assert!(
            s.buckets.len() <= 2 * FIRST_SWEEP,
            "{} buckets survive 10 000 one-shot clients",
            s.buckets.len()
        );
        assert_eq!(s.admitted(), 10_000);
    }
}
