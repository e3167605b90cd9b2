//! Worker-thread supervision: detecting dead pool workers and healing
//! the pool back to full capacity.
//!
//! A [`crate::BackendPool`] worker dies when a job panics on it —
//! whether from a real bug or an injected [`crate::FaultPlan`] fault.
//! Without supervision each death permanently shrinks the pool; with
//! it, the [`Supervisor`] notices finished worker threads during the
//! pool's collection loops and respawns a replacement into the same
//! worker slot (same index, same [`crate::WorkerStats`] cell), so a
//! follow-up batch always runs at full width.
//!
//! Supervision is *pull-based*: there is no background monitor thread.
//! The pool calls [`Supervisor::heal`] on a timer tick while waiting
//! for results (and once per submission round), which is exactly when
//! a dead worker matters — a pool nobody is submitting to has nothing
//! to supervise.

use std::sync::{Mutex, PoisonError};
use std::thread::JoinHandle;

/// Owns the pool's worker [`JoinHandle`]s. Deaths are counted where
/// they happen — by the dying task, in the pool's dispatch wrapper —
/// so healing only respawns.
#[derive(Debug)]
pub(crate) struct Supervisor {
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Supervisor {
    /// Adopts the initially spawned worker handles (slot = index).
    pub(crate) fn new(handles: Vec<JoinHandle<()>>) -> Self {
        Self {
            handles: Mutex::new(handles),
        }
    }

    /// Number of worker slots (fixed for the pool's lifetime).
    pub(crate) fn worker_count(&self) -> usize {
        self.handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Number of worker threads currently running (a dead-but-unhealed
    /// worker counts as not alive).
    pub(crate) fn alive(&self) -> usize {
        self.handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|h| !h.is_finished())
            .count()
    }

    /// Respawns every finished worker thread via `respawn(slot)`,
    /// joining the dead handle (which collects and discards its panic
    /// payload — `is_finished()` guarantees the join cannot block).
    /// Concurrent callers serialize on the handle table, so a death is
    /// healed exactly once.
    pub(crate) fn heal<F: FnMut(usize) -> JoinHandle<()>>(&self, mut respawn: F) {
        let mut handles = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
        for slot in 0..handles.len() {
            if handles[slot].is_finished() {
                let dead = std::mem::replace(&mut handles[slot], respawn(slot));
                let _ = dead.join();
            }
        }
    }

    /// Joins every worker (orderly shutdown; the pool closes the task
    /// channel first so the joins terminate).
    pub(crate) fn join_all(&self) {
        let mut handles = self.handles.lock().unwrap_or_else(PoisonError::into_inner);
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
    }
}
