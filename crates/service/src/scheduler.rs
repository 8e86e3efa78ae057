//! The refresh queue: bounded, prioritized, coalescing.
//!
//! One [`RefreshJob`] per suspect column, ordered by priority
//! (staleness × access frequency — refresh what's both wrong and hot
//! first), with a `not_before` tick for retry backoff. Three properties
//! matter more than throughput here:
//!
//! * **Coalescing** — at most one pending job per (table, column).
//!   Besides bounding the queue, this is what makes deterministic replay
//!   possible: with a single in-flight refresh per column, epoch
//!   assignment is independent of worker interleaving.
//! * **Bounded** — past `capacity`, submissions are rejected (and
//!   counted), never buffered unboundedly; a stale-but-served histogram
//!   is the designed degradation, an OOM is not.
//! * **Deterministic selection** — among eligible jobs, highest priority
//!   wins, ties broken by (table, column) order, so a drain produces the
//!   same schedule however the jobs were submitted.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::clock::Clock;

/// One pending refresh for a (table, column).
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshJob {
    /// Target table.
    pub table: String,
    /// Target column.
    pub column: String,
    /// Scheduling priority (higher first); [`f64::INFINITY`] is reserved
    /// for misses (no statistics at all — nothing to serve stale).
    pub priority: f64,
    /// Earliest tick the job may run (backoff deadline; 0 = immediately).
    pub not_before: u64,
    /// How many times this refresh has already failed.
    pub attempt: u32,
}

/// What [`RefreshScheduler::submit`] did with a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Enqueued as a new pending job.
    Queued,
    /// Merged into an existing pending job for the same column (kept the
    /// higher priority, the earlier deadline, the larger attempt count).
    Coalesced,
    /// Dropped: the queue is at capacity.
    Rejected,
}

#[derive(Debug)]
struct SchedState {
    jobs: Vec<RefreshJob>,
    /// Jobs handed to a worker via [`RefreshScheduler::pop_blocking`] and
    /// not yet finished ([`RefreshScheduler::job_done`]) — what "idle"
    /// must wait out besides an empty queue.
    active: u64,
    shutdown: bool,
}

impl SchedState {
    fn idle(&self) -> bool {
        self.active == 0 && self.jobs.is_empty()
    }
}

/// The bounded, coalescing priority queue described in the module docs.
#[derive(Debug)]
pub struct RefreshScheduler {
    state: Mutex<SchedState>,
    /// Signalled on submit and shutdown; workers wait on it for jobs.
    ready: Condvar,
    /// Signalled when the scheduler turns idle; [`Self::wait_idle`] waits
    /// on it.
    idle: Condvar,
    capacity: usize,
}

/// Index of the best runnable job: eligible (`not_before ≤ now`), max
/// priority, ties to the lexicographically first (table, column).
fn best_ready(jobs: &[RefreshJob], now: u64) -> Option<usize> {
    jobs.iter()
        .enumerate()
        .filter(|(_, j)| j.not_before <= now)
        .max_by(|(_, a), (_, b)| {
            a.priority
                .total_cmp(&b.priority)
                .then_with(|| (&b.table, &b.column).cmp(&(&a.table, &a.column)))
        })
        .map(|(i, _)| i)
}

impl RefreshScheduler {
    /// A scheduler holding at most `capacity` pending jobs (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(SchedState { jobs: Vec::new(), active: 0, shutdown: false }),
            ready: Condvar::new(),
            idle: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue, coalesce, or reject a job.
    pub fn submit(&self, job: RefreshJob) -> SubmitOutcome {
        let mut state = self.state.lock().expect("scheduler lock");
        if let Some(existing) =
            state.jobs.iter_mut().find(|j| j.table == job.table && j.column == job.column)
        {
            existing.priority = existing.priority.max(job.priority);
            existing.not_before = existing.not_before.min(job.not_before);
            existing.attempt = existing.attempt.max(job.attempt);
            drop(state);
            self.ready.notify_one();
            return SubmitOutcome::Coalesced;
        }
        if state.jobs.len() >= self.capacity {
            return SubmitOutcome::Rejected;
        }
        state.jobs.push(job);
        drop(state);
        self.ready.notify_one();
        SubmitOutcome::Queued
    }

    /// Pending jobs (including ones still under a backoff deadline).
    pub fn len(&self) -> usize {
        self.state.lock().expect("scheduler lock").jobs.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove and return the best runnable job at `now`, if any.
    pub fn pop_ready(&self, now: u64) -> Option<RefreshJob> {
        let mut state = self.state.lock().expect("scheduler lock");
        let job = best_ready(&state.jobs, now).map(|i| state.jobs.swap_remove(i));
        self.notify_if_idle(&state);
        job
    }

    /// Remove **all** jobs runnable at `now`, sorted by (table, column) —
    /// the deterministic drain batch.
    pub fn drain_ready(&self, now: u64) -> Vec<RefreshJob> {
        let mut state = self.state.lock().expect("scheduler lock");
        let mut batch = Vec::new();
        let mut i = 0;
        while i < state.jobs.len() {
            if state.jobs[i].not_before <= now {
                batch.push(state.jobs.swap_remove(i));
            } else {
                i += 1;
            }
        }
        self.notify_if_idle(&state);
        batch.sort_by(|a, b| (&a.table, &a.column).cmp(&(&b.table, &b.column)));
        batch
    }

    /// Earliest `not_before` among pending jobs — the tick a virtual-clock
    /// drain should advance to when nothing is currently runnable.
    pub fn next_eligible_at(&self) -> Option<u64> {
        let state = self.state.lock().expect("scheduler lock");
        state.jobs.iter().map(|j| j.not_before).min()
    }

    /// Block until a job is runnable (waiting out backoff deadlines on
    /// the given clock) and return it; `None` once [`shutdown`] is called.
    ///
    /// This is the concurrent workers' loop condition; deterministic
    /// drains use [`pop_ready`] and steer the clock themselves.
    ///
    /// [`shutdown`]: RefreshScheduler::shutdown
    /// [`pop_ready`]: RefreshScheduler::pop_ready
    pub fn pop_blocking(&self, clock: &Clock) -> Option<RefreshJob> {
        let mut state = self.state.lock().expect("scheduler lock");
        loop {
            if state.shutdown {
                return None;
            }
            let now = clock.now();
            if let Some(i) = best_ready(&state.jobs, now) {
                // Counted while the queue lock is held, so an observer
                // never sees "queue empty, nothing active" mid-handoff.
                state.active += 1;
                return Some(state.jobs.swap_remove(i));
            }
            if let Some(next) = state.jobs.iter().map(|j| j.not_before).min() {
                // Everything pending is under backoff: sleep until the
                // earliest deadline (ticks ≈ ms on the real clock).
                let wait = Duration::from_millis(next.saturating_sub(now).max(1));
                state = self.ready.wait_timeout(state, wait).expect("scheduler lock").0;
            } else {
                state = self.ready.wait(state).expect("scheduler lock");
            }
        }
    }

    /// Jobs popped via [`pop_blocking`] and not yet marked done.
    ///
    /// [`pop_blocking`]: RefreshScheduler::pop_blocking
    pub fn active(&self) -> u64 {
        self.state.lock().expect("scheduler lock").active
    }

    /// Mark one [`pop_blocking`]-popped job finished (after any retry
    /// resubmission, so idleness never flickers while work remains).
    ///
    /// [`pop_blocking`]: RefreshScheduler::pop_blocking
    pub fn job_done(&self) {
        let mut state = self.state.lock().expect("scheduler lock");
        state.active -= 1;
        self.notify_if_idle(&state);
    }

    /// No jobs pending **and** none being processed.
    pub fn idle(&self) -> bool {
        self.state.lock().expect("scheduler lock").idle()
    }

    /// Block until the scheduler is [`idle`](Self::idle): woken by the
    /// call that empties the queue or finishes the last running job.
    pub fn wait_idle(&self) {
        let state = self.state.lock().expect("scheduler lock");
        drop(self.idle.wait_while(state, |s| !s.idle()).expect("scheduler lock"));
    }

    fn notify_if_idle(&self, state: &SchedState) {
        if state.idle() {
            self.idle.notify_all();
        }
    }

    /// Wake every blocked worker with `None`; pending jobs are dropped.
    pub fn shutdown(&self) {
        self.state.lock().expect("scheduler lock").shutdown = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(t: &str, c: &str, prio: f64, not_before: u64) -> RefreshJob {
        RefreshJob {
            table: t.to_string(),
            column: c.to_string(),
            priority: prio,
            not_before,
            attempt: 0,
        }
    }

    #[test]
    fn priority_then_name_order() {
        let s = RefreshScheduler::new(10);
        assert_eq!(s.submit(job("t", "b", 1.0, 0)), SubmitOutcome::Queued);
        assert_eq!(s.submit(job("t", "a", 1.0, 0)), SubmitOutcome::Queued);
        assert_eq!(s.submit(job("t", "c", 9.0, 0)), SubmitOutcome::Queued);
        assert_eq!(s.pop_ready(0).expect("ready").column, "c", "highest priority first");
        assert_eq!(s.pop_ready(0).expect("ready").column, "a", "ties break by name");
        assert_eq!(s.pop_ready(0).expect("ready").column, "b");
        assert!(s.pop_ready(0).is_none());
    }

    #[test]
    fn coalescing_keeps_one_job_per_column() {
        let s = RefreshScheduler::new(10);
        assert_eq!(s.submit(job("t", "a", 1.0, 50)), SubmitOutcome::Queued);
        let mut retry = job("t", "a", 3.0, 10);
        retry.attempt = 2;
        assert_eq!(s.submit(retry), SubmitOutcome::Coalesced);
        assert_eq!(s.len(), 1);
        let merged = s.pop_ready(10).expect("eligible at the earlier deadline");
        assert_eq!(merged.priority, 3.0);
        assert_eq!(merged.not_before, 10);
        assert_eq!(merged.attempt, 2);
    }

    #[test]
    fn capacity_rejects_but_coalescing_still_works() {
        let s = RefreshScheduler::new(2);
        assert_eq!(s.submit(job("t", "a", 1.0, 0)), SubmitOutcome::Queued);
        assert_eq!(s.submit(job("t", "b", 1.0, 0)), SubmitOutcome::Queued);
        assert_eq!(s.submit(job("t", "c", 1.0, 0)), SubmitOutcome::Rejected);
        assert_eq!(s.submit(job("t", "a", 2.0, 0)), SubmitOutcome::Coalesced, "full ≠ closed");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn backoff_deadlines_gate_eligibility() {
        let s = RefreshScheduler::new(10);
        s.submit(job("t", "a", 5.0, 100));
        s.submit(job("t", "b", 1.0, 0));
        assert_eq!(s.pop_ready(0).expect("ready").column, "b", "deferred job is invisible");
        assert!(s.pop_ready(99).is_none());
        assert_eq!(s.next_eligible_at(), Some(100));
        assert_eq!(s.pop_ready(100).expect("ready").column, "a");
    }

    #[test]
    fn drain_ready_is_sorted_and_leaves_deferred() {
        let s = RefreshScheduler::new(10);
        s.submit(job("t", "z", 9.0, 0));
        s.submit(job("s", "a", 1.0, 0));
        s.submit(job("t", "a", 1.0, 500));
        let batch = s.drain_ready(0);
        let keys: Vec<(&str, &str)> =
            batch.iter().map(|j| (j.table.as_str(), j.column.as_str())).collect();
        assert_eq!(keys, vec![("s", "a"), ("t", "z")]);
        assert_eq!(s.len(), 1, "deferred job stays");
    }

    #[test]
    fn pop_blocking_wakes_on_submit_and_shutdown() {
        let s = std::sync::Arc::new(RefreshScheduler::new(10));
        let clock = std::sync::Arc::new(Clock::real());
        let (s2, c2) = (std::sync::Arc::clone(&s), std::sync::Arc::clone(&clock));
        let h = std::thread::spawn(move || {
            let first = s2.pop_blocking(&c2);
            let second = s2.pop_blocking(&c2);
            (first, second)
        });
        std::thread::sleep(Duration::from_millis(10));
        s.submit(job("t", "a", 1.0, 0));
        std::thread::sleep(Duration::from_millis(10));
        s.shutdown();
        let (first, second) = h.join().expect("worker");
        assert_eq!(first.expect("woken by submit").column, "a");
        assert!(second.is_none(), "woken by shutdown");
    }

    #[test]
    fn wait_idle_returns_once_the_last_job_finishes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let s = RefreshScheduler::new(10);
        let clock = Clock::real();
        let finished = AtomicBool::new(false);
        s.submit(job("t", "a", 1.0, 0));
        assert!(!s.idle());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let popped = s.pop_blocking(&clock).expect("queued");
                assert_eq!(s.active(), 1);
                std::thread::sleep(Duration::from_millis(20));
                // A retry resubmits before `job_done`: still not idle.
                s.submit(popped);
                s.job_done();
                let retried = s.pop_blocking(&clock).expect("resubmitted");
                std::thread::sleep(Duration::from_millis(20));
                finished.store(true, Ordering::SeqCst);
                drop(retried);
                s.job_done();
            });
            s.wait_idle();
            assert!(finished.load(Ordering::SeqCst), "returned before the last job finished");
            assert!(s.idle());
        });
    }
}
