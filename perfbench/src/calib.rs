//! The machine's speed, measured by a fixed reference computation.
//!
//! On a shared host the same code runs up to about 1.9 times slower,
//! for spells from tens of milliseconds to over an hour, on one vCPU or
//! on both: a busy hyperthread sibling or a lower clock changes the cost
//! of every instruction at once. Within a run a workload's operations
//! fall into fast and slow spells in shares that differ from run to run,
//! so a median over them jumps between the two speeds.
//!
//! The benchmark therefore times a fixed reference computation, owned
//! by the benchmark and independent of the program, next to each timed
//! operation, on the thread (or threads) that run it, and reports the
//! operation at reference speed: its time multiplied by
//! `NOMINAL_REP_NS / reference time`. A change to the program moves the
//! scaled time as much as the raw one; a spell of slow machine slows
//! the operation and its reference alike, and cancels.
//!
//! The reference works inside the private caches, so it reads the
//! speed of the core rather than what the previous operation left in
//! the caches.
//!
//! A refresh also waits for a parked worker thread to wake on another
//! vCPU, and on a busy host that wait grows by more than the cost of an
//! instruction does. Refreshes are therefore scaled by a hand-off of the
//! same shape: a helper thread of the benchmark's, parked on a condition
//! variable like the service's refresh worker, is woken to run a fixed
//! number of repetitions while this thread polls for it at the cadence
//! of the churn workload's wait loop.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::util::{median, timed};

/// Words of the gather table: 64 KiB, a little beyond L1.
const GATHER_WORDS: usize = 1 << 13;
/// Words of the searched table: 16 KiB.
const SEARCH_WORDS: usize = 1 << 11;
/// Random loads from the gather table per repetition.
const GATHERS: usize = 512;
/// Binary searches per repetition.
const SEARCHES: usize = 512;
/// Elements sorted per repetition.
const SORT_LEN: usize = 256;
/// Timed repetitions per thread when every thread is measured.
const SHARED_REPS: usize = 6;
/// Repetitions the hand-off helper runs once woken: about the compute of
/// a probe, a patch and an install.
const HANDOFF_REPS: usize = 30;
/// Repetitions between two polls of the hand-off: about a local
/// measurement and a batch of 64 reads.
const POLL_REPS: usize = 5;

/// Median nanoseconds of one repetition in the fast spells of the
/// machine the benchmark was tuned on: a 2-vCPU KVM guest on an Intel
/// Xeon (Sapphire Rapids, family 6 model 143). Scaled times read as
/// they would there.
pub const NOMINAL_REP_NS: f64 = 10_000.0;

/// Nanoseconds of one hand-off at reference speed: the helper's
/// repetitions at `NOMINAL_REP_NS` each, plus 50 µs for its wake-up and
/// the poll that sees it done.
pub const NOMINAL_HANDOFF_NS: f64 = HANDOFF_REPS as f64 * NOMINAL_REP_NS + 50_000.0;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The reference computation: random loads from a table a little
/// larger than L1, binary searches in a small one, and a sort — the
/// kinds of work ANALYZE and the read path do.
struct Kernel {
    gather: Vec<u64>,
    search: Vec<u64>,
}

impl Kernel {
    fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let gather = (0..GATHER_WORDS)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        let search = (0..SEARCH_WORDS as u64).map(|i| i * 16 + 3).collect();
        Self { gather, search }
    }

    /// One repetition; `salt` picks the pseudo-random sequence.
    fn rep(&self, salt: u64) -> u64 {
        let mut x = salt.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        let mut acc = 0u64;
        for _ in 0..GATHERS {
            x = xorshift(x);
            acc = acc.wrapping_add(self.gather[x as usize & (GATHER_WORDS - 1)]);
        }
        let span = (SEARCH_WORDS * 16) as u64;
        for _ in 0..SEARCHES {
            x = xorshift(x);
            let key = x % span;
            acc ^= self.search.partition_point(|&v| v < key) as u64;
        }
        let mut buf = [0u64; SORT_LEN];
        for b in buf.iter_mut() {
            x = xorshift(x);
            *b = x;
        }
        buf.sort_unstable();
        acc ^ buf[SORT_LEN / 2]
    }

    fn timed_rep(&self, salt: u64) -> f64 {
        let started = Instant::now();
        black_box(self.rep(black_box(salt)));
        started.elapsed().as_nanos() as f64
    }
}

/// What the hand-off helper and the measuring thread share.
struct Handoff {
    /// The last job handed over, and whether to stop.
    job: Mutex<(u64, bool)>,
    ready: Condvar,
    /// The last job finished.
    done: AtomicU64,
}

/// The reference computation, the hand-off helper, and the log of every
/// reference time a run used.
pub struct Speed {
    kernel: Arc<Kernel>,
    handoff: Arc<Handoff>,
    helper: Option<JoinHandle<()>>,
    threads: usize,
    salt: u64,
    /// Reference times used for scaling, ns per repetition.
    pub rep_ns: Vec<f64>,
    /// Hand-off times used for scaling, ns.
    pub handoff_ns: Vec<f64>,
}

impl Speed {
    /// Build the tables and park the hand-off helper; shared
    /// measurements run on `threads` threads.
    pub fn new(threads: usize) -> Self {
        let kernel = Arc::new(Kernel::new());
        let handoff = Arc::new(Handoff {
            job: Mutex::new((0, false)),
            ready: Condvar::new(),
            done: AtomicU64::new(0),
        });
        let helper = {
            let (kernel, handoff) = (Arc::clone(&kernel), Arc::clone(&handoff));
            std::thread::spawn(move || {
                let mut seen = 0;
                loop {
                    let mut state = handoff.job.lock().expect("hand-off lock");
                    while state.0 == seen && !state.1 {
                        state = handoff.ready.wait(state).expect("hand-off lock");
                    }
                    if state.1 {
                        return;
                    }
                    seen = state.0;
                    drop(state);
                    for r in 0..HANDOFF_REPS {
                        black_box(kernel.rep(seen ^ (r as u64) << 32));
                    }
                    handoff.done.store(seen, Ordering::Release);
                }
            })
        };
        Self {
            kernel,
            handoff,
            helper: Some(helper),
            threads: threads.max(1),
            salt: 0,
            rep_ns: Vec::new(),
            handoff_ns: Vec::new(),
        }
    }

    fn next_salt(&mut self) -> u64 {
        self.salt = self.salt.wrapping_add(1);
        self.salt
    }

    /// The factor to reference speed for an operation about to run on
    /// this thread alone: the faster of two repetitions here, so a
    /// timer interrupt or a cold cache does not count.
    pub fn local(&mut self) -> f64 {
        let salt = self.next_salt();
        let ns = self.kernel.timed_rep(salt).min(self.kernel.timed_rep(salt ^ 0x5555));
        self.rep_ns.push(ns);
        NOMINAL_REP_NS / ns
    }

    /// The factor to reference speed for an operation that uses every
    /// vCPU: the median repetition over all threads running at once.
    fn shared(&mut self) -> f64 {
        let salt = self.next_salt();
        let kernel = &*self.kernel;
        let per_thread = move |t: usize| {
            (0..SHARED_REPS + 1)
                .map(|r| kernel.timed_rep(salt ^ ((t * 64 + r) as u64) << 20))
                .skip(1)
                .collect::<Vec<f64>>()
        };
        let all = std::thread::scope(|s| {
            let handles: Vec<_> =
                (1..self.threads).map(|t| s.spawn(move || per_thread(t))).collect();
            let mut all = per_thread(0);
            for h in handles {
                all.extend(h.join().expect("reference thread"));
            }
            all
        });
        let ns = median(&all);
        self.rep_ns.push(ns);
        NOMINAL_REP_NS / ns
    }

    /// Run `f` on this thread; return its result, its nanoseconds and
    /// its factor to reference speed: the mean of shared measurements
    /// right before and right after it.
    pub fn time_shared<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.shared();
        let (out, ns) = timed(f);
        let after = self.shared();
        (out, ns, (before + after) / 2.0)
    }

    /// The factor to reference speed for a refresh about to be handed to
    /// a parked worker: the time to wake the helper, let it run
    /// `HANDOFF_REPS` repetitions and see it done, polling every
    /// `POLL_REPS` repetitions.
    pub fn handoff(&mut self) -> f64 {
        let job = self.next_salt();
        let started = Instant::now();
        self.handoff.job.lock().expect("hand-off lock").0 = job;
        self.handoff.ready.notify_one();
        let mut polls = 0u64;
        while self.handoff.done.load(Ordering::Acquire) != job {
            for r in 0..POLL_REPS {
                black_box(self.kernel.rep(job ^ (polls * 8 + r as u64) << 40));
            }
            polls += 1;
        }
        let ns = started.elapsed().as_nanos() as f64;
        self.handoff_ns.push(ns);
        NOMINAL_HANDOFF_NS / ns
    }

    /// Median hand-off time over the run, µs.
    pub fn handoff_us(&self) -> f64 {
        if self.handoff_ns.is_empty() {
            0.0
        } else {
            median(&self.handoff_ns) * 1e-3
        }
    }

    /// Median reference time over the run, µs.
    pub fn rep_us(&self) -> f64 {
        if self.rep_ns.is_empty() {
            0.0
        } else {
            median(&self.rep_ns) * 1e-3
        }
    }
}

impl Drop for Speed {
    /// Stop the hand-off helper and wait for it to end.
    fn drop(&mut self) {
        self.handoff.job.lock().expect("hand-off lock").1 = true;
        self.handoff.ready.notify_one();
        if let Some(helper) = self.helper.take() {
            helper.join().expect("hand-off helper");
        }
    }
}
