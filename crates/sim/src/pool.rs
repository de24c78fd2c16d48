//! A scoped-thread job pool for embarrassingly parallel sweep cells.
//!
//! The paper's studies are thousands of independent `(benchmark, latency,
//! configuration)` simulations; this pool runs them across OS threads with
//! no external dependencies: [`std::thread::scope`] plus an atomic work
//! counter. Results are placed in **input order** — `run(n, f)` returns
//! exactly `[f(0), f(1), …, f(n-1)]` regardless of which worker computed
//! each job — so parallel sweeps are bit-identical to serial ones.
//!
//! Thread count comes from the `NBL_THREADS` environment variable when set
//! (any value ≥ 1), else from [`std::thread::available_parallelism`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parses an `NBL_THREADS`-style override. `None` (unset, empty, garbage,
/// or zero) means "no override".
fn parse_threads(var: Option<&str>) -> Option<usize> {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// The worker count to use by default: `NBL_THREADS` if set to a positive
/// integer, else the machine's available parallelism, else 1.
pub fn available_threads() -> usize {
    parse_threads(std::env::var("NBL_THREADS").ok().as_deref())
        .or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .ok()
        })
        .unwrap_or(1)
}

/// A panic captured from one pool job, identifying which job blew up.
/// Returned by [`JobPool::try_run`] so a sweep can fail as an error
/// instead of tearing down the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Input index of the panicking job (the smallest observed index when
    /// several jobs panic).
    pub job: usize,
    /// The panic payload, if it was a string (the common `panic!` /
    /// `assert!` case).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool job {} panicked: {}", self.job, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Renders a caught panic payload (`&str` and `String` are the payloads
/// `panic!` and the assert macros produce).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A fixed-width pool of scoped workers. Creating one is free — threads
/// are spawned per [`JobPool::run`] call and joined before it returns, so
/// borrowed state (`&Program`, `&SimConfig`) flows into jobs without
/// `'static` bounds or `Arc`.
#[derive(Debug, Clone)]
pub struct JobPool {
    threads: usize,
}

impl JobPool {
    /// A pool that will use `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Worker count this pool runs with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), f(1), …, f(jobs-1)` across the pool's workers and
    /// returns the results in input order.
    ///
    /// With one worker (or ≤ 1 job) this degenerates to a plain serial
    /// loop on the calling thread — no threads are spawned, so the serial
    /// and parallel paths share one code path for determinism tests.
    ///
    /// # Panics
    ///
    /// Re-raises the first (lowest-index) job panic after all workers have
    /// drained. Use [`JobPool::try_run`] to receive it as an error instead.
    pub fn run<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.try_run(jobs, f) {
            Ok(out) => out,
            Err(p) => panic!("{p}"),
        }
    }

    /// [`JobPool::run`], except that a panicking job is caught and
    /// reported as a [`JobPanic`] instead of unwinding through the pool:
    /// the sweep that submitted the jobs fails, not the process. When
    /// several jobs panic, the smallest observed input index is reported;
    /// remaining workers stop claiming new jobs once a panic is observed.
    ///
    /// # Errors
    ///
    /// [`JobPanic`] if any job panicked.
    pub fn try_run<T, F>(&self, jobs: usize, f: F) -> Result<Vec<T>, JobPanic>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.claim_loop(jobs, |pos| pos, f)
    }

    /// [`JobPool::try_run`] with an explicit claim order: workers claim
    /// jobs following `order` (a permutation of `0..jobs`), so a caller
    /// that knows per-job weights can schedule longest-first and avoid a
    /// heavy job landing last on an otherwise drained pool. Results are
    /// still placed in **input order** — the claim order changes
    /// wall-clock balance, never the output.
    ///
    /// With one worker (or ≤ 1 job) this runs serially in input order,
    /// byte-identical to [`JobPool::try_run`].
    ///
    /// # Panics
    ///
    /// In debug builds, if `order` is not a permutation of `0..jobs`.
    ///
    /// # Errors
    ///
    /// [`JobPanic`] if any job panicked (smallest input index wins).
    pub fn try_run_order<T, F>(
        &self,
        jobs: usize,
        order: &[usize],
        f: F,
    ) -> Result<Vec<T>, JobPanic>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        debug_assert_eq!(order.len(), jobs, "order must be a permutation of 0..jobs");
        debug_assert!(
            {
                let mut seen = vec![false; jobs];
                order
                    .iter()
                    .all(|&i| i < jobs && !std::mem::replace(&mut seen[i], true))
            },
            "order must be a permutation of 0..jobs"
        );
        self.claim_loop(jobs, |pos| order[pos], f)
    }

    /// The one worker loop behind [`JobPool::try_run`] and
    /// [`JobPool::try_run_order`]: each worker claims **one job position
    /// at a time** from a shared counter and runs job `claim(pos)` under
    /// panic capture; the worker-local results are merged back into input
    /// order. Sweeps submit pre-coarsened, millisecond-scale jobs, so a
    /// per-job claim costs nothing measurable.
    fn claim_loop<T, F>(
        &self,
        jobs: usize,
        claim: impl Fn(usize) -> usize + Sync,
        f: F,
    ) -> Result<Vec<T>, JobPanic>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let guarded = |i: usize| {
            catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| JobPanic {
                job: i,
                message: panic_message(payload.as_ref()),
            })
        };
        if self.threads <= 1 || jobs <= 1 {
            return (0..jobs).map(guarded).collect();
        }
        let next = AtomicUsize::new(0);
        let bailed = AtomicBool::new(false);
        let first_panic: Mutex<Option<JobPanic>> = Mutex::new(None);
        let workers = self.threads.min(jobs);
        let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut local = Vec::new();
                        while !bailed.load(Ordering::Relaxed) {
                            let pos = next.fetch_add(1, Ordering::Relaxed);
                            if pos >= jobs {
                                break;
                            }
                            let i = claim(pos);
                            match guarded(i) {
                                Ok(t) => local.push((i, t)),
                                Err(p) => {
                                    bailed.store(true, Ordering::Relaxed);
                                    let mut slot = first_panic.lock().expect("panic slot poisoned");
                                    if slot.as_ref().is_none_or(|prev| p.job < prev.job) {
                                        *slot = Some(p);
                                    }
                                    return local;
                                }
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker itself never panics"))
                .collect()
        });
        if let Some(p) = first_panic.into_inner().expect("panic slot poisoned") {
            return Err(p);
        }
        // Merge worker-local results back into input order.
        let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
        for part in parts {
            for (i, t) in part {
                debug_assert!(slots[i].is_none(), "job {i} produced twice");
                slots[i] = Some(t);
            }
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every job produces exactly one result"))
            .collect())
    }
}

impl Default for JobPool {
    fn default() -> Self {
        Self::new(available_threads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_input_ordered_with_more_jobs_than_threads() {
        // 4 workers, 257 jobs (not a multiple of the chunk size): every
        // slot must hold its own job's value, in input order.
        let pool = JobPool::new(4);
        let out = pool.run(257, |i| i * i);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let pool = JobPool::new(3);
        let out = pool.run(100, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_and_serial_fallback() {
        assert!(JobPool::new(8).run(0, |i| i).is_empty());
        assert_eq!(JobPool::new(1).run(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
        // threads=0 is clamped up to a serial pool rather than deadlocking.
        assert_eq!(JobPool::new(0).threads(), 1);
    }

    #[test]
    fn try_run_reports_a_job_panic_as_an_error() {
        for threads in [1, 4] {
            let pool = JobPool::new(threads);
            let err = pool
                .try_run(40, |i| {
                    assert!(i != 17, "job 17 is bad");
                    i
                })
                .unwrap_err();
            assert_eq!(err.job, 17, "{threads} threads");
            assert!(err.message.contains("job 17 is bad"), "{}", err.message);
            assert!(err.to_string().contains("pool job 17 panicked"));
        }
    }

    #[test]
    fn try_run_without_panics_matches_run() {
        let pool = JobPool::new(4);
        assert_eq!(
            pool.try_run(257, |i| i * 3).unwrap(),
            pool.run(257, |i| i * 3)
        );
        assert!(pool.try_run(0, |i| i).unwrap().is_empty());
    }

    #[test]
    fn run_still_panics_on_a_job_panic() {
        let pool = JobPool::new(2);
        let caught = std::panic::catch_unwind(|| {
            pool.run(8, |i| {
                assert!(i != 3, "boom");
                i
            })
        });
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("pool job 3 panicked"), "{msg}");
    }

    #[test]
    fn try_run_order_matches_try_run_for_any_claim_order() {
        // Reversed and identity claim orders, serial and parallel pools:
        // the output must always be input-ordered and identical.
        for threads in [1, 4] {
            let pool = JobPool::new(threads);
            let reversed: Vec<usize> = (0..97).rev().collect();
            let identity: Vec<usize> = (0..97).collect();
            let want: Vec<usize> = (0..97).map(|i| i * 7).collect();
            for order in [&reversed, &identity] {
                let got = pool.try_run_order(97, order, |i| i * 7).unwrap();
                assert_eq!(got, want, "{threads} threads");
            }
            assert!(pool.try_run_order(0, &[], |i| i).unwrap().is_empty());
        }
    }

    #[test]
    fn try_run_order_runs_every_job_once_and_reports_panics() {
        let counter = AtomicU64::new(0);
        let pool = JobPool::new(3);
        let order: Vec<usize> = (0..50).rev().collect();
        let out = pool
            .try_run_order(50, &order, |i| {
                counter.fetch_add(1, Ordering::Relaxed);
                i
            })
            .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        let err = pool
            .try_run_order(50, &order, |i| assert!(i != 9, "job 9 is bad"))
            .unwrap_err();
        assert_eq!(err.job, 9);
        assert!(err.message.contains("job 9 is bad"));
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_threads(Some("8")), Some(8));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), None, "zero means no override");
        assert_eq!(parse_threads(Some("lots")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(None), None);
        assert!(available_threads() >= 1);
    }
}
