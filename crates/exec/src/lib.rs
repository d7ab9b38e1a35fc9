#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![expect(
    clippy::disallowed_types,
    reason = "Instant times jobs for pool telemetry (busy_fraction, jobs_per_sec), \
              which is stripped before every determinism diff"
)]
//! `fdip-exec` — the bounded FIFO job pool behind every simulation
//! sweep.
//!
//! The paper's evaluation is a large sweep: every figure re-runs the
//! workload suite under many `CoreConfig` variants. Those runs are
//! embarrassingly parallel but must stay **bounded** (the pool never uses
//! more OS threads than requested) and **deterministic** (results land in
//! submission order, never completion order).
//!
//! The pool is dependency-free: one FIFO queue behind a mutex and a
//! condvar feeds a fixed set of workers. Jobs are submitted in batches
//! via [`Pool::run_batch`], which blocks until every job of the batch has
//! finished and returns the results in indexed slots. A panicking job
//! fails the submitting `run_batch` call (the panic is re-raised there)
//! instead of killing a worker or hanging the pool.
//!
//! Sizing comes from the `FDIP_JOBS` environment variable (or the
//! `--jobs` flag of the harness binaries, via [`set_global_jobs`]),
//! defaulting to [`std::thread::available_parallelism`]. Use
//! [`global()`] for the shared process-wide pool or [`Pool::new`] for a
//! private one (tests).
//!
//! # Examples
//!
//! ```
//! use fdip_exec::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.run_batch((0u64..8).map(|i| move || i * i).collect::<Vec<_>>());
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! assert_eq!(pool.stats().jobs_completed, 8);
//! ```

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use fdip_telemetry::{Histogram, Json, ToJson};

/// A type-erased unit of work, run by worker `id` of the pool whose
/// [`Shared`] state it is handed.
type Job = Box<dyn FnOnce(&Shared, usize) + Send + 'static>;

/// Locks a mutex, recovering from poisoning (jobs are panic-isolated, so
/// a poisoned lock only means a peer thread died mid-assert in a test).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Queue state behind the coordination mutex.
struct State {
    /// FIFO of jobs not yet claimed by any worker.
    queue: VecDeque<Job>,
    /// Set once by `Drop`; workers exit after draining the queue.
    shutdown: bool,
    /// Queue depth observed at each job submission.
    queue_depth: Histogram,
}

/// Aggregate telemetry counters (lock-free where recorded per job).
#[derive(Default)]
struct Counters {
    jobs_completed: AtomicU64,
    busy_ns: AtomicU64,
    busy_now: AtomicUsize,
    peak_busy: AtomicUsize,
}

/// Everything workers and submitters share.
struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    counters: Counters,
    /// Jobs executed by each worker (indexed by worker id); sums to
    /// `counters.jobs_completed` when the pool is quiescent.
    worker_jobs: Vec<AtomicU64>,
}

impl Shared {
    /// Blocking take; `None` means the pool is shutting down and drained.
    fn take(&self) -> Option<Job> {
        self.work_cv
            .wait_while(lock(&self.state), |st| st.queue.is_empty() && !st.shutdown)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .queue
            .pop_front()
    }

    /// Runs one queued job on worker `id`, tracking how many workers are
    /// busy.
    fn execute(&self, id: usize, job: Job) {
        // busy_now/peak_busy are advisory occupancy gauges: no reader
        // derives a happens-before edge from them, so Relaxed is sound.
        let busy = self.counters.busy_now.fetch_add(1, Ordering::Relaxed) + 1;
        self.counters.peak_busy.fetch_max(busy, Ordering::Relaxed);
        job(self, id);
        self.counters.busy_now.fetch_sub(1, Ordering::Relaxed);
    }

    /// Runs `f` on worker `id` with its panic caught, and records the
    /// job's time and completion before the caller publishes the result,
    /// so a submitter that returns from `run_batch` always observes its
    /// jobs in the stats.
    fn run_job<T>(&self, id: usize, f: impl FnOnce() -> T) -> std::thread::Result<T> {
        // Advisory like busy_now; counted before the Release increment
        // of jobs_completed, which orders it for any Acquire reader.
        self.worker_jobs[id].fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(f));
        // Release pairs with the Acquire loads in `stats()`.
        self.counters
            .busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Release);
        self.counters.jobs_completed.fetch_add(1, Ordering::Release);
        result
    }
}

thread_local! {
    /// `(Arc::as_ptr of the pool's Shared, worker index)` when the
    /// current thread is a pool worker — lets a nested `run_batch` run
    /// its jobs in place instead of deadlocking the pool.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Per-batch completion state: indexed result slots and the number of
/// jobs not yet finished.
struct Batch<T> {
    slots: Mutex<(Vec<Option<std::thread::Result<T>>>, usize)>,
    done_cv: Condvar,
}

/// A bounded pool of worker threads executing submitted job batches.
///
/// Dropping the pool shuts the workers down (after draining any queued
/// jobs) and joins them; [`global()`] returns a process-wide instance
/// that lives forever.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    created: Instant,
}

impl Pool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
                queue_depth: Histogram::new(),
            }),
            work_cv: Condvar::new(),
            counters: Counters::default(),
            worker_jobs: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        });
        let workers = (0..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fdip-exec-{id}"))
                    .spawn(move || {
                        WORKER.with(|w| w.set(Some((Arc::as_ptr(&shared) as usize, id))));
                        while let Some(job) = shared.take() {
                            shared.execute(id, job);
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            workers,
            created: Instant::now(),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.worker_jobs.len()
    }

    /// Runs every job of the batch and returns their results in
    /// **submission order** (indexed slots, not completion order), so a
    /// sweep collected through the pool is deterministic no matter how
    /// the scheduler interleaves the work.
    ///
    /// Blocks until the whole batch has finished. May be called from
    /// inside a job of the same pool: the calling worker then runs the
    /// batch's jobs itself, in order, so nested batches cannot deadlock
    /// even on a single-worker pool.
    ///
    /// # Panics
    ///
    /// If a job panics, the panic payload is re-raised here — the
    /// submitting call fails, the worker that ran the job survives, and
    /// the remaining jobs of the batch still complete.
    pub fn run_batch<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let results = match WORKER.with(Cell::get) {
            Some((pool, id)) if pool == Arc::as_ptr(&self.shared) as usize => jobs
                .into_iter()
                .map(|f| self.shared.run_job(id, f))
                .collect(),
            _ => self.queue_and_wait(jobs),
        };
        // Every job has run; re-raise the first panic, if any.
        results
            .into_iter()
            .collect::<std::thread::Result<Vec<T>>>()
            .unwrap_or_else(|p| resume_unwind(p))
    }

    /// Queues the batch behind every job already submitted and blocks
    /// until the workers have run all of it.
    fn queue_and_wait<T, F>(&self, jobs: Vec<F>) -> Vec<std::thread::Result<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let n = jobs.len();
        let batch = Arc::new(Batch {
            slots: Mutex::new(((0..n).map(|_| None).collect(), n)),
            done_cv: Condvar::new(),
        });
        {
            let mut st = lock(&self.shared.state);
            for (i, f) in jobs.into_iter().enumerate() {
                let depth = st.queue.len() as u64;
                st.queue_depth.record(depth);
                let batch = Arc::clone(&batch);
                st.queue.push_back(Box::new(move |shared: &Shared, id| {
                    let result = shared.run_job(id, f);
                    let mut slots = lock(&batch.slots);
                    slots.0[i] = Some(result);
                    slots.1 -= 1;
                    if slots.1 == 0 {
                        batch.done_cv.notify_all();
                    }
                }));
            }
        }
        self.shared.work_cv.notify_all();
        let mut slots = batch
            .done_cv
            .wait_while(lock(&batch.slots), |slots| slots.1 > 0)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        std::mem::take(&mut slots.0)
            .into_iter()
            .map(|slot| slot.expect("batch slot filled"))
            .collect()
    }

    /// A snapshot of the pool's lifetime telemetry.
    pub fn stats(&self) -> PoolStats {
        let elapsed = self.created.elapsed().as_secs_f64().max(1e-9);
        // Acquire pairs with the Release increments in `run_job`.
        let jobs = self.shared.counters.jobs_completed.load(Ordering::Acquire);
        let busy_s = self.shared.counters.busy_ns.load(Ordering::Acquire) as f64 / 1e9;
        PoolStats {
            workers: self.threads(),
            jobs_completed: jobs,
            // Advisory gauges; see `execute` and `run_job`.
            peak_busy: self.shared.counters.peak_busy.load(Ordering::Relaxed),
            steals: 0,
            worker_jobs: self
                .shared
                .worker_jobs
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            busy_fraction: (busy_s / (elapsed * self.threads() as f64)).min(1.0),
            jobs_per_sec: jobs as f64 / elapsed,
            queue_depth: lock(&self.shared.state).queue_depth.clone(),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "Drop cannot propagate, and a panicked worker has already \
                          surfaced through its batch"
            )]
            let _ = h.join();
        }
    }
}

/// Lifetime telemetry of a [`Pool`], exported into run manifests.
///
/// `workers`, `jobs_completed`, and `peak_busy` are deterministic for a
/// given sweep; the rates and the queue-depth histogram depend on
/// wall-clock scheduling and are stripped alongside the manifest's
/// wall-time fields when comparing runs for determinism.
#[derive(Clone, Debug)]
pub struct PoolStats {
    /// Number of worker threads (the `FDIP_JOBS` bound).
    pub workers: usize,
    /// Jobs finished over the pool's lifetime.
    pub jobs_completed: u64,
    /// Maximum number of workers simultaneously executing jobs.
    pub peak_busy: usize,
    /// Always 0: every worker takes jobs from the one shared queue, so
    /// none is ever taken from another worker. Kept because
    /// `manifest.pool.steals` is part of results schema v1.
    pub steals: u64,
    /// Jobs executed by each worker, indexed by worker id; sums to
    /// `jobs_completed` when the pool is quiescent
    /// (scheduling-dependent, stripped alongside the wall-time fields).
    pub worker_jobs: Vec<u64>,
    /// Fraction of `workers × elapsed` spent executing jobs, in `[0, 1]`.
    pub busy_fraction: f64,
    /// Jobs finished per wall-clock second of pool lifetime.
    pub jobs_per_sec: f64,
    /// Queue depth observed at each job submission.
    pub queue_depth: Histogram,
}

impl ToJson for PoolStats {
    /// Serializes as `{workers, jobs_completed, peak_busy, steals,
    /// worker_jobs, busy_fraction, jobs_per_sec, queue_depth}`
    /// (histogram in the standard form).
    fn to_json(&self) -> Json {
        Json::obj()
            .with("workers", self.workers)
            .with("jobs_completed", self.jobs_completed)
            .with("peak_busy", self.peak_busy)
            .with("steals", self.steals)
            .with("worker_jobs", self.worker_jobs.clone())
            .with("busy_fraction", self.busy_fraction)
            .with("jobs_per_sec", self.jobs_per_sec)
            .with("queue_depth", self.queue_depth.to_json())
    }
}

/// Parses a job-count knob value; `None`/invalid/zero fall back to the
/// machine's available parallelism.
fn parse_jobs(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .min(512)
}

/// The pool size the environment asks for: `FDIP_JOBS`, defaulting to
/// [`std::thread::available_parallelism`].
pub fn jobs_from_env() -> usize {
    parse_jobs(std::env::var("FDIP_JOBS").ok().as_deref())
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The shared process-wide pool, created on first use with
/// [`jobs_from_env`] workers (unless [`set_global_jobs`] ran first).
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(jobs_from_env()))
}

/// Sizes the global pool explicitly (the `--jobs` flag). Returns `false`
/// if the global pool was already created — callers should do this
/// before any simulation work.
pub fn set_global_jobs(threads: usize) -> bool {
    GLOBAL.set(Pool::new(threads)).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    #[test]
    fn every_job_runs_exactly_once_with_results_in_order() {
        let pool = Pool::new(4);
        let ran = Arc::new(AtomicU32::new(0));
        let jobs: Vec<_> = (0u64..64)
            .map(|i| {
                let ran = Arc::clone(&ran);
                move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    i * 3
                }
            })
            .collect();
        let out = pool.run_batch(jobs);
        assert_eq!(out, (0u64..64).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(ran.load(Ordering::Relaxed), 64);
        assert_eq!(pool.stats().jobs_completed, 64);
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let pool = Pool::new(2);
        let out: Vec<u32> = pool.run_batch(Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn panic_in_a_job_fails_the_submitting_call_not_the_pool() {
        let pool = Pool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("job exploded")),
            Box::new(|| 3),
        ];
        let err = catch_unwind(AssertUnwindSafe(|| pool.run_batch(jobs)))
            .expect_err("panic must propagate to the submitter");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("job exploded"), "payload: {msg}");
        // The pool is still fully operational afterwards.
        let out = pool.run_batch(vec![|| 7u32, || 8u32]);
        assert_eq!(out, vec![7, 8]);
    }

    #[test]
    fn single_worker_pool_degrades_to_serial_submission_order() {
        let pool = Pool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<_> = (0usize..32)
            .map(|i| {
                let order = Arc::clone(&order);
                move || {
                    lock(&order).push(i);
                    i
                }
            })
            .collect();
        let out = pool.run_batch(jobs);
        assert_eq!(out, (0..32).collect::<Vec<_>>());
        assert_eq!(*lock(&order), (0..32).collect::<Vec<_>>());
        assert_eq!(pool.stats().peak_busy, 1);
    }

    #[test]
    fn concurrency_never_exceeds_the_worker_bound() {
        let pool = Pool::new(3);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<_> = (0..24)
            .map(|_| {
                let live = Arc::clone(&live);
                let peak = Arc::clone(&peak);
                move || {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                    live.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        pool.run_batch(jobs);
        let observed = peak.load(Ordering::SeqCst);
        assert!(observed <= 3, "peak concurrency {observed} > 3 workers");
        assert!(pool.stats().peak_busy <= 3);
    }

    #[test]
    fn nested_batches_complete_even_on_one_worker() {
        let pool = Arc::new(Pool::new(1));
        let inner_pool = Arc::clone(&pool);
        let out = pool.run_batch(vec![move || {
            // Submitted from inside a pool job: the worker must help
            // drain the sub-batch instead of deadlocking on itself.
            let sub = inner_pool.run_batch(vec![|| 10u32, || 20u32, || 30u32]);
            sub.iter().sum::<u32>()
        }]);
        assert_eq!(out, vec![60]);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = Arc::new(Pool::new(2));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0u64..6)
                .map(|t| {
                    let pool = Arc::clone(&pool);
                    scope.spawn(move || {
                        let jobs: Vec<_> = (0u64..16).map(|i| move || t * 100 + i).collect();
                        pool.run_batch(jobs)
                    })
                })
                .collect();
            for (t, h) in handles.into_iter().enumerate() {
                let got = h.join().expect("submitter");
                let want: Vec<u64> = (0..16).map(|i| t as u64 * 100 + i).collect();
                assert_eq!(got, want, "submitter {t} got foreign results");
            }
        });
        assert_eq!(pool.stats().jobs_completed, 96);
        assert!(pool.stats().peak_busy <= 2);
    }

    #[test]
    fn stats_report_queue_depth_and_rates() {
        let pool = Pool::new(2);
        pool.run_batch((0..10).map(|i| move || i).collect::<Vec<_>>());
        let s = pool.stats();
        assert_eq!(s.workers, 2);
        assert_eq!(s.queue_depth.count(), 10);
        assert!(s.jobs_per_sec > 0.0);
        assert!((0.0..=1.0).contains(&s.busy_fraction));
        assert_eq!(s.worker_jobs.len(), 2);
        assert_eq!(
            s.worker_jobs.iter().sum::<u64>(),
            s.jobs_completed,
            "per-worker tallies must sum to the total"
        );
        let j = s.to_json();
        for key in [
            "workers",
            "jobs_completed",
            "peak_busy",
            "steals",
            "worker_jobs",
            "busy_fraction",
            "jobs_per_sec",
            "queue_depth",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn jobs_knob_parses_with_fallback() {
        assert_eq!(parse_jobs(Some("8")), 8);
        assert_eq!(parse_jobs(Some(" 3 ")), 3);
        let fallback = parse_jobs(None);
        assert!(fallback >= 1);
        assert_eq!(parse_jobs(Some("0")), fallback);
        assert_eq!(parse_jobs(Some("not-a-number")), fallback);
        assert_eq!(parse_jobs(Some("99999")), 512);
    }
}
