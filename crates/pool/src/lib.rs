//! A persistent scoped worker pool — the one concurrency substrate shared
//! by every parallel layer of the workspace.
//!
//! The approximation flow is embarrassingly parallel at two levels: the
//! `(1 + λ)` CGP strategy evaluates λ offspring per generation, and the
//! design-space sweeps run hundreds of independent `(distribution ×
//! threshold × run)` tasks. Before this crate each level hand-rolled its
//! own scheme — `apx_cgp::evolve` spawned and joined λ fresh OS threads
//! *every generation* (millions of spawns per run), while
//! `apx_core::evolve_circuits` guarded its whole result vector with a
//! single `Mutex` that serialized every worker and, on a panicking task,
//! poisoned the lock so the caller saw a poisoning panic instead of the
//! real error. [`Pool::scope`] replaces both:
//!
//! * **Workers are spawned once** per scope and stay parked between
//!   batches, so a CGP run reuses the same threads across all generations.
//! * **Dynamic claiming**: an atomic cursor hands out one task per claim,
//!   so fast workers absorb the slack of slow ones down to the last task.
//! * **Per-slot result writes**: every task writes its result into its own
//!   slot — no shared lock on the result vector, and results come back in
//!   task order regardless of scheduling (deterministic output).
//! * **Panic capture**: a panicking task is caught, recorded as a
//!   [`TaskPanic`] naming the failing task, and surfaced to the caller;
//!   other tasks complete normally and no lock is poisoned.
//!
//! The pool is std-only (the build containers are offline, so rayon is not
//! an option) and safe-only: instead of the lifetime erasure a fully
//! general spawn API would need, the worker function is fixed when the
//! scope opens and per-batch work arrives as owned *data*. That shape fits
//! every call site in this workspace.
//!
//! # Examples
//!
//! One-shot map over a task grid:
//!
//! ```
//! let squares = apx_pool::scope_map(4, (0u64..100).collect(), |_, x| x * x).unwrap();
//! assert_eq!(squares[7], 49);
//! ```
//!
//! A pool kept alive across batches (the CGP generation loop):
//!
//! ```
//! let total: u64 = apx_pool::Pool::scope(
//!     4,
//!     |_, x: u64| x + 1,
//!     |pool| (0..10).map(|g| pool.map(vec![g; 8]).iter().sum::<u64>()).sum(),
//! );
//! assert_eq!(total, (0..10u64).map(|g| 8 * (g + 1)).sum());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A task panicked inside a pool worker.
///
/// The panic is captured at the task boundary, so sibling tasks finish and
/// no lock is poisoned; the caller receives the failing task's index and
/// panic message instead of an opaque poisoning error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the failing task in the submitted batch.
    pub index: usize,
    /// The panic payload, stringified.
    pub message: String,
}

impl fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanic {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One batch of tasks in flight. Tasks are taken (moved out) by exactly
/// one worker each; every result is written to its own slot, so the only
/// locks are uncontended per-element ones.
struct Job<T, R> {
    tasks: Vec<Mutex<Option<T>>>,
    slots: Vec<Mutex<Option<Result<R, TaskPanic>>>>,
    /// Next unclaimed task index.
    cursor: AtomicUsize,
    completed: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl<T, R> Job<T, R> {
    fn new(tasks: Vec<T>) -> Self {
        let n = tasks.len();
        Job {
            tasks: tasks.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }

    fn wait_done(&self) {
        let mut done = self.done.lock().expect("done flag is never poisoned");
        while !*done {
            done = self.done_cv.wait(done).expect("done flag is never poisoned");
        }
    }
}

/// What parked workers are waiting on: a new batch (epoch bump) or the end
/// of the scope.
struct Inbox<T, R> {
    epoch: u64,
    job: Option<Arc<Job<T, R>>>,
    shutdown: bool,
}

struct Shared<'env, T, R> {
    worker: &'env (dyn Fn(usize, T) -> R + Sync + 'env),
    threads: usize,
    inbox: Mutex<Inbox<T, R>>,
    work_cv: Condvar,
}

impl<T: Send, R: Send> Shared<'_, T, R> {
    /// A parked worker: wait for a fresh epoch, run its job, park again.
    fn worker_loop(&self) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut inbox = self.inbox.lock().expect("inbox is never poisoned");
                loop {
                    if inbox.shutdown {
                        return;
                    }
                    if inbox.epoch != seen {
                        seen = inbox.epoch;
                        break inbox.job.as_ref().map(Arc::clone);
                    }
                    inbox = self.work_cv.wait(inbox).expect("inbox is never poisoned");
                }
            };
            if let Some(job) = job {
                self.run_job(&job);
            }
        }
    }

    /// Claims tasks off the job's cursor, one at a time, until the batch
    /// is exhausted. Runs on workers and on the submitting thread alike.
    fn run_job(&self, job: &Job<T, R>) {
        let n = job.tasks.len();
        loop {
            let i = job.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return;
            }
            let task = job.tasks[i]
                .lock()
                .expect("task slot is never poisoned")
                .take()
                .expect("each task index is claimed exactly once");
            let result = catch_unwind(AssertUnwindSafe(|| (self.worker)(i, task)))
                .map_err(|payload| TaskPanic { index: i, message: panic_message(payload) });
            *job.slots[i].lock().expect("result slot is never poisoned") = Some(result);
            if job.completed.fetch_add(1, Ordering::AcqRel) + 1 == n {
                *job.done.lock().expect("done flag is never poisoned") = true;
                job.done_cv.notify_all();
            }
        }
    }

    fn shutdown(&self) {
        let mut inbox = self.inbox.lock().expect("inbox is never poisoned");
        inbox.shutdown = true;
        drop(inbox);
        self.work_cv.notify_all();
    }
}

/// Wakes parked workers even when the scope body unwinds, so the enclosing
/// `thread::scope` can join them instead of deadlocking.
struct ShutdownGuard<'s, T: Send, R: Send>(&'s Shared<'s, T, R>);

impl<T: Send, R: Send> Drop for ShutdownGuard<'_, T, R> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// The handle a [`Pool::scope`] body uses to run batches on the pool.
pub struct Executor<'s, T: Send, R: Send> {
    shared: &'s Shared<'s, T, R>,
}

impl<T: Send, R: Send> Executor<'_, T, R> {
    /// Runs one batch: applies the scope's worker function to every task,
    /// in parallel, and returns the results **in task order**.
    ///
    /// Tasks start in index order, one per claim off a shared cursor: a
    /// free thread always takes the next unstarted task, so a slow task
    /// never holds back queued ones. The submitting thread participates in
    /// the work, so a 1-thread pool degenerates to a plain in-order loop
    /// with zero synchronization traffic beyond the per-slot writes.
    ///
    /// # Errors
    ///
    /// Returns the [`TaskPanic`] of the lowest-indexed panicking task (all
    /// other tasks still run to completion).
    pub fn try_map(&self, tasks: Vec<T>) -> Result<Vec<R>, TaskPanic> {
        let n = tasks.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let job = Arc::new(Job::new(tasks));
        if self.shared.threads > 1 {
            let mut inbox = self.shared.inbox.lock().expect("inbox is never poisoned");
            inbox.epoch += 1;
            inbox.job = Some(Arc::clone(&job));
            drop(inbox);
            self.shared.work_cv.notify_all();
        }
        self.shared.run_job(&job);
        job.wait_done();
        if self.shared.threads > 1 {
            // Drop the inbox's reference so the batch frees promptly.
            self.shared.inbox.lock().expect("inbox is never poisoned").job = None;
        }
        let mut out = Vec::with_capacity(n);
        for slot in &job.slots {
            let result = slot
                .lock()
                .expect("result slot is never poisoned")
                .take()
                .expect("a completed job has every slot filled");
            out.push(result?);
        }
        Ok(out)
    }

    /// Like [`Executor::try_map`], but re-raises a task panic on the
    /// submitting thread with the task named in the message.
    ///
    /// # Panics
    ///
    /// Panics if any task panicked.
    pub fn map(&self, tasks: Vec<T>) -> Vec<R> {
        match self.try_map(tasks) {
            Ok(results) => results,
            Err(e) => panic!("{e}"),
        }
    }
}

/// The pool entry point. See [`Pool::scope`].
#[derive(Debug)]
pub struct Pool;

impl Pool {
    /// Opens a scope with `threads − 1` parked worker threads (the scope
    /// body's thread is the remaining worker) all running `worker`, hands
    /// `body` an [`Executor`] to submit batches through, and tears the
    /// workers down when `body` returns.
    ///
    /// The worker function is fixed for the whole scope; per-batch work
    /// arrives as owned data via [`Executor::map`] / [`Executor::try_map`].
    /// `worker` receives `(task index within the batch, task)`.
    ///
    /// With `threads <= 1` no OS threads are spawned at all and every
    /// batch runs inline on the caller.
    pub fn scope<T, R, W, B, O>(threads: usize, worker: W, body: B) -> O
    where
        T: Send,
        R: Send,
        W: Fn(usize, T) -> R + Sync,
        B: FnOnce(&Executor<'_, T, R>) -> O,
    {
        let threads = threads.max(1);
        let shared = Shared {
            worker: &worker,
            threads,
            inbox: Mutex::new(Inbox { epoch: 0, job: None, shutdown: false }),
            work_cv: Condvar::new(),
        };
        if threads == 1 {
            return body(&Executor { shared: &shared });
        }
        std::thread::scope(|scope| {
            for _ in 1..threads {
                let shared = &shared;
                scope.spawn(move || shared.worker_loop());
            }
            let _guard = ShutdownGuard(&shared);
            body(&Executor { shared: &shared })
        })
    }
}

/// One-shot convenience: maps `worker` over `tasks` on a transient
/// `threads`-wide pool and returns the results in task order.
///
/// # Errors
///
/// Returns the [`TaskPanic`] of the lowest-indexed panicking task.
pub fn scope_map<T, R, W>(threads: usize, tasks: Vec<T>, worker: W) -> Result<Vec<R>, TaskPanic>
where
    T: Send,
    R: Send,
    W: Fn(usize, T) -> R + Sync,
{
    Pool::scope(threads, worker, |pool| pool.try_map(tasks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 4, 7] {
            let out = scope_map(threads, (0..100usize).collect(), |i, x| {
                assert_eq!(i, x, "index matches task position");
                x * 3
            })
            .unwrap();
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_persists_across_batches() {
        // Count distinct batch submissions served by the same scope.
        let served = AtomicU64::new(0);
        let sums: Vec<u64> = Pool::scope(
            4,
            |_, x: u64| {
                served.fetch_add(1, Ordering::Relaxed);
                x
            },
            |pool| (0..50).map(|g| pool.map(vec![g; 8]).iter().sum()).collect(),
        );
        assert_eq!(served.load(Ordering::Relaxed), 50 * 8);
        assert_eq!(sums, (0..50u64).map(|g| 8 * g).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_task_batches_work() {
        Pool::scope(
            3,
            |_, x: u32| x + 1,
            |pool| {
                assert_eq!(pool.map(Vec::new()), Vec::<u32>::new());
                assert_eq!(pool.map(vec![9]), vec![10]);
            },
        );
    }

    #[test]
    fn panic_surfaces_the_failing_task_not_a_poisoned_lock() {
        let err = scope_map(4, (0..32usize).collect(), |_, x| {
            assert!(x != 13, "task 13 exploded");
            x
        })
        .unwrap_err();
        assert_eq!(err.index, 13);
        assert!(err.message.contains("task 13 exploded"), "message was: {}", err.message);
        assert!(err.to_string().contains("task 13"), "display names the task");
    }

    #[test]
    fn lowest_indexed_panic_wins_and_siblings_complete() {
        let completed = AtomicU64::new(0);
        let err = scope_map(4, (0..64usize).collect(), |_, x| {
            if x == 50 || x == 7 {
                panic!("boom {x}");
            }
            completed.fetch_add(1, Ordering::Relaxed);
            x
        })
        .unwrap_err();
        assert_eq!(err.index, 7);
        assert_eq!(completed.load(Ordering::Relaxed), 62, "non-panicking tasks all ran");
    }

    #[test]
    fn pool_survives_a_panicking_batch() {
        Pool::scope(
            4,
            |_, x: u32| {
                assert!(x != 3, "three is right out");
                x
            },
            |pool| {
                assert!(pool.try_map(vec![1, 2, 3, 4]).is_err());
                // The same workers must still serve the next batch.
                assert_eq!(pool.try_map(vec![5, 6]).unwrap(), vec![5, 6]);
            },
        );
    }

    #[test]
    fn work_stealing_covers_unbalanced_tasks() {
        // A few heavy tasks among many light ones; every index must still
        // be produced exactly once.
        let out = scope_map(4, (0..200u64).collect(), |_, x| {
            if x % 50 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        })
        .unwrap();
        assert_eq!(out, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let out = scope_map(16, vec![1u8, 2], |_, x| x * 2).unwrap();
        assert_eq!(out, vec![2, 4]);
    }

    #[test]
    fn task_panic_is_a_std_error() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>(_: &E) {}
        assert_error(&TaskPanic { index: 0, message: "x".into() });
    }
}
