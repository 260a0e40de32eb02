//! The persistent work-stealing worker pool.
//!
//! Topology: one shared **injector** queue (the submission queue) plus
//! one deque per worker. Workers run their own deque front-to-back
//! (FIFO), refill from the injector in small batches, and steal from the
//! *back* of other workers' deques when both are dry — the classic
//! work-stealing shape, built entirely from `std` primitives so the
//! crate stays dependency-free.
//!
//! Tasks are `'static` closures; sweep drivers own their inputs (cheap
//! to materialise for every engine workload) instead of borrowing them,
//! which is what lets the pool outlive any single call.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use crate::stream::OrderedResults;

/// A unit of work queued on the pool.
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

/// Lock `m`, recovering the guard when a previous holder panicked.
///
/// Every structure behind a pool lock is a plain `VecDeque` whose
/// mutations (`push`, `pop`, `extend` of already-built boxes) cannot be
/// observed half-done across an unwind point, so a poisoned mutex still
/// guards a valid queue — the poison flag records *that* a panic
/// happened, not that the data is broken. Propagating it instead (the
/// pre-fix `.expect("poisoned")` behaviour) is what let one panicking
/// task cascade: the next worker to touch the injector died on the
/// flag, poisoning more locks, until the whole pool was gone. A
/// resident service cannot run on a pool with that failure model; the
/// panic itself is still surfaced via the task's result slot and the
/// `tasks_panicked` telemetry counter.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Maximum tasks a worker moves from the injector to its own deque in
/// one refill: big enough to keep injector-lock traffic negligible,
/// small enough that stealing stays effective on short sweeps.
const REFILL_BATCH: usize = 8;

/// State shared between the pool handle, its workers and any helping
/// waiters.
pub(crate) struct Shared {
    /// The submission queue.
    injector: Mutex<VecDeque<Task>>,
    /// Signalled when work is submitted or shutdown begins.
    work_ready: Condvar,
    /// Per-worker deques. Workers pop their own front; thieves (other
    /// workers and blocked waiters) pop the back.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Set once by `Drop`; workers exit at the next idle check.
    shutdown: AtomicBool,
}

impl Shared {
    /// Pop one pending task from anywhere: injector first, then the
    /// back of each worker deque. Used by helping waiters; `skip` lets a
    /// worker exclude its own deque (it pops that from the front).
    pub(crate) fn try_pop_any(&self, skip: Option<usize>) -> Option<Task> {
        if let Some(t) = lock_recover(&self.injector).pop_front() {
            return Some(t);
        }
        for (i, q) in self.queues.iter().enumerate() {
            if Some(i) == skip {
                continue;
            }
            // `try_lock`: a contended deque is being worked on; steal
            // elsewhere rather than serialising on it.
            if let Ok(mut q) = q.try_lock() {
                if let Some(t) = q.pop_back() {
                    tp_telemetry::count(tp_telemetry::Counter::PoolSteals);
                    return Some(t);
                }
            }
        }
        None
    }
}

/// A persistent pool of worker threads with a submission queue and
/// per-worker work-stealing deques.
///
/// Dropping the pool stops the workers after their in-flight tasks;
/// tasks still queued at that point are discarded, so drop a pool only
/// once its batches have been consumed. The [`global`] pool is never
/// dropped.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tp-sched-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawning a pool worker failed")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Queue one fire-and-forget task.
    ///
    /// A panic in the task is caught and discarded so it cannot kill a
    /// worker; use [`WorkerPool::map`] when failures must propagate.
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) {
        self.submit_batch(std::iter::once(Box::new(task) as Task));
    }

    /// Queue a batch of tasks under one injector lock and wake workers.
    fn submit_batch(&self, tasks: impl Iterator<Item = Task>) {
        let mut q = lock_recover(&self.shared.injector);
        let before = q.len();
        q.extend(tasks);
        let after = q.len();
        drop(q);
        if after == before {
            return; // an empty batch has nothing to wake a worker for
        }
        if tp_telemetry::enabled() {
            tp_telemetry::count_n(
                tp_telemetry::Counter::PoolSubmitted,
                (after - before) as u64,
            );
            tp_telemetry::queue_depth(after as u64);
        }
        self.shared.work_ready.notify_all();
    }

    /// Run `f` over `items` on the pool and return the results **in
    /// item order** — the deterministic-merge primitive every sweep
    /// driver builds on. The calling thread helps execute pending tasks
    /// while it waits. A panicking task re-panics here, on the caller.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(usize, I) -> T + Send + Sync + 'static,
    {
        self.map_streamed(items, f).collect()
    }

    /// Like [`WorkerPool::map`], but returns an [`OrderedResults`]
    /// stream immediately: results arrive in submission order as soon
    /// as every earlier task has finished, so the caller can merge or
    /// render a sweep while its tail is still executing.
    pub fn map_streamed<I, T, F>(&self, items: Vec<I>, f: F) -> OrderedResults<T>
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(usize, I) -> T + Send + Sync + 'static,
    {
        let total = items.len();
        let (tx, rx) = mpsc::channel();
        let f = Arc::new(f);
        self.submit_batch(items.into_iter().enumerate().map(|(i, item)| {
            let tx = tx.clone();
            let f = Arc::clone(&f);
            Box::new(move || {
                let r = catch_unwind(AssertUnwindSafe(|| f(i, item)));
                if r.is_err() {
                    tp_telemetry::count(tp_telemetry::Counter::TasksPanicked);
                }
                // A dropped receiver just means the caller abandoned the
                // stream; the task's work is already done either way.
                let _ = tx.send((i, r));
            }) as Task
        }));
        OrderedResults::new(rx, total, Arc::clone(&self.shared))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Take the lock so the store cannot race a worker that already
        // checked `shutdown` and is about to wait.
        drop(lock_recover(&self.shared.injector));
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

thread_local! {
    /// The pool index of the current thread, when it is a pool worker.
    static WORKER_ID: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The pool worker index of the calling thread, or `None` off the pool
/// (drivers, helping waiters). Telemetry spans use this to attribute
/// work to workers without the pool depending on the telemetry crate's
/// callers.
pub fn current_worker() -> Option<usize> {
    WORKER_ID.with(|w| w.get())
}

/// The body of one worker thread.
fn worker_loop(shared: &Shared, me: usize) {
    WORKER_ID.with(|w| w.set(Some(me)));
    loop {
        // 1. Own deque, front first (FIFO over refilled batches).
        let own = lock_recover(&shared.queues[me]).pop_front();
        if let Some(t) = own {
            run_task(t);
            continue;
        }

        // 2. Refill from the injector: run one task now, bank the rest.
        {
            let mut inj = lock_recover(&shared.injector);
            if let Some(first) = inj.pop_front() {
                let extra: Vec<Task> = (1..REFILL_BATCH).filter_map(|_| inj.pop_front()).collect();
                drop(inj);
                if !extra.is_empty() {
                    lock_recover(&shared.queues[me]).extend(extra);
                    // The bank is visible to thieves; let sleepers know.
                    shared.work_ready.notify_all();
                }
                run_task(first);
                continue;
            }
        }

        // 3. Steal from a sibling's back.
        if let Some(t) = shared.try_pop_any(Some(me)) {
            run_task(t);
            continue;
        }

        // 4. Nothing anywhere: park until a submission (or shutdown).
        let inj = lock_recover(&shared.injector);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if inj.is_empty() {
            // Re-checked under the lock `submit_batch` pushes under, so
            // a concurrent submission cannot be missed. Tasks banked in
            // sibling deques are their owners' responsibility; waking
            // for them is a performance nicety handled by the refill
            // notify above, not a liveness requirement.
            tp_telemetry::count(tp_telemetry::Counter::PoolParks);
            let _unused = shared
                .work_ready
                .wait(inj)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Execute one task, containing any panic to the task itself. `map`
/// tasks re-route the payload through their result channel (and count
/// their own panics before doing so); a bare `submit` panic ends with
/// the task, leaving the `tasks_panicked` counter as its only trace.
pub(crate) fn run_task(t: Task) {
    if catch_unwind(AssertUnwindSafe(t)).is_err() {
        tp_telemetry::count(tp_telemetry::Counter::TasksPanicked);
    }
}

// ---------------------------------------------------------------------
// The global pool
// ---------------------------------------------------------------------

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
static THREAD_HINT: AtomicUsize = AtomicUsize::new(0);

/// The number of worker threads the host offers (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Request a size for the [`global`] pool before it is first used
/// (e.g. from a `--threads` CLI flag). Returns `false` if the pool was
/// already built, in which case the hint has no effect.
pub fn configure_global_threads(threads: usize) -> bool {
    THREAD_HINT.store(threads.max(1), Ordering::SeqCst);
    GLOBAL.get().is_none()
}

/// The process-wide pool, built on first use and never torn down. One
/// instance serves every sweep in the process — an entire `bin/all`
/// run spawns its workers exactly once.
///
/// Size precedence: [`configure_global_threads`], then the `TP_THREADS`
/// environment variable, then [`available_threads`].
pub fn global() -> &'static WorkerPool {
    GLOBAL.get_or_init(|| {
        let hint = THREAD_HINT.load(Ordering::SeqCst);
        let threads = if hint > 0 {
            hint
        } else {
            std::env::var("TP_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(available_threads)
        };
        WorkerPool::new(threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_returns_results_in_item_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..203).collect();
        let out = pool.map(items.clone(), |i, x| {
            assert_eq!(i, x);
            // Uneven task cost so completion order scrambles.
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_empty_and_single_item_batches() {
        let pool = WorkerPool::new(3);
        let out: Vec<u32> = pool.map(Vec::new(), |_, x: u32| x);
        assert!(out.is_empty());
        assert_eq!(pool.map(vec![41u32], |_, x| x + 1), vec![42]);
    }

    #[test]
    fn one_pool_serves_many_batches_without_respawning() {
        let pool = WorkerPool::new(2);
        for round in 0..50 {
            let out = pool.map((0..17).collect::<Vec<u64>>(), move |_, x| x + round);
            assert_eq!(out.len(), 17);
            assert_eq!(out[0], round);
        }
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn submit_runs_fire_and_forget_tasks() {
        let pool = WorkerPool::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..32 {
            let hits = Arc::clone(&hits);
            pool.submit(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Flush: a map batch completes only after the workers drained
        // everything ahead of it or alongside it; poll for the rest.
        let _ = pool.map(vec![(); 4], |_, ()| ());
        for _ in 0..1000 {
            if hits.load(Ordering::SeqCst) == 32 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("fire-and-forget tasks did not all run");
    }

    #[test]
    fn panic_in_map_task_propagates_to_caller_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![0u32, 1, 2, 3], |_, x| {
                if x == 2 {
                    panic!("boom {x}");
                }
                x
            })
        }));
        assert!(r.is_err(), "task panic must reach the caller");
        // The pool must still schedule fresh work afterwards.
        assert_eq!(pool.map(vec![1u32, 2], |_, x| x * 2), vec![2, 4]);
    }

    /// Deliberately poison the injector mutex (a thread panics while
    /// holding it) and verify the pool shrugs it off: `lock_recover`
    /// must hand every subsequent submit/map the still-valid queue.
    #[test]
    fn pool_survives_a_poisoned_injector_lock() {
        let pool = Arc::new(WorkerPool::new(2));
        let shared = Arc::clone(&pool.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.injector.lock().unwrap();
            panic!("poison the injector");
        })
        .join();
        assert!(pool.shared.injector.is_poisoned(), "setup must poison");
        pool.submit(|| {});
        assert_eq!(pool.map(vec![5u32, 6], |_, x| x + 1), vec![6, 7]);
    }

    #[test]
    fn nested_map_from_inside_a_task_does_not_deadlock() {
        // More nested batches than workers: waiters must help.
        let pool = Arc::new(WorkerPool::new(2));
        let p = Arc::clone(&pool);
        let out = pool.map((0..8u64).collect(), move |_, x| {
            p.map((0..5u64).collect(), move |_, y| x * 10 + y)
                .into_iter()
                .sum::<u64>()
        });
        let expect: Vec<u64> = (0..8).map(|x| 5 * 10 * x + 10).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn zero_thread_request_is_clamped() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(vec![7u8], |_, x| x), vec![7]);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = global() as *const WorkerPool;
        let b = global() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }
}
