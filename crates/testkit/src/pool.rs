//! The workspace's sanctioned worker-thread pool.
//!
//! Determinism rule PQ004 bans `std::thread` everywhere — except this
//! file, which the lint exempts by path. Everything that executes off
//! the main thread anywhere in the workspace goes through
//! [`WorkerPool`], and the pool's one primitive is a *deterministic
//! map*: [`WorkerPool::map`] hands job `i` the `i`-th input and stores
//! its output in slot `i`, so the result vector is always in submit
//! order no matter which worker finishes first. Scheduling jitter can
//! reorder *completion*, never *results*.
//!
//! Panic containment: a panicking job never takes the pool (or the
//! caller) down with a hang. The panic is caught on the worker, the
//! batch still runs to completion, and `map` returns a typed
//! [`PoolError`] carrying the first panicking job's index and message.
//! The pool itself stays usable for the next batch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

/// Number of hardware threads available to this process (at least 1).
pub fn ncpu() -> usize {
    thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A job panicked inside [`WorkerPool::map`].
///
/// `job` is the lowest submit-order index among the panicking jobs
/// (the one a serial loop would have stopped at); `message` is its
/// panic payload rendered as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Submit-order index of the panicking job.
    pub job: usize,
    /// The panic payload (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked on job {}: {}", self.job, self.message)
    }
}

impl std::error::Error for PoolError {}

/// Render a panic payload as text (`&str` and `String` payloads pass
/// through verbatim, anything else becomes a generic message).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// A type-erased batch task: `call(data, job)` runs job `job`.
///
/// Safety: `data` borrows state on the submitting thread's stack. The
/// erasure is sound because [`WorkerPool::run_raw`] blocks until every
/// claimed job has finished (`done == jobs`, panics included), so the
/// borrow outlives every worker access.
#[derive(Clone, Copy)]
struct RawTask {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

unsafe impl Send for RawTask {}

struct State {
    jobs: usize,
    next: usize,
    done: usize,
    task: Option<RawTask>,
    failure: Option<PoolError>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a new batch arrives or the pool shuts down.
    work: Condvar,
    /// Signalled when the last job of a batch completes.
    idle: Condvar,
}

/// A fixed-size pool of persistent worker threads executing
/// deterministic batch maps. See the module docs for the model.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool of `workers` persistent threads (at least 1).
    ///
    /// # Panics
    /// Panics if the host refuses to spawn a thread; use
    /// [`WorkerPool::try_new`] to handle that case.
    pub fn new(workers: usize) -> Self {
        match Self::try_new(workers) {
            Ok(pool) => pool,
            // The panic `thread::spawn` raised here before the fallible
            // constructor existed, not a new one.
            Err(e) => panic!("failed to spawn worker pool: {e}"), // parqp-lint: allow(PQ201)
        }
    }

    /// Fallible [`WorkerPool::new`]: a refused spawn (thread limit,
    /// out of memory) shuts down the workers already started and
    /// returns the OS error.
    // Sanctioned spawn site: this file is the PQ004 path exemption (see
    // module docs), and deterministic merge means the threads never
    // affect observable results.
    pub fn try_new(workers: usize) -> std::io::Result<Self> {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: 0,
                next: 0,
                done: 0,
                task: None,
                failure: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        // Built before the first spawn so an early return drops it,
        // and `Drop` joins whatever was started.
        let mut pool = Self {
            shared,
            handles: Vec::new(),
            workers,
        };
        for _ in 0..workers {
            let shared = Arc::clone(&pool.shared);
            let handle = thread::Builder::new().spawn(move || worker_loop(&shared))?;
            pool.handles.push(handle);
        }
        Ok(pool)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Apply `f` to every item on the pool and return the outputs in
    /// submit order: `out[i] == f(i, items[i])`.
    ///
    /// Blocks until the whole batch has finished. If any job panics the
    /// remaining jobs still run (so borrowed state stays sound), and
    /// the first panic in submit order is returned as a [`PoolError`].
    pub fn map<I, O, F>(&self, items: Vec<I>, f: F) -> Result<Vec<O>, PoolError>
    where
        I: Send,
        O: Send,
        F: Fn(usize, I) -> O + Sync,
    {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let slots: Vec<Mutex<Slot<I, O>>> = items
            .into_iter()
            .map(|item| {
                Mutex::new(Slot {
                    input: Some(item),
                    output: None,
                })
            })
            .collect();
        let jobs = slots.len();
        let run_one = |job: usize| {
            let input = lock_slot(&slots[job]).input.take().expect("input present");
            let output = f(job, input);
            lock_slot(&slots[job]).output = Some(output);
        };
        if let Some(err) = self.run_raw(jobs, erase(&run_one)) {
            return Err(err);
        }
        Ok(slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .output
                    .expect("job completed")
            })
            .collect())
    }

    /// Publish a batch, wake the workers, and block until every job has
    /// been executed. Returns the first panic, if any.
    fn run_raw(&self, jobs: usize, task: RawTask) -> Option<PoolError> {
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.jobs = jobs;
            st.next = 0;
            st.done = 0;
            st.failure = None;
            st.task = Some(task);
        }
        self.shared.work.notify_all();
        let mut st = self.shared.state.lock().expect("pool lock");
        while st.done < st.jobs {
            st = self.shared.idle.wait(st).expect("pool lock");
        }
        st.task = None;
        st.failure.take()
    }
}

struct Slot<I, O> {
    input: Option<I>,
    output: Option<O>,
}

/// Lock a slot, recovering from poisoning (a panicking *other* job can
/// never poison this slot — each slot is touched by exactly one job).
fn lock_slot<'a, I, O>(slot: &'a Mutex<Slot<I, O>>) -> std::sync::MutexGuard<'a, Slot<I, O>> {
    slot.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Erase a `Fn(usize)` closure to a [`RawTask`] (see its safety note).
fn erase<C: Fn(usize) + Sync>(c: &C) -> RawTask {
    unsafe fn thunk<C: Fn(usize)>(data: *const (), job: usize) {
        let c = unsafe { &*data.cast::<C>() };
        c(job);
    }
    RawTask {
        data: (c as *const C).cast(),
        call: thunk::<C>,
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (task, job) = {
            let mut st = shared.state.lock().expect("pool lock");
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(task) = st.task {
                    if st.next < st.jobs {
                        let job = st.next;
                        st.next += 1;
                        break (task, job);
                    }
                }
                st = shared.work.wait(st).expect("pool lock");
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (task.call)(task.data, job) }));
        let mut st = shared.state.lock().expect("pool lock");
        if let Err(payload) = outcome {
            // Keep the lowest job index, not the first to finish: every
            // job runs, so this is the first panic in submit order.
            if st.failure.as_ref().is_none_or(|first| job < first.job) {
                st.failure = Some(PoolError {
                    job,
                    message: panic_message(payload.as_ref()),
                });
            }
        }
        st.done += 1;
        if st.done == st.jobs {
            shared.idle.notify_all();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_results_in_submit_order() {
        let pool = WorkerPool::new(4);
        // Front-load the heaviest jobs so completion order inverts
        // submit order on any scheduler — results must not.
        let items: Vec<u64> = (0..64).map(|i| (64 - i) * 20_000).collect();
        let out = pool
            .map(items, |i, spin| {
                let mut acc = 0u64;
                for k in 0..spin {
                    acc = acc.wrapping_add(k ^ i as u64);
                }
                std::hint::black_box(acc);
                i
            })
            .expect("no panics");
        assert_eq!(out, (0..64).collect::<Vec<usize>>());
    }

    #[test]
    fn repeated_batches_are_identical() {
        let pool = WorkerPool::new(3);
        let run = || {
            pool.map((0..100u64).collect(), |i, x| x * 3 + i as u64)
                .expect("no panics")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a[10], 40);
    }

    #[test]
    fn panic_is_typed_not_a_hang() {
        let pool = WorkerPool::new(4);
        let err = pool
            .map((0..32usize).collect(), |_, x| {
                assert!(x != 13, "unlucky job");
                x * 2
            })
            .expect_err("job 13 panics");
        assert_eq!(err.job, 13);
        assert!(err.message.contains("unlucky job"), "got: {}", err.message);
    }

    #[test]
    fn the_reported_panic_is_the_first_in_submit_order_not_in_time() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Two workers, three jobs: job 0 blocks until job 2 starts, and
        // job 2 can only start on the worker that has already recorded
        // job 1's panic — so job 0 is always the *second* panic in time.
        let pool = WorkerPool::new(2);
        let job_two_started = AtomicBool::new(false);
        let err = pool
            .map(vec![(); 3], |job, ()| match job {
                0 => {
                    while !job_two_started.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                    panic!("job 0 dies");
                }
                1 => panic!("job 1 dies"),
                _ => job_two_started.store(true, Ordering::SeqCst),
            })
            .expect_err("two jobs panic");
        assert_eq!((err.job, err.message.as_str()), (0, "job 0 dies"));
    }

    #[test]
    fn pool_survives_a_panicking_batch() {
        let pool = WorkerPool::new(2);
        let err = pool
            .map(vec![0usize], |_, _| -> usize { panic!("boom") })
            .expect_err("panics");
        assert_eq!(err.message, "boom");
        // The next batch on the same pool is clean.
        let ok = pool.map(vec![1usize, 2, 3], |_, x| x + 1).expect("clean");
        assert_eq!(ok, vec![2, 3, 4]);
    }

    #[test]
    fn empty_batch_and_single_worker() {
        let pool = WorkerPool::new(1);
        let out: Vec<u32> = pool.map(Vec::<u32>::new(), |_, x| x).expect("empty");
        assert!(out.is_empty());
        let out = pool.map(vec![7u32; 5], |i, x| x + i as u32).expect("runs");
        assert_eq!(out, vec![7, 8, 9, 10, 11]);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.map(vec![1], |_, x: i32| x).expect("runs"), vec![1]);
    }

    #[test]
    fn ncpu_is_positive() {
        assert!(ncpu() >= 1);
    }
}
