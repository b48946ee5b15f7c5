//! The persistent kernel worker pool — fork-join regions *and* whole-job
//! task parallelism on one set of workers.
//!
//! The seed implementation spawned and joined OS threads inside *every*
//! parallel kernel call via [`std::thread::scope`]; at the matmul sizes this
//! workspace trains (activations of a few thousand elements), spawn/join
//! overhead dwarfed the kernel itself. This module replaces it with a pool
//! of workers spawned once, parked on a channel, and handed either batches
//! of index-addressed tasks or whole submitted jobs.
//!
//! ## Fork-join regions
//!
//! A parallel region is a [`run_tasks`] call: `n_tasks` independent tasks,
//! each identified by its index. The caller publishes the batch to at most
//! `helpers` pool workers, then *participates itself*: caller and workers
//! race to claim indices from a shared atomic counter until the batch is
//! drained, after which the caller blocks until every claimed task has
//! finished. Because the caller always participates, a region completes
//! even with zero pool workers (single-core hosts) and nested regions
//! cannot deadlock — an inner caller drains its own batch.
//!
//! ## Submitted jobs
//!
//! [`submit`] hands the pool one owned closure and returns a [`JobHandle`];
//! [`JobHandle::join`] returns once the result is available. Jobs flow
//! through the same channel as fork-join batches, so a parked worker serves
//! whichever arrives first, and the two styles compose: the main thread can
//! keep issuing fork-join kernels (sharded aggregation, streaming eval)
//! while whole-client training jobs run task-parallel on other workers.
//!
//! Jobs are **claimed by ownership transfer**: whoever `take`s the closure
//! out of the job's slot runs it — a parked worker, or the joining thread
//! itself if no worker got there first (*steal-on-join*). Steal-on-join
//! makes `join` deadlock-free by construction: a queued job can always be
//! executed by its joiner, so zero-worker hosts degrade to inline execution
//! and a saturated pool can never wedge the submitter. A joiner whose job
//! another thread is already running does not sleep beside a full queue
//! either (*helping join*): until its job finishes it pops the next message
//! and does what a worker does with it — runs the job, drains the batch,
//! releases the slot of a stale message — and only waits once the queue is
//! empty. Only a thread that is not itself inside a submitted job helps, so
//! helping never nests (an experiment running as a grid job does not start
//! a second one inside its own join) and a helper owes nobody an answer
//! while it works. What it costs is latency on that one join — a helper
//! that has just picked up a job finishes it before it looks at its own
//! again — and, like steal-on-join, it assumes a job never blocks on
//! something only its joiner would do afterwards.
//! [`JobHandle::cancel`] claims an unstarted job back for free (the
//! closure is dropped unexecuted); a handle merely *dropped* abandons the
//! result instead — the job may still run on a worker (wasted work the
//! caller opted into — speculative execution), and a panic inside an
//! abandoned job is confined to its `catch_unwind`.
//!
//! [`crate::ctx::KernelCtx::max_pool_jobs`] caps how many submitted jobs may occupy the pool
//! (queued + running) at once; excess submissions skip the channel and run
//! at `join` on the joining thread. The cap exists for the worker-count
//! sweeps of the determinism tests (ExecMode × workers {1, 2, 4, 8}), where
//! it emulates smaller worker counts on one process. [`ensure_workers`]
//! grows the pool beyond the default `cores − 1` for the same purpose.
//!
//! ## Determinism
//!
//! Which thread runs a task is scheduling-dependent, but fork-join tasks
//! are *data-disjoint by construction*: the matmul/conv kernels partition
//! output rows, the sharded aggregation kernel partitions the model
//! dimension into fixed chunks, and the streaming evaluator partitions the
//! test set into fixed mini-batches whose results land in per-batch slots.
//! Submitted jobs own their inputs and return their outputs through the
//! handle, so their results cannot depend on the executing thread either
//! (given a pure closure). Results are therefore bit-identical regardless
//! of thread assignment. See [`crate::parallel`].
//!
//! ## Safety
//!
//! The fork-join closure borrows caller stack data. The borrow is erased to
//! `'static` when published to workers and re-protected by the completion
//! barrier: `run_tasks` does not return until `pending == 0`, and workers
//! never touch the closure after the claim counter passes `n_tasks`.
//! Submitted jobs take the conventional route instead: `'static + Send`
//! ownership, no erasure.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One published parallel region.
struct Batch {
    /// Erased `&dyn Fn(usize) + Sync` borrowed from the caller's stack.
    /// Valid until `pending` reaches zero (the caller's barrier).
    func: *const (dyn Fn(usize) + Sync),
    /// The publisher's kernel-ctx overlay, installed by every thread that
    /// drains the batch so per-run configuration crosses the pool.
    ctx: Option<crate::ctx::KernelCtx>,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Total tasks in the region.
    total: usize,
    /// Unfinished-task count, guarded for the completion condvar.
    pending: Mutex<usize>,
    /// Signals `pending == 0`.
    done: Condvar,
    /// Set when a task panicked (on any thread).
    poisoned: AtomicBool,
    /// The first panic's payload, preserved so the caller can resume the
    /// unwind with the original message and location intact.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: the raw closure pointer is only dereferenced while the caller's
// barrier holds the underlying borrow alive, and the closure itself is
// `Sync`; every other field is already `Send`.
unsafe impl Send for Batch {}
// SAFETY: shared access is safe for the same reason — `func` is only read
// through a `&(dyn Fn + Sync)`, and all mutable state is atomic or locked.
unsafe impl Sync for Batch {}

impl Batch {
    /// Claims and runs tasks until the batch is drained. Returns the number
    /// of tasks this thread completed.
    fn work(&self) -> usize {
        let _ctx = crate::ctx::set_overlay(self.ctx);
        let mut ran = 0usize;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return ran;
            }
            // SAFETY: `pending > 0` for this task until we decrement below,
            // so the caller is still inside `run_tasks` and the borrow
            // behind `func` is alive.
            let func = unsafe { &*self.func };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| func(i))) {
                self.poisoned.store(true, Ordering::Release);
                let mut slot = self.panic_payload.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            ran += 1;
            let mut pending = self.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                drop(pending);
                self.done.notify_all();
            }
        }
    }

    /// Blocks until every task has finished.
    fn wait(&self) {
        let mut pending = self.pending.lock().unwrap();
        while *pending > 0 {
            pending = self.done.wait(pending).unwrap();
        }
    }
}

/// One in-flight submitted job: the type-erased closure plus the
/// completion signal. The closure is claimed by `take`-ing it out of the
/// slot — exactly one thread (a pool worker, the joiner, or a canceller)
/// ever obtains it.
struct JobCore {
    /// `Some` until claimed. The runner closure stores its own result (and
    /// any panic payload) through the `Arc`ed slot it captured at
    /// [`submit`] time.
    task: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    /// Set (under the mutex) once the job finished (ran or was cancelled).
    finished: Mutex<bool>,
    /// Signals `finished == true`.
    done: Condvar,
    /// Whether this job still holds a [`POOL_JOBS`] occupancy slot. Held
    /// from `submit` until a worker finishes running the job — or released
    /// early when a joiner steals it or a canceller claims it (the job has
    /// left the pool at that point even if its stale channel message is
    /// still queued). The swap makes the release exactly-once.
    pool_slot: AtomicBool,
}

impl JobCore {
    /// Claims the closure; the caller must run (or drop) it and then call
    /// [`JobCore::mark_finished`].
    fn claim(&self) -> Option<Box<dyn FnOnce() + Send>> {
        self.task.lock().unwrap().take()
    }

    /// Signals completion to any waiting joiner.
    fn mark_finished(&self) {
        *self.finished.lock().unwrap() = true;
        self.done.notify_all();
    }

    /// Releases the job's pool-occupancy slot (exactly once; no-op for
    /// jobs that never entered the pool).
    fn release_slot(&self) {
        if self.pool_slot.swap(false, Ordering::AcqRel) {
            POOL_JOBS.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Blocks until the claimed job has finished running.
    fn wait(&self) {
        let mut finished = self.finished.lock().unwrap();
        while !*finished {
            finished = self.done.wait(finished).unwrap();
        }
    }
}

/// What flows through the pool channel: fork-join batches and whole jobs.
enum Message {
    Batch(Arc<Batch>),
    Job(Arc<JobCore>),
}

/// Handle to a job submitted with [`submit`]. [`join`](JobHandle::join)
/// retrieves the result; dropping the handle abandons it.
pub struct JobHandle<T> {
    core: Arc<JobCore>,
    result: Arc<Mutex<Option<std::thread::Result<T>>>>,
}

impl<T> JobHandle<T> {
    /// Returns the job's result, running the job on *this* thread if no
    /// worker has claimed it yet (steal-on-join — see module docs). While
    /// another thread is mid-run on it, a joiner that is not itself inside
    /// a pool job works through the pool's queue like a worker (*helping
    /// join*) and sleeps only once the queue is empty.
    ///
    /// # Panics
    /// Re-raises the job's panic, payload intact.
    pub fn join(self) -> T {
        if !self.run_if_unstarted() {
            while !IN_JOB.get() && !self.is_finished() {
                let Ok(message) = pool().receiver.try_recv() else {
                    break;
                };
                serve(message);
            }
            self.core.wait();
        }
        match self.result.lock().unwrap().take() {
            Some(Ok(value)) => value,
            Some(Err(payload)) => resume_unwind(payload),
            None => unreachable!("job finished without storing a result"),
        }
    }

    /// The steal half of [`join`](JobHandle::join) without the wait: runs
    /// the job on *this* thread if no thread has claimed it yet and says
    /// whether it did. Never blocks; `false` means a worker (or an earlier
    /// call) has it, and `join` will wait for that run. A thread holding
    /// several handles uses this to work through the unstarted ones instead
    /// of blocking on one that is mid-run. The job's panic, if any, is kept
    /// for `join`.
    pub fn run_if_unstarted(&self) -> bool {
        let Some(task) = self.core.claim() else {
            return false;
        };
        // Stolen: the job leaves the pool now (this thread is not a pool
        // worker), freeing its occupancy slot for the next submission
        // before the work even runs.
        self.core.release_slot();
        task();
        self.core.mark_finished();
        true
    }

    /// Abandons the job, reclaiming it *before it runs* when possible.
    /// Returns `true` if the cancellation won the claim (the closure is
    /// dropped unexecuted — an unstarted speculative job costs nothing);
    /// `false` if some thread already ran or is running it, in which case
    /// that execution completes and its result is dropped.
    pub fn cancel(self) -> bool {
        match self.core.claim() {
            Some(task) => {
                self.core.release_slot();
                drop(task);
                self.core.mark_finished();
                true
            }
            None => false,
        }
    }

    /// Whether the job has already finished running (never blocks).
    pub fn is_finished(&self) -> bool {
        *self.core.finished.lock().unwrap()
    }
}

/// Submitted jobs currently occupying the pool (queued or running).
static POOL_JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is inside a submitted job's runner. Such a thread
    /// does not help when it joins (it waits, as before): helping never
    /// nests, so a whole experiment running as a grid job cannot start
    /// another one inside its own join.
    static IN_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Cap on how many submitted jobs may occupy the pool at once (see
/// [`crate::ctx`] for how it resolves); submissions beyond the cap run at
/// `join` on the joining thread instead, `0` forces every job inline at
/// join and `usize::MAX` means uncapped. Results are unaffected (pure
/// closures); this is the worker-count knob for the thread-scaling
/// benchmarks. The occupancy *counter* stays process-wide — the cap is a
/// per-run admission limit against shared capacity.
pub fn max_pool_jobs() -> usize {
    crate::ctx::snapshot().max_pool_jobs
}

/// Acquires one pool-job slot, respecting [`max_pool_jobs`].
fn acquire_job_slot() -> bool {
    let cap = max_pool_jobs();
    POOL_JOBS
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            if n < cap {
                Some(n + 1)
            } else {
                None
            }
        })
        .is_ok()
}

/// Submits `job` for asynchronous execution on the pool and returns its
/// handle. The job starts as soon as any worker is free; if none gets to it
/// before [`JobHandle::join`], the joiner runs it inline. With zero workers
/// or the job cap reached, the handle is purely lazy (join-time inline).
pub fn submit<T, F>(job: F) -> JobHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let result: Arc<Mutex<Option<std::thread::Result<T>>>> = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&result);
    // The submitter's kernel-ctx overlay travels with the job, so it is in
    // force wherever the runner executes — a pool worker or the joining
    // thread (steal-on-join).
    let overlay = crate::ctx::current();
    let runner: Box<dyn FnOnce() + Send> = Box::new(move || {
        let _ctx = crate::ctx::set_overlay(overlay);
        let nested = IN_JOB.replace(true);
        let outcome = catch_unwind(AssertUnwindSafe(job));
        IN_JOB.set(nested);
        *slot.lock().unwrap() = Some(outcome);
    });
    let core = Arc::new(JobCore {
        task: Mutex::new(Some(runner)),
        finished: Mutex::new(false),
        done: Condvar::new(),
        pool_slot: AtomicBool::new(false),
    });
    let pool = pool();
    if pool.workers.load(Ordering::Relaxed) > 0 && acquire_job_slot() {
        core.pool_slot.store(true, Ordering::Release);
        // A send can only fail if the receiver side vanished, which cannot
        // happen while workers are parked on it.
        pool.injector
            .send(Message::Job(Arc::clone(&core)))
            .expect("kernel pool alive");
    }
    JobHandle { core, result }
}

/// Blocks until no submitted job is queued for or running on a pool
/// worker (jobs stolen by joiners or cancelled don't count — they have
/// left the pool). Benchmarks call this between timed runs so abandoned
/// speculative jobs from one run cannot contaminate the next measurement.
pub fn quiesce() {
    while POOL_JOBS.load(Ordering::Acquire) > 0 {
        // lint: allow(R4, reason = "quiesce is a between-measurements barrier for the wall-clock benches; the backoff never feeds simulated time")
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}

/// The process-wide worker pool.
struct Pool {
    injector: crossbeam::channel::Sender<Message>,
    /// Kept so [`ensure_workers`] can hand new workers the shared queue.
    receiver: crossbeam::channel::Receiver<Message>,
    workers: AtomicUsize,
    /// Serializes pool growth.
    grow: Mutex<()>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// What a worker does with one message off the queue — and a helping
/// joiner ([`JobHandle::join`]) while its own job runs elsewhere.
fn serve(message: Message) {
    match message {
        Message::Batch(batch) => {
            batch.work();
        }
        Message::Job(job) => {
            if let Some(task) = job.claim() {
                // The runner catches panics internally, so the bookkeeping
                // below always runs.
                task();
                job.mark_finished();
            }
            // The slot is held for the whole pool-side residence (queued +
            // running); a stale message for a stolen/cancelled job finds it
            // already released (exactly-once swap).
            job.release_slot();
        }
    }
}

fn spawn_worker(index: usize, rx: crossbeam::channel::Receiver<Message>) {
    // lint: allow(R4, reason = "the kernel pool is the one sanctioned home of real threads; workers never touch simulator state or wall-clock time")
    std::thread::Builder::new()
        .name(format!("fedat-kernel-{index}"))
        .spawn(move || {
            // Parked on `recv` between regions; exits when the injector is
            // dropped (process teardown).
            while let Ok(message) = rx.recv() {
                serve(message);
            }
        })
        .expect("spawning kernel pool worker");
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        // The caller participates in every region, so `cores - 1` workers
        // saturate the machine. `FEDAT_POOL_WORKERS` overrides (e.g. to
        // exercise the executor on single-core CI hosts).
        let workers = std::env::var("FEDAT_POOL_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| cores.saturating_sub(1));
        let (tx, rx) = crossbeam::channel::unbounded::<Message>();
        for i in 0..workers {
            spawn_worker(i, rx.clone());
        }
        Pool {
            injector: tx,
            receiver: rx,
            workers: AtomicUsize::new(workers),
            grow: Mutex::new(()),
        }
    })
}

/// Number of pool workers (excluding the calling thread).
pub fn worker_count() -> usize {
    pool().workers.load(Ordering::Relaxed)
}

/// Grows the pool to at least `n` workers (never shrinks). Extra workers
/// park on the shared queue like the initial ones; on hosts with fewer
/// cores they oversubscribe, which changes throughput but — like every
/// scheduling decision here — never changes results. Used by experiment
/// grids and the executor tests, which need real worker parallelism even
/// on single-core machines.
pub fn ensure_workers(n: usize) {
    let pool = pool();
    let _guard = pool.grow.lock().unwrap();
    let current = pool.workers.load(Ordering::Relaxed);
    for i in current..n {
        spawn_worker(i, pool.receiver.clone());
    }
    if n > current {
        pool.workers.store(n, Ordering::Relaxed);
    }
}

/// Runs `task(0..n_tasks)` across the pool with at most `helpers` workers
/// assisting the calling thread. Blocks until every task completed.
///
/// # Panics
/// Panics if any task panicked (on any thread).
pub fn run_tasks(n_tasks: usize, helpers: usize, task: &(dyn Fn(usize) + Sync)) {
    if n_tasks == 0 {
        return;
    }
    if n_tasks == 1 || helpers == 0 {
        for i in 0..n_tasks {
            task(i);
        }
        return;
    }
    let pool = pool();
    let helpers = helpers
        .min(pool.workers.load(Ordering::Relaxed))
        .min(n_tasks - 1);
    if helpers == 0 {
        for i in 0..n_tasks {
            task(i);
        }
        return;
    }
    // SAFETY: erase the closure's lifetime; the barrier below outlives every
    // dereference (see module docs).
    let func: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
    let batch = Arc::new(Batch {
        func,
        ctx: crate::ctx::current(),
        next: AtomicUsize::new(0),
        total: n_tasks,
        pending: Mutex::new(n_tasks),
        done: Condvar::new(),
        poisoned: AtomicBool::new(false),
        panic_payload: Mutex::new(None),
    });
    for _ in 0..helpers {
        // A send can only fail if the receiver side vanished, which cannot
        // happen while workers are parked on it.
        pool.injector
            .send(Message::Batch(batch.clone()))
            .expect("kernel pool alive");
    }
    batch.work();
    batch.wait();
    if batch.poisoned.load(Ordering::Acquire) {
        // Re-raise the original panic so message and location survive.
        match batch.panic_payload.lock().unwrap().take() {
            Some(payload) => std::panic::resume_unwind(payload),
            None => panic!("a kernel task panicked"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_task_runs_exactly_once() {
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        run_tasks(1000, 7, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_and_one_task_degenerate_inline() {
        run_tasks(0, 4, &|_| panic!("no tasks should run"));
        let ran = AtomicU64::new(0);
        run_tasks(1, 4, &|i| {
            assert_eq!(i, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn tasks_see_borrowed_stack_data() {
        let input: Vec<u64> = (0..512).collect();
        let out: Vec<AtomicU64> = (0..512).map(|_| AtomicU64::new(0)).collect();
        run_tasks(512, 3, &|i| {
            out[i].store(input[i] * 2, Ordering::Relaxed);
        });
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.load(Ordering::Relaxed), i as u64 * 2);
        }
    }

    #[test]
    fn nested_regions_complete() {
        let total = AtomicU64::new(0);
        run_tasks(4, 4, &|_| {
            run_tasks(8, 4, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            run_tasks(64, 4, &|i| {
                if i == 13 {
                    panic!("boom");
                }
            });
        });
        let payload = result.expect_err("task panic must reach the caller");
        // The original payload must survive the pool boundary.
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("boom"));
    }

    #[test]
    fn repeated_regions_reuse_the_pool() {
        // Regression guard for the per-call spawn the pool replaces: ensure
        // thread count stays bounded across many regions.
        for _ in 0..200 {
            let acc = AtomicU64::new(0);
            run_tasks(16, 8, &|i| {
                acc.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(acc.load(Ordering::Relaxed), 120);
        }
    }

    // --- submitted-job executor ---
    //
    // The worker count is process-wide, so tests in this binary share it —
    // harmless by construction: where a job runs (worker vs. steal-on-join)
    // can never change its result, which is exactly the property under
    // test. The job cap is scoped to the submitting test thread.

    /// Submits `job` under a job cap of 0, so it never enters the pool.
    fn submit_unpooled<T: Send + 'static>(
        job: impl FnOnce() -> T + Send + 'static,
    ) -> JobHandle<T> {
        let _g = crate::ctx::install(crate::ctx::KernelCtx {
            max_pool_jobs: 0,
            ..crate::ctx::snapshot()
        });
        submit(job)
    }

    #[test]
    fn submit_join_returns_the_result() {
        ensure_workers(2);
        let h = submit(|| (0..100u64).sum::<u64>());
        assert_eq!(h.join(), 4950);
    }

    #[test]
    fn join_steals_jobs_the_pool_never_started() {
        // Cap 0: no job enters the pool, so join must run it inline.
        let h = submit_unpooled(|| 21 * 2);
        assert_eq!(h.join(), 42);
    }

    #[test]
    fn many_jobs_join_in_any_order() {
        ensure_workers(4);
        let handles: Vec<JobHandle<u64>> = (0..64u64).map(|i| submit(move || i * i)).collect();
        // Join in reverse: late joins must not depend on earlier ones.
        for (i, h) in handles.into_iter().enumerate().rev() {
            assert_eq!(h.join(), (i * i) as u64);
        }
    }

    #[test]
    fn job_panic_propagates_at_join() {
        ensure_workers(1);
        let h = submit(|| -> u32 { panic!("job boom") });
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| h.join()))
            .expect_err("job panic must reach the joiner");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("job boom"));
    }

    #[test]
    fn dropped_handles_do_not_wedge_the_pool() {
        ensure_workers(2);
        for i in 0..32u64 {
            drop(submit(move || i));
        }
        // Fork-join regions must still complete after abandoned jobs.
        let acc = AtomicU64::new(0);
        run_tasks(16, 4, &|i| {
            acc.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::Relaxed), 120);
    }

    #[test]
    fn jobs_and_fork_join_regions_interleave() {
        ensure_workers(4);
        let handles: Vec<JobHandle<u64>> = (0..8u64)
            .map(|i| submit(move || (1..=i).product::<u64>()))
            .collect();
        // Fork-join from the main thread while jobs are outstanding.
        let acc = AtomicU64::new(0);
        run_tasks(32, 4, &|i| {
            acc.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::Relaxed), 496);
        let got: Vec<u64> = handles.into_iter().map(JobHandle::join).collect();
        assert_eq!(got, vec![1, 1, 2, 6, 24, 120, 720, 5040]);
    }

    #[test]
    fn jobs_may_run_fork_join_regions_inside() {
        // A job on a worker opens a nested region; caller participation
        // guarantees completion even if every other worker is busy.
        ensure_workers(2);
        let h = submit(|| {
            let acc = AtomicU64::new(0);
            run_tasks(8, 4, &|i| {
                acc.fetch_add(i as u64 + 1, Ordering::Relaxed);
            });
            acc.load(Ordering::Relaxed)
        });
        assert_eq!(h.join(), 36);
    }

    #[test]
    fn run_if_unstarted_shares_a_batch_with_the_workers_exactly_once() {
        // The `run_grid` pattern: offer to run each job, then join them all.
        // Whoever gets a job — this thread or a worker — it runs once, and
        // a second offer on the same handle is refused.
        ensure_workers(1);
        let runs: Arc<Vec<AtomicU64>> = Arc::new((0..32).map(|_| AtomicU64::new(0)).collect());
        let handles: Vec<JobHandle<u64>> = (0..32u64)
            .map(|i| {
                let runs = Arc::clone(&runs);
                submit(move || {
                    runs[i as usize].fetch_add(1, Ordering::Relaxed);
                    (0..=i * 1000).sum::<u64>()
                })
            })
            .collect();
        for h in &handles {
            h.run_if_unstarted();
        }
        assert!(handles.iter().all(|h| !h.run_if_unstarted()));
        let got: Vec<u64> = handles.into_iter().map(JobHandle::join).collect();
        let want: Vec<u64> = (0..32u64).map(|i| (0..=i * 1000).sum()).collect();
        assert_eq!(got, want);
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn cancel_reclaims_unstarted_jobs_without_running_them() {
        // Cap 0 keeps the job out of the pool, so nobody can claim it
        // before the cancel: the closure must never run.
        let ran = Arc::new(AtomicU64::new(0));
        let flag = Arc::clone(&ran);
        let h = submit_unpooled(move || flag.fetch_add(1, Ordering::Relaxed));
        assert!(h.cancel(), "unstarted job must be cancellable");
        assert_eq!(ran.load(Ordering::Relaxed), 0, "cancelled job ran");
    }

    #[test]
    fn cancel_after_completion_reports_too_late() {
        // Cap 0 keeps the job out of the pool so no worker can race this
        // thread for the claim below.
        let h = submit_unpooled(|| 5u8);
        // Force completion through a second handle path: join would
        // consume it, so complete via the pool/steal machinery instead.
        assert!(h.core.claim().is_some());
        h.core.mark_finished();
        assert!(!h.cancel(), "a claimed job must not report cancelled");
    }

    #[test]
    fn steal_on_join_frees_the_pool_slot() {
        // A joiner stealing a queued job releases its occupancy slot even
        // though the stale channel message has not been drained yet, so
        // `quiesce` cannot wedge on ghosts.
        ensure_workers(1);
        for _ in 0..64 {
            let h = submit(|| 1u8);
            assert_eq!(h.join(), 1);
        }
        quiesce();
        assert_eq!(POOL_JOBS.load(Ordering::Acquire), 0);
    }

    #[test]
    fn is_finished_reflects_completion() {
        let h = submit(|| 7u8);
        // Force completion through the join path; afterwards the flag must
        // read true on a fresh handle once joined elsewhere. (We can only
        // observe it pre-join without racing when the job is done.)
        let core = Arc::clone(&h.core);
        assert_eq!(h.join(), 7);
        assert!(*core.finished.lock().unwrap());
    }
}
