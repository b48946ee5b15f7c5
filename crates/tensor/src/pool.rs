//! The persistent kernel worker pool: whole submitted jobs on workers
//! spawned once.
//!
//! The seed implementation spawned and joined OS threads inside *every*
//! parallel kernel call via [`std::thread::scope`]; at the matmul sizes this
//! workspace trains (activations of a few thousand elements), spawn/join
//! overhead dwarfed the kernel itself. Kernels now run serially on whichever
//! thread calls them, and the unit of parallel work is one owned job — a
//! client's local training, a pipelined evaluation, an experiment of a grid
//! — handed to a pool of workers spawned once and parked on a shared queue.
//!
//! ## Submitted jobs
//!
//! [`submit`] hands the pool one owned closure and returns a [`JobHandle`];
//! [`JobHandle::join`] returns once the result is available.
//!
//! Jobs are **claimed by ownership transfer**: whoever `take`s the closure
//! out of the job's slot runs it — a parked worker, or the joining thread
//! itself if no worker got there first (*steal-on-join*). Steal-on-join
//! makes `join` deadlock-free by construction: a queued job can always be
//! executed by its joiner, so zero-worker hosts degrade to inline execution
//! and a saturated pool can never wedge the submitter. A joiner whose job
//! another thread is already running does not sleep beside a full queue
//! either (*helping join*): until its job finishes it pops the next queued
//! job and does what a worker does with it — runs it, or releases the slot
//! of a stale queue entry — and only waits once the queue is empty. Only a
//! thread that is not itself inside a submitted job helps, so helping never
//! nests (an experiment running as a grid job does not start a second one
//! inside its own join) and a helper owes nobody an answer while it works.
//! What it costs is latency on that one join — a helper that has just
//! picked up a job finishes it before it looks at its own again — and, like
//! steal-on-join, it assumes a job never blocks on something only its
//! joiner would do afterwards.
//! [`JobHandle::cancel`] claims an unstarted job back for free (the
//! closure is dropped unexecuted); a handle merely *dropped* abandons the
//! result instead — the job may still run on a worker (wasted work the
//! caller opted into — speculative execution), and a panic inside an
//! abandoned job is confined to its `catch_unwind`.
//!
//! [`crate::ctx::KernelCtx::max_pool_jobs`] caps how many submitted jobs may
//! occupy the pool (queued + running) at once; excess submissions skip the
//! queue and run at `join` on the joining thread. At cap 0 nothing enters
//! the pool: every job runs at its join. The cap also emulates smaller
//! worker counts on one process for the determinism tests' worker sweeps
//! (workers {1, 2, 4, 8}); [`ensure_workers`] grows the pool beyond its
//! initial size for the same purpose. That size, like the cap, is a host
//! default of [`crate::ctx`]: `cores − 1`, or `FEDAT_POOL_WORKERS`.
//!
//! ## Determinism
//!
//! Which thread runs a job is scheduling-dependent, but a job owns its
//! inputs and returns its output through the handle, so its result cannot
//! depend on the executing thread (given a pure closure): results are
//! bit-identical regardless of thread assignment. `pool_determinism.rs`
//! pins it, with the kernels run on the calling thread and on a worker,
//! and a proptest nesting submit / join across workers {1, 2, 4, 8}. Its
//! `join_helps_while_its_job_is_mid_run` and
//! `a_joiner_inside_a_job_does_not_help` force the helping rule's two
//! interleavings; `a_job_submitted_while_every_worker_is_parked_completes`
//! and `a_joiner_parked_on_a_mid_run_job_is_woken_by_its_completion` fail
//! on a 10 s watchdog if a wake-up is skipped.

use crate::ctx::KernelCtx;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One submitted job, in the one allocation [`submit`] makes: the closure,
/// its claim state and its result behind one mutex, plus the completion
/// signal. The closure is claimed by moving it out of [`Stage::Unclaimed`]
/// — exactly one thread (a pool worker, the joiner, or a canceller) ever
/// obtains it.
struct Job<F, T> {
    state: Mutex<JobState<F, T>>,
    /// Signals [`Stage::Finished`] to a parked joiner.
    done: Condvar,
    /// The submitter's kernel-ctx overlay, in force wherever the job runs —
    /// a pool worker or the joining thread (steal-on-join).
    overlay: Option<KernelCtx>,
    /// Whether this job still holds a [`POOL_JOBS`] occupancy slot. Held
    /// from `submit` until a worker finishes running the job — or released
    /// early when a joiner steals it or a canceller claims it (the job has
    /// left the pool at that point even if its stale queue entry has not
    /// been drained yet). The swap makes the release exactly-once.
    pool_slot: AtomicBool,
}

struct JobState<F, T> {
    stage: Stage<F, T>,
    /// Whether the joiner sleeps on [`Job::done`]. Completion notifies only
    /// then: std's futex condvar makes a syscall per `notify_*` whether or
    /// not anyone waits, and most jobs finish before their join.
    joiner_parked: bool,
}

enum Stage<F, T> {
    /// Submitted, not claimed yet.
    Unclaimed(F),
    /// Claimed: running on the claiming thread.
    Running,
    /// Ran (the result, or its panic payload, until the join takes it) or
    /// was cancelled (`None`).
    Finished(Option<std::thread::Result<T>>),
}

/// The pool's view of a queued job, whatever it returns.
trait Queued: Send + Sync {
    /// What a worker does with one job off the queue — and a helping joiner
    /// ([`JobHandle::join`]) while its own job runs elsewhere: runs it if
    /// nobody has claimed it, then releases its pool slot.
    fn serve(&self);
}

/// The handle's view of its job.
trait Claim<T>: Send + Sync {
    /// Claims and runs the job on this thread if nobody has; says whether
    /// it did.
    fn run_if_unclaimed(&self) -> bool;

    /// Claims the job and drops it unrun if nobody has; says whether it did.
    fn cancel(&self) -> bool;

    fn is_finished(&self) -> bool;

    /// Blocks until the job has finished, then takes its result.
    fn wait(&self) -> std::thread::Result<T>;
}

impl<F, T> Job<F, T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    /// Moves the closure out if nobody claimed it yet; the caller must run
    /// it (or drop it) and then call [`Job::finish`].
    fn claim(&self) -> Option<F> {
        let mut state = self.state.lock().unwrap();
        match std::mem::replace(&mut state.stage, Stage::Running) {
            Stage::Unclaimed(job) => Some(job),
            claimed => {
                state.stage = claimed;
                None
            }
        }
    }

    /// Runs a claimed closure under the submitter's overlay and stores its
    /// outcome.
    fn run(&self, job: F) {
        let outcome = {
            let _ctx = crate::ctx::set_overlay(self.overlay);
            let nested = IN_JOB.replace(true);
            let outcome = catch_unwind(AssertUnwindSafe(job));
            IN_JOB.set(nested);
            outcome
        };
        self.finish(Some(outcome));
    }

    /// Records completion and wakes the joiner if it is parked.
    fn finish(&self, outcome: Option<std::thread::Result<T>>) {
        let mut state = self.state.lock().unwrap();
        state.stage = Stage::Finished(outcome);
        let wake = state.joiner_parked;
        drop(state);
        if wake {
            self.done.notify_one();
        }
    }

    /// Releases the job's pool-occupancy slot (exactly once; no-op for
    /// jobs that never entered the pool).
    fn release_slot(&self) {
        if self.pool_slot.swap(false, Ordering::AcqRel) {
            POOL_JOBS.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

impl<F, T> Queued for Job<F, T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    fn serve(&self) {
        if let Some(job) = self.claim() {
            // The closure's panic is caught inside `run`, so the
            // bookkeeping below always runs.
            self.run(job);
        }
        // The slot is held for the whole pool-side residence (queued +
        // running); a stale queue entry for a stolen/cancelled job finds it
        // already released (exactly-once swap).
        self.release_slot();
    }
}

impl<F, T> Claim<T> for Job<F, T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    fn run_if_unclaimed(&self) -> bool {
        let Some(job) = self.claim() else {
            return false;
        };
        // Stolen: the job leaves the pool now (this thread is not a pool
        // worker), freeing its occupancy slot for the next submission
        // before the work even runs.
        self.release_slot();
        self.run(job);
        true
    }

    fn cancel(&self) -> bool {
        let Some(job) = self.claim() else {
            return false;
        };
        self.release_slot();
        drop(job);
        self.finish(None);
        true
    }

    fn is_finished(&self) -> bool {
        matches!(self.state.lock().unwrap().stage, Stage::Finished(_))
    }

    fn wait(&self) -> std::thread::Result<T> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Stage::Finished(outcome) = &mut state.stage {
                return outcome.take().expect("a joined job was not cancelled");
            }
            state.joiner_parked = true;
            state = self.done.wait(state).unwrap();
        }
    }
}

/// Handle to a job submitted with [`submit`]. [`join`](JobHandle::join)
/// retrieves the result; dropping the handle abandons it.
pub struct JobHandle<T> {
    job: Arc<dyn Claim<T>>,
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
                let Some(queued) = pool().queue.try_pop() else {
                    break;
                };
                queued.serve();
            }
        }
        match self.job.wait() {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
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
        self.job.run_if_unclaimed()
    }

    /// Abandons the job, reclaiming it *before it runs* when possible.
    /// Returns `true` if the cancellation won the claim (the closure is
    /// dropped unexecuted — an unstarted speculative job costs nothing);
    /// `false` if some thread already ran or is running it, in which case
    /// that execution completes and its result is dropped.
    pub fn cancel(self) -> bool {
        self.job.cancel()
    }

    /// Whether the job has already finished running (never blocks).
    pub fn is_finished(&self) -> bool {
        self.job.is_finished()
    }
}

/// Submitted jobs currently occupying the pool (queued or running).
static POOL_JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is running a submitted job. Such a thread
    /// does not help when it joins (it waits, as before): helping never
    /// nests, so a whole experiment running as a grid job cannot start
    /// another one inside its own join.
    static IN_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Cap on how many submitted jobs may occupy the pool at once (see
/// [`crate::ctx`] for how it resolves); submissions beyond the cap run at
/// `join` on the joining thread instead, `0` forces every job inline at
/// join and `usize::MAX` means uncapped. Results are
/// unaffected (pure closures). The occupancy *counter* stays process-wide —
/// the cap is a per-run admission limit against shared capacity.
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
    let job = Arc::new(Job {
        state: Mutex::new(JobState {
            stage: Stage::Unclaimed(job),
            joiner_parked: false,
        }),
        done: Condvar::new(),
        overlay: crate::ctx::current(),
        pool_slot: AtomicBool::new(false),
    });
    let pool = pool();
    if pool.workers.load(Ordering::Relaxed) > 0 && acquire_job_slot() {
        job.pool_slot.store(true, Ordering::Release);
        pool.queue.push(Arc::clone(&job) as Arc<dyn Queued>);
    }
    JobHandle { job }
}

/// Blocks until no submitted job is queued for or running on a pool
/// worker (jobs stolen by joiners or cancelled don't count — they have
/// left the pool). Benchmarks call this between timed runs so abandoned
/// speculative jobs from one run cannot contaminate the next measurement.
pub fn quiesce() {
    while POOL_JOBS.load(Ordering::Acquire) > 0 {
        #[expect(
            clippy::disallowed_methods,
            reason = "R4: quiesce is a between-measurements barrier for the wall-clock benches; the backoff never feeds simulated time"
        )]
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}

/// The pool's job queue, shared by every worker and drained by helping
/// joiners: FIFO, unbounded, behind one lock that also counts the workers
/// parked on [`Queue::pop`], so a push nobody waits on makes no wake-up
/// call (std's futex condvar would make a syscall for it).
struct Queue {
    /// The queued jobs, and how many workers are parked in [`Queue::pop`].
    jobs: Mutex<(VecDeque<Arc<dyn Queued>>, usize)>,
    /// Signals a push to parked workers.
    ready: Condvar,
}

impl Queue {
    fn new() -> Self {
        Queue {
            jobs: Mutex::new((VecDeque::new(), 0)),
            ready: Condvar::new(),
        }
    }

    /// Appends `job`, waking one parked worker if any is parked.
    fn push(&self, job: Arc<dyn Queued>) {
        let mut guard = self.jobs.lock().unwrap();
        guard.0.push_back(job);
        let wake = guard.1 > 0;
        drop(guard);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Takes the oldest job, parking until one is pushed.
    fn pop(&self) -> Arc<dyn Queued> {
        let mut guard = self.jobs.lock().unwrap();
        loop {
            if let Some(job) = guard.0.pop_front() {
                return job;
            }
            guard.1 += 1;
            guard = self.ready.wait(guard).unwrap();
            guard.1 -= 1;
        }
    }

    /// Takes the oldest job if one is queued; never blocks.
    fn try_pop(&self) -> Option<Arc<dyn Queued>> {
        self.jobs.lock().unwrap().0.pop_front()
    }
}

/// The process-wide worker pool.
struct Pool {
    queue: Arc<Queue>,
    workers: AtomicUsize,
    /// Serializes pool growth.
    grow: Mutex<()>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn spawn_worker(index: usize, queue: Arc<Queue>) {
    #[expect(
        clippy::disallowed_types,
        reason = "R4: the kernel pool is the one sanctioned home of real threads; workers never touch simulator state or wall-clock time"
    )]
    std::thread::Builder::new()
        .name(format!("fedat-kernel-{index}"))
        .spawn(move || loop {
            // Parked in `pop` between jobs for the life of the process.
            queue.pop().serve();
        })
        .expect("spawning kernel pool worker");
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        // The submitting thread runs or joins its own jobs, so `cores - 1`
        // workers saturate the machine, unless the host sets a size (e.g. to
        // exercise the executor on single-core CI hosts).
        let workers = crate::ctx::host_pool_workers().unwrap_or_else(|| cores.saturating_sub(1));
        let queue = Arc::new(Queue::new());
        for i in 0..workers {
            spawn_worker(i, Arc::clone(&queue));
        }
        Pool {
            queue,
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
        spawn_worker(i, Arc::clone(&pool.queue));
    }
    if n > current {
        pool.workers.store(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    // The worker count is process-wide, so tests in this binary share it —
    // harmless by construction: where a job runs (worker vs. steal-on-join)
    // can never change its result, which is exactly the property under
    // test. The job cap is scoped to the submitting test thread.

    /// Scopes this thread's job cap. A test about the workers lifts it to
    /// `usize::MAX`, so it means the same whatever the host default is
    /// (cap 0 under `FEDAT_EXEC=inline`).
    fn cap(max_pool_jobs: usize) -> crate::ctx::OverlayGuard {
        crate::ctx::install(crate::ctx::KernelCtx {
            max_pool_jobs,
            ..crate::ctx::snapshot()
        })
    }

    /// Submits `job` under a job cap of 0, so it never enters the pool.
    fn submit_unpooled<T: Send + 'static>(
        job: impl FnOnce() -> T + Send + 'static,
    ) -> JobHandle<T> {
        let _g = cap(0);
        submit(job)
    }

    /// A queue entry that logs its id when served.
    struct Logged(usize, Arc<Mutex<Vec<usize>>>);

    impl Queued for Logged {
        fn serve(&self) {
            self.1.lock().unwrap().push(self.0);
        }
    }

    #[test]
    fn fifo_within_single_consumer() {
        // A queue of its own, not the pool's: no worker races this test.
        let queue = Queue::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10 {
            queue.push(Arc::new(Logged(i, Arc::clone(&log))));
        }
        // `pop` and `try_pop` both take the oldest entry.
        for _ in 0..5 {
            queue.pop().serve();
        }
        while let Some(job) = queue.try_pop() {
            job.serve();
        }
        assert_eq!(*log.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn submit_join_returns_the_result() {
        ensure_workers(2);
        let _uncapped = cap(usize::MAX);
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
        let _uncapped = cap(usize::MAX);
        let handles: Vec<JobHandle<u64>> = (0..64u64).map(|i| submit(move || i * i)).collect();
        // Join in reverse: late joins must not depend on earlier ones.
        for (i, h) in handles.into_iter().enumerate().rev() {
            assert_eq!(h.join(), (i * i) as u64);
        }
    }

    #[test]
    fn job_panic_propagates_at_join() {
        ensure_workers(1);
        let _uncapped = cap(usize::MAX);
        let h = submit(|| -> u32 { panic!("job boom") });
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| h.join()))
            .expect_err("job panic must reach the joiner");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("job boom"));
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        ensure_workers(1);
        let _uncapped = cap(usize::MAX);
        let h = submit(|| -> u32 { panic!("boom") });
        // Let the pool run it: the panic happens on another thread.
        while !h.is_finished() {
            std::thread::yield_now();
        }
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| h.join()))
            .expect_err("job panic must reach the caller");
        // The original payload must survive the pool boundary.
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("boom"));
    }

    #[test]
    fn dropped_handles_do_not_wedge_the_pool() {
        ensure_workers(2);
        let _uncapped = cap(usize::MAX);
        for i in 0..32u64 {
            drop(submit(move || i));
        }
        // Jobs submitted after the abandoned ones must still complete.
        let handles: Vec<JobHandle<u64>> = (0..16u64).map(|i| submit(move || i)).collect();
        assert_eq!(handles.into_iter().map(JobHandle::join).sum::<u64>(), 120);
    }

    #[test]
    fn run_if_unstarted_shares_a_batch_with_the_workers_exactly_once() {
        // The `run_grid` pattern: offer to run each job, then join them all.
        // Whoever gets a job — this thread or a worker — it runs once, and
        // a second offer on the same handle is refused.
        ensure_workers(1);
        let _uncapped = cap(usize::MAX);
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
        // Complete it through the steal path: join would consume the handle.
        assert!(h.run_if_unstarted());
        assert!(!h.cancel(), "a claimed job must not report cancelled");
    }

    #[test]
    fn steal_on_join_frees_the_pool_slot() {
        // A joiner stealing a queued job releases its occupancy slot even
        // though the stale queue entry has not been drained yet, so
        // `quiesce` cannot wedge on ghosts.
        ensure_workers(1);
        let _uncapped = cap(usize::MAX);
        for _ in 0..64 {
            let h = submit(|| 1u8);
            assert_eq!(h.join(), 1);
        }
        quiesce();
        assert_eq!(POOL_JOBS.load(Ordering::Acquire), 0);
    }

    #[test]
    fn is_finished_reflects_completion() {
        // Cap 0 keeps the job out of the pool, so nothing finishes it
        // behind this thread's back.
        let h = submit_unpooled(|| 7u8);
        assert!(!h.is_finished());
        assert!(h.run_if_unstarted());
        assert!(h.is_finished());
        assert_eq!(h.join(), 7);
    }
}
