//! Property tests for the persistent kernel pool: every kernel must give
//! the same bits on a pool worker as on the calling thread — a training job
//! may run on either — and every interleaving of submits and joins must
//! complete with each job's serial result.
//!
//! Job caps are scoped with a thread-local [`ctx::install`], so concurrent
//! tests in this binary never see each other's settings. Which workers are
//! free is process-wide, so the tests that submit jobs take [`JOB_TESTS`]
//! and run one at a time, uncapped unless they scope a cap of their own.
#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "R4: the pool's wake-up tests drive joiners and watchdogs on real threads and give parked workers time to park"
)]

use fedat_tensor::conv::{conv2d_forward, Conv2dSpec, ConvPlan};
use fedat_tensor::ctx::{self, KernelCtx};
use fedat_tensor::ops::{
    matmul_into, matmul_nt_into, matmul_tn_into, weighted_sum_into, AGG_SHARD,
};
use fedat_tensor::pool;
use fedat_tensor::rng::{fill_standard_normal, rng_for, standard_normal, NORMAL_CHUNK};
use fedat_tensor::Tensor;
use proptest::prelude::*;
use rand::RngExt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Serializes the tests that submit jobs: the helping-join scenarios park
/// pool workers, the executor proptest grows the pool and the kernel
/// properties wait for a worker, so each needs the workers to itself.
static JOB_TESTS: Mutex<()> = Mutex::new(());

/// Takes [`JOB_TESTS`]; a test that failed while holding it does not fail
/// the others. Also lifts this thread's job cap, so the test's jobs reach
/// the workers whatever the host default (cap 0 under `FEDAT_EXEC=inline`).
fn one_job_test_at_a_time() -> (MutexGuard<'static, ()>, ctx::OverlayGuard) {
    let lock = JOB_TESTS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let uncapped = ctx::install(KernelCtx {
        max_pool_jobs: usize::MAX,
        ..ctx::snapshot()
    });
    (lock, uncapped)
}

/// How long a scenario may take before it counts as hung.
const WATCHDOG: Duration = Duration::from_secs(10);

/// A latch jobs park on until another job (or a watchdog) opens it.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }
}

/// Submits `count` jobs that park on `gate` and returns once each is mid-run
/// on a worker of its own (the caller leaves that many free).
fn park_workers(gate: &Arc<Gate>, count: usize) -> Vec<pool::JobHandle<()>> {
    let (started, on_worker) = mpsc::channel();
    let parked: Vec<_> = (0..count)
        .map(|_| {
            let (gate, started) = (Arc::clone(gate), started.clone());
            pool::submit(move || {
                started.send(()).unwrap();
                gate.wait();
            })
        })
        .collect();
    for _ in &parked {
        on_worker
            .recv_timeout(WATCHDOG)
            .expect("a free worker picks up each parked job");
    }
    parked
}

/// Runs `scenario` on the calling thread; if it has not returned within
/// [`WATCHDOG`], opens `gate` (so parked workers and the scenario come
/// loose) and fails the test with `hang`.
fn under_watchdog<T>(gate: &Gate, hang: &str, scenario: impl FnOnce() -> T) -> T {
    let (done, finished) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let dog = s.spawn(move || {
            let hung = finished.recv_timeout(WATCHDOG) == Err(mpsc::RecvTimeoutError::Timeout);
            if hung {
                gate.open();
            }
            hung
        });
        let out = scenario();
        drop(done);
        assert!(!dog.join().unwrap(), "{hang}");
        out
    })
}

/// The queue holds work and the job being joined is mid-run elsewhere: the
/// joiner must work through the queue, not sleep beside it. Every worker is
/// parked on a gate that only the last queued job opens, so a joiner that
/// merely waits never returns (the parent of the helping join hangs here).
/// On the way the helper pops the stale messages of a cancelled and a stolen
/// job; each slot is released exactly once, or `quiesce` would spin on a
/// wrapped count.
#[test]
fn join_helps_while_its_job_is_mid_run() {
    let _one_at_a_time = one_job_test_at_a_time();
    pool::ensure_workers(1);
    let gate = Arc::new(Gate::default());
    let mut parked = park_workers(&gate, pool::worker_count());
    let cancelled = pool::submit(|| ());
    let stolen = pool::submit(|| std::thread::current().id());
    let queued = pool::submit(|| std::thread::current().id());
    let opener = {
        let gate = Arc::clone(&gate);
        pool::submit(move || {
            gate.open();
            std::thread::current().id()
        })
    };
    assert!(cancelled.cancel(), "no worker was free to claim it");
    assert!(stolen.run_if_unstarted(), "no worker was free to claim it");
    under_watchdog(&gate, "join slept beside a full queue", || {
        parked.pop().unwrap().join()
    });
    // No worker was free: the joiner is the only thread that could run them.
    let me = std::thread::current().id();
    assert_eq!([stolen.join(), queued.join(), opener.join()], [me; 3]);
    parked.into_iter().for_each(pool::JobHandle::join);
    under_watchdog(&gate, "a pool slot was never released", pool::quiesce);
}

/// Helping never nests: a job that joins a sibling which is mid-run on
/// another worker waits for it and runs nothing else meanwhile, although a
/// job is queued before it reaches its join and no worker is free. That job
/// stays queued until this thread — outside any job — joins it, and it is
/// what opens the gate the sibling is parked on.
#[test]
fn a_joiner_inside_a_job_does_not_help() {
    let _one_at_a_time = one_job_test_at_a_time();
    pool::ensure_workers(2);
    let gate = Arc::new(Gate::default());
    // Every worker but one parks; the free one runs the job that joins.
    let mut parked = park_workers(&gate, pool::worker_count() - 1);
    let sibling = parked.pop().unwrap();
    let (on_worker, joiner_up) = mpsc::channel();
    let (go, queue_is_full) = mpsc::channel();
    let joiner = pool::submit(move || {
        on_worker.send(()).unwrap();
        queue_is_full.recv().unwrap();
        sibling.join()
    });
    joiner_up
        .recv_timeout(WATCHDOG)
        .expect("the free worker picks up the joining job");
    let (ran, queued_ran) = mpsc::channel();
    let queued = {
        let gate = Arc::clone(&gate);
        pool::submit(move || {
            ran.send(std::thread::current().id()).unwrap();
            gate.open();
        })
    };
    go.send(()).unwrap();
    // Nothing may happen here, which only a timeout can observe.
    assert_eq!(
        queued_ran.recv_timeout(Duration::from_millis(200)),
        Err(mpsc::RecvTimeoutError::Timeout),
        "a job that joins a mid-run sibling ran another job meanwhile"
    );
    queued.join();
    assert_eq!(queued_ran.recv(), Ok(std::thread::current().id()));
    joiner.join();
    parked.into_iter().for_each(pool::JobHandle::join);
}

/// A push into a queue whose every worker sleeps in `pop` owes one of them
/// a wake-up: the job must run on a worker without anyone joining it.
#[test]
fn a_job_submitted_while_every_worker_is_parked_completes() {
    let _one_at_a_time = one_job_test_at_a_time();
    pool::ensure_workers(1);
    // Nothing queued or running, and time for every worker to reach `pop`.
    pool::quiesce();
    std::thread::sleep(Duration::from_millis(20));
    let (ran, on_worker) = mpsc::channel();
    let job = pool::submit(move || ran.send(std::thread::current().id()).unwrap());
    let worker = on_worker
        .recv_timeout(WATCHDOG)
        .expect("no parked worker woke for a submitted job");
    assert_ne!(worker, std::thread::current().id());
    job.join();
}

/// A joiner whose job is mid-run on a worker, with nothing queued to help
/// with, sleeps; the job's completion owes it a wake-up. The join runs on a
/// thread of its own, so a lost wake-up fails the test instead of hanging
/// it.
#[test]
fn a_joiner_parked_on_a_mid_run_job_is_woken_by_its_completion() {
    let _one_at_a_time = one_job_test_at_a_time();
    pool::ensure_workers(1);
    let gate = Arc::new(Gate::default());
    let job = park_workers(&gate, 1).pop().unwrap();
    let (joined, on_join) = mpsc::channel();
    std::thread::Builder::new()
        .spawn(move || {
            job.join();
            joined.send(()).unwrap();
        })
        .expect("spawning the joiner");
    // Long enough for the joiner to find the queue empty and park.
    std::thread::sleep(Duration::from_millis(50));
    gate.open();
    on_join
        .recv_timeout(WATCHDOG)
        .expect("a parked joiner was not woken by its job's completion");
}

/// A Gaussian fill inside a submitted job joins its chunks without helping
/// (helping never nests): each chunk runs on a free worker or is stolen by
/// the job's own join, and the values are still the serial loop's bits.
#[test]
fn a_gaussian_fill_inside_a_job_is_the_serial_loop() {
    let _one_at_a_time = one_job_test_at_a_time();
    let len = 5 * NORMAL_CHUNK + 3;
    let (got, next) = on_a_worker(move || {
        let mut rng = rng_for(5, 77);
        let mut out = vec![0.0f32; len];
        fill_standard_normal(&mut rng, &mut out);
        (out, rng.random::<u64>())
    });
    let mut rng = rng_for(5, 77);
    let want: Vec<f32> = (0..len).map(|_| standard_normal(&mut rng)).collect();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert!(
        bits(&got) == bits(&want),
        "a fill inside a job left the serial loop"
    );
    assert_eq!(
        next,
        rng.random::<u64>(),
        "a fill inside a job left the rng elsewhere"
    );
}

fn filled(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = rng_for(seed, 31);
    let mut v = vec![0.0f32; len];
    fedat_tensor::rng::fill_normal(&mut rng, &mut v, 0.0, 1.0);
    v
}

/// Runs `f` as a job that a pool worker — not this thread — executes.
fn on_a_worker<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    pool::ensure_workers(1);
    let job = pool::submit(f);
    while !job.is_finished() {
        std::thread::yield_now();
    }
    job.join()
}

/// Runs `kernel` (which writes its output into a fresh zeroed buffer) on
/// this thread and on a pool worker, asserting bitwise equality.
fn assert_thread_invariant(
    out_len: usize,
    kernel: impl Fn(&mut [f32]) + Send + 'static,
) -> Result<(), TestCaseError> {
    let _one_at_a_time = one_job_test_at_a_time();
    let mut here = vec![0.0f32; out_len];
    kernel(&mut here);
    let there = on_a_worker(move || {
        let mut out = vec![0.0f32; out_len];
        kernel(&mut out);
        out
    });
    prop_assert_eq!(&here, &there, "kernel diverged on a pool worker");
    Ok(())
}

proptest! {
    #[test]
    fn matmul_nn_bit_identical_across_threads(
        m in 1usize..48, k in 1usize..32, n in 1usize..48, seed in 0u64..1000
    ) {
        let a = filled(m * k, seed);
        let b = filled(k * n, seed ^ 1);
        assert_thread_invariant(m * n, move |c| matmul_into(&a, &b, c, m, k, n))?;
    }

    #[test]
    fn matmul_tn_bit_identical_across_threads(
        m in 1usize..48, k in 1usize..32, n in 1usize..48, seed in 0u64..1000
    ) {
        let a = filled(k * m, seed);
        let b = filled(k * n, seed ^ 2);
        assert_thread_invariant(m * n, move |c| matmul_tn_into(&a, &b, c, m, k, n))?;
    }

    #[test]
    fn matmul_nt_bit_identical_across_threads(
        m in 1usize..48, k in 1usize..32, n in 1usize..48, seed in 0u64..1000
    ) {
        let a = filled(m * k, seed);
        let b = filled(n * k, seed ^ 3);
        assert_thread_invariant(m * n, move |c| matmul_nt_into(&a, &b, c, m, k, n))?;
    }

    #[test]
    fn conv_forward_bit_identical_across_threads(
        batch in 1usize..5, cin in 1usize..4, cout in 1usize..8, seed in 0u64..1000
    ) {
        let (h, w) = (8usize, 8usize);
        let spec = Conv2dSpec { in_channels: cin, out_channels: cout, kernel: 3, stride: 1, padding: 1 };
        let plan = ConvPlan::new(spec, h, w);
        let input = Tensor::from_vec(filled(batch * cin * h * w, seed), &[batch, cin, h, w]);
        let weight = Tensor::from_vec(filled(cout * cin * 9, seed ^ 4), &[cout, cin * 9]);
        let bias = Tensor::from_vec(filled(cout, seed ^ 5), &[cout]);
        let out_len = batch * cout * h * w;
        assert_thread_invariant(out_len, move |out| {
            let (y, _) = conv2d_forward(&input, &weight, &bias, &plan, false);
            out.copy_from_slice(y.data());
        })?;
    }

    #[test]
    fn weighted_sum_bit_identical_to_per_element_sum_across_threads(
        n_inputs in 1usize..32,
        dim in 1usize..(2 * AGG_SHARD + 200),
        seed in 0u64..1000
    ) {
        // The server-aggregation primitive: the sharded kernel must match
        // the per-element left-to-right sum bitwise, on this thread and on a
        // pool worker.
        let inputs: Vec<Vec<f32>> = (0..n_inputs)
            .map(|j| filled(dim, seed ^ (j as u64) << 10))
            .collect();
        let weights: Vec<f32> = (0..n_inputs)
            .map(|j| (j + 1) as f32 / (n_inputs * (n_inputs + 1) / 2) as f32)
            .collect();
        let serial: Vec<f32> = (0..dim)
            .map(|i| {
                let mut acc = 0.0f32;
                for (input, &w) in inputs.iter().zip(&weights) {
                    acc += w * input[i];
                }
                acc
            })
            .collect();
        let mut sharded = vec![0.0f32; dim];
        let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
        weighted_sum_into(&refs, &weights, &mut sharded);
        prop_assert_eq!(&serial, &sharded, "sharded aggregation diverged from the per-element sum");
        assert_thread_invariant(dim, move |out| {
            let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
            weighted_sum_into(&refs, &weights, out);
        })?;
    }

    /// Executor torture test: interleaved `submit`/`join` of whole jobs
    /// plus small fork-joins (submit four, join four) issued from the main
    /// thread *between* the submits, swept across pool-worker counts
    /// {1, 2, 4, 8} (on a pool grown to 8 real workers, all but
    /// `workers - 1` of them parked for the sweep, under a job cap that
    /// admits twice as many jobs as workers stay free). The property: every
    /// interleaving completes (no deadlock — steal-on-join guarantees a
    /// joiner can always make progress) and every job's result is
    /// identical to its serial evaluation, regardless of which thread ran
    /// it. Jobs themselves run a nested fork-join, so a join inside a job
    /// (which never helps) is exercised too. One job per sweep
    /// lingers — it yields until the last job has started, or a bounded
    /// number of times — so that a join (deferred joins drain in either
    /// order) can find it mid-run on a worker with a later job queued
    /// behind it, which is when the joiner helps.
    #[test]
    fn submit_join_interleaves_with_fork_join_without_deadlock(
        n_jobs in 1usize..24,
        lingering in 0usize..24,
        drain_in_order in any::<bool>(),
        // One bit per job: join immediately after submitting (true) or
        // defer the join until after all submissions (false).
        join_now in proptest::collection::vec(any::<bool>(), 24),
        seed in 0u64..1000,
    ) {
        let _one_at_a_time = one_job_test_at_a_time();
        pool::ensure_workers(8);
        let expected = move |i: usize| -> u64 {
            let mut acc = seed ^ (i as u64).wrapping_mul(0x9E37_79B9);
            for k in 0..64u64 {
                acc = acc.rotate_left(7) ^ k;
            }
            acc
        };
        let job = move |i: usize, last_started: Arc<AtomicBool>| move || -> u64 {
            if i + 1 == n_jobs {
                last_started.store(true, Ordering::Release);
            } else if i == lingering {
                // Bounded: under a job cap the last job may only ever run
                // at its own join, after this one's.
                for _ in 0..2_000 {
                    if last_started.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
            // Nested fork-join inside the job: 4 partial results.
            let parts: Vec<pool::JobHandle<u64>> =
                (0..4u64).map(|t| pool::submit(move || t)).collect();
            let nested: u64 = parts.into_iter().map(pool::JobHandle::join).sum();
            // A plain assert: the panic surfaces at `join` on the main
            // thread, failing the test with the payload intact.
            assert_eq!(nested, 6, "nested fork-join lost jobs");
            expected(i)
        };
        for &workers in &WORKER_SWEEP {
            let gate = Arc::new(Gate::default());
            let parked = park_workers(&gate, pool::worker_count() - (workers - 1));
            let g = ctx::install(KernelCtx {
                max_pool_jobs: parked.len() + 2 * (workers - 1),
                ..ctx::snapshot()
            });
            let mut deferred: Vec<(usize, pool::JobHandle<u64>)> = Vec::new();
            let mut results: Vec<(usize, u64)> = Vec::new();
            let last_started = Arc::new(AtomicBool::new(false));
            for (i, &join_immediately) in join_now.iter().enumerate().take(n_jobs) {
                let h = pool::submit(job(i, Arc::clone(&last_started)));
                // A fork-join from the submitting thread while jobs are in
                // flight: four row bands of one buffer, as jobs.
                let bands: Vec<pool::JobHandle<Vec<f32>>> = (0..4usize)
                    .map(|band| pool::submit(move || (16 * band..16 * (band + 1)).map(|j| j as f32).collect()))
                    .collect();
                let out: Vec<f32> = bands.into_iter().flat_map(pool::JobHandle::join).collect();
                prop_assert!(out.iter().enumerate().all(|(j, &v)| v == j as f32));
                if join_immediately {
                    results.push((i, h.join()));
                } else {
                    deferred.push((i, h));
                }
            }
            // Drain deferred joins — join order must not matter.
            if !drain_in_order {
                deferred.reverse();
            }
            for (i, h) in deferred {
                results.push((i, h.join()));
            }
            drop(g);
            gate.open();
            parked.into_iter().for_each(pool::JobHandle::join);
            prop_assert_eq!(results.len(), n_jobs);
            for (i, got) in results {
                prop_assert_eq!(
                    got,
                    expected(i),
                    "job {} diverged at {} workers",
                    i,
                    workers
                );
            }
        }
    }
}
