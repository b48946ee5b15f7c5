//! Allocation counts of the training hot path, as pins. A counting global
//! allocator (this test binary only) tallies, per thread, *every*
//! allocation — an `alloc` or a `realloc`, whatever its size.
//!
//! After warm-up a CnnLite training step makes none: the conv stage's
//! column matrices come from the scratch arena as one buffer, the pooling
//! indices and the ReLU mask are reused in place, the matmul's non-zero
//! list lives on the stack and the optimizer walks the parameters in place
//! (`fedat_nn::param::Params`) instead of collecting references to them. A
//! batch gather makes none either: the feature tensor is an arena buffer,
//! the labels reuse the caller's vector.
//!
//! One level up, a warmed-up `train_client` dispatch makes exactly one —
//! the weight vector it returns — however many batches it trains: the
//! model, the optimizer, the epoch's row order and the batch labels all
//! stay resident on the thread between dispatches. A pool `submit` + `join`
//! makes one (the job), and a whole FedAsync run, every dispatch, landing,
//! mix and evaluation included, stays within four per global update.

use fedat_core::config::{ExperimentConfig, StrategyKind};
use fedat_core::exec::ExecMode;
use fedat_core::local::train_client;
use fedat_data::suite;
use fedat_nn::models::ModelSpec;
use fedat_nn::optim::{Adam, ProxTerm};
use fedat_tensor::rng::rng_for;
use fedat_tensor::simd::SimdKernel;
use fedat_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn note() {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches only a `const`
// thread-local `Cell` (no allocation, no destructor).
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` is passed through as received.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: as above.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from `System.alloc` with this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `ptr` came from `System.alloc` with this `layout`; the caller
    // vouches for `new_size`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread made while running `f`, and `f`'s result.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn steady_state_cnn_step_requests_no_buffers() {
    let spec = ModelSpec::CnnLite {
        channels: 1,
        height: 8,
        width: 8,
        classes: 10,
    };
    let mut model = spec.build(3);
    let prox = ProxTerm::new(0.4, model.weights());
    let mut opt = Adam::new(0.003);
    let mut rng = rng_for(3, 9);
    let batches: Vec<Tensor> = (0..8)
        .map(|_| Tensor::randn(&mut rng, &[10, 64], 0.0, 1.0))
        .collect();
    let y: Vec<u32> = (0..10).collect();
    for x in &batches[..3] {
        model.train_batch(x, &y, &mut opt, Some(&prox));
    }
    let (made, ()) = counted(|| {
        for x in &batches[3..] {
            model.train_batch(x, &y, &mut opt, Some(&prox));
        }
    });
    assert_eq!(made, 0, "a warmed-up training step allocated");
}

#[test]
fn steady_state_dispatch_requests_only_the_returned_weights() {
    let cfg = ExperimentConfig::builder().seed(3).batch_size(8).build();
    let models = [
        ModelSpec::Mlp {
            input: 32,
            hidden: vec![64, 64],
            classes: 2,
        },
        ModelSpec::Logistic {
            input: 32,
            classes: 2,
        },
    ];
    for model in models {
        let mut task = suite::sent140_like(6, 3);
        task.model = model;
        let global: Arc<[f32]> = task.model.build(1).weights().into();
        for round in 0..3 {
            train_client(&task, 1, &global, &cfg, 2, round, true);
        }
        // One to six epochs: the count does not grow with the batch count.
        for epochs in 1..=6 {
            let round = 2 + epochs as u64;
            let (made, update) =
                counted(|| train_client(&task, 1, &global, &cfg, epochs, round, true));
            assert_eq!(
                made, 1,
                "{:?}, {epochs} epochs: a warmed-up dispatch allocated more than its update",
                task.model
            );
            assert_eq!(update.weights.len(), global.len());
        }
    }
}

#[test]
fn steady_state_gather_requests_no_buffers() {
    // 8 rows × 64 features: a 2 KB feature tensor per batch.
    let task = suite::fmnist_like(4, 2, 3);
    let data = &task.fed.clients[1].train;
    let rows: Vec<usize> = (0..8).map(|r| r % data.len()).collect();
    let shifted: Vec<Vec<usize>> = (1..6)
        .map(|shift| rows.iter().map(|r| (r + shift) % data.len()).collect())
        .collect();
    let mut y = Vec::new();
    data.gather_batch_into(&rows, &mut y).recycle();
    let (made, ()) = counted(|| {
        for rows in &shifted {
            let x = data.gather_batch_into(rows, &mut y);
            assert_eq!(x.row(7), data.x.row(rows[7]));
            assert_eq!(y.len(), rows.len());
            x.recycle();
        }
    });
    assert_eq!(made, 0, "a warmed-up gather allocated");
}

#[test]
fn a_submitted_job_allocates_once() {
    // Cap 0 keeps the jobs off the queue, whose buffer grows on its own
    // schedule (amortized, and on whichever thread pushes when it fills).
    let _cap = fedat_tensor::ctx::install(fedat_tensor::ctx::KernelCtx {
        max_pool_jobs: 0,
        ..fedat_tensor::ctx::snapshot()
    });
    fedat_tensor::pool::submit(|| 1u64).join();
    let (made, sum) = counted(|| {
        (0..8u64)
            .map(|i| fedat_tensor::pool::submit(move || i).join())
            .sum::<u64>()
    });
    assert_eq!(sum, 28);
    assert_eq!(made, 8, "a submit + join made more than its one allocation");
}

/// FedAsync's allocations per global update, marginal between a 20- and a
/// 60-round run (what both share — task, fleet, strategy, thread caches,
/// final sweep — cancels). At job cap 0 every job runs on this thread, so
/// the per-thread tally sees the whole run: training, the pipelined
/// evaluations and the event loop. The SIMD lane is pinned to `Auto`:
/// under `Scalar` every transfer is `decode(encode(..))` through a blob —
/// the reference the fused in-place roundtrip is held to, allocating by
/// design.
#[test]
fn fedasync_allocates_at_most_four_times_per_global_update() {
    let task = Arc::new(suite::sent140_like(400, 5));
    let run = |rounds: u64| {
        let mut cfg = ExperimentConfig::builder()
            .strategy(StrategyKind::FedAsync)
            .rounds(rounds)
            .seed(5)
            .build();
        cfg.exec.mode = Some(ExecMode::Inline);
        cfg.exec.simd = Some(SimdKernel::Auto);
        counted(|| fedat_core::run_experiment_shared(&task, &cfg).global_updates)
    };
    let (short, short_updates) = run(20);
    let (long, long_updates) = run(60);
    assert!(long_updates > short_updates, "the budget did not bind");
    let per_update = (long - short) as f64 / (long_updates - short_updates) as f64;
    assert!(
        per_update <= 4.0,
        "{per_update:.2} allocations per global update (> 4)"
    );
}
