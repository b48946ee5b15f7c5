//! What `scratch::alloc_misses` cannot see: buffer-sized requests that go
//! to the allocator directly. A counting global allocator (this test binary
//! only) tallies, per thread, every allocation of a kibibyte or more; after
//! warm-up a CnnLite training step must make none — the conv stage's column
//! matrices come from the arena as one buffer, the pooling indices and the
//! ReLU mask are reused in place, the matmul's non-zero list lives on the
//! stack. Small bookkeeping (`Vec<&mut Param>`, shape vectors) stays below
//! the threshold by two orders of magnitude.
//!
//! One level up, a warmed-up `train_client` dispatch asks for exactly one
//! buffer — the weight vector it returns: the optimizer is resident on the
//! thread between dispatches, so its state is not allocated, zeroed and
//! freed per client. Below it, a warmed-up batch gather asks for none: the
//! feature tensor is an arena buffer filled by `extend`, the labels reuse
//! the caller's vector.

use fedat_core::config::ExperimentConfig;
use fedat_core::local::train_client;
use fedat_data::suite;
use fedat_nn::models::ModelSpec;
use fedat_nn::optim::{Adam, ProxTerm};
use fedat_tensor::rng::rng_for;
use fedat_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Requests at least this large count as buffers.
const BUFFER_BYTES: usize = 1024;

thread_local! {
    static BUFFERS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn note(size: usize) {
        if size >= BUFFER_BYTES {
            // `try_with`: the allocator also runs while a thread's locals
            // are being torn down.
            let _ = BUFFERS.try_with(|n| n.set(n.get() + 1));
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches only a `const`
// thread-local `Cell` (no allocation, no destructor).
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` is passed through as received.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
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
        Self::note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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
    let before = BUFFERS.with(Cell::get);
    for x in &batches[3..] {
        model.train_batch(x, &y, &mut opt, Some(&prox));
    }
    assert_eq!(
        BUFFERS.with(Cell::get),
        before,
        "a warmed-up training step asked the allocator for a buffer"
    );
}

#[test]
fn steady_state_dispatch_requests_only_the_returned_weights() {
    let cfg = ExperimentConfig::builder().seed(3).batch_size(8).build();
    let models = [
        ModelSpec::Mlp {
            input: 64,
            hidden: vec![128, 128],
            classes: 10,
        },
        // 650 weights, 2.6 KB: an update that is still a buffer.
        ModelSpec::Logistic {
            input: 64,
            classes: 10,
        },
    ];
    for model in models {
        let mut task = suite::fmnist_like(4, 2, 3);
        task.model = model;
        let global: std::sync::Arc<[f32]> = task.model.build(1).weights().into();
        for round in 0..3 {
            train_client(&task, 1, &global, &cfg, 2, round, true);
        }
        for round in 3..8 {
            let before = BUFFERS.with(Cell::get);
            let update = train_client(&task, (round % 4) as usize, &global, &cfg, 2, round, true);
            assert_eq!(
                BUFFERS.with(Cell::get) - before,
                1,
                "{:?}: a warmed-up dispatch asked the allocator for more than its update",
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
    let mut y = Vec::new();
    data.gather_batch_into(&rows, &mut y).recycle();
    let before = BUFFERS.with(Cell::get);
    for shift in 1..6 {
        let rows: Vec<usize> = rows.iter().map(|r| (r + shift) % data.len()).collect();
        let x = data.gather_batch_into(&rows, &mut y);
        assert_eq!(x.row(7), data.x.row(rows[7]));
        assert_eq!(y.len(), rows.len());
        x.recycle();
    }
    assert_eq!(
        BUFFERS.with(Cell::get),
        before,
        "a warmed-up gather asked the allocator for a buffer"
    );
}
