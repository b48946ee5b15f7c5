//! A simulated transfer leaves the allocator alone. The transport's only
//! codec entry, `WireCodec::roundtrip`, works in the caller's vector: the
//! fused polyline lane keeps its block on the stack, the quantizer takes
//! its two sweeps' buffers from the scratch arena, the identity touches
//! nothing. A counting global allocator (this test binary only; the
//! `crates/nn/tests/alloc_steady_state.rs` pattern) tallies every request
//! this thread makes; after warm-up an uplink roundtrip of each of the
//! three codecs the benchmark runs must make none — where
//! `decode(encode(..))` made a payload, a blob and a decoded vector per
//! transfer.

use fedat_compress::codec::{codec_for, CodecKind};
use fedat_tensor::ctx::{self, KernelCtx};
use fedat_tensor::simd::SimdKernel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn note() {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down.
        let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
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

#[test]
fn warmed_up_uplink_roundtrips_request_nothing() {
    // The fused lanes, whatever `FEDAT_SIMD` says: the `Scalar` lane is the
    // blob composition by definition, and allocates like one.
    let _lane = ctx::install(KernelCtx {
        simd: SimdKernel::Auto,
        ..ctx::snapshot()
    });
    // `cohort500-wire`'s model size; a trained-looking update one local
    // pass away from its reference.
    let n = 32_830;
    let reference: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 0.1).collect();
    let trained: Vec<f32> = (0..n)
        .map(|i| reference[i] + (i as f32 * 0.11).cos() * 0.003)
        .collect();
    let mut update = trained.clone();
    for kind in [
        CodecKind::Polyline {
            precision: 4,
            delta: true,
        },
        CodecKind::Quantized { bits: 4 },
        CodecKind::None,
    ] {
        let codec = codec_for(kind);
        let mut transfer = || {
            update.copy_from_slice(&trained);
            codec.roundtrip(&mut update, Some(&reference))
        };
        let bytes = transfer();
        transfer();
        let before = REQUESTS.with(Cell::get);
        for _ in 0..5 {
            assert_eq!(transfer(), bytes);
        }
        let requests = REQUESTS.with(Cell::get) - before;
        assert_eq!(
            requests,
            0,
            "{} roundtrip went to the allocator",
            codec.name()
        );
    }
}
