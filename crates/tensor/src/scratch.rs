//! Thread-local recycling arena for hot-path `f32` buffers.
//!
//! Training allocates the same handful of buffer shapes every mini-batch:
//! activations, gradients, im2col columns, flattened weights. Instead of a
//! fresh heap allocation per tensor per batch, the hot paths take buffers
//! from this arena and hand them back when the value dies; after one warm-up
//! batch a training round performs no tensor allocations at all.
//!
//! The arena is thread-local, bounded (at most [`MAX_FREE`] buffers are
//! retained per thread), and invisible to results: every buffer handed out
//! is freshly zeroed or overwritten by a copy. The simulator's harness runs
//! one experiment per worker thread; matmul/conv kernels never allocate on
//! pool workers, while the pooled streaming evaluator *does* gather batches
//! there — each pool worker simply warms and reuses its own bounded arena.
//!
//! [`alloc_misses`] counts arena misses (true heap allocations), which lets
//! tests assert that steady-state training stops allocating.

use std::cell::{Cell, RefCell};

/// Maximum buffers retained per thread.
pub const MAX_FREE: usize = 64;

thread_local! {
    static FREE: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    static MISSES: Cell<u64> = const { Cell::new(0) };
}

/// Total arena misses (heap allocations) on this thread so far.
pub fn alloc_misses() -> u64 {
    MISSES.with(|m| m.get())
}

fn take_raw(len: usize) -> Vec<f32> {
    FREE.with(|free| {
        let mut free = free.borrow_mut();
        // Best fit: the smallest retained buffer that holds `len`.
        let mut best: Option<(usize, usize)> = None;
        for (i, buf) in free.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && best.is_none_or(|(_, bcap)| cap < bcap) {
                best = Some((i, cap));
            }
        }
        match best {
            Some((i, _)) => free.swap_remove(i),
            None => {
                MISSES.with(|m| m.set(m.get() + 1));
                Vec::with_capacity(len)
            }
        }
    })
}

/// Takes a zeroed buffer of exactly `len` elements.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut v = take_raw(len);
    v.clear();
    v.resize(len, 0.0);
    v
}

/// Takes a buffer holding a copy of `src`.
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    let mut v = take_raw(src.len());
    v.clear();
    v.extend_from_slice(src);
    v
}

/// Takes an empty buffer with at least `capacity` elements reserved, for
/// callers that fill it by `push`/`extend` — skips the zero-fill of
/// [`take_zeroed`] when every element is about to be overwritten anyway.
pub fn take_empty(capacity: usize) -> Vec<f32> {
    let mut v = take_raw(capacity);
    v.clear();
    v
}

/// Returns a buffer to the arena for reuse.
pub fn recycle(v: Vec<f32>) {
    if v.capacity() == 0 {
        return;
    }
    FREE.with(|free| {
        let mut free = free.borrow_mut();
        if free.len() == MAX_FREE {
            // Evict the smallest retained buffer so capacities ratchet up to
            // the working set instead of churning — but only if the incoming
            // buffer is actually larger; otherwise drop the newcomer.
            match free.iter().enumerate().min_by_key(|(_, b)| b.capacity()) {
                Some((i, smallest)) if smallest.capacity() < v.capacity() => {
                    free.swap_remove(i);
                }
                _ => return,
            }
        }
        free.push(v);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_buffer_is_reused() {
        let a = take_zeroed(1000);
        let ptr = a.as_ptr();
        recycle(a);
        let b = take_zeroed(900);
        assert_eq!(b.as_ptr(), ptr, "arena should hand back the same storage");
        assert_eq!(b.len(), 900);
        assert!(b.iter().all(|&x| x == 0.0));
        recycle(b);
    }

    #[test]
    fn take_copy_copies() {
        let src = [1.0f32, 2.0, 3.0];
        let v = take_copy(&src);
        assert_eq!(v, src);
        recycle(v);
    }

    #[test]
    fn steady_state_stops_missing() {
        // Warm up with the working set, then reuse must be alloc-free.
        for _ in 0..3 {
            let a = take_zeroed(512);
            let b = take_zeroed(256);
            recycle(a);
            recycle(b);
        }
        let before = alloc_misses();
        for _ in 0..100 {
            let a = take_zeroed(512);
            let b = take_zeroed(256);
            recycle(a);
            recycle(b);
        }
        assert_eq!(alloc_misses(), before, "steady state must not allocate");
    }

    #[test]
    fn eviction_keeps_the_largest_buffers() {
        for i in 0..(MAX_FREE + 8) {
            recycle(Vec::with_capacity(16 + i));
        }
        FREE.with(|f| {
            let f = f.borrow();
            assert!(f.len() <= MAX_FREE);
            // The small early buffers were evicted in favor of later, larger
            // ones.
            assert!(f.iter().all(|b| b.capacity() >= 16 + 8));
        });
    }
}
