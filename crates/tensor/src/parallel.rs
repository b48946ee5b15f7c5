//! Deterministic data-parallel helpers.
//!
//! The kernels in [`crate::ops`] and [`crate::conv`] shard *disjoint output
//! chunks* across threads. Each output element is written by exactly one
//! thread using a fixed serial inner loop, so results are bit-identical for
//! any thread count.
//!
//! Work is executed on the persistent worker pool in [`crate::pool`]:
//! workers are spawned once and parked between kernels, so a parallel
//! region costs a channel send instead of an OS thread spawn + join.
//!
//! The FedAT simulator parallelizes across *clients*, so by default kernels
//! run serially to avoid oversubscription; install a [`crate::ctx::KernelCtx`]
//! with a larger `max_threads` to let individual kernels fan out (useful
//! for large single-model workloads).

use crate::pool;

/// Minimum number of f32 ops a chunk must contain before fanning out.
/// Below this, dispatch overhead dominates any speedup.
pub const PAR_THRESHOLD: usize = 16 * 1024;

/// Current per-kernel thread cap (`1` means serial): the thread's
/// [`crate::ctx`] overlay when one is installed, the built-in default
/// otherwise.
pub fn max_threads() -> usize {
    crate::ctx::snapshot().max_threads.max(1)
}

/// Decides how many threads to use for `work_items` independent items whose
/// per-item cost is roughly `cost_per_item` f32 ops.
pub fn plan_threads(work_items: usize, cost_per_item: usize) -> usize {
    let cap = max_threads();
    if cap <= 1 {
        return 1;
    }
    let total = work_items.saturating_mul(cost_per_item);
    if total < PAR_THRESHOLD {
        return 1;
    }
    cap.min(work_items).max(1)
}

/// Runs `f(chunk_index, item_range)` over `0..len` split into `threads`
/// near-equal contiguous ranges, in parallel.
///
/// With `threads == 1` this degenerates to a single inline call, so callers
/// need no serial special-case.
pub fn for_each_range<F>(len: usize, threads: usize, f: F)
where
    F: Fn(usize, std::ops::Range<usize>) + Sync,
{
    if len == 0 {
        return;
    }
    let threads = threads.clamp(1, len);
    if threads == 1 {
        f(0, 0..len);
        return;
    }
    let chunk = len.div_ceil(threads);
    let chunks = len.div_ceil(chunk);
    pool::run_tasks(chunks, threads - 1, &|t| {
        let lo = t * chunk;
        let hi = ((t + 1) * chunk).min(len);
        f(t, lo..hi);
    });
}

/// Splits `out` into `threads` near-equal row bands (each `row_len` wide) and
/// runs `f(first_row, band)` on each band in parallel.
///
/// This is the workhorse for matrix kernels: the output rows are disjoint
/// `&mut` slices, so no synchronization is needed.
///
/// # Panics
/// Panics if `out.len()` is not a multiple of `row_len`.
pub fn for_each_row_band<F>(out: &mut [f32], row_len: usize, threads: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert_eq!(out.len() % row_len, 0, "output not a whole number of rows");
    let rows = out.len() / row_len;
    if rows == 0 {
        return;
    }
    let threads = threads.clamp(1, rows);
    if threads == 1 {
        f(0, out);
        return;
    }
    let rows_per_band = rows.div_ceil(threads);
    let band_elems = rows_per_band * row_len;
    let len = out.len();
    let bands = len.div_ceil(band_elems);
    let base = out.as_mut_ptr() as usize;
    pool::run_tasks(bands, threads - 1, &|t| {
        let lo = t * band_elems;
        let hi = ((t + 1) * band_elems).min(len);
        // SAFETY: bands are disjoint, in-bounds subslices of `out`, which
        // the enclosing call borrows mutably for the whole region.
        let band = unsafe { std::slice::from_raw_parts_mut((base as *mut f32).add(lo), hi - lo) };
        f(t * rows_per_band, band);
    });
}

/// Splits `out` into fixed `chunk_len`-element chunks (the last may be
/// short) and runs `f(chunk_start, chunk)` on each, distributing chunks
/// across up to `threads` threads.
///
/// Unlike [`for_each_row_band`], the chunk boundaries are a function of
/// `chunk_len` alone — never of the thread count — so a caller that
/// accumulates *within* each chunk in a fixed order produces bit-identical
/// results for any thread count, and each output chunk stays cache-hot
/// across a long accumulation. This is the server-aggregation access
/// pattern: `weighted_sum_into` sweeps hundreds of client updates through
/// every chunk.
///
/// # Panics
/// Panics if `chunk_len` is zero.
pub fn for_each_chunk<F>(out: &mut [f32], chunk_len: usize, threads: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let len = out.len();
    if len == 0 {
        return;
    }
    let chunks = len.div_ceil(chunk_len);
    let threads = threads.clamp(1, chunks);
    if threads == 1 {
        for (t, chunk) in out.chunks_mut(chunk_len).enumerate() {
            f(t * chunk_len, chunk);
        }
        return;
    }
    // Group chunks into at most `threads` region tasks (each task walks
    // its chunks serially) so the region honours the thread cap. Chunk
    // boundaries are unaffected by the grouping.
    let per_group = chunks.div_ceil(threads);
    let groups = chunks.div_ceil(per_group);
    let base = out.as_mut_ptr() as usize;
    pool::run_tasks(groups, threads - 1, &|g| {
        for t in (g * per_group)..((g + 1) * per_group).min(chunks) {
            let lo = t * chunk_len;
            let hi = ((t + 1) * chunk_len).min(len);
            // SAFETY: chunks are disjoint, in-bounds subslices of `out`,
            // which the enclosing call borrows mutably for the whole
            // region, and each chunk belongs to exactly one group.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut((base as *mut f32).add(lo), hi - lo) };
            f(lo, chunk);
        }
    });
}

/// Runs `f(slot_index, &mut slot)` over every element of `slots`,
/// distributing slots across up to `threads` threads.
///
/// This is the variable-width sibling of [`for_each_chunk`] for work whose
/// per-item output is not a fixed-size `f32` range — e.g. the wire codecs
/// produce one byte segment per weight chunk. The slot assignment is a
/// function of the slot index alone, so results are bit-identical for any
/// thread count.
pub fn for_each_slot<T, F>(slots: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = slots.len();
    if n == 0 {
        return;
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            f(i, slot);
        }
        return;
    }
    let per_group = n.div_ceil(threads);
    let groups = n.div_ceil(per_group);
    let base = slots.as_mut_ptr() as usize;
    pool::run_tasks(groups, threads - 1, &|g| {
        for i in (g * per_group)..((g + 1) * per_group).min(n) {
            // SAFETY: each slot index belongs to exactly one group, so the
            // reconstituted `&mut T`s are disjoint, in-bounds elements of
            // `slots`, which the enclosing call borrows mutably for the
            // whole region.
            let slot = unsafe { &mut *(base as *mut T).add(i) };
            f(i, slot);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_threads(n: usize) -> crate::ctx::OverlayGuard {
        crate::ctx::install(crate::ctx::KernelCtx {
            max_threads: n,
            ..crate::ctx::snapshot()
        })
    }

    #[test]
    fn serial_plan_when_cap_is_one() {
        let _g = with_threads(1);
        assert_eq!(plan_threads(1_000_000, 1_000), 1);
    }

    #[test]
    fn small_work_stays_serial_even_with_threads() {
        let _g = with_threads(8);
        assert_eq!(plan_threads(4, 4), 1);
        assert_eq!(plan_threads(1_000_000, 1_000), 8);
    }

    #[test]
    fn for_each_range_covers_everything_once() {
        use std::sync::Mutex;
        let hits = Mutex::new(vec![0u32; 103]);
        for_each_range(103, 7, |_, range| {
            let mut h = hits.lock().unwrap();
            for i in range {
                h[i] += 1;
            }
        });
        assert!(hits.into_inner().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn row_bands_partition_output() {
        let mut out = vec![0.0f32; 10 * 4];
        for_each_row_band(&mut out, 4, 3, |first_row, band| {
            for (r, row) in band.chunks_mut(4).enumerate() {
                for v in row.iter_mut() {
                    *v = (first_row + r) as f32;
                }
            }
        });
        for r in 0..10 {
            for c in 0..4 {
                assert_eq!(out[r * 4 + c], r as f32);
            }
        }
    }

    #[test]
    fn parallel_matches_serial_banding() {
        let make = |threads| {
            let mut out = vec![0.0f32; 64 * 16];
            for_each_row_band(&mut out, 16, threads, |first_row, band| {
                for (r, row) in band.chunks_mut(16).enumerate() {
                    let row_idx = first_row + r;
                    for (c, v) in row.iter_mut().enumerate() {
                        *v = (row_idx * 31 + c) as f32 * 0.5;
                    }
                }
            });
            out
        };
        assert_eq!(make(1), make(5));
        assert_eq!(make(1), make(64));
    }

    #[test]
    fn chunks_partition_output_with_fixed_boundaries() {
        // 10 elements in chunks of 4 → chunk starts 0, 4, 8 regardless of
        // the thread count.
        for threads in [1, 2, 3, 8] {
            let mut out = vec![0.0f32; 10];
            let starts = std::sync::Mutex::new(Vec::new());
            for_each_chunk(&mut out, 4, threads, |start, chunk| {
                starts.lock().unwrap().push((start, chunk.len()));
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (start + i) as f32;
                }
            });
            let mut starts = starts.into_inner().unwrap();
            starts.sort_unstable();
            assert_eq!(starts, vec![(0, 4), (4, 4), (8, 2)]);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i as f32);
            }
        }
    }

    #[test]
    fn slots_are_each_visited_exactly_once() {
        for threads in [1, 2, 3, 8] {
            let mut slots: Vec<Vec<u8>> = vec![Vec::new(); 11];
            for_each_slot(&mut slots, threads, |i, slot| {
                slot.push(i as u8);
            });
            for (i, slot) in slots.iter().enumerate() {
                assert_eq!(slot.as_slice(), &[i as u8], "threads={threads}");
            }
        }
    }
}
