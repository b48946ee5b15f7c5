//! The per-kernel thread count, fixed at one.
//!
//! Kernels run serially on whichever thread calls them. The FedAT simulator
//! parallelizes across *clients* — each client's local training is one
//! [`crate::pool`] job — so a kernel that fanned out as well would only
//! oversubscribe the cores the jobs already use. Where a kernel walks its
//! output in fixed chunks ([`crate::ops::AGG_SHARD`], the codecs'
//! `CODEC_CHUNK`), the chunking is for summation order and cache blocking.

/// The per-kernel thread count: always `1`. Kept only because the
/// benchmark's host report prints it (`kernel_threads`).
pub fn max_threads() -> usize {
    1
}
