//! # fedat-tensor — dense f32 tensors with parallel kernels
//!
//! The numeric substrate of the FedAT reproduction. The paper trains its
//! models with TensorFlow; this crate provides the minimal, fast, fully
//! deterministic tensor core those models need:
//!
//! * [`Tensor`] — an owned, row-major, dense `f32` tensor of rank ≤ 4,
//! * [`ops`] — elementwise kernels, three matmul variants (`NN`, `TN`, `NT`),
//!   reductions, and row softmax, with the large kernels parallelized across
//!   a scoped thread pool ([`parallel`]),
//! * [`conv`] — im2col convolution and max-pooling (forward + backward),
//! * [`rng`] — seed-splitting utilities so every component of an experiment
//!   draws from an independent, reproducible stream.
//!
//! ## Determinism
//!
//! All parallel kernels partition *output* elements across threads, so each
//! output value is produced by exactly one thread using a fixed serial
//! reduction order. Results are therefore bit-identical regardless of the
//! thread count configured via [`ctx::KernelCtx::max_threads`]. Reductions that
//! would need cross-thread accumulation (e.g. [`Tensor::sum`]) stay serial.
//!
//! The arithmetic inside every kernel lives in [`simd`]: plain loops, and
//! for the few kernels that need them runtime-detected AVX2+FMA lanes that
//! are bit-identical to the scalar reference by construction, so neither
//! the host ISA nor the [`simd::SimdKernel`] setting can change a result.
//!
//! ```
//! use fedat_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

pub mod conv;
pub mod ctx;
pub mod ops;
pub mod parallel;
pub mod pool;
pub mod rng;
pub mod scratch;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use shape::Shape;
pub use tensor::Tensor;
