//! # fedat-tensor — dense f32 tensors and the job pool
//!
//! The numeric substrate of the FedAT reproduction. The paper trains its
//! models with TensorFlow; this crate provides the minimal, fast, fully
//! deterministic tensor core those models need:
//!
//! * [`Tensor`] — an owned, row-major, dense `f32` tensor of rank ≤ 4,
//! * [`ops`] — elementwise kernels, three matmul variants (`NN`, `TN`, `NT`),
//!   reductions, and row softmax,
//! * [`conv`] — im2col convolution and max-pooling (forward + backward),
//! * [`pool`] — the persistent worker pool whole jobs (a client's local
//!   training, an evaluation) run on,
//! * [`rng`] — seed-splitting utilities so every component of an experiment
//!   draws from an independent, reproducible stream.
//!
//! ## Determinism
//!
//! Every kernel runs serially on the thread that calls it, with a fixed
//! reduction order, so its result does not depend on which thread — the
//! event loop or a pool worker — runs it.
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
