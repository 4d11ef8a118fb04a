//! Dense tensor and small linear-algebra substrate for the MicroNAS reproduction.
//!
//! The original MicroNAS implementation relies on PyTorch for its forward and
//! backward passes. This crate provides the minimal numerical kernel we need
//! instead: an owned dense `f32` [`Tensor`] with NCHW convolution, matrix
//! multiplication, a symmetric eigenvalue solver (cyclic Jacobi) for the
//! neural-tangent-kernel spectrum, deterministic random initialisation, and a
//! handful of statistics helpers.
//!
//! The crate is deliberately small and dependency-light; everything is plain
//! safe Rust operating on contiguous `Vec<f32>` buffers.
//!
//! # Convolution engines and workspace reuse
//!
//! Convolution has two implementations selected per call (see the `conv`
//! module docs for the full contract):
//!
//! * **direct** naive loops — the correctness oracle, kept for tiny shapes
//!   and exposed as [`conv2d_direct`] / [`conv2d_backward_weight_direct`] /
//!   [`conv2d_backward_input_direct`];
//! * **cache-blocked GEMM** ([`gemm_nn`], [`gemm_nt`], [`gemm_tn`]) over
//!   each image's column matrix, lowered by im2col or, for the paper's
//!   stride-1 conv3×3 forward, read in place from a zero-padded image —
//!   the default for real workloads.
//!
//! The `*_with` conv entry points thread a reusable [`Workspace`] scratch
//! arena through the lowering so repeated forward/backward passes (NTK
//! repeats, linear-region probes) stop allocating; [`set_conv_engine`] pins
//! an engine process-wide for benchmarks and equivalence tests.
//!
//! # Execution backends
//!
//! The network substrate one crate up dispatches every kernel through the
//! object-safe [`KernelBackend`] trait (see the `backend` module docs): the
//! naive-loop [`DirectBackend`] oracle, the paper-default
//! [`BlockedGemmBackend`] (bitwise-identical to the free functions above),
//! the FMA-tiled rayon-chunked [`SimdBackend`] and the int8 fixed-point
//! [`Int8Backend`] MCU reference. [`all_backends`] is the conformance-suite
//! registry; [`paper_default_backend`] is the shared default instance.
//!
//! # Example
//!
//! ```
//! use micronas_tensor::{Tensor, Shape};
//!
//! # fn main() -> Result<(), micronas_tensor::TensorError> {
//! let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.])?;
//! let b = Tensor::from_vec(Shape::d2(3, 2), vec![1., 0., 0., 1., 1., 1.])?;
//! let c = a.matmul(&b)?;
//! assert_eq!(c.shape().dims(), &[2, 2]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod backend;
mod conv;
mod error;
pub mod fused;
mod init;
mod int8;
mod linalg;
pub mod ops;
mod pool;
mod rng;
mod shape;
mod simd;
mod stats;
mod tensor;
mod workspace;

pub use backend::{
    all_backends, backend_fingerprint, instrument_backend, paper_default_backend,
    BlockedGemmBackend, DirectBackend, KernelBackend, KernelBackendKind,
    DEFAULT_ARENA_RETENTION_CAP,
};
pub use conv::{
    conv2d, conv2d_backward_input, conv2d_backward_input_direct, conv2d_backward_input_pooled,
    conv2d_backward_input_with, conv2d_backward_weight, conv2d_backward_weight_direct,
    conv2d_backward_weight_per_sample_direct, conv2d_backward_weight_per_sample_into,
    conv2d_backward_weight_per_sample_packed_into, conv2d_backward_weight_per_sample_with,
    conv2d_backward_weight_with, conv2d_direct, conv2d_forward_packed_pooled, conv2d_pooled,
    conv2d_with, conv_engine, set_conv_engine, Conv2dSpec, ConvEngine, PackedGradSlot,
};
pub use error::TensorError;
pub use init::{kaiming_normal, kaiming_uniform, xavier_uniform, InitKind};
pub use int8::Int8Backend;
pub use linalg::{
    condition_number, gemm_nn, gemm_nt, gemm_tn, gram_nt_f64, sym_eigenvalues,
    sym_eigenvalues_with, EigenOptions, EigenReport,
};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, avg_pool2d_backward_pooled, avg_pool2d_pooled,
    global_avg_pool, global_avg_pool_backward,
};
pub use rng::{hash_mix, split_mix64, DeterministicRng};
pub use shape::Shape;
pub use simd::SimdBackend;
pub use stats::{dot, l2_norm, mean, population_variance, standardize};
pub use tensor::Tensor;
pub use workspace::Workspace;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
