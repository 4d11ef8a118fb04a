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
//! # Execution backends
//!
//! Every conv and pool kernel is reached through the [`KernelBackend`]
//! enum (see the `backend` module docs); no conv or pool kernel is a public
//! free function. Two backends ship:
//!
//! * [`KernelBackend::Direct`] — naive loops, the correctness oracle;
//! * [`KernelBackend::BlockedGemm`] — the paper default: direct loops below
//!   a small MAC threshold (a pure function of the shape), cache-blocked
//!   GEMM ([`gemm_nn`], [`gemm_nt`], [`gemm_tn`]) over each image's column
//!   matrix above it, lowered by im2col or, for the paper's stride-1
//!   conv3×3 forward, read in place from a zero-padded image.
//!
//! Every kernel threads a reusable [`Workspace`] scratch arena, so repeated
//! forward/backward passes (NTK repeats, linear-region probes) stop
//! allocating.
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
mod init;
mod linalg;
pub mod ops;
mod pool;
mod rng;
mod shape;
mod stats;
mod tensor;
mod workspace;

pub use backend::{KernelBackend, DEFAULT_ARENA_RETENTION_CAP};
pub use conv::{Conv2dSpec, PackedGradSlot};
pub use error::TensorError;
pub use init::{kaiming_normal, kaiming_uniform, xavier_uniform, InitKind};
pub use linalg::{
    condition_number, gemm_nn, gemm_nt, gemm_tn, gram_nt_f64, sym_eigenvalues,
    sym_eigenvalues_with, EigenOptions, EigenReport,
};
pub use pool::{global_avg_pool, global_avg_pool_backward};
pub use rng::{hash_mix, split_mix64, DeterministicRng};
pub use shape::Shape;
pub use stats::{dot, l2_norm, mean, population_variance, standardize};
pub use tensor::Tensor;
pub use workspace::Workspace;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
