//! Kernel-graph IR and CPU compilers for the MicroNAS execution pipeline.
//!
//! This crate expresses a cell network's forward and backward passes as a
//! small static [`Graph`] of tensor ops — convolutions (forward, backward
//! weight/input, per-sample gradients), GEMMs, the NTK Gram, pooling and
//! ReLU — with explicit SSA value nodes, and compiles that
//! graph to an executable plan behind the [`Compiler`] trait
//! (`compile(&Graph) -> Runnable`).
//!
//! Two compilers ship:
//!
//! * [`InterpreterCompiler`] — the reference interpreter. It executes the
//!   graph node by node through the existing
//!   [`micronas_tensor::KernelBackend`] seam, replaying exactly the kernel
//!   sequence the eager path runs, in the same order, with the same
//!   accumulation discipline — so its results are **bitwise identical** to
//!   the eager path under every backend, and it shares the paper store
//!   namespace.
//! * [`FusingCompiler`] — an optimising compiler whose passes eliminate dead
//!   subgraphs, fuse conv→ReLU epilogues into the im2col gather, merge the
//!   backward weight+input pair into a single dispatch over one shared
//!   lowering, and collapse zero-init + single-contribution accumulations.
//!   Its schedules are numerically **divergent** (always-GEMM conv dispatch,
//!   `-0.0`-visible alias rewrites), so its `(id, fingerprint)` folds into
//!   the store namespace exactly like a divergent kernel backend — old logs
//!   refuse to open rather than silently serving drifted numerics.
//!
//! The graph layer is also the seam the eventual GPU backend plugs into: a
//! wgpu compiler is a third [`Compiler`] impl over the same IR, conformance
//! tested against the interpreter.

#![warn(missing_docs)]

mod compiler;
mod exec;
mod fuse;
mod ir;

pub use compiler::{
    Compiler, CompilerKind, FusingCompiler, GraphError, InterpreterCompiler, Runnable,
};
pub use exec::{RunOutput, RunOutputs};
pub use fuse::optimize;
pub use ir::{Graph, Node, OpKind, ValueId, ValueKind};
