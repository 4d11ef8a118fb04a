//! Minimal neural-network substrate for zero-cost proxy evaluation.
//!
//! MicroNAS never trains a network: every indicator is computed at random
//! initialisation. What the proxies *do* need is
//!
//! 1. a forward pass through the candidate cell (for ReLU activation
//!    patterns, i.e. the linear-region count, packed into bits as
//!    [`SignPatterns`]), and
//! 2. per-sample gradients of the network output with respect to **all**
//!    parameters (for the neural-tangent-kernel Gram matrix).
//!
//! This crate therefore provides a compact, explicitly differentiated
//! implementation of the NAS-Bench-201 cell network: a stem convolution, a
//! configurable stack of searched cells, global average pooling and a linear
//! classifier. Backpropagation is hand-written layer by layer on top of the
//! kernels in [`micronas_tensor`]; no autograd tape is required because the
//! topology is fixed and small.
//!
//! # Example
//!
//! ```
//! use micronas_nn::{CellNetwork, ProxyNetworkConfig};
//! use micronas_searchspace::SearchSpace;
//! use micronas_tensor::{Shape, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let space = SearchSpace::nas_bench_201();
//! let cell = space.cell(8_888)?;
//! let config = ProxyNetworkConfig::tiny(10);
//! let net = CellNetwork::new(&cell, &config, 42)?;
//!
//! let input = Tensor::zeros(Shape::nchw(2, 3, config.input_resolution, config.input_resolution));
//! let output = net.forward(&input)?;
//! assert_eq!(output.logits.shape().dims(), &[2, 10]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod config;
mod error;
mod gradient;
mod layers;
mod network;
mod signs;

pub use config::ProxyNetworkConfig;
pub use error::NnError;
pub use gradient::{ParameterGradients, PerSampleGradients};
pub use layers::{ConvLayer, LinearLayer};
pub use network::{
    pack_kernel_stats, CellNetwork, CellNetworkPack, ForwardOutput, PackKernelStats,
};
pub use signs::SignPatterns;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NnError>;
