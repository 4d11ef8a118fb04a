//! The kernel-graph IR: ops, SSA values and the [`Graph`] container.
//!
//! A [`Graph`] is a topologically ordered list of [`Node`]s over explicit
//! SSA values. Every value has a static shape and element kind; in-place
//! kernels (accumulation, masking, per-sample matrix writes) *consume* one
//! input version and emit a fresh [`ValueId`] aliasing the same buffer, so
//! the node list stays a proper DAG while still expressing the eager path's
//! zero-copy accumulation discipline.

use micronas_tensor::{hash_mix, Conv2dSpec, Shape};
use std::fmt::Write as _;

/// Handle to one SSA value in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueId(pub(crate) u32);

impl ValueId {
    /// The value's index into the graph's value table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Element kind of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// A dense `f32` tensor.
    F32,
    /// A flat `f64` buffer (the Gram accumulator).
    F64,
}

/// Static metadata of one SSA value.
#[derive(Debug, Clone)]
pub(crate) struct ValueMeta {
    pub(crate) shape: Shape,
    pub(crate) kind: ValueKind,
}

/// The operation performed by one [`Node`].
///
/// Input/output arities are fixed per variant; see each variant's doc for
/// the operand order. Ops marked *in-place* consume one input version (its
/// buffer is reused) and emit a fresh value aliasing it.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Graph input bound at run time from the caller's slot `slot`.
    Input {
        /// Position in the caller-supplied input list.
        slot: usize,
    },
    /// A tensor filled with `value` (zero-filled buffers come from the
    /// workspace's zeroed pool, matching the eager path bit-for-bit).
    Fill {
        /// The fill constant.
        value: f32,
    },
    /// `[x, w] -> y`: forward convolution through the backend seam.
    Conv2d {
        /// Convolution geometry.
        spec: Conv2dSpec,
    },
    /// `[w, grad_out] -> grad_in`: input gradient (output shape is the
    /// node's result shape).
    Conv2dBackwardInput {
        /// Convolution geometry.
        spec: Conv2dSpec,
    },
    /// `[x, grad_out] -> grad_w`: weight gradient summed over the batch.
    Conv2dBackwardWeight {
        /// Convolution geometry.
        spec: Conv2dSpec,
        /// Output channels of the convolution.
        c_out: usize,
    },
    /// `[x, grad_out, matrix] -> matrix'` (*in-place* on `matrix`):
    /// per-sample weight gradients written into rows of the `[N, P]`
    /// gradient matrix at `offset` with stride `row_stride`.
    PerSampleGradW {
        /// Convolution geometry.
        spec: Conv2dSpec,
        /// Output channels of the convolution.
        c_out: usize,
        /// Row stride of the destination matrix (the parameter count `P`).
        row_stride: usize,
        /// This layer's parameter offset within a row.
        offset: usize,
    },
    /// `[features, matrix] -> matrix'` (*in-place* on `matrix`): the
    /// classifier's per-sample gradient rows — a pure outer product with
    /// the all-ones logit gradient, written directly.
    ClassifierRows {
        /// Number of classifier outputs.
        num_classes: usize,
        /// Number of classifier inputs (feature channels).
        channels: usize,
        /// Row stride of the destination matrix.
        row_stride: usize,
        /// Classifier parameter offset within a row.
        offset: usize,
    },
    /// `[x] -> y`: average pooling (count-include-pad).
    AvgPool2d {
        /// Square window size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
    },
    /// `[grad_out] -> grad_in`: backward of [`OpKind::AvgPool2d`] (output
    /// shape is the node's result shape).
    AvgPool2dBackward {
        /// Square window size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
    },
    /// `[x] -> relu(x)`.
    Relu,
    /// `[g, pre] -> g'` (*in-place* on `g`): zeroes `g` where `pre <= 0` —
    /// the ReLU backward mask.
    ReluMask,
    /// `[acc, x] -> acc'` (*in-place* on `acc`): `acc += alpha * x`.
    Axpy {
        /// Scale applied to `x`.
        alpha: f32,
    },
    /// `[x] -> alpha * x` into a fresh buffer. Produced only by the fusing
    /// compiler (replaces a zero-fill + first accumulation); numerically
    /// divergent from `0 + alpha*x` on `-0.0`.
    CopyScaled {
        /// Scale applied to `x`.
        alpha: f32,
    },
    /// `[x] -> [n, c]`: spatial global average pooling.
    GlobalAvgPool,
    /// `[grad_features] -> grad_x`: spreads each feature gradient uniformly
    /// over its plane (`g / hw`) — the backward of global average pooling.
    SpreadPlanes,
    /// `[a, b] -> c = a·b` (`a` `[m,k]`, `b` `[k,n]`).
    GemmNn {
        /// Rows of `a` and `c`.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns of `b` and `c`.
        n: usize,
    },
    /// `[a, b] -> c = a·bᵀ` (`a` `[m,k]`, `b` `[n,k]`).
    GemmNt {
        /// Rows of `a` and `c`.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Rows of `b` / columns of `c`.
        n: usize,
    },
    /// `[a, b] -> c = aᵀ·b` (`a` `[k,m]`, `b` `[k,n]`).
    GemmTn {
        /// Columns of `a` / rows of `c`.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns of `b` and `c`.
        n: usize,
    },
    /// `[j] -> G = j·jᵀ` in `f64` (`j` `[n, p]`, `G` `[n, n]`).
    GramNtF64 {
        /// Rows of the Jacobian panel.
        n: usize,
        /// Columns (parameters).
        p: usize,
    },
    /// `[pre, w] -> conv(relu(pre), w)`: forward conv with the ReLU fused
    /// into the im2col gather, always on the GEMM schedule. Produced only
    /// by the fusing compiler.
    FusedConvRelu {
        /// Convolution geometry.
        spec: Conv2dSpec,
    },
    /// `[pre, grad_out, w, matrix] -> (matrix', grad_in_masked)`
    /// (*in-place* on `matrix`): the fused backward pair — per-sample
    /// weight gradients and the masked input gradient in one dispatch over
    /// one shared ReLU-fused im2col lowering. Produced only by the fusing
    /// compiler.
    FusedConvBackward {
        /// Convolution geometry.
        spec: Conv2dSpec,
        /// Output channels of the convolution.
        c_out: usize,
        /// Row stride of the destination matrix.
        row_stride: usize,
        /// This layer's parameter offset within a row.
        offset: usize,
    },
}

impl OpKind {
    /// Index of the input this op consumes in place (its buffer is reused
    /// for the first output), if any.
    pub fn consumed_input(&self) -> Option<usize> {
        match self {
            OpKind::PerSampleGradW { .. } => Some(2),
            OpKind::ClassifierRows { .. } => Some(1),
            OpKind::ReluMask => Some(0),
            OpKind::Axpy { .. } => Some(0),
            OpKind::FusedConvBackward { .. } => Some(3),
            _ => None,
        }
    }

    /// Whether this op is emitted only by the fusing compiler's passes.
    pub fn is_fused(&self) -> bool {
        matches!(
            self,
            OpKind::FusedConvRelu { .. }
                | OpKind::FusedConvBackward { .. }
                | OpKind::CopyScaled { .. }
        )
    }

    /// Short stable name for dumps and fingerprints.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Input { .. } => "input",
            OpKind::Fill { .. } => "fill",
            OpKind::Conv2d { .. } => "conv2d",
            OpKind::Conv2dBackwardInput { .. } => "conv2d_bwd_input",
            OpKind::Conv2dBackwardWeight { .. } => "conv2d_bwd_weight",
            OpKind::PerSampleGradW { .. } => "per_sample_grad_w",
            OpKind::ClassifierRows { .. } => "classifier_rows",
            OpKind::AvgPool2d { .. } => "avg_pool2d",
            OpKind::AvgPool2dBackward { .. } => "avg_pool2d_bwd",
            OpKind::Relu => "relu",
            OpKind::ReluMask => "relu_mask",
            OpKind::Axpy { .. } => "axpy",
            OpKind::CopyScaled { .. } => "copy_scaled",
            OpKind::GlobalAvgPool => "global_avg_pool",
            OpKind::SpreadPlanes => "spread_planes",
            OpKind::GemmNn { .. } => "gemm_nn",
            OpKind::GemmNt { .. } => "gemm_nt",
            OpKind::GemmTn { .. } => "gemm_tn",
            OpKind::GramNtF64 { .. } => "gram_nt_f64",
            OpKind::FusedConvRelu { .. } => "fused_conv_relu",
            OpKind::FusedConvBackward { .. } => "fused_conv_bwd",
        }
    }

    fn fingerprint_params(&self) -> Vec<u64> {
        match *self {
            OpKind::Input { slot } => vec![slot as u64],
            OpKind::Fill { value } => vec![value.to_bits() as u64],
            OpKind::Conv2d { spec }
            | OpKind::Conv2dBackwardInput { spec }
            | OpKind::FusedConvRelu { spec } => spec_params(spec),
            OpKind::Conv2dBackwardWeight { spec, c_out } => {
                let mut p = spec_params(spec);
                p.push(c_out as u64);
                p
            }
            OpKind::PerSampleGradW {
                spec,
                c_out,
                row_stride,
                offset,
            }
            | OpKind::FusedConvBackward {
                spec,
                c_out,
                row_stride,
                offset,
            } => {
                let mut p = spec_params(spec);
                p.extend([c_out as u64, row_stride as u64, offset as u64]);
                p
            }
            OpKind::ClassifierRows {
                num_classes,
                channels,
                row_stride,
                offset,
            } => vec![
                num_classes as u64,
                channels as u64,
                row_stride as u64,
                offset as u64,
            ],
            OpKind::AvgPool2d {
                kernel,
                stride,
                padding,
            }
            | OpKind::AvgPool2dBackward {
                kernel,
                stride,
                padding,
            } => vec![kernel as u64, stride as u64, padding as u64],
            OpKind::Relu | OpKind::ReluMask | OpKind::GlobalAvgPool | OpKind::SpreadPlanes => {
                vec![]
            }
            OpKind::Axpy { alpha } | OpKind::CopyScaled { alpha } => {
                vec![alpha.to_bits() as u64]
            }
            OpKind::GemmNn { m, k, n }
            | OpKind::GemmNt { m, k, n }
            | OpKind::GemmTn { m, k, n } => {
                vec![m as u64, k as u64, n as u64]
            }
            OpKind::GramNtF64 { n, p } => vec![n as u64, p as u64],
        }
    }
}

fn spec_params(spec: Conv2dSpec) -> Vec<u64> {
    vec![spec.kernel as u64, spec.stride as u64, spec.padding as u64]
}

/// One operation over SSA values.
#[derive(Debug, Clone)]
pub struct Node {
    pub(crate) op: OpKind,
    pub(crate) inputs: Vec<ValueId>,
    pub(crate) outputs: Vec<ValueId>,
}

impl Node {
    /// The node's operation.
    pub fn op(&self) -> &OpKind {
        &self.op
    }

    /// The node's input values, in operand order.
    pub fn inputs(&self) -> &[ValueId] {
        &self.inputs
    }

    /// The node's output values.
    pub fn outputs(&self) -> &[ValueId] {
        &self.outputs
    }
}

/// A topologically ordered kernel graph with named inputs and outputs.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) values: Vec<ValueMeta>,
    pub(crate) inputs: Vec<(String, ValueId)>,
    pub(crate) outputs: Vec<(String, ValueId)>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The nodes in execution order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of SSA values (including superseded in-place versions).
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// The named graph inputs in binding order.
    pub fn input_bindings(&self) -> &[(String, ValueId)] {
        &self.inputs
    }

    /// The named graph outputs in declaration order.
    pub fn output_bindings(&self) -> &[(String, ValueId)] {
        &self.outputs
    }

    /// A value's static shape.
    pub fn value_shape(&self, v: ValueId) -> &Shape {
        &self.values[v.index()].shape
    }

    /// A value's element kind.
    pub fn value_kind(&self, v: ValueId) -> ValueKind {
        self.values[v.index()].kind
    }

    pub(crate) fn new_value(&mut self, shape: Shape, kind: ValueKind) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(ValueMeta { shape, kind });
        id
    }

    fn push(&mut self, op: OpKind, inputs: Vec<ValueId>, out_shape: Shape) -> ValueId {
        let out = self.new_value(out_shape, ValueKind::F32);
        self.nodes.push(Node {
            op,
            inputs,
            outputs: vec![out],
        });
        out
    }

    /// Declares a named graph input of the given shape, bound at run time
    /// from the next caller slot.
    pub fn input(&mut self, name: &str, shape: Shape) -> ValueId {
        let slot = self.inputs.len();
        let v = self.push(OpKind::Input { slot }, vec![], shape);
        self.inputs.push((name.to_string(), v));
        v
    }

    /// Marks `value` as a named graph output.
    pub fn mark_output(&mut self, name: &str, value: ValueId) {
        self.outputs.push((name.to_string(), value));
    }

    /// A tensor filled with `value`.
    pub fn fill(&mut self, value: f32, shape: Shape) -> ValueId {
        self.push(OpKind::Fill { value }, vec![], shape)
    }

    /// Forward convolution `conv(x, w)`.
    pub fn conv2d(&mut self, x: ValueId, w: ValueId, spec: Conv2dSpec) -> ValueId {
        let xd = self.value_shape(x).dims().to_vec();
        let c_out = self.value_shape(w).dims()[0];
        let (oh, ow) = spec.output_hw(xd[2], xd[3]);
        self.push(
            OpKind::Conv2d { spec },
            vec![x, w],
            Shape::nchw(xd[0], c_out, oh, ow),
        )
    }

    /// Input gradient of a convolution; `input_shape` is the shape of the
    /// forward input the gradient flows back to.
    pub fn conv2d_backward_input(
        &mut self,
        w: ValueId,
        grad_out: ValueId,
        input_shape: Shape,
        spec: Conv2dSpec,
    ) -> ValueId {
        self.push(
            OpKind::Conv2dBackwardInput { spec },
            vec![w, grad_out],
            input_shape,
        )
    }

    /// Batch-summed weight gradient of a convolution.
    pub fn conv2d_backward_weight(
        &mut self,
        x: ValueId,
        grad_out: ValueId,
        c_out: usize,
        spec: Conv2dSpec,
    ) -> ValueId {
        let c_in = self.value_shape(x).dims()[1];
        self.push(
            OpKind::Conv2dBackwardWeight { spec, c_out },
            vec![x, grad_out],
            Shape::nchw(c_out, c_in, spec.kernel, spec.kernel),
        )
    }

    /// Per-sample weight gradients written in place into `matrix`; returns
    /// the new matrix version.
    #[allow(clippy::too_many_arguments)]
    pub fn per_sample_grad_w(
        &mut self,
        x: ValueId,
        grad_out: ValueId,
        matrix: ValueId,
        c_out: usize,
        spec: Conv2dSpec,
        row_stride: usize,
        offset: usize,
    ) -> ValueId {
        let shape = self.value_shape(matrix).clone();
        self.push(
            OpKind::PerSampleGradW {
                spec,
                c_out,
                row_stride,
                offset,
            },
            vec![x, grad_out, matrix],
            shape,
        )
    }

    /// Classifier per-sample gradient rows written in place into `matrix`;
    /// returns the new matrix version.
    pub fn classifier_rows(
        &mut self,
        features: ValueId,
        matrix: ValueId,
        num_classes: usize,
        channels: usize,
        row_stride: usize,
        offset: usize,
    ) -> ValueId {
        let shape = self.value_shape(matrix).clone();
        self.push(
            OpKind::ClassifierRows {
                num_classes,
                channels,
                row_stride,
                offset,
            },
            vec![features, matrix],
            shape,
        )
    }

    /// Average pooling.
    pub fn avg_pool2d(
        &mut self,
        x: ValueId,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> ValueId {
        let xd = self.value_shape(x).dims().to_vec();
        let spec = Conv2dSpec::new(kernel, stride, padding);
        let (oh, ow) = spec.output_hw(xd[2], xd[3]);
        self.push(
            OpKind::AvgPool2d {
                kernel,
                stride,
                padding,
            },
            vec![x],
            Shape::nchw(xd[0], xd[1], oh, ow),
        )
    }

    /// Backward of average pooling into `input_shape`.
    pub fn avg_pool2d_backward(
        &mut self,
        grad_out: ValueId,
        input_shape: Shape,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> ValueId {
        self.push(
            OpKind::AvgPool2dBackward {
                kernel,
                stride,
                padding,
            },
            vec![grad_out],
            input_shape,
        )
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, x: ValueId) -> ValueId {
        let shape = self.value_shape(x).clone();
        self.push(OpKind::Relu, vec![x], shape)
    }

    /// In-place ReLU backward mask: zeroes `g` where `pre <= 0`.
    pub fn relu_mask(&mut self, g: ValueId, pre: ValueId) -> ValueId {
        let shape = self.value_shape(g).clone();
        self.push(OpKind::ReluMask, vec![g, pre], shape)
    }

    /// In-place accumulation `acc += alpha * x`; returns the new version.
    pub fn axpy(&mut self, acc: ValueId, x: ValueId, alpha: f32) -> ValueId {
        let shape = self.value_shape(acc).clone();
        self.push(OpKind::Axpy { alpha }, vec![acc, x], shape)
    }

    /// `alpha * x` into a fresh buffer (fusing-compiler op).
    pub fn copy_scaled(&mut self, x: ValueId, alpha: f32) -> ValueId {
        let shape = self.value_shape(x).clone();
        self.push(OpKind::CopyScaled { alpha }, vec![x], shape)
    }

    /// Spatial global average pooling to `[n, c]`.
    pub fn global_avg_pool(&mut self, x: ValueId) -> ValueId {
        let xd = self.value_shape(x).dims().to_vec();
        self.push(OpKind::GlobalAvgPool, vec![x], Shape::d2(xd[0], xd[1]))
    }

    /// Spreads `[n, c]` feature gradients uniformly over `out_shape` planes.
    pub fn spread_planes(&mut self, grad_features: ValueId, out_shape: Shape) -> ValueId {
        self.push(OpKind::SpreadPlanes, vec![grad_features], out_shape)
    }

    /// `c = a·b`.
    pub fn gemm_nn(&mut self, a: ValueId, b: ValueId, m: usize, k: usize, n: usize) -> ValueId {
        self.push(OpKind::GemmNn { m, k, n }, vec![a, b], Shape::d2(m, n))
    }

    /// `c = a·bᵀ`.
    pub fn gemm_nt(&mut self, a: ValueId, b: ValueId, m: usize, k: usize, n: usize) -> ValueId {
        self.push(OpKind::GemmNt { m, k, n }, vec![a, b], Shape::d2(m, n))
    }

    /// `c = aᵀ·b`.
    pub fn gemm_tn(&mut self, a: ValueId, b: ValueId, m: usize, k: usize, n: usize) -> ValueId {
        self.push(OpKind::GemmTn { m, k, n }, vec![a, b], Shape::d2(m, n))
    }

    /// The NTK Gram `G = j·jᵀ` with `f64` accumulation.
    pub fn gram_nt_f64(&mut self, j: ValueId, n: usize, p: usize) -> ValueId {
        let out = self.new_value(Shape::d2(n, n), ValueKind::F64);
        self.nodes.push(Node {
            op: OpKind::GramNtF64 { n, p },
            inputs: vec![j],
            outputs: vec![out],
        });
        out
    }

    /// Forward conv with fused ReLU epilogue (fusing-compiler op).
    pub fn fused_conv_relu(&mut self, pre: ValueId, w: ValueId, spec: Conv2dSpec) -> ValueId {
        let xd = self.value_shape(pre).dims().to_vec();
        let c_out = self.value_shape(w).dims()[0];
        let (oh, ow) = spec.output_hw(xd[2], xd[3]);
        self.push(
            OpKind::FusedConvRelu { spec },
            vec![pre, w],
            Shape::nchw(xd[0], c_out, oh, ow),
        )
    }

    /// Fused backward weight+input pair (fusing-compiler op); returns
    /// `(matrix', grad_in_masked)`.
    #[allow(clippy::too_many_arguments)]
    pub fn fused_conv_backward(
        &mut self,
        pre: ValueId,
        grad_out: ValueId,
        w: ValueId,
        matrix: ValueId,
        c_out: usize,
        spec: Conv2dSpec,
        row_stride: usize,
        offset: usize,
    ) -> (ValueId, ValueId) {
        let matrix_shape = self.value_shape(matrix).clone();
        let grad_shape = self.value_shape(pre).clone();
        let matrix_out = self.new_value(matrix_shape, ValueKind::F32);
        let grad_out_v = self.new_value(grad_shape, ValueKind::F32);
        self.nodes.push(Node {
            op: OpKind::FusedConvBackward {
                spec,
                c_out,
                row_stride,
                offset,
            },
            inputs: vec![pre, grad_out, w, matrix],
            outputs: vec![matrix_out, grad_out_v],
        });
        (matrix_out, grad_out_v)
    }

    /// Number of fused-dispatch nodes (the fusing compiler's headline ops).
    pub fn fused_dispatch_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| {
                matches!(
                    n.op,
                    OpKind::FusedConvRelu { .. } | OpKind::FusedConvBackward { .. }
                )
            })
            .count()
    }

    /// Structural fingerprint over ops, parameters, operand wiring, shapes
    /// and output bindings — stable across processes.
    pub fn fingerprint(&self) -> u64 {
        let mut h = hash_mix(0x6772_6170_685f_6972, self.nodes.len() as u64);
        for node in &self.nodes {
            for b in node.op.name().bytes() {
                h = hash_mix(h, b as u64);
            }
            for p in node.op.fingerprint_params() {
                h = hash_mix(h, p);
            }
            for v in &node.inputs {
                h = hash_mix(h, v.0 as u64);
            }
            for v in &node.outputs {
                h = hash_mix(h, v.0 as u64);
                for &d in self.value_shape(*v).dims() {
                    h = hash_mix(h, d as u64);
                }
            }
        }
        for (name, v) in &self.outputs {
            for b in name.bytes() {
                h = hash_mix(h, b as u64);
            }
            h = hash_mix(h, v.0 as u64);
        }
        h
    }

    /// Verifies SSA well-formedness: every value is defined before use,
    /// defined exactly once, in-place-consumed versions are never read
    /// after consumption, and every graph output is produced.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut def: Vec<Option<usize>> = vec![None; self.values.len()];
        let mut consumed_at: Vec<Option<usize>> = vec![None; self.values.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for v in &node.inputs {
                match def[v.index()] {
                    None => {
                        return Err(format!(
                            "node {i} ({}) reads undefined value {v:?}",
                            node.op.name()
                        ))
                    }
                    Some(d) if d >= i => {
                        return Err(format!(
                            "node {i} reads value {v:?} defined later (node {d})"
                        ))
                    }
                    _ => {}
                }
                if let Some(c) = consumed_at[v.index()] {
                    return Err(format!(
                        "node {i} ({}) reads value {v:?} already consumed in place by node {c}",
                        node.op.name()
                    ));
                }
            }
            if let Some(ci) = node.op.consumed_input() {
                let v = node.inputs[ci];
                consumed_at[v.index()] = Some(i);
            }
            for v in &node.outputs {
                if def[v.index()].is_some() {
                    return Err(format!("value {v:?} defined twice (again at node {i})"));
                }
                def[v.index()] = Some(i);
            }
        }
        for (name, v) in &self.outputs {
            if def[v.index()].is_none() {
                return Err(format!("graph output {name:?} ({v:?}) is never produced"));
            }
            if let Some(c) = consumed_at[v.index()] {
                return Err(format!(
                    "graph output {name:?} ({v:?}) is consumed in place by node {c}"
                ));
            }
        }
        Ok(())
    }

    /// Renders the graph in Graphviz DOT format: one box per node labelled
    /// with its op and result shape, edges following value flow, graph
    /// inputs/outputs as ovals.
    pub fn to_dot(&self, title: &str) -> String {
        let mut producer: Vec<Option<usize>> = vec![None; self.values.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for v in &node.outputs {
                producer[v.index()] = Some(i);
            }
        }
        let mut dot = String::new();
        let _ = writeln!(dot, "digraph {{");
        let _ = writeln!(dot, "  label=\"{title}\"; labelloc=t;");
        let _ = writeln!(dot, "  node [shape=box, fontsize=10];");
        for (i, node) in self.nodes.iter().enumerate() {
            let shape = self
                .value_shape(node.outputs[0])
                .dims()
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("x");
            let style = if node.op.is_fused() {
                ", style=filled, fillcolor=lightgoldenrod"
            } else if matches!(node.op, OpKind::Input { .. }) {
                ", shape=oval"
            } else {
                ""
            };
            let _ = writeln!(
                dot,
                "  n{i} [label=\"{}\\n[{shape}]\"{style}];",
                node.op.name()
            );
            for v in &node.inputs {
                if let Some(p) = producer[v.index()] {
                    let _ = writeln!(dot, "  n{p} -> n{i};");
                }
            }
        }
        for (idx, (name, v)) in self.outputs.iter().enumerate() {
            let _ = writeln!(dot, "  out{idx} [label=\"{name}\", shape=oval];");
            if let Some(p) = producer[v.index()] {
                let _ = writeln!(dot, "  n{p} -> out{idx};");
            }
        }
        let _ = writeln!(dot, "}}");
        dot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_catches_use_after_consume() {
        let mut g = Graph::new();
        let a = g.input("a", Shape::d2(2, 2));
        let b = g.input("b", Shape::d2(2, 2));
        let acc = g.fill(0.0, Shape::d2(2, 2));
        let acc2 = g.axpy(acc, a, 1.0);
        g.mark_output("out", acc2);
        assert!(g.validate().is_ok());
        // Reading the consumed first version is a violation.
        let bad = g.axpy(acc, b, 1.0);
        g.mark_output("bad", bad);
        let err = g.validate().unwrap_err();
        assert!(err.contains("consumed"), "{err}");
    }

    #[test]
    fn fingerprint_is_stable_and_structure_sensitive() {
        let build = |alpha: f32| {
            let mut g = Graph::new();
            let a = g.input("a", Shape::d2(2, 3));
            let acc = g.fill(0.0, Shape::d2(2, 3));
            let out = g.axpy(acc, a, alpha);
            g.mark_output("out", out);
            g
        };
        assert_eq!(build(1.0).fingerprint(), build(1.0).fingerprint());
        assert_ne!(build(1.0).fingerprint(), build(2.0).fingerprint());
    }

    #[test]
    fn dot_dump_names_every_node() {
        let mut g = Graph::new();
        let x = g.input("x", Shape::nchw(1, 2, 4, 4));
        let w = g.input("w", Shape::nchw(3, 2, 3, 3));
        let y = g.conv2d(x, w, Conv2dSpec::new(3, 1, 1));
        let r = g.relu(y);
        g.mark_output("y", r);
        let dot = g.to_dot("tiny");
        assert!(dot.contains("conv2d"));
        assert!(dot.contains("relu"));
        assert!(dot.contains("digraph"));
        assert!(dot.contains("label=\"tiny\""));
    }
}
