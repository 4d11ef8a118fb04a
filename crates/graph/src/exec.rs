//! The graph executor: runs a validated [`Graph`] node by node against a
//! [`KernelBackend`].
//!
//! Both shipped compilers lower to this executor — the interpreter runs the
//! graph exactly as lowered (replaying the eager kernel sequence), the
//! fusing compiler runs the graph after its rewrite passes (which introduce
//! the fused ops). The backend is supplied at *run* time, so one compiled
//! plan serves every backend.

use crate::compiler::GraphError;
use crate::ir::{Graph, OpKind, ValueId};
use micronas_tensor::{fused, global_avg_pool, KernelBackend, Tensor, Workspace};

/// One named output of a plan run.
#[derive(Debug)]
pub enum RunOutput {
    /// A dense `f32` tensor.
    Tensor(Tensor),
    /// A flat `f64` buffer (the Gram accumulator).
    F64(Vec<f64>),
}

/// The named outputs of one plan run, in the graph's declaration order.
#[derive(Debug, Default)]
pub struct RunOutputs {
    named: Vec<(String, RunOutput)>,
}

impl RunOutputs {
    /// Borrows the tensor output called `name`, if present.
    pub fn tensor(&self, name: &str) -> Option<&Tensor> {
        self.named.iter().find_map(|(n, o)| match o {
            RunOutput::Tensor(t) if n == name => Some(t),
            _ => None,
        })
    }

    /// Removes and returns the tensor output called `name`, if present.
    pub fn take_tensor(&mut self, name: &str) -> Option<Tensor> {
        let idx = self
            .named
            .iter()
            .position(|(n, o)| n == name && matches!(o, RunOutput::Tensor(_)))?;
        match self.named.remove(idx).1 {
            RunOutput::Tensor(t) => Some(t),
            RunOutput::F64(_) => unreachable!(),
        }
    }

    /// Removes and returns the `f64` output called `name`, if present.
    pub fn take_f64(&mut self, name: &str) -> Option<Vec<f64>> {
        let idx = self
            .named
            .iter()
            .position(|(n, o)| n == name && matches!(o, RunOutput::F64(_)))?;
        match self.named.remove(idx).1 {
            RunOutput::F64(v) => Some(v),
            RunOutput::Tensor(_) => unreachable!(),
        }
    }

    /// All named outputs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RunOutput)> {
        self.named.iter().map(|(n, o)| (n.as_str(), o))
    }
}

/// Runtime storage for one SSA value.
enum Slot<'a> {
    Empty,
    Input(&'a Tensor),
    Owned(Tensor),
    F64(Vec<f64>),
}

impl Slot<'_> {
    fn tensor(&self) -> Result<&Tensor, GraphError> {
        match self {
            Slot::Input(t) => Ok(t),
            Slot::Owned(t) => Ok(t),
            _ => Err(GraphError::Invalid(
                "executor read a value slot that holds no tensor".into(),
            )),
        }
    }
}

/// A compiled plan: the (possibly rewritten) graph plus precomputed
/// liveness, executed node by node.
#[derive(Debug)]
pub(crate) struct Executor {
    graph: Graph,
    /// Per value: index of the last node that reads it (`usize::MAX` for
    /// graph outputs, which must survive the whole run).
    last_use: Vec<usize>,
    fused_dispatches: u64,
}

impl Executor {
    pub(crate) fn new(graph: Graph) -> Result<Self, GraphError> {
        graph.validate().map_err(GraphError::Invalid)?;
        let mut last_use = vec![0usize; graph.num_values()];
        for (i, node) in graph.nodes().iter().enumerate() {
            for v in node.inputs() {
                last_use[v.index()] = i;
            }
        }
        for (_, v) in graph.output_bindings() {
            last_use[v.index()] = usize::MAX;
        }
        let fused_dispatches = graph.fused_dispatch_count() as u64;
        Ok(Self {
            graph,
            last_use,
            fused_dispatches,
        })
    }

    pub(crate) fn graph(&self) -> &Graph {
        &self.graph
    }

    pub(crate) fn fused_dispatches(&self) -> u64 {
        self.fused_dispatches
    }

    pub(crate) fn run(
        &self,
        backend: &dyn KernelBackend,
        inputs: &[&Tensor],
        ws: &mut Workspace,
    ) -> Result<RunOutputs, GraphError> {
        let _span = micronas_telemetry::span!("graph.exec");
        if self.fused_dispatches > 0 {
            micronas_telemetry::counter_add("graph.fused_dispatches", self.fused_dispatches);
        }
        let expected = self.graph.input_bindings().len();
        if inputs.len() != expected {
            return Err(GraphError::InputArity {
                expected,
                got: inputs.len(),
            });
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(self.graph.num_values());
        slots.resize_with(self.graph.num_values(), || Slot::Empty);

        for (i, node) in self.graph.nodes().iter().enumerate() {
            self.step(backend, inputs, ws, &mut slots, i, node.inputs(), node.op())?;
            // Return buffers whose last reader has now run to the pool —
            // the same recycling discipline the eager path follows.
            for v in node.inputs() {
                if self.last_use[v.index()] == i {
                    if let Slot::Owned(t) = std::mem::replace(&mut slots[v.index()], Slot::Empty) {
                        ws.recycle(t.into_vec());
                    }
                }
            }
        }

        let bindings = self.graph.output_bindings();
        let mut named = Vec::with_capacity(bindings.len());
        for (i, (name, v)) in bindings.iter().enumerate() {
            // The same value may be bound under several output names (e.g.
            // one node feeding two conv edges is collected once per edge);
            // move it out only at its final binding and clone before that.
            let moves_out = !bindings[i + 1..].iter().any(|(_, v2)| v2 == v);
            let out = if moves_out {
                match std::mem::replace(&mut slots[v.index()], Slot::Empty) {
                    Slot::Owned(t) => RunOutput::Tensor(t),
                    Slot::Input(t) => RunOutput::Tensor(t.clone()),
                    Slot::F64(b) => RunOutput::F64(b),
                    Slot::Empty => {
                        return Err(GraphError::MissingOutput(name.clone()));
                    }
                }
            } else {
                match &slots[v.index()] {
                    Slot::Owned(t) => RunOutput::Tensor(t.clone()),
                    Slot::Input(t) => RunOutput::Tensor((*t).clone()),
                    Slot::F64(b) => RunOutput::F64(b.clone()),
                    Slot::Empty => {
                        return Err(GraphError::MissingOutput(name.clone()));
                    }
                }
            };
            named.push((name.clone(), out));
        }
        Ok(RunOutputs { named })
    }

    #[allow(clippy::too_many_arguments)]
    fn step<'a>(
        &self,
        backend: &dyn KernelBackend,
        inputs: &[&'a Tensor],
        ws: &mut Workspace,
        slots: &mut Vec<Slot<'a>>,
        node_idx: usize,
        ins: &[ValueId],
        op: &OpKind,
    ) -> Result<(), GraphError> {
        let node = &self.graph.nodes()[node_idx];
        let out0 = node.outputs()[0];
        let out_shape = self.graph.value_shape(out0).clone();
        match *op {
            OpKind::Input { slot } => {
                let t = inputs[slot];
                if t.shape().dims() != out_shape.dims() {
                    return Err(GraphError::InputShape {
                        slot,
                        expected: out_shape.dims().to_vec(),
                        got: t.shape().dims().to_vec(),
                    });
                }
                slots[out0.index()] = Slot::Input(t);
            }
            OpKind::Fill { value } => {
                let numel = out_shape.numel();
                let buf = if value == 0.0 {
                    ws.take_zeroed(numel)
                } else {
                    let mut b = ws.take(numel);
                    b.fill(value);
                    b
                };
                slots[out0.index()] = Slot::Owned(Tensor::from_vec(out_shape, buf)?);
            }
            OpKind::Conv2d { spec } => {
                let x = slots[ins[0].index()].tensor()?;
                let w = slots[ins[1].index()].tensor()?;
                let y = backend.conv2d(x, w, spec, ws)?;
                slots[out0.index()] = Slot::Owned(y);
            }
            OpKind::Conv2dBackwardInput { spec } => {
                let w = slots[ins[0].index()].tensor()?;
                let g = slots[ins[1].index()].tensor()?;
                let y = backend.conv2d_backward_input(w, g, &out_shape, spec, ws)?;
                slots[out0.index()] = Slot::Owned(y);
            }
            OpKind::Conv2dBackwardWeight { spec, c_out } => {
                let x = slots[ins[0].index()].tensor()?;
                let g = slots[ins[1].index()].tensor()?;
                let y = backend.conv2d_backward_weight(x, g, c_out, spec, ws)?;
                slots[out0.index()] = Slot::Owned(y);
            }
            OpKind::PerSampleGradW {
                spec,
                c_out,
                row_stride,
                offset,
            } => {
                let mut matrix = take_owned(slots, ins[2])?;
                let x = slots[ins[0].index()].tensor()?;
                let g = slots[ins[1].index()].tensor()?;
                backend.conv2d_backward_weight_per_sample_into(
                    x,
                    g,
                    c_out,
                    spec,
                    ws,
                    matrix.data_mut(),
                    row_stride,
                    offset,
                )?;
                slots[out0.index()] = Slot::Owned(matrix);
            }
            OpKind::ClassifierRows {
                num_classes,
                channels,
                row_stride,
                offset,
            } => {
                let mut matrix = take_owned(slots, ins[1])?;
                let features = slots[ins[0].index()].tensor()?;
                let fd = features.data();
                let n = features.shape().dims()[0];
                let m = matrix.data_mut();
                for b in 0..n {
                    let start = b * row_stride + offset;
                    let row = &mut m[start..start + num_classes * channels];
                    for o in 0..num_classes {
                        for i in 0..channels {
                            row[o * channels + i] = fd[b * channels + i];
                        }
                    }
                }
                slots[out0.index()] = Slot::Owned(matrix);
            }
            OpKind::AvgPool2d {
                kernel,
                stride,
                padding,
            } => {
                let x = slots[ins[0].index()].tensor()?;
                let y = backend.avg_pool2d(x, kernel, stride, padding, ws)?;
                slots[out0.index()] = Slot::Owned(y);
            }
            OpKind::AvgPool2dBackward {
                kernel,
                stride,
                padding,
            } => {
                let g = slots[ins[0].index()].tensor()?;
                let y = backend.avg_pool2d_backward(g, &out_shape, kernel, stride, padding, ws)?;
                slots[out0.index()] = Slot::Owned(y);
            }
            OpKind::Relu => {
                let x = slots[ins[0].index()].tensor()?;
                let mut buf = ws.take(x.numel());
                for (dst, &v) in buf.iter_mut().zip(x.data()) {
                    *dst = if v > 0.0 { v } else { 0.0 };
                }
                slots[out0.index()] = Slot::Owned(Tensor::from_vec(out_shape, buf)?);
            }
            OpKind::ReluMask => {
                let mut g = take_owned(slots, ins[0])?;
                let pre = slots[ins[1].index()].tensor()?;
                for (gv, &x) in g.data_mut().iter_mut().zip(pre.data()) {
                    if x <= 0.0 {
                        *gv = 0.0;
                    }
                }
                slots[out0.index()] = Slot::Owned(g);
            }
            OpKind::Axpy { alpha } => {
                let mut acc = take_owned(slots, ins[0])?;
                let x = slots[ins[1].index()].tensor()?;
                acc.axpy(alpha, x)?;
                slots[out0.index()] = Slot::Owned(acc);
            }
            OpKind::CopyScaled { alpha } => {
                let x = slots[ins[0].index()].tensor()?;
                let mut buf = ws.take(x.numel());
                for (dst, &v) in buf.iter_mut().zip(x.data()) {
                    *dst = alpha * v;
                }
                slots[out0.index()] = Slot::Owned(Tensor::from_vec(out_shape, buf)?);
            }
            OpKind::GlobalAvgPool => {
                let x = slots[ins[0].index()].tensor()?;
                let y = global_avg_pool(x)?;
                slots[out0.index()] = Slot::Owned(y);
            }
            OpKind::SpreadPlanes => {
                let gf = slots[ins[0].index()].tensor()?;
                let hw = out_shape.dims()[2] * out_shape.dims()[3];
                let mut buf = ws.take(out_shape.numel());
                for (&g, plane) in gf.data().iter().zip(buf.chunks_exact_mut(hw)) {
                    plane.fill(g / hw as f32);
                }
                slots[out0.index()] = Slot::Owned(Tensor::from_vec(out_shape, buf)?);
            }
            OpKind::GemmNn { m, k, n } => {
                let a = slots[ins[0].index()].tensor()?;
                let b = slots[ins[1].index()].tensor()?;
                let mut c = ws.take_zeroed(m * n);
                backend.gemm_nn(m, k, n, a.data(), b.data(), &mut c, false);
                slots[out0.index()] = Slot::Owned(Tensor::from_vec(out_shape, c)?);
            }
            OpKind::GemmNt { m, k, n } => {
                let a = slots[ins[0].index()].tensor()?;
                let b = slots[ins[1].index()].tensor()?;
                let mut c = ws.take_zeroed(m * n);
                backend.gemm_nt(m, k, n, a.data(), b.data(), &mut c, false);
                slots[out0.index()] = Slot::Owned(Tensor::from_vec(out_shape, c)?);
            }
            OpKind::GemmTn { m, k, n } => {
                let a = slots[ins[0].index()].tensor()?;
                let b = slots[ins[1].index()].tensor()?;
                let mut c = ws.take_zeroed(m * n);
                backend.gemm_tn(m, k, n, a.data(), b.data(), &mut c, false);
                slots[out0.index()] = Slot::Owned(Tensor::from_vec(out_shape, c)?);
            }
            OpKind::GramNtF64 { n, p } => {
                let j = slots[ins[0].index()].tensor()?;
                let mut out = vec![0.0f64; n * n];
                backend.gram_nt_f64(n, p, j.data(), &mut out);
                slots[out0.index()] = Slot::F64(out);
            }
            OpKind::FusedConvRelu { spec } => {
                let pre = slots[ins[0].index()].tensor()?;
                let w = slots[ins[1].index()].tensor()?;
                let y = fused::conv2d_relu_gemm(pre, w, spec, ws)?;
                slots[out0.index()] = Slot::Owned(y);
            }
            OpKind::FusedConvBackward {
                spec,
                c_out,
                row_stride,
                offset,
            } => {
                let mut matrix = take_owned(slots, ins[3])?;
                let pre = slots[ins[0].index()].tensor()?;
                let g = slots[ins[1].index()].tensor()?;
                let w = slots[ins[2].index()].tensor()?;
                let grad_in = fused::conv2d_backward_fused(
                    pre,
                    g,
                    w,
                    c_out,
                    spec,
                    ws,
                    matrix.data_mut(),
                    row_stride,
                    offset,
                )?;
                slots[node.outputs()[0].index()] = Slot::Owned(matrix);
                slots[node.outputs()[1].index()] = Slot::Owned(grad_in);
            }
        }
        Ok(())
    }
}

/// Moves an in-place-consumed value out of its slot; it must be owned (the
/// lowering guarantees consumed values are never graph inputs).
fn take_owned<'a>(slots: &mut [Slot<'a>], v: ValueId) -> Result<Tensor, GraphError> {
    match std::mem::replace(&mut slots[v.index()], Slot::Empty) {
        Slot::Owned(t) => Ok(t),
        other => {
            slots[v.index()] = other;
            Err(GraphError::Invalid(
                "in-place op consumed a value that is not an owned tensor".into(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Graph;
    use micronas_tensor::{paper_default_backend, Conv2dSpec, Shape};

    fn run_graph(g: Graph, inputs: &[&Tensor]) -> RunOutputs {
        let exec = Executor::new(g).unwrap();
        let mut ws = Workspace::new();
        exec.run(paper_default_backend().as_ref(), inputs, &mut ws)
            .unwrap()
    }

    #[test]
    fn axpy_chain_matches_manual_accumulation() {
        let mut g = Graph::new();
        let a = g.input("a", Shape::d2(2, 2));
        let b = g.input("b", Shape::d2(2, 2));
        let acc = g.fill(0.0, Shape::d2(2, 2));
        let acc = g.axpy(acc, a, 1.0);
        let acc = g.axpy(acc, b, 2.0);
        g.mark_output("sum", acc);
        let ta = Tensor::from_vec(Shape::d2(2, 2), vec![1., 2., 3., 4.]).unwrap();
        let tb = Tensor::from_vec(Shape::d2(2, 2), vec![10., 20., 30., 40.]).unwrap();
        let out = run_graph(g, &[&ta, &tb]);
        assert_eq!(out.tensor("sum").unwrap().data(), &[21., 42., 63., 84.]);
    }

    #[test]
    fn conv_relu_graph_matches_direct_kernels() {
        let mut g = Graph::new();
        let x = g.input("x", Shape::nchw(1, 2, 5, 5));
        let w = g.input("w", Shape::nchw(3, 2, 3, 3));
        let spec = Conv2dSpec::new(3, 1, 1);
        let y = g.conv2d(x, w, spec);
        let r = g.relu(y);
        g.mark_output("y", r);

        let mut rng = micronas_tensor::DeterministicRng::new(7);
        let tx = Tensor::from_vec(
            Shape::nchw(1, 2, 5, 5),
            (0..50).map(|_| rng.next_f32() - 0.5).collect(),
        )
        .unwrap();
        let tw = Tensor::from_vec(
            Shape::nchw(3, 2, 3, 3),
            (0..54).map(|_| rng.next_f32() - 0.5).collect(),
        )
        .unwrap();
        let out = run_graph(g, &[&tx, &tw]);

        let mut ws = Workspace::new();
        let expect = paper_default_backend()
            .conv2d(&tx, &tw, spec, &mut ws)
            .unwrap();
        let expect: Vec<f32> = expect
            .data()
            .iter()
            .map(|&v| if v > 0.0 { v } else { 0.0 })
            .collect();
        assert_eq!(out.tensor("y").unwrap().data(), &expect[..]);
    }

    #[test]
    fn gram_graph_matches_backend_gram() {
        let (n, p) = (3usize, 5usize);
        let mut g = Graph::new();
        let j = g.input("j", Shape::d2(n, p));
        let gram = g.gram_nt_f64(j, n, p);
        g.mark_output("gram", gram);
        let mut rng = micronas_tensor::DeterministicRng::new(11);
        let tj = Tensor::from_vec(
            Shape::d2(n, p),
            (0..n * p).map(|_| rng.next_f32() - 0.5).collect(),
        )
        .unwrap();
        let mut out = run_graph(g, &[&tj]);
        let got = out.take_f64("gram").unwrap();
        let mut expect = vec![0.0f64; n * n];
        paper_default_backend().gram_nt_f64(n, p, tj.data(), &mut expect);
        assert_eq!(got, expect);
    }

    #[test]
    fn arity_and_shape_mismatches_are_reported() {
        let mut g = Graph::new();
        let x = g.input("x", Shape::d2(2, 2));
        g.mark_output("x", x);
        let exec = Executor::new(g).unwrap();
        let mut ws = Workspace::new();
        let err = exec
            .run(paper_default_backend().as_ref(), &[], &mut ws)
            .unwrap_err();
        assert!(err.to_string().contains("expected 1 input"), "{err}");
        let bad = Tensor::zeros(Shape::d2(3, 3));
        let err = exec
            .run(paper_default_backend().as_ref(), &[&bad], &mut ws)
            .unwrap_err();
        assert!(err.to_string().contains("slot 0"), "{err}");
    }
}
