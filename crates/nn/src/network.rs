//! The proxy cell network: stem → stacked searched cells → pooling → classifier.

use crate::signs::{or_sign_bits, set_sign_bits};
use crate::{
    ConvLayer, LinearLayer, NnError, ParameterGradients, PerSampleGradients, ProxyNetworkConfig,
    Result, SignPatterns,
};
use micronas_searchspace::{CellTopology, EdgeId, Operation, NUM_EDGES, NUM_NODES};
use micronas_tensor::{
    global_avg_pool, global_avg_pool_backward, hash_mix,
    ops::{relu, relu_backward},
    paper_default_backend, KernelBackend, PackedGradSlot, Shape, Tensor, Workspace,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Result of a forward pass through a [`CellNetwork`].
#[derive(Debug, Clone)]
pub struct ForwardOutput {
    /// Classifier logits, shape `[N, num_classes]`.
    pub logits: Tensor,
    /// Pre-ReLU node activations feeding each convolution edge, in
    /// (cell, edge) order. Their sign patterns define the linear region a
    /// sample falls into; callers that only need the signs should use
    /// [`CellNetworkPack::forward_signs_with`], which packs them into bits
    /// during the forward pass instead of copying every tensor out.
    pub pre_activations: Vec<Tensor>,
}

/// One stacked instance of the searched cell: a convolution layer for every
/// parameterised edge.
#[derive(Debug, Clone)]
struct CellInstance {
    edge_convs: Vec<Option<ConvLayer>>,
}

/// Intermediate tensors of a forward pass, retained for backpropagation.
#[derive(Debug, Clone)]
struct ForwardTrace {
    /// Output of the stem convolution (input to the first cell).
    stem_out: Tensor,
    /// Node values for every cell: `nodes[cell][node]`.
    nodes: Vec<Vec<Tensor>>,
    /// Input to the classifier (after global average pooling), `[N, C]`.
    /// The backward of `sum(logits)` needs no logits.
    features: Tensor,
}

/// A concrete, randomly initialised network built from one searched cell.
///
/// The macro structure mirrors NAS-Bench-201 at reduced scale: a 3×3 stem
/// convolution, `num_cells` stacked copies of the cell at constant channel
/// width, global average pooling and a linear classifier. See
/// [`ProxyNetworkConfig`] for the geometry knobs.
///
/// # Execution paths
///
/// The eager forward and the per-sample gradient sweep are those of a
/// [`CellNetworkPack`] of one network: a solo network runs the same code,
/// counting no packed dispatch. The looped formulation
/// ([`CellNetwork::per_sample_gradients_looped_with`]) is the independent
/// oracle both are tested against, and the summed backward
/// ([`CellNetwork::parameter_gradients`]) serves saliency proxies.
///
/// # Execution backends
///
/// Every kernel the network runs — convolution forward/backward, pooling,
/// the classifier GEMMs — dispatches through the network's
/// [`KernelBackend`] ([`CellNetwork::with_backend`]; the plain constructor
/// uses the shared paper-default backend, which is bitwise-identical to the
/// pre-backend pipeline). The *weights* never depend on the backend: only
/// execution arithmetic does. The looped oracle's reference forward trace
/// runs on the same backend but shares no code with the pack forward it
/// checks. The one exception, by design: the tiny `global_avg_pool`
/// reduction is shared by all backends.
#[derive(Debug, Clone)]
pub struct CellNetwork {
    cell: CellTopology,
    config: ProxyNetworkConfig,
    stem: ConvLayer,
    cells: Vec<CellInstance>,
    classifier: LinearLayer,
    backend: Arc<dyn KernelBackend>,
}

impl CellNetwork {
    /// Builds and randomly initialises the network for `cell` on the
    /// paper-default execution backend.
    ///
    /// The `seed` controls every weight tensor; two networks built with the
    /// same `(cell, config, seed)` triple are identical.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the configuration is invalid.
    pub fn new(cell: &CellTopology, config: &ProxyNetworkConfig, seed: u64) -> Result<Self> {
        Self::with_backend(cell, config, seed, paper_default_backend())
    }

    /// [`CellNetwork::new`] on an explicit execution backend. Weights are
    /// identical for every backend; only the kernel arithmetic differs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the configuration is invalid.
    pub fn with_backend(
        cell: &CellTopology,
        config: &ProxyNetworkConfig,
        seed: u64,
        backend: Arc<dyn KernelBackend>,
    ) -> Result<Self> {
        config.validate()?;
        let stem = ConvLayer::new(
            config.input_channels,
            config.channels,
            3,
            1,
            1,
            config.init,
            hash_mix(seed, STEM_SEED_STREAM),
        );
        let mut cells = Vec::with_capacity(config.num_cells);
        for cell_idx in 0..config.num_cells {
            let mut edge_convs = Vec::with_capacity(NUM_EDGES);
            for edge in 0..NUM_EDGES {
                let op = cell.edge_ops()[edge];
                let conv = match op {
                    Operation::NorConv1x1 => Some(ConvLayer::new(
                        config.channels,
                        config.channels,
                        1,
                        1,
                        0,
                        config.init,
                        hash_mix(seed, (cell_idx * NUM_EDGES + edge) as u64 + 1),
                    )),
                    Operation::NorConv3x3 => Some(ConvLayer::new(
                        config.channels,
                        config.channels,
                        3,
                        1,
                        1,
                        config.init,
                        hash_mix(seed, (cell_idx * NUM_EDGES + edge) as u64 + 1),
                    )),
                    _ => None,
                };
                edge_convs.push(conv);
            }
            cells.push(CellInstance { edge_convs });
        }
        let classifier = LinearLayer::new(
            config.channels,
            config.num_classes,
            config.init,
            hash_mix(seed, 0xC1A5_51F1),
        );
        Ok(Self {
            cell: *cell,
            config: *config,
            stem,
            cells,
            classifier,
            backend,
        })
    }

    /// The searched cell this network instantiates.
    pub fn cell(&self) -> &CellTopology {
        &self.cell
    }

    /// The execution backend this network dispatches its kernels through.
    pub fn backend(&self) -> &Arc<dyn KernelBackend> {
        &self.backend
    }

    /// The network configuration.
    pub fn config(&self) -> &ProxyNetworkConfig {
        &self.config
    }

    /// Total number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        let mut n = self.stem.num_parameters();
        for cell in &self.cells {
            for conv in cell.edge_convs.iter().flatten() {
                n += conv.num_parameters();
            }
        }
        n + self.classifier.num_parameters()
    }

    /// Every trainable parameter flattened into one vector, in the same
    /// canonical order the gradient paths use (stem, cells in order with
    /// conv edges in edge order, classifier) — so
    /// `flattened_parameters()[i]` pairs with `parameter_gradients()[i]`.
    /// Saliency-style proxies (e.g. SynFlow) consume this pairing.
    pub fn flattened_parameters(&self) -> Vec<f32> {
        let mut flat = Vec::with_capacity(self.num_parameters());
        flat.extend_from_slice(self.stem.weight().data());
        for cell in &self.cells {
            for conv in cell.edge_convs.iter().flatten() {
                flat.extend_from_slice(conv.weight().data());
            }
        }
        flat.extend_from_slice(self.classifier.weight().data());
        debug_assert_eq!(flat.len(), self.num_parameters());
        flat
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        let d = input.shape().dims();
        let r = self.config.input_resolution;
        if d.len() != 4 || d[1] != self.config.input_channels || d[2] != r || d[3] != r {
            return Err(NnError::InputMismatch {
                expected: [0, self.config.input_channels, r, r],
                actual: d.to_vec(),
            });
        }
        Ok(())
    }

    /// Runs the eager forward pass (a pack of one), retaining every node
    /// activation for the backward pass. All large intermediates come from
    /// the workspace recycling pool; pair with [`recycle_trace`] so
    /// steady-state evaluation performs no allocation.
    fn forward_trace(&self, input: &Tensor, workspace: &mut Workspace) -> Result<ForwardTrace> {
        let trace = forward_traces(std::slice::from_ref(self), input, workspace)?.pop();
        Ok(trace.expect("a pack of one has one trace"))
    }

    /// Runs the network on a batch of inputs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputMismatch`] if the input geometry does not
    /// match the configuration.
    pub fn forward(&self, input: &Tensor) -> Result<ForwardOutput> {
        self.forward_with(input, &mut Workspace::default())
    }

    /// [`CellNetwork::forward`] reusing an explicit scratch [`Workspace`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputMismatch`] if the input geometry does not
    /// match the configuration.
    pub fn forward_with(&self, input: &Tensor, workspace: &mut Workspace) -> Result<ForwardOutput> {
        match forward_members(
            std::slice::from_ref(self),
            input,
            workspace,
            PackSink::Tensors,
        )?
        .pop()
        {
            Some(MemberForward::Output(output)) => Ok(output),
            _ => unreachable!("the tensor sink returns one output per member"),
        }
    }

    /// Gradient of `sum(logits)` with respect to every parameter, for a batch.
    ///
    /// The returned vector follows the fixed parameter order (stem, cells in
    /// order with edges in canonical order, classifier), matching
    /// [`CellNetwork::num_parameters`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputMismatch`] for geometry mismatches.
    pub fn parameter_gradients(&self, input: &Tensor) -> Result<ParameterGradients> {
        self.parameter_gradients_with(input, &mut Workspace::default())
    }

    /// [`CellNetwork::parameter_gradients`] reusing an explicit scratch
    /// [`Workspace`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputMismatch`] for geometry mismatches.
    pub fn parameter_gradients_with(
        &self,
        input: &Tensor,
        workspace: &mut Workspace,
    ) -> Result<ParameterGradients> {
        let trace = self.forward_trace(input, workspace)?;
        let batch = input.shape().dims()[0];
        let grad_logits = Tensor::ones(Shape::d2(batch, self.config.num_classes));
        let grads = self.backward(input, &trace, &grad_logits, workspace)?;
        recycle_trace(trace, workspace);
        Ok(grads)
    }

    /// Per-sample gradients of `sum(logits)` for every sample in the batch.
    ///
    /// This is the quantity the NTK Gram matrix is built from:
    /// `G[i][j] = grads[i] · grads[j]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputMismatch`] for geometry mismatches.
    pub fn per_sample_gradients(&self, batch: &Tensor) -> Result<Vec<ParameterGradients>> {
        self.per_sample_gradients_with(batch, &mut Workspace::default())
    }

    /// [`CellNetwork::per_sample_gradients`] reusing an explicit scratch
    /// [`Workspace`]; computed by the batched formulation
    /// ([`CellNetwork::per_sample_gradient_matrix_with`]) and split into one
    /// vector per sample.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputMismatch`] for geometry mismatches.
    pub fn per_sample_gradients_with(
        &self,
        batch: &Tensor,
        workspace: &mut Workspace,
    ) -> Result<Vec<ParameterGradients>> {
        Ok(self
            .per_sample_gradient_matrix_with(batch, workspace)?
            .to_parameter_gradients())
    }

    /// Per-sample gradients of `sum(logits)` as one contiguous row-major
    /// `[n, P]` matrix, computed by the **batched** formulation: a single
    /// forward pass over the whole batch, then a single backward sweep in
    /// which every convolution edge emits all `n` per-sample weight
    /// gradients from one shared im2col lowering straight into the matrix.
    /// The eager path is the pack sweep
    /// ([`CellNetworkPack::per_sample_gradient_matrices_with`]) over a pack
    /// of one.
    ///
    /// Compared to the looped formulation
    /// ([`CellNetwork::per_sample_gradients_looped_with`]) this runs one
    /// trace instead of `n`, shares every node-gradient tensor across the
    /// batch, and leaves the per-sample gradients in the exact layout the
    /// NTK Gram GEMM (`G = J·Jᵀ`) consumes.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputMismatch`] for geometry mismatches.
    pub fn per_sample_gradient_matrix_with(
        &self,
        batch: &Tensor,
        workspace: &mut Workspace,
    ) -> Result<PerSampleGradients> {
        let matrix =
            per_sample_gradient_matrices(std::slice::from_ref(self), batch, workspace)?.pop();
        Ok(matrix.expect("a pack of one has one matrix"))
    }

    /// The looped reference implementation of per-sample gradients: one
    /// full forward/backward pass per sample, with the reference
    /// (allocation-per-tensor) forward trace and the summed backward. It
    /// shares no code with the pack forward or the per-sample sweep, which
    /// makes it the test oracle the batched formulation (solo and every
    /// pack member) is compared against bit for bit. Not used on any
    /// evaluation path.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputMismatch`] for geometry mismatches.
    pub fn per_sample_gradients_looped_with(
        &self,
        batch: &Tensor,
        workspace: &mut Workspace,
    ) -> Result<Vec<ParameterGradients>> {
        self.check_input(batch)?;
        let n = batch.shape().dims()[0];
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let sample = extract_sample(batch, i)?;
            let trace = self.forward_trace_reference(&sample, workspace)?;
            let grad_logits = Tensor::ones(Shape::d2(1, self.config.num_classes));
            out.push(self.backward(&sample, &trace, &grad_logits, workspace)?);
        }
        Ok(out)
    }

    /// The reference forward trace: no value numbering and no buffer
    /// recycling, one kernel call per edge on the network's backend.
    /// Produces values identical to [`CellNetwork::forward_trace`].
    fn forward_trace_reference(
        &self,
        input: &Tensor,
        workspace: &mut Workspace,
    ) -> Result<ForwardTrace> {
        self.check_input(input)?;
        let backend = &*self.backend;
        let stem_out = self.stem.forward(backend, input, workspace)?;
        let mut nodes_per_cell = Vec::with_capacity(self.cells.len());
        let mut x = stem_out.clone();
        for cell in &self.cells {
            let mut nodes: Vec<Tensor> = Vec::with_capacity(NUM_NODES);
            nodes.push(x.clone());
            for dst in 1..NUM_NODES {
                let mut acc = Tensor::zeros(x.shape().clone());
                for edge in EdgeId::all() {
                    let (src, d) = edge.endpoints();
                    if d != dst {
                        continue;
                    }
                    let op = self.cell.edge_ops()[edge.0];
                    let contribution = match op {
                        Operation::None => None,
                        Operation::SkipConnect => Some(nodes[src].clone()),
                        Operation::AvgPool3x3 => {
                            Some(backend.avg_pool2d(&nodes[src], 3, 1, 1, workspace)?)
                        }
                        Operation::NorConv1x1 | Operation::NorConv3x3 => {
                            let conv = cell.edge_convs[edge.0]
                                .as_ref()
                                .expect("conv edge always has a layer");
                            let activated = relu(&nodes[src]);
                            Some(conv.forward(backend, &activated, workspace)?)
                        }
                    };
                    if let Some(c) = contribution {
                        acc.axpy(1.0, &c).map_err(NnError::from)?;
                    }
                }
                nodes.push(acc);
            }
            x = nodes[NUM_NODES - 1].clone();
            nodes_per_cell.push(nodes);
        }
        Ok(ForwardTrace {
            stem_out,
            nodes: nodes_per_cell,
            features: global_avg_pool(&x)?,
        })
    }

    /// Parameter offset of each cell's conv edges in the canonical flattened
    /// order (stem, cells in order with edges in canonical order,
    /// classifier). Non-conv edges get `usize::MAX`. Returns the table and
    /// the classifier offset.
    fn edge_parameter_offsets(&self) -> (Vec<[usize; NUM_EDGES]>, usize) {
        let mut offset = self.stem.num_parameters();
        let mut table = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let mut row = [usize::MAX; NUM_EDGES];
            for (e, conv) in cell.edge_convs.iter().enumerate() {
                if let Some(conv) = conv {
                    row[e] = offset;
                    offset += conv.num_parameters();
                }
            }
            table.push(row);
        }
        (table, offset)
    }

    /// The summed backward of `sum(logits)` over the forward `trace` of
    /// `input`.
    fn backward(
        &self,
        input: &Tensor,
        trace: &ForwardTrace,
        grad_logits: &Tensor,
        workspace: &mut Workspace,
    ) -> Result<ParameterGradients> {
        let backend = &*self.backend;
        // Classifier.
        let (grad_cls_w, grad_features) =
            self.classifier
                .backward(backend, &trace.features, grad_logits)?;
        // Global average pooling.
        let last_x = trace
            .nodes
            .last()
            .map(|nodes| &nodes[NUM_NODES - 1])
            .unwrap_or(&trace.stem_out);
        let mut grad_x = global_avg_pool_backward(&grad_features, last_x.shape())?;

        // Cells in reverse order.
        let mut cell_weight_grads: Vec<Vec<Option<Tensor>>> = Vec::with_capacity(self.cells.len());
        for (cell_instance, nodes) in self.cells.iter().zip(trace.nodes.iter()).rev() {
            let mut node_grads: Vec<Tensor> = nodes
                .iter()
                .map(|n| Tensor::zeros(n.shape().clone()))
                .collect();
            node_grads[NUM_NODES - 1] = grad_x.clone();
            let mut weight_grads: Vec<Option<Tensor>> = vec![None; NUM_EDGES];

            for edge in EdgeId::all().iter().rev() {
                let (src, dst) = edge.endpoints();
                let upstream = node_grads[dst].clone();
                if upstream.l2_norm() == 0.0 {
                    continue;
                }
                match self.cell.edge_ops()[edge.0] {
                    Operation::None => {}
                    Operation::SkipConnect => {
                        node_grads[src]
                            .axpy(1.0, &upstream)
                            .map_err(NnError::from)?;
                    }
                    Operation::AvgPool3x3 => {
                        let g = backend.avg_pool2d_backward(
                            &upstream,
                            nodes[src].shape(),
                            3,
                            1,
                            1,
                            workspace,
                        )?;
                        node_grads[src].axpy(1.0, &g).map_err(NnError::from)?;
                    }
                    Operation::NorConv1x1 | Operation::NorConv3x3 => {
                        let conv = cell_instance.edge_convs[edge.0]
                            .as_ref()
                            .expect("conv edge always has a layer");
                        let activated = relu(&nodes[src]);
                        let (gw, g_act) =
                            conv.backward(backend, &activated, &upstream, workspace)?;
                        weight_grads[edge.0] = Some(gw);
                        let g_src = relu_backward(&nodes[src], &g_act);
                        node_grads[src].axpy(1.0, &g_src).map_err(NnError::from)?;
                    }
                }
            }
            grad_x = node_grads[0].clone();
            cell_weight_grads.push(weight_grads);
        }
        cell_weight_grads.reverse();

        // Stem.
        let (grad_stem_w, _) = self.stem.backward(backend, input, &grad_x, workspace)?;

        // Flatten in canonical parameter order.
        let mut flat = Vec::with_capacity(self.num_parameters());
        flat.extend_from_slice(grad_stem_w.data());
        for (cell_instance, weight_grads) in self.cells.iter().zip(cell_weight_grads.iter()) {
            for (conv, grad) in cell_instance.edge_convs.iter().zip(weight_grads.iter()) {
                if let Some(conv) = conv {
                    match grad {
                        Some(g) => flat.extend_from_slice(g.data()),
                        // A conv edge whose upstream gradient was all zero.
                        None => flat.extend(std::iter::repeat_n(0.0, conv.num_parameters())),
                    }
                }
            }
        }
        flat.extend_from_slice(grad_cls_w.data());
        debug_assert_eq!(flat.len(), self.num_parameters());
        Ok(ParameterGradients::new(flat))
    }
}

/// What the eager pack forward returns for each member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PackSink {
    /// A [`ForwardTrace`] (the gradient paths): no classifier forward,
    /// since the backward of `sum(logits)` needs no logits.
    Traces,
    /// Logits plus a float copy of each conv edge's pre-ReLU input
    /// ([`ForwardOutput`]).
    Tensors,
    /// The sign bits of each conv edge's pre-ReLU input ([`SignPatterns`]),
    /// and nothing else: no trace and no classifier.
    Signs,
}

/// One member's result of the eager pack forward under a [`PackSink`].
enum MemberForward {
    Trace(ForwardTrace),
    Output(ForwardOutput),
    Signs(SignPatterns),
}

/// What feeds a node: at index `src`, the operation and source value id of
/// the edge from node `src`, or `(None, 0)` where that edge is `None` or
/// does not exist. Within one cell, two members' nodes with equal keys hold
/// bitwise-equal values.
type NodeKey = [(Operation, usize); NUM_NODES - 1];

/// The key of node `dst` of `cell`, given the value ids of its nodes so far.
fn node_key(cell: &CellTopology, dst: usize, ids: &[usize; NUM_NODES]) -> NodeKey {
    let mut key = [(Operation::None, 0); NUM_NODES - 1];
    for edge in EdgeId::all() {
        let (src, d) = edge.endpoints();
        let op = cell.edge_ops()[edge.0];
        if d == dst && op != Operation::None {
            key[src] = (op, ids[src]);
        }
    }
    key
}

/// The distinct source value ids of `(value, source)` contributions, in
/// first-use order.
fn distinct_sources(contributions: &[(usize, usize)]) -> Vec<usize> {
    let mut sources: Vec<usize> = Vec::with_capacity(contributions.len());
    for &(_, id) in contributions {
        if !sources.contains(&id) {
            sources.push(id);
        }
    }
    sources
}

/// One entry of the pack forward's value table: a distinct node tensor,
/// shared by every member whose node has its key.
struct Value {
    /// The node tensor; `None` once recycled.
    node: Option<Tensor>,
    /// `relu(node)`, made the first time a conv edge reads the value and
    /// recycled at the end of its cell.
    activated: Option<Tensor>,
    /// The node's sign bits (sign sink only), made in the pass that makes
    /// `activated`.
    signs: Option<SignPatterns>,
}

impl Value {
    fn new(node: Tensor) -> Self {
        Self {
            node: Some(node),
            activated: None,
            signs: None,
        }
    }

    fn node(&self) -> &Tensor {
        self.node.as_ref().expect("a live value")
    }

    /// Makes `relu(node)` (plus its sign bits when `signs` is set) unless
    /// an earlier conv edge already did.
    fn activate(&mut self, signs: bool, workspace: &mut Workspace) {
        if self.activated.is_some() {
            return;
        }
        let _span = micronas_telemetry::span!("tensor.relu");
        let node = self.node();
        let (points, per_point) = split_batch(node);
        let mut buf = workspace.take(node.numel());
        let mut pattern = signs.then(|| SignPatterns::zeroed(points, per_point));
        let chunks = buf
            .chunks_exact_mut(per_point)
            .zip(node.data().chunks_exact(per_point));
        for (point, (out, values)) in chunks.enumerate() {
            relu_into(out, values);
            if let Some(pattern) = &mut pattern {
                set_sign_bits(pattern.row_mut(point), 0, values);
            }
        }
        self.activated =
            Some(Tensor::from_vec(node.shape().clone(), buf).expect("length matches shape"));
        self.signs = pattern;
    }

    /// Returns the value's buffers to the workspace.
    fn recycle(&mut self, workspace: &mut Workspace) {
        for t in [self.node.take(), self.activated.take()]
            .into_iter()
            .flatten()
        {
            workspace.recycle(t.into_vec());
        }
        self.signs = None;
    }
}

/// The pre-activations one pack member collects, in (cell, edge) order.
enum Collected {
    None,
    Tensors(Vec<Tensor>),
    /// Patterns plus the number of leading bits already written per point.
    Signs(SignPatterns, usize),
}

impl Collected {
    /// An empty collection for `net` under `sink`; every node tensor of the
    /// pass has the shape of `stem_out`.
    fn new(sink: PackSink, net: &CellNetwork, stem_out: &Tensor) -> Self {
        match sink {
            PackSink::Traces => Self::None,
            PackSink::Tensors => Self::Tensors(Vec::new()),
            PackSink::Signs => {
                let conv_edges: usize = net
                    .cells
                    .iter()
                    .map(|c| c.edge_convs.iter().flatten().count())
                    .sum();
                let (points, per_point) = split_batch(stem_out);
                Self::Signs(SignPatterns::zeroed(points, conv_edges * per_point), 0)
            }
        }
    }

    /// Collects `value`, the pre-ReLU input of the member's next conv edge
    /// (already activated under the sign sink).
    fn collect(&mut self, value: &Value) {
        match self {
            Self::None => {}
            Self::Tensors(tensors) => {
                note_pre_activation_copy(value.node());
                tensors.push(value.node().clone());
            }
            Self::Signs(signs, filled) => {
                let bits = value.signs.as_ref().expect("activated with its signs");
                for point in 0..bits.points() {
                    or_sign_bits(signs.row_mut(point), *filled, bits.row(point));
                }
                *filled += bits.bits_per_point();
            }
        }
    }
}

/// `(batch size, values per sample)` of an NCHW tensor.
fn split_batch(t: &Tensor) -> (usize, usize) {
    let dims = t.shape().dims();
    (dims[0], dims[1..].iter().product())
}

/// The eager forward of a pack of networks over one `(config, seed,
/// backend)` triple, in lockstep with exact value numbering: per member it
/// runs the same kernels in the same accumulation order as that member's
/// own pass (a pack of one *is* [`CellNetwork`]'s eager forward), but
/// computes every distinct value once for the whole pack:
///
/// * value 0 is the stem output, node 0 of cell 0 for every member;
/// * node 0 of each later cell is the value of the previous cell's last
///   node;
/// * a later node's value is fixed by its [`NodeKey`], so members whose
///   keys are equal share one value, computed once;
/// * per edge, each distinct source value is pooled, or ReLU-activated
///   and convolved, once, and the result is added to every new value it
///   feeds; same-kernel convs of the edge go through one packed dispatch.
///
/// Weights are position-keyed and the packed conv is bitwise solo, so
/// every shared value is bitwise what each member's own pass computes.
/// Returns one result per member, in pack order, of the kind `sink`
/// asks for.
fn forward_members(
    networks: &[CellNetwork],
    input: &Tensor,
    workspace: &mut Workspace,
    sink: PackSink,
) -> Result<Vec<MemberForward>> {
    let Some(first) = networks.first() else {
        return Ok(Vec::new());
    };
    let _pack_span = micronas_telemetry::span!("nn.pack_forward");
    first.check_input(input)?;
    let backend = &*first.backend;
    let pack = networks.len();
    let num_cells = first.cells.len();

    // One stem forward for the whole pack: stems are identical (same
    // seed, same stream) and see the identical input.
    let stem_out = {
        let _span = micronas_telemetry::span!("nn.stem_forward");
        first.stem.forward(backend, input, workspace)?
    };
    let node_shape = stem_out.shape().clone();
    let mut collected: Vec<Collected> = networks
        .iter()
        .map(|net| Collected::new(sink, net, &stem_out))
        .collect();
    let mut values = vec![Value::new(stem_out)];
    // `ids[p][cell][node]`: the value id of member `p`'s node.
    let mut ids: Vec<Vec<[usize; NUM_NODES]>> =
        (0..pack).map(|_| Vec::with_capacity(num_cells)).collect();
    let mut cell_inputs = vec![0usize; pack];

    for cell_idx in 0..num_cells {
        let mut cell_ids: Vec<[usize; NUM_NODES]> =
            cell_inputs.iter().map(|&x| [x; NUM_NODES]).collect();
        for dst in 1..NUM_NODES {
            // Number node `dst`: new value `base + v` is the one with
            // key `keys[v]`, first held by member `reps[v]`.
            let base = values.len();
            let mut keys: Vec<NodeKey> = Vec::new();
            let mut reps: Vec<usize> = Vec::new();
            for (p, net) in networks.iter().enumerate() {
                let key = node_key(&net.cell, dst, &cell_ids[p]);
                let v = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                    keys.push(key);
                    reps.push(p);
                    keys.len() - 1
                });
                cell_ids[p][dst] = base + v;
            }
            let mut accs: Vec<Tensor> = keys
                .iter()
                .map(|_| pooled_zeros(node_shape.clone(), workspace))
                .collect();
            for edge in EdgeId::all() {
                let (src, d) = edge.endpoints();
                if d != dst {
                    continue;
                }
                // Every member collects its conv edges' pre-activations
                // in (cell, edge) order, and counts towards its bucket's
                // fill.
                let mut bucket_members = [0usize; 2];
                for (p, net) in networks.iter().enumerate() {
                    let kernel = match net.cell.edge_ops()[edge.0] {
                        Operation::NorConv1x1 => 0,
                        Operation::NorConv3x3 => 1,
                        _ => continue,
                    };
                    bucket_members[kernel] += 1;
                    let value = &mut values[cell_ids[p][src]];
                    value.activate(sink == PackSink::Signs, workspace);
                    collected[p].collect(value);
                }
                // Each new value's contribution from this edge, as
                // `(value, source value id)`. A skip accumulates at
                // once; each value has one op per edge, so its order
                // across edges stays canonical.
                let mut pools: Vec<(usize, usize)> = Vec::new();
                let mut conv_buckets: [Vec<(usize, usize)>; 2] = [Vec::new(), Vec::new()];
                for (v, key) in keys.iter().enumerate() {
                    let (op, id) = key[src];
                    match op {
                        Operation::None => {}
                        Operation::SkipConnect => {
                            accs[v]
                                .axpy(1.0, values[id].node())
                                .map_err(NnError::from)?;
                        }
                        Operation::AvgPool3x3 => pools.push((v, id)),
                        Operation::NorConv1x1 => conv_buckets[0].push((v, id)),
                        Operation::NorConv3x3 => conv_buckets[1].push((v, id)),
                    }
                }
                for id in distinct_sources(&pools) {
                    let c = backend.avg_pool2d(values[id].node(), 3, 1, 1, workspace)?;
                    for &(v, _) in pools.iter().filter(|&&(_, s)| s == id) {
                        accs[v].axpy(1.0, &c).map_err(NnError::from)?;
                    }
                    workspace.recycle(c.into_vec());
                }
                for (bucket, members) in conv_buckets.iter().zip(bucket_members) {
                    let Some(&(lead, _)) = bucket.first() else {
                        continue;
                    };
                    let conv = networks[reps[lead]].cells[cell_idx].edge_convs[edge.0]
                        .as_ref()
                        .expect("conv edge always has a layer");
                    // Position-keyed seeding makes every bucket
                    // member's weight tensor identical to the lead's.
                    debug_assert!(bucket.iter().all(|&(v, _)| {
                        networks[reps[v]].cells[cell_idx].edge_convs[edge.0]
                            .as_ref()
                            .is_some_and(|c| c.weight() == conv.weight())
                    }));
                    let sources = distinct_sources(bucket);
                    let inputs: Vec<&Tensor> = sources
                        .iter()
                        .map(|&id| values[id].activated.as_ref().expect("activated above"))
                        .collect();
                    let outs = backend.conv2d_forward_packed(
                        &inputs,
                        conv.weight(),
                        conv.spec(),
                        workspace,
                    )?;
                    // A pack of one is solo evaluation (every solo eager
                    // forward runs this way): no packed dispatch.
                    if pack > 1 {
                        note_pack_forward_dispatch(members);
                        micronas_telemetry::counter_add(
                            "nn.pack_forward.shared_inputs",
                            (members - sources.len()) as u64,
                        );
                    }
                    for (&id, c) in sources.iter().zip(outs) {
                        for &(v, _) in bucket.iter().filter(|&&(_, s)| s == id) {
                            accs[v].axpy(1.0, &c).map_err(NnError::from)?;
                        }
                        workspace.recycle(c.into_vec());
                    }
                }
            }
            values.extend(accs.into_iter().map(Value::new));
        }
        // Only edges of its own cell read a value, and the last node
        // (the next cell's input) is read by none of them, so every
        // activation is dead now. Without traces, so is every node but
        // the next cell's inputs.
        cell_inputs = cell_ids.iter().map(|row| row[NUM_NODES - 1]).collect();
        for (id, value) in values.iter_mut().enumerate() {
            if sink != PackSink::Traces && !cell_inputs.contains(&id) {
                value.recycle(workspace);
            } else if let Some(t) = value.activated.take() {
                workspace.recycle(t.into_vec());
                value.signs = None;
            }
        }
        for (member_ids, row) in ids.iter_mut().zip(cell_ids) {
            member_ids.push(row);
        }
    }

    let mut out = Vec::with_capacity(pack);
    match sink {
        PackSink::Signs => {
            for c in collected {
                let Collected::Signs(signs, _) = c else {
                    unreachable!("the sign sink collects signs");
                };
                out.push(MemberForward::Signs(signs));
            }
        }
        PackSink::Tensors => {
            for ((net, &last), c) in networks.iter().zip(&cell_inputs).zip(collected) {
                let Collected::Tensors(pre_activations) = c else {
                    unreachable!("the tensor sink collects tensors");
                };
                let features = global_avg_pool(values[last].node())?;
                let logits = net.classifier.forward(backend, &features)?;
                out.push(MemberForward::Output(ForwardOutput {
                    logits,
                    pre_activations,
                }));
            }
        }
        PackSink::Traces => {
            // Each member's trace owns its nodes: the last reference to
            // a value takes its tensor, earlier ones copy it.
            let mut refs = vec![0usize; values.len()];
            for member_ids in &ids {
                refs[0] += 1;
                for &id in member_ids.iter().flatten() {
                    refs[id] += 1;
                }
            }
            let mut take = |id: usize, workspace: &mut Workspace| {
                refs[id] -= 1;
                if refs[id] == 0 {
                    values[id].node.take().expect("a live value")
                } else {
                    pooled_copy(values[id].node(), workspace)
                }
            };
            for member_ids in &ids {
                let stem_out = take(0, workspace);
                let nodes: Vec<Vec<Tensor>> = member_ids
                    .iter()
                    .map(|row| row.iter().map(|&id| take(id, workspace)).collect())
                    .collect();
                let last = nodes.last().map_or(&stem_out, |n| &n[NUM_NODES - 1]);
                let features = global_avg_pool(last)?;
                out.push(MemberForward::Trace(ForwardTrace {
                    stem_out,
                    nodes,
                    features,
                }));
            }
        }
    }
    for value in &mut values {
        value.recycle(workspace);
    }
    Ok(out)
}

/// [`forward_members`] under the trace sink.
fn forward_traces(
    networks: &[CellNetwork],
    input: &Tensor,
    workspace: &mut Workspace,
) -> Result<Vec<ForwardTrace>> {
    Ok(
        forward_members(networks, input, workspace, PackSink::Traces)?
            .into_iter()
            .map(|m| match m {
                MemberForward::Trace(trace) => trace,
                _ => unreachable!("the trace sink returns traces"),
            })
            .collect(),
    )
}

/// A pack of [`CellNetwork`]s over *different* cells that share one
/// `(config, seed, backend)` triple and execute their forward passes in
/// lockstep, so every convolution edge whose geometry coincides across
/// candidates runs as **one** packed GEMM dispatch
/// ([`micronas_tensor::KernelBackend::conv2d_forward_packed`]).
///
/// This is the network-level substrate of cross-candidate mega-batching:
/// the zero-cost proxies evaluate many candidate cells against the *same*
/// probe batch at the *same* seed, which makes four sharing opportunities
/// exact rather than approximate:
///
/// * **Weights coincide.** The seed streams are position-keyed
///   (`hash_mix(seed, cell_idx · NUM_EDGES + edge + 1)`), so every pack
///   member that places a convolution of the same kernel size on the same
///   edge holds a bitwise-identical weight tensor — one weight matrix
///   serves the whole bucket's packed GEMM.
/// * **The stem is shared computation.** All members have identical stems
///   and see the identical input, so the stem convolution — usually the
///   widest GEMM in a sparse cell — runs once per pack instead of once per
///   candidate.
/// * **Equal prefixes are computed once.** By the two points above, a
///   node's value depends only on the ops of the edges feeding it and on
///   the values of their sources. The forward numbers every node by that
///   key and keeps one table of distinct values, so a node that several
///   members compute alike (as in a pruning slate, where each member
///   changes one edge of a shared cell) is computed once. Each distinct
///   source value is ReLU-activated once, with its sign bits in the same
///   pass, and pooled or convolved once per edge; members receive the
///   result, and float copies are made only for gradient traces.
/// * **Same-geometry edges merge.** Per (cell, edge), the distinct inputs
///   of every same-kernel conv go through a single packed conv dispatch
///   that is bitwise-identical to per-candidate dispatch (the packed
///   kernel runs the inputs image by image on the solo GEMM path: an
///   implicit GEMM over each zero-padded image for stride-1 convs on the
///   register-tiled schedule, im2col + GEMM otherwise).
///
/// Backward passes merge too: [`CellNetworkPack::per_sample_gradient_matrices_with`]
/// runs one lockstep backward sweep over the whole pack, bucketing conv
/// edges exactly as the forward does and dispatching each bucket through
/// the packed backward seam
/// ([`micronas_tensor::KernelBackend::conv2d_backward_weight_per_sample_packed`]
/// and its input-gradient companion). The per-sample weight-gradient GEMMs
/// keep per-candidate operands, so the packed kernels *iterate* the exact
/// solo per-candidate schedule inside one call; what they amortise is the
/// im2col lowering of bitwise-identical probe activations (every member's
/// stem backward consumes the same input batch, lowered once per pack) and
/// kernel dispatch overhead, not the GEMM shapes. The backward does not
/// number values: gradients depend on everything downstream, so a member
/// listed twice is swept twice (the search resolves each slate to distinct
/// cells before it packs them). A solo [`CellNetwork`]'s eager forward and
/// gradient sweep are this pack's over a pack of one, so everything the
/// pack returns is **bitwise identical** to evaluating each member through
/// its own [`CellNetwork`] entry points.
#[derive(Debug, Clone)]
pub struct CellNetworkPack {
    networks: Vec<CellNetwork>,
}

impl CellNetworkPack {
    /// Builds one network per cell on the paper-default backend, all from
    /// the same `(config, seed)` — exactly the networks solo evaluation of
    /// each cell would build.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the configuration is invalid.
    pub fn new(cells: &[CellTopology], config: &ProxyNetworkConfig, seed: u64) -> Result<Self> {
        Self::with_backend(cells, config, seed, paper_default_backend())
    }

    /// [`CellNetworkPack::new`] on an explicit execution backend.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the configuration is invalid.
    pub fn with_backend(
        cells: &[CellTopology],
        config: &ProxyNetworkConfig,
        seed: u64,
        backend: Arc<dyn KernelBackend>,
    ) -> Result<Self> {
        let networks = cells
            .iter()
            .map(|cell| CellNetwork::with_backend(cell, config, seed, Arc::clone(&backend)))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { networks })
    }

    /// The pack members, in construction order.
    pub fn networks(&self) -> &[CellNetwork] {
        &self.networks
    }

    /// Number of pack members.
    pub fn len(&self) -> usize {
        self.networks.len()
    }

    /// Whether the pack is empty.
    pub fn is_empty(&self) -> bool {
        self.networks.is_empty()
    }

    /// Runs the packed forward pass on every member; element `i` of the
    /// result is bitwise identical to
    /// [`CellNetwork::forward_with`] on member `i` alone.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputMismatch`] if the input geometry does not
    /// match the configuration.
    pub fn forward_with(
        &self,
        input: &Tensor,
        workspace: &mut Workspace,
    ) -> Result<Vec<ForwardOutput>> {
        Ok(
            forward_members(&self.networks, input, workspace, PackSink::Tensors)?
                .into_iter()
                .map(|m| match m {
                    MemberForward::Output(output) => output,
                    _ => unreachable!("the tensor sink returns outputs"),
                })
                .collect(),
        )
    }

    /// The ReLU sign pattern of every input sample for every member, packed
    /// into bits by the packed forward pass itself: element `i` equals
    /// [`SignPatterns::from_pre_activations`] over the `pre_activations` of
    /// [`CellNetworkPack::forward_with`] member `i`, without copying a
    /// single pre-activation tensor out.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputMismatch`] if the input geometry does not
    /// match the configuration.
    pub fn forward_signs_with(
        &self,
        input: &Tensor,
        workspace: &mut Workspace,
    ) -> Result<Vec<SignPatterns>> {
        Ok(
            forward_members(&self.networks, input, workspace, PackSink::Signs)?
                .into_iter()
                .map(|m| match m {
                    MemberForward::Signs(signs) => signs,
                    _ => unreachable!("the sign sink returns signs"),
                })
                .collect(),
        )
    }

    /// Per-sample gradient matrices for every member from one lockstep
    /// sweep: one pack forward, then one backward over the whole pack, conv
    /// edges bucketed by kernel size as in the forward and each bucket
    /// dispatched through the packed backward seam. Element `i` is bitwise
    /// identical to [`CellNetwork::per_sample_gradient_matrix_with`] on
    /// member `i` alone.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputMismatch`] for geometry mismatches.
    pub fn per_sample_gradient_matrices_with(
        &self,
        batch: &Tensor,
        workspace: &mut Workspace,
    ) -> Result<Vec<PerSampleGradients>> {
        per_sample_gradient_matrices(&self.networks, batch, workspace)
    }

    /// [`CellNetworkPack::per_sample_gradient_matrices_with`] on a fresh
    /// default workspace.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputMismatch`] for geometry mismatches.
    pub fn per_sample_gradient_matrices(&self, batch: &Tensor) -> Result<Vec<PerSampleGradients>> {
        self.per_sample_gradient_matrices_with(batch, &mut Workspace::default())
    }
}

/// The eager per-sample gradients of `sum(logits)` of a pack of networks
/// over one `(config, seed, backend)` triple, one row-major `[n, P]` matrix
/// per member, in pack order: one [`forward_members`] pass, then one
/// [`backward_members`] sweep. A pack of one *is*
/// [`CellNetwork::per_sample_gradient_matrix_with`]'s eager path.
fn per_sample_gradient_matrices(
    networks: &[CellNetwork],
    batch: &Tensor,
    workspace: &mut Workspace,
) -> Result<Vec<PerSampleGradients>> {
    let traces = forward_traces(networks, batch, workspace)?;
    let n = batch.shape().dims()[0];
    // Matrix buffers come from the recycling pool: at batch 32 they are
    // past the allocator's mmap threshold, so a fresh allocation per
    // evaluation would cost page faults. Callers hand them back via
    // `PerSampleGradients::into_values` + `Workspace::recycle`.
    let mut matrices: Vec<Vec<f32>> = networks
        .iter()
        .map(|net| workspace.take_zeroed(n * net.num_parameters()))
        .collect();
    backward_members(networks, batch, &traces, workspace, &mut matrices)?;
    for trace in traces {
        recycle_trace(trace, workspace);
    }
    Ok(networks
        .iter()
        .zip(matrices)
        .map(|(net, matrix)| PerSampleGradients::new(n, net.num_parameters(), matrix))
        .collect())
}

/// The eager backward of `sum(logits)` over a pack of networks, in
/// lockstep, writing each member's per-sample parameter gradients into its
/// pre-zeroed row-major `[n, P]` matrix.
///
/// Node gradients flow exactly as in [`CellNetwork::backward`]: samples are
/// independent through every convolution, pooling and element-wise op, so
/// one batch-level sweep produces each sample's node gradients bit for bit
/// as `n` separate backward passes would. At every parameterised layer the
/// weight gradient is *not* summed over the batch: each sample's
/// contribution lands in its own row. A member's kernels and accumulation
/// order do not depend on the other members, so its matrix is bitwise what
/// a pack of one gives; same-kernel conv edges dispatch their weight and
/// input gradients packed, and the stem's per-sample backward (whose input, the probe
/// batch, is identical across members) runs as one full-width packed
/// dispatch that lowers the batch once. A pack of one counts no packed
/// dispatch ([`pack_kernel_stats`]).
fn backward_members(
    networks: &[CellNetwork],
    batch: &Tensor,
    traces: &[ForwardTrace],
    workspace: &mut Workspace,
    matrices: &mut [Vec<f32>],
) -> Result<()> {
    let Some(first) = networks.first() else {
        return Ok(());
    };
    let _span = micronas_telemetry::span!("nn.pack_backward");
    let backend = &*first.backend;
    let note_dispatch = |members: usize| {
        if networks.len() > 1 {
            note_pack_backward_dispatch(members);
        }
    };
    let n = batch.shape().dims()[0];
    let num_classes = first.config.num_classes;
    let channels = first.config.channels;
    // Members generally differ in parameter count and layer offsets.
    let offsets: Vec<(Vec<[usize; NUM_EDGES]>, usize)> = networks
        .iter()
        .map(|net| net.edge_parameter_offsets())
        .collect();
    let params: Vec<usize> = networks.iter().map(|net| net.num_parameters()).collect();

    // Classifier rows, feature gradients and the pooling spread have
    // per-member operands everywhere; they run per member. With
    // L = sum(logits), dL/dW[o][i] for sample b is
    // grad_logits[b][o] · features[b][i], a pure outer product, so each row
    // is written directly; the feature gradient is grad_logits · W with
    // grad_logits all-ones (the only shared operand), and global average
    // pooling spreads it uniformly over each plane, into a pooled buffer.
    let ones = vec![1.0f32; n * num_classes];
    let mut grad_xs: Vec<Tensor> = Vec::with_capacity(networks.len());
    for (p, (net, trace)) in networks.iter().zip(traces).enumerate() {
        let matrix = &mut matrices[p];
        debug_assert_eq!(matrix.len(), n * params[p]);
        let features = trace.features.data();
        for b in 0..n {
            let row = &mut matrix[b * params[p] + offsets[p].1..(b + 1) * params[p]];
            for o in 0..num_classes {
                for i in 0..channels {
                    row[o * channels + i] = features[b * channels + i];
                }
            }
        }
        let mut grad_features = Tensor::zeros(Shape::d2(n, channels));
        backend.gemm_nn(
            n,
            num_classes,
            channels,
            &ones,
            net.classifier.weight().data(),
            grad_features.data_mut(),
            false,
        );
        let last_x = trace
            .nodes
            .last()
            .map(|nodes| &nodes[NUM_NODES - 1])
            .unwrap_or(&trace.stem_out);
        let hw: usize = last_x.shape().dims()[2] * last_x.shape().dims()[3];
        let mut buf = workspace.take(last_x.numel());
        for (&g, plane) in grad_features.data().iter().zip(buf.chunks_exact_mut(hw)) {
            plane.fill(g / hw as f32);
        }
        grad_xs.push(Tensor::from_vec(last_x.shape().clone(), buf).expect("length matches shape"));
    }

    // Cells in reverse order, all members in lockstep.
    for cell_idx in (0..first.cells.len()).rev() {
        let mut node_grads: Vec<Vec<Tensor>> = std::mem::take(&mut grad_xs)
            .into_iter()
            .zip(traces)
            .map(|(gx, trace)| {
                let mut ng: Vec<Tensor> = trace.nodes[cell_idx][..NUM_NODES - 1]
                    .iter()
                    .map(|nd| pooled_zeros(nd.shape().clone(), workspace))
                    .collect();
                ng.push(gx);
                ng
            })
            .collect();
        // A node gradient is structurally zero until an edge accumulates
        // into it; one flag set per member skips dead subgraphs without a
        // full-tensor norm pass per edge. (An accumulated-but-numerically-
        // zero gradient is processed; it contributes zeros, identical to
        // skipping.)
        let mut touched = vec![[false; NUM_NODES]; networks.len()];
        for t in &mut touched {
            t[NUM_NODES - 1] = true;
        }

        for edge in EdgeId::all().iter().rev() {
            let (src, dst) = edge.endpoints();
            // Partition members by this edge's operation, skipping members
            // whose upstream node is structurally zero. Non-conv gradients
            // accumulate immediately (each member has exactly one op per
            // edge, so per-member order across edges stays canonical); conv
            // members bucket by kernel size for one packed dispatch per
            // bucket.
            let mut conv_buckets: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
            for (p, net) in networks.iter().enumerate() {
                if !touched[p][dst] {
                    continue;
                }
                match net.cell.edge_ops()[edge.0] {
                    Operation::None => {}
                    Operation::SkipConnect => {
                        let (lower, upper) = node_grads[p].split_at_mut(dst);
                        lower[src].axpy(1.0, &upper[0]).map_err(NnError::from)?;
                        touched[p][src] = true;
                    }
                    Operation::AvgPool3x3 => {
                        let g = backend.avg_pool2d_backward(
                            &node_grads[p][dst],
                            traces[p].nodes[cell_idx][src].shape(),
                            3,
                            1,
                            1,
                            workspace,
                        )?;
                        node_grads[p][src].axpy(1.0, &g).map_err(NnError::from)?;
                        workspace.recycle(g.into_vec());
                        touched[p][src] = true;
                    }
                    Operation::NorConv1x1 => conv_buckets[0].push(p),
                    Operation::NorConv3x3 => conv_buckets[1].push(p),
                }
            }
            for bucket in &conv_buckets {
                let Some(&lead) = bucket.first() else {
                    continue;
                };
                let conv = networks[lead].cells[cell_idx].edge_convs[edge.0]
                    .as_ref()
                    .expect("conv edge always has a layer");
                // Position-keyed seeding makes every bucket member's weight
                // tensor identical to the lead's.
                debug_assert!(bucket.iter().all(|&p| {
                    networks[p].cells[cell_idx].edge_convs[edge.0]
                        .as_ref()
                        .is_some_and(|c| c.weight() == conv.weight())
                }));
                let activated: Vec<Tensor> = bucket
                    .iter()
                    .map(|&p| pooled_relu(&traces[p].nodes[cell_idx][src], workspace))
                    .collect();
                {
                    let inputs: Vec<&Tensor> = activated.iter().collect();
                    let grads: Vec<&Tensor> = bucket.iter().map(|&p| &node_grads[p][dst]).collect();
                    let mut slots = disjoint_slots(matrices, bucket, |p| {
                        (params[p], offsets[p].0[cell_idx][edge.0])
                    });
                    backend.conv2d_backward_weight_per_sample_packed(
                        &inputs,
                        &grads,
                        conv.out_channels(),
                        conv.spec(),
                        workspace,
                        &mut slots,
                    )?;
                }
                note_dispatch(bucket.len());
                let g_srcs = {
                    let grads: Vec<&Tensor> = bucket.iter().map(|&p| &node_grads[p][dst]).collect();
                    backend.conv2d_backward_input_packed(
                        conv.weight(),
                        &grads,
                        activated[0].shape(),
                        conv.spec(),
                        workspace,
                    )?
                };
                note_dispatch(bucket.len());
                for t in activated {
                    workspace.recycle(t.into_vec());
                }
                for (&p, mut g_src) in bucket.iter().zip(g_srcs) {
                    // ReLU backward, in place on the input gradient.
                    let node = &traces[p].nodes[cell_idx][src];
                    for (g, &x) in g_src.data_mut().iter_mut().zip(node.data()) {
                        if x <= 0.0 {
                            *g = 0.0;
                        }
                    }
                    node_grads[p][src]
                        .axpy(1.0, &g_src)
                        .map_err(NnError::from)?;
                    workspace.recycle(g_src.into_vec());
                    touched[p][src] = true;
                }
            }
        }
        grad_xs = node_grads
            .into_iter()
            .map(|ng| {
                let mut drain = ng.into_iter();
                let g0 = drain.next().expect("node 0 gradient");
                for t in drain {
                    workspace.recycle(t.into_vec());
                }
                g0
            })
            .collect();
    }

    // Stem, per sample, packed across the members: every member's stem
    // backward consumes the identical probe batch, so the packed kernel
    // lowers it once for the whole dispatch.
    {
        let inputs: Vec<&Tensor> = networks.iter().map(|_| batch).collect();
        let grads: Vec<&Tensor> = grad_xs.iter().collect();
        let members: Vec<usize> = (0..networks.len()).collect();
        let mut slots = disjoint_slots(matrices, &members, |p| (params[p], 0));
        backend.conv2d_backward_weight_per_sample_packed(
            &inputs,
            &grads,
            first.stem.out_channels(),
            first.stem.spec(),
            workspace,
            &mut slots,
        )?;
    }
    note_dispatch(networks.len());
    for g in grad_xs {
        workspace.recycle(g.into_vec());
    }
    Ok(())
}

/// Extracts sample `i` of an NCHW batch as a batch of one.
fn extract_sample(batch: &Tensor, i: usize) -> Result<Tensor> {
    let d = batch.shape().dims();
    let per_sample = d[1] * d[2] * d[3];
    let start = i * per_sample;
    let data = batch.data()[start..start + per_sample].to_vec();
    Ok(Tensor::from_vec(Shape::nchw(1, d[1], d[2], d[3]), data)?)
}

/// A zero-filled tensor whose buffer comes from the workspace recycling pool.
fn pooled_zeros(shape: Shape, workspace: &mut Workspace) -> Tensor {
    let n = shape.numel();
    Tensor::from_vec(shape, workspace.take_zeroed(n)).expect("length matches shape")
}

/// A copy of `t` whose buffer comes from the workspace recycling pool.
fn pooled_copy(t: &Tensor, workspace: &mut Workspace) -> Tensor {
    let mut buf = workspace.take(t.numel());
    buf.copy_from_slice(t.data());
    Tensor::from_vec(t.shape().clone(), buf).expect("length matches shape")
}

/// `relu(t)` into a pooled buffer (same values as [`relu`]).
fn pooled_relu(t: &Tensor, workspace: &mut Workspace) -> Tensor {
    let _span = micronas_telemetry::span!("tensor.relu");
    let mut buf = workspace.take(t.numel());
    relu_into(&mut buf, t.data());
    Tensor::from_vec(t.shape().clone(), buf).expect("length matches shape")
}

/// `out[i] = relu(values[i])`.
fn relu_into(out: &mut [f32], values: &[f32]) {
    for (o, &v) in out.iter_mut().zip(values) {
        *o = if v > 0.0 { v } else { 0.0 };
    }
}

/// Counts the bytes of a float pre-activation copied out of a forward pass
/// (`nn.pre_activation.bytes`).
fn note_pre_activation_copy(t: &Tensor) {
    micronas_telemetry::counter_add(
        "nn.pre_activation.bytes",
        (t.numel() * std::mem::size_of::<f32>()) as u64,
    );
}

/// Returns every pooled buffer of a [`ForwardTrace`] to the workspace so the
/// next trace reuses it. The small `features` tensor is left to the
/// allocator.
fn recycle_trace(trace: ForwardTrace, workspace: &mut Workspace) {
    workspace.recycle(trace.stem_out.into_vec());
    for nodes in trace.nodes {
        for t in nodes {
            workspace.recycle(t.into_vec());
        }
    }
}

/// Disjoint `&mut` slices over `matrices` for the strictly ascending member
/// indices of one bucket, paired with each member's `(row_stride, offset)`
/// from `stride_offset` — the destination set of one packed backward-weight
/// dispatch.
fn disjoint_slots<'a>(
    matrices: &'a mut [Vec<f32>],
    indices: &[usize],
    stride_offset: impl Fn(usize) -> (usize, usize),
) -> Vec<PackedGradSlot<'a>> {
    let mut slots = Vec::with_capacity(indices.len());
    let mut rest: &'a mut [Vec<f32>] = matrices;
    let mut base = 0usize;
    for &idx in indices {
        debug_assert!(idx >= base, "bucket indices must ascend");
        let taken = rest;
        let (skip, tail) = taken.split_at_mut(idx - base + 1);
        let matrix = skip.last_mut().expect("bucket index in range");
        let (row_stride, offset) = stride_offset(idx);
        slots.push(PackedGradSlot {
            out: matrix.as_mut_slice(),
            row_stride,
            offset,
        });
        rest = tail;
        base = idx + 1;
    }
    slots
}

// ---------------------------------------------------------------------------
// Pack fill accounting
// ---------------------------------------------------------------------------

static PACK_FORWARD_DISPATCHES: AtomicU64 = AtomicU64::new(0);
static PACK_FORWARD_MEMBERS: AtomicU64 = AtomicU64::new(0);
static PACK_BACKWARD_DISPATCHES: AtomicU64 = AtomicU64::new(0);
static PACK_BACKWARD_MEMBERS: AtomicU64 = AtomicU64::new(0);

fn note_pack_forward_dispatch(members: usize) {
    PACK_FORWARD_DISPATCHES.fetch_add(1, Ordering::Relaxed);
    PACK_FORWARD_MEMBERS.fetch_add(members as u64, Ordering::Relaxed);
}

fn note_pack_backward_dispatch(members: usize) {
    PACK_BACKWARD_DISPATCHES.fetch_add(1, Ordering::Relaxed);
    PACK_BACKWARD_MEMBERS.fetch_add(members as u64, Ordering::Relaxed);
}

/// Monotonic process-global counts of packed kernel dispatches and the pack
/// members they served, split by sweep direction.
///
/// A *forward* dispatch is one [`KernelBackend::conv2d_forward_packed`]
/// bucket of a pack of two or more members; it serves every member with
/// that conv on that edge, including members whose input another member's
/// equal prefix supplied (those are also counted by the telemetry counter
/// `nn.pack_forward.shared_inputs`). A *backward* dispatch is one packed
/// weight-gradient or packed input-gradient bucket of a pack of two or more
/// members (the stem's full-width packed backward included). A pack of one
/// is solo evaluation and counts nothing in either direction.
/// `members / dispatches` is therefore the measured average pack fill of
/// each sweep — the number the search-layer fill gauges and batch-stat
/// counters report. Snapshot with [`pack_kernel_stats`] and diff with
/// [`PackKernelStats::since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackKernelStats {
    /// Packed forward conv dispatches.
    pub forward_dispatches: u64,
    /// Pack members served by forward dispatches.
    pub forward_members: u64,
    /// Packed backward (weight-gradient + input-gradient) dispatches.
    pub backward_dispatches: u64,
    /// Pack members served by backward dispatches.
    pub backward_members: u64,
}

impl PackKernelStats {
    /// Counter deltas since an `earlier` snapshot.
    #[must_use]
    pub fn since(&self, earlier: &PackKernelStats) -> PackKernelStats {
        PackKernelStats {
            forward_dispatches: self.forward_dispatches - earlier.forward_dispatches,
            forward_members: self.forward_members - earlier.forward_members,
            backward_dispatches: self.backward_dispatches - earlier.backward_dispatches,
            backward_members: self.backward_members - earlier.backward_members,
        }
    }

    /// Average members per packed forward dispatch (0 when none ran).
    #[must_use]
    pub fn forward_fill(&self) -> f64 {
        if self.forward_dispatches == 0 {
            0.0
        } else {
            self.forward_members as f64 / self.forward_dispatches as f64
        }
    }

    /// Average members per packed backward dispatch (0 when none ran).
    #[must_use]
    pub fn backward_fill(&self) -> f64 {
        if self.backward_dispatches == 0 {
            0.0
        } else {
            self.backward_members as f64 / self.backward_dispatches as f64
        }
    }
}

/// Snapshot of the process-global [`PackKernelStats`] counters.
#[must_use]
pub fn pack_kernel_stats() -> PackKernelStats {
    PackKernelStats {
        forward_dispatches: PACK_FORWARD_DISPATCHES.load(Ordering::Relaxed),
        forward_members: PACK_FORWARD_MEMBERS.load(Ordering::Relaxed),
        backward_dispatches: PACK_BACKWARD_DISPATCHES.load(Ordering::Relaxed),
        backward_members: PACK_BACKWARD_MEMBERS.load(Ordering::Relaxed),
    }
}

/// Seed stream reserved for the stem convolution.
const STEM_SEED_STREAM: u64 = 0x57E4_C0DE;

#[cfg(test)]
mod tests {
    use super::*;
    use micronas_searchspace::SearchSpace;
    use micronas_tensor::{DeterministicRng, KernelBackendKind};

    /// A tiny geometry on which every conv is at or above the direct-kernel
    /// threshold at batch 1 (8 channels at 8×8: 4 096 MACs for a conv1×1,
    /// 36 864 for a conv3×3, 13 824 for the stem), so `blocked_gemm` takes
    /// its GEMM path at every batch size.
    fn all_gemm_config(num_classes: usize) -> ProxyNetworkConfig {
        ProxyNetworkConfig {
            channels: 8,
            ..ProxyNetworkConfig::tiny(num_classes)
        }
    }

    /// The backend arms of the bitwise suites: the `direct` oracle on
    /// `config`, and `blocked_gemm` on [`all_gemm_config`].
    fn backend_arms(
        config: &ProxyNetworkConfig,
    ) -> [(Arc<dyn KernelBackend>, ProxyNetworkConfig); 2] {
        [
            (KernelBackendKind::Direct.instantiate(), *config),
            (
                KernelBackendKind::BlockedGemm.instantiate(),
                all_gemm_config(config.num_classes),
            ),
        ]
    }

    fn random_batch(config: &ProxyNetworkConfig, n: usize, seed: u64) -> Tensor {
        let mut rng = DeterministicRng::new(seed);
        let shape = Shape::nchw(
            n,
            config.input_channels,
            config.input_resolution,
            config.input_resolution,
        );
        let data = (0..shape.numel()).map(|_| rng.normal()).collect();
        Tensor::from_vec(shape, data).unwrap()
    }

    fn conv_chain_cell() -> CellTopology {
        // 0 -conv3x3-> 1 -conv1x1-> 2 -conv3x3-> 3 plus a skip 0->3.
        let space = SearchSpace::nas_bench_201();
        let mut cell = space.cell(0).unwrap();
        cell = cell.with_op(EdgeId(0), Operation::NorConv3x3).unwrap();
        cell = cell.with_op(EdgeId(2), Operation::NorConv1x1).unwrap();
        cell = cell.with_op(EdgeId(5), Operation::NorConv3x3).unwrap();
        cell = cell.with_op(EdgeId(3), Operation::SkipConnect).unwrap();
        cell
    }

    /// The forward oracle: every pack forward entry point, at pack widths 1,
    /// 2 and 5 on both backend arms, must equal the reference forward trace
    /// (one kernel call per edge, no value numbering, no pooled buffers) bit
    /// for bit: logits from the classifier over the trace's features,
    /// pre-activations from the trace's conv-edge sources in (cell, edge)
    /// order, signs packed from those pre-activations.
    #[test]
    fn pack_forward_matches_the_reference_trace_bitwise() {
        let space = SearchSpace::nas_bench_201();
        let mut rng = DeterministicRng::new(0x0AC1E);
        let mut cells = vec![conv_chain_cell(), space.cell(7_831).unwrap()];
        cells.extend((0..3).map(|_| space.cell(rng.below(15_625)).unwrap()));
        for (backend, mut config) in backend_arms(&ProxyNetworkConfig::tiny(10)) {
            config.num_cells = 2;
            let points = 3;
            let batch = random_batch(&config, points, 17);
            let id = backend.id().to_string();
            for width in [1usize, 2, cells.len()] {
                let pack =
                    CellNetworkPack::with_backend(&cells[..width], &config, 5, backend.clone())
                        .unwrap();
                let mut ws = Workspace::default();
                let outputs = pack.forward_with(&batch, &mut ws).unwrap();
                let signs = pack.forward_signs_with(&batch, &mut ws).unwrap();
                for (i, net) in pack.networks().iter().enumerate() {
                    let trace = net.forward_trace_reference(&batch, &mut ws).unwrap();
                    let logits = net.classifier.forward(&*backend, &trace.features).unwrap();
                    let mut pre = Vec::new();
                    for (cell_idx, cell) in net.cells.iter().enumerate() {
                        for edge in EdgeId::all() {
                            if cell.edge_convs[edge.0].is_some() {
                                pre.push(trace.nodes[cell_idx][edge.endpoints().0].clone());
                            }
                        }
                    }
                    let what = format!("backend {id} width {width} member {i}");
                    assert_eq!(outputs[i].logits.data(), logits.data(), "{what}: logits");
                    assert_eq!(outputs[i].pre_activations.len(), pre.len(), "{what}");
                    for (a, b) in outputs[i].pre_activations.iter().zip(&pre) {
                        assert_eq!(a.data(), b.data(), "{what}: pre-activations");
                    }
                    let expected = SignPatterns::from_pre_activations(points, &pre);
                    assert_eq!(signs[i], expected, "{what}: signs");
                }
            }
        }
    }

    #[test]
    fn forward_output_shape() {
        let cell = conv_chain_cell();
        let config = ProxyNetworkConfig::tiny(10);
        let net = CellNetwork::new(&cell, &config, 1).unwrap();
        let batch = random_batch(&config, 3, 2);
        let out = net.forward(&batch).unwrap();
        assert_eq!(out.logits.shape().dims(), &[3, 10]);
        // 3 conv edges per cell, 1 cell.
        assert_eq!(out.pre_activations.len(), 3);
    }

    #[test]
    fn input_geometry_is_validated() {
        let cell = conv_chain_cell();
        let config = ProxyNetworkConfig::tiny(10);
        let net = CellNetwork::new(&cell, &config, 1).unwrap();
        let bad = Tensor::zeros(Shape::nchw(1, 3, 16, 16));
        assert!(net.forward(&bad).is_err());
        let bad_rank = Tensor::zeros(Shape::d2(3, 3));
        assert!(net.forward(&bad_rank).is_err());
    }

    #[test]
    fn parameter_count_matches_layers() {
        let cell = conv_chain_cell();
        let config = ProxyNetworkConfig::tiny(10);
        let net = CellNetwork::new(&cell, &config, 1).unwrap();
        let c = config.channels;
        let expected = config.input_channels * c * 9       // stem
            + c * c * 9                                     // edge 0 conv3x3
            + c * c                                         // edge 2 conv1x1
            + c * c * 9                                     // edge 5 conv3x3
            + c * config.num_classes; // classifier
        assert_eq!(net.num_parameters(), expected);
    }

    #[test]
    fn all_none_cell_still_produces_logits() {
        let space = SearchSpace::nas_bench_201();
        let cell = space.cell(0).unwrap();
        let config = ProxyNetworkConfig::tiny(10);
        let net = CellNetwork::new(&cell, &config, 3).unwrap();
        let batch = random_batch(&config, 2, 4);
        let out = net.forward(&batch).unwrap();
        // No path from input to output: features are zero, so logits are zero.
        assert!(out.logits.data().iter().all(|&v| v == 0.0));
        assert!(out.pre_activations.is_empty());
    }

    #[test]
    fn network_construction_is_deterministic() {
        let cell = conv_chain_cell();
        let config = ProxyNetworkConfig::tiny(10);
        let a = CellNetwork::new(&cell, &config, 7).unwrap();
        let b = CellNetwork::new(&cell, &config, 7).unwrap();
        let batch = random_batch(&config, 2, 5);
        assert_eq!(
            a.forward(&batch).unwrap().logits,
            b.forward(&batch).unwrap().logits
        );
        let c = CellNetwork::new(&cell, &config, 8).unwrap();
        assert_ne!(
            a.forward(&batch).unwrap().logits,
            c.forward(&batch).unwrap().logits
        );
    }

    #[test]
    fn per_sample_gradients_have_parameter_length() {
        let cell = conv_chain_cell();
        let config = ProxyNetworkConfig::tiny(5);
        let net = CellNetwork::new(&cell, &config, 1).unwrap();
        let batch = random_batch(&config, 4, 6);
        let grads = net.per_sample_gradients(&batch).unwrap();
        assert_eq!(grads.len(), 4);
        for g in &grads {
            assert_eq!(g.len(), net.num_parameters());
            assert!(g.norm() > 0.0);
        }
    }

    #[test]
    fn batch_gradient_is_sum_of_per_sample_gradients() {
        let cell = conv_chain_cell();
        let config = ProxyNetworkConfig::tiny(4);
        let net = CellNetwork::new(&cell, &config, 2).unwrap();
        let batch = random_batch(&config, 3, 7);
        let total = net.parameter_gradients(&batch).unwrap();
        let per_sample = net.per_sample_gradients(&batch).unwrap();
        let mut summed = vec![0.0f32; total.len()];
        for g in &per_sample {
            for (s, v) in summed.iter_mut().zip(g.values()) {
                *s += v;
            }
        }
        for (a, b) in total.values().iter().zip(summed.iter()) {
            assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()), "{a} vs {b}");
        }

        // And per-sample — not just summed — the batched formulation must
        // reproduce the looped one.
        let mut ws = Workspace::default();
        let looped = net
            .per_sample_gradients_looped_with(&batch, &mut ws)
            .unwrap();
        assert_eq!(looped.len(), per_sample.len());
        for (b, (fast, slow)) in per_sample.iter().zip(looped.iter()).enumerate() {
            for (i, (x, y)) in fast.values().iter().zip(slow.values()).enumerate() {
                assert!(
                    (x - y).abs() < 1e-4 * (1.0 + y.abs()),
                    "sample {b} param {i}: batched {x} vs looped {y}"
                );
            }
        }
    }

    /// Batched and looped per-sample gradients must agree per sample across
    /// random cells and batch sizes, on both conv engines: the direct loops
    /// (the `direct` backend) and GEMM (`blocked_gemm` on a geometry where
    /// every conv takes the GEMM path). Both formulations run the network's
    /// own backend with identical per-sample kernels, so the comparison is
    /// exact.
    #[test]
    fn batched_per_sample_gradients_match_looped_on_both_engines() {
        let space = SearchSpace::nas_bench_201();
        // A spread of cells: conv-heavy, pool/skip-mixed, sparse.
        let cells = [
            conv_chain_cell(),
            space.cell(7_000).unwrap(),
            space.cell(11_111).unwrap(),
            space.cell(404).unwrap(),
        ];
        for (backend, config) in backend_arms(&ProxyNetworkConfig::tiny(4)) {
            for (c_idx, cell) in cells.iter().enumerate() {
                let seed = c_idx as u64 + 1;
                let net = CellNetwork::with_backend(cell, &config, seed, backend.clone()).unwrap();
                for n in [1usize, 2, 7] {
                    let batch = random_batch(&config, n, 19 + n as u64);
                    let mut ws = Workspace::default();
                    let fast = net
                        .per_sample_gradient_matrix_with(&batch, &mut ws)
                        .unwrap();
                    let looped = net
                        .per_sample_gradients_looped_with(&batch, &mut ws)
                        .unwrap();
                    assert_eq!(fast.num_samples(), n);
                    assert_eq!(fast.num_parameters(), net.num_parameters());
                    for (b, slow) in looped.iter().enumerate() {
                        assert_eq!(
                            fast.row(b),
                            slow.values(),
                            "backend {} cell {c_idx} n={n} sample {b}",
                            backend.id()
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        /// Property form of the batched-vs-looped equivalence: random cells
        /// from the full NAS-Bench-201 space, the batch sizes the edge cases
        /// live at (1, 2, 7), both backend arms. The random cell runs solo
        /// (a pack of one) and packed with two other random cells; every
        /// member's rows must equal its own looped oracle.
        #[test]
        fn batched_per_sample_gradients_match_looped_across_random_cells(
            cell_index in 0usize..15_625,
            other_a in 0usize..15_625,
            other_b in 0usize..15_625,
            batch_choice in 0usize..3,
            backend_choice in 0usize..2,
            seed in 0u64..1_000,
        ) {
            let space = SearchSpace::nas_bench_201();
            let cells: Vec<CellTopology> = [cell_index, other_a, other_b]
                .iter()
                .map(|&i| space.cell(i).unwrap())
                .collect();
            let mut config = ProxyNetworkConfig::tiny(3);
            config.input_resolution = 6;
            let [direct, gemm] = backend_arms(&config);
            let (backend, config) = if backend_choice == 0 { direct } else { gemm };
            let n = [1usize, 2, 7][batch_choice];
            let pack = CellNetworkPack::with_backend(&cells, &config, seed, backend).unwrap();
            let batch = random_batch(&config, n, seed + 1);
            let mut ws = Workspace::default();
            let solo = pack.networks()[0].per_sample_gradient_matrix_with(&batch, &mut ws);
            let packed = pack.per_sample_gradient_matrices_with(&batch, &mut ws);
            let looped: Result<Vec<_>> = pack
                .networks()
                .iter()
                .map(|net| net.per_sample_gradients_looped_with(&batch, &mut ws))
                .collect();
            let (solo, packed, looped) = (solo.unwrap(), packed.unwrap(), looped.unwrap());
            for (b, slow) in looped[0].iter().enumerate() {
                proptest::prop_assert_eq!(solo.row(b), slow.values(), "solo sample {}", b);
            }
            for (member, (fast, oracle)) in packed.iter().zip(&looped).enumerate() {
                for (b, slow) in oracle.iter().enumerate() {
                    proptest::prop_assert!(
                        fast.row(b)
                            .iter()
                            .zip(slow.values())
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "member {} sample {}",
                        member,
                        b
                    );
                }
            }
        }
    }

    /// The decisive correctness check: analytic parameter gradients must agree
    /// with central finite differences of `sum(logits)`.
    #[test]
    fn gradients_match_finite_differences() {
        let cell = conv_chain_cell();
        let mut config = ProxyNetworkConfig::tiny(3);
        config.input_resolution = 6;
        config.channels = 3;
        let net = CellNetwork::new(&cell, &config, 11).unwrap();
        let batch = random_batch(&config, 1, 12);
        let analytic = net.parameter_gradients(&batch).unwrap();

        // Perturb a handful of parameters spread across stem / cell convs / classifier.
        let eps = 1e-2f32;
        let n_params = net.num_parameters();
        let probe_indices = [
            0usize,
            n_params / 5,
            n_params / 2,
            (3 * n_params) / 4,
            n_params - 1,
        ];
        for &flat_idx in &probe_indices {
            let mut plus_net = net.clone();
            let mut minus_net = net.clone();
            perturb_parameter(&mut plus_net, flat_idx, eps);
            perturb_parameter(&mut minus_net, flat_idx, -eps);
            let plus = plus_net.forward(&batch).unwrap().logits.sum();
            let minus = minus_net.forward(&batch).unwrap().logits.sum();
            let numeric = (plus - minus) / (2.0 * eps);
            let a = analytic.values()[flat_idx];
            assert!(
                (numeric - a).abs() < 3e-2 * (1.0 + a.abs().max(numeric.abs())),
                "param {flat_idx}: numeric {numeric} vs analytic {a}"
            );
        }
    }

    /// Adds `delta` to the parameter at flat index `idx` (canonical order).
    fn perturb_parameter(net: &mut CellNetwork, idx: usize, delta: f32) {
        let mut offset = 0usize;
        {
            let stem = net.stem.weight_mut();
            if idx < offset + stem.numel() {
                stem.data_mut()[idx - offset] += delta;
                return;
            }
            offset += stem.numel();
        }
        for cell in &mut net.cells {
            for conv in cell.edge_convs.iter_mut().flatten() {
                let w = conv.weight_mut();
                if idx < offset + w.numel() {
                    w.data_mut()[idx - offset] += delta;
                    return;
                }
                offset += w.numel();
            }
        }
        // Classifier: LinearLayer has no weight_mut; rebuild via unsafe-free trick.
        let cls_len = net.classifier.num_parameters();
        assert!(idx < offset + cls_len, "index out of range");
        let mut w = net.classifier.weight().clone();
        w.data_mut()[idx - offset] += delta;
        net.classifier = rebuild_linear(&net.classifier, w);
    }

    fn rebuild_linear(_old: &LinearLayer, weight: Tensor) -> LinearLayer {
        LinearLayer::from_weight(weight)
    }

    /// A spread of cells that exercises every pack regime: conv-heavy (big
    /// merge buckets), mixed pool/skip (partitioned edges), sparse, and the
    /// all-`None` degenerate cell.
    fn pack_test_cells() -> Vec<CellTopology> {
        let space = SearchSpace::nas_bench_201();
        vec![
            conv_chain_cell(),
            space.cell(7_000).unwrap(),
            space.cell(11_111).unwrap(),
            space.cell(404).unwrap(),
            space.cell(0).unwrap(),
        ]
    }

    /// The tentpole identity at the network layer: the packed forward must
    /// be bitwise identical to each member's solo forward, at every pack
    /// width, on the paper default and on both backend arms (covering the
    /// all-GEMM path and the direct oracle).
    #[test]
    fn packed_forward_is_bitwise_identical_to_solo_members() {
        let cells = pack_test_cells();
        let tiny = ProxyNetworkConfig::tiny(10);
        let default_arm = (paper_default_backend(), tiny);
        for (backend, config) in std::iter::once(default_arm).chain(backend_arms(&tiny)) {
            let batch = random_batch(&config, 2, 31);
            let id = backend.id().to_string();
            for width in [1usize, 2, cells.len()] {
                let members = &cells[..width];
                let pack =
                    CellNetworkPack::with_backend(members, &config, 9, backend.clone()).unwrap();
                let mut pack_ws = Workspace::default();
                let packed = pack.forward_with(&batch, &mut pack_ws).unwrap();
                assert_eq!(packed.len(), width);
                for (i, cell) in members.iter().enumerate() {
                    let solo_net =
                        CellNetwork::with_backend(cell, &config, 9, backend.clone()).unwrap();
                    let mut solo_ws = Workspace::default();
                    let solo = solo_net.forward_with(&batch, &mut solo_ws).unwrap();
                    assert_eq!(
                        packed[i].logits.data(),
                        solo.logits.data(),
                        "backend {id} width {width} member {i}: logits diverge"
                    );
                    assert_eq!(
                        packed[i].pre_activations.len(),
                        solo.pre_activations.len(),
                        "backend {id} width {width} member {i}"
                    );
                    for (a, b) in packed[i].pre_activations.iter().zip(&solo.pre_activations) {
                        assert_eq!(a.data(), b.data());
                    }
                }
            }
        }
    }

    /// A pruning-style slate: each representative, every single-edge
    /// variant of it, and the representative again (a duplicate).
    fn pruning_slate() -> Vec<CellTopology> {
        use micronas_searchspace::ALL_OPERATIONS;
        use Operation::{AvgPool3x3, NorConv1x1, NorConv3x3, SkipConnect};
        let representatives = [
            CellTopology::new([NorConv3x3; NUM_EDGES]),
            // Edge 4 (1→3) is `None`, so the variant with `None` on edge 2
            // (1→2) leaves node 1 dead: computed, but read by nothing. The
            // variants with `None` on edge 0 give node 1 no input at all.
            CellTopology::new([
                NorConv3x3,
                SkipConnect,
                NorConv1x1,
                AvgPool3x3,
                Operation::None,
                NorConv3x3,
            ]),
        ];
        let mut slate = Vec::new();
        for rep in representatives {
            slate.push(rep);
            for edge in EdgeId::all() {
                for op in ALL_OPERATIONS {
                    if op != rep.edge_ops()[edge.0] {
                        slate.push(rep.with_op(edge, op).unwrap());
                    }
                }
            }
            slate.push(rep);
        }
        slate
    }

    /// Value numbering is exact: on pruning-style packs, where most of a
    /// member's forward equals its neighbours', every entry point returns
    /// each member's solo result bit for bit, at pack widths 1, 2, 3 and 8
    /// over two stacked cells (so later cells start from shared and
    /// unshared inputs) and 108-bit edge tensors (unaligned sign offsets).
    #[test]
    fn pruning_slate_packs_are_bitwise_identical_to_solo_members() {
        let slate = pruning_slate();
        let config = ProxyNetworkConfig {
            input_resolution: 6,
            channels: 3,
            num_cells: 2,
            ..ProxyNetworkConfig::tiny(10)
        };
        let points = 2;
        let batch = random_batch(&config, points, 61);
        let mut ws = Workspace::default();
        let solo: Vec<(ForwardOutput, PerSampleGradients)> = slate
            .iter()
            .map(|cell| {
                let net = CellNetwork::new(cell, &config, 13).unwrap();
                let out = net.forward_with(&batch, &mut ws).unwrap();
                let grads = net
                    .per_sample_gradient_matrix_with(&batch, &mut ws)
                    .unwrap();
                (out, grads)
            })
            .collect();
        for width in [1usize, 2, 3, 8] {
            for (chunk, members) in slate.chunks(width).enumerate() {
                let pack = CellNetworkPack::new(members, &config, 13).unwrap();
                let outputs = pack.forward_with(&batch, &mut ws).unwrap();
                let signs = pack.forward_signs_with(&batch, &mut ws).unwrap();
                let grads = pack
                    .per_sample_gradient_matrices_with(&batch, &mut ws)
                    .unwrap();
                assert_eq!(outputs.len(), members.len());
                assert_eq!(signs.len(), members.len());
                assert_eq!(grads.len(), members.len());
                for (i, ((out, s), g)) in outputs.iter().zip(&signs).zip(&grads).enumerate() {
                    let member = chunk * width + i;
                    let (want_out, want_grads) = &solo[member];
                    let context = format!("width {width}, slate member {member}");
                    assert_eq!(out.logits.data(), want_out.logits.data(), "{context}");
                    assert_eq!(out.pre_activations, want_out.pre_activations, "{context}");
                    let want_signs =
                        SignPatterns::from_pre_activations(points, &want_out.pre_activations);
                    assert_eq!(s, &want_signs, "{context}");
                    assert_eq!(g.values(), want_grads.values(), "{context}");
                }
            }
        }
    }

    /// Per-sample gradient matrices from the pack (packed forward, solo
    /// backward on pack traces) must be bitwise identical to each member's
    /// solo batched formulation, on the paper default and on `blocked_gemm`
    /// where every conv takes the GEMM path.
    #[test]
    fn packed_gradient_matrices_are_bitwise_identical_to_solo_members() {
        let cells = pack_test_cells();
        for config in [ProxyNetworkConfig::tiny(4), all_gemm_config(4)] {
            for n in [1usize, 3] {
                let batch = random_batch(&config, n, 47 + n as u64);
                let pack = CellNetworkPack::new(&cells, &config, 5).unwrap();
                let mut pack_ws = Workspace::default();
                let matrices = pack
                    .per_sample_gradient_matrices_with(&batch, &mut pack_ws)
                    .unwrap();
                assert_eq!(matrices.len(), cells.len());
                for (i, cell) in cells.iter().enumerate() {
                    let solo_net = CellNetwork::new(cell, &config, 5).unwrap();
                    let mut solo_ws = Workspace::default();
                    let solo = solo_net
                        .per_sample_gradient_matrix_with(&batch, &mut solo_ws)
                        .unwrap();
                    assert_eq!(matrices[i].num_samples(), n);
                    assert_eq!(matrices[i].num_parameters(), solo_net.num_parameters());
                    for b in 0..n {
                        assert_eq!(
                            matrices[i].row(b),
                            solo.row(b),
                            "channels {} n={n} member {i} sample {b}: gradients diverge",
                            config.channels
                        );
                    }
                }
            }
        }
    }

    /// One packed gradient sweep bumps the global fill counters, and the
    /// backward sweep (which packs the full-width stem backward on top of
    /// the same conv buckets the forward merges) always measures fill at
    /// least as high as the forward sweep.
    #[test]
    fn pack_fill_counters_track_backward_dispatches() {
        let cells = pack_test_cells();
        let config = ProxyNetworkConfig::tiny(4);
        let batch = random_batch(&config, 2, 7);
        let pack = CellNetworkPack::new(&cells, &config, 5).unwrap();
        let before = pack_kernel_stats();
        pack.per_sample_gradient_matrices_with(&batch, &mut Workspace::default())
            .unwrap();
        let delta = pack_kernel_stats().since(&before);
        assert!(
            delta.forward_dispatches >= 1,
            "no packed forward dispatches recorded"
        );
        assert!(
            delta.backward_dispatches >= 1,
            "no packed backward dispatches recorded"
        );
        assert!(delta.forward_members >= delta.forward_dispatches);
        assert!(delta.backward_members >= delta.backward_dispatches);
        assert!(
            delta.backward_fill() >= delta.forward_fill(),
            "backward fill {} below forward fill {}",
            delta.backward_fill(),
            delta.forward_fill()
        );
    }

    #[test]
    fn empty_pack_is_empty_everywhere() {
        let config = ProxyNetworkConfig::tiny(10);
        let pack = CellNetworkPack::new(&[], &config, 1).unwrap();
        assert!(pack.is_empty());
        assert_eq!(pack.len(), 0);
        let batch = random_batch(&config, 2, 1);
        let mut ws = Workspace::default();
        assert!(pack.forward_with(&batch, &mut ws).unwrap().is_empty());
        assert!(pack
            .per_sample_gradient_matrices_with(&batch, &mut ws)
            .unwrap()
            .is_empty());
    }

    /// The pack validates input geometry exactly like its members do.
    #[test]
    fn pack_input_geometry_is_validated() {
        let config = ProxyNetworkConfig::tiny(10);
        let pack = CellNetworkPack::new(&[conv_chain_cell()], &config, 1).unwrap();
        let bad = Tensor::zeros(Shape::nchw(1, 3, 16, 16));
        let mut ws = Workspace::default();
        assert!(pack.forward_with(&bad, &mut ws).is_err());
    }
}
