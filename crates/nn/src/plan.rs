//! Lowering of [`CellNetwork`] forward/backward passes to the kernel-graph
//! IR, plus the process-wide compiled-plan cache.
//!
//! The lowering replays the eager code paths op for op:
//! [`lower`] with [`PlanMode::Forward`] mirrors the eager forward (a pack
//! of one, `forward_members` in `network.rs`) and [`PlanMode::PerSampleGrad`]
//! mirrors the eager per-sample sweep (a pack of one, `backward_members`)
//! — same kernels, same
//! zero-init + ordered-axpy accumulation, same ReLU recompute in the
//! backward sweep. The eager forward ReLU-activates each node once for all
//! its conv edges, where the graph applies one ReLU per edge; the values
//! are the same. The only eager steps *not* lowered are the
//! buffer-to-buffer copies (`pooled_copy`), which are bitwise no-ops: the
//! SSA value simply flows on. The interpreter compiler therefore reproduces
//! the eager path bit for bit; the fusing compiler is free to rewrite the
//! same graph (and, e.g., delete the logits subgraph that the gradient mode
//! keeps only so the interpreter replays the eager cost model).
//!
//! Plans are cached per `(graph fingerprint, mode, compiler)` so repeated
//! evaluations of the same `(topology, geometry, batch)` triple — the hot
//! loop of every proxy sweep — compile exactly once per process.

use crate::network::CellNetwork;
use crate::{NnError, PerSampleGradients, Result};
use micronas_graph::{Compiler, Graph, Runnable, ValueId};
use micronas_searchspace::{EdgeId, Operation, NUM_NODES};
use micronas_tensor::{hash_mix, Shape, Tensor, Workspace};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Which entry point a plan lowers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanMode {
    /// The forward pass: logits, plus the pre-ReLU conv inputs when
    /// `collect_pre` is set (the linear-region proxy needs them).
    Forward {
        /// Collect `pre{i}` outputs in eager traversal order.
        collect_pre: bool,
    },
    /// The batched per-sample gradient sweep producing the `[n, P]` matrix.
    PerSampleGrad,
}

/// Lowers `net` at batch size `n` to a kernel graph.
pub(crate) fn lower(net: &CellNetwork, n: usize, mode: PlanMode) -> Graph {
    let config = net.config();
    let mut g = Graph::new();

    // Input slots, in the exact order `plan_inputs` supplies them.
    let batch = g.input(
        "batch",
        Shape::nchw(
            n,
            config.input_channels,
            config.input_resolution,
            config.input_resolution,
        ),
    );
    let stem_w = g.input("stem_w", net.stem.weight().shape().clone());
    let mut conv_w: Vec<Vec<Option<ValueId>>> = Vec::with_capacity(net.cells.len());
    for (cell_idx, cell) in net.cells.iter().enumerate() {
        let mut row = Vec::with_capacity(cell.edge_convs.len());
        for (e, conv) in cell.edge_convs.iter().enumerate() {
            row.push(
                conv.as_ref()
                    .map(|c| g.input(&format!("w{cell_idx}_{e}"), c.weight().shape().clone())),
            );
        }
        conv_w.push(row);
    }
    let clf_w = g.input("clf_w", net.classifier.weight().shape().clone());

    // Forward: stem → cells → pooling → classifier, exactly as the eager
    // forward runs it (its `pooled_copy` steps are bitwise no-ops and are
    // not materialised as ops).
    let stem_out = g.conv2d(batch, stem_w, net.stem.spec());
    let node_shape = g.value_shape(stem_out).clone();
    let collect_pre = matches!(mode, PlanMode::Forward { collect_pre: true });
    let mut num_pre = 0usize;
    let mut x = stem_out;
    let mut cell_nodes: Vec<Vec<ValueId>> = Vec::with_capacity(net.cells.len());
    for (cell_idx, _) in net.cells.iter().enumerate() {
        let mut nodes: Vec<ValueId> = Vec::with_capacity(NUM_NODES);
        nodes.push(x);
        for dst in 1..NUM_NODES {
            let mut acc = g.fill(0.0, node_shape.clone());
            for edge in EdgeId::all() {
                let (src, d) = edge.endpoints();
                if d != dst {
                    continue;
                }
                match net.cell.edge_ops()[edge.0] {
                    Operation::None => {}
                    Operation::SkipConnect => {
                        acc = g.axpy(acc, nodes[src], 1.0);
                    }
                    Operation::AvgPool3x3 => {
                        let c = g.avg_pool2d(nodes[src], 3, 1, 1);
                        acc = g.axpy(acc, c, 1.0);
                    }
                    Operation::NorConv1x1 | Operation::NorConv3x3 => {
                        let w = conv_w[cell_idx][edge.0].expect("conv edge always has a weight");
                        let spec = net.cells[cell_idx].edge_convs[edge.0]
                            .as_ref()
                            .expect("conv edge always has a layer")
                            .spec();
                        if collect_pre {
                            g.mark_output(&format!("pre{num_pre}"), nodes[src]);
                            num_pre += 1;
                        }
                        let act = g.relu(nodes[src]);
                        let c = g.conv2d(act, w, spec);
                        acc = g.axpy(acc, c, 1.0);
                    }
                }
            }
            nodes.push(acc);
        }
        x = nodes[NUM_NODES - 1];
        cell_nodes.push(nodes);
    }
    let features = g.global_avg_pool(x);
    let logits = g.gemm_nt(features, clf_w, n, config.channels, config.num_classes);

    match mode {
        PlanMode::Forward { .. } => {
            g.mark_output("logits", logits);
        }
        PlanMode::PerSampleGrad => {
            // `logits` stays in the graph without consumers on purpose: the
            // interpreter executes every node, replaying the eager cost
            // (the eager backward also runs on a trace that computed the
            // logits); the fusing compiler's DCE removes it.
            let p = net.num_parameters();
            let (edge_offsets, classifier_offset) = net.edge_parameter_offsets();
            let mut matrix = g.fill(0.0, Shape::d2(n, p));
            matrix = g.classifier_rows(
                features,
                matrix,
                config.num_classes,
                config.channels,
                p,
                classifier_offset,
            );
            let ones = g.fill(1.0, Shape::d2(n, config.num_classes));
            let grad_features = g.gemm_nn(ones, clf_w, n, config.num_classes, config.channels);
            let mut grad_x = g.spread_planes(grad_features, node_shape.clone());

            for (cell_idx, nodes) in cell_nodes.iter().enumerate().rev() {
                // Static replay of the eager `touched` flags: which node
                // gradients receive at least one accumulation. Untouched
                // node gradients (other than the node-0 carry) are never
                // read by the eager sweep either, so skipping their
                // zero-fill changes no output value.
                let mut touched = [false; NUM_NODES];
                touched[NUM_NODES - 1] = true;
                for edge in EdgeId::all().iter().rev() {
                    let (src, dst) = edge.endpoints();
                    if touched[dst] && net.cell.edge_ops()[edge.0] != Operation::None {
                        touched[src] = true;
                    }
                }

                let mut node_grads: Vec<Option<ValueId>> = (0..NUM_NODES - 1)
                    .map(|i| (touched[i] || i == 0).then(|| g.fill(0.0, node_shape.clone())))
                    .collect();
                node_grads.push(Some(grad_x));

                let mut live = [false; NUM_NODES];
                live[NUM_NODES - 1] = true;
                for edge in EdgeId::all().iter().rev() {
                    let (src, dst) = edge.endpoints();
                    if !live[dst] {
                        continue;
                    }
                    let upstream = node_grads[dst].expect("live node has a gradient");
                    match net.cell.edge_ops()[edge.0] {
                        Operation::None => {}
                        Operation::SkipConnect => {
                            let acc = node_grads[src].expect("touched node has a fill");
                            node_grads[src] = Some(g.axpy(acc, upstream, 1.0));
                            live[src] = true;
                        }
                        Operation::AvgPool3x3 => {
                            let gsrc = g.avg_pool2d_backward(upstream, node_shape.clone(), 3, 1, 1);
                            let acc = node_grads[src].expect("touched node has a fill");
                            node_grads[src] = Some(g.axpy(acc, gsrc, 1.0));
                            live[src] = true;
                        }
                        Operation::NorConv1x1 | Operation::NorConv3x3 => {
                            let conv = net.cells[cell_idx].edge_convs[edge.0]
                                .as_ref()
                                .expect("conv edge always has a layer");
                            let w =
                                conv_w[cell_idx][edge.0].expect("conv edge always has a weight");
                            let act = g.relu(nodes[src]);
                            matrix = g.per_sample_grad_w(
                                act,
                                upstream,
                                matrix,
                                conv.out_channels(),
                                conv.spec(),
                                p,
                                edge_offsets[cell_idx][edge.0],
                            );
                            let gin = g.conv2d_backward_input(
                                w,
                                upstream,
                                node_shape.clone(),
                                conv.spec(),
                            );
                            let gin = g.relu_mask(gin, nodes[src]);
                            let acc = node_grads[src].expect("touched node has a fill");
                            node_grads[src] = Some(g.axpy(acc, gin, 1.0));
                            live[src] = true;
                        }
                    }
                }
                grad_x = node_grads[0].expect("node 0 gradient always exists");
            }

            matrix = g.per_sample_grad_w(
                batch,
                grad_x,
                matrix,
                net.stem.out_channels(),
                net.stem.spec(),
                p,
                0,
            );
            g.mark_output("matrix", matrix);
        }
    }
    g
}

/// Ordered input tensors for a plan built by [`lower`]: batch, stem weight,
/// conv-edge weights in `(cell, edge)` order, classifier weight.
pub(crate) fn plan_inputs<'a>(net: &'a CellNetwork, batch: &'a Tensor) -> Vec<&'a Tensor> {
    let mut v: Vec<&Tensor> = Vec::with_capacity(2 + net.cells.len() * 2);
    v.push(batch);
    v.push(net.stem.weight());
    for cell in &net.cells {
        for conv in cell.edge_convs.iter().flatten() {
            v.push(conv.weight());
        }
    }
    v.push(net.classifier.weight());
    v
}

/// Process-wide compiled-plan cache. Keys fold the lowered graph's
/// structural fingerprint with the mode and the compiler identity, so two
/// networks with the same `(topology, geometry, batch)` share one compiled
/// plan per compiler while divergent compilers never collide.
static PLAN_CACHE: OnceLock<Mutex<HashMap<u64, Arc<dyn Runnable>>>> = OnceLock::new();

/// Soft cap on cached plans; the cache is cleared wholesale beyond it
/// (sweeps cycle through a small set of geometries, so eviction precision
/// does not matter — staying bounded does).
const PLAN_CACHE_CAP: usize = 1024;

/// Returns the compiled plan for `(net, n, mode)` under `compiler`,
/// compiling and caching it on first use.
pub(crate) fn compiled_plan(
    net: &CellNetwork,
    n: usize,
    mode: PlanMode,
    compiler: &Arc<dyn Compiler>,
) -> Result<Arc<dyn Runnable>> {
    let graph = lower(net, n, mode);
    let mut key = graph.fingerprint();
    key = hash_mix(
        key,
        match mode {
            PlanMode::Forward { collect_pre } => 1 + collect_pre as u64,
            PlanMode::PerSampleGrad => 3,
        },
    );
    for b in compiler.id().bytes() {
        key = hash_mix(key, b as u64);
    }
    key = hash_mix(key, compiler.config_fingerprint());

    let cache = PLAN_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    {
        let map = cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(plan) = map.get(&key) {
            micronas_telemetry::counter_add("graph.plan_cache.hits", 1);
            return Ok(Arc::clone(plan));
        }
    }
    micronas_telemetry::counter_add("graph.plan_cache.misses", 1);
    // Compile outside the lock: compilation can be slow and concurrent
    // sweeps must not serialise on it. A racing duplicate compile is
    // harmless (last insert wins; both plans are equivalent).
    let plan: Arc<dyn Runnable> = Arc::from(compiler.compile(&graph)?);
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    if map.len() >= PLAN_CACHE_CAP {
        map.clear();
    }
    map.insert(key, Arc::clone(&plan));
    Ok(plan)
}

/// Runs the graph-path forward pass.
pub(crate) fn forward_graph(
    net: &CellNetwork,
    input: &Tensor,
    workspace: &mut Workspace,
    compiler: &Arc<dyn Compiler>,
) -> Result<crate::ForwardOutput> {
    let n = input.shape().dims()[0];
    let plan = compiled_plan(net, n, PlanMode::Forward { collect_pre: true }, compiler)?;
    let inputs = plan_inputs(net, input);
    let mut outs = plan.run(&**net.backend(), &inputs, workspace)?;
    let logits = outs
        .take_tensor("logits")
        .ok_or_else(|| NnError::Graph("plan produced no `logits` output".into()))?;
    let mut pre_activations = Vec::new();
    let mut i = 0usize;
    while let Some(t) = outs.take_tensor(&format!("pre{i}")) {
        crate::network::note_pre_activation_copy(&t);
        pre_activations.push(t);
        i += 1;
    }
    Ok(crate::ForwardOutput {
        logits,
        pre_activations,
    })
}

/// Runs the graph-path batched per-sample gradient sweep.
pub(crate) fn per_sample_gradient_matrix_graph(
    net: &CellNetwork,
    batch: &Tensor,
    workspace: &mut Workspace,
    compiler: &Arc<dyn Compiler>,
) -> Result<PerSampleGradients> {
    let n = batch.shape().dims()[0];
    let p = net.num_parameters();
    let plan = compiled_plan(net, n, PlanMode::PerSampleGrad, compiler)?;
    let inputs = plan_inputs(net, batch);
    let mut outs = plan.run(&**net.backend(), &inputs, workspace)?;
    let matrix = outs
        .take_tensor("matrix")
        .ok_or_else(|| NnError::Graph("plan produced no `matrix` output".into()))?;
    Ok(PerSampleGradients::new(n, p, matrix.into_vec()))
}
