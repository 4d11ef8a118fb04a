//! A telemetry sink that keeps every span as a timed interval, and the span
//! tree, self time and folded stacks built from those intervals.
//!
//! The program publishes spans through `micronas_telemetry` as
//! `(label, duration)` pairs reported when each span ends. [`TimelineSink`]
//! stamps the end time and the recording thread on arrival, which is enough
//! to rebuild the tree afterwards: spans on one thread nest lexically (they
//! are RAII guards), and a thread's outermost span belongs under the
//! innermost span that was open on the driving thread at the time, because
//! the workspace's parallel maps are fork-join — the spawning thread waits
//! inside its span until every worker returns.

use micronas_telemetry::{Collector, TelemetryReport, TelemetrySink};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span, in nanoseconds since the sink's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSpan {
    pub label: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Small dense id of the calling thread (0 for the first thread that asks).
pub fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

const SHARDS: usize = 8;

/// Records spans as intervals and forwards counters and gauges to a
/// [`Collector`], whose registry the benchmark reads the program's work
/// counters from.
pub struct TimelineSink {
    epoch: Instant,
    spans: [Mutex<Vec<RawSpan>>; SHARDS],
    collector: Collector,
}

impl TimelineSink {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Default::default(),
            collector: Collector::new(),
        }
    }

    /// Nanoseconds since the sink's epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records an interval the benchmark timed itself.
    pub fn record_interval(&self, label: &'static str, start_ns: u64, end_ns: u64) {
        let thread = thread_ordinal();
        let span = RawSpan {
            label,
            thread,
            start_ns,
            end_ns: end_ns.max(start_ns),
        };
        self.spans[thread as usize % SHARDS]
            .lock()
            .expect("span shard lock is never held across a panic")
            .push(span);
    }

    /// Takes every span and counter recorded so far, leaving the sink empty.
    pub fn drain(&self) -> (Vec<RawSpan>, TelemetryReport) {
        let mut all = Vec::new();
        for shard in &self.spans {
            all.append(
                &mut shard
                    .lock()
                    .expect("span shard lock is never held across a panic"),
            );
        }
        let report = self.collector.report();
        self.collector.reset();
        (all, report)
    }
}

impl TelemetrySink for TimelineSink {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record_span(&self, label: &'static str, nanos: u64) {
        let end = self.now_ns();
        self.record_interval(label, end.saturating_sub(nanos), end);
    }

    fn add_counter(&self, name: &'static str, delta: u64) {
        self.collector.metrics().add(name, delta);
    }

    fn gauge_max(&self, name: &'static str, value: u64) {
        self.collector.metrics().gauge_max(name, value);
    }
}

/// A span placed in the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    pub span: RawSpan,
    pub parent: Option<usize>,
    /// Duration minus the part of it covered by the node's children (on any
    /// thread), counted once where children overlap.
    pub self_ns: u64,
}

/// Builds the span tree. Within a thread a span's parent is the innermost
/// span that contains it. A thread's outermost spans hang under the
/// innermost span of thread `main_thread` that contains them (`None` when none
/// does).
pub fn build_tree(spans: &[RawSpan], main_thread: u64) -> Vec<Node> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Outer spans first: by thread, start ascending, end descending.
    order.sort_by(|&a, &b| {
        let (x, y) = (&spans[a], &spans[b]);
        (x.thread, x.start_ns, std::cmp::Reverse(x.end_ns)).cmp(&(
            y.thread,
            y.start_ns,
            std::cmp::Reverse(y.end_ns),
        ))
    });
    let mut nodes: Vec<Node> = order
        .iter()
        .map(|&i| Node {
            span: spans[i],
            parent: None,
            self_ns: 0,
        })
        .collect();

    let contains = |outer: &RawSpan, inner: &RawSpan| {
        outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns
    };
    let mut stack: Vec<usize> = Vec::new();
    let mut current_thread = None;
    let mut roots = Vec::new();
    for idx in 0..nodes.len() {
        let span = nodes[idx].span;
        if current_thread != Some(span.thread) {
            stack.clear();
            current_thread = Some(span.thread);
        }
        while let Some(&top) = stack.last() {
            if contains(&nodes[top].span, &span) {
                break;
            }
            stack.pop();
        }
        match stack.last() {
            Some(&top) => nodes[idx].parent = Some(top),
            None => roots.push(idx),
        }
        stack.push(idx);
    }

    // Cross-thread roots: the innermost main-thread span whose interval holds them.
    let main_nodes: Vec<usize> = (0..nodes.len())
        .filter(|&i| nodes[i].span.thread == main_thread)
        .collect();
    for &root in &roots {
        let span = nodes[root].span;
        if span.thread == main_thread {
            continue;
        }
        nodes[root].parent = main_nodes
            .iter()
            .copied()
            .filter(|&d| contains(&nodes[d].span, &span))
            .min_by_key(|&d| nodes[d].span.end_ns - nodes[d].span.start_ns);
    }

    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nodes.len()];
    for node in &nodes {
        if let Some(p) = node.parent {
            children[p].push((node.span.start_ns, node.span.end_ns));
        }
    }
    for (node, kids) in nodes.iter_mut().zip(children) {
        let covered = union_length(kids, node.span.start_ns, node.span.end_ns);
        node.self_ns = (node.span.end_ns - node.span.start_ns).saturating_sub(covered);
    }
    nodes
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_length(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Total self time per span label.
pub fn self_time_by_label(nodes: &[Node]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for node in nodes {
        *out.entry(node.span.label).or_insert(0) += node.self_ns;
    }
    out
}

/// Number of spans per label.
pub fn count_by_label(nodes: &[Node]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for node in nodes {
        *out.entry(node.span.label).or_insert(0) += 1;
    }
    out
}

fn stack_of(nodes: &[Node], mut idx: usize) -> String {
    let mut labels = vec![nodes[idx].span.label];
    while let Some(p) = nodes[idx].parent {
        labels.push(nodes[p].span.label);
        idx = p;
    }
    labels.reverse();
    labels.join(";")
}

/// Folded stacks (`root;child;leaf <self ns>`, one line per distinct stack,
/// sorted), the input format of flamegraph tools.
pub fn folded_stacks(nodes: &[Node]) -> String {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for idx in 0..nodes.len() {
        *stacks.entry(stack_of(nodes, idx)).or_insert(0) += nodes[idx].self_ns;
    }
    let mut out = String::new();
    for (stack, ns) in stacks {
        let _ = writeln!(out, "{stack} {ns}");
    }
    out
}

/// The tree as JSON lines: one node per line with its id and parent id.
pub fn tree_jsonl(nodes: &[Node]) -> String {
    let mut out = String::new();
    for (id, node) in nodes.iter().enumerate() {
        let parent = node.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"label\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            node.span.label, node.span.thread, node.span.start_ns, node.span.end_ns, node.self_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(label: &'static str, thread: u64, start_ns: u64, end_ns: u64) -> RawSpan {
        RawSpan {
            label,
            thread,
            start_ns,
            end_ns,
        }
    }

    fn node<'a>(nodes: &'a [Node], label: &str) -> &'a Node {
        nodes.iter().find(|n| n.span.label == label).unwrap()
    }

    #[test]
    fn nested_spans_on_one_thread_subtract_their_children() {
        let spans = [
            span("leaf", 0, 20, 30),
            span("op", 0, 0, 100),
            span("mid", 0, 10, 60),
        ];
        let nodes = build_tree(&spans, 0);
        assert_eq!(node(&nodes, "op").self_ns, 50);
        assert_eq!(node(&nodes, "mid").self_ns, 40);
        assert_eq!(node(&nodes, "leaf").self_ns, 10);
        let mid = node(&nodes, "mid");
        assert_eq!(nodes[mid.parent.unwrap()].span.label, "op");
        assert_eq!(folded_stacks(&nodes), "op 50\nop;mid 40\nop;mid;leaf 10\n");
    }

    #[test]
    fn children_overlapping_on_two_threads_are_subtracted_once() {
        // The main thread waits in `step` while two workers run packs that
        // overlap in time; each pack holds a gemm.
        let spans = [
            span("op", 0, 0, 1000),
            span("step", 0, 100, 900),
            span("pack", 1, 200, 700),
            span("pack", 2, 300, 800),
            span("gemm", 1, 250, 450),
            span("gemm", 2, 500, 600),
        ];
        let nodes = build_tree(&spans, 0);
        let step = nodes.iter().position(|n| n.span.label == "step").unwrap();
        for n in nodes.iter().filter(|n| n.span.label == "pack") {
            assert_eq!(
                n.parent,
                Some(step),
                "worker roots hang under the main thread"
            );
        }
        // step: 800 long, covered by the union [200, 800] of its children.
        assert_eq!(nodes[step].self_ns, 200);
        assert_eq!(node(&nodes, "op").self_ns, 200);
        let by_label = self_time_by_label(&nodes);
        assert_eq!(by_label["pack"], 300 + 400, "each pack minus its own gemm");
        assert_eq!(by_label["gemm"], 300);
        // Busy time over both threads exceeds the wall time of `op`.
        let total: u64 = by_label.values().sum();
        assert_eq!(total, 200 + 200 + 700 + 300);
    }

    #[test]
    fn adjacent_spans_are_siblings_not_nested() {
        let spans = [
            span("a", 0, 0, 10),
            span("b", 0, 10, 20),
            span("c", 0, 20, 20),
        ];
        let nodes = build_tree(&spans, 0);
        assert!(nodes.iter().take(2).all(|n| n.parent.is_none()));
        assert_eq!(self_time_by_label(&nodes)["a"], 10);
    }

    #[test]
    fn sink_records_intervals_and_counters() {
        let sink = TimelineSink::new();
        sink.record_span("x", 5);
        sink.add_counter("c", 3);
        sink.add_counter("c", 4);
        let (spans, report) = sink.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].end_ns - spans[0].start_ns, 5);
        assert_eq!(report.counter("c"), 7);
        let (spans, report) = sink.drain();
        assert!(
            spans.is_empty() && report.is_empty(),
            "drain empties the sink"
        );
    }
}
