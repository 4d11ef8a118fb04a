//! Reusable scratch-buffer arena for the im2col/GEMM convolution path and
//! the batched backward kernels.

/// Scratch buffers reused across convolution and backward-pass calls.
///
/// The im2col convolution kernels lower every image to a column matrix
/// before multiplying; without reuse that is one large allocation per layer
/// per forward/backward call, and the NTK / linear-region proxies run
/// thousands of such calls per candidate. A `Workspace` owns those buffers
/// and grows them to the largest size requested, so steady state evaluation
/// performs no allocation at all. Batch-level buffers matter doubly: a
/// batch-32 feature map is ~256 KiB, past the default malloc mmap threshold,
/// so a fresh allocation per call costs page faults on top of the memset.
///
/// Three kinds of scratch live here:
///
/// * the **column buffer** (`col_buffer`) holding the im2col
///   lowering of one image,
/// * the **auxiliary buffer** (`aux_buffer`) for kernels that
///   need a second staging area while the column buffer is in use (e.g. the
///   per-sample weight gradient, which stages transposed gradients while the
///   column buffer holds the im2col lowering), and
/// * a **recycling pool** of whole-tensor buffers
///   ([`Workspace::take_zeroed`] / [`Workspace::recycle`]) used by the
///   batched backward pass for node-gradient and activation tensors.
///
/// # Contract
///
/// * A `Workspace` carries **no** numerical state between calls: every kernel
///   fully overwrites (or receives zero-filled) the region it requests.
///   Buffers may therefore be shared freely across layers, networks and
///   candidates.
/// * Workspaces are cheap to create (`Workspace::default()` holds empty
///   buffers); threading one through a hot loop is purely an allocation
///   optimisation, never a semantic change.
/// * A workspace must not be shared across threads concurrently (the type is
///   deliberately `!Sync` by virtue of requiring `&mut`); give each worker
///   its own instance.
///
/// # Memory policy
///
/// Buffers grow to the largest size requested and stay there by default,
/// which is the right trade for homogeneous workloads. Mixed-shape sequences
/// (e.g. a sweep whose largest cell is much bigger than the typical one)
/// would otherwise pin peak memory for the rest of the run, so callers that
/// interleave shapes can bound the footprint with
/// [`Workspace::reset_if_larger_than`] or [`Workspace::shrink_to_watermark`].
///
/// # Example
///
/// ```
/// use micronas_tensor::{BlockedGemmBackend, Conv2dSpec, KernelBackend, Shape, Tensor, Workspace};
/// # fn main() -> Result<(), micronas_tensor::TensorError> {
/// let input = Tensor::ones(Shape::nchw(1, 3, 8, 8));
/// let weight = Tensor::ones(Shape::nchw(4, 3, 3, 3));
/// let (backend, spec) = (BlockedGemmBackend, Conv2dSpec::new(3, 1, 1));
/// let mut ws = Workspace::default();
/// // Repeated calls reuse the same scratch memory.
/// let a = backend.conv2d(&input, &weight, spec, &mut ws)?;
/// let b = backend.conv2d(&input, &weight, spec, &mut ws)?;
/// assert_eq!(a, b);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// im2col column matrix (`[C_in·K·K, OH·OW]`), also used as the column
    /// gradient staging buffer in the input-gradient kernel.
    col: Vec<f32>,
    /// Second staging buffer for kernels that need scratch while `col` is
    /// live (per-sample weight gradients, pooling).
    aux: Vec<f32>,
    /// Free list of recycled whole-tensor buffers, most recently returned
    /// last. Bounded by [`MAX_POOLED`].
    pool: Vec<Vec<f32>>,
    /// Largest *live* request watermark in bytes since the last shrink:
    /// tracks what the current workload actually needs, as opposed to the
    /// largest request ever seen.
    watermark: usize,
}

/// Upper bound on the number of buffers kept in the recycling pool. Sized
/// for the batched backward pass's working set: a forward trace (stem
/// output, four nodes per cell) plus the node gradients and per-edge
/// temporaries of one cell; anything beyond this is returned to the
/// allocator.
const MAX_POOLED: usize = 24;

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a column buffer of exactly `len` elements.
    ///
    /// The contents are unspecified; callers fully overwrite the region.
    pub(crate) fn col_buffer(&mut self, len: usize) -> &mut [f32] {
        if self.col.len() < len {
            self.col.resize(len, 0.0);
        }
        self.note(len * BYTES);
        &mut self.col[..len]
    }

    /// Returns the auxiliary staging buffer of exactly `len` elements — a
    /// distinct allocation from [`Workspace::col_buffer`], used by the
    /// input-gradient kernel to stage column gradients so the column buffer
    /// stays free for im2col lowerings held across the call.
    ///
    /// The contents are unspecified; callers fully overwrite the region.
    pub(crate) fn aux_buffer(&mut self, len: usize) -> &mut [f32] {
        if self.aux.len() < len {
            self.aux.resize(len, 0.0);
        }
        self.note(len * BYTES);
        &mut self.aux[..len]
    }

    /// Returns the column buffer and the auxiliary buffer simultaneously
    /// (`col_len` and `aux_len` elements respectively), for kernels that
    /// lower into one while staging into the other (the weight-gradient
    /// GEMMs hold an im2col lowering in `col` while transposing gradients
    /// into `aux`).
    ///
    /// Contents of both are unspecified; callers fully overwrite them.
    pub(crate) fn col_and_aux(
        &mut self,
        col_len: usize,
        aux_len: usize,
    ) -> (&mut [f32], &mut [f32]) {
        if self.col.len() < col_len {
            self.col.resize(col_len, 0.0);
        }
        if self.aux.len() < aux_len {
            self.aux.resize(aux_len, 0.0);
        }
        self.note((col_len + aux_len) * BYTES);
        (&mut self.col[..col_len], &mut self.aux[..aux_len])
    }

    /// Takes a zero-filled buffer of `len` elements from the recycling pool
    /// (or the allocator when the pool is empty).
    ///
    /// Pair with [`Workspace::recycle`] so the batched backward pass reuses
    /// the same few large buffers instead of round-tripping the allocator —
    /// batch-level tensors are large enough that every fresh allocation is
    /// an mmap plus page faults.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        self.note(len * BYTES);
        // Prefer the most recently recycled buffer that can already hold the
        // request; backward passes cycle a few shapes in LIFO order, so the
        // last fit is almost always exact.
        let mut buf = match self.pool.iter().rposition(|b| b.capacity() >= len) {
            Some(i) => self.pool.swap_remove(i),
            None => self.pool.pop().unwrap_or_default(),
        };
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Takes a buffer of `len` elements with **unspecified contents** from
    /// the recycling pool (or the allocator). For targets the caller fully
    /// overwrites (copies, activations), this skips [`Workspace::take_zeroed`]'s
    /// clearing pass.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        self.note(len * BYTES);
        let mut buf = match self.pool.iter().rposition(|b| b.capacity() >= len) {
            Some(i) => self.pool.swap_remove(i),
            None => self.pool.pop().unwrap_or_default(),
        };
        if buf.len() >= len {
            buf.truncate(len);
        } else {
            buf.resize(len, 0.0);
        }
        buf
    }

    /// Returns a buffer taken with [`Workspace::take_zeroed`] to the pool.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 && self.pool.len() < MAX_POOLED {
            self.pool.push(buf);
        }
    }

    /// Current scratch footprint in bytes (capacity, not live data), summed
    /// over the column, auxiliary and pooled buffers.
    pub fn capacity_bytes(&self) -> usize {
        (self.col.capacity() + self.aux.capacity()) * BYTES
            + self
                .pool
                .iter()
                .map(|b| b.capacity() * BYTES)
                .sum::<usize>()
    }

    /// Largest single-call scratch requirement (in bytes) observed since the
    /// last [`Workspace::shrink_to_watermark`] /
    /// [`Workspace::reset_if_larger_than`] — i.e. what the *current*
    /// workload needs, as opposed to what the buffers have grown to.
    pub fn watermark_bytes(&self) -> usize {
        self.watermark
    }

    /// Releases all scratch memory.
    pub fn clear(&mut self) {
        self.col = Vec::new();
        self.aux = Vec::new();
        self.pool.clear();
        self.watermark = 0;
    }

    /// Releases buffers, largest first, until the total footprint fits under
    /// `limit_bytes`.
    ///
    /// Call between heterogeneous work items (e.g. candidates of very
    /// different sizes) to stop one huge shape from pinning peak memory for
    /// the rest of the run. A single outsized request — such as the column
    /// panel the packed per-sample backward lowers for a member's whole
    /// batch — releases only the buffers it bloated; ordinary-sized buffers
    /// the steady-state workload keeps warm stay in the arena instead of
    /// being thrown away wholesale. Returns whether anything was released.
    pub fn reset_if_larger_than(&mut self, limit_bytes: usize) -> bool {
        if self.capacity_bytes() <= limit_bytes {
            return false;
        }
        while self.capacity_bytes() > limit_bytes {
            let col_cap = self.col.capacity();
            let aux_cap = self.aux.capacity();
            let (pool_idx, pool_cap) = self
                .pool
                .iter()
                .enumerate()
                .map(|(i, b)| (i, b.capacity()))
                .max_by_key(|&(_, cap)| cap)
                .unwrap_or((0, 0));
            if pool_cap >= col_cap && pool_cap >= aux_cap {
                if pool_cap == 0 {
                    break;
                }
                self.pool.swap_remove(pool_idx);
            } else if col_cap >= aux_cap {
                self.col = Vec::new();
            } else {
                self.aux = Vec::new();
            }
        }
        self.watermark = 0;
        true
    }

    /// Shrinks buffers that are larger than the observed since-last-shrink
    /// watermark, then starts a new watermark window.
    ///
    /// Unlike [`Workspace::reset_if_larger_than`] this keeps buffers the
    /// current workload is actively using at full size; only capacity the
    /// recent workload never touched is returned to the allocator.
    pub fn shrink_to_watermark(&mut self) {
        let keep = self.watermark / BYTES;
        if self.col.capacity() > keep {
            self.col.truncate(keep);
            self.col.shrink_to_fit();
        }
        if self.aux.capacity() > keep {
            self.aux.truncate(keep);
            self.aux.shrink_to_fit();
        }
        self.pool.retain(|b| b.capacity() <= keep);
        self.watermark = 0;
    }

    /// Records a live request against the watermark, and reports it to the
    /// `tensor.workspace.high_water_bytes` gauge on every call: a pool
    /// worker whose watermark peaked before the current sink was installed
    /// must still show up in it. Under a disabled sink the report is one
    /// atomic load.
    fn note(&mut self, bytes: usize) {
        self.watermark = self.watermark.max(bytes);
        micronas_telemetry::gauge_max("tensor.workspace.high_water_bytes", bytes as u64);
    }
}

const BYTES: usize = std::mem::size_of::<f32>();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_grow_monotonically_and_are_reused() {
        let mut ws = Workspace::new();
        assert_eq!(ws.capacity_bytes(), 0);
        let first = ws.col_buffer(100).as_ptr();
        let cap = ws.capacity_bytes();
        assert!(cap >= 400);
        // A smaller request must reuse the same storage.
        let second = ws.col_buffer(10).as_ptr();
        assert_eq!(first, second);
        assert_eq!(ws.capacity_bytes(), cap);
        ws.clear();
        assert_eq!(ws.capacity_bytes(), 0);
    }

    #[test]
    fn buffer_has_requested_length() {
        let mut ws = Workspace::new();
        assert_eq!(ws.col_buffer(17).len(), 17);
        assert_eq!(ws.col_buffer(3).len(), 3);
        assert_eq!(ws.col_buffer(33).len(), 33);
    }

    #[test]
    fn col_and_aux_are_distinct_buffers() {
        let mut ws = Workspace::new();
        ws.col_buffer(64)[0] = 1.0;
        ws.aux_buffer(32)[0] = 2.0;
        assert_eq!(ws.col_buffer(64)[0], 1.0);
        assert_eq!(ws.aux_buffer(32)[0], 2.0);
        assert_eq!(ws.capacity_bytes(), (64 + 32) * BYTES);
    }

    #[test]
    fn take_preserves_capacity_without_zeroing_cost() {
        let mut ws = Workspace::new();
        let mut a = ws.take(100);
        a.fill(5.0);
        ws.recycle(a);
        let b = ws.take(50);
        assert_eq!(b.len(), 50, "unspecified contents, exact length");
        ws.recycle(b);
        let c = ws.take(200);
        assert_eq!(c.len(), 200);
    }

    #[test]
    fn pool_recycles_buffers() {
        let mut ws = Workspace::new();
        let a = ws.take_zeroed(1000);
        let ptr = a.as_ptr();
        ws.recycle(a);
        let b = ws.take_zeroed(500);
        assert_eq!(b.as_ptr(), ptr, "recycled buffer must be reused");
        assert!(b.iter().all(|&v| v == 0.0), "pooled buffers are re-zeroed");
        ws.recycle(b);
        // Dirty data never leaks through the pool.
        let mut c = ws.take_zeroed(1000);
        c.fill(7.0);
        ws.recycle(c);
        assert!(ws.take_zeroed(1000).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = Workspace::new();
        for _ in 0..(MAX_POOLED + 10) {
            ws.recycle(vec![0.0; 8]);
        }
        assert!(ws.capacity_bytes() <= MAX_POOLED * 8 * BYTES);
    }

    #[test]
    fn reset_if_larger_than_bounds_peak_memory() {
        let mut ws = Workspace::new();
        // A single huge shape (e.g. the largest sweep cell) ...
        ws.col_buffer(1 << 20);
        let peak = ws.capacity_bytes();
        assert!(peak >= (1 << 20) * BYTES);
        // ... would pin peak memory for the rest of the run without a
        // policy; under the limit nothing happens, over it everything is
        // released.
        assert!(!ws.reset_if_larger_than(2 * peak));
        assert_eq!(ws.capacity_bytes(), peak);
        assert!(ws.reset_if_larger_than(1 << 18));
        assert_eq!(ws.capacity_bytes(), 0);
        // The workspace stays fully usable afterwards.
        assert_eq!(ws.col_buffer(64).len(), 64);
    }

    #[test]
    fn reset_after_tall_packed_panel_keeps_steady_state_buffers() {
        let mut ws = Workspace::new();
        // Steady-state candidate evaluation: modest col/aux buffers plus a
        // couple of pooled feature maps.
        ws.col_buffer(4 * 1024);
        ws.aux_buffer(2 * 1024);
        let a = ws.take_zeroed(8 * 1024);
        let b = ws.take_zeroed(8 * 1024);
        let pooled_ptr = b.as_ptr();
        ws.recycle(a);
        ws.recycle(b);
        let steady = ws.capacity_bytes();
        // One outsized geometry blows the column panel up ~64×.
        ws.col_buffer(256 * 1024);
        assert!(ws.capacity_bytes() > steady);
        // The policy releases the outsized panel but must NOT throw away the
        // steady-state buffers with it: the pooled feature maps survive.
        assert!(ws.reset_if_larger_than(steady));
        assert!(
            ws.capacity_bytes() <= steady,
            "tall panel still pinned: {} > {steady}",
            ws.capacity_bytes()
        );
        assert!(
            ws.capacity_bytes() >= 2 * 8 * 1024 * BYTES,
            "steady-state pool discarded: {}",
            ws.capacity_bytes()
        );
        let c = ws.take_zeroed(8 * 1024);
        assert_eq!(c.as_ptr(), pooled_ptr, "warm pooled buffer must survive");
        ws.recycle(c);
        // Under the limit, nothing happens.
        assert!(!ws.reset_if_larger_than(steady));
    }

    #[test]
    fn reset_after_tall_packed_backward_panel_keeps_steady_state_buffers() {
        let mut ws = Workspace::new();
        // Steady-state solo backward: a per-sample col lowering plus
        // transpose staging, and pooled `[N, P]` gradient matrices cycling
        // through the pool.
        ws.col_and_aux(4 * 1024, 2 * 1024);
        let a = ws.take_zeroed(16 * 1024);
        let b = ws.take_zeroed(16 * 1024);
        let pooled_ptr = b.as_ptr();
        ws.recycle(a);
        ws.recycle(b);
        let steady = ws.capacity_bytes();
        let steady_watermark = ws.watermark_bytes();
        assert_eq!(steady_watermark, 16 * 1024 * BYTES);
        // One packed backward sweep lowers the full batch into a tall
        // shared column panel: col grows ~N× while aux stays solo-sized.
        ws.col_and_aux(512 * 1024, 2 * 1024);
        assert!(ws.capacity_bytes() > steady);
        assert!(
            ws.watermark_bytes() >= (512 * 1024 + 2 * 1024) * BYTES,
            "watermark missed the packed backward panel: {}",
            ws.watermark_bytes()
        );
        // Selective trim: the tall backward panel goes, the steady-state
        // staging and the warm pooled gradient matrices stay.
        assert!(ws.reset_if_larger_than(steady));
        assert!(
            ws.capacity_bytes() <= steady,
            "tall backward panel still pinned: {} > {steady}",
            ws.capacity_bytes()
        );
        assert!(
            ws.capacity_bytes() >= 2 * 16 * 1024 * BYTES,
            "steady-state pool discarded: {}",
            ws.capacity_bytes()
        );
        let c = ws.take_zeroed(16 * 1024);
        assert_eq!(c.as_ptr(), pooled_ptr, "warm pooled buffer must survive");
        ws.recycle(c);
        // The watermark restarts with the trim: the next window reflects
        // the post-trim workload, not the packed sweep's peak.
        assert_eq!(ws.watermark_bytes(), 16 * 1024 * BYTES);
        assert!(!ws.reset_if_larger_than(steady));
    }

    #[test]
    fn shrink_to_watermark_after_mixed_shapes() {
        let mut ws = Workspace::new();
        // One huge outlier request, then a steady small workload.
        ws.col_buffer(1 << 20);
        ws.shrink_to_watermark(); // close the window containing the outlier
        for _ in 0..8 {
            ws.col_buffer(1024);
            let t = ws.take_zeroed(2048);
            ws.recycle(t);
        }
        assert_eq!(ws.watermark_bytes(), 2048 * BYTES);
        ws.shrink_to_watermark();
        // Regression check on peak capacity: after shrinking, the footprint
        // reflects the small workload, not the 4 MiB outlier.
        assert!(
            ws.capacity_bytes() <= 2 * 2048 * BYTES + 1024 * BYTES,
            "capacity {} still pinned by the outlier",
            ws.capacity_bytes()
        );
        // Still correct afterwards.
        assert_eq!(ws.col_buffer(100).len(), 100);
        assert!(ws.take_zeroed(10).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn every_scoped_collector_sees_the_high_water_request() {
        use micronas_telemetry::{install_scoped, Collector};
        use std::sync::Arc;
        const GAUGE: &str = "tensor.workspace.high_water_bytes";
        // Other tests run concurrently and may feed the process-global
        // sink as well, so the check is a lower bound.
        let len = 777_777;
        let mut ws = Workspace::new();
        for round in 0..2 {
            let collector = Arc::new(Collector::new());
            {
                let _scope = install_scoped(collector.clone());
                ws.col_buffer(len);
            }
            assert!(
                collector.report().gauge(GAUGE) >= (len * BYTES) as u64,
                "round {round}: the repeated request is missing from the gauge"
            );
        }
        assert_eq!(ws.watermark_bytes(), len * BYTES);
    }

    #[test]
    fn watermark_tracks_largest_live_request() {
        let mut ws = Workspace::new();
        ws.col_buffer(10);
        ws.take_zeroed(300);
        ws.col_buffer(100);
        assert_eq!(ws.watermark_bytes(), 300 * BYTES);
    }
}
