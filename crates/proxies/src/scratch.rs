//! Per-thread scratch arena shared by the proxy evaluators.
//!
//! Proxy evaluation is called once per candidate, thousands of times per
//! search, and its batch-level tensors are large enough that fresh
//! allocations per call cost mmap round-trips and page faults. A
//! thread-local [`Workspace`] keeps those buffers hot across candidates —
//! each rayon worker owns its own arena, so parallel scoring stays
//! deterministic and lock-free, and because the pool's workers persist for
//! the whole process, a worker's arena stays warm from one parallel map to
//! the next, not just within one. The NTK and linear-region evaluators share
//! one arena per thread, so buffers stay warm across *both* halves of every
//! candidate evaluation; [`Workspace::reset_if_larger_than`] on the way out
//! stops one huge probe geometry from pinning peak memory for the rest of
//! the run without churning the steady-state buffers.

use micronas_tensor::Workspace;
use std::cell::RefCell;

thread_local! {
    static PROXY_WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Arena footprint above which the thread workspace is released after an
/// evaluation. Paper-scale evaluation needs a few MiB (its largest single
/// request is about 2.3 MiB; the packed conv forward stages one image's
/// columns at a time); only a far-out-of-band probe geometry trips this,
/// so ordinary candidate streams never re-allocate between evaluations.
/// Equals [`micronas_tensor::DEFAULT_ARENA_RETENTION_CAP`].
const MAX_ARENA_BYTES: usize = micronas_tensor::DEFAULT_ARENA_RETENTION_CAP;

/// Runs `f` with this thread's proxy workspace, releasing the arena
/// afterwards only if an outsized evaluation blew it past the 64 MiB
/// retention cap (`MAX_ARENA_BYTES`).
///
/// Public so external [`crate::Proxy`] implementations share the same warm
/// arena as the built-in evaluators (the trait's provided
/// [`crate::Proxy::evaluate`] goes through here).
///
/// # Panics
///
/// Panics if called re-entrantly from inside `f` (the evaluators never nest).
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    PROXY_WORKSPACE.with(|cell| {
        let mut ws = cell.borrow_mut();
        let out = f(&mut ws);
        ws.reset_if_larger_than(MAX_ARENA_BYTES);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_persists_within_a_thread_and_outsized_arenas_are_released() {
        let cap_after_big = with_thread_workspace(|ws| {
            let t = ws.take_zeroed(1 << 18);
            ws.recycle(t);
            ws.capacity_bytes()
        });
        assert!(cap_after_big >= (1 << 18) * 4);
        // An ordinary-sized arena persists across evaluations (the whole
        // point: NTK and linear-region passes share warm buffers).
        let cap_at_next_entry = with_thread_workspace(|ws| ws.capacity_bytes());
        assert_eq!(cap_at_next_entry, cap_after_big);
        // An outsized evaluation is released on the way out.
        with_thread_workspace(|ws| {
            let t = ws.take_zeroed(MAX_ARENA_BYTES / 4 + 1);
            ws.recycle(t);
        });
        let cap_after_outsized = with_thread_workspace(|ws| ws.capacity_bytes());
        assert_eq!(cap_after_outsized, 0, "outsized arena must be released");
    }
}
