//! Offline stand-in for the `rayon` crate.
//!
//! Implements the small slice of rayon's API this workspace uses —
//! `par_iter().map(..).collect()`, `current_num_threads`, and
//! `ThreadPoolBuilder::num_threads(..).build().install(..)` — on one
//! process-wide pool of persistent worker threads.
//!
//! A parallel map publishes a job to the pool and the calling thread works on
//! it as well. Items are claimed one at a time through an atomic index and
//! each result is stored in its input's slot, so the output is in input order
//! and bitwise identical to the sequential map regardless of thread count and
//! of which thread ran which item. Because the caller always works through
//! its own job, a map issued from inside another map's item — on the caller
//! or on a worker — makes progress even when every worker is busy. A caller
//! whose items are all claimed does not sleep while other threads finish
//! them: it helps the maps nested inside its own items, so a map's threads
//! stay busy to the end however its items were split between them.
//!
//! Workers are spawned lazily, the first time a map asks for more threads
//! than the pool has, and live for the rest of the process, so thread-local
//! state such as scratch arenas stays warm from one map to the next. The pool
//! grows to the largest thread count ever requested; a map of width `k`
//! accepts help only from workers `0..k-1` and from the callers of the maps
//! it is nested in, so a map and the maps nested in it, all of width `k`,
//! never run on more than `k` threads. Idle workers sleep on a condition
//! variable.
//!
//! The thread count resolves, in priority order: the innermost active
//! [`ThreadPool::install`] scope (a worker helping a map runs under that
//! map's count, so nested maps see it too), the `RAYON_NUM_THREADS`
//! environment variable, then `std::thread::available_parallelism()`. The
//! last two are read once per process.
//!
//! A panic inside an item is caught; the map's remaining items are skipped,
//! and once every started item has finished the first panic's own payload is
//! re-raised on the calling thread. The pool stays usable afterwards.

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

thread_local! {
    static POOL_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// The map whose item this thread is running; a map started there is
    /// nested in it.
    static CURRENT_JOB: Cell<Option<Arc<Job>>> = const { Cell::new(None) };
}

/// Commonly used traits, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

/// The number of worker threads parallel operations will use.
pub fn current_num_threads() -> usize {
    POOL_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(default_num_threads)
        .max(1)
}

/// `RAYON_NUM_THREADS` if set to a positive count, else the machine's
/// parallelism; resolved on first use.
fn default_num_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Runs `op` with this thread's count override set to `threads`, restoring
/// the previous override afterwards (also on unwind).
fn with_override<R>(threads: Option<usize>, op: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            POOL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(POOL_OVERRIDE.with(|c| c.replace(threads)));
    op()
}

/// Locks a mutex whose every update leaves its data valid, so a poisoned
/// lock still holds usable state. The pool relies on these locks never
/// panicking between publishing a job and waiting for it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Order-preserving parallel map over a slice.
fn parallel_map<'data, T, U, F>(items: &'data [T], f: &F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&'data T) -> U + Sync,
{
    let width = current_num_threads();
    if width == 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let run = |i: usize| {
        let value = f(&items[i]);
        *lock(&slots[i]) = Some(value);
    };
    pool().run(&run, items.len(), width);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("a finished map has a result in every slot")
        })
        .collect()
}

/// One parallel map in flight.
struct Job {
    /// Maps item `i` and stores its result. Lifetime-erased: valid only while
    /// an item `< len` is unfinished (see [`Pool::run`]).
    run: &'static (dyn Fn(usize) + Sync),
    len: usize,
    /// The map's thread count; workers helping it run under this count.
    width: usize,
    /// The job whose item started this map, if it was started inside one.
    parent: Option<Arc<Job>>,
    /// Next unclaimed item.
    next: AtomicUsize,
    /// Items finished or skipped.
    finished: AtomicUsize,
    /// Set once an item panicked; later items are skipped.
    failed: AtomicBool,
    /// Payload of the first item that panicked.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.len
    }

    fn is_finished(&self) -> bool {
        // Acquire: pairs with the release increments in `work`, so every
        // item's writes are visible once all items count as finished.
        self.finished.load(Ordering::Acquire) == self.len
    }

    /// Whether this map was started, at any depth, inside an item of `job`.
    fn descends_from(&self, job: &Job) -> bool {
        let mut ancestor = self.parent.as_deref();
        while let Some(a) = ancestor {
            if std::ptr::eq(a, job) {
                return true;
            }
            ancestor = a.parent.as_deref();
        }
        false
    }

    /// Claims and runs items until none is left unclaimed, under the job's
    /// thread count and as this thread's current job. Never unwinds.
    fn work(self: &Arc<Self>) {
        let outer = CURRENT_JOB.with(|c| c.replace(Some(Arc::clone(self))));
        with_override(Some(self.width), || loop {
            // Relaxed: the index publishes no data; results travel through
            // the slot mutexes and the `finished` counter.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                break;
            }
            if !self.failed.load(Ordering::Relaxed) {
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.run)(i))) {
                    self.failed.store(true, Ordering::Relaxed);
                    lock(&self.panic).get_or_insert(payload);
                }
            }
            if self.finished.fetch_add(1, Ordering::AcqRel) + 1 == self.len {
                // Taking the pool lock orders this wake-up after a waiter's
                // check of `finished`, so the waiter cannot miss it.
                drop(lock(&pool().state));
                pool().progress.notify_all();
            }
        });
        CURRENT_JOB.with(|c| c.set(outer));
    }
}

/// The process-wide worker pool.
struct Pool {
    state: Mutex<PoolState>,
    /// Idle workers wait here for a map to be published.
    work_available: Condvar,
    /// Callers wait here for their map's last item or for a nested map.
    progress: Condvar,
}

struct PoolState {
    /// Maps in flight, oldest first.
    jobs: Vec<Arc<Job>>,
    /// Workers spawned so far; worker `i` helps only maps wider than `i + 1`.
    workers: usize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            jobs: Vec::new(),
            workers: 0,
        }),
        work_available: Condvar::new(),
        progress: Condvar::new(),
    })
}

impl Pool {
    /// Runs `run(0..len)` on the calling thread plus up to `width - 1`
    /// workers, returning once every item has finished. While other threads
    /// finish its last items, the caller helps maps started inside this
    /// one's items instead of sleeping, so nested maps keep every thread of
    /// the map busy.
    fn run(&'static self, run: &(dyn Fn(usize) + Sync), len: usize, width: usize) {
        // SAFETY: `run` borrows the caller's stack, and workers outlive this
        // call. A thread dereferences `job.run` only in `Job::work`, after
        // claiming an index `< len` and before counting that item finished.
        // This function returns only after it has seen all `len` items
        // finished, so no dereference happens after the borrow ends. Nothing
        // between here and that check can unwind: item panics are caught in
        // `Job::work`, and every lock taken is poison-tolerant.
        let run = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(run)
        };
        let job = Arc::new(Job {
            run,
            len,
            width,
            parent: CURRENT_JOB.with(|c| {
                let current = c.take();
                c.set(current.clone());
                current
            }),
            next: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        {
            let mut state = lock(&self.state);
            self.grow(&mut state, width - 1);
            state.jobs.push(Arc::clone(&job));
        }
        self.work_available.notify_all();
        if job.parent.is_some() {
            self.progress.notify_all();
        }
        job.work();
        let mut state = lock(&self.state);
        state.jobs.retain(|j| !Arc::ptr_eq(j, &job));
        while !job.is_finished() {
            let nested = state
                .jobs
                .iter()
                .find(|j| j.has_unclaimed() && j.descends_from(&job))
                .cloned();
            state = match nested {
                Some(nested) => {
                    drop(state);
                    nested.work();
                    lock(&self.state)
                }
                None => self
                    .progress
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
        drop(state);
        let payload = lock(&job.panic).take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    /// Spawns workers until there are `wanted`. A failed spawn stops the
    /// growth; the caller still finishes its map with fewer helpers.
    fn grow(&'static self, state: &mut PoolState, wanted: usize) {
        while state.workers < wanted {
            let index = state.workers;
            let spawned = std::thread::Builder::new()
                .name(format!("rayon-shim-{index}"))
                .spawn(move || self.worker_loop(index));
            if spawned.is_err() {
                break;
            }
            state.workers += 1;
        }
    }

    fn worker_loop(&'static self, index: usize) {
        loop {
            let job = {
                let mut state = lock(&self.state);
                loop {
                    let eligible = state
                        .jobs
                        .iter()
                        .find(|job| index + 1 < job.width && job.has_unclaimed());
                    if let Some(job) = eligible {
                        break Arc::clone(job);
                    }
                    state = self
                        .work_available
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            job.work();
        }
    }
}

/// Types that expose a borrowing parallel iterator (`par_iter`).
pub trait IntoParallelRefIterator<'data> {
    /// Element yielded by the parallel iterator.
    type Item: 'data;
    /// Creates a parallel iterator borrowing `self`.
    fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = T;
    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = T;
    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

/// A borrowing parallel iterator over a slice.
pub struct ParIter<'data, T> {
    items: &'data [T],
}

impl<'data, T: Sync> ParIter<'data, T> {
    /// Maps every element through `f` in parallel, preserving input order.
    pub fn map<U, F>(self, f: F) -> ParMap<'data, T, F>
    where
        U: Send,
        F: Fn(&'data T) -> U + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// The mapped form of [`ParIter`]; terminal operations execute the map.
pub struct ParMap<'data, T, F> {
    items: &'data [T],
    f: F,
}

impl<'data, T: Sync, F> ParMap<'data, T, F> {
    /// Executes the parallel map and collects the ordered results.
    ///
    /// # Panics
    ///
    /// Re-raises the payload of the first item that panicked, after every
    /// item already started has finished.
    pub fn collect<C, U>(self) -> C
    where
        U: Send,
        F: Fn(&'data T) -> U + Sync,
        C: FromIterator<U>,
    {
        parallel_map(self.items, &self.f).into_iter().collect()
    }
}

/// Error returned by [`ThreadPoolBuilder::build`]; never actually produced.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default (automatic) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker thread count; 0 means automatic.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    ///
    /// # Errors
    ///
    /// Present for API compatibility; this implementation cannot fail.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A thread-count configuration mirroring `rayon::ThreadPool`.
///
/// Every `ThreadPool` shares the one process-wide set of persistent workers;
/// `install` pins the thread *count* for the parallel operations run inside
/// it, including nested maps issued from the workers that help them.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count in force on this thread.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        with_override((self.num_threads > 0).then_some(self.num_threads), op)
    }

    /// The configured thread count (0 = automatic).
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads == 0 {
            current_num_threads()
        } else {
            self.num_threads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn pool_of(threads: usize) -> ThreadPool {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = items.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_and_multi_thread_results_agree() {
        let items: Vec<u64> = (0..257).collect();
        let mix = |&x: &u64| x.wrapping_mul(31).rotate_left(7);
        let one: Vec<u64> = pool_of(1).install(|| items.par_iter().map(mix).collect());
        let many: Vec<u64> = pool_of(8).install(|| items.par_iter().map(mix).collect());
        assert_eq!(one, many);
    }

    #[test]
    fn install_scopes_thread_count() {
        pool_of(3).install(|| assert_eq!(current_num_threads(), 3));
        // Outside install the override is gone.
        assert_ne!(current_num_threads(), 0);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<usize> = Vec::new();
        let out: Vec<usize> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [41usize];
        let out: Vec<usize> = one[..].par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn workers_inherit_the_installed_thread_count() {
        // Three items meeting at a three-way barrier must run on three
        // distinct threads: the caller plus both workers a width-3 map may
        // use. No other test blocks inside an item, so the workers free up.
        let barrier = Barrier::new(3);
        let seen: Vec<(ThreadId, usize, Vec<usize>)> = pool_of(3).install(|| {
            [0usize, 1, 2]
                .par_iter()
                .map(|_| {
                    barrier.wait();
                    let nested: Vec<usize> = [0usize, 1, 2, 3]
                        .par_iter()
                        .map(|_| current_num_threads())
                        .collect();
                    (std::thread::current().id(), current_num_threads(), nested)
                })
                .collect()
        });
        let threads: HashSet<ThreadId> = seen.iter().map(|s| s.0).collect();
        assert_eq!(threads.len(), 3);
        for (_, threads, nested) in &seen {
            assert_eq!(*threads, 3);
            assert_eq!(nested, &vec![3; 4]);
        }
    }

    #[test]
    fn maps_reuse_the_same_threads() {
        let mut threads: HashSet<ThreadId> = HashSet::new();
        pool_of(2).install(|| {
            for round in 0..1000u64 {
                let items: Vec<u64> = (0..4).collect();
                let out: Vec<(u64, ThreadId)> = items
                    .par_iter()
                    .map(|&x| (x + round, std::thread::current().id()))
                    .collect();
                assert_eq!(
                    out.iter().map(|o| o.0).collect::<Vec<_>>(),
                    (round..round + 4).collect::<Vec<_>>()
                );
                threads.extend(out.into_iter().map(|o| o.1));
            }
        });
        assert!(
            threads.len() <= 2,
            "1000 maps of width 2 ran on {} threads",
            threads.len()
        );
    }

    #[test]
    fn nested_maps_match_the_sequential_map() {
        let outer: Vec<u64> = (0..24).collect();
        let nested = |&i: &u64| -> Vec<u64> {
            let inner: Vec<u64> = (0..i * 3).collect();
            inner.par_iter().map(|&j| j * j + i).collect()
        };
        let want: Vec<Vec<u64>> = outer.iter().map(nested).collect();
        for threads in [1usize, 2, 4, 8] {
            let got: Vec<Vec<u64>> =
                pool_of(threads).install(|| outer.par_iter().map(nested).collect());
            assert_eq!(got, want, "{threads} threads");
        }
    }

    /// Blocks until `count` threads have arrived or `patience` ran out;
    /// returns whether all of them arrived.
    fn rendezvous(meeting: &(Mutex<usize>, Condvar), count: usize, patience: Duration) -> bool {
        let (arrived, all_here) = meeting;
        let mut arrived = arrived.lock().unwrap();
        *arrived += 1;
        all_here.notify_all();
        let (arrived, _) = all_here
            .wait_timeout_while(arrived, patience, |n| *n < count)
            .unwrap();
        *arrived >= count
    }

    #[test]
    fn an_idle_thread_helps_a_map_nested_in_another_threads_item() {
        // Item 0 holds its thread until item 1 has started on the other
        // thread, then finishes. Item 1's nested map can only complete its
        // two-way meeting if the thread that ran item 0 — the caller or the
        // worker — picks up the nested map's second item.
        for round in 0..20 {
            let item1_started = (Mutex::new(0usize), Condvar::new());
            let meeting = (Mutex::new(0usize), Condvar::new());
            let met: Vec<bool> = pool_of(2).install(|| {
                [0usize, 1]
                    .par_iter()
                    .map(|&i| {
                        if i == 0 {
                            rendezvous(&item1_started, 2, Duration::from_secs(10))
                        } else {
                            rendezvous(&item1_started, 2, Duration::from_secs(10));
                            let nested: Vec<bool> = [0usize, 1]
                                .par_iter()
                                .map(|_| rendezvous(&meeting, 2, Duration::from_secs(10)))
                                .collect();
                            nested.iter().all(|&m| m)
                        }
                    })
                    .collect()
            });
            assert_eq!(met, vec![true, true], "round {round}");
        }
    }

    #[test]
    fn order_survives_uneven_item_costs() {
        let items: Vec<u64> = (0..64).collect();
        // Early items cost the most, so later items finish first.
        let work = |&x: &u64| -> u64 {
            let mut acc = x;
            for k in 0..(64 - x) * 2000 {
                acc = std::hint::black_box(
                    acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k),
                );
            }
            acc
        };
        let want: Vec<u64> = items.iter().map(work).collect();
        for threads in [2usize, 4] {
            let got: Vec<u64> = pool_of(threads).install(|| items.par_iter().map(work).collect());
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn an_item_panic_keeps_its_payload_and_the_pool_survives() {
        let items: Vec<usize> = (0..64).collect();
        let pool = pool_of(4);
        let caught = panic::catch_unwind(|| {
            pool.install(|| {
                items
                    .par_iter()
                    .map(|&i| {
                        if i == 17 {
                            panic!("item {i} failed");
                        }
                        i
                    })
                    .collect::<Vec<usize>, usize>()
            })
        });
        let payload = caught.expect_err("the item panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("item 17 failed")
        );
        let after: Vec<usize> = pool.install(|| items.par_iter().map(|&i| i + 1).collect());
        assert_eq!(after, (1..65).collect::<Vec<_>>());
    }
}
