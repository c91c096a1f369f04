//! # bootleg-pool
//!
//! The data-parallel execution layer: a small, dependency-free thread pool
//! with *scoped* fork-join primitives ([`parallel_for`], [`map`],
//! [`parallel_chunks_mut`]). No registry crates — same offline pattern as
//! the in-repo `rand`/`proptest` shims.
//!
//! ## Design
//!
//! A fixed set of worker threads parks on a condvar. A fork-join call
//! publishes one *job* — an erased `Fn(lo, hi)` plus an atomic chunk cursor —
//! wakes the workers, and then **participates itself**: every thread (caller
//! included) repeatedly claims the next unclaimed chunk with a single
//! `fetch_add`, which is work stealing in its simplest deterministic-output
//! form: fast threads automatically absorb the chunks slow threads never
//! reach, with no per-thread deques to rebalance. The call returns when
//! every chunk has run and every worker has left the claim loop, so borrowed
//! captures (`&[f32]` slices, `&Model`) never outlive the call — scoped
//! parallelism without `'static` bounds.
//!
//! ## Determinism
//!
//! Chunks map to *disjoint* output ranges and every chunk computes exactly
//! the bytes the serial loop would compute for those indexes, in the same
//! within-chunk order. Scheduling therefore never changes results: output is
//! bit-identical to serial execution at any thread count.
//!
//! ## Nesting and fallbacks
//!
//! Calls made *from inside* a pool task run serially (a thread-local flag
//! short-circuits them), so `par_evaluate → forward → matmul` cannot
//! deadlock: the outer sentence-level parallelism wins and the inner kernel
//! parallelism degrades to the serial path. A fork-join attempted while the
//! pool is already busy from another thread also runs serially rather than
//! queueing.
//!
//! The global pool size comes from `BOOTLEG_THREADS` (default: available
//! parallelism). [`with_pool`] overrides the pool used by the module-level
//! helpers on the current thread — tests use it to pin exact thread counts.
//!
//! ## Panic safety
//!
//! A panicking task closure cannot wedge the pool: each chunk runs under
//! `catch_unwind`, the remaining chunks still execute, every worker leaves
//! the claim loop, and the *first* panic's original payload is re-raised in
//! the publishing caller (`resume_unwind`, message and type intact) once the
//! job has fully drained. Workers survive to serve the next job, and
//! `pool.panics` counts propagated panics.
//!
//! ## Observability
//!
//! Fork-joins report through `bootleg-obs`: `pool.jobs` /
//! `pool.serial_fallback` count scheduling decisions, `pool.chunks` and
//! `pool.chunks_stolen` count chunk claims (total vs claimed by spawned
//! workers rather than the publishing caller), `pool.worker.{i}.busy_ns` and
//! `pool.caller.busy_ns` break down busy time per thread, and
//! `pool.queue_depth` tracks unclaimed chunks of the in-flight job. All of
//! it is off (a load + branch per update) under `BOOTLEG_METRICS=0`.

use bootleg_obs::{counter, gauge};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

thread_local! {
    /// Set while this thread is executing pool chunks; nested fork-joins
    /// observe it and run serially.
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
    /// Per-thread pool override installed by [`with_pool`].
    static POOL_OVERRIDE: Cell<Option<NonNull<ThreadPool>>> = const { Cell::new(None) };
}

/// One published fork-join job: an erased task plus its chunk geometry.
/// The task pointer borrows the caller's stack; the claim protocol (see
/// `run_chunks`) guarantees no dereference can happen after the owning
/// `parallel_for` call returns.
#[derive(Clone, Copy)]
struct JobDesc {
    task: *const (dyn Fn(usize, usize) + Sync),
    n: usize,
    chunk: usize,
    n_chunks: usize,
}

// SAFETY: the raw task pointer is only dereferenced while the owning call is
// blocked waiting for completion, and only by threads registered in `active`;
// the closure behind it is `Sync`, so sharing it across threads is sound. The
// other fields are plain `usize`s.
unsafe impl Send for JobDesc {}

struct State {
    job: Option<JobDesc>,
    /// Bumped once per published job so parked workers can tell new work
    /// from a spurious wakeup.
    epoch: u64,
    /// Workers currently inside the claim loop of the published job.
    active: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    job_cv: Condvar,
    done_cv: Condvar,
    /// Next unclaimed chunk index of the current job.
    next: AtomicUsize,
    /// Chunks fully executed so far.
    completed: AtomicUsize,
    /// A chunk panicked; the owning call re-raises after joining.
    panicked: AtomicBool,
    /// Payload of the *first* chunk panic of the current job. The owning
    /// call resumes the unwind with it after all workers quiesce, so the
    /// caller sees the original panic (message and type intact) instead of
    /// a generic wrapper — and never a hang or a silently dropped chunk.
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A fixed-size pool of worker threads with scoped fork-join calls.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Spawns a pool executing on `threads` threads total (the calling
    /// thread participates, so `threads - 1` workers are spawned).
    /// `threads == 1` (or 0) yields a pool that always runs serially.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State { job: None, epoch: 0, active: 0, shutdown: false }),
            job_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bootleg-pool-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers, threads }
    }

    /// Total threads participating in fork-joins (callers + workers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(lo, hi)` over a partition of `0..n` into chunks of at most
    /// `grain` items, in parallel. Falls back to one serial `f(0, n)` call
    /// when the pool has one thread, the work is a single chunk, the caller
    /// is itself a pool task, or the pool is busy from another thread.
    ///
    /// `f` must treat `lo..hi` as its exclusive slice of the index space;
    /// under that contract results are bit-identical to `f(0, n)`.
    pub fn parallel_for(&self, n: usize, grain: usize, f: impl Fn(usize, usize) + Sync) {
        if n == 0 {
            return;
        }
        let grain = grain.max(1);
        let n_chunks = n.div_ceil(grain);
        if self.threads <= 1 || n_chunks <= 1 || IN_POOL_TASK.with(Cell::get) {
            counter!("pool.serial_fallback").inc();
            f(0, n);
            return;
        }
        // Erase the closure's lifetime: the completion protocol below keeps
        // the borrow alive for as long as any thread can dereference it.
        let f_ref: &(dyn Fn(usize, usize) + Sync) = &f;
        // SAFETY: only the lifetime changes (same fat-pointer layout). This
        // call does not return, nor unwind past `f`, until every chunk has
        // completed and no worker is left in the claim loop, so no thread
        // dereferences `task` after `f` is dropped.
        let task: *const (dyn Fn(usize, usize) + Sync) =
            unsafe { std::mem::transmute(f_ref) };
        let job = JobDesc { task, n, chunk: grain, n_chunks };
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            if st.job.is_some() {
                // Another thread's fork-join owns the workers; don't queue.
                drop(st);
                counter!("pool.serial_fallback").inc();
                f(0, n);
                return;
            }
            counter!("pool.jobs").inc();
            self.shared.next.store(0, Ordering::SeqCst);
            self.shared.completed.store(0, Ordering::SeqCst);
            self.shared.panicked.store(false, Ordering::SeqCst);
            st.job = Some(job);
            st.epoch += 1;
            self.shared.job_cv.notify_all();
        }
        // The caller is a worker too.
        IN_POOL_TASK.with(|c| c.set(true));
        let start = Instant::now();
        run_chunks(&self.shared, &job);
        counter!("pool.caller.busy_ns").add(start.elapsed().as_nanos() as u64);
        IN_POOL_TASK.with(|c| c.set(false));
        // Wait until every chunk ran AND every worker left the claim loop:
        // only then is it safe to invalidate `task` (and return).
        let mut st = self.shared.state.lock().expect("pool lock");
        while self.shared.completed.load(Ordering::SeqCst) < job.n_chunks || st.active > 0 {
            st = self.shared.done_cv.wait(st).expect("pool wait");
        }
        st.job = None;
        drop(st);
        if self.shared.panicked.swap(false, Ordering::SeqCst) {
            counter!("pool.panics").inc();
            let payload = self
                .shared
                .panic_payload
                .lock()
                .expect("pool panic-payload lock")
                .take();
            match payload {
                // Re-raise the worker's original panic in the caller, as if
                // the caller's own serial loop had panicked.
                Some(p) => std::panic::resume_unwind(p),
                None => panic!("bootleg-pool: a parallel task panicked"),
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool lock");
            st.shutdown = true;
            self.shared.job_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    IN_POOL_TASK.with(|c| c.set(true));
    // Resolved once per worker thread; `index` is process-global enough for a
    // per-worker busy-time breakdown (pools are few and long-lived).
    let busy_ns = bootleg_obs::metrics::counter(&format!("pool.worker.{index}.busy_ns"));
    let mut my_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != my_epoch {
                    my_epoch = st.epoch;
                    if let Some(j) = st.job {
                        st.active += 1;
                        break j;
                    }
                    // The job already completed while we were parked;
                    // fall through and keep waiting for the next epoch.
                }
                st = shared.job_cv.wait(st).expect("pool wait");
            }
        };
        let start = Instant::now();
        let ran = run_chunks(shared, &job);
        busy_ns.add(start.elapsed().as_nanos() as u64);
        counter!("pool.chunks_stolen").add(ran as u64);
        let mut st = shared.state.lock().expect("pool lock");
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// Claim-and-run loop shared by workers and the publishing caller. A claim
/// only succeeds while unfinished chunks remain, and an unfinished chunk
/// keeps `completed < n_chunks`, which keeps the publisher blocked — so the
/// task borrow is always alive when dereferenced. Returns how many chunks
/// this thread executed (for the steal/busy-time breakdown).
fn run_chunks(shared: &Shared, job: &JobDesc) -> usize {
    let mut ran = 0usize;
    loop {
        let c = shared.next.fetch_add(1, Ordering::Relaxed);
        if c >= job.n_chunks {
            counter!("pool.chunks").add(ran as u64);
            gauge!("pool.queue_depth").set(0.0);
            return ran;
        }
        gauge!("pool.queue_depth").set(job.n_chunks.saturating_sub(c + 1) as f64);
        let lo = c * job.chunk;
        let hi = (lo + job.chunk).min(job.n);
        // SAFETY: claim `c` is an unfinished chunk, which keeps the
        // publisher blocked in `parallel_for` with its closure alive.
        let f = unsafe { &*job.task };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(lo, hi))) {
            // Keep the first payload; later panics of the same job are
            // subsumed (the caller can only re-raise one).
            let mut slot = shared.panic_payload.lock().expect("pool panic-payload lock");
            if slot.is_none() {
                *slot = Some(payload);
            }
            drop(slot);
            shared.panicked.store(true, Ordering::SeqCst);
        }
        ran += 1;
        shared.completed.fetch_add(1, Ordering::SeqCst);
    }
}

/// Raw-pointer wrapper that lets disjoint-index writers share a buffer.
/// Access goes through [`SendPtr::get`] so closures capture the `Sync`
/// wrapper rather than the raw field (2021 disjoint capture).
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only used to write disjoint elements (`map`) or to
// form disjoint sub-slices (`parallel_chunks_mut`) of a buffer the caller
// keeps borrowed until every chunk has finished. Other threads write and
// drop `T` values through it, hence `T: Send`.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as for `Send`: concurrent users never touch the same element.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

impl ThreadPool {
    /// Parallel, order-preserving map over a slice. Each item is computed
    /// exactly as a serial `items.iter().map(f).collect()` would.
    pub fn map<T: Sync, R: Send>(
        &self,
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        let out_ptr = SendPtr(out.as_mut_ptr());
        self.parallel_for(items.len(), 1, |lo, hi| {
            for (i, item) in items.iter().enumerate().take(hi).skip(lo) {
                let r = f(item);
                // SAFETY: `i < items.len() == out.len()`, and chunk index
                // ranges are disjoint, so no two writers alias; `out` outlives
                // the `parallel_for` call.
                unsafe { *out_ptr.get().add(i) = Some(r) };
            }
        });
        out.into_iter().map(|o| o.expect("chunk filled its range")).collect()
    }

    /// Splits `data` into consecutive chunks of `chunk_len` elements and
    /// runs `f(chunk_index, chunk)` on each in parallel. Chunks are
    /// disjoint, so `f` gets a real `&mut` without locking.
    pub fn parallel_chunks_mut<T: Send>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        if data.is_empty() {
            return;
        }
        let chunk_len = chunk_len.max(1);
        let total = data.len();
        let n_chunks = total.div_ceil(chunk_len);
        let base = SendPtr(data.as_mut_ptr());
        self.parallel_for(n_chunks, 1, |lo, hi| {
            for ci in lo..hi {
                let start = ci * chunk_len;
                let len = chunk_len.min(total - start);
                // SAFETY: `start + len <= total`, so the range lies inside
                // `data`; chunk `ci` is visited once, so the sub-slices are
                // disjoint; `data` stays mutably borrowed for the call.
                let chunk =
                    unsafe { std::slice::from_raw_parts_mut(base.get().add(start), len) };
                f(ci, chunk);
            }
        });
    }
}

/// Number of threads the global pool uses: `BOOTLEG_THREADS` if set to a
/// positive integer, else the machine's available parallelism.
pub fn num_threads() -> usize {
    match std::env::var("BOOTLEG_THREADS").ok().and_then(|s| s.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide pool, lazily sized by [`num_threads`].
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(num_threads()))
}

/// Runs `f` with `pool` installed as the pool used by the module-level
/// [`parallel_for`]/[`map`]/[`parallel_chunks_mut`] helpers *on this
/// thread*. Restores the previous override on exit (also on panic).
pub fn with_pool<R>(pool: &ThreadPool, f: impl FnOnce() -> R) -> R {
    struct Guard(Option<NonNull<ThreadPool>>);
    impl Drop for Guard {
        fn drop(&mut self) {
            POOL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = POOL_OVERRIDE.with(|c| {
        c.replace(Some(NonNull::from(pool)))
    });
    let _guard = Guard(prev);
    f()
}

/// Dispatches to the thread's override pool if one is installed, else the
/// global pool.
fn current<R>(f: impl FnOnce(&ThreadPool) -> R) -> R {
    match POOL_OVERRIDE.with(Cell::get) {
        // SAFETY: `with_pool` keeps the override strictly within the
        // borrow's scope and restores it on unwind.
        Some(p) => f(unsafe { p.as_ref() }),
        None => f(global()),
    }
}

/// [`ThreadPool::parallel_for`] on the thread's current pool.
pub fn parallel_for(n: usize, grain: usize, f: impl Fn(usize, usize) + Sync) {
    current(|p| p.parallel_for(n, grain, f));
}

/// [`ThreadPool::map`] on the thread's current pool.
pub fn map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    current(|p| p.map(items, f))
}

/// [`ThreadPool::parallel_chunks_mut`] on the thread's current pool.
pub fn parallel_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    current(|p| p.parallel_chunks_mut(data, chunk_len, f));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_covers_every_index_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(1000, 7, |lo, hi| {
            for h in &hits[lo..hi] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_preserves_order_and_values() {
        let pool = ThreadPool::new(8);
        let items: Vec<u64> = (0..503).collect();
        let out = pool.map(&items, |&x| x * x + 1);
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn chunks_mut_writes_are_disjoint_and_complete() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0u32; 97];
        pool.parallel_chunks_mut(&mut data, 10, |ci, chunk| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 10 + j) as u32;
            }
        });
        let expect: Vec<u32> = (0..97).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn single_thread_pool_runs_serially() {
        let pool = ThreadPool::new(1);
        let sum = AtomicU64::new(0);
        pool.parallel_for(100, 1, |lo, hi| {
            for i in lo..hi {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn nested_calls_fall_back_to_serial_without_deadlock() {
        let pool = ThreadPool::new(4);
        let outer = AtomicUsize::new(0);
        let inner = AtomicUsize::new(0);
        pool.parallel_for(8, 1, |lo, hi| {
            for _ in lo..hi {
                outer.fetch_add(1, Ordering::Relaxed);
                // Nested use of the same pool must not deadlock.
                pool.parallel_for(10, 2, |l2, h2| {
                    inner.fetch_add(h2 - l2, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(outer.load(Ordering::Relaxed), 8);
        assert_eq!(inner.load(Ordering::Relaxed), 80);
    }

    #[test]
    fn with_pool_overrides_module_helpers() {
        let pool = ThreadPool::new(2);
        let items: Vec<usize> = (0..50).collect();
        let out = with_pool(&pool, || map(&items, |&x| x + 1));
        assert_eq!(out, (1..51).collect::<Vec<_>>());
        // Override is gone afterwards (global path still works).
        let out2 = map(&items[..4], |&x| x);
        assert_eq!(out2, vec![0, 1, 2, 3]);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(64, 1, |lo, _| {
                if lo == 13 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool stays usable after a panic.
        let out = pool.map(&[1, 2, 3], |&x: &i32| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn panic_payload_reaches_the_caller_intact() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(64, 1, |lo, _| {
                if lo == 21 {
                    panic!("boom-{}", 21);
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .expect("string payload");
        assert_eq!(msg, "boom-21", "original panic message must survive the pool");
    }

    #[test]
    fn all_other_chunks_still_run_when_one_panics() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..128).map(|_| AtomicUsize::new(0)).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(128, 1, |lo, hi| {
                if lo == 64 {
                    panic!("mid-job panic");
                }
                for h in &hits[lo..hi] {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            });
        }));
        assert!(result.is_err());
        // Every chunk except the panicking one executed exactly once: the
        // job drains fully before the panic is re-raised (no lost chunks,
        // no hang).
        for (i, h) in hits.iter().enumerate() {
            let expect = usize::from(i != 64);
            assert_eq!(h.load(Ordering::Relaxed), expect, "index {i}");
        }
    }

    #[test]
    fn num_threads_respects_env() {
        std::env::set_var("BOOTLEG_THREADS", "3");
        assert_eq!(num_threads(), 3);
        std::env::set_var("BOOTLEG_THREADS", "not-a-number");
        assert!(num_threads() >= 1);
        std::env::remove_var("BOOTLEG_THREADS");
        assert!(num_threads() >= 1);
    }

    #[test]
    fn many_rounds_reuse_workers() {
        let pool = ThreadPool::new(4);
        for round in 0..200 {
            let sum = AtomicU64::new(0);
            pool.parallel_for(64, 3, |lo, hi| {
                for i in lo..hi {
                    sum.fetch_add((i + round) as u64, Ordering::Relaxed);
                }
            });
            assert_eq!(sum.load(Ordering::Relaxed), (0..64u64).map(|i| i + round as u64).sum());
        }
    }
}
