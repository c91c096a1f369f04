//! Size-bucketed buffer arena: a thread-local free-list of recycled
//! `Vec<f32>` buffers keyed by exact length.
//!
//! The forward/backward pass over a sentence allocates (and zeroes) dozens of
//! intermediate buffers whose sizes repeat from sentence to sentence — the
//! activation of a given layer always has the same shape. Instead of hitting
//! the system allocator per op, [`take`] hands back a previously [`release`]d
//! buffer of the exact requested length when one is available, and the
//! autograd tape releases every node buffer when a graph is dropped, so
//! steady-state training and eval loops run with near-zero tensor
//! allocations.
//!
//! Design notes:
//!
//! * **Thread-local, lock-free.** Each thread (including long-lived pool
//!   workers) owns its own free-list; there is no cross-thread transfer and
//!   therefore no synchronization on the hot path.
//! * **Exact-length buckets.** Keys are `Vec::len()`, not capacity classes.
//!   Model shapes are drawn from a small fixed set, so exact matching gets
//!   ~100% hit rates after one warm-up sentence without over-reserving.
//! * **Numerics-neutral.** Recycled buffers hold stale values; [`take`] is
//!   for sites that fully overwrite, [`take_zeroed`] for sites that
//!   accumulate. Whether a buffer came from the arena or the allocator never
//!   changes the arithmetic, so results are bit-identical with the arena on
//!   or off (enforced by `tests/arena_parity.rs`).
//! * **Bounded.** Per-bucket and per-thread byte caps keep a pathological
//!   shape distribution from pinning unbounded memory; overflow buffers are
//!   simply dropped (counted under `arena.drop`).
//! * **Kill switch.** `BOOTLEG_ARENA=0` (or [`set_enabled`]`(false)`)
//!   degrades every call to a plain allocation so any suspected arena bug can
//!   be ruled out in one run.
//!
//! Traffic is observable through `bootleg-obs` counters: `arena.hit`,
//! `arena.miss` (their sum is the take count), `arena.release`, and
//! `arena.drop`. The take path fires exactly one counter op so the
//! instrumentation stays inside the perf bench's overhead budget.

use crate::tensor::Tensor;
use bootleg_obs::counter;
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};

/// Max recycled buffers kept per exact-length bucket. An autograd tape holds
/// every intermediate of a sentence simultaneously, so one graph can release
/// well over a hundred buffers of the same activation shape at drop time;
/// the cap must absorb that burst or the overflow is dropped and re-missed
/// on the next sentence.
const MAX_PER_BUCKET: usize = 256;

/// Max total bytes of recycled buffers kept per thread.
const MAX_THREAD_BYTES: usize = 64 << 20;

/// Buffers below this length aren't worth recycling. Only zero-length
/// buffers are exempt (they never touch the allocator): per-mention scalar
/// scores and tiny reductions dominate an eval graph's buffer *count*, so
/// exempting even lengths 1-3 leaves most of the steady-state allocator
/// traffic in place.
const MIN_RECYCLE_LEN: usize = 1;

static ENABLED: AtomicBool = AtomicBool::new(true);

thread_local! {
    static FREE: RefCell<FreeList> = RefCell::new(FreeList::from_env());
}

struct FreeList {
    buckets: HashMap<usize, Vec<Vec<f32>>>,
    held_bytes: usize,
    env_enabled: bool,
}

impl FreeList {
    fn from_env() -> Self {
        let env_enabled = std::env::var("BOOTLEG_ARENA").map_or(true, |v| v != "0");
        Self { buckets: HashMap::new(), held_bytes: 0, env_enabled }
    }
}

/// Globally enables or disables recycling at runtime (overridden off by
/// `BOOTLEG_ARENA=0`). Disabling does not drop already-pooled buffers; it
/// just makes [`take`] allocate fresh and [`release`] drop.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` if recycling is active on this thread.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) && FREE.with(|f| f.borrow().env_enabled)
}

/// Takes a buffer of exactly `len` elements with **unspecified contents**
/// (stale values from a prior use, or zeros if freshly allocated). Use only
/// when every element is overwritten before being read; use [`take_zeroed`]
/// otherwise.
pub fn take(len: usize) -> Vec<f32> {
    if enabled() && len >= MIN_RECYCLE_LEN {
        let hit = FREE.with(|f| {
            let mut f = f.borrow_mut();
            let v = f.buckets.get_mut(&len).and_then(Vec::pop);
            if let Some(ref buf) = v {
                f.held_bytes -= buf.len() * std::mem::size_of::<f32>();
            }
            v
        });
        if let Some(buf) = hit {
            counter!("arena.hit").inc();
            debug_assert_eq!(buf.len(), len);
            return buf;
        }
    }
    counter!("arena.miss").inc();
    vec![0.0; len]
}

/// Takes a buffer of exactly `len` elements, all zero.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut buf = take(len);
    buf.iter_mut().for_each(|x| *x = 0.0);
    buf
}

/// Returns a buffer to this thread's free-list for later reuse. Dropped
/// (not pooled) when recycling is disabled, the buffer is tiny, or a cap is
/// hit.
pub fn release(buf: Vec<f32>) {
    counter!("arena.release").inc();
    let len = buf.len();
    let bytes = len * std::mem::size_of::<f32>();
    if !enabled() || len < MIN_RECYCLE_LEN {
        counter!("arena.drop").inc();
        return;
    }
    FREE.with(|f| {
        let mut f = f.borrow_mut();
        if f.held_bytes + bytes > MAX_THREAD_BYTES {
            counter!("arena.drop").inc();
            return;
        }
        let bucket = f.buckets.entry(len).or_default();
        if bucket.len() >= MAX_PER_BUCKET {
            counter!("arena.drop").inc();
            return;
        }
        bucket.push(buf);
        f.held_bytes += bytes;
    });
}

/// Releases a tensor's buffer back to the arena.
pub fn release_tensor(t: Tensor) {
    release(t.into_data());
}

/// A zero-filled tensor whose buffer comes from the arena.
pub fn zeros_tensor(shape: &[usize]) -> Tensor {
    Tensor::new(shape, take_zeroed(crate::shape::numel(shape)))
}

/// A copy of `t` whose buffer comes from the arena.
pub fn clone_tensor(t: &Tensor) -> Tensor {
    let mut buf = take(t.numel());
    buf.copy_from_slice(t.data());
    Tensor::new(t.dims(), buf)
}

/// A scoped arena-backed copy of a tensor: derefs to [`Tensor`] and returns
/// its buffer to the arena on drop. Used for the short-lived value copies the
/// backward pass needs to satisfy the borrow checker.
pub struct TempTensor(Option<Tensor>);

impl Deref for TempTensor {
    type Target = Tensor;

    #[inline]
    fn deref(&self) -> &Tensor {
        self.0.as_ref().expect("TempTensor already dropped")
    }
}

impl Drop for TempTensor {
    fn drop(&mut self) {
        if let Some(t) = self.0.take() {
            release_tensor(t);
        }
    }
}

/// An arena-backed scoped copy of `t` (see [`TempTensor`]).
pub fn temp_clone(t: &Tensor) -> TempTensor {
    TempTensor(Some(clone_tensor(t)))
}

/// Drops every pooled buffer on this thread. Mainly for tests and for
/// bounding memory between phases.
pub fn clear_thread() {
    FREE.with(|f| {
        let mut f = f.borrow_mut();
        f.buckets.clear();
        f.held_bytes = 0;
    });
}

/// Bytes currently pooled on this thread.
pub fn thread_held_bytes() -> usize {
    FREE.with(|f| f.borrow().held_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Arena state is thread-local and the process-global ENABLED flag is
    // shared across tests, so each test runs on its own thread with the
    // flag left enabled, one at a time: `disabled_arena_allocates_fresh`
    // turns the flag off while it runs, which would make a concurrent
    // pooling assertion drop its buffers.
    fn on_own_thread(f: impl FnOnce() + Send + 'static) {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        // The mutex guards no data, so a test that panicked holding it
        // leaves nothing inconsistent behind.
        let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        std::thread::spawn(f).join().unwrap();
    }

    /// Tests that assert pooling behaviour can't run under the
    /// `BOOTLEG_ARENA=0` kill switch (CI exercises the whole suite that way).
    fn pooling_disabled_by_env() -> bool {
        std::env::var("BOOTLEG_ARENA").is_ok_and(|v| v == "0")
    }

    #[test]
    fn take_release_roundtrip_reuses_buffer() {
        if pooling_disabled_by_env() {
            return;
        }
        on_own_thread(|| {
            clear_thread();
            let mut a = take(64);
            a.iter_mut().for_each(|x| *x = 7.0);
            let ptr = a.as_ptr();
            release(a);
            let b = take(64);
            assert_eq!(b.as_ptr(), ptr, "expected the recycled buffer back");
            assert_eq!(b.len(), 64);
            // Contents are unspecified for take(): stale values may persist.
            assert_eq!(b[0], 7.0);
            release(b);
            let c = take_zeroed(64);
            assert!(c.iter().all(|&x| x == 0.0));
        });
    }

    #[test]
    fn mismatched_length_is_a_miss() {
        on_own_thread(|| {
            clear_thread();
            release(take(64));
            let b = take(128);
            assert_eq!(b.len(), 128);
            assert!(b.iter().all(|&x| x == 0.0), "fresh buffer must be zeroed");
        });
    }

    #[test]
    fn tiny_buffers_not_pooled() {
        on_own_thread(|| {
            clear_thread();
            release(take(MIN_RECYCLE_LEN - 1));
            assert_eq!(thread_held_bytes(), 0);
        });
    }

    #[test]
    fn bucket_cap_drops_overflow() {
        if pooling_disabled_by_env() {
            return;
        }
        on_own_thread(|| {
            clear_thread();
            for _ in 0..MAX_PER_BUCKET + 5 {
                release(vec![0.0; 64]);
            }
            let expected = MAX_PER_BUCKET * 64 * std::mem::size_of::<f32>();
            assert_eq!(thread_held_bytes(), expected);
        });
    }

    #[test]
    fn disabled_arena_allocates_fresh() {
        on_own_thread(|| {
            clear_thread();
            release(take(64));
            set_enabled(false);
            let before = thread_held_bytes();
            let b = take(64);
            assert!(b.iter().all(|&x| x == 0.0));
            assert_eq!(thread_held_bytes(), before, "disabled take must not pop the pool");
            release(b);
            assert_eq!(thread_held_bytes(), before, "disabled release must drop");
            set_enabled(true);
        });
    }

    #[test]
    fn tensor_helpers() {
        if pooling_disabled_by_env() {
            return;
        }
        on_own_thread(|| {
            clear_thread();
            let z = zeros_tensor(&[4, 8]);
            assert_eq!(z.shape(), &[4, 8]);
            assert!(z.data().iter().all(|&x| x == 0.0));
            let src = Tensor::from_slice(&[1.0; 32]);
            let c = clone_tensor(&src);
            assert_eq!(c, src);
            {
                let t = temp_clone(&src);
                assert_eq!(t.data(), src.data());
            }
            // temp_clone's buffer was released on drop: the next same-size
            // take should hit.
            release_tensor(c);
            assert!(thread_held_bytes() > 0);
        });
    }
}
