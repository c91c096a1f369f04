//! Memory regressions of the serving path, measured on the live heap.
//!
//! A counting global allocator tracks the live heap. Two phases:
//!
//! 1. **Thaw.** Thawing the golden fixture may peak above the heap the
//!    finished bundle keeps only by transients (one read chunk, the small
//!    sections, scratch tables of model construction), which must stay under
//!    half the artifact's size. A thaw that reads the whole file into a
//!    buffer before copying it out peaks at least a whole artifact above
//!    what it keeps. The thaw's allocation calls are bounded too, so the
//!    flat vocabulary and KB indexes cannot drift back to a heap block per
//!    key.
//! 2. **Retention.** Once the thawed model has served one request, every
//!    further `run` call must hand back all the heap it took: the tape's
//!    buffers are freed when its graph drops, and nothing keeps them for
//!    later requests. The golden dev sentences have varied lengths, so they
//!    produce tensor shapes the warm-up never saw; a buffer cache keyed by
//!    shape would grow on each new one.
//!
//! The allocator is process-wide, so this file holds exactly one test.

use bootleg::core::{frozen, Example, ForwardOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated, and the most seen since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) ever made.
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(n: usize) {
    CALLS.fetch_add(1, Ordering::SeqCst);
    let live = LIVE.fetch_add(n, Ordering::SeqCst) + n;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(n: usize) {
    LIVE.fetch_sub(n, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds bookkeeping on the side, so `System`'s guarantees
// carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded from our caller, who upholds `alloc_zeroed`'s
        // contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from our caller, who upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded from our caller, who upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Count the new block before releasing the old one: a moving
            // realloc holds both for a moment.
            grew(new_size);
            shrank(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocation calls a thaw of the golden fixture may make: ~3,200 measured,
/// most of them the KB's per-record vectors and strings. The vocabulary
/// and the KB's lookup indexes take a handful of blocks each; a map with
/// one heap block per word, alias surface or neighbor set takes ~6,100.
const THAW_ALLOC_CALLS: usize = 3500;

/// Heap a `run` call may leave behind for good: one-time lazy state (a
/// metrics handle, a pool queue slot) on a code path the warm-up missed.
const RETAIN_SLACK: usize = 16 << 10;

#[test]
fn thaw_peak_heap_stays_under_half_the_artifact() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden.btfz");
    let artifact_bytes = std::fs::metadata(&path).expect("stat tests/data/golden.btfz").len();

    PEAK.store(LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
    let calls_before = CALLS.load(Ordering::SeqCst);
    let bundle = frozen::thaw_from_path(&path).expect("thaw the golden fixture");
    let calls = CALLS.load(Ordering::SeqCst) - calls_before;
    let after = LIVE.load(Ordering::SeqCst);
    let peak = PEAK.load(Ordering::SeqCst);
    assert_eq!(bundle.model.n_entities, 160, "the golden fixture's model");

    let transient = peak.saturating_sub(after) as u64;
    println!(
        "artifact {artifact_bytes} B, heap after thaw {after} B, peak {peak} B, {calls} \
         allocation calls"
    );
    assert!(
        transient <= artifact_bytes / 2,
        "thaw peaked {transient} B above the heap it keeps; the bound is half the \
         {artifact_bytes} B artifact"
    );
    assert!(
        calls <= THAW_ALLOC_CALLS,
        "thaw made {calls} allocation calls; the bound is {THAW_ALLOC_CALLS}"
    );

    let (_, corpus, live) = frozen::golden_inputs();
    drop(live);
    let dev: Vec<Example> = corpus.dev.iter().filter_map(Example::evaluation).collect();
    drop(corpus);
    assert!(dev.len() > 8, "golden corpus must supply more than one batch of dev sentences");
    let (model, kb) = (&bundle.model, &bundle.kb);
    let opts = ForwardOptions::inference();
    drop(model.run(kb, &dev[..1], opts).expect("no deadline"));
    let settled = LIVE.load(Ordering::SeqCst);
    for batch in [1, 8] {
        for (i, chunk) in dev.chunks(batch).enumerate() {
            drop(model.run(kb, chunk, opts).expect("no deadline"));
            let live = LIVE.load(Ordering::SeqCst);
            assert!(
                live <= settled + RETAIN_SLACK,
                "batch {batch} call {i} left {} B more live heap than after the warm-up",
                live - settled
            );
        }
    }
}
