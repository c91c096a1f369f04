//! Thaw memory regression: thawing an artifact must not hold the file in
//! memory next to the model it builds.
//!
//! A counting global allocator tracks the live heap. Thawing the golden
//! fixture may peak above the heap the finished bundle keeps only by
//! transients (one read chunk, the small sections, scratch tables of model
//! construction), which must stay under half the artifact's size. A thaw
//! that reads the whole file into a buffer before copying it out peaks at
//! least a whole artifact above what it keeps.
//!
//! The allocator is process-wide, so this file holds exactly one test.

use bootleg::core::frozen;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated, and the most seen since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(n: usize) {
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

#[test]
fn thaw_peak_heap_stays_under_half_the_artifact() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden.btfz");
    let artifact_bytes = std::fs::metadata(&path).expect("stat tests/data/golden.btfz").len();

    PEAK.store(LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
    let bundle = frozen::thaw_from_path(&path).expect("thaw the golden fixture");
    let after = LIVE.load(Ordering::SeqCst);
    let peak = PEAK.load(Ordering::SeqCst);
    assert_eq!(bundle.model.n_entities, 160, "the golden fixture's model");

    let transient = peak.saturating_sub(after) as u64;
    println!("artifact {artifact_bytes} B, heap after thaw {after} B, peak {peak} B");
    assert!(
        transient <= artifact_bytes / 2,
        "thaw peaked {transient} B above the heap it keeps; the bound is half the \
         {artifact_bytes} B artifact"
    );
}
