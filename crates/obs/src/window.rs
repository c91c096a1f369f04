//! Sliding-window quantile histograms: a time-bucketed ring of fixed-bucket
//! histograms layered over the same bounds scheme as
//! [`Histogram`](crate::metrics::Histogram).
//!
//! A [`WindowHistogram`] holds `slots` time buckets of `width_ms` each
//! (default 12 × 5 s = a one-minute trailing window). An observation lands
//! in the bucket covering its timestamp; a snapshot merges every bucket
//! still inside the trailing window, so p50/p95/p99/max decay as old
//! buckets expire instead of averaging over the whole process lifetime —
//! the serving-dashboard semantics, where "p99 latency" means *now*, not
//! since boot.
//!
//! Timestamps are explicit (`observe_at` / `snapshot_at` take a
//! milliseconds-since-epoch value) so tests drive rotation with a virtual
//! clock; the [`WindowHistogram::observe`] / [`WindowHistogram::snapshot`]
//! conveniences use a process-wide monotonic epoch. Like the rest of the
//! registry, recording is disabled by `BOOTLEG_METRICS=0`.

use crate::metrics::{default_ns_buckets, metrics_enabled, HistogramSnapshot};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default number of time buckets in the ring.
pub const DEFAULT_SLOTS: usize = 12;
/// Default width of one time bucket, in milliseconds.
pub const DEFAULT_WIDTH_MS: u64 = 5_000;

/// Milliseconds since the process-wide monotonic epoch (first use).
pub fn now_ms() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_millis() as u64
}

/// One time bucket of the ring: a fixed-bucket histogram plus count / sum /
/// max, tagged with the absolute bucket index (`gen`) it currently holds.
#[derive(Clone, Debug)]
struct Slot {
    /// Absolute bucket index (`now_ms / width_ms`); `u64::MAX` = never used.
    gen: u64,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl Slot {
    fn new(n_buckets: usize) -> Self {
        Self { gen: u64::MAX, counts: vec![0; n_buckets], count: 0, sum: 0.0, max: f64::NEG_INFINITY }
    }

    fn reset(&mut self, gen: u64) {
        self.gen = gen;
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0.0;
        self.max = f64::NEG_INFINITY;
    }
}

/// A point-in-time summary of one window histogram: the merged histogram of
/// every live time bucket plus the window's max.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSnapshot {
    /// Merged bucket counts over the trailing window.
    pub hist: HistogramSnapshot,
    /// Largest observation in the window (0 when empty).
    pub max: f64,
    /// Total trailing-window span covered, in milliseconds.
    pub window_ms: u64,
}

impl WindowSnapshot {
    /// Bucket-resolution quantile over the trailing window.
    pub fn quantile(&self, q: f64) -> f64 {
        self.hist.quantile(q)
    }

    /// Observations in the window.
    pub fn count(&self) -> u64 {
        self.hist.count
    }
}

/// A sliding-window histogram: `slots` time buckets of `width_ms` each.
pub struct WindowHistogram {
    bounds: Box<[f64]>,
    width_ms: u64,
    slots: Mutex<Vec<Slot>>,
}

impl WindowHistogram {
    fn new(slots: usize, width_ms: u64, bounds: Vec<f64>) -> Self {
        let n = bounds.len() + 1;
        Self {
            bounds: bounds.into_boxed_slice(),
            width_ms: width_ms.max(1),
            slots: Mutex::new((0..slots.max(1)).map(|_| Slot::new(n)).collect()),
        }
    }

    /// Width of one time bucket in milliseconds.
    pub fn width_ms(&self) -> u64 {
        self.width_ms
    }

    /// Records `v` at an explicit timestamp (milliseconds since any fixed
    /// epoch — tests pass a virtual clock's reading).
    pub fn observe_at(&self, v: f64, at_ms: u64) {
        if !metrics_enabled() {
            return;
        }
        let gen = at_ms / self.width_ms;
        let mut slots = self.slots.lock().expect("window slots");
        let n = slots.len();
        let slot = &mut slots[(gen % n as u64) as usize];
        if slot.gen != gen {
            // The ring wrapped: this slot still holds a bucket from a full
            // window ago. Evict it and start the new bucket clean.
            slot.reset(gen);
        }
        let idx = self.bounds.partition_point(|b| v > *b);
        slot.counts[idx] += 1;
        slot.count += 1;
        slot.sum += v;
        slot.max = slot.max.max(v);
    }

    /// Records `v` now (process-wide monotonic epoch).
    #[inline]
    pub fn observe(&self, v: f64) {
        self.observe_at(v, now_ms());
    }

    /// Records a duration in nanoseconds, now.
    #[inline]
    pub fn observe_ns(&self, d: std::time::Duration) {
        self.observe(d.as_nanos() as f64);
    }

    /// Merges every bucket inside the trailing window ending at `at_ms`.
    /// A bucket with absolute index `g` is live while
    /// `g + slots > at_ms / width`, so an observation expires exactly one
    /// full window after the *start* of its bucket — no partial decay, no
    /// double counting at bucket boundaries.
    pub fn snapshot_at(&self, at_ms: u64) -> WindowSnapshot {
        let cur_gen = at_ms / self.width_ms;
        let slots = self.slots.lock().expect("window slots");
        let n = slots.len() as u64;
        let mut counts = vec![0u64; self.bounds.len() + 1];
        let mut count = 0u64;
        let mut sum = 0.0f64;
        let mut max = f64::NEG_INFINITY;
        for slot in slots.iter() {
            let live = slot.gen != u64::MAX && slot.gen <= cur_gen && slot.gen + n > cur_gen;
            if !live {
                continue;
            }
            for (acc, c) in counts.iter_mut().zip(&slot.counts) {
                *acc += c;
            }
            count += slot.count;
            sum += slot.sum;
            max = max.max(slot.max);
        }
        let buckets = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bounds.get(i).copied().unwrap_or(f64::INFINITY), c))
            .collect();
        WindowSnapshot {
            hist: HistogramSnapshot { count, sum, buckets },
            max: if count == 0 { 0.0 } else { max },
            window_ms: n * self.width_ms,
        }
    }

    /// Snapshot of the trailing window ending now.
    pub fn snapshot(&self) -> WindowSnapshot {
        self.snapshot_at(now_ms())
    }
}

fn registry() -> &'static Mutex<HashMap<String, &'static WindowHistogram>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, &'static WindowHistogram>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The window histogram registered under `name`, with the default geometry
/// (12 × 5 s, default nanosecond latency bounds).
pub fn window_histogram(name: &str) -> &'static WindowHistogram {
    window_histogram_with(name, DEFAULT_SLOTS, DEFAULT_WIDTH_MS, default_ns_buckets)
}

/// The window histogram registered under `name`; geometry and bounds apply
/// if (and only if) this call performs the first registration.
pub fn window_histogram_with(
    name: &str,
    slots: usize,
    width_ms: u64,
    mk_bounds: impl FnOnce() -> Vec<f64>,
) -> &'static WindowHistogram {
    let mut map = registry().lock().expect("obs window registry");
    if let Some(w) = map.get(name) {
        return w;
    }
    let w: &'static WindowHistogram =
        Box::leak(Box::new(WindowHistogram::new(slots, width_ms, mk_bounds())));
    map.insert(name.to_string(), w);
    w
}

/// Snapshots every registered window histogram at `at_ms`, sorted by name.
pub fn snapshot_windows_at(at_ms: u64) -> Vec<(String, WindowSnapshot)> {
    let mut out: Vec<(String, WindowSnapshot)> = registry()
        .lock()
        .expect("obs window registry")
        .iter()
        .map(|(k, w)| (k.clone(), w.snapshot_at(at_ms)))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Snapshots every registered window histogram as of now.
pub fn snapshot_windows() -> Vec<(String, WindowSnapshot)> {
    snapshot_windows_at(now_ms())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wh() -> WindowHistogram {
        // 4 slots × 10 ms, bounds 1/10/100.
        WindowHistogram::new(4, 10, vec![1.0, 10.0, 100.0])
    }

    #[test]
    fn observations_merge_across_live_buckets() {
        let w = wh();
        w.observe_at(0.5, 0); // bucket 0
        w.observe_at(5.0, 12); // bucket 1
        w.observe_at(50.0, 25); // bucket 2
        let s = w.snapshot_at(30);
        assert_eq!(s.count(), 3);
        assert_eq!(s.hist.sum, 55.5);
        assert_eq!(s.max, 50.0);
        assert_eq!(s.quantile(0.5), 10.0);
    }

    #[test]
    fn quantiles_decay_as_buckets_expire() {
        let w = wh();
        w.observe_at(500.0, 0); // a huge outlier in bucket 0
        for t in [12, 14, 22, 24] {
            w.observe_at(5.0, t);
        }
        // Bucket 0 still live at t=35 (gen 0 + 4 slots > gen 3).
        assert_eq!(w.snapshot_at(35).quantile(1.0), f64::INFINITY);
        assert_eq!(w.snapshot_at(35).max, 500.0);
        // At t=40 the window has rolled past bucket 0: the outlier is gone.
        let s = w.snapshot_at(40);
        assert_eq!(s.count(), 4);
        assert_eq!(s.quantile(1.0), 10.0);
        assert_eq!(s.max, 5.0);
        // Two buckets later only the t=2x observations remain; later still,
        // the window drains to empty.
        assert_eq!(w.snapshot_at(55).count(), 2);
        assert_eq!(w.snapshot_at(100).count(), 0);
        assert_eq!(w.snapshot_at(100).max, 0.0);
    }

    #[test]
    fn no_drift_at_bucket_boundaries() {
        let w = wh();
        // t=9 is the last instant of bucket 0; t=10 the first of bucket 1.
        w.observe_at(1.0, 9);
        w.observe_at(2.0, 10);
        // Bucket 0 expires exactly when the window start passes it: live
        // through t=39, gone at t=40.
        assert_eq!(w.snapshot_at(39).count(), 2);
        assert_eq!(w.snapshot_at(40).count(), 1);
        assert_eq!(w.snapshot_at(49).count(), 1);
        assert_eq!(w.snapshot_at(50).count(), 0);
    }

    #[test]
    fn ring_wrap_evicts_the_stale_bucket() {
        let w = wh();
        w.observe_at(1.0, 0); // gen 0 → slot 0
        w.observe_at(2.0, 41); // gen 4 → slot 0 again: evicts gen 0
        let s = w.snapshot_at(41);
        assert_eq!(s.count(), 1);
        assert_eq!(s.hist.sum, 2.0);
    }

    #[test]
    fn registry_round_trips_and_snapshots() {
        let w = window_histogram_with("test.window.reg", 2, 100, || vec![10.0]);
        w.observe_at(3.0, 0);
        let snaps = snapshot_windows_at(50);
        let (_, s) = snaps.iter().find(|(n, _)| n == "test.window.reg").expect("registered");
        assert_eq!(s.count(), 1);
        assert_eq!(s.window_ms, 200);
        // Same name returns the same handle.
        assert!(std::ptr::eq(window_histogram_with("test.window.reg", 9, 9, Vec::new), w));
    }
}
