//! Integration tests for the serving telemetry plane: sliding-window
//! rotation on a virtual clock, request-record ring exactness under a full
//! worker pool, phase capture through the chain, breaker-state gauges, and
//! the live `/metrics` exposition.

use bootleg_core::{Deadline, Example, ExMention, ValidationLimits};
use bootleg_kb::EntityId;
use bootleg_obs::{reqtrace, window};
use bootleg_serve::{
    serve_requests, BreakerConfig, FallbackChain, PredictorTier, RequestCx, ServeConfig,
    VirtualClock, WallClock,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Tests touching the global request rings run serialized.
fn ring_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn limits() -> ValidationLimits {
    ValidationLimits { n_entities: 100, vocab_size: 100, max_tokens: 64 }
}

fn example() -> Example {
    Example::inference(
        vec![0, 1],
        vec![ExMention {
            first: 0,
            last: 0,
            candidates: vec![EntityId(1), EntityId(3)],
            gold: None,
        }],
    )
}

fn counts() -> HashMap<EntityId, u32> {
    // Entity 1 is head, entity 3 is tail.
    [(EntityId(1), 2000), (EntityId(3), 5)].into_iter().collect()
}

/// A tier that runs a real `trace::phase` pair, so per-request capture is
/// exercised through the chain without building a full model.
struct PhasedTier;

impl bootleg_serve::Tier for PhasedTier {
    fn name(&self) -> &'static str {
        "phased"
    }

    fn predict(
        &self,
        ex: &Example,
        _cx: &RequestCx,
    ) -> Result<Vec<usize>, bootleg_serve::TierFailure> {
        {
            let _p = bootleg_obs::trace::phase("candgen", "forward.candgen_ns");
        }
        {
            let _p = bootleg_obs::trace::phase("score", "forward.score_ns");
        }
        Ok(vec![0; ex.mentions.len()])
    }
}

#[test]
fn window_rotation_on_a_virtual_clock_decays_without_drift() {
    let clock = VirtualClock::new();
    let w = window::window_histogram_with("serve.test.rotation_ns", 4, 10, || {
        vec![1.0, 10.0, 100.0]
    });
    use bootleg_serve::Clock as _;
    w.observe_at(5.0, clock.now_ms());
    clock.advance_ms(9); // same bucket: still live
    assert_eq!(w.snapshot_at(clock.now_ms()).count(), 1);
    clock.advance_ms(1); // t=10: next bucket, previous still in window
    w.observe_at(50.0, clock.now_ms());
    let snap = w.snapshot_at(clock.now_ms());
    assert_eq!(snap.count(), 2);
    assert!(snap.quantile(0.99) >= 100.0 - 1e-9, "p99 sees the 50.0 sample");
    // The window covers 4 × 10 ms. The t=0 sample stays live through
    // t=39 and is gone at t=40; the t=10 sample survives until t=50.
    clock.advance_ms(29); // t=39
    assert_eq!(w.snapshot_at(clock.now_ms()).count(), 2, "no early eviction at the boundary");
    clock.advance_ms(1); // t=40
    assert_eq!(w.snapshot_at(clock.now_ms()).count(), 1, "t=0 bucket expired exactly on time");
    clock.advance_ms(10); // t=50
    assert_eq!(w.snapshot_at(clock.now_ms()).count(), 0, "window fully decayed");
}

#[test]
fn recent_ring_is_exact_under_eight_workers() {
    let _l = ring_lock();
    reqtrace::reset_reqtrace();
    let counts = counts();
    let chain = FallbackChain::with_clock(Arc::new(WallClock::new()), BreakerConfig::default())
        .with_slice_counts(&counts)
        .tier(PhasedTier);
    let n = 128;
    let reqs: Vec<Example> = (0..n).map(|_| example()).collect();
    let cfg = ServeConfig::default().with_workers(8).with_queue_cap(n).with_batch_max(4);
    let outcomes = serve_requests(&chain, &limits(), &cfg, &reqs);
    assert!(outcomes.iter().all(|o| o.is_ok()), "queue cap {n} admits everything");

    // Every request left exactly one record: seqs 1..=n, each once, with
    // no losses and no duplicates across the 8 concurrent workers.
    let recent = reqtrace::recent();
    assert_eq!(recent.len(), n, "one record per request");
    let mut seqs: Vec<u64> = recent.iter().map(|r| r.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (1..=n as u64).collect::<Vec<_>>());
    // Ids are process-unique and strictly increasing with admission order.
    let ids: Vec<u64> = recent.iter().map(|r| r.id).collect();
    assert_eq!(ids.len(), ids.iter().collect::<std::collections::HashSet<_>>().len());
    for r in &recent {
        assert_eq!(r.outcome, "ok");
        assert_eq!(r.tier, 0);
        assert!(r.batch_size >= 1);
        assert_eq!(r.slice, "head", "answered with candidate 0 → head entity");
        assert!(r.phases.is_empty(), "recent ring drops phase detail");
    }
    reqtrace::reset_reqtrace();
}

#[test]
fn degraded_and_failed_requests_become_exemplars_with_phases() {
    let _l = ring_lock();
    reqtrace::reset_reqtrace();
    reqtrace::set_slow_ms(0); // isolate the degraded/failed criteria
    let counts = counts();
    let chain = FallbackChain::with_clock(
        Arc::new(WallClock::new()),
        BreakerConfig { failure_threshold: 100, cooldown_ms: 1000 },
    )
    .with_slice_counts(&counts)
    .tier(PredictorTier::new("flaky", |_: &Example| -> Vec<usize> { panic!("down") }))
    .tier(PhasedTier);
    let cfg = ServeConfig::default().with_workers(1).with_batch_max(1);
    let outcomes = serve_requests(&chain, &limits(), &cfg, &[example(), example()]);
    assert!(outcomes.iter().all(|o| o.as_ref().is_ok_and(|r| r.degraded)));

    let exemplars = reqtrace::exemplars();
    assert_eq!(exemplars.len(), 2, "degraded requests are exemplar-worthy");
    for r in &exemplars {
        assert_eq!(r.outcome, "degraded");
        assert_eq!((r.tier, r.tier_name), (1, "phased"));
        let names: Vec<&str> = r.phases.iter().map(|(p, _)| *p).collect();
        assert_eq!(names, vec!["candgen", "score"], "full phase breakdown retained");
    }
    let j = reqtrace::tracez_json();
    assert!(j.contains("\"outcome\": \"degraded\""));
    assert!(j.contains("\"phase\": \"candgen\""));
    reqtrace::set_slow_ms(250);
    reqtrace::reset_reqtrace();
}

#[test]
fn breaker_state_gauges_track_transitions() {
    let clock = Arc::new(VirtualClock::new());
    let chain = FallbackChain::with_clock(
        Arc::clone(&clock) as Arc<dyn bootleg_serve::Clock>,
        BreakerConfig { failure_threshold: 2, cooldown_ms: 100 },
    )
    .tier(PredictorTier::new("brittle", |_: &Example| -> Vec<usize> { panic!("down") }))
    .tier(PredictorTier::new("backup", |e: &Example| vec![0; e.mentions.len()]));
    let gauge = bootleg_obs::metrics::gauge("serve.breaker_state.brittle");
    assert_eq!(gauge.value(), 0.0, "registered closed");
    let ex = example();
    for seq in 1..=2 {
        chain.predict(&ex, &RequestCx::new(seq, Deadline::none())).expect("backup answers");
    }
    assert_eq!(gauge.value(), 2.0, "two failures trip the breaker open");
    clock.advance_ms(100);
    // The half-open probe is observed during the next admission check.
    chain.predict(&ex, &RequestCx::new(3, Deadline::none())).expect("backup answers");
    assert_eq!(gauge.value(), 2.0, "failed probe re-opens");
    assert_eq!(
        bootleg_obs::metrics::gauge("serve.breaker_state.backup").value(),
        0.0,
        "healthy tier stays closed"
    );
}

#[test]
fn metrics_exposition_carries_windows_slices_and_queue_wait() {
    let _l = ring_lock();
    let counts = counts();
    let chain = FallbackChain::with_clock(Arc::new(WallClock::new()), BreakerConfig::default())
        .with_slice_counts(&counts)
        .tier(PhasedTier);
    let reqs: Vec<Example> = (0..16).map(|_| example()).collect();
    let cfg = ServeConfig::default().with_workers(2).with_queue_cap(16);
    serve_requests(&chain, &limits(), &cfg, &reqs);

    let before = bootleg_obs::metrics::histogram("serve.queue_wait_ns").snapshot().count;
    assert!(before >= 16, "queue-wait histogram observed every request");

    let text = bootleg_obs::http::prometheus_text();
    bootleg_obs::http::validate_exposition(&text).expect("exposition is well-formed");
    for needle in [
        "serve_window_e2e_ns{quantile=\"0.95\"}",
        "serve_window_queue_wait_ns{quantile=\"0.5\"}",
        "serve_window_e2e_head_ns",
        "serve_slice_head_requests",
        "serve_slice_head_served_phased",
        "serve_queue_wait_ns_bucket",
        "serve_queue_cap",
    ] {
        assert!(text.contains(needle), "missing {needle} in exposition:\n{text}");
    }
}
