//! The degraded-mode fallback chain: Bootleg → NED-Base → popularity prior.
//!
//! Each tier is guarded by its own [`CircuitBreaker`]. A request walks the
//! chain top-down: a healthy tier answers (annotated with its tier index),
//! a panicking tier records a diagnostic and falls through, an open breaker
//! skips the tier entirely. A deadline expiry is *terminal* — the request
//! has no budget left for a fallback — but the failure still feeds the
//! tier's breaker, so sustained timeouts trip it and subsequent traffic
//! degrades to cheaper tiers instead of queueing behind a slow model.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use crate::clock::{Clock, WallClock};
use crate::error::{ServeError, ServeOutcome, ServeResponse, TierError, TierFailure};
use crate::tier::{RequestCx, Tier};
use bootleg_core::Example;
use bootleg_kb::EntityId;
use bootleg_obs::counter;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

struct Slot<'a> {
    tier: Box<dyn Tier + 'a>,
    breaker: Mutex<CircuitBreaker>,
    /// Exposition gauge mirroring the breaker state (0 = closed,
    /// 1 = half-open, 2 = open) — `serve.breaker_state.<tier>`.
    state_gauge: &'static bootleg_obs::metrics::Gauge,
}

impl Slot<'_> {
    fn publish_state(&self, now: u64) {
        let state = self.breaker.lock().expect("breaker lock").state(now);
        self.state_gauge.set(breaker_state_value(state));
    }
}

/// The gauge encoding of a breaker state: 0 = closed, 1 = half-open,
/// 2 = open.
pub fn breaker_state_value(state: BreakerState) -> f64 {
    match state {
        BreakerState::Closed => 0.0,
        BreakerState::HalfOpen => 1.0,
        BreakerState::Open => 2.0,
    }
}

/// An ordered list of breaker-guarded tiers. Tier 0 is the primary model;
/// later tiers are progressively cheaper and progressively worse.
pub struct FallbackChain<'a> {
    slots: Vec<Slot<'a>>,
    clock: Arc<dyn Clock>,
    breaker_config: BreakerConfig,
    slice_counts: Option<&'a HashMap<EntityId, u32>>,
}

impl<'a> FallbackChain<'a> {
    /// An empty chain on wall time with the default breaker tuning
    /// ([`BreakerConfig::default`]: 3 failures, 1 s cooldown).
    pub fn new() -> Self {
        Self::with_clock(Arc::new(WallClock::new()), BreakerConfig::default())
    }

    /// An empty chain on an explicit clock and breaker tuning (tests use a
    /// [`VirtualClock`](crate::clock::VirtualClock) here).
    pub fn with_clock(clock: Arc<dyn Clock>, breaker_config: BreakerConfig) -> Self {
        Self { slots: Vec::new(), clock, breaker_config, slice_counts: None }
    }

    /// Appends a tier (order of insertion is order of fallback).
    pub fn tier(mut self, tier: impl Tier + 'a) -> Self {
        let state_gauge =
            bootleg_obs::metrics::gauge(&format!("serve.breaker_state.{}", tier.name()));
        state_gauge.set(breaker_state_value(BreakerState::Closed));
        self.slots.push(Slot {
            tier: Box::new(tier),
            breaker: Mutex::new(CircuitBreaker::new(self.breaker_config)),
            state_gauge,
        });
        self
    }

    /// Attaches training-occurrence counts so served requests are labelled
    /// with their popularity slice (head/torso/tail/unseen) — the
    /// tail-slice serving metrics. Without counts, slice labels stay empty.
    pub fn with_slice_counts(mut self, counts: &'a HashMap<EntityId, u32>) -> Self {
        self.slice_counts = Some(counts);
        self
    }

    /// The attached popularity counts, if any.
    pub fn slice_counts(&self) -> Option<&'a HashMap<EntityId, u32>> {
        self.slice_counts
    }

    /// Number of tiers.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no tiers are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Warms every tier in order (see [`Tier::warm`]): called once before
    /// traffic so precomputable state — the model tier's entity-payload
    /// plane — is built outside any request's deadline.
    pub fn warm(&self) {
        for slot in &self.slots {
            slot.tier.warm();
        }
    }

    /// The breaker state of tier `i` right now (diagnostics and tests).
    pub fn breaker_state(&self, i: usize) -> Option<BreakerState> {
        let slot = self.slots.get(i)?;
        let now = self.clock.now_ms();
        Some(slot.breaker.lock().expect("breaker lock").state(now))
    }

    /// The chain's time source — the server's micro-batcher shares it so
    /// request timing stamps and breaker cooldowns run on the same clock.
    pub(crate) fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Serves one request through the chain. Exactly one terminal outcome:
    /// a [`ServeResponse`] from the first tier that answers, or a
    /// [`ServeError`] when the deadline expires / every tier fails.
    pub fn predict(&self, ex: &Example, cx: &RequestCx) -> ServeOutcome {
        self.predict_batch(std::slice::from_ref(&ex), std::slice::from_ref(cx))
            .pop()
            .expect("one outcome per request")
    }

    /// Serves a micro-batch through the chain, one terminal outcome per
    /// request in order. The batch walks the tiers together: each tier
    /// answers the still-unresolved subset in one [`Tier::predict_batch`]
    /// call, then the failures fall through to the next tier. Breaker
    /// admission and bookkeeping stay per-request — every admitted request
    /// charges its own `allow`/`on_success`/`on_failure`, so a half-open
    /// breaker still admits a single probe and a batch of failures trips
    /// the breaker exactly as fast as the same requests served one at a
    /// time. A deadline expiry is terminal for that request only; its
    /// batch-mates keep falling through.
    pub fn predict_batch(&self, exs: &[&Example], cxs: &[RequestCx]) -> Vec<ServeOutcome> {
        assert_eq!(exs.len(), cxs.len(), "one context per request");
        let n = exs.len();
        let mut outcomes: Vec<Option<ServeOutcome>> = (0..n).map(|_| None).collect();
        let mut diags: Vec<Vec<TierError>> = vec![Vec::new(); n];
        let mut active: Vec<usize> = (0..n)
            .filter(|&i| {
                if cxs[i].deadline.expired() {
                    outcomes[i] = Some(Err(ServeError::DeadlineExceeded {
                        phase: "queue",
                        tiers: Vec::new(),
                    }));
                    false
                } else {
                    true
                }
            })
            .collect();
        for (ti, slot) in self.slots.iter().enumerate() {
            if active.is_empty() {
                break;
            }
            let name = slot.tier.name();
            let mut admitted: Vec<usize> = Vec::with_capacity(active.len());
            for &i in &active {
                let allowed = {
                    let now = self.clock.now_ms();
                    let allowed = slot.breaker.lock().expect("breaker lock").allow(now);
                    slot.publish_state(now);
                    allowed
                };
                if allowed {
                    admitted.push(i);
                } else {
                    counter!("serve.breaker_skips").inc();
                    diags[i].push(TierError { tier: name, failure: TierFailure::BreakerOpen });
                }
            }
            if !admitted.is_empty() {
                let batch_exs: Vec<&Example> = admitted.iter().map(|&i| exs[i]).collect();
                let batch_cxs: Vec<RequestCx> = admitted.iter().map(|&i| cxs[i]).collect();
                let results = slot.tier.predict_batch(&batch_exs, &batch_cxs);
                assert_eq!(results.len(), admitted.len(), "one result per admitted request");
                for (&i, result) in admitted.iter().zip(results) {
                    match result {
                        Ok(predictions) => {
                            slot.breaker.lock().expect("breaker lock").on_success();
                            slot.publish_state(self.clock.now_ms());
                            counter!("serve.tier_served").inc();
                            if ti > 0 {
                                counter!("serve.degraded").inc();
                            }
                            outcomes[i] = Some(Ok(ServeResponse {
                                predictions,
                                tier: ti,
                                tier_name: name,
                                degraded: ti > 0,
                            }));
                        }
                        Err(failure) => {
                            let now = self.clock.now_ms();
                            slot.breaker.lock().expect("breaker lock").on_failure(now);
                            slot.publish_state(now);
                            counter!("serve.tier_failures").inc();
                            let terminal =
                                matches!(failure, TierFailure::DeadlineExceeded { .. });
                            let phase = match failure {
                                TierFailure::DeadlineExceeded { phase } => phase,
                                _ => "",
                            };
                            diags[i].push(TierError { tier: name, failure });
                            if terminal {
                                // No budget left for a fallback; the breaker
                                // update above is what degrades *subsequent*
                                // traffic.
                                outcomes[i] = Some(Err(ServeError::DeadlineExceeded {
                                    phase,
                                    tiers: std::mem::take(&mut diags[i]),
                                }));
                            }
                        }
                    }
                }
            }
            active.retain(|&i| outcomes[i].is_none());
        }
        for i in 0..n {
            if outcomes[i].is_none() {
                outcomes[i] = Some(Err(ServeError::AllTiersFailed {
                    tiers: std::mem::take(&mut diags[i]),
                }));
            }
        }
        outcomes.into_iter().map(|o| o.expect("every request resolved")).collect()
    }
}

impl Default for FallbackChain<'_> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::tier::PredictorTier;
    use bootleg_core::{Deadline, ExMention};
    use bootleg_kb::EntityId;

    fn example() -> Example {
        Example::inference(
            vec![0, 1],
            vec![ExMention {
                first: 0,
                last: 0,
                candidates: vec![EntityId(0), EntityId(1)],
                gold: None,
            }],
        )
    }

    fn chain_with_flaky_primary(clock: Arc<VirtualClock>) -> FallbackChain<'static> {
        let config = BreakerConfig { failure_threshold: 2, cooldown_ms: 100 };
        FallbackChain::with_clock(clock, config)
            .tier(PredictorTier::new(
                "flaky",
                |_: &Example| -> Vec<usize> { panic!("primary down") },
            ))
            .tier(PredictorTier::new("steady", |e: &Example| vec![1; e.mentions.len()]))
    }

    #[test]
    fn falls_through_to_the_next_tier_on_panic() {
        let clock = Arc::new(VirtualClock::new());
        let chain = chain_with_flaky_primary(clock);
        let out = chain.predict(&example(), &RequestCx::new(1, Deadline::none()));
        let resp = out.expect("fallback tier answers");
        assert_eq!((resp.tier, resp.tier_name, resp.degraded), (1, "steady", true));
        assert_eq!(resp.predictions, vec![1]);
    }

    #[test]
    fn breaker_trips_and_skips_the_flaky_tier() {
        let clock = Arc::new(VirtualClock::new());
        let chain = chain_with_flaky_primary(Arc::clone(&clock));
        let ex = example();

        // Two panics trip the primary's breaker (threshold 2).
        for seq in 1..=2 {
            chain.predict(&ex, &RequestCx::new(seq, Deadline::none())).expect("degraded");
        }
        assert_eq!(chain.breaker_state(0), Some(BreakerState::Open));

        // While open the flaky tier is skipped: the diagnostic says so.
        let resp = chain
            .predict(&ex, &RequestCx::new(3, Deadline::none()))
            .expect("steady tier still answers");
        assert_eq!(resp.tier, 1);

        // Past the cooldown a single probe is admitted (and fails again).
        clock.advance_ms(100);
        assert_eq!(chain.breaker_state(0), Some(BreakerState::HalfOpen));
        chain.predict(&ex, &RequestCx::new(4, Deadline::none())).expect("degraded");
        assert_eq!(chain.breaker_state(0), Some(BreakerState::Open));
    }

    #[test]
    fn expired_deadline_is_terminal_before_any_tier() {
        let clock = Arc::new(VirtualClock::new());
        let chain = chain_with_flaky_primary(clock);
        let out = chain.predict(&example(), &RequestCx::new(1, Deadline::expired_now()));
        match out {
            Err(ServeError::DeadlineExceeded { phase, tiers }) => {
                assert_eq!(phase, "queue");
                assert!(tiers.is_empty());
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn all_tiers_failed_carries_one_diagnostic_per_tier() {
        let clock = Arc::new(VirtualClock::new());
        let config = BreakerConfig { failure_threshold: 3, cooldown_ms: 100 };
        let chain = FallbackChain::with_clock(clock, config)
            .tier(PredictorTier::new("a", |_: &Example| -> Vec<usize> { panic!("a down") }))
            .tier(PredictorTier::new("b", |_: &Example| -> Vec<usize> { panic!("b down") }));
        let out = chain.predict(&example(), &RequestCx::new(1, Deadline::none()));
        match out {
            Err(ServeError::AllTiersFailed { tiers }) => {
                assert_eq!(tiers.len(), 2);
                assert_eq!(tiers[0].tier, "a");
                assert_eq!(tiers[1].tier, "b");
            }
            other => panic!("expected AllTiersFailed, got {other:?}"),
        }
    }
}
