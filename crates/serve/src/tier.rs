//! Serving tiers: the units the fallback chain degrades across.
//!
//! A [`Tier`] answers a request or reports a typed [`TierFailure`] — it
//! never unwinds into the caller. [`ModelTier`] wraps the full Bootleg
//! model (deadline-aware, `catch_unwind`-isolated, fault-injectable);
//! [`PredictorTier`] adapts any [`Predictor`] — NED-Base, the popularity
//! prior — into a panic-isolated fallback tier.

use crate::error::{panic_message, TierFailure};
use bootleg_core::fault::FaultPlan;
use bootleg_core::{BootlegModel, Deadline, Example, ValidationLimits};
use bootleg_eval::Predictor;
use bootleg_kb::KnowledgeBase;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Per-request context threaded through the chain to every tier.
#[derive(Clone, Copy, Debug)]
pub struct RequestCx {
    /// 1-based submission sequence number (the key for injected faults).
    pub seq: u64,
    /// The request's compute budget.
    pub deadline: Deadline,
    /// Process-unique request id, minted at construction — the join key
    /// across log lines (`req=<id>`) and `/tracez` records.
    pub id: u64,
    /// Wall-clock admission time, unix milliseconds.
    pub unix_ms: u64,
    /// Admission timestamp on the serving clock, microseconds (0 until the
    /// server stamps it) — the base of the queue-wait measurement.
    pub admitted_us: u64,
}

impl RequestCx {
    /// Context for a standalone (non-queued) request; mints a fresh
    /// request id and stamps the wall-clock admission time.
    pub fn new(seq: u64, deadline: Deadline) -> Self {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Self { seq, deadline, id: bootleg_obs::next_request_id(), unix_ms, admitted_us: 0 }
    }

    /// Stamps the admission time on the serving clock (µs).
    pub fn with_admitted_us(mut self, us: u64) -> Self {
        self.admitted_us = us;
        self
    }
}

/// One rung of the fallback chain.
pub trait Tier: Sync {
    /// Short static name, used in diagnostics and metrics.
    fn name(&self) -> &'static str;

    /// Answers the request or reports a typed failure. Implementations must
    /// not unwind: panics are caught and converted.
    fn predict(&self, ex: &Example, cx: &RequestCx) -> Result<Vec<usize>, TierFailure>;

    /// Answers a micro-batch, one result per request in order. The default
    /// runs the requests sequentially; tiers with a real batched engine
    /// ([`ModelTier`]) override it. Like `predict`, implementations must
    /// not unwind, and each request fails individually — one poisoned
    /// request must not take its batch-mates down.
    fn predict_batch(
        &self,
        exs: &[&Example],
        cxs: &[RequestCx],
    ) -> Vec<Result<Vec<usize>, TierFailure>> {
        exs.iter().zip(cxs).map(|(ex, cx)| self.predict(ex, cx)).collect()
    }

    /// One-time warmup before traffic: tiers that own precomputable state
    /// (the model's entity-payload plane) build it here so the first
    /// request doesn't pay the cost. The default does nothing.
    fn warm(&self) {}
}

/// The primary tier: the full Bootleg model.
///
/// Runs [`BootlegModel::try_forward_batch`] under `catch_unwind`, so a poisoned
/// example becomes [`TierFailure::Panicked`] and an expired deadline becomes
/// [`TierFailure::DeadlineExceeded`] with the last completed phase. An
/// optional [`FaultPlan`] injects `SlowInfer` stalls and `PanicOnExample`
/// panics keyed on the request sequence number (chaos testing).
pub struct ModelTier<'a> {
    model: &'a BootlegModel,
    kb: &'a KnowledgeBase,
    faults: FaultPlan,
}

impl<'a> ModelTier<'a> {
    /// A fault-free model tier.
    pub fn new(model: &'a BootlegModel, kb: &'a KnowledgeBase) -> Self {
        Self { model, kb, faults: FaultPlan::none() }
    }

    /// Injects a deterministic fault schedule (chaos tests).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The validation limits of the wrapped model — what admission checks
    /// requests against.
    pub fn limits(&self) -> ValidationLimits {
        ValidationLimits {
            n_entities: self.model.n_entities,
            vocab_size: self.model.config.word_encoder.vocab,
            max_tokens: self.model.config.word_encoder.max_len,
        }
    }
}

impl ModelTier<'_> {
    /// The queue-deadline filter, then one `catch_unwind`-isolated
    /// [`BootlegModel::try_forward_batch`] over the live members. If that
    /// pass panics with more than one live member, each member re-runs
    /// alone through this same body (no stall is re-slept), so a poisoned
    /// example fails with its own diagnostic while the rest of the batch
    /// still answers. A lone panicking member fails `Panicked` directly.
    fn answer(&self, exs: &[&Example], cxs: &[RequestCx]) -> Vec<Result<Vec<usize>, TierFailure>> {
        let mut out: Vec<Option<Result<Vec<usize>, TierFailure>>> = cxs
            .iter()
            .map(|cx| {
                cx.deadline
                    .expired()
                    .then_some(Err(TierFailure::DeadlineExceeded { phase: "queue" }))
            })
            .collect();
        let live: Vec<usize> = (0..exs.len()).filter(|&i| out[i].is_none()).collect();
        let live_exs: Vec<&Example> = live.iter().map(|&i| exs[i]).collect();
        let deadlines: Vec<Deadline> = live.iter().map(|&i| cxs[i].deadline).collect();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            for &i in &live {
                if self.faults.panic_on_example(cxs[i].seq) {
                    panic!("injected panic on request {}", cxs[i].seq);
                }
            }
            self.model.try_forward_batch(
                self.kb,
                &live_exs,
                &bootleg_core::ForwardOptions::inference(),
                &deadlines,
            )
        }));
        match attempt {
            Ok(results) => {
                for (&i, r) in live.iter().zip(results) {
                    out[i] = Some(r.map(|fwd| fwd.predictions).map_err(|interrupted| {
                        TierFailure::DeadlineExceeded { phase: interrupted.phase }
                    }));
                }
            }
            Err(payload) if live.len() == 1 => {
                out[live[0]] = Some(Err(TierFailure::Panicked(panic_message(payload.as_ref()))));
            }
            Err(_) => {
                // Per-example defect attribution: retry each member alone
                // so only the poisoned one carries the panic.
                bootleg_obs::counter!("serve.batch_retries").inc();
                for &i in &live {
                    out[i] = self.answer(&[exs[i]], std::slice::from_ref(&cxs[i])).pop();
                }
            }
        }
        out.into_iter().map(|o| o.expect("every batch member answered")).collect()
    }
}

impl Tier for ModelTier<'_> {
    fn name(&self) -> &'static str {
        "bootleg"
    }

    /// Materializes the model's entity-payload plane (when the policy is
    /// `full`), so serving traffic starts on the warm gather path.
    fn warm(&self) {
        self.model.warm_entity_cache();
    }

    /// A micro-batch of one.
    fn predict(&self, ex: &Example, cx: &RequestCx) -> Result<Vec<usize>, TierFailure> {
        self.predict_batch(&[ex], std::slice::from_ref(cx)).pop().expect("one result per request")
    }

    /// One ragged batched forward pass ([`BootlegModel::try_forward_batch`])
    /// for the whole micro-batch, bit-identical per request to a batch of
    /// one. Injected stalls run up front (a stalled member delays its
    /// batch, exactly like a slow shard would); per-request deadlines are
    /// checked before the pass and inside the engine at phase boundaries
    /// (an expired request is evicted from the result, not the batch).
    fn predict_batch(
        &self,
        exs: &[&Example],
        cxs: &[RequestCx],
    ) -> Vec<Result<Vec<usize>, TierFailure>> {
        assert_eq!(exs.len(), cxs.len(), "one context per request");
        for cx in cxs {
            if let Some(ms) = self.faults.slow_infer_at(cx.seq) {
                // Injected stall: a slow shard / cold cache in front of the
                // forward pass.
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
        self.answer(exs, cxs)
    }
}

/// Adapts any [`Predictor`] into a panic-isolated fallback tier.
///
/// Fallback tiers (NED-Base, the popularity prior) are orders of magnitude
/// cheaper than the primary model, so they deliberately do *not* check the
/// deadline: a request that blew its budget on the primary tier still gets
/// a degraded answer if the chain decides to keep going.
pub struct PredictorTier<P> {
    name: &'static str,
    inner: P,
}

impl<P: Predictor> PredictorTier<P> {
    /// Names a predictor as a serving tier.
    pub fn new(name: &'static str, inner: P) -> Self {
        Self { name, inner }
    }
}

impl<P: Predictor> Tier for PredictorTier<P> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn predict(&self, ex: &Example, _cx: &RequestCx) -> Result<Vec<usize>, TierFailure> {
        catch_unwind(AssertUnwindSafe(|| self.inner.predict(ex)))
            .map_err(|p| TierFailure::Panicked(panic_message(p.as_ref())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootleg_core::fault::Fault;

    #[test]
    fn predictor_tier_isolates_panics() {
        let tier = PredictorTier::new(
            "exploding",
            |_: &Example| -> Vec<usize> { panic!("kaboom") },
        );
        let ex = Example::inference(vec![0], Vec::new());
        let cx = RequestCx::new(1, Deadline::none());
        match tier.predict(&ex, &cx) {
            Err(TierFailure::Panicked(msg)) => assert_eq!(msg, "kaboom"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(tier.name(), "exploding");
    }

    #[test]
    fn predictor_tier_passes_through_answers() {
        let tier = PredictorTier::new("echo", |e: &Example| vec![7; e.mentions.len()]);
        let ex = Example::inference(vec![0], Vec::new());
        let cx = RequestCx::new(1, Deadline::none());
        assert_eq!(tier.predict(&ex, &cx), Ok(vec![]));
    }

    #[test]
    fn fault_plan_lookup_is_seq_keyed() {
        let plan = FaultPlan::none().with(Fault::SlowInfer { seq: 3, millis: 1 });
        assert_eq!(plan.slow_infer_at(3), Some(1));
        assert_eq!(plan.slow_infer_at(4), None);
    }
}
