//! Serving telemetry: per-request record assembly, tail-slice
//! classification, and the sliding-window latency observations behind the
//! `/metrics` and `/tracez` endpoints.
//!
//! Every terminal outcome funnels through [`record_request`], which
//!
//! * assembles a [`RequestRecord`](bootleg_obs::reqtrace::RequestRecord)
//!   (id, outcome, tier, batch size, queue/end-to-end latency, captured
//!   forward phases) and retains it in the obs recent/exemplar rings,
//! * observes the sliding-window histograms (`serve.window.*`) that yield
//!   p50/p95/p99 over the trailing minute rather than since process start,
//! * labels the request with its **popularity slice** — the rarest
//!   head/torso/tail/unseen class among its mentions, classified with the
//!   same [`bootleg_eval::slice_of`] rule the offline evaluator uses — and
//!   bumps the per-slice counters, so the live endpoint answers "how is
//!   tail latency, and which tier is serving unseen entities" directly.
//!
//! Mention classification is prediction-aware: an answered mention is
//! classified by its *predicted* entity's training count; a failed request
//! falls back to the rarest candidate, the entity the request was most
//! likely about when nothing answered.

use crate::chain::FallbackChain;
use crate::error::{ServeError, ServeOutcome};
use crate::tier::RequestCx;
use bootleg_eval::slice_of;
use bootleg_kb::stats::PopularitySlice;
use bootleg_kb::EntityId;
use bootleg_obs::{histogram, reqtrace, window};
use std::collections::HashMap;

/// The terminal outcome label recorded in `/tracez` and metrics: `ok`,
/// `degraded`, `rejected`, `shed`, `deadline`, `failed`, or `internal`.
pub fn outcome_label(outcome: &ServeOutcome) -> &'static str {
    match outcome {
        Ok(resp) if resp.degraded => "degraded",
        Ok(_) => "ok",
        Err(ServeError::Rejected(_)) => "rejected",
        Err(ServeError::Shed { .. }) => "shed",
        Err(ServeError::DeadlineExceeded { .. }) => "deadline",
        Err(ServeError::AllTiersFailed { .. }) => "failed",
        Err(ServeError::Internal { .. }) => "internal",
    }
}

/// Rarity rank for "rarest slice wins": unseen < tail < torso < head.
fn rarity(s: PopularitySlice) -> u8 {
    match s {
        PopularitySlice::Unseen => 0,
        PopularitySlice::Tail => 1,
        PopularitySlice::Torso => 2,
        PopularitySlice::Head => 3,
    }
}

/// Classifies one request against the KB popularity counts: each answered
/// mention by its predicted entity, each unanswered mention by its
/// rarest candidate; the request's slice is the rarest among its mentions.
/// Returns `""` when no counts are attached or the request has no mentions.
pub fn classify_slice(
    counts: &HashMap<EntityId, u32>,
    ex: &bootleg_core::Example,
    outcome: &ServeOutcome,
) -> &'static str {
    let predictions = match outcome {
        Ok(resp) => Some(&resp.predictions),
        Err(_) => None,
    };
    let mut rarest: Option<PopularitySlice> = None;
    for (i, m) in ex.mentions.iter().enumerate() {
        let entity = match predictions.and_then(|p| p.get(i)).and_then(|&c| m.candidates.get(c))
        {
            Some(&e) => e,
            None => match m.candidates.iter().min_by_key(|e| counts.get(e).unwrap_or(&0)) {
                Some(&e) => e,
                None => continue,
            },
        };
        let slice = slice_of(counts, entity);
        rarest = Some(match rarest {
            Some(prev) if rarity(prev) <= rarity(slice) => prev,
            _ => slice,
        });
    }
    rarest.map(PopularitySlice::name).unwrap_or("")
}

/// Measured waits for one request, in nanoseconds on the serving clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// Admission → popped from the queue by a worker.
    pub queue_ns: u64,
    /// Popped → micro-batch dispatched: the eviction scan at formation (the
    /// batcher never waits for stragglers), or, for an evicted request,
    /// popped → evicted.
    pub batch_form_ns: u64,
    /// Admission → terminal outcome.
    pub e2e_ns: u64,
}

impl Timing {
    /// Derives the three waits from clock stamps (µs since the serving
    /// clock's epoch); out-of-order stamps saturate to zero.
    pub fn from_stamps(admitted_us: u64, popped_us: u64, formed_us: u64, done_us: u64) -> Self {
        let ns = |a: u64, b: u64| b.saturating_sub(a).saturating_mul(1_000);
        Self {
            queue_ns: ns(admitted_us, popped_us),
            batch_form_ns: ns(popped_us, formed_us),
            e2e_ns: ns(admitted_us, done_us),
        }
    }
}

/// Records one terminal request into the whole telemetry plane: the
/// request-record rings, the fixed `serve.queue_wait_ns` histogram, the
/// `serve.window.*` sliding windows (end-to-end overall and per-slice,
/// queue wait, the eviction scan at batch formation, per forward phase),
/// and the per-slice serving counters. One call per request, at its
/// terminal outcome.
pub fn record_request(
    chain: &FallbackChain<'_>,
    ex: &bootleg_core::Example,
    cx: &RequestCx,
    batch_size: u32,
    timing: Timing,
    phases: Vec<(&'static str, u64)>,
    outcome: &ServeOutcome,
) {
    if !bootleg_obs::metrics_enabled() {
        return;
    }
    let label = outcome_label(outcome);
    let (tier, tier_name) = match outcome {
        Ok(resp) => (resp.tier as i32, resp.tier_name),
        Err(_) => (-1, ""),
    };
    let slice = match chain.slice_counts() {
        Some(counts) => classify_slice(counts, ex, outcome),
        None => "",
    };

    histogram!("serve.queue_wait_ns").observe(timing.queue_ns as f64);
    window!("serve.window.queue_wait_ns").observe(timing.queue_ns as f64);
    window!("serve.window.batch_form_ns").observe(timing.batch_form_ns as f64);
    window!("serve.window.e2e_ns").observe(timing.e2e_ns as f64);
    for &(phase, ns) in &phases {
        window::window_histogram(&format!("serve.window.forward.{phase}_ns"))
            .observe(ns as f64);
    }
    if !slice.is_empty() {
        window::window_histogram(&format!("serve.window.e2e.{slice}_ns"))
            .observe(timing.e2e_ns as f64);
        bootleg_obs::metrics::counter(&format!("serve.slice.{slice}.requests")).inc();
        match outcome {
            Ok(resp) => {
                bootleg_obs::metrics::counter(&format!(
                    "serve.slice.{slice}.served.{}",
                    resp.tier_name
                ))
                .inc();
            }
            Err(e) if !matches!(e, ServeError::Rejected(_) | ServeError::Shed { .. }) => {
                bootleg_obs::metrics::counter(&format!("serve.slice.{slice}.failed")).inc();
            }
            Err(_) => {}
        }
    }

    reqtrace::record(reqtrace::RequestRecord {
        id: cx.id,
        seq: cx.seq,
        unix_ms: cx.unix_ms,
        batch_size,
        tier,
        tier_name,
        outcome: label,
        slice,
        queue_ns: timing.queue_ns,
        e2e_ns: timing.e2e_ns,
        slow: false, // set by record() from the live threshold
        phases,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServeResponse;
    use bootleg_core::{Example, ExMention};

    fn example(cands: &[u32]) -> Example {
        Example::inference(
            vec![0, 1],
            vec![ExMention {
                first: 0,
                last: 0,
                candidates: cands.iter().map(|&c| EntityId(c)).collect(),
                gold: None,
            }],
        )
    }

    fn counts() -> HashMap<EntityId, u32> {
        [(EntityId(1), 2000), (EntityId(2), 500), (EntityId(3), 5)].into_iter().collect()
    }

    fn ok_with(predictions: Vec<usize>) -> ServeOutcome {
        Ok(ServeResponse { predictions, tier: 0, tier_name: "bootleg", degraded: false })
    }

    #[test]
    fn answered_mentions_classify_by_predicted_entity() {
        let counts = counts();
        let ex = example(&[1, 3]); // head and tail candidates
        assert_eq!(classify_slice(&counts, &ex, &ok_with(vec![0])), "head");
        assert_eq!(classify_slice(&counts, &ex, &ok_with(vec![1])), "tail");
    }

    #[test]
    fn failed_requests_classify_by_rarest_candidate() {
        let counts = counts();
        let ex = example(&[1, 9]); // entity 9 absent from counts → unseen
        let failed: ServeOutcome = Err(ServeError::AllTiersFailed { tiers: Vec::new() });
        assert_eq!(classify_slice(&counts, &ex, &failed), "unseen");
    }

    #[test]
    fn request_slice_is_the_rarest_mention() {
        let counts = counts();
        let mut ex = example(&[1]);
        ex.mentions.push(ExMention {
            first: 1,
            last: 1,
            candidates: vec![EntityId(3)],
            gold: None,
        });
        // Both mentions answered with candidate 0: head + tail → tail wins.
        assert_eq!(classify_slice(&counts, &ex, &ok_with(vec![0, 0])), "tail");
    }

    #[test]
    fn timing_saturates_on_out_of_order_stamps() {
        let t = Timing::from_stamps(100, 50, 150, 90);
        assert_eq!(t.queue_ns, 0);
        assert_eq!(t.batch_form_ns, 100_000);
        assert_eq!(t.e2e_ns, 0);
        let t = Timing::from_stamps(10, 20, 30, 45);
        assert_eq!((t.queue_ns, t.batch_form_ns, t.e2e_ns), (10_000, 10_000, 35_000));
    }

    #[test]
    fn outcome_labels_cover_every_variant() {
        assert_eq!(outcome_label(&ok_with(vec![0])), "ok");
        let degraded: ServeOutcome = Ok(ServeResponse {
            predictions: vec![0],
            tier: 1,
            tier_name: "prior",
            degraded: true,
        });
        assert_eq!(outcome_label(&degraded), "degraded");
        assert_eq!(
            outcome_label(&Err(ServeError::Shed { queue_depth: 3 })),
            "shed"
        );
        assert_eq!(
            outcome_label(&Err(ServeError::DeadlineExceeded { phase: "queue", tiers: vec![] })),
            "deadline"
        );
        assert_eq!(
            outcome_label(&Err(ServeError::AllTiersFailed { tiers: vec![] })),
            "failed"
        );
        assert_eq!(
            outcome_label(&Err(ServeError::Internal { message: String::new() })),
            "internal"
        );
    }
}
