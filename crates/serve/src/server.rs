//! The bounded-queue serving loop: admission control, load shedding, and
//! worker isolation.
//!
//! [`serve_requests`] drives a batch of requests through a
//! [`FallbackChain`] with a fixed worker pool and a bounded admission
//! queue. Every submitted request gets **exactly one** terminal
//! [`ServeOutcome`]:
//!
//! - invalid requests are **rejected** at admission ([`Example::validate`]),
//! - requests arriving while the queue is full are **shed**,
//! - admitted requests are answered by some tier of the chain, or fail with
//!   a typed [`ServeError`](crate::error::ServeError).
//!
//! Workers drain the queue in **micro-batches**, and the batcher is
//! work-conserving: a worker blocks only while the queue is empty, then
//! takes whatever is already queued, up to [`ServeConfig::batch_max`] jobs,
//! and answers the whole batch at once through one
//! [`FallbackChain::predict_batch`] call (one ragged forward pass on the
//! model tier). It never waits for stragglers; under load, batches form
//! from the requests that queued while the workers were busy. A lone
//! request is a batch of one and takes the same path.
//! A request whose deadline expires while its batch is forming is evicted
//! at formation — answered `DeadlineExceeded` on the spot — so a stale
//! request never spends model budget or delays its batch-mates. Tuning is
//! set in code with the `ServeConfig::with_*` builders; only the worker
//! count has an environment default (`BOOTLEG_THREADS`).
//!
//! Workers never die: tier panics are caught inside the chain, and a panic
//! escaping the chain itself (a serving bug) is converted to
//! [`ServeError::Internal`](crate::error::ServeError::Internal) by a final
//! `catch_unwind`; a larger batch is retried one request at a time so the
//! defect attaches to the request that caused it.

use crate::chain::FallbackChain;
use crate::clock::Clock;
use crate::error::{panic_message, ServeError, ServeOutcome};
use crate::telemetry;
use crate::tier::RequestCx;
use bootleg_core::fault::FaultPlan;
use bootleg_core::{Deadline, Example, ValidationLimits};
use bootleg_eval::Predictor;
use bootleg_kb::EntityId;
use bootleg_obs::{counter, gauge};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Serving-loop tuning.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Admission-queue capacity; requests arriving beyond it are shed.
    pub queue_cap: usize,
    /// Per-request compute budget, stamped at admission. `None` = unlimited.
    pub deadline_ms: Option<u64>,
    /// Largest micro-batch a worker answers in one forward pass: at most
    /// this many of the already-queued jobs go into one batch.
    pub batch_max: usize,
    /// Injected fault schedule (chaos tests); empty in production.
    pub chaos: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: default_workers(),
            queue_cap: 64,
            deadline_ms: None,
            batch_max: 8,
            chaos: FaultPlan::none(),
        }
    }
}

fn default_workers() -> usize {
    std::env::var("BOOTLEG_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl ServeConfig {
    /// Overrides the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the queue capacity.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    /// Sets the per-request deadline.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Overrides the micro-batch size cap (`1` serves each request as a
    /// batch of one).
    pub fn with_batch_max(mut self, max: usize) -> Self {
        self.batch_max = max.max(1);
        self
    }

    /// Injects a fault schedule (chaos tests).
    pub fn with_chaos(mut self, chaos: FaultPlan) -> Self {
        self.chaos = chaos;
        self
    }

    fn deadline(&self) -> Deadline {
        self.deadline_ms.map_or(Deadline::none(), Deadline::after_ms)
    }
}

/// One queued unit of work: request index + its admission-stamped context.
struct Job {
    idx: usize,
    cx: RequestCx,
    /// When a worker took the job off the queue (µs on the serving clock);
    /// the queue-wait / batch-formation boundary.
    popped_us: u64,
}

struct Queue {
    jobs: Mutex<(VecDeque<Job>, bool)>, // (queue, producer done)
    ready: Condvar,
}

impl Queue {
    fn new() -> Self {
        Self { jobs: Mutex::new((VecDeque::new(), false)), ready: Condvar::new() }
    }

    /// Admits a job unless the queue is at `cap`; returns the observed depth
    /// on shed.
    fn try_push(&self, job: Job, cap: usize) -> Result<(), usize> {
        let mut guard = self.jobs.lock().expect("queue lock");
        if guard.0.len() >= cap {
            return Err(guard.0.len());
        }
        guard.0.push_back(job);
        gauge!("serve.queue_depth").set(guard.0.len() as f64);
        drop(guard);
        self.ready.notify_one();
        Ok(())
    }

    fn close(&self) {
        self.jobs.lock().expect("queue lock").1 = true;
        self.ready.notify_all();
    }

    /// Blocks while the queue is empty, then takes whatever is already
    /// queued, up to `max` jobs, and returns at once, every job stamped with
    /// one read of `clock`. Work-conserving: a worker holding a job never
    /// waits for stragglers, so a lone request is dispatched immediately.
    /// Returns `None` once the queue is drained and closed.
    fn pop_batch(&self, max: usize, clock: &dyn Clock) -> Option<Vec<Job>> {
        let mut guard = self.jobs.lock().expect("queue lock");
        while guard.0.is_empty() {
            if guard.1 {
                return None;
            }
            guard = self.ready.wait(guard).expect("queue lock");
        }
        let popped_us = clock.now_us();
        let take = max.min(guard.0.len());
        let batch = guard.0.drain(..take).map(|job| Job { popped_us, ..job }).collect();
        gauge!("serve.queue_depth").set(guard.0.len() as f64);
        Some(batch)
    }
}

/// Corrupts an admitted request in place — the `MalformedExample` fault.
/// Models payload corruption *past* admission control (bit rot, a buggy
/// proxy): the candidate id is pushed far outside the KB, so the model and
/// NED-Base tiers panic on the gather and the chain must degrade.
fn corrupt(ex: &Example) -> Example {
    let mut ex = ex.clone();
    if let Some(m) = ex.mentions.first_mut() {
        if let Some(c) = m.candidates.first_mut() {
            *c = EntityId(u32::MAX - 1);
        }
    }
    ex
}

/// Serves `requests` through `chain` with bounded admission. Returns one
/// [`ServeOutcome`] per request, in submission order. Sequence numbers are
/// 1-based submission indices — the key for `cfg.chaos` fault schedules.
pub fn serve_requests(
    chain: &FallbackChain<'_>,
    limits: &ValidationLimits,
    cfg: &ServeConfig,
    requests: &[Example],
) -> Vec<ServeOutcome> {
    let outcomes: Vec<OnceLock<ServeOutcome>> =
        (0..requests.len()).map(|_| OnceLock::new()).collect();
    let queue = Queue::new();
    gauge!("serve.queue_cap").set(cfg.queue_cap as f64);
    // Build precomputable tier state (the entity-payload plane) before any
    // request is admitted, so no deadline pays the warmup cost.
    chain.warm();

    std::thread::scope(|scope| {
        for _ in 0..cfg.workers.max(1) {
            scope.spawn(|| {
                let clock = chain.clock();
                while let Some(jobs) = queue.pop_batch(cfg.batch_max.max(1), clock.as_ref()) {
                    run_batch(chain, cfg, requests, &outcomes, jobs);
                }
            });
        }

        // Admission: validate, shed, or enqueue — in submission order.
        for (idx, ex) in requests.iter().enumerate() {
            let seq = idx as u64 + 1;
            let cx =
                RequestCx::new(seq, cfg.deadline()).with_admitted_us(chain.clock().now_us());
            if let Err(defect) = ex.validate(limits) {
                counter!("serve.rejected").inc();
                let outcome = Err(ServeError::Rejected(defect));
                telemetry::record_request(
                    chain,
                    ex,
                    &cx,
                    0,
                    telemetry::Timing::default(),
                    Vec::new(),
                    &outcome,
                );
                set_once(&outcomes[idx], outcome, idx);
                continue;
            }
            match queue.try_push(Job { idx, cx, popped_us: 0 }, cfg.queue_cap) {
                Ok(()) => counter!("serve.admitted").inc(),
                Err(queue_depth) => {
                    counter!("serve.shed").inc();
                    let outcome = Err(ServeError::Shed { queue_depth });
                    let done_us = chain.clock().now_us();
                    telemetry::record_request(
                        chain,
                        ex,
                        &cx,
                        0,
                        telemetry::Timing::from_stamps(
                            cx.admitted_us,
                            cx.admitted_us,
                            cx.admitted_us,
                            done_us,
                        ),
                        Vec::new(),
                        &outcome,
                    );
                    set_once(&outcomes[idx], outcome, idx);
                }
            }
        }
        queue.close();
    });

    outcomes
        .into_iter()
        .enumerate()
        .map(|(idx, slot)| {
            slot.into_inner().unwrap_or_else(|| {
                panic!("request {idx} got no outcome (lost request)")
            })
        })
        .collect()
}

fn set_once(slot: &OnceLock<ServeOutcome>, outcome: ServeOutcome, idx: usize) {
    slot.set(outcome).unwrap_or_else(|_| panic!("request {idx} answered twice"));
}

/// Answers one formed micro-batch, setting exactly one outcome per job.
fn run_batch(
    chain: &FallbackChain<'_>,
    cfg: &ServeConfig,
    requests: &[Example],
    outcomes: &[OnceLock<ServeOutcome>],
    mut jobs: Vec<Job>,
) {
    counter!("serve.batches").inc();
    let clock = chain.clock();
    // Eviction at formation: a request whose deadline lapsed while it was
    // queued is answered immediately instead of spending model budget or
    // delaying its batch-mates.
    jobs.retain(|job| {
        if job.cx.deadline.expired() {
            counter!("serve.batch_evicted").inc();
            let outcome = Err(ServeError::DeadlineExceeded { phase: "queue", tiers: Vec::new() });
            let now_us = clock.now_us();
            telemetry::record_request(
                chain,
                &requests[job.idx],
                &job.cx,
                0,
                telemetry::Timing::from_stamps(job.cx.admitted_us, job.popped_us, now_us, now_us),
                Vec::new(),
                &outcome,
            );
            set_once(&outcomes[job.idx], outcome, job.idx);
            false
        } else {
            true
        }
    });
    answer(chain, cfg, requests, outcomes, &jobs, clock.now_us());
}

/// Answers `jobs` through one [`FallbackChain::predict_batch`] call (one
/// ragged forward pass on the model tier), setting exactly one outcome per
/// job. `formed_us` stamps when the batch was ready to run. A panic
/// escaping the chain is a serving bug: a lone job fails
/// [`ServeError::Internal`]; a larger batch re-runs each job alone through
/// this same function, so the defect attaches to the request that caused
/// it.
fn answer(
    chain: &FallbackChain<'_>,
    cfg: &ServeConfig,
    requests: &[Example],
    outcomes: &[OnceLock<ServeOutcome>],
    jobs: &[Job],
    formed_us: u64,
) {
    if jobs.is_empty() {
        return;
    }
    let clock = chain.clock();
    // Corrupt only the jobs the chaos schedule names; clean requests are
    // served by reference, never cloned.
    let corrupted: Vec<Option<Example>> = jobs
        .iter()
        .map(|job| cfg.chaos.malformed_example_at(job.cx.seq).then(|| corrupt(&requests[job.idx])))
        .collect();
    let exs: Vec<&Example> = jobs
        .iter()
        .zip(&corrupted)
        .map(|(job, c)| c.as_ref().unwrap_or(&requests[job.idx]))
        .collect();
    let cxs: Vec<RequestCx> = jobs.iter().map(|job| job.cx).collect();
    // One capture for the shared forward pass: the phase breakdown belongs
    // to the batch, so each member's record carries it alongside its batch
    // size.
    let capture = bootleg_obs::begin_capture(jobs[0].cx.id);
    let attempt = catch_unwind(AssertUnwindSafe(|| chain.predict_batch(&exs, &cxs)));
    let phases = capture.finish();
    let outs = match attempt {
        Ok(outs) => outs,
        Err(payload) if jobs.len() == 1 => {
            counter!("serve.internal_panics").inc();
            vec![Err(ServeError::Internal { message: panic_message(payload.as_ref()) })]
        }
        Err(_) => {
            for job in jobs {
                answer(chain, cfg, requests, outcomes, std::slice::from_ref(job), clock.now_us());
            }
            return;
        }
    };
    let done_us = clock.now_us();
    for (job, outcome) in jobs.iter().zip(outs) {
        telemetry::record_request(
            chain,
            &requests[job.idx],
            &job.cx,
            jobs.len() as u32,
            telemetry::Timing::from_stamps(job.cx.admitted_us, job.popped_us, formed_us, done_us),
            phases.clone(),
            &outcome,
        );
        set_once(&outcomes[job.idx], outcome, job.idx);
    }
}

/// Adapts a [`FallbackChain`] into an infallible [`Predictor`] so the
/// resilient path plugs into every evaluator and benchmark unchanged.
///
/// Valid requests flow through the chain (tier 0 answers fault-free, so
/// outputs are bit-identical to a direct [`Predictor`]); a request the
/// chain cannot answer at all falls back to candidate 0 per mention — the
/// popularity-ordered prior, the same "most popular candidate" answer the
/// last chain tier would give.
pub struct ResilientPredictor<'a> {
    chain: &'a FallbackChain<'a>,
    limits: ValidationLimits,
    deadline_ms: Option<u64>,
    seq: AtomicU64,
}

impl<'a> ResilientPredictor<'a> {
    /// Wraps a chain for predictor-style use.
    pub fn new(chain: &'a FallbackChain<'a>, limits: ValidationLimits) -> Self {
        Self { chain, limits, deadline_ms: None, seq: AtomicU64::new(0) }
    }

    /// Applies a per-request deadline.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }
}

impl Predictor for ResilientPredictor<'_> {
    fn predict(&self, ex: &Example) -> Vec<usize> {
        let fallback = || vec![0; ex.mentions.len()];
        if ex.validate(&self.limits).is_err() {
            return fallback();
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let deadline = self.deadline_ms.map_or(Deadline::none(), Deadline::after_ms);
        let clock = self.chain.clock();
        let cx = RequestCx::new(seq, deadline).with_admitted_us(clock.now_us());
        let capture = bootleg_obs::begin_capture(cx.id);
        let outcome = self.chain.predict(ex, &cx);
        let phases = capture.finish();
        telemetry::record_request(
            self.chain,
            ex,
            &cx,
            1,
            telemetry::Timing::from_stamps(
                cx.admitted_us,
                cx.admitted_us,
                cx.admitted_us,
                clock.now_us(),
            ),
            phases,
            &outcome,
        );
        match outcome {
            Ok(resp) => resp.predictions,
            Err(_) => fallback(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use crate::clock::VirtualClock;
    use crate::tier::PredictorTier;
    use bootleg_core::ExMention;
    use std::sync::Arc;

    fn limits() -> ValidationLimits {
        ValidationLimits { n_entities: 100, vocab_size: 100, max_tokens: 64 }
    }

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

    fn echo_chain() -> FallbackChain<'static> {
        FallbackChain::with_clock(Arc::new(VirtualClock::new()), BreakerConfig::default())
            .tier(PredictorTier::new("echo", |e: &Example| vec![1; e.mentions.len()]))
    }

    #[test]
    fn every_request_gets_exactly_one_outcome() {
        let chain = echo_chain();
        let reqs: Vec<Example> = (0..50).map(|_| example()).collect();
        let cfg = ServeConfig::default().with_workers(4).with_queue_cap(8);
        let outcomes = serve_requests(&chain, &limits(), &cfg, &reqs);
        assert_eq!(outcomes.len(), 50);
        for out in &outcomes {
            match out {
                Ok(resp) => assert_eq!(resp.predictions, vec![1]),
                Err(ServeError::Shed { .. }) => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_requests_are_rejected_at_admission() {
        let chain = echo_chain();
        let mut bad = example();
        bad.mentions.clear();
        let cfg = ServeConfig::default().with_workers(2);
        let outcomes = serve_requests(&chain, &limits(), &cfg, &[bad, example()]);
        assert!(matches!(outcomes[0], Err(ServeError::Rejected(_))));
        assert!(outcomes[1].is_ok());
    }

    /// Records the size of every batch a tier is asked to answer.
    struct RecordingTier<'a> {
        sizes: &'a Mutex<Vec<usize>>,
    }

    impl crate::tier::Tier for RecordingTier<'_> {
        fn name(&self) -> &'static str {
            "recording"
        }

        fn predict(
            &self,
            ex: &Example,
            _cx: &RequestCx,
        ) -> Result<Vec<usize>, crate::error::TierFailure> {
            self.sizes.lock().expect("sizes lock").push(1);
            Ok(vec![1; ex.mentions.len()])
        }

        fn predict_batch(
            &self,
            exs: &[&Example],
            _cxs: &[RequestCx],
        ) -> Vec<Result<Vec<usize>, crate::error::TierFailure>> {
            self.sizes.lock().expect("sizes lock").push(exs.len());
            exs.iter().map(|e| Ok(vec![1; e.mentions.len()])).collect()
        }
    }

    fn queue_of(n: usize) -> Queue {
        let queue = Queue::new();
        for idx in 0..n {
            let cx = RequestCx::new(idx as u64 + 1, Deadline::none());
            queue.try_push(Job { idx, cx, popped_us: 0 }, n).expect("under cap");
        }
        queue
    }

    fn indices(batch: &[Job]) -> Vec<usize> {
        batch.iter().map(|job| job.idx).collect()
    }

    #[test]
    fn prefilled_queue_pops_full_batches_in_order() {
        let queue = queue_of(12);
        let clock = VirtualClock::new();
        clock.advance_ms(7);
        for start in [0, 4, 8] {
            let batch = queue.pop_batch(4, &clock).expect("queued jobs");
            assert_eq!(indices(&batch), (start..start + 4).collect::<Vec<_>>());
            assert!(batch.iter().all(|job| job.popped_us == 7_000), "stamped at pop");
        }
    }

    #[test]
    fn lone_job_is_dispatched_without_waiting_for_stragglers() {
        // The queue stays open and the virtual clock never moves, so only a
        // batcher that never waits for stragglers can return.
        let queue = Arc::new(queue_of(1));
        let (tx, rx) = std::sync::mpsc::channel();
        let popper = Arc::clone(&queue);
        let handle = std::thread::spawn(move || {
            let batch = popper.pop_batch(8, &VirtualClock::new()).expect("one queued job");
            tx.send(indices(&batch)).expect("test still listening");
        });
        // On a timeout the popper is left blocked; the failed test ends it.
        let popped = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(popped.expect("pop_batch returned a lone job at once"), vec![0]);
        handle.join().expect("popper thread");
        queue.close();
    }

    #[test]
    fn closed_queue_drains_then_ends() {
        let queue = queue_of(5);
        queue.close();
        let clock = VirtualClock::new();
        assert_eq!(indices(&queue.pop_batch(4, &clock).expect("first batch")), vec![0, 1, 2, 3]);
        assert_eq!(indices(&queue.pop_batch(4, &clock).expect("remainder")), vec![4]);
        assert!(queue.pop_batch(4, &clock).is_none(), "drained and closed");
    }

    #[test]
    fn concurrent_workers_answer_every_request() {
        let sizes = Mutex::new(Vec::new());
        let chain =
            FallbackChain::with_clock(Arc::new(VirtualClock::new()), BreakerConfig::default())
                .tier(RecordingTier { sizes: &sizes });
        let reqs: Vec<Example> = (0..20).map(|_| example()).collect();
        let cfg = ServeConfig::default().with_workers(2).with_queue_cap(32).with_batch_max(8);
        let outcomes = serve_requests(&chain, &limits(), &cfg, &reqs);
        for out in outcomes {
            assert_eq!(out.expect("served").predictions, vec![1]);
        }
        // Batch sizes depend on worker/producer timing; only the shape is
        // deterministic: everything served, nothing over the cap.
        let sizes = sizes.lock().expect("sizes lock");
        assert_eq!(sizes.iter().sum::<usize>(), 20);
        assert!(sizes.iter().all(|&s| (1..=8).contains(&s)));
    }

    #[test]
    fn expired_requests_are_evicted_at_batch_formation() {
        let sizes = Mutex::new(Vec::new());
        let chain =
            FallbackChain::with_clock(Arc::new(VirtualClock::new()), BreakerConfig::default())
                .tier(RecordingTier { sizes: &sizes });
        let reqs: Vec<Example> = (0..6).map(|_| example()).collect();
        // deadline_ms = 0: every deadline is already expired when its batch
        // forms, so eviction answers all requests and no tier ever runs.
        let cfg = ServeConfig::default().with_workers(1).with_batch_max(4).with_deadline_ms(0);
        let outcomes = serve_requests(&chain, &limits(), &cfg, &reqs);
        for out in outcomes {
            match out {
                Err(ServeError::DeadlineExceeded { phase, tiers }) => {
                    assert_eq!(phase, "queue");
                    assert!(tiers.is_empty());
                }
                other => panic!("expected formation-time eviction, got {other:?}"),
            }
        }
        assert!(sizes.lock().expect("sizes lock").is_empty(), "no batch reached a tier");
    }

    /// Breaks the `Tier` contract: its batched call unwinds, so the panic
    /// escapes the chain.
    struct UnwindingTier;

    impl crate::tier::Tier for UnwindingTier {
        fn name(&self) -> &'static str {
            "unwinding"
        }

        fn predict(
            &self,
            ex: &Example,
            cx: &RequestCx,
        ) -> Result<Vec<usize>, crate::error::TierFailure> {
            self.predict_batch(&[ex], std::slice::from_ref(cx)).pop().expect("one result")
        }

        fn predict_batch(
            &self,
            _exs: &[&Example],
            _cxs: &[RequestCx],
        ) -> Vec<Result<Vec<usize>, crate::error::TierFailure>> {
            panic!("tier unwound")
        }
    }

    #[test]
    fn panic_escaping_the_chain_is_one_internal_error_per_request() {
        let chain =
            FallbackChain::with_clock(Arc::new(VirtualClock::new()), BreakerConfig::default())
                .tier(UnwindingTier);
        let reqs: Vec<Example> = (0..6).map(|_| example()).collect();
        let panics = bootleg_obs::metrics::counter("serve.internal_panics");
        for batch_max in [1, 4] {
            let before = panics.value();
            let cfg = ServeConfig::default()
                .with_workers(1)
                .with_queue_cap(reqs.len())
                .with_batch_max(batch_max);
            let outcomes = serve_requests(&chain, &limits(), &cfg, &reqs);
            assert_eq!(outcomes.len(), reqs.len());
            for out in &outcomes {
                match out {
                    Err(ServeError::Internal { message }) => assert_eq!(message, "tier unwound"),
                    other => panic!("batch_max {batch_max}: expected Internal, got {other:?}"),
                }
            }
            assert_eq!(panics.value() - before, reqs.len() as u64, "batch_max {batch_max}");
        }
    }

    #[test]
    fn resilient_predictor_answers_everything() {
        let chain = echo_chain();
        let p = ResilientPredictor::new(&chain, limits());
        assert_eq!(p.predict(&example()), vec![1]);
        let mut bad = example();
        bad.tokens[0] = 1_000; // outside vocab → validate fails → fallback
        assert_eq!(p.predict(&bad), vec![0]);
    }
}
