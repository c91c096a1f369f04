//! Chaos tests: injected panics, stalls, and payload corruption against the
//! full serving stack (real model, real fallback tiers, real worker pool).
//!
//! The invariant under test, at any worker count (CI runs the suite at
//! `BOOTLEG_THREADS=2` and `=8`): **every submitted request gets exactly
//! one terminal outcome** — no hangs, no lost requests, no worker deaths —
//! and fault-free traffic is bit-identical to calling the model directly.

use bootleg_baselines::{NedBase, NedBaseConfig, PopularityPrior};
use bootleg_core::fault::{Fault, FaultPlan};
use bootleg_core::{BootlegConfig, BootlegModel, Example};
use bootleg_corpus::{generate_corpus, Corpus, CorpusConfig};
use bootleg_eval::{BootlegPredictor, Predictor};
use bootleg_kb::{generate as gen_kb, KbConfig, KnowledgeBase};
use bootleg_serve::{
    serve_requests, Deadline, FallbackChain, ModelTier, PredictorTier, RequestCx, ServeConfig,
    ServeError,
};
use std::sync::{Mutex, MutexGuard};

fn setup() -> (KnowledgeBase, Corpus, BootlegModel, NedBase) {
    let kb = gen_kb(&KbConfig { n_entities: 300, seed: 191, ..KbConfig::default() });
    let c = generate_corpus(&kb, &CorpusConfig { n_pages: 60, seed: 191, ..CorpusConfig::default() });
    let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
    let model = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default());
    let ned = NedBase::new(&kb, &c.vocab, NedBaseConfig::default());
    (kb, c, model, ned)
}

fn requests(c: &Corpus, n: usize) -> Vec<Example> {
    let mut reqs: Vec<Example> = c
        .dev
        .iter()
        .chain(c.train.iter())
        .filter_map(Example::evaluation)
        .take(n)
        .collect();
    assert!(reqs.len() >= n.min(24), "corpus too small for the chaos test");
    reqs.truncate(n);
    reqs
}

/// Tests that can raise the global `serve.batch_retries` counter run
/// serialized, so one of them can read its own increments.
fn retries_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn chain<'a>(
    model: &'a BootlegModel,
    kb: &'a KnowledgeBase,
    ned: &'a NedBase,
    faults: FaultPlan,
) -> FallbackChain<'a> {
    FallbackChain::new()
        .tier(ModelTier::new(model, kb).with_faults(faults))
        .tier(PredictorTier::new("ned_base", |e: &Example| ned.predict_indices(e)))
        .tier(PredictorTier::new("prior", PopularityPrior))
}

/// The acceptance scenario: a mixed fault schedule (panics, stalls, payload
/// corruption) at whatever worker count `BOOTLEG_THREADS` dictates. Every
/// request terminates exactly once; faulted requests degrade instead of
/// failing; clean requests are answered by the primary tier bit-identically
/// to a direct predictor call.
#[test]
fn chaos_every_request_terminates_exactly_once() {
    let _guard = retries_lock();
    let (kb, c, model, ned) = setup();
    let reqs = requests(&c, 24);
    let faults = FaultPlan::none()
        .with(Fault::PanicOnExample { seq: 3 })
        .with(Fault::PanicOnExample { seq: 17 })
        .with(Fault::SlowInfer { seq: 5, millis: 20 })
        .with(Fault::MalformedExample { seq: 9 })
        .with(Fault::MalformedExample { seq: 21 });
    let tier0 = ModelTier::new(&model, &kb);
    let limits = tier0.limits();
    // The tiers consume SlowInfer/PanicOnExample; the server consumes
    // MalformedExample (it corrupts the payload after admission).
    let chain = chain(&model, &kb, &ned, faults.clone());
    let cfg = ServeConfig::default().with_queue_cap(reqs.len()).with_chaos(faults);
    let outcomes = serve_requests(&chain, &limits, &cfg, &reqs);
    assert_eq!(outcomes.len(), reqs.len());

    let direct = BootlegPredictor::new(&model, &kb);
    for (idx, outcome) in outcomes.iter().enumerate() {
        let seq = idx as u64 + 1;
        let resp = outcome.as_ref().unwrap_or_else(|e| {
            panic!("request {seq} should be answered by some tier, got {e}")
        });
        match seq {
            // Injected panics and corrupted payloads: a fallback tier answers.
            3 | 17 | 9 | 21 => {
                assert!(resp.degraded, "request {seq} should be degraded");
                assert!(resp.tier >= 1);
                assert_eq!(resp.predictions.len(), reqs[idx].mentions.len());
            }
            // Everything else (including the stalled request — no deadline
            // here): primary tier, bit-identical to the direct call.
            _ => {
                assert_eq!((resp.tier, resp.tier_name), (0, "bootleg"), "request {seq}");
                assert!(!resp.degraded);
                assert_eq!(resp.predictions, direct.predict(&reqs[idx]), "request {seq}");
            }
        }
    }
}

/// A stalled request with a real deadline is terminal (no budget left for a
/// fallback), while untouched requests still succeed. One worker, stall on
/// the *last* request, so the clean ones never queue behind it.
/// `batch_max = 1` pins per-request serving: in a micro-batch the up-front
/// stall would (correctly) delay batch-mates past their deadlines too.
#[test]
fn deadline_expiry_is_terminal_with_diagnostics() {
    let (kb, c, model, ned) = setup();
    let reqs = requests(&c, 6);
    let last_seq = reqs.len() as u64;
    let faults = FaultPlan::none().with(Fault::SlowInfer { seq: last_seq, millis: 300 });
    let tier0 = ModelTier::new(&model, &kb);
    let limits = tier0.limits();
    let chain = chain(&model, &kb, &ned, faults);
    let cfg = ServeConfig::default()
        .with_workers(1)
        .with_queue_cap(reqs.len())
        .with_deadline_ms(100)
        .with_batch_max(1);
    let outcomes = serve_requests(&chain, &limits, &cfg, &reqs);
    match outcomes.last().expect("outcomes are non-empty") {
        Err(ServeError::DeadlineExceeded { phase, tiers }) => {
            assert_eq!(*phase, "queue", "stall happens before the forward pass");
            assert_eq!(tiers.len(), 1, "only the primary tier was attempted");
            assert_eq!(tiers[0].tier, "bootleg");
        }
        other => panic!("stalled request should blow its deadline, got {other:?}"),
    }
    for outcome in &outcomes[..reqs.len() - 1] {
        let resp = outcome.as_ref().expect("clean request succeeds");
        assert_eq!(resp.tier, 0);
    }
}

/// Overload: one slow worker, a tiny queue, a burst of requests. The excess
/// is shed with a typed error — and the conservation law still holds: every
/// request is answered, shed, or rejected, never lost.
#[test]
fn overload_sheds_instead_of_queueing_unboundedly() {
    let (kb, c, model, ned) = setup();
    let reqs = requests(&c, 20);
    let faults = FaultPlan::none().with(Fault::SlowInfer { seq: 1, millis: 150 });
    let tier0 = ModelTier::new(&model, &kb);
    let limits = tier0.limits();
    let chain = chain(&model, &kb, &ned, faults);
    let cfg = ServeConfig::default().with_workers(1).with_queue_cap(2);
    let outcomes = serve_requests(&chain, &limits, &cfg, &reqs);

    let (mut ok, mut shed) = (0usize, 0usize);
    for outcome in &outcomes {
        match outcome {
            Ok(resp) => {
                ok += 1;
                assert_eq!(resp.tier, 0, "no faults beyond the stall");
            }
            Err(ServeError::Shed { queue_depth }) => {
                shed += 1;
                assert_eq!(*queue_depth, 2, "shed at exactly the configured capacity");
            }
            other => panic!("unexpected outcome under overload: {other:?}"),
        }
    }
    assert_eq!(ok + shed, reqs.len(), "conservation: answered + shed == submitted");
    assert!(shed >= 1, "a 150ms stall against a 2-deep queue must shed");
}

/// One poisoned request in a micro-batch of 8, straight through the chain:
/// the batched forward pass panics, the model tier retries each member
/// alone under its own `catch_unwind` (exactly one `serve.batch_retries`),
/// and only the poisoned request degrades — its batch-mates are answered by
/// the primary tier bit-identically to a direct call.
#[test]
fn poisoned_batch_member_is_retried_once_and_degrades_alone() {
    let _guard = retries_lock();
    let (kb, c, model, ned) = setup();
    let reqs = requests(&c, 8);
    let chain = chain(&model, &kb, &ned, FaultPlan::none().with(Fault::PanicOnExample { seq: 6 }));
    let direct = BootlegPredictor::new(&model, &kb);
    let retries = bootleg_obs::metrics::counter("serve.batch_retries");
    let before = retries.value();
    let exs: Vec<&Example> = reqs.iter().collect();
    let cxs: Vec<RequestCx> =
        (1..=reqs.len() as u64).map(|seq| RequestCx::new(seq, Deadline::none())).collect();
    let outcomes = chain.predict_batch(&exs, &cxs);
    assert_eq!(outcomes.len(), reqs.len());
    for (idx, outcome) in outcomes.iter().enumerate() {
        let seq = idx as u64 + 1;
        let resp = outcome.as_ref().expect("every request is answered by some tier");
        if seq == 6 {
            assert!(resp.degraded, "the poisoned request degrades");
            assert!(resp.tier >= 1);
        } else {
            assert_eq!((resp.tier, resp.degraded), (0, false), "batch-mate {seq}");
            assert_eq!(resp.predictions, direct.predict(&reqs[idx]), "batch-mate {seq}");
        }
    }
    assert_eq!(retries.value() - before, 1, "one batched pass retried");
}

/// The same poisoned request through the full server, one worker, in
/// batches of up to 8 and alone (batch_max = 1). Only the poisoned request
/// degrades either way. Alone, it is a batch of one and fails over with no
/// retry; at batch_max 8 the work-conserving batcher decides whether it
/// shares a batch, so at most one batched pass is retried.
#[test]
fn poisoned_batch_member_degrades_alone() {
    let _guard = retries_lock();
    let (kb, c, model, ned) = setup();
    let reqs = requests(&c, 16);
    let faults = FaultPlan::none().with(Fault::PanicOnExample { seq: 6 });
    let tier0 = ModelTier::new(&model, &kb);
    let limits = tier0.limits();
    let chain = chain(&model, &kb, &ned, faults);
    let direct = BootlegPredictor::new(&model, &kb);
    let retries = bootleg_obs::metrics::counter("serve.batch_retries");
    for (batch_max, max_retries) in [(1, 0), (8, 1)] {
        let before = retries.value();
        let cfg = ServeConfig::default()
            .with_workers(1)
            .with_queue_cap(reqs.len())
            .with_batch_max(batch_max);
        let outcomes = serve_requests(&chain, &limits, &cfg, &reqs);
        for (idx, outcome) in outcomes.iter().enumerate() {
            let seq = idx as u64 + 1;
            let resp = outcome.as_ref().expect("every request is answered by some tier");
            if seq == 6 {
                assert!(resp.degraded, "batch_max {batch_max}: the poisoned request degrades");
                assert!(resp.tier >= 1);
            } else {
                assert_eq!((resp.tier, resp.degraded), (0, false), "batch-mate {seq}");
                assert_eq!(resp.predictions, direct.predict(&reqs[idx]), "batch-mate {seq}");
            }
        }
        assert!(retries.value() - before <= max_retries, "batch_max {batch_max}");
    }
}

/// Payload corruption and stalls inside micro-batches at 2 workers:
/// corruption is applied per job at batch formation (clean batch-mates are
/// served by reference, never cloned), so only the corrupted requests
/// degrade while a stalled batch still answers on the primary tier.
#[test]
fn corrupted_batch_members_degrade_alone() {
    let _guard = retries_lock();
    let (kb, c, model, ned) = setup();
    let reqs = requests(&c, 16);
    let faults = FaultPlan::none()
        .with(Fault::MalformedExample { seq: 4 })
        .with(Fault::MalformedExample { seq: 11 })
        .with(Fault::SlowInfer { seq: 7, millis: 10 });
    let tier0 = ModelTier::new(&model, &kb);
    let limits = tier0.limits();
    let chain = chain(&model, &kb, &ned, faults.clone());
    let direct = BootlegPredictor::new(&model, &kb);
    let cfg = ServeConfig::default()
        .with_workers(2)
        .with_queue_cap(reqs.len())
        .with_batch_max(8)
        .with_chaos(faults);
    let outcomes = serve_requests(&chain, &limits, &cfg, &reqs);
    for (idx, outcome) in outcomes.iter().enumerate() {
        let seq = idx as u64 + 1;
        let resp = outcome.as_ref().expect("every request is answered by some tier");
        match seq {
            4 | 11 => {
                assert!(resp.degraded, "corrupted request {seq} should be degraded");
                assert!(resp.tier >= 1);
                assert_eq!(resp.predictions.len(), reqs[idx].mentions.len());
            }
            _ => {
                assert_eq!((resp.tier, resp.degraded), (0, false), "request {seq}");
                assert_eq!(resp.predictions, direct.predict(&reqs[idx]), "request {seq}");
            }
        }
    }
}

/// Fault-free serving end to end: all requests on tier 0, bit-identical to
/// the direct predictor, across every worker count.
#[test]
fn fault_free_serving_is_bit_identical_to_direct_inference() {
    let (kb, c, model, ned) = setup();
    let reqs = requests(&c, 16);
    let tier0 = ModelTier::new(&model, &kb);
    let limits = tier0.limits();
    let chain = chain(&model, &kb, &ned, FaultPlan::none());
    let direct = BootlegPredictor::new(&model, &kb);
    for workers in [1, 2, 8] {
        let cfg = ServeConfig::default().with_workers(workers).with_queue_cap(reqs.len());
        let outcomes = serve_requests(&chain, &limits, &cfg, &reqs);
        for (idx, outcome) in outcomes.iter().enumerate() {
            let resp = outcome.as_ref().expect("fault-free request succeeds");
            assert_eq!((resp.tier, resp.degraded), (0, false));
            assert_eq!(
                resp.predictions,
                direct.predict(&reqs[idx]),
                "workers={workers} request {idx}"
            );
        }
    }
}
