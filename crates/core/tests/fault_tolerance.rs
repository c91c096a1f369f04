//! Fault-tolerance integration tests: a training run killed mid-way and
//! resumed from its checkpoint must be bit-identical to one that never
//! stopped, checkpoints survive corruption via fallback, and the anomaly
//! guards absorb injected NaN losses and exploding gradients.

use bootleg_core::fault::{CorruptionMode, Fault, FaultPlan};
use bootleg_core::{
    train_resumable, BootlegConfig, BootlegModel, CheckpointConfig, RecoveryKind, TrainConfig,
    TrainStatus,
};
use bootleg_corpus::{generate_corpus, Corpus, CorpusConfig};
use bootleg_kb::{generate as gen_kb, KbConfig, KnowledgeBase};
use std::path::PathBuf;

fn setup() -> (KnowledgeBase, Corpus) {
    let kb = gen_kb(&KbConfig { n_entities: 150, seed: 61, ..KbConfig::default() });
    let c = generate_corpus(&kb, &CorpusConfig { n_pages: 40, seed: 61, ..CorpusConfig::default() });
    (kb, c)
}

fn fresh_model(kb: &KnowledgeBase, c: &Corpus) -> BootlegModel {
    let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
    BootlegModel::new(kb, &c.vocab, &counts, BootlegConfig::default())
}

fn config() -> TrainConfig {
    TrainConfig { epochs: 2, batch_size: 8, ..TrainConfig::default() }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bootleg_ft_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn params_bytes(m: &BootlegModel) -> Vec<u8> {
    let mut w = bootleg_tensor::frozen::FrozenWriter::new();
    bootleg_tensor::frozen::add_params(&mut w, &m.params);
    w.to_bytes()
}

#[test]
fn crash_resume_is_bit_identical_to_uninterrupted_run() {
    let (kb, c) = setup();
    let cfg = config();

    // Reference: uninterrupted run, no checkpointing.
    let mut reference = fresh_model(&kb, &c);
    let ref_out =
        train_resumable(&mut reference, &kb, &c.train, &cfg, None, &FaultPlan::none())
            .expect("no checkpoint I/O");
    assert_eq!(ref_out.status, TrainStatus::Completed);
    assert!(ref_out.report.steps > 8, "need enough steps to crash mid-run");
    let crash_at = ref_out.report.steps / 2;

    // Crashed run: killed right after `crash_at` steps (checkpoint written),
    // then resumed in a *fresh process* (new model, new optimizer).
    let dir = tmpdir("resume");
    let ck = CheckpointConfig::new(&dir, 0); // checkpoint only at the crash
    let mut crashed = fresh_model(&kb, &c);
    let plan = FaultPlan::none().with(Fault::Crash { after_step: crash_at });
    let out = train_resumable(&mut crashed, &kb, &c.train, &cfg, Some(&ck), &plan)
        .expect("train to crash");
    assert_eq!(out.status, TrainStatus::SimulatedCrash { at_step: crash_at });

    let mut resumed = fresh_model(&kb, &c);
    let out2 = train_resumable(&mut resumed, &kb, &c.train, &cfg, Some(&ck), &FaultPlan::none())
        .expect("resume");
    assert_eq!(out2.status, TrainStatus::Completed);
    assert_eq!(out2.report.resumed_from, Some(crash_at));
    assert!(out2
        .report
        .recovery_events
        .iter()
        .any(|e| e.kind == RecoveryKind::Resumed));

    // The whole point: same final parameters, bit for bit, and same
    // per-epoch losses and step count as the run that never died.
    assert_eq!(out2.report.steps, ref_out.report.steps);
    assert_eq!(out2.report.epoch_losses, ref_out.report.epoch_losses);
    assert_eq!(
        params_bytes(&resumed),
        params_bytes(&reference),
        "resumed params must be bit-identical to the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_previous() {
    let (kb, c) = setup();
    let cfg = config();
    let dir = tmpdir("fallback");
    let ck = CheckpointConfig { dir: dir.clone(), every_steps: 3, keep_last: 5 };

    // Crash after step 9; the checkpoint written at step 9 is damaged on
    // disk (torn write), so resume must fall back to the step-6 one.
    let plan = FaultPlan::none()
        .with(Fault::Crash { after_step: 9 })
        .with(Fault::CorruptCheckpoint { at_step: 9, mode: CorruptionMode::Truncate });
    let mut crashed = fresh_model(&kb, &c);
    let out = train_resumable(&mut crashed, &kb, &c.train, &cfg, Some(&ck), &plan)
        .expect("train to crash");
    assert_eq!(out.status, TrainStatus::SimulatedCrash { at_step: 9 });

    let mut resumed = fresh_model(&kb, &c);
    let out2 = train_resumable(&mut resumed, &kb, &c.train, &cfg, Some(&ck), &FaultPlan::none())
        .expect("resume past corruption");
    assert_eq!(out2.status, TrainStatus::Completed);
    assert_eq!(out2.report.resumed_from, Some(6), "must fall back to step-6 checkpoint");
    assert!(
        out2.report
            .recovery_events
            .iter()
            .any(|e| e.kind == RecoveryKind::CheckpointFallback),
        "fallback must be reported: {:?}",
        out2.report.recovery_events
    );

    // Falling back loses steps 7-9 but replay is deterministic, so the
    // final model still matches an uninterrupted run exactly.
    let mut reference = fresh_model(&kb, &c);
    let ref_out = train_resumable(&mut reference, &kb, &c.train, &cfg, None, &FaultPlan::none())
        .expect("reference");
    assert_eq!(params_bytes(&resumed), params_bytes(&reference));
    assert_eq!(out2.report.epoch_losses, ref_out.report.epoch_losses);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn nan_loss_and_exploding_grad_are_skipped_and_reported() {
    let (kb, c) = setup();
    let cfg = config();

    let clean = {
        let mut m = fresh_model(&kb, &c);
        train_resumable(&mut m, &kb, &c.train, &cfg, None, &FaultPlan::none()).expect("clean")
    };
    assert_eq!(clean.report.skipped_updates(), 0);
    assert!(clean.report.steps > 4);

    let plan = FaultPlan::none()
        .with(Fault::NanLoss { attempt: 2 })
        .with(Fault::ExplodingGrad { attempt: 4, scale: 1e12 });
    let mut m = fresh_model(&kb, &c);
    let out = train_resumable(&mut m, &kb, &c.train, &cfg, None, &plan).expect("guarded");
    assert_eq!(out.status, TrainStatus::Completed);

    let kinds: Vec<RecoveryKind> = out.report.recovery_events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&RecoveryKind::NonFiniteLoss), "events: {kinds:?}");
    assert!(kinds.contains(&RecoveryKind::GradExplosion), "events: {kinds:?}");
    assert_eq!(out.report.skipped_updates(), 2, "exactly the two injected anomalies");
    // Each skipped batch costs one optimizer step relative to the clean run.
    assert_eq!(out.report.steps, clean.report.steps - 2);

    // The model must stay finite and trainable through the faults.
    for (_, p) in m.params.iter() {
        assert!(p.data.data().iter().all(|v| v.is_finite()), "param {} went non-finite", p.name);
    }
    let last = *out.report.epoch_losses.last().expect("epochs ran");
    assert!(last.is_finite() && last < out.report.epoch_losses[0] * 1.5);
}

#[test]
fn repeated_anomalies_back_off_learning_rate() {
    let (kb, c) = setup();
    let mut cfg = config();
    cfg.anomaly.divergence_patience = 3;

    let mut plan = FaultPlan::none();
    for attempt in 1..=3 {
        plan = plan.with(Fault::ExplodingGrad { attempt, scale: 1e12 });
    }
    let mut m = fresh_model(&kb, &c);
    let out = train_resumable(&mut m, &kb, &c.train, &cfg, None, &plan).expect("train");
    let backoffs: Vec<_> = out
        .report
        .recovery_events
        .iter()
        .filter(|e| e.kind == RecoveryKind::LrBackoff)
        .collect();
    assert_eq!(backoffs.len(), 1, "3 strikes at patience 3 = one backoff: {backoffs:?}");
    assert!(backoffs[0].detail.contains("->"), "detail should show the lr change");
}

#[test]
fn resume_rejects_checkpoint_from_different_corpus() {
    let (kb, c) = setup();
    let cfg = config();
    let dir = tmpdir("mismatch");
    let ck = CheckpointConfig { dir: dir.clone(), every_steps: 4, keep_last: 2 };
    let plan = FaultPlan::none().with(Fault::Crash { after_step: 4 });
    let mut m = fresh_model(&kb, &c);
    train_resumable(&mut m, &kb, &c.train, &cfg, Some(&ck), &plan).expect("crash");

    // Same model architecture, different (smaller) corpus: the checkpoint's
    // example count no longer matches, so resume must fail loudly instead
    // of silently training on a different shuffle universe.
    let half = &c.train[..c.train.len() / 2];
    let mut m2 = fresh_model(&kb, &c);
    let err = train_resumable(&mut m2, &kb, half, &cfg, Some(&ck), &FaultPlan::none())
        .expect_err("must reject corpus mismatch");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("examples"), "err: {err}");
    std::fs::remove_dir_all(&dir).ok();
}
