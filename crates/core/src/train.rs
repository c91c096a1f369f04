//! Mini-batch Adam training loop for Bootleg (Appendix B training details),
//! hardened for long runs:
//!
//! * **Atomic checkpoint/resume** — with a [`CheckpointConfig`] the loop
//!   periodically writes a checksummed checkpoint (model parameters, Adam
//!   moments, RNG chain, epoch/batch position, loss accumulators, anomaly
//!   state) as a `BTFZ` container through `bootleg_tensor::checkpoint`'s
//!   manager, and [`train_resumable`]
//!   restores the newest valid one on startup. A resumed run is
//!   **bit-identical** to one that never stopped: the shuffle order of each
//!   epoch is a pure function of `(seed, epoch)` and every piece of mutable
//!   loop state is serialized, so replay continues the exact same stream.
//! * **Anomaly guards** — non-finite or spiking batch losses and exploding
//!   gradient norms skip the optimizer update instead of poisoning the
//!   model, and repeated anomalies back off the learning rate. Every
//!   recovery is recorded as a [`RecoveryEvent`] in the [`TrainReport`].
//! * **Fault injection** — a [`FaultPlan`](crate::fault::FaultPlan)
//!   deterministically injects NaN losses, exploding gradients, simulated
//!   crashes, and checkpoint corruption so all of the above is testable.

use crate::example::Example;
use crate::fault::{corrupt_file, FaultPlan};
use crate::forward::ForwardOptions;
use crate::model::BootlegModel;
use bootleg_corpus::Sentence;
use bootleg_kb::KnowledgeBase;
use bootleg_nn::optim::{clip_grad_norm, Adam};
use bootleg_tensor::checkpoint::{with_path, CheckpointManager};
use bootleg_tensor::frozen::{
    add_params, restore_params, Builder, Cursor, FrozenError, FrozenReader, FrozenWriter,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io;
use std::path::PathBuf;

/// Anomaly-guard thresholds. Defaults are deliberately loose: a healthy run
/// never trips them, and genuine blow-ups (NaN, 1e12-scaled gradients)
/// always do.
#[derive(Clone, Debug)]
pub struct AnomalyConfig {
    /// A batch loss above `spike_factor x` the loss EMA is treated as a
    /// spike and its update skipped.
    pub spike_factor: f32,
    /// Decay of the batch-loss EMA used for spike detection.
    pub ema_beta: f64,
    /// Accepted steps before spike detection arms (the EMA needs history).
    pub warmup_steps: u64,
    /// A pre-clip global gradient norm above this skips the update.
    pub grad_norm_max: f32,
    /// Consecutive-ish anomaly strikes before the learning rate backs off.
    pub divergence_patience: u64,
    /// Multiplier applied to the learning rate on divergence.
    pub lr_backoff: f32,
    /// The learning rate never backs off below this.
    pub min_lr: f32,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        Self {
            spike_factor: 8.0,
            ema_beta: 0.98,
            warmup_steps: 20,
            grad_norm_max: 1e4,
            divergence_patience: 25,
            lr_backoff: 0.5,
            min_lr: 1e-5,
        }
    }
}

/// Training hyperparameters. The paper uses Adam at lr 1e-4; at our scale a
/// slightly larger rate converges in the 1–2 epochs we run.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Sentences per gradient step (gradients are averaged).
    pub batch_size: usize,
    /// Global gradient-norm clip.
    pub clip: f32,
    /// Shuffling / masking seed.
    pub seed: u64,
    /// Optional cap on training sentences per epoch (subsampling).
    pub max_sentences: Option<usize>,
    /// Print a progress line every this many steps (0 = silent).
    pub log_every: usize,
    /// Anomaly-guard thresholds.
    pub anomaly: AnomalyConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 2,
            lr: 1e-3,
            batch_size: 16,
            clip: 5.0,
            seed: 1234,
            max_sentences: None,
            log_every: 0,
            anomaly: AnomalyConfig::default(),
        }
    }
}

/// Where and how often to checkpoint a training run.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory for `ckpt-<step>.btfz` files (created if missing).
    pub dir: PathBuf,
    /// Save every this many optimizer steps (0 = only on simulated crash).
    pub every_steps: u64,
    /// Number of most-recent checkpoints retained on disk.
    pub keep_last: usize,
}

impl CheckpointConfig {
    /// Checkpoints into `dir` every `every_steps` steps, keeping the last 3.
    pub fn new(dir: impl Into<PathBuf>, every_steps: u64) -> Self {
        Self { dir: dir.into(), every_steps, keep_last: 3 }
    }
}

/// What kind of recovery the trainer performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryKind {
    /// Batch loss was NaN/inf; update skipped.
    NonFiniteLoss,
    /// Batch loss spiked far above its EMA; update skipped.
    LossSpike,
    /// Pre-clip gradient norm was anomalous; update skipped.
    GradExplosion,
    /// Repeated anomalies triggered a learning-rate backoff.
    LrBackoff,
    /// A corrupt checkpoint was skipped during resume.
    CheckpointFallback,
    /// Training resumed from a checkpoint.
    Resumed,
}

impl RecoveryKind {
    /// The obs event this recovery is logged and counted under
    /// (`event.<name>` in the metrics registry).
    pub fn event_name(self) -> &'static str {
        match self {
            RecoveryKind::NonFiniteLoss => "train.recovery.non_finite_loss",
            RecoveryKind::LossSpike => "train.recovery.loss_spike",
            RecoveryKind::GradExplosion => "train.recovery.grad_explosion",
            RecoveryKind::LrBackoff => "train.recovery.lr_backoff",
            RecoveryKind::CheckpointFallback => "train.recovery.checkpoint_fallback",
            RecoveryKind::Resumed => "train.recovery.resumed",
        }
    }

    /// Resumes are normal lifecycle; everything else deserves attention.
    fn level(self) -> bootleg_obs::Level {
        match self {
            RecoveryKind::Resumed => bootleg_obs::Level::Info,
            _ => bootleg_obs::Level::Warn,
        }
    }
}

/// Records one recovery in the report *and* through the obs event log, so
/// anomaly-guard trips are counted in `results/metrics.json` even when their
/// log lines are filtered.
fn record_recovery(
    report: &mut TrainReport,
    step: u64,
    epoch: usize,
    kind: RecoveryKind,
    detail: String,
) {
    bootleg_obs::logger::log_event(
        kind.level(),
        kind.event_name(),
        &[("step", &step), ("epoch", &epoch), ("detail", &detail)],
    );
    report.recovery_events.push(RecoveryEvent { step, epoch, kind, detail });
}

/// One recovery action taken during training.
#[derive(Clone, Debug)]
pub struct RecoveryEvent {
    /// Optimizer steps completed when the event fired.
    pub step: u64,
    /// Epoch the event fired in.
    pub epoch: usize,
    /// What happened.
    pub kind: RecoveryKind,
    /// Human-readable specifics (loss value, norm, file, ...).
    pub detail: String,
}

/// Per-epoch training statistics plus the recovery log.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Number of usable training examples.
    pub n_examples: usize,
    /// Total optimizer steps taken.
    pub steps: u64,
    /// Every recovery action taken (skips, backoffs, fallbacks, resumes).
    pub recovery_events: Vec<RecoveryEvent>,
    /// Step of the checkpoint this run resumed from, if it resumed.
    pub resumed_from: Option<u64>,
}

impl TrainReport {
    /// Number of batch updates skipped by an anomaly guard.
    pub fn skipped_updates(&self) -> usize {
        self.recovery_events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    RecoveryKind::NonFiniteLoss
                        | RecoveryKind::LossSpike
                        | RecoveryKind::GradExplosion
                )
            })
            .count()
    }
}

/// How a [`train_resumable`] run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrainStatus {
    /// All configured epochs ran.
    Completed,
    /// A [`Fault::Crash`](crate::fault::Fault::Crash) fired; a checkpoint
    /// was written and the run stopped, ready to be resumed.
    SimulatedCrash {
        /// Optimizer step the crash fired after.
        at_step: u64,
    },
}

/// A [`TrainReport`] plus how the run ended.
#[derive(Clone, Debug)]
pub struct TrainOutcome {
    /// The usual training statistics.
    pub report: TrainReport,
    /// Completed, or stopped by a simulated crash.
    pub status: TrainStatus,
}

// Checkpoint sections of the loop state; parameters and optimizer state
// bring their own.
const SEC_STATE: &str = "LOOPSTAT";
const SEC_EPOCH_LOSSES: &str = "EPLOSSES";
/// Corruption guard on the stored per-epoch loss list.
const MAX_EPOCHS: usize = 1 << 20;

/// All mutable loop state that must survive a crash for bit-exact resume.
#[derive(Clone, Debug, PartialEq)]
struct LoopState {
    epoch: u64,
    next_batch: u64,
    step_seed: u64,
    attempt: u64,
    steps: u64,
    epoch_count: u64,
    epoch_loss: f64,
    strikes: u64,
    warmup_seen: u64,
    ema: f64,
    n_examples: u64,
    epoch_losses: Vec<f32>,
}

impl LoopState {
    fn fresh(seed: u64, n_examples: usize) -> Self {
        Self {
            epoch: 0,
            next_batch: 0,
            step_seed: seed,
            attempt: 0,
            steps: 0,
            epoch_count: 0,
            epoch_loss: 0.0,
            strikes: 0,
            warmup_seen: 0,
            ema: 0.0,
            n_examples: n_examples as u64,
            epoch_losses: Vec::new(),
        }
    }

    fn add_sections(&self, w: &mut FrozenWriter) {
        let mut state = Builder::new();
        state.u64s(&[
            self.epoch,
            self.next_batch,
            self.step_seed,
            self.attempt,
            self.steps,
            self.epoch_count,
            self.epoch_loss.to_bits(),
            self.strikes,
            self.warmup_seen,
            self.ema.to_bits(),
            self.n_examples,
        ]);
        w.add(SEC_STATE, state.into_bytes());
        let mut losses = Builder::new();
        losses.u64s(&self.epoch_losses.iter().map(|l| l.to_bits() as u64).collect::<Vec<_>>());
        w.add(SEC_EPOCH_LOSSES, losses.into_bytes());
    }

    fn decode(reader: &FrozenReader) -> Result<Self, FrozenError> {
        let state = reader.require(SEC_STATE)?;
        let mut c = Cursor::new(SEC_STATE, &state);
        let v = c.u64s(11)?;
        c.finish()?;
        let [epoch, next_batch, step_seed, attempt, steps, epoch_count, loss_bits, strikes, warmup_seen, ema_bits, n_examples] =
            v[..]
        else {
            return Err(FrozenError::schema(SEC_STATE, "wrong field count"));
        };
        let losses = reader.require(SEC_EPOCH_LOSSES)?;
        let mut c = Cursor::new(SEC_EPOCH_LOSSES, &losses);
        let epoch_losses = c
            .u64s(MAX_EPOCHS)?
            .into_iter()
            .map(|b| u32::try_from(b).map(f32::from_bits))
            .collect::<Result<_, _>>()
            .map_err(|_| FrozenError::schema(SEC_EPOCH_LOSSES, "loss bits exceed 32"))?;
        c.finish()?;
        Ok(Self {
            epoch,
            next_batch,
            step_seed,
            attempt,
            steps,
            epoch_count,
            epoch_loss: f64::from_bits(loss_bits),
            strikes,
            warmup_seen,
            ema: f64::from_bits(ema_bits),
            n_examples,
            epoch_losses,
        })
    }
}

/// The example visit order for `epoch`: a pure function of `(seed, epoch)`,
/// so resuming mid-epoch can regenerate it without replaying RNG history.
/// Replays the cumulative shuffle chain (each epoch reshuffles the previous
/// epoch's order with one continuing RNG), which keeps the visit stream
/// identical whether or not a run was interrupted.
fn epoch_order(seed: u64, epoch: u64, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..=epoch {
        order.shuffle(&mut rng);
    }
    order
}

fn make_checkpoint(model: &BootlegModel, opt: &Adam, state: &LoopState) -> FrozenWriter {
    let mut w = FrozenWriter::new();
    add_params(&mut w, &model.params);
    opt.add_state(&mut w);
    state.add_sections(&mut w);
    w
}

fn restore_checkpoint(
    reader: &FrozenReader,
    model: &mut BootlegModel,
    opt: &mut Adam,
) -> Result<LoopState, FrozenError> {
    let state = LoopState::decode(reader)?;
    opt.restore_state(reader)?;
    restore_params(reader, &mut model.params)?;
    Ok(state)
}

/// Trains `model` on the labeled mentions of `sentences`.
///
/// Convenience wrapper over [`train_resumable`] with no checkpointing and no
/// fault injection; the anomaly guards from `config.anomaly` still apply.
pub fn train(
    model: &mut BootlegModel,
    kb: &KnowledgeBase,
    sentences: &[Sentence],
    config: &TrainConfig,
) -> TrainReport {
    train_resumable(model, kb, sentences, config, None, &FaultPlan::none())
        .expect("training without checkpointing performs no I/O")
        .report
}

/// Fault-tolerant training: checkpoints atomically, resumes bit-exactly,
/// guards against loss/gradient anomalies, and honors a deterministic
/// [`FaultPlan`] for testing.
///
/// With `checkpoints` set, the newest valid checkpoint in the directory is
/// restored before training (corrupt ones are skipped and reported), and a
/// new checkpoint is written every `every_steps` optimizer steps. I/O errors
/// other than corruption (which is recovered from) are returned.
pub fn train_resumable(
    model: &mut BootlegModel,
    kb: &KnowledgeBase,
    sentences: &[Sentence],
    config: &TrainConfig,
    checkpoints: Option<&CheckpointConfig>,
    faults: &FaultPlan,
) -> io::Result<TrainOutcome> {
    let _span = bootleg_obs::span!("train");
    let examples: Vec<Example> = sentences.iter().filter_map(Example::training).collect();
    let mut report = TrainReport { n_examples: examples.len(), ..Default::default() };
    if examples.is_empty() {
        return Ok(TrainOutcome { report, status: TrainStatus::Completed });
    }

    let mut opt = Adam::new(&model.params, config.lr);
    let mut st = LoopState::fresh(config.seed, examples.len());

    let manager = match checkpoints {
        Some(ck) => Some(CheckpointManager::new(&ck.dir, ck.keep_last)?),
        None => None,
    };
    if let Some(mgr) = &manager {
        if let Some(loaded) = mgr.load_latest_valid()? {
            for rej in &loaded.rejected {
                record_recovery(
                    &mut report,
                    loaded.step,
                    0,
                    RecoveryKind::CheckpointFallback,
                    format!("skipped corrupt checkpoint: {}", rej.reason),
                );
            }
            st = restore_checkpoint(&loaded.reader, model, &mut opt)
                .map_err(|e| with_path(e.into(), &loaded.path))?;
            if st.n_examples != examples.len() as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: checkpoint trained on {} examples, corpus has {}",
                        loaded.path.display(),
                        st.n_examples,
                        examples.len()
                    ),
                ));
            }
            report.resumed_from = Some(st.steps);
            record_recovery(
                &mut report,
                st.steps,
                st.epoch as usize,
                RecoveryKind::Resumed,
                format!("resumed from {}", loaded.path.display()),
            );
        }
    }

    let guard = &config.anomaly;
    let start_epoch = st.epoch;
    for epoch in start_epoch..config.epochs as u64 {
        st.epoch = epoch;
        let order = epoch_order(config.seed, epoch, examples.len());
        let epoch_order: &[usize] = match config.max_sentences {
            Some(cap) if cap < order.len() => &order[..cap],
            _ => &order,
        };
        // On the first (possibly resumed) epoch, skip already-done batches.
        let start_batch = if epoch == start_epoch { st.next_batch as usize } else { 0 };
        if epoch != start_epoch {
            st.next_batch = 0;
        }

        for (bi, batch) in epoch_order.chunks(config.batch_size).enumerate() {
            if bi < start_batch {
                // Already-done batches of a resumed epoch: the restored
                // step_seed/attempt counters are past them, so just skip.
                continue;
            }
            st.attempt += 1;

            let mut batch_loss = 0.0f64;
            let mut batch_n = 0usize;
            for &i in batch {
                st.step_seed = st
                    .step_seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let opts = ForwardOptions::training(st.step_seed);
                let out = model
                    .run(kb, std::slice::from_ref(&examples[i]), opts)
                    .expect("training passes carry no deadline")
                    .remove(0);
                let Some(loss) = out.loss else { continue };
                let lv = loss.value().item();
                if !lv.is_finite() {
                    continue; // skip pathological examples defensively
                }
                batch_loss += lv as f64;
                batch_n += 1;
                out.graph.backward(&loss, &mut model.params);
            }
            st.next_batch = bi as u64 + 1;
            if batch_n == 0 {
                continue;
            }
            let mut batch_mean = batch_loss / batch_n as f64;
            if faults.nan_loss_at(st.attempt) {
                batch_mean = f64::NAN;
            }

            model.params.scale_grads(1.0 / batch_n as f32);
            if let Some(scale) = faults.grad_scale_at(st.attempt) {
                model.params.scale_grads(scale);
            }
            let grad_norm = clip_grad_norm(&mut model.params, config.clip);
            if grad_norm.is_finite() {
                bootleg_obs::histogram!(
                    "train.grad_norm",
                    bootleg_obs::metrics::exp_buckets(1e-3, 2.0, 28)
                )
                .observe(grad_norm as f64);
            }

            // Anomaly guards: skip the update rather than poison the model.
            let anomaly = if !batch_mean.is_finite() {
                Some((RecoveryKind::NonFiniteLoss, format!("batch loss {batch_mean}")))
            } else if st.warmup_seen >= guard.warmup_steps
                && st.ema > 0.0
                && batch_mean > guard.spike_factor as f64 * st.ema
            {
                Some((
                    RecoveryKind::LossSpike,
                    format!("batch loss {batch_mean:.4} vs EMA {:.4}", st.ema),
                ))
            } else if !grad_norm.is_finite() || grad_norm > guard.grad_norm_max {
                Some((RecoveryKind::GradExplosion, format!("pre-clip grad norm {grad_norm:.3e}")))
            } else {
                None
            };
            if let Some((kind, detail)) = anomaly {
                model.params.zero_grad();
                record_recovery(&mut report, st.steps, epoch as usize, kind, detail);
                st.strikes += 1;
                if st.strikes >= guard.divergence_patience {
                    let new_lr = (opt.lr * guard.lr_backoff).max(guard.min_lr);
                    record_recovery(
                        &mut report,
                        st.steps,
                        epoch as usize,
                        RecoveryKind::LrBackoff,
                        format!("lr {:.3e} -> {new_lr:.3e}", opt.lr),
                    );
                    opt.lr = new_lr;
                    st.strikes = 0;
                }
                continue;
            }

            opt.step(&mut model.params);
            model.params.zero_grad();
            st.steps += 1;
            bootleg_obs::counter!("train.steps").inc();
            bootleg_obs::gauge!("train.lr").set(opt.lr as f64);
            bootleg_obs::gauge!("train.batch_loss").set(batch_mean);
            st.strikes = st.strikes.saturating_sub(1);
            st.epoch_loss += batch_loss;
            st.epoch_count += batch_n as u64;
            st.ema = if st.warmup_seen == 0 {
                batch_mean
            } else {
                guard.ema_beta * st.ema + (1.0 - guard.ema_beta) * batch_mean
            };
            st.warmup_seen += 1;

            if config.log_every > 0 && bi % config.log_every == 0 {
                bootleg_obs::info!(
                    "train.progress",
                    epoch = epoch,
                    step = bi,
                    loss = format_args!("{:.4}", st.epoch_loss / st.epoch_count.max(1) as f64),
                );
            }

            let crash = faults.crash_after(st.steps);
            if let Some(mgr) = &manager {
                let ck = checkpoints.expect("manager implies config");
                let due = ck.every_steps > 0 && st.steps.is_multiple_of(ck.every_steps);
                if due || crash {
                    let path = mgr.save(st.steps, &make_checkpoint(model, &opt, &st))?;
                    bootleg_obs::info!(
                        "train.checkpoint.saved",
                        step = st.steps,
                        path = path.display(),
                    );
                    if let Some(mode) = faults.corruption_at(st.steps) {
                        corrupt_file(&path, mode)?;
                    }
                }
            }
            if crash {
                report.epoch_losses = st.epoch_losses.clone();
                report.steps = st.steps;
                return Ok(TrainOutcome {
                    report,
                    status: TrainStatus::SimulatedCrash { at_step: st.steps },
                });
            }
        }

        let epoch_mean = st.epoch_loss / st.epoch_count.max(1) as f64;
        bootleg_obs::gauge!("train.epoch_loss").set(epoch_mean);
        bootleg_obs::debug!(
            "train.epoch",
            epoch = epoch,
            steps = st.steps,
            loss = format_args!("{epoch_mean:.4}"),
        );
        st.epoch_losses.push(epoch_mean as f32);
        st.epoch_loss = 0.0;
        st.epoch_count = 0;
        st.next_batch = 0;
    }

    report.epoch_losses = st.epoch_losses;
    report.steps = st.steps;
    Ok(TrainOutcome { report, status: TrainStatus::Completed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BootlegConfig;
    use bootleg_corpus::{generate_corpus, CorpusConfig};
    use bootleg_kb::{generate as gen_kb, KbConfig};

    #[test]
    fn loss_decreases_on_small_corpus() {
        let kb = gen_kb(&KbConfig { n_entities: 200, seed: 51, ..KbConfig::default() });
        let c = generate_corpus(
            &kb,
            &CorpusConfig { n_pages: 60, seed: 51, ..CorpusConfig::default() },
        );
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let mut model = BootlegModel::new(
            &kb,
            &c.vocab,
            &counts,
            BootlegConfig { dropout: 0.0, ..BootlegConfig::default() },
        );
        let report = train(
            &mut model,
            &kb,
            &c.train,
            &TrainConfig { epochs: 3, lr: 2e-3, batch_size: 8, ..TrainConfig::default() },
        );
        assert!(report.n_examples > 20);
        assert!(report.steps > 0);
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().expect("epochs ran");
        assert!(last < first, "loss should fall: {:?}", report.epoch_losses);
        assert_eq!(report.skipped_updates(), 0, "healthy run must not trip guards");
    }

    #[test]
    fn max_sentences_caps_work() {
        let kb = gen_kb(&KbConfig { n_entities: 100, seed: 52, ..KbConfig::default() });
        let c = generate_corpus(
            &kb,
            &CorpusConfig { n_pages: 30, seed: 52, ..CorpusConfig::default() },
        );
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let mut model = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default());
        let report = train(
            &mut model,
            &kb,
            &c.train,
            &TrainConfig {
                epochs: 1,
                batch_size: 4,
                max_sentences: Some(8),
                ..TrainConfig::default()
            },
        );
        assert!(report.steps <= 2, "8 sentences / batch 4 = at most 2 steps");
    }

    #[test]
    fn empty_corpus_is_harmless() {
        let kb = gen_kb(&KbConfig { n_entities: 50, seed: 53, ..KbConfig::default() });
        let c = generate_corpus(
            &kb,
            &CorpusConfig { n_pages: 10, seed: 53, ..CorpusConfig::default() },
        );
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let mut model = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default());
        let report = train(&mut model, &kb, &[], &TrainConfig::default());
        assert_eq!(report.steps, 0);
        assert_eq!(report.n_examples, 0);
    }

    #[test]
    fn epoch_order_is_pure_and_varies_by_epoch() {
        assert_eq!(epoch_order(7, 0, 50), epoch_order(7, 0, 50));
        assert_ne!(epoch_order(7, 0, 50), epoch_order(7, 1, 50));
        assert_ne!(epoch_order(7, 0, 50), epoch_order(8, 0, 50));
        let mut sorted = epoch_order(7, 3, 50);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn loop_state_roundtrips_through_encoding() {
        let st = LoopState {
            epoch: 2,
            next_batch: 17,
            step_seed: 0xDEAD_BEEF_CAFE_F00D,
            attempt: 99,
            steps: 81,
            epoch_count: 123,
            epoch_loss: 4.567,
            strikes: 3,
            warmup_seen: 40,
            ema: 1.234,
            n_examples: 500,
            epoch_losses: vec![2.5, 1.25],
        };
        let mut w = FrozenWriter::new();
        st.add_sections(&mut w);
        let reader = FrozenReader::from_bytes(w.to_bytes()).expect("valid container");
        let back = LoopState::decode(&reader).expect("decode");
        assert_eq!(st, back);
    }
}
