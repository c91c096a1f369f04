//! The buffer arena must be numerics-neutral: a full training run plus an
//! evaluation pass produces bit-identical parameters and predictions whether
//! tensor buffers come from the arena or straight from the allocator.
//!
//! Recycled buffers hold stale values, so any site that takes an unzeroed
//! buffer without fully overwriting it would show up here as a bit
//! divergence. This file holds exactly one test because the arena switch is
//! process-global.

use bootleg::core::{train, BootlegConfig, BootlegModel, Example, TrainConfig};
use bootleg::corpus::{generate_corpus, CorpusConfig};
use bootleg::eval::{evaluate_slices, BootlegPredictor, Predictor};
use bootleg::kb::{generate, KbConfig};
use bootleg::tensor::arena;

struct RunResult {
    param_bits: Vec<u32>,
    predictions: Vec<Vec<usize>>,
    report: bootleg::eval::SliceReport,
}

fn train_and_eval(arena_on: bool) -> RunResult {
    arena::set_enabled(arena_on);
    let kb = generate(&KbConfig { n_entities: 300, seed: 77, ..Default::default() });
    let corpus =
        generate_corpus(&kb, &CorpusConfig { n_pages: 80, seed: 77, ..Default::default() });
    let counts = bootleg::corpus::stats::entity_counts(&corpus.train, true);
    let mut model = BootlegModel::new(&kb, &corpus.vocab, &counts, BootlegConfig::default());
    train(
        &mut model,
        &kb,
        &corpus.train,
        &TrainConfig { epochs: 1, ..TrainConfig::default() },
    );
    let param_bits: Vec<u32> = model
        .params
        .iter()
        .flat_map(|(_, p)| p.data.data().iter().map(|v| v.to_bits()))
        .collect();
    let predictor = BootlegPredictor { model: &model, kb: &kb };
    let predictions: Vec<Vec<usize>> = corpus
        .dev
        .iter()
        .filter_map(Example::training)
        .map(|ex| predictor.predict(&ex))
        .collect();
    let report = evaluate_slices(&corpus.dev, &counts, predictor);
    arena::set_enabled(true);
    RunResult { param_bits, predictions, report }
}

#[test]
fn train_and_eval_bit_identical_with_arena_on_or_off() {
    let on = train_and_eval(true);
    let off = train_and_eval(false);
    assert_eq!(on.param_bits.len(), off.param_bits.len());
    let diverged = on.param_bits.iter().zip(&off.param_bits).filter(|(a, b)| a != b).count();
    assert_eq!(diverged, 0, "{diverged} parameter scalars diverged between arena on/off");
    assert_eq!(on.predictions, off.predictions, "eval predictions diverged");
    assert_eq!(on.report, off.report, "slice metrics diverged");
}
