//! Sentence-level data-parallel evaluation drivers.
//!
//! Each driver fans individual sentences out across the [`bootleg_pool`]
//! thread pool and folds the per-sentence partial reports back together in
//! sentence order. Because every metric is an integer counter and the merge
//! order is fixed, the results are **bit-identical** to the serial drivers
//! at any thread count — verified by `tests/par_determinism.rs`.
//!
//! Thread count comes from the `BOOTLEG_THREADS` environment variable
//! (default: available parallelism); tests pin it with
//! [`bootleg_pool::with_pool`].

use crate::errors::{self, ErrorBuckets};
use crate::patterns::{self, PatternSliceReport};
use crate::predictor::Predictor;
use crate::slices::{self, CurvePoint, SliceReport};
use bootleg_corpus::{Sentence, Vocab};
use bootleg_kb::{EntityId, KnowledgeBase};
use std::collections::HashMap;

/// Parallel [`crate::evaluate_slices`]: popularity-slice PRF over
/// `sentences`, one pool task per micro-batch of 8 sentences; each batch is
/// answered by a single [`Predictor::predict_batch`] call, so batched
/// predictors run one ragged forward pass per chunk. Results are bit-identical to the serial
/// driver at any thread count *and any batch size*.
pub fn par_evaluate(
    sentences: &[Sentence],
    counts: &HashMap<EntityId, u32>,
    predict: impl Predictor,
) -> SliceReport {
    par_evaluate_batched(sentences, counts, predict, 8)
}

/// [`par_evaluate`] with an explicit micro-batch size (benchmarks compare
/// batch 1 against batch 8).
pub fn par_evaluate_batched(
    sentences: &[Sentence],
    counts: &HashMap<EntityId, u32>,
    predict: impl Predictor,
    batch: usize,
) -> SliceReport {
    let _span = bootleg_obs::span!("par_evaluate");
    let start = std::time::Instant::now();
    let chunks: Vec<&[Sentence]> = sentences.chunks(batch.max(1)).collect();
    let partials = bootleg_pool::map(&chunks, |c| slices::chunk_slices(c, counts, &predict));
    let mut report = SliceReport::default();
    for p in &partials {
        report.merge(p);
    }
    slices::record_throughput(sentences.len(), start.elapsed());
    report
}

/// Parallel [`crate::slices::f1_by_count_bucket`] (Figure 1 curve).
pub fn par_f1_by_count_bucket(
    sentences: &[Sentence],
    counts: &HashMap<EntityId, u32>,
    predict: impl Predictor,
) -> Vec<CurvePoint> {
    let start = std::time::Instant::now();
    let partials = bootleg_pool::map(sentences, |s| slices::sentence_curve(s, counts, &predict));
    let mut points = slices::empty_curve();
    for p in &partials {
        slices::merge_curve(&mut points, p);
    }
    slices::record_throughput(sentences.len(), start.elapsed());
    points
}

/// Parallel [`crate::pattern_slices`] (Table 7).
pub fn par_pattern_slices(
    kb: &KnowledgeBase,
    vocab: &Vocab,
    sentences: &[Sentence],
    counts: &HashMap<EntityId, u32>,
    predict: impl Predictor,
) -> PatternSliceReport {
    let start = std::time::Instant::now();
    let idx = patterns::affordance_index(kb, vocab);
    let partials = bootleg_pool::map(sentences, |s| {
        patterns::sentence_patterns(kb, vocab, &idx, counts, s, &predict)
    });
    let mut report = patterns::empty_pattern_report();
    for p in &partials {
        report.merge(p);
    }
    slices::record_throughput(sentences.len(), start.elapsed());
    report
}

/// Parallel [`crate::error_analysis`] (§5 / Table 8). Sample cases are
/// gathered in sentence order, so the retained `max_samples` match the
/// serial driver's.
pub fn par_error_analysis(
    kb: &KnowledgeBase,
    vocab: &Vocab,
    sentences: &[Sentence],
    predict: impl Predictor,
    max_samples: usize,
) -> ErrorBuckets {
    let start = std::time::Instant::now();
    let partials = bootleg_pool::map(sentences, |s| {
        errors::sentence_errors(kb, vocab, s, &predict, max_samples)
    });
    let mut out = ErrorBuckets::default();
    for p in &partials {
        out.merge(p, max_samples);
    }
    slices::record_throughput(sentences.len(), start.elapsed());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootleg_core::Example;
    use bootleg_corpus::{generate_corpus, CorpusConfig};
    use bootleg_kb::{generate as gen_kb, KbConfig};

    #[test]
    fn par_evaluate_matches_serial_with_closure() {
        let kb = gen_kb(&KbConfig { n_entities: 300, seed: 77, ..KbConfig::default() });
        let c = generate_corpus(&kb, &CorpusConfig { n_pages: 60, seed: 77, ..CorpusConfig::default() });
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let predict = |ex: &Example| vec![0; ex.mentions.len()];
        let serial = crate::evaluate_slices(&c.dev, &counts, predict);
        let par = par_evaluate(&c.dev, &counts, predict);
        assert_eq!(serial, par);
        assert!(par.all.gold > 0);
    }

    #[test]
    fn batch_size_never_changes_the_report() {
        let kb = gen_kb(&KbConfig { n_entities: 300, seed: 78, ..KbConfig::default() });
        let c = generate_corpus(&kb, &CorpusConfig { n_pages: 60, seed: 78, ..CorpusConfig::default() });
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let predict = |ex: &Example| vec![0; ex.mentions.len()];
        let serial = crate::evaluate_slices(&c.dev, &counts, predict);
        for batch in [1, 2, 7, 8, 64] {
            let batched = par_evaluate_batched(&c.dev, &counts, predict, batch);
            assert_eq!(serial, batched, "batch size {batch}");
        }
    }
}
