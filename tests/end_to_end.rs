//! Cross-crate integration tests: the full pipeline from KB generation
//! through training, evaluation, compression, and downstream transfer.

use bootleg::baselines::PopularityPrior;
use bootleg::candgen::{extract_mentions, CandidateGenerator};
use bootleg::core::{
    compress_entity_embeddings, train, BootlegConfig, BootlegModel, Example, TrainConfig,
};
use bootleg::corpus::{generate_corpus, weaklabel, CorpusConfig};
use bootleg::eval::{evaluate_slices, BootlegPredictor, Predictor};
use bootleg::kb::{generate, KbConfig};

struct Pipeline {
    kb: bootleg::kb::KnowledgeBase,
    corpus: bootleg::corpus::Corpus,
    counts: std::collections::HashMap<bootleg::kb::EntityId, u32>,
    model: BootlegModel,
}

fn pipeline() -> Pipeline {
    // 360 pages gives the dev split comfortable headroom over the coverage
    // preconditions below (>50 gold mentions, >20 head/torso mentions).
    let kb = generate(&KbConfig { n_entities: 700, seed: 171, ..Default::default() });
    let mut corpus =
        generate_corpus(&kb, &CorpusConfig { n_pages: 360, seed: 171, ..Default::default() });
    let vocab = corpus.vocab.clone();
    weaklabel::apply(&kb, &vocab, &mut corpus.train);
    let counts = bootleg::corpus::stats::entity_counts(&corpus.train, true);
    let mut model = BootlegModel::new(&kb, &corpus.vocab, &counts, BootlegConfig::default());
    train(
        &mut model,
        &kb,
        &corpus.train,
        &TrainConfig { epochs: 2, ..TrainConfig::default() },
    );
    Pipeline { kb, corpus, counts, model }
}

#[test]
fn trained_bootleg_beats_popularity_prior() {
    let p = pipeline();
    let boot =
        evaluate_slices(&p.corpus.dev, &p.counts, BootlegPredictor { model: &p.model, kb: &p.kb });
    let prior = evaluate_slices(&p.corpus.dev, &p.counts, |ex: &Example| {
        PopularityPrior.predict_indices(ex)
    });
    assert!(boot.all.gold > 50, "need a populated dev set");
    assert!(
        boot.all.f1() > prior.all.f1(),
        "bootleg {:.1} must beat prior {:.1}",
        boot.all.f1(),
        prior.all.f1()
    );
    // And the model must do nontrivially better than prior on unseen golds.
    assert!(
        boot.unseen.f1() >= prior.unseen.f1(),
        "unseen: bootleg {:.1} vs prior {:.1}",
        boot.unseen.f1(),
        prior.unseen.f1()
    );
}

#[test]
fn compression_preserves_head_predictions() {
    let p = pipeline();
    let (compressed, kept) = compress_entity_embeddings(&p.model, 0.10);
    assert!(kept > 0);
    // On head/torso mentions predictions should largely agree with the
    // uncompressed model (the paper loses only 0.8 F1 overall at k = 5%).
    let mut agree = 0;
    let mut total = 0;
    for s in &p.corpus.dev {
        let Some(ex) = Example::evaluation(s) else { continue };
        let a = BootlegPredictor { model: &p.model, kb: &p.kb }.predict(&ex);
        let b = BootlegPredictor { model: &compressed, kb: &p.kb }.predict(&ex);
        for ((m, &x), &y) in ex.mentions.iter().zip(&a).zip(&b) {
            let gi = m.gold.expect("gold") as usize;
            let count = *p.counts.get(&m.candidates[gi]).unwrap_or(&0);
            if count > 10 {
                total += 1;
                agree += usize::from(x == y);
            }
        }
    }
    assert!(total > 20, "need head/torso coverage, got {total}");
    assert!(
        agree as f64 / total as f64 > 0.8,
        "compressed model must agree on popular golds: {agree}/{total}"
    );
}

#[test]
fn extraction_plus_inference_roundtrip() {
    let p = pipeline();
    let gamma = CandidateGenerator::mine_from_corpus(&p.kb, &p.corpus.train, 8);
    let mut evaluated = 0;
    for s in p.corpus.dev.iter().take(50) {
        let found = extract_mentions(&s.tokens, &p.corpus.vocab, &p.kb, &gamma);
        if found.is_empty() {
            continue;
        }
        let mentions: Vec<bootleg::core::ExMention> = found
            .iter()
            .map(|e| bootleg::core::ExMention {
                first: e.start,
                last: e.last,
                candidates: gamma.candidates(e.alias).to_vec(),
                gold: None,
            })
            .collect();
        let ex = Example::inference(s.tokens.clone(), mentions);
        let preds = p.model.predict(&p.kb, &ex);
        assert_eq!(preds.len(), ex.mentions.len());
        for (pred, m) in preds.iter().zip(&ex.mentions) {
            assert!(m.candidates.contains(pred));
        }
        evaluated += 1;
    }
    assert!(evaluated > 10, "extraction should find mentions in most sentences");
}

#[test]
fn weak_labels_add_training_examples() {
    let kb = generate(&KbConfig { n_entities: 400, seed: 181, ..Default::default() });
    let mut corpus =
        generate_corpus(&kb, &CorpusConfig { n_pages: 120, seed: 181, ..Default::default() });
    let before: usize = corpus.train.iter().filter_map(Example::training).count();
    let vocab = corpus.vocab.clone();
    let stats = weaklabel::apply(&kb, &vocab, &mut corpus.train);
    let after: usize = corpus.train.iter().filter_map(Example::training).count();
    assert!(stats.total_weak() > 0);
    assert!(after >= before, "weak labeling can only add usable examples");
}

#[test]
fn deterministic_training_given_seeds() {
    let run = || {
        let kb = generate(&KbConfig { n_entities: 200, seed: 191, ..Default::default() });
        let corpus =
            generate_corpus(&kb, &CorpusConfig { n_pages: 40, seed: 191, ..Default::default() });
        let counts = bootleg::corpus::stats::entity_counts(&corpus.train, true);
        let mut model = BootlegModel::new(&kb, &corpus.vocab, &counts, BootlegConfig::default());
        let report = train(
            &mut model,
            &kb,
            &corpus.train,
            &TrainConfig { epochs: 1, ..TrainConfig::default() },
        );
        report.epoch_losses
    };
    assert_eq!(run(), run(), "same seeds must give bit-identical training");
}
