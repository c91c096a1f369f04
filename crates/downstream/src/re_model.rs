//! The downstream relation-extraction classifier (Appendix C).
//!
//! The paper encodes the text with SpanBERT, concatenates frozen contextual
//! Bootleg entity embeddings, and classifies through transformer layers. Our
//! analog: a small trainable word encoder (the SpanBERT stand-in),
//! concatenated per-mention entity features, and an MLP head. The three
//! Table-3 rows differ only in [`EntityFeatures`].

use crate::dataset::{ReDataset, ReExample};
use bootleg_core::{BootlegModel, ExMention, Example, ForwardOptions};
use bootleg_corpus::Vocab;
use bootleg_kb::KnowledgeBase;
use bootleg_nn::encoder::WordEncoderConfig;
use bootleg_nn::optim::{clip_grad_norm, Adam};
use bootleg_nn::{Mlp, WordEncoder};
use bootleg_tensor::{Graph, ParamStore, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Which entity knowledge the classifier receives (the Table 3 rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntityFeatures {
    /// Text only — the SpanBERT-analog baseline.
    None,
    /// Static entity embeddings of each mention's *prior* (top) candidate —
    /// the KnowBERT-analog (entity knowledge without contextual
    /// disambiguation).
    Static,
    /// Contextual Bootleg representations of each mention's *predicted*
    /// candidate — the paper's Bootleg model.
    Contextual,
}

impl EntityFeatures {
    /// Display name matching Table 3.
    pub fn name(self) -> &'static str {
        match self {
            EntityFeatures::None => "SpanBERT (analog)",
            EntityFeatures::Static => "KnowBERT (analog)",
            EntityFeatures::Contextual => "Bootleg Model",
        }
    }
}

/// Precomputed (frozen) per-example entity features.
pub struct ReFeatures {
    /// `(subj_features ⧺ obj_features)` per example; empty for `None`.
    pub vectors: Vec<Vec<f32>>,
    /// Width of the combined feature vector.
    pub dim: usize,
}

/// L2-normalizes a feature vector in place (stabilizes the frozen-feature
/// scale against the trainable text features).
fn normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-6 {
        v.iter_mut().for_each(|x| *x /= norm);
    }
}

/// Per-mention knowledge vector: the entity's representation plus its pooled
/// relation and type embeddings `rₑ`/`tₑ` — "leverages Wikidata relations /
/// types for the embedding" in the paper's Table 12 wording.
fn knowledge_vector(
    bootleg: &BootlegModel,
    entity: bootleg_kb::EntityId,
    head: &[f32],
) -> Vec<f32> {
    let know_dim = bootleg.config.rel_dim + bootleg.config.type_dim;
    let mut v = Vec::with_capacity(head.len() + know_dim);
    v.extend_from_slice(head);
    let base = v.len();
    v.resize(base + know_dim, 0.0);
    bootleg.pooled_relation_embedding_into(entity, &mut v[base..base + bootleg.config.rel_dim]);
    bootleg.pooled_type_embedding_into(entity, &mut v[base + bootleg.config.rel_dim..]);
    normalize(&mut v);
    v
}

/// Extracts frozen entity features for a slice of examples.
///
/// * `Static` uses the *prior* (most popular) candidate of each alias — the
///   KnowBERT analog: entity knowledge without contextual disambiguation.
/// * `Contextual` uses the entity Bootleg *predicts* in context, so the
///   relation/type knowledge is that of the right entity exactly when the
///   disambiguation is right — the mechanism §4.3 credits.
pub fn extract_features(
    kind: EntityFeatures,
    examples: &[ReExample],
    kb: &KnowledgeBase,
    bootleg: &BootlegModel,
) -> ReFeatures {
    let know_dim = bootleg.config.rel_dim + bootleg.config.type_dim;
    match kind {
        EntityFeatures::None => {
            ReFeatures { vectors: vec![Vec::new(); examples.len()], dim: 0 }
        }
        EntityFeatures::Static => {
            let dim = 2 * (bootleg.config.entity_dim + know_dim);
            let vectors = examples
                .iter()
                .map(|ex| {
                    // Prior candidate = top of Γ, no context used.
                    let subj_prior = kb.alias(ex.subj_alias).candidates[0];
                    let obj_prior = kb.alias(ex.obj_alias).candidates[0];
                    let mut v =
                        knowledge_vector(bootleg, subj_prior, bootleg.entity_embedding(subj_prior));
                    v.extend(knowledge_vector(
                        bootleg,
                        obj_prior,
                        bootleg.entity_embedding(obj_prior),
                    ));
                    v
                })
                .collect();
            ReFeatures { vectors, dim }
        }
        EntityFeatures::Contextual => {
            let dim = 2 * (bootleg.config.hidden + know_dim);
            let bexs: Vec<Example> = examples
                .iter()
                .map(|ex| {
                    let mentions = vec![
                        ExMention {
                            first: ex.subj_pos,
                            last: ex.subj_pos,
                            candidates: kb.alias(ex.subj_alias).candidates.clone(),
                            gold: None,
                        },
                        ExMention {
                            first: ex.obj_pos,
                            last: ex.obj_pos,
                            candidates: kb.alias(ex.obj_alias).candidates.clone(),
                            gold: None,
                        },
                    ];
                    Example::inference(ex.tokens.clone(), mentions)
                })
                .collect();
            // Micro-batched feature extraction: chunks of 8 keep each ragged
            // forward pass (and its graph) bounded while amortizing the
            // embedding phase across the chunk.
            let vectors = bexs
                .chunks(8)
                .flat_map(|chunk| {
                    let outs = bootleg
                        .run(kb, chunk, ForwardOptions::inference())
                        .expect("unlimited deadline cannot interrupt");
                    outs.into_iter().zip(chunk).map(|(out, bex)| {
                        let subj_pred = bex.mentions[0].candidates[out.predictions[0]];
                        let obj_pred = bex.mentions[1].candidates[out.predictions[1]];
                        let mut v =
                            knowledge_vector(bootleg, subj_pred, &out.mention_reprs[0]);
                        v.extend(knowledge_vector(bootleg, obj_pred, &out.mention_reprs[1]));
                        v
                    })
                })
                .collect();
            ReFeatures { vectors, dim }
        }
    }
}

/// The downstream classifier.
pub struct ReClassifier {
    /// Trainable parameters (the entity features stay frozen outside).
    pub params: ParamStore,
    encoder: WordEncoder,
    head: Mlp,
    n_classes: usize,
    feature_dim: usize,
}

/// Training hyperparameters for the RE classifier.
#[derive(Clone, Debug)]
pub struct ReTrainConfig {
    /// Epochs over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Examples per gradient step.
    pub batch_size: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for ReTrainConfig {
    fn default() -> Self {
        Self { epochs: 6, lr: 1.5e-3, batch_size: 16, seed: 5 }
    }
}

impl ReClassifier {
    /// Builds the classifier for `n_classes` relation labels (+1 for
    /// no_relation is included by the caller) and a frozen feature width.
    pub fn new(vocab: &Vocab, n_classes: usize, feature_dim: usize, seed: u64) -> Self {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let enc_cfg = WordEncoderConfig {
            vocab: vocab.len(),
            d_model: 48,
            n_layers: 1,
            n_heads: 4,
            max_len: 32,
            dropout: 0.1,
        };
        let encoder = WordEncoder::new(&mut ps, &mut rng, "wordenc", enc_cfg);
        let head = Mlp::new(
            &mut ps,
            &mut rng,
            "net.head",
            2 * 48 + feature_dim,
            96,
            n_classes,
            0.1,
        );
        Self { params: ps, encoder, head, n_classes, feature_dim }
    }

    fn logits(
        &self,
        g: &Graph,
        ex: &ReExample,
        features: &[f32],
    ) -> bootleg_tensor::Var {
        let w = self.encoder.forward(g, &self.params, &ex.tokens);
        let subj = w.select_rows(&[ex.subj_pos as u32]);
        let obj = w.select_rows(&[ex.obj_pos as u32]);
        let mut parts = vec![subj, obj];
        if self.feature_dim > 0 {
            parts.push(g.leaf(Tensor::new(vec![1, self.feature_dim], features.to_vec())));
        }
        let refs: Vec<&bootleg_tensor::Var> = parts.iter().collect();
        let input = g.concat_last(&refs);
        self.head.forward(g, &self.params, &input)
    }

    /// Predicts a class index for one example.
    pub fn predict(&self, ex: &ReExample, features: &[f32]) -> u32 {
        let g = Graph::new();
        let logits = self.logits(&g, ex, features);
        logits.value().argmax() as u32
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }
}

/// Trains a classifier on the dataset with the given frozen features.
pub fn train_re(
    model: &mut ReClassifier,
    ds: &ReDataset,
    features: &ReFeatures,
    config: &ReTrainConfig,
) -> Vec<f32> {
    assert_eq!(features.vectors.len(), ds.train.len());
    let mut opt = Adam::new(&model.params, config.lr);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..ds.train.len()).collect();
    let mut seed = config.seed;
    let mut losses = Vec::new();
    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for batch in order.chunks(config.batch_size) {
            for &i in batch {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(11);
                let g = Graph::with_mode(true, seed);
                let logits = model.logits(&g, &ds.train[i], &features.vectors[i]);
                let loss = logits.cross_entropy_rows(&[ds.label(&ds.train[i])]);
                let lv = loss.value().item();
                if !lv.is_finite() {
                    continue;
                }
                sum += lv as f64;
                count += 1;
                g.backward(&loss, &mut model.params);
            }
            model.params.scale_grads(1.0 / batch.len() as f32);
            clip_grad_norm(&mut model.params, 5.0);
            opt.step(&mut model.params);
            model.params.zero_grad();
        }
        losses.push((sum / count.max(1) as f64) as f32);
    }
    losses
}

/// TACRED-style micro F1: no_relation does not count as a positive class.
/// Returns `(precision, recall, f1)` in percent.
pub fn tacred_f1(
    model: &ReClassifier,
    ds: &ReDataset,
    features: &ReFeatures,
) -> (f64, f64, f64) {
    assert_eq!(features.vectors.len(), ds.test.len());
    let no_rel = ds.n_relations as u32;
    let mut predicted_pos = 0usize;
    let mut gold_pos = 0usize;
    let mut correct_pos = 0usize;
    for (ex, feats) in ds.test.iter().zip(&features.vectors) {
        let pred = model.predict(ex, feats);
        let gold = ds.label(ex);
        if pred != no_rel {
            predicted_pos += 1;
        }
        if gold != no_rel {
            gold_pos += 1;
        }
        if pred == gold && gold != no_rel {
            correct_pos += 1;
        }
    }
    let p = 100.0 * correct_pos as f64 / predicted_pos.max(1) as f64;
    let r = 100.0 * correct_pos as f64 / gold_pos.max(1) as f64;
    let f1 = if p + r == 0.0 { 0.0 } else { 2.0 * p * r / (p + r) };
    (p, r, f1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_re_dataset, ReConfig};
    use bootleg_corpus::{generate_corpus, CorpusConfig};
    use bootleg_kb::{generate as gen_kb, KbConfig};

    fn setup() -> (KnowledgeBase, bootleg_corpus::Corpus, BootlegModel, ReDataset) {
        let kb = gen_kb(&KbConfig { n_entities: 400, seed: 121, ..KbConfig::default() });
        let c = generate_corpus(&kb, &CorpusConfig { n_pages: 60, seed: 121, ..CorpusConfig::default() });
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let bootleg =
            BootlegModel::new(&kb, &c.vocab, &counts, bootleg_core::BootlegConfig::default());
        let ds = generate_re_dataset(
            &kb,
            &c.vocab,
            &ReConfig { n_train: 120, n_test: 40, ..Default::default() },
        );
        (kb, c, bootleg, ds)
    }

    #[test]
    fn feature_extraction_dims() {
        let (kb, _, bootleg, ds) = setup();
        let none = extract_features(EntityFeatures::None, &ds.test, &kb, &bootleg);
        assert_eq!(none.dim, 0);
        let know = bootleg.config.rel_dim + bootleg.config.type_dim;
        let stat = extract_features(EntityFeatures::Static, &ds.test, &kb, &bootleg);
        assert_eq!(stat.dim, 2 * (bootleg.config.entity_dim + know));
        assert!(stat.vectors.iter().all(|v| v.len() == stat.dim));
        let ctx = extract_features(EntityFeatures::Contextual, &ds.test, &kb, &bootleg);
        assert_eq!(ctx.dim, 2 * (bootleg.config.hidden + know));
    }

    #[test]
    fn training_reduces_loss_and_f1_is_sane() {
        let (kb, c, bootleg, ds) = setup();
        let feats = extract_features(EntityFeatures::None, &ds.train, &kb, &bootleg);
        let mut model = ReClassifier::new(&c.vocab, ds.n_relations + 1, feats.dim, 1);
        let losses = train_re(
            &mut model,
            &ds,
            &feats,
            &ReTrainConfig { epochs: 3, ..Default::default() },
        );
        assert!(losses[2] < losses[0], "{losses:?}");
        let test_feats = extract_features(EntityFeatures::None, &ds.test, &kb, &bootleg);
        let (p, r, f1) = tacred_f1(&model, &ds, &test_feats);
        assert!((0.0..=100.0).contains(&p));
        assert!((0.0..=100.0).contains(&r));
        assert!((0.0..=100.0).contains(&f1));
    }
}
