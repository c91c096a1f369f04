//! Prediction explanation by input ablation.
//!
//! For one mention, re-runs inference with each signal family knocked out
//! (entity embedding zeroed, types replaced by padding, relations replaced by
//! padding, KG adjacency cleared) and reports how much each knockout changes
//! the predicted candidate's margin — a direct, model-faithful way to ask
//! *which reasoning pattern carried this disambiguation*, mirroring the
//! paper's §5 analysis at the level of a single prediction.

use crate::example::Example;
use crate::forward::ForwardOptions;
use crate::model::BootlegModel;
use bootleg_kb::KnowledgeBase;

/// Which signal family a knockout removes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Signal {
    /// The learned entity embedding `uₑ`.
    Entity,
    /// Type embeddings (and the predicted coarse type).
    Types,
    /// Relation embeddings and the KG adjacency.
    Kg,
}

impl Signal {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Signal::Entity => "entity",
            Signal::Types => "types",
            Signal::Kg => "kg",
        }
    }
}

/// The attribution for one mention.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The predicted candidate index with all signals present.
    pub prediction: usize,
    /// The prediction's score margin over the runner-up.
    pub margin: f32,
    /// Per-signal: `(margin drop when knocked out, prediction changed?)`.
    /// Larger drops mean the signal carried more of the decision.
    pub contributions: Vec<(Signal, f32, bool)>,
}

impl BootlegModel {
    /// Explains the model's prediction for mention `mention_idx` of `ex`.
    pub fn explain(&self, kb: &KnowledgeBase, ex: &Example, mention_idx: usize) -> Explanation {
        let infer = |m: &BootlegModel| {
            m.run(kb, std::slice::from_ref(ex), ForwardOptions::inference())
                .expect("unlimited deadline cannot interrupt")
                .remove(0)
        };
        let base = infer(self);
        let prediction = base.predictions[mention_idx];
        let margin = margin_of(&base.scores[mention_idx], prediction);

        let mut contributions = Vec::new();
        for signal in [Signal::Entity, Signal::Types, Signal::Kg] {
            let knocked = infer(&self.knockout(kb, signal));
            let changed = knocked.predictions[mention_idx] != prediction;
            let new_margin = margin_of(&knocked.scores[mention_idx], prediction);
            contributions.push((signal, margin - new_margin, changed));
        }
        Explanation { prediction, margin, contributions }
    }

    /// A copy of the model with one signal family ablated *at inference
    /// time*.
    fn knockout(&self, kb: &KnowledgeBase, signal: Signal) -> BootlegModel {
        // Build a shallow clone whose per-entity tables or parameters hide
        // the targeted signal; cheap relative to a training step.
        let mut m = self.clone_model();
        match signal {
            Signal::Entity => {
                if m.config.use_entity() {
                    m.params.get_mut(m.entity_emb).data.zero_();
                }
            }
            Signal::Types => {
                if m.config.use_types() {
                    let pad = kb.types.len() as u32;
                    for ts in &mut m.entity_types {
                        ts.clear();
                        ts.push(pad);
                    }
                }
            }
            Signal::Kg => {
                if m.config.use_kg() {
                    let pad = kb.relations.len() as u32;
                    for rs in &mut m.entity_rels {
                        rs.clear();
                        rs.push(pad);
                    }
                    // Clearing relations still leaves the adjacency; zero the
                    // KG2Ent mixing scalars' effect by pushing w very high so
                    // softmax(K + wI) ≈ I and E_k ≈ 2E' uniformly.
                    for layer in &m.kg_w {
                        for &w in layer {
                            m.params.get_mut(w).data = bootleg_tensor::Tensor::scalar(30.0);
                        }
                    }
                }
            }
        }
        m
    }
}

/// Margin of candidate `idx` over the best other candidate.
fn margin_of(scores: &[f32], idx: usize) -> f32 {
    let own = scores[idx];
    let best_other = scores
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != idx)
        .map(|(_, &s)| s)
        .fold(f32::NEG_INFINITY, f32::max);
    if best_other.is_finite() {
        own - best_other
    } else {
        own
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BootlegConfig;
    use crate::train::{train, TrainConfig};
    use bootleg_corpus::{generate_corpus, CorpusConfig};
    use bootleg_kb::{generate as gen_kb, KbConfig};

    #[test]
    fn explanations_have_all_signals_and_finite_margins() {
        let kb = gen_kb(&KbConfig { n_entities: 300, seed: 151, ..KbConfig::default() });
        let c = generate_corpus(&kb, &CorpusConfig { n_pages: 60, seed: 151, ..CorpusConfig::default() });
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let mut model = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default());
        train(&mut model, &kb, &c.train, &TrainConfig { epochs: 1, ..Default::default() });

        let ex = c.dev.iter().find_map(Example::evaluation).expect("example");
        let e = model.explain(&kb, &ex, 0);
        assert_eq!(e.contributions.len(), 3);
        assert!(e.margin.is_finite());
        for (_, drop, _) in &e.contributions {
            assert!(drop.is_finite());
        }
        assert!(e.prediction < ex.mentions[0].candidates.len());
    }

    #[test]
    fn margin_of_single_candidate_is_score() {
        assert_eq!(margin_of(&[2.5], 0), 2.5);
        assert_eq!(margin_of(&[3.0, 1.0], 0), 2.0);
    }

    #[test]
    fn knockout_does_not_mutate_original() {
        let kb = gen_kb(&KbConfig { n_entities: 100, seed: 152, ..KbConfig::default() });
        let c = generate_corpus(&kb, &CorpusConfig { n_pages: 30, seed: 152, ..CorpusConfig::default() });
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let model = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default());
        let before = model.params.get(model.entity_emb).data.clone();
        let ex = c.dev.iter().find_map(Example::evaluation).expect("example");
        let _ = model.explain(&kb, &ex, 0);
        assert_eq!(model.params.get(model.entity_emb).data, before);
    }
}
