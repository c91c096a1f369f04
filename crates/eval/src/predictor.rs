//! The unified prediction interface every evaluator consumes.
//!
//! A [`Predictor`] maps an [`Example`] to one candidate index per mention.
//! The trait is `Sync` so the same value can drive both the serial
//! evaluators and the sentence-parallel drivers in [`crate::par`]; a blanket
//! impl keeps plain closures working everywhere a `Predictor` is expected.

use bootleg_baselines::{NedBase, PopularityPrior};
use bootleg_core::{BootlegModel, Example, ForwardOptions};
use bootleg_kb::KnowledgeBase;

/// Anything that disambiguates: one candidate index per mention of `ex`.
///
/// `Sync` is a supertrait so evaluation can fan sentences out across
/// threads; predictors that need interior mutability (e.g. a seeded random
/// baseline) should pre-materialize their predictions into a closure over
/// immutable state instead.
pub trait Predictor: Sync {
    /// Returns the chosen candidate index for each mention of `ex`.
    fn predict(&self, ex: &Example) -> Vec<usize>;

    /// Answers a batch of examples, one prediction set per example in
    /// order. The default loops over [`Predictor::predict`]; predictors
    /// with a real batched engine ([`BootlegPredictor`]) override it to
    /// answer the whole slice in one forward pass. Overrides must be
    /// bit-identical to the sequential default.
    fn predict_batch(&self, exs: &[Example]) -> Vec<Vec<usize>> {
        exs.iter().map(|ex| self.predict(ex)).collect()
    }
}

/// Plain closures (and fns) are predictors.
impl<F: Fn(&Example) -> Vec<usize> + Sync> Predictor for F {
    fn predict(&self, ex: &Example) -> Vec<usize> {
        self(ex)
    }
}

/// A Bootleg model paired with the knowledge base it disambiguates against.
///
/// Runs the inference-only forward pass ([`ForwardOptions::inference`]),
/// which skips loss construction and candidate representations.
///
/// **Validated invariant:** `predict` indexes embedding tables with the
/// example's token and candidate ids, so the example must satisfy
/// [`Example::validate`] against this model's limits. Corpus-derived
/// examples always do; externally constructed requests go through the
/// serving layer (`bootleg-serve`), which validates at admission and
/// converts residual panics into typed errors.
#[derive(Clone, Copy, Debug)]
pub struct BootlegPredictor<'a> {
    /// The model.
    pub model: &'a BootlegModel,
    /// Its knowledge base.
    pub kb: &'a KnowledgeBase,
}

impl<'a> BootlegPredictor<'a> {
    /// Pairs a model with its knowledge base. Warms the model's
    /// entity-payload cache (when the policy is `full`) so the first
    /// evaluated sentence doesn't pay the one-time build.
    pub fn new(model: &'a BootlegModel, kb: &'a KnowledgeBase) -> Self {
        model.warm_entity_cache();
        Self { model, kb }
    }

    /// Serves straight from a thawed frozen artifact
    /// ([`bootleg_core::frozen`]). When the artifact carried a prebuilt
    /// entity-payload plane, the warm call inside [`Self::new`] is a no-op —
    /// the bundle is serve-ready as loaded.
    pub fn from_frozen(bundle: &'a bootleg_core::FrozenBundle) -> Self {
        Self::new(&bundle.model, &bundle.kb)
    }
}

impl Predictor for BootlegPredictor<'_> {
    fn predict(&self, ex: &Example) -> Vec<usize> {
        self.predict_batch(std::slice::from_ref(ex)).remove(0)
    }

    /// One ragged micro-batch through [`BootlegModel::run`] — bit-identical
    /// to the one-example default (verified by `batch_parity.rs`), but the
    /// embedding phase runs once for the whole slice instead of per example.
    fn predict_batch(&self, exs: &[Example]) -> Vec<Vec<usize>> {
        self.model
            .run(self.kb, exs, ForwardOptions::inference())
            .expect("unlimited deadline cannot interrupt")
            .into_iter()
            .map(|out| out.predictions)
            .collect()
    }
}

impl Predictor for NedBase {
    fn predict(&self, ex: &Example) -> Vec<usize> {
        self.predict_indices(ex)
    }
}

impl Predictor for PopularityPrior {
    fn predict(&self, ex: &Example) -> Vec<usize> {
        self.predict_indices(ex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootleg_core::ExMention;
    use bootleg_kb::EntityId;

    fn example() -> Example {
        Example::inference(
            vec![0, 1, 2],
            vec![ExMention {
                first: 0,
                last: 0,
                candidates: vec![EntityId(1), EntityId(2)],
                gold: None,
            }],
        )
    }

    #[test]
    fn closures_are_predictors() {
        fn takes(p: impl Predictor, ex: &Example) -> Vec<usize> {
            p.predict(ex)
        }
        let ex = example();
        assert_eq!(takes(|e: &Example| vec![1; e.mentions.len()], &ex), vec![1]);
    }

    #[test]
    fn popularity_prior_is_a_predictor() {
        let ex = example();
        assert_eq!(Predictor::predict(&PopularityPrior, &ex), vec![0]);
    }
}
