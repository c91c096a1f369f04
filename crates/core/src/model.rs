//! The Bootleg model: parameters and construction.

use crate::config::BootlegConfig;
use crate::cooccur::CooccurrenceIndex;
use bootleg_corpus::Vocab;
use bootleg_kb::{EntityId, KnowledgeBase};
use bootleg_nn::{AddAttn, Linear, MhaBlock, Mlp, WordEncoder};
use bootleg_tensor::checkpoint::with_path;
use bootleg_tensor::frozen::{add_params, restore_params, FrozenReader, FrozenWriter};
use bootleg_tensor::{init, ParamId, ParamStore, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// The coarse mention-type prediction module (Appendix A).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TypePredictor {
    /// MLP from the contextual mention embedding to 6 coarse-type logits.
    pub mlp: Mlp,
    /// The coarse type embedding matrix **T** (6 × coarse_dim).
    pub coarse_emb: ParamId,
}

/// The Bootleg disambiguation model.
#[derive(Debug)]
pub struct BootlegModel {
    /// Model configuration.
    pub config: BootlegConfig,
    /// All trainable parameters.
    pub params: ParamStore,
    pub(crate) word_encoder: WordEncoder,
    pub(crate) entity_emb: ParamId,
    pub(crate) type_emb: ParamId,
    pub(crate) rel_emb: ParamId,
    pub(crate) type_attn: AddAttn,
    pub(crate) rel_attn: AddAttn,
    pub(crate) type_pred: Option<TypePredictor>,
    pub(crate) mlp: Mlp,
    pub(crate) pos_proj: Linear,
    pub(crate) phrase2ent: Vec<MhaBlock>,
    pub(crate) ent2ent: Vec<MhaBlock>,
    /// `kg_w[layer][matrix]` — the learned scalar of each KG2Ent module.
    pub(crate) kg_w: Vec<Vec<ParamId>>,
    pub(crate) score_v: ParamId,
    /// Per-entity 2-D regularization probabilities (from the scheme and the
    /// training occurrence counts).
    pub(crate) reg_p: Vec<f32>,
    /// Training occurrence counts per entity (anchors + weak labels).
    pub entity_counts: Vec<u32>,
    /// Padded type ids per entity (`n_types` = padding row).
    pub(crate) entity_types: Vec<Vec<u32>>,
    /// Padded relation ids per entity (`n_relations` = padding row).
    pub(crate) entity_rels: Vec<Vec<u32>>,
    /// Coarse-type index per entity (gold for type prediction).
    pub(crate) entity_coarse: Vec<u32>,
    /// Title token ids per entity (benchmark title feature).
    pub(crate) entity_titles: Vec<Vec<u32>>,
    /// Optional sentence co-occurrence KG matrix (benchmark model).
    pub(crate) cooccur: Option<CooccurrenceIndex>,
    /// Inference-only cache of static per-entity payload rows (pooled
    /// type/rel bags, title mean). See [`crate::entitycache`].
    pub(crate) repr_cache: crate::entitycache::EntityReprCache,
    /// Number of real entities (tables have one extra padding row).
    pub n_entities: usize,
}

impl BootlegModel {
    /// Builds a model for `kb` with training occurrence `counts` (used for
    /// the inverse-popularity regularization table).
    pub fn new(
        kb: &KnowledgeBase,
        vocab: &Vocab,
        counts: &HashMap<EntityId, u32>,
        mut config: BootlegConfig,
    ) -> Self {
        config.word_encoder.vocab = vocab.len();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n_entities = kb.num_entities();
        let n_types = kb.types.len();
        let n_rels = kb.relations.len();

        let word_encoder = WordEncoder::new(&mut ps, &mut rng, "wordenc", config.word_encoder);

        // The paper initializes all entity embeddings to the same vector "to
        // reduce the impact of noise from unseen entities receiving
        // different random embeddings" (Appendix B). Ablated-away signal
        // tables are allocated with a single row so Table 10's size
        // accounting matches the paper's per-variant footprints.
        // Under `skip_init` the shared row is zeros and the restore that
        // follows overwrites every row, so the table stays as allocated.
        let entity_rows = if config.use_entity() { n_entities + 1 } else { 1 };
        let shared_row = init::normal(&mut rng, &[config.entity_dim], 0.05);
        let mut entity_table = Tensor::zeros(&[entity_rows, config.entity_dim]);
        if !init::skipping() {
            for r in 0..entity_rows {
                entity_table.row_mut(r).copy_from_slice(shared_row.data());
            }
        }
        let entity_emb = ps.add("embedding.entity", entity_table);
        let type_rows = if config.use_types() { n_types + 1 } else { 1 };
        let type_emb =
            ps.add("embedding.type", init::normal(&mut rng, &[type_rows, config.type_dim], 0.1));
        let rel_rows = if config.use_kg() { n_rels + 1 } else { 1 };
        let rel_emb = ps.add(
            "embedding.relation",
            init::normal(&mut rng, &[rel_rows, config.rel_dim], 0.1),
        );

        let type_attn =
            AddAttn::new(&mut ps, &mut rng, "net.type_attn", config.type_dim, config.type_dim);
        let rel_attn =
            AddAttn::new(&mut ps, &mut rng, "net.rel_attn", config.rel_dim, config.rel_dim);

        let type_pred = (config.type_prediction && config.use_types()).then(|| TypePredictor {
            mlp: Mlp::new(
                &mut ps,
                &mut rng,
                "net.type_pred",
                config.word_encoder.d_model,
                config.hidden,
                bootleg_kb::CoarseType::ALL.len(),
                config.dropout,
            ),
            coarse_emb: ps.add(
                "embedding.coarse_type",
                init::normal(
                    &mut rng,
                    &[bootleg_kb::CoarseType::ALL.len(), config.coarse_dim],
                    0.1,
                ),
            ),
        });

        let mlp = Mlp::new(
            &mut ps,
            &mut rng,
            "net.cand_mlp",
            config.mlp_input_dim(),
            config.hidden * 2,
            config.hidden,
            config.dropout,
        );
        let pos_proj = Linear::new(
            &mut ps,
            &mut rng,
            "net.pos_proj",
            2 * config.word_encoder.d_model,
            config.hidden,
            true,
        );

        let mut phrase2ent = Vec::new();
        let mut ent2ent = Vec::new();
        let mut kg_w = Vec::new();
        let n_kg_matrices = if config.use_kg() {
            1 + usize::from(config.cooccur_kg) + usize::from(config.kg_two_hop)
        } else {
            0
        };
        for l in 0..config.n_layers {
            phrase2ent.push(MhaBlock::new(
                &mut ps,
                &mut rng,
                &format!("net.phrase2ent{l}"),
                config.hidden,
                config.n_heads,
                2,
                config.dropout,
            ));
            ent2ent.push(MhaBlock::new(
                &mut ps,
                &mut rng,
                &format!("net.ent2ent{l}"),
                config.hidden,
                config.n_heads,
                2,
                config.dropout,
            ));
            let ws = (0..n_kg_matrices)
                .map(|j| ps.add(format!("net.kg_w{l}_{j}"), Tensor::scalar(4.0)))
                .collect();
            kg_w.push(ws);
        }
        let score_v =
            ps.add("net.score_v", init::normal(&mut rng, &[config.hidden, 1], 0.2));

        // Per-entity structure tables, padded to fixed widths.
        let mut entity_types = Vec::with_capacity(n_entities);
        let mut entity_rels = Vec::with_capacity(n_entities);
        let mut entity_coarse = Vec::with_capacity(n_entities);
        let mut entity_titles = Vec::with_capacity(n_entities);
        for e in &kb.entities {
            let mut ts: Vec<u32> =
                e.types.iter().take(config.max_types).map(|t| t.0).collect();
            if ts.is_empty() {
                ts.push(n_types as u32); // padding row
            }
            entity_types.push(ts);
            let mut rs: Vec<u32> =
                e.relations.iter().take(config.max_relations).map(|r| r.0).collect();
            if rs.is_empty() {
                rs.push(n_rels as u32);
            }
            entity_rels.push(rs);
            entity_coarse.push(e.coarse.index() as u32);
            entity_titles.push(e.title_tokens.iter().map(|t| vocab.id(t)).collect());
        }

        let mut counts_vec = vec![0u32; n_entities];
        for (&e, &c) in counts {
            counts_vec[e.idx()] = c;
        }
        let reg_p = config.regularization.table(&counts_vec);

        Self {
            config,
            params: ps,
            word_encoder,
            entity_emb,
            type_emb,
            rel_emb,
            type_attn,
            rel_attn,
            type_pred,
            mlp,
            pos_proj,
            phrase2ent,
            ent2ent,
            kg_w,
            score_v,
            reg_p,
            entity_counts: counts_vec,
            entity_types,
            entity_rels,
            entity_coarse,
            entity_titles,
            cooccur: None,
            repr_cache: crate::entitycache::EntityReprCache::new(
                crate::entitycache::CachePolicy::Full,
            ),
            n_entities,
        }
    }

    /// Installs the benchmark model's sentence co-occurrence KG matrix.
    pub fn set_cooccurrence(&mut self, index: CooccurrenceIndex) {
        assert!(
            self.config.cooccur_kg,
            "model was not configured with cooccur_kg; the KG2Ent scalar for it does not exist"
        );
        self.cooccur = Some(index);
    }

    /// Saves all parameter values, atomically, as a params-only frozen
    /// container (the parameter sections of [`bootleg_tensor::frozen`]).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = FrozenWriter::new();
        add_params(&mut w, &self.params);
        w.save(path).map_err(|e| with_path(e.into(), path))
    }

    /// Restores parameter values from a file written by [`Self::save`].
    /// The model must have been constructed with the same configuration and
    /// knowledge base (names and shapes are verified); on any error the
    /// parameters are left as they were.
    pub fn load(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        FrozenReader::load(path)
            .and_then(|reader| restore_params(&reader, &mut self.params))
            .map_err(|e| with_path(e.into(), path))
    }

    /// The learned (static) entity embedding `uₑ` — consumed by the
    /// KnowBERT-analog downstream baseline, which uses entity knowledge
    /// without contextual disambiguation. Borrowed straight from the
    /// parameter table: no per-call allocation.
    pub fn entity_embedding(&self, e: EntityId) -> &[f32] {
        let table = &self.params.get(self.entity_emb).data;
        let row = e.idx().min(table.shape()[0] - 1);
        table.row(row)
    }

    /// Writes the additive-attention pool `rₑ` over an entity's relation
    /// embeddings (§3.1) into `out` (length `rel_dim`) — the component that
    /// makes an entity's KG participation decodable by downstream tasks.
    /// Zeros when relations are ablated away. Only the throwaway tape's
    /// intermediate buffers are allocated.
    pub fn pooled_relation_embedding_into(&self, e: EntityId, out: &mut [f32]) {
        assert_eq!(out.len(), self.config.rel_dim, "out must have rel_dim elements");
        if !self.config.use_kg() {
            out.fill(0.0);
            return;
        }
        let g = bootleg_tensor::Graph::new();
        let bag = g.gather_rows(&self.params, self.rel_emb, &self.entity_rels[e.idx()]);
        self.rel_attn.forward(&g, &self.params, &bag).copy_value_into(out);
    }

    /// The additive-attention pool `tₑ` over an entity's type embeddings
    /// (§3.1). Zeros when types are ablated away. Allocates the result;
    /// feature-extraction loops should prefer
    /// [`Self::pooled_type_embedding_into`].
    pub fn pooled_type_embedding(&self, e: EntityId) -> Vec<f32> {
        let mut out = vec![0.0; self.config.type_dim];
        self.pooled_type_embedding_into(e, &mut out);
        out
    }

    /// Writes `tₑ` into `out` (length `type_dim`) without allocating the
    /// result — the caller-buffer counterpart of
    /// [`Self::pooled_type_embedding`].
    pub fn pooled_type_embedding_into(&self, e: EntityId, out: &mut [f32]) {
        assert_eq!(out.len(), self.config.type_dim, "out must have type_dim elements");
        if !self.config.use_types() {
            out.fill(0.0);
            return;
        }
        let g = bootleg_tensor::Graph::new();
        let bag = g.gather_rows(&self.params, self.type_emb, &self.entity_types[e.idx()]);
        self.type_attn.forward(&g, &self.params, &bag).copy_value_into(out);
    }

    /// Clones the model (parameters included) — used by the compression
    /// experiment, which must not disturb the trained model.
    pub fn clone_model(&self) -> Self {
        Self {
            config: self.config.clone(),
            params: self.params.clone(),
            word_encoder: self.word_encoder.clone(),
            entity_emb: self.entity_emb,
            type_emb: self.type_emb,
            rel_emb: self.rel_emb,
            type_attn: self.type_attn,
            rel_attn: self.rel_attn,
            type_pred: self.type_pred,
            mlp: self.mlp,
            pos_proj: self.pos_proj,
            phrase2ent: self.phrase2ent.clone(),
            ent2ent: self.ent2ent.clone(),
            kg_w: self.kg_w.clone(),
            score_v: self.score_v,
            reg_p: self.reg_p.clone(),
            entity_counts: self.entity_counts.clone(),
            entity_types: self.entity_types.clone(),
            entity_rels: self.entity_rels.clone(),
            entity_coarse: self.entity_coarse.clone(),
            entity_titles: self.entity_titles.clone(),
            cooccur: self.cooccur.clone(),
            // A fresh (empty) cache under the same policy: the clone's
            // params may diverge, and payloads rebuild on demand.
            repr_cache: crate::entitycache::EntityReprCache::new(
                self.repr_cache.policy().clone(),
            ),
            n_entities: self.n_entities,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelVariant;
    use bootleg_corpus::{generate_corpus, CorpusConfig};
    use bootleg_kb::{generate as gen_kb, KbConfig};

    fn setup() -> (KnowledgeBase, bootleg_corpus::Corpus) {
        let kb = gen_kb(&KbConfig { n_entities: 200, seed: 31, ..KbConfig::default() });
        let c = generate_corpus(&kb, &CorpusConfig { n_pages: 40, seed: 31, ..CorpusConfig::default() });
        (kb, c)
    }

    #[test]
    fn constructs_all_variants() {
        let (kb, c) = setup();
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        for v in [ModelVariant::Full, ModelVariant::EntOnly, ModelVariant::TypeOnly, ModelVariant::KgOnly] {
            let m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default().with_variant(v));
            assert_eq!(m.n_entities, 200);
            assert!(m.params.len() > 10);
        }
    }

    #[test]
    fn entity_embeddings_initialized_identically() {
        let (kb, c) = setup();
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default());
        let table = &m.params.get(m.entity_emb).data;
        let first = table.row(0).to_vec();
        for r in 1..m.n_entities {
            assert_eq!(table.row(r), &first[..], "paper: all entity embeddings start equal");
        }
    }

    #[test]
    fn reg_table_reflects_counts() {
        let (kb, c) = setup();
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default());
        // Entity 0 is the most popular; its masking must be <= a never-seen one.
        let p_head = m.reg_p[0];
        let unseen = m.entity_counts.iter().position(|&c| c == 0).expect("some unseen entity");
        assert!(p_head <= m.reg_p[unseen]);
    }

    #[test]
    fn benchmark_config_has_two_kg_scalars_per_layer() {
        let (kb, c) = setup();
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default().benchmark());
        assert_eq!(m.kg_w[0].len(), 2);
    }

    #[test]
    #[should_panic]
    fn cooccur_requires_benchmark_config() {
        let (kb, c) = setup();
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let mut m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default());
        m.set_cooccurrence(CooccurrenceIndex::build(&[], 1));
    }
}
