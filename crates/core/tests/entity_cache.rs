//! Cached-vs-uncached bit-identity for the entity-payload plane (PR 8).
//!
//! The entity-repr cache must be *invisible* to every model output: scores,
//! predictions, mention representations and candidate representations with
//! the full plane must match the uncached forward pass bitwise, for every
//! ablation variant. Comparisons use `f32::to_bits` so `-0.0`/`0.0` and NaN
//! discrepancies cannot hide behind `==`. The cache must also drop stale
//! payloads the moment the weights move (train step, manual mutation).

use bootleg_core::{
    compress_entity_embeddings, train, BootlegConfig, BootlegModel, CachePolicy, Example,
    ForwardOptions, ModelVariant, TrainConfig,
};
use bootleg_corpus::{generate_corpus, Corpus, CorpusConfig};
use bootleg_kb::{generate as gen_kb, KbConfig, KnowledgeBase};

fn setup(cfg: BootlegConfig) -> (KnowledgeBase, Corpus, BootlegModel) {
    let kb = gen_kb(&KbConfig { n_entities: 240, seed: 83, ..KbConfig::default() });
    let c = generate_corpus(&kb, &CorpusConfig { n_pages: 60, seed: 83, ..CorpusConfig::default() });
    let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
    let m = BootlegModel::new(&kb, &c.vocab, &counts, cfg);
    (kb, c, m)
}

fn corpus_examples(c: &Corpus, n: usize) -> Vec<Example> {
    c.dev.iter().filter_map(Example::evaluation).take(n).collect()
}

fn bits2(v: &[Vec<f32>]) -> Vec<Vec<u32>> {
    v.iter().map(|r| r.iter().map(|x| x.to_bits()).collect()).collect()
}

/// Everything an inference forward emits, bit-exact.
#[derive(PartialEq, Eq, Debug)]
struct Snapshot {
    scores: Vec<Vec<u32>>,
    predictions: Vec<usize>,
    mention_reprs: Vec<Vec<u32>>,
    candidate_reprs: Vec<Vec<Vec<u32>>>,
}

fn snapshot(m: &BootlegModel, kb: &KnowledgeBase, ex: &Example) -> Snapshot {
    let out = m
        .run(kb, std::slice::from_ref(ex), ForwardOptions::inference())
        .expect("no deadline")
        .remove(0);
    Snapshot {
        scores: bits2(&out.scores),
        predictions: out.predictions,
        mention_reprs: bits2(&out.mention_reprs),
        candidate_reprs: out.candidate_reprs.iter().map(|r| bits2(r)).collect(),
    }
}

fn snapshots(m: &BootlegModel, kb: &KnowledgeBase, exs: &[Example]) -> Vec<Snapshot> {
    exs.iter().map(|ex| snapshot(m, kb, ex)).collect()
}

/// Runs `exs` uncached, then under `Full`, asserting every output is
/// bit-identical — one-example and batched slices both.
fn assert_cache_invisible(cfg: BootlegConfig) {
    let (kb, c, mut m) = setup(cfg);
    let exs = corpus_examples(&c, 6);
    assert!(!exs.is_empty(), "corpus yielded no evaluation examples");

    m.set_entity_cache_policy(CachePolicy::Off);
    let baseline = snapshots(&m, &kb, &exs);
    let batched_base: Vec<Vec<usize>> = m
        .run(&kb, &exs, ForwardOptions::inference())
        .expect("no deadline")
        .into_iter()
        .map(|o| o.predictions)
        .collect();

    m.set_entity_cache_policy(CachePolicy::Full);
    // Two passes: the first builds the plane, the second serves from it —
    // both must match the uncached baseline.
    for pass in 0..2 {
        let cached = snapshots(&m, &kb, &exs);
        assert_eq!(cached, baseline, "pass {pass} diverges from uncached");
    }
    let batched: Vec<Vec<usize>> = m
        .run(&kb, &exs, ForwardOptions::inference())
        .expect("no deadline")
        .into_iter()
        .map(|o| o.predictions)
        .collect();
    assert_eq!(batched, batched_base, "batched predictions diverge");
}

#[test]
fn full_matches_uncached_default_config() {
    assert_cache_invisible(BootlegConfig::default());
}

#[test]
fn full_matches_uncached_all_variants() {
    for v in
        [ModelVariant::Full, ModelVariant::EntOnly, ModelVariant::TypeOnly, ModelVariant::KgOnly]
    {
        assert_cache_invisible(BootlegConfig::default().with_variant(v));
    }
}

#[test]
fn full_matches_uncached_benchmark_config() {
    // Kitchen sink: title feature (the segment-mean payload, NaN for
    // entities with empty titles), co-occurrence KG, ensemble scoring.
    assert_cache_invisible(BootlegConfig::default().benchmark());
}

#[test]
fn full_matches_uncached_serving_config() {
    assert_cache_invisible(BootlegConfig::default().serving());
}

#[test]
fn weight_mutation_invalidates_the_cache() {
    let (kb, c, mut m) = setup(BootlegConfig::default());
    let exs = corpus_examples(&c, 4);

    m.set_entity_cache_policy(CachePolicy::Full);
    m.warm_entity_cache();
    let before = snapshots(&m, &kb, &exs);
    assert!(m.entity_cache_bytes() > 0, "warmup built nothing");

    // Nudge every parameter table — touches the entity embedding, the bag
    // embeddings and the attention weights the payloads were built from.
    for (_, p) in m.params.iter_mut() {
        for v in p.data.data_mut().iter_mut() {
            *v += 0.0625;
        }
    }

    let after_cached = snapshots(&m, &kb, &exs);
    m.set_entity_cache_policy(CachePolicy::Off);
    let after_ref = snapshots(&m, &kb, &exs);
    assert_eq!(after_cached, after_ref, "cache served stale payloads after mutation");
    assert_ne!(after_ref, before, "mutation should change the forward outputs");
}

#[test]
fn compression_bumps_version_and_rebuilds_the_plane() {
    let (kb, c, mut m) = setup(BootlegConfig::default());
    let exs = corpus_examples(&c, 4);
    // Fresh models share one entity row across the table (the tail-reg
    // init), which would make compression a bytewise no-op; make the rows
    // distinguishable the way training would.
    let (_, entity_param) = m
        .params
        .iter_mut()
        .find(|(_, p)| p.name == "embedding.entity")
        .expect("entity table present");
    let dim = entity_param.data.shape()[1];
    for (r, row) in entity_param.data.data_mut().chunks_mut(dim).enumerate() {
        row[0] += r as f32;
    }
    m.set_entity_cache_policy(CachePolicy::Full);
    m.warm_entity_cache();
    let v0 = m.params.version();
    let (w0, rows0) = m.export_entity_plane().expect("warmed Full plane exports");

    let (mut compressed, kept) = compress_entity_embeddings(&m, 0.05);
    assert!(kept > 0);
    // The row rewrite goes through `get_mut`, so the store stamp must move:
    // that stamp is the only thing standing between a weight change and a
    // cache serving payloads of the pre-compression table.
    assert_ne!(compressed.params.version(), v0, "compression must bump the ParamStore version");

    // The compressed model's plane rebuilds under the new stamp. Compression
    // rewrites only `embedding.entity`, which the plane does not hold, so
    // the rebuilt plane is bit-equal to the original.
    compressed.set_entity_cache_policy(CachePolicy::Full);
    let (w1, rows1) = compressed.export_entity_plane().expect("compressed plane exports");
    assert_eq!(w0, w1, "compression must not change the payload layout");
    let bits0: Vec<u32> = rows0.iter().map(|v| v.to_bits()).collect();
    let bits1: Vec<u32> = rows1.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits0, bits1, "compression touched a pooled payload");

    // And the cached forward is still invisible: cached == uncached on the
    // compressed model, so the served entity rows are the compressed
    // table's (nothing stale leaked into serving outputs).
    let cached = snapshots(&compressed, &kb, &exs);
    compressed.set_entity_cache_policy(CachePolicy::Off);
    let reference = snapshots(&compressed, &kb, &exs);
    assert_eq!(cached, reference, "compressed model served stale cached payloads");
}

#[test]
fn train_step_invalidates_full_plane() {
    let (kb, c, mut m) = setup(BootlegConfig::default());
    let exs = corpus_examples(&c, 3);

    m.set_entity_cache_policy(CachePolicy::Full);
    let _ = snapshots(&m, &kb, &exs); // fill the cache pre-training

    let cfg =
        TrainConfig { epochs: 1, max_sentences: Some(8), log_every: 0, ..TrainConfig::default() };
    train(&mut m, &kb, &c.train, &cfg);

    let after_cached = snapshots(&m, &kb, &exs);
    m.set_entity_cache_policy(CachePolicy::Off);
    let after_ref = snapshots(&m, &kb, &exs);
    assert_eq!(after_cached, after_ref, "served stale payloads after training");
}

#[test]
fn plane_holds_only_the_pooled_signals() {
    // Serving config: a row is the type pool and the relation pool; the
    // entity row is gathered from `embedding.entity`, never copied here.
    let cfg = BootlegConfig::default().serving();
    let (_, _, m) = setup(cfg.clone());
    m.warm_entity_cache();
    assert_eq!(m.entity_cache_bytes(), m.n_entities * (cfg.type_dim + cfg.rel_dim) * 4);

    // An entity-only model without titles has no static pooled signal, so
    // it has no plane at all.
    let cfg = BootlegConfig::default().with_variant(ModelVariant::EntOnly);
    assert!(!cfg.title_feature);
    let (_, _, m) = setup(cfg);
    m.warm_entity_cache();
    assert_eq!(m.entity_cache_bytes(), 0, "EntOnly built a plane");
    assert!(m.export_entity_plane().is_none(), "EntOnly exports a plane");
}
