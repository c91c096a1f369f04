//! Batched-vs-one-example bit-identity.
//!
//! A ragged micro-batch must reproduce each example's one-example forward
//! pass *bitwise* — scores, predictions, mention representations, candidate
//! representations and losses — for every batch size, every model variant,
//! and arbitrarily ragged example mixes. `forward_fingerprint.rs` pins the
//! one-example pass itself. Comparisons use `f32::to_bits` so `-0.0`/`0.0`
//! and NaN discrepancies cannot hide behind `==`.

use bootleg_core::{
    BootlegConfig, BootlegModel, Deadline, ExMention, Example, ForwardOptions, ForwardOutput,
    ModelVariant, ValidationLimits,
};
use bootleg_corpus::{generate_corpus, Corpus, CorpusConfig};
use bootleg_kb::{generate as gen_kb, EntityId, KbConfig, KnowledgeBase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn setup() -> (KnowledgeBase, Corpus, BootlegModel) {
    let kb = gen_kb(&KbConfig { n_entities: 300, seed: 71, ..KbConfig::default() });
    let c = generate_corpus(&kb, &CorpusConfig { n_pages: 80, seed: 71, ..CorpusConfig::default() });
    let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
    let m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default());
    (kb, c, m)
}

fn corpus_examples(c: &Corpus, n: usize) -> Vec<Example> {
    c.dev.iter().filter_map(Example::evaluation).take(n).collect()
}

fn bits2(v: &[Vec<f32>]) -> Vec<Vec<u32>> {
    v.iter().map(|r| r.iter().map(|x| x.to_bits()).collect()).collect()
}

fn bits3(v: &[Vec<Vec<f32>>]) -> Vec<Vec<Vec<u32>>> {
    v.iter().map(|r| bits2(r)).collect()
}

/// `ex` as a one-example slice.
fn alone(
    m: &BootlegModel,
    kb: &KnowledgeBase,
    ex: &Example,
    opts: ForwardOptions,
) -> ForwardOutput {
    m.run(kb, std::slice::from_ref(ex), opts).expect("no deadline").remove(0)
}

/// Asserts the batched outputs of `examples` are bit-identical to running
/// each example alone.
fn assert_parity(kb: &KnowledgeBase, m: &BootlegModel, examples: &[Example], opts: ForwardOptions) {
    let batched = m.run(kb, examples, opts).expect("no deadline");
    assert_eq!(batched.len(), examples.len());
    for (ex, b) in examples.iter().zip(&batched) {
        let s = alone(m, kb, ex, opts);
        assert_eq!(bits2(&s.scores), bits2(&b.scores), "scores diverge");
        assert_eq!(s.predictions, b.predictions, "predictions diverge");
        assert_eq!(bits2(&s.mention_reprs), bits2(&b.mention_reprs), "mention reprs diverge");
        assert_eq!(
            bits3(&s.candidate_reprs),
            bits3(&b.candidate_reprs),
            "candidate reprs diverge"
        );
        match (&s.loss, &b.loss) {
            (None, None) => {}
            (Some(ls), Some(lb)) => {
                assert_eq!(
                    ls.value().item().to_bits(),
                    lb.value().item().to_bits(),
                    "loss diverges"
                );
            }
            _ => panic!("loss presence diverges"),
        }
    }
}

#[test]
fn batch_sizes_match_sequential_bitwise() {
    let (kb, c, m) = setup();
    let pool = corpus_examples(&c, 16);
    assert!(pool.len() >= 16, "corpus too small for the batch-size sweep");
    for &n in &[1usize, 2, 7, 8, 16] {
        assert_parity(&kb, &m, &pool[..n], ForwardOptions::inference());
    }
}

#[test]
fn all_variants_match_sequential_bitwise() {
    let (kb, c, _) = setup();
    let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
    let pool = corpus_examples(&c, 7);
    for v in [ModelVariant::Full, ModelVariant::EntOnly, ModelVariant::TypeOnly, ModelVariant::KgOnly]
    {
        let m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default().with_variant(v));
        assert_parity(&kb, &m, &pool, ForwardOptions::inference());
    }
}

#[test]
fn benchmark_config_matches_sequential_bitwise() {
    // The kitchen-sink configuration: title feature, co-occurrence KG,
    // two-hop KG, position encoding, ensemble scoring.
    let (kb, c, _) = setup();
    let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
    let cfg = BootlegConfig { kg_two_hop: true, ..BootlegConfig::default().benchmark() };
    let mut m = BootlegModel::new(&kb, &c.vocab, &counts, cfg);
    m.set_cooccurrence(bootleg_core::cooccur::CooccurrenceIndex::build(&c.train, 2));
    let pool = corpus_examples(&c, 8);
    assert_parity(&kb, &m, &pool, ForwardOptions::inference());
}

#[test]
fn loss_and_candidate_reprs_match_sequential_bitwise() {
    let (kb, c, m) = setup();
    let pool: Vec<Example> = c.dev.iter().filter_map(Example::training).take(6).collect();
    assert!(pool.len() >= 2, "need supervised dev examples");
    let opts = ForwardOptions::inference().with_loss(true).with_candidate_reprs(true);
    assert_parity(&kb, &m, &pool, opts);
}

/// Randomized ragged mixes: mention counts, candidate counts, span widths
/// and sentence lengths all vary per example, including single-candidate
/// mentions (how unknown-alias requests reach the model) and examples at
/// the `ValidationLimits` boundary.
#[test]
fn random_ragged_batches_match_sequential_bitwise() {
    let (kb, c, m) = setup();
    let limits = ValidationLimits {
        max_tokens: m.config.word_encoder.max_len,
        vocab_size: c.vocab.len(),
        n_entities: m.n_entities,
    };
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xbadc0de ^ seed);
        let mut pool: Vec<Example> = Vec::new();
        for i in 0..8 {
            let n_tokens = if i == 0 {
                limits.max_tokens // boundary: longest admissible sentence
            } else {
                rng.gen_range(2..limits.max_tokens)
            };
            let tokens: Vec<u32> =
                (0..n_tokens).map(|_| rng.gen_range(0..limits.vocab_size as u32)).collect();
            let n_mentions = rng.gen_range(1..=4usize);
            let mentions: Vec<ExMention> = (0..n_mentions)
                .map(|j| {
                    let first = rng.gen_range(0..n_tokens);
                    let last = (first + rng.gen_range(0..3)).min(n_tokens - 1);
                    let k = if j == 0 { 1 } else { rng.gen_range(1..=5usize) };
                    let candidates: Vec<EntityId> = (0..k)
                        .map(|q| {
                            if q == 0 && i == 1 {
                                // boundary: the last valid entity id
                                EntityId(m.n_entities as u32 - 1)
                            } else {
                                EntityId(rng.gen_range(0..m.n_entities as u32))
                            }
                        })
                        .collect();
                    ExMention { first, last, candidates, gold: None }
                })
                .collect();
            let ex = Example::inference(tokens, mentions);
            ex.validate(&limits).expect("generated example within limits");
            pool.push(ex);
        }
        for &n in &[2usize, 7, 8] {
            assert_parity(&kb, &m, &pool[..n], ForwardOptions::inference());
        }
    }
}

#[test]
fn empty_slice_and_training_dispatch() {
    let (kb, c, m) = setup();
    assert!(m.run(&kb, &[], ForwardOptions::inference()).expect("empty").is_empty());
    // A training slice runs as one-example passes (dropout and the entity
    // mask draw from one RNG stream per graph), so a multi-example slice
    // equals running each example alone.
    let pool: Vec<Example> = c.dev.iter().filter_map(Example::training).take(2).collect();
    let outs = m.run(&kb, &pool, ForwardOptions::training(3)).expect("no deadline");
    for (ex, out) in pool.iter().zip(&outs) {
        let direct = alone(&m, &kb, ex, ForwardOptions::training(3));
        assert_eq!(bits2(&direct.scores), bits2(&out.scores), "training dispatch diverges");
    }
}

#[test]
fn per_example_deadline_evicts_only_that_example() {
    let (kb, c, m) = setup();
    let pool = corpus_examples(&c, 4);
    let refs: Vec<&Example> = pool.iter().collect();
    let mut deadlines = vec![Deadline::none(); 4];
    deadlines[1] = Deadline::expired_now();
    let results =
        m.try_forward_batch(&kb, &refs, &ForwardOptions::inference(), &deadlines);
    assert_eq!(results.len(), 4);
    for (i, r) in results.iter().enumerate() {
        if i == 1 {
            match r {
                Err(e) => assert_eq!(e.phase, "candgen"),
                Ok(_) => panic!("expired example must be interrupted"),
            }
        } else {
            let out = r.as_ref().expect("live examples complete");
            let direct = alone(&m, &kb, &pool[i], ForwardOptions::inference());
            assert_eq!(bits2(&direct.scores), bits2(&out.scores), "survivor diverges");
        }
    }
}

#[test]
fn all_expired_deadlines_abort_the_batch() {
    let (kb, c, m) = setup();
    let pool = corpus_examples(&c, 3);
    let refs: Vec<&Example> = pool.iter().collect();
    let deadlines = vec![Deadline::expired_now(); 3];
    let results = m.try_forward_batch(&kb, &refs, &ForwardOptions::inference(), &deadlines);
    for r in &results {
        match r {
            Err(e) => assert_eq!(e.phase, "candgen"),
            Ok(_) => panic!("all-expired batch must interrupt every example"),
        }
    }
}
