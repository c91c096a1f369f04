//! `gen`: builds the seeded inputs of one run — a 40k-entity KB, its
//! corpus, a serving-config model frozen to a BTFZ artifact, the held-out
//! request pool and the training split — and checks that the artifact
//! answers exactly like the live model it was frozen from.

use crate::inputs::write_sentences;
use crate::Check;
use bootleg_core::{BootlegConfig, BootlegModel, CachePolicy, Example, ForwardOptions};
use bootleg_corpus::{generate_corpus, weaklabel, CorpusConfig};
use bootleg_kb::KbConfig;
use std::path::Path;

/// Entities in the benchmark KB.
pub const N_ENTITIES: usize = 40_000;
/// Corpus pages: enough held-out sentences for the request pools and a
/// training split whose counts give every popularity slice.
const N_PAGES: usize = 4_000;
/// Requests the frozen-vs-live check replays.
const PARITY_SAMPLE: usize = 64;

pub const ARTIFACT: &str = "model.btfz";
pub const REQUESTS: &str = "requests.bin";
pub const TRAIN: &str = "train.bin";

pub fn run(seed: u64, dir: &Path) -> Result<(), Check> {
    std::fs::create_dir_all(dir).map_err(|e| Check::io("gen.workdir", e))?;
    let kb = bootleg_kb::generate(&KbConfig {
        n_entities: N_ENTITIES,
        // The paper's R = 50 relation bags, which the serving config reads.
        relations_per_entity_max: 50,
        seed,
        ..KbConfig::default()
    });
    let mut corpus = generate_corpus(
        &kb,
        &CorpusConfig {
            n_pages: N_PAGES,
            seed: seed ^ 1,
            ..Default::default()
        },
    );
    let vocab = corpus.vocab.clone();
    weaklabel::apply(&kb, &vocab, &mut corpus.train);
    let counts = bootleg_corpus::stats::entity_counts(&corpus.train, true);
    let mut model = BootlegModel::new(&kb, &vocab, &counts, BootlegConfig::default().serving());
    // The plane ships inside the artifact whatever this process's env says.
    model.set_entity_cache_policy(CachePolicy::Full);

    let artifact = dir.join(ARTIFACT);
    bootleg_core::freeze_to_path(&model, &kb, &vocab, &artifact)
        .map_err(|e| Check::fail("gen.freeze", e.to_string()))?;

    let held_out: Vec<_> = corpus.dev.iter().chain(&corpus.test).cloned().collect();
    write_sentences(&dir.join(REQUESTS), &held_out).map_err(|e| Check::io("gen.requests", e))?;
    write_sentences(&dir.join(TRAIN), &corpus.train).map_err(|e| Check::io("gen.train", e))?;

    // The thawed model must answer a fixed sample exactly like the live one.
    let bundle = bootleg_core::thaw_from_path(&artifact)
        .map_err(|e| Check::fail("gen.thaw", e.to_string()))?;
    let sample: Vec<Example> = held_out
        .iter()
        .filter_map(Example::evaluation)
        .take(PARITY_SAMPLE)
        .collect();
    for ex in &sample {
        let run = |m: &BootlegModel, kb| {
            m.run(kb, std::slice::from_ref(ex), ForwardOptions::inference())
                .expect("no deadline")
                .pop()
                .expect("one output")
                .predictions
        };
        if run(&model, &kb) != run(&bundle.model, &bundle.kb) {
            return Err(Check::fail(
                "frozen_matches_live",
                "thawed model answered differently",
            ));
        }
    }
    Ok(())
}
