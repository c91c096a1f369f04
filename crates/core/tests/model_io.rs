//! Model save/load: a trained model written to disk and restored into a
//! freshly-constructed one must produce bit-identical predictions.

use bootleg_core::{train, BootlegConfig, BootlegModel, Example, ForwardOptions, TrainConfig};
use bootleg_corpus::{generate_corpus, CorpusConfig};
use bootleg_kb::{generate as gen_kb, KbConfig};

fn setup() -> (bootleg_kb::KnowledgeBase, bootleg_corpus::Corpus) {
    let kb = gen_kb(&KbConfig { n_entities: 200, seed: 161, ..KbConfig::default() });
    let c = generate_corpus(&kb, &CorpusConfig { n_pages: 40, seed: 161, ..CorpusConfig::default() });
    (kb, c)
}

#[test]
fn save_load_roundtrip_preserves_predictions() {
    let (kb, c) = setup();
    let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
    let mut trained = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default());
    train(&mut trained, &kb, &c.train, &TrainConfig { epochs: 1, ..Default::default() });

    let dir = std::env::temp_dir().join("bootleg_model_io");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("model.btfz");
    trained.save(&path).expect("save");

    // Fresh model, same constructor inputs, then restore the weights.
    let mut restored = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default());
    restored.load(&path).expect("load");

    let mut compared = 0;
    for s in c.dev.iter().take(30) {
        let Some(ex) = Example::evaluation(s) else { continue };
        let one = std::slice::from_ref(&ex);
        let a = trained.run(&kb, one, ForwardOptions::inference()).expect("no deadline").remove(0);
        let b = restored.run(&kb, one, ForwardOptions::inference()).expect("no deadline").remove(0);
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.scores, b.scores, "scores must be bit-identical");
        compared += 1;
    }
    assert!(compared > 3, "need examples to compare");
    std::fs::remove_file(&path).ok();
}

#[test]
fn load_rejects_different_architecture() {
    let (kb, c) = setup();
    let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
    let model = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default());
    let dir = std::env::temp_dir().join("bootleg_model_io2");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("model.btfz");
    model.save(&path).expect("save");

    // A model with a different hidden width must refuse the file.
    let mut other = BootlegModel::new(
        &kb,
        &c.vocab,
        &counts,
        BootlegConfig { hidden: 64, entity_dim: 64, ..BootlegConfig::default() },
    );
    assert!(other.load(&path).is_err());
    std::fs::remove_file(&path).ok();
}
