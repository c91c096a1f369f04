//! Golden conformance suite for the frozen serving artifact (BTFZ).
//!
//! Three guarantees, in escalating strength:
//!
//! 1. **Fixture stability** — regenerating the artifact from the pinned
//!    golden recipe ([`bootleg::core::frozen::golden_inputs`]) reproduces
//!    `tests/data/golden.btfz` byte for byte, so any drift in the container
//!    format, the KB/corpus generators, or parameter initialization is
//!    caught. A legitimate change regenerates the fixture deliberately:
//!    `cargo run --release -p bootleg-bench --bin freeze_artifact -- \
//!      --golden --out tests/data/golden.btfz`.
//! 2. **Save→load→save stability** — freezing a thawed bundle yields the
//!    exact bytes that were loaded, i.e. thawing is lossless.
//! 3. **Bit-identical serving** — the thawed model scores a 64-sentence
//!    corpus exactly (every score `f32::to_bits`-equal) like the live-built
//!    model it snapshots.

use bootleg::core::{frozen, Example, ForwardOptions};

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden.btfz")
}

#[test]
fn regenerated_artifact_matches_checked_in_fixture() {
    let (kb, corpus, model) = frozen::golden_inputs();
    let bytes = frozen::freeze(&model, &kb, &corpus.vocab).expect("freeze golden inputs");
    let fixture = std::fs::read(fixture_path()).expect("read tests/data/golden.btfz");
    assert_eq!(bytes.len(), fixture.len(), "artifact length drifted from the fixture");
    assert!(
        bytes == fixture,
        "artifact bytes drifted from the checked-in fixture; if the change is \
         intentional, regenerate it with `freeze_artifact --golden`"
    );
}

#[test]
fn save_load_save_is_byte_stable() {
    let fixture = std::fs::read(fixture_path()).expect("read tests/data/golden.btfz");
    let bundle = frozen::thaw_from_bytes(fixture.clone()).expect("thaw fixture");
    let refrozen =
        frozen::freeze(&bundle.model, &bundle.kb, &bundle.vocab).expect("refreeze bundle");
    assert!(refrozen == fixture, "save→load→save must be byte-stable");
}

#[test]
fn thawed_model_serves_bit_identically() {
    let (kb, corpus, live) = frozen::golden_inputs();
    let bytes = frozen::freeze(&live, &kb, &corpus.vocab).expect("freeze live model");
    let bundle = frozen::thaw_from_bytes(bytes).expect("thaw");

    // 64 evaluable sentences drawn across all three splits.
    let examples: Vec<Example> = corpus
        .dev
        .iter()
        .chain(corpus.test.iter())
        .chain(corpus.train.iter())
        .filter_map(Example::evaluation)
        .take(64)
        .collect();
    assert_eq!(examples.len(), 64, "golden corpus must supply 64 evaluable sentences");

    let opts = ForwardOptions::inference();
    for (i, ex) in examples.iter().enumerate() {
        let one = std::slice::from_ref(ex);
        let a = live.run(&kb, one, opts).expect("no deadline").remove(0);
        let b = bundle.model.run(&bundle.kb, one, opts).expect("no deadline").remove(0);
        assert_eq!(a.predictions, b.predictions, "sentence {i}: predictions diverge");
        assert_eq!(a.scores.len(), b.scores.len(), "sentence {i}: mention count diverges");
        for (m, (sa, sb)) in a.scores.iter().zip(&b.scores).enumerate() {
            let bits_a: Vec<u32> = sa.iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u32> = sb.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "sentence {i} mention {m}: scores not bit-identical");
        }
    }
}
