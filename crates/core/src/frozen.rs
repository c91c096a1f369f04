//! The frozen serving artifact: one file holding everything a serving
//! process needs — model configuration, all trained parameters, the
//! knowledge base, the vocabulary, training counts, and the prebuilt
//! entity-payload plane — so startup is a validated bulk load instead of
//! KB regeneration plus a separate parameter load.
//!
//! Sections (in the `tensor::frozen` container):
//!
//! | id         | contents                                                  |
//! |------------|-----------------------------------------------------------|
//! | `MODELCFG` | full [`BootlegConfig`] (every field, typed tags)          |
//! | `PARAMNAM` | parameter manifest: name, shape, float offset + length    |
//! | `PARAMF32` | all parameter values, one concatenated little-endian blob |
//! | `KBASE`    | the knowledge base (see [`bootleg_kb::frozen`])           |
//! | `VOCAB`    | id-ordered token list                                     |
//! | `COUNTS`   | per-entity training occurrence counts                     |
//! | `EPLANMET` | entity-payload plane shape (present only when exported)   |
//! | `EPLANF32` | entity-payload plane rows, raw f32                        |
//!
//! # Memory
//!
//! [`thaw_from_path`] never holds the file: the container reader validates
//! it in one streamed pass, small sections come back as owned bytes, the
//! parameter values are read straight into the model's tensors
//! ([`bootleg_tensor::frozen::fill_params`]) and the plane straight into the
//! vector the entity cache takes. Peak memory is the bundle plus one read
//! chunk and the small sections.
//!
//! The string-keyed maps are flat. The `VOCAB` words are copied from the
//! section bytes into one text buffer with a `u32` end offset per id and
//! an open-addressing id table ([`Vocab`]), with no allocation per word;
//! the KB's adjacency is one CSR array and its alias index an id table over
//! the alias records ([`KnowledgeBase::finalize`]). On the 166.8 MB
//! benchmark artifact (213,983 words) the vocabulary takes 7.0 MB where a
//! `HashMap<String, u32>` plus a `Vec<String>` took ~27 MB, counting the
//! allocator's rounding of each of the 428k small string blocks.
//! Under `init::skip_init` the model constructor leaves the entity table as
//! allocated instead of copying a zero row into every entity, since
//! `fill_params` overwrites all of it.
//!
//! # Bit-identity
//!
//! [`thaw_from_bytes`] rebuilds the model through [`BootlegModel::new`]
//! with the *decoded* KB/vocab/config — so every derived table (padded
//! type/relation bags, titles, regularization) is recomputed by the same
//! code that built the live model — then overwrites each parameter's values
//! byte-for-byte from `PARAMF32`. Since predictions are a function of
//! (config, derived tables, parameter bytes) only, a thawed model's outputs
//! are bit-identical to the live-built model it was frozen from (asserted
//! end-to-end by `tests/frozen_golden.rs`).
//!
//! The parameter sections are the shared codec of
//! [`bootleg_tensor::frozen::add_params`] — the same bytes training
//! checkpoints and `BootlegModel::save` write. The f32 blobs are little-endian
//! on disk and read in place ([`FrozenReader::read_f32s`]); there is no
//! per-element parse loop anywhere on this path.

use crate::config::{BootlegConfig, ModelVariant};
use crate::model::BootlegModel;
use crate::regularization::RegScheme;
use bootleg_corpus::Vocab;
use bootleg_kb::{EntityId, KnowledgeBase};
use bootleg_nn::encoder::WordEncoderConfig;
use bootleg_tensor::frozen::{
    add_params, f32_bytes, fill_params, Builder, Cursor, FrozenReader, FrozenWriter,
};
pub use bootleg_tensor::frozen::{FrozenError, SECTION_PARAM_F32, SECTION_PARAM_MANIFEST};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

pub const SECTION_CONFIG: &str = "MODELCFG";
pub const SECTION_VOCAB: &str = "VOCAB";
pub const SECTION_COUNTS: &str = "COUNTS";
pub const SECTION_PLANE_META: &str = "EPLANMET";
pub const SECTION_PLANE_F32: &str = "EPLANF32";

/// Environment variable naming the artifact to serve from.
pub const ARTIFACT_ENV: &str = "BOOTLEG_ARTIFACT";

/// Sanity ceilings for decoded config fields: large enough for any real
/// deployment, small enough that a hostile config cannot drive gigabyte
/// allocations inside [`BootlegModel::new`].
const MAX_DIM: usize = 1 << 14;
const MAX_LAYERS: usize = 1 << 8;
const MAX_VOCAB: usize = 1 << 24;
/// Longest vocabulary word, in bytes.
const MAX_WORD: usize = 1 << 10;

/// The path named by `BOOTLEG_ARTIFACT`, if set and non-empty.
pub fn artifact_from_env() -> Option<PathBuf> {
    std::env::var(ARTIFACT_ENV).ok().filter(|v| !v.trim().is_empty()).map(PathBuf::from)
}

/// Everything thawed from an artifact. The model borrows nothing: the
/// bundle is self-contained and can back a serving tier directly.
pub struct FrozenBundle {
    pub model: BootlegModel,
    pub kb: KnowledgeBase,
    pub vocab: Vocab,
    /// Per-entity training occurrence counts (the `COUNTS` section) — the
    /// same map the model was built with, re-exposed so serving layers can
    /// label head/torso/tail/unseen popularity slices without the corpus.
    pub counts: HashMap<EntityId, u32>,
}

/// The canonical inputs of the golden conformance fixture
/// (`tests/data/golden.btfz`): a small seeded KB and corpus plus a
/// serving-config model. Pinned here so the fixture generator
/// (`freeze_artifact --golden`) and the conformance suite
/// (`tests/frozen_golden.rs`) can never drift apart. Any change to the
/// generators, the parameter initialization, or this recipe is *supposed*
/// to fail the golden test — regenerate the fixture deliberately
/// (`cargo run -p bootleg-bench --bin freeze_artifact -- --golden --out
/// tests/data/golden.btfz`) when that happens.
pub fn golden_inputs() -> (KnowledgeBase, bootleg_corpus::Corpus, BootlegModel) {
    let kb = bootleg_kb::generate(&bootleg_kb::KbConfig {
        n_entities: 160,
        n_types: 24,
        n_relations: 12,
        seed: 2021,
        ..Default::default()
    });
    let corpus = bootleg_corpus::generate_corpus(
        &kb,
        &bootleg_corpus::CorpusConfig { n_pages: 48, seed: 2021, ..Default::default() },
    );
    let counts = bootleg_corpus::stats::entity_counts(&corpus.train, true);
    let model = BootlegModel::new(
        &kb,
        &corpus.vocab,
        &counts,
        BootlegConfig::default().serving(),
    );
    (kb, corpus, model)
}

// ---------------------------------------------------------------------------
// Config codec.
// ---------------------------------------------------------------------------

fn encode_config(cfg: &BootlegConfig) -> Vec<u8> {
    let mut b = Builder::new();
    b.u32(cfg.hidden as u32)
        .u32(cfg.entity_dim as u32)
        .u32(cfg.type_dim as u32)
        .u32(cfg.rel_dim as u32)
        .u32(cfg.coarse_dim as u32)
        .u32(cfg.n_layers as u32)
        .u32(cfg.n_heads as u32)
        .f32(cfg.dropout)
        .u32(cfg.max_types as u32)
        .u32(cfg.max_relations as u32);
    b.u8(match cfg.variant {
        ModelVariant::Full => 0,
        ModelVariant::EntOnly => 1,
        ModelVariant::TypeOnly => 2,
        ModelVariant::KgOnly => 3,
    });
    b.u8(cfg.type_prediction as u8);
    let (tag, p) = match cfg.regularization {
        RegScheme::None => (0u8, 0.0),
        RegScheme::Fixed(p) => (1, p),
        RegScheme::InvPopPow => (2, 0.0),
        RegScheme::InvPopLog => (3, 0.0),
        RegScheme::InvPopLin => (4, 0.0),
        RegScheme::PopPow => (5, 0.0),
    };
    b.u8(tag).f32(p);
    b.u32(cfg.word_encoder.vocab as u32)
        .u32(cfg.word_encoder.d_model as u32)
        .u32(cfg.word_encoder.n_layers as u32)
        .u32(cfg.word_encoder.n_heads as u32)
        .u32(cfg.word_encoder.max_len as u32)
        .f32(cfg.word_encoder.dropout);
    b.u8(cfg.title_feature as u8)
        .u8(cfg.cooccur_kg as u8)
        .u8(cfg.position_encoding as u8)
        .u8(cfg.kg_two_hop as u8)
        .u8(cfg.ensemble_scoring as u8)
        .u8(cfg.use_ent2ent as u8)
        .u64(cfg.seed);
    b.into_bytes()
}

fn schema(section: &str, what: impl Into<String>) -> FrozenError {
    FrozenError::SectionSchema { section: section.to_string(), what: what.into() }
}

fn read_bool(c: &mut Cursor<'_>, what: &str) -> Result<bool, FrozenError> {
    match c.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(schema(SECTION_CONFIG, format!("{what} tag {v} is not a bool"))),
    }
}

fn decode_config(payload: &[u8]) -> Result<BootlegConfig, FrozenError> {
    let mut c = Cursor::new(SECTION_CONFIG, payload);
    let dim = |c: &mut Cursor<'_>| c.count(MAX_DIM);
    let hidden = dim(&mut c)?;
    let entity_dim = dim(&mut c)?;
    let type_dim = dim(&mut c)?;
    let rel_dim = dim(&mut c)?;
    let coarse_dim = dim(&mut c)?;
    let n_layers = c.count(MAX_LAYERS)?;
    let n_heads = c.count(MAX_LAYERS)?;
    let dropout = c.f32()?;
    let max_types = c.count(MAX_DIM)?;
    let max_relations = c.count(MAX_DIM)?;
    let variant = match c.u8()? {
        0 => ModelVariant::Full,
        1 => ModelVariant::EntOnly,
        2 => ModelVariant::TypeOnly,
        3 => ModelVariant::KgOnly,
        v => return Err(schema(SECTION_CONFIG, format!("variant tag {v} out of range"))),
    };
    let type_prediction = read_bool(&mut c, "type_prediction")?;
    let reg_tag = c.u8()?;
    let reg_p = c.f32()?;
    let regularization = match reg_tag {
        0 => RegScheme::None,
        1 => {
            if !reg_p.is_finite() {
                return Err(schema(SECTION_CONFIG, "non-finite fixed regularization"));
            }
            RegScheme::Fixed(reg_p)
        }
        2 => RegScheme::InvPopPow,
        3 => RegScheme::InvPopLog,
        4 => RegScheme::InvPopLin,
        5 => RegScheme::PopPow,
        v => return Err(schema(SECTION_CONFIG, format!("regularization tag {v} out of range"))),
    };
    let word_encoder = WordEncoderConfig {
        vocab: c.count(MAX_VOCAB)?,
        d_model: dim(&mut c)?,
        n_layers: c.count(MAX_LAYERS)?,
        n_heads: c.count(MAX_LAYERS)?,
        max_len: c.count(MAX_DIM)?,
        dropout: c.f32()?,
    };
    let title_feature = read_bool(&mut c, "title_feature")?;
    let cooccur_kg = read_bool(&mut c, "cooccur_kg")?;
    let position_encoding = read_bool(&mut c, "position_encoding")?;
    let kg_two_hop = read_bool(&mut c, "kg_two_hop")?;
    let ensemble_scoring = read_bool(&mut c, "ensemble_scoring")?;
    let use_ent2ent = read_bool(&mut c, "use_ent2ent")?;
    let seed = c.u64()?;
    c.finish()?;
    Ok(BootlegConfig {
        hidden,
        entity_dim,
        type_dim,
        rel_dim,
        coarse_dim,
        n_layers,
        n_heads,
        dropout,
        max_types,
        max_relations,
        variant,
        type_prediction,
        regularization,
        word_encoder,
        title_feature,
        cooccur_kg,
        position_encoding,
        kg_two_hop,
        ensemble_scoring,
        use_ent2ent,
        seed,
    })
}

// ---------------------------------------------------------------------------
// Freeze.
// ---------------------------------------------------------------------------

/// The artifact's sections for a trained model + KB + vocab.
///
/// Fails with [`FrozenError::Unsupported`] when the model carries state the
/// format does not snapshot (the benchmark co-occurrence index).
fn artifact_writer(
    model: &BootlegModel,
    kb: &KnowledgeBase,
    vocab: &Vocab,
) -> Result<FrozenWriter, FrozenError> {
    if model.cooccur.is_some() {
        return Err(FrozenError::Unsupported {
            what: "models with a sentence co-occurrence index (benchmark config) cannot be \
                   frozen; rebuild the index at load time instead"
                .into(),
        });
    }
    if kb.num_entities() != model.n_entities {
        return Err(FrozenError::Unsupported {
            what: format!(
                "KB has {} entities but the model was built for {}",
                kb.num_entities(),
                model.n_entities
            ),
        });
    }

    let mut vocab_b = Builder::new();
    vocab_b.u32(vocab.len() as u32);
    for w in vocab.words() {
        vocab_b.string(w);
    }

    let mut counts_b = Builder::new();
    counts_b.u32s(&model.entity_counts);

    let mut w = FrozenWriter::new();
    w.add(SECTION_CONFIG, encode_config(&model.config));
    add_params(&mut w, &model.params);
    w.add(bootleg_kb::frozen::SECTION_KB, bootleg_kb::frozen::encode(kb));
    w.add(SECTION_VOCAB, vocab_b.into_bytes());
    w.add(SECTION_COUNTS, counts_b.into_bytes());
    if let Some((width, rows)) = model.export_entity_plane() {
        let mut meta = Builder::new();
        meta.u32(width as u32).u64((rows.len() / width) as u64);
        w.add(SECTION_PLANE_META, meta.into_bytes());
        w.add(SECTION_PLANE_F32, f32_bytes(&rows));
    }
    Ok(w)
}

/// Serialises a trained model + KB + vocab into artifact bytes.
///
/// Fails with [`FrozenError::Unsupported`] when the model carries state the
/// format does not snapshot (the benchmark co-occurrence index).
pub fn freeze(
    model: &BootlegModel,
    kb: &KnowledgeBase,
    vocab: &Vocab,
) -> Result<Vec<u8>, FrozenError> {
    Ok(artifact_writer(model, kb, vocab)?.to_bytes())
}

/// Freezes to a file, streamed into an atomic write.
pub fn freeze_to_path(
    model: &BootlegModel,
    kb: &KnowledgeBase,
    vocab: &Vocab,
    path: &Path,
) -> Result<(), FrozenError> {
    artifact_writer(model, kb, vocab)?.save(path)
}

// ---------------------------------------------------------------------------
// Thaw.
// ---------------------------------------------------------------------------

/// Thaws an artifact file into a ready-to-serve bundle, recording
/// `frozen.{load_ns,bytes,sections}` observability counters.
pub fn thaw_from_path(path: &Path) -> Result<FrozenBundle, FrozenError> {
    let start = std::time::Instant::now();
    let reader = FrozenReader::load(path)?;
    let bundle = thaw(&reader)?;
    bootleg_obs::counter!("frozen.load_ns").add(start.elapsed().as_nanos() as u64);
    bootleg_obs::counter!("frozen.bytes").add(reader.len_bytes() as u64);
    bootleg_obs::counter!("frozen.sections").add(reader.sections().len() as u64);
    Ok(bundle)
}

/// Thaws an artifact held in memory (fuzz/test entry point).
pub fn thaw_from_bytes(bytes: Vec<u8>) -> Result<FrozenBundle, FrozenError> {
    thaw(&FrozenReader::from_bytes(bytes)?)
}

/// Decodes the `VOCAB` payload (a word count, then each word as a
/// length-prefixed string) straight into a flat [`Vocab`], with no
/// allocation per word.
fn decode_vocab(payload: &[u8]) -> Result<Vocab, FrozenError> {
    if u32::try_from(payload.len()).is_err() {
        return Err(schema(SECTION_VOCAB, format!("{} bytes exceed 4 GiB", payload.len())));
    }
    let mut c = Cursor::new(SECTION_VOCAB, payload);
    let n_words = c.count(MAX_VOCAB)?;
    // Each word takes at least its 4-byte length prefix: a count that
    // cannot fit in the payload is refused before it sizes anything.
    let text_bytes = c.remaining().checked_sub(4 * n_words).ok_or_else(|| {
        schema(SECTION_VOCAB, format!("{n_words} words cannot fit in {} bytes", c.remaining()))
    })?;
    let mut words = Vocab::builder(n_words, text_bytes);
    for _ in 0..n_words {
        words.push(c.str(MAX_WORD)?);
    }
    c.finish()?;
    words.finish().ok_or_else(|| schema(SECTION_VOCAB, "duplicate word (token ids must be unique)"))
}

/// Thaws an artifact from an opened reader. Each section read re-checks
/// its CRC, so a file changed since the reader opened it is a typed error.
pub fn thaw(reader: &FrozenReader) -> Result<FrozenBundle, FrozenError> {
    let config = decode_config(&reader.require(SECTION_CONFIG)?)?;
    let kb = bootleg_kb::frozen::decode(&reader.require(bootleg_kb::frozen::SECTION_KB)?)?;

    let vocab = decode_vocab(&reader.require(SECTION_VOCAB)?)?;
    if config.word_encoder.vocab != vocab.len() {
        return Err(schema(
            SECTION_VOCAB,
            format!(
                "config expects a {}-token vocabulary, artifact has {}",
                config.word_encoder.vocab,
                vocab.len()
            ),
        ));
    }

    let counts_payload = reader.require(SECTION_COUNTS)?;
    let mut c = Cursor::new(SECTION_COUNTS, &counts_payload);
    let counts_vec = c.u32s(MAX_VOCAB)?;
    c.finish()?;
    if counts_vec.len() != kb.num_entities() {
        return Err(schema(
            SECTION_COUNTS,
            format!("{} counts for {} entities", counts_vec.len(), kb.num_entities()),
        ));
    }
    let counts: HashMap<EntityId, u32> = counts_vec
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, &n)| (EntityId(i as u32), n))
        .collect();

    // Rebuild the model architecture from the decoded inputs, then read the
    // trained parameter values straight into its tensors. The skip-init
    // guard makes construction allocate zeroed weight tensors instead of
    // sampling ~10⁶ random draws that would be overwritten anyway —
    // `fill_params` enforces that every parameter is covered, so no zero row
    // can survive. A failed fill drops the half-written model with the error.
    let mut model = {
        let _skip = bootleg_tensor::init::skip_init();
        BootlegModel::new(&kb, &vocab, &counts, config)
    };
    fill_params(reader, &mut model.params)?;

    // The payload plane was built from the weights just restored, so it is
    // current *by construction*; install it under the post-restore version
    // stamp. Its shape is checked against the config's payload layout
    // before a byte of it is read.
    if let (Some(_), Some(plane)) =
        (reader.section(SECTION_PLANE_META), reader.section(SECTION_PLANE_F32))
    {
        let meta = reader.require(SECTION_PLANE_META)?;
        let mut c = Cursor::new(SECTION_PLANE_META, &meta);
        let width = c.count(MAX_DIM)?;
        let n_rows = c.u64()?;
        c.finish()?;
        let layout_width = model.entity_plane_width();
        if width == 0 || width != layout_width {
            return Err(schema(
                SECTION_PLANE_META,
                format!("plane width {width} does not match the payload layout's {layout_width}"),
            ));
        }
        let want = model.n_entities.checked_mul(width * 4);
        if n_rows != model.n_entities as u64 || want != Some(plane.len) {
            return Err(schema(
                SECTION_PLANE_META,
                format!(
                    "plane {n_rows}x{width} does not match {} entities / {} bytes",
                    model.n_entities, plane.len
                ),
            ));
        }
        model.install_entity_plane(reader.f32_section(SECTION_PLANE_F32)?);
    }

    Ok(FrozenBundle { model, kb, vocab, counts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootleg_corpus::{generate_corpus, CorpusConfig};
    use bootleg_kb::{generate as gen_kb, KbConfig};

    fn setup() -> (KnowledgeBase, Vocab, BootlegModel) {
        let kb = gen_kb(&KbConfig { n_entities: 150, seed: 11, ..KbConfig::default() });
        let corpus = generate_corpus(
            &kb,
            &CorpusConfig { n_pages: 30, seed: 11, ..CorpusConfig::default() },
        );
        let counts = bootleg_corpus::stats::entity_counts(&corpus.train, true);
        let model = BootlegModel::new(&kb, &corpus.vocab, &counts, BootlegConfig::default());
        (kb, corpus.vocab, model)
    }

    #[test]
    fn freeze_thaw_round_trips_params_and_tables() {
        let (kb, vocab, model) = setup();
        let bytes = freeze(&model, &kb, &vocab).unwrap();
        let bundle = thaw_from_bytes(bytes).unwrap();
        assert_eq!(bundle.model.n_entities, model.n_entities);
        assert_eq!(bundle.vocab.len(), vocab.len());
        assert_eq!(bundle.model.entity_counts, model.entity_counts);
        assert_eq!(bundle.model.reg_p, model.reg_p);
        let n = model.params.iter().count();
        assert_eq!(bundle.model.params.iter().count(), n);
        for ((_, a), (_, b)) in model.params.iter().zip(bundle.model.params.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.data.shape(), b.data.shape());
            let ab = a.data.data().iter().map(|v| v.to_bits());
            let bb = b.data.data().iter().map(|v| v.to_bits());
            assert!(ab.eq(bb), "parameter {} not bit-identical", a.name);
        }
    }

    #[test]
    fn freeze_is_deterministic() {
        let (kb, vocab, model) = setup();
        assert_eq!(freeze(&model, &kb, &vocab).unwrap(), freeze(&model, &kb, &vocab).unwrap());
    }

    #[test]
    fn cooccur_model_is_unsupported() {
        let kb = gen_kb(&KbConfig { n_entities: 60, seed: 3, ..KbConfig::default() });
        let corpus = generate_corpus(
            &kb,
            &CorpusConfig { n_pages: 10, seed: 3, ..CorpusConfig::default() },
        );
        let counts = bootleg_corpus::stats::entity_counts(&corpus.train, true);
        let mut model = BootlegModel::new(
            &kb,
            &corpus.vocab,
            &counts,
            BootlegConfig::default().benchmark(),
        );
        model.set_cooccurrence(crate::cooccur::CooccurrenceIndex::build(&[], 1));
        assert!(matches!(
            freeze(&model, &kb, &corpus.vocab),
            Err(FrozenError::Unsupported { .. })
        ));
    }

    #[test]
    fn thawed_plane_is_installed_and_current() {
        let (kb, vocab, model) = setup();
        model.warm_entity_cache();
        let cached_bytes = model.entity_cache_bytes();
        assert!(cached_bytes > 0);
        let bytes = freeze(&model, &kb, &vocab).unwrap();
        let bundle = thaw_from_bytes(bytes).unwrap();
        // Installed at thaw: bytes present without any warm call.
        assert_eq!(bundle.model.entity_cache_bytes(), cached_bytes);
    }

    #[test]
    fn plane_wider_than_the_layout_is_a_schema_error() {
        // An artifact whose plane rows carry one extra `entity_dim` column
        // (the layout of artifacts that still stored the entity row) must be
        // refused, not read and silently dropped.
        let (kb, vocab, mut model) = setup();
        let width = model.entity_plane_width() + model.config.entity_dim;
        model.set_entity_cache_policy(crate::entitycache::CachePolicy::Off);
        let mut w = artifact_writer(&model, &kb, &vocab).unwrap();
        let mut meta = Builder::new();
        meta.u32(width as u32).u64(model.n_entities as u64);
        w.add(SECTION_PLANE_META, meta.into_bytes());
        w.add(SECTION_PLANE_F32, f32_bytes(&vec![0.0; model.n_entities * width]));
        match thaw_from_bytes(w.to_bytes()) {
            Err(FrozenError::SectionSchema { section, .. }) => {
                assert_eq!(section, SECTION_PLANE_META)
            }
            Err(e) => panic!("expected a SectionSchema error on the plane, got {e}"),
            Ok(_) => panic!("a plane wider than the layout thawed"),
        }
    }

    #[test]
    fn artifact_env_helper() {
        // Only checks the parse of an explicit value; the var is unset in
        // the test environment by default.
        assert!(artifact_from_env().is_none() || std::env::var(ARTIFACT_ENV).is_ok());
    }
}
