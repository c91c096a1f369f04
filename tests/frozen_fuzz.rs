//! Hostile-input fuzz suite for the frozen-container loaders.
//!
//! Two kinds of file share the `BTFZ` container: the serving artifact and
//! the training checkpoint. Every mutation of a valid one — truncation, bit
//! flips, shuffled section offsets, inflated lengths, duplicated section
//! ids, and even corruption with all checksums recomputed by the attacker —
//! must come back as a typed error, never a panic, an out-of-bounds slice,
//! or an unwind. Both loader layers are exercised, from memory and from a
//! file: the raw container validator ([`FrozenReader::from_bytes`] and
//! [`FrozenReader::load`], which must agree error for error) and the
//! semantic layer above it — the full thaw (`thaw_from_bytes` and
//! `thaw_from_path`) for artifacts, resume through [`train_resumable`] for
//! checkpoints (where a refused newest file may instead fall back to an
//! older valid one), and `BootlegModel::load` for both.
//!
//! The reader keeps the file open and re-reads each section on demand, so
//! the suite also truncates the file or flips a payload byte *after* open:
//! every section read that sees the change is a typed error, and the
//! all-or-nothing restores (`restore_params`, `Adam::restore_state`) leave
//! their state bit-for-bit unchanged.

use bootleg::core::{
    frozen, train_resumable, BootlegConfig, BootlegModel, CheckpointConfig, FaultPlan,
    RecoveryKind, TrainConfig,
};
use bootleg::corpus::Corpus;
use bootleg::kb::{EntityId, KnowledgeBase};
use bootleg::nn::optim::{Adam, SECTION_ADAM_M, SECTION_ADAM_STEP, SECTION_ADAM_V};
use bootleg::tensor::checkpoint::crc32c;
use bootleg::tensor::frozen::{
    add_params, restore_params, Builder, Cursor, FrozenError, FrozenReader, FrozenWriter,
    HEADER_LEN, SECTION_ENTRY_LEN, SECTION_PARAM_F32, SECTION_PARAM_MANIFEST,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The small seeded world both base files are built from.
fn world() -> &'static (KnowledgeBase, Corpus, HashMap<EntityId, u32>) {
    static WORLD: OnceLock<(KnowledgeBase, Corpus, HashMap<EntityId, u32>)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let kb = bootleg::kb::generate(&bootleg::kb::KbConfig {
            n_entities: 90,
            ..bootleg::kb::KbConfig::micro(9)
        });
        let corpus = bootleg::corpus::generate_corpus(
            &kb,
            &bootleg::corpus::CorpusConfig { n_pages: 16, seed: 9, ..Default::default() },
        );
        let counts = bootleg::corpus::stats::entity_counts(&corpus.train, true);
        (kb, corpus, counts)
    })
}

fn fresh_model() -> BootlegModel {
    let (kb, corpus, counts) = world();
    BootlegModel::new(kb, &corpus.vocab, counts, BootlegConfig::default())
}

/// A small but fully populated artifact (model + KB + vocab + counts),
/// built once and mutated per test case.
fn artifact() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (kb, corpus, _) = world();
        frozen::freeze(&fresh_model(), kb, &corpus.vocab).expect("freeze fuzz base artifact")
    })
}

/// Two sentences, one per step: resuming from the last checkpoint has no
/// batches left, resuming from the one before it trains a single step.
fn train_config() -> TrainConfig {
    TrainConfig { epochs: 1, batch_size: 1, max_sentences: Some(2), ..TrainConfig::default() }
}

/// The two newest checkpoints of a short training run, `(step, bytes)`,
/// older first. The newest is the one every case mutates.
fn checkpoints() -> &'static [(u64, Vec<u8>); 2] {
    static FILES: OnceLock<[(u64, Vec<u8>); 2]> = OnceLock::new();
    FILES.get_or_init(|| {
        let (kb, corpus, _) = world();
        let dir = scratch_dir();
        let ck = CheckpointConfig { dir: dir.clone(), every_steps: 1, keep_last: 2 };
        train_resumable(
            &mut fresh_model(),
            kb,
            &corpus.train,
            &train_config(),
            Some(&ck),
            &FaultPlan::none(),
        )
        .expect("fixture training run");
        let mgr = bootleg::tensor::checkpoint::CheckpointManager::new(&dir, 2).expect("dir");
        let files: Vec<(u64, Vec<u8>)> = mgr
            .list()
            .expect("list")
            .into_iter()
            .map(|(step, path)| (step, std::fs::read(path).expect("read checkpoint")))
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        files.try_into().expect("the run leaves two checkpoints")
    })
}

fn newest_checkpoint() -> &'static [u8] {
    &checkpoints()[1].1
}

fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bootleg_fuzz_ckpt_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A scratch file holding `bytes`, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(bytes: &[u8]) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("bootleg_fuzz_file_{}_{n}.btfz", std::process::id()));
        std::fs::write(&path, bytes).expect("write scratch file");
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Whether the container validator refuses `bytes`, from memory and from a
/// file alike (the two must fail with the same typed error).
fn container_refuses(bytes: &[u8]) -> bool {
    let file = TempFile::new(bytes);
    let from_bytes = FrozenReader::from_bytes(bytes.to_vec()).err();
    let from_file = FrozenReader::load(file.path()).err();
    assert_eq!(from_bytes, from_file, "memory and file readers disagree");
    from_bytes.is_some()
}

/// Every parameter value, as bytes, for bit-for-bit comparisons.
fn param_bytes(model: &BootlegModel) -> Vec<u8> {
    let mut w = FrozenWriter::new();
    add_params(&mut w, &model.params);
    w.to_bytes()
}

/// The whole Adam state, as bytes, for bit-for-bit comparisons.
fn adam_bytes(opt: &Adam) -> Vec<u8> {
    let mut w = FrozenWriter::new();
    opt.add_state(&mut w);
    w.to_bytes()
}

/// Whether `BootlegModel::load` refuses the file `bytes`; a refusal must
/// leave the model's parameters bit-for-bit as they were.
fn model_load_refuses(bytes: &[u8]) -> bool {
    let file = TempFile::new(bytes);
    let mut model = fresh_model();
    let before = param_bytes(&model);
    match model.load(file.path()) {
        Ok(()) => false,
        Err(e) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "untyped failure: {e}");
            assert!(param_bytes(&model) == before, "a failed load changed the model");
            true
        }
    }
}

/// How a resume went with `newest` as the newest file of a checkpoint
/// directory that also holds the older valid checkpoint.
#[derive(Debug, PartialEq)]
enum Resume {
    /// The newest file was restored.
    FromNewest,
    /// The newest file was skipped and the older one restored.
    FellBack,
    /// Resume stopped with a typed (`InvalidData`) error.
    Refused,
}

fn resume_with_newest(newest: Vec<u8>) -> Resume {
    let (kb, corpus, _) = world();
    let [(older_step, older), (newest_step, _)] = checkpoints();
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(dir.join(format!("ckpt-{older_step:012}.btfz")), older).expect("write");
    std::fs::write(dir.join(format!("ckpt-{newest_step:012}.btfz")), newest).expect("write");
    let ck = CheckpointConfig { dir: dir.clone(), every_steps: 0, keep_last: 2 };
    let out = train_resumable(
        &mut fresh_model(),
        kb,
        &corpus.train,
        &train_config(),
        Some(&ck),
        &FaultPlan::none(),
    );
    std::fs::remove_dir_all(&dir).ok();
    match out {
        Err(e) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "untyped failure: {e}");
            Resume::Refused
        }
        Ok(o) => {
            let fell_back =
                o.report.recovery_events.iter().any(|e| e.kind == RecoveryKind::CheckpointFallback);
            match o.report.resumed_from {
                Some(step) if step == *newest_step && !fell_back => Resume::FromNewest,
                Some(step) if step == *older_step && fell_back => Resume::FellBack,
                other => panic!("resumed from {other:?} (fallback: {fell_back})"),
            }
        }
    }
}

/// The two base files every mutation is applied to.
#[derive(Clone, Copy, Debug)]
enum Base {
    Artifact,
    Checkpoint,
}

const BASES: [Base; 2] = [Base::Artifact, Base::Checkpoint];

impl Base {
    fn bytes(self) -> &'static [u8] {
        match self {
            Base::Artifact => artifact(),
            Base::Checkpoint => newest_checkpoint(),
        }
    }

    /// Whether the semantic layer refuses `bytes`: an artifact fails to
    /// thaw, from memory and from a file alike; a checkpoint is not resumed
    /// from (typed error or fallback).
    fn refuses(self, bytes: Vec<u8>) -> bool {
        match self {
            Base::Artifact => {
                let file = TempFile::new(&bytes);
                let from_file = frozen::thaw_from_path(file.path()).err();
                let from_bytes = frozen::thaw_from_bytes(bytes).err();
                assert_eq!(from_bytes, from_file, "memory and file thaws disagree");
                from_bytes.is_some()
            }
            Base::Checkpoint => resume_with_newest(bytes) != Resume::FromNewest,
        }
    }

    /// Runs the semantic layer, accepting any outcome but a panic.
    fn load_any(self, bytes: Vec<u8>) {
        match self {
            Base::Artifact => {
                let file = TempFile::new(&bytes);
                drop(frozen::thaw_from_path(file.path()));
                drop(frozen::thaw_from_bytes(bytes));
            }
            Base::Checkpoint => drop(resume_with_newest(bytes)),
        }
    }
}

fn section_count(bytes: &[u8]) -> usize {
    u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize
}

fn entry(i: usize) -> usize {
    HEADER_LEN + i * SECTION_ENTRY_LEN
}

fn entry_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Recomputes every checksum a sophisticated attacker controls: per-section
/// CRCs (where the claimed range is still in bounds), the header CRC, and
/// the whole-file trailer CRC. After this, only the structural validators
/// (ordering, overlap, alignment, bounds, schema) stand between the
/// mutation and acceptance.
fn resign(bytes: &mut [u8]) {
    let n = section_count(bytes);
    let payload_start = HEADER_LEN + n * SECTION_ENTRY_LEN;
    let payload_end = bytes.len().saturating_sub(4);
    for i in 0..n {
        let e = entry(i);
        let off = entry_u64(bytes, e + 8) as usize;
        let len = entry_u64(bytes, e + 16) as usize;
        if off.checked_add(len).is_some_and(|end| end <= payload_end) {
            let crc = crc32c(&bytes[off..off + len]);
            bytes[e + 24..e + 28].copy_from_slice(&crc.to_le_bytes());
        }
    }
    bytes[32..36].copy_from_slice(&[0; 4]);
    let hcrc = crc32c(&bytes[..payload_start]);
    bytes[32..36].copy_from_slice(&hcrc.to_le_bytes());
    let tcrc = crc32c(&bytes[..payload_end]);
    bytes[payload_end..].copy_from_slice(&tcrc.to_le_bytes());
}

#[test]
fn pristine_artifact_thaws() {
    let bundle = frozen::thaw_from_bytes(artifact().to_vec()).expect("valid artifact thaws");
    assert_eq!(bundle.model.n_entities, 90);
    assert_eq!(resume_with_newest(newest_checkpoint().to_vec()), Resume::FromNewest);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncation_yields_typed_error(keep_frac in 0.0f64..1.0) {
        for base in BASES {
            let bytes = base.bytes();
            let keep = ((bytes.len() - 1) as f64 * keep_frac) as usize;
            let cut = bytes[..keep].to_vec();
            prop_assert!(container_refuses(&cut));
            prop_assert!(model_load_refuses(&cut), "{base:?}");
            prop_assert!(base.refuses(cut), "{base:?}");
        }
    }

    #[test]
    fn bit_flip_yields_typed_error(pos_frac in 0.0f64..1.0, bit in 0u32..8) {
        for base in BASES {
            let mut bytes = base.bytes().to_vec();
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            bytes[pos] ^= 1 << bit;
            prop_assert!(container_refuses(&bytes));
            prop_assert!(model_load_refuses(&bytes), "{base:?}");
            prop_assert!(base.refuses(bytes), "{base:?}");
        }
    }

    #[test]
    fn shuffled_section_offsets_yield_typed_error(a_raw in 0usize..64, step in 1usize..64) {
        for base in BASES {
            let mut bytes = base.bytes().to_vec();
            let n = section_count(&bytes);
            prop_assert!(n >= 2, "base file must have at least two sections");
            let a = a_raw % n;
            let b = (a + 1 + step % (n - 1)) % n;
            let (ea, eb) = (entry(a) + 8, entry(b) + 8);
            let off_a = entry_u64(&bytes, ea);
            let off_b = entry_u64(&bytes, eb);
            bytes[ea..ea + 8].copy_from_slice(&off_b.to_le_bytes());
            bytes[eb..eb + 8].copy_from_slice(&off_a.to_le_bytes());
            resign(&mut bytes);
            prop_assert!(container_refuses(&bytes));
            prop_assert!(base.refuses(bytes), "{base:?}");
        }
    }

    #[test]
    fn inflated_length_yields_typed_error(idx_raw in 0usize..64, extra in 64u64..(1u64 << 40)) {
        for base in BASES {
            let mut bytes = base.bytes().to_vec();
            let n = section_count(&bytes);
            let e = entry(idx_raw % n) + 16;
            // +64 at minimum: larger than any alignment slack, so the
            // claimed end always lands beyond the payload region.
            let inflated = entry_u64(&bytes, e).saturating_add(extra);
            bytes[e..e + 8].copy_from_slice(&inflated.to_le_bytes());
            resign(&mut bytes);
            prop_assert!(container_refuses(&bytes));
            prop_assert!(base.refuses(bytes), "{base:?}");
        }
    }

    #[test]
    fn duplicated_section_id_yields_typed_error(a_raw in 0usize..64, step in 1usize..64) {
        for base in BASES {
            let mut bytes = base.bytes().to_vec();
            let n = section_count(&bytes);
            prop_assert!(n >= 2);
            let a = a_raw % n;
            let b = (a + 1 + step % (n - 1)) % n;
            let id_a: [u8; 8] = bytes[entry(a)..entry(a) + 8].try_into().expect("8-byte id");
            bytes[entry(b)..entry(b) + 8].copy_from_slice(&id_a);
            resign(&mut bytes);
            prop_assert!(container_refuses(&bytes));
            prop_assert!(base.refuses(bytes), "{base:?}");
        }
    }

    #[test]
    fn resigned_payload_corruption_never_panics(
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        // The attacker corrupts payload bytes and then recomputes every
        // checksum. The container may validate (the CRCs genuinely match),
        // so the only guarantees left are: no panic, and any acceptance at
        // the semantic layer is of *schema-valid* data. A panic anywhere
        // fails this test.
        for base in BASES {
            let mut bytes = base.bytes().to_vec();
            let n = section_count(&bytes);
            let payload_start = HEADER_LEN + n * SECTION_ENTRY_LEN;
            let span = bytes.len() - 4 - payload_start;
            let pos = payload_start + ((span - 1) as f64 * pos_frac) as usize;
            bytes[pos] ^= flip;
            resign(&mut bytes);
            if !container_refuses(&bytes) {
                base.load_any(bytes);
            }
        }
    }

    #[test]
    fn random_garbage_yields_typed_error(
        garbage in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        for base in BASES {
            prop_assert!(container_refuses(&garbage));
            prop_assert!(base.refuses(garbage.clone()), "{base:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// The file changes after open: the reader holds no payload, so each section
// read goes back to the file and must notice.
// ---------------------------------------------------------------------------

/// Overwrites `file` in place (same inode, so an open reader sees it):
/// `mask == 0` cuts it to `at` bytes, otherwise byte `at` of `bytes` is
/// written back flipped by `mask`.
fn change_in_place(file: &TempFile, bytes: &[u8], at: usize, mask: u8) {
    let mut f =
        std::fs::OpenOptions::new().write(true).open(file.path()).expect("reopen scratch file");
    if mask == 0 {
        f.set_len(at as u64).expect("truncate");
    } else {
        f.seek(SeekFrom::Start(at as u64)).expect("seek");
        f.write_all(&[bytes[at] ^ mask]).expect("flip");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn file_changed_after_open_yields_typed_error(
        section_raw in 0usize..64,
        pos_frac in 0.0f64..1.0,
        truncate in 0u8..2,
        flip in 1u8..=255,
    ) {
        for base in BASES {
            let bytes = base.bytes();
            let file = TempFile::new(bytes);
            let reader = FrozenReader::load(file.path()).expect("valid base opens");
            let filled: Vec<_> = reader.sections().iter().filter(|s| s.len > 0).collect();
            let hit = filled[section_raw % filled.len()];
            let at = hit.off + ((hit.len - 1) as f64 * pos_frac) as usize;
            let mask = if truncate == 1 { 0 } else { flip };
            change_in_place(&file, bytes, at, mask);
            // Whether section `id` now reads differently from what was opened.
            let changed = |id: &str| {
                let s = reader.section(id).expect("listed section");
                if mask == 0 { s.len > 0 && s.off + s.len > at } else { s.id == hit.id }
            };

            for s in reader.sections() {
                match reader.require(&s.id) {
                    Ok(payload) => {
                        prop_assert!(!changed(&s.id), "{base:?}: {} change went unseen", s.id);
                        prop_assert!(payload == bytes[s.off..s.off + s.len]);
                    }
                    Err(e) => {
                        prop_assert!(changed(&s.id), "{base:?}: {} failed: {e}", s.id);
                        prop_assert!(
                            matches!(
                                e,
                                FrozenError::Truncated { .. } | FrozenError::ChecksumMismatch { .. }
                            ),
                            "{e:?}"
                        );
                    }
                }
            }

            match base {
                // A thaw reads every section of an artifact.
                Base::Artifact => prop_assert!(frozen::thaw(&reader).is_err()),
                // `BootlegModel::load` is `restore_params` on a freshly opened
                // reader. A fresh model and optimizer differ from the
                // checkpoint, so an unchanged state is a real check.
                Base::Checkpoint => {
                    let mut model = fresh_model();
                    let mut opt = Adam::new(&model.params, 0.1);
                    let (params_before, adam_before) = (param_bytes(&model), adam_bytes(&opt));
                    let params = restore_params(&reader, &mut model.params);
                    let params_read = [SECTION_PARAM_MANIFEST, SECTION_PARAM_F32];
                    prop_assert_eq!(params.is_err(), params_read.iter().any(|id| changed(id)));
                    if params.is_err() {
                        prop_assert!(param_bytes(&model) == params_before, "params changed");
                    }
                    let adam = opt.restore_state(&reader);
                    let adam_read = [SECTION_ADAM_STEP, SECTION_ADAM_M, SECTION_ADAM_V];
                    prop_assert_eq!(adam.is_err(), adam_read.iter().any(|id| changed(id)));
                    if adam.is_err() {
                        prop_assert!(adam_bytes(&opt) == adam_before, "optimizer changed");
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Schema-level attacks: one section rewritten and the file re-signed by a
// correct writer, so every container check passes and only the decoders
// stand in the way.
// ---------------------------------------------------------------------------

/// `base` with section `id` replaced by `payload` (or dropped for `None`).
fn with_section(base: &[u8], id: &str, payload: Option<Vec<u8>>) -> Vec<u8> {
    let reader = FrozenReader::from_bytes(base.to_vec()).expect("valid base");
    let mut w = FrozenWriter::new();
    for s in reader.sections() {
        let body = if s.id == id { payload.clone() } else { reader.require(&s.id).ok() };
        if let Some(body) = body {
            w.add(&s.id, body);
        }
    }
    w.to_bytes()
}

/// One parameter-manifest entry.
#[derive(Clone)]
struct ManifestEntry {
    name: String,
    shape: Vec<u32>,
    off: u64,
    len: u64,
}

fn manifest_of(base: &[u8]) -> Vec<ManifestEntry> {
    let reader = FrozenReader::from_bytes(base.to_vec()).expect("valid base");
    let payload = reader.require(SECTION_PARAM_MANIFEST).expect("manifest");
    let mut c = Cursor::new(SECTION_PARAM_MANIFEST, &payload);
    let n = c.count(1 << 12).expect("count");
    (0..n)
        .map(|_| ManifestEntry {
            name: c.string(1 << 10).expect("name"),
            shape: c.u32s(8).expect("shape"),
            off: c.u64().expect("off"),
            len: c.u64().expect("len"),
        })
        .collect()
}

fn encode_manifest(count: u32, entries: &[ManifestEntry]) -> Vec<u8> {
    let mut b = Builder::new();
    b.u32(count);
    for e in entries {
        b.string(&e.name).u32s(&e.shape).u64(e.off).u64(e.len);
    }
    b.into_bytes()
}

fn u64s(vals: &[u64]) -> Vec<u8> {
    let mut b = Builder::new();
    b.u64s(vals);
    b.into_bytes()
}

/// Hostile parameter manifests, shared by artifacts and checkpoints.
fn manifest_attacks(base: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let entries = manifest_of(base);
    let n = entries.len() as u32;
    let edit = |f: &dyn Fn(&mut ManifestEntry)| {
        let mut e = entries.clone();
        f(&mut e[0]);
        encode_manifest(n, &e)
    };
    let huge = 1u64 << 62;
    // Entry 0 twice, the last entry never: right count, incomplete coverage.
    let repeated = [&entries[..1], &entries[..entries.len() - 1]].concat();
    vec![
        ("param count + 1", encode_manifest(n + 1, &entries)),
        ("param count u32::MAX", encode_manifest(u32::MAX, &entries)),
        ("param count 0", encode_manifest(0, &[])),
        ("first entry repeated", encode_manifest(n, &repeated)),
        ("shape [2^31, 4]", edit(&|e| e.shape = vec![1 << 31, 4])),
        ("shape of rank 9", edit(&|e| e.shape = vec![1; 9])),
        ("2^62 floats at offset 0", edit(&|e| e.len = huge)),
        ("4 floats at offset 2^62", edit(&|e| (e.off, e.len) = (huge, 4))),
        ("2^62 floats at offset 2^62", edit(&|e| (e.off, e.len) = (huge, huge))),
        ("offset u64::MAX", edit(&|e| e.off = u64::MAX)),
        ("unknown name", edit(&|e| e.name = "no.such.param".into())),
    ]
}

#[test]
fn resigned_hostile_param_manifests_yield_typed_errors() {
    for base in BASES {
        for (what, manifest) in manifest_attacks(base.bytes()) {
            let bytes = with_section(base.bytes(), SECTION_PARAM_MANIFEST, Some(manifest));
            assert!(base.refuses(bytes), "{base:?}: {what} was accepted");
        }
        let short = {
            let reader = FrozenReader::from_bytes(base.bytes().to_vec()).expect("valid base");
            let mut raw = reader.require(SECTION_PARAM_F32).expect("values");
            raw.truncate(raw.len() - 4);
            raw
        };
        let bytes = with_section(base.bytes(), SECTION_PARAM_F32, Some(short));
        assert!(base.refuses(bytes), "{base:?}: short value blob was accepted");
    }
}

#[test]
fn resigned_hostile_checkpoint_sections_yield_typed_errors() {
    let base = newest_checkpoint();
    let reader = FrozenReader::from_bytes(base.to_vec()).expect("valid base");
    let moments = reader.require(SECTION_ADAM_M).expect("moments");
    let inflated = [moments.clone(), vec![0; 64]].concat();
    let attacks: Vec<(&str, &str, Option<Vec<u8>>)> = vec![
        (SECTION_ADAM_M, "moments inflated by 64 bytes", Some(inflated)),
        (SECTION_ADAM_V, "moments one float short", Some(moments[..moments.len() - 4].to_vec())),
        (SECTION_ADAM_M, "moments empty", Some(Vec::new())),
        (SECTION_ADAM_V, "moments missing", None),
        (SECTION_ADAM_STEP, "three counters", Some(u64s(&[1, 2, 3]))),
        (SECTION_ADAM_STEP, "lr wider than f32", Some(u64s(&[1, u64::MAX]))),
        (SECTION_ADAM_STEP, "count claims 2^32 - 1", Some(u32::MAX.to_le_bytes().to_vec())),
        ("LOOPSTAT", "ten loop fields", Some(u64s(&[0; 10]))),
        ("LOOPSTAT", "loop state missing", None),
        ("EPLOSSES", "loss count claims 2^32 - 1", Some(u32::MAX.to_le_bytes().to_vec())),
        ("EPLOSSES", "loss wider than f32", Some(u64s(&[u64::MAX]))),
        (SECTION_PARAM_F32, "values missing", None),
    ];
    for (id, what, payload) in attacks {
        let bytes = with_section(base, id, payload);
        assert_eq!(resume_with_newest(bytes), Resume::Refused, "{id}: {what}");
    }
}

/// The artifact's vocabulary as a `VOCAB` payload with `count` claimed and
/// `words` written.
fn vocab_payload(count: u32, words: &[&[u8]]) -> Vec<u8> {
    let mut b = Builder::new();
    b.u32(count);
    for w in words {
        b.u32(w.len() as u32);
        for &byte in *w {
            b.u8(byte);
        }
    }
    b.into_bytes()
}

/// `payload` with the first occurrence of `marker` overwritten by `with`.
fn overwrite(mut payload: Vec<u8>, marker: &[u8], with: &[u8]) -> Vec<u8> {
    let at = payload.windows(marker.len()).position(|w| w == marker).expect("marker present");
    payload[at..at + with.len()].copy_from_slice(with);
    payload
}

/// Asserts that thawing `bytes` fails with a schema error on `section`,
/// from memory and from a file alike; returns the error's text.
fn schema_error_on(section: &str, bytes: Vec<u8>, what: &str) -> String {
    assert!(Base::Artifact.refuses(bytes.clone()), "{section}: {what} was accepted");
    match frozen::thaw_from_bytes(bytes) {
        Err(FrozenError::SectionSchema { section: s, what: text }) if s == section => text,
        Err(e) => panic!("{section}: {what} gave {e}, not a schema error on {section}"),
        Ok(_) => unreachable!("refused above"),
    }
}

#[test]
fn resigned_hostile_vocab_and_kb_sections_yield_typed_errors() {
    let base = artifact();
    let words: Vec<String> = world().1.vocab.words().map(str::to_owned).collect();
    let n = words.len() as u32;
    let as_bytes = |ws: &[String]| ws.iter().map(|w| w.as_bytes().to_vec()).collect::<Vec<_>>();
    let edit = |f: &dyn Fn(&mut Vec<Vec<u8>>)| {
        let mut ws = as_bytes(&words);
        f(&mut ws);
        let refs: Vec<&[u8]> = ws.iter().map(Vec::as_slice).collect();
        vocab_payload(n, &refs)
    };
    let vocab_attacks: Vec<(&str, Vec<u8>)> = vec![
        ("duplicate word", edit(&|ws| ws[2] = ws[1].clone())),
        ("invalid UTF-8", edit(&|ws| ws[3] = vec![b'a', 0xff, 0xfe])),
        ("word over 1 KiB", edit(&|ws| ws[4] = vec![b'a'; 1025])),
        ("count one past the words", {
            let refs: Vec<&[u8]> = words.iter().map(|w| w.as_bytes()).collect();
            vocab_payload(n + 1, &refs)
        }),
        ("count 2^24 in a 4-byte payload", vocab_payload(1 << 24, &[])),
        ("count u32::MAX in a 4-byte payload", vocab_payload(u32::MAX, &[])),
    ];
    for (what, payload) in vocab_attacks {
        let section = frozen::SECTION_VOCAB;
        let text = schema_error_on(section, with_section(base, section, Some(payload)), what);
        if what.starts_with("count 2^24") {
            assert!(text.contains("cannot fit"), "{what}: refused only after sizing ({text})");
        }
    }

    let kb_section = bootleg::kb::frozen::SECTION_KB;
    let kb = world().0.clone();
    let encode_with = |f: &dyn Fn(&mut KnowledgeBase)| {
        let mut kb = kb.clone();
        f(&mut kb);
        bootleg::kb::frozen::encode(&kb)
    };
    let pristine = bootleg::kb::frozen::encode(&kb);
    let marked = encode_with(&|kb| kb.aliases[0].surface = "\u{1}MARK\u{1}".into());
    let mut edge_short = pristine.clone();
    edge_short.truncate(pristine.len() - 12);
    let kb_attacks: Vec<(&str, Vec<u8>)> = vec![
        ("invalid UTF-8 in an alias surface", overwrite(marked, b"MARK", &[0xff; 4])),
        ("alias surface over 4 KiB", encode_with(&|kb| kb.aliases[0].surface = "a".repeat(4097))),
        ("type count 2^26 past the payload end", {
            let mut p = pristine.clone();
            p[..4].copy_from_slice(&(1u32 << 26).to_le_bytes());
            p
        }),
        ("edge count one past the payload end", edge_short),
        ("type count u32::MAX", {
            let mut p = pristine.clone();
            p[..4].copy_from_slice(&u32::MAX.to_le_bytes());
            p
        }),
    ];
    for (what, payload) in kb_attacks {
        let text = schema_error_on(kb_section, with_section(base, kb_section, Some(payload)), what);
        if what.contains("past the payload end") {
            assert!(text.contains("cannot fit"), "{what}: refused only after sizing ({text})");
        }
    }
}
