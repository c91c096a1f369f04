//! Property tests for checkpoint containers: serialization is a bijection
//! on valid byte strings, and every corruption is detected.

use bootleg_tensor::checkpoint::{
    atomic_write, crc32c, crc32c_combine, CheckpointManager, Crc32c,
};
use bootleg_tensor::frozen::{
    add_params, restore_params, Builder, Cursor, FrozenError, FrozenReader, FrozenWriter,
};
use bootleg_tensor::{ParamStore, Tensor};
use proptest::prelude::*;

/// A container of `section-<tag>` sections; a repeated tag keeps its last
/// payload.
fn checkpoint_from(sections: &[(u8, Vec<u8>)]) -> FrozenWriter {
    let mut kept: Vec<(String, Vec<u8>)> = Vec::new();
    for (tag, payload) in sections {
        let id = format!("s-{tag}");
        kept.retain(|(k, _)| *k != id);
        kept.push((id, payload.clone()));
    }
    let mut w = FrozenWriter::new();
    for (id, payload) in kept {
        w.add(&id, payload);
    }
    w
}

fn single(payload: Vec<u8>) -> Vec<u8> {
    let mut w = FrozenWriter::new();
    w.add("data", payload);
    w.to_bytes()
}

fn params_bytes(store: &ParamStore) -> Vec<u8> {
    let mut w = FrozenWriter::new();
    add_params(&mut w, store);
    w.to_bytes()
}

fn restore(store: &mut ParamStore, bytes: &[u8]) -> Result<(), FrozenError> {
    restore_params(&FrozenReader::from_bytes(bytes.to_vec())?, store)
}

proptest! {
    #[test]
    fn crc32c_of_any_chunking_equals_one_shot(
        bytes in proptest::collection::vec(0u8..=255, 0..600),
        cuts in proptest::collection::vec(0.0f64..1.0, 0..6),
    ) {
        // Split the buffer at arbitrary (possibly repeated, possibly empty)
        // points and feed the pieces in order.
        let mut at: Vec<usize> = cuts.iter().map(|f| (bytes.len() as f64 * f) as usize).collect();
        at.sort_unstable();
        let mut crc = Crc32c::new();
        let mut start = 0;
        for &end in at.iter().chain(std::iter::once(&bytes.len())) {
            crc.update(&bytes[start..end]);
            start = end;
        }
        prop_assert_eq!(crc.finish(), crc32c(&bytes));
    }

    #[test]
    fn crc32c_combine_equals_crc_of_concatenation(
        a in proptest::collection::vec(0u8..=255, 0..300),
        b in proptest::collection::vec(0u8..=255, 0..300),
    ) {
        let whole = [a.as_slice(), b.as_slice()].concat();
        prop_assert_eq!(crc32c_combine(crc32c(&a), crc32c(&b), b.len() as u64), crc32c(&whole));
    }

    #[test]
    fn crc32c_combine_spans_long_zero_runs(
        a in proptest::collection::vec(0u8..=255, 0..64),
        zeros in 0usize..(1 << 20),
    ) {
        // Lengths far past the operand sizes above exercise every bit of
        // the zero-run operator's square-and-multiply.
        let run = vec![0u8; zeros];
        let whole = [a.as_slice(), run.as_slice()].concat();
        prop_assert_eq!(crc32c_combine(crc32c(&a), crc32c(&run), zeros as u64), crc32c(&whole));
    }

    #[test]
    fn save_load_save_is_byte_identical(
        sections in proptest::collection::vec(
            (0u8..32, proptest::collection::vec(0u8..=255, 0..200)),
            0..8,
        ),
    ) {
        let bytes = checkpoint_from(&sections).to_bytes();
        let reloaded = FrozenReader::from_bytes(bytes.clone()).expect("valid bytes parse");
        // The round-tripped container must re-serialize to the exact same
        // bytes: save -> load -> save is the identity on the file.
        let mut again = FrozenWriter::new();
        for s in reloaded.sections() {
            again.add(&s.id, reloaded.require(&s.id).expect("listed section"));
        }
        prop_assert_eq!(again.to_bytes(), bytes);
    }

    #[test]
    fn corrupt_byte_is_rejected(
        payload in proptest::collection::vec(0u8..=255, 1..300),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = single(payload);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        prop_assert!(
            FrozenReader::from_bytes(bytes).is_err(),
            "flipping byte {} must fail a checksum", pos
        );
    }

    #[test]
    fn truncated_file_is_rejected(
        payload in proptest::collection::vec(0u8..=255, 0..300),
        keep_frac in 0.0f64..1.0,
    ) {
        let bytes = single(payload);
        let keep = ((bytes.len() - 1) as f64 * keep_frac) as usize;
        prop_assert!(
            FrozenReader::from_bytes(bytes[..keep].to_vec()).is_err(),
            "truncating {} -> {} bytes must be rejected", bytes.len(), keep
        );
    }

    #[test]
    fn tensor_payload_roundtrips(
        rows in 1usize..6,
        cols in 1usize..6,
        scale in -100.0f32..100.0,
    ) {
        let t = Tensor::new(
            vec![rows, cols],
            (0..rows * cols).map(|i| i as f32 * scale).collect(),
        );
        let mut store = ParamStore::new();
        store.add("t", t.clone());
        let bytes = params_bytes(&store);
        let mut back = ParamStore::new();
        back.add("t", Tensor::zeros(&[rows, cols]));
        restore(&mut back, &bytes).expect("restore");
        prop_assert_eq!(&back.iter().next().expect("one param").1.data, &t);
        prop_assert_eq!(params_bytes(&back), bytes);
    }

    #[test]
    fn u64_payload_roundtrips(values in proptest::collection::vec(0u64..u64::MAX, 0..64)) {
        let mut b = Builder::new();
        b.u64s(&values);
        let bytes = b.into_bytes();
        let mut c = Cursor::new("u64s", &bytes);
        prop_assert_eq!(c.u64s(64).expect("decode"), values);
        prop_assert!(c.finish().is_ok());
    }
}

#[test]
fn corrupt_crc_trailer_is_rejected() {
    let mut bytes = single(vec![7u8; 48]);
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    let err = FrozenReader::from_bytes(bytes).err().expect("bad trailer CRC must be rejected");
    assert!(err.to_string().contains("checksum"), "{err}");
}

#[test]
fn wrong_version_is_rejected_even_with_valid_crc() {
    let mut bytes = single(vec![7u8; 48]);
    // Patch the version field and re-checksum (header CRC with its own
    // field zeroed, then the trailer) so the failure exercises the version
    // check itself, not the CRC guards.
    bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
    let table_end = bootleg_tensor::frozen::HEADER_LEN + bootleg_tensor::frozen::SECTION_ENTRY_LEN;
    bytes[32..36].copy_from_slice(&[0; 4]);
    let hcrc = crc32c(&bytes[..table_end]);
    bytes[32..36].copy_from_slice(&hcrc.to_le_bytes());
    let body = bytes.len() - 4;
    let crc = crc32c(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    let err = FrozenReader::from_bytes(bytes).err().expect("future version must be rejected");
    assert!(err.to_string().contains("version"), "{err}");
}

#[test]
fn param_store_section_roundtrips_bit_exactly() {
    let mut store = ParamStore::new();
    store.add("w1", Tensor::new(vec![3, 4], (0..12).map(|i| i as f32 * 0.37 - 2.0).collect()));
    store.add("b1", Tensor::new(vec![4], vec![f32::MIN_POSITIVE, -0.0, 1.5e-30, 7.25]));
    let bytes = params_bytes(&store);

    // A freshly built store with matching names/shapes but different values.
    let mut other = ParamStore::new();
    other.add("w1", Tensor::new(vec![3, 4], vec![9.0; 12]));
    other.add("b1", Tensor::new(vec![4], vec![9.0; 4]));
    restore(&mut other, &bytes).expect("decode into matching store");
    for ((_, a), (_, b)) in store.iter().zip(other.iter()) {
        assert_eq!(a.name, b.name);
        let bits_a: Vec<u32> = a.data.data().iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u32> = b.data.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "param {} must round-trip bit-exactly", a.name);
    }
    // And re-encoding the restored store reproduces the bytes.
    assert_eq!(params_bytes(&other), bytes);

    // A shape mismatch is a typed error, not silent acceptance, and leaves
    // the receiving store untouched.
    let mut wrong = ParamStore::new();
    wrong.add("w1", Tensor::new(vec![4, 3], vec![0.0; 12]));
    wrong.add("b1", Tensor::new(vec![4], vec![0.0; 4]));
    assert!(restore(&mut wrong, &bytes).is_err());
    assert!(wrong.iter().all(|(_, p)| p.data.data().iter().all(|&v| v == 0.0)));
}

#[test]
fn atomic_write_replaces_existing_file_completely() {
    let dir = std::env::temp_dir().join(format!("bootleg_ckpt_props_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("f.bin");
    atomic_write(&path, &[1u8; 100]).expect("first write");
    atomic_write(&path, &[2u8; 10]).expect("second write");
    assert_eq!(std::fs::read(&path).expect("read"), vec![2u8; 10]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manager_survives_all_checkpoints_corrupt() {
    let dir = std::env::temp_dir().join(format!("bootleg_ckpt_allbad_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mgr = CheckpointManager::new(&dir, 4).expect("mgr");
    for step in [1u64, 2, 3] {
        let mut c = FrozenWriter::new();
        c.add("x", vec![0u8; 64]);
        let path = mgr.save(step, &c).expect("save");
        std::fs::write(&path, b"shredded").expect("shred");
    }
    let loaded = mgr.load_latest_valid().expect("io");
    assert!(loaded.is_none(), "no valid checkpoint must mean None, not a panic");
    std::fs::remove_dir_all(&dir).ok();
}
