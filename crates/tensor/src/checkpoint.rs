//! Checksums, atomic writes, and the on-disk lifecycle of training
//! checkpoints.
//!
//! A checkpoint is a `frozen` container (`BTFZ`, CRC-32C on the header,
//! every section and the whole file) whose sections the trainer chooses:
//! model parameters through the shared parameter codec, Adam moments and
//! counters, loop state. This module owns what is not format:
//!
//! * [`crc32c`], the one checksum of every container, with its streaming
//!   form [`Crc32c`] and [`crc32c_combine`];
//! * [`atomic_write`] / [`atomic_write_with`]: temp file in the destination
//!   directory, fsync, `rename` into place, so a crash mid-write can never
//!   leave a half-written file under the final name (POSIX rename is atomic
//!   within a filesystem);
//! * [`CheckpointManager`]: keeps the last K `ckpt-<step>.btfz` files of a
//!   run and, on load, falls back across corrupt or truncated files to the
//!   newest one that still validates.

use crate::frozen::{FrozenReader, FrozenWriter};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// CRC-32C (Castagnoli), hardware-accelerated where available.
// ---------------------------------------------------------------------------

const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0x82F63B78 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // Slice-by-8 extension tables: tables[k][i] advances the CRC of byte i
    // through k additional zero bytes.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

/// Advances the raw CRC-32C register `c` (the pre-inverted state that
/// [`Crc32c`] holds) over `bytes` with the slice-by-8 table walk.
fn crc32c_sw(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// [`crc32c_sw`] on the SSE4.2 `crc32` instruction.
///
/// # Safety
///
/// The caller must ensure SSE4.2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_hw(c: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c = c as u64;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        c = _mm_crc32_u64(c, u64::from_le_bytes(ch.try_into().expect("8-byte chunk")));
    }
    let mut c = c as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    c
}

/// Bytes per lane of [`crc32c_hw_lanes`]: a piece of at least `3 * LANE`
/// bytes is checksummed as three interleaved chains.
#[cfg(target_arch = "x86_64")]
const LANE: usize = 8 << 10;

/// `x^(8·LANE) mod P`, the operator that runs a CRC register over one
/// lane of zero bytes; joins the lanes of [`crc32c_hw_lanes`].
#[cfg(target_arch = "x86_64")]
const LANE_SHIFT: u32 = zero_bytes_operator(LANE as u64);

/// [`crc32c_hw`] on three independent chains. Each `3 * lane`-byte block
/// is split into thirds `a ‖ b ‖ d`; the register runs over `a` while two
/// zero-started registers run over `b` and `d`, and the three are joined as
/// [`crc32c_combine`] joins two strings, with `shift` standing for the
/// zero-bytes operator of one lane. The `crc32` instruction takes three
/// cycles to produce its result but can start every cycle, so one chain
/// uses a third of it. Bytes after the last whole block run on one chain.
///
/// # Safety
///
/// The caller must ensure SSE4.2 is available. `lane` must be a non-zero
/// multiple of 8 and `shift` must be `x^(8·lane) mod P`; otherwise the
/// checksum is wrong or the call panics, but the behaviour is defined.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_hw_lanes(mut c: u32, bytes: &[u8], lane: usize, shift: u32) -> u32 {
    use std::arch::x86_64::_mm_crc32_u64;
    debug_assert!(lane > 0 && lane.is_multiple_of(8), "lane of {lane} bytes");
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte word"));
    let mut blocks = bytes.chunks_exact(3 * lane);
    for block in &mut blocks {
        let (a, rest) = block.split_at(lane);
        let (b, d) = rest.split_at(lane);
        let (mut x, mut y, mut z) = (u64::from(c), 0u64, 0u64);
        for ((p, q), r) in a.chunks_exact(8).zip(b.chunks_exact(8)).zip(d.chunks_exact(8)) {
            x = _mm_crc32_u64(x, word(p));
            y = _mm_crc32_u64(y, word(q));
            z = _mm_crc32_u64(z, word(r));
        }
        let ab = gf2_mul_mod(shift, x as u32) ^ y as u32;
        c = gf2_mul_mod(shift, ab) ^ z as u32;
    }
    // SAFETY: SSE4.2 is available, by this function's own contract.
    unsafe { crc32c_hw(c, blocks.remainder()) }
}

/// An incremental CRC-32C: feeding a byte string through
/// [`Crc32c::update`] in any number of pieces gives the [`Crc32c::finish`]
/// that one [`crc32c`] call over the whole string gives. Streamed readers
/// and writers use it to checksum a file they never hold whole.
#[derive(Clone, Copy, Debug)]
pub struct Crc32c(u32);

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// The state of the empty string.
    pub const fn new() -> Self {
        Self(u32::MAX)
    }

    /// Appends `bytes` to the checksummed string.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: feature detected at runtime; `LANE` is a non-zero
            // multiple of 8 and `LANE_SHIFT` is its operator.
            self.0 = unsafe { crc32c_hw_lanes(self.0, bytes, LANE, LANE_SHIFT) };
            return;
        }
        self.0 = crc32c_sw(self.0, bytes);
    }

    /// The CRC-32C of everything appended so far.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

/// CRC-32C (Castagnoli) of `bytes` — the checksum of every `frozen`
/// container (serving artifacts, checkpoints, model files), picked because
/// x86_64 executes it in hardware (SSE4.2 `crc32` instruction, ~an order of
/// magnitude faster than the table walk). The software slice-by-8 fallback
/// computes the identical function, so files are portable across machines.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(bytes);
    c.finish()
}

/// `a · b mod P` over GF(2), for the reflected Castagnoli polynomial `P`;
/// both operands in the bit order of the CRC register (bit 31 is x⁰).
/// Branch-free (masks select the terms), so the two calls that join each
/// three-lane block cost the same whatever the data.
const fn gf2_mul_mod(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut i = 0;
    while i < 32 {
        // `b` holds b·x^i here; bit 31 - i of `a` is its coefficient of x^i.
        product ^= b & ((a >> (31 - i)) & 1).wrapping_neg();
        b = (b >> 1) ^ (0x82F63B78 & (b & 1).wrapping_neg());
        i += 1;
    }
    product
}

/// `x^(8n) mod P`: the operator that runs a CRC register over `n` zero
/// bytes, by square-and-multiply.
const fn zero_bytes_operator(mut n: u64) -> u32 {
    let mut op = 1u32 << 31; // x⁰
    let mut square = 1u32 << 23; // x⁸: one byte
    while n != 0 {
        if n & 1 != 0 {
            op = gf2_mul_mod(square, op);
        }
        square = gf2_mul_mod(square, square);
        n >>= 1;
    }
    op
}

/// The CRC-32C of `a ‖ b` from `crc32c(a)`, `crc32c(b)` and `b.len()`, in
/// O(log len_b) without touching the bytes. Readers and writers that
/// checksum each section of a file get the whole-file CRC from the pieces
/// instead of a second pass over the bytes.
pub fn crc32c_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    gf2_mul_mod(zero_bytes_operator(len_b), crc_a) ^ crc_b
}

// ---------------------------------------------------------------------------
// Error helpers: every error names the file it came from.
// ---------------------------------------------------------------------------

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Wraps `err` with the path it concerns, preserving the error kind.
pub fn with_path(err: io::Error, path: &Path) -> io::Error {
    io::Error::new(err.kind(), format!("{}: {err}", path.display()))
}

// ---------------------------------------------------------------------------
// Atomic file writes.
// ---------------------------------------------------------------------------

/// Writes `bytes` to `path` atomically; see [`atomic_write_with`].
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with(path, |w| w.write_all(bytes))
}

/// Streams `write`'s output to `path` atomically: temp file in the same
/// directory, flush + fsync, then rename over the destination. On unix the
/// directory is fsynced too so the rename itself is durable. The output is
/// never held whole in memory.
pub fn atomic_write_with(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| bad(format!("{}: not a file path", path.display())))?;
    let tmp = path.with_file_name(format!(".{}.tmp", file_name.to_string_lossy()));
    let ctx = |e: io::Error| with_path(e, &tmp);

    let mut out = io::BufWriter::new(fs::File::create(&tmp).map_err(ctx)?);
    write(&mut out).map_err(ctx)?;
    let f = out.into_inner().map_err(|e| ctx(e.into_error()))?;
    f.sync_all().map_err(ctx)?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| with_path(e, path))?;
    #[cfg(unix)]
    if let Some(dir) = dir {
        // Make the rename durable; ignore filesystems that refuse dir fsync.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// A checkpoint that failed to load during fallback, and why.
#[derive(Clone, Debug)]
pub struct RejectedCheckpoint {
    /// File that failed validation.
    pub path: PathBuf,
    /// Human-readable reason (checksum mismatch, truncation, ...).
    pub reason: String,
}

/// Result of [`CheckpointManager::load_latest_valid`].
pub struct LoadedCheckpoint {
    /// Step stamp from the file name.
    pub step: u64,
    /// The newest checkpoint that validated, ready for section access. It
    /// keeps the file open; each section read re-checks its CRC.
    pub reader: FrozenReader,
    /// File it was loaded from.
    pub path: PathBuf,
    /// Newer checkpoints that were rejected as corrupt, newest first.
    pub rejected: Vec<RejectedCheckpoint>,
}

/// Manages a directory of `ckpt-<step>.btfz` files: atomic saves, last-K
/// retention, and corrupt-aware loading.
#[derive(Clone, Debug)]
pub struct CheckpointManager {
    dir: PathBuf,
    keep_last: usize,
}

impl CheckpointManager {
    /// Opens (creating if needed) a checkpoint directory. `keep_last` is
    /// clamped to at least 1.
    pub fn new(dir: impl Into<PathBuf>, keep_last: usize) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| with_path(e, &dir))?;
        Ok(Self { dir, keep_last: keep_last.max(1) })
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_for_step(&self, step: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{step:012}.btfz"))
    }

    /// Writes `checkpoint` atomically under the `step` stamp and prunes old
    /// files beyond the retention window. Returns the final path.
    pub fn save(&self, step: u64, checkpoint: &FrozenWriter) -> io::Result<PathBuf> {
        let path = self.file_for_step(step);
        atomic_write_with(&path, |w| checkpoint.write_to(w))?;
        self.prune()?;
        Ok(path)
    }

    /// All checkpoint files present, sorted ascending by step.
    pub fn list(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir).map_err(|e| with_path(e, &self.dir))? {
            let entry = entry.map_err(|e| with_path(e, &self.dir))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(step) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".btfz"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                out.push((step, entry.path()));
            }
        }
        out.sort_by_key(|(step, _)| *step);
        Ok(out)
    }

    fn prune(&self) -> io::Result<()> {
        let files = self.list()?;
        if files.len() > self.keep_last {
            for (_, path) in &files[..files.len() - self.keep_last] {
                fs::remove_file(path).map_err(|e| with_path(e, path))?;
            }
        }
        Ok(())
    }

    /// Loads the newest checkpoint that passes container validation (every
    /// `FrozenReader` check, all CRC-32C layers), recording every newer
    /// corrupt file it had to skip. Returns `Ok(None)` if the directory holds
    /// no valid checkpoint at all.
    pub fn load_latest_valid(&self) -> io::Result<Option<LoadedCheckpoint>> {
        let mut rejected = Vec::new();
        for (step, path) in self.list()?.into_iter().rev() {
            match FrozenReader::load(&path) {
                Ok(reader) => return Ok(Some(LoadedCheckpoint { step, reader, path, rejected })),
                Err(e) => {
                    let reason = format!("{}: {e}", path.display());
                    rejected.push(RejectedCheckpoint { path, reason });
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::{
        add_params, restore_params, Builder, Cursor, SECTION_PARAM_F32, SECTION_PARAM_MANIFEST,
    };
    use crate::{ParamStore, Tensor};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bootleg_ckpt_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("tmpdir");
        dir
    }

    fn store() -> ParamStore {
        let mut ps = ParamStore::new();
        ps.add("w", Tensor::new(vec![2, 3], (0..6).map(|i| i as f32 * 0.5).collect()));
        ps.add("s", Tensor::scalar(7.0));
        ps
    }

    fn u64_section(vals: &[u64]) -> Vec<u8> {
        let mut b = Builder::new();
        b.u64s(vals);
        b.into_bytes()
    }

    /// A checkpoint-shaped container: parameters plus a counter section.
    fn sample(step: u64) -> FrozenWriter {
        let mut w = FrozenWriter::new();
        add_params(&mut w, &store());
        w.add("STATE", u64_section(&[step, 8, 9]));
        w
    }

    #[test]
    fn crc32c_matches_known_vector() {
        // CRC-32C (Castagnoli) of "123456789" is 0xE3069283.
        assert_eq!(crc32c(b"123456789"), 0xE3069283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn crc32c_hw_and_sw_agree() {
        // The dispatcher may pick either implementation depending on the
        // host; an artifact written on one machine must verify on any other,
        // so the two paths have to agree on every length and alignment.
        let data: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        for start in [0usize, 1, 3, 7] {
            for len in [0usize, 1, 2, 7, 8, 9, 63, 64, 65, 1023, 4000] {
                let slice = &data[start..start + len];
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("sse4.2") {
                    // SAFETY: feature detected at runtime.
                    let hw = unsafe { crc32c_hw(u32::MAX, slice) };
                    assert_eq!(hw, crc32c_sw(u32::MAX, slice), "start {start} len {len}");
                }
                assert_eq!(crc32c(slice), !crc32c_sw(u32::MAX, slice), "start {start} len {len}");
            }
        }
    }

    /// Every length from 0 through `blocks` three-lane blocks plus 16
    /// bytes, from an aligned and two unaligned starts, through the lane
    /// path with lanes of `lane` bytes; the reference grows a byte at a time.
    #[cfg(target_arch = "x86_64")]
    fn check_lanes_at_every_length(lane: usize, blocks: usize) {
        let max = blocks * 3 * lane + 16;
        let data: Vec<u8> =
            (0..max as u32 + 8).map(|i| (i.wrapping_mul(2654435761) >> 11) as u8).collect();
        let shift = zero_bytes_operator(lane as u64);
        for start in [0usize, 1, 5] {
            let mut reference = u32::MAX;
            for len in 0..=max {
                if len > 0 {
                    reference = crc32c_sw(reference, &data[start + len - 1..start + len]);
                }
                let piece = &data[start..start + len];
                // SAFETY: the caller checked SSE4.2; `shift` is the
                // operator of `lane`, a non-zero multiple of 8.
                let got = unsafe { crc32c_hw_lanes(u32::MAX, piece, lane, shift) };
                assert_eq!(got, reference, "lane {lane} start {start} len {len}");
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn crc32c_lanes_match_sw_at_every_length() {
        if !std::arch::is_x86_feature_detected!("sse4.2") {
            return;
        }
        assert_eq!(LANE_SHIFT, zero_bytes_operator(LANE as u64));
        check_lanes_at_every_length(LANE, 1);
        // Small lanes reach several whole blocks and every block boundary.
        for lane in [8, 16, 24] {
            check_lanes_at_every_length(lane, 4);
        }
    }

    #[test]
    fn crc32c_update_splits_match_sw() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let data: Vec<u8> = (0..7 * 3 * (8 << 10) + 16).map(|_| rng.gen::<u32>() as u8).collect();
        for _ in 0..64 {
            let len = rng.gen_range(0..=data.len());
            let start = rng.gen_range(0..=data.len() - len);
            let whole = &data[start..start + len];
            let mut crc = Crc32c::new();
            let mut rest = whole;
            while !rest.is_empty() {
                // Mostly small pieces, now and then one past a whole block.
                let cap = if rng.gen_range(0..4) == 0 { rest.len() } else { 100 };
                let (piece, tail) = rest.split_at(rng.gen_range(0..=cap.min(rest.len())));
                crc.update(piece);
                rest = tail;
            }
            assert_eq!(crc.finish(), !crc32c_sw(u32::MAX, whole), "start {start} len {len}");
        }
    }

    #[test]
    fn byte_roundtrip_is_identity() {
        let bytes = sample(42).to_bytes();
        let r = FrozenReader::from_bytes(bytes.clone()).expect("parse");
        let mut again = FrozenWriter::new();
        for s in r.sections() {
            again.add(&s.id, r.require(&s.id).expect("listed section"));
        }
        assert_eq!(bytes, again.to_bytes(), "save -> load -> save must be byte-identical");
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample(42).to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(FrozenReader::from_bytes(bad).is_err(), "flip at byte {i} must be rejected");
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = sample(42).to_bytes();
        for len in 0..bytes.len() {
            assert!(
                FrozenReader::from_bytes(bytes[..len].to_vec()).is_err(),
                "truncation to {len} bytes must be rejected"
            );
        }
    }

    #[test]
    fn atomic_save_leaves_no_temp_files() {
        let dir = tmpdir("atomic");
        let path = dir.join("c.btfz");
        sample(42).save(&path).expect("save");
        let names: Vec<String> = fs::read_dir(&dir)
            .expect("read_dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["c.btfz".to_string()]);
        assert_eq!(fs::read(&path).expect("read"), sample(42).to_bytes());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tensor_section_roundtrip() {
        let reader = FrozenReader::from_bytes(sample(1).to_bytes()).expect("parse");
        let mut dst = ParamStore::new();
        dst.add("w", Tensor::zeros(&[2, 3]));
        dst.add("s", Tensor::scalar(0.0));
        restore_params(&reader, &mut dst).expect("restore");
        for ((_, a), (_, b)) in store().iter().zip(dst.iter()) {
            assert_eq!(a.data, b.data);
        }
        // A value blob one float short is a typed error, not a short copy.
        let mut w = FrozenWriter::new();
        w.add(SECTION_PARAM_MANIFEST, reader.require(SECTION_PARAM_MANIFEST).unwrap());
        let raw = reader.require(SECTION_PARAM_F32).unwrap();
        w.add(SECTION_PARAM_F32, raw[..raw.len() - 4].to_vec());
        let short = FrozenReader::from_bytes(w.to_bytes()).expect("container is valid");
        assert!(restore_params(&short, &mut dst).is_err());
    }

    #[test]
    fn u64_section_roundtrip() {
        let vals = vec![0, 1, u64::MAX, 123456789];
        let bytes = u64_section(&vals);
        let mut c = Cursor::new("t", &bytes);
        assert_eq!(c.u64s(16).expect("decode"), vals);
        c.finish().expect("fully consumed");
        assert!(Cursor::new("t", &bytes[..bytes.len() - 1]).u64s(16).is_err());
        assert!(Cursor::new("t", &bytes).u64s(3).is_err(), "count above the bound");
    }

    #[test]
    fn manager_retains_last_k_and_falls_back_over_corruption() {
        let dir = tmpdir("mgr");
        let mgr = CheckpointManager::new(&dir, 3).expect("mgr");
        for step in [10, 20, 30, 40, 50] {
            mgr.save(step, &sample(step)).expect("save");
        }
        // Files of another format are not checkpoints of this manager.
        fs::write(dir.join("ckpt-000000000099.btcp"), b"old format").expect("write");
        let files = mgr.list().expect("list");
        assert_eq!(files.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![30, 40, 50]);

        // Corrupt the newest (truncate) and the next (bit flip).
        let p50 = files[2].1.clone();
        let b = fs::read(&p50).expect("read");
        fs::write(&p50, &b[..b.len() / 2]).expect("truncate");
        let p40 = files[1].1.clone();
        let mut b = fs::read(&p40).expect("read");
        let mid = b.len() / 2;
        b[mid] ^= 0xFF;
        fs::write(&p40, &b).expect("flip");

        let loaded = mgr.load_latest_valid().expect("io").expect("some");
        assert_eq!(loaded.step, 30);
        assert_eq!(loaded.rejected.len(), 2);
        let state = loaded.reader.require("STATE").expect("section");
        let mut c = Cursor::new("STATE", &state);
        assert_eq!(c.u64s(3).expect("u64s"), vec![30, 8, 9]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manager_empty_dir_loads_none() {
        let dir = tmpdir("empty");
        let mgr = CheckpointManager::new(&dir, 2).expect("mgr");
        assert!(mgr.load_latest_valid().expect("io").is_none());
        fs::remove_dir_all(&dir).ok();
    }
}
