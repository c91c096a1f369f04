//! Frozen serving artifact container: a versioned, CRC-guarded, section-table
//! binary format whose payloads are 64-byte aligned so f32 matrices can be
//! loaded with a single bulk copy instead of a per-element parse loop.
//!
//! This module owns the *container* — the header, the section table, the
//! integrity checks, the zero-copy float loads — plus the one parameter
//! codec ([`add_params`] / [`restore_params`]) shared by the serving
//! artifact, training checkpoints and `BootlegModel::save/load`. The layers
//! above (`kb::frozen`, `core::frozen`, the trainer) decide what else goes
//! in each file.
//!
//! Binary layout (little-endian):
//!
//! ```text
//! offset  0: magic "BTFZ" | version u32 | flags u32 | section_count u32
//! offset 16: payload_align u32 | reserved u32 | total_len u64
//! offset 32: header_crc u32 | header_pad u32
//! offset 40: section table, section_count entries of 32 bytes each:
//!              id [u8;8] (ASCII, NUL-padded) | off u64 | len u64
//!              | crc u32 | pad u32
//! then     : payloads, each aligned to payload_align, gaps zero-filled
//! trailer  : crc32c u32 over every preceding byte
//! ```
//!
//! Integrity model — every byte of the file is covered by at least one check:
//!
//! * the **trailer CRC** covers the whole file, so *any* bit flip is caught;
//! * the **header CRC** covers the header and section table (with the CRC
//!   field itself zeroed), so structural fields are independently guarded;
//! * **per-section CRCs** localise corruption to a named section;
//! * alignment gaps must be **zero**, offsets must be in-bounds, aligned,
//!   strictly increasing, and non-overlapping.
//!
//! The reader is hardened against untrusted input: every length, offset,
//! section id, and checksum is validated with a typed [`FrozenError`] before
//! any slice is taken. It never panics and never reads out of bounds.

use crate::arena;
use crate::checkpoint::{atomic_write, crc32c};
use crate::param::{ParamId, ParamStore};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;

/// File magic: "BTFZ" (Bootleg Frozen).
pub const MAGIC: &[u8; 4] = b"BTFZ";
/// Container format version.
pub const VERSION: u32 = 1;
/// Payload alignment. 64 bytes = one cache line; also satisfies any f32/u64
/// alignment need for reinterpreting payload bytes in place.
pub const PAYLOAD_ALIGN: usize = 64;
/// Fixed header size in bytes (before the section table).
pub const HEADER_LEN: usize = 40;
/// Bytes per section-table entry.
pub const SECTION_ENTRY_LEN: usize = 32;
/// Corruption guard: refuse files claiming more sections than this.
pub const MAX_SECTIONS: usize = 256;
/// Section id of the parameter manifest: per parameter its name, shape, and
/// float offset + length into [`SECTION_PARAM_F32`].
pub const SECTION_PARAM_MANIFEST: &str = "PARAMNAM";
/// Section id of all parameter values, one concatenated little-endian blob
/// in store order.
pub const SECTION_PARAM_F32: &str = "PARAMF32";
/// Corruption guard: refuse manifests claiming more parameters than this.
const MAX_PARAMS: usize = 1 << 12;

// ---------------------------------------------------------------------------
// Typed errors.
// ---------------------------------------------------------------------------

/// Every way an artifact can fail to load. The loader returns these instead
/// of panicking; fuzz tests assert that hostile bytes always land here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrozenError {
    /// The file does not start with the `BTFZ` magic.
    BadMagic,
    /// The container version is not one this reader understands.
    UnsupportedVersion { found: u32 },
    /// The buffer is shorter than a length field claims.
    Truncated { needed: usize, have: usize },
    /// A CRC check failed; `what` names the region ("file", "header", or a
    /// section id).
    ChecksumMismatch { what: String },
    /// A structural invariant is violated (bad flags, non-zero padding,
    /// misordered or overlapping sections, non-ASCII ids, ...).
    Malformed { what: String },
    /// A section's offset/length points outside the payload region.
    OutOfBounds { section: String },
    /// The same section id appears twice in the table.
    DuplicateSection { section: String },
    /// A required section is absent.
    SectionMissing { section: String },
    /// A section's payload has the wrong size or content for its schema.
    SectionSchema { section: String, what: String },
    /// The artifact is valid but encodes something this build can't serve
    /// (e.g. a model variant that is deliberately not frozen).
    Unsupported { what: String },
    /// Underlying I/O failure (kind + message; `io::Error` isn't `Clone`).
    Io { kind: io::ErrorKind, msg: String },
}

impl fmt::Display for FrozenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrozenError::BadMagic => write!(f, "not a frozen artifact (bad magic)"),
            FrozenError::UnsupportedVersion { found } => {
                write!(f, "unsupported artifact version {found} (reader supports {VERSION})")
            }
            FrozenError::Truncated { needed, have } => {
                write!(f, "truncated artifact: need {needed} bytes, have {have}")
            }
            FrozenError::ChecksumMismatch { what } => write!(f, "checksum mismatch in {what}"),
            FrozenError::Malformed { what } => write!(f, "malformed artifact: {what}"),
            FrozenError::OutOfBounds { section } => {
                write!(f, "section {section:?} points outside the file")
            }
            FrozenError::DuplicateSection { section } => {
                write!(f, "duplicate section {section:?}")
            }
            FrozenError::SectionMissing { section } => write!(f, "missing section {section:?}"),
            FrozenError::SectionSchema { section, what } => {
                write!(f, "section {section:?}: {what}")
            }
            FrozenError::Unsupported { what } => write!(f, "cannot freeze/thaw: {what}"),
            FrozenError::Io { kind, msg } => write!(f, "i/o error ({kind:?}): {msg}"),
        }
    }
}

impl std::error::Error for FrozenError {}

impl From<io::Error> for FrozenError {
    fn from(e: io::Error) -> Self {
        FrozenError::Io { kind: e.kind(), msg: e.to_string() }
    }
}

/// For callers that report through `io::Result` (training checkpoints,
/// `BootlegModel::save/load`): I/O failures keep their kind, everything else
/// is `InvalidData`.
impl From<FrozenError> for io::Error {
    fn from(e: FrozenError) -> Self {
        let kind = match &e {
            FrozenError::Io { kind, .. } => *kind,
            _ => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, e.to_string())
    }
}

impl FrozenError {
    /// A [`FrozenError::SectionSchema`] for `section`.
    pub fn schema(section: &str, what: impl Into<String>) -> Self {
        FrozenError::SectionSchema { section: section.to_string(), what: what.into() }
    }
}

fn malformed(what: impl Into<String>) -> FrozenError {
    FrozenError::Malformed { what: what.into() }
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Accumulates named sections and serialises them into one artifact.
///
/// Section order is preserved; ids must be 1..=8 ASCII bytes and unique.
#[derive(Default)]
pub struct FrozenWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl FrozenWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a section. Panics on writer misuse (bad id, duplicate): these are
    /// programmer errors on the *write* path, not untrusted input.
    pub fn add(&mut self, id: &str, payload: Vec<u8>) -> &mut Self {
        assert!(
            !id.is_empty() && id.len() <= 8 && id.bytes().all(|b| b.is_ascii_graphic()),
            "section id must be 1..=8 printable ASCII bytes, got {id:?}"
        );
        assert!(self.sections.iter().all(|(s, _)| s != id), "duplicate section id {id:?}");
        self.sections.push((id.to_string(), payload));
        self
    }

    /// Serialises the artifact to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(self.sections.len() <= MAX_SECTIONS, "too many sections");
        let table_len = self.sections.len() * SECTION_ENTRY_LEN;
        let payload_start = HEADER_LEN + table_len;

        // Lay out payloads first so the table can point at them.
        let mut offsets = Vec::with_capacity(self.sections.len());
        let mut cursor = payload_start;
        for (_, payload) in &self.sections {
            cursor = align_up(cursor, PAYLOAD_ALIGN);
            offsets.push(cursor);
            cursor += payload.len();
        }
        let total_len = cursor + 4; // + trailer CRC

        let mut buf = vec![0u8; cursor];
        buf[0..4].copy_from_slice(MAGIC);
        buf[4..8].copy_from_slice(&VERSION.to_le_bytes());
        buf[8..12].copy_from_slice(&0u32.to_le_bytes()); // flags
        buf[12..16].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());
        buf[16..20].copy_from_slice(&(PAYLOAD_ALIGN as u32).to_le_bytes());
        buf[20..24].copy_from_slice(&0u32.to_le_bytes()); // reserved
        buf[24..32].copy_from_slice(&(total_len as u64).to_le_bytes());
        // header_crc at [32..36] is filled below; header_pad [36..40] stays 0.

        for (i, (id, payload)) in self.sections.iter().enumerate() {
            let e = HEADER_LEN + i * SECTION_ENTRY_LEN;
            buf[e..e + id.len()].copy_from_slice(id.as_bytes());
            buf[e + 8..e + 16].copy_from_slice(&(offsets[i] as u64).to_le_bytes());
            buf[e + 16..e + 24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
            buf[e + 24..e + 28].copy_from_slice(&crc32c(payload).to_le_bytes());
            // entry pad [e+28..e+32] stays 0.
            buf[offsets[i]..offsets[i] + payload.len()].copy_from_slice(payload);
        }

        // Header CRC covers header + table with the CRC field itself zeroed
        // (it is zero right now).
        let hcrc = crc32c(&buf[..payload_start]);
        buf[32..36].copy_from_slice(&hcrc.to_le_bytes());

        let fcrc = crc32c(&buf);
        buf.extend_from_slice(&fcrc.to_le_bytes());
        debug_assert_eq!(buf.len(), total_len);
        buf
    }

    /// Writes the artifact to `path` atomically (temp file + rename).
    pub fn save(&self, path: &Path) -> Result<(), FrozenError> {
        atomic_write(path, &self.to_bytes())?;
        Ok(())
    }
}

fn align_up(x: usize, a: usize) -> usize {
    x.div_ceil(a) * a
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

/// One validated section-table entry.
#[derive(Debug, Clone)]
pub struct SectionInfo {
    pub id: String,
    pub off: usize,
    pub len: usize,
    pub crc: u32,
}

/// A fully validated artifact: owns the file bytes, hands out payload slices.
///
/// Construction performs *all* integrity checks up front (magic, version,
/// lengths, alignment, ordering, padding, all CRCs); after that, section
/// access is infallible slicing.
pub struct FrozenReader {
    buf: Vec<u8>,
    sections: Vec<SectionInfo>,
}

impl FrozenReader {
    /// Reads and validates an artifact file.
    pub fn load(path: &Path) -> Result<Self, FrozenError> {
        let buf = std::fs::read(path)?;
        Self::from_bytes(buf)
    }

    /// Validates an artifact held in memory.
    pub fn from_bytes(buf: Vec<u8>) -> Result<Self, FrozenError> {
        let sections = validate(&buf)?;
        Ok(Self { buf, sections })
    }

    /// All sections, in file order.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// Total artifact size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Payload bytes of a section, if present.
    pub fn section(&self, id: &str) -> Option<&[u8]> {
        let s = self.sections.iter().find(|s| s.id == id)?;
        Some(&self.buf[s.off..s.off + s.len])
    }

    /// Payload bytes of a required section.
    pub fn require(&self, id: &str) -> Result<&[u8], FrozenError> {
        self.section(id).ok_or_else(|| FrozenError::SectionMissing { section: id.to_string() })
    }

    /// Loads a required section as f32s with one bulk copy into an
    /// arena-backed buffer — no per-element parse loop. Payloads are 64-byte
    /// aligned in the file, so on little-endian targets the bytes *are* the
    /// floats and a single `memcpy` suffices.
    pub fn f32_section(&self, id: &str) -> Result<Vec<f32>, FrozenError> {
        let bytes = self.require(id)?;
        if bytes.len() % 4 != 0 {
            return Err(FrozenError::SectionSchema {
                section: id.to_string(),
                what: format!("f32 payload length {} not a multiple of 4", bytes.len()),
            });
        }
        Ok(bulk_f32(bytes))
    }
}

/// Bulk-copies little-endian f32 bytes into an arena-backed `Vec<f32>`.
pub fn bulk_f32(bytes: &[u8]) -> Vec<f32> {
    let n = bytes.len() / 4;
    let mut out = arena::take(n);
    debug_assert_eq!(out.len(), n);
    #[cfg(target_endian = "little")]
    {
        // Safety: `out` holds exactly `n` initialised f32s (= bytes.len()
        // bytes); f32 has no invalid bit patterns; the regions are distinct
        // allocations so they cannot overlap.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr() as *mut u8, n * 4);
        }
    }
    #[cfg(not(target_endian = "little"))]
    for (i, c) in bytes.chunks_exact(4).enumerate() {
        out[i] = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
    out
}

/// Bulk-copies little-endian f32 bytes into an existing `&mut [f32]` —
/// the in-place dual of [`bulk_f32`] for restore paths that already own
/// their destination buffers (one memcpy, no intermediate allocation).
/// Panics if the lengths disagree; callers bounds-check first.
pub fn copy_f32(bytes: &[u8], out: &mut [f32]) {
    assert_eq!(bytes.len(), out.len() * 4, "copy_f32 length mismatch");
    #[cfg(target_endian = "little")]
    {
        // Safety: equal byte counts just asserted; f32 has no invalid bit
        // patterns; `&[u8]` and `&mut [f32]` cannot legally alias.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr() as *mut u8, bytes.len());
        }
    }
    #[cfg(not(target_endian = "little"))]
    for (o, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *o = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
}

/// Encodes f32s as little-endian bytes (the write-side dual of [`bulk_f32`]).
pub fn f32_bytes(vals: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    push_f32_bytes(&mut out, vals);
    out
}

/// Appends f32s to `out` as little-endian bytes, for blobs that concatenate
/// several tensors (parameter values, optimizer moments).
pub fn push_f32_bytes(out: &mut Vec<u8>, vals: &[f32]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: f32 is four initialised bytes with no padding, so the
        // `vals.len() * 4` bytes behind `vals` are a valid `[u8]` for as
        // long as `vals` is borrowed.
        let bytes =
            unsafe { std::slice::from_raw_parts(vals.as_ptr() as *const u8, vals.len() * 4) };
        out.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// The parameter codec: `PARAMNAM` manifest + `PARAMF32` value blob.
// ---------------------------------------------------------------------------

/// Adds the parameter manifest and value sections for every parameter of
/// `store`, in store order (construction order, deterministic for a given
/// model config).
pub fn add_params(w: &mut FrozenWriter, store: &ParamStore) {
    let mut manifest = Builder::new();
    let mut values = Vec::with_capacity(store.num_scalars(false) * 4);
    manifest.u32(store.len() as u32);
    for (_, p) in store.iter() {
        manifest.string(&p.name);
        manifest.u32s(&p.data.shape().iter().map(|&d| d as u32).collect::<Vec<_>>());
        manifest.u64((values.len() / 4) as u64);
        manifest.u64(p.data.numel() as u64);
        push_f32_bytes(&mut values, p.data.data());
    }
    w.add(SECTION_PARAM_MANIFEST, manifest.into_bytes());
    w.add(SECTION_PARAM_F32, values);
}

/// Overwrites every parameter of `store` from the sections written by
/// [`add_params`], one bulk copy per tensor. Every manifest entry must name
/// a parameter of `store` with the same shape, and every parameter must be
/// covered exactly once. The whole manifest is validated before the first
/// value is written, so a failed restore leaves `store` untouched. Writes go
/// through `get_mut`, bumping the store version so weight-derived caches
/// (the entity-payload plane) rebuild.
pub fn restore_params(reader: &FrozenReader, store: &mut ParamStore) -> Result<(), FrozenError> {
    let raw = reader.require(SECTION_PARAM_F32)?;
    if raw.len() % 4 != 0 {
        return Err(FrozenError::schema(
            SECTION_PARAM_F32,
            format!("{} bytes is not a whole number of f32s", raw.len()),
        ));
    }
    let total_floats = (raw.len() / 4) as u64;
    let mut c = Cursor::new(SECTION_PARAM_MANIFEST, reader.require(SECTION_PARAM_MANIFEST)?);
    let n = c.count(MAX_PARAMS)?;
    if n != store.len() {
        return Err(FrozenError::schema(
            SECTION_PARAM_MANIFEST,
            format!("{n} stored parameters, model has {}", store.len()),
        ));
    }
    let by_name: HashMap<&str, ParamId> =
        store.iter().map(|(id, p)| (p.name.as_str(), id)).collect();
    // (parameter, byte offset of its values in `raw`), checked in full
    // before anything is copied.
    let mut plan = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for _ in 0..n {
        let name = c.string(1 << 10)?;
        let shape = c.u32s(8)?;
        let off = c.u64()?;
        let len = c.u64()?;
        let id = *by_name.get(name.as_str()).ok_or_else(|| {
            FrozenError::schema(SECTION_PARAM_MANIFEST, format!("unknown parameter {name:?}"))
        })?;
        if std::mem::replace(&mut seen[id.index()], true) {
            let what = format!("parameter {name:?} repeated");
            return Err(FrozenError::schema(SECTION_PARAM_MANIFEST, what));
        }
        let live = &store.get(id).data;
        if !live.shape().iter().map(|&d| d as u64).eq(shape.iter().map(|&d| d as u64)) {
            return Err(FrozenError::schema(
                SECTION_PARAM_MANIFEST,
                format!("parameter {name:?} has shape {shape:?} stored, {:?} live", live.shape()),
            ));
        }
        if off.checked_add(len).filter(|&end| end <= total_floats).is_none() {
            return Err(FrozenError::schema(
                SECTION_PARAM_MANIFEST,
                format!("parameter {name:?} values out of range"),
            ));
        }
        if len != live.numel() as u64 {
            return Err(FrozenError::schema(
                SECTION_PARAM_MANIFEST,
                format!("parameter {name:?}: {len} values for {} slots", live.numel()),
            ));
        }
        // In range of `raw`, so `off * 4` fits in usize.
        plan.push((id, off as usize * 4));
    }
    c.finish()?;
    for (id, at) in plan {
        let dst = store.get_mut(id).data.data_mut();
        copy_f32(&raw[at..at + dst.len() * 4], dst);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Validation. Every check lands before any slice it guards.
// ---------------------------------------------------------------------------

fn need(buf: &[u8], n: usize) -> Result<(), FrozenError> {
    if buf.len() < n {
        return Err(FrozenError::Truncated { needed: n, have: buf.len() });
    }
    Ok(())
}

fn u32_at(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

fn u64_at(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

fn validate(buf: &[u8]) -> Result<Vec<SectionInfo>, FrozenError> {
    need(buf, 8)?;
    if &buf[0..4] != MAGIC {
        return Err(FrozenError::BadMagic);
    }
    let version = u32_at(buf, 4);
    if version != VERSION {
        return Err(FrozenError::UnsupportedVersion { found: version });
    }
    need(buf, HEADER_LEN + 4)?;

    let flags = u32_at(buf, 8);
    if flags != 0 {
        return Err(malformed(format!("unknown flags {flags:#x}")));
    }
    let n_sections = u32_at(buf, 12) as usize;
    if n_sections > MAX_SECTIONS {
        return Err(malformed(format!("section count {n_sections} exceeds {MAX_SECTIONS}")));
    }
    let align = u32_at(buf, 16) as usize;
    if align != PAYLOAD_ALIGN {
        return Err(malformed(format!("payload alignment {align}, expected {PAYLOAD_ALIGN}")));
    }
    if u32_at(buf, 20) != 0 {
        return Err(malformed("reserved header field is non-zero"));
    }
    let total_len = u64_at(buf, 24);
    if total_len != buf.len() as u64 {
        // A short buffer is truncation; a long one is trailing garbage. Both
        // must be caught before the trailer CRC is located via total_len.
        if (buf.len() as u64) < total_len {
            let needed = usize::try_from(total_len).unwrap_or(usize::MAX);
            return Err(FrozenError::Truncated { needed, have: buf.len() });
        }
        return Err(malformed(format!(
            "file is {} bytes but header claims {total_len}",
            buf.len()
        )));
    }
    if u32_at(buf, 36) != 0 {
        return Err(malformed("header padding is non-zero"));
    }

    let table_len = n_sections
        .checked_mul(SECTION_ENTRY_LEN)
        .ok_or_else(|| malformed("section table size overflows"))?;
    let payload_start = HEADER_LEN
        .checked_add(table_len)
        .ok_or_else(|| malformed("section table size overflows"))?;
    // The table plus trailer must fit.
    need(buf, payload_start + 4)?;

    // Header CRC covers header + table with the CRC field zeroed.
    let mut head: Vec<u8> = buf[..payload_start].to_vec();
    head[32..36].copy_from_slice(&[0u8; 4]);
    if crc32c(&head) != u32_at(buf, 32) {
        return Err(FrozenError::ChecksumMismatch { what: "header".into() });
    }

    let payload_end = buf.len() - 4; // everything before the trailer CRC
    let mut sections = Vec::with_capacity(n_sections);
    let mut prev_end = payload_start;
    for i in 0..n_sections {
        let e = HEADER_LEN + i * SECTION_ENTRY_LEN;
        let raw_id = &buf[e..e + 8];
        let id_len = raw_id.iter().position(|&b| b == 0).unwrap_or(8);
        let (name, pad) = raw_id.split_at(id_len);
        if name.is_empty() || !name.iter().all(|b| b.is_ascii_graphic()) {
            return Err(malformed(format!("section {i} has an invalid id {raw_id:?}")));
        }
        if !pad.iter().all(|&b| b == 0) {
            return Err(malformed(format!("section {i} id has non-zero padding")));
        }
        let id = String::from_utf8_lossy(name).into_owned();
        if sections.iter().any(|s: &SectionInfo| s.id == id) {
            return Err(FrozenError::DuplicateSection { section: id });
        }
        let off64 = u64_at(buf, e + 8);
        let len64 = u64_at(buf, e + 16);
        let crc = u32_at(buf, e + 24);
        if u32_at(buf, e + 28) != 0 {
            return Err(malformed(format!("section {id:?} entry padding is non-zero")));
        }
        let off = usize::try_from(off64)
            .map_err(|_| FrozenError::OutOfBounds { section: id.clone() })?;
        let len = usize::try_from(len64)
            .map_err(|_| FrozenError::OutOfBounds { section: id.clone() })?;
        let end = off
            .checked_add(len)
            .ok_or_else(|| FrozenError::OutOfBounds { section: id.clone() })?;
        if off < payload_start || end > payload_end {
            return Err(FrozenError::OutOfBounds { section: id });
        }
        if off % PAYLOAD_ALIGN != 0 {
            return Err(malformed(format!("section {id:?} offset {off} is misaligned")));
        }
        // Strictly increasing, non-overlapping; inter-section gap must be
        // zero bytes so every file byte is accounted for.
        if off < prev_end {
            return Err(malformed(format!(
                "section {id:?} overlaps or is out of order (offset {off} < {prev_end})"
            )));
        }
        if !buf[prev_end..off].iter().all(|&b| b == 0) {
            return Err(malformed(format!("non-zero padding before section {id:?}")));
        }
        prev_end = end;
        sections.push(SectionInfo { id, off, len, crc });
    }
    // Tail slack after the last payload must also be zero.
    if !buf[prev_end..payload_end].iter().all(|&b| b == 0) {
        return Err(malformed("non-zero padding after the last section"));
    }

    // Checksums last, verified in parallel: the whole-file trailer (covers
    // every byte — header, table, payloads, padding) plus every per-section
    // CRC. Structural checks above are all bounds-checked with typed
    // errors, so running them on not-yet-integrity-checked bytes is safe;
    // batching the CRC passes here lets the pool wall-clock ~2 full-file
    // passes of work at the cost of the largest single range. Artifact
    // validation sits on the serve-ready critical path (`bench_cold_start`).
    let mut jobs: Vec<(&str, &[u8], u32)> = Vec::with_capacity(sections.len() + 1);
    jobs.push(("file", &buf[..buf.len() - 4], u32_at(buf, buf.len() - 4)));
    for s in &sections {
        jobs.push((&s.id, &buf[s.off..s.off + s.len], s.crc));
    }
    let ok = bootleg_pool::map(&jobs, |&(_, range, want)| crc32c(range) == want);
    if let Some(i) = ok.iter().position(|&pass| !pass) {
        return Err(FrozenError::ChecksumMismatch { what: jobs[i].0.to_string() });
    }
    drop(jobs);
    Ok(sections)
}

// ---------------------------------------------------------------------------
// Little helpers for section payload schemas (length-prefixed primitives).
// The schema layers (kb::frozen, core::frozen) build on these so every read
// is bounds-checked with a typed error.
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over one section's payload.
pub struct Cursor<'a> {
    section: &'a str,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(section: &'a str, buf: &'a [u8]) -> Self {
        Self { section, buf, pos: 0 }
    }

    fn schema(&self, what: impl Into<String>) -> FrozenError {
        FrozenError::SectionSchema { section: self.section.to_string(), what: what.into() }
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrozenError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.schema(format!("read of {n} bytes past end at {}", self.pos)))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, FrozenError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, FrozenError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, FrozenError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub fn f32(&mut self) -> Result<f32, FrozenError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// A `u32` validated against a sanity ceiling (attack surface: huge
    /// counts that would drive `with_capacity` allocations).
    pub fn count(&mut self, max: usize) -> Result<usize, FrozenError> {
        let v = self.u32()? as usize;
        if v > max {
            return Err(self.schema(format!("count {v} exceeds sanity bound {max}")));
        }
        Ok(v)
    }

    /// Length-prefixed UTF-8 string.
    pub fn string(&mut self, max_len: usize) -> Result<String, FrozenError> {
        let n = self.count(max_len)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.schema("invalid UTF-8 string"))
    }

    /// Length-prefixed list of u32s.
    pub fn u32s(&mut self, max: usize) -> Result<Vec<u32>, FrozenError> {
        let n = self.count(max)?;
        let bytes = self.take(n.checked_mul(4).ok_or_else(|| self.schema("u32 list overflow"))?)?;
        Ok(bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    /// Length-prefixed list of u64s.
    pub fn u64s(&mut self, max: usize) -> Result<Vec<u64>, FrozenError> {
        let n = self.count(max)?;
        let bytes = self.take(n.checked_mul(8).ok_or_else(|| self.schema("u64 list overflow"))?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// Asserts the payload is fully consumed (schema drift guard).
    pub fn finish(self) -> Result<(), FrozenError> {
        if self.pos != self.buf.len() {
            return Err(self.schema(format!(
                "{} trailing bytes after decode",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Write-side dual of [`Cursor`]: appends length-prefixed primitives.
#[derive(Default)]
pub struct Builder {
    buf: Vec<u8>,
}

impl Builder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn string(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    pub fn u32s(&mut self, vs: &[u32]) -> &mut Self {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u32(v);
        }
        self
    }

    pub fn u64s(&mut self, vs: &[u64]) -> &mut Self {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u64(v);
        }
        self
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = FrozenWriter::new();
        w.add("alpha", vec![1, 2, 3, 4, 5]);
        w.add("beta", f32_bytes(&[1.0, -2.5, 3.25]));
        w.add("gamma", Vec::new());
        w.to_bytes()
    }

    #[test]
    fn round_trip() {
        let bytes = sample();
        let r = FrozenReader::from_bytes(bytes).unwrap();
        assert_eq!(r.sections().len(), 3);
        assert_eq!(r.require("alpha").unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(r.f32_section("beta").unwrap(), vec![1.0, -2.5, 3.25]);
        assert_eq!(r.require("gamma").unwrap(), &[] as &[u8]);
        assert!(r.section("delta").is_none());
        assert!(matches!(
            r.require("delta"),
            Err(FrozenError::SectionMissing { .. })
        ));
    }

    #[test]
    fn write_is_deterministic() {
        assert_eq!(sample(), sample());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let good = sample();
        // The whole-file trailer CRC guarantees any one-bit corruption is a
        // typed error. Walk every bit of this small artifact.
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    FrozenReader::from_bytes(bad).is_err(),
                    "flip at byte {byte} bit {bit} was not detected"
                );
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let good = sample();
        for n in 0..good.len() {
            assert!(FrozenReader::from_bytes(good[..n].to_vec()).is_err(), "len {n}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample();
        bytes.push(0);
        assert!(matches!(
            FrozenReader::from_bytes(bytes),
            Err(FrozenError::Malformed { .. })
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = sample();
        bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            FrozenReader::from_bytes(bytes),
            Err(FrozenError::UnsupportedVersion { found: 9 })
        ));
    }

    #[test]
    fn cursor_bounds_checked() {
        let mut b = Builder::new();
        b.u32(7).string("hi");
        let payload = b.into_bytes();
        let mut c = Cursor::new("t", &payload);
        assert_eq!(c.u32().unwrap(), 7);
        assert_eq!(c.string(16).unwrap(), "hi");
        assert!(c.u64().is_err());
        let mut c2 = Cursor::new("t", &payload);
        let _ = c2.u32();
        assert!(c2.finish().is_err()); // trailing bytes
    }

    #[test]
    fn cursor_count_bound() {
        let mut b = Builder::new();
        b.u32(u32::MAX);
        let payload = b.into_bytes();
        let mut c = Cursor::new("t", &payload);
        assert!(matches!(c.u32s(1024), Err(FrozenError::SectionSchema { .. })));
    }
}
