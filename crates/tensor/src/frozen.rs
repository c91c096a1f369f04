//! Frozen serving artifact container: a versioned, CRC-guarded, section-table
//! binary format whose payloads are 64-byte aligned little-endian blobs, so
//! f32 matrices load by reading their bytes straight into the destination
//! tensor instead of a per-element parse loop.
//!
//! This module owns the *container* — the header, the section table, the
//! integrity checks, the streamed reads and writes — plus the one parameter
//! codec ([`add_params`] / [`restore_params`] / [`fill_params`]) shared by
//! the serving artifact, training checkpoints and `BootlegModel::save/load`.
//! The layers above (`kb::frozen`, `core::frozen`, the trainer) decide what
//! else goes in each file.
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
//! The reader never holds the file. [`FrozenReader`] keeps an open source
//! (a `File`, or an `io::Cursor` over bytes already in memory) and runs
//! every check above at open in one streamed pass through a fixed 1 MiB
//! scratch buffer, keeping only the section table. A section
//! read lands the payload straight in its destination — owned bytes, the
//! parameter tensors, an f32 vector — and re-checks that section's CRC, so a
//! file that changed after open is still caught.
//!
//! The reader is hardened against untrusted input: every length, offset,
//! section id, and checksum is validated with a typed [`FrozenError`] before
//! anything is read into memory sized by it. It never panics and never reads
//! out of bounds.

use crate::checkpoint::{atomic_write_with, crc32c, crc32c_combine, Crc32c};
use crate::param::{ParamId, ParamStore};
use crate::tensor::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

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
/// Largest read the reader makes at once, and the size of the one scratch
/// buffer it holds while validating: a reader's memory does not grow with
/// the file.
const CHUNK: usize = 1 << 20;
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
    /// The file is shorter than a length field claims (or than it was when
    /// the reader opened it).
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

/// Accumulates named sections and writes them as one artifact.
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

    /// Payload offsets, in section order, and the total file length.
    fn layout(&self) -> (Vec<usize>, usize) {
        let mut cursor = HEADER_LEN + self.sections.len() * SECTION_ENTRY_LEN;
        let offsets = self
            .sections
            .iter()
            .map(|(_, payload)| {
                let off = align_up(cursor, PAYLOAD_ALIGN);
                cursor = off + payload.len();
                off
            })
            .collect();
        (offsets, cursor + 4) // + trailer CRC
    }

    /// Writes the artifact to `out`, section by section. The trailer CRC is
    /// combined from the per-section CRCs as the payloads go out, so the
    /// file is never assembled in memory and each payload is checksummed
    /// once.
    pub fn write_to(&self, out: &mut dyn Write) -> io::Result<()> {
        assert!(self.sections.len() <= MAX_SECTIONS, "too many sections");
        let payload_start = HEADER_LEN + self.sections.len() * SECTION_ENTRY_LEN;
        let (offsets, total_len) = self.layout();
        let crcs: Vec<u32> = self.sections.iter().map(|(_, payload)| crc32c(payload)).collect();

        let mut head = vec![0u8; payload_start];
        head[0..4].copy_from_slice(MAGIC);
        head[4..8].copy_from_slice(&VERSION.to_le_bytes());
        head[8..12].copy_from_slice(&0u32.to_le_bytes()); // flags
        head[12..16].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());
        head[16..20].copy_from_slice(&(PAYLOAD_ALIGN as u32).to_le_bytes());
        head[20..24].copy_from_slice(&0u32.to_le_bytes()); // reserved
        head[24..32].copy_from_slice(&(total_len as u64).to_le_bytes());
        // header_crc at [32..36] is filled below; header_pad [36..40] stays 0.
        for (i, (id, payload)) in self.sections.iter().enumerate() {
            let e = HEADER_LEN + i * SECTION_ENTRY_LEN;
            head[e..e + id.len()].copy_from_slice(id.as_bytes());
            head[e + 8..e + 16].copy_from_slice(&(offsets[i] as u64).to_le_bytes());
            head[e + 16..e + 24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
            head[e + 24..e + 28].copy_from_slice(&crcs[i].to_le_bytes());
            // entry pad [e+28..e+32] stays 0.
        }
        // Header CRC covers header + table with the CRC field itself zeroed
        // (it is zero right now).
        let hcrc = crc32c(&head);
        head[32..36].copy_from_slice(&hcrc.to_le_bytes());
        out.write_all(&head)?;

        let mut file_crc = crc32c(&head);
        let mut at = payload_start;
        for (((_, payload), &off), &crc) in self.sections.iter().zip(&offsets).zip(&crcs) {
            let gap = &[0u8; PAYLOAD_ALIGN][..off - at];
            out.write_all(gap)?;
            out.write_all(payload)?;
            file_crc = crc32c_combine(file_crc, crc32c(gap), gap.len() as u64);
            file_crc = crc32c_combine(file_crc, crc, payload.len() as u64);
            at = off + payload.len();
        }
        out.write_all(&file_crc.to_le_bytes())
    }

    /// Serialises the artifact to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.layout().1);
        self.write_to(&mut buf).expect("writing to a Vec cannot fail");
        buf
    }

    /// Streams the artifact to `path` atomically (temp file + rename).
    pub fn save(&self, path: &Path) -> Result<(), FrozenError> {
        atomic_write_with(path, |w| self.write_to(w))?;
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

/// What a reader reads from: an open file, or bytes already in memory.
trait Source: Read + Seek + Send {}
impl<T: Read + Seek + Send> Source for T {}

/// A validated artifact: the section table plus the open source it came
/// from. The reader holds no payload; each section read goes back to the
/// source.
///
/// Construction performs *all* integrity checks (magic, version, lengths,
/// alignment, ordering, padding, all CRCs) in one streamed pass. Section
/// reads then re-check the CRC of what they read, so a source that changed
/// since (a file truncated or rewritten in place) is a typed error too.
pub struct FrozenReader {
    /// Locked per read: every read seeks first, so the position a panicked
    /// read left behind does no harm.
    src: Mutex<Box<dyn Source>>,
    /// Source length at open.
    len: usize,
    sections: Vec<SectionInfo>,
}

impl FrozenReader {
    /// Opens and validates an artifact file, keeping the file open for
    /// section reads.
    pub fn load(path: &Path) -> Result<Self, FrozenError> {
        Self::open(Box::new(File::open(path)?))
    }

    /// Validates an artifact held in memory.
    pub fn from_bytes(buf: Vec<u8>) -> Result<Self, FrozenError> {
        Self::open(Box::new(io::Cursor::new(buf)))
    }

    fn open(mut src: Box<dyn Source>) -> Result<Self, FrozenError> {
        let len = usize::try_from(src.seek(SeekFrom::End(0))?)
            .map_err(|_| malformed("file does not fit in memory addresses"))?;
        src.seek(SeekFrom::Start(0))?;
        let sections = validate(&mut *src, len)?;
        Ok(Self { src: Mutex::new(src), len, sections })
    }

    /// All sections, in file order.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// Total artifact size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.len
    }

    /// The table entry of section `id`, if present.
    pub fn section(&self, id: &str) -> Option<&SectionInfo> {
        self.sections.iter().find(|s| s.id == id)
    }

    fn find(&self, id: &str) -> Result<&SectionInfo, FrozenError> {
        self.section(id).ok_or_else(|| FrozenError::SectionMissing { section: id.to_string() })
    }

    /// Payload bytes of a required section.
    pub fn require(&self, id: &str) -> Result<Vec<u8>, FrozenError> {
        let s = self.find(id)?;
        let mut buf = vec![0u8; s.len];
        self.read_into(s, &mut [&mut buf])?;
        Ok(buf)
    }

    /// Loads a required section as f32s, read straight into the returned
    /// vector.
    pub fn f32_section(&self, id: &str) -> Result<Vec<f32>, FrozenError> {
        let len = self.find(id)?.len;
        if len % 4 != 0 {
            return Err(FrozenError::schema(
                id,
                format!("f32 payload length {len} not a multiple of 4"),
            ));
        }
        let mut out = vec![0.0; len / 4];
        self.read_f32s(id, &mut [&mut out])?;
        Ok(out)
    }

    /// Reads a required f32 section into `dests`, which laid end to end
    /// must hold exactly its values. Payloads are little-endian and 64-byte
    /// aligned in the file, so on little-endian targets the bytes *are* the
    /// floats and land in place with no parse. On error the destinations
    /// hold unspecified values.
    pub fn read_f32s(&self, id: &str, dests: &mut [&mut [f32]]) -> Result<(), FrozenError> {
        let s = self.find(id)?;
        let floats: usize = dests.iter().map(|d| d.len()).sum();
        if floats.checked_mul(4) != Some(s.len) {
            return Err(FrozenError::schema(id, format!("{} bytes for {floats} f32s", s.len)));
        }
        let mut bytes: Vec<&mut [u8]> = dests.iter_mut().map(|d| f32_bytes_mut(d)).collect();
        self.read_into(s, &mut bytes)?;
        #[cfg(not(target_endian = "little"))]
        for x in dests.iter_mut().flat_map(|d| d.iter_mut()) {
            *x = f32::from_bits(u32::from_le(x.to_bits()));
        }
        Ok(())
    }

    /// Reads section `s` into `dests` (which together hold exactly its
    /// bytes), checking its CRC on the way.
    fn read_into(&self, s: &SectionInfo, dests: &mut [&mut [u8]]) -> Result<(), FrozenError> {
        debug_assert_eq!(dests.iter().map(|d| d.len()).sum::<usize>(), s.len);
        let mut src = self.src.lock().unwrap_or_else(PoisonError::into_inner);
        src.seek(SeekFrom::Start(s.off as u64))?;
        let mut crc = Crc32c::new();
        for chunk in dests.iter_mut().flat_map(|d| d.chunks_mut(CHUNK)) {
            read_full(&mut **src, chunk, self.len)?;
            crc.update(chunk);
        }
        if crc.finish() != s.crc {
            return Err(FrozenError::ChecksumMismatch { what: s.id.clone() });
        }
        Ok(())
    }
}

/// The bytes of `vals`, for reading little-endian floats in place.
fn f32_bytes_mut(vals: &mut [f32]) -> &mut [u8] {
    // SAFETY: an f32 is four initialised bytes with no padding and every bit
    // pattern is a valid f32, so the `vals.len() * 4` bytes behind `vals`
    // may be read and written as `[u8]` (alignment 1) while `vals` is
    // mutably borrowed.
    unsafe { std::slice::from_raw_parts_mut(vals.as_mut_ptr().cast::<u8>(), vals.len() * 4) }
}

/// Encodes f32s as little-endian bytes.
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

/// Checks the manifest written by [`add_params`] against `store` and
/// returns the parameters in the order their values lie in the value blob.
/// Every manifest entry must name a parameter of `store` with the same
/// shape, every parameter must be covered exactly once, and the value
/// ranges must tile the blob with no gap or overlap.
fn param_layout(reader: &FrozenReader, store: &ParamStore) -> Result<Vec<ParamId>, FrozenError> {
    let raw_len = reader.find(SECTION_PARAM_F32)?.len;
    if raw_len % 4 != 0 {
        return Err(FrozenError::schema(
            SECTION_PARAM_F32,
            format!("{raw_len} bytes is not a whole number of f32s"),
        ));
    }
    let total_floats = (raw_len / 4) as u64;
    let manifest = reader.require(SECTION_PARAM_MANIFEST)?;
    let mut c = Cursor::new(SECTION_PARAM_MANIFEST, &manifest);
    let n = c.count(MAX_PARAMS)?;
    if n != store.len() {
        return Err(FrozenError::schema(
            SECTION_PARAM_MANIFEST,
            format!("{n} stored parameters, model has {}", store.len()),
        ));
    }
    let by_name: HashMap<&str, ParamId> =
        store.iter().map(|(id, p)| (p.name.as_str(), id)).collect();
    // (float offset in the blob, parameter), in manifest order.
    let mut layout = Vec::with_capacity(n);
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
        layout.push((off, id));
    }
    c.finish()?;
    // Stable, so zero-length parameters keep their store order.
    layout.sort_by_key(|&(off, _)| off);
    let mut end = 0;
    for &(off, id) in &layout {
        if off != end {
            let what = format!("parameter values leave a gap or overlap at float {end}");
            return Err(FrozenError::schema(SECTION_PARAM_MANIFEST, what));
        }
        end += store.get(id).data.numel() as u64;
    }
    if end != total_floats {
        let what = format!("{total_floats} values, the parameters take {end}");
        return Err(FrozenError::schema(SECTION_PARAM_F32, what));
    }
    Ok(layout.into_iter().map(|(_, id)| id).collect())
}

/// Overwrites every parameter of `store` from the sections written by
/// [`add_params`], all or nothing: the manifest is checked in full, the
/// values land in buffers this restore owns, and they replace the store's
/// tensors only once the blob's CRC has matched, so a failed restore leaves
/// `store` untouched. Writes go through `get_mut`, bumping the store version
/// so weight-derived caches (the entity-payload plane) rebuild.
pub fn restore_params(reader: &FrozenReader, store: &mut ParamStore) -> Result<(), FrozenError> {
    let order = param_layout(reader, store)?;
    let mut values: Vec<Vec<f32>> =
        order.iter().map(|&id| vec![0.0; store.get(id).data.numel()]).collect();
    let mut dests: Vec<&mut [f32]> = values.iter_mut().map(Vec::as_mut_slice).collect();
    reader.read_f32s(SECTION_PARAM_F32, &mut dests)?;
    for (id, v) in order.into_iter().zip(values) {
        let p = store.get_mut(id);
        p.data = Tensor::new(p.data.dims(), v);
    }
    Ok(())
}

/// [`restore_params`] for a store built only to receive these values (the
/// model a thaw constructs): the values are read straight into the store's
/// own tensors, with no second copy of the parameters alive at any point.
/// On error the store holds partly written values and must be dropped.
pub fn fill_params(reader: &FrozenReader, store: &mut ParamStore) -> Result<(), FrozenError> {
    let order = param_layout(reader, store)?;
    let mut slots: Vec<Option<&mut [f32]>> =
        store.iter_mut().map(|(_, p)| Some(p.data.data_mut())).collect();
    let mut dests: Vec<&mut [f32]> = order
        .iter()
        .map(|id| slots[id.index()].take().expect("the layout names each parameter once"))
        .collect();
    reader.read_f32s(SECTION_PARAM_F32, &mut dests)
}

// ---------------------------------------------------------------------------
// Validation. Every check lands before any read it guards.
// ---------------------------------------------------------------------------

fn need(len: usize, n: usize) -> Result<(), FrozenError> {
    if len < n {
        return Err(FrozenError::Truncated { needed: n, have: len });
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

/// `read_exact` for a source that was `len` bytes long at open: running
/// out of bytes is truncation, not a bare I/O error.
fn read_full(src: &mut dyn Source, buf: &mut [u8], len: usize) -> Result<(), FrozenError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() != io::ErrorKind::UnexpectedEof {
            return e.into();
        }
        let have = src.seek(SeekFrom::End(0)).map_or(0, |n| usize::try_from(n).unwrap_or(0));
        FrozenError::Truncated { needed: len, have }
    })
}

/// Reads the next `n` bytes of `src` through `scratch`, showing each piece
/// to `inspect`; returns their CRC.
fn stream(
    src: &mut dyn Source,
    mut n: usize,
    scratch: &mut [u8],
    len: usize,
    mut inspect: impl FnMut(&[u8]),
) -> Result<u32, FrozenError> {
    let mut crc = Crc32c::new();
    while n > 0 {
        let k = n.min(scratch.len());
        let piece = &mut scratch[..k];
        read_full(src, piece, len)?;
        crc.update(piece);
        inspect(piece);
        n -= piece.len();
    }
    Ok(crc.finish())
}

/// Reads the zero padding of the next `n` bytes; returns its CRC.
fn stream_padding(
    src: &mut dyn Source,
    n: usize,
    scratch: &mut [u8],
    len: usize,
    what: impl FnOnce() -> String,
) -> Result<u32, FrozenError> {
    let mut zero = true;
    let crc = stream(src, n, scratch, len, |piece| zero &= piece.iter().all(|&b| b == 0))?;
    if !zero {
        return Err(malformed(what()));
    }
    Ok(crc)
}

/// Validates the `len`-byte artifact that `src` is positioned at the start
/// of, in one pass, and returns its section table.
fn validate(src: &mut dyn Source, len: usize) -> Result<Vec<SectionInfo>, FrozenError> {
    need(len, 8)?;
    let mut head = vec![0u8; len.min(HEADER_LEN)];
    read_full(src, &mut head, len)?;
    if &head[0..4] != MAGIC {
        return Err(FrozenError::BadMagic);
    }
    let version = u32_at(&head, 4);
    if version != VERSION {
        return Err(FrozenError::UnsupportedVersion { found: version });
    }
    need(len, HEADER_LEN + 4)?;

    let flags = u32_at(&head, 8);
    if flags != 0 {
        return Err(malformed(format!("unknown flags {flags:#x}")));
    }
    let n_sections = u32_at(&head, 12) as usize;
    if n_sections > MAX_SECTIONS {
        return Err(malformed(format!("section count {n_sections} exceeds {MAX_SECTIONS}")));
    }
    let align = u32_at(&head, 16) as usize;
    if align != PAYLOAD_ALIGN {
        return Err(malformed(format!("payload alignment {align}, expected {PAYLOAD_ALIGN}")));
    }
    if u32_at(&head, 20) != 0 {
        return Err(malformed("reserved header field is non-zero"));
    }
    let total_len = u64_at(&head, 24);
    if total_len != len as u64 {
        // A short file is truncation; a long one is trailing garbage. Both
        // must be caught before the trailer CRC is located via total_len.
        if (len as u64) < total_len {
            let needed = usize::try_from(total_len).unwrap_or(usize::MAX);
            return Err(FrozenError::Truncated { needed, have: len });
        }
        return Err(malformed(format!("file is {len} bytes but header claims {total_len}")));
    }
    if u32_at(&head, 36) != 0 {
        return Err(malformed("header padding is non-zero"));
    }

    // At most MAX_SECTIONS entries, so neither sum can overflow.
    let payload_start = HEADER_LEN + n_sections * SECTION_ENTRY_LEN;
    // The table plus trailer must fit.
    need(len, payload_start + 4)?;
    head.resize(payload_start, 0);
    read_full(src, &mut head[HEADER_LEN..], len)?;

    // Header CRC covers header + table with the CRC field zeroed.
    let mut hcrc = Crc32c::new();
    hcrc.update(&head[..32]);
    hcrc.update(&[0; 4]);
    hcrc.update(&head[36..]);
    if hcrc.finish() != u32_at(&head, 32) {
        return Err(FrozenError::ChecksumMismatch { what: "header".into() });
    }

    let payload_end = len - 4; // everything before the trailer CRC
    let mut sections = Vec::with_capacity(n_sections);
    let mut prev_end = payload_start;
    for i in 0..n_sections {
        let e = HEADER_LEN + i * SECTION_ENTRY_LEN;
        let raw_id = &head[e..e + 8];
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
        let off64 = u64_at(&head, e + 8);
        let len64 = u64_at(&head, e + 16);
        let crc = u32_at(&head, e + 24);
        if u32_at(&head, e + 28) != 0 {
            return Err(malformed(format!("section {id:?} entry padding is non-zero")));
        }
        let off = usize::try_from(off64)
            .map_err(|_| FrozenError::OutOfBounds { section: id.clone() })?;
        let sec_len = usize::try_from(len64)
            .map_err(|_| FrozenError::OutOfBounds { section: id.clone() })?;
        let end = off
            .checked_add(sec_len)
            .ok_or_else(|| FrozenError::OutOfBounds { section: id.clone() })?;
        if off < payload_start || end > payload_end {
            return Err(FrozenError::OutOfBounds { section: id });
        }
        if off % PAYLOAD_ALIGN != 0 {
            return Err(malformed(format!("section {id:?} offset {off} is misaligned")));
        }
        // Strictly increasing, non-overlapping.
        if off < prev_end {
            return Err(malformed(format!(
                "section {id:?} overlaps or is out of order (offset {off} < {prev_end})"
            )));
        }
        prev_end = end;
        sections.push(SectionInfo { id, off, len: sec_len, crc });
    }

    // One pass over the payload region in file order: every gap must be
    // zero so each file byte is accounted for, every section is
    // checksummed, and the whole-file CRC is combined from the pieces.
    // Structural errors outrank checksum errors, and the file CRC outranks
    // a section's.
    let mut scratch = vec![0u8; CHUNK.min(payload_end - payload_start)];
    let mut file_crc = crc32c(&head);
    let mut bad_section = None;
    let mut at = payload_start;
    for s in &sections {
        let gap = s.off - at;
        let crc = stream_padding(src, gap, &mut scratch, len, || {
            format!("non-zero padding before section {:?}", s.id)
        })?;
        file_crc = crc32c_combine(file_crc, crc, gap as u64);
        let crc = stream(src, s.len, &mut scratch, len, |_| {})?;
        if crc != s.crc && bad_section.is_none() {
            bad_section = Some(s.id.clone());
        }
        file_crc = crc32c_combine(file_crc, crc, s.len as u64);
        at = s.off + s.len;
    }
    let tail = payload_end - at;
    let crc = stream_padding(src, tail, &mut scratch, len, || {
        "non-zero padding after the last section".into()
    })?;
    file_crc = crc32c_combine(file_crc, crc, tail as u64);
    let mut trailer = [0u8; 4];
    read_full(src, &mut trailer, len)?;
    if u32::from_le_bytes(trailer) != file_crc {
        return Err(FrozenError::ChecksumMismatch { what: "file".into() });
    }
    if let Some(what) = bad_section {
        return Err(FrozenError::ChecksumMismatch { what });
    }
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
        self.str(max_len).map(str::to_owned)
    }

    /// Length-prefixed UTF-8 string, borrowed from the payload.
    pub fn str(&mut self, max_len: usize) -> Result<&'a str, FrozenError> {
        let n = self.count(max_len)?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| self.schema("invalid UTF-8 string"))
    }

    /// Bytes not read yet.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
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
        assert_eq!(r.section("alpha").map(|s| s.len), Some(5));
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
