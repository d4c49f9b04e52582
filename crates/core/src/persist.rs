//! Index persistence.
//!
//! Precomputation is the expensive phase (hours at paper scale, Figure 6);
//! a production deployment builds the index once and serves queries from
//! many processes. This module serialises a [`KdashIndex`] to a compact
//! little-endian binary format (magic + version header, then the raw
//! arrays) and validates every structural invariant on load, so a
//! corrupted or truncated file yields a typed [`PersistError`] instead of
//! wrong answers. [`save_atomic`] adds the crash-safe write protocol
//! (temp file → fsync → rename) every index-writing path should use.
//!
//! # Format versions
//!
//! * **v5** (current, the only one read): every section checksummed, and
//!   a **dropped-mass section** between the estimator constants and the
//!   trailer — the drop tolerance `ε` the stored inverses were truncated
//!   with, then the per-column dropped ℓ₁ masses of `L⁻¹` and `U⁻¹`, what
//!   the certified refinement loop needs to keep sparsified answers
//!   exact.
//! * **v1–v4** are refused with [`PersistError::UnsupportedVersion`]
//!   before anything past the version field is parsed. No writer emits
//!   them: v1–v3 carried no checksums, and v4 (checksummed, no
//!   dropped-mass section) is what every writer has replaced with v5.
//!
//! Every section — header, permutation, graph arrays, `L⁻¹`, `U⁻¹` behind
//! a one-byte row **layout tag** (always `1`: the blocked arrays that
//! [`ProximityStore::raw`] lends and [`ProximityStore::from_raw_parts`]
//! re-validates, run anchors + `u16` deltas, the bandwidth-lean on-disk
//! *and* in-memory form; any other tag is a
//! [`PersistError::Corrupt`] `U⁻¹` section — `0` too, the flat CSC arrays
//! older builds could write), the per-row stats
//! ([`kdash_sparse::RowStat`], read off the blocked arrays and checked
//! against them on load: redundancy only, nothing is loaded from it),
//! estimator constants (likewise written from and checked against, bit
//! for bit, the constants the assembled index derives from the graph
//! section), dropped masses, and the dynamic-update trailer
//! (dangling-node policy tag and **update-epoch counter**) — is followed
//! by its CRC32 (IEEE), and the
//! file ends with a `KDASHEND` footer carrying the CRC32 of the whole byte
//! stream before it. Load verifies each section checksum in stream order
//! and the footer last, so corruption is reported with the failing
//! [`Section`] and byte offset ([`PersistError::ChecksumMismatch`]).
//!
//! # Words
//!
//! Every field and array element is one little-endian word (`u8`, `u16`,
//! `u32`, `u64`, `f64`; a `usize` as a `u64`), read and written by one
//! generic scalar read, array read and slice write. Reads go word by word,
//! so an error names the failing word's offset; an array read caps its
//! up-front capacity and refuses a non-finite `f64`. The slice write goes
//! through a fixed 4 KiB buffer, so a save's transient memory does not
//! grow with the index.

use crate::precompute::IndexParts;
use crate::{KdashIndex, NodeOrdering};
use kdash_graph::{CsrGraph, Permutation};
use kdash_sparse::{CscMatrix, ProximityStore, RowStat};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"KDASHIDX";
const FOOTER_MAGIC: &[u8; 8] = b"KDASHEND";
/// The one format version this build writes and reads.
const VERSION: u32 = 5;
/// The one row-layout tag the `U⁻¹` section carries: the blocked arrays.
const LAYOUT_BLOCKED: u8 = 1;
const DANGLING_KEEP: u8 = 0;
const DANGLING_SELF_LOOP: u8 = 1;

/// The on-disk section an error was detected in. Section boundaries are
/// the checksum boundaries of the format, in stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Magic, version, restart probability, ordering, node count.
    Header,
    /// The node permutation (new order).
    Permutation,
    /// The permuted graph's CSR arrays.
    Graph,
    /// `L⁻¹` in CSC form.
    Linv,
    /// `U⁻¹`: the blocked row-layout tag, then the blocked arrays.
    Uinv,
    /// The per-row stats of `U⁻¹` (entry count and column span), a
    /// redundancy check on the blocked arrays.
    RowStats,
    /// The estimator constants (`A_max(v)`, `A_max`, `c'`), a redundancy
    /// check on the graph section.
    Estimator,
    /// The sparsification record (v5+): drop tolerance `ε` and the
    /// per-column dropped ℓ₁ masses of both stored inverses.
    DroppedMass,
    /// The dynamic-update trailer (dangling policy, update epoch).
    Trailer,
    /// The `KDASHEND` + whole-file-CRC footer.
    Footer,
    /// Cross-section consistency (final index assembly).
    Index,
}

impl Section {
    /// Stable lowercase name, used in error messages and the
    /// `kdash verify` report.
    pub fn name(self) -> &'static str {
        match self {
            Section::Header => "header",
            Section::Permutation => "permutation",
            Section::Graph => "graph",
            Section::Linv => "linv",
            Section::Uinv => "uinv",
            Section::RowStats => "row-stats",
            Section::Estimator => "estimator",
            Section::DroppedMass => "dropped-mass",
            Section::Trailer => "trailer",
            Section::Footer => "footer",
            Section::Index => "index",
        }
    }
}

impl std::fmt::Display for Section {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The phase of a persistence operation an I/O failure occurred in.
///
/// [`save_atomic`] is a four-step protocol (write the temp file, fsync
/// it, rename it over the destination, fsync the directory) and the
/// right operator response differs per step — a full disk at tmp-write
/// is routine, a failed rename means the destination directory itself is
/// suspect — so [`PersistError::Io`] names the step instead of handing
/// back a bare `io::Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoStage {
    /// Reading an index file (load path).
    Read,
    /// Serialising into the temporary `<path>.tmp` file.
    TmpWrite,
    /// Fsyncing the fully-written temporary file.
    Fsync,
    /// Renaming the temporary file over the destination.
    Rename,
    /// Fsyncing the parent directory to make the rename durable.
    DirFsync,
}

impl IoStage {
    /// Stable lowercase name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            IoStage::Read => "read",
            IoStage::TmpWrite => "tmp-write",
            IoStage::Fsync => "fsync",
            IoStage::Rename => "rename",
            IoStage::DirFsync => "dir-fsync",
        }
    }
}

impl std::fmt::Display for IoStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an index file failed to load. Every failure names the section it
/// was detected in and (where meaningful) the byte offset, so an operator
/// can tell a truncated copy from a flipped sector from a version skew.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying I/O failure that is not a malformed file (e.g. a
    /// read permission error). End-of-file inside a section is reported
    /// as [`Corrupt`](Self::Corrupt) instead. `stage` names the phase of
    /// the protocol that failed — on the save path, after transient
    /// (`EINTR`-class) failures were already retried with bounded
    /// backoff.
    Io {
        /// The protocol step the failure occurred in.
        stage: IoStage,
        /// The underlying error.
        error: io::Error,
    },
    /// The file does not start with the `KDASHIDX` magic.
    BadMagic,
    /// The file's format version is outside the supported range.
    UnsupportedVersion(u32),
    /// The file's structure is invalid: truncation, an impossible count
    /// field, a failed structural invariant, or a non-finite value.
    Corrupt {
        /// The section the damage was detected in.
        section: Section,
        /// Byte offset (from the start of the file) of the failing read
        /// or field.
        offset: u64,
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// A stored CRC32 disagrees with the checksum of the bytes actually
    /// read — the file was modified or damaged after it was written.
    ChecksumMismatch {
        /// The section whose checksum failed (or [`Section::Footer`] for
        /// the whole-file CRC).
        section: Section,
        /// Byte offset of the stored checksum field.
        offset: u64,
        /// The checksum stored in the file.
        stored: u32,
        /// The checksum computed over the bytes read.
        computed: u32,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { stage, error } => write!(f, "i/o error during {stage}: {error}"),
            PersistError::BadMagic => write!(f, "bad magic — not a K-dash index file"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported index version {v} (this build reads {VERSION})")
            }
            PersistError::Corrupt { section, offset, detail } => {
                write!(f, "corrupt index file ({section} section, byte {offset}): {detail}")
            }
            PersistError::ChecksumMismatch { section, offset, stored, computed } => {
                write!(
                    f,
                    "checksum mismatch in {section} section (crc field at byte {offset}): \
                     stored {stored:#010x}, computed {computed:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io { stage: IoStage::Read, error: e }
    }
}

/// What [`KdashIndex::load_with_info`] learned about the file besides the
/// index itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadInfo {
    /// The on-disk format version the file was written in (every
    /// accepted version is checksummed, and passed).
    pub version: u32,
    /// The update epoch the snapshot was taken at (0 for an index that
    /// was never incrementally updated). Recovery tooling compares this
    /// against a sidecar journal's epoch range without re-deriving it
    /// from the index.
    pub update_epoch: u64,
}

fn corrupt(section: Section, offset: u64, detail: impl Into<String>) -> PersistError {
    PersistError::Corrupt { section, offset, detail: detail.into() }
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, the polynomial zlib/PNG use), table-driven and
// dependency-free: slicing-by-8, so the eight look-ups of one 8-byte
// step are independent of each other instead of a chain. Every payload
// byte feeds two of these (section and whole file). The tables are
// built at compile time.
// ---------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC state after byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[derive(Clone, Copy)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut state = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ state;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            state = t[7][(lo & 0xFF) as usize]
                ^ t[6][(lo >> 8 & 0xFF) as usize]
                ^ t[5][(lo >> 16 & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][(hi >> 8 & 0xFF) as usize]
                ^ t[1][(hi >> 16 & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
        }
        self.0 = state;
    }

    fn value(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC32 (IEEE 802.3) of `bytes` — the same table-driven
/// implementation that checksums index sections, exported so sibling
/// formats (the `kdash-dynamic` update journal) frame their records
/// with bit-identical checksums instead of a second implementation.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.value()
}

/// A writer that tracks the running whole-file and per-section CRCs and
/// the byte offset. Section payloads go through the [`Write`] impl; the
/// CRC fields themselves are emitted by [`end_section`] /
/// [`write_footer`] (they feed the file CRC but never a section CRC).
struct SectionWriter<W: Write> {
    inner: W,
    offset: u64,
    file: Crc32,
    section: Crc32,
}

impl<W: Write> SectionWriter<W> {
    fn new(inner: W) -> Self {
        SectionWriter { inner, offset: 0, file: Crc32::new(), section: Crc32::new() }
    }

    /// Closes the current section: writes its CRC32 and resets the
    /// section state. Returns the offset *after* the CRC field — the
    /// section boundary the corruption sweep flips around.
    fn end_section(&mut self) -> io::Result<u64> {
        let crc = self.section.value().to_le_bytes();
        self.inner.write_all(&crc)?;
        self.file.update(&crc);
        self.offset += 4;
        self.section = Crc32::new();
        Ok(self.offset)
    }

    /// Writes the `KDASHEND` footer with the whole-file CRC (which covers
    /// every preceding byte, section CRC fields included).
    fn write_footer(&mut self) -> io::Result<u64> {
        let file_crc = self.file.value().to_le_bytes();
        self.inner.write_all(FOOTER_MAGIC)?;
        self.inner.write_all(&file_crc)?;
        self.offset += 12;
        Ok(self.offset)
    }
}

impl<W: Write> Write for SectionWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write_all(buf)?;
        self.file.update(buf);
        self.section.update(buf);
        self.offset += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The reading twin: every payload read feeds both CRCs, EOF inside a
/// section is reported as [`PersistError::Corrupt`] at the failing
/// offset, and [`end_section`](Self::end_section) verifies the stored
/// section CRC.
struct SectionReader<R: Read> {
    inner: R,
    offset: u64,
    file: Crc32,
    section: Crc32,
}

impl<R: Read> SectionReader<R> {
    fn new(inner: R) -> Self {
        SectionReader { inner, offset: 0, file: Crc32::new(), section: Crc32::new() }
    }

    fn offset(&self) -> u64 {
        self.offset
    }

    /// Reads exactly `buf.len()` payload bytes for `section`.
    fn fill(&mut self, buf: &mut [u8], section: Section) -> Result<(), PersistError> {
        let at = self.offset;
        self.inner.read_exact(buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                corrupt(section, at, "unexpected end of file")
            } else {
                PersistError::from(e)
            }
        })?;
        self.file.update(buf);
        self.section.update(buf);
        self.offset += buf.len() as u64;
        Ok(())
    }

    /// Verifies and consumes the section's CRC field, then resets the
    /// section checksum state for the next section.
    fn end_section(&mut self, section: Section) -> Result<(), PersistError> {
        let computed = self.section.value();
        let at = self.offset;
        let mut b = [0u8; 4];
        self.inner.read_exact(&mut b).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                corrupt(section, at, "unexpected end of file in checksum field")
            } else {
                PersistError::from(e)
            }
        })?;
        self.file.update(&b);
        self.offset += 4;
        let stored = u32::from_le_bytes(b);
        if stored != computed {
            return Err(PersistError::ChecksumMismatch { section, offset: at, stored, computed });
        }
        self.section = Crc32::new();
        Ok(())
    }

    /// Verifies the `KDASHEND` + whole-file-CRC footer.
    fn verify_footer(&mut self) -> Result<(), PersistError> {
        let computed = self.file.value();
        let at = self.offset;
        let mut b = [0u8; 12];
        self.inner.read_exact(&mut b).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                corrupt(Section::Footer, at, "unexpected end of file in footer")
            } else {
                PersistError::from(e)
            }
        })?;
        self.offset += 12;
        if &b[..8] != FOOTER_MAGIC {
            return Err(corrupt(Section::Footer, at, "bad footer magic"));
        }
        let stored = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
        if stored != computed {
            return Err(PersistError::ChecksumMismatch {
                section: Section::Footer,
                offset: at + 8,
                stored,
                computed,
            });
        }
        Ok(())
    }

    /// Reads one word.
    fn word<T: Word>(&mut self, sec: Section) -> Result<T, PersistError> {
        let mut bytes = T::Bytes::default();
        self.fill(bytes.as_mut(), sec)?;
        Ok(T::from_le(bytes))
    }

    /// Reads `len` words, refusing a non-finite `f64` at its offset. The
    /// up-front capacity is capped at [`MAX_TRUSTED_PREALLOC`].
    fn words<T: Word>(&mut self, sec: Section, len: usize) -> Result<Vec<T>, PersistError> {
        let mut out = Vec::with_capacity(len.min(MAX_TRUSTED_PREALLOC));
        for _ in 0..len {
            let at = self.offset;
            let v: T = self.word(sec)?;
            if !v.admissible() {
                return Err(corrupt(sec, at, "non-finite value in index file"));
            }
            out.push(v);
        }
        Ok(out)
    }
}

impl KdashIndex {
    /// Serialises the index in the current (v5, checksummed) format,
    /// preserving the update epoch. The LU factors are not part of an
    /// index: the dynamic engine refactorises once on attach.
    ///
    /// For writing to a *file*, prefer [`save_atomic`], which adds the
    /// crash-safe temp-file → fsync → rename protocol.
    pub fn save<W: Write>(&self, w: W) -> io::Result<()> {
        self.save_with_section_offsets(w).map(|_| ())
    }

    /// [`save`](Self::save) that also returns the `(section name, end
    /// offset)` boundary of every checksummed section (the offset is one
    /// past the section's CRC field; the last entry is the footer).
    /// Hidden — exists so the byte-level corruption sweep in
    /// `tests/persist_roundtrip.rs` can target exact section boundaries
    /// without hardcoding the layout arithmetic.
    #[doc(hidden)]
    pub fn save_with_section_offsets<W: Write>(
        &self,
        w: W,
    ) -> io::Result<Vec<(&'static str, u64)>> {
        let mut w = SectionWriter::new(w);
        let mut marks = Vec::with_capacity(10);

        // Header.
        w.write_all(MAGIC)?;
        write_words(&mut w, &[VERSION])?;
        write_words(&mut w, &[self.restart_probability()])?;
        let (tag, seed) = encode_ordering(self.ordering());
        w.write_all(&[tag])?;
        write_words(&mut w, &[seed, self.num_nodes() as u64])?;
        marks.push((Section::Header.name(), w.end_section()?));

        // Permutation.
        write_words(&mut w, self.permutation().order())?;
        marks.push((Section::Permutation.name(), w.end_section()?));

        // Permuted graph.
        write_compressed(&mut w, self.permuted_graph().raw())?;
        marks.push((Section::Graph.name(), w.end_section()?));

        // L⁻¹ (CSC).
        write_compressed(&mut w, self.linv().raw())?;
        marks.push((Section::Linv.name(), w.end_section()?));

        // U⁻¹ under its layout tag.
        let uinv = self.uinv_rows();
        w.write_all(&[LAYOUT_BLOCKED])?;
        let (row_ptr, run_ptr, run_base, run_end, deltas, values) = uinv.raw();
        write_words(&mut w, row_ptr)?;
        write_words(&mut w, &[run_base.len() as u64])?;
        write_words(&mut w, run_ptr)?;
        write_words(&mut w, run_base)?;
        write_words(&mut w, run_end)?;
        write_words(&mut w, &[deltas.len() as u64])?;
        write_words(&mut w, deltas)?;
        write_words(&mut w, values)?;
        marks.push((Section::Uinv.name(), w.end_section()?));

        // The per-row stats, read off the rows.
        for r in 0..uinv.nrows() as u32 {
            let stat = uinv.row_stat(r);
            write_words(&mut w, &[stat.nnz, stat.first, stat.last])?;
        }
        marks.push((Section::RowStats.name(), w.end_section()?));

        // Estimator constants.
        write_words(&mut w, &self.bounds().a_col_max)?;
        write_words(&mut w, &[self.bounds().a_max])?;
        write_words(&mut w, &self.bounds().c_prime)?;
        marks.push((Section::Estimator.name(), w.end_section()?));

        // The sparsification record: drop tolerance + per-column dropped
        // ℓ₁ masses of both inverses.
        write_words(&mut w, &[self.drop_tolerance()])?;
        let (linv_dropped, uinv_dropped) = self.dropped_masses();
        write_words(&mut w, linv_dropped)?;
        write_words(&mut w, uinv_dropped)?;
        marks.push((Section::DroppedMass.name(), w.end_section()?));

        // The dynamic-update trailer.
        let dangling_tag = match self.dangling_policy() {
            kdash_sparse::DanglingPolicy::Keep => DANGLING_KEEP,
            kdash_sparse::DanglingPolicy::SelfLoop => DANGLING_SELF_LOOP,
        };
        w.write_all(&[dangling_tag])?;
        write_words(&mut w, &[self.update_epoch()])?;
        marks.push((Section::Trailer.name(), w.end_section()?));

        marks.push((Section::Footer.name(), w.write_footer()?));
        Ok(marks)
    }

    /// Deserialises an index previously written by [`save`](Self::save)
    /// (format v5), re-validating all structural
    /// invariants and every integrity checksum; any other version is a
    /// typed [`PersistError::UnsupportedVersion`]. Build-time statistics
    /// are not stored; the loaded index reports zero durations with the
    /// correct nnz counts.
    pub fn load<R: Read>(r: R) -> Result<KdashIndex, PersistError> {
        Self::load_with_info(r).map(|(index, _)| index)
    }

    /// [`load`](Self::load) that also reports the file's format version
    /// and update epoch (`kdash verify` prints both).
    pub fn load_with_info<R: Read>(r: R) -> Result<(KdashIndex, LoadInfo), PersistError> {
        let mut r = SectionReader::new(r);

        // Header.
        let mut magic = [0u8; 8];
        r.fill(&mut magic, Section::Header)?;
        if &magic != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = r.word::<u32>(Section::Header)?;
        if version != VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let c = r.word::<f64>(Section::Header)?;
        let tag_at = r.offset();
        let tag = r.word::<u8>(Section::Header)?;
        let seed = r.word::<u64>(Section::Header)?;
        let ordering = decode_ordering(tag, seed)
            .ok_or_else(|| corrupt(Section::Header, tag_at, format!("unknown ordering tag {tag}")))?;
        let n = r.word::<usize>(Section::Header)?;
        r.end_section(Section::Header)?;

        // Permutation: checksum first, then the bijection check.
        let order = r.words::<u32>(Section::Permutation, n)?;
        r.end_section(Section::Permutation)?;
        let at = r.offset();
        let perm = Permutation::from_new_order(order)
            .map_err(|e| corrupt(Section::Permutation, at, format!("corrupt permutation: {e}")))?;

        // Permuted graph.
        let count_error = "graph edge count disagrees with row pointers";
        let (row_ptr, col_idx, weights) = read_compressed(&mut r, Section::Graph, n, count_error)?;
        r.end_section(Section::Graph)?;
        let at = r.offset();
        let graph = CsrGraph::from_raw_parts(row_ptr, col_idx, weights)
            .map_err(|e| corrupt(Section::Graph, at, format!("corrupt graph: {e}")))?;

        // L⁻¹ (CSC).
        let count_error = "matrix entry count disagrees with column pointers";
        let (col_ptr, row_idx, values) = read_compressed(&mut r, Section::Linv, n, count_error)?;
        r.end_section(Section::Linv)?;
        let at = r.offset();
        let linv = CscMatrix::from_raw_parts(n, n, col_ptr, row_idx, values)
            .map_err(|e| corrupt(Section::Linv, at, format!("corrupt matrix: {e}")))?;

        // U⁻¹. The count fields are untrusted on-disk data: they are
        // cross-checked against the pointer arrays here, and every vector
        // read caps its pre-allocation, so a corrupted count surfaces as a
        // typed error — never a capacity panic or an OOM abort. The format
        // invariants: nnz ≤ u32::MAX (run offsets are u32) and every row
        // has at most one run per nonzero.
        let tag_at = r.offset();
        let layout_tag = r.word::<u8>(Section::Uinv)?;
        if layout_tag != LAYOUT_BLOCKED {
            return Err(corrupt(
                Section::Uinv,
                tag_at,
                format!("unknown row-layout tag {layout_tag}"),
            ));
        }
        let b_row_ptr = r.words::<usize>(Section::Uinv, n + 1)?;
        let expect_nnz = b_row_ptr.last().copied().unwrap_or(0);
        if expect_nnz > u32::MAX as usize {
            return Err(corrupt(Section::Uinv, r.offset(), "blocked U⁻¹ claims ≥ 2^32 entries"));
        }
        let nruns_at = r.offset();
        let nruns = r.word::<usize>(Section::Uinv)?;
        if nruns > expect_nnz {
            return Err(corrupt(
                Section::Uinv,
                nruns_at,
                "blocked U⁻¹ claims more runs than entries",
            ));
        }
        let run_ptr = r.words::<usize>(Section::Uinv, n + 1)?;
        let run_base = r.words::<u32>(Section::Uinv, nruns)?;
        let run_end = r.words::<u32>(Section::Uinv, nruns)?;
        let nnz_at = r.offset();
        let nnz = r.word::<usize>(Section::Uinv)?;
        if nnz != expect_nnz {
            return Err(corrupt(
                Section::Uinv,
                nnz_at,
                "blocked U⁻¹ entry count disagrees with row pointers",
            ));
        }
        let deltas = r.words::<u16>(Section::Uinv, nnz)?;
        let values = r.words::<f64>(Section::Uinv, nnz)?;
        r.end_section(Section::Uinv)?;
        let uinv = ProximityStore::from_raw_parts(
            n, n, b_row_ptr, run_ptr, run_base, run_end, deltas, values,
        )
        .map_err(|e| corrupt(Section::Uinv, r.offset(), format!("corrupt blocked U⁻¹: {e}")))?;

        // The persisted row stats must match the arrays they claim to
        // describe: a mismatch means either section is corrupt.
        for i in 0..n {
            let expect = uinv.row_stat(i as u32);
            let at = r.offset();
            let got = RowStat {
                nnz: r.word::<u32>(Section::RowStats)?,
                first: r.word::<u32>(Section::RowStats)?,
                last: r.word::<u32>(Section::RowStats)?,
            };
            if got != expect {
                return Err(corrupt(
                    Section::RowStats,
                    at,
                    format!("row-stats section disagrees with U⁻¹ at row {i}"),
                ));
            }
        }
        r.end_section(Section::RowStats)?;

        // Estimator constants: held until the index they describe is
        // assembled.
        let estimator_at = r.offset();
        let a_col_max = r.words::<f64>(Section::Estimator, n)?;
        let a_max = r.word::<f64>(Section::Estimator)?;
        let c_prime = r.words::<f64>(Section::Estimator, n)?;
        r.end_section(Section::Estimator)?;

        // The sparsification record.
        let eps_at = r.offset();
        let drop_tolerance = r.word::<f64>(Section::DroppedMass)?;
        if !(drop_tolerance.is_finite() && drop_tolerance >= 0.0) {
            return Err(corrupt(
                Section::DroppedMass,
                eps_at,
                format!("drop tolerance {drop_tolerance} must be finite and >= 0"),
            ));
        }
        let masses_at = r.offset();
        let linv_dropped = r.words::<f64>(Section::DroppedMass, n)?;
        let uinv_dropped = r.words::<f64>(Section::DroppedMass, n)?;
        if linv_dropped.iter().chain(&uinv_dropped).any(|m| *m < 0.0) {
            return Err(corrupt(Section::DroppedMass, masses_at, "negative dropped-mass entry"));
        }
        r.end_section(Section::DroppedMass)?;

        // The dynamic-update trailer.
        let tag_at = r.offset();
        let dangling = match r.word::<u8>(Section::Trailer)? {
            DANGLING_KEEP => kdash_sparse::DanglingPolicy::Keep,
            DANGLING_SELF_LOOP => kdash_sparse::DanglingPolicy::SelfLoop,
            other => {
                return Err(corrupt(
                    Section::Trailer,
                    tag_at,
                    format!("unknown dangling-policy tag {other}"),
                ))
            }
        };
        let update_epoch = r.word::<u64>(Section::Trailer)?;
        r.end_section(Section::Trailer)?;

        r.verify_footer()?;
        let end = r.offset();

        // A file holds no factors, so their counts read zero.
        let index = KdashIndex::assemble(IndexParts {
            c,
            ordering,
            dangling,
            update_epoch,
            perm,
            graph,
            linv,
            uinv,
            drop_tolerance,
            linv_dropped,
            uinv_dropped,
            nnz_l: 0,
            nnz_u: 0,
        })
        .map_err(|e| corrupt(Section::Index, end, format!("inconsistent index components: {e}")))?;

        // The index derived its constants from the graph just validated:
        // refuse a file whose stored ones differ by a bit — they would
        // bound another matrix than the one the file indexes.
        let bounds = index.bounds();
        let stored = a_col_max.iter().chain([&a_max]).chain(&c_prime);
        let derived = bounds.a_col_max.iter().chain([&bounds.a_max]).chain(&bounds.c_prime);
        if let Some(at) = stored.zip(derived).position(|(s, d)| s.to_bits() != d.to_bits()) {
            return Err(corrupt(
                Section::Estimator,
                estimator_at + 8 * at as u64,
                "estimator section disagrees with the constants of the stored graph",
            ));
        }
        Ok((index, LoadInfo { version, update_epoch }))
    }
}

/// Atomically writes `index` to `path`: serialise to `<path>.tmp`, flush
/// and fsync, rename over the destination, then fsync the parent
/// directory (best effort) so the rename itself is durable. A crash at
/// any point leaves either the old file or the new one — never a
/// half-written index. Transient failures (`EINTR`-class) are retried
/// with bounded backoff; everything else returns a typed
/// [`PersistError::Io`] naming the failing [`IoStage`]. On error the
/// temp file is removed.
pub fn save_atomic<P: AsRef<Path>>(index: &KdashIndex, path: P) -> Result<(), PersistError> {
    save_atomic_with(index, path, &crate::fault::NoFaults)
}

/// [`save_atomic`] with an injectable fault layer: every write, fsync
/// and rename consults `faults` first, so a crash-point sweep can tear
/// the protocol at any byte and assert the old-or-new guarantee. With
/// [`NoFaults`](crate::fault::NoFaults) this *is* the production path —
/// there is deliberately only one implementation of the protocol,
/// [`replace_atomic`](crate::fault::replace_atomic), which the update
/// journal's checkpoint shares.
///
/// An injected crash skips the temp-file cleanup (a dead process does
/// not clean up either), leaving faithful crash debris for recovery
/// tests; real errors still remove the temp file.
pub fn save_atomic_with<P: AsRef<Path>>(
    index: &KdashIndex,
    path: P,
    faults: &dyn crate::fault::FaultInjector,
) -> Result<(), PersistError> {
    // Serialise into memory first so the file sees exactly one write
    // call — that gives the fault layer clean torn-prefix semantics
    // (crash after byte k of the file, for every k).
    let mut bytes = Vec::with_capacity(serialized_size_hint(index));
    index.save(&mut bytes).map_err(|error| PersistError::Io { stage: IoStage::TmpWrite, error })?;
    crate::fault::replace_atomic(path.as_ref(), &bytes, faults)
        .map(drop)
        .map_err(|(stage, error)| PersistError::Io { stage, error })
}

/// An upper estimate of the serialised size, so the buffer
/// [`save_atomic_with`] fills is allocated once: the stored inverses are
/// all but a few percent of a file, the graph's arrays and the per-node
/// vectors the rest.
fn serialized_size_hint(index: &KdashIndex) -> usize {
    let stats = index.stats();
    stats.inverse_heap_bytes + 16 * stats.num_edges + 128 * stats.num_nodes + 4096
}

/// Writes the arrays of a compressed matrix — the graph's CSR rows or
/// `L⁻¹`'s CSC columns: the pointers, the entry count, the indices and the
/// values.
fn write_compressed<W: Write>(
    w: &mut W,
    (ptr, idx, values): (&[usize], &[u32], &[f64]),
) -> io::Result<()> {
    write_words(w, ptr)?;
    write_words(w, &[idx.len() as u64])?;
    write_words(w, idx)?;
    write_words(w, values)
}

/// Reads what [`write_compressed`] writes for `n` rows or columns,
/// checking the entry count against the pointers (`count_error`) *before*
/// it sizes any read, so an inflated count never triggers a huge
/// allocation. The caller verifies the section checksum, then validates
/// the arrays by constructing the matrix.
#[allow(clippy::type_complexity)]
fn read_compressed<R: Read>(
    r: &mut SectionReader<R>,
    sec: Section,
    n: usize,
    count_error: &str,
) -> Result<(Vec<usize>, Vec<u32>, Vec<f64>), PersistError> {
    let ptr = r.words::<usize>(sec, n + 1)?;
    let nnz_at = r.offset();
    let nnz = r.word::<usize>(sec)?;
    if nnz != ptr.last().copied().unwrap_or(0) {
        return Err(corrupt(sec, nnz_at, count_error));
    }
    let idx = r.words::<u32>(sec, nnz)?;
    let values = r.words::<f64>(sec, nnz)?;
    Ok((ptr, idx, values))
}

fn encode_ordering(ordering: NodeOrdering) -> (u8, u64) {
    match ordering {
        NodeOrdering::Natural => (0, 0),
        NodeOrdering::Random { seed } => (1, seed),
        NodeOrdering::Degree => (2, 0),
        NodeOrdering::Cluster => (3, 0),
        NodeOrdering::Hybrid => (4, 0),
        NodeOrdering::ReverseCuthillMcKee => (5, 0),
        NodeOrdering::MinDegree => (6, 0),
    }
}

fn decode_ordering(tag: u8, seed: u64) -> Option<NodeOrdering> {
    Some(match tag {
        0 => NodeOrdering::Natural,
        1 => NodeOrdering::Random { seed },
        2 => NodeOrdering::Degree,
        3 => NodeOrdering::Cluster,
        4 => NodeOrdering::Hybrid,
        5 => NodeOrdering::ReverseCuthillMcKee,
        6 => NodeOrdering::MinDegree,
        _ => return None,
    })
}

/// One little-endian word of the format: every scalar and array element
/// of a file is one. A `usize` is stored as a `u64`.
trait Word: Copy {
    type Bytes: Default + AsRef<[u8]> + AsMut<[u8]>;
    fn to_le(self) -> Self::Bytes;
    fn from_le(bytes: Self::Bytes) -> Self;
    /// Whether an array may hold the word as read: nothing in an index is
    /// legitimately NaN or infinite. Every integer converts to a finite
    /// float, so only an `f64` can fail.
    fn admissible(self) -> bool;
}

macro_rules! le_word {
    ($($word:ty as $stored:ty),*) => {$(
        impl Word for $word {
            type Bytes = [u8; std::mem::size_of::<$stored>()];
            fn to_le(self) -> Self::Bytes { (self as $stored).to_le_bytes() }
            fn from_le(bytes: Self::Bytes) -> Self { <$stored>::from_le_bytes(bytes) as $word }
            fn admissible(self) -> bool { (self as f64).is_finite() }
        }
    )*};
}
le_word!(u8 as u8, u16 as u16, u32 as u32, u64 as u64, usize as u64, f64 as f64);

/// Writes `words` little-endian, one chunk of a fixed 4 KiB buffer at a
/// time: a save's transient memory does not grow with the slice.
fn write_words<W: Write, T: Word>(w: &mut W, words: &[T]) -> io::Result<()> {
    let size = std::mem::size_of::<T::Bytes>();
    let mut buf = [0u8; 4096];
    for chunk in words.chunks(buf.len() / size) {
        for (slot, word) in buf.chunks_exact_mut(size).zip(chunk) {
            slot.copy_from_slice(word.to_le().as_ref());
        }
        w.write_all(&buf[..chunk.len() * size])?;
    }
    Ok(())
}

/// Cap on the up-front capacity the readers trust an on-disk count for:
/// beyond it the vector grows as bytes actually arrive, so an inflated
/// count field runs into EOF instead of attempting a multi-gigabyte
/// allocation.
const MAX_TRUSTED_PREALLOC: usize = 1 << 20;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexAudit, IndexOptions};
    use kdash_graph::GraphBuilder;
    use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
    use std::fs::{self, File};

    fn sample_index() -> KdashIndex {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = GraphBuilder::new(40);
        for v in 0..40u32 {
            for _ in 0..3 {
                let t = rng.gen_range(0..40);
                if t != v {
                    b.add_edge(v, t, rng.gen_range(0.5..2.0));
                }
            }
        }
        KdashIndex::build(&b.build().unwrap(), IndexOptions::default()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_queries() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        assert!(buf.len() <= serialized_size_hint(&index), "save_atomic's buffer would regrow");
        let loaded = KdashIndex::load(buf.as_slice()).unwrap();
        assert_eq!(loaded.num_nodes(), index.num_nodes());
        assert_eq!(loaded.restart_probability(), index.restart_probability());
        assert_eq!(loaded.ordering(), index.ordering());
        assert_eq!(loaded.uinv_rows(), index.uinv_rows());
        for q in [0u32, 13, 39] {
            let a = index.top_k(q, 7).unwrap();
            let b = loaded.top_k(q, 7).unwrap();
            assert_eq!(a.nodes(), b.nodes());
            for (x, y) in a.items.iter().zip(&b.items) {
                assert_eq!(x.proximity, y.proximity, "bit-exact reload expected");
            }
        }
    }

    /// No build writes the flat layout any more, and the reader no longer
    /// takes it: a file whose `U⁻¹` tag is rewritten to the old flat tag
    /// `0` and re-signed — every checksum right — is a typed corrupt
    /// `U⁻¹` section, never a panic or a checksum error.
    #[test]
    fn a_flat_layout_tag_is_refused_as_corrupt() {
        let index = sample_index();
        let mut buf = Vec::new();
        let marks = index.save_with_section_offsets(&mut buf).unwrap();
        let end_of = |name: &str| marks.iter().find(|m| m.0 == name).unwrap().1 as usize;
        let (start, end) = (end_of("linv"), end_of("uinv"));
        assert_eq!(buf[start], LAYOUT_BLOCKED, "the U⁻¹ section opens with its tag");
        buf[start] = 0;
        reseal(&mut buf, start, end);
        match KdashIndex::load(buf.as_slice()).unwrap_err() {
            PersistError::Corrupt { section: Section::Uinv, offset, detail } => {
                assert_eq!(offset, start as u64, "the error names the tag byte");
                assert!(detail.contains("unknown row-layout tag 0"), "{detail}");
            }
            other => panic!("expected Corrupt in the uinv section, got {other:?}"),
        }
    }

    /// Re-signs `buf` after an edit inside the section that spans
    /// `start..end`, its CRC field included: the section CRC and the
    /// whole-file footer are made to agree with the edit.
    fn reseal(buf: &mut [u8], start: usize, end: usize) {
        let section_crc = crc32(&buf[start..end - 4]);
        buf[end - 4..end].copy_from_slice(&section_crc.to_le_bytes());
        let footer = buf.len() - 12;
        let file_crc = crc32(&buf[..footer]);
        buf[footer + 8..].copy_from_slice(&file_crc.to_le_bytes());
    }

    /// A dense-exact record (`ε = 0`) that claims a dropped mass, every
    /// checksum right, is refused where the index is assembled.
    #[test]
    fn dropped_mass_under_a_zero_drop_tolerance_is_corrupt() {
        let index = sample_index();
        let mut buf = Vec::new();
        let marks = index.save_with_section_offsets(&mut buf).unwrap();
        let end_of = |name: &str| marks.iter().find(|m| m.0 == name).unwrap().1 as usize;
        let (start, end) = (end_of("estimator"), end_of("dropped-mass"));
        // The section opens with ε, then the first L⁻¹ column's mass.
        assert_eq!(buf[start..start + 8], 0.0f64.to_le_bytes());
        buf[start + 8..start + 16].copy_from_slice(&1e-9f64.to_le_bytes());
        reseal(&mut buf, start, end);
        match KdashIndex::load(buf.as_slice()).unwrap_err() {
            PersistError::Corrupt { section: Section::Index, detail, .. } => {
                assert!(detail.contains("zero drop tolerance"), "{detail}");
            }
            other => panic!("expected Corrupt at the index, got {other:?}"),
        }
    }

    #[test]
    fn loaded_stats_carry_nnz() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = KdashIndex::load(buf.as_slice()).unwrap();
        assert_eq!(loaded.stats().nnz_l_inv, index.stats().nnz_l_inv);
        assert_eq!(loaded.stats().nnz_u_inv, index.stats().nnz_u_inv);
        assert_eq!(loaded.stats().num_edges, index.stats().num_edges);
        assert_eq!(loaded.stats().uinv_index_bytes, index.stats().uinv_index_bytes);
    }

    #[test]
    fn trailer_roundtrips_epoch_and_dangling_and_rejects_an_unknown_tag() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0); // nodes 2..5 dangle
        let g = b.build().unwrap();
        let index = KdashIndex::build(
            &g,
            IndexOptions {
                dangling: kdash_sparse::DanglingPolicy::SelfLoop,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(index.update_epoch(), 0);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = KdashIndex::load(buf.as_slice()).unwrap();
        assert_eq!(loaded.update_epoch(), 0);
        assert_eq!(loaded.dangling_policy(), kdash_sparse::DanglingPolicy::SelfLoop);
        // An unknown dangling tag in the trailer is rejected. The file
        // tail is trailer payload (9) + trailer CRC (4) + footer (12) —
        // the dropped-mass section sits before the trailer.
        let tag_off = buf.len() - 25;
        let mut bad = buf.clone();
        bad[tag_off] = 7;
        assert!(KdashIndex::load(bad.as_slice()).is_err());
    }

    /// The one-table, byte-at-a-time CRC the slicing-by-8 `update` must
    /// reproduce bit for bit (files and journal frames depend on it).
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let step = |s: u32, &b: &u8| (s >> 8) ^ CRC_TABLES[0][((s ^ b as u32) & 0xFF) as usize];
        bytes.iter().fold(0xFFFF_FFFF, step) ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_crc_at_every_length_and_split() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "the IEEE 802.3 check value");
        let mut rng = StdRng::seed_from_u64(11);
        let data: Vec<u8> = (0..64).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), crc32_bytewise(&data[..len]), "length {len}");
        }
        for split in 0..=data.len() {
            let mut streamed = Crc32::new();
            streamed.update(&data[..split]);
            streamed.update(&data[split..]);
            assert_eq!(streamed.value(), crc32_bytewise(&data), "split at {split}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = KdashIndex::load(&b"NOTANIDX0000"[..]).unwrap_err();
        assert!(matches!(err, PersistError::BadMagic), "got {err:?}");
    }

    #[test]
    fn truncation_rejected() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        for cut in [10usize, buf.len() / 2, buf.len() - 3] {
            assert!(KdashIndex::load(&buf[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corruption_rejected() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        // Flip bytes inside the permutation region (the header spans
        // 37 payload bytes + its 4-byte CRC): the permutation section's
        // checksum must catch the damage.
        let off = 8 + 4 + 8 + 1 + 8 + 8 + 4;
        buf[off] ^= 0xFF;
        buf[off + 1] ^= 0xFF;
        let err = KdashIndex::load(buf.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::ChecksumMismatch { section: Section::Permutation, .. }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn load_info_reports_version_and_checksumming() {
        let index = sample_index();
        let mut v5 = Vec::new();
        index.save(&mut v5).unwrap();
        let (_, info) = KdashIndex::load_with_info(v5.as_slice()).unwrap();
        assert_eq!(info, LoadInfo { version: 5, update_epoch: 0 });

        // The reader takes v5 alone: the unchecksummed v1–v3, the
        // pre-sparsification v4 (and anything newer than this build) are
        // refused at the version field, before any payload is parsed.
        for version in [0u32, 1, 2, 3, 4, 6] {
            let mut header = v5[..12].to_vec();
            header[8..12].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                KdashIndex::load(header.as_slice()).unwrap_err(),
                PersistError::UnsupportedVersion(v) if v == version
            ));
        }
    }

    #[test]
    fn section_offsets_partition_the_file() {
        let index = sample_index();
        let mut buf = Vec::new();
        let marks = index.save_with_section_offsets(&mut buf).unwrap();
        let names: Vec<&str> = marks.iter().map(|&(name, _)| name).collect();
        assert_eq!(
            names,
            [
                "header",
                "permutation",
                "graph",
                "linv",
                "uinv",
                "row-stats",
                "estimator",
                "dropped-mass",
                "trailer",
                "footer"
            ]
        );
        // Offsets are strictly increasing and the footer ends the file.
        for pair in marks.windows(2) {
            assert!(pair[0].1 < pair[1].1);
        }
        assert_eq!(marks.last().map(|&(_, off)| off), Some(buf.len() as u64));
    }

    #[test]
    fn flipped_section_crc_is_a_checksum_mismatch() {
        let index = sample_index();
        let mut buf = Vec::new();
        let marks = index.save_with_section_offsets(&mut buf).unwrap();
        // The graph section's CRC field is the 4 bytes before its end mark.
        let graph_end = marks
            .iter()
            .find(|&&(name, _)| name == "graph")
            .map(|&(_, off)| off as usize)
            .unwrap();
        let mut bad = buf.clone();
        bad[graph_end - 4] ^= 0x01;
        let err = KdashIndex::load(bad.as_slice()).unwrap_err();
        assert!(
            matches!(err, PersistError::ChecksumMismatch { section: Section::Graph, .. }),
            "got {err:?}"
        );
    }

    /// A file can be internally consistent — every checksum right — and
    /// still carry constants of another matrix than the graph it stores.
    #[test]
    fn estimator_section_that_disagrees_with_the_graph_is_corrupt() {
        let index = sample_index();
        let mut buf = Vec::new();
        let marks = index.save_with_section_offsets(&mut buf).unwrap();
        let end_of = |name: &str| marks.iter().find(|m| m.0 == name).unwrap().1 as usize;
        let (start, end) = (end_of("row-stats"), end_of("estimator"));
        // One mantissa bit of the last stored c′ (the 8 bytes before the
        // section's CRC field), then the section CRC and the footer made
        // to agree with it.
        let flipped = end - 12;
        buf[flipped] ^= 0x01;
        reseal(&mut buf, start, end);
        match KdashIndex::load(buf.as_slice()).unwrap_err() {
            PersistError::Corrupt { section: Section::Estimator, offset, .. } => {
                assert_eq!(offset, flipped as u64, "the error names the stored field");
            }
            other => panic!("expected Corrupt in the estimator section, got {other:?}"),
        }
    }

    #[test]
    fn flipped_footer_is_detected() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        // Footer magic byte.
        let mut bad = buf.clone();
        let footer = buf.len() - 12;
        bad[footer] ^= 0x40;
        assert!(matches!(
            KdashIndex::load(bad.as_slice()).unwrap_err(),
            PersistError::Corrupt { section: Section::Footer, .. }
        ));
        // Whole-file CRC byte.
        let mut bad = buf.clone();
        bad[buf.len() - 1] ^= 0x40;
        assert!(matches!(
            KdashIndex::load(bad.as_slice()).unwrap_err(),
            PersistError::ChecksumMismatch { section: Section::Footer, .. }
        ));
    }

    #[test]
    fn save_atomic_writes_loadable_file_and_cleans_tmp() {
        let index = sample_index();
        let dir = std::env::temp_dir().join(format!("kdash-persist-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.kdash");
        save_atomic(&index, &path).unwrap();
        assert!(path.exists());
        assert!(!dir.join("sample.kdash.tmp").exists(), "temp file must be renamed away");
        let loaded = KdashIndex::load(io::BufReader::new(File::open(&path).unwrap())).unwrap();
        assert_eq!(loaded.num_nodes(), index.num_nodes());
        // Overwrite in place: still atomic, still loadable.
        save_atomic(&index, &path).unwrap();
        assert!(KdashIndex::load(io::BufReader::new(File::open(&path).unwrap())).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// What a sweep mutation writes into a word of a saved file.
    #[derive(Debug, Clone, Copy)]
    enum Class {
        /// A count field or an integer scalar.
        Count,
        /// A node, row or column id, a delta, an offset or a tag.
        Id,
        /// An interior entry of a pointer array over `len` payload entries.
        Pointer { len: u64 },
        /// An `f64`.
        Value,
    }

    /// Every field and array of `index`'s saved file, in stream order, as
    /// `(section, byte offset, width, count, class)`.
    fn file_words(
        index: &KdashIndex,
        marks: &[(&'static str, u64)],
    ) -> Vec<(usize, usize, usize, usize, Class)> {
        let n = index.num_nodes();
        let m = index.permuted_graph().num_edges();
        let l_nnz = index.linv_cols().nnz();
        let (_, _, run_base, _, deltas, _) = index.uinv_rows().raw();
        let (runs, u_nnz) = (run_base.len(), deltas.len());
        let ptr = |len: usize| (8, n + 1, Class::Pointer { len: len as u64 });
        use Class::{Count, Id, Value};
        let sections: [&[(usize, usize, Class)]; 9] = [
            &[(8, 1, Id), (4, 1, Id), (8, 1, Value), (1, 1, Id), (8, 1, Count), (8, 1, Count)],
            &[(4, n, Id)],
            &[ptr(m), (8, 1, Count), (4, m, Id), (8, m, Value)],
            &[ptr(l_nnz), (8, 1, Count), (4, l_nnz, Id), (8, l_nnz, Value)],
            &[
                (1, 1, Id),
                ptr(u_nnz),
                (8, 1, Count),
                ptr(runs),
                (4, runs, Id),
                (4, runs, Id),
                (8, 1, Count),
                (2, u_nnz, Id),
                (8, u_nnz, Value),
            ],
            &[(4, 3 * n, Id)],
            &[(8, n, Value), (8, 1, Value), (8, n, Value)],
            &[(8, 1, Value), (8, n, Value), (8, n, Value)],
            &[(1, 1, Id), (8, 1, Count)],
        ];
        let mut words = Vec::new();
        let mut at = 0;
        for (section, fields) in sections.iter().enumerate() {
            for &(width, count, class) in fields.iter() {
                words.push((section, at, width, count, class));
                at += width * count;
            }
            assert_eq!(at as u64 + 4, marks[section].1, "{} section layout", marks[section].0);
            at += 4;
        }
        words
    }

    /// The value a sweep writes over `old`, a word of `width` bytes.
    fn mutated(old: u64, width: usize, class: Class, rng: &mut StdRng) -> u64 {
        let max = u64::MAX >> (64 - 8 * width);
        let any = rng.next_u64() & max;
        let (up, down) = (old.wrapping_add(1), old.saturating_sub(1));
        match class {
            Class::Pointer { len } => {
                [len + rng.gen_range(1..=9), 2 * len, up, down, 0, any][rng.gen_range(0..6)]
            }
            Class::Count => [up, down, 0, max, old.wrapping_mul(2), any][rng.gen_range(0..6)],
            Class::Id => {
                let flip = old ^ 1 << rng.gen_range(0..8 * width);
                [up, down, 0, max, flip, any][rng.gen_range(0..6)] & max
            }
            Class::Value => {
                let old = f64::from_bits(old);
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -old, -1.0, 5e-324, 1e308, 0.0]
                    [rng.gen_range(0..8)]
                .to_bits()
            }
        }
    }

    /// Every query entry point on `index`, from its first and its last
    /// node: how many answered `Ok` (the rest returned a typed
    /// `KdashError`).
    fn query_every_entry_point(index: &KdashIndex) -> usize {
        let last = index.num_nodes().saturating_sub(1) as kdash_graph::NodeId;
        let mut answered = 0;
        for q in [0, last] {
            answered += index.top_k(q, 5).is_ok() as usize;
            answered += index.nodes_above(q, 1e-3).is_ok() as usize;
            answered += index.top_k_from_set(&[q, last / 2], 5).is_ok() as usize;
            answered += crate::Searcher::new(index).refined_full_proximities(&[q]).is_ok() as usize;
        }
        answered
    }

    /// The loader sweep: one word of one field at a time — interior
    /// pointer entries, counts, ids and values (NaN, ±∞, negative,
    /// denormal) of every section of a dense and a certified index — is
    /// overwritten and the file resealed, so that only validation stands
    /// between the bytes and an index. Every load returns `Ok` or a typed
    /// `PersistError`, never a panic, and every index that loads gets
    /// through the audit (`kdash verify`) and every query entry point
    /// (`top_k`, `nodes_above`, `top_k_from_set`, the refined full vector)
    /// without one: each query returns `Ok` or a typed `KdashError`.
    #[test]
    fn resealed_word_mutations_load_typed_and_audit_without_panic() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut b = GraphBuilder::new(100);
        for v in 0..100u32 {
            for _ in 0..3 {
                let t = rng.gen_range(0..100);
                if t != v {
                    b.add_edge(v, t, rng.gen_range(0.5..2.0));
                }
            }
        }
        let g = b.build().unwrap();
        let (mut loads, mut loaded, mut answered) = (0, 0, 0);
        for drop_tolerance in [0.0, 1e-4] {
            let index =
                KdashIndex::build(&g, IndexOptions { drop_tolerance, ..Default::default() })
                    .unwrap();
            let mut clean = Vec::new();
            let marks = index.save_with_section_offsets(&mut clean).unwrap();
            for (section, start, width, count, class) in file_words(&index, &marks) {
                let words = match class {
                    Class::Pointer { .. } => 1..count - 1,
                    _ => 0..count,
                };
                for _ in 0..if words.is_empty() { 0 } else { 20 } {
                    let at = start + width * rng.gen_range(words.clone());
                    let mut buf = clean.clone();
                    let mut word = [0u8; 8];
                    word[..width].copy_from_slice(&buf[at..at + width]);
                    let new = mutated(u64::from_le_bytes(word), width, class, &mut rng);
                    buf[at..at + width].copy_from_slice(&new.to_le_bytes()[..width]);
                    let section_start = if section == 0 { 0 } else { marks[section - 1].1 };
                    reseal(&mut buf, section_start as usize, marks[section].1 as usize);
                    let outcome = std::panic::catch_unwind(|| {
                        KdashIndex::load(buf.as_slice()).map(|index| {
                            IndexAudit::run(&index);
                            query_every_entry_point(&index)
                        })
                    });
                    let Ok(outcome) = outcome else {
                        panic!(
                            "ε {drop_tolerance}: {} section, byte {at} set to {new:#x}: panicked",
                            marks[section].0
                        );
                    };
                    loads += 1;
                    if let Ok(ok) = outcome {
                        loaded += 1;
                        answered += ok;
                    }
                }
            }
        }
        assert!(loads >= 1000, "{loads} loads");
        assert!(loaded > 0 && answered > 0, "{loaded} indexes loaded, {answered} queries answered");
    }
}
