//! The write-ahead update journal: durable [`UpdateBatch`] records for
//! deterministic crash recovery.
//!
//! A journal is a sidecar file (`<index>.kdash.journal` by convention —
//! see [`Journal::sidecar_path`]) holding the batches applied since the
//! last snapshot checkpoint. In journaled mode the dynamic engine
//! appends and fsyncs each batch's frame *before* switching to the
//! patched index, so an acknowledged apply is durable by definition;
//! after a successful
//! [`save_atomic`](kdash_core::persist::save_atomic) checkpoint the
//! journal is truncated (atomically, by renaming a fresh header-only
//! journal into place). Recovery loads the last snapshot, replays the
//! frames above its epoch in one coalesced pass — bit-identical to
//! having applied them live — and reattaches the journal.
//!
//! ## On-disk format
//!
//! All integers little-endian, CRCs the same table-driven IEEE CRC32
//! the index snapshot format uses ([`kdash_core::persist::crc32`]).
//!
//! ```text
//! header (24 bytes, fixed):
//!   magic            8B  "KDASHJNL"
//!   version          4B  u32 (currently 1)
//!   checkpoint epoch 8B  u64 — epoch of the snapshot this journal
//!                        continues from
//!   header crc       4B  CRC32 of the preceding 20 bytes
//! frame (one per batch, appended in epoch order):
//!   payload length   4B  u32
//!   payload              epoch u64, edit count u32, then per edit:
//!                        op u8 (0 insert / 1 delete / 2 reweight),
//!                        src u32, dst u32, weight f64 (insert/reweight)
//!   frame crc        4B  CRC32 of length field + payload
//! ```
//!
//! Frames record *user-space* batches (original node ids, exactly what
//! [`DynamicIndex::apply`](crate::DynamicIndex::apply) received), so
//! replay goes through the full validation and permutation path and the
//! journal stays meaningful if the snapshot is rebuilt under a new node
//! order. Epochs within a journal are contiguous and ascending; the
//! first frame continues the header's checkpoint epoch. A torn tail — a
//! crash mid-append leaves a prefix of a frame — is detected by the
//! length/CRC framing, reported (never a panic), and truncated away on
//! reopen; the torn frame was by construction never acknowledged.
//!
//! Every write, fsync, rename and truncate routes through a
//! [`FaultInjector`], so the crash-point sweep in
//! `tests/failure_injection.rs` can tear this protocol at every byte
//! and assert recovery.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use kdash_core::fault::{
    injected_write, is_injected_crash, replace_atomic, retry_transient, sync_parent_dir,
    FaultInjector, NoFaults,
};
use kdash_core::persist::crc32;
use kdash_core::{IoStage, KdashError, PersistError};
use kdash_graph::EdgeEdit;

use crate::batch::UpdateBatch;

/// First bytes of every journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"KDASHJNL";
/// Current journal format version.
pub const JOURNAL_VERSION: u32 = 1;
/// Fixed byte length of the journal header.
pub const HEADER_LEN: u64 = 24;
/// Upper bound on a single frame's payload, rejected as torn beyond it —
/// a length field this large is damage, not data (it would be a single
/// batch of ~16M edits).
const MAX_PAYLOAD: u32 = 1 << 28;

const OP_INSERT: u8 = 0;
const OP_DELETE: u8 = 1;
const OP_REWEIGHT: u8 = 2;

/// Why a journal operation failed. Everything an operator can hit has a
/// typed shape; `Display` renders the operator-facing message.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying I/O failure; `op` names the operation.
    Io {
        /// The journal operation that failed (`"read"`, `"append"`, …).
        op: &'static str,
        /// The journal file involved.
        path: String,
        /// The underlying error.
        error: io::Error,
    },
    /// The file exists but does not begin with the `KDASHJNL` magic —
    /// almost certainly not a journal at all, so it is *not* treated as
    /// a torn header (which would repair-overwrite it).
    NotAJournal {
        /// The offending path.
        path: String,
    },
    /// The journal's format version is newer than this build reads.
    UnsupportedVersion {
        /// The version recorded in the header.
        version: u32,
    },
    /// A previous append failed and the torn tail could not be healed
    /// in place; the journal refuses further appends. Reopen (which
    /// truncates the tail) or run recovery.
    Poisoned,
    /// The journal's tail epoch does not match the index epoch it is
    /// being attached to (or an append skipped an epoch). Run recovery
    /// instead of attaching blindly.
    EpochMismatch {
        /// The journal's last durable epoch.
        journal: u64,
        /// The index's (or the appended batch's) epoch.
        index: u64,
    },
    /// The journal's surviving records skip epochs immediately above the
    /// snapshot: acknowledged history was lost out-of-band (a deleted or
    /// swapped journal). Recovery refuses rather than silently skipping.
    EpochGap {
        /// The snapshot's update epoch.
        snapshot: u64,
        /// The first journal epoch above it.
        first_record: u64,
    },
    /// A journaled operation needs journaled mode, but no journal is
    /// attached to the engine.
    NotJournaled,
    /// Loading or checkpointing the snapshot failed.
    Persist(PersistError),
    /// Replaying journal records through the update engine failed.
    Index(KdashError),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { op, path, error } => {
                write!(f, "journal {op} failed for {path}: {error}")
            }
            JournalError::NotAJournal { path } => {
                write!(f, "{path} is not a K-dash update journal (bad magic)")
            }
            JournalError::UnsupportedVersion { version } => {
                write!(
                    f,
                    "unsupported journal version {version} (this build reads {JOURNAL_VERSION})"
                )
            }
            JournalError::Poisoned => write!(
                f,
                "journal is poisoned by an unhealed append failure — reopen it (which \
                 truncates the torn tail) or run recovery"
            ),
            JournalError::EpochMismatch { journal, index } => write!(
                f,
                "journal tail epoch {journal} does not continue index epoch {index} — \
                 run `kdash recover` (or DynamicIndex::recover) instead of attaching"
            ),
            JournalError::EpochGap { snapshot, first_record } => write!(
                f,
                "journal records jump from snapshot epoch {snapshot} to {first_record}: \
                 acknowledged batches are missing — restore the matching journal or \
                 accept the snapshot state by deleting the sidecar"
            ),
            JournalError::NotJournaled => {
                write!(f, "no journal attached — enable journaled mode first")
            }
            JournalError::Persist(e) => write!(f, "snapshot error during journal operation: {e}"),
            JournalError::Index(e) => write!(f, "replay error during recovery: {e}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { error, .. } => Some(error),
            JournalError::Persist(e) => Some(e),
            JournalError::Index(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for JournalError {
    fn from(e: PersistError) -> Self {
        JournalError::Persist(e)
    }
}

impl From<KdashError> for JournalError {
    fn from(e: KdashError) -> Self {
        JournalError::Index(e)
    }
}

/// Where and why a scan stopped believing the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first bad frame (or 0 for a torn header).
    pub offset: u64,
    /// What was wrong there.
    pub detail: String,
}

/// The result of scanning a journal file without loading an index:
/// everything `kdash verify --journal` and `kdash info` print, and
/// everything recovery needs to decide what to replay.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalScan {
    /// Whether the 24-byte header parsed and its CRC matched.
    pub header_ok: bool,
    /// The checkpoint epoch recorded in the header (`None` if the
    /// header was torn).
    pub checkpoint_epoch: Option<u64>,
    /// Number of intact frames.
    pub records: u64,
    /// Epoch of the first intact frame.
    pub first_epoch: Option<u64>,
    /// Epoch of the last intact frame.
    pub last_epoch: Option<u64>,
    /// Total edits across intact frames.
    pub edits: u64,
    /// Offset one past the last intact frame (== the offset reopening
    /// truncates to). `HEADER_LEN` for an empty journal.
    pub good_bytes: u64,
    /// The file's actual length.
    pub file_bytes: u64,
    /// Set iff the scan stopped early at damage.
    pub torn: Option<TornTail>,
}

impl JournalScan {
    /// The epoch the journal's durable history ends at: the last frame,
    /// or the checkpoint epoch of a frameless journal (0 if even the
    /// header is gone).
    pub fn tail_epoch(&self) -> u64 {
        self.last_epoch.or(self.checkpoint_epoch).unwrap_or(0)
    }
}

/// An append-only write-ahead journal, open for appending. See the
/// [module docs](self) for the format and the durability contract.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    label: String,
    file: File,
    /// Offset one past the last durable frame; appends write here.
    end: u64,
    checkpoint_epoch: u64,
    last_epoch: u64,
    records: u64,
    poisoned: bool,
    faults: Arc<dyn FaultInjector>,
}

impl Journal {
    /// The conventional sidecar journal path for an index file:
    /// `<index path>.journal`.
    pub fn sidecar_path<P: AsRef<Path>>(index_path: P) -> PathBuf {
        let mut name = index_path.as_ref().as_os_str().to_os_string();
        name.push(".journal");
        PathBuf::from(name)
    }

    /// Creates (truncating) a fresh journal whose history starts at
    /// `checkpoint_epoch` — the epoch of the snapshot it will sit next
    /// to. The header is written and fsynced before this returns.
    pub fn create<P: AsRef<Path>>(path: P, checkpoint_epoch: u64) -> Result<Journal, JournalError> {
        Self::create_with(path, checkpoint_epoch, Arc::new(NoFaults))
    }

    /// [`Journal::create`] with an injectable fault layer (see
    /// [`kdash_core::fault`]).
    pub fn create_with<P: AsRef<Path>>(
        path: P,
        checkpoint_epoch: u64,
        faults: Arc<dyn FaultInjector>,
    ) -> Result<Journal, JournalError> {
        let path = path.as_ref().to_path_buf();
        let label = path.display().to_string();
        let io_err = |op: &'static str, error: io::Error| JournalError::Io {
            op,
            path: label.clone(),
            error,
        };
        let mut file = File::create(&path).map_err(|e| io_err("create", e))?;
        let header = encode_header(checkpoint_epoch);
        injected_write(faults.as_ref(), &label, &mut file, &header)
            .map_err(|e| io_err("create", e))?;
        retry_transient(|| {
            faults.before_fsync(&label)?;
            file.sync_all()
        })
        .map_err(|e| io_err("fsync", e))?;
        // Make the file's existence durable too.
        sync_parent_dir(&path, faults.as_ref()).map_err(|e| io_err("dir-fsync", e))?;
        Ok(Journal {
            path,
            label,
            file,
            end: HEADER_LEN,
            checkpoint_epoch,
            last_epoch: checkpoint_epoch,
            records: 0,
            poisoned: false,
            faults,
        })
    }

    /// Opens an existing journal for appending, healing crash debris:
    /// a torn tail is truncated away and a torn header is rewritten in
    /// place (its fixed 24-byte size means frames never move). The
    /// repairs are fsynced before this returns. Fails typed — never
    /// panics — on real I/O errors, a non-journal file, or a version
    /// from the future.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Journal, JournalError> {
        let faults: Arc<dyn FaultInjector> = Arc::new(NoFaults);
        let path = path.as_ref().to_path_buf();
        let label = path.display().to_string();
        let io_err = |op: &'static str, error: io::Error| JournalError::Io {
            op,
            path: label.clone(),
            error,
        };
        let (_, scan) = Journal::read_records(&path)?;

        // History resumes after the last intact frame; a frameless
        // journal (torn header included) restarts from what the frames
        // imply: first frame's epoch − 1, or 0 when nothing survived.
        let checkpoint_epoch = scan
            .checkpoint_epoch
            .or_else(|| scan.first_epoch.map(|e| e.saturating_sub(1)))
            .unwrap_or(0);
        let last_epoch = scan.last_epoch.unwrap_or(checkpoint_epoch);
        let end = scan.good_bytes.max(HEADER_LEN);

        let mut file =
            OpenOptions::new().read(true).write(true).open(&path).map_err(|e| io_err("open", e))?;
        let mut dirty = false;
        if !scan.header_ok {
            let header = encode_header(checkpoint_epoch);
            file.seek(SeekFrom::Start(0)).map_err(|e| io_err("repair", e))?;
            injected_write(faults.as_ref(), &label, &mut file, &header)
                .map_err(|e| io_err("repair", e))?;
            dirty = true;
        }
        if scan.file_bytes != end {
            retry_transient(|| {
                faults.before_truncate(&label)?;
                file.set_len(end)
            })
            .map_err(|e| io_err("truncate", e))?;
            dirty = true;
        }
        if dirty {
            retry_transient(|| {
                faults.before_fsync(&label)?;
                file.sync_all()
            })
            .map_err(|e| io_err("fsync", e))?;
        }
        Ok(Journal {
            path,
            label,
            file,
            end,
            checkpoint_epoch,
            last_epoch,
            records: scan.records,
            poisoned: false,
            faults,
        })
    }

    /// Scans a journal file read-only: header validity, frame CRCs,
    /// epoch contiguity, torn tail. Touches nothing on disk and loads
    /// no index — this is `kdash verify --journal`.
    pub fn scan_path<P: AsRef<Path>>(path: P) -> Result<JournalScan, JournalError> {
        Journal::read_records(path).map(|(_, scan)| scan)
    }

    /// Reads every intact `(epoch, batch)` record plus the scan summary,
    /// read-only: the one read and parse of a journal file, behind
    /// recovery, [`Journal::open`] and [`Journal::scan_path`].
    pub fn read_records<P: AsRef<Path>>(
        path: P,
    ) -> Result<(Vec<(u64, UpdateBatch)>, JournalScan), JournalError> {
        let label = path.as_ref().display().to_string();
        let bytes = fs::read(path.as_ref()).map_err(|error| JournalError::Io {
            op: "read",
            path: label.clone(),
            error,
        })?;
        parse_journal(&bytes, &label)
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Intact records currently in the journal.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The snapshot epoch this journal's history starts after.
    pub fn checkpoint_epoch(&self) -> u64 {
        self.checkpoint_epoch
    }

    /// The epoch of the last durable frame (the checkpoint epoch when
    /// the journal is empty) — the epoch an index must be at to attach.
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// The fault layer this journal writes through.
    pub fn fault_injector(&self) -> &Arc<dyn FaultInjector> {
        &self.faults
    }

    /// Appends one frame per batch — epochs `first_epoch`,
    /// `first_epoch + 1`, … — then fsyncs **once**. Nothing is
    /// acknowledged until the fsync returns: on any failure the caller
    /// must treat every batch of the call as not-journaled (the engine
    /// then drops the patched index it had assembled, keeping
    /// acknowledgement and durability in agreement).
    ///
    /// On a real write error the torn tail is healed in place
    /// (truncated back to the last durable frame); if healing fails the
    /// journal is poisoned and refuses further appends. An *injected*
    /// crash skips healing — the simulated process is dead, and
    /// recovery must cope with the debris.
    pub fn append_batches(
        &mut self,
        batches: &[UpdateBatch],
        first_epoch: u64,
    ) -> Result<(), JournalError> {
        if batches.is_empty() {
            return Ok(());
        }
        if self.poisoned {
            return Err(JournalError::Poisoned);
        }
        if first_epoch != self.last_epoch + 1 {
            return Err(JournalError::EpochMismatch {
                journal: self.last_epoch,
                index: first_epoch,
            });
        }
        // One buffer, one write call: the fault layer sees every torn
        // prefix of the whole append as a distinct crash point.
        let mut frames = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            frames.extend_from_slice(&encode_frame(first_epoch + i as u64, batch));
        }
        let result = (|| {
            self.file.seek(SeekFrom::Start(self.end))?;
            injected_write(self.faults.as_ref(), &self.label, &mut self.file, &frames)?;
            retry_transient(|| {
                self.faults.before_fsync(&self.label)?;
                self.file.sync_all()
            })
        })();
        match result {
            Ok(()) => {
                self.end += frames.len() as u64;
                self.records += batches.len() as u64;
                self.last_epoch = first_epoch + batches.len() as u64 - 1;
                Ok(())
            }
            Err(error) => {
                if !is_injected_crash(&error) {
                    // Heal: cut the file back to the last durable frame
                    // so the next append (or a scan) sees no torn bytes.
                    let healed = retry_transient(|| {
                        self.faults.before_truncate(&self.label)?;
                        self.file.set_len(self.end)?;
                        self.faults.before_fsync(&self.label)?;
                        self.file.sync_all()
                    });
                    self.poisoned = healed.is_err();
                } else {
                    self.poisoned = true;
                }
                Err(JournalError::Io { op: "append", path: self.label.clone(), error })
            }
        }
    }

    /// Truncates the journal after a durable snapshot at `epoch`:
    /// writes a fresh header-only journal to `<path>.tmp`, fsyncs it,
    /// and renames it over the old journal ([`replace_atomic`], the
    /// protocol snapshots are saved with) — atomically, so a crash
    /// leaves either the full old journal or the empty new one, and
    /// recovery's epoch filtering makes both consistent with the
    /// snapshot. Refuses (typed) if `epoch` is *behind* the journal's
    /// tail: that would discard acknowledged records no snapshot holds.
    /// (An `epoch` ahead of the tail is legal — it means a snapshot
    /// newer than the journal exists, and every record is redundant.)
    pub fn checkpoint(&mut self, epoch: u64) -> Result<(), JournalError> {
        if epoch < self.last_epoch {
            return Err(JournalError::EpochMismatch { journal: self.last_epoch, index: epoch });
        }
        let file = replace_atomic(&self.path, &encode_header(epoch), self.faults.as_ref())
            .map_err(|(stage, error)| {
                let op = match stage {
                    IoStage::Fsync => "fsync",
                    IoStage::Rename => "rename",
                    IoStage::DirFsync => "dir-fsync",
                    IoStage::Read | IoStage::TmpWrite => "checkpoint",
                };
                JournalError::Io { op, path: format!("{}.tmp", self.label), error }
            })?;
        // Keep appending to the *renamed* file, not the replaced inode.
        self.file = file;
        self.end = HEADER_LEN;
        self.checkpoint_epoch = epoch;
        self.last_epoch = epoch;
        self.records = 0;
        self.poisoned = false;
        Ok(())
    }
}

fn encode_header(checkpoint_epoch: u64) -> [u8; HEADER_LEN as usize] {
    let mut header = [0u8; HEADER_LEN as usize];
    header[..8].copy_from_slice(JOURNAL_MAGIC);
    header[8..12].copy_from_slice(&JOURNAL_VERSION.to_le_bytes());
    header[12..20].copy_from_slice(&checkpoint_epoch.to_le_bytes());
    let crc = crc32(&header[..20]);
    header[20..24].copy_from_slice(&crc.to_le_bytes());
    header
}

fn encode_frame(epoch: u64, batch: &UpdateBatch) -> Vec<u8> {
    let mut payload = Vec::with_capacity(12 + batch.len() * 17);
    payload.extend_from_slice(&epoch.to_le_bytes());
    payload.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for edit in batch.edits() {
        match *edit {
            EdgeEdit::Insert { src, dst, weight } => {
                payload.push(OP_INSERT);
                payload.extend_from_slice(&src.to_le_bytes());
                payload.extend_from_slice(&dst.to_le_bytes());
                payload.extend_from_slice(&weight.to_le_bytes());
            }
            EdgeEdit::Delete { src, dst } => {
                payload.push(OP_DELETE);
                payload.extend_from_slice(&src.to_le_bytes());
                payload.extend_from_slice(&dst.to_le_bytes());
            }
            EdgeEdit::Reweight { src, dst, weight } => {
                payload.push(OP_REWEIGHT);
                payload.extend_from_slice(&src.to_le_bytes());
                payload.extend_from_slice(&dst.to_le_bytes());
                payload.extend_from_slice(&weight.to_le_bytes());
            }
        }
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// Decodes one frame payload into `(epoch, batch)`. `Err` carries the
/// torn-tail detail — structural damage a CRC collision let through, or
/// a writer-side bug; either way the scan stops trusting the file here.
fn decode_payload(payload: &[u8]) -> Result<(u64, UpdateBatch), String> {
    fn take<'a>(payload: &'a [u8], at: &mut usize, n: usize) -> Result<&'a [u8], String> {
        match at.checked_add(n).filter(|&e| e <= payload.len()) {
            Some(end) => {
                let slice = &payload[*at..end];
                *at = end;
                Ok(slice)
            }
            None => Err("frame payload shorter than its own structure".to_string()),
        }
    }
    let mut at = 0usize;
    let epoch = u64::from_le_bytes(fixed8(take(payload, &mut at, 8)?));
    let n_edits = u32::from_le_bytes(fixed4(take(payload, &mut at, 4)?)) as usize;
    // Cheapest structural bound: every edit costs at least 9 bytes.
    if n_edits > payload.len().saturating_sub(at) / 9 {
        return Err(format!("frame claims {n_edits} edits but is too short to hold them"));
    }
    let mut edits = Vec::with_capacity(n_edits);
    for _ in 0..n_edits {
        let op = take(payload, &mut at, 1)?[0];
        let src = u32::from_le_bytes(fixed4(take(payload, &mut at, 4)?));
        let dst = u32::from_le_bytes(fixed4(take(payload, &mut at, 4)?));
        let edit = match op {
            OP_INSERT => {
                let weight = f64::from_le_bytes(fixed8(take(payload, &mut at, 8)?));
                EdgeEdit::Insert { src, dst, weight }
            }
            OP_DELETE => EdgeEdit::Delete { src, dst },
            OP_REWEIGHT => {
                let weight = f64::from_le_bytes(fixed8(take(payload, &mut at, 8)?));
                EdgeEdit::Reweight { src, dst, weight }
            }
            other => return Err(format!("unknown edit opcode {other}")),
        };
        edits.push(edit);
    }
    if at != payload.len() {
        return Err(format!("{} trailing bytes after the last edit", payload.len() - at));
    }
    // Re-run batch validation: the writer only journals validated
    // batches, so a failure here is structural damage.
    let batch = UpdateBatch::new(edits).map_err(|e| format!("invalid journaled batch: {e}"))?;
    Ok((epoch, batch))
}

fn fixed4(slice: &[u8]) -> [u8; 4] {
    let mut b = [0u8; 4];
    b.copy_from_slice(slice);
    b
}

fn fixed8(slice: &[u8]) -> [u8; 8] {
    let mut b = [0u8; 8];
    b.copy_from_slice(slice);
    b
}

/// Parses a whole journal image: header, then frames until damage or
/// EOF. Returns `Err` only for "wrong file entirely" conditions
/// ([`JournalError::NotAJournal`], [`JournalError::UnsupportedVersion`]);
/// crash debris of every kind — empty file, short or CRC-failed header,
/// torn or corrupt frames, epoch discontinuities — is reported in the
/// scan's `torn` field with the intact prefix intact. Never panics.
fn parse_journal(
    bytes: &[u8],
    path: &str,
) -> Result<(Vec<(u64, UpdateBatch)>, JournalScan), JournalError> {
    let mut scan = JournalScan {
        header_ok: false,
        checkpoint_epoch: None,
        records: 0,
        first_epoch: None,
        last_epoch: None,
        edits: 0,
        good_bytes: 0,
        file_bytes: bytes.len() as u64,
        torn: None,
    };
    // Distinguish "some other file" from "our file, torn": any byte
    // that *is* present must agree with the magic.
    let probe = bytes.len().min(JOURNAL_MAGIC.len());
    if probe > 0 && bytes[..probe] != JOURNAL_MAGIC[..probe] {
        return Err(JournalError::NotAJournal { path: path.to_string() });
    }
    if (bytes.len() as u64) < HEADER_LEN {
        scan.torn = Some(TornTail {
            offset: 0,
            detail: format!("truncated header ({} of {HEADER_LEN} bytes)", bytes.len()),
        });
        return Ok((Vec::new(), scan));
    }
    let stored_crc = u32::from_le_bytes(fixed4(&bytes[20..24]));
    if crc32(&bytes[..20]) != stored_crc {
        scan.torn = Some(TornTail { offset: 0, detail: "header checksum mismatch".to_string() });
        // The header is fixed-size, so the frames behind it are still
        // where they always are — scan them anyway; recovery can use
        // them even though the checkpoint epoch is unreadable.
    } else {
        let version = u32::from_le_bytes(fixed4(&bytes[8..12]));
        if version != JOURNAL_VERSION {
            return Err(JournalError::UnsupportedVersion { version });
        }
        scan.header_ok = true;
        scan.checkpoint_epoch = Some(u64::from_le_bytes(fixed8(&bytes[12..20])));
    }
    scan.good_bytes = HEADER_LEN;

    let mut records = Vec::new();
    let mut at = HEADER_LEN as usize;
    let torn = |offset: usize, detail: String| TornTail { offset: offset as u64, detail };
    while at < bytes.len() {
        let frame_start = at;
        if bytes.len() - at < 4 {
            scan.torn = Some(torn(frame_start, "truncated frame length field".to_string()));
            break;
        }
        let len = u32::from_le_bytes(fixed4(&bytes[at..at + 4]));
        if len > MAX_PAYLOAD {
            scan.torn =
                Some(torn(frame_start, format!("implausible frame length {len}")));
            break;
        }
        let total = 4 + len as usize + 4;
        if bytes.len() - at < total {
            scan.torn = Some(torn(
                frame_start,
                format!("frame overruns the file ({} of {total} bytes)", bytes.len() - at),
            ));
            break;
        }
        let crc_at = at + 4 + len as usize;
        let stored = u32::from_le_bytes(fixed4(&bytes[crc_at..crc_at + 4]));
        let computed = crc32(&bytes[at..crc_at]);
        if stored != computed {
            scan.torn = Some(torn(frame_start, "frame checksum mismatch".to_string()));
            break;
        }
        let (epoch, batch) = match decode_payload(&bytes[at + 4..crc_at]) {
            Ok(decoded) => decoded,
            Err(detail) => {
                scan.torn = Some(torn(frame_start, detail));
                break;
            }
        };
        // Epochs are contiguous ascending; the first frame continues
        // the header's checkpoint (when the header survived).
        let expected = match (scan.last_epoch, scan.checkpoint_epoch) {
            (Some(prev), _) => Some(prev + 1),
            (None, Some(checkpoint)) => Some(checkpoint + 1),
            (None, None) => None,
        };
        if expected.is_some_and(|want| epoch != want) {
            scan.torn = Some(torn(
                frame_start,
                format!(
                    "epoch discontinuity: frame has epoch {epoch}, expected {}",
                    expected.unwrap_or(0)
                ),
            ));
            break;
        }
        scan.records += 1;
        scan.edits += batch.len() as u64;
        scan.first_epoch = scan.first_epoch.or(Some(epoch));
        scan.last_epoch = Some(epoch);
        at += total;
        scan.good_bytes = at as u64;
        records.push((epoch, batch));
    }
    Ok((records, scan))
}

/// What [`DynamicIndex::recover`](crate::DynamicIndex::recover) did:
/// enough for an operator (or the crash-point sweep) to audit the
/// recovered state's provenance.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The snapshot's update epoch before replay.
    pub snapshot_epoch: u64,
    /// The recovered engine's epoch (snapshot + replayed batches).
    pub final_epoch: u64,
    /// Journal records replayed (epoch above the snapshot's).
    pub replayed_batches: usize,
    /// Total edits across the replayed records.
    pub replayed_edits: usize,
    /// Journal records skipped as already contained in the snapshot.
    pub skipped_records: usize,
    /// Human-readable description of a torn tail, if the scan found one
    /// (the tail was truncated away when the journal was reattached).
    pub torn_tail: Option<String>,
    /// Whether the journal header itself was damaged and rewritten.
    pub header_repaired: bool,
    /// Wall-clock time of the whole recovery (scan + replay + reattach).
    pub replay_time: std::time::Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(edits: Vec<EdgeEdit>) -> UpdateBatch {
        UpdateBatch::new(edits).expect("valid batch")
    }

    fn sample_batches() -> Vec<UpdateBatch> {
        vec![
            batch(vec![EdgeEdit::Insert { src: 0, dst: 1, weight: 1.5 }]),
            batch(vec![
                EdgeEdit::Delete { src: 2, dst: 3 },
                EdgeEdit::Reweight { src: 4, dst: 5, weight: 0.25 },
            ]),
        ]
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("kdash-journal-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn frame_roundtrip_preserves_batches_bitwise() {
        for (i, b) in sample_batches().iter().enumerate() {
            let frame = encode_frame(7 + i as u64, b);
            let len = u32::from_le_bytes(fixed4(&frame[..4])) as usize;
            assert_eq!(frame.len(), 4 + len + 4);
            let (epoch, decoded) = decode_payload(&frame[4..4 + len]).expect("decode");
            assert_eq!(epoch, 7 + i as u64);
            assert_eq!(decoded.edits(), b.edits());
        }
    }

    #[test]
    fn create_append_scan_roundtrip() {
        let path = temp_path("roundtrip.journal");
        let mut journal = Journal::create(&path, 5).expect("create");
        journal.append_batches(&sample_batches(), 6).expect("append");
        assert_eq!(journal.records(), 2);
        assert_eq!(journal.last_epoch(), 7);

        let scan = Journal::scan_path(&path).expect("scan");
        assert!(scan.header_ok);
        assert_eq!(scan.checkpoint_epoch, Some(5));
        assert_eq!(scan.records, 2);
        assert_eq!(scan.first_epoch, Some(6));
        assert_eq!(scan.last_epoch, Some(7));
        assert_eq!(scan.edits, 3);
        assert!(scan.torn.is_none());
        assert_eq!(scan.good_bytes, scan.file_bytes);

        let (records, _) = Journal::read_records(&path).expect("read");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].0, 6);
        assert_eq!(records[0].1.edits(), sample_batches()[0].edits());
    }

    #[test]
    fn append_rejects_epoch_gaps() {
        let path = temp_path("epoch-gap.journal");
        let mut journal = Journal::create(&path, 0).expect("create");
        let err = journal.append_batches(&sample_batches()[..1], 3).unwrap_err();
        assert!(matches!(err, JournalError::EpochMismatch { journal: 0, index: 3 }));
    }

    #[test]
    fn torn_tail_is_reported_and_healed_on_open() {
        let path = temp_path("torn.journal");
        let mut journal = Journal::create(&path, 0).expect("create");
        journal.append_batches(&sample_batches(), 1).expect("append");
        let good = std::fs::metadata(&path).expect("meta").len();
        // Simulate a crash mid-append: half a frame of garbage.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&[0x2a; 9]);
        std::fs::write(&path, &bytes).expect("write");

        let scan = Journal::scan_path(&path).expect("scan");
        assert_eq!(scan.records, 2);
        assert_eq!(scan.good_bytes, good);
        let torn = scan.torn.expect("torn tail detected");
        assert_eq!(torn.offset, good);

        let journal = Journal::open(&path).expect("open heals");
        assert_eq!(journal.records(), 2);
        assert_eq!(journal.last_epoch(), 2);
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), good);
        let rescan = Journal::scan_path(&path).expect("rescan");
        assert!(rescan.torn.is_none());
    }

    #[test]
    fn corrupt_frame_crc_stops_the_scan() {
        let path = temp_path("crc.journal");
        let mut journal = Journal::create(&path, 0).expect("create");
        journal.append_batches(&sample_batches(), 1).expect("append");
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a bit in the first frame's payload.
        let at = HEADER_LEN as usize + 6;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write");
        let scan = Journal::scan_path(&path).expect("scan");
        assert_eq!(scan.records, 0);
        assert_eq!(scan.torn.expect("torn").detail, "frame checksum mismatch");
    }

    #[test]
    fn torn_header_keeps_frames_and_repairs() {
        let path = temp_path("header.journal");
        let mut journal = Journal::create(&path, 3).expect("create");
        journal.append_batches(&sample_batches(), 4).expect("append");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[15] ^= 0xff; // damage the checkpoint-epoch field
        std::fs::write(&path, &bytes).expect("write");

        let scan = Journal::scan_path(&path).expect("scan");
        assert!(!scan.header_ok);
        assert_eq!(scan.records, 2, "frames behind a torn header still scan");
        assert_eq!(scan.first_epoch, Some(4));

        let journal = Journal::open(&path).expect("open repairs header");
        assert_eq!(journal.checkpoint_epoch(), 3, "checkpoint restored from first frame");
        let rescan = Journal::scan_path(&path).expect("rescan");
        assert!(rescan.header_ok);
        assert_eq!(rescan.checkpoint_epoch, Some(3));
        assert!(rescan.torn.is_none());
    }

    #[test]
    fn non_journal_file_is_a_typed_error_not_a_repair() {
        let path = temp_path("not-a-journal");
        std::fs::write(&path, b"KDASHIDX this is an index, not a journal").expect("write");
        assert!(matches!(
            Journal::scan_path(&path),
            Err(JournalError::NotAJournal { .. })
        ));
        assert!(Journal::open(&path).is_err());
    }

    #[test]
    fn empty_file_is_torn_debris_not_an_error() {
        let path = temp_path("empty.journal");
        std::fs::write(&path, b"").expect("write");
        let scan = Journal::scan_path(&path).expect("scan");
        assert!(!scan.header_ok);
        assert!(scan.torn.is_some());
        assert_eq!(scan.records, 0);
        // Reopening writes a fresh epoch-0 header.
        let journal = Journal::open(&path).expect("open");
        assert_eq!(journal.last_epoch(), 0);
        assert!(Journal::scan_path(&path).expect("rescan").header_ok);
    }

    #[test]
    fn checkpoint_truncates_atomically_and_appends_continue() {
        let path = temp_path("checkpoint.journal");
        let mut journal = Journal::create(&path, 0).expect("create");
        journal.append_batches(&sample_batches(), 1).expect("append");
        journal.checkpoint(2).expect("checkpoint");
        assert_eq!(journal.records(), 0);
        assert_eq!(journal.checkpoint_epoch(), 2);
        let scan = Journal::scan_path(&path).expect("scan");
        assert_eq!(scan.records, 0);
        assert_eq!(scan.checkpoint_epoch, Some(2));

        // The renamed file accepts further appends.
        journal.append_batches(&sample_batches()[..1], 3).expect("append after checkpoint");
        let scan = Journal::scan_path(&path).expect("scan");
        assert_eq!(scan.records, 1);
        assert_eq!(scan.first_epoch, Some(3));
    }

    #[test]
    fn checkpoint_refuses_wrong_epoch() {
        let path = temp_path("checkpoint-epoch.journal");
        let mut journal = Journal::create(&path, 0).expect("create");
        journal.append_batches(&sample_batches(), 1).expect("append");
        assert!(matches!(
            journal.checkpoint(1).unwrap_err(),
            JournalError::EpochMismatch { journal: 2, index: 1 }
        ));
    }

    #[test]
    fn epoch_discontinuity_inside_frames_is_torn() {
        let path = temp_path("discontinuity.journal");
        let mut journal = Journal::create(&path, 0).expect("create");
        journal.append_batches(&sample_batches()[..1], 1).expect("append");
        // Hand-append a frame that skips epoch 2.
        let rogue = encode_frame(3, &sample_batches()[1]);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&rogue);
        std::fs::write(&path, &bytes).expect("write");
        let scan = Journal::scan_path(&path).expect("scan");
        assert_eq!(scan.records, 1);
        let torn = scan.torn.expect("torn");
        assert!(torn.detail.contains("epoch discontinuity"), "{}", torn.detail);
    }

    #[test]
    fn sidecar_path_appends_journal_suffix() {
        assert_eq!(
            Journal::sidecar_path("/tmp/x/index.kdash"),
            PathBuf::from("/tmp/x/index.kdash.journal")
        );
    }
}
