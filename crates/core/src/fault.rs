//! Injectable I/O faults for crash testing the durability paths.
//!
//! The persistence layer ([`save_atomic_with`](crate::persist::save_atomic_with))
//! and the update journal (`kdash-dynamic`) route every write, fsync,
//! rename and truncate through a [`FaultInjector`] before touching the
//! file system; both replace a whole file through the one protocol
//! [`replace_atomic`]. Production code passes [`NoFaults`], which
//! compiles down to straight-line I/O. Tests pass a [`CrashPlan`], which simulates a
//! power cut at an exact byte offset (a *torn write*: a prefix of the
//! payload reaches the disk, then the process "dies"), on the nth fsync,
//! or between the rename and its directory fsync — and then keeps
//! failing every later operation, because a crashed process does not get
//! to run its cleanup code either.
//!
//! The sweep protocol is two-pass: run the scenario once with
//! [`CrashPlan::count_only`] to enumerate every injectable point, then
//! re-run it once per point with [`CrashPlan::crash_at`] and assert that
//! recovery restores an audited, bit-identical state. Each byte of each
//! write is its own point, so a frame torn mid-CRC and a frame torn
//! mid-length-field are distinct scenarios.
//!
//! Injected failures are ordinary [`io::Error`]s wrapping the
//! [`InjectedCrash`] marker so durability code can distinguish "the
//! process is gone" (leave the torn bytes for recovery to find) from a
//! real transient error (heal and retry): see [`is_injected_crash`].

use crate::persist::IoStage;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What a [`FaultInjector`] decides about an impending write of `len`
/// payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteRuling {
    /// Write all `len` bytes normally.
    Proceed,
    /// Write only the first `keep` bytes (`keep < len`), then fail with
    /// an injected-crash error — the on-disk effect of losing power
    /// mid-write.
    Tear {
        /// Number of payload bytes that reach the file before the crash.
        keep: usize,
    },
}

/// A hook invoked before each durability-relevant file operation.
///
/// `label` is a human-readable name for the file being operated on
/// (usually its path); [`CrashPlan`] records it so a sweep can report
/// *which* operation each crash point interrupted and filter points by
/// file.
pub trait FaultInjector: Send + Sync + std::fmt::Debug {
    /// Called before writing `len` payload bytes to `label`.
    fn before_write(&self, label: &str, len: usize) -> WriteRuling {
        let _ = (label, len);
        WriteRuling::Proceed
    }

    /// Called before fsyncing `label` (a file or a directory).
    fn before_fsync(&self, label: &str) -> io::Result<()> {
        let _ = label;
        Ok(())
    }

    /// Called before renaming `from` over `to`.
    fn before_rename(&self, from: &str, to: &str) -> io::Result<()> {
        let _ = (from, to);
        Ok(())
    }

    /// Called before truncating `label` (journal tail self-heal).
    fn before_truncate(&self, label: &str) -> io::Result<()> {
        let _ = label;
        Ok(())
    }
}

/// The production injector: every operation proceeds untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}

/// Marker payload inside every injected-crash [`io::Error`], so callers
/// can tell a simulated power cut from a genuine I/O failure.
#[derive(Debug)]
pub struct InjectedCrash {
    /// Description of the interrupted operation (file label + op kind).
    pub point: String,
}

impl std::fmt::Display for InjectedCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected crash at {}", self.point)
    }
}

impl std::error::Error for InjectedCrash {}

/// Builds the [`io::Error`] a tripped failpoint returns.
pub fn injected_crash_error(point: impl Into<String>) -> io::Error {
    io::Error::other(InjectedCrash { point: point.into() })
}

/// `true` iff `e` (or its source chain root) is an injected crash rather
/// than a real I/O failure. Durability code uses this to *skip* healing
/// and cleanup: a crashed process leaves its torn bytes behind, and the
/// recovery path must cope with exactly that debris.
pub fn is_injected_crash(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<InjectedCrash>())
}

/// One recorded injectable operation: `(first point id, width in points,
/// label)`. Writes are `len` points wide (one per torn-prefix length);
/// fsync / rename / truncate are one point each.
pub type PlannedPoint = (u64, u64, String);

/// A deterministic crash scenario for the two-pass sweep protocol.
///
/// Points are numbered in execution order. A write of `len` bytes
/// occupies `len` consecutive points: point `p` within it means "crash
/// after `p - start` bytes reached the file" (so the first point of a
/// write is a zero-byte torn write, and a crash *after* the final byte
/// is represented by the following operation's point). fsync, rename and
/// truncate each occupy one point. After the planned point trips, every
/// subsequent operation fails too — the process is dead.
#[derive(Debug)]
pub struct CrashPlan {
    crash_at: Option<u64>,
    cursor: AtomicU64,
    tripped: Mutex<Option<String>>,
    log: Mutex<Vec<PlannedPoint>>,
}

impl CrashPlan {
    /// A counting pass: no operation fails; afterwards [`Self::points`]
    /// and [`Self::planned`] describe every injectable point the
    /// scenario executed.
    pub fn count_only() -> Self {
        CrashPlan {
            crash_at: None,
            cursor: AtomicU64::new(0),
            tripped: Mutex::new(None),
            log: Mutex::new(Vec::new()),
        }
    }

    /// A crash pass: the operation covering `point` fails as a simulated
    /// power cut, and every operation after it fails as well.
    pub fn crash_at(point: u64) -> Self {
        CrashPlan {
            crash_at: Some(point),
            cursor: AtomicU64::new(0),
            tripped: Mutex::new(None),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Total injectable points consumed so far.
    pub fn points(&self) -> u64 {
        self.cursor.load(Ordering::SeqCst)
    }

    /// The recorded `(start, width, label)` of every operation, in
    /// execution order.
    pub fn planned(&self) -> Vec<PlannedPoint> {
        lock_unpoisoned(&self.log).clone()
    }

    /// Description of the operation the plan crashed, if it fired.
    pub fn tripped(&self) -> Option<String> {
        lock_unpoisoned(&self.tripped).clone()
    }

    fn dead(&self) -> bool {
        lock_unpoisoned(&self.tripped).is_some()
    }

    fn trip(&self, what: String) -> io::Error {
        let mut tripped = lock_unpoisoned(&self.tripped);
        if tripped.is_none() {
            *tripped = Some(what.clone());
        }
        drop(tripped);
        injected_crash_error(what)
    }

    /// Claims `width` points for an operation described by `label`;
    /// returns the offset of the planned crash within the claim, if the
    /// crash lands inside it.
    fn claim(&self, width: u64, label: &str, op: &str) -> Option<u64> {
        let start = self.cursor.fetch_add(width, Ordering::SeqCst);
        lock_unpoisoned(&self.log).push((start, width, format!("{op} {label}")));
        match self.crash_at {
            Some(p) if p >= start && p < start + width => Some(p - start),
            _ => None,
        }
    }
}

/// A mutex-poisoning panic in a *fault injector* must not masquerade as
/// a durability bug; recover the data instead.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl FaultInjector for CrashPlan {
    fn before_write(&self, label: &str, len: usize) -> WriteRuling {
        if self.dead() {
            return WriteRuling::Tear { keep: 0 };
        }
        // A write of n bytes has n distinct torn prefixes (0..n kept
        // bytes); "all n bytes landed" is the next operation's point.
        // Zero-length writes still claim one point so they are sweepable.
        let width = (len as u64).max(1);
        match self.claim(width, label, "write") {
            Some(offset) => {
                self.trip(format!("write {label} (torn after {offset} of {len} bytes)"));
                WriteRuling::Tear { keep: (offset as usize).min(len) }
            }
            None => WriteRuling::Proceed,
        }
    }

    fn before_fsync(&self, label: &str) -> io::Result<()> {
        if self.dead() {
            return Err(injected_crash_error(format!("fsync {label} (process dead)")));
        }
        match self.claim(1, label, "fsync") {
            Some(_) => Err(self.trip(format!("fsync {label}"))),
            None => Ok(()),
        }
    }

    fn before_rename(&self, from: &str, to: &str) -> io::Result<()> {
        if self.dead() {
            return Err(injected_crash_error(format!("rename {from} (process dead)")));
        }
        match self.claim(1, from, "rename") {
            Some(_) => Err(self.trip(format!("rename {from} -> {to}"))),
            None => Ok(()),
        }
    }

    fn before_truncate(&self, label: &str) -> io::Result<()> {
        if self.dead() {
            return Err(injected_crash_error(format!("truncate {label} (process dead)")));
        }
        match self.claim(1, label, "truncate") {
            Some(_) => Err(self.trip(format!("truncate {label}"))),
            None => Ok(()),
        }
    }
}

/// Writes `bytes` to `file` under the injector's ruling. On
/// [`WriteRuling::Tear`] the kept prefix is written and flushed — the
/// simulated crash must leave exactly those bytes durable-visible — and
/// an injected-crash error is returned.
pub fn injected_write(
    faults: &dyn FaultInjector,
    label: &str,
    file: &mut File,
    bytes: &[u8],
) -> io::Result<()> {
    match faults.before_write(label, bytes.len()) {
        WriteRuling::Proceed => file.write_all(bytes),
        WriteRuling::Tear { keep } => {
            let keep = keep.min(bytes.len());
            file.write_all(&bytes[..keep])?;
            file.flush()?;
            Err(injected_crash_error(format!("write {label} (torn after {keep} bytes)")))
        }
    }
}

/// How many times [`retry_transient`] attempts an operation before
/// giving up.
pub const RETRY_ATTEMPTS: u32 = 3;

/// Base backoff between retry attempts; doubles each attempt.
pub const RETRY_BASE_BACKOFF: Duration = Duration::from_millis(2);

/// `true` for error kinds that a bounded retry can reasonably clear.
///
/// Deliberately narrow: `Interrupted` (EINTR), `WouldBlock` and
/// `TimedOut`. A *failed* fsync in particular is never retried — after
/// the kernel reports an fsync error, dirty pages may already have been
/// dropped, so "retry until it succeeds" silently converts data loss
/// into a success report (the fsyncgate failure mode). Injected crashes
/// are not transient either: the process is supposed to be dead.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs `op`, retrying up to [`RETRY_ATTEMPTS`] times with doubling
/// backoff while it fails with a transient (`EINTR`-class) error.
pub fn retry_transient<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if attempt + 1 < RETRY_ATTEMPTS && is_transient(&e) => {
                std::thread::sleep(RETRY_BASE_BACKOFF * (1 << attempt));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Fsyncs the directory containing `path` through the injector, making
/// a just-completed rename durable. Filesystem refusal to fsync a
/// directory (`Unsupported` / `InvalidInput` / `PermissionDenied`) is
/// tolerated — on such filesystems there is nothing stronger to do —
/// but real failures and injected crashes propagate.
pub fn sync_parent_dir(path: &Path, faults: &dyn FaultInjector) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let label = parent.display().to_string();
    let result = retry_transient(|| {
        faults.before_fsync(&label)?;
        File::open(parent)?.sync_all()
    });
    match result {
        Err(e)
            if !is_injected_crash(&e)
                && matches!(
                    e.kind(),
                    io::ErrorKind::Unsupported
                        | io::ErrorKind::InvalidInput
                        | io::ErrorKind::PermissionDenied
                ) =>
        {
            Ok(())
        }
        other => other,
    }
}

/// Atomically replaces `path` with `bytes` — **the** replace protocol
/// behind [`save_atomic_with`](crate::persist::save_atomic_with) and the
/// journal's checkpoint: write `<path>.tmp`, fsync it, rename it over
/// `path`, then fsync the parent directory so the rename itself is
/// durable. Every step consults `faults` first and transient
/// (`EINTR`-class) failures are retried; a retried write recreates the
/// temp file from scratch, so a torn first attempt leaves no stale bytes
/// beyond the new ones. A crash at any point leaves either the old file
/// or the new one.
///
/// Returns the renamed file, still open for writing at the end of
/// `bytes` (the journal keeps appending to it), or the failing stage with
/// its error. A real failure removes the temp file; an injected crash
/// leaves it, as a dead process would, for recovery tests to find.
pub fn replace_atomic(
    path: &Path,
    bytes: &[u8],
    faults: &dyn FaultInjector,
) -> Result<File, (IoStage, io::Error)> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    let tmp_label = tmp.display().to_string();
    let result = (|| {
        let file = retry_transient(|| {
            let mut f = File::create(&tmp)?;
            injected_write(faults, &tmp_label, &mut f, bytes)?;
            Ok(f)
        })
        .map_err(|e| (IoStage::TmpWrite, e))?;
        retry_transient(|| {
            faults.before_fsync(&tmp_label)?;
            file.sync_all()
        })
        .map_err(|e| (IoStage::Fsync, e))?;
        let path_label = path.display().to_string();
        retry_transient(|| {
            faults.before_rename(&tmp_label, &path_label)?;
            std::fs::rename(&tmp, path)
        })
        .map_err(|e| (IoStage::Rename, e))?;
        // Filesystems that refuse a directory fsync are tolerated inside
        // `sync_parent_dir`.
        sync_parent_dir(path, faults).map_err(|e| (IoStage::DirFsync, e))?;
        Ok(file)
    })();
    if let Err((_, error)) = &result {
        if !is_injected_crash(error) {
            let _ = std::fs::remove_file(&tmp);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_lets_everything_through() {
        let f = NoFaults;
        assert_eq!(f.before_write("x", 100), WriteRuling::Proceed);
        assert!(f.before_fsync("x").is_ok());
        assert!(f.before_rename("a", "b").is_ok());
        assert!(f.before_truncate("x").is_ok());
    }

    #[test]
    fn count_only_enumerates_points_without_failing() {
        let plan = CrashPlan::count_only();
        assert_eq!(plan.before_write("f", 10), WriteRuling::Proceed);
        assert!(plan.before_fsync("f").is_ok());
        assert!(plan.before_rename("f", "g").is_ok());
        assert!(plan.before_truncate("f").is_ok());
        assert_eq!(plan.points(), 13); // 10 write bytes + 3 single-point ops
        assert!(plan.tripped().is_none());
        let planned = plan.planned();
        assert_eq!(planned.len(), 4);
        assert_eq!(planned[0], (0, 10, "write f".to_string()));
        assert_eq!(planned[1], (10, 1, "fsync f".to_string()));
    }

    #[test]
    fn crash_at_tears_the_covering_write_and_kills_later_ops() {
        let plan = CrashPlan::crash_at(3);
        assert_eq!(plan.before_write("f", 10), WriteRuling::Tear { keep: 3 });
        assert!(plan.tripped().is_some());
        // The process is dead: later operations fail even though their
        // points were never planned.
        assert_eq!(plan.before_write("f", 10), WriteRuling::Tear { keep: 0 });
        let err = plan.before_fsync("f").unwrap_err();
        assert!(is_injected_crash(&err));
    }

    #[test]
    fn crash_on_fsync_point() {
        let plan = CrashPlan::crash_at(10);
        assert_eq!(plan.before_write("f", 10), WriteRuling::Proceed);
        let err = plan.before_fsync("f").unwrap_err();
        assert!(is_injected_crash(&err));
        assert_eq!(plan.tripped().as_deref(), Some("fsync f"));
    }

    #[test]
    fn injected_crash_marker_is_detectable() {
        let e = injected_crash_error("fsync x");
        assert!(is_injected_crash(&e));
        assert!(!is_injected_crash(&io::Error::other("plain")));
        assert!(format!("{e}").contains("injected crash"));
    }

    #[test]
    fn retry_transient_retries_eintr_then_succeeds() {
        let mut calls = 0;
        let result = retry_transient(|| {
            calls += 1;
            if calls < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "eintr"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(result.unwrap(), 42);
        assert_eq!(calls, 3);
    }

    #[test]
    fn retry_transient_gives_up_after_bounded_attempts() {
        let mut calls = 0;
        let result: io::Result<()> = retry_transient(|| {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::Interrupted, "eintr forever"))
        });
        assert!(result.is_err());
        assert_eq!(calls, RETRY_ATTEMPTS as usize);
    }

    #[test]
    fn retry_transient_never_retries_real_or_injected_failures() {
        let mut calls = 0;
        let _ = retry_transient(|| -> io::Result<()> {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::NotFound, "gone"))
        });
        assert_eq!(calls, 1);
        calls = 0;
        let _ = retry_transient(|| -> io::Result<()> {
            calls += 1;
            Err(injected_crash_error("fsync f"))
        });
        assert_eq!(calls, 1);
    }
}
