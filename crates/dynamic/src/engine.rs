//! The incremental update engine.
//!
//! [`DynamicIndex`] holds a built [`KdashIndex`] together with the live
//! LU factors of its system matrix and maintains it incrementally:
//! [`DynamicIndex::apply`] runs one [`UpdateBatch`] through the
//! reach-bounded pipeline
//!
//! ```text
//! edit graph → incremental refactorisation (dirty-W forward reach)
//!            → inverse reach analysis → re-solve dirty inverse columns
//!            → splice (one per stored inverse) → bound constants
//! ```
//!
//! and assembles the *next* index from the patched components
//! ([`KdashIndex::patched`]); the engine then swaps its `Arc` to it, so an
//! index is never modified and on any error the engine keeps the one it
//! had. Every stage is timed and counted in the returned
//! [`UpdateReport`] — the dirty-column fractions are the observable that
//! makes the update-vs-rebuild speedups legible.
//!
//! The factorisation stage is itself reach-bounded
//! ([`kdash_sparse::refactor_columns`]): only factor columns in the
//! forward reach of the edited `W` columns through the left-looking
//! column-dependency DAG are re-eliminated, and the surviving columns
//! are spliced from the old factors bit-for-bit. This killed the one
//! full-`n` stage the engine had — previously ~96% of small-batch update
//! time went into refactorising all of `W` just to discover that a
//! handful of columns changed.
//!
//! [`DynamicIndex::apply_coalesced`] merges a queue of batches into one
//! pass: one merged dirty-`W` set, one incremental refactorisation, one
//! reach analysis, one re-solve — the per-pass overheads are paid once
//! instead of once per batch, while validation still checks each edit
//! against the sequentially edited graph (a delete in batch 3 of an edge
//! inserted in batch 1 validates, exactly as it would applied one by
//! one). [`DynamicIndex::predict`] runs the analysis stages alone and
//! reports the predicted dirty fractions without mutating anything.

use crate::journal::{Journal, JournalError, RecoveryReport};
use crate::{KdashError, Result, UpdateBatch};
use kdash_core::persist::save_atomic_with;
use kdash_core::{IndexPatch, KdashIndex};
use kdash_graph::{CsrGraph, EdgeEdit, GraphError, NodeId};
use kdash_sparse::{
    inverse_dirty_columns, refactor_candidates, refactor_columns, sparsify_columns_with,
    transition_matrix, w_matrix, Index, InvertOptions, LuFactors, Triangle,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default auto-checkpoint threshold (journal records), for
/// [`DynamicIndex::auto_checkpoint`] callers that don't want to tune
/// it: ~16 journaled batches is the measured recovery crossover
/// (BENCH_PR9.json) where replaying the journal starts costing more
/// than loading a fresh snapshot.
pub const AUTO_CHECKPOINT_DEFAULT_RECORDS: u64 = 16;

/// What one applied batch did, stage by stage — the freshness audit
/// trail. All column counts are out of [`UpdateReport::num_columns`]
/// (= the node count), so `dirty_linv_columns as f64 / num_columns as
/// f64` is the dirty fraction the benchmarks report.
#[derive(Debug, Clone, Default)]
pub struct UpdateReport {
    /// Edits the batch carried (summed over all batches when coalesced).
    pub edits: usize,
    /// Update batches this pass represented: `1` for [`DynamicIndex::apply`],
    /// the queue length for [`DynamicIndex::apply_coalesced`]. The index's
    /// update epoch advances by exactly this much.
    pub batches: usize,
    /// Matrix dimension (columns per triangular factor).
    pub num_columns: usize,
    /// Transition-matrix columns the batch renormalised (distinct edited
    /// source nodes).
    pub dirty_w_columns: usize,
    /// Factor columns the incremental refactorisation re-eliminated —
    /// the dirty-`W` columns plus their forward reach through the
    /// column-dependency DAG. Everything outside this set was spliced
    /// from the old factors untouched.
    pub dirty_factor_columns_recomputed: usize,
    /// Columns of the factor `L` that changed under refactorisation.
    pub dirty_l_columns: usize,
    /// Columns of the factor `U` that changed under refactorisation.
    pub dirty_u_columns: usize,
    /// Columns of `L⁻¹` inside the Gilbert–Peierls reach of the dirty
    /// `L` columns — exactly the columns re-solved and spliced.
    pub dirty_linv_columns: usize,
    /// Columns of `U⁻¹` inside the reach of the dirty `U` columns.
    pub dirty_uinv_columns: usize,
    /// Rows of the stored `U⁻¹` re-encoded by the splice (rows holding
    /// entries in a dirty column, before or after the update), as
    /// [`kdash_sparse::ProximityStore::splice_columns`] counts them.
    pub dirty_uinv_rows: usize,
    /// Stored entries the dirty-column re-solves produced (the numeric
    /// work actually paid, against `nnz(L⁻¹) + nnz(U⁻¹)` for a rebuild).
    pub resolved_nnz: usize,
    /// Graph edit + validation time.
    pub graph_time: Duration,
    /// Transition assembly + incremental LU refactorisation time (the
    /// whole stage; [`Self::refactor_time`] and
    /// [`Self::factor_splice_time`] subdivide its LU part).
    pub factorization_time: Duration,
    /// Dependency analysis + dirty-column re-elimination inside the
    /// factorisation stage. A *subdivision* of
    /// [`Self::factorization_time`] — not added again by
    /// [`Self::total_time`].
    pub refactor_time: Duration,
    /// Splicing the recomputed factor columns into the old `L`/`U`.
    /// Also a subdivision of [`Self::factorization_time`].
    pub factor_splice_time: Duration,
    /// Reach-analysis time (both triangles).
    pub reach_time: Duration,
    /// Dirty-column re-solve time (the work-stealing pool).
    pub resolve_time: Duration,
    /// Splice time: the re-solved columns into `L⁻¹` and into `U⁻¹`
    /// (its rows re-encoded, its derived tables refreshed).
    pub splice_time: Duration,
    /// Assembling the next index ([`KdashIndex::patched`]), which derives
    /// the bounds' constants from the edited graph.
    pub estimator_time: Duration,
    /// Write-ahead journal append + fsync time (zero when journaled
    /// mode is off) — the durability tax the `recovery_time` bench
    /// series measures.
    pub journal_time: Duration,
    /// True when this apply tripped the auto-checkpoint policy
    /// ([`DynamicIndex::auto_checkpoint`]): the index was snapshotted
    /// and the journal truncated after the commit.
    pub checkpointed: bool,
    /// Auto-checkpoint time (atomic snapshot save + journal
    /// truncation); zero unless [`Self::checkpointed`].
    pub checkpoint_time: Duration,
}

impl UpdateReport {
    /// Total wall-clock of the batch.
    pub fn total_time(&self) -> Duration {
        self.graph_time
            + self.factorization_time
            + self.reach_time
            + self.resolve_time
            + self.splice_time
            + self.estimator_time
            + self.journal_time
            + self.checkpoint_time
    }

    /// Fraction of `L⁻¹` columns the update had to re-solve.
    pub fn linv_dirty_fraction(&self) -> f64 {
        self.dirty_linv_columns as f64 / self.num_columns.max(1) as f64
    }

    /// Fraction of `U⁻¹` columns the update had to re-solve.
    pub fn uinv_dirty_fraction(&self) -> f64 {
        self.dirty_uinv_columns as f64 / self.num_columns.max(1) as f64
    }

    /// Fraction of factor columns the refactorisation re-eliminated.
    pub fn factor_recompute_fraction(&self) -> f64 {
        self.dirty_factor_columns_recomputed as f64 / self.num_columns.max(1) as f64
    }
}

/// What [`DynamicIndex::predict`] reports: upper bounds on the footprint
/// of a (coalesced) update, computed without applying it. A real apply
/// recomputes the *exact* taint closure of the edited `W` columns; the
/// factor count here is only [`refactor_candidates`]' pattern-reach upper
/// bound on it. The inverse counts are that candidate set's reach over
/// the current factor patterns, and bound the real dirty sets whenever
/// the update leaves those patterns unchanged.
#[derive(Debug, Clone, Default)]
pub struct UpdatePrediction {
    /// Edits across all predicted batches.
    pub edits: usize,
    /// Batches the prediction coalesced.
    pub batches: usize,
    /// Matrix dimension (columns per triangular factor).
    pub num_columns: usize,
    /// Transition-matrix columns the edits renormalise.
    pub dirty_w_columns: usize,
    /// Upper bound ([`refactor_candidates`]) on the factor columns the
    /// incremental refactorisation re-eliminates.
    pub candidate_factor_columns: usize,
    /// `L⁻¹` columns predicted inside the dirty reach.
    pub predicted_linv_columns: usize,
    /// `U⁻¹` columns predicted inside the dirty reach.
    pub predicted_uinv_columns: usize,
}

impl UpdatePrediction {
    /// Fraction of `W` columns the edits touch.
    pub fn w_fraction(&self) -> f64 {
        self.dirty_w_columns as f64 / self.num_columns.max(1) as f64
    }

    /// Upper bound on the fraction of factor columns re-eliminated.
    pub fn factor_fraction(&self) -> f64 {
        self.candidate_factor_columns as f64 / self.num_columns.max(1) as f64
    }

    /// Fraction of `L⁻¹` columns predicted dirty.
    pub fn linv_fraction(&self) -> f64 {
        self.predicted_linv_columns as f64 / self.num_columns.max(1) as f64
    }

    /// Fraction of `U⁻¹` columns predicted dirty.
    pub fn uinv_fraction(&self) -> f64 {
        self.predicted_uinv_columns as f64 / self.num_columns.max(1) as f64
    }
}

/// A [`KdashIndex`] plus the live LU factors of its system matrix —
/// everything needed to assemble the index one batch later. See the
/// crate docs for the exactness argument.
#[derive(Debug)]
pub struct DynamicIndex {
    /// The current index. Shared ([`Self::shared_index`]), never
    /// modified: an apply swaps in the next one.
    index: Arc<KdashIndex>,
    /// Factors of `W` for the graph `index` stores.
    factors: LuFactors,
    /// Worker threads for the dirty-column re-solves (`0` = all cores).
    threads: usize,
    /// Run the full structural audit after every committed batch.
    verify_after_apply: bool,
    /// The write-ahead journal, when journaled mode is on
    /// ([`Self::journaled`]).
    journal: Option<Journal>,
    /// Auto-checkpoint policy: snapshot path + journal record
    /// threshold ([`Self::auto_checkpoint`]); inert without a journal.
    auto_checkpoint: Option<(PathBuf, u64)>,
}

impl DynamicIndex {
    /// Attaches the update engine to an index: `W` is refactorised once
    /// — the cheap stage, a few percent of a full build — so built and
    /// loaded (persisted) indexes attach alike, without a rebuild.
    ///
    /// Attachment then **probes** the stored inverses against the
    /// factors: a few columns are re-solved and bit-compared. Until the
    /// index carries a residual audit this is the only check that the
    /// stored inverses are the inverses of the stored graph's factors —
    /// it guards against an index assembled from mismatched parts (a
    /// graph, a restart probability or a dangling policy other than the
    /// one the inverses were built under) or damaged in memory, where
    /// updating would splice fresh columns into inverses of another
    /// matrix. The probe always includes dangling nodes (the only nodes
    /// whose transition column the dangling policies disagree on), so a
    /// mismatch fails attachment with a typed error instead of serving
    /// wrong proximities later.
    pub fn new(index: KdashIndex) -> Result<DynamicIndex> {
        let a = transition_matrix(index.permuted_graph(), index.dangling_policy());
        let w = w_matrix(&a, index.restart_probability())?;
        let engine = DynamicIndex {
            index: Arc::new(index),
            factors: kdash_sparse::sparse_lu(&w)?,
            threads: 1,
            verify_after_apply: false,
            journal: None,
            auto_checkpoint: None,
        };
        engine.probe_consistency()?;
        Ok(engine)
    }

    /// Bit-compares a handful of re-solved inverse columns against the
    /// stored arrays (see [`DynamicIndex::new`]). Probe set: up to four
    /// dangling nodes — where a mismatched dangling policy *must* show
    /// (their `W` columns differ at the diagonal, so the `U` pivots and
    /// with them `1/U_qq` differ by construction) — plus the first and
    /// last column as general corruption canaries. The columns are
    /// re-solved by the driver an apply re-solves dirty columns with,
    /// under the index's drop tolerance: a dense solve against a
    /// sparsified store would flag every truncated column as corruption.
    fn probe_consistency(&self) -> Result<()> {
        let n = self.index.num_nodes();
        if n == 0 {
            return Ok(());
        }
        let graph = self.index.permuted_graph();
        let mut probes: Vec<Index> = (0..n as Index)
            .filter(|&v| graph.out_degree(v) == 0)
            .take(4)
            .collect();
        probes.push(0);
        probes.push(n as Index - 1);
        probes.sort_unstable();
        probes.dedup();
        let (eps, one) = (self.index.drop_tolerance(), InvertOptions::default());
        let linv = sparsify_columns_with(&self.factors.l, Triangle::Lower, &probes, eps, one)?;
        let uinv = sparsify_columns_with(&self.factors.u, Triangle::Upper, &probes, eps, one)?;
        let mismatch = |q: Index| {
            KdashError::Sparse(kdash_sparse::SparseError::Malformed(format!(
                "stored inverses disagree with the factors of the stored graph at column {q}: \
                 the index was assembled from mismatched parts or damaged in memory — rebuild \
                 it before attaching the update engine"
            )))
        };
        for (l, u) in linv.updates.iter().zip(&uinv.updates) {
            let q = l.col;
            // L⁻¹ column q, bit-for-bit.
            let (rows, vals) = self.index.linv_cols().col(q);
            if l.rows != rows || l.vals.iter().zip(vals).any(|(a, b)| a.to_bits() != b.to_bits()) {
                return Err(mismatch(q));
            }
            // U⁻¹ diagonal entry of column q (= first stored entry of the
            // upper-triangular row q). The diagonal is the protected seed,
            // so truncation cannot touch it.
            let at = u.rows.iter().position(|&r| r == q).ok_or_else(|| mismatch(q))?;
            let solved_diag = u.vals[at];
            // Diagonal of stored row q via a single-element merge join —
            // the row is upper triangular, so this reads one entry.
            let stored_diag = self.index.uinv_rows().row_dot_sparse(q, &[q], &[1.0]);
            if stored_diag == 0.0 || solved_diag.to_bits() != stored_diag.to_bits() {
                return Err(mismatch(q));
            }
        }
        Ok(())
    }

    /// Worker threads for the dirty-column re-solves: `0` = one per
    /// available core, `1` (default) = sequential. The patched arrays
    /// are bit-identical at any thread count (same contract as the
    /// build pipeline's inversion stage).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Opt into running the full structural audit
    /// ([`kdash_core::IndexAudit::run_with_factors`]) after every committed
    /// batch: each spliced component's own constructor checks (the
    /// blocked-encoding decode contract and the store's column sums among
    /// them), the leading diagonals of both inverses, estimator coherence,
    /// and the engine's LU factors against `W`. The audit runs *after* the
    /// commit — a finding means the committed state is damaged and
    /// [`apply`](Self::apply) returns
    /// [`kdash_core::KdashError::AuditFailed`]; treat the index as
    /// suspect and rebuild or reload it. Costs one full pass over the
    /// stored arrays per batch (off by default).
    pub fn verify_after_apply(mut self, verify: bool) -> Self {
        self.verify_after_apply = verify;
        self
    }

    /// Turns on journaled mode: every subsequent [`apply`](Self::apply)
    /// / [`apply_coalesced`](Self::apply_coalesced) appends its batches
    /// to `journal` and fsyncs **before** switching to the patched index,
    /// so an acknowledged apply is durable by definition (see the
    /// [`journal`](crate::journal) module for the full contract).
    ///
    /// The journal's tail epoch must equal the index's current epoch —
    /// attaching a journal that is ahead (unreplayed records) or behind
    /// (stale truncation) would let acknowledgement and durability
    /// disagree, so it fails with
    /// [`JournalError::EpochMismatch`]; run [`Self::recover`] instead.
    pub fn journaled(mut self, journal: Journal) -> std::result::Result<Self, JournalError> {
        if journal.last_epoch() != self.index.update_epoch() {
            return Err(JournalError::EpochMismatch {
                journal: journal.last_epoch(),
                index: self.index.update_epoch(),
            });
        }
        self.journal = Some(journal);
        Ok(self)
    }

    /// The attached journal, when journaled mode is on.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Turns on the auto-checkpoint policy: after any journaled apply
    /// that leaves **more than** `max_records` records in the journal,
    /// the engine runs [`checkpoint`](Self::checkpoint) to `path`
    /// automatically, so serving-mode journals (and with them, crash
    /// recovery's replay time) stay bounded.
    /// [`AUTO_CHECKPOINT_DEFAULT_RECORDS`] is the measured default.
    ///
    /// The checkpoint runs strictly *after* the commit: a checkpoint
    /// failure surfaces as [`kdash_core::KdashError::JournalFailed`],
    /// but the apply it rode on is already installed and durable (the
    /// journal keeps its records; the next apply or an explicit
    /// [`checkpoint`](Self::checkpoint) retries). Inert without a
    /// journal.
    pub fn auto_checkpoint<P: Into<PathBuf>>(mut self, path: P, max_records: u64) -> Self {
        self.auto_checkpoint = Some((path.into(), max_records));
        self
    }

    /// Checkpoints journaled state: persists the index to `path` via
    /// the atomic save protocol, then truncates the journal (itself
    /// atomically — rename of a fresh header-only journal). A crash
    /// between the two steps leaves snapshot *and* records; recovery
    /// skips the already-contained records, so nothing is applied
    /// twice. Requires journaled mode
    /// ([`JournalError::NotJournaled`] otherwise).
    pub fn checkpoint<P: AsRef<Path>>(&mut self, path: P) -> std::result::Result<(), JournalError> {
        let journal = self.journal.as_mut().ok_or(JournalError::NotJournaled)?;
        let faults = Arc::clone(journal.fault_injector());
        save_atomic_with(&self.index, path, faults.as_ref())?;
        journal.checkpoint(self.index.update_epoch())
    }

    /// Deterministic crash recovery: rebuilds the journaled engine from
    /// a snapshot plus its sidecar journal.
    ///
    /// Scans the journal tolerating a torn tail (a crash mid-append
    /// truncates at the first bad frame — typed handling, never a
    /// panic), replays every intact record above the snapshot's epoch
    /// in **one coalesced pass** — bit-identical to having applied them
    /// live, the property `tests/failure_injection.rs` pins with
    /// `check_index_bit_identity` — and reattaches the (healed) journal
    /// for further journaled applies. Records at or below the
    /// snapshot's epoch are skipped (a crash between snapshot save and
    /// journal truncation leaves both; replay is idempotent), and a
    /// journal strictly *behind* the snapshot (updates ran without
    /// journaling) is resynced by truncating it at the snapshot epoch.
    /// Surviving records that *skip* epochs above the snapshot mean
    /// acknowledged history was lost out-of-band:
    /// [`JournalError::EpochGap`], never a silent skip.
    pub fn recover<P: AsRef<Path>>(
        index: KdashIndex,
        journal_path: P,
    ) -> std::result::Result<(DynamicIndex, RecoveryReport), JournalError> {
        let t = Instant::now();
        let snapshot_epoch = index.update_epoch();
        let (records, scan) = Journal::read_records(journal_path.as_ref())?;

        let mut skipped = 0usize;
        let mut replay: Vec<UpdateBatch> = Vec::new();
        for (epoch, batch) in records {
            if epoch <= snapshot_epoch {
                skipped += 1;
            } else {
                if replay.is_empty() && epoch != snapshot_epoch + 1 {
                    return Err(JournalError::EpochGap {
                        snapshot: snapshot_epoch,
                        first_record: epoch,
                    });
                }
                replay.push(batch);
            }
        }

        let mut engine = DynamicIndex::new(index)?;
        let replayed_batches = replay.len();
        let replayed_edits = replay.iter().map(|b| b.len()).sum();
        if !replay.is_empty() {
            engine.apply_coalesced(&replay)?;
        }

        // Reattach for further journaled applies; opening heals the
        // torn tail and a damaged header. A journal strictly behind the
        // recovered epoch (snapshot newer than its sidecar) restarts
        // from the snapshot.
        let mut journal = Journal::open(journal_path.as_ref())?;
        if journal.last_epoch() < engine.index.update_epoch() {
            journal.checkpoint(engine.index.update_epoch())?;
        }
        let report = RecoveryReport {
            snapshot_epoch,
            final_epoch: engine.index.update_epoch(),
            replayed_batches,
            replayed_edits,
            skipped_records: skipped,
            torn_tail: scan
                .torn
                .as_ref()
                .map(|t| format!("{} (byte {})", t.detail, t.offset)),
            header_repaired: !scan.header_ok,
            replay_time: t.elapsed(),
        };
        let engine = engine.journaled(journal)?;
        Ok((engine, report))
    }

    /// The maintained index.
    pub fn index(&self) -> &KdashIndex {
        &self.index
    }

    /// The maintained index as the engine holds it — a pointer copy, so a
    /// serving tier publishes the very memory the engine reads. The next
    /// apply swaps the engine to a new index and leaves this one as it is.
    #[doc(hidden)]
    pub fn shared_index(&self) -> Arc<KdashIndex> {
        Arc::clone(&self.index)
    }

    /// Consumes the engine, returning the index (e.g. to persist it).
    pub fn into_index(self) -> KdashIndex {
        Arc::unwrap_or_clone(self.index)
    }

    /// Applies one batch: validates every edit against the sequentially
    /// edited graph (original node ids in every error), switches to the
    /// patched index — its update epoch one higher — and reports what was
    /// touched. On any error the engine keeps the index it had.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<UpdateReport> {
        self.apply_coalesced(std::slice::from_ref(batch))
    }

    /// Runs the analysis stages of a (coalesced) update without applying
    /// it: validates the edits, assembles the edited `W`, and reports the
    /// dirty-`W` columns, [`refactor_candidates`]' pattern-reach upper
    /// bound on the factor columns a real apply re-eliminates (the apply
    /// itself recomputes the exact taint closure, which is at most this),
    /// and the inverse columns inside that bound's reach over the
    /// **current** factor patterns: an upper bound whenever the update
    /// leaves factor sparsity patterns unchanged (reweights; most small
    /// edits), an estimate otherwise.
    ///
    /// Multiple batches are predicted as one coalesced pass. Errors on
    /// an empty queue, and on invalid edits exactly as
    /// [`Self::apply_coalesced`] would ([`CsrGraph::apply_edits`], in user ids).
    pub fn predict(&self, batches: &[UpdateBatch]) -> Result<UpdatePrediction> {
        let (edits, new_graph, dirty_w) = self.edit_graph(batches)?;
        let a = transition_matrix(&new_graph, self.index.dangling_policy());
        let w = w_matrix(&a, self.index.restart_probability())?;
        let candidates = refactor_candidates(&self.factors.l, &w, &dirty_w);
        let predicted_linv = inverse_dirty_columns(&self.factors.l, &candidates);
        let predicted_uinv = inverse_dirty_columns(&self.factors.u, &candidates);
        Ok(UpdatePrediction {
            edits,
            batches: batches.len(),
            num_columns: self.index.num_nodes(),
            dirty_w_columns: dirty_w.len(),
            candidate_factor_columns: candidates.len(),
            predicted_linv_columns: predicted_linv.len(),
            predicted_uinv_columns: predicted_uinv.len(),
        })
    }

    /// The prologue [`Self::predict`] and [`Self::apply_coalesced`] share:
    /// edits the permuted graph once, queue and all, with
    /// [`CsrGraph::apply_edits`], the one edit validator (so batch k sees
    /// the edits of batches 0..k, same as applying them one by one). An id
    /// past the graph maps to itself, so it is reported at its place in
    /// the sequence, and errors are mapped back to user ids. (An edited
    /// original graph permuted by the frozen order equals the edited
    /// permuted graph, so the rebuild reference in the equivalence suite
    /// compares apples to apples.) Returns the edit count, the edited
    /// graph and the distinct edited source nodes — the dirty `W` columns
    /// — ascending.
    ///
    /// Errors with [`kdash_core::KdashError::Sparse`] (malformed) on an
    /// empty queue — an accidental no-op epoch bump would corrupt the
    /// freshness audit trail.
    fn edit_graph(&self, batches: &[UpdateBatch]) -> Result<(usize, CsrGraph, Vec<Index>)> {
        if batches.is_empty() {
            return Err(KdashError::Sparse(kdash_sparse::SparseError::Malformed(
                "an update needs at least one batch".into(),
            )));
        }
        let perm = self.index.permutation();
        let n = self.index.num_nodes();
        let to_new = |v: NodeId| if (v as usize) < n { perm.new_of(v) } else { v };
        let edits: Vec<EdgeEdit> =
            batches.iter().flat_map(|b| b.edits()).map(|e| e.map_endpoints(to_new)).collect();
        let graph = self.index.permuted_graph().apply_edits(&edits).map_err(|mut e| {
            match &mut e {
                GraphError::NodeOutOfBounds { node, num_nodes } => {
                    return KdashError::NodeOutOfBounds { node: *node, num_nodes: *num_nodes };
                }
                GraphError::DuplicateEdge { src, dst }
                | GraphError::EdgeNotFound { src, dst }
                | GraphError::InvalidWeight { src, dst, .. } => {
                    (*src, *dst) = (perm.old_of(*src), perm.old_of(*dst));
                }
                _ => {}
            }
            KdashError::Graph(e)
        })?;
        let mut dirty_w: Vec<Index> = edits.iter().map(|e| e.src()).collect();
        dirty_w.sort_unstable();
        dirty_w.dedup();
        Ok((edits.len(), graph, dirty_w))
    }

    /// Applies a queue of batches in one coalesced pass: the merged edit
    /// list is validated against the sequentially edited graph exactly as
    /// `batches.iter().map(|b| engine.apply(b))` would — once, by the one
    /// edit validator [`CsrGraph::apply_edits`], errors in user ids — but
    /// the pipeline runs **once** — one merged dirty-`W` set, one
    /// incremental refactorisation, one reach analysis, one re-solve,
    /// one splice. The committed index is bit-identical to the
    /// one-by-one sequence and the update epoch advances by
    /// `batches.len()`, so coalescing is observationally equivalent —
    /// with one deliberate exception: application is all-or-nothing. An
    /// invalid edit in *any* batch fails the whole pass with the engine
    /// still on the index it had, where the sequential loop would have
    /// committed the batches preceding the bad one. Errors on an empty
    /// queue.
    pub fn apply_coalesced(&mut self, batches: &[UpdateBatch]) -> Result<UpdateReport> {
        // Stage 1 — validate and edit the permuted graph.
        let t = Instant::now();
        let (edits, new_graph, dirty_w) = self.edit_graph(batches)?;
        let mut report = UpdateReport {
            edits,
            batches: batches.len(),
            num_columns: self.index.num_nodes(),
            dirty_w_columns: dirty_w.len(),
            graph_time: t.elapsed(),
            ..Default::default()
        };

        // Stage 2 — incremental refactorisation: only factor columns in
        // the forward reach of the dirty W columns through the
        // column-dependency DAG are re-eliminated; the rest are spliced
        // from the current factors bit-for-bit. The changed column sets
        // fall out of the re-elimination directly.
        let t = Instant::now();
        let a = transition_matrix(&new_graph, self.index.dangling_policy());
        let w = w_matrix(&a, self.index.restart_probability())?;
        let (new_factors, refactor) = refactor_columns(&self.factors, &w, &dirty_w)?;
        report.factorization_time = t.elapsed();
        report.dirty_factor_columns_recomputed = refactor.recomputed_columns;
        report.refactor_time = refactor.analysis_time + refactor.solve_time;
        report.factor_splice_time = refactor.splice_time;
        let dirty_l = refactor.changed_l_columns;
        let dirty_u = refactor.changed_u_columns;
        report.dirty_l_columns = dirty_l.len();
        report.dirty_u_columns = dirty_u.len();

        // Stage 3 — reach analysis: the exact dirty inverse column sets.
        let t = Instant::now();
        let dirty_linv = inverse_dirty_columns(&new_factors.l, &dirty_l);
        let dirty_uinv = inverse_dirty_columns(&new_factors.u, &dirty_u);
        report.dirty_linv_columns = dirty_linv.len();
        report.dirty_uinv_columns = dirty_uinv.len();
        report.reach_time = t.elapsed();

        // Stage 4 — re-solve only the dirty inverse columns, on the same
        // per-column solves (hence the same bits) the build pipeline runs,
        // under the index's drop tolerance so sparsified stores stay
        // sparsified (ε = 0 is the exact solve).
        let t = Instant::now();
        let opts = InvertOptions { threads: self.threads };
        let eps = self.index.drop_tolerance();
        let linv_sparsified =
            sparsify_columns_with(&new_factors.l, Triangle::Lower, &dirty_linv, eps, opts)?;
        let uinv_sparsified =
            sparsify_columns_with(&new_factors.u, Triangle::Upper, &dirty_uinv, eps, opts)?;
        let linv_updates = linv_sparsified.updates;
        let uinv_updates = uinv_sparsified.updates;
        report.resolved_nnz = linv_updates.iter().chain(&uinv_updates).map(|u| u.rows.len()).sum();
        report.resolve_time = t.elapsed();

        // Stage 5 — splice: each stored inverse takes the solved columns
        // as the solver emitted them. How `U⁻¹` turns columns into its
        // rows, and which of its derived tables that touches, is the
        // store's business.
        let t = Instant::now();
        let new_linv = self.index.linv_cols().splice_columns(&linv_updates)?;
        let (new_uinv, dirty_uinv_rows) = self.index.uinv_rows().splice_columns(&uinv_updates)?;
        report.dirty_uinv_rows = dirty_uinv_rows;
        report.splice_time = t.elapsed();

        // Stage 6 — the next index: `patched` derives the bounds'
        // constants (and the out-weight sums and the reach anchor) from
        // the edited graph, and everything that can fail runs here,
        // before anything is made durable; `estimator_time` times it. Its
        // update epoch is ahead by the number of batches this pass
        // represented. The per-column dropped ℓ₁ masses carry over,
        // overwritten where a column was re-solved.
        let t = Instant::now();
        let (old_linv_dropped, old_uinv_dropped) = self.index.dropped_masses();
        let mut linv_dropped = old_linv_dropped.to_vec();
        for (upd, &mass) in linv_updates.iter().zip(&linv_sparsified.dropped) {
            linv_dropped[upd.col as usize] = mass;
        }
        let mut uinv_dropped = old_uinv_dropped.to_vec();
        for (upd, &mass) in uinv_updates.iter().zip(&uinv_sparsified.dropped) {
            uinv_dropped[upd.col as usize] = mass;
        }
        let next = Arc::new(self.index.patched(IndexPatch {
            graph: new_graph,
            linv: new_linv,
            uinv: new_uinv,
            linv_dropped,
            uinv_dropped,
            nnz_l: new_factors.l.nnz(),
            nnz_u: new_factors.u.nnz(),
            epochs: batches.len() as u64,
        })?);
        report.estimator_time = t.elapsed();
        // Write-ahead: the batches become durable (appended + fsynced)
        // strictly before the engine switches to the next index. On
        // journal failure that index is dropped and the engine stays at
        // its old epoch — acknowledgement and durability cannot disagree.
        // Nothing after the append can fail short of the opt-in audit.
        if let Some(journal) = self.journal.as_mut() {
            let t = Instant::now();
            journal
                .append_batches(batches, self.index.update_epoch() + 1)
                .map_err(|e| KdashError::JournalFailed { detail: e.to_string() })?;
            report.journal_time = t.elapsed();
        }
        self.index = next;
        self.factors = new_factors;
        if self.verify_after_apply {
            kdash_core::IndexAudit::run_with_factors(&self.index, &self.factors).into_result()?;
        }
        // Auto-checkpoint policy: bound journal growth (and with it,
        // recovery replay time) once the record count passes the
        // threshold. Strictly after the commit — on checkpoint failure
        // the apply is already installed and durable, the journal keeps
        // its records, and the error says exactly that.
        if let Some((path, max_records)) = self.auto_checkpoint.clone() {
            if self.journal.as_ref().is_some_and(|j| j.records() > max_records) {
                let t = Instant::now();
                self.checkpoint(&path).map_err(|e| KdashError::JournalFailed {
                    detail: format!(
                        "auto-checkpoint to {} failed after a committed apply (the update \
                         itself is installed and durable; the journal retains its records): {e}",
                        path.display()
                    ),
                })?;
                report.checkpoint_time = t.elapsed();
                report.checkpointed = true;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdash_core::{IndexBuilder, IndexOptions, NodeOrdering};
    use kdash_graph::GraphBuilder;

    fn chorded_ring(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as NodeId {
            b.add_edge(v, (v + 1) % n as NodeId, 1.0);
            if v % 3 == 0 {
                b.add_edge(v, (v + n as NodeId / 2) % n as NodeId, 0.5);
            }
        }
        b.build().unwrap()
    }

    /// The core contract on a small graph: after a batch, the index
    /// equals a from-scratch rebuild of the edited graph under the same
    /// permutation — arrays and answers. (The broad property version
    /// lives in `tests/dynamic_equivalence.rs`.)
    #[test]
    fn apply_matches_pinned_rebuild() {
        let graph = chorded_ring(30);
        let options = IndexOptions { ordering: NodeOrdering::Degree, ..Default::default() };
        let index = KdashIndex::build(&graph, options).unwrap();
        let perm = index.permutation().clone();
        let mut dynamic = DynamicIndex::new(index).unwrap();
        let batch = UpdateBatch::new(vec![
            EdgeEdit::Insert { src: 4, dst: 20, weight: 2.0 },
            EdgeEdit::Delete { src: 6, dst: 7 },
            EdgeEdit::Reweight { src: 0, dst: 1, weight: 3.0 },
        ])
        .unwrap();
        let report = dynamic.apply(&batch).unwrap();
        assert_eq!(report.edits, 3);
        assert_eq!(report.dirty_w_columns, 3);
        assert!(report.dirty_linv_columns >= report.dirty_l_columns);
        assert_eq!(dynamic.index().update_epoch(), 1);

        let edited = graph
            .apply_edits(&[
                EdgeEdit::Insert { src: 4, dst: 20, weight: 2.0 },
                EdgeEdit::Delete { src: 6, dst: 7 },
                EdgeEdit::Reweight { src: 0, dst: 1, weight: 3.0 },
            ])
            .unwrap();
        let rebuilt =
            IndexBuilder::from_options(options).permutation(perm).build(&edited).unwrap();
        let (ap, ai, av) = dynamic.index().linv_cols().raw();
        let (bp, bi, bv) = rebuilt.linv_cols().raw();
        assert_eq!((ap, ai), (bp, bi), "L⁻¹ structure must match the rebuild");
        assert!(av.iter().zip(bv).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(dynamic.index().uinv_rows(), rebuilt.uinv_rows());
        for q in 0..30u32 {
            let a = dynamic.index().top_k(q, 8).unwrap();
            let b = rebuilt.top_k(q, 8).unwrap();
            assert_eq!(a.items, b.items, "q {q}");
            assert_eq!(a.stats, b.stats, "q {q}");
        }
    }

    /// Same pinned-rebuild contract on a *sparsified* index: the engine's
    /// stage-4 re-solves must truncate under the index's drop tolerance,
    /// carry per-column dropped masses through the patch, and keep the
    /// consistency probes honest — so the patched index stays bit-identical
    /// to a from-scratch sparsified rebuild of the edited graph.
    /// A chorded ring with node-dependent weights: the uniform ring is so
    /// symmetric that distinct nodes share *exactly* equal proximities,
    /// which the refined path refuses to certify (by design — exact ties
    /// have no positive gap to separate). Irregular weights break the ties.
    fn weighted_chorded_ring(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as NodeId {
            b.add_edge(v, (v + 1) % n as NodeId, 1.0 + 0.03 * v as f64);
            if v % 3 == 0 {
                b.add_edge(v, (v + n as NodeId / 2) % n as NodeId, 0.5 + 0.01 * v as f64);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn apply_matches_pinned_rebuild_sparsified() {
        let graph = weighted_chorded_ring(30);
        let options = IndexOptions {
            ordering: NodeOrdering::Degree,
            drop_tolerance: 1e-4,
            ..Default::default()
        };
        let index = KdashIndex::build(&graph, options).unwrap();
        assert!(index.needs_refinement(), "ε = 1e-4 must actually drop mass on this graph");
        let perm = index.permutation().clone();
        let mut dynamic = DynamicIndex::new(index).unwrap();
        let edits = vec![
            EdgeEdit::Insert { src: 4, dst: 20, weight: 2.0 },
            EdgeEdit::Delete { src: 6, dst: 7 },
            EdgeEdit::Reweight { src: 0, dst: 1, weight: 3.0 },
        ];
        let report = dynamic.apply(&UpdateBatch::new(edits.clone()).unwrap()).unwrap();
        assert_eq!(report.edits, 3);

        let edited = graph.apply_edits(&edits).unwrap();
        let rebuilt =
            IndexBuilder::from_options(options).permutation(perm).build(&edited).unwrap();
        let (ap, ai, av) = dynamic.index().linv_cols().raw();
        let (bp, bi, bv) = rebuilt.linv_cols().raw();
        assert_eq!((ap, ai), (bp, bi), "sparsified L⁻¹ structure must match the rebuild");
        assert!(av.iter().zip(bv).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(dynamic.index().uinv_rows(), rebuilt.uinv_rows());
        let (ald, aud) = dynamic.index().dropped_masses();
        let (bld, bud) = rebuilt.dropped_masses();
        assert!(ald.iter().zip(bld).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(aud.iter().zip(bud).all(|(a, b)| a.to_bits() == b.to_bits()));
        for q in 0..30u32 {
            let a = dynamic.index().top_k(q, 8).unwrap();
            let b = rebuilt.top_k(q, 8).unwrap();
            assert_eq!(a.items, b.items, "q {q}");
        }
        // The audit re-run against the patched store must stay green.
        let mut dynamic = dynamic.verify_after_apply(true);
        dynamic
            .apply(&UpdateBatch::new(vec![EdgeEdit::Insert { src: 1, dst: 9, weight: 0.7 }]).unwrap())
            .unwrap();
    }

    /// Auto-checkpoint: once the journal holds more than the threshold,
    /// the next committed apply snapshots and truncates it — and the
    /// snapshot + healed journal recover to the same epoch.
    #[test]
    fn auto_checkpoint_bounds_the_journal() {
        let dir = std::env::temp_dir()
            .join(format!("kdash-auto-ckpt-{}-{}", std::process::id(), std::line!()));
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot = dir.join("index.kdash");
        let journal_path = crate::Journal::sidecar_path(&snapshot);
        let graph = chorded_ring(16);
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        kdash_core::save_atomic(&index, &snapshot).unwrap();
        let journal = crate::Journal::create(&journal_path, 0).unwrap();
        let mut dynamic = DynamicIndex::new(index)
            .unwrap()
            .journaled(journal)
            .unwrap()
            .auto_checkpoint(&snapshot, 2);

        let mut checkpoints = 0;
        for i in 0..6u32 {
            let batch = UpdateBatch::new(vec![EdgeEdit::Insert {
                src: i,
                dst: (i + 5) % 16,
                weight: 1.0,
            }])
            .unwrap();
            let report = dynamic.apply(&batch).unwrap();
            let records = dynamic.journal().unwrap().records();
            assert!(records <= 3, "journal must stay bounded, holds {records} after apply {i}");
            if report.checkpointed {
                checkpoints += 1;
                assert!(report.checkpoint_time > Duration::ZERO);
                assert_eq!(records, 0, "a checkpoint truncates the journal");
            }
        }
        assert_eq!(checkpoints, 2, "6 applies at threshold 2 checkpoint twice");
        assert_eq!(dynamic.index().update_epoch(), 6);

        // The auto-written snapshot + journal recover to the live epoch.
        let loaded = KdashIndex::load(std::fs::File::open(&snapshot).unwrap()).unwrap();
        let (recovered, _report) = DynamicIndex::recover(loaded, &journal_path).unwrap();
        assert_eq!(recovered.index().update_epoch(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validation_reports_original_ids_and_leaves_index_untouched() {
        let graph = chorded_ring(12);
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let before = index.top_k(0, 5).unwrap();
        let mut dynamic = DynamicIndex::new(index).unwrap();
        let cases: Vec<(UpdateBatch, fn(&KdashError) -> bool)> = vec![
            (
                UpdateBatch::new(vec![EdgeEdit::Insert { src: 99, dst: 0, weight: 1.0 }]).unwrap(),
                |e| matches!(e, KdashError::NodeOutOfBounds { node: 99, .. }),
            ),
            (
                UpdateBatch::new(vec![EdgeEdit::Delete { src: 0, dst: 5 }]).unwrap(),
                |e| {
                    matches!(
                        e,
                        KdashError::Graph(kdash_graph::GraphError::EdgeNotFound {
                            src: 0,
                            dst: 5
                        })
                    )
                },
            ),
            (
                UpdateBatch::new(vec![EdgeEdit::Insert { src: 0, dst: 1, weight: 1.0 }]).unwrap(),
                |e| {
                    matches!(
                        e,
                        KdashError::Graph(kdash_graph::GraphError::DuplicateEdge {
                            src: 0,
                            dst: 1
                        })
                    )
                },
            ),
        ];
        for (batch, check) in cases {
            let err = dynamic.apply(&batch).unwrap_err();
            assert!(check(&err), "unexpected error {err:?}");
        }
        assert_eq!(dynamic.index().update_epoch(), 0, "failed batches must not bump the epoch");
        assert_eq!(dynamic.index().top_k(0, 5).unwrap().items, before.items);
    }

    /// Nothing a failed apply does is visible: a rejected batch, and a
    /// valid one whose journal append fails, both leave the engine on
    /// the very index it had.
    #[test]
    fn failed_applies_leave_the_shared_index_where_it_was() {
        use kdash_core::CrashPlan;
        let dir = std::env::temp_dir()
            .join(format!("kdash-failed-apply-{}-{}", std::process::id(), std::line!()));
        std::fs::create_dir_all(&dir).unwrap();
        // Creating a journal consumes the same injectable points every
        // time, so the point after them is the append's first operation.
        let counting = Arc::new(CrashPlan::count_only());
        Journal::create_with(dir.join("count.journal"), 0, counting.clone()).unwrap();
        let plan = Arc::new(CrashPlan::crash_at(counting.points()));
        let journal = Journal::create_with(dir.join("crash.journal"), 0, plan.clone()).unwrap();
        let index = KdashIndex::build(&chorded_ring(14), IndexOptions::default()).unwrap();
        let mut dynamic = DynamicIndex::new(index).unwrap().journaled(journal).unwrap();
        let before = dynamic.shared_index();

        let duplicate =
            UpdateBatch::new(vec![EdgeEdit::Insert { src: 0, dst: 1, weight: 1.0 }]).unwrap();
        assert!(matches!(dynamic.apply(&duplicate), Err(KdashError::Graph(_))));
        assert!(Arc::ptr_eq(&before, &dynamic.shared_index()));
        assert!(plan.tripped().is_none(), "a rejected batch never reaches the journal");

        let valid =
            UpdateBatch::new(vec![EdgeEdit::Insert { src: 0, dst: 5, weight: 1.0 }]).unwrap();
        assert!(matches!(dynamic.apply(&valid), Err(KdashError::JournalFailed { .. })));
        assert!(plan.tripped().is_some());
        assert!(Arc::ptr_eq(&before, &dynamic.shared_index()));
        assert_eq!(dynamic.index().update_epoch(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequential_semantics_within_a_batch() {
        let graph = chorded_ring(10);
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let mut dynamic = DynamicIndex::new(index).unwrap();
        // Insert then delete: validates and nets out to the weight change
        // of nothing — the graph is unchanged, so no inverse column may
        // move.
        let batch = UpdateBatch::new(vec![
            EdgeEdit::Insert { src: 2, dst: 7, weight: 1.0 },
            EdgeEdit::Delete { src: 2, dst: 7 },
        ])
        .unwrap();
        let report = dynamic.apply(&batch).unwrap();
        assert_eq!(report.dirty_l_columns, 0, "net no-op edits must not dirty the factors");
        assert_eq!(report.dirty_linv_columns, 0);
        assert_eq!(report.dirty_uinv_rows, 0);
        assert_eq!(dynamic.index().update_epoch(), 1, "the batch still counts");
    }

    #[test]
    fn coalesced_apply_matches_the_sequential_batches_bitwise() {
        let graph = chorded_ring(36);
        let options = IndexOptions { ordering: NodeOrdering::Degree, ..Default::default() };
        let index = KdashIndex::build(&graph, options).unwrap();
        let batches = vec![
            UpdateBatch::new(vec![EdgeEdit::Insert { src: 2, dst: 19, weight: 1.25 }]).unwrap(),
            UpdateBatch::new(vec![
                EdgeEdit::Delete { src: 2, dst: 19 },
                EdgeEdit::Reweight { src: 5, dst: 6, weight: 0.75 },
            ])
            .unwrap(),
            UpdateBatch::new(vec![EdgeEdit::Insert { src: 30, dst: 1, weight: 2.0 }]).unwrap(),
        ];

        let mut sequential = DynamicIndex::new(index.clone()).unwrap();
        for batch in &batches {
            sequential.apply(batch).unwrap();
        }
        let mut coalesced = DynamicIndex::new(index).unwrap();
        let report = coalesced.apply_coalesced(&batches).unwrap();
        assert_eq!(report.batches, 3);
        assert_eq!(report.edits, 4);
        assert_eq!(
            coalesced.index().update_epoch(),
            sequential.index().update_epoch(),
            "coalescing k batches must advance the epoch by k"
        );
        assert_eq!(coalesced.index().update_epoch(), 3);

        let (sp, si, sv) = sequential.index().linv_cols().raw();
        let (cp, ci, cv) = coalesced.index().linv_cols().raw();
        assert_eq!((sp, si), (cp, ci), "L⁻¹ structure must match");
        assert!(sv.iter().zip(cv).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(coalesced.index().uinv_rows(), sequential.index().uinv_rows());
        for q in 0..36u32 {
            assert_eq!(
                coalesced.index().top_k(q, 6).unwrap().items,
                sequential.index().top_k(q, 6).unwrap().items,
                "q {q}"
            );
        }
    }

    #[test]
    fn coalesced_apply_is_all_or_nothing_and_rejects_empty_queues() {
        let graph = chorded_ring(12);
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let mut dynamic = DynamicIndex::new(index).unwrap();
        assert!(dynamic.apply_coalesced(&[]).is_err(), "empty queue must not bump the epoch");
        // First batch is fine, second is invalid: nothing may commit.
        let batches = vec![
            UpdateBatch::new(vec![EdgeEdit::Insert { src: 0, dst: 5, weight: 1.0 }]).unwrap(),
            UpdateBatch::new(vec![EdgeEdit::Delete { src: 7, dst: 0 }]).unwrap(),
        ];
        assert!(dynamic.apply_coalesced(&batches).is_err());
        assert_eq!(dynamic.index().update_epoch(), 0);
        // Cross-batch sequencing validates: delete in batch 2 of an edge
        // inserted in batch 1.
        let batches = vec![
            UpdateBatch::new(vec![EdgeEdit::Insert { src: 0, dst: 5, weight: 1.0 }]).unwrap(),
            UpdateBatch::new(vec![EdgeEdit::Delete { src: 0, dst: 5 }]).unwrap(),
        ];
        let report = dynamic.apply_coalesced(&batches).unwrap();
        assert_eq!(report.dirty_l_columns, 0, "net no-op must not dirty the factors");
        assert_eq!(dynamic.index().update_epoch(), 2);
    }

    #[test]
    fn predict_bounds_the_apply_and_does_not_mutate() {
        let graph = chorded_ring(30);
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let mut dynamic = DynamicIndex::new(index).unwrap();
        let batches = vec![
            UpdateBatch::new(vec![EdgeEdit::Reweight { src: 4, dst: 5, weight: 2.0 }]).unwrap(),
            UpdateBatch::new(vec![EdgeEdit::Reweight { src: 9, dst: 10, weight: 0.5 }]).unwrap(),
        ];
        let before = dynamic.index().top_k(0, 5).unwrap();
        let prediction = dynamic.predict(&batches).unwrap();
        assert_eq!(dynamic.index().update_epoch(), 0, "predict must not mutate");
        assert_eq!(dynamic.index().top_k(0, 5).unwrap().items, before.items);
        assert_eq!(prediction.batches, 2);
        assert_eq!(prediction.dirty_w_columns, 2);
        assert!(dynamic.predict(&[]).is_err());

        let report = dynamic.apply_coalesced(&batches).unwrap();
        assert!(
            report.dirty_factor_columns_recomputed <= prediction.candidate_factor_columns,
            "the candidate set is a superset of what the apply recomputes"
        );
        // Reweights keep the factor patterns, so the inverse prediction
        // is a true upper bound (candidates that end up bit-unchanged
        // only over-predict).
        assert!(report.dirty_linv_columns <= prediction.predicted_linv_columns);
        assert!(report.dirty_uinv_columns <= prediction.predicted_uinv_columns);
        assert!(prediction.predicted_linv_columns > 0);
        assert!(prediction.factor_fraction() <= 1.0);
        assert!(prediction.candidate_factor_columns >= report.dirty_l_columns);
    }

    #[test]
    fn threads_do_not_change_bits() {
        let graph = chorded_ring(40);
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let batch = UpdateBatch::new(vec![
            EdgeEdit::Insert { src: 1, dst: 30, weight: 1.5 },
            EdgeEdit::Delete { src: 9, dst: 10 },
        ])
        .unwrap();
        let mut seq = DynamicIndex::new(index.clone()).unwrap();
        seq.apply(&batch).unwrap();
        for threads in [2usize, 0] {
            let mut par = DynamicIndex::new(index.clone()).unwrap().threads(threads);
            par.apply(&batch).unwrap();
            assert_eq!(
                par.index().uinv_rows(),
                seq.index().uinv_rows(),
                "threads {threads}: U⁻¹ must be bit-identical"
            );
            let (sp, si, sv) = seq.index().linv_cols().raw();
            let (pp, pi, pv) = par.index().linv_cols().raw();
            assert_eq!((sp, si), (pp, pi));
            assert!(sv.iter().zip(pv).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
