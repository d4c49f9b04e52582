//! Sparse inverses of triangular factors (Equations (4)–(5) of the paper).
//!
//! `L⁻¹` and `U⁻¹` are computed column by column: column `j` of `T⁻¹` is the
//! solution of `T x = e_j`, obtained with the Gilbert–Peierls sparse solve
//! so each column costs time proportional to its own nonzero count. The
//! inverse of a triangular matrix is triangular with the same orientation;
//! how *sparse* it is depends entirely on the node ordering — this is the
//! quantity the paper's reordering heuristics (degree / cluster / hybrid)
//! minimise and that Figure 5 measures.
//!
//! Columns are mutually independent (no column's solve reads another
//! column of the inverse), which makes the inversion embarrassingly
//! parallel. Every inversion in the crate — both factors of an LU, one
//! factor, or a dirty subset of one — runs through one worker pool here,
//! under a drop tolerance `ε` whose `0.0` is the exact inverse: the public
//! spellings are [`crate::sparsify`]'s, and there is no second,
//! exact-only one. A pool run is a list of *jobs*, one per triangle. Each
//! job shares a read-only view of its factor (for a full inversion indexed
//! once up front — strict-span bounds and stored diagonal per column, so
//! no solve searches a column, and the factor's dense tail mirrored for
//! contiguous AXPYs: [`crate::triangular`]) and splits its columns into
//! chunks claimed off its own claim counter; each worker keeps one
//! [`SolveWorkspace`] across the jobs it touches. The solved blocks are
//! gathered back in column order — so the result is **bit-identical** to
//! the sequential inversion at every thread count.
//!
//! A job whose factor has a dense tail — a full inversion at `ε = 0` —
//! solves its columns in **panels** of eight where the host has AVX-512F
//! ([`crate::triangular::wide_axpy`]): the eight columns of a panel are
//! one solve ([`SolveWorkspace::solve_panel`]) that pops the union of
//! their patterns once, scatters each factor column it reaches once for
//! every lane that reaches it, and sweeps the dense tail once for all
//! eight, a row of the panel being one vector. Each lane still receives
//! exactly the operations of its own solve, in their order, so the bytes
//! and the tally are the one-column solves'. Such a job's claims cover
//! whole panels (its chunk is rounded up to a multiple of eight), so only
//! its last panel is ragged, and each worker's workspace allocates the
//! panel scratch — `n × 8` values, a lane mask per position, eight output
//! columns — at its first panel and reuses it across claims and jobs. On
//! the `dict-pruned` graph that took `L⁻¹` from 38–43 to 18–21 ms and
//! `U⁻¹` from 36–38 to 22–25 ms at one worker (best of 9, a 2-vCPU
//! AVX-512 Xeon guest). Every other job — `ε > 0`, a subset re-solve through a
//! probing view, any job on a host without AVX-512F — solves one column
//! at a time.
//!
//! The factors follow the crate's convention: a `Lower` factor has an
//! implicit unit diagonal and an `Upper` one stores its own, so the
//! [`Triangle`] alone says how a column's diagonal is read.
//!
//! Claims go out **heavy-first**. A column's cost is its reach, which
//! grows towards the low columns of a `Lower` triangle and the high
//! columns of an `Upper` one (the last of 64 chunks of an RMAT `U⁻¹` holds
//! nearly half its cost), so among several workers `Upper` chunks are
//! claimed in descending order: the expensive chunks start first and the
//! cheap ones fill the tail, where an ascending order would leave one
//! worker alone on the most expensive chunk. A lone worker claims
//! ascending, so the first error it meets is the lowest column's.
//!
//! Workers **steal across triangles**. Worker `w` starts on job
//! `w mod jobs` — for the build's inversion of both factors, the workers
//! split between `L` and `U` — and when its job runs dry, hands its
//! blocks in and claims the next job's remaining chunks. The two
//! triangles rarely cost the same (the truncating `L̃⁻¹` solves of the
//! `rmat-certified` index, ε = 1e-4, cost 1.7× the `Ũ⁻¹` ones, 11.5
//! against 6.6–7.0 ms at one worker; 2.4× while the solve popped from a
//! binary heap), so a fixed worker
//! per triangle would leave one idle; the steal lets the faster side
//! finish the slower one's tail. A job is claimed from both ends: its own
//! workers from the heavy end, thieves from the light one, so the
//! cheapest chunks are the ones that move and the owner's claims stay
//! one ascending run.
//!
//! Worker 0 is the calling thread, and it *finishes* each job as soon as
//! every claim of it is handed in — between two of its own claims, while
//! the others keep solving: `L⁻¹` is concatenated into CSC arrays —
//! growing the lowest block's arrays in place, so the owner's run (one
//! block: consecutive claims extend the last block) is moved, not copied,
//! and only the stolen chunks are — and `U⁻¹` is transposed once,
//! straight from the blocks into the CSR rows the query engine reads. The
//! arrays a finish allocates outlive the pool in the caller's index, so
//! they come from the caller's heap.

use crate::csc::{check_finite, transpose_columns};
use crate::triangular::{FactorView, PanelAxpy, TailRule, PANEL};
use crate::{
    ColumnUpdate, CscMatrix, CsrMatrix, Index, LuFactors, Result, SolveTally, SolveWorkspace,
    SparseError, SparsifiedColumns, SparsifiedFactors, SparsifiedInverse, Triangle,
};
use std::mem::take;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Options for the triangular-inversion driver.
#[derive(Debug, Clone, Copy)]
pub struct InvertOptions {
    /// Worker threads: `0` means "one per available hardware thread"
    /// (`std::thread::available_parallelism`), `1` runs sequentially on
    /// the calling thread. Any thread count produces bit-identical output.
    pub threads: usize,
}

impl Default for InvertOptions {
    fn default() -> Self {
        InvertOptions { threads: 1 }
    }
}

impl InvertOptions {
    /// Resolves the worker count against the column count: `0` = auto,
    /// always at least 1, never more workers than columns.
    pub fn resolved_threads(&self, num_cols: usize) -> usize {
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.threads
        };
        threads.max(1).min(num_cols.max(1))
    }
}

/// The exact inverse of one triangle of `t` through the sparse kernel
/// alone — the reference `tests/build_determinism.rs` holds the dense
/// tail of the `ε = 0` inversions to, byte for byte.
#[doc(hidden)]
pub fn invert_without_tail(
    t: &CscMatrix,
    triangle: Triangle,
    options: InvertOptions,
) -> Result<CscMatrix> {
    Ok(invert_truncated(t, triangle, 0.0, options, TailRule::NEVER, None)?.inverse)
}

/// How many trailing columns of one triangle of `t` the structural rule
/// would solve as a dense tail ([`crate::triangular`]): from the first of
/// its last 2 048 columns (`Lower`; rows for `Upper`) whose strict part is
/// at least half full, if that leaves at least 64.
pub fn dense_tail_columns(t: &CscMatrix, triangle: Triangle) -> Result<usize> {
    FactorView::tail_columns(t, triangle, TailRule::STRUCTURAL)
}

/// Full inversion under drop tolerance `eps` (`0.0` = exact): the inverse,
/// the ℓ₁ mass truncated from each column, and what the solves did. The
/// factor's dense tail starts where `rule` says, and if it has one its
/// columns are solved in panels through `panels` (`None`: one at a time).
pub(crate) fn invert_truncated(
    t: &CscMatrix,
    triangle: Triangle,
    eps: f64,
    options: InvertOptions,
    rule: TailRule,
    panels: Option<PanelAxpy>,
) -> Result<SparsifiedInverse> {
    let view = FactorView::indexed(t, triangle, triangle.unit_diag(), rule.under(eps))?;
    let n = view.dim();
    let threads = options.resolved_threads(n);
    let [(inverse, tally)] =
        run_pool([Job::new(view, None, threads, panels)], eps, threads, |_, blocks| {
            Compressed::columns(n, blocks)
        })?;
    Ok(inverse.into_columns(n, tally))
}

/// Both triangles of `factors` under drop tolerance `eps` (`0.0` = exact)
/// in one pool: `L⁻¹` by columns, `U⁻¹` by rows (module docs), tails and
/// panels as [`invert_truncated`]'s. Factors that are not square and of
/// one size are an error before any solve.
pub(crate) fn invert_factors_truncated(
    factors: &LuFactors,
    eps: f64,
    options: InvertOptions,
    rule: TailRule,
    panels: Option<PanelAxpy>,
) -> Result<SparsifiedFactors> {
    let rule = rule.under(eps);
    let view = |t, triangle: Triangle| FactorView::indexed(t, triangle, triangle.unit_diag(), rule);
    let (lower, upper) = (view(&factors.l, Triangle::Lower)?, view(&factors.u, Triangle::Upper)?);
    if upper.dim() != lower.dim() {
        return Err(SparseError::Malformed(format!(
            "L is {0}x{0} but U is {1}x{1}",
            lower.dim(),
            upper.dim()
        )));
    }
    let n = lower.dim();
    let threads = options.resolved_threads(n);
    let jobs = [Job::new(lower, None, threads, panels), Job::new(upper, None, threads, panels)];
    let [(linv, l_tally), (uinv, u_tally)] =
        run_pool(jobs, eps, threads, |job, blocks| match job.view.triangle {
            Triangle::Lower => Compressed::columns(n, blocks),
            Triangle::Upper => Compressed::rows(n, blocks),
        })?;
    Ok(SparsifiedFactors { linv: linv.into_columns(n, l_tally), uinv: uinv.into_rows(n, u_tally) })
}

/// Subset inversion under drop tolerance `eps` (`0.0` = exact): for each
/// `j` in `columns` (sorted strictly ascending), the solution of
/// `T x = e_j` — exactly the per-column solve the full inversion runs, so
/// every returned column is **bit-identical** to the same column of the
/// full inversion at the same `eps` — and the ℓ₁ mass truncated from it.
/// Errors report the lowest failing column at every thread count.
pub(crate) fn invert_columns_truncated(
    t: &CscMatrix,
    triangle: Triangle,
    columns: &[Index],
    eps: f64,
    options: InvertOptions,
) -> Result<SparsifiedColumns> {
    // A subset's solves reach columns nobody can name up front, so this
    // view probes a column when a solve asks for it; indexing all `n` to
    // re-solve a handful would cost more than the solves.
    let view = FactorView::new(t, triangle, triangle.unit_diag())?;
    for (k, &c) in columns.iter().enumerate() {
        if (c as usize) >= view.dim() {
            return Err(SparseError::Malformed(format!(
                "column {c} out of bounds for dimension {}",
                view.dim()
            )));
        }
        if k > 0 && columns[k - 1] >= c {
            return Err(SparseError::Malformed(
                "columns must be sorted strictly ascending".into(),
            ));
        }
    }
    let threads = options.resolved_threads(columns.len());
    let job = Job::new(view, Some(columns), threads, None);
    let [(blocks, _)] = run_pool([job], eps, threads, |_, blocks| Ok(blocks))?;
    let mut updates = Vec::with_capacity(columns.len());
    let mut dropped = Vec::with_capacity(columns.len());
    for block in blocks {
        for ((rows, vals), &col) in block.columns().zip(&columns[block.first..]) {
            updates.push(ColumnUpdate { col, rows: rows.to_vec(), vals: vals.to_vec() });
        }
        dropped.extend_from_slice(&block.dropped);
    }
    Ok(SparsifiedColumns { updates, dropped })
}

/// A contiguous run of solved columns, produced by one worker's claims.
#[derive(Default)]
struct ColumnBlock {
    /// Position of the block's first column in the column list.
    first: usize,
    /// Nonzero count per column, in column order.
    col_lens: Vec<usize>,
    /// Concatenated sorted row indices of the block's columns.
    rows: Vec<Index>,
    /// Values parallel to `rows`.
    vals: Vec<f64>,
    /// Dropped ℓ₁ mass per column, parallel to `col_lens`.
    dropped: Vec<f64>,
}

impl ColumnBlock {
    /// Appends the next column: its sorted rows and values, and the mass
    /// truncated from it.
    fn push(&mut self, rows: &[Index], vals: &[f64], dropped: f64) {
        self.col_lens.push(rows.len());
        self.rows.extend_from_slice(rows);
        self.vals.extend_from_slice(vals);
        self.dropped.push(dropped);
    }

    /// `(rows, values)` of each of the block's columns, in order.
    fn columns(&self) -> impl Iterator<Item = (&[Index], &[f64])> + '_ {
        self.col_lens.iter().scan(0usize, |at, &len| {
            let span = *at..*at + len;
            *at += len;
            Some((&self.rows[span.clone()], &self.vals[span]))
        })
    }
}

/// A finished full inversion: compressed arrays — by columns, or by rows
/// after the transpose — and the dropped mass of each column. Its values
/// are checked finite; its structure holds by construction (every solve
/// returns sorted, in-bounds rows).
struct Compressed {
    ptr: Vec<usize>,
    idx: Vec<Index>,
    vals: Vec<f64>,
    dropped: Vec<f64>,
}

impl Compressed {
    /// The blocks (in column order, tiling `0..n`) concatenated into the
    /// flat CSC arrays a sequential loop would have appended one column
    /// at a time. The first block's arrays grow in place, so a triangle
    /// one worker solved alone — one block — is moved, not copied.
    fn columns(n: usize, blocks: Vec<ColumnBlock>) -> Result<Compressed> {
        let mut ptr = Vec::with_capacity(n + 1);
        let mut end = 0usize;
        ptr.push(end);
        for &len in blocks.iter().flat_map(|b| &b.col_lens) {
            end += len;
            ptr.push(end);
        }
        debug_assert_eq!(ptr.len(), n + 1, "every column must be covered");
        let mut blocks = blocks.into_iter();
        let ColumnBlock { mut rows, mut vals, mut dropped, .. } = blocks.next().unwrap_or_default();
        rows.reserve_exact(end - rows.len());
        vals.reserve_exact(end - vals.len());
        dropped.reserve_exact(n - dropped.len());
        for block in blocks {
            rows.extend(block.rows);
            vals.extend(block.vals);
            dropped.extend(block.dropped);
        }
        check_finite(&ptr, &vals, |c, slot| (rows[slot] as usize, c))?;
        Ok(Compressed { ptr, idx: rows, vals, dropped })
    }

    /// The blocks (in column order, tiling `0..n`) transposed into CSR
    /// arrays: each entry written once, straight into its row.
    fn rows(n: usize, blocks: Vec<ColumnBlock>) -> Result<Compressed> {
        let (ptr, idx, vals) = transpose_columns(n, blocks.iter().flat_map(ColumnBlock::columns));
        check_finite(&ptr, &vals, |r, slot| (r, idx[slot] as usize))?;
        let dropped = blocks.iter().flat_map(|b| &b.dropped).copied().collect();
        Ok(Compressed { ptr, idx, vals, dropped })
    }

    fn into_columns(self, n: usize, tally: SolveTally) -> SparsifiedInverse {
        let inverse = CscMatrix::from_trusted_parts(n, n, self.ptr, self.idx, self.vals);
        SparsifiedInverse { inverse, dropped: self.dropped, tally }
    }

    fn into_rows(self, n: usize, tally: SolveTally) -> SparsifiedInverse<CsrMatrix> {
        let inverse = CsrMatrix::from_trusted_parts(n, n, self.ptr, self.idx, self.vals);
        SparsifiedInverse { inverse, dropped: self.dropped, tally }
    }
}

/// Columns per claim. Column costs are skewed (a column's solve is
/// proportional to its reach, which grows towards one end of the
/// triangle), so claims must stay small enough for the fast workers to
/// steal the cheap tail; large enough that the claim counter isn't
/// contended.
pub(crate) fn claim_chunk(n: usize, threads: usize) -> usize {
    (n / (threads * 32)).clamp(1, 256)
}

/// One triangle's share of a pool run: its view, which of its columns to
/// solve, how, the claims they split into, and what the workers have
/// handed in so far.
struct Job<'v> {
    view: FactorView<'v>,
    /// Sorted strictly ascending; `None` = every column.
    columns: Option<&'v [Index]>,
    /// The body the job's columns are solved through in panels of
    /// [`PANEL`]; `None`: one at a time.
    panels: Option<PanelAxpy>,
    len: usize,
    chunk: usize,
    claims: usize,
    /// Claims taken from the heavy end (low 32 bits) and from the light
    /// end (high 32 bits); the two meet when the job runs dry.
    taken: AtomicU64,
    handed_in: Mutex<HandIn>,
}

/// The blocks and solve counts of the workers that left a job.
#[derive(Default)]
struct HandIn {
    blocks: Vec<ColumnBlock>,
    claims: usize,
    tally: SolveTally,
}

impl<'v> Job<'v> {
    /// A job that solves `columns` of `view` (`None`: all of them). It
    /// solves them in panels through `panels` if its view mirrors a dense
    /// tail — a full inversion at `ε = 0`, whose factor has no zero pivot
    /// ([`FactorView::indexed`]), so no panel meets a singular one — and
    /// one at a time otherwise. Its claims then cover whole panels.
    fn new(
        view: FactorView<'v>,
        columns: Option<&'v [Index]>,
        threads: usize,
        panels: Option<PanelAxpy>,
    ) -> Job<'v> {
        let len = columns.map_or(view.dim(), <[Index]>::len);
        let panels = panels.filter(|_| columns.is_none() && view.tail.columns() > 0);
        let chunk = match panels {
            Some(_) => claim_chunk(len, threads).next_multiple_of(PANEL),
            None => claim_chunk(len, threads),
        };
        Job {
            view,
            columns,
            panels,
            len,
            chunk,
            claims: len.div_ceil(chunk),
            taken: AtomicU64::new(0),
            handed_in: Mutex::default(),
        }
    }

    /// The next claim off the heavy end — the job's own workers' — or,
    /// for a worker that came from another job, off the light end: the
    /// owners' claims stay one ascending run, and thieves take the
    /// cheapest chunks. `None` once the ends meet. Relaxed: a claim
    /// publishes nothing; solved blocks travel through `handed_in`'s lock.
    fn claim(&self, own: bool) -> Option<usize> {
        let step = if own { 1 } else { 1 << 32 };
        let mut taken = self.taken.load(Ordering::Relaxed);
        loop {
            let (heavy, light) = ((taken & u64::from(u32::MAX)) as usize, (taken >> 32) as usize);
            if heavy + light >= self.claims {
                return None;
            }
            match self.taken.compare_exchange_weak(
                taken,
                taken + step,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(if own { heavy } else { self.claims - 1 - light }),
                Err(now) => taken = now,
            }
        }
    }

    /// Leaves no claim to take (a failed solve stops the pool).
    fn poison(&self) {
        self.taken.store(self.claims as u64, Ordering::Relaxed);
    }

    /// Solves claim `claim` into `blocks`, extending the last block when
    /// the claim continues it.
    #[allow(clippy::too_many_arguments)] // the solve's buffers, passed through
    fn solve_claim(
        &self,
        claim: usize,
        pooled: bool,
        eps: f64,
        ws: &mut SolveWorkspace,
        xi: &mut Vec<Index>,
        xv: &mut Vec<f64>,
        blocks: &mut Vec<ColumnBlock>,
    ) -> Result<()> {
        // Heavy-first among workers; a lone worker keeps ascending order,
        // so the first error it meets is the lowest column's.
        let first = match self.view.triangle {
            Triangle::Upper if pooled => (self.claims - 1 - claim) * self.chunk,
            _ => claim * self.chunk,
        };
        let mut block = match blocks.pop() {
            Some(last) if last.first + last.col_lens.len() == first => last,
            last => {
                blocks.extend(last);
                ColumnBlock { first, ..Default::default() }
            }
        };
        let end = (first + self.chunk).min(self.len);
        match self.panels {
            Some(axpy) => {
                for at in (first..end).step_by(PANEL) {
                    let lanes = PANEL.min(end - at);
                    ws.solve_panel(&self.view, at as Index, lanes, axpy)?;
                    for p in 0..lanes {
                        let (rows, vals) = ws.panel_column(p);
                        block.push(rows, vals, 0.0);
                    }
                }
            }
            None => {
                for at in first..end {
                    let j = self.columns.map_or(at as Index, |columns| columns[at]);
                    let mass = ws.solve_view(&self.view, &[j], &[1.0], eps, Some(j), xi, xv)?;
                    block.push(xi, xv, mass);
                }
            }
        }
        blocks.push(block);
        Ok(())
    }

    /// What the workers handed in. A lock poisoned by a panicking worker
    /// is taken over: that panic fails the whole pool run, so nothing read
    /// under it reaches a result.
    fn handed_in(&self) -> MutexGuard<'_, HandIn> {
        self.handed_in.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands in a worker's blocks, the claims they cover and its counts.
    fn hand_in(&self, blocks: Vec<ColumnBlock>, claims: usize, tally: SolveTally) {
        let mut handed_in = self.handed_in();
        handed_in.blocks.extend(blocks);
        handed_in.claims += claims;
        handed_in.tally.absorb(tally);
    }

    /// Once every claim is handed in: every block, in column order, and
    /// the job's tally.
    fn complete(&self) -> Option<(Vec<ColumnBlock>, SolveTally)> {
        let mut handed_in = self.handed_in();
        if handed_in.claims < self.claims {
            return None;
        }
        let mut blocks = take(&mut handed_in.blocks);
        let tally = SolveTally { tail_columns: self.view.tail.columns(), ..handed_in.tally };
        drop(handed_in);
        blocks.sort_unstable_by_key(|b| b.first);
        Some((blocks, tally))
    }
}

/// The one worker pool: solves every job's columns under `eps` on
/// `threads` workers and hands each job's blocks, in column order, to
/// `finish`; returns what `finish` made of each job and its solves'
/// tally, in job order.
///
/// A failed solve or finish leaves no job a claim to take, and the run is
/// repeated on the calling thread, job after job in ascending column
/// order, so the error reported is the first failing job's, at its lowest
/// failing column, at every thread count (a cold path; the repeated work
/// buys determinism).
fn run_pool<const N: usize, T>(
    jobs: [Job; N],
    eps: f64,
    threads: usize,
    finish: impl Fn(&Job, Vec<ColumnBlock>) -> Result<T>,
) -> Result<[(T, SolveTally); N]> {
    let pooled = if threads > 1 && jobs.iter().all(|job| job.claims > 0) {
        run_workers(&jobs, eps, threads, &finish)?
    } else {
        None
    };
    let done = match pooled {
        Some(done) => done,
        None => run_alone(&jobs, eps, &finish)?,
    };
    done.try_into().map_err(|_| SparseError::Malformed("an inversion job went unfinished".into()))
}

/// Every job on the calling thread, in order, claims ascending.
fn run_alone<T>(
    jobs: &[Job],
    eps: f64,
    finish: &impl Fn(&Job, Vec<ColumnBlock>) -> Result<T>,
) -> Result<Vec<(T, SolveTally)>> {
    let mut ws = SolveWorkspace::new(jobs.first().map_or(0, |job| job.view.dim()));
    let (mut xi, mut xv) = (Vec::new(), Vec::new());
    jobs.iter()
        .map(|job| {
            let mut blocks = Vec::new();
            for claim in 0..job.claims {
                job.solve_claim(claim, false, eps, &mut ws, &mut xi, &mut xv, &mut blocks)?;
            }
            let tally = SolveTally { tail_columns: job.view.tail.columns(), ..take(&mut ws.tally) };
            Ok((finish(job, blocks)?, tally))
        })
        .collect()
}

/// The pool: worker `w` starts on job `w mod N` and, when that job runs
/// dry, hands its blocks in and moves on to the next job's remaining
/// claims, from their light end. Worker 0 is the calling thread, and it
/// alone finishes jobs — each as soon as it sees every claim handed in,
/// between its own claims, and what is left once the pool drains — so
/// the arrays `finish` allocates, which the caller keeps, come from the
/// calling thread's heap (where a long-lived caller that frees them can
/// reuse the memory), not from a worker thread's allocator arena. `None`
/// when a solve or a finish failed.
fn run_workers<T>(
    jobs: &[Job],
    eps: f64,
    threads: usize,
    finish: &impl Fn(&Job, Vec<ColumnBlock>) -> Result<T>,
) -> Result<Option<Vec<(T, SolveTally)>>> {
    let poison = |_: &SparseError| jobs.iter().for_each(Job::poison);
    let mut done: Vec<Option<(T, SolveTally)>> = jobs.iter().map(|_| None).collect();
    let finish_complete = |done: &mut [Option<(T, SolveTally)>]| -> Result<()> {
        for (job, slot) in jobs.iter().zip(done).filter(|(_, slot)| slot.is_none()) {
            if let Some((blocks, tally)) = job.complete() {
                *slot = Some((finish(job, blocks).inspect_err(poison)?, tally));
            }
        }
        Ok(())
    };
    let work = |w: usize, mut between_claims: Option<&mut dyn FnMut() -> Result<()>>| {
        let mut ws = SolveWorkspace::new(jobs[0].view.dim());
        let (mut xi, mut xv) = (Vec::new(), Vec::new());
        for k in 0..jobs.len() {
            let job = &jobs[(w + k) % jobs.len()];
            let (mut blocks, mut claims) = (Vec::new(), 0);
            loop {
                if let Some(between_claims) = between_claims.as_mut() {
                    between_claims()?;
                }
                let Some(claim) = job.claim(k == 0) else { break };
                claims += 1;
                job.solve_claim(claim, true, eps, &mut ws, &mut xi, &mut xv, &mut blocks)
                    .inspect_err(poison)?;
            }
            job.hand_in(blocks, claims, take(&mut ws.tally));
        }
        Ok(())
    };
    let work = &work;
    let outputs = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|w| scope.spawn(move || work(w, None))).collect();
        let mut finish_between = || finish_complete(&mut done);
        let first = catch_unwind(AssertUnwindSafe(|| work(0, Some(&mut finish_between))));
        let panicked = |_| SparseError::Malformed("a column-solve worker panicked".into());
        std::iter::once(first.map_err(panicked))
            .chain(handles.into_iter().map(|h| h.join().map_err(panicked)))
            .collect::<Result<Vec<_>>>()
    })?;
    if outputs.iter().any(Result::is_err) || finish_complete(&mut done).is_err() {
        return Ok(None);
    }
    Ok(done.into_iter().collect())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{sparse_lu, sparsify_columns_with, sparsify_lower_unit_with, sparsify_upper_with};

    /// The exact inverse of a factor: the one driver at `ε = 0`.
    pub(crate) fn exact(t: &CscMatrix, triangle: Triangle, threads: usize) -> Result<CscMatrix> {
        let options = InvertOptions { threads };
        let inverted = match triangle {
            Triangle::Lower => sparsify_lower_unit_with(t, 0.0, options)?,
            Triangle::Upper => sparsify_upper_with(t, 0.0, options)?,
        };
        Ok(inverted.inverse)
    }

    /// Exact re-solves of a column subset.
    fn exact_columns(
        t: &CscMatrix,
        triangle: Triangle,
        columns: &[Index],
        threads: usize,
    ) -> Result<Vec<ColumnUpdate>> {
        let options = InvertOptions { threads };
        Ok(sparsify_columns_with(t, triangle, columns, 0.0, options)?.updates)
    }

    fn assert_is_identity(product: &[Vec<f64>], tol: f64) {
        for (i, row) in product.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < tol, "({i},{j}) = {v}");
            }
        }
    }

    fn dense_mul(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let n = a.len();
        let mut out = vec![vec![0.0; n]; n];
        for i in 0..n {
            for k in 0..n {
                let aik = a[i][k];
                if aik != 0.0 {
                    for j in 0..n {
                        out[i][j] += aik * b[k][j];
                    }
                }
            }
        }
        out
    }

    /// Adds an implicit unit diagonal to a dense strictly-lower matrix.
    fn with_unit_diag(mut d: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        for (i, row) in d.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        d
    }

    #[test]
    fn chain_lower_inverse_is_all_ones() {
        // L = I - subdiagonal(-1): L^{-1} is lower triangular of all ones.
        let n = 5;
        let trips: Vec<(Index, Index, f64)> =
            (0..n - 1).map(|j| (j as Index + 1, j as Index, -1.0)).collect();
        let l = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let inv = exact(&l, Triangle::Lower, 1).unwrap();
        for c in 0..n as Index {
            let (rows, vals) = inv.col(c);
            assert_eq!(rows.len(), n - c as usize);
            assert!(vals.iter().all(|&v| (v - 1.0).abs() < 1e-14));
        }
    }

    #[test]
    fn lower_inverse_times_matrix_is_identity() {
        let l = CscMatrix::from_triplets(4, 4, &[(1, 0, 0.5), (2, 0, -0.25), (3, 2, 2.0), (2, 1, 1.0)])
            .unwrap();
        let inv = exact(&l, Triangle::Lower, 1).unwrap();
        let product = dense_mul(&inv.to_dense(), &with_unit_diag(l.to_dense()));
        assert_is_identity(&product, 1e-12);
    }

    #[test]
    fn upper_inverse_times_matrix_is_identity() {
        let u = CscMatrix::from_triplets(
            3,
            3,
            &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 4.0), (0, 2, -1.0), (1, 2, 0.5), (2, 2, 0.25)],
        )
        .unwrap();
        let inv = exact(&u, Triangle::Upper, 1).unwrap();
        let product = dense_mul(&inv.to_dense(), &u.to_dense());
        assert_is_identity(&product, 1e-12);
    }

    #[test]
    fn inverse_diagonals_are_explicit() {
        let l = CscMatrix::from_triplets(3, 3, &[(2, 0, 1.0)]).unwrap();
        let inv = exact(&l, Triangle::Lower, 1).unwrap();
        for j in 0..3 {
            assert_eq!(inv.get(j, j), Some(1.0));
        }
        let u = CscMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (1, 1, 8.0)]).unwrap();
        let uinv = exact(&u, Triangle::Upper, 1).unwrap();
        assert_eq!(uinv.get(0, 0), Some(0.25));
        assert_eq!(uinv.get(1, 1), Some(0.125));
    }

    #[test]
    fn singular_upper_rejected() {
        let u = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]).unwrap();
        assert!(matches!(exact(&u, Triangle::Upper, 1), Err(SparseError::SingularPivot { .. })));
    }

    #[test]
    fn inverses_reconstruct_w_inverse() {
        // Verify c * U^{-1} (L^{-1} e_q) == W^{-1} e_q * c for an RWR-like W.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let n = 12;
        let mut trips: Vec<(Index, Index, f64)> = Vec::new();
        let mut col_sum = vec![0.0f64; n];
        for j in 0..n as Index {
            for i in 0..n as Index {
                if i != j && rng.gen_bool(0.3) {
                    let v: f64 = -rng.gen_range(0.01..0.5);
                    trips.push((i, j, v));
                    col_sum[j as usize] += v.abs();
                }
            }
        }
        for (j, &cs) in col_sum.iter().enumerate() {
            trips.push((j as Index, j as Index, cs + 0.5));
        }
        let w = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let f = sparse_lu(&w).unwrap();
        let linv = exact(&f.l, Triangle::Lower, 1).unwrap();
        let uinv = exact(&f.u, Triangle::Upper, 1).unwrap();
        for q in 0..n as Index {
            // x = U^{-1} (L^{-1} e_q)
            let (lq_rows, lq_vals) = linv.col(q);
            let mut y = vec![0.0; n];
            for (&r, &v) in lq_rows.iter().zip(lq_vals) {
                y[r as usize] = v;
            }
            let x = uinv.matvec(&y);
            // reference: dense solve of W x = e_q
            let mut e = vec![0.0; n];
            e[q as usize] = 1.0;
            let reference = f.solve_dense(&e).unwrap();
            for (a, b) in x.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-10, "{a} vs {b}");
            }
        }
    }

    /// Random triangular factors from RWR-like matrices: the parallel
    /// driver must reproduce the sequential arrays *bit for bit* at every
    /// thread count, including counts far above the column count, and at
    /// `ε = 0` no column drops any mass.
    #[test]
    fn parallel_inversion_is_bit_identical() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..8 {
            let n = rng.gen_range(5..60usize);
            let mut trips: Vec<(Index, Index, f64)> = Vec::new();
            let mut col_sum = vec![0.0f64; n];
            for j in 0..n as Index {
                for i in 0..n as Index {
                    if i != j && rng.gen_bool(0.25) {
                        let v: f64 = -rng.gen_range(0.01..0.6);
                        trips.push((i, j, v));
                        col_sum[j as usize] += v.abs();
                    }
                }
            }
            for (j, &cs) in col_sum.iter().enumerate() {
                trips.push((j as Index, j as Index, cs + 0.7));
            }
            let w = CscMatrix::from_triplets(n, n, &trips).unwrap();
            let f = sparse_lu(&w).unwrap();
            let linv_seq = sparsify_lower_unit_with(&f.l, 0.0, InvertOptions::default()).unwrap();
            let uinv_seq = sparsify_upper_with(&f.u, 0.0, InvertOptions::default()).unwrap();
            assert!(linv_seq.dropped.iter().chain(&uinv_seq.dropped).all(|&m| m == 0.0));
            assert_eq!((linv_seq.dropped.len(), uinv_seq.dropped.len()), (n, n));
            for threads in [0usize, 2, 3, 7, 64] {
                let linv_par = exact(&f.l, Triangle::Lower, threads).unwrap();
                let uinv_par = exact(&f.u, Triangle::Upper, threads).unwrap();
                assert_bit_identical(&linv_seq.inverse, &linv_par, trial, threads);
                assert_bit_identical(&uinv_seq.inverse, &uinv_par, trial, threads);
            }
        }
    }

    fn assert_bit_identical(a: &CscMatrix, b: &CscMatrix, trial: usize, threads: usize) {
        let (ap, ai, av) = a.raw();
        let (bp, bi, bv) = b.raw();
        assert_eq!(ap, bp, "trial {trial} threads {threads}: col_ptr differs");
        assert_eq!(ai, bi, "trial {trial} threads {threads}: row_idx differs");
        let abits: Vec<u64> = av.iter().map(|v| v.to_bits()).collect();
        let bbits: Vec<u64> = bv.iter().map(|v| v.to_bits()).collect();
        assert_eq!(abits, bbits, "trial {trial} threads {threads}: values differ");
    }

    #[test]
    fn parallel_error_is_lowest_singular_column() {
        // Diagonal missing at columns 3 and 7: every thread count must
        // report column 3, like the sequential path.
        let n = 12;
        let mut trips: Vec<(Index, Index, f64)> = Vec::new();
        for j in 0..n as Index {
            if j != 3 && j != 7 {
                trips.push((j, j, 2.0));
            }
            if j > 0 {
                trips.push((j - 1, j, 1.0));
            }
        }
        let u = CscMatrix::from_triplets(n, n, &trips).unwrap();
        for threads in [1usize, 2, 4, 16] {
            let err = exact(&u, Triangle::Upper, threads).unwrap_err();
            assert!(
                matches!(err, SparseError::SingularPivot { column: 3, .. }),
                "threads {threads}: {err:?}"
            );
        }
    }

    /// `Upper` chunks are claimed in descending order, so a high singular
    /// column is met first; the error must still be the lowest failing
    /// column's, and the same whether its diagonal is missing or stored
    /// as an explicit zero — for the full inversion and for a subset.
    #[test]
    fn missing_and_zero_diagonals_report_the_same_lowest_column() {
        let n = 12;
        let mut trips: Vec<(Index, Index, f64)> = Vec::new();
        for j in 0..n as Index {
            trips.push((j, j, if j == 3 || j == 7 { 9.0 } else { 2.0 }));
            if j > 0 {
                trips.push((j - 1, j, 1.0));
            }
        }
        let marked = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let zeroed = marked.map_values(|v| if v == 9.0 { 0.0 } else { v });
        trips.retain(|&(_, _, v)| v != 9.0);
        let missing = CscMatrix::from_triplets(n, n, &trips).unwrap();
        assert_eq!((zeroed.get(3, 3), missing.get(3, 3)), (Some(0.0), None));
        let subset: Vec<Index> = (2..n as Index).collect();
        let expect = SparseError::SingularPivot { column: 3, value: 0.0 };
        for threads in [1usize, 2] {
            for u in [&zeroed, &missing] {
                assert_eq!(exact(u, Triangle::Upper, threads).unwrap_err(), expect);
                let err = exact_columns(u, Triangle::Upper, &subset, threads);
                assert_eq!(err.unwrap_err(), expect, "subset, threads {threads}");
            }
        }
    }

    #[test]
    fn invert_options_resolution() {
        assert!(InvertOptions { threads: 0 }.resolved_threads(100) >= 1);
        assert_eq!(InvertOptions::default().resolved_threads(100), 1);
        assert_eq!(InvertOptions { threads: 8 }.resolved_threads(3), 3);
        assert_eq!(InvertOptions { threads: 8 }.resolved_threads(0), 1);
        assert_eq!(InvertOptions::default().threads, 1);
    }

    #[test]
    fn claim_chunk_bounds() {
        assert_eq!(claim_chunk(10, 4), 1);
        assert!(claim_chunk(1_000_000, 2) <= 256);
        assert!(claim_chunk(0, 8) >= 1);
    }

    /// The subset driver's contract: every solved column is bit-identical
    /// to the same column of the full inversion, at every thread count.
    #[test]
    fn column_subset_solves_match_full_inversion() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..6 {
            let n = rng.gen_range(8..40usize);
            let mut trips: Vec<(Index, Index, f64)> = Vec::new();
            let mut col_sum = vec![0.0f64; n];
            for j in 0..n as Index {
                for i in 0..n as Index {
                    if i != j && rng.gen_bool(0.3) {
                        let v: f64 = -rng.gen_range(0.01..0.5);
                        trips.push((i, j, v));
                        col_sum[j as usize] += v.abs();
                    }
                }
            }
            for (j, &cs) in col_sum.iter().enumerate() {
                trips.push((j as Index, j as Index, cs + 0.6));
            }
            let w = CscMatrix::from_triplets(n, n, &trips).unwrap();
            let f = sparse_lu(&w).unwrap();
            let linv = exact(&f.l, Triangle::Lower, 1).unwrap();
            let uinv = exact(&f.u, Triangle::Upper, 1).unwrap();
            let subset: Vec<Index> = (0..n as Index).filter(|j| j % 3 != 1).collect();
            for threads in [1usize, 2, 5, 0] {
                let l_updates = exact_columns(&f.l, Triangle::Lower, &subset, threads).unwrap();
                let u_updates = exact_columns(&f.u, Triangle::Upper, &subset, threads).unwrap();
                for (updates, full) in [(&l_updates, &linv), (&u_updates, &uinv)] {
                    assert_eq!(updates.len(), subset.len());
                    for u in updates.iter() {
                        let (rows, vals) = full.col(u.col);
                        assert_eq!(u.rows.as_slice(), rows, "trial {trial} col {}", u.col);
                        for (a, b) in u.vals.iter().zip(vals) {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "trial {trial} col {} threads {threads}",
                                u.col
                            );
                        }
                    }
                }
            }
        }
    }

    /// Splicing re-solved columns into the old inverse reproduces the new
    /// full inversion exactly — the array-level core of the dynamic
    /// engine, on raw triangles.
    #[test]
    fn resolve_and_splice_reproduces_full_inversion() {
        let l_old =
            CscMatrix::from_triplets(4, 4, &[(1, 0, 0.5), (2, 1, 0.25), (3, 2, 0.125)]).unwrap();
        let l_new =
            CscMatrix::from_triplets(4, 4, &[(1, 0, 0.75), (2, 1, 0.25), (3, 2, 0.125)]).unwrap();
        let inv_old = exact(&l_old, Triangle::Lower, 1).unwrap();
        let inv_new = exact(&l_new, Triangle::Lower, 1).unwrap();
        let dirty: Vec<Index> = (0..4).filter(|&c| l_old.col(c) != l_new.col(c)).collect();
        assert_eq!(dirty, vec![0]);
        let dirty_inverse = crate::reach::inverse_dirty_columns(&l_new, &dirty);
        let updates = exact_columns(&l_new, Triangle::Lower, &dirty_inverse, 1).unwrap();
        let spliced = inv_old.splice_columns(&updates).unwrap();
        assert_eq!(spliced, inv_new);
    }

    #[test]
    fn column_subset_validation_and_errors() {
        let l = CscMatrix::from_triplets(3, 3, &[(1, 0, 1.0)]).unwrap();
        assert!(exact_columns(&l, Triangle::Lower, &[1, 0], 1).is_err());
        assert!(exact_columns(&l, Triangle::Lower, &[0, 0], 1).is_err());
        assert!(exact_columns(&l, Triangle::Lower, &[7], 1).is_err());
        assert!(exact_columns(&l, Triangle::Lower, &[], 1).unwrap().is_empty());
        // Singular column inside the subset: lowest failing column wins
        // at every thread count.
        let n = 10;
        let mut trips: Vec<(Index, Index, f64)> = Vec::new();
        for j in 0..n as Index {
            if j != 2 && j != 6 {
                trips.push((j, j, 2.0));
            }
            if j > 0 {
                trips.push((j - 1, j, 1.0));
            }
        }
        let u = CscMatrix::from_triplets(n, n, &trips).unwrap();
        let subset: Vec<Index> = (0..n as Index).collect();
        for threads in [1usize, 2, 8] {
            let err = exact_columns(&u, Triangle::Upper, &subset, threads).unwrap_err();
            assert!(
                matches!(err, SparseError::SingularPivot { column: 2, .. }),
                "threads {threads}: {err:?}"
            );
        }
    }

    /// The bytes of an inverse, stored by columns or by rows, and of its
    /// dropped masses, beside its tally.
    fn bytes<M>(
        inverted: &SparsifiedInverse<M>,
        csc: impl Fn(&M) -> CscMatrix,
    ) -> (Vec<usize>, Vec<Index>, Vec<u64>, Vec<u64>, SolveTally) {
        let m = csc(&inverted.inverse);
        let (ptr, idx, vals) = m.raw();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (ptr.to_vec(), idx.to_vec(), bits(vals), bits(&inverted.dropped), inverted.tally)
    }

    /// The panel drivers give the one-column drivers' bytes, dropped
    /// masses and tallies at one worker, two and auto, through every
    /// panel body the host runs: both triangles of real factors and of
    /// factors whose solves cancel to exact zeros, each triangle alone and
    /// both in one pool, with tails begun at several columns and ragged
    /// last panels. At one worker, a job with a dense tail reads fewer
    /// factor entries in panels than column by column — the panels ran —
    /// and any other reads as many: it solved one column at a time.
    #[test]
    fn panel_inversions_give_the_one_column_bytes_at_every_thread_count() {
        use crate::triangular::tests::{
            cancelling_factors, eager_tail_rules, oracle_systems, panel_bodies, take_factor_reads,
        };
        let [(l, _), (u, _)] = cancelling_factors(61);
        let mut systems = vec![("cancelling".to_string(), LuFactors { l, u })];
        for (name, w) in oracle_systems() {
            systems.push((name.to_string(), sparse_lu(&w).unwrap()));
        }
        let (mut ragged, mut panelled) = (false, false);
        for (name, f) in &systems {
            let n = f.dim();
            ragged |= n % PANEL != 0;
            for rule in [TailRule::STRUCTURAL].into_iter().chain(eager_tail_rules()) {
                for threads in [1usize, 2, 0] {
                    let options = InvertOptions { threads };
                    let tag = format!("{name} {rule:?} threads {threads}");
                    let joint = |panels| {
                        let both = invert_factors_truncated(f, 0.0, options, rule, panels).unwrap();
                        (bytes(&both.linv, CscMatrix::clone), bytes(&both.uinv, CsrMatrix::to_csc))
                    };
                    let want = joint(None);
                    for body in panel_bodies() {
                        assert_eq!(joint(Some(body)), want, "{tag}: both in one pool");
                    }
                    for (t, triangle) in [(&f.l, Triangle::Lower), (&f.u, Triangle::Upper)] {
                        let alone = |panels| {
                            let inverted =
                                invert_truncated(t, triangle, 0.0, options, rule, panels);
                            bytes(&inverted.unwrap(), CscMatrix::clone)
                        };
                        take_factor_reads();
                        let want = alone(None);
                        let one_column = take_factor_reads();
                        for body in panel_bodies() {
                            let got = alone(Some(body));
                            let in_panels = take_factor_reads();
                            let tag = format!("{tag} {triangle:?}");
                            assert_eq!(got, want, "{tag}");
                            if threads == 1 && want.4.tail_columns > 0 {
                                assert!(in_panels < one_column, "{tag}: {in_panels} reads");
                                panelled = true;
                            } else if threads == 1 {
                                assert_eq!(in_panels, one_column, "{tag}");
                            }
                        }
                    }
                }
            }
        }
        assert!(ragged && panelled, "ragged {ragged}, panelled {panelled}");
    }
}
