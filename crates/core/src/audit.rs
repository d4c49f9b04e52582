//! Deep structural auditing of a built (or loaded, or patched) index.
//!
//! The persistence layer checks what can be checked *while streaming* —
//! counts, checksums, and the component validators' invariants. This
//! module is the fsck counterpart: given a fully assembled
//! [`KdashIndex`], [`IndexAudit::run`] re-derives every invariant the
//! query path silently relies on and reports violations as findings
//! instead of panicking or, worse, returning wrong proximities:
//!
//! * the permutation is a bijection;
//! * the permuted graph's CSR arrays are monotone, sorted, in bounds,
//!   with finite positive weights;
//! * `L⁻¹` is genuinely lower triangular with an exact unit diagonal
//!   leading every column (the scatter path assumes `x_q = 1`);
//! * `U⁻¹` is genuinely upper triangular with a nonzero diagonal leading
//!   every row, and its run encoding obeys the decode contract (aligned
//!   anchors, full coverage, strictly ascending decoded columns);
//! * the store's derived tables — `max_row_nnz` and the column sums —
//!   agree with the rows they summarise (a stale column sum skews the
//!   stop rule's mass); the per-row stats are read off the rows
//!   themselves, so there is no table of them to disagree;
//! * the estimator constants — and the per-node out-weight sums the stop
//!   rule and the certified refinement normalise by, and the reach anchor
//!   the latter lists reachable sets from — are **bit-identical** to an
//!   independent recomputation from the stored graph (the constructor
//!   derives all three there; this checks nothing replaced them since):
//!   the bounds and the refinement residual are only sound for the
//!   matrix actually indexed;
//! * the header scalars (restart probability, component dimensions) are
//!   coherent.
//!
//! The audit never panics and allocates only small per-section scratch.
//! It is exposed three ways: `kdash verify <index>` (the operational
//! fsck), `DynamicIndex::verify_after_apply` (opt-in post-update check),
//! and directly through this API.

use crate::estimator::BoundConstants;
use crate::precompute::{out_weight_sums, ReachAnchor};
use crate::KdashIndex;
use kdash_sparse::{transition_matrix, w_matrix, LuFactors, BLOCK_COLS};
use std::time::{Duration, Instant};

/// Cap on stored findings: a corrupted index tends to violate one
/// invariant thousands of times; the first handful identify the damage
/// and the rest are noise. The total count is still reported.
const MAX_FINDINGS: usize = 64;

/// One audited section: what was checked, how many elementary checks ran,
/// and how long it took (the `kdash verify` per-section report lines).
#[derive(Debug, Clone)]
pub struct AuditSection {
    /// Section name, aligned with the on-disk section names of
    /// [`crate::persist::Section`] where the two overlap.
    pub name: &'static str,
    /// Elementary invariant checks evaluated.
    pub checks: usize,
    /// Wall-clock the section took.
    pub duration: Duration,
}

/// One violated invariant.
#[derive(Debug, Clone)]
pub struct AuditFinding {
    /// The section the violation was found in.
    pub section: &'static str,
    /// What exactly is wrong, with the offending row/column/node.
    pub detail: String,
}

/// The result of a full structural audit: per-section accounting plus
/// every finding (violations), capped at [`MAX_FINDINGS`] stored entries.
#[derive(Debug, Clone)]
pub struct IndexAudit {
    /// Per-section accounting, in execution order.
    pub sections: Vec<AuditSection>,
    /// The violations found (first [`MAX_FINDINGS`]; see `suppressed`).
    pub findings: Vec<AuditFinding>,
    /// Findings beyond the storage cap (count only).
    pub suppressed: usize,
}

/// Collects findings during a run, enforcing the storage cap.
struct Collector {
    findings: Vec<AuditFinding>,
    suppressed: usize,
    checks: usize,
}

impl Collector {
    fn new() -> Self {
        Collector { findings: Vec::new(), suppressed: 0, checks: 0 }
    }

    fn check(&mut self, section: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            if self.findings.len() < MAX_FINDINGS {
                self.findings.push(AuditFinding { section, detail: detail() });
            } else {
                self.suppressed += 1;
            }
        }
    }
}

impl IndexAudit {
    /// Runs the full audit. Never panics; violations become findings.
    pub fn run(index: &KdashIndex) -> IndexAudit {
        let (sections, col) = Self::run_core(index);
        IndexAudit { sections, findings: col.findings, suppressed: col.suppressed }
    }

    /// Runs the full audit plus the factor-consistency section: `factors`
    /// — the LU factors of the stored graph's `W`, which live outside the
    /// index (the dynamic engine holds them) — are checked for
    /// triangularity, the diagonal-last `U` layout, agreement with the
    /// stored nnz stats, and — the expensive part — `W = L·U` is
    /// spot-recomputed on a deterministic sample of columns against a
    /// fresh rebuild of `W` from the stored graph.
    pub fn run_with_factors(index: &KdashIndex, factors: &LuFactors) -> IndexAudit {
        let (mut sections, mut col) = Self::run_core(index);
        let before = col.checks;
        let t = Instant::now();
        audit_factors(index, factors, &mut col);
        sections.push(AuditSection {
            name: "factors",
            checks: col.checks - before,
            duration: t.elapsed(),
        });
        IndexAudit { sections, findings: col.findings, suppressed: col.suppressed }
    }

    fn run_core(index: &KdashIndex) -> (Vec<AuditSection>, Collector) {
        let mut col = Collector::new();
        let mut sections = Vec::with_capacity(8);
        let steps: [(&'static str, fn(&KdashIndex, &mut Collector)); 7] = [
            ("header", audit_header),
            ("permutation", audit_permutation),
            ("graph", audit_graph),
            ("linv", audit_linv),
            ("uinv", audit_uinv),
            ("estimator", audit_estimator),
            ("sparsify", audit_sparsify),
        ];
        for (name, step) in steps {
            let before = col.checks;
            let t = Instant::now();
            step(index, &mut col);
            sections.push(AuditSection {
                name,
                checks: col.checks - before,
                duration: t.elapsed(),
            });
        }
        (sections, col)
    }

    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.suppressed == 0
    }

    /// Total findings including the ones beyond the storage cap.
    pub fn total_findings(&self) -> usize {
        self.findings.len() + self.suppressed
    }

    /// Converts a dirty audit into [`crate::KdashError::AuditFailed`]
    /// carrying the `"section: detail"` strings (clean audits pass).
    pub fn into_result(self) -> crate::Result<()> {
        if self.is_clean() {
            return Ok(());
        }
        let mut findings: Vec<String> = self
            .findings
            .iter()
            .map(|f| format!("{}: {}", f.section, f.detail))
            .collect();
        if self.suppressed > 0 {
            findings.push(format!("… and {} further finding(s) suppressed", self.suppressed));
        }
        Err(crate::KdashError::AuditFailed { findings })
    }
}

/// Header scalars: restart probability in range, component dimensions
/// agreeing.
fn audit_header(index: &KdashIndex, col: &mut Collector) {
    const S: &str = "header";
    let n = index.num_nodes();
    let c = index.restart_probability();
    col.check(S, c.is_finite() && 0.0 < c && c < 1.0, || {
        format!("restart probability {c} outside (0, 1)")
    });
    col.check(S, index.permutation().len() == n, || {
        format!("permutation covers {} nodes, graph has {n}", index.permutation().len())
    });
    let linv = index.linv();
    col.check(S, linv.nrows() == n && linv.ncols() == n, || {
        format!("L⁻¹ is {}×{}, expected {n}×{n}", linv.nrows(), linv.ncols())
    });
    let uinv = index.uinv();
    col.check(S, uinv.nrows() == n && uinv.ncols() == n, || {
        format!("U⁻¹ is {}×{}, expected {n}×{n}", uinv.nrows(), uinv.ncols())
    });
    let bounds = index.bounds();
    for (name, len) in [
        ("A_max(v)", bounds.a_col_max.len()),
        ("c'", bounds.c_prime.len()),
        ("row maximum of A", bounds.a_row_max.len()),
    ] {
        col.check(S, len == n, || format!("{name} has {len} entries, expected {n}"));
    }
}

/// The permutation must be a bijection on `0..n` — a repeated or
/// out-of-range id silently aliases two nodes' proximities.
fn audit_permutation(index: &KdashIndex, col: &mut Collector) {
    const S: &str = "permutation";
    let n = index.num_nodes();
    let order = index.permutation().order();
    let mut seen = vec![false; n];
    for (new, &old) in order.iter().enumerate() {
        let ok = (old as usize) < n && !seen[(old as usize).min(n.saturating_sub(1))];
        if (old as usize) < n {
            seen[old as usize] = true;
        }
        col.check(S, ok, || format!("position {new} maps to invalid or repeated node {old}"));
    }
}

/// The permuted graph's CSR arrays: monotone covering row pointers,
/// strictly ascending in-bounds targets, finite positive weights — the
/// invariants [`kdash_graph::CsrGraph::from_raw_parts`] enforces,
/// re-proved on the live arrays.
fn audit_graph(index: &KdashIndex, col: &mut Collector) {
    const S: &str = "graph";
    let g = index.permuted_graph();
    let n = g.num_nodes();
    let (row_ptr, col_idx, weights) = g.raw();
    col.check(S, row_ptr.len() == n + 1, || {
        format!("row pointer array has {} entries, expected {}", row_ptr.len(), n + 1)
    });
    col.check(
        S,
        row_ptr.first() == Some(&0) && row_ptr.last() == Some(&col_idx.len()),
        || "row pointers do not cover the edge arrays".to_string(),
    );
    col.check(S, col_idx.len() == weights.len(), || {
        format!("{} targets but {} weights", col_idx.len(), weights.len())
    });
    for v in 0..n {
        let (lo, hi) = (row_ptr[v.min(row_ptr.len() - 1)], row_ptr[(v + 1).min(row_ptr.len() - 1)]);
        col.check(S, lo <= hi && hi <= col_idx.len(), || {
            format!("row {v}: pointer range {lo}..{hi} invalid")
        });
        if lo > hi || hi > col_idx.len() {
            continue;
        }
        let mut prev: Option<u32> = None;
        for i in lo..hi {
            let (t, w) = (col_idx[i], weights[i]);
            col.check(S, (t as usize) < n, || format!("row {v}: target {t} out of bounds"));
            col.check(S, w.is_finite() && w > 0.0, || {
                format!("row {v}: weight {w} not finite-positive")
            });
            col.check(S, prev.is_none_or(|p| p < t), || {
                format!("row {v}: targets not strictly ascending at {t}")
            });
            prev = Some(t);
        }
    }
}

/// `L⁻¹` must be lower triangular with an exact unit diagonal *leading*
/// each column: the query scatter assumes column `q` starts with
/// `(q, 1.0)` (forward substitution on a unit-lower factor never scales
/// the seed entry, so equality is exact, not approximate).
fn audit_linv(index: &KdashIndex, col: &mut Collector) {
    const S: &str = "linv";
    let linv = index.linv();
    let n = linv.ncols();
    let (col_ptr, row_idx, values) = linv.raw();
    col.check(
        S,
        col_ptr.len() == n + 1
            && col_ptr.first() == Some(&0)
            && col_ptr.last() == Some(&row_idx.len())
            && row_idx.len() == values.len(),
        || "column pointers do not cover the entry arrays".to_string(),
    );
    for j in 0..n {
        let (lo, hi) = (col_ptr[j.min(col_ptr.len() - 1)], col_ptr[(j + 1).min(col_ptr.len() - 1)]);
        if lo > hi || hi > row_idx.len() {
            col.check(S, false, || format!("column {j}: pointer range {lo}..{hi} invalid"));
            continue;
        }
        col.check(S, lo < hi, || format!("column {j}: empty (diagonal entry missing)"));
        let mut prev: Option<u32> = None;
        for i in lo..hi {
            let (r, v) = (row_idx[i], values[i]);
            col.check(S, (r as usize) < n, || format!("column {j}: row {r} out of bounds"));
            col.check(S, (r as usize) >= j, || {
                format!("column {j}: entry at row {r} above the diagonal")
            });
            col.check(S, v.is_finite(), || format!("column {j}: non-finite value at row {r}"));
            col.check(S, prev.is_none_or(|p| p < r), || {
                format!("column {j}: rows not strictly ascending at {r}")
            });
            prev = Some(r);
        }
        if lo < hi {
            col.check(S, row_idx[lo] as usize == j && values[lo].to_bits() == 1.0f64.to_bits(), || {
                format!(
                    "column {j}: leading entry ({}, {}) is not the exact unit diagonal",
                    row_idx[lo], values[lo]
                )
            });
        }
    }
}

/// `U⁻¹` must be upper triangular with a nonzero diagonal leading every
/// row, and its run encoding must obey the decode contract (aligned
/// anchors, runs covering exactly the row's span, strictly ascending
/// decoded columns in bounds). The walk also re-sums every column, top to
/// bottom: the store's column sums are where the stop rule's mass comes
/// from, a splice refreshes them only for the columns it replaced, and a
/// stale sum below the truth would stop searches too early. And it finds
/// the widest row, which the store's cached `max_row_nnz` must name.
fn audit_uinv(index: &KdashIndex, col: &mut Collector) {
    const S: &str = "uinv";
    let store = index.uinv();
    let n = store.nrows();
    let mut sums = vec![0.0f64; store.ncols()];
    let (row_ptr, run_ptr, run_base, run_end, deltas, values) = store.raw();
    col.check(
        S,
        row_ptr.len() == n + 1
            && run_ptr.len() == n + 1
            && run_base.len() == run_end.len()
            && deltas.len() == values.len()
            && row_ptr.last() == Some(&deltas.len())
            && run_ptr.last() == Some(&run_base.len()),
        || "blocked arrays do not cover each other".to_string(),
    );
    let mut decoded: Vec<u32> = Vec::new();
    let mut max_nnz = 0usize;
    for r in 0..n {
        let (lo, hi) = (row_ptr[r.min(row_ptr.len() - 1)], row_ptr[(r + 1).min(row_ptr.len() - 1)]);
        let (rlo, rhi) =
            (run_ptr[r.min(run_ptr.len() - 1)], run_ptr[(r + 1).min(run_ptr.len() - 1)]);
        if lo > hi || hi > deltas.len() || rlo > rhi || rhi > run_base.len() {
            col.check(S, false, || format!("row {r}: invalid pointer ranges"));
            continue;
        }
        max_nnz = max_nnz.max(hi - lo);
        col.check(S, (lo < hi) == (rlo < rhi), || format!("row {r}: runs and nonzeros disagree"));
        decoded.clear();
        let mut start = lo;
        let mut runs_ok = true;
        for k in rlo..rhi {
            let (base, end) = (run_base[k], run_end[k] as usize);
            col.check(S, base % BLOCK_COLS == 0, || {
                format!("row {r}: unaligned run anchor {base}")
            });
            if end <= start || end > hi {
                col.check(S, false, || format!("row {r}: run end {end} outside row"));
                runs_ok = false;
                break;
            }
            decoded.extend(deltas[start..end].iter().map(|&d| base + d as u32));
            start = end;
        }
        if !runs_ok {
            continue;
        }
        col.check(S, start == hi, || format!("row {r}: runs do not cover the row"));
        audit_uinv_row(S, col, n, r as u32, &decoded, &values[lo..hi], &mut sums);
    }
    col.check(S, store.max_row_nnz() == max_nnz, || {
        format!("cached max_row_nnz {} but widest row has {max_nnz}", store.max_row_nnz())
    });
    let stored = store.column_sums();
    col.check(S, stored.len() == sums.len(), || {
        format!("column-sum table has {} entries, expected {}", stored.len(), sums.len())
    });
    for (j, (stored, expect)) in stored.iter().zip(&sums).enumerate() {
        col.check(S, stored.to_bits() == expect.to_bits(), || {
            format!("U⁻¹ column sum {j}: stored {stored} recomputed {expect}")
        });
    }
}

/// One decoded `U⁻¹` row's triangularity check; adds the row's entries to
/// the running column `sums`.
fn audit_uinv_row(
    section: &'static str,
    col: &mut Collector,
    n: usize,
    r: u32,
    cols: &[u32],
    vals: &[f64],
    sums: &mut [f64],
) {
    let mut prev: Option<u32> = None;
    for (i, &c) in cols.iter().enumerate() {
        col.check(section, (c as usize) < n, || format!("row {r}: column {c} out of bounds"));
        col.check(section, c >= r, || format!("row {r}: entry in column {c} below the diagonal"));
        col.check(section, prev.is_none_or(|p| p < c), || {
            format!("row {r}: columns not strictly ascending at {c}")
        });
        if i == 0 {
            col.check(section, c == r, || {
                format!("row {r}: leading column is {c}, not the diagonal")
            });
        }
        if let (Some(sum), Some(v)) = (sums.get_mut(c as usize), vals.get(i)) {
            *sum += v;
        }
        prev = Some(c);
    }
    let count = cols.len();
    col.check(section, count > 0, || format!("row {r}: empty (diagonal entry missing)"));
    col.check(section, vals.len() == count, || {
        format!("row {r}: {} values for {count} columns", vals.len())
    });
    for (i, v) in vals.iter().enumerate() {
        col.check(section, v.is_finite(), || format!("row {r}: non-finite value at entry {i}"));
    }
    if let Some(first) = vals.first() {
        col.check(section, *first != 0.0, || format!("row {r}: zero diagonal value"));
    }
}

/// The estimator constants must be **bit-identical** to a recomputation
/// from the stored permuted graph under the recorded dangling policy —
/// the one derivation ([`BoundConstants::of`]) the index constructor
/// runs. Anything else means the Lemma 1/2 bounds describe a different
/// matrix than the one indexed, and "exact top-k" is no longer a theorem.
fn audit_estimator(index: &KdashIndex, col: &mut Collector) {
    const S: &str = "estimator";
    let graph = index.permuted_graph();
    let expect_out_weight = out_weight_sums(graph);
    let expect = BoundConstants::of(
        graph,
        &expect_out_weight,
        index.dangling_policy(),
        index.restart_probability(),
    );
    let stored = index.bounds();
    for (name, stored, expect) in [
        ("A_max", stored.a_max, expect.a_max),
        ("c'_max", stored.c_prime_max, expect.c_prime_max),
    ] {
        col.check(S, stored.to_bits() == expect.to_bits(), || {
            format!("{name} {stored} disagrees with recomputed {expect}")
        });
    }
    for (name, stored, expect) in [
        ("A_max(v)", &stored.a_col_max, &expect.a_col_max),
        ("c'", &stored.c_prime, &expect.c_prime),
        ("row maximum of A", &stored.a_row_max, &expect.a_row_max),
    ] {
        for (v, (stored, expect)) in stored.iter().zip(expect).enumerate() {
            col.check(S, stored.to_bits() == expect.to_bits(), || {
                format!("{name} at node {v}: stored {stored} recomputed {expect}")
            });
        }
    }
    // The out-weight sums the stop rule and the refinement residual divide
    // by: derived, so a stale vector means a commit path replaced the
    // graph without them.
    let (out_weight, expect) = (index.out_weight(), expect_out_weight);
    col.check(S, out_weight.len() == expect.len(), || {
        format!("out-weight vector has {} entries, expected {}", out_weight.len(), expect.len())
    });
    for (v, (stored, expect)) in out_weight.iter().zip(&expect).enumerate() {
        col.check(S, stored.to_bits() == expect.to_bits(), || {
            format!("out-weight sum at node {v}: stored {stored} recomputed {expect}")
        });
    }
    // The reach anchor the certified tier lists reachable sets from,
    // derived the same way: a stale closure would solve the wrong set.
    let (stored, expect) =
        (index.reach_anchor(), ReachAnchor::of(index.permuted_graph(), index.dropped_mass()));
    col.check(S, *stored == expect, || {
        format!(
            "reach anchor {:?} with a closure of {} nodes, recomputed {:?} with {}",
            stored.node,
            stored.closure.len(),
            expect.node,
            expect.closure.len()
        )
    });
}

/// The sparsification record: the drop tolerance is finite and
/// non-negative, both dropped-mass vectors cover every node with finite
/// non-negative entries, and a dense-exact build (`ε = 0`) dropped
/// nothing — mass under a zero tolerance means the inverses and the
/// record disagree about what was stored.
fn audit_sparsify(index: &KdashIndex, col: &mut Collector) {
    const S: &str = "sparsify";
    let n = index.num_nodes();
    let eps = index.drop_tolerance();
    col.check(S, eps.is_finite() && eps >= 0.0, || {
        format!("drop tolerance {eps} not finite and non-negative")
    });
    let (linv_dropped, uinv_dropped) = index.dropped_masses();
    col.check(S, linv_dropped.len() == n, || {
        format!("L⁻¹ dropped-mass vector has {} entries, expected {n}", linv_dropped.len())
    });
    col.check(S, uinv_dropped.len() == n, || {
        format!("U⁻¹ dropped-mass vector has {} entries, expected {n}", uinv_dropped.len())
    });
    for (label, masses) in [("L⁻¹", linv_dropped), ("U⁻¹", uinv_dropped)] {
        for (j, &m) in masses.iter().enumerate() {
            col.check(S, m.is_finite() && m >= 0.0, || {
                format!("{label} column {j}: dropped mass {m} not finite and non-negative")
            });
            if eps == 0.0 {
                col.check(S, m == 0.0, || {
                    format!("{label} column {j}: dropped mass {m} under a zero drop tolerance")
                });
            }
        }
    }
    let total = linv_dropped.iter().sum::<f64>() + uinv_dropped.iter().sum::<f64>();
    col.check(S, index.dropped_mass().to_bits() == total.to_bits(), || {
        format!(
            "cached dropped-mass total {} disagrees with recomputed {total}",
            index.dropped_mass()
        )
    });
}

/// Spot-check columns for [`audit_factors`]: deterministic, always the
/// first and last column plus an even stride between them, at most `cap`.
fn sampled_columns(n: usize, cap: usize) -> Vec<u32> {
    if n == 0 || cap == 0 {
        return Vec::new();
    }
    if n <= cap {
        return (0..n as u32).collect();
    }
    let mut cols: Vec<u32> = (0..cap).map(|i| (i * (n - 1) / (cap - 1)) as u32).collect();
    cols.dedup();
    cols
}

/// Relative tolerance for the `W = L·U` spot check. The factorisation is
/// exact left-looking elimination, so the residual is pure rounding —
/// well under this bound on diagonally dominant `W`.
const FACTOR_SPOT_TOL: f64 = 1e-10;

/// The dynamic engine's LU factors (its post-apply check): both
/// triangles structurally sound (`L` strictly
/// lower and unit-diagonal by convention, `U` upper with its diagonal
/// stored *last* per column, exactly as the left-looking factorisation
/// emits them), the stored nnz stats in agreement, and `W = L·U`
/// spot-recomputed on sampled columns against a fresh `W` rebuilt from
/// the stored graph — stale factors from before a graph change fail this
/// even when they are perfectly well-formed.
fn audit_factors(index: &KdashIndex, f: &LuFactors, col: &mut Collector) {
    const S: &str = "factors";
    let n = index.num_nodes();
    col.check(S, f.l.nrows() == n && f.l.ncols() == n, || {
        format!("L is {}×{}, expected {n}×{n}", f.l.nrows(), f.l.ncols())
    });
    col.check(S, f.u.nrows() == n && f.u.ncols() == n, || {
        format!("U is {}×{}, expected {n}×{n}", f.u.nrows(), f.u.ncols())
    });
    if f.l.ncols() != n || f.u.ncols() != n || f.l.nrows() != n || f.u.nrows() != n {
        return;
    }
    for j in 0..n as u32 {
        let (rows, vals) = f.l.col(j);
        let mut prev: Option<u32> = None;
        for (&r, &v) in rows.iter().zip(vals) {
            col.check(S, r > j, || format!("L column {j}: entry at row {r} not strictly below"));
            col.check(S, v.is_finite(), || format!("L column {j}: non-finite value at row {r}"));
            col.check(S, prev.is_none_or(|p| p < r), || {
                format!("L column {j}: rows not strictly ascending at {r}")
            });
            prev = Some(r);
        }
    }
    for j in 0..n as u32 {
        let (rows, vals) = f.u.col(j);
        col.check(S, !rows.is_empty(), || format!("U column {j}: diagonal entry missing"));
        let mut prev: Option<u32> = None;
        for (i, (&r, &v)) in rows.iter().zip(vals).enumerate() {
            col.check(S, v.is_finite(), || format!("U column {j}: non-finite value at row {r}"));
            if i + 1 == rows.len() {
                col.check(S, r == j, || {
                    format!("U column {j}: last entry at row {r} is not the diagonal")
                });
                col.check(S, v != 0.0, || format!("U column {j}: zero diagonal"));
            } else {
                col.check(S, r < j, || {
                    format!("U column {j}: off-diagonal entry at row {r} not above the diagonal")
                });
                col.check(S, prev.is_none_or(|p| p < r), || {
                    format!("U column {j}: rows not strictly ascending at {r}")
                });
                prev = Some(r);
            }
        }
    }
    let stats = index.stats();
    col.check(S, stats.nnz_l == f.l.nnz(), || {
        format!("stats record {} L entries, factors hold {}", stats.nnz_l, f.l.nnz())
    });
    col.check(S, stats.nnz_u == f.u.nnz(), || {
        format!("stats record {} U entries, factors hold {}", stats.nnz_u, f.u.nnz())
    });

    // Spot-recompute W = L·U on sampled columns against a fresh W.
    let a = transition_matrix(index.permuted_graph(), index.dangling_policy());
    let w = match w_matrix(&a, index.restart_probability()) {
        Ok(w) => w,
        Err(e) => {
            col.check(S, false, || format!("cannot rebuild W for the spot check: {e}"));
            return;
        }
    };
    if w.ncols() != n {
        col.check(S, false, || {
            format!("rebuilt W has {} columns, expected {n}", w.ncols())
        });
        return;
    }
    let mut x = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();
    for j in sampled_columns(n, 16) {
        // (L·U)(:, j) with L's implicit unit diagonal.
        let (urows, uvals) = f.u.col(j);
        for (&k, &uv) in urows.iter().zip(uvals) {
            x[k as usize] += uv;
            touched.push(k);
            let (lrows, lvals) = f.l.col(k);
            for (&r, &lv) in lrows.iter().zip(lvals) {
                x[r as usize] += lv * uv;
                touched.push(r);
            }
        }
        let (wrows, wvals) = w.col(j);
        for (&r, &wv) in wrows.iter().zip(wvals) {
            let diff = (x[r as usize] - wv).abs();
            col.check(S, diff <= FACTOR_SPOT_TOL * wv.abs().max(1.0), || {
                format!(
                    "column {j}: (L·U)[{r}] = {} but W[{r}] = {wv} (|Δ| = {diff:.3e})",
                    x[r as usize]
                )
            });
            x[r as usize] = 0.0;
        }
        for &r in &touched {
            col.check(S, x[r as usize].abs() <= FACTOR_SPOT_TOL, || {
                format!(
                    "column {j}: product has entry {} at row {r} where W has none",
                    x[r as usize]
                )
            });
            x[r as usize] = 0.0;
        }
        touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexOptions, KdashError};
    use kdash_graph::GraphBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn sample_index_with(options: IndexOptions) -> KdashIndex {
        let mut rng = StdRng::seed_from_u64(11);
        let mut b = GraphBuilder::new(50);
        for v in 0..50u32 {
            for _ in 0..4 {
                let t = rng.gen_range(0..50);
                if t != v {
                    b.add_edge(v, t, rng.gen_range(0.5..2.0));
                }
            }
        }
        KdashIndex::build(&b.build().unwrap(), options).unwrap()
    }

    fn sample_index() -> KdashIndex {
        sample_index_with(IndexOptions::default())
    }

    #[test]
    fn fresh_index_audits_clean() {
        let audit = IndexAudit::run(&sample_index());
        assert!(audit.is_clean(), "findings: {:?}", audit.findings);
        assert_eq!(audit.sections.len(), 7);
        assert!(audit.sections.iter().all(|s| s.checks > 0));
        assert!(audit.clone().into_result().is_ok());
    }

    #[test]
    fn reloaded_index_audits_clean() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = KdashIndex::load(buf.as_slice()).unwrap();
        assert!(IndexAudit::run(&loaded).is_clean());
    }

    /// The factors of the index's own `W`, as the dynamic engine computes
    /// them on attach.
    fn factors_of(index: &KdashIndex) -> LuFactors {
        let a = transition_matrix(index.permuted_graph(), index.dangling_policy());
        kdash_sparse::sparse_lu(&w_matrix(&a, index.restart_probability()).unwrap()).unwrap()
    }

    #[test]
    fn kept_factors_audit_clean() {
        let index = sample_index();
        let audit = IndexAudit::run_with_factors(&index, &factors_of(&index));
        assert!(audit.is_clean(), "findings: {:?}", audit.findings);
        assert_eq!(audit.sections.len(), 8);
        let last = &audit.sections[7];
        assert_eq!(last.name, "factors");
        assert!(last.checks > 0, "the factor checks must run");
    }

    #[test]
    fn corrupted_factors_are_found() {
        let index = sample_index();
        let mut factors = factors_of(&index);
        // Perturb one U value: structure stays legal, W = L·U breaks.
        let (cp, ri, mut vals) = {
            let (cp, ri, vals) = factors.u.raw();
            (cp.to_vec(), ri.to_vec(), vals.to_vec())
        };
        vals[0] += 0.25;
        factors.u = kdash_sparse::CscMatrix::from_raw_parts(
            factors.u.nrows(),
            factors.u.ncols(),
            cp,
            ri,
            vals,
        )
        .unwrap();
        let audit = IndexAudit::run_with_factors(&index, &factors);
        assert!(!audit.is_clean(), "perturbed factors must be flagged");
        assert!(audit.findings.iter().all(|f| f.section == "factors"));
    }

    #[test]
    fn stale_out_weight_sum_is_found() {
        // Both tiers carry the sums: the dense stop rule divides by them too.
        let sparsified =
            sample_index_with(IndexOptions { drop_tolerance: 1e-2, ..Default::default() });
        assert!(sparsified.needs_refinement());
        for mut index in [sample_index(), sparsified] {
            assert_eq!(index.out_weight().len(), index.num_nodes());
            index.out_weight_mut()[3] += 0.5;
            let audit = IndexAudit::run(&index);
            assert_eq!(audit.total_findings(), 1, "findings: {:?}", audit.findings);
            assert_eq!(audit.findings[0].section, "estimator");
            assert!(audit.findings[0].detail.contains("out-weight sum at node 3"));
        }
    }

    #[test]
    fn stale_reach_anchor_is_found() {
        assert_eq!(*sample_index().reach_anchor(), ReachAnchor::default(), "none when dense");
        let mut index =
            sample_index_with(IndexOptions { drop_tolerance: 1e-2, ..Default::default() });
        assert!(index.reach_anchor().node.is_some());
        index.reach_anchor_mut().closure.pop();
        let audit = IndexAudit::run(&index);
        assert_eq!(audit.total_findings(), 1, "findings: {:?}", audit.findings);
        assert_eq!(audit.findings[0].section, "estimator");
        assert!(audit.findings[0].detail.contains("reach anchor"));
    }

    #[test]
    fn stale_column_sum_is_found() {
        let mut index = sample_index();
        index.uinv_mut().column_sums_mut()[2] *= 0.5;
        let audit = IndexAudit::run(&index);
        assert_eq!(audit.total_findings(), 1, "findings: {:?}", audit.findings);
        assert_eq!(audit.findings[0].section, "uinv");
        assert!(audit.findings[0].detail.contains("U⁻¹ column sum 2"));
    }

    #[test]
    fn dirty_audit_becomes_typed_error() {
        let audit = IndexAudit {
            sections: Vec::new(),
            findings: vec![AuditFinding { section: "linv", detail: "zero diagonal".into() }],
            suppressed: 2,
        };
        assert!(!audit.is_clean());
        assert_eq!(audit.total_findings(), 3);
        let err = audit.into_result().unwrap_err();
        match err {
            KdashError::AuditFailed { findings } => {
                assert_eq!(findings.len(), 2, "one finding + the suppression note");
                assert!(findings[0].contains("linv: zero diagonal"));
                assert!(findings[1].contains("2 further"));
            }
            other => panic!("expected AuditFailed, got {other:?}"),
        }
    }
}
