//! Deep structural auditing of a built (or loaded, or patched) index.
//!
//! The persistence layer checks what can be checked *while streaming*,
//! and every constructor checks the arrays it is handed. This module is
//! the fsck counterpart: given a fully assembled [`KdashIndex`],
//! [`IndexAudit::run`] re-proves every invariant the query path silently
//! relies on and reports violations as findings instead of panicking or,
//! worse, returning wrong proximities. Each invariant is stated once, by
//! the type that owns it: a section runs that statement on what the index
//! holds, turns its first error into one finding, and adds only what no
//! constructor states.
//!
//! * `header` — `precompute::check_header`, which
//!   [`KdashIndex::assemble`](crate::KdashIndex) runs too: the restart
//!   probability in range, the component dimensions agreeing.
//! * `permutation` — [`Permutation::check`](kdash_graph::Permutation::check):
//!   a bijection on `0..n`.
//! * `graph` — [`CsrGraph::check`](kdash_graph::CsrGraph::check): monotone
//!   covering row pointers, strictly ascending in-bounds targets, finite
//!   positive weights.
//! * `linv` — [`CscMatrix::check`](kdash_sparse::CscMatrix::check), then
//!   an exact unit diagonal leading every column, read through `col`: the
//!   query scatter assumes column `q` starts with `(q, 1.0)`, and with
//!   rows ascending the lead keeps every entry on or below the diagonal.
//! * `uinv` — [`ProximityStore::check`](kdash_sparse::ProximityStore::check)
//!   (the blocked encoding's decode contract, the widest row, every
//!   column sum), then a nonzero diagonal leading every row, read through
//!   `row_stat` and a one-entry `row_dot_sparse`: with columns ascending
//!   the lead keeps every entry on or above the diagonal.
//! * `estimator` — the bounds' constants, the out-weight sums the stop
//!   rule and the certified refinement normalise by, and the reach anchor
//!   the latter lists reachable sets from, each **bit-identical**, lengths
//!   included, to an independent recomputation from the stored graph (the
//!   constructor derives all three there; this checks nothing replaced
//!   them since): the bounds and the refinement residual are only sound
//!   for the matrix actually indexed.
//! * `sparsify` — `precompute::check_sparsify`, which `assemble` runs
//!   too, then the cached dropped-mass total.
//! * `factors`, in [`IndexAudit::run_with_factors`] only — the LU factors'
//!   own matrix checks, their triangles and the diagonal-last `U` layout,
//!   the stored nnz stats, and `W = L·U` on sampled columns.
//!
//! The audit never panics: a section whose owner's check fails reads no
//! further. It is exposed three ways: `kdash verify <index>` (the
//! operational fsck), `DynamicIndex::verify_after_apply` (opt-in
//! post-update check), and directly through this API.

use crate::estimator::BoundConstants;
use crate::precompute::{check_header, check_sparsify, out_weight_sums, ReachAnchor};
use crate::KdashIndex;
use kdash_sparse::{transition_matrix, w_matrix, CscMatrix, LuFactors};
use std::fmt::Display;
use std::time::{Duration, Instant};

/// One audited section: what was checked, how many checks ran, and how
/// long it took (the `kdash verify` per-section report lines).
#[derive(Debug, Clone)]
pub struct AuditSection {
    /// Section name, aligned with the on-disk section names of
    /// [`crate::persist::Section`] where the two overlap.
    pub name: &'static str,
    /// Checks the section ran; each reports at most one finding.
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
/// every finding (violation), at most one per check.
#[derive(Debug, Clone)]
pub struct IndexAudit {
    /// Per-section accounting, in execution order.
    pub sections: Vec<AuditSection>,
    /// The violations found, in execution order.
    pub findings: Vec<AuditFinding>,
}

/// Collects a run's sections and findings.
#[derive(Default)]
struct Collector {
    sections: Vec<AuditSection>,
    findings: Vec<AuditFinding>,
    /// The running section's name and checks so far.
    section: &'static str,
    checks: usize,
}

impl Collector {
    /// Runs one section, timing it and counting its checks.
    fn section(&mut self, name: &'static str, body: impl FnOnce(&mut Collector)) {
        let t = Instant::now();
        (self.section, self.checks) = (name, 0);
        body(self);
        self.sections.push(AuditSection { name, checks: self.checks, duration: t.elapsed() });
    }

    /// Counts one check; its error, if any, becomes one finding. Returns
    /// whether the check held.
    fn check(&mut self, outcome: Result<(), impl Display>) -> bool {
        self.checks += 1;
        let Err(e) = outcome else { return true };
        self.findings.push(AuditFinding { section: self.section, detail: e.to_string() });
        false
    }
}

/// `Ok` where `ok` holds, else the finding `detail` describes.
fn holds(ok: bool, detail: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(detail())
    }
}

impl IndexAudit {
    /// Runs the full audit. Never panics; violations become findings.
    pub fn run(index: &KdashIndex) -> IndexAudit {
        Self::run_sections(index, None)
    }

    /// Runs the full audit plus the factor-consistency section: `factors`
    /// — the LU factors of the stored graph's `W`, which live outside the
    /// index (the dynamic engine holds them) — are checked for
    /// triangularity, the diagonal-last `U` layout, agreement with the
    /// stored nnz stats, and — the expensive part — `W = L·U` is
    /// spot-recomputed on a deterministic sample of columns against a
    /// fresh rebuild of `W` from the stored graph.
    pub fn run_with_factors(index: &KdashIndex, factors: &LuFactors) -> IndexAudit {
        Self::run_sections(index, Some(factors))
    }

    fn run_sections(index: &KdashIndex, factors: Option<&LuFactors>) -> IndexAudit {
        let (graph, perm) = (index.permuted_graph(), index.permutation());
        let mut run = Collector::default();
        run.section("header", |col| {
            let c = index.restart_probability();
            col.check(check_header(c, graph, perm, index.linv(), index.uinv()));
        });
        run.section("permutation", |col| {
            col.check(perm.check());
        });
        run.section("graph", |col| {
            col.check(graph.check());
        });
        run.section("linv", |col| audit_linv(index, col));
        run.section("uinv", |col| audit_uinv(index, col));
        run.section("estimator", |col| audit_estimator(index, col));
        run.section("sparsify", |col| audit_sparsify(index, col));
        if let Some(factors) = factors {
            run.section("factors", |col| audit_factors(index, factors, col));
        }
        IndexAudit { sections: run.sections, findings: run.findings }
    }

    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Converts a dirty audit into [`crate::KdashError::AuditFailed`]
    /// carrying the `"section: detail"` strings (clean audits pass).
    pub fn into_result(self) -> crate::Result<()> {
        if self.is_clean() {
            return Ok(());
        }
        let findings = self.findings.iter().map(|f| format!("{}: {}", f.section, f.detail));
        Err(crate::KdashError::AuditFailed { findings: findings.collect() })
    }
}

/// `L⁻¹`'s own checks, then an exact unit diagonal leading each column
/// (forward substitution on a unit-lower factor never scales the seed
/// entry, so equality is exact, not approximate).
fn audit_linv(index: &KdashIndex, col: &mut Collector) {
    let linv = index.linv();
    if !col.check(linv.check()) {
        return;
    }
    col.check((0..linv.ncols() as u32).try_for_each(|j| match linv.col(j) {
        ([r, ..], [v, ..]) => holds(*r == j && v.to_bits() == 1.0f64.to_bits(), || {
            format!("column {j}: leading entry ({r}, {v}) is not the exact unit diagonal")
        }),
        _ => Err(format!("column {j}: empty (diagonal entry missing)")),
    }));
}

/// `U⁻¹`'s own checks, then a nonzero diagonal leading each row.
fn audit_uinv(index: &KdashIndex, col: &mut Collector) {
    let store = index.uinv();
    if !col.check(store.check()) {
        return;
    }
    col.check((0..store.nrows() as u32).try_for_each(|r| {
        let stat = store.row_stat(r);
        holds(stat.nnz > 0, || format!("row {r}: empty (diagonal entry missing)"))?;
        holds(stat.first == r, || {
            format!("row {r}: leading column is {}, not the diagonal", stat.first)
        })?;
        holds(store.row_dot_sparse(r, &[r], &[1.0]) != 0.0, || {
            format!("row {r}: zero diagonal value")
        })
    }));
}

/// The estimator constants must be **bit-identical** to a recomputation
/// from the stored permuted graph under the recorded dangling policy —
/// the one derivation ([`BoundConstants::of`]) the index constructor
/// runs. Anything else means the Lemma 1/2 bounds describe a different
/// matrix than the one indexed, and "exact top-k" is no longer a theorem.
/// The out-weight sums and the reach anchor are derived the same way: a
/// stale vector means a commit path replaced the graph without them, and
/// a stale closure would solve the wrong set.
fn audit_estimator(index: &KdashIndex, col: &mut Collector) {
    let graph = index.permuted_graph();
    let out_weight = out_weight_sums(graph);
    let expect = BoundConstants::of(
        graph,
        &out_weight,
        index.dangling_policy(),
        index.restart_probability(),
    );
    let stored = index.bounds();
    for (name, stored, expect) in
        [("A_max", stored.a_max, expect.a_max), ("c'_max", stored.c_prime_max, expect.c_prime_max)]
    {
        col.check(holds(stored.to_bits() == expect.to_bits(), || {
            format!("{name} {stored} disagrees with recomputed {expect}")
        }));
    }
    let vectors: [(&str, &[f64], &[f64]); 4] = [
        ("A_max(v)", &stored.a_col_max, &expect.a_col_max),
        ("c'", &stored.c_prime, &expect.c_prime),
        ("row maximum of A", &stored.a_row_max, &expect.a_row_max),
        ("out-weight sum", index.out_weight(), &out_weight),
    ];
    for (name, stored, expect) in vectors {
        col.check(same_bits(name, stored, expect));
    }
    let (stored, expect) = (index.reach_anchor(), ReachAnchor::of(graph, index.dropped_mass()));
    col.check(holds(*stored == expect, || {
        format!(
            "reach anchor {:?} with a closure of {} nodes, recomputed {:?} with {}",
            stored.node,
            stored.closure.len(),
            expect.node,
            expect.closure.len()
        )
    }));
}

/// Whether a stored per-node vector equals its recomputation bit for bit,
/// lengths included; the first difference otherwise.
fn same_bits(name: &str, stored: &[f64], expect: &[f64]) -> Result<(), String> {
    if let Some(v) = stored.iter().zip(expect).position(|(s, e)| s.to_bits() != e.to_bits()) {
        return Err(format!("{name} at node {v}: stored {} recomputed {}", stored[v], expect[v]));
    }
    holds(stored.len() == expect.len(), || {
        format!("{name} has {} entries, expected {}", stored.len(), expect.len())
    })
}

/// The sparsification record, then the cached total the query path routes
/// on.
fn audit_sparsify(index: &KdashIndex, col: &mut Collector) {
    let (linv_dropped, uinv_dropped) = index.dropped_masses();
    let eps = index.drop_tolerance();
    col.check(check_sparsify(eps, index.num_nodes(), linv_dropped, uinv_dropped));
    let total = linv_dropped.iter().sum::<f64>() + uinv_dropped.iter().sum::<f64>();
    col.check(holds(index.dropped_mass().to_bits() == total.to_bits(), || {
        format!(
            "cached dropped-mass total {} disagrees with recomputed {total}",
            index.dropped_mass()
        )
    }));
}

/// Spot-check columns for [`product_matches_w`]: deterministic, always the
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

/// The dynamic engine's LU factors (its post-apply check): both matrices
/// sound and `n × n`, `L` strictly lower (unit diagonal by convention),
/// `U` upper with its nonzero diagonal stored *last* per column, exactly
/// as the left-looking factorisation emits them, the stored nnz stats in
/// agreement, and `W = L·U` on sampled columns.
fn audit_factors(index: &KdashIndex, f: &LuFactors, col: &mut Collector) {
    let n = index.num_nodes();
    let square = |m: &CscMatrix| m.nrows() == n && m.ncols() == n;
    let sound = col.check(holds(square(&f.l) && square(&f.u), || {
        let (l, u) = (&f.l, &f.u);
        format!(
            "L is {}×{} and U {}×{}, expected {n}×{n}",
            l.nrows(),
            l.ncols(),
            u.nrows(),
            u.ncols()
        )
    })) && col.check(f.l.check())
        && col.check(f.u.check());
    if !sound {
        return;
    }
    col.check(holds(f.l.is_strictly_lower(), || "L has an entry on or above the diagonal".into()));
    col.check(holds(f.u.is_upper(), || "U has an entry below the diagonal".into()));
    col.check((0..n as u32).try_for_each(|j| match f.u.col(j) {
        ([.., r], [.., v]) => holds(*r == j && *v != 0.0, || {
            format!("U column {j}: last entry ({r}, {v}) is not a nonzero diagonal")
        }),
        _ => Err(format!("U column {j}: diagonal entry missing")),
    }));
    let stats = index.stats();
    col.check(holds(stats.nnz_l == f.l.nnz(), || {
        format!("stats record {} L entries, factors hold {}", stats.nnz_l, f.l.nnz())
    }));
    col.check(holds(stats.nnz_u == f.u.nnz(), || {
        format!("stats record {} U entries, factors hold {}", stats.nnz_u, f.u.nnz())
    }));
    col.check(product_matches_w(index, f));
}

/// `W = L·U` spot-recomputed on [`sampled_columns`] against a fresh `W`
/// rebuilt from the stored graph — stale factors from before a graph
/// change fail this even when they are perfectly well-formed.
fn product_matches_w(index: &KdashIndex, f: &LuFactors) -> Result<(), String> {
    let n = index.num_nodes();
    let a = transition_matrix(index.permuted_graph(), index.dangling_policy());
    let w = w_matrix(&a, index.restart_probability())
        .map_err(|e| format!("cannot rebuild W for the spot check: {e}"))?;
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
            let (got, diff) = (x[r as usize], (x[r as usize] - wv).abs());
            holds(diff <= FACTOR_SPOT_TOL * wv.abs().max(1.0), || {
                format!("column {j}: (L·U)[{r}] = {got} but W[{r}] = {wv} (|Δ| = {diff:.3e})")
            })?;
            x[r as usize] = 0.0;
        }
        for &r in &touched {
            let got = x[r as usize];
            holds(got.abs() <= FACTOR_SPOT_TOL, || {
                format!("column {j}: product has entry {got} at row {r} where W has none")
            })?;
            x[r as usize] = 0.0;
        }
        touched.clear();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexOptions, IndexPatch, KdashError};
    use kdash_graph::GraphBuilder;
    use kdash_sparse::{CsrMatrix, ProximityStore};
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

    fn sparsified_sample_index() -> KdashIndex {
        let index = sample_index_with(IndexOptions { drop_tolerance: 1e-2, ..Default::default() });
        assert!(index.needs_refinement());
        index
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

    /// `index` with its stored inverses replaced, through the one
    /// constructor an update takes.
    fn with_inverses(index: &KdashIndex, linv: CscMatrix, uinv: ProximityStore) -> KdashIndex {
        let (linv_dropped, uinv_dropped) = index.dropped_masses();
        let patch = IndexPatch {
            graph: index.permuted_graph().clone(),
            linv,
            uinv,
            linv_dropped: linv_dropped.to_vec(),
            uinv_dropped: uinv_dropped.to_vec(),
            nnz_l: index.stats().nnz_l,
            nnz_u: index.stats().nnz_u,
            epochs: 1,
        };
        index.patched(patch).unwrap()
    }

    /// One corruption per invariant only the audit states, each found
    /// exactly once and only in its own section.
    #[test]
    fn every_section_finds_its_own_corruption() {
        let dense = sample_index();
        let doubled_linv =
            with_inverses(&dense, dense.linv().map_values(|v| 2.0 * v), dense.uinv().clone());
        // The rows of (U⁻¹)ᵀ: lower triangular, every store check passes.
        let transposed = CsrMatrix::from_csc(&dense.uinv().to_csc().transpose());
        let lower_uinv = with_inverses(
            &dense,
            dense.linv().clone(),
            ProximityStore::from_csr(transposed, dense.layout()).unwrap(),
        );
        let mut stale_out_weight = dense.clone();
        stale_out_weight.out_weight_mut()[3] += 0.5;
        let mut truncated_anchor = sparsified_sample_index();
        truncated_anchor.reach_anchor_mut().closure.pop();
        // One U value off: the structure stays legal, W = L·U breaks.
        let mut factors = factors_of(&dense);
        let mut u: Vec<_> = factors.u.triplets().collect();
        u[0].2 += 0.25;
        factors.u = CscMatrix::from_triplets(factors.u.nrows(), factors.u.ncols(), &u).unwrap();
        let cases = [
            ("L⁻¹ doubled", IndexAudit::run(&doubled_linv), "linv"),
            ("U⁻¹ transposed", IndexAudit::run(&lower_uinv), "uinv"),
            ("stale out-weight sum", IndexAudit::run(&stale_out_weight), "estimator"),
            ("truncated anchor closure", IndexAudit::run(&truncated_anchor), "estimator"),
            ("perturbed U factor", IndexAudit::run_with_factors(&dense, &factors), "factors"),
        ];
        for (what, audit, section) in cases {
            assert!(!audit.is_clean(), "{what} must be found");
            assert!(audit.findings.iter().all(|f| f.section == section), "{what}: {audit:?}");
            assert_eq!(audit.findings.len(), 1, "{what}: {:?}", audit.findings);
        }
    }

    #[test]
    fn stale_out_weight_sum_is_found() {
        // Both tiers carry the sums: the dense stop rule divides by them too.
        for mut index in [sample_index(), sparsified_sample_index()] {
            assert_eq!(index.out_weight().len(), index.num_nodes());
            index.out_weight_mut()[3] += 0.5;
            let audit = IndexAudit::run(&index);
            assert_eq!(audit.findings.len(), 1, "findings: {:?}", audit.findings);
            assert_eq!(audit.findings[0].section, "estimator");
            assert!(audit.findings[0].detail.contains("out-weight sum at node 3"));
        }
    }

    #[test]
    fn stale_reach_anchor_is_found() {
        assert_eq!(*sample_index().reach_anchor(), ReachAnchor::default(), "none when dense");
        let mut index = sparsified_sample_index();
        assert!(index.reach_anchor().node.is_some());
        index.reach_anchor_mut().closure.pop();
        let audit = IndexAudit::run(&index);
        assert_eq!(audit.findings.len(), 1, "findings: {:?}", audit.findings);
        assert_eq!(audit.findings[0].section, "estimator");
        assert!(audit.findings[0].detail.contains("reach anchor"));
    }

    #[test]
    fn dirty_audit_becomes_typed_error() {
        let finding = AuditFinding { section: "linv", detail: "zero diagonal".into() };
        let audit = IndexAudit { sections: Vec::new(), findings: vec![finding] };
        assert!(!audit.is_clean());
        match audit.into_result().unwrap_err() {
            KdashError::AuditFailed { findings } => assert_eq!(findings, ["linv: zero diagonal"]),
            other => panic!("expected AuditFailed, got {other:?}"),
        }
    }
}
