//! Runtime-dispatched gather kernels.
//!
//! One proximity is one dot product of a stored `U⁻¹` row against the
//! scattered query column ([`crate::ScatteredColumn`]: the loaded entries,
//! `+0.0` elsewhere), and on every dense workload that dot product *is* the
//! query. This module holds its one arithmetic and the machinery to pick
//! an implementation of it safely at runtime.
//!
//! # The lane kernel
//!
//! Every stored entry multiplies `y[col]` **unconditionally** — there is
//! no membership check and no branch on the data. Four independent lanes
//! break the FP-add latency chain a single accumulator would run at: lane
//! `j` sums the row's entries at positions `≡ j (mod 4)` in position
//! order, and the lanes reduce as `(a0 + a2) + (a1 + a3)`. The kernel
//! reads a stored row in place as its *segments* — one per run of the
//! blocked encoding (`blocked.rs`): the run's block anchor as an
//! offset into `y`, its `u16` column deltas and its values — with the
//! lanes continuing across run boundaries. A row's sum therefore does not
//! depend on where its runs split: it is **bit-identical** to the same
//! arithmetic over the row's CSR columns (pinned by
//! `tests/kernel_equivalence.rs`).
//!
//! There are two bodies of that arithmetic, differing only in how a full
//! chunk of four entries is fetched: a portable one, and an AVX2 twin
//! (`vpmovzxwd` for the deltas, one unmasked `vgatherdpd` from `y`,
//! `vmulpd` + `vaddpd`, no FMA). They are **bit-identical to
//! each other on every row**, so answers do not depend on which one the
//! host dispatches to. Against the one-accumulator reference order
//! ([`ResolvedKernel::reference`]: one accumulator in storage order over
//! the same vector, bit-identical to the merge join
//! [`crate::ProximityStore::row_dot_sparse`]) they differ only by
//! re-association; the equivalence suites pin `≤ 1e-12`, and search
//! results stay exact against the iterative ground truth under every
//! kernel.
//!
//! # Why there is no per-row policy
//!
//! PR 4 added a selector that predicted each row's hit rate (the share of
//! its entries that meet a loaded position) from the query column's
//! density in 1 024-column buckets and sent predicted-miss-dominated rows
//! to a stamp-checked scalar loop that skipped their value loads. On the
//! benchmark's four workloads it never once chose the wide arm
//! (`sparse.gather.wide_row_share` 0.0000 everywhere) while the *measured*
//! hit rate over the gathered rows was 0.72 / 0.48 / 0.95 on
//! `rmat-gather` / `serve-churn` / `dict-pruned`: the hybrid ordering
//! packs 92 % of both inverses' entries into the last 256 columns, which
//! a 1 024-wide bucket cannot see. The checked loop cost 1.28–1.58 ns per
//! stored entry where streaming the same rows costs 0.65 ns. PR 14 deleted
//! the policy, its inputs and the stamp array rather than retune them. The
//! regime the benchmark cannot see — a DRAM-resident index whose rows are
//! genuinely miss-dominated, where skipping value loads saves bandwidth —
//! is reported by `crates/bench/benches/query_engine.rs` as a measured hit
//! rate; see ROADMAP before adding a selector back.
//!
//! # Selection
//!
//! There is no request layer: a workspace takes [`ResolvedKernel::default`]
//! — AVX2 where the host reports it, otherwise the portable body — and
//! [`crate::ProximityStore::row_dot_dense`] dispatches on that token. Its
//! dispatch target is private, so no caller can name a body the host
//! failed to detect: the bit-identity suites reach the others only through
//! two hidden constructors, [`ResolvedKernel::reference`] (the
//! one-accumulator order) and [`ResolvedKernel::host_bodies`] (the
//! portable body, then AVX2 only where detected).

/// The AVX2 body where the host CPU reports it.
fn simd_support() -> Option<LaneBody> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Some(LaneBody::Avx2);
    }
    None
}

/// A gather kernel validated against the host CPU — the token
/// [`crate::ProximityStore::row_dot_dense`] dispatches on.
///
/// The inner dispatch target is private so the vector body can never be
/// conjured on a host that failed detection (calling AVX2 code there
/// would be undefined behaviour, not just wrong).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedKernel(Dispatch);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dispatch {
    /// The one-accumulator reference order.
    Scalar,
    /// The four-lane kernel through the given body.
    Lanes(LaneBody),
}

/// The host-validated body of the four-lane kernel. Construction-gated
/// like [`ResolvedKernel`] (no public constructor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneBody {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl ResolvedKernel {
    /// The one-accumulator reference order
    /// ([`crate::CsrMatrix::row_dot_dense`] over the scattered column),
    /// bit-identical to the merge join. Hidden: the seam the bit-identity
    /// suites pin the lane bodies and the merge join against.
    #[doc(hidden)]
    pub fn reference() -> Self {
        ResolvedKernel(Dispatch::Scalar)
    }

    /// Every body of the four-lane kernel the host can run: the portable
    /// one, then AVX2 where detected. Hidden, for the suites that hold
    /// the bodies bit-identical to each other.
    #[doc(hidden)]
    pub fn host_bodies() -> Vec<Self> {
        let avx2 = simd_support().map(|body| ResolvedKernel(Dispatch::Lanes(body)));
        std::iter::once(ResolvedKernel(Dispatch::Lanes(LaneBody::Portable))).chain(avx2).collect()
    }

    /// What actually runs, for logs and stats: `"scalar"`, `"unrolled"`
    /// or `"avx2"`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Dispatch::Scalar => "scalar",
            Dispatch::Lanes(LaneBody::Portable) => "unrolled",
            #[cfg(target_arch = "x86_64")]
            Dispatch::Lanes(LaneBody::Avx2) => "avx2",
        }
    }

    /// The lane body to run, or `None` for the one-accumulator reference.
    #[inline]
    pub(crate) fn lanes(self) -> Option<LaneBody> {
        match self.0 {
            Dispatch::Scalar => None,
            Dispatch::Lanes(body) => Some(body),
        }
    }
}

impl Default for ResolvedKernel {
    /// AVX2 where the host reports it, otherwise the portable body —
    /// bit-identical to each other, so answers are machine-independent.
    fn default() -> Self {
        ResolvedKernel(Dispatch::Lanes(simd_support().unwrap_or(LaneBody::Portable)))
    }
}

/// Byte-traffic counters the gather entry points accumulate, the raw
/// material for `SearchStats::bytes_touched` and the per-kernel row
/// split. `value_bytes` follows a fixed *accounting model* rather than a
/// hardware measurement: every kernel multiplies every stored entry, so
/// every row is charged 8 bytes per stored entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatherCounters {
    /// Rows executed in the one-accumulator reference order.
    pub rows_scalar: usize,
    /// Rows executed by the four-lane kernel.
    pub rows_wide: usize,
    /// Index bytes streamed by the gathers (2 per stored entry + 8 per
    /// run of the blocked encoding).
    pub index_bytes: usize,
    /// Value bytes touched under the accounting model above.
    pub value_bytes: usize,
    /// Stored entries of every gathered row, independent of the kernel —
    /// the query-budget currency (`QueryBudget`'s
    /// `max_gather_nnz` meters this), deliberately identical across
    /// execution strategies so a budget cannot change *which* queries
    /// complete under a different kernel.
    pub nnz: usize,
}

impl GatherCounters {
    /// Zeroes every counter (start of a query).
    pub fn reset(&mut self) {
        *self = GatherCounters::default();
    }
}

/// Former decode scratch of the blocked layout's wide path. The lane
/// kernel reads the `u16` deltas in place, so nothing is left to hold;
/// the type and its parameter on [`crate::ProximityStore::row_gather`]
/// stay only because `benchmark/` names them and a change that claims a
/// gain may not edit the benchmark. A later `benchmark`-kind change can
/// drop both.
#[derive(Debug, Clone, Default)]
pub struct GatherScratch;

impl GatherScratch {
    /// An empty scratch (the capacity is ignored).
    pub fn with_capacity(_max_row_nnz: usize) -> Self {
        GatherScratch
    }
}

/// One stretch of a stored row as the lane kernel reads it — one run of
/// the blocked encoding: entry `i` sits at column `base + offs[i]` with
/// value `vals[i]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment<'a> {
    pub base: usize,
    pub offs: &'a [u16],
    pub vals: &'a [f64],
}

/// The four-lane gather of one row, given as its segments in order,
/// against the dense vector `y` — through the host-validated `body`.
///
/// # Safety
/// Every column the segments decode to (`base + offset`) must be
/// `< y.len()`. (The portable body would merely panic on a violation; the
/// AVX2 body's hardware gather would read out of bounds.)
#[inline]
pub(crate) unsafe fn gather_lanes<'a>(
    body: LaneBody,
    segments: impl Iterator<Item = Segment<'a>>,
    y: &[f64],
) -> f64 {
    match body {
        LaneBody::Portable => lanes_portable(segments, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `LaneBody::Avx2` token only exists if `simd_support`
        // observed AVX2 on this host; the column bound is the caller's.
        LaneBody::Avx2 => lanes_avx2(segments, y),
    }
}

/// How a segment of `len` entries splits when its first entry belongs to
/// lane `lane`: `..head` runs up to the next lane-0 position, `head..full`
/// is whole chunks of four, `full..` starts the next chunk.
#[inline(always)]
fn split(lane: usize, len: usize) -> (usize, usize) {
    let head = ((4 - lane) & 3).min(len);
    (head, head + ((len - head) & !3))
}

/// The products of a partial chunk — fewer than four entries, the first
/// belonging to lane `first_lane` — each in its lane, `+0.0` in the rest.
/// Both bodies add the whole vector: a lane starts at `+0.0` and a sum is
/// `-0.0` only when both terms are, so no lane ever holds the one value
/// (`-0.0`) that adding `+0.0` would change, and the untouched lanes keep
/// their bits.
#[inline(always)]
fn partial_chunk(first_lane: usize, y: &[f64], offs: &[u16], vals: &[f64]) -> [f64; 4] {
    let mut products = [0.0f64; 4];
    for (j, (&o, &v)) in offs.iter().zip(vals).enumerate() {
        products[first_lane + j] = v * y[o as usize];
    }
    products
}

/// The portable body. This exact operation order — lane `j` takes row
/// positions `≡ j (mod 4)` in order, lanes reduce `(a0 + a2) + (a1 + a3)`
/// — is the cross-body contract.
#[inline]
fn lanes_portable<'a>(segments: impl Iterator<Item = Segment<'a>>, y: &[f64]) -> f64 {
    // Four named accumulators (not an array) so they live in registers:
    // the point is breaking the FP-add latency chain, which an in-memory
    // accumulator would re-serialise through store-to-load forwarding.
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut lane = 0usize;
    for Segment { base, offs, vals } in segments {
        let y = &y[base..];
        let (head, full) = split(lane, offs.len());
        let [p0, p1, p2, p3] = partial_chunk(lane, y, &offs[..head], &vals[..head]);
        (a0, a1, a2, a3) = (a0 + p0, a1 + p1, a2 + p2, a3 + p3);
        for (o, v) in offs[head..full].chunks_exact(4).zip(vals[head..full].chunks_exact(4)) {
            a0 += v[0] * y[o[0] as usize];
            a1 += v[1] * y[o[1] as usize];
            a2 += v[2] * y[o[2] as usize];
            a3 += v[3] * y[o[3] as usize];
        }
        lane = (lane + head) & 3;
        let [p0, p1, p2, p3] = partial_chunk(lane, y, &offs[full..], &vals[full..]);
        (a0, a1, a2, a3) = (a0 + p0, a1 + p1, a2 + p2, a3 + p3);
        lane = (lane + offs.len() - head) & 3;
    }
    (a0 + a2) + (a1 + a3)
}

/// The AVX2 body: per full chunk, four deltas widened in one `vpmovzxwd`,
/// one unmasked `vgatherdpd` from `y`, `vmulpd` and `vaddpd` — no FMA, so
/// each lane rounds exactly like [`lanes_portable`] and the two are
/// bit-identical on every row.
///
/// # Safety
/// The host CPU must support AVX2, and every column the segments decode
/// to (`base + offset`) must be `< y.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lanes_avx2<'a>(segments: impl Iterator<Item = Segment<'a>>, y: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let mut acc = _mm256_setzero_pd();
    let mut lane = 0usize;
    for Segment { base, offs, vals } in segments {
        assert_eq!(offs.len(), vals.len(), "segment offsets and values must pair up");
        let y = &y[base..];
        let (head, full) = split(lane, offs.len());
        let products = partial_chunk(lane, y, &offs[..head], &vals[..head]);
        acc = _mm256_add_pd(acc, _mm256_loadu_pd(products.as_ptr()));
        let mut i = head;
        while i < full {
            // SAFETY: `i + 4 <= full <= offs.len() == vals.len()` (asserted
            // above), so both four-wide loads stay inside their slices.
            // The gather sign-extends its 32-bit lanes; the `u16` deltas
            // are zero-extended into them, so no lane is negative, and
            // every `y[offset]` is an in-bounds read by the caller's
            // guarantee.
            let idx = _mm_cvtepu16_epi32(_mm_loadl_epi64(offs.as_ptr().add(i).cast()));
            let x = _mm256_i32gather_pd::<8>(y.as_ptr(), idx);
            let v = _mm256_loadu_pd(vals.as_ptr().add(i));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(v, x));
            i += 4;
        }
        lane = (lane + head) & 3;
        let products = partial_chunk(lane, y, &offs[full..], &vals[full..]);
        acc = _mm256_add_pd(acc, _mm256_loadu_pd(products.as_ptr()));
        lane = (lane + offs.len() - head) & 3;
    }
    // (a0 + a2) + (a1 + a3): fold the high half onto the low, then across.
    let pairs = _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd::<1>(acc));
    _mm_cvtsd_f64(_mm_add_sd(pairs, _mm_unpackhi_pd(pairs, pairs)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CscMatrix, CsrMatrix, Index, ProximityStore, RowLayout, ScatteredColumn};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_csr(nrows: usize, ncols: usize, density: f64, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trips = Vec::new();
        for r in 0..nrows as Index {
            for c in 0..ncols as Index {
                if rng.gen_bool(density) {
                    trips.push((r, c, rng.gen_range(-2.0..2.0)));
                }
            }
        }
        CsrMatrix::from_csc(&CscMatrix::from_triplets(nrows, ncols, &trips).unwrap())
    }

    fn random_sparse_vec(n: usize, density: f64, seed: u64) -> (Vec<Index>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut idx, mut val) = (Vec::new(), Vec::new());
        for i in 0..n as Index {
            if rng.gen_bool(density) {
                idx.push(i);
                val.push(rng.gen_range(-1.0..1.0));
            }
        }
        (idx, val)
    }

    fn store_of(m: CsrMatrix) -> ProximityStore {
        ProximityStore::from_csr(m, RowLayout::Blocked).unwrap()
    }

    fn gather(
        store: &ProximityStore,
        kernel: ResolvedKernel,
        r: Index,
        buf: &ScatteredColumn,
    ) -> f64 {
        store.row_gather(kernel, r, buf, &mut GatherScratch, &mut GatherCounters::default())
    }

    /// Every kernel the host can run, with the reference first.
    fn host_kernels() -> Vec<ResolvedKernel> {
        std::iter::once(ResolvedKernel::reference()).chain(ResolvedKernel::host_bodies()).collect()
    }

    #[test]
    fn kernels_agree_within_tolerance_and_unrolled_matches_simd_bitwise() {
        let scalar = ResolvedKernel::reference();
        let bodies = ResolvedKernel::host_bodies();
        let portable = bodies[0];
        for seed in 0..12u64 {
            // Row lengths sweep every tail residue (len % 4 ∈ {0,1,2,3})
            // because density is random per row.
            let store = store_of(random_csr(24, 53, 0.35, seed));
            let (idx, val) = random_sparse_vec(53, 0.4, seed + 99);
            let mut buf = ScatteredColumn::new(53);
            buf.load(&idx, &val);
            for r in 0..24 as Index {
                let reference = gather(&store, scalar, r, &buf);
                assert_eq!(
                    reference.to_bits(),
                    store.row_dot_sparse(r, &idx, &val).to_bits(),
                    "seed {seed} row {r}: scalar must equal the merge join bit for bit"
                );
                let unrolled = gather(&store, portable, r, &buf);
                assert!(
                    (reference - unrolled).abs() <= 1e-12 * reference.abs().max(1.0),
                    "seed {seed} row {r}: scalar {reference} vs unrolled {unrolled}"
                );
                if let Some(&simd) = bodies.get(1) {
                    let vec = gather(&store, simd, r, &buf);
                    assert_eq!(
                        unrolled.to_bits(),
                        vec.to_bits(),
                        "seed {seed} row {r}: unrolled {unrolled} vs simd {vec} not bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn every_tail_length_is_exact() {
        // Deterministic rows of length 0..=9 against a fully-loaded buffer:
        // every kernel must equal the exact (rational) dot product.
        for len in 0..10usize {
            let trips: Vec<(Index, Index, f64)> =
                (0..len).map(|c| (0, c as Index, (c + 1) as f64 * 0.25)).collect();
            let store =
                store_of(CsrMatrix::from_csc(&CscMatrix::from_triplets(1, 10, &trips).unwrap()));
            let idx: Vec<Index> = (0..10).collect();
            let val: Vec<f64> = (0..10).map(|i| (i as f64) - 4.0).collect();
            let mut buf = ScatteredColumn::new(10);
            buf.load(&idx, &val);
            let exact: f64 =
                (0..len).map(|c| (c + 1) as f64 * 0.25 * ((c as f64) - 4.0)).sum();
            for kernel in host_kernels() {
                let got = gather(&store, kernel, 0, &buf);
                assert!(
                    (got - exact).abs() < 1e-12,
                    "len {len} kernel {}: {got} vs {exact}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn unmatched_positions_contribute_nothing() {
        // A row whose columns are entirely outside the loaded vector: all
        // kernels must return exactly 0.0 (every lane sums `value × 0.0`),
        // even with negative row values.
        let trips: Vec<(Index, Index, f64)> =
            (0..7).map(|c| (0, c as Index, -1.5 * (c + 1) as f64)).collect();
        let store =
            store_of(CsrMatrix::from_csc(&CscMatrix::from_triplets(1, 12, &trips).unwrap()));
        let mut buf = ScatteredColumn::new(12);
        buf.load(&[9, 11], &[3.0, -4.0]);
        for kernel in host_kernels() {
            let got = gather(&store, kernel, 0, &buf);
            assert_eq!(got.to_bits(), 0, "kernel {}", kernel.name());
        }
    }

    #[test]
    fn kernels_see_only_the_last_load() {
        let store = store_of(random_csr(8, 16, 0.5, 5));
        let mut buf = ScatteredColumn::new(16);
        let all: Vec<Index> = (0..16).collect();
        buf.load(&all, &[1.0; 16]);
        let (idx, val) = random_sparse_vec(16, 0.3, 6);
        buf.load(&idx, &val);
        for kernel in host_kernels() {
            for r in 0..8 as Index {
                let want = store.row_dot_sparse(r, &idx, &val);
                let got = gather(&store, kernel, r, &buf);
                assert!(
                    (got - want).abs() < 1e-12,
                    "kernel {} row {r}: {got} vs {want} after a reload",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn default_and_host_bodies_follow_the_host() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        let names: Vec<&str> = ResolvedKernel::host_bodies().into_iter().map(|k| k.name()).collect();
        let want: &[&str] = if avx2 { &["unrolled", "avx2"] } else { &["unrolled"] };
        assert_eq!(names, want);
        assert_eq!(ResolvedKernel::default().name(), if avx2 { "avx2" } else { "unrolled" });
        assert_eq!(ResolvedKernel::reference().name(), "scalar");
    }
}
