//! The blocked row encoding of the stored `U⁻¹`: the format of a
//! [`ProximityStore`]'s rows and the algorithms its constructors run.
//!
//! PR 3's measurements showed the k=50 hot path at scale 16 is DRAM-bound:
//! once `U⁻¹` outgrows cache, every gather streams the row's column
//! indices (4 bytes/nnz in flat CSR) plus values from memory, and the
//! kernels wait on bandwidth, not arithmetic. The exactness argument
//! (Lemmas 1/2 operate on the *values* of sparse `L⁻¹`/`U⁻¹` rows) does
//! not care how the indices are encoded — so the store shrinks them.
//!
//! Column indices are split into **runs**: all consecutive nonzeros of a
//! row whose columns share the same 2¹⁶-wide aligned block are stored as
//! one run header (`u32` block anchor + `u32` end offset) plus one `u16`
//! **local delta** per nonzero (`column = anchor + delta`). Index traffic
//! per nonzero drops from 4 bytes to 2 bytes + 8·runs/nnz amortised —
//! for the fill-dominated inverse rows this is a ≥ 25 % cut in index
//! bytes (~50 % when rows span few blocks, which the reordering makes the
//! common case; a graph under 65 536 nodes needs exactly one run per
//! row). Values are the *same* `f64` array in the *same* order as the CSR
//! matrix encoded, so every kernel that walks a row in position order
//! produces the sums it would over the CSR row, bit for bit.
//!
//! The decoding contract the gather kernels rely on: iterating a row's
//! runs in order and, within a run, its deltas in order yields exactly
//! the CSR column sequence (strictly ascending). A row decodes as its
//! per-run `Segment`s in order; the four-lane gather ([`crate::kernel`])
//! reads the `u16` deltas in place and carries its lanes across run
//! boundaries, so it performs the operations the CSR row would take, in
//! the same order — under every kernel, not just the scalar one.
//!
//! The type, its private arrays and everything that reads them live in
//! [`crate::store`]; this file hands its constructors arrays. One encoder
//! writes all of them: [`ProximityStore::from_csr`] runs `encode_row`
//! over every row, and [`ProximityStore::splice_columns`] over just the
//! rows an updated column touches, copying the rest — so a spliced store
//! is array for array the store a full re-encode gives. The load path,
//! [`ProximityStore::from_raw_parts`], re-validates every invariant
//! instead.

use crate::{ColumnUpdate, CsrMatrix, Index, ProximityStore, Result, SparseError};
use kdash_graph::csr::{check_pointers, PointerFault};
use std::ops::RangeInclusive;

/// Width of one column block: deltas are `u16`, so a run covers columns
/// `[anchor, anchor + 2^16)` with `anchor` a multiple of `2^16`.
pub const BLOCK_COLS: u32 = 1 << 16;

/// The encoding's arrays `(row_ptr, run_ptr, run_base, run_end, deltas,
/// values)`, in the order [`ProximityStore::raw`] lends them out.
pub(crate) type EncodedRows = (Vec<usize>, Vec<usize>, Vec<u32>, Vec<u32>, Vec<u16>, Vec<f64>);

/// The same arrays, borrowed: what [`ProximityStore::raw`] returns.
pub(crate) type RowSlices<'a> =
    (&'a [usize], &'a [usize], &'a [u32], &'a [u32], &'a [u16], &'a [f64]);

/// Encodes a CSR matrix's rows. Values move over untouched (same array
/// order), only the index encoding changes. Fails when the matrix is too
/// large for the run offsets (`nnz ≥ 2^32`).
pub(crate) fn encode(csr: CsrMatrix) -> Result<EncodedRows> {
    if csr.nnz() > u32::MAX as usize {
        return Err(SparseError::Malformed(format!(
            "blocked layout limited to < 2^32 stored entries, got {}",
            csr.nnz()
        )));
    }
    let nrows = csr.nrows();
    let (row_ptr, col_idx, values) = csr.into_raw_parts();
    let mut run_ptr = Vec::with_capacity(nrows + 1);
    let mut run_base = Vec::new();
    let mut run_end = Vec::new();
    let mut deltas = Vec::with_capacity(col_idx.len());
    run_ptr.push(0);
    for r in 0..nrows {
        let span = row_ptr[r]..row_ptr[r + 1];
        encode_row(&col_idx[span.clone()], span.start, &mut run_base, &mut run_end, &mut deltas);
        run_ptr.push(run_base.len());
    }
    Ok((row_ptr, run_ptr, run_base, run_end, deltas, values))
}

/// Checks raw arrays against every structural invariant of the encoding:
/// rejects anything that would make a decode read out of bounds or
/// produce non-ascending columns, and any non-finite value.
pub(crate) fn validate(nrows: usize, ncols: usize, rows: RowSlices<'_>) -> Result<()> {
    let (row_ptr, run_ptr, run_base, run_end, deltas, values) = rows;
    let malformed = |msg: String| Err(SparseError::Malformed(msg));
    if deltas.len() != values.len() {
        return malformed("delta/value length mismatch".into());
    }
    for (ptr, len) in [(row_ptr, deltas.len()), (run_ptr, run_base.len())] {
        if let Err(fault) = check_pointers(ptr, nrows, len) {
            return malformed(match fault {
                PointerFault::Length => "pointer array length mismatch".into(),
                PointerFault::Ends => "pointer arrays do not cover the payload".into(),
                PointerFault::Decreasing(r) => format!("row {r}: decreasing pointer"),
            });
        }
    }
    if run_base.len() != run_end.len() {
        return malformed("pointer arrays do not cover the payload".into());
    }
    if deltas.len() > u32::MAX as usize {
        return malformed("too many entries for u32 run offsets".into());
    }
    for r in 0..nrows {
        let (has_nnz, has_runs) = (row_ptr[r] < row_ptr[r + 1], run_ptr[r] < run_ptr[r + 1]);
        if has_nnz != has_runs {
            return malformed(format!("row {r}: runs and nonzeros disagree"));
        }
        let mut start = row_ptr[r];
        let mut prev_col: Option<u32> = None;
        for k in run_ptr[r]..run_ptr[r + 1] {
            let base = run_base[k];
            let end = run_end[k] as usize;
            if base % BLOCK_COLS != 0 {
                return malformed(format!("row {r}: unaligned run anchor {base}"));
            }
            if end <= start || end > row_ptr[r + 1] {
                return malformed(format!("row {r}: run end {end} outside row"));
            }
            for &d in &deltas[start..end] {
                let c = base + d as u32;
                if c as usize >= ncols {
                    return malformed(format!("row {r}: column {c} out of bounds"));
                }
                if prev_col.is_some_and(|p| p >= c) {
                    return malformed(format!("row {r}: columns not ascending at {c}"));
                }
                prev_col = Some(c);
            }
            start = end;
        }
        if start != row_ptr[r + 1] {
            return malformed(format!("row {r}: runs do not cover the row"));
        }
    }
    crate::csc::check_finite(row_ptr, values, |r, slot| {
        let runs = run_ptr[r]..run_ptr[r + 1];
        let k = runs.start + run_end[runs].partition_point(|&end| end as usize <= slot);
        (r, (run_base[k] + deltas[slot] as u32) as usize)
    })
}

/// The array work of [`ProximityStore::splice_columns`]: `store`'s rows
/// with whole columns replaced by `updates` (validated, non-empty, their
/// columns spanning `dirty`), and how many rows were re-encoded. A row is
/// re-encoded iff it holds an entry in an updated column before or after
/// the splice: its surviving entries are merged by column with its new
/// ones and run through the per-row encoder [`encode`] runs. Every other
/// row's deltas, values and run headers are copied verbatim with only the
/// global run offsets shifted — so the result is array-for-array what
/// encoding the fully spliced CSR matrix gives, for encoding work
/// proportional to the touched rows. A row's first and last column rule
/// most rows out without decoding them.
pub(crate) fn splice_rows(
    store: &ProximityStore,
    updates: &[ColumnUpdate],
    dirty: RangeInclusive<Index>,
) -> Result<(EncodedRows, usize)> {
    let nrows = store.nrows();
    let (old_row_ptr, old_run_ptr, old_run_base, old_run_end, old_deltas, old_values) = store.raw();
    let mut is_dirty = vec![false; store.ncols()];
    for u in updates {
        is_dirty[u.col as usize] = true;
    }
    // The new entries as `(row, col, value)`, transposed: the sort is
    // stable, so each row's stay ascending by column, as the updates are.
    let mut added: Vec<(Index, Index, f64)> = updates
        .iter()
        .flat_map(|u| u.rows.iter().zip(&u.vals).map(move |(&r, &v)| (r, u.col, v)))
        .collect();
    added.sort_by_key(|e| e.0);
    // Run offsets are `u32`. (An upper bound: what the updated columns
    // lose is not subtracted.)
    if store.nnz() + added.len() > u32::MAX as usize {
        return Err(SparseError::Malformed(format!(
            "blocked layout limited to < 2^32 stored entries, got up to {}",
            store.nnz() + added.len()
        )));
    }
    let mut added = added.as_slice();

    let mut row_ptr = Vec::with_capacity(nrows + 1);
    row_ptr.push(0usize);
    let mut run_ptr = Vec::with_capacity(nrows + 1);
    run_ptr.push(0usize);
    let mut run_base: Vec<u32> = Vec::with_capacity(old_run_base.len());
    let mut run_end: Vec<u32> = Vec::with_capacity(old_run_end.len());
    let mut deltas: Vec<u16> = Vec::with_capacity(store.nnz() + added.len());
    let mut values: Vec<f64> = Vec::with_capacity(store.nnz() + added.len());
    let mut reencoded = 0;
    let (mut old_cols, mut merged, mut cols) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..nrows {
        let gains = added.iter().take_while(|e| e.0 as usize == r).count();
        let gained = &added[..gains];
        added = &added[gains..];
        let stat = store.row_stat(r as Index);
        let in_span = stat.nnz > 0 && stat.last >= *dirty.start() && stat.first <= *dirty.end();
        if in_span || !gained.is_empty() {
            store.decode_row_into(r as Index, &mut old_cols);
        }
        if gained.is_empty() && !(in_span && old_cols.iter().any(|&c| is_dirty[c as usize])) {
            let span = old_row_ptr[r]..old_row_ptr[r + 1];
            let shift = deltas.len() as isize - span.start as isize;
            deltas.extend_from_slice(&old_deltas[span.clone()]);
            values.extend_from_slice(&old_values[span]);
            for k in old_run_ptr[r]..old_run_ptr[r + 1] {
                run_base.push(old_run_base[k]);
                run_end.push((old_run_end[k] as isize + shift) as u32);
            }
        } else {
            // Survivors sit in clean columns, gains in updated ones:
            // two column-disjoint ascending runs, which the (stable,
            // run-merging) sort joins in one pass.
            merged.clear();
            let survivors = old_cols.iter().zip(store.row_values(r as Index));
            merged.extend(survivors.filter(|e| !is_dirty[*e.0 as usize]).map(|(&c, &v)| (c, v)));
            merged.extend(gained.iter().map(|&(_, c, v)| (c, v)));
            merged.sort_by_key(|e| e.0);
            cols.clear();
            cols.extend(merged.iter().map(|e| e.0));
            encode_row(&cols, deltas.len(), &mut run_base, &mut run_end, &mut deltas);
            values.extend(merged.iter().map(|e| e.1));
            reencoded += 1;
        }
        row_ptr.push(deltas.len());
        run_ptr.push(run_base.len());
    }
    Ok(((row_ptr, run_ptr, run_base, run_end, deltas, values), reencoded))
}

/// Encodes one row's sorted columns into run headers + deltas, with the
/// row's payload starting at global offset `start`. This is **the** row
/// encoder: [`encode`] runs it for every row and [`splice_rows`] for the
/// touched rows only, which is why a spliced store is array-for-array
/// identical to a from-scratch re-encode.
#[inline]
fn encode_row(
    cols: &[Index],
    start: usize,
    run_base: &mut Vec<u32>,
    run_end: &mut Vec<u32>,
    deltas: &mut Vec<u16>,
) {
    let mut open: Option<u32> = None; // the block of the run being written
    for (off, &c) in cols.iter().enumerate() {
        let base = c & !(BLOCK_COLS - 1);
        if open != Some(base) {
            // A new block: close the open run where this one starts.
            if open.is_some() {
                run_end.push((start + off) as u32);
            }
            run_base.push(base);
            open = Some(base);
        }
        deltas.push((c - base) as u16);
    }
    if open.is_some() {
        run_end.push((start + cols.len()) as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CscMatrix, RowLayout, RowStat};
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

    fn store_of(csr: CsrMatrix) -> ProximityStore {
        ProximityStore::from_csr(csr, RowLayout::Blocked).unwrap()
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

    #[test]
    fn roundtrip_is_lossless() {
        for seed in 0..8u64 {
            let csr = random_csr(20, 35, 0.3, seed);
            let blocked = store_of(csr.clone());
            assert_eq!(blocked.nnz(), csr.nnz());
            let back = blocked.to_csr();
            assert_eq!(back, csr, "seed {seed}");
        }
    }

    #[test]
    fn runs_split_on_block_boundaries() {
        // Columns straddling the 65536 boundary must land in two runs.
        let trips = vec![
            (0, 10, 1.0),
            (0, 65535, 2.0),
            (0, 65536, 3.0),
            (0, 200_000, 4.0),
        ];
        let csr =
            CsrMatrix::from_csc(&CscMatrix::from_triplets(1, 300_000, &trips).unwrap());
        let blocked = store_of(csr.clone());
        assert_eq!(blocked.row_runs(0), 3, "blocks 0, 1 and 3");
        assert_eq!(blocked.row_stat(0), RowStat { nnz: 4, first: 10, last: 200_000 });
        assert_eq!(blocked.to_csr(), csr);
    }

    #[test]
    fn scalar_gather_bit_identical_to_flat() {
        use crate::ScatteredColumn;
        for seed in 0..10u64 {
            let csr = random_csr(25, 40, 0.25, seed);
            let blocked = store_of(csr.clone());
            let (idx, val) = random_sparse_vec(40, 0.4, seed + 50);
            let mut buf = ScatteredColumn::new(40);
            buf.load(&idx, &val);
            for r in 0..25 as Index {
                let flat = csr.row_dot_dense(r, buf.as_slice());
                let got = blocked.row_dot_reference(r, buf.as_slice());
                assert_eq!(flat.to_bits(), got.to_bits(), "seed {seed} row {r}");
                let join = blocked.row_dot_sparse(r, &idx, &val);
                assert_eq!(join.to_bits(), got.to_bits(), "seed {seed} row {r}: vs merge join");
            }
        }
    }

    #[test]
    fn merge_join_and_dense_bit_identical_to_flat() {
        for seed in 0..6u64 {
            let csr = random_csr(18, 30, 0.3, seed);
            let blocked = store_of(csr.clone());
            let (idx, val) = random_sparse_vec(30, 0.35, seed + 7);
            let dense: Vec<f64> = (0..30).map(|i| (i as f64) * 0.5 - 7.0).collect();
            for r in 0..18 as Index {
                assert_eq!(
                    csr.row_dot_sparse(r, &idx, &val).to_bits(),
                    blocked.row_dot_sparse(r, &idx, &val).to_bits()
                );
                assert_eq!(
                    csr.row_dot_dense(r, &dense).to_bits(),
                    blocked.row_dot_reference(r, &dense).to_bits()
                );
            }
            assert_eq!(csr.matvec(&dense), blocked.matvec(&dense));
        }
    }

    #[test]
    fn decode_row_matches_flat_columns() {
        let csr = random_csr(12, 50, 0.4, 3);
        let blocked = store_of(csr.clone());
        let mut scratch = Vec::new();
        for r in 0..12 as Index {
            blocked.decode_row_into(r, &mut scratch);
            let (cols, _) = csr.row(r);
            assert_eq!(scratch.as_slice(), cols, "row {r}");
            assert_eq!(blocked.row_values(r), csr.row(r).1);
        }
    }

    #[test]
    fn index_bytes_shrink_for_single_block_matrices() {
        // Any matrix under 65 536 columns has one run per non-empty row:
        // 2·nnz + 8·rows vs the flat 4·nnz.
        let csr = random_csr(30, 60, 0.5, 9);
        let nnz = csr.nnz();
        let blocked = store_of(csr);
        assert!(blocked.num_runs() <= 30);
        assert_eq!(blocked.index_bytes(), 2 * nnz + 8 * blocked.num_runs());
        assert!(blocked.index_bytes() < 4 * nnz, "blocked must beat flat here");
    }

    #[test]
    fn from_raw_parts_validates() {
        let csr = random_csr(6, 12, 0.5, 4);
        let blocked = store_of(csr);
        let (row_ptr, run_ptr, run_base, run_end, deltas, values) = {
            let (a, b, c, d, e, f) = blocked.raw();
            (a.to_vec(), b.to_vec(), c.to_vec(), d.to_vec(), e.to_vec(), f.to_vec())
        };
        // The pristine arrays reconstruct.
        assert!(ProximityStore::from_raw_parts(
            6,
            12,
            row_ptr.clone(),
            run_ptr.clone(),
            run_base.clone(),
            run_end.clone(),
            deltas.clone(),
            values.clone()
        )
        .is_ok());
        // An unaligned anchor is rejected.
        let mut bad_base = run_base.clone();
        bad_base[0] = 3;
        assert!(ProximityStore::from_raw_parts(
            6,
            12,
            row_ptr.clone(),
            run_ptr.clone(),
            bad_base,
            run_end.clone(),
            deltas.clone(),
            values.clone()
        )
        .is_err());
        // A delta pushing a column out of bounds is rejected.
        let mut bad_delta = deltas.clone();
        *bad_delta.last_mut().unwrap() = 50; // ncols is 12
        assert!(ProximityStore::from_raw_parts(
            6,
            12,
            row_ptr.clone(),
            run_ptr.clone(),
            run_base.clone(),
            run_end.clone(),
            bad_delta,
            values.clone()
        )
        .is_err());
        // Non-ascending columns are rejected.
        if deltas.len() >= 2 {
            let mut swapped = deltas.clone();
            swapped.swap(0, 1);
            assert!(ProximityStore::from_raw_parts(
                6, 12, row_ptr, run_ptr, run_base, run_end, swapped, values
            )
            .is_err());
        }
    }

    #[test]
    fn empty_rows_and_empty_matrix() {
        let csr = CsrMatrix::from_raw_parts(3, 5, vec![0, 0, 2, 2], vec![1, 4], vec![1.0, 2.0])
            .unwrap();
        let blocked = store_of(csr.clone());
        assert_eq!(blocked.row_stat(0), RowStat::default());
        assert_eq!(blocked.row_stat(2), RowStat::default());
        assert_eq!(blocked.row_stat(1), RowStat { nnz: 2, first: 1, last: 4 });
        assert_eq!(blocked.to_csr(), csr);
        blocked.prefetch_row(0); // must not fault on empty rows
        blocked.prefetch_row(1);
    }
}
