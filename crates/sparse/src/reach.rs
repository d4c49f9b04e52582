//! Gilbert–Peierls reach analysis for incremental inverse maintenance.
//!
//! Column `q` of a triangular inverse `T⁻¹` is the solution of
//! `T x = e_q`, and the Gilbert–Peierls symbolic phase says its nonzero
//! pattern is exactly the set of nodes *reachable* from `q` in the
//! directed pattern graph of `T` (an edge `j → i` for every stored
//! off-diagonal `T_ij`). The numeric phase reads only the columns of `T`
//! in that reach. Two consequences drive the dynamic-update engine:
//!
//! 1. If none of the columns reachable from `q` changed, the solve for
//!    `q` reads only bit-identical inputs — and because reachability
//!    itself is determined step by step by the patterns of the columns
//!    traversed (all unchanged), the *reach* is also identical. Column
//!    `q` of `T⁻¹` is therefore **provably bit-identical** to a
//!    from-scratch inversion.
//! 2. Conversely, the set of inverse columns that *may* change when a
//!    column set `S` of `T` changes is `{ q : Reach_T(q) ∩ S ≠ ∅ }` —
//!    the set of nodes that reach `S`, i.e. the forward-reachable set of
//!    `S` in the **reverse** pattern graph (edge `i → j` for every
//!    stored off-diagonal `T_ij`).
//!
//! [`inverse_dirty_columns`] computes set (2) with one `O(nnz)` pattern
//! transpose plus a BFS that touches only the closure — the exact dirty
//! column set the re-solve stage has to pay for, and nothing else.
//! Everything outside it is untouched, which is the freshness guarantee
//! `tests/dynamic_equivalence.rs` pins.
//!
//! The same machinery drives the *factor* side: [`refactor_candidates`]
//! runs the pattern-only taint closure of the incremental
//! refactorisation ([`crate::refactor_columns`], see `lu`'s module docs
//! for the exactness argument) — the columns of the factorisation that
//! *can* change when the given `W` columns change, assuming every
//! candidate's `L` pattern changes. It is a provable superset of the
//! exact (value-aware) recompute set, cheap enough to serve as a
//! dry-run predictor.

use crate::{CscMatrix, Index};

/// Row-pattern adjacency of `t` as flat CSR-ish arrays: for node `i`,
/// `cols[ptr[i]..ptr[i + 1]]` lists the columns `j ≠ i` with a stored
/// off-diagonal `t_ij` — the reverse of the Gilbert–Peierls pattern
/// graph. One counting transpose over the pattern; values untouched.
pub(crate) fn pattern_row_adjacency(t: &CscMatrix) -> (Vec<usize>, Vec<Index>) {
    let n = t.ncols();
    let (col_ptr, row_idx, _) = t.raw();
    let mut ptr = vec![0usize; n + 1];
    for (j, window) in col_ptr.windows(2).enumerate() {
        for &i in &row_idx[window[0]..window[1]] {
            if i as usize != j {
                ptr[i as usize + 1] += 1;
            }
        }
    }
    for i in 0..n {
        ptr[i + 1] += ptr[i];
    }
    let mut cols = vec![0 as Index; ptr[n]];
    let mut cursor = ptr.clone();
    for (j, window) in col_ptr.windows(2).enumerate() {
        for &i in &row_idx[window[0]..window[1]] {
            if i as usize != j {
                cols[cursor[i as usize]] = j as Index;
                cursor[i as usize] += 1;
            }
        }
    }
    (ptr, cols)
}

/// The columns of `T⁻¹` whose Gilbert–Peierls reach intersects `dirty` —
/// the exact set of inverse columns a change confined to the `dirty`
/// columns of `T` can affect. Returned sorted ascending; always a
/// superset of `dirty` itself (every in-bounds dirty column trivially
/// reaches itself). Out-of-bounds dirty indices are ignored. Works for
/// either triangle: the traversal follows stored off-diagonal entries,
/// and a valid triangular matrix only stores entries on its own side.
pub fn inverse_dirty_columns(t: &CscMatrix, dirty: &[Index]) -> Vec<Index> {
    let n = t.ncols();
    if n == 0 || dirty.is_empty() {
        return Vec::new();
    }
    // Row-pattern adjacency (the reverse graph): for node `i`, the
    // columns `j` with a stored off-diagonal `T_ij`.
    let (ptr, cols) = pattern_row_adjacency(t);

    // BFS from the dirty seed over the reverse graph.
    let mut visited = vec![false; n];
    let mut queue: Vec<Index> = Vec::new();
    for &s in dirty {
        if (s as usize) < n && !visited[s as usize] {
            visited[s as usize] = true;
            queue.push(s);
        }
    }
    let mut head = 0usize;
    while head < queue.len() {
        let v = queue[head] as usize;
        head += 1;
        for &j in &cols[ptr[v]..ptr[v + 1]] {
            if !visited[j as usize] {
                visited[j as usize] = true;
                queue.push(j);
            }
        }
    }
    queue.sort_unstable();
    queue
}

/// The factor columns that *can* be recomputed when the `dirty_w`
/// columns of `W` change, given the old factor `l` (strictly-lower part)
/// and the new matrix `w_new`: the pattern-only taint closure of the
/// incremental refactorisation. Ascending over the columns, column `j`
/// is a candidate iff its `W` column is dirty or `pattern(w_new(:, j))`
/// holds a tainted node, and every candidate immediately taints its
/// ancestors-or-self in the old `L`'s pattern DAG (as if its `L` part
/// were guaranteed to change). Because the exact algorithm only taints
/// from columns whose `L` part *did* change — a subset of the
/// candidates, by induction — this closure is always a **superset** of
/// the exact recompute set, which makes it honest as the `--dry-run`
/// predictor. Returned sorted ascending; out-of-bounds dirty indices are
/// ignored.
pub fn refactor_candidates(l: &CscMatrix, w_new: &CscMatrix, dirty_w: &[Index]) -> Vec<Index> {
    let n = l.ncols().min(w_new.ncols());
    if n == 0 || dirty_w.is_empty() {
        return Vec::new();
    }
    let mut dirty = vec![false; n];
    let mut any = false;
    for &d in dirty_w {
        if (d as usize) < n {
            dirty[d as usize] = true;
            any = true;
        }
    }
    if !any {
        return Vec::new();
    }
    let (ptr, cols) = pattern_row_adjacency(l);
    let mut taint = vec![false; n];
    let mut bfs: Vec<Index> = Vec::new();
    let mut out: Vec<Index> = Vec::new();
    for j in 0..n {
        let seeds = w_new.col(j as Index).0;
        let candidate =
            dirty[j] || seeds.iter().any(|&s| (s as usize) < n && taint[s as usize]);
        if !candidate {
            continue;
        }
        out.push(j as Index);
        if !taint[j] {
            taint[j] = true;
            bfs.push(j as Index);
            while let Some(v) = bfs.pop() {
                for &k in &cols[ptr[v as usize]..ptr[v as usize + 1]] {
                    if !taint[k as usize] {
                        taint[k as usize] = true;
                        bfs.push(k);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triangle;

    fn exact(t: &CscMatrix, upper: bool) -> CscMatrix {
        let triangle = if upper { Triangle::Upper } else { Triangle::Lower };
        crate::inverse::tests::exact(t, triangle, 1).unwrap()
    }

    #[test]
    fn lower_chain_reach_runs_upward() {
        // L (unit diag implicit): subdiagonal chain 0→1→2→3. Column q of
        // L⁻¹ reaches everything ≥ q, so dirtying column 2 dirties the
        // inverse columns {0, 1, 2} (they all reach 2), not column 3.
        let l = CscMatrix::from_triplets(
            4,
            4,
            &[(1, 0, -1.0), (2, 1, -1.0), (3, 2, -1.0)],
        )
        .unwrap();
        assert_eq!(inverse_dirty_columns(&l, &[2]), vec![0, 1, 2]);
        assert_eq!(inverse_dirty_columns(&l, &[0]), vec![0]);
        assert_eq!(inverse_dirty_columns(&l, &[3]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn upper_chain_reach_runs_downward() {
        // U: superdiagonal chain. Column q of U⁻¹ reaches everything ≤ q.
        let u = CscMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.0),
                (1, 1, 1.0),
                (2, 2, 1.0),
                (3, 3, 1.0),
                (0, 1, 0.5),
                (1, 2, 0.5),
                (2, 3, 0.5),
            ],
        )
        .unwrap();
        assert_eq!(inverse_dirty_columns(&u, &[1]), vec![1, 2, 3]);
        assert_eq!(inverse_dirty_columns(&u, &[3]), vec![3]);
    }

    #[test]
    fn disconnected_blocks_do_not_leak() {
        // Two independent 2-blocks: dirt in one never reaches the other.
        let l = CscMatrix::from_triplets(4, 4, &[(1, 0, -0.5), (3, 2, -0.5)]).unwrap();
        assert_eq!(inverse_dirty_columns(&l, &[1]), vec![0, 1]);
        assert_eq!(inverse_dirty_columns(&l, &[2]), vec![2]);
    }

    #[test]
    fn empty_and_out_of_bounds_inputs() {
        let l = CscMatrix::from_triplets(3, 3, &[(1, 0, -1.0)]).unwrap();
        assert!(inverse_dirty_columns(&l, &[]).is_empty());
        assert_eq!(inverse_dirty_columns(&l, &[7]), Vec::<Index>::new());
        let empty = CscMatrix::zeros(0, 0);
        assert!(inverse_dirty_columns(&empty, &[0]).is_empty());
    }

    #[test]
    fn refactor_candidates_cover_the_dirty_columns_and_respect_components() {
        use crate::{refactor_columns, sparse_lu, ColumnUpdate};
        // Two independent 3-blocks in W: dirt in one block never makes
        // candidates in the other.
        let mut trips: Vec<(Index, Index, f64)> = Vec::new();
        for base in [0u32, 3] {
            for j in 0..3u32 {
                trips.push((base + j, base + j, 4.0));
                trips.push((base + (j + 1) % 3, base + j, -1.0));
            }
        }
        let w = CscMatrix::from_triplets(6, 6, &trips).unwrap();
        let f = sparse_lu(&w).unwrap();
        let cand = refactor_candidates(&f.l, &w, &[4]);
        assert!(cand.contains(&4));
        assert!(cand.iter().all(|&c| c >= 3), "block {{0,1,2}} must stay clean: {cand:?}");
        // Superset contract: the exact recompute set of a real edit is
        // contained in the candidates of the same dirty set.
        let mut vals = w.col(4).1.to_vec();
        vals[0] += 1.5;
        let w2 = w
            .splice_columns(&[ColumnUpdate { col: 4, rows: w.col(4).0.to_vec(), vals }])
            .unwrap();
        let cand2 = refactor_candidates(&f.l, &w2, &[4]);
        let (_, report) = refactor_columns(&f, &w2, &[4]).unwrap();
        for &c in &report.changed_l_columns {
            assert!(cand2.contains(&c), "changed column {c} missing from candidates {cand2:?}");
        }
        assert!(report.recomputed_columns <= cand2.len());
        // Degenerate inputs mirror inverse_dirty_columns.
        assert!(refactor_candidates(&f.l, &w, &[]).is_empty());
        assert!(refactor_candidates(&f.l, &w, &[99]).is_empty());
    }

    /// The exactness contract on random triangles: a column is in the
    /// computed dirty set **iff** its Gilbert–Peierls solve pattern
    /// intersects the dirty seed — verified against the actual solve
    /// patterns.
    #[test]
    fn dirty_set_matches_solve_patterns() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for trial in 0..20 {
            let n = rng.gen_range(3..28usize);
            let upper = trial % 2 == 0;
            let mut trips: Vec<(Index, Index, f64)> = Vec::new();
            for j in 0..n as Index {
                for i in 0..n as Index {
                    let strict = if upper { i < j } else { i > j };
                    if strict && rng.gen_bool(0.25) {
                        trips.push((i, j, rng.gen_range(0.1..1.0)));
                    }
                }
            }
            if upper {
                for j in 0..n as Index {
                    trips.push((j, j, 2.0));
                }
            }
            let t = CscMatrix::from_triplets(n, n, &trips).unwrap();
            let seed_col = rng.gen_range(0..n) as Index;
            let dirty = inverse_dirty_columns(&t, &[seed_col]);
            // Independent oracle: the forward Gilbert–Peierls reach of
            // each column, computed with a plain BFS over the *stored*
            // pattern (edge j → i for every off-diagonal T_ij).
            let forward_reach = |q: Index| -> Vec<Index> {
                let mut seen = vec![false; n];
                let mut stack = vec![q];
                seen[q as usize] = true;
                while let Some(j) = stack.pop() {
                    for &i in t.col(j).0 {
                        if i != j && !seen[i as usize] {
                            seen[i as usize] = true;
                            stack.push(i);
                        }
                    }
                }
                (0..n as Index).filter(|&v| seen[v as usize]).collect()
            };
            for q in 0..n as Index {
                let reaches_seed = forward_reach(q).contains(&seed_col);
                assert_eq!(dirty.contains(&q), reaches_seed, "trial {trial} q {q}");
            }
            // And inverting only the dirty columns after perturbing the
            // seed column leaves every clean column bit-identical.
            let inv_before = exact(&t, upper);
            let mut perturbed_trips = trips.clone();
            perturbed_trips.push((
                if upper { 0 } else { n as Index - 1 },
                seed_col,
                0.77,
            ));
            let t2 = match CscMatrix::from_triplets(n, n, &perturbed_trips) {
                Ok(m) => m,
                Err(_) => continue,
            };
            let dirty2 = {
                let mut d = inverse_dirty_columns(&t2, &[seed_col]);
                d.extend(dirty.iter().copied());
                d.sort_unstable();
                d.dedup();
                d
            };
            let inv_after = exact(&t2, upper);
            for q in 0..n as Index {
                if !dirty2.contains(&q) {
                    let (ri, vi) = inv_before.col(q);
                    let (rj, vj) = inv_after.col(q);
                    assert_eq!(ri, rj, "trial {trial} clean col {q}: pattern changed");
                    for (a, b) in vi.iter().zip(vj) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "trial {trial} clean col {q}: value changed"
                        );
                    }
                }
            }
        }
    }
}
