//! B_LIN (Tong, Faloutsos & Pan, ICDM 2006).
//!
//! Splits the transition matrix along a graph partition:
//! `A = A₁ + A₂` with `A₁` the within-partition edges (block diagonal
//! after the partition ordering) and `A₂` the cross-partition edges. The
//! within-part `W₁ = I − (1−c)A₁` is inverted *exactly* block by block;
//! only `A₂` is low-rank approximated (`A₂ ≈ U S Vᵀ`), then
//! Sherman–Morrison–Woodbury gives
//!
//! ```text
//! W⁻¹ ≈ W₁⁻¹ + (1−c) W₁⁻¹ U M Vᵀ W₁⁻¹,
//! M    = (S⁻¹ − (1−c) Vᵀ W₁⁻¹ U)⁻¹
//! p̂    = c [ q̃ + (1−c) W₁⁻¹ U M Vᵀ q̃ ],   q̃ = W₁⁻¹ e_q
//! ```
//!
//! The paper partitions with METIS; this reproduction uses Louvain (see
//! DESIGN.md). Oversized communities are chunked so the dense per-block
//! inverses stay tractable.

use crate::{top_k_of_dense, CscOperator, Scored, TopKEngine};
use kdash_community::{louvain, LouvainOptions};
use kdash_graph::{CsrGraph, NodeId};
use kdash_linalg::{invert_dense, randomized_svd, DenseMatrix, LinalgError, SvdOptions};
use kdash_sparse::{transition_matrix, CscMatrix, DanglingPolicy};

/// B_LIN tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct BLinOptions {
    /// Target rank of the cross-partition approximation.
    pub target_rank: usize,
    /// Restart probability.
    pub restart_probability: f64,
    /// Blocks larger than this are split (dense inversion is `O(b³)`).
    pub max_block_size: usize,
    /// Seed for partitioning and the SVD sketch.
    pub seed: u64,
}

impl Default for BLinOptions {
    fn default() -> Self {
        BLinOptions { target_rank: 100, restart_probability: 0.95, max_block_size: 600, seed: 7 }
    }
}

/// The precomputed B_LIN engine.
pub struct BLin {
    c: f64,
    target_rank: usize,
    /// Node -> (block index, offset inside the block).
    placement: Vec<(u32, u32)>,
    /// Members of every block, in block-local order.
    blocks: Vec<Vec<NodeId>>,
    /// Dense inverse of each diagonal block of `W₁`.
    block_inv: Vec<DenseMatrix>,
    /// Low-rank factors of the cross-partition part.
    u: DenseMatrix,
    vt: DenseMatrix,
    /// SMW core `M`.
    m: DenseMatrix,
}

impl BLin {
    /// Offline phase: partition, per-block dense inverses, cross-edge SVD,
    /// SMW core.
    pub fn build(graph: &CsrGraph, options: BLinOptions) -> Result<BLin, LinalgError> {
        let c = options.restart_probability;
        assert!(c > 0.0 && c < 1.0, "restart probability must be in (0, 1)");
        let n = graph.num_nodes();
        let a = transition_matrix(graph, DanglingPolicy::Keep);

        // Partition and chunk oversized communities.
        let partition = louvain(graph, LouvainOptions { seed: options.seed, ..Default::default() });
        let mut blocks: Vec<Vec<NodeId>> = Vec::new();
        for members in partition.members() {
            for chunk in members.chunks(options.max_block_size.max(1)) {
                if !chunk.is_empty() {
                    blocks.push(chunk.to_vec());
                }
            }
        }
        if blocks.is_empty() && n > 0 {
            blocks.push((0..n as NodeId).collect());
        }
        let mut placement = vec![(0u32, 0u32); n];
        for (bi, block) in blocks.iter().enumerate() {
            for (off, &v) in block.iter().enumerate() {
                placement[v as usize] = (bi as u32, off as u32);
            }
        }

        // Split A into within-block and cross-block triplets.
        let mut cross: Vec<(NodeId, NodeId, f64)> = Vec::new();
        let mut block_inv = Vec::with_capacity(blocks.len());
        for (bidx, block) in blocks.iter().enumerate() {
            let b = block.len();
            let mut w1 = DenseMatrix::identity(b);
            for (j_off, &v) in block.iter().enumerate() {
                let (rows, vals) = a.col(v);
                for (&r, &val) in rows.iter().zip(vals) {
                    let (bi, off) = placement[r as usize];
                    if bi as usize == bidx {
                        let old = w1.get(off as usize, j_off);
                        w1.set(off as usize, j_off, old - (1.0 - c) * val);
                    } else {
                        cross.push((r, v, val));
                    }
                }
            }
            // W1 block is strictly column diagonally dominant -> invertible.
            block_inv.push(invert_dense(&w1)?);
        }
        let a2 = CscMatrix::from_triplets(n, n, &cross)
            .expect("cross edges are in range with finite values");

        // Low-rank factor of A2 (skip when there are no cross edges).
        let (u, vt, m) = if a2.nnz() == 0 {
            (DenseMatrix::zeros(n, 0), DenseMatrix::zeros(0, n), DenseMatrix::zeros(0, 0))
        } else {
            let svd = randomized_svd(
                &CscOperator(&a2),
                options.target_rank,
                SvdOptions { seed: options.seed, ..SvdOptions::default() },
            )?;
            let r = svd.rank();
            if r == 0 {
                (DenseMatrix::zeros(n, 0), DenseMatrix::zeros(0, n), DenseMatrix::zeros(0, 0))
            } else {
                // M = (S^{-1} − (1−c) Vᵀ W1⁻¹ U)^{-1}
                let mut w1inv_u = DenseMatrix::zeros(n, r);
                let mut col = vec![0.0; n];
                for j in 0..r {
                    for (i, c_) in col.iter_mut().enumerate() {
                        *c_ = svd.u.get(i, j);
                    }
                    let applied = apply_block_inverse(&blocks, &block_inv, &col);
                    w1inv_u.set_col(j, &applied);
                }
                let vtwu = svd.vt.matmul(&w1inv_u)?;
                let mut core = DenseMatrix::from_fn(r, r, |i, j| -(1.0 - c) * vtwu.get(i, j));
                for i in 0..r {
                    core.set(i, i, core.get(i, i) + 1.0 / svd.s[i]);
                }
                (w1inv_u, svd.vt, invert_dense(&core)?)
            }
        };

        Ok(BLin { c, target_rank: options.target_rank, placement, blocks, block_inv, u, vt, m })
    }

    /// Effective rank of the cross-partition approximation.
    pub fn rank(&self) -> usize {
        self.m.nrows()
    }

    /// The full approximate proximity vector.
    pub fn full(&self, q: NodeId) -> Vec<f64> {
        let n = self.placement.len();
        assert!((q as usize) < n, "query {q} out of bounds");
        // q̃ = W1⁻¹ e_q: column of q's block inverse, scattered.
        let (bi, off) = self.placement[q as usize];
        let block = &self.blocks[bi as usize];
        let inv = &self.block_inv[bi as usize];
        let mut q_tilde = vec![0.0; n];
        for (row_off, &node) in block.iter().enumerate() {
            q_tilde[node as usize] = inv.get(row_off, off as usize);
        }
        let mut p = q_tilde.clone();
        if self.rank() > 0 {
            // y = Vᵀ q̃ ; z = M y ; w = (W1⁻¹U) z ; p̂ += (1−c)·w
            let y = self.vt.matvec(&q_tilde).expect("vt is r x n");
            let z = self.m.matvec(&y).expect("m is r x r");
            let w = self.u.matvec(&z).expect("u is n x r");
            for (pi, &wi) in p.iter_mut().zip(&w) {
                *pi += (1.0 - self.c) * wi;
            }
        }
        for pi in &mut p {
            *pi *= self.c;
        }
        p
    }
}

/// Applies the block-diagonal inverse to a dense vector.
fn apply_block_inverse(
    blocks: &[Vec<NodeId>],
    block_inv: &[DenseMatrix],
    x: &[f64],
) -> Vec<f64> {
    let mut out = vec![0.0; x.len()];
    for (block, inv) in blocks.iter().zip(block_inv) {
        let local: Vec<f64> = block.iter().map(|&v| x[v as usize]).collect();
        let applied = inv.matvec(&local).expect("square block");
        for (&v, &val) in block.iter().zip(&applied) {
            out[v as usize] = val;
        }
    }
    out
}

impl TopKEngine for BLin {
    fn name(&self) -> String {
        format!("B_LIN({})", self.target_rank)
    }

    fn top_k(&self, q: NodeId, k: usize) -> Vec<Scored> {
        top_k_of_dense(&self.full(q), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IterativeRwr;
    use kdash_graph::GraphBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Two communities with a few cross links.
    fn community_graph(seed: u64) -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(60);
        for base in [0u32, 30] {
            for _ in 0..150 {
                let u = base + rng.gen_range(0..30);
                let v = base + rng.gen_range(0..30);
                if u != v {
                    b.add_edge(u, v, 1.0);
                }
            }
        }
        for _ in 0..6 {
            let u = rng.gen_range(0..30);
            let v = 30 + rng.gen_range(0..30);
            b.add_edge(u, v, 1.0);
            b.add_edge(v, u, 1.0);
        }
        b.build().unwrap()
    }

    #[test]
    fn near_exact_with_full_cross_rank() {
        let g = community_graph(1);
        let c = 0.9;
        let blin = BLin::build(
            &g,
            BLinOptions { target_rank: 60, restart_probability: c, ..Default::default() },
        )
        .unwrap();
        let exact = IterativeRwr::new(&g, c);
        for q in [0u32, 31, 59] {
            let approx = blin.full(q);
            let truth = exact.full(q);
            for (i, (a, t)) in approx.iter().zip(&truth).enumerate() {
                assert!((a - t).abs() < 1e-5, "q={q} node {i}: {a} vs {t}");
            }
        }
    }

    #[test]
    fn no_cross_edges_is_exact_without_svd() {
        // Two disconnected cliques: A2 empty, block inverses do it all.
        let mut b = GraphBuilder::new(8);
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in 0..4 {
                    if i != j {
                        b.add_edge(base + i, base + j, 1.0);
                    }
                }
            }
        }
        let g = b.build().unwrap();
        let c = 0.85;
        let blin = BLin::build(
            &g,
            BLinOptions { restart_probability: c, ..Default::default() },
        )
        .unwrap();
        assert_eq!(blin.rank(), 0);
        let exact = IterativeRwr::new(&g, c);
        for q in 0..8u32 {
            let approx = blin.full(q);
            let truth = exact.full(q);
            for (a, t) in approx.iter().zip(&truth) {
                assert!((a - t).abs() < 1e-10, "{a} vs {t}");
            }
        }
    }

    #[test]
    fn block_chunking_respects_cap() {
        let g = community_graph(3);
        let blin = BLin::build(
            &g,
            BLinOptions { max_block_size: 10, ..Default::default() },
        )
        .unwrap();
        assert!(blin.blocks.len() >= 6, "60 nodes / cap 10");
        for block in &blin.blocks {
            assert!(block.len() <= 10);
        }
    }

    #[test]
    fn top_k_query_first() {
        let g = community_graph(5);
        let blin = BLin::build(&g, BLinOptions::default()).unwrap();
        let top = blin.top_k(12, 5);
        assert_eq!(top[0].0, 12);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    }
}
