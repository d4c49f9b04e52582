//! The four named workloads. Sizes are for a 2-core container; a run is
//! five set-ups plus `--seconds` of measurement, ≈ 20 s in all.

use crate::inputs::{
    edits_fingerprint, graph_fingerprint, nodes_fingerprint, query_list, EditStream, GraphSpec,
    SplitMix64,
};
use kdash_dynamic::UpdateBatch;
use kdash_graph::{CsrGraph, NodeId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One thread, one reused `Searcher`, passes over a query list.
    Query,
    /// The serving tier: reads beside journaled writes, then recovery.
    ServeChurn,
}

/// Fingerprints of a workload's generated inputs, so a `kdash-datagen`
/// change fails the run before timing instead of silently measuring a
/// different graph. `queries` and `edits` are for seed 42.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pins {
    pub graph: u64,
    pub queries: u64,
    pub edits: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub graph: GraphSpec,
    /// `IndexBuilder::drop_tolerance` (0 = dense-exact).
    pub drop_tolerance: f64,
    pub k: usize,
    /// Query-list length: one pass runs the whole list.
    pub list_len: usize,
    /// Queries timed per interruption check (see `clock`): ≈ 0.3 ms of
    /// work, so the check's two syscalls stay below 1 %.
    pub chunk: usize,
    /// `None` on the toy sizes the smoke test runs.
    pub pins: Option<Pins>,
}

/// Seed the pins were recorded at.
pub const PINNED_SEED: u64 = 42;
/// Edits fingerprinted from the head of the light stream.
const PINNED_EDITS: usize = 256;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dict-pruned",
        why: "Paper regime: Lemma 2 ends every query after ~34 proximities; short row gathers \
              are ~3/5 of a query, so the bound, heap, lazy BFS and L-inverse scatter show too.",
        kind: Kind::Query,
        graph: GraphSpec::Dictionary { nodes: 3000 },
        drop_tolerance: 0.0,
        k: 10,
        list_len: 8192,
        chunk: 16,
        pins: Some(Pins { graph: 0xc3888d1dd18ffbd9, queries: 0xe04887b7383ff901, edits: 0 }),
    },
    Workload {
        name: "rmat-gather",
        why: "Gather-bound: ~1400 U-inverse row gathers per query (~88 % of its time) over a \
              store four times L2; moves with the row_gather kernel arm, layout and prefetch.",
        kind: Kind::Query,
        graph: GraphSpec::Rmat { scale: 12 },
        drop_tolerance: 0.0,
        k: 50,
        list_len: 2048,
        chunk: 1,
        pins: Some(Pins { graph: 0x1648e4beb56aeea, queries: 0x8f6ecf1508f8a206, edits: 0 }),
    },
    Workload {
        name: "rmat-certified",
        why: "Sparsified tier (eps 1e-4): Lemma 2 never fires, every query runs certified \
              residual refinement over a cache-resident store; set-up is exact LU, not inversion.",
        kind: Kind::Query,
        graph: GraphSpec::Rmat { scale: 13 },
        drop_tolerance: 1e-4,
        k: 50,
        list_len: 512,
        chunk: 1,
        pins: Some(Pins { graph: 0x5b76ae5db17b6d12, queries: 0x2ceeea7daf10d7a1, edits: 0 }),
    },
    Workload {
        name: "serve-churn",
        why: "The index the other way round: reads through queue, epoch pin and executor \
              beside journaled single-edge writes that refactor, re-solve, splice and publish.",
        kind: Kind::ServeChurn,
        graph: GraphSpec::Rmat { scale: 12 },
        drop_tolerance: 0.0,
        k: 10,
        list_len: 4096,
        chunk: 4,
        pins: Some(Pins {
            graph: 0x1648e4beb56aeea,
            queries: 0x70e71a4e655e35b6,
            edits: 0x67728b91b6a9cff6,
        }),
    },
];

/// The same four workloads at toy size (Dictionary 600 nodes, RMAT scale
/// 9): seconds in all, for schema checks.
pub fn toy_workloads() -> [Workload; 4] {
    WORKLOADS.map(|w| Workload {
        graph: match w.graph {
            GraphSpec::Dictionary { .. } => GraphSpec::Dictionary { nodes: 600 },
            GraphSpec::Rmat { .. } => GraphSpec::Rmat { scale: 9 },
        },
        list_len: 256,
        pins: None,
        ..w
    })
}

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// The seeded inputs of one run.
pub struct Inputs {
    pub queries: Vec<NodeId>,
    /// The 64 queries compared against the iterative definition.
    pub oracle_queries: Vec<NodeId>,
    /// Seed of the edit stream (serve-churn).
    pub edit_rng: SplitMix64,
}

impl Workload {
    /// What the generated inputs hash to at `seed`.
    pub fn fingerprints(&self, graph: &CsrGraph, inputs: &Inputs) -> Pins {
        // Only serve-churn writes (and only its graph needs the
        // in-degree-0 sources the light stream draws from).
        let edits = if self.kind == Kind::ServeChurn {
            let mut stream = EditStream::new(graph, inputs.edit_rng.clone());
            let head: Vec<UpdateBatch> = (0..PINNED_EDITS).map(|_| stream.light()).collect();
            edits_fingerprint(&head)
        } else {
            0
        };
        Pins { graph: graph_fingerprint(graph), queries: nodes_fingerprint(&inputs.queries), edits }
    }

    /// Draws the run's inputs from `seed` and, where the workload is
    /// pinned, checks them before anything is timed.
    pub fn inputs(&self, graph: &CsrGraph, seed: u64) -> Result<Inputs, String> {
        let mut rng = SplitMix64::new(seed);
        let queries = query_list(graph, self.list_len, &mut rng);
        let oracle_queries = query_list(graph, 64, &mut rng);
        let inputs = Inputs { queries, oracle_queries, edit_rng: SplitMix64::new(rng.next_u64()) };
        if let Some(pins) = self.pins {
            let mut got = self.fingerprints(graph, &inputs);
            if seed != PINNED_SEED {
                (got.queries, got.edits) = (pins.queries, pins.edits);
            }
            if got != pins {
                return Err(format!(
                    "{}: generated inputs drifted from the pinned fingerprints (a kdash-datagen \
                     change?): expected {pins:x?}, got {got:x?}; if intended, re-pin them in \
                     benchmark/src/workloads.rs from `kdash-benchmark inputs`",
                    self.name
                ));
            }
        }
        Ok(inputs)
    }
}
