//! Persistence properties: build → `save` → `load` is lossless, and a
//! damaged file is rejected instead of answering queries wrongly.
//!
//! The paper's deployment story (build once, serve from many processes)
//! only works if reload is *bit*-faithful — a proximity that shifts by one
//! ulp across a save/load cycle would break the exactness guarantee the
//! whole system is named for.

use kdash_core::{IndexAudit, IndexOptions, KdashIndex, NodeOrdering, PersistError};
use kdash_graph::{CsrGraph, GraphBuilder, NodeId};
use proptest::prelude::*;

fn graph_strategy() -> impl Strategy<Value = CsrGraph> {
    (3usize..50)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec(
                (0..n as NodeId, 0..n as NodeId, 0.1f64..3.0),
                n..(n * 4),
            );
            (Just(n), edges)
        })
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                b.add_edge(u, v, w);
            }
            b.build().expect("generated edges are valid")
        })
}

const ORDERINGS: [NodeOrdering; 7] = [
    NodeOrdering::Natural,
    NodeOrdering::Random { seed: 9 },
    NodeOrdering::Degree,
    NodeOrdering::Cluster,
    NodeOrdering::Hybrid,
    NodeOrdering::ReverseCuthillMcKee,
    NodeOrdering::MinDegree,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round-trip: every ordering, random graphs — the reloaded index
    /// answers every sampled query bit-identically and reports the same
    /// structural statistics.
    #[test]
    fn save_load_roundtrip_is_bit_faithful(
        (graph, ord_sel, c_pick) in (graph_strategy(), any::<u32>(), 0usize..3)
    ) {
        let ordering = ORDERINGS[ord_sel as usize % ORDERINGS.len()];
        let c = [0.5, 0.8, 0.95][c_pick];
        let index = KdashIndex::build(
            &graph,
            IndexOptions { ordering, restart_probability: c, ..Default::default() },
        ).unwrap();

        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = KdashIndex::load(buf.as_slice()).unwrap();

        prop_assert_eq!(loaded.num_nodes(), index.num_nodes());
        prop_assert_eq!(loaded.ordering(), index.ordering());
        prop_assert_eq!(loaded.restart_probability(), index.restart_probability());
        prop_assert_eq!(loaded.stats().nnz_l_inv, index.stats().nnz_l_inv);
        prop_assert_eq!(loaded.stats().nnz_u_inv, index.stats().nnz_u_inv);
        prop_assert_eq!(loaded.stats().num_edges, index.stats().num_edges);
        prop_assert_eq!(
            loaded.stats().inverse_heap_bytes,
            index.stats().inverse_heap_bytes
        );

        let n = graph.num_nodes();
        let k = 5usize.min(n);
        for q in (0..n as NodeId).step_by((n / 4).max(1)) {
            let a = index.top_k(q, k).unwrap();
            let b = loaded.top_k(q, k).unwrap();
            prop_assert_eq!(a.nodes(), b.nodes(), "query {}", q);
            for (x, y) in a.items.iter().zip(&b.items) {
                prop_assert_eq!(
                    x.proximity.to_bits(), y.proximity.to_bits(),
                    "query {} node {}", q, x.node
                );
            }
        }
    }

    /// Any strict prefix of a saved index must fail to load — never panic,
    /// never produce a working index from partial data.
    #[test]
    fn every_truncation_is_rejected(graph in graph_strategy(), cut_sel in any::<u32>()) {
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let cut = cut_sel as usize % buf.len();
        prop_assert!(KdashIndex::load(&buf[..cut]).is_err(), "cut at {} must fail", cut);
    }
}

fn sample_index() -> (KdashIndex, Vec<u8>) {
    let mut b = GraphBuilder::new(30);
    for v in 0..30u32 {
        b.add_edge(v, (v + 1) % 30, 1.0);
        b.add_edge(v, (v + 11) % 30, 0.5);
    }
    let index = KdashIndex::build(&b.build().unwrap(), IndexOptions::default()).unwrap();
    let mut buf = Vec::new();
    index.save(&mut buf).unwrap();
    (index, buf)
}

// Header layout: magic(8) + version(4) + c(8) + ordering tag(1) +
// seed(8) + n(8) = 37 bytes, followed by the 4-byte header CRC.
const HEADER_LEN: usize = 41;

#[test]
fn every_header_truncation_is_rejected() {
    let (_, buf) = sample_index();
    for cut in 0..HEADER_LEN {
        assert!(KdashIndex::load(&buf[..cut]).is_err(), "header cut at {cut} must fail");
    }
}

#[test]
fn bad_magic_is_rejected() {
    let (_, mut buf) = sample_index();
    buf[0] ^= 0x20;
    assert!(KdashIndex::load(buf.as_slice()).is_err());
}

#[test]
fn unsupported_version_is_rejected() {
    let (_, mut buf) = sample_index();
    buf[8] = 0xFF; // version is the little-endian u32 after the magic
    assert!(KdashIndex::load(buf.as_slice()).is_err());
}

#[test]
fn unknown_ordering_tag_is_rejected() {
    let (_, mut buf) = sample_index();
    buf[20] = 0x63; // the single ordering-tag byte after magic+version+c
    assert!(KdashIndex::load(buf.as_slice()).is_err());
}

#[test]
fn corrupt_restart_probability_is_rejected() {
    let (_, mut buf) = sample_index();
    // c is the f64 at bytes 12..20; overwrite with NaN (also out of (0,1)).
    buf[12..20].copy_from_slice(&f64::NAN.to_le_bytes());
    assert!(KdashIndex::load(buf.as_slice()).is_err());
}

/// Section boundaries of a saved buffer, straight from the writer's own
/// bookkeeping (`save_with_section_offsets`): `(name, end offset)` where
/// the offset is one past that section's 4-byte CRC field, and the
/// `"footer"` entry equals the file length.
fn section_marks(index: &KdashIndex) -> Vec<(&'static str, usize)> {
    let mut sink = Vec::new();
    index
        .save_with_section_offsets(&mut sink)
        .unwrap()
        .into_iter()
        .map(|(name, off)| (name, off as usize))
        .collect()
}

fn mark(marks: &[(&'static str, usize)], name: &str) -> usize {
    marks
        .iter()
        .find(|(s, _)| *s == name)
        .unwrap_or_else(|| panic!("no section mark named {name}"))
        .1
}

/// Byte offsets of the blocked-U⁻¹ internals (layout tag, blocked
/// arrays, row-stats section), anchored on the writer's section marks and
/// walked forward with the index's own counts so the corruption tests
/// stay exact against what `save` actually wrote.
fn v2_section_offsets(index: &KdashIndex) -> (usize, usize, usize) {
    let n = index.num_nodes();
    let runs = index.uinv_rows().num_runs();
    let marks = section_marks(index);
    let layout_off = mark(&marks, "linv"); // U⁻¹ starts where L⁻¹'s CRC ends
    let deltas_off = layout_off + 1        // layout tag
        + 8 * (n + 1)                      // blocked row_ptr
        + 8                                // run count
        + 8 * (n + 1)                      // run_ptr
        + 4 * runs + 4 * runs              // run_base + run_end
        + 8;                               // nnz
    let stats_off = mark(&marks, "uinv"); // row-stats start where U⁻¹'s CRC ends
    (layout_off, deltas_off, stats_off)
}

#[test]
fn unknown_layout_tag_is_rejected() {
    let (index, mut buf) = sample_index();
    let (layout_off, _, _) = v2_section_offsets(&index);
    assert_eq!(buf[layout_off], 1, "sample index persists the blocked tag");
    buf[layout_off] = 9;
    assert!(KdashIndex::load(buf.as_slice()).is_err());
}

#[test]
fn corrupt_blocked_deltas_are_rejected() {
    let (index, mut buf) = sample_index();
    let (_, deltas_off, _) = v2_section_offsets(&index);
    // Force the first delta to 0xFFFF: column = anchor + 65535, far out of
    // bounds for a 30-node matrix — structural validation must fire.
    buf[deltas_off] = 0xFF;
    buf[deltas_off + 1] = 0xFF;
    assert!(KdashIndex::load(buf.as_slice()).is_err());
}

#[test]
fn inflated_count_fields_error_instead_of_panicking() {
    // Count fields are untrusted: blowing one up to u64::MAX must come
    // back as InvalidData, never a capacity panic or an OOM abort.
    let (index, buf) = sample_index();
    let (layout_off, deltas_off, _) = v2_section_offsets(&index);
    let n = index.num_nodes();
    // The blocked run-count u64 sits right after the blocked row_ptr.
    let runs_off = layout_off + 1 + 8 * (n + 1);
    // The blocked nnz u64 sits right before the deltas.
    let nnz_off = deltas_off - 8;
    for off in [runs_off, nnz_off] {
        let mut bad = buf.clone();
        bad[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(KdashIndex::load(bad.as_slice()).is_err(), "count at {off} must fail");
    }
}

#[test]
fn corrupt_row_stats_section_is_rejected() {
    let (index, mut buf) = sample_index();
    let (_, _, stats_off) = v2_section_offsets(&index);
    // A row-stats section that disagrees with the arrays means either is
    // corrupt; the loader must reject it.
    buf[stats_off] ^= 0x5A;
    let err = KdashIndex::load(buf.as_slice()).unwrap_err();
    assert!(
        err.to_string().contains("row-stats"),
        "expected the row-stats validation to fire, got: {err}"
    );
}

#[test]
fn inflated_node_count_is_rejected() {
    let (_, mut buf) = sample_index();
    // n is the u64 at bytes 29..37. Inflating it makes the permutation
    // read consume bytes from the following sections and then either hit
    // EOF or fail the bijection validation — both must surface as errors.
    buf[29..37].copy_from_slice(&1_000_000u64.to_le_bytes());
    assert!(KdashIndex::load(buf.as_slice()).is_err());
}

/// The full corruption sweep the v5 checksums exist for: flip a byte at
/// every section boundary (last payload byte, each CRC byte, first byte
/// of the next section) and at sampled interior offsets covering every
/// section — every single mutation must come back as a typed
/// [`PersistError`], never a panic, never a silently-wrong index.
#[test]
fn every_flipped_byte_is_detected() {
    let (index, buf) = sample_index();
    let marks = section_marks(&index);
    assert_eq!(mark(&marks, "footer"), buf.len(), "footer mark is the file length");

    let mut offsets = vec![0usize];
    for &(_, end) in &marks {
        // Around each boundary: the CRC field (4 bytes before `end`), its
        // last byte, and the first byte of the following section.
        for off in end.saturating_sub(4)..(end + 1).min(buf.len()) {
            offsets.push(off);
        }
    }
    // Sampled interiors: a prime stride so every section gets hits at
    // assorted alignments within u16/u32/u64/f64 fields.
    offsets.extend((0..buf.len()).step_by(97));

    for off in offsets {
        for bit in [0x01u8, 0x80] {
            let mut bad = buf.clone();
            bad[off] ^= bit;
            let err = KdashIndex::load(bad.as_slice())
                .expect_err(&format!("flip of bit {bit:#04x} at byte {off} must be detected"));
            // Every detection is a typed PersistError; exercising Display
            // here also guards against panics while formatting.
            assert!(!err.to_string().is_empty());
        }
    }
}

/// Truncation probed exactly at section boundaries (the proptest above
/// samples random cuts; this nails the off-by-one-prone edges).
#[test]
fn every_section_boundary_truncation_is_rejected() {
    let (index, buf) = sample_index();
    for (name, end) in section_marks(&index) {
        for cut in [end.saturating_sub(1), end.min(buf.len() - 1)] {
            assert!(
                KdashIndex::load(&buf[..cut]).is_err(),
                "cut at {cut} (section {name}) must fail"
            );
        }
    }
}

/// A clean save → load round trip reports the checksummed v5 format and
/// passes the deep structural audit; the unchecksummed v1–v3 formats are
/// refused at the version field — typed, with nothing behind it parsed
/// (the rest of these bytes is a v5 body a v1–v3 parser would choke on).
#[test]
fn clean_roundtrip_is_checksummed_and_audits_clean() {
    let (_, buf) = sample_index();
    let (loaded, info) = KdashIndex::load_with_info(buf.as_slice()).unwrap();
    assert_eq!(info.version, 5);
    let audit = IndexAudit::run(&loaded);
    assert!(audit.is_clean(), "findings: {:?}", audit.findings);

    for legacy in 1u32..=3 {
        let mut old = buf.clone();
        old[8..12].copy_from_slice(&legacy.to_le_bytes());
        for bytes in [&old[..], &old[..12]] {
            match KdashIndex::load(bytes).unwrap_err() {
                PersistError::UnsupportedVersion(v) => assert_eq!(v, legacy),
                other => panic!("v{legacy} header must be refused typed, got: {other}"),
            }
        }
    }
}

/// A sparsified-tier build over the sample graph, saved in the current
/// format.
fn sample_sparsified_index() -> (KdashIndex, Vec<u8>) {
    let mut b = GraphBuilder::new(30);
    for v in 0..30u32 {
        b.add_edge(v, (v + 1) % 30, 1.0 + 0.03 * v as f64);
        b.add_edge(v, (v + 11) % 30, 0.5 + 0.01 * v as f64);
    }
    let index = KdashIndex::build(
        &b.build().unwrap(),
        IndexOptions { drop_tolerance: 1e-4, ..Default::default() },
    )
    .unwrap();
    assert!(index.needs_refinement(), "ε = 1e-4 must drop mass on the sample graph");
    let mut buf = Vec::new();
    index.save(&mut buf).unwrap();
    (index, buf)
}

/// v5 round trip of a sparsified index: the drop tolerance, the total
/// and per-column dropped masses, and refined query answers all survive
/// bit-for-bit, and the reloaded index passes the audit (whose sparsify
/// section cross-checks the masses against the stored inverses).
#[test]
fn sparsified_roundtrip_preserves_dropped_masses() {
    let (index, buf) = sample_sparsified_index();
    let (loaded, info) = KdashIndex::load_with_info(buf.as_slice()).unwrap();
    assert_eq!(info.version, 5);
    assert_eq!(loaded.drop_tolerance().to_bits(), index.drop_tolerance().to_bits());
    assert_eq!(loaded.dropped_mass().to_bits(), index.dropped_mass().to_bits());
    assert!(loaded.needs_refinement());
    let (ald, aud) = index.dropped_masses();
    let (bld, bud) = loaded.dropped_masses();
    assert!(ald.iter().zip(bld).all(|(a, b)| a.to_bits() == b.to_bits()));
    assert!(aud.iter().zip(bud).all(|(a, b)| a.to_bits() == b.to_bits()));
    let audit = IndexAudit::run(&loaded);
    assert!(audit.is_clean(), "findings: {:?}", audit.findings);
    for q in (0..30u32).step_by(7) {
        let a = index.top_k(q, 6).unwrap();
        let b = loaded.top_k(q, 6).unwrap();
        assert_eq!(a.items, b.items, "query {q}");
        assert_eq!(a.stats, b.stats, "query {q}: same bits, same refinement trace");
    }
}

/// Every byte flip inside the dropped-mass section — the ε field, the
/// `L⁻¹` masses, the `U⁻¹` masses, and the section CRC itself — must be
/// detected as a typed error naming the section, never a silently
/// altered exactness certificate.
#[test]
fn corrupt_dropped_mass_section_is_rejected() {
    let (index, buf) = sample_sparsified_index();
    let marks = section_marks(&index);
    let start = mark(&marks, "estimator");
    let end = mark(&marks, "dropped-mass");
    assert!(end > start + 4, "the dropped-mass section must be non-empty");
    for off in start..end {
        let mut bad = buf.clone();
        bad[off] ^= 0x10;
        let err = KdashIndex::load(bad.as_slice())
            .expect_err(&format!("flip at byte {off} of the dropped-mass section"));
        assert!(!err.to_string().is_empty());
    }
    // The CRC-field flips specifically must name the section.
    let mut bad = buf.clone();
    bad[end - 1] ^= 0x01;
    match KdashIndex::load(bad.as_slice()).unwrap_err() {
        PersistError::ChecksumMismatch { section, .. } => {
            assert_eq!(section.name(), "dropped-mass");
        }
        other => panic!("expected a dropped-mass checksum mismatch, got: {other}"),
    }
    // Truncation at and just before the section boundary.
    for cut in [end - 1, end - 5, start + 3] {
        assert!(KdashIndex::load(&buf[..cut]).is_err(), "cut at {cut} must fail");
    }
}

/// Checksum failures carry the section name and the byte offset of the
/// CRC field, so operators can see *where* a file went bad.
#[test]
fn checksum_errors_name_the_failing_section() {
    let (index, buf) = sample_index();
    let marks = section_marks(&index);
    for (name, end) in &marks[..marks.len() - 1] {
        let mut bad = buf.clone();
        bad[end - 1] ^= 0x01; // last CRC byte of this section
        match KdashIndex::load(bad.as_slice()).unwrap_err() {
            PersistError::ChecksumMismatch { section, offset, stored, computed } => {
                assert_eq!(section.name(), *name);
                assert_eq!(offset as usize, end - 4);
                assert_ne!(stored, computed);
            }
            other => panic!("flipping {name}'s CRC should mismatch, got: {other}"),
        }
    }
}
