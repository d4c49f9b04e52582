//! `kdash-benchmark smoke` as a test: all four workloads at toy size
//! (Dictionary 600 nodes, RMAT scale 9), untraced once and traced twice.
//! Holds `BENCHMARK.json` to the program's tables, and checks that every
//! run emits exactly its declared metrics, that counts marked exact
//! repeat across two in-process runs, and that no op fails.

use kdash_benchmark::metrics::{END_TO_END, PER_LAYER};
use kdash_benchmark::smoke::smoke;

#[test]
fn smoke_runs_every_workload_and_matches_the_declaration() {
    let manifest_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let declared = std::fs::read_to_string(manifest_dir.join("../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repo root, one level above benchmark/");
    let scratch =
        std::env::temp_dir().join(format!("kdash-benchmark-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let outcome = smoke(&scratch, Some(&declared));
    let _ = std::fs::remove_dir_all(&scratch);
    let reports = outcome.expect("smoke");

    assert_eq!(reports.len(), 4 * 3, "four workloads × (untraced + 2 traced)");
    for report in &reports {
        let emitted = report.ordered().expect("declared metrics, once each");
        let declared = if report.traced { PER_LAYER.len() } else { END_TO_END.len() };
        assert_eq!(emitted.len(), declared, "{}", report.workload);
        assert_eq!(report.failed, 0, "{}: {:?}", report.workload, report.failures);
        if !report.traced {
            for (name, _, m) in &emitted {
                assert!(
                    m.value > 0.0 && m.value.is_finite(),
                    "{} {name} = {}",
                    report.workload,
                    m.value
                );
            }
        }
        let line = report.result_line().expect("result line");
        assert!(line.starts_with("{\"correct\":true,\"attempted\":"), "{line}");
    }
}
