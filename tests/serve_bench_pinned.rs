//! The committed serve benchmark is reproducible: re-running
//! `serve_bench_summary` with the seed, shard count and round count
//! recorded in `results/BENCH_serve.json` gives every scenario's
//! `ServiceReport` exactly as committed. The reports hold only the
//! deterministic accounting (requests, verdicts, faults, repairs, round
//! latencies); timings live outside them, so this check has zero
//! tolerance.

use mvml_serve::loadgen::{serve_bench_summary, BenchOpts};
use mvml_serve::ServeSummary;
use std::path::Path;

#[test]
#[allow(clippy::expect_used)] // test harness
fn committed_serve_reports_are_reproduced() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/BENCH_serve.json");
    let text = std::fs::read_to_string(&path).expect("results/BENCH_serve.json is committed");
    let committed: ServeSummary =
        serde_json::from_str(&text).expect("results/BENCH_serve.json is a serve summary");
    let fresh = serve_bench_summary(&BenchOpts {
        seed: committed.seed,
        shards: committed.shards,
        rounds: committed.rounds,
        ..BenchOpts::default()
    })
    .expect("serve benchmark runs");

    let names = |s: &ServeSummary| {
        s.scenarios
            .iter()
            .map(|sc| sc.scenario.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(names(&fresh), names(&committed));
    for (want, got) in committed.scenarios.iter().zip(&fresh.scenarios) {
        assert!(
            want.report == got.report,
            "scenario {}: the report diverged from results/BENCH_serve.json \
             (seed {}, {} shards, {} rounds must reproduce it exactly)",
            want.scenario,
            committed.seed,
            committed.shards,
            committed.rounds
        );
    }
}
