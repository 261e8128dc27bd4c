//! The committed static-analysis report is current: scanning the workspace
//! with `analyze-policy.toml` renders `results/ANALYSIS_source.json` byte
//! for byte and finds no active error. This is the check
//! `mvml-analyze --validate` makes, run in-process.

use std::path::Path;

#[test]
fn committed_source_analysis_is_current() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let policy = mvml_analyze::policy::load(&root.join("analyze-policy.toml"))
        .expect("analyze-policy.toml parses");
    let report = mvml_analyze::analyze_workspace(root, &policy, "analyze-policy.toml")
        .expect("workspace scans");
    let active: Vec<String> = report
        .active_errors()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(active.is_empty(), "active findings:\n{}", active.join("\n"));
    let committed = std::fs::read_to_string(root.join("results/ANALYSIS_source.json"))
        .expect("results/ANALYSIS_source.json is committed");
    assert!(
        committed == report.render(),
        "results/ANALYSIS_source.json is stale: re-run `cargo run -p mvml-analyze` and commit it"
    );
}
