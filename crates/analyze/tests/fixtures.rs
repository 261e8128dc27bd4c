//! Fixture-corpus integration tests.
//!
//! The `violations` tree carries a `// MARK:<rule>` (or `/* MARK:<rule> */`)
//! comment on every line that must produce an **active** finding of that
//! rule; the test asserts set equality between marks and findings, which
//! gives 100% detection and zero false positives in one comparison. The
//! `clean` tree holds the legitimate spellings of the same patterns
//! (imports, test scope, allowed modules, documented unsafe, justified
//! allows) and must produce no active findings at all.

use mvml_analyze::{analyze_workspace, policy, report::Report};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[allow(clippy::expect_used)] // test harness; a broken fixture tree should abort loudly
fn run(name: &str) -> Report {
    let root = fixture_root(name);
    let policy = policy::load(&root.join("analyze-policy.toml")).expect("fixture policy parses");
    analyze_workspace(&root, &policy, "analyze-policy.toml").expect("fixture tree scans")
}

/// `(file, line, rule)` triples for every `MARK:<rule>` comment in the
/// tree's `.rs` files. Paths are workspace-relative with forward slashes,
/// matching the report's canonical form.
#[allow(clippy::expect_used)] // test harness; a broken fixture tree should abort loudly
fn expected_marks(root: &Path) -> BTreeSet<(String, u32, String)> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeSet<(String, u32, String)>) {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("fixture dir reads")
            .map(|e| e.expect("fixture entry").path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                walk(root, &path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("fixture file reads");
                let rel = path
                    .strip_prefix(root)
                    .expect("fixture under root")
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                for (i, line) in text.lines().enumerate() {
                    if let Some(pos) = line.find("MARK:") {
                        let rule: String = line[pos + "MARK:".len()..]
                            .chars()
                            .take_while(|c| c.is_ascii_lowercase() || *c == '_')
                            .collect();
                        assert!(!rule.is_empty(), "malformed MARK in {rel} line {}", i + 1);
                        out.insert((rel.clone(), i as u32 + 1, rule));
                    }
                }
            }
        }
    }
    let mut out = BTreeSet::new();
    walk(root, root, &mut out);
    out
}

#[test]
fn violations_tree_full_detection_no_false_positives() {
    let report = run("violations");
    let mut expected = expected_marks(&fixture_root("violations"));
    // The R5 finding lives in a manifest, which cannot carry a MARK.
    expected.insert((
        "crates/nolints/Cargo.toml".into(),
        1,
        "lint_coverage".into(),
    ));
    // The policy allow-lists `obs` for wall-clock and telemetry reads, but
    // this tree has no obs crate: both entries are stale.
    for rule in ["determinism", "telemetry_purity"] {
        expected.insert(("analyze-policy.toml".into(), 1, rule.into()));
    }

    let actual: BTreeSet<(String, u32, String)> = report
        .findings
        .iter()
        .filter(|f| f.allowed.is_none())
        .map(|f| (f.file.clone(), f.line, f.rule.clone()))
        .collect();

    let missed: Vec<_> = expected.difference(&actual).collect();
    let spurious: Vec<_> = actual.difference(&expected).collect();
    assert!(
        missed.is_empty() && spurious.is_empty(),
        "detection mismatch\n  missed: {missed:?}\n  spurious: {spurious:?}"
    );

    // The undocumented unsafe block still lands in the inventory, with its
    // missing SAFETY text recorded as empty.
    assert_eq!(report.unsafe_inventory.len(), 1);
    assert_eq!(report.unsafe_inventory[0].file, "crates/core/src/lib.rs");
    assert!(report.unsafe_inventory[0].safety.is_empty());

    // Exactly one manifest is uncovered, and the excluded crate was never
    // visited (no coverage row, no findings — the set equality above
    // already proved the latter).
    let uncovered: Vec<_> = report.lint_coverage.iter().filter(|e| !e.covered).collect();
    assert_eq!(uncovered.len(), 1);
    assert_eq!(uncovered[0].manifest, "crates/nolints/Cargo.toml");
    assert!(report
        .lint_coverage
        .iter()
        .all(|e| !e.manifest.contains("skipped")));
}

#[test]
fn clean_tree_has_no_active_findings_and_no_stale_allows() {
    let report = run("clean");
    let active: Vec<String> = report
        .findings
        .iter()
        .filter(|f| f.allowed.is_none())
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        active.is_empty(),
        "clean tree flagged:\n{}",
        active.join("\n")
    );

    // The one allow present is both recorded and used.
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].rule, "determinism");
    assert!(report.allows[0].used > 0, "allow recorded but unused");

    // The documented unsafe block is inventoried with its SAFETY text.
    assert_eq!(report.unsafe_inventory.len(), 1);
    assert!(report.unsafe_inventory[0]
        .safety
        .contains("callers guarantee"));

    // Every manifest (root + three crates) opts into the workspace lints.
    assert_eq!(report.lint_coverage.len(), 4);
    assert!(report.lint_coverage.iter().all(|e| e.covered));
}

#[test]
fn fixture_reports_render_deterministically() {
    // Two scans of the same tree must produce byte-identical JSON — the
    // property the CI `--validate` gate relies on.
    let a = run("violations").render();
    let b = run("violations").render();
    assert_eq!(a, b);
    assert!(a.contains("\"schema\""), "render includes the schema tag");
}
