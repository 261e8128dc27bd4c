//! `mvml-analyze` — workspace-wide determinism & panic-safety static
//! analyzer.
//!
//! The repo's resilience argument rests on source-level contracts the
//! compiler cannot see: replayed fault campaigns must be byte-identical
//! (no wall-clock, no ambient entropy, no unordered iteration feeding
//! artifacts), the hardened voter path must be panic-free outside
//! `catch_unwind`, telemetry must be observe-only, and every crate must
//! opt into the workspace lint policy. This crate machine-checks those
//! contracts on every CI run and emits `results/ANALYSIS_source.json`.
//!
//! The pipeline is: [`lexer`] (hand-rolled, literal-safe tokenizer) →
//! [`scope`] (module paths, `#[cfg(test)]` regions, `use` spans) →
//! [`rules`] (R1–R4 over tokens, `mvml-allow` suppression) plus a
//! manifest pass (R5), all driven by the checked-in
//! [`policy`] file and rendered by [`report`].
//!
//! # Rule catalog
//!
//! | rule | contract |
//! |------|----------|
//! | `determinism` | no `Instant::now`/`SystemTime` outside timing modules; no entropy sources anywhere; no `HashMap`/`HashSet` in reward/artifact modules without justification |
//! | `panic_safety` | no `unwrap`/`expect`/`panic!`-family in non-test hardened-path code |
//! | `unsafe_inventory` | every `unsafe` carries a `// SAFETY:` comment and lands in the report inventory |
//! | `telemetry_purity` | telemetry read surfaces used only inside `mvml-obs` and tests |
//! | `lint_coverage` | every first-party `Cargo.toml` has `[lints] workspace = true` |
//!
//! Suppressions use `// mvml-allow(rule): <justification>` on the
//! offending line or the line above; they are mirrored into the report
//! and must all be *used* (stale allows fail the gate). Likewise every
//! module in the policy's two allow-lists must match a scanned module.

pub mod lexer;
pub mod policy;
pub mod report;
pub mod rules;
pub mod scope;

use policy::Policy;
use report::{Finding, LintCoverageEntry, Report};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// Derives the module path of a source file from its location:
/// `crates/<dir>/src/<rest>.rs` → `<dir>::<rest>` with `lib`/`main`/`mod`
/// stems dropped and `src/bin/foo.rs` mapped to `<dir>::bin::foo`.
fn module_path_of(crate_dir: &str, src_rel: &Path) -> Vec<String> {
    let mut parts = vec![crate_dir.to_string()];
    let mut comps: Vec<String> = src_rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    if let Some(last) = comps.last_mut() {
        if let Some(stem) = last.strip_suffix(".rs") {
            *last = stem.to_string();
        }
    }
    for comp in comps {
        if matches!(comp.as_str(), "lib" | "main" | "mod") {
            continue;
        }
        parts.push(comp);
    }
    parts
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// scan order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Tolerant check for `[lints] workspace = true` in a manifest. This is a
/// dedicated scan (not the strict policy parser): Cargo.toml uses TOML
/// features the policy subset rejects, and R5 only needs one fact.
fn manifest_has_workspace_lints(text: &str) -> bool {
    let mut in_lints = false;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
            continue;
        }
        if in_lints {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            if key.trim() == "workspace" && value.trim() == "true" {
                return true;
            }
        }
    }
    false
}

/// Converts a path under `root` to the canonical report form: relative,
/// forward slashes.
fn rel_display(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Checks one manifest for R5, recording coverage and emitting a finding
/// when the lint table is missing.
fn check_manifest(policy: &Policy, root: &Path, manifest: &Path, report: &mut Report) {
    let rel = rel_display(root, manifest);
    let covered = std::fs::read_to_string(manifest)
        .map(|text| manifest_has_workspace_lints(&text))
        .unwrap_or(false);
    if !covered {
        report.findings.push(Finding {
            rule: "lint_coverage".into(),
            severity: policy.lint_coverage.severity,
            file: rel.clone(),
            line: 1,
            module: String::new(),
            message: "manifest lacks `[lints] workspace = true`".into(),
            allowed: None,
        });
    }
    report.lint_coverage.push(LintCoverageEntry {
        manifest: rel,
        covered,
    });
}

/// Runs the full analysis over the workspace at `root`.
///
/// # Errors
///
/// Propagates I/O failures from directory walks and file reads; individual
/// rule evaluation itself never fails.
pub fn analyze_workspace(root: &Path, policy: &Policy, policy_path: &str) -> io::Result<Report> {
    let mut report = Report {
        policy_path: policy_path.to_string(),
        ..Report::default()
    };

    // The workspace root manifest is first-party too (it declares the
    // shared `[workspace.lints]` table and a root package).
    // Every module path a scanned token sits in, for the stale allow-list
    // check.
    let mut scanned_modules = BTreeSet::new();
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        check_manifest(policy, root, &root_manifest, &mut report);
    }

    for crate_root in &policy.crate_roots {
        let dir = root.join(crate_root);
        if !dir.is_dir() {
            continue;
        }
        let mut crates: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crates.sort();
        for crate_dir in crates {
            let name = crate_dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if policy.exclude_crates.contains(&name) {
                continue;
            }
            let manifest = crate_dir.join("Cargo.toml");
            if !manifest.is_file() {
                continue; // not a crate directory
            }
            check_manifest(policy, root, &manifest, &mut report);

            let src = crate_dir.join("src");
            if !src.is_dir() {
                continue;
            }
            let mut files = Vec::new();
            rust_files(&src, &mut files)?;
            for file in files {
                let text = std::fs::read_to_string(&file)?;
                let src_rel = file.strip_prefix(&src).unwrap_or(&file);
                let base = module_path_of(&name, src_rel);
                let scoped = scope::annotate(lexer::lex(&text), &base);
                for sc in &scoped.scopes {
                    if !scanned_modules.contains(&sc.module) {
                        scanned_modules.insert(sc.module.clone());
                    }
                }
                let rel = rel_display(root, &file);
                rules::scan_file(policy, &rel, &scoped, &mut report);
                report.files_scanned += 1;
            }
        }
    }

    let census = rules::unsafe_census_findings(policy, &report.unsafe_inventory, policy_path);
    report.findings.extend(census);
    let stale = rules::stale_allow_list_findings(policy, &scanned_modules, policy_path);
    report.findings.extend(stale);
    report.normalize();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_paths_derive_from_file_location() {
        let p = |s: &str| module_path_of("core", Path::new(s)).join("::");
        assert_eq!(p("lib.rs"), "core");
        assert_eq!(p("system.rs"), "core::system");
        assert_eq!(p("petri/mod.rs"), "core::petri");
        assert_eq!(p("petri/reach.rs"), "core::petri::reach");
        assert_eq!(p("bin/campaign.rs"), "core::bin::campaign");
        assert_eq!(p("main.rs"), "core");
    }

    #[test]
    fn manifest_lint_detection() {
        assert!(manifest_has_workspace_lints(
            "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"
        ));
        assert!(!manifest_has_workspace_lints("[package]\nname = \"x\"\n"));
        // `workspace = true` under a different table does not count.
        assert!(!manifest_has_workspace_lints(
            "[package]\nname = \"x\"\n[dependencies.obs]\nworkspace = true\n"
        ));
        // Comment-only mention does not count.
        assert!(!manifest_has_workspace_lints(
            "[lints]\n# workspace = true\n"
        ));
    }

    #[test]
    fn rel_display_uses_forward_slashes() {
        let root = Path::new("/w");
        let p = Path::new("/w/crates/core/src/lib.rs");
        assert_eq!(rel_display(root, p), "crates/core/src/lib.rs");
    }
}
