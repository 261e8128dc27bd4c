//! The rule engine: R1–R5 pattern matching over scope-annotated token
//! streams, plus the `mvml-allow` suppression grammar.
//!
//! Every rule is lexical. That is deliberately conservative: the engine
//! cannot resolve types, so rules are phrased over identifier/path
//! mentions inside configured module prefixes, and legitimate uses carry
//! an in-source justification that is mirrored into the report:
//!
//! ```text
//! // mvml-allow(determinism): lookup-only index, never iterated
//! ```
//!
//! An allow binds to findings of the named rule on its **own line** (for
//! trailing comments) or on the **next line that has code** (for own-line
//! comments). Malformed allows, unknown rule names, empty justifications,
//! and allows that suppress nothing are themselves findings (rule
//! `allow_grammar`) — the allowlist must stay exact.

use crate::policy::{Policy, Severity};
use crate::report::{AllowEntry, Finding, Report, UnsafeEntry};
use crate::scope::{module_matches, ScopedFile};
use std::collections::BTreeSet;

/// A parsed, well-formed allow annotation (before use-counting).
struct Allow {
    rule: String,
    line: u32,
    justification: String,
    /// Lines this allow suppresses findings on.
    binds: Vec<u32>,
    used: u32,
}

/// Scans one file, appending findings / allows / unsafe entries to the
/// report. `rel_path` is the workspace-relative path with forward slashes.
pub fn scan_file(policy: &Policy, rel_path: &str, scoped: &ScopedFile, report: &mut Report) {
    let mut findings = collect_findings(policy, rel_path, scoped, report);
    let mut allows = collect_allows(rel_path, scoped, &mut findings);

    // Apply allows: a finding is suppressed by a same-rule allow bound to
    // its line.
    for f in &mut findings {
        if f.allowed.is_some() {
            continue;
        }
        if let Some(a) = allows
            .iter_mut()
            .find(|a| a.rule == f.rule && a.binds.contains(&f.line))
        {
            a.used += 1;
            f.allowed = Some(a.justification.clone());
        }
    }

    // Unused allows are findings: either the code they excused was fixed
    // (remove the comment) or the annotation is mis-bound (move it).
    for a in &allows {
        if a.used == 0 {
            findings.push(Finding {
                rule: "allow_grammar".into(),
                severity: Severity::Error,
                file: rel_path.to_string(),
                line: a.line,
                module: String::new(),
                message: format!(
                    "unused `mvml-allow({})` — no matching finding on its line or the next code line",
                    a.rule
                ),
                allowed: None,
            });
        }
    }

    report.findings.append(&mut findings);
    report.allows.extend(allows.into_iter().map(|a| AllowEntry {
        rule: a.rule,
        file: rel_path.to_string(),
        line: a.line,
        justification: a.justification,
        used: a.used,
    }));
}

/// Parses `mvml-allow` annotations out of the file's comments. Grammar
/// errors are appended to `findings` directly.
fn collect_allows(rel_path: &str, scoped: &ScopedFile, findings: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in &scoped.comments {
        let text = c.text.trim_start();
        let Some(rest) = text.strip_prefix("mvml-allow") else {
            continue;
        };
        let grammar_error = |msg: String| Finding {
            rule: "allow_grammar".into(),
            severity: Severity::Error,
            file: rel_path.to_string(),
            line: c.line,
            module: String::new(),
            message: msg,
            allowed: None,
        };
        let Some(args) = rest.strip_prefix('(') else {
            findings.push(grammar_error(
                "malformed mvml-allow: expected `mvml-allow(rule): justification`".into(),
            ));
            continue;
        };
        let Some(close) = args.find(')') else {
            findings.push(grammar_error("malformed mvml-allow: missing `)`".into()));
            continue;
        };
        let rule = args[..close].trim().to_string();
        if !Policy::RULE_NAMES.contains(&rule.as_str()) {
            findings.push(grammar_error(format!(
                "mvml-allow references unknown rule `{rule}` (known: {})",
                Policy::RULE_NAMES.join(", ")
            )));
            continue;
        }
        let after = args[close + 1..].trim_start();
        let Some(justification) = after.strip_prefix(':') else {
            findings.push(grammar_error(
                "malformed mvml-allow: expected `: <justification>` after the rule".into(),
            ));
            continue;
        };
        let justification = justification.trim().to_string();
        if justification.is_empty() {
            findings.push(grammar_error(
                "mvml-allow without a justification — say *why* the rule does not apply".into(),
            ));
            continue;
        }
        let mut binds = vec![c.line];
        if let Some(next) = scoped.next_token_line_after(c.line) {
            binds.push(next);
        }
        allows.push(Allow {
            rule,
            line: c.line,
            justification,
            binds,
            used: 0,
        });
    }
    allows
}

/// Runs R1/R2/R3/R4 over the token stream. R3 entries go straight into the
/// report's inventory; everything else comes back as findings.
fn collect_findings(
    policy: &Policy,
    rel_path: &str,
    scoped: &ScopedFile,
    report: &mut Report,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &scoped.tokens;

    let wall_clock: Vec<Vec<&str>> = policy
        .determinism
        .wall_clock
        .iter()
        .map(|p| p.split("::").collect())
        .collect();

    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != crate::lexer::TokenKind::Ident {
            continue;
        }
        let sc = &scoped.scopes[i];
        let mut finding = |rule: &str, severity: Severity, message: String| {
            findings.push(Finding {
                rule: rule.into(),
                severity,
                file: rel_path.to_string(),
                line: tok.line,
                module: sc.module.clone(),
                message,
                allowed: None,
            });
        };

        // R1a — wall-clock reads outside timing-allowed modules (non-test,
        // non-import).
        if !sc.test && !sc.in_use {
            let module_allowed = policy
                .determinism
                .wall_clock_allowed_modules
                .iter()
                .any(|m| module_matches(&sc.module, m));
            if !module_allowed {
                for (pat, segs) in policy.determinism.wall_clock.iter().zip(&wall_clock) {
                    if path_match(toks, i, segs) {
                        finding(
                            "determinism",
                            policy.determinism.severity,
                            format!("wall-clock read `{pat}` outside timing-allowed modules"),
                        );
                    }
                }
            }
        }

        // R1b — entropy sources, banned everywhere (tests included: a
        // seeded campaign that consults OsRng is non-replayable no matter
        // where the call sits).
        if policy.determinism.entropy.contains(&tok.text) {
            finding(
                "determinism",
                policy.determinism.severity,
                format!("entropy source `{}` is banned workspace-wide", tok.text),
            );
        }

        // R1c — unordered containers in determinism-sensitive modules
        // (non-test, non-import): iteration order feeds reward sums and
        // artifacts there, so require BTree* or a justified allow.
        if !sc.test
            && !sc.in_use
            && policy.determinism.unordered_types.contains(&tok.text)
            && policy
                .determinism
                .unordered_modules
                .iter()
                .any(|m| module_matches(&sc.module, m))
        {
            finding(
                "determinism",
                policy.determinism.severity,
                format!(
                    "unordered container `{}` in determinism-sensitive module `{}` — use BTreeMap/BTreeSet or justify with mvml-allow",
                    tok.text, sc.module
                ),
            );
        }

        // R2 — panic paths in the hardened modules (non-test only).
        if !sc.test
            && policy
                .panic_safety
                .modules
                .iter()
                .any(|m| module_matches(&sc.module, m))
        {
            if policy.panic_safety.banned_macros.contains(&tok.text)
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            {
                finding(
                    "panic_safety",
                    policy.panic_safety.severity,
                    format!("banned macro `{}!` in hardened path", tok.text),
                );
            }
            if policy.panic_safety.banned_methods.contains(&tok.text)
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                finding(
                    "panic_safety",
                    policy.panic_safety.severity,
                    format!("banned method `.{}()` in hardened path", tok.text),
                );
            }
        }

        // R3 — unsafe inventory (all code, tests included: an unsafe block
        // in a test still needs its SAFETY argument).
        if tok.text == "unsafe" {
            let safety = safety_comment(
                scoped,
                tok.line,
                policy.unsafe_inventory.safety_comment_lines,
            );
            if safety.is_empty() {
                finding(
                    "unsafe_inventory",
                    policy.unsafe_inventory.severity,
                    "`unsafe` without a `// SAFETY:` comment in the preceding lines".into(),
                );
            }
            report.unsafe_inventory.push(UnsafeEntry {
                file: rel_path.to_string(),
                line: tok.line,
                module: sc.module.clone(),
                safety,
            });
        }

        // R4 — telemetry reads outside the obs crate (non-test,
        // non-import).
        if !sc.test
            && !sc.in_use
            && policy.telemetry_purity.read_tokens.contains(&tok.text)
            && !policy
                .telemetry_purity
                .allowed_modules
                .iter()
                .any(|m| module_matches(&sc.module, m))
        {
            finding(
                "telemetry_purity",
                policy.telemetry_purity.severity,
                format!(
                    "telemetry read surface `{}` used outside mvml-obs",
                    tok.text
                ),
            );
        }
    }
    findings
}

/// `true` when `tokens[i..]` spell the `::`-joined path `segs`
/// (`["Instant", "now"]` matches `Instant :: now`). A single-segment
/// pattern matches any mention of that identifier.
fn path_match(tokens: &[crate::lexer::Token], i: usize, segs: &[&str]) -> bool {
    if segs.is_empty() || !tokens[i].is_ident(segs[0]) {
        return false;
    }
    let mut idx = i;
    for seg in &segs[1..] {
        let sep = tokens.get(idx + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(idx + 2).is_some_and(|t| t.is_punct(':'));
        if !sep || !tokens.get(idx + 3).is_some_and(|t| t.is_ident(seg)) {
            return false;
        }
        idx += 3;
    }
    true
}

/// R3 census: compares the scanned unsafe inventory against the exact
/// per-module counts in `[rules.unsafe_inventory.expected_counts]`.
///
/// Each entry is owned by the *longest* cataloged prefix that matches its
/// module (so `nn::gemm::x86` counts toward `nn::gemm`). An entry no
/// prefix claims is a finding at the entry's own location; a cataloged
/// prefix whose actual count differs from its expected count — including
/// a stale zero — is a finding pinned to the policy file. Census findings
/// are deliberately outside the `mvml-allow` grammar: the fix is always
/// to re-catalog the policy, never to suppress.
pub fn unsafe_census_findings(
    policy: &Policy,
    inventory: &[UnsafeEntry],
    policy_path: &str,
) -> Vec<Finding> {
    let rule = &policy.unsafe_inventory;
    if rule.expected_counts.is_empty() {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let mut counts: std::collections::BTreeMap<&str, usize> = rule
        .expected_counts
        .keys()
        .map(|k| (k.as_str(), 0))
        .collect();
    for entry in inventory {
        let owner = rule
            .expected_counts
            .keys()
            .filter(|k| module_matches(&entry.module, k))
            .max_by_key(|k| k.len());
        match owner {
            Some(key) => {
                if let Some(slot) = counts.get_mut(key.as_str()) {
                    *slot += 1;
                }
            }
            None => findings.push(Finding {
                rule: "unsafe_inventory".into(),
                severity: rule.severity,
                file: entry.file.clone(),
                line: entry.line,
                module: entry.module.clone(),
                message: format!(
                    "un-cataloged `unsafe` in `{}`: add the module to \
                     [rules.unsafe_inventory.expected_counts]",
                    entry.module
                ),
                allowed: None,
            }),
        }
    }
    for (module, &want) in &rule.expected_counts {
        let got = counts.get(module.as_str()).copied().unwrap_or(0);
        if got != want {
            findings.push(Finding {
                rule: "unsafe_inventory".into(),
                severity: rule.severity,
                file: policy_path.to_string(),
                line: 1,
                module: module.clone(),
                message: format!(
                    "unsafe census drift in `{module}`: policy expects {want} \
                     `unsafe` token(s), scan found {got}"
                ),
                allowed: None,
            });
        }
    }
    findings
}

/// Stale allow-list entries: a module prefix in
/// `wall_clock_allowed_modules` or in `[rules.telemetry_purity]
/// allowed_modules` that matches no scanned module. Such an entry exempts
/// nothing today and silently exempts whatever module takes the name
/// later, so, like census drift, it is a finding pinned to the policy
/// file and outside the `mvml-allow` grammar.
pub fn stale_allow_list_findings(
    policy: &Policy,
    scanned_modules: &BTreeSet<String>,
    policy_path: &str,
) -> Vec<Finding> {
    let lists = [
        (
            "determinism",
            policy.determinism.severity,
            "wall_clock_allowed_modules",
            &policy.determinism.wall_clock_allowed_modules,
        ),
        (
            "telemetry_purity",
            policy.telemetry_purity.severity,
            "allowed_modules",
            &policy.telemetry_purity.allowed_modules,
        ),
    ];
    let mut findings = Vec::new();
    for (rule, severity, key, entries) in lists {
        for entry in entries {
            if scanned_modules.iter().any(|m| module_matches(m, entry)) {
                continue;
            }
            findings.push(Finding {
                rule: rule.into(),
                severity,
                file: policy_path.to_string(),
                line: 1,
                module: entry.clone(),
                message: format!("stale `{key}` entry `{entry}`: no scanned module matches it"),
                allowed: None,
            });
        }
    }
    findings
}

/// The `// SAFETY: …` text closest above (or on) `line`, within `window`
/// lines; empty when absent.
fn safety_comment(scoped: &ScopedFile, line: u32, window: u32) -> String {
    let lo = line.saturating_sub(window);
    scoped
        .comments
        .iter()
        .filter(|c| c.line >= lo && c.line <= line)
        .rev()
        .find_map(|c| {
            c.text
                .trim_start()
                .strip_prefix("SAFETY:")
                .map(|rest| rest.trim().to_string())
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::annotate;

    fn policy() -> Policy {
        crate::policy::parse(
            "[rules.determinism]\n\
             wall_clock_allowed_modules = [\"obs\"]\n\
             unordered_modules = [\"petri\"]\n\
             [rules.panic_safety]\n\
             modules = [\"core::voter\"]\n",
        )
        .expect("test policy parses")
    }

    fn run(src: &str, module: &[&str]) -> Report {
        let mut report = Report::default();
        let base: Vec<String> = module.iter().map(|s| s.to_string()).collect();
        let scoped = annotate(lex(src), &base);
        scan_file(&policy(), "test.rs", &scoped, &mut report);
        report.normalize();
        report
    }

    #[test]
    fn unsafe_census_enforces_exact_counts_and_catches_strays() {
        let policy = crate::policy::parse(
            "[rules.unsafe_inventory.expected_counts]\n\"nn::gemm\" = 2\n\"nn::quant\" = 1\n",
        )
        .expect("census policy parses");
        let entry = |module: &str, line: u32| UnsafeEntry {
            file: format!(
                "crates/nn/src/{}.rs",
                module.split("::").last().unwrap_or("x")
            ),
            line,
            module: module.to_string(),
            safety: "justified".into(),
        };

        // Exact match — nested submodules count toward their prefix.
        let inventory = vec![
            entry("nn::gemm", 10),
            entry("nn::gemm::x86", 20),
            entry("nn::quant", 30),
        ];
        assert!(unsafe_census_findings(&policy, &inventory, "policy.toml").is_empty());

        // A new unsafe in a cataloged module: count drift, pinned to the
        // policy file.
        let mut grown = inventory.clone();
        grown.push(entry("nn::quant", 31));
        let drift = unsafe_census_findings(&policy, &grown, "policy.toml");
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].message.contains("expects 1"), "{drift:?}");
        assert_eq!(drift[0].file, "policy.toml");

        // An unsafe in an un-cataloged module: finding at its own site,
        // plus no count drift elsewhere.
        let mut stray = inventory.clone();
        stray.push(entry("avsim::fastpath", 7));
        let found = unsafe_census_findings(&policy, &stray, "policy.toml");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("un-cataloged"), "{found:?}");
        assert_eq!(found[0].line, 7);

        // A cataloged module that lost its unsafe: stale catalog entry.
        let shrunk = vec![entry("nn::gemm", 10), entry("nn::gemm", 11)];
        let stale = unsafe_census_findings(&policy, &shrunk, "policy.toml");
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert!(stale[0].message.contains("scan found 0"), "{stale:?}");

        // Empty census: the rule is inert.
        let off = crate::policy::parse("").expect("empty policy");
        assert!(unsafe_census_findings(&off, &stray, "policy.toml").is_empty());
    }

    #[test]
    fn allow_list_entries_matching_no_scanned_module_are_stale() {
        let policy = crate::policy::parse(
            "[rules.determinism]\n\
             wall_clock_allowed_modules = [\"obs\", \"bench::summary\", \"nn::tune\"]\n\
             [rules.telemetry_purity]\n\
             allowed_modules = [\"obs\", \"serve::shard\"]\n",
        )
        .expect("allow-list policy parses");
        let scanned: BTreeSet<String> = ["obs::recorder", "bench::calibrate", "nn::tune::tests"]
            .into_iter()
            .map(String::from)
            .collect();
        let stale = stale_allow_list_findings(&policy, &scanned, "policy.toml");
        let got: Vec<(&str, &str)> = stale
            .iter()
            .map(|f| (f.rule.as_str(), f.module.as_str()))
            .collect();
        // `bench::summary` shares a crate but not a module with
        // `bench::calibrate`; a scanned submodule keeps `nn::tune` live.
        assert_eq!(
            got,
            [
                ("determinism", "bench::summary"),
                ("telemetry_purity", "serve::shard")
            ]
        );
        assert!(stale.iter().all(|f| f.file == "policy.toml" && f.line == 1));
        assert!(stale[0].message.contains("wall_clock_allowed_modules"));
    }

    #[test]
    fn wall_clock_flagged_outside_allowed_modules() {
        let r = run("fn f() { let t = Instant::now(); }", &["core", "system"]);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].message.contains("Instant::now"));
        let ok = run("fn f() { let t = Instant::now(); }", &["obs", "recorder"]);
        assert!(ok.findings.is_empty());
    }

    #[test]
    fn unordered_types_only_in_sensitive_modules_and_not_imports() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); }";
        let r = run(src, &["petri", "reach"]);
        assert_eq!(r.findings.len(), 2); // two non-import mentions
        let ok = run(src, &["avsim", "world"]);
        assert!(ok.findings.is_empty());
    }

    #[test]
    fn panic_safety_catches_macros_and_methods_outside_tests() {
        let src = "fn f(x: Option<u8>) -> u8 { assert!(true); x.unwrap() }\n\
                   #[cfg(test)]\nmod tests { fn t(x: Option<u8>) { x.unwrap(); } }";
        let r = run(src, &["core", "voter"]);
        assert_eq!(r.findings.len(), 2);
        let ok = run(src, &["core", "module"]);
        assert!(ok.findings.is_empty());
    }

    #[test]
    fn allow_suppresses_same_line_and_next_line() {
        let trailing =
            "fn f() { let t = Instant::now(); } // mvml-allow(determinism): timing test hook";
        let r = run(trailing, &["core", "system"]);
        assert_eq!(r.active_errors().count(), 0);
        assert_eq!(r.allows.len(), 1);
        assert_eq!(r.allows[0].used, 1);

        let own_line =
            "// mvml-allow(determinism): timing test hook\nfn f() { let t = Instant::now(); }";
        let r = run(own_line, &["core", "system"]);
        assert_eq!(r.active_errors().count(), 0);
        assert_eq!(r.findings[0].allowed.as_deref(), Some("timing test hook"));
    }

    #[test]
    fn bad_allow_grammar_is_itself_a_finding() {
        for src in [
            "// mvml-allow determinism: missing parens\nfn f() {}",
            "// mvml-allow(determinism) missing colon\nfn f() {}",
            "// mvml-allow(determinism):\nfn f() {}",
            "// mvml-allow(nonsense_rule): something\nfn f() {}",
            "// mvml-allow(determinism): nothing to suppress here\nfn f() {}",
        ] {
            let r = run(src, &["avsim"]);
            assert_eq!(r.findings.len(), 1, "src: {src}");
            assert_eq!(r.findings[0].rule, "allow_grammar");
        }
    }

    #[test]
    fn unsafe_inventory_captures_safety_text() {
        let src = "// SAFETY: the slice is never empty here\nfn f() { unsafe { g() } }";
        let r = run(src, &["nn", "parallel"]);
        assert!(r.findings.is_empty());
        assert_eq!(r.unsafe_inventory.len(), 1);
        assert_eq!(
            r.unsafe_inventory[0].safety,
            "the slice is never empty here"
        );

        let bare = "fn f() { unsafe { g() } }";
        let r = run(bare, &["nn", "parallel"]);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "unsafe_inventory");
        assert_eq!(r.unsafe_inventory.len(), 1);
        assert!(r.unsafe_inventory[0].safety.is_empty());
    }

    #[test]
    fn telemetry_reads_flagged_outside_obs() {
        let src = "fn f(r: &RingBufferSink) { let s = read_jsonl(p); }";
        let r = run(src, &["bench", "casestudy"]);
        assert_eq!(r.findings.len(), 2);
        let ok = run(src, &["obs", "sink"]);
        assert!(ok.findings.is_empty());
    }

    #[test]
    fn entropy_is_banned_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let r = thread_rng(); } }";
        let r = run(src, &["core"]);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].message.contains("thread_rng"));
    }

    #[test]
    fn strings_and_comments_never_trigger_rules() {
        let src = "fn f() { let s = \"Instant::now() .unwrap()\"; /* Instant::now */ }";
        let r = run(src, &["core", "system"]);
        assert!(r.findings.is_empty());
    }
}
