//! Runs the runtime fault-injection campaign: fault kind × rate × guard
//! grid, the 1-of-3 NaN-corruption headline comparison, and the DSPN
//! steady-state cross-check. Writes `results/CAMPAIGN_runtime.json` (or
//! `--out <path>`) plus a JSONL telemetry stream next to it, then
//! re-validates both written artefacts against each other.
//!
//! Usage:
//!   cargo run -p mvml-bench --release --bin campaign
//!   cargo run -p mvml-bench --release --bin campaign -- --smoke --out results/CAMPAIGN_smoke.json
//!   cargo run -p mvml-bench --release --bin campaign -- --telemetry results/TELEMETRY_runtime.jsonl
//!   cargo run -p mvml-bench --release --bin campaign -- --no-telemetry
//!   cargo run -p mvml-bench --release --bin campaign -- \
//!       --validate results/CAMPAIGN_runtime.json [--telemetry results/TELEMETRY_runtime.jsonl]
//!
//! `--telemetry` names the JSONL path (default: `TELEMETRY_<out-stem>.jsonl`
//! beside `--out`); `--no-telemetry` disables recording entirely — the
//! report is byte-identical either way (telemetry is observe-only). In
//! `--validate` mode, passing `--telemetry` additionally cross-checks the
//! stream against the report's tallies.

// Experiment drivers, not library code: when a solver or file write
// fails there is no caller to recover, so aborting loudly via
// unwrap/expect is the right behaviour (workspace policy sets these
// lints to warn; CI promotes warnings to errors).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mvml_bench::campaign::{
    run_campaign, validate_report, validate_telemetry, CampaignConfig, CampaignReport,
};
use mvml_bench::format::{f, render_table};
use mvml_obs::{read_jsonl, JsonlSink, Recorder};
use std::sync::Arc;

/// `TELEMETRY_<stem>.jsonl` in the same directory as the report path.
fn default_telemetry_path(out: &str) -> String {
    let path = std::path::Path::new(out);
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("campaign");
    let stem = stem.strip_prefix("CAMPAIGN_").unwrap_or(stem);
    let file = format!("TELEMETRY_{stem}.jsonl");
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => format!("{}/{file}", dir.display()),
        _ => file,
    }
}

fn main() {
    let mut smoke = false;
    let mut out = String::from("results/CAMPAIGN_runtime.json");
    let mut validate_only: Option<String> = None;
    let mut telemetry: Option<String> = None;
    let mut no_telemetry = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--validate" => validate_only = Some(args.next().expect("--validate needs a path")),
            "--telemetry" => telemetry = Some(args.next().expect("--telemetry needs a path")),
            "--no-telemetry" => no_telemetry = true,
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = validate_only {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let report: CampaignReport = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{path} is not a campaign report: {e}"));
        if let Err(reason) = validate_report(&report) {
            eprintln!("{path}: INVALID — {reason}");
            std::process::exit(1);
        }
        println!(
            "{path}: valid campaign report ({} grid cells)",
            report.grid.len()
        );
        if let Some(stream_path) = telemetry {
            let file = std::fs::File::open(&stream_path)
                .unwrap_or_else(|e| panic!("cannot open {stream_path}: {e}"));
            let records =
                // mvml-allow(telemetry_purity): --validate rereads the stream to cross-check the report; a validator is a reader by definition
                read_jsonl(file).unwrap_or_else(|e| panic!("cannot read {stream_path}: {e}"));
            if let Err(reason) = validate_telemetry(&report, &records) {
                eprintln!("{stream_path}: INCONSISTENT with {path} — {reason}");
                std::process::exit(1);
            }
            println!(
                "{stream_path}: {} records, consistent with the report's tallies",
                records.len()
            );
        }
        return;
    }

    // Injected crash faults unwind through `catch_unwind` by design; keep
    // the default hook from spamming a backtrace for each one.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected crash fault"));
        if !injected {
            default_hook(info);
        }
    }));

    let cfg = if smoke {
        CampaignConfig::smoke()
    } else {
        CampaignConfig::full()
    };
    let telemetry_path = if no_telemetry {
        None
    } else {
        Some(telemetry.unwrap_or_else(|| default_telemetry_path(&out)))
    };
    let (recorder, jsonl) = match &telemetry_path {
        Some(path) => {
            if let Some(dir) = std::path::Path::new(path).parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).expect("telemetry dir");
                }
            }
            let sink =
                Arc::new(JsonlSink::create(path).unwrap_or_else(|e| panic!("open {path}: {e}")));
            (Recorder::new(sink.clone()), Some(sink))
        }
        None => (Recorder::disabled(), None),
    };

    eprintln!("training {} versions ({} classes)…", 3, cfg.sign.classes);
    let report = run_campaign(&cfg, &recorder);

    println!("runtime fault-injection campaign — grid\n");
    let rows: Vec<Vec<String>> = report
        .grid
        .iter()
        .map(|c| {
            vec![
                c.fault.clone(),
                format!("{:.2}", c.rate),
                c.guard.clone(),
                f(c.reliability, 4),
                f(c.coverage, 4),
                c.detected_events.to_string(),
                c.escalations.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "fault",
                "rate",
                "guard",
                "E[R]",
                "coverage",
                "detected",
                "escalated"
            ],
            &rows
        )
    );

    let h = &report.headline;
    println!(
        "headline ({} rate {:.2} into module {} of 3): hardened {} vs unhardened {} (margin {}); \
         masked module never changed the chosen class: {}",
        h.fault,
        h.rate,
        h.target_module,
        f(h.hardened_reliability, 4),
        f(h.unhardened_reliability, 4),
        f(h.margin, 4),
        h.masked_never_changed_class,
    );

    println!(
        "\nper-state reliability r[h] = {:?}",
        report
            .per_state_reliability
            .iter()
            .map(|r| f(*r, 4))
            .collect::<Vec<_>>()
    );
    for c in &report.cross_check {
        println!(
            "{} cross-check: empirical {} ± {} vs analytic {} (DES {} ± {}) → within tolerance: {}",
            c.variant,
            f(c.empirical, 4),
            f(c.empirical_half_width, 4),
            f(c.analytic, 4),
            f(c.des_simulated, 4),
            f(c.des_half_width, 4),
            c.within_tolerance,
        );
    }

    validate_report(&report)
        .unwrap_or_else(|reason| panic!("campaign invariants violated: {reason}"));

    let json = serde_json::to_string(&report).expect("serialise report");
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("output dir");
        }
    }
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("\nwrote {out}");

    // Close the loop: the artefacts on disk must validate — the report
    // against its invariants, and the telemetry stream against the report.
    let back: CampaignReport =
        serde_json::from_str(&std::fs::read_to_string(&out).expect("re-read")).expect("re-parse");
    validate_report(&back).expect("written artefact validates");
    if let (Some(path), Some(sink)) = (&telemetry_path, &jsonl) {
        sink.flush().unwrap_or_else(|e| panic!("flush {path}: {e}"));
        assert_eq!(sink.write_errors(), 0, "telemetry stream had write errors");
        let file = std::fs::File::open(path).unwrap_or_else(|e| panic!("re-open {path}: {e}"));
        // mvml-allow(telemetry_purity): post-write self-check rereads the stream this binary just produced
        let records = read_jsonl(file).unwrap_or_else(|e| panic!("re-read {path}: {e}"));
        validate_telemetry(&back, &records)
            .unwrap_or_else(|reason| panic!("telemetry inconsistent with report: {reason}"));
        println!("wrote {path} ({} records, cross-validated)", records.len());
    }
}
