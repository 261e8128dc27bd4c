//! Regenerates the paper's **Table VII**: impact of the rejuvenation
//! interval (3, 5, 7, 9 s) on driving safety, on route #1.
//!
//! Usage: `cargo run -p mvml-bench --release --bin table7_interval [runs] [--quick]`

// Experiment drivers, not library code: when a solver or file write
// fails there is no caller to recover, so aborting loudly via
// unwrap/expect is the right behaviour (workspace policy sets these
// lints to warn; CI promotes warnings to errors).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mvml_avsim::runner::{aggregate_route, RunConfig};
use mvml_avsim::town::route;
use mvml_avsim::{DetectorBank, DetectorTrainConfig};
use mvml_bench::format::{f, opt, render_table};
use mvml_obs::Recorder;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let runs: usize = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(|a| a.parse().expect("runs must be an integer"))
        .unwrap_or(5);

    eprintln!("training detector bank…");
    let bank = if quick {
        let cfg = DetectorTrainConfig {
            scenes: 300,
            epochs: 3,
            ..DetectorTrainConfig::default()
        };
        DetectorBank::train(&cfg)
    } else {
        mvml_bench::casestudy::standard_bank()
    };
    let r1 = route(1).expect("route 1");

    println!("Table VII — impact of the rejuvenation interval (route #1, {runs} runs each)\n");
    let mut rows = Vec::new();
    let mut totals = (Vec::new(), Vec::new(), Vec::new(), 0usize, 0usize);
    for interval in [3.0, 5.0, 7.0, 9.0] {
        eprintln!("interval 1/γ = {interval} s…");
        let mut cfg = RunConfig::case_study(true, 0x71AB);
        cfg.process.params.rejuvenation_interval = interval;
        let agg = aggregate_route(&r1, &bank, &cfg, runs, &Recorder::disabled());
        rows.push(vec![
            f(interval, 0),
            opt(agg.first_collision_frame, 0),
            f(agg.avg_frames, 0),
            format!("{}%", f(agg.collision_rate, 2)),
            format!("{}/{}", agg.runs_with_collision, agg.runs),
        ]);
        if let Some(fc) = agg.first_collision_frame {
            totals.0.push(fc);
        }
        totals.1.push(agg.avg_frames);
        totals.2.push(agg.collision_rate);
        totals.3 += agg.runs_with_collision;
        totals.4 += agg.runs;
    }
    let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    rows.push(vec![
        "Avg/Total".to_string(),
        if totals.0.is_empty() {
            "NA".into()
        } else {
            f(avg(&totals.0), 0)
        },
        f(avg(&totals.1), 0),
        format!("{}%", f(avg(&totals.2), 2)),
        format!("{}/{}", totals.3, totals.4),
    ]);
    println!(
        "{}",
        render_table(
            &[
                "1/γ (s)",
                "1st coll.",
                "Total frames",
                "Coll. rate",
                "#Coll."
            ],
            &rows
        )
    );
    println!("Paper reference: 3s→0.00% (0/5), 5s→1.27% (1/5), 7s→8.93% (2/5), 9s→10.44% (3/5).");
}
