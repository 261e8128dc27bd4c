//! Regenerates the paper's **Table VI**: collision data of the three-version
//! perception system with and without time-triggered rejuvenation over the
//! eight routes (five runs each).
//!
//! Usage: `cargo run -p mvml-bench --release --bin table6_routes [runs] [--quick]`

// Experiment drivers, not library code: when a solver or file write
// fails there is no caller to recover, so aborting loudly via
// unwrap/expect is the right behaviour (workspace policy sets these
// lints to warn; CI promotes warnings to errors).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mvml_avsim::runner::RunConfig;
use mvml_avsim::{DetectorBank, DetectorTrainConfig};
use mvml_bench::casestudy::campaign;
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

    eprintln!("running 8 routes x {runs} runs, with rejuvenation…");
    let with_rej = campaign(
        &bank,
        &RunConfig::case_study(true, 0xCA51),
        runs,
        &Recorder::disabled(),
    );
    eprintln!("running 8 routes x {runs} runs, without rejuvenation…");
    let without = campaign(
        &bank,
        &RunConfig::case_study(false, 0xCA51),
        runs,
        &Recorder::disabled(),
    );

    println!("Table VI — collision data w/ and w/o rejuvenation over the 8 routes\n");
    let mut rows = Vec::new();
    for (w, wo) in with_rej.iter().zip(&without) {
        rows.push(vec![
            format!("#{}", w.route_id),
            opt(w.first_collision_frame, 0),
            opt(wo.first_collision_frame, 0),
            f(w.avg_frames, 0),
            f(wo.avg_frames, 0),
            f(w.collision_rate, 2),
            f(wo.collision_rate, 2),
            format!("{}/{}", w.runs_with_collision, w.runs),
            format!("{}/{}", wo.runs_with_collision, wo.runs),
        ]);
    }
    // Average / total row, as in the paper.
    let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let first_w: Vec<f64> = with_rej
        .iter()
        .filter_map(|a| a.first_collision_frame)
        .collect();
    let first_wo: Vec<f64> = without
        .iter()
        .filter_map(|a| a.first_collision_frame)
        .collect();
    rows.push(vec![
        "Avg/Total".to_string(),
        if first_w.is_empty() {
            "NA".into()
        } else {
            f(avg(&first_w), 0)
        },
        if first_wo.is_empty() {
            "NA".into()
        } else {
            f(avg(&first_wo), 0)
        },
        f(
            avg(&with_rej.iter().map(|a| a.avg_frames).collect::<Vec<_>>()),
            0,
        ),
        f(
            avg(&without.iter().map(|a| a.avg_frames).collect::<Vec<_>>()),
            0,
        ),
        f(
            avg(&with_rej
                .iter()
                .map(|a| a.collision_rate)
                .collect::<Vec<_>>()),
            2,
        ),
        f(
            avg(&without.iter().map(|a| a.collision_rate).collect::<Vec<_>>()),
            2,
        ),
        format!(
            "{}/{}",
            with_rej
                .iter()
                .map(|a| a.runs_with_collision)
                .sum::<usize>(),
            with_rej.iter().map(|a| a.runs).sum::<usize>()
        ),
        format!(
            "{}/{}",
            without.iter().map(|a| a.runs_with_collision).sum::<usize>(),
            without.iter().map(|a| a.runs).sum::<usize>()
        ),
    ]);
    println!(
        "{}",
        render_table(
            &[
                "Route",
                "1st coll. w/",
                "1st coll. w/o",
                "Frames w/",
                "Frames w/o",
                "Coll.% w/",
                "Coll.% w/o",
                "#Coll. w/",
                "#Coll. w/o",
            ],
            &rows
        )
    );

    let skip_w = avg(&with_rej.iter().map(|a| a.skip_ratio).collect::<Vec<_>>());
    println!(
        "Skipped-frame ratio with rejuvenation: {:.2}% (paper reports ≈2%)",
        100.0 * skip_w
    );
    println!(
        "Paper reference: w/ rejuvenation 0.00% collisions (0/40); w/o 33.54% avg, 33/40 runs, 1st col. avg frame 287."
    );
}
