//! **Extension** (beyond the paper): ablations of the design choices the
//! architecture leaves open.
//!
//! 1. **Victim-selection policy** — the paper's analytic model picks
//!    proactive-rejuvenation victims with count-proportional weights
//!    (Table I), while its CARLA study uses a fixed 2/3 compromised
//!    priority. How much does the policy matter for long-run health? Every
//!    row runs the same Fig. 3 net and seed; only the victim weights differ.
//! 2. **Rejuvenation interval (analytic)** — where is the knee of the
//!    interval/reliability curve for the three-version system?
//! 3. **Erlang resolution** — how many phases does the deterministic-clock
//!    approximation need before the answer stops moving?
//!
//! Usage: `cargo run -p mvml-bench --release --bin ext_ablations`

// Experiment drivers, not library code: when a solver or file write
// fails there is no caller to recover, so aborting loudly via
// unwrap/expect is the right behaviour (workspace policy sets these
// lints to warn; CI promotes warnings to errors).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mvml_bench::format::{f, render_table};
use mvml_core::dspn::{expected_system_reliability, SolveOptions};
use mvml_core::rejuvenation::{ProcessConfig, StateProcess, VictimRule};
use mvml_core::SystemParams;

fn healthy_fraction(cfg: ProcessConfig, horizon: f64, seed: u64) -> (f64, f64) {
    let mut p = StateProcess::new(3, cfg, seed);
    let step = 0.05;
    let mut t = 0.0;
    let mut healthy_time = 0.0;
    let mut majority_time = 0.0;
    while t < horizon {
        let _ = p.advance(step);
        let (h, _, _) = p.state_counts();
        healthy_time += h as f64 * step;
        if h >= 2 {
            majority_time += step;
        }
        t += step;
    }
    (healthy_time / (horizon * 3.0), majority_time / horizon)
}

fn main() {
    let params = SystemParams::carla_case_study();

    println!("Ablation 1 — proactive victim-selection policy (CARLA parameters, 20 000 s)\n");
    // `None`: the Fig. 2 net, without proactive rejuvenation.
    let policies = [
        (
            "fixed priority 2/3 (paper case study)",
            Some(VictimRule::Priority(2.0 / 3.0)),
        ),
        (
            "fixed priority 1.0 (always compromised)",
            Some(VictimRule::Priority(1.0)),
        ),
        (
            "fixed priority 1/3 (mostly healthy)",
            Some(VictimRule::Priority(1.0 / 3.0)),
        ),
        (
            "proportional (DSPN Table I weights)",
            Some(VictimRule::Proportional),
        ),
        ("no proactive rejuvenation", None),
    ];
    let rows: Vec<Vec<String>> = policies
        .iter()
        .map(|&(label, victims)| {
            let cfg = ProcessConfig {
                params,
                proactive: victims.is_some(),
                victims: victims.unwrap_or(VictimRule::Proportional),
            };
            let (healthy, majority) = healthy_fraction(cfg, 20_000.0, 7);
            vec![label.to_string(), f(healthy, 4), f(majority, 4)]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["Policy", "healthy fraction", "healthy-majority fraction"],
            &rows
        )
    );

    println!("Ablation 2 — rejuvenation interval, three-version analytic E[R]\n");
    let base = SystemParams::paper_table_iv();
    let opts = SolveOptions::default();
    let rows: Vec<Vec<String>> = [30.0, 60.0, 120.0, 300.0, 600.0, 1200.0, 3000.0]
        .iter()
        .map(|&interval| {
            let p = SystemParams {
                rejuvenation_interval: interval,
                ..base
            };
            let r = expected_system_reliability(3, true, &p, &opts).expect("solve");
            vec![f(interval, 0), f(r, 6)]
        })
        .collect();
    println!("{}", render_table(&["1/γ (s)", "E[R] 3v w/ rej."], &rows));

    println!("Ablation 3 — Erlang-k resolution of the deterministic clock\n");
    let rows: Vec<Vec<String>> = [1u32, 2, 4, 8, 16, 32, 64, 96]
        .iter()
        .map(|&k| {
            let o = SolveOptions {
                erlang_k: k,
                ..SolveOptions::default()
            };
            let r = expected_system_reliability(3, true, &base, &o).expect("solve");
            vec![format!("{k}"), f(r, 7)]
        })
        .collect();
    println!("{}", render_table(&["k", "E[R] 3v w/ rej."], &rows));
    println!(
        "Expected shape: k = 1 (a plain exponential clock) visibly differs; the value\n\
         settles by k ≈ 16–32, supporting the default of 32."
    );
}
