//! Sweeps the module count `n = 1..=8` for both rejuvenation variants and
//! records how expected output reliability scales past the paper's
//! three-version ceiling — the sweep the closed forms could not support.
//!
//! For every configuration the solver's provenance (backend, state count,
//! residual) is recorded next to the number. At `n ≤ 3` each value is
//! cross-checked against a solve that uses the retained closed-form reward
//! and against the paper's Table V; at `n = 5` the analytic value is
//! cross-checked against discrete-event simulation. Writes
//! `results/NSCALE_core.json`.
//!
//! Usage: `cargo run -p mvml-bench --release --bin nscale`

// Experiment drivers, not library code: when a solver or file write
// fails there is no caller to recover, so aborting loudly via
// unwrap/expect is the right behaviour (workspace policy sets these
// lints to warn; CI promotes warnings to errors).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mvml_bench::format::{f, render_table};
use mvml_core::dspn::{
    expected_system_reliability_with_info, reactive_only, with_proactive, SolveOptions,
};
use mvml_core::reliability::state_reliability;
use mvml_core::{StateReliability, SystemParams, SystemState};
use mvml_obs::Recorder;
use mvml_petri::{
    erlang_expand, simulate, solve_steady, ExpectedReward, SimConfig, SolutionMethod,
};
use serde::Serialize;

const MAX_N: u32 = 8;
const ERLANG_K: u32 = 16;

/// Paper Table V, indexed `[n - 1][proactive]`.
const PAPER_TABLE_V: [[f64; 2]; 3] = [
    [0.848211, 0.920217],
    [0.943875, 0.967152],
    [0.903190, 0.952998],
];

#[derive(Serialize)]
struct Entry {
    n: u32,
    variant: &'static str,
    reliability: f64,
    backend: &'static str,
    states: usize,
    residual: f64,
    /// `|generic − closed-form-reward|` on the same chain (`n ≤ 3` only).
    closed_form_delta: Option<f64>,
    /// Paper's simulated Table V value (`n ≤ 3` only).
    paper_value: Option<f64>,
}

#[derive(Serialize)]
struct DesCrossCheck {
    n: u32,
    variant: &'static str,
    analytic: f64,
    simulated: f64,
    /// 99.7% batch-means confidence half-width of the simulated estimate.
    half_width: f64,
    within_ci: bool,
}

#[derive(Serialize)]
struct Report {
    erlang_k: u32,
    entries: Vec<Entry>,
    des_cross_check: DesCrossCheck,
}

/// Solves the same chain with the *retained closed-form* reward — the
/// regression oracle for the generic model at `n ≤ 3`.
fn closed_form_reference(n: u32, proactive: bool, params: &SystemParams) -> f64 {
    let mv = if proactive {
        with_proactive(n, params).expect("net")
    } else {
        reactive_only(n, params).expect("net")
    };
    let net = if proactive {
        erlang_expand(&mv.net, ERLANG_K).expect("expansion")
    } else {
        mv.net
    };
    let sol = solve_steady(
        &net,
        &SolutionMethod::Auto,
        &SolveOptions::default().solver,
        &Recorder::disabled(),
    )
    .expect("steady state");
    // Non-functional (failed or rejuvenating) modules leave the vote; the
    // closed form only sees the functional split.
    let (pmh, pmc) = (mv.pmh, mv.pmc);
    sol.expected_reward(|m| state_reliability(m[pmh] as usize, m[pmc] as usize, params))
}

fn des_cross_check(params: &SystemParams) -> DesCrossCheck {
    let n = 5;
    let opts = SolveOptions {
        erlang_k: ERLANG_K,
        ..SolveOptions::default()
    };
    let (analytic, _) =
        expected_system_reliability_with_info(n, true, params, &opts).expect("analytic");
    let mv = with_proactive(n, params).expect("net");
    let sim = simulate(
        &mv.net,
        &SimConfig {
            horizon: 2_000_000.0,
            warmup: 10_000.0,
            seed: 2025,
            ..SimConfig::default()
        },
    )
    .expect("simulation");
    let model = StateReliability::new(params);
    let (pmh, pmc, pmf, pmr) = (mv.pmh, mv.pmc, mv.pmf, mv.pmr.expect("proactive"));
    let (simulated, half_width) = sim.reward_ci(
        |m| {
            model.reliability_of(SystemState::new(
                m[pmh] as usize,
                m[pmc] as usize,
                (m[pmf] + m[pmr]) as usize,
            ))
        },
        3.0,
    );
    DesCrossCheck {
        n,
        variant: "proactive",
        analytic,
        simulated,
        half_width,
        within_ci: (analytic - simulated).abs() <= half_width,
    }
}

fn main() {
    let params = SystemParams::paper_table_iv();
    let opts = SolveOptions {
        erlang_k: ERLANG_K,
        ..SolveOptions::default()
    };

    let mut entries = Vec::new();
    for n in 1..=MAX_N {
        for proactive in [false, true] {
            let variant = if proactive { "proactive" } else { "reactive" };
            eprintln!("solving n = {n} {variant}…");
            let (reliability, info) =
                expected_system_reliability_with_info(n, proactive, &params, &opts)
                    .expect("DSPN solution");
            let (closed_form_delta, paper_value) = if n <= 3 {
                let reference = closed_form_reference(n, proactive, &params);
                let delta = (reliability - reference).abs();
                assert!(
                    delta <= 1e-9,
                    "n = {n} {variant}: generic reward {reliability} deviates from \
                     closed-form reward {reference}"
                );
                let paper = PAPER_TABLE_V[(n - 1) as usize][usize::from(proactive)];
                assert!(
                    (reliability - paper).abs() < 5e-3,
                    "n = {n} {variant}: {reliability} vs paper Table V {paper}"
                );
                (Some(delta), Some(paper))
            } else {
                (None, None)
            };
            entries.push(Entry {
                n,
                variant,
                reliability,
                backend: info.backend.name(),
                states: info.states,
                residual: info.residual,
                closed_form_delta,
                paper_value,
            });
        }
    }

    let des = des_cross_check(&params);
    assert!(
        des.within_ci,
        "n = 5 analytic {} outside simulation CI {} ± {}",
        des.analytic, des.simulated, des.half_width
    );

    println!("n-scaling sweep — expected output reliability (Erlang-{ERLANG_K})\n");
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.n.to_string(),
                e.variant.to_string(),
                f(e.reliability, 6),
                e.backend.to_string(),
                e.states.to_string(),
                format!("{:.2e}", e.residual),
                e.paper_value.map_or_else(|| "—".into(), |v| f(v, 6)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["n", "variant", "E[R]", "backend", "states", "residual", "paper"],
            &rows
        )
    );
    println!(
        "n = 5 proactive DES cross-check: analytic {} vs simulated {} ± {} (99.7% CI)",
        f(des.analytic, 6),
        f(des.simulated, 6),
        f(des.half_width, 6),
    );

    let report = Report {
        erlang_k: ERLANG_K,
        entries,
        des_cross_check: des,
    };
    let json = serde_json::to_string(&report).expect("serialise report");
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/NSCALE_core.json", json).expect("write NSCALE_core.json");
    println!("wrote results/NSCALE_core.json");
}
