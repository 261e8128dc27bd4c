//! `dspn-sweep`: steady-state solves of the paper's DSPNs (Figs. 2 and 3)
//! for n = 1..8 modules, reactive and proactive, with Table IV
//! parameters and Erlang-16 clock expansion. Pure `petri` and
//! `core::dspn` work: no model inference, no sockets.
//!
//! One op is a sweep over all 16 cases in a seeded order. Every solve is
//! checked against reference values copied from `results/NSCALE_core.json`.

use crate::trace::{Name, SpanId, Tracer};
use crate::{alloc, per_op_us, set_up, stats, stream, Args, Outcome};
use mvml_core::dspn::{
    expected_system_reliability_with_info, reactive_only, with_proactive, SolveOptions,
};
use mvml_core::{StateReliability, SystemParams, SystemState};
use mvml_petri::reach::explore;
use mvml_petri::solve::solve_graph;
use mvml_petri::{erlang_expand, ExpectedReward, PetriError};
use rand::Rng;
use std::time::{Duration, Instant};

/// Largest accepted |E[R] - reference|.
const TOLERANCE: f64 = 1e-9;

/// Erlang stages of the deterministic-clock expansion, as in the reference.
const ERLANG_K: u32 = 16;

/// One reference case.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Case {
    n: u32,
    proactive: bool,
    reliability: f64,
    states: usize,
}

impl Case {
    fn matches(&self, reliability: f64, states: usize) -> bool {
        (reliability - self.reliability).abs() <= TOLERANCE && states == self.states
    }
}

fn reference() -> Vec<Case> {
    include_str!("../reference/nscale_core.tsv")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            Case {
                n: f[0].parse().expect("reference n"),
                proactive: f[1] == "proactive",
                reliability: f[2].parse().expect("reference reliability"),
                states: f[3].parse().expect("reference states"),
            }
        })
        .collect()
}

fn options() -> SolveOptions {
    SolveOptions {
        erlang_k: ERLANG_K,
        ..SolveOptions::default()
    }
}

struct Names {
    sweep: Name,
    solve: Name,
    build: Name,
    expand: Name,
    explore: Name,
    solve_graph: Name,
    reward: Name,
}

impl Names {
    fn new(t: &Tracer) -> Self {
        Names {
            sweep: t.name("dspn.sweep"),
            solve: t.name("core.dspn.solve"),
            build: t.name("core.dspn.build"),
            expand: t.name("petri.erlang.expand"),
            explore: t.name("petri.reach.explore"),
            solve_graph: t.name("petri.solve.solve_graph"),
            reward: t.name("petri.reward.expected_reward"),
        }
    }
}

/// `(E[R], tangible states)` through the one-call public API.
fn solve(
    case: &Case,
    params: &SystemParams,
    opts: &SolveOptions,
) -> Result<(f64, usize), PetriError> {
    expected_system_reliability_with_info(case.n, case.proactive, params, opts)
        .map(|(value, info)| (value, info.states))
}

/// The same solve driven through the public calls the one-call API makes
/// (net construction, Erlang expansion, reachability, linear solve,
/// reward), each in a span under a `core.dspn.solve` span. Also returns
/// the explore and solve-graph nanoseconds.
fn solve_staged(
    t: &Tracer,
    sweep: SpanId,
    names: &Names,
    case: &Case,
    params: &SystemParams,
    opts: &SolveOptions,
) -> Result<(f64, usize, [u64; 2]), PetriError> {
    let solve = t.open(names.solve, sweep);
    params
        .validate()
        .map_err(|what| PetriError::InvalidParameter { what })?;
    let mv = t.time(solve, names.build, || {
        if case.proactive {
            with_proactive(case.n, params)
        } else {
            reactive_only(case.n, params)
        }
    })?;
    let (pmh, pmc, pmf, pmr) = (mv.pmh, mv.pmc, mv.pmf, mv.pmr);
    let net = if case.proactive {
        t.time(solve, names.expand, || {
            erlang_expand(&mv.net, opts.erlang_k)
        })?
    } else {
        mv.net
    };
    let span = t.open(names.explore, solve);
    let graph = explore(&net, &opts.solver.reach);
    let explore_ns = t.close(span);
    let graph = graph?;
    let span = t.open(names.solve_graph, solve);
    let solution = solve_graph(&graph, &opts.method, &opts.solver);
    let solve_ns = t.close(span);
    let solution = solution?;
    let model = StateReliability::new(params);
    let value = t.time(solve, names.reward, || {
        solution.expected_reward(|m| {
            let rejuvenating = pmr.map_or(0, |p| m[p]) as usize;
            model.reliability_of(SystemState::new(
                m[pmh] as usize,
                m[pmc] as usize,
                m[pmf] as usize + rejuvenating,
            ))
        })
    });
    t.close(solve);
    Ok((value, solution.info().states, [explore_ns, solve_ns]))
}

/// A uniformly shuffled visiting order of `len` cases.
fn shuffled(rng: &mut impl Rng, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

/// Runs the workload; with a tracer, every other sweep goes through the
/// staged pipeline and the rest through the one-call API.
pub fn run(args: &Args, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let params = SystemParams::paper_table_iv();
    let opts = options();
    let mut out = Outcome::default();

    // Set-up: load the reference and run one checked warm-up sweep.
    let mut setup_ok = true;
    let (cases, setup_s) = set_up(|| {
        let cases = reference();
        for case in &cases {
            setup_ok &= matches!(solve(case, &params, &opts), Ok((v, s)) if case.matches(v, s));
        }
        Ok(cases)
    })?;
    out.check(
        "warm-up-sweep-matches-reference",
        setup_ok && cases.len() == 16,
    );

    let names = tracer.map(Names::new);
    let mut rng = stream(args.seed, 0xD5);
    let (mut sweeps, mut solves, mut errors, mut mismatches) = (0u64, 0u64, 0u64, 0u64);
    // Times of untraced sweeps and of their solves (all of them without a
    // tracer), and of traced sweeps.
    let (mut plain_ms, mut solve_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut states_traced, mut n8p_ns) = (0u64, [0u64; 2]);
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        let order = shuffled(&mut rng, cases.len());
        let staged = match (tracer, &names) {
            (Some(t), Some(n)) if sweeps % 2 == 0 => Some((t, n)),
            _ => None,
        };
        let (a0, b0) = alloc::snapshot();
        let t0 = Instant::now();
        let root = staged.map(|(t, n)| t.begin(n.sweep));
        for &i in &order {
            let case = &cases[i];
            let s0 = Instant::now();
            let result = match (staged, root) {
                (Some((t, n)), Some(root)) => {
                    solve_staged(t, root, n, case, &params, &opts).map(|(v, s, ns)| {
                        if case.n == 8 && case.proactive {
                            n8p_ns[0] += ns[0];
                            n8p_ns[1] += ns[1];
                        }
                        states_traced += s as u64;
                        (v, s)
                    })
                }
                _ => solve(case, &params, &opts),
            };
            if staged.is_none() {
                solve_ms.push(s0.elapsed().as_secs_f64() * 1e3);
            }
            solves += 1;
            match result {
                Ok((v, s)) if case.matches(v, s) => {}
                Ok(_) => mismatches += 1,
                Err(_) => errors += 1,
            }
        }
        match (staged, root) {
            (Some((t, _)), Some(root)) => traced_ms.push(t.end(root) as f64 / 1e6),
            _ => plain_ms.push(t0.elapsed().as_secs_f64() * 1e3),
        }
        let (a1, b1) = alloc::snapshot();
        allocs += a1 - a0;
        alloc_bytes += b1 - b0;
        sweeps += 1;
    }
    out.attempted = solves;
    out.failed = errors;
    out.check("every-solve-matches-reference", mismatches == 0);
    out.check("no-solver-errors", errors == 0);
    out.set("dspn.error_rate", stats::ratio(errors, solves));
    out.set_speed(&plain_ms, plain_ms.iter().sum::<f64>() / 1e3);
    // A run holds too few sweeps for a supported p99, so the tail is taken
    // over single solves.
    out.set_percentile("p99_ms", &solve_ms, 99);

    let (Some(t), Some(n)) = (tracer, &names) else {
        out.set("setup_s", setup_s);
        out.set("rss_mb", crate::peak_rss_mib().ok_or("VmHWM unavailable")?);
        return Ok(out);
    };
    let ops = t.ops(n.sweep);
    let stages = [
        ("core.dspn.build_us", n.build),
        ("petri.erlang.expand_us", n.expand),
        ("petri.reach.explore_us", n.explore),
        ("petri.solve.solve_graph_us", n.solve_graph),
        ("petri.reward.expected_reward_us", n.reward),
    ];
    let mut named = 0.0;
    for (metric, name) in stages {
        let us = per_op_us(t, name, ops);
        named += us;
        out.set(metric, us);
    }
    let per_op = |v: f64| v / ops.max(1) as f64;
    out.set(
        "core.dspn.unaccounted_us",
        per_op_us(t, n.sweep, ops) - named,
    );
    out.set("petri.reach.states_total", per_op(states_traced as f64));
    out.set("petri.n8p.explore_us", per_op(n8p_ns[0] as f64 / 1e3));
    out.set("petri.n8p.solve_graph_us", per_op(n8p_ns[1] as f64 / 1e3));
    out.set("alloc.per_op", allocs as f64 / sweeps.max(1) as f64);
    out.set(
        "alloc.bytes_per_op",
        alloc_bytes as f64 / sweeps.max(1) as f64,
    );
    out.set(
        "trace.overhead_pct",
        100.0 * (stats::median(&traced_ms) / stats::median(&plain_ms) - 1.0),
    );
    out.notes.push(format!(
        "{} traced and {} untraced sweeps",
        traced_ms.len(),
        plain_ms.len()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_holds_sixteen_cases_in_sweep_order() {
        let cases = reference();
        assert_eq!(cases.len(), 16);
        for (i, c) in cases.iter().enumerate() {
            assert_eq!(c.n as usize, i / 2 + 1);
            assert_eq!(c.proactive, i % 2 == 1);
        }
        assert_eq!(cases.iter().map(|c| c.states).sum::<usize>(), 6628);
    }

    #[test]
    fn staged_solve_equals_the_one_call_api() {
        let t = Tracer::new();
        let names = Names::new(&t);
        let params = SystemParams::paper_table_iv();
        let opts = options();
        for case in reference().iter().filter(|c| c.n <= 3) {
            let root = t.begin(names.sweep);
            let (v, s, _) = solve_staged(&t, root, &names, case, &params, &opts).expect("solves");
            t.end(root);
            assert_eq!((v, s), solve(case, &params, &opts).expect("solves"));
            assert!(case.matches(v, s), "{case:?} vs ({v}, {s})");
        }
        assert!(t.agg(names.expand).total_ns > 0 && t.agg(names.reward).total_ns > 0);
    }
}
