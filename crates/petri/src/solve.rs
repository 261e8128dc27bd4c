//! A unified facade over the steady-state solution backends.
//!
//! The engine has three ways to obtain a stationary distribution — dense
//! Gaussian elimination, sparse Gauss–Seidel, and discrete-event simulation
//! — each with its own entry point and its own notion of accuracy. The
//! [`SolutionMethod`] facade selects among them with one enum, and every
//! solve reports *which backend actually ran* and *how good the answer is*
//! ([`SolutionInfo`]): the maximum relative balance-equation violation for
//! the analytic solvers, a batch-means sampling-error bound for the
//! simulator. Downstream code (e.g. `mvml-core`'s reliability solver and
//! the `nscale` sweep) records this provenance next to every number it
//! emits.
//!
//! The analytic backends read the reachability graph's CSR edges:
//! [`solve_graph`] transposes them once into a
//! [`crate::linalg::SparseGenerator`] (for Gauss–Seidel and the residual)
//! and hands the rows to [`crate::linalg::solve_dense`] directly. A
//! solution's marking lookup index is built on first use, not per solve,
//! and [`solve_steady`] moves the markings of the graph it explored into
//! the solution rather than copying them.

use crate::ctmc::SteadyState;
use crate::error::PetriError;
use crate::linalg::{global_balance_residual, solve_dense, solve_gauss_seidel, SparseGenerator};
use crate::marking::Marking;
use crate::model::Net;
use crate::reach::{explore, ReachabilityGraph};
use crate::reward::ExpectedReward;
use crate::sim::{simulate, SimConfig, SimResult};
use crate::SolverOptions;
use mvml_obs::{Recorder, TelemetryEvent};

/// Which steady-state backend to run.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub enum SolutionMethod {
    /// Dense elimination for chains up to [`SolverOptions::dense_threshold`]
    /// states, Gauss–Seidel above it, with a dense fallback if the iteration
    /// diverges — the engine's historical behaviour.
    #[default]
    Auto,
    /// Force dense Gaussian elimination (exact, `O(S³)`).
    Dense,
    /// Force sparse Gauss–Seidel (no dense fallback: divergence is an error).
    GaussSeidel,
    /// Discrete-event simulation with the given configuration. Unlike the
    /// analytic backends this handles deterministic transitions natively —
    /// no Erlang expansion needed.
    Simulation(SimConfig),
}

/// The backend that actually produced a solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Backend {
    /// Dense Gaussian elimination.
    Dense,
    /// Sparse Gauss–Seidel iteration.
    GaussSeidel,
    /// Discrete-event simulation.
    Simulation,
}

impl Backend {
    /// Stable lower-case name, for logs and result files.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Dense => "dense",
            Backend::GaussSeidel => "gauss-seidel",
            Backend::Simulation => "simulation",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Provenance and accuracy of a solved steady state.
#[derive(Debug, Clone)]
pub struct SolutionInfo {
    /// Backend that produced the distribution (after any `Auto` fallback).
    pub backend: Backend,
    /// Tangible states (analytic) or distinct visited markings (simulation).
    pub states: usize,
    /// Accuracy of the answer: the flow-normalised balance-equation
    /// violation for analytic backends
    /// ([`crate::linalg::global_balance_residual`]); for simulation, the
    /// largest 95% batch-means confidence half-width over per-marking
    /// occupancies.
    pub residual: f64,
}

#[derive(Debug)]
enum Repr {
    Analytic(SteadyState),
    Simulated(SimResult),
}

/// A steady-state solution from any backend, with its [`SolutionInfo`].
#[derive(Debug)]
pub struct Solution {
    repr: Repr,
    info: SolutionInfo,
}

impl Solution {
    /// Provenance and accuracy of this solution.
    pub fn info(&self) -> &SolutionInfo {
        &self.info
    }

    /// The analytic stationary distribution, if an analytic backend ran.
    pub fn steady_state(&self) -> Option<&SteadyState> {
        match &self.repr {
            Repr::Analytic(ss) => Some(ss),
            Repr::Simulated(_) => None,
        }
    }

    /// The simulation result, if the simulation backend ran.
    pub fn sim_result(&self) -> Option<&SimResult> {
        match &self.repr {
            Repr::Simulated(sim) => Some(sim),
            Repr::Analytic(_) => None,
        }
    }

    /// Consumes the solution into its analytic distribution, if any.
    pub fn into_steady_state(self) -> Option<SteadyState> {
        match self.repr {
            Repr::Analytic(ss) => Some(ss),
            Repr::Simulated(_) => None,
        }
    }

    /// Point estimate and half-width of a `z`-scaled confidence interval
    /// for the expected `reward`. Analytic backends report a zero
    /// half-width (their error is tracked by `info().residual` instead).
    pub fn reward_ci<F: Fn(&Marking) -> f64>(&self, reward: F, z: f64) -> (f64, f64) {
        match &self.repr {
            Repr::Analytic(ss) => (ss.expected_reward(reward), 0.0),
            Repr::Simulated(sim) => sim.reward_ci(reward, z),
        }
    }
}

impl ExpectedReward for Solution {
    fn expected_reward<F: Fn(&Marking) -> f64>(&self, reward: F) -> f64 {
        match &self.repr {
            Repr::Analytic(ss) => ss.expected_reward(reward),
            Repr::Simulated(sim) => sim.expected_reward(reward),
        }
    }
}

/// Solves `net` for its steady state with the chosen backend, emitting one
/// [`TelemetryEvent::SolverRun`] per successful solve to `recorder`: the
/// backend provenance (backend, state count, residual) as deterministic
/// content and the wall-clock solve time in the record's `timing` field.
/// Pass [`Recorder::disabled`] for no telemetry.
///
/// Analytic methods require a net without deterministic transitions (apply
/// [`crate::erlang_expand`] first); [`SolutionMethod::Simulation`] handles
/// them natively.
///
/// # Errors
///
/// Propagates reachability, solver and simulation errors; see
/// [`crate::steady_state`] and [`crate::simulate`].
pub fn solve_steady(
    net: &Net,
    method: &SolutionMethod,
    opts: &SolverOptions,
    recorder: &Recorder,
) -> Result<Solution, PetriError> {
    let span = recorder.span();
    let solution = match method {
        SolutionMethod::Simulation(cfg) => {
            let sim = simulate(net, cfg)?;
            let info = SolutionInfo {
                backend: Backend::Simulation,
                states: sim.distinct_markings(),
                residual: sim.max_occupancy_half_width(1.96),
            };
            Solution {
                repr: Repr::Simulated(sim),
                info,
            }
        }
        _ => {
            let graph = explore(net, &opts.reach)?;
            let (probs, info) = solve_chain(&graph, method, opts)?;
            // The graph dies here, so its markings move into the solution.
            Solution {
                repr: Repr::Analytic(SteadyState::new(graph.markings, probs)),
                info,
            }
        }
    };
    recorder.emit_timed(span.stop(), || TelemetryEvent::SolverRun {
        model: net.name().to_string(),
        backend: solution.info.backend.name().to_string(),
        states: solution.info.states,
        residual: solution.info.residual,
    });
    Ok(solution)
}

/// Solves a pre-computed reachability graph with an *analytic* backend.
///
/// # Errors
///
/// Returns [`PetriError::InvalidParameter`] for
/// [`SolutionMethod::Simulation`] (simulation needs the net, not its
/// graph); otherwise propagates solver errors.
pub fn solve_graph(
    graph: &ReachabilityGraph,
    method: &SolutionMethod,
    opts: &SolverOptions,
) -> Result<Solution, PetriError> {
    let (probs, info) = solve_chain(graph, method, opts)?;
    Ok(Solution {
        repr: Repr::Analytic(SteadyState::new(graph.markings.clone(), probs)),
        info,
    })
}

/// The stationary probabilities of `graph`'s chain, by state id.
fn solve_chain(
    graph: &ReachabilityGraph,
    method: &SolutionMethod,
    opts: &SolverOptions,
) -> Result<(Vec<f64>, SolutionInfo), PetriError> {
    let n = graph.state_count();
    let gen = SparseGenerator::from_outgoing(&graph.edges);
    let (probs, backend) = match method {
        SolutionMethod::Simulation(_) => {
            return Err(PetriError::InvalidParameter {
                what: "simulation backend requires the net, not a reachability graph".to_string(),
            })
        }
        SolutionMethod::Dense => (solve_dense(&graph.edges)?, Backend::Dense),
        SolutionMethod::GaussSeidel => (
            solve_gauss_seidel(&gen, opts.tolerance, opts.max_sweeps)?,
            Backend::GaussSeidel,
        ),
        SolutionMethod::Auto => {
            if n <= opts.dense_threshold {
                (solve_dense(&graph.edges)?, Backend::Dense)
            } else {
                match solve_gauss_seidel(&gen, opts.tolerance, opts.max_sweeps) {
                    Ok(p) => (p, Backend::GaussSeidel),
                    // Fall back to the exact solver on convergence trouble.
                    Err(PetriError::SolverDiverged { .. }) => {
                        (solve_dense(&graph.edges)?, Backend::Dense)
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    };
    let info = SolutionInfo {
        backend,
        states: n,
        residual: global_balance_residual(&gen, &probs),
    };
    Ok((probs, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetBuilder;

    fn two_state(fail: f64, repair: f64) -> Net {
        let mut b = NetBuilder::new("avail");
        let up = b.place("up", 1);
        let down = b.place("down", 0);
        let f = b.exponential("fail", fail);
        let r = b.exponential("repair", repair);
        b.input_arc(up, f, 1).unwrap();
        b.output_arc(f, down, 1).unwrap();
        b.input_arc(down, r, 1).unwrap();
        b.output_arc(r, up, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn all_backends_agree_on_availability() {
        let net = two_state(0.1, 1.0);
        let up = net.place_by_name("up").unwrap();
        let exact = 1.0 / 1.1;
        let opts = SolverOptions::default();

        for (method, expected_backend) in [
            (SolutionMethod::Auto, Backend::Dense),
            (SolutionMethod::Dense, Backend::Dense),
            (SolutionMethod::GaussSeidel, Backend::GaussSeidel),
        ] {
            let sol = solve_steady(&net, &method, &opts, &Recorder::disabled()).unwrap();
            assert_eq!(sol.info().backend, expected_backend, "{method:?}");
            assert_eq!(sol.info().states, 2);
            assert!(sol.info().residual < 1e-8, "{method:?}");
            let a = sol.probability(|m| m[up] == 1);
            assert!((a - exact).abs() < 1e-9, "{method:?}: {a}");
            assert!(sol.steady_state().is_some() && sol.sim_result().is_none());
            let (point, hw) = sol.reward_ci(|m| f64::from(m[up]), 1.96);
            assert!((point - exact).abs() < 1e-9);
            assert!(hw.abs() < f64::EPSILON);
        }

        let sim_method = SolutionMethod::Simulation(SimConfig {
            horizon: 200_000.0,
            warmup: 1_000.0,
            seed: 7,
            ..SimConfig::default()
        });
        let sol = solve_steady(
            &net,
            &sim_method,
            &SolverOptions::default(),
            &Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(sol.info().backend, Backend::Simulation);
        assert!(sol.info().residual > 0.0 && sol.info().residual < 0.05);
        assert!(sol.sim_result().is_some() && sol.steady_state().is_none());
        let (est, hw) = sol.reward_ci(|m| f64::from(m[up]), 3.0);
        assert!((est - exact).abs() < hw.max(0.01), "est={est}±{hw}");
    }

    #[test]
    fn auto_switches_to_gauss_seidel_above_threshold() {
        let net = two_state(0.3, 0.9);
        let opts = SolverOptions {
            dense_threshold: 1,
            ..SolverOptions::default()
        };
        let sol = solve_steady(&net, &SolutionMethod::Auto, &opts, &Recorder::disabled()).unwrap();
        assert_eq!(sol.info().backend, Backend::GaussSeidel);
    }

    #[test]
    fn simulation_on_graph_is_rejected() {
        let net = two_state(0.3, 0.9);
        let graph = explore(&net, &crate::ReachOptions::default()).unwrap();
        let method = SolutionMethod::Simulation(SimConfig::default());
        assert!(matches!(
            solve_graph(&graph, &method, &SolverOptions::default()),
            Err(PetriError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(Backend::Dense.to_string(), "dense");
        assert_eq!(Backend::GaussSeidel.to_string(), "gauss-seidel");
        assert_eq!(Backend::Simulation.to_string(), "simulation");
    }
}
