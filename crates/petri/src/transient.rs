//! Transient analysis via uniformisation (Jensen's method).
//!
//! The paper evaluates steady-state reliability only; transient analysis is
//! the natural extension for questions like *"how quickly does expected
//! reliability degrade after deployment, and how does the first
//! rejuvenation bend the curve?"*. Given the CTMC of a (possibly
//! Erlang-expanded) net, the distribution at time `t` is
//!
//! ```text
//! π(t) = Σ_k  PoissonPMF(Λt, k) · π(0) Pᵏ,    P = I + Q/Λ
//! ```
//!
//! with `Λ` at least the maximal exit rate. The series is truncated once
//! the accumulated Poisson mass exceeds `1 − tol`.

use crate::ctmc::SteadyState;
use crate::error::PetriError;
use crate::marking::{Marking, MarkingIndex};
use crate::model::Net;
use crate::reach::{explore, ReachOptions, ReachabilityGraph};
use crate::reward::ExpectedReward;

/// The state distribution of a net at one time point.
#[derive(Debug)]
pub struct TransientSolution {
    markings: Vec<Marking>,
    probs: Vec<f64>,
    /// Marking → state id for point lookups (mirrors
    /// [`SteadyState::probability_of_marking`]), built on the first one.
    index: MarkingIndex,
    /// The time the distribution refers to.
    pub time: f64,
}

impl TransientSolution {
    fn new(markings: Vec<Marking>, probs: Vec<f64>, time: f64) -> Self {
        debug_assert_eq!(markings.len(), probs.len());
        TransientSolution {
            markings,
            probs,
            index: MarkingIndex::default(),
            time,
        }
    }

    /// Iterates over `(marking, probability)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Marking, f64)> {
        self.markings.iter().zip(self.probs.iter().copied())
    }

    /// Number of tangible markings.
    pub fn state_count(&self) -> usize {
        self.markings.len()
    }

    /// Probability of the exact marking `m` at this time (0 if unreachable).
    pub fn probability_of_marking(&self, m: &Marking) -> f64 {
        self.index
            .find(&self.markings, m)
            .map_or(0.0, |i| self.probs[i])
    }
}

impl ExpectedReward for TransientSolution {
    fn expected_reward<F: Fn(&Marking) -> f64>(&self, reward: F) -> f64 {
        self.iter().map(|(m, p)| p * reward(m)).sum()
    }
}

/// Computes the transient distribution of `net` at each time in `times`.
///
/// The net must contain no deterministic transitions (apply
/// [`crate::erlang_expand`] first). Times must be non-negative.
///
/// # Errors
///
/// Propagates reachability errors; returns [`PetriError::InvalidParameter`]
/// for negative times.
pub fn transient(
    net: &Net,
    times: &[f64],
    opts: &ReachOptions,
    tol: f64,
) -> Result<Vec<TransientSolution>, PetriError> {
    let graph = explore(net, opts)?;
    transient_of_graph(&graph, times, tol)
}

/// Computes transient distributions over a pre-computed reachability graph.
///
/// # Errors
///
/// Returns [`PetriError::InvalidParameter`] for negative times or an
/// invalid tolerance.
pub fn transient_of_graph(
    graph: &ReachabilityGraph,
    times: &[f64],
    tol: f64,
) -> Result<Vec<TransientSolution>, PetriError> {
    if !(tol > 0.0 && tol < 1.0) {
        return Err(PetriError::InvalidParameter {
            what: format!("tolerance {tol}"),
        });
    }
    for &t in times {
        if !(t.is_finite() && t >= 0.0) {
            return Err(PetriError::InvalidParameter {
                what: format!("time {t}"),
            });
        }
    }
    let n = graph.state_count();
    // Uniformisation constant: the largest exit rate (self-loops already
    // contribute nothing to off-diagonal movement).
    let lambda = (0..n)
        .map(|s| {
            graph
                .edges
                .row(s)
                .filter(|&(t, _)| t != s)
                .map(|(_, r)| r)
                .sum::<f64>()
        })
        .fold(0.0f64, f64::max)
        .max(1e-12)
        * 1.02;

    // DTMC step: v' = v P with P = I + Q/Λ.
    let step = |v: &[f64]| -> Vec<f64> {
        let mut out = vec![0.0f64; n];
        for s in 0..n {
            let mut stay = v[s];
            for (t, r) in graph.edges.row(s) {
                if t == s {
                    continue;
                }
                let p = r / lambda;
                out[t] += v[s] * p;
                stay -= v[s] * p;
            }
            out[s] += stay;
        }
        out
    };

    let mut pi0 = vec![0.0f64; n];
    for &(s, p) in &graph.initial {
        pi0[s] += p;
    }

    let mut solutions = Vec::with_capacity(times.len());
    for &t in times {
        if t == 0.0 {
            solutions.push(TransientSolution::new(
                graph.markings.clone(),
                pi0.clone(),
                t,
            ));
            continue;
        }
        let lt = lambda * t;
        // Poisson weights by forward recursion, with underflow care for
        // large Λt: start from the (scaled) mode.
        let mut acc = vec![0.0f64; n];
        let mut v = pi0.clone();
        let mut log_weight = -lt; // ln PoissonPMF(0)
        let mut cumulative = 0.0f64;
        let mut k = 0usize;
        let k_cap = (lt + 10.0 * lt.sqrt() + 50.0) as usize;
        loop {
            let weight = log_weight.exp();
            if weight > 0.0 {
                for (a, &x) in acc.iter_mut().zip(&v) {
                    *a += weight * x;
                }
                cumulative += weight;
            }
            if cumulative >= 1.0 - tol || k >= k_cap {
                break;
            }
            v = step(&v);
            k += 1;
            log_weight += (lt / k as f64).ln();
        }
        // Renormalise the truncated series.
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for a in &mut acc {
                *a /= total;
            }
        }
        solutions.push(TransientSolution::new(graph.markings.clone(), acc, t));
    }
    Ok(solutions)
}

/// Convenience: the transient distribution converges to the steady state;
/// returns the maximum absolute probability gap at time `t`.
pub fn distance_to_steady_state(solution: &TransientSolution, steady: &SteadyState) -> f64 {
    solution
        .iter()
        .map(|(m, p)| (p - steady.probability_of_marking(m)).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
// Exact float assertions are deliberate here: the expected values are
// produced by the same deterministic arithmetic being tested.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::ctmc::steady_state;
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
    fn matches_closed_form_two_state() {
        // Availability A(t) = μ/(λ+μ) + λ/(λ+μ) e^{-(λ+μ)t}, starting up.
        let (l, m) = (0.3, 0.7);
        let net = two_state(l, m);
        let up = net.place_by_name("up").unwrap();
        let times = [0.0, 0.5, 1.0, 2.0, 5.0, 20.0];
        let sols = transient(&net, &times, &ReachOptions::default(), 1e-12).unwrap();
        for sol in &sols {
            let a = sol.probability(|mk| mk[up] == 1);
            let expected = m / (l + m) + l / (l + m) * (-(l + m) * sol.time).exp();
            assert!(
                (a - expected).abs() < 1e-9,
                "t={}: {a} vs {expected}",
                sol.time
            );
        }
    }

    #[test]
    fn converges_to_steady_state() {
        let net = two_state(0.5, 1.5);
        let steady = steady_state(&net).unwrap();
        let sols = transient(&net, &[100.0], &ReachOptions::default(), 1e-12).unwrap();
        assert!(distance_to_steady_state(&sols[0], &steady) < 1e-9);
    }

    #[test]
    fn time_zero_is_initial_distribution() {
        let net = two_state(1.0, 1.0);
        let up = net.place_by_name("up").unwrap();
        let sols = transient(&net, &[0.0], &ReachOptions::default(), 1e-10).unwrap();
        assert_eq!(sols[0].probability(|m| m[up] == 1), 1.0);
        assert_eq!(sols[0].time, 0.0);
        assert_eq!(sols[0].state_count(), 2);
        assert_eq!(
            sols[0].probability_of_marking(&Marking::new(vec![1, 0])),
            1.0
        );
        assert_eq!(
            sols[0].probability_of_marking(&Marking::new(vec![9, 9])),
            0.0
        );
    }

    #[test]
    fn probabilities_remain_normalised() {
        let net = two_state(2.0, 0.1);
        let sols = transient(
            &net,
            &[0.1, 1.0, 10.0, 100.0],
            &ReachOptions::default(),
            1e-10,
        )
        .unwrap();
        for sol in sols {
            let total: f64 = sol.iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-9, "t={}: {total}", sol.time);
            assert!(sol.iter().all(|(_, p)| p >= 0.0));
        }
    }

    #[test]
    fn large_lambda_t_is_stable() {
        // Stiff rates and long horizon: log-space Poisson recursion must not
        // underflow to garbage.
        let net = two_state(100.0, 150.0);
        let steady = steady_state(&net).unwrap();
        let sols = transient(&net, &[50.0], &ReachOptions::default(), 1e-10).unwrap();
        assert!(distance_to_steady_state(&sols[0], &steady) < 1e-6);
    }

    #[test]
    fn rejects_bad_arguments() {
        let net = two_state(1.0, 1.0);
        assert!(transient(&net, &[-1.0], &ReachOptions::default(), 1e-10).is_err());
        assert!(transient(&net, &[1.0], &ReachOptions::default(), 0.0).is_err());
        assert!(transient(&net, &[f64::NAN], &ReachOptions::default(), 1e-10).is_err());
    }
}
