//! Discrete-event Monte-Carlo simulation of DSPNs.
//!
//! The simulator implements race semantics with *enabling memory* for
//! deterministic transitions (a deterministic transition remembers how long
//! it has been enabled and fires when its delay expires; the memory is
//! cleared when it becomes disabled) and resampling semantics for
//! exponential transitions (valid by memorylessness). Immediate transitions
//! fire in zero time, selected by priority and then weight.
//!
//! [`Simulator`] is the token game stepped through time; [`simulate`]
//! plays it to a horizon for steady-state estimates, with warm-up deletion
//! plus the method of batch means: the post-warm-up horizon is split into
//! equal batches whose means provide a confidence interval.

use crate::enabling::{effective_rate, enabled_immediates, enabled_timed, fire};
use crate::error::PetriError;
use crate::marking::Marking;
use crate::model::{Net, PlaceId, Timing, TransitionId};
use crate::reward::ExpectedReward;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// Configuration for [`simulate`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Total simulated time.
    pub horizon: f64,
    /// Initial portion of the run discarded before statistics are collected.
    pub warmup: f64,
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Number of batches for the batch-means confidence interval.
    pub batches: usize,
    /// Abort after this many consecutive zero-time firings (livelock guard).
    pub max_immediate_chain: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            horizon: 100_000.0,
            warmup: 1_000.0,
            seed: 0xD5F0_2025,
            batches: 20,
            max_immediate_chain: 10_000,
        }
    }
}

/// Time-averaged occupancy statistics produced by [`simulate`].
#[derive(Debug)]
pub struct SimResult {
    /// Fraction of (post-warm-up) time spent in each visited marking.
    /// Ordered so reward summation is reproducible run-to-run (`HashMap`
    /// iteration order would perturb float sums by an ulp).
    occupancy: BTreeMap<Marking, f64>,
    /// Per-batch occupancy fractions, for confidence intervals.
    batch_occupancy: Vec<BTreeMap<Marking, f64>>,
    /// Observed simulated time after warm-up.
    pub observed_time: f64,
    /// Number of transition firings (timed + immediate).
    pub firings: u64,
}

impl SimResult {
    /// Fraction of time spent in the exact marking `m`.
    pub fn occupancy_of(&self, m: &Marking) -> f64 {
        self.occupancy.get(m).copied().unwrap_or(0.0)
    }

    /// Number of distinct markings visited after warm-up.
    pub fn distinct_markings(&self) -> usize {
        self.occupancy.len()
    }

    /// Point estimate and half-width of a `z`-scaled batch-means confidence
    /// interval for the time-averaged `reward` (use `z = 1.96` for ~95%).
    pub fn reward_ci<F: Fn(&Marking) -> f64>(&self, reward: F, z: f64) -> (f64, f64) {
        let b = self.batch_occupancy.len();
        if b < 2 {
            return (self.expected_reward(reward), f64::INFINITY);
        }
        let means: Vec<f64> = self
            .batch_occupancy
            .iter()
            .map(|occ| occ.iter().map(|(m, frac)| frac * reward(m)).sum::<f64>())
            .collect();
        let mean = means.iter().sum::<f64>() / b as f64;
        let var = means.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (b as f64 - 1.0);
        (mean, z * (var / b as f64).sqrt())
    }

    /// Largest `z`-scaled batch-means confidence half-width over the
    /// occupancy fraction of any visited marking — the simulation analogue
    /// of an analytic solver's balance residual (reported by
    /// [`crate::solve::SolutionInfo`]).
    pub fn max_occupancy_half_width(&self, z: f64) -> f64 {
        let b = self.batch_occupancy.len();
        if b < 2 {
            return f64::INFINITY;
        }
        let mut worst = 0.0f64;
        for marking in self.occupancy.keys() {
            let means: Vec<f64> = self
                .batch_occupancy
                .iter()
                .map(|occ| occ.get(marking).copied().unwrap_or(0.0))
                .collect();
            let mean = means.iter().sum::<f64>() / b as f64;
            let var = means.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (b as f64 - 1.0);
            let hw = z * (var / b as f64).sqrt();
            if hw > worst {
                worst = hw;
            }
        }
        worst
    }
}

impl ExpectedReward for SimResult {
    fn expected_reward<F: Fn(&Marking) -> f64>(&self, reward: F) -> f64 {
        self.occupancy
            .iter()
            .map(|(m, frac)| frac * reward(m))
            .sum()
    }
}

/// Samples an exponential delay with the given rate via inverse transform.
fn sample_exp(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.random::<f64>();
    // Guard against u == 1.0 (ln(0)); rand's f64 is in [0, 1).
    -(1.0 - u).ln() / rate
}

/// A timed transition firing: its absolute time and the transition.
pub type Firing = (f64, TransitionId);

/// The token game of a net stepped through time, for callers that run a net
/// as a live process; [`simulate`] plays it to a horizon. The next timed
/// firing is drawn once and kept until it fires, so the trajectory depends
/// on the net and the seed alone, not on how [`Simulator::advance`] slices
/// time; only [`Simulator::force_move`] draws it again.
#[derive(Debug, Clone)]
pub struct Simulator<N: Borrow<Net> = Net> {
    net: N,
    marking: Marking,
    rng: StdRng,
    max_immediate_chain: usize,
    /// Time of the last firing or forced move.
    changed_at: f64,
    /// Time the game has been advanced to.
    now: f64,
    /// Enabling-memory timers of deterministic transitions, counted from
    /// `changed_at`. Ordered so that a race between two equal residuals
    /// resolves identically run-to-run.
    det_remaining: BTreeMap<usize, f64>,
    /// The race drawn at `changed_at`: delay and winner (`None` in a dead
    /// marking); `None` until drawn.
    race: Option<(f64, Option<usize>)>,
    firings: u64,
}

impl<N: Borrow<Net>> Simulator<N> {
    /// Starts the game at time 0 in the net's initial marking, firing the
    /// immediate transitions it enables.
    ///
    /// # Errors
    ///
    /// [`PetriError::ImmediateLivelock`] if immediate transitions fire
    /// `max_immediate_chain` times without time advancing.
    pub fn new(net: N, seed: u64, max_immediate_chain: usize) -> Result<Self, PetriError> {
        let mut sim = Simulator {
            marking: net.borrow().initial_marking(),
            net,
            rng: StdRng::seed_from_u64(seed),
            max_immediate_chain,
            changed_at: 0.0,
            now: 0.0,
            det_remaining: BTreeMap::new(),
            race: None,
            firings: 0,
        };
        sim.fire_immediates(&mut Vec::new())?;
        Ok(sim)
    }

    /// The net being played.
    pub fn net(&self) -> &Net {
        self.net.borrow()
    }

    /// The current marking.
    pub fn marking(&self) -> &Marking {
        &self.marking
    }

    /// The time the game has been advanced to.
    pub fn time(&self) -> f64 {
        self.now
    }

    /// Advances the game by `dt`, returning every firing (timed, then the
    /// immediates it enabled) in chronological order. A firing exactly at
    /// the new time is included.
    ///
    /// # Errors
    ///
    /// * [`PetriError::InvalidParameter`] for a negative or non-finite
    ///   `dt`, or a non-positive marking-dependent rate.
    /// * [`PetriError::ImmediateLivelock`] as in [`Simulator::new`].
    pub fn advance(&mut self, dt: f64) -> Result<Vec<Firing>, PetriError> {
        if !dt.is_finite() || dt < 0.0 {
            return Err(PetriError::InvalidParameter {
                what: format!("advance by {dt}"),
            });
        }
        let deadline = self.now + dt;
        let mut fired = Vec::new();
        while self.next_change()? <= deadline {
            self.fire_next(&mut fired)?;
        }
        self.now = deadline;
        Ok(fired)
    }

    /// Moves one token from `from` to `to` now, outside the net's
    /// transitions (an external intervention such as a detected failure).
    /// Enabling-memory timers keep their elapsed time, the race is drawn
    /// again, and the immediate transitions the move enables fire at once;
    /// their firings are returned.
    ///
    /// # Errors
    ///
    /// * [`PetriError::InvalidParameter`] if `from` holds no token.
    /// * [`PetriError::ImmediateLivelock`] as in [`Simulator::new`].
    pub fn force_move(&mut self, from: PlaceId, to: PlaceId) -> Result<Vec<Firing>, PetriError> {
        if self.marking[from] == 0 {
            let what = format!("no token to move from `{}`", self.net().place_name(from));
            return Err(PetriError::InvalidParameter { what });
        }
        let elapsed = self.now - self.changed_at;
        for remaining in self.det_remaining.values_mut() {
            *remaining -= elapsed;
        }
        self.changed_at = self.now;
        self.marking.set(from.0, self.marking[from] - 1);
        self.marking.set(to.0, self.marking[to] + 1);
        self.race = None;
        let mut fired = Vec::new();
        self.fire_immediates(&mut fired)?;
        Ok(fired)
    }

    /// Absolute time of the next timed firing (infinite in a dead
    /// marking), drawing the race first if it is not drawn yet.
    fn next_change(&mut self) -> Result<f64, PetriError> {
        if let Some((delay, _)) = self.race {
            return Ok(self.changed_at + delay);
        }
        let net = self.net.borrow();
        let timed = enabled_timed(net, &self.marking);
        // Seed timers for newly-enabled deterministic transitions and drop
        // timers for disabled ones.
        self.det_remaining.retain(|tid, _| timed.contains(tid));
        for &tid in &timed {
            if let Timing::Deterministic { delay } = net.transitions[tid].timing {
                self.det_remaining.entry(tid).or_insert(delay);
            }
        }
        // Race: earliest event wins.
        let mut winner = None;
        let mut min_delay = f64::INFINITY;
        for &tid in &timed {
            let delay = match &net.transitions[tid].timing {
                Timing::Exponential { .. } => {
                    let rate = effective_rate(net, tid, &self.marking).expect("exponential");
                    if !rate.is_finite() || rate <= 0.0 {
                        return Err(PetriError::InvalidParameter {
                            what: format!(
                                "rate {rate} of `{}` in marking {}",
                                net.transitions[tid].name, self.marking
                            ),
                        });
                    }
                    sample_exp(&mut self.rng, rate)
                }
                Timing::Deterministic { .. } => self.det_remaining[&tid],
                Timing::Immediate { .. } => unreachable!(),
            };
            if delay < min_delay {
                min_delay = delay;
                winner = Some(tid);
            }
        }
        self.race = Some((min_delay, winner));
        Ok(self.changed_at + min_delay)
    }

    /// Fires the drawn race's winner and the immediates it enables.
    fn fire_next(&mut self, fired: &mut Vec<Firing>) -> Result<(), PetriError> {
        let Some((delay, Some(winner))) = self.race.take() else {
            unreachable!("only a drawn, finite race fires");
        };
        self.changed_at += delay;
        for remaining in self.det_remaining.values_mut() {
            *remaining -= delay;
        }
        self.det_remaining.remove(&winner);
        self.marking = fire(self.net.borrow(), winner, &self.marking);
        self.firings += 1;
        fired.push((self.changed_at, TransitionId(winner)));
        self.fire_immediates(fired)
    }

    fn fire_immediates(&mut self, fired: &mut Vec<Firing>) -> Result<(), PetriError> {
        let net = self.net.borrow();
        for _ in 0..self.max_immediate_chain {
            let enabled = enabled_immediates(net, &self.marking);
            if enabled.is_empty() {
                return Ok(());
            }
            let total: f64 = enabled.iter().map(|&(_, w)| w).sum();
            let mut pick = self.rng.random::<f64>() * total;
            let mut chosen = enabled[enabled.len() - 1].0;
            for &(tid, w) in &enabled {
                if pick < w {
                    chosen = tid;
                    break;
                }
                pick -= w;
            }
            self.marking = fire(net, chosen, &self.marking);
            self.firings += 1;
            fired.push((self.changed_at, TransitionId(chosen)));
        }
        Err(PetriError::ImmediateLivelock)
    }
}

/// Runs a discrete-event simulation of `net`.
///
/// # Errors
///
/// * [`PetriError::InvalidParameter`] for non-positive horizon/batches or a
///   warm-up that consumes the whole horizon, or for a non-positive
///   marking-dependent rate at runtime.
/// * [`PetriError::ImmediateLivelock`] if immediate transitions fire
///   `max_immediate_chain` times without time advancing.
pub fn simulate(net: &Net, cfg: &SimConfig) -> Result<SimResult, PetriError> {
    if cfg.horizon <= 0.0
        || cfg.warmup < 0.0
        || cfg.warmup >= cfg.horizon
        || !cfg.horizon.is_finite()
    {
        return Err(PetriError::InvalidParameter {
            what: format!("horizon {} / warmup {}", cfg.horizon, cfg.warmup),
        });
    }
    if cfg.batches == 0 {
        return Err(PetriError::InvalidParameter {
            what: "batches = 0".to_string(),
        });
    }

    let observed = cfg.horizon - cfg.warmup;
    let batch_len = observed / cfg.batches as f64;

    let mut occupancy: BTreeMap<Marking, f64> = BTreeMap::new();
    let mut batch_occupancy: Vec<BTreeMap<Marking, f64>> = vec![BTreeMap::new(); cfg.batches];

    let mut accumulate = |marking: &Marking, from: f64, to: f64| {
        let a = from.max(cfg.warmup);
        let b = to.min(cfg.horizon);
        if b <= a {
            return;
        }
        *occupancy.entry(marking.clone()).or_insert(0.0) += b - a;
        // Split across batch boundaries.
        let mut lo = a - cfg.warmup;
        let hi = b - cfg.warmup;
        while lo < hi {
            let batch = ((lo / batch_len) as usize).min(cfg.batches - 1);
            let edge = ((batch + 1) as f64 * batch_len).min(hi);
            *batch_occupancy[batch].entry(marking.clone()).or_insert(0.0) += edge - lo;
            lo = edge;
        }
    };

    let mut sim = Simulator::new(net, cfg.seed, cfg.max_immediate_chain)?;
    let mut fired = Vec::new();
    while sim.changed_at < cfg.horizon {
        // A dead (absorbing) marking never changes: it is held until the
        // horizon.
        let next_t = sim.next_change()?;
        accumulate(sim.marking(), sim.changed_at, next_t);
        if next_t >= cfg.horizon {
            break;
        }
        fired.clear();
        sim.fire_next(&mut fired)?;
    }

    // Normalise to fractions.
    for v in occupancy.values_mut() {
        *v /= observed;
    }
    for batch in &mut batch_occupancy {
        for v in batch.values_mut() {
            *v /= batch_len;
        }
    }

    Ok(SimResult {
        occupancy,
        batch_occupancy,
        observed_time: observed,
        firings: sim.firings,
    })
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
    fn simulation_matches_analytic_availability() {
        let net = two_state(0.1, 1.0);
        let cfg = SimConfig {
            horizon: 200_000.0,
            warmup: 1_000.0,
            seed: 7,
            ..SimConfig::default()
        };
        let res = simulate(&net, &cfg).unwrap();
        let up = net.place_by_name("up").unwrap();
        let avail = res.probability(|m| m[up] == 1);
        let expected = 1.0 / 1.1;
        assert!((avail - expected).abs() < 0.01, "avail={avail}");
        assert!(res.firings > 1_000);
        assert!((res.observed_time - 199_000.0).abs() < 1e-9);
    }

    #[test]
    fn simulation_agrees_with_ctmc_solver() {
        let net = two_state(0.4, 0.7);
        let ss = steady_state(&net).unwrap();
        let res = simulate(
            &net,
            &SimConfig {
                horizon: 500_000.0,
                warmup: 100.0,
                seed: 42,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let up = net.place_by_name("up").unwrap();
        let exact = ss.probability(|m| m[up] == 1);
        let (est, hw) = res.reward_ci(|m| if m[up] == 1 { 1.0 } else { 0.0 }, 3.0);
        assert!(
            (est - exact).abs() < hw.max(0.01),
            "est={est}±{hw} exact={exact}"
        );
    }

    #[test]
    fn deterministic_renewal_fraction() {
        // Up for exactly D, down Exp(mu): up-fraction D/(D+1/mu).
        let mut b = NetBuilder::new("renewal");
        let up = b.place("up", 1);
        let down = b.place("down", 0);
        let wear = b.deterministic("wear", 5.0);
        let repair = b.exponential("repair", 1.0);
        b.input_arc(up, wear, 1).unwrap();
        b.output_arc(wear, down, 1).unwrap();
        b.input_arc(down, repair, 1).unwrap();
        b.output_arc(repair, up, 1).unwrap();
        let net = b.build().unwrap();

        let res = simulate(
            &net,
            &SimConfig {
                horizon: 120_000.0,
                warmup: 500.0,
                seed: 3,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let up_id = net.place_by_name("up").unwrap();
        let frac = res.probability(|m| m[up_id] == 1);
        assert!((frac - 5.0 / 6.0).abs() < 0.01, "frac={frac}");
    }

    #[test]
    fn immediate_weights_respected() {
        // exp -> vanishing choice between two sinks with weights 1:3, each
        // sink returns via exp. Long-run time in sinks splits 1:3.
        let mut b = NetBuilder::new("w");
        let src = b.place("src", 1);
        let mid = b.place("mid", 0);
        let a = b.place("a", 0);
        let c = b.place("c", 0);
        let go = b.exponential("go", 1.0);
        let ia = b.immediate_with("ia", 1, 1.0);
        let ic = b.immediate_with("ic", 1, 3.0);
        let ra = b.exponential("ra", 1.0);
        let rc = b.exponential("rc", 1.0);
        b.input_arc(src, go, 1).unwrap();
        b.output_arc(go, mid, 1).unwrap();
        b.input_arc(mid, ia, 1).unwrap();
        b.output_arc(ia, a, 1).unwrap();
        b.input_arc(mid, ic, 1).unwrap();
        b.output_arc(ic, c, 1).unwrap();
        b.input_arc(a, ra, 1).unwrap();
        b.output_arc(ra, src, 1).unwrap();
        b.input_arc(c, rc, 1).unwrap();
        b.output_arc(rc, src, 1).unwrap();
        let net = b.build().unwrap();

        let res = simulate(
            &net,
            &SimConfig {
                horizon: 150_000.0,
                warmup: 100.0,
                seed: 11,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let a_id = net.place_by_name("a").unwrap();
        let c_id = net.place_by_name("c").unwrap();
        let fa = res.probability(|m| m[a_id] == 1);
        let fc = res.probability(|m| m[c_id] == 1);
        let ratio = fc / fa;
        assert!((ratio - 3.0).abs() < 0.3, "ratio={ratio}");
    }

    #[test]
    fn determinism_per_seed() {
        let net = two_state(0.2, 0.9);
        let cfg = SimConfig {
            horizon: 5_000.0,
            warmup: 10.0,
            seed: 99,
            ..SimConfig::default()
        };
        let r1 = simulate(&net, &cfg).unwrap();
        let r2 = simulate(&net, &cfg).unwrap();
        assert_eq!(r1.firings, r2.firings);
        let up = net.place_by_name("up").unwrap();
        assert_eq!(
            r1.probability(|m| m[up] == 1),
            r2.probability(|m| m[up] == 1)
        );
    }

    #[test]
    fn absorbing_marking_is_held_to_horizon() {
        let mut b = NetBuilder::new("absorb");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let t = b.exponential("t", 100.0);
        b.input_arc(p, t, 1).unwrap();
        b.output_arc(t, q, 1).unwrap();
        let net = b.build().unwrap();
        let res = simulate(
            &net,
            &SimConfig {
                horizon: 1_000.0,
                warmup: 1.0,
                seed: 1,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let q_id = net.place_by_name("q").unwrap();
        assert!(res.probability(|m| m[q_id] == 1) > 0.99);
    }

    /// A clock `tick` (deterministic) feeding a choice between two
    /// immediates, racing an exponential up/down pair.
    fn clocked() -> Net {
        let mut b = NetBuilder::new("clocked");
        let up = b.place("up", 1);
        let down = b.place("down", 0);
        let clock = b.place("clock", 1);
        let fired = b.place("fired", 0);
        let fail = b.exponential("fail", 0.7);
        let repair = b.exponential("repair", 1.3);
        let tick = b.deterministic("tick", 0.4);
        let left = b.immediate_with("left", 1, 1.0);
        let right = b.immediate_with("right", 1, 2.0);
        b.input_arc(up, fail, 1).unwrap();
        b.output_arc(fail, down, 1).unwrap();
        b.input_arc(down, repair, 1).unwrap();
        b.output_arc(repair, up, 1).unwrap();
        b.input_arc(clock, tick, 1).unwrap();
        b.output_arc(tick, fired, 1).unwrap();
        for t in [left, right] {
            b.input_arc(fired, t, 1).unwrap();
            b.output_arc(t, clock, 1).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn stepper_trajectory_does_not_depend_on_slicing() {
        let net = clocked();
        let mut whole = Simulator::new(&net, 21, 100).unwrap();
        let all = whole.advance(20.0).unwrap();
        let mut sliced = Simulator::new(&net, 21, 100).unwrap();
        let mut parts = Vec::new();
        for _ in 0..400 {
            parts.extend(sliced.advance(0.05).unwrap());
        }
        assert_eq!(parts, all);
        assert_eq!(sliced.marking(), whole.marking());
        // Every tick is followed at once by one of the two immediates.
        let tick = net.transition_by_name("tick").unwrap();
        let ticks: Vec<usize> = (0..all.len()).filter(|&i| all[i].1 == tick).collect();
        assert_eq!(ticks.len(), 50);
        for i in ticks {
            assert_eq!(all[i + 1].0, all[i].0);
            assert!(matches!(
                net.transition_name(all[i + 1].1),
                "left" | "right"
            ));
        }
        assert!(whole.advance(-1.0).is_err());
    }

    #[test]
    fn forced_move_keeps_clock_memory_and_redraws_the_race() {
        let net = clocked();
        let (up, down) = (
            net.place_by_name("up").unwrap(),
            net.place_by_name("down").unwrap(),
        );
        let mut sim = Simulator::new(&net, 5, 100).unwrap();
        let _ = sim.advance(0.25).unwrap();
        let from = if sim.marking()[up] == 1 { up } else { down };
        let to = if from == up { down } else { up };
        assert!(sim.force_move(from, to).unwrap().is_empty());
        assert_eq!(sim.marking()[to], 1);
        assert!(sim.force_move(from, to).is_err(), "`from` is empty now");
        // The clock keeps the 0.25 it has run: it still ticks at 0.4.
        let tick = net.transition_by_name("tick").unwrap();
        let fired = sim.advance(0.2).unwrap();
        let first_tick = fired.iter().find(|&&(_, t)| t == tick).unwrap();
        assert!((first_tick.0 - 0.4).abs() < 1e-12, "{fired:?}");
    }

    #[test]
    fn livelock_detected() {
        let mut b = NetBuilder::new("live");
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 0);
        let a = b.immediate("a");
        let z = b.immediate("z");
        b.input_arc(p0, a, 1).unwrap();
        b.output_arc(a, p1, 1).unwrap();
        b.input_arc(p1, z, 1).unwrap();
        b.output_arc(z, p0, 1).unwrap();
        let net = b.build().unwrap();
        assert!(matches!(
            simulate(&net, &SimConfig::default()),
            Err(PetriError::ImmediateLivelock)
        ));
    }

    #[test]
    fn config_validation() {
        let net = two_state(0.1, 1.0);
        let bad = SimConfig {
            horizon: 10.0,
            warmup: 10.0,
            ..SimConfig::default()
        };
        assert!(matches!(
            simulate(&net, &bad),
            Err(PetriError::InvalidParameter { .. })
        ));
        let bad = SimConfig {
            batches: 0,
            ..SimConfig::default()
        };
        assert!(matches!(
            simulate(&net, &bad),
            Err(PetriError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn batch_ci_covers_reasonably() {
        let net = two_state(0.5, 0.5);
        let res = simulate(
            &net,
            &SimConfig {
                horizon: 100_000.0,
                warmup: 100.0,
                seed: 5,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let up = net.place_by_name("up").unwrap();
        let (mean, hw) = res.reward_ci(|m| if m[up] == 1 { 1.0 } else { 0.0 }, 1.96);
        assert!(hw > 0.0 && hw < 0.05);
        assert!((mean - 0.5).abs() < 3.0 * hw + 0.01);
        // The worst per-marking occupancy half-width bounds this two-state
        // indicator's half-width and stays a small sampling error.
        let worst = res.max_occupancy_half_width(1.96);
        assert!(worst >= hw - 1e-12 && worst < 0.05, "worst={worst} hw={hw}");
    }
}
