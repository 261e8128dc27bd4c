//! The module-health process with reactive and time-triggered proactive
//! rejuvenation that drives fault injection in the AV case study (paper
//! Section VII-A, "Parameters") and the runtime campaign.
//!
//! [`StateProcess`] plays the paper's own nets, Fig. 2 ([`reactive_only`])
//! or Fig. 3 ([`with_proactive`](crate::dspn::with_proactive), with the
//! configured [`VictimRule`]), on [`mvml_petri::Simulator`], the token game
//! behind the Table V DES, so the solvers, the structural certificate and
//! the runtime share one model. Every state change is a firing of that net,
//! except [`StateProcess::report_failure`]'s forced token move. In
//! particular, a trigger accepted while a module is non-functional waits in
//! `Pac` and starts its rejuvenation once the repair ends. The net counts modules per state; which module a firing
//! moves is drawn uniformly from a second seeded stream.

pub use crate::dspn::VictimRule;

use crate::dspn::{reactive_only, with_proactive_victims};
use crate::module::ModuleState;
use crate::params::SystemParams;
use mvml_petri::{Net, PlaceId, SimConfig, Simulator, TransitionId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of a [`StateProcess`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessConfig {
    /// Timing parameters (`mttc`, `mttf`, rejuvenation durations/interval).
    pub params: SystemParams,
    /// Whether proactive rejuvenation is active (Fig. 3; otherwise Fig. 2).
    pub proactive: bool,
    /// How an accepted trigger picks its victim.
    pub victims: VictimRule,
}

impl ProcessConfig {
    /// The paper's CARLA case-study configuration (2/3 compromised priority).
    pub fn carla(proactive: bool) -> Self {
        ProcessConfig {
            params: SystemParams::carla_case_study(),
            proactive,
            victims: VictimRule::Priority(2.0 / 3.0),
        }
    }

    /// The net the steady-state solvers use (Table I's victim weights).
    pub fn dspn_aligned(params: SystemParams, proactive: bool) -> Self {
        ProcessConfig {
            params,
            proactive,
            victims: VictimRule::Proportional,
        }
    }
}

/// An event produced by the state process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StateEvent {
    /// Module transitioned H → C (inject a fresh fault now).
    Compromised {
        /// Index of the module.
        module: usize,
    },
    /// Module transitioned C → N (it stops responding).
    Failed {
        /// Index of the module.
        module: usize,
    },
    /// Reactive rejuvenation of a non-functional module completed (N → H).
    Recovered {
        /// Index of the module.
        module: usize,
    },
    /// A proactive trigger selected this module; it is now rejuvenating.
    ProactiveStarted {
        /// Index of the module.
        module: usize,
        /// Whether the victim was compromised (vs healthy).
        was_compromised: bool,
    },
    /// Proactive rejuvenation completed (R → H).
    ProactiveCompleted {
        /// Index of the module.
        module: usize,
    },
    /// A trigger fired while a rejuvenation was pending or in flight.
    TriggerDropped,
}

/// A [`StateEvent`] with its absolute occurrence time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Absolute simulation time of the event.
    pub time: f64,
    /// The event itself.
    pub event: StateEvent,
}

/// The health process of `n` modules: the Fig. 2/3 net played in time, with
/// module identities attached to its firings.
#[derive(Debug, Clone)]
pub struct StateProcess {
    sim: Simulator<Arc<Net>>,
    /// Healthy, compromised and non-functional module places.
    pmh: PlaceId,
    pmc: PlaceId,
    pmf: PlaceId,
    states: Vec<ModuleState>,
    /// Picks which module of a state a firing moves.
    picker: StdRng,
}

impl StateProcess {
    /// Creates a process with `n` healthy modules at time 0.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n` exceeds [`crate::dspn::MAX_MODULES`], the
    /// parameters fail validation, or a victim priority is outside
    /// `[0, 1]`.
    #[allow(clippy::expect_used)] // documented constructor panic
    pub fn new(n: usize, cfg: ProcessConfig, seed: u64) -> Self {
        assert!(n > 0, "need at least one module");
        cfg.params.validate().expect("invalid parameters");
        let n32 = u32::try_from(n).expect("module count fits the net");
        let mv = if cfg.proactive {
            with_proactive_victims(n32, &cfg.params, cfg.victims)
        } else {
            reactive_only(n32, &cfg.params)
        }
        .expect("the health net builds from validated parameters");
        let chain = SimConfig::default().max_immediate_chain;
        StateProcess {
            sim: Simulator::new(Arc::new(mv.net), seed, chain)
                .expect("the health net has no immediate cycle"),
            pmh: mv.pmh,
            pmc: mv.pmc,
            pmf: mv.pmf,
            states: vec![ModuleState::Healthy; n],
            picker: StdRng::seed_from_u64(seed ^ 0x6D6F_6475_6C65),
        }
    }

    /// Current module states.
    pub fn states(&self) -> &[ModuleState] {
        &self.states
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.sim.time()
    }

    /// `(healthy, compromised, non-functional-or-rejuvenating)` counts.
    pub fn state_counts(&self) -> (usize, usize, usize) {
        let (h, c) = (
            self.count(ModuleState::Healthy),
            self.count(ModuleState::Compromised),
        );
        (h, c, self.states.len() - h - c)
    }

    fn count(&self, state: ModuleState) -> usize {
        self.states.iter().filter(|&&s| s == state).count()
    }

    /// Reports an externally *detected* failure of `module` (e.g. a runtime
    /// watchdog escalation): an operational module is forced to
    /// [`ModuleState::NonFunctional`] immediately, a forced token move into
    /// the net's `Pmf`, where the ordinary reactive-repair transition `Tr`
    /// (rate `μ`) picks it up. Returns `true` if the module's state changed
    /// — `false` for out-of-range indices or modules already under
    /// repair/rejuvenation.
    ///
    /// This is the runtime-assurance coupling of the paper's architecture:
    /// the DSPN's `Tf` models modules *crashing on their own*; the watchdog
    /// adds a detection-driven path into the same repair loop, so detected
    /// misbehaviour recovers at the modelled reactive rate instead of
    /// lingering as a compromised voter.
    #[allow(clippy::expect_used)] // module states mirror the marking
    pub fn report_failure(&mut self, module: usize) -> bool {
        let from = match self.states.get(module) {
            Some(ModuleState::Healthy) => self.pmh,
            Some(ModuleState::Compromised) => self.pmc,
            _ => return false,
        };
        let fired = self
            .sim
            .force_move(from, self.pmf)
            .expect("the place holds the module");
        // `Pmf` now inhibits the only immediates that could fire (`Trj1`/`Trj2`).
        debug_assert!(fired.is_empty(), "a forced failure fires nothing");
        self.states[module] = ModuleState::NonFunctional;
        true
    }

    /// Advances the process by `dt`, returning every event that occurred,
    /// in chronological order.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative or non-finite.
    pub fn advance(&mut self, dt: f64) -> Vec<TimedEvent> {
        #[allow(clippy::expect_used)] // documented panic; the net's rates are constant
        let fired = self
            .sim
            .advance(dt)
            .expect("dt must be finite and non-negative");
        fired
            .into_iter()
            .filter_map(|(time, t)| self.apply(t).map(|event| TimedEvent { time, event }))
            .collect()
    }

    /// Moves one module as the firing of `t` does and names the event;
    /// `None` for the clock (`Trc`) and trigger acceptance (`Tac`), which
    /// move no module.
    #[allow(clippy::expect_used)] // module states mirror the marking
    fn apply(&mut self, t: TransitionId) -> Option<StateEvent> {
        use ModuleState::{Compromised, Healthy, NonFunctional, Rejuvenating};
        let (from, to) = match self.sim.net().transition_name(t) {
            "Tc" => (Healthy, Compromised),
            "Tf" => (Compromised, NonFunctional),
            "Tr" => (NonFunctional, Healthy),
            "Trj" => (Rejuvenating, Healthy),
            "Trj1" => (Compromised, Rejuvenating),
            "Trj2" => (Healthy, Rejuvenating),
            "Tdrop" => return Some(StateEvent::TriggerDropped),
            _ => return None,
        };
        let nth = self.picker.random_range(0..self.count(from));
        let module = (0..self.states.len())
            .filter(|&m| self.states[m] == from)
            .nth(nth)
            .expect("the firing's input place holds this many modules");
        self.states[module] = to;
        Some(match (from, to) {
            (_, Compromised) => StateEvent::Compromised { module },
            (_, NonFunctional) => StateEvent::Failed { module },
            (NonFunctional, _) => StateEvent::Recovered { module },
            (Rejuvenating, _) => StateEvent::ProactiveCompleted { module },
            _ => StateEvent::ProactiveStarted {
                module,
                was_compromised: from == Compromised,
            },
        })
    }
}

#[cfg(test)]
// Exact float assertions are deliberate here: the expected values are
// produced by the same deterministic arithmetic being tested.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn carla_proc(proactive: bool, seed: u64) -> StateProcess {
        StateProcess::new(3, ProcessConfig::carla(proactive), seed)
    }

    #[test]
    fn starts_all_healthy() {
        let p = carla_proc(true, 0);
        assert_eq!(p.states(), &[ModuleState::Healthy; 3]);
        assert_eq!(p.state_counts(), (3, 0, 0));
        assert_eq!(p.time(), 0.0);
    }

    #[test]
    fn modules_degrade_over_time_without_proactive() {
        let mut p = carla_proc(false, 1);
        let events = p.advance(60.0);
        assert!(p.time() == 60.0);
        // With a global compromise rate of 1/8 s⁻¹ over 60 s, compromises
        // are near-certain.
        assert!(
            events
                .iter()
                .any(|e| matches!(e.event, StateEvent::Compromised { .. })),
            "no compromise in 60 s is implausible"
        );
        assert!(!events.iter().any(|e| matches!(
            e.event,
            StateEvent::ProactiveStarted { .. } | StateEvent::TriggerDropped
        )));
    }

    #[test]
    fn proactive_triggers_fire_at_interval() {
        let mut p = carla_proc(true, 2);
        let events = p.advance(10.0);
        let proactive: Vec<&TimedEvent> = events
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    StateEvent::ProactiveStarted { .. } | StateEvent::TriggerDropped
                )
            })
            .collect();
        // Interval 3 s over 10 s → triggers at 3, 6, 9 (some may be dropped).
        assert_eq!(proactive.len(), 3, "{proactive:?}");
        assert!((proactive[0].time - 3.0).abs() < 1e-9);
    }

    #[test]
    fn events_are_chronological() {
        let mut p = carla_proc(true, 3);
        let events = p.advance(120.0);
        for w in events.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(!events.is_empty());
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = carla_proc(true, 42);
        let mut b = carla_proc(true, 42);
        assert_eq!(a.advance(50.0), b.advance(50.0));
        let mut c = carla_proc(true, 43);
        assert_ne!(a.advance(50.0), c.advance(50.0));
    }

    #[test]
    fn proactive_keeps_more_modules_healthy() {
        let healthy_fraction = |proactive: bool, seed: u64| {
            let mut p = carla_proc(proactive, seed);
            let mut healthy_time = 0.0;
            let step = 0.05;
            let total = 2_000.0;
            let mut t = 0.0;
            while t < total {
                let _ = p.advance(step);
                healthy_time += p.state_counts().0 as f64 * step;
                t += step;
            }
            healthy_time / (total * 3.0)
        };
        let with = healthy_fraction(true, 7);
        let without = healthy_fraction(false, 7);
        assert!(
            with > without + 0.1,
            "proactive {with} should clearly beat reactive-only {without}"
        );
    }

    #[test]
    fn compromises_are_sequential_by_default() {
        // With rejuvenation disabled, measure the mean first-compromise
        // time over many seeds; sequential semantics give ≈ mttc.
        let mut first_times = Vec::new();
        for seed in 0..400 {
            let mut p = carla_proc(false, seed);
            let events = p.advance(200.0);
            if let Some(e) = events
                .iter()
                .find(|e| matches!(e.event, StateEvent::Compromised { .. }))
            {
                first_times.push(e.time);
            }
        }
        let mean: f64 = first_times.iter().sum::<f64>() / first_times.len() as f64;
        // Sequential (single-server) semantics: mean first compromise ≈ 8 s
        // (three per-module clocks racing would give ≈ 8/3 s).
        assert!((mean - 8.0).abs() < 1.2, "mean first compromise {mean}");
    }

    #[test]
    fn rejuvenating_modules_block_triggers() {
        let mut p = StateProcess::new(
            3,
            ProcessConfig {
                params: SystemParams {
                    mttc: 1e12, // effectively never compromise
                    mttf: 1e12,
                    proactive_time: 100.0, // rejuvenation outlasts interval
                    rejuvenation_interval: 3.0,
                    ..SystemParams::carla_case_study()
                },
                proactive: true,
                victims: VictimRule::Priority(2.0 / 3.0),
            },
            0,
        );
        let events = p.advance(7.0);
        let started = events
            .iter()
            .filter(|e| matches!(e.event, StateEvent::ProactiveStarted { .. }))
            .count();
        let dropped = events
            .iter()
            .filter(|e| matches!(e.event, StateEvent::TriggerDropped))
            .count();
        assert_eq!(started, 1, "only the first trigger is accepted");
        assert_eq!(dropped, 1, "the second trigger (t=6) is dropped");
    }

    #[test]
    fn trigger_accepted_during_repair_waits_for_it() {
        // Fig. 3's reactive precedence: a trigger that arrives while a
        // module is non-functional is accepted into `Pac`, later triggers
        // are dropped, and the rejuvenation starts the instant the repair
        // ends.
        let mut p = StateProcess::new(
            3,
            ProcessConfig {
                params: SystemParams {
                    mttc: 1e12,
                    mttf: 1e12,
                    reactive_time: 20.0,
                    rejuvenation_interval: 3.0,
                    ..SystemParams::carla_case_study()
                },
                proactive: true,
                victims: VictimRule::Priority(2.0 / 3.0),
            },
            4,
        );
        assert!(p.report_failure(0));
        let events = p.advance(500.0);
        let recovered = events
            .iter()
            .find(|e| e.event == StateEvent::Recovered { module: 0 })
            .expect("the repair completes");
        assert!(recovered.time > 6.0, "repair at {}", recovered.time);
        let first_start = events
            .iter()
            .find(|e| matches!(e.event, StateEvent::ProactiveStarted { .. }))
            .expect("the waiting trigger starts a rejuvenation");
        assert_eq!(first_start.time, recovered.time);
        assert!(events
            .iter()
            .take_while(|e| e.time < recovered.time)
            .all(|e| e.event == StateEvent::TriggerDropped));
    }

    #[test]
    fn events_do_not_depend_on_how_time_is_sliced() {
        let mut sliced = carla_proc(true, 8);
        let mut events = Vec::new();
        for _ in 0..400 {
            events.extend(sliced.advance(0.05));
        }
        let mut whole = carla_proc(true, 8);
        assert_eq!(events, whole.advance(20.0));
        assert!(events.len() > 10, "{events:?}");
        assert_eq!(sliced.states(), whole.states());
    }

    #[test]
    fn module_states_follow_the_net_marking() {
        // The process is the Fig. 3 net with names attached: its
        // (H, C, N+R) counts are the stepper's marking on the same net and
        // seed at every step, a forced failure included.
        use crate::dspn::with_proactive_victims;
        let cfg = ProcessConfig::carla(true);
        let mut p = StateProcess::new(3, cfg, 13);
        let mv = with_proactive_victims(3, &cfg.params, cfg.victims).expect("net");
        let (pmh, pmc, pmf, pmr) = (mv.pmh, mv.pmc, mv.pmf, mv.pmr.expect("Fig. 3"));
        let chain = SimConfig::default().max_immediate_chain;
        let mut sim = Simulator::new(mv.net, 13, chain).expect("stepper");
        let mut moved = 0;
        for step in 0..4_000 {
            let events = p.advance(0.05);
            let fired = sim.advance(0.05).expect("advance");
            let moving: Vec<f64> = fired
                .iter()
                .filter(|&&(_, t)| !matches!(sim.net().transition_name(t), "Trc" | "Tac"))
                .map(|&(time, _)| time)
                .collect();
            assert_eq!(events.iter().map(|e| e.time).collect::<Vec<_>>(), moving);
            if step % 500 == 250 {
                if let Some(m) = p.states().iter().position(|s| s.is_operational()) {
                    let from = if p.states()[m] == ModuleState::Healthy {
                        pmh
                    } else {
                        pmc
                    };
                    assert!(p.report_failure(m));
                    assert!(sim.force_move(from, pmf).expect("forced").is_empty());
                    moved += 1;
                }
            }
            let m = sim.marking();
            let marked = (m[pmh] as usize, m[pmc] as usize, (m[pmf] + m[pmr]) as usize);
            assert_eq!(p.state_counts(), marked, "step {step}");
        }
        assert!(moved > 4, "{moved} forced moves");
    }

    #[test]
    fn reactive_recovery_happens() {
        let mut p = carla_proc(false, 9);
        let events = p.advance(400.0);
        assert!(events
            .iter()
            .any(|e| matches!(e.event, StateEvent::Failed { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.event, StateEvent::Recovered { .. })));
    }

    #[test]
    fn reported_failures_recover_reactively() {
        let mut p = carla_proc(false, 11);
        assert!(p.report_failure(1), "healthy module can be failed");
        assert_eq!(p.states()[1], ModuleState::NonFunctional);
        assert!(!p.report_failure(1), "already non-functional: no-op");
        assert!(!p.report_failure(99), "out of range: no-op");
        // The ordinary reactive repair (rate μ = 1/0.2 s⁻¹) picks it up.
        let events = p.advance(30.0);
        assert!(
            events
                .iter()
                .any(|e| matches!(e.event, StateEvent::Recovered { module: 1 })),
            "reported failure must recover through the reactive path"
        );
    }

    #[test]
    #[should_panic(expected = "at least one module")]
    fn zero_modules_rejected() {
        let _ = StateProcess::new(0, ProcessConfig::carla(true), 0);
    }
}
