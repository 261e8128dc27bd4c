//! The multi-version perception pipeline: diverse detector modules, the
//! trusted voter over detection sets, and the health/rejuvenation process.
//!
//! The module boundary between the detectors and the voter is `core`'s
//! [`GuardRuntime`], the same one the classifier system runs: fault
//! containment, the stale buffer, the sanitizer, watchdog escalation and
//! the fault log live there. This module keeps only what is particular to
//! detection: the per-module sensor noise, the fan-out of the forwards,
//! MAC counting, decoding and the detection voter. Module health is the
//! paper's Fig. 2/3 net played by the [`StateProcess`], which escalation
//! reaches through [`StateProcess::report_failure`].

use crate::bev::{add_sensor_noise, CELLS};
use crate::detector::{
    decode, train_detector_on, yolo_mini, DetectionSet, DetectorTrainConfig, VARIANTS,
};
use mvml_core::rejuvenation::{ProcessConfig, StateEvent, StateProcess, TimedEvent};
#[cfg(test)]
use mvml_core::watchdog::FaultEventKind;
use mvml_core::watchdog::{FaultEvent, FaultLog, WatchdogConfig};
use mvml_core::{GuardConfig, GuardRuntime, ModuleState, Verdict};
use mvml_faultinject::{random_weight_inj, RuntimeFault, RuntimeFaultPlan};
use mvml_nn::layer::Layer;
use mvml_nn::parallel::ThreadPool;
use mvml_nn::{ModelState, Sequential, Tensor};
use mvml_obs::{Recorder, TelemetryEvent, VoterOutcome, VotingRule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Approximate agreement over detection sets: the paper's voter accepts
/// "two equal/**similar** inputs"; two sets are similar when their
/// symmetric difference is at most `tolerance` cells.
///
/// * 3+ operational modules: the fused set contains every cell flagged by a
///   majority; the fused output is emitted if a majority of modules is
///   similar to it, otherwise the decision is skipped (R.1).
/// * 2 operational: emit the intersection if the two sets are similar,
///   otherwise skip (R.2).
/// * 1 operational: pass through (R.3).
pub fn vote_detections(
    proposals: &[Option<DetectionSet>],
    tolerance: usize,
) -> Verdict<DetectionSet> {
    let operational: Vec<&DetectionSet> = proposals.iter().flatten().collect();
    match operational.len() {
        0 => Verdict::NoModules,
        1 => Verdict::Output(operational[0].clone()),
        2 => {
            if operational[0].symmetric_difference_len(operational[1]) <= tolerance {
                let fused: DetectionSet = operational[0]
                    .iter()
                    .filter(|c| operational[1].contains(*c))
                    .collect();
                Verdict::Output(fused)
            } else {
                Verdict::Skip
            }
        }
        n => {
            let majority = n / 2 + 1;
            let fused: DetectionSet = (0..(CELLS * CELLS) as u16)
                .filter(|&c| operational.iter().filter(|s| s.contains(c)).count() >= majority)
                .collect();
            let supporters = operational
                .iter()
                .filter(|s| s.symmetric_difference_len(&fused) <= tolerance)
                .count();
            if supporters >= majority {
                Verdict::Output(fused)
            } else {
                Verdict::Skip
            }
        }
    }
}

/// Configuration of the multi-version perception system.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PerceptionConfig {
    /// Number of detector versions (1 or 3 in the paper's study).
    pub versions: usize,
    /// Whether time-triggered proactive rejuvenation is enabled.
    pub proactive: bool,
    /// Cell tolerance for approximate agreement.
    pub agreement_tolerance: usize,
    /// PyTorchFI injection range used when a module is compromised. The
    /// paper uses `(-100, 300)` on YOLOv5 (a ~60-layer network with
    /// BatchNorm + SiLU, which attenuates single-weight faults); our
    /// 3-layer ReLU detectors propagate faults differently (positive
    /// saturation floods, negative saturation suppresses), so the range is
    /// scaled to `(-800, 5)` (suppression-dominant) and targeted at the detection head to land
    /// the paper's behavioural mix of missed/garbled/intact detections
    /// (calibrated in `diag_faults`; see DESIGN.md).
    pub injection_range: (f32, f32),
    /// Parametric layer index targeted by the injection. The paper's YOLOv5
    /// has ~60 layers and injects layer 1; in our 3-layer detectors the
    /// behaviour-equivalent site (mixed missed/garbled/intact detections)
    /// is the 1x1 detection head, parametric layer 2 (calibrated in
    /// `diag_faults`; see DESIGN.md).
    pub injection_layer: usize,
    /// Runtime sensor noise.
    pub noise_sigma: f32,
    /// Runtime clutter probability.
    pub clutter: f64,
    /// Objectness threshold for decoding detections.
    pub threshold: f32,
    /// Number of weight faults injected per compromise event. The paper
    /// plants a single fault in YOLOv5 whose ~60 layers amplify it; our
    /// 3-layer detectors need a small burst to reach the same
    /// behaviour-level severity (compromised modules mostly produce broken
    /// detection sets).
    pub faults_per_compromise: usize,
    /// When `true` (default), a module whose logits contain a non-finite
    /// value is withheld from the voter for that frame instead of decoding
    /// garbage detections.
    pub sanitize: bool,
    /// Watchdog escalation policy for runtime faults: repeated detections
    /// force the module non-functional through the health process, so the
    /// reactive-rejuvenation path repairs it. `None` disables escalation.
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for PerceptionConfig {
    fn default() -> Self {
        PerceptionConfig {
            versions: 3,
            proactive: true,
            agreement_tolerance: 2,
            injection_range: (-800.0, 5.0),
            injection_layer: 2,
            noise_sigma: 0.08,
            clutter: 0.002,
            threshold: 0.5,
            faults_per_compromise: 3,
            sanitize: true,
            watchdog: Some(WatchdogConfig::default()),
        }
    }
}

/// A trained detector bank: the pristine weights every run starts from and
/// rejuvenation restores. Training is expensive, so banks are built once
/// and shared across runs.
#[derive(Debug, Clone)]
pub struct DetectorBank {
    models: Vec<Sequential>,
}

impl DetectorBank {
    /// Trains the three YOLO-mini variants (s/m/l analogues) from their own
    /// seeds on one shared set of scenes, fanned out across [`ThreadPool`]
    /// workers; every thread count gives the same bank.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.scenes` or `cfg.batch` is zero.
    pub fn train(cfg: &DetectorTrainConfig) -> Self {
        let scenes = crate::detector::training_scenes(cfg, cfg.scenes, cfg.seed);
        let jobs: Vec<(usize, &(&str, usize))> = VARIANTS.iter().enumerate().collect();
        let models = ThreadPool::new().map(jobs, |(i, &(name, channels))| {
            let mut m = yolo_mini(name, channels, cfg.seed + i as u64);
            let _ = train_detector_on(&mut m, &scenes, cfg);
            m
        });
        DetectorBank { models }
    }

    /// Builds a bank from pre-trained models (tests, custom variants).
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn from_models(models: Vec<Sequential>) -> Self {
        assert!(!models.is_empty(), "detector bank needs at least one model");
        DetectorBank { models }
    }

    /// Number of variants in the bank.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// `true` if the bank holds no models (never for constructed banks).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The trained models.
    pub fn models(&self) -> &[Sequential] {
        &self.models
    }
}

struct DetectorModule {
    model: Sequential,
    pristine: ModelState,
}

/// Per-frame output of the perception system.
#[derive(Debug, Clone)]
pub struct PerceptionFrame {
    /// The voter's verdict over the module proposals.
    pub verdict: Verdict<DetectionSet>,
    /// Module health states at the time of the frame.
    pub states: Vec<ModuleState>,
    /// Multiply-accumulate operations spent by operational modules.
    pub macs: u64,
    /// Runtime faults detected on this frame (panics, deadline misses,
    /// non-finite outputs, watchdog escalations).
    pub events: Vec<FaultEvent>,
}

/// The running multi-version perception system: detector modules whose
/// health follows a [`StateProcess`], with PyTorchFI-style faults planted on
/// compromise and pristine weights restored on rejuvenation.
pub struct MultiVersionPerception {
    modules: Vec<DetectorModule>,
    process: StateProcess,
    cfg: PerceptionConfig,
    rng: StdRng,
    injection_counter: u64,
    /// The module boundary: fault plan, stale buffers, watchdog, fault log,
    /// frame counter and the telemetry recorder.
    guard: GuardRuntime,
}

impl std::fmt::Debug for MultiVersionPerception {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MultiVersionPerception(versions={}, states={:?})",
            self.modules.len(),
            self.process.states()
        )
    }
}

impl MultiVersionPerception {
    /// Assembles the perception system from a trained bank.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.versions` is 0 or exceeds the bank size, or if the
    /// watchdog configuration has a zero window or threshold.
    pub fn new(
        bank: &DetectorBank,
        cfg: PerceptionConfig,
        process_cfg: ProcessConfig,
        seed: u64,
    ) -> Self {
        assert!(
            cfg.versions >= 1 && cfg.versions <= bank.len(),
            "versions must be in 1..={}",
            bank.len()
        );
        let guard = GuardConfig {
            deadline: None,
            sanitize: cfg.sanitize,
            watchdog: cfg.watchdog,
        };
        // Misconfiguration is part of this constructor's documented panic
        // contract; the typed-error path is `GuardRuntime::new`.
        #[allow(clippy::expect_used)]
        let guard = GuardRuntime::new(cfg.versions, guard)
            .expect("watchdog window and threshold must be positive");
        let modules = bank.models()[..cfg.versions]
            .iter()
            .map(|m| {
                let mut model = m.clone();
                let pristine = model.snapshot();
                DetectorModule { model, pristine }
            })
            .collect();
        MultiVersionPerception {
            modules,
            process: StateProcess::new(cfg.versions, process_cfg, seed),
            cfg,
            rng: StdRng::seed_from_u64(seed ^ 0xC0FF_EE00),
            injection_counter: 0,
            guard,
        }
    }

    /// Attaches a telemetry recorder: module inferences (with per-module
    /// forward latency), voter decisions, watchdog escalations, pool
    /// fan-outs and rejuvenation events are emitted. Strictly observe-only.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.guard.set_recorder(recorder);
    }

    /// Current module health states.
    pub fn states(&self) -> &[ModuleState] {
        self.process.states()
    }

    /// Attaches a deterministic runtime fault plan; `None` detaches it.
    pub fn set_fault_plan(&mut self, plan: Option<RuntimeFaultPlan>) {
        self.guard.set_fault_plan(plan);
    }

    /// The runtime fault-event log.
    pub fn fault_log(&self) -> &FaultLog {
        self.guard.fault_log()
    }

    /// Advances module health by `dt`, applying compromise faults and
    /// rejuvenation weight restores as events dictate. Returns the events.
    pub fn advance(&mut self, dt: f64) -> Vec<TimedEvent> {
        let events = self.process.advance(dt);
        for e in &events {
            match e.event {
                StateEvent::Failed { module } => {
                    // A failed module enters the reactive repair queue.
                    self.guard
                        .recorder()
                        .emit(|| TelemetryEvent::RejuvenationStarted {
                            module,
                            proactive: false,
                        });
                }
                StateEvent::ProactiveStarted { module, .. } => {
                    self.guard
                        .recorder()
                        .emit(|| TelemetryEvent::RejuvenationStarted {
                            module,
                            proactive: true,
                        });
                }
                StateEvent::Compromised { module } => {
                    let (lo, hi) = self.cfg.injection_range;
                    let layer = self.cfg.injection_layer;
                    for _ in 0..self.cfg.faults_per_compromise.max(1) {
                        self.injection_counter += 1;
                        let seed = self.rng.random::<u64>() ^ self.injection_counter;
                        let _ =
                            random_weight_inj(&mut self.modules[module].model, layer, lo, hi, seed);
                    }
                }
                StateEvent::Recovered { module } | StateEvent::ProactiveCompleted { module } => {
                    let m = &mut self.modules[module];
                    m.model.restore(&m.pristine);
                    // The fresh deployment starts with a clean slate: old
                    // faults must not count toward a new escalation, and a
                    // stale replay must not serve pre-rejuvenation output.
                    self.guard.reset_module(module);
                }
                _ => {}
            }
        }
        events
    }

    /// Runs one perception frame on a clean ground-truth BEV grid: each
    /// operational module sees its own noisy sensor view, proposes a
    /// detection set, and the voter fuses the proposals.
    ///
    /// Every module output crosses the [`GuardRuntime`] boundary: forwards
    /// are contained, injected latency/stale faults degrade to a missing or
    /// replayed proposal, and non-finite logits withhold the module's
    /// proposal for the frame (when [`PerceptionConfig::sanitize`] is on).
    /// All detections feed the watchdog; escalation forces the module
    /// non-functional through the health process, so the ordinary reactive
    /// repair picks it up.
    pub fn perceive(&mut self, clean_grid: &Tensor) -> PerceptionFrame {
        let states: Vec<ModuleState> = self.process.states().to_vec();
        let frame = self.guard.begin_frame();
        let n_samples = clean_grid.shape().first().copied().unwrap_or(0);
        // Draw every operational module's sensor view serially first: the
        // RNG stream advances in module order exactly as it always did, so
        // per-seed replays are byte-identical for any `MVML_THREADS` value.
        let mut macs = 0u64;
        let mut faults: Vec<Option<RuntimeFault>> = vec![None; self.modules.len()];
        let mut jobs: Vec<(usize, &mut Sequential, Tensor, Option<RuntimeFault>)> = Vec::new();
        for (i, (module, state)) in self.modules.iter_mut().zip(&states).enumerate() {
            if !state.is_operational() {
                continue;
            }
            let noisy = add_sensor_noise(
                clean_grid,
                self.cfg.noise_sigma,
                self.cfg.clutter,
                &mut self.rng,
            );
            faults[i] = self.guard.planned_fault(i, frame);
            // A wedged stage serves its output buffer again instead of
            // computing.
            if faults[i] != Some(RuntimeFault::Stale) {
                macs += module.model.macs(noisy.shape());
                jobs.push((i, &mut module.model, noisy, faults[i]));
            }
        }
        // The model forwards touch no shared state, so they fan out across
        // versions — the paper's "independent ML modules" run concurrently,
        // each inside the guard's containment.
        let mut forwards = ThreadPool::new()
            .map_recorded(
                self.guard.recorder(),
                "perception-fanout",
                jobs,
                |(i, model, noisy, fault)| {
                    let forward =
                        GuardRuntime::contain(fault, || Some(model.forward(&noisy, false)));
                    (i, forward)
                },
            )
            .into_iter()
            .peekable();
        // The guard judges the outputs in module order, so events and
        // telemetry never depend on scheduling.
        let mut events: Vec<FaultEvent> = Vec::new();
        let mut proposals: Vec<Option<DetectionSet>> = vec![None; self.modules.len()];
        for (i, state) in states.iter().enumerate() {
            if !state.is_operational() {
                continue;
            }
            let forward = forwards.next_if(|(j, _)| *j == i).map(|(_, f)| f);
            let settled = self
                .guard
                .settle(i, frame, faults[i], forward, n_samples, &mut events);
            proposals[i] = settled
                .accepted()
                .map(|logits| decode(logits, self.cfg.threshold));
        }
        let verdict = vote_detections(&proposals, self.cfg.agreement_tolerance);
        self.guard.recorder().emit(|| {
            let proposing = proposals.iter().flatten().count();
            let (outcome, agreeing) = match &verdict {
                Verdict::Output(fused) => (
                    VoterOutcome::Output { class: None },
                    proposals
                        .iter()
                        .flatten()
                        .filter(|s| {
                            s.symmetric_difference_len(fused) <= self.cfg.agreement_tolerance
                        })
                        .count(),
                ),
                Verdict::Skip => (VoterOutcome::Skip, 0),
                Verdict::NoModules => (VoterOutcome::NoModules, 0),
            };
            TelemetryEvent::VoterDecision {
                frame,
                sample: 0,
                outcome,
                rule: VotingRule::for_proposal_count(proposing),
                proposing,
                agreeing,
                withheld: proposals.len() - proposing,
            }
        });

        // Escalate repeat offenders into the health process's reactive
        // repair loop (after the vote: their proposals were already
        // withheld or decoded).
        let process = &mut self.process;
        self.guard
            .escalate(frame, &mut events, |m| process.report_failure(m));
        PerceptionFrame {
            verdict,
            states,
            macs,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bev::{cell_index, rasterize};
    use crate::geometry::Vec2;
    use crate::world::ObjectTruth;
    use mvml_core::rejuvenation::VictimRule;
    use mvml_core::SystemParams;

    fn set(cells: &[u16]) -> DetectionSet {
        cells.iter().copied().collect()
    }

    #[test]
    fn vote_three_way_majority() {
        let a = set(&[1, 2, 3]);
        let b = set(&[1, 2, 3]);
        let c = set(&[50, 60]);
        let v = vote_detections(&[Some(a), Some(b), Some(c)], 0);
        assert_eq!(v, Verdict::Output(set(&[1, 2, 3])));
    }

    #[test]
    fn vote_three_way_all_disagree_skips() {
        let v = vote_detections(
            &[
                Some(set(&[1, 2, 3])),
                Some(set(&[40, 41, 42])),
                Some(set(&[90, 91, 92])),
            ],
            1,
        );
        assert_eq!(v, Verdict::Skip);
    }

    #[test]
    fn vote_tolerance_allows_similarity() {
        let a = set(&[1, 2, 3]);
        let b = set(&[1, 2, 3, 4]); // one extra cell
        let v = vote_detections(&[Some(a.clone()), Some(b), None], 2);
        // fused = intersection {1,2,3}
        assert_eq!(v, Verdict::Output(a));
        // zero tolerance: skip
        let a = set(&[1, 2, 3]);
        let b = set(&[1, 2, 3, 4]);
        assert_eq!(vote_detections(&[Some(a), Some(b), None], 0), Verdict::Skip);
    }

    #[test]
    fn vote_single_and_none() {
        assert_eq!(
            vote_detections(&[None, Some(set(&[7])), None], 0),
            Verdict::Output(set(&[7]))
        );
        assert_eq!(vote_detections(&[None, None, None], 0), Verdict::NoModules);
    }

    #[test]
    fn fused_majority_cells() {
        // cell 5 flagged by 2/3, cell 9 by 1/3
        let v = vote_detections(&[Some(set(&[5, 9])), Some(set(&[5])), Some(set(&[5]))], 3);
        assert_eq!(v, Verdict::Output(set(&[5])));
    }

    fn tiny_bank() -> DetectorBank {
        let cfg = DetectorTrainConfig {
            scenes: 200,
            epochs: 3,
            ..DetectorTrainConfig::default()
        };
        // Train three small-but-distinct variants quickly.
        let models = (0..3)
            .map(|i| {
                let mut m = yolo_mini("tiny", 4, i);
                let _ = crate::detector::train_detector(
                    &mut m,
                    &DetectorTrainConfig {
                        seed: 38 + i,
                        ..cfg
                    },
                );
                m
            })
            .collect();
        DetectorBank::from_models(models)
    }

    fn no_fault_process(proactive: bool) -> ProcessConfig {
        ProcessConfig {
            params: SystemParams {
                mttc: 1e12,
                mttf: 1e12,
                ..SystemParams::carla_case_study()
            },
            proactive,
            victims: VictimRule::Priority(2.0 / 3.0),
        }
    }

    #[test]
    fn healthy_perception_detects_lead_vehicle() {
        let bank = tiny_bank();
        let mut p = MultiVersionPerception::new(
            &bank,
            PerceptionConfig::default(),
            no_fault_process(false),
            7,
        );
        let clean = rasterize(
            Vec2::new(0.0, 0.0),
            0.0,
            &[ObjectTruth {
                position: Vec2::new(20.0, 0.0),
                heading: 0.0,
            }],
        );
        let mut hits = 0;
        for _ in 0..10 {
            let frame = p.perceive(&clean);
            if let Verdict::Output(dets) = frame.verdict {
                if dets
                    .nearest_obstacle_ahead(3.0)
                    .map(|d| (d - 20.0).abs() < 6.0)
                    == Some(true)
                {
                    hits += 1;
                }
            }
        }
        assert!(
            hits >= 7,
            "healthy perception found the lead in only {hits}/10 frames"
        );
    }

    #[test]
    fn compromised_majority_breaks_perception() {
        let bank = tiny_bank();
        let mut p = MultiVersionPerception::new(
            &bank,
            PerceptionConfig::default(),
            no_fault_process(false),
            7,
        );
        // Manually compromise two modules with strong faults.
        for m in 0..2 {
            let _ = random_weight_inj(&mut p.modules[m].model, 0, -100.0, 300.0, 11 + m as u64);
        }
        let clean = rasterize(
            Vec2::new(0.0, 0.0),
            0.0,
            &[ObjectTruth {
                position: Vec2::new(20.0, 0.0),
                heading: 0.0,
            }],
        );
        let mut clean_hits = 0;
        for _ in 0..10 {
            let frame = p.perceive(&clean);
            if let Verdict::Output(dets) = frame.verdict {
                let near = dets.nearest_obstacle_ahead(3.0);
                let spurious = dets.len() > 20;
                if !spurious && near.map(|d| (d - 20.0).abs() < 6.0) == Some(true) {
                    clean_hits += 1;
                }
            }
        }
        assert!(
            clean_hits <= 6,
            "two heavily-faulted modules still produced {clean_hits}/10 clean fused outputs"
        );
    }

    #[test]
    fn advance_applies_faults_and_restores() {
        let bank = tiny_bank();
        // Compromise quickly, rejuvenate quickly.
        let process = ProcessConfig {
            params: SystemParams {
                mttc: 0.5,
                mttf: 1.0,
                reactive_time: 0.2,
                proactive_time: 0.2,
                rejuvenation_interval: 1.0,
                ..SystemParams::carla_case_study()
            },
            proactive: true,
            victims: VictimRule::Priority(2.0 / 3.0),
        };
        let mut p = MultiVersionPerception::new(&bank, PerceptionConfig::default(), process, 3);
        let before: Vec<ModelState> = p.modules.iter_mut().map(|m| m.model.snapshot()).collect();
        let events = p.advance(20.0);
        assert!(
            events
                .iter()
                .any(|e| matches!(e.event, StateEvent::Compromised { .. })),
            "no compromise in 20 s with mttc = 0.5 s"
        );
        // After enough rejuvenations, any healthy module must hold pristine
        // weights again.
        for (i, state) in p.states().to_vec().iter().enumerate() {
            if *state == ModuleState::Healthy {
                assert_eq!(
                    p.modules[i].model.snapshot(),
                    before[i],
                    "module {i} not pristine"
                );
            }
        }
    }

    #[test]
    fn perception_macs_counted_for_operational_modules_only() {
        let bank = tiny_bank();
        let mut p = MultiVersionPerception::new(
            &bank,
            PerceptionConfig::default(),
            no_fault_process(false),
            1,
        );
        let clean = rasterize(Vec2::new(0.0, 0.0), 0.0, &[]);
        let all = p.perceive(&clean).macs;
        assert!(all > 0);
        // Kill two modules via the process? Simpler: rebuild with 1 version.
        let mut single = MultiVersionPerception::new(
            &bank,
            PerceptionConfig {
                versions: 1,
                ..PerceptionConfig::default()
            },
            no_fault_process(false),
            1,
        );
        let one = single.perceive(&clean).macs;
        assert!(all > one, "3 versions must cost more compute than 1");
    }

    #[test]
    fn replay_is_identical_for_any_thread_count() {
        use mvml_nn::exec::{current, scoped, Exec};
        let bank = tiny_bank();
        let clean = rasterize(
            Vec2::new(0.0, 0.0),
            0.0,
            &[ObjectTruth {
                position: Vec2::new(18.0, 0.0),
                heading: 0.0,
            }],
        );
        let run = || {
            let mut p = MultiVersionPerception::new(
                &bank,
                PerceptionConfig::default(),
                no_fault_process(true),
                21,
            );
            let mut log = Vec::new();
            for _ in 0..6 {
                let _ = p.advance(0.5);
                let frame = p.perceive(&clean);
                log.push((frame.verdict, frame.states, frame.macs));
            }
            log
        };
        let base = current();
        let serial = scoped(Exec { threads: 1, ..base }, run);
        for threads in [2, 4] {
            let parallel = scoped(Exec { threads, ..base }, run);
            assert_eq!(serial, parallel, "replay diverged at {threads} threads");
        }
    }

    #[test]
    fn runtime_corruption_is_withheld_and_escalated() {
        use mvml_faultinject::CorruptionMode;
        let bank = tiny_bank();
        let mut p = MultiVersionPerception::new(
            &bank,
            PerceptionConfig::default(),
            no_fault_process(false),
            7,
        );
        // Module 0 emits NaN logits on every frame.
        p.set_fault_plan(Some(RuntimeFaultPlan::new(1).with_rule(
            RuntimeFault::Corrupt(CorruptionMode::Nan),
            1.0,
            Some(0),
        )));
        let clean = rasterize(
            Vec2::new(0.0, 0.0),
            0.0,
            &[ObjectTruth {
                position: Vec2::new(20.0, 0.0),
                heading: 0.0,
            }],
        );
        let frame = p.perceive(&clean);
        assert!(
            frame
                .events
                .iter()
                .any(|e| e.module == 0 && matches!(e.kind, FaultEventKind::NonFiniteOutput { .. })),
            "corruption must be detected: {:?}",
            frame.events
        );
        assert!(
            !matches!(frame.verdict, Verdict::NoModules),
            "two healthy modules must keep voting"
        );
        // Default watchdog (3 faults / 10 frames): the repeat offender is
        // escalated into the health process's reactive repair path.
        let mut escalated = false;
        for _ in 0..4 {
            let f = p.perceive(&clean);
            escalated |= f
                .events
                .iter()
                .any(|e| e.module == 0 && matches!(e.kind, FaultEventKind::Escalated));
        }
        assert!(escalated, "repeated corruption must escalate");
        assert_eq!(p.states()[0], ModuleState::NonFunctional);
        assert!(p.fault_log().module_total(0) >= 3);
    }

    #[test]
    fn crash_and_latency_faults_are_contained() {
        let bank = tiny_bank();
        let mut p = MultiVersionPerception::new(
            &bank,
            PerceptionConfig {
                watchdog: None, // keep the module up; test containment only
                ..PerceptionConfig::default()
            },
            no_fault_process(false),
            9,
        );
        p.set_fault_plan(Some(
            RuntimeFaultPlan::new(2)
                .with_rule(RuntimeFault::Crash, 1.0, Some(1))
                .with_rule(RuntimeFault::Latency, 1.0, Some(2)),
        ));
        let clean = rasterize(Vec2::new(0.0, 0.0), 0.0, &[]);
        let frame = p.perceive(&clean);
        assert!(frame
            .events
            .iter()
            .any(|e| e.module == 1 && matches!(e.kind, FaultEventKind::Panic)));
        assert!(frame
            .events
            .iter()
            .any(|e| e.module == 2 && matches!(e.kind, FaultEventKind::DeadlineMiss)));
        // Only module 0 proposed: single-version pass-through (R.3), and
        // the pipeline survived a panicking module.
        assert!(matches!(frame.verdict, Verdict::Output(_)));
        assert_eq!(p.states(), &[ModuleState::Healthy; 3], "no escalation");
    }

    #[test]
    fn stale_fault_replays_previous_detections() {
        let bank = tiny_bank();
        let mut p = MultiVersionPerception::new(
            &bank,
            PerceptionConfig {
                versions: 1,
                ..PerceptionConfig::default()
            },
            no_fault_process(false),
            13,
        );
        let with_lead = rasterize(
            Vec2::new(0.0, 0.0),
            0.0,
            &[ObjectTruth {
                position: Vec2::new(18.0, 0.0),
                heading: 0.0,
            }],
        );
        let empty_road = rasterize(Vec2::new(0.0, 0.0), 0.0, &[]);
        let fresh = p.perceive(&with_lead);
        let Verdict::Output(fresh_set) = fresh.verdict else {
            panic!("single version must pass through");
        };
        // Wedge the module: the road is now empty, but it serves the old
        // detections — undetectable by any guard, only voting masks it.
        p.set_fault_plan(Some(RuntimeFaultPlan::new(3).with_rule(
            RuntimeFault::Stale,
            1.0,
            Some(0),
        )));
        let stale = p.perceive(&empty_road);
        assert_eq!(stale.verdict, Verdict::Output(fresh_set));
        assert!(stale.events.is_empty(), "stale output is not detectable");
        assert_eq!(stale.macs, 0, "a wedged module computes nothing");
    }

    #[test]
    fn detection_voting_ignores_cell_payload_order() {
        let a: DetectionSet = [3u16, 1, 2].into_iter().collect();
        let b: DetectionSet = [2u16, 3, 1].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(
            vote_detections(&[Some(a.clone()), Some(b), None], 0),
            Verdict::Output(a)
        );
    }

    #[test]
    fn corridor_helper_consistency() {
        let c = cell_index(16, 5);
        let s = set(&[c]);
        assert!(s.nearest_obstacle_ahead(3.0).is_some());
    }
}
