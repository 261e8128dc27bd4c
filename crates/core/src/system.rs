//! The assembled N-version classification system: modules + trusted voter,
//! hardened against *runtime* faults.
//!
//! The voter of the paper's Section IV assumes each operational module
//! returns a finite, well-formed, on-time proposal. Real modules break that
//! contract in richer ways than a weight fault: they panic mid-inference,
//! overrun their deadline, or emit non-finite logits. The module boundary,
//! [`GuardRuntime`], enforces the contract for the classifiers
//! ([`NVersionSystem::classify_batch_detailed`]) and for `mvml-avsim`'s
//! detectors alike:
//!
//! * every forward pass runs under `std::panic::catch_unwind` — a crashing
//!   module is a non-responsive module, not a crashed system;
//! * an optional per-module wall-clock deadline discards late answers
//!   (and injected [`RuntimeFault::Latency`] faults model lateness
//!   deterministically);
//! * any sample whose logits contain a non-finite value is withheld from
//!   the voter — the version is treated as non-responsive *for that
//!   sample*, feeding the voter's R.1–R.3 skip semantics instead of
//!   poisoning the argmax;
//! * every detection is recorded as a [`FaultEvent`], and repeated faults
//!   escalate through the [`Watchdog`] into a reactive-rejuvenation
//!   trigger (`ModuleState::NonFunctional`), the same path the DSPN models
//!   predict for crashed modules.

use crate::error::SystemError;
use crate::module::{ModuleState, VersionedModule};
use crate::voter::{vote, Verdict, VotingScheme};
use crate::watchdog::{FaultEvent, FaultEventKind, FaultLog, Watchdog, WatchdogConfig};
use mvml_faultinject::{corrupt_in_place, RuntimeFault, RuntimeFaultPlan};
use mvml_nn::{Dataset, Sequential, Tensor};
use mvml_obs::{GuardVerdict, Recorder, TelemetryEvent, Timing, VoterOutcome, VotingRule};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Outcome counts of an empirical evaluation run (the implementation of the
/// paper's "we implemented the voting rules to evaluate the reliability with
/// which the ML system produces the correct outputs").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmpiricalReliability {
    /// Voter produced the ground-truth class.
    pub correct: usize,
    /// Voter produced a wrong class (the failure the reliability functions
    /// quantify).
    pub wrong: usize,
    /// Voter safely skipped (R.1/R.2 divergence).
    pub skipped: usize,
    /// No operational module.
    pub no_output: usize,
}

impl EmpiricalReliability {
    /// An all-zero report (no samples observed yet).
    pub fn zero() -> Self {
        EmpiricalReliability {
            correct: 0,
            wrong: 0,
            skipped: 0,
            no_output: 0,
        }
    }

    /// Accumulates one voter outcome against the ground-truth label.
    pub fn tally(&mut self, verdict: &Verdict<usize>, label: usize) {
        match verdict {
            Verdict::Output(class) if *class == label => self.correct += 1,
            Verdict::Output(_) => self.wrong += 1,
            Verdict::Skip => self.skipped += 1,
            Verdict::NoModules => self.no_output += 1,
        }
    }

    /// Total samples evaluated.
    pub fn total(&self) -> usize {
        self.correct + self.wrong + self.skipped + self.no_output
    }

    /// Output reliability `1 − P(error)`: skips are safe, not failures,
    /// matching the semantics of the paper's `R_{i,j,k}` functions.
    ///
    /// A zero-sample run is vacuously reliable (`1.0`): no output was ever
    /// wrong. (Returning `0.0` here would make an empty cell drag down
    /// campaign aggregates as if every decision had failed.)
    pub fn reliability(&self) -> f64 {
        if self.total() == 0 {
            return 1.0;
        }
        1.0 - self.wrong as f64 / self.total() as f64
    }

    /// Fraction of samples for which an output was produced at all. Zero
    /// for an empty run: no output was produced.
    pub fn coverage(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.correct + self.wrong) as f64 / self.total() as f64
    }
}

/// Runtime-guard configuration for the hardened classification path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardConfig {
    /// Per-module wall-clock inference budget. An answer arriving later is
    /// discarded (recorded as [`FaultEventKind::DeadlineMiss`]). `None`
    /// disables wall-clock checks, keeping classification fully
    /// deterministic; injected [`RuntimeFault::Latency`] faults are
    /// *always* treated as deadline misses.
    pub deadline: Option<Duration>,
    /// When `true` (default), any sample whose logits contain a non-finite
    /// value is withheld from the voter. When `false` — the unhardened
    /// baseline — corrupted logits flow into a total-order argmax and vote.
    pub sanitize: bool,
    /// Watchdog escalation policy; `None` disables escalation (faults are
    /// still detected and logged, but never force a module non-functional).
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            deadline: None,
            sanitize: true,
            watchdog: Some(WatchdogConfig::default()),
        }
    }
}

impl GuardConfig {
    /// The unhardened baseline: no sanitization, no escalation. Panics are
    /// still caught (the measurement harness must survive them), but
    /// nothing is learned from them — this models the seed's original
    /// pipeline, where a NaN-emitting module votes garbage instead of
    /// being discarded.
    pub fn unhardened() -> Self {
        GuardConfig {
            deadline: None,
            sanitize: false,
            watchdog: None,
        }
    }

    /// Sanitization without watchdog escalation: detections discard the
    /// affected samples but never change module health. This is the
    /// configuration whose steady-state behaviour the unmodified DSPN
    /// models predict (escalation adds a detection-speed C→N transition
    /// the analytic models do not know about).
    pub fn sanitize_only() -> Self {
        GuardConfig {
            deadline: None,
            sanitize: true,
            watchdog: None,
        }
    }
}

/// The outcome of one hardened classification round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifyReport {
    /// One verdict per sample of the batch.
    pub verdicts: Vec<Verdict<usize>>,
    /// Fault events detected during this round (also appended to the
    /// system's [`FaultLog`]).
    pub events: Vec<FaultEvent>,
    /// Modules the watchdog escalated to non-functional during this round.
    pub escalations: Vec<usize>,
}

/// The module boundary: the trusted runtime guard between ML module
/// versions and the voter, and the only implementation of it.
///
/// Two callers own one each and keep only their own logic around it:
/// [`NVersionSystem`] (the classifiers behind the batch binaries, the
/// fault campaign and every `mvml-serve` shard) and `mvml-avsim`'s
/// `MultiVersionPerception` (the detectors of the driving study). Each
/// runs its own module loop and voter and, per frame, calls the guard's
/// steps in order:
///
/// 1. [`GuardRuntime::begin_frame`], then [`GuardRuntime::planned_fault`]
///    per operational module;
/// 2. [`GuardRuntime::contain`] for each module that runs (every fault but
///    [`RuntimeFault::Stale`]); it borrows nothing from the guard, so
///    forwards can fan out across threads;
/// 3. [`GuardRuntime::settle`] per operational module, in module order;
/// 4. the caller's vote, then [`GuardRuntime::escalate`].
///
/// Health state stays with the caller: escalation reaches it through a
/// `fail(module)` callback, and [`GuardRuntime::reset_module`] is called
/// when a rejuvenation completes.
#[derive(Debug, Clone)]
pub struct GuardRuntime {
    guard: GuardConfig,
    watchdog: Watchdog,
    log: FaultLog,
    plan: Option<RuntimeFaultPlan>,
    /// Per module: the (shape, values) of the logits produced on the last
    /// frame that yielded any, replayed by stale-output faults. An empty
    /// shape means there is nothing to replay. Refilled in place.
    last_logits: Vec<(Vec<usize>, Vec<f32>)>,
    frame: u64,
    /// Telemetry stream for the hardened path. Observe-only: verdicts,
    /// events and escalations are byte-identical whether this recorder is
    /// enabled or disabled (the default).
    recorder: Recorder,
}

/// What a contained forward pass produced (see [`GuardRuntime::contain`]).
#[derive(Debug)]
pub enum Forward {
    /// The forward panicked (an injected crash or a real one).
    Panicked,
    /// The forward returned `logits` (`None`: the module had no output)
    /// after `elapsed` wall-clock time.
    Returned {
        /// The module's raw output.
        logits: Option<Tensor>,
        /// Wall-clock time the forward took.
        elapsed: Duration,
    },
}

/// One module's output on one frame after the guard judged it (see
/// [`GuardRuntime::settle`]).
#[derive(Debug)]
pub struct Settled {
    logits: Option<Tensor>,
    /// Per sample: whether the sanitizer kept it from the voter.
    withheld: Vec<bool>,
}

impl Settled {
    /// Sample `i`'s output row (its slice of the batch), or `None` when
    /// the module produced nothing the voter may read for it.
    pub fn sample(&self, i: usize) -> Option<&[f32]> {
        let logits = self.logits.as_ref()?;
        if self.withheld.get(i).copied().unwrap_or(true) {
            return None;
        }
        let row = logits.len() / self.withheld.len();
        logits.as_slice().get(i * row..(i + 1) * row)
    }

    /// The whole output, when no sample of it was withheld.
    pub fn accepted(&self) -> Option<&Tensor> {
        self.logits
            .as_ref()
            .filter(|_| !self.withheld.iter().any(|&w| w))
    }
}

/// Capacity of the bounded fault-event log.
const FAULT_LOG_CAPACITY: usize = 4096;

impl GuardRuntime {
    /// Guard state for `module_count` replicas under `guard`.
    pub fn new(module_count: usize, guard: GuardConfig) -> Result<Self, SystemError> {
        check_deadline(guard)?;
        let watchdog = Watchdog::new(module_count, guard.watchdog.unwrap_or_default())?;
        Ok(GuardRuntime {
            guard,
            watchdog,
            log: FaultLog::new(module_count, FAULT_LOG_CAPACITY),
            plan: None,
            last_logits: vec![(Vec::new(), Vec::new()); module_count],
            frame: 0,
            recorder: Recorder::disabled(),
        })
    }

    /// Attaches a telemetry recorder to the hardened path (observe-only;
    /// see [`NVersionSystem::set_recorder`]).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The attached telemetry recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The active runtime-guard configuration.
    pub fn guard(&self) -> GuardConfig {
        self.guard
    }

    /// Replaces the runtime-guard configuration (rebuilding the watchdog
    /// when an escalation policy is set).
    pub fn set_guard(&mut self, guard: GuardConfig) -> Result<(), SystemError> {
        check_deadline(guard)?;
        if let Some(wd) = guard.watchdog {
            self.watchdog = Watchdog::new(self.last_logits.len(), wd)?;
        }
        self.guard = guard;
        Ok(())
    }

    /// Attaches a deterministic runtime fault plan; `None` detaches it.
    pub fn set_fault_plan(&mut self, plan: Option<RuntimeFaultPlan>) {
        self.plan = plan;
    }

    /// The fault-event log accumulated by the hardened path.
    pub fn fault_log(&self) -> &FaultLog {
        &self.log
    }

    /// Frames begun so far (the frame counter fault plans index by).
    pub fn frames_classified(&self) -> u64 {
        self.frame
    }

    /// Starts a frame and returns its index.
    pub fn begin_frame(&mut self) -> u64 {
        let frame = self.frame;
        self.frame += 1;
        frame
    }

    /// The fault the attached plan draws for `module` on `frame`.
    pub fn planned_fault(&self, module: usize, frame: u64) -> Option<RuntimeFault> {
        self.plan.as_ref().and_then(|p| p.fault_for(module, frame))
    }

    /// Runs one module's `forward` inside the fault boundary: an injected
    /// [`RuntimeFault::Crash`] panics in its place, any panic is caught,
    /// and the wall-clock time is measured for the deadline check. Holds no
    /// guard state, so forwards may run on worker threads.
    pub fn contain(
        fault: Option<RuntimeFault>,
        forward: impl FnOnce() -> Option<Tensor>,
    ) -> Forward {
        // mvml-allow(determinism): real deadline measurement; replayed campaigns inject latency via the fault plan, never via wall-clock
        let started = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            if matches!(fault, Some(RuntimeFault::Crash)) {
                // mvml-allow(panic_safety): injected crash fault, unwound by the catch_unwind boundary one frame up
                panic!("injected crash fault");
            }
            forward()
        }));
        match run {
            Err(_) => Forward::Panicked,
            Ok(logits) => Forward::Returned {
                logits,
                elapsed: started.elapsed(),
            },
        }
    }

    /// Judges module `m`'s output on `frame`, a batch of `n_samples`.
    /// `forward` is `None` for a module under a [`RuntimeFault::Stale`]
    /// fault, which is not run and replays its stale buffer instead.
    ///
    /// Late answers (an injected [`RuntimeFault::Latency`], or a measured
    /// overrun of [`GuardConfig::deadline`]) are discarded but refill the
    /// stale buffer; on-time answers get their injected corruption and
    /// refill it. What remains passes the sanitizer, which withholds every
    /// sample carrying a non-finite value. Detections are appended to
    /// `events` and the module's [`TelemetryEvent::ModuleInference`] is
    /// emitted.
    pub fn settle(
        &mut self,
        m: usize,
        frame: u64,
        fault: Option<RuntimeFault>,
        forward: Option<Forward>,
        n_samples: usize,
        events: &mut Vec<FaultEvent>,
    ) -> Settled {
        let mut push = |kind| {
            events.push(FaultEvent {
                module: m,
                frame,
                kind,
            })
        };
        let mut timing = None;
        let (mut verdict, logits) = match forward {
            None => {
                // A wedged stage serves its output buffer again; if it
                // never produced one, it has nothing to serve.
                let (shape, values) = &self.last_logits[m];
                if shape.first() == Some(&n_samples) {
                    let replay = Tensor::from_vec(shape, values.clone());
                    (GuardVerdict::StaleReplay, Some(replay))
                } else {
                    (GuardVerdict::NoOutput, None)
                }
            }
            Some(Forward::Panicked) => {
                push(FaultEventKind::Panic);
                (GuardVerdict::Panicked, None)
            }
            Some(Forward::Returned { logits, elapsed }) => {
                timing = Some(Timing {
                    duration_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
                });
                let late = matches!(fault, Some(RuntimeFault::Latency))
                    || self.guard.deadline.is_some_and(|dl| elapsed > dl);
                if late {
                    // The late answer still refreshes the stale buffer: it
                    // was produced, just not in time.
                    if let Some(t) = &logits {
                        self.remember(m, t);
                    }
                    push(FaultEventKind::DeadlineMiss);
                    (GuardVerdict::DeadlineMissed, None)
                } else if let Some(mut t) = logits {
                    if let Some(RuntimeFault::Corrupt(mode)) = fault {
                        corrupt_in_place(t.as_mut_slice(), mode);
                    }
                    self.remember(m, &t);
                    (GuardVerdict::Accepted, Some(t))
                } else {
                    (GuardVerdict::NoOutput, None)
                }
            }
        };
        let withheld = match &logits {
            None => vec![true; n_samples],
            Some(t) => {
                let (withheld, poisoned) = sanitize(t, n_samples, self.guard.sanitize);
                if poisoned > 0 {
                    push(FaultEventKind::NonFiniteOutput { samples: poisoned });
                    verdict = GuardVerdict::NonFinite { samples: poisoned };
                }
                withheld
            }
        };
        self.recorder
            .emit_timed(timing, || TelemetryEvent::ModuleInference {
                module: m,
                frame,
                verdict,
            });
        Settled { logits, withheld }
    }

    /// Closes `frame` after its vote: every module with a detection in
    /// `events` is observed by the watchdog (when escalation is on), and a
    /// repeat offender is escalated if `fail(module)` takes it out of
    /// service, which appends an [`FaultEventKind::Escalated`] event. All
    /// of the frame's events then go to the fault log. Returns the
    /// escalated modules.
    pub fn escalate(
        &mut self,
        frame: u64,
        events: &mut Vec<FaultEvent>,
        mut fail: impl FnMut(usize) -> bool,
    ) -> Vec<usize> {
        let mut escalations = Vec::new();
        if self.guard.watchdog.is_some() {
            let mut faulted = vec![false; self.last_logits.len()];
            for e in events.iter() {
                faulted[e.module] = true;
            }
            for (m, _) in faulted.iter().enumerate().filter(|(_, &f)| f) {
                if self.watchdog.observe(m, frame) && fail(m) {
                    events.push(FaultEvent {
                        module: m,
                        frame,
                        kind: FaultEventKind::Escalated,
                    });
                    escalations.push(m);
                    // The window clears exactly when it reaches the
                    // threshold, so the count at escalation *is* the
                    // configured threshold.
                    let faults_in_window = self.watchdog.config().threshold;
                    self.recorder.emit(|| TelemetryEvent::WatchdogEscalation {
                        module: m,
                        frame,
                        faults_in_window,
                    });
                }
            }
        }
        for e in events.iter() {
            self.log.record(*e);
        }
        escalations
    }

    /// Module `m` was rejuvenated: its watchdog window and stale buffer
    /// forget the pre-rejuvenation fault history.
    pub fn reset_module(&mut self, m: usize) {
        self.watchdog.reset(m);
        if let Some((shape, values)) = self.last_logits.get_mut(m) {
            shape.clear();
            values.clear();
        }
        self.recorder
            .emit(|| TelemetryEvent::RejuvenationCompleted { module: m });
    }

    /// Refills module `m`'s stale buffer with `t`, in place.
    fn remember(&mut self, m: usize, t: &Tensor) {
        let (shape, values) = &mut self.last_logits[m];
        shape.clear();
        shape.extend_from_slice(t.shape());
        values.clear();
        values.extend_from_slice(t.as_slice());
    }
}

fn check_deadline(guard: GuardConfig) -> Result<(), SystemError> {
    match guard.deadline {
        Some(dl) if dl.is_zero() => Err(SystemError::InvalidConfig {
            reason: "deadline budget must be positive".into(),
        }),
        _ => Ok(()),
    }
}

/// An N-version ML classification system: several [`VersionedModule`]s in
/// front of a trusted voter, with a runtime guard between them.
#[derive(Debug, Clone)]
pub struct NVersionSystem {
    modules: Vec<VersionedModule>,
    scheme: VotingScheme,
    runtime: GuardRuntime,
}

impl NVersionSystem {
    /// Assembles a system from trained models using the paper's default
    /// voting rules (R.1–R.3).
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty; use [`NVersionSystem::try_new`] for a
    /// typed error.
    #[allow(clippy::expect_used)] // documented panic with a fallible sibling
    pub fn new(models: Vec<Sequential>) -> Self {
        // mvml-allow(panic_safety): documented panic; try_new is the fallible sibling
        NVersionSystem::try_new(models).expect("an N-version system needs at least one module")
    }

    /// Assembles a system with an explicit voting scheme.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty; use [`NVersionSystem::try_with_scheme`]
    /// for a typed error.
    #[allow(clippy::expect_used)] // documented panic with a fallible sibling
    pub fn with_scheme(models: Vec<Sequential>, scheme: VotingScheme) -> Self {
        NVersionSystem::try_with_scheme(models, scheme)
            // mvml-allow(panic_safety): documented panic; try_with_scheme is the fallible sibling
            .expect("an N-version system needs at least one module")
    }

    /// Fallible assembly with the default voting rules.
    pub fn try_new(models: Vec<Sequential>) -> Result<Self, SystemError> {
        NVersionSystem::try_with_scheme(models, VotingScheme::MajorityWithSkip)
    }

    /// Fallible assembly with an explicit voting scheme.
    pub fn try_with_scheme(
        models: Vec<Sequential>,
        scheme: VotingScheme,
    ) -> Result<Self, SystemError> {
        if models.is_empty() {
            return Err(SystemError::EmptySystem);
        }
        let n = models.len();
        Ok(NVersionSystem {
            modules: models.into_iter().map(VersionedModule::new).collect(),
            scheme,
            runtime: GuardRuntime::new(n, GuardConfig::default())?,
        })
    }

    /// The active voting scheme.
    pub fn scheme(&self) -> VotingScheme {
        self.scheme
    }

    /// Attaches a telemetry recorder to the hardened classification path.
    ///
    /// The recorder is strictly observe-only: module inferences (with
    /// guard verdicts and latency), voter decisions, watchdog escalations
    /// and rejuvenation completions are emitted, but classification
    /// outputs never depend on whether recording is enabled.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.runtime.set_recorder(recorder);
    }

    /// The attached telemetry recorder (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        self.runtime.recorder()
    }

    /// Number of module versions.
    pub fn version_count(&self) -> usize {
        self.modules.len()
    }

    /// Immutable module access.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range; use [`NVersionSystem::try_module`]
    /// for a typed error.
    pub fn module(&self, i: usize) -> &VersionedModule {
        &self.modules[i]
    }

    /// Mutable module access (inject faults, force states, …).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range; use
    /// [`NVersionSystem::try_module_mut`] for a typed error.
    pub fn module_mut(&mut self, i: usize) -> &mut VersionedModule {
        &mut self.modules[i]
    }

    /// Fallible immutable module access.
    pub fn try_module(&self, i: usize) -> Result<&VersionedModule, SystemError> {
        let count = self.modules.len();
        self.modules
            .get(i)
            .ok_or(SystemError::ModuleIndex { index: i, count })
    }

    /// Fallible mutable module access.
    pub fn try_module_mut(&mut self, i: usize) -> Result<&mut VersionedModule, SystemError> {
        let count = self.modules.len();
        self.modules
            .get_mut(i)
            .ok_or(SystemError::ModuleIndex { index: i, count })
    }

    /// The active runtime-guard configuration.
    pub fn guard(&self) -> GuardConfig {
        self.runtime.guard()
    }

    /// Replaces the runtime-guard configuration (rebuilding the watchdog).
    pub fn set_guard(&mut self, guard: GuardConfig) -> Result<(), SystemError> {
        self.runtime.set_guard(guard)
    }

    /// Attaches a deterministic runtime fault plan; `None` detaches it.
    /// Per-module persistent faults
    /// ([`VersionedModule::set_runtime_fault`]) take precedence over the
    /// plan's per-frame draws.
    pub fn set_fault_plan(&mut self, plan: Option<RuntimeFaultPlan>) {
        self.runtime.set_fault_plan(plan);
    }

    /// The fault-event log accumulated by the hardened path.
    pub fn fault_log(&self) -> &FaultLog {
        self.runtime.fault_log()
    }

    /// Frames classified so far (the frame counter fault plans index by).
    pub fn frames_classified(&self) -> u64 {
        self.runtime.frames_classified()
    }

    /// Completes a rejuvenation of module `i` through the system, so the
    /// guard state is reset along with the weights: the watchdog window and
    /// the stale-replay buffer forget the pre-rejuvenation fault history.
    pub fn rejuvenate_module(&mut self, i: usize) -> Result<(), SystemError> {
        self.try_module_mut(i)?.complete_rejuvenation();
        self.runtime.reset_module(i);
        Ok(())
    }

    /// Current `(healthy, compromised, non-functional)` counts; modules
    /// being rejuvenated count as non-functional.
    pub fn state_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for m in &self.modules {
            match m.state() {
                ModuleState::Healthy => counts.0 += 1,
                ModuleState::Compromised => counts.1 += 1,
                ModuleState::NonFunctional | ModuleState::Rejuvenating => counts.2 += 1,
            }
        }
        counts
    }

    /// Classifies a batch `[N, C, H, W]`, returning one verdict per sample.
    /// This is the hardened path; see
    /// [`NVersionSystem::classify_batch_detailed`] for the fault events.
    pub fn classify_batch(&mut self, x: &Tensor) -> Vec<Verdict<usize>> {
        self.classify_batch_detailed(x).verdicts
    }

    /// Classifies a batch under the runtime guard, returning the verdicts
    /// together with every detected fault and watchdog escalation.
    ///
    /// Escalated modules are moved to [`ModuleState::NonFunctional`]
    /// *after* this round's vote (their faulty proposals were already
    /// withheld), so the caller's health process can route them through
    /// reactive rejuvenation.
    pub fn classify_batch_detailed(&mut self, x: &Tensor) -> ClassifyReport {
        let n_samples = x.shape().first().copied().unwrap_or(0);
        let frame = self.runtime.begin_frame();
        let mut events: Vec<FaultEvent> = Vec::new();
        let mut proposals: Vec<Vec<Option<usize>>> = Vec::with_capacity(self.modules.len());
        for (m, module) in self.modules.iter_mut().enumerate() {
            if !module.state().is_operational() {
                proposals.push(vec![None; n_samples]);
                continue;
            }
            let fault = module
                .runtime_fault()
                .or_else(|| self.runtime.planned_fault(m, frame));
            let forward = (fault != Some(RuntimeFault::Stale))
                .then(|| GuardRuntime::contain(fault, || module.infer_logits(x)));
            let settled = self
                .runtime
                .settle(m, frame, fault, forward, n_samples, &mut events);
            // Per-sample argmax over the IEEE-754 total order: without the
            // sanitizer a NaN row votes a deterministic garbage class.
            proposals.push(
                (0..n_samples)
                    .map(|i| {
                        let row = settled.sample(i)?;
                        row.iter()
                            .enumerate()
                            .max_by(|a, b| a.1.total_cmp(b.1))
                            .map(|(c, _)| c)
                    })
                    .collect(),
            );
        }

        // Vote before escalation: this round's faulty proposals were
        // already withheld sample-by-sample.
        let recorder = self.runtime.recorder();
        let verdicts: Vec<Verdict<usize>> = (0..n_samples)
            .map(|i| {
                let row: Vec<Option<usize>> = proposals.iter().map(|p| p[i]).collect();
                let verdict = vote(self.scheme, &row);
                recorder.emit(|| {
                    let proposing = row.iter().flatten().count();
                    let (outcome, agreeing) = match &verdict {
                        Verdict::Output(class) => (
                            VoterOutcome::Output {
                                class: Some(*class),
                            },
                            row.iter().flatten().filter(|&&c| c == *class).count(),
                        ),
                        Verdict::Skip => (VoterOutcome::Skip, 0),
                        Verdict::NoModules => (VoterOutcome::NoModules, 0),
                    };
                    TelemetryEvent::VoterDecision {
                        frame,
                        sample: i,
                        outcome,
                        rule: VotingRule::for_proposal_count(proposing),
                        proposing,
                        agreeing,
                        withheld: row.len() - proposing,
                    }
                });
                verdict
            })
            .collect();

        // Escalated modules go non-functional, so the caller's health
        // process routes them through reactive rejuvenation.
        let modules = &mut self.modules;
        let escalations = self.runtime.escalate(frame, &mut events, |m| {
            modules[m].fail();
            true
        });
        ClassifyReport {
            verdicts,
            events,
            escalations,
        }
    }

    /// Evaluates the system on a labelled dataset, batch by batch.
    pub fn evaluate(&mut self, data: &Dataset, batch_size: usize) -> EmpiricalReliability {
        let mut report = EmpiricalReliability::zero();
        let mut i = 0;
        while i < data.len() {
            let end = (i + batch_size).min(data.len());
            let idx: Vec<usize> = (i..end).collect();
            let (x, labels) = data.batch(&idx);
            for (verdict, label) in self.classify_batch(&x).into_iter().zip(labels) {
                report.tally(&verdict, label);
            }
            i = end;
        }
        report
    }
}

/// The sanitizer: which samples of `logits`, a batch of `n`, the voter
/// must not read, and how many of them were poisoned. A sample is the
/// slice of one batch index.
///
/// When `enabled`, a sample containing a non-finite value is withheld
/// (the module is non-responsive for that sample). Otherwise nothing is
/// withheld and nothing is counted. A malformed output (wrong sample count,
/// or empty samples) withholds and counts every sample either way.
fn sanitize(logits: &Tensor, n: usize, enabled: bool) -> (Vec<bool>, usize) {
    if n == 0 {
        return (Vec::new(), 0);
    }
    let row = logits.len() / n;
    if logits.shape().first() != Some(&n) || row == 0 {
        return (vec![true; n], n);
    }
    if !enabled {
        return (vec![false; n], 0);
    }
    let poisoned: Vec<bool> = logits
        .as_slice()
        .chunks(row)
        .map(|r| r.iter().any(|v| !v.is_finite()))
        .collect();
    let count = poisoned.iter().filter(|&&p| p).count();
    (poisoned, count)
}

#[cfg(test)]
// Exact float assertions are deliberate here: the expected values are
// produced by the same deterministic arithmetic being tested.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use mvml_faultinject::CorruptionMode;
    use mvml_nn::models::three_versions;
    use mvml_nn::signs::{generate, SignConfig};
    use mvml_nn::train::{train_classifier, TrainConfig};

    fn easy_cfg() -> SignConfig {
        SignConfig {
            classes: 5,
            image_size: 12,
            noise_std: 0.05,
            max_translate: 0.5,
            scale_jitter: 0.05,
            brightness_jitter: 0.05,
            occlusion_prob: 0.0,
        }
    }

    fn trained_system() -> (NVersionSystem, Dataset) {
        let cfg = easy_cfg();
        let train = generate(&cfg, 300, 0);
        let test = generate(&cfg, 100, 1);
        let tc = TrainConfig {
            epochs: 8,
            batch_size: 32,
            lr: 0.08,
            ..TrainConfig::default()
        };
        let mut models = three_versions(cfg.image_size, cfg.classes, 38);
        for m in &mut models {
            let _ = train_classifier(m, &train, &tc);
        }
        (NVersionSystem::new(models), test)
    }

    #[test]
    fn healthy_system_is_reliable_and_covers() {
        let (mut sys, test) = trained_system();
        assert_eq!(sys.version_count(), 3);
        assert_eq!(sys.state_counts(), (3, 0, 0));
        let report = sys.evaluate(&test, 32);
        assert_eq!(report.total(), 100);
        assert!(
            report.reliability() > 0.85,
            "reliability {}",
            report.reliability()
        );
        assert!(report.coverage() > 0.8, "coverage {}", report.coverage());
        // A healthy run detects nothing.
        assert_eq!(sys.fault_log().total(), 0);
    }

    #[test]
    fn degraded_system_follows_voting_rules() {
        let (mut sys, test) = trained_system();
        // Two modules down → single-version pass-through (R.3).
        sys.module_mut(0).fail();
        sys.module_mut(1).begin_rejuvenation();
        assert_eq!(sys.state_counts(), (1, 0, 2));
        let report = sys.evaluate(&test, 32);
        assert_eq!(report.skipped, 0, "R.3 never skips");
        assert_eq!(report.no_output, 0);

        // All modules down → no output at all.
        sys.module_mut(2).fail();
        let report = sys.evaluate(&test, 32);
        assert_eq!(report.no_output, report.total());
        assert_eq!(report.reliability(), 1.0 - 0.0); // no wrong outputs
    }

    #[test]
    fn two_version_mode_can_skip() {
        let (mut sys, test) = trained_system();
        sys.module_mut(2).fail();
        assert_eq!(sys.state_counts(), (2, 0, 1));
        let report = sys.evaluate(&test, 32);
        // With two independent (trained, imperfect) models, some divergence
        // is expected over 100 samples; but no hard requirement — just check
        // bookkeeping adds up.
        assert_eq!(
            report.correct + report.wrong + report.skipped + report.no_output,
            report.total()
        );
        assert_eq!(report.no_output, 0);
    }

    #[test]
    fn compromised_majority_lowers_reliability() {
        let (mut sys, test) = trained_system();
        let healthy = sys.evaluate(&test, 32);
        let healthy_acc = healthy.correct as f64 / healthy.total() as f64;
        // Plant strong faults in two modules (injection values far outside
        // the trained weight range, so both modules visibly break).
        sys.module_mut(0).compromise(0, 200.0, 400.0, 3);
        sys.module_mut(1).compromise(0, 200.0, 400.0, 4);
        let compromised = sys.evaluate(&test, 32);
        let compromised_acc = compromised.correct as f64 / compromised.total() as f64;
        // `reliability()` treats safe skips as reliable, so two broken
        // modules can *raise* it by shattering the majority; the monotone
        // observable is the correct-output rate, which must drop when only
        // one of three voters is still healthy.
        assert!(
            compromised_acc < healthy_acc,
            "compromised correct-rate {compromised_acc} vs healthy {healthy_acc}"
        );
    }

    #[test]
    fn empirical_report_arithmetic() {
        let r = EmpiricalReliability {
            correct: 70,
            wrong: 10,
            skipped: 15,
            no_output: 5,
        };
        assert_eq!(r.total(), 100);
        assert!((r.reliability() - 0.9).abs() < 1e-12);
        assert!((r.coverage() - 0.8).abs() < 1e-12);
        // A zero-sample run is vacuously reliable: nothing was ever wrong.
        let empty = EmpiricalReliability::zero();
        assert_eq!(empty.reliability(), 1.0);
        assert_eq!(empty.coverage(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one module")]
    fn empty_system_rejected() {
        let _ = NVersionSystem::new(Vec::new());
    }

    #[test]
    fn typed_errors_for_misconfiguration() {
        assert_eq!(
            NVersionSystem::try_new(Vec::new()).err(),
            Some(SystemError::EmptySystem)
        );
        let (mut sys, _) = trained_system();
        assert!(sys.try_module(2).is_ok());
        assert_eq!(
            sys.try_module(3).err(),
            Some(SystemError::ModuleIndex { index: 3, count: 3 })
        );
        assert!(sys.try_module_mut(0).is_ok());
        assert!(matches!(
            sys.rejuvenate_module(9),
            Err(SystemError::ModuleIndex { index: 9, count: 3 })
        ));
        assert!(matches!(
            sys.set_guard(GuardConfig {
                deadline: Some(Duration::ZERO),
                ..GuardConfig::default()
            }),
            Err(SystemError::InvalidConfig { .. })
        ));
        assert!(matches!(
            sys.set_guard(GuardConfig {
                watchdog: Some(WatchdogConfig {
                    window: 0,
                    threshold: 1
                }),
                ..GuardConfig::default()
            }),
            Err(SystemError::InvalidConfig { .. })
        ));
        assert!(matches!(
            GuardRuntime::new(
                3,
                GuardConfig {
                    deadline: Some(Duration::ZERO),
                    ..GuardConfig::default()
                }
            ),
            Err(SystemError::InvalidConfig { .. })
        ));
    }

    /// Modules whose "network" is the identity: logits = input rows.
    fn passthrough_system(n: usize) -> NVersionSystem {
        let models = (0..n)
            .map(|i| Sequential::new(format!("identity-{i}")))
            .collect();
        NVersionSystem::new(models)
    }

    #[test]
    fn nan_module_is_withheld_not_voted() {
        // Three identity modules, one carrying a NaN-corruption fault: the
        // corrupted version must not change the voter's class.
        let mut sys = passthrough_system(3);
        sys.module_mut(0)
            .set_runtime_fault(RuntimeFault::Corrupt(CorruptionMode::Nan));
        let x = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.2, 0.7, 0.1, 0.0]);
        let report = sys.classify_batch_detailed(&x);
        assert_eq!(
            report.verdicts,
            vec![Verdict::Output(1), Verdict::Output(0)],
            "healthy majority decides; NaN module only loses decisiveness"
        );
        assert!(report
            .events
            .iter()
            .any(|e| e.module == 0
                && matches!(e.kind, FaultEventKind::NonFiniteOutput { samples: 2 })));
    }

    #[test]
    fn unhardened_baseline_lets_nan_vote() {
        let mut sys = passthrough_system(1);
        sys.set_guard(GuardConfig::unhardened()).expect("config");
        sys.module_mut(0)
            .set_runtime_fault(RuntimeFault::Corrupt(CorruptionMode::Nan));
        let x = Tensor::from_vec(&[1, 3], vec![0.1, 0.9, 0.2]);
        let report = sys.classify_batch_detailed(&x);
        // Every logit is NaN; `max_by` over the total order returns the
        // last maximal element, so the corrupted module confidently votes
        // the last class instead of being withheld.
        assert_eq!(report.verdicts, vec![Verdict::Output(2)]);
        assert!(report.events.is_empty(), "baseline detects nothing");
    }

    #[test]
    fn crash_fault_is_caught_and_escalated() {
        let mut sys = passthrough_system(3);
        sys.module_mut(1).set_runtime_fault(RuntimeFault::Crash);
        let x = Tensor::from_vec(&[1, 2], vec![0.3, 0.6]);
        let mut escalated = Vec::new();
        // Default watchdog: 3 faults in 10 frames.
        for _ in 0..3 {
            let report = sys.classify_batch_detailed(&x);
            assert_eq!(report.verdicts, vec![Verdict::Output(1)]);
            escalated.extend(report.escalations);
        }
        assert_eq!(escalated, vec![1], "third crash escalates module 1");
        assert_eq!(sys.module(1).state(), ModuleState::NonFunctional);
        assert!(sys.fault_log().module_total(1) >= 3);
        // Rejuvenation through the system resets the guard state.
        sys.rejuvenate_module(1).expect("in range");
        assert_eq!(sys.module(1).state(), ModuleState::Healthy);
        assert!(sys.module(1).runtime_fault().is_none());
    }

    #[test]
    fn latency_fault_discards_output() {
        let mut sys = passthrough_system(2);
        sys.module_mut(0).set_runtime_fault(RuntimeFault::Latency);
        let x = Tensor::from_vec(&[1, 2], vec![0.3, 0.6]);
        let report = sys.classify_batch_detailed(&x);
        // R.3: the on-time module passes through.
        assert_eq!(report.verdicts, vec![Verdict::Output(1)]);
        assert!(report
            .events
            .iter()
            .any(|e| e.module == 0 && matches!(e.kind, FaultEventKind::DeadlineMiss)));
    }

    #[test]
    fn stale_fault_replays_previous_frame() {
        let mut sys = passthrough_system(1);
        // Frame 0: healthy output argmax = class 1.
        let a = Tensor::from_vec(&[1, 3], vec![0.0, 0.9, 0.1]);
        assert_eq!(sys.classify_batch(&a), vec![Verdict::Output(1)]);
        // Frame 1: wedged — the input now favours class 2, but the module
        // serves frame 0's logits.
        sys.module_mut(0).set_runtime_fault(RuntimeFault::Stale);
        let b = Tensor::from_vec(&[1, 3], vec![0.0, 0.1, 0.9]);
        assert_eq!(sys.classify_batch(&b), vec![Verdict::Output(1)]);
        // A stale module that never produced output proposes nothing.
        let mut fresh = passthrough_system(1);
        fresh.module_mut(0).set_runtime_fault(RuntimeFault::Stale);
        assert_eq!(fresh.classify_batch(&b), vec![Verdict::NoModules]);
    }

    #[test]
    fn empty_class_dimension_is_withheld() {
        let mut sys = passthrough_system(2);
        let x = Tensor::from_vec(&[2, 0], Vec::new());
        let report = sys.classify_batch_detailed(&x);
        assert_eq!(
            report.verdicts,
            vec![Verdict::NoModules, Verdict::NoModules]
        );
    }

    #[test]
    fn fault_plan_drives_deterministic_injection() {
        let x = Tensor::from_vec(&[1, 2], vec![0.2, 0.8]);
        let run = |seed: u64| -> Vec<Verdict<usize>> {
            let mut sys = passthrough_system(3);
            sys.set_fault_plan(Some(RuntimeFaultPlan::new(seed).with_rule(
                RuntimeFault::Corrupt(CorruptionMode::Nan),
                0.5,
                Some(0),
            )));
            (0..20).flat_map(|_| sys.classify_batch(&x)).collect()
        };
        assert_eq!(run(3), run(3), "same plan seed, same outcome");
        // Verdicts are unaffected (two healthy modules agree) but the log is
        // driven by the plan.
        let mut sys = passthrough_system(3);
        sys.set_fault_plan(Some(RuntimeFaultPlan::new(3).with_rule(
            RuntimeFault::Corrupt(CorruptionMode::Nan),
            0.5,
            Some(0),
        )));
        for _ in 0..20 {
            let _ = sys.classify_batch(&x);
        }
        let hits = sys.fault_log().module_total(0);
        assert!(hits > 0 && hits < 20, "rate 0.5 over 20 frames: {hits}");
    }
}
