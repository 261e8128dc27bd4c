//! The runtime fault-injection campaign: the empirical counterpart of the
//! hardened classification path (`mvml-core`'s guard/watchdog stack).
//!
//! Where [`calibrate`](crate::calibrate) measures *weight* faults (the
//! paper's Table II compromise model), this campaign measures *runtime*
//! faults — corrupted activations, crashes, deadline misses, stale
//! replays — injected deterministically by a seeded
//! [`RuntimeFaultPlan`] while the system classifies a frame stream. Three
//! questions are answered, and the answers are written to
//! `results/CAMPAIGN_runtime.json`:
//!
//! 1. **Grid** — for every fault kind × rate × guard configuration, what
//!    are the empirical output reliability and coverage, how many faults
//!    were detected, and how often did the watchdog escalate? The grid
//!    makes the fault taxonomy measurable: detectable kinds (NaN/±∞
//!    corruption, crashes, deadline misses) produce events under the
//!    hardened guard and none under the unhardened baseline; undetectable
//!    kinds (saturated-but-finite corruption, stale replays) produce no
//!    events under either and are masked only by voting.
//! 2. **Headline** — with activation corruption planted in 1 of 3
//!    versions, the hardened system must be strictly more reliable than
//!    the unhardened baseline, and the masked module must never *change*
//!    the voter's chosen class relative to a fault-free twin — it may only
//!    cost decisiveness (outputs become skips, never different outputs).
//! 3. **Cross-check** — driving the module-health chain
//!    ([`StateProcess`]) and manifesting every compromise as a NaN
//!    corruption, the long-run empirical reliability of the
//!    sanitize-only system must agree with the DSPN steady-state
//!    prediction, within the combined confidence interval of the
//!    empirical batch-means estimate and a discrete-event simulation of
//!    the same net. (Sanitize-only, because watchdog escalation adds a
//!    detection-speed C→N transition the analytic models do not know
//!    about; under sanitization a corrupted module is exactly as silent
//!    as a non-functional one, so the reward depends on `#Pmh` alone.)
//!    Both intervals are Student-t batch-means intervals at 99.73% (the
//!    normal ±3σ), and the frame stream visits the test set in a fresh
//!    seeded order on every pass, so which frame is classified is
//!    independent of the chain's state.

use mvml_core::dspn::{reactive_only, with_proactive, SolveOptions};
use mvml_core::rejuvenation::{ProcessConfig, StateEvent, StateProcess};
use mvml_core::watchdog::FaultEventKind;
use mvml_core::{EmpiricalReliability, GuardConfig, NVersionSystem, SystemParams, Verdict};
use mvml_faultinject::{CorruptionMode, RuntimeFault, RuntimeFaultPlan};
use mvml_nn::models::three_versions;
use mvml_nn::signs::{generate, SignConfig};
use mvml_nn::train::{train_classifier, TrainConfig};
use mvml_nn::{Dataset, Sequential};
use mvml_obs::{Recorder, TelemetryEvent, TelemetryRecord, VoterOutcome, VotingRule};
use mvml_petri::{
    erlang_expand, simulate, solve_steady, ExpectedReward, SimConfig, SolutionMethod,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::f64::consts::FRAC_2_PI;

/// The fault kinds exercised by the grid, with their report labels.
pub const FAULT_KINDS: [(&str, RuntimeFault); 6] = [
    ("nan-corruption", RuntimeFault::Corrupt(CorruptionMode::Nan)),
    (
        "posinf-corruption",
        RuntimeFault::Corrupt(CorruptionMode::PosInf),
    ),
    (
        "saturate-corruption",
        RuntimeFault::Corrupt(CorruptionMode::Saturate),
    ),
    ("crash", RuntimeFault::Crash),
    ("latency", RuntimeFault::Latency),
    ("stale", RuntimeFault::Stale),
];

/// Configuration of the DSPN cross-check stage.
#[derive(Debug, Clone)]
pub struct CrossCheckConfig {
    /// Chain timing parameters. The defaults are *accelerated* relative to
    /// the paper's Table IV so a bounded frame stream covers many
    /// compromise/repair cycles; the chain semantics are unchanged.
    pub params: SystemParams,
    /// Classification frames per variant.
    pub frames: u64,
    /// Simulated-time horizon the frames are spread over (seconds).
    pub horizon: f64,
    /// Frames discarded before tallying (chain warm-up).
    pub warmup_frames: u64,
    /// Batch count for the batch-means confidence interval.
    pub batches: usize,
    /// Discrete-event-simulation horizon for the DSPN (seconds).
    pub des_horizon: f64,
    /// Discrete-event-simulation warm-up (seconds).
    pub des_warmup: f64,
    /// Erlang stages approximating the deterministic proactive clock in
    /// the analytic solve.
    pub erlang_k: u32,
    /// Seed for both the health chain and the DES.
    pub seed: u64,
    /// Batch size for the per-state reliability measurement.
    pub state_eval_batch: usize,
}

/// Full configuration of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Seed for the three model versions (architecture init + training).
    pub model_seed: u64,
    /// Fault-plan seeds; grid and headline tallies aggregate across them.
    pub plan_seeds: Vec<u64>,
    /// Synthetic sign-dataset settings.
    pub sign: SignConfig,
    /// Training hyper-parameters.
    pub train: TrainConfig,
    /// Training samples per class.
    pub train_per_class: usize,
    /// Test samples per class (the classified frame stream cycles these).
    pub test_per_class: usize,
    /// Per-frame fault rates swept by the grid.
    pub rates: Vec<f64>,
    /// Frames classified per grid cell (per plan seed).
    pub frames_per_cell: usize,
    /// Frames classified per headline run (per plan seed).
    pub headline_frames: usize,
    /// The DSPN cross-check stage; `None` skips it.
    pub cross_check: Option<CrossCheckConfig>,
}

impl CampaignConfig {
    /// The full campaign behind `results/CAMPAIGN_runtime.json`.
    pub fn full() -> Self {
        CampaignConfig {
            model_seed: 38,
            plan_seeds: vec![11, 12],
            sign: campaign_sign_config(),
            train: TrainConfig {
                epochs: 10,
                batch_size: 32,
                lr: 0.08,
                ..TrainConfig::default()
            },
            train_per_class: 80,
            test_per_class: 80,
            rates: vec![0.25, 1.0],
            frames_per_cell: 400,
            headline_frames: 600,
            cross_check: Some(CrossCheckConfig {
                params: accelerated_params(),
                frames: 4_000,
                horizon: 6_000.0,
                warmup_frames: 400,
                batches: 20,
                des_horizon: 400_000.0,
                des_warmup: 2_000.0,
                erlang_k: 16,
                seed: 2025,
                state_eval_batch: 64,
            }),
        }
    }

    /// A reduced configuration for the CI smoke gate: same stages, smaller
    /// training set, single rate, shorter streams.
    pub fn smoke() -> Self {
        CampaignConfig {
            train: TrainConfig {
                epochs: 6,
                batch_size: 32,
                lr: 0.08,
                ..TrainConfig::default()
            },
            train_per_class: 40,
            test_per_class: 50,
            rates: vec![1.0],
            frames_per_cell: 120,
            headline_frames: 250,
            cross_check: Some(CrossCheckConfig {
                frames: 1_200,
                horizon: 3_000.0,
                warmup_frames: 120,
                batches: 12,
                des_horizon: 120_000.0,
                ..CampaignConfig::full()
                    .cross_check
                    .expect("full config defines a cross-check")
            }),
            ..CampaignConfig::full()
        }
    }
}

/// A moderately hard sign configuration: accuracy stays high but the three
/// versions disagree on a visible fraction of frames, which is exactly the
/// regime where an unhardened garbage vote can forge a majority.
fn campaign_sign_config() -> SignConfig {
    SignConfig {
        classes: 5,
        image_size: 12,
        ..SignConfig::default()
    }
}

/// Chain timing parameters sped up ~12× relative to the paper's Table IV,
/// so a few thousand frames observe dozens of compromise/repair cycles.
fn accelerated_params() -> SystemParams {
    SystemParams {
        mttc: 120.0,
        mttf: 60.0,
        reactive_time: 10.0,
        proactive_time: 5.0,
        rejuvenation_interval: 60.0,
        ..SystemParams::paper_table_iv()
    }
}

/// One grid cell: a fault kind at a rate under a guard configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridCell {
    /// Fault-kind label (see [`FAULT_KINDS`]).
    pub fault: String,
    /// Per-frame injection probability into the target module.
    pub rate: f64,
    /// Guard label: `"hardened"` or `"unhardened"`.
    pub guard: String,
    /// Index of the module the plan targets.
    pub target_module: usize,
    /// Voter outcomes aggregated over all plan seeds.
    pub correct: usize,
    /// Wrong outputs (the failures the reliability model quantifies).
    pub wrong: usize,
    /// Safe skips.
    pub skipped: usize,
    /// Frames with no operational module.
    pub no_output: usize,
    /// Output reliability `1 − wrong/total`.
    pub reliability: f64,
    /// Fraction of frames that produced an output.
    pub coverage: f64,
    /// Detected fault events (panics, deadline misses, non-finite logits).
    pub detected_events: u64,
    /// Watchdog escalations to non-functional.
    pub escalations: u64,
}

/// The 1-of-3 NaN-corruption comparison the campaign is named for.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Headline {
    /// Fault-kind label (always `"nan-corruption"`).
    pub fault: String,
    /// Per-frame injection probability (1.0: a persistently compromised
    /// version, the runtime analogue of the paper's weight-fault model).
    pub rate: f64,
    /// Index of the corrupted version.
    pub target_module: usize,
    /// Frames classified per plan seed.
    pub frames: usize,
    /// Reliability of the hardened system (sanitize + watchdog).
    pub hardened_reliability: f64,
    /// Reliability of the unhardened baseline (corrupted logits vote).
    pub unhardened_reliability: f64,
    /// `hardened − unhardened`; must be strictly positive.
    pub margin: f64,
    /// Coverage of the hardened system (what masking costs).
    pub hardened_coverage: f64,
    /// Coverage of the unhardened baseline.
    pub unhardened_coverage: f64,
    /// `true` iff on every frame where the hardened system produced an
    /// output, a fault-free twin produced the *same* output: the masked
    /// module never changed the chosen class, only the decisiveness.
    pub masked_never_changed_class: bool,
}

/// One DSPN cross-check variant (reactive-only or with proactive clock).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrossCheck {
    /// `"reactive"` or `"proactive"`.
    pub variant: String,
    /// Steady-state prediction: occupancy-weighted per-state reliability.
    pub analytic: f64,
    /// The same reward estimated by discrete-event simulation of the net.
    pub des_simulated: f64,
    /// 99.73% Student-t batch-means half-width of the DES estimate.
    pub des_half_width: f64,
    /// Long-run reliability measured on the live hardened system while the
    /// health chain injects NaN corruption into compromised modules.
    pub empirical: f64,
    /// 99.73% Student-t batch-means half-width of the empirical estimate.
    pub empirical_half_width: f64,
    /// Acceptance tolerance: `des_half_width + empirical_half_width`.
    pub tolerance: f64,
    /// `|empirical − analytic| ≤ tolerance`.
    pub within_tolerance: bool,
}

/// Echo of the inputs that shaped the report (for reproducibility).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigEcho {
    /// Number of module versions.
    pub n: usize,
    /// Model seed.
    pub model_seed: u64,
    /// Fault-plan seeds.
    pub plan_seeds: Vec<u64>,
    /// Classes in the sign dataset.
    pub classes: usize,
    /// Test-set size (the frame stream cycles it).
    pub test_len: usize,
    /// Healthy test accuracy of each trained version.
    pub healthy_accuracy: Vec<f64>,
}

/// The full campaign report, serialised to `results/CAMPAIGN_runtime.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Input echo.
    pub config: ConfigEcho,
    /// Fault kind × rate × guard sweep.
    pub grid: Vec<GridCell>,
    /// The hardened-vs-unhardened 1-of-3 comparison.
    pub headline: Headline,
    /// Per-state reliability `r[h]` (subset-averaged over which `h` of the
    /// `n` modules are healthy) used as the cross-check reward.
    pub per_state_reliability: Vec<f64>,
    /// DSPN cross-checks (empty when the stage is disabled).
    pub cross_check: Vec<CrossCheck>,
}

/// Outcome of one classified stream.
#[derive(Debug, Clone, Copy)]
struct StreamOutcome {
    tally: EmpiricalReliability,
    detected: u64,
    escalations: u64,
}

fn absorb(into: &mut EmpiricalReliability, from: &EmpiricalReliability) {
    into.correct += from.correct;
    into.wrong += from.wrong;
    into.skipped += from.skipped;
    into.no_output += from.no_output;
}

/// Classifies `frames` single-sample frames (cycling the test set) under
/// `guard` and `plan`, tallying verdicts and fault events. No repair runs:
/// an escalated module stays non-functional, so the tail of the stream
/// measures graceful degradation rather than recovery.
fn run_stream(
    models: &[Sequential],
    guard: GuardConfig,
    plan: Option<RuntimeFaultPlan>,
    test: &Dataset,
    frames: usize,
    recorder: &Recorder,
) -> StreamOutcome {
    let mut sys = NVersionSystem::new(models.to_vec());
    sys.set_guard(guard)
        .expect("static guard configs are valid");
    sys.set_fault_plan(plan);
    sys.set_recorder(recorder.clone());
    let mut tally = EmpiricalReliability::zero();
    let mut detected = 0u64;
    let mut escalations = 0u64;
    for f in 0..frames {
        let i = f % test.len();
        let (x, labels) = test.batch(&[i]);
        let report = sys.classify_batch_detailed(&x);
        tally.tally(&report.verdicts[0], labels[0]);
        detected += report
            .events
            .iter()
            .filter(|e| !matches!(e.kind, FaultEventKind::Escalated))
            .count() as u64;
        escalations += report.escalations.len() as u64;
    }
    StreamOutcome {
        tally,
        detected,
        escalations,
    }
}

fn run_grid(
    cfg: &CampaignConfig,
    models: &[Sequential],
    test: &Dataset,
    recorder: &Recorder,
) -> Vec<GridCell> {
    const TARGET: usize = 0;
    let mut cells = Vec::new();
    for (label, kind) in FAULT_KINDS {
        for &rate in &cfg.rates {
            for (guard_label, guard) in [
                ("hardened", GuardConfig::default()),
                ("unhardened", GuardConfig::unhardened()),
            ] {
                let mut tally = EmpiricalReliability::zero();
                let mut detected = 0;
                let mut escalations = 0;
                for &seed in &cfg.plan_seeds {
                    let plan = RuntimeFaultPlan::new(seed).with_rule(kind, rate, Some(TARGET));
                    let scoped = recorder
                        .scoped(&format!("grid/{label}/r{rate:.2}/{guard_label}/seed{seed}"));
                    let out = run_stream(
                        models,
                        guard,
                        Some(plan),
                        test,
                        cfg.frames_per_cell,
                        &scoped,
                    );
                    absorb(&mut tally, &out.tally);
                    detected += out.detected;
                    escalations += out.escalations;
                }
                cells.push(GridCell {
                    fault: label.to_string(),
                    rate,
                    guard: guard_label.to_string(),
                    target_module: TARGET,
                    correct: tally.correct,
                    wrong: tally.wrong,
                    skipped: tally.skipped,
                    no_output: tally.no_output,
                    reliability: tally.reliability(),
                    coverage: tally.coverage(),
                    detected_events: detected,
                    escalations,
                });
            }
        }
    }
    cells
}

fn run_headline(
    cfg: &CampaignConfig,
    models: &[Sequential],
    test: &Dataset,
    recorder: &Recorder,
) -> Headline {
    const TARGET: usize = 0;
    const RATE: f64 = 1.0;
    let mut hardened = EmpiricalReliability::zero();
    let mut unhardened = EmpiricalReliability::zero();
    let mut never_changed = true;
    for &seed in &cfg.plan_seeds {
        let plan = RuntimeFaultPlan::new(seed).with_rule(
            RuntimeFault::Corrupt(CorruptionMode::Nan),
            RATE,
            Some(TARGET),
        );
        // Lock-step run of the hardened system against a fault-free twin:
        // every output the hardened system produces must equal the twin's.
        // Only the system under test is recorded — the twin is a reference
        // oracle, not part of the experiment.
        let mut sys = NVersionSystem::new(models.to_vec());
        sys.set_fault_plan(Some(plan.clone()));
        sys.set_recorder(recorder.scoped(&format!("headline/hardened/seed{seed}")));
        let mut twin = NVersionSystem::new(models.to_vec());
        for f in 0..cfg.headline_frames {
            let i = f % test.len();
            let (x, labels) = test.batch(&[i]);
            let verdict = sys.classify_batch(&x).remove(0);
            let free = twin.classify_batch(&x).remove(0);
            if let Verdict::Output(c) = verdict {
                if free != Verdict::Output(c) {
                    never_changed = false;
                }
            }
            hardened.tally(&verdict, labels[0]);
        }
        let out = run_stream(
            models,
            GuardConfig::unhardened(),
            Some(plan),
            test,
            cfg.headline_frames,
            &recorder.scoped(&format!("headline/unhardened/seed{seed}")),
        );
        absorb(&mut unhardened, &out.tally);
    }
    Headline {
        fault: "nan-corruption".to_string(),
        rate: RATE,
        target_module: TARGET,
        frames: cfg.headline_frames,
        hardened_reliability: hardened.reliability(),
        unhardened_reliability: unhardened.reliability(),
        margin: hardened.reliability() - unhardened.reliability(),
        hardened_coverage: hardened.coverage(),
        unhardened_coverage: unhardened.coverage(),
        masked_never_changed_class: never_changed,
    }
}

/// Measures `r[h]` for `h = 0..=n`: the empirical output reliability when
/// exactly `h` modules are healthy and the rest are silent, averaged over
/// every size-`h` subset (the chain picks victims uniformly, so the reward
/// must be subset-symmetric). `r[0]` is vacuously 1: a system with no
/// operational module produces no output, and no output is never wrong.
fn per_state_reliability(models: &[Sequential], test: &Dataset, batch: usize) -> Vec<f64> {
    let n = models.len();
    let mut sums = vec![0.0f64; n + 1];
    let mut counts = vec![0usize; n + 1];
    for mask in 0u32..(1 << n) {
        let h = mask.count_ones() as usize;
        let mut sys = NVersionSystem::new(models.to_vec());
        sys.set_guard(GuardConfig::sanitize_only())
            .expect("static guard configs are valid");
        for m in 0..n {
            if mask & (1 << m) == 0 {
                sys.module_mut(m).fail();
            }
        }
        sums[h] += sys.evaluate(test, batch).reliability();
        counts[h] += 1;
    }
    sums.iter()
        .zip(&counts)
        .map(|(s, &c)| s / c as f64)
        .collect()
}

/// Two-sided coverage of the cross-check intervals: the normal ±3σ.
const COVERAGE: f64 = 0.9973;

/// The `t` with `P(|T| ≤ t) = coverage` for Student's t with `df` degrees
/// of freedom: the multiplier of a batch-means standard error over `df + 1`
/// batches. Bisects the closed-form CDF for integer `df` (Abramowitz &
/// Stegun 26.7.3 and 26.7.4).
fn t_quantile(coverage: f64, df: usize) -> f64 {
    assert!(df > 0, "a t interval needs at least two batches");
    let odd = df % 2;
    let covered = |t: f64| {
        let theta = (t / (df as f64).sqrt()).atan();
        let (sin, cos) = theta.sin_cos();
        let (mut term, mut sum) = (1.0, 1.0);
        for i in 1..((df - odd) / 2) {
            term *= (2 * i - 1 + odd) as f64 / (2 * i + odd) as f64 * cos * cos;
            sum += term;
        }
        match (df, odd) {
            (1, _) => theta * FRAC_2_PI,
            (_, 1) => (theta + sin * cos * sum) * FRAC_2_PI,
            _ => sin * sum,
        }
    };
    let (mut lo, mut hi) = (0.0, 1e6);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if covered(mid) < coverage {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Runs the live system under the health chain: every `Compromised` event
/// plants a NaN-corruption runtime fault, every crash/repair transition is
/// mirrored into the module bank, and the sanitize-only guard classifies
/// one frame per step. Returns the batch-means `(mean, half_width)` of the
/// per-batch output reliability (99.73% Student-t).
///
/// Each pass over the test set takes a fresh seeded order: in a fixed
/// cyclic order every frame would fall on the same few phases of the
/// deterministic proactive clock (2 of 20 on the unit-test config), and
/// the frames sharing a phase with a fresh rejuvenation would bias the
/// proactive estimate.
fn empirical_under_chain(
    models: &[Sequential],
    test: &Dataset,
    cfg: &CrossCheckConfig,
    proactive: bool,
    recorder: &Recorder,
) -> (f64, f64) {
    let n = models.len();
    let mut sys = NVersionSystem::new(models.to_vec());
    sys.set_guard(GuardConfig::sanitize_only())
        .expect("static guard configs are valid");
    sys.set_recorder(recorder.clone());
    let mut process = StateProcess::new(
        n,
        ProcessConfig::dspn_aligned(cfg.params, proactive),
        cfg.seed,
    );
    let dt = cfg.horizon / cfg.frames as f64;
    let measured = cfg.frames - cfg.warmup_frames;
    let mut batch_tallies = vec![EmpiricalReliability::zero(); cfg.batches];
    let mut order: Vec<usize> = (0..test.len()).collect();
    let mut shuffler = StdRng::seed_from_u64(cfg.seed ^ 0x6672_616D_6573);
    for f in 0..cfg.frames {
        for ev in process.advance(dt) {
            match ev.event {
                StateEvent::Compromised { module } => sys
                    .module_mut(module)
                    .set_runtime_fault(RuntimeFault::Corrupt(CorruptionMode::Nan)),
                StateEvent::Failed { module } => {
                    recorder.emit(|| TelemetryEvent::RejuvenationStarted {
                        module,
                        proactive: false,
                    });
                    sys.module_mut(module).fail();
                }
                StateEvent::ProactiveStarted { module, .. } => {
                    recorder.emit(|| TelemetryEvent::RejuvenationStarted {
                        module,
                        proactive: true,
                    });
                    sys.module_mut(module).begin_rejuvenation();
                }
                StateEvent::Recovered { module } | StateEvent::ProactiveCompleted { module } => {
                    sys.rejuvenate_module(module)
                        .expect("chain events index existing modules");
                }
                StateEvent::TriggerDropped => {}
            }
        }
        let pos = (f as usize) % test.len();
        if pos == 0 {
            order.shuffle(&mut shuffler);
        }
        let (x, labels) = test.batch(&[order[pos]]);
        let verdict = sys.classify_batch(&x).remove(0);
        if f >= cfg.warmup_frames {
            let b = ((f - cfg.warmup_frames) * cfg.batches as u64 / measured) as usize;
            batch_tallies[b.min(cfg.batches - 1)].tally(&verdict, labels[0]);
        }
    }
    let means: Vec<f64> = batch_tallies.iter().map(|t| t.reliability()).collect();
    let b = means.len();
    let mean = means.iter().sum::<f64>() / b as f64;
    let var = means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (b - 1) as f64;
    (mean, t_quantile(COVERAGE, b - 1) * (var / b as f64).sqrt())
}

fn run_cross_check(
    models: &[Sequential],
    test: &Dataset,
    cfg: &CrossCheckConfig,
    r_emp: &[f64],
    recorder: &Recorder,
) -> Vec<CrossCheck> {
    let mut out = Vec::new();
    for proactive in [false, true] {
        let variant = if proactive { "proactive" } else { "reactive" };
        let mv = if proactive {
            with_proactive(3, &cfg.params)
        } else {
            reactive_only(3, &cfg.params)
        }
        .expect("3-module DSPN builds at validated parameters");
        let pmh = mv.pmh;

        // Analytic: exact steady state of the (Erlang-expanded) chain,
        // rewarded with the measured per-state reliability.
        let expanded;
        let solved = if proactive {
            expanded = erlang_expand(&mv.net, cfg.erlang_k).expect("Erlang expansion");
            &expanded
        } else {
            &mv.net
        };
        let sol = solve_steady(
            solved,
            &SolutionMethod::Auto,
            &SolveOptions::default().solver,
            &recorder.scoped(&format!("crosscheck/{variant}/solve")),
        )
        .expect("steady state");
        let analytic = sol.expected_reward(|m| r_emp[m[pmh] as usize]);

        // DES of the same net (deterministic clock simulated natively).
        let des_recorder = recorder.scoped(&format!("crosscheck/{variant}/des"));
        let des_span = des_recorder.span();
        let des_cfg = SimConfig {
            horizon: cfg.des_horizon,
            warmup: cfg.des_warmup,
            seed: cfg.seed,
            ..SimConfig::default()
        };
        let sim = simulate(&mv.net, &des_cfg).expect("DES run");
        let t = t_quantile(COVERAGE, des_cfg.batches - 1);
        let (des_simulated, des_half_width) = sim.reward_ci(|m| r_emp[m[pmh] as usize], t);
        des_recorder.emit_timed(des_span.stop(), || TelemetryEvent::SolverRun {
            model: mv.net.name().to_string(),
            backend: "simulation".to_string(),
            states: sim.distinct_markings(),
            residual: des_half_width,
        });

        // Live system under the chain.
        let (empirical, empirical_half_width) = empirical_under_chain(
            models,
            test,
            cfg,
            proactive,
            &recorder.scoped(&format!("crosscheck/{variant}/chain")),
        );

        let tolerance = des_half_width + empirical_half_width;
        out.push(CrossCheck {
            variant: variant.to_string(),
            analytic,
            des_simulated,
            des_half_width,
            empirical,
            empirical_half_width,
            tolerance,
            within_tolerance: (empirical - analytic).abs() <= tolerance,
        });
    }
    out
}

/// Trains the three versions and runs every campaign stage. Fully
/// deterministic for a given configuration: the same config produces a
/// byte-identical serialised report.
///
/// Every experiment stage emits frame-scoped [`TelemetryEvent`]s into
/// `recorder` ([`Recorder::disabled`] for none), scoped so the stream can
/// be cross-validated against the report it accompanies
/// ([`validate_telemetry`]):
///
/// * `grid/{fault}/r{rate}/{guard}/seed{seed}` — one stream per grid run;
/// * `headline/{hardened,unhardened}/seed{seed}` — the 1-of-3 comparison
///   (the fault-free twin is an unrecorded oracle);
/// * `crosscheck/{variant}/{solve,des,chain}` — analytic solve, DES, and
///   the live system under the health chain.
///
/// Telemetry is observe-only: the returned report is byte-identical with
/// an enabled or a disabled recorder. Training and the per-state reward
/// measurement are deliberately unrecorded — they are calibration, not
/// part of any experiment stream.
pub fn run_campaign(cfg: &CampaignConfig, recorder: &Recorder) -> CampaignReport {
    let train = generate(
        &cfg.sign,
        cfg.sign.classes * cfg.train_per_class,
        cfg.model_seed,
    );
    let test = generate(
        &cfg.sign,
        cfg.sign.classes * cfg.test_per_class,
        cfg.model_seed ^ 0xBEEF,
    );
    let mut models = three_versions(cfg.sign.image_size, cfg.sign.classes, cfg.model_seed);
    let mut healthy_accuracy = Vec::with_capacity(models.len());
    for model in &mut models {
        let _ = train_classifier(model, &train, &cfg.train);
        let errs = mvml_nn::metrics::error_set(model, &test, 64);
        healthy_accuracy.push(1.0 - errs.iter().filter(|&&e| e).count() as f64 / errs.len() as f64);
    }

    let grid = run_grid(cfg, &models, &test, recorder);
    let headline = run_headline(cfg, &models, &test, recorder);
    let (per_state, cross_check) = match &cfg.cross_check {
        Some(cc) => {
            let r_emp = per_state_reliability(&models, &test, cc.state_eval_batch);
            let checks = run_cross_check(&models, &test, cc, &r_emp, recorder);
            (r_emp, checks)
        }
        None => (per_state_reliability(&models, &test, 64), Vec::new()),
    };

    CampaignReport {
        config: ConfigEcho {
            n: models.len(),
            model_seed: cfg.model_seed,
            plan_seeds: cfg.plan_seeds.clone(),
            classes: cfg.sign.classes,
            test_len: test.len(),
            healthy_accuracy,
        },
        grid,
        headline,
        per_state_reliability: per_state,
        cross_check,
    }
}

/// Structural and semantic validation of a campaign report — the schema
/// gate behind `campaign --validate` (and the CI smoke check). Returns the
/// first violated invariant.
///
/// # Errors
///
/// Describes the violated invariant.
pub fn validate_report(report: &CampaignReport) -> Result<(), String> {
    let cfg = &report.config;
    if cfg.n == 0 || cfg.test_len == 0 || cfg.plan_seeds.is_empty() {
        return Err("config echo is degenerate".into());
    }
    if report.grid.is_empty() {
        return Err("grid is empty".into());
    }
    for cell in &report.grid {
        let total = cell.correct + cell.wrong + cell.skipped + cell.no_output;
        if total == 0 {
            return Err(format!(
                "grid cell {}/{} tallied no frames",
                cell.fault, cell.guard
            ));
        }
        for (name, v) in [
            ("reliability", cell.reliability),
            ("coverage", cell.coverage),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!(
                    "grid cell {}/{}: {name} = {v} outside [0, 1]",
                    cell.fault, cell.guard
                ));
            }
        }
        // Taxonomy invariants. Detectable corruption produces events only
        // under the hardened guard; saturated corruption and stale replays
        // are invisible to the sanitizer under either guard.
        let detectable_corruption =
            cell.fault == "nan-corruption" || cell.fault == "posinf-corruption";
        if detectable_corruption && cell.guard == "hardened" && cell.detected_events == 0 {
            return Err(format!(
                "hardened guard detected no {} at rate {}",
                cell.fault, cell.rate
            ));
        }
        if detectable_corruption && cell.guard == "unhardened" && cell.detected_events != 0 {
            return Err(format!("unhardened baseline logged {} events", cell.fault));
        }
        if (cell.fault == "saturate-corruption" || cell.fault == "stale")
            && cell.detected_events != 0
        {
            return Err(format!(
                "{} is undetectable but logged events under the {} guard",
                cell.fault, cell.guard
            ));
        }
        if cell.guard == "unhardened" && cell.escalations != 0 {
            return Err("unhardened baseline has no watchdog yet escalated".into());
        }
    }
    let h = &report.headline;
    if h.margin <= 0.0 {
        return Err(format!(
            "hardening did not pay: hardened {} vs unhardened {}",
            h.hardened_reliability, h.unhardened_reliability
        ));
    }
    if !h.masked_never_changed_class {
        return Err("a masked NaN module changed the voter's chosen class".into());
    }
    if report.per_state_reliability.len() != cfg.n + 1 {
        return Err("per-state reliability must have n + 1 entries".into());
    }
    if (report.per_state_reliability[0] - 1.0).abs() > 1e-12 {
        return Err("r[0] must be vacuously 1.0 (no output is never wrong)".into());
    }
    for check in &report.cross_check {
        if !check.within_tolerance {
            return Err(format!(
                "{} cross-check out of tolerance: empirical {} vs analytic {} (± {})",
                check.variant, check.empirical, check.analytic, check.tolerance
            ));
        }
    }
    Ok(())
}

/// Cross-artifact validation of a campaign telemetry stream against the
/// report it was emitted alongside — the second half of the `--validate`
/// gate. Two layers of checks:
///
/// 1. **Schema** — sequence numbers strictly increase, every record is
///    scoped, module indices stay below `n`, and voter decisions are
///    internally consistent (`agreeing ≤ proposing`, `proposing + withheld
///    = n`, the logged rule matches the proposal count, outputs have at
///    least one agreeing module).
/// 2. **Tallies** — for every grid cell, the telemetry stream under that
///    cell's scope must reproduce the report exactly: detected-fault
///    module verdicts ↔ `detected_events`, watchdog escalations ↔
///    `escalations`, and voter outcomes ↔ `correct + wrong` / `skipped` /
///    `no_output`. Headline scopes must carry one voter decision per
///    classified frame, and each cross-check variant must show exactly one
///    analytic solver run, one DES run, and a live chain stream.
///
/// A disabled recorder yields an empty stream, which is rejected: this
/// function is only meaningful for reports produced by
/// [`run_campaign`] with an enabled recorder.
///
/// # Errors
///
/// Describes the first inconsistency between stream and report.
pub fn validate_telemetry(
    report: &CampaignReport,
    records: &[TelemetryRecord],
) -> Result<(), String> {
    if records.is_empty() {
        return Err("telemetry stream is empty".into());
    }
    let n = report.config.n;
    let mut last_seq = None;
    for r in records {
        if r.scope.is_empty() {
            return Err(format!("record {} has an empty scope", r.seq));
        }
        if last_seq.is_some_and(|prev| r.seq <= prev) {
            return Err(format!(
                "sequence numbers are not strictly increasing at seq {}",
                r.seq
            ));
        }
        last_seq = Some(r.seq);
        match &r.event {
            TelemetryEvent::ModuleInference { module, .. }
            | TelemetryEvent::WatchdogEscalation { module, .. }
            | TelemetryEvent::RejuvenationStarted { module, .. }
            | TelemetryEvent::RejuvenationCompleted { module }
                if *module >= n =>
            {
                return Err(format!(
                    "record {}: module index {module} out of range (n = {n})",
                    r.seq
                ));
            }
            TelemetryEvent::VoterDecision {
                outcome,
                rule,
                proposing,
                agreeing,
                withheld,
                ..
            } => {
                if proposing + withheld != n {
                    return Err(format!(
                        "record {}: proposing {proposing} + withheld {withheld} != n {n}",
                        r.seq
                    ));
                }
                if agreeing > proposing {
                    return Err(format!(
                        "record {}: agreeing {agreeing} exceeds proposing {proposing}",
                        r.seq
                    ));
                }
                if *rule != VotingRule::for_proposal_count(*proposing) {
                    return Err(format!(
                        "record {}: rule {rule:?} does not match {proposing} proposals",
                        r.seq
                    ));
                }
                match outcome {
                    VoterOutcome::Output { .. } if *agreeing == 0 => {
                        return Err(format!("record {}: output with no agreeing module", r.seq));
                    }
                    VoterOutcome::NoModules if *proposing != 0 => {
                        return Err(format!(
                            "record {}: no-modules verdict despite {proposing} proposals",
                            r.seq
                        ));
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    // Grid cells: the scoped stream must reproduce the report's tallies.
    for cell in &report.grid {
        let prefix = format!("grid/{}/r{:.2}/{}/", cell.fault, cell.rate, cell.guard);
        let mut detected = 0u64;
        let mut escalations = 0u64;
        let (mut outputs, mut skips, mut silent) = (0usize, 0usize, 0usize);
        for r in records.iter().filter(|r| r.scope.starts_with(&prefix)) {
            match &r.event {
                TelemetryEvent::ModuleInference { verdict, .. } if verdict.is_detected_fault() => {
                    detected += 1;
                }
                TelemetryEvent::WatchdogEscalation { .. } => escalations += 1,
                TelemetryEvent::VoterDecision { outcome, .. } => match outcome {
                    VoterOutcome::Output { .. } => outputs += 1,
                    VoterOutcome::Skip => skips += 1,
                    VoterOutcome::NoModules => silent += 1,
                },
                _ => {}
            }
        }
        let cell_id = format!("{}/r{:.2}/{}", cell.fault, cell.rate, cell.guard);
        if detected != cell.detected_events {
            return Err(format!(
                "grid {cell_id}: {detected} detected-fault verdicts in telemetry \
                 vs {} detected_events in report",
                cell.detected_events
            ));
        }
        if escalations != cell.escalations {
            return Err(format!(
                "grid {cell_id}: {escalations} escalation records vs {} in report",
                cell.escalations
            ));
        }
        if outputs != cell.correct + cell.wrong {
            return Err(format!(
                "grid {cell_id}: {outputs} voter outputs vs {} (correct + wrong) in report",
                cell.correct + cell.wrong
            ));
        }
        if skips != cell.skipped {
            return Err(format!(
                "grid {cell_id}: {skips} voter skips vs {} in report",
                cell.skipped
            ));
        }
        if silent != cell.no_output {
            return Err(format!(
                "grid {cell_id}: {silent} no-module frames vs {} in report",
                cell.no_output
            ));
        }
    }

    // Headline: one voter decision per classified frame under each guard.
    let expected = report.headline.frames * report.config.plan_seeds.len();
    for guard in ["hardened", "unhardened"] {
        let prefix = format!("headline/{guard}/");
        let decisions = records
            .iter()
            .filter(|r| r.scope.starts_with(&prefix))
            .filter(|r| matches!(r.event, TelemetryEvent::VoterDecision { .. }))
            .count();
        if decisions != expected {
            return Err(format!(
                "headline/{guard}: {decisions} voter decisions vs {expected} frames classified"
            ));
        }
    }

    // Cross-check: each variant leaves an analytic solve, a DES run, and a
    // live stream under the health chain.
    for check in &report.cross_check {
        let variant = &check.variant;
        let solver_runs = |scope: &str, simulated: bool| {
            records
                .iter()
                .filter(|r| r.scope == scope)
                .filter(|r| {
                    matches!(&r.event, TelemetryEvent::SolverRun { backend, .. }
                        if (backend == "simulation") == simulated)
                })
                .count()
        };
        if solver_runs(&format!("crosscheck/{variant}/solve"), false) != 1 {
            return Err(format!(
                "crosscheck/{variant}: expected exactly one analytic solver run"
            ));
        }
        if solver_runs(&format!("crosscheck/{variant}/des"), true) != 1 {
            return Err(format!(
                "crosscheck/{variant}: expected exactly one DES solver run"
            ));
        }
        let chain = format!("crosscheck/{variant}/chain");
        if !records
            .iter()
            .any(|r| r.scope == chain && matches!(r.event, TelemetryEvent::VoterDecision { .. }))
        {
            return Err(format!(
                "crosscheck/{variant}: chain stream carries no voter decisions"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvml_obs::{content_streams_eq, RingBufferSink};
    use std::sync::Arc;

    /// A micro configuration exercising every stage in a few seconds.
    fn micro() -> CampaignConfig {
        CampaignConfig {
            train: TrainConfig {
                epochs: 4,
                batch_size: 32,
                lr: 0.08,
                ..TrainConfig::default()
            },
            train_per_class: 25,
            test_per_class: 30,
            plan_seeds: vec![11, 12],
            rates: vec![1.0],
            frames_per_cell: 60,
            headline_frames: 220,
            cross_check: Some(CrossCheckConfig {
                frames: 500,
                horizon: 1_500.0,
                warmup_frames: 60,
                batches: 8,
                des_horizon: 60_000.0,
                ..CampaignConfig::full()
                    .cross_check
                    .expect("full config defines a cross-check")
            }),
            ..CampaignConfig::smoke()
        }
    }

    /// Runs the micro campaign with a ring-buffered recorder, returning the
    /// report and the captured telemetry stream.
    fn traced_micro(cfg: &CampaignConfig) -> (CampaignReport, Vec<TelemetryRecord>) {
        let ring = Arc::new(RingBufferSink::new(200_000));
        let recorder = Recorder::with_sinks(vec![ring.clone()]);
        let report = run_campaign(cfg, &recorder);
        assert_eq!(ring.dropped(), 0, "ring buffer must hold the full stream");
        (report, ring.snapshot())
    }

    #[test]
    fn t_quantile_matches_tables() {
        // Two-sided Student-t quantiles from standard tables, and the
        // normal ±3σ in the limit.
        for (coverage, df, t) in [
            (0.95, 1, 12.7062),
            (0.95, 2, 4.3027),
            (0.95, 7, 2.3646),
            (0.99, 7, 3.4995),
            (0.99, 19, 2.8609),
            (COVERAGE, 100_000, 3.0000),
        ] {
            let q = t_quantile(coverage, df);
            assert!((q - t).abs() < 1e-4, "t({coverage}, {df}) = {q}, table {t}");
        }
    }

    #[test]
    fn micro_campaign_is_valid_and_deterministic() {
        let cfg = micro();
        let a = run_campaign(&cfg, &Recorder::disabled());
        validate_report(&a).expect("campaign invariants");
        // Telemetry is observe-only: a traced run of the same config must
        // produce a byte-identical report, and its stream must validate
        // against that report.
        let (b, records) = traced_micro(&cfg);
        let ja = serde_json::to_string(&a).expect("serialise");
        let jb = serde_json::to_string(&b).expect("serialise");
        assert_eq!(
            ja, jb,
            "telemetry must not perturb the report (on vs off byte-identity)"
        );
        validate_telemetry(&b, &records).expect("telemetry ↔ report consistency");
        // A second traced run must replay the identical stream content
        // (sequence, scopes, events — timings excluded).
        let (_, again) = traced_micro(&cfg);
        assert!(
            content_streams_eq(&records, &again),
            "telemetry stream content must be deterministic"
        );
        // Round-trip through the on-disk representation.
        let back: CampaignReport = serde_json::from_str(&ja).expect("parse");
        validate_report(&back).expect("round-tripped report");
    }

    #[test]
    fn validation_rejects_broken_reports() {
        let cfg = micro();
        let (report, records) = traced_micro(&cfg);
        let mut broken = report.clone();
        broken.headline.margin = -0.1;
        assert!(validate_report(&broken).is_err());
        let mut broken = report.clone();
        broken.headline.masked_never_changed_class = false;
        assert!(validate_report(&broken).is_err());
        let mut broken = report.clone();
        broken.per_state_reliability = vec![0.5; 4];
        assert!(validate_report(&broken).is_err());
        let mut broken = report.clone();
        broken.grid.clear();
        assert!(validate_report(&broken).is_err());

        // Telemetry cross-validation must reject tampered artifacts too.
        assert!(
            validate_telemetry(&report, &[]).is_err(),
            "an empty stream cannot back a report"
        );
        let mut broken = report.clone();
        broken.grid[0].detected_events += 1;
        assert!(
            validate_telemetry(&broken, &records).is_err(),
            "detected-event tally mismatch must be caught"
        );
        let mut broken = report.clone();
        broken.headline.frames += 1;
        assert!(
            validate_telemetry(&broken, &records).is_err(),
            "headline frame-count mismatch must be caught"
        );
        let mut tampered = records.clone();
        let voter = tampered
            .iter()
            .position(|r| matches!(r.event, TelemetryEvent::VoterDecision { .. }))
            .expect("stream has voter decisions");
        if let TelemetryEvent::VoterDecision { agreeing, .. } = &mut tampered[voter].event {
            *agreeing = report.config.n + 1;
        }
        assert!(
            validate_telemetry(&report, &tampered).is_err(),
            "inconsistent voter decision must be caught"
        );
    }
}
