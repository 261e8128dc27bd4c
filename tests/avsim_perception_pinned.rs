//! Pins `avsim` perception under runtime faults bit for bit. A seeded
//! three-detector system runs a few hundred frames while its health process
//! compromises, fails and proactively rejuvenates modules and a runtime
//! fault plan crashes, delays, wedges and saturates them. Every frame's
//! verdict, module states, fault events and MAC count, and the final fault
//! log, are folded into one FNV-1a hash and compared with a pinned
//! constant. Any change to the module boundary (fault containment, the
//! stale buffer, the sanitizer, watchdog escalation, event order), to the
//! sensor-noise stream or to the health process (the Fig. 3 net it plays)
//! moves it. The hash must not depend on the thread count of the detector
//! fan-out.

use resilient_perception::avsim::bev::rasterize;
use resilient_perception::avsim::detector::{yolo_mini, DetectorTrainConfig, VARIANTS};
use resilient_perception::avsim::geometry::Vec2;
use resilient_perception::avsim::world::ObjectTruth;
use resilient_perception::avsim::{DetectorBank, MultiVersionPerception, PerceptionConfig};
use resilient_perception::faultinject::{CorruptionMode, RuntimeFault, RuntimeFaultPlan};
use resilient_perception::mvml::rejuvenation::{ProcessConfig, VictimRule};
use resilient_perception::mvml::SystemParams;
use resilient_perception::nn::exec::{current, scoped, Exec, Tuning};

/// The pinned hash of [`run`].
const PINNED: u64 = 0x73c3_f3f6_727a_ccb3;

/// FNV-1a (64-bit), fed string by string.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, s: &str) {
        for b in s.bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Three seeded yolo-mini variants, briefly trained so that healthy
/// modules agree often enough for every voting rule to fire.
fn bank() -> DetectorBank {
    let cfg = DetectorTrainConfig {
        scenes: 400,
        epochs: 3,
        ..DetectorTrainConfig::default()
    };
    let models = VARIANTS
        .iter()
        .enumerate()
        .map(|(i, &(name, channels))| {
            let mut m = yolo_mini(name, channels, 50 + i as u64);
            let _ = resilient_perception::avsim::detector::train_detector(
                &mut m,
                &DetectorTrainConfig {
                    seed: 60 + i as u64,
                    ..cfg
                },
            );
            m
        })
        .collect();
    DetectorBank::from_models(models)
}

/// Fast clocks: several compromises, failures and proactive rejuvenations
/// per module over the run.
fn process() -> ProcessConfig {
    ProcessConfig {
        params: SystemParams {
            mttc: 2.0,
            mttf: 4.0,
            reactive_time: 0.4,
            proactive_time: 0.3,
            rejuvenation_interval: 1.5,
            ..SystemParams::carla_case_study()
        },
        proactive: true,
        victims: VictimRule::Priority(2.0 / 3.0),
    }
}

/// Every runtime fault kind whose handling both the classifier and the
/// detector boundary have always agreed on.
fn plan() -> RuntimeFaultPlan {
    RuntimeFaultPlan::new(17)
        .with_rule(RuntimeFault::Crash, 0.05, None)
        .with_rule(RuntimeFault::Latency, 0.05, None)
        .with_rule(RuntimeFault::Stale, 0.08, None)
        .with_rule(
            RuntimeFault::Corrupt(CorruptionMode::Saturate),
            0.05,
            Some(1),
        )
}

/// Runs 360 frames at 20 fps with a lead vehicle that closes in and
/// drifts away, and hashes everything the perception system reports.
fn run(bank: &DetectorBank) -> u64 {
    let mut p = MultiVersionPerception::new(bank, PerceptionConfig::default(), process(), 29);
    p.set_fault_plan(Some(plan()));
    let mut h = Fnv::new();
    for frame in 0..360u32 {
        let _ = p.advance(0.05);
        let lead = 8.0 + f64::from(frame % 48);
        let grid = rasterize(
            Vec2::new(0.0, 0.0),
            0.0,
            &[ObjectTruth {
                position: Vec2::new(lead, 0.0),
                heading: 0.0,
            }],
        );
        let out = p.perceive(&grid);
        h.feed(&format!("{:?}", out.verdict));
        h.feed(&format!("{:?}", out.states));
        h.feed(&format!("{:?}", out.events));
        h.feed(&out.macs.to_string());
    }
    let log = p.fault_log();
    h.feed(&format!("{:?}", log.events().collect::<Vec<_>>()));
    h.feed(&format!("{} {}", log.total(), log.dropped()));
    for m in 0..3 {
        h.feed(&log.module_total(m).to_string());
    }
    h.0
}

#[test]
fn faulted_perception_is_pinned_for_any_thread_count() {
    // The built-in tuning, held in a scope: scopes are process-wide and
    // serialized, so no other test's scope can route a convolution to a
    // kernel that sums in another order while this one trains and runs.
    let base = Exec {
        tuning: Tuning::default(),
        ..current()
    };
    let bank = scoped(base, bank);
    for threads in [1, 2] {
        let got = scoped(Exec { threads, ..base }, || run(&bank));
        assert_eq!(
            got, PINNED,
            "perception hash {got:#018x} at {threads} thread(s), pinned {PINNED:#018x}"
        );
    }
}
