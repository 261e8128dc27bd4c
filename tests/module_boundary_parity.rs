//! One module boundary, two pipelines: the classifier system
//! (`NVersionSystem`) and the detector system (`MultiVersionPerception`)
//! must judge the same runtime faults the same way. Both are driven with
//! one fault plan over every fault kind and one watchdog, with no health
//! clock running, so module health changes only through escalation. The
//! fault events they report, `(module, frame, kind)` in order, must agree
//! frame by frame, and so must the escalations and the final states. Both
//! also emit their per-module telemetry in module order.

use mvml_obs::{GuardVerdict, Recorder, RingBufferSink, TelemetryEvent};
use resilient_perception::avsim::bev::rasterize;
use resilient_perception::avsim::detector::{yolo_mini, VARIANTS};
use resilient_perception::avsim::geometry::Vec2;
use resilient_perception::avsim::{DetectorBank, MultiVersionPerception, PerceptionConfig};
use resilient_perception::faultinject::{CorruptionMode, RuntimeFault, RuntimeFaultPlan};
use resilient_perception::mvml::rejuvenation::{ProcessConfig, VictimRule};
use resilient_perception::mvml::watchdog::{FaultEventKind, WatchdogConfig};
use resilient_perception::mvml::{NVersionSystem, SystemParams};
use resilient_perception::nn::{Sequential, Tensor};
use std::sync::Arc;

/// Crash, latency, stale and two corruptions (one non-finite, one finite):
/// every way a runtime fault can reach the boundary.
fn plan() -> RuntimeFaultPlan {
    RuntimeFaultPlan::new(23)
        .with_rule(RuntimeFault::Crash, 0.03, None)
        .with_rule(RuntimeFault::Latency, 0.03, None)
        .with_rule(RuntimeFault::Stale, 0.15, None)
        .with_rule(RuntimeFault::Corrupt(CorruptionMode::Nan), 0.06, None)
        .with_rule(RuntimeFault::Corrupt(CorruptionMode::Saturate), 0.04, None)
}

const WATCHDOG: WatchdogConfig = WatchdogConfig {
    window: 12,
    threshold: 4,
};

/// A health process whose clocks never fire: no compromise, no failure,
/// no rejuvenation within the run.
fn frozen_process() -> ProcessConfig {
    ProcessConfig {
        params: SystemParams {
            mttc: 1e12,
            mttf: 1e12,
            ..SystemParams::carla_case_study()
        },
        proactive: false,
        victims: VictimRule::Priority(2.0 / 3.0),
    }
}

/// Three identity "classifiers" (logits = input row) under `watchdog`.
#[allow(clippy::expect_used)] // test helper; the watchdog constants are valid
fn classifiers(watchdog: WatchdogConfig) -> NVersionSystem {
    let mut system = NVersionSystem::new(
        (0..3)
            .map(|i| Sequential::new(format!("identity-{i}")))
            .collect(),
    );
    let mut guard = system.guard();
    guard.watchdog = Some(watchdog);
    system.set_guard(guard).expect("valid guard");
    system
}

/// Three untrained, seeded yolo-mini detectors under `watchdog`.
fn detectors(watchdog: WatchdogConfig) -> MultiVersionPerception {
    let bank = DetectorBank::from_models(
        VARIANTS
            .iter()
            .enumerate()
            .map(|(i, &(name, channels))| yolo_mini(name, channels, 70 + i as u64))
            .collect(),
    );
    MultiVersionPerception::new(
        &bank,
        PerceptionConfig {
            watchdog: Some(watchdog),
            ..PerceptionConfig::default()
        },
        frozen_process(),
        5,
    )
}

#[test]
fn classifier_and_detector_pipelines_report_the_same_faults() {
    // A one-sample batch, so a frame is one voting decision on both sides.
    let mut classifiers = classifiers(WATCHDOG);
    classifiers.set_fault_plan(Some(plan()));
    let x = Tensor::from_vec(&[1, 3], vec![0.2, 0.7, 0.1]);
    let mut detectors = detectors(WATCHDOG);
    detectors.set_fault_plan(Some(plan()));
    let grid = rasterize(Vec2::new(0.0, 0.0), 0.0, &[]);

    let mut kinds = Vec::new();
    let mut stale_after_nan = 0;
    for frame in 0..240u64 {
        let c = classifiers.classify_batch_detailed(&x);
        let d = detectors.perceive(&grid);
        assert_eq!(c.events, d.events, "frame {frame}: events differ");
        for e in &c.events {
            kinds.push(e.kind);
            let planned = plan().fault_for(e.module, e.frame);
            if matches!(e.kind, FaultEventKind::NonFiniteOutput { .. })
                && planned == Some(RuntimeFault::Stale)
            {
                stale_after_nan += 1;
            }
        }
    }
    let states: Vec<_> = (0..3).map(|m| classifiers.module(m).state()).collect();
    assert_eq!(states, detectors.states(), "final module states differ");
    assert_eq!(
        classifiers.fault_log().events().collect::<Vec<_>>(),
        detectors.fault_log().events().collect::<Vec<_>>(),
        "fault logs differ"
    );

    // The run must exercise every verdict of the boundary, including a
    // stale replay of withheld non-finite output.
    for want in [
        FaultEventKind::Panic,
        FaultEventKind::DeadlineMiss,
        FaultEventKind::NonFiniteOutput { samples: 1 },
        FaultEventKind::Escalated,
    ] {
        assert!(kinds.contains(&want), "no {want:?} event in the run");
    }
    assert!(stale_after_nan > 0, "no stale replay of non-finite output");
}

/// The `(module, verdict)` of every module inference recorded on `frame`.
fn inferences(ring: &RingBufferSink, frame: u64) -> Vec<(usize, GuardVerdict)> {
    ring.snapshot()
        .into_iter()
        .filter_map(|r| match r.event {
            TelemetryEvent::ModuleInference {
                module,
                frame: f,
                verdict,
            } if f == frame => Some((module, verdict)),
            _ => None,
        })
        .collect()
}

#[test]
fn module_inferences_are_emitted_in_module_order() {
    // Frame 0 fills every stale buffer; on frame 1 module 1 is wedged while
    // modules 0 and 2 run.
    let stale_1 = RuntimeFaultPlan::new(1).with_rule(RuntimeFault::Stale, 1.0, Some(1));
    let expected = vec![
        (0, GuardVerdict::Accepted),
        (1, GuardVerdict::StaleReplay),
        (2, GuardVerdict::Accepted),
    ];

    let ring = Arc::new(RingBufferSink::new(1 << 10));
    let mut c = classifiers(WatchdogConfig::default());
    c.set_recorder(Recorder::new(ring.clone()));
    let x = Tensor::from_vec(&[1, 3], vec![0.2, 0.7, 0.1]);
    let _ = c.classify_batch_detailed(&x);
    c.set_fault_plan(Some(stale_1.clone()));
    let _ = c.classify_batch_detailed(&x);
    assert_eq!(inferences(&ring, 1), expected, "classifier telemetry");

    let ring = Arc::new(RingBufferSink::new(1 << 10));
    let mut d = detectors(WatchdogConfig::default());
    d.set_recorder(Recorder::new(ring.clone()));
    let grid = rasterize(Vec2::new(0.0, 0.0), 0.0, &[]);
    let _ = d.perceive(&grid);
    d.set_fault_plan(Some(stale_1));
    let _ = d.perceive(&grid);
    assert_eq!(inferences(&ring, 1), expected, "detector telemetry");
}
