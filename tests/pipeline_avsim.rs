//! End-to-end driving-safety pipeline test across `avsim` + `core` +
//! `faultinject`: the Section VII causal chain at test scale — healthy
//! perception drives safely; aggressive fault clocks without proactive
//! rejuvenation degrade safety; proactive rejuvenation restores it.

use resilient_perception::avsim::detector::{train_detector, yolo_mini, DetectorTrainConfig};
use resilient_perception::avsim::runner::{run_route, RunConfig};
use resilient_perception::avsim::town::{all_routes, route};
use resilient_perception::avsim::DetectorBank;
use resilient_perception::mvml::rejuvenation::{ProcessConfig, VictimRule};
use resilient_perception::mvml::SystemParams;

/// A moderately trained bank — good enough for near-zero healthy skip rate.
fn bank() -> DetectorBank {
    let cfg = DetectorTrainConfig {
        scenes: 700,
        epochs: 4,
        ..DetectorTrainConfig::default()
    };
    let models = (0..3)
        .map(|i| {
            let mut m = yolo_mini(["s", "m", "l"][i as usize], 4 + 2 * i as usize, i);
            let _ = train_detector(
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

fn healthy_process() -> ProcessConfig {
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

#[test]
fn healthy_perception_is_safe_on_every_route() {
    let bank = bank();
    for r in all_routes() {
        let mut cfg = RunConfig::case_study(false, 40 + r.id as u64);
        cfg.process = healthy_process();
        let m = run_route(&r, &bank, &cfg);
        assert_eq!(
            m.collision_frames, 0,
            "route {} collided with healthy perception: {m:?}",
            r.id
        );
        assert!(
            m.skip_ratio() < 0.10,
            "route {} skipped {:.1}% of frames while healthy",
            r.id,
            100.0 * m.skip_ratio()
        );
    }
}

#[test]
fn rejuvenation_reduces_collisions_under_attack() {
    let bank = bank();
    let r = route(1).expect("route 1");
    let seeds: Vec<u64> = (0..6).collect();
    let collisions = |proactive: bool| -> usize {
        seeds
            .iter()
            .filter(|&&s| {
                let cfg = RunConfig::case_study(proactive, 0xBEEF + s);
                run_route(&r, &bank, &cfg).first_collision.is_some()
            })
            .count()
    };
    let with_rej = collisions(true);
    let without = collisions(false);
    assert!(
        with_rej <= without,
        "rejuvenation must not increase collisions ({with_rej} vs {without})"
    );
    assert!(
        without >= 1,
        "unprotected runs should collide at least once in 6 seeds"
    );
}

#[test]
fn degraded_module_states_follow_the_process() {
    use resilient_perception::avsim::perception::{MultiVersionPerception, PerceptionConfig};
    use resilient_perception::mvml::ModuleState;
    let bank = bank();
    let mut p = MultiVersionPerception::new(
        &bank,
        PerceptionConfig::default(),
        ProcessConfig::carla(false),
        3,
    );
    // After a long advance with CARLA clocks (mttc 8 s) most modules will
    // have left the healthy state at least once.
    let events = p.advance(40.0);
    assert!(!events.is_empty());
    assert_eq!(p.states().len(), 3);
    // States must be legal enum values and the perception still answers.
    let grid = resilient_perception::nn::Tensor::zeros(&[1, 1, 32, 32]);
    let frame = p.perceive(&grid);
    assert_eq!(frame.states.len(), 3);
    for s in frame.states {
        let _ = matches!(
            s,
            ModuleState::Healthy
                | ModuleState::Compromised
                | ModuleState::NonFunctional
                | ModuleState::Rejuvenating
        );
    }
}
