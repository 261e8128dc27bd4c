//! The experiment runner: closed-loop simulation of a route with
//! multi-version perception, and the aggregation behind the paper's
//! Tables VI and VII.

use crate::bev::{cell_centre, rasterize};
use crate::detector::DetectionSet;
use crate::geometry::{Polyline, Vec2};
use crate::perception::{DetectorBank, MultiVersionPerception, PerceptionConfig};
use crate::planner::{AccPlanner, ObstacleAhead, PlannerConfig};
use crate::town::RouteSpec;
use crate::world::World;
use mvml_core::rejuvenation::ProcessConfig;
use mvml_core::Verdict;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Perception-system configuration.
    pub perception: PerceptionConfig,
    /// Module health / rejuvenation process configuration.
    pub process: ProcessConfig,
    /// Simulation step, seconds (the paper's runs resolve ~20 frames/s).
    pub dt: f64,
    /// Hard frame budget per run.
    pub max_frames: usize,
    /// Run seed (drives module failures, sensor noise, injections).
    pub seed: u64,
}

impl RunConfig {
    /// The paper's case-study configuration: three versions, CARLA-paced
    /// fault clocks, 20 FPS.
    pub fn case_study(proactive: bool, seed: u64) -> Self {
        RunConfig {
            perception: PerceptionConfig {
                proactive,
                ..PerceptionConfig::default()
            },
            process: ProcessConfig::carla(proactive),
            dt: 0.05,
            max_frames: 900,
            seed,
        }
    }
}

/// Metrics of one run (one row of raw data behind Tables VI/VII).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Simulated frames.
    pub frames: usize,
    /// Frames during which the ego overlapped another actor.
    pub collision_frames: usize,
    /// Frame index of the first collision, if any.
    pub first_collision: Option<usize>,
    /// Frames on which the voter skipped.
    pub skipped_frames: usize,
    /// Frames with no operational module.
    pub no_output_frames: usize,
    /// Whether the ego reached the route end within the frame budget.
    pub completed: bool,
    /// Wall-clock time spent inside the perception pipeline.
    pub perception_time: Duration,
    /// Wall-clock time of the whole loop.
    pub total_time: Duration,
    /// Total detector multiply-accumulates executed.
    pub macs: u64,
    /// Runtime fault events detected by the hardened perception pipeline.
    pub fault_events: u64,
}

impl RunMetrics {
    /// Collision frames as a percentage of total frames.
    pub fn collision_rate(&self) -> f64 {
        if self.frames == 0 {
            return 0.0;
        }
        100.0 * self.collision_frames as f64 / self.frames as f64
    }

    /// Skipped frames as a fraction of total frames.
    pub fn skip_ratio(&self) -> f64 {
        if self.frames == 0 {
            return 0.0;
        }
        self.skipped_frames as f64 / self.frames as f64
    }
}

/// Projects fused detections back into world coordinates and onto the
/// route, returning the along-path distance to the nearest detection within
/// `lateral_tol` metres of the path and at most `max_ahead` metres ahead —
/// the path-aware obstacle query the planner consumes (a lead vehicle
/// around a corner is as relevant as one dead ahead).
pub fn nearest_obstacle_on_path(
    detections: &DetectionSet,
    ego_position: Vec2,
    ego_heading: f64,
    path: &Polyline,
    ego_s: f64,
    lateral_tol: f64,
    max_ahead: f64,
) -> ObstacleAhead {
    detections
        .iter()
        .filter_map(|cell| {
            let (fwd, lat) = cell_centre(cell);
            let world = ego_position + Vec2::new(fwd, lat).rotated(ego_heading);
            let (s, lateral) = path.project(world);
            let ahead = s - ego_s;
            // The finiteness check also rejects NaN projections (from
            // degenerate geometry or corrupted upstream state), so the
            // min_by below is total and can never panic.
            (ahead.is_finite() && lateral <= lateral_tol && ahead > 0.5 && ahead <= max_ahead)
                .then_some(ahead)
        })
        .min_by(f64::total_cmp)
}

/// Simulates one route with the given configuration.
pub fn run_route(route: &RouteSpec, bank: &DetectorBank, cfg: &RunConfig) -> RunMetrics {
    run_route_traced(route, bank, cfg, &mvml_obs::Recorder::disabled())
}

/// [`run_route`] with telemetry: every tick emits a timed `perception` and
/// `planner` span (plus the perception pipeline's own module/voter/
/// watchdog/rejuvenation events through the same recorder). Metrics and
/// simulated behaviour are byte-identical to an untraced run.
pub fn run_route_traced(
    route: &RouteSpec,
    bank: &DetectorBank,
    cfg: &RunConfig,
    recorder: &mvml_obs::Recorder,
) -> RunMetrics {
    let mut world = World::new(route);
    let path = route.path();
    let mut perception = MultiVersionPerception::new(bank, cfg.perception, cfg.process, cfg.seed);
    perception.set_recorder(recorder.clone());
    let planner_cfg = PlannerConfig::for_target_speed(route.target_speed);
    let mut planner = AccPlanner::new(planner_cfg);

    let mut metrics = RunMetrics {
        frames: 0,
        collision_frames: 0,
        first_collision: None,
        skipped_frames: 0,
        no_output_frames: 0,
        completed: false,
        perception_time: Duration::ZERO,
        total_time: Duration::ZERO,
        macs: 0,
        fault_events: 0,
    };

    // mvml-allow(determinism): wall-clock here feeds overhead metrics and telemetry only, never the simulation
    let loop_start = Instant::now();
    for frame in 0..cfg.max_frames {
        let _ = perception.advance(cfg.dt);

        let ego = world.ego();
        let clean = rasterize(ego.position(), ego.heading(), &world.ground_truth());

        // mvml-allow(determinism): measured perception latency for Table VIII overhead, observe-only
        let t0 = Instant::now();
        let output = perception.perceive(&clean);
        let perceive_elapsed = t0.elapsed();
        metrics.perception_time += perceive_elapsed;
        metrics.macs += output.macs;
        metrics.fault_events += output.events.len() as u64;
        recorder.emit_timed(
            Some(mvml_obs::Timing {
                duration_ns: u64::try_from(perceive_elapsed.as_nanos()).unwrap_or(u64::MAX),
            }),
            || mvml_obs::TelemetryEvent::Tick {
                stage: "perception".to_string(),
                frame: frame as u64,
            },
        );

        match &output.verdict {
            Verdict::Skip => metrics.skipped_frames += 1,
            Verdict::NoModules => metrics.no_output_frames += 1,
            Verdict::Output(_) => {}
        }
        let ego = world.ego();
        let perceived: Verdict<ObstacleAhead> = match &output.verdict {
            Verdict::Output(detections) => Verdict::Output(nearest_obstacle_on_path(
                detections,
                ego.position(),
                ego.heading(),
                &path,
                ego.arc_position(),
                planner_cfg.corridor,
                60.0,
            )),
            Verdict::Skip => Verdict::Skip,
            Verdict::NoModules => Verdict::NoModules,
        };
        let plan_span = recorder.span();
        let accel = planner.plan(&perceived, world.ego().speed());
        world.step(accel, cfg.dt);
        recorder.emit_timed(plan_span.stop(), || mvml_obs::TelemetryEvent::Tick {
            stage: "planner".to_string(),
            frame: frame as u64,
        });
        metrics.frames = frame + 1;

        if world.ego_collides() {
            metrics.collision_frames += 1;
            metrics.first_collision.get_or_insert(frame + 1);
        }
        if world.route_completed() {
            metrics.completed = true;
            break;
        }
    }
    metrics.total_time = loop_start.elapsed();
    metrics
}

/// Aggregate over several runs of one route (one row of Table VI/VII).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteAggregate {
    /// Route number.
    pub route_id: usize,
    /// Mean first-collision frame over the runs that collided (`None` when
    /// no run collided — the paper prints "NA").
    pub first_collision_frame: Option<f64>,
    /// Mean total frames per run.
    pub avg_frames: f64,
    /// Mean collision rate, percent.
    pub collision_rate: f64,
    /// Runs with at least one collision.
    pub runs_with_collision: usize,
    /// Total runs.
    pub runs: usize,
    /// Mean skipped-frame ratio.
    pub skip_ratio: f64,
}

/// Runs a route `runs` times with distinct seeds and aggregates. Run `i`
/// emits telemetry under the child scope `run{i}` of `recorder`'s scope;
/// pass [`mvml_obs::Recorder::disabled`] for none.
pub fn aggregate_route(
    route: &RouteSpec,
    bank: &DetectorBank,
    base: &RunConfig,
    runs: usize,
    recorder: &mvml_obs::Recorder,
) -> RouteAggregate {
    let results: Vec<RunMetrics> = (0..runs)
        .map(|i| {
            let cfg = RunConfig {
                seed: base.seed.wrapping_add(1000 * i as u64 + route.id as u64),
                ..*base
            };
            run_route_traced(route, bank, &cfg, &recorder.child(&format!("run{i}")))
        })
        .collect();
    let collided: Vec<usize> = results.iter().filter_map(|r| r.first_collision).collect();
    RouteAggregate {
        route_id: route.id,
        first_collision_frame: if collided.is_empty() {
            None
        } else {
            Some(collided.iter().map(|&f| f as f64).sum::<f64>() / collided.len() as f64)
        },
        avg_frames: results.iter().map(|r| r.frames as f64).sum::<f64>() / runs as f64,
        collision_rate: results.iter().map(RunMetrics::collision_rate).sum::<f64>() / runs as f64,
        runs_with_collision: collided.len(),
        runs,
        skip_ratio: results.iter().map(RunMetrics::skip_ratio).sum::<f64>() / runs as f64,
    }
}

#[cfg(test)]
// Exact float assertions are deliberate here: the expected values are
// produced by the same deterministic arithmetic being tested.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::detector::{train_detector, yolo_mini, DetectorTrainConfig};
    use crate::town::route;
    use mvml_core::SystemParams;

    fn tiny_bank() -> DetectorBank {
        let cfg = DetectorTrainConfig {
            scenes: 220,
            epochs: 3,
            ..DetectorTrainConfig::default()
        };
        let models = (0..3)
            .map(|i| {
                let mut m = yolo_mini("tiny", 4, i);
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

    fn healthy_cfg(seed: u64) -> RunConfig {
        // Fault clocks effectively disabled: perception stays healthy.
        let mut cfg = RunConfig::case_study(false, seed);
        cfg.process = mvml_core::rejuvenation::ProcessConfig {
            params: SystemParams {
                mttc: 1e12,
                mttf: 1e12,
                ..SystemParams::carla_case_study()
            },
            proactive: false,
            victims: mvml_core::rejuvenation::VictimRule::Priority(2.0 / 3.0),
        };
        cfg
    }

    #[test]
    fn healthy_perception_drives_route_one_safely() {
        let bank = tiny_bank();
        let r = route(1).unwrap();
        let m = run_route(&r, &bank, &healthy_cfg(5));
        assert_eq!(m.collision_frames, 0, "healthy run collided: {m:?}");
        assert!(m.frames > 100);
        assert!(m.macs > 0);
        assert!(
            m.skip_ratio() < 0.25,
            "excessive skipping: {}",
            m.skip_ratio()
        );
    }

    #[test]
    fn faulty_perception_without_rejuvenation_is_dangerous() {
        let bank = tiny_bank();
        let r = route(1).unwrap();
        // Aggressive fault clocks, no proactive rejuvenation: expect at
        // least one collision across a handful of seeds.
        let mut any_collision = false;
        for seed in 0..10 {
            let cfg = RunConfig::case_study(false, 100 + seed);
            let m = run_route(&r, &bank, &cfg);
            if m.first_collision.is_some() {
                any_collision = true;
                break;
            }
        }
        assert!(any_collision, "no collision in 10 unprotected faulty runs");
    }

    #[test]
    fn aggregation_arithmetic() {
        let bank = tiny_bank();
        let r = route(1).unwrap();
        let agg = aggregate_route(
            &r,
            &bank,
            &healthy_cfg(1),
            2,
            &mvml_obs::Recorder::disabled(),
        );
        assert_eq!(agg.runs, 2);
        assert_eq!(agg.route_id, 1);
        assert_eq!(agg.runs_with_collision, 0);
        assert!(agg.first_collision_frame.is_none());
        assert!(agg.avg_frames > 0.0);
        assert_eq!(agg.collision_rate, 0.0);
    }

    #[test]
    fn run_metrics_rates() {
        let m = RunMetrics {
            frames: 200,
            collision_frames: 50,
            first_collision: Some(120),
            skipped_frames: 4,
            no_output_frames: 0,
            completed: true,
            perception_time: Duration::from_millis(10),
            total_time: Duration::from_millis(20),
            macs: 1,
            fault_events: 0,
        };
        assert_eq!(m.collision_rate(), 25.0);
        assert_eq!(m.skip_ratio(), 0.02);
        let empty = RunMetrics { frames: 0, ..m };
        assert_eq!(empty.collision_rate(), 0.0);
        assert_eq!(empty.skip_ratio(), 0.0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let bank = tiny_bank();
        let r = route(2).unwrap();
        let cfg = RunConfig::case_study(true, 77);
        let a = run_route(&r, &bank, &cfg);
        let b = run_route(&r, &bank, &cfg);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.collision_frames, b.collision_frames);
        assert_eq!(a.first_collision, b.first_collision);
        assert_eq!(a.skipped_frames, b.skipped_frames);
    }
}
