//! `avsim-route`: the paper's Table VIII system. Three yolo-mini detector
//! versions with proactive rejuvenation and CARLA-paced compromise and
//! failure clocks drive the closed-loop simulation over the eight routes.
//! Never touches proto or serve.
//!
//! The benchmark drives the frame loop itself with the public calls
//! `run_route` makes, so that every frame can be timed, and checks that
//! its loop reproduces `run_route` exactly on route 1, seed 1.

use crate::nn::{forward_traced, model_metrics, ModelNames};
use crate::trace::{Name, SpanId, Tracer};
use crate::{alloc, per_op_us, set_up, stage, stats, stream, Args, Outcome};
use mvml_avsim::bev::{add_sensor_noise, rasterize};
use mvml_avsim::detector::decode;
use mvml_avsim::geometry::Polyline;
use mvml_avsim::perception::vote_detections;
use mvml_avsim::planner::{AccPlanner, ObstacleAhead, PlannerConfig};
use mvml_avsim::runner::nearest_obstacle_on_path;
use mvml_avsim::{
    all_routes, run_route, DetectorBank, DetectorTrainConfig, MultiVersionPerception, RouteSpec,
    RunConfig, World,
};
use mvml_core::{ModuleState, Verdict};
use mvml_nn::layer::Layer;
use mvml_nn::parallel::ThreadPool;
use mvml_nn::{Sequential, Tensor};
use rand::Rng;
use std::time::{Duration, Instant};

/// How far ahead the planner looks for obstacles on the path, metres
/// (the value `run_route` passes).
const LOOKAHEAD_M: f64 = 60.0;

/// Span names of one frame.
struct FrameNames {
    frame: Name,
    advance: Name,
    rasterize: Name,
    perceive: Name,
    project: Name,
    plan: Name,
    step: Name,
}

impl FrameNames {
    fn new(t: &Tracer) -> Self {
        FrameNames {
            frame: t.name("avsim.frame"),
            advance: t.name("core.rejuvenation.advance"),
            rasterize: t.name("avsim.bev.rasterize"),
            perceive: t.name("avsim.perception.perceive"),
            project: t.name("avsim.runner.project"),
            plan: t.name("avsim.planner.plan"),
            step: t.name("avsim.world.step"),
        }
    }
}

/// Frame outcome counts, as `RunMetrics` keeps them.
#[derive(Debug, Default)]
struct Counts {
    frames: u64,
    collisions: u64,
    skipped: u64,
    no_output: u64,
    macs: u64,
}

/// What a replay of the frame's perception needs.
struct Seen {
    clean: Tensor,
    states: Vec<ModuleState>,
}

/// One route episode driven frame by frame.
struct Drive {
    world: World,
    path: Polyline,
    perception: MultiVersionPerception,
    planner: AccPlanner,
    corridor: f64,
    cfg: RunConfig,
    frame: usize,
    done: bool,
}

impl Drive {
    fn new(route: &RouteSpec, bank: &DetectorBank, cfg: RunConfig) -> Self {
        let planner_cfg = PlannerConfig::for_target_speed(route.target_speed);
        Drive {
            world: World::new(route),
            path: route.path(),
            perception: MultiVersionPerception::new(bank, cfg.perception, cfg.process, cfg.seed),
            planner: AccPlanner::new(planner_cfg),
            corridor: planner_cfg.corridor,
            cfg,
            frame: 0,
            done: false,
        }
    }

    fn finished(&self) -> bool {
        self.done || self.frame >= self.cfg.max_frames
    }

    /// One frame of `run_route`'s loop, each stage in a span when traced.
    fn step(&mut self, probe: Option<(&Tracer, SpanId)>, n: &FrameNames, c: &mut Counts) -> Seen {
        let dt = self.cfg.dt;
        stage(probe, n.advance, || self.perception.advance(dt));
        let clean = stage(probe, n.rasterize, || {
            let ego = self.world.ego();
            rasterize(ego.position(), ego.heading(), &self.world.ground_truth())
        });
        let output = stage(probe, n.perceive, || self.perception.perceive(&clean));
        c.macs += output.macs;
        match &output.verdict {
            Verdict::Skip => c.skipped += 1,
            Verdict::NoModules => c.no_output += 1,
            Verdict::Output(_) => {}
        }
        let perceived: Verdict<ObstacleAhead> = stage(probe, n.project, || {
            let ego = self.world.ego();
            match &output.verdict {
                Verdict::Output(detections) => Verdict::Output(nearest_obstacle_on_path(
                    detections,
                    ego.position(),
                    ego.heading(),
                    &self.path,
                    ego.arc_position(),
                    self.corridor,
                    LOOKAHEAD_M,
                )),
                Verdict::Skip => Verdict::Skip,
                Verdict::NoModules => Verdict::NoModules,
            }
        });
        let accel = stage(probe, n.plan, || {
            self.planner.plan(&perceived, self.world.ego().speed())
        });
        stage(probe, n.step, || self.world.step(accel, dt));
        self.frame += 1;
        c.frames += 1;
        if self.world.ego_collides() {
            c.collisions += 1;
        }
        if self.world.route_completed() {
            self.done = true;
        }
        Seen {
            clean,
            states: output.states,
        }
    }
}

/// Span names of the perception replay.
struct ReplayNames {
    root: Name,
    noise: Name,
    fanout: Name,
    decode: Name,
    vote: Name,
    models: Vec<ModelNames>,
}

/// Replays the frame's perception with the public pieces `perceive` is
/// built from (sensor noise per operational module, the thread-pool
/// forward fan-out, decoding, the detection voter), then times each
/// operational model's forward layer by layer. Returns the MACs per model.
fn replay(
    t: &Tracer,
    n: &ReplayNames,
    models: &mut [Sequential],
    seen: &Seen,
    cfg: &RunConfig,
    rng: &mut rand::rngs::StdRng,
) -> Vec<u64> {
    let pc = cfg.perception;
    let root = t.begin(n.root);
    let operational: Vec<usize> = (0..models.len())
        .filter(|&i| seen.states[i].is_operational())
        .collect();
    let noisy: Vec<Tensor> = operational
        .iter()
        .map(|_| {
            t.time(root, n.noise, || {
                add_sensor_noise(&seen.clean, pc.noise_sigma, pc.clutter, rng)
            })
        })
        .collect();
    let jobs: Vec<(&mut Sequential, &Tensor)> = models
        .iter_mut()
        .enumerate()
        .filter(|(i, _)| operational.contains(i))
        .map(|(_, m)| m)
        .zip(&noisy)
        .collect();
    let logits = t.time(root, n.fanout, || {
        ThreadPool::new().map(jobs, |(model, x)| model.forward(x, false))
    });
    let mut proposals = vec![None; models.len()];
    t.time(root, n.decode, || {
        for (i, l) in operational.iter().zip(&logits) {
            proposals[*i] = Some(decode(l, pc.threshold));
        }
    });
    let verdict = t.time(root, n.vote, || {
        vote_detections(&proposals, pc.agreement_tolerance)
    });
    std::hint::black_box(verdict);
    t.end(root);
    let mut macs = vec![0u64; models.len()];
    for (i, x) in operational.iter().zip(&noisy) {
        macs[*i] += forward_traced(t, &n.models[*i], &mut models[*i], x);
    }
    macs
}

/// The seeded episode schedule: the eight routes in a fresh shuffled order
/// every eight episodes, each episode with its own run seed.
struct Schedule {
    routes: Vec<RouteSpec>,
    order: Vec<usize>,
    next: usize,
    rng: rand::rngs::StdRng,
}

impl Schedule {
    fn next_episode(&mut self, bank: &DetectorBank) -> Drive {
        if self.next % self.routes.len() == 0 {
            self.order = (0..self.routes.len()).collect();
            for i in (1..self.order.len()).rev() {
                let j = self.rng.random_range(0..=i);
                self.order.swap(i, j);
            }
        }
        let route = &self.routes[self.order[self.next % self.routes.len()]];
        self.next += 1;
        let cfg = RunConfig::case_study(true, self.rng.random());
        Drive::new(route, bank, cfg)
    }
}

/// Checks the benchmark's frame loop against `run_route` on route 1,
/// seed 1: same frames, collision frames, skipped frames and MACs.
fn loop_matches_run_route(bank: &DetectorBank, names: &FrameNames) -> bool {
    let routes = all_routes();
    let Some(route) = routes.iter().find(|r| r.id == 1) else {
        return false;
    };
    let cfg = RunConfig::case_study(true, 1);
    let expected = run_route(route, bank, &cfg);
    let mut drive = Drive::new(route, bank, cfg);
    let mut c = Counts::default();
    let mut first_collision = None;
    while !drive.finished() {
        drive.step(None, names, &mut c);
        if c.collisions > 0 {
            first_collision.get_or_insert(c.frames as usize);
        }
    }
    c.frames as usize == expected.frames
        && c.collisions as usize == expected.collision_frames
        && c.skipped as usize == expected.skipped_frames
        && c.no_output as usize == expected.no_output_frames
        && c.macs == expected.macs
        && first_collision == expected.first_collision
}

/// Runs the workload; with a tracer, every other frame is traced and
/// followed by a perception replay.
pub fn run(args: &Args, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (bank, setup_s) = set_up(|| Ok(DetectorBank::train(&DetectorTrainConfig::default())))?;

    // Names are interned even when untraced; they are only read by spans.
    let local = Tracer::new();
    let t_names = tracer.unwrap_or(&local);
    let names = FrameNames::new(t_names);
    let mut replay_models: Vec<Sequential> = bank.models().to_vec();
    let replay_names = ReplayNames {
        root: t_names.name("avsim.perceive_replay"),
        noise: t_names.name("avsim.bev.noise"),
        fanout: t_names.name("avsim.perception.fanout"),
        decode: t_names.name("avsim.detector.decode"),
        vote: t_names.name("avsim.perception.vote"),
        models: replay_models
            .iter()
            .map(|m| ModelNames::new(t_names, m))
            .collect(),
    };

    let mut schedule = Schedule {
        routes: all_routes(),
        order: Vec::new(),
        next: 0,
        rng: stream(args.seed, 0xA5),
    };
    let mut replay_rng = stream(args.seed, 0x4E);
    let mut drive = schedule.next_episode(&bank);
    let mut c = Counts::default();
    // Frame times in ms: untraced frames (all of them without a tracer)
    // and traced frames.
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut macs = vec![0u64; replay_models.len()];
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        if drive.finished() {
            drive = schedule.next_episode(&bank);
        }
        let traced = tracer.filter(|_| c.frames % 2 == 0);
        let (a0, b0) = alloc::snapshot();
        let t0 = Instant::now();
        let seen = match traced {
            Some(t) => {
                let root = t.begin(names.frame);
                let seen = drive.step(Some((t, root)), &names, &mut c);
                traced_ms.push(t.end(root) as f64 / 1e6);
                seen
            }
            None => {
                let seen = drive.step(None, &names, &mut c);
                plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                seen
            }
        };
        let (a1, b1) = alloc::snapshot();
        allocs += a1 - a0;
        alloc_bytes += b1 - b0;
        if let Some(t) = traced {
            let m = replay(
                t,
                &replay_names,
                &mut replay_models,
                &seen,
                &drive.cfg,
                &mut replay_rng,
            );
            for (total, add) in macs.iter_mut().zip(m) {
                *total += add;
            }
        }
    }
    out.attempted = c.frames;
    out.check(
        "frame-loop-matches-run_route",
        loop_matches_run_route(&bank, &names),
    );
    out.set(
        "avsim.skip_rate",
        stats::ratio(c.skipped + c.no_output, c.frames),
    );
    out.set("avsim.collision_rate", stats::ratio(c.collisions, c.frames));
    out.notes.push(format!(
        "{} frames over {} episodes",
        c.frames, schedule.next
    ));
    out.set_speed(&plain_ms, plain_ms.iter().sum::<f64>() / 1e3);
    out.set_percentile("p99_ms", &plain_ms, 99);

    let Some(t) = tracer else {
        out.set("setup_s", setup_s);
        out.set("rss_mb", crate::peak_rss_mib().ok_or("VmHWM unavailable")?);
        return Ok(out);
    };

    let ops = t.ops(names.frame);
    let frame_stages = [
        ("core.rejuvenation.advance_us", names.advance),
        ("avsim.bev.rasterize_us", names.rasterize),
        ("avsim.perception.perceive_us", names.perceive),
        ("avsim.runner.project_us", names.project),
        ("avsim.planner.plan_us", names.plan),
        ("avsim.world.step_us", names.step),
    ];
    for (metric, name) in frame_stages {
        out.set(metric, per_op_us(t, name, ops));
    }
    out.set(
        "avsim.frame_unaccounted_us",
        t.agg(names.frame).self_ns as f64 / 1e3 / ops.max(1) as f64,
    );
    let parts = [
        ("avsim.bev.noise_us", replay_names.noise),
        ("avsim.perception.fanout_us", replay_names.fanout),
        ("avsim.detector.decode_us", replay_names.decode),
        ("avsim.perception.vote_us", replay_names.vote),
    ];
    let parts: Vec<(&str, f64)> = parts
        .iter()
        .map(|(metric, name)| (*metric, per_op_us(t, *name, ops)))
        .collect();
    let perceive_us = per_op_us(t, names.perceive, ops);
    for (metric, us) in &parts {
        out.set(metric, *us);
    }
    out.set(
        "avsim.perception.unaccounted_us",
        perceive_us - parts.iter().map(|(_, us)| us).sum::<f64>(),
    );
    let ok = crate::trace::print_derived(
        &mut std::io::stdout(),
        "avsim.perception.perceive",
        perceive_us,
        &parts,
    )
    .unwrap_or(false);
    out.check("perceive-replay-within-whole", ok);
    for (names, macs) in replay_names.models.iter().zip(&macs) {
        for (metric, value) in model_metrics(t, names, *macs, ops) {
            out.set(&metric, value);
        }
    }
    out.set("alloc.per_op", allocs as f64 / c.frames.max(1) as f64);
    out.set(
        "alloc.bytes_per_op",
        alloc_bytes as f64 / c.frames.max(1) as f64,
    );
    out.set(
        "trace.overhead_pct",
        100.0 * (stats::median(&traced_ms) / stats::median(&plain_ms) - 1.0),
    );
    Ok(out)
}
