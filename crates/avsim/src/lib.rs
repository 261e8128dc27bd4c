//! # mvml-avsim — a CARLA-substitute driving simulator
//!
//! This crate plays the role of CARLA + OpenCDA in the DSN'25 paper
//! *"Multi-version Machine Learning and Rejuvenation for Resilient
//! Perception in Safety-critical Systems"*: a 2-D closed-loop driving
//! simulator with a genuine perception → planning → control → physics
//! pipeline, used to evaluate how multi-version perception with
//! time-triggered rejuvenation affects driving safety (the paper's
//! Section VII, Tables VI–VIII).
//!
//! The causal chain the case study depends on is fully implemented:
//! injected weight faults degrade real convolutional detectors, degraded
//! detectors mislead or stall the voter, stalled perception freezes the
//! planner's command, and a frozen command in front of a braking lead
//! vehicle produces a measurable collision.
//!
//! * [`geometry`] / [`vehicle`] / [`world`] — the physical world: paths,
//!   oriented-box collision tests, path-locked vehicles, scripted traffic.
//! * [`town`] — four towns × two routes (Fig. 5 analogue).
//! * [`bev`] — ego-frame occupancy grids with a sensor-noise model.
//! * [`detector`] — the YOLOv5-substitute conv detectors (s/m/l variants).
//! * [`perception`] — the multi-version perception system with approximate
//!   detection voting and the health/rejuvenation process.
//! * [`planner`] — ACC planning with hold-on-skip semantics.
//! * [`runner`] — closed-loop runs and Table VI/VII aggregation.
//! * [`overhead`] — the Table VIII overhead comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Promoted from the workspace-level `warn`: the N-version trust base
// must not panic outside documented constructor contracts, so every
// unwrap/expect in non-test code needs a justified per-site `#[allow]`
// (tests are exempt via clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod bev;
pub mod detector;
pub mod geometry;
pub mod overhead;
pub mod perception;
pub mod planner;
pub mod runner;
pub mod town;
pub mod vehicle;
pub mod world;

pub use detector::{DetectionSet, DetectorTrainConfig};
pub use perception::{DetectorBank, MultiVersionPerception, PerceptionConfig};
pub use runner::{
    aggregate_route, aggregate_route_traced, run_route, run_route_traced, RouteAggregate,
    RunConfig, RunMetrics,
};
pub use town::{all_routes, route, RouteSpec};
pub use world::World;
