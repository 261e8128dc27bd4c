//! Shared machinery for the CARLA-substitute case study (Tables VI–VIII):
//! a standard trained detector bank and parallel campaign execution.

use mvml_avsim::runner::{aggregate_route, RouteAggregate, RunConfig};
use mvml_avsim::town::all_routes;
use mvml_avsim::{DetectorBank, DetectorTrainConfig};
use mvml_nn::parallel::ThreadPool;
use mvml_obs::{Recorder, RingBufferSink, TelemetryRecord};
use std::sync::Arc;

/// Trains the standard three-variant detector bank used by every case-study
/// experiment (deterministic given the fixed config).
pub fn standard_bank() -> DetectorBank {
    DetectorBank::train(&DetectorTrainConfig::default())
}

/// Runs the full eight-route campaign (`runs` per route) in parallel over
/// a [`ThreadPool`], returning aggregates in route order. Each route's
/// perception fan-out runs within its pool job's share of the threads.
///
/// With an enabled `recorder`, each route records into a private buffer
/// under the scope `route{id}/run{i}`; the buffers are replayed into
/// `recorder` in route order once every route has finished, so the
/// exported stream is deterministic (identical content for any thread
/// interleaving — only the replayed records' timings carry wall-clock).
pub fn campaign(
    bank: &DetectorBank,
    base: &RunConfig,
    runs: usize,
    recorder: &Recorder,
) -> Vec<RouteAggregate> {
    let traced = recorder.enabled();
    // Generous per-route bound: ~10 records per frame (module inferences,
    // voter decision, pool run, ticks, occasional health events).
    let capacity = (runs * base.max_frames).saturating_mul(64).max(4096);
    let results = ThreadPool::new().map(all_routes(), |route| {
        if !traced {
            let agg = aggregate_route(&route, bank, base, runs, &Recorder::disabled());
            return (agg, Vec::new());
        }
        // mvml-allow(telemetry_purity): the case-study harness owns its ring buffer to replay per-route streams; production code never reads sinks
        let ring = Arc::new(RingBufferSink::new(capacity));
        let local = Recorder::new(ring.clone()).scoped(&format!("route{}", route.id));
        let agg = aggregate_route(&route, bank, base, runs, &local);
        (agg, ring.snapshot())
    });
    let mut aggregates = Vec::with_capacity(results.len());
    for (agg, records) in results {
        for record in records {
            let TelemetryRecord {
                scope,
                event,
                timing,
                ..
            } = record;
            recorder.scoped(&scope).emit_timed(timing, || event);
        }
        aggregates.push(agg);
    }
    aggregates
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvml_avsim::detector::{train_detector, yolo_mini};
    use mvml_core::SystemParams;

    #[test]
    fn parallel_campaign_covers_all_routes() {
        // Tiny bank, healthy process, single short run per route — just the
        // plumbing, not the physics.
        let cfg = DetectorTrainConfig {
            scenes: 150,
            epochs: 2,
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
        let bank = DetectorBank::from_models(models);
        let mut base = RunConfig::case_study(true, 3);
        base.max_frames = 80;
        base.process = mvml_core::rejuvenation::ProcessConfig {
            params: SystemParams {
                mttc: 1e12,
                mttf: 1e12,
                ..SystemParams::carla_case_study()
            },
            proactive: false,
            victims: mvml_core::rejuvenation::VictimRule::Priority(2.0 / 3.0),
        };
        let aggregates = campaign(&bank, &base, 1, &Recorder::disabled());
        assert_eq!(aggregates.len(), 8);
        for (i, a) in aggregates.iter().enumerate() {
            assert_eq!(a.route_id, i + 1);
            assert_eq!(a.runs, 1);
        }
        // Telemetry is observe-only and route-ordered despite the parallel
        // execution: traced aggregates match, and every route's stream is
        // replayed contiguously under its own scope.
        let ring = Arc::new(RingBufferSink::new(1 << 20));
        let recorder = Recorder::new(ring.clone());
        let traced = campaign(&bank, &base, 1, &recorder);
        assert_eq!(traced, aggregates, "telemetry must not perturb results");
        let records = ring.snapshot();
        assert_eq!(ring.dropped(), 0);
        let route_of = |scope: &str| {
            scope
                .split('/')
                .next()
                .and_then(|s| s.strip_prefix("route"))
                .and_then(|s| s.parse::<usize>().ok())
                .expect("route-scoped record")
        };
        let order: Vec<usize> = records.iter().map(|r| route_of(&r.scope)).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "streams replay in route order");
        for id in 1..=8 {
            assert!(order.contains(&id), "route {id} emitted no telemetry");
        }
    }
}
