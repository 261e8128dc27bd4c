//! The multi-tenant service: admission → shard fan-out → SLO accounting.
//!
//! Each round the service drains one batch per tenant from the admission
//! queue, partitions the batches by shard, moves every shard into a
//! worker-pool job, and joins the jobs in shard order. Outcomes feed the
//! per-tenant accounting, which lives *here* — outside the shards — so a
//! shard restart can never lose a tenant's counters.
//!
//! ## Fault domains
//!
//! A worker job that panics (a chaos injection, or a bug in a module
//! replica that escapes `catch_unwind`) consumes its shard: the state
//! moved into the closure is gone. The service records every request that
//! was in flight on that shard as dropped, rebuilds the shard's tenants
//! from their pristine blueprints, and keeps serving. Tenants on other
//! shards never observe anything — their systems were never touched.
//!
//! ## Determinism
//!
//! [`ServiceReport`] is a pure function of (tenant configs, service seed,
//! request trace, chaos schedule). Shard count decides only *where* a
//! tenant's rounds execute; batch composition is fixed by the admission
//! queue, per-tenant fault streams are indexed by each tenant's own frame
//! counter, and answers are re-sorted into tenant order after the joins.
//! A rebuilt tenant restarts its fault-plan frame counter from zero —
//! deliberate: a rejuvenated fault domain is pristine by definition.

use crate::admission::{AdmissionQueue, TenantBatch};
use crate::error::ServeError;
use crate::proto::{RejectReason, VerdictDto};
use crate::report::{ServiceReport, TenantReport, REPORT_SCHEMA};
use crate::shard::{RepairKind, Shard, TenantRoundOutcome, TenantState};
use crate::slo::TenantAccounting;
use crate::tenant::{build_system, TenantConfig};
use mvml_core::NVersionSystem;
use mvml_nn::parallel::{PoolError, ThreadPool, WorkerPool};
use mvml_obs::{Counter, Gauge, RingBufferSink, TelemetryRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Service-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Seed deriving every tenant's private fault stream.
    pub seed: u64,
    /// Shard (and worker-thread) count.
    pub shards: usize,
    /// Per-tenant batch ceiling per round.
    pub max_batch: usize,
    /// Attach a private telemetry ring to every tenant.
    pub record_telemetry: bool,
    /// Telemetry ring capacity per tenant.
    pub telemetry_capacity: usize,
    /// Service-wide queued-request ceiling; exceeding it sheds queued
    /// requests from over-quota tenants at the next round boundary.
    pub max_total_queue: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            seed: 0,
            shards: 1,
            max_batch: 8,
            record_telemetry: false,
            telemetry_capacity: 4096,
            max_total_queue: None,
        }
    }
}

/// Live overload-protection metrics, surfaced as obs counters/gauges so an
/// operator (or the chaos campaign) can watch admission pressure without
/// waiting for the end-of-run report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverloadMetrics {
    /// Requests refused at admission because a tenant queue was full.
    pub rejected_overload: Counter,
    /// Requests refused at admission by a tenant's token bucket.
    pub rejected_rate_limited: Counter,
    /// Queued requests shed by the aggregate-bound policy.
    pub shed: Counter,
    /// Total queued requests after the most recent admission activity.
    pub queue_depth: Gauge,
}

/// One answered request from [`Service::run_round`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoundAnswer {
    /// Tenant the request was served under.
    pub tenant: String,
    /// Client correlation id.
    pub id: u64,
    /// The trusted voter's decision (or `Dropped` after a shard loss).
    pub verdict: VerdictDto,
    /// The round that served it.
    pub round: u64,
}

/// The multi-tenant, batched, sharded inference service.
pub struct Service {
    cfg: ServiceConfig,
    /// Tenant configs in name order.
    tenants: Vec<TenantConfig>,
    /// Tenant → index in the sorted order (stable across shard counts).
    indices: BTreeMap<String, usize>,
    /// Tenant → owning shard.
    assignment: BTreeMap<String, usize>,
    /// Pristine built systems, cloned to (re)build tenant fault domains.
    blueprints: BTreeMap<String, NVersionSystem>,
    /// Tenant → private telemetry ring (when recording).
    rings: BTreeMap<String, Arc<RingBufferSink>>,
    admission: AdmissionQueue,
    pool: WorkerPool,
    /// `None` while a shard is out on a worker job (or mid-rebuild).
    shards: Vec<Option<Shard>>,
    accounting: BTreeMap<String, TenantAccounting>,
    /// Shards whose next job deliberately panics (chaos testing).
    chaos_panics: BTreeSet<usize>,
    overload: OverloadMetrics,
    round: u64,
    shard_restarts: u64,
}

impl Service {
    /// Builds the service: trains/constructs every tenant's blueprint
    /// system, assigns tenants to shards round-robin over the sorted
    /// tenant order, and spins up one pool worker per shard.
    ///
    /// Blueprints are built in parallel, one [`ThreadPool`] job per tenant
    /// (the caller runs the first chunk). Each job trains under its share
    /// of the thread budget, so the trainings' GEMMs split the cores
    /// instead of oversubscribing them, and the weights are bit-identical
    /// to a serial build. When several tenants fail to build, the error of
    /// the first in name order is returned.
    pub fn new(tenants: Vec<TenantConfig>, cfg: ServiceConfig) -> Result<Self, ServeError> {
        if tenants.is_empty() {
            return Err(ServeError::Config {
                reason: "a service needs at least one tenant".to_string(),
            });
        }
        if cfg.shards == 0 {
            return Err(ServeError::Config {
                reason: "shard count must be at least 1".to_string(),
            });
        }
        let mut tenants = tenants;
        tenants.sort_by(|a, b| a.name.cmp(&b.name));
        for pair in tenants.windows(2) {
            if pair[0].name == pair[1].name {
                return Err(ServeError::Config {
                    reason: format!("duplicate tenant name {:?}", pair[0].name),
                });
            }
        }

        let built = ThreadPool::new().map(tenants.iter().collect(), build_system);
        let mut indices = BTreeMap::new();
        let mut assignment = BTreeMap::new();
        let mut blueprints = BTreeMap::new();
        let mut rings = BTreeMap::new();
        let mut shapes = BTreeMap::new();
        let mut accounting = BTreeMap::new();
        for ((i, t), system) in tenants.iter().enumerate().zip(built) {
            indices.insert(t.name.clone(), i);
            assignment.insert(t.name.clone(), i % cfg.shards);
            blueprints.insert(t.name.clone(), system?);
            if cfg.record_telemetry {
                rings.insert(
                    t.name.clone(),
                    Arc::new(RingBufferSink::new(cfg.telemetry_capacity)),
                );
            }
            shapes.insert(t.name.clone(), t.model.sample_shape());
            accounting.insert(t.name.clone(), TenantAccounting::new());
        }

        let mut admission = AdmissionQueue::new(shapes, cfg.max_batch);
        for t in &tenants {
            if let Some(quota) = t.quota {
                admission.set_quota(&t.name, quota);
            }
        }
        admission.set_aggregate_bound(cfg.max_total_queue);

        let mut service = Service {
            admission,
            pool: WorkerPool::with_workers(cfg.shards),
            shards: (0..cfg.shards).map(|_| None).collect(),
            cfg,
            tenants,
            indices,
            assignment,
            blueprints,
            rings,
            accounting,
            chaos_panics: BTreeSet::new(),
            overload: OverloadMetrics::default(),
            round: 0,
            shard_restarts: 0,
        };
        for s in 0..service.cfg.shards {
            let shard = service.build_shard(s);
            service.shards[s] = Some(shard);
        }
        Ok(service)
    }

    /// (Re)builds shard `s` from pristine blueprints.
    fn build_shard(&self, s: usize) -> Shard {
        let mut shard = Shard::new(s);
        for t in &self.tenants {
            if self.assignment.get(&t.name) != Some(&s) {
                continue;
            }
            let index = self.indices.get(&t.name).copied().unwrap_or(0);
            let blueprint = match self.blueprints.get(&t.name) {
                Some(b) => b.clone(),
                None => continue,
            };
            shard.insert_tenant(TenantState::new(
                t.clone(),
                blueprint,
                self.cfg.seed,
                index,
                self.rings.get(&t.name).cloned(),
            ));
        }
        shard
    }

    /// The pristine system `tenant`'s fault domain is (re)built from.
    pub fn blueprint(&self, tenant: &str) -> Option<&NVersionSystem> {
        self.blueprints.get(tenant)
    }

    /// Tenant names in sorted order.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.iter().map(|t| t.name.clone()).collect()
    }

    /// The configuration of one tenant.
    pub fn tenant_config(&self, name: &str) -> Option<&TenantConfig> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// The shard owning `tenant`.
    pub fn shard_of(&self, tenant: &str) -> Option<usize> {
        self.assignment.get(tenant).copied()
    }

    /// Configured shard count.
    pub fn shard_count(&self) -> usize {
        self.cfg.shards
    }

    /// Rounds run so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Requests admitted and still waiting for a round.
    pub fn pending(&self) -> usize {
        self.admission.pending()
    }

    /// Validates and enqueues one classification request. An admission
    /// rejection (queue bound or rate limit) comes back as
    /// [`ServeError::Rejected`] and is counted against the tenant's
    /// accounting — outside its request identity, since the request was
    /// never admitted.
    pub fn submit(
        &mut self,
        tenant: &str,
        id: u64,
        shape: &[usize],
        pixels: Vec<f32>,
    ) -> Result<(), ServeError> {
        let res = self.admission.admit(self.round, tenant, id, shape, pixels);
        if let Err(ServeError::Rejected { tenant, reason }) = &res {
            if let Some(acc) = self.accounting.get_mut(tenant) {
                acc.record_rejected(*reason);
            }
            match reason {
                RejectReason::Overloaded => self.overload.rejected_overload.inc(),
                RejectReason::RateLimited { .. } => self.overload.rejected_rate_limited.inc(),
            }
        }
        self.overload
            .queue_depth
            .set(self.admission.pending() as f64);
        res
    }

    /// Live overload-protection metrics (obs counters/gauges).
    pub fn overload_metrics(&self) -> &OverloadMetrics {
        &self.overload
    }

    /// Arms a deliberate panic on shard `s`'s next job (chaos testing:
    /// proves the blast radius of a shard loss is that shard alone).
    pub fn inject_shard_panic(&mut self, s: usize) -> Result<(), ServeError> {
        if s >= self.cfg.shards {
            return Err(ServeError::Config {
                reason: format!("shard {s} out of range ({} shards)", self.cfg.shards),
            });
        }
        self.chaos_panics.insert(s);
        Ok(())
    }

    /// Runs one service round: drains one batch per tenant, fans the
    /// shards out across the worker pool, joins them in shard order, and
    /// folds the outcomes into the per-tenant accounting. Answers come
    /// back sorted into tenant order (admission order within a tenant), so
    /// their sequence is independent of the shard layout.
    pub fn run_round(&mut self) -> Result<Vec<RoundAnswer>, ServeError> {
        let round = self.round;

        // Enforce the aggregate bound first: shed requests are answered
        // this round as typed rejections, before any batch is drained, so
        // shedding is a pure function of queue state — never of shard
        // layout or timing.
        let mut answers = Vec::new();
        for item in self.admission.shed_over_quota() {
            if let Some(acc) = self.accounting.get_mut(&item.tenant) {
                acc.record_shed(1);
            }
            self.overload.shed.inc();
            answers.push(RoundAnswer {
                tenant: item.tenant,
                id: item.id,
                verdict: VerdictDto::Rejected {
                    reason: RejectReason::Overloaded,
                },
                round,
            });
        }

        let drained = self.admission.drain_round();

        // Partition this round's batches by owning shard, remembering the
        // in-flight ids per shard for drop accounting on a shard loss.
        let mut per_shard: Vec<BTreeMap<String, TenantBatch>> =
            (0..self.cfg.shards).map(|_| BTreeMap::new()).collect();
        let mut in_flight: Vec<Vec<(String, Vec<u64>)>> =
            (0..self.cfg.shards).map(|_| Vec::new()).collect();
        for (tenant, batch) in drained {
            let s = self.assignment.get(&tenant).copied().unwrap_or(0);
            in_flight[s].push((tenant.clone(), batch.ids.clone()));
            per_shard[s].insert(tenant, batch);
        }

        // Fan out: every shard moves into a pool job for the round.
        let mut handles = Vec::with_capacity(self.cfg.shards);
        for (s, batches) in per_shard.into_iter().enumerate() {
            let shard = self.shards[s].take();
            let chaos = self.chaos_panics.remove(&s);
            handles.push(self.pool.submit(move || {
                if chaos {
                    // mvml-allow(panic_safety): deliberate chaos injection; the pool catches it
                    panic!("injected chaos panic on shard {s}");
                }
                let mut shard = shard;
                let outcomes = match shard.as_mut() {
                    Some(shard) => shard.process_round(round, batches),
                    None => Vec::new(),
                };
                (shard, outcomes)
            }));
        }

        // Join in shard order; rebuild any shard whose job panicked.
        for (s, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok((shard, outcomes)) => {
                    self.shards[s] = shard;
                    for out in outcomes {
                        self.fold_outcome(round, &out, &mut answers);
                    }
                }
                Err(PoolError::WorkerPanicked { .. }) => {
                    self.shard_restarts += 1;
                    for (tenant, ids) in in_flight[s].drain(..) {
                        if let Some(acc) = self.accounting.get_mut(&tenant) {
                            acc.record_dropped(ids.len() as u64);
                        }
                        for id in ids {
                            answers.push(RoundAnswer {
                                tenant: tenant.clone(),
                                id,
                                verdict: VerdictDto::Dropped,
                                round,
                            });
                        }
                    }
                    self.shards[s] = Some(self.build_shard(s));
                }
                Err(PoolError::Disconnected) => {
                    return Err(ServeError::Config {
                        reason: "worker pool disconnected mid-round".to_string(),
                    });
                }
            }
        }

        // Tenant order, independent of shard layout (stable sort keeps
        // per-tenant admission order).
        answers.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        self.overload
            .queue_depth
            .set(self.admission.pending() as f64);
        self.round += 1;
        Ok(answers)
    }

    /// Folds one tenant-round outcome into accounting and answers.
    fn fold_outcome(
        &mut self,
        round: u64,
        out: &TenantRoundOutcome,
        answers: &mut Vec<RoundAnswer>,
    ) {
        if let Some(acc) = self.accounting.get_mut(&out.tenant) {
            if !out.ids.is_empty() {
                acc.record_round(&out.verdicts, &out.events);
                let ages: Vec<u64> = out
                    .admitted_rounds
                    .iter()
                    .map(|admitted| round.saturating_sub(*admitted))
                    .collect();
                acc.record_latency_rounds(&ages);
            }
            for (_, kind) in &out.repairs_completed {
                acc.record_rejuvenation(*kind == RepairKind::Proactive);
            }
        }
        for (id, verdict) in out.ids.iter().zip(out.verdicts.iter()) {
            answers.push(RoundAnswer {
                tenant: out.tenant.clone(),
                id: *id,
                verdict: *verdict,
                round,
            });
        }
    }

    /// Runs rounds until the admission queue is empty, returning every
    /// answer in emission order.
    pub fn drain(&mut self) -> Result<Vec<RoundAnswer>, ServeError> {
        let mut answers = Vec::new();
        while self.admission.pending() > 0 {
            answers.extend(self.run_round()?);
        }
        Ok(answers)
    }

    /// The deterministic accounting report: per-tenant rows in name order,
    /// no shard count, no wall-clock — byte-identical across shard layouts.
    pub fn report(&self) -> ServiceReport {
        let tenants: Vec<TenantReport> = self
            .accounting
            .iter()
            .map(|(name, acc)| acc.report(name))
            .collect();
        ServiceReport {
            schema: REPORT_SCHEMA.to_string(),
            seed: self.cfg.seed,
            rounds: self.round,
            shard_restarts: self.shard_restarts,
            tenants,
        }
    }

    /// Finishes the service: freezes the report and replays every tenant's
    /// private telemetry ring in tenant order, so the merged stream is
    /// independent of how rounds interleaved across shards. The worker
    /// pool drains and joins on drop.
    pub fn finish(self) -> (ServiceReport, Vec<TelemetryRecord>) {
        let report = self.report();
        let mut records = Vec::new();
        for t in &self.tenants {
            if let Some(ring) = self.rings.get(&t.name) {
                records.extend(ring.snapshot());
            }
        }
        (report, records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{QuotaSpec, RateSpec};
    use crate::report::validate_report;
    use crate::tenant::ProactiveSpec;

    fn logits(class: usize, classes: usize) -> Vec<f32> {
        (0..classes)
            .map(|k| if k == class { 1.0 } else { 0.0 })
            .collect()
    }

    fn two_tenant_service(shards: usize, seed: u64) -> Service {
        let tenants = vec![
            TenantConfig::passthrough("alpha", 4),
            TenantConfig::passthrough("beta", 3),
        ];
        Service::new(
            tenants,
            ServiceConfig {
                seed,
                shards,
                max_batch: 4,
                ..ServiceConfig::default()
            },
        )
        .expect("service")
    }

    #[test]
    fn round_answers_come_back_in_tenant_order() {
        let mut svc = two_tenant_service(2, 1);
        assert_eq!(svc.shard_of("alpha"), Some(0));
        assert_eq!(svc.shard_of("beta"), Some(1));
        svc.submit("beta", 10, &[3], logits(2, 3)).expect("admit");
        svc.submit("alpha", 20, &[4], logits(1, 4)).expect("admit");
        svc.submit("alpha", 21, &[4], logits(3, 4)).expect("admit");
        let answers = svc.run_round().expect("round");
        let got: Vec<(String, u64)> = answers.iter().map(|a| (a.tenant.clone(), a.id)).collect();
        assert_eq!(
            got,
            vec![
                ("alpha".to_string(), 20),
                ("alpha".to_string(), 21),
                ("beta".to_string(), 10),
            ]
        );
        assert!(answers.iter().all(|a| a.verdict.is_decisive()));
        let report = svc.report();
        validate_report(&report).expect("valid");
        assert_eq!(report.tenant("alpha").map(|t| t.requests), Some(2));
        assert_eq!(report.tenant("beta").map(|t| t.requests), Some(1));
    }

    #[test]
    fn chaos_panic_drops_only_the_injected_shard() {
        let mut svc = two_tenant_service(2, 1);
        svc.submit("alpha", 1, &[4], logits(0, 4)).expect("admit");
        svc.submit("beta", 2, &[3], logits(1, 3)).expect("admit");
        svc.inject_shard_panic(0).expect("in range");
        let answers = svc.run_round().expect("round");
        let alpha = answers.iter().find(|a| a.tenant == "alpha").expect("row");
        let beta = answers.iter().find(|a| a.tenant == "beta").expect("row");
        assert_eq!(alpha.verdict, VerdictDto::Dropped);
        assert_eq!(beta.verdict, VerdictDto::Output { class: 1 });
        let report = svc.report();
        assert_eq!(report.shard_restarts, 1);
        assert_eq!(report.tenant("alpha").map(|t| t.dropped), Some(1));
        assert_eq!(report.tenant("beta").map(|t| t.dropped), Some(0));

        // The rebuilt shard serves the very next round.
        svc.submit("alpha", 3, &[4], logits(2, 4)).expect("admit");
        let answers = svc.run_round().expect("round");
        assert_eq!(answers[0].verdict, VerdictDto::Output { class: 2 });
        validate_report(&svc.report()).expect("valid");
    }

    #[test]
    fn reports_are_identical_across_shard_counts() {
        let mut trace: Vec<(&str, u64, usize)> = Vec::new();
        for i in 0..12u64 {
            trace.push(("alpha", i, (i as usize) % 4));
            if i % 2 == 0 {
                trace.push(("beta", 100 + i, (i as usize) % 3));
            }
        }
        let run = |shards: usize| {
            let mut svc = two_tenant_service(shards, 7);
            for (tenant, id, class) in &trace {
                let classes = if *tenant == "alpha" { 4 } else { 3 };
                svc.submit(tenant, *id, &[classes], logits(*class, classes))
                    .expect("admit");
            }
            let answers = svc.drain().expect("drain");
            (answers, svc.report())
        };
        let (answers1, report1) = run(1);
        let (answers2, report2) = run(2);
        assert_eq!(answers1, answers2, "answers independent of shard layout");
        let json1 = serde_json::to_string(&report1).expect("json");
        let json2 = serde_json::to_string(&report2).expect("json");
        assert_eq!(json1, json2, "reports byte-identical across shard counts");
    }

    #[test]
    fn overload_rejections_and_shed_stay_outside_the_request_identity() {
        let tenants = vec![
            TenantConfig::passthrough("alpha", 4).with_quota(QuotaSpec {
                max_queue: 2,
                rate: None,
            }),
            TenantConfig::passthrough("beta", 3),
        ];
        let mut svc = Service::new(
            tenants,
            ServiceConfig {
                seed: 1,
                max_batch: 4,
                max_total_queue: Some(2),
                ..ServiceConfig::default()
            },
        )
        .expect("service");

        svc.submit("alpha", 0, &[4], logits(0, 4)).expect("admit");
        svc.submit("alpha", 1, &[4], logits(1, 4)).expect("admit");
        let full = svc.submit("alpha", 2, &[4], logits(2, 4));
        assert!(matches!(
            full,
            Err(ServeError::Rejected {
                reason: RejectReason::Overloaded,
                ..
            })
        ));
        svc.submit("beta", 10, &[3], logits(0, 3)).expect("admit");
        svc.submit("beta", 11, &[3], logits(1, 3)).expect("admit");

        // Four queued against a service-wide bound of two: both tenants
        // are one over fair share, so each loses its newest request.
        let answers = svc.run_round().expect("round");
        let rejected: Vec<(String, u64)> = answers
            .iter()
            .filter(|a| matches!(a.verdict, VerdictDto::Rejected { .. }))
            .map(|a| (a.tenant.clone(), a.id))
            .collect();
        assert_eq!(rejected.len(), 2, "two shed rejections answered");
        assert!(rejected.contains(&("alpha".to_string(), 1)));

        let report = svc.report();
        validate_report(&report).expect("valid");
        let alpha = report.tenant("alpha").expect("row");
        assert_eq!(alpha.rejected_overload, 1, "admission rejection counted");
        assert_eq!(alpha.shed, 1);
        assert_eq!(alpha.requests, 1, "rejections never become requests");
        assert_eq!(svc.overload_metrics().rejected_overload.get(), 1);
        assert_eq!(svc.overload_metrics().shed.get(), 2);
    }

    #[test]
    fn rate_limited_submissions_surface_retry_after_rounds() {
        let tenants = vec![TenantConfig::passthrough("alpha", 4).with_quota(QuotaSpec {
            max_queue: 100,
            rate: Some(RateSpec {
                burst: 1,
                refill_milli: 250,
            }),
        })];
        let mut svc = Service::new(tenants, ServiceConfig::default()).expect("service");
        svc.submit("alpha", 0, &[4], logits(0, 4)).expect("burst");
        match svc.submit("alpha", 1, &[4], logits(1, 4)) {
            Err(ServeError::Rejected {
                reason:
                    RejectReason::RateLimited {
                        retry_after_rounds: r,
                    },
                ..
            }) => assert_eq!(r, 4, "1000 millitokens at 250/round"),
            other => panic!("expected RateLimited, got {other:?}"),
        }
        let report = svc.report();
        assert_eq!(
            report.tenant("alpha").map(|t| t.rejected_rate_limited),
            Some(1)
        );
        assert_eq!(svc.overload_metrics().rejected_rate_limited.get(), 1);
    }

    #[test]
    fn proactive_rejuvenations_run_and_are_accounted_without_traffic() {
        let tenants = vec![
            TenantConfig::passthrough("alpha", 4).with_proactive(ProactiveSpec {
                period_rounds: 2,
                refresh_rounds: 1,
            }),
        ];
        let mut svc = Service::new(tenants, ServiceConfig::default()).expect("service");
        for _ in 0..8 {
            svc.run_round().expect("round");
        }
        let report = svc.report();
        validate_report(&report).expect("valid");
        let alpha = report.tenant("alpha").expect("row");
        assert!(alpha.proactive_rejuvenations >= 2, "clock fired");
        assert_eq!(
            alpha.proactive_rejuvenations, alpha.rejuvenations,
            "no reactive repairs in a healthy tenant"
        );
    }

    #[test]
    fn round_latency_is_recorded_in_rounds() {
        let tenants = vec![TenantConfig::passthrough("alpha", 4)];
        let mut svc = Service::new(
            tenants,
            ServiceConfig {
                max_batch: 1,
                ..ServiceConfig::default()
            },
        )
        .expect("service");
        // Three requests admitted at round 0, served one per round at
        // rounds 0, 1, 2 → ages 0, 1, 2.
        for id in 0..3u64 {
            svc.submit("alpha", id, &[4], logits(0, 4)).expect("admit");
        }
        svc.drain().expect("drain");
        let report = svc.report();
        let lat = report.tenant("alpha").expect("row").round_latency;
        assert_eq!(lat.count, 3);
        assert_eq!(lat.p50_rounds, 1);
        assert_eq!(lat.max_rounds, 2);
    }
}
