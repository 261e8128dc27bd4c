//! Service reports: the deterministic accounting section every run must
//! reproduce byte-identically, and the measured (wall-clock) section the
//! benchmark summary layers on top.
//!
//! The split mirrors the workspace's telemetry contract: anything derived
//! from wall-clock (throughput, latency quantiles) lives in dedicated
//! `measured` structures that determinism comparisons never look at, while
//! request/verdict/fault tallies are a pure function of the seed and the
//! request trace — same seed, same trace, same bytes, for any shard count.

use serde::{Deserialize, Serialize};

/// Schema tag stamped into every [`ServiceReport`]. v2 added overload
/// protection (rejected/shed counters), proactive-rejuvenation accounting
/// and the deterministic round-latency digest.
pub const REPORT_SCHEMA: &str = "mvml-serve-report-v2";

/// Schema tag stamped into every [`ServeSummary`] (`BENCH_serve.json`).
/// Bumped alongside [`REPORT_SCHEMA`] because summaries embed reports.
pub const BENCH_SCHEMA: &str = "mvml-serve-bench-v2";

/// Schema tag stamped into `CHAOS_serve.json` (the `serve_chaos`
/// campaign artifact).
pub const CHAOS_SCHEMA: &str = "mvml-serve-chaos-v1";

/// Deterministic per-tenant accounting over a service run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant name.
    pub tenant: String,
    /// Classification requests admitted for this tenant.
    pub requests: u64,
    /// Service rounds in which this tenant had a non-empty batch (the
    /// tenant's guard-frame count).
    pub rounds: u64,
    /// Requests answered with a decisive class.
    pub decided: u64,
    /// Requests the voter safely skipped (R.1/R.2 divergence).
    pub skipped: u64,
    /// Requests with no operational module left to propose.
    pub no_output: u64,
    /// Requests lost to a shard restart before a vote happened.
    pub dropped: u64,
    /// SLO misses: every request that did not receive a decisive verdict
    /// (`skipped + no_output + dropped`).
    pub slo_misses: u64,
    /// Module proposals withheld for missing the deadline budget
    /// (injected latency faults are always counted here).
    pub deadline_withholds: u64,
    /// Module panics contained by the guard.
    pub panics: u64,
    /// Module outputs withheld for non-finite values (event count).
    pub non_finite: u64,
    /// Watchdog escalations (module forced non-functional).
    pub escalations: u64,
    /// Rejuvenations completed by the repair loop (reactive + proactive).
    pub rejuvenations: u64,
    /// The subset of `rejuvenations` initiated by the time-triggered
    /// proactive scheduler rather than a watchdog escalation.
    pub proactive_rejuvenations: u64,
    /// Requests refused at admission because the tenant's queue (or the
    /// aggregate bound) was full. Outside the `requests` identity.
    pub rejected_overload: u64,
    /// Requests refused at admission by the round-based token bucket.
    /// Outside the `requests` identity.
    pub rejected_rate_limited: u64,
    /// Admitted requests evicted by the aggregate shed policy before any
    /// round served them. Outside the `requests` identity.
    pub shed: u64,
    /// Deterministic queue-age digest over answered requests.
    pub round_latency: RoundLatencyReport,
}

/// Deterministic round-denominated latency digest: how many service
/// rounds answered requests spent queued. A pure function of the request
/// trace and batching config — byte-identical across shard counts, unlike
/// the wall-clock [`MeasuredLatency`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundLatencyReport {
    /// Answered requests measured (equals the tenant's `requests` once a
    /// run is drained).
    pub count: u64,
    /// Exact median queue age, rounds.
    pub p50_rounds: u64,
    /// Exact p99 queue age, rounds.
    pub p99_rounds: u64,
    /// Worst queue age, rounds.
    pub max_rounds: u64,
}

impl TenantReport {
    /// SLO-miss rate over admitted requests (0 for an idle tenant).
    pub fn slo_miss_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.slo_misses as f64 / self.requests as f64
    }

    /// Deadline-withhold events per guard round (0 for an idle tenant).
    pub fn deadline_withhold_rate(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.deadline_withholds as f64 / self.rounds as f64
    }
}

/// The deterministic service-side report: per-tenant accounting plus the
/// service-level round counter and shard-restart tally.
///
/// Deliberately excludes the shard count and any wall-clock measurement:
/// two runs of the same seed and request trace serialize byte-identically
/// even when one ran on 1 shard and the other on 4.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Always [`REPORT_SCHEMA`].
    pub schema: String,
    /// The service seed (drives per-tenant fault plans).
    pub seed: u64,
    /// Service rounds executed.
    pub rounds: u64,
    /// Shards rebuilt after a worker panic.
    pub shard_restarts: u64,
    /// Per-tenant accounting, sorted by tenant name.
    pub tenants: Vec<TenantReport>,
}

impl ServiceReport {
    /// The accounting row for `tenant`, if present.
    pub fn tenant(&self, tenant: &str) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

/// Wall-clock latency digest for one request population. **Measured**:
/// never part of determinism comparisons.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasuredLatency {
    /// Requests measured.
    pub count: u64,
    /// Conservative p50 bound, ns (histogram bucket upper bound).
    pub p50_ns: f64,
    /// Conservative p99 bound, ns.
    pub p99_ns: f64,
    /// Mean latency, ns.
    pub mean_ns: f64,
}

/// Per-tenant load-generator statistics: deterministic correctness counts
/// next to measured throughput/latency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantLoadStats {
    /// Tenant name.
    pub tenant: String,
    /// Decisive answers matching the trace's ground-truth label
    /// (deterministic).
    pub correct: u64,
    /// Decisive answers with the wrong class (deterministic).
    pub wrong: u64,
    /// Measured sustained throughput, requests per second.
    pub throughput_rps: f64,
    /// Measured request latency digest.
    pub latency: MeasuredLatency,
}

/// One load scenario of the benchmark summary (e.g. fault-free vs faulted).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSummary {
    /// Scenario label (`healthy`, `faulted`).
    pub scenario: String,
    /// The service's deterministic accounting for the scenario.
    pub report: ServiceReport,
    /// Per-tenant load statistics, sorted by tenant name.
    pub tenants: Vec<TenantLoadStats>,
    /// Cross-tenant latency digest (per-tenant histograms merged).
    pub overall_latency: MeasuredLatency,
    /// Measured wall-clock of the whole scenario, ns.
    pub wall_ns: u64,
    /// Measured aggregate throughput, requests per second.
    pub throughput_rps: f64,
}

/// `BENCH_serve.json`: the service benchmark summary `serve_load` writes.
/// Its embedded reports are deterministic, and `tests/serve_bench_pinned.rs`
/// pins them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSummary {
    /// Always [`BENCH_SCHEMA`].
    pub schema: String,
    /// Cores on the measuring host (wall-clock context).
    pub host_cores: usize,
    /// Seed behind the request trace and fault plans.
    pub seed: u64,
    /// Shards the service ran with.
    pub shards: usize,
    /// Service rounds driven per scenario.
    pub rounds: u64,
    /// Scenarios measured, in a fixed order.
    pub scenarios: Vec<ScenarioSummary>,
}

impl ServeSummary {
    /// The scenario named `label`, if present.
    pub fn scenario(&self, label: &str) -> Option<&ScenarioSummary> {
        self.scenarios.iter().find(|s| s.scenario == label)
    }
}

/// One planned-census row of the wire-chaos phase: how many injections of
/// one fault family the deterministic [`ChaosPlan`] schedules over the
/// campaign's request grid.
///
/// [`ChaosPlan`]: mvml_faultinject::wire::ChaosPlan
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireCensusRow {
    /// Fault family label (`torn_frame`, `slow_loris`, …).
    pub fault: String,
    /// Injections planned — and, because the campaign walks the identical
    /// `(connection, request)` grid, executed — for this family.
    pub injected: u64,
}

/// The wire-chaos section of `CHAOS_serve.json`: the seeded fault census
/// plus the campaign's pass/fail booleans. Everything here is either a
/// pure function of the seed (the census) or a totality verdict — never a
/// wall-clock measurement — so the section is byte-identical across reruns
/// and shard counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireChaosSummary {
    /// Connections the chaos client drove.
    pub connections: u64,
    /// Requests attempted per connection.
    pub requests_per_connection: u64,
    /// Planned injections per fault family, sorted by label.
    pub census: Vec<WireCensusRow>,
    /// Total injections across all families.
    pub injected: u64,
    /// No protocol violations: every request was answered, typed-errored,
    /// or cleanly closed, and faults that preserve the frame were
    /// answered. The per-outcome split (answer vs typed error vs close)
    /// is deliberately not recorded: a server's typed-error write can
    /// race its close at the TCP layer, so only this verdict — not the
    /// split — is byte-stable across reruns.
    pub all_clean: bool,
    /// Panics observed on server transport threads (`mvml-serve-*`).
    /// Injected module crashes on pool workers do not count. Must be 0.
    pub transport_panics: u64,
    /// Whether the server wound down and joined every handler thread
    /// after the campaign (the no-leaked-threads proof).
    pub threads_joined: bool,
}

/// Proactive-rejuvenation settings of one chaos cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProactiveCell {
    /// Rounds between proactive triggers (Δ).
    pub period_rounds: u64,
    /// Rounds one proactive refresh keeps a module down.
    pub refresh_rounds: u64,
}

/// One availability cell: a (chaos mix × rejuvenation policy) point with
/// the measured availability and the DSPN proactive-model prediction it is
/// cross-checked against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosCell {
    /// Cell label, e.g. `crash0.10-reactive`.
    pub label: String,
    /// Per-round Bernoulli rate of a healthy module turning compromised.
    pub compromise_rate: f64,
    /// Per-round Bernoulli rate of a compromised module crashing.
    pub crash_rate: f64,
    /// Rounds a watchdog-triggered (reactive) repair takes.
    pub repair_delay_rounds: u64,
    /// Proactive scheduler settings; `None` for reactive-only cells.
    pub proactive: Option<ProactiveCell>,
    /// Requests admitted for the afflicted tenant in the measurement
    /// window (after warmup).
    pub requests: u64,
    /// Requests decisively answered in the measurement window.
    pub decided: u64,
    /// Measured availability: `decided / requests`.
    pub availability: f64,
    /// Watchdog-triggered rejuvenations completed in the window.
    pub reactive_rejuvenations: u64,
    /// Schedule-triggered rejuvenations completed in the window.
    pub proactive_rejuvenations: u64,
    /// Steady-state expected availability predicted by the DSPN
    /// proactive model (`mvml_core::dspn`) under the same parameters.
    pub dspn_availability: f64,
    /// `|availability − dspn_availability|`.
    pub abs_error: f64,
    /// Whether `abs_error ≤ tolerance` (the campaign-level tolerance).
    pub within_tolerance: bool,
    /// Whether the co-resident bystander tenant's accounting was
    /// byte-identical to its solo (chaos-free) baseline — the fault-domain
    /// isolation check.
    pub bystander_clean: bool,
}

/// The headline comparison of `CHAOS_serve.json`: at the campaign's
/// highest crash rate, reactive+proactive rejuvenation must not lose to
/// reactive-only — Fig. 3's qualitative claim, reproduced on the serving
/// stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosHeadline {
    /// Crash rate of the compared cells.
    pub crash_rate: f64,
    /// Measured availability of the reactive-only cell.
    pub reactive_availability: f64,
    /// Measured availability of the reactive+proactive cell.
    pub proactive_availability: f64,
    /// `proactive_availability − reactive_availability` (≥ 0 required).
    pub proactive_gain: f64,
}

/// `CHAOS_serve.json`: the chaos-campaign artifact. Deliberately excludes
/// the shard count and all wall-clock measurements so reruns — at any
/// shard count — serialize byte-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosSummary {
    /// Always [`CHAOS_SCHEMA`].
    pub schema: String,
    /// Seed behind the chaos plan, aging draws and request traces.
    pub seed: u64,
    /// Measurement rounds per availability cell (after warmup).
    pub rounds: u64,
    /// Warmup rounds discarded before measurement.
    pub warmup_rounds: u64,
    /// Model-agreement tolerance on `abs_error`.
    pub tolerance: f64,
    /// Wire-level fault-injection results.
    pub wire: WireChaosSummary,
    /// Availability cells, in campaign order.
    pub cells: Vec<ChaosCell>,
    /// Reactive vs reactive+proactive comparison.
    pub headline: ChaosHeadline,
}

/// Validates a `CHAOS_serve.json` artifact: schema, the wire-phase
/// totality contract, per-cell arithmetic, and the headline comparison.
pub fn validate_chaos(summary: &ChaosSummary) -> Result<(), String> {
    if summary.schema != CHAOS_SCHEMA {
        return Err(format!(
            "schema {:?} != expected {CHAOS_SCHEMA:?}",
            summary.schema
        ));
    }
    let w = &summary.wire;
    let census_total: u64 = w.census.iter().map(|r| r.injected).sum();
    if census_total != w.injected {
        return Err(format!(
            "wire census sums to {census_total} but injected says {}",
            w.injected
        ));
    }
    if w.injected == 0 {
        return Err("wire phase injected no faults".to_string());
    }
    if !w.all_clean {
        return Err("wire phase recorded protocol violations".to_string());
    }
    if w.transport_panics != 0 {
        return Err(format!(
            "{} transport-thread panics recorded",
            w.transport_panics
        ));
    }
    if !w.threads_joined {
        return Err("server threads did not all join".to_string());
    }
    let attempts = w.connections * w.requests_per_connection;
    if w.injected > attempts {
        return Err(format!(
            "wire injected {} exceeds attempted requests {attempts}",
            w.injected
        ));
    }
    if summary.cells.is_empty() {
        return Err("campaign has no availability cells".to_string());
    }
    for c in &summary.cells {
        if c.decided > c.requests || c.requests == 0 {
            return Err(format!(
                "cell {}: decided {} vs requests {}",
                c.label, c.decided, c.requests
            ));
        }
        let expected = c.decided as f64 / c.requests as f64;
        if (c.availability - expected).abs() > 1e-12 {
            return Err(format!(
                "cell {}: availability {} != decided/requests {expected}",
                c.label, c.availability
            ));
        }
        if !(0.0..=1.0).contains(&c.dspn_availability) {
            return Err(format!(
                "cell {}: DSPN availability {} outside [0,1]",
                c.label, c.dspn_availability
            ));
        }
        if (c.abs_error - (c.availability - c.dspn_availability).abs()).abs() > 1e-12 {
            return Err(format!("cell {}: abs_error inconsistent", c.label));
        }
        if c.within_tolerance != (c.abs_error <= summary.tolerance) {
            return Err(format!(
                "cell {}: within_tolerance flag disagrees with abs_error {} vs tolerance {}",
                c.label, c.abs_error, summary.tolerance
            ));
        }
        if c.proactive.is_none() && c.proactive_rejuvenations != 0 {
            return Err(format!(
                "cell {}: reactive-only cell reports {} proactive rejuvenations",
                c.label, c.proactive_rejuvenations
            ));
        }
        if !c.bystander_clean {
            return Err(format!(
                "cell {}: chaos leaked into the bystander tenant",
                c.label
            ));
        }
    }
    let h = &summary.headline;
    let expected_gain = h.proactive_availability - h.reactive_availability;
    if (h.proactive_gain - expected_gain).abs() > 1e-12 {
        return Err(format!(
            "headline gain {} != proactive − reactive {expected_gain}",
            h.proactive_gain
        ));
    }
    Ok(())
}

/// Validates the internal consistency of a deterministic service report.
pub fn validate_report(report: &ServiceReport) -> Result<(), String> {
    if report.schema != REPORT_SCHEMA {
        return Err(format!(
            "schema {:?} != expected {REPORT_SCHEMA:?}",
            report.schema
        ));
    }
    if report.tenants.is_empty() {
        return Err("report has no tenants".to_string());
    }
    let mut names: Vec<&str> = report.tenants.iter().map(|t| t.tenant.as_str()).collect();
    let sorted = {
        let mut s = names.clone();
        s.sort_unstable();
        s
    };
    if names != sorted {
        return Err("tenant rows are not sorted by name".to_string());
    }
    names.dedup();
    if names.len() != report.tenants.len() {
        return Err("duplicate tenant rows".to_string());
    }
    for t in &report.tenants {
        let accounted = t.decided + t.skipped + t.no_output + t.dropped;
        if accounted != t.requests {
            return Err(format!(
                "tenant {}: decided+skipped+no_output+dropped = {accounted} != requests {}",
                t.tenant, t.requests
            ));
        }
        if t.slo_misses != t.skipped + t.no_output + t.dropped {
            return Err(format!(
                "tenant {}: slo_misses {} != skipped+no_output+dropped {}",
                t.tenant,
                t.slo_misses,
                t.skipped + t.no_output + t.dropped
            ));
        }
        if t.rounds > report.rounds {
            return Err(format!(
                "tenant {}: {} tenant rounds exceed {} service rounds",
                t.tenant, t.rounds, report.rounds
            ));
        }
        if t.proactive_rejuvenations > t.rejuvenations {
            return Err(format!(
                "tenant {}: {} proactive rejuvenations exceed {} total",
                t.tenant, t.proactive_rejuvenations, t.rejuvenations
            ));
        }
        if t.round_latency.count > t.requests {
            return Err(format!(
                "tenant {}: round-latency count {} exceeds {} requests",
                t.tenant, t.round_latency.count, t.requests
            ));
        }
        if t.round_latency.p50_rounds > t.round_latency.p99_rounds
            || t.round_latency.p99_rounds > t.round_latency.max_rounds
        {
            return Err(format!(
                "tenant {}: round-latency digest not monotone (p50 {} / p99 {} / max {})",
                t.tenant,
                t.round_latency.p50_rounds,
                t.round_latency.p99_rounds,
                t.round_latency.max_rounds
            ));
        }
        let rate = t.slo_miss_rate();
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!(
                "tenant {}: slo-miss rate {rate} outside [0,1]",
                t.tenant
            ));
        }
    }
    Ok(())
}

/// Validates a `BENCH_serve.json` summary: schema, embedded reports, and
/// the sanity of every measured figure.
pub fn validate_summary(summary: &ServeSummary) -> Result<(), String> {
    if summary.schema != BENCH_SCHEMA {
        return Err(format!(
            "schema {:?} != expected {BENCH_SCHEMA:?}",
            summary.schema
        ));
    }
    if summary.scenarios.is_empty() {
        return Err("summary has no scenarios".to_string());
    }
    if summary.shards == 0 {
        return Err("summary claims zero shards".to_string());
    }
    for s in &summary.scenarios {
        validate_report(&s.report).map_err(|e| format!("scenario {}: {e}", s.scenario))?;
        if s.report.tenants.len() < 2 {
            return Err(format!(
                "scenario {}: a multi-tenant summary needs ≥ 2 tenants",
                s.scenario
            ));
        }
        if s.tenants.len() != s.report.tenants.len() {
            return Err(format!(
                "scenario {}: {} load rows vs {} report rows",
                s.scenario,
                s.tenants.len(),
                s.report.tenants.len()
            ));
        }
        for (load, rep) in s.tenants.iter().zip(&s.report.tenants) {
            if load.tenant != rep.tenant {
                return Err(format!(
                    "scenario {}: load row {} out of step with report row {}",
                    s.scenario, load.tenant, rep.tenant
                ));
            }
            if load.correct + load.wrong != rep.decided {
                return Err(format!(
                    "scenario {}: tenant {}: correct+wrong {} != decided {}",
                    s.scenario,
                    load.tenant,
                    load.correct + load.wrong,
                    rep.decided
                ));
            }
            for (label, v) in [
                ("throughput", load.throughput_rps),
                ("p50", load.latency.p50_ns),
                ("p99", load.latency.p99_ns),
                ("mean", load.latency.mean_ns),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return Err(format!(
                        "scenario {}: tenant {}: non-finite/negative {label} {v}",
                        s.scenario, load.tenant
                    ));
                }
            }
        }
        if !s.throughput_rps.is_finite() || s.throughput_rps <= 0.0 {
            return Err(format!(
                "scenario {}: aggregate throughput {} not positive",
                s.scenario, s.throughput_rps
            ));
        }
        let measured: u64 = s.tenants.iter().map(|t| t.latency.count).sum();
        if measured != s.overall_latency.count {
            return Err(format!(
                "scenario {}: overall latency count {} != per-tenant sum {measured}",
                s.scenario, s.overall_latency.count
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant_row(name: &str) -> TenantReport {
        TenantReport {
            tenant: name.to_string(),
            requests: 10,
            rounds: 5,
            decided: 8,
            skipped: 1,
            no_output: 1,
            dropped: 0,
            slo_misses: 2,
            deadline_withholds: 3,
            panics: 0,
            non_finite: 0,
            escalations: 0,
            rejuvenations: 1,
            proactive_rejuvenations: 1,
            rejected_overload: 2,
            rejected_rate_limited: 1,
            shed: 1,
            round_latency: RoundLatencyReport {
                count: 10,
                p50_rounds: 0,
                p99_rounds: 2,
                max_rounds: 2,
            },
        }
    }

    fn report() -> ServiceReport {
        ServiceReport {
            schema: REPORT_SCHEMA.to_string(),
            seed: 11,
            rounds: 5,
            shard_restarts: 0,
            tenants: vec![tenant_row("alpha"), tenant_row("beta")],
        }
    }

    #[test]
    fn valid_report_passes_and_round_trips() {
        let r = report();
        validate_report(&r).expect("valid");
        let json = serde_json::to_string(&r).expect("serialize");
        let back: ServiceReport = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, r);
        assert_eq!(r.tenant("beta").map(|t| t.requests), Some(10));
        // Exact rate arithmetic.
        #[allow(clippy::float_cmp)] // deterministic integer-derived ratio
        {
            assert_eq!(tenant_row("x").slo_miss_rate(), 0.2);
            assert_eq!(tenant_row("x").deadline_withhold_rate(), 0.6);
        }
    }

    #[test]
    fn validation_catches_broken_invariants() {
        let mut r = report();
        r.schema = "other".into();
        assert!(validate_report(&r).is_err());

        let mut r = report();
        r.tenants[0].decided = 99;
        assert!(validate_report(&r).unwrap_err().contains("requests"));

        let mut r = report();
        r.tenants[0].slo_misses = 7;
        assert!(validate_report(&r).unwrap_err().contains("slo_misses"));

        let mut r = report();
        r.tenants.swap(0, 1);
        assert!(validate_report(&r).unwrap_err().contains("sorted"));

        let mut r = report();
        r.tenants[1].tenant = "alpha".into();
        assert!(validate_report(&r).unwrap_err().contains("duplicate"));

        let mut r = report();
        r.tenants[0].rounds = 50;
        assert!(validate_report(&r).unwrap_err().contains("rounds"));

        let mut r = report();
        r.tenants[0].proactive_rejuvenations = 9;
        assert!(validate_report(&r).unwrap_err().contains("proactive"));

        let mut r = report();
        r.tenants[0].round_latency.count = 99;
        assert!(validate_report(&r).unwrap_err().contains("round-latency"));

        let mut r = report();
        r.tenants[0].round_latency.p50_rounds = 5;
        assert!(validate_report(&r).unwrap_err().contains("monotone"));
    }

    #[test]
    fn summary_validation_cross_checks_load_rows() {
        let lat = MeasuredLatency {
            count: 10,
            p50_ns: 100.0,
            p99_ns: 200.0,
            mean_ns: 120.0,
        };
        let mk_load = |name: &str| TenantLoadStats {
            tenant: name.to_string(),
            correct: 7,
            wrong: 1,
            throughput_rps: 100.0,
            latency: lat.clone(),
        };
        let summary = ServeSummary {
            schema: BENCH_SCHEMA.to_string(),
            host_cores: 1,
            seed: 11,
            shards: 2,
            rounds: 5,
            scenarios: vec![ScenarioSummary {
                scenario: "healthy".into(),
                report: report(),
                tenants: vec![mk_load("alpha"), mk_load("beta")],
                overall_latency: MeasuredLatency {
                    count: 20,
                    ..lat.clone()
                },
                wall_ns: 1_000_000,
                throughput_rps: 200.0,
            }],
        };
        validate_summary(&summary).expect("valid");
        assert!(summary.scenario("healthy").is_some());

        let mut bad = summary.clone();
        bad.scenarios[0].tenants[0].correct = 99;
        assert!(validate_summary(&bad).unwrap_err().contains("decided"));

        let mut bad = summary.clone();
        bad.scenarios[0].overall_latency.count = 5;
        assert!(validate_summary(&bad).unwrap_err().contains("overall"));

        let mut bad = summary.clone();
        bad.scenarios[0].tenants[0].latency.p99_ns = f64::INFINITY;
        assert!(validate_summary(&bad).is_err());

        let mut bad = summary;
        bad.shards = 0;
        assert!(validate_summary(&bad).is_err());
    }

    fn chaos_summary() -> ChaosSummary {
        let cell = |label: &str, proactive: Option<ProactiveCell>, decided: u64| ChaosCell {
            label: label.to_string(),
            compromise_rate: 0.2,
            crash_rate: 0.1,
            repair_delay_rounds: 10,
            proactive,
            requests: 100,
            decided,
            availability: decided as f64 / 100.0,
            reactive_rejuvenations: 4,
            proactive_rejuvenations: u64::from(proactive.is_some()),
            dspn_availability: 0.9,
            abs_error: (decided as f64 / 100.0 - 0.9).abs(),
            within_tolerance: (decided as f64 / 100.0 - 0.9).abs() <= 0.05,
            bystander_clean: true,
        };
        ChaosSummary {
            schema: CHAOS_SCHEMA.to_string(),
            seed: 41,
            rounds: 4000,
            warmup_rounds: 200,
            tolerance: 0.05,
            wire: WireChaosSummary {
                connections: 6,
                requests_per_connection: 8,
                census: vec![
                    WireCensusRow {
                        fault: "corrupt_json".into(),
                        injected: 3,
                    },
                    WireCensusRow {
                        fault: "torn_frame".into(),
                        injected: 2,
                    },
                ],
                injected: 5,
                all_clean: true,
                transport_panics: 0,
                threads_joined: true,
            },
            cells: vec![
                cell("crash0.10-reactive", None, 88),
                cell(
                    "crash0.10-proactive",
                    Some(ProactiveCell {
                        period_rounds: 5,
                        refresh_rounds: 1,
                    }),
                    93,
                ),
            ],
            headline: ChaosHeadline {
                crash_rate: 0.1,
                reactive_availability: 0.88,
                proactive_availability: 0.93,
                proactive_gain: 0.93 - 0.88,
            },
        }
    }

    #[test]
    fn chaos_validation_accepts_a_consistent_artifact_and_round_trips() {
        let s = chaos_summary();
        validate_chaos(&s).expect("valid");
        let json = serde_json::to_string(&s).expect("serialise");
        let back: ChaosSummary = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, s);
    }

    #[test]
    fn chaos_validation_catches_broken_invariants() {
        let mut bad = chaos_summary();
        bad.schema = "other".into();
        assert!(validate_chaos(&bad).unwrap_err().contains("schema"));

        let mut bad = chaos_summary();
        bad.wire.injected = 99;
        assert!(validate_chaos(&bad).unwrap_err().contains("census"));

        let mut bad = chaos_summary();
        bad.wire.all_clean = false;
        assert!(validate_chaos(&bad).unwrap_err().contains("violations"));

        let mut bad = chaos_summary();
        bad.wire.transport_panics = 1;
        assert!(validate_chaos(&bad).unwrap_err().contains("panic"));

        let mut bad = chaos_summary();
        bad.wire.injected = 99;
        bad.wire.census[0].injected = 97;
        assert!(validate_chaos(&bad).unwrap_err().contains("exceeds"));

        let mut bad = chaos_summary();
        bad.cells[0].availability = 0.5;
        assert!(validate_chaos(&bad)
            .unwrap_err()
            .contains("decided/requests"));

        let mut bad = chaos_summary();
        bad.cells[0].within_tolerance = !bad.cells[0].within_tolerance;
        assert!(validate_chaos(&bad)
            .unwrap_err()
            .contains("within_tolerance"));

        let mut bad = chaos_summary();
        bad.cells[0].proactive_rejuvenations = 3;
        assert!(validate_chaos(&bad).unwrap_err().contains("reactive-only"));

        let mut bad = chaos_summary();
        bad.cells[1].bystander_clean = false;
        assert!(validate_chaos(&bad).unwrap_err().contains("bystander"));

        let mut bad = chaos_summary();
        bad.headline.proactive_gain = 0.5;
        assert!(validate_chaos(&bad).unwrap_err().contains("gain"));
    }
}
