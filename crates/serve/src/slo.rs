//! Per-tenant SLO accounting: pure counters, updated from each round's
//! deterministic outcomes.
//!
//! The service-level objective here is *decisiveness*: an admitted request
//! meets its SLO when the trusted voter produces a class. A safe skip, a
//! no-output round or a request lost to a shard restart all count as SLO
//! misses (the downstream planner had to fall back), while deadline
//! withholds are tracked separately — a withheld module proposal degrades
//! redundancy without necessarily costing the request its answer.
//!
//! Latency is accounted in *rounds*, not nanoseconds: a request admitted
//! in round `a` and answered in round `b` aged `b − a` rounds in the
//! queue. Round latency is a pure function of the trace and the batching
//! config, so its p50/p99 belong in the deterministic report, unlike the
//! wall-clock latency digests beside it in `BENCH_serve.json`.

use crate::proto::{RejectReason, VerdictDto};
use crate::report::{RoundLatencyReport, TenantReport};
use mvml_core::watchdog::FaultEventKind;
use mvml_core::FaultEvent;
use std::collections::BTreeMap;

/// Running SLO counters for one tenant. Deterministic: never touches a
/// clock; everything is a function of the verdict/event stream.
#[derive(Debug, Clone, Default)]
pub struct TenantAccounting {
    requests: u64,
    rounds: u64,
    decided: u64,
    skipped: u64,
    no_output: u64,
    dropped: u64,
    deadline_withholds: u64,
    panics: u64,
    non_finite: u64,
    escalations: u64,
    rejuvenations: u64,
    proactive_rejuvenations: u64,
    rejected_overload: u64,
    rejected_rate_limited: u64,
    shed: u64,
    /// Round-latency histogram: queue age in rounds → request count.
    latency_rounds: BTreeMap<u64, u64>,
}

impl TenantAccounting {
    /// Zeroed counters.
    pub fn new() -> Self {
        TenantAccounting::default()
    }

    /// Records one served round: the per-request verdicts plus the guard's
    /// fault events for the round.
    pub fn record_round(&mut self, verdicts: &[VerdictDto], events: &[FaultEvent]) {
        self.rounds += 1;
        for v in verdicts {
            match v {
                VerdictDto::Output { .. } => self.decided += 1,
                VerdictDto::Skip => self.skipped += 1,
                VerdictDto::NoModules => self.no_output += 1,
                VerdictDto::Dropped => self.dropped += 1,
                // Rejections never reach a shard; they are counted at
                // admission/shed time and sit outside the request identity.
                VerdictDto::Rejected { .. } => continue,
            }
            self.requests += 1;
        }
        for e in events {
            match e.kind {
                FaultEventKind::DeadlineMiss => self.deadline_withholds += 1,
                FaultEventKind::Panic => self.panics += 1,
                FaultEventKind::NonFiniteOutput { .. } => self.non_finite += 1,
                FaultEventKind::Escalated => self.escalations += 1,
                _ => {}
            }
        }
    }

    /// Records requests lost to a shard restart (no verdicts exist).
    pub fn record_dropped(&mut self, count: u64) {
        self.requests += count;
        self.dropped += count;
    }

    /// Records one completed rejuvenation. `proactive` marks the
    /// time-triggered scheduler's refreshes apart from watchdog-reactive
    /// repairs; both count toward the total.
    pub fn record_rejuvenation(&mut self, proactive: bool) {
        self.rejuvenations += 1;
        if proactive {
            self.proactive_rejuvenations += 1;
        }
    }

    /// Records one request refused at admission (never enqueued).
    pub fn record_rejected(&mut self, reason: RejectReason) {
        match reason {
            RejectReason::Overloaded => self.rejected_overload += 1,
            RejectReason::RateLimited { .. } => self.rejected_rate_limited += 1,
        }
    }

    /// Records requests shed from the queue by the aggregate-bound policy
    /// (admitted, then evicted before any round served them).
    pub fn record_shed(&mut self, count: u64) {
        self.shed += count;
    }

    /// Records the queue age (in rounds) of answered requests.
    pub fn record_latency_rounds(&mut self, ages: &[u64]) {
        for &age in ages {
            *self.latency_rounds.entry(age).or_insert(0) += 1;
        }
    }

    /// Requests admitted so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Exact integer quantile over the round-latency histogram: the
    /// smallest age whose cumulative count reaches `⌈q·total⌉`.
    fn latency_quantile(&self, q: f64) -> u64 {
        let total: u64 = self.latency_rounds.values().sum();
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (&age, &count) in &self.latency_rounds {
            cum += count;
            if cum >= rank {
                return age;
            }
        }
        self.latency_rounds.keys().last().copied().unwrap_or(0)
    }

    /// The frozen report row for this tenant.
    pub fn report(&self, tenant: &str) -> TenantReport {
        let latency_total: u64 = self.latency_rounds.values().sum();
        TenantReport {
            tenant: tenant.to_string(),
            requests: self.requests,
            rounds: self.rounds,
            decided: self.decided,
            skipped: self.skipped,
            no_output: self.no_output,
            dropped: self.dropped,
            slo_misses: self.skipped + self.no_output + self.dropped,
            deadline_withholds: self.deadline_withholds,
            panics: self.panics,
            non_finite: self.non_finite,
            escalations: self.escalations,
            rejuvenations: self.rejuvenations,
            proactive_rejuvenations: self.proactive_rejuvenations,
            rejected_overload: self.rejected_overload,
            rejected_rate_limited: self.rejected_rate_limited,
            shed: self.shed,
            round_latency: RoundLatencyReport {
                count: latency_total,
                p50_rounds: self.latency_quantile(0.50),
                p99_rounds: self.latency_quantile(0.99),
                max_rounds: self.latency_rounds.keys().last().copied().unwrap_or(0),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_accounting_tallies_verdicts_and_events() {
        let mut acc = TenantAccounting::new();
        acc.record_round(
            &[
                VerdictDto::Output { class: 2 },
                VerdictDto::Skip,
                VerdictDto::NoModules,
            ],
            &[
                FaultEvent {
                    module: 0,
                    frame: 0,
                    kind: FaultEventKind::DeadlineMiss,
                },
                FaultEvent {
                    module: 1,
                    frame: 0,
                    kind: FaultEventKind::Panic,
                },
                FaultEvent {
                    module: 1,
                    frame: 0,
                    kind: FaultEventKind::Escalated,
                },
            ],
        );
        acc.record_dropped(2);
        acc.record_rejuvenation(false);
        acc.record_rejuvenation(true);
        let report = acc.report("alpha");
        assert_eq!(report.requests, 5);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.decided, 1);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.no_output, 1);
        assert_eq!(report.dropped, 2);
        assert_eq!(report.slo_misses, 4);
        assert_eq!(report.deadline_withholds, 1);
        assert_eq!(report.panics, 1);
        assert_eq!(report.escalations, 1);
        assert_eq!(report.rejuvenations, 2);
        assert_eq!(report.proactive_rejuvenations, 1);
        assert_eq!(acc.requests(), 5);
        // Invariant the validator enforces.
        assert_eq!(
            report.decided + report.skipped + report.no_output + report.dropped,
            report.requests
        );
    }

    #[test]
    fn rejection_counters_sit_outside_the_request_identity() {
        let mut acc = TenantAccounting::new();
        acc.record_rejected(RejectReason::Overloaded);
        acc.record_rejected(RejectReason::RateLimited {
            retry_after_rounds: 3,
        });
        acc.record_shed(2);
        let report = acc.report("alpha");
        assert_eq!(report.requests, 0);
        assert_eq!(report.rejected_overload, 1);
        assert_eq!(report.rejected_rate_limited, 1);
        assert_eq!(report.shed, 2);
        assert_eq!(report.slo_misses, 0);
    }

    #[test]
    fn round_latency_quantiles_are_exact_integer_ranks() {
        let mut acc = TenantAccounting::new();
        // 98 fast answers, 2 stragglers.
        acc.record_latency_rounds(&vec![0; 49]);
        acc.record_latency_rounds(&vec![1; 49]);
        acc.record_latency_rounds(&[7, 9]);
        let report = acc.report("alpha");
        assert_eq!(report.round_latency.count, 100);
        assert_eq!(report.round_latency.p50_rounds, 1);
        assert_eq!(report.round_latency.p99_rounds, 7);
        assert_eq!(report.round_latency.max_rounds, 9);

        let empty = TenantAccounting::new().report("idle");
        assert_eq!(empty.round_latency.count, 0);
        assert_eq!(empty.round_latency.p99_rounds, 0);
    }
}
