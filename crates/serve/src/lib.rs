//! mvml-serve: a multi-tenant, batched, sharded inference service over
//! the N-version classification runtime.
//!
//! The batch binaries (`mvml-bench`) drive the runtime one experiment at a
//! time; this crate refactors that into a long-running service shape:
//!
//! - **Admission & batching** ([`admission`]): requests are validated and
//!   coalesced per tenant into one `[N, …]` tensor per round, so one
//!   batched forward per module serves many requests.
//! - **Shards & fault domains** ([`shard`]): each tenant owns a complete
//!   [`mvml_core::NVersionSystem`] — replicas, guard, watchdog,
//!   rejuvenation schedule — and tenants are partitioned across shards
//!   that execute on a persistent worker pool. A shard loss drops only its
//!   own tenants' in-flight requests; the service rebuilds it from
//!   pristine blueprints ([`service`]).
//! - **SLO accounting** ([`slo`], [`report`]): per-tenant decisiveness
//!   (SLO-miss) and deadline-withhold rates, frozen into a deterministic
//!   [`report::ServiceReport`] that is byte-identical across shard counts
//!   and runs.
//! - **Wire protocol** ([`proto`]): length-prefixed JSON frames over any
//!   byte stream; the TCP front-end ([`server`]) and the load generator
//!   ([`loadgen`]) both speak it.
//!
//! Wall-clock time is confined to [`server`] and [`loadgen`]; everything
//! the report schema contains is derived from deterministic counters.

pub mod admission;
pub mod chaos;
pub mod error;
pub mod loadgen;
pub mod proto;
pub mod report;
pub mod server;
pub mod service;
pub mod shard;
pub mod slo;
pub mod tenant;

/// Silences the default panic hook for *injected* panics — crash faults
/// and chaos shard panics, whose payloads carry the word `"injected"` and
/// which unwind through `catch_unwind` by design — so fault-heavy runs do
/// not spam one backtrace per contained fault. Any other panic keeps the
/// default report. Installs once per process; later calls are no-ops.
pub fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected"))
                .or_else(|| {
                    payload
                        .downcast_ref::<String>()
                        .map(|s| s.contains("injected"))
                })
                .unwrap_or(false);
            if !injected {
                default_hook(info);
            }
        }));
    });
}

pub use admission::{AdmissionQueue, ClassifyItem, QuotaSpec, RateSpec, TenantBatch};
pub use chaos::{run_chaos_campaign, ChaosStats};
pub use error::ServeError;
pub use proto::{read_frame, write_frame, ProtoError, RejectReason, Request, Response, VerdictDto};
pub use report::{
    validate_chaos, validate_report, validate_summary, ChaosCell, ChaosHeadline, ChaosSummary,
    ProactiveCell, ServeSummary, ServiceReport, TenantReport, WireCensusRow, WireChaosSummary,
};
pub use service::{OverloadMetrics, RoundAnswer, Service, ServiceConfig};
pub use shard::{RepairKind, Shard, TenantRoundOutcome, TenantState};
pub use slo::TenantAccounting;
pub use tenant::{AgingSpec, FaultSpec, FaultSpecKind, ModelSpec, ProactiveSpec, TenantConfig};
