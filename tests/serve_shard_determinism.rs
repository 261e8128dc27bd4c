//! Serve's determinism contract with trained tenants: the same tenants,
//! seed and request trace give a byte-identical `ServiceReport` on one
//! shard and on two, through contained module crashes (repaired from each
//! module's pristine snapshot) and a lost shard (rebuilt from the tenants'
//! blueprints).

use mvml_serve::loadgen::{build_trace, ArrivalMode, LoadPlan, TraceItem};
use mvml_serve::{FaultSpec, FaultSpecKind, ModelSpec, Service, ServiceConfig, TenantConfig};

const SEED: u64 = 5;
/// The round in which the crashing tenant's shard is lost.
const LOST_ROUND: usize = 5;

fn trained(name: &str, seed: u64) -> TenantConfig {
    TenantConfig {
        model: ModelSpec::Trained {
            classes: 5,
            image_size: 12,
            train_samples: 64,
            epochs: 1,
            seed,
        },
        ..TenantConfig::passthrough(name, 5)
    }
}

/// Two trained tenants, on their own shards when there are two. `alpha`'s
/// module 0 crashes on every frame it serves, so the watchdog escalates
/// it and each repair restores its pristine snapshot; `beta` is
/// fault-free.
fn tenants() -> Vec<TenantConfig> {
    vec![
        trained("alpha", 17).with_fault(FaultSpec {
            kind: FaultSpecKind::Crash,
            rate: 1.0,
            module: Some(0),
        }),
        trained("beta", 21),
    ]
}

/// Twelve closed-loop rounds. `beta` sends nothing in `LOST_ROUND`, so the
/// lost shard drops only `alpha`'s requests in either layout.
fn trace(tenants: &[TenantConfig]) -> Vec<Vec<TraceItem>> {
    let plan = LoadPlan {
        rounds: 12,
        mode: ArrivalMode::Closed { per_round: 2 },
    };
    let mut trace = build_trace(tenants, &plan, SEED);
    trace[LOST_ROUND].retain(|item| item.tenant == "alpha");
    trace
}

/// Runs the trace to completion on `shards` shards, losing `alpha`'s shard
/// in `LOST_ROUND`, and returns the report as JSON. On one shard the loss
/// also rebuilds the idle, fault-free `beta`: the report must not show it.
#[allow(clippy::expect_used)] // test harness
fn report_json(tenants: &[TenantConfig], trace: &[Vec<TraceItem>], shards: usize) -> String {
    let cfg = ServiceConfig {
        seed: SEED,
        shards,
        max_batch: 4,
        ..ServiceConfig::default()
    };
    let mut service = Service::new(tenants.to_vec(), cfg).expect("service builds");
    for (round, items) in trace.iter().enumerate() {
        for item in items {
            service
                .submit(&item.tenant, item.id, &[1, 12, 12], item.pixels.clone())
                .expect("admitted");
        }
        if round == LOST_ROUND {
            let shard = service.shard_of("alpha").expect("alpha has a shard");
            service.inject_shard_panic(shard).expect("shard in range");
        }
        service.run_round().expect("round");
    }
    service.drain().expect("drain");
    let report = service.report();
    mvml_serve::validate_report(&report).expect("internally consistent");
    assert_eq!(report.shard_restarts, 1);
    let alpha = report.tenant("alpha").expect("alpha row");
    assert_eq!(alpha.dropped, 2, "the lost round's requests");
    assert!(alpha.panics > 0, "module 0 crashed");
    assert!(alpha.rejuvenations > 0, "module 0 was repaired");
    assert!(alpha.decided > 0, "alpha decides requests");
    serde_json::to_string(&report).expect("serialise")
}

#[test]
fn trained_tenant_reports_match_across_shard_counts() {
    mvml_serve::install_quiet_panic_hook();
    let tenants = tenants();
    let trace = trace(&tenants);
    let one = report_json(&tenants, &trace, 1);
    assert_eq!(one, report_json(&tenants, &trace, 2));
}
