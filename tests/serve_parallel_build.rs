//! `Service::new` builds its tenants' blueprints in parallel, one pool job
//! per tenant. The trained weights must not depend on that: every module
//! of every tenant computes bit-identical logits to a serial build, and a
//! failing build still reports the first failing tenant in name order.

use mvml_serve::tenant::build_system;
use mvml_serve::{ModelSpec, Service, ServiceConfig, TenantConfig};
use resilient_perception::mvml::{NVersionSystem, WatchdogConfig};
use resilient_perception::nn::exec::{current, scoped, Exec};
use resilient_perception::nn::Tensor;

const SIZE: usize = 12;

fn trained(name: &str, seed: u64) -> TenantConfig {
    TenantConfig {
        model: ModelSpec::Trained {
            classes: 5,
            image_size: SIZE,
            train_samples: 64,
            epochs: 1,
            seed,
        },
        ..TenantConfig::passthrough(name, 5)
    }
}

/// Every module's logits on a fixed batch, as raw bits (`None` for a
/// module that is not operational).
fn logit_bits(system: &NVersionSystem) -> Vec<Option<Vec<u32>>> {
    let batch = 4;
    let pixels = (0..batch * SIZE * SIZE)
        .map(|i| ((i * 37 % 101) as f32) / 101.0)
        .collect();
    let x = Tensor::from_vec(&[batch, 1, SIZE, SIZE], pixels);
    let mut system = system.clone();
    (0..system.version_count())
        .map(|i| {
            let logits = system.module_mut(i).infer_logits(&x)?;
            Some(logits.as_slice().iter().map(|v| v.to_bits()).collect())
        })
        .collect()
}

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    scoped(
        Exec {
            threads,
            ..current()
        },
        f,
    )
}

#[test]
fn parallel_tenant_build_matches_serial_build() {
    // Out of name order on purpose: the service sorts before it builds.
    let tenants = vec![trained("zeta", 21), trained("alpha", 17)];
    let serial: Vec<_> = with_threads(1, || {
        tenants
            .iter()
            .map(|t| {
                (
                    t.name.clone(),
                    logit_bits(&build_system(t).expect("builds")),
                )
            })
            .collect()
    });
    for (name, logits) in &serial {
        assert!(
            logits.iter().all(Option::is_some),
            "{name} modules all answer"
        );
    }
    // Two threads give each tenant's job a serial share; four give each a
    // two-thread share, so the trainings' GEMMs fan out inside the jobs.
    for threads in [2, 4] {
        let service = with_threads(threads, || {
            let cfg = ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            };
            Service::new(tenants.clone(), cfg).expect("service builds")
        });
        assert_eq!(service.tenant_names(), ["alpha", "zeta"]);
        for (name, want) in &serial {
            let blueprint = service.blueprint(name).expect("tenant has a blueprint");
            assert_eq!(&logit_bits(blueprint), want, "{name} at {threads} threads");
        }
    }
}

#[test]
fn failing_build_reports_the_first_tenant_in_name_order() {
    let broken = |name: &str, window: u64, threshold: u32| TenantConfig {
        watchdog: Some(WatchdogConfig { window, threshold }),
        ..TenantConfig::passthrough(name, 4)
    };
    let build = |tenants| {
        with_threads(2, || Service::new(tenants, ServiceConfig::default()))
            .err()
            .map(|e| e.to_string())
            .expect("the build fails")
    };
    let window = broken("b-window", 0, 3);
    let threshold = broken("a-threshold", 10, 0);
    let first = build(vec![window.clone(), threshold, trained("c-ok", 5)]);
    assert!(first.contains("threshold must be positive"), "{first}");
    let only = build(vec![trained("a-ok", 5), window]);
    assert!(only.contains("window must be positive"), "{only}");
}
