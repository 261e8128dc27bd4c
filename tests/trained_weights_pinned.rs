//! Pins the trained models bit for bit. Kernel rewrites (SIMD lanes,
//! loop splits, new layouts) must keep every summation order, so the
//! weights a training run produces must not move by a single bit. Each
//! test hashes every trained parameter of a small but real training run
//! and compares it with a pinned constant: a mismatch means a kernel
//! changed the arithmetic, not just its speed.

use mvml_serve::tenant::build_system;
use mvml_serve::{ModelSpec, TenantConfig};
use resilient_perception::avsim::detector::DetectorTrainConfig;
use resilient_perception::avsim::DetectorBank;
use resilient_perception::nn::exec::{current, scoped, Exec, Tuning};
use resilient_perception::nn::Sequential;

/// FNV-1a (64-bit) over the little-endian bytes of every parameter value,
/// model by model, layer by layer, parameter by parameter.
fn fnv1a<'a>(models: impl IntoIterator<Item = &'a mut Sequential>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in models {
        for p in m.all_params() {
            for v in p.values.iter() {
                for b in v.to_bits().to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    h
}

/// Runs `f` inside a scope of the built-in tuning. Scopes are
/// process-wide and serialized, so holding one keeps any other test's
/// scope (tiny blocks, a forced kernel) from reaching this training run.
/// No context field changes a value; thread count and microkernel stay as
/// resolved.
fn default_tuning<R>(f: impl FnOnce() -> R) -> R {
    scoped(
        Exec {
            tuning: Tuning::default(),
            ..current()
        },
        f,
    )
}

#[test]
fn detector_bank_weights_are_pinned() {
    // Every detector layer trains on the direct path.
    let cfg = DetectorTrainConfig {
        scenes: 160,
        epochs: 2,
        ..DetectorTrainConfig::default()
    };
    let mut models = default_tuning(|| DetectorBank::train(&cfg))
        .models()
        .to_vec();
    assert_eq!(
        fnv1a(&mut models),
        0xe9cd_9d67_bd6c_951f,
        "DetectorBank weights changed"
    );
}

#[test]
fn trained_tenant_weights_are_pinned() {
    let cfg = TenantConfig {
        model: ModelSpec::Trained {
            classes: 5,
            image_size: 12,
            train_samples: 64,
            epochs: 1,
            seed: 17,
        },
        ..TenantConfig::passthrough("pinned", 5)
    };
    let mut system = default_tuning(|| build_system(&cfg)).expect("builds");
    let mut models: Vec<Sequential> = (0..system.version_count())
        .map(|i| system.module_mut(i).model_mut().clone())
        .collect();
    assert_eq!(
        fnv1a(&mut models),
        0x5866_4f7b_1298_ecbc,
        "trained tenant weights changed"
    );
}
