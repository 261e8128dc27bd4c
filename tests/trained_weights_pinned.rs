//! Pins the trained models bit for bit. Kernel rewrites (SIMD lanes,
//! loop splits, new layouts) must keep every summation order, so the
//! weights a training run produces must not move by a single bit. Each
//! test hashes every trained parameter of a small but real training run
//! and compares it with a pinned constant: a mismatch means a kernel
//! changed the arithmetic, not just its speed.

use mvml_serve::tenant::build_system;
use mvml_serve::{ModelSpec, TenantConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use resilient_perception::avsim::detector::DetectorTrainConfig;
use resilient_perception::avsim::DetectorBank;
use resilient_perception::nn::exec::{current, scoped, Exec};
use resilient_perception::nn::layers::{Conv2d, KernelPath};
use resilient_perception::nn::tune::Tuning;
use resilient_perception::nn::{Layer, Sequential, Tensor};

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

/// Runs `f` under the built-in tuning: the conv router's thresholds pick
/// between two kernels that sum in different orders, so a host tuning file
/// (`MVML_TUNE`) could move the hashes. Thread count and microkernel do
/// not change any value and stay as resolved.
fn default_tuning<R>(f: impl FnOnce() -> R) -> R {
    scoped(
        Exec {
            tuning: Tuning::default(),
            ..current()
        },
        f,
    )
}

/// Whether `Auto` lowers a channel-rich convolution to GEMM, as the
/// default build does. The `mvml-nn/reference` feature pins it to the
/// direct loops instead, which sum in another order and so train other
/// weights wherever a model has a GEMM-sized layer.
fn auto_lowers_to_gemm() -> bool {
    let mut auto = Conv2d::new(16, 16, 3, 1, &mut StdRng::seed_from_u64(0));
    // GEMM adds the bias last and the direct loops first: with a zero bias
    // the two would agree bit for bit.
    auto.params()[1].values.fill(0.3);
    let mut gemm = auto.clone();
    gemm.set_kernel_path(KernelPath::Gemm);
    let x = Tensor::from_vec(
        &[8, 16, 12, 12],
        (0..8 * 16 * 144)
            .map(|i| (i % 13) as f32 / 13.0 - 0.5)
            .collect(),
    );
    let bits = |y: Tensor| y.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    default_tuning(|| bits(auto.forward(&x, false)) == bits(gemm.forward(&x, false)))
}

#[test]
fn detector_bank_weights_are_pinned() {
    // Every detector layer trains on the direct path in any build.
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
    // The classifiers' channel-rich layers train on GEMM by default.
    let pinned = if auto_lowers_to_gemm() {
        0x4b48_90c1_6204_f240
    } else {
        0x5866_4f7b_1298_ecbc
    };
    assert_eq!(fnv1a(&mut models), pinned, "trained tenant weights changed");
}
