//! The SIMD determinism contract on the models the service runs: under
//! every GEMM microkernel this host offers, the three classifier versions
//! give bitwise the scalar kernel's inference logits at batches 1 and 8
//! and bitwise its weights after a training step. Batches alternate, so
//! the reused GEMM packing buffers carry a previous call's contents into
//! each forward.

use resilient_perception::nn::exec::{current, scoped, Exec};
use resilient_perception::nn::gemm::{available_kernels, Kernel};
use resilient_perception::nn::layer::Layer;
use resilient_perception::nn::models::three_versions;
use resilient_perception::nn::train::{train_classifier, TrainConfig};
use resilient_perception::nn::{Dataset, Tensor};

const SIZE: usize = 32;
const CLASSES: usize = 43;

/// Deterministic values in `[-0.5, 0.5)`.
fn fill(len: usize, salt: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u64)
                .wrapping_add(salt)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

fn images(batch: usize, salt: u64) -> Tensor {
    Tensor::from_vec(&[batch, 1, SIZE, SIZE], fill(batch * SIZE * SIZE, salt))
}

/// Every bit the kernel can reach: each model's logits at batches 1, 8
/// and 1 again, then its weights after one training step of batch 8.
fn fingerprint() -> Vec<Vec<u32>> {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let data = Dataset::new(
        images(8, 3),
        (0..8).map(|i| i * 5 % CLASSES).collect(),
        CLASSES,
    );
    let step = TrainConfig {
        epochs: 1,
        batch_size: 8,
        ..TrainConfig::default()
    };
    let mut out = Vec::new();
    for mut model in three_versions(SIZE, CLASSES, 7) {
        for (batch, salt) in [(1, 1), (8, 2), (1, 4)] {
            out.push(bits(model.forward(&images(batch, salt), false).as_slice()));
        }
        train_classifier(&mut model, &data, &step);
        for p in model.params() {
            out.push(bits(p.values));
        }
    }
    out
}

#[test]
fn classifier_models_are_bitwise_scalar_under_every_kernel() {
    let on = |kernel| {
        scoped(
            Exec {
                kernel,
                ..current()
            },
            fingerprint,
        )
    };
    let scalar = on(Kernel::Scalar);
    for kernel in available_kernels() {
        assert!(
            on(kernel) == scalar,
            "{} differs from scalar",
            kernel.name()
        );
    }
}
