//! The thread count must never change numbers: every parallel kernel in this
//! crate partitions work without altering accumulation order, so any thread
//! count produces bitwise-identical results on a fixed seed.

use mvml_nn::exec::{current, scoped, Exec};
use mvml_nn::gemm::gemm;
use mvml_nn::metrics::evaluate_accuracy;
use mvml_nn::models::lenet_mini;
use mvml_nn::signs::{generate, SignConfig};
use mvml_nn::train::{train_classifier, TrainConfig};

// Policy: full training runs are far too slow for the miri interpreter; the
// thread-pool determinism property itself stays covered under miri by the
// (shrunken) GEMM test below.
#[test]
#[cfg_attr(miri, ignore)]
fn training_is_bitwise_identical_across_thread_counts() {
    let cfg = SignConfig {
        classes: 4,
        noise_std: 0.05,
        ..SignConfig::default()
    };
    let train = generate(&cfg, 80, 5);
    let tc = TrainConfig {
        epochs: 2,
        batch_size: 16,
        ..TrainConfig::default()
    };
    let run = || {
        let mut model = lenet_mini(cfg.image_size, cfg.classes, 11);
        let report = train_classifier(&mut model, &train, &tc);
        (model.snapshot(), report.epoch_losses)
    };
    let base = current();
    let (weights_1, losses_1) = scoped(Exec { threads: 1, ..base }, run);
    for threads in [2, 4] {
        let (weights_n, losses_n) = scoped(Exec { threads, ..base }, run);
        assert_eq!(
            losses_1, losses_n,
            "epoch losses differ at {threads} threads"
        );
        assert_eq!(weights_1, weights_n, "weights differ at {threads} threads");
    }
}

#[test]
#[cfg_attr(miri, ignore)]
fn inference_is_bitwise_identical_across_thread_counts() {
    let cfg = SignConfig {
        classes: 4,
        noise_std: 0.05,
        ..SignConfig::default()
    };
    let train = generate(&cfg, 60, 3);
    let test = generate(&cfg, 24, 4);
    let tc = TrainConfig {
        epochs: 1,
        batch_size: 16,
        ..TrainConfig::default()
    };
    let mut model = lenet_mini(cfg.image_size, cfg.classes, 9);
    let _ = train_classifier(&mut model, &train, &tc);
    let base = current();
    let acc_1 = scoped(Exec { threads: 1, ..base }, || {
        evaluate_accuracy(&mut model, &test, 8)
    });
    for threads in [3, 4] {
        let acc_n = scoped(Exec { threads, ..base }, || {
            evaluate_accuracy(&mut model, &test, 8)
        });
        assert_eq!(
            acc_1.to_bits(),
            acc_n.to_bits(),
            "accuracy differs at {threads} threads"
        );
    }
}

#[test]
fn large_gemm_is_bitwise_identical_across_thread_counts() {
    // Big enough to clear the parallel-dispatch threshold (2*m*k*n flops);
    // under miri the smallest shape past the threshold keeps the interpreter
    // run tractable while still exercising the scoped-thread partitioning.
    let (m, k, n) = if cfg!(miri) {
        (64, 64, 32)
    } else {
        (128, 96, 64)
    };
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i * 31) % 101) as f32 / 101.0 - 0.5)
        .collect();
    let b: Vec<f32> = (0..k * n)
        .map(|i| ((i * 17) % 97) as f32 / 97.0 - 0.5)
        .collect();
    let mut serial = vec![0.0f32; m * n];
    let base = current();
    scoped(Exec { threads: 1, ..base }, || {
        gemm(m, k, n, &a, &b, &mut serial)
    });
    for threads in [2, 5, 8] {
        let mut parallel = vec![0.0f32; m * n];
        scoped(Exec { threads, ..base }, || {
            gemm(m, k, n, &a, &b, &mut parallel)
        });
        assert!(
            serial
                .iter()
                .zip(&parallel)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "gemm output differs at {threads} threads"
        );
    }
}
