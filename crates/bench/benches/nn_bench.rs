//! Criterion micro-benchmarks for the neural-network substrate: inference
//! cost of the three classifier versions and the YOLO-mini detectors — the
//! numbers behind the Table VIII compute model.

// Experiment drivers, not library code: when a solver or file write
// fails there is no caller to recover, so aborting loudly via
// unwrap/expect is the right behaviour (workspace policy sets these
// lints to warn; CI promotes warnings to errors).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use mvml_avsim::bev::CELLS;
use mvml_avsim::detector::{yolo_mini, VARIANTS};
use mvml_nn::exec::{self, Exec};
use mvml_nn::gemm::gemm;
use mvml_nn::layer::Layer;
use mvml_nn::layers::{Conv2d, KernelPath};
use mvml_nn::models::three_versions;
use mvml_nn::parallel::bench_thread_sweep;
use mvml_nn::signs::{generate, SignConfig};
use mvml_nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_classifier_inference(c: &mut Criterion) {
    let cfg = SignConfig::default();
    let data = generate(&cfg, 32, 0);
    let (batch, _) = data.batch(&(0..32).collect::<Vec<_>>());
    for mut model in three_versions(cfg.image_size, cfg.classes, 38) {
        let name = format!("infer_batch32_{}", model.model_name());
        c.bench_function(&name, |b| {
            b.iter(|| model.forward(black_box(&batch), false));
        });
    }
}

fn bench_detector_inference(c: &mut Criterion) {
    let grid = Tensor::zeros(&[1, 1, CELLS, CELLS]);
    for (i, (name, channels)) in VARIANTS.iter().enumerate() {
        let mut model = yolo_mini(name, *channels, i as u64);
        c.bench_function(&format!("detector_forward_{name}"), |b| {
            b.iter(|| model.forward(black_box(&grid), false));
        });
    }
}

fn bench_training_step(c: &mut Criterion) {
    use mvml_nn::loss::softmax_cross_entropy;
    use mvml_nn::optim::Sgd;
    let cfg = SignConfig::default();
    let data = generate(&cfg, 16, 0);
    let (batch, labels) = data.batch(&(0..16).collect::<Vec<_>>());
    let mut model = mvml_nn::models::lenet_mini(cfg.image_size, cfg.classes, 38);
    let mut opt = Sgd::new(0.05).with_momentum(0.9);
    c.bench_function("train_step_batch16_lenet", |b| {
        b.iter(|| {
            let logits = model.forward(&batch, true);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            model.backward(&grad);
            opt.step(&mut model);
        });
    });
}

/// Direct loops vs im2col + GEMM on the LeNet-mini conv shapes, batch 32.
fn bench_conv_paths(c: &mut Criterion) {
    let shapes: [(&str, usize, usize, usize, usize, usize); 2] = [
        ("conv1_1x6x5_28", 1, 6, 5, 0, 28),
        ("conv2_6x16x3_12", 6, 16, 3, 0, 12),
    ];
    for (label, ic, oc, k, pad, hw) in shapes {
        let mut group = c.benchmark_group(format!("conv_batch32_{label}"));
        let x = Tensor::from_vec(
            &[32, ic, hw, hw],
            (0..32 * ic * hw * hw)
                .map(|i| ((i * 13) % 29) as f32 / 29.0 - 0.5)
                .collect(),
        );
        for (path_label, path) in [("direct", KernelPath::Direct), ("gemm", KernelPath::Gemm)] {
            let mut rng = StdRng::seed_from_u64(38);
            let mut conv = Conv2d::new(ic, oc, k, pad, &mut rng);
            conv.set_kernel_path(path);
            group.bench_function(path_label, |b| {
                b.iter(|| conv.forward(black_box(&x), false));
            });
        }
        group.finish();
    }
}

/// One big GEMM at 1 vs N worker threads (the row-partitioned driver).
fn bench_gemm_threads(c: &mut Criterion) {
    let (m, k, n) = (256usize, 256, 256);
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i * 31) % 101) as f32 / 101.0 - 0.5)
        .collect();
    let b: Vec<f32> = (0..k * n)
        .map(|i| ((i * 17) % 97) as f32 / 97.0 - 0.5)
        .collect();
    let mut group = c.benchmark_group("gemm_256x256x256");
    let base = exec::current();
    for threads in bench_thread_sweep() {
        let mut out = vec![0.0f32; m * n];
        exec::scoped(Exec { threads, ..base }, || {
            group.bench_function(format!("threads_{threads}"), |bench| {
                bench.iter(|| gemm(m, k, n, black_box(&a), black_box(&b), &mut out));
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_classifier_inference,
    bench_detector_inference,
    bench_training_step,
    bench_conv_paths,
    bench_gemm_threads
);
criterion_main!(benches);
