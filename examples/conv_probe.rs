//! Per-shape convolution timing, in two tables:
//!
//! 1. direct vs GEMM inference forwards (detector shapes, LeNet-style
//!    training shapes). The `KernelPath::Auto` thresholds in
//!    `mvml_nn::layers::Conv2d` were measured with this table — re-run it
//!    when retuning them for a new host.
//! 2. The shapes `Auto` trains on the direct path: the three yolomini
//!    detector layers at batch 16 and the lenet/alexnet stems at batch 32.
//!    Per shape: `forward(train=true)`, `backward_params` (what a training
//!    step runs on a model's first layer), full `backward`, and the
//!    batch-1 `forward(train=false)` of per-frame inference (min of 30
//!    samples each).
//!
//! Run with `cargo run --release --example conv_probe`.
// Demo code: aborting on a broken step is the desired behaviour, so
// unwrap/expect are allowed file-wide.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mvml_nn::layers::{Conv2d, KernelPath};
use mvml_nn::Layer;
use mvml_nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn median_ns(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        v.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn min_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let shapes: &[(&str, usize, usize, usize, usize, usize, usize)] = &[
        ("det stem 1->6 k3 32x32 b1", 1, 1, 6, 3, 1, 32),
        ("det mid 6->6 k3 32x32 b1", 1, 6, 6, 3, 1, 32),
        ("det mid 8->8 k3 32x32 b1", 1, 8, 8, 3, 1, 32),
        ("det head 6->1 k1 32x32 b1", 1, 6, 1, 1, 0, 32),
        ("mid batch8 6->6 k3 32x32", 8, 6, 6, 3, 1, 32),
        ("mid batch32 6->6 k3 32x32", 32, 6, 6, 3, 1, 32),
        ("mid batch32 8->8 k3 32x32", 32, 8, 8, 3, 1, 32),
        ("mid batch1 16->16 k3 32x32", 1, 16, 16, 3, 1, 32),
        ("mid batch8 16->16 k3 32x32", 8, 16, 16, 3, 1, 32),
    ];
    for &(label, n, ic, oc, k, pad, hw) in shapes {
        let x = Tensor::from_vec(
            &[n, ic, hw, hw],
            (0..n * ic * hw * hw)
                .map(|i| ((i * 13) % 29) as f32 / 29.0 - 0.5)
                .collect(),
        );
        let time_path = |path: KernelPath| {
            let mut rng = StdRng::seed_from_u64(38);
            let mut conv = Conv2d::new(ic, oc, k, pad, &mut rng);
            conv.set_kernel_path(path);
            median_ns(9, 50, || {
                std::hint::black_box(conv.forward(std::hint::black_box(&x), false));
            })
        };
        let d = time_path(KernelPath::Direct);
        let g = time_path(KernelPath::Gemm);
        println!(
            "{label}: direct {d:.0} ns, gemm {g:.0} ns, speedup {:.2}x",
            d / g
        );
    }

    println!();
    let mut train_shapes: Vec<(String, usize, usize, usize, usize, usize)> = Vec::new();
    for (name, ch) in [("s", 4), ("m", 6), ("l", 8)] {
        train_shapes.push((format!("yolomini-{name} 1->{ch} k3"), 1, ch, 3, 1, 16));
        train_shapes.push((format!("yolomini-{name} {ch}->{ch} k3"), ch, ch, 3, 1, 16));
        train_shapes.push((format!("yolomini-{name} {ch}->1 k1"), ch, 1, 1, 0, 16));
    }
    train_shapes.push(("lenet conv1 1->6 k5".into(), 1, 6, 5, 0, 32));
    train_shapes.push(("alexnet conv1 1->8 k3".into(), 1, 8, 3, 1, 32));
    let hw = 32;
    for (label, ic, oc, k, pad, n) in train_shapes {
        let x = Tensor::from_vec(
            &[n, ic, hw, hw],
            (0..n * ic * hw * hw)
                .map(|i| ((i * 13) % 29) as f32 / 29.0 - 0.5)
                .collect(),
        );
        let mut rng = StdRng::seed_from_u64(38);
        let mut conv = Conv2d::new(ic, oc, k, pad, &mut rng);
        let y = conv.forward(&x, true);
        let gout = Tensor::from_vec(
            y.shape(),
            (0..y.len())
                .map(|i| ((i * 7) % 17) as f32 / 17.0 - 0.5)
                .collect(),
        );
        let fwd = min_ns(30, || {
            std::hint::black_box(conv.forward(std::hint::black_box(&x), true));
        });
        let params = min_ns(30, || {
            conv.backward_params(std::hint::black_box(&gout));
        });
        let bwd = min_ns(30, || {
            std::hint::black_box(conv.backward(std::hint::black_box(&gout)));
        });
        let x1 = Tensor::from_vec(&[1, ic, hw, hw], x.as_slice()[..ic * hw * hw].to_vec());
        let infer = min_ns(30, || {
            std::hint::black_box(conv.forward(std::hint::black_box(&x1), false));
        });
        println!(
            "{label} b{n}: forward(train) {:.3} ms, backward_params {:.3} ms, backward {:.3} ms; \
             b1 forward(infer) {:.1} us",
            fwd / 1e6,
            params / 1e6,
            bwd / 1e6,
            infer / 1e3
        );
    }
}
