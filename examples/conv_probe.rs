//! Per-shape convolution timing, in two tables:
//!
//! 1. direct vs GEMM inference forwards (detector shapes, LeNet-style
//!    training shapes). The `KernelPath::Auto` route thresholds
//!    (`mvml_nn::exec::Tuning`'s `conv_gemm_min_*`) were measured with
//!    this table. The two paths sum in different orders, so the thresholds
//!    change only in source, with the pinned weight hashes re-pinned;
//!    re-run this table to justify such a change.
//! 2. The shapes `Auto` trains on the direct path: the three yolomini
//!    detector layers at batch 16 and the lenet/alexnet stems at batch 32,
//!    under every GEMM/direct kernel this host offers (`Scalar`, `Sse` and
//!    `Avx2` run the direct path's reference loops, `Avx512` its AVX-512
//!    kernels). Per shape and kernel: `forward(train=true)`,
//!    `backward_params` (what a training step runs on a model's first
//!    layer), full `backward`, and the batch-1 `forward(train=false)` of
//!    per-frame inference, each the minimum of 30 samples taken in turn
//!    across the kernels, in ms (µs for batch 1) and GMAC/s (a full
//!    backward counts the weight and input gradients, twice the forward's
//!    MACs).
//!
//! Run with `cargo run --release --example conv_probe`.
// Demo code: aborting on a broken step is the desired behaviour, so
// unwrap/expect are allowed file-wide.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mvml_nn::exec::{self, Exec};
use mvml_nn::gemm::available_kernels;
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

fn time_ns(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
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
    let kernels = available_kernels();
    println!(
        "{:<26} {:>7} {:>16} {:>16} {:>16} {:>16}",
        "shape", "kernel", "fwd(train) ms", "bwd_params ms", "backward ms", "b1 infer us"
    );
    for (label, ic, oc, k, pad, n) in train_shapes {
        let x = Tensor::from_vec(
            &[n, ic, hw, hw],
            (0..n * ic * hw * hw)
                .map(|i| ((i * 13) % 29) as f32 / 29.0 - 0.5)
                .collect(),
        );
        let x1 = Tensor::from_vec(&[1, ic, hw, hw], x.as_slice()[..ic * hw * hw].to_vec());
        let mut rng = StdRng::seed_from_u64(38);
        let mut conv = Conv2d::new(ic, oc, k, pad, &mut rng);
        let y = conv.forward(&x, true);
        let gout = Tensor::from_vec(
            y.shape(),
            (0..y.len())
                .map(|i| ((i * 7) % 17) as f32 / 17.0 - 0.5)
                .collect(),
        );
        let macs = conv.macs(x.shape()) as f64;
        // Per kernel: the minimum of each operation's samples, in ns.
        let mut best = vec![[f64::INFINITY; 4]; kernels.len()];
        for _ in 0..30 {
            for (kernel, best) in kernels.iter().zip(&mut best) {
                exec::scoped(
                    Exec {
                        kernel: *kernel,
                        ..exec::current()
                    },
                    || {
                        let fwd = time_ns(|| {
                            std::hint::black_box(conv.forward(std::hint::black_box(&x), true));
                        });
                        let params = time_ns(|| conv.backward_params(std::hint::black_box(&gout)));
                        let bwd = time_ns(|| {
                            std::hint::black_box(conv.backward(std::hint::black_box(&gout)));
                        });
                        let infer = time_ns(|| {
                            std::hint::black_box(conv.forward(std::hint::black_box(&x1), false));
                        });
                        for (b, t) in best.iter_mut().zip([fwd, params, bwd, infer]) {
                            *b = b.min(t);
                        }
                    },
                );
            }
        }
        let shape = format!("{label} b{n}");
        for (kernel, [fwd, params, bwd, infer]) in kernels.iter().zip(best) {
            let cell =
                |ns: f64, scale: f64, work: f64| format!("{:.3} ({:.1})", ns / scale, work / ns);
            println!(
                "{shape:<26} {:>7} {:>16} {:>16} {:>16} {:>16}",
                kernel.name(),
                cell(fwd, 1e6, macs),
                cell(params, 1e6, macs),
                cell(bwd, 1e6, 2.0 * macs),
                cell(infer, 1e3, macs / n as f64),
            );
        }
    }
    println!("(each cell: time, then GMAC/s in parentheses)");
}
