//! Per-shape convolution timing: the three yolomini detector layers at
//! batch 16, the lenet/alexnet stems and the classifiers' channel-rich
//! layers (alexnet-mini 8→16 at 16² and 16→24 at 8², lenet-mini 6→16 at
//! 14²) at batch 32, each on its training input size, under every kernel
//! this host offers (`Scalar`, `Sse` and `Avx2` run the direct path's
//! reference loops, `Avx512` its AVX-512 kernels). Per shape and kernel:
//! `forward(train=true)`, `backward_params` (what a training step runs on
//! a model's first layer), full `backward`, and the batch-1
//! `forward(train=false)` of per-frame inference, each the minimum of 30
//! samples taken in turn across the kernels, in ms (µs for batch 1) and
//! GMAC/s (a full backward counts the weight and input gradients, twice
//! the forward's MACs). Each output and input gradient's allocation is
//! lent back for the next (`Layer::lend`), as `Sequential` does in
//! training, so the timings are of steady-state steps that refill their
//! buffers.
//!
//! Run with `cargo run --release --example conv_probe`.
// Demo code: aborting on a broken step is the desired behaviour, so
// unwrap/expect are allowed file-wide.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use mvml_nn::exec::{self, Exec};
use mvml_nn::gemm::available_kernels;
use mvml_nn::layers::Conv2d;
use mvml_nn::Layer;
use mvml_nn::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn time_ns(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

fn main() {
    // (label, in, out, kernel, padding, batch, side)
    let mut train_shapes: Vec<(String, usize, usize, usize, usize, usize, usize)> = Vec::new();
    for (name, ch) in [("s", 4), ("m", 6), ("l", 8)] {
        train_shapes.push((format!("yolomini-{name} 1->{ch} k3"), 1, ch, 3, 1, 16, 32));
        train_shapes.push((
            format!("yolomini-{name} {ch}->{ch} k3"),
            ch,
            ch,
            3,
            1,
            16,
            32,
        ));
        train_shapes.push((format!("yolomini-{name} {ch}->1 k1"), ch, 1, 1, 0, 16, 32));
    }
    train_shapes.push(("lenet conv1 1->6 k5".into(), 1, 6, 5, 0, 32, 32));
    train_shapes.push(("lenet conv2 6->16 k3 @14".into(), 6, 16, 3, 0, 32, 14));
    train_shapes.push(("alexnet conv1 1->8 k3".into(), 1, 8, 3, 1, 32, 32));
    train_shapes.push(("alexnet conv2 8->16 k3 @16".into(), 8, 16, 3, 1, 32, 16));
    train_shapes.push(("alexnet conv3 16->24 k3 @8".into(), 16, 24, 3, 1, 32, 8));
    let kernels = available_kernels();
    println!(
        "{:<30} {:>7} {:>16} {:>16} {:>16} {:>16}",
        "shape", "kernel", "fwd(train) ms", "bwd_params ms", "backward ms", "b1 infer us"
    );
    for (label, ic, oc, k, pad, n, hw) in train_shapes {
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
        conv.lend(y.into_vec());
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
                            let y = conv.forward(std::hint::black_box(&x), true);
                            conv.lend(std::hint::black_box(y).into_vec());
                        });
                        let params = time_ns(|| conv.backward_params(std::hint::black_box(&gout)));
                        let bwd = time_ns(|| {
                            let gx = conv.backward(std::hint::black_box(&gout));
                            conv.lend(std::hint::black_box(gx).into_vec());
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
                "{shape:<30} {:>7} {:>16} {:>16} {:>16} {:>16}",
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
