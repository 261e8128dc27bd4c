//! Bitwise parity of the direct convolution kernels: every kernel this
//! host offers against the reference loops, which `Kernel::Scalar` runs,
//! on random shapes (every kernel size, padding, lane-block tail and
//! segment tail) and on inputs with NaN, ±∞, ±0 and zero weights.
//!
//! NaN results compare as one value: Rust leaves the payload of a NaN
//! produced by arithmetic unspecified (an operation on two NaNs may return
//! either one), so only "is NaN" is part of the contract.

use mvml_nn::exec::{current, scoped, Exec};
use mvml_nn::gemm::{available_kernels, Kernel};
use mvml_nn::layer::Layer;
use mvml_nn::layers::{Conv2d, KernelPath, Relu};
use mvml_nn::optim::Sgd;
use mvml_nn::{Sequential, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `f` on `kernel` with one thread, the rest of the context unchanged.
fn on_kernel<R>(kernel: Kernel, f: impl FnOnce() -> R) -> R {
    scoped(
        Exec {
            kernel,
            threads: 1,
            ..current()
        },
        f,
    )
}

/// Bits with every NaN folded into one value (see the module docs).
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|f| if f.is_nan() { u32::MAX } else { f.to_bits() })
        .collect()
}

/// Values in `[-2, 2)` with a `special` share of NaN, ±∞ and ±0.
fn values(rng: &mut StdRng, len: usize, special: f64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.random::<f64>() < special {
                [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0][rng.random_range(0..5usize)]
            } else {
                rng.random::<f32>() * 4.0 - 2.0
            }
        })
        .collect()
}

/// What one kernel produces for a layer: the training forward, the
/// parameter gradients after `backward_params`, then the input gradient
/// and the parameter gradients after a second forward and a full
/// `backward` (which accumulate onto the first).
fn run(conv: &Conv2d, x: &Tensor, dy: &Tensor) -> Vec<Vec<u32>> {
    let mut conv = conv.clone();
    let grads = |conv: &mut Conv2d| -> Vec<Vec<u32>> {
        conv.params().iter().map(|p| bits(p.grads)).collect()
    };
    let mut out = vec![bits(conv.forward(x, true).as_slice())];
    conv.backward_params(dy);
    out.extend(grads(&mut conv));
    out.push(bits(conv.forward(x, true).as_slice()));
    out.push(bits(conv.backward(dy).as_slice()));
    out.extend(grads(&mut conv));
    out.push(bits(conv.forward(&x.clone(), false).as_slice()));
    out
}

#[test]
fn direct_kernels_match_the_reference_loops_bitwise() {
    const PARTS: [&str; 8] = [
        "forward(train)",
        "grad_w after backward_params",
        "grad_b after backward_params",
        "second forward(train)",
        "input gradient",
        "grad_w after backward",
        "grad_b after backward",
        "forward(infer)",
    ];
    let kernels = available_kernels();
    let mut rng = StdRng::seed_from_u64(0xC04E);
    let mut cases = 0;
    while cases < 300 {
        let k = [1, 3, 5][rng.random_range(0..3usize)];
        let p = rng.random_range(0..3usize);
        let (c, oc, n) = (
            rng.random_range(1..10usize),
            rng.random_range(1..10usize),
            rng.random_range(1..18usize),
        );
        // Widths off every lane multiple, plus a few on them.
        let mut side = || loop {
            let s = rng.random_range(1..40usize);
            if s % 8 != 0 || rng.random::<f64>() < 0.2 {
                break s;
            }
        };
        let (h, w) = (side(), side());
        if h + 2 * p < k || w + 2 * p < k {
            continue;
        }
        let (oh, ow) = (h + 2 * p - k + 1, w + 2 * p - k + 1);
        if n * c * oc * k * k * oh * ow > 600_000 {
            continue;
        }
        cases += 1;
        let mut conv = Conv2d::new(c, oc, k, p, &mut StdRng::seed_from_u64(cases));
        conv.set_kernel_path(KernelPath::Direct);
        {
            let mut params = conv.params();
            // Zero weights (skipped by the forward), and a non-finite one
            // now and then (the input gradient's masked lanes must keep it
            // away from the border).
            let weights = values(&mut rng, params[0].values.len(), 0.1);
            let weights = weights.iter().map(|&v| if v.is_nan() { 0.0 } else { v });
            params[0]
                .values
                .iter_mut()
                .zip(weights)
                .for_each(|(d, v)| *d = v);
            let bias = values(&mut rng, oc, 0.0);
            params[1].values.copy_from_slice(&bias);
        }
        let x = Tensor::from_vec(&[n, c, h, w], values(&mut rng, n * c * h * w, 0.04));
        let dy = Tensor::from_vec(&[n, oc, oh, ow], values(&mut rng, n * oc * oh * ow, 0.02));
        let want = on_kernel(Kernel::Scalar, || run(&conv, &x, &dy));
        for &kernel in &kernels {
            let got = on_kernel(kernel, || run(&conv, &x, &dy));
            for ((part, g), r) in PARTS.iter().zip(&got).zip(&want) {
                assert!(
                    g == r,
                    "{} differs from the reference loops: {part}, {c}->{oc} k{k} p{p} \
                     {h}x{w} batch {n}",
                    kernel.name()
                );
            }
        }
    }
}

/// A yolo-mini-shaped stack (`conv 1→C, relu, conv C→C, relu, conv C→1`
/// on the direct path) trained for a few SGD steps.
fn trained_stack(channels: usize, steps: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(channels as u64);
    let mut m = Sequential::new("stack");
    for (i, o, k, p) in [
        (1, channels, 3, 1),
        (channels, channels, 3, 1),
        (channels, 1, 1, 0),
    ] {
        let mut conv = Conv2d::new(i, o, k, p, &mut rng);
        conv.set_kernel_path(KernelPath::Direct);
        m.push(conv);
        if o > 1 {
            m.push(Relu::new());
        }
    }
    let mut opt = Sgd::new(0.05).with_momentum(0.9);
    for step in 0..steps {
        // Batches of 17 and 16: a full lane block and a one-image tail.
        let n = 16 + step % 2;
        let x = Tensor::from_vec(&[n, 1, 20, 20], values(&mut rng, n * 400, 0.0));
        let y = m.forward(&x, true);
        let grad = Tensor::from_vec(y.shape(), y.as_slice().iter().map(|v| v * 0.01).collect());
        m.backward_params(&grad);
        opt.step(&mut m);
    }
    let snap = m.snapshot();
    snap.layers
        .iter()
        .flatten()
        .flat_map(|(_, v)| bits(v))
        .collect()
}

#[test]
fn trained_stacks_are_bitwise_the_same_under_every_kernel() {
    for channels in [4, 6, 8] {
        let want = on_kernel(Kernel::Scalar, || trained_stack(channels, 6));
        for kernel in available_kernels() {
            assert_eq!(
                on_kernel(kernel, || trained_stack(channels, 6)),
                want,
                "{} trains another stack ({channels} channels)",
                kernel.name()
            );
        }
    }
}
