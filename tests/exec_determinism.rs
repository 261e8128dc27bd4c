//! The nn determinism contract, end to end: a model forward pass and a raw
//! GEMM give bit-identical output under every execution context — any
//! thread count, any microkernel this host supports, any cache-block
//! tuning — and inside a pool job, whose thread budget is a worker share.
//! The conv route thresholds are the exception: they choose between two
//! summation orders, so a forward pass is bit-identical across contexts
//! that share its route and differs between routes.

use resilient_perception::nn::exec::{current, scoped, Exec, Tuning};
use resilient_perception::nn::gemm::{available_kernels, gemm};
use resilient_perception::nn::layer::Layer;
use resilient_perception::nn::models::lenet_mini;
use resilient_perception::nn::parallel::ThreadPool;
use resilient_perception::nn::Tensor;

/// Every combination of threads {1, 2, 4} × available kernels ×
/// {default, tiny-block} tuning. The tiny tuning shrinks the cache blocks
/// to one register tile, disables the stream path, fans every GEMM out
/// over the workers, and routes every convolution through the GEMM.
fn contexts() -> Vec<Exec> {
    let tiny = Tuning {
        mc: 4,
        nc: 8,
        stream_max_rows: 0,
        parallel_macs: 0,
        conv_gemm_min_oc: 0,
        conv_gemm_min_ckk: 0,
        conv_gemm_min_macs: 0,
    };
    let mut all = Vec::new();
    for threads in [1, 2, 4] {
        for kernel in available_kernels() {
            for tuning in [Tuning::default(), tiny] {
                all.push(Exec {
                    threads,
                    kernel,
                    tuning,
                });
            }
        }
    }
    all
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

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

#[test]
fn lenet_forward_is_bit_identical_in_every_context() {
    let (batch, size) = (4, 16);
    let x = Tensor::from_vec(&[batch, 1, size, size], fill(batch * size * size, 7));
    let mut model = lenet_mini(size, 5, 3);
    // The GEMM adds a convolution's bias last and the direct loops first,
    // so the routes agree bit for bit only while every bias is zero, as a
    // fresh model's are; a nonzero bias makes a route change visible.
    for p in model.all_params() {
        if p.name == "bias" {
            p.values.fill(0.3);
        }
    }
    let mut forward = |exec| scoped(exec, || bits(model.forward(&x, false).as_slice()));
    // One reference per route, each taken in an explicit scope: outside
    // one, `current()` may return another test's process-wide scope.
    let base = Exec {
        threads: 1,
        kernel: available_kernels()[0],
        tuning: Tuning::default(),
    };
    let all_gemm = Tuning {
        conv_gemm_min_oc: 0,
        conv_gemm_min_ckk: 0,
        conv_gemm_min_macs: 0,
        ..Tuning::default()
    };
    let default_route = forward(base);
    let gemm_route = forward(Exec {
        tuning: all_gemm,
        ..base
    });
    assert_ne!(
        default_route, gemm_route,
        "the routes sum in the same order"
    );
    for exec in contexts() {
        // Only the tiny tuning of `contexts` routes through the GEMM.
        let reference = if exec.tuning == Tuning::default() {
            &default_route
        } else {
            &gemm_route
        };
        assert_eq!(&forward(exec), reference, "{exec:?}");
    }
}

#[test]
fn gemm_is_bit_identical_in_every_context() {
    // Several KC blocks deep and wide enough for every path to engage.
    let (m, k, n) = (37, 300, 45);
    let a = fill(m * k, 1);
    let b = fill(k * n, 2);
    let run = |exec| {
        scoped(exec, || {
            let mut c = vec![0.0f32; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            bits(&c)
        })
    };
    let reference = run(current());
    for exec in contexts() {
        assert_eq!(run(exec), reference, "{exec:?}");
    }
}

#[test]
fn lenet_forward_inside_a_pool_job_matches_outside() {
    let (batch, size) = (4, 16);
    let x = Tensor::from_vec(&[batch, 1, size, size], fill(batch * size * size, 9));
    let model = lenet_mini(size, 5, 4);
    for exec in contexts() {
        let (outside, inside) = scoped(exec, || {
            let outside = bits(model.clone().forward(&x, false).as_slice());
            let inside = ThreadPool::with_workers(2)
                .map(vec![model.clone(), model.clone()], |mut m| {
                    bits(m.forward(&x, false).as_slice())
                });
            (outside, inside)
        });
        assert_eq!(inside, vec![outside.clone(), outside], "{exec:?}");
    }
}
