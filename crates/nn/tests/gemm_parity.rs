//! Property-based parity: the blocked GEMM kernels against naive references,
//! the SIMD microkernels against the scalar kernel (bitwise — the
//! determinism contract), the int8 kernels against exact integer
//! references, and the layers' GEMM paths against the direct-loop
//! reference kernels.

use mvml_nn::exec::{current, scoped, Exec, Tuning};
use mvml_nn::gemm::{available_kernels, gemm, gemm_nt, gemm_nt_acc, gemm_tn, gemm_tn_acc, Kernel};
use mvml_nn::layer::Layer;
use mvml_nn::layers::{Conv2d, Dense};
use mvml_nn::quant::{dequantize, gemm_i8, quantize, requant_i8, symmetric_scale};
use mvml_nn::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic pseudo-random fill in `[-0.5, 0.5)`: keeps the property
/// tests reproducible independent of the strategy RNG's draw order.
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

/// Runs `f` on microkernel `kernel`, the rest of the context unchanged.
fn on_kernel<R>(kernel: Kernel, f: impl FnOnce() -> R) -> R {
    let base = current();
    scoped(Exec { kernel, ..base }, f)
}

/// Register-tile rows and columns of `mvml_nn::gemm` (8×32): the shape
/// ranges below reach several full tiles and every ragged remainder.
const MR: usize = 8;
const NR: usize = 32;

/// The five GEMM entry points, by the layout they read `A` and `B` in.
#[derive(Clone, Copy, Debug)]
enum Orientation {
    Nn,
    Tn,
    TnAcc,
    Nt,
    NtAcc,
}

impl Orientation {
    const ALL: [Orientation; 5] = [
        Orientation::Nn,
        Orientation::Tn,
        Orientation::TnAcc,
        Orientation::Nt,
        Orientation::NtAcc,
    ];

    /// Runs this entry point on `a`/`b` given as plain `[m, k]`/`[k, n]`,
    /// storing whichever operand it reads transposed as its transpose.
    /// The accumulating variants start from `c0`.
    fn run(self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c0: &[f32]) -> Vec<f32> {
        let transpose = |x: &[f32], rows: usize, cols: usize| {
            let mut t = vec![0.0f32; x.len()];
            for i in 0..rows {
                for j in 0..cols {
                    t[j * rows + i] = x[i * cols + j];
                }
            }
            t
        };
        let mut c = c0.to_vec();
        match self {
            Orientation::Nn => gemm(m, k, n, a, b, &mut c),
            Orientation::Tn => gemm_tn(m, k, n, &transpose(a, m, k), b, &mut c),
            Orientation::TnAcc => gemm_tn_acc(m, k, n, &transpose(a, m, k), b, &mut c),
            Orientation::Nt => gemm_nt(m, k, n, a, &transpose(b, k, n), &mut c),
            Orientation::NtAcc => gemm_nt_acc(m, k, n, a, &transpose(b, k, n), &mut c),
        }
        c
    }

    fn accumulates(self) -> bool {
        matches!(self, Orientation::TnAcc | Orientation::NtAcc)
    }
}

fn naive_gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked GEMM agrees with the naive triple loop across awkward shapes,
    /// including k spanning multiple KC blocks.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn gemm_matches_naive(
        m in 1usize..5 * MR, k in 1usize..320, n in 1usize..3 * NR + 4, salt in 0u64..1_000,
    ) {
        let a = fill(m * k, salt);
        let b = fill(k * n, salt ^ 0xABCD);
        let mut c = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut c);
        let reference = naive_gemm(m, k, n, &a, &b);
        for (got, want) in c.iter().zip(&reference) {
            prop_assert!(
                (got - want).abs() <= 1e-5 * (1.0 + want.abs()),
                "gemm {m}x{k}x{n}: {got} vs {want}"
            );
        }
    }

    /// Every SIMD microkernel this host offers produces *bitwise* the same
    /// f32 output as the scalar kernel — the determinism contract behind
    /// byte-compared artifacts. Adversarial shapes: full and ragged
    /// register tiles (m % MR, n % NR), k spanning multiple KC blocks,
    /// degenerate single-row/column cases.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn simd_kernels_match_scalar_bitwise(
        m in 1usize..5 * MR, k in 1usize..320, n in 1usize..3 * NR + 4, salt in 0u64..1_000,
    ) {
        let a = fill(m * k, salt);
        let b = fill(k * n, salt ^ 0x9C9C);
        let mut reference = vec![0.0f32; m * n];
        on_kernel(Kernel::Scalar, || gemm(m, k, n, &a, &b, &mut reference));
        for kern in available_kernels() {
            let mut c = vec![1.0f32; m * n]; // poisoned: every slot must be overwritten
            on_kernel(kern, || gemm(m, k, n, &a, &b, &mut c));
            for (i, (got, want)) in c.iter().zip(&reference).enumerate() {
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "{} kernel {m}x{k}x{n} at {i}: {got} vs scalar {want}",
                    kern.name()
                );
            }
        }
    }

    /// All five entry points, on the packed and the stream path and at one
    /// and three workers, give every kernel's output bitwise equal to the
    /// scalar kernel's, and stay within rounding of the naive product (on
    /// top of `C`'s old values for the accumulating variants). Shapes reach
    /// several full 8×32 tiles and every ragged row and column remainder.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn every_orientation_and_path_matches_scalar_bitwise(
        m in 1usize..5 * MR,
        k in 1usize..300,
        n in 1usize..3 * NR + 4,
        orientation in 0usize..5,
        stream in 0usize..2,
        threads in 1usize..4,
        salt in 0u64..1_000,
    ) {
        let orientation = Orientation::ALL[orientation];
        let stream = stream == 1;
        let a = fill(m * k, salt);
        let b = fill(k * n, salt ^ 0x4B4B);
        let c0 = if orientation.accumulates() {
            fill(m * n, salt ^ 0x2D2D)
        } else {
            vec![f32::NAN; m * n] // poisoned: every slot must be overwritten
        };
        // The stream path serves row-major B up to `stream_max_rows` rows;
        // 0 sends every shape down the packed path.
        let tuning = Tuning {
            stream_max_rows: if stream { 5 * MR } else { 0 },
            parallel_macs: 0,
            ..Tuning::default()
        };
        let on = |kernel| {
            let exec = Exec { kernel, threads, tuning };
            scoped(exec, || orientation.run(m, k, n, &a, &b, &c0))
        };
        let reference = on(Kernel::Scalar);
        let naive = naive_gemm(m, k, n, &a, &b);
        for (i, (got, want)) in reference.iter().zip(&naive).enumerate() {
            let want = if orientation.accumulates() { want + c0[i] } else { *want };
            prop_assert!(
                (got - want).abs() <= 1e-5 * (1.0 + want.abs()),
                "{orientation:?} {m}x{k}x{n} at {i}: {got} vs naive {want}"
            );
        }
        for kern in available_kernels() {
            let c = on(kern);
            for (i, (got, want)) in c.iter().zip(&reference).enumerate() {
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "{} kernel {orientation:?} {m}x{k}x{n} stream={stream} threads={threads} \
                     at {i}: {got} vs scalar {want}",
                    kern.name()
                );
            }
        }
    }

    /// The int8 GEMM is exact integer arithmetic, so every kernel must
    /// agree exactly with a naive i32 accumulation.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn int8_kernels_match_naive_exactly(
        m in 1usize..12, k in 1usize..80, n in 1usize..40, salt in 0u64..1_000,
    ) {
        let quant8 = |len: usize, s: u64| -> Vec<i8> {
            (0..len)
                .map(|i| {
                    let h = (i as u64).wrapping_add(s).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (h >> 40) as i8
                })
                .collect()
        };
        let a = quant8(m * k, salt);
        let b = quant8(k * n, salt ^ 0x5F5F);
        let mut reference = vec![0i32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc += i32::from(a[i * k + p]) * i32::from(b[p * n + j]);
                }
                reference[i * n + j] = acc;
            }
        }
        for kern in available_kernels() {
            let mut c = vec![i32::MIN; m * n];
            on_kernel(kern, || gemm_i8(m, k, n, &a, &b, &mut c));
            prop_assert!(c == reference, "{} kernel {m}x{k}x{n}", kern.name());
        }
    }

    /// Symmetric int8 quantize→dequantize round-trips within half a
    /// quantization step for in-range values and clips out-of-range values
    /// to the calibrated bound.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn quantize_round_trip_error_is_bounded(
        len in 1usize..512, max_abs in 0.01f32..100.0, salt in 0u64..1_000,
    ) {
        let xs: Vec<f32> = fill(len, salt).iter().map(|v| v * 2.0 * max_abs).collect();
        let scale = symmetric_scale(max_abs);
        let back = dequantize(&quantize(&xs, scale), scale);
        for (&x, &y) in xs.iter().zip(&back) {
            if x.abs() <= max_abs {
                prop_assert!(
                    (x - y).abs() <= scale / 2.0 + 1e-7,
                    "in-range {x} -> {y}, scale {scale}"
                );
            } else {
                // Clipped: the reconstruction saturates at the bound.
                prop_assert!(
                    (y.abs() - 127.0 * scale).abs() <= 1e-5 && y.signum() == x.signum(),
                    "out-of-range {x} -> {y}, bound {}",
                    127.0 * scale
                );
            }
        }
    }

    /// Fused requantization is kernel-independent: the AVX2 path and the
    /// scalar reference agree exactly on rounding (ties-to-even), clamping
    /// and the i32→i8 pack, for any length and clamp range.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn requant_agrees_across_kernels(
        len in 0usize..200, m in 0.0001f32..0.1, bias in -3.0f32..3.0, salt in 0u64..1_000,
    ) {
        let acc: Vec<i32> = (0..len)
            .map(|i| {
                let h = (i as u64).wrapping_add(salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h >> 40) as i32 - (1 << 23)
            })
            .collect();
        let mut reference = vec![0i8; len];
        on_kernel(Kernel::Scalar, || {
            requant_i8(&acc, m, bias, 0, 127, &mut reference)
        });
        for kern in available_kernels() {
            let mut out = vec![-1i8; len];
            on_kernel(kern, || requant_i8(&acc, m, bias, 0, 127, &mut out));
            prop_assert!(out == reference, "{} kernel len {len}", kern.name());
        }
    }

    /// The transposed-operand kernels agree with materialising the
    /// transpose and calling plain GEMM.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn transposed_kernels_match_materialised_transpose(
        m in 1usize..3 * MR, k in 1usize..48, n in 1usize..2 * NR + 4, salt in 0u64..1_000,
    ) {
        // TN: A stored [k, m].
        let a_t = fill(k * m, salt);
        let b = fill(k * n, salt ^ 0x1111);
        let mut a = vec![0.0f32; m * k];
        for p in 0..k {
            for i in 0..m {
                a[i * k + p] = a_t[p * m + i];
            }
        }
        let mut via_tn = vec![0.0f32; m * n];
        gemm_tn(m, k, n, &a_t, &b, &mut via_tn);
        let mut direct = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut direct);
        prop_assert_eq!(&via_tn, &direct);

        // NT: B stored [n, k].
        let b_t = fill(n * k, salt ^ 0x2222);
        let mut b2 = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b2[p * n + j] = b_t[j * k + p];
            }
        }
        let mut via_nt = vec![0.0f32; m * n];
        gemm_nt(m, k, n, &a, &b_t, &mut via_nt);
        let mut direct2 = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b2, &mut direct2);
        prop_assert_eq!(&via_nt, &direct2);
    }

    /// Dense forward stays a plain affine map after the GEMM rewrite.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn dense_matches_naive_affine(
        n in 1usize..8, input in 1usize..24, output in 1usize..12, salt in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(salt);
        let mut layer = Dense::new(input, output, &mut rng);
        let x = Tensor::from_vec(&[n, input], fill(n * input, salt ^ 0x33));
        let y = layer.forward(&x, false);
        let mut weight = vec![0.0f32; input * output];
        weight.copy_from_slice(layer.params()[0].values);
        let mut bias = vec![0.0f32; output];
        bias.copy_from_slice(layer.params()[1].values);
        for i in 0..n {
            for j in 0..output {
                let mut want = bias[j];
                for p in 0..input {
                    want += x.as_slice()[i * input + p] * weight[p * output + j];
                }
                let got = y.as_slice()[i * output + j];
                prop_assert!((got - want).abs() <= 1e-5 * (1.0 + want.abs()), "{got} vs {want}");
            }
        }
    }
}

/// Miri-sized kernel parity: a handful of tiny adversarial shapes through
/// every available f32/int8 kernel and the fused requantizer, checked
/// bitwise/exactly against the scalar reference. Deliberately NOT
/// `#[cfg_attr(miri, ignore)]` — this is the test that walks the unsafe
/// SIMD paths under `MIRI=1` (on hosts where miri's feature detection
/// exposes them; at minimum the dispatch layer and scalar paths run).
#[test]
fn kernel_parity_holds_on_miri_sized_shapes() {
    for (m, k, n) in [(1usize, 1usize, 1usize), (2, 3, 9), (3, 7, 8), (5, 2, 17)] {
        let a = fill(m * k, 11 + (m * k) as u64);
        let b = fill(k * n, 23 + n as u64);
        let mut want_f32 = vec![0.0f32; m * n];
        on_kernel(Kernel::Scalar, || gemm(m, k, n, &a, &b, &mut want_f32));

        let ai: Vec<i8> = (0..m * k).map(|i| (i % 17) as i8 - 8).collect();
        let bi: Vec<i8> = (0..k * n).map(|i| (i % 23) as i8 - 11).collect();
        let mut want_i32 = vec![0i32; m * n];
        on_kernel(Kernel::Scalar, || gemm_i8(m, k, n, &ai, &bi, &mut want_i32));
        let mut want_i8 = vec![0i8; m * n];
        on_kernel(Kernel::Scalar, || {
            requant_i8(&want_i32, 0.015_625, 0.5, 0, 127, &mut want_i8)
        });

        for kern in available_kernels() {
            let mut c = vec![f32::NAN; m * n];
            on_kernel(kern, || gemm(m, k, n, &a, &b, &mut c));
            assert!(
                c.iter()
                    .zip(&want_f32)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "f32 {} kernel diverges on {m}x{k}x{n}",
                kern.name()
            );
            let mut ci = vec![i32::MIN; m * n];
            on_kernel(kern, || gemm_i8(m, k, n, &ai, &bi, &mut ci));
            assert_eq!(ci, want_i32, "i8 {} kernel on {m}x{k}x{n}", kern.name());
            let mut qi = vec![-1i8; m * n];
            on_kernel(kern, || requant_i8(&ci, 0.015_625, 0.5, 0, 127, &mut qi));
            assert_eq!(qi, want_i8, "requant {} kernel on {m}x{k}x{n}", kern.name());
        }
    }
}

/// Numerical gradient check of a convolution on a larger shape.
// Policy: the proptest sweeps above and this 48-shape gradient check take
// minutes under the miri interpreter for no extra UB coverage; the plain
// determinism tests exercise the same kernels under miri.
#[test]
#[cfg_attr(miri, ignore)]
fn gemm_conv_gradients_match_numeric_on_large_shape() {
    let mut rng = StdRng::seed_from_u64(41);
    let mut conv = Conv2d::new(3, 4, 3, 1, &mut rng);
    let x = Tensor::from_vec(&[2, 3, 12, 12], fill(2 * 3 * 144, 97));

    let y = conv.forward(&x, true);
    let gout = Tensor::from_vec(y.shape(), vec![1.0; y.len()]);
    let gx = conv.backward(&gout);

    let eps = 1e-2f32;
    let loss = |c: &mut Conv2d, x: &Tensor| -> f32 { c.forward(x, false).as_slice().iter().sum() };
    for &idx in &[0usize, 13, 57, 100] {
        let base = conv.params()[0].values[idx];
        conv.params()[0].values[idx] = base + eps;
        let lp = loss(&mut conv, &x);
        conv.params()[0].values[idx] = base - eps;
        let lm = loss(&mut conv, &x);
        conv.params()[0].values[idx] = base;
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = conv.params()[0].grads[idx];
        assert!(
            (numeric - analytic).abs() < 0.05 * analytic.abs().max(1.0),
            "w[{idx}]: numeric {numeric} vs analytic {analytic}"
        );
    }
    for &idx in &[5usize, 200, 601] {
        let mut x2 = x.clone();
        let base = x2.as_slice()[idx];
        x2.as_mut_slice()[idx] = base + eps;
        let lp = loss(&mut conv, &x2);
        x2.as_mut_slice()[idx] = base - eps;
        let lm = loss(&mut conv, &x2);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - gx.as_slice()[idx]).abs() < 0.05 * numeric.abs().max(1.0),
            "x[{idx}]: numeric {numeric} vs analytic {}",
            gx.as_slice()[idx]
        );
    }
}
