//! Per-layer symmetric int8 post-training quantization.
//!
//! ## Scheme
//!
//! Both weights and activations use symmetric linear quantization: for a
//! tensor with magnitude bound `M = max|x|`, the scale is `s = M / 127`
//! and `q(x) = round(x / s)` clamped to `[-127, 127]`. Weights are
//! quantized once from their actual range; activation scales are
//! **calibrated** by running representative inputs through the f32 model
//! and recording the magnitude bound entering each layer
//! ([`activation_scales`]) — the same per-input machinery the calibration
//! campaign uses for error sets supplies the inputs.
//!
//! A quantized product accumulates exactly in `i32`
//! ([`gemm_i8`]: `i8×i8→i32`) and dequantizes with one fused scale:
//! `y = acc · (s_w · s_x) + bias`, bias kept in f32. Because integer
//! arithmetic is exact and associative, every [`gemm_i8`] kernel (scalar
//! or AVX2) produces identical results — there is no analogue of the f32
//! kernel's accumulation-order contract to maintain.
//!
//! ## Error model
//!
//! Rounding bounds the representation error at `s/2` per value inside the
//! calibrated range (`|deq(q(x)) − x| ≤ s/2`); values beyond the
//! calibrated bound are clipped to `±127·s`. For one output of a
//! `k`-deep product the accumulated error is bounded by
//! `Σ_p (s_w/2)·|x_p| + (s_x/2)·|w_p| + s_w·s_x/4`, which grows linearly
//! in `k` — small for the shallow perception stacks quantized here. The
//! *observed* end-to-end effect is what matters for reliability: the
//! calibration campaign measures the quantized model's per-input error
//! set and folds the accuracy drop in as a Δp on the module
//! unreliability feeding `core::reliability` (see `bench::calibrate`),
//! so the int8 speed/reliability trade-off shows up in the DSPN numbers
//! instead of being assumed away.
//!
//! [`QuantizedSequential`] mirrors a [`Sequential`]: conv and dense
//! layers run int8, everything else (ReLU, pooling, flatten, residual
//! wrappers) passes through the original f32 implementation.

// One of the crate modules with `unsafe` (see `lib.rs`): the AVX2
// int8 microkernel and its dispatch call.
#![allow(unsafe_code)]

use crate::gemm::Kernel;
use crate::layer::Layer;
use crate::layers::{conv, Conv2d, Dense};
use crate::model::Sequential;
use crate::tensor::Tensor;

/// The symmetric scale for a tensor with magnitude bound `max_abs`:
/// `max_abs / 127`, or `1.0` for an all-zero tensor (any scale represents
/// zeros exactly; `1.0` avoids dividing by zero downstream).
pub fn symmetric_scale(max_abs: f32) -> f32 {
    if max_abs > 0.0 {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// Quantizes `xs` at `scale`: `round(x/scale)` clamped to `[-127, 127]`.
pub fn quantize(xs: &[f32], scale: f32) -> Vec<i8> {
    xs.iter()
        .map(|&x| (x / scale).round().clamp(-127.0, 127.0) as i8)
        .collect()
}

/// Maps quantized values back to f32: `q · scale`.
pub fn dequantize(qs: &[i8], scale: f32) -> Vec<f32> {
    qs.iter().map(|&q| f32::from(q) * scale).collect()
}

fn max_abs(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// `C = A·B` over int8 with exact `i32` accumulation: `A: [m, k]`,
/// `B: [k, n]`, `C: [m, n]`, all row-major. `C` is overwritten.
///
/// Dispatches on the context's kernel ([`crate::exec::current`]): under
/// `Avx2` and `Avx512` the AVX2 kernel pairs `k` steps through
/// `_mm256_madd_epi16`; every other kernel selection runs the scalar loop. All paths produce identical
/// results (integer arithmetic is exact), so kernel choice is a pure
/// performance knob here too.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions, or if
/// `k > 100_000` (the documented overflow-safety bound: worst-case
/// accumulation `k · 127²` must stay inside `i32`).
pub fn gemm_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    assert_eq!(a.len(), m * k, "A must be {m}x{k}");
    assert_eq!(b.len(), k * n, "B must be {k}x{n}");
    assert_eq!(c.len(), m * n, "C must be {m}x{n}");
    assert!(k <= 100_000, "i32 accumulator overflow bound exceeded");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0);
        return;
    }
    match Int8Kernel::of(crate::exec::current().kernel) {
        #[cfg(target_arch = "x86_64")]
        Int8Kernel::Avx2 => {
            // SAFETY: dimensions asserted above; `Int8Kernel::Avx2` implies
            // runtime-detected AVX2, and the kernel overwrites all of `c`.
            unsafe { x86::gemm_i8_avx2(m, k, n, a, b, c) }
        }
        _ => {
            c.fill(0);
            gemm_i8_scalar(m, k, n, a, b, c);
        }
    }
}

/// The int8 kernel that runs under an f32 [`Kernel`] selection. The int8
/// code has one SIMD tier, AVX2; the AVX-512 selection runs it too, since
/// [`crate::gemm::available_kernels`] offers `Avx512` only where AVX2 was
/// detected as well.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Int8Kernel {
    Scalar,
    Avx2,
}

impl Int8Kernel {
    fn of(kernel: Kernel) -> Int8Kernel {
        match kernel {
            Kernel::Avx2 | Kernel::Avx512 if cfg!(target_arch = "x86_64") => Int8Kernel::Avx2,
            _ => Int8Kernel::Scalar,
        }
    }
}

/// Portable reference kernel; the row-of-B inner loop widens to i32 and
/// autovectorizes.
fn gemm_i8_scalar(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    for i in 0..m {
        for p in 0..k {
            let av = i32::from(a[i * k + p]);
            if av == 0 {
                continue;
            }
            let brow = &b[p * n..p * n + n];
            let crow = &mut c[i * n..i * n + n];
            for (acc, &bv) in crow.iter_mut().zip(brow) {
                *acc += av * i32::from(bv);
            }
        }
    }
}

/// Fused requantization: `out[i] = clamp(round_ties_even(acc[i]·m + bias),
/// lo, hi)` — one pass from i32 accumulators to the next layer's int8
/// activations, with bias addition and (via `lo = 0`) ReLU folded in.
///
/// Rounding is half-to-even on every kernel: the scalar path uses
/// [`f32::round_ties_even`] and the AVX2 path `vcvtps2dq` under the
/// default MXCSR rounding mode, so results are kernel-independent here
/// just like [`gemm_i8`].
///
/// # Panics
///
/// Panics if the slice lengths differ or `lo > hi`.
pub fn requant_i8(acc: &[i32], m: f32, bias: f32, lo: i8, hi: i8, out: &mut [i8]) {
    assert_eq!(acc.len(), out.len(), "requant buffers must match");
    assert!(lo <= hi, "empty clamp range");
    match Int8Kernel::of(crate::exec::current().kernel) {
        #[cfg(target_arch = "x86_64")]
        Int8Kernel::Avx2 => {
            // SAFETY: lengths asserted equal above; `Int8Kernel::Avx2` is
            // only selected on hosts where AVX2 was runtime-detected.
            unsafe { x86::requant_i8_avx2(acc, m, bias, lo, hi, out) }
        }
        _ => requant_i8_scalar(acc, m, bias, lo, hi, out),
    }
}

/// Portable requantization kernel.
fn requant_i8_scalar(acc: &[i32], m: f32, bias: f32, lo: i8, hi: i8, out: &mut [i8]) {
    for (q, &a) in out.iter_mut().zip(acc) {
        #[allow(clippy::cast_possible_truncation)]
        {
            *q = (a as f32 * m + bias)
                .round_ties_even()
                .clamp(f32::from(lo), f32::from(hi)) as i8;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 int8 microkernel: `k` steps are consumed in adjacent pairs so
    //! `_mm256_madd_epi16` multiplies two widened i8 products per i32
    //! lane and adds them in one instruction. Exact integer arithmetic —
    //! bitwise-identical to the scalar kernel by construction.

    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// Interleaves two rows of 8 widened i8 values into the
    /// `[lo=row p, hi=row p+1]` i16-pair layout `_mm256_madd_epi16`
    /// expects, using 128-bit unpacks (no lane-crossing shuffles).
    ///
    /// # Safety
    ///
    /// Both pointers must be readable for 8 bytes; the host must support
    /// AVX2.
    // SAFETY: callers in this module load from rows of B whose bounds are
    // asserted by `gemm_i8` before dispatch.
    #[target_feature(enable = "avx2")]
    unsafe fn load_b_pair(p0: *const i8, p1: *const i8) -> __m256i {
        let w0 = _mm_cvtepi8_epi16(_mm_loadl_epi64(p0.cast()));
        let w1 = _mm_cvtepi8_epi16(_mm_loadl_epi64(p1.cast()));
        _mm256_set_m128i(_mm_unpackhi_epi16(w0, w1), _mm_unpacklo_epi16(w0, w1))
    }

    /// Packs two consecutive A values into the matching i16-pair operand:
    /// low half `a0`, high half `a1`, broadcast to all lanes by the
    /// caller.
    fn a_pair(a0: i8, a1: i8) -> i32 {
        (i32::from(a1) << 16) | i32::from(i16::from(a0) as u16)
    }

    /// AVX2 `i8×i8→i32` GEMM: 4-row × 8-column tiles, `k` consumed in
    /// pairs via `madd`, scalar fixup for the ragged column tail.
    ///
    /// `A` is pre-packed once into broadcast-ready i16 pairs (odd `k`
    /// zero-padded), so the hot loop is one broadcast + `madd` + add per
    /// row — without this the scalar pair packing re-runs for every
    /// column group and dominates small-`k` conv shapes. Every element of
    /// `c` is overwritten (callers skip pre-zeroing).
    ///
    /// # Safety
    ///
    /// `a`, `b`, `c` must have exactly `m·k` / `k·n` / `m·n` elements and
    /// the host must support AVX2 (both asserted/checked by `gemm_i8`).
    // SAFETY: contract above; all pointer arithmetic below stays inside
    // those asserted bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_i8_avx2(
        m: usize,
        k: usize,
        n: usize,
        a: &[i8],
        b: &[i8],
        c: &mut [i32],
    ) {
        const MR: usize = 4;
        let full_j = n & !7;
        let k2 = k / 2;
        let pairs_per_row = k.div_ceil(2);
        // Pack every A row into i16-pair words up front.
        let mut pairs = vec![0i32; m * pairs_per_row];
        for i in 0..m {
            let row = &a[i * k..(i + 1) * k];
            let dst = &mut pairs[i * pairs_per_row..(i + 1) * pairs_per_row];
            for t in 0..k2 {
                dst[t] = a_pair(row[2 * t], row[2 * t + 1]);
            }
            if k % 2 == 1 {
                dst[k2] = a_pair(row[k - 1], 0);
            }
        }
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        for i0 in (0..m).step_by(MR) {
            let live = MR.min(m - i0);
            let mut j0 = 0usize;
            while j0 < full_j {
                let mut acc = [_mm256_setzero_si256(); MR];
                for t in 0..k2 {
                    let bv = load_b_pair(bp.add(2 * t * n + j0), bp.add((2 * t + 1) * n + j0));
                    for (r, accr) in acc.iter_mut().enumerate().take(live) {
                        let pair = *pairs.get_unchecked((i0 + r) * pairs_per_row + t);
                        *accr =
                            _mm256_add_epi32(*accr, _mm256_madd_epi16(_mm256_set1_epi32(pair), bv));
                    }
                }
                if k % 2 == 1 {
                    // Odd k tail: pair the last row of B with zeros.
                    let w0 = _mm_cvtepi8_epi16(_mm_loadl_epi64(bp.add((k - 1) * n + j0).cast()));
                    let z = _mm_setzero_si128();
                    let bv = _mm256_set_m128i(_mm_unpackhi_epi16(w0, z), _mm_unpacklo_epi16(w0, z));
                    for (r, accr) in acc.iter_mut().enumerate().take(live) {
                        let pair = *pairs.get_unchecked((i0 + r) * pairs_per_row + k2);
                        *accr =
                            _mm256_add_epi32(*accr, _mm256_madd_epi16(_mm256_set1_epi32(pair), bv));
                    }
                }
                for (r, accr) in acc.iter().enumerate().take(live) {
                    _mm256_storeu_si256(cp.add((i0 + r) * n + j0).cast(), *accr);
                }
                j0 += 8;
            }
            // Ragged column tail: exact scalar.
            for j in full_j..n {
                for r in 0..live {
                    let mut s = 0i32;
                    for p in 0..k {
                        s += i32::from(a[(i0 + r) * k + p]) * i32::from(b[p * n + j]);
                    }
                    c[(i0 + r) * n + j] = s;
                }
            }
        }
    }

    /// AVX2 fused requantization: 32 accumulators per iteration — convert,
    /// scale (separate mul+add, like the scalar two-rounding sequence),
    /// round via `vcvtps2dq` (ties-to-even under default MXCSR), clamp in
    /// i32, then saturating-pack down to i8 with a dword permute to
    /// restore order.
    ///
    /// # Safety
    ///
    /// `acc.len() == out.len()` (asserted by `requant_i8`) and the host
    /// must support AVX2.
    // SAFETY: contract above; pointer arithmetic stays inside the equal
    // asserted lengths.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn requant_i8_avx2(
        acc: &[i32],
        m: f32,
        bias: f32,
        lo: i8,
        hi: i8,
        out: &mut [i8],
    ) {
        let n = acc.len();
        let mv = _mm256_set1_ps(m);
        let bv = _mm256_set1_ps(bias);
        let lov = _mm256_set1_epi32(i32::from(lo));
        let hiv = _mm256_set1_epi32(i32::from(hi));
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let ap = acc.as_ptr();
        let op = out.as_mut_ptr();
        let full = n & !31;
        let mut i = 0usize;
        while i < full {
            let mut q = [_mm256_setzero_si256(); 4];
            for (g, qg) in q.iter_mut().enumerate() {
                let x = _mm256_cvtepi32_ps(_mm256_loadu_si256(ap.add(i + 8 * g).cast()));
                let y = _mm256_add_ps(_mm256_mul_ps(x, mv), bv);
                let r = _mm256_cvtps_epi32(y);
                *qg = _mm256_min_epi32(_mm256_max_epi32(r, lov), hiv);
            }
            // i32 → i16 → i8 saturating packs interleave 128-bit lanes;
            // the dword permute restores source order.
            let p01 = _mm256_packs_epi32(q[0], q[1]);
            let p23 = _mm256_packs_epi32(q[2], q[3]);
            let packed = _mm256_packs_epi16(p01, p23);
            let fixed = _mm256_permutevar8x32_epi32(packed, order);
            _mm256_storeu_si256(op.add(i).cast(), fixed);
            i += 32;
        }
        super::requant_i8_scalar(&acc[full..], m, bias, lo, hi, &mut out[full..]);
    }
}

/// An int8 convolution mirroring one [`Conv2d`]: weights quantized from
/// their actual range, activations quantized at a calibrated scale, exact
/// i32 accumulation, f32 bias and output.
#[derive(Clone, Debug)]
pub struct QConv2d {
    weight_q: Vec<i8>,
    w_scale: f32,
    bias: Vec<f32>,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    padding: usize,
    /// Calibrated activation scale for this layer's input.
    pub x_scale: f32,
}

impl QConv2d {
    /// Quantizes `conv`'s weights; `x_scale` comes from calibration.
    pub fn from_layer(conv: &Conv2d, x_scale: f32) -> Self {
        let w = conv.weight().as_slice();
        let w_scale = symmetric_scale(max_abs(w));
        QConv2d {
            weight_q: quantize(w, w_scale),
            w_scale,
            bias: conv.bias().as_slice().to_vec(),
            in_channels: conv.in_channels(),
            out_channels: conv.out_channels(),
            kernel: conv.kernel_size(),
            padding: conv.padding(),
            x_scale,
        }
    }

    /// Int8 forward: im2col → quantize → [`gemm_i8`] → dequantize + bias.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, C, H, W]` with `C` matching the layer.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let shape = x.shape();
        assert_eq!(shape.len(), 4, "conv expects [N, C, H, W]");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(c, self.in_channels, "conv input channel mismatch");
        let (k, p) = (self.kernel, self.padding);
        let (oh, ow) = (h + 2 * p - k + 1, w + 2 * p - k + 1);
        let (ckk, ohow) = (c * k * k, oh * ow);
        let cols = n * ohow;
        let mut col = Vec::new();
        conv::im2col(x, n, c, h, w, k, p, &mut col);
        let col_q = quantize(&col, self.x_scale);
        let mut acc = vec![0i32; self.out_channels * cols];
        gemm_i8(
            self.out_channels,
            ckk,
            cols,
            &self.weight_q,
            &col_q,
            &mut acc,
        );
        let s = self.w_scale * self.x_scale;
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        let os = out.as_mut_slice();
        for img in 0..n {
            for (oc, &bias) in self.bias.iter().enumerate() {
                let src = &acc[oc * cols + img * ohow..][..ohow];
                let dst = &mut os[(img * self.out_channels + oc) * ohow..][..ohow];
                for (o, &v) in dst.iter_mut().zip(src) {
                    *o = v as f32 * s + bias;
                }
            }
        }
        out
    }
}

/// An int8 dense layer mirroring one [`Dense`] (`y = xW + b`).
#[derive(Clone, Debug)]
pub struct QDense {
    weight_q: Vec<i8>, // [in, out]
    w_scale: f32,
    bias: Vec<f32>,
    in_features: usize,
    out_features: usize,
    /// Calibrated activation scale for this layer's input.
    pub x_scale: f32,
}

impl QDense {
    /// Quantizes `dense`'s weights; `x_scale` comes from calibration.
    pub fn from_layer(dense: &Dense, x_scale: f32) -> Self {
        let w = dense.weight().as_slice();
        let w_scale = symmetric_scale(max_abs(w));
        QDense {
            weight_q: quantize(w, w_scale),
            w_scale,
            bias: dense.bias().as_slice().to_vec(),
            in_features: dense.in_features(),
            out_features: dense.out_features(),
            x_scale,
        }
    }

    /// Int8 forward: quantize `x` → [`gemm_i8`] → dequantize + bias.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, in_features]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let shape = x.shape();
        assert_eq!(shape.len(), 2, "dense expects [N, features]");
        assert_eq!(shape[1], self.in_features, "dense input width mismatch");
        let n = shape[0];
        let x_q = quantize(x.as_slice(), self.x_scale);
        let mut acc = vec![0i32; n * self.out_features];
        gemm_i8(
            n,
            self.in_features,
            self.out_features,
            &x_q,
            &self.weight_q,
            &mut acc,
        );
        let s = self.w_scale * self.x_scale;
        let mut out = Tensor::zeros(&[n, self.out_features]);
        let os = out.as_mut_slice();
        for (row_out, row_acc) in os
            .chunks_exact_mut(self.out_features)
            .zip(acc.chunks_exact(self.out_features))
        {
            for ((o, &v), &bias) in row_out.iter_mut().zip(row_acc).zip(&self.bias) {
                *o = v as f32 * s + bias;
            }
        }
        out
    }
}

/// One position in a quantized stack: int8 conv/dense, or the original
/// f32 layer for everything else.
#[derive(Clone)]
enum QLayer {
    Conv(QConv2d),
    Dense(QDense),
    Pass(Box<dyn Layer>),
}

/// An inference-only int8 mirror of a [`Sequential`]: conv and dense run
/// quantized, all other layers run their original f32 implementation.
#[derive(Clone)]
pub struct QuantizedSequential {
    name: String,
    layers: Vec<QLayer>,
}

/// Runs `inputs` through a clone of `model` and returns the calibrated
/// symmetric scale of the activation **entering** each layer (index
/// aligned with `model.layers()`). Layers that won't be quantized still
/// get a scale (it's just unused).
pub fn activation_scales(model: &Sequential, inputs: &[Tensor]) -> Vec<f32> {
    let mut probe = model.clone();
    let mut max_in = vec![0.0f32; probe.layer_count()];
    for x in inputs {
        let mut cur = x.clone();
        for (slot, layer) in max_in.iter_mut().zip(probe.layers_mut()) {
            *slot = slot.max(cur.max_abs());
            cur = layer.forward(&cur, false);
        }
    }
    max_in.into_iter().map(symmetric_scale).collect()
}

impl QuantizedSequential {
    /// Builds the int8 mirror of `model`, calibrating activation scales
    /// from `calibration` inputs (representative, typically a slice of
    /// the training or calibration set).
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is empty — quantizing without calibration
    /// data would silently fix every activation scale at the
    /// all-zero fallback.
    pub fn quantize(model: &Sequential, calibration: &[Tensor]) -> Self {
        assert!(
            !calibration.is_empty(),
            "activation calibration needs at least one input"
        );
        let scales = activation_scales(model, calibration);
        Self::from_scales(model, &scales)
    }

    /// Builds the mirror from precomputed per-layer input scales —
    /// [`requantize`](Self::requantize) with fresh weights after a
    /// parameter mutation (fault injection, rejuvenation restore) reuses
    /// the original calibration this way.
    ///
    /// # Panics
    ///
    /// Panics if `scales` is shorter than the layer stack.
    pub fn from_scales(model: &Sequential, scales: &[f32]) -> Self {
        assert!(scales.len() >= model.layer_count(), "scale per layer");
        let layers = model
            .layers()
            .iter()
            .zip(scales)
            .map(|(layer, &sx)| {
                if let Some(conv) = layer.as_any().downcast_ref::<Conv2d>() {
                    QLayer::Conv(QConv2d::from_layer(conv, sx))
                } else if let Some(dense) = layer.as_any().downcast_ref::<Dense>() {
                    QLayer::Dense(QDense::from_layer(dense, sx))
                } else {
                    QLayer::Pass(layer.clone_box())
                }
            })
            .collect();
        QuantizedSequential {
            name: format!("{}-int8", model.model_name()),
            layers,
        }
    }

    /// Re-quantizes weights from `model` (which must have the same
    /// architecture) while keeping the existing activation scales — the
    /// cheap path to follow a weight mutation without re-calibrating.
    ///
    /// # Panics
    ///
    /// Panics if `model`'s layer stack doesn't match this one.
    pub fn requantize(&mut self, model: &Sequential) {
        assert_eq!(model.layer_count(), self.layers.len(), "layer count");
        for (slot, layer) in self.layers.iter_mut().zip(model.layers()) {
            match slot {
                QLayer::Conv(q) => {
                    let conv = layer
                        .as_any()
                        .downcast_ref::<Conv2d>()
                        .expect("conv slot must requantize from a conv layer");
                    *q = QConv2d::from_layer(conv, q.x_scale);
                }
                QLayer::Dense(q) => {
                    let dense = layer
                        .as_any()
                        .downcast_ref::<Dense>()
                        .expect("dense slot must requantize from a dense layer");
                    *q = QDense::from_layer(dense, q.x_scale);
                }
                QLayer::Pass(p) => *p = layer.clone_box(),
            }
        }
    }

    /// The model's name (`<original>-int8`).
    pub fn model_name(&self) -> &str {
        &self.name
    }

    /// How many layers run int8 (vs f32 passthrough).
    pub fn quantized_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| !matches!(l, QLayer::Pass(_)))
            .count()
    }

    /// Inference forward pass through the mixed int8/f32 stack.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = match layer {
                QLayer::Conv(q) => q.forward(&cur),
                QLayer::Dense(q) => q.forward(&cur),
                QLayer::Pass(l) => l.forward(&cur, false),
            };
        }
        cur
    }

    /// Argmax class per row of the final `[N, classes]` output — the
    /// quantized counterpart of `Sequential::predict`.
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        let out = self.forward(x);
        let shape = out.shape();
        assert_eq!(shape.len(), 2, "predict expects a [N, classes] head");
        let classes = shape[1];
        out.as_slice()
            .chunks_exact(classes)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{current, scoped, Exec};
    use crate::gemm::available_kernels;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arb_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as i8
            })
            .collect()
    }

    fn naive_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8]) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += i32::from(a[i * k + p]) * i32::from(b[p * n + j]);
                }
            }
        }
        c
    }

    #[test]
    fn gemm_i8_matches_naive_across_kernels() {
        // Shapes hit the int8 kernel's 4×8 tile, row/column remainders, odd k (madd
        // tail), n < 8 (pure scalar tail), and k = 0.
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 6, 8),
            (5, 7, 19),
            (3, 9, 5),
            (13, 41, 23),
            (8, 0, 8),
            (6, 128, 33),
        ] {
            let a = arb_i8(m * k, 100 + m as u64);
            let b = arb_i8(k * n, 200 + n as u64);
            let want = naive_i8(m, k, n, &a, &b);
            let base = current();
            for kernel in available_kernels() {
                let got = scoped(Exec { kernel, ..base }, || {
                    let mut c = vec![-1i32; m * n];
                    gemm_i8(m, k, n, &a, &b, &mut c);
                    c
                });
                assert_eq!(got, want, "kernel {} ({m},{k},{n})", kernel.name());
            }
        }
    }

    #[test]
    fn every_simd_tier_keeps_its_int8_kernel() {
        // The f32 tiers above AVX2 must not fall back to the scalar int8
        // loops, and every selection must agree bit for bit with them.
        let (m, k, n) = (9, 37, 21);
        let a = arb_i8(m * k, 7);
        let b = arb_i8(k * n, 8);
        let base = current();
        let on = |kernel| {
            scoped(Exec { kernel, ..base }, || {
                let mut c = vec![-1i32; m * n];
                gemm_i8(m, k, n, &a, &b, &mut c);
                let mut q = vec![99i8; m * n];
                requant_i8(&c, 0.001, 0.5, 0, 127, &mut q);
                (c, q)
            })
        };
        let scalar = on(Kernel::Scalar);
        for kernel in available_kernels() {
            let want = match kernel {
                Kernel::Avx2 | Kernel::Avx512 => Int8Kernel::Avx2,
                Kernel::Scalar | Kernel::Sse | Kernel::Neon => Int8Kernel::Scalar,
            };
            assert_eq!(Int8Kernel::of(kernel), want, "kernel {}", kernel.name());
            assert_eq!(on(kernel), scalar, "kernel {}", kernel.name());
        }
    }

    #[test]
    fn requant_is_kernel_independent_and_matches_the_reference() {
        // Lengths hit the 32-wide vector body and every remainder class;
        // values hit both clamp edges and exact .5 ties (m = 1/64 with
        // integer accumulators lands ties at acc = 32 + 64t).
        for &len in &[0usize, 1, 31, 32, 33, 64, 97, 1024] {
            let acc: Vec<i32> = (0..len as i32).map(|i| i * 37 - 600).collect();
            for &(m, bias, lo, hi) in &[
                (0.015_625f32, 0.25f32, 0i8, 127i8),
                (0.03f32, -1.5f32, -127, 127),
                (1.0f32, 0.0f32, -5, 5),
            ] {
                let mut want = vec![0i8; len];
                for (q, &a) in want.iter_mut().zip(&acc) {
                    *q = (a as f32 * m + bias)
                        .round_ties_even()
                        .clamp(f32::from(lo), f32::from(hi)) as i8;
                }
                let base = current();
                for kernel in available_kernels() {
                    let got = scoped(Exec { kernel, ..base }, || {
                        let mut out = vec![99i8; len];
                        requant_i8(&acc, m, bias, lo, hi, &mut out);
                        out
                    });
                    assert_eq!(got, want, "kernel {} len {len}", kernel.name());
                }
            }
        }
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_scale() {
        let xs: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 0.013).collect();
        let scale = symmetric_scale(xs.iter().fold(0.0f32, |m, x| m.max(x.abs())));
        let back = dequantize(&quantize(&xs, scale), scale);
        for (&x, &y) in xs.iter().zip(&back) {
            assert!(
                (x - y).abs() <= scale / 2.0 + 1e-6,
                "{x} -> {y} exceeds half-scale bound {}",
                scale / 2.0
            );
        }
    }

    #[test]
    fn out_of_range_values_clip_to_calibrated_bound() {
        let scale = symmetric_scale(1.0);
        let q = quantize(&[5.0, -5.0], scale);
        assert_eq!(q, vec![127, -127]);
    }

    #[test]
    fn qdense_matches_f64_reference_of_dequantized_operands() {
        let mut rng = StdRng::seed_from_u64(42);
        let dense = Dense::new(16, 5, &mut rng);
        let x = Tensor::from_vec(&[3, 16], (0..48).map(|i| (i as f32 / 24.0) - 1.0).collect());
        let x_scale = symmetric_scale(x.max_abs());
        let q = QDense::from_layer(&dense, x_scale);
        let got = q.forward(&x);

        // Reference: exact f64 arithmetic over the dequantized operands.
        let wq = quantize(dense.weight().as_slice(), q.w_scale);
        let xq = quantize(x.as_slice(), x_scale);
        for i in 0..3 {
            for j in 0..5 {
                let mut acc = 0i64;
                for p in 0..16 {
                    acc += i64::from(xq[i * 16 + p]) * i64::from(wq[p * 5 + j]);
                }
                let want = acc as f64 * f64::from(q.w_scale) * f64::from(x_scale)
                    + f64::from(dense.bias().as_slice()[j]);
                let gotv = f64::from(got.as_slice()[i * 5 + j]);
                assert!(
                    (gotv - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "({i},{j}): {gotv} vs {want}"
                );
            }
        }
    }

    #[test]
    fn qconv_output_close_to_f32_conv() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(2, 4, 3, 1, &mut rng);
        let x = Tensor::from_vec(
            &[1, 2, 8, 8],
            (0..128)
                .map(|i| ((i * 37 % 101) as f32 / 50.0) - 1.0)
                .collect(),
        );
        let f32_out = conv.forward(&x, false);
        let q = QConv2d::from_layer(&conv, symmetric_scale(x.max_abs()));
        let q_out = q.forward(&x);
        assert_eq!(q_out.shape(), f32_out.shape());
        // Analytic bound per output: k terms, each contributing at most
        // (s_w/2)·|x| + (s_x/2)·|w| + s_w·s_x/4.
        let k = 2 * 3 * 3;
        let sw = q.w_scale;
        let sx = q.x_scale;
        let wmax = conv.weight().max_abs();
        let bound = k as f32 * (sw / 2.0 * x.max_abs() + sx / 2.0 * wmax + sw * sx / 4.0);
        for (&a, &b) in q_out.as_slice().iter().zip(f32_out.as_slice()) {
            assert!(
                (a - b).abs() <= bound,
                "quant drift {a} vs {b} exceeds analytic bound {bound}"
            );
        }
    }

    #[test]
    fn quantized_sequential_mirrors_lenet_and_requantizes() {
        let mut model = crate::models::lenet_mini(16, 4, 3);
        let calib: Vec<Tensor> = (0..4)
            .map(|s| {
                Tensor::from_vec(
                    &[1, 1, 16, 16],
                    (0..256)
                        .map(|i| (((i * 13 + s * 7) % 64) as f32 / 32.0) - 1.0)
                        .collect(),
                )
            })
            .collect();
        let mut q = QuantizedSequential::quantize(&model, &calib);
        assert!(q.quantized_layer_count() >= 2, "conv + dense must quantize");
        let out = q.forward(&calib[0]);
        assert_eq!(out.shape()[1], 4);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        let f32_out = model.forward(&calib[0], false);
        // Same head shape, finite, and not wildly off the f32 logits.
        let max_ref = f32_out.max_abs().max(1.0);
        for (&a, &b) in out.as_slice().iter().zip(f32_out.as_slice()) {
            assert!(
                (a - b).abs() <= 0.5 * max_ref,
                "logit drift too large: {a} vs {b}"
            );
        }
        // Requantize from mutated weights: output must track the change.
        for p in model.layers_mut()[0].params() {
            if p.name == "weight" {
                for v in p.values.iter_mut() {
                    *v = -*v;
                }
            }
        }
        q.requantize(&model);
        let out2 = q.forward(&calib[0]);
        assert_ne!(out.as_slice(), out2.as_slice());
    }

    #[test]
    fn predict_matches_argmax_of_forward() {
        let model = crate::models::lenet_mini(16, 4, 9);
        let x = Tensor::from_vec(
            &[2, 1, 16, 16],
            (0..512).map(|i| ((i % 29) as f32 / 14.5) - 1.0).collect(),
        );
        let mut q = QuantizedSequential::quantize(&model, std::slice::from_ref(&x));
        let out = q.forward(&x);
        let preds = q.predict(&x);
        for (row, &p) in out.as_slice().chunks_exact(4).zip(&preds) {
            let best = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(best, p);
        }
    }
}
