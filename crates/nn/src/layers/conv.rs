//! 2-D convolution (stride 1, symmetric zero padding).
//!
//! Every layer, in training and in inference, runs the direct loops over a
//! zero-padded input. Three kernels:
//!
//! - the forward ([`forward_rows`]) and the input gradient
//!   ([`input_grad_rows`]) keep a block of `ROWS` output rows × a segment
//!   of up to `SEG` lanes in registers while they walk every tap, so each
//!   output value is read and written once, not once per tap. Segments
//!   cover any width; the last one may be partial, its spare lanes
//!   computed on padding and dropped;
//! - the weight and bias gradients run the sums of up to 16 images side by
//!   side as SIMD lanes ([`weight_grad_block`]).
//!
//! These loops are the reference every GEMM kernel but one runs. When the
//! execution context's kernel is [`crate::gemm::Kernel::Avx512`], as in
//! `nn::gemm`, each loop nest runs one hand-written AVX-512F kernel
//! instead ([`avx512`]): the forward and the input gradient share a
//! row-block kernel that keeps up to four channels' blocks in registers,
//! so each input load serves all of them (two rows to a vector on planes
//! at most 8 wide); a full 16-image lane block of
//! the weight gradient is one zmm register per chain, the `K·K` taps of an
//! input row advancing together; and the image-minor lowering goes through
//! 16×16 register transposes. The lane buffers start on 64-byte
//! boundaries, so no lane load straddles two cache lines.
//!
//! Each output element sums its terms in one fixed order, so the layer is
//! bitwise deterministic for any thread count and SIMD width, and the
//! AVX-512 kernels keep the reference loops' orders, separate multiply and
//! add (never FMA), skipped zero-weight taps and masked lanes, so every
//! kernel computes the same bits. The orders:
//!
//! - forward: `y = bias`, then `+ w·x` over `(ic, ky, kx)`, zero weights
//!   skipped (padding is read as `x = 0`);
//! - `grad_b[oc]`: per image in order, that image's `dy` plane summed in
//!   row-major order from the neutral element of `f32`'s `Sum`;
//! - `grad_w[oc, ic, ky, kx]`: per image in order, `+ (((0 + g₀x₀) + g₁x₁)
//!   + …)` over `(oy, ox)` in row-major order;
//! - input gradient: per element, `+0.0 + g·w` over `(oc, ky, kx)`; a tap
//!   that lands outside the output image contributes nothing (a lane
//!   select skips it, so a non-finite weight never meets a border zero).
//!
//! A training step that needs no input gradient (the first layer of a
//! stack) calls [`Layer::backward_params`], which runs only the parameter
//! half of the backward. A training step refills the previous step's
//! image-minor input cache, and writes its output or input gradient into
//! an allocation lent through [`Layer::lend`] when it has one.
//!
//! The gradients are verified against numerical differentiation, and
//! `tests/conv_oracle.rs` compares every result with an im2col + GEMM
//! oracle within a derived reassociation bound. The int8 path
//! ([`crate::quant`]) still lowers to [`im2col`].

use crate::init::he_normal;
use crate::layer::{refill, Layer, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// What `forward(train=true)` stashes for the backward pass: the
/// zero-padded input in image-minor blocks, the layout the weight-gradient
/// lanes read (see [`image_minor`]), from `xt[start..]`, and the input's
/// batch and spatial dims. Backward never re-pads, and the layer holds no
/// other copy of `x`.
#[derive(Clone, Debug)]
struct ConvCache {
    xt: Vec<f32>,
    start: usize,
    n: usize,
    h: usize,
    w: usize,
}

/// Images per lane block of the direct backward: the weight-gradient
/// chains of `LANES` images run side by side in one `[f32; LANES]`
/// accumulator.
const LANES: usize = 16;

/// Lanes of the block whose first image is `rest` images from the end of
/// the batch: `LANES` for a full block, else the smallest power of two that
/// holds the rest. A chain's cost is its length more than its width, so a
/// narrow tail block (a batch of 1, or 17) wastes no full block on spare
/// lanes.
fn block_width(rest: usize) -> usize {
    rest.min(LANES).next_power_of_two()
}

/// Rows per register block of [`forward_rows`] and [`input_grad_rows`].
const ROWS: usize = 2;

/// Widest lane segment of [`forward_rows`] and [`input_grad_rows`].
const SEG: usize = 32;

/// Lane segment for planes `width` values wide: the narrowest of 8, 16 and
/// `SEG` that holds the row, so narrow planes waste few spare lanes.
fn seg_width(width: usize) -> usize {
    width.next_power_of_two().clamp(8, SEG)
}

#[cfg(target_arch = "x86_64")]
mod avx512;

/// The direct path's kernels for this call: the AVX-512 kernels
/// ([`avx512`]) when the execution context runs
/// [`crate::gemm::Kernel::Avx512`], else `None`, the reference loops of
/// this module (which every other kernel runs).
#[cfg(target_arch = "x86_64")]
type Simd = Option<avx512::Avx512>;
#[cfg(not(target_arch = "x86_64"))]
type Simd = Option<std::convert::Infallible>;

fn simd() -> Simd {
    #[cfg(target_arch = "x86_64")]
    let simd = avx512::Avx512::get();
    #[cfg(not(target_arch = "x86_64"))]
    let simd = None;
    simd
}

/// Lane segment per register block of the forward and input-gradient
/// kernels over planes `width` values wide.
fn segment(simd: Simd, width: usize) -> usize {
    match simd {
        #[cfg(target_arch = "x86_64")]
        Some(_) => avx512::Avx512::segment(width),
        _ => seg_width(width),
    }
}

/// Signature of [`forward_rows`] at every segment width.
type ForwardFn = fn(&[f32], &[(usize, f32)], &[usize], &[f32], usize, [usize; 2], &mut PlaneSink);

/// Signature of [`input_grad_rows`] at every segment width.
type InputGradFn = fn(
    &[f32],
    &[(usize, f32, usize, usize)],
    &[u32],
    [usize; 4],
    [usize; 2],
    [usize; 2],
    &mut PlaneSink,
);

thread_local! {
    /// The workspace of the direct backward: the image-minor `dy`
    /// block of the weight gradient, then the bordered `dy` window of the
    /// input gradient. Reused across calls and layers on this thread rather
    /// than allocated per call. Every element read was written in the same
    /// call.
    static DY_BLOCK: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// A 2-D convolution over `[N, C, H, W]` inputs with stride 1 and symmetric
/// zero padding.
#[derive(Clone, Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    padding: usize,
    weight: Tensor, // [OC, IC, K, K]
    bias: Tensor,   // [OC]
    // Gradient accumulators: empty outside training (see
    // `Layer::release_training_state`).
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    cache: Option<ConvCache>,
    // An allocation lent through `Layer::lend`, for the next output or
    // input gradient to refill.
    lent: Vec<f32>,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal weights and zero bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        padding: usize,
        rng: &mut StdRng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let n = out_channels * fan_in;
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            padding,
            weight: Tensor::from_vec(
                &[out_channels, in_channels, kernel, kernel],
                he_normal(rng, fan_in, n),
            ),
            bias: Tensor::zeros(&[out_channels]),
            grad_w: Vec::new(),
            grad_b: Vec::new(),
            cache: None,
            lent: Vec::new(),
        }
    }

    /// Input channel count `C`.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count `OC`.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Square kernel side `K`.
    pub fn kernel_size(&self) -> usize {
        self.kernel
    }

    /// Symmetric zero padding `P`.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// The weight tensor, `[OC, IC, K, K]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias tensor, `[OC]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            h + 2 * self.padding - self.kernel + 1,
            w + 2 * self.padding - self.kernel + 1,
        )
    }

    /// Direct forward: per image, pads the input planes, with the spare
    /// rows and lanes that the last row block and segment read past the
    /// image, and runs [`forward_rows`] or its AVX-512 kernel (summation
    /// order in the module docs), appending to the lent allocation.
    fn forward_direct(&mut self, x: &Tensor, [n, c, h, w]: [usize; 4]) -> Tensor {
        let (oh, ow) = self.out_hw(h, w);
        let (oc_n, k, p) = (self.out_channels, self.kernel, self.padding);
        let simd = simd();
        let seg = segment(simd, ow);
        let ph = oh.next_multiple_of(ROWS) + k - 1;
        let pw = ow.next_multiple_of(seg) + k - 1;
        let (weights, bias) = (self.weight.as_slice(), self.bias.as_slice());
        let len = n * oc_n * oh * ow;
        // One image at a time, padded into a reused buffer whose borders
        // stay zero, unless the image is its own padded planes (no
        // padding, spare rows or spare lanes).
        let in_place = (ph, pw) == (h, w);
        let mut xpad = vec![0.0f32; if in_place { 0 } else { c * ph * pw }];
        let images = x.as_slice().chunks_exact(c * h * w);
        let out = match simd {
            #[cfg(target_arch = "x86_64")]
            Some(avx) => {
                let taps = avx.forward_taps(weights, [oc_n, c, k], [ph, pw]);
                let mut out = refill(&mut self.lent, len);
                for xi in images {
                    avx.rows(
                        padded(xi, in_place, [h, w], p, [ph, pw], &mut xpad),
                        &taps,
                        bias,
                        &[],
                        [k, p, oh],
                        [pw, 0],
                        [oh, ow],
                        &mut out,
                    );
                }
                out
            }
            _ => {
                // The non-zero taps of each output channel in `(ic, ky,
                // kx)` order, as offsets into an image's padded planes;
                // `ends[oc]` closes channel `oc`'s run.
                let ckk = c * k * k;
                let mut taps = Vec::with_capacity(oc_n * ckk);
                let mut ends = Vec::with_capacity(oc_n);
                for wo in weights.chunks_exact(ckk) {
                    for (t, &wv) in wo.iter().enumerate() {
                        if wv != 0.0 {
                            let (ic, ky, kx) = (t / (k * k), t / k % k, t % k);
                            taps.push(((ic * ph + ky) * pw + kx, wv));
                        }
                    }
                    ends.push(taps.len());
                }
                let kernel: ForwardFn = match seg {
                    8 => forward_rows::<8>,
                    16 => forward_rows::<16>,
                    _ => forward_rows::<SEG>,
                };
                let mut sink = PlaneSink::new(refill(&mut self.lent, len), ow);
                for xi in images {
                    let src = padded(xi, in_place, [h, w], p, [ph, pw], &mut xpad);
                    kernel(src, &taps, &ends, bias, pw, [oh, ow], &mut sink);
                }
                sink.out
            }
        };
        Tensor::from_vec(&[n, oc_n, oh, ow], out)
    }

    /// Direct parameter gradients against the cached image-minor padded
    /// input `xt`, in the summation orders of the module docs — the orders
    /// of the fused loop this kernel replaced, so its results are
    /// bit-identical. The `grad_w` and `grad_b` chains of the images of a
    /// lane block are independent, so they run as the lanes of `[f32; W]`
    /// accumulators (separate multiply and add, never fused) over `dy`
    /// regrouped image-minor into `ws`, then land in the gradients in image
    /// order (see [`weight_grad_block`]). Blocks hold `LANES` images except
    /// the last, which is [`block_width`] wide; its spare lanes compute on
    /// zeros and are dropped.
    fn param_grads_direct(
        &mut self,
        gs: &[f32],
        xt: &[f32],
        [n, h, w]: [usize; 3],
        ws: &mut Vec<f32>,
    ) {
        let (oc_n, c, k, p) = (
            self.out_channels,
            self.in_channels,
            self.kernel,
            self.padding,
        );
        let (oh, ow) = self.out_hw(h, w);
        let ohow = oh * ow;
        let (ph, pw) = (h + 2 * p, w + 2 * p);
        let gw = &mut self.grad_w;
        let gb = &mut self.grad_b;
        // `to_lanes` writes every value of the block it fills.
        let start = lane_buffer(ws, oc_n * ohow * LANES, false);
        let ws = &mut ws[start..];
        let xplane = c * ph * pw;
        let simd = simd();
        for b0 in (0..n).step_by(LANES) {
            let width = block_width(n - b0);
            let dyt = &mut ws[..oc_n * ohow * width];
            to_lanes(gs, oc_n * ohow, 0, [n, b0, width], dyt, simd);
            let xb = &xt[b0 * xplane..][..width * xplane];
            match simd {
                #[cfg(target_arch = "x86_64")]
                Some(avx) if width == LANES => {
                    let valid = (n - b0).min(width);
                    avx.weight_grad_block(dyt, xb, valid, [c, k], [ph, pw, oh, ow], gw, gb);
                    continue;
                }
                _ => {}
            }
            let block: BlockFn = match width {
                1 => weight_grad_block::<1>,
                2 => weight_grad_block::<2>,
                4 => weight_grad_block::<4>,
                8 => weight_grad_block::<8>,
                _ => weight_grad_block::<LANES>,
            };
            block(
                dyt,
                xb,
                (n - b0).min(width),
                [c, k],
                [ph, pw, oh, ow],
                gw,
                gb,
            );
        }
    }

    /// Direct input gradient: [`input_grad_rows`] or its AVX-512 kernel
    /// per image, reading that image's `dy` through a window in which
    /// input `(y, x)` and tap `(ky, kx)` find their term at row
    /// `y + K-1-ky`, column `x + K-1-kx`. When every read of the row blocks
    /// and segments lands inside `dy` (`P ≥ K-1` and no spare rows or
    /// lanes) the window is `dy` itself; otherwise each image's `dy` is
    /// copied into a zero-bordered window in `ws` ([`dy_window`]).
    fn input_grad_direct(
        &mut self,
        gs: &[f32],
        [n, h, w]: [usize; 3],
        ws: &mut Vec<f32>,
    ) -> Tensor {
        let (oc_n, c, k, p) = (
            self.out_channels,
            self.in_channels,
            self.kernel,
            self.padding,
        );
        let (oh, ow) = self.out_hw(h, w);
        let simd = simd();
        let seg = segment(simd, w);
        let (h2, w2) = (h.next_multiple_of(ROWS), w.next_multiple_of(seg));
        let in_place = p + 1 >= k && h2 == h && w2 == w;
        // Window plane stride, row stride, and the offset of window (0, 0):
        // in place, window row `r` is dy row `r + P-(K-1)`, and likewise
        // for columns.
        let (splane, srow, origin) = if in_place {
            (oh * ow, ow, (p + 1 - k) * (ow + 1))
        } else {
            let (sh, sw) = (h2 + k - 1, w2 + k - 1);
            ws.clear();
            ws.resize(oc_n * sh * sw, 0.0);
            (sh * sw, sw, 0)
        };
        // Whether lane `x` of tap column `kx` lands inside the output's
        // columns (`0 ≤ x + P - kx < OW`).
        let inside = |x: usize, kx: usize| (x + p).wrapping_sub(kx) < ow;
        let wts = self.weight.as_slice();
        let dys = gs.chunks_exact(oc_n * oh * ow);
        let out = match simd {
            #[cfg(target_arch = "x86_64")]
            Some(avx) => {
                // Per 16-lane vector and `kx`, one bit per lane inside. No
                // lane needs the select when every tap of a real input
                // position lands inside the output (`P ≥ K-1`), nor when
                // every weight is finite: a tap outside then adds `w·0 =
                // ±0` to a sum that starts at `+0.0`, which never becomes
                // `-0.0`, so the sum keeps its bits.
                let select = p + 1 < k && !wts.iter().all(|w| w.is_finite());
                let mut bits = Vec::new();
                for v0 in (0..w2).step_by(16).filter(|_| select) {
                    for kx in 0..k {
                        bits.push(
                            (0..16).fold(0u16, |m, l| m | u16::from(inside(v0 + l, kx)) << l),
                        );
                    }
                }
                let taps = avx.input_grad_taps(wts, [oc_n, c, k], [splane, srow]);
                let zeros = vec![0.0; c];
                let mut out = refill(&mut self.lent, n * c * h * w);
                for dy in dys {
                    let src = dy_window(dy, in_place, [k, p, oh, ow], [splane, srow], ws);
                    let (dims, window) = ([k, p, oh], [srow, origin]);
                    avx.rows(src, &taps, &zeros, &bits, dims, window, [h, w], &mut out);
                }
                out
            }
            _ => {
                // Per input channel, its taps in `(oc, ky, kx)` order as
                // (window offset, weight, ky, kx).
                let mut taps = Vec::with_capacity(c * oc_n * k * k);
                for ic in 0..c {
                    for oc in 0..oc_n {
                        for (t, &wv) in wts[(oc * c + ic) * k * k..][..k * k].iter().enumerate() {
                            let (ky, kx) = (t / k, t % k);
                            let off = oc * splane + (k - 1 - ky) * srow + (k - 1 - kx);
                            taps.push((off, wv, ky, kx));
                        }
                    }
                }
                // Per segment and `kx`, all-ones lanes inside, zero outside.
                let mut masks = Vec::with_capacity(w2 * k);
                for x0 in (0..w).step_by(seg) {
                    for kx in 0..k {
                        masks.extend((x0..x0 + seg).map(|x| u32::MAX * u32::from(inside(x, kx))));
                    }
                }
                // With `P ≥ K-1` every tap of a real input position lands
                // inside the output, so no lane needs the select.
                let kernel: InputGradFn = match (seg, p + 1 >= k) {
                    (8, false) => input_grad_rows::<8, true>,
                    (16, false) => input_grad_rows::<16, true>,
                    (_, false) => input_grad_rows::<SEG, true>,
                    (8, true) => input_grad_rows::<8, false>,
                    (16, true) => input_grad_rows::<16, false>,
                    (_, true) => input_grad_rows::<SEG, false>,
                };
                let mut sink = PlaneSink::new(refill(&mut self.lent, n * c * h * w), w);
                for dy in dys {
                    let src = dy_window(dy, in_place, [k, p, oh, ow], [splane, srow], ws);
                    let (dims, window) = ([k, p, oh, oc_n], [srow, origin]);
                    kernel(src, &taps, &masks, dims, window, [h, w], &mut sink);
                }
                sink.out
            }
        };
        Tensor::from_vec(&[n, c, h, w], out)
    }

    /// The backward shared by [`Layer::backward`] and
    /// [`Layer::backward_params`]: parameter gradients always, the input
    /// gradient only when `input_grad` asks for it.
    fn backward_impl(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        let cache = self
            .cache
            .take()
            .expect("backward before forward(train=true)");
        let [gn, goc, _, _]: [usize; 4] = grad_out.shape().try_into().expect("grad shape");
        assert_eq!(goc, self.out_channels);
        assert_eq!(gn, cache.n);
        let dims = [cache.n, cache.h, cache.w];
        let gs = grad_out.as_slice();
        let mut ws = DY_BLOCK.take();
        self.param_grads_direct(gs, &cache.xt[cache.start..], dims, &mut ws);
        let grad_in = input_grad.then(|| self.input_grad_direct(gs, dims, &mut ws));
        DY_BLOCK.set(ws);
        // Restore the cache so repeated backward calls (as the numeric
        // gradient tests do) keep working, matching the old behaviour of
        // retaining the cached input.
        self.cache = Some(cache);
        grad_in
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let [n, c, h, w]: [usize; 4] = x.shape().try_into().expect("conv2d expects [N,C,H,W]");
        assert_eq!(c, self.in_channels, "conv2d channel mismatch");
        let (oh, ow) = self.out_hw(h, w);
        assert!(oh > 0 && ow > 0, "conv2d output collapsed to zero size");
        let out = self.forward_direct(x, [n, c, h, w]);
        if train {
            if self.grad_w.is_empty() {
                self.grad_w = vec![0.0; self.weight.len()];
                self.grad_b = vec![0.0; self.out_channels];
            }
            // Only the weight gradient reads the input back, in lanes:
            // cache it in that layout, refilling the previous step's
            // cache.
            let stale = self.cache.take().map_or_else(Vec::new, |c| c.xt);
            let (xt, start) = image_minor(x, [n, c, h, w], self.padding, stale, simd());
            self.cache = Some(ConvCache { xt, start, n, h, w });
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_impl(grad_out, true)
            .expect("input gradient requested")
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward_impl(grad_out, false);
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param {
                name: "weight",
                values: self.weight.as_mut_slice(),
                grads: &mut self.grad_w,
            },
            Param {
                name: "bias",
                values: self.bias.as_mut_slice(),
                grads: &mut self.grad_b,
            },
        ]
    }

    fn lend(&mut self, buffer: Vec<f32>) {
        self.lent = buffer;
    }

    fn release_training_state(&mut self) {
        self.cache = None;
        self.grad_w = Vec::new();
        self.grad_b = Vec::new();
        self.lent = Vec::new();
    }

    fn param_len(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel + self.out_channels
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let (oh, ow) = self.out_hw(input[2], input[3]);
        vec![input[0], self.out_channels, oh, ow]
    }

    fn macs(&self, input: &[usize]) -> u64 {
        let (oh, ow) = self.out_hw(input[2], input[3]);
        (input[0] * self.out_channels * oh * ow * self.in_channels * self.kernel * self.kernel)
            as u64
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Copies `x` (`[N, C, H, W]`) into a zero-padded buffer
/// `[N, C, H+2p, W+2p]`, so convolution loops need no bounds checks and
/// vectorise. Shared by the f32 layer and the int8 path
/// ([`crate::quant`]).
pub(crate) fn pad_input(x: &Tensor, n: usize, c: usize, h: usize, w: usize, p: usize) -> Vec<f32> {
    let (ph, pw) = (h + 2 * p, w + 2 * p);
    let mut out = vec![0.0f32; n * c * ph * pw];
    pad_planes(x.as_slice(), [h, w], p, [ph, pw], &mut out);
    out
}

/// The `dy` window of one image for the direct input gradient (see
/// [`Conv2d::input_grad_direct`]): `dy` itself when `in_place`, else `dy`
/// copied into the zero-bordered window `ws` (plane stride `splane`, row
/// stride `srow`), where dy `(oy, ox)` sits at `(oy + K-1-P, ox + K-1-P)`;
/// rows and columns that fall outside the window are never read for a
/// real input position.
fn dy_window<'a>(
    dy: &'a [f32],
    in_place: bool,
    [k, p, oh, ow]: [usize; 4],
    [splane, srow]: [usize; 2],
    ws: &'a mut [f32],
) -> &'a [f32] {
    if in_place {
        return dy;
    }
    let shift = (k - 1) as isize - p as isize;
    let cols = ow.min((srow as isize - shift) as usize);
    let (ox0, dst_col) = if shift < 0 {
        ((-shift) as usize, 0)
    } else {
        (0, shift as usize)
    };
    for (oc, plane) in dy.chunks_exact(oh * ow).enumerate() {
        for (oy, grow) in plane.chunks_exact(ow).enumerate() {
            let r = oy as isize + shift;
            if r < 0 || r as usize >= splane / srow {
                continue;
            }
            let run = &grow[ox0..cols.max(ox0)];
            ws[oc * splane + r as usize * srow + dst_col..][..run.len()].copy_from_slice(run);
        }
    }
    ws
}

/// One image's padded planes for the direct forward: the image itself
/// when `in_place`, else `x` padded into `xpad` ([`pad_planes`]).
fn padded<'a>(
    x: &'a [f32],
    in_place: bool,
    hw: [usize; 2],
    p: usize,
    phw: [usize; 2],
    xpad: &'a mut [f32],
) -> &'a [f32] {
    if in_place {
        return x;
    }
    pad_planes(x, hw, p, phw, xpad);
    xpad
}

/// Copies the `H × W` planes of `src` into the interiors of the `ph × pw ≥
/// (H+2p) × (W+2p)` planes of `dst`, value `(y, x)` at `(y + p, x + p)`.
/// The rest of `dst` is left as it is: zero padding, when `dst` started
/// zeroed and only ever receives planes of this geometry.
fn pad_planes(src: &[f32], [h, w]: [usize; 2], p: usize, [ph, pw]: [usize; 2], dst: &mut [f32]) {
    for (splane, dplane) in src.chunks_exact(h * w).zip(dst.chunks_exact_mut(ph * pw)) {
        for (srow, drow) in splane
            .chunks_exact(w)
            .zip(dplane[p * pw..].chunks_exact_mut(pw))
        {
            drow[p..p + w].copy_from_slice(srow);
        }
    }
}

/// Builds the output planes of a direct kernel in row-major order from
/// `ROWS × S` register blocks, so they are appended once and never
/// zero-filled first: a block's first row goes straight to `out`, its
/// other rows wait in `band` until the block row's last segment.
struct PlaneSink {
    out: Vec<f32>,
    band: Vec<f32>,
    width: usize,
}

impl PlaneSink {
    /// A sink for planes `width` values wide, appended to `out`.
    fn new(out: Vec<f32>, width: usize) -> Self {
        PlaneSink {
            out,
            band: vec![0.0; (ROWS - 1) * width],
            width,
        }
    }

    /// Emits the first `rows` rows and `lanes` lanes of the block at
    /// column `x0` (the last segment of its block row when
    /// `x0 + lanes == width`).
    #[inline(always)]
    fn emit<const S: usize>(
        &mut self,
        acc: &[[f32; S]; ROWS],
        x0: usize,
        rows: usize,
        lanes: usize,
    ) {
        push_lanes(&mut self.out, &acc[0], lanes);
        let last = x0 + lanes == self.width;
        // A constant trip count, so `acc` is only ever indexed by constants
        // and stays in registers.
        for (r, a) in acc.iter().enumerate().skip(1) {
            if r >= rows {
                break;
            }
            let band = &mut self.band[(r - 1) * self.width..][..self.width];
            if !last {
                band[x0..x0 + S].copy_from_slice(a);
                continue;
            }
            if x0 > 0 {
                self.out.extend_from_slice(&band[..x0]);
            }
            push_lanes(&mut self.out, a, lanes);
        }
    }
}

/// Appends the first `lanes` values of a register row: a whole segment as
/// one fixed-width copy, which compiles to vector stores where a
/// variable-length copy would call `memcpy`.
#[inline(always)]
fn push_lanes<const S: usize>(out: &mut Vec<f32>, a: &[f32; S], lanes: usize) {
    if lanes == S {
        out.extend_from_slice(a);
    } else {
        let part = *a;
        out.extend_from_slice(&part[..lanes]);
    }
}

/// The output planes of one image in the direct forward, appended to
/// `sink`, from the image's padded planes `xpad` (row stride `pw`, with
/// the spare rows and lanes the last block and segment read). Per output
/// channel and block of `ROWS` rows × `S` lanes, the accumulators start at
/// the channel's bias and add `w·x` over its taps — `taps[ends[oc-1] ..
/// ends[oc]]`, the non-zero `(offset, weight)` pairs in `(ic, ky, kx)`
/// order — in registers; only the block's real rows and lanes are kept.
///
/// Called once per image and kept out of line, so the register
/// allocation of the accumulator blocks is decided for this loop nest
/// alone, whatever the caller inlines around it.
#[inline(never)]
fn forward_rows<const S: usize>(
    xpad: &[f32],
    taps: &[(usize, f32)],
    ends: &[usize],
    bias: &[f32],
    pw: usize,
    [oh, ow]: [usize; 2],
    sink: &mut PlaneSink,
) {
    let mut start = 0;
    for (&end, &b) in ends.iter().zip(bias) {
        let oc_taps = &taps[start..end];
        start = end;
        for y0 in (0..oh).step_by(ROWS) {
            for x0 in (0..ow).step_by(S) {
                let mut acc = [[b; S]; ROWS];
                let block = &xpad[y0 * pw + x0..];
                for &(off, wv) in oc_taps {
                    for (r, a) in acc.iter_mut().enumerate() {
                        let xr: &[f32; S] = block[off + r * pw..][..S].try_into().expect("S lanes");
                        for j in 0..S {
                            a[j] += wv * xr[j];
                        }
                    }
                }
                sink.emit(&acc, x0, ROWS.min(oh - y0), S.min(ow - x0));
            }
        }
    }
}

/// The input-gradient planes of one image, appended to `sink`, from the
/// image's `dy` window `src` (row stride `srow`, window `(0, 0)` at
/// `origin`; see [`Conv2d::input_grad_direct`]), each input channel's
/// `OC·K·K` taps in `(oc, ky, kx)` order as `(window offset, weight, ky,
/// kx)`, and per segment and `kx` the lane masks of the columns inside the
/// output. Per input channel and block of `ROWS` rows × `S` lanes, the
/// accumulators start at `+0.0` and add `g·w` over the taps in registers.
/// A tap whose output position `(y + P - ky, x + P - kx)` lies outside the
/// `OH × OW` output is skipped: whole rows by a branch, lanes by a select
/// that keeps the old sum, so a non-finite weight never meets the window's
/// zero border. Both are compiled in only when `MASKED` (`P < K-1`):
/// otherwise every tap of every real position is inside.
///
/// Called once per image and kept out of line, like [`forward_rows`].
#[inline(never)]
fn input_grad_rows<const S: usize, const MASKED: bool>(
    src: &[f32],
    taps: &[(usize, f32, usize, usize)],
    masks: &[u32],
    [k, p, oh, oc_n]: [usize; 4],
    [srow, origin]: [usize; 2],
    [h, w]: [usize; 2],
    sink: &mut PlaneSink,
) {
    for ic_taps in taps.chunks_exact(oc_n * k * k) {
        for y0 in (0..h).step_by(ROWS) {
            for (x0, seg_masks) in (0..w).step_by(S).zip(masks.chunks_exact(k * S)) {
                let mut acc = [[0.0f32; S]; ROWS];
                let block = &src[origin + y0 * srow + x0..];
                for &(off, wv, ky, kx) in ic_taps {
                    let m: &[u32; S] = if MASKED {
                        seg_masks[kx * S..][..S].try_into().expect("S lanes")
                    } else {
                        &[u32::MAX; S]
                    };
                    for (r, a) in acc.iter_mut().enumerate() {
                        if MASKED && (y0 + r + p).wrapping_sub(ky) >= oh {
                            continue;
                        }
                        let g: &[f32; S] =
                            block[off + r * srow..][..S].try_into().expect("S lanes");
                        for j in 0..S {
                            let sum = a[j] + g[j] * wv;
                            a[j] = if m[j] != 0 { sum } else { a[j] };
                        }
                    }
                }
                sink.emit(&acc, x0, ROWS.min(h - y0), S.min(w - x0));
            }
        }
    }
}

/// Signature of [`weight_grad_block`] at every lane width.
type BlockFn = fn(&[f32], &[f32], usize, [usize; 2], [usize; 4], &mut [f32], &mut [f32]);

/// Adds one lane block's weight-gradient chains into `gw` (`[OC, C, K, K]`)
/// and its bias-gradient chains (each image's `dy` plane summed in
/// row-major order from the neutral element of `f32`'s `Sum`, as
/// `iter().sum()` does) into `gb`.
/// `dyt` (`[OC, OH·OW, W]`) and `xb` (`[C, PH·PW, W]`, zero-padded) hold the
/// block's images image-minor; lanes from `valid` on are spare and dropped.
/// Row by row, the `C·K·K` chains of an output channel advance together
/// over the same `dy` row and the input rows under it, so both are read
/// from L1, independent chains overlap in the pipeline, and each chain's
/// accumulator stays in registers while it walks a row.
fn weight_grad_block<const W: usize>(
    dyt: &[f32],
    xb: &[f32],
    valid: usize,
    [c, k]: [usize; 2],
    [ph, pw, oh, ow]: [usize; 4],
    gw: &mut [f32],
    gb: &mut [f32],
) {
    let sum_start: f32 = std::iter::empty::<f32>().sum();
    let mut acc = vec![[0.0f32; W]; c * k * k];
    for (oc, gb_v) in gb.iter_mut().enumerate() {
        let dplane = &dyt[oc * oh * ow * W..][..oh * ow * W];
        acc.fill([0.0; W]);
        let mut bias = [sum_start; W];
        for d in dplane.chunks_exact(W) {
            for (b, &dv) in bias.iter_mut().zip(d) {
                *b += dv;
            }
        }
        for &b in &bias[..valid] {
            *gb_v += b;
        }
        for oy in 0..oh {
            let drow = &dplane[oy * ow * W..][..ow * W];
            for (ic, chains) in acc.chunks_exact_mut(k * k).enumerate() {
                let xplane = &xb[ic * ph * pw * W..][..ph * pw * W];
                for (tap, chain) in chains.iter_mut().enumerate() {
                    let (ky, kx) = (tap / k, tap % k);
                    let xrow = &xplane[((oy + ky) * pw + kx) * W..][..ow * W];
                    let mut a = *chain;
                    for (d, x) in drow.chunks_exact(W).zip(xrow.chunks_exact(W)) {
                        for ((a, &dv), &xv) in a.iter_mut().zip(d).zip(x) {
                            *a += dv * xv;
                        }
                    }
                    *chain = a;
                }
            }
        }
        let taps = &mut gw[oc * c * k * k..][..c * k * k];
        for (g, chain) in taps.iter_mut().zip(&acc) {
            for &a in &chain[..valid] {
                *g += a;
            }
        }
    }
}

/// Zero-pads `x` (`[N, C, H, W]`) into image-minor lane blocks: the block
/// of images `b0 ..` has [`block_width`] lanes and starts at `b0·plane`
/// (`plane = C·(H+2p)·(W+2p)`), and padded value `i` of its image `b0 + l`
/// lands at `b0·plane + i·width + l`. Spare lanes are zero. Reuses `xt`'s
/// allocation (the previous step's cache) when it is large enough.
fn image_minor(
    x: &Tensor,
    [n, c, h, w]: [usize; 4],
    p: usize,
    mut xt: Vec<f32>,
    simd: Simd,
) -> (Vec<f32>, usize) {
    let (ph, pw) = (h + 2 * p, w + 2 * p);
    let plane = c * ph * pw;
    let slots: usize = (0..n).step_by(LANES).map(|b0| block_width(n - b0)).sum();
    // Without padding, the rows below cover every value.
    let start = lane_buffer(&mut xt, slots * plane, p > 0);
    let lanes = &mut xt[start..];
    for b0 in (0..n).step_by(LANES) {
        let width = block_width(n - b0);
        let block = &mut lanes[b0 * plane..][..width * plane];
        for ic in 0..c {
            for y in 0..h {
                let dst = ((ic * ph + y + p) * pw + p) * width;
                let src = (ic * h + y) * w;
                let row = &mut block[dst..][..w * width];
                to_lanes(x.as_slice(), c * h * w, src, [n, b0, width], row, simd);
            }
        }
    }
    (xt, start)
}

/// Makes room in `v` for `len` values from a 64-byte boundary, returned
/// as the index of the first: one cache line per 16-lane vector, so the
/// lane kernels' loads never straddle two. With `zeroed` the values are
/// zero; otherwise they are left as they were, for a caller that writes
/// every one.
fn lane_buffer(v: &mut Vec<f32>, len: usize, zeroed: bool) -> usize {
    if zeroed {
        v.clear();
    }
    v.resize(v.len().max(len + LANES - 1), 0.0);
    v.as_ptr().align_offset(64).min(LANES - 1)
}

/// Fills `dst` with images `b0 .. b0 + width` of `src` (`N` images of
/// `stride` values), image-minor: `dst[i·width + l] = src[(b0 + l)·stride +
/// off + i]`, with the lanes past image `n` zero. Works in tiles of 64
/// positions, so the source runs and the destination tile stay in L1
/// (measured 1.5× faster than a strided gather per position); a full
/// block under the AVX-512 kernels goes through register transposes.
fn to_lanes(
    src: &[f32],
    stride: usize,
    off: usize,
    [n, b0, width]: [usize; 3],
    dst: &mut [f32],
    simd: Simd,
) {
    match simd {
        #[cfg(target_arch = "x86_64")]
        Some(avx) if width == LANES => {
            return avx.to_lanes(src, [stride, off], [b0, width.min(n - b0)], dst);
        }
        _ => {}
    }
    if width == 1 {
        // One lane: the layout is the source's own.
        dst.copy_from_slice(&src[b0 * stride + off..][..dst.len()]);
        return;
    }
    const TILE: usize = 64;
    let valid = width.min(n - b0);
    for (t, tile) in dst.chunks_mut(TILE * width).enumerate() {
        let run_len = tile.len() / width;
        for l in 0..valid {
            let run = &src[(b0 + l) * stride + off + t * TILE..][..run_len];
            for (lanes, &v) in tile.chunks_exact_mut(width).zip(run) {
                lanes[l] = v;
            }
        }
        for lanes in tile.chunks_exact_mut(width) {
            lanes[valid..].fill(0.0);
        }
    }
}

/// Lowers a whole batch into `col`, one im2col patch matrix
/// `[C·K·K, N·OH·OW]` with column index `img·OH·OW + oy·OW + ox` and row
/// index `r = (ic·K + ky)·K + kx`, so a forward pass is a **single** GEMM
/// over all images (small per-image products would drown in packing
/// overhead). The matrix is appended row by row from contiguous
/// `OW`-length runs of the padded input, so every element is written
/// exactly once and `col`'s allocation (cleared first) is reused. Shared by
/// [`Conv2d`] and [`crate::quant`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col(
    x: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    p: usize,
    col: &mut Vec<f32>,
) {
    let (oh, ow) = (h + 2 * p - k + 1, w + 2 * p - k + 1);
    let (ph, pw) = (h + 2 * p, w + 2 * p);
    let xpad = pad_input(x, n, c, h, w, p);
    col.clear();
    col.reserve(c * k * k * n * oh * ow);
    for ic in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                for img in 0..n {
                    let x_base = (img * c + ic) * ph * pw;
                    for oy in 0..oh {
                        let src = x_base + (oy + ky) * pw + kx;
                        col.extend_from_slice(&xpad[src..src + ow]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The fused direct backward loop the lane kernel replaced, kept as the
    /// bit-identity oracle: one serial `wacc` chain per weight and image,
    /// updating the input gradient in the same loop.
    fn backward_direct_oracle(conv: &mut Conv2d, grad_out: &Tensor, x: &Tensor) -> Tensor {
        let [n, c, h, w]: [usize; 4] = x.shape().try_into().expect("[N,C,H,W]");
        let k = conv.kernel;
        let p = conv.padding;
        let xpad = pad_input(x, n, c, h, w, p);
        let (oh, ow) = conv.out_hw(h, w);
        let (ph, pw) = (h + 2 * p, w + 2 * p);
        let mut gipad = vec![0.0f32; n * c * ph * pw];
        let gs = grad_out.as_slice();
        let ws = conv.weight.as_slice();
        let gw = &mut conv.grad_w;
        let gb = &mut conv.grad_b;
        for img in 0..n {
            for (oc, gb_v) in gb.iter_mut().enumerate() {
                let g_base = ((img * conv.out_channels) + oc) * oh * ow;
                *gb_v += gs[g_base..g_base + oh * ow].iter().sum::<f32>();
                for ic in 0..c {
                    let x_base = ((img * c) + ic) * ph * pw;
                    let w_base = ((oc * c) + ic) * k * k;
                    for ky in 0..k {
                        for kx in 0..k {
                            let widx = w_base + ky * k + kx;
                            let weight = ws[widx];
                            let mut wacc = 0.0f32;
                            for oy in 0..oh {
                                let xrow = x_base + (oy + ky) * pw + kx;
                                let grow = g_base + oy * ow;
                                let xr = &xpad[xrow..xrow + ow];
                                let gr = &gs[grow..grow + ow];
                                let gir = &mut gipad[xrow..xrow + ow];
                                for ((gi_v, &g), &xv) in gir.iter_mut().zip(gr).zip(xr) {
                                    wacc += g * xv;
                                    *gi_v += g * weight;
                                }
                            }
                            gw[widx] += wacc;
                        }
                    }
                }
            }
        }
        let mut grad_in = Vec::with_capacity(n * c * h * w);
        for plane in gipad.chunks_exact(ph * pw) {
            for row in plane[p * pw..].chunks_exact(pw).take(h) {
                grad_in.extend_from_slice(&row[p..p + w]);
            }
        }
        Tensor::from_vec(&[n, c, h, w], grad_in)
    }

    /// The direct forward loop the row kernel replaced, kept as its
    /// bit-identity oracle: each output row starts at the bias and is
    /// read and rewritten once per non-zero tap.
    fn forward_direct_oracle(conv: &Conv2d, x: &Tensor) -> Tensor {
        let [n, c, h, w]: [usize; 4] = x.shape().try_into().expect("[N,C,H,W]");
        let xpad = pad_input(x, n, c, h, w, conv.padding);
        let (oh, ow) = conv.out_hw(h, w);
        let k = conv.kernel;
        let (ph, pw) = (h + 2 * conv.padding, w + 2 * conv.padding);
        let ws = conv.weight.as_slice();
        let bs = conv.bias.as_slice();
        let mut out = Tensor::zeros(&[n, conv.out_channels, oh, ow]);
        let os = out.as_mut_slice();
        for img in 0..n {
            for (oc, &bias) in bs.iter().enumerate() {
                let o_base = ((img * conv.out_channels) + oc) * oh * ow;
                os[o_base..o_base + oh * ow].fill(bias);
                for ic in 0..c {
                    let x_base = ((img * c) + ic) * ph * pw;
                    let w_base = ((oc * c) + ic) * k * k;
                    for ky in 0..k {
                        for kx in 0..k {
                            let weight = ws[w_base + ky * k + kx];
                            if weight == 0.0 {
                                continue;
                            }
                            for oy in 0..oh {
                                let xrow = x_base + (oy + ky) * pw + kx;
                                let orow = o_base + oy * ow;
                                let (xr, or) = (&xpad[xrow..xrow + ow], &mut os[orow..orow + ow]);
                                for (o, &v) in or.iter_mut().zip(xr) {
                                    *o += weight * v;
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The direct input-gradient loop the row kernel replaced, kept as its
    /// bit-identity oracle: each input row is read and rewritten once per
    /// tap, clipped to the taps that land inside the output.
    fn input_grad_oracle(conv: &Conv2d, grad_out: &Tensor, h: usize, w: usize) -> Tensor {
        let (oc_n, c, k, p) = (
            conv.out_channels,
            conv.in_channels,
            conv.kernel,
            conv.padding,
        );
        let n = grad_out.shape()[0];
        let (oh, ow) = conv.out_hw(h, w);
        let gs = grad_out.as_slice();
        let ws = conv.weight.as_slice();
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        let gi = grad_in.as_mut_slice();
        let clip = |t: usize, len: usize, out: usize| {
            let start = p.saturating_sub(t);
            start..(len + p).saturating_sub(t).min(out).max(start)
        };
        for img in 0..n {
            for oc in 0..oc_n {
                let g_base = (img * oc_n + oc) * oh * ow;
                for ic in 0..c {
                    let plane = &mut gi[(img * c + ic) * h * w..][..h * w];
                    let w_base = (oc * c + ic) * k * k;
                    for ky in 0..k {
                        for kx in 0..k {
                            let weight = ws[w_base + ky * k + kx];
                            let oxs = clip(kx, w, ow);
                            if oxs.is_empty() {
                                continue;
                            }
                            let col = oxs.start + kx - p;
                            for oy in clip(ky, h, oh) {
                                let gr = &gs[g_base + oy * ow..][oxs.clone()];
                                let gir = &mut plane[(oy + ky - p) * w + col..][..gr.len()];
                                for (gi_v, &g) in gir.iter_mut().zip(gr) {
                                    *gi_v += g * weight;
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    /// Deterministic values of both signs with exact zeros mixed in, so
    /// sums see cancellation and signed zeros.
    fn mixed(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let v = (i * 7919 + salt * 104_729) % 1009;
                if v.is_multiple_of(13) {
                    0.0
                } else {
                    (v as f32 - 504.0) / 97.0
                }
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn direct_backward_is_bit_identical_to_the_fused_loop() {
        // (in, out, kernel, pad, side): the yolomini s/m/l layers, then the
        // lenet and alexnet stems.
        let mut shapes = Vec::new();
        for ch in [4, 6, 8] {
            shapes.extend([(1, ch, 3, 1, 32), (ch, ch, 3, 1, 32), (ch, 1, 1, 0, 32)]);
        }
        shapes.extend([(1, 6, 5, 0, 32), (1, 8, 3, 1, 32)]);
        // Padding wider than the image: some taps never touch the input.
        shapes.extend([(2, 3, 5, 3, 3), (1, 2, 5, 2, 1)]);
        for (ic, oc, k, p, side) in shapes {
            // Every lane width (1, 2, 4, 8, 16), full and with spare lanes,
            // alone and behind full blocks.
            for n in [1, 3, 6, 15, 16, 17, 18, 33] {
                let mut rng = StdRng::seed_from_u64((ic * 100 + oc * 10 + k + n) as u64);
                let mut lanes = Conv2d::new(ic, oc, k, p, &mut rng);
                // Gradients already hold values: backward accumulates.
                lanes.grad_w = mixed(lanes.weight.len(), 1);
                lanes.grad_b = mixed(oc, 2);
                let mut fused = lanes.clone();
                let x = Tensor::from_vec(&[n, ic, side, side], mixed(n * ic * side * side, 3));
                let y = lanes.forward(&x, true);
                // The second call runs on the cache the first restored.
                for salt in [4, 5] {
                    let gout = Tensor::from_vec(y.shape(), mixed(y.len(), salt));
                    let got = lanes.backward(&gout);
                    let want = backward_direct_oracle(&mut fused, &gout, &x);
                    let case = format!("{ic}->{oc} k{k} p{p} n{n} call {salt}");
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(want.as_slice()),
                        "grad_in {case}"
                    );
                    assert_eq!(
                        bits(lanes.grad_w.as_slice()),
                        bits(fused.grad_w.as_slice()),
                        "grad_w {case}"
                    );
                    assert_eq!(
                        bits(lanes.grad_b.as_slice()),
                        bits(fused.grad_b.as_slice()),
                        "grad_b {case}"
                    );
                }
            }
        }
    }

    #[test]
    fn direct_row_kernels_are_bit_identical_to_the_loops() {
        // Widths with a partial segment (5, 28, 33, 70) and without (32);
        // odd heights leave a spare row, and height 8 reads `dy` in place.
        let planes = [(7, 5), (5, 28), (9, 32), (8, 32), (3, 33), (5, 70)];
        for k in [1, 3, 5] {
            for p in [0, 1, 2] {
                for (h, w) in planes {
                    if h + 2 * p < k || w + 2 * p < k {
                        continue;
                    }
                    for n in [1, 16, 17] {
                        for inf in [false, true] {
                            let mut rng = StdRng::seed_from_u64((k * 10 + p + w + n) as u64);
                            let mut conv = Conv2d::new(2, 3, k, p, &mut rng);
                            let ws = conv.weight.as_mut_slice();
                            ws.copy_from_slice(&mixed(ws.len(), k + p));
                            ws[1] = 0.0;
                            if inf {
                                // A corner tap of channel 1: near the border
                                // it falls outside the output, where it must
                                // add nothing.
                                ws[(2 + 1) * k * k - k] = f32::INFINITY;
                            }
                            conv.bias
                                .as_mut_slice()
                                .copy_from_slice(&[-0.0, 0.5, -1.25]);
                            let x = Tensor::from_vec(&[n, 2, h, w], mixed(n * 2 * h * w, w));
                            let case = format!("k{k} p{p} {h}x{w} n{n} inf {inf}");
                            let want = forward_direct_oracle(&conv, &x);
                            for train in [false, true] {
                                let got = conv.forward(&x, train);
                                assert_eq!(
                                    bits(got.as_slice()),
                                    bits(want.as_slice()),
                                    "forward(train={train}) {case}"
                                );
                            }
                            let gout = Tensor::from_vec(want.shape(), mixed(want.len(), h));
                            let got = conv.backward(&gout);
                            let want = input_grad_oracle(&conv, &gout, h, w);
                            assert_eq!(
                                bits(got.as_slice()),
                                bits(want.as_slice()),
                                "input gradient {case}"
                            );
                        }
                    }
                }
            }
        }
    }

    fn ident_kernel_conv() -> Conv2d {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, &mut rng);
        {
            let mut ps = conv.params();
            ps[0].values.fill(0.0);
            ps[0].values[4] = 1.0; // centre tap -> identity
            ps[1].values.fill(0.0);
        }
        conv
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let mut conv = ident_kernel_conv();
        let x = Tensor::from_vec(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn valid_convolution_known_value() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(1, 1, 2, 0, &mut rng);
        {
            let mut ps = conv.params();
            ps[0].values.copy_from_slice(&[1., 2., 3., 4.]);
            ps[1].values[0] = 0.5;
        }
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 1., 1., 1.]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.as_slice(), &[10.5]);
    }

    fn check_numeric_gradients(mut conv: Conv2d, x: &Tensor) {
        let y = conv.forward(x, true);
        let gout = Tensor::from_vec(y.shape(), vec![1.0; y.len()]);
        let gx = conv.backward(&gout);

        let eps = 1e-2f32;
        let loss =
            |c: &mut Conv2d, x: &Tensor| -> f32 { c.forward(x, false).as_slice().iter().sum() };
        for &idx in &[0usize, 7, 20, 53] {
            let base = conv.params()[0].values[idx];
            conv.params()[0].values[idx] = base + eps;
            let lp = loss(&mut conv, x);
            conv.params()[0].values[idx] = base - eps;
            let lm = loss(&mut conv, x);
            conv.params()[0].values[idx] = base;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = conv.params()[0].grads[idx];
            assert!(
                (numeric - analytic).abs() < 0.05 * analytic.abs().max(1.0),
                "w[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // input gradient
        let mut x2 = x.clone();
        for &idx in &[3usize, 17] {
            let base = x2.as_slice()[idx];
            x2.as_mut_slice()[idx] = base + eps;
            let lp = loss(&mut conv, &x2);
            x2.as_mut_slice()[idx] = base - eps;
            let lm = loss(&mut conv, &x2);
            x2.as_mut_slice()[idx] = base;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - gx.as_slice()[idx]).abs() < 0.05 * numeric.abs().max(1.0));
        }
        // bias gradient: dL/db = number of output pixels per channel
        let per_channel = 16.0;
        for oc in 0..3 {
            assert!((conv.params()[1].grads[oc] - per_channel).abs() < 1e-3);
        }
    }

    #[test]
    fn gradients_match_numeric() {
        let x = Tensor::from_vec(
            &[1, 2, 4, 4],
            (0..32)
                .map(|i| ((i * 7) % 11) as f32 / 11.0 - 0.5)
                .collect(),
        );
        let mut rng = StdRng::seed_from_u64(2);
        check_numeric_gradients(Conv2d::new(2, 3, 3, 1, &mut rng), &x);
    }

    #[test]
    fn lent_buffers_are_bit_identical() {
        // Training steps of batches 8, 3, 17 and 1, each lent its last
        // output and input gradient to refill, and an inference forward in
        // between, against the same calls on a fresh copy of the layer
        // that holds no lent allocation.
        let mut rng = StdRng::seed_from_u64(11);
        let mut conv = Conv2d::new(2, 5, 3, 1, &mut rng);
        for (step, batch) in [8, 3, 17, 1].into_iter().enumerate() {
            let same = |a: &Tensor, b: Tensor| {
                assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "batch {batch}");
            };
            let x = Tensor::from_vec(&[batch, 2, 7, 6], mixed(batch * 84, step));
            let mut fresh = conv.clone();
            fresh.lent = Vec::new();
            let y = conv.forward(&x, true);
            same(&y, fresh.forward(&x, true));
            let gout = Tensor::from_vec(y.shape(), mixed(y.len(), step + 7));
            conv.lend(y.into_vec());
            let gx = conv.backward(&gout);
            same(&gx, fresh.backward(&gout));
            assert_eq!(bits(&conv.grad_w), bits(&fresh.grad_w), "batch {batch}");
            conv.lend(gx.into_vec());
            same(&conv.forward(&x, false), fresh.forward(&x, false));
        }
        conv.release_training_state();
        assert_eq!(conv.lent.capacity(), 0);
    }

    #[test]
    fn shapes_and_macs() {
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Conv2d::new(3, 8, 5, 0, &mut rng);
        assert_eq!(conv.output_shape(&[2, 3, 16, 16]), vec![2, 8, 12, 12]);
        assert_eq!(conv.param_len(), 8 * 3 * 25 + 8);
        assert_eq!(conv.macs(&[1, 3, 16, 16]), (8 * 12 * 12 * 3 * 25) as u64);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_channel_mismatch() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(2, 1, 3, 1, &mut rng);
        let _ = conv.forward(&Tensor::zeros(&[1, 3, 4, 4]), false);
    }
}
