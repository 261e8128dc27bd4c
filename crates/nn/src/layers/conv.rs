//! 2-D convolution (stride 1, symmetric zero padding).
//!
//! Two kernel implementations share one layer:
//!
//! - **GEMM path** (default for channel-rich, work-heavy shapes): lowers the
//!   whole batch to one im2col patch matrix `[C·K·K, N·OH·OW]` and computes
//!   all output channels with a single cache-blocked [`crate::gemm`] call.
//!   The backward pass reuses the cached patch matrix — `dW` is a
//!   `dy · colᵀ` product and the input gradient is a `Wᵀ · dy` product
//!   scattered back (col2im).
//! - **Direct path** (default for few output channels or a shallow
//!   reduction): nested loops over a zero-padded input. It is the
//!   production training kernel for every detector layer and for the
//!   `lenet`/`alexnet` stems, and what the `reference` cargo feature or
//!   [`Conv2d::set_kernel_path`] force everywhere. Its backward runs the
//!   weight-gradient sums of up to 16 images side by side as SIMD lanes.
//!
//! Each path fixes the order in which every output element sums its
//! terms, so each is bitwise deterministic for any thread count and SIMD
//! width. The direct path's orders:
//!
//! - forward: `y = bias`, then `+ w·x` over `(ic, ky, kx)`, zero weights
//!   skipped;
//! - `grad_b[oc]`: per image in order, that image's `dy` plane summed in
//!   row-major order;
//! - `grad_w[oc, ic, ky, kx]`: per image in order, `+ (((0 + g₀x₀) + g₁x₁)
//!   + …)` over `(oy, ox)` in row-major order;
//! - input gradient: per element, `0 + g·w` over `(oc, ky, kx)`.
//!
//! Both paths produce gradients verified against numerical differentiation;
//! forward outputs agree to float tolerance (the two paths sum products in
//! different orders, so results are not bitwise identical between paths).

use crate::gemm;
use crate::init::he_normal;
use crate::layer::{Layer, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// Which convolution kernel [`Conv2d`] executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// Pick per shape: GEMM when the lowered matrix is chunky in every
    /// dimension per the host tuning thresholds
    /// ([`crate::tune::Tuning::conv_gemm_min_oc`] /
    /// [`crate::tune::Tuning::conv_gemm_min_ckk`] /
    /// [`crate::tune::Tuning::conv_gemm_min_macs`]), direct loops
    /// otherwise (the `reference` cargo feature forces the direct path
    /// everywhere).
    #[default]
    Auto,
    /// Always lower to im2col + GEMM.
    Gemm,
    /// Always run the direct loops.
    Direct,
}

/// What `forward(train=true)` stashes for the backward pass. Caching the
/// already-lowered buffer (instead of cloning the raw input) means backward
/// never re-pads or re-lowers, and the layer holds no redundant copy of `x`.
#[derive(Clone, Debug)]
enum ConvCache {
    /// GEMM path: per-image im2col patch matrices, `n * (C·K·K) * (OH·OW)`
    /// values, plus the original spatial dims needed to shape the gradient.
    Im2col {
        col: Vec<f32>,
        n: usize,
        h: usize,
        w: usize,
    },
    /// Direct path: the zero-padded input in image-minor blocks, the
    /// layout the weight-gradient lanes read (see [`image_minor`]).
    Padded {
        xt: Vec<f32>,
        n: usize,
        h: usize,
        w: usize,
    },
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

thread_local! {
    /// The image-minor `dy` block of [`Conv2d::backward_direct`], reused
    /// across calls and layers on this thread rather than allocated per
    /// call. Pure workspace: every element read was written in the same
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
    grad_w: Tensor,
    grad_b: Tensor,
    path: KernelPath,
    cache: Option<ConvCache>,
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
            grad_w: Tensor::zeros(&[out_channels, in_channels, kernel, kernel]),
            grad_b: Tensor::zeros(&[out_channels]),
            path: KernelPath::default(),
            cache: None,
        }
    }

    /// Forces the kernel choice (parity tests and benchmarks compare paths
    /// on identical shapes; everything else should leave this at `Auto`).
    pub fn set_kernel_path(&mut self, path: KernelPath) {
        self.path = path;
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

    /// `cols` is the batched column count `N·OH·OW`. `Auto` lowers to GEMM
    /// only when the context's tuning ([`crate::exec::current`]) says all
    /// three thresholds hold: enough output rows that microkernel tiles
    /// run full, enough reduction depth (`C·K·K`) to amortise the im2col
    /// build, and enough total MACs to amortise the per-call buffers.
    fn use_gemm(&self, ckk: usize, cols: usize) -> bool {
        match self.path {
            KernelPath::Gemm => true,
            KernelPath::Direct => false,
            KernelPath::Auto => {
                let t = crate::exec::current().tuning;
                !cfg!(feature = "reference")
                    && self.out_channels >= t.conv_gemm_min_oc
                    && ckk >= t.conv_gemm_min_ckk
                    && self.out_channels * ckk * cols >= t.conv_gemm_min_macs
            }
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            h + 2 * self.padding - self.kernel + 1,
            w + 2 * self.padding - self.kernel + 1,
        )
    }

    /// Copies `x` (`[N, C, H, W]`) into a zero-padded buffer
    /// `[N, C, H+2p, W+2p]`, so the convolution loops need no bounds checks
    /// and vectorise.
    fn pad_input(&self, x: &Tensor, n: usize, c: usize, h: usize, w: usize) -> Vec<f32> {
        pad_input(x, n, c, h, w, self.padding)
    }

    /// Lowers the whole batch to one im2col patch matrix — see [`im2col`].
    fn build_col(&self, x: &Tensor, n: usize, c: usize, h: usize, w: usize) -> Vec<f32> {
        im2col(x, n, c, h, w, self.kernel, self.padding)
    }

    /// Scatters one image's slice of the batched patch-matrix gradient back
    /// into its padded input gradient (col2im): overlapping receptive
    /// fields accumulate. `colgrad` has row stride `cols`; image `img`
    /// occupies columns `img·OH·OW ..`.
    #[allow(clippy::too_many_arguments)]
    fn col2im_add(
        colgrad: &[f32],
        cols: usize,
        img: usize,
        gipad_img: &mut [f32],
        c: usize,
        k: usize,
        ph: usize,
        pw: usize,
        oh: usize,
        ow: usize,
    ) {
        let ohow = oh * ow;
        for ic in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let r = (ic * k + ky) * k + kx;
                    for oy in 0..oh {
                        let src = r * cols + img * ohow + oy * ow;
                        let dst = ic * ph * pw + (oy + ky) * pw + kx;
                        for (g, &v) in gipad_img[dst..dst + ow]
                            .iter_mut()
                            .zip(&colgrad[src..src + ow])
                        {
                            *g += v;
                        }
                    }
                }
            }
        }
    }

    /// Copies the interior of the padded gradient back to `[N, C, H, W]`.
    fn unpad(&self, gipad: &[f32], n: usize, c: usize, h: usize, w: usize) -> Tensor {
        let p = self.padding;
        let (ph, pw) = (h + 2 * p, w + 2 * p);
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        let gi = grad_in.as_mut_slice();
        for plane in 0..n * c {
            for y in 0..h {
                let src = plane * ph * pw + (y + p) * pw + p;
                let dst = plane * h * w + y * w;
                gi[dst..dst + w].copy_from_slice(&gipad[src..src + w]);
            }
        }
        grad_in
    }

    /// GEMM forward: one batched product
    /// `tmp[OC, N·OH·OW] = W[OC, C·K·K] · col`, then a contiguous
    /// scatter-with-bias into the `[N, OC, OH, OW]` output layout.
    fn forward_gemm(
        &mut self,
        x: &Tensor,
        train: bool,
        n: usize,
        c: usize,
        h: usize,
        w: usize,
    ) -> Tensor {
        let (oh, ow) = self.out_hw(h, w);
        let (ckk, ohow) = (c * self.kernel * self.kernel, oh * ow);
        let cols = n * ohow;
        let col = self.build_col(x, n, c, h, w);
        let mut tmp = vec![0.0f32; self.out_channels * cols];
        gemm::gemm(
            self.out_channels,
            ckk,
            cols,
            self.weight.as_slice(),
            &col,
            &mut tmp,
        );
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        let os = out.as_mut_slice();
        let bs = self.bias.as_slice();
        for img in 0..n {
            for (oc, &bias) in bs.iter().enumerate() {
                let src = &tmp[oc * cols + img * ohow..][..ohow];
                let dst = &mut os[(img * self.out_channels + oc) * ohow..][..ohow];
                for (o, &v) in dst.iter_mut().zip(src) {
                    *o = v + bias;
                }
            }
        }
        if train {
            self.cache = Some(ConvCache::Im2col { col, n, h, w });
        }
        out
    }

    /// GEMM backward against the cached batched patch matrix:
    /// `dW += dy · colᵀ` ([`gemm::gemm_nt_acc`]), `dcol = Wᵀ · dy`
    /// ([`gemm::gemm_tn`]) scattered back via col2im — each a single
    /// batched product over all images.
    fn backward_gemm(
        &mut self,
        grad_out: &Tensor,
        col: &[f32],
        n: usize,
        h: usize,
        w: usize,
    ) -> Tensor {
        let c = self.in_channels;
        let (k, p) = (self.kernel, self.padding);
        let (oh, ow) = self.out_hw(h, w);
        let (ckk, ohow) = (c * k * k, oh * ow);
        let (ph, pw) = (h + 2 * p, w + 2 * p);
        let cols = n * ohow;
        let gs = grad_out.as_slice();
        let gb = self.grad_b.as_mut_slice();
        // Regroup dy from [N, OC, OH·OW] to the batched GEMM layout
        // [OC, N·OH·OW] (contiguous OH·OW runs), summing bias gradients on
        // the way through.
        let mut dy = vec![0.0f32; self.out_channels * cols];
        for img in 0..n {
            for (oc, gb_v) in gb.iter_mut().enumerate() {
                let src = &gs[(img * self.out_channels + oc) * ohow..][..ohow];
                *gb_v += src.iter().sum::<f32>();
                dy[oc * cols + img * ohow..][..ohow].copy_from_slice(src);
            }
        }
        gemm::gemm_nt_acc(
            self.out_channels,
            cols,
            ckk,
            &dy,
            col,
            self.grad_w.as_mut_slice(),
        );
        let mut colgrad = vec![0.0f32; ckk * cols];
        gemm::gemm_tn(
            ckk,
            self.out_channels,
            cols,
            self.weight.as_slice(),
            &dy,
            &mut colgrad,
        );
        let mut gipad = vec![0.0f32; n * c * ph * pw];
        for img in 0..n {
            let gipad_img = &mut gipad[img * c * ph * pw..][..c * ph * pw];
            Self::col2im_add(&colgrad, cols, img, gipad_img, c, k, ph, pw, oh, ow);
        }
        self.unpad(&gipad, n, c, h, w)
    }

    /// Direct-loop forward (summation order in the module docs), vectorised
    /// over `ox`. A training call caches the input for the backward pass.
    #[allow(clippy::too_many_arguments)]
    fn forward_direct(
        &mut self,
        x: &Tensor,
        train: bool,
        spare: Vec<f32>,
        n: usize,
        c: usize,
        h: usize,
        w: usize,
    ) -> Tensor {
        let xpad = self.pad_input(x, n, c, h, w);
        let (oh, ow) = self.out_hw(h, w);
        let k = self.kernel;
        let (ph, pw) = (h + 2 * self.padding, w + 2 * self.padding);
        let ws = self.weight.as_slice();
        let bs = self.bias.as_slice();
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        let os = out.as_mut_slice();
        for img in 0..n {
            for (oc, &bias) in bs.iter().enumerate() {
                let o_base = ((img * self.out_channels) + oc) * oh * ow;
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
        if train {
            // Only the weight gradient reads the input back, in lanes:
            // cache it in that layout (the same size as `xpad` for whole
            // lane blocks), built after `xpad` is freed.
            drop(xpad);
            let xt = image_minor(x, n, c, h, w, self.padding, spare);
            self.cache = Some(ConvCache::Padded { xt, n, h, w });
        }
        out
    }

    /// Direct-loop backward against the cached image-minor padded input
    /// `xt`, in the summation orders of the module docs — the orders of the
    /// fused loop this kernel replaced, so its results are bit-identical:
    ///
    /// - `grad_w`: the chains of the images of a lane block are
    ///   independent, so they run as the lanes of one `[f32; W]`
    ///   accumulator (separate multiply and add, never fused) over `dy`
    ///   regrouped image-minor, then land in `grad_w` in image order (see
    ///   [`weight_grad_block`]). Blocks hold `LANES` images except the last,
    ///   which is [`block_width`] wide; its spare lanes compute on zeros
    ///   and are dropped.
    /// - input gradient: a loop of its own, vectorised over `ox`.
    fn backward_direct(
        &mut self,
        grad_out: &Tensor,
        xt: &[f32],
        n: usize,
        h: usize,
        w: usize,
    ) -> Tensor {
        let (oc_n, c, k, p) = (
            self.out_channels,
            self.in_channels,
            self.kernel,
            self.padding,
        );
        let (oh, ow) = self.out_hw(h, w);
        let ohow = oh * ow;
        let (ph, pw) = (h + 2 * p, w + 2 * p);
        let gs = grad_out.as_slice();
        for img in 0..n {
            for (oc, gb_v) in self.grad_b.as_mut_slice().iter_mut().enumerate() {
                *gb_v += gs[(img * oc_n + oc) * ohow..][..ohow].iter().sum::<f32>();
            }
        }

        let gw = self.grad_w.as_mut_slice();
        let mut dy_block = DY_BLOCK.take();
        dy_block.resize(oc_n * ohow * LANES, 0.0);
        let xplane = c * ph * pw;
        for b0 in (0..n).step_by(LANES) {
            let width = block_width(n - b0);
            let dyt = &mut dy_block[..oc_n * ohow * width];
            to_lanes(gs, oc_n * ohow, 0, n, b0, width, dyt);
            let xb = &xt[b0 * xplane..][..width * xplane];
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
                [oc_n, c, k],
                [ph, pw, oh, ow],
                gw,
            );
        }
        DY_BLOCK.set(dy_block);

        let ws = self.weight.as_slice();
        // Only the unpadded input gradient is returned, so each row update is
        // clipped to it: padded row `oy + ky` is input row `oy + ky - p`, and
        // likewise for columns.
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        let gi = grad_in.as_mut_slice();
        let clip = |t: usize, len: usize, out: usize| {
            let start = p.saturating_sub(t);
            start..(len + p).saturating_sub(t).min(out).max(start)
        };
        for img in 0..n {
            for oc in 0..oc_n {
                let g_base = (img * oc_n + oc) * ohow;
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
        // A training forward supersedes the previous step's cache: the GEMM
        // path frees it before lowering, the direct path refills its buffer.
        let stale = if train { self.cache.take() } else { None };
        let ckk = c * self.kernel * self.kernel;
        if self.use_gemm(ckk, n * oh * ow) {
            drop(stale);
            self.forward_gemm(x, train, n, c, h, w)
        } else {
            let spare = match stale {
                Some(ConvCache::Padded { xt, .. }) => xt,
                _ => Vec::new(),
            };
            self.forward_direct(x, train, spare, n, c, h, w)
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("backward before forward(train=true)");
        let [gn, goc, _, _]: [usize; 4] = grad_out.shape().try_into().expect("grad shape");
        assert_eq!(goc, self.out_channels);
        let grad_in = match &cache {
            ConvCache::Im2col { col, n, h, w } => {
                assert_eq!(gn, *n);
                self.backward_gemm(grad_out, col, *n, *h, *w)
            }
            ConvCache::Padded { xt, n, h, w } => {
                assert_eq!(gn, *n);
                self.backward_direct(grad_out, xt, *n, *h, *w)
            }
        };
        // Restore the cache so repeated backward calls (as the numeric
        // gradient tests do) keep working, matching the old behaviour of
        // retaining the cached input.
        self.cache = Some(cache);
        grad_in
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param {
                name: "weight",
                values: self.weight.as_mut_slice(),
                grads: self.grad_w.as_mut_slice(),
            },
            Param {
                name: "bias",
                values: self.bias.as_mut_slice(),
                grads: self.grad_b.as_mut_slice(),
            },
        ]
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
    let xs = x.as_slice();
    for plane in 0..n * c {
        for y in 0..h {
            let src = plane * h * w + y * w;
            let dst = plane * ph * pw + (y + p) * pw + p;
            out[dst..dst + w].copy_from_slice(&xs[src..src + w]);
        }
    }
    out
}

/// Signature of [`weight_grad_block`] at every lane width.
type BlockFn = fn(&[f32], &[f32], usize, [usize; 3], [usize; 4], &mut [f32]);

/// Adds one lane block's weight-gradient chains into `gw` (`[OC, C, K, K]`).
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
    [oc_n, c, k]: [usize; 3],
    [ph, pw, oh, ow]: [usize; 4],
    gw: &mut [f32],
) {
    let mut acc = vec![[0.0f32; W]; c * k * k];
    for oc in 0..oc_n {
        let dplane = &dyt[oc * oh * ow * W..][..oh * ow * W];
        acc.fill([0.0; W]);
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
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    p: usize,
    mut xt: Vec<f32>,
) -> Vec<f32> {
    let (ph, pw) = (h + 2 * p, w + 2 * p);
    let plane = c * ph * pw;
    let slots: usize = (0..n).step_by(LANES).map(|b0| block_width(n - b0)).sum();
    xt.clear();
    xt.resize(slots * plane, 0.0);
    for b0 in (0..n).step_by(LANES) {
        let width = block_width(n - b0);
        let block = &mut xt[b0 * plane..][..width * plane];
        for ic in 0..c {
            for y in 0..h {
                let dst = ((ic * ph + y + p) * pw + p) * width;
                let src = (ic * h + y) * w;
                let row = &mut block[dst..][..w * width];
                to_lanes(x.as_slice(), c * h * w, src, n, b0, width, row);
            }
        }
    }
    xt
}

/// Fills `dst` with images `b0 .. b0 + width` of `src` (`N` images of
/// `stride` values), image-minor: `dst[i·width + l] = src[(b0 + l)·stride +
/// off + i]`, with the lanes past image `n` zero. Works in tiles of 64
/// positions, so the source runs and the destination tile stay in L1
/// (measured 1.5× faster than a strided gather per position).
fn to_lanes(
    src: &[f32],
    stride: usize,
    off: usize,
    n: usize,
    b0: usize,
    width: usize,
    dst: &mut [f32],
) {
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

/// Lowers a whole batch to one im2col patch matrix `[C·K·K, N·OH·OW]` with
/// column index `img·OH·OW + oy·OW + ox` and row index
/// `r = (ic·K + ky)·K + kx`, so a forward pass is a **single** GEMM over
/// all images (small per-image products would drown in packing overhead).
/// Every row is built from contiguous `OW`-length `copy_from_slice` runs
/// out of the padded input. Shared by [`Conv2d`] and [`crate::quant`].
pub(crate) fn im2col(
    x: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    p: usize,
) -> Vec<f32> {
    let (oh, ow) = (h + 2 * p - k + 1, w + 2 * p - k + 1);
    let (ckk, ohow) = (c * k * k, oh * ow);
    let (ph, pw) = (h + 2 * p, w + 2 * p);
    let xpad = pad_input(x, n, c, h, w, p);
    let cols = n * ohow;
    let mut col = vec![0.0f32; ckk * cols];
    for img in 0..n {
        for ic in 0..c {
            let x_base = (img * c + ic) * ph * pw;
            for ky in 0..k {
                for kx in 0..k {
                    let r = (ic * k + ky) * k + kx;
                    for oy in 0..oh {
                        let src = x_base + (oy + ky) * pw + kx;
                        let dst = r * cols + img * ohow + oy * ow;
                        col[dst..dst + ow].copy_from_slice(&xpad[src..src + ow]);
                    }
                }
            }
        }
    }
    col
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
        let gw = conv.grad_w.as_mut_slice();
        let gb = conv.grad_b.as_mut_slice();
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
        conv.unpad(&gipad, n, c, h, w)
    }

    /// Deterministic values of both signs with exact zeros mixed in, so
    /// sums see cancellation and signed zeros.
    fn mixed(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let v = (i * 7919 + salt * 104_729) % 1009;
                if v % 13 == 0 {
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
                lanes.set_kernel_path(KernelPath::Direct);
                // Gradients already hold values: backward accumulates.
                let gw0 = mixed(lanes.grad_w.len(), 1);
                lanes.grad_w.as_mut_slice().copy_from_slice(&gw0);
                let gb0 = mixed(oc, 2);
                lanes.grad_b.as_mut_slice().copy_from_slice(&gb0);
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
        for path in [KernelPath::Direct, KernelPath::Gemm] {
            let mut conv = ident_kernel_conv();
            conv.set_kernel_path(path);
            let x = Tensor::from_vec(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
            let y = conv.forward(&x, false);
            assert_eq!(y.shape(), &[1, 1, 3, 3]);
            assert_eq!(y.as_slice(), x.as_slice(), "path {path:?}");
        }
    }

    #[test]
    fn valid_convolution_known_value() {
        for path in [KernelPath::Direct, KernelPath::Gemm] {
            let mut rng = StdRng::seed_from_u64(1);
            let mut conv = Conv2d::new(1, 1, 2, 0, &mut rng);
            conv.set_kernel_path(path);
            {
                let mut ps = conv.params();
                ps[0].values.copy_from_slice(&[1., 2., 3., 4.]);
                ps[1].values[0] = 0.5;
            }
            let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 1., 1., 1.]);
            let y = conv.forward(&x, false);
            assert_eq!(y.shape(), &[1, 1, 1, 1]);
            assert_eq!(y.as_slice(), &[10.5], "path {path:?}");
        }
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
        for path in [KernelPath::Direct, KernelPath::Gemm] {
            let mut rng = StdRng::seed_from_u64(2);
            let mut conv = Conv2d::new(2, 3, 3, 1, &mut rng);
            conv.set_kernel_path(path);
            check_numeric_gradients(conv, &x);
        }
    }

    #[test]
    fn gemm_and_direct_paths_agree() {
        // Large enough that Auto picks GEMM (ckk=27, ohow=64 -> 1728).
        let mut rng = StdRng::seed_from_u64(7);
        let mut a = Conv2d::new(3, 4, 3, 1, &mut rng);
        let mut b = a.clone();
        a.set_kernel_path(KernelPath::Direct);
        b.set_kernel_path(KernelPath::Gemm);
        let x = Tensor::from_vec(
            &[2, 3, 8, 8],
            (0..2 * 3 * 64)
                .map(|i| ((i * 13) % 23) as f32 / 23.0 - 0.5)
                .collect(),
        );
        let ya = a.forward(&x, true);
        let yb = b.forward(&x, true);
        assert_eq!(ya.shape(), yb.shape());
        for (va, vb) in ya.as_slice().iter().zip(yb.as_slice()) {
            assert!((va - vb).abs() < 1e-5, "forward mismatch: {va} vs {vb}");
        }
        let gout = Tensor::from_vec(
            ya.shape(),
            (0..ya.len()).map(|i| (i % 5) as f32 - 2.0).collect(),
        );
        let ga = a.backward(&gout);
        let gb = b.backward(&gout);
        for (va, vb) in ga.as_slice().iter().zip(gb.as_slice()) {
            assert!((va - vb).abs() < 1e-4, "input-grad mismatch: {va} vs {vb}");
        }
        for (va, vb) in a.params()[0].grads.iter().zip(b.params()[0].grads.iter()) {
            assert!((va - vb).abs() < 1e-3, "weight-grad mismatch: {va} vs {vb}");
        }
    }

    #[test]
    fn pointwise_convolution_paths_agree() {
        // 1x1/no-pad: degenerate lowering (col rows == input planes).
        let mut rng = StdRng::seed_from_u64(8);
        let mut a = Conv2d::new(4, 2, 1, 0, &mut rng);
        let mut b = a.clone();
        a.set_kernel_path(KernelPath::Direct);
        b.set_kernel_path(KernelPath::Gemm);
        let x = Tensor::from_vec(
            &[2, 4, 5, 5],
            (0..2 * 4 * 25)
                .map(|i| ((i * 3) % 17) as f32 / 17.0 - 0.4)
                .collect(),
        );
        let ya = a.forward(&x, true);
        let yb = b.forward(&x, true);
        for (va, vb) in ya.as_slice().iter().zip(yb.as_slice()) {
            assert!((va - vb).abs() < 1e-5);
        }
        let gout = Tensor::from_vec(ya.shape(), vec![0.5; ya.len()]);
        let ga = a.backward(&gout);
        let gb = b.backward(&gout);
        for (va, vb) in ga.as_slice().iter().zip(gb.as_slice()) {
            assert!((va - vb).abs() < 1e-5);
        }
    }

    #[test]
    fn auto_path_crosses_threshold() {
        // Pin thresholds so the assertions hold on any host tuning.
        let tuning = crate::tune::Tuning {
            conv_gemm_min_oc: 12,
            conv_gemm_min_ckk: 32,
            conv_gemm_min_macs: 1 << 18,
            ..crate::tune::Tuning::default()
        };
        let base = crate::exec::current();
        crate::exec::scoped(crate::exec::Exec { tuning, ..base }, || {
            let mut rng = StdRng::seed_from_u64(9);
            // Few output channels: direct regardless of how many columns.
            let conv = Conv2d::new(6, 6, 3, 1, &mut rng);
            assert!(!conv.use_gemm(54, 1 << 20));
            // Shallow reduction (single input channel): direct.
            let conv = Conv2d::new(1, 16, 3, 1, &mut rng);
            assert!(!conv.use_gemm(9, 1 << 20));
            // Channel-rich and deep but tiny total work: direct.
            let conv = Conv2d::new(6, 16, 3, 0, &mut rng);
            assert!(!conv.use_gemm(54, 100));
            // Channel-rich, deep, batch-sized columns: GEMM (unless the
            // reference feature pins the direct path).
            assert_eq!(conv.use_gemm(54, 32 * 100), !cfg!(feature = "reference"));
        });
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
