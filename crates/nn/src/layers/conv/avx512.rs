//! AVX-512F kernels of the direct convolution path: one per loop nest of
//! the reference kernels in [`super`], run when the execution context's
//! kernel is [`crate::gemm::Kernel::Avx512`] ([`Avx512::get`]).
//!
//! - [`Avx512::rows`] is the forward ([`super::forward_rows`]) and the
//!   input gradient ([`super::input_grad_rows`]): a block of [`ROWS`] rows
//!   × one or two 16-lane vectors for up to four output planes at once, so
//!   one load of an input row serves every plane of the block, and masked
//!   stores keep only the block's real rows and lanes;
//! - [`Avx512::weight_grad_block`] runs a 16-image lane block as one zmm
//!   register per chain, up to [`GROUP`] chains of a `dy` row (all `K·K`
//!   taps of one input channel of a 3×3 kernel) side by side, the bias
//!   chain beside the first group;
//! - [`Avx512::to_lanes`] regroups 16 images image-minor through 16×16
//!   register transposes (the `image_minor` lowering and the `dy` block).
//!
//! Every kernel keeps its reference loop's per-element order (module docs
//! of [`super`]): the same products, added in the same order by separate
//! multiply and add instructions — **never FMA** — with the same skipped
//! zero-weight taps and the same masked lanes and rows. Each lane
//! therefore runs the reference's IEEE-754 operation sequence and the
//! results are bit-identical; only the block shapes, which never enter an
//! element's order, differ. (Products may take their operands in the
//! other order: IEEE multiplication commutes, and Rust leaves the payload
//! of a NaN result unspecified.)

// One of the crate modules where `unsafe` is allowed (see `lib.rs`): the
// `std::arch` kernels below and their raw-pointer loads and stores.
#![allow(unsafe_code)]

use super::ROWS;
#[allow(clippy::wildcard_imports)]
use std::arch::x86_64::*;

/// `f32` lanes per zmm register: the images of one weight-gradient lane
/// block, and the columns of one vector of a row block.
const L: usize = 16;

/// Most weight-gradient chains walked side by side: the nine taps of one
/// input channel of a 3×3 kernel.
const GROUP: usize = 9;

/// Proof that the AVX-512F kernels may run: only [`Avx512::get`] makes
/// one, and only when the execution context picked [`Kernel::Avx512`],
/// which `available_kernels` offers only on hosts with AVX-512F.
///
/// [`Kernel::Avx512`]: crate::gemm::Kernel::Avx512
#[derive(Clone, Copy, Debug)]
pub(super) struct Avx512(());

impl Avx512 {
    /// The kernels, when the execution context runs
    /// [`crate::gemm::Kernel::Avx512`].
    pub(super) fn get() -> Option<Self> {
        (crate::exec::current().kernel == crate::gemm::Kernel::Avx512).then_some(Avx512(()))
    }

    /// Lane segment of the register blocks of [`Avx512::rows`] over planes
    /// `width` values wide: two vectors (32 lanes), or one when a row fits
    /// in one. Blocks are [`ROWS`] rows high.
    pub(super) fn segment(width: usize) -> usize {
        if width > L {
            2 * L
        } else {
            L
        }
    }

    /// The forward's taps for [`Avx512::rows`]: per block of output
    /// channels, every `(ic, ky, kx)` in order at its offset into an
    /// image's padded planes (`PH × PW` each), skipping a tap whose weight
    /// is zero in every channel of the block; the channels where it is
    /// zero skip it by a masked add.
    pub(super) fn forward_taps(
        self,
        weights: &[f32],
        [oc_n, c, k]: [usize; 3],
        [ph, pw]: [usize; 2],
    ) -> Taps {
        let ckk = c * k * k;
        assert_eq!(weights.len(), oc_n * ckk, "weight shape");
        Taps::build(oc_n, ckk, true, |oc, t| {
            let (ic, ky, kx) = (t / (k * k), t / k % k, t % k);
            let w = weights[oc * ckk + t];
            ((ic * ph + ky) * pw + kx, w, ky, kx)
        })
    }

    /// The input gradient's taps for [`Avx512::rows`]: per block of input
    /// channels, every `(oc, ky, kx)` in order at its offset into the `dy`
    /// window (plane stride `splane`, row stride `srow`), none skipped.
    pub(super) fn input_grad_taps(
        self,
        weights: &[f32],
        [oc_n, c, k]: [usize; 3],
        [splane, srow]: [usize; 2],
    ) -> Taps {
        let kk = k * k;
        assert_eq!(weights.len(), oc_n * c * kk, "weight shape");
        Taps::build(c, oc_n * kk, false, |ic, t| {
            let (oc, ky, kx) = (t / kk, t / k % k, t % k);
            let w = weights[(oc * c + ic) * kk + t % kk];
            (oc * splane + (k - 1 - ky) * srow + (k - 1 - kx), w, ky, kx)
        })
    }

    /// [`super::forward_rows`] and [`super::input_grad_rows`] on AVX-512:
    /// appends one image's output planes (`[planes, h, w]`) to `out`. Per
    /// block of up to four planes and [`ROWS`] rows × [`Avx512::segment`]
    /// lanes, the accumulators start at the plane's `init` value and add
    /// `w·x` over the block's `taps` in order, `x` read at `src + origin +
    /// tap offset` in rows `stride` apart. With `masks` (per 16-lane vector
    /// and `kx`, the lanes inside the output; the input gradient's when
    /// `P < K-1`), a tap skips the rows outside the `OH`-row output
    /// (`[k, p, oh]`) by a branch and the lanes outside by a masked add
    /// that keeps the old sum. `src` holds the spare rows and lanes of the
    /// blocks.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn rows(
        self,
        src: &[f32],
        taps: &Taps,
        init: &[f32],
        masks: &[u16],
        [k, p, oh]: [usize; 3],
        [stride, origin]: [usize; 2],
        [h, w]: [usize; 2],
        out: &mut Vec<f32>,
    ) {
        let seg = Self::segment(w);
        let masked = !masks.is_empty();
        assert_eq!(init.len(), taps.planes, "one start value per plane");
        assert!(taps.taps.iter().all(|t| t.ky < k && t.kx < k));
        assert!(
            !masked || masks.len() >= w.next_multiple_of(seg) / L * k,
            "lane masks too short"
        );
        let reach = origin + (h.next_multiple_of(ROWS) - 1) * stride + w.next_multiple_of(seg);
        let top = taps.taps.iter().map(|t| t.off).max().unwrap_or(0);
        assert!(
            taps.taps.is_empty() || top + reach <= src.len(),
            "source too short"
        );
        let len = taps.planes * h * w;
        out.reserve(len);
        let dst = out.spare_capacity_mut().as_mut_ptr().cast::<f32>();
        let geometry = [k, p, oh, stride, origin, h, w];
        for &(first, width, ref range) in &taps.blocks {
            let (t, init) = (&taps.taps[range.clone()], &init[first..first + width]);
            // SAFETY: `self` proves AVX-512F; loads stay below `top + reach`
            // in `src` and mask reads inside `masks`, as asserted; stores
            // land in planes `first ..` of the `len` reserved values.
            unsafe {
                let (s, d) = (src.as_ptr(), dst.add(first * h * w));
                match (seg == L, width, masked) {
                    (true, 4, false) => rows::<1, 4, false>(s, t, init, masks, geometry, d),
                    (true, 2, false) => rows::<1, 2, false>(s, t, init, masks, geometry, d),
                    (true, _, false) => rows::<1, 1, false>(s, t, init, masks, geometry, d),
                    (true, 4, true) => rows::<1, 4, true>(s, t, init, masks, geometry, d),
                    (true, 2, true) => rows::<1, 2, true>(s, t, init, masks, geometry, d),
                    (true, _, true) => rows::<1, 1, true>(s, t, init, masks, geometry, d),
                    (false, 4, false) => rows::<2, 4, false>(s, t, init, masks, geometry, d),
                    (false, 2, false) => rows::<2, 2, false>(s, t, init, masks, geometry, d),
                    (false, _, false) => rows::<2, 1, false>(s, t, init, masks, geometry, d),
                    (false, 4, true) => rows::<2, 4, true>(s, t, init, masks, geometry, d),
                    (false, 2, true) => rows::<2, 2, true>(s, t, init, masks, geometry, d),
                    (false, _, true) => rows::<2, 1, true>(s, t, init, masks, geometry, d),
                }
            }
        }
        // SAFETY: the blocks cover every plane once and each block writes
        // every row and lane of its planes, so all `len` values are
        // initialised.
        unsafe { out.set_len(out.len() + len) };
    }

    /// [`super::weight_grad_block`] for a block 16 images wide: adds the
    /// block's weight-gradient chains into `gw` and its bias chains into
    /// `gb`, in the reference's orders; lanes from `valid` on are spare and
    /// dropped.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn weight_grad_block(
        self,
        dyt: &[f32],
        xb: &[f32],
        valid: usize,
        [c, k]: [usize; 2],
        [ph, pw, oh, ow]: [usize; 4],
        gw: &mut [f32],
        gb: &mut [f32],
    ) {
        let oc_n = gb.len();
        assert!(
            ph + 1 >= oh + k && pw + 1 >= ow + k,
            "padded plane too small"
        );
        assert_eq!(gw.len(), oc_n * c * k * k, "weight gradient shape");
        assert!(dyt.len() >= oc_n * oh * ow * L, "dy block too short");
        assert!(xb.len() >= c * ph * pw * L, "input block too short");
        // Each chain's first input value, lane-scaled: `(ic, ky, kx)` at
        // `((ic·PH + ky)·PW + kx)·16`.
        let offs: Vec<usize> = (0..c * k * k)
            .map(|t| ((t / (k * k) * ph + t / k % k) * pw + t % k) * L)
            .collect();
        // SAFETY: `self` proves AVX-512F. Loads read `dyt[(oc·OH·OW + oy·OW
        // + ox)·16 + l]` and `xb[offs + ((oy·PW + ox)·16 + l)]`, inside the
        // slices as asserted (`oy + ky < PH`, `ox + kx < PW`).
        unsafe {
            weight_grad(
                dyt.as_ptr(),
                xb.as_ptr(),
                &offs,
                [pw, oh, ow, valid],
                gw,
                gb,
            )
        }
    }

    /// [`super::to_lanes`] for a block 16 images wide: fills `dst` with
    /// images `b0 .. b0 + valid` of `src` (`stride` values apart),
    /// image-minor, `dst[i·16 + l] = src[(b0 + l)·stride + off + i]`, and
    /// zero lanes from `valid` on.
    pub(super) fn to_lanes(
        self,
        src: &[f32],
        [stride, off]: [usize; 2],
        [b0, valid]: [usize; 2],
        dst: &mut [f32],
    ) {
        let len = dst.len() / L;
        assert_eq!(dst.len(), len * L, "whole lane rows");
        assert!((1..=L).contains(&valid), "lanes in a block");
        assert!(
            len == 0 || (b0 + valid - 1) * stride + off + len <= src.len(),
            "source too short"
        );
        if len > 0 {
            // SAFETY: `self` proves AVX-512F; the loads read `src[(b0 + l)·
            // stride + off + i]` for `l < valid`, `i < len` (masked beyond),
            // and the stores write `dst[i·16 ..][..16]`, both as asserted.
            unsafe {
                let first = src.as_ptr().add(b0 * stride + off);
                to_lanes(first, stride, [len, valid], dst.as_mut_ptr());
            }
        }
    }
}

/// The mask of the first `n` of 16 lanes.
#[inline(always)]
fn lanes(n: usize) -> __mmask16 {
    if n >= L {
        u16::MAX
    } else {
        (1u16 << n) - 1
    }
}

/// Stores the first `rows` rows and `live` lanes of a register block at
/// `dst` (row stride `stride`).
///
/// # Safety
///
/// AVX-512F; `dst + r·stride + i` is writable for `r < rows`, `i < live`.
// SAFETY: the contract above is met by `rows`, the only caller.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn store<const R: usize, const V: usize>(
    acc: &[[__m512; V]; R],
    dst: *mut f32,
    stride: usize,
    rows: usize,
    live: usize,
) {
    for (r, row) in acc.iter().enumerate().take(rows) {
        for (v, &a) in row.iter().enumerate() {
            if live > v * L {
                _mm512_mask_storeu_ps(dst.add(r * stride + v * L), lanes(live - v * L), a);
            }
        }
    }
}

/// Most planes per block of [`Avx512::rows`].
const PLANES: usize = 4;

/// One tap of [`Avx512::rows`]: its offset, its weight in each plane of
/// the block, which planes add it (bit `j` for plane `j`), and its
/// `(ky, kx)`.
#[derive(Clone, Copy, Debug)]
struct Tap {
    off: usize,
    w: [f32; PLANES],
    live: u8,
    ky: usize,
    kx: usize,
}

/// The taps of [`Avx512::rows`]: per block of up to [`PLANES`] planes
/// (first plane, plane count, its run of `taps`), in plane order.
#[derive(Debug)]
pub(super) struct Taps {
    planes: usize,
    blocks: Vec<(usize, usize, std::ops::Range<usize>)>,
    taps: Vec<Tap>,
}

impl Taps {
    /// Blocks of four planes, then two and one for the rest, each with
    /// the taps `0 .. per_plane` in order: `tap(plane, t)` gives the
    /// offset, weight and `(ky, kx)`. With `skip_zeros`, a tap whose
    /// weight is zero in every plane of the block is left out and `live`
    /// marks the planes where it is not zero; otherwise every plane adds
    /// every tap.
    fn build(
        planes: usize,
        per_plane: usize,
        skip_zeros: bool,
        tap: impl Fn(usize, usize) -> (usize, f32, usize, usize),
    ) -> Self {
        let mut out = Taps {
            planes,
            blocks: Vec::new(),
            taps: Vec::with_capacity(planes * per_plane),
        };
        let mut first = 0;
        while first < planes {
            let width = [PLANES, 2, 1]
                .into_iter()
                .find(|&b| first + b <= planes)
                .unwrap_or(1);
            let start = out.taps.len();
            for t in 0..per_plane {
                let (off, _, ky, kx) = tap(first, t);
                let mut w = [0.0; PLANES];
                let mut live = 0;
                for (j, wj) in w.iter_mut().enumerate().take(width) {
                    *wj = tap(first + j, t).1;
                    live |= u8::from(!skip_zeros || *wj != 0.0) << j;
                }
                if live != 0 {
                    out.taps.push(Tap {
                        off,
                        w,
                        live,
                        ky,
                        kx,
                    });
                }
            }
            out.blocks.push((first, width, start..out.taps.len()));
            first += width;
        }
        out
    }
}

/// One block of planes of [`Avx512::rows`]: per [`ROWS`] × `16V` block,
/// `B` planes' accumulators start at `init` and add `w·x` over `taps` in
/// order, one load of `x` shared by the `B` planes; the block's real rows
/// and lanes go to `dst` (`[B, H, W]`).
///
/// # Safety
///
/// AVX-512F, and the bounds [`Avx512::rows`] asserts.
// SAFETY: the contract above is met by `Avx512::rows`, the only caller;
// every pointer below stays inside the bounds it asserts.
#[target_feature(enable = "avx512f")]
unsafe fn rows<const V: usize, const B: usize, const MASKED: bool>(
    src: *const f32,
    taps: &[Tap],
    init: &[f32],
    masks: &[u16],
    [k, p, oh, stride, origin, h, w]: [usize; 7],
    dst: *mut f32,
) {
    let all = (1u8 << B) - 1;
    for y0 in (0..h).step_by(ROWS) {
        for x0 in (0..w).step_by(V * L) {
            let mut acc: [[[__m512; V]; ROWS]; B] =
                std::array::from_fn(|j| [[_mm512_set1_ps(init[j]); V]; ROWS]);
            let block = src.add(origin + y0 * stride + x0);
            for tap in taps {
                let wv: [__m512; B] = std::array::from_fn(|j| _mm512_set1_ps(tap.w[j]));
                let x = block.add(tap.off);
                if !MASKED && tap.live == all {
                    for r in 0..ROWS {
                        for v in 0..V {
                            let xv = _mm512_loadu_ps(x.add(r * stride + v * L));
                            for (a, &wj) in acc.iter_mut().zip(&wv) {
                                a[r][v] = _mm512_add_ps(a[r][v], _mm512_mul_ps(wj, xv));
                            }
                        }
                    }
                    continue;
                }
                // Per plane and vector, the lanes that add this tap.
                let mut m = [[0u16; V]; B];
                for (j, mj) in m.iter_mut().enumerate() {
                    for (v, mv) in mj.iter_mut().enumerate() {
                        let lanes = if MASKED {
                            masks[(x0 / L + v) * k + tap.kx]
                        } else {
                            u16::MAX
                        };
                        *mv = if tap.live >> j & 1 == 1 { lanes } else { 0 };
                    }
                }
                for r in 0..ROWS {
                    if MASKED && (y0 + r + p).wrapping_sub(tap.ky) >= oh {
                        continue;
                    }
                    for v in 0..V {
                        let xv = _mm512_loadu_ps(x.add(r * stride + v * L));
                        for ((a, &wj), mj) in acc.iter_mut().zip(&wv).zip(&m) {
                            let prod = _mm512_mul_ps(wj, xv);
                            a[r][v] = _mm512_mask_add_ps(a[r][v], mj[v], a[r][v], prod);
                        }
                    }
                }
            }
            for (j, a) in acc.iter().enumerate() {
                let plane = dst.add(j * h * w + y0 * w + x0);
                store(a, plane, w, ROWS.min(h - y0), w - x0);
            }
        }
    }
}

/// The weight and bias gradients of one full lane block: per output
/// channel, every chain's zmm accumulator walks the `dy` rows in order;
/// per row, the chains advance in groups of up to [`GROUP`] over the same
/// `dy` vector, the bias chain beside the first group; then the lanes land
/// in `gw` and `gb` in image order.
///
/// # Safety
///
/// AVX-512F, and the bounds [`Avx512::weight_grad_block`] asserts.
// SAFETY: the contract above is met by `Avx512::weight_grad_block`, the
// only caller; every pointer below stays inside the bounds it asserts.
#[target_feature(enable = "avx512f")]
unsafe fn weight_grad(
    dyt: *const f32,
    xb: *const f32,
    offs: &[usize],
    [pw, oh, ow, valid]: [usize; 4],
    gw: &mut [f32],
    gb: &mut [f32],
) {
    let sum_start: f32 = std::iter::empty::<f32>().sum();
    let mut acc = vec![_mm512_setzero_ps(); offs.len()];
    for (oc, gb_v) in gb.iter_mut().enumerate() {
        let dplane = dyt.add(oc * oh * ow * L);
        acc.fill(_mm512_setzero_ps());
        let mut bias = _mm512_set1_ps(sum_start);
        for oy in 0..oh {
            let drow = dplane.add(oy * ow * L);
            let xrow = xb.add(oy * pw * L);
            for (g, (o, a)) in offs.chunks(GROUP).zip(acc.chunks_mut(GROUP)).enumerate() {
                let b = (g == 0).then_some(&mut bias);
                match o.len() {
                    1 => chains::<1>(drow, xrow, o, a, ow, b),
                    2 => chains::<2>(drow, xrow, o, a, ow, b),
                    3 => chains::<3>(drow, xrow, o, a, ow, b),
                    4 => chains::<4>(drow, xrow, o, a, ow, b),
                    5 => chains::<5>(drow, xrow, o, a, ow, b),
                    6 => chains::<6>(drow, xrow, o, a, ow, b),
                    7 => chains::<7>(drow, xrow, o, a, ow, b),
                    8 => chains::<8>(drow, xrow, o, a, ow, b),
                    _ => chains::<GROUP>(drow, xrow, o, a, ow, b),
                }
            }
        }
        let mut v = [0.0f32; L];
        _mm512_storeu_ps(v.as_mut_ptr(), bias);
        for &b in &v[..valid] {
            *gb_v += b;
        }
        for (g, &a) in gw[oc * offs.len()..][..offs.len()].iter_mut().zip(&acc) {
            _mm512_storeu_ps(v.as_mut_ptr(), a);
            for &lane in &v[..valid] {
                *g += lane;
            }
        }
    }
}

/// `N` weight-gradient chains over one `dy` row: chain `i` adds `dy·x`
/// for the row's columns in order, `x` read at `xrow + offs[i]`; `bias`,
/// when given, adds the `dy` values themselves.
///
/// # Safety
///
/// AVX-512F; `drow` holds `OW` lane vectors and `xrow + offs[i]` the `OW`
/// lane vectors of chain `i`'s input row.
// SAFETY: the contract above is met by `weight_grad`, the only caller.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn chains<const N: usize>(
    drow: *const f32,
    xrow: *const f32,
    offs: &[usize],
    acc: &mut [__m512],
    ow: usize,
    bias: Option<&mut __m512>,
) {
    let x: [*const f32; N] = std::array::from_fn(|i| xrow.add(offs[i]));
    let mut a: [__m512; N] = std::array::from_fn(|i| acc[i]);
    let mut step = |ox: usize| {
        let d = _mm512_loadu_ps(drow.add(ox * L));
        for (a, x) in a.iter_mut().zip(&x) {
            *a = _mm512_add_ps(*a, _mm512_mul_ps(d, _mm512_loadu_ps(x.add(ox * L))));
        }
        d
    };
    match bias {
        Some(b) => {
            let mut s = *b;
            for ox in 0..ow {
                s = _mm512_add_ps(s, step(ox));
            }
            *b = s;
        }
        None => {
            for ox in 0..ow {
                step(ox);
            }
        }
    }
    acc[..N].copy_from_slice(&a);
}

/// Regroups `valid` images image-minor, 16 positions at a time: image
/// `l`'s values `i0 .. i0 + 16` (read at `src + l·stride + i0`, masked
/// past `len`; zero from image `valid` on) are transposed so position `i`
/// becomes one 16-lane vector, stored at `dst + i·16`.
///
/// # Safety
///
/// AVX-512F; `src + l·stride + i` is readable for `l < valid`, `i < len`,
/// and `dst` writable for `len·16` values.
// SAFETY: the contract above is met by `Avx512::to_lanes`, the only
// caller; the masked loads read nothing past `len`.
#[target_feature(enable = "avx512f")]
unsafe fn to_lanes(src: *const f32, stride: usize, [len, valid]: [usize; 2], dst: *mut f32) {
    for i0 in (0..len).step_by(L) {
        let live = (len - i0).min(L);
        let m = lanes(live);
        let mut rows = [_mm512_setzero_ps(); L];
        for (l, row) in rows.iter_mut().enumerate().take(valid) {
            *row = _mm512_maskz_loadu_ps(m, src.add(l * stride + i0));
        }
        for (i, col) in transpose(rows).into_iter().take(live).enumerate() {
            _mm512_storeu_ps(dst.add((i0 + i) * L), col);
        }
    }
}

/// 16×16 transpose: `out[j]` holds element `j` of every `r[i]`, in `i`
/// order.
#[target_feature(enable = "avx512f")]
#[inline]
fn transpose(r: [__m512; L]) -> [__m512; L] {
    // Per 128-bit quarter: pairs of rows interleaved, then quads, so
    // `q[4a + e]` holds element `4·quarter + e` of rows `4a .. 4a + 4`.
    let t: [__m512; L] = std::array::from_fn(|i| {
        let (a, b) = (r[i & !1], r[i | 1]);
        if i % 2 == 0 {
            _mm512_unpacklo_ps(a, b)
        } else {
            _mm512_unpackhi_ps(a, b)
        }
    });
    let q: [__m512; L] = std::array::from_fn(|i| {
        let base = i & !3;
        let (a, b) = (t[base + (i & 2) / 2], t[base + 2 + (i & 2) / 2]);
        let (a, b) = (_mm512_castps_pd(a), _mm512_castps_pd(b));
        _mm512_castpd_ps(if i % 2 == 0 {
            _mm512_unpacklo_pd(a, b)
        } else {
            _mm512_unpackhi_pd(a, b)
        })
    });
    // Quarters regrouped: `s[j]` / `s[j + 4]` (rows 0–7) and `s[j + 8]` /
    // `s[j + 12]` (rows 8–15) hold elements `j, j + 8` / `j + 4, j + 12`.
    let s: [__m512; L] = std::array::from_fn(|i| {
        let (half, hi, e) = (i / 8 * 8, i % 8 / 4, i % 4);
        let (a, b) = (q[half + e], q[half + 4 + e]);
        if hi == 0 {
            _mm512_shuffle_f32x4::<0x88>(a, b)
        } else {
            _mm512_shuffle_f32x4::<0xdd>(a, b)
        }
    });
    std::array::from_fn(|j| {
        let (lo, e) = (j % 8 / 4, j % 4);
        let (a, b) = (s[lo * 4 + e], s[8 + lo * 4 + e]);
        if j < 8 {
            _mm512_shuffle_f32x4::<0x88>(a, b)
        } else {
            _mm512_shuffle_f32x4::<0xdd>(a, b)
        }
    })
}
