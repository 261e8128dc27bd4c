//! Differential oracle for `Conv2d`: the direct convolution against an
//! im2col + GEMM lowering built here, on random shapes and on the
//! classifiers' channel-rich training shapes. The forward, the weight and
//! bias gradients and the input gradient are compared element by element.
//!
//! The two sides sum the same terms in different orders, so they differ by
//! reassociation alone. Each f32 sum of `k` terms (a product rounds once,
//! each addition once) lies within `γ_k · Σ|terms|` of the exact sum, with
//! `γ_k = k·u / (1 − k·u)` and `u = 2⁻²⁴` (Higham, *Accuracy and Stability
//! of Numerical Algorithms*, §3.1). For the forward `k = C·K·K + 1`: the
//! taps and the bias. For `dW` and `db` it is the `N·OH·OW` positions that
//! feed the entry, and for the input gradient the `OC·K·K` taps. Two sums
//! of the same terms are then at most `2·γ_k · Σ|terms|` apart; `Σ|terms|`
//! is taken in `f64`, where it rounds far below that bound.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resilient_perception::nn::gemm::gemm;
use resilient_perception::nn::layers::Conv2d;
use resilient_perception::nn::{Layer, Tensor};

/// `γ_k` in f32 arithmetic.
fn gamma(k: usize) -> f64 {
    let ku = k as f64 * f64::from(f32::EPSILON) / 2.0;
    ku / (1.0 - ku)
}

/// A convolution's geometry: batch, channels in and out, kernel, padding,
/// input height and width.
#[derive(Clone, Copy, Debug)]
struct Shape {
    n: usize,
    c: usize,
    oc: usize,
    k: usize,
    p: usize,
    h: usize,
    w: usize,
}

impl Shape {
    fn out_hw(self) -> (usize, usize) {
        (
            self.h + 2 * self.p - self.k + 1,
            self.w + 2 * self.p - self.k + 1,
        )
    }

    fn ckk(self) -> usize {
        self.c * self.k * self.k
    }

    /// Columns of the patch matrix, `N·OH·OW`.
    fn cols(self) -> usize {
        let (oh, ow) = self.out_hw();
        self.n * oh * ow
    }

    /// Input position read by patch row `r` at column `col`, or `None`
    /// where the column reads padding.
    fn source(self, r: usize, col: usize) -> Option<usize> {
        let (oh, ow) = self.out_hw();
        let (ic, ky, kx) = (r / (self.k * self.k), r / self.k % self.k, r % self.k);
        let (img, oy, ox) = (col / (oh * ow), col / ow % oh, col % ow);
        let y = (oy + ky).checked_sub(self.p).filter(|&y| y < self.h)?;
        let x = (ox + kx).checked_sub(self.p).filter(|&x| x < self.w)?;
        Some(((img * self.c + ic) * self.h + y) * self.w + x)
    }
}

/// The patch matrix `[C·K·K, N·OH·OW]` of `x`, zeros where it reads
/// padding.
fn im2col(s: Shape, x: &[f32]) -> Vec<f32> {
    let cols = s.cols();
    let mut col = vec![0.0f32; s.ckk() * cols];
    for (i, v) in col.iter_mut().enumerate() {
        if let Some(src) = s.source(i / cols, i % cols) {
            *v = x[src];
        }
    }
    col
}

fn transpose(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0f32; a.len()];
    for i in 0..rows {
        for j in 0..cols {
            t[j * rows + i] = a[i * cols + j];
        }
    }
    t
}

/// `Σ|a_ip · b_pj|` per element of `A·B`, in f64.
fn abs_products(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = f64::from(a[i * k + p]).abs();
            for (o, &bv) in out[i * n..][..n].iter_mut().zip(&b[p * n..][..n]) {
                *o += av * f64::from(bv).abs();
            }
        }
    }
    out
}

/// Regroups `[N, OC, OH·OW]` to the patch matrix's `[OC, N·OH·OW]` layout.
fn to_columns(s: Shape, y: &[f32]) -> Vec<f32> {
    let (oh, ow) = s.out_hw();
    let ohow = oh * ow;
    let mut out = vec![0.0f32; y.len()];
    for img in 0..s.n {
        for oc in 0..s.oc {
            out[oc * s.cols() + img * ohow..][..ohow]
                .copy_from_slice(&y[(img * s.oc + oc) * ohow..][..ohow]);
        }
    }
    out
}

/// Checks `got` against `want` within `2·γ_k · Σ|terms|` per element.
fn assert_close(what: &str, s: Shape, got: &[f32], want: &[f32], abs: &[f64], k: usize) {
    assert_eq!(got.len(), want.len(), "{what} length, {s:?}");
    for (i, ((&g, &w), &a)) in got.iter().zip(want).zip(abs).enumerate() {
        let bound = 2.0 * gamma(k) * a;
        let diff = (f64::from(g) - f64::from(w)).abs();
        assert!(
            diff <= bound,
            "{what}[{i}]: direct {g} vs oracle {w}, |diff| {diff:e} > bound {bound:e}, {s:?}"
        );
    }
}

fn values(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect()
}

/// Runs one training forward and full backward of a random layer of
/// shape `s` and compares every result with the oracle.
fn check(s: Shape, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conv = Conv2d::new(s.c, s.oc, s.k, s.p, &mut rng);
    let bias = values(&mut rng, s.oc);
    conv.params()[1].values.copy_from_slice(&bias);
    let weight = conv.weight().as_slice().to_vec();
    let (oh, ow) = s.out_hw();
    let x_len = s.n * s.c * s.h * s.w;
    let x = values(&mut rng, x_len);
    let dy = values(&mut rng, s.n * s.oc * oh * ow);
    let (ckk, cols) = (s.ckk(), s.cols());
    let col = im2col(s, &x);

    let y = conv.forward(&Tensor::from_vec(&[s.n, s.c, s.h, s.w], x), true);
    let mut want = vec![0.0f32; s.oc * cols];
    gemm(s.oc, ckk, cols, &weight, &col, &mut want);
    let mut abs = abs_products(&weight, &col, s.oc, ckk, cols);
    for (oc, &b) in bias.iter().enumerate() {
        for (v, a) in want[oc * cols..][..cols]
            .iter_mut()
            .zip(&mut abs[oc * cols..][..cols])
        {
            *v += b;
            *a += f64::from(b).abs();
        }
    }
    let got = to_columns(s, y.as_slice());
    assert_close("forward", s, &got, &want, &abs, ckk + 1);

    let gx = conv.backward(&Tensor::from_vec(&[s.n, s.oc, oh, ow], dy.clone()));
    let dy = to_columns(s, &dy);
    // dW = dY · colᵀ, [OC, C·K·K].
    let col_t = transpose(&col, ckk, cols);
    let mut want = vec![0.0f32; s.oc * ckk];
    gemm(s.oc, cols, ckk, &dy, &col_t, &mut want);
    let abs = abs_products(&dy, &col_t, s.oc, cols, ckk);
    assert_close("dW", s, conv.params()[0].grads, &want, &abs, cols);
    // db = Σ dY over positions: dY · 1.
    let ones = vec![1.0f32; cols];
    let mut want = vec![0.0f32; s.oc];
    gemm(s.oc, cols, 1, &dy, &ones, &mut want);
    let abs = abs_products(&dy, &ones, s.oc, cols, 1);
    assert_close("db", s, conv.params()[1].grads, &want, &abs, cols);
    // dX: dcol = Wᵀ · dY, then each patch entry back to the input
    // position it read (col2im). An input position collects one term per
    // tap and output channel, so its sum is the sum of those dcol terms.
    let w_t = transpose(&weight, s.oc, ckk);
    let mut dcol = vec![0.0f32; ckk * cols];
    gemm(ckk, s.oc, cols, &w_t, &dy, &mut dcol);
    let dcol_abs = abs_products(&w_t, &dy, ckk, s.oc, cols);
    let mut want = vec![0.0f32; x_len];
    let mut abs = vec![0.0f64; x_len];
    for r in 0..ckk {
        for c in 0..cols {
            if let Some(src) = s.source(r, c) {
                want[src] += dcol[r * cols + c];
                abs[src] += dcol_abs[r * cols + c];
            }
        }
    }
    assert_close("dX", s, gx.as_slice(), &want, &abs, s.oc * s.k * s.k);
}

#[test]
fn direct_conv_matches_the_im2col_gemm_oracle() {
    // The classifiers' channel-rich training shapes: alexnet-mini's
    // 8→16 at 16² and 16→24 at 8², lenet-mini's 6→16 at 14², at a
    // one-image tail, a small batch and a lane block plus one.
    for n in [1, 3, 17] {
        for (c, oc, p, side) in [(8, 16, 1, 16), (16, 24, 1, 8), (6, 16, 0, 14)] {
            let s = Shape {
                n,
                c,
                oc,
                k: 3,
                p,
                h: side,
                w: side,
            };
            check(s, (n * 1000 + c * 10 + oc) as u64);
        }
    }
    let mut rng = StdRng::seed_from_u64(2028);
    for case in 0..60 {
        let k = [1, 3, 5][rng.random_range(0..3usize)];
        let p = rng.random_range(0..3usize);
        let s = Shape {
            n: rng.random_range(1..5usize),
            c: rng.random_range(1..6usize),
            oc: rng.random_range(1..7usize),
            k,
            p,
            h: rng.random_range(1..15usize),
            w: rng.random_range(1..15usize),
        };
        if s.h + 2 * p < k || s.w + 2 * p < k {
            continue;
        }
        check(s, case);
    }
}
