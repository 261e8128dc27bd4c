//! 2×2 max pooling.

use crate::layer::{refill, Layer};
use crate::tensor::Tensor;

/// 2×2 max pooling with stride 2 over `[N, C, H, W]` inputs.
///
/// Odd trailing rows/columns are dropped (floor semantics), matching the
/// common deep-learning default.
#[derive(Clone, Debug, Default)]
pub struct MaxPool2 {
    cached_input_shape: Vec<usize>,
    /// Input index of each output's maximum (first of a tie, the window's
    /// top-left when it holds a `NaN` there).
    cached_argmax: Vec<u32>,
    /// An allocation lent through [`Layer::lend`], for the next output or
    /// input gradient to refill.
    lent: Vec<f32>,
}

impl MaxPool2 {
    /// Creates a 2×2 max-pool layer.
    pub fn new() -> Self {
        MaxPool2::default()
    }
}

impl Layer for MaxPool2 {
    fn name(&self) -> &'static str {
        "maxpool2"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let [n, c, h, w]: [usize; 4] = x.shape().try_into().expect("maxpool expects [N,C,H,W]");
        let (oh, ow) = (h / 2, w / 2);
        assert!(oh > 0 && ow > 0, "maxpool input too small");
        let xs = x.as_slice();
        assert!(
            u32::try_from(xs.len()).is_ok(),
            "maxpool input exceeds u32 indexing"
        );
        let mut out = refill(&mut self.lent, n * c * oh * ow);
        out.resize(n * c * oh * ow, 0.0);
        // Only a training forward records where each maximum came from
        // (backward routes through it), in the previous step's buffer.
        let mut argmax = Vec::new();
        if train {
            argmax = std::mem::take(&mut self.cached_argmax);
            argmax.clear();
            argmax.reserve(n * c * oh * ow);
        }
        let planes = xs.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow));
        for (plane_idx, (plane, out_plane)) in planes.enumerate() {
            let base = plane_idx * h * w;
            for (oy, out_row) in out_plane.chunks_exact_mut(ow).enumerate() {
                let top = &plane[2 * oy * w..][..2 * ow];
                let bottom = &plane[(2 * oy + 1) * w..][..2 * ow];
                for (ox, o) in out_row.iter_mut().enumerate() {
                    // Window order: top-left, top-right, bottom-left,
                    // bottom-right; only a strictly larger value wins.
                    let mut best = top[2 * ox];
                    let mut best_off = 0;
                    for (v, off) in [
                        (top[2 * ox + 1], 1),
                        (bottom[2 * ox], w),
                        (bottom[2 * ox + 1], w + 1),
                    ] {
                        if v > best {
                            best = v;
                            best_off = off;
                        }
                    }
                    *o = best;
                    if train {
                        // In range: the length check above bounds every index.
                        argmax.push((base + 2 * oy * w + 2 * ox + best_off) as u32);
                    }
                }
            }
        }
        if train {
            self.cached_input_shape = x.shape().to_vec();
            self.cached_argmax = argmax;
        }
        Tensor::from_vec(&[n, c, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            !self.cached_input_shape.is_empty(),
            "backward before forward(train=true)"
        );
        let len = self.cached_input_shape.iter().product();
        let mut gi = refill(&mut self.lent, len);
        gi.resize(len, 0.0);
        for (&src, &g) in self.cached_argmax.iter().zip(grad_out.as_slice()) {
            gi[src as usize] += g;
        }
        Tensor::from_vec(&self.cached_input_shape, gi)
    }

    fn lend(&mut self, buffer: Vec<f32>) {
        self.lent = buffer;
    }

    fn release_training_state(&mut self) {
        self.cached_input_shape = Vec::new();
        self.cached_argmax = Vec::new();
        self.lent = Vec::new();
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        vec![input[0], input[1], input[2] / 2, input[3] / 2]
    }

    fn macs(&self, input: &[usize]) -> u64 {
        // comparisons, not MACs; count as one op per input element read
        (input.iter().product::<usize>()) as u64
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_takes_max_per_window() {
        let mut pool = MaxPool2::new();
        let x = Tensor::from_vec(
            &[1, 1, 4, 4],
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        );
        let y = pool.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[4., 8., 12., 16.]);
    }

    /// The per-element loops this layer replaced, with `usize` argmax.
    fn maxpool_oracle(x: &Tensor, g: &[f32]) -> (Vec<f32>, Vec<usize>, Vec<f32>) {
        let [n, c, h, w]: [usize; 4] = x.shape().try_into().unwrap();
        let (oh, ow) = (h / 2, w / 2);
        let xs = x.as_slice();
        let mut os = vec![0.0f32; n * c * oh * ow];
        let mut argmax = Vec::new();
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best_idx = base + (2 * oy) * w + 2 * ox;
                        let mut best = xs[best_idx];
                        for (dy, dx) in [(0usize, 1usize), (1, 0), (1, 1)] {
                            let idx = base + (2 * oy + dy) * w + 2 * ox + dx;
                            if xs[idx] > best {
                                best = xs[idx];
                                best_idx = idx;
                            }
                        }
                        os[((img * c + ch) * oh + oy) * ow + ox] = best;
                        argmax.push(best_idx);
                    }
                }
            }
        }
        let mut gi = vec![0.0f32; xs.len()];
        for (o, &src) in argmax.iter().enumerate() {
            gi[src] += g[o];
        }
        (os, argmax, gi)
    }

    #[test]
    fn pooling_is_bit_identical_to_the_per_element_loops() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Odd sides (dropped edge), NaN first and later in a window, signed
        // zeros tying, exact ties and all-equal windows.
        let specials = [
            f32::NAN,
            -0.0,
            0.0,
            1.0,
            1.0,
            -f32::NAN,
            -2.0,
            f32::NEG_INFINITY,
            3.0,
            -0.0,
        ];
        let (n, c, h, w) = (2, 3, 7, 9);
        let xs: Vec<f32> = (0..n * c * h * w)
            .map(|i| {
                if i % 3 == 0 {
                    specials[(i / 3) % specials.len()]
                } else {
                    ((i * 7) % 5) as f32 - 2.0
                }
            })
            .collect();
        // Hand-made windows (columns pairwise): NaN top-left, NaN later,
        // signed zeros only, a three-way tie, a bottom-right winner.
        let nan = f32::NAN;
        #[rustfmt::skip]
        let windows = vec![
            nan, 1.0, 1.0, nan, -0.0, 0.0, 2.0, 2.0, 0.5, 0.25,
            2.0, 3.0, 0.0, 2.0, 0.0, -0.0, 2.0, 1.0, 0.75, 4.0,
        ];
        let mut pool = MaxPool2::new();
        for x in [
            Tensor::from_vec(&[n, c, h, w], xs),
            Tensor::from_vec(&[1, 1, 2, 10], windows),
        ] {
            let [n, c, h, w]: [usize; 4] = x.shape().try_into().unwrap();
            let outs = n * c * (h / 2) * (w / 2);
            let g: Vec<f32> = (0..outs)
                .map(|i| if i % 4 == 1 { -0.0 } else { i as f32 - 9.5 })
                .collect();
            let (want_y, want_argmax, want_g) = maxpool_oracle(&x, &g);
            // Twice, so the second step reuses the first step's buffer.
            for _ in 0..2 {
                assert_eq!(bits(pool.forward(&x, false).as_slice()), bits(&want_y));
                assert_eq!(bits(pool.forward(&x, true).as_slice()), bits(&want_y));
                let argmax: Vec<usize> = pool.cached_argmax.iter().map(|&i| i as usize).collect();
                assert_eq!(argmax, want_argmax);
                let gt = Tensor::from_vec(&[n, c, h / 2, w / 2], g.clone());
                assert_eq!(bits(pool.backward(&gt).as_slice()), bits(&want_g));
            }
        }
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2::new();
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 9., 3., 2.]);
        let y = pool.forward(&x, true);
        assert_eq!(y.as_slice(), &[9.0]);
        let g = pool.backward(&Tensor::from_vec(&[1, 1, 1, 1], vec![2.5]));
        assert_eq!(g.as_slice(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn inference_forward_matches_training_and_caches_nothing() {
        let x = Tensor::from_vec(
            &[2, 3, 5, 6],
            (0..180)
                .map(|i| ((i * 37) % 29) as f32 / 7.0 - 2.0)
                .collect(),
        );
        let mut infer = MaxPool2::new();
        let mut train = MaxPool2::new();
        let bits = |y: Tensor| y.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(infer.forward(&x, false)),
            bits(train.forward(&x, true))
        );
        assert_eq!(infer.cached_argmax.capacity(), 0);
        assert!(infer.cached_input_shape.is_empty());
        assert_eq!(train.cached_argmax.len(), 2 * 3 * 2 * 3);
        train.release_training_state();
        assert_eq!(train.cached_argmax.capacity(), 0);
        assert!(train.cached_input_shape.is_empty());
    }

    #[test]
    fn odd_sizes_floor() {
        let mut pool = MaxPool2::new();
        let x = Tensor::zeros(&[1, 1, 5, 5]);
        let y = pool.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(pool.output_shape(&[1, 1, 5, 5]), vec![1, 1, 2, 2]);
    }

    #[test]
    fn multi_channel_independence() {
        let mut pool = MaxPool2::new();
        let x = Tensor::from_vec(&[1, 2, 2, 2], vec![1., 2., 3., 4., 10., 20., 30., 40.]);
        let y = pool.forward(&x, false);
        assert_eq!(y.as_slice(), &[4., 40.]);
    }
}
