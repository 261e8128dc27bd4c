//! 2×2 max pooling.

use crate::layer::Layer;
use crate::tensor::Tensor;

/// 2×2 max pooling with stride 2 over `[N, C, H, W]` inputs.
///
/// Odd trailing rows/columns are dropped (floor semantics), matching the
/// common deep-learning default.
#[derive(Clone, Debug, Default)]
pub struct MaxPool2 {
    cached_input_shape: Vec<usize>,
    cached_argmax: Vec<usize>,
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
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let os = out.as_mut_slice();
        // Only a training forward records where each maximum came from
        // (backward routes through it), in the previous step's buffer.
        let mut argmax = Vec::new();
        if train {
            argmax = std::mem::take(&mut self.cached_argmax);
            argmax.clear();
            argmax.reserve(n * c * oh * ow);
        }
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
                        if train {
                            argmax.push(best_idx);
                        }
                    }
                }
            }
        }
        if train {
            self.cached_input_shape = x.shape().to_vec();
            self.cached_argmax = argmax;
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            !self.cached_input_shape.is_empty(),
            "backward before forward(train=true)"
        );
        let mut grad_in = Tensor::zeros(&self.cached_input_shape);
        let gi = grad_in.as_mut_slice();
        for (o, &src) in self.cached_argmax.iter().enumerate() {
            gi[src] += grad_out.as_slice()[o];
        }
        grad_in
    }

    fn release_training_state(&mut self) {
        self.cached_input_shape = Vec::new();
        self.cached_argmax = Vec::new();
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
