//! Elementwise activation layers.

use crate::layer::{refill, Layer};
use crate::tensor::Tensor;

/// Rectified linear unit: `y = max(0, x)`.
///
/// Negative inputs become `+0.0`; `NaN` and `-0.0` pass through unchanged.
/// The gradient flows only where `x > 0`.
#[derive(Clone, Debug, Default)]
pub struct Relu {
    /// `x > 0` per element of the last training forward, in the previous
    /// step's buffer.
    cached_mask: Vec<bool>,
    /// An allocation lent through [`Layer::lend`], for the next output or
    /// input gradient to refill.
    lent: Vec<f32>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let relu = |v: f32| if v < 0.0 { 0.0 } else { v };
        let xs = x.as_slice();
        let mut y = refill(&mut self.lent, xs.len());
        y.resize(xs.len(), 0.0);
        if train {
            let mut mask = std::mem::take(&mut self.cached_mask);
            mask.clear();
            mask.resize(xs.len(), false);
            for ((out, keep), &v) in y.iter_mut().zip(&mut mask).zip(xs) {
                *out = relu(v);
                *keep = v > 0.0;
            }
            self.cached_mask = mask;
        } else {
            for (out, &v) in y.iter_mut().zip(xs) {
                *out = relu(v);
            }
        }
        Tensor::from_vec(x.shape(), y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            !self.cached_mask.is_empty(),
            "backward before forward(train=true)"
        );
        assert_eq!(
            grad_out.len(),
            self.cached_mask.len(),
            "gradient does not match the forward's shape"
        );
        let mut g = refill(&mut self.lent, grad_out.len());
        g.extend(
            grad_out
                .as_slice()
                .iter()
                .zip(&self.cached_mask)
                .map(|(&v, &keep)| if keep { v } else { 0.0 }),
        );
        Tensor::from_vec(grad_out.shape(), g)
    }

    fn lend(&mut self, buffer: Vec<f32>) {
        self.lent = buffer;
    }

    fn release_training_state(&mut self) {
        self.cached_mask = Vec::new();
        self.lent = Vec::new();
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        input.to_vec()
    }

    fn macs(&self, input: &[usize]) -> u64 {
        input.iter().product::<usize>() as u64
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Logistic sigmoid: `y = 1 / (1 + e^{-x})`.
#[derive(Clone, Debug, Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid::default()
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> &'static str {
        "sigmoid"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut y = x.clone();
        for v in y.as_mut_slice() {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
        if train {
            self.cached_output = Some(y.clone());
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self
            .cached_output
            .as_ref()
            .expect("backward before forward(train=true)");
        let mut g = grad_out.clone();
        for (gv, &yv) in g.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *gv *= yv * (1.0 - yv);
        }
        g
    }

    fn release_training_state(&mut self) {
        self.cached_output = None;
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        input.to_vec()
    }

    fn macs(&self, input: &[usize]) -> u64 {
        4 * input.iter().product::<usize>() as u64
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
    fn relu_clips_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(&[4], vec![-1., 0., 2., -0.5]);
        let y = r.forward(&x, true);
        assert_eq!(y.as_slice(), &[0., 0., 2., 0.]);
        let g = r.backward(&Tensor::from_vec(&[4], vec![1., 1., 1., 1.]));
        assert_eq!(g.as_slice(), &[0., 0., 1., 0.]);
    }

    /// The two-pass ReLU this layer replaced: clone then clamp, and a mask
    /// collected separately; backward clones then zeroes.
    fn relu_oracle(x: &[f32], g: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mask: Vec<bool> = x.iter().map(|&v| v > 0.0).collect();
        let mut y = x.to_vec();
        for v in &mut y {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let mut gi = g.to_vec();
        for (v, &keep) in gi.iter_mut().zip(&mask) {
            if !keep {
                *v = 0.0;
            }
        }
        (y, gi)
    }

    #[test]
    fn relu_is_bit_identical_to_the_two_pass_loops() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let x = vec![
            -1.0,
            -0.0,
            0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            2.5,
        ];
        let g = vec![1.0, -2.0, 3.0, -0.0, 5.0, -6.0, 7.0, f32::NAN, 9.0, -0.0];
        let (want_y, want_g) = relu_oracle(&x, &g);
        let mut r = Relu::new();
        // Twice, so the second step reuses the first step's mask buffer.
        for _ in 0..2 {
            let xt = Tensor::from_vec(&[x.len()], x.clone());
            assert_eq!(bits(r.forward(&xt, false).as_slice()), bits(&want_y));
            assert_eq!(bits(r.forward(&xt, true).as_slice()), bits(&want_y));
            let gt = Tensor::from_vec(&[g.len()], g.clone());
            assert_eq!(bits(r.backward(&gt).as_slice()), bits(&want_g));
        }
    }

    #[test]
    fn sigmoid_values_and_gradient() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(&[3], vec![0.0, 10.0, -10.0]);
        let y = s.forward(&x, true);
        assert!((y.as_slice()[0] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[1] > 0.9999);
        assert!(y.as_slice()[2] < 0.0001);
        let g = s.backward(&Tensor::from_vec(&[3], vec![1., 1., 1.]));
        assert!((g.as_slice()[0] - 0.25).abs() < 1e-6);
        assert!(g.as_slice()[1] < 1e-3);
    }

    #[test]
    fn sigmoid_gradient_matches_numeric() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(&[1], vec![0.3]);
        let _ = s.forward(&x, true);
        let g = s.backward(&Tensor::from_vec(&[1], vec![1.0]));
        let eps = 1e-3f32;
        let f = |v: f32| 1.0 / (1.0 + (-v).exp());
        let numeric = (f(0.3 + eps) - f(0.3 - eps)) / (2.0 * eps);
        assert!((g.as_slice()[0] - numeric).abs() < 1e-4);
    }

    #[test]
    fn shapes_pass_through() {
        let r = Relu::new();
        assert_eq!(r.output_shape(&[2, 3, 4, 5]), vec![2, 3, 4, 5]);
        let s = Sigmoid::new();
        assert_eq!(s.output_shape(&[7]), vec![7]);
    }
}
