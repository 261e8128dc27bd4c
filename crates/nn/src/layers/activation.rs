//! Elementwise activation layers.

use crate::layer::Layer;
use crate::tensor::Tensor;

/// Rectified linear unit: `y = max(0, x)`.
#[derive(Clone, Debug, Default)]
pub struct Relu {
    cached_mask: Vec<bool>,
    cached_shape: Vec<usize>,
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
        let mut y = x.clone();
        if train {
            self.cached_mask = x.as_slice().iter().map(|&v| v > 0.0).collect();
            self.cached_shape = x.shape().to_vec();
        }
        for v in y.as_mut_slice() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            !self.cached_mask.is_empty(),
            "backward before forward(train=true)"
        );
        let mut g = grad_out.clone();
        for (v, &keep) in g.as_mut_slice().iter_mut().zip(&self.cached_mask) {
            if !keep {
                *v = 0.0;
            }
        }
        g
    }

    fn release_training_state(&mut self) {
        self.cached_mask = Vec::new();
        self.cached_shape = Vec::new();
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
