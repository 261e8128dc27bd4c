//! Flattening between convolutional and dense stages.

use crate::layer::{refill, Layer};
use crate::tensor::Tensor;

/// Flattens `[N, …]` to `[N, prod(…)]`, restoring the shape on backward.
#[derive(Clone, Debug, Default)]
pub struct Flatten {
    cached_shape: Vec<usize>,
    /// An allocation lent through [`Layer::lend`], for the next output or
    /// input gradient to refill.
    lent: Vec<f32>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let n = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        if train {
            self.cached_shape = x.shape().to_vec();
        }
        let mut y = refill(&mut self.lent, x.len());
        y.extend_from_slice(x.as_slice());
        Tensor::from_vec(&[n, rest], y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(
            !self.cached_shape.is_empty(),
            "backward before forward(train=true)"
        );
        let mut g = refill(&mut self.lent, grad_out.len());
        g.extend_from_slice(grad_out.as_slice());
        Tensor::from_vec(&self.cached_shape, g)
    }

    fn lend(&mut self, buffer: Vec<f32>) {
        self.lent = buffer;
    }

    fn release_training_state(&mut self) {
        self.cached_shape = Vec::new();
        self.lent = Vec::new();
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        vec![input[0], input[1..].iter().product()]
    }

    fn macs(&self, _input: &[usize]) -> u64 {
        0
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
    fn flatten_and_restore() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec(&[2, 1, 2, 2], (0..8).map(|v| v as f32).collect());
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 4]);
        let g = f.backward(&y);
        assert_eq!(g.shape(), &[2, 1, 2, 2]);
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    fn output_shape_no_state() {
        let f = Flatten::new();
        assert_eq!(f.output_shape(&[3, 4, 5]), vec![3, 20]);
    }
}
