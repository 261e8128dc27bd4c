//! Residual (skip-connection) block.

use crate::layer::{Layer, Param};
use crate::model::Sequential;
use crate::tensor::Tensor;

/// A residual block: `y = x + f(x)` where `f` is an inner [`Sequential`]
/// whose output shape equals its input shape.
///
/// Used by the "ResMLP" model variant, which stands in for the paper's
/// ResNet50 as the third diverse architecture.
#[derive(Clone, Debug)]
pub struct Residual {
    inner: Sequential,
}

impl Residual {
    /// Wraps `inner` in a skip connection.
    pub fn new(inner: Sequential) -> Self {
        Residual { inner }
    }
}

impl Layer for Residual {
    fn name(&self) -> &'static str {
        "residual"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let f = self.inner.forward(x, train);
        assert_eq!(
            f.shape(),
            x.shape(),
            "residual inner block must preserve shape"
        );
        f.add(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let through = self.inner.backward(grad_out);
        through.add(grad_out)
    }

    /// The skip path owns no parameters: only the inner block's gradients
    /// are accumulated.
    fn backward_params(&mut self, grad_out: &Tensor) {
        self.inner.backward_params(grad_out);
    }

    fn release_training_state(&mut self) {
        self.inner.release_training_state();
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        self.inner.params()
    }

    fn param_len(&self) -> usize {
        self.inner.param_len()
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        input.to_vec()
    }

    fn macs(&self, input: &[usize]) -> u64 {
        self.inner.macs(input) + input.iter().product::<usize>() as u64
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
    use crate::layers::Dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn block(seed: u64) -> Residual {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inner = Sequential::new("inner");
        inner.push(Dense::new(3, 3, &mut rng));
        Residual::new(inner)
    }

    #[test]
    fn zero_inner_weights_make_identity() {
        let mut r = block(0);
        for p in r.params() {
            p.values.fill(0.0);
        }
        let x = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let y = r.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn gradient_includes_skip_path() {
        let mut r = block(1);
        for p in r.params() {
            p.values.fill(0.0);
        }
        let x = Tensor::from_vec(&[1, 3], vec![1., 1., 1.]);
        let _ = r.forward(&x, true);
        let g = r.backward(&Tensor::from_vec(&[1, 3], vec![1., 1., 1.]));
        // inner contributes zero (zero weights), skip contributes identity
        assert_eq!(g.as_slice(), &[1., 1., 1.]);
    }

    #[test]
    fn numeric_gradient_check() {
        let mut r = block(2);
        let x = Tensor::from_vec(&[1, 3], vec![0.2, -0.4, 0.8]);
        let _ = r.forward(&x, true);
        let gx = r.backward(&Tensor::from_vec(&[1, 3], vec![1., 1., 1.]));
        let eps = 1e-3f32;
        let mut x2 = x.clone();
        x2.as_mut_slice()[0] += eps;
        let lp: f32 = r.forward(&x2, false).as_slice().iter().sum();
        x2.as_mut_slice()[0] -= 2.0 * eps;
        let lm: f32 = r.forward(&x2, false).as_slice().iter().sum();
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((numeric - gx.as_slice()[0]).abs() < 1e-2);
    }

    #[test]
    fn shape_and_macs_delegate() {
        let r = block(3);
        assert_eq!(r.output_shape(&[4, 3]), vec![4, 3]);
        assert_eq!(r.param_len(), 3 * 3 + 3);
        assert_eq!(r.macs(&[1, 3]), (3 * 3) as u64 + 3);
    }

    #[test]
    #[should_panic(expected = "preserve shape")]
    fn mismatched_inner_shape_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut inner = Sequential::new("bad");
        inner.push(Dense::new(3, 2, &mut rng));
        let mut r = Residual::new(inner);
        let _ = r.forward(&Tensor::zeros(&[1, 3]), false);
    }
}
