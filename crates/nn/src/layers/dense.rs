//! Fully-connected layer, computed with the cache-blocked [`crate::gemm`]
//! kernels. The backward pass uses the transposed-operand GEMM variants
//! directly on the stored layouts, so no transpose is ever materialised.

use crate::gemm;
use crate::init::he_normal;
use crate::layer::{Layer, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// A fully-connected (affine) layer: `y = x W + b`.
#[derive(Clone, Debug)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weight: Tensor, // [in, out]
    bias: Tensor,   // [out]
    // Gradient accumulators: empty outside training (see
    // `Layer::release_training_state`).
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-normal weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        let weight = Tensor::from_vec(
            &[in_features, out_features],
            he_normal(rng, in_features, in_features * out_features),
        );
        Dense {
            in_features,
            out_features,
            weight,
            bias: Tensor::zeros(&[out_features]),
            grad_w: Vec::new(),
            grad_b: Vec::new(),
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// The weight tensor, `[in, out]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias tensor, `[out]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 2, "dense expects [N, features]");
        assert_eq!(x.shape()[1], self.in_features, "dense input width mismatch");
        if train {
            self.cached_input = Some(x.clone());
            if self.grad_w.is_empty() {
                self.grad_w = vec![0.0; self.in_features * self.out_features];
                self.grad_b = vec![0.0; self.out_features];
            }
        }
        let n = x.shape()[0];
        let mut y = Tensor::zeros(&[n, self.out_features]);
        gemm::gemm(
            n,
            self.in_features,
            self.out_features,
            x.as_slice(),
            self.weight.as_slice(),
            y.as_mut_slice(),
        );
        let ys = y.as_mut_slice();
        let bs = self.bias.as_slice();
        for i in 0..n {
            for j in 0..self.out_features {
                ys[i * self.out_features + j] += bs[j];
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_params(grad_out);
        // grad_x = g W^T: W is stored [in, out], the transposed right
        // operand for the NT kernel.
        let n = grad_out.shape()[0];
        let mut gx = Tensor::zeros(&[n, self.in_features]);
        gemm::gemm_nt(
            n,
            self.out_features,
            self.in_features,
            grad_out.as_slice(),
            self.weight.as_slice(),
            gx.as_mut_slice(),
        );
        gx
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward before forward(train=true)");
        let n = grad_out.shape()[0];
        // grad_w += x^T g: x is stored [N, in], i.e. already the transposed
        // left operand for the TN kernel.
        gemm::gemm_tn_acc(
            self.in_features,
            n,
            self.out_features,
            x.as_slice(),
            grad_out.as_slice(),
            &mut self.grad_w,
        );
        let gb = &mut self.grad_b;
        let g = grad_out.as_slice();
        for i in 0..n {
            for j in 0..self.out_features {
                gb[j] += g[i * self.out_features + j];
            }
        }
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

    fn release_training_state(&mut self) {
        self.cached_input = None;
        self.grad_w = Vec::new();
        self.grad_b = Vec::new();
    }

    fn param_len(&self) -> usize {
        self.in_features * self.out_features + self.out_features
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        vec![input[0], self.out_features]
    }

    fn macs(&self, input: &[usize]) -> u64 {
        (input[0] * self.in_features * self.out_features) as u64
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
    use rand::SeedableRng;

    #[test]
    fn forward_applies_affine_map() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(2, 3, &mut rng);
        // overwrite params with known values
        {
            let mut ps = d.params();
            ps[0].values.copy_from_slice(&[1., 2., 3., 4., 5., 6.]); // W [2,3]
            ps[1].values.copy_from_slice(&[0.5, -0.5, 0.0]);
        }
        let x = Tensor::from_vec(&[1, 2], vec![1., 1.]);
        let y = d.forward(&x, false);
        assert_eq!(y.shape(), &[1, 3]);
        assert_eq!(y.as_slice(), &[5.5, 6.5, 9.0]);
    }

    #[test]
    fn backward_gradients_match_numeric() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_vec(&[2, 3], vec![0.3, -0.2, 0.5, 1.0, 0.1, -0.7]);

        // analytic gradients for loss = sum(y)
        let _ = d.forward(&x, true);
        let gout = Tensor::from_vec(&[2, 2], vec![1.0; 4]);
        let gx = d.backward(&gout);

        let eps = 1e-3f32;
        // check dL/dw for a few entries
        for &idx in &[0usize, 2, 5] {
            let loss =
                |d: &mut Dense, x: &Tensor| -> f32 { d.forward(x, false).as_slice().iter().sum() };
            let base_val = d.params()[0].values[idx];
            d.params()[0].values[idx] = base_val + eps;
            let lp = loss(&mut d, &x);
            d.params()[0].values[idx] = base_val - eps;
            let lm = loss(&mut d, &x);
            d.params()[0].values[idx] = base_val;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = d.params()[0].grads[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "idx={idx}: {numeric} vs {analytic}"
            );
        }
        // check dL/dx numerically for one entry
        let mut x2 = x.clone();
        x2.as_mut_slice()[1] += eps;
        let lp: f32 = d.forward(&x2, false).as_slice().iter().sum();
        x2.as_mut_slice()[1] -= 2.0 * eps;
        let lm: f32 = d.forward(&x2, false).as_slice().iter().sum();
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((numeric - gx.as_slice()[1]).abs() < 1e-2);
    }

    #[test]
    fn param_len_and_macs() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = Dense::new(4, 5, &mut rng);
        assert_eq!(d.param_len(), 4 * 5 + 5);
        assert_eq!(d.macs(&[8, 4]), 8 * 4 * 5);
        assert_eq!(d.output_shape(&[8, 4]), vec![8, 5]);
    }

    #[test]
    fn zero_grad_clears_accumulators() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::from_vec(&[1, 2], vec![1., 2.]);
        let _ = d.forward(&x, true);
        let _ = d.backward(&Tensor::from_vec(&[1, 2], vec![1., 1.]));
        assert!(d.params()[0].grads.iter().any(|&g| g != 0.0));
        d.zero_grad();
        assert!(d.params()[0].grads.iter().all(|&g| g == 0.0));
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut d = Dense::new(3, 2, &mut rng);
        let _ = d.forward(&Tensor::zeros(&[1, 4]), false);
    }
}
