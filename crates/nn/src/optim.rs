//! Optimisers.

use crate::model::Sequential;

/// Stochastic gradient descent with classical momentum and optional weight
/// decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum factor in `[0, 1)`; 0 disables momentum.
    pub momentum: f32,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an optimiser with the given learning rate, no momentum, no
    /// weight decay.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Sets the momentum factor (builder style).
    #[must_use]
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Sets the weight-decay coefficient (builder style).
    #[must_use]
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Applies one update step from the gradients currently accumulated in
    /// `model`, then zeroes them. A parameter with no accumulator (a layer
    /// that has not trained since its training state was released) has a
    /// zero gradient: only weight decay and momentum move it.
    ///
    /// # Panics
    ///
    /// Panics if the model's parameter structure changed between steps.
    pub fn step(&mut self, model: &mut Sequential) {
        let params = model.all_params();
        if self.velocity.is_empty() {
            self.velocity = params.iter().map(|p| vec![0.0; p.values.len()]).collect();
        }
        assert_eq!(
            self.velocity.len(),
            params.len(),
            "parameter structure changed"
        );
        let (lr, momentum, weight_decay) = (self.lr, self.momentum, self.weight_decay);
        let update = |w: &mut f32, v: &mut f32, g: f32| {
            let grad = g + weight_decay * *w;
            *v = momentum * *v + grad;
            *w -= lr * *v;
        };
        for (p, vel) in params.into_iter().zip(&mut self.velocity) {
            assert_eq!(vel.len(), p.values.len(), "parameter size changed");
            if p.grads.is_empty() {
                for (w, v) in p.values.iter_mut().zip(vel.iter_mut()) {
                    update(w, v, 0.0);
                }
                continue;
            }
            assert_eq!(p.grads.len(), p.values.len(), "gradient size changed");
            for ((w, g), v) in p
                .values
                .iter_mut()
                .zip(p.grads.iter_mut())
                .zip(vel.iter_mut())
            {
                update(w, v, std::mem::take(g));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;
    use crate::loss::softmax_cross_entropy;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Sequential::new("m");
        m.push(Dense::new(2, 2, &mut rng));
        m
    }

    #[test]
    fn plain_sgd_descends_quadratic() {
        use crate::layer::Layer;
        // single linear layer trained to map [1,0] -> class 0
        let mut m = model(0);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 0.0]);
        let mut opt = Sgd::new(0.5);
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            let y = m.forward(&x, true);
            let (loss, grad) = softmax_cross_entropy(&y, &[0]);
            m.backward(&grad);
            opt.step(&mut m);
            assert!(loss <= last + 1e-4, "loss increased: {loss} > {last}");
            last = loss;
        }
        assert!(last < 0.05, "final loss {last}");
    }

    #[test]
    fn step_zeroes_gradients() {
        use crate::layer::Layer;
        let mut m = model(1);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, -1.0]);
        let y = m.forward(&x, true);
        let (_, grad) = softmax_cross_entropy(&y, &[1]);
        m.backward(&grad);
        let mut opt = Sgd::new(0.1);
        opt.step(&mut m);
        assert!(m
            .all_params()
            .iter()
            .all(|p| p.grads.iter().all(|&g| g == 0.0)));
    }

    #[test]
    fn momentum_accumulates_velocity() {
        use crate::layer::Layer;
        // With constant gradient g, momentum m: effective step grows toward
        // lr * g / (1-m). Verify the second step is larger than the first.
        let mut m1 = model(2);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]);
        let mut opt = Sgd::new(0.01).with_momentum(0.9);
        let w0 = m1.all_params()[0].values[0];
        let y = m1.forward(&x, true);
        let (_, grad) = softmax_cross_entropy(&y, &[0]);
        m1.backward(&grad);
        opt.step(&mut m1);
        let w1 = m1.all_params()[0].values[0];
        let y = m1.forward(&x, true);
        let (_, grad) = softmax_cross_entropy(&y, &[0]);
        m1.backward(&grad);
        opt.step(&mut m1);
        let w2 = m1.all_params()[0].values[0];
        let step1 = (w1 - w0).abs();
        let step2 = (w2 - w1).abs();
        assert!(
            step2 > step1,
            "momentum should grow the step: {step1} vs {step2}"
        );
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut m = model(3);
        // grads are zero: decay alone should shrink weights
        let before: Vec<f32> = m.all_params()[0].values.to_vec();
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        opt.step(&mut m);
        let after: Vec<f32> = m.all_params()[0].values.to_vec();
        for (b, a) in before.iter().zip(&after) {
            assert!(a.abs() < b.abs() || *b == 0.0);
        }
    }
}
