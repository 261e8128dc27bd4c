//! Mini-batch training loops.

use crate::data::Dataset;
use crate::layer::Layer;
use crate::loss::softmax_cross_entropy;
use crate::model::Sequential;
use crate::optim::Sgd;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyper-parameters for [`train_classifier`].
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Momentum factor.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Multiplicative learning-rate decay applied after every epoch
    /// (1.0 disables decay).
    pub lr_decay: f32,
    /// Shuffling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 128,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_decay: 1.0,
            seed: 38, // the paper fixes its framework seeds to 38
        }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss of each epoch.
    pub epoch_losses: Vec<f32>,
}

/// Trains `model` as a softmax classifier on `data`. Each step
/// back-propagates into the parameters only ([`Layer::backward_params`]):
/// no gradient w.r.t. the input images is computed. After the last step the
/// model's training state is released ([`Layer::release_training_state`]),
/// so it leaves holding only what inference reads. Callers that want the
/// training accuracy measure it with [`crate::metrics::evaluate_accuracy`].
///
/// # Panics
///
/// Panics if `data` is empty or `batch_size` is zero.
pub fn train_classifier(model: &mut Sequential, data: &Dataset, cfg: &TrainConfig) -> TrainReport {
    assert!(!data.is_empty(), "empty training set");
    assert!(cfg.batch_size > 0, "batch_size must be positive");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Sgd::new(cfg.lr)
        .with_momentum(cfg.momentum)
        .with_weight_decay(cfg.weight_decay);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        opt.lr *= cfg.lr_decay;
        let order = data.shuffled_indices(&mut rng);
        let mut total = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let (x, y) = data.batch(chunk);
            let logits = model.forward(&x, true);
            let (loss, grad) = softmax_cross_entropy(&logits, &y);
            model.backward_params(&grad);
            opt.step(model);
            total += f64::from(loss);
            batches += 1;
        }
        epoch_losses.push((total / batches as f64) as f32);
    }
    model.release_training_state();
    TrainReport { epoch_losses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::signs::{generate, SignConfig};
    use crate::tensor::Tensor;

    /// A tiny, clearly separable 2-class problem: bright vs dark images.
    fn separable_dataset(n: usize) -> Dataset {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let bright = i % 2 == 0;
            let base = if bright { 0.8 } else { 0.2 };
            for j in 0..4 {
                data.push(base + 0.01 * ((i + j) % 3) as f32);
            }
            labels.push(usize::from(bright));
        }
        Dataset::new(Tensor::from_vec(&[n, 1, 2, 2], data), labels, 2)
    }

    fn mlp(inputs: usize, hidden: usize, classes: usize, seed: u64) -> Sequential {
        use crate::layers::Flatten;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Sequential::new("mlp");
        m.push(Flatten::new());
        m.push(Dense::new(inputs, hidden, &mut rng));
        m.push(Relu::new());
        m.push(Dense::new(hidden, classes, &mut rng));
        m
    }

    #[test]
    fn learns_separable_problem() {
        let data = separable_dataset(64);
        let mut model = mlp(4, 8, 2, 0);
        let cfg = TrainConfig {
            epochs: 20,
            batch_size: 16,
            lr: 0.1,
            ..TrainConfig::default()
        };
        let report = train_classifier(&mut model, &data, &cfg);
        assert_eq!(report.epoch_losses.len(), 20);
        let acc = crate::metrics::evaluate_accuracy(&mut model, &data, cfg.batch_size);
        assert!(acc > 0.95, "acc={acc}");
        assert!(report.epoch_losses.last().unwrap() < &0.3);
    }

    #[test]
    fn loss_decreases_over_training() {
        let data = separable_dataset(64);
        let mut model = mlp(4, 8, 2, 1);
        let report = train_classifier(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 10,
                batch_size: 8,
                lr: 0.05,
                ..TrainConfig::default()
            },
        );
        assert!(report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap());
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let data = separable_dataset(32);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 8,
            ..TrainConfig::default()
        };
        let mut a = mlp(4, 8, 2, 7);
        let mut b = mlp(4, 8, 2, 7);
        let ra = train_classifier(&mut a, &data, &cfg);
        let rb = train_classifier(&mut b, &data, &cfg);
        assert_eq!(ra.epoch_losses, rb.epoch_losses);
    }

    #[test]
    fn learns_small_synthetic_signs() {
        // An easier sign configuration, small model, few epochs: sanity that
        // the full pipeline (generator → training → accuracy) learns signal.
        let cfg = SignConfig {
            classes: 5,
            image_size: 12,
            noise_std: 0.05,
            max_translate: 0.5,
            scale_jitter: 0.05,
            brightness_jitter: 0.05,
            occlusion_prob: 0.0,
        };
        let train = generate(&cfg, 250, 0);
        let test = generate(&cfg, 100, 1);
        let mut model = mlp(144, 32, 5, 3);
        let tc = TrainConfig {
            epochs: 15,
            batch_size: 32,
            lr: 0.1,
            ..TrainConfig::default()
        };
        let _ = train_classifier(&mut model, &train, &tc);
        let acc = crate::metrics::evaluate_accuracy(&mut model, &test, 32);
        assert!(acc > 0.8, "test accuracy {acc}");
    }
}
