//! The YOLO-substitute object detectors.
//!
//! The paper deploys three YOLOv5 size variants (s6/m6/l6) as the diverse
//! perception versions. Here each version is a small fully-convolutional
//! network over the BEV grid — `conv(1→c) → relu → conv(c→c) → relu →
//! conv(c→1)` — trained with binary cross-entropy to predict per-cell
//! objectness from the noisy sensor grid. The three variants differ in
//! channel width (the s/m/l analogue), giving them diverse parameterisations
//! and therefore diverse failure behaviour under fault injection.

use crate::bev::{add_sensor_noise, cell_centre, rasterize, CELLS};
use crate::geometry::Vec2;
use crate::world::ObjectTruth;
use mvml_nn::layer::Layer;
use mvml_nn::layers::{Conv2d, Relu};
use mvml_nn::loss::bce_with_logits_weighted;
use mvml_nn::optim::Sgd;
use mvml_nn::{Sequential, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A set of occupied BEV cells — the canonical detection output a module
/// proposes to the voter.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DetectionSet(BTreeSet<u16>);

impl DetectionSet {
    /// The empty detection set.
    pub fn new() -> Self {
        DetectionSet::default()
    }

    /// Number of occupied cells.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when no cell is flagged.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over flagged cell indices.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.0.iter().copied()
    }

    /// Whether `cell` is flagged.
    pub fn contains(&self, cell: u16) -> bool {
        self.0.contains(&cell)
    }

    /// Size of the symmetric difference with another set — the voter's
    /// "similarity" measure for approximate agreement.
    pub fn symmetric_difference_len(&self, other: &DetectionSet) -> usize {
        self.0.symmetric_difference(&other.0).count()
    }

    /// Distance (metres) to the nearest flagged cell inside the forward
    /// corridor of half-width `corridor` metres, if any — the planner's
    /// obstacle query.
    pub fn nearest_obstacle_ahead(&self, corridor: f64) -> Option<f64> {
        self.0
            .iter()
            .filter_map(|&c| {
                let (fwd, lat) = cell_centre(c);
                (lat.abs() <= corridor).then_some(fwd)
            })
            .min_by(|a, b| a.total_cmp(b))
    }
}

impl FromIterator<u16> for DetectionSet {
    fn from_iter<I: IntoIterator<Item = u16>>(iter: I) -> Self {
        DetectionSet(iter.into_iter().collect())
    }
}

impl Extend<u16> for DetectionSet {
    fn extend<I: IntoIterator<Item = u16>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

/// The three detector variants (channel widths mirror YOLOv5 s6/m6/l6).
pub const VARIANTS: [(&str, usize); 3] = [("yolomini-s", 4), ("yolomini-m", 6), ("yolomini-l", 8)];

/// Builds an untrained detector with the given channel width.
pub fn yolo_mini(name: &str, channels: usize, seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Sequential::new(name.to_string());
    m.push(Conv2d::new(1, channels, 3, 1, &mut rng));
    m.push(Relu::new());
    m.push(Conv2d::new(channels, channels, 3, 1, &mut rng));
    m.push(Relu::new());
    m.push(Conv2d::new(channels, 1, 1, 0, &mut rng));
    m
}

/// Detector training configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DetectorTrainConfig {
    /// Number of synthetic training scenes.
    pub scenes: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Sensor noise used during training (matched to runtime).
    pub noise_sigma: f32,
    /// Clutter probability used during training.
    pub clutter: f64,
    /// Positive-class weight for the BCE loss (occupied cells are < 1% of
    /// the grid; without this the detector collapses to all-negative).
    pub pos_weight: f32,
    /// Scene/shuffle seed.
    pub seed: u64,
}

impl Default for DetectorTrainConfig {
    fn default() -> Self {
        DetectorTrainConfig {
            scenes: 1200,
            epochs: 4,
            batch: 16,
            lr: 0.15,
            noise_sigma: 0.08,
            clutter: 0.002,
            pos_weight: 40.0,
            seed: 38,
        }
    }
}

/// Generates `(noisy input, clean target)` scene pairs with 0–3 randomly
/// placed actors, biased toward the driving corridor.
pub fn training_scenes(
    cfg: &DetectorTrainConfig,
    count: usize,
    seed: u64,
) -> Vec<(Tensor, Tensor)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let n = rng.random_range(0..=3usize);
            let actors: Vec<ObjectTruth> = (0..n)
                .map(|_| ObjectTruth {
                    position: Vec2::new(rng.random_range(4.0..60.0), rng.random_range(-10.0..10.0)),
                    heading: 0.0,
                })
                .collect();
            let clean = rasterize(Vec2::new(0.0, 0.0), 0.0, &actors);
            let noisy = add_sensor_noise(&clean, cfg.noise_sigma, cfg.clutter, &mut rng);
            (noisy, clean)
        })
        .collect()
}

/// Trains a detector on `cfg.scenes` synthetic scenes generated from
/// `cfg.seed`; returns the final epoch's mean BCE loss.
///
/// # Panics
///
/// Panics if `cfg.scenes` or `cfg.batch` is zero.
pub fn train_detector(model: &mut Sequential, cfg: &DetectorTrainConfig) -> f32 {
    train_detector_on(model, &training_scenes(cfg, cfg.scenes, cfg.seed), cfg)
}

/// Trains a detector on the given `(noisy input, clean target)` scenes
/// (one [`training_scenes`] set can be shared by several models); returns
/// the final epoch's mean BCE loss. `cfg.scenes` is ignored: `scenes`
/// sets the count. The model leaves with its training state released
/// ([`Layer::release_training_state`]): weights only, no caches or
/// gradient buffers.
///
/// # Panics
///
/// Panics if `scenes` is empty or `cfg.batch` is zero.
pub fn train_detector_on(
    model: &mut Sequential,
    scenes: &[(Tensor, Tensor)],
    cfg: &DetectorTrainConfig,
) -> f32 {
    assert!(
        !scenes.is_empty(),
        "detector training needs at least one scene"
    );
    assert!(cfg.batch > 0, "detector batch must be positive");
    let mut opt = Sgd::new(cfg.lr).with_momentum(0.9);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED);
    let mut last_epoch_loss = f32::INFINITY;
    for _ in 0..cfg.epochs {
        let mut order: Vec<usize> = (0..scenes.len()).collect();
        // Fisher–Yates with the local RNG for reproducibility.
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut total = 0.0f64;
        let mut batches = 0;
        for chunk in order.chunks(cfg.batch) {
            let (x, t) = stack(scenes, chunk);
            let logits = model.forward(&x, true);
            let (loss, grad) = bce_with_logits_weighted(&logits, &t, cfg.pos_weight);
            model.backward_params(&grad);
            opt.step(model);
            total += f64::from(loss);
            batches += 1;
        }
        last_epoch_loss = (total / f64::from(batches as u32)) as f32;
    }
    model.release_training_state();
    last_epoch_loss
}

fn stack(scenes: &[(Tensor, Tensor)], idx: &[usize]) -> (Tensor, Tensor) {
    let cell_count = CELLS * CELLS;
    let mut xs = Vec::with_capacity(idx.len() * cell_count);
    let mut ts = Vec::with_capacity(idx.len() * cell_count);
    for &i in idx {
        xs.extend_from_slice(scenes[i].0.as_slice());
        ts.extend_from_slice(scenes[i].1.as_slice());
    }
    (
        Tensor::from_vec(&[idx.len(), 1, CELLS, CELLS], xs),
        Tensor::from_vec(&[idx.len(), 1, CELLS, CELLS], ts),
    )
}

/// Decodes a `[1, 1, CELLS, CELLS]` logit map into the set of cells whose
/// objectness probability exceeds `threshold`.
///
/// # Panics
///
/// Panics unless `threshold` lies in the open interval (0, 1).
pub fn decode(logits: &Tensor, threshold: f32) -> DetectionSet {
    assert!(
        threshold > 0.0 && threshold < 1.0,
        "threshold must be in (0,1)"
    );
    let logit_threshold = (threshold / (1.0 - threshold)).ln();
    logits
        .as_slice()
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > logit_threshold)
        .map(|(i, _)| i as u16)
        .collect()
}

/// Per-cell detection quality of a trained detector over fresh scenes:
/// `(precision, recall)`.
pub fn detection_quality(
    model: &mut Sequential,
    cfg: &DetectorTrainConfig,
    scenes: usize,
    seed: u64,
) -> (f64, f64) {
    let eval = training_scenes(cfg, scenes, seed);
    let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
    for (noisy, clean) in &eval {
        let logits = model.forward(noisy, false);
        let detected = decode(&logits, 0.5);
        for i in 0..(CELLS * CELLS) as u16 {
            let truth = clean.as_slice()[i as usize] > 0.5;
            let hit = detected.contains(i);
            match (truth, hit) {
                (true, true) => tp += 1,
                (false, true) => fp += 1,
                (true, false) => fn_ += 1,
                (false, false) => {}
            }
        }
    }
    let precision = if tp + fp == 0 {
        1.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if tp + fn_ == 0 {
        1.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    (precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> DetectorTrainConfig {
        DetectorTrainConfig {
            scenes: 220,
            epochs: 3,
            ..DetectorTrainConfig::default()
        }
    }

    #[test]
    fn detection_set_basics() {
        let a: DetectionSet = [1u16, 5, 9].into_iter().collect();
        let b: DetectionSet = [1u16, 5].into_iter().collect();
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(a.contains(9));
        assert_eq!(a.symmetric_difference_len(&b), 1);
        assert_eq!(a.symmetric_difference_len(&a), 0);
        let mut c = b.clone();
        c.extend([9u16]);
        assert_eq!(a, c);
        assert!(DetectionSet::new().is_empty());
    }

    #[test]
    fn nearest_obstacle_uses_corridor() {
        // cell at forward ~21, lateral ~1 (row 16, col 10)
        let near: DetectionSet = [crate::bev::cell_index(16, 10)].into_iter().collect();
        let d = near.nearest_obstacle_ahead(3.0).expect("in corridor");
        assert!((d - 21.0).abs() < 1e-9);
        // cell far to the side is outside the corridor
        let side: DetectionSet = [crate::bev::cell_index(2, 10)].into_iter().collect();
        assert!(side.nearest_obstacle_ahead(3.0).is_none());
        assert!(DetectionSet::new().nearest_obstacle_ahead(3.0).is_none());
    }

    #[test]
    fn variants_are_distinct_networks() {
        let models: Vec<Sequential> = VARIANTS
            .iter()
            .enumerate()
            .map(|(i, (name, ch))| yolo_mini(name, *ch, i as u64))
            .collect();
        let p: Vec<usize> = models.iter().map(|m| m.param_len()).collect();
        assert!(p[0] < p[1] && p[1] < p[2], "{p:?}");
        for m in &models {
            assert_eq!(
                m.output_shape(&[1, 1, CELLS, CELLS]),
                vec![1, 1, CELLS, CELLS]
            );
        }
    }

    #[test]
    fn trained_detector_finds_vehicles() {
        let cfg = tiny_cfg();
        let mut model = yolo_mini("test", 4, 0);
        let loss = train_detector(&mut model, &cfg);
        assert!(loss < 0.2, "training did not converge: loss {loss}");
        let (precision, recall) = detection_quality(&mut model, &cfg, 30, 999);
        assert!(precision > 0.7, "precision {precision}");
        assert!(recall > 0.7, "recall {recall}");
    }

    #[test]
    fn decode_threshold_semantics() {
        let mut logits = Tensor::zeros(&[1, 1, CELLS, CELLS]);
        logits.as_mut_slice()[7] = 5.0; // σ ≈ 0.993
        logits.as_mut_slice()[9] = -5.0;
        let set = decode(&logits, 0.5);
        assert!(set.contains(7));
        assert!(!set.contains(9));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn scenes_are_deterministic() {
        let cfg = tiny_cfg();
        let a = training_scenes(&cfg, 5, 1);
        let b = training_scenes(&cfg, 5, 1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0.as_slice(), y.0.as_slice());
            assert_eq!(x.1.as_slice(), y.1.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn decode_rejects_bad_threshold() {
        let logits = Tensor::zeros(&[1, 1, CELLS, CELLS]);
        let _ = decode(&logits, 1.5);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn decode_rejects_zero_threshold() {
        // ln(0) = -inf would flag every cell.
        let logits = Tensor::zeros(&[1, 1, CELLS, CELLS]);
        let _ = decode(&logits, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one scene")]
    fn training_rejects_zero_scenes() {
        let cfg = DetectorTrainConfig {
            scenes: 0,
            ..tiny_cfg()
        };
        let _ = train_detector(&mut yolo_mini("t", 2, 0), &cfg);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn training_rejects_zero_batch() {
        let cfg = DetectorTrainConfig {
            batch: 0,
            ..tiny_cfg()
        };
        let _ = train_detector(&mut yolo_mini("t", 2, 0), &cfg);
    }
}
