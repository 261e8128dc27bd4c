//! Bird's-eye-view (BEV) occupancy grids: the sensor representation the
//! YOLO-substitute detectors consume.
//!
//! The ego-frame grid covers [`RANGE_FORWARD`] metres ahead and
//! ±[`RANGE_LATERAL`]/2 metres to the sides, at [`CELLS`]×[`CELLS`]
//! resolution. Ground-truth actors are rasterised into the grid; the sensor
//! adds Gaussian pixel noise and sparse clutter, so the detectors have a
//! genuine denoising job to learn (and a genuine way to fail once faults
//! are injected into their weights).

use crate::geometry::Vec2;
use crate::world::ObjectTruth;
use mvml_nn::init::standard_normal;
use mvml_nn::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Grid resolution (cells per side).
pub const CELLS: usize = 32;
/// Metres covered ahead of the ego.
pub const RANGE_FORWARD: f64 = 64.0;
/// Metres covered laterally (total width, centred on the ego).
pub const RANGE_LATERAL: f64 = 64.0;
/// Radius (metres) around an actor centre rasterised as occupied.
const ACTOR_RADIUS: f64 = 2.4;

/// Cell side length in metres (forward axis).
pub fn cell_size_forward() -> f64 {
    RANGE_FORWARD / CELLS as f64
}

/// Cell side length in metres (lateral axis).
pub fn cell_size_lateral() -> f64 {
    RANGE_LATERAL / CELLS as f64
}

/// Flat cell index of `(row, col)` where `row` indexes lateral position and
/// `col` forward distance.
pub fn cell_index(row: usize, col: usize) -> u16 {
    (row * CELLS + col) as u16
}

/// Centre of a cell in the ego frame: `(forward, lateral)` metres.
pub fn cell_centre(index: u16) -> (f64, f64) {
    let row = (index as usize) / CELLS;
    let col = (index as usize) % CELLS;
    let fwd = (col as f64 + 0.5) * cell_size_forward();
    let lat = (row as f64 + 0.5) * cell_size_lateral() - RANGE_LATERAL / 2.0;
    (fwd, lat)
}

/// Transforms a world point into the ego frame `(forward, lateral)`.
pub fn to_ego_frame(ego_position: Vec2, ego_heading: f64, world: Vec2) -> (f64, f64) {
    let rel = (world - ego_position).rotated(-ego_heading);
    (rel.x, rel.y)
}

/// Rasterises ground-truth actors into a clean `[1, 1, CELLS, CELLS]`
/// occupancy grid (1.0 = occupied).
pub fn rasterize(ego_position: Vec2, ego_heading: f64, actors: &[ObjectTruth]) -> Tensor {
    let mut grid = Tensor::zeros(&[1, 1, CELLS, CELLS]);
    let data = grid.as_mut_slice();
    for actor in actors {
        let (fwd, lat) = to_ego_frame(ego_position, ego_heading, actor.position);
        if !(-ACTOR_RADIUS..=RANGE_FORWARD + ACTOR_RADIUS).contains(&fwd)
            || lat.abs() > RANGE_LATERAL / 2.0 + ACTOR_RADIUS
        {
            continue;
        }
        for row in 0..CELLS {
            for col in 0..CELLS {
                let (cf, cl) = cell_centre(cell_index(row, col));
                let d2 = (cf - fwd).powi(2) + (cl - lat).powi(2);
                if d2 <= ACTOR_RADIUS * ACTOR_RADIUS {
                    data[row * CELLS + col] = 1.0;
                }
            }
        }
    }
    grid
}

/// Sensor noise model applied to a clean grid: additive Gaussian noise of
/// standard deviation `sigma` plus sparse clutter speckles (probability
/// `clutter` per cell, uniform intensity).
pub fn add_sensor_noise(clean: &Tensor, sigma: f32, clutter: f64, rng: &mut StdRng) -> Tensor {
    let mut noisy = clean.clone();
    for v in noisy.as_mut_slice() {
        *v += sigma * standard_normal(rng);
        if rng.random::<f64>() < clutter {
            *v = 0.4 + 0.6 * rng.random::<f32>();
        }
        *v = v.clamp(0.0, 1.0);
    }
    noisy
}

#[cfg(test)]
// Exact float assertions are deliberate here: the expected values are
// produced by the same deterministic arithmetic being tested.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn actor_at(x: f64, y: f64) -> ObjectTruth {
        ObjectTruth {
            position: Vec2::new(x, y),
            heading: 0.0,
        }
    }

    #[test]
    fn cell_geometry_is_consistent() {
        assert_eq!(cell_size_forward(), 2.0);
        assert_eq!(cell_size_lateral(), 2.0);
        let idx = cell_index(16, 10);
        let (fwd, lat) = cell_centre(idx);
        assert!((fwd - 21.0).abs() < 1e-12);
        assert!((lat - 1.0).abs() < 1e-12);
    }

    #[test]
    fn actor_ahead_is_rasterised_near_centre_row() {
        let grid = rasterize(Vec2::new(0.0, 0.0), 0.0, &[actor_at(20.0, 0.0)]);
        let data = grid.as_slice();
        let occupied: Vec<usize> = (0..CELLS * CELLS).filter(|&i| data[i] > 0.5).collect();
        assert!(!occupied.is_empty());
        for &i in &occupied {
            let (fwd, lat) = cell_centre(i as u16);
            assert!((fwd - 20.0).abs() <= 3.5, "fwd={fwd}");
            assert!(lat.abs() <= 3.5, "lat={lat}");
        }
    }

    #[test]
    fn actor_behind_or_out_of_range_is_invisible() {
        let behind = rasterize(Vec2::new(0.0, 0.0), 0.0, &[actor_at(-15.0, 0.0)]);
        assert!(behind.as_slice().iter().all(|&v| v == 0.0));
        let far = rasterize(Vec2::new(0.0, 0.0), 0.0, &[actor_at(200.0, 0.0)]);
        assert!(far.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rasterisation_respects_ego_heading() {
        // Ego pointing north: an actor due north is "ahead".
        let grid = rasterize(
            Vec2::new(0.0, 0.0),
            std::f64::consts::FRAC_PI_2,
            &[actor_at(0.0, 25.0)],
        );
        let data = grid.as_slice();
        let hit = (0..CELLS * CELLS)
            .find(|&i| data[i] > 0.5)
            .expect("visible");
        let (fwd, lat) = cell_centre(hit as u16);
        assert!(fwd > 20.0 && fwd < 30.0);
        assert!(lat.abs() < 4.0);
    }

    #[test]
    fn ego_frame_transform() {
        let (fwd, lat) = to_ego_frame(Vec2::new(10.0, 5.0), 0.0, Vec2::new(30.0, 8.0));
        assert!((fwd - 20.0).abs() < 1e-12);
        assert!((lat - 3.0).abs() < 1e-12);
    }

    #[test]
    fn noise_is_bounded_and_deterministic() {
        let clean = rasterize(Vec2::new(0.0, 0.0), 0.0, &[actor_at(10.0, 0.0)]);
        let mut rng = StdRng::seed_from_u64(1);
        let a = add_sensor_noise(&clean, 0.1, 0.002, &mut rng);
        assert!(a.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        let mut rng2 = StdRng::seed_from_u64(1);
        let b = add_sensor_noise(&clean, 0.1, 0.002, &mut rng2);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), clean.as_slice());
    }

    #[test]
    fn empty_scene_rasterises_empty() {
        let grid = rasterize(Vec2::new(3.0, 4.0), 1.0, &[]);
        assert!(grid.as_slice().iter().all(|&v| v == 0.0));
    }
}
