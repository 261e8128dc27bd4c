//! A trained model holds only what inference reads. The training loops
//! release every layer's training caches and gradient accumulators once
//! their last optimizer step is done, so each later copy of a trained
//! model (a serve shard's copy of its blueprint, a module's pristine
//! snapshot, a detector bank handed to a perception pipeline) copies
//! weights alone. Releasing changes no trained bit: training resumed from a
//! released model gives the same weights as from one still holding its
//! caches.

use mvml_serve::tenant::build_system;
use mvml_serve::{ModelSpec, TenantConfig};
use resilient_perception::avsim::detector::{yolo_mini, DetectorTrainConfig, VARIANTS};
use resilient_perception::avsim::DetectorBank;
use resilient_perception::mvml::{GuardConfig, NVersionSystem};
use resilient_perception::nn::models::three_versions;
use resilient_perception::nn::signs::{generate, SignConfig};
use resilient_perception::nn::train::{train_classifier, TrainConfig};
use resilient_perception::nn::{Layer, Sequential};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and counts the bytes this thread
/// allocates (the test harness runs tests on parallel threads; each
/// measures only its own clones).
struct CountingAlloc;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when there is nothing left to count into.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// integer and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`, since
        // every allocation above came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from `System` as in `dealloc`;
        // the caller guarantees `new_size` is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes allocated by one clone of `value`.
fn clone_bytes<T: Clone>(value: &T) -> usize {
    let before = BYTES.with(Cell::get);
    let copy = std::hint::black_box(value.clone());
    let bytes = BYTES.with(Cell::get) - before;
    drop(copy);
    bytes
}

const CLASSES: usize = 5;
const SIZE: usize = 12;
const SEED: u64 = 17;

/// The small trained tenant of `trained_weights_pinned.rs`.
#[allow(clippy::expect_used)] // test harness
fn trained_tenant() -> NVersionSystem {
    let cfg = TenantConfig {
        model: ModelSpec::Trained {
            classes: CLASSES,
            image_size: SIZE,
            train_samples: 64,
            epochs: 1,
            seed: SEED,
        },
        ..TenantConfig::passthrough("released", CLASSES)
    };
    build_system(&cfg).expect("builds")
}

fn trained_models(system: &mut NVersionSystem) -> Vec<Sequential> {
    (0..system.version_count())
        .map(|i| system.module_mut(i).model_mut().clone())
        .collect()
}

/// The tenant's architectures, untrained, with their (empty) training
/// state released.
fn untrained_models() -> Vec<Sequential> {
    let mut models = three_versions(SIZE, CLASSES, SEED);
    for m in &mut models {
        m.release_training_state();
    }
    models
}

fn signs(count: usize, seed: u64) -> resilient_perception::nn::Dataset {
    let cfg = SignConfig {
        classes: CLASSES,
        image_size: SIZE,
        ..SignConfig::default()
    };
    generate(&cfg, count, seed)
}

/// `model` as it stood before its training state was released: the caches
/// of a training step and zeroed gradient accumulators, as the last
/// optimizer step leaves them.
fn holding_training_state(model: &Sequential) -> Sequential {
    let mut stale = model.clone();
    let data = signs(8, 99);
    let (x, _) = data.batch(&(0..data.len()).collect::<Vec<_>>());
    let y = stale.forward(&x, true);
    stale.backward_params(&y);
    stale.zero_grad();
    stale
}

fn weight_bits(model: &mut Sequential) -> Vec<u32> {
    model
        .all_params()
        .iter()
        .flat_map(|p| p.values.iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn trained_models_clone_no_more_than_untrained_ones() {
    let mut system = trained_tenant();
    let untrained = untrained_models();
    for (trained, fresh) in trained_models(&mut system).iter().zip(&untrained) {
        let name = trained.model_name();
        let bytes = clone_bytes(trained);
        assert!(
            bytes <= clone_bytes(fresh),
            "{name}: a trained clone allocates {bytes} bytes, an untrained one {}",
            clone_bytes(fresh)
        );
        // The counter sees training state when a model holds it.
        assert!(
            clone_bytes(&holding_training_state(trained)) > bytes,
            "{name}: caches and gradients are not counted"
        );
    }

    // The whole blueprint, pristine snapshots included, as a serve shard
    // copies it.
    let mut fresh_system = NVersionSystem::try_new(untrained).expect("builds");
    fresh_system
        .set_guard(GuardConfig::default())
        .expect("default guard");
    assert!(clone_bytes(&system) <= clone_bytes(&fresh_system));

    let cfg = DetectorTrainConfig {
        scenes: 24,
        epochs: 1,
        ..DetectorTrainConfig::default()
    };
    let bank = DetectorBank::train(&cfg);
    for (i, (trained, &(name, channels))) in bank.models().iter().zip(&VARIANTS).enumerate() {
        let mut fresh = yolo_mini(name, channels, cfg.seed + i as u64);
        fresh.release_training_state();
        assert!(
            clone_bytes(trained) <= clone_bytes(&fresh),
            "{name}: trained detector clone larger than untrained"
        );
    }
}

#[test]
fn training_resumes_from_a_released_model_bit_for_bit() {
    let mut system = trained_tenant();
    let data = signs(64, 18);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 32,
        lr: 0.08,
        ..TrainConfig::default()
    };
    for mut released in trained_models(&mut system) {
        let mut stale = holding_training_state(&released);
        assert_eq!(weight_bits(&mut stale), weight_bits(&mut released));
        let _ = train_classifier(&mut released, &data, &cfg);
        let _ = train_classifier(&mut stale, &data, &cfg);
        assert_eq!(
            weight_bits(&mut released),
            weight_bits(&mut stale),
            "{}",
            released.model_name()
        );
    }
}
