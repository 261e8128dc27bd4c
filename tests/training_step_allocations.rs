//! A training step refills the previous step's buffers: each layer its
//! caches, and `Sequential` the allocations of activations and gradients
//! that have been read, which it lends to the next layers that run. A step
//! after the first therefore allocates nothing large: every activation and
//! gradient of the classifiers is 128 KiB to 1 MiB at batch 32, and a
//! fresh allocation of that size is a fresh `mmap` whose pages fault in
//! again on every step. The reused buffers are training state, dropped
//! when training ends.

use resilient_perception::nn::loss::softmax_cross_entropy;
use resilient_perception::nn::models::alexnet_mini;
use resilient_perception::nn::optim::Sgd;
use resilient_perception::nn::{Layer, Sequential, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Smallest allocation counted as large.
const LARGE: usize = 128 << 10;

/// Forwards to the system allocator and records this thread's largest
/// allocations (the test harness runs tests on parallel threads).
struct CountingAlloc;

thread_local! {
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when there is nothing left to count into.
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes));
    if bytes >= LARGE {
        let _ = LARGE_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only thread-local
// integers and never allocates.
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

const SIZE: usize = 32;
const CLASSES: usize = 43;
const BATCH: usize = 32;

/// Deterministic values in `[0, 1)`.
fn pixels(len: usize, salt: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u64)
                .wrapping_add(salt)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h >> 40) as f32 / (1u64 << 24) as f32
        })
        .collect()
}

fn batch(salt: u64) -> (Tensor, Vec<usize>) {
    let x = Tensor::from_vec(&[BATCH, 1, SIZE, SIZE], pixels(BATCH * SIZE * SIZE, salt));
    let labels = (0..BATCH)
        .map(|i| (i * 7 + salt as usize) % CLASSES)
        .collect();
    (x, labels)
}

/// One step of `train_classifier`'s loop on a prepared batch.
fn step(model: &mut Sequential, opt: &mut Sgd, x: &Tensor, labels: &[usize]) {
    let logits = model.forward(x, true);
    let (_, grad) = softmax_cross_entropy(&logits, labels);
    model.backward_params(&grad);
    opt.step(model);
}

/// Large allocations made by `f` on this thread.
fn large_allocs(f: impl FnOnce()) -> usize {
    let before = LARGE_ALLOCS.with(Cell::get);
    f();
    LARGE_ALLOCS.with(Cell::get) - before
}

/// Bytes allocated by one clone of `value`.
fn clone_bytes<T: Clone>(value: &T) -> usize {
    let before = BYTES.with(Cell::get);
    let copy = std::hint::black_box(value.clone());
    let bytes = BYTES.with(Cell::get) - before;
    drop(copy);
    bytes
}

#[test]
fn a_training_step_after_the_first_allocates_nothing_large() {
    let mut model = alexnet_mini(SIZE, CLASSES, 5);
    let mut opt = Sgd::new(0.05).with_momentum(0.9);
    let batches = [batch(1), batch(2), batch(3)];
    let (x, labels) = &batches[0];
    let warm_up = large_allocs(|| step(&mut model, &mut opt, x, labels));
    assert!(warm_up > 0, "the counter sees the first step's buffers");
    for (i, (x, labels)) in batches.iter().enumerate().skip(1) {
        let n = large_allocs(|| step(&mut model, &mut opt, x, labels));
        assert_eq!(n, 0, "step {i} made {n} allocations of 128 KiB or more");
    }
}

#[test]
fn a_released_model_holds_no_reused_buffers() {
    let (x, labels) = batch(4);
    let first_step =
        |model: &mut Sequential| large_allocs(|| step(model, &mut Sgd::new(0.05), &x, &labels));
    let mut trained = alexnet_mini(SIZE, CLASSES, 6);
    let mut fresh = trained.clone();
    // Two steps, the first also growing this thread's kernel workspaces.
    first_step(&mut trained);
    first_step(&mut trained);
    trained.release_training_state();
    // Released, the model refills nothing: its next step allocates every
    // large buffer again, as a fresh model's first step does.
    assert_eq!(first_step(&mut trained), first_step(&mut fresh));
    trained.release_training_state();
    assert!(
        clone_bytes(&trained) <= clone_bytes(&fresh),
        "a trained clone allocates {} bytes, an untrained one {}",
        clone_bytes(&trained),
        clone_bytes(&fresh)
    );
}
