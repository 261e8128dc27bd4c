//! The [`Layer`] trait: forward/backward computation plus parameter access.

use crate::tensor::Tensor;

/// A mutable view of one parameter tensor and its gradient accumulator.
///
/// Exposed so optimisers ([`crate::optim`]) and fault injectors
/// (`mvml-faultinject`) can address parameters by `(layer, param, offset)`
/// without knowing layer internals — the analogue of PyTorchFI perturbing a
/// `state_dict` entry.
#[derive(Debug)]
pub struct Param<'a> {
    /// Parameter name within the layer (`"weight"` / `"bias"`).
    pub name: &'static str,
    /// Flattened parameter values.
    pub values: &'a mut [f32],
    /// Flattened gradient accumulator: same length as `values` while the
    /// layer trains, empty outside training. The first
    /// `forward(…, train = true)` allocates it as zeros and
    /// [`Layer::release_training_state`] drops it, so an untrained or a
    /// trained model carries no gradient memory.
    pub grads: &'a mut [f32],
}

/// A differentiable network layer.
///
/// Layers own their parameters and cache whatever activations they need
/// between `forward` and `backward`. The contract is strictly
/// forward-then-backward on the same input batch.
///
/// What a layer holds depends on where it is in its life. While it trains,
/// it keeps the last training batch's caches and its gradient
/// accumulators. After [`Layer::release_training_state`], which the
/// training loops call once their last optimizer step is done, it holds
/// only what inference reads: its parameters and its configuration. A
/// clone of a trained model then copies weights alone.
pub trait Layer: Send + Sync {
    /// Human-readable layer kind (e.g. `"dense"`, `"conv2d"`).
    fn name(&self) -> &'static str;

    /// Computes the layer output for `x`. `train` enables caching needed by
    /// a subsequent [`Layer::backward`].
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Back-propagates `grad_out` (gradient w.r.t. this layer's output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the layer's input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called without a preceding
    /// `forward(…, train = true)`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Back-propagates `grad_out` into the parameter gradients only: the
    /// same accumulation as [`Layer::backward`], without the gradient
    /// w.r.t. the input. Training calls it where nothing reads that
    /// gradient (the bottom of a stack). The default runs `backward` and
    /// drops its result.
    ///
    /// # Panics
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// Mutable access to all parameters (empty for stateless layers).
    fn params(&mut self) -> Vec<Param<'_>> {
        Vec::new()
    }

    /// Total number of scalar parameters.
    fn param_len(&self) -> usize {
        0
    }

    /// Output shape for a given input shape (including the batch dim).
    fn output_shape(&self, input: &[usize]) -> Vec<usize>;

    /// Multiply-accumulate operations needed for one forward pass over a
    /// batch of the given shape; the compute-cost proxy used by the
    /// overhead study (paper Table VIII).
    fn macs(&self, input: &[usize]) -> u64;

    /// Clones the layer into a boxed trait object.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// The layer as [`std::any::Any`], enabling downcasts to the concrete
    /// type — used by [`crate::quant`] to find the quantizable
    /// (conv/dense) layers in a [`crate::model::Sequential`] stack.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Lends the layer an allocation to refill with its next output or
    /// input gradient, instead of allocating (and page-faulting) a fresh
    /// one. In training, [`crate::model::Sequential`] lends each layer,
    /// just before it runs, an allocation of an activation or gradient
    /// that another layer has finished reading. The default drops it.
    fn lend(&mut self, buffer: Vec<f32>) {
        drop(buffer);
    }

    /// Drops what only training reads: the caches of the last
    /// `forward(…, train = true)`, an allocation lent through
    /// [`Layer::lend`] and not yet refilled, and the gradient accumulators. The parameters
    /// are untouched, so inference gives the same bits; the next training
    /// forward re-creates the accumulators as zeros. The default does
    /// nothing (a layer that caches nothing).
    fn release_training_state(&mut self) {}

    /// Zeroes all gradient accumulators (none are held outside training).
    fn zero_grad(&mut self) {
        for p in self.params() {
            p.grads.fill(0.0);
        }
    }
}

/// The allocation `lent` holds (see [`Layer::lend`]), emptied and with
/// room for `len` values, leaving `lent` empty.
pub(crate) fn refill(lent: &mut Vec<f32>, len: usize) -> Vec<f32> {
    let mut buf = std::mem::take(lent);
    buf.clear();
    buf.reserve(len);
    buf
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
