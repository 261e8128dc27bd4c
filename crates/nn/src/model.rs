//! Model containers: [`Sequential`] and weight snapshots.

use crate::layer::{Layer, Param};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A serialisable snapshot of every parameter in a model.
///
/// Snapshots implement the paper's "reload the ML module from a safe memory
/// location" rejuvenation step: a pristine snapshot is taken after training
/// and restored whenever the module is rejuvenated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelState {
    /// Per layer, per parameter: `(name, values)`.
    pub layers: Vec<Vec<(String, Vec<f32>)>>,
}

/// A feed-forward stack of layers.
///
/// `Sequential` itself implements [`Layer`], so stacks can nest (used by
/// [`crate::layers::Residual`]).
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
    /// Training state: the allocations of activations and gradients that
    /// their readers are done with, lent to the next layers that run (see
    /// [`Layer::lend`]).
    spare: Vec<Vec<f32>>,
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Sequential {
            name: self.name.clone(),
            layers: self.layers.clone(),
            spare: Vec::new(),
        }
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential(name={:?}, layers=[", self.name)?;
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", l.name())?;
        }
        write!(f, "])")
    }
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new(name: impl Into<String>) -> Self {
        Sequential {
            name: name.into(),
            layers: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// The model's name.
    pub fn model_name(&self) -> &str {
        &self.name
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The layer stack, in forward order — used by [`crate::quant`] to
    /// locate quantizable layers via [`Layer::as_any`].
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layer stack (per-layer probing, e.g.
    /// activation-scale calibration in [`crate::quant`]).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Name of layer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn layer_name(&self, i: usize) -> &'static str {
        self.layers[i].name()
    }

    /// Mutable parameter views of layer `i` (empty for stateless layers).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn layer_params(&mut self, i: usize) -> Vec<Param<'_>> {
        self.layers[i].params()
    }

    /// Mutable parameter views of every layer, flattened in layer order.
    pub fn all_params(&mut self) -> Vec<Param<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    /// Indices of layers that own at least one parameter.
    pub fn parametric_layers(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.param_len() > 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Captures all parameters into a serialisable snapshot.
    pub fn snapshot(&mut self) -> ModelState {
        let layers = self
            .layers
            .iter_mut()
            .map(|l| {
                l.params()
                    .into_iter()
                    .map(|p| (p.name.to_string(), p.values.to_vec()))
                    .collect()
            })
            .collect();
        ModelState { layers }
    }

    /// Restores parameters from a snapshot taken on an identically-shaped
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's structure does not match this model.
    pub fn restore(&mut self, state: &ModelState) {
        assert_eq!(
            state.layers.len(),
            self.layers.len(),
            "snapshot layer count mismatch"
        );
        for (layer, saved) in self.layers.iter_mut().zip(&state.layers) {
            let params = layer.params();
            assert_eq!(params.len(), saved.len(), "snapshot param count mismatch");
            for (p, (name, values)) in params.into_iter().zip(saved) {
                assert_eq!(p.name, name, "snapshot param name mismatch");
                assert_eq!(p.values.len(), values.len(), "snapshot param len mismatch");
                p.values.copy_from_slice(values);
            }
        }
    }

    /// Argmax over the last dimension of the model output: class predictions
    /// for a `[N, K]` logit tensor.
    ///
    /// The comparison uses the IEEE-754 total order (`f32::total_cmp`), so a
    /// model whose weights were corrupted into emitting NaN/±∞ still yields
    /// a deterministic (garbage) class instead of panicking mid-pipeline —
    /// detecting and discarding such outputs is the guard layer's job, not
    /// the argmax's.
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        let y = self.forward(x, false);
        let k = *y.shape().last().expect("rank >= 1");
        y.as_slice()
            .chunks(k)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .expect("non-empty row")
            })
            .collect()
    }
}

impl Layer for Sequential {
    fn name(&self) -> &'static str {
        "sequential"
    }

    /// In training, every layer but the last (whose output leaves the
    /// stack) is lent a spare allocation before it runs, and each
    /// activation's allocation becomes spare once the next layer has read
    /// it. The input is copied only when there is no layer to produce a new
    /// tensor (an empty stack is a pass-through).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let last = self.layers.len().saturating_sub(1);
        let mut cur: Option<Tensor> = None;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            if train && i < last {
                lend_spare(&mut self.spare, layer.as_mut());
            }
            let next = layer.forward(cur.as_ref().unwrap_or(x), train);
            if let Some(spent) = cur.replace(next).filter(|_| train) {
                self.spare.push(spent.into_vec());
            }
        }
        cur.unwrap_or_else(|| x.clone())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        backward_through(&mut self.layers, &mut self.spare, grad_out, false)
            .unwrap_or_else(|| grad_out.clone())
    }

    /// Runs the full backward down to the first layer that owns
    /// parameters, which gets [`Layer::backward_params`]; the layers below
    /// it (a leading `Flatten`, say) own nothing to update and are skipped.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let Some(first) = self.layers.iter().position(|l| l.param_len() > 0) else {
            return;
        };
        let (below, above) = self.layers.split_at_mut(first + 1);
        let g = backward_through(above, &mut self.spare, grad_out, true);
        below[first].backward_params(g.as_ref().unwrap_or(grad_out));
        if let Some(spent) = g {
            self.spare.push(spent.into_vec());
        }
    }

    fn release_training_state(&mut self) {
        self.spare = Vec::new();
        for layer in &mut self.layers {
            layer.release_training_state();
        }
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        self.all_params()
    }

    fn param_len(&self) -> usize {
        self.layers.iter().map(|l| l.param_len()).sum()
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let mut shape = input.to_vec();
        for layer in &self.layers {
            shape = layer.output_shape(&shape);
        }
        shape
    }

    fn macs(&self, input: &[usize]) -> u64 {
        let mut shape = input.to_vec();
        let mut total = 0u64;
        for layer in &self.layers {
            total += layer.macs(&shape);
            shape = layer.output_shape(&shape);
        }
        total
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Back-propagates `grad_out` through `layers` in reverse order; `None`
/// when there are no layers (the gradient passes through unchanged). Each
/// gradient's allocation becomes spare once the layer below has consumed
/// it, and each layer is lent one before it runs, except the first when
/// its gradient leaves the stack (`lend_first` false).
fn backward_through(
    layers: &mut [Box<dyn Layer>],
    spare: &mut Vec<Vec<f32>>,
    grad_out: &Tensor,
    lend_first: bool,
) -> Option<Tensor> {
    let mut g: Option<Tensor> = None;
    for (i, layer) in layers.iter_mut().enumerate().rev() {
        if i > 0 || lend_first {
            lend_spare(spare, layer.as_mut());
        }
        let next = layer.backward(g.as_ref().unwrap_or(grad_out));
        if let Some(spent) = g.replace(next) {
            spare.push(spent.into_vec());
        }
    }
    g
}

/// Lends `layer` the spare allocation that was read last, if there is
/// one: the most likely still to be in cache.
fn lend_spare(spare: &mut Vec<Vec<f32>>, layer: &mut dyn Layer) {
    if let Some(buffer) = spare.pop() {
        layer.lend(buffer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Sequential::new("tiny");
        m.push(Dense::new(4, 8, &mut rng));
        m.push(Relu::new());
        m.push(Dense::new(8, 3, &mut rng));
        m
    }

    #[test]
    fn forward_shapes_compose() {
        let mut m = tiny_mlp(0);
        let x = Tensor::zeros(&[5, 4]);
        let y = m.forward(&x, false);
        assert_eq!(y.shape(), &[5, 3]);
        assert_eq!(m.output_shape(&[5, 4]), vec![5, 3]);
        assert_eq!(m.param_len(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(m.macs(&[1, 4]), (4 * 8 + 8 + 8 * 3) as u64);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut m = tiny_mlp(1);
        let x = Tensor::from_vec(&[1, 4], vec![0.1, -0.2, 0.3, 0.4]);
        let before = m.forward(&x, false);
        let snap = m.snapshot();

        // perturb all weights
        for p in m.all_params() {
            for v in p.values.iter_mut() {
                *v += 1.0;
            }
        }
        let perturbed = m.forward(&x, false);
        assert_ne!(before.as_slice(), perturbed.as_slice());

        m.restore(&snap);
        let after = m.forward(&x, false);
        assert_eq!(before.as_slice(), after.as_slice());
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let mut m = tiny_mlp(2);
        let snap = m.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: ModelState = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn predictions_are_argmax() {
        let mut m = Sequential::new("id");
        m.push(Flatten::new());
        let x = Tensor::from_vec(&[2, 3, 1, 1], vec![0.1, 0.9, 0.0, 2.0, -1.0, 1.0]);
        assert_eq!(m.predict(&x), vec![1, 0]);
    }

    #[test]
    fn clone_is_independent() {
        let mut m = tiny_mlp(3);
        let mut c = m.clone();
        for p in c.all_params() {
            p.values.fill(0.0);
        }
        // original unchanged
        assert!(m
            .all_params()
            .iter()
            .any(|p| p.values.iter().any(|&v| v != 0.0)));
    }

    #[test]
    fn parametric_layer_indices() {
        let m = tiny_mlp(4);
        assert_eq!(m.parametric_layers(), vec![0, 2]);
        assert_eq!(m.layer_count(), 3);
        assert_eq!(m.layer_name(1), "relu");
        assert_eq!(m.model_name(), "tiny");
    }

    #[test]
    fn gradient_flows_through_stack() {
        let mut m = tiny_mlp(5);
        let x = Tensor::from_vec(&[1, 4], vec![0.5, -0.5, 0.25, 1.0]);
        let y = m.forward(&x, true);
        let g = m.backward(&Tensor::from_vec(y.shape(), vec![1.0; y.len()]));
        assert_eq!(g.shape(), x.shape());
        // at least one weight gradient is non-zero
        assert!(m
            .all_params()
            .iter()
            .any(|p| p.grads.iter().any(|&v| v != 0.0)));
    }

    /// Runs `backward` on one copy of `layer` and `backward_params` on
    /// another, twice over, and checks that every parameter gradient is
    /// bit for bit the same.
    fn assert_params_only_matches_backward(mut layer: Box<dyn Layer>, x: &Tensor) {
        let mut full = layer.clone();
        let y = layer.forward(x, true);
        let _ = full.forward(x, true);
        for salt in [1usize, 2] {
            let g = Tensor::from_vec(
                y.shape(),
                (0..y.len())
                    .map(|i| ((i * 37 + salt * 11) % 23) as f32 / 7.0 - 1.5)
                    .collect(),
            );
            let _ = full.backward(&g);
            layer.backward_params(&g);
        }
        let bits = |l: &mut Box<dyn Layer>| -> Vec<u32> {
            l.params()
                .iter()
                .flat_map(|p| p.grads.iter().map(|v| v.to_bits()))
                .collect()
        };
        assert_eq!(bits(&mut layer), bits(&mut full), "{}", layer.name());
    }

    #[test]
    fn backward_params_leaves_the_gradients_of_backward() {
        use crate::layers::{Conv2d, Residual};
        let mut rng = StdRng::seed_from_u64(7);
        let image = Tensor::from_vec(
            &[3, 2, 6, 6],
            (0..3 * 2 * 36)
                .map(|i| ((i * 13) % 17) as f32 / 9.0 - 0.9)
                .collect(),
        );
        let conv = Conv2d::new(2, 4, 3, 1, &mut rng);
        assert_params_only_matches_backward(Box::new(conv), &image);
        let flat = Tensor::from_vec(&[3, 72], image.as_slice().to_vec());
        assert_params_only_matches_backward(Box::new(Dense::new(72, 5, &mut rng)), &flat);
        // A stack whose first layer owns no parameters.
        let mut stack = Sequential::new("flatten-first");
        stack.push(Flatten::new());
        stack.push(Dense::new(72, 8, &mut rng));
        stack.push(Relu::new());
        stack.push(Dense::new(8, 3, &mut rng));
        assert_params_only_matches_backward(Box::new(stack), &image);
        let mut inner = Sequential::new("inner");
        inner.push(Dense::new(72, 72, &mut rng));
        inner.push(Relu::new());
        inner.push(Dense::new(72, 72, &mut rng));
        assert_params_only_matches_backward(Box::new(Residual::new(inner)), &flat);
    }

    #[test]
    fn released_stack_keeps_its_inference_and_holds_no_gradients() {
        let mut m = crate::models::lenet_mini(12, 4, 8);
        let x = Tensor::from_vec(
            &[2, 1, 12, 12],
            (0..288).map(|i| ((i * 13) % 11) as f32 / 11.0).collect(),
        );
        let y = m.forward(&x, true);
        m.backward_params(&y);
        assert!(m
            .all_params()
            .iter()
            .all(|p| p.grads.len() == p.values.len()));
        let before = m.forward(&x, false);
        m.release_training_state();
        assert!(m.all_params().iter().all(|p| p.grads.is_empty()));
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&m.forward(&x, false)), bits(&before));
        // The next training step re-creates the accumulators as zeros.
        let _ = m.forward(&x, true);
        assert!(m
            .all_params()
            .iter()
            .all(|p| p.grads.len() == p.values.len() && p.grads.iter().all(|&g| g == 0.0)));
    }

    #[test]
    fn empty_stack_passes_input_and_gradient_through() {
        let mut m = Sequential::new("pass");
        let x = Tensor::from_vec(&[1, 3], vec![1.0, -2.0, 0.5]);
        assert_eq!(m.forward(&x, true).as_slice(), x.as_slice());
        assert_eq!(m.backward(&x).as_slice(), x.as_slice());
        m.backward_params(&x);
    }

    #[test]
    #[should_panic(expected = "layer count mismatch")]
    fn restore_rejects_mismatched_snapshot() {
        let mut a = tiny_mlp(6);
        let snap = a.snapshot();
        let mut b = Sequential::new("other");
        let mut rng = StdRng::seed_from_u64(0);
        b.push(Dense::new(4, 3, &mut rng));
        b.restore(&snap);
    }
}
