//! Runtime ML-module versions with health states and rejuvenation.

use mvml_faultinject::{random_weight_inj, FaultRecord, RuntimeFault};
use mvml_nn::layer::Layer;
use mvml_nn::{ModelState, Sequential, Tensor};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Health state of an ML module (Fig. 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModuleState {
    /// Operating correctly (H).
    Healthy,
    /// Compromised but still responsive, with degraded output (C).
    Compromised,
    /// Crashed / unresponsive (N); awaits reactive rejuvenation.
    NonFunctional,
    /// Being rejuvenated right now: unavailable, returns to healthy when
    /// the (re)deployment from safe storage finishes.
    Rejuvenating,
}

impl ModuleState {
    /// Whether the module answers inference requests in this state.
    pub fn is_operational(self) -> bool {
        matches!(self, ModuleState::Healthy | ModuleState::Compromised)
    }
}

/// One version of the multi-version system: a trained model, a pristine
/// snapshot of its weights ("safe memory location"), and its health state.
/// The snapshot is immutable and shared: a cloned module (a serve shard
/// rebuilt from its blueprint) points at the same weights instead of
/// copying them.
///
/// A module may additionally carry a *diversity pool* of alternative
/// trained variants: the paper's Section IV notes that "leveraging
/// diversification when rejuvenating (e.g. load a different module having
/// different characteristics such as ML model and ML framework) can harden
/// the system" — [`VersionedModule::complete_rejuvenation_diversified`]
/// implements that rotation.
#[derive(Debug, Clone)]
pub struct VersionedModule {
    model: Sequential,
    pristine: Arc<ModelState>,
    state: ModuleState,
    active_fault: Option<FaultRecord>,
    /// A persistent *runtime* fault manifestation: while set, every forward
    /// pass of this module misbehaves according to the fault model (logit
    /// corruption, panics, deadline misses, stale replays). Cleared by
    /// rejuvenation, like the weight faults.
    runtime_fault: Option<RuntimeFault>,
    /// Alternative pristine variants for diversified rejuvenation, paired
    /// with their snapshots; `pool_index` tracks the variant currently
    /// deployed (0 = the original).
    diversity_pool: Vec<(Sequential, Arc<ModelState>)>,
    pool_index: usize,
}

impl VersionedModule {
    /// Wraps a (trained) model; its current weights become the pristine
    /// snapshot that rejuvenation restores.
    pub fn new(mut model: Sequential) -> Self {
        let pristine = Arc::new(model.snapshot());
        VersionedModule {
            model,
            pristine,
            state: ModuleState::Healthy,
            active_fault: None,
            runtime_fault: None,
            diversity_pool: Vec::new(),
            pool_index: 0,
        }
    }

    /// Wraps a model together with alternative trained variants that
    /// diversified rejuvenation rotates through. The pool holds the
    /// original as variant 0 followed by the alternates, each with its own
    /// pristine snapshot.
    pub fn with_diversity_pool(model: Sequential, alternates: Vec<Sequential>) -> Self {
        let mut module = VersionedModule::new(model.clone());
        module.diversity_pool = std::iter::once(model)
            .chain(alternates)
            .map(|mut m| {
                let snap = Arc::new(m.snapshot());
                (m, snap)
            })
            .collect();
        module
    }

    /// Number of variants available for diversified rejuvenation.
    pub fn variant_count(&self) -> usize {
        self.diversity_pool.len().max(1)
    }

    /// Completes a rejuvenation *with diversification*: instead of
    /// restoring the same pristine weights, the next variant from the pool
    /// is deployed (round-robin). Falls back to plain
    /// [`VersionedModule::complete_rejuvenation`] when no pool was
    /// registered. Returns the name of the deployed model.
    pub fn complete_rejuvenation_diversified(&mut self) -> String {
        if self.diversity_pool.is_empty() {
            self.complete_rejuvenation();
            return self.model.model_name().to_string();
        }
        self.pool_index = (self.pool_index + 1) % self.diversity_pool.len();
        let (variant, snap) = &self.diversity_pool[self.pool_index];
        let mut fresh = variant.clone();
        fresh.restore(snap);
        // The deployed variant's snapshot becomes the module's new "safe
        // memory location" for subsequent plain rejuvenations.
        self.pristine = Arc::clone(snap);
        self.model = fresh;
        self.active_fault = None;
        self.runtime_fault = None;
        self.state = ModuleState::Healthy;
        self.model.model_name().to_string()
    }

    /// The wrapped model's name.
    pub fn name(&self) -> &str {
        self.model.model_name()
    }

    /// Current health state.
    pub fn state(&self) -> ModuleState {
        self.state
    }

    /// The currently planted fault, if any.
    pub fn active_fault(&self) -> Option<&FaultRecord> {
        self.active_fault.as_ref()
    }

    /// Mutable access to the underlying model (e.g. for custom injection).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }

    /// Compromises the module: injects one `random_weight_inj(layer, min,
    /// max)` fault (PyTorchFI semantics) and moves to
    /// [`ModuleState::Compromised`]. A fault already present is undone
    /// first, so repeated compromises do not accumulate.
    pub fn compromise(
        &mut self,
        nth_parametric: usize,
        min: f32,
        max: f32,
        seed: u64,
    ) -> &FaultRecord {
        if self.active_fault.is_some() {
            self.model.restore(&self.pristine);
        }
        let record = random_weight_inj(&mut self.model, nth_parametric, min, max, seed);
        self.active_fault = Some(record);
        self.state = ModuleState::Compromised;
        #[allow(clippy::expect_used)] // invariant justified in the message
        self.active_fault
            .as_ref()
            .expect("invariant: active_fault assigned on the previous line")
    }

    /// Marks the module crashed (C → N or H → N).
    pub fn fail(&mut self) {
        self.state = ModuleState::NonFunctional;
    }

    /// Starts a (reactive or proactive) rejuvenation: the module becomes
    /// unavailable.
    pub fn begin_rejuvenation(&mut self) {
        self.state = ModuleState::Rejuvenating;
    }

    /// Completes rejuvenation: restores pristine weights, clears any
    /// runtime fault manifestation, and returns to
    /// [`ModuleState::Healthy`].
    pub fn complete_rejuvenation(&mut self) {
        self.model.restore(&self.pristine);
        self.active_fault = None;
        self.runtime_fault = None;
        self.state = ModuleState::Healthy;
    }

    /// Plants a persistent runtime fault: every subsequent forward pass
    /// manifests it until rejuvenation clears it. The paper's compromise
    /// events can thus manifest at *runtime* (corrupted activations, crash
    /// loops, stale buffers) instead of — or in addition to — the offline
    /// weight faults of [`VersionedModule::compromise`].
    pub fn set_runtime_fault(&mut self, fault: RuntimeFault) {
        self.runtime_fault = Some(fault);
        if self.state == ModuleState::Healthy {
            self.state = ModuleState::Compromised;
        }
    }

    /// Clears a planted runtime fault without touching weights or state.
    pub fn clear_runtime_fault(&mut self) {
        self.runtime_fault = None;
    }

    /// The currently planted runtime fault, if any.
    pub fn runtime_fault(&self) -> Option<RuntimeFault> {
        self.runtime_fault
    }

    /// Forces a health state without touching the weights; used by the
    /// analytic-empirical cross-checks that pin the system into a specific
    /// `(i, j, k)` state.
    pub fn force_state(&mut self, state: ModuleState) {
        self.state = state;
    }

    /// Classifies a batch, or `None` when the module is not operational
    /// (non-functional modules miss their deadline; the voter sees no
    /// proposal).
    pub fn infer(&mut self, x: &Tensor) -> Option<Vec<usize>> {
        if self.state.is_operational() {
            Some(self.model.predict(x))
        } else {
            None
        }
    }

    /// Raw forward pass returning the logit tensor, or `None` when the
    /// module is not operational. The hardened system path sanitizes these
    /// logits before any argmax, so a corrupted module cannot poison the
    /// vote with non-finite values.
    pub fn infer_logits(&mut self, x: &Tensor) -> Option<Tensor> {
        if self.state.is_operational() {
            Some(self.model.forward(x, false))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvml_nn::models::lenet_mini;

    fn module() -> VersionedModule {
        VersionedModule::new(lenet_mini(16, 10, 38))
    }

    #[test]
    fn starts_healthy_and_operational() {
        let m = module();
        assert_eq!(m.state(), ModuleState::Healthy);
        assert!(m.state().is_operational());
        assert!(m.active_fault().is_none());
        assert_eq!(m.name(), "lenet-mini");
    }

    #[test]
    fn compromise_plants_fault_and_degrades_state() {
        let mut m = module();
        let rec = m.compromise(0, -10.0, 30.0, 5).clone();
        assert_eq!(m.state(), ModuleState::Compromised);
        assert!(m.state().is_operational());
        assert_eq!(m.active_fault(), Some(&rec));
    }

    #[test]
    fn repeated_compromise_does_not_accumulate() {
        let mut m = module();
        let _ = m.compromise(0, -10.0, 30.0, 1);
        let _ = m.compromise(0, -10.0, 30.0, 2);
        m.complete_rejuvenation();
        // After rejuvenation the model must equal the pristine snapshot —
        // if faults accumulated, the first one would linger.
        let restored = m.model_mut().snapshot();
        let mut fresh = lenet_mini(16, 10, 38);
        assert_eq!(restored, fresh.snapshot());
    }

    fn weight_bits(m: &mut VersionedModule) -> Vec<u32> {
        let snap = m.model_mut().snapshot();
        snap.layers
            .iter()
            .flatten()
            .flat_map(|(_, values)| values.iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn cloned_systems_share_the_pristine_snapshot() {
        let mut system = crate::system::NVersionSystem::new(vec![
            lenet_mini(16, 10, 38),
            lenet_mini(16, 10, 39),
        ]);
        let mut clone = system.clone();
        for i in 0..2 {
            let (a, b) = (system.module(i), clone.module(i));
            assert!(Arc::ptr_eq(&a.pristine, &b.pristine), "module {i} copied");
        }
        // Both copies still restore the trained bits after a compromise.
        let want = weight_bits(system.module_mut(0));
        for (copy, seed) in [(&mut system, 3), (&mut clone, 4)] {
            let m = copy.module_mut(0);
            let _ = m.compromise(0, -10.0, 30.0, seed);
            assert_ne!(weight_bits(m), want);
            m.complete_rejuvenation();
            assert_eq!(weight_bits(m), want);
        }
    }

    #[test]
    fn failed_and_rejuvenating_modules_do_not_answer() {
        let mut m = module();
        let x = Tensor::zeros(&[1, 1, 16, 16]);
        assert!(m.infer(&x).is_some());
        m.fail();
        assert_eq!(m.state(), ModuleState::NonFunctional);
        assert!(m.infer(&x).is_none());
        m.begin_rejuvenation();
        assert_eq!(m.state(), ModuleState::Rejuvenating);
        assert!(m.infer(&x).is_none());
        m.complete_rejuvenation();
        assert!(m.infer(&x).is_some());
    }

    #[test]
    fn rejuvenation_restores_behaviour() {
        let mut m = module();
        let x = Tensor::from_vec(
            &[1, 1, 16, 16],
            (0..256).map(|i| (i % 7) as f32 / 7.0).collect(),
        );
        let before = m.infer(&x).unwrap();
        // Compromise with a large fault until behaviour changes, then check
        // rejuvenation restores the original predictions.
        let mut changed = false;
        for seed in 0..50 {
            m.compromise(0, 200.0, 300.0, seed);
            if m.infer(&x).unwrap() != before {
                changed = true;
                break;
            }
        }
        assert!(changed, "no seed changed behaviour");
        m.complete_rejuvenation();
        assert_eq!(m.infer(&x).unwrap(), before);
        assert_eq!(m.state(), ModuleState::Healthy);
    }

    #[test]
    fn diversified_rejuvenation_rotates_variants() {
        use mvml_nn::models::{alexnet_mini, resmlp};
        let mut m = VersionedModule::with_diversity_pool(
            lenet_mini(16, 10, 38),
            vec![alexnet_mini(16, 10, 39), resmlp(16, 10, 40)],
        );
        assert_eq!(m.variant_count(), 3);
        assert_eq!(m.name(), "lenet-mini");
        m.compromise(0, -10.0, 30.0, 1);
        // First diversified rejuvenation deploys the next variant.
        let deployed = m.complete_rejuvenation_diversified();
        assert_eq!(deployed, "alexnet-mini");
        assert_eq!(m.state(), ModuleState::Healthy);
        assert!(m.active_fault().is_none());
        // Round-robin continues and wraps back to the original.
        assert_eq!(m.complete_rejuvenation_diversified(), "resmlp");
        assert_eq!(m.complete_rejuvenation_diversified(), "lenet-mini");
        // A plain rejuvenation after a compromise restores the *current*
        // variant's pristine weights (no cross-architecture restore).
        assert_eq!(m.complete_rejuvenation_diversified(), "alexnet-mini");
        m.compromise(0, -10.0, 30.0, 2);
        m.complete_rejuvenation();
        assert_eq!(m.name(), "alexnet-mini");
        assert_eq!(m.state(), ModuleState::Healthy);
    }

    #[test]
    fn diversified_rejuvenation_without_pool_falls_back() {
        let mut m = module();
        m.compromise(0, -10.0, 30.0, 3);
        let deployed = m.complete_rejuvenation_diversified();
        assert_eq!(deployed, "lenet-mini");
        assert_eq!(m.state(), ModuleState::Healthy);
    }

    #[test]
    fn runtime_faults_degrade_state_and_clear_on_rejuvenation() {
        use mvml_faultinject::{CorruptionMode, RuntimeFault};
        let mut m = module();
        m.set_runtime_fault(RuntimeFault::Corrupt(CorruptionMode::Nan));
        assert_eq!(m.state(), ModuleState::Compromised);
        assert!(m.runtime_fault().is_some());
        // Weights are untouched — the fault lives at the activation level.
        assert!(m.active_fault().is_none());
        m.complete_rejuvenation();
        assert!(m.runtime_fault().is_none());
        assert_eq!(m.state(), ModuleState::Healthy);
        // Clearing without rejuvenation leaves the health state alone.
        m.set_runtime_fault(RuntimeFault::Crash);
        m.clear_runtime_fault();
        assert!(m.runtime_fault().is_none());
        assert_eq!(m.state(), ModuleState::Compromised);
    }

    #[test]
    fn infer_logits_matches_infer_argmax() {
        let mut m = module();
        let x = Tensor::from_vec(
            &[2, 1, 16, 16],
            (0..512).map(|i| (i % 11) as f32 / 11.0).collect(),
        );
        let classes = m.infer(&x).expect("operational");
        let logits = m.infer_logits(&x).expect("operational");
        let k = *logits.shape().last().expect("rank >= 1");
        let armax: Vec<usize> = logits
            .as_slice()
            .chunks(k)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .expect("non-empty row")
            })
            .collect();
        assert_eq!(classes, armax);
        m.fail();
        assert!(m.infer_logits(&x).is_none());
    }

    #[test]
    fn force_state_does_not_touch_weights() {
        let mut m = module();
        let before = m.model_mut().snapshot();
        m.force_state(ModuleState::Compromised);
        assert_eq!(m.state(), ModuleState::Compromised);
        assert_eq!(m.model_mut().snapshot(), before);
    }
}
