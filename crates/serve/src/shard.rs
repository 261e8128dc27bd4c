//! Shards: the unit of failure containment and parallel execution.
//!
//! A shard owns the complete runtime state of the tenants assigned to it —
//! each tenant's [`NVersionSystem`] (module replicas + guard runtime),
//! pending-repair schedule and telemetry recorder. Shards move wholesale
//! into worker-pool jobs each round and come back with per-tenant
//! outcomes; if a shard's job panics, only that shard's state is lost and
//! only its tenants' in-flight requests are dropped — the service rebuilds
//! the shard from pristine blueprints while every other fault domain keeps
//! serving untouched.
//!
//! Determinism: a tenant's outcomes are a pure function of its own config,
//! seed and request stream. The shard is merely *where* that function
//! runs, so moving a tenant between shards (changing the shard count)
//! cannot change any report field.

use crate::admission::TenantBatch;
use crate::proto::VerdictDto;
use crate::tenant::{build_system, fault_plan, tenant_seed, TenantConfig};
use mvml_core::module::ModuleState;
use mvml_core::{FaultEvent, NVersionSystem};
use mvml_faultinject::{splitmix64, to_unit, RuntimeFault};
use mvml_obs::{Recorder, RingBufferSink};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Stream tags separating the aging model's independent draw streams
/// (all keyed off the tenant's chaos seed and the round index).
const STREAM_COMPROMISE: u64 = 0x01;
const STREAM_COMPROMISE_VICTIM: u64 = 0x02;
const STREAM_CRASH: u64 = 0x03;
const STREAM_CRASH_VICTIM: u64 = 0x04;
const STREAM_REPAIR_TIME: u64 = 0x05;
const STREAM_REFRESH_TIME: u64 = 0x06;

/// A pure per-round draw in `[0, 1)`: a function of (seed, stream, round)
/// only, so aging histories replay identically on any shard layout.
fn draw(seed: u64, stream: u64, round: u64) -> f64 {
    to_unit(splitmix64(draw_key(seed, stream, round)))
}

/// A geometric duration on `{1, 2, …}` with the given mean, via inverse
/// CDF over one pure draw — the discrete-time analog of the DSPN's
/// exponential repair service times. A mean of 1 (or less) is the
/// degenerate always-one-round case.
fn geometric_rounds(seed: u64, stream: u64, round: u64, mean: u64) -> u64 {
    if mean <= 1 {
        return 1;
    }
    let p = 1.0 / mean as f64;
    let u = draw(seed, stream, round);
    // u < 1 always, so ln(1 − u) is finite and the ratio non-negative.
    let d = (1.0 - u).ln() / (1.0 - p).ln();
    d.floor() as u64 + 1
}

/// Why a module is (or was) undergoing rejuvenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairKind {
    /// Scheduled by a watchdog escalation (the DSPN's `Tr` repair).
    Reactive,
    /// Scheduled by the time-triggered proactive clock (`Trj`).
    Proactive,
}

/// One scheduled rejuvenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingRepair {
    /// Service round the rejuvenation completes.
    pub due: u64,
    /// Reactive or proactive.
    pub kind: RepairKind,
}

/// What one tenant experienced during one service round.
#[derive(Debug, Clone)]
pub struct TenantRoundOutcome {
    /// Tenant name.
    pub tenant: String,
    /// Correlation ids served this round (empty when the tenant only had
    /// health-management work).
    pub ids: Vec<u64>,
    /// Admission round per id, parallel to `ids` (round-latency origin).
    pub admitted_rounds: Vec<u64>,
    /// One verdict per id, in order.
    pub verdicts: Vec<VerdictDto>,
    /// Fault events the guard detected this round.
    pub events: Vec<FaultEvent>,
    /// Rejuvenations that completed at the start of this round.
    pub repairs_completed: Vec<(usize, RepairKind)>,
    /// Modules escalated this round and admitted to the reactive repair
    /// path (the station when free, its FIFO queue otherwise).
    pub repairs_scheduled: Vec<usize>,
    /// Module sent for proactive refresh this round, if any.
    pub proactive_started: Option<usize>,
}

/// One tenant's complete runtime state: its fault domain.
pub struct TenantState {
    cfg: TenantConfig,
    system: NVersionSystem,
    /// Module index → rejuvenation currently in service.
    pending_repairs: BTreeMap<usize, PendingRepair>,
    /// Escalated modules waiting for the single reactive repair station
    /// (the DSPN's queued `Pmf` tokens, FIFO). A queued module is already
    /// failed — out of the vote — but its `repair_delay_rounds` clock only
    /// starts once the station frees.
    repair_queue: VecDeque<usize>,
    /// The tenant's private chaos seed (aging draws key off it).
    chaos_seed: u64,
    /// Driver-side view of which modules the aging model compromised.
    compromised: Vec<bool>,
    /// Next module the proactive cursor will refresh (round-robin ≈ the
    /// DSPN's uniform victim weights over functional modules).
    proactive_cursor: usize,
    /// A proactive trigger fired and is waiting for the repair station to
    /// free up (the DSPN's `Pac` token; further clock fires drop).
    proactive_armed: bool,
    /// Private telemetry ring, replayed in tenant order at shutdown so the
    /// merged stream is independent of shard interleaving.
    ring: Option<Arc<RingBufferSink>>,
}

impl TenantState {
    /// Assembles a tenant's fault domain from its blueprint system:
    /// attaches the derived fault plan and (optionally) a private
    /// telemetry ring scoped by tenant name only — never by shard id.
    pub fn new(
        cfg: TenantConfig,
        mut system: NVersionSystem,
        service_seed: u64,
        tenant_index: usize,
        ring: Option<Arc<RingBufferSink>>,
    ) -> Self {
        if let Some(spec) = &cfg.fault {
            system.set_fault_plan(Some(fault_plan(
                spec,
                tenant_seed(service_seed, tenant_index),
            )));
        }
        if let Some(ring) = &ring {
            let sink: Arc<dyn mvml_obs::Sink> = Arc::clone(ring) as Arc<dyn mvml_obs::Sink>;
            system.set_recorder(Recorder::new(sink).scoped(&format!("serve/{}", cfg.name)));
        }
        let versions = system.version_count();
        TenantState {
            chaos_seed: tenant_seed(service_seed, tenant_index),
            compromised: vec![false; versions],
            proactive_cursor: 0,
            proactive_armed: false,
            cfg,
            system,
            pending_repairs: BTreeMap::new(),
            repair_queue: VecDeque::new(),
            ring,
        }
    }

    /// The tenant's configuration.
    pub fn config(&self) -> &TenantConfig {
        &self.cfg
    }

    /// The tenant's N-version system.
    pub fn system(&self) -> &NVersionSystem {
        &self.system
    }

    /// Mutable system access (tests force module states through this).
    pub fn system_mut(&mut self) -> &mut NVersionSystem {
        &mut self.system
    }

    /// The tenant's private telemetry ring, if recording.
    pub fn ring(&self) -> Option<&Arc<RingBufferSink>> {
        self.ring.as_ref()
    }

    /// Modules currently awaiting rejuvenation (module → schedule).
    pub fn pending_repairs(&self) -> &BTreeMap<usize, PendingRepair> {
        &self.pending_repairs
    }

    /// Failed modules queued for the single reactive repair station.
    pub fn repair_queue(&self) -> &VecDeque<usize> {
        &self.repair_queue
    }

    /// Whether the reactive repair station is serving a module right now.
    fn reactive_busy(&self) -> bool {
        self.pending_repairs
            .values()
            .any(|r| r.kind == RepairKind::Reactive)
    }

    /// The duration of a repair admitted this round: exactly `mean`
    /// rounds by default, or a seeded geometric draw with that mean when
    /// the tenant opted into stochastic (DSPN-exponential) repairs.
    fn repair_duration(&self, stream: u64, round: u64, mean: u64) -> u64 {
        if self.cfg.stochastic_repair {
            geometric_rounds(self.chaos_seed, stream, round, mean.max(1))
        } else {
            mean.max(1)
        }
    }

    /// Moves the next queued failed module into the repair station if it
    /// is free — the DSPN's single-server `Tr` semantics.
    fn start_queued_repair(&mut self, round: u64) {
        if self.reactive_busy() {
            return;
        }
        let duration =
            self.repair_duration(STREAM_REPAIR_TIME, round, self.cfg.repair_delay_rounds);
        while let Some(m) = self.repair_queue.pop_front() {
            if let Ok(module) = self.system.try_module_mut(m) {
                module.begin_rejuvenation();
                self.pending_repairs.insert(
                    m,
                    PendingRepair {
                        due: round + duration,
                        kind: RepairKind::Reactive,
                    },
                );
                return;
            }
        }
    }

    /// Driver-side view of which modules the aging model compromised.
    pub fn compromised_modules(&self) -> &[bool] {
        &self.compromised
    }

    /// Whether this tenant has health-management work in `round` even
    /// without a batch: pending repairs, an armed or freshly due proactive
    /// trigger, or an aging model that draws every round.
    pub fn needs_health_round(&self, round: u64) -> bool {
        if !self.pending_repairs.is_empty()
            || !self.repair_queue.is_empty()
            || self.proactive_armed
            || self.cfg.aging.is_some()
        {
            return true;
        }
        match self.cfg.proactive {
            Some(p) if p.period_rounds > 0 => round > 0 && round.is_multiple_of(p.period_rounds),
            _ => false,
        }
    }

    /// The next module the proactive cursor refreshes: the first
    /// operational module at or after the cursor (round-robin over all
    /// modules approximates the DSPN's uniform victim weights `w1`/`w2`
    /// over functional modules).
    fn next_refresh_victim(&self) -> Option<usize> {
        let n = self.system.version_count();
        (0..n).map(|k| (self.proactive_cursor + k) % n).find(|&m| {
            self.system.module(m).state().is_operational() && !self.pending_repairs.contains_key(&m)
        })
    }

    /// Runs one round for this tenant: completes due repairs, fires the
    /// proactive clock, draws the aging model, classifies the batch (if
    /// any), then schedules reactive rejuvenation for every module the
    /// watchdog escalated.
    fn process_round(&mut self, round: u64, batch: Option<TenantBatch>) -> TenantRoundOutcome {
        // 1. Complete due rejuvenations: modules redeploy pristine.
        let mut repairs_completed = Vec::new();
        let due: Vec<(usize, RepairKind)> = self
            .pending_repairs
            .iter()
            .filter(|(_, r)| r.due <= round)
            .map(|(m, r)| (*m, r.kind))
            .collect();
        for (m, kind) in due {
            self.pending_repairs.remove(&m);
            if self.system.rejuvenate_module(m).is_ok() {
                if let Some(flag) = self.compromised.get_mut(m) {
                    *flag = false;
                }
                repairs_completed.push((m, kind));
            }
        }
        // The station may have freed up: admit the next queued failure.
        self.start_queued_repair(round);

        // 2. Proactive clock, before the vote: a refresh removes its
        //    module from this round's redundancy, like the DSPN's Trj
        //    service. A trigger landing while the repair station is busy
        //    (any pending or queued repair) stays armed and fires as soon
        //    as the station frees — the Pac token waiting on the Pmf/Pmr
        //    inhibitors; a second trigger meanwhile is dropped (Tdrop).
        //    The armed/busy dance keeps at most one module of the tenant
        //    down at any time.
        let mut proactive_started = None;
        if let Some(p) = self.cfg.proactive {
            if p.period_rounds > 0 && round > 0 && round.is_multiple_of(p.period_rounds) {
                self.proactive_armed = true;
            }
            if self.proactive_armed
                && self.pending_repairs.is_empty()
                && self.repair_queue.is_empty()
            {
                if let Some(victim) = self.next_refresh_victim() {
                    let duration =
                        self.repair_duration(STREAM_REFRESH_TIME, round, p.refresh_rounds);
                    if let Ok(module) = self.system.try_module_mut(victim) {
                        module.begin_rejuvenation();
                        self.pending_repairs.insert(
                            victim,
                            PendingRepair {
                                due: round + duration,
                                kind: RepairKind::Proactive,
                            },
                        );
                        let n = self.system.version_count().max(1);
                        self.proactive_cursor = (victim + 1) % n;
                        self.proactive_armed = false;
                        proactive_started = Some(victim);
                    }
                }
            }
        }

        // 3. Aging draws (single-server DSPN semantics): per round, at
        //    most one healthy module becomes compromised (Tc) and at most
        //    one compromised module gets a crash fault armed for this
        //    round's inference (Tf). Both draws are pure functions of
        //    (chaos seed, round).
        let mut armed_crash = None;
        if let Some(aging) = self.cfg.aging {
            if draw(self.chaos_seed, STREAM_COMPROMISE, round) < aging.compromise_rate {
                let healthy: Vec<usize> = (0..self.system.version_count())
                    .filter(|&m| {
                        self.system.module(m).state() == ModuleState::Healthy
                            && !self.compromised[m]
                            && !self.pending_repairs.contains_key(&m)
                    })
                    .collect();
                if !healthy.is_empty() {
                    let pick =
                        splitmix64(draw_key(self.chaos_seed, STREAM_COMPROMISE_VICTIM, round))
                            as usize
                            % healthy.len();
                    let victim = healthy[pick];
                    self.compromised[victim] = true;
                    if let Ok(module) = self.system.try_module_mut(victim) {
                        module.force_state(ModuleState::Compromised);
                    }
                }
            }
            if draw(self.chaos_seed, STREAM_CRASH, round) < aging.crash_rate {
                let cands: Vec<usize> = (0..self.system.version_count())
                    .filter(|&m| {
                        self.compromised[m]
                            && self.system.module(m).state().is_operational()
                            && !self.pending_repairs.contains_key(&m)
                    })
                    .collect();
                if !cands.is_empty() {
                    let pick = splitmix64(draw_key(self.chaos_seed, STREAM_CRASH_VICTIM, round))
                        as usize
                        % cands.len();
                    let victim = cands[pick];
                    if let Ok(module) = self.system.try_module_mut(victim) {
                        module.set_runtime_fault(RuntimeFault::Crash);
                        armed_crash = Some(victim);
                    }
                }
            }
        }

        // 4. Serve the batch.
        let (ids, admitted_rounds, verdicts, events, escalations) = match batch {
            Some(batch) => {
                let report = self.system.classify_batch_detailed(&batch.x);
                let verdicts: Vec<VerdictDto> =
                    report.verdicts.iter().map(VerdictDto::from).collect();
                (
                    batch.ids,
                    batch.admitted_rounds,
                    verdicts,
                    report.events,
                    report.escalations,
                )
            }
            None => (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()),
        };

        // An armed crash fault is a one-round event; disarm it so the
        // module (if it survived escalation) infers normally next round.
        if let Some(m) = armed_crash {
            if let Ok(module) = self.system.try_module_mut(m) {
                module.clear_runtime_fault();
            }
        }

        // 5. Reactive repairs for watchdog escalations. The watchdog has
        //    already failed the module (it is out of the vote either way);
        //    the single repair station serves one module at a time, so a
        //    module escalated while the station is busy waits in the
        //    failed queue and its repair clock starts only on admission —
        //    the DSPN's queued Pmf tokens under single-server Tr.
        let mut repairs_scheduled = Vec::new();
        for m in escalations {
            if self.pending_repairs.contains_key(&m) || self.repair_queue.contains(&m) {
                continue;
            }
            self.repair_queue.push_back(m);
            repairs_scheduled.push(m);
        }
        self.start_queued_repair(round);

        TenantRoundOutcome {
            tenant: self.cfg.name.clone(),
            ids,
            admitted_rounds,
            verdicts,
            events,
            repairs_completed,
            repairs_scheduled,
            proactive_started,
        }
    }
}

/// The mixing key behind one aging draw (exposed for `draw` and the
/// victim-selection draws, which need the raw 64-bit value).
fn draw_key(seed: u64, stream: u64, round: u64) -> u64 {
    splitmix64(seed)
        .wrapping_add(splitmix64(stream ^ 0xA61E_0000))
        .wrapping_add(splitmix64(round ^ 0x5EED_0000_0000))
}

/// One shard: the tenants co-located on one worker-thread fault domain.
pub struct Shard {
    id: usize,
    tenants: BTreeMap<String, TenantState>,
}

impl Shard {
    /// An empty shard.
    pub fn new(id: usize) -> Self {
        Shard {
            id,
            tenants: BTreeMap::new(),
        }
    }

    /// The shard's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Adds a tenant's fault domain to this shard.
    pub fn insert_tenant(&mut self, state: TenantState) {
        self.tenants.insert(state.config().name.clone(), state);
    }

    /// Names of the tenants hosted here, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.keys().cloned().collect()
    }

    /// Access to one hosted tenant.
    pub fn tenant(&self, name: &str) -> Option<&TenantState> {
        self.tenants.get(name)
    }

    /// Mutable access to one hosted tenant.
    pub fn tenant_mut(&mut self, name: &str) -> Option<&mut TenantState> {
        self.tenants.get_mut(name)
    }

    /// Runs one service round: every hosted tenant completes due repairs,
    /// serves its batch (when present) and schedules new repairs. Tenants
    /// are processed in name order; outcomes come back in that order.
    pub fn process_round(
        &mut self,
        round: u64,
        mut batches: BTreeMap<String, TenantBatch>,
    ) -> Vec<TenantRoundOutcome> {
        let mut outcomes = Vec::with_capacity(self.tenants.len());
        for (name, tenant) in &mut self.tenants {
            let batch = batches.remove(name);
            let idle = batch.is_none() && !tenant.needs_health_round(round);
            if idle {
                continue;
            }
            outcomes.push(tenant.process_round(round, batch));
        }
        outcomes
    }
}

/// Builds the tenant fault domain for `cfg` (training models if the spec
/// requires it) and wraps it in a [`TenantState`].
pub fn build_tenant_state(
    cfg: &TenantConfig,
    service_seed: u64,
    tenant_index: usize,
    ring: Option<Arc<RingBufferSink>>,
) -> Result<TenantState, crate::error::ServeError> {
    let system = build_system(cfg)?;
    Ok(TenantState::new(
        cfg.clone(),
        system,
        service_seed,
        tenant_index,
        ring,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{FaultSpec, FaultSpecKind};
    use mvml_nn::Tensor;

    fn batch(ids: &[u64], classes: usize) -> TenantBatch {
        let n = ids.len();
        let mut data = Vec::with_capacity(n * classes);
        for id in ids {
            for k in 0..classes {
                data.push(if k == (*id as usize) % classes {
                    1.0
                } else {
                    0.0
                });
            }
        }
        TenantBatch {
            ids: ids.to_vec(),
            admitted_rounds: vec![0; ids.len()],
            x: Tensor::from_vec(&[n, classes], data),
        }
    }

    #[test]
    fn healthy_passthrough_round_answers_every_request() {
        let cfg = TenantConfig::passthrough("alpha", 4);
        let mut shard = Shard::new(0);
        shard.insert_tenant(build_tenant_state(&cfg, 1, 0, None).expect("build"));
        let mut batches = BTreeMap::new();
        batches.insert("alpha".to_string(), batch(&[0, 1, 2, 5], 4));
        let outcomes = shard.process_round(0, batches);
        assert_eq!(outcomes.len(), 1);
        let out = &outcomes[0];
        assert_eq!(out.ids, vec![0, 1, 2, 5]);
        assert_eq!(
            out.verdicts,
            vec![
                VerdictDto::Output { class: 0 },
                VerdictDto::Output { class: 1 },
                VerdictDto::Output { class: 2 },
                VerdictDto::Output { class: 1 },
            ]
        );
        assert!(out.events.is_empty());
        // Idle tenants produce no outcome rows at all.
        assert!(shard.process_round(1, BTreeMap::new()).is_empty());
    }

    #[test]
    fn escalation_schedules_repair_and_repair_completes_on_due_round() {
        let mut cfg = TenantConfig::passthrough("alpha", 3).with_fault(FaultSpec {
            kind: FaultSpecKind::Crash,
            rate: 1.0,
            module: Some(1),
        });
        cfg.repair_delay_rounds = 2;
        let mut shard = Shard::new(0);
        shard.insert_tenant(build_tenant_state(&cfg, 9, 0, None).expect("build"));

        // Default watchdog escalates after repeated faults in-window.
        let mut scheduled_at = None;
        for round in 0..6u64 {
            let mut batches = BTreeMap::new();
            batches.insert("alpha".to_string(), batch(&[round], 3));
            let outcomes = shard.process_round(round, batches);
            let out = &outcomes[0];
            if !out.repairs_scheduled.is_empty() {
                assert_eq!(out.repairs_scheduled, vec![1]);
                scheduled_at = Some(round);
                break;
            }
        }
        let scheduled_at = scheduled_at.expect("module 1 escalates under a 100% crash rate");

        // The repair completes exactly repair_delay_rounds later, even on an
        // otherwise-idle round.
        let due = scheduled_at + cfg.repair_delay_rounds;
        for round in (scheduled_at + 1)..=due {
            let outcomes = shard.process_round(round, BTreeMap::new());
            if round < due {
                assert!(outcomes.iter().all(|o| o.repairs_completed.is_empty()));
            } else {
                assert_eq!(
                    outcomes[0].repairs_completed,
                    vec![(1, RepairKind::Reactive)]
                );
            }
        }
        let tenant = shard.tenant("alpha").expect("tenant");
        assert!(tenant.pending_repairs().is_empty());
        assert_eq!(tenant.system().state_counts().0, 3, "all healthy again");
    }

    #[test]
    fn reactive_repairs_are_single_server() {
        use mvml_core::watchdog::WatchdogConfig;
        // All three modules crash and escalate on the first served frame;
        // the single repair station must serve them strictly one at a
        // time, with each repair clock starting only on admission.
        let mut cfg = TenantConfig::passthrough("alpha", 3)
            .with_fault(FaultSpec {
                kind: FaultSpecKind::Crash,
                rate: 1.0,
                module: None,
            })
            .with_watchdog(WatchdogConfig {
                window: 10,
                threshold: 1,
            });
        cfg.repair_delay_rounds = 2;
        let mut shard = Shard::new(0);
        shard.insert_tenant(build_tenant_state(&cfg, 3, 0, None).expect("build"));
        crate::install_quiet_panic_hook();

        // Round 0: one batch, three crashes, three escalations.
        let mut batches = BTreeMap::new();
        batches.insert("alpha".to_string(), batch(&[0], 3));
        let outcomes = shard.process_round(0, batches);
        assert_eq!(outcomes[0].repairs_scheduled, vec![0, 1, 2]);
        let tenant = shard.tenant("alpha").expect("tenant");
        assert_eq!(tenant.pending_repairs().len(), 1, "one repair in service");
        assert_eq!(
            tenant.repair_queue().iter().copied().collect::<Vec<_>>(),
            vec![1, 2]
        );

        // Health rounds only: repairs complete at 2, 4 and 6 — serialized,
        // never overlapping, each taking the full delay from admission.
        let mut completed = Vec::new();
        for round in 1..=6u64 {
            let outcomes = shard.process_round(round, BTreeMap::new());
            completed.extend(
                outcomes[0]
                    .repairs_completed
                    .iter()
                    .map(|(m, _)| (round, *m)),
            );
            let tenant = shard.tenant("alpha").expect("tenant");
            assert!(tenant.pending_repairs().len() <= 1, "single server");
        }
        assert_eq!(completed, vec![(2, 0), (4, 1), (6, 2)]);
        let tenant = shard.tenant("alpha").expect("tenant");
        assert!(tenant.pending_repairs().is_empty());
        assert!(tenant.repair_queue().is_empty());
        assert_eq!(tenant.system().state_counts().0, 3, "all healthy again");
    }

    #[test]
    fn proactive_clock_cycles_modules_one_at_a_time() {
        use crate::tenant::ProactiveSpec;
        let cfg = TenantConfig::passthrough("alpha", 3).with_proactive(ProactiveSpec {
            period_rounds: 3,
            refresh_rounds: 2,
        });
        let mut shard = Shard::new(0);
        shard.insert_tenant(build_tenant_state(&cfg, 4, 0, None).expect("build"));

        let mut started = Vec::new();
        let mut completed = Vec::new();
        for round in 0..20u64 {
            let mut batches = BTreeMap::new();
            batches.insert("alpha".to_string(), batch(&[round], 3));
            let outcomes = shard.process_round(round, batches);
            let out = &outcomes[0];
            if let Some(m) = out.proactive_started {
                started.push((round, m));
            }
            completed.extend(out.repairs_completed.iter().copied());
            // Invariant: at most one module down at any time.
            let tenant = shard.tenant("alpha").expect("tenant");
            assert!(
                tenant.pending_repairs().len() <= 1,
                "round {round}: more than one module down"
            );
            // Two of three modules propose even mid-refresh, so the
            // pass-through vote still decides (R.2 pass-through).
            assert!(out.verdicts.iter().all(|v| v.is_decisive()));
        }
        // Clock fires at rounds 3, 6, 9, 12, 15, 18; each refresh holds
        // the station 2 rounds, so every trigger is accepted.
        assert_eq!(
            started,
            vec![(3, 0), (6, 1), (9, 2), (12, 0), (15, 1), (18, 2)],
            "round-robin cursor over the three modules"
        );
        assert!(completed
            .iter()
            .all(|(_, kind)| *kind == RepairKind::Proactive));
        assert_eq!(completed.len(), 5, "refresh at 18 still in flight");
    }

    #[test]
    fn proactive_trigger_defers_while_reactive_repair_runs() {
        use crate::tenant::ProactiveSpec;
        use mvml_core::watchdog::WatchdogConfig;
        // Escalate on the first crash (threshold 1) and take 4 rounds to
        // repair, so a proactive trigger lands mid-repair and must wait.
        let mut cfg = TenantConfig::passthrough("alpha", 3)
            .with_fault(FaultSpec {
                kind: FaultSpecKind::Crash,
                rate: 1.0,
                module: Some(2),
            })
            .with_proactive(ProactiveSpec {
                period_rounds: 2,
                refresh_rounds: 1,
            })
            .with_watchdog(WatchdogConfig {
                window: 10,
                threshold: 1,
            });
        cfg.repair_delay_rounds = 4;
        let mut shard = Shard::new(0);
        shard.insert_tenant(build_tenant_state(&cfg, 2, 0, None).expect("build"));

        // Round 0: crash → escalation → reactive repair due round 4.
        let mut batches = BTreeMap::new();
        batches.insert("alpha".to_string(), batch(&[0], 3));
        let outcomes = shard.process_round(0, batches);
        assert_eq!(outcomes[0].repairs_scheduled, vec![2]);

        // Rounds 1..=3: the proactive trigger at round 2 arms but cannot
        // fire — the repair station is busy (≤ 1 module down, always).
        for round in 1..=3u64 {
            let outcomes = shard.process_round(round, BTreeMap::new());
            assert!(outcomes[0].proactive_started.is_none());
            assert_eq!(shard.tenant("alpha").expect("t").pending_repairs().len(), 1);
        }
        // Round 4: the reactive repair completes, freeing the station;
        // the armed trigger fires immediately.
        let outcomes = shard.process_round(4, BTreeMap::new());
        assert_eq!(
            outcomes[0].repairs_completed,
            vec![(2, RepairKind::Reactive)]
        );
        assert_eq!(outcomes[0].proactive_started, Some(0));
    }

    #[test]
    fn aging_draws_are_deterministic_and_single_server() {
        use crate::tenant::AgingSpec;
        use mvml_core::watchdog::WatchdogConfig;
        let cfg = TenantConfig::passthrough("alpha", 3)
            .with_aging(AgingSpec {
                compromise_rate: 0.5,
                crash_rate: 0.5,
            })
            .with_watchdog(WatchdogConfig {
                window: 10,
                threshold: 1,
            });

        let run = |seed: u64| {
            let mut shard = Shard::new(0);
            shard.insert_tenant(build_tenant_state(&cfg, seed, 0, None).expect("build"));
            let mut history = Vec::new();
            for round in 0..30u64 {
                let mut batches = BTreeMap::new();
                batches.insert("alpha".to_string(), batch(&[round], 3));
                let outcomes = shard.process_round(round, batches);
                let tenant = shard.tenant("alpha").expect("t");
                history.push((
                    outcomes[0].verdicts.clone(),
                    tenant.compromised_modules().to_vec(),
                    outcomes[0].repairs_scheduled.clone(),
                ));
            }
            history
        };
        crate::install_quiet_panic_hook();
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "aging history is a pure function of the seed");
        let c = run(8);
        assert_ne!(a, c, "different seeds age differently");
        // The aging model compromised and escalated something in 30 rounds
        // at these rates.
        assert!(a.iter().any(|(_, comp, _)| comp.iter().any(|&x| x)));
        assert!(a.iter().any(|(_, _, sched)| !sched.is_empty()));
    }
}
