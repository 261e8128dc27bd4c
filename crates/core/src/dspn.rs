//! DSPN models of multi-version ML systems (the paper's Figs. 2 and 3).
//!
//! [`reactive_only`] builds Fig. 2: `n` modules cycling
//! `Pmh → (Tc) → Pmc → (Tf) → Pmf → (Tr) → Pmh`, with reactive rejuvenation
//! recovering non-functional modules one at a time.
//!
//! [`with_proactive`] adds Fig. 3's time-triggered proactive rejuvenation: a
//! deterministic clock `Trc` fires every `1/γ`, the trigger is accepted
//! (`Tac`) unless a rejuvenation is already in flight (`Tdrop` returns the
//! token and restarts the clock — see DESIGN.md §1.5 for how this resolves
//! the paper's ambiguous `Trt` reset), and immediate transitions
//! `Trj1`/`Trj2` pick a compromised or healthy victim with the
//! marking-dependent weights of the paper's Table I (or another
//! [`VictimRule`]). Reactive rejuvenation takes precedence via inhibitor
//! arcs from `Pmf`. The runtime, [`crate::rejuvenation::StateProcess`],
//! plays these same nets.

use crate::params::SystemParams;
use crate::reliability::{StateReliability, SystemState};
use mvml_obs::Recorder;
use mvml_petri::{
    erlang_expand, solve_steady, ExpectedReward, Marking, Net, NetBuilder, PetriError, PlaceId,
    ServerSemantics, SolutionInfo, SolutionMethod, SolverOptions, WeightSpec,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// A built multi-version DSPN plus the place handles needed to interpret
/// markings as system states.
#[derive(Debug)]
pub struct MvmlNet {
    /// The underlying net (may contain a deterministic clock transition).
    pub net: Net,
    /// Healthy modules.
    pub pmh: PlaceId,
    /// Compromised (still functional) modules.
    pub pmc: PlaceId,
    /// Non-functional modules awaiting reactive rejuvenation.
    pub pmf: PlaceId,
    /// Module undergoing proactive rejuvenation (proactive model only).
    pub pmr: Option<PlaceId>,
    /// Pending proactive action (proactive model only).
    pub pac: Option<PlaceId>,
}

impl MvmlNet {
    /// Interprets a marking as a system state `(i, j, k)`: rejuvenating
    /// modules count as non-functional.
    pub fn system_state(&self, m: &Marking) -> SystemState {
        let rejuvenating = self.pmr.map_or(0, |p| m[p]) as usize;
        SystemState::new(
            m[self.pmh] as usize,
            m[self.pmc] as usize,
            m[self.pmf] as usize + rejuvenating,
        )
    }
}

/// Largest module count accepted for net construction. Structural analysis
/// and reachability handle far more, but the state space grows fast enough
/// that anything beyond this is almost certainly a typo.
pub const MAX_MODULES: u32 = 16;

fn check_n(n: u32) -> Result<(), PetriError> {
    if n == 0 || n > MAX_MODULES {
        return Err(PetriError::InvalidParameter {
            what: format!("n = {n}: module count must be in 1..={MAX_MODULES}"),
        });
    }
    Ok(())
}

/// Which of the two model nets a structural certificate covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Variant {
    /// Fig. 2, [`reactive_only`].
    Reactive,
    /// Fig. 3, [`with_proactive`].
    Proactive,
}

/// Structural verdicts on the model nets, one per `(variant, n)`: `Ok`, or
/// the error summary of an uncertified net.
///
/// [`Net::analyze`] reads the arcs, the initial marking, the guards and
/// the constant immediate weights. For a given `(variant, n)` the builders
/// fix all of them; the rates and the clock delay, the only parts
/// [`SystemParams`] sets, are never read. So each shape is analysed once
/// per process and every later build of that shape reuses the verdict.
struct Certificates(Mutex<BTreeMap<(Variant, u32), Result<(), String>>>);

static CERTIFICATES: Certificates = Certificates::new();

impl Certificates {
    const fn new() -> Self {
        Certificates(Mutex::new(BTreeMap::new()))
    }

    /// Hands out a freshly built model net of `shape` only if that shape
    /// is certified: every MVML net is certified before it reaches a
    /// solver, and any error-severity finding refuses it.
    fn certify(&self, shape: (Variant, u32), net: Net) -> Result<Net, PetriError> {
        let mut verdicts = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let verdict = verdicts.entry(shape).or_insert_with(|| {
            let report = net.analyze();
            if report.is_certified() {
                Ok(())
            } else {
                Err(report.error_summary())
            }
        });
        match verdict {
            Ok(()) => Ok(net),
            Err(details) => Err(PetriError::StructurallyUnsound {
                net: net.name().to_string(),
                details: details.clone(),
            }),
        }
    }
}

/// Builds the Fig. 2 DSPN: failures, attacks and reactive rejuvenation only.
///
/// All three timed transitions use single-server semantics: TimeNET's
/// default, and the only choice that reproduces the paper's Table V (the
/// adversary compromises one module at a time; the rejuvenation mechanism
/// recovers one module at a time, per Section V-A).
///
/// # Errors
///
/// Returns [`PetriError::InvalidParameter`] for `n ∉ 1..=`[`MAX_MODULES`]
/// or invalid rates, and [`PetriError::StructurallyUnsound`] if the built
/// net fails structural certification.
pub fn reactive_only(n: u32, params: &SystemParams) -> Result<MvmlNet, PetriError> {
    check_n(n)?;
    let mut b = NetBuilder::new(format!("mvml-{n}v-reactive"));
    let (pmh, pmc, pmf) = modules(&mut b, n, params)?;
    Ok(MvmlNet {
        net: CERTIFICATES.certify((Variant::Reactive, n), b.build()?)?,
        pmh,
        pmc,
        pmf,
        pmr: None,
        pac: None,
    })
}

/// Adds Figs. 2 and 3's `n` modules cycling `Pmh → (Tc) → Pmc → (Tf) → Pmf
/// → (Tr) → Pmh`; returns `(Pmh, Pmc, Pmf)`.
fn modules(
    b: &mut NetBuilder,
    n: u32,
    params: &SystemParams,
) -> Result<(PlaceId, PlaceId, PlaceId), PetriError> {
    let pmh = b.place("Pmh", n);
    let pmc = b.place("Pmc", 0);
    let pmf = b.place("Pmf", 0);
    // Single-server semantics for Tc/Tf (TimeNET's default, and the only
    // choice that reproduces the paper's Table V: an adversary compromises
    // one module at a time, cf. DESIGN.md).
    let tc = b.exponential_with("Tc", params.lambda_c(), ServerSemantics::Single);
    let tf = b.exponential_with("Tf", params.lambda(), ServerSemantics::Single);
    let tr = b.exponential_with("Tr", params.mu(), ServerSemantics::Single);
    b.input_arc(pmh, tc, 1)?;
    b.output_arc(tc, pmc, 1)?;
    b.input_arc(pmc, tf, 1)?;
    b.output_arc(tf, pmf, 1)?;
    b.input_arc(pmf, tr, 1)?;
    b.output_arc(tr, pmh, 1)?;
    Ok((pmh, pmc, pmf))
}

/// How an accepted proactive trigger weighs a compromised (`Trj1`) against a
/// healthy (`Trj2`) victim.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VictimRule {
    /// The paper's Table I: weights proportional to the compromised and
    /// healthy counts.
    Proportional,
    /// A compromised victim with this fixed probability (the paper's CARLA
    /// case study uses 2/3).
    Priority(f64),
}

impl VictimRule {
    /// The `(Trj1, Trj2)` weights with `c` compromised and `h` healthy
    /// modules, floored at Table I's `1e-5` so that no weight is ever zero.
    fn weights(self, c: u32, h: u32) -> (f64, f64) {
        let (w1, w2) = match self {
            VictimRule::Proportional => (
                f64::from(c) / f64::from(c + h),
                f64::from(h) / f64::from(c + h),
            ),
            VictimRule::Priority(p) => (p, 1.0 - p),
        };
        (w1.max(0.000_01), w2.max(0.000_01))
    }
}

/// Builds the Fig. 3 DSPN: Fig. 2 plus the time-triggered proactive
/// rejuvenation mechanism (clock, trigger, victim selection, rejuvenation),
/// with the Table I victim weights.
///
/// # Errors
///
/// Returns [`PetriError::InvalidParameter`] for `n ∉ 1..=`[`MAX_MODULES`]
/// or invalid rates, and [`PetriError::StructurallyUnsound`] if the built
/// net fails structural certification.
pub fn with_proactive(n: u32, params: &SystemParams) -> Result<MvmlNet, PetriError> {
    with_proactive_victims(n, params, VictimRule::Proportional)
}

/// [`with_proactive`] with the victim weights of `victims`. Marking-dependent
/// weights are never read by the structural analysis, so one certificate
/// per `n` covers every rule.
///
/// # Errors
///
/// As [`with_proactive`], and [`PetriError::InvalidParameter`] for a
/// priority outside `[0, 1]`.
pub(crate) fn with_proactive_victims(
    n: u32,
    params: &SystemParams,
    victims: VictimRule,
) -> Result<MvmlNet, PetriError> {
    check_n(n)?;
    if matches!(victims, VictimRule::Priority(p) if !(0.0..=1.0).contains(&p)) {
        return Err(PetriError::InvalidParameter {
            what: format!("victim rule {victims:?}: the priority is not a probability"),
        });
    }
    let mut b = NetBuilder::new(format!("mvml-{n}v-proactive"));
    let (pmh, pmc, pmf) = modules(&mut b, n, params)?;
    let (pmr, pac) = proactive(&mut b, (pmh, pmc, pmf), params, victims)?;
    Ok(MvmlNet {
        net: CERTIFICATES.certify((Variant::Proactive, n), b.build()?)?,
        pmh,
        pmc,
        pmf,
        pmr: Some(pmr),
        pac: Some(pac),
    })
}

/// Adds Fig. 3's clock, trigger, victim selection and rejuvenation over the
/// module places `(Pmh, Pmc, Pmf)`; returns `(Pmr, Pac)`.
fn proactive(
    b: &mut NetBuilder,
    (pmh, pmc, pmf): (PlaceId, PlaceId, PlaceId),
    params: &SystemParams,
    victims: VictimRule,
) -> Result<(PlaceId, PlaceId), PetriError> {
    let prc = b.place("Prc", 1);
    let ptr = b.place("Ptr", 0);
    let pac = b.place("Pac", 0);
    let pmr = b.place("Pmr", 0);

    // Proactive clock: Trc fires every 1/γ (deterministic).
    let trc = b.deterministic("Trc", params.rejuvenation_interval);
    b.input_arc(prc, trc, 1)?;
    b.output_arc(trc, ptr, 1)?;

    // Trigger acceptance: accepted unless an action is pending or a module
    // is already rejuvenating; either way the clock restarts (the paper's
    // `Trt` reset, g3).
    let pac_i = pac.index();
    let pmr_i = pmr.index();
    let tac = b.immediate("Tac");
    b.input_arc(ptr, tac, 1)?;
    b.output_arc(tac, pac, 1)?;
    b.output_arc(tac, prc, 1)?;
    b.guard(tac, move |m: &Marking| {
        m.as_slice()[pac_i] + m.as_slice()[pmr_i] == 0
    })?;

    let tdrop = b.immediate("Tdrop");
    b.input_arc(ptr, tdrop, 1)?;
    b.output_arc(tdrop, prc, 1)?;
    b.guard(tdrop, move |m: &Marking| {
        m.as_slice()[pac_i] + m.as_slice()[pmr_i] > 0
    })?;

    // Victim selection: `victims` weighs a compromised (w1) against a
    // healthy (w2) victim in the current marking.
    let pmh_i = pmh.index();
    let pmc_i = pmc.index();
    let weights = move |m: &Marking| victims.weights(m.as_slice()[pmc_i], m.as_slice()[pmh_i]);
    let w1 = WeightSpec::Fn(Arc::new(move |m: &Marking| weights(m).0));
    let w2 = WeightSpec::Fn(Arc::new(move |m: &Marking| weights(m).1));
    let trj1 = b.immediate_with("Trj1", 1, w1);
    b.input_arc(pac, trj1, 1)?;
    b.input_arc(pmc, trj1, 1)?;
    b.output_arc(trj1, pmr, 1)?;
    b.inhibitor_arc(pmf, trj1, 1)?; // reactive precedence (g2)
    let trj2 = b.immediate_with("Trj2", 1, w2);
    b.input_arc(pac, trj2, 1)?;
    b.input_arc(pmh, trj2, 1)?;
    b.output_arc(trj2, pmr, 1)?;
    b.inhibitor_arc(pmf, trj2, 1)?;

    // Rejuvenation itself.
    let trj = b.exponential("Trj", params.mu_r());
    b.input_arc(pmr, trj, 1)?;
    b.output_arc(trj, pmh, 1)?;
    Ok((pmr, pac))
}

/// Options for [`expected_system_reliability`].
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Erlang stages used to expand the deterministic clock (ignored by the
    /// simulation backend, which handles deterministic delays natively).
    pub erlang_k: u32,
    /// Underlying CTMC solver options.
    pub solver: SolverOptions,
    /// Steady-state backend: auto (dense/Gauss–Seidel by size), a forced
    /// analytic solver, or discrete-event simulation.
    pub method: SolutionMethod,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            erlang_k: 32,
            solver: SolverOptions::default(),
            method: SolutionMethod::Auto,
        }
    }
}

/// Solves the DSPN of an `n`-version system (with or without proactive
/// rejuvenation) for its steady state and returns the expected output
/// reliability `E[R]` (the paper's Eq. 3) together with the backend
/// provenance of the solve.
///
/// The reward is the generic [`StateReliability`] model, so any `n` in
/// `1..=`[`MAX_MODULES`] is accepted; at `n ≤ 3` the result coincides with
/// the paper's closed forms (Section V-B) to machine precision.
///
/// # Errors
///
/// Propagates parameter validation and solver errors.
pub fn expected_system_reliability_with_info(
    n: u32,
    proactive: bool,
    params: &SystemParams,
    opts: &SolveOptions,
) -> Result<(f64, SolutionInfo), PetriError> {
    check_n(n)?;
    params
        .validate()
        .map_err(|what| PetriError::InvalidParameter { what })?;
    let mv = if proactive {
        with_proactive(n, params)?
    } else {
        reactive_only(n, params)?
    };
    // The DES backend handles the deterministic clock natively; the
    // analytic backends need its Erlang phase expansion first.
    let needs_expansion = proactive && !matches!(opts.method, SolutionMethod::Simulation(_));
    let solvable = if needs_expansion {
        erlang_expand(&mv.net, opts.erlang_k)?
    } else {
        mv.net
    };
    let (pmh, pmc) = (mv.pmh, mv.pmc);
    let solution = solve_steady(&solvable, &opts.method, &opts.solver, &Recorder::disabled())?;
    // A state's reliability depends on its healthy and compromised counts
    // alone, so it is tabulated once per pair instead of once per marking.
    let model = StateReliability::new(params);
    let side = n as usize + 1;
    let table: Vec<f64> = (0..side * side)
        .map(|k| {
            let (healthy, compromised) = (k / side, k % side);
            if healthy + compromised < side {
                model.reliability(healthy, compromised)
            } else {
                f64::NAN
            }
        })
        .collect();
    let value = solution.expected_reward(|m| table[m[pmh] as usize * side + m[pmc] as usize]);
    Ok((value, solution.info().clone()))
}

/// [`expected_system_reliability_with_info`] without the provenance.
///
/// # Errors
///
/// Propagates parameter validation and solver errors.
pub fn expected_system_reliability(
    n: u32,
    proactive: bool,
    params: &SystemParams,
    opts: &SolveOptions,
) -> Result<f64, PetriError> {
    expected_system_reliability_with_info(n, proactive, params, opts).map(|(value, _)| value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::reliability_of;
    use mvml_petri::{simulate, SimConfig};

    fn paper() -> SystemParams {
        SystemParams::paper_table_iv()
    }

    fn opts_fast() -> SolveOptions {
        SolveOptions {
            erlang_k: 16,
            ..SolveOptions::default()
        }
    }

    #[test]
    fn single_version_reactive_matches_closed_form() {
        // H → C → N → H chain: π_H = π_C (λ_c = λ), π_N = (λ_c/μ) π_H.
        let p = paper();
        let got = expected_system_reliability(1, false, &p, &opts_fast()).unwrap();
        let ratio = p.lambda_c() / p.mu();
        let pi_h = 1.0 / (2.0 + ratio);
        let expected = pi_h * (1.0 - p.p) + pi_h * (1.0 - p.p_prime);
        assert!((got - expected).abs() < 1e-10, "{got} vs {expected}");
        // And the paper's Table V value (obtained via TimeNET simulation).
        assert!((got - 0.848211).abs() < 5e-4, "{got} vs paper 0.848211");
    }

    #[test]
    fn table_v_reactive_only_column() {
        let p = paper();
        let r2 = expected_system_reliability(2, false, &p, &opts_fast()).unwrap();
        let r3 = expected_system_reliability(3, false, &p, &opts_fast()).unwrap();
        assert!((r2 - 0.943875).abs() < 2e-3, "2v w/o rej: {r2}");
        assert!((r3 - 0.903190).abs() < 2e-3, "3v w/o rej: {r3}");
    }

    #[test]
    fn table_v_proactive_column() {
        let p = paper();
        let r1 = expected_system_reliability(1, true, &p, &opts_fast()).unwrap();
        let r2 = expected_system_reliability(2, true, &p, &opts_fast()).unwrap();
        let r3 = expected_system_reliability(3, true, &p, &opts_fast()).unwrap();
        assert!((r1 - 0.920217).abs() < 5e-3, "1v w/ rej: {r1}");
        assert!((r2 - 0.967152).abs() < 5e-3, "2v w/ rej: {r2}");
        assert!((r3 - 0.952998).abs() < 5e-3, "3v w/ rej: {r3}");
    }

    #[test]
    fn orderings_of_table_v_hold() {
        let p = paper();
        let o = opts_fast();
        let mut r = std::collections::HashMap::new();
        for n in 1..=3u32 {
            for rej in [false, true] {
                r.insert(
                    (n, rej),
                    expected_system_reliability(n, rej, &p, &o).unwrap(),
                );
            }
        }
        // Proactive rejuvenation helps every configuration.
        for n in 1..=3 {
            assert!(r[&(n, true)] > r[&(n, false)], "n={n}");
        }
        // Two-version beats three-version beats single, with and without.
        for rej in [false, true] {
            assert!(r[&(2, rej)] > r[&(3, rej)], "rej={rej}");
            assert!(r[&(3, rej)] > r[&(1, rej)], "rej={rej}");
        }
    }

    #[test]
    fn erlang_resolution_converges() {
        let p = paper();
        let coarse = expected_system_reliability(
            3,
            true,
            &p,
            &SolveOptions {
                erlang_k: 4,
                ..SolveOptions::default()
            },
        )
        .unwrap();
        let fine = expected_system_reliability(
            3,
            true,
            &p,
            &SolveOptions {
                erlang_k: 48,
                ..SolveOptions::default()
            },
        )
        .unwrap();
        // Both approximate the same DSPN; they must agree to ~1e-3.
        assert!((coarse - fine).abs() < 2e-3, "{coarse} vs {fine}");
    }

    #[test]
    fn analytic_solution_agrees_with_des_simulation() {
        let p = paper();
        let analytic = expected_system_reliability(3, true, &p, &opts_fast()).unwrap();
        let mv = with_proactive(3, &p).unwrap();
        let sim = simulate(
            &mv.net,
            &SimConfig {
                horizon: 2_000_000.0,
                warmup: 10_000.0,
                seed: 7,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let pmh = mv.pmh;
        let pmc = mv.pmc;
        let pmf = mv.pmf;
        let pmr = mv.pmr.unwrap();
        let est = sim.expected_reward(|m| {
            reliability_of(
                SystemState::new(m[pmh] as usize, m[pmc] as usize, (m[pmf] + m[pmr]) as usize),
                &p,
            )
        });
        assert!(
            (analytic - est).abs() < 5e-3,
            "analytic {analytic} vs sim {est}"
        );
    }

    #[test]
    fn marking_interpretation() {
        let p = paper();
        let mv = with_proactive(3, &p).unwrap();
        let m0 = mv.net.initial_marking();
        let s = mv.system_state(&m0);
        assert_eq!(s, SystemState::new(3, 0, 0));
    }

    #[test]
    fn invalid_n_rejected() {
        let p = paper();
        assert!(reactive_only(0, &p).is_err());
        assert!(reactive_only(MAX_MODULES + 1, &p).is_err());
        assert!(with_proactive(0, &p).is_err());
        // Net construction works beyond the paper's 3 modules…
        assert!(with_proactive(4, &p).is_ok());
        assert!(reactive_only(6, &p).is_ok());
        // …and since the generic reliability reward, so does the solver.
        assert!(expected_system_reliability(4, true, &p, &opts_fast()).is_ok());
        assert!(expected_system_reliability(0, true, &p, &opts_fast()).is_err());
        assert!(expected_system_reliability(MAX_MODULES + 1, false, &p, &opts_fast()).is_err());
    }

    #[test]
    fn reliability_solves_beyond_three_versions() {
        // The tentpole: every n the net layer can build, the reliability
        // layer can evaluate. Five-version reactive sits between certain
        // failure and perfection, and more versions keep helping through
        // the odd counts (the voter masks more error patterns).
        let p = paper();
        let o = opts_fast();
        let r3 = expected_system_reliability(3, false, &p, &o).unwrap();
        let r5 = expected_system_reliability(5, false, &p, &o).unwrap();
        let r7 = expected_system_reliability(7, false, &p, &o).unwrap();
        assert!(r3 > 0.0 && r7 < 1.0, "r3={r3} r7={r7}");
        assert!(r5 > r3 && r7 > r5, "r3={r3} r5={r5} r7={r7}");
        // Proactive rejuvenation still helps at n = 4.
        let without = expected_system_reliability(4, false, &p, &o).unwrap();
        let with = expected_system_reliability(4, true, &p, &o).unwrap();
        assert!(with > without, "{with} vs {without}");
    }

    #[test]
    fn solution_methods_agree_and_report_backends() {
        let p = paper();
        let base = opts_fast();
        let dense = SolveOptions {
            method: SolutionMethod::Dense,
            ..base.clone()
        };
        let gs = SolveOptions {
            method: SolutionMethod::GaussSeidel,
            ..base.clone()
        };
        let (vd, id) = expected_system_reliability_with_info(2, true, &p, &dense).unwrap();
        let (vg, ig) = expected_system_reliability_with_info(2, true, &p, &gs).unwrap();
        assert_eq!(id.backend.name(), "dense");
        assert_eq!(ig.backend.name(), "gauss-seidel");
        assert_eq!(id.states, ig.states);
        assert!(id.residual < 1e-8 && ig.residual < 1e-6);
        assert!((vd - vg).abs() < 1e-9, "dense {vd} vs gauss-seidel {vg}");
    }

    #[test]
    fn simulation_method_approximates_analytic() {
        let p = paper();
        let analytic = expected_system_reliability(3, true, &p, &opts_fast()).unwrap();
        let sim_opts = SolveOptions {
            method: SolutionMethod::Simulation(mvml_petri::SimConfig {
                horizon: 500_000.0,
                warmup: 5_000.0,
                seed: 11,
                ..mvml_petri::SimConfig::default()
            }),
            ..SolveOptions::default()
        };
        let (est, info) = expected_system_reliability_with_info(3, true, &p, &sim_opts).unwrap();
        assert_eq!(info.backend.name(), "simulation");
        assert!(info.residual.is_finite() && info.residual > 0.0);
        assert!(
            (analytic - est).abs() < 0.01,
            "analytic {analytic} vs {est}"
        );
    }

    #[test]
    fn paper_nets_are_structurally_certified() {
        let p = paper();
        for n in 1..=6u32 {
            let reactive = reactive_only(n, &p).unwrap();
            let report = reactive.net.analyze();
            assert!(report.is_certified(), "reactive n={n}: {report}");
            assert!(report.is_structurally_bounded(), "reactive n={n}");

            let proactive = with_proactive(n, &p).unwrap();
            let report = proactive.net.analyze();
            assert!(report.is_certified(), "proactive n={n}: {report}");
            // Pac is deliberately not covered by any P-invariant (Tac puts a
            // token into both Pac and Prc), so the proactive net carries an
            // info-severity "no certificate" finding rather than full
            // structural boundedness.
            let pac = proactive.pac.unwrap().index();
            assert!(report.place_bounds[pac].is_none(), "proactive n={n}");
        }
    }

    #[test]
    fn certificates_are_kept_per_shape_and_never_shared() {
        let certs = Certificates::new();
        let sound = || reactive_only(2, &paper()).unwrap().net;
        // A dead transition: `t` needs two tokens from a place that holds
        // one forever.
        let unsound = || {
            let mut b = NetBuilder::new("unsound");
            let p = b.place("p", 1);
            let t = b.exponential("t", 1.0);
            b.input_arc(p, t, 2).unwrap();
            b.output_arc(t, p, 2).unwrap();
            b.build().unwrap()
        };
        let refused = |r: Result<Net, PetriError>| matches!(r, Err(PetriError::StructurallyUnsound { net, .. }) if net == "unsound");
        assert!(certs.certify((Variant::Reactive, 2), sound()).is_ok());
        // A certified shape vouches for no other n and no other variant.
        assert!(refused(certs.certify((Variant::Reactive, 3), unsound())));
        assert!(refused(certs.certify((Variant::Proactive, 2), unsound())));
        // Each verdict is kept for its own shape: the analyzer does not run
        // again, so a later net of a certified shape passes unanalysed and
        // one of a refused shape stays refused.
        assert!(certs.certify((Variant::Reactive, 2), unsound()).is_ok());
        assert!(certs.certify((Variant::Reactive, 3), sound()).is_err());
        assert_eq!(certs.0.lock().unwrap().len(), 3);
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = paper();
        p.p = 0.9; // violates p <= p'
        assert!(expected_system_reliability(3, false, &p, &opts_fast()).is_err());
    }

    #[test]
    fn fig3_without_repair_fails_analysis() {
        // The Fig. 3 net with `Tr` and its arcs dropped: non-functional
        // modules never come back, so `Tf` leaves the recurrent behaviour.
        let p = paper();
        let mut b = NetBuilder::new("mvml-3v-proactive-no-repair");
        let pmh = b.place("Pmh", 3);
        let pmc = b.place("Pmc", 0);
        let pmf = b.place("Pmf", 0);
        let tc = b.exponential_with("Tc", p.lambda_c(), ServerSemantics::Single);
        let tf = b.exponential_with("Tf", p.lambda(), ServerSemantics::Single);
        b.input_arc(pmh, tc, 1).unwrap();
        b.output_arc(tc, pmc, 1).unwrap();
        b.input_arc(pmc, tf, 1).unwrap();
        b.output_arc(tf, pmf, 1).unwrap();
        proactive(&mut b, (pmh, pmc, pmf), &p, VictimRule::Proportional).unwrap();
        let report = b.build().unwrap().analyze();
        assert!(!report.is_certified(), "{report}");
        assert!(report.error_summary().contains("`Tf` is in no T-invariant"));
    }

    #[test]
    fn net_structure_matches_figures() {
        let p = paper();
        let fig2 = reactive_only(3, &p).unwrap();
        assert_eq!(fig2.net.place_count(), 3);
        assert_eq!(fig2.net.transition_count(), 3);
        let fig3 = with_proactive(3, &p).unwrap();
        assert_eq!(fig3.net.place_count(), 7);
        // Tc, Tf, Tr, Trc, Tac, Tdrop, Trj1, Trj2, Trj
        assert_eq!(fig3.net.transition_count(), 9);
        assert!(fig3.net.transition_by_name("Trj1").is_some());
        assert!(fig3.net.transition_by_name("Trc").is_some());
    }
}
