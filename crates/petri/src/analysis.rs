//! Structural (static) analysis of Petri nets.
//!
//! TimeNET-class tools verify a net *before* solving it: token-conservation
//! laws (P-invariants), repetitive firing vectors (T-invariants), structural
//! boundedness certificates, and statically dead transitions are all
//! computable from the incidence matrix alone, without exploring a single
//! marking. This module brings that layer to the `petri` engine so a
//! malformed net is caught at build/certify time instead of silently
//! producing a wrong reachability graph and a wrong reliability number.
//!
//! Entry point: [`Net::analyze`] (or [`analyze_with`] for custom limits),
//! returning a [`StructuralReport`] with machine-readable [`Finding`]s.
//!
//! ## What is checked
//!
//! * **P-invariants** — non-negative integer place weightings `y` with
//!   `yᵀ·C = 0` (where `C` is the incidence matrix), computed by the Farkas
//!   positive-basis algorithm. Every reachable marking `m` then satisfies
//!   `y·m = y·m₀`.
//! * **Structural boundedness** — a place covered by a P-invariant `y`
//!   (i.e. `y[p] > 0`) can never hold more than `⌊y·m₀ / y[p]⌋` tokens; a
//!   net whose places are all covered is structurally bounded, and the
//!   invariant-feasible marking space is finite and enumerable.
//! * **T-invariants** — firing-count vectors `x ≥ 0` with `C·x = 0`; a net
//!   without any T-invariant cannot return to a previous marking, so a
//!   steady-state analysis is doomed (the embedded chain has no recurrent
//!   class reachable from every state).
//! * **Statically dead transitions** — input demand exceeding a structural
//!   token bound, input places that can never be marked (no producer and
//!   empty initially, propagated to a fixpoint), contradictory
//!   input/inhibitor pairs, and — when the invariant-feasible space is small
//!   enough to enumerate — transitions token-disabled in *every* feasible
//!   marking and guards that evaluate to `false` over the entire feasible
//!   space.
//! * **Immediate-transition cycles** — a structural cycle among immediate
//!   transitions risks a vanishing-loop livelock during reachability
//!   elimination; flagged as a warning (the loop may be marking-gated).
//! * **Sanity** — orphan places touched by no arc and immediate transitions
//!   with constant weight zero (permanently disabled).
//!
//! ## Complexity
//!
//! Farkas enumeration of the positive basis is worst-case exponential in the
//! number of places/transitions, but nets that model real systems (tens of
//! places) complete in microseconds; [`AnalysisOptions::max_basis`] caps the
//! intermediate basis defensively. The feasible-space enumeration is capped
//! by [`AnalysisOptions::max_enumeration`] and skipped entirely for nets
//! without a full set of covering invariants.

use crate::marking::Marking;
use crate::model::{Net, Timing, WeightSpec};
use std::fmt;

/// How serious a [`Finding`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: nothing wrong, but worth knowing (e.g. a place with no
    /// boundedness certificate).
    Info,
    /// Suspicious structure that does not invalidate the solution.
    Warning,
    /// The net is malformed: solving it would produce meaningless numbers.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The class of a structural [`Finding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FindingKind {
    /// A transition can never fire: its input demand is structurally
    /// unsatisfiable.
    DeadTransition,
    /// A transition's guard is `false` in every invariant-feasible marking.
    DeadGuard,
    /// A transition requires `≥ w` tokens on a place while an inhibitor arc
    /// disables it at `≥ w' ≤ w` tokens on the same place.
    ContradictoryInhibitor,
    /// Immediate transitions form a structural cycle (vanishing-loop
    /// livelock risk during reachability elimination).
    ImmediateCycle,
    /// A place is touched by no input, output or inhibitor arc.
    OrphanPlace,
    /// A place is not covered by any P-invariant, so no structural
    /// boundedness certificate exists for it.
    NoBoundCertificate,
    /// An immediate transition has constant weight zero and is permanently
    /// disabled.
    DisabledImmediate,
    /// The net admits no T-invariant: no firing sequence reproduces a
    /// marking, so no steady state exists.
    NoTInvariant,
    /// A transition lies outside every T-invariant of a net that has some:
    /// in a bounded run it fires only finitely often, so the net's recurrent
    /// behaviour leaks out through it (a module lifecycle without its
    /// repair, say).
    UncoveredTransition,
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FindingKind::DeadTransition => "dead-transition",
            FindingKind::DeadGuard => "dead-guard",
            FindingKind::ContradictoryInhibitor => "contradictory-inhibitor",
            FindingKind::ImmediateCycle => "immediate-cycle",
            FindingKind::OrphanPlace => "orphan-place",
            FindingKind::NoBoundCertificate => "no-bound-certificate",
            FindingKind::DisabledImmediate => "disabled-immediate",
            FindingKind::NoTInvariant => "no-t-invariant",
            FindingKind::UncoveredTransition => "uncovered-transition",
        };
        write!(f, "{s}")
    }
}

/// One machine-readable result of the structural analysis.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What was found.
    pub kind: FindingKind,
    /// How serious it is.
    pub severity: Severity,
    /// Names of the places involved.
    pub places: Vec<String>,
    /// Names of the transitions involved.
    pub transitions: Vec<String>,
    /// Supporting weight vector, when one proves the finding (e.g. the
    /// P-invariant whose bound kills a dead transition). Empty otherwise.
    pub witness: Vec<u64>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.severity, self.kind, self.message)
    }
}

/// A non-negative integer invariant vector.
///
/// For a P-invariant, `weights[p]` is the coefficient of place `p` and
/// `token_sum` the conserved quantity `y·m₀`. For a T-invariant,
/// `weights[t]` is the firing count of transition `t` and `token_sum` is 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invariant {
    /// Coefficient per place (P) or per transition (T), in index order.
    pub weights: Vec<u64>,
    /// Conserved weighted token sum under the initial marking (P-invariants
    /// only; 0 for T-invariants).
    pub token_sum: u64,
}

impl Invariant {
    /// Indices with a non-zero coefficient.
    pub fn support(&self) -> Vec<usize> {
        self.weights
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether index `i` carries a non-zero coefficient.
    pub fn covers(&self, i: usize) -> bool {
        self.weights.get(i).is_some_and(|&w| w > 0)
    }

    /// The weighted sum `y·m` of a marking under this invariant.
    pub fn weighted_sum(&self, m: &Marking) -> u64 {
        self.weights
            .iter()
            .zip(m.as_slice())
            .map(|(&w, &t)| w * u64::from(t))
            .sum()
    }
}

/// Tunables for [`analyze_with`].
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Cap on the intermediate Farkas basis; exceeded, invariant computation
    /// stops and the report carries whatever was found (never for nets of
    /// realistic size).
    pub max_basis: usize,
    /// Cap on the invariant-feasible markings enumerated for the dead-guard
    /// and never-enabled checks; beyond it those checks are skipped.
    pub max_enumeration: usize,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            max_basis: 4096,
            max_enumeration: 200_000,
        }
    }
}

/// The result of structural analysis: invariants, bounds and findings.
#[derive(Debug, Clone)]
pub struct StructuralReport {
    /// Name of the analysed net.
    pub net_name: String,
    /// Place names, index-aligned with bounds and invariant weights.
    pub place_names: Vec<String>,
    /// Transition names, index-aligned with T-invariant weights.
    pub transition_names: Vec<String>,
    /// Minimal-support P-invariant basis.
    pub p_invariants: Vec<Invariant>,
    /// Minimal-support T-invariant basis.
    pub t_invariants: Vec<Invariant>,
    /// Structural token bound per place (`None` = no certificate).
    pub place_bounds: Vec<Option<u64>>,
    /// Number of invariant-feasible markings, when the feasible space is
    /// finite and within the enumeration cap. An upper bound on the number
    /// of reachable markings (tangible *and* vanishing).
    pub feasible_markings: Option<u64>,
    /// Everything the analysis flagged, most severe first.
    pub findings: Vec<Finding>,
}

impl StructuralReport {
    /// Findings of exactly `severity`.
    pub fn of_severity(&self, severity: Severity) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.severity == severity)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.of_severity(Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.of_severity(Severity::Warning).count()
    }

    /// `true` when no error-severity finding exists: the net is structurally
    /// sound and safe to solve.
    pub fn is_certified(&self) -> bool {
        self.error_count() == 0
    }

    /// `true` when every place carries a structural token bound.
    pub fn is_structurally_bounded(&self) -> bool {
        self.place_bounds.iter().all(Option::is_some)
    }

    /// One-line-per-error summary, used in error messages.
    pub fn error_summary(&self) -> String {
        self.of_severity(Severity::Error)
            .map(|f| format!("{}: {}", f.kind, f.message))
            .collect::<Vec<_>>()
            .join("; ")
    }
}

impl fmt::Display for StructuralReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "structural report for `{}`: {} places, {} transitions",
            self.net_name,
            self.place_names.len(),
            self.transition_names.len()
        )?;
        writeln!(
            f,
            "  P-invariants: {}, T-invariants: {}, structurally bounded: {}",
            self.p_invariants.len(),
            self.t_invariants.len(),
            self.is_structurally_bounded()
        )?;
        for inv in &self.p_invariants {
            let terms: Vec<String> = inv
                .support()
                .into_iter()
                .map(|p| {
                    if inv.weights[p] == 1 {
                        self.place_names[p].clone()
                    } else {
                        format!("{}·{}", inv.weights[p], self.place_names[p])
                    }
                })
                .collect();
            writeln!(f, "    {} = {}", terms.join(" + "), inv.token_sum)?;
        }
        if let Some(n) = self.feasible_markings {
            writeln!(f, "  invariant-feasible markings: {n}")?;
        }
        if self.findings.is_empty() {
            writeln!(f, "  findings: none")?;
        } else {
            writeln!(
                f,
                "  findings: {} error(s), {} warning(s)",
                self.error_count(),
                self.warning_count()
            )?;
            for finding in &self.findings {
                writeln!(f, "    {finding}")?;
            }
        }
        Ok(())
    }
}

impl Net {
    /// Runs the full structural analysis with default limits.
    pub fn analyze(&self) -> StructuralReport {
        analyze_with(self, &AnalysisOptions::default())
    }
}

/// Runs the full structural analysis with explicit limits.
pub fn analyze_with(net: &Net, opts: &AnalysisOptions) -> StructuralReport {
    let places = net.place_count();
    let transitions = net.transition_count();

    let p_invariants = p_invariants_with(net, opts.max_basis);
    let t_invariants = t_invariants_with(net, opts.max_basis);
    let place_bounds = place_bounds(&p_invariants, places);

    let mut findings: Vec<Finding> = Vec::new();

    // -- Sanity: orphan places (no arc of any kind touches them). ----------
    let mut touched = vec![false; places];
    for tr in &net.transitions {
        for &(p, _) in tr.inputs.iter().chain(&tr.outputs).chain(&tr.inhibitors) {
            touched[p] = true;
        }
    }
    for (p, &t) in touched.iter().enumerate() {
        if !t {
            findings.push(Finding {
                kind: FindingKind::OrphanPlace,
                severity: Severity::Warning,
                places: vec![net.place_names[p].clone()],
                transitions: Vec::new(),
                witness: Vec::new(),
                message: format!(
                    "place `{}` is connected to no arc; its tokens are inert",
                    net.place_names[p]
                ),
            });
        }
    }

    // -- Contradictory input/inhibitor pairs. ------------------------------
    for (t, tr) in net.transitions.iter().enumerate() {
        for &(p, wi) in &tr.inputs {
            for &(ip, wh) in &tr.inhibitors {
                if p == ip && wh <= wi {
                    findings.push(Finding {
                        kind: FindingKind::ContradictoryInhibitor,
                        severity: Severity::Error,
                        places: vec![net.place_names[p].clone()],
                        transitions: vec![net.transitions[t].name.clone()],
                        witness: vec![u64::from(wi), u64::from(wh)],
                        message: format!(
                            "transition `{}` needs ≥ {wi} token(s) on `{}` but is \
                             inhibited at ≥ {wh}; it can never fire",
                            tr.name, net.place_names[p]
                        ),
                    });
                }
            }
        }
    }

    // -- Permanently disabled immediates (constant weight 0). --------------
    for tr in &net.transitions {
        if let Timing::Immediate {
            weight: WeightSpec::Const(w),
            ..
        } = &tr.timing
        {
            if *w <= 0.0 {
                findings.push(Finding {
                    kind: FindingKind::DisabledImmediate,
                    severity: Severity::Warning,
                    places: Vec::new(),
                    transitions: vec![tr.name.clone()],
                    witness: Vec::new(),
                    message: format!(
                        "immediate transition `{}` has constant weight {w}; it is \
                         permanently disabled",
                        tr.name
                    ),
                });
            }
        }
    }

    // -- Dead transitions: invariant bound beats input demand. -------------
    let mut dead = vec![false; transitions];
    for (t, tr) in net.transitions.iter().enumerate() {
        for &(p, w) in &tr.inputs {
            let Some(bound) = place_bounds[p] else {
                continue;
            };
            if u64::from(w) > bound {
                dead[t] = true;
                let witness = p_invariants
                    .iter()
                    .find(|inv| inv.covers(p))
                    .map(|inv| inv.weights.clone())
                    .unwrap_or_default();
                findings.push(Finding {
                    kind: FindingKind::DeadTransition,
                    severity: Severity::Error,
                    places: vec![net.place_names[p].clone()],
                    transitions: vec![tr.name.clone()],
                    witness,
                    message: format!(
                        "transition `{}` needs {w} token(s) on `{}`, but a P-invariant \
                         bounds that place at {bound}",
                        tr.name, net.place_names[p]
                    ),
                });
                break;
            }
        }
    }

    // -- Dead transitions: input place can never be marked (fixpoint). -----
    for t in structurally_unfireable(net) {
        if dead[t] {
            continue;
        }
        dead[t] = true;
        let starved: Vec<String> = net.transitions[t]
            .inputs
            .iter()
            .map(|&(p, _)| net.place_names[p].clone())
            .collect();
        findings.push(Finding {
            kind: FindingKind::DeadTransition,
            severity: Severity::Error,
            places: starved,
            transitions: vec![net.transitions[t].name.clone()],
            witness: Vec::new(),
            message: format!(
                "transition `{}` consumes from a place that is empty initially and \
                 is fed by no fireable transition",
                net.transitions[t].name
            ),
        });
    }

    // -- Exhaustive checks over the invariant-feasible marking space. ------
    let feasible = enumerate_feasible(net, &p_invariants, &place_bounds, opts.max_enumeration);
    if let Some(feasible) = &feasible {
        for (t, tr) in net.transitions.iter().enumerate() {
            if dead[t] {
                continue;
            }
            let mut token_enabled_somewhere = false;
            let mut guard_true_somewhere = tr.guard.is_none();
            for m in feasible {
                if !token_enabled(net, t, m) {
                    continue;
                }
                token_enabled_somewhere = true;
                if let Some(guard) = &tr.guard {
                    if guard(m) {
                        guard_true_somewhere = true;
                    }
                }
                if guard_true_somewhere {
                    break;
                }
            }
            if !token_enabled_somewhere {
                dead[t] = true;
                findings.push(Finding {
                    kind: FindingKind::DeadTransition,
                    severity: Severity::Error,
                    places: Vec::new(),
                    transitions: vec![tr.name.clone()],
                    witness: Vec::new(),
                    message: format!(
                        "transition `{}` is token-disabled in every one of the {} \
                         invariant-feasible markings",
                        tr.name,
                        feasible.len()
                    ),
                });
            } else if !guard_true_somewhere {
                dead[t] = true;
                findings.push(Finding {
                    kind: FindingKind::DeadGuard,
                    severity: Severity::Error,
                    places: Vec::new(),
                    transitions: vec![tr.name.clone()],
                    witness: Vec::new(),
                    message: format!(
                        "guard of transition `{}` is false over the entire \
                         invariant-feasible marking space ({} markings)",
                        tr.name,
                        feasible.len()
                    ),
                });
            }
        }
    }

    // -- Structural immediate-transition cycles. ---------------------------
    if let Some(cycle) = immediate_cycle(net, &dead) {
        let names: Vec<String> = cycle
            .iter()
            .map(|&t| net.transitions[t].name.clone())
            .collect();
        findings.push(Finding {
            kind: FindingKind::ImmediateCycle,
            severity: Severity::Warning,
            places: Vec::new(),
            transitions: names.clone(),
            witness: cycle.iter().map(|&t| t as u64).collect(),
            message: format!(
                "immediate transitions form a structural cycle ({}); if token-enabled \
                 together this is a vanishing-loop livelock",
                names.join(" → ")
            ),
        });
    }

    // -- Coverage / certificates. ------------------------------------------
    for (p, bound) in place_bounds.iter().enumerate() {
        if bound.is_none() {
            findings.push(Finding {
                kind: FindingKind::NoBoundCertificate,
                severity: Severity::Info,
                places: vec![net.place_names[p].clone()],
                transitions: Vec::new(),
                witness: Vec::new(),
                message: format!(
                    "place `{}` is not covered by any P-invariant; no structural \
                     boundedness certificate",
                    net.place_names[p]
                ),
            });
        }
    }
    if t_invariants.is_empty() && transitions > 0 {
        findings.push(Finding {
            kind: FindingKind::NoTInvariant,
            severity: Severity::Warning,
            places: Vec::new(),
            transitions: Vec::new(),
            witness: Vec::new(),
            message: "net admits no T-invariant: no firing sequence reproduces a marking, \
                      so a steady state cannot exist"
                .to_string(),
        });
    }

    // A transition that fires infinitely often in a bounded run lies in the
    // support of a T-invariant (the firing counts between two visits of one
    // marking form one); the minimal-support basis covers every support.
    for (t, tr) in net.transitions.iter().enumerate() {
        if t_invariants.is_empty() || dead[t] || t_invariants.iter().any(|i| i.covers(t)) {
            continue;
        }
        findings.push(Finding {
            kind: FindingKind::UncoveredTransition,
            severity: Severity::Error,
            places: Vec::new(),
            transitions: vec![tr.name.clone()],
            witness: Vec::new(),
            message: format!(
                "transition `{}` is in no T-invariant: it fires finitely often in any \
                 bounded run, so no steady state involves it",
                tr.name
            ),
        });
    }

    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));

    StructuralReport {
        net_name: net.name.clone(),
        place_names: net.place_names.clone(),
        transition_names: net.transitions.iter().map(|t| t.name.clone()).collect(),
        p_invariants,
        t_invariants,
        place_bounds,
        feasible_markings: feasible.map(|f| f.len() as u64),
        findings,
    }
}

/// The incidence matrix `C[p][t] = W(t→p) − W(p→t)`, stored row-major by
/// place. Inhibitor arcs do not move tokens and are excluded.
pub fn incidence(net: &Net) -> Vec<Vec<i64>> {
    let mut c = vec![vec![0i64; net.transition_count()]; net.place_count()];
    for (t, tr) in net.transitions.iter().enumerate() {
        for &(p, w) in &tr.inputs {
            c[p][t] -= i64::from(w);
        }
        for &(p, w) in &tr.outputs {
            c[p][t] += i64::from(w);
        }
    }
    c
}

/// Minimal-support P-invariant basis (`yᵀ·C = 0`, `y ≥ 0`, integer).
pub fn p_invariants(net: &Net) -> Vec<Invariant> {
    p_invariants_with(net, AnalysisOptions::default().max_basis)
}

fn p_invariants_with(net: &Net, max_basis: usize) -> Vec<Invariant> {
    let c = incidence(net);
    let m0 = net.initial.as_slice();
    farkas(&c, max_basis)
        .into_iter()
        .map(|weights| {
            let token_sum = weights
                .iter()
                .zip(m0)
                .map(|(&w, &t)| w * u64::from(t))
                .sum();
            Invariant { weights, token_sum }
        })
        .collect()
}

/// Minimal-support T-invariant basis (`C·x = 0`, `x ≥ 0`, integer).
pub fn t_invariants(net: &Net) -> Vec<Invariant> {
    t_invariants_with(net, AnalysisOptions::default().max_basis)
}

fn t_invariants_with(net: &Net, max_basis: usize) -> Vec<Invariant> {
    let c = incidence(net);
    let places = net.place_count();
    let transitions = net.transition_count();
    // Transpose: rows become transitions.
    let ct: Vec<Vec<i64>> = (0..transitions)
        .map(|t| (0..places).map(|p| c[p][t]).collect())
        .collect();
    farkas(&ct, max_basis)
        .into_iter()
        .map(|weights| Invariant {
            weights,
            token_sum: 0,
        })
        .collect()
}

/// Farkas positive-basis algorithm: all minimal-support non-negative integer
/// row vectors `y` with `y·M = 0`, for `M` given as `rows × cols`.
fn farkas(m: &[Vec<i64>], max_basis: usize) -> Vec<Vec<u64>> {
    let rows = m.len();
    let cols = m.first().map_or(0, Vec::len);
    // Each basis row is (combination · M, combination): the identity part
    // tracks which original rows were mixed with which coefficients.
    let mut basis: Vec<(Vec<i128>, Vec<i128>)> = (0..rows)
        .map(|r| {
            let mat: Vec<i128> = m[r].iter().map(|&v| i128::from(v)).collect();
            let mut id = vec![0i128; rows];
            id[r] = 1;
            (mat, id)
        })
        .collect();

    for col in 0..cols {
        let mut next: Vec<(Vec<i128>, Vec<i128>)> = Vec::new();
        let (zeros, actives): (Vec<_>, Vec<_>) =
            basis.into_iter().partition(|(mat, _)| mat[col] == 0);
        next.extend(zeros);
        let positives: Vec<&(Vec<i128>, Vec<i128>)> =
            actives.iter().filter(|(mat, _)| mat[col] > 0).collect();
        let negatives: Vec<&(Vec<i128>, Vec<i128>)> =
            actives.iter().filter(|(mat, _)| mat[col] < 0).collect();
        for (pm, pid) in &positives {
            for (nm, nid) in &negatives {
                let a = pm[col];
                let b = -nm[col];
                let mut mat: Vec<i128> = pm
                    .iter()
                    .zip(nm.iter())
                    .map(|(&x, &y)| b * x + a * y)
                    .collect();
                let mut id: Vec<i128> = pid
                    .iter()
                    .zip(nid.iter())
                    .map(|(&x, &y)| b * x + a * y)
                    .collect();
                normalise(&mut mat, &mut id);
                if !next.iter().any(|(_, existing)| existing == &id) {
                    next.push((mat, id));
                }
                if next.len() > max_basis {
                    // Defensive cap: a partial basis would contain vectors
                    // that are not yet annulled, so report none at all.
                    return Vec::new();
                }
            }
        }
        basis = next;
    }
    minimise(&basis)
}

/// Divides a combined Farkas row by the gcd of all its entries.
fn normalise(mat: &mut [i128], id: &mut [i128]) {
    let mut g: i128 = 0;
    for &v in mat.iter().chain(id.iter()) {
        g = gcd(g, v.abs());
    }
    if g > 1 {
        for v in mat.iter_mut().chain(id.iter_mut()) {
            *v /= g;
        }
    }
}

fn gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Keeps only minimal-support, deduplicated invariant vectors.
fn minimise(basis: &[(Vec<i128>, Vec<i128>)]) -> Vec<Vec<u64>> {
    let supports: Vec<Vec<bool>> = basis
        .iter()
        .map(|(_, id)| id.iter().map(|&v| v != 0).collect())
        .collect();
    let mut keep: Vec<Vec<u64>> = Vec::new();
    'candidate: for (i, (_, id)) in basis.iter().enumerate() {
        for (j, other) in supports.iter().enumerate() {
            if i != j
                && supports[i]
                    .iter()
                    .zip(other)
                    .all(|(&mine, &theirs)| !theirs || mine)
                && supports[i] != *other
            {
                // `other` has strictly smaller support: drop this candidate.
                continue 'candidate;
            }
        }
        let as_u64: Vec<u64> = id.iter().map(|&v| v.unsigned_abs() as u64).collect();
        if as_u64.iter().all(|&v| v == 0) {
            continue;
        }
        if !keep.contains(&as_u64) {
            keep.push(as_u64);
        }
    }
    keep
}

/// Structural token bound per place from covering P-invariants:
/// `min over {y : y[p] > 0} of ⌊y·m₀ / y[p]⌋`.
fn place_bounds(invariants: &[Invariant], places: usize) -> Vec<Option<u64>> {
    (0..places)
        .map(|p| {
            invariants
                .iter()
                .filter(|inv| inv.covers(p))
                .map(|inv| inv.token_sum / inv.weights[p])
                .min()
        })
        .collect()
}

/// Transitions that can provably never fire because an input place is empty
/// initially and fed by no (transitively) fireable transition.
fn structurally_unfireable(net: &Net) -> Vec<usize> {
    let mut maybe_marked: Vec<bool> = net.initial.as_slice().iter().map(|&t| t > 0).collect();
    let mut maybe_fires = vec![false; net.transition_count()];
    loop {
        let mut changed = false;
        for (t, tr) in net.transitions.iter().enumerate() {
            if maybe_fires[t] {
                continue;
            }
            if tr.inputs.iter().all(|&(p, _)| maybe_marked[p]) {
                maybe_fires[t] = true;
                changed = true;
                for &(p, _) in &tr.outputs {
                    maybe_marked[p] = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    (0..net.transition_count())
        .filter(|&t| !maybe_fires[t])
        .collect()
}

/// Token-level enabling (input and inhibitor arcs only; guards excluded).
fn token_enabled(net: &Net, t: usize, m: &Marking) -> bool {
    let tr = &net.transitions[t];
    tr.inputs.iter().all(|&(p, w)| m.as_slice()[p] >= w)
        && tr.inhibitors.iter().all(|&(p, w)| m.as_slice()[p] < w)
}

/// Enumerates every marking satisfying all P-invariant equations, when the
/// space is finite (every place bounded) and below `cap`.
fn enumerate_feasible(
    net: &Net,
    invariants: &[Invariant],
    bounds: &[Option<u64>],
    cap: usize,
) -> Option<Vec<Marking>> {
    let places = net.place_count();
    if places == 0 || invariants.is_empty() {
        return None;
    }
    let bounds: Option<Vec<u64>> = bounds.iter().copied().collect();
    let bounds = bounds?;
    // Quick size screen before the DFS: the box spanned by the bounds gives
    // an easy over-estimate; refuse to walk a space vastly beyond the cap.
    let mut size: u128 = 1;
    for &b in &bounds {
        size = size.saturating_mul(u128::from(b) + 1);
    }
    if size > (cap as u128) * 64 {
        return None;
    }
    // Max contribution each invariant can still pick up from places ≥ p.
    let suffix_max: Vec<Vec<u64>> = invariants
        .iter()
        .map(|inv| {
            let mut s = vec![0u64; places + 1];
            for p in (0..places).rev() {
                s[p] = s[p + 1] + inv.weights[p] * bounds[p];
            }
            s
        })
        .collect();

    let mut out: Vec<Marking> = Vec::new();
    let mut current = vec![0u32; places];
    let mut sums = vec![0u64; invariants.len()];
    let mut overflow = false;
    dfs(
        invariants,
        &bounds,
        &suffix_max,
        0,
        &mut current,
        &mut sums,
        &mut out,
        cap,
        &mut overflow,
    );
    if overflow {
        None
    } else {
        Some(out)
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    invariants: &[Invariant],
    bounds: &[u64],
    suffix_max: &[Vec<u64>],
    p: usize,
    current: &mut Vec<u32>,
    sums: &mut Vec<u64>,
    out: &mut Vec<Marking>,
    cap: usize,
    overflow: &mut bool,
) {
    if *overflow {
        return;
    }
    if p == bounds.len() {
        if invariants
            .iter()
            .zip(sums.iter())
            .all(|(inv, &s)| s == inv.token_sum)
        {
            if out.len() >= cap {
                *overflow = true;
                return;
            }
            out.push(Marking::new(current.clone()));
        }
        return;
    }
    for tokens in 0..=bounds[p] {
        // Prune: no invariant may overshoot its target (monotone in
        // `tokens`, so stop the loop), nor become unreachable given the
        // maximum the remaining places can still add (try more tokens).
        let mut overshoot = false;
        let mut unreachable = false;
        for (i, inv) in invariants.iter().enumerate() {
            let s = sums[i] + inv.weights[p] * tokens;
            if s > inv.token_sum {
                overshoot = true;
                break;
            }
            if s + suffix_max[i][p + 1] < inv.token_sum {
                unreachable = true;
            }
        }
        if overshoot {
            break;
        }
        if unreachable {
            continue;
        }
        current[p] = tokens as u32;
        for (i, inv) in invariants.iter().enumerate() {
            sums[i] += inv.weights[p] * tokens;
        }
        dfs(
            invariants,
            bounds,
            suffix_max,
            p + 1,
            current,
            sums,
            out,
            cap,
            overflow,
        );
        for (i, inv) in invariants.iter().enumerate() {
            sums[i] -= inv.weights[p] * tokens;
        }
        current[p] = 0;
    }
}

/// Finds one structural cycle among live immediate transitions, if any:
/// `t → u` when an output place of `t` is an input place of `u`.
fn immediate_cycle(net: &Net, dead: &[bool]) -> Option<Vec<usize>> {
    let n = net.transition_count();
    let immediate: Vec<bool> = net
        .transitions
        .iter()
        .enumerate()
        .map(|(t, tr)| tr.timing.is_immediate() && !dead[t])
        .collect();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for t in 0..n {
        if !immediate[t] {
            continue;
        }
        for &(p, _) in &net.transitions[t].outputs {
            for (u, tr) in net.transitions.iter().enumerate() {
                if immediate[u] && tr.inputs.iter().any(|&(ip, _)| ip == p) {
                    succ[t].push(u);
                }
            }
        }
    }
    // Iterative DFS with colors; reconstruct the cycle from the stack.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    for start in 0..n {
        if !immediate[start] || color[start] != Color::White {
            continue;
        }
        let mut path: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = Color::Gray;
        while let Some(&mut (node, ref mut next)) = path.last_mut() {
            if *next < succ[node].len() {
                let child = succ[node][*next];
                *next += 1;
                match color[child] {
                    Color::Gray => {
                        let pos = path.iter().position(|&(v, _)| v == child).expect("on path");
                        return Some(path[pos..].iter().map(|&(v, _)| v).collect());
                    }
                    Color::White => {
                        color[child] = Color::Gray;
                        path.push((child, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                path.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetBuilder;

    /// A conservative 3-place ring: one token circulating H → C → F → H.
    fn ring() -> Net {
        let mut b = NetBuilder::new("ring");
        let h = b.place("H", 1);
        let c = b.place("C", 0);
        let f = b.place("F", 0);
        let t1 = b.exponential("t1", 1.0);
        let t2 = b.exponential("t2", 2.0);
        let t3 = b.exponential("t3", 3.0);
        b.input_arc(h, t1, 1).unwrap();
        b.output_arc(t1, c, 1).unwrap();
        b.input_arc(c, t2, 1).unwrap();
        b.output_arc(t2, f, 1).unwrap();
        b.input_arc(f, t3, 1).unwrap();
        b.output_arc(t3, h, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn ring_invariants_and_bounds() {
        let report = ring().analyze();
        assert!(report.is_certified(), "{report}");
        assert_eq!(report.p_invariants.len(), 1);
        assert_eq!(report.p_invariants[0].weights, vec![1, 1, 1]);
        assert_eq!(report.p_invariants[0].token_sum, 1);
        assert_eq!(report.t_invariants.len(), 1);
        assert_eq!(report.t_invariants[0].weights, vec![1, 1, 1]);
        assert!(report.is_structurally_bounded());
        assert_eq!(report.place_bounds, vec![Some(1), Some(1), Some(1)]);
        // Exactly the 3 one-token markings are feasible.
        assert_eq!(report.feasible_markings, Some(3));
        assert_eq!(report.error_count(), 0);
        assert_eq!(report.warning_count(), 0);
    }

    /// Producer/consumer through a bounded buffer with a free-slot semaphore.
    fn producer_consumer(slots: u32) -> Net {
        let mut b = NetBuilder::new("prodcons");
        let idle_p = b.place("producer_idle", 1);
        let busy_p = b.place("producer_busy", 0);
        let buffer = b.place("buffer", 0);
        let free = b.place("free_slots", slots);
        let idle_c = b.place("consumer_idle", 1);
        let busy_c = b.place("consumer_busy", 0);
        let produce = b.exponential("produce", 1.0);
        let put = b.exponential("put", 5.0);
        let take = b.exponential("take", 4.0);
        let consume = b.exponential("consume", 2.0);
        b.input_arc(idle_p, produce, 1).unwrap();
        b.output_arc(produce, busy_p, 1).unwrap();
        b.input_arc(busy_p, put, 1).unwrap();
        b.input_arc(free, put, 1).unwrap();
        b.output_arc(put, buffer, 1).unwrap();
        b.output_arc(put, idle_p, 1).unwrap();
        b.input_arc(buffer, take, 1).unwrap();
        b.input_arc(idle_c, take, 1).unwrap();
        b.output_arc(take, busy_c, 1).unwrap();
        b.output_arc(take, free, 1).unwrap();
        b.input_arc(busy_c, consume, 1).unwrap();
        b.output_arc(consume, idle_c, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn producer_consumer_invariants() {
        let net = producer_consumer(3);
        let report = net.analyze();
        assert!(report.is_certified(), "{report}");
        assert!(report.is_structurally_bounded());
        // Three conservation laws: producer cycle, consumer cycle, and
        // buffer + free_slots = capacity.
        assert_eq!(report.p_invariants.len(), 3, "{report}");
        let buffer = net.place_by_name("buffer").unwrap().index();
        let free = net.place_by_name("free_slots").unwrap().index();
        let cap_law = report
            .p_invariants
            .iter()
            .find(|inv| inv.covers(buffer) && inv.covers(free))
            .expect("buffer conservation law");
        assert_eq!(cap_law.token_sum, 3);
        assert_eq!(report.place_bounds[buffer], Some(3));
        // The full cycle is a T-invariant.
        assert!(!report.t_invariants.is_empty());
    }

    #[test]
    fn weighted_invariant_found() {
        // 2·t moves: A --(2)--> t --(1)--> B means 1·A + 2·B invariant.
        let mut b = NetBuilder::new("weighted");
        let a = b.place("A", 4);
        let pb = b.place("B", 0);
        let t = b.exponential("t", 1.0);
        let back = b.exponential("back", 1.0);
        b.input_arc(a, t, 2).unwrap();
        b.output_arc(t, pb, 1).unwrap();
        b.input_arc(pb, back, 1).unwrap();
        b.output_arc(back, a, 2).unwrap();
        let report = b.build().unwrap().analyze();
        assert_eq!(report.p_invariants.len(), 1);
        assert_eq!(report.p_invariants[0].weights, vec![1, 2]);
        assert_eq!(report.p_invariants[0].token_sum, 4);
        assert_eq!(report.place_bounds, vec![Some(4), Some(2)]);
    }

    #[test]
    fn dead_transition_by_invariant_bound_flagged() {
        // Ring holds 1 token but `greedy` demands 2 from H: statically dead.
        let mut b = NetBuilder::new("dead");
        let h = b.place("H", 1);
        let c = b.place("C", 0);
        let t1 = b.exponential("t1", 1.0);
        let t2 = b.exponential("t2", 1.0);
        let greedy = b.exponential("greedy", 1.0);
        b.input_arc(h, t1, 1).unwrap();
        b.output_arc(t1, c, 1).unwrap();
        b.input_arc(c, t2, 1).unwrap();
        b.output_arc(t2, h, 1).unwrap();
        b.input_arc(h, greedy, 2).unwrap();
        b.output_arc(greedy, c, 2).unwrap();
        let report = b.build().unwrap().analyze();
        assert!(!report.is_certified());
        let dead: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::DeadTransition)
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].transitions, vec!["greedy".to_string()]);
        assert!(!dead[0].witness.is_empty(), "carries the invariant witness");
    }

    #[test]
    fn dead_transition_by_starved_input_flagged() {
        // `never` consumes from a place that is empty and never fed.
        let mut b = NetBuilder::new("starved");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let empty = b.place("empty", 0);
        let sink = b.place("sink", 0);
        let live = b.exponential("live", 1.0);
        let back = b.exponential("back", 1.0);
        let never = b.exponential("never", 1.0);
        b.input_arc(p, live, 1).unwrap();
        b.output_arc(live, q, 1).unwrap();
        b.input_arc(q, back, 1).unwrap();
        b.output_arc(back, p, 1).unwrap();
        b.input_arc(empty, never, 1).unwrap();
        b.output_arc(never, sink, 1).unwrap();
        let report = b.build().unwrap().analyze();
        assert!(!report.is_certified());
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DeadTransition
                && f.transitions == vec!["never".to_string()]));
    }

    #[test]
    fn contradictory_inhibitor_flagged_by_analysis() {
        let mut b = NetBuilder::new("contra");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let t = b.exponential("t", 1.0);
        let back = b.exponential("back", 1.0);
        b.input_arc(p, t, 1).unwrap();
        b.output_arc(t, q, 1).unwrap();
        b.input_arc(q, back, 1).unwrap();
        b.output_arc(back, p, 1).unwrap();
        // Needs ≥1 token on p, inhibited at ≥1 token on p: impossible.
        b.inhibitor_arc(p, t, 1).unwrap();
        let net = b.build_unchecked();
        let report = net.analyze();
        assert!(report.findings.iter().any(
            |f| f.kind == FindingKind::ContradictoryInhibitor && f.severity == Severity::Error
        ));
    }

    #[test]
    fn dead_guard_flagged_over_feasible_space() {
        let mut b = NetBuilder::new("deadguard");
        let h = b.place("H", 2);
        let c = b.place("C", 0);
        let t1 = b.exponential("t1", 1.0);
        let t2 = b.exponential("t2", 1.0);
        let guarded = b.exponential("guarded", 1.0);
        b.input_arc(h, t1, 1).unwrap();
        b.output_arc(t1, c, 1).unwrap();
        b.input_arc(c, t2, 1).unwrap();
        b.output_arc(t2, h, 1).unwrap();
        b.input_arc(h, guarded, 1).unwrap();
        b.output_arc(guarded, c, 1).unwrap();
        // Impossible: H + C = 2 always, so H can never reach 5.
        b.guard(guarded, |m: &Marking| m.as_slice()[0] >= 5)
            .unwrap();
        let report = b.build().unwrap().analyze();
        assert!(!report.is_certified());
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DeadGuard
                && f.transitions == vec!["guarded".to_string()]));
    }

    #[test]
    fn satisfiable_guard_not_flagged() {
        let mut b = NetBuilder::new("okguard");
        let h = b.place("H", 2);
        let c = b.place("C", 0);
        let t1 = b.exponential("t1", 1.0);
        let t2 = b.exponential("t2", 1.0);
        b.input_arc(h, t1, 1).unwrap();
        b.output_arc(t1, c, 1).unwrap();
        b.input_arc(c, t2, 1).unwrap();
        b.output_arc(t2, h, 1).unwrap();
        b.guard(t1, |m: &Marking| m.as_slice()[0] >= 2).unwrap();
        let report = b.build().unwrap().analyze();
        assert!(report.is_certified(), "{report}");
    }

    #[test]
    fn immediate_cycle_flagged_as_warning() {
        let mut b = NetBuilder::new("icycle");
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 0);
        let a = b.immediate("a");
        let z = b.immediate("z");
        b.input_arc(p0, a, 1).unwrap();
        b.output_arc(a, p1, 1).unwrap();
        b.input_arc(p1, z, 1).unwrap();
        b.output_arc(z, p0, 1).unwrap();
        let report = b.build().unwrap().analyze();
        let cycle = report
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::ImmediateCycle)
            .expect("cycle finding");
        assert_eq!(cycle.severity, Severity::Warning);
        assert_eq!(cycle.transitions.len(), 2);
        assert_eq!(cycle.witness.len(), 2);
    }

    #[test]
    fn orphan_place_and_disabled_immediate_flagged() {
        let mut b = NetBuilder::new("sanity");
        let p = b.place("p", 1);
        let _orphan = b.place("orphan", 2);
        let q = b.place("q", 0);
        let t = b.immediate_with("t", 1, 0.0);
        let back = b.exponential("back", 1.0);
        b.input_arc(p, t, 1).unwrap();
        b.output_arc(t, q, 1).unwrap();
        b.input_arc(q, back, 1).unwrap();
        b.output_arc(back, p, 1).unwrap();
        let report = b.build().unwrap().analyze();
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::OrphanPlace));
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::DisabledImmediate));
    }

    #[test]
    fn uncovered_place_reported_without_error() {
        // `counter` only ever gains tokens: not covered by any P-invariant.
        let mut b = NetBuilder::new("unbounded");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let counter = b.place("counter", 0);
        let t = b.exponential("t", 1.0);
        let back = b.exponential("back", 1.0);
        b.input_arc(p, t, 1).unwrap();
        b.output_arc(t, q, 1).unwrap();
        b.output_arc(t, counter, 1).unwrap();
        b.input_arc(q, back, 1).unwrap();
        b.output_arc(back, p, 1).unwrap();
        let report = b.build().unwrap().analyze();
        assert!(report.is_certified(), "{report}");
        assert!(!report.is_structurally_bounded());
        let counter_i = counter.index();
        assert_eq!(report.place_bounds[counter_i], None);
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::NoBoundCertificate
                && f.places == vec!["counter".to_string()]));
        // Enumeration must be skipped: the feasible space is infinite.
        assert_eq!(report.feasible_markings, None);
    }

    #[test]
    fn acyclic_net_gets_no_t_invariant_warning() {
        let mut b = NetBuilder::new("oneway");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        let t = b.exponential("t", 1.0);
        b.input_arc(p, t, 1).unwrap();
        b.output_arc(t, q, 1).unwrap();
        let report = b.build().unwrap().analyze();
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == FindingKind::NoTInvariant));
        assert!(report.t_invariants.is_empty());
    }

    #[test]
    fn transition_outside_every_t_invariant_flagged() {
        // `leak` drains the `p`/`q` cycle into `sink`, which nothing empties.
        let mut b = NetBuilder::new("leak");
        let p = b.place("p", 2);
        let q = b.place("q", 0);
        let sink = b.place("sink", 0);
        let go = b.exponential("go", 1.0);
        let back = b.exponential("back", 1.0);
        let leak = b.exponential("leak", 1.0);
        b.input_arc(p, go, 1).unwrap();
        b.output_arc(go, q, 1).unwrap();
        b.input_arc(q, back, 1).unwrap();
        b.output_arc(back, p, 1).unwrap();
        b.input_arc(q, leak, 1).unwrap();
        b.output_arc(leak, sink, 1).unwrap();
        let report = b.build().unwrap().analyze();
        assert!(!report.is_certified());
        let uncovered: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::UncoveredTransition)
            .collect();
        assert_eq!(uncovered.len(), 1, "{report}");
        assert_eq!(uncovered[0].transitions, vec!["leak".to_string()]);
    }

    #[test]
    fn invariant_helpers() {
        let inv = Invariant {
            weights: vec![1, 0, 2],
            token_sum: 3,
        };
        assert_eq!(inv.support(), vec![0, 2]);
        assert!(inv.covers(2) && !inv.covers(1));
        assert_eq!(inv.weighted_sum(&Marking::new(vec![1, 7, 1])), 3);
    }

    #[test]
    fn incidence_matrix_shape_and_signs() {
        let net = ring();
        let c = incidence(&net);
        assert_eq!(c.len(), 3);
        assert_eq!(c[0], vec![-1, 0, 1]); // H: consumed by t1, fed by t3
        assert_eq!(c[1], vec![1, -1, 0]);
        assert_eq!(c[2], vec![0, 1, -1]);
    }

    #[test]
    fn display_renders_report() {
        let report = ring().analyze();
        let text = report.to_string();
        assert!(text.contains("structural report"));
        assert!(text.contains("H + C + F = 1"));
        assert!(text.contains("findings: none"));
        assert!(Severity::Error.to_string() == "error");
        assert!(FindingKind::DeadGuard.to_string() == "dead-guard");
    }

    #[test]
    fn severity_ordering_puts_errors_first() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
