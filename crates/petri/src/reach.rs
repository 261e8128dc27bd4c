//! Reachability-graph generation with vanishing-marking elimination.
//!
//! Markings enabling an immediate transition are *vanishing*: the process
//! leaves them in zero time. The explorer resolves every vanishing marking
//! into a probability distribution over the tangible markings ultimately
//! reached, so the resulting graph is the embedded continuous-time Markov
//! chain over tangible markings only.
//!
//! ## Layout
//!
//! [`explore`] allocates per discovered state, not per firing:
//!
//! * the net's arcs are compiled once per call into flat per-transition
//!   slices, with separate timed and immediate transition lists;
//! * every tangible marking is stored once, in
//!   [`ReachabilityGraph::markings`], and an open-addressing table of state
//!   ids indexes it (ids come from insertion order);
//! * successors are fired into reused scratch markings, and a successor
//!   already known costs one hash probe;
//! * vanishing distributions are memoised in flat arrays, sorted by
//!   marking;
//! * edges are emitted as one [`Csr`] matrix.
//!
//! ## Order
//!
//! State ids, edge rates and the initial distribution are fixed by four
//! orders, which the layout keeps:
//!
//! * states are numbered breadth-first, in the order they are first met;
//! * a vanishing marking's distribution lists its tangible markings
//!   sorted by marking, so they are met (and numbered) in that order;
//! * a target's rate is the sum of its contributions in the order they are
//!   met: timed transitions by index, then distribution entries in order;
//! * a row of edges lists its targets in ascending state id.

use crate::enabling::effective_rate;
use crate::error::PetriError;
use crate::linalg::Csr;
use crate::marking::Marking;
use crate::model::{Net, PlaceId, Timing, WeightSpec};

/// Options controlling reachability exploration.
#[derive(Debug, Clone)]
pub struct ReachOptions {
    /// Abort when more than this many tangible markings are discovered.
    pub max_states: usize,
    /// Abort when any place accumulates more than this many tokens.
    pub token_bound: u32,
}

impl Default for ReachOptions {
    fn default() -> Self {
        ReachOptions {
            max_states: 1_000_000,
            token_bound: 4096,
        }
    }
}

/// The tangible reachability graph of a net: the state space of the embedded
/// CTMC.
#[derive(Debug)]
pub struct ReachabilityGraph {
    /// Tangible markings, indexed by state id.
    pub markings: Vec<Marking>,
    /// Row `s` lists the `(target state, rate)` edges leaving state `s`,
    /// with merged rates, in ascending target order.
    pub edges: Csr,
    /// Distribution over tangible states the net starts in (the initial
    /// marking may itself be vanishing).
    pub initial: Vec<(usize, f64)>,
}

impl ReachabilityGraph {
    /// Number of tangible states.
    pub fn state_count(&self) -> usize {
        self.markings.len()
    }

    /// Total exit rate of state `s`.
    pub fn exit_rate(&self, s: usize) -> f64 {
        self.edges.row(s).map(|(_, r)| r).sum()
    }
}

/// Explores the tangible reachability graph of `net`.
///
/// # Errors
///
/// * [`PetriError::ImmediateCycle`] if immediate transitions form a loop.
/// * [`PetriError::DeadVanishingMarking`] if a marking enables immediate
///   transitions whose weights are all zero.
/// * [`PetriError::StateSpaceTooLarge`] / [`PetriError::TokenBoundExceeded`]
///   when the exploration budget is exhausted.
/// * [`PetriError::InvalidParameter`] if a deterministic transition is
///   enabled anywhere (expand it with [`crate::erlang_expand`] first) or an
///   exponential transition evaluates to a non-positive rate.
pub fn explore(net: &Net, opts: &ReachOptions) -> Result<ReachabilityGraph, PetriError> {
    let arcs = Arcs::compile(net);
    let mut resolver = Resolver::new(&arcs, opts, net.initial_marking());
    let mut states = States::new(net, opts);

    let mut initial = Vec::new();
    match resolver.resolve()? {
        Resolved::Tangible => {
            initial.push((states.intern(resolver.rows[0].as_slice())? as usize, 1.0));
        }
        Resolved::Vanishing(v) => {
            for (row, p) in resolver.distribution(v) {
                initial.push((states.intern(row)? as usize, p));
            }
        }
    }

    let mut edges = Csr::default();
    // The current state's edges, in first-met order, and each target's
    // position in that list (a sparse set: valid only where it points back).
    let mut out: Vec<(u32, f64)> = Vec::new();
    let mut slot: Vec<u32> = Vec::new();
    let mut current = net.initial_marking();
    // Breadth-first: ids are handed out in discovery order, so the queue is
    // the id range itself.
    let mut s = 0;
    while s < states.markings.len() {
        current
            .as_mut_slice()
            .copy_from_slice(states.markings[s].as_slice());
        out.clear();
        for &t in &arcs.timed {
            if !arcs.is_enabled(t, &current) {
                continue;
            }
            let rate = timed_rate(net, t, &current)?;
            arcs.fire(t, &current, &mut resolver.rows[0]);
            check_bound(net, resolver.rows[0].as_slice(), opts)?;
            match resolver.resolve()? {
                Resolved::Tangible => {
                    let target = states.intern(resolver.rows[0].as_slice())?;
                    add_edge(&mut out, &mut slot, target, rate);
                }
                Resolved::Vanishing(v) => {
                    for (row, p) in resolver.distribution(v) {
                        let target = states.intern(row)?;
                        add_edge(&mut out, &mut slot, target, rate * p);
                    }
                }
            }
        }
        out.sort_unstable_by_key(|&(target, _)| target);
        for &(target, rate) in &out {
            edges.cols.push(target);
            edges.values.push(rate);
        }
        edges.offsets.push(edges.cols.len());
        s += 1;
    }

    if states.markings.is_empty() {
        return Err(PetriError::NoTangibleMarking);
    }

    Ok(ReachabilityGraph {
        markings: states.markings,
        edges,
        initial,
    })
}

/// Adds `rate` to the edge towards `target`. A target's first contribution
/// starts its sum (a map entry starting at `0.0` would give the same bits:
/// every contribution is a non-negative product).
fn add_edge(out: &mut Vec<(u32, f64)>, slot: &mut Vec<u32>, target: u32, rate: f64) {
    let t = target as usize;
    if slot.len() <= t {
        slot.resize(t + 1, 0);
    }
    match out.get_mut(slot[t] as usize) {
        Some(edge) if edge.0 == target => edge.1 += rate,
        _ => {
            slot[t] = u32::try_from(out.len()).expect("out-degree fits in u32");
            out.push((target, rate));
        }
    }
}

/// Firing rate of the enabled timed transition `t` in `marking`.
fn timed_rate(net: &Net, t: usize, marking: &Marking) -> Result<f64, PetriError> {
    match &net.transitions[t].timing {
        Timing::Exponential { .. } => {
            let r = effective_rate(net, t, marking).expect("exponential");
            if !r.is_finite() || r <= 0.0 {
                return Err(PetriError::InvalidParameter {
                    what: format!(
                        "rate {r} of transition `{}` in marking {marking}",
                        net.transitions[t].name
                    ),
                });
            }
            Ok(r)
        }
        Timing::Deterministic { .. } => Err(PetriError::InvalidParameter {
            what: format!(
                "deterministic transition `{}` enabled during CTMC reachability; \
                 apply erlang_expand first",
                net.transitions[t].name
            ),
        }),
        Timing::Immediate { .. } => unreachable!("the timed list holds no immediates"),
    }
}

fn check_bound(net: &Net, row: &[u32], opts: &ReachOptions) -> Result<(), PetriError> {
    for (p, &t) in row.iter().enumerate() {
        if t > opts.token_bound {
            return Err(PetriError::TokenBoundExceeded {
                place: net.place_name(PlaceId(p)).to_string(),
                bound: opts.token_bound,
            });
        }
    }
    Ok(())
}

/// A net's arcs compiled into flat per-transition slices.
struct Arcs<'a> {
    net: &'a Net,
    /// `(place, weight)` arcs of every transition: its inputs, then its
    /// outputs, then its inhibitors.
    arcs: Vec<(usize, u32)>,
    /// Per transition, where its inputs, outputs and inhibitors start in
    /// `arcs`, and where they end.
    spans: Vec<[usize; 4]>,
    /// Timed transitions, by index.
    timed: Vec<usize>,
    /// Immediate transitions with their priority and weight, by index.
    immediates: Vec<(usize, u32, &'a WeightSpec)>,
}

impl<'a> Arcs<'a> {
    fn compile(net: &'a Net) -> Self {
        let mut arcs = Vec::new();
        let mut spans = Vec::with_capacity(net.transitions.len());
        let (mut timed, mut immediates) = (Vec::new(), Vec::new());
        for (t, tr) in net.transitions.iter().enumerate() {
            let mut span = [arcs.len(); 4];
            for (k, list) in [&tr.inputs, &tr.outputs, &tr.inhibitors]
                .into_iter()
                .enumerate()
            {
                arcs.extend_from_slice(list);
                span[k + 1] = arcs.len();
            }
            spans.push(span);
            match &tr.timing {
                Timing::Immediate { priority, weight } => immediates.push((t, *priority, weight)),
                _ => timed.push(t),
            }
        }
        Arcs {
            net,
            arcs,
            spans,
            timed,
            immediates,
        }
    }

    /// Same test as [`crate::enabling`]'s: inputs, inhibitors, then guard.
    fn is_enabled(&self, t: usize, m: &Marking) -> bool {
        let [i, o, h, e] = self.spans[t];
        let tokens = m.as_slice();
        self.arcs[i..o].iter().all(|&(p, w)| tokens[p] >= w)
            && self.arcs[h..e].iter().all(|&(p, w)| tokens[p] < w)
            && self.net.transitions[t].guard.as_ref().is_none_or(|g| g(m))
    }

    /// Writes the successor of `src` under `t` into `dst`: inputs debited,
    /// then outputs credited.
    fn fire(&self, t: usize, src: &Marking, dst: &mut Marking) {
        let [i, o, h, _] = self.spans[t];
        let tokens = dst.as_mut_slice();
        tokens.copy_from_slice(src.as_slice());
        for &(p, w) in &self.arcs[i..o] {
            tokens[p] -= w;
        }
        for &(p, w) in &self.arcs[o..h] {
            tokens[p] += w;
        }
    }
}

/// FxHash-style hash of a row of token counts, two counts per step; the
/// high half of the last product is the best-mixed part.
fn hash_row(row: &[u32]) -> u32 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = 0u64;
    let mut pairs = row.chunks_exact(2);
    for p in &mut pairs {
        let x = u64::from(p[0]) | u64::from(p[1]) << 32;
        h = (h.rotate_left(5) ^ x).wrapping_mul(K);
    }
    for &x in pairs.remainder() {
        h = (h.rotate_left(5) ^ u64::from(x)).wrapping_mul(K);
    }
    (h >> 32) as u32
}

/// Rows of token counts stored elsewhere, addressed by id.
trait Rows {
    fn row(&self, id: usize) -> &[u32];
}

impl Rows for [Marking] {
    fn row(&self, id: usize) -> &[u32] {
        self[id].as_slice()
    }
}

/// Rows of equal width stored back to back.
struct FlatRows {
    width: usize,
    len: usize,
    data: Vec<u32>,
}

impl FlatRows {
    fn new(width: usize) -> Self {
        FlatRows {
            width,
            len: 0,
            data: Vec::new(),
        }
    }

    fn push(&mut self, row: &[u32]) {
        debug_assert_eq!(row.len(), self.width);
        self.data.extend_from_slice(row);
        self.len += 1;
    }

    fn truncate(&mut self, len: usize) {
        self.data.truncate(len * self.width);
        self.len = len;
    }
}

impl Rows for FlatRows {
    fn row(&self, id: usize) -> &[u32] {
        &self.data[id * self.width..(id + 1) * self.width]
    }
}

/// Open-addressing (linear probing) index from rows to their ids. Each slot
/// holds a row's hash and id; the rows themselves live elsewhere.
struct RowIndex {
    slots: Vec<(u32, u32)>,
    len: usize,
}

const EMPTY: u32 = u32::MAX;

impl RowIndex {
    fn new() -> Self {
        RowIndex {
            slots: vec![(0, EMPTY); 64],
            len: 0,
        }
    }

    /// The id of `row`, or the free slot where it belongs.
    fn probe<R: Rows + ?Sized>(&self, hash: u32, row: &[u32], rows: &R) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, id) = self.slots[i];
            if id == EMPTY {
                return Err(i);
            }
            if h == hash && rows.row(id as usize) == row {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Records `id` in the free `slot` that [`RowIndex::probe`] returned.
    fn fill(&mut self, slot: usize, hash: u32, id: u32) {
        self.slots[slot] = (hash, id);
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            let grown = vec![(0, EMPTY); 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            let mask = self.slots.len() - 1;
            for (h, id) in old.into_iter().filter(|&(_, id)| id != EMPTY) {
                let mut i = h as usize & mask;
                while self.slots[i].1 != EMPTY {
                    i = (i + 1) & mask;
                }
                self.slots[i] = (h, id);
            }
        }
    }
}

/// The tangible states found so far, numbered in discovery order.
struct States<'a> {
    opts: &'a ReachOptions,
    markings: Vec<Marking>,
    index: RowIndex,
    // In debug builds every explored marking is cross-checked against the
    // net's P-invariants: firing preserves each weighted token sum, so any
    // violation means the explorer or vanishing resolver corrupted a state.
    #[cfg(debug_assertions)]
    invariants: Vec<crate::analysis::Invariant>,
    #[cfg(debug_assertions)]
    net: &'a Net,
}

impl<'a> States<'a> {
    fn new(net: &'a Net, opts: &'a ReachOptions) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = net;
        States {
            opts,
            markings: Vec::new(),
            index: RowIndex::new(),
            #[cfg(debug_assertions)]
            invariants: crate::analysis::p_invariants(net),
            #[cfg(debug_assertions)]
            net,
        }
    }

    /// The id of the tangible marking `row`, numbering it if it is new.
    fn intern(&mut self, row: &[u32]) -> Result<u32, PetriError> {
        let hash = hash_row(row);
        let slot = match self.index.probe(hash, row, self.markings.as_slice()) {
            Ok(id) => return Ok(id),
            Err(slot) => slot,
        };
        // Ids are `u32`, with `EMPTY` reserved for free index slots.
        if self.markings.len() >= self.opts.max_states.min(EMPTY as usize) {
            return Err(PetriError::StateSpaceTooLarge {
                limit: self.opts.max_states,
            });
        }
        let id = self.markings.len() as u32;
        let m = Marking::from(row);
        #[cfg(debug_assertions)]
        for inv in &self.invariants {
            debug_assert_eq!(
                inv.weighted_sum(&m),
                inv.token_sum,
                "marking {m} of net `{}` violates P-invariant {:?}",
                self.net.name(),
                inv.weights,
            );
        }
        self.markings.push(m);
        self.index.fill(slot, hash, id);
        Ok(id)
    }
}

/// What a marking resolves to.
enum Resolved {
    /// The marking is tangible: it is its own distribution.
    Tangible,
    /// The marking is vanishing; its distribution is memo entry `v`.
    Vanishing(usize),
}

/// Resolves vanishing markings into distributions over tangible markings,
/// memoising results. Its stacks are shared by every level of the
/// recursion; a level pushes above the levels in progress and truncates
/// back to its start when done.
struct Resolver<'a> {
    arcs: &'a Arcs<'a>,
    opts: &'a ReachOptions,
    /// `rows[0]` is the marking to resolve; `rows[d + 1]` holds the
    /// successor resolved under `rows[d]`. `rows[..d]` are the markings
    /// level `d` is resolving on behalf of, which is how immediate cycles
    /// are detected.
    rows: Vec<Marking>,
    /// `(transition, priority, weight)` of the enabled immediates at every
    /// level.
    imms: Vec<(usize, u32, f64)>,
    /// Weighted tangible markings gathered at every level.
    acc_rows: FlatRows,
    acc_probs: Vec<f64>,
    /// Scratch permutation for sorting one level's gathered markings.
    order: Vec<usize>,
    /// Memo keys: every vanishing marking resolved so far.
    keys: FlatRows,
    index: RowIndex,
    /// Memo entry `v`'s distribution is entries
    /// `dist_start[v]..dist_start[v + 1]`, sorted by marking.
    dist_start: Vec<usize>,
    dist_rows: FlatRows,
    dist_probs: Vec<f64>,
}

impl<'a> Resolver<'a> {
    fn new(arcs: &'a Arcs<'a>, opts: &'a ReachOptions, first: Marking) -> Self {
        let width = first.len();
        Resolver {
            arcs,
            opts,
            rows: vec![first],
            imms: Vec::new(),
            acc_rows: FlatRows::new(width),
            acc_probs: Vec::new(),
            order: Vec::new(),
            keys: FlatRows::new(width),
            index: RowIndex::new(),
            dist_start: vec![0],
            dist_rows: FlatRows::new(width),
            dist_probs: Vec::new(),
        }
    }

    /// Resolves `rows[0]`.
    fn resolve(&mut self) -> Result<Resolved, PetriError> {
        self.resolve_at(0)
    }

    /// The `(tangible marking, probability)` entries of memo entry `v`.
    fn distribution(&self, v: usize) -> impl Iterator<Item = (&[u32], f64)> + '_ {
        (self.dist_start[v]..self.dist_start[v + 1])
            .map(move |e| (self.dist_rows.row(e), self.dist_probs[e]))
    }

    fn resolve_at(&mut self, d: usize) -> Result<Resolved, PetriError> {
        let start = self.imms.len();
        if !self.push_enabled_immediates(d) {
            return Ok(Resolved::Tangible);
        }
        if self.imms.len() == start {
            // Immediates are enabled but none has a positive weight: the
            // marking is vanishing with no way out.
            return Err(PetriError::DeadVanishingMarking);
        }
        let hash = hash_row(self.rows[d].as_slice());
        if let Ok(v) = self.index.probe(hash, self.rows[d].as_slice(), &self.keys) {
            self.imms.truncate(start);
            return Ok(Resolved::Vanishing(v as usize));
        }
        if self.rows[..d].contains(&self.rows[d]) {
            return Err(PetriError::ImmediateCycle);
        }
        let total: f64 = self.imms[start..].iter().map(|&(_, _, w)| w).sum();
        let acc_start = self.acc_probs.len();
        if self.rows.len() == d + 1 {
            self.rows.push(self.rows[d].clone());
        }
        for k in start..self.imms.len() {
            let (t, _, w) = self.imms[k];
            let (done, next) = self.rows.split_at_mut(d + 1);
            self.arcs.fire(t, &done[d], &mut next[0]);
            check_bound(self.arcs.net, next[0].as_slice(), self.opts)?;
            let share = w / total;
            match self.resolve_at(d + 1)? {
                Resolved::Tangible => {
                    self.acc_rows.push(self.rows[d + 1].as_slice());
                    self.acc_probs.push(share);
                }
                Resolved::Vanishing(v) => {
                    for e in self.dist_start[v]..self.dist_start[v + 1] {
                        self.acc_rows.push(self.dist_rows.row(e));
                        self.acc_probs.push(share * self.dist_probs[e]);
                    }
                }
            }
        }

        // Merge equal markings, sorted by marking; each sum adds its terms
        // in the order they were gathered.
        self.order.clear();
        self.order.extend(acc_start..self.acc_probs.len());
        let acc_rows = &self.acc_rows;
        self.order
            .sort_unstable_by(|&a, &b| acc_rows.row(a).cmp(acc_rows.row(b)).then(a.cmp(&b)));
        let mut i = 0;
        while i < self.order.len() {
            let first = self.acc_rows.row(self.order[i]);
            let mut sum = 0.0;
            while i < self.order.len() && self.acc_rows.row(self.order[i]) == first {
                sum += self.acc_probs[self.order[i]];
                i += 1;
            }
            self.dist_rows.push(first);
            self.dist_probs.push(sum);
        }
        self.dist_start.push(self.dist_probs.len());

        // The recursion may have grown the index; find the slot again.
        let v = self.keys.len;
        let slot = self
            .index
            .probe(hash, self.rows[d].as_slice(), &self.keys)
            .expect_err("a marking under resolution is not memoised");
        self.keys.push(self.rows[d].as_slice());
        self.index
            .fill(slot, hash, u32::try_from(v).expect("memo ids fit in u32"));
        self.acc_rows.truncate(acc_start);
        self.acc_probs.truncate(acc_start);
        self.imms.truncate(start);
        Ok(Resolved::Vanishing(v))
    }

    /// Pushes the enabled immediates of `rows[d]` at the highest enabled
    /// priority that have a positive weight, in transition order; returns
    /// whether any immediate is enabled at all.
    fn push_enabled_immediates(&mut self, d: usize) -> bool {
        let m = &self.rows[d];
        let start = self.imms.len();
        let mut any = false;
        let mut best: Option<u32> = None;
        for &(t, priority, weight) in &self.arcs.immediates {
            if self.arcs.is_enabled(t, m) {
                any = true;
                let w = weight.eval(m);
                if w > 0.0 {
                    self.imms.push((t, priority, w));
                    best = Some(best.map_or(priority, |b| b.max(priority)));
                }
            }
        }
        if let Some(best) = best {
            let mut kept = start;
            for i in start..self.imms.len() {
                if self.imms[i].1 == best {
                    self.imms[kept] = self.imms[i];
                    kept += 1;
                }
            }
            self.imms.truncate(kept);
        }
        any
    }
}

/// The explorer this module replaced, kept as the reference that the
/// allocation-free one must match bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use super::ReachOptions;
    use crate::enabling::{effective_rate, enabled_immediates, enabled_timed, fire, is_enabled};
    use crate::error::PetriError;
    use crate::marking::Marking;
    use crate::model::{Net, Timing};
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    /// A reachability graph with one edge list per state.
    #[derive(Debug)]
    pub(crate) struct Graph {
        pub(crate) markings: Vec<Marking>,
        pub(crate) edges: Vec<Vec<(usize, f64)>>,
        pub(crate) initial: Vec<(usize, f64)>,
    }

    pub(crate) fn explore(net: &Net, opts: &ReachOptions) -> Result<Graph, PetriError> {
        let mut resolver = VanishingResolver::new(net, opts);

        let initial_dist = resolver.resolve(net.initial_marking())?;

        let mut index: BTreeMap<Marking, usize> = BTreeMap::new();
        let mut markings: Vec<Marking> = Vec::new();
        let mut queue: VecDeque<usize> = VecDeque::new();

        let intern = |m: Marking,
                      markings: &mut Vec<Marking>,
                      index: &mut BTreeMap<Marking, usize>,
                      queue: &mut VecDeque<usize>|
         -> Result<usize, PetriError> {
            if let Some(&s) = index.get(&m) {
                return Ok(s);
            }
            if markings.len() >= opts.max_states {
                return Err(PetriError::StateSpaceTooLarge {
                    limit: opts.max_states,
                });
            }
            let s = markings.len();
            index.insert(m.clone(), s);
            markings.push(m);
            queue.push_back(s);
            Ok(s)
        };

        let mut initial = Vec::new();
        for (m, p) in initial_dist {
            let s = intern(m, &mut markings, &mut index, &mut queue)?;
            initial.push((s, p));
        }

        let mut edges: Vec<Vec<(usize, f64)>> = Vec::new();

        while let Some(s) = queue.pop_front() {
            debug_assert_eq!(edges.len(), s);
            let marking = markings[s].clone();
            let mut out: BTreeMap<usize, f64> = BTreeMap::new();
            for t in enabled_timed(net, &marking) {
                let rate = match &net.transitions[t].timing {
                    Timing::Exponential { .. } => {
                        let r = effective_rate(net, t, &marking).expect("exponential");
                        if !r.is_finite() || r <= 0.0 {
                            return Err(PetriError::InvalidParameter {
                                what: format!(
                                    "rate {r} of transition `{}` in marking {marking}",
                                    net.transitions[t].name
                                ),
                            });
                        }
                        r
                    }
                    Timing::Deterministic { .. } => {
                        return Err(PetriError::InvalidParameter {
                            what: format!(
                                "deterministic transition `{}` enabled during CTMC reachability; \
                                 apply erlang_expand first",
                                net.transitions[t].name
                            ),
                        });
                    }
                    Timing::Immediate { .. } => unreachable!("enabled_timed filters immediates"),
                };
                let succ = fire(net, t, &marking);
                check_bound(net, &succ, opts)?;
                for (tm, p) in resolver.resolve(succ)? {
                    let target = intern(tm, &mut markings, &mut index, &mut queue)?;
                    *out.entry(target).or_insert(0.0) += rate * p;
                }
            }
            // BTreeMap iteration is already ordered by target state id.
            edges.push(out.into_iter().collect());
        }

        if markings.is_empty() {
            return Err(PetriError::NoTangibleMarking);
        }

        Ok(Graph {
            markings,
            edges,
            initial,
        })
    }

    fn check_bound(net: &Net, m: &Marking, opts: &ReachOptions) -> Result<(), PetriError> {
        for (p, t) in m.iter() {
            if t > opts.token_bound {
                return Err(PetriError::TokenBoundExceeded {
                    place: net.place_name(crate::model::PlaceId(p)).to_string(),
                    bound: opts.token_bound,
                });
            }
        }
        Ok(())
    }

    /// Resolves vanishing markings into distributions over tangible markings,
    /// memoising results.
    struct VanishingResolver<'a> {
        net: &'a Net,
        opts: &'a ReachOptions,
        memo: BTreeMap<Marking, Vec<(Marking, f64)>>,
    }

    impl<'a> VanishingResolver<'a> {
        fn new(net: &'a Net, opts: &'a ReachOptions) -> Self {
            VanishingResolver {
                net,
                opts,
                memo: BTreeMap::new(),
            }
        }

        fn resolve(&mut self, m: Marking) -> Result<Vec<(Marking, f64)>, PetriError> {
            let mut on_stack = BTreeSet::new();
            self.resolve_inner(m, &mut on_stack)
        }

        fn resolve_inner(
            &mut self,
            m: Marking,
            on_stack: &mut BTreeSet<Marking>,
        ) -> Result<Vec<(Marking, f64)>, PetriError> {
            let imms = enabled_immediates(self.net, &m);
            if imms.is_empty() {
                // A marking that enables an immediate transition whose weight is
                // zero everywhere would be stuck; treat markings with a
                // structurally-enabled immediate but zero total weight as dead.
                if has_structurally_enabled_immediate(self.net, &m) {
                    return Err(PetriError::DeadVanishingMarking);
                }
                return Ok(vec![(m, 1.0)]);
            }
            if let Some(cached) = self.memo.get(&m) {
                return Ok(cached.clone());
            }
            if !on_stack.insert(m.clone()) {
                return Err(PetriError::ImmediateCycle);
            }
            let total: f64 = imms.iter().map(|&(_, w)| w).sum();
            let mut acc: BTreeMap<Marking, f64> = BTreeMap::new();
            for (t, w) in imms {
                let succ = fire(self.net, t, &m);
                check_bound(self.net, &succ, self.opts)?;
                for (tm, p) in self.resolve_inner(succ, on_stack)? {
                    *acc.entry(tm).or_insert(0.0) += (w / total) * p;
                }
            }
            on_stack.remove(&m);
            // BTreeMap iteration is already ordered by marking.
            let result: Vec<(Marking, f64)> = acc.into_iter().collect();
            self.memo.insert(m, result.clone());
            Ok(result)
        }
    }

    fn has_structurally_enabled_immediate(net: &Net, m: &Marking) -> bool {
        net.transitions
            .iter()
            .enumerate()
            .any(|(i, tr)| tr.timing.is_immediate() && is_enabled(net, i, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::{solve_gauss_seidel, SparseGenerator};
    use crate::model::{NetBuilder, RateSpec, ServerSemantics};
    use std::sync::Arc;

    /// Birth-death chain: p holds 0..=2 tokens.
    fn birth_death() -> Net {
        let mut b = NetBuilder::new("bd");
        let pool = b.place("pool", 2);
        let active = b.place("active", 0);
        let birth = b.exponential("birth", 1.0);
        let death = b.exponential_with("death", 2.0, ServerSemantics::Infinite);
        b.input_arc(pool, birth, 1).unwrap();
        b.output_arc(birth, active, 1).unwrap();
        b.input_arc(active, death, 1).unwrap();
        b.output_arc(death, pool, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn explores_all_three_states() {
        let g = explore(&birth_death(), &ReachOptions::default()).unwrap();
        assert_eq!(g.state_count(), 3);
        // initial state is (2,0) with probability 1
        assert_eq!(g.initial, vec![(0, 1.0)]);
        // state 0 = (2,0): only birth enabled at rate 1
        assert_eq!(g.edges.row(0).count(), 1);
        assert!((g.exit_rate(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn infinite_server_scales_rate() {
        let g = explore(&birth_death(), &ReachOptions::default()).unwrap();
        // find the marking (0,2): death rate should be 2 * 2.0 = 4.0
        let idx = g
            .markings
            .iter()
            .position(|m| m.as_slice() == [0, 2])
            .expect("state (0,2) reachable");
        assert!((g.exit_rate(idx) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn vanishing_markings_are_eliminated() {
        // p0 --exp--> p1 --imm(w 1)--> p2a | --imm(w 3)--> p2b ; both return via exp
        let mut b = NetBuilder::new("v");
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 0);
        let p2a = b.place("p2a", 0);
        let p2b = b.place("p2b", 0);
        let go = b.exponential("go", 1.0);
        let ia = b.immediate_with("ia", 1, 1.0);
        let ib = b.immediate_with("ib", 1, 3.0);
        let ra = b.exponential("ra", 1.0);
        let rb = b.exponential("rb", 1.0);
        b.input_arc(p0, go, 1).unwrap();
        b.output_arc(go, p1, 1).unwrap();
        b.input_arc(p1, ia, 1).unwrap();
        b.output_arc(ia, p2a, 1).unwrap();
        b.input_arc(p1, ib, 1).unwrap();
        b.output_arc(ib, p2b, 1).unwrap();
        b.input_arc(p2a, ra, 1).unwrap();
        b.output_arc(ra, p0, 1).unwrap();
        b.input_arc(p2b, rb, 1).unwrap();
        b.output_arc(rb, p0, 1).unwrap();
        let net = b.build().unwrap();

        let g = explore(&net, &ReachOptions::default()).unwrap();
        // Tangible states: p0, p2a, p2b — the p1 marking vanishes.
        assert_eq!(g.state_count(), 3);
        for m in &g.markings {
            assert_eq!(m.get(1), 0, "vanishing marking {m} must not appear");
        }
        // From p0, edges split 1:3 between p2a and p2b.
        assert_eq!(g.edges.row(0).count(), 2);
        assert!((g.exit_rate(0) - 1.0).abs() < 1e-12);
        let rates: Vec<f64> = g.edges.row(0).map(|(_, r)| r).collect();
        let (lo, hi) = (rates[0].min(rates[1]), rates[0].max(rates[1]));
        assert!((lo - 0.25).abs() < 1e-12 && (hi - 0.75).abs() < 1e-12);
    }

    #[test]
    fn immediate_cycle_detected() {
        let mut b = NetBuilder::new("cycle");
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 0);
        let a = b.immediate("a");
        let z = b.immediate("z");
        b.input_arc(p0, a, 1).unwrap();
        b.output_arc(a, p1, 1).unwrap();
        b.input_arc(p1, z, 1).unwrap();
        b.output_arc(z, p0, 1).unwrap();
        let net = b.build().unwrap();
        assert!(matches!(
            explore(&net, &ReachOptions::default()),
            Err(PetriError::ImmediateCycle)
        ));
    }

    #[test]
    fn deterministic_transition_rejected() {
        let mut b = NetBuilder::new("det");
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 0);
        let t = b.deterministic("tick", 5.0);
        b.input_arc(p0, t, 1).unwrap();
        b.output_arc(t, p1, 1).unwrap();
        let net = b.build().unwrap();
        assert!(matches!(
            explore(&net, &ReachOptions::default()),
            Err(PetriError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn state_budget_enforced() {
        // Unbounded-ish net capped by max_states.
        let mut b = NetBuilder::new("grow");
        let src = b.place("src", 1);
        let sink = b.place("sink", 0);
        let t = b.exponential("t", 1.0);
        b.input_arc(src, t, 1).unwrap();
        b.output_arc(t, src, 1).unwrap();
        b.output_arc(t, sink, 1).unwrap();
        let net = b.build().unwrap();
        let opts = ReachOptions {
            max_states: 10,
            token_bound: 1_000_000,
        };
        assert!(matches!(
            explore(&net, &opts),
            Err(PetriError::StateSpaceTooLarge { limit: 10 })
        ));
    }

    #[test]
    fn token_bound_enforced() {
        let mut b = NetBuilder::new("grow");
        let src = b.place("src", 1);
        let sink = b.place("sink", 0);
        let t = b.exponential("t", 1.0);
        b.input_arc(src, t, 1).unwrap();
        b.output_arc(t, src, 1).unwrap();
        b.output_arc(t, sink, 1).unwrap();
        let net = b.build().unwrap();
        let opts = ReachOptions {
            max_states: 1_000_000,
            token_bound: 5,
        };
        assert!(matches!(
            explore(&net, &opts),
            Err(PetriError::TokenBoundExceeded { .. })
        ));
    }

    #[test]
    fn vanishing_initial_marking_is_resolved() {
        let mut b = NetBuilder::new("vi");
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 0);
        let i = b.immediate("i");
        let back = b.exponential("back", 1.0);
        b.input_arc(p0, i, 1).unwrap();
        b.output_arc(i, p1, 1).unwrap();
        b.input_arc(p1, back, 1).unwrap();
        b.output_arc(back, p0, 1).unwrap();
        let net = b.build().unwrap();
        let g = explore(&net, &ReachOptions::default()).unwrap();
        // (1,0) is vanishing; the only tangible states are (0,1) and — after
        // `back` fires — (1,0) resolves straight back to (0,1).
        assert_eq!(g.state_count(), 1);
        assert_eq!(g.markings[0].as_slice(), &[0, 1]);
        assert_eq!(g.initial, vec![(0, 1.0)]);
    }

    /// Explores `net` with both explorers and asserts the same result: the
    /// same markings, edges and initial distribution bit for bit, or the
    /// same error variant. Returns the graph, if any.
    fn assert_matches_oracle(net: &Net, opts: &ReachOptions) -> Option<ReachabilityGraph> {
        let new = explore(net, opts);
        let old = oracle::explore(net, opts);
        match (new, old) {
            (Ok(g), Ok(o)) => {
                assert_eq!(g.markings, o.markings, "{}", net.name());
                assert_eq!(g.edges.rows(), o.edges.len());
                for (s, row) in o.edges.iter().enumerate() {
                    let got: Vec<(usize, u64)> =
                        g.edges.row(s).map(|(t, r)| (t, r.to_bits())).collect();
                    let want: Vec<(usize, u64)> =
                        row.iter().map(|&(t, r)| (t, r.to_bits())).collect();
                    assert_eq!(got, want, "{}: edges of state {s}", net.name());
                }
                let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
                    v.iter().map(|&(s, p)| (s, p.to_bits())).collect()
                };
                assert_eq!(bits(&g.initial), bits(&o.initial), "{}", net.name());
                Some(g)
            }
            (Err(e), Err(o)) => {
                assert_eq!(
                    std::mem::discriminant(&e),
                    std::mem::discriminant(&o),
                    "{}: {e} vs {o}",
                    net.name()
                );
                None
            }
            (new, old) => panic!("{}: {new:?} vs {old:?}", net.name()),
        }
    }

    /// The paper's Fig. 2 (reactive) or Fig. 3 (proactive, Erlang-16) net
    /// with Table IV rates, rebuilt here because the builders live in a
    /// crate that depends on this one.
    fn mvml(n: u32, proactive: bool) -> Net {
        let mut b = NetBuilder::new(format!("mvml-{n}v-{proactive}"));
        let pmh = b.place("Pmh", n);
        let pmc = b.place("Pmc", 0);
        let pmf = b.place("Pmf", 0);
        let tc = b.exponential("Tc", 1.0 / 1523.0);
        let tf = b.exponential("Tf", 1.0 / 1523.0);
        let tr = b.exponential("Tr", 2.0);
        b.input_arc(pmh, tc, 1).unwrap();
        b.output_arc(tc, pmc, 1).unwrap();
        b.input_arc(pmc, tf, 1).unwrap();
        b.output_arc(tf, pmf, 1).unwrap();
        b.input_arc(pmf, tr, 1).unwrap();
        b.output_arc(tr, pmh, 1).unwrap();
        if !proactive {
            return b.build().unwrap();
        }
        let prc = b.place("Prc", 1);
        let ptr = b.place("Ptr", 0);
        let pac = b.place("Pac", 0);
        let pmr = b.place("Pmr", 0);
        let trc = b.deterministic("Trc", 300.0);
        b.input_arc(prc, trc, 1).unwrap();
        b.output_arc(trc, ptr, 1).unwrap();
        let (pac_i, pmr_i) = (pac.index(), pmr.index());
        let tac = b.immediate("Tac");
        b.input_arc(ptr, tac, 1).unwrap();
        b.output_arc(tac, pac, 1).unwrap();
        b.output_arc(tac, prc, 1).unwrap();
        b.guard(tac, move |m| m.get(pac_i) + m.get(pmr_i) == 0)
            .unwrap();
        let tdrop = b.immediate("Tdrop");
        b.input_arc(ptr, tdrop, 1).unwrap();
        b.output_arc(tdrop, prc, 1).unwrap();
        b.guard(tdrop, move |m| m.get(pac_i) + m.get(pmr_i) > 0)
            .unwrap();
        let (pmh_i, pmc_i) = (pmh.index(), pmc.index());
        let share = move |m: &Marking, own: usize| {
            let (c, h) = (m.get(pmc_i), m.get(pmh_i));
            if m.get(own) == 0 {
                0.000_01
            } else {
                f64::from(m.get(own)) / f64::from(c + h)
            }
        };
        let w1 = WeightSpec::Fn(Arc::new(move |m: &Marking| share(m, pmc_i)));
        let w2 = WeightSpec::Fn(Arc::new(move |m: &Marking| share(m, pmh_i)));
        for (name, w, victim) in [("Trj1", w1, pmc), ("Trj2", w2, pmh)] {
            let t = b.immediate_with(name, 1, w);
            b.input_arc(pac, t, 1).unwrap();
            b.input_arc(victim, t, 1).unwrap();
            b.output_arc(t, pmr, 1).unwrap();
            b.inhibitor_arc(pmf, t, 1).unwrap();
        }
        let trj = b.exponential("Trj", 2.0);
        b.input_arc(pmr, trj, 1).unwrap();
        b.output_arc(trj, pmh, 1).unwrap();
        crate::erlang::erlang_expand(&b.build().unwrap(), 16).unwrap()
    }

    /// Gauss–Seidel over the CSR transpose against the replaced solver, bit
    /// for bit, on every chain large enough to be iterated.
    fn assert_gauss_seidel_matches_oracle(g: &ReachabilityGraph) {
        let rows: Vec<Vec<(usize, f64)>> = (0..g.state_count())
            .map(|s| g.edges.row(s).collect())
            .collect();
        let new = solve_gauss_seidel(&SparseGenerator::from_outgoing(&g.edges), 1e-13, 200_000);
        let old = crate::linalg::oracle::solve_gauss_seidel(&rows, 1e-13, 200_000);
        let bits = |v: Vec<f64>| -> Vec<u64> { v.into_iter().map(f64::to_bits).collect() };
        assert_eq!(new.map(bits), old.map(bits));
    }

    #[test]
    fn paper_nets_match_the_oracle_bit_for_bit() {
        for n in 1..=8 {
            for proactive in [false, true] {
                let g = assert_matches_oracle(&mvml(n, proactive), &ReachOptions::default())
                    .expect("paper nets explore");
                if proactive && n >= 4 {
                    assert_gauss_seidel_matches_oracle(&g);
                }
            }
        }
    }

    #[test]
    fn small_nets_match_the_oracle_bit_for_bit() {
        let opts = ReachOptions::default();
        let g = assert_matches_oracle(&birth_death(), &opts).unwrap();
        assert_gauss_seidel_matches_oracle(&g);

        // k-server semantics and a marking-dependent rate.
        let mut b = NetBuilder::new("kserver");
        let queue = b.place("queue", 5);
        let busy = b.place("busy", 0);
        let serve = b.exponential_with("serve", 0.7, ServerSemantics::KServer(2));
        let arrive = b.exponential(
            "arrive",
            RateSpec::Fn(Arc::new(move |m: &Marking| 0.3 + f64::from(m.get(0)) / 7.0)),
        );
        b.input_arc(queue, serve, 1).unwrap();
        b.output_arc(serve, busy, 1).unwrap();
        b.input_arc(busy, arrive, 1).unwrap();
        b.output_arc(arrive, queue, 1).unwrap();
        let g = assert_matches_oracle(&b.build().unwrap(), &opts).unwrap();
        assert_gauss_seidel_matches_oracle(&g);

        // Guards, inhibitors, priorities and marking-dependent weights; one
        // timed firing resolves through two levels of vanishing markings
        // into three tangible targets, one of them reached twice, with
        // weights whose sums round differently in every order.
        let mut b = NetBuilder::new("choices");
        let src = b.place("src", 2);
        let mid = b.place("mid", 0);
        let left = b.place("left", 0);
        let right = b.place("right", 0);
        let deep = b.place("deep", 0);
        let go = b.exponential_with("go", 1.1, ServerSemantics::Infinite);
        b.input_arc(src, go, 1).unwrap();
        b.output_arc(go, mid, 1).unwrap();
        let weights = [0.1, 0.7, 0.2, 1e-3];
        let targets = [left, right, deep, deep];
        for (i, (&w, &to)) in weights.iter().zip(&targets).enumerate() {
            let t = b.immediate_with(format!("pick{i}"), 2, w);
            b.input_arc(mid, t, 1).unwrap();
            b.output_arc(t, to, 1).unwrap();
        }
        let low = b.immediate_with("low", 1, 5.0);
        b.input_arc(mid, low, 1).unwrap();
        b.output_arc(low, src, 1).unwrap();
        let spill = b.immediate_with(
            "spill",
            1,
            WeightSpec::Fn(Arc::new(|m: &Marking| 0.3 + f64::from(m.get(2)))),
        );
        b.input_arc(deep, spill, 1).unwrap();
        b.output_arc(spill, left, 1).unwrap();
        b.inhibitor_arc(right, spill, 2).unwrap();
        let keep = b.immediate_with("keep", 1, 0.9);
        b.input_arc(deep, keep, 1).unwrap();
        b.output_arc(keep, right, 1).unwrap();
        b.guard(keep, |m| m.get(0) < 2).unwrap();
        for (name, from, rate) in [("l", left, 0.5), ("r", right, 0.25)] {
            let t = b.exponential(name, rate);
            b.input_arc(from, t, 1).unwrap();
            b.output_arc(t, src, 1).unwrap();
        }
        let g = assert_matches_oracle(&b.build().unwrap(), &opts).unwrap();
        assert!(g.state_count() > 3);
        assert_gauss_seidel_matches_oracle(&g);

        let g = assert_matches_oracle(&order_sensitive(), &opts).unwrap();
        assert_gauss_seidel_matches_oracle(&g);
    }

    /// A net whose graph depends on every order the explorer keeps: the
    /// first state's edge to `t` adds 0.1, 0.2 and 0.15 (another order
    /// rounds differently), `v4` resolves to two new markings whose
    /// marking order is the reverse of their firing order, and `q`'s
    /// probability adds 1/7, 2/7 and 3/7 (likewise order-sensitive).
    fn order_sensitive() -> Net {
        let mut b = NetBuilder::new("order-sensitive");
        let [s, v2, v3, v4, t, p, q, x] = ["s", "v2", "v3", "v4", "t", "p", "q", "x"]
            .map(|name| b.place(name, u32::from(name == "s")));
        let arc = |b: &mut NetBuilder, tr, from, to| {
            b.input_arc(from, tr, 1).unwrap();
            b.output_arc(tr, to, 1).unwrap();
        };
        for (name, to, rate) in [
            ("a1", t, 0.1),
            ("a2", v2, 0.2),
            ("a3", v3, 0.3),
            ("a4", v4, 0.7),
        ] {
            let tr = b.exponential(name, rate);
            arc(&mut b, tr, s, to);
        }
        for (name, from, to, w) in [
            ("i2", v2, t, 1.0),
            ("i3t", v3, t, 1.0),
            ("i3x", v3, x, 1.0),
            ("i4p", v4, p, 1.0),
            ("i4q1", v4, q, 1.0),
            ("i4q2", v4, q, 2.0),
            ("i4q3", v4, q, 3.0),
        ] {
            let tr = b.immediate_with(name, 1, w);
            arc(&mut b, tr, from, to);
        }
        for (name, from) in [("rt", t), ("rp", p), ("rq", q), ("rx", x)] {
            let tr = b.exponential(name, 1.0);
            arc(&mut b, tr, from, s);
        }
        b.build().unwrap()
    }

    #[test]
    fn vanishing_initial_marking_matches_the_oracle() {
        let mut b = NetBuilder::new("vi2");
        let p0 = b.place("p0", 1);
        let a = b.place("a", 0);
        let c = b.place("c", 0);
        let ia = b.immediate_with("ia", 1, 2.0);
        let ic = b.immediate_with("ic", 1, 3.0);
        b.input_arc(p0, ia, 1).unwrap();
        b.output_arc(ia, a, 1).unwrap();
        b.input_arc(p0, ic, 1).unwrap();
        b.output_arc(ic, c, 1).unwrap();
        for (name, from, to) in [("ac", a, c), ("ca", c, a)] {
            let t = b.exponential(name, 1.0);
            b.input_arc(from, t, 1).unwrap();
            b.output_arc(t, to, 1).unwrap();
        }
        let g = assert_matches_oracle(&b.build().unwrap(), &ReachOptions::default()).unwrap();
        assert_eq!(g.initial.len(), 2);
    }

    #[test]
    fn every_error_matches_the_oracle() {
        let opts = ReachOptions::default();
        let expect = |net: &Net, opts: &ReachOptions, what: fn(&PetriError) -> bool| {
            assert!(assert_matches_oracle(net, opts).is_none());
            let e = explore(net, opts).unwrap_err();
            assert!(what(&e), "{}: {e}", net.name());
        };

        let mut b = NetBuilder::new("cycle");
        let p0 = b.place("p0", 0);
        let p1 = b.place("p1", 0);
        let src = b.place("src", 1);
        let start = b.exponential("start", 1.0);
        b.input_arc(src, start, 1).unwrap();
        b.output_arc(start, p0, 1).unwrap();
        for (name, from, to) in [("a", p0, p1), ("z", p1, p0)] {
            let t = b.immediate(name);
            b.input_arc(from, t, 1).unwrap();
            b.output_arc(t, to, 1).unwrap();
        }
        expect(&b.build().unwrap(), &opts, |e| {
            matches!(e, PetriError::ImmediateCycle)
        });

        let mut b = NetBuilder::new("dead");
        let src = b.place("src", 1);
        let p = b.place("p", 0);
        let go = b.exponential("go", 1.0);
        b.input_arc(src, go, 1).unwrap();
        b.output_arc(go, p, 1).unwrap();
        let stuck = b.immediate_with("stuck", 1, 0.0);
        b.input_arc(p, stuck, 1).unwrap();
        b.output_arc(stuck, src, 1).unwrap();
        expect(&b.build().unwrap(), &opts, |e| {
            matches!(e, PetriError::DeadVanishingMarking)
        });

        let grow = || {
            let mut b = NetBuilder::new("grow");
            let src = b.place("src", 1);
            let sink = b.place("sink", 0);
            let t = b.exponential("t", 1.0);
            b.input_arc(src, t, 1).unwrap();
            b.output_arc(t, src, 1).unwrap();
            b.output_arc(t, sink, 1).unwrap();
            b.build().unwrap()
        };
        let small = ReachOptions {
            max_states: 10,
            token_bound: 1_000_000,
        };
        expect(&grow(), &small, |e| {
            matches!(e, PetriError::StateSpaceTooLarge { limit: 10 })
        });
        let bounded = ReachOptions {
            max_states: 1_000_000,
            token_bound: 5,
        };
        expect(&grow(), &bounded, |e| {
            matches!(e, PetriError::TokenBoundExceeded { .. })
        });

        let mut b = NetBuilder::new("det");
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 0);
        let t = b.deterministic("tick", 5.0);
        b.input_arc(p0, t, 1).unwrap();
        b.output_arc(t, p1, 1).unwrap();
        expect(
            &b.build().unwrap(),
            &opts,
            |e| matches!(e, PetriError::InvalidParameter { what } if what.contains("deterministic")),
        );

        let mut b = NetBuilder::new("rate");
        let p0 = b.place("p0", 1);
        let p1 = b.place("p1", 0);
        let fwd = b.exponential("fwd", 1.0);
        let back = b.exponential(
            "back",
            RateSpec::Fn(Arc::new(|m: &Marking| -f64::from(m.get(1)))),
        );
        b.input_arc(p0, fwd, 1).unwrap();
        b.output_arc(fwd, p1, 1).unwrap();
        b.input_arc(p1, back, 1).unwrap();
        b.output_arc(back, p0, 1).unwrap();
        expect(
            &b.build().unwrap(),
            &opts,
            |e| matches!(e, PetriError::InvalidParameter { what } if what.contains("rate")),
        );
    }
}
