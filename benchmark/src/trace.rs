//! In-memory span tracing for the traced binary.
//!
//! Spans are opened and closed by the benchmark around its own calls into
//! each layer's public functions; nothing inside the crates under test is
//! instrumented. All spans of one operation (a request, a frame, a sweep)
//! share an op id. When an op ends its spans are folded into per-name
//! totals and self times, and the first few ops of each kind are kept
//! verbatim for `trace.jsonl`.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Named parts may exceed the whole they decompose by at most this share
/// before the profile counts as inconsistent.
pub const PART_TOLERANCE: f64 = 0.05;

/// Ops of each kind kept verbatim for `trace.jsonl`.
const RETAINED_OPS_PER_KIND: usize = 32;

/// An interned span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Name(u32);

/// A span of the op in progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the span within its op.
    pub span: u32,
    /// The span that caused it; `None` for the op's root.
    pub parent: Option<u32>,
    /// What was timed.
    pub name: Name,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span of one op: its duration minus the part of its
/// interval that its children cover. Overlapping children (spans opened
/// on several threads) are counted once, and child time outside the
/// parent's interval is not subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Whether named parts stay within [`PART_TOLERANCE`] of the whole.
pub fn parts_within_whole(whole: f64, parts: &[f64]) -> bool {
    parts.iter().sum::<f64>() <= whole * (1.0 + PART_TOLERANCE)
}

/// Aggregated time under one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

impl Agg {
    fn add(&mut self, other: Agg) {
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

#[derive(Default)]
struct State {
    op: u64,
    spans: Vec<Span>,
    /// (op kind, parent span name, span name) → time.
    aggs: BTreeMap<(Name, Option<Name>, Name), Agg>,
    ops: BTreeMap<Name, u64>,
    retained: Vec<(u64, Span)>,
    retained_ops: BTreeMap<Name, usize>,
}

/// The span recorder. One op is in progress at a time; its spans may be
/// opened from several threads.
pub struct Tracer {
    epoch: Instant,
    names: Mutex<Vec<String>>,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            names: Mutex::new(Vec::new()),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("tracer state poisoned by a panic")
    }

    /// Interns `name`.
    pub fn name(&self, name: &str) -> Name {
        let mut names = self.names.lock().expect("tracer names poisoned");
        if let Some(i) = names.iter().position(|n| n == name) {
            return Name(i as u32);
        }
        names.push(name.to_string());
        Name(names.len() as u32 - 1)
    }

    /// The text of an interned name.
    pub fn text(&self, name: Name) -> String {
        self.names.lock().expect("tracer names poisoned")[name.0 as usize].clone()
    }

    /// Starts a new op whose root span is `kind`.
    pub fn begin(&self, kind: Name) -> SpanId {
        let now = self.now_ns();
        let mut st = self.lock();
        assert!(st.spans.is_empty(), "an op is already in progress");
        st.op += 1;
        st.spans.push(Span {
            span: 0,
            parent: None,
            name: kind,
            start_ns: now,
            end_ns: now,
        });
        SpanId(0)
    }

    /// Opens a span under `parent` in the op in progress.
    pub fn open(&self, name: Name, parent: SpanId) -> SpanId {
        let now = self.now_ns();
        let mut st = self.lock();
        let id = st.spans.len() as u32;
        st.spans.push(Span {
            span: id,
            parent: Some(parent.0),
            name,
            start_ns: now,
            end_ns: now,
        });
        SpanId(id)
    }

    /// Closes a span, returning its duration in nanoseconds.
    pub fn close(&self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let mut st = self.lock();
        let span = &mut st.spans[id.0 as usize];
        span.end_ns = now;
        span.duration()
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&self, parent: SpanId, name: Name, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Closes the root span and folds the op into the aggregates,
    /// returning the op's duration in nanoseconds.
    pub fn end(&self, root: SpanId) -> u64 {
        let whole = self.close(root);
        let mut st = self.lock();
        let spans = std::mem::take(&mut st.spans);
        let kind = spans[0].name;
        let op = st.op;
        for (s, self_ns) in spans.iter().zip(self_times(&spans)) {
            let parent = s.parent.map(|p| spans[p as usize].name);
            st.aggs.entry((kind, parent, s.name)).or_default().add(Agg {
                total_ns: s.duration(),
                self_ns,
            });
        }
        *st.ops.entry(kind).or_default() += 1;
        let kept = st.retained_ops.entry(kind).or_default();
        if *kept < RETAINED_OPS_PER_KIND {
            *kept += 1;
            st.retained.extend(spans.iter().map(|s| (op, *s)));
        }
        whole
    }

    /// Ops of kind `kind` completed so far.
    pub fn ops(&self, kind: Name) -> u64 {
        self.lock().ops.get(&kind).copied().unwrap_or(0)
    }

    /// Time under spans named `name`, over every op kind and parent.
    pub fn agg(&self, name: Name) -> Agg {
        let st = self.lock();
        let mut out = Agg::default();
        for (_, agg) in st.aggs.iter().filter(|((_, _, n), _)| *n == name) {
            out.add(*agg);
        }
        out
    }

    /// Prints one profile per op kind: each span's mean time per op with
    /// its named children and an `unaccounted` row (its self time), so the
    /// rows under every span sum to that span. Returns `false` when some
    /// span's children exceed it by more than [`PART_TOLERANCE`].
    pub fn print_profile(&self, out: &mut impl Write) -> std::io::Result<bool> {
        let st = self.lock();
        let mut ok = true;
        for (&kind, &ops) in &st.ops {
            let Some(root) = st.aggs.get(&(kind, None, kind)) else {
                continue;
            };
            let per_op = |ns: u64| ns as f64 / 1e3 / ops as f64;
            writeln!(
                out,
                "profile {}: {ops} ops, {:.2} us/op",
                self.text(kind),
                per_op(root.total_ns)
            )?;
            ok &= self.print_children(out, &st.aggs, kind, kind, *root, &per_op, 1)?;
        }
        Ok(ok)
    }

    #[allow(clippy::too_many_arguments)]
    fn print_children(
        &self,
        out: &mut impl Write,
        aggs: &BTreeMap<(Name, Option<Name>, Name), Agg>,
        kind: Name,
        parent: Name,
        whole: Agg,
        per_op: &dyn Fn(u64) -> f64,
        depth: usize,
    ) -> std::io::Result<bool> {
        let children: Vec<(Name, Agg)> = aggs
            .iter()
            .filter(|((k, p, _), _)| *k == kind && *p == Some(parent))
            .map(|((_, _, n), a)| (*n, *a))
            .collect();
        if children.is_empty() {
            return Ok(true);
        }
        let indent = "  ".repeat(depth);
        let share = |ns: u64| 100.0 * ns as f64 / whole.total_ns.max(1) as f64;
        let mut ok = parts_within_whole(
            whole.total_ns as f64,
            &children
                .iter()
                .map(|(_, a)| a.total_ns as f64)
                .collect::<Vec<_>>(),
        );
        for (name, agg) in &children {
            writeln!(
                out,
                "{indent}{:<44} {:>10.2} us {:>6.1}%",
                self.text(*name),
                per_op(agg.total_ns),
                share(agg.total_ns)
            )?;
            if depth < 8 {
                ok &= self.print_children(out, aggs, kind, *name, *agg, per_op, depth + 1)?;
            }
        }
        writeln!(
            out,
            "{indent}{:<44} {:>10.2} us {:>6.1}%",
            "unaccounted",
            per_op(whole.self_ns),
            share(whole.self_ns)
        )?;
        if !ok {
            writeln!(
                out,
                "{indent}!! named parts exceed the whole by more than {:.0}%",
                100.0 * PART_TOLERANCE
            )?;
        }
        Ok(ok)
    }

    /// Writes the retained spans, one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let st = self.lock();
        for (op, s) in &st.retained {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\": {op}, \"span\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.span,
                self.text(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Prints a breakdown of `whole` into parts measured in other ops (a
/// replay of the same work), with the remainder as `unaccounted`. Returns
/// whether the parts stay within [`PART_TOLERANCE`] of the whole.
pub fn print_derived(
    out: &mut impl Write,
    title: &str,
    whole_us: f64,
    parts: &[(impl AsRef<str>, f64)],
) -> std::io::Result<bool> {
    writeln!(
        out,
        "profile {title}: {whole_us:.2} us/op (parts from a replay)"
    )?;
    let share = |v: f64| 100.0 * v / whole_us.max(f64::MIN_POSITIVE);
    for (name, us) in parts {
        let name = name.as_ref();
        writeln!(out, "  {name:<44} {us:>10.2} us {:>6.1}%", share(*us))?;
    }
    let sum: f64 = parts.iter().map(|(_, us)| us).sum();
    let rest = whole_us - sum;
    writeln!(
        out,
        "  {:<44} {rest:>10.2} us {:>6.1}%",
        "unaccounted",
        share(rest)
    )?;
    let ok = parts_within_whole(
        whole_us,
        &parts.iter().map(|(_, us)| *us).collect::<Vec<_>>(),
    );
    if !ok {
        writeln!(
            out,
            "  !! named parts exceed the whole by more than {:.0}%",
            100.0 * PART_TOLERANCE
        )?;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            span: id,
            parent,
            name: Name(id),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_parent_minus_child_coverage() {
        // root [0,100) with sequential children [10,30) and [40,70).
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 40, 70),
            span(3, Some(2), 45, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two concurrent children overlap on [20,30); one sticks out past
        // the parent's end, which does not reduce the parent below zero.
        let spans = [
            span(0, None, 0, 40),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 60),
        ];
        assert_eq!(self_times(&spans), vec![10, 20, 40]);
    }

    #[test]
    fn parts_may_exceed_the_whole_by_five_percent_only() {
        assert!(parts_within_whole(100.0, &[60.0, 40.0]));
        assert!(parts_within_whole(100.0, &[60.0, 45.0]));
        assert!(!parts_within_whole(100.0, &[60.0, 45.1]));
        assert!(parts_within_whole(100.0, &[]));
    }

    #[test]
    fn ops_fold_into_per_name_aggregates_and_share_an_op_id() {
        let t = Tracer::new();
        let (op, a, b) = (t.name("op"), t.name("a"), t.name("b"));
        for _ in 0..3 {
            let root = t.begin(op);
            t.time(root, a, || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            let inner = t.open(b, root);
            t.close(inner);
            t.end(root);
        }
        assert_eq!(t.ops(op), 3);
        let (agg_a, agg_root) = (t.agg(a), t.agg(op));
        assert!(agg_a.total_ns >= 3_000_000, "three 1 ms sleeps");
        assert_eq!(
            agg_a.self_ns, agg_a.total_ns,
            "a leaf's self time is its duration"
        );
        assert_eq!(
            agg_root.self_ns + agg_a.total_ns + t.agg(b).total_ns,
            agg_root.total_ns,
            "sequential children plus self time make up the whole"
        );

        let mut jsonl = Vec::new();
        t.write_jsonl(&mut jsonl).expect("write");
        let text = String::from_utf8(jsonl).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 9);
        assert!(lines[..3].iter().all(|l| l.starts_with("{\"op\": 1,")));
        assert!(lines[0].contains("\"parent\": null"));
        assert!(lines[1].contains("\"parent\": 0"));

        let mut profile = Vec::new();
        assert!(t.print_profile(&mut profile).expect("print"));
        let profile = String::from_utf8(profile).expect("utf8");
        assert!(profile.contains("profile op: 3 ops"));
        assert!(profile.contains("unaccounted"));
    }

    #[test]
    fn derived_breakdown_flags_parts_beyond_the_whole() {
        let mut out = Vec::new();
        assert!(print_derived(&mut out, "w", 100.0, &[("x", 70.0), ("y", 20.0)]).expect("io"));
        assert!(!print_derived(&mut out, "w", 100.0, &[("x", 80.0), ("y", 30.0)]).expect("io"));
    }
}
