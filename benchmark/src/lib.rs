//! The repository benchmark: four workloads measured end to end by
//! `mvml-benchmark` and decomposed layer by layer by
//! `mvml-benchmark-traced`. See `benchmark/README.md`.

pub mod alloc;
mod avsim;
mod dspn;
mod nn;
mod serve;
mod stats;
mod trace;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Name, SpanId, Tracer};

/// A set-up is repeated until the repeats have taken this long, and
/// `setup_s` is their median. Set-ups of a second or more (training)
/// run once; a DSPN set-up of 20 to 30 ms, which one host stall can
/// double, runs dozens of times, up to [`MAX_SETUPS`].
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 50;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    /// Fault-free served requests over loopback TCP.
    ServeHealthy,
    /// Served requests with crash and latency faults injected.
    ServeFaulted,
    /// The closed-loop driving simulation with three-version perception.
    AvsimRoute,
    /// Steady-state DSPN solves for n = 1..8, reactive and proactive.
    DspnSweep,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeHealthy,
        Workload::ServeFaulted,
        Workload::AvsimRoute,
        Workload::DspnSweep,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHealthy => "serve-healthy",
            Workload::ServeFaulted => "serve-faulted",
            Workload::AvsimRoute => "avsim-route",
            Workload::DspnSweep => "dspn-sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether per-layer metric `metric` measures a layer this workload
    /// exercises. Metrics of layers a workload never calls report 0.
    pub fn owns(self, metric: &str) -> bool {
        let serve_models = ["alexnet_mini", "resmlp", "lenet_mini"];
        let nn_model = |models: &[&str]| {
            models.iter().any(|m| {
                metric.starts_with(&format!("nn.model.{m}_"))
                    || metric.starts_with(&format!("nn.layer.{m}."))
            })
        };
        // The op timings sit with the per-layer metrics because their
        // run-to-run spread on a shared host exceeds any end-to-end bound;
        // every workload still measures them.
        let timings = ["throughput", "p50_ms", "p99_ms"];
        if metric.starts_with("alloc.") || metric.starts_with("trace.") || timings.contains(&metric)
        {
            return true;
        }
        match self {
            Workload::ServeHealthy | Workload::ServeFaulted => {
                ["serve.", "core.system.", "loadgen."]
                    .iter()
                    .any(|p| metric.starts_with(p))
                    || nn_model(&serve_models)
            }
            Workload::AvsimRoute => {
                ["avsim.", "core.rejuvenation."]
                    .iter()
                    .any(|p| metric.starts_with(p))
                    || nn_model(&["yolomini_s", "yolomini_m", "yolomini_l"])
            }
            Workload::DspnSweep => ["core.dspn.", "petri.", "dspn."]
                .iter()
                .any(|p| metric.starts_with(p)),
        }
    }
}

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct EndToEnd {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// Share of the median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct PerLayer {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
}

/// One workload entry of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadEntry {
    /// Workload name.
    pub name: String,
    /// Why the workload is in the benchmark.
    pub why: String,
}

/// The parts of `BENCHMARK.json` the binaries use.
#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadEntry>,
    /// Metrics reported by `mvml-benchmark`.
    pub end_to_end: Vec<EndToEnd>,
    /// Metrics reported by `mvml-benchmark-traced`.
    pub per_layer: Vec<PerLayer>,
}

impl Spec {
    /// The unit of a metric from either list.
    pub fn unit(&self, metric: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .map(|m| (&m.name, &m.unit))
            .chain(self.per_layer.iter().map(|m| (&m.name, &m.unit)))
            .find(|(n, _)| *n == metric)
            .map(|(_, u)| u.as_str())
    }
}

/// `BENCHMARK.json`, compiled in so the metric lists have one source.
pub fn spec() -> Spec {
    serde_json::from_str(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json matches the Spec schema")
}

/// Command-line arguments of one workload run.
#[derive(Debug, Clone)]
pub(crate) struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the traffic: sample order, arrival times, route seeds.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Directory for traces.
    pub out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = spec().run_seconds as f64;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        out,
    })
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations that failed (errors, refusals, lost requests).
    pub failed: u64,
    /// Named correctness checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Free-form lines printed as comments (sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets a percentile metric, failing the run when too few samples
    /// support it.
    fn set_percentile(&mut self, name: &str, samples: &[f64], percent: u32) {
        match stats::percentile(samples, percent) {
            Some(v) => {
                self.set(name, v);
                self.notes.push(format!(
                    "{name}: nearest-rank p{percent} of {} samples",
                    samples.len()
                ));
            }
            None => self.check(
                &format!("{name}-has-{}-samples-beyond", stats::MIN_BEYOND),
                false,
            ),
        }
    }

    /// Sets `throughput`, the untraced ops completed per second of
    /// `busy_s`, and `p50_ms`, the median of their latencies `ms`.
    fn set_speed(&mut self, ms: &[f64], busy_s: f64) {
        self.set("throughput", ms.len() as f64 / busy_s);
        self.set_percentile("p50_ms", ms, 50);
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// A seeded random stream for one purpose (`tag`) within a run.
pub(crate) fn stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
}

/// Runs `f` inside a span when tracing, or plainly when not.
pub(crate) fn stage<T>(probe: Option<(&Tracer, SpanId)>, name: Name, f: impl FnOnce() -> T) -> T {
    match probe {
        Some((t, parent)) => t.time(parent, name, f),
        None => f(),
    }
}

/// Wall time of `f` in seconds, with its result.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs the set-up `f` at least once and until the runs have taken
/// [`SETUP_BUDGET_S`] or numbered [`MAX_SETUPS`]; returns the last run's
/// result and the median run time in seconds. Earlier results are dropped
/// before the next run.
pub(crate) fn set_up<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut secs = Vec::new();
    loop {
        let (result, s) = timed(&mut f);
        secs.push(s);
        let built = result?;
        if secs.len() >= MAX_SETUPS || secs.iter().sum::<f64>() >= SETUP_BUDGET_S {
            return Ok((built, stats::median(&secs)));
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub(crate) fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Mean nanoseconds per op of the spans named `name`, in microseconds.
pub(crate) fn per_op_us(t: &Tracer, name: Name, ops: u64) -> f64 {
    t.agg(name).total_ns as f64 / 1e3 / ops.max(1) as f64
}

/// Builds the result line; `Err` names a metric the run failed to produce
/// or produced without declaring it in `BENCHMARK.json`.
fn result_line(
    spec: &Spec,
    outcome: &Outcome,
    workload: Workload,
    traced: bool,
) -> Result<String, String> {
    let defs: Vec<(&str, &str)> = if traced {
        spec.per_layer
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect()
    } else {
        spec.end_to_end
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect()
    };
    for name in outcome.metrics.keys() {
        if spec.unit(name).is_none() {
            return Err(format!("metric {name} is not declared in BENCHMARK.json"));
        }
    }
    let mut fields = Vec::with_capacity(defs.len());
    for (name, unit) in defs {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if traced && !workload.owns(name) => 0.0,
            None => return Err(format!("{} produced no value for {name}", workload.name())),
        };
        if !value.is_finite() {
            return Err(format!("{name} = {value} is not a finite number"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

fn run_workload(args: &Args, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    match (args.workload, tracer) {
        (Workload::ServeHealthy, None) => serve::run(args, false),
        (Workload::ServeFaulted, None) => serve::run(args, true),
        (Workload::ServeHealthy, Some(t)) => serve::run_traced(args, false, t),
        (Workload::ServeFaulted, Some(t)) => serve::run_traced(args, true, t),
        (Workload::AvsimRoute, t) => avsim::run(args, t),
        (Workload::DspnSweep, t) => dspn::run(args, t),
    }
}

fn write_trace(args: &Args, tracer: &Tracer) -> std::io::Result<PathBuf> {
    let dir = args.out.join(args.workload.name());
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("trace.jsonl");
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_jsonl(&mut file)?;
    file.flush()?;
    Ok(path)
}

/// Entry point shared by both binaries.
pub fn main_with(traced: bool) -> ExitCode {
    mvml_serve::install_quiet_panic_hook();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <name> [--seed N] [--seconds S] [--out DIR]");
            return ExitCode::from(2);
        }
    };
    let spec = spec();
    let tracer = traced.then(Tracer::new);
    let mut outcome = match run_workload(&args, tracer.as_ref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let name = args.workload.name();
    if let Some(t) = &tracer {
        let mut stdout = std::io::stdout();
        let ok = t.print_profile(&mut stdout).unwrap_or(false);
        outcome.check("profile-parts-within-whole", ok);
        match write_trace(&args, t) {
            Ok(path) => println!("# spans written to {}", path.display()),
            Err(e) => outcome.check(&format!("write-trace ({e})"), false),
        }
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (check, ok) in &outcome.checks {
        println!("check {name} {check} {}", if *ok { "ok" } else { "FAILED" });
    }
    for (metric, value) in &outcome.metrics {
        let unit = spec.unit(metric).unwrap_or("?");
        println!("metric {name} {metric} {value} {unit}");
    }
    match result_line(&spec, &outcome, args.workload, traced) {
        Ok(line) => {
            println!("{line}");
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads the `metric <workload> <name> <value> <unit>` lines of one run.
fn read_metric_lines(path: &Path) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["metric", w, m, v, _] => Some((w.to_string(), m.to_string(), v.parse().ok()?)),
                _ => None,
            }
        })
        .collect())
}

/// One end-to-end metric of one workload whose sets disagree.
#[derive(Debug, Clone, PartialEq)]
struct Disagreement {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Spread between the sets: `(max - min) / min`.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
}

/// The end-to-end metric that set comparison shows but does not gate. A
/// run times its set-up once (or for about a second), so the value is one
/// sample of the host's speed at that moment, and on a shared host that
/// alone differs between two runs by more than the largest bound allowed.
/// Set-up time is compared by medians over many runs instead.
const NOT_GATED: &str = "setup_s";

/// Compares the end-to-end metrics of interleaved sets of runs. Each set
/// maps `(workload, metric)` to a value; a metric whose values differ
/// between sets by more than its bound (relative to the smaller value) is
/// reported, except [`NOT_GATED`]. A metric missing from some set counts
/// as a disagreement.
fn compare_sets(
    spec: &Spec,
    sets: &[BTreeMap<(String, String), f64>],
) -> (Vec<Disagreement>, Vec<String>) {
    let mut bad = Vec::new();
    let mut table = Vec::new();
    let workloads: std::collections::BTreeSet<&String> =
        sets.iter().flat_map(|s| s.keys().map(|(w, _)| w)).collect();
    for w in workloads {
        for m in &spec.end_to_end {
            let key = (w.clone(), m.name.clone());
            let values: Vec<Option<f64>> = sets.iter().map(|s| s.get(&key).copied()).collect();
            let present: Vec<f64> = values.iter().flatten().copied().collect();
            let spread = if present.len() == sets.len() {
                let lo = present.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = present.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (hi - lo) / lo.abs().max(f64::MIN_POSITIVE)
            } else {
                f64::INFINITY
            };
            let shown: Vec<String> = values
                .iter()
                .map(|v| v.map_or("-".to_string(), |v| format!("{v:.4}")))
                .collect();
            let gated = m.name != NOT_GATED || present.len() < sets.len();
            let verdict = match (spread <= m.bound, gated) {
                (true, _) => "ok",
                (false, true) => "EXCEEDS",
                (false, false) => "exceeds, not gated",
            };
            table.push(format!(
                "{w:<14} {:<10} {:<40} spread {:>7.2}% bound {:>5.1}% {verdict}",
                m.name,
                shown.join(" / "),
                100.0 * spread,
                100.0 * m.bound
            ));
            if spread > m.bound && gated {
                bad.push(Disagreement {
                    workload: w.clone(),
                    metric: m.name.clone(),
                    spread,
                    bound: m.bound,
                });
            }
        }
    }
    (bad, table)
}

fn compare_main(dirs: &[String]) -> ExitCode {
    if dirs.len() < 2 {
        eprintln!("usage: compare <set-dir> <set-dir> [...]");
        return ExitCode::from(2);
    }
    let spec = spec();
    let mut sets = Vec::new();
    for dir in dirs {
        let mut set = BTreeMap::new();
        for w in Workload::ALL {
            let path = Path::new(dir).join(format!("{}.txt", w.name()));
            if !path.exists() {
                continue;
            }
            match read_metric_lines(&path) {
                Ok(lines) => {
                    for (wl, m, v) in lines {
                        set.insert((wl, m), v);
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(set);
    }
    let (bad, table) = compare_sets(&spec, &sets);
    for row in table {
        println!("{row}");
    }
    if bad.is_empty() {
        println!("sets agree within every end-to-end bound");
        ExitCode::SUCCESS
    } else {
        println!(
            "{} metric(s) differ between sets by more than their bound",
            bad.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_declares_every_workload_once() {
        let spec = spec();
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, expected);
        assert!(spec.workloads.iter().all(|w| !w.why.is_empty()));
    }

    #[test]
    fn every_per_layer_metric_belongs_to_a_workload() {
        for m in &spec().per_layer {
            assert!(
                Workload::ALL.iter().any(|w| w.owns(&m.name)),
                "{} is measured by no workload",
                m.name
            );
        }
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let spec = spec();
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        assert!(spec.end_to_end.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn set_up_repeats_short_set_ups_and_stops_on_an_error() {
        let mut runs = 0;
        let (last, secs) = set_up(|| {
            runs += 1;
            Ok(runs)
        })
        .expect("instant set-ups succeed");
        assert_eq!((runs, last), (MAX_SETUPS, MAX_SETUPS));
        assert!(secs < SETUP_BUDGET_S);

        let mut runs = 0;
        let failed = set_up(|| {
            runs += 1;
            if runs == 3 {
                Err("third set-up failed".to_string())
            } else {
                Ok(())
            }
        });
        assert_eq!(failed, Err("third set-up failed".to_string()));
    }

    fn set(values: &[(&str, &str, f64)]) -> BTreeMap<(String, String), f64> {
        values
            .iter()
            .map(|(w, m, v)| ((w.to_string(), m.to_string()), *v))
            .collect()
    }

    #[test]
    fn sets_within_bounds_agree_and_beyond_them_do_not() {
        let spec = spec();
        let bound = |name: &str| {
            spec.end_to_end
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.bound)
                .expect("declared")
        };
        let all = |scale: f64| -> Vec<(&str, &str, f64)> {
            spec.end_to_end
                .iter()
                .map(|m| ("dspn-sweep", m.name.as_str(), 10.0 * scale))
                .collect()
        };
        let a = set(&all(1.0));
        let tightest = spec
            .end_to_end
            .iter()
            .map(|m| m.bound)
            .fold(f64::INFINITY, f64::min);
        let within = set(&all(1.0 + 0.5 * tightest));
        let (bad, table) = compare_sets(&spec, &[a.clone(), within]);
        assert!(bad.is_empty(), "{table:?}");
        assert_eq!(table.len(), spec.end_to_end.len());

        let key = |m: &str| ("dspn-sweep".to_string(), m.to_string());
        let mut beyond = a.clone();
        beyond.insert(key("rss_mb"), 10.0 * (1.0 + 2.0 * bound("rss_mb")));
        let (bad, _) = compare_sets(&spec, &[a.clone(), beyond]);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "rss_mb");

        let mut slow_setup = a.clone();
        slow_setup.insert(key(NOT_GATED), 10.0 * (1.0 + 2.0 * bound(NOT_GATED)));
        let (bad, table) = compare_sets(&spec, &[a.clone(), slow_setup]);
        assert!(bad.is_empty(), "set-up time is shown, not gated");
        assert!(table.iter().any(|row| row.contains("not gated")));

        for metric in ["rss_mb", NOT_GATED] {
            let mut missing = a.clone();
            missing.remove(&key(metric));
            let (bad, _) = compare_sets(&spec, &[a.clone(), missing]);
            assert_eq!(bad.len(), 1, "{metric} absent from one set cannot agree");
        }
    }

    #[test]
    fn result_line_fills_unowned_layers_and_rejects_gaps() {
        let spec = spec();
        let mut outcome = Outcome::default();
        for m in spec
            .per_layer
            .iter()
            .filter(|m| Workload::DspnSweep.owns(&m.name))
        {
            outcome.set(&m.name, 1.5);
        }
        outcome.attempted = 3;
        let line = result_line(&spec, &outcome, Workload::DspnSweep, true).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"serve.accuracy\": {\"value\": 0, \"unit\": \"fraction\"}"));
        assert!(line.contains("\"petri.reach.explore_us\": {\"value\": 1.5, \"unit\": \"us\"}"));

        outcome.metrics.remove("petri.reach.explore_us");
        assert!(result_line(&spec, &outcome, Workload::DspnSweep, true).is_err());
        assert!(
            result_line(&spec, &outcome, Workload::DspnSweep, false).is_err(),
            "an untraced run must produce every end-to-end metric"
        );
        outcome.set("not.declared", 1.0);
        assert!(result_line(&spec, &outcome, Workload::DspnSweep, true).is_err());
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            parse_args(&argv("--workload dspn-sweep --seed 7 --seconds 3 --out x")).expect("valid");
        assert_eq!(a.workload, Workload::DspnSweep);
        assert_eq!((a.seed, a.seconds), (7, 3.0));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 3")).is_err());
        assert!(parse_args(&argv("--workload dspn-sweep --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload dspn-sweep --bogus 1")).is_err());
    }
}
