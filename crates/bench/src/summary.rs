//! Host benchmark summaries and the perf-regression gate over them.
//!
//! [`nn_summary`] and [`petri_summary`] measure the workspace's two
//! performance-critical layers on the current host — the GEMM-backed NN
//! kernels (plus the multi-version perception pipeline built on them) and
//! the DSPN steady-state backends — producing the serialisable summaries
//! behind `results/BENCH_nn.json` and `results/BENCH_petri.json` (the
//! `bench_summary` binary).
//!
//! [`compare_nn`] / [`compare_petri`] / [`compare_serve`] turn a committed
//! baseline plus a fresh measurement into [`PerfDelta`] rows; the
//! `perf_gate` binary (run by `ci.sh`) fails when any tracked metric loses
//! more than the tolerated fraction of its baseline *throughput* — for
//! time-per-op metrics that is `fresh_ns > baseline_ns / (1 − tolerance)`,
//! for FPS/req-per-s metrics `fresh < (1 − tolerance) × baseline`. The
//! serve summary additionally carries a determinism cross-check
//! ([`serve_report_drift`]): same-seed runs must reproduce the embedded
//! service reports exactly, with zero tolerance.

use mvml_avsim::bev::{add_sensor_noise, rasterize};
use mvml_avsim::detector::DetectorTrainConfig;
use mvml_avsim::fastpath::FastPerception;
use mvml_avsim::geometry::Vec2;
use mvml_avsim::perception::{DetectorBank, MultiVersionPerception, PerceptionConfig};
use mvml_avsim::world::ObjectTruth;
use mvml_core::dspn::with_proactive;
use mvml_core::rejuvenation::ProcessConfig;
use mvml_core::SystemParams;
use mvml_nn::exec::{self, Exec};
use mvml_nn::gemm::gemm;
use mvml_nn::layer::Layer;
use mvml_nn::layers::{Conv2d, KernelPath};
use mvml_nn::parallel::bench_thread_sweep;
use mvml_nn::Tensor;
use mvml_petri::reach::explore;
use mvml_petri::{
    erlang_expand, simulate, solve_graph, ReachOptions, SimConfig, SolutionMethod, SolverOptions,
};
use mvml_serve::ServeSummary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Direct-vs-GEMM timing of one convolution shape (batch 32).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvRow {
    /// Human-readable shape label (stable across runs; the gate joins on it).
    pub shape: String,
    /// Median forward time on the direct kernel path, ns.
    pub direct_ns: f64,
    /// Median forward time on the GEMM kernel path, ns.
    pub gemm_ns: f64,
    /// Median forward time with the `Auto` router deciding per shape
    /// (schema v2; regenerating the committed baseline is part of any
    /// schema change, so both gate inputs always carry it).
    pub auto_ns: f64,
    /// `direct_ns / gemm_ns`.
    pub speedup: f64,
}

/// Blocked-GEMM timing at one worker count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GemmRow {
    /// Worker threads forced for the measurement.
    pub threads: usize,
    /// Median time per 256³ GEMM, ns.
    pub ns_per_iter: f64,
}

/// Perception-pipeline throughput at one worker count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerceptionRow {
    /// Worker threads forced for the measurement.
    pub threads: usize,
    /// Single-version frames per second.
    pub single_v_fps: f64,
    /// Three-version frames per second.
    pub three_v_fps: f64,
    /// Three-version cost relative to single-version (1.0 = free diversity;
    /// 3.0 = paying full triple cost). Extra worker threads can only narrow
    /// this on multi-core hosts.
    pub three_v_cost_factor: f64,
}

/// Quantized fast-path perception throughput (the serial int8 pipeline in
/// `mvml-avsim::fastpath`; dtype=int8, requantized from the same trained
/// bank the f32 rows measure).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Int8PerceptionRow {
    /// Single-version frames per second on the quantized fast path.
    pub single_v_fps: f64,
    /// Three-version frames per second on the quantized fast path.
    pub three_v_fps: f64,
    /// `single_v_fps` over the f32 pipeline's single-version FPS at one
    /// worker thread, measured in the same run on the same host.
    pub speedup_vs_f32: f64,
}

/// The NN-side benchmark summary (`results/BENCH_nn.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NnSummary {
    /// *Detected* host core count when measured (`available_parallelism`,
    /// never capped — so single-core numbers read honestly).
    pub host_cores: usize,
    /// *Effective* worker-thread count the run resolved to (an
    /// `MVML_THREADS` cap applies here, not to `host_cores`).
    pub default_threads: usize,
    /// The `MVML_THREADS` cap in force during the measurement, if any.
    /// Recorded separately from `host_cores` so a capped run can never
    /// masquerade as a small host.
    pub thread_cap: Option<usize>,
    /// Direct-vs-GEMM convolution timings.
    pub conv_forward_batch32: Vec<ConvRow>,
    /// Blocked GEMM at several worker counts.
    pub gemm_256x256x256: Vec<GemmRow>,
    /// Single- vs three-version perception FPS at several worker counts.
    pub perception_fps: Vec<PerceptionRow>,
    /// Quantized fast-path perception (`None` only in hand-built
    /// summaries; `nn_summary` always measures it).
    pub perception_int8: Option<Int8PerceptionRow>,
}

/// One steady-state backend timing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveRow {
    /// Backend name (stable across runs; the gate joins on it).
    pub backend: String,
    /// Tangible states solved over.
    pub states: usize,
    /// Median solve time, ns.
    pub ns_per_solve: f64,
    /// Solution residual.
    pub residual: f64,
}

/// The petri-side benchmark summary (`results/BENCH_petri.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PetriSummary {
    /// Benchmarked model label.
    pub model: String,
    /// Erlang stages used to expand the deterministic clock.
    pub erlang_k: u32,
    /// Per-backend steady-state timings on the same pre-explored chain.
    pub steady_state_solves: Vec<SolveRow>,
    /// Median DES wall time for a 100k-second horizon, ns.
    pub des_simulate_100k_s_ns: f64,
}

fn median_ns(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        v.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    v[v.len() / 2]
}

fn conv_rows() -> Vec<ConvRow> {
    // The LeNet-mini conv stack at batch 32 (the acceptance shapes).
    let shapes: [(&str, usize, usize, usize, usize, usize); 2] = [
        ("conv1 1->6 k5 28x28", 1, 6, 5, 0, 28),
        ("conv2 6->16 k3 12x12", 6, 16, 3, 0, 12),
    ];
    shapes
        .iter()
        .map(|&(label, ic, oc, k, pad, hw)| {
            let x = Tensor::from_vec(
                &[32, ic, hw, hw],
                (0..32 * ic * hw * hw)
                    .map(|i| ((i * 13) % 29) as f32 / 29.0 - 0.5)
                    .collect(),
            );
            let time_path = |path: KernelPath| {
                let mut rng = StdRng::seed_from_u64(38);
                let mut conv = Conv2d::new(ic, oc, k, pad, &mut rng);
                conv.set_kernel_path(path);
                median_ns(7, 10, || {
                    std::hint::black_box(conv.forward(std::hint::black_box(&x), false));
                })
            };
            let direct_ns = time_path(KernelPath::Direct);
            let gemm_ns = time_path(KernelPath::Gemm);
            let auto_ns = time_path(KernelPath::Auto);
            ConvRow {
                shape: label.to_string(),
                direct_ns,
                gemm_ns,
                auto_ns,
                speedup: direct_ns / gemm_ns,
            }
        })
        .collect()
}

fn gemm_rows() -> Vec<GemmRow> {
    let (m, k, n) = (256usize, 256, 256);
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i * 31) % 101) as f32 / 101.0 - 0.5)
        .collect();
    let b: Vec<f32> = (0..k * n)
        .map(|i| ((i * 17) % 97) as f32 / 97.0 - 0.5)
        .collect();
    let mut out = vec![0.0f32; m * n];
    let base = exec::current();
    bench_thread_sweep()
        .into_iter()
        .map(|threads| {
            let ns = exec::scoped(Exec { threads, ..base }, || {
                median_ns(7, 5, || {
                    gemm(
                        m,
                        k,
                        n,
                        std::hint::black_box(&a),
                        std::hint::black_box(&b),
                        &mut out,
                    )
                })
            });
            GemmRow {
                threads,
                ns_per_iter: ns,
            }
        })
        .collect()
}

fn quiet_process() -> ProcessConfig {
    ProcessConfig {
        params: SystemParams {
            mttc: 1e12,
            mttf: 1e12,
            ..SystemParams::carla_case_study()
        },
        proactive: false,
        compromised_priority: 2.0 / 3.0,
        proportional_selection: false,
        per_module_clocks: true,
    }
}

/// The fixed scene every perception measurement perceives (one object
/// 20 m ahead).
fn bench_scene() -> Tensor {
    rasterize(
        Vec2::new(0.0, 0.0),
        0.0,
        &[ObjectTruth {
            position: Vec2::new(20.0, 0.0),
            heading: 0.0,
        }],
    )
}

/// Best-of-`windows` throughput: runs `frames` calls of `frame` per window
/// and reports the FPS of the *fastest* window. Interference from a shared
/// host can only slow a window down, so the minimum elapsed time is the
/// robust estimator for a gated metric — and the first window doubles as
/// warmup (its cache-cold cost can only lose).
fn best_fps(windows: usize, frames: usize, mut frame: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..windows {
        let t = Instant::now();
        for _ in 0..frames {
            frame();
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    frames as f64 / best
}

fn perception_rows(bank: &DetectorBank) -> Vec<PerceptionRow> {
    let clean = bench_scene();
    let fps = |versions: usize| {
        let mut p = MultiVersionPerception::new(
            bank,
            PerceptionConfig {
                versions,
                ..PerceptionConfig::default()
            },
            quiet_process(),
            7,
        );
        best_fps(3, 100, || {
            std::hint::black_box(p.perceive(&clean));
        })
    };
    let base = exec::current();
    bench_thread_sweep()
        .into_iter()
        .map(|threads| {
            exec::scoped(Exec { threads, ..base }, || {
                let single = fps(1);
                let three = fps(3);
                PerceptionRow {
                    threads,
                    single_v_fps: single,
                    three_v_fps: three,
                    three_v_cost_factor: single / three,
                }
            })
        })
        .collect()
}

/// Measures the int8 fast path on the same bank and scene as the f32
/// rows. The pipeline is serial by design, so one row (no thread sweep);
/// `f32_single_1t` is the f32 single-version FPS at one worker from the
/// same run, giving the speedup both the report and the perf gate use.
fn int8_perception_row(bank: &DetectorBank, f32_single_1t: f64) -> Int8PerceptionRow {
    let clean = bench_scene();
    let mut rng = StdRng::seed_from_u64(21);
    let calibration: Vec<Tensor> = (0..6)
        .map(|_| add_sensor_noise(&clean, 0.08, 0.002, &mut rng))
        .collect();
    let fps = |versions: usize| {
        let mut p = FastPerception::new(
            bank,
            PerceptionConfig {
                versions,
                ..PerceptionConfig::default()
            },
            quiet_process(),
            7,
            &calibration,
        );
        // The fast path runs an order of magnitude quicker than the f32
        // pipeline; more frames keep the timing window comparable.
        best_fps(3, 800, || {
            std::hint::black_box(p.perceive(&clean));
        })
    };
    let single = fps(1);
    Int8PerceptionRow {
        single_v_fps: single,
        three_v_fps: fps(3),
        speedup_vs_f32: single / f32_single_1t,
    }
}

/// Measures the DSPN steady-state backends (dense elimination vs
/// Gauss–Seidel) on the same pre-explored chain — the six-version proactive
/// net at Erlang-8 — plus DES throughput on the unexpanded net.
pub fn petri_summary() -> PetriSummary {
    let erlang_k = 8;
    let params = SystemParams::paper_table_iv();
    let mv = with_proactive(6, &params).expect("net");
    let expanded = erlang_expand(&mv.net, erlang_k).expect("expansion");
    let graph = explore(&expanded, &ReachOptions::default()).expect("reachability");
    let opts = SolverOptions::default();

    let steady_state_solves = [SolutionMethod::Dense, SolutionMethod::GaussSeidel]
        .into_iter()
        .map(|method| {
            let sol = solve_graph(&graph, &method, &opts).expect("solution");
            let info = sol.info();
            SolveRow {
                backend: info.backend.name().to_string(),
                states: info.states,
                residual: info.residual,
                // Sub-millisecond solves need several iterations per sample
                // or scheduler noise on a shared host swamps the 25% gate.
                ns_per_solve: median_ns(9, 5, || {
                    std::hint::black_box(
                        solve_graph(std::hint::black_box(&graph), &method, &opts)
                            .expect("solution"),
                    );
                }),
            }
        })
        .collect();

    let cfg = SimConfig {
        horizon: 100_000.0,
        warmup: 100.0,
        seed: 1,
        ..SimConfig::default()
    };
    let des_simulate_100k_s_ns = median_ns(9, 5, || {
        std::hint::black_box(simulate(std::hint::black_box(&mv.net), &cfg).expect("simulation"));
    });

    PetriSummary {
        model: "6v proactive (Fig. 3)".to_string(),
        erlang_k,
        steady_state_solves,
        des_simulate_100k_s_ns,
    }
}

/// Measures kernel- and pipeline-level NN timings on the current host:
/// direct-vs-GEMM convolution, the blocked GEMM at several worker counts,
/// and single- vs three-version perception FPS (the Table VIII overhead
/// angle). Trains a reduced detector bank internally — deterministic, but
/// the timings are of course host-dependent.
pub fn nn_summary() -> NnSummary {
    let bank = DetectorBank::train(&DetectorTrainConfig {
        scenes: 200,
        epochs: 2,
        ..DetectorTrainConfig::default()
    });
    let perception_fps = perception_rows(&bank);
    let f32_single_1t = perception_fps
        .iter()
        .find(|r| r.threads == 1)
        .map_or(f64::NAN, |r| r.single_v_fps);
    let perception_int8 = Some(int8_perception_row(&bank, f32_single_1t));
    NnSummary {
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        default_threads: exec::current().threads,
        thread_cap: exec::threads_from_env(),
        conv_forward_batch32: conv_rows(),
        gemm_256x256x256: gemm_rows(),
        perception_fps,
        perception_int8,
    }
}

/// How one tracked metric moved between a committed baseline and a fresh
/// measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfDelta {
    /// Metric label (`petri/solve/dense`, `nn/perception/3v-fps@2t`, …).
    pub metric: String,
    /// Baseline value in the metric's native unit (ns or fps).
    pub baseline: f64,
    /// Fresh value in the same unit.
    pub fresh: f64,
    /// Throughput retained: `fresh/baseline` for rate metrics,
    /// `baseline/fresh` for time metrics. 1.0 = unchanged, 0.5 = half as
    /// fast, >1 = faster than baseline.
    pub throughput_ratio: f64,
    /// `throughput_ratio < 1 − tolerance`.
    pub regressed: bool,
}

fn delta(metric: String, baseline: f64, fresh: f64, time_based: bool, tol: f64) -> PerfDelta {
    let throughput_ratio = if time_based {
        baseline / fresh
    } else {
        fresh / baseline
    };
    PerfDelta {
        metric,
        baseline,
        fresh,
        throughput_ratio,
        // NaN (e.g. a zero-time baseline) counts as regressed rather than
        // vacuously passing.
        regressed: throughput_ratio.is_nan() || throughput_ratio < 1.0 - tol,
    }
}

/// Compares a fresh [`PetriSummary`] against a committed baseline. Rows are
/// joined on backend name; metrics only present on one side are ignored
/// (changing the benchmark set is a deliberate act that recommits the
/// baseline, not a regression).
pub fn compare_petri(base: &PetriSummary, fresh: &PetriSummary, tol: f64) -> Vec<PerfDelta> {
    let mut out = Vec::new();
    for b in &base.steady_state_solves {
        if let Some(f) = fresh
            .steady_state_solves
            .iter()
            .find(|f| f.backend == b.backend)
        {
            out.push(delta(
                format!("petri/solve/{}", b.backend),
                b.ns_per_solve,
                f.ns_per_solve,
                true,
                tol,
            ));
        }
    }
    out.push(delta(
        "petri/des/100k-s".to_string(),
        base.des_simulate_100k_s_ns,
        fresh.des_simulate_100k_s_ns,
        true,
        tol,
    ));
    out
}

/// Compares a fresh [`NnSummary`] against a committed baseline. Conv rows
/// join on shape label, GEMM and perception rows on thread count; the
/// tracked metrics are the *optimised* paths (GEMM convolution, blocked
/// GEMM, three-version FPS) — the direct kernel is a reference, not a
/// product path.
pub fn compare_nn(base: &NnSummary, fresh: &NnSummary, tol: f64) -> Vec<PerfDelta> {
    let mut out = Vec::new();
    for b in &base.conv_forward_batch32 {
        if let Some(f) = fresh
            .conv_forward_batch32
            .iter()
            .find(|f| f.shape == b.shape)
        {
            out.push(delta(
                format!("nn/conv-gemm/{}", b.shape),
                b.gemm_ns,
                f.gemm_ns,
                true,
                tol,
            ));
        }
    }
    for b in &base.gemm_256x256x256 {
        if let Some(f) = fresh
            .gemm_256x256x256
            .iter()
            .find(|f| f.threads == b.threads)
        {
            out.push(delta(
                format!("nn/gemm-256/{}t", b.threads),
                b.ns_per_iter,
                f.ns_per_iter,
                true,
                tol,
            ));
        }
    }
    for b in &base.perception_fps {
        if let Some(f) = fresh.perception_fps.iter().find(|f| f.threads == b.threads) {
            out.push(delta(
                format!("nn/perception-3v-fps/{}t", b.threads),
                b.three_v_fps,
                f.three_v_fps,
                false,
                tol,
            ));
        }
    }
    if let (Some(b), Some(f)) = (&base.perception_int8, &fresh.perception_int8) {
        out.push(delta(
            "nn/perception-int8-1v-fps".to_string(),
            b.single_v_fps,
            f.single_v_fps,
            false,
            tol,
        ));
    }
    out
}

/// The quantized fast path must beat the f32 pipeline by at least this
/// factor (single version, one worker) — the headline speedup the int8
/// rework exists to deliver, enforced by [`nn_absolute_checks`].
pub const INT8_MIN_SPEEDUP: f64 = 4.0;

/// Absolute (non-relative) invariants of a fresh NN summary, checked by
/// the perf gate alongside the baseline deltas. Returns one message per
/// violated invariant; empty means all hold.
///
/// - **int8 ≥ 4× f32**: the fresh quantized single-version FPS must be at
///   least [`INT8_MIN_SPEEDUP`] times the *baseline* f32 single-version
///   FPS at one worker. The baseline side is the committed (or, in the
///   self-calibrating CI lane, freshly measured-on-runner) f32 number, so
///   the factor survives host-speed changes.
/// - **Auto router never loses**: per conv shape, the `Auto` path must be
///   within tolerance of the better forced path — a misrouting `Auto` is
///   a dispatch bug even when every relative delta passes. Skipped for
///   pre-v2 rows (`auto_ns == 0`).
/// - **GEMM thread scaling**: on multi-core hosts, the 256³ GEMM must not
///   get slower going from one to two workers (beyond tolerance).
///   Single-core hosts skip this: extra threads can only oversubscribe.
// The negated comparisons are deliberate: a NaN measurement must FAIL the
// gate, and the de-negated forms (`a < b`) would silently pass it.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn nn_absolute_checks(base: &NnSummary, fresh: &NnSummary, tol: f64) -> Vec<String> {
    let mut failures = Vec::new();

    let base_f32 = base
        .perception_fps
        .iter()
        .find(|r| r.threads == 1)
        .map(|r| r.single_v_fps);
    match (&fresh.perception_int8, base_f32) {
        (Some(int8), Some(f32_fps)) if f32_fps > 0.0 => {
            let need = INT8_MIN_SPEEDUP * f32_fps;
            if !(int8.single_v_fps >= need) {
                failures.push(format!(
                    "int8 fast path: {:.0} fps < required {:.0} fps \
                     ({INT8_MIN_SPEEDUP}x the baseline f32 {:.0} fps @1t)",
                    int8.single_v_fps, need, f32_fps
                ));
            }
        }
        (None, _) => failures
            .push("fresh summary has no perception_int8 row (fast path unmeasured)".to_string()),
        _ => {}
    }

    for row in &fresh.conv_forward_batch32 {
        if row.auto_ns == 0.0 {
            continue;
        }
        let best = row.direct_ns.min(row.gemm_ns);
        if !(row.auto_ns <= best / (1.0 - tol)) {
            failures.push(format!(
                "conv Auto router loses on `{}`: auto {:.0} ns vs best forced {:.0} ns \
                 (beyond {:.0}% tolerance)",
                row.shape,
                row.auto_ns,
                best,
                100.0 * tol
            ));
        }
    }

    if fresh.host_cores > 1 {
        let at = |t: usize| {
            fresh
                .gemm_256x256x256
                .iter()
                .find(|r| r.threads == t)
                .map(|r| r.ns_per_iter)
        };
        if let (Some(one), Some(two)) = (at(1), at(2)) {
            if !(two <= one / (1.0 - tol)) {
                failures.push(format!(
                    "gemm 256^3 scales negatively: {one:.0} ns @1t -> {two:.0} ns @2t \
                     on a {}-core host (beyond {:.0}% tolerance)",
                    fresh.host_cores,
                    100.0 * tol
                ));
            }
        }
    }

    failures
}

/// Compares a fresh [`ServeSummary`] (`BENCH_serve.json`) against a
/// committed baseline. Scenarios join on label; the tracked metrics are
/// each scenario's aggregate sustained throughput (host-dependent, gated
/// with the tolerance) and every tenant's p50/p99 *round*-latency — a
/// deterministic queue-age digest, so a quantile that grows past the
/// tolerance is a real batching/admission regression, not measurement
/// noise. Quantiles gate on `rounds + 1` so an ideal same-round answer
/// (0 rounds queued) never divides by zero.
pub fn compare_serve(base: &ServeSummary, fresh: &ServeSummary, tol: f64) -> Vec<PerfDelta> {
    let mut out = Vec::new();
    for b in &base.scenarios {
        if let Some(f) = fresh.scenario(&b.scenario) {
            out.push(delta(
                format!("serve/{}/throughput", b.scenario),
                b.throughput_rps,
                f.throughput_rps,
                false,
                tol,
            ));
            for bt in &b.report.tenants {
                if let Some(ft) = f.report.tenants.iter().find(|t| t.tenant == bt.tenant) {
                    for (tag, bv, fv) in [
                        (
                            "p50-rounds",
                            bt.round_latency.p50_rounds,
                            ft.round_latency.p50_rounds,
                        ),
                        (
                            "p99-rounds",
                            bt.round_latency.p99_rounds,
                            ft.round_latency.p99_rounds,
                        ),
                    ] {
                        out.push(delta(
                            format!("serve/{}/{}/{tag}", b.scenario, bt.tenant),
                            (bv + 1) as f64,
                            (fv + 1) as f64,
                            true,
                            tol,
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Cross-checks the *deterministic* half of two serve summaries: when the
/// baseline and the fresh run used the same seed and round count, every
/// scenario's embedded [`mvml_serve::ServiceReport`] must be identical —
/// the accounting is a pure function of the seed and trace, independent of
/// host speed and shard layout. A non-empty return is a determinism
/// regression, which the perf gate treats as fatal regardless of
/// tolerance.
pub fn serve_report_drift(base: &ServeSummary, fresh: &ServeSummary) -> Vec<String> {
    if base.seed != fresh.seed || base.rounds != fresh.rounds {
        // Different workload: throughput comparison still applies (the
        // gate joins on scenario label), report equality does not.
        return Vec::new();
    }
    let mut drift = Vec::new();
    for b in &base.scenarios {
        let Some(f) = fresh.scenario(&b.scenario) else {
            continue;
        };
        if b.report != f.report {
            drift.push(format!(
                "scenario {}: deterministic report diverged from baseline \
                 (same seed {} and {} rounds must reproduce identical accounting)",
                b.scenario, base.seed, base.rounds
            ));
        }
    }
    drift
}

#[cfg(test)]
mod tests {
    use super::*;

    fn petri(dense_ns: f64, des_ns: f64) -> PetriSummary {
        PetriSummary {
            model: "m".into(),
            erlang_k: 8,
            steady_state_solves: vec![SolveRow {
                backend: "dense".into(),
                states: 100,
                ns_per_solve: dense_ns,
                residual: 1e-12,
            }],
            des_simulate_100k_s_ns: des_ns,
        }
    }

    #[test]
    fn time_regression_beyond_tolerance_is_flagged() {
        // 25% tolerance: up to 1/0.75 ≈ 1.333× slower passes, beyond fails.
        let base = petri(1000.0, 1000.0);
        let ok = compare_petri(&base, &petri(1300.0, 900.0), 0.25);
        assert!(ok.iter().all(|d| !d.regressed), "{ok:?}");
        let bad = compare_petri(&base, &petri(1400.0, 1000.0), 0.25);
        assert!(bad[0].regressed, "{bad:?}");
        assert!(!bad[1].regressed);
        assert!(bad[0].throughput_ratio < 0.75);
    }

    fn nn(fps: f64) -> NnSummary {
        NnSummary {
            host_cores: 4,
            default_threads: 4,
            thread_cap: None,
            conv_forward_batch32: vec![],
            gemm_256x256x256: vec![],
            perception_fps: vec![PerceptionRow {
                threads: 2,
                single_v_fps: 100.0,
                three_v_fps: fps,
                three_v_cost_factor: 100.0 / fps,
            }],
            perception_int8: None,
        }
    }

    #[test]
    fn fps_regression_uses_rate_direction() {
        let base = nn(60.0);
        assert!(!compare_nn(&base, &nn(46.0), 0.25)[0].regressed);
        assert!(compare_nn(&base, &nn(44.0), 0.25)[0].regressed);
        // Faster than baseline reads as > 1.0 throughput, never regressed.
        let faster = compare_nn(&base, &nn(90.0), 0.25);
        assert!(faster[0].throughput_ratio > 1.0 && !faster[0].regressed);
    }

    #[test]
    fn int8_rows_join_by_presence_and_gate_as_rates() {
        let with_int8 = |fps: f64| {
            let mut s = nn(60.0);
            s.perception_int8 = Some(Int8PerceptionRow {
                single_v_fps: fps,
                three_v_fps: fps / 3.0,
                speedup_vs_f32: fps / 100.0,
            });
            s
        };
        // Pre-v2 baseline (no int8 row): nothing joins, nothing fails.
        let deltas = compare_nn(&nn(60.0), &with_int8(500.0), 0.25);
        assert!(deltas
            .iter()
            .all(|d| d.metric != "nn/perception-int8-1v-fps"));
        // Both sides present: gates like any rate metric.
        let bad = compare_nn(&with_int8(500.0), &with_int8(300.0), 0.25);
        let row = bad
            .iter()
            .find(|d| d.metric == "nn/perception-int8-1v-fps")
            .expect("int8 delta row");
        assert!(row.regressed, "{row:?}");
    }

    /// A summary shaped like a real v2 measurement, for the absolute
    /// checks: f32 1v @1t = 100 fps, int8 healthy at 4.6x, Auto routing
    /// to the winning conv path, flat thread scaling.
    fn v2(int8_fps: f64, auto_ns: f64, gemm2t_ns: f64) -> NnSummary {
        NnSummary {
            host_cores: 4,
            default_threads: 4,
            thread_cap: None,
            conv_forward_batch32: vec![ConvRow {
                shape: "conv1".into(),
                direct_ns: 1000.0,
                gemm_ns: 1500.0,
                auto_ns,
                speedup: 1000.0 / 1500.0,
            }],
            gemm_256x256x256: vec![
                GemmRow {
                    threads: 1,
                    ns_per_iter: 1000.0,
                },
                GemmRow {
                    threads: 2,
                    ns_per_iter: gemm2t_ns,
                },
            ],
            perception_fps: vec![PerceptionRow {
                threads: 1,
                single_v_fps: 100.0,
                three_v_fps: 40.0,
                three_v_cost_factor: 2.5,
            }],
            perception_int8: Some(Int8PerceptionRow {
                single_v_fps: int8_fps,
                three_v_fps: int8_fps / 3.0,
                speedup_vs_f32: int8_fps / 100.0,
            }),
        }
    }

    #[test]
    fn absolute_checks_pass_on_a_healthy_summary() {
        let s = v2(460.0, 1010.0, 900.0);
        assert!(nn_absolute_checks(&s, &s, 0.25).is_empty());
    }

    #[test]
    fn absolute_checks_enforce_the_int8_speedup_floor() {
        let base = v2(460.0, 1010.0, 900.0);
        // 4x the baseline f32 100 fps = 400 fps floor.
        let slow = v2(399.0, 1010.0, 900.0);
        let fails = nn_absolute_checks(&base, &slow, 0.25);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("int8 fast path"), "{fails:?}");
        // Exactly at the floor passes; a missing row fails loudly.
        assert!(nn_absolute_checks(&base, &v2(400.0, 1010.0, 900.0), 0.25).is_empty());
        let mut missing = v2(460.0, 1010.0, 900.0);
        missing.perception_int8 = None;
        let fails = nn_absolute_checks(&base, &missing, 0.25);
        assert!(fails[0].contains("no perception_int8"), "{fails:?}");
    }

    #[test]
    fn absolute_checks_catch_a_misrouting_auto_path_and_negative_scaling() {
        let base = v2(460.0, 1010.0, 900.0);
        // Auto 1.5x the best forced path: beyond the 25% tolerance.
        let misrouted = v2(460.0, 1500.0, 900.0);
        let fails = nn_absolute_checks(&base, &misrouted, 0.25);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("Auto router"), "{fails:?}");
        // auto_ns == 0 marks a pre-v2 row: skipped, not failed.
        assert!(nn_absolute_checks(&base, &v2(460.0, 0.0, 900.0), 0.25).is_empty());

        // 2t slower than 1t beyond tolerance on a multi-core host.
        let negative = v2(460.0, 1010.0, 1400.0);
        let fails = nn_absolute_checks(&base, &negative, 0.25);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("scales negatively"), "{fails:?}");
        // The same numbers on a single-core host: oversubscription is
        // expected, the check does not apply.
        let mut single_core = v2(460.0, 1010.0, 1400.0);
        single_core.host_cores = 1;
        assert!(nn_absolute_checks(&base, &single_core, 0.25).is_empty());
    }

    #[test]
    fn unmatched_rows_are_ignored_not_failed() {
        let mut fresh = petri(1000.0, 1000.0);
        fresh.steady_state_solves[0].backend = "renamed".into();
        let deltas = compare_petri(&petri(1000.0, 1000.0), &fresh, 0.25);
        assert_eq!(deltas.len(), 1, "only the DES metric joins: {deltas:?}");
        assert_eq!(deltas[0].metric, "petri/des/100k-s");
    }

    #[test]
    fn non_finite_fresh_measurement_regresses() {
        // A NaN/zero fresh value must read as a failure, not vacuously pass.
        let bad = compare_petri(&petri(1000.0, 1000.0), &petri(f64::NAN, 0.0), 0.25);
        assert!(bad[0].regressed, "NaN timing must regress: {bad:?}");
        // baseline/0 = +inf throughput: a zero time is "infinitely fast",
        // which passes — acceptable, it cannot hide a slowdown.
        assert!(!bad[1].regressed);
    }

    #[test]
    fn summaries_round_trip_through_json() {
        let p = petri(123.0, 456.0);
        let j = serde_json::to_string(&p).expect("serialise");
        let back: PetriSummary = serde_json::from_str(&j).expect("parse");
        assert_eq!(back.steady_state_solves[0].backend, "dense");
        assert_eq!(back.erlang_k, 8);
    }

    fn serve(throughput: f64) -> ServeSummary {
        use mvml_serve::report::{
            MeasuredLatency, RoundLatencyReport, ScenarioSummary, TenantReport,
        };
        use mvml_serve::ServiceReport;
        let row = |name: &str| TenantReport {
            tenant: name.to_string(),
            requests: 8,
            rounds: 4,
            decided: 8,
            skipped: 0,
            no_output: 0,
            dropped: 0,
            slo_misses: 0,
            deadline_withholds: 0,
            panics: 0,
            non_finite: 0,
            escalations: 0,
            rejuvenations: 0,
            proactive_rejuvenations: 0,
            rejected_overload: 0,
            rejected_rate_limited: 0,
            shed: 0,
            round_latency: RoundLatencyReport {
                count: 8,
                p50_rounds: 0,
                p99_rounds: 1,
                max_rounds: 1,
            },
        };
        let lat = MeasuredLatency {
            count: 16,
            p50_ns: 1e4,
            p99_ns: 1e5,
            mean_ns: 2e4,
        };
        ServeSummary {
            schema: mvml_serve::report::BENCH_SCHEMA.to_string(),
            host_cores: 1,
            seed: 11,
            shards: 2,
            rounds: 4,
            scenarios: vec![ScenarioSummary {
                scenario: "healthy".into(),
                report: ServiceReport {
                    schema: mvml_serve::report::REPORT_SCHEMA.to_string(),
                    seed: 11,
                    rounds: 4,
                    shard_restarts: 0,
                    tenants: vec![row("alpha"), row("beta")],
                },
                tenants: vec![],
                overall_latency: lat,
                wall_ns: 1_000_000,
                throughput_rps: throughput,
            }],
        }
    }

    #[test]
    fn serve_throughput_gates_like_any_rate_metric() {
        let base = serve(1000.0);
        // 1 throughput row + 2 tenants × 2 round-latency quantiles.
        let ok = compare_serve(&base, &serve(800.0), 0.25);
        assert_eq!(ok.len(), 5);
        assert_eq!(ok[0].metric, "serve/healthy/throughput");
        assert!(ok.iter().all(|d| !d.regressed), "{ok:?}");
        let bad = compare_serve(&base, &serve(700.0), 0.25);
        assert!(bad[0].regressed, "{bad:?}");
    }

    #[test]
    fn serve_round_latency_quantiles_gate_deterministically() {
        let base = serve(1000.0);
        // Queue ages that grow past the tolerance regress even when
        // throughput holds: the digest is deterministic, so this is a
        // real batching/admission change, not noise.
        let mut slow = serve(1000.0);
        slow.scenarios[0].report.tenants[0].round_latency.p99_rounds = 3;
        let deltas = compare_serve(&base, &slow, 0.25);
        let p99 = deltas
            .iter()
            .find(|d| d.metric == "serve/healthy/alpha/p99-rounds")
            .expect("row");
        // Gated on rounds+1: baseline 2, fresh 4 → ratio 0.5.
        assert!(p99.regressed, "{p99:?}");
        assert!((p99.throughput_ratio - 0.5).abs() < 1e-12);
        // A same-round p50 on both sides never divides by zero.
        let p50 = deltas
            .iter()
            .find(|d| d.metric == "serve/healthy/alpha/p50-rounds")
            .expect("row");
        assert!(p50.throughput_ratio.is_finite() && !p50.regressed);
    }

    #[test]
    fn serve_report_drift_is_a_determinism_failure() {
        let base = serve(1000.0);
        // Same seed and rounds, identical reports: no drift, however slow.
        assert!(serve_report_drift(&base, &serve(10.0)).is_empty());

        // Same workload but diverging accounting: fatal.
        let mut skewed = serve(1000.0);
        skewed.scenarios[0].report.tenants[0].decided = 7;
        skewed.scenarios[0].report.tenants[0].skipped = 1;
        skewed.scenarios[0].report.tenants[0].slo_misses = 1;
        let drift = serve_report_drift(&base, &skewed);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("healthy"));

        // A different seed is a different workload, not drift.
        let mut reseeded = skewed;
        reseeded.seed = 99;
        assert!(serve_report_drift(&base, &reseeded).is_empty());
    }
}
