//! Measured autotuning for the GEMM dispatch layer.
//!
//! [`Tuning`] collects every *safely tunable* knob of the
//! [`crate::gemm`] kernel and the [`crate::layers::Conv2d`] `Auto` path
//! router: cache block sizes (`MC`, `NC`), the stream-path row cutoff, the
//! parallel fan-out threshold, and the conv GEMM-vs-direct thresholds.
//! None of these change numeric results — the per-element accumulation
//! order is pinned by the fixed `KC` constant and the KC-blocked loop
//! order in `gemm` (see its determinism note) — so a host is free to tune
//! them aggressively without invalidating any committed, byte-compared
//! artifact.
//!
//! The tuning in force is the `tuning` field of the execution context
//! ([`crate::exec::current`]), resolved like its other fields: a scoped
//! override (tests, the autotuner itself), else a tuning file named by the
//! `MVML_TUNE` environment variable (read once), else the built-in
//! [`Tuning::default`], chosen to be good on common x86-64/aarch64 hosts.
//!
//! The persistence format ([`Tuning::to_config_string`] /
//! [`Tuning::parse_config`]) is deterministic: keys sorted, one
//! `key = value` per line, so re-running the autotuner on an identical
//! host produces a byte-identical file. Missing keys parse as their
//! defaults (forward compatibility); unknown keys are errors (typos fail
//! loudly).
//!
//! [`autotune`] performs the actual measurement: it times candidate block
//! sizes, the stream/packed crossover, and conv path crossovers on
//! representative layer shapes, returning the winning [`Tuning`] plus the
//! raw samples for reporting. It exists for two measured defects: conv1's
//! `Auto` route losing to direct loops (the stream path plus measured
//! thresholds), and negative GEMM thread scaling (the shared packed-B
//! parallel driver, behind the measured fan-out floor
//! [`Tuning::parallel_macs`]).

use crate::exec::{self, Exec};
use crate::gemm;
use crate::layers::{Conv2d, KernelPath};
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Safely tunable parameters of the GEMM kernel and conv path router.
///
/// Every field may vary per host without changing any computed value; see
/// the module docs for why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tuning {
    /// Rows of packed `A` per cache block (`MC`).
    pub mc: usize,
    /// Columns of packed `B` per cache block (`NC`).
    pub nc: usize,
    /// Largest `m` routed to the stream path (packed `A`, in-place `B`).
    /// `0` disables the stream path entirely.
    pub stream_max_rows: usize,
    /// Minimum `m·k·n` before a GEMM fans out over threads. A fan-out
    /// spawns its workers per call and packs all of `B` for them to
    /// share, so it pays only for large products: on a 2-vCPU x86-64
    /// host, every product the bundled models run (≤ 9.4M MACs at batch
    /// 32) was 1.2–1.5× slower on two threads and batch-1 products 3–4×,
    /// while square products gained from ~11M MACs (0.70× at 134M). The
    /// default, 2^24, keeps the models' products on one thread.
    pub parallel_macs: usize,
    /// `Conv2d` `Auto` lowers to GEMM only when `out_channels` is at
    /// least this.
    pub conv_gemm_min_oc: usize,
    /// ... and the im2col row count `C·K·K` is at least this.
    pub conv_gemm_min_ckk: usize,
    /// ... and the total MACs `OC·CKK·cols` are at least this.
    pub conv_gemm_min_macs: usize,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            mc: 64,
            nc: 256,
            stream_max_rows: 8,
            parallel_macs: 1 << 24,
            conv_gemm_min_oc: 12,
            conv_gemm_min_ckk: 32,
            conv_gemm_min_macs: 1 << 18,
        }
    }
}

impl Tuning {
    /// Renders the deterministic persistence format: a comment header,
    /// then one `key = value` line per field in sorted key order.
    pub fn to_config_string(&self) -> String {
        format!(
            "# mvml-nn tuning (written by nn::tune; read via MVML_TUNE)\n\
             conv_gemm_min_ckk = {}\n\
             conv_gemm_min_macs = {}\n\
             conv_gemm_min_oc = {}\n\
             mc = {}\n\
             nc = {}\n\
             parallel_macs = {}\n\
             stream_max_rows = {}\n",
            self.conv_gemm_min_ckk,
            self.conv_gemm_min_macs,
            self.conv_gemm_min_oc,
            self.mc,
            self.nc,
            self.parallel_macs,
            self.stream_max_rows,
        )
    }

    /// Parses the persistence format. Blank lines and `#` comments are
    /// skipped; missing keys keep their defaults; unknown keys and
    /// malformed values are errors.
    pub fn parse_config(text: &str) -> Result<Tuning, String> {
        let mut t = Tuning::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let value: usize = value
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad value: {e}", lineno + 1))?;
            match key.trim() {
                "mc" => t.mc = value,
                "nc" => t.nc = value,
                "stream_max_rows" => t.stream_max_rows = value,
                "parallel_macs" => t.parallel_macs = value,
                "conv_gemm_min_oc" => t.conv_gemm_min_oc = value,
                "conv_gemm_min_ckk" => t.conv_gemm_min_ckk = value,
                "conv_gemm_min_macs" => t.conv_gemm_min_macs = value,
                other => return Err(format!("line {}: unknown key `{other}`", lineno + 1)),
            }
        }
        if t.mc == 0 || t.nc == 0 {
            return Err("mc and nc must be positive".to_string());
        }
        Ok(t)
    }
}

/// Runs `f` under the current execution context with its tuning replaced.
fn scoped_tuning<R>(tuning: Tuning, f: impl FnOnce() -> R) -> R {
    let base = exec::current();
    exec::scoped(Exec { tuning, ..base }, f)
}

/// One timing observation taken by [`autotune`].
#[derive(Clone, Debug)]
pub struct Sample {
    /// Which decision this sample informs (e.g. `"block(mc=64,nc=256)"`).
    pub label: String,
    /// Nanoseconds per iteration, best-of-repeats.
    pub ns_per_iter: f64,
}

/// The result of a measurement run: the winning [`Tuning`] plus every
/// raw sample, for reporting and for the hosted `perf-ab` job summary.
#[derive(Clone, Debug)]
pub struct AutotuneOutcome {
    /// The tuning the measurements selected.
    pub tuning: Tuning,
    /// All observations, in measurement order.
    pub samples: Vec<Sample>,
}

/// Times `f` over `iters` iterations after a short warmup, best of three
/// repeats (robust to scheduler noise without long runs).
fn time_ns<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let ns = t.elapsed().as_nanos() as f64 / iters as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Measures this host and returns the tuning it prefers.
///
/// `budget_iters` scales every timing loop; `12` is a good quick setting
/// (~a second), larger values average out more scheduler noise. The
/// search is greedy and per-knob: cache blocks first (packed path),
/// then the stream/packed row crossover, then the conv path thresholds on
/// representative layer shapes.
pub fn autotune(budget_iters: usize) -> AutotuneOutcome {
    let iters = budget_iters.max(3);
    let mut samples = Vec::new();
    let mut chosen = Tuning::default();

    // --- MC × NC cache blocks, packed path, single thread ---
    let (m, k, n) = (192, 256, 192);
    let a = fill(m * k, 1);
    let b = fill(k * n, 2);
    let mut c = vec![0.0f32; m * n];
    let mut best = f64::INFINITY;
    for mc in [32, 64, 128] {
        for nc in [128, 256, 512] {
            let t = Tuning {
                mc,
                nc,
                stream_max_rows: 0,
                parallel_macs: usize::MAX,
                ..chosen
            };
            let ns = scoped_tuning(t, || time_ns(iters, || gemm::gemm(m, k, n, &a, &b, &mut c)));
            samples.push(Sample {
                label: format!("block(mc={mc},nc={nc})"),
                ns_per_iter: ns,
            });
            if ns < best {
                best = ns;
                chosen.mc = mc;
                chosen.nc = nc;
            }
        }
    }

    // --- stream/packed crossover: largest m where streaming B wins ---
    // Shape family matches inference-time im2col products: a handful of
    // output rows against a wide column dimension.
    let (k, n) = (128, 2048);
    let b = fill(k * n, 3);
    let mut cutoff = 0usize;
    for m in [2usize, 4, 6, 8, 12, 16, 24] {
        let a = fill(m * k, 4 + m as u64);
        let mut c = vec![0.0f32; m * n];
        let stream = scoped_tuning(
            Tuning {
                stream_max_rows: m,
                parallel_macs: usize::MAX,
                ..chosen
            },
            || time_ns(iters, || gemm::gemm(m, k, n, &a, &b, &mut c)),
        );
        let packed = scoped_tuning(
            Tuning {
                stream_max_rows: 0,
                parallel_macs: usize::MAX,
                ..chosen
            },
            || time_ns(iters, || gemm::gemm(m, k, n, &a, &b, &mut c)),
        );
        samples.push(Sample {
            label: format!("stream(m={m})"),
            ns_per_iter: stream,
        });
        samples.push(Sample {
            label: format!("packed(m={m})"),
            ns_per_iter: packed,
        });
        if stream <= packed {
            cutoff = m;
        } else {
            break;
        }
    }
    chosen.stream_max_rows = cutoff.max(1);

    // --- conv Auto thresholds: GEMM vs direct on layer-like shapes ---
    // Vary the out-channel count on a conv1-like layer (ic=1, k=5, 32²):
    // the smallest OC where forced-GEMM beats direct becomes the floor.
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let x1 = Tensor::zeros(&[1, 1, 32, 32]);
    let mut min_oc = usize::MAX;
    for oc in [2usize, 4, 6, 8, 12] {
        let g = time_conv(1, oc, 5, 1, &x1, KernelPath::Gemm, iters, &mut rng);
        let d = time_conv(1, oc, 5, 1, &x1, KernelPath::Direct, iters, &mut rng);
        samples.push(Sample {
            label: format!("conv_gemm(oc={oc})"),
            ns_per_iter: g,
        });
        samples.push(Sample {
            label: format!("conv_direct(oc={oc})"),
            ns_per_iter: d,
        });
        if g <= d && oc < min_oc {
            min_oc = oc;
        }
    }
    if min_oc != usize::MAX {
        chosen.conv_gemm_min_oc = min_oc;
    }
    // Vary C·K·K at a fixed healthy OC (ic/k sweep on 32² input).
    let mut min_ckk = usize::MAX;
    for (ic, ksz) in [(1usize, 3usize), (1, 5), (4, 3), (4, 5)] {
        let ckk = ic * ksz * ksz;
        let x = Tensor::zeros(&[1, ic, 32, 32]);
        let g = time_conv(ic, 8, ksz, 1, &x, KernelPath::Gemm, iters, &mut rng);
        let d = time_conv(ic, 8, ksz, 1, &x, KernelPath::Direct, iters, &mut rng);
        samples.push(Sample {
            label: format!("conv_gemm(ckk={ckk})"),
            ns_per_iter: g,
        });
        samples.push(Sample {
            label: format!("conv_direct(ckk={ckk})"),
            ns_per_iter: d,
        });
        if g <= d && ckk < min_ckk {
            min_ckk = ckk;
        }
    }
    if min_ckk != usize::MAX {
        chosen.conv_gemm_min_ckk = min_ckk;
    }

    AutotuneOutcome {
        tuning: chosen,
        samples,
    }
}

/// Times one forward pass of a fresh conv layer with a forced path.
#[allow(clippy::too_many_arguments)]
fn time_conv(
    ic: usize,
    oc: usize,
    ksz: usize,
    pad: usize,
    x: &Tensor,
    path: KernelPath,
    iters: usize,
    rng: &mut StdRng,
) -> f64 {
    let mut conv = Conv2d::new(ic, oc, ksz, pad, rng);
    conv.set_kernel_path(path);
    use crate::layer::Layer;
    time_ns(iters, || conv.forward(x, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_byte_identically() {
        let t = Tuning {
            mc: 128,
            nc: 512,
            stream_max_rows: 6,
            parallel_macs: 99,
            conv_gemm_min_oc: 2,
            conv_gemm_min_ckk: 25,
            conv_gemm_min_macs: 12345,
        };
        let text = t.to_config_string();
        let back = Tuning::parse_config(&text).expect("round trip");
        assert_eq!(back, t);
        // Deterministic rendering: render(parse(render(t))) == render(t).
        assert_eq!(back.to_config_string(), text);
    }

    #[test]
    fn parse_defaults_missing_and_rejects_unknown() {
        let t = Tuning::parse_config("# only one key\nmc = 32\n").expect("partial config");
        assert_eq!(t.mc, 32);
        assert_eq!(t.nc, Tuning::default().nc);
        assert!(Tuning::parse_config("bogus_key = 1\n").is_err());
        assert!(Tuning::parse_config("mc = fast\n").is_err());
        assert!(Tuning::parse_config("mc = 0\n").is_err());
        assert!(Tuning::parse_config("just words\n").is_err());
    }
}
