//! Cache-blocked, register-tiled f32 matrix multiplication with runtime
//! SIMD dispatch.
//!
//! The kernel follows the classic BLIS decomposition: the operands are cut
//! into `MC`×`KC` / `KC`×`NC` cache blocks, each block is repacked into
//! contiguous `MR`-row / `NR`-column panels, and an `MR`×`NR` = 8×32
//! register-tile microkernel accumulates into vector registers. The
//! microkernel has five implementations behind one dispatch point
//! ([`Kernel`]): hand-written `std::arch` AVX-512F, AVX2 and SSE2 kernels
//! on x86-64, a NEON kernel on aarch64, and a portable scalar kernel
//! everywhere. Only AVX-512 holds the whole tile (16 accumulators, enough
//! independent add chains to keep both vector add ports busy); the others
//! sweep it in column strips. Each call runs the kernel of the execution
//! context ([`crate::exec`]): the best one this host supports, unless a
//! scoped override picks another (parity tests do).
//!
//! Two data paths cover the shapes the layers produce:
//!
//! - **Packed path**: `MR`-row blocks of `A` are packed and multiplied
//!   against `NR`-column panels of `B`. A lone worker packs each
//!   `(NC, KC)` block of `B` just before using it, into one reused buffer.
//!   The parallel driver packs all of `B` once and fans *row blocks* out
//!   over threads against it — workers never re-pack each other's panels,
//!   which is what restores 1→2 thread scaling on panel-bound shapes.
//! - **Stream path** (small `m`, row-major `B`): with at most
//!   [`crate::exec::Tuning::stream_max_rows`] output rows, every packed
//!   `B` panel would be used once — pure overhead. The microkernel instead
//!   reads `B` directly at row stride `n`, and threads fan out over
//!   *column ranges* of `C`. This is the shape class of inference-time
//!   im2col convolutions (`M` = a handful of output channels), where the
//!   old always-pack kernel lost to the direct loops.
//!
//! Three orientations cover every product the layers need without ever
//! materializing a transpose:
//!
//! - [`gemm`]: `C = A·B` (forward passes)
//! - [`gemm_tn`] / [`gemm_tn_acc`]: `C (+)= Aᵀ·B`
//! - [`gemm_nt`] / [`gemm_nt_acc`]: `C (+)= A·Bᵀ`
//!
//! Each transposed orientation serves both gradient roles, depending on
//! how the layer stores its operands: a convolution's input gradient is
//! `Wᵀ·dY` (`gemm_tn`) and its weight gradient `dY·colᵀ` (`gemm_nt_acc`),
//! while a dense layer's weight gradient is `Xᵀ·dY` (`gemm_tn_acc`) and its
//! input gradient `dY·Wᵀ` (`gemm_nt`).
//!
//! ## Determinism
//!
//! Every output element is accumulated in exactly the same floating-point
//! order — `KC` blocks ascending, `k` ascending within each block — no
//! matter which kernel runs, which path is chosen, or how many threads run
//! it. The SIMD kernels deliberately use separate multiply and add
//! instructions (never FMA): per lane that is the same IEEE-754 operation
//! sequence as the scalar kernel, so `Scalar`, `Sse`, `Avx2`, `Avx512` and
//! `Neon` produce bitwise-identical results and committed artifacts stay
//! valid on any host. For the same reason `KC` is a fixed constant —
//! resizing it would regroup the per-element accumulation — while `MC`/`NC`
//! and the path/parallel thresholds are fields of [`Tuning`]: they
//! only move work between cache blocks and threads, never reorder a dot
//! product. The register tile's shape does not enter the order either:
//! each tile element starts at zero, sums its `KC` block `k` ascending, and
//! is then added to `C`.

// One of the crate modules where `unsafe` is allowed (see `lib.rs`): the
// `std::arch` microkernels and the disjoint-column-stripe writes below.
#![allow(unsafe_code)]

use crate::exec::{self, Tuning};

/// Rows per register tile.
pub(crate) const MR: usize = 8;
/// Columns per register tile: two 16-lane AVX-512 vectors per row. The
/// narrower kernels walk the tile in column strips (see [`Kernel`]).
pub(crate) const NR: usize = 32;
/// Shared dimension per cache block. Fixed (not tunable): `KC` groups the
/// per-element accumulation into partial sums, so changing it changes the
/// floating-point result — see the module-level determinism note.
pub(crate) const KC: usize = 256;

/// Which microkernel implementation executes the `MR`×`NR` = 8×32
/// register tile. Only AVX-512 holds the whole tile in registers (16
/// accumulators); the narrower kernels compute it as independent column
/// strips, each strip a full `kc` sweep, so every tile element still sums
/// `k` ascending from zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Portable scalar kernel, 8-column strips (LLVM autovectorizes the
    /// lane loop).
    Scalar,
    /// Hand-written SSE2 kernel, 4×8 sub-tiles (baseline on x86-64).
    Sse,
    /// Hand-written AVX2 kernel, 8×8 strips (runtime-detected).
    Avx2,
    /// Hand-written AVX-512F kernel, the whole 8×32 tile
    /// (runtime-detected).
    Avx512,
    /// Hand-written NEON kernel, 8×8 strips (baseline on aarch64).
    Neon,
}

impl Kernel {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Sse => "sse",
            Kernel::Avx2 => "avx2",
            Kernel::Avx512 => "avx512",
            Kernel::Neon => "neon",
        }
    }
}

/// The microkernels this host can run, worst to best. Always starts with
/// [`Kernel::Scalar`]; SIMD kernels are appended per target architecture
/// with AVX2 and AVX-512F runtime-detected.
pub fn available_kernels() -> Vec<Kernel> {
    let mut ks = vec![Kernel::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        // SSE2 is part of the x86-64 baseline; no detection needed.
        ks.push(Kernel::Sse);
        if std::arch::is_x86_feature_detected!("avx2") {
            ks.push(Kernel::Avx2);
            // Only offered alongside AVX2: the int8 kernels run their AVX2
            // code under `Kernel::Avx512` (see `quant::Int8Kernel`).
            if std::arch::is_x86_feature_detected!("avx512f") {
                ks.push(Kernel::Avx512);
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is part of the aarch64 baseline.
        ks.push(Kernel::Neon);
    }
    ks
}

/// A borrowed row-major matrix, optionally accessed transposed.
///
/// `Mat::normal(data, r, c)` views `data` as `r`×`c`; `Mat::transposed`
/// views the same storage as its transpose without moving any element.
#[derive(Clone, Copy)]
struct Mat<'a> {
    data: &'a [f32],
    /// Row stride of the *stored* layout.
    stride: usize,
    transposed: bool,
}

impl<'a> Mat<'a> {
    fn normal(data: &'a [f32], rows: usize, cols: usize) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        Mat {
            data,
            stride: cols,
            transposed: false,
        }
    }

    fn transposed(data: &'a [f32], stored_rows: usize, stored_cols: usize) -> Self {
        debug_assert_eq!(data.len(), stored_rows * stored_cols);
        Mat {
            data,
            stride: stored_cols,
            transposed: true,
        }
    }
}

/// `C = A·B` with `A: [m, k]`, `B: [k, n]`, `C: [m, n]`, all row-major.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A must be {m}x{k}");
    assert_eq!(b.len(), k * n, "B must be {k}x{n}");
    assert_eq!(c.len(), m * n, "C must be {m}x{n}");
    driver(
        m,
        k,
        n,
        Mat::normal(a, m, k),
        Mat::normal(b, k, n),
        c,
        false,
    );
}

/// `C = Aᵀ·B` with `A` **stored** `[k, m]`, `B: [k, n]`, `C: [m, n]`.
///
/// Computes the same result as `A.transpose().matmul(B)` without building
/// the transpose.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "A must be stored {k}x{m}");
    assert_eq!(b.len(), k * n, "B must be {k}x{n}");
    assert_eq!(c.len(), m * n, "C must be {m}x{n}");
    driver(
        m,
        k,
        n,
        Mat::transposed(a, k, m),
        Mat::normal(b, k, n),
        c,
        false,
    );
}

/// `C += Aᵀ·B` — the accumulating variant of [`gemm_tn`], used to sum
/// weight gradients across backward calls without a scratch matrix.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_tn_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "A must be stored {k}x{m}");
    assert_eq!(b.len(), k * n, "B must be {k}x{n}");
    assert_eq!(c.len(), m * n, "C must be {m}x{n}");
    driver(
        m,
        k,
        n,
        Mat::transposed(a, k, m),
        Mat::normal(b, k, n),
        c,
        true,
    );
}

/// `C = A·Bᵀ` with `A: [m, k]`, `B` **stored** `[n, k]`, `C: [m, n]`.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A must be {m}x{k}");
    assert_eq!(b.len(), n * k, "B must be stored {n}x{k}");
    assert_eq!(c.len(), m * n, "C must be {m}x{n}");
    driver(
        m,
        k,
        n,
        Mat::normal(a, m, k),
        Mat::transposed(b, n, k),
        c,
        false,
    );
}

/// `C += A·Bᵀ` — the accumulating variant of [`gemm_nt`], used to sum
/// per-image weight gradients without a scratch matrix per image.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_nt_acc(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A must be {m}x{k}");
    assert_eq!(b.len(), n * k, "B must be stored {n}x{k}");
    assert_eq!(c.len(), m * n, "C must be {m}x{n}");
    driver(
        m,
        k,
        n,
        Mat::normal(a, m, k),
        Mat::transposed(b, n, k),
        c,
        true,
    );
}

/// Path- and thread-dispatching driver. Resolves the execution context
/// once, zeroes `C` unless accumulating, then routes to the stream or
/// packed path (see the module docs).
fn driver(m: usize, k: usize, n: usize, a: Mat<'_>, b: Mat<'_>, c: &mut [f32], accumulate: bool) {
    if m == 0 || n == 0 {
        return;
    }
    if !accumulate {
        c.fill(0.0);
    }
    if k == 0 {
        return;
    }
    let exec::Exec {
        threads,
        kernel,
        tuning: t,
    } = exec::current();
    let threads = fan_out(m * k * n, threads, &t);

    if !b.transposed && m <= t.stream_max_rows {
        stream_driver(kernel, m, k, n, a, b, c, threads);
        return;
    }

    let threads = threads.min(m.div_ceil(MR));
    if threads <= 1 {
        multiply_rows(kernel, m, 0, k, n, a, BBlocks::Lazy(b), c, t);
        return;
    }
    let bp = pack_b_full(b, k, n, t.nc);
    // Round row chunks up to MR so tile boundaries stay aligned and no
    // worker gets an empty range. Workers share the read-only packed B.
    let rows_per = m.div_ceil(threads).div_ceil(MR) * MR;
    let bp = &bp;
    std::thread::scope(|scope| {
        for (chunk_idx, c_rows) in c.chunks_mut(rows_per * n).enumerate() {
            let row0 = chunk_idx * rows_per;
            let rows = c_rows.len() / n;
            scope.spawn(move || {
                multiply_rows(kernel, rows, row0, k, n, a, BBlocks::Shared(bp), c_rows, t);
            });
        }
    });
}

/// Threads a product of `macs` multiply-adds runs on: all `threads` from
/// [`Tuning::parallel_macs`] on, one below it.
fn fan_out(macs: usize, threads: usize, t: &Tuning) -> usize {
    if macs < t.parallel_macs {
        1
    } else {
        threads
    }
}

/// Where the packed path's row kernel takes its `(NC, KC)` blocks of `B`.
#[derive(Clone, Copy)]
enum BBlocks<'a> {
    /// All of `B`, packed up front and shared by every worker.
    Shared(&'a PackedB),
    /// Each block packed just before use into one reused buffer: a lone
    /// worker visits every block once, so holding all of packed `B` would
    /// only grow the footprint and evict the block from cache.
    Lazy(Mat<'a>),
}

/// All of `B`, packed once into `NR`-column panels grouped by
/// `(NC, KC)` cache block; indexed `(jc_idx, pc_idx)`.
struct PackedB {
    data: Vec<f32>,
    /// Offset of block `jc_idx * pc_count + pc_idx` in `data`.
    offsets: Vec<usize>,
    pc_count: usize,
}

impl PackedB {
    #[inline]
    fn block(&self, jc_idx: usize, pc_idx: usize) -> &[f32] {
        let i = jc_idx * self.pc_count + pc_idx;
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Packs all of `B` up front (see [`PackedB`]). Packing once — instead of
/// once per worker per block, as the old row-partitioned driver did — is
/// what makes the thread fan-out profitable on packing-bound shapes.
fn pack_b_full(b: Mat<'_>, k: usize, n: usize, nc_block: usize) -> PackedB {
    let pc_count = k.div_ceil(KC);
    let jc_count = n.div_ceil(nc_block);
    let mut offsets = Vec::with_capacity(jc_count * pc_count + 1);
    let mut total = 0usize;
    for jc_idx in 0..jc_count {
        let nc = nc_block.min(n - jc_idx * nc_block);
        for pc_idx in 0..pc_count {
            let kc = KC.min(k - pc_idx * KC);
            offsets.push(total);
            total += nc.div_ceil(NR) * NR * kc;
        }
    }
    offsets.push(total);
    let mut data = vec![0.0f32; total];
    for jc_idx in 0..jc_count {
        let jc = jc_idx * nc_block;
        let nc = nc_block.min(n - jc);
        for pc_idx in 0..pc_count {
            let pc = pc_idx * KC;
            let kc = KC.min(k - pc);
            let i = jc_idx * pc_count + pc_idx;
            pack_b(&mut data[offsets[i]..offsets[i + 1]], b, pc, kc, jc, nc);
        }
    }
    PackedB {
        data,
        offsets,
        pc_count,
    }
}

/// Packed-path kernel over a row range: computes `C[row0..row0+rows, :]`
/// into `c` (a `rows`×`n` slice) against the blocks of `B`, which were
/// packed with the `NC` of `t`. Accumulation order per element is fixed:
/// `KC` blocks ascending, `k` ascending within each block.
#[allow(clippy::too_many_arguments)]
fn multiply_rows(
    kernel: Kernel,
    rows: usize,
    row0: usize,
    k: usize,
    n: usize,
    a: Mat<'_>,
    b: BBlocks<'_>,
    c: &mut [f32],
    t: Tuning,
) {
    let (mc_block, nc_block) = (t.mc, t.nc);
    let mut packs = PACKS.take();
    let Packs {
        a: a_pack,
        b: b_pack,
    } = &mut packs;
    // `pack_a` writes every slot `multiply_block` reads.
    a_pack.resize(a_pack.len().max(mc_block.div_ceil(MR) * MR * KC), 0.0);
    for (jc_idx, jc) in (0..n).step_by(nc_block).enumerate() {
        let nc = nc_block.min(n - jc);
        for (pc_idx, pc) in (0..k).step_by(KC).enumerate() {
            let kc = KC.min(k - pc);
            let b_block = match b {
                BBlocks::Shared(bp) => bp.block(jc_idx, pc_idx),
                BBlocks::Lazy(b) => {
                    // `pack_b` writes every element, padding included.
                    let len = nc.div_ceil(NR) * NR * kc;
                    b_pack.resize(b_pack.len().max(len), 0.0);
                    pack_b(&mut b_pack[..len], b, pc, kc, jc, nc);
                    &b_pack[..len]
                }
            };
            for ic in (0..rows).step_by(mc_block) {
                let mc = mc_block.min(rows - ic);
                pack_a(a_pack, a, row0 + ic, mc, pc, kc);
                multiply_block(kernel, a_pack, b_block, c, ic, mc, jc, nc, kc, n);
            }
        }
    }
    PACKS.set(packs);
}

/// Packing buffers of the packed path, one pair per thread.
#[derive(Default)]
struct Packs {
    a: Vec<f32>,
    b: Vec<f32>,
}

thread_local! {
    /// The packed `A` and lazily packed `B` blocks of [`multiply_rows`],
    /// and the packed `A` of [`stream_driver`], reused across calls on
    /// this thread instead of allocated and zeroed per call. They grow to
    /// one `MC`×`KC` block of `A` (or all of a stream-path `A`, at most
    /// `stream_max_rows` rows) and one `KC`×`NC` block of `B`.
    static PACKS: std::cell::Cell<Packs> = const {
        std::cell::Cell::new(Packs { a: Vec::new(), b: Vec::new() })
    };
}

/// Packs `A[row0..row0+mc, pc..pc+kc]` into `MR`-row panels, each panel
/// stored k-major (`panel[p*MR + r]`, panel stride `MR·kc`), zero-padding
/// the row remainder so the microkernel never branches. When `A` is a
/// stored transpose, each panel slot is a contiguous run of the stored
/// layout and packs with `copy_from_slice`; otherwise the panel's rows are
/// interleaved ([`interleave_rows`]).
fn pack_a(pack: &mut [f32], a: Mat<'_>, row0: usize, mc: usize, pc: usize, kc: usize) {
    for (panel_idx, panel) in pack.chunks_mut(MR * kc).enumerate().take(mc.div_ceil(MR)) {
        let r0 = row0 + panel_idx * MR;
        let live = MR.min(row0 + mc - r0);
        if a.transposed {
            for (p, slot) in panel.chunks_exact_mut(MR).enumerate().take(kc) {
                let (head, pad) = slot.split_at_mut(live);
                head.copy_from_slice(&a.data[(pc + p) * a.stride + r0..][..live]);
                pad.fill(0.0);
            }
        } else {
            let mut rows: [&[f32]; MR] = [&[]; MR];
            for (r, row) in rows.iter_mut().enumerate().take(live) {
                *row = &a.data[(r0 + r) * a.stride + pc..][..kc];
            }
            interleave_rows::<MR>(panel, &rows[..live], kc);
        }
    }
}

/// Packs `B[pc..pc+kc, jc..jc+nc]` into `NR`-column panels, each panel
/// stored k-major (`panel[p*NR + c]`, panel stride `NR·kc`), zero-padding
/// the column remainder. For row-major `B` each panel slot is a contiguous
/// row run, so the common case is a straight `copy_from_slice`; a stored
/// transpose has its panel's columns interleaved ([`interleave_rows`]).
fn pack_b(pack: &mut [f32], b: Mat<'_>, pc: usize, kc: usize, jc: usize, nc: usize) {
    for (panel_idx, panel) in pack.chunks_mut(NR * kc).enumerate().take(nc.div_ceil(NR)) {
        let c0 = jc + panel_idx * NR;
        let live = NR.min(jc + nc - c0);
        if b.transposed {
            let mut cols: [&[f32]; NR] = [&[]; NR];
            for (c, col) in cols.iter_mut().enumerate().take(live) {
                *col = &b.data[(c0 + c) * b.stride + pc..][..kc];
            }
            interleave_rows::<NR>(panel, &cols[..live], kc);
        } else {
            for (p, slot) in panel.chunks_exact_mut(NR).enumerate().take(kc) {
                let (head, pad) = slot.split_at_mut(live);
                head.copy_from_slice(&b.data[(pc + p) * b.stride + c0..][..live]);
                pad.fill(0.0);
            }
        }
    }
}

/// Writes up to `W` source rows of `kc` values k-major into a `W`-wide
/// panel: `panel[p·W + r] = rows[r][p]` for `p < kc`, and zero for the
/// missing rows `r ≥ rows.len()`. The rows are read in `BLOCK`-long runs,
/// so each run is one vector load and the block a register transpose.
fn interleave_rows<const W: usize>(panel: &mut [f32], rows: &[&[f32]], kc: usize) {
    const BLOCK: usize = 8;
    debug_assert!(rows.len() <= W);
    let full = kc - kc % BLOCK;
    for (p0, slots) in (0..full)
        .step_by(BLOCK)
        .zip(panel.chunks_exact_mut(BLOCK * W))
    {
        let block: [[f32; BLOCK]; W] = std::array::from_fn(|r| match rows.get(r) {
            Some(row) => row[p0..p0 + BLOCK].try_into().expect("BLOCK run"),
            None => [0.0; BLOCK],
        });
        for (q, slot) in slots.chunks_exact_mut(W).enumerate() {
            for (out, run) in slot.iter_mut().zip(&block) {
                *out = run[q];
            }
        }
    }
    for (p, slot) in panel.chunks_exact_mut(W).enumerate().take(kc).skip(full) {
        for (r, out) in slot.iter_mut().enumerate() {
            *out = rows.get(r).map_or(0.0, |row| row[p]);
        }
    }
}

/// Multiplies one packed `mc`×`kc` A block against one packed `kc`×`nc` B
/// block, adding into `C[ic.., jc..]` (`ldc = n`).
#[allow(clippy::too_many_arguments)]
fn multiply_block(
    kernel: Kernel,
    a_pack: &[f32],
    b_block: &[f32],
    c: &mut [f32],
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kc: usize,
    n: usize,
) {
    for (a_idx, a_panel) in a_pack.chunks(MR * kc).enumerate().take(mc.div_ceil(MR)) {
        let r0 = a_idx * MR;
        let live_rows = MR.min(mc - r0);
        for (b_idx, b_panel) in b_block.chunks(NR * kc).enumerate().take(nc.div_ceil(NR)) {
            let c0 = b_idx * NR;
            let live_cols = NR.min(nc - c0);
            let tile = run_microkernel(kernel, live_rows, kc, a_panel, b_panel, NR);
            for (r, tile_row) in tile.iter().enumerate().take(live_rows) {
                let row = ic + r0 + r;
                let dst = &mut c[row * n + jc + c0..row * n + jc + c0 + live_cols];
                for (out, add) in dst.iter_mut().zip(tile_row) {
                    *out += add;
                }
            }
        }
    }
}

/// Stream-path driver for small `m` over row-major `B`: packs all of `A`
/// (a handful of panels), then walks `NR`-column tiles of `B` in place.
/// Threads fan out over disjoint `NR`-aligned column ranges of `C`.
#[allow(clippy::too_many_arguments)]
fn stream_driver(
    kernel: Kernel,
    m: usize,
    k: usize,
    n: usize,
    a: Mat<'_>,
    b: Mat<'_>,
    c: &mut [f32],
    threads: usize,
) {
    debug_assert!(!b.transposed);
    // All of A, packed once: panel stride MR·k, k-major — a KC-block
    // sub-panel is the contiguous slice [pc·MR, (pc+kc)·MR).
    let mut packs = PACKS.take();
    let len = m.div_ceil(MR) * MR * k;
    // `pack_a` writes every slot of its panels.
    packs.a.resize(packs.a.len().max(len), 0.0);
    pack_a(&mut packs.a[..len], a, 0, m, 0, k);
    stream_packed(kernel, m, k, n, &packs.a[..len], b, c, threads);
    PACKS.set(packs);
}

/// The stream path once all of `A` is packed into `a_pack`: one worker,
/// or threads over disjoint `NR`-aligned column ranges of `C`.
#[allow(clippy::too_many_arguments)]
fn stream_packed(
    kernel: Kernel,
    m: usize,
    k: usize,
    n: usize,
    a_pack: &[f32],
    b: Mat<'_>,
    c: &mut [f32],
    threads: usize,
) {
    let threads = threads.min(n.div_ceil(NR));
    if threads <= 1 {
        // SAFETY: the column range [0, n) covers C exactly once and the
        // pointer is derived from the exclusive borrow `c`; no other code
        // touches C until this call returns.
        unsafe { stream_cols(kernel, m, k, n, a_pack, b, c.as_mut_ptr(), 0, n) };
        return;
    }

    /// Raw base pointer of `C`, shared across workers that write disjoint
    /// column ranges.
    struct SendPtr(*mut f32);
    // SAFETY: every worker below writes only `C[r*n + j]` for `j` inside
    // its own disjoint `[j_lo, j_hi)` range, so sharing the base pointer
    // across scoped threads cannot produce an aliasing write.
    unsafe impl Send for SendPtr {}
    // SAFETY: as above — the shared reference is only used to copy the
    // base pointer into each worker's disjoint-range writes.
    unsafe impl Sync for SendPtr {}
    impl SendPtr {
        fn get(&self) -> *mut f32 {
            self.0
        }
    }

    let cols_per = n.div_ceil(threads).div_ceil(NR) * NR;
    let c_base = SendPtr(c.as_mut_ptr());
    let c_base = &c_base;
    std::thread::scope(|scope| {
        let mut j_lo = 0usize;
        while j_lo < n {
            let j_hi = (j_lo + cols_per).min(n);
            scope.spawn(move || {
                // SAFETY: `[j_lo, j_hi)` ranges are disjoint across workers
                // and within [0, n); the scoped spawn keeps the borrow of C
                // alive for the thread's lifetime.
                unsafe { stream_cols(kernel, m, k, n, a_pack, b, c_base.get(), j_lo, j_hi) };
            });
            j_lo = j_hi;
        }
    });
}

/// Stream-path worker: adds `A·B` contributions into the column range
/// `[j_lo, j_hi)` of `C` through a raw base pointer. Per-element
/// accumulation order is identical to the packed path (`KC` blocks
/// ascending, `k` ascending within each).
///
/// # Safety
///
/// `c` must point to an `m`×`n` row-major matrix valid for reads and
/// writes, `[j_lo, j_hi)` must be within `[0, n]`, and no other thread may
/// touch columns in `[j_lo, j_hi)` while this call runs.
// SAFETY: contract above; every pointer write below is `c + r*n + j` with
// `r < m` and `j` in the caller-guaranteed exclusive `[j_lo, j_hi)`.
#[allow(clippy::too_many_arguments)]
unsafe fn stream_cols(
    kernel: Kernel,
    m: usize,
    k: usize,
    n: usize,
    a_pack: &[f32],
    b: Mat<'_>,
    c: *mut f32,
    j_lo: usize,
    j_hi: usize,
) {
    let panels = m.div_ceil(MR);
    // Scratch for the ragged last column tile, packed and zero-padded.
    let mut tail = Vec::new();
    let mut j0 = j_lo;
    while j0 < j_hi {
        let live = NR.min(j_hi - j0);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let b_tile: &[f32] = if live == NR {
                // Rows pc..pc+kc at stride n, NR columns from j0: the last
                // element read is (pc+kc-1)*n + j0+NR <= k*n.
                &b.data[pc * b.stride + j0..]
            } else {
                // `pack_b` writes every element, padding included.
                tail.resize(NR * kc, 0.0);
                pack_b(&mut tail, b, pc, kc, j0, live);
                &tail
            };
            let ldb = if live == NR { b.stride } else { NR };
            for (a_idx, a_panel_full) in a_pack.chunks(MR * k).enumerate().take(panels) {
                let a_panel = &a_panel_full[pc * MR..(pc + kc) * MR];
                let r0 = a_idx * MR;
                let live_rows = MR.min(m - r0);
                let tile = run_microkernel(kernel, live_rows, kc, a_panel, b_tile, ldb);
                for (r, tile_row) in tile.iter().enumerate().take(live_rows) {
                    let base = (r0 + r) * n + j0;
                    for (lane, add) in tile_row.iter().enumerate().take(live) {
                        let dst = c.add(base + lane);
                        dst.write(dst.read() + add);
                    }
                }
            }
        }
        j0 += NR;
    }
}

/// One register tile: `tile[r][c]` for `r < MR`, `c < NR`.
type Tile = [[f32; NR]; MR];

/// Dispatches one `MR`×`NR` register tile to the active microkernel:
/// `tile[r][c] = Σ_p a_panel[p·MR + r] · b[p·ldb + c]` over `kc` steps,
/// `k` ascending. Only the first `rows` tile rows are used; the scalar,
/// AVX2 and AVX-512 kernels compute just those (the others compute all
/// `MR`), so a one-row product does not pay for seven rows of padding. All
/// implementations produce bitwise-identical rows.
#[inline]
fn run_microkernel(
    kernel: Kernel,
    rows: usize,
    kc: usize,
    a_panel: &[f32],
    b: &[f32],
    ldb: usize,
) -> Tile {
    assert!((1..=MR).contains(&rows), "tile rows out of range");
    assert!(a_panel.len() >= kc * MR, "packed A panel too short");
    assert!(
        kc == 0 || b.len() >= (kc - 1) * ldb + NR,
        "B region too short for kc={kc} ldb={ldb}"
    );
    match kernel {
        Kernel::Scalar => microkernel_scalar(rows, kc, a_panel, b, ldb),
        #[cfg(target_arch = "x86_64")]
        Kernel::Sse => {
            // SAFETY: lengths checked above; SSE2 is baseline on x86-64.
            unsafe { x86::microkernel_sse(kc, a_panel, b, ldb) }
        }
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => {
            // SAFETY: lengths and `rows` checked above; `Kernel::Avx2` is
            // only reachable when `available_kernels` detected AVX2.
            unsafe { x86::AVX2[rows - 1](kc, a_panel, b, ldb) }
        }
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => {
            // SAFETY: lengths and `rows` checked above; `Kernel::Avx512` is
            // only reachable when `available_kernels` detected AVX-512F.
            unsafe { x86::AVX512[rows - 1](kc, a_panel, b, ldb) }
        }
        #[cfg(target_arch = "aarch64")]
        Kernel::Neon => {
            // SAFETY: lengths checked above; NEON is baseline on aarch64.
            unsafe { neon::microkernel_neon(kc, a_panel, b, ldb) }
        }
        // Kernel variants for other architectures are never returned by
        // `available_kernels` on this target; fall back defensively.
        #[allow(unreachable_patterns)]
        _ => microkernel_scalar(rows, kc, a_panel, b, ldb),
    }
}

/// Columns per strip of the scalar, AVX2 and NEON kernels: one 8-lane
/// vector (two on NEON), with `MR` accumulators per strip.
const STRIP: usize = 8;

/// Portable reference microkernel over the first `rows` tile rows. The
/// tile is computed in `STRIP`-column strips whose fixed-size accumulator
/// arrays stay in registers and let LLVM vectorize the lane loop.
#[inline]
fn microkernel_scalar(rows: usize, kc: usize, a_panel: &[f32], b: &[f32], ldb: usize) -> Tile {
    let mut tile = [[0.0f32; NR]; MR];
    for j in (0..NR).step_by(STRIP) {
        let mut acc = [[0.0f32; STRIP]; MR];
        for p in 0..kc {
            let a = &a_panel[p * MR..p * MR + rows];
            let bv: &[f32; STRIP] = b[p * ldb + j..p * ldb + j + STRIP]
                .try_into()
                .expect("STRIP chunk");
            for (acc_row, &ar) in acc.iter_mut().zip(a) {
                for (x, &v) in acc_row.iter_mut().zip(bv) {
                    *x += ar * v;
                }
            }
        }
        for (tile_row, acc_row) in tile.iter_mut().zip(&acc) {
            tile_row[j..j + STRIP].copy_from_slice(acc_row);
        }
    }
    tile
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! x86-64 microkernels. All use separate multiply and add
    //! instructions — **never FMA** — so each lane performs the exact
    //! IEEE-754 operation sequence of the scalar kernel and results stay
    //! bitwise-identical across kernels (see the module determinism note).

    use super::{Tile, MR, NR, STRIP};
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// A microkernel computing the first `R` rows of the tile, for each
    /// `R` in `1..=MR` (index `R - 1`).
    // SAFETY: a pointer type, not an operation; `run_microkernel` meets
    // the entries' contract (below) before calling through a table.
    type Rows = [unsafe fn(usize, &[f32], &[f32], usize) -> Tile; MR];

    /// [`microkernel_avx512`] by row count.
    pub(super) const AVX512: Rows = [
        microkernel_avx512::<1>,
        microkernel_avx512::<2>,
        microkernel_avx512::<3>,
        microkernel_avx512::<4>,
        microkernel_avx512::<5>,
        microkernel_avx512::<6>,
        microkernel_avx512::<7>,
        microkernel_avx512::<8>,
    ];

    /// [`microkernel_avx2`] by row count.
    pub(super) const AVX2: Rows = [
        microkernel_avx2::<1>,
        microkernel_avx2::<2>,
        microkernel_avx2::<3>,
        microkernel_avx2::<4>,
        microkernel_avx2::<5>,
        microkernel_avx2::<6>,
        microkernel_avx2::<7>,
        microkernel_avx2::<8>,
    ];

    /// AVX-512F tile over its first `R` rows: two 16-lane vectors per
    /// row, `2·R` independent accumulator chains (16 for a full tile), `a`
    /// broadcast per step.
    ///
    /// # Safety
    ///
    /// `R <= MR`, `a.len() >= kc*MR` and (for `kc > 0`)
    /// `b.len() >= (kc-1)*ldb + NR`; the host must support AVX-512F.
    // SAFETY: the contract above is asserted by `run_microkernel`, the
    // only caller; all pointer reads below stay inside those bounds.
    #[target_feature(enable = "avx512f")]
    unsafe fn microkernel_avx512<const R: usize>(
        kc: usize,
        a: &[f32],
        b: &[f32],
        ldb: usize,
    ) -> Tile {
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut lo = [_mm512_setzero_ps(); R];
        let mut hi = [_mm512_setzero_ps(); R];
        for p in 0..kc {
            let blo = _mm512_loadu_ps(bp.add(p * ldb));
            let bhi = _mm512_loadu_ps(bp.add(p * ldb + 16));
            let ar = ap.add(p * MR);
            for r in 0..R {
                let av = _mm512_set1_ps(*ar.add(r));
                lo[r] = _mm512_add_ps(lo[r], _mm512_mul_ps(av, blo));
                hi[r] = _mm512_add_ps(hi[r], _mm512_mul_ps(av, bhi));
            }
        }
        let mut tile = [[0.0f32; NR]; MR];
        for r in 0..R {
            _mm512_storeu_ps(tile[r].as_mut_ptr(), lo[r]);
            _mm512_storeu_ps(tile[r].as_mut_ptr().add(16), hi[r]);
        }
        tile
    }

    /// AVX2 tile over its first `R` rows as four 8-column strips: one
    /// 8-lane vector per row and strip, `R` independent accumulator chains
    /// (8 for a full tile), `a` broadcast per step.
    ///
    /// # Safety
    ///
    /// `R <= MR`, `a.len() >= kc*MR` and (for `kc > 0`)
    /// `b.len() >= (kc-1)*ldb + NR`; the host must support AVX2.
    // SAFETY: the contract above is asserted by `run_microkernel`, the
    // only caller; all pointer reads below stay inside those bounds.
    #[target_feature(enable = "avx2")]
    unsafe fn microkernel_avx2<const R: usize>(
        kc: usize,
        a: &[f32],
        b: &[f32],
        ldb: usize,
    ) -> Tile {
        let ap = a.as_ptr();
        let mut tile = [[0.0f32; NR]; MR];
        for j in (0..NR).step_by(STRIP) {
            let bp = b.as_ptr().add(j);
            let mut acc = [_mm256_setzero_ps(); R];
            for p in 0..kc {
                let bv = _mm256_loadu_ps(bp.add(p * ldb));
                let ar = ap.add(p * MR);
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    *acc_r = _mm256_add_ps(*acc_r, _mm256_mul_ps(_mm256_set1_ps(*ar.add(r)), bv));
                }
            }
            for (row, v) in tile.iter_mut().zip(acc) {
                _mm256_storeu_ps(row.as_mut_ptr().add(j), v);
            }
        }
        tile
    }

    /// SSE2 8×32 tile as eight 4×8 sub-tiles: two 4-lane vectors per row.
    ///
    /// # Safety
    ///
    /// `a.len() >= kc*MR` and (for `kc > 0`) `b.len() >= (kc-1)*ldb + NR`.
    // SAFETY: the contract above is asserted by `run_microkernel`, the
    // only caller; SSE2 is part of the x86-64 baseline.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn microkernel_sse(kc: usize, a: &[f32], b: &[f32], ldb: usize) -> Tile {
        const ROWS: usize = 4;
        let mut tile = [[0.0f32; NR]; MR];
        for r0 in (0..MR).step_by(ROWS) {
            let ap = a.as_ptr().add(r0);
            for j in (0..NR).step_by(8) {
                let bp = b.as_ptr().add(j);
                let mut lo = [_mm_setzero_ps(); ROWS];
                let mut hi = [_mm_setzero_ps(); ROWS];
                for p in 0..kc {
                    let blo = _mm_loadu_ps(bp.add(p * ldb));
                    let bhi = _mm_loadu_ps(bp.add(p * ldb + 4));
                    let ar = ap.add(p * MR);
                    for r in 0..ROWS {
                        let av = _mm_set1_ps(*ar.add(r));
                        lo[r] = _mm_add_ps(lo[r], _mm_mul_ps(av, blo));
                        hi[r] = _mm_add_ps(hi[r], _mm_mul_ps(av, bhi));
                    }
                }
                for r in 0..ROWS {
                    _mm_storeu_ps(tile[r0 + r].as_mut_ptr().add(j), lo[r]);
                    _mm_storeu_ps(tile[r0 + r].as_mut_ptr().add(j + 4), hi[r]);
                }
            }
        }
        tile
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! aarch64 NEON microkernel. Separate `vmulq`/`vaddq` (never fused)
    //! keep results bitwise-identical to the scalar kernel.

    use super::{Tile, MR, NR, STRIP};
    #[allow(clippy::wildcard_imports)]
    use std::arch::aarch64::*;

    /// NEON 8×32 tile as four 8×8 strips: two 4-lane vectors per row and
    /// strip, sixteen accumulators.
    ///
    /// # Safety
    ///
    /// `a.len() >= kc*MR` and (for `kc > 0`) `b.len() >= (kc-1)*ldb + NR`.
    // SAFETY: the contract above is asserted by `run_microkernel`, the
    // only caller; NEON is part of the aarch64 baseline.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn microkernel_neon(kc: usize, a: &[f32], b: &[f32], ldb: usize) -> Tile {
        let ap = a.as_ptr();
        let mut tile = [[0.0f32; NR]; MR];
        for j in (0..NR).step_by(STRIP) {
            let bp = b.as_ptr().add(j);
            let mut lo = [vdupq_n_f32(0.0); MR];
            let mut hi = [vdupq_n_f32(0.0); MR];
            for p in 0..kc {
                let blo = vld1q_f32(bp.add(p * ldb));
                let bhi = vld1q_f32(bp.add(p * ldb + 4));
                let ar = ap.add(p * MR);
                for r in 0..MR {
                    let av = vdupq_n_f32(*ar.add(r));
                    lo[r] = vaddq_f32(lo[r], vmulq_f32(av, blo));
                    hi[r] = vaddq_f32(hi[r], vmulq_f32(av, bhi));
                }
            }
            for r in 0..MR {
                vst1q_f32(tile[r].as_mut_ptr().add(j), lo[r]);
                vst1q_f32(tile[r].as_mut_ptr().add(j + 4), hi[r]);
            }
        }
        tile
    }
}

#[cfg(test)]
// Exact float assertions are deliberate here: bitwise identity across
// kernels, paths, and thread counts is the module's core contract.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::exec::{current, scoped, Exec, Tuning};

    /// Reference triple loop, k ascending — the accumulation order the
    /// blocked kernel must reproduce exactly for k ≤ KC.
    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    c[i * n + j] += av * b[p * n + j];
                }
            }
        }
        c
    }

    /// `A·B` computed under the execution context `exec`.
    fn gemm_under(exec: Exec, m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        scoped(exec, || {
            let mut c = vec![0.0f32; m * n];
            gemm(m, k, n, a, b, &mut c);
            c
        })
    }

    fn arb(len: usize, seed: u64) -> Vec<f32> {
        // Small deterministic pseudo-random values without pulling in rand.
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

    #[test]
    fn default_tuning_keeps_model_products_on_one_thread() {
        let t = Tuning::default();
        // The classifiers' batch-1 dense products, then the largest
        // products of their batch-32 training (alexnet-mini's dense1 and
        // conv2 weight gradient).
        for (m, k, n) in [
            (1, 1536, 96),
            (1, 1024, 128),
            (32, 1536, 96),
            (16, 8192, 72),
        ] {
            assert_eq!(fan_out(m * k * n, 2, &t), 1, "{m}x{k}x{n}");
        }
        assert_eq!(fan_out(512 * 512 * 512, 2, &t), 2);
    }

    #[test]
    fn matches_naive_on_awkward_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (16, 150, 64),
            (65, 13, 9),
            (7, 300, 33),
        ] {
            let a = arb(m * k, 1 + m as u64);
            let b = arb(k * n, 2 + n as u64);
            let mut c = vec![f32::NAN; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            let want = naive(m, k, n, &a, &b);
            for (got, want) in c.iter().zip(&want) {
                assert!((got - want).abs() <= 1e-4, "({m},{k},{n}): {got} vs {want}");
            }
        }
    }

    #[test]
    fn bitwise_identical_to_naive_within_one_k_block() {
        // For k ≤ KC the accumulation order is literally identical, so the
        // result must match the naive loop bit for bit.
        let (m, k, n) = (10, 100, 20);
        let a = arb(m * k, 3);
        let b = arb(k * n, 4);
        let mut c = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut c);
        assert_eq!(c, naive(m, k, n, &a, &b));
    }

    #[test]
    fn all_available_kernels_are_bitwise_identical() {
        // Shapes chosen to hit full tiles, row/column remainders, K=0/K=1
        // degeneracies, multiple KC blocks, and both data paths.
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 300, 8),
            (5, 7, 19),
            (6, 25, 96),
            (13, 40, 21),
            (33, 520, 17),
        ] {
            let a = arb(m * k, 11 + m as u64);
            let b = arb(k * n, 13 + n as u64);
            let base = current();
            let run = |kernel| gemm_under(Exec { kernel, ..base }, m, k, n, &a, &b);
            let reference = run(Kernel::Scalar);
            for kern in available_kernels() {
                assert_eq!(run(kern), reference, "kernel {} ({m},{k},{n})", kern.name());
            }
        }
    }

    #[test]
    fn stream_and_packed_paths_are_bitwise_identical() {
        // Same shape, stream_max_rows toggled: per-element accumulation
        // order is KC-blocked in both paths, so bits must match.
        let (m, k, n) = (6, 520, 40);
        let a = arb(m * k, 21);
        let b = arb(k * n, 22);
        let base = current();
        let run = |stream_max_rows| {
            let tuning = Tuning {
                stream_max_rows,
                ..Tuning::default()
            };
            gemm_under(Exec { tuning, ..base }, m, k, n, &a, &b)
        };
        assert_eq!(run(8), run(0));
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let (m, k, n) = (6, 11, 9);
        let a_t = arb(k * m, 5); // stored [k, m]
        let b = arb(k * n, 6);
        let mut c = vec![0.0f32; m * n];
        gemm_tn(m, k, n, &a_t, &b, &mut c);
        // Explicitly transpose then gemm.
        let mut a = vec![0.0f32; m * k];
        for p in 0..k {
            for i in 0..m {
                a[i * k + p] = a_t[p * m + i];
            }
        }
        let mut want = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut want);
        assert_eq!(c, want);
    }

    #[test]
    fn nt_matches_explicit_transpose_and_accumulates() {
        let (m, k, n) = (5, 13, 8);
        let a = arb(m * k, 7);
        let b_t = arb(n * k, 8); // stored [n, k]
        let mut c = vec![0.0f32; m * n];
        gemm_nt(m, k, n, &a, &b_t, &mut c);
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = b_t[j * k + p];
            }
        }
        let mut want = vec![0.0f32; m * n];
        gemm(m, k, n, &a, &b, &mut want);
        assert_eq!(c, want);

        // Accumulating variant adds on top.
        let mut acc = want.clone();
        gemm_nt_acc(m, k, n, &a, &b_t, &mut acc);
        for (x, w) in acc.iter().zip(&want) {
            assert_eq!(*x, 2.0 * w);
        }
    }

    #[test]
    fn worker_count_does_not_change_bits() {
        // Large enough to cross the parallel threshold and span several
        // row chunks and KC blocks.
        let (m, k, n) = (96, 300, 48);
        let a = arb(m * k, 9);
        let b = arb(k * n, 10);
        let base = current();
        let run = |threads| gemm_under(Exec { threads, ..base }, m, k, n, &a, &b);
        let serial = run(1);
        for threads in [2, 3, 4, 7] {
            assert_eq!(run(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn stream_path_thread_count_does_not_change_bits() {
        // Small m → stream path; force the parallel column fan-out by
        // dropping the threshold to zero.
        let (m, k, n) = (4, 60, 75);
        let a = arb(m * k, 31);
        let b = arb(k * n, 32);
        let tiny = Tuning {
            parallel_macs: 0,
            ..Tuning::default()
        };
        let run = |threads| {
            let exec = Exec {
                threads,
                tuning: tiny,
                ..current()
            };
            gemm_under(exec, m, k, n, &a, &b)
        };
        let serial = run(1);
        for threads in [2, 3, 5] {
            let parallel = run(threads);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn zero_k_zeroes_or_preserves() {
        let mut c = vec![1.0f32; 6];
        gemm(2, 0, 3, &[], &[], &mut c);
        assert_eq!(c, vec![0.0; 6]);
        let mut c = vec![1.0f32; 6];
        gemm_nt_acc(2, 0, 3, &[], &[], &mut c);
        assert_eq!(c, vec![1.0; 6]);
    }
}
