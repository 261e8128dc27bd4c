//! The execution context every compute kernel reads: worker count,
//! microkernel, and dispatch tuning.
//!
//! [`current`] resolves each field in one order:
//!
//! 1. an active [`scoped`] override (tests and the bench bins; production
//!    code never installs one),
//! 2. the environment, read once per process: `MVML_THREADS` (a positive
//!    integer; `0` or garbage is ignored),
//! 3. host and built-in defaults: the machine's available parallelism, the
//!    best kernel in [`available_kernels`], and [`Tuning::default`].
//!
//! A thread running a pool job sees a smaller `threads`: its share of the
//! budget of the context that spawned the job,
//! `min(threads, max(1, parent_threads / workers))`, where `workers` counts
//! the pool's threads that run concurrently, the caller's own inline chunk
//! included (see [`crate::parallel`]). A GEMM or a nested pool inside a job
//! therefore fans out only over that job's slice of the cores, and nested
//! fan-outs never ask for more threads than the outermost budget.
//!
//! Thread count and kernel never change a computed value — the GEMM and
//! every parallel loop are bitwise-identical across both — and neither do
//! the GEMM fields of [`Tuning`]. Its three `conv_gemm_min_*` fields do:
//! they route convolutions between two summation orders (see [`Tuning`]).
//! Reads are lock-free while no scope is active.

use crate::gemm::{available_kernels, Kernel};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// The GEMM blocking and the [`crate::layers::Conv2d`] `Auto` route.
///
/// The process default is [`Tuning::default`]; only a [`scoped`] override
/// installs another (tests force tiny blocks, the packed path or an
/// all-GEMM route with it).
///
/// `mc`, `nc`, `stream_max_rows` and `parallel_macs` never change a
/// computed value: the per-element accumulation order is pinned by the
/// fixed `KC` constant and the KC-blocked loop order in [`crate::gemm`]
/// (see its determinism note). The three `conv_gemm_min_*` fields do: they
/// choose between the GEMM and the direct loops, which sum each output in
/// different orders, so moving a threshold across a layer's shape trains
/// different weights. Route changes are source changes, with the pinned
/// weight hashes re-pinned.
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

/// How compute kernels execute: fan-out width, microkernel, and tuning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exec {
    /// Worker threads for parallel loops and large GEMMs (≥ 1).
    pub threads: usize,
    /// The GEMM / int8 microkernel.
    pub kernel: Kernel,
    /// Cache blocks and path/parallel thresholds.
    pub tuning: Tuning,
}

/// The override installed by the innermost active [`scoped`] call. Every
/// write is a single assignment, so a poisoned lock still holds a valid
/// value and is recovered.
static SCOPED: Mutex<Option<Exec>> = Mutex::new(None);
/// True only while a [`scoped`] call is active: keeps [`current`]
/// lock-free otherwise. Stored with `Release` after [`SCOPED`] is written
/// and loaded with `Acquire`, so a reader that sees `true` finds the
/// override in place.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Held by the outermost [`scoped`] call, serializing scopes across threads.
static GUARD: Mutex<()> = Mutex::new(());

thread_local! {
    /// True while this thread holds [`GUARD`], so nested scopes skip it.
    static IN_SCOPE: Cell<bool> = const { Cell::new(false) };
    /// The thread budget of the pool job this thread is running, if any.
    static SHARE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The context compute kernels run under: the innermost [`scoped`]
/// override, else the process default, with `threads` capped at this
/// thread's worker share inside a pool job (see the module docs).
pub fn current() -> Exec {
    let mut exec = resolved();
    if let Some(share) = SHARE.with(Cell::get) {
        exec.threads = exec.threads.min(share);
    }
    exec
}

/// The innermost [`scoped`] override, else the process default.
fn resolved() -> Exec {
    if ACTIVE.load(Ordering::Acquire) {
        if let Some(exec) = *SCOPED.lock().unwrap_or_else(PoisonError::into_inner) {
            return exec;
        }
    }
    process_default()
}

/// The thread budget of each of `workers` (≥ 1) concurrent pool jobs
/// spawned from this thread: an even split of [`current`]'s, at least one.
pub(crate) fn worker_share(workers: usize) -> usize {
    (current().threads / workers).max(1)
}

/// Runs `f` as a pool job whose thread budget is `share`: [`current`]
/// caps `threads` at it until `f` returns, and the enclosing budget is
/// restored on exit, panics included.
pub(crate) fn as_worker<R>(share: usize, f: impl FnOnce() -> R) -> R {
    struct Reset(Option<usize>);
    impl Drop for Reset {
        fn drop(&mut self) {
            SHARE.with(|s| s.set(self.0));
        }
    }
    let _reset = Reset(SHARE.with(|s| s.replace(Some(share))));
    f()
}

/// The context outside every scope, resolved on first use.
fn process_default() -> Exec {
    static DEFAULT: OnceLock<Exec> = OnceLock::new();
    *DEFAULT.get_or_init(|| Exec {
        threads: threads_from_env()
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        kernel: *available_kernels().last().unwrap_or(&Kernel::Scalar),
        tuning: Tuning::default(),
    })
}

/// The worker count `MVML_THREADS` asks for; `None` when it is unset,
/// zero, or not an integer.
fn threads_from_env() -> Option<usize> {
    std::env::var("MVML_THREADS")
        .ok()
        .and_then(|raw| parse_threads(&raw))
}

fn parse_threads(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Restores the enclosing override (and releases the guard if this is the
/// outermost scope) even if the closure panics.
struct Restore {
    previous: Option<Exec>,
    guard: Option<MutexGuard<'static, ()>>,
}

impl Drop for Restore {
    fn drop(&mut self) {
        *SCOPED.lock().unwrap_or_else(PoisonError::into_inner) = self.previous;
        ACTIVE.store(self.previous.is_some(), Ordering::Release);
        if self.guard.is_some() {
            IN_SCOPE.with(|s| s.set(false));
        }
    }
}

/// Runs `f` with [`current`] returning `exec`, process-wide (worker
/// threads see it too, with `threads` capped at their share). Scopes on
/// different threads are serialized; nesting on the same thread is
/// allowed, and the enclosing context is restored on exit, panics
/// included. Override one field with struct update syntax:
/// `scoped(Exec { threads: 1, ..current() }, f)`.
///
/// # Panics
///
/// Panics if `exec.threads` is zero or `exec.kernel` is not in
/// [`available_kernels`] on this host.
pub fn scoped<R>(exec: Exec, f: impl FnOnce() -> R) -> R {
    assert!(exec.threads > 0, "thread count must be positive");
    assert!(
        available_kernels().contains(&exec.kernel),
        "kernel {} is not available on this host",
        exec.kernel.name()
    );
    let nested = IN_SCOPE.with(|s| s.replace(true));
    let guard = (!nested).then(|| GUARD.lock().unwrap_or_else(PoisonError::into_inner));
    let previous = SCOPED
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .replace(exec);
    let _restore = Restore { previous, guard };
    ACTIVE.store(true, Ordering::Release);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{ThreadPool, WorkerPool};

    // Scopes are process-wide and tests run concurrently, so exact
    // assertions run inside an enclosing scope of their own: it holds the
    // guard, which keeps every other test's scope out until it exits.

    fn exec(threads: usize, kernel: Kernel, stream_max_rows: usize) -> Exec {
        Exec {
            threads,
            kernel,
            tuning: Tuning {
                stream_max_rows,
                ..Tuning::default()
            },
        }
    }

    #[test]
    fn scopes_override_nest_and_restore_every_field() {
        let kernels = available_kernels();
        let outer = exec(2, kernels[0], 11);
        let inner = exec(5, *kernels.last().unwrap(), 22);
        let innermost = exec(1, kernels[0], 33);
        let seen = scoped(outer, || {
            let nested = scoped(inner, || (scoped(innermost, current), current()));
            (nested, current())
        });
        assert_eq!(seen, ((innermost, inner), outer));
        assert_ne!(current(), outer, "the outermost scope clears its override");
    }

    #[test]
    fn scoped_restores_on_panic() {
        let outer = exec(2, Kernel::Scalar, 13);
        let forced = exec(4, Kernel::Scalar, 55);
        let after = scoped(outer, || {
            let inner = std::panic::catch_unwind(|| scoped(forced, || panic!("boom")));
            assert!(inner.is_err());
            current()
        });
        assert_eq!(after, outer, "a panicking nested scope restores its parent");
        // A panicking outermost scope clears its override and releases the
        // guard: a later scope on this thread neither deadlocks nor leaks.
        let outermost = std::panic::catch_unwind(|| scoped(forced, || panic!("boom")));
        assert!(outermost.is_err());
        assert_ne!(current(), forced);
        assert_eq!(scoped(outer, current), outer);
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn scoped_rejects_zero_threads() {
        scoped(exec(0, Kernel::Scalar, 0), || {});
    }

    #[test]
    fn scopes_on_other_threads_are_serialized() {
        let mine = exec(6, Kernel::Scalar, 14);
        let theirs = exec(7, Kernel::Scalar, 15);
        let (entered, inside) = std::sync::mpsc::channel();
        let other = scoped(mine, || {
            let other = std::thread::spawn(move || {
                scoped(theirs, || {
                    entered.send(()).unwrap();
                    current()
                })
            });
            // The other thread cannot enter its scope while this one is
            // active, so it never replaces this thread's override.
            let wait = std::time::Duration::from_millis(50);
            assert!(inside.recv_timeout(wait).is_err());
            assert_eq!(current(), mine);
            other
        });
        assert_eq!(other.join().unwrap(), theirs);
    }

    #[test]
    fn pools_size_from_the_context() {
        let four = exec(4, Kernel::Scalar, 16);
        assert_eq!(scoped(four, || ThreadPool::new().workers()), 4);
        assert_eq!(scoped(four, || WorkerPool::new().workers()), 4);
    }

    #[test]
    fn pool_jobs_see_an_even_share_of_the_spawning_budget() {
        let threads_seen = |budget, workers, items: usize| {
            scoped(exec(budget, Kernel::Scalar, 17), || {
                ThreadPool::with_workers(workers).map((0..items).collect(), |_| current().threads)
            })
        };
        assert_eq!(threads_seen(4, 2, 2), vec![2; 2]);
        assert_eq!(threads_seen(2, 2, 4), vec![1; 4]);
        assert_eq!(threads_seen(2, 3, 3), vec![1; 3]);
        // Only the threads a call runs count: one item runs inline with
        // the whole budget.
        assert_eq!(threads_seen(4, 2, 1), vec![4]);
        let mut slots = vec![0usize; 4];
        scoped(exec(4, Kernel::Scalar, 17), || {
            ThreadPool::with_workers(2).for_each_mut(&mut slots, |_, t| *t = current().threads);
        });
        assert_eq!(slots, vec![2; 4]);
    }

    #[test]
    fn nested_pools_size_to_the_worker_share() {
        let inner = scoped(exec(4, Kernel::Scalar, 18), || {
            ThreadPool::with_workers(2).map(vec![0, 1], |_| {
                let pool = ThreadPool::new();
                let nested = pool.map(vec![0, 1], |_| current().threads);
                (pool.workers(), nested)
            })
        });
        assert_eq!(inner, vec![(2, vec![1, 1]); 2]);
    }

    #[test]
    fn worker_pool_jobs_see_the_share() {
        let seen = scoped(exec(4, Kernel::Scalar, 19), || {
            let pool = WorkerPool::with_workers(2);
            let jobs = (0..4).map(|_| current).collect();
            pool.run_all(jobs)
        });
        assert_eq!(seen.len(), 4);
        for outcome in seen {
            assert_eq!(outcome.map(|e| e.threads), Ok(2));
        }
    }

    #[test]
    fn callers_context_is_unchanged_after_a_fan_out() {
        let mine = exec(4, Kernel::Scalar, 20);
        let after = scoped(mine, || {
            let _ = ThreadPool::with_workers(2).map(vec![0, 1, 2], |x| x + 1);
            let mut data = [0u8; 3];
            ThreadPool::with_workers(3).for_each_mut(&mut data, |_, _| {});
            current()
        });
        assert_eq!(after, mine);
    }

    #[test]
    fn default_runs_the_best_available_kernel() {
        assert_eq!(available_kernels()[0], Kernel::Scalar);
        assert!(available_kernels().contains(&current().kernel));
        assert_eq!(Some(&process_default().kernel), available_kernels().last());
        assert!(process_default().threads > 0);
    }

    #[test]
    fn env_thread_count_parses_positive_integers_only() {
        for (raw, want) in [
            ("4", Some(4)),
            (" 3 ", Some(3)),
            ("0", None),
            ("", None),
            ("-1", None),
            ("abc", None),
        ] {
            assert_eq!(parse_threads(raw), want, "MVML_THREADS={raw:?}");
        }
    }
}
