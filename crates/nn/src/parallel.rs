//! Deterministic fan-out helpers for the compute-heavy outer loops.
//!
//! Pools are sized by the `threads` field of the execution context
//! ([`crate::exec::current`]): a scoped override, else the `MVML_THREADS`
//! environment variable (read once), else the machine's available
//! parallelism.
//!
//! Nested fan-outs compose without oversubscribing the cores. Every pool
//! job runs with a worker share of its spawner's budget: inside it,
//! `exec::current().threads` is `max(1, parent_threads / workers)` (capped
//! by the context's own count), where `workers` is the number of threads
//! that run the call's jobs concurrently. A [`ThreadPool`] call counts the
//! caller, which runs the first chunk itself; a [`WorkerPool`] counts its
//! persistent workers and splits the budget of the thread that built it.
//! A GEMM or a `ThreadPool::new()` inside a job therefore sizes to that
//! job's slice of the cores.
//!
//! Benchmark and table-regeneration runs are reproducible
//! because every parallelized loop in this workspace partitions work so
//! that **results are identical for any thread count** — threads only
//! change which worker computes which disjoint slice, never the
//! accumulation order within a slice.

use crate::exec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};

/// A scoped fan-out pool over a fixed number of workers.
///
/// Not a persistent pool: each call splits its items into one contiguous
/// chunk per worker, runs the first chunk on the calling thread and the
/// rest on scoped threads spawned for the call, so `workers − 1` threads
/// are spawned per call. Scoped threads keep the implementation safe-Rust
/// and borrow-friendly (closures may borrow from the caller's stack), and
/// running a chunk inline keeps the caller's memory arena in use instead
/// of leaving the work's freed memory in fresh threads' arenas. With one
/// worker every method runs inline, so `MVML_THREADS=1` gives a genuinely
/// serial, easily-profiled execution.
///
/// Each chunk runs as a pool job: [`exec::current`] inside it reports the
/// chunk's share of the caller's thread budget (see [`crate::exec`]), so
/// GEMMs and nested pools inside `f` never oversubscribe the cores. A
/// panic in any chunk, the caller's included, is re-raised on the caller
/// with its original payload once every chunk has stopped.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPool {
    workers: usize,
}

impl ThreadPool {
    /// A pool sized by the execution context's thread count.
    pub fn new() -> Self {
        ThreadPool {
            workers: exec::current().threads,
        }
    }

    /// A pool with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers > 0, "worker count must be positive");
        ThreadPool { workers }
    }

    /// Number of workers this pool fans out to.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item, in parallel across workers, returning
    /// results in input order. Items are split into contiguous chunks (one
    /// per worker), so output order never depends on scheduling.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let total = items.len();
        if self.workers == 1 || total <= 1 {
            return items.into_iter().map(f).collect();
        }
        let chunk = total.div_ceil(self.workers);
        let mut chunks: Vec<Vec<I>> = Vec::new();
        let mut items = items;
        while !items.is_empty() {
            let rest = items.split_off(items.len().min(chunk));
            chunks.push(items);
            items = rest;
        }
        let share = exec::worker_share(chunks.len());
        let f = &f;
        let run = move |chunk: Vec<I>| {
            exec::as_worker(share, || chunk.into_iter().map(f).collect::<Vec<T>>())
        };
        let mut chunks = chunks.into_iter();
        let first = chunks.next().unwrap_or_default();
        let gathered = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks.map(|c| scope.spawn(move || run(c))).collect();
            let mut gathered = vec![run(first)];
            gathered.extend(handles.into_iter().map(join));
            gathered
        });
        gathered.into_iter().flatten().collect()
    }

    /// [`ThreadPool::map`] with telemetry: emits one
    /// [`mvml_obs::TelemetryEvent::PoolRun`] per call, timing the whole
    /// fan-out (queueing/chunking plus execution) as one span. Results are
    /// identical to `map` — the recorder is observe-only, and with a
    /// disabled recorder no clock is read and no event is built.
    pub fn map_recorded<I, T, F>(
        &self,
        recorder: &mvml_obs::Recorder,
        label: &str,
        items: Vec<I>,
        f: F,
    ) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let span = recorder.span();
        let count = items.len();
        let out = self.map(items, f);
        recorder.emit_timed(span.stop(), || mvml_obs::TelemetryEvent::PoolRun {
            label: label.to_string(),
            items: count,
            workers: self.workers,
        });
        out
    }

    /// Applies `f` to every element of `items` in place, in parallel across
    /// workers. Each element is touched by exactly one worker.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let total = items.len();
        if self.workers == 1 || total <= 1 {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let chunk = total.div_ceil(self.workers);
        let share = exec::worker_share(total.div_ceil(chunk));
        let f = &f;
        let run = move |c: usize, slice: &mut [T]| {
            exec::as_worker(share, || {
                for (i, item) in slice.iter_mut().enumerate() {
                    f(c * chunk + i, item);
                }
            });
        };
        let (first, rest) = items.split_at_mut(chunk);
        std::thread::scope(|scope| {
            let handles: Vec<_> = rest
                .chunks_mut(chunk)
                .enumerate()
                .map(|(c, slice)| scope.spawn(move || run(c + 1, slice)))
                .collect();
            run(0, first);
            handles.into_iter().for_each(join);
        });
    }
}

/// Joins a pool thread, re-raising its panic with the original payload.
fn join<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::new()
    }
}

/// Typed failure of a [`WorkerPool`] job.
///
/// The scoped [`ThreadPool`] joins its workers per call, so a worker panic
/// there unwinds straight into the caller. The persistent pool cannot do
/// that — the submitter may be a different thread, and a long-running
/// service must survive a poisoned job — so panics are caught at the job
/// boundary and *propagated to the submitter as a value* instead of
/// poisoning the worker or hanging the join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The job panicked on its worker; the payload's message is preserved.
    /// The worker itself survives and keeps serving subsequent jobs.
    WorkerPanicked {
        /// Stringified panic payload (`&str`/`String` payloads verbatim).
        message: String,
    },
    /// The pool shut down before the job produced a result.
    Disconnected,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanicked { message } => {
                write!(f, "pool worker panicked: {message}")
            }
            PoolError::Disconnected => write!(f, "pool shut down before the job completed"),
        }
    }
}

impl std::error::Error for PoolError {}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent fan-out pool: long-lived workers pulling submitted jobs
/// from a shared queue.
///
/// Where [`ThreadPool`] spawns scoped threads per call (right for batch
/// loops that fan out once and join immediately), `WorkerPool` keeps its
/// workers alive across submissions — the shape a long-running service
/// needs: shard executors submit work every round without paying thread
/// spawn/join per request, and shutdown is explicit and graceful (the
/// queue is closed, workers drain it and exit, and [`Drop`] joins every
/// thread — the pool never leaks).
///
/// Jobs run under `catch_unwind`; a panicking job reaches its submitter as
/// [`PoolError::WorkerPanicked`] while the worker survives for the next
/// job. Every job runs with its worker's share of the building thread's
/// budget, `max(1, threads / workers)` (see the module docs).
#[derive(Debug)]
pub struct WorkerPool {
    /// Closed (taken) on shutdown so workers see a disconnected queue.
    queue: Option<mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// The pending result of one [`WorkerPool::submit`] call.
#[derive(Debug)]
pub struct JobHandle<T> {
    result: mpsc::Receiver<Result<T, PoolError>>,
}

impl<T> JobHandle<T> {
    /// Blocks until the job finishes, returning its result or the typed
    /// error if it panicked or the pool shut down underneath it.
    pub fn join(self) -> Result<T, PoolError> {
        match self.result.recv() {
            Ok(outcome) => outcome,
            Err(mpsc::RecvError) => Err(PoolError::Disconnected),
        }
    }
}

impl WorkerPool {
    /// A persistent pool sized by the execution context's thread count.
    pub fn new() -> Self {
        WorkerPool::with_workers(exec::current().threads)
    }

    /// A persistent pool with an explicit worker count (≥ 1).
    pub fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        let share = exec::worker_share(workers);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("mvml-worker-{i}"))
                    .spawn(move || {
                        exec::as_worker(share, || loop {
                            let job = {
                                let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                                guard.recv()
                            };
                            match job {
                                Ok(job) => job(),
                                Err(mpsc::RecvError) => break,
                            }
                        })
                    })
                    .unwrap_or_else(|e| {
                        // A host that cannot spawn a thread cannot run the
                        // service at all; fail loudly at construction.
                        panic!("spawning pool worker {i}: {e}")
                    })
            })
            .collect();
        WorkerPool {
            queue: Some(tx),
            workers: handles,
        }
    }

    /// Number of persistent workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job for execution on some worker, returning a handle to
    /// its eventual result. A panic inside `job` is caught on the worker
    /// and surfaces from [`JobHandle::join`] as
    /// [`PoolError::WorkerPanicked`].
    pub fn submit<T, F>(&self, job: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = mpsc::sync_channel(1);
        let wrapped: Job = Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(job)).map_err(|payload| {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                PoolError::WorkerPanicked { message }
            });
            // The submitter may have dropped its handle; that is not an
            // error for the worker.
            let _ = tx.send(outcome);
        });
        if let Some(queue) = &self.queue {
            if queue.send(wrapped).is_ok() {
                return JobHandle { result: rx };
            }
        }
        // Queue already closed: the handle reports Disconnected on join
        // (the rx end above has no sender left).
        JobHandle { result: rx }
    }

    /// Runs one closure per item on the pool and joins them all, returning
    /// per-item results in input order (errors stay per-item: one poisoned
    /// job does not discard its siblings' results).
    pub fn run_all<T, F>(&self, jobs: Vec<F>) -> Vec<Result<T, PoolError>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let handles: Vec<JobHandle<T>> = jobs.into_iter().map(|job| self.submit(job)).collect();
        handles.into_iter().map(JobHandle::join).collect()
    }

    /// Graceful shutdown: closes the queue, lets workers drain what was
    /// already submitted, and joins every worker thread. Equivalent to
    /// dropping the pool, but explicit at call sites that care.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        // Dropping the sender disconnects the queue; workers finish their
        // current job, drain the backlog, then observe RecvError and exit.
        self.queue = None;
        for handle in self.workers.drain(..) {
            // Worker bodies never panic (jobs are unwind-caught), so a join
            // error here means the catch-all wrapper itself failed; there
            // is nothing better to do than surface it.
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new()
    }
}

impl Drop for WorkerPool {
    /// Joins every worker: the pool cannot leak threads, even on panic
    /// paths in the owner.
    fn drop(&mut self) {
        self.close_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_for_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 8, 64] {
            let pool = ThreadPool::with_workers(workers);
            let got = pool.map(items.clone(), |x| x * x);
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn for_each_mut_touches_every_index_once() {
        for workers in [1, 3, 5] {
            let mut data = vec![0usize; 23];
            ThreadPool::with_workers(workers).for_each_mut(&mut data, |i, slot| {
                *slot += i + 1;
            });
            let expect: Vec<usize> = (1..=23).collect();
            assert_eq!(data, expect, "workers = {workers}");
        }
    }

    #[test]
    fn panics_reach_the_caller_with_their_original_payload() {
        let base = exec::current();
        let mine = exec::Exec { threads: 3, ..base };
        let payload_of = |bad: u32| {
            let caught = std::panic::catch_unwind(|| {
                ThreadPool::with_workers(3).map((0..6).collect(), |i: u32| {
                    if i == bad {
                        panic!("chunk item died");
                    }
                    i
                })
            });
            let payload = caught.expect_err("the map panics");
            (payload.downcast_ref::<&str>().copied(), exec::current())
        };
        exec::scoped(mine, || {
            // Item 0 is in the caller's inline chunk, item 5 in a spawned one.
            for bad in [0, 5] {
                assert_eq!(
                    payload_of(bad),
                    (Some("chunk item died"), mine),
                    "item {bad}"
                );
            }
            let caught = std::panic::catch_unwind(|| {
                let mut data = [0u8; 4];
                ThreadPool::with_workers(2).for_each_mut(&mut data, |i, _| {
                    if i == 3 {
                        panic!("slot died");
                    }
                });
            });
            let payload = caught.expect_err("for_each_mut panics");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"slot died"));
            assert_eq!(exec::current(), mine);
        });
    }

    #[test]
    fn worker_pool_runs_jobs_and_returns_results() {
        let pool = WorkerPool::with_workers(3);
        assert_eq!(pool.workers(), 3);
        let handles: Vec<_> = (0..17u64).map(|i| pool.submit(move || i * i)).collect();
        let got: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let expect: Vec<u64> = (0..17).map(|i| i * i).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn worker_panic_reaches_submitter_as_typed_error_and_pool_survives() {
        let pool = WorkerPool::with_workers(2);
        let bad = pool.submit(|| -> u32 { panic!("injected job panic") });
        match bad.join() {
            Err(PoolError::WorkerPanicked { message }) => {
                assert!(message.contains("injected job panic"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The worker that caught the panic keeps serving jobs.
        let ok = pool.submit(|| 7u32);
        assert_eq!(ok.join(), Ok(7));
        // String payloads are preserved too.
        let owned = pool.submit(|| -> u32 { panic!("{}", String::from("owned payload")) });
        assert_eq!(
            owned.join(),
            Err(PoolError::WorkerPanicked {
                message: "owned payload".into()
            })
        );
    }

    #[test]
    fn run_all_keeps_per_item_errors_in_order() {
        let pool = WorkerPool::with_workers(2);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("middle job dies")),
            Box::new(|| 3),
        ];
        let results = pool.run_all(jobs);
        assert_eq!(results[0], Ok(1));
        assert!(matches!(results[1], Err(PoolError::WorkerPanicked { .. })));
        assert_eq!(results[2], Ok(3));
    }

    #[test]
    fn graceful_shutdown_drains_submitted_jobs_and_joins_workers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let completed = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::with_workers(2);
        let handles: Vec<_> = (0..24)
            .map(|_| {
                let completed = Arc::clone(&completed);
                pool.submit(move || {
                    completed.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        // Explicit shutdown drains the backlog before joining: nothing
        // already submitted is lost.
        pool.shutdown();
        assert_eq!(completed.load(Ordering::SeqCst), 24);
        for h in handles {
            assert_eq!(h.join(), Ok(()));
        }
    }

    #[test]
    fn drop_joins_workers_without_hanging() {
        let pool = WorkerPool::with_workers(4);
        let slow = pool.submit(|| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            42u8
        });
        drop(pool); // must join (and therefore finish) the in-flight job
        assert_eq!(slow.join(), Ok(42), "drop waited for the in-flight job");
    }

    #[test]
    fn submit_after_shutdown_reports_disconnected() {
        // A handle whose pool is gone reports Disconnected instead of
        // hanging. (submit() itself needs a live pool, so simulate the
        // race by dropping the pool between submit and join.)
        let pool = WorkerPool::with_workers(1);
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().unwrap();
        let blocker = {
            let gate = Arc::clone(&gate);
            pool.submit(move || {
                let _unused = gate.lock().unwrap_or_else(|e| e.into_inner());
            })
        };
        let queued = pool.submit(|| 9u32);
        drop(held);
        drop(pool); // graceful: drains both jobs, then joins
        assert_eq!(blocker.join(), Ok(()));
        assert_eq!(queued.join(), Ok(9), "queued job drained on shutdown");
    }
}
