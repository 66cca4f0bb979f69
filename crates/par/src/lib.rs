//! Dependency-free execution runtime for batch workloads.
//!
//! Everything in the workspace that fans work out — the experiment
//! harness, the oracle searches, the catalog's ANALYZE, the serving
//! engine's sharded rebuilds — funnels it through this crate. The design
//! constraint is *determinism*: a run with eight workers must produce
//! bit-identical results to a run with one. Two rules enforce that:
//!
//! 1. **Fixed chunk boundaries.** [`parallel_chunks`] splits the input at
//!    positions derived only from the input length and the requested chunk
//!    size — never from the worker count — so the per-chunk computations
//!    are the same no matter how many threads execute them.
//! 2. **Ordered merge.** Results are returned in input order (each worker
//!    writes into the slot of the item it claimed), so any subsequent
//!    order-sensitive reduction (Kahan summation, `ErrorStats` merging)
//!    sees the exact sequence a sequential run would produce.
//!
//! Worker count resolution (highest priority first): an explicit
//! `*_jobs` argument, a process-wide [`set_jobs`] override (the `--jobs N`
//! CLI flag), the `SELEST_JOBS` environment variable, and finally
//! [`std::thread::available_parallelism`]. Workers are plain
//! [`std::thread::scope`] threads: no pools persist between calls, no
//! thread outlives the call that spawned it, and no dependencies are
//! pulled in.
//!
//! # Fault tolerance
//!
//! The engine has two faces over one core:
//!
//! * the **infallible** API ([`parallel_map`], [`parallel_chunks`]) keeps
//!   its historical contract — a panicking task eventually panics the
//!   caller — and is a thin wrapper over the fallible core;
//! * the **fallible** API ([`try_parallel_map`]) isolates every task
//!   behind `catch_unwind` and returns one `Result<U, TaskError>` per
//!   item. A panic poisons *its slot*, never the batch: every other slot
//!   still carries the value a fault-free run would have produced, bit for
//!   bit, because the merge order never depends on which tasks failed.
//!   Chunked fallible work maps over `items.chunks(size)`.
//!
//! Each task runs once. The whole batch can run under a cooperative
//! [`Deadline`]: workers check the shared budget before starting each
//! task, and on expiry the engine returns the finished slots plus a typed
//! [`TaskFault::Deadline`] error per unstarted slot instead of hanging.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Once, OnceLock};
use std::time::{Duration, Instant};

/// Process-wide worker-count override; 0 means "not set".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Number of hardware threads the host offers (at least 1), probed once
/// per process: [`std::thread::available_parallelism`] re-reads the
/// cgroup quota files on every call (tens of microseconds on Linux), and
/// estimator construction resolves its worker count several times per
/// column.
pub fn available_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Install a process-wide worker-count override (the `--jobs N` flag).
/// `set_jobs(0)` clears the override.
pub fn set_jobs(jobs: usize) {
    JOBS_OVERRIDE.store(jobs, Ordering::Relaxed);
}

/// The worker count batch operations use when no explicit count is given:
/// the [`set_jobs`] override if installed, else the `SELEST_JOBS`
/// environment variable if it parses to a positive integer, else
/// [`available_workers`].
pub fn configured_jobs() -> usize {
    let overridden = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if overridden > 0 {
        return overridden;
    }
    if let Ok(v) = std::env::var("SELEST_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    available_workers()
}

// ---------------------------------------------------------------------------
// Task error taxonomy
// ---------------------------------------------------------------------------

/// What went wrong with one task of a fallible batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskFault {
    /// The task panicked; the captured payload (and source location when
    /// the panic hook saw one) is the bug report.
    Panicked {
        /// Panic payload, best effort (`&str` / `String` payloads are
        /// captured verbatim).
        message: String,
    },
    /// The shared [`Deadline`] expired before the task could start; the
    /// batch returns partial results instead of hanging.
    Deadline,
    /// Engine invariant breach: the ordered reduction found a slot no
    /// worker claimed. Unreachable by construction — surfaced as a typed
    /// error (not a panic) so even a broken engine degrades instead of
    /// aborting the serving process.
    SlotNeverFilled,
}

/// A typed failure of one task slot in a fallible batch run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// What happened.
    pub fault: TaskFault,
    /// Index of the task (= output slot) that failed.
    pub task: usize,
    /// Whether the task started: 1 if it ran (and panicked), 0 when the
    /// deadline expired before it could start.
    pub attempts: usize,
    /// Wall time spent inside the task.
    pub elapsed: Duration,
}

impl core::fmt::Display for TaskError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "task {}", self.task)?;
        match &self.fault {
            TaskFault::Panicked { message } => write!(
                f,
                " panicked after {} attempt(s) in {:.1}ms: {message}",
                self.attempts,
                self.elapsed.as_secs_f64() * 1e3
            ),
            TaskFault::Deadline => write!(
                f,
                " hit the deadline after {} attempt(s) in {:.1}ms",
                self.attempts,
                self.elapsed.as_secs_f64() * 1e3
            ),
            TaskFault::SlotNeverFilled => {
                write!(f, " was never filled (engine invariant breach)")
            }
        }
    }
}

impl std::error::Error for TaskError {}

/// A cooperative execution budget shared by every worker of a batch — and
/// by every layer of a serving request, down to the estimator's batch
/// loop.
///
/// Workers poll it before starting each task; long-running task closures
/// may poll it themselves via [`Deadline::expired`]. Expiry never
/// interrupts a running task — tasks are never killed mid-write — it only
/// stops *new* work, so the batch drains quickly and returns partial
/// results.
///
/// Besides the shared trip flag, a deadline remembers when it started and
/// what its wall-clock budget was, so an expiry can be reported with both
/// numbers ([`Deadline::elapsed_us`], [`Deadline::budget_us`]). Cloning is
/// cheap and shares the flag: expire one clone and every holder sees it.
#[derive(Debug, Clone)]
pub struct Deadline {
    at: Option<Instant>,
    tripped: Arc<AtomicBool>,
    started: Instant,
    budget: Option<Duration>,
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline {
            at: None,
            tripped: Arc::default(),
            started: Instant::now(),
            budget: None,
        }
    }
}

impl Deadline {
    /// No wall-clock budget: the batch runs to completion unless some
    /// holder trips it by hand with [`Deadline::expire`] — the
    /// deterministic way chaos tests cut a batch at an exact task.
    pub fn never() -> Self {
        Deadline::default()
    }

    /// Expire `budget` from now.
    pub fn after(budget: Duration) -> Self {
        let started = Instant::now();
        Deadline {
            at: Some(started + budget),
            tripped: Arc::default(),
            started,
            budget: Some(budget),
        }
    }

    /// A deadline that is already expired (no task will start).
    pub fn already_expired() -> Self {
        let d = Deadline::default();
        d.expire();
        d
    }

    /// Trip the deadline now; every worker observes it before claiming
    /// its next task.
    pub fn expire(&self) {
        self.tripped.store(true, Ordering::Release);
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        self.tripped.load(Ordering::Acquire) || self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Microseconds since the deadline was created.
    pub fn elapsed_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// The wall-clock budget in microseconds (`0` for deadlines without
    /// one: [`Deadline::never`], [`Deadline::already_expired`]).
    pub fn budget_us(&self) -> u64 {
        self.budget.map_or(0, |b| b.as_micros() as u64)
    }
}

/// Configuration of a fallible batch run.
#[derive(Debug, Clone, Default)]
pub struct TryConfig {
    /// Worker count; 0 means [`configured_jobs`].
    pub jobs: usize,
    /// Shared execution budget.
    pub deadline: Deadline,
}

impl TryConfig {
    /// Defaults with an explicit worker count.
    pub fn jobs(jobs: usize) -> Self {
        TryConfig {
            jobs,
            ..TryConfig::default()
        }
    }

    /// Replace the deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }
}

// ---------------------------------------------------------------------------
// Panic capture
// ---------------------------------------------------------------------------

thread_local! {
    /// Whether the current thread is inside a fault-isolated task (its
    /// panics are captured, not printed).
    static IN_ISOLATED_TASK: Cell<bool> = const { Cell::new(false) };
    /// Source location of the last captured panic on this thread.
    static LAST_PANIC_LOCATION: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Install (once, process-wide) a panic hook that captures — instead of
/// printing — panics raised inside fault-isolated tasks, recording their
/// source location for the [`TaskError`]. Panics anywhere else still go
/// to the previously installed hook, backtraces and all.
fn install_capture_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_ISOLATED_TASK.with(Cell::get) {
                let location = info.location().map(|l| l.to_string());
                LAST_PANIC_LOCATION.with(|slot| *slot.borrow_mut() = location);
            } else {
                previous(info);
            }
        }));
    });
}

/// The text of a caught panic payload: the message of a `panic!` with a
/// literal (`&'static str`) or a formatted one (`String`), and
/// `"non-string panic payload"` for anything else. The one renderer of
/// payloads in the workspace: fault-isolated tasks here and
/// `selest_core::catch_fault` both use it.
pub fn panic_payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Render a caught panic payload (plus the location the hook captured)
/// into the `TaskFault::Panicked` message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = panic_payload_text(&*payload);
    match LAST_PANIC_LOCATION.with(|slot| slot.borrow_mut().take()) {
        Some(location) => format!("{text} (at {location})"),
        None => text,
    }
}

/// Run one attempt of a task with panics captured quietly.
fn run_isolated<U>(task: impl FnOnce() -> U) -> Result<U, String> {
    install_capture_hook();
    IN_ISOLATED_TASK.with(|flag| flag.set(true));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
    IN_ISOLATED_TASK.with(|flag| flag.set(false));
    result.map_err(panic_message)
}

// ---------------------------------------------------------------------------
// The fallible core
// ---------------------------------------------------------------------------

/// Run task `i` once under the deadline: not at all if the deadline has
/// already expired, otherwise with its panic captured into the slot.
fn drive_task<U>(
    i: usize,
    cfg: &TryConfig,
    task: &(impl Fn(usize) -> U + Sync),
) -> Result<U, TaskError> {
    let started = Instant::now();
    if cfg.deadline.expired() {
        return Err(TaskError {
            fault: TaskFault::Deadline,
            task: i,
            attempts: 0,
            elapsed: Duration::ZERO,
        });
    }
    run_isolated(|| task(i)).map_err(|message| TaskError {
        fault: TaskFault::Panicked { message },
        task: i,
        attempts: 1,
        elapsed: started.elapsed(),
    })
}

/// Shared fallible engine: evaluate `task(0..n)` with work-stealing over
/// an atomic cursor, panic isolation, and a cooperative deadline; scatter
/// results back into input order. Slots the deadline prevented from
/// running carry [`TaskFault::Deadline`]; the (by construction
/// unreachable) unclaimed-slot case carries [`TaskFault::SlotNeverFilled`]
/// instead of panicking.
fn try_run_indexed<U, F>(n: usize, cfg: &TryConfig, task: F) -> Vec<Result<U, TaskError>>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let jobs = if cfg.jobs == 0 {
        configured_jobs()
    } else {
        cfg.jobs
    };
    let workers = jobs.max(1).min(n);
    let mut slots: Vec<Option<Result<U, TaskError>>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    if workers <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(drive_task(i, cfg, &task));
        }
    } else {
        let cursor = AtomicUsize::new(0);
        let collected: Vec<Vec<(usize, Result<U, TaskError>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, drive_task(i, cfg, &task)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("selest-par worker thread died"))
                .collect()
        });
        for (i, r) in collected.into_iter().flatten() {
            debug_assert!(slots[i].is_none(), "slot {i} filled twice");
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or(Err(TaskError {
                fault: TaskFault::SlotNeverFilled,
                task: i,
                attempts: 0,
                elapsed: Duration::ZERO,
            }))
        })
        .collect()
}

/// Fixed chunk bounds `[lo, hi)` of chunk `c` for the given input length.
fn chunk_bounds(len: usize, chunk_size: usize, c: usize) -> (usize, usize) {
    let lo = c * chunk_size;
    ((lo).min(len), (lo + chunk_size).min(len))
}

/// Fallible sibling of [`parallel_map`]: apply `f` to every item with
/// panic isolation under `cfg`'s worker count and deadline, one `Result`
/// per item in input order. Successful slots are bit-identical to the
/// values a fault-free (or single-worker) run would have produced —
/// failures never perturb their neighbours.
pub fn try_parallel_map<T, U, F>(items: &[T], cfg: &TryConfig, f: F) -> Vec<Result<U, TaskError>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    try_run_indexed(items.len(), cfg, |i| f(&items[i]))
}

// ---------------------------------------------------------------------------
// The infallible API: thin wrappers over the fallible core
// ---------------------------------------------------------------------------

/// Apply `f` to every item, returning results in input order, using
/// [`configured_jobs`] workers.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_jobs(items, configured_jobs(), f)
}

/// Apply `f` to every item with an explicit worker count, returning results
/// in input order. `jobs <= 1` (or a single item) runs inline on the
/// calling thread.
pub fn parallel_map_jobs<T, U, F>(items: &[T], jobs: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    run_indexed(items.len(), jobs, |i| f(&items[i]))
}

/// Split `items` into consecutive chunks of `chunk_size` (the last may be
/// shorter), apply `f` to each chunk, and return one result per chunk in
/// chunk order, using [`configured_jobs`] workers.
///
/// Chunk boundaries depend only on `items.len()` and `chunk_size`, so the
/// result is identical for every worker count.
pub fn parallel_chunks<T, U, F>(items: &[T], chunk_size: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> U + Sync,
{
    parallel_chunks_jobs(items, chunk_size, configured_jobs(), f)
}

/// [`parallel_chunks`] with an explicit worker count.
pub fn parallel_chunks_jobs<T, U, F>(items: &[T], chunk_size: usize, jobs: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> U + Sync,
{
    assert!(
        chunk_size > 0,
        "parallel_chunks needs a positive chunk size"
    );
    let n_chunks = items.len().div_ceil(chunk_size);
    run_indexed(n_chunks, jobs, |c| {
        let (lo, hi) = chunk_bounds(items.len(), chunk_size, c);
        f(&items[lo..hi])
    })
}

/// Infallible engine: no deadline, and any task
/// failure — captured panic or engine invariant breach — re-raised on the
/// caller with the typed error's report as the payload.
fn run_indexed<U, F>(n: usize, jobs: usize, task: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    try_run_indexed(n, &TryConfig::jobs(jobs.max(1)), task)
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|e| panic!("selest-par worker panicked: {e}")))
        .collect()
}

// ---------------------------------------------------------------------------
// Deterministic shard placement
// ---------------------------------------------------------------------------

/// FNV-1a over `bytes` — the workspace's deterministic, dependency-free
/// byte hash (shard assignment, cache-slot placement). Stable across
/// runs, platforms, and Rust versions, unlike `DefaultHasher`.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard that owns a `(relation, column)` key among `shards` shards.
/// Pure function of the names and the shard count: every
/// process, thread, and run agrees on the owner, so per-shard state
/// (admission counters, health, build ownership) never needs a
/// coordination step. The `\u{1f}` separator keeps `("ab","c")` and
/// `("a","bc")` distinct.
pub fn shard_for(relation: &str, column: &str, shards: usize) -> usize {
    assert!(shards > 0, "shard_for needs at least one shard");
    let mut h = fnv1a_64(relation.as_bytes());
    h ^= 0x1f;
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    for &b in column.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for jobs in [1, 2, 3, 8] {
            let out = parallel_map_jobs(&items, jobs, |&x| x * 2);
            assert_eq!(
                out,
                items.iter().map(|x| x * 2).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn chunks_have_fixed_boundaries() {
        let items: Vec<usize> = (0..103).collect();
        let expect: Vec<Vec<usize>> = items.chunks(10).map(|c| c.to_vec()).collect();
        for jobs in [1, 2, 8] {
            let out = parallel_chunks_jobs(&items, 10, jobs, |c| c.to_vec());
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn chunk_reduction_is_bit_identical_across_worker_counts() {
        // An order-sensitive float reduction: naive left-to-right sums per
        // chunk, then a left-to-right merge. Identical for 1/2/8 workers.
        let items: Vec<f64> = (0..10_000).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let reduce = |jobs| {
            let partials = parallel_chunks_jobs(&items, 64, jobs, |c| c.iter().sum::<f64>());
            partials.into_iter().fold(0.0f64, |a, b| a + b)
        };
        let s1 = reduce(1);
        assert_eq!(s1.to_bits(), reduce(2).to_bits());
        assert_eq!(s1.to_bits(), reduce(8).to_bits());
    }

    #[test]
    fn empty_and_tiny_inputs_work() {
        let empty: [u32; 0] = [];
        assert!(parallel_map_jobs(&empty, 4, |&x| x).is_empty());
        assert!(parallel_chunks_jobs(&empty, 5, 4, <[u32]>::len).is_empty());
        assert_eq!(parallel_map_jobs(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn jobs_override_takes_priority() {
        let probed = available_workers();
        assert!(probed >= 1);
        set_jobs(3);
        assert_eq!(configured_jobs(), 3);
        // The override is read on every call; only the hardware probe is
        // cached.
        set_jobs(5);
        assert_eq!(configured_jobs(), 5);
        set_jobs(0);
        assert!(configured_jobs() >= 1);
        assert_eq!(available_workers(), probed);
    }

    #[test]
    #[should_panic(expected = "positive chunk size")]
    fn zero_chunk_size_panics() {
        let _ = parallel_chunks_jobs(&[1, 2, 3], 0, 2, <[i32]>::len);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        let _ = parallel_map_jobs(&items, 2, |&x| {
            assert!(x != 63, "boom");
            x
        });
    }

    #[test]
    fn infallible_panic_report_carries_the_payload() {
        let items: Vec<usize> = (0..8).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map_jobs(&items, 1, |&x| {
                assert!(x != 5, "original payload {x}");
                x
            })
        }));
        let payload = caught.expect_err("must propagate");
        let text = payload
            .downcast_ref::<String>()
            .expect("string payload")
            .clone();
        assert!(text.contains("selest-par worker panicked"), "{text}");
        assert!(text.contains("original payload 5"), "{text}");
        assert!(text.contains("task 5"), "{text}");
    }

    #[test]
    fn panic_payload_text_renders_every_payload_kind() {
        let literal: Box<dyn std::any::Any + Send> = Box::new("literal");
        let formatted: Box<dyn std::any::Any + Send> = Box::new(format!("formatted {}", 7));
        let other: Box<dyn std::any::Any + Send> = Box::new(7u32);
        assert_eq!(panic_payload_text(&*literal), "literal");
        assert_eq!(panic_payload_text(&*formatted), "formatted 7");
        assert_eq!(panic_payload_text(&*other), "non-string panic payload");
    }

    #[test]
    fn try_parallel_map_isolates_panics_per_chunk() {
        let items: Vec<usize> = (0..100).collect();
        let chunks: Vec<&[usize]> = items.chunks(16).collect();
        let fault_free = parallel_chunks_jobs(&items, 16, 1, |c| c.iter().sum::<usize>());
        for jobs in [1, 2, 8] {
            let out = try_parallel_map(&chunks, &TryConfig::jobs(jobs), |c| {
                assert!(c[0] != 32, "chunk bomb");
                c.iter().sum::<usize>()
            });
            assert_eq!(out.len(), 7);
            assert_eq!(out.iter().filter(|s| s.is_err()).count(), 1, "jobs={jobs}");
            for (i, slot) in out.iter().enumerate() {
                if i == 2 {
                    let e = slot.as_ref().expect_err("chunk 2 panics");
                    assert_eq!(e.task, 2);
                    assert_eq!(e.attempts, 1);
                    match &e.fault {
                        TaskFault::Panicked { message } => {
                            assert!(message.contains("chunk bomb"), "{message}");
                            assert!(message.contains("lib.rs"), "location captured: {message}");
                        }
                        other => panic!("expected Panicked, got {other:?}"),
                    }
                } else {
                    assert_eq!(*slot.as_ref().expect("survivor"), fault_free[i]);
                }
            }
        }
    }

    #[test]
    fn hand_tripped_deadline_trips_every_clone_and_has_no_budget() {
        let d = Deadline::never();
        let c = d.clone();
        assert!(!d.expired() && !c.expired());
        c.expire();
        assert!(d.expired() && c.expired());
        assert_eq!(d.budget_us(), 0);
        assert!(Deadline::already_expired().expired());
        assert!(!Deadline::never().expired());
    }

    #[test]
    fn wall_clock_deadline_reports_its_budget() {
        let d = Deadline::after(Duration::from_millis(200));
        assert!(!d.expired(), "200ms budget cannot expire instantly");
        assert_eq!(d.budget_us(), 200_000);
        assert!(d.elapsed_us() < 200_000);
        assert!(Deadline::after(Duration::ZERO).expired());
    }

    #[test]
    fn expired_deadline_abandons_everything() {
        let items: Vec<usize> = (0..64).collect();
        let chunks: Vec<&[usize]> = items.chunks(8).collect();
        let cfg = TryConfig::jobs(4).with_deadline(Deadline::already_expired());
        let ran = AtomicUsize::new(0);
        let out = try_parallel_map(&chunks, &cfg, |c| {
            ran.fetch_add(1, Ordering::Relaxed);
            c.len()
        });
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no task starts");
        assert_eq!(out.len(), 8);
        for slot in &out {
            let e = slot.as_ref().expect_err("abandoned");
            assert_eq!(e.fault, TaskFault::Deadline);
            assert_eq!(e.attempts, 0);
        }
    }

    #[test]
    fn hand_tripped_deadline_returns_partial_results() {
        let items: Vec<usize> = (0..80).collect();
        let chunks: Vec<&[usize]> = items.chunks(10).collect();
        let deadline = Deadline::never();
        let trip = deadline.clone();
        let cfg = TryConfig::jobs(1).with_deadline(deadline);
        let out = try_parallel_map(&chunks, &cfg, |c| {
            if c[0] == 30 {
                trip.expire();
            }
            c.iter().sum::<usize>()
        });
        // Single worker: chunks 0..=3 ran (the tripping chunk finishes —
        // cooperative expiry never kills a running task), 4.. abandoned.
        let fault_free = parallel_chunks_jobs(&items, 10, 1, |c| c.iter().sum::<usize>());
        for (i, expected) in fault_free.iter().enumerate().take(4) {
            assert_eq!(out[i].as_ref().expect("ran"), expected);
        }
        for slot in &out[4..8] {
            assert_eq!(
                slot.as_ref().expect_err("abandoned").fault,
                TaskFault::Deadline
            );
        }
    }

    #[test]
    fn try_parallel_map_maps_items() {
        let items: Vec<i64> = (0..20).collect();
        let out = try_parallel_map(&items, &TryConfig::jobs(3), |&x| {
            assert!(x % 7 != 3, "bad residue");
            x * x
        });
        assert_eq!(
            out.iter().filter(|s| s.is_err()).count(),
            3,
            "items 3, 10, 17"
        );
        for (i, slot) in out.iter().enumerate() {
            match slot {
                Ok(v) => assert_eq!(*v, (i * i) as i64),
                Err(e) => {
                    assert_eq!(e.task, i);
                    assert_eq!(i % 7, 3);
                }
            }
        }
    }

    #[test]
    fn task_error_displays_usefully() {
        let e = TaskError {
            fault: TaskFault::Panicked {
                message: "boom".into(),
            },
            task: 3,
            attempts: 1,
            elapsed: Duration::from_millis(5),
        };
        let text = e.to_string();
        assert!(text.contains("task 3"), "{text}");
        assert!(text.contains("1 attempt(s)"), "{text}");
        assert!(text.contains("boom"), "{text}");
        let d = TaskError {
            fault: TaskFault::Deadline,
            task: 0,
            attempts: 0,
            elapsed: Duration::ZERO,
        };
        assert!(d.to_string().contains("deadline"), "{d}");
        let s = TaskError {
            fault: TaskFault::SlotNeverFilled,
            task: 9,
            attempts: 0,
            elapsed: Duration::ZERO,
        };
        assert!(s.to_string().contains("never filled"), "{s}");
    }

    #[test]
    fn complete_batches_collect_and_failures_name_their_task() {
        let items: Vec<usize> = (0..10).collect();
        let chunks: Vec<&[usize]> = items.chunks(5).collect();
        let ok: Result<Vec<usize>, TaskError> =
            try_parallel_map(&chunks, &TryConfig::jobs(2), |c| c.len())
                .into_iter()
                .collect();
        assert_eq!(ok.expect("complete"), vec![5, 5]);
        let bad: Result<Vec<usize>, TaskError> =
            try_parallel_map(&chunks, &TryConfig::jobs(2), |c| {
                assert!(c[0] != 5, "late bomb");
                c.len()
            })
            .into_iter()
            .collect();
        assert_eq!(bad.expect_err("chunk 1 fails").task, 1);
    }

    #[test]
    fn shard_for_is_deterministic_and_separator_safe() {
        for shards in [1, 2, 4, 7] {
            for (r, c) in [("t", "a"), ("orders", "amount"), ("ab", "c")] {
                let s = shard_for(r, c, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for(r, c, shards), "pure function");
            }
        }
        // Concatenation ambiguity must not alias keys.
        assert_ne!(
            fnv1a_64(b"abc"),
            {
                let _ = shard_for("ab", "c", 2);
                fnv1a_64(b"ab\x1fc")
            },
            "separator keeps split points distinct"
        );
        assert_ne!(shard_for("ab", "c", 1 << 16), shard_for("a", "bc", 1 << 16));
    }
}
