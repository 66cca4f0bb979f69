//! `selbench run`: set up (five times, for a median set-up time), run
//! the timed window, check correctness, run the decomposition passes when
//! traced, and assemble every metric.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use selest_store::ServingHealthReport;

use crate::common::{self, Bench, ClientOut, Plan, SUBWINDOWS};
use crate::ingest::Writer;
use crate::metrics::{self, Measured};
use crate::stats::Histogram;
use crate::trace::{self, Phase, SpanBuf};
use crate::{build_publish, ingest, passes, serve, stats};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["serve-cold", "serve-hot", "build-publish", "ingest-mixed"];

/// Counter names of the per-sub-window rates behind `ops_per_s`.
const SUBWINDOW_RATES: [&str; SUBWINDOWS] = [
    "ops_per_s.0",
    "ops_per_s.1",
    "ops_per_s.2",
    "ops_per_s.3",
    "ops_per_s.4",
    "ops_per_s.5",
    "ops_per_s.6",
    "ops_per_s.7",
    "ops_per_s.8",
    "ops_per_s.9",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// What one `selbench run` was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every generated input stream.
    pub seed: u64,
    /// Timed window length.
    pub seconds: f64,
    /// Record spans and run the decomposition passes.
    pub trace: bool,
}

/// Run-wide settings the workloads read.
pub struct Ctx {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Timed window length, seconds.
    pub seconds: f64,
    /// Closed-loop clients of a serve workload's timed window.
    pub clients: usize,
    /// Worker threads of ANALYZE, and the many-client side of the client
    /// scaling pass: two, or fewer on a smaller machine.
    pub threads: usize,
    /// Whether spans are recorded.
    pub trace: bool,
    /// The epoch every span buffer shares.
    pub epoch: Instant,
}

impl Ctx {
    /// A closed-loop plan over `bench`'s pool starting now.
    pub fn plan<'a>(&self, bench: &'a Bench, seconds: f64) -> Plan<'a> {
        Plan {
            engine: &bench.engine,
            cols: &bench.cols,
            pool: &bench.pool,
            start: Instant::now(),
            window: Duration::from_secs_f64(seconds),
            epoch: self.epoch,
            trace: self.trace,
        }
    }
}

/// What a timed window measured.
pub struct WindowOut {
    /// Measured window length, seconds.
    pub seconds: f64,
    /// Primary operations completed per sub-window.
    pub ops: Vec<f64>,
    /// Client-facing request latencies (ns) per sub-window.
    pub latency_ns: Vec<Histogram>,
    /// Operation slots attempted.
    pub attempted: u64,
    /// Slots that failed or were refused.
    pub failed: u64,
    /// First correctness failure.
    pub mismatch: Option<String>,
    /// Span buffers of the window's worker threads.
    pub spans: Vec<SpanBuf>,
    /// Workload-specific counts.
    pub extra: Vec<(&'static str, f64)>,
    /// End of the last completed request.
    pub last: Instant,
}

impl Default for WindowOut {
    fn default() -> Self {
        WindowOut {
            seconds: 0.0,
            ops: vec![0.0; SUBWINDOWS],
            latency_ns: vec![Histogram::default(); SUBWINDOWS],
            attempted: 0,
            failed: 0,
            mismatch: None,
            spans: Vec::new(),
            extra: Vec::new(),
            last: Instant::now(),
        }
    }
}

impl WindowOut {
    /// Merge closed-loop clients: answered queries are the operations.
    pub fn from_clients(clients: Vec<ClientOut>, start: Instant) -> Self {
        let mut out = WindowOut::default();
        let mut verified = 0;
        out.last = start;
        for c in clients {
            for (k, (lat, n)) in c.latency_ns.iter().zip(c.answered).enumerate() {
                out.latency_ns[k].merge(lat);
                out.ops[k] += n as f64;
            }
            out.attempted += c.sent;
            out.failed += c.failed;
            verified += c.verified;
            if out.mismatch.is_none() {
                out.mismatch = c.mismatch;
            }
            out.last = out.last.max(c.last);
            out.spans.push(c.spans);
        }
        out.seconds = (out.last - start).as_secs_f64();
        out.extra.push(("verified_requests", verified as f64));
        out
    }
}

/// The outcome of one run.
pub struct Record {
    /// The options it ran with.
    pub options: Options,
    /// `std::thread::available_parallelism`.
    pub hardware_threads: usize,
    /// Load-generator threads used.
    pub clients: usize,
    /// Every answer verified and every recovery check passed.
    pub correct: bool,
    /// The first correctness failure.
    pub failure: Option<String>,
    /// Operation slots attempted in the timed window.
    pub attempted: u64,
    /// Slots that failed or were refused.
    pub failed: u64,
    /// Bits of the Kahan sum of every verified set-up answer.
    pub checksum_bits: u64,
    /// End-to-end metrics, then per-layer ones when traced.
    pub metrics: Vec<Measured>,
    /// Raw counts behind the metrics.
    pub counters: Vec<(&'static str, f64)>,
    /// Self time per span name, ms, when traced.
    pub self_time_ms: BTreeMap<&'static str, f64>,
    /// Where the spans were written, when traced.
    pub spans_file: Option<String>,
}

fn set_up(ctx: &Ctx, tr: &mut SpanBuf) -> Result<(Bench, Option<Writer>), String> {
    match ctx.workload {
        "serve-cold" => serve::setup_cold(ctx, tr).map(|b| (b, None)),
        "serve-hot" => serve::setup_hot(ctx, tr).map(|b| (b, None)),
        "build-publish" => build_publish::setup(ctx, tr).map(|b| (b, None)),
        _ => ingest::setup(ctx, tr).map(|(b, w)| (b, Some(w))),
    }
}

/// Engine counters that moved during the window.
fn engine_deltas(
    before: &ServingHealthReport,
    after: &ServingHealthReport,
) -> Vec<(&'static str, f64)> {
    let admitted = |h: &ServingHealthReport| h.shards.iter().map(|s| s.admitted).sum::<u64>();
    let rejected = |h: &ServingHealthReport| h.shards.iter().map(|s| s.rejected).sum::<u64>();
    let hits = (after.cache.hits - before.cache.hits) as f64;
    let misses = (after.cache.misses - before.cache.misses) as f64;
    vec![
        (
            "serving.cache_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ),
        (
            "serving.cache_conflicts",
            (after.cache.conflicts - before.cache.conflicts) as f64,
        ),
        (
            "serving.admitted",
            (admitted(after) - admitted(before)) as f64,
        ),
        (
            "serving.rejected",
            (rejected(after) - rejected(before)) as f64,
        ),
        (
            "serving.deadline_refused",
            (after.deadline_refused - before.deadline_refused) as f64,
        ),
        (
            "serving.floor_served",
            (after.floor_served - before.floor_served) as f64,
        ),
    ]
}

/// Removes the run's store directories however the run ends.
struct RemoveOnDrop(Vec<std::path::PathBuf>);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        for dir in &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Run one workload.
pub fn run(options: &Options) -> Result<Record, String> {
    let workload = WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == options.workload)
        .ok_or_else(|| {
            format!(
                "unknown workload {:?}; expected one of {WORKLOADS:?}",
                options.workload
            )
        })?;
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = hardware_threads.min(2);
    let ctx = Ctx {
        workload,
        seed: options.seed,
        seconds: options.seconds,
        // serve-cold's clients spend their time in the estimator, and two
        // of them average the speed of both vCPUs of a shared host.
        // serve-hot's two clients would contend for the engine's shared
        // counters, by an amount that follows where the host places the
        // vCPUs: two-client throughput swung by a quarter from run to run.
        // It runs one, and the traced `serving.client_scaling` measures
        // the contention. ingest-mixed has one reader beside its writer,
        // and build-publish one cycle loop.
        clients: if workload == "serve-cold" { threads } else { 1 },
        threads,
        trace: options.trace,
        epoch: Instant::now(),
    };
    let mut tr = SpanBuf::new(ctx.trace, ctx.epoch);
    let _stores = RemoveOnDrop(vec![
        common::store_dir(workload, "store"),
        common::store_dir(passes::PROBE, "store"),
    ]);

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(set_up(&ctx, &mut tr)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (mut bench, mut writer) = state.expect("set up at least once");

    tr.set_phase(Phase::Window);
    let before = bench.engine.health();
    let cpu_before = common::cpu_seconds();
    let mut window = match (workload, writer.as_mut()) {
        ("build-publish", _) => build_publish::window(&ctx, &mut bench, &mut tr),
        (_, Some(w)) => ingest::window(&ctx, &mut bench, w, &mut tr),
        _ => serve::window(&ctx, &mut bench),
    };
    let after = bench.engine.health();
    let cpu_window = common::cpu_seconds() - cpu_before;
    tr.set_phase(Phase::Pass);

    let accuracy = bench.accuracy.clone();
    let peak_rss_mb = common::peak_rss_mb();

    let latency = stats::windowed(&window.latency_ns)
        .ok_or_else(|| format!("{workload}: too few requests in the window for a median"))?;
    let slice_s = options.seconds / SUBWINDOWS as f64;
    let rates: Vec<f64> = window.ops.iter().map(|n| n / slice_s).collect();
    let (p99_ns, p99_is_max) = match latency.p99 {
        Some(p) => (p, false),
        // Too few requests for a p99 (a run far shorter than the
        // benchmark's): report the maximum, an upper bound, and say so.
        None => (
            window
                .latency_ns
                .iter()
                .map(Histogram::max)
                .max()
                .unwrap_or(0) as f64,
            true,
        ),
    };
    let mut measured = vec![
        value("setup_s", stats::median(&setup_s), Some(SETUPS as u64)),
        value("ops_per_s", stats::trimmed_mean(&rates), None),
        value("mre", accuracy.total(), None),
        value("peak_rss_mb", peak_rss_mb, None),
        value("latency.p50_us", latency.p50 / 1e3, Some(latency.n)),
        value("latency.p99_us", p99_ns / 1e3, Some(latency.n)),
    ];
    let mut counters = window.extra.clone();
    counters.push(("window_s", window.seconds));
    counters.push(("window_cpu_s", cpu_window));
    counters.push(("latency.p99_us_is_max", f64::from(u8::from(p99_is_max))));
    counters.extend(SUBWINDOW_RATES.iter().copied().zip(rates.iter().copied()));
    counters.extend(engine_deltas(&before, &after));

    let mut self_time_ms = BTreeMap::new();
    let mut spans_file = None;
    if ctx.trace {
        let span_cost = trace::span_cost_ns();
        // The passes get a buffer of their own: a busy window may fill
        // the main thread's.
        let mut pass_tr = SpanBuf::new(true, ctx.epoch);
        let pass = passes::run(&ctx, &mut bench, &mut pass_tr)?;
        let mut buffers: Vec<&SpanBuf> = vec![&tr, &pass_tr];
        buffers.extend(window.spans.iter());
        let layer = passes::layer_metrics(&passes::LayerInputs {
            buffers: &buffers,
            window: &window,
            pass: &pass,
            accuracy: &accuracy,
            engine: &counters,
            writer: writer.as_ref(),
            span_cost_ns: span_cost,
        })?;
        measured.extend(layer);
        for b in &buffers {
            for (s, own) in b.spans().iter().zip(trace::self_times(b.spans())) {
                *self_time_ms.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
            }
        }
        let dropped: u64 = buffers.iter().map(|b| b.dropped()).sum();
        counters.push(("spans_dropped", dropped as f64));
        counters.push(("span_cost_ns", span_cost));
        let path = std::path::PathBuf::from("target/selbench/spans")
            .join(format!("{workload}-seed{}.tsv", options.seed));
        trace::write_spans(&path, &buffers)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        spans_file = Some(path.display().to_string());
    }
    let failure = window.mismatch.take();
    Ok(Record {
        options: options.clone(),
        hardware_threads,
        clients: ctx.clients,
        correct: failure.is_none(),
        failure,
        attempted: window.attempted,
        failed: window.failed,
        checksum_bits: bench.checksum.to_bits(),
        metrics: measured,
        counters,
        self_time_ms,
        spans_file,
    })
}

/// A measured value of declared metric `name`.
pub fn value(name: &str, v: f64, samples: Option<u64>) -> Measured {
    Measured {
        def: metrics::def(name).unwrap_or_else(|| panic!("undeclared metric {name}")),
        value: v,
        samples,
    }
}
