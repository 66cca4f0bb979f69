//! Closed-loop *overload* benchmark of the serving engine
//! (`selest serve --bench --overload`, artifact `BENCH_PR10.json`).
//!
//! ## Load model: saturating closed-loop clients
//!
//! The PR 8 serving bench proves non-interference under *healthy* load
//! (clients think for 1 ms between batches). This benchmark does the
//! opposite: zero-think clients at 2×/4×/8× the saturation point of the
//! tracked machine hammer one kernel-served column, so wall latency per
//! batch grows roughly linearly with the client count and the SLO is
//! structurally unmeetable by the full-precision primary. What is
//! measured is what the engine does about it:
//!
//! * **refuse-only baseline** (`brownout: false`) — adaptive shedding
//!   refuses admissions as pressure grows, and the per-batch deadline
//!   (budget = SLO) cuts over-budget merge scans mid-flight into typed
//!   `DeadlineExceeded` refusals. Honest, but goodput collapses.
//! * **brownout** (`brownout: true`) — the same machinery, plus the load
//!   tier routes cache misses to the column's cheap pre-built rung
//!   (equi-depth over the same sample — the paper's own cost ranking)
//!   while pressure is high. Answers degrade in fidelity instead of
//!   disappearing; the closed loop settles around the brownout boundary.
//!
//! **Goodput** is answered-within-SLO batches per second — batches in
//! which *every* slot carries a value (any rung; the rung mix is
//! reported so degraded answers cannot masquerade as full-precision
//! ones) **and** the batch's wall latency is within the SLO. Late =
//! lost: a batch whose values arrive after the SLO is counted in its
//! own `late` bucket, not as goodput — the caller stopped waiting. The
//! engine's own deadline clock already refuses over-budget work
//! mid-scan; the residual late bucket is mostly answers that were
//! delivered within budget and then sat descheduled behind the other
//! clients before the caller's wall clock was read (unavoidable on a
//! one-hardware-thread box).
//!
//! ## What is asserted (before anything is reported)
//!
//! * **Per-response checksum identity**: every served slot is checked,
//!   bit for bit, against the precomputed reference of the rung that
//!   claims to have produced it — full-precision answers against the
//!   sequential primary, brownout answers against the rung estimator.
//!   One mismatching bit aborts the run.
//! * **Typed refusals only**: the only errors a client may see are
//!   `Overloaded` (carrying a `retry_after_us` hint) and
//!   `DeadlineExceeded`. Anything else aborts.
//! * **Gates** (full mode): at 4× load, brownout goodput ≥ 2× the
//!   refuse-only baseline, and the p999 of within-SLO answered brownout
//!   batches stays within the SLO cap (an accounting invariant: it
//!   catches late answers leaking into the goodput bucket).
//!
//! Column breakers are disarmed here (`breaker_threshold: u32::MAX`):
//! under saturating load every deadline timeout would charge the
//! breaker, and a tripped breaker turns the "refuse-only" baseline into
//! a floor-serving engine — a different experiment. Breaker transitions
//! are pinned deterministically by the store's unit tests instead.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use selest_core::{RangeQuery, SelectivityEstimator, UniformEstimator};
use selest_data::PaperFile;
use selest_store::{
    AnalyzeConfig, Column, EstimatorKind, OverloadOptions, Relation, ServeRung, ServedEstimate,
    ServingEngine, ServingOptions, ServingScratch, StatisticsCatalog,
};

/// Load multipliers over the single-client saturation point.
pub const LOADS: [usize; 3] = [2, 4, 8];

/// SLO as a multiple of the unloaded full-precision batch service time:
/// tight enough that the primary cannot meet it at 4× load, loose enough
/// that the cheap rung can.
const SLO_OVER_SERVICE: f64 = 2.0;

/// Gate: brownout goodput over refuse-only goodput at 4× load.
const GOODPUT_GATE_4X: f64 = 2.0;

/// Gate: p999 of answered brownout batches at 4× load, as a multiple of
/// the SLO. Slightly above 1: a batch admitted just before its deadline
/// expires legitimately finishes a cheap-rung service time late.
const P999_SLO_CAP: f64 = 1.25;

/// Options of one overload benchmark invocation.
pub struct OverloadBenchOptions {
    /// One light repetition per cell; timing gates are skipped.
    pub smoke: bool,
    /// Output path for the JSON artifact.
    pub out: String,
    /// Seed of every engine-side probabilistic decision.
    pub seed: u64,
}

struct Workload {
    relation: std::sync::Arc<Relation>,
    /// Distinct query batches the clients cycle through.
    batches: Vec<Vec<RangeQuery>>,
    /// Reference bits per `[batch][slot]` for each serving rung.
    full_bits: Vec<Vec<u64>>,
    brown_bits: Vec<Vec<u64>>,
    floor_bits: Vec<Vec<u64>>,
    rows: usize,
    sample_size: usize,
}

/// Build the single-column kernel workload: the n(20) fixture served by
/// the (expensive) kernel estimator, with enough distinct batches that a
/// deliberately tiny cache keeps the miss path hot.
// The 0.318… literal below is a fixed query-scrambling multiplier, not a
// use of 1/π; it is pinned because the committed BENCH_PR10.json reference
// bits depend on the exact workload it generates.
#[allow(clippy::approx_constant)]
fn build_workload(smoke: bool, engine: &ServingEngine) -> Workload {
    let data = PaperFile::Normal { p: 20 }.generate();
    let domain = data.domain();
    let mut relation = Relation::new("overload");
    relation.add_column(Column::new("x", domain, data.values().to_vec()));
    let relation = std::sync::Arc::new(relation);
    // Full-mode sizing note: one batch must cost more than a scheduler
    // quantum (~1.5 ms). Below that, a saturated closed loop never shows
    // up in per-request latency — each client completes whole batches
    // inside its own timeslice and queueing delay lands only on the rare
    // batch that straddles a context switch, so a "saturated" primary
    // still answers within SLO. With service time above the quantum,
    // timeslicing multiplexes *within* each request and wall latency
    // honestly scales with the client count.
    let sample_size = if smoke { 512 } else { 16_000 };
    let mut catalog = StatisticsCatalog::new();
    let report = catalog.try_analyze_jobs(
        &relation,
        &AnalyzeConfig {
            kind: EstimatorKind::Kernel,
            sample_size,
            ..Default::default()
        },
        1,
    );
    assert!(report.is_healthy(), "workload must analyze cleanly");
    let n_batches = if smoke { 8 } else { 32 };
    let per_batch = if smoke { 64 } else { 2_048 };
    let batches: Vec<Vec<RangeQuery>> = (0..n_batches)
        .map(|b| {
            (0..per_batch)
                .map(|i| {
                    let t = ((b * 509 + i) as f64 * 0.618_033_988_749_894_9).fract();
                    let fraction = 0.02 + 0.3 * ((b * 31 + i) as f64 * 0.318_309_886).fract();
                    RangeQuery::centered(&domain, domain.lo() + t * domain.width(), fraction)
                })
                .collect()
        })
        .collect();
    engine.publish_snapshot(selest_store::CatalogSnapshot::from_catalog_ref(&catalog, 0));
    // Reference bits per rung, from the published snapshot itself so the
    // primary, the brownout rung, and the floor are the exact objects the
    // engine will serve from.
    let snap = engine.snapshot();
    let (_, col) = snap.find("overload", "x").expect("published");
    let rung = col
        .brownout_rung()
        .expect("kernel primaries carry a brownout rung");
    let floor = UniformEstimator::new(col.domain());
    let bits_of = |est: &dyn Fn(&RangeQuery) -> f64| -> Vec<Vec<u64>> {
        batches
            .iter()
            .map(|b| b.iter().map(|q| est(q).to_bits()).collect())
            .collect()
    };
    let full_bits = bits_of(&|q| col.estimator().selectivity(q));
    let brown_bits = bits_of(&|q| rung.selectivity(q));
    let floor_bits = bits_of(&|q| floor.selectivity(q));
    Workload {
        rows: relation.columns()[0].len(),
        relation,
        batches,
        full_bits,
        brown_bits,
        floor_bits,
        sample_size,
    }
}

fn engine_options(brownout: bool, slo_us: f64, seed: u64) -> ServingOptions {
    ServingOptions {
        // A deliberately tiny cache: the overload question is about the
        // miss path; a big cache would quietly answer everything at full
        // precision and measure nothing.
        cache_bits: 4,
        admission_limit: 64,
        overload: OverloadOptions {
            slo_us,
            brownout,
            seed,
            // Disarmed: see the module docs.
            breaker_threshold: u32::MAX,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Measure the unloaded full-precision service time: one client, no
/// deadline, cache misses guaranteed (each probe batch is distinct), the
/// median over all batches.
fn unloaded_service_us(smoke: bool, seed: u64) -> (f64, Workload) {
    let engine = ServingEngine::new(engine_options(false, f64::INFINITY, seed));
    let w = build_workload(smoke, &engine);
    let mut scratch = ServingScratch::new();
    let mut out = Vec::new();
    let mut samples = Vec::with_capacity(w.batches.len());
    for batch in &w.batches {
        let t0 = Instant::now();
        engine.estimate_batch_with("overload", "x", batch, None, &mut scratch, &mut out);
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        assert!(
            out.iter().all(|s| s.is_ok()),
            "unloaded serving must succeed"
        );
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (selest_math::quantile(&samples, 0.5), w)
}

/// Per-batch outcome of one client request.
enum Outcome {
    /// Every slot answered; the wall latency and the rung mix.
    Answered {
        us: f64,
        full: usize,
        brownout: usize,
        floor: usize,
    },
    /// At least one slot refused by the shed controller.
    Shed,
    /// At least one slot refused by a deadline (none shed).
    Deadline,
}

struct RunStats {
    mode: &'static str,
    load: usize,
    clients: usize,
    wall_s: f64,
    batches: usize,
    /// Fully answered batches whose wall latency was within the SLO —
    /// the numerator of [`RunStats::goodput`].
    answered: usize,
    /// Fully answered batches that arrived past the SLO (late = lost).
    late: usize,
    shed: usize,
    deadline: usize,
    full_slots: u64,
    brownout_slots: u64,
    floor_slots: u64,
    /// Sorted latencies (µs) of within-SLO answered batches.
    answered_us: Vec<f64>,
    tier_brownout_seen: bool,
}

impl RunStats {
    fn goodput(&self) -> f64 {
        self.answered as f64 / self.wall_s
    }
    fn p(&self, q: f64) -> f64 {
        selest_math::quantile(&self.answered_us, q)
    }
}

/// One saturating closed-loop run: `clients` zero-think threads, each
/// batch armed with an SLO-budget deadline, every response validated
/// against its rung's reference bits before it counts.
fn run_overload(
    w: &Workload,
    brownout: bool,
    load: usize,
    ops_per_client: usize,
    slo_us: f64,
    seed: u64,
) -> RunStats {
    let clients = load; // saturation point of the tracked 1-thread box
    let engine = ServingEngine::new(engine_options(brownout, slo_us, seed));
    // Re-publish the same deterministic catalog into this engine so both
    // modes serve bit-identical statistics.
    let mut catalog = StatisticsCatalog::new();
    let report = catalog.try_analyze_jobs(
        &w.relation,
        &AnalyzeConfig {
            kind: EstimatorKind::Kernel,
            sample_size: w.sample_size,
            ..Default::default()
        },
        1,
    );
    assert!(report.is_healthy());
    engine.publish_snapshot(selest_store::CatalogSnapshot::from_catalog_ref(&catalog, 0));
    let outcomes: Mutex<Vec<Outcome>> = Mutex::new(Vec::new());
    let mut wall_s = 0.0;
    let mut tier_brownout_seen = false;
    std::thread::scope(|s| {
        let engine = &engine;
        let outcomes = &outcomes;
        let t0 = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|t| {
                s.spawn(move || {
                    let mut scratch = ServingScratch::new();
                    let mut out: Vec<Result<ServedEstimate, _>> = Vec::new();
                    let mut mine = Vec::with_capacity(ops_per_client);
                    for i in 0..ops_per_client {
                        let b = (t * 7 + i) % w.batches.len();
                        let batch = &w.batches[b];
                        let d = selest_par::Deadline::after(Duration::from_micros(slo_us as u64));
                        let started = Instant::now();
                        engine.estimate_batch_with(
                            "overload",
                            "x",
                            batch,
                            Some(&d),
                            &mut scratch,
                            &mut out,
                        );
                        let us = started.elapsed().as_secs_f64() * 1e6;
                        let (mut full, mut brown, mut floor) = (0usize, 0usize, 0usize);
                        let (mut shed, mut deadline) = (false, false);
                        for (slot, served) in out.iter().enumerate() {
                            match served {
                                Ok(est) => {
                                    let (expect, label, counter) = match est.rung {
                                        ServeRung::Full => {
                                            (w.full_bits[b][slot], "full", &mut full)
                                        }
                                        ServeRung::Brownout => {
                                            (w.brown_bits[b][slot], "brownout", &mut brown)
                                        }
                                        ServeRung::Floor => {
                                            (w.floor_bits[b][slot], "floor", &mut floor)
                                        }
                                    };
                                    assert_eq!(
                                        est.value.to_bits(),
                                        expect,
                                        "client {t} op {i} slot {slot}: {label} response \
                                         drifted from its reference bits"
                                    );
                                    *counter += 1;
                                }
                                Err(selest_core::EstimateError::Overloaded {
                                    retry_after_us,
                                    ..
                                }) => {
                                    assert!(*retry_after_us < 10_000_000, "retry hint out of band");
                                    shed = true;
                                }
                                Err(selest_core::EstimateError::DeadlineExceeded { .. }) => {
                                    deadline = true
                                }
                                Err(other) => {
                                    panic!("client {t} op {i} slot {slot}: untyped failure {other}")
                                }
                            }
                        }
                        mine.push(if shed {
                            Outcome::Shed
                        } else if deadline {
                            Outcome::Deadline
                        } else {
                            Outcome::Answered {
                                us,
                                full,
                                brownout: brown,
                                floor,
                            }
                        });
                    }
                    outcomes.lock().expect("no poisoned clients").extend(mine);
                })
            })
            .collect();
        for h in workers {
            h.join().expect("client panicked");
        }
        wall_s = t0.elapsed().as_secs_f64();
    });
    if engine.load_tier() != selest_store::LoadTier::Normal {
        tier_brownout_seen = true;
    }
    let health = engine.health();
    if health.tier != selest_store::LoadTier::Normal || health.brownout_served > 0 {
        tier_brownout_seen = true;
    }
    let outcomes = outcomes.into_inner().expect("scope joined");
    let mut stats = RunStats {
        mode: if brownout { "brownout" } else { "refuse-only" },
        load,
        clients,
        wall_s,
        batches: outcomes.len(),
        answered: 0,
        late: 0,
        shed: 0,
        deadline: 0,
        full_slots: 0,
        brownout_slots: 0,
        floor_slots: 0,
        answered_us: Vec::new(),
        tier_brownout_seen,
    };
    for o in &outcomes {
        match o {
            Outcome::Answered {
                us,
                full,
                brownout,
                floor,
            } => {
                if *us <= slo_us {
                    stats.answered += 1;
                    stats.answered_us.push(*us);
                } else {
                    stats.late += 1;
                }
                // The rung mix counts every *delivered* (validated) value,
                // late or not — it reports fidelity, not timeliness.
                stats.full_slots += *full as u64;
                stats.brownout_slots += *brownout as u64;
                stats.floor_slots += *floor as u64;
            }
            Outcome::Shed => stats.shed += 1,
            Outcome::Deadline => stats.deadline += 1,
        }
    }
    stats
        .answered_us
        .sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    stats
}

/// Run the overload sweep and write the JSON artifact. Returns the
/// output path.
pub fn run_overload_bench(opts: &OverloadBenchOptions) -> String {
    let ops_per_client = if opts.smoke { 40 } else { 300 };
    eprintln!(
        "overload bench: mode={} model=closed-loop-saturating seed={}",
        if opts.smoke { "smoke" } else { "full" },
        opts.seed
    );
    let (service_us, w) = unloaded_service_us(opts.smoke, opts.seed);
    let slo_us = (service_us * SLO_OVER_SERVICE).max(200.0);
    eprintln!(
        "unloaded full-precision service: {service_us:.0}us/batch -> SLO {slo_us:.0}us \
         ({SLO_OVER_SERVICE}x service)"
    );
    let mut runs = Vec::new();
    for &load in &LOADS {
        for brownout in [false, true] {
            let r = run_overload(&w, brownout, load, ops_per_client, slo_us, opts.seed);
            eprintln!(
                "  {}x {:<11} {} clients: {}/{} answered in-SLO ({:.1}/s goodput), \
                 {} late, {} shed, {} deadline, slots full/brownout/floor {}/{}/{}, \
                 p999 {:.0}us",
                r.load,
                r.mode,
                r.clients,
                r.answered,
                r.batches,
                r.goodput(),
                r.late,
                r.shed,
                r.deadline,
                r.full_slots,
                r.brownout_slots,
                r.floor_slots,
                r.p(0.999),
            );
            runs.push(r);
        }
    }
    let find = |load: usize, mode: &str| {
        runs.iter()
            .find(|r| r.load == load && r.mode == mode)
            .expect("run exists")
    };
    let base_4x = find(4, "refuse-only");
    let brown_4x = find(4, "brownout");
    let ratio_4x = brown_4x.goodput() / base_4x.goodput().max(1e-9);
    let p999_4x = brown_4x.p(0.999);
    let p999_cap = slo_us * P999_SLO_CAP;
    eprintln!(
        "4x load: brownout {:.1}/s vs refuse-only {:.1}/s (x{ratio_4x:.2}); \
         brownout p999 {p999_4x:.0}us (cap {p999_cap:.0}us)",
        brown_4x.goodput(),
        base_4x.goodput()
    );
    if !opts.smoke {
        assert!(
            ratio_4x >= GOODPUT_GATE_4X,
            "brownout within-SLO goodput only x{ratio_4x:.2} the refuse-only baseline \
             at 4x load (gate: >= {GOODPUT_GATE_4X}x)"
        );
        assert!(
            p999_4x <= p999_cap,
            "brownout p999 {p999_4x:.0}us exceeds the SLO cap {p999_cap:.0}us at 4x load"
        );
        assert!(
            brown_4x.tier_brownout_seen,
            "the 4x brownout run never left the Normal tier — load did not saturate"
        );
        assert!(
            brown_4x.brownout_slots > 0,
            "the 4x brownout run served no brownout slots"
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = write!(
        json,
        "  \"schema\": \"selest-overload-bench/1\",\n  \"generator\": \"crates/bench/src/overload.rs (selest serve --bench --overload)\",\n  \"mode\": \"{}\",\n  \"model\": \"closed-loop-saturating\",\n  \"seed\": {},\n  \"rows\": {},\n  \"batches\": {},\n  \"queries_per_batch\": {},\n  \"ops_per_client\": {ops_per_client},\n  \"hardware_threads\": {},\n  \"service_full_us\": {service_us:.1},\n  \"slo_us\": {slo_us:.1},\n  \"slo_over_service\": {SLO_OVER_SERVICE},\n  \"runs\": [\n",
        if opts.smoke { "smoke" } else { "full" },
        opts.seed,
        w.rows,
        w.batches.len(),
        w.batches[0].len(),
        selest_par::available_workers(),
    );
    let run_lines: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"load\": {}, \"mode\": \"{}\", \"clients\": {}, \"wall_ms\": {:.1}, \
                 \"batches\": {}, \"answered_in_slo\": {}, \"late\": {}, \"shed\": {}, \
                 \"deadline_refused\": {}, \
                 \"goodput_per_sec\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
                 \"p999_us\": {:.1}, \"slots_full\": {}, \"slots_brownout\": {}, \
                 \"slots_floor\": {}, \"mismatches\": 0}}",
                r.load,
                r.mode,
                r.clients,
                r.wall_s * 1e3,
                r.batches,
                r.answered,
                r.late,
                r.shed,
                r.deadline,
                r.goodput(),
                r.p(0.50),
                r.p(0.99),
                r.p(0.999),
                r.full_slots,
                r.brownout_slots,
                r.floor_slots,
            )
        })
        .collect();
    let _ = write!(json, "{}", run_lines.join(",\n"));
    let _ = write!(
        json,
        "\n  ],\n  \"gates\": {{\"goodput_ratio_4x\": {ratio_4x:.4}, \
         \"goodput_gate\": {GOODPUT_GATE_4X}, \"p999_us_brownout_4x\": {p999_4x:.1}, \
         \"p999_cap_us\": {p999_cap:.1}, \"mismatches\": 0}}\n}}\n"
    );
    std::fs::write(&opts.out, &json).unwrap_or_else(|e| {
        eprintln!("write {}: {e}", opts.out);
        std::process::exit(1);
    });
    eprintln!("wrote {}", opts.out);
    opts.out.clone()
}
