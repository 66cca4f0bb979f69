//! `selest` — command-line front end: generate the paper's data files,
//! estimate range-query selectivities with any method, and regenerate the
//! paper's experiments.
//!
//! ```text
//! selest data n(20) [--scale 10]
//! selest estimate n(20) kernel 100000 200000 [--scale 10] [--sample 2000]
//! selest repro fig12 [--quick] [--csv DIR]
//! selest snapshot /var/lib/selest n(20) [--scale 10]
//! selest serve --status [/var/lib/selest]
//! selest fsck /var/lib/selest [--repair]
//! selest methods
//! ```

use selest::data::sample_without_replacement;
use selest::experiments::{run_experiment, Scale, ALL_EXPERIMENTS};
use selest::kernel::{BandwidthSelector, DirectPlugIn};
use selest::{
    core::wilson_interval, equi_depth, equi_width, max_diff, AverageShiftedHistogram,
    BoundaryPolicy, DataFile, ExactSelectivity, HybridEstimator, KernelEstimator, KernelFn,
    PaperFile, RangeQuery, SamplingEstimator, SelectivityEstimator, StatisticsCatalog,
    UniformEstimator, WaveletHistogram,
};
use selest_histogram::{BinRule, NormalScaleBins};

const METHODS: [&str; 9] = [
    "uniform", "sampling", "ewh", "edh", "mdh", "ash", "wavelet", "kernel", "hybrid",
];

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("try: selest --help");
    std::process::exit(2)
}

fn parse_paper_file(name: &str) -> PaperFile {
    let all = PaperFile::all();
    all.iter()
        .copied()
        .find(|f| f.name() == name)
        .unwrap_or_else(|| {
            let names: Vec<String> = all.iter().map(|f| f.name()).collect();
            die(&format!(
                "unknown data file {name:?}; known: {}",
                names.join(", ")
            ))
        })
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
            .clone()
    })
}

/// `--scale K` (default 1): how many times the paper's file size to
/// generate. Must be a positive integer.
fn scale_flag(args: &[String]) -> usize {
    let Some(v) = flag_value(args, "--scale") else {
        return 1;
    };
    match v.parse() {
        Ok(k) if k > 0 => k,
        _ => die(&format!("--scale needs a positive integer, got {v:?}")),
    }
}

/// `--sample N` (default 2000): the sample size estimators are built
/// from. Must be an integer; `estimate` also requires at least 2 rows,
/// the fewest any method's bin rule or bandwidth can work with.
fn sample_flag(args: &[String]) -> usize {
    flag_value(args, "--sample").map_or(2_000, |v| {
        v.parse()
            .unwrap_or_else(|_| die(&format!("--sample needs an integer, got {v:?}")))
    })
}

fn build_method(method: &str, sample: &[f64], data: &DataFile) -> Box<dyn SelectivityEstimator> {
    let domain = data.domain();
    let k = NormalScaleBins.bins(sample, &domain);
    match method {
        "uniform" => Box::new(UniformEstimator::new(domain)),
        "sampling" => Box::new(SamplingEstimator::new(sample, domain)),
        "ewh" => Box::new(equi_width(sample, domain, k)),
        "edh" => Box::new(equi_depth(sample, domain, k)),
        "mdh" => Box::new(max_diff(sample, domain, k)),
        "ash" => Box::new(AverageShiftedHistogram::new(sample, domain, k, 10)),
        "wavelet" => Box::new(WaveletHistogram::build(sample, domain, 10, 4 * k)),
        "kernel" => {
            let h = DirectPlugIn::two_stage()
                .bandwidth(sample, KernelFn::Epanechnikov)
                .min(0.5 * domain.width());
            Box::new(KernelEstimator::new(
                sample,
                domain,
                KernelFn::Epanechnikov,
                h,
                BoundaryPolicy::BoundaryKernel,
            ))
        }
        "hybrid" => Box::new(HybridEstimator::new(sample, domain)),
        other => die(&format!(
            "unknown method {other:?}; known: {}",
            METHODS.join(", ")
        )),
    }
}

fn cmd_data(args: &[String]) {
    let name = args
        .first()
        .unwrap_or_else(|| die("data: missing file name"));
    let data = parse_paper_file(name).generate_scaled(scale_flag(args));
    let summary = selest::math::Summary::of(data.values());
    println!("file      {}", data.name());
    println!("domain    {}", data.domain());
    println!("records   {}", data.len());
    println!(
        "distinct  {} (avg {:.2} duplicates)",
        data.distinct_count(),
        data.avg_frequency()
    );
    println!("min/max   {} / {}", summary.min, summary.max);
    println!("mean      {:.1}", summary.mean);
    println!("stddev    {:.1}", summary.stddev);
    println!("median    {:.1}", summary.median);
    println!("IQR       {:.1}", summary.iqr);
}

fn cmd_estimate(args: &[String]) {
    if args.len() < 4 {
        die("estimate: need <file> <method> <a> <b>");
    }
    let data_name = &args[0];
    let method = &args[1];
    let a: f64 = args[2].parse().unwrap_or_else(|_| die("bad range start"));
    let b: f64 = args[3].parse().unwrap_or_else(|_| die("bad range end"));
    if b < a {
        die("range end below range start");
    }
    let scale = scale_flag(args);
    let n_sample = sample_flag(args);
    if n_sample < 2 {
        die(&format!("--sample needs at least 2 rows, got {n_sample}"));
    }
    let data = parse_paper_file(data_name).generate_scaled(scale);
    let exact = ExactSelectivity::new(data.values(), data.domain());
    let sample = sample_without_replacement(data.values(), n_sample.min(data.len()), 42);
    let est = build_method(method, &sample, &data);
    let q = RangeQuery::new(a, b);
    let sel = est.selectivity(&q);
    let rows = est.estimate_count(&q, data.len());
    let truth = exact.count(&q);
    println!("query            {q}");
    println!("method           {}", est.name());
    println!("selectivity      {sel:.6}");
    println!("estimated rows   {rows:.1}");
    println!("actual rows      {truth}");
    if truth > 0 {
        println!(
            "relative error   {:.2}%",
            100.0 * (rows - truth as f64).abs() / truth as f64
        );
    }
    let ci = wilson_interval(sel.clamp(0.0, 1.0), sample.len(), 0.95, Some(data.len()));
    println!(
        "95% interval     [{:.6}, {:.6}] (Wilson, binomial proxy)",
        ci.lo, ci.hi
    );
}

fn cmd_repro(args: &[String]) {
    let quick = args.iter().any(|a| a == "--quick");
    let csv_dir = flag_value(args, "--csv");
    if let Some(jobs) = flag_value(args, "--jobs") {
        match jobs.parse::<usize>() {
            Ok(n) if n > 0 => selest::par::set_jobs(n),
            _ => die(&format!("--jobs needs a positive integer, got {jobs:?}")),
        }
    }
    let scale = if quick {
        Scale::quick()
    } else {
        Scale::paper()
    };
    // Positional args are experiment ids; skip flags and their values.
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--csv" | "--jobs" => i += 1, // skip the flag's value too
            other if !other.starts_with("--") => ids.push(other.to_owned()),
            _ => {}
        }
        i += 1;
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = ALL_EXPERIMENTS.iter().map(|s| (*s).to_string()).collect();
    }
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("create {dir}: {e}")));
    }
    // Experiments fan out on the batch-estimation engine; the ordered
    // merge keeps stdout byte-identical for every worker count.
    let reports = selest::par::parallel_map(&ids, |id| run_experiment(id, &scale));
    for report in &reports {
        println!("{report}");
        if let Some(dir) = &csv_dir {
            let path = format!("{dir}/{}.csv", report.id);
            std::fs::write(&path, report.to_csv())
                .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        }
    }
}

fn cmd_snapshot(args: &[String]) {
    use selest::store::{Column, DurableStore, Relation};

    let dir = args
        .first()
        .unwrap_or_else(|| die("snapshot: missing store directory"));
    let scale = scale_flag(args);
    let sample_size = sample_flag(args);
    let mut names: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" | "--sample" => i += 1, // skip the flag's value too
            other if !other.starts_with("--") => names.push(other.to_owned()),
            _ => {}
        }
        i += 1;
    }
    if names.is_empty() {
        names = PaperFile::all().iter().map(|f| f.name()).collect();
    }
    let config = selest::AnalyzeConfig {
        sample_size,
        ..Default::default()
    };
    let mut catalog = StatisticsCatalog::new();
    for name in &names {
        let data = parse_paper_file(name).generate_scaled(scale);
        let mut relation = Relation::new(data.name());
        relation.add_column(Column::new("value", data.domain(), data.values().to_vec()));
        catalog.try_analyze(&relation, &config);
    }
    // A column that cannot be built stops the snapshot before anything
    // is published: a generation missing a requested column would
    // silently serve less than was asked for.
    let health = catalog.health();
    if !health.is_healthy() {
        let failed: Vec<String> = health
            .quarantined
            .iter()
            .map(|q| format!("{}.{}: {}", q.relation, q.column, q.failure.error))
            .collect();
        die(&format!(
            "snapshot: ANALYZE failed, nothing published\n  {}",
            failed.join("\n  ")
        ));
    }
    let (mut store, report) = DurableStore::open(std::path::Path::new(dir))
        .unwrap_or_else(|e| die(&format!("open store {dir}: {e}")));
    if !report.is_clean() {
        eprintln!("note: recovery ran on open (rung {})", report.rung);
    }
    let generation = catalog
        .publish_to(&mut store)
        .unwrap_or_else(|e| die(&format!("publish to {dir}: {e}")));
    println!("store       {dir}");
    println!("generation  {generation}");
    println!("columns     {}", catalog.len());
    for e in store.entries() {
        println!(
            "  {}.{}  {:?}  {} rows, {} sampled",
            e.relation,
            e.column,
            e.kind,
            e.n_rows,
            e.sample.len()
        );
    }
}

/// `selest serve --status [DIR]`: spin an engine (loading the durable
/// store at DIR when given, else the empty snapshot) and print its
/// overload-facing health — load tier, per-shard pressure/shed counters,
/// and every column breaker — the same report a long-lived process would
/// expose. `--status` is the only mode; without it the command prints
/// its usage and exits 2.
fn cmd_serve(args: &[String]) {
    use selest::store::DurableStore;
    if !args.iter().any(|a| a == "--status") {
        die("serve: run `selest serve --status [DIR]`");
    }
    let engine = selest::ServingEngine::with_defaults();
    if let Some(dir) = args.iter().find(|a| !a.starts_with("--")) {
        match DurableStore::open(std::path::Path::new(dir.as_str())) {
            Ok((store, _)) => {
                let (generation, failures) = engine.load_durable(&store);
                println!("store       {dir} (generation {generation})");
                for (relation, column, error) in &failures {
                    println!("            unservable {relation}.{column}: {error}");
                }
            }
            Err(e) => die(&format!("open store {dir}: {e}")),
        }
    }
    let health = engine.health();
    println!("tier        {}", health.tier);
    println!("generation  {}", health.generation);
    println!(
        "served      brownout {} / floor {} / deadline-refused {}",
        health.brownout_served, health.floor_served, health.deadline_refused
    );
    for s in &health.shards {
        println!(
            "shard {}     admitted {} rejected {} shed {} in-flight {} ewma {:.0}us pressure {:.2}",
            s.shard, s.admitted, s.rejected, s.shed, s.in_flight, s.ewma_us, s.pressure
        );
    }
    if health.breakers.is_empty() {
        println!("breakers    none (no columns serving)");
    }
    for b in &health.breakers {
        println!(
            "breaker     {}.{}  {} ({} trips)",
            b.relation, b.column, b.state, b.trips
        );
    }
}

fn print_fsck(report: &selest::store::FsckReport) {
    println!(
        "health      {}",
        if report.healthy { "ok" } else { "DAMAGED" }
    );
    if let Some(active) = report.active {
        println!("active      generation {active}");
    }
    let gens: Vec<String> = report.generations.iter().map(u64::to_string).collect();
    println!("on disk     [{}]", gens.join(", "));
    println!("journal     {} records", report.journal_records);
    if report.sketch_columns > 0 {
        println!(
            "sketches    {} columns journaled, {} updates pending at restore",
            report.sketch_columns, report.sketch_pending_updates
        );
    }
    for finding in &report.findings {
        println!("finding     {finding}");
    }
}

fn cmd_fsck(args: &[String]) {
    use selest::store::{fsck, DurableStore};

    let dir = args
        .first()
        .unwrap_or_else(|| die("fsck: missing store directory"));
    let path = std::path::Path::new(dir);
    let repair = args.iter().any(|a| a == "--repair");
    let report = fsck(path);
    print_fsck(&report);
    if report.healthy {
        // Correlate the durable generation with what a serving engine
        // would publish from this store: a fresh load serves under the
        // durable generation number ([`CatalogSnapshot::generation`]), so
        // operators can match a live engine's health report to the disk.
        if let Ok((store, _)) = selest::store::DurableStore::open(path) {
            let engine = selest::ServingEngine::with_defaults();
            let (_, failures) = engine.load_durable(&store);
            let snapshot = engine.snapshot();
            println!(
                "serving     snapshot generation {} ({} columns servable)",
                snapshot.generation(),
                snapshot.len()
            );
            for (relation, column, error) in &failures {
                println!("            unservable {relation}.{column}: {error}");
            }
            // Journaled sketch state carries staleness pressure across
            // restarts: judge each restored column with the default
            // policy so operators see whether the active generation is
            // serving stale statistics.
            let mut catalog = StatisticsCatalog::new();
            let sketch_failures = store.restore_incremental(&mut catalog);
            let policy = selest::store::StalenessPolicy::default();
            for (relation, column, signal) in catalog.staleness_signals() {
                match policy.verdict(&signal) {
                    Some(reason) => println!(
                        "staleness   {relation}.{column}: STALE ({reason}, {} updates pending)",
                        signal.pending_updates
                    ),
                    None => println!(
                        "staleness   {relation}.{column}: fresh ({} updates pending)",
                        signal.pending_updates
                    ),
                }
            }
            for (relation, column, error) in &sketch_failures {
                println!("            unrestorable sketch {relation}.{column}: {error}");
            }
        }
        return;
    }
    if !repair {
        eprintln!("run `selest fsck {dir} --repair` to recover");
        std::process::exit(1);
    }
    // Repair is spelled "open": the recovery ladder quarantines damage
    // and re-commits a consistent generation.
    match DurableStore::open(path) {
        Ok((_, recovery)) => {
            println!("repair      rung {}", recovery.rung);
            println!("            recovered generation {}", recovery.generation);
            for name in &recovery.quarantined {
                println!("            quarantined {name}");
            }
            for e in &recovery.errors {
                println!("            absorbed: {e}");
            }
        }
        Err(e) => die(&format!("repair {dir}: {e}")),
    }
    let after = fsck(path);
    println!("--- after repair ---");
    print_fsck(&after);
    if !after.healthy {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("data") => cmd_data(&args[1..]),
        Some("estimate") => cmd_estimate(&args[1..]),
        Some("repro") => cmd_repro(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("fsck") => cmd_fsck(&args[1..]),
        Some("methods") => {
            for m in METHODS {
                println!("{m}");
            }
        }
        Some("--help") | Some("-h") | None => {
            println!("selest — selectivity estimators for range queries (SIGMOD '99 reproduction)");
            println!();
            println!("usage:");
            println!("  selest data <file> [--scale K]");
            println!("  selest estimate <file> <method> <a> <b> [--scale K] [--sample N]");
            println!("  selest repro [ids...] [--quick] [--jobs N] [--csv DIR]");
            println!("  selest snapshot <dir> [files...] [--scale K] [--sample N]");
            println!("  selest serve --status [DIR]");
            println!("  selest fsck <dir> [--repair]");
            println!("  selest methods");
            println!();
            println!("data files: u(15) u(20) n(10) n(15) n(20) e(15) e(20) arap1 arap2");
            println!("            rr1(12) rr1(22) rr2(12) rr2(22) iw");
            println!("methods:    {}", METHODS.join(" "));
            println!("experiments: {}", ALL_EXPERIMENTS.join(" "));
        }
        Some(other) => die(&format!("unknown command {other:?}")),
    }
}
