//! `selest` — command-line front end: generate the paper's data files,
//! estimate range-query selectivities with any method, and regenerate the
//! paper's experiments.
//!
//! ```text
//! selest data n(20) [--scale 10]
//! selest estimate n(20) kernel 100000 200000 [--scale 10] [--sample 2000]
//! selest repro fig12 [--quick] [--jobs N] [--csv DIR]
//! selest snapshot /var/lib/selest n(20) [--scale 10]
//! selest serve --status [/var/lib/selest]
//! selest fsck /var/lib/selest [--repair]
//! selest methods
//! ```

use std::ops::RangeInclusive;

use selest::data::sample_without_replacement;
use selest::experiments::{run_experiment, Scale, ALL_EXPERIMENTS};
use selest::histogram::{BinRule, NormalScaleBins};
use selest::store::build_estimator_from_prepared;
use selest::{
    core::wilson_interval, EstimatorKind, ExactSelectivity, PaperFile, PreparedColumn, RangeQuery,
    SelectivityEstimator, StatisticsCatalog, WaveletHistogram,
};

/// Every method `estimate` builds, with the catalog kind that builds it;
/// `None` marks `wavelet`, the one method the catalog does not build.
const METHODS: [(&str, Option<EstimatorKind>); 9] = [
    ("uniform", Some(EstimatorKind::Uniform)),
    ("sampling", Some(EstimatorKind::Sampling)),
    ("ewh", Some(EstimatorKind::EquiWidth)),
    ("edh", Some(EstimatorKind::EquiDepth)),
    ("mdh", Some(EstimatorKind::MaxDiff)),
    ("ash", Some(EstimatorKind::Ash)),
    ("wavelet", None),
    ("kernel", Some(EstimatorKind::Kernel)),
    ("hybrid", Some(EstimatorKind::Hybrid)),
];

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("try: selest --help");
    std::process::exit(2)
}

/// A subcommand's arguments, checked by [`parse_args`]: the positionals
/// in order, and each flag given with its value (`""` for a switch).
struct Args<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    /// The value given for `flag`, if the flag was given.
    fn flag(&self, flag: &str) -> Option<&'a str> {
        self.flags.iter().find(|(f, _)| *f == flag).map(|&(_, v)| v)
    }
}

/// Check subcommand `cmd`'s arguments before it does any work. `known`
/// lists its flags, a flag that takes a value with the value's name
/// (`"--scale K"`, `"--quick"`); `positionals` is how many other
/// arguments it takes. An unknown flag, a flag without its value or a
/// wrong number of positionals exits 2.
fn parse_args<'a>(
    cmd: &str,
    args: &'a [String],
    known: &[&str],
    positionals: RangeInclusive<usize>,
) -> Args<'a> {
    let mut parsed = Args {
        positional: Vec::new(),
        flags: Vec::new(),
    };
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            parsed.positional.push(arg);
            continue;
        }
        let Some(spec) = known.iter().find(|k| k.split(' ').next() == Some(arg)) else {
            die(&format!(
                "{cmd}: unknown flag {arg:?}; known: {}",
                known.join(", ")
            ))
        };
        let value = if spec.contains(' ') {
            it.next()
                .unwrap_or_else(|| die(&format!("{arg} needs a value")))
        } else {
            ""
        };
        parsed.flags.push((arg, value));
    }
    let n = parsed.positional.len();
    if !positionals.contains(&n) {
        die(&format!("{cmd}: wrong number of arguments ({n})"));
    }
    parsed
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

/// `--scale K` (default 1): how many times the paper's file size to
/// generate. Must be a positive integer.
fn scale_flag(args: &Args) -> usize {
    let Some(v) = args.flag("--scale") else {
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
fn sample_flag(args: &Args) -> usize {
    args.flag("--sample").map_or(2_000, |v| {
        v.parse()
            .unwrap_or_else(|_| die(&format!("--sample needs an integer, got {v:?}")))
    })
}

fn cmd_data(args: &[String]) {
    let args = parse_args("data", args, &["--scale K"], 1..=1);
    let data = parse_paper_file(args.positional[0]).generate_scaled(scale_flag(&args));
    let col = PreparedColumn::prepare(data.values(), data.domain());
    let summary = col.summary();
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
    let args = parse_args("estimate", args, &["--scale K", "--sample N"], 4..=4);
    let [data_name, method, a, b] = args.positional[..] else {
        unreachable!("parse_args checked the count")
    };
    let Some(&(_, kind)) = METHODS.iter().find(|(name, _)| *name == method) else {
        let names = METHODS.map(|(name, _)| name).join(", ");
        die(&format!("unknown method {method:?}; known: {names}"))
    };
    let a: f64 = a.parse().unwrap_or_else(|_| die("bad range start"));
    let b: f64 = b.parse().unwrap_or_else(|_| die("bad range end"));
    let q = RangeQuery::try_new(a, b).unwrap_or_else(|e| die(&format!("estimate: {e}")));
    let scale = scale_flag(&args);
    let n_sample = sample_flag(&args);
    if n_sample < 2 {
        die(&format!("--sample needs at least 2 rows, got {n_sample}"));
    }
    let data = parse_paper_file(data_name).generate_scaled(scale);
    let exact = ExactSelectivity::new(data.values(), data.domain());
    let sample = sample_without_replacement(data.values(), n_sample.min(data.len()), 42);
    let col = PreparedColumn::prepare(&sample, data.domain());
    let est: Box<dyn SelectivityEstimator> = match kind {
        Some(kind) => build_estimator_from_prepared(&col, kind),
        None => {
            let k = NormalScaleBins.bins_prepared(&col);
            Box::new(WaveletHistogram::from_prepared(&col, 10, 4 * k))
        }
    };
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

/// `selest repro [ids...] [--quick] [--jobs N] [--csv DIR]`: every id and
/// flag is checked before any experiment runs. Reports go to stdout in
/// request order, byte-identical for every `--jobs`; each experiment's
/// compute time goes to stderr.
fn cmd_repro(args: &[String]) {
    let args = parse_args(
        "repro",
        args,
        &["--quick", "--csv DIR", "--jobs N"],
        0..=usize::MAX,
    );
    for &id in &args.positional {
        if id != "all" && !ALL_EXPERIMENTS.contains(&id) {
            die(&format!(
                "repro: unknown experiment {id:?}; known: all, {}",
                ALL_EXPERIMENTS.join(", ")
            ));
        }
    }
    if let Some(jobs) = args.flag("--jobs") {
        match jobs.parse::<usize>() {
            Ok(n) if n > 0 => selest::par::set_jobs(n),
            _ => die(&format!("--jobs needs a positive integer, got {jobs:?}")),
        }
    }
    let scale = if args.flag("--quick").is_some() {
        Scale::quick()
    } else {
        Scale::paper()
    };
    let csv_dir = args.flag("--csv");
    let ids = if args.positional.is_empty() || args.positional.contains(&"all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        args.positional
    };
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("create {dir}: {e}")));
    }
    // Experiments fan out on the batch-estimation engine; the ordered
    // merge keeps stdout byte-identical for every worker count.
    let reports = selest::par::parallel_map(&ids, |id| {
        let started = std::time::Instant::now();
        let report = run_experiment(id, &scale);
        eprintln!("  [{id} computed in {:.1?}]", started.elapsed());
        report
    });
    for report in &reports {
        println!("{report}");
        if let Some(dir) = csv_dir {
            let path = format!("{dir}/{}.csv", report.id);
            std::fs::write(&path, report.to_csv())
                .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        }
    }
}

fn cmd_snapshot(args: &[String]) {
    use selest::store::{Column, DurableStore, Relation};

    let args = parse_args(
        "snapshot",
        args,
        &["--scale K", "--sample N"],
        1..=usize::MAX,
    );
    let dir = args.positional[0];
    let scale = scale_flag(&args);
    let sample_size = sample_flag(&args);
    let mut names: Vec<String> = args.positional[1..].iter().map(|n| n.to_string()).collect();
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
/// health — load tier, estimate-cache counters, per-shard pressure/shed
/// counters, and every column breaker — the same report a long-lived
/// process would expose. `--status` is the only mode; without it, or
/// with a DIR that does not exist or that `fsck` finds damaged, the
/// command prints an error and exits 2. It changes no file.
fn cmd_serve(args: &[String]) {
    use selest::store::{fsck, DurableStore};
    let args = parse_args("serve", args, &["--status"], 0..=1);
    if args.flag("--status").is_none() {
        die("serve: run `selest serve --status [DIR]`");
    }
    let engine = selest::ServingEngine::with_defaults();
    if let Some(dir) = args.positional.first() {
        // Opening creates a missing store and repairs a damaged one; a
        // status report must do neither.
        let path = std::path::Path::new(dir);
        if !path.is_dir() {
            die(&format!("serve: no store directory {dir}"));
        }
        if !fsck(path).healthy {
            die(&format!(
                "serve: store {dir} is damaged; run `selest fsck {dir}`"
            ));
        }
        match DurableStore::open(path) {
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
    let c = health.cache;
    println!(
        "cache       hits {} misses {} inserts {} conflicts {} bypassed {}",
        c.hits, c.misses, c.inserts, c.conflicts, c.bypassed
    );
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
    for finding in &report.findings {
        println!("finding     {finding}");
    }
}

fn cmd_fsck(args: &[String]) {
    use selest::store::{fsck, DurableStore};

    let args = parse_args("fsck", args, &["--repair"], 1..=1);
    let dir = args.positional[0];
    let path = std::path::Path::new(dir);
    let repair = args.flag("--repair").is_some();
    let report = fsck(path);
    print_fsck(&report);
    if report.healthy {
        // Correlate the durable generation with what a serving engine
        // would publish from this store: a fresh load serves under the
        // durable generation number ([`CatalogSnapshot::generation`]), so
        // operators can match a live engine's health report to the disk.
        // Opening a store `fsck` found healthy changes no file.
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
            parse_args("methods", &args[1..], &[], 0..=0);
            for (name, _) in METHODS {
                println!("{name}");
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
            println!("methods:    {}", METHODS.map(|(name, _)| name).join(" "));
            println!("experiments: {}", ALL_EXPERIMENTS.join(" "));
        }
        Some(other) => die(&format!("unknown command {other:?}")),
    }
}
