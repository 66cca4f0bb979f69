//! `selbench run --workload <name> --seed <u64> --seconds <s> [--trace [0|1]] [--out <file>]`
//! `selbench compare <parent-runs> <change-runs> [--benchmark <BENCHMARK.json>]`

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use selbench::json::quote;
use selbench::run::{self, Options, Record};

const USAGE: &str = "usage:
  selbench run --workload <serve-cold|serve-hot|build-publish|ingest-mixed> --seed <u64> --seconds <s> [--trace [0|1]] [--out <file>]
  selbench compare <parent-runs-dir> <change-runs-dir> [--benchmark <BENCHMARK.json>]";

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => usage("expected a subcommand"),
    }
}

fn cmd_run(args: &[String]) -> ExitCode {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, false, None);
    let mut i = 0;
    while i < args.len() {
        let next = args.get(i + 1).cloned();
        match args[i].as_str() {
            "--workload" => workload = next,
            "--seed" => seed = next.and_then(|s| s.parse::<u64>().ok()),
            "--seconds" => {
                seconds = next
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--out" => out = next.map(PathBuf::from),
            "--trace" => {
                // `--trace`, `--trace 1` and `--trace 0` are all accepted.
                trace = true;
                match next.as_deref() {
                    Some("0") => trace = false,
                    Some("1") => {}
                    _ => {
                        i += 1;
                        continue;
                    }
                }
            }
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage("--workload, --seed and a positive --seconds are required");
    };
    let options = Options {
        workload,
        seed,
        seconds,
        trace,
    };
    let record = match run::run(&options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(bad) = record.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "error: metric {} is not finite ({})",
            bad.def.name, bad.value
        );
        return ExitCode::FAILURE;
    }
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, full_record(&record) + "\n") {
            eprintln!("error: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    print_human(&record);
    println!("{}", result_line(&record));
    if let Some(f) = &record.failure {
        eprintln!("error: correctness check failed: {f}");
    }
    if record.correct && record.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            match it.next() {
                Some(p) => benchmark = PathBuf::from(p),
                None => return usage("--benchmark needs a path"),
            }
        } else {
            dirs.push(PathBuf::from(a));
        }
    }
    let [parent, change] = dirs.as_slice() else {
        return usage("compare needs a parent and a change directory");
    };
    match selbench::compare::compare(&benchmark, parent, change) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => {
            eprintln!("regression: at least one row regressed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The metrics of one kind as a JSON object; `samples` adds each timing's
/// sample count beside its value and unit.
fn metrics_object(record: &Record, end_to_end: bool, samples: bool) -> String {
    let mut s = String::from("{");
    for (k, m) in record
        .metrics
        .iter()
        .filter(|m| m.def.end_to_end == end_to_end)
        .enumerate()
    {
        if k > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"value\": {}, \"unit\": {}",
            quote(m.def.name),
            m.value,
            quote(m.def.unit)
        );
        if let (true, Some(n)) = (samples, m.samples) {
            let _ = write!(s, ", \"samples\": {n}");
        }
        s.push('}');
    }
    s.push('}');
    s
}

/// The last stdout line: end-to-end metrics untraced, per-layer traced.
/// Each metric holds only its value and unit; the sample counts are in
/// the human lines above it and in the `--out` record.
fn result_line(record: &Record) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        record.correct,
        record.attempted,
        record.failed,
        metrics_object(record, !record.options.trace, false)
    )
}

/// The `selest-bench/2` run record written by `--out`.
fn full_record(record: &Record) -> String {
    let o = &record.options;
    // Every measured metric: the end-to-end ones, then whatever per-layer
    // ones the run measured (the `latency.*` ones on every run, the rest
    // when traced).
    let mut metrics = metrics_object(record, true, true);
    let layer = metrics_object(record, false, true);
    if layer.len() > 2 {
        metrics.pop();
        metrics.push_str(", ");
        metrics.push_str(&layer[1..]);
    }
    let pairs = |items: &mut dyn Iterator<Item = (&str, f64)>| {
        let body: Vec<String> = items.map(|(k, v)| format!("{}: {v}", quote(k))).collect();
        format!("{{{}}}", body.join(", "))
    };
    format!(
        "{{\"schema\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"hardware_threads\": {}, \"load\": \"measured\", \"clients\": {}, \"correct\": {}, \
         \"failure\": {}, \"attempted\": {}, \"failed\": {}, \"checksum_bits\": \"{}\", \
         \"metrics\": {metrics}, \"counters\": {}, \"self_time_ms\": {}, \"spans_file\": {}}}",
        quote(selbench::SCHEMA),
        quote(&o.workload),
        o.seed,
        o.seconds,
        o.trace,
        record.hardware_threads,
        record.clients,
        record.correct,
        record.failure.as_deref().map_or("null".into(), quote),
        record.attempted,
        record.failed,
        record.checksum_bits,
        pairs(&mut record.counters.iter().map(|(k, v)| (*k, *v))),
        pairs(&mut record.self_time_ms.iter().map(|(k, v)| (*k, *v))),
        record.spans_file.as_deref().map_or("null".into(), quote),
    )
}

fn print_human(record: &Record) {
    let o = &record.options;
    println!(
        "selbench {} seed={} seconds={} trace={} hardware_threads={} clients={} load=measured",
        o.workload, o.seed, o.seconds, o.trace, record.hardware_threads, record.clients
    );
    for m in &record.metrics {
        let samples = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
        println!(
            "  {:<36} {:>16.6} {}{samples}",
            m.def.name, m.value, m.def.unit
        );
    }
    for (k, v) in &record.counters {
        println!("  counter {k:<28} {v}");
    }
    println!("  checksum_bits {}", record.checksum_bits);
    println!(
        "  correct={} attempted={} failed={}",
        record.correct, record.attempted, record.failed
    );
}
