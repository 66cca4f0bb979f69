//! Runs every workload briefly and holds the output to `BENCHMARK.json`:
//! every declared metric present and finite, no failed operations, the
//! result line last, and `checksum_bits` a pure function of `--seed`.

use std::path::Path;
use std::process::Command;

use selbench::json::{self, Value};

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(b: &Value, key: &str) -> Vec<(String, String)> {
    b.get(key)
        .and_then(Value::arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::str).expect("name").to_owned(),
                m.get("unit").and_then(Value::str).unwrap_or("").to_owned(),
            )
        })
        .collect()
}

struct Run {
    result: Value,
    checksum: String,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_selbench"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("selbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("output");
    let checksum = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("checksum_bits "))
        .expect("checksum line")
        .to_owned();
    Run {
        result: json::parse(last).expect("last line is the JSON result"),
        checksum,
    }
}

fn check_metrics(workload: &str, result: &Value, declared: &[(String, String)]) {
    let keys: Vec<&str> = result
        .obj()
        .expect("result object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}: result keys"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::num),
        Some(0.0),
        "{workload}: failed operations"
    );
    assert!(result.get("attempted").and_then(Value::num).unwrap_or(0.0) >= 1.0);
    let metrics = result.get("metrics").and_then(Value::obj).expect("metrics");
    assert_eq!(
        metrics.len(),
        declared.len(),
        "{workload}: exactly the declared metrics"
    );
    for (name, unit) in declared {
        let m = metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        let keys: Vec<&str> = m
            .obj()
            .expect("metric object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["value", "unit"], "{workload}: {name} keys");
        let v = m.get("value").and_then(Value::num).expect("numeric value");
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        assert_eq!(
            m.get("unit").and_then(Value::str),
            Some(unit.as_str()),
            "{workload}: {name} unit"
        );
    }
}

fn smoke(workload: &str) {
    let b = benchmark();
    let end_to_end = names(&b, "end_to_end");
    let per_layer = names(&b, "per_layer");
    let first = run(workload, 1, false);
    check_metrics(workload, &first.result, &end_to_end);
    let again = run(workload, 1, false);
    check_metrics(workload, &again.result, &end_to_end);
    assert_eq!(
        first.checksum, again.checksum,
        "{workload}: checksum_bits must repeat"
    );
    let traced = run(workload, 1, true);
    check_metrics(workload, &traced.result, &per_layer);
    assert_eq!(
        first.checksum, traced.checksum,
        "{workload}: tracing changed the answers"
    );
}

#[test]
fn benchmark_json_declares_selbench_metrics_and_workloads() {
    let b = benchmark();
    let workloads: Vec<String> = names(&b, "workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, selbench::run::WORKLOADS);
    let declared: Vec<(String, String)> = names(&b, "end_to_end")
        .into_iter()
        .chain(names(&b, "per_layer"))
        .collect();
    let ours: Vec<(String, String)> = selbench::metrics::DEFS
        .iter()
        .map(|d| (d.name.to_owned(), d.unit.to_owned()))
        .collect();
    assert_eq!(declared, ours);
    for (name, _) in &declared {
        assert!(selbench::metrics::valid_name(name), "{name}");
    }
}

#[test]
fn serve_cold() {
    smoke("serve-cold");
}

#[test]
fn serve_hot() {
    smoke("serve-hot");
    assert_ne!(
        run("serve-hot", 1, false).checksum,
        run("serve-hot", 2, false).checksum,
        "another --seed must change checksum_bits"
    );
}

#[test]
fn build_publish() {
    smoke("build-publish");
}

#[test]
fn ingest_mixed() {
    smoke("ingest-mixed");
}
