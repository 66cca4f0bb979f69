//! Every metric selbench reports: name, unit, direction, and whether it
//! is end to end (untraced runs) or per layer (traced runs).
//! `BENCHMARK.json` declares exactly these; the smoke test holds the two
//! to each other.

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// End-to-end (reported untraced) or per-layer (reported traced).
    pub end_to_end: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool) -> Def {
    Def {
        name,
        unit,
        higher_is_better,
        end_to_end: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> Def {
    Def {
        name,
        unit,
        higher_is_better,
        end_to_end: false,
    }
}

/// All metrics, end-to-end first.
pub const DEFS: &[Def] = &[
    e2e("setup_s", "s", false),
    e2e("ops_per_s", "1/s", true),
    e2e("mre", "ratio", false),
    e2e("peak_rss_mb", "MB", false),
    // Request latency is measured on every run but declared per layer.
    // With a fixed number of zero-think clients the mean latency is
    // clients / ops_per_s, so a bound on it adds no information beside
    // throughput's; its run-to-run spread on a shared host is wider.
    // The p99 is decided by a few dozen slow requests, and moved by more
    // than any end-to-end bound may allow.
    layer("latency.p50_us", "us", false),
    layer("latency.p99_us", "us", false),
    layer("serving.ns_per_query", "ns", false),
    layer("serving.snapshot_ns", "ns", false),
    layer("serving.overhead_ns_per_query", "ns", false),
    layer("serving.cache_hit_ratio", "ratio", true),
    layer("serving.cache_conflicts", "count", false),
    layer("serving.client_scaling", "ratio", true),
    layer("serving.admitted", "count", true),
    layer("serving.rejected", "count", false),
    layer("serving.deadline_refused", "count", false),
    layer("serving.floor_served", "count", false),
    layer("serving.snapshot_build_us", "us", false),
    layer("serving.publish_us", "us", false),
    layer("serving.republish_us", "us", false),
    layer("serving.republishes_per_1k_batches", "count", false),
    layer("kernel.ns_per_query", "ns", false),
    layer("histogram.ns_per_query", "ns", false),
    layer("kernel.bandwidth_us", "us", false),
    layer("kernel.build_us", "us", false),
    layer("hybrid.build_us", "us", false),
    layer("histogram.max_diff.build_us", "us", false),
    layer("histogram.equi_depth.build_us", "us", false),
    layer("core.prepare_us", "us", false),
    layer("core.exact_ms", "ms", false),
    layer("data.generate_ms", "ms", false),
    layer("data.queries_ms", "ms", false),
    layer("par.analyze_speedup", "ratio", true),
    layer("catalog.analyze_ms", "ms", false),
    layer("catalog.apply_updates_us", "us", false),
    layer("catalog.staleness_sweep_us", "us", false),
    layer("catalog.pending_updates_p99", "count", false),
    layer("persist.encode_us", "us", false),
    layer("persist.bytes_per_column", "bytes", false),
    layer("durable.publish_ms", "ms", false),
    layer("durable.append_us", "us", false),
    layer("rung.full.mre", "ratio", false),
    layer("rung.brownout.mre", "ratio", false),
    layer("rung.floor.mre", "ratio", false),
    layer("mre.sel_lt_1pct", "ratio", false),
    layer("mre.sel_1_10pct", "ratio", false),
    layer("mre.sel_ge_10pct", "ratio", false),
    layer("build.unattributed_pct", "%", false),
    layer("trace.overhead_pct", "%", false),
];

/// The definition of `name`.
pub fn def(name: &str) -> Option<&'static Def> {
    DEFS.iter().find(|d| d.name == name)
}

/// Whether `name` is a well-formed metric name: starts with a letter or
/// digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The metric.
    pub def: &'static Def,
    /// Its value.
    pub value: f64,
    /// Timing samples behind it, when it summarizes a timing.
    pub samples: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        for (i, d) in DEFS.iter().enumerate() {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                d.unit
            );
            assert!(
                DEFS[..i].iter().all(|e| e.name != d.name),
                "duplicate {}",
                d.name
            );
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".dot"));
        assert_eq!(def("setup_s").map(|d| d.unit), Some("s"));
    }
}
