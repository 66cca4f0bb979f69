//! Typed failures of the estimation path, and sample sanitization.
//!
//! The paper's motivating scenario — a query optimizer consuming
//! selectivity numbers — requires that estimation *always* produces an
//! answer or a typed reason why not: a degenerate sample, a failed
//! bandwidth selection, or a corrupt statistics file must degrade the
//! estimate or refuse it, never crash the serving path. [`EstimateError`]
//! is the typed vocabulary for everything that can go wrong between a raw
//! sample and a served selectivity; the `try_*` constructors across the
//! workspace return it instead of panicking, and the store's catalog and
//! serving engine consume it: a column whose build fails is quarantined
//! (its earlier entry keeps serving, else lookups answer
//! [`EstimateError::MissingStatistics`]), and a serving-time fault
//! answers from the column's uniform floor and charges its circuit
//! breaker.

use crate::domain::Domain;

/// A failure anywhere on the path from raw sample to served selectivity.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimateError {
    /// No usable sample values remain after sanitization.
    EmptySample,
    /// Domain bounds are not finite and ordered (`lo < hi`).
    InvalidDomain {
        /// Offending lower bound.
        lo: f64,
        /// Offending upper bound.
        hi: f64,
    },
    /// Query bounds are not finite and ordered (`a <= b`).
    InvalidQuery {
        /// Offending left endpoint.
        a: f64,
        /// Offending right endpoint.
        b: f64,
    },
    /// A bandwidth selector produced a non-finite or non-positive width.
    InvalidBandwidth {
        /// The rejected bandwidth.
        value: f64,
    },
    /// An estimator returned a non-finite selectivity at serving time.
    NonFiniteEstimate {
        /// The rejected estimate.
        value: f64,
    },
    /// An incremental update (insert or delete) carried a non-finite
    /// value. Incremental statistics absorb updates without a sanitize
    /// pass, so a NaN reaching a sketch surfaces here — typed, never as a
    /// panic inside the sketch — and the whole update batch is rejected.
    NonFiniteUpdate {
        /// The rejected update value.
        value: f64,
    },
    /// Construction or estimation panicked inside a legacy estimator and
    /// was caught at the resilience boundary.
    Panicked {
        /// Which stage panicked.
        stage: FaultStage,
        /// The captured panic payload (best effort).
        message: String,
    },
    /// A parallel worker task never produced a value for a reason other
    /// than a panic — the execution deadline expired before the task ran,
    /// or the engine hit an internal invariant failure. Carries the
    /// engine's task-error description.
    TaskAbandoned {
        /// Why the task never completed (e.g. "execution deadline
        /// expired before the task could run").
        reason: String,
    },
    /// A serving shard refused the request — its admission limit was
    /// saturated, or the adaptive shed controller judged the queue too
    /// deep for the latency SLO. Backpressure, not failure: the caller
    /// should retry after roughly `retry_after_us` microseconds, the
    /// shard's own estimate of when the queue will have drained.
    Overloaded {
        /// The shard that refused admission.
        shard: usize,
        /// Concurrent estimates in flight on that shard when refused.
        in_flight: usize,
        /// The shard's admission limit.
        limit: usize,
        /// Suggested retry delay in microseconds (queue-drain estimate
        /// from the shard's latency EWMA; 0 when the shard has no
        /// latency history yet).
        retry_after_us: u64,
    },
    /// The request's end-to-end deadline expired before the estimate
    /// completed. Cooperative: the serving engine checks the deadline
    /// before any work and then before a batch's first cache miss and
    /// every 16 misses after it, and abandons only the *remaining* work,
    /// so a batch returns partial results — finished slots keep their
    /// bit-exact values and unfinished slots carry this error.
    DeadlineExceeded {
        /// Microseconds elapsed when the expiry was observed.
        elapsed_us: u64,
        /// The request's budget in microseconds (0 for a manually
        /// tripped deadline with no wall-clock budget).
        budget_us: u64,
    },
    /// ANALYZE was asked for a column the relation does not have.
    UnknownColumn {
        /// Relation name.
        relation: String,
        /// Missing column name.
        column: String,
    },
    /// A lookup hit a column that was never analyzed.
    MissingStatistics {
        /// Relation name.
        relation: String,
        /// Column name.
        column: String,
    },
    /// A statistics entry cannot be written: its relation or column name
    /// is empty or contains whitespace, which the line-oriented statistics
    /// format uses as its field separator. Raised before any file is
    /// touched.
    UnpersistableName {
        /// Relation name.
        relation: String,
        /// Column name.
        column: String,
    },
    /// A persisted statistics entry failed validation (checksum, field
    /// grammar, or value sanity); `line` is 1-based in the stats file.
    CorruptEntry {
        /// File the damage was found in (`None` for in-memory decodes).
        path: Option<String>,
        /// Line number where the entry starts (1-based).
        line: usize,
        /// Byte offset of that line's start in the file (0 when unknown).
        offset: usize,
        /// What was wrong.
        message: String,
    },
    /// A filesystem operation on the durable statistics path failed — or
    /// was aborted by an injected crash (`store::faultinject::CrashPlan`).
    /// Carries the path and the operation so recovery reports and `fsck`
    /// output name the exact failure site.
    Io {
        /// File or directory the operation targeted.
        path: String,
        /// What was being attempted (e.g. "fsync parent dir").
        op: String,
        /// The underlying I/O error (or the injected crash point).
        message: String,
    },
}

impl EstimateError {
    /// The typed refusal for an expired request deadline, stamped with
    /// the elapsed time observed *now* and the deadline's budget.
    pub fn deadline_exceeded(deadline: &selest_par::Deadline) -> Self {
        EstimateError::DeadlineExceeded {
            elapsed_us: deadline.elapsed_us(),
            budget_us: deadline.budget_us(),
        }
    }

    /// Attach file-path context to persistence errors: fills the `path` of
    /// a [`EstimateError::CorruptEntry`] produced by an in-memory decode.
    /// Other variants pass through unchanged.
    pub fn with_path(mut self, p: &std::path::Path) -> Self {
        if let EstimateError::CorruptEntry { path, .. } = &mut self {
            *path = Some(p.display().to_string());
        }
        self
    }
}

/// The pipeline stage at which a caught panic occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStage {
    /// Building an estimator from a sample.
    Build,
    /// Answering a selectivity query.
    Estimate,
}

impl core::fmt::Display for FaultStage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultStage::Build => write!(f, "build"),
            FaultStage::Estimate => write!(f, "estimate"),
        }
    }
}

impl core::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EstimateError::EmptySample => {
                write!(f, "no usable sample values after sanitization")
            }
            EstimateError::InvalidDomain { lo, hi } => {
                write!(
                    f,
                    "invalid domain [{lo}, {hi}]: bounds must be finite with lo < hi"
                )
            }
            EstimateError::InvalidQuery { a, b } => {
                write!(
                    f,
                    "invalid query ({a}, {b}): bounds must be finite with a <= b"
                )
            }
            EstimateError::InvalidBandwidth { value } => {
                write!(f, "invalid bandwidth {value}: must be finite and positive")
            }
            EstimateError::NonFiniteEstimate { value } => {
                write!(f, "estimator returned non-finite selectivity {value}")
            }
            EstimateError::NonFiniteUpdate { value } => {
                write!(f, "incremental update carried non-finite value {value}")
            }
            EstimateError::Panicked { stage, message } => {
                write!(f, "estimator panicked during {stage}: {message}")
            }
            EstimateError::TaskAbandoned { reason } => {
                write!(f, "worker task abandoned: {reason}")
            }
            EstimateError::Overloaded {
                shard,
                in_flight,
                limit,
                retry_after_us,
            } => {
                write!(
                    f,
                    "shard {shard} overloaded: {in_flight} estimates in flight (limit {limit}); \
                     retry after {retry_after_us}us"
                )
            }
            EstimateError::DeadlineExceeded {
                elapsed_us,
                budget_us,
            } => {
                write!(
                    f,
                    "deadline exceeded: {elapsed_us}us elapsed of a {budget_us}us budget"
                )
            }
            EstimateError::UnknownColumn { relation, column } => {
                write!(f, "no column {column} in relation {relation}")
            }
            EstimateError::MissingStatistics { relation, column } => {
                write!(f, "no statistics for {relation}.{column}; run ANALYZE")
            }
            EstimateError::UnpersistableName { relation, column } => {
                write!(
                    f,
                    "cannot persist statistics for {relation:?}.{column:?}: \
                     names must be nonempty and contain no whitespace"
                )
            }
            EstimateError::CorruptEntry {
                path,
                line,
                offset,
                message,
            } => {
                if let Some(p) = path {
                    write!(
                        f,
                        "corrupt statistics entry in {p} at line {line} (byte {offset}): {message}"
                    )
                } else {
                    write!(f, "corrupt statistics entry at line {line}: {message}")
                }
            }
            EstimateError::Io { path, op, message } => {
                write!(f, "io failure during {op} on {path}: {message}")
            }
        }
    }
}

impl std::error::Error for EstimateError {}

/// What sample sanitization found and removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleAudit {
    /// NaN or ±Inf values dropped.
    pub non_finite: usize,
    /// Finite values outside the declared domain, dropped.
    pub out_of_domain: usize,
    /// Values kept.
    pub kept: usize,
}

impl SampleAudit {
    /// Whether anything had to be removed.
    pub fn is_clean(&self) -> bool {
        self.non_finite == 0 && self.out_of_domain == 0
    }

    /// Total values dropped.
    pub fn dropped(&self) -> usize {
        self.non_finite + self.out_of_domain
    }
}

/// Drop sample values an estimator cannot digest — NaN, ±Inf, and values
/// outside the declared domain — returning the clean sample and an audit of
/// what was removed. Every fallible construction path runs this first so a
/// poisoned ANALYZE sample degrades into a smaller sample instead of a
/// panic (or worse, a silently NaN-poisoned histogram).
pub fn sanitize_sample(sample: &[f64], domain: &Domain) -> (Vec<f64>, SampleAudit) {
    let mut audit = SampleAudit::default();
    let mut clean = Vec::with_capacity(sample.len());
    for &v in sample {
        if !v.is_finite() {
            audit.non_finite += 1;
        } else if !domain.contains(v) {
            audit.out_of_domain += 1;
        } else {
            clean.push(v);
        }
    }
    audit.kept = clean.len();
    (clean, audit)
}

/// Run a closure with panics captured as [`EstimateError::Panicked`].
///
/// The legacy estimators (`assert!`-heavy construction, bandwidth
/// selectors) predate the fallible API; this is the containment boundary
/// that turns their panics into typed errors the catalog bulkhead and the
/// serving engine's floor can act on. The panic hook is left untouched — callers who want quiet
/// logs should silence it themselves; the store's chaos tests do.
pub fn catch_fault<T>(
    stage: FaultStage,
    f: impl FnOnce() -> T + std::panic::UnwindSafe,
) -> Result<T, EstimateError> {
    std::panic::catch_unwind(f).map_err(|payload| EstimateError::Panicked {
        stage,
        message: selest_par::panic_payload_text(&*payload),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_drops_only_the_bad_values() {
        let d = Domain::new(0.0, 10.0);
        let raw = [
            1.0,
            f64::NAN,
            5.0,
            f64::INFINITY,
            -3.0,
            11.0,
            9.5,
            f64::NEG_INFINITY,
        ];
        let (clean, audit) = sanitize_sample(&raw, &d);
        assert_eq!(clean, vec![1.0, 5.0, 9.5]);
        assert_eq!(audit.non_finite, 3);
        assert_eq!(audit.out_of_domain, 2);
        assert_eq!(audit.kept, 3);
        assert_eq!(audit.dropped(), 5);
        assert!(!audit.is_clean());
    }

    #[test]
    fn sanitize_keeps_clean_samples_intact() {
        let d = Domain::new(0.0, 1.0);
        let raw = [0.0, 0.5, 1.0];
        let (clean, audit) = sanitize_sample(&raw, &d);
        assert_eq!(clean, raw.to_vec());
        assert!(audit.is_clean());
        assert_eq!(audit.kept, 3);
    }

    #[test]
    fn catch_fault_converts_panics_to_typed_errors() {
        let ok = catch_fault(FaultStage::Build, || 42);
        assert_eq!(ok, Ok(42));
        let err = catch_fault(FaultStage::Estimate, || -> i32 { panic!("kaboom {}", 7) });
        match err {
            Err(EstimateError::Panicked { stage, message }) => {
                assert_eq!(stage, FaultStage::Estimate);
                assert!(message.contains("kaboom 7"), "got {message:?}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn errors_display_usefully() {
        let cases: Vec<(EstimateError, &str)> = vec![
            (EstimateError::EmptySample, "no usable sample"),
            (
                EstimateError::InvalidDomain { lo: 3.0, hi: 1.0 },
                "invalid domain",
            ),
            (
                EstimateError::InvalidQuery {
                    a: f64::NAN,
                    b: 1.0,
                },
                "invalid query",
            ),
            (
                EstimateError::InvalidBandwidth { value: f64::NAN },
                "invalid bandwidth",
            ),
            (
                EstimateError::NonFiniteEstimate { value: f64::NAN },
                "non-finite",
            ),
            (
                EstimateError::Overloaded {
                    shard: 3,
                    in_flight: 128,
                    limit: 128,
                    retry_after_us: 750,
                },
                "shard 3 overloaded",
            ),
            (
                EstimateError::Overloaded {
                    shard: 0,
                    in_flight: 9,
                    limit: 8,
                    retry_after_us: 1_500,
                },
                "retry after 1500us",
            ),
            (
                EstimateError::DeadlineExceeded {
                    elapsed_us: 2_300,
                    budget_us: 2_000,
                },
                "deadline exceeded: 2300us elapsed of a 2000us budget",
            ),
            (
                EstimateError::UnknownColumn {
                    relation: "r".into(),
                    column: "c".into(),
                },
                "no column c",
            ),
            (
                EstimateError::MissingStatistics {
                    relation: "r".into(),
                    column: "c".into(),
                },
                "run ANALYZE",
            ),
            (
                EstimateError::UnpersistableName {
                    relation: "orders 2024".into(),
                    column: "c".into(),
                },
                "\"orders 2024\".\"c\": names must be nonempty and contain no whitespace",
            ),
            (
                EstimateError::TaskAbandoned {
                    reason: "execution deadline expired".into(),
                },
                "abandoned: execution deadline",
            ),
            (
                EstimateError::CorruptEntry {
                    path: None,
                    line: 7,
                    offset: 0,
                    message: "bad".into(),
                },
                "line 7",
            ),
            (
                EstimateError::CorruptEntry {
                    path: Some("store/gen-000001.stats".into()),
                    line: 7,
                    offset: 142,
                    message: "bad".into(),
                },
                "gen-000001.stats at line 7 (byte 142)",
            ),
            (
                EstimateError::Io {
                    path: "store/MANIFEST".into(),
                    op: "fsync parent dir".into(),
                    message: "permission denied".into(),
                },
                "fsync parent dir on store/MANIFEST",
            ),
        ];
        for (e, needle) in cases {
            let s = e.to_string();
            assert!(s.contains(needle), "{s:?} should contain {needle:?}");
        }
    }

    #[test]
    fn deadline_refusal_carries_the_budget() {
        let wall = selest_par::Deadline::after(std::time::Duration::from_millis(200));
        match EstimateError::deadline_exceeded(&wall) {
            EstimateError::DeadlineExceeded { budget_us, .. } => assert_eq!(budget_us, 200_000),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let manual = selest_par::Deadline::already_expired();
        match EstimateError::deadline_exceeded(&manual) {
            EstimateError::DeadlineExceeded { budget_us, .. } => assert_eq!(budget_us, 0),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
}
