//! Crash-safe generational catalog store: the durability story for
//! ANALYZE's expensive artifact.
//!
//! The paper's statistics are O(n log n) to rebuild, so losing them to a
//! torn write costs a full re-ANALYZE of every column. This module keeps
//! the catalog in a directory of **immutable, numbered generations** with
//! a checksummed `MANIFEST` naming the active one, plus an append-only
//! **feedback journal** recording what happened *between* snapshots —
//! `CorrectionGrid` observations, drift-monitor alarms, and online-scan
//! checkpoints — so learned corrections survive restarts instead of being
//! relearned from scratch:
//!
//! ```text
//! store/
//!   MANIFEST            active generation + whole-file checksums
//!   gen-000007.stats    immutable snapshot (persist v2 format)
//!   gen-000007.feedback folded feedback state at snapshot time
//!   journal.log         append-only records since generation 7
//!   quarantine/         damaged files moved aside by recovery
//! ```
//!
//! Every file write follows the full durability ordering (write temp →
//! fsync file → fsync dir → rename → fsync dir), and the `MANIFEST`
//! rename is the single commit point: a crash anywhere leaves the store
//! byte-identical to either the pre-commit or post-commit state, never a
//! torn hybrid. [`DurableStore::open`] walks a **recovery ladder** that,
//! like the serving engine's rungs, always ends somewhere servable —
//! active generation → journal replay → previous good generation →
//! quarantine-and-rebuild —
//! and reports every step in a typed [`RecoveryReport`]. The write path
//! is hardened by consulting a [`CrashPlan`] at each I/O boundary, so the
//! chaos suite can simulate a crash at every point and assert recovery.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use selest_core::fault::EstimateError;
use selest_core::{CorrectionGrid, Domain, RangeQuery};

use selest_core::incremental::{IncrementalColumn, IncrementalParts, ReservoirParts};
use selest_data::{GkParts, GkSketch};

use crate::catalog::{SketchCheckpoint, StatisticsCatalog, DRIFT_ALPHA, DRIFT_BUCKETS};
use crate::faultinject::{CrashPlan, CrashPoint};
use crate::online::OnlineSelectivity;
use crate::persist::{self, fnv1a64, kind_token, parse_kind, PersistedStatistics};

/// Manifest header line.
const MANIFEST_HEADER: &str = "selest-manifest v1";
/// Journal header prefix (followed by `gen <N>`).
const JOURNAL_HEADER: &str = "selest-journal v1";
/// Feedback-file header line.
const FEEDBACK_HEADER: &str = "selest-feedback v1";
/// Manifest file name inside the store directory.
const MANIFEST_FILE: &str = "MANIFEST";
/// Journal file name inside the store directory.
const JOURNAL_FILE: &str = "journal.log";
/// Quarantine subdirectory name.
const QUARANTINE_DIR: &str = "quarantine";

/// How many committed generations a store keeps on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Generations retained, including the active one (min 1 — the
    /// active generation is never pruned).
    pub keep_generations: usize,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        // Active plus one previous good generation: the minimum that
        // gives the recovery ladder a rung below "rebuild".
        RetentionPolicy {
            keep_generations: 2,
        }
    }
}

impl RetentionPolicy {
    fn keep(&self) -> usize {
        self.keep_generations.max(1)
    }
}

/// One record of the append-only feedback journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A query-feedback observation folded into the column's
    /// [`CorrectionGrid`]: the executed query, the estimate served, and
    /// the true selectivity observed.
    Observation {
        /// Relation name (whitespace-free).
        relation: String,
        /// Column name (whitespace-free).
        column: String,
        /// Query left endpoint.
        a: f64,
        /// Query right endpoint.
        b: f64,
        /// Selectivity the catalog served.
        base: f64,
        /// True selectivity observed at execution.
        truth: f64,
    },
    /// A drift-monitor alarm: the column's feedback drift crossed the
    /// operator's staleness threshold.
    DriftAlarm {
        /// Relation name (whitespace-free).
        relation: String,
        /// Column name (whitespace-free).
        column: String,
        /// Drift value at alarm time.
        drift: f64,
    },
    /// A progressive-scan checkpoint: the counters of an
    /// [`OnlineSelectivity`] mid-scan, so the scan resumes after a crash.
    OnlineCheckpoint {
        /// Relation name (whitespace-free).
        relation: String,
        /// Column name (whitespace-free).
        column: String,
        /// Query left endpoint.
        a: f64,
        /// Query right endpoint.
        b: f64,
        /// Rows consumed.
        seen: usize,
        /// Rows matched.
        matched: usize,
        /// Non-finite rows skipped.
        skipped_nonfinite: usize,
    },
    /// A full incremental-substrate checkpoint of one column — GK summary,
    /// reservoir, and update counters — so a restart resumes ingest from
    /// the journaled state instead of re-ANALYZing the relation. The
    /// latest record per column wins on replay.
    Sketch(SketchCheckpoint),
}

/// Folded drift-alarm history of one column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftAlarm {
    /// Alarms raised since the last snapshot reset.
    pub count: usize,
    /// Drift value of the most recent alarm.
    pub last_drift: f64,
}

/// Folded progressive-scan checkpoint of one column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineCheckpoint {
    /// Query left endpoint.
    pub a: f64,
    /// Query right endpoint.
    pub b: f64,
    /// Rows consumed.
    pub seen: usize,
    /// Rows matched.
    pub matched: usize,
    /// Non-finite rows skipped.
    pub skipped_nonfinite: usize,
}

impl OnlineCheckpoint {
    /// Resume the progressive scan from these counters.
    pub fn resume(&self) -> Result<OnlineSelectivity, EstimateError> {
        let q = RangeQuery::unchecked(self.a, self.b);
        q.validate()?;
        OnlineSelectivity::from_parts(q, self.seen, self.matched, self.skipped_nonfinite)
    }
}

/// The journal's effects folded into queryable state: per-column
/// correction grids, drift-alarm history, and online-scan checkpoints.
/// Deterministic by construction — `BTreeMap` ordering everywhere, and
/// replay is a sequential fold — so encoding it is bit-identical across
/// `SELEST_JOBS` settings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeedbackState {
    grids: BTreeMap<(String, String), CorrectionGrid>,
    alarms: BTreeMap<(String, String), DriftAlarm>,
    online: BTreeMap<(String, String), OnlineCheckpoint>,
    sketches: BTreeMap<(String, String), SketchCheckpoint>,
}

impl FeedbackState {
    /// Whether any feedback has been folded in.
    pub fn is_empty(&self) -> bool {
        self.grids.is_empty()
            && self.alarms.is_empty()
            && self.online.is_empty()
            && self.sketches.is_empty()
    }

    /// The correction grid learned for a column, if any.
    pub fn grid(&self, relation: &str, column: &str) -> Option<&CorrectionGrid> {
        self.grids.get(&(relation.to_owned(), column.to_owned()))
    }

    /// The drift-alarm history of a column, if any.
    pub fn alarm(&self, relation: &str, column: &str) -> Option<DriftAlarm> {
        self.alarms
            .get(&(relation.to_owned(), column.to_owned()))
            .copied()
    }

    /// The latest online-scan checkpoint of a column, if any.
    pub fn online(&self, relation: &str, column: &str) -> Option<OnlineCheckpoint> {
        self.online
            .get(&(relation.to_owned(), column.to_owned()))
            .copied()
    }

    /// The latest incremental-substrate checkpoint of a column, if any.
    pub fn sketch(&self, relation: &str, column: &str) -> Option<&SketchCheckpoint> {
        self.sketches.get(&(relation.to_owned(), column.to_owned()))
    }

    /// Every journaled incremental checkpoint, in `(relation, column)`
    /// order.
    pub fn sketches(&self) -> impl Iterator<Item = &SketchCheckpoint> {
        self.sketches.values()
    }

    /// Validate `rec` against the active entries and fold it in. The
    /// state is only mutated when the whole record is acceptable.
    fn apply(
        &mut self,
        rec: &JournalRecord,
        entries: &[PersistedStatistics],
    ) -> Result<(), EstimateError> {
        let domain_of = |relation: &str, column: &str| -> Result<Domain, EstimateError> {
            entries
                .iter()
                .find(|e| &*e.relation == relation && &*e.column == column)
                .map(|e| e.domain)
                .ok_or_else(|| EstimateError::MissingStatistics {
                    relation: relation.to_owned(),
                    column: column.to_owned(),
                })
        };
        match rec {
            JournalRecord::Observation {
                relation,
                column,
                a,
                b,
                base,
                truth,
            } => {
                let domain = domain_of(relation, column)?;
                let q = RangeQuery::unchecked(*a, *b);
                q.validate()?;
                let key = (relation.clone(), column.clone());
                let mut grid = self
                    .grids
                    .get(&key)
                    .cloned()
                    .unwrap_or_else(|| CorrectionGrid::new(domain, DRIFT_BUCKETS, DRIFT_ALPHA));
                grid.try_observe(&q, *base, *truth)?;
                self.grids.insert(key, grid);
                Ok(())
            }
            JournalRecord::DriftAlarm {
                relation,
                column,
                drift,
            } => {
                domain_of(relation, column)?;
                if !drift.is_finite() || *drift < 0.0 {
                    return Err(EstimateError::NonFiniteEstimate { value: *drift });
                }
                let entry = self
                    .alarms
                    .entry((relation.clone(), column.clone()))
                    .or_insert(DriftAlarm {
                        count: 0,
                        last_drift: 0.0,
                    });
                entry.count += 1;
                entry.last_drift = *drift;
                Ok(())
            }
            JournalRecord::OnlineCheckpoint {
                relation,
                column,
                a,
                b,
                seen,
                matched,
                skipped_nonfinite,
            } => {
                domain_of(relation, column)?;
                let checkpoint = OnlineCheckpoint {
                    a: *a,
                    b: *b,
                    seen: *seen,
                    matched: *matched,
                    skipped_nonfinite: *skipped_nonfinite,
                };
                checkpoint.resume()?; // validates query + counters
                self.online
                    .insert((relation.clone(), column.clone()), checkpoint);
                Ok(())
            }
            JournalRecord::Sketch(cp) => {
                domain_of(&cp.relation, &cp.column)?;
                // Both substrate halves must reconstruct — the same
                // validation a restore pays, so a record that folds here
                // can never fail later.
                GkSketch::from_parts(cp.sketch.clone())?;
                IncrementalColumn::from_parts(cp.column_state.clone())?;
                self.sketches
                    .insert((cp.relation.clone(), cp.column.clone()), cp.clone());
                Ok(())
            }
        }
    }
}

/// Which rung of the recovery ladder [`DurableStore::open`] landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryRung {
    /// No store existed; an empty generation 0 was committed.
    Fresh,
    /// The manifest's active generation loaded clean (journal replayed).
    Active,
    /// The active generation was damaged; an older good generation was
    /// recovered and re-committed as a new generation.
    PreviousGeneration,
    /// Nothing loaded; damaged files were quarantined and an empty
    /// generation was committed.
    Rebuild,
}

impl core::fmt::Display for RecoveryRung {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Everything [`DurableStore::open`] did to bring the store up.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The ladder rung recovery landed on.
    pub rung: RecoveryRung,
    /// The active generation after recovery.
    pub generation: u64,
    /// Journal records replayed into the feedback state.
    pub journal_applied: usize,
    /// Journal records skipped because their column is gone.
    pub journal_orphaned: usize,
    /// Whether a torn journal tail was truncated away.
    pub journal_truncated: bool,
    /// Whether a stale or unusable journal was discarded wholesale.
    pub journal_stale: bool,
    /// Whether the feedback state had to be reset (damaged feedback file).
    pub feedback_reset: bool,
    /// Files removed as debris or beyond retention (names).
    pub pruned: Vec<String>,
    /// Damaged files moved into `quarantine/` (names).
    pub quarantined: Vec<String>,
    /// Every typed error absorbed along the way.
    pub errors: Vec<EstimateError>,
}

impl RecoveryReport {
    fn new(rung: RecoveryRung) -> Self {
        RecoveryReport {
            rung,
            generation: 0,
            journal_applied: 0,
            journal_orphaned: 0,
            journal_truncated: false,
            journal_stale: false,
            feedback_reset: false,
            pruned: Vec::new(),
            quarantined: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Whether recovery was a clean no-op (healthy store, nothing fixed).
    pub fn is_clean(&self) -> bool {
        matches!(self.rung, RecoveryRung::Active | RecoveryRung::Fresh)
            && !self.journal_truncated
            && !self.journal_stale
            && !self.feedback_reset
            && self.journal_orphaned == 0
            && self.quarantined.is_empty()
            && self.errors.is_empty()
    }
}

/// Read-only health verdict of [`fsck`].
#[derive(Debug, Clone)]
pub struct FsckReport {
    /// No findings: manifest, active generation, feedback, and journal
    /// all verify.
    pub healthy: bool,
    /// Active generation per the manifest, if it parsed.
    pub active: Option<u64>,
    /// Generation numbers present on disk, ascending.
    pub generations: Vec<u64>,
    /// Valid journal records on disk.
    pub journal_records: usize,
    /// Columns with journaled incremental sketch state (the feedback
    /// snapshot overlaid with journal records; latest per column wins).
    pub sketch_columns: usize,
    /// Updates pending an estimator refresh, summed over that sketch
    /// state — the staleness pressure a restart would resume under.
    pub sketch_pending_updates: u64,
    /// Human-readable findings, one per problem.
    pub findings: Vec<String>,
}

/// A crash-safe generational statistics store rooted at a directory.
///
/// # Examples
///
/// ```
/// use selest_store::durable::DurableStore;
/// use selest_store::persist::PersistedStatistics;
/// use selest_store::EstimatorKind;
/// use selest_core::Domain;
/// use std::sync::Arc;
///
/// let dir = std::path::PathBuf::from(concat!(
///     env!("CARGO_MANIFEST_DIR"), "/../../target/durable-doc"));
/// let _ = std::fs::remove_dir_all(&dir);
/// let (mut store, report) = DurableStore::open(&dir).expect("open");
/// assert_eq!(report.generation, 0);
/// let entry = PersistedStatistics {
///     relation: Arc::from("t"),
///     column: Arc::from("v"),
///     kind: EstimatorKind::Sampling,
///     n_rows: 100,
///     domain: Domain::new(0.0, 1.0),
///     sample: Arc::from(vec![0.25, 0.5, 0.75].into_boxed_slice()),
/// };
/// let generation = store.publish(vec![entry]).expect("publish");
/// assert_eq!(generation, 1);
/// ```
pub struct DurableStore {
    dir: PathBuf,
    active: u64,
    entries: Vec<PersistedStatistics>,
    feedback: FeedbackState,
    retention: RetentionPolicy,
    plan: CrashPlan,
    journal_records: usize,
}

/// The three crash points of one atomic-write site.
#[derive(Clone, Copy)]
struct CrashSites {
    partial: CrashPoint,
    pre_rename: CrashPoint,
    post_rename: CrashPoint,
}

const SNAPSHOT_SITES: CrashSites = CrashSites {
    partial: CrashPoint::SnapshotPartialWrite,
    pre_rename: CrashPoint::SnapshotPreRename,
    post_rename: CrashPoint::SnapshotPostRename,
};
const FEEDBACK_SITES: CrashSites = CrashSites {
    partial: CrashPoint::FeedbackPartialWrite,
    pre_rename: CrashPoint::FeedbackPreRename,
    post_rename: CrashPoint::FeedbackPostRename,
};
const MANIFEST_SITES: CrashSites = CrashSites {
    partial: CrashPoint::ManifestPartialWrite,
    pre_rename: CrashPoint::ManifestPreRename,
    post_rename: CrashPoint::ManifestPostRename,
};
const JOURNAL_RESET_SITES: CrashSites = CrashSites {
    partial: CrashPoint::JournalResetPartialWrite,
    pre_rename: CrashPoint::JournalResetPreRename,
    post_rename: CrashPoint::JournalResetPostRename,
};

fn crash_error(path: &Path, point: CrashPoint) -> EstimateError {
    EstimateError::Io {
        path: path.display().to_string(),
        op: "simulated crash".to_owned(),
        message: format!("injected crash at {point}"),
    }
}

fn io_error(path: &Path, op: &str, e: std::io::Error) -> EstimateError {
    EstimateError::Io {
        path: path.display().to_string(),
        op: op.to_owned(),
        message: e.to_string(),
    }
}

fn fsync_dir(dir: &Path) -> Result<(), EstimateError> {
    let d = std::fs::File::open(dir).map_err(|e| io_error(dir, "open parent dir", e))?;
    d.sync_all()
        .map_err(|e| io_error(dir, "fsync parent dir", e))
}

/// The atomic durable write with crash-plan consultation at each I/O
/// boundary. When the armed point fires the filesystem is left exactly as
/// a real crash there would leave it.
fn write_atomic_crashable(
    plan: &mut CrashPlan,
    path: &Path,
    bytes: &[u8],
    sites: CrashSites,
) -> Result<(), EstimateError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    if plan.fires_at(sites.partial) {
        // A torn temp file, never synced — what an interrupted write
        // leaves in the page cache's wake.
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_error(&tmp, "create temp", e))?;
        let half = bytes.len() / 2;
        f.write_all(&bytes[..half])
            .map_err(|e| io_error(&tmp, "write temp", e))?;
        return Err(crash_error(&tmp, sites.partial));
    }
    let mut f = std::fs::File::create(&tmp).map_err(|e| io_error(&tmp, "create temp", e))?;
    f.write_all(bytes)
        .map_err(|e| io_error(&tmp, "write temp", e))?;
    f.sync_all().map_err(|e| io_error(&tmp, "fsync temp", e))?;
    drop(f);
    fsync_dir(&parent)?;
    if plan.fires_at(sites.pre_rename) {
        // Temp fully durable but the commit rename never happened.
        return Err(crash_error(path, sites.pre_rename));
    }
    std::fs::rename(&tmp, path).map_err(|e| io_error(path, "rename temp over target", e))?;
    if plan.fires_at(sites.post_rename) {
        // Renamed, but the directory entry was never synced.
        return Err(crash_error(path, sites.post_rename));
    }
    fsync_dir(&parent)
}

fn corrupt(path: &Path, line: usize, message: String) -> EstimateError {
    EstimateError::CorruptEntry {
        path: Some(path.display().to_string()),
        line: line.max(1),
        offset: 0,
        message,
    }
}

fn parse_f64(path: &Path, line: usize, what: &str, tok: &str) -> Result<f64, EstimateError> {
    tok.parse::<f64>()
        .map_err(|_| corrupt(path, line, format!("bad {what}: {tok:?}")))
}

fn parse_usize(path: &Path, line: usize, what: &str, tok: &str) -> Result<usize, EstimateError> {
    tok.parse::<usize>()
        .map_err(|_| corrupt(path, line, format!("bad {what}: {tok:?}")))
}

fn parse_u64(path: &Path, line: usize, what: &str, tok: &str) -> Result<u64, EstimateError> {
    tok.parse::<u64>()
        .map_err(|_| corrupt(path, line, format!("bad {what}: {tok:?}")))
}

fn parse_hex(path: &Path, line: usize, what: &str, tok: &str) -> Result<u64, EstimateError> {
    u64::from_str_radix(tok, 16).map_err(|_| corrupt(path, line, format!("bad {what}: {tok:?}")))
}

fn next_tok<'a>(
    path: &Path,
    line: usize,
    what: &str,
    it: &mut std::str::SplitWhitespace<'a>,
) -> Result<&'a str, EstimateError> {
    it.next()
        .ok_or_else(|| corrupt(path, line, format!("missing {what}")))
}

fn next_field<'a>(
    path: &Path,
    line: usize,
    what: &str,
    it: &mut std::str::SplitN<'a, char>,
) -> Result<&'a str, EstimateError> {
    it.next()
        .ok_or_else(|| corrupt(path, line, format!("missing {what}")))
}

/// Parsed MANIFEST content.
struct Manifest {
    active: u64,
    stats_fnv: u64,
    feedback_fnv: u64,
}

fn encode_manifest(active: u64, stats_fnv: u64, feedback_fnv: u64) -> String {
    let body = format!("{MANIFEST_HEADER}\nactive {active} {stats_fnv:016x} {feedback_fnv:016x}");
    format!("{body}\ncheck {:016x}\n", fnv1a64(body.as_bytes()))
}

fn decode_manifest(path: &Path, text: &str) -> Result<Manifest, EstimateError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| corrupt(path, 1, "empty manifest".to_owned()))?;
    if header != MANIFEST_HEADER {
        return Err(corrupt(path, 1, format!("bad manifest header {header:?}")));
    }
    let active_line = lines
        .next()
        .ok_or_else(|| corrupt(path, 2, "manifest truncated before active line".to_owned()))?;
    let check_line = lines
        .next()
        .ok_or_else(|| corrupt(path, 3, "manifest truncated before check line".to_owned()))?;
    let body = format!("{header}\n{active_line}");
    let mut it = check_line.split_whitespace();
    if next_tok(path, 3, "check tag", &mut it)? != "check" {
        return Err(corrupt(path, 3, "manifest check line malformed".to_owned()));
    }
    let want = parse_hex(
        path,
        3,
        "manifest checksum",
        next_tok(path, 3, "checksum", &mut it)?,
    )?;
    if want != fnv1a64(body.as_bytes()) {
        return Err(corrupt(path, 3, "manifest checksum mismatch".to_owned()));
    }
    let mut it = active_line.split_whitespace();
    if next_tok(path, 2, "active tag", &mut it)? != "active" {
        return Err(corrupt(
            path,
            2,
            "manifest active line malformed".to_owned(),
        ));
    }
    let active = parse_u64(
        path,
        2,
        "generation",
        next_tok(path, 2, "generation", &mut it)?,
    )?;
    let stats_fnv = parse_hex(
        path,
        2,
        "stats checksum",
        next_tok(path, 2, "stats checksum", &mut it)?,
    )?;
    let feedback_fnv = parse_hex(
        path,
        2,
        "feedback checksum",
        next_tok(path, 2, "feedback checksum", &mut it)?,
    )?;
    if it.next().is_some() {
        return Err(corrupt(
            path,
            2,
            "trailing tokens on active line".to_owned(),
        ));
    }
    Ok(Manifest {
        active,
        stats_fnv,
        feedback_fnv,
    })
}

/// Encode everything after `sketch <relation> <column>` in a checkpoint
/// line. Floats go through `Display`, which is shortest-round-trip in
/// Rust, so `parse::<f64>()` recovers them bit-exactly.
fn encode_sketch_fields(cp: &SketchCheckpoint) -> String {
    let mut s = format!(
        "{} {} {} {} {} {}",
        kind_token(cp.kind),
        cp.updates_since_refresh,
        cp.sketch.epsilon,
        cp.sketch.n,
        cp.sketch.tombstones,
        cp.sketch.entries.len()
    );
    for (v, g, d) in &cp.sketch.entries {
        let _ = write!(s, " {v} {g} {d}");
    }
    let st = &cp.column_state;
    let r = &st.reservoir;
    let _ = write!(
        s,
        " {} {} {} {} {} {} {} {} {} {} {}",
        st.domain.lo(),
        st.domain.hi(),
        r.capacity,
        r.seed,
        r.next_index,
        r.seen,
        st.live_rows,
        st.inserted,
        st.deleted,
        st.pending,
        r.slots.len()
    );
    for (key, index, value) in &r.slots {
        let _ = write!(s, " {key} {index} {value}");
    }
    s
}

/// Decode the fields [`encode_sketch_fields`] wrote (the tag, relation,
/// and column have already been consumed from `it`).
fn decode_sketch_fields(
    path: &Path,
    line: usize,
    relation: String,
    column: String,
    it: &mut std::str::SplitWhitespace<'_>,
) -> Result<SketchCheckpoint, EstimateError> {
    let kind = parse_kind(next_tok(path, line, "estimator kind", it)?)
        .map_err(|m| corrupt(path, line, m))?;
    let updates_since_refresh = parse_u64(
        path,
        line,
        "updates since refresh",
        next_tok(path, line, "updates since refresh", it)?,
    )?;
    let epsilon = parse_f64(path, line, "epsilon", next_tok(path, line, "epsilon", it)?)?;
    let n = parse_u64(
        path,
        line,
        "sketch n",
        next_tok(path, line, "sketch n", it)?,
    )?;
    let tombstones = parse_u64(
        path,
        line,
        "sketch tombstones",
        next_tok(path, line, "sketch tombstones", it)?,
    )?;
    let entry_count = parse_usize(
        path,
        line,
        "sketch entry count",
        next_tok(path, line, "sketch entry count", it)?,
    )?;
    let mut entries = Vec::with_capacity(entry_count.min(1 << 20));
    for j in 0..entry_count {
        let missing = |_| {
            corrupt(
                path,
                line,
                format!("sketch wants {entry_count} entries, found {j}"),
            )
        };
        let v = parse_f64(
            path,
            line,
            "entry v",
            next_tok(path, line, "entry v", it).map_err(missing)?,
        )?;
        let g = parse_u64(
            path,
            line,
            "entry g",
            next_tok(path, line, "entry g", it).map_err(missing)?,
        )?;
        let d = parse_u64(
            path,
            line,
            "entry delta",
            next_tok(path, line, "entry delta", it).map_err(missing)?,
        )?;
        entries.push((v, g, d));
    }
    let lo = parse_f64(path, line, "domain lo", next_tok(path, line, "lo", it)?)?;
    let hi = parse_f64(path, line, "domain hi", next_tok(path, line, "hi", it)?)?;
    let capacity = parse_usize(
        path,
        line,
        "reservoir capacity",
        next_tok(path, line, "capacity", it)?,
    )?;
    let seed = parse_u64(path, line, "seed", next_tok(path, line, "seed", it)?)?;
    let next_index = parse_u64(
        path,
        line,
        "next index",
        next_tok(path, line, "next index", it)?,
    )?;
    let seen = parse_u64(path, line, "seen", next_tok(path, line, "seen", it)?)?;
    let live_rows = parse_u64(
        path,
        line,
        "live rows",
        next_tok(path, line, "live rows", it)?,
    )?;
    let inserted = parse_u64(
        path,
        line,
        "inserted",
        next_tok(path, line, "inserted", it)?,
    )?;
    let deleted = parse_u64(path, line, "deleted", next_tok(path, line, "deleted", it)?)?;
    let pending = parse_u64(path, line, "pending", next_tok(path, line, "pending", it)?)?;
    let slot_count = parse_usize(
        path,
        line,
        "slot count",
        next_tok(path, line, "slot count", it)?,
    )?;
    let mut slots = Vec::with_capacity(slot_count.min(1 << 20));
    for j in 0..slot_count {
        let missing = |_| {
            corrupt(
                path,
                line,
                format!("reservoir wants {slot_count} slots, found {j}"),
            )
        };
        let key = parse_u64(
            path,
            line,
            "slot key",
            next_tok(path, line, "slot key", it).map_err(missing)?,
        )?;
        let index = parse_u64(
            path,
            line,
            "slot index",
            next_tok(path, line, "slot index", it).map_err(missing)?,
        )?;
        let value = parse_f64(
            path,
            line,
            "slot value",
            next_tok(path, line, "slot value", it).map_err(missing)?,
        )?;
        slots.push((key, index, value));
    }
    let domain = Domain::try_new(lo, hi).map_err(|e| e.with_path(path))?;
    Ok(SketchCheckpoint {
        relation,
        column,
        kind,
        sketch: GkParts {
            epsilon,
            n,
            tombstones,
            entries,
        },
        column_state: IncrementalParts {
            domain,
            reservoir: ReservoirParts {
                capacity,
                seed,
                next_index,
                seen,
                slots,
            },
            live_rows,
            inserted,
            deleted,
            pending,
        },
        updates_since_refresh,
    })
}

fn encode_feedback(state: &FeedbackState) -> String {
    let mut out = String::new();
    out.push_str(FEEDBACK_HEADER);
    out.push('\n');
    let push_checked = |line: String, out: &mut String| {
        let _ = writeln!(out, "{line}");
        let _ = writeln!(out, "check {:016x}", fnv1a64(line.as_bytes()));
    };
    for ((rel, col), grid) in &state.grids {
        let mut line = format!(
            "grid {rel} {col} {} {} {} {} {}",
            grid.domain().lo(),
            grid.domain().hi(),
            grid.alpha(),
            grid.observations(),
            grid.corrections().len()
        );
        for c in grid.corrections() {
            let _ = write!(line, " {c}");
        }
        push_checked(line, &mut out);
    }
    for ((rel, col), alarm) in &state.alarms {
        push_checked(
            format!("alarm {rel} {col} {} {}", alarm.count, alarm.last_drift),
            &mut out,
        );
    }
    for ((rel, col), cp) in &state.online {
        push_checked(
            format!(
                "online {rel} {col} {} {} {} {} {}",
                cp.a, cp.b, cp.seen, cp.matched, cp.skipped_nonfinite
            ),
            &mut out,
        );
    }
    for ((rel, col), cp) in &state.sketches {
        push_checked(
            format!("sketch {rel} {col} {}", encode_sketch_fields(cp)),
            &mut out,
        );
    }
    out
}

fn decode_feedback(path: &Path, text: &str) -> Result<FeedbackState, EstimateError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| corrupt(path, 1, "empty feedback file".to_owned()))?;
    if header != FEEDBACK_HEADER {
        return Err(corrupt(path, 1, format!("bad feedback header {header:?}")));
    }
    let mut state = FeedbackState::default();
    while let Some((i, payload)) = lines.next() {
        let line_no = i + 1;
        let (ci, check) = lines
            .next()
            .ok_or_else(|| corrupt(path, line_no + 1, "missing check line".to_owned()))?;
        let mut cit = check.split_whitespace();
        if next_tok(path, ci + 1, "check tag", &mut cit)? != "check" {
            return Err(corrupt(path, ci + 1, "expected check line".to_owned()));
        }
        let want = parse_hex(
            path,
            ci + 1,
            "checksum",
            next_tok(path, ci + 1, "checksum", &mut cit)?,
        )?;
        if want != fnv1a64(payload.as_bytes()) {
            return Err(corrupt(
                path,
                line_no,
                "feedback checksum mismatch".to_owned(),
            ));
        }
        let mut it = payload.split_whitespace();
        let tag = next_tok(path, line_no, "record tag", &mut it)?;
        let rel = next_tok(path, line_no, "relation", &mut it)?.to_owned();
        let col = next_tok(path, line_no, "column", &mut it)?.to_owned();
        match tag {
            "grid" => {
                let lo = parse_f64(
                    path,
                    line_no,
                    "domain lo",
                    next_tok(path, line_no, "lo", &mut it)?,
                )?;
                let hi = parse_f64(
                    path,
                    line_no,
                    "domain hi",
                    next_tok(path, line_no, "hi", &mut it)?,
                )?;
                let alpha = parse_f64(
                    path,
                    line_no,
                    "alpha",
                    next_tok(path, line_no, "alpha", &mut it)?,
                )?;
                let obs = parse_usize(
                    path,
                    line_no,
                    "observations",
                    next_tok(path, line_no, "observations", &mut it)?,
                )?;
                let k = parse_usize(
                    path,
                    line_no,
                    "bucket count",
                    next_tok(path, line_no, "bucket count", &mut it)?,
                )?;
                let mut corrections = Vec::with_capacity(k);
                for j in 0..k {
                    let tok = next_tok(path, line_no, "correction", &mut it).map_err(|_| {
                        corrupt(
                            path,
                            line_no,
                            format!("grid wants {k} corrections, found {j}"),
                        )
                    })?;
                    corrections.push(parse_f64(path, line_no, "correction", tok)?);
                }
                let domain = Domain::try_new(lo, hi).map_err(|e| e.with_path(path))?;
                let grid = CorrectionGrid::from_parts(domain, corrections, alpha, obs)
                    .map_err(|e| e.with_path(path))?;
                state.grids.insert((rel, col), grid);
            }
            "alarm" => {
                let count = parse_usize(
                    path,
                    line_no,
                    "alarm count",
                    next_tok(path, line_no, "count", &mut it)?,
                )?;
                let last = parse_f64(
                    path,
                    line_no,
                    "alarm drift",
                    next_tok(path, line_no, "drift", &mut it)?,
                )?;
                if !last.is_finite() || last < 0.0 {
                    return Err(corrupt(path, line_no, format!("bad alarm drift {last}")));
                }
                state.alarms.insert(
                    (rel, col),
                    DriftAlarm {
                        count,
                        last_drift: last,
                    },
                );
            }
            "online" => {
                let a = parse_f64(
                    path,
                    line_no,
                    "query a",
                    next_tok(path, line_no, "a", &mut it)?,
                )?;
                let b = parse_f64(
                    path,
                    line_no,
                    "query b",
                    next_tok(path, line_no, "b", &mut it)?,
                )?;
                let seen = parse_usize(
                    path,
                    line_no,
                    "seen",
                    next_tok(path, line_no, "seen", &mut it)?,
                )?;
                let matched = parse_usize(
                    path,
                    line_no,
                    "matched",
                    next_tok(path, line_no, "matched", &mut it)?,
                )?;
                let skipped = parse_usize(
                    path,
                    line_no,
                    "skipped",
                    next_tok(path, line_no, "skipped", &mut it)?,
                )?;
                let cp = OnlineCheckpoint {
                    a,
                    b,
                    seen,
                    matched,
                    skipped_nonfinite: skipped,
                };
                cp.resume().map_err(|e| e.with_path(path))?;
                state.online.insert((rel, col), cp);
            }
            "sketch" => {
                let cp = decode_sketch_fields(path, line_no, rel.clone(), col.clone(), &mut it)?;
                GkSketch::from_parts(cp.sketch.clone()).map_err(|e| e.with_path(path))?;
                IncrementalColumn::from_parts(cp.column_state.clone())
                    .map_err(|e| e.with_path(path))?;
                state.sketches.insert((rel, col), cp);
            }
            other => {
                return Err(corrupt(
                    path,
                    line_no,
                    format!("unknown record tag {other:?}"),
                ))
            }
        }
        if it.next().is_some() {
            return Err(corrupt(path, line_no, "trailing tokens".to_owned()));
        }
    }
    Ok(state)
}

fn encode_record_payload(rec: &JournalRecord) -> String {
    match rec {
        JournalRecord::Observation {
            relation,
            column,
            a,
            b,
            base,
            truth,
        } => format!("obs {relation} {column} {a} {b} {base} {truth}"),
        JournalRecord::DriftAlarm {
            relation,
            column,
            drift,
        } => format!("drift {relation} {column} {drift}"),
        JournalRecord::OnlineCheckpoint {
            relation,
            column,
            a,
            b,
            seen,
            matched,
            skipped_nonfinite,
        } => format!("online {relation} {column} {a} {b} {seen} {matched} {skipped_nonfinite}"),
        JournalRecord::Sketch(cp) => format!(
            "sketch {} {} {}",
            cp.relation,
            cp.column,
            encode_sketch_fields(cp)
        ),
    }
}

fn decode_record_payload(
    path: &Path,
    line: usize,
    payload: &str,
) -> Result<JournalRecord, EstimateError> {
    let mut it = payload.split_whitespace();
    let tag = next_tok(path, line, "record tag", &mut it)?;
    let relation = next_tok(path, line, "relation", &mut it)?.to_owned();
    let column = next_tok(path, line, "column", &mut it)?.to_owned();
    let rec = match tag {
        "obs" => JournalRecord::Observation {
            relation,
            column,
            a: parse_f64(path, line, "a", next_tok(path, line, "a", &mut it)?)?,
            b: parse_f64(path, line, "b", next_tok(path, line, "b", &mut it)?)?,
            base: parse_f64(path, line, "base", next_tok(path, line, "base", &mut it)?)?,
            truth: parse_f64(path, line, "truth", next_tok(path, line, "truth", &mut it)?)?,
        },
        "drift" => JournalRecord::DriftAlarm {
            relation,
            column,
            drift: parse_f64(path, line, "drift", next_tok(path, line, "drift", &mut it)?)?,
        },
        "online" => JournalRecord::OnlineCheckpoint {
            relation,
            column,
            a: parse_f64(path, line, "a", next_tok(path, line, "a", &mut it)?)?,
            b: parse_f64(path, line, "b", next_tok(path, line, "b", &mut it)?)?,
            seen: parse_usize(path, line, "seen", next_tok(path, line, "seen", &mut it)?)?,
            matched: parse_usize(
                path,
                line,
                "matched",
                next_tok(path, line, "matched", &mut it)?,
            )?,
            skipped_nonfinite: parse_usize(
                path,
                line,
                "skipped",
                next_tok(path, line, "skipped", &mut it)?,
            )?,
        },
        "sketch" => {
            JournalRecord::Sketch(decode_sketch_fields(path, line, relation, column, &mut it)?)
        }
        other => {
            return Err(corrupt(
                path,
                line,
                format!("unknown journal tag {other:?}"),
            ))
        }
    };
    if it.next().is_some() {
        return Err(corrupt(path, line, "trailing tokens".to_owned()));
    }
    Ok(rec)
}

fn encode_record_line(rec: &JournalRecord) -> String {
    let payload = encode_record_payload(rec);
    format!(
        "rec {} {:016x} {}\n",
        payload.len(),
        fnv1a64(payload.as_bytes()),
        payload
    )
}

/// What reading a journal file found.
struct JournalScan {
    /// Generation the journal belongs to (per its header).
    gen: u64,
    /// Valid records, in append order.
    records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (header + valid record lines).
    valid_len: u64,
    /// Content after the valid prefix was a torn tail (tolerated).
    torn_tail: bool,
    /// A bad record had valid records after it — real corruption.
    midfile_corrupt: Option<EstimateError>,
}

fn scan_journal(path: &Path, text: &str) -> Result<JournalScan, EstimateError> {
    let mut pos = 0usize;
    let mut lines: Vec<(usize, &str, bool)> = Vec::new(); // (start, content, complete)
    for piece in text.split_inclusive('\n') {
        let complete = piece.ends_with('\n');
        lines.push((pos, piece.trim_end_matches('\n'), complete));
        pos += piece.len();
    }
    let Some(&(_, header, header_complete)) = lines.first() else {
        return Err(corrupt(path, 1, "empty journal".to_owned()));
    };
    let mut it = header.split_whitespace();
    let tag: String = it.by_ref().take(2).collect::<Vec<_>>().join(" ");
    if tag != JOURNAL_HEADER || !header_complete {
        return Err(corrupt(path, 1, format!("bad journal header {header:?}")));
    }
    if next_tok(path, 1, "gen tag", &mut it)? != "gen" {
        return Err(corrupt(path, 1, "journal header missing gen".to_owned()));
    }
    let gen = parse_u64(
        path,
        1,
        "generation",
        next_tok(path, 1, "generation", &mut it)?,
    )?;
    if it.next().is_some() {
        return Err(corrupt(
            path,
            1,
            "trailing tokens in journal header".to_owned(),
        ));
    }

    let parse_line = |idx: usize, content: &str| -> Result<JournalRecord, EstimateError> {
        let line_no = idx + 1;
        // Exactly four space-separated fields; the payload may itself
        // contain spaces, so split at most three times.
        let mut it = content.splitn(4, ' ');
        if next_field(path, line_no, "rec tag", &mut it)? != "rec" {
            return Err(corrupt(path, line_no, "expected rec line".to_owned()));
        }
        let len = parse_usize(
            path,
            line_no,
            "payload length",
            next_field(path, line_no, "length", &mut it)?,
        )?;
        let want = parse_hex(
            path,
            line_no,
            "checksum",
            next_field(path, line_no, "checksum", &mut it)?,
        )?;
        let payload = it.next().unwrap_or("");
        if payload.len() != len {
            return Err(corrupt(
                path,
                line_no,
                format!(
                    "payload length mismatch: header {len}, found {}",
                    payload.len()
                ),
            ));
        }
        if fnv1a64(payload.as_bytes()) != want {
            return Err(corrupt(
                path,
                line_no,
                "record checksum mismatch".to_owned(),
            ));
        }
        decode_record_payload(path, line_no, payload)
    };

    let mut records = Vec::new();
    let mut valid_len = lines[0].1.len() as u64 + 1;
    let mut torn_tail = false;
    let mut midfile_corrupt = None;
    for (idx, &(start, content, complete)) in lines.iter().enumerate().skip(1) {
        if content.is_empty() && !complete {
            break; // trailing EOF after final newline
        }
        let parsed = if complete {
            parse_line(idx, content)
        } else {
            Err(corrupt(path, idx + 1, "record missing newline".to_owned()))
        };
        match parsed {
            Ok(rec) => {
                records.push(rec);
                valid_len = (start + content.len() + 1) as u64;
            }
            Err(e) => {
                // Is anything after this line a valid record? Then the
                // damage is mid-file, not a torn tail.
                let later_valid = lines
                    .iter()
                    .enumerate()
                    .skip(idx + 1)
                    .any(|(j, &(_, c, comp))| comp && !c.is_empty() && parse_line(j, c).is_ok());
                if later_valid {
                    midfile_corrupt = Some(e);
                } else {
                    torn_tail = true;
                }
                break;
            }
        }
    }
    Ok(JournalScan {
        gen,
        records,
        valid_len,
        torn_tail,
        midfile_corrupt,
    })
}

fn gen_stats_name(generation: u64) -> String {
    format!("gen-{generation:06}.stats")
}

fn gen_feedback_name(generation: u64) -> String {
    format!("gen-{generation:06}.feedback")
}

/// Generation numbers with a `.stats` file present, ascending.
fn list_generations(dir: &Path) -> Result<Vec<u64>, EstimateError> {
    let mut gens = Vec::new();
    let rd = std::fs::read_dir(dir).map_err(|e| io_error(dir, "read store dir", e))?;
    for entry in rd {
        let entry = entry.map_err(|e| io_error(dir, "read store dir entry", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(num) = name
            .strip_prefix("gen-")
            .and_then(|rest| rest.strip_suffix(".stats"))
        {
            if let Ok(g) = num.parse::<u64>() {
                gens.push(g);
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

impl DurableStore {
    /// Open (or create) the store at `dir` with default retention and no
    /// crash injection, running the recovery ladder.
    pub fn open(dir: &Path) -> Result<(Self, RecoveryReport), EstimateError> {
        Self::open_with(dir, RetentionPolicy::default(), CrashPlan::inert())
    }

    /// [`DurableStore::open`] with an explicit retention policy and crash
    /// plan (the plan also arms this store's later writes).
    pub fn open_with(
        dir: &Path,
        retention: RetentionPolicy,
        plan: CrashPlan,
    ) -> Result<(Self, RecoveryReport), EstimateError> {
        std::fs::create_dir_all(dir).map_err(|e| io_error(dir, "create store dir", e))?;
        let mut store = DurableStore {
            dir: dir.to_path_buf(),
            active: 0,
            entries: Vec::new(),
            feedback: FeedbackState::default(),
            retention,
            plan,
            journal_records: 0,
        };
        let mut report = RecoveryReport::new(RecoveryRung::Active);
        store.sweep_tmp_debris(&mut report)?;

        let manifest_path = store.manifest_path();
        let manifest = match std::fs::read_to_string(&manifest_path) {
            Ok(text) => Some(decode_manifest(&manifest_path, &text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Bit rot took the file outside UTF-8 entirely: corrupt,
                // not absent — the ladder handles it like a bad decode.
                Some(Err(corrupt(&manifest_path, 1, e.to_string())))
            }
            Err(e) => return Err(io_error(&manifest_path, "read", e)),
        };
        let gens = list_generations(dir)?;

        match manifest {
            None if gens.is_empty() => {
                // Nothing here: a brand-new store.
                report.rung = RecoveryRung::Fresh;
                store.quarantine_if_exists(&store.journal_path(), &mut report);
                store.commit_generation(0, Vec::new(), FeedbackState::default(), &mut report)?;
            }
            Some(Ok(m)) => match store.load_generation(m.active, Some(&m), &mut report) {
                Ok((entries, feedback, feedback_reset)) => {
                    store.active = m.active;
                    store.entries = entries;
                    store.feedback = feedback;
                    report.rung = RecoveryRung::Active;
                    report.generation = m.active;
                    report.feedback_reset = feedback_reset;
                    if feedback_reset {
                        // Stats are fine but the feedback snapshot is
                        // gone: salvage what the journal still holds,
                        // then re-commit so the manifest checksums
                        // verify again.
                        store.recover_journal(&mut report)?;
                        let (entries, feedback) = (store.entries.clone(), store.feedback.clone());
                        let next = store.next_generation(&gens, Some(m.active));
                        store.commit_generation(next, entries, feedback, &mut report)?;
                    } else {
                        store.recover_journal(&mut report)?;
                        store.prune_beyond(&gens, m.active, &mut report);
                    }
                }
                Err(e) => {
                    report.errors.push(e);
                    store.hunt_previous(&gens, Some(m.active), &mut report)?;
                }
            },
            Some(Err(e)) => {
                report.errors.push(e);
                store.quarantine_if_exists(&manifest_path, &mut report);
                store.hunt_previous(&gens, None, &mut report)?;
            }
            None => {
                // Manifest missing but generations exist: a half-built or
                // damaged store.
                report.errors.push(EstimateError::Io {
                    path: manifest_path.display().to_string(),
                    op: "read".to_owned(),
                    message: "manifest missing with generations present".to_owned(),
                });
                store.hunt_previous(&gens, None, &mut report)?;
            }
        }
        Ok((store, report))
    }

    /// Arm (or disarm) crash injection for this store's later writes.
    pub fn set_crash_plan(&mut self, plan: CrashPlan) {
        self.plan = plan;
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active generation number.
    pub fn active_generation(&self) -> u64 {
        self.active
    }

    /// The active generation's statistics entries.
    pub fn entries(&self) -> &[PersistedStatistics] {
        &self.entries
    }

    /// The current feedback state (snapshot + replayed/appended journal).
    pub fn feedback(&self) -> &FeedbackState {
        &self.feedback
    }

    /// Journal records on disk since the last snapshot.
    pub fn journal_len(&self) -> usize {
        self.journal_records
    }

    /// Publish freshly ANALYZE'd entries as a new generation. The
    /// feedback state resets — corrections learned against the old
    /// statistics do not transfer to new ones. An entry whose relation or
    /// column name is empty or contains whitespace is refused with
    /// [`EstimateError::UnpersistableName`] before any file is written, and
    /// the store stays on its current generation.
    pub fn publish(&mut self, entries: Vec<PersistedStatistics>) -> Result<u64, EstimateError> {
        let gen = self.active + 1;
        let mut report = RecoveryReport::new(RecoveryRung::Active);
        self.commit_generation(gen, entries, FeedbackState::default(), &mut report)?;
        Ok(gen)
    }

    /// Fold the journal into a new generation: same entries, feedback
    /// preserved, journal reset, old generations pruned per retention.
    pub fn compact(&mut self) -> Result<u64, EstimateError> {
        let gen = self.active + 1;
        let (entries, feedback) = (self.entries.clone(), self.feedback.clone());
        let mut report = RecoveryReport::new(RecoveryRung::Active);
        self.commit_generation(gen, entries, feedback, &mut report)?;
        Ok(gen)
    }

    /// Append one feedback record: validate against the active entries,
    /// write ahead to the journal (fsync), then fold into the in-memory
    /// state. On error nothing is folded.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<(), EstimateError> {
        let mut staged = self.feedback.clone();
        staged.apply(rec, &self.entries)?;
        let line = encode_record_line(rec);
        let jpath = self.journal_path();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&jpath)
            .map_err(|e| io_error(&jpath, "open journal for append", e))?;
        if self.plan.fires_at(CrashPoint::JournalMidRecord) {
            // Half a record line reaches the disk: the torn tail the
            // scanner must tolerate.
            let half = line.len() / 2;
            f.write_all(&line.as_bytes()[..half])
                .map_err(|e| io_error(&jpath, "append journal record", e))?;
            return Err(crash_error(&jpath, CrashPoint::JournalMidRecord));
        }
        f.write_all(line.as_bytes())
            .map_err(|e| io_error(&jpath, "append journal record", e))?;
        if self.plan.fires_at(CrashPoint::JournalPreSync) {
            return Err(crash_error(&jpath, CrashPoint::JournalPreSync));
        }
        f.sync_all()
            .map_err(|e| io_error(&jpath, "fsync journal", e))?;
        self.feedback = staged;
        self.journal_records += 1;
        Ok(())
    }

    /// Build a serving catalog from the active generation's entries.
    /// Returns the catalog plus per-column import failures (damaged
    /// entries degrade, they do not fail the load).
    pub fn load_catalog(&self) -> (StatisticsCatalog, Vec<(String, String, EstimateError)>) {
        let mut catalog = StatisticsCatalog::new();
        let failures = catalog.try_import(self.entries.clone());
        (catalog, failures)
    }

    /// Journal one column's incremental substrate (write-ahead, fsynced,
    /// validated like any record). The latest checkpoint per column wins
    /// on replay, so periodic checkpointing bounds replay work to one
    /// record per column.
    pub fn checkpoint_sketch(
        &mut self,
        checkpoint: &SketchCheckpoint,
    ) -> Result<(), EstimateError> {
        self.append(&JournalRecord::Sketch(checkpoint.clone()))
    }

    /// Rebuild the incremental substrate of every journaled checkpoint
    /// into `catalog` ([`StatisticsCatalog::try_restore_incremental`] per
    /// column). Returns per-column failures; successes resume ingest with
    /// their staleness pressure intact.
    pub fn restore_incremental(
        &self,
        catalog: &mut StatisticsCatalog,
    ) -> Vec<(String, String, EstimateError)> {
        let mut failures = Vec::new();
        for cp in self.feedback.sketches() {
            if let Err(e) = catalog.try_restore_incremental(cp) {
                failures.push((cp.relation.clone(), cp.column.clone(), e));
            }
        }
        failures
    }

    /// Byte-exact representation of the committed state: the encoded
    /// active snapshot and folded feedback. Used by the determinism and
    /// crash-consistency suites.
    pub fn export_bytes(&self) -> (String, String) {
        (
            persist::encode(&self.entries),
            encode_feedback(&self.feedback),
        )
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_FILE)
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    fn stats_path(&self, generation: u64) -> PathBuf {
        self.dir.join(gen_stats_name(generation))
    }

    fn feedback_path(&self, generation: u64) -> PathBuf {
        self.dir.join(gen_feedback_name(generation))
    }

    fn next_generation(&self, gens: &[u64], active: Option<u64>) -> u64 {
        gens.iter()
            .copied()
            .chain(active)
            .max()
            .map_or(0, |g| g + 1)
    }

    /// Remove `*.tmp` debris left by interrupted writes.
    fn sweep_tmp_debris(&self, report: &mut RecoveryReport) -> Result<(), EstimateError> {
        let rd =
            std::fs::read_dir(&self.dir).map_err(|e| io_error(&self.dir, "read store dir", e))?;
        for entry in rd {
            let entry = entry.map_err(|e| io_error(&self.dir, "read store dir entry", e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                let _ = std::fs::remove_file(entry.path());
                report.pruned.push(name);
            }
        }
        Ok(())
    }

    /// Move a damaged file into `quarantine/` (best effort).
    fn quarantine_file(&self, path: &Path, report: &mut RecoveryReport) {
        let Some(name) = path.file_name() else {
            return;
        };
        let qdir = self.dir.join(QUARANTINE_DIR);
        if std::fs::create_dir_all(&qdir).is_err() {
            let _ = std::fs::remove_file(path);
            report.quarantined.push(name.to_string_lossy().into_owned());
            return;
        }
        let dest = qdir.join(name);
        if std::fs::rename(path, &dest).is_err() {
            let _ = std::fs::remove_file(path);
        }
        report.quarantined.push(name.to_string_lossy().into_owned());
    }

    fn quarantine_if_exists(&self, path: &Path, report: &mut RecoveryReport) {
        if path.exists() {
            self.quarantine_file(path, report);
        }
    }

    /// Load a generation's entries + feedback. With a manifest the
    /// whole-file checksums are verified too; without one the per-entry
    /// (and per-line) checksums carry the verification. A damaged
    /// feedback file degrades to an empty state (`true` in the result);
    /// damaged stats fail the load.
    fn load_generation(
        &self,
        generation: u64,
        manifest: Option<&Manifest>,
        report: &mut RecoveryReport,
    ) -> Result<(Vec<PersistedStatistics>, FeedbackState, bool), EstimateError> {
        let spath = self.stats_path(generation);
        let stext = std::fs::read_to_string(&spath).map_err(|e| io_error(&spath, "read", e))?;
        if let Some(m) = manifest {
            if fnv1a64(stext.as_bytes()) != m.stats_fnv {
                return Err(corrupt(
                    &spath,
                    1,
                    "snapshot checksum does not match manifest".to_owned(),
                ));
            }
        }
        let entries = persist::decode(&stext).map_err(|e| e.with_path(&spath))?;
        let fpath = self.feedback_path(generation);
        let feedback = match std::fs::read_to_string(&fpath) {
            Ok(ftext) => {
                let fnv_ok = manifest.is_none_or(|m| fnv1a64(ftext.as_bytes()) == m.feedback_fnv);
                if fnv_ok {
                    match decode_feedback(&fpath, &ftext) {
                        Ok(state) => Some(state),
                        Err(e) => {
                            report.errors.push(e);
                            None
                        }
                    }
                } else {
                    report.errors.push(corrupt(
                        &fpath,
                        1,
                        "feedback checksum does not match manifest".to_owned(),
                    ));
                    None
                }
            }
            Err(e) => {
                report.errors.push(io_error(&fpath, "read", e));
                None
            }
        };
        match feedback {
            Some(state) => Ok((entries, state, false)),
            None => {
                self.quarantine_if_exists(&fpath, report);
                Ok((entries, FeedbackState::default(), true))
            }
        }
    }

    /// The lower rungs of the ladder: quarantine the damaged active
    /// generation, hunt older generations descending, and re-commit the
    /// best one found as a fresh generation — or rebuild empty.
    fn hunt_previous(
        &mut self,
        gens: &[u64],
        damaged_active: Option<u64>,
        report: &mut RecoveryReport,
    ) -> Result<(), EstimateError> {
        // The journal belonged to the damaged generation; its records
        // were observations against statistics we can no longer trust.
        report.journal_stale = true;
        self.quarantine_if_exists(&self.journal_path(), report);
        if let Some(g) = damaged_active {
            self.quarantine_if_exists(&self.stats_path(g), report);
            self.quarantine_if_exists(&self.feedback_path(g), report);
        }
        let next = self.next_generation(gens, damaged_active);
        let mut candidates: Vec<u64> = gens
            .iter()
            .copied()
            .filter(|g| Some(*g) != damaged_active)
            .collect();
        candidates.sort_unstable();
        for g in candidates.iter().rev() {
            match self.load_generation(*g, None, report) {
                Ok((entries, feedback, feedback_reset)) => {
                    report.rung = RecoveryRung::PreviousGeneration;
                    report.feedback_reset = feedback_reset;
                    self.commit_generation(next, entries, feedback, report)?;
                    // The older files that were recovered from stay until
                    // retention prunes them on a later commit; files we
                    // failed on were quarantined above.
                    return Ok(());
                }
                Err(e) => {
                    report.errors.push(e);
                    self.quarantine_if_exists(&self.stats_path(*g), report);
                    self.quarantine_if_exists(&self.feedback_path(*g), report);
                }
            }
        }
        report.rung = RecoveryRung::Rebuild;
        self.commit_generation(next, Vec::new(), FeedbackState::default(), report)?;
        Ok(())
    }

    /// Replay the journal against the freshly loaded active generation,
    /// repairing it in place (truncate a torn tail, reset a stale or
    /// corrupt journal) so `fsck` passes afterward.
    fn recover_journal(&mut self, report: &mut RecoveryReport) -> Result<(), EstimateError> {
        let jpath = self.journal_path();
        let text = match std::fs::read_to_string(&jpath) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return self.reset_journal();
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Non-UTF-8 bit rot: corrupt beyond salvage, discard.
                report.errors.push(corrupt(&jpath, 1, e.to_string()));
                report.journal_stale = true;
                return self.reset_journal();
            }
            Err(e) => return Err(io_error(&jpath, "read", e)),
        };
        let scan = match scan_journal(&jpath, &text) {
            Ok(s) => s,
            Err(e) => {
                report.errors.push(e);
                report.journal_stale = true;
                return self.reset_journal();
            }
        };
        if scan.gen != self.active {
            // Left over from before the last commit: its records are
            // already folded into the active feedback file.
            report.journal_stale = true;
            return self.reset_journal();
        }
        if let Some(e) = scan.midfile_corrupt {
            // Damage with valid records after it: the valid prefix cannot
            // be trusted either (the file was rewritten or bit-rotted,
            // not torn) — discard wholesale rather than serve corrections
            // of unknown provenance.
            report.errors.push(e);
            report.journal_stale = true;
            return self.reset_journal();
        }
        for rec in &scan.records {
            match self.feedback.apply(rec, &self.entries) {
                Ok(()) => report.journal_applied += 1,
                Err(e) => {
                    report.journal_orphaned += 1;
                    report.errors.push(e);
                }
            }
        }
        self.journal_records = scan.records.len();
        if scan.torn_tail {
            report.journal_truncated = true;
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&jpath)
                .map_err(|e| io_error(&jpath, "open journal for truncate", e))?;
            f.set_len(scan.valid_len)
                .map_err(|e| io_error(&jpath, "truncate torn journal tail", e))?;
            f.sync_all()
                .map_err(|e| io_error(&jpath, "fsync journal", e))?;
        }
        Ok(())
    }

    fn reset_journal(&mut self) -> Result<(), EstimateError> {
        let header = format!("{JOURNAL_HEADER} gen {}\n", self.active);
        let jpath = self.journal_path();
        write_atomic_crashable(
            &mut self.plan,
            &jpath,
            header.as_bytes(),
            JOURNAL_RESET_SITES,
        )?;
        self.journal_records = 0;
        Ok(())
    }

    /// The committed write sequence. The `MANIFEST` rename is the commit
    /// point: in-memory state flips only after it lands; the journal
    /// reset and retention pruning after it are recoverable maintenance
    /// (a crash there leaves a stale journal the next open discards).
    fn commit_generation(
        &mut self,
        generation: u64,
        entries: Vec<PersistedStatistics>,
        feedback: FeedbackState,
        report: &mut RecoveryReport,
    ) -> Result<(), EstimateError> {
        persist::check_names(&entries)?;
        let stats_text = persist::encode(&entries);
        let feedback_text = encode_feedback(&feedback);
        let spath = self.stats_path(generation);
        let fpath = self.feedback_path(generation);
        let mpath = self.manifest_path();
        write_atomic_crashable(
            &mut self.plan,
            &spath,
            stats_text.as_bytes(),
            SNAPSHOT_SITES,
        )?;
        write_atomic_crashable(
            &mut self.plan,
            &fpath,
            feedback_text.as_bytes(),
            FEEDBACK_SITES,
        )?;
        let manifest = encode_manifest(
            generation,
            fnv1a64(stats_text.as_bytes()),
            fnv1a64(feedback_text.as_bytes()),
        );
        write_atomic_crashable(&mut self.plan, &mpath, manifest.as_bytes(), MANIFEST_SITES)?;
        // Commit point passed.
        self.active = generation;
        self.entries = entries;
        self.feedback = feedback;
        report.generation = generation;
        self.reset_journal()?;
        let gens = list_generations(&self.dir)?;
        self.prune_beyond(&gens, generation, report);
        Ok(())
    }

    /// Remove generations newer than `active` (uncommitted leftovers) and
    /// older ones beyond the retention window.
    fn prune_beyond(&self, gens: &[u64], active: u64, report: &mut RecoveryReport) {
        let keep = self.retention.keep();
        let mut committed: Vec<u64> = gens.iter().copied().filter(|g| *g <= active).collect();
        committed.sort_unstable();
        let cutoff = committed.len().saturating_sub(keep);
        let doomed = gens
            .iter()
            .copied()
            .filter(|g| *g > active)
            .chain(committed[..cutoff].iter().copied());
        for g in doomed {
            for path in [self.stats_path(g), self.feedback_path(g)] {
                if path.exists() && std::fs::remove_file(&path).is_ok() {
                    report
                        .pruned
                        .push(path.file_name().unwrap().to_string_lossy().into_owned());
                }
            }
        }
    }
}

/// Read-only integrity check of a store directory: verifies the
/// manifest, the active generation's checksums, the feedback file, and
/// the journal, without modifying anything. Repair is spelled
/// [`DurableStore::open`] — run it and `fsck` again.
pub fn fsck(dir: &Path) -> FsckReport {
    let mut report = FsckReport {
        healthy: false,
        active: None,
        generations: Vec::new(),
        journal_records: 0,
        sketch_columns: 0,
        sketch_pending_updates: 0,
        findings: Vec::new(),
    };
    // Latest sketch pressure per column: feedback snapshot first, then
    // journal records overlay it (replay order).
    let mut sketch_pressure: BTreeMap<(String, String), u64> = BTreeMap::new();
    if !dir.is_dir() {
        report
            .findings
            .push(format!("store directory {} missing", dir.display()));
        return report;
    }
    match list_generations(dir) {
        Ok(gens) => report.generations = gens,
        Err(e) => report.findings.push(e.to_string()),
    }
    if let Ok(rd) = std::fs::read_dir(dir) {
        for entry in rd.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                report.findings.push(format!("temp debris {name}"));
            }
        }
    }
    let manifest_path = dir.join(MANIFEST_FILE);
    let manifest = match std::fs::read_to_string(&manifest_path) {
        Ok(text) => match decode_manifest(&manifest_path, &text) {
            Ok(m) => Some(m),
            Err(e) => {
                report.findings.push(e.to_string());
                None
            }
        },
        Err(e) => {
            report.findings.push(format!("manifest unreadable: {e}"));
            None
        }
    };
    let Some(m) = manifest else {
        return report;
    };
    report.active = Some(m.active);
    for g in &report.generations {
        if *g > m.active {
            report.findings.push(format!(
                "orphan generation {g} newer than active {}",
                m.active
            ));
        }
    }
    let spath = dir.join(gen_stats_name(m.active));
    match std::fs::read_to_string(&spath) {
        Ok(text) => {
            if fnv1a64(text.as_bytes()) != m.stats_fnv {
                report
                    .findings
                    .push(format!("{} checksum mismatch vs manifest", spath.display()));
            } else if let Err(e) = persist::decode(&text) {
                report.findings.push(e.with_path(&spath).to_string());
            }
        }
        Err(e) => report
            .findings
            .push(format!("active snapshot unreadable: {e}")),
    }
    let fpath = dir.join(gen_feedback_name(m.active));
    match std::fs::read_to_string(&fpath) {
        Ok(text) => {
            if fnv1a64(text.as_bytes()) != m.feedback_fnv {
                report
                    .findings
                    .push(format!("{} checksum mismatch vs manifest", fpath.display()));
            } else {
                match decode_feedback(&fpath, &text) {
                    Ok(state) => {
                        for ((rel, col), cp) in &state.sketches {
                            sketch_pressure
                                .insert((rel.clone(), col.clone()), cp.updates_since_refresh);
                        }
                    }
                    Err(e) => report.findings.push(e.to_string()),
                }
            }
        }
        Err(e) => report
            .findings
            .push(format!("active feedback unreadable: {e}")),
    }
    let jpath = dir.join(JOURNAL_FILE);
    match std::fs::read_to_string(&jpath) {
        Ok(text) => match scan_journal(&jpath, &text) {
            Ok(scan) => {
                report.journal_records = scan.records.len();
                for rec in &scan.records {
                    if let JournalRecord::Sketch(cp) = rec {
                        sketch_pressure.insert(
                            (cp.relation.clone(), cp.column.clone()),
                            cp.updates_since_refresh,
                        );
                    }
                }
                if scan.gen != m.active {
                    report.findings.push(format!(
                        "journal generation {} does not match active {}",
                        scan.gen, m.active
                    ));
                }
                if scan.torn_tail {
                    report.findings.push("journal has a torn tail".to_owned());
                }
                if let Some(e) = scan.midfile_corrupt {
                    report.findings.push(e.to_string());
                }
            }
            Err(e) => report.findings.push(e.to_string()),
        },
        Err(e) => report.findings.push(format!("journal unreadable: {e}")),
    }
    report.sketch_columns = sketch_pressure.len();
    report.sketch_pending_updates = sketch_pressure.values().sum();
    report.healthy = report.findings.is_empty();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::EstimatorKind;
    use std::sync::Arc;

    fn scratch(name: &str) -> PathBuf {
        let dir = PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/durable-test"
        ))
        .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn entry(rel: &str, col: &str) -> PersistedStatistics {
        PersistedStatistics {
            relation: Arc::from(rel),
            column: Arc::from(col),
            kind: EstimatorKind::Sampling,
            n_rows: 1000,
            domain: Domain::new(0.0, 100.0),
            sample: Arc::from(
                (0..50)
                    .map(|i| i as f64 * 2.0 + 1.0)
                    .collect::<Vec<f64>>()
                    .into_boxed_slice(),
            ),
        }
    }

    fn obs(rel: &str, col: &str, truth: f64) -> JournalRecord {
        JournalRecord::Observation {
            relation: rel.to_owned(),
            column: col.to_owned(),
            a: 0.0,
            b: 25.0,
            base: 0.25,
            truth,
        }
    }

    #[test]
    fn fresh_open_commits_generation_zero() {
        let dir = scratch("fresh");
        let (store, report) = DurableStore::open(&dir).expect("open");
        assert_eq!(report.rung, RecoveryRung::Fresh);
        assert_eq!(store.active_generation(), 0);
        assert!(store.entries().is_empty());
        let check = fsck(&dir);
        assert!(check.healthy, "findings: {:?}", check.findings);
        assert_eq!(check.active, Some(0));
    }

    #[test]
    fn publish_append_compact_round_trip() {
        let dir = scratch("roundtrip");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        let generation = store.publish(vec![entry("t", "v")]).expect("publish");
        assert_eq!(generation, 1);
        store.append(&obs("t", "v", 0.5)).expect("append");
        store
            .append(&JournalRecord::DriftAlarm {
                relation: "t".into(),
                column: "v".into(),
                drift: 1.5,
            })
            .expect("append alarm");
        store
            .append(&JournalRecord::OnlineCheckpoint {
                relation: "t".into(),
                column: "v".into(),
                a: 0.0,
                b: 25.0,
                seen: 100,
                matched: 26,
                skipped_nonfinite: 1,
            })
            .expect("append checkpoint");
        assert_eq!(store.journal_len(), 3);
        let feedback_before = store.feedback().clone();
        let g2 = store.compact().expect("compact");
        assert_eq!(g2, 2);
        assert_eq!(store.journal_len(), 0, "journal folded away");
        assert_eq!(
            store.feedback(),
            &feedback_before,
            "compaction preserves feedback"
        );
        // Reopen: clean Active rung, identical state.
        let (reopened, report) = DurableStore::open(&dir).expect("reopen");
        assert_eq!(report.rung, RecoveryRung::Active);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(reopened.feedback(), &feedback_before);
        assert_eq!(reopened.entries(), store.entries());
        assert!(fsck(&dir).healthy);
        // The checkpoint resumes into a live scanner.
        let cp = reopened.feedback().online("t", "v").expect("checkpoint");
        let online = cp.resume().expect("resume");
        assert_eq!(online.seen(), 100);
        assert_eq!(online.matched(), 26);
    }

    #[test]
    fn journal_replays_on_reopen() {
        let dir = scratch("replay");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        store.publish(vec![entry("t", "v")]).expect("publish");
        store.append(&obs("t", "v", 0.5)).expect("append");
        store.append(&obs("t", "v", 0.5)).expect("append");
        let feedback = store.feedback().clone();
        drop(store);
        let (reopened, report) = DurableStore::open(&dir).expect("reopen");
        assert_eq!(report.journal_applied, 2);
        assert_eq!(reopened.feedback(), &feedback);
        assert_eq!(reopened.journal_len(), 2);
    }

    #[test]
    fn append_rejects_orphans_and_garbage() {
        let dir = scratch("validate");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        store.publish(vec![entry("t", "v")]).expect("publish");
        assert!(matches!(
            store.append(&obs("t", "missing", 0.5)),
            Err(EstimateError::MissingStatistics { .. })
        ));
        assert!(store.append(&obs("t", "v", f64::NAN)).is_err());
        assert_eq!(store.journal_len(), 0, "rejected records never hit disk");
        assert!(store.feedback().is_empty());
    }

    #[test]
    fn retention_prunes_old_generations() {
        let dir = scratch("retention");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        for _ in 0..5 {
            store.publish(vec![entry("t", "v")]).expect("publish");
        }
        assert_eq!(store.active_generation(), 5);
        let gens = list_generations(&dir).expect("list");
        assert_eq!(gens, vec![4, 5], "keep_generations=2");
        assert!(fsck(&dir).healthy);
    }

    #[test]
    fn damaged_active_recovers_previous_generation() {
        let dir = scratch("previous");
        let (mut store, _) = DurableStore::open_with(
            &dir,
            RetentionPolicy {
                keep_generations: 3,
            },
            CrashPlan::inert(),
        )
        .expect("open");
        store.publish(vec![entry("t", "v")]).expect("gen 1");
        store
            .publish(vec![entry("t", "v"), entry("t", "w")])
            .expect("gen 2");
        let gen1_bytes = std::fs::read_to_string(dir.join(gen_stats_name(1))).expect("gen1");
        // Vandalize the active snapshot.
        let spath = dir.join(gen_stats_name(2));
        let text = std::fs::read_to_string(&spath).expect("read");
        std::fs::write(&spath, text.replacen("sample", "sampel", 1)).expect("write");
        let (recovered, report) = DurableStore::open_with(
            &dir,
            RetentionPolicy {
                keep_generations: 3,
            },
            CrashPlan::inert(),
        )
        .expect("reopen");
        assert_eq!(report.rung, RecoveryRung::PreviousGeneration);
        assert!(!report.errors.is_empty());
        assert!(report.quarantined.iter().any(|n| n.contains("gen-000002")));
        // The recovered state is byte-identical to generation 1.
        let (stats, _) = recovered.export_bytes();
        assert_eq!(stats, gen1_bytes);
        assert!(recovered.active_generation() > 2, "recommitted forward");
        let check = fsck(&dir);
        assert!(check.healthy, "findings: {:?}", check.findings);
    }

    #[test]
    fn everything_damaged_rebuilds_empty() {
        let dir = scratch("rebuild");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        store.publish(vec![entry("t", "v")]).expect("publish");
        drop(store);
        // Destroy every snapshot (manifest stays, pointing at garbage).
        for g in list_generations(&dir).expect("list") {
            std::fs::write(dir.join(gen_stats_name(g)), "garbage").expect("write");
        }
        let (rebuilt, report) = DurableStore::open(&dir).expect("reopen");
        assert_eq!(report.rung, RecoveryRung::Rebuild);
        assert!(rebuilt.entries().is_empty());
        assert!(fsck(&dir).healthy);
    }

    #[test]
    fn torn_journal_tail_is_truncated_and_tolerated() {
        let dir = scratch("torntail");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        store.publish(vec![entry("t", "v")]).expect("publish");
        store.append(&obs("t", "v", 0.5)).expect("append");
        let feedback = store.feedback().clone();
        store.append(&obs("t", "v", 0.9)).expect("append 2");
        drop(store);
        // Tear the last record in half.
        let jpath = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&jpath).expect("read");
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        let keep: String = lines[..lines.len() - 1].join("");
        let torn = format!("{keep}{}", &lines[lines.len() - 1][..10]);
        std::fs::write(&jpath, torn).expect("write");
        let (reopened, report) = DurableStore::open(&dir).expect("reopen");
        assert!(report.journal_truncated);
        assert_eq!(report.journal_applied, 1);
        assert_eq!(
            reopened.feedback(),
            &feedback,
            "state is exactly the pre-torn-append state"
        );
        let check = fsck(&dir);
        assert!(check.healthy, "findings: {:?}", check.findings);
        assert_eq!(check.journal_records, 1);
    }

    #[test]
    fn midfile_journal_corruption_discards_the_journal() {
        let dir = scratch("midfile");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        store.publish(vec![entry("t", "v")]).expect("publish");
        store.append(&obs("t", "v", 0.5)).expect("append");
        store.append(&obs("t", "v", 0.9)).expect("append 2");
        drop(store);
        // Corrupt the FIRST record; the second stays valid -> not a tail.
        let jpath = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&jpath).expect("read");
        let corrupted = text.replacen("rec ", "rek ", 1);
        std::fs::write(&jpath, corrupted).expect("write");
        let (reopened, report) = DurableStore::open(&dir).expect("reopen");
        assert!(report.journal_stale);
        assert_eq!(report.journal_applied, 0);
        assert!(
            reopened.feedback().is_empty(),
            "untrustworthy journal discarded wholesale"
        );
        assert!(fsck(&dir).healthy);
    }

    #[test]
    fn feedback_encoding_round_trips_exactly() {
        let dir = scratch("fbroundtrip");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        store
            .publish(vec![entry("t", "v"), entry("t", "w")])
            .expect("publish");
        for truth in [0.5, 0.31, 0.7754321098765432, 1e-9] {
            store.append(&obs("t", "v", truth)).expect("append");
        }
        store.append(&obs("t", "w", 0.125)).expect("append w");
        let encoded = encode_feedback(store.feedback());
        let decoded = decode_feedback(Path::new("mem"), &encoded).expect("decode");
        assert_eq!(&decoded, store.feedback());
        assert_eq!(encode_feedback(&decoded), encoded, "fixed point");
    }

    #[test]
    fn fsck_names_problems_in_a_vandalized_store() {
        let dir = scratch("fsck");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        store.publish(vec![entry("t", "v")]).expect("publish");
        drop(store);
        std::fs::write(dir.join("gen-000001.stats.tmp"), "debris").expect("tmp");
        let spath = dir.join(gen_stats_name(1));
        let text = std::fs::read_to_string(&spath).expect("read");
        std::fs::write(&spath, format!("{text}x")).expect("damage");
        let check = fsck(&dir);
        assert!(!check.healthy);
        assert!(check.findings.iter().any(|f| f.contains("temp debris")));
        assert!(check
            .findings
            .iter()
            .any(|f| f.contains("checksum mismatch")));
        // Repair = open + re-check.
        let (_, report) = DurableStore::open(&dir).expect("repair");
        assert_ne!(report.rung, RecoveryRung::Active);
        let check = fsck(&dir);
        assert!(check.healthy, "findings: {:?}", check.findings);
    }

    fn sketch_checkpoint() -> SketchCheckpoint {
        use crate::catalog::{AnalyzeConfig, StatisticsCatalog};
        use crate::relation::{Column, Relation};
        let d = Domain::new(0.0, 100.0);
        let values: Vec<f64> = (0..500)
            .map(|i| (i as f64 * 0.618_033_988_749).fract() * 100.0)
            .collect();
        let mut r = Relation::new("t");
        r.add_column(Column::new("v", d, values));
        let mut cat = StatisticsCatalog::new();
        let report = cat.try_analyze_incremental(
            &r,
            &AnalyzeConfig::default(),
            &selest_par::TryConfig::jobs(1),
        );
        assert!(report.is_healthy());
        cat.incremental_checkpoints().remove(0)
    }

    #[test]
    fn sketch_checkpoints_survive_restart_and_latest_wins() {
        let dir = scratch("sketchjournal");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        store.publish(vec![entry("t", "v")]).expect("publish");
        let mut cp = sketch_checkpoint();
        store.checkpoint_sketch(&cp).expect("checkpoint");
        cp.updates_since_refresh = 7;
        store.checkpoint_sketch(&cp).expect("checkpoint 2");
        assert_eq!(store.journal_len(), 2);
        assert_eq!(store.feedback().sketch("t", "v"), Some(&cp), "latest wins");
        drop(store);
        let (mut reopened, report) = DurableStore::open(&dir).expect("reopen");
        assert_eq!(report.journal_applied, 2);
        assert_eq!(reopened.feedback().sketch("t", "v"), Some(&cp));
        let check = fsck(&dir);
        assert!(check.healthy, "findings: {:?}", check.findings);
        assert_eq!(check.sketch_columns, 1);
        assert_eq!(check.sketch_pending_updates, 7);
        // Compact folds the journal into the feedback snapshot; the
        // checkpoint (and its staleness pressure) survives the fold.
        reopened.compact().expect("compact");
        assert_eq!(reopened.journal_len(), 0);
        assert_eq!(reopened.feedback().sketch("t", "v"), Some(&cp));
        let check = fsck(&dir);
        assert!(check.healthy, "findings: {:?}", check.findings);
        assert_eq!(check.sketch_columns, 1);
        assert_eq!(check.sketch_pending_updates, 7);
        // Restore resumes ingest: the rebuilt catalog reports exactly the
        // checkpointed staleness pressure.
        let (mut catalog, _) = reopened.load_catalog();
        let failures = reopened.restore_incremental(&mut catalog);
        assert!(failures.is_empty(), "{failures:?}");
        let signals = catalog.staleness_signals();
        assert_eq!(signals.len(), 1);
        assert_eq!((signals[0].0.as_str(), signals[0].1.as_str()), ("t", "v"));
        assert_eq!(signals[0].2.pending_updates, 7);
    }

    #[test]
    fn invalid_sketch_checkpoints_never_reach_the_journal() {
        let dir = scratch("sketchreject");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        store.publish(vec![entry("t", "v")]).expect("publish");
        let good = sketch_checkpoint();
        // Orphan: no statistics entry for the column.
        let mut orphan = good.clone();
        orphan.column = "missing".to_owned();
        assert!(matches!(
            store.checkpoint_sketch(&orphan),
            Err(EstimateError::MissingStatistics { .. })
        ));
        // Internally inconsistent GK state (Σg must equal n).
        let mut torn = good.clone();
        torn.sketch.n += 1;
        assert!(store.checkpoint_sketch(&torn).is_err());
        assert_eq!(store.journal_len(), 0, "rejected records never hit disk");
        assert!(store.feedback().is_empty());
    }

    #[test]
    fn publish_resets_feedback_but_compact_keeps_it() {
        let dir = scratch("reset");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        store.publish(vec![entry("t", "v")]).expect("gen 1");
        store.append(&obs("t", "v", 0.5)).expect("append");
        assert!(!store.feedback().is_empty());
        store.compact().expect("compact");
        assert!(!store.feedback().is_empty(), "compact keeps corrections");
        store.publish(vec![entry("t", "v")]).expect("gen 3");
        assert!(
            store.feedback().is_empty(),
            "fresh statistics invalidate old corrections"
        );
    }
}
