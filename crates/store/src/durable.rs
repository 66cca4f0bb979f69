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
use crate::persist::{self, checksum, corrupt, kind_token, Fields, PersistedStatistics};

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
                validate_sketch(cp)?;
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

/// Parsed MANIFEST content.
struct Manifest {
    active: u64,
    stats_fnv: u64,
    feedback_fnv: u64,
}

fn encode_manifest(active: u64, stats_fnv: u64, feedback_fnv: u64) -> String {
    let body = format!("{MANIFEST_HEADER}\nactive {active} {stats_fnv:016x} {feedback_fnv:016x}");
    format!("{body}\ncheck {:016x}\n", checksum(body.as_bytes()))
}

fn decode_manifest(text: &str) -> Result<Manifest, EstimateError> {
    let lines: Vec<&str> = text.lines().collect();
    let line = |k: usize| {
        lines
            .get(k)
            .copied()
            .ok_or_else(|| corrupt(k + 1, "manifest truncated"))
    };
    let header = line(0)?;
    if header != MANIFEST_HEADER {
        return Err(corrupt(1, format!("bad manifest header {header:?}")));
    }
    let active_line = line(1)?;
    let mut check = Fields::new(line(2)?, 3);
    check.tag("check")?;
    if check.hex("manifest checksum")? != checksum(format!("{header}\n{active_line}").as_bytes()) {
        return Err(corrupt(3, "manifest checksum mismatch"));
    }
    let mut f = Fields::new(active_line, 2);
    f.tag("active")?;
    let manifest = Manifest {
        active: f.parse("generation")?,
        stats_fnv: f.hex("stats checksum")?,
        feedback_fnv: f.hex("feedback checksum")?,
    };
    f.end()?;
    Ok(manifest)
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
/// and column have already been consumed from `f`).
fn decode_sketch_fields(
    f: &mut Fields<'_>,
    relation: String,
    column: String,
) -> Result<SketchCheckpoint, EstimateError> {
    let kind = f.kind()?;
    let updates_since_refresh = f.parse("updates since refresh")?;
    let epsilon = f.parse("epsilon")?;
    let n = f.parse("sketch n")?;
    let tombstones = f.parse("sketch tombstones")?;
    let count = f.parse("sketch entry count")?;
    let entries = f.repeat(count, "sketch entries", |f| {
        Ok((
            f.parse("entry v")?,
            f.parse("entry g")?,
            f.parse("entry delta")?,
        ))
    })?;
    let domain = f.domain()?;
    let capacity = f.parse("reservoir capacity")?;
    let seed = f.parse("seed")?;
    let next_index = f.parse("next index")?;
    let seen = f.parse("seen")?;
    let live_rows = f.parse("live rows")?;
    let inserted = f.parse("inserted")?;
    let deleted = f.parse("deleted")?;
    let pending = f.parse("pending")?;
    let count = f.parse("slot count")?;
    let slots = f.repeat(count, "reservoir slots", |f| {
        Ok((
            f.parse("slot key")?,
            f.parse("slot index")?,
            f.parse("slot value")?,
        ))
    })?;
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

/// The `online` line, the same in the feedback file and the journal.
fn encode_online(relation: &str, column: &str, cp: &OnlineCheckpoint) -> String {
    format!(
        "online {relation} {column} {} {} {} {} {}",
        cp.a, cp.b, cp.seen, cp.matched, cp.skipped_nonfinite
    )
}

/// Decode the fields [`encode_online`] wrote after the relation and
/// column.
fn decode_online(f: &mut Fields<'_>) -> Result<OnlineCheckpoint, EstimateError> {
    Ok(OnlineCheckpoint {
        a: f.parse("query a")?,
        b: f.parse("query b")?,
        seen: f.parse("seen")?,
        matched: f.parse("matched")?,
        skipped_nonfinite: f.parse("skipped")?,
    })
}

fn encode_feedback(state: &FeedbackState) -> String {
    let mut lines = Vec::new();
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
        lines.push(line);
    }
    for ((rel, col), alarm) in &state.alarms {
        lines.push(format!(
            "alarm {rel} {col} {} {}",
            alarm.count, alarm.last_drift
        ));
    }
    for ((rel, col), cp) in &state.online {
        lines.push(encode_online(rel, col, cp));
    }
    for ((rel, col), cp) in &state.sketches {
        lines.push(format!("sketch {rel} {col} {}", encode_sketch_fields(cp)));
    }
    let mut out = format!("{FEEDBACK_HEADER}\n");
    for line in lines {
        let _ = writeln!(out, "{line}\ncheck {:016x}", checksum(line.as_bytes()));
    }
    out
}

fn decode_feedback(text: &str) -> Result<FeedbackState, EstimateError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, header)) if header == FEEDBACK_HEADER => {}
        Some((_, header)) => return Err(corrupt(1, format!("bad feedback header {header:?}"))),
        None => return Err(corrupt(1, "empty feedback file")),
    }
    let mut state = FeedbackState::default();
    while let Some((i, payload)) = lines.next() {
        let line = i + 1;
        let mut check = Fields::new(lines.next().map_or("", |(_, c)| c), line + 1);
        check.tag("check")?;
        if check.hex("checksum")? != checksum(payload.as_bytes()) {
            return Err(corrupt(line, "feedback checksum mismatch"));
        }
        let mut f = Fields::new(payload, line);
        let tag = f.next("record tag")?;
        let key = (f.next("relation")?.to_owned(), f.next("column")?.to_owned());
        match tag {
            "grid" => {
                let domain = f.domain()?;
                let alpha = f.parse("alpha")?;
                let observations = f.parse("observations")?;
                let count = f.parse("bucket count")?;
                let corrections = f.repeat(count, "grid corrections", |f| f.parse("correction"))?;
                let grid = CorrectionGrid::from_parts(domain, corrections, alpha, observations)?;
                state.grids.insert(key, grid);
            }
            "alarm" => {
                let count = f.parse("alarm count")?;
                let last_drift: f64 = f.parse("alarm drift")?;
                if !last_drift.is_finite() || last_drift < 0.0 {
                    return Err(corrupt(line, format!("bad alarm drift {last_drift}")));
                }
                state.alarms.insert(key, DriftAlarm { count, last_drift });
            }
            "online" => {
                let cp = decode_online(&mut f)?;
                cp.resume()?;
                state.online.insert(key, cp);
            }
            "sketch" => {
                let cp = decode_sketch_fields(&mut f, key.0.clone(), key.1.clone())?;
                validate_sketch(&cp)?;
                state.sketches.insert(key, cp);
            }
            other => return Err(corrupt(line, format!("unknown record tag {other:?}"))),
        }
        f.end()?;
    }
    Ok(state)
}

/// Both substrate halves of a sketch checkpoint must reconstruct — the
/// same validation a restore pays, so a checkpoint accepted here can
/// never fail later.
fn validate_sketch(cp: &SketchCheckpoint) -> Result<(), EstimateError> {
    GkSketch::from_parts(cp.sketch.clone())?;
    IncrementalColumn::from_parts(cp.column_state.clone())?;
    Ok(())
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
        } => encode_online(
            relation,
            column,
            &OnlineCheckpoint {
                a: *a,
                b: *b,
                seen: *seen,
                matched: *matched,
                skipped_nonfinite: *skipped_nonfinite,
            },
        ),
        JournalRecord::Sketch(cp) => format!(
            "sketch {} {} {}",
            cp.relation,
            cp.column,
            encode_sketch_fields(cp)
        ),
    }
}

fn decode_record_payload(line: usize, payload: &str) -> Result<JournalRecord, EstimateError> {
    let mut f = Fields::new(payload, line);
    let tag = f.next("record tag")?;
    let relation = f.next("relation")?.to_owned();
    let column = f.next("column")?.to_owned();
    let rec = match tag {
        "obs" => JournalRecord::Observation {
            relation,
            column,
            a: f.parse("a")?,
            b: f.parse("b")?,
            base: f.parse("base")?,
            truth: f.parse("truth")?,
        },
        "drift" => JournalRecord::DriftAlarm {
            relation,
            column,
            drift: f.parse("drift")?,
        },
        "online" => {
            let cp = decode_online(&mut f)?;
            JournalRecord::OnlineCheckpoint {
                relation,
                column,
                a: cp.a,
                b: cp.b,
                seen: cp.seen,
                matched: cp.matched,
                skipped_nonfinite: cp.skipped_nonfinite,
            }
        }
        "sketch" => JournalRecord::Sketch(decode_sketch_fields(&mut f, relation, column)?),
        other => return Err(corrupt(line, format!("unknown journal tag {other:?}"))),
    };
    f.end()?;
    Ok(rec)
}

fn encode_record_line(rec: &JournalRecord) -> String {
    let payload = encode_record_payload(rec);
    format!(
        "rec {} {:016x} {}\n",
        payload.len(),
        checksum(payload.as_bytes()),
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

fn scan_journal(text: &str) -> Result<JournalScan, EstimateError> {
    let mut pos = 0usize;
    let mut lines: Vec<(usize, &str, bool)> = Vec::new(); // (start, content, complete)
    for piece in text.split_inclusive('\n') {
        let complete = piece.ends_with('\n');
        lines.push((pos, piece.trim_end_matches('\n'), complete));
        pos += piece.len();
    }
    let Some(&(_, header, header_complete)) = lines.first() else {
        return Err(corrupt(1, "empty journal"));
    };
    if !header_complete {
        return Err(corrupt(1, format!("journal header {header:?} is torn")));
    }
    let mut h = Fields::new(header, 1);
    for tag in JOURNAL_HEADER.split(' ').chain(["gen"]) {
        h.tag(tag)?;
    }
    let gen = h.parse("generation")?;
    h.end()?;

    let parse_line = |idx: usize, content: &str| -> Result<JournalRecord, EstimateError> {
        let line = idx + 1;
        // `rec <len> <checksum> <payload>`: the payload holds spaces of
        // its own, so the head is the first three space-separated fields.
        let mut parts = content.splitn(4, ' ');
        let head = parts.by_ref().take(3).collect::<Vec<_>>().join(" ");
        let payload = parts.next().unwrap_or("");
        let mut f = Fields::new(&head, line);
        f.tag("rec")?;
        let len: usize = f.parse("payload length")?;
        let want = f.hex("checksum")?;
        if payload.len() != len {
            return Err(corrupt(
                line,
                format!(
                    "payload length mismatch: header {len}, found {}",
                    payload.len()
                ),
            ));
        }
        if checksum(payload.as_bytes()) != want {
            return Err(corrupt(line, "record checksum mismatch"));
        }
        decode_record_payload(line, payload)
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
            Err(corrupt(idx + 1, "record missing newline"))
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

// The store's reads. Recovery (`DurableStore::open`) and `fsck` both go
// through these, so every check on disk has one implementation; none of
// them modifies the directory.

/// A store file as text, `None` when it does not exist. Bytes outside
/// UTF-8 are damage like any other (a [`EstimateError::CorruptEntry`]);
/// every other failure is an [`EstimateError::Io`].
fn read_text(path: &Path) -> Result<Option<String>, EstimateError> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            Err(corrupt(1, e.to_string()).with_path(path))
        }
        Err(e) => Err(io_error(path, "read", e)),
    }
}

/// The verified `MANIFEST`, `None` when there is none.
fn read_manifest(dir: &Path) -> Result<Option<Manifest>, EstimateError> {
    let path = dir.join(MANIFEST_FILE);
    read_text(&path)?
        .map(|text| decode_manifest(&text).map_err(|e| e.with_path(&path)))
        .transpose()
}

/// One generation as read from disk.
struct Generation {
    entries: Vec<PersistedStatistics>,
    /// The feedback state, or why the feedback file is unusable: damage
    /// there costs the learned feedback, not the statistics.
    feedback: Result<FeedbackState, EstimateError>,
}

/// Read generation `generation`. With a manifest the whole-file checksums
/// are verified first; without one (the previous-generation hunt) the
/// per-entry and per-line checksums carry the verification. Damaged stats
/// fail the read.
fn read_generation(
    dir: &Path,
    generation: u64,
    manifest: Option<&Manifest>,
) -> Result<Generation, EstimateError> {
    let read = |name: String, want: Option<u64>| {
        let path = dir.join(name);
        let text = read_text(&path)?.ok_or_else(|| EstimateError::Io {
            path: path.display().to_string(),
            op: "read".to_owned(),
            message: "file missing".to_owned(),
        })?;
        match want {
            Some(want) if checksum(text.as_bytes()) != want => {
                Err(corrupt(1, "checksum mismatch vs manifest").with_path(&path))
            }
            _ => Ok((path, text)),
        }
    };
    let (spath, stats) = read(gen_stats_name(generation), manifest.map(|m| m.stats_fnv))?;
    let entries = persist::decode(&stats).map_err(|e| e.with_path(&spath))?;
    let feedback = read(
        gen_feedback_name(generation),
        manifest.map(|m| m.feedback_fnv),
    )
    .and_then(|(fpath, text)| decode_feedback(&text).map_err(|e| e.with_path(&fpath)));
    Ok(Generation { entries, feedback })
}

/// The scanned journal, `None` when there is none.
fn read_journal(dir: &Path) -> Result<Option<JournalScan>, EstimateError> {
    let path = dir.join(JOURNAL_FILE);
    let Some(text) = read_text(&path)? else {
        return Ok(None);
    };
    let mut scan = scan_journal(&text).map_err(|e| e.with_path(&path))?;
    scan.midfile_corrupt = scan.midfile_corrupt.map(|e| e.with_path(&path));
    Ok(Some(scan))
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
        let manifest = match read_manifest(dir) {
            Ok(manifest) => manifest.map(Ok),
            // Damage (bit rot outside UTF-8 included): the ladder below
            // takes over.
            Err(e @ EstimateError::CorruptEntry { .. }) => Some(Err(e)),
            Err(e) => return Err(e),
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

    /// [`read_generation`] for recovery: a damaged feedback file is
    /// quarantined and degrades to an empty state (`true` in the result);
    /// damaged stats fail the load.
    fn load_generation(
        &self,
        generation: u64,
        manifest: Option<&Manifest>,
        report: &mut RecoveryReport,
    ) -> Result<(Vec<PersistedStatistics>, FeedbackState, bool), EstimateError> {
        let Generation { entries, feedback } = read_generation(&self.dir, generation, manifest)?;
        match feedback {
            Ok(state) => Ok((entries, state, false)),
            Err(e) => {
                report.errors.push(e);
                self.quarantine_if_exists(&self.feedback_path(generation), report);
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
        let scan = match read_journal(&self.dir) {
            Ok(Some(scan)) if scan.gen == self.active => scan,
            Ok(Some(_)) => {
                // Left over from before the last commit: its records are
                // already folded into the active feedback file.
                report.journal_stale = true;
                return self.reset_journal();
            }
            Ok(None) => return self.reset_journal(),
            Err(e @ EstimateError::CorruptEntry { .. }) => {
                // An unusable header or non-UTF-8 bit rot: discard.
                report.errors.push(e);
                report.journal_stale = true;
                return self.reset_journal();
            }
            Err(e) => return Err(e),
        };
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
            let jpath = self.journal_path();
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
            checksum(stats_text.as_bytes()),
            checksum(feedback_text.as_bytes()),
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
/// the journal through the same reads [`DurableStore::open`] recovers
/// with, without modifying anything. Repair is spelled
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
    let m = match read_manifest(dir) {
        Ok(Some(m)) => m,
        Ok(None) => {
            report.findings.push("manifest missing".to_owned());
            return report;
        }
        Err(e) => {
            report.findings.push(e.to_string());
            return report;
        }
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
    match read_generation(dir, m.active, Some(&m)).and_then(|g| g.feedback) {
        Ok(feedback) => {
            for ((rel, col), cp) in &feedback.sketches {
                sketch_pressure.insert((rel.clone(), col.clone()), cp.updates_since_refresh);
            }
        }
        Err(e) => report.findings.push(e.to_string()),
    }
    match read_journal(dir) {
        Ok(Some(scan)) => {
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
        Ok(None) => report.findings.push("journal missing".to_owned()),
        Err(e) => report.findings.push(e.to_string()),
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
        let decoded = decode_feedback(&encoded).expect("decode");
        assert_eq!(&decoded, store.feedback());
        assert_eq!(encode_feedback(&decoded), encoded, "fixed point");
    }

    #[test]
    fn feedback_bucket_count_from_the_file_cannot_exhaust_memory() {
        // A well-checksummed grid line claiming 2^40 buckets: the decoder
        // must refuse it, not reserve 8 TiB for the corrections.
        let line = "grid r c 0 1 0.5 0 1099511627776";
        let text = format!(
            "{FEEDBACK_HEADER}\n{line}\ncheck {:016x}\n",
            checksum(line.as_bytes())
        );
        match decode_feedback(&text) {
            Err(EstimateError::CorruptEntry { line, message, .. }) => {
                assert_eq!(line, 2);
                assert!(message.contains("wants 1099511627776"), "{message}");
            }
            other => panic!("expected CorruptEntry, got {other:?}"),
        }
    }

    #[test]
    fn open_errors_name_the_file_line_and_byte_offset() {
        let dir = scratch("sited");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        store
            .publish(vec![entry("t", "v"), entry("t", "w")])
            .expect("publish");
        drop(store);
        // Without a manifest, the previous-generation hunt decodes the
        // snapshot and reports where it is damaged: the first entry's
        // sample-length header, past the file header (line > 1, offset > 0).
        std::fs::remove_file(dir.join(MANIFEST_FILE)).expect("remove manifest");
        let spath = dir.join(gen_stats_name(1));
        let damaged =
            std::fs::read_to_string(&spath)
                .expect("read")
                .replacen("sample 50", "sample 999", 1);
        std::fs::write(&spath, &damaged).expect("damage");
        let (_, report) = DurableStore::open(&dir).expect("recover");
        // The empty generation 0 is the rung below.
        assert_eq!(report.rung, RecoveryRung::PreviousGeneration);
        let sited = report.errors.iter().find_map(|e| match e {
            EstimateError::CorruptEntry {
                path: Some(p),
                line,
                offset,
                ..
            } if p.ends_with("gen-000001.stats") => Some((*line, *offset)),
            _ => None,
        });
        let (line, offset) = sited.expect("a sited error for the damaged snapshot");
        assert_eq!(line, 3, "header, stat line, then the sample line");
        assert_eq!(
            damaged[..offset].matches('\n').count(),
            line - 1,
            "offset {offset} does not start line {line}"
        );
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
