//! Crash-safe generational catalog store: the durability story for
//! ANALYZE's expensive artifact.
//!
//! The paper's statistics are O(n log n) to rebuild, so losing them to a
//! torn write costs a full re-ANALYZE of every column. This module keeps
//! the catalog in a directory of **immutable, numbered generations** with
//! a checksummed `MANIFEST` naming the active one, plus an append-only
//! **journal** of the query-feedback observations taken since that
//! snapshot. A restart reads back exactly the snapshot. An observation is
//! validated and counted on replay but folds into no state: nothing reads
//! learned corrections after a restart yet.
//!
//! ```text
//! store/
//!   MANIFEST            active generation + its snapshot's checksum
//!   gen-000007.stats    immutable snapshot (persist v3 format)
//!   journal.log         append-only observations since generation 7
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

use std::io::Write as _;
use std::path::{Path, PathBuf};

use selest_core::fault::EstimateError;
use selest_core::RangeQuery;
use selest_par::fnv1a_64;

use crate::catalog::StatisticsCatalog;
use crate::faultinject::{CrashPlan, CrashPoint};
use crate::persist::{self, corrupt, Fields, PersistedStatistics};

/// Manifest header line.
const MANIFEST_HEADER: &str = "selest-manifest v3";
/// Journal header prefix (followed by `gen <N>`).
const JOURNAL_HEADER: &str = "selest-journal v3";
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

/// One record of the append-only journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A query-feedback observation: the executed query, the estimate
    /// served, and the true selectivity observed. It is validated (the
    /// column exists in the active generation, the query is valid, the
    /// truth is finite and in `[0, 1]`, the base is finite) and counted as
    /// applied on replay, but folds into no state: nothing reads learned
    /// corrections after a restart yet.
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
}

/// Whether `rec` may enter the journal of a generation holding `entries`:
/// its column must exist there and its payload must be valid. Replay in
/// [`DurableStore::open`] and [`fsck`] both apply this one check.
fn check_record(rec: &JournalRecord, entries: &[PersistedStatistics]) -> Result<(), EstimateError> {
    let JournalRecord::Observation {
        relation,
        column,
        a,
        b,
        base,
        truth,
    } = rec;
    if !entries
        .iter()
        .any(|e| *e.relation == **relation && *e.column == **column)
    {
        return Err(EstimateError::MissingStatistics {
            relation: relation.clone(),
            column: column.clone(),
        });
    }
    RangeQuery::unchecked(*a, *b).validate()?;
    if !truth.is_finite() || !(0.0..=1.0).contains(truth) {
        return Err(EstimateError::NonFiniteEstimate { value: *truth });
    }
    if !base.is_finite() {
        return Err(EstimateError::NonFiniteEstimate { value: *base });
    }
    Ok(())
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
    /// Journal records replayed (validated against the active generation).
    pub journal_applied: usize,
    /// Journal records the active generation refused (their column is
    /// gone or their payload is invalid). Any refusal makes recovery
    /// re-commit a generation, which empties the journal.
    pub journal_orphaned: usize,
    /// Whether a torn journal tail was truncated away.
    pub journal_truncated: bool,
    /// Whether a stale or unusable journal was discarded wholesale.
    pub journal_stale: bool,
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
            && self.journal_orphaned == 0
            && self.quarantined.is_empty()
            && self.errors.is_empty()
    }
}

/// Read-only health verdict of [`fsck`].
#[derive(Debug, Clone)]
pub struct FsckReport {
    /// No findings: manifest, active generation and journal all verify.
    pub healthy: bool,
    /// Active generation per the manifest, if it parsed.
    pub active: Option<u64>,
    /// Generation numbers present on disk, ascending.
    pub generations: Vec<u64>,
    /// Valid journal records on disk.
    pub journal_records: usize,
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
}

fn encode_manifest(active: u64, stats_fnv: u64) -> String {
    let body = format!("{MANIFEST_HEADER}\nactive {active} {stats_fnv:016x}");
    format!("{body}\ncheck {:016x}\n", fnv1a_64(body.as_bytes()))
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
    if check.hex("manifest checksum")? != fnv1a_64(format!("{header}\n{active_line}").as_bytes()) {
        return Err(corrupt(3, "manifest checksum mismatch"));
    }
    let mut f = Fields::new(active_line, 2);
    f.tag("active")?;
    let manifest = Manifest {
        active: f.parse("generation")?,
        stats_fnv: f.hex("stats checksum")?,
    };
    f.end()?;
    Ok(manifest)
}

fn encode_record_line(rec: &JournalRecord) -> String {
    let JournalRecord::Observation {
        relation,
        column,
        a,
        b,
        base,
        truth,
    } = rec;
    let payload = format!("obs {relation} {column} {a} {b} {base} {truth}");
    format!(
        "rec {} {:016x} {}\n",
        payload.len(),
        fnv1a_64(payload.as_bytes()),
        payload
    )
}

fn decode_record_payload(line: usize, payload: &str) -> Result<JournalRecord, EstimateError> {
    let mut f = Fields::new(payload, line);
    f.tag("obs")?;
    let rec = JournalRecord::Observation {
        relation: f.next("relation")?.to_owned(),
        column: f.next("column")?.to_owned(),
        a: f.parse("a")?,
        b: f.parse("b")?,
        base: f.parse("base")?,
        truth: f.parse("truth")?,
    };
    f.end()?;
    Ok(rec)
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
        if fnv1a_64(payload.as_bytes()) != want {
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

/// Whether `name` in a store directory is debris [`DurableStore::open`]
/// removes: the temp file of an interrupted write, or a `gen-*.feedback`
/// file, which older versions of the store wrote and nothing reads.
fn is_debris(name: &str) -> bool {
    name.ends_with(".tmp") || (name.starts_with("gen-") && name.ends_with(".feedback"))
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

/// Read generation `generation`'s statistics. With a manifest the
/// whole-file checksum is verified first; without one (the
/// previous-generation hunt) the per-entry checksums carry the
/// verification.
fn read_generation(
    dir: &Path,
    generation: u64,
    manifest: Option<&Manifest>,
) -> Result<Vec<PersistedStatistics>, EstimateError> {
    let path = dir.join(gen_stats_name(generation));
    let text = read_text(&path)?.ok_or_else(|| EstimateError::Io {
        path: path.display().to_string(),
        op: "read".to_owned(),
        message: "file missing".to_owned(),
    })?;
    if manifest.is_some_and(|m| fnv1a_64(text.as_bytes()) != m.stats_fnv) {
        return Err(corrupt(1, "checksum mismatch vs manifest").with_path(&path));
    }
    persist::decode(&text).map_err(|e| e.with_path(&path))
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
            retention,
            plan,
            journal_records: 0,
        };
        let mut report = RecoveryReport::new(RecoveryRung::Active);
        store.sweep_debris(&mut report)?;

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
                store.commit_generation(0, Vec::new(), &mut report)?;
            }
            Some(Ok(m)) => match read_generation(dir, m.active, Some(&m)) {
                Ok(entries) => {
                    store.active = m.active;
                    store.entries = entries;
                    report.rung = RecoveryRung::Active;
                    report.generation = m.active;
                    store.recover_journal(&mut report)?;
                    if report.journal_orphaned > 0 {
                        // The journal holds records the active generation
                        // refuses: re-commit the generation, so the
                        // journal starts empty and `fsck` passes.
                        let entries = store.entries.clone();
                        let next = store.next_generation(&gens, Some(m.active));
                        store.commit_generation(next, entries, &mut report)?;
                    } else {
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

    /// Publish freshly ANALYZE'd entries as a new generation. The journal
    /// resets — observations taken against the old statistics do not
    /// transfer to new ones. An entry whose relation or
    /// column name is empty or contains whitespace is refused with
    /// [`EstimateError::UnpersistableName`] before any file is written, and
    /// the store stays on its current generation.
    pub fn publish(&mut self, entries: Vec<PersistedStatistics>) -> Result<u64, EstimateError> {
        let gen = self.active + 1;
        let mut report = RecoveryReport::new(RecoveryRung::Active);
        self.commit_generation(gen, entries, &mut report)?;
        Ok(gen)
    }

    /// Append one record: validate it against the active entries, then
    /// write it to the journal and fsync. A refused record never reaches
    /// the disk.
    pub fn append(&mut self, rec: &JournalRecord) -> Result<(), EstimateError> {
        check_record(rec, &self.entries)?;
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

    /// Byte-exact representation of the committed state: the encoded
    /// active snapshot and the number of journal records since it. Used
    /// by the determinism and crash-consistency suites.
    pub fn export_bytes(&self) -> (String, usize) {
        (persist::encode(&self.entries), self.journal_records)
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

    fn next_generation(&self, gens: &[u64], active: Option<u64>) -> u64 {
        gens.iter()
            .copied()
            .chain(active)
            .max()
            .map_or(0, |g| g + 1)
    }

    /// Remove the debris [`is_debris`] names.
    fn sweep_debris(&self, report: &mut RecoveryReport) -> Result<(), EstimateError> {
        let rd =
            std::fs::read_dir(&self.dir).map_err(|e| io_error(&self.dir, "read store dir", e))?;
        for entry in rd {
            let entry = entry.map_err(|e| io_error(&self.dir, "read store dir entry", e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if is_debris(&name) {
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
        // were taken against statistics we can no longer trust.
        report.journal_stale = true;
        self.quarantine_if_exists(&self.journal_path(), report);
        if let Some(g) = damaged_active {
            self.quarantine_if_exists(&self.stats_path(g), report);
        }
        let next = self.next_generation(gens, damaged_active);
        let mut candidates: Vec<u64> = gens
            .iter()
            .copied()
            .filter(|g| Some(*g) != damaged_active)
            .collect();
        candidates.sort_unstable();
        for g in candidates.iter().rev() {
            match read_generation(&self.dir, *g, None) {
                Ok(entries) => {
                    report.rung = RecoveryRung::PreviousGeneration;
                    self.commit_generation(next, entries, report)?;
                    // The older files that were recovered from stay until
                    // retention prunes them on a later commit; files we
                    // failed on were quarantined above.
                    return Ok(());
                }
                Err(e) => {
                    report.errors.push(e);
                    self.quarantine_if_exists(&self.stats_path(*g), report);
                }
            }
        }
        report.rung = RecoveryRung::Rebuild;
        self.commit_generation(next, Vec::new(), report)?;
        Ok(())
    }

    /// Replay the journal against the freshly loaded active generation,
    /// repairing it in place (truncate a torn tail, reset a stale or
    /// corrupt journal) so `fsck` passes afterward.
    fn recover_journal(&mut self, report: &mut RecoveryReport) -> Result<(), EstimateError> {
        let scan = match read_journal(&self.dir) {
            Ok(Some(scan)) if scan.gen == self.active => scan,
            Ok(Some(_)) => {
                // Left over from before the last commit: its records were
                // taken against statistics that are no longer active.
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
            // not torn) — discard wholesale rather than replay records
            // of unknown provenance.
            report.errors.push(e);
            report.journal_stale = true;
            return self.reset_journal();
        }
        for rec in &scan.records {
            match check_record(rec, &self.entries) {
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
        report: &mut RecoveryReport,
    ) -> Result<(), EstimateError> {
        persist::check_names(&entries)?;
        let stats_text = persist::encode(&entries);
        let spath = self.stats_path(generation);
        let mpath = self.manifest_path();
        write_atomic_crashable(
            &mut self.plan,
            &spath,
            stats_text.as_bytes(),
            SNAPSHOT_SITES,
        )?;
        let manifest = encode_manifest(generation, fnv1a_64(stats_text.as_bytes()));
        write_atomic_crashable(&mut self.plan, &mpath, manifest.as_bytes(), MANIFEST_SITES)?;
        // Commit point passed.
        self.active = generation;
        self.entries = entries;
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
            if std::fs::remove_file(self.stats_path(g)).is_ok() {
                report.pruned.push(gen_stats_name(g));
            }
        }
    }
}

/// Read-only integrity check of a store directory: verifies the
/// manifest, the active generation's checksum and the journal through
/// the same reads [`DurableStore::open`] recovers with, and replays the
/// journal through the same record check, without modifying anything:
/// a record `open` would refuse is a finding, and so is debris `open`
/// would remove. Repair is spelled [`DurableStore::open`] — run it and
/// `fsck` again.
pub fn fsck(dir: &Path) -> FsckReport {
    let mut report = FsckReport {
        healthy: false,
        active: None,
        generations: Vec::new(),
        journal_records: 0,
        findings: Vec::new(),
    };
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
            if is_debris(&name) {
                report.findings.push(format!("debris {name}"));
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
    let entries = read_generation(dir, m.active, Some(&m))
        .map_err(|e| report.findings.push(e.to_string()))
        .ok();
    match read_journal(dir) {
        Ok(Some(scan)) => {
            report.journal_records = scan.records.len();
            if scan.gen != m.active {
                report.findings.push(format!(
                    "journal generation {} does not match active {}",
                    scan.gen, m.active
                ));
            } else if let (Some(entries), None) = (&entries, &scan.midfile_corrupt) {
                // The journal `open` would replay: check it the same way.
                for rec in &scan.records {
                    if let Err(e) = check_record(rec, entries) {
                        report
                            .findings
                            .push(format!("orphaned journal record: {e}"));
                    }
                }
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
    report.healthy = report.findings.is_empty();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::EstimatorKind;
    use selest_core::Domain;
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
    fn publish_append_reopen_round_trip() {
        let dir = scratch("roundtrip");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        let generation = store.publish(vec![entry("t", "v")]).expect("publish");
        assert_eq!(generation, 1);
        store.append(&obs("t", "v", 0.5)).expect("append");
        store.append(&obs("t", "v", 0.2)).expect("append 2");
        let exported = store.export_bytes();
        assert_eq!(exported.1, 2, "the export counts the journal");
        drop(store);
        // Reopen: clean Active rung, every record replayed, same state.
        let (reopened, report) = DurableStore::open(&dir).expect("reopen");
        assert_eq!(report.rung, RecoveryRung::Active);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.journal_applied, 2);
        assert_eq!(reopened.export_bytes(), exported);
        assert_eq!(reopened.entries(), &[entry("t", "v")]);
        let check = fsck(&dir);
        assert!(check.healthy, "findings: {:?}", check.findings);
        assert_eq!(check.journal_records, 2);
        // The store writes the manifest, one snapshot per retained
        // generation and the journal: nothing else.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            [
                "MANIFEST",
                "gen-000000.stats",
                "gen-000001.stats",
                "journal.log"
            ]
        );
    }

    #[test]
    fn observations_are_validated_and_counted() {
        let dir = scratch("obscontract");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        store.publish(vec![entry("t", "v")]).expect("publish");
        let low_base = JournalRecord::Observation {
            relation: "t".to_owned(),
            column: "v".to_owned(),
            a: 0.0,
            b: 25.0,
            base: 1e-12, // below any informative feedback ratio
            truth: 0.5,
        };
        let records = [obs("t", "v", 0.5), low_base, obs("t", "v", 0.0)];
        for rec in &records {
            store.append(rec).expect("append");
        }
        // Refused before the write: an unknown column, a NaN truth, an
        // out-of-range truth, a non-finite base and an inverted query.
        assert!(matches!(
            store.append(&obs("t", "missing", 0.5)),
            Err(EstimateError::MissingStatistics { .. })
        ));
        assert!(store.append(&obs("t", "v", f64::NAN)).is_err());
        assert!(store.append(&obs("t", "v", 1.5)).is_err());
        let mut bad_base = obs("t", "v", 0.5);
        let JournalRecord::Observation { base, .. } = &mut bad_base;
        *base = f64::INFINITY;
        assert!(store.append(&bad_base).is_err());
        let mut inverted = obs("t", "v", 0.5);
        let JournalRecord::Observation { a, .. } = &mut inverted;
        *a = 30.0;
        assert!(store.append(&inverted).is_err());
        assert_eq!(
            store.export_bytes().1,
            records.len(),
            "refusals never hit disk"
        );
        drop(store);
        let (_, report) = DurableStore::open(&dir).expect("reopen");
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.journal_applied, records.len());
    }

    #[test]
    fn journal_records_round_trip_exactly() {
        let awkward = [0.1, 77.54321098765432, 1e-9, 5e-324, 99.99999999999999];
        let records: Vec<JournalRecord> = awkward
            .iter()
            .map(|&x| JournalRecord::Observation {
                relation: "t".to_owned(),
                column: "v".to_owned(),
                a: x,
                b: 100.0 - x,
                base: x / 7.0,
                truth: x / 100.0,
            })
            .collect();
        let mut text = format!("{JOURNAL_HEADER} gen 3\n");
        for rec in &records {
            text.push_str(&encode_record_line(rec));
        }
        let scan = scan_journal(&text).expect("scan");
        assert_eq!(scan.gen, 3);
        assert_eq!(scan.records, records, "floats round-trip bit-exactly");
        assert_eq!(scan.valid_len, text.len() as u64);
        assert!(!scan.torn_tail && scan.midfile_corrupt.is_none());
    }

    #[test]
    fn orphaned_journal_record_is_reported_then_healed() {
        let dir = scratch("orphan");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        store.publish(vec![entry("t", "v")]).expect("publish");
        drop(store);
        // A checksum-valid record for a column generation 1 never had.
        let line = encode_record_line(&obs("t", "ghost", 0.3));
        let jpath = dir.join(JOURNAL_FILE);
        let mut journal = std::fs::read_to_string(&jpath).expect("read journal");
        journal.push_str(&line);
        std::fs::write(&jpath, journal).expect("write journal");
        let check = fsck(&dir);
        assert!(!check.healthy, "fsck must see the orphan");
        assert!(
            check.findings.iter().any(|f| f.contains("ghost")),
            "{:?}",
            check.findings
        );
        let (_, report) = DurableStore::open(&dir).expect("repair");
        assert_eq!(report.journal_orphaned, 1);
        assert!(!report.is_clean());
        let (healed, report) = DurableStore::open(&dir).expect("reopen");
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(healed.export_bytes().1, 0);
        assert_eq!(healed.entries(), &[entry("t", "v")]);
        let check = fsck(&dir);
        assert!(check.healthy, "findings: {:?}", check.findings);
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
    fn publish_resets_the_journal() {
        let dir = scratch("reset");
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        store.publish(vec![entry("t", "v")]).expect("gen 1");
        store.append(&obs("t", "v", 0.5)).expect("append");
        assert_eq!(store.export_bytes().1, 1);
        store.publish(vec![entry("t", "v")]).expect("gen 2");
        assert_eq!(
            store.export_bytes().1,
            0,
            "observations of old statistics do not transfer"
        );
        let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("read journal");
        assert_eq!(text, format!("{JOURNAL_HEADER} gen 2\n"));
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
        store.append(&obs("t", "v", 0.1)).expect("append");
        let before = store.export_bytes();
        store.append(&obs("t", "v", 0.2)).expect("append 2");
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
            reopened.export_bytes(),
            before,
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
        store.append(&obs("t", "v", 0.1)).expect("append");
        store.append(&obs("t", "v", 0.2)).expect("append 2");
        drop(store);
        // Corrupt the FIRST record; the second stays valid -> not a tail.
        let jpath = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&jpath).expect("read");
        let corrupted = text.replacen("rec ", "rek ", 1);
        std::fs::write(&jpath, corrupted).expect("write");
        let (reopened, report) = DurableStore::open(&dir).expect("reopen");
        assert!(report.journal_stale);
        assert_eq!(report.journal_applied, 0);
        assert_eq!(
            reopened.export_bytes().1,
            0,
            "untrustworthy journal discarded wholesale"
        );
        assert!(fsck(&dir).healthy);
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
        std::fs::write(dir.join("gen-000001.feedback"), "old format").expect("feedback");
        let spath = dir.join(gen_stats_name(1));
        let text = std::fs::read_to_string(&spath).expect("read");
        std::fs::write(&spath, format!("{text}x")).expect("damage");
        let check = fsck(&dir);
        assert!(!check.healthy);
        for name in ["gen-000001.stats.tmp", "gen-000001.feedback"] {
            assert!(
                check.findings.contains(&format!("debris {name}")),
                "{:?}",
                check.findings
            );
        }
        assert!(check
            .findings
            .iter()
            .any(|f| f.contains("checksum mismatch")));
        // Repair = open + re-check.
        let (_, report) = DurableStore::open(&dir).expect("repair");
        assert_ne!(report.rung, RecoveryRung::Active);
        assert!(report.pruned.contains(&"gen-000001.feedback".to_owned()));
        let check = fsck(&dir);
        assert!(check.healthy, "findings: {:?}", check.findings);
    }

    /// Seeded byte mutations of a valid `text`, without end: a bit flip, a
    /// truncation, or a numeric token spliced over the token at a random
    /// byte.
    fn mutations(text: &str, seed: u64) -> impl Iterator<Item = Vec<u8>> + '_ {
        use crate::overload::splitmix64;
        const SPLICES: [&str; 9] = [
            "0",
            "-1",
            "0.5",
            "18446744073709551616",
            "1e309",
            "NaN",
            "inf",
            "99999999999999999999",
            "-0",
        ];
        let bytes = text.as_bytes();
        (0u64..).map(move |case| {
            let r = splitmix64(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let at = (r >> 8) as usize % bytes.len();
            let mut out = bytes.to_vec();
            match r % 3 {
                0 => out[at] ^= 1 << ((r >> 4) % 8),
                1 => out.truncate(at),
                _ => {
                    let start = at
                        - bytes[..at]
                            .iter()
                            .rev()
                            .take_while(|b| b.is_ascii_alphanumeric() || **b == b'.' || **b == b'-')
                            .count();
                    let end = at
                        + bytes[at..]
                            .iter()
                            .take_while(|b| b.is_ascii_alphanumeric() || **b == b'.' || **b == b'-')
                            .count();
                    let splice = SPLICES[(r >> 32) as usize % SPLICES.len()];
                    out.splice(start..end, splice.bytes());
                }
            }
            out
        })
    }

    /// Run `decode` on 2 000 seeded mutations of `text` that are still
    /// UTF-8 (the store reads its files as text, so bit rot outside UTF-8
    /// is refused before any decoder runs). Every outcome must be `Ok` or
    /// a typed error, never a panic, and at least a fifth of the mutations
    /// must change the outcome, so the battery bites.
    fn battery<T: PartialEq, E: core::fmt::Debug>(
        name: &str,
        text: &str,
        seed: u64,
        decode: impl Fn(&str) -> Result<T, E> + std::panic::RefUnwindSafe,
    ) {
        let pristine = decode(text);
        assert!(pristine.is_ok(), "{name}: the pristine text decodes");
        let mut noticed = 0;
        let utf8 = mutations(text, seed).filter_map(|bytes| String::from_utf8(bytes).ok());
        for (case, mutated) in utf8.take(2_000).enumerate() {
            let mutated = mutated.as_str();
            match std::panic::catch_unwind(|| decode(mutated)) {
                Ok(Ok(decoded)) => noticed += usize::from(Some(&decoded) != pristine.as_ref().ok()),
                Ok(Err(_)) => noticed += 1,
                Err(_) => panic!("{name} case {case} panicked on {mutated:?}"),
            }
        }
        assert!(
            noticed >= 400,
            "{name}: only {noticed} of 2000 mutations noticed"
        );
    }

    #[test]
    fn decoders_never_panic_on_mutated_bytes() {
        let mut journal = format!("{JOURNAL_HEADER} gen 12\n");
        for truth in [0.25, 0.5, 0.125] {
            journal.push_str(&encode_record_line(&obs("orders", "amount", truth)));
        }
        battery("journal", &journal, 0xF022_0001, |t| {
            scan_journal(t).map(|s| {
                let damage = s.midfile_corrupt.map(|e| e.to_string());
                (s.gen, s.records, s.valid_len, s.torn_tail, damage)
            })
        });
        let manifest = encode_manifest(12, 0x0123_4567_89ab_cdef);
        battery("manifest", &manifest, 0xF022_0002, |t| {
            decode_manifest(t).map(|m| (m.active, m.stats_fnv))
        });
        let mut skewed = entry("orders", "amount");
        skewed.kind = EstimatorKind::Kernel;
        skewed.sample = (0..40).map(|i| (i as f64 * 0.37).exp()).collect();
        let stats = persist::encode(&[entry("t", "v"), skewed]);
        battery("persist", &stats, 0xF022_0003, persist::decode);
        let values = "# extract\n42\n7\n\n255\n0\n# end\n";
        battery("read_values", values, 0xF022_0004, |t| {
            selest_data::read_values(t.as_bytes(), "t", 8).map(|d| d.values().to_vec())
        });
    }
}
