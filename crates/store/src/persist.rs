//! Persistence for ANALYZE results — the `pg_statistic` of this toy store.
//!
//! What a database durably stores after ANALYZE is not the estimator
//! object but the *evidence*: the sample, the method, and the relation
//! metadata; estimators are rebuilt deterministically on load. The format
//! is a self-describing line-oriented text format (no external
//! serialization dependency). Version 2 adds a per-entry FNV-1a checksum
//! so bit rot is detected at the damaged entry, not smeared across the
//! whole catalog:
//!
//! ```text
//! selest-statistics v2
//! stat <relation> <column> <kind> <n_rows> <domain_lo> <domain_hi>
//! sample <len> v1 v2 ... vlen
//! check <fnv1a64-hex-of-the-two-lines-above>
//! ```
//!
//! Version 1 files (no `check` lines) still load. Durability hardening:
//!
//! * [`save_to_path`] writes atomically with full durability ordering —
//!   temp file in the same directory, fsync file, fsync parent dir,
//!   rename, fsync parent dir again — so a crash mid-save leaves the
//!   previous file intact (never torn), and a crash *after* the rename
//!   cannot lose the new name to an unsynced directory; failures are
//!   typed [`EstimateError::Io`] values naming the path and operation;
//! * [`decode`] is strict and reports the 1-based line and byte offset of
//!   the first problem; it never panics and never silently truncates;
//!   the `*_from_path` loaders additionally stamp the file path onto
//!   every corruption error so `fsck` output names the exact site;
//! * [`decode_lenient`] recovers per entry: damaged entries are skipped
//!   and reported, intact entries still load — one flipped bit costs one
//!   column's statistics, not the catalog.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use selest_core::fault::EstimateError;
use selest_core::{Domain, SelectivityEstimator};

use crate::catalog::EstimatorKind;

/// Header of the legacy checksum-free format.
pub const HEADER_V1: &str = "selest-statistics v1";
/// Header of the current checksummed format.
pub const HEADER_V2: &str = "selest-statistics v2";

/// One persisted statistics entry: everything needed to rebuild the
/// estimator. Name and sample fields are `Arc`-backed so catalog exports
/// are views over the stored evidence, not copies of it (`Clone` is a
/// couple of refcount bumps).
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedStatistics {
    /// Relation name (nonempty, no whitespace).
    pub relation: Arc<str>,
    /// Column name (nonempty, no whitespace).
    pub column: Arc<str>,
    /// Estimator kind to rebuild.
    pub kind: EstimatorKind,
    /// Relation row count at ANALYZE time.
    pub n_rows: usize,
    /// Column domain.
    pub domain: Domain,
    /// The retained sample.
    pub sample: Arc<[f64]>,
}

impl PersistedStatistics {
    /// Rebuild the estimator from the persisted evidence: sanitizes the
    /// sample and converts construction failures into typed errors.
    pub fn try_rebuild(
        &self,
    ) -> Result<Box<dyn SelectivityEstimator + Send + Sync>, EstimateError> {
        crate::catalog::try_build_estimator_from_sample(&self.sample, self.domain, self.kind)
            .map(|(est, _audit)| est)
    }
}

/// 64-bit FNV-1a — the dependency-free checksum guarding each entry.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

pub(crate) fn kind_token(kind: EstimatorKind) -> &'static str {
    match kind {
        EstimatorKind::Uniform => "uniform",
        EstimatorKind::Sampling => "sampling",
        EstimatorKind::EquiWidth => "equiwidth",
        EstimatorKind::EquiDepth => "equidepth",
        EstimatorKind::MaxDiff => "maxdiff",
        EstimatorKind::Ash => "ash",
        EstimatorKind::Kernel => "kernel",
        EstimatorKind::Hybrid => "hybrid",
    }
}

pub(crate) fn parse_kind(token: &str) -> Result<EstimatorKind, String> {
    Ok(match token {
        "uniform" => EstimatorKind::Uniform,
        "sampling" => EstimatorKind::Sampling,
        "equiwidth" => EstimatorKind::EquiWidth,
        "equidepth" => EstimatorKind::EquiDepth,
        "maxdiff" => EstimatorKind::MaxDiff,
        "ash" => EstimatorKind::Ash,
        "kernel" => EstimatorKind::Kernel,
        "hybrid" => EstimatorKind::Hybrid,
        other => return Err(format!("unknown estimator kind {other:?}")),
    })
}

fn entry_lines(e: &PersistedStatistics) -> (String, String) {
    let stat = format!(
        "stat {} {} {} {} {} {}",
        e.relation,
        e.column,
        kind_token(e.kind),
        e.n_rows,
        e.domain.lo(),
        e.domain.hi()
    );
    let mut sample = String::with_capacity(16 + 8 * e.sample.len());
    let _ = write!(sample, "sample {}", e.sample.len());
    for &v in e.sample.iter() {
        sample.push(' ');
        push_sample_value(&mut sample, v);
    }
    (stat, sample)
}

/// Append `v` to `line` byte for byte as `{v}` prints it. Integer-valued
/// samples — every sample of the paper's data files, which are quantized
/// to `[0, 2^p - 1]` — skip the float formatter: for a finite integer
/// below 2^53 in magnitude, other than -0.0 (which `{v}` prints as `-0`),
/// `f64` `Display` prints exactly the integer's decimal digits, which are
/// written here directly.
fn push_sample_value(line: &mut String, v: f64) {
    // 2^53: below it the cast to i64 truncates exactly, so the round trip
    // through i64 is the identity precisely on integers.
    const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;
    if v.abs() < EXACT_INTEGERS && (v as i64) as f64 == v && !(v == 0.0 && v.is_sign_negative()) {
        if v < 0.0 {
            line.push('-');
        }
        let mut m = (v as i64).unsigned_abs();
        let mut digits = [0u8; 16]; // 2^53 has 16 digits
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (m % 10) as u8;
            m /= 10;
            if m == 0 {
                break;
            }
        }
        line.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    } else {
        let _ = write!(line, "{v}");
    }
}

/// Whether `name` can be a field of a `stat` line: the format separates
/// fields with whitespace, so a name must be nonempty and hold none.
fn persistable_name(name: &str) -> bool {
    !name.is_empty() && !name.contains(char::is_whitespace)
}

/// Refuse, with a typed [`EstimateError::UnpersistableName`], any entry
/// [`encode`] could not write. The durable writers call this before they
/// touch a file.
pub(crate) fn check_names(entries: &[PersistedStatistics]) -> Result<(), EstimateError> {
    match entries
        .iter()
        .find(|e| !persistable_name(&e.relation) || !persistable_name(&e.column))
    {
        Some(e) => Err(EstimateError::UnpersistableName {
            relation: e.relation.to_string(),
            column: e.column.to_string(),
        }),
        None => Ok(()),
    }
}

/// Serialize a set of statistics entries in the v2 (checksummed) format.
///
/// Panics on an empty relation or column name or one containing
/// whitespace; the fallible writers ([`save_to_path`],
/// `DurableStore::publish`) return [`EstimateError::UnpersistableName`]
/// for such entries instead.
pub fn encode(entries: &[PersistedStatistics]) -> String {
    let mut out = String::from(HEADER_V2);
    out.push('\n');
    for e in entries {
        assert!(
            persistable_name(&e.relation) && persistable_name(&e.column),
            "relation/column names must be nonempty and contain no whitespace"
        );
        let (stat, sample) = entry_lines(e);
        let check = fnv1a64(format!("{stat}\n{sample}\n").as_bytes());
        let _ = writeln!(out, "{stat}\n{sample}\ncheck {check:016x}");
    }
    out
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Version {
    V1,
    V2,
}

fn corrupt(line: usize, message: impl Into<String>) -> EstimateError {
    EstimateError::CorruptEntry {
        path: None,
        line: line.max(1),
        offset: 0,
        message: message.into(),
    }
}

/// Byte offset of the start of each line of `text` (companion to
/// `text.lines()` indexing).
fn line_offsets(text: &str) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut pos = 0;
    for line in text.split_inclusive('\n') {
        offsets.push(pos);
        pos += line.len();
    }
    offsets
}

/// Stamp the byte offset of the damaged line onto a decode error, so
/// quarantine reports and `fsck` output name the exact corruption site.
fn stamp_offset(mut e: EstimateError, offsets: &[usize], text_len: usize) -> EstimateError {
    if let EstimateError::CorruptEntry { line, offset, .. } = &mut e {
        *offset = offsets
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(text_len);
    }
    e
}

/// Parse one entry starting at `lines[i]` (a non-empty line). Returns the
/// entry and the index just past it. Errors carry the 1-based line number
/// of the offending line.
fn parse_entry(
    lines: &[&str],
    i: usize,
    version: Version,
) -> Result<(PersistedStatistics, usize), EstimateError> {
    let stat_line = lines[i];
    let lineno = i + 1;
    let mut parts = stat_line.split_whitespace();
    if parts.next() != Some("stat") {
        return Err(corrupt(
            lineno,
            format!("expected 'stat' line, got {stat_line:?}"),
        ));
    }
    let relation = parts
        .next()
        .ok_or_else(|| corrupt(lineno, "missing relation"))?
        .to_owned();
    let column = parts
        .next()
        .ok_or_else(|| corrupt(lineno, "missing column"))?
        .to_owned();
    let kind = parse_kind(
        parts
            .next()
            .ok_or_else(|| corrupt(lineno, "missing kind"))?,
    )
    .map_err(|m| corrupt(lineno, m))?;
    let n_rows: usize = parts
        .next()
        .ok_or_else(|| corrupt(lineno, "missing n_rows"))?
        .parse()
        .map_err(|e| corrupt(lineno, format!("bad n_rows: {e}")))?;
    let lo: f64 = parts
        .next()
        .ok_or_else(|| corrupt(lineno, "missing domain lo"))?
        .parse()
        .map_err(|e| corrupt(lineno, format!("bad domain lo: {e}")))?;
    let hi: f64 = parts
        .next()
        .ok_or_else(|| corrupt(lineno, "missing domain hi"))?
        .parse()
        .map_err(|e| corrupt(lineno, format!("bad domain hi: {e}")))?;
    if let Some(extra) = parts.next() {
        return Err(corrupt(
            lineno,
            format!("trailing token {extra:?} on 'stat' line"),
        ));
    }
    let domain =
        Domain::try_new(lo, hi).map_err(|e| corrupt(lineno, format!("invalid domain: {e}")))?;

    let sample_line = *lines
        .get(i + 1)
        .ok_or_else(|| corrupt(lineno + 1, "missing 'sample' line (truncated file?)"))?;
    let sample_lineno = i + 2;
    let mut sp = sample_line.split_whitespace();
    if sp.next() != Some("sample") {
        return Err(corrupt(
            sample_lineno,
            format!("expected 'sample' line, got {sample_line:?}"),
        ));
    }
    let len: usize = sp
        .next()
        .ok_or_else(|| corrupt(sample_lineno, "missing sample length"))?
        .parse()
        .map_err(|e| corrupt(sample_lineno, format!("bad sample length: {e}")))?;
    let sample: Vec<f64> = sp
        .map(|t| {
            t.parse::<f64>()
                .map_err(|e| corrupt(sample_lineno, format!("bad sample value {t:?}: {e}")))
        })
        .collect::<Result<_, _>>()?;
    if sample.len() != len {
        return Err(corrupt(
            sample_lineno,
            format!(
                "sample length mismatch: header says {len}, found {}",
                sample.len()
            ),
        ));
    }

    let next = match version {
        Version::V1 => i + 2,
        Version::V2 => {
            let check_line = *lines
                .get(i + 2)
                .ok_or_else(|| corrupt(lineno + 2, "missing 'check' line (truncated file?)"))?;
            let check_lineno = i + 3;
            let mut cp = check_line.split_whitespace();
            if cp.next() != Some("check") {
                return Err(corrupt(
                    check_lineno,
                    format!("expected 'check' line, got {check_line:?}"),
                ));
            }
            let stored = u64::from_str_radix(
                cp.next()
                    .ok_or_else(|| corrupt(check_lineno, "missing checksum"))?,
                16,
            )
            .map_err(|e| corrupt(check_lineno, format!("bad checksum: {e}")))?;
            let actual = fnv1a64(format!("{stat_line}\n{sample_line}\n").as_bytes());
            if stored != actual {
                return Err(corrupt(
                    check_lineno,
                    format!("checksum mismatch: stored {stored:016x}, computed {actual:016x}"),
                ));
            }
            i + 3
        }
    };
    Ok((
        PersistedStatistics {
            relation: relation.into(),
            column: column.into(),
            kind,
            n_rows,
            domain,
            sample: sample.into(),
        },
        next,
    ))
}

fn parse_header(lines: &[&str]) -> Result<Version, EstimateError> {
    match lines.first() {
        Some(&h) if h == HEADER_V1 => Ok(Version::V1),
        Some(&h) if h == HEADER_V2 => Ok(Version::V2),
        Some(&h) => Err(corrupt(1, format!("bad header: {h:?}"))),
        None => Err(corrupt(1, "empty statistics file")),
    }
}

/// Parse a serialized statistics file (v1 or v2), strictly: the first
/// damaged entry aborts the load with the 1-based line number of the
/// problem. Never panics, never silently drops an entry.
pub fn decode(text: &str) -> Result<Vec<PersistedStatistics>, EstimateError> {
    let lines: Vec<&str> = text.lines().collect();
    let offsets = line_offsets(text);
    let stamp = |e| stamp_offset(e, &offsets, text.len());
    let version = parse_header(&lines).map_err(stamp)?;
    let mut entries = Vec::new();
    let mut i = 1;
    while i < lines.len() {
        if lines[i].trim().is_empty() {
            i += 1;
            continue;
        }
        let (entry, next) = parse_entry(&lines, i, version).map_err(stamp)?;
        entries.push(entry);
        i = next;
    }
    Ok(entries)
}

/// Outcome of a lenient decode: the entries that survived and one error
/// per entry that did not.
#[derive(Debug)]
pub struct DecodeReport {
    /// Entries that validated.
    pub entries: Vec<PersistedStatistics>,
    /// One [`EstimateError::CorruptEntry`] per damaged entry, in file
    /// order.
    pub errors: Vec<EstimateError>,
}

/// Parse a statistics file, skipping damaged entries instead of aborting:
/// after an error, scanning resumes at the next `stat` line. A header that
/// does not parse still fails the whole file — with no version there is no
/// grammar to recover in.
pub fn decode_lenient(text: &str) -> Result<DecodeReport, EstimateError> {
    let lines: Vec<&str> = text.lines().collect();
    let offsets = line_offsets(text);
    let stamp = |e| stamp_offset(e, &offsets, text.len());
    let version = parse_header(&lines).map_err(stamp)?;
    let mut report = DecodeReport {
        entries: Vec::new(),
        errors: Vec::new(),
    };
    let mut i = 1;
    while i < lines.len() {
        if lines[i].trim().is_empty() {
            i += 1;
            continue;
        }
        match parse_entry(&lines, i, version) {
            Ok((entry, next)) => {
                report.entries.push(entry);
                i = next;
            }
            Err(e) => {
                report.errors.push(stamp(e));
                // Resume at the next plausible entry start.
                i += 1;
                while i < lines.len() && !lines[i].starts_with("stat ") {
                    i += 1;
                }
            }
        }
    }
    Ok(report)
}

pub(crate) fn temp_sibling(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Lower an `io::Error` onto the typed vocabulary with path + operation
/// context.
pub(crate) fn io_error(path: &Path, op: &str, e: std::io::Error) -> EstimateError {
    EstimateError::Io {
        path: path.display().to_string(),
        op: op.to_owned(),
        message: e.to_string(),
    }
}

/// The directory whose entry table holds `path` (the thing a rename
/// mutates, and therefore the thing that needs an fsync of its own).
pub(crate) fn parent_dir(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// fsync a directory so a completed rename (or a freshly created file's
/// entry) survives power loss. On filesystems where directories cannot be
/// opened for sync this degrades to a typed error, never a panic.
pub(crate) fn fsync_dir(dir: &Path) -> Result<(), EstimateError> {
    let d = std::fs::File::open(dir).map_err(|e| io_error(dir, "open parent dir", e))?;
    d.sync_all()
        .map_err(|e| io_error(dir, "fsync parent dir", e))
}

/// Atomically persist `entries` to `path` with the full durability
/// ordering: encode to a temp file in the same directory, fsync the file,
/// fsync the parent directory (so the temp entry is durable before it is
/// committed), rename over the target, and fsync the parent again (so the
/// rename itself survives power loss — without it, some filesystems may
/// forget the new name entirely). A crash at any point leaves either the
/// old file or the new one — never a torn mix. Failures come back as
/// typed [`EstimateError::Io`] values naming the path and operation; an
/// entry whose name is empty or contains whitespace is refused with
/// [`EstimateError::UnpersistableName`] before any file is created.
pub fn save_to_path(path: &Path, entries: &[PersistedStatistics]) -> Result<(), EstimateError> {
    check_names(entries)?;
    write_atomic_durably(path, encode(entries).as_bytes())
}

/// The write→fsync→rename→fsync-dir sequence shared by [`save_to_path`]
/// and the durable store's generation/manifest writers.
pub(crate) fn write_atomic_durably(path: &Path, bytes: &[u8]) -> Result<(), EstimateError> {
    let tmp = temp_sibling(path);
    let parent = parent_dir(path);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_error(&tmp, "create temp", e))?;
        f.write_all(bytes)
            .map_err(|e| io_error(&tmp, "write temp", e))?;
        f.sync_all().map_err(|e| io_error(&tmp, "fsync temp", e))?;
        drop(f);
        fsync_dir(&parent)?;
        std::fs::rename(&tmp, path).map_err(|e| io_error(path, "rename temp over target", e))?;
        fsync_dir(&parent)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Load and strictly decode a statistics file; read failures surface as
/// [`EstimateError::Io`] and decode failures as
/// [`EstimateError::CorruptEntry`] carrying the file path and the
/// line/byte offset of the damage.
pub fn load_from_path(path: &Path) -> Result<Vec<PersistedStatistics>, EstimateError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_error(path, "read", e))?;
    decode(&text).map_err(|e| e.with_path(path))
}

/// Load with per-entry recovery; only an unreadable file or an unusable
/// header fails the call. Per-entry errors carry the file path and the
/// line/byte offset of each corruption site.
pub fn load_lenient_from_path(path: &Path) -> Result<DecodeReport, EstimateError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_error(path, "read", e))?;
    decode_lenient(&text)
        .map(|mut report| {
            report.errors = report
                .errors
                .into_iter()
                .map(|e| e.with_path(path))
                .collect();
            report
        })
        .map_err(|e| e.with_path(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use selest_core::RangeQuery;

    fn entry() -> PersistedStatistics {
        PersistedStatistics {
            relation: "orders".into(),
            column: "amount".into(),
            kind: EstimatorKind::EquiWidth,
            n_rows: 10_000,
            domain: Domain::new(0.0, 1_000.0),
            sample: (0..200).map(|i| i as f64 * 5.0).collect(),
        }
    }

    fn second_entry() -> PersistedStatistics {
        PersistedStatistics {
            column: "day".into(),
            kind: EstimatorKind::Kernel,
            ..entry()
        }
    }

    /// The v1 rendering of an entry set, for backward-compat tests.
    fn encode_v1(entries: &[PersistedStatistics]) -> String {
        let mut out = String::from(HEADER_V1);
        out.push('\n');
        for e in entries {
            let (stat, sample) = entry_lines(e);
            let _ = writeln!(out, "{stat}\n{sample}");
        }
        out
    }

    /// Edge values of the integer fast path plus `count` pseudo-random
    /// bit patterns and integers of every magnitude.
    fn encoder_probe_values(count: u64) -> Vec<f64> {
        let two53 = 9_007_199_254_740_992.0f64;
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            1_048_575.0,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            -(two53 - 1.0),
            -two53,
            -(two53 + 2.0),
            0.5,
            -2.5,
            1e15,
            1e16,
            1e300,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut x = 0x005e_1ec7_u64;
        for _ in 0..count {
            x = crate::overload::splitmix64(x);
            values.push(f64::from_bits(x));
            // Integers up to 2^63 in magnitude, both signs.
            values.push(((x as i64) >> (x % 64)) as f64);
        }
        values
    }

    #[test]
    fn integer_fast_path_prints_exactly_what_display_prints() {
        for v in encoder_probe_values(50_000) {
            let mut fast = String::new();
            push_sample_value(&mut fast, v);
            assert_eq!(fast, format!("{v}"), "bits {:#018x}", v.to_bits());
        }
    }

    #[test]
    fn encoded_samples_round_trip_bit_for_bit() {
        let sample: Vec<f64> = encoder_probe_values(5_000);
        let e = PersistedStatistics {
            sample: sample.clone().into(),
            ..entry()
        };
        let back = decode(&encode(std::slice::from_ref(&e))).expect("decode");
        let got: Vec<u64> = back[0].sample.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = sample
            .iter()
            // Display prints every NaN as `NaN`; parsing yields the
            // canonical quiet NaN.
            .map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn round_trip_preserves_everything() {
        let entries = vec![entry(), second_entry()];
        let text = encode(&entries);
        assert!(text.starts_with(HEADER_V2));
        let back = decode(&text).expect("decode");
        assert_eq!(back, entries);
    }

    #[test]
    fn v1_files_still_load() {
        let entries = vec![entry(), second_entry()];
        let text = encode_v1(&entries);
        let back = decode(&text).expect("v1 decode");
        assert_eq!(back, entries);
        let report = decode_lenient(&text).expect("v1 lenient decode");
        assert_eq!(report.entries, entries);
        assert!(report.errors.is_empty());
    }

    #[test]
    fn rebuilt_estimators_answer_identically() {
        let e = entry();
        let text = encode(std::slice::from_ref(&e));
        let back = decode(&text).expect("decode");
        let est_a = e.try_rebuild().expect("clean evidence rebuilds");
        let est_b = back[0].try_rebuild().expect("clean evidence rebuilds");
        for (a, b) in [(0.0, 100.0), (250.0, 600.0), (990.0, 1_000.0)] {
            let q = RangeQuery::new(a, b);
            assert_eq!(est_a.selectivity(&q), est_b.selectivity(&q), "[{a},{b}]");
        }
    }

    #[test]
    fn rebuild_reproduces_the_original_estimator() {
        // Persist -> rebuild must equal building directly from the sample.
        let e = entry();
        let rebuilt = e.try_rebuild().expect("clean evidence rebuilds");
        let direct = selest_histogram::equi_width(
            &e.sample,
            e.domain,
            selest_histogram::binrules::BinRule::bins(
                &selest_histogram::NormalScaleBins,
                &e.sample,
                &e.domain,
            ),
        );
        let q = RangeQuery::new(123.0, 456.0);
        assert!((rebuilt.selectivity(&q) - direct.selectivity(&q)).abs() < 1e-12);
    }

    #[test]
    fn try_rebuild_survives_degenerate_evidence() {
        let mut e = entry();
        e.sample = vec![f64::NAN, f64::INFINITY].into();
        assert_eq!(e.try_rebuild().err(), Some(EstimateError::EmptySample));
        // A zero-variance sample breaks the normal-scale bin rule; the
        // construction panic must come back as a typed error, not unwind.
        e.sample = vec![500.0; 10].into();
        match e.try_rebuild() {
            Err(EstimateError::Panicked { stage, message }) => {
                assert_eq!(stage, selest_core::fault::FaultStage::Build);
                assert!(message.contains("constant"), "{message:?}");
            }
            other => panic!("expected a caught build panic, got {:?}", other.err()),
        }
        // The sampling kind digests the same evidence fine — a rebuild
        // under a cheaper kind is the way back to real statistics.
        e.kind = EstimatorKind::Sampling;
        assert!(e.try_rebuild().is_ok());
    }

    #[test]
    fn decode_rejects_garbage_with_line_numbers() {
        let expect_line = |text: &str, line: usize, needle: &str| match decode(text) {
            Err(EstimateError::CorruptEntry {
                line: l, message, ..
            }) => {
                assert_eq!(l, line, "wrong line for {text:?}: {message}");
                assert!(message.contains(needle), "{message:?} missing {needle:?}");
            }
            other => panic!("expected CorruptEntry for {text:?}, got {other:?}"),
        };
        expect_line("not a statistics file", 1, "bad header");
        expect_line("", 1, "empty");
        expect_line("selest-statistics v1\nstat only three", 2, "missing kind");
        expect_line(
            "selest-statistics v1\nstat r c warp 10 0 1\nsample 1 1",
            2,
            "unknown estimator kind",
        );
        expect_line(
            "selest-statistics v1\nstat r c kernel 10 0 1\nsample 3 1 2",
            3,
            "length mismatch",
        );
        expect_line(
            "selest-statistics v1\nstat r c kernel 10 0 1",
            3,
            "truncated",
        );
        expect_line(
            "selest-statistics v1\nstat r c kernel ten 0 1\nsample 0",
            2,
            "bad n_rows",
        );
        expect_line(
            "selest-statistics v1\nstat r c kernel 10 5 1\nsample 0",
            2,
            "invalid domain",
        );
        expect_line(
            "selest-statistics v1\nstat r c kernel 10 0 1\nsample 1 oops",
            3,
            "bad sample value",
        );
        expect_line(
            "selest-statistics v1\nstat r c kernel 10 0 1 extra\nsample 0",
            2,
            "trailing token",
        );
    }

    #[test]
    fn bitflips_fail_the_checksum() {
        let text = encode(&[entry()]);
        // Flip one digit inside the sample payload: v1 would silently load
        // a wrong value; v2 must refuse the entry.
        let flipped = text.replacen(" 495 ", " 496 ", 1);
        assert_ne!(flipped, text, "fixture value must appear in the sample");
        match decode(&flipped) {
            Err(EstimateError::CorruptEntry { message, .. }) => {
                assert!(message.contains("checksum mismatch"), "{message:?}");
            }
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn truncated_v2_file_reports_the_cut() {
        let text = encode(&[entry()]);
        // Cut mid-sample-line: the sample length header no longer matches.
        let cut = &text[..text.len() - 40];
        assert!(decode(cut).is_err());
    }

    #[test]
    fn lenient_decode_skips_only_the_damaged_entry() {
        let good = vec![entry(), second_entry()];
        let mut text = encode(&good);
        // Corrupt the first entry's checksum line.
        text = text.replacen("check ", "check 0deadbeef", 1);
        let report = decode_lenient(&text).expect("header is fine");
        assert_eq!(report.entries.len(), 1, "second entry must survive");
        assert_eq!(&*report.entries[0].column, "day");
        assert_eq!(report.errors.len(), 1);
        match &report.errors[0] {
            EstimateError::CorruptEntry { message, .. } => {
                assert!(
                    message.contains("checksum") || message.contains("bad checksum"),
                    "{message:?}"
                );
            }
            other => panic!("expected CorruptEntry, got {other:?}"),
        }
    }

    /// Scratch space under the workspace target dir (kept out of /tmp so
    /// test artifacts stay inside the repository checkout).
    fn scratch_dir() -> PathBuf {
        PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/persist-test"
        ))
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_file() {
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("stats.txt");
        let first = vec![entry()];
        save_to_path(&path, &first).expect("save");
        assert_eq!(load_from_path(&path).expect("load"), first);
        assert!(
            !temp_sibling(&path).exists(),
            "temp file must be renamed away"
        );
        // Overwrite with new content: readers see old-or-new, never torn.
        let second = vec![entry(), second_entry()];
        save_to_path(&path, &second).expect("re-save");
        assert_eq!(load_from_path(&path).expect("reload"), second);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lenient_load_recovers_from_on_disk_damage() {
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("damaged.txt");
        let mut text = encode(&[entry(), second_entry()]);
        text = text.replacen("sample 200", "sample 999", 1); // break entry 1
        std::fs::write(&path, &text).expect("write");
        let report = load_lenient_from_path(&path).expect("lenient load");
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.errors.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_catalog_round_trips() {
        let text = encode(&[]);
        assert_eq!(decode(&text).expect("decode"), Vec::new());
    }

    #[test]
    fn load_errors_name_the_file_line_and_byte_offset() {
        let dir = scratch_dir();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("sited.txt");
        let text = encode(&[entry(), second_entry()]);
        // Damage the first entry's sample-length header so the reported
        // site sits past the file header (line > 1, offset > 0).
        let damaged = text.replacen("sample 200", "sample 999", 1);
        let damage_line = 3; // header, stat line, then the sample line
        std::fs::write(&path, &damaged).expect("write");
        match load_from_path(&path) {
            Err(EstimateError::CorruptEntry {
                path: Some(p),
                line,
                offset,
                ..
            }) => {
                assert!(p.ends_with("sited.txt"), "path context missing: {p}");
                assert_eq!(line, damage_line);
                // The offset must point at the start of the reported line.
                assert_eq!(
                    damaged[..offset].matches('\n').count(),
                    line - 1,
                    "offset {offset} does not start line {line}"
                );
            }
            other => panic!("expected sited CorruptEntry, got {other:?}"),
        }
        let report = load_lenient_from_path(&path).expect("lenient");
        assert_eq!(report.errors.len(), 1);
        match &report.errors[0] {
            EstimateError::CorruptEntry { path: Some(p), .. } => {
                assert!(p.ends_with("sited.txt"));
            }
            other => panic!("expected sited CorruptEntry, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_from_missing_file_is_a_typed_io_error() {
        let path = scratch_dir().join("no-such-file.txt");
        match load_from_path(&path) {
            Err(EstimateError::Io { path: p, op, .. }) => {
                assert!(p.ends_with("no-such-file.txt"), "{p}");
                assert_eq!(op, "read");
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
