//! The statistics format — the `pg_statistic` of this toy store.
//!
//! What a database durably stores after ANALYZE is not the estimator
//! object but the *evidence*: the sample, the method, and the relation
//! metadata; estimators are rebuilt deterministically on load. The format
//! is a self-describing line-oriented text format (no external
//! serialization dependency) with a per-entry checksum, so bit rot is
//! detected at the damaged entry, not smeared across the whole catalog:
//!
//! ```text
//! selest-statistics v3
//! stat <relation> <column> <kind> <n_rows> <domain_lo> <domain_hi>
//! sample <len> v1 v2 ... vlen
//! check <checksum-hex-of-the-two-lines-above>
//! ```
//!
//! This module is the in-memory codec: [`encode`] and the strict
//! [`decode`], which never panics, never silently drops an entry, and
//! reports the 1-based line and byte offset of the first problem. Files
//! reach and leave disk only through
//! [`DurableStore`](crate::durable::DurableStore), which writes them
//! atomically as generation snapshots, verifies them against its
//! `MANIFEST` checksums, and stamps the file path onto every decode error.

use std::fmt::Write as _;
use std::str::FromStr;
use std::sync::Arc;

use selest_core::fault::EstimateError;
use selest_core::Domain;
use selest_par::fnv1a_64;

use crate::catalog::EstimatorKind;

/// Header of the statistics format.
pub const HEADER_V3: &str = "selest-statistics v3";

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

fn kind_token(kind: EstimatorKind) -> &'static str {
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

fn parse_kind(token: &str) -> Result<EstimatorKind, String> {
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

/// Serialize a set of statistics entries.
///
/// Panics on an empty relation or column name or one containing
/// whitespace; `DurableStore::publish` returns
/// [`EstimateError::UnpersistableName`] for such entries instead.
pub fn encode(entries: &[PersistedStatistics]) -> String {
    let mut out = String::from(HEADER_V3);
    out.push('\n');
    for e in entries {
        assert!(
            persistable_name(&e.relation) && persistable_name(&e.column),
            "relation/column names must be nonempty and contain no whitespace"
        );
        let (stat, sample) = entry_lines(e);
        let check = fnv1a_64(format!("{stat}\n{sample}\n").as_bytes());
        let _ = writeln!(out, "{stat}\n{sample}\ncheck {check:016x}");
    }
    out
}

/// A [`EstimateError::CorruptEntry`] at 1-based `line` with no path or
/// offset yet; file readers stamp those on.
pub(crate) fn corrupt(line: usize, message: impl Into<String>) -> EstimateError {
    EstimateError::CorruptEntry {
        path: None,
        line: line.max(1),
        offset: 0,
        message: message.into(),
    }
}

/// The whitespace-separated fields of one line, consumed in order. Every
/// failure is a [`corrupt`] error at the line, naming the field.
pub(crate) struct Fields<'a> {
    line: usize,
    it: std::str::SplitWhitespace<'a>,
}

impl<'a> Fields<'a> {
    pub(crate) fn new(text: &'a str, line: usize) -> Self {
        Fields {
            line,
            it: text.split_whitespace(),
        }
    }

    /// The next token, or a "missing `what`" error.
    pub(crate) fn next(&mut self, what: &str) -> Result<&'a str, EstimateError> {
        self.it
            .next()
            .ok_or_else(|| corrupt(self.line, format!("missing {what}")))
    }

    /// The next token, which must be exactly `tag`.
    pub(crate) fn tag(&mut self, tag: &str) -> Result<(), EstimateError> {
        match self.next(tag)? {
            t if t == tag => Ok(()),
            t => Err(corrupt(self.line, format!("expected {tag:?}, got {t:?}"))),
        }
    }

    /// The next token parsed as a `T`.
    pub(crate) fn parse<T: FromStr>(&mut self, what: &str) -> Result<T, EstimateError>
    where
        T::Err: std::fmt::Display,
    {
        let tok = self.next(what)?;
        tok.parse()
            .map_err(|e| corrupt(self.line, format!("bad {what} {tok:?}: {e}")))
    }

    /// The next token as a hexadecimal checksum.
    pub(crate) fn hex(&mut self, what: &str) -> Result<u64, EstimateError> {
        let tok = self.next(what)?;
        u64::from_str_radix(tok, 16)
            .map_err(|e| corrupt(self.line, format!("bad {what} {tok:?}: {e}")))
    }

    /// The next token as an estimator kind.
    pub(crate) fn kind(&mut self) -> Result<EstimatorKind, EstimateError> {
        parse_kind(self.next("kind")?).map_err(|m| corrupt(self.line, m))
    }

    /// A domain from the next two tokens.
    pub(crate) fn domain(&mut self) -> Result<Domain, EstimateError> {
        let (lo, hi) = (self.parse("domain lo")?, self.parse("domain hi")?);
        Domain::try_new(lo, hi).map_err(|e| corrupt(self.line, format!("invalid domain: {e}")))
    }

    /// Whether every token has been consumed.
    fn at_end(&self) -> bool {
        self.it.clone().next().is_none()
    }

    /// Require that the line holds no further token.
    pub(crate) fn end(mut self) -> Result<(), EstimateError> {
        match self.it.next() {
            None => Ok(()),
            Some(extra) => Err(corrupt(self.line, format!("trailing token {extra:?}"))),
        }
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

/// Parse the entry whose `stat` line is `lines[i]` (a non-empty line).
/// Returns the entry and the index just past it. Errors carry the 1-based
/// line number of the offending line.
fn parse_entry(lines: &[&str], i: usize) -> Result<(PersistedStatistics, usize), EstimateError> {
    let line = |k: usize| {
        lines
            .get(k)
            .copied()
            .ok_or_else(|| corrupt(k + 1, "truncated file"))
    };
    let stat_line = lines[i];
    let mut stat = Fields::new(stat_line, i + 1);
    stat.tag("stat")?;
    let relation = stat.next("relation")?;
    let column = stat.next("column")?;
    let kind = stat.kind()?;
    let n_rows = stat.parse("n_rows")?;
    let domain = stat.domain()?;
    stat.end()?;

    let sample_line = line(i + 1)?;
    let mut sample = Fields::new(sample_line, i + 2);
    sample.tag("sample")?;
    let len: usize = sample.parse("sample length")?;
    let mut values = Vec::new();
    while !sample.at_end() {
        values.push(sample.parse::<f64>("sample value")?);
    }
    if values.len() != len {
        return Err(corrupt(
            i + 2,
            format!(
                "sample length mismatch: header says {len}, found {}",
                values.len()
            ),
        ));
    }

    let check_line = line(i + 2)?;
    let mut check = Fields::new(check_line, i + 3);
    check.tag("check")?;
    let stored = check.hex("checksum")?;
    let actual = fnv1a_64(format!("{stat_line}\n{sample_line}\n").as_bytes());
    if stored != actual {
        return Err(corrupt(
            i + 3,
            format!("checksum mismatch: stored {stored:016x}, computed {actual:016x}"),
        ));
    }
    Ok((
        PersistedStatistics {
            relation: relation.into(),
            column: column.into(),
            kind,
            n_rows,
            domain,
            sample: values.into(),
        },
        i + 3,
    ))
}

/// Parse a serialized statistics file, strictly: the first damaged entry
/// aborts the load with the 1-based line number and byte offset of the
/// problem. Never panics, never silently drops an entry.
pub fn decode(text: &str) -> Result<Vec<PersistedStatistics>, EstimateError> {
    let lines: Vec<&str> = text.lines().collect();
    let offsets = line_offsets(text);
    let stamp = |e| stamp_offset(e, &offsets, text.len());
    match lines.first() {
        Some(&h) if h == HEADER_V3 => {}
        Some(&h) => return Err(stamp(corrupt(1, format!("bad header: {h:?}")))),
        None => return Err(stamp(corrupt(1, "empty statistics file"))),
    }
    let mut entries = Vec::new();
    let mut i = 1;
    while i < lines.len() {
        if lines[i].trim().is_empty() {
            i += 1;
            continue;
        }
        let (entry, next) = parse_entry(&lines, i).map_err(stamp)?;
        entries.push(entry);
        i = next;
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use selest_core::{RangeQuery, SelectivityEstimator};

    /// Rebuild an entry's estimator the way the store does: by import.
    fn rebuild(
        e: &PersistedStatistics,
    ) -> Result<Arc<dyn SelectivityEstimator + Send + Sync>, EstimateError> {
        let mut catalog = crate::catalog::StatisticsCatalog::new();
        match catalog.try_import(vec![e.clone()]).pop() {
            Some((_, _, error)) => Err(error),
            None => Ok(Arc::clone(
                &catalog
                    .statistics(&e.relation, &e.column)
                    .unwrap()
                    .estimator,
            )),
        }
    }

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
        assert!(text.starts_with(HEADER_V3));
        let back = decode(&text).expect("decode");
        assert_eq!(back, entries);
    }

    #[test]
    fn rebuilt_estimators_answer_identically() {
        let e = entry();
        let text = encode(std::slice::from_ref(&e));
        let back = decode(&text).expect("decode");
        let est_a = rebuild(&e).expect("clean evidence rebuilds");
        let est_b = rebuild(&back[0]).expect("clean evidence rebuilds");
        for (a, b) in [(0.0, 100.0), (250.0, 600.0), (990.0, 1_000.0)] {
            let q = RangeQuery::new(a, b);
            assert_eq!(est_a.selectivity(&q), est_b.selectivity(&q), "[{a},{b}]");
        }
    }

    #[test]
    fn rebuild_reproduces_the_original_estimator() {
        // Persist -> rebuild must equal building directly from the sample.
        let e = entry();
        let rebuilt = rebuild(&e).expect("clean evidence rebuilds");
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
        assert_eq!(rebuild(&e).err(), Some(EstimateError::EmptySample));
        // A zero-variance sample breaks the normal-scale bin rule; the
        // construction panic must come back as a typed error, not unwind.
        e.sample = vec![500.0; 10].into();
        match rebuild(&e) {
            Err(EstimateError::Panicked { stage, message }) => {
                assert_eq!(stage, selest_core::fault::FaultStage::Build);
                assert!(message.contains("constant"), "{message:?}");
            }
            other => panic!("expected a caught build panic, got {:?}", other.err()),
        }
        // The sampling kind digests the same evidence fine — a rebuild
        // under a cheaper kind is the way back to real statistics.
        e.kind = EstimatorKind::Sampling;
        assert!(rebuild(&e).is_ok());
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
        // The checksum-free v1 format is no longer read.
        expect_line(
            "selest-statistics v1\nstat r c kernel 10 0 1\nsample 0",
            1,
            "bad header",
        );
        // Nor is v2, whose checksums were not FNV-1a.
        expect_line(
            "selest-statistics v2\nstat r c kernel 10 0 1\nsample 0",
            1,
            "bad header",
        );
        expect_line("selest-statistics v3\nstat only three", 2, "missing kind");
        expect_line(
            "selest-statistics v3\nstat r c warp 10 0 1\nsample 1 1",
            2,
            "unknown estimator kind",
        );
        expect_line(
            "selest-statistics v3\nstat r c kernel 10 0 1\nsample 3 1 2",
            3,
            "length mismatch",
        );
        expect_line(
            "selest-statistics v3\nstat r c kernel 10 0 1",
            3,
            "truncated",
        );
        expect_line(
            "selest-statistics v3\nstat r c kernel ten 0 1\nsample 0",
            2,
            "bad n_rows",
        );
        expect_line(
            "selest-statistics v3\nstat r c kernel 10 5 1\nsample 0",
            2,
            "invalid domain",
        );
        expect_line(
            "selest-statistics v3\nstat r c kernel 10 0 1\nsample 1 oops",
            3,
            "bad sample value",
        );
        expect_line(
            "selest-statistics v3\nstat r c kernel 10 0 1 extra\nsample 0",
            2,
            "trailing token",
        );
    }

    #[test]
    fn bitflips_fail_the_checksum() {
        let text = encode(&[entry()]);
        // Flip one digit inside the sample payload: without the checksum
        // it would load as a wrong value; the entry must be refused.
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
    fn empty_catalog_round_trips() {
        let text = encode(&[]);
        assert_eq!(decode(&text).expect("decode"), Vec::new());
    }
}
