//! Plain-text import/export of data files.
//!
//! The paper's original TIGER/Line extracts are gone, but anyone holding a
//! copy (or any other integer-valued attribute) can feed it in here and run
//! every experiment against the real thing: one value per line, `#`
//! comments and blank lines ignored. Values must be integers inside
//! `[0, 2^p - 1]` — the same contract as the generators.

use std::io::{BufRead, BufReader, Read, Write};

use crate::dataset::DataFile;

/// Read a data file from one-value-per-line text.
///
/// Returns an error message describing the first offending line, or a
/// `p` outside `1..=52` (the domains [`DataFile`] can hold exactly),
/// before any input is read. Every value is checked against the
/// integer-in-domain contract [`DataFile::from_values`] asserts, so a bad
/// input is an `Err`, never a panic.
///
/// # Examples
///
/// ```
/// use selest_data::read_values;
///
/// let text = "# my extract\n42\n7\n255\n";
/// let data = read_values(text.as_bytes(), "mine", 8).unwrap();
/// assert_eq!(data.values(), &[42.0, 7.0, 255.0]);
/// ```
pub fn read_values<R: Read>(reader: R, name: &str, p: u32) -> Result<DataFile, String> {
    if !(1..=52).contains(&p) {
        return Err(format!("p = {p} is outside 1..=52"));
    }
    let max = (1u64 << p) as f64 - 1.0;
    let mut values = Vec::new();
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: read error: {e}", lineno + 1))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let v: f64 = t
            .parse()
            .map_err(|e| format!("line {}: {e} (value {t:?})", lineno + 1))?;
        if v != v.trunc() {
            return Err(format!("line {}: value {v} is not an integer", lineno + 1));
        }
        if !(0.0..=max).contains(&v) {
            return Err(format!(
                "line {}: value {v} outside [0, 2^{p} - 1] = [0, {max}]",
                lineno + 1
            ));
        }
        values.push(v);
    }
    if values.is_empty() {
        return Err("no values in input".into());
    }
    Ok(DataFile::from_values(name, p, values))
}

/// Write a data file as one-value-per-line text with a descriptive header.
pub fn write_values<W: Write>(data: &DataFile, mut writer: W) -> std::io::Result<()> {
    writeln!(
        writer,
        "# selest data file: {} (p = {}, {} records)",
        data.name(),
        data.p(),
        data.len()
    )?;
    for v in data.values() {
        writeln!(writer, "{v}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Uniform;

    #[test]
    fn round_trip_preserves_values() {
        let original = DataFile::synthetic("u(10)", 10, 500, &Uniform::new(0.0, 1023.0), 3);
        let mut buf = Vec::new();
        write_values(&original, &mut buf).expect("write");
        let back = read_values(&buf[..], "u(10)", 10).expect("read");
        assert_eq!(back.values(), original.values());
        assert_eq!(back.p(), 10);
        assert_eq!(back.name(), "u(10)");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\n42\n# middle\n7\n\n";
        let data = read_values(text.as_bytes(), "t", 8).expect("read");
        assert_eq!(data.values(), &[42.0, 7.0]);
    }

    #[test]
    fn bad_inputs_are_rejected_with_line_numbers() {
        assert!(read_values("abc".as_bytes(), "t", 8)
            .unwrap_err()
            .contains("line 1"));
        assert!(read_values("1\n2.5".as_bytes(), "t", 8)
            .unwrap_err()
            .contains("not an integer"));
        assert!(read_values("1\n300".as_bytes(), "t", 8)
            .unwrap_err()
            .contains("outside"));
        assert!(read_values("256".as_bytes(), "t", 8)
            .unwrap_err()
            .contains("outside"));
        assert_eq!(
            read_values("".as_bytes(), "t", 8).unwrap_err(),
            "no values in input"
        );
    }

    #[test]
    fn p_outside_the_exact_domains_is_an_error_not_a_panic() {
        for p in [0, 53, 64] {
            let err = read_values("1".as_bytes(), "t", p).unwrap_err();
            assert_eq!(err, format!("p = {p} is outside 1..=52"));
        }
        // The check comes before any input is read.
        struct Unreadable;
        impl Read for Unreadable {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                panic!("read_values read input for an invalid p");
            }
        }
        assert!(read_values(Unreadable, "t", 0).is_err());
        assert_eq!(read_values("1".as_bytes(), "t", 52).unwrap().p(), 52);
    }

    #[test]
    fn boundary_values_are_accepted() {
        let data = read_values("0\n255".as_bytes(), "t", 8).expect("read");
        assert_eq!(data.values(), &[0.0, 255.0]);
    }
}
