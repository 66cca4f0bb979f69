//! The `selest` binary's input-error contract: a bad flag or a column
//! ANALYZE cannot build prints `error: …` and exits 2 — never a panic
//! (exit 101), and never a half-written store.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn selest(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_selest"))
        .args(args)
        .output()
        .expect("run the selest binary")
}

/// Asserts exit code 2 with an `error:` line and returns stderr.
fn assert_input_error(args: &[&str]) -> String {
    let out = selest(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    stderr
}

/// A fresh, empty-to-be store directory under the test target dir.
fn store_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn snapshot_of_an_unbuildable_column_names_it_and_publishes_nothing() {
    for sample in ["0", "1"] {
        let dir = store_dir(&format!("sample-{sample}"));
        let stderr = assert_input_error(&[
            "snapshot",
            dir.to_str().unwrap(),
            "n(20)",
            "--sample",
            sample,
        ]);
        assert!(
            stderr.contains("n(20).value"),
            "--sample {sample}: {stderr}"
        );
        let generations = std::fs::read_dir(&dir).map_or(0, |d| d.count());
        assert_eq!(generations, 0, "--sample {sample} must leave no generation");
    }
}

#[test]
fn estimate_rejects_samples_below_two_for_every_method() {
    for method in [
        "uniform", "sampling", "ewh", "edh", "mdh", "ash", "wavelet", "kernel", "hybrid",
    ] {
        for sample in ["0", "1"] {
            let stderr = assert_input_error(&[
                "estimate", "n(20)", method, "100000", "200000", "--sample", sample,
            ]);
            assert!(stderr.contains("--sample"), "{method}: {stderr}");
        }
    }
}

#[test]
fn zero_scale_is_an_input_error() {
    let dir = store_dir("scale-0");
    for args in [
        vec!["estimate", "n(20)", "kernel", "1", "2", "--scale", "0"],
        vec!["snapshot", dir.to_str().unwrap(), "n(20)", "--scale", "0"],
        vec!["data", "n(20)", "--scale", "0"],
    ] {
        let stderr = assert_input_error(&args);
        assert!(stderr.contains("--scale"), "{args:?}: {stderr}");
    }
    assert!(
        !dir.exists(),
        "a rejected snapshot must not create its store"
    );
}
