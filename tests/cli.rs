//! The `selest` binary's input-error contract: a bad or unknown flag, a
//! flag missing its value, a wrong number of positionals, an unknown
//! experiment id, a non-finite range bound, a missing store directory or a
//! column ANALYZE cannot build prints `error: …` and exits 2 before any
//! work — never a panic (exit 101), and never a half-written store.
//! `selest fsck` and `selest serve --status` change no file. Also:
//! `selest repro` prints the same bytes for every worker count, and
//! `selest repro all` reproduces the committed `results/` byte for byte.

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

#[test]
fn estimate_rejects_non_finite_bounds() {
    for (a, b) in [("1", "nan"), ("-inf", "inf"), ("5", "1")] {
        let stderr = assert_input_error(&["estimate", "n(20)", "kernel", a, b]);
        assert!(stderr.contains("invalid query"), "({a}, {b}): {stderr}");
    }
}

#[test]
fn repro_rejects_unknown_ids_and_flags_before_any_work() {
    let stderr = assert_input_error(&["repro", "nosuch"]);
    assert!(stderr.contains("\"nosuch\""), "{stderr}");
    let stderr = assert_input_error(&["repro", "tab02", "--quik"]);
    assert!(stderr.contains("--quik"), "{stderr}");
    for args in [
        vec!["repro", "tab02", "--jobs", "0"],
        vec!["repro", "tab02", "--csv"],
    ] {
        assert_input_error(&args);
    }
}

#[test]
fn repro_stdout_is_byte_identical_for_every_worker_count() {
    let run = |jobs: &str| {
        let out = selest(&["repro", "tab02", "--quick", "--jobs", jobs]);
        assert!(out.status.success(), "--jobs {jobs}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("[tab02 computed in"), "{stderr}");
        out.stdout
    };
    let one = run("1");
    assert!(!one.is_empty());
    assert_eq!(one, run("2"));
}

#[test]
fn serve_status_of_a_missing_store_creates_nothing() {
    let dir = store_dir("serve-missing");
    let stderr = assert_input_error(&["serve", "--status", dir.to_str().unwrap()]);
    assert!(stderr.contains(dir.to_str().unwrap()), "{stderr}");
    assert!(!dir.exists(), "a status report must not create its store");
}

/// Every file of a store directory with its bytes, sorted by name.
fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("list the store")
        .map(|e| {
            let e = e.expect("store entry");
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).expect("read a store file"))
        })
        .collect();
    files.sort();
    files
}

/// Inspection changes no file: `fsck` without `--repair` and `serve
/// --status` of a healthy store that holds an older generation than the
/// default retention keeps leave it in place, and `serve --status`
/// refuses a damaged store rather than repair it.
#[test]
fn fsck_and_serve_status_leave_the_store_untouched() {
    let dir = store_dir("inspect");
    let path = dir.to_str().unwrap();
    for _ in 0..2 {
        let out = selest(&["snapshot", path, "u(15)", "--sample", "64"]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
    }
    // An older generation a store with `keep_generations: 3` keeps.
    std::fs::copy(dir.join("gen-000001.stats"), dir.join("gen-000000.stats")).unwrap();
    let before = store_files(&dir);
    for args in [vec!["fsck", path], vec!["serve", "--status", path]] {
        let out = selest(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        assert_eq!(store_files(&dir), before, "{args:?} changed the store");
        if args[0] == "serve" {
            assert!(
                stdout.contains("cache       hits 0 misses 0 inserts 0 conflicts 0 bypassed 0"),
                "{stdout}"
            );
        }
    }
    let manifest = dir.join("MANIFEST");
    let mut bytes = std::fs::read(&manifest).unwrap();
    let last = bytes.len() - 2;
    bytes[last] ^= 1;
    std::fs::write(&manifest, bytes).unwrap();
    let damaged = store_files(&dir);
    let stderr = assert_input_error(&["serve", "--status", path]);
    assert!(stderr.contains("damaged"), "{stderr}");
    assert_eq!(
        store_files(&dir),
        damaged,
        "serve --status repaired the store"
    );
}

#[test]
fn estimate_rejects_unknown_flags_and_extra_positionals() {
    let stderr = assert_input_error(&[
        "estimate", "n(20)", "kernel", "1000", "200000", "--sampel", "5",
    ]);
    assert!(stderr.contains("--sampel"), "{stderr}");
    for args in [
        vec!["estimate", "n(20)", "kernel", "1000", "200000", "7"],
        vec!["estimate", "n(20)", "kernel", "1000", "200000", "--sample"],
    ] {
        assert_input_error(&args);
    }
}

#[test]
fn data_rejects_unknown_flags_and_extra_positionals() {
    let stderr = assert_input_error(&["data", "n(20)", "--scael", "3"]);
    assert!(stderr.contains("--scael"), "{stderr}");
    assert_input_error(&["data", "n(20)", "u(15)"]);
}

#[test]
fn fsck_rejects_an_unknown_flag_before_touching_the_store() {
    let dir = store_dir("fsck-typo");
    let stderr = assert_input_error(&["fsck", dir.to_str().unwrap(), "--repiar"]);
    assert!(stderr.contains("--repiar"), "{stderr}");
    assert!(!dir.exists(), "a rejected fsck must not create its store");
}

#[test]
fn snapshot_rejects_an_unknown_flag_and_publishes_nothing() {
    let dir = store_dir("snapshot-typo");
    let stderr = assert_input_error(&["snapshot", dir.to_str().unwrap(), "u(15)", "--verbose"]);
    assert!(stderr.contains("--verbose"), "{stderr}");
    let generations = std::fs::read_dir(&dir).map_or(0, |d| d.count());
    assert_eq!(
        generations, 0,
        "a rejected snapshot must leave no generation"
    );
}

/// `results/` holds the stdout of `selest repro all` (`repro.txt`) and
/// the CSV of every experiment; a change that moves any figure must
/// regenerate them.
#[test]
fn repro_all_reproduces_the_committed_results_byte_for_byte() {
    let dir = store_dir("repro-all");
    let out = selest(&["repro", "all", "--csv", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let committed = std::fs::read(results.join("repro.txt")).expect("read results/repro.txt");
    assert!(
        out.stdout == committed,
        "stdout of `selest repro all` differs from results/repro.txt"
    );
    let mut csvs = 0;
    for entry in std::fs::read_dir(&results).expect("list results/") {
        let path = entry.expect("results/ entry").path();
        if path.extension().is_some_and(|e| e == "csv") {
            let name = path.file_name().unwrap();
            let produced = std::fs::read(dir.join(name))
                .unwrap_or_else(|e| panic!("{name:?} was not produced: {e}"));
            assert!(
                produced == std::fs::read(&path).unwrap(),
                "{name:?} differs from results/"
            );
            csvs += 1;
        }
    }
    let produced = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(csvs, produced, "results/ must hold every CSV repro writes");
    assert!(csvs > 0);
}
