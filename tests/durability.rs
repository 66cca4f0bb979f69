//! Crash-recovery and durability guarantees of the generational store
//! (`store::durable`).
//!
//! Every crash here is injected through a `CrashPlan` that aborts the
//! write path at one of the enumerated I/O boundaries, leaving the
//! directory exactly as a power cut there would. The pinned guarantees:
//!
//! 1. after a crash at *any* point, reopen recovers a consistent
//!    generation byte-identical to the pre-crash or post-crash committed
//!    state — never a torn hybrid — and `fsck` is healthy afterward;
//! 2. any prefix truncation or single-byte flip of a snapshot or
//!    manifest recovers a prior good generation (typed, never a panic)
//!    whose bytes match a fault-free build of the same columns, and one
//!    of the journal keeps the intact statistics;
//! 3. snapshot → journal appends → republish exports byte-identically
//!    for any worker count and equals a direct fault-free build;
//! 4. a store in the previous on-disk layout (v2 `MANIFEST` and journal,
//!    a `gen-*.feedback` file per generation) opens onto its newest
//!    snapshot, bit for bit, and keeps no feedback file.
//!
//! Seeds come from `SELEST_CRASH_SEED` (default `0xC4A5`), so a failing
//! seed is a repro command (`scripts/chaos_sweep.sh --crash` sweeps
//! them and prints exactly that command).

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selest::par::fnv1a_64;
use selest::store::{
    fsck, AnalyzeConfig, Column, CrashPlan, CrashPoint, DurableStore, EstimatorKind, JournalRecord,
    RecoveryRung, Relation, RetentionPolicy, StatisticsCatalog,
};
use selest::{Domain, EstimateError};

fn crash_seed() -> u64 {
    std::env::var("SELEST_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A5)
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/durability-test")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic clustered data, distinct per `variant`.
fn rows(variant: u64) -> Vec<f64> {
    let mut x = 0x9e37u64 ^ variant.wrapping_mul(0x517c_c1b7_2722_0a95);
    (0..400)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            if i % 9 == 0 {
                500.0
            } else {
                1000.0 * u
            }
        })
        .collect()
}

fn relation(variant: u64) -> Relation {
    let d = Domain::new(0.0, 1000.0);
    let mut rel = Relation::new("t");
    rel.add_column(Column::new("v", d, rows(variant)));
    rel.add_column(Column::new("w", d, rows(variant + 7)));
    rel
}

fn config() -> AnalyzeConfig {
    AnalyzeConfig {
        sample_size: 128,
        kind: EstimatorKind::Sampling,
        ..Default::default()
    }
}

/// ANALYZE `variant`'s relation with an explicit worker count and return
/// the catalog (deterministic for every `jobs`).
fn catalog(variant: u64, jobs: usize) -> StatisticsCatalog {
    let mut cat = StatisticsCatalog::new();
    assert!(cat
        .try_analyze_jobs(&relation(variant), &config(), jobs)
        .is_healthy());
    cat
}

fn observation(truth: f64) -> JournalRecord {
    JournalRecord::Observation {
        relation: "t".to_owned(),
        column: "v".to_owned(),
        a: 100.0,
        b: 400.0,
        base: 0.3,
        truth,
    }
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read src") {
        let entry = entry.expect("entry");
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy file");
        }
    }
}

// -------------------------------------------------------------------------
// 1. Crash sweep: every injection point recovers pre- or post-crash state
// -------------------------------------------------------------------------

/// Whether a crash at `point` lands *after* the commit point, so the
/// post-crash state is the one that must survive reopen.
fn commits_anyway(point: CrashPoint) -> bool {
    matches!(
        point,
        CrashPoint::ManifestPostRename
            | CrashPoint::JournalResetPartialWrite
            | CrashPoint::JournalResetPreRename
            | CrashPoint::JournalResetPostRename
            | CrashPoint::JournalPreSync
    )
}

fn journal_point(point: CrashPoint) -> bool {
    matches!(
        point,
        CrashPoint::JournalMidRecord | CrashPoint::JournalPreSync
    )
}

/// Drive one crash at `point` and assert the recovery contract. The
/// pre/post reference states are computed by a crash-free twin store
/// performing the same operations.
fn exercise_crash_point(point: CrashPoint, tag: &str) {
    // Crash-free twin: the source of expected byte states.
    let twin_dir = scratch(&format!("{tag}-twin"));
    let (mut twin, _) = DurableStore::open(&twin_dir).expect("open twin");
    twin.publish(catalog(1, 1).export()).expect("twin gen 1");
    twin.append(&observation(0.42)).expect("twin obs");
    twin.append(&observation(0.1)).expect("twin obs 2");
    let pre = twin.export_bytes();
    if journal_point(point) {
        twin.append(&observation(0.15)).expect("twin obs 3");
    } else {
        twin.publish(catalog(2, 1).export()).expect("twin gen 2");
    }
    let post = twin.export_bytes();

    // Victim: same history, then a crash at `point`.
    let dir = scratch(tag);
    let (mut store, _) = DurableStore::open(&dir).expect("open");
    store.publish(catalog(1, 1).export()).expect("gen 1");
    store.append(&observation(0.42)).expect("obs");
    store.append(&observation(0.1)).expect("obs 2");
    store.set_crash_plan(CrashPlan::at(point));
    let crashed = if journal_point(point) {
        store.append(&observation(0.15)).expect_err("must crash")
    } else {
        store
            .publish(catalog(2, 1).export())
            .expect_err("must crash")
    };
    match &crashed {
        EstimateError::Io { op, message, .. } => {
            assert_eq!(op, "simulated crash", "{point}: {crashed}");
            assert!(message.contains(&point.to_string()), "{point}: {message}");
        }
        other => panic!("{point}: expected simulated crash, got {other}"),
    }
    drop(store);

    // Reopen with no injection: the recovery ladder must produce exactly
    // the pre- or post-crash committed state, and fsck must pass.
    let (reopened, report) = DurableStore::open(&dir).expect("reopen after crash");
    let got = reopened.export_bytes();
    let want = if commits_anyway(point) { &post } else { &pre };
    assert_eq!(
        &got, want,
        "{point}: recovered state is neither pre- nor post-crash (rung {:?})",
        report.rung
    );
    let check = fsck(&dir);
    assert!(
        check.healthy,
        "{point}: fsck after recovery found {:?}",
        check.findings
    );
}

#[test]
fn crash_sweep_every_point_recovers_a_committed_state() {
    for (i, point) in CrashPoint::ALL.into_iter().enumerate() {
        exercise_crash_point(point, &format!("sweep-{i}"));
    }
}

#[test]
fn seeded_crash_plan_recovers_like_the_sweep() {
    let plan = CrashPlan::seeded(crash_seed());
    let point = plan.target().expect("seeded plan is armed");
    exercise_crash_point(point, "seeded");
}

// -------------------------------------------------------------------------
// 2. Property: truncations and bit flips never panic, never serve damage
// -------------------------------------------------------------------------

/// Build a pristine two-generation store and return
/// `(dir, gen1_stats_bytes, gen2_stats_bytes)` where generation 2 is
/// active, with observations of both columns in its journal, and
/// generation 1 is the recovery rung below it.
fn pristine_store(tag: &str) -> (PathBuf, String, String) {
    let dir = scratch(tag);
    let (mut store, _) = DurableStore::open_with(
        &dir,
        RetentionPolicy {
            keep_generations: 3,
        },
        CrashPlan::inert(),
    )
    .expect("open");
    store.publish(catalog(1, 1).export()).expect("gen 1");
    let gen1 = store.export_bytes().0;
    store.publish(catalog(2, 1).export()).expect("gen 2");
    let gen2 = store.export_bytes().0;
    assert_ne!(gen1, gen2, "variants must differ for the test to bite");
    for rec in journal_records(0.3) {
        store.append(&rec).expect("journal");
    }
    (dir, gen1, gen2)
}

/// A prefix truncation at a random cut (possibly empty) for even `case`,
/// a single byte flipped by a non-zero XOR for odd.
fn damage(rng: &mut StdRng, bytes: &[u8], case: u32) -> Vec<u8> {
    let mut damaged = bytes.to_vec();
    if case.is_multiple_of(2) {
        damaged.truncate(rng.random_range(0..damaged.len()));
    } else {
        let at = rng.random_range(0..damaged.len());
        damaged[at] ^= rng.random_range(1..=255u8);
    }
    damaged
}

#[test]
fn snapshot_corruption_recovers_previous_generation_bytes() {
    let (pristine, gen1, gen2) = pristine_store("property-pristine");
    let mut rng = StdRng::seed_from_u64(crash_seed() ^ 0xB17F11B);
    let active = std::fs::read(pristine.join("gen-000002.stats")).expect("read active");
    for case in 0..24u32 {
        let dir = scratch(&format!("property-{case}"));
        copy_dir(&pristine, &dir);
        let damaged = damage(&mut rng, &active, case);
        std::fs::write(dir.join("gen-000002.stats"), &damaged).expect("damage");
        // Never a panic, never an error: the ladder absorbs it...
        let (recovered, report) = DurableStore::open(&dir).expect("recovery must succeed");
        // ...and never serves damaged statistics: any alteration of the
        // active snapshot falls back to generation 1's exact bytes.
        assert_eq!(
            recovered.export_bytes().0,
            gen1,
            "case {case}: recovered statistics drifted (rung {:?})",
            report.rung
        );
        assert!(!report.errors.is_empty(), "case {case}: damage unreported");
        let check = fsck(&dir);
        assert!(check.healthy, "case {case}: {:?}", check.findings);
    }
    // A damaged MANIFEST instead: both generations are intact, so the
    // ladder re-commits the *newest* good one — generation 2.
    let manifest = std::fs::read(pristine.join("MANIFEST")).expect("read manifest");
    for case in 0..8u32 {
        let dir = scratch(&format!("property-manifest-{case}"));
        copy_dir(&pristine, &dir);
        std::fs::write(dir.join("MANIFEST"), damage(&mut rng, &manifest, case)).expect("damage");
        let (recovered, _) = DurableStore::open(&dir).expect("recovery must succeed");
        assert_eq!(
            recovered.export_bytes().0,
            gen2,
            "manifest case {case}: newest intact generation must win"
        );
        assert!(fsck(&dir).healthy, "manifest case {case}");
    }
    // A damaged journal: the statistics are intact, so whatever recovery
    // does with the observations, it keeps serving generation 2's bytes.
    let journal = std::fs::read(pristine.join("journal.log")).expect("read journal");
    for case in 0..24u32 {
        let dir = scratch(&format!("property-journal-{case}"));
        copy_dir(&pristine, &dir);
        std::fs::write(dir.join("journal.log"), damage(&mut rng, &journal, case)).expect("damage");
        let (recovered, report) = DurableStore::open(&dir).expect("recovery must succeed");
        assert_eq!(
            recovered.export_bytes().0,
            gen2,
            "journal case {case}: statistics drifted (rung {:?})",
            report.rung
        );
        let check = fsck(&dir);
        assert!(check.healthy, "journal case {case}: {:?}", check.findings);
    }
}

// -------------------------------------------------------------------------
// 3. Determinism: the committed bytes are identical for every worker count
// -------------------------------------------------------------------------

#[test]
fn store_lifecycle_is_byte_identical_across_worker_counts() {
    let mut outputs = Vec::new();
    for jobs in [1usize, 7] {
        let dir = scratch(&format!("determinism-{jobs}"));
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        let cat = catalog(3, jobs);
        cat.publish_to(&mut store).expect("publish");
        for i in 0..5 {
            store
                .append(&observation(0.2 + 0.1 * i as f64))
                .expect("obs");
        }
        cat.publish_to(&mut store).expect("republish");
        for rec in journal_records(0.6) {
            store.append(&rec).expect("obs after republish");
        }
        let (stats, journal_len) = store.export_bytes();
        assert_eq!(
            journal_len, 2,
            "jobs={jobs}: the republish reset the journal"
        );
        // The on-disk snapshot is exactly the exported encoding, and the
        // export is exactly a direct fault-free build of the same columns.
        let on_disk = std::fs::read_to_string(dir.join("gen-000002.stats")).expect("read snapshot");
        assert_eq!(on_disk, stats, "jobs={jobs}: disk and export disagree");
        assert_eq!(
            stats,
            selest::store::encode_statistics(&catalog(3, 1).export()),
            "jobs={jobs}: snapshot differs from a direct build"
        );
        let manifest = std::fs::read_to_string(dir.join("MANIFEST")).expect("read manifest");
        let journal = std::fs::read_to_string(dir.join("journal.log")).expect("read journal");
        outputs.push((jobs, stats, manifest, journal));
    }
    let (_, stats1, manifest1, journal1) = &outputs[0];
    for (jobs, stats, manifest, journal) in &outputs[1..] {
        assert_eq!(stats, stats1, "jobs={jobs}: stats drifted");
        assert_eq!(manifest, manifest1, "jobs={jobs}: manifest drifted");
        assert_eq!(journal, journal1, "jobs={jobs}: journal drifted");
    }
}

/// One observation of each of the relation's columns.
fn journal_records(truth: f64) -> Vec<JournalRecord> {
    ["v", "w"]
        .map(|column| JournalRecord::Observation {
            relation: "t".to_owned(),
            column: column.to_owned(),
            a: 100.0,
            b: 400.0,
            base: 0.3,
            truth,
        })
        .into()
}

#[test]
fn store_files_are_byte_pinned() {
    // Publish, journal, republish the same columns, journal again: every
    // file format the store writes is on disk at the end. The constants
    // pin the bytes, so a change to any encoder or to the checksum
    // function shows up here.
    let dir = scratch("golden");
    let (mut store, _) = DurableStore::open(&dir).expect("open");
    assert_eq!(store.publish(catalog(3, 1).export()).expect("publish"), 1);
    for rec in journal_records(0.35) {
        store.append(&rec).expect("append");
    }
    assert_eq!(store.publish(catalog(3, 1).export()).expect("republish"), 2);
    for rec in journal_records(0.6) {
        store.append(&rec).expect("append after republish");
    }
    let pins: [(&str, u64); 3] = [
        ("MANIFEST", 0x1e3b_2c1f_4339_1f2d),
        ("gen-000002.stats", 0xfe7f_3209_d8b9_981e),
        ("journal.log", 0x7755_d410_97ba_994c),
    ];
    for (name, want) in pins {
        let bytes = std::fs::read(dir.join(name)).expect("read store file");
        let got = fnv1a_64(&bytes);
        assert_eq!(got, want, "{name}: fnv1a_64 is {got:#018x}");
    }
}

// -------------------------------------------------------------------------
// 4. Names the format cannot hold are refused before any write
// -------------------------------------------------------------------------

/// Every file name in `dir` with its bytes, sorted by name.
fn dir_snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| {
            let e = e.expect("entry");
            let bytes = std::fs::read(e.path()).expect("read file");
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn unpersistable_names_are_refused_and_the_store_keeps_its_generation() {
    let dir = scratch("whitespace-names");
    let (mut store, _) = DurableStore::open(&dir).expect("open");
    store.publish(catalog(1, 1).export()).expect("gen 1");
    let exported = store.export_bytes();
    let before = dir_snapshot(&dir);

    for (relation_name, column_name) in [("orders 2024", "v"), ("orders", "unit\tprice"), ("", "v")]
    {
        let mut rel = Relation::new(relation_name);
        rel.add_column(Column::new(column_name, Domain::new(0.0, 1000.0), rows(3)));
        let mut cat = StatisticsCatalog::new();
        assert!(cat.try_analyze_jobs(&rel, &config(), 1).is_healthy());
        match store.publish(cat.export()) {
            Err(EstimateError::UnpersistableName { relation, column }) => {
                assert_eq!(
                    (relation.as_str(), column.as_str()),
                    (relation_name, column_name)
                );
            }
            other => panic!("expected UnpersistableName, got {other:?}"),
        }
    }

    assert_eq!(store.active_generation(), 1);
    assert_eq!(store.export_bytes(), exported);
    assert_eq!(
        dir_snapshot(&dir),
        before,
        "a refused publish wrote to the store"
    );
    let report = fsck(&dir);
    assert!(
        report.healthy,
        "fsck after refused publish: {:?}",
        report.findings
    );
    assert_eq!(report.active, Some(1));
    // The store still takes well-formed work.
    assert_eq!(store.publish(catalog(1, 1).export()).expect("publish"), 2);
    assert!(fsck(&dir).healthy);
}

// -------------------------------------------------------------------------
// 5. A store in the previous on-disk layout migrates on open
// -------------------------------------------------------------------------

/// `payload` followed by its `check` line, as the previous layout's
/// feedback file wrote each record.
fn checked(payload: &str) -> String {
    format!("{payload}\ncheck {:016x}\n", fnv1a_64(payload.as_bytes()))
}

#[test]
fn a_store_in_the_previous_layout_opens_on_its_newest_snapshot() {
    // The previous layout, written by hand: v3 snapshots (unchanged), a
    // v2 feedback file per generation holding an online-scan checkpoint,
    // a v2 MANIFEST that checksums both, and a v2 journal with one
    // observation.
    let dir = scratch("previous-layout");
    std::fs::create_dir_all(&dir).expect("create store dir");
    let gen1 = selest::store::encode_statistics(&catalog(1, 1).export());
    let gen2 = selest::store::encode_statistics(&catalog(2, 1).export());
    let feedback = format!(
        "selest-feedback v2\n{}",
        checked("online t w 0 500 700 350 1")
    );
    for (g, stats) in [(1, &gen1), (2, &gen2)] {
        std::fs::write(dir.join(format!("gen-00000{g}.stats")), stats).expect("stats");
        std::fs::write(dir.join(format!("gen-00000{g}.feedback")), &feedback).expect("feedback");
    }
    let active = format!(
        "selest-manifest v2\nactive 2 {:016x} {:016x}",
        fnv1a_64(gen2.as_bytes()),
        fnv1a_64(feedback.as_bytes())
    );
    std::fs::write(dir.join("MANIFEST"), checked(&active)).expect("manifest");
    let obs = "obs t v 100 400 0.3 0.42";
    let journal = format!(
        "selest-journal v2 gen 2\nrec {} {:016x} {obs}\n",
        obs.len(),
        fnv1a_64(obs.as_bytes())
    );
    std::fs::write(dir.join("journal.log"), journal).expect("journal");

    let (store, report) = DurableStore::open(&dir).expect("open the previous layout");
    assert_eq!(report.rung, RecoveryRung::PreviousGeneration, "{report:?}");
    assert_eq!(store.export_bytes(), (gen2.clone(), 0));
    assert_eq!(
        store.entries(),
        selest::store::decode_statistics(&gen2)
            .expect("decode")
            .as_slice()
    );
    // The old MANIFEST and journal are quarantined; the feedback files are
    // pruned as debris, and reported.
    for name in ["MANIFEST", "journal.log"] {
        assert!(report.quarantined.iter().any(|q| q == name), "{report:?}");
    }
    for name in ["gen-000001.feedback", "gen-000002.feedback"] {
        assert!(report.pruned.iter().any(|p| p == name), "{report:?}");
    }
    let feedback_left: Vec<String> = std::fs::read_dir(&dir)
        .expect("read store dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".feedback"))
        .collect();
    assert!(feedback_left.is_empty(), "{feedback_left:?}");
    let check = fsck(&dir);
    assert!(check.healthy, "{:?}", check.findings);
    // The migrated store reopens clean on the same bytes.
    let (reopened, report) = DurableStore::open(&dir).expect("reopen");
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(reopened.export_bytes(), (gen2, 0));
}
