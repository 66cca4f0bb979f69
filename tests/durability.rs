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
//!    of a feedback file or the journal keeps the intact statistics;
//! 3. snapshot → journal appends → compact exports byte-identically for
//!    any worker count and equals a direct fault-free build.
//!
//! Seeds come from `SELEST_CRASH_SEED` (default `0xC4A5`), so a failing
//! seed is a repro command (`scripts/chaos_sweep.sh --crash` sweeps
//! them and prints exactly that command).

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selest::par::{fnv1a_64, TryConfig};
use selest::store::{
    fsck, AnalyzeConfig, Column, CrashPlan, CrashPoint, DurableStore, EstimatorKind, JournalRecord,
    Relation, RetentionPolicy, StatisticsCatalog,
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

fn checkpoint(seen: usize) -> JournalRecord {
    JournalRecord::OnlineCheckpoint {
        relation: "t".to_owned(),
        column: "w".to_owned(),
        a: 0.0,
        b: 500.0,
        seen,
        matched: seen / 2,
        skipped_nonfinite: 1,
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
    twin.append(&checkpoint(1000)).expect("twin checkpoint");
    let pre = twin.export_bytes();
    if journal_point(point) {
        twin.append(&checkpoint(1500)).expect("twin checkpoint 2");
    } else {
        twin.publish(catalog(2, 1).export()).expect("twin gen 2");
    }
    let post = twin.export_bytes();

    // Victim: same history, then a crash at `point`.
    let dir = scratch(tag);
    let (mut store, _) = DurableStore::open(&dir).expect("open");
    store.publish(catalog(1, 1).export()).expect("gen 1");
    store.append(&observation(0.42)).expect("obs");
    store.append(&checkpoint(1000)).expect("checkpoint");
    store.set_crash_plan(CrashPlan::at(point));
    let crashed = if journal_point(point) {
        store.append(&checkpoint(1500)).expect_err("must crash")
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
/// active, with an observation, an online checkpoint and a sketch
/// checkpoint in its journal, and generation 1 is the recovery rung below
/// it.
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
    for rec in [observation(0.3), checkpoint(700), sketch_record(2)] {
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
    // A damaged feedback file or journal: the statistics are intact, so
    // whatever recovery does with the learned feedback, it keeps serving
    // generation 2's bytes.
    for name in ["gen-000002.feedback", "journal.log"] {
        let bytes = std::fs::read(pristine.join(name)).expect("read pristine file");
        for case in 0..24u32 {
            let dir = scratch(&format!("property-{name}-{case}"));
            copy_dir(&pristine, &dir);
            std::fs::write(dir.join(name), damage(&mut rng, &bytes, case)).expect("damage");
            let (recovered, report) = DurableStore::open(&dir).expect("recovery must succeed");
            assert_eq!(
                recovered.export_bytes().0,
                gen2,
                "{name} case {case}: statistics drifted (rung {:?})",
                report.rung
            );
            let check = fsck(&dir);
            assert!(check.healthy, "{name} case {case}: {:?}", check.findings);
        }
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
        store.append(&sketch_record(3)).expect("sketch");
        store.append(&checkpoint(4321)).expect("checkpoint");
        store.compact().expect("compact");
        let (stats, feedback) = store.export_bytes();
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
        outputs.push((jobs, stats, feedback, manifest, journal));
    }
    let (_, stats1, feedback1, manifest1, journal1) = &outputs[0];
    for (jobs, stats, feedback, manifest, journal) in &outputs[1..] {
        assert_eq!(stats, stats1, "jobs={jobs}: stats drifted");
        assert_eq!(feedback, feedback1, "jobs={jobs}: feedback drifted");
        assert_eq!(manifest, manifest1, "jobs={jobs}: manifest drifted");
        assert_eq!(journal, journal1, "jobs={jobs}: journal drifted");
    }
}

/// A sketch checkpoint of column `t.v` of `variant`'s relation.
fn sketch_record(variant: u64) -> JournalRecord {
    let mut cat = StatisticsCatalog::new();
    assert!(cat
        .try_analyze_incremental(&relation(variant), &config(), &TryConfig::jobs(1))
        .is_healthy());
    let cp = cat
        .incremental_checkpoints()
        .into_iter()
        .find(|cp| cp.column == "v")
        .expect("t.v checkpoint");
    JournalRecord::Sketch(cp)
}

/// One of each journal record kind, against `variant`'s columns.
fn every_record_kind(variant: u64, truth: f64, seen: usize) -> Vec<JournalRecord> {
    vec![observation(truth), checkpoint(seen), sketch_record(variant)]
}

#[test]
fn store_files_are_byte_pinned() {
    // Publish, journal every record kind, compact (folding them into the
    // feedback file), journal again: every file format the store writes
    // is on disk at the end. The constants pin the bytes, so a change to
    // any encoder or to the checksum function shows up here.
    let dir = scratch("golden");
    let (mut store, _) = DurableStore::open(&dir).expect("open");
    assert_eq!(store.publish(catalog(3, 1).export()).expect("publish"), 1);
    for rec in every_record_kind(3, 0.35, 1234) {
        store.append(&rec).expect("append");
    }
    assert_eq!(store.compact().expect("compact"), 2);
    for rec in every_record_kind(3, 0.6, 2500) {
        store.append(&rec).expect("append after compact");
    }
    let pins: [(&str, u64); 4] = [
        ("MANIFEST", 0xb1d1_f0a1_19b7_0e51),
        ("gen-000002.stats", 0xfe7f_3209_d8b9_981e),
        ("gen-000002.feedback", 0xe945_1375_9e0f_a045),
        ("journal.log", 0xbaec_e5cf_decf_1cc6),
    ];
    for (name, want) in pins {
        let bytes = std::fs::read(dir.join(name)).expect("read store file");
        let got = fnv1a_64(&bytes);
        assert_eq!(got, want, "{name}: fnv1a_64 is {got:#018x}");
    }
}

// -------------------------------------------------------------------------
// 4. End to end: crash mid-append, resume the online scan after reopen
// -------------------------------------------------------------------------

#[test]
fn online_scan_resumes_from_the_last_durable_checkpoint() {
    let dir = scratch("resume");
    let (mut store, _) = DurableStore::open(&dir).expect("open");
    store.publish(catalog(1, 1).export()).expect("publish");
    store.append(&checkpoint(2000)).expect("checkpoint");
    // Crash while checkpointing further progress.
    store.set_crash_plan(CrashPlan::at(CrashPoint::JournalMidRecord));
    store.append(&checkpoint(5000)).expect_err("crash");
    drop(store);
    let (reopened, report) = DurableStore::open(&dir).expect("reopen");
    assert!(report.journal_truncated, "torn record must be dropped");
    let cp = reopened
        .feedback()
        .online("t", "w")
        .expect("durable checkpoint survives");
    let scan = cp.resume().expect("resume");
    assert_eq!(scan.seen(), 2000, "resumes from the last durable point");
    assert_eq!(scan.matched(), 1000);
    // The serving catalog rebuilds from the recovered entries.
    let (catalog, failures) = reopened.load_catalog();
    assert!(failures.is_empty());
    assert!(catalog.statistics("t", "v").is_some());
    assert!(catalog.statistics("t", "w").is_some());
}

// -------------------------------------------------------------------------
// 5. Names the format cannot hold are refused before any write
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
    let (stats, feedback) = store.export_bytes();
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
    assert_eq!(store.export_bytes(), (stats, feedback));
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
    assert_eq!(store.compact().expect("compact"), 2);
    assert!(fsck(&dir).healthy);
}
