//! Deterministic fault injection for the chaos tests.
//!
//! Serving statistics must survive three classes of damage: poisoned
//! ANALYZE inputs (NaN/±Inf/out-of-domain values from a corrupted page or
//! a broken decoder), damaged statistics files (truncation mid-write,
//! bit rot), and misbehaving estimators (panics, non-finite outputs).
//! [`FaultInjector`] manufactures all three from a seed, so every chaos
//! run is reproducible: a failing seed is a bug report, not a flake.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selest_core::{Domain, RangeQuery, SelectivityEstimator};

/// What [`FaultInjector::corrupt_sample`] injected, by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionReport {
    /// Values replaced with NaN.
    pub nan: usize,
    /// Values replaced with +Inf.
    pub pos_inf: usize,
    /// Values replaced with -Inf.
    pub neg_inf: usize,
    /// Values moved outside the declared domain.
    pub out_of_domain: usize,
}

impl InjectionReport {
    /// Total values corrupted.
    pub fn total(&self) -> usize {
        self.nan + self.pos_inf + self.neg_inf + self.out_of_domain
    }

    /// Corrupted values that are non-finite (what `SampleAudit` calls
    /// `non_finite`).
    pub fn non_finite(&self) -> usize {
        self.nan + self.pos_inf + self.neg_inf
    }
}

/// Seeded source of reproducible damage.
pub struct FaultInjector {
    rng: StdRng,
}

impl FaultInjector {
    /// A deterministic injector: the same seed produces the same damage.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Corrupt roughly `fraction` of `sample` in place, cycling through
    /// the four damage classes, and report exactly what was injected.
    pub fn corrupt_sample(
        &mut self,
        sample: &mut [f64],
        domain: &Domain,
        fraction: f64,
    ) -> InjectionReport {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction out of [0,1]: {fraction}"
        );
        let mut report = InjectionReport::default();
        if sample.is_empty() {
            return report;
        }
        let n = ((sample.len() as f64 * fraction).round() as usize).min(sample.len());
        for k in 0..n {
            let i = self.rng.random_range(0..sample.len());
            match k % 4 {
                0 => {
                    sample[i] = f64::NAN;
                    report.nan += 1;
                }
                1 => {
                    sample[i] = f64::INFINITY;
                    report.pos_inf += 1;
                }
                2 => {
                    sample[i] = f64::NEG_INFINITY;
                    report.neg_inf += 1;
                }
                _ => {
                    // Finite but far outside the declared domain.
                    let excursion = 1.0 + self.rng.random::<f64>() * 9.0;
                    sample[i] = domain.hi() + excursion * domain.width();
                    report.out_of_domain += 1;
                }
            }
        }
        report
    }

    /// Truncate a statistics file at a random byte boundary — the shape an
    /// interrupted write leaves behind (see `persist`'s atomic-save for
    /// why readers should rarely see this).
    pub fn truncate_text(&mut self, text: &str) -> String {
        if text.is_empty() {
            return String::new();
        }
        let cut = self.rng.random_range(0..text.len());
        // Stay on a char boundary; the file format is ASCII so this is
        // normally a no-op.
        let mut cut = cut;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text[..cut].to_owned()
    }

    /// Flip one low bit of one byte — bit rot. The flip stays inside the
    /// ASCII range so the result is still a valid UTF-8 string (the
    /// decoder's job is to reject bad *content*, not bad encodings).
    pub fn bitflip_text(&mut self, text: &str) -> String {
        let mut bytes = text.as_bytes().to_vec();
        if bytes.is_empty() {
            return String::new();
        }
        let i = self.rng.random_range(0..bytes.len());
        let bit = self.rng.random_range(0..7u32);
        bytes[i] ^= 1u8 << bit;
        bytes[i] &= 0x7f;
        String::from_utf8(bytes).expect("ASCII-safe flip")
    }

    /// A seeded panicking estimator: serves correctly for a drawn number
    /// of calls in `0..max_healthy_calls`, then panics forever — the
    /// "rung dies mid-batch" damage class.
    pub fn panicking_estimator(
        &mut self,
        domain: Domain,
        max_healthy_calls: usize,
    ) -> FailingEstimator {
        let healthy = if max_healthy_calls == 0 {
            0
        } else {
            self.rng.random_range(0..max_healthy_calls)
        };
        FailingEstimator::new(domain, FailureMode::PanicAfter(healthy))
    }

    /// A seeded transiently-failing estimator: panics on its first drawn
    /// `1..=max_failures` calls, then serves correctly forever — the
    /// damage class a circuit breaker's half-open probe must detect as
    /// healed.
    pub fn transient_estimator(&mut self, domain: Domain, max_failures: usize) -> FailingEstimator {
        assert!(max_failures > 0, "a transient fault fails at least once");
        let failures = self.rng.random_range(1..=max_failures);
        FailingEstimator::new(domain, FailureMode::FailFirst(failures))
    }

    /// A seeded slow estimator: every call stalls for a drawn duration in
    /// `1..=max_delay_micros` microseconds before serving correctly — the
    /// damage class a cooperative deadline turns into partial results
    /// instead of an unbounded hang.
    pub fn slow_estimator(&mut self, domain: Domain, max_delay_micros: u64) -> FailingEstimator {
        assert!(max_delay_micros > 0, "a slow task stalls at least 1us");
        let micros = self.rng.random_range(1..=max_delay_micros);
        FailingEstimator::new(
            domain,
            FailureMode::Slow(std::time::Duration::from_micros(micros)),
        )
    }

    /// Draw `n_faults` distinct victim indices out of `n_tasks`, sorted —
    /// the plan of which tasks/chunks/columns a chaos run poisons. Drawn
    /// by rejection so the plan depends only on the seed and the
    /// arguments.
    pub fn fault_plan(&mut self, n_tasks: usize, n_faults: usize) -> Vec<usize> {
        assert!(
            n_faults <= n_tasks,
            "cannot poison {n_faults} of {n_tasks} tasks"
        );
        let mut victims = Vec::with_capacity(n_faults);
        while victims.len() < n_faults {
            let i = self.rng.random_range(0..n_tasks);
            if !victims.contains(&i) {
                victims.push(i);
            }
        }
        victims.sort_unstable();
        victims
    }
}

/// One I/O boundary in the durable store's write/commit path where a
/// simulated crash can strike. The three atomic-write sites (snapshot,
/// manifest, journal reset) each expose three boundaries —
/// a torn partial write of the temp file, a completed-but-unrenamed temp
/// file, and a renamed file whose directory entry was never synced — and
/// the append-only journal adds a mid-record tear and a pre-fsync loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Torn write of the generation snapshot's temp file.
    SnapshotPartialWrite,
    /// Snapshot temp written+synced but the rename never happened.
    SnapshotPreRename,
    /// Snapshot renamed but the directory entry never synced.
    SnapshotPostRename,
    /// Torn write of the manifest's temp file.
    ManifestPartialWrite,
    /// Manifest temp written+synced but the rename never happened.
    ManifestPreRename,
    /// Manifest renamed but the directory entry never synced.
    ManifestPostRename,
    /// Torn write of the journal-reset temp file.
    JournalResetPartialWrite,
    /// Journal-reset temp written+synced but the rename never happened.
    JournalResetPreRename,
    /// Journal reset renamed but the directory entry never synced.
    JournalResetPostRename,
    /// A journal append torn mid-record (half a record line on disk).
    JournalMidRecord,
    /// A journal append fully written but lost before its fsync.
    JournalPreSync,
}

impl CrashPoint {
    /// Every crash point, in write-path order — the sweep domain for the
    /// chaos gate (`scripts/chaos_sweep.sh --crash`).
    pub const ALL: [CrashPoint; 11] = [
        CrashPoint::SnapshotPartialWrite,
        CrashPoint::SnapshotPreRename,
        CrashPoint::SnapshotPostRename,
        CrashPoint::ManifestPartialWrite,
        CrashPoint::ManifestPreRename,
        CrashPoint::ManifestPostRename,
        CrashPoint::JournalResetPartialWrite,
        CrashPoint::JournalResetPreRename,
        CrashPoint::JournalResetPostRename,
        CrashPoint::JournalMidRecord,
        CrashPoint::JournalPreSync,
    ];
}

impl core::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A one-shot plan for *where* the next simulated crash strikes.
///
/// The durable store consults the plan at every I/O boundary; when the
/// armed point is reached the store leaves the filesystem in exactly the
/// state a real crash would (torn temp file, unrenamed temp, unsynced
/// rename) and returns a typed [`selest_core::fault::EstimateError::Io`]
/// instead of proceeding. The plan fires at most once, so recovery code
/// runs against the damaged store without being re-crashed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashPlan {
    target: Option<CrashPoint>,
    fired: bool,
}

impl CrashPlan {
    /// A plan that never fires — the production configuration.
    pub fn inert() -> Self {
        CrashPlan {
            target: None,
            fired: false,
        }
    }

    /// A plan that crashes at exactly `point`.
    pub fn at(point: CrashPoint) -> Self {
        CrashPlan {
            target: Some(point),
            fired: false,
        }
    }

    /// A seeded plan: the same seed always arms the same crash point, so
    /// a failing chaos seed is a reproducible bug report.
    pub fn seeded(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let i = rng.random_range(0..CrashPoint::ALL.len());
        CrashPlan::at(CrashPoint::ALL[i])
    }

    /// The armed crash point, if any.
    pub fn target(&self) -> Option<CrashPoint> {
        self.target
    }

    /// Whether the plan already struck.
    pub fn has_fired(&self) -> bool {
        self.fired
    }

    /// Consult the plan at an I/O boundary: `true` exactly once, when
    /// `point` is the armed target and the plan has not fired yet.
    pub fn fires_at(&mut self, point: CrashPoint) -> bool {
        if self.fired || self.target != Some(point) {
            return false;
        }
        self.fired = true;
        true
    }
}

/// How a [`FailingEstimator`] misbehaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureMode {
    /// Panic on every call.
    PanicAlways,
    /// Serve correctly for `n` calls, then panic forever.
    PanicAfter(usize),
    /// Panic on the first `n` calls, then serve correctly forever — a
    /// transient fault a circuit breaker's half-open probe recovers from.
    FailFirst(usize),
    /// Stall every call for this long before serving correctly — a slow
    /// task for exercising cooperative deadlines.
    Slow(std::time::Duration),
    /// Return this (typically non-finite or out-of-range) value always.
    Return(f64),
}

/// An estimator that fails on command — the top rung of a chaos ladder.
pub struct FailingEstimator {
    domain: Domain,
    mode: FailureMode,
    calls: std::sync::atomic::AtomicUsize,
}

impl FailingEstimator {
    /// An estimator over `domain` failing per `mode`. While healthy it
    /// serves the uniform overlap fraction (so "correct" calls are easy to
    /// assert against).
    pub fn new(domain: Domain, mode: FailureMode) -> Self {
        FailingEstimator {
            domain,
            mode,
            calls: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Calls received so far.
    pub fn calls(&self) -> usize {
        self.calls.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl SelectivityEstimator for FailingEstimator {
    fn selectivity(&self, q: &RangeQuery) -> f64 {
        let n = self
            .calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        match self.mode {
            FailureMode::PanicAlways => panic!("injected estimator failure (call {n})"),
            FailureMode::PanicAfter(healthy) if n >= healthy => {
                panic!("injected estimator failure (call {n}, after {healthy} healthy)")
            }
            FailureMode::FailFirst(failures) if n < failures => {
                panic!("injected transient failure (call {n} of the first {failures})")
            }
            FailureMode::Return(v) => v,
            FailureMode::Slow(delay) => {
                std::thread::sleep(delay);
                self.domain.overlap(q.a(), q.b()) / self.domain.width()
            }
            FailureMode::PanicAfter(_) | FailureMode::FailFirst(_) => {
                self.domain.overlap(q.a(), q.b()) / self.domain.width()
            }
        }
    }

    fn domain(&self) -> Domain {
        self.domain
    }

    fn name(&self) -> String {
        format!("Failing({:?})", self.mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_damage() {
        let d = Domain::new(0.0, 100.0);
        let base: Vec<f64> = (0..200).map(|i| i as f64 / 2.0).collect();
        let (mut a, mut b) = (base.clone(), base.clone());
        let ra = FaultInjector::new(42).corrupt_sample(&mut a, &d, 0.25);
        let rb = FaultInjector::new(42).corrupt_sample(&mut b, &d, 0.25);
        assert_eq!(ra, rb);
        // NaN != NaN, so compare bitwise.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert!(ra.total() >= 40, "25% of 200 values, got {}", ra.total());
    }

    #[test]
    fn report_matches_injected_classes() {
        let d = Domain::new(0.0, 10.0);
        let mut sample: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let report = FaultInjector::new(7).corrupt_sample(&mut sample, &d, 1.0);
        assert_eq!(report.total(), 100);
        // Cycling through 4 classes over 100 injections.
        assert_eq!(report.nan, 25);
        assert_eq!(report.pos_inf, 25);
        assert_eq!(report.neg_inf, 25);
        assert_eq!(report.out_of_domain, 25);
        let damaged = sample
            .iter()
            .filter(|v| !v.is_finite() || !d.contains(**v))
            .count();
        assert!(
            damaged > 0 && damaged <= 100,
            "injections may overwrite each other"
        );
    }

    #[test]
    fn truncation_shortens_and_bitflip_preserves_length() {
        let text = "selest-statistics v3\nstat t v kernel 10 0 1\n";
        let mut inj = FaultInjector::new(3);
        let cut = inj.truncate_text(text);
        assert!(cut.len() < text.len());
        assert!(text.starts_with(&cut));
        let flipped = inj.bitflip_text(text);
        assert_eq!(flipped.len(), text.len());
        let differing = text
            .bytes()
            .zip(flipped.bytes())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(differing, 1, "exactly one byte flips");
    }

    #[test]
    fn transient_mode_recovers_after_its_failure_budget() {
        let d = Domain::new(0.0, 10.0);
        let q = RangeQuery::new(0.0, 5.0);
        let est = FailingEstimator::new(d, FailureMode::FailFirst(2));
        for call in 0..2 {
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| est.selectivity(&q)));
            assert!(caught.is_err(), "call {call} should panic");
        }
        // Healed: every later call serves correctly.
        assert_eq!(est.selectivity(&q), 0.5);
        assert_eq!(est.selectivity(&q), 0.5);
        assert_eq!(est.calls(), 4);
    }

    #[test]
    fn slow_mode_stalls_then_serves() {
        let d = Domain::new(0.0, 10.0);
        let q = RangeQuery::new(0.0, 5.0);
        let est = FailingEstimator::new(d, FailureMode::Slow(std::time::Duration::from_millis(5)));
        let t0 = std::time::Instant::now();
        assert_eq!(est.selectivity(&q), 0.5);
        assert!(t0.elapsed() >= std::time::Duration::from_millis(5));
    }

    #[test]
    fn seeded_constructors_are_reproducible() {
        let d = Domain::new(0.0, 10.0);
        let draw = |seed: u64| {
            let mut inj = FaultInjector::new(seed);
            (
                inj.panicking_estimator(d, 5).name(),
                inj.transient_estimator(d, 3).name(),
                inj.slow_estimator(d, 50).name(),
                inj.fault_plan(10, 3),
            )
        };
        assert_eq!(draw(99), draw(99));
        let (_, transient, _, plan) = draw(99);
        assert!(transient.starts_with("Failing(FailFirst("), "{transient}");
        assert_eq!(plan.len(), 3);
        assert!(plan.windows(2).all(|w| w[0] < w[1]), "sorted+distinct");
        assert!(plan.iter().all(|&i| i < 10));
    }

    #[test]
    fn crash_plans_fire_once_at_their_armed_point() {
        let mut plan = CrashPlan::at(CrashPoint::ManifestPreRename);
        assert!(!plan.fires_at(CrashPoint::SnapshotPartialWrite));
        assert!(!plan.has_fired());
        assert!(plan.fires_at(CrashPoint::ManifestPreRename));
        assert!(plan.has_fired());
        // One-shot: recovery after the crash is not re-crashed.
        assert!(!plan.fires_at(CrashPoint::ManifestPreRename));
        let mut inert = CrashPlan::inert();
        for p in CrashPoint::ALL {
            assert!(!inert.fires_at(p));
        }
    }

    #[test]
    fn seeded_crash_plans_are_reproducible_and_cover_all_points() {
        assert_eq!(CrashPlan::seeded(17), CrashPlan::seeded(17));
        let mut hit = std::collections::HashSet::new();
        for seed in 0..200u64 {
            if let Some(t) = CrashPlan::seeded(seed).target() {
                hit.insert(format!("{t}"));
            }
        }
        assert_eq!(
            hit.len(),
            CrashPoint::ALL.len(),
            "200 seeds should cover every crash point"
        );
    }

    #[test]
    fn failing_estimator_modes() {
        let d = Domain::new(0.0, 10.0);
        let q = RangeQuery::new(0.0, 5.0);
        let healthy = FailingEstimator::new(d, FailureMode::PanicAfter(2));
        assert_eq!(healthy.selectivity(&q), 0.5);
        assert_eq!(healthy.selectivity(&q), 0.5);
        assert_eq!(healthy.calls(), 2);
        let nan = FailingEstimator::new(d, FailureMode::Return(f64::NAN));
        assert!(nan.selectivity(&q).is_nan());
        let boom = FailingEstimator::new(d, FailureMode::PanicAlways);
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| boom.selectivity(&q)));
        assert!(caught.is_err());
    }
}
