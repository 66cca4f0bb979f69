//! Overload control for the serving engine: adaptive shedding, circuit
//! breakers, and a brownout tier.
//!
//! The paper's cost ranking (kernels are orders of magnitude more
//! expensive than sampling or an equi-depth histogram, yet only somewhat
//! more accurate) is exactly the economics of graceful degradation: when
//! latency threatens the SLO there is a *middle ground* between a
//! full-precision answer and a refusal — answer from a cheaper rung. This
//! module holds the control-theory half of that story; the routing half
//! lives in [`crate::serving`].
//!
//! Three cooperating mechanisms, all engineered to be **deterministic for
//! a fixed seed** so overload behaviour can be asserted in tests. They
//! are crate-private; [`OverloadOptions`] configures them and
//! [`crate::serving::ServingHealthReport`] reports them.
//!
//! * `ShedController` — one per shard. Tracks a latency EWMA against the
//!   configured SLO; *pressure* is their ratio. Above pressure 1 it sheds
//!   probabilistically (probability ramping with both pressure and queue
//!   occupancy), using a counted [`splitmix64`] stream instead of a
//!   thread-local RNG, and prices the `retry_after_us` hint stamped into
//!   [`selest_core::EstimateError::Overloaded`] from the same EWMA.
//! * `ColumnBreaker` — one per serving column. Consecutive
//!   failures/timeouts trip it open: the failing estimator stops being
//!   called and the column serves its ladder floor. After a cooldown
//!   measured in *calls* (wall clocks are nondeterministic) the breaker
//!   half-opens and probes; a probe success closes it, a failure re-opens
//!   it with doubled, seed-jittered backoff.
//! * `TierController` — engine level. Folds the worst shard pressure
//!   into a [`LoadTier`] (`Normal` or `Brownout`) with one hysteresis
//!   band (enter at pressure 1.0, leave at 0.7) so the tier doesn't flap
//!   at a threshold.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Fixed-point step of the splitmix64 sequence: a statistically solid
/// 64-bit mixer whose output is a pure function of its input, which is
/// what makes every probabilistic decision in this module replayable.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Engine-level load tier, derived from the worst shard pressure with one
/// hysteresis band: pressure ≥ 1.0 enters `Brownout`, and only pressure
/// ≤ 0.7 returns to `Normal`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadTier {
    /// Pressure under control: serve full precision.
    Normal,
    /// SLO at risk: cache hits still serve full precision, misses serve a
    /// cheaper pre-built rung (equi-depth/sampling) instead of the
    /// preferred estimator.
    Brownout,
}

impl std::fmt::Display for LoadTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadTier::Normal => write!(f, "normal"),
            LoadTier::Brownout => write!(f, "brownout"),
        }
    }
}

/// EWMA smoothing factor of the shard latency (higher reacts faster).
const EWMA_ALPHA: f64 = 0.2;
/// Pressure at which `Normal` escalates to `Brownout`.
const BROWNOUT_ENTER: f64 = 1.0;
/// Pressure at or below which `Brownout` relaxes to `Normal`; the gap to
/// [`BROWNOUT_ENTER`] is the hysteresis band.
const BROWNOUT_EXIT: f64 = 0.7;

/// Tunables of the overload subsystem. The default SLO is infinite —
/// pressure stays 0, so adaptive shedding and brownout never engage and
/// the engine behaves exactly like its pre-overload self (breakers still
/// arm: they count failures, not latency). Serving deployments set
/// `slo_us` from their latency budget to arm the pressure machinery.
#[derive(Debug, Clone, Copy)]
pub struct OverloadOptions {
    /// Per-request latency SLO in microseconds; pressure = EWMA / SLO.
    /// `f64::INFINITY` (the default) disarms shedding and brownout.
    pub slo_us: f64,
    /// Seed of every probabilistic decision (shed draws, breaker jitter).
    pub seed: u64,
    /// Whether brownout routing is enabled; `false` keeps every cache
    /// miss on the primary (or the floor) whatever the load tier.
    pub brownout: bool,
    /// Consecutive failures that trip a column breaker open.
    pub breaker_threshold: u32,
    /// Base breaker cooldown, in calls routed to the column (doubles per
    /// consecutive trip, with seeded jitter).
    pub breaker_cooldown_calls: u64,
    /// Feed measured wall-clock request latencies into the shard EWMAs.
    /// `true` for real serving; with `false` no wall-clock latency moves
    /// pressure, so shedding and the tier depend only on the latencies
    /// the engine's own tests inject.
    pub auto_observe: bool,
}

impl Default for OverloadOptions {
    fn default() -> Self {
        OverloadOptions {
            slo_us: f64::INFINITY,
            seed: 0x0005_E1E5_70AD,
            brownout: true,
            breaker_threshold: 5,
            breaker_cooldown_calls: 64,
            auto_observe: true,
        }
    }
}

/// Per-shard adaptive shedding: latency EWMA vs. SLO, deterministic
/// probabilistic refusal, and the `retry_after_us` price of a refusal.
#[derive(Debug)]
pub(crate) struct ShedController {
    slo_us: f64,
    seed: u64,
    /// `f64::to_bits` of the EWMA; `0` doubles as "no history yet".
    ewma_bits: AtomicU64,
    /// Monotone draw counter: draw `i` is `splitmix64(seed + i)`.
    draws: AtomicU64,
    /// Requests shed by this controller (observability).
    shed: AtomicU64,
}

impl ShedController {
    /// A controller with no latency history (pressure 0, never sheds).
    pub(crate) fn new(slo_us: f64, seed: u64) -> Self {
        assert!(slo_us > 0.0, "SLO must be positive");
        ShedController {
            slo_us,
            seed,
            ewma_bits: AtomicU64::new(0),
            draws: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Fold one observed request latency into the EWMA.
    pub(crate) fn observe(&self, latency_us: f64) {
        if !latency_us.is_finite() || latency_us < 0.0 {
            return;
        }
        // Coarse clocks can report exactly 0; nudge off the "no history"
        // sentinel so an idle-fast shard still reads as healthy history.
        let latency_us = latency_us.max(0.01);
        let mut cur = self.ewma_bits.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(cur);
            let next = if cur == 0 {
                latency_us
            } else {
                EWMA_ALPHA * latency_us + (1.0 - EWMA_ALPHA) * old
            };
            match self.ewma_bits.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The smoothed latency in microseconds (`0` before any observation).
    pub(crate) fn ewma_us(&self) -> f64 {
        f64::from_bits(self.ewma_bits.load(Ordering::Relaxed))
    }

    /// SLO pressure: smoothed latency over the SLO. `1.0` means requests
    /// take exactly their budget; above that the SLO is being missed.
    pub(crate) fn pressure(&self) -> f64 {
        self.ewma_us() / self.slo_us
    }

    /// Decide whether to shed an arriving request given the shard's queue
    /// occupancy (`in_flight / limit`). Never sheds at pressure ≤ 1; above
    /// it, the shed probability is `(pressure - 1) × occupancy`, capped at
    /// 1 — an empty queue under high EWMA admits (the queue, not the
    /// history, is what the arrival would wait behind), a full queue under
    /// missed SLO sheds almost surely. The randomness is a counted
    /// splitmix64 stream: same seed, same arrival order, same decisions.
    pub(crate) fn should_shed(&self, in_flight: usize, limit: usize) -> bool {
        let pressure = self.pressure();
        if pressure <= 1.0 {
            return false;
        }
        let occupancy = in_flight as f64 / limit.max(1) as f64;
        let p = ((pressure - 1.0) * occupancy).min(1.0);
        if p <= 0.0 {
            return false;
        }
        let i = self.draws.fetch_add(1, Ordering::Relaxed);
        let draw = splitmix64(self.seed.wrapping_add(i)) as f64 / u64::MAX as f64;
        let shed = draw < p;
        if shed {
            self.shed.fetch_add(1, Ordering::Relaxed);
        }
        shed
    }

    /// The `retry_after_us` hint for a refusal: the queue's estimated
    /// drain time (EWMA × depth), clamped to a sane band. `0` when the
    /// shard has no latency history yet.
    pub(crate) fn retry_after_us(&self, in_flight: usize) -> u64 {
        let ewma = self.ewma_us();
        if ewma == 0.0 {
            return 0;
        }
        (ewma * (in_flight.max(1) as f64)).clamp(50.0, 5_000_000.0) as u64
    }

    /// Requests this controller has shed.
    pub(crate) fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

/// Where a breaker routes an arriving call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerRoute {
    /// Breaker closed: call the column's primary estimator.
    Primary,
    /// Breaker half-open: call the primary as a probe — its outcome
    /// decides whether the breaker closes or re-opens.
    Probe,
    /// Breaker open: do not touch the primary; serve the ladder floor.
    Floor,
}

/// Breaker state as reported in health snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: primary serves.
    Closed,
    /// Tripped: floor serves until the cooldown elapses.
    Open,
    /// Cooldown elapsed: probing the primary.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

const BREAKER_CLOSED: u8 = 0;
const BREAKER_OPEN: u8 = 1;
const BREAKER_HALF_OPEN: u8 = 2;

/// A per-column circuit breaker. Cooldowns are measured in **calls routed
/// to the column**, not wall time, so trip → half-open → close/re-open
/// sequences replay identically under any scheduler; the backoff doubles
/// per consecutive trip (capped) with seed-derived jitter so sibling
/// breakers tripped together don't all probe on the same call.
#[derive(Debug)]
pub(crate) struct ColumnBreaker {
    threshold: u32,
    cooldown_calls: u64,
    seed: u64,
    state: AtomicU8,
    consecutive: AtomicU32,
    /// Cumulative trips (observability; never reset).
    trips: AtomicU32,
    /// Consecutive trips since the last close (drives backoff doubling).
    streak: AtomicU32,
    calls: AtomicU64,
    reopen_at: AtomicU64,
}

impl ColumnBreaker {
    /// A closed breaker.
    pub(crate) fn new(threshold: u32, cooldown_calls: u64, seed: u64) -> Self {
        assert!(threshold > 0, "breaker threshold must be positive");
        assert!(cooldown_calls > 0, "breaker cooldown must be positive");
        ColumnBreaker {
            threshold,
            cooldown_calls,
            seed,
            state: AtomicU8::new(BREAKER_CLOSED),
            consecutive: AtomicU32::new(0),
            trips: AtomicU32::new(0),
            streak: AtomicU32::new(0),
            calls: AtomicU64::new(0),
            reopen_at: AtomicU64::new(0),
        }
    }

    /// Route one arriving call; counts it toward the cooldown clock.
    pub(crate) fn route(&self) -> BreakerRoute {
        let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        match self.state.load(Ordering::Relaxed) {
            BREAKER_CLOSED => BreakerRoute::Primary,
            BREAKER_OPEN => {
                if call >= self.reopen_at.load(Ordering::Relaxed) {
                    self.state.store(BREAKER_HALF_OPEN, Ordering::Relaxed);
                    BreakerRoute::Probe
                } else {
                    BreakerRoute::Floor
                }
            }
            _ => BreakerRoute::Probe,
        }
    }

    /// Record a successful primary (or probe) outcome. A probe success
    /// closes the breaker and resets the backoff streak.
    pub(crate) fn on_success(&self) {
        self.consecutive.store(0, Ordering::Relaxed);
        if self.state.load(Ordering::Relaxed) == BREAKER_HALF_OPEN {
            self.streak.store(0, Ordering::Relaxed);
            self.state.store(BREAKER_CLOSED, Ordering::Relaxed);
        }
    }

    /// Record a failed primary outcome (panic, non-finite estimate, or
    /// deadline timeout attributed to the estimator). A probe failure
    /// re-opens immediately; in the closed state, `threshold` consecutive
    /// failures trip the breaker.
    pub(crate) fn on_failure(&self) {
        match self.state.load(Ordering::Relaxed) {
            BREAKER_HALF_OPEN => self.trip(),
            BREAKER_CLOSED => {
                let c = self.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
                if c >= self.threshold {
                    self.trip();
                }
            }
            _ => {}
        }
    }

    fn trip(&self) {
        self.trips.fetch_add(1, Ordering::Relaxed);
        let streak = self.streak.fetch_add(1, Ordering::Relaxed) + 1;
        let backoff = self.cooldown_calls << (streak - 1).min(6);
        let jitter = splitmix64(self.seed ^ u64::from(streak)) % (self.cooldown_calls / 4).max(1);
        self.reopen_at.store(
            self.calls.load(Ordering::Relaxed) + backoff + jitter,
            Ordering::Relaxed,
        );
        self.consecutive.store(0, Ordering::Relaxed);
        self.state.store(BREAKER_OPEN, Ordering::Relaxed);
    }

    /// Current state.
    pub(crate) fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Relaxed) {
            BREAKER_CLOSED => BreakerState::Closed,
            BREAKER_OPEN => BreakerState::Open,
            _ => BreakerState::HalfOpen,
        }
    }

    /// Cumulative trips.
    pub(crate) fn trips(&self) -> u32 {
        self.trips.load(Ordering::Relaxed)
    }
}

/// Engine-level tier state machine with one hysteresis band: pressure
/// at or above [`BROWNOUT_ENTER`] enters [`LoadTier::Brownout`], and only
/// pressure at or below [`BROWNOUT_EXIT`] leaves it, so pressure noise at
/// a threshold can't flap the tier.
#[derive(Debug, Default)]
pub(crate) struct TierController {
    brownout: AtomicBool,
}

impl TierController {
    /// Fold the current worst-shard pressure into the tier.
    pub(crate) fn update(&self, pressure: f64) -> LoadTier {
        let brownout = if pressure >= BROWNOUT_ENTER {
            true
        } else if pressure <= BROWNOUT_EXIT {
            false
        } else {
            self.brownout.load(Ordering::Relaxed)
        };
        self.brownout.store(brownout, Ordering::Relaxed);
        self.tier()
    }

    /// Current tier.
    pub(crate) fn tier(&self) -> LoadTier {
        if self.brownout.load(Ordering::Relaxed) {
            LoadTier::Brownout
        } else {
            LoadTier::Normal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_a_pure_well_mixed_function() {
        // Reference values of the standard splitmix64 sequence from 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        // Composition stays well-defined (pure function of the input).
        assert_eq!(splitmix64(splitmix64(0)), 0xA706_DD2F_4D19_7E6F);
        // Low bits of consecutive inputs don't correlate.
        let ones: u32 = (0..64).map(|i| (splitmix64(i) & 1) as u32).sum();
        assert!((20..=44).contains(&ones), "biased low bit: {ones}/64");
    }

    #[test]
    fn shed_controller_never_sheds_without_pressure() {
        let c = ShedController::new(1_000.0, 7);
        // No history: pressure 0.
        assert!(!c.should_shed(100, 100));
        assert_eq!(c.retry_after_us(10), 0);
        // Healthy history at half the SLO: still never sheds.
        for _ in 0..50 {
            c.observe(500.0);
        }
        assert!(c.pressure() > 0.4 && c.pressure() < 0.6);
        assert!((0..1000).all(|_| !c.should_shed(100, 100)));
        assert_eq!(c.shed_count(), 0);
    }

    #[test]
    fn shed_controller_sheds_deterministically_under_pressure() {
        let mk = || {
            let c = ShedController::new(1_000.0, 42);
            for _ in 0..50 {
                c.observe(2_500.0); // pressure ~2.5
            }
            c
        };
        let (a, b) = (mk(), mk());
        assert!(a.pressure() > 2.0);
        let da: Vec<bool> = (0..200).map(|_| a.should_shed(80, 100)).collect();
        let db: Vec<bool> = (0..200).map(|_| b.should_shed(80, 100)).collect();
        assert_eq!(da, db, "same seed, same arrival order, same decisions");
        let shed = da.iter().filter(|&&s| s).count();
        // p = (2.5 - 1) * 0.8 capped at 1 -> sheds essentially always.
        assert!(shed > 150, "expected heavy shedding, got {shed}/200");
        // An empty queue admits even under the same pressure.
        assert!(!a.should_shed(0, 100));
        // The refusal is priced from the EWMA.
        let hint = a.retry_after_us(4);
        assert!((4 * 2_000..=4 * 3_000).contains(&hint), "hint {hint}");
    }

    #[test]
    fn breaker_trips_half_opens_and_closes_deterministically() {
        let b = ColumnBreaker::new(3, 8, 99);
        assert_eq!(b.state(), BreakerState::Closed);
        // Two failures + success: consecutive counter resets.
        b.route();
        b.on_failure();
        b.route();
        b.on_failure();
        b.route();
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        // Three consecutive failures trip it.
        for _ in 0..3 {
            b.route();
            b.on_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        // Open: calls route to the floor until the cooldown elapses...
        let mut floored = 0;
        loop {
            match b.route() {
                BreakerRoute::Floor => floored += 1,
                BreakerRoute::Probe => break,
                BreakerRoute::Primary => panic!("open breaker never serves primary"),
            }
            assert!(floored < 100, "cooldown never elapsed");
        }
        // ...base cooldown 8 calls plus jitter in [0, 2).
        assert!((7..=9).contains(&floored), "floored {floored}");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe failure re-opens with doubled backoff.
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        let mut floored2 = 0;
        loop {
            match b.route() {
                BreakerRoute::Floor => floored2 += 1,
                BreakerRoute::Probe => break,
                BreakerRoute::Primary => panic!("open breaker never serves primary"),
            }
            assert!(floored2 < 100, "second cooldown never elapsed");
        }
        assert!(
            floored2 > floored,
            "backoff must grow: {floored2} vs {floored}"
        );
        // Probe success closes and resets the streak.
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.route(), BreakerRoute::Primary);

        // The whole dance replays identically for the same seed.
        let replay = ColumnBreaker::new(3, 8, 99);
        replay.route();
        replay.on_failure();
        replay.route();
        replay.on_failure();
        replay.route();
        replay.on_success();
        for _ in 0..3 {
            replay.route();
            replay.on_failure();
        }
        let mut refloored = 0;
        while replay.route() == BreakerRoute::Floor {
            refloored += 1;
        }
        assert_eq!(refloored, floored);
    }

    #[test]
    fn tier_controller_has_hysteresis() {
        let t = TierController::default();
        assert_eq!(t.tier(), LoadTier::Normal);
        assert_eq!(t.update(0.5), LoadTier::Normal);
        assert_eq!(t.update(1.1), LoadTier::Brownout);
        // Dropping just below the enter threshold does NOT relax...
        assert_eq!(t.update(0.9), LoadTier::Brownout);
        // ...only crossing the exit threshold does.
        assert_eq!(t.update(0.7), LoadTier::Normal);
        // A pressure spike is still brownout; it relaxes at the exit.
        assert_eq!(t.update(3.0), LoadTier::Brownout);
        assert_eq!(t.update(1.3), LoadTier::Brownout);
        assert_eq!(t.update(0.2), LoadTier::Normal);
    }

    /// The three-state tier machine the two-state one replaced, with its
    /// default thresholds (brownout enter 1.0 / exit 0.7, shed enter 2.0 /
    /// exit 1.4): 0 = normal, 1 = brownout, 2 = shed.
    fn three_state_update(tier: u8, pressure: f64) -> u8 {
        match tier {
            0 if pressure >= 2.0 => 2,
            0 if pressure >= 1.0 => 1,
            0 => 0,
            1 if pressure >= 2.0 => 2,
            1 if pressure <= 0.7 => 0,
            1 => 1,
            _ if pressure <= 0.7 => 0,
            _ if pressure <= 1.4 => 1,
            _ => 2,
        }
    }

    #[test]
    fn two_state_tier_routes_like_the_three_state_machine() {
        // Routing reads only `tier != Normal`, so the two machines must
        // agree on that after every update. A third of the draws sit on
        // the 0.1 grid, so every threshold is hit exactly; one step in
        // 64 is NaN, which neither machine may leave its state on.
        let t = TierController::default();
        let mut reference = 0u8;
        let mut visited = [0usize; 3];
        for i in 0..20_000u64 {
            let draw = splitmix64(0x71E2 ^ i);
            let pressure = match draw % 64 {
                0 => f64::NAN,
                1..=21 => (draw >> 8) as f64 % 31.0 / 10.0,
                _ => 3.0 * ((draw >> 11) as f64 / (1u64 << 53) as f64),
            };
            reference = three_state_update(reference, pressure);
            visited[usize::from(reference)] += 1;
            let tier = t.update(pressure);
            assert_eq!(tier, t.tier());
            assert_eq!(
                tier != LoadTier::Normal,
                reference != 0,
                "step {i}: pressure {pressure}"
            );
        }
        assert!(visited.iter().all(|&n| n > 1_000), "{visited:?}");
    }
}
