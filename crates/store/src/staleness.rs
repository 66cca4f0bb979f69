//! Staleness policy: when does incremental statistics debt force a
//! re-snapshot and republish? (DESIGN.md §15)
//!
//! The incremental substrate lets a column absorb updates indefinitely
//! without rebuilding its estimator — which is exactly the failure mode
//! of never refreshing. This policy combines the two freshness signals
//! the store produces into one verdict:
//!
//! * **update volume** — raw pending-update count since the last
//!   snapshot, absolute or as a fraction of the live rows;
//! * **tombstone debt** — the reservoir and sketch describe the insert
//!   stream only, so deletes bias them by at most the tombstone
//!   fraction; cap it.
//!
//! [`crate::serving::ServingEngine::republish_if_stale`] evaluates the
//! policy over every incremental column and, when any column is stale,
//! refreshes it through the bulkhead and republishes an epoch snapshot.

/// One column's freshness evidence, gathered by
/// `StatisticsCatalog::staleness_signals`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessSignal {
    /// Updates absorbed since the last estimator refresh.
    pub pending_updates: u64,
    /// Live rows (inserts minus tombstoned deletes).
    pub live_rows: u64,
    /// Tombstoned deletes as a fraction of all inserts.
    pub tombstone_fraction: f64,
}

/// Why a column was judged stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StalenessReason {
    /// Tombstone debt exceeded the configured cap: the insert-only
    /// sketch/reservoir no longer resemble the live rows.
    TombstoneDebt,
    /// Pending update volume exceeded the absolute or fractional cap.
    UpdateVolume,
}

impl std::fmt::Display for StalenessReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StalenessReason::TombstoneDebt => write!(f, "tombstone-debt"),
            StalenessReason::UpdateVolume => write!(f, "update-volume"),
        }
    }
}

/// The republish decision rule. `Default` is tuned for the serving
/// benchmark's ingest rates; every field is a plain knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessPolicy {
    /// Re-snapshot after this many pending updates, regardless of size.
    pub max_updates: u64,
    /// Re-snapshot when pending updates exceed this fraction of the live
    /// rows (small relations churn faster than the absolute cap sees).
    pub max_update_fraction: f64,
    /// Never re-snapshot below this many pending updates (debounces the
    /// fractional trigger on tiny relations).
    pub min_updates: u64,
    /// Cap on the tombstone fraction before the insert-only summaries
    /// are declared unrepresentative.
    pub max_tombstone_fraction: f64,
}

impl Default for StalenessPolicy {
    fn default() -> Self {
        StalenessPolicy {
            max_updates: 10_000,
            max_update_fraction: 0.05,
            min_updates: 64,
            max_tombstone_fraction: 0.2,
        }
    }
}

impl StalenessPolicy {
    /// Judge one column. `None` means fresh enough to keep serving the
    /// current snapshot; `Some(reason)` names the first rule that fired
    /// (tombstone debt outranks volume, so reports surface the more
    /// structural problem). Tombstone debt fires only while updates are
    /// pending: a refresh resets the pending count but not the insert-only
    /// summaries' debt, and rebuilding from the same substrate again
    /// would change nothing.
    pub fn verdict(&self, s: &StalenessSignal) -> Option<StalenessReason> {
        if s.tombstone_fraction > self.max_tombstone_fraction && s.pending_updates > 0 {
            return Some(StalenessReason::TombstoneDebt);
        }
        if s.pending_updates >= self.max_updates.max(1) {
            return Some(StalenessReason::UpdateVolume);
        }
        if s.pending_updates >= self.min_updates
            && s.pending_updates as f64 > self.max_update_fraction * s.live_rows.max(1) as f64
        {
            return Some(StalenessReason::UpdateVolume);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> StalenessSignal {
        StalenessSignal {
            pending_updates: 0,
            live_rows: 100_000,
            tombstone_fraction: 0.0,
        }
    }

    #[test]
    fn fresh_columns_pass() {
        assert_eq!(StalenessPolicy::default().verdict(&fresh()), None);
    }

    #[test]
    fn absolute_update_volume_fires() {
        let p = StalenessPolicy::default();
        // 1 M live rows keeps the fractional trigger (5%) out of reach,
        // isolating the absolute cap.
        let s = StalenessSignal {
            pending_updates: 10_000,
            live_rows: 1_000_000,
            ..fresh()
        };
        assert_eq!(p.verdict(&s), Some(StalenessReason::UpdateVolume));
        let s = StalenessSignal {
            pending_updates: 9_999,
            live_rows: 1_000_000,
            ..fresh()
        };
        assert_eq!(p.verdict(&s), None);
    }

    #[test]
    fn fractional_volume_fires_on_small_relations_with_debounce() {
        let p = StalenessPolicy::default();
        // 5% of 1 000 live rows = 50 < min_updates: debounced.
        let s = StalenessSignal {
            pending_updates: 60,
            live_rows: 1_000,
            ..fresh()
        };
        assert_eq!(p.verdict(&s), None, "below the debounce floor");
        let s = StalenessSignal {
            pending_updates: 64,
            live_rows: 1_000,
            ..fresh()
        };
        assert_eq!(p.verdict(&s), Some(StalenessReason::UpdateVolume));
    }

    #[test]
    fn tombstone_debt_outranks_volume() {
        let p = StalenessPolicy::default();
        let s = StalenessSignal {
            pending_updates: 50_000,
            tombstone_fraction: 0.5,
            ..fresh()
        };
        assert_eq!(p.verdict(&s), Some(StalenessReason::TombstoneDebt));
    }

    #[test]
    fn tombstone_debt_waits_for_pending_updates() {
        let p = StalenessPolicy::default();
        let s = StalenessSignal {
            tombstone_fraction: 0.5,
            ..fresh()
        };
        assert_eq!(p.verdict(&s), None, "no pending updates: nothing to fold");
        let s = StalenessSignal {
            pending_updates: 1,
            tombstone_fraction: 0.5,
            ..fresh()
        };
        assert_eq!(p.verdict(&s), Some(StalenessReason::TombstoneDebt));
    }
}
