//! Property battery for the incremental statistics substrate
//! (DESIGN.md §15): a GK summary of a random stream with heavy duplicates
//! stays within the conservative `2·ε·n` rank cap, and zero-update
//! snapshots are bit-identical to a from-scratch prepare.

use std::sync::Arc;

use proptest::prelude::*;
use selest_core::incremental::IncrementalColumn;
use selest_core::{Domain, PreparedColumn};
use selest_data::GkSketch;

const EPS: f64 = 0.05;
const PROBES: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 0.9];

fn values(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            (0u32..=1_024_000).prop_map(|v| v as f64 / 1_000.0),
            Just(512.0), // heavy duplicate
        ],
        1..max_len,
    )
}

fn sketch_over(vs: &[f64]) -> GkSketch {
    let mut s = GkSketch::new(EPS);
    for &v in vs {
        s.insert(v);
    }
    s
}

/// Max distance from `target` rank to the true rank interval of `value`
/// in the sorted union (duplicates make the true rank an interval).
fn rank_error(sorted: &[f64], value: f64, target: u64) -> u64 {
    let lt = sorted.partition_point(|&v| v < value) as u64;
    let le = sorted.partition_point(|&v| v <= value) as u64;
    if target < lt + 1 {
        lt + 1 - target
    } else {
        target.saturating_sub(le)
    }
}

/// Every probed quantile of `s` must sit within the conservative
/// bound `ceil(2·ε·n)` of its target rank, and the summary's own
/// realized bound must respect the same cap.
fn assert_within_two_epsilon(s: &GkSketch, sorted: &[f64], label: &str) {
    let n = s.len();
    assert_eq!(n as usize, sorted.len(), "{label}: lost values");
    let cap = (2.0 * EPS * n as f64).ceil().max(1.0) as u64;
    assert!(
        s.rank_error_bound() <= cap,
        "{label}: realized bound {} > 2en {cap}",
        s.rank_error_bound(),
    );
    for &q in &PROBES {
        let (v, _) = s.quantile_with_bound(q);
        let target = (q * n as f64).ceil().max(1.0) as u64;
        let err = rank_error(sorted, v, target);
        assert!(
            err <= cap,
            "{label}: quantile {q} off by {err} ranks (cap {cap})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A summary of any stream, duplicates included, answers rank queries
    /// within the conservative `2·ε·n` cap, and its realized bound
    /// respects the same cap.
    #[test]
    fn gk_summary_satisfies_the_two_epsilon_bound(vs in values(900)) {
        let mut sorted = vs.clone();
        sorted.sort_by(f64::total_cmp);
        assert_within_two_epsilon(&sketch_over(&vs), &sorted, "sequential");
    }

    /// With zero updates absorbed, `snapshot()` returns the previous
    /// `Arc` untouched, and its contents are bit-identical to a
    /// from-scratch prepare of the maintained sample — before and after
    /// an intervening update/rebuild cycle.
    #[test]
    fn zero_update_snapshots_are_bit_identical(
        vs in values(400),
        capacity in 1usize..64,
        seed in 0u64..u64::MAX,
    ) {
        let domain = Domain::new(0.0, 1_025.0);
        let mut col = IncrementalColumn::from_values(&vs, domain, capacity, seed)
            .expect("finite nonempty stream");
        for round in 0..2 {
            let a = col.snapshot();
            let b = col.snapshot();
            prop_assert!(Arc::ptr_eq(&a, &b), "round {}: clean snapshot rebuilt", round);
            let fresh = PreparedColumn::prepare(&col.reservoir().sample(), domain);
            prop_assert_eq!(a.len(), fresh.len());
            prop_assert!(
                a.sorted().iter().zip(fresh.sorted()).all(|(x, y)| x.to_bits() == y.to_bits()),
                "round {}: sorted views differ",
                round
            );
            prop_assert!(
                a.values().iter().zip(fresh.values()).all(|(x, y)| x.to_bits() == y.to_bits()),
                "round {}: draw-order views differ",
                round
            );
            // Dirty the column; the next round re-checks the contract
            // after a real rebuild.
            col.insert(512.0).expect("finite insert");
        }
    }
}
