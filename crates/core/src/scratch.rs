//! Reusable scratch storage for allocation-free batch estimation.
//!
//! The batch serving path ([`crate::traits::SelectivityEstimator::
//! selectivity_batch_into`]) needs working buffers whose *shape* depends on
//! the estimator (the kernel merge scan keeps plans, packed cut keys, and
//! resolved indices; a histogram needs nothing). [`BatchScratch`] is the
//! caller-owned bag those buffers live in: the caller allocates it once,
//! threads it through every batch call, and after the first call on a given
//! estimator type the buffers are warm — subsequent calls perform **zero
//! heap allocations** (a counting-allocator test in the workspace pins
//! this).
//!
//! The bag is type-erased (`Box<dyn Any>`): each estimator downcasts to its
//! own private scratch type via [`BatchScratch::get_or_default`]. Handing
//! the same scratch to a *different* estimator type simply re-initializes
//! the slot — correctness never depends on what was in it, only speed.

use std::any::Any;

use selest_par::Deadline;

/// Caller-owned, estimator-typed scratch space for the `_into` batch APIs.
///
/// Create one per serving thread (or per harness worker), reuse it across
/// calls. `Default`/`new` make an empty bag; no
/// allocation happens until an estimator first asks for its buffers.
///
/// Besides the typed buffers, the bag carries the request's optional
/// [`Deadline`]: the serving engine sets it before a fallible batch call
/// and clears it after, so deadline-aware estimators (the kernel merge
/// scan) can cancel cooperatively without the trait surface changing. Estimators that never look at it are
/// unaffected.
#[derive(Default)]
pub struct BatchScratch {
    slot: Option<Box<dyn Any + Send>>,
    deadline: Option<Deadline>,
}

impl BatchScratch {
    /// An empty scratch bag. Allocation-free until first use.
    pub const fn new() -> Self {
        BatchScratch {
            slot: None,
            deadline: None,
        }
    }

    /// Arm the request deadline for the next batch call. The caller is
    /// responsible for clearing it afterwards ([`Self::clear_deadline`]);
    /// a stale deadline would cut the *next* request's batch short.
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = Some(deadline);
    }

    /// Disarm the request deadline.
    pub fn clear_deadline(&mut self) {
        self.deadline = None;
    }

    /// The armed request deadline, if any. Deadline-aware estimators read
    /// (and clone — it is an `Arc`-backed flag) this at the start of a
    /// batch call.
    pub fn deadline(&self) -> Option<&Deadline> {
        self.deadline.as_ref()
    }

    /// The scratch buffers of type `T`, creating them (once) if the bag is
    /// empty or currently holds a different estimator's type.
    pub fn get_or_default<T: Default + Send + 'static>(&mut self) -> &mut T {
        let matches = self
            .slot
            .as_ref()
            .is_some_and(|slot| slot.as_ref().is::<T>());
        if !matches {
            self.slot = Some(Box::<T>::default());
        }
        self.slot
            .as_mut()
            .expect("slot filled above")
            .downcast_mut::<T>()
            .expect("slot type checked above")
    }

    /// Drop whatever buffers the bag holds, returning it to the empty
    /// state (mainly for tests and memory-pressure hooks). The armed
    /// deadline (if any) is dropped too.
    pub fn clear(&mut self) {
        self.slot = None;
        self.deadline = None;
    }
}

impl std::fmt::Debug for BatchScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchScratch")
            .field("occupied", &self.slot.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct KernelLike {
        cuts: Vec<u64>,
    }

    #[derive(Default)]
    struct OtherLike {
        vals: Vec<f64>,
    }

    #[test]
    fn buffers_persist_across_calls_of_the_same_type() {
        let mut scratch = BatchScratch::new();
        let k = scratch.get_or_default::<KernelLike>();
        k.cuts.extend(0..100);
        let cap = k.cuts.capacity();
        k.cuts.clear();
        // Same type again: same buffers, capacity retained.
        let k = scratch.get_or_default::<KernelLike>();
        assert!(k.cuts.is_empty());
        assert_eq!(k.cuts.capacity(), cap);
    }

    #[test]
    fn switching_types_reinitializes() {
        let mut scratch = BatchScratch::new();
        scratch.get_or_default::<KernelLike>().cuts.push(7);
        let o = scratch.get_or_default::<OtherLike>();
        assert!(o.vals.is_empty());
        o.vals.push(1.5);
        // And back: the kernel buffers were dropped, fresh default.
        assert!(scratch.get_or_default::<KernelLike>().cuts.is_empty());
    }

    #[test]
    fn clear_empties_the_bag() {
        let mut scratch = BatchScratch::new();
        scratch.get_or_default::<KernelLike>().cuts.push(1);
        scratch.clear();
        assert!(scratch.get_or_default::<KernelLike>().cuts.is_empty());
        assert_eq!(format!("{scratch:?}"), "BatchScratch { occupied: true }");
    }

    #[test]
    fn deadline_slot_arms_and_disarms() {
        let mut scratch = BatchScratch::new();
        assert!(scratch.deadline().is_none());
        scratch.set_deadline(Deadline::manual());
        assert!(scratch.deadline().is_some());
        assert!(!scratch.deadline().expect("armed").expired());
        scratch.clear_deadline();
        assert!(scratch.deadline().is_none());
        // clear() drops an armed deadline along with the buffers.
        scratch.set_deadline(Deadline::already_expired());
        scratch.clear();
        assert!(scratch.deadline().is_none());
    }
}
