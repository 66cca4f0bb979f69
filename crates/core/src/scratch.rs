//! The per-call context of the allocation-free batch APIs.
//!
//! [`BatchScratch`] is what the caller threads through every
//! [`crate::traits::SelectivityEstimator::selectivity_batch_into`] and
//! [`crate::traits::SelectivityEstimator::try_selectivity_batch_into`]
//! call. Every estimator answers a batch one query at a time through
//! [`crate::traits::SelectivityEstimator::selectivity`], so the bag holds
//! no working buffers: it carries the request's optional [`Deadline`],
//! which the fallible default polls between slots.

use selest_par::Deadline;

/// Caller-owned context for the `_into` batch APIs.
///
/// Create one per serving thread (or per harness worker) and reuse it
/// across calls. `Default`/`new` make an unarmed bag and never allocate.
///
/// A caller arms a request's [`Deadline`] before a fallible batch call
/// and clears it after, so every estimator cancels cooperatively without
/// the trait surface changing. (The serving engine polls its request
/// deadline itself, in its single pass over a batch.)
#[derive(Debug, Default)]
pub struct BatchScratch {
    deadline: Option<Deadline>,
}

impl BatchScratch {
    /// An unarmed scratch bag.
    pub const fn new() -> Self {
        BatchScratch { deadline: None }
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

    /// The armed request deadline, if any.
    pub fn deadline(&self) -> Option<&Deadline> {
        self.deadline.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_slot_arms_and_disarms() {
        let mut scratch = BatchScratch::new();
        assert!(scratch.deadline().is_none());
        scratch.set_deadline(Deadline::never());
        assert!(scratch.deadline().is_some());
        assert!(!scratch.deadline().expect("armed").expired());
        scratch.clear_deadline();
        assert!(scratch.deadline().is_none());
    }
}
