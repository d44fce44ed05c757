//! Measurement utilities: empirical state-space usage.

use std::collections::HashSet;
use std::hash::Hash;

/// Tracks the set of distinct agent states observed during an execution.
///
/// The paper's space bounds ("the protocol uses `O(log n · log log n)` states
/// w.h.p.") refer to the number of distinct states that actually occur during the
/// execution, because the pseudo-code variables have ranges that are only bounded
/// w.h.p.  This tracker records exactly that quantity: feed it the configuration at
/// regular checkpoints (and at the end) and read off [`distinct_states`].
///
/// [`distinct_states`]: StateSpaceTracker::distinct_states
#[derive(Debug, Clone, Default)]
pub struct StateSpaceTracker<S: Eq + Hash + Clone> {
    seen: HashSet<S>,
}

impl<S: Eq + Hash + Clone> StateSpaceTracker<S> {
    /// Create an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        StateSpaceTracker {
            seen: HashSet::new(),
        }
    }

    /// Record every state of a configuration.
    pub fn record(&mut self, states: &[S]) {
        for s in states {
            if !self.seen.contains(s) {
                self.seen.insert(s.clone());
            }
        }
    }

    /// Record a single state.
    pub fn record_state(&mut self, state: &S) {
        if !self.seen.contains(state) {
            self.seen.insert(state.clone());
        }
    }

    /// The number of distinct states observed so far.
    #[must_use]
    pub fn distinct_states(&self) -> usize {
        self.seen.len()
    }

    /// Whether a particular state has been observed.
    #[must_use]
    pub fn contains(&self, state: &S) -> bool {
        self.seen.contains(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_counts_distinct_states_only() {
        let mut t = StateSpaceTracker::new();
        t.record(&[1u32, 2, 2, 3]);
        assert_eq!(t.distinct_states(), 3);
        t.record(&[3, 4]);
        assert_eq!(t.distinct_states(), 4);
        t.record_state(&4);
        assert_eq!(t.distinct_states(), 4);
        assert!(t.contains(&1));
        assert!(!t.contains(&99));
    }

    #[test]
    fn tracker_default_is_empty() {
        let t: StateSpaceTracker<u8> = StateSpaceTracker::default();
        assert_eq!(t.distinct_states(), 0);
    }
}
