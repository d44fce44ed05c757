//! Convergence and stabilisation bookkeeping.
//!
//! The paper distinguishes the *convergence time* `T_C` (first interaction after
//! which the system is in a desired configuration and never leaves the set of desired
//! configurations again) from the *stabilisation time* `T_S` (first interaction after
//! which **no** interaction sequence can leave the desired set).  A simulation can
//! measure `T_C` directly (first hit of a monotone predicate, or first hit that holds
//! until the end of a long run) and can probe `T_S` by exhaustively applying all
//! ordered pairs from the reached configuration (see
//! [`AllPairsScheduler`](crate::scheduler::AllPairsScheduler)).

/// The result of driving a simulation towards a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum RunOutcome {
    /// The predicate held at the recorded interaction count.
    Converged {
        /// Number of interactions executed when the predicate was first observed
        /// to hold (measured at the configured check granularity).
        interactions: u64,
    },
    /// The interaction budget was exhausted before the predicate held.
    Exhausted {
        /// The number of interactions the simulator had **actually executed**
        /// when the run gave up.  Usually equal to `budget`, but a simulator
        /// that had already executed interactions before `run_until` was
        /// called (a staged or hybrid run resuming against a total budget)
        /// reports its true counter here instead of pretending the whole
        /// budget was spent.
        interactions: u64,
        /// The interaction budget that was exhausted.
        budget: u64,
    },
}

/// The `run_until` loop every engine shares: check `pred` once before the
/// first step, then run chunks of `min(check_every, max_interactions −
/// interactions)` and check after each, until `pred` holds or
/// `max_interactions` *total* interactions have been executed.
///
/// Chunk ends are a pure function of the interaction counter, so a run
/// restored at a check boundary issues exactly the chunk sequence the
/// uninterrupted run would have — the replay argument of checkpointed
/// drivers such as the staged `CountExact` runner rests on this.
pub(crate) fn run_until<S: ?Sized>(
    sim: &mut S,
    interactions: impl Fn(&S) -> u64,
    mut run: impl FnMut(&mut S, u64),
    mut pred: impl FnMut(&S) -> bool,
    check_every: u64,
    max_interactions: u64,
) -> RunOutcome {
    let check_every = check_every.max(1);
    if pred(sim) {
        return RunOutcome::Converged {
            interactions: interactions(sim),
        };
    }
    while interactions(sim) < max_interactions {
        let chunk = check_every.min(max_interactions - interactions(sim));
        run(sim, chunk);
        if pred(sim) {
            return RunOutcome::Converged {
                interactions: interactions(sim),
            };
        }
    }
    RunOutcome::Exhausted {
        interactions: interactions(sim),
        budget: max_interactions,
    }
}

impl RunOutcome {
    /// Whether the run converged within its budget.
    #[must_use]
    pub fn converged(&self) -> bool {
        matches!(self, RunOutcome::Converged { .. })
    }

    /// The number of interactions at convergence, if the run converged.
    #[must_use]
    pub fn interactions(&self) -> Option<u64> {
        match self {
            RunOutcome::Converged { interactions } => Some(*interactions),
            RunOutcome::Exhausted { .. } => None,
        }
    }

    /// The number of interactions actually executed when the run ended,
    /// whether it converged or exhausted its budget.
    #[must_use]
    pub fn executed(&self) -> u64 {
        match self {
            RunOutcome::Converged { interactions } | RunOutcome::Exhausted { interactions, .. } => {
                *interactions
            }
        }
    }

    /// The number of interactions at convergence.
    ///
    /// # Panics
    ///
    /// Panics if the run did not converge; use in tests and experiments where
    /// non-convergence is itself a failure.
    #[must_use]
    pub fn expect_converged(&self, context: &str) -> u64 {
        match self {
            RunOutcome::Converged { interactions } => *interactions,
            RunOutcome::Exhausted {
                interactions,
                budget,
            } => {
                panic!(
                    "{context}: did not converge within a budget of {budget} interactions \
                     ({interactions} executed)"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converged_accessors() {
        let o = RunOutcome::Converged { interactions: 1234 };
        assert!(o.converged());
        assert_eq!(o.interactions(), Some(1234));
        assert_eq!(o.executed(), 1234);
        assert_eq!(o.expect_converged("test"), 1234);
    }

    #[test]
    fn exhausted_accessors() {
        let o = RunOutcome::Exhausted {
            interactions: 9,
            budget: 10,
        };
        assert!(!o.converged());
        assert_eq!(o.interactions(), None);
        assert_eq!(
            o.executed(),
            9,
            "exhaustion reports actual work, not the budget"
        );
    }

    /// A bare interaction counter driven through the shared loop.
    struct Counter(u64);

    fn drive(start: u64, check_every: u64, max: u64, done_at: u64) -> (RunOutcome, Vec<u64>) {
        let mut sim = Counter(start);
        let mut checked = Vec::new();
        let outcome = run_until(
            &mut sim,
            |s| s.0,
            |s, k| s.0 += k,
            |s| {
                checked.push(s.0);
                s.0 >= done_at
            },
            check_every,
            max,
        );
        (outcome, checked)
    }

    #[test]
    fn run_until_checks_first_then_after_every_chunk_up_to_the_total_budget() {
        // Resuming at 5 with checks every 10 against a total budget of 32:
        // the last chunk is cut to land exactly on the budget.
        let (outcome, checked) = drive(5, 10, 32, u64::MAX);
        assert_eq!(checked, vec![5, 15, 25, 32]);
        assert_eq!(
            outcome,
            RunOutcome::Exhausted {
                interactions: 32,
                budget: 32
            }
        );
        // Convergence is reported at the first check that holds, and a zero
        // check interval is treated as one.
        let (outcome, checked) = drive(0, 0, 100, 3);
        assert_eq!(checked, vec![0, 1, 2, 3]);
        assert_eq!(outcome, RunOutcome::Converged { interactions: 3 });
    }

    #[test]
    #[should_panic(expected = "did not converge")]
    fn expect_converged_panics_on_exhaustion() {
        let _ = RunOutcome::Exhausted {
            interactions: 10,
            budget: 10,
        }
        .expect_converged("test");
    }
}
