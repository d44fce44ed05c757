//! The sequential simulator driving a single protocol execution; the hybrid
//! engine's [`DecodedStint`](crate::stint::DecodedStint) steps through it too.

use rand::rngs::SmallRng;

use crate::config::ConfigurationStats;
use crate::convergence::{self, RunOutcome};
use crate::error::SimError;
use crate::protocol::Protocol;
use crate::rng::seeded_rng;
use crate::scheduler::{Scheduler, UniformScheduler};
use crate::snapshot::{
    persist_rng, unpersist_rng, Checkpointable, EngineSnapshot, PersistState, ENGINE_SEQUENTIAL,
};

/// A single execution of a population protocol.
///
/// The simulator owns the protocol, the configuration (one state per agent), the
/// scheduler and the RNG.  Each [`step`](Simulator::step) executes exactly one
/// interaction of the probabilistic population model.
///
/// # Examples
///
/// ```rust
/// use ppsim::{Protocol, Simulator};
/// use rand::rngs::SmallRng;
///
/// struct Epidemic;
/// impl Protocol for Epidemic {
///     type State = u8;
///     type Output = u8;
///     fn initial_state(&self) -> u8 { 0 }
///     fn interact(&self, u: &mut u8, v: &mut u8, _rng: &mut SmallRng) {
///         let m = (*u).max(*v);
///         *u = m;
///         *v = m;
///     }
///     fn output(&self, s: &u8) -> u8 { *s }
/// }
///
/// # fn main() -> Result<(), ppsim::SimError> {
/// let mut sim = Simulator::new(Epidemic, 50, 1)?;
/// sim.states_mut()[0] = 1;
/// let outcome = sim.run_until(|s| s.output_stats().unanimous() == Some(&1), 50, 200_000);
/// assert!(outcome.converged());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<P: Protocol, Sch: Scheduler = UniformScheduler> {
    protocol: P,
    scheduler: Sch,
    states: Vec<P::State>,
    rng: SmallRng,
    interactions: u64,
}

impl<P: Protocol> Simulator<P, UniformScheduler> {
    /// Create a simulator for `n` agents, all in the protocol's initial state, using
    /// the uniformly random scheduler of the probabilistic model.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PopulationTooSmall`] if `n < 2`.
    pub fn new(protocol: P, n: usize, seed: u64) -> Result<Self, SimError> {
        Self::with_scheduler(protocol, n, seed, UniformScheduler::new())
    }

    /// A simulator over `states` that resumes the schedule from `rng` after
    /// `interactions` steps (no population check).
    pub(crate) fn from_parts(
        protocol: P,
        states: Vec<P::State>,
        rng: SmallRng,
        interactions: u64,
    ) -> Self {
        Simulator {
            protocol,
            scheduler: UniformScheduler::new(),
            states,
            rng,
            interactions,
        }
    }
}

impl<P: Protocol, Sch: Scheduler> Simulator<P, Sch> {
    /// Create a simulator with an explicit scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PopulationTooSmall`] if `n < 2`.
    pub fn with_scheduler(
        protocol: P,
        n: usize,
        seed: u64,
        scheduler: Sch,
    ) -> Result<Self, SimError> {
        if n < 2 {
            return Err(SimError::PopulationTooSmall { n });
        }
        let states = vec![protocol.initial_state(); n];
        Ok(Simulator {
            protocol,
            scheduler,
            states,
            rng: seeded_rng(seed),
            interactions: 0,
        })
    }

    /// The population size `n`.
    #[must_use]
    pub fn population(&self) -> usize {
        self.states.len()
    }

    /// The number of interactions executed so far.
    #[must_use]
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// The protocol being executed.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The current configuration (one state per agent).
    #[must_use]
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Mutable access to the configuration.
    ///
    /// Intended for experiment setup, e.g. planting a rumour or a pre-elected leader
    /// when exercising a component protocol in isolation.
    pub fn states_mut(&mut self) -> &mut [P::State] {
        &mut self.states
    }

    /// Current outputs of all agents.
    ///
    /// Allocates a fresh `Vec`; in hot paths (per-check predicates) prefer
    /// [`outputs_iter`](Simulator::outputs_iter), which is allocation-free.
    #[must_use]
    pub fn outputs(&self) -> Vec<P::Output> {
        self.outputs_iter().collect()
    }

    /// Iterate over the agents' current outputs without allocating.
    pub fn outputs_iter(&self) -> impl Iterator<Item = P::Output> + '_ {
        self.states.iter().map(|s| self.protocol.output(s))
    }

    /// Output histogram of the current configuration.
    #[must_use]
    pub fn output_stats(&self) -> ConfigurationStats<P::Output> {
        ConfigurationStats::from_states(&self.protocol, &self.states)
    }

    /// The schedule RNG.
    pub(crate) fn rng(&self) -> &SmallRng {
        &self.rng
    }

    /// Execute exactly one interaction.
    #[inline]
    pub fn step(&mut self) {
        let n = self.states.len();
        let (i, j) = self.scheduler.next_pair(n, &mut self.rng);
        debug_assert_ne!(i, j);
        // Split the slice to obtain two disjoint mutable references.
        let (a, b) = if i < j {
            let (lo, hi) = self.states.split_at_mut(j);
            (&mut lo[i], &mut hi[0])
        } else {
            let (lo, hi) = self.states.split_at_mut(i);
            (&mut hi[0], &mut lo[j])
        };
        self.protocol.interact(a, b, &mut self.rng);
        self.interactions += 1;
    }

    /// Execute `budget` further interactions unconditionally.
    pub fn run(&mut self, budget: u64) {
        for _ in 0..budget {
            self.step();
        }
    }

    /// Run until `pred` holds (checked every `check_every` interactions, and once
    /// before the first step) or until `max_interactions` *total* interactions have
    /// been executed.
    ///
    /// Returns a [`RunOutcome`] carrying the interaction count at the first check at
    /// which the predicate held.  For the monotone "done"-flag predicates exposed by
    /// the counting protocols this equals the convergence time up to the check
    /// granularity.
    pub fn run_until<F>(&mut self, pred: F, check_every: u64, max_interactions: u64) -> RunOutcome
    where
        F: FnMut(&Self) -> bool,
    {
        convergence::run_until(
            self,
            Self::interactions,
            Self::run,
            pred,
            check_every,
            max_interactions,
        )
    }
}

/// Checkpointing for the sequential engine under the probabilistic model's
/// uniform scheduler (the scheduler itself is stateless, so the snapshot is
/// the agent vector, the RNG stream, and the interaction counter).
///
/// Payload layout (within the [`snapshot`](crate::snapshot) frame, engine
/// tag [`ENGINE_SEQUENTIAL`]):
///
/// ```text
/// [u64; 4]        RNG state (xoshiro256++)
/// u64             interactions executed
/// Vec<P::State>   per-agent states, in agent-index order
/// ```
///
/// Restoring validates the population size against the simulator's; the
/// protocol itself is not serialized here (pair a snapshot with the same
/// protocol construction, or use
/// [`DenseSimulator`](crate::DenseSimulator)'s sequential variant, which
/// adds the protocol's own state to the payload).
impl<P> Checkpointable for Simulator<P, UniformScheduler>
where
    P: Protocol,
    P::State: PersistState,
{
    fn save_state(&self) -> EngineSnapshot {
        let mut payload = Vec::new();
        persist_rng(&self.rng, &mut payload);
        self.interactions.persist(&mut payload);
        self.states.persist(&mut payload);
        EngineSnapshot::new(ENGINE_SEQUENTIAL, payload)
    }

    fn restore_state(&mut self, snapshot: &EngineSnapshot) -> Result<(), SimError> {
        snapshot.expect_engine(ENGINE_SEQUENTIAL, "the sequential engine")?;
        let mut r = snapshot.reader();
        let rng = unpersist_rng(&mut r)?;
        let interactions = r.read::<u64>()?;
        let states = r.read::<Vec<P::State>>()?;
        r.finish()?;
        if states.len() != self.states.len() {
            return Err(SimError::SnapshotMismatch {
                reason: format!(
                    "snapshot population {} != simulator population {}",
                    states.len(),
                    self.states.len()
                ),
            });
        }
        self.rng = rng;
        self.interactions = interactions;
        self.states = states;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;

    #[derive(Debug, Clone, Copy)]
    struct MaxBroadcast;

    impl Protocol for MaxBroadcast {
        type State = u32;
        type Output = u32;
        fn initial_state(&self) -> u32 {
            0
        }
        fn interact(&self, u: &mut u32, v: &mut u32, _rng: &mut SmallRng) {
            let m = (*u).max(*v);
            *u = m;
            *v = m;
        }
        fn output(&self, s: &u32) -> u32 {
            *s
        }
        fn name(&self) -> &'static str {
            "max-broadcast"
        }
    }

    #[test]
    fn rejects_tiny_population() {
        assert_eq!(
            Simulator::new(MaxBroadcast, 1, 0).err(),
            Some(SimError::PopulationTooSmall { n: 1 })
        );
        assert!(Simulator::new(MaxBroadcast, 0, 0).is_err());
        assert!(Simulator::new(MaxBroadcast, 2, 0).is_ok());
    }

    #[test]
    fn step_counts_interactions() {
        let mut sim = Simulator::new(MaxBroadcast, 10, 3).unwrap();
        assert_eq!(sim.interactions(), 0);
        sim.run(25);
        assert_eq!(sim.interactions(), 25);
        sim.step();
        assert_eq!(sim.interactions(), 26);
    }

    #[test]
    fn broadcast_converges_and_is_monotone() {
        let n = 200;
        let mut sim = Simulator::new(MaxBroadcast, n, 5).unwrap();
        sim.states_mut()[7] = 42;
        let outcome = sim.run_until(|s| s.states().iter().all(|&x| x == 42), n as u64, 5_000_000);
        let t = outcome.expect_converged("broadcast");
        // Broadcast needs at least n-1 informing interactions.
        assert!(t >= (n as u64) - 1);
        assert!(sim.outputs().iter().all(|&o| o == 42));
    }

    #[test]
    fn run_until_returns_immediately_if_predicate_already_holds() {
        let mut sim = Simulator::new(MaxBroadcast, 10, 1).unwrap();
        let outcome = sim.run_until(|_| true, 100, 1000);
        assert_eq!(outcome, RunOutcome::Converged { interactions: 0 });
        assert_eq!(sim.interactions(), 0);
    }

    #[test]
    fn run_until_exhausts_budget() {
        let mut sim = Simulator::new(MaxBroadcast, 10, 1).unwrap();
        let outcome = sim.run_until(|_| false, 7, 100);
        assert_eq!(
            outcome,
            RunOutcome::Exhausted {
                interactions: 100,
                budget: 100
            }
        );
        assert_eq!(sim.interactions(), 100, "budget must be respected exactly");
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let mut a = Simulator::new(MaxBroadcast, 64, 77).unwrap();
        let mut b = Simulator::new(MaxBroadcast, 64, 77).unwrap();
        a.states_mut()[0] = 9;
        b.states_mut()[0] = 9;
        a.run(10_000);
        b.run(10_000);
        assert_eq!(a.states(), b.states());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Simulator::new(MaxBroadcast, 64, 1).unwrap();
        let mut b = Simulator::new(MaxBroadcast, 64, 2).unwrap();
        a.states_mut()[0] = 9;
        b.states_mut()[0] = 9;
        a.run(200);
        b.run(200);
        // With overwhelming probability the informed sets differ after 200 steps.
        assert_ne!(a.states(), b.states());
    }

    #[test]
    fn snapshot_round_trip_is_identity_and_replay_is_bit_identical() {
        let mut sim = Simulator::new(MaxBroadcast, 100, 21).unwrap();
        sim.states_mut()[0] = 3;
        sim.run(5_000);
        let snap = sim.save_state();

        // restore(save(sim)) is the identity on observable state.
        let mut copy = Simulator::new(MaxBroadcast, 100, 0).unwrap();
        copy.restore_state(&snap).unwrap();
        assert_eq!(copy.states(), sim.states());
        assert_eq!(copy.interactions(), sim.interactions());

        // The resumed run retraces the original bit-identically.
        sim.run(5_000);
        copy.run(5_000);
        assert_eq!(copy.states(), sim.states());
        assert_eq!(
            copy.save_state().to_bytes(),
            sim.save_state().to_bytes(),
            "snapshot bytes are a pure function of the trajectory"
        );
    }

    #[test]
    fn snapshot_restore_rejects_population_mismatch_and_wrong_engine() {
        let sim = Simulator::new(MaxBroadcast, 10, 0).unwrap();
        let snap = sim.save_state();
        let mut other = Simulator::new(MaxBroadcast, 11, 0).unwrap();
        assert!(matches!(
            other.restore_state(&snap),
            Err(SimError::SnapshotMismatch { .. })
        ));
        let alien = crate::snapshot::EngineSnapshot::new(crate::snapshot::ENGINE_BATCHED, vec![]);
        let mut sim = Simulator::new(MaxBroadcast, 10, 0).unwrap();
        assert!(matches!(
            sim.restore_state(&alien),
            Err(SimError::SnapshotMismatch { .. })
        ));
    }
}
