//! The batched count-based simulation engine.
//!
//! [`BatchedSimulator`] represents a configuration as a multiset — `counts[s]`
//! agents currently in state `s` — instead of a per-agent array, and advances
//! time in **collision-free batches**: it samples how many of the next
//! interactions touch pairwise-distinct agents (`Θ(√n)` in expectation, by the
//! birthday paradox), samples the multiset of participating state pairs with
//! multivariate hypergeometric draws, and applies each distinct transition
//! once per state-pair class.  The per-batch cost is `O(q²)` in the number of
//! **occupied** states `q` (states with at least one agent; the engine tracks
//! occupancy and never scans empty states) — independent of `n` — versus
//! `Θ(√n)` interactions advanced per batch, so large populations with small
//! state spaces run orders of magnitude faster than under the sequential
//! per-interaction engine.
//!
//! The batching is **exact**, not approximate: interactions on disjoint agents
//! commute, the participating agents of a collision-free block form a uniform
//! without-replacement sample (sampled by state via hypergeometrics), and the
//! block boundary — the first interaction that re-uses an agent — is sampled
//! from its true distribution and executed explicitly against the multiset of
//! already-touched agents (see [`sample`](crate::sample)).  Both engines
//! therefore simulate the same stochastic process, which the
//! distributional-equivalence tests verify.
//!
//! # When to use which engine
//!
//! * [`Simulator`](crate::Simulator): arbitrary state types, RNG-consulting
//!   transitions, small populations, or when per-agent trajectories matter.
//! * [`BatchedSimulator`]: enumerable state spaces ([`DenseProtocol`]) and
//!   large `n` — the regime where the paper's asymptotics (and the related
//!   self-stabilizing / coalescence workloads) become visible.
//!
//! # Example
//!
//! ```rust
//! use ppsim::{BatchedSimulator, DenseProtocol};
//!
//! /// One-way epidemic: state 1 spreads to every agent.
//! struct Rumor;
//! impl DenseProtocol for Rumor {
//!     type Output = bool;
//!     fn num_states(&self) -> usize { 2 }
//!     fn initial_state(&self) -> usize { 0 }
//!     fn transition(&self, u: usize, v: usize) -> (usize, usize) { (u.max(v), v) }
//!     fn output(&self, s: usize) -> bool { s == 1 }
//! }
//!
//! # fn main() -> Result<(), ppsim::SimError> {
//! let mut sim = BatchedSimulator::new(Rumor, 1_000_000, 42)?;
//! sim.transfer(0, 1, 1)?; // plant the rumour
//! let outcome = sim.run_until(|s| s.count_of(1) == s.population(), 1_000_000, u64::MAX);
//! assert!(outcome.converged());
//! # Ok(())
//! # }
//! ```

use rand::rngs::SmallRng;

use crate::block::{DeltaTable, Occupancy, TouchSet};
use crate::config::ConfigurationStats;
use crate::convergence::{self, RunOutcome};
use crate::dense::{check_counts, DenseProtocol};
use crate::error::SimError;
use crate::rng::seeded_rng;
use crate::sample::{multivariate_hypergeometric_sparse, CollisionSampler};
use crate::snapshot::{
    persist_rng, unpersist_rng, Checkpointable, EngineSnapshot, PersistState, SnapshotReader,
    ENGINE_BATCHED,
};

/// A single execution of a [`DenseProtocol`] on the batched count-based engine.
///
/// Mirrors the [`Simulator`](crate::Simulator) driving surface (`run`,
/// `run_until`, `output_stats`, seeded construction) on a configuration
/// stored as state counts.
#[derive(Debug, Clone)]
pub struct BatchedSimulator<P: DenseProtocol> {
    protocol: P,
    q: usize,
    counts: Vec<u64>,
    n: u64,
    rng: SmallRng,
    interactions: u64,
    /// Validated `δ`, precomputed as a dense table for small `q`.
    delta: DeltaTable,
    /// Cached batch-length sampler for this population size.
    collisions: CollisionSampler,
    /// Precomputed `ω` per state; `None` for dynamic (interned) protocols,
    /// whose outputs are evaluated lazily on occupied states.
    outputs: Option<Vec<P::Output>>,
    /// States that may be occupied, compacted every batch.  All per-batch
    /// work iterates this list, so empty regions of large state spaces cost
    /// nothing.
    occupied: Occupancy,
    /// Agents already touched by the current block (flat delta accumulator).
    touched: TouchSet,
    // Scratch buffers reused across batches.
    init_pairs: Vec<(u32, u64)>,
    resp_pairs: Vec<(u32, u64)>,
}

/// Mutable views into a [`BatchedSimulator`]'s configuration, used by the
/// sharded engine to resolve cross-shard interactions and rebalance agents
/// without going through the public (validating, `O(q)`) mutators.
pub(crate) struct ShardAccess<'a> {
    pub(crate) counts: &'a mut Vec<u64>,
    pub(crate) occupied: &'a mut Occupancy,
    pub(crate) touched: &'a mut TouchSet,
}

impl<P: DenseProtocol> BatchedSimulator<P> {
    /// Create a batched simulator for `n` agents, all in the protocol's
    /// initial state.
    ///
    /// # Examples
    ///
    /// ```rust
    /// use ppsim::{BatchedSimulator, DenseProtocol};
    ///
    /// /// Two-state one-way epidemic.
    /// struct Rumor;
    /// impl DenseProtocol for Rumor {
    ///     type Output = bool;
    ///     fn num_states(&self) -> usize { 2 }
    ///     fn initial_state(&self) -> usize { 0 }
    ///     fn transition(&self, u: usize, v: usize) -> (usize, usize) { (u.max(v), v) }
    ///     fn output(&self, s: usize) -> bool { s == 1 }
    /// }
    ///
    /// # fn main() -> Result<(), ppsim::SimError> {
    /// let mut sim = BatchedSimulator::new(Rumor, 10_000, 42)?;
    /// assert_eq!(sim.population(), 10_000);
    /// assert_eq!(sim.count_of(0), 10_000); // everyone starts in state 0
    /// sim.run(1_000);
    /// assert_eq!(sim.interactions(), 1_000);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PopulationTooSmall`] if `n < 2`, and
    /// [`SimError::InvalidParameter`] if the protocol declares an empty state
    /// space, an out-of-range initial state, or (for table-sized state spaces,
    /// where `δ` is precomputed eagerly) a transition leaving `0..q`.
    pub fn new(protocol: P, n: usize, seed: u64) -> Result<Self, SimError> {
        if n < 2 {
            return Err(SimError::PopulationTooSmall { n });
        }
        let delta = DeltaTable::new(&protocol)?;
        let q = delta.num_states();
        let q0 = protocol.initial_state();
        let outputs = (!protocol.dynamic()).then(|| (0..q).map(|s| protocol.output(s)).collect());
        let mut counts = vec![0u64; q];
        counts[q0] = n as u64;
        Ok(BatchedSimulator {
            protocol,
            q,
            counts,
            n: n as u64,
            rng: seeded_rng(seed),
            interactions: 0,
            delta,
            collisions: CollisionSampler::new(n as u64),
            outputs,
            occupied: Occupancy::new(q, q0),
            touched: TouchSet::new(q),
            init_pairs: Vec::new(),
            resp_pairs: Vec::new(),
        })
    }

    /// Crate-internal view of the possibly-occupied state list.
    pub(crate) fn occupied_slice(&self) -> &[u32] {
        self.occupied.as_slice()
    }

    /// Crate-internal mutable access for the sharded engine.
    pub(crate) fn shard_access(&mut self) -> ShardAccess<'_> {
        ShardAccess {
            counts: &mut self.counts,
            occupied: &mut self.occupied,
            touched: &mut self.touched,
        }
    }

    /// The population size `n`.
    #[must_use]
    pub fn population(&self) -> u64 {
        self.n
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

    /// The number of states `q` of the protocol.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.q
    }

    /// The number of currently occupied states (states holding ≥ 1 agent).
    #[must_use]
    pub fn occupied_states(&self) -> usize {
        self.occupied
            .as_slice()
            .iter()
            .filter(|&&s| self.counts[s as usize] > 0)
            .count()
    }

    /// The current configuration as state counts (`counts[s]` agents in state
    /// `s`; sums to `n`).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of agents currently in state `state`.
    #[must_use]
    pub fn count_of(&self, state: usize) -> u64 {
        self.counts.get(state).copied().unwrap_or(0)
    }

    /// Move `k` agents from state `from` to state `to` — the counts analogue
    /// of poking [`Simulator::states_mut`](crate::Simulator::states_mut) for
    /// experiment setup (planting a rumour, pre-electing a leader).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if either state is out of range
    /// or fewer than `k` agents are in `from`.
    pub fn transfer(&mut self, from: usize, to: usize, k: u64) -> Result<(), SimError> {
        if from >= self.q || to >= self.q {
            return Err(SimError::InvalidParameter {
                name: "transfer",
                reason: format!(
                    "states ({from}, {to}) outside the state space 0..{}",
                    self.q
                ),
            });
        }
        if self.counts[from] < k {
            return Err(SimError::InvalidParameter {
                name: "transfer",
                reason: format!(
                    "cannot move {k} agents out of state {from} holding {}",
                    self.counts[from]
                ),
            });
        }
        self.counts[from] -= k;
        self.counts[to] += k;
        self.occupied.mark(to);
        Ok(())
    }

    /// Replace the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if `counts` has the wrong length
    /// or does not sum to the population size.
    pub fn set_counts(&mut self, counts: Vec<u64>) -> Result<(), SimError> {
        check_counts(&counts, self.q, self.n)?;
        self.counts = counts;
        self.occupied.rebuild(&self.counts);
        Ok(())
    }

    /// Corrupt `k` agents chosen uniformly without replacement: each victim's
    /// state is replaced by `new_state(current, rng)` — the count-based
    /// analogue of an adversary overwriting `k` agents' memories
    /// ([`crate::adversary`]).
    ///
    /// All randomness (the hypergeometric victim draw and whatever
    /// `new_state` consumes) comes from the caller's `rng`, never from the
    /// engine's own stream, so injecting a fault does not perturb the
    /// scheduled trajectory beyond the corruption itself.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if `k` exceeds the population
    /// or `new_state` returns a state outside `0..q`.
    pub fn corrupt(
        &mut self,
        k: u64,
        rng: &mut SmallRng,
        new_state: &mut dyn FnMut(usize, &mut SmallRng) -> usize,
    ) -> Result<(), SimError> {
        if k > self.n {
            return Err(SimError::InvalidParameter {
                name: "corrupt",
                reason: format!("cannot corrupt {k} of {} agents", self.n),
            });
        }
        let mut victims = Vec::new();
        multivariate_hypergeometric_sparse(
            rng,
            &self.counts,
            self.occupied.as_slice(),
            self.n,
            k,
            &mut victims,
        );
        for (state, hit) in victims {
            let from = state as usize;
            for _ in 0..hit {
                let to = new_state(from, rng);
                if to >= self.q {
                    return Err(SimError::InvalidParameter {
                        name: "corrupt",
                        reason: format!("target state {to} outside the state space 0..{}", self.q),
                    });
                }
                self.counts[from] -= 1;
                self.counts[to] += 1;
                self.occupied.mark(to);
            }
        }
        Ok(())
    }

    /// Output histogram of the current configuration, computed in `O(q)` over
    /// the occupied states — the batched engine's convergence checks do not
    /// touch `n` at all.
    #[must_use]
    pub fn output_stats(&self) -> ConfigurationStats<P::Output> {
        ConfigurationStats::from_counts(self.occupied.as_slice().iter().filter_map(|&s| {
            let c = self.counts[s as usize];
            (c > 0).then(|| {
                let out = match &self.outputs {
                    Some(outputs) => outputs[s as usize].clone(),
                    None => self.protocol.output(s as usize),
                };
                (out, c as usize)
            })
        }))
    }

    /// Execute exactly one interaction (sequentially, against the counts).
    ///
    /// Equivalent to one [`Simulator::step`](crate::Simulator::step); used for
    /// fine-grained control and as the reference path in tests.
    pub fn step(&mut self) {
        let i = crate::block::draw_one(
            &mut self.rng,
            &mut self.counts,
            self.occupied.as_slice(),
            self.n,
        );
        let j = crate::block::draw_one(
            &mut self.rng,
            &mut self.counts,
            self.occupied.as_slice(),
            self.n - 1,
        );
        let (a, b) = self.delta.eval(&self.protocol, i, j);
        self.counts[a] += 1;
        self.counts[b] += 1;
        self.occupied.mark(a);
        self.occupied.mark(b);
        self.interactions += 1;
    }

    /// Execute one collision-free batch of at most `cap` interactions; returns
    /// the number of interactions executed (at least 1).
    fn run_batch(&mut self, cap: u64) -> u64 {
        debug_assert!(cap >= 1);
        let draw = self.collisions.sample(&mut self.rng, cap);
        let clean = draw.clean;
        debug_assert!(clean >= 1);

        // Which states do the 2·clean pairwise-distinct agents hold?  Sample
        // `clean` initiators, then `clean` responders from the remainder —
        // the roles of a uniform without-replacement agent sample.
        let mut init_pairs = std::mem::take(&mut self.init_pairs);
        let mut resp_pairs = std::mem::take(&mut self.resp_pairs);
        multivariate_hypergeometric_sparse(
            &mut self.rng,
            &self.counts,
            self.occupied.as_slice(),
            self.n,
            clean,
            &mut init_pairs,
        );
        for &(s, k) in &init_pairs {
            self.counts[s as usize] -= k;
        }
        multivariate_hypergeometric_sparse(
            &mut self.rng,
            &self.counts,
            self.occupied.as_slice(),
            self.n - clean,
            clean,
            &mut resp_pairs,
        );
        for &(s, k) in &resp_pairs {
            self.counts[s as usize] -= k;
        }

        // Pair initiator classes with responder classes uniformly at random
        // (a random contingency table with the sampled margins) and apply each
        // transition once per class, multiplied by its multiplicity, into the
        // flat touched accumulator.
        let (protocol, delta, touched) = (&self.protocol, &self.delta, &mut self.touched);
        crate::block::pair_classes(
            &mut self.rng,
            &init_pairs,
            &mut resp_pairs,
            clean,
            |i, j, k| {
                let (a, b) = delta.eval(protocol, i, j);
                touched.add(a, k);
                touched.add(b, k);
            },
        );
        self.init_pairs = init_pairs;
        self.resp_pairs = resp_pairs;

        // The collision interaction, executed against the multiset of agents
        // that already interacted in this batch (their *post*-transition
        // states, which is what a re-used agent carries).
        let mut executed = clean;
        if let Some(c) = draw.collision {
            let mut touched_total = 2 * clean;
            let untouched_total = self.n - 2 * clean;
            let i = if c.initiator_used {
                let s = self.touched.draw_one(&mut self.rng, touched_total);
                touched_total -= 1;
                s
            } else {
                crate::block::draw_one(
                    &mut self.rng,
                    &mut self.counts,
                    self.occupied.as_slice(),
                    untouched_total,
                )
            };
            let j = if c.responder_used {
                self.touched.draw_one(&mut self.rng, touched_total)
            } else {
                let left = if c.initiator_used {
                    untouched_total
                } else {
                    untouched_total - 1
                };
                crate::block::draw_one(
                    &mut self.rng,
                    &mut self.counts,
                    self.occupied.as_slice(),
                    left,
                )
            };
            let (a, b) = self.delta.eval(&self.protocol, i, j);
            self.touched.add(a, 1);
            self.touched.add(b, 1);
            executed += 1;
        }

        // Merge the touched agents back into the configuration, then compact
        // the occupancy list (dropping states the batch emptied).
        self.touched
            .merge_into(&mut self.counts, &mut self.occupied);
        self.occupied.compact(&self.counts);
        #[cfg(feature = "strict-invariants")]
        crate::block::assert_mass_conserved(
            &self.counts,
            self.n,
            "batched block delta application",
        );

        self.interactions += executed;
        executed
    }

    /// Execute `budget` further interactions unconditionally.
    pub fn run(&mut self, budget: u64) {
        let mut remaining = budget;
        while remaining > 0 {
            remaining -= self.run_batch(remaining);
        }
    }

    /// Run until `pred` holds (checked every `check_every` interactions, and
    /// once before the first step) or until `max_interactions` *total*
    /// interactions have been executed — the same contract as
    /// [`Simulator::run_until`](crate::Simulator::run_until).
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

    /// Consume the simulator and return the final configuration counts.
    #[must_use]
    pub fn into_counts(self) -> Vec<u64> {
        self.counts
    }

    /// Serialize the engine core into `out` (shared by the top-level
    /// [`Checkpointable`] impl, the sharded engine's per-shard
    /// sub-snapshots and the hybrid engine's batched substrate; the last two
    /// set `include_protocol = false`, because the enclosing snapshot stores
    /// the shared protocol's state once itself).
    ///
    /// Core layout:
    ///
    /// ```text
    /// u64              population n
    /// u64              state-space size q
    /// [u64; 4]         RNG state
    /// u64              interactions executed
    /// Vec<u8>          protocol state (only if include_protocol)
    /// Vec<(u32, u64)>  (state, count) per occupied-list entry, in the
    ///                  list's discovery order — the order is part of the
    ///                  trajectory (categorical draws iterate it), so it is
    ///                  stored verbatim, zero-count entries included
    /// ```
    pub(crate) fn save_core(&self, include_protocol: bool, out: &mut Vec<u8>) {
        self.n.persist(out);
        self.q.persist(out);
        persist_rng(&self.rng, out);
        self.interactions.persist(out);
        if include_protocol {
            self.protocol.save_protocol_state().persist(out);
        }
        let occ: Vec<(u32, u64)> = self
            .occupied
            .as_slice()
            .iter()
            .map(|&s| (s, self.counts[s as usize]))
            .collect();
        occ.persist(out);
    }

    /// Restore a core written by [`Self::save_core`].  Everything derivable
    /// is rebuilt rather than read: the collision sampler is a pure function
    /// of `n` (validated unchanged), and the δ-table is reconstructed so a
    /// dynamic protocol's pair memo cannot carry state indices from another
    /// process's index assignment.
    pub(crate) fn restore_core(
        &mut self,
        r: &mut SnapshotReader<'_>,
        restore_protocol: bool,
    ) -> Result<(), SimError> {
        let n = r.read::<u64>()?;
        let q = r.read::<usize>()?;
        let rng = unpersist_rng(r)?;
        let interactions = r.read::<u64>()?;
        if restore_protocol {
            let protocol_bytes = r.read::<Vec<u8>>()?;
            self.protocol.restore_protocol_state(&protocol_bytes)?;
        }
        let occ = r.read::<Vec<(u32, u64)>>()?;
        if n != self.n {
            return Err(SimError::SnapshotMismatch {
                reason: format!("snapshot population {n} != simulator population {}", self.n),
            });
        }
        if q != self.q {
            return Err(SimError::SnapshotMismatch {
                reason: format!(
                    "snapshot state space {q} != simulator state space {}",
                    self.q
                ),
            });
        }
        let total: u64 = occ.iter().map(|&(_, c)| c).sum();
        if total != n {
            return Err(SimError::SnapshotCorrupt {
                reason: format!("occupied counts sum to {total}, population is {n}"),
            });
        }
        // Zero the current configuration through its own occupied list (every
        // non-zero count is marked, so this touches all of them) before
        // installing the snapshot's.
        for &s in self.occupied.as_slice() {
            self.counts[s as usize] = 0;
        }
        self.occupied
            .restore_list(occ.iter().map(|&(s, _)| s).collect())?;
        for &(s, c) in &occ {
            self.counts[s as usize] = c;
        }
        self.rng = rng;
        self.interactions = interactions;
        self.delta = DeltaTable::new(&self.protocol)?;
        Ok(())
    }
}

/// Checkpointing for the batched engine: counts (sparse, in occupied-list
/// order), RNG stream, and interaction counter, plus the protocol's own
/// state (interner contents for dynamic protocols).  The collision sampler
/// carries no mutable state across `run` calls and is rebuilt from `n`.
impl<P: DenseProtocol> Checkpointable for BatchedSimulator<P> {
    fn save_state(&self) -> EngineSnapshot {
        let mut payload = Vec::new();
        self.save_core(true, &mut payload);
        EngineSnapshot::new(ENGINE_BATCHED, payload)
    }

    fn restore_state(&mut self, snapshot: &EngineSnapshot) -> Result<(), SimError> {
        snapshot.expect_engine(ENGINE_BATCHED, "the batched engine")?;
        let mut r = snapshot.reader();
        self.restore_core(&mut r, true)?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::Simulator;
    use crate::stint::IndexCodec;

    /// One-way epidemic on two dense states.
    #[derive(Debug, Clone, Copy)]
    struct Rumor;
    impl DenseProtocol for Rumor {
        type Output = bool;
        fn num_states(&self) -> usize {
            2
        }
        fn initial_state(&self) -> usize {
            0
        }
        fn transition(&self, u: usize, v: usize) -> (usize, usize) {
            (u.max(v), v)
        }
        fn output(&self, s: usize) -> bool {
            s == 1
        }
        fn name(&self) -> &'static str {
            "rumor"
        }
    }

    /// A protocol with a conserved quantity: state index = number of tokens
    /// (0..=3); the initiator steals one token from the responder when it can
    /// hold it.
    #[derive(Debug, Clone, Copy)]
    struct TokenDrift;
    impl DenseProtocol for TokenDrift {
        type Output = usize;
        fn num_states(&self) -> usize {
            4
        }
        fn initial_state(&self) -> usize {
            1
        }
        fn transition(&self, u: usize, v: usize) -> (usize, usize) {
            if v > 0 && u < 3 {
                (u + 1, v - 1)
            } else {
                (u, v)
            }
        }
        fn output(&self, s: usize) -> usize {
            s
        }
        fn name(&self) -> &'static str {
            "token-drift"
        }
    }

    #[test]
    fn rejects_tiny_population() {
        assert_eq!(
            BatchedSimulator::new(Rumor, 1, 0).err(),
            Some(SimError::PopulationTooSmall { n: 1 })
        );
        assert!(BatchedSimulator::new(Rumor, 2, 0).is_ok());
    }

    #[test]
    fn rejects_broken_protocols() {
        struct Empty;
        impl DenseProtocol for Empty {
            type Output = ();
            fn num_states(&self) -> usize {
                0
            }
            fn initial_state(&self) -> usize {
                0
            }
            fn transition(&self, _: usize, _: usize) -> (usize, usize) {
                (0, 0)
            }
            fn output(&self, _: usize) {}
        }
        assert!(matches!(
            BatchedSimulator::new(Empty, 10, 0),
            Err(SimError::InvalidParameter {
                name: "num_states",
                ..
            })
        ));

        struct Escapes;
        impl DenseProtocol for Escapes {
            type Output = ();
            fn num_states(&self) -> usize {
                2
            }
            fn initial_state(&self) -> usize {
                0
            }
            fn transition(&self, _: usize, _: usize) -> (usize, usize) {
                (5, 0)
            }
            fn output(&self, _: usize) {}
        }
        assert!(matches!(
            BatchedSimulator::new(Escapes, 10, 0),
            Err(SimError::InvalidParameter {
                name: "transition",
                ..
            })
        ));
    }

    #[test]
    fn run_executes_exactly_the_budget() {
        let mut sim = BatchedSimulator::new(Rumor, 1000, 3).unwrap();
        sim.transfer(0, 1, 1).unwrap();
        sim.run(12_345);
        assert_eq!(sim.interactions(), 12_345);
        sim.step();
        assert_eq!(sim.interactions(), 12_346);
    }

    #[test]
    fn counts_always_sum_to_n() {
        let mut sim = BatchedSimulator::new(TokenDrift, 500, 7).unwrap();
        for _ in 0..50 {
            sim.run(1000);
            assert_eq!(sim.counts().iter().sum::<u64>(), 500);
        }
    }

    #[test]
    fn conserved_quantities_stay_conserved() {
        // Total token count (Σ state·count) is invariant under TokenDrift.
        let mut sim = BatchedSimulator::new(TokenDrift, 300, 11).unwrap();
        let total = |s: &BatchedSimulator<TokenDrift>| -> u64 {
            s.counts()
                .iter()
                .enumerate()
                .map(|(st, c)| st as u64 * c)
                .sum()
        };
        let before = total(&sim);
        sim.run(100_000);
        assert_eq!(total(&sim), before);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let mut a = BatchedSimulator::new(TokenDrift, 256, 77).unwrap();
        let mut b = BatchedSimulator::new(TokenDrift, 256, 77).unwrap();
        a.run(50_000);
        b.run(50_000);
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.interactions(), b.interactions());
    }

    #[test]
    fn epidemic_reaches_everyone_in_n_log_n_time() {
        let n = 100_000u64;
        let mut sim = BatchedSimulator::new(Rumor, n as usize, 5).unwrap();
        sim.transfer(0, 1, 1).unwrap();
        let outcome = sim.run_until(|s| s.count_of(1) == n, n, u64::MAX >> 1);
        let t = outcome.expect_converged("batched epidemic");
        let nf = n as f64;
        assert!(
            t >= n - 1,
            "an epidemic needs at least n-1 informing interactions"
        );
        assert!(
            (t as f64) < 8.0 * nf * nf.ln(),
            "epidemic took {t} interactions, far beyond O(n log n)"
        );
    }

    #[test]
    fn output_stats_track_counts_in_constant_population_work() {
        let mut sim = BatchedSimulator::new(Rumor, 10_000, 9).unwrap();
        sim.transfer(0, 1, 123).unwrap();
        let stats = sim.output_stats();
        assert_eq!(stats.population(), 10_000);
        assert_eq!(stats.count_of(&true), 123);
        assert_eq!(stats.count_of(&false), 9877);
        assert_eq!(stats.distinct_outputs(), 2);
        assert!(stats.unanimous().is_none());
    }

    #[test]
    fn run_until_contract_matches_sequential_engine() {
        let mut sim = BatchedSimulator::new(Rumor, 100, 1).unwrap();
        // Predicate already true: no interactions executed.
        let outcome = sim.run_until(|_| true, 10, 1000);
        assert_eq!(outcome, RunOutcome::Converged { interactions: 0 });
        // Budget exhaustion is exact.
        let outcome = sim.run_until(|_| false, 7, 100);
        assert_eq!(
            outcome,
            RunOutcome::Exhausted {
                interactions: 100,
                budget: 100
            }
        );
        assert_eq!(sim.interactions(), 100);
    }

    #[test]
    fn transfer_and_set_counts_validate() {
        let mut sim = BatchedSimulator::new(Rumor, 10, 0).unwrap();
        assert!(
            sim.transfer(0, 1, 11).is_err(),
            "cannot move more agents than present"
        );
        assert!(sim.transfer(0, 7, 1).is_err(), "destination out of range");
        assert!(sim.set_counts(vec![5, 4]).is_err(), "sum must equal n");
        assert!(
            sim.set_counts(vec![5, 5, 0]).is_err(),
            "length must equal q"
        );
        assert!(sim.set_counts(vec![4, 6]).is_ok());
        assert_eq!(sim.count_of(1), 6);
    }

    #[test]
    fn snapshot_round_trip_is_identity_and_replay_is_bit_identical() {
        let mut sim = BatchedSimulator::new(TokenDrift, 2_000, 31).unwrap();
        sim.run(37_501);
        let snap = sim.save_state();

        let mut copy = BatchedSimulator::new(TokenDrift, 2_000, 0).unwrap();
        copy.restore_state(&snap).unwrap();
        assert_eq!(copy.counts(), sim.counts());
        assert_eq!(copy.interactions(), sim.interactions());
        assert_eq!(copy.occupied_slice(), sim.occupied_slice());

        // Resume must retrace the uninterrupted run chunk-for-chunk.
        sim.run(10_000);
        sim.run(3_333);
        copy.run(10_000);
        copy.run(3_333);
        assert_eq!(copy.counts(), sim.counts());
        assert_eq!(copy.save_state().to_bytes(), sim.save_state().to_bytes());
    }

    #[test]
    fn snapshot_restore_validates_population_state_space_and_sums() {
        let sim = BatchedSimulator::new(Rumor, 100, 0).unwrap();
        let snap = sim.save_state();
        let mut other_n = BatchedSimulator::new(Rumor, 101, 0).unwrap();
        assert!(matches!(
            other_n.restore_state(&snap),
            Err(SimError::SnapshotMismatch { .. })
        ));
        let mut other_q = BatchedSimulator::new(TokenDrift, 100, 0).unwrap();
        assert!(matches!(
            other_q.restore_state(&snap),
            Err(SimError::SnapshotMismatch { .. })
        ));
        // Corrupt the payload's counts so they no longer sum to n.
        let mut bytes = snap.to_bytes();
        let last = bytes.len() - 5;
        bytes[last] ^= 0xFF;
        assert!(crate::snapshot::EngineSnapshot::from_bytes(&bytes).is_err());
    }

    #[test]
    fn into_counts_returns_final_configuration() {
        let mut sim = BatchedSimulator::new(Rumor, 64, 2).unwrap();
        sim.transfer(0, 1, 1).unwrap();
        sim.run(100_000);
        let counts = sim.into_counts();
        assert_eq!(counts, vec![0, 64], "the rumour saturates eventually");
    }

    #[test]
    fn sparse_occupancy_tracks_a_huge_state_space() {
        // A state space of 100_001 states of which only a handful are ever
        // occupied: the occupancy list must stay small and the engine fast.
        #[derive(Debug, Clone, Copy)]
        struct WideDrift;
        impl DenseProtocol for WideDrift {
            type Output = usize;
            fn num_states(&self) -> usize {
                100_001
            }
            fn initial_state(&self) -> usize {
                50_000
            }
            fn transition(&self, u: usize, v: usize) -> (usize, usize) {
                // Initiator moves one step towards the responder.
                match u.cmp(&v) {
                    std::cmp::Ordering::Less => (u + 1, v),
                    std::cmp::Ordering::Greater => (u - 1, v),
                    std::cmp::Ordering::Equal => (u, v),
                }
            }
            fn output(&self, s: usize) -> usize {
                s
            }
        }
        let mut sim = BatchedSimulator::new(WideDrift, 10_000, 21).unwrap();
        sim.transfer(50_000, 50_003, 5).unwrap();
        sim.run(200_000);
        assert_eq!(sim.counts().iter().sum::<u64>(), 10_000);
        // The random walk stays near the seed states; occupancy must not leak.
        assert!(
            sim.occupied_states() < 200,
            "occupancy list grew to {}",
            sim.occupied_states()
        );
    }

    #[test]
    fn step_only_runs_match_sequential_statistics() {
        // With batching disabled (pure step()), the batched engine is a
        // textbook sequential simulator over counts; epidemic progress after a
        // fixed horizon should match the per-agent engine closely on average.
        let n = 400usize;
        let horizon = 4000u64;
        let trials = 40u64;
        let mut informed_batched = 0u64;
        let mut informed_seq = 0u64;
        for t in 0..trials {
            let mut bs = BatchedSimulator::new(Rumor, n, 1000 + t).unwrap();
            bs.transfer(0, 1, 1).unwrap();
            for _ in 0..horizon {
                bs.step();
            }
            informed_batched += bs.count_of(1);

            let mut ss = Simulator::new(IndexCodec(Rumor), n, 5000 + t).unwrap();
            ss.states_mut()[0] = 1;
            ss.run(horizon);
            informed_seq += ss.states().iter().filter(|&&s| s == 1).count() as u64;
        }
        let a = informed_batched as f64 / trials as f64;
        let b = informed_seq as f64 / trials as f64;
        let rel = (a - b).abs() / b.max(1.0);
        assert!(
            rel < 0.15,
            "mean informed counts diverge: batched {a:.1} vs sequential {b:.1}"
        );
    }
}
