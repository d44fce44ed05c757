//! The sharded batched engine: parallel count-based simulation for `n` up to
//! `10⁹` agents.
//!
//! [`ShardedBatchedSimulator`] partitions the population into `S` shards of
//! (near-)equal fixed size `m_k ≈ n/S`, each owning a local counts vector
//! driven by its own [`BatchedSimulator`] (collision-free `Θ(√m)` blocks,
//! exact within the shard).  Time advances in **epochs** — windows of `W`
//! interactions of the global schedule:
//!
//! 1. **Allocate.**  Each of the `W` interactions of the window is classified
//!    by where its ordered agent pair lands: within shard `k` (probability
//!    `m_k(m_k−1)/(n(n−1))`) or across the ordered shard pair `(k, l)`
//!    (probability `m_k·m_l/(n(n−1))`).  The per-category counts are drawn
//!    from the exact multinomial ([`sample::multinomial`](crate::sample)).
//! 2. **Within-shard phase (parallel).**  Shard `k` advances by its allotment
//!    under its private RNG — this is the embarrassingly parallel bulk of the
//!    work, fanned out over scoped worker threads.
//! 3. **Cross-shard phase.**  For each ordered shard pair `(k, l)` the
//!    `C_kl` cross interactions are resolved in bulk: initiator states are a
//!    multivariate-hypergeometric draw from shard `k`, responder states from
//!    shard `l` (chunked so no chunk draws more than `1/128` of either shard;
//!    `resolve_cross` documents why), paired by a uniform random contingency
//!    table, and applied through the shared transition table.  Cost `O(q²)`
//!    per chunk, independent of `C_kl`.
//! 4. **Rebalance.**  The global multiset is re-partitioned uniformly at
//!    random into the fixed shard sizes (one multivariate-hypergeometric
//!    split per shard; the last shard's split takes the rest and draws no
//!    randomness), restoring the invariant that shard membership is a
//!    uniform random partition of the population.
//!
//! The aggregate is the same count-configuration type a [`BatchedSimulator`]
//! holds, refreshed from the shards after every epoch and mutation.
//!
//! # Exactness and the epoch approximation
//!
//! Conditioned on **no agent taking part in more than one interaction of the
//! window**, the sharded schedule and the uniform schedule are *identical in
//! distribution*: under a uniform random partition (step 4) the probability
//! that a uniform ordered pair falls within shard `k` / across `(k, l)` is
//! exactly the multinomial weight of step 1; given the category counts, the
//! participants drawn in steps 2–3 are uniform without-replacement samples;
//! and interactions on disjoint agents commute, so executing them
//! within-first is a legal reordering.  The per-epoch total-variation error
//! is therefore bounded by the probability that some agent is re-used within
//! the window under either scheduler, `ε(W) ≤ 4W²/n` (birthday bound over
//! the `2W` agent draws, both sides) — the same argument that makes the
//! single-shard batched engine exact at block scale, where the bound is
//! driven to zero by re-sampling the block boundary.
//!
//! The sharded engine instead runs **long** epochs (`W = n/4` by default), so
//! re-use within a window is common and the bound above is vacuous; what
//! remains exact is (a) all *within-shard* re-use, handled by the per-shard
//! batched engines as the true population process on `m_k` agents, and (b)
//! the per-window interaction *counts* per category.  The residual
//! approximation is the collapsed ordering between a shard's internal
//! interactions and its cross-shard interactions within one window, and the
//! suppressed re-use of agents *across* cross-shard chunks.  Both effects
//! shrink linearly with `W` (set [`ShardedConfig::epoch_interactions`] to
//! trade throughput for fidelity — at `W ≲ √n` the engine is exact by the
//! bound above) and are validated empirically: the engine-equivalence suite
//! (`crates/protocols/tests/engine_equivalence.rs`) holds sharded runs at 2,
//! 4 and 8 shards to the same Kolmogorov–Smirnov and mean-ratio thresholds
//! the batched engine is held to against the sequential one.
//!
//! # Determinism
//!
//! The trajectory is a pure function of `(protocol, n, seed, shards, epoch)`.
//! Worker threads only ever advance disjoint shards under shard-private RNGs
//! seeded from the master seed, and every global draw (allocation,
//! cross-shard resolution, rebalancing) happens on the master RNG in a fixed
//! order — so changing `threads` changes wall-clock time, never results.
//!
//! Dynamic protocols ([`DenseProtocol::dynamic`]) share one state-interning
//! registry across all shard copies; to keep index assignment (and therefore
//! the trajectory) independent of the thread schedule, the within-shard phase
//! of such protocols is pinned to a single worker thread.  Static protocols
//! are unaffected.
//!
//! # Example
//!
//! ```rust
//! use ppsim::{DenseProtocol, ShardedBatchedSimulator, ShardedConfig};
//!
//! /// One-way epidemic: state 1 spreads to every agent.
//! #[derive(Clone)]
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
//! let config = ShardedConfig { shards: 4, threads: 2, ..ShardedConfig::default() };
//! let mut sim = ShardedBatchedSimulator::new(Rumor, 1_000_000, 42, config)?;
//! sim.transfer(0, 1, 1)?; // plant the rumour
//! let outcome = sim.run_until(|s| s.count_of(1) == s.population(), 1_000_000, u64::MAX);
//! assert!(outcome.converged());
//! # Ok(())
//! # }
//! ```

use rand::rngs::SmallRng;
use rand::Rng;

use crate::batched::BatchedSimulator;
use crate::block::{CountConfig, DeltaTable};
use crate::config::ConfigurationStats;
use crate::convergence::{self, RunOutcome};
use crate::dense::{assigned_states, DenseProtocol};
use crate::error::SimError;
use crate::parallel::run_chunked;
use crate::rng::{derive_seed, seeded_rng};
use crate::sample::{conditional_class_draw, multinomial, multivariate_hypergeometric_sparse};
use crate::snapshot::{
    persist_rng, unpersist_rng, Checkpointable, EngineSnapshot, PersistState, SnapshotReader,
    ENGINE_SHARDED,
};

/// Configuration of a [`ShardedBatchedSimulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedConfig {
    /// Number of shards `S` the population is partitioned into.  Clamped to
    /// `n/2` so every shard holds at least two agents.  More shards mean
    /// longer collision-free blocks per interaction *and* more parallelism,
    /// at the price of more cross-shard work per epoch.
    pub shards: usize,
    /// Worker threads for the within-shard phase (capped at the shard
    /// count); `0` uses the machine's available parallelism.  Never affects
    /// results, only wall-clock time.
    pub threads: usize,
    /// Epoch window length `W` in interactions; `None` picks `max(n/4, 256)`.
    /// Smaller windows track the uniform scheduler more faithfully (exact
    /// below `√n`), larger windows amortise the epoch overhead further.
    pub epoch_interactions: Option<u64>,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 8,
            threads: 0,
            epoch_interactions: None,
        }
    }
}

/// A single execution of a [`DenseProtocol`] on the sharded batched engine.
///
/// Mirrors the [`BatchedSimulator`] driving surface (`run`, `run_until`,
/// `output_stats`, `transfer`, seeded construction) on a population
/// partitioned across shard-local counts vectors.
///
/// The protocol must be `Clone + Send` (each shard owns a copy and may be
/// advanced on a worker thread).
#[derive(Debug, Clone)]
pub struct ShardedBatchedSimulator<P: DenseProtocol + Clone + Send> {
    protocol: P,
    /// Master RNG: epoch allocation, cross-shard resolution, rebalancing,
    /// `transfer`.  Shards draw from their own RNGs.
    rng: SmallRng,
    interactions: u64,
    threads: usize,
    epoch_cap: u64,
    delta: DeltaTable,
    /// Shard sub-simulators; shard `k` always holds exactly `sizes[k]` agents.
    shards: Vec<BatchedSimulator<P>>,
    /// Fixed shard sizes `m_k` (`n/S`, the first `n mod S` shards one larger).
    sizes: Vec<u64>,
    /// Aggregate configuration, refreshed after every epoch and mutation.
    config: CountConfig<P::Output>,
    /// Multinomial weights of the `S²` epoch categories (constant: shard
    /// sizes never change).  Index `k·S + l`; the diagonal holds the
    /// within-shard weights `m_k(m_k−1)`, off-diagonal `m_k·m_l`.
    weights: Vec<u128>,
    // Scratch buffers reused across epochs.
    alloc: Vec<u64>,
    within: Vec<u64>,
    pool: Vec<u64>,
    init_pairs: Vec<(u32, u64)>,
    resp_pairs: Vec<(u32, u64)>,
}

impl<P: DenseProtocol + Clone + Send> ShardedBatchedSimulator<P> {
    /// Create a sharded simulator for `n` agents, all in the protocol's
    /// initial state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PopulationTooSmall`] if `n < 2`, and
    /// [`SimError::InvalidParameter`] for the same protocol defects
    /// [`BatchedSimulator::new`] rejects, or a zero `epoch_interactions`.
    pub fn new(protocol: P, n: usize, seed: u64, config: ShardedConfig) -> Result<Self, SimError> {
        if n < 2 {
            return Err(SimError::PopulationTooSmall { n });
        }
        if config.epoch_interactions == Some(0) {
            return Err(SimError::InvalidParameter {
                name: "epoch_interactions",
                reason: "an epoch must span at least one interaction".into(),
            });
        }
        let delta = DeltaTable::new(&protocol)?;
        let q = delta.num_states();
        let s = config.shards.max(1).min(n / 2).max(1);
        // Dynamic (interned) protocols share one index registry across all
        // shard copies; advancing shards concurrently would make the interning
        // order — and with it the index assignment and the trajectory — depend
        // on the thread schedule.  Pinning the within-shard phase to a single
        // worker keeps runs a pure function of the seed.
        let threads = if protocol.dynamic() {
            1
        } else if config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            config.threads
        };
        let epoch_cap = config
            .epoch_interactions
            .unwrap_or_else(|| (n as u64 / 4).max(256));

        let base = n / s;
        let extra = n % s;
        let sizes: Vec<u64> = (0..s)
            .map(|k| (base + usize::from(k < extra)) as u64)
            .collect();
        let shards = sizes
            .iter()
            .enumerate()
            .map(|(k, &m)| {
                BatchedSimulator::new(
                    protocol.clone(),
                    m as usize,
                    derive_seed(seed, 1 + k as u64),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;

        let mut weights = vec![0u128; s * s];
        for k in 0..s {
            for l in 0..s {
                weights[k * s + l] = if k == l {
                    u128::from(sizes[k]) * u128::from(sizes[k] - 1)
                } else {
                    u128::from(sizes[k]) * u128::from(sizes[l])
                };
            }
        }

        Ok(ShardedBatchedSimulator {
            config: CountConfig::new(&protocol, q, n as u64),
            protocol,
            rng: seeded_rng(derive_seed(seed, 0)),
            interactions: 0,
            threads,
            epoch_cap,
            delta,
            shards,
            sizes,
            weights,
            alloc: Vec::new(),
            within: Vec::new(),
            pool: vec![0; q],
            init_pairs: Vec::new(),
            resp_pairs: Vec::new(),
        })
    }

    /// The population size `n`.
    #[must_use]
    pub fn population(&self) -> u64 {
        self.config.population()
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
        self.config.num_states()
    }

    /// The number of shards the population is partitioned into.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The worker-thread budget for the within-shard phase.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The epoch window length `W` in interactions.
    #[must_use]
    pub fn epoch_interactions(&self) -> u64 {
        self.epoch_cap
    }

    /// The current configuration as state counts (`counts[s]` agents in state
    /// `s`; sums to `n`).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        self.config.counts()
    }

    /// Number of agents currently in state `state`.
    #[must_use]
    pub fn count_of(&self, state: usize) -> u64 {
        self.config.count_of(state)
    }

    /// The number of currently occupied states (states holding ≥ 1 agent).
    #[must_use]
    pub fn occupied_states(&self) -> usize {
        self.config.occupied_states()
    }

    /// Output histogram of the current configuration, computed in `O(q)` over
    /// the occupied states.
    #[must_use]
    pub fn output_stats(&self) -> ConfigurationStats<P::Output> {
        self.config.output_stats(&self.protocol)
    }

    /// Move `k` agents from state `from` to state `to` — the sharded analogue
    /// of [`BatchedSimulator::transfer`] for experiment setup.  The moved
    /// agents' shards are drawn hypergeometrically, so the partition stays a
    /// uniform one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if either state is out of range
    /// or fewer than `k` agents are in `from`.
    pub fn transfer(&mut self, from: usize, to: usize, k: u64) -> Result<(), SimError> {
        self.config.check_transfer(from, to, k)?;
        let mut remaining_total = self.config.count_of(from);
        let mut need = k;
        for shard in &mut self.shards {
            if need == 0 {
                break;
            }
            let c = shard.count_of(from);
            if c == 0 {
                continue;
            }
            let take = conditional_class_draw(&mut self.rng, c, remaining_total, need);
            if take > 0 {
                shard.shard_access().config.move_agents(from, to, take);
            }
            need -= take;
            remaining_total -= c;
        }
        debug_assert_eq!(need, 0);
        self.config.move_agents(from, to, k);
        Ok(())
    }

    /// Replace the whole configuration (redistributed uniformly at random
    /// across the shards).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if `counts` has the wrong length
    /// or does not sum to the population size.
    pub fn set_counts(&mut self, counts: Vec<u64>) -> Result<(), SimError> {
        self.config.set_counts(counts)?;
        self.rebalance();
        Ok(())
    }

    /// Corrupt `k` agents chosen uniformly without replacement across the
    /// whole population: the victim count is split over the shards
    /// hypergeometrically (each shard is an equal-probability container for
    /// any given agent), then delegated to
    /// [`BatchedSimulator::corrupt`] per shard — so the corrupted
    /// configuration is distributed exactly as if the shards were one flat
    /// count vector.  Victims stay in their shard; the next epoch's
    /// rebalance re-partitions as usual.
    ///
    /// All randomness comes from the caller's `rng` — the engine's own
    /// stream (which drives epoch allocation) is untouched, so a fault plan
    /// perturbs the trajectory only through the corruption itself.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if `k` exceeds the population
    /// or `new_state` returns a state outside `0..q`.  The agents corrupted
    /// before the failure stay corrupted, and [`Self::counts`] reports them.
    pub fn corrupt(
        &mut self,
        k: u64,
        rng: &mut SmallRng,
        new_state: &mut dyn FnMut(usize, &mut SmallRng) -> usize,
    ) -> Result<(), SimError> {
        self.config.check_victims(k)?;
        let mut result = Ok(());
        let mut remaining_total = self.config.population();
        let mut need = k;
        for shard in &mut self.shards {
            if need == 0 {
                break;
            }
            let c = shard.population();
            let take = conditional_class_draw(rng, c, remaining_total, need);
            if take > 0 {
                result = shard.corrupt(take, rng, &mut *new_state);
                if result.is_err() {
                    break;
                }
            }
            need -= take;
            remaining_total -= c;
        }
        debug_assert!(result.is_err() || need == 0);
        // A failing shard may already have moved some agents, so the
        // aggregate is refreshed on the error path too.
        self.config
            .aggregate(self.shards.iter().map(BatchedSimulator::config));
        result
    }

    /// Execute one epoch window of exactly `w` interactions.
    fn run_epoch(&mut self, w: u64) {
        debug_assert!(w >= 1);
        let s = self.shards.len();

        // 1. Allocate the window's interactions over the S² categories.
        let mut alloc = std::mem::take(&mut self.alloc);
        multinomial(&mut self.rng, w, &self.weights, &mut alloc);

        // Symmetrised splitting: run (within, cross) or (cross, within) with
        // equal probability each epoch, so the first-order bias of collapsing
        // the window's interleaving cancels across epochs (the same trick
        // that upgrades Lie to Strang splitting; measurably removes the
        // ~3 % early-convergence drift the one-sided order shows on the
        // junta workload).
        let cross_first: bool = self.rng.gen();
        if cross_first {
            self.cross_phase(&alloc);
            self.within_phase(&alloc);
        } else {
            self.within_phase(&alloc);
            self.cross_phase(&alloc);
        }
        self.alloc = alloc;

        // 4. Refresh the aggregate view and re-partition.
        self.config
            .aggregate(self.shards.iter().map(BatchedSimulator::config));
        if s > 1 {
            self.rebalance();
        }
        self.interactions += w;
    }

    /// The within-shard half of an epoch, fanned out over worker threads.
    /// Shards use private RNGs, so thread scheduling cannot influence the
    /// trajectory.
    fn within_phase(&mut self, alloc: &[u64]) {
        let s = self.shards.len();
        let mut within = std::mem::take(&mut self.within);
        within.clear();
        within.extend((0..s).map(|k| alloc[k * s + k]));
        // Spawning is worth it only when each shard has real work: below
        // ~2¹⁸ interactions per shard the scoped-thread setup dominates the
        // within-phase itself.  Wall-clock-only decision — results are
        // identical either way.
        const SPAWN_MIN_INTERACTIONS: u64 = 1 << 18;
        let threads = if within.iter().copied().max().unwrap_or(0) < SPAWN_MIN_INTERACTIONS {
            1
        } else {
            self.threads
        };
        run_chunked(&mut self.shards, &within, threads, |shard, w_k| {
            shard.run(w_k);
        });
        self.within = within;
    }

    /// The cross-shard half of an epoch, on the master RNG in a fixed pair
    /// order.
    fn cross_phase(&mut self, alloc: &[u64]) {
        let s = self.shards.len();
        for k in 0..s {
            for l in 0..s {
                let c = alloc[k * s + l];
                if k != l && c > 0 {
                    self.resolve_cross(k, l, c);
                }
            }
        }
    }

    /// Resolve `c` cross-shard interactions with initiators in shard `k` and
    /// responders in shard `l`, in bulk chunks.
    ///
    /// A chunk draws its participants without replacement, so agent re-use
    /// *within* a chunk is suppressed (re-use across chunks is restored by
    /// merging between chunks).  The suppression bias scales with the
    /// sampling fraction `chunk/m`; capping chunks at `m/128` (< 1 % of
    /// either shard) keeps the junta/epidemic KS statistics within the
    /// equivalence thresholds where `m/2` chunks measurably distort them,
    /// at `O(q²)`-per-chunk cost that stays negligible next to the
    /// within-shard block work.
    fn resolve_cross(&mut self, k: usize, l: usize, c: u64) {
        debug_assert_ne!(k, l);
        let (shard_k, shard_l) = if k < l {
            let (left, right) = self.shards.split_at_mut(l);
            (&mut left[k], &mut right[0])
        } else {
            let (left, right) = self.shards.split_at_mut(k);
            (&mut right[0], &mut left[l])
        };
        let (m_k, m_l) = (self.sizes[k], self.sizes[l]);
        let acc_k = shard_k.shard_access();
        let acc_l = shard_l.shard_access();
        let chunk_cap = (m_k / 128).min(m_l / 128).max(1);

        let mut remaining = c;
        while remaining > 0 {
            let chunk = remaining.min(chunk_cap);
            // Initiator states: a uniform without-replacement draw from shard
            // k; responder states likewise from shard l (disjoint shards, so
            // the chunk's agents are pairwise distinct by construction).
            acc_k
                .config
                .take_sample(&mut self.rng, m_k, chunk, &mut self.init_pairs);
            acc_l
                .config
                .take_sample(&mut self.rng, m_l, chunk, &mut self.resp_pairs);
            // Pair the margins uniformly; initiators' post-states stay in
            // shard k, responders' in shard l.
            let (protocol, delta) = (&self.protocol, &self.delta);
            let (touched_k, touched_l) = (&mut *acc_k.touched, &mut *acc_l.touched);
            crate::block::pair_classes(
                &mut self.rng,
                &self.init_pairs,
                &mut self.resp_pairs,
                chunk,
                |i, j, mult| {
                    let (a, b) = delta.eval(protocol, i, j);
                    touched_k.add(a, mult);
                    touched_l.add(b, mult);
                },
            );
            acc_k.touched.merge_into(acc_k.config);
            acc_l.touched.merge_into(acc_l.config);
            #[cfg(feature = "strict-invariants")]
            {
                acc_k
                    .config
                    .assert_mass_conserved("sharded cross-block delta (initiator shard)");
                acc_l
                    .config
                    .assert_mass_conserved("sharded cross-block delta (responder shard)");
            }
            remaining -= chunk;
        }
    }

    /// Re-partition the aggregate configuration uniformly at random into the
    /// fixed shard sizes: shard `k` receives a multivariate-hypergeometric
    /// draw of `m_k` agents from the pool of agents not yet assigned.  The
    /// last shard's draw takes the whole rest of the pool, which consumes
    /// no randomness.
    fn rebalance(&mut self) {
        let mut pool = std::mem::take(&mut self.pool);
        let (counts, occupied) = (self.config.counts(), self.config.occupied());
        for &st in occupied {
            pool[st as usize] = counts[st as usize];
        }
        let mut remaining_total = self.config.population();
        for (shard, &m_k) in self.shards.iter_mut().zip(&self.sizes) {
            multivariate_hypergeometric_sparse(
                &mut self.rng,
                &pool,
                occupied,
                remaining_total,
                m_k,
                &mut self.init_pairs,
            );
            for &(st, c) in &self.init_pairs {
                pool[st as usize] -= c;
            }
            shard.shard_access().config.refill(&self.init_pairs);
            remaining_total -= m_k;
        }
        self.pool = pool;
    }

    /// Execute `budget` further interactions unconditionally.
    pub fn run(&mut self, budget: u64) {
        let mut remaining = budget;
        while remaining > 0 {
            let w = remaining.min(self.epoch_cap);
            self.run_epoch(w);
            remaining -= w;
        }
    }

    /// Run until `pred` holds (checked every `check_every` interactions, and
    /// once before the first step) or until `max_interactions` *total*
    /// interactions have been executed — the same contract as
    /// [`BatchedSimulator::run_until`].
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
        self.config.into_counts()
    }

    /// Serialize the engine core into `out` (shared by the top-level
    /// [`Checkpointable`] impl and the hybrid engine's sharded substrate,
    /// which sets `include_protocol = false` because the hybrid snapshot
    /// stores the protocol's state once itself).  The layout is documented
    /// on the [`Checkpointable`] impl.
    pub(crate) fn save_core(&self, include_protocol: bool, out: &mut Vec<u8>) {
        self.config.population().persist(out);
        self.config.num_states().persist(out);
        self.shards.len().persist(out);
        self.epoch_cap.persist(out);
        persist_rng(&self.rng, out);
        self.interactions.persist(out);
        if include_protocol {
            self.protocol.save_protocol_state().persist(out);
        }
        for shard in &self.shards {
            shard.save_core(false, out);
        }
        self.config.save_occupied(out);
    }

    /// Restore a core written by [`Self::save_core`], rebuilding the
    /// δ-table against the (restored) protocol state.
    pub(crate) fn restore_core(
        &mut self,
        r: &mut SnapshotReader<'_>,
        restore_protocol: bool,
    ) -> Result<(), SimError> {
        let n = r.read::<u64>()?;
        let q = r.read::<usize>()?;
        let s = r.read::<usize>()?;
        let epoch_cap = r.read::<u64>()?;
        let rng = unpersist_rng(r)?;
        let interactions = r.read::<u64>()?;
        let protocol_bytes = if restore_protocol {
            Some(r.read::<Vec<u8>>()?)
        } else {
            None
        };
        self.config.check_shape(n, q)?;
        if s != self.shards.len() {
            return Err(SimError::SnapshotMismatch {
                reason: format!(
                    "snapshot has {s} shards, simulator has {} — the partition \
                     shapes the trajectory",
                    self.shards.len()
                ),
            });
        }
        if epoch_cap != self.epoch_cap {
            return Err(SimError::SnapshotMismatch {
                reason: format!(
                    "snapshot epoch window {epoch_cap} != simulator epoch window {} \
                     — the window shapes the trajectory",
                    self.epoch_cap
                ),
            });
        }
        // Protocol state first: the shard cores rebuild their δ-tables
        // against the restored interner contents.
        if let Some(protocol_bytes) = protocol_bytes {
            self.protocol.restore_protocol_state(&protocol_bytes)?;
        }
        for shard in &mut self.shards {
            shard.restore_core(r, false)?;
        }
        self.config
            .restore_occupied(r, n, q, assigned_states(&self.protocol))?;
        self.rng = rng;
        self.interactions = interactions;
        self.delta = DeltaTable::new(&self.protocol)?;
        Ok(())
    }
}

/// Checkpointing for the sharded engine.
///
/// Payload layout (engine tag
/// [`ENGINE_SHARDED`]):
///
/// ```text
/// u64              population n
/// u64              state-space size q
/// u64              shard count S
/// u64              epoch window length W
/// [u64; 4]         master RNG state
/// u64              total interactions executed
/// Vec<u8>          protocol state (stored once: all shard copies share it;
///                  absent when the hybrid engine stores this core)
/// S × shard core   per-shard BatchedSimulator cores, without protocol bytes
/// Vec<(u32, u64)>  aggregate (state, count) in occupied-list order —
///                  rebalancing iterates this exact order, so it is stored
///                  verbatim rather than re-derived from the shards
/// ```
///
/// There is no persistent mid-epoch state: epochs are carved out of each
/// `run` call's budget, so a snapshot taken between `run` calls sits at an
/// epoch-window boundary of the *budget schedule*, wherever that lands
/// relative to the `W` grid.  `S` and `W` are validated on restore (they
/// shape the trajectory); the thread budget is not (it never does).
impl<P: DenseProtocol + Clone + Send> Checkpointable for ShardedBatchedSimulator<P> {
    fn save_state(&self) -> EngineSnapshot {
        let mut payload = Vec::new();
        self.save_core(true, &mut payload);
        EngineSnapshot::new(ENGINE_SHARDED, payload)
    }

    fn restore_state(&mut self, snapshot: &EngineSnapshot) -> Result<(), SimError> {
        snapshot.expect_engine(ENGINE_SHARDED, "the sharded engine")?;
        let mut r = snapshot.reader();
        self.restore_core(&mut r, true)?;
        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Token-conserving drift (state index = number of tokens held).
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

    fn config(shards: usize, threads: usize) -> ShardedConfig {
        ShardedConfig {
            shards,
            threads,
            epoch_interactions: None,
        }
    }

    #[test]
    fn rejects_tiny_population_and_zero_epoch() {
        assert_eq!(
            ShardedBatchedSimulator::new(Rumor, 1, 0, config(4, 1)).err(),
            Some(SimError::PopulationTooSmall { n: 1 })
        );
        assert!(matches!(
            ShardedBatchedSimulator::new(
                Rumor,
                100,
                0,
                ShardedConfig {
                    epoch_interactions: Some(0),
                    ..ShardedConfig::default()
                }
            ),
            Err(SimError::InvalidParameter {
                name: "epoch_interactions",
                ..
            })
        ));
    }

    #[test]
    fn shard_count_is_clamped_so_every_shard_has_two_agents() {
        let sim = ShardedBatchedSimulator::new(Rumor, 5, 0, config(16, 1)).unwrap();
        assert_eq!(sim.shards(), 2);
        let sim = ShardedBatchedSimulator::new(Rumor, 2, 0, config(16, 1)).unwrap();
        assert_eq!(sim.shards(), 1);
        let sim = ShardedBatchedSimulator::new(Rumor, 1000, 0, config(7, 1)).unwrap();
        assert_eq!(sim.shards(), 7);
        assert_eq!(sim.sizes.iter().sum::<u64>(), 1000);
        assert!(sim.sizes.iter().all(|&m| (142..=143).contains(&m)));
    }

    #[test]
    fn run_executes_exactly_the_budget() {
        let mut sim = ShardedBatchedSimulator::new(Rumor, 10_000, 3, config(4, 1)).unwrap();
        sim.transfer(0, 1, 1).unwrap();
        sim.run(123_456);
        assert_eq!(sim.interactions(), 123_456);
    }

    #[test]
    fn counts_always_sum_to_n_and_tokens_are_conserved() {
        let mut sim = ShardedBatchedSimulator::new(TokenDrift, 3000, 7, config(4, 1)).unwrap();
        let tokens = |s: &ShardedBatchedSimulator<TokenDrift>| -> u64 {
            s.counts()
                .iter()
                .enumerate()
                .map(|(st, c)| st as u64 * c)
                .sum()
        };
        let before = tokens(&sim);
        for _ in 0..20 {
            sim.run(10_000);
            assert_eq!(sim.counts().iter().sum::<u64>(), 3000);
            assert_eq!(tokens(&sim), before);
            let per_shard: u64 = sim
                .shards
                .iter()
                .map(|sh| sh.counts().iter().sum::<u64>())
                .sum();
            assert_eq!(per_shard, 3000, "shards must partition the population");
            for (shard, &m) in sim.shards.iter().zip(&sim.sizes) {
                assert_eq!(shard.counts().iter().sum::<u64>(), m);
            }
        }
    }

    #[test]
    fn trajectory_is_independent_of_thread_count() {
        let mut reference: Option<Vec<u64>> = None;
        for threads in [1usize, 2, 4, 8] {
            let mut sim =
                ShardedBatchedSimulator::new(TokenDrift, 2048, 99, config(4, threads)).unwrap();
            sim.run(200_000);
            let counts = sim.into_counts();
            match &reference {
                None => reference = Some(counts),
                Some(r) => assert_eq!(&counts, r, "threads = {threads} diverged"),
            }
        }
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let mut a = ShardedBatchedSimulator::new(TokenDrift, 1024, 5, config(8, 2)).unwrap();
        let mut b = ShardedBatchedSimulator::new(TokenDrift, 1024, 5, config(8, 2)).unwrap();
        a.run(100_000);
        b.run(100_000);
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.interactions(), b.interactions());
    }

    #[test]
    fn epidemic_reaches_everyone_in_n_log_n_time() {
        let n = 100_000u64;
        let mut sim = ShardedBatchedSimulator::new(Rumor, n as usize, 11, config(8, 1)).unwrap();
        sim.transfer(0, 1, 1).unwrap();
        let outcome = sim.run_until(|s| s.count_of(1) == n, n, u64::MAX >> 1);
        let t = outcome.expect_converged("sharded epidemic");
        let nf = n as f64;
        assert!(t >= n - 1);
        assert!(
            (t as f64) < 8.0 * nf * nf.ln(),
            "epidemic took {t} interactions, far beyond O(n log n)"
        );
    }

    #[test]
    fn single_shard_degenerates_to_the_batched_process() {
        // S = 1: no cross-shard work, no rebalancing — still a correct
        // population process.
        let mut sim = ShardedBatchedSimulator::new(Rumor, 5000, 13, config(1, 1)).unwrap();
        sim.transfer(0, 1, 1).unwrap();
        let outcome = sim.run_until(|s| s.count_of(1) == 5000, 5000, u64::MAX >> 1);
        assert!(outcome.converged());
    }

    #[test]
    fn transfer_and_set_counts_validate() {
        let mut sim = ShardedBatchedSimulator::new(Rumor, 10, 0, config(2, 1)).unwrap();
        assert!(sim.transfer(0, 1, 11).is_err());
        assert!(sim.transfer(0, 7, 1).is_err());
        assert!(sim.set_counts(vec![5, 4]).is_err());
        assert!(sim.set_counts(vec![5, 5, 0]).is_err());
        assert!(sim.set_counts(vec![4, 6]).is_ok());
        assert_eq!(sim.count_of(1), 6);
        let shard_total: u64 = sim.shards.iter().map(|sh| sh.count_of(1)).sum();
        assert_eq!(shard_total, 6, "set_counts must distribute to the shards");
        sim.transfer(1, 0, 6).unwrap();
        assert_eq!(sim.count_of(0), 10);
    }

    #[test]
    fn run_until_contract_matches_the_batched_engine() {
        let mut sim = ShardedBatchedSimulator::new(Rumor, 100, 1, config(2, 1)).unwrap();
        let outcome = sim.run_until(|_| true, 10, 1000);
        assert_eq!(outcome, RunOutcome::Converged { interactions: 0 });
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
    fn output_stats_track_the_aggregate_configuration() {
        let mut sim = ShardedBatchedSimulator::new(Rumor, 10_000, 9, config(8, 1)).unwrap();
        sim.transfer(0, 1, 123).unwrap();
        let stats = sim.output_stats();
        assert_eq!(stats.population(), 10_000);
        assert_eq!(stats.count_of(&true), 123);
        assert_eq!(stats.count_of(&false), 9877);
        assert_eq!(sim.occupied_states(), 2);
    }

    #[test]
    fn short_epochs_match_the_exact_regime() {
        // W ≤ √n: the epoch approximation is exact by the birthday bound; the
        // run must still make correct progress (rumour saturates).
        let cfg = ShardedConfig {
            shards: 4,
            threads: 1,
            epoch_interactions: Some(50),
        };
        let mut sim = ShardedBatchedSimulator::new(Rumor, 4096, 17, cfg).unwrap();
        sim.transfer(0, 1, 1).unwrap();
        let outcome = sim.run_until(|s| s.count_of(1) == 4096, 4096, u64::MAX >> 1);
        assert!(outcome.converged());
    }

    #[test]
    fn snapshot_round_trip_is_identity_and_replay_is_bit_identical() {
        // Reference: one uninterrupted run.  Victim: same chunk schedule, but
        // serialized through bytes and restored into a fresh simulator at a
        // mid-run boundary that does not align with the epoch-window grid.
        let cfg = ShardedConfig {
            shards: 4,
            threads: 2,
            epoch_interactions: Some(997),
        };
        let chunks = [10_007u64, 5_003, 7_919];
        let mut reference = ShardedBatchedSimulator::new(TokenDrift, 2048, 99, cfg).unwrap();
        for &c in &chunks {
            reference.run(c);
        }

        let mut victim = ShardedBatchedSimulator::new(TokenDrift, 2048, 99, cfg).unwrap();
        victim.run(chunks[0]);
        let bytes = victim.save_state().to_bytes();
        drop(victim);

        let mut resumed = ShardedBatchedSimulator::new(TokenDrift, 2048, 1234, cfg).unwrap();
        resumed.run(41); // desync before restore to prove restore overwrites everything
        let snap = EngineSnapshot::from_bytes(&bytes).unwrap();
        resumed.restore_state(&snap).unwrap();
        assert_eq!(resumed.interactions(), chunks[0]);

        for &c in &chunks[1..] {
            resumed.run(c);
        }
        assert_eq!(resumed.interactions(), reference.interactions());
        assert_eq!(resumed.counts(), reference.counts());
        // Snapshot bytes are a pure function of the trajectory, so byte
        // equality certifies full observable-state equality (RNGs, per-shard
        // configurations, occupancy order — everything).
        assert_eq!(
            resumed.save_state().to_bytes(),
            reference.save_state().to_bytes()
        );
    }

    #[test]
    fn snapshot_restore_validates_population_partition_and_window() {
        let sim = ShardedBatchedSimulator::new(TokenDrift, 1024, 5, config(4, 1)).unwrap();
        let snap = sim.save_state();

        let mut other_n = ShardedBatchedSimulator::new(TokenDrift, 2048, 5, config(4, 1)).unwrap();
        assert!(matches!(
            other_n.restore_state(&snap),
            Err(SimError::SnapshotMismatch { .. })
        ));

        let mut other_s = ShardedBatchedSimulator::new(TokenDrift, 1024, 5, config(8, 1)).unwrap();
        assert!(matches!(
            other_s.restore_state(&snap),
            Err(SimError::SnapshotMismatch { .. })
        ));

        let cfg_w = ShardedConfig {
            shards: 4,
            threads: 1,
            epoch_interactions: Some(64),
        };
        let mut other_w = ShardedBatchedSimulator::new(TokenDrift, 1024, 5, cfg_w).unwrap();
        assert!(matches!(
            other_w.restore_state(&snap),
            Err(SimError::SnapshotMismatch { .. })
        ));

        // A failed restore must leave the target able to keep running.
        other_w.run(100);
        assert_eq!(other_w.interactions(), 100);
    }
}
