//! Engine selection: one name for "run this dense protocol on a population
//! of `n`", whichever simulator serves that regime best.
//!
//! Four engines drive the same stochastic process:
//!
//! | engine | representation | sweet spot |
//! |---|---|---|
//! | [`Engine::Sequential`] | per-agent `Vec<State>` | `n ≲ 3·10³` (no per-block overhead) |
//! | [`Engine::Batched`] | state counts, `Θ(√n)` collision-free blocks | `3·10³ ≲ n ≲ 10⁷` |
//! | [`Engine::Sharded`] | counts split over `S` shards, epoch-parallel | `n ≳ 10⁷`, multicore |
//! | [`Engine::Hybrid`] | counts ↔ per-agent, auto-switching on occupancy | dynamic protocols whose state census blows up mid-run |
//!
//! [`Engine::Auto`] picks sequential below [`SEQUENTIAL_CROSSOVER`] (where
//! the measured batched speedup in `BENCH_batched.json` drops under 1×); at
//! and above it the resolution is **protocol-aware**
//! ([`Engine::resolve_for`]): dynamic (interned) protocols get the hybrid
//! engine — their occupancy profile can change mid-run, which is exactly the
//! signal the hybrid monitor watches — while statically encoded protocols
//! keep the batched engine.  [`DenseSimulator`] is the enum-dispatched
//! simulator the experiment harness and benchmark tooling drive, so engine
//! choice is a CLI argument rather than a code path.
//!
//! The sequential variant ([`DenseSequential`]) *is* a hybrid per-agent
//! stint ([`crate::stint`]) that never migrates, built by the same code
//! from the same protocol hook: native structs for protocols with an
//! [`AgentCodec`](crate::stint::AgentCodec), `u32` indices through
//! [`IndexCodec`](crate::stint::IndexCodec) otherwise.  Driven alike, the
//! two engines hold equal agents.

use crate::batched::BatchedSimulator;
use crate::config::ConfigurationStats;
use crate::convergence::{self, RunOutcome};
use crate::dense::DenseProtocol;
use crate::error::SimError;
use crate::hybrid::{HybridLegs, HybridSimulator};
use crate::sharded::{ShardedBatchedSimulator, ShardedConfig};
use crate::snapshot::{Checkpointable, EngineSnapshot, PersistState, ENGINE_DENSE_SEQUENTIAL};
use crate::stint::{build_stint, BoxedAgentStint, StintSource};

use rand::rngs::SmallRng;

/// Population size below which the sequential engine out-runs the batched
/// one: per-interaction cost beats per-block overhead while blocks are short
/// (`BENCH_batched.json` measures batched at 0.99× sequential at `n = 10³`
/// and 5.17× at `n = 10⁴` on the epidemic; the constant sits between the
/// two).
pub const SEQUENTIAL_CROSSOVER: usize = 3_000;

/// Which simulation engine to run a dense protocol on.
///
/// # Examples
///
/// [`Engine::Auto`] resolves against the population size and constructs the
/// winning engine through [`DenseSimulator`]:
///
/// ```rust
/// use ppsim::{DenseProtocol, DenseSimulator, Engine};
///
/// #[derive(Clone)]
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
/// assert_eq!(Engine::Auto.resolve(100), Engine::Sequential);
/// assert_eq!(Engine::Auto.resolve(1_000_000), Engine::Batched);
///
/// let mut sim = DenseSimulator::new(Engine::Auto, Rumor, 50_000, 42)?;
/// assert_eq!(sim.engine_name(), "batched");
/// sim.transfer(0, 1, 1)?;
/// let outcome = sim.run_until(|s| s.count_of(1) == s.population(), 50_000, u64::MAX >> 1);
/// assert!(outcome.converged());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The per-agent sequential engine ([`DenseSequential`]: native structs
    /// through the protocol's codec, or `u32` indices through
    /// [`IndexCodec`](crate::stint::IndexCodec)).
    Sequential,
    /// The single-threaded batched count-based engine ([`BatchedSimulator`]).
    Batched,
    /// The sharded batched engine ([`ShardedBatchedSimulator`]).
    Sharded {
        /// Number of shards (see [`ShardedConfig::shards`]).
        shards: usize,
        /// Worker threads; `0` = available parallelism
        /// (see [`ShardedConfig::threads`]).
        threads: usize,
    },
    /// The auto-switching hybrid engine ([`HybridSimulator`] on the batched
    /// substrate).
    Hybrid,
    /// Choose automatically from the population size and the protocol:
    /// sequential below [`SEQUENTIAL_CROSSOVER`]; at and above it, hybrid
    /// for dynamic (interned) protocols and batched for static encodings
    /// (see [`Engine::resolve_for`]).
    Auto,
}

impl Engine {
    /// Resolve [`Engine::Auto`] against a population size alone, assuming a
    /// statically encoded protocol; concrete choices pass through unchanged.
    ///
    /// Prefer [`Engine::resolve_for`] when the protocol is at hand —
    /// [`DenseSimulator::new`] resolves through it, so dynamic protocols get
    /// the hybrid engine.
    #[must_use]
    pub fn resolve(self, n: usize) -> Engine {
        self.resolve_for(n, false)
    }

    /// Resolve [`Engine::Auto`] against a population size and the protocol's
    /// [`dynamic`](DenseProtocol::dynamic) flag; concrete choices pass
    /// through unchanged.
    ///
    /// Dynamic (interned) protocols above the crossover get
    /// [`Engine::Hybrid`]: their realised state space grows with the run, so
    /// a representation chosen up front can degenerate mid-run — the hybrid
    /// engine's occupancy monitor handles exactly that.  Static encodings
    /// keep [`Engine::Batched`] (their occupancy is bounded by a `q` known
    /// up front, and the caller opts into [`Engine::Sharded`] explicitly).
    #[must_use]
    pub fn resolve_for(self, n: usize, dynamic: bool) -> Engine {
        match self {
            Engine::Auto => {
                if n < SEQUENTIAL_CROSSOVER {
                    Engine::Sequential
                } else if dynamic {
                    Engine::Hybrid
                } else {
                    Engine::Batched
                }
            }
            concrete => concrete,
        }
    }

    /// A short stable name for reports and JSON output.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Sequential => "sequential",
            Engine::Batched => "batched",
            Engine::Sharded { .. } => "sharded",
            Engine::Hybrid => "hybrid",
            Engine::Auto => "auto",
        }
    }
}

/// A dense protocol running on whichever engine [`Engine`] selected, behind
/// one driving surface.
///
/// The protocol bound is the union of the engines' needs (`Clone + Send` for
/// the sharded engine's per-shard copies).  Convergence predicates receive
/// `&DenseSimulator`, so the same experiment code drives all four engines;
/// note that [`Self::count_of`] and [`Self::counts`] scan the per-agent
/// state vector in `O(n)` on the sequential engine — cheap in exactly the
/// small-`n` regime that engine is for.
#[derive(Debug, Clone)]
pub enum DenseSimulator<P: DenseProtocol + Clone + Send> {
    /// Sequential per-agent execution.
    Sequential(DenseSequential<P>),
    /// Batched count-based execution.
    Batched(BatchedSimulator<P>),
    /// Sharded batched execution.
    Sharded(ShardedBatchedSimulator<P>),
    /// Hybrid dense ↔ per-agent execution (boxed: the hybrid simulator
    /// carries both representations' bookkeeping and would otherwise
    /// dominate the enum's size).
    Hybrid(Box<HybridSimulator<P>>),
}

impl<P: DenseProtocol + Clone + Send + 'static> DenseSimulator<P> {
    /// Create a simulator for `n` agents on the engine `engine` resolves to.
    ///
    /// # Errors
    ///
    /// Propagates the selected engine's constructor errors
    /// ([`SimError::PopulationTooSmall`], [`SimError::InvalidParameter`]).
    pub fn new(engine: Engine, protocol: P, n: usize, seed: u64) -> Result<Self, SimError> {
        match engine.resolve_for(n, protocol.dynamic()) {
            Engine::Sequential => Ok(DenseSimulator::Sequential(DenseSequential::new(
                protocol, n, seed,
            )?)),
            Engine::Batched => Ok(DenseSimulator::Batched(BatchedSimulator::new(
                protocol, n, seed,
            )?)),
            Engine::Sharded { shards, threads } => {
                Ok(DenseSimulator::Sharded(ShardedBatchedSimulator::new(
                    protocol,
                    n,
                    seed,
                    ShardedConfig {
                        shards,
                        threads,
                        epoch_interactions: None,
                    },
                )?))
            }
            Engine::Hybrid => Ok(DenseSimulator::Hybrid(Box::new(HybridSimulator::new(
                protocol, n, seed,
            )?))),
            Engine::Auto => unreachable!("resolve_for() never returns Auto"),
        }
    }

    /// Run `f` over the configuration's state counts, borrowing them in
    /// place on the engines that already store the configuration densely —
    /// unlike [`Self::counts`], which copies a capacity-sized vector (tens
    /// of MB for large interned protocols).  The sequential engine (and the
    /// hybrid engine in its per-agent mode) assembles a temporary.
    pub fn with_counts<R>(&self, f: impl FnOnce(&[u64]) -> R) -> R {
        match self {
            DenseSimulator::Sequential(_) => f(&self.counts()),
            DenseSimulator::Batched(s) => f(s.counts()),
            DenseSimulator::Sharded(s) => f(s.counts()),
            DenseSimulator::Hybrid(s) => s.with_counts(f),
        }
    }

    /// The hybrid engine's representation migrations as total-interaction
    /// counts, in order; empty on every other engine.  The benchmark tooling
    /// emits these as the measured switch points.
    #[must_use]
    pub fn switch_points(&self) -> Vec<u64> {
        match self {
            DenseSimulator::Hybrid(s) => s.switches().iter().map(|e| e.interactions).collect(),
            _ => Vec::new(),
        }
    }

    /// Per-leg accounting of the hybrid engine ([`HybridLegs`]: interaction
    /// counts, wall-clock seconds and the stint kind per representation).
    /// `None` on every other engine (they have a single leg, reported by the
    /// overall counters).  The bench tooling turns this into the per-leg
    /// throughput columns (`dense_mips`, `agent_mips`).
    #[must_use]
    pub fn hybrid_legs(&self) -> Option<HybridLegs> {
        match self {
            DenseSimulator::Hybrid(s) => Some(s.legs()),
            _ => None,
        }
    }

    /// The engine actually running, as its stable report name.
    #[must_use]
    pub fn engine_name(&self) -> &'static str {
        match self {
            DenseSimulator::Sequential(_) => "sequential",
            DenseSimulator::Batched(_) => "batched",
            DenseSimulator::Sharded(_) => "sharded",
            DenseSimulator::Hybrid(_) => "hybrid",
        }
    }

    /// The population size `n`.
    #[must_use]
    pub fn population(&self) -> u64 {
        match self {
            DenseSimulator::Sequential(s) => s.stint.population() as u64,
            DenseSimulator::Batched(s) => s.population(),
            DenseSimulator::Sharded(s) => s.population(),
            DenseSimulator::Hybrid(s) => s.population(),
        }
    }

    /// The number of interactions executed so far.
    #[must_use]
    pub fn interactions(&self) -> u64 {
        match self {
            DenseSimulator::Sequential(s) => s.stint.interactions(),
            DenseSimulator::Batched(s) => s.interactions(),
            DenseSimulator::Sharded(s) => s.interactions(),
            DenseSimulator::Hybrid(s) => s.interactions(),
        }
    }

    /// Number of agents currently in state `state` (`O(q)` on the counts
    /// engines, `O(n)` on the sequential one).
    #[must_use]
    pub fn count_of(&self, state: usize) -> u64 {
        match self {
            DenseSimulator::Sequential(s) => s.stint.count_of(state),
            DenseSimulator::Batched(s) => s.count_of(state),
            DenseSimulator::Sharded(s) => s.count_of(state),
            DenseSimulator::Hybrid(s) => s.count_of(state),
        }
    }

    /// The configuration as state counts (owned; assembled by scanning on
    /// the sequential engine).
    #[must_use]
    pub fn counts(&self) -> Vec<u64> {
        match self {
            DenseSimulator::Sequential(s) => s.stint.counts(),
            DenseSimulator::Batched(s) => s.counts().to_vec(),
            DenseSimulator::Sharded(s) => s.counts().to_vec(),
            DenseSimulator::Hybrid(s) => s.counts(),
        }
    }

    /// Output histogram of the current configuration.
    #[must_use]
    pub fn output_stats(&self) -> ConfigurationStats<P::Output> {
        match self {
            DenseSimulator::Sequential(s) => s.stint.output_stats(),
            DenseSimulator::Batched(s) => s.output_stats(),
            DenseSimulator::Sharded(s) => s.output_stats(),
            DenseSimulator::Hybrid(s) => s.output_stats(),
        }
    }

    /// Move `k` agents from state `from` to state `to` (experiment setup).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if either state is out of range
    /// or fewer than `k` agents are in `from`.
    pub fn transfer(&mut self, from: usize, to: usize, k: u64) -> Result<(), SimError> {
        match self {
            DenseSimulator::Sequential(s) => s.stint.transfer(from, to, k),
            DenseSimulator::Batched(s) => s.transfer(from, to, k),
            DenseSimulator::Sharded(s) => s.transfer(from, to, k),
            DenseSimulator::Hybrid(s) => s.transfer(from, to, k),
        }
    }

    /// The protocol's state-space size `q` (capacity for dynamic protocols).
    #[must_use]
    pub fn num_states(&self) -> usize {
        match self {
            DenseSimulator::Sequential(s) => s.protocol.num_states(),
            DenseSimulator::Batched(s) => s.num_states(),
            DenseSimulator::Sharded(s) => s.num_states(),
            DenseSimulator::Hybrid(s) => s.num_states(),
        }
    }

    /// Replace the whole configuration — the entry point of adversarial
    /// initialization ([`crate::adversary::InitStrategy`]).  The sequential
    /// engine rewrites its agents in state-index order (the hybrid
    /// hand-off's layout), keeping its schedule RNG and interaction count;
    /// the counts engines swap their count vectors.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if `counts` has the wrong
    /// length or does not sum to the population size.
    pub fn set_counts(&mut self, counts: Vec<u64>) -> Result<(), SimError> {
        match self {
            DenseSimulator::Sequential(s) => s.stint.set_counts(&counts),
            DenseSimulator::Batched(s) => s.set_counts(counts),
            DenseSimulator::Sharded(s) => s.set_counts(counts),
            DenseSimulator::Hybrid(s) => s.set_counts(counts),
        }
    }

    /// Corrupt `k` agents chosen uniformly without replacement: each
    /// victim's state is replaced by `new_state(current, rng)` — transient
    /// fault injection ([`crate::adversary::FaultPlan`]), exact in every
    /// representation (count mass moves, shard-split draws, native-struct
    /// overwrites through the codec).
    ///
    /// All randomness comes from the caller's `rng`; the engine's own
    /// scheduling streams are untouched.  On the hybrid engine the occupancy
    /// monitor's in-progress streak is discarded.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if `k` exceeds the population
    /// or `new_state` returns a state outside the state space.
    pub fn corrupt(
        &mut self,
        k: u64,
        rng: &mut SmallRng,
        new_state: &mut dyn FnMut(usize, &mut SmallRng) -> usize,
    ) -> Result<(), SimError> {
        match self {
            DenseSimulator::Sequential(s) => s.stint.corrupt(k, rng, new_state),
            DenseSimulator::Batched(s) => s.corrupt(k, rng, new_state),
            DenseSimulator::Sharded(s) => s.corrupt(k, rng, new_state),
            DenseSimulator::Hybrid(s) => s.corrupt(k, rng, new_state),
        }
    }

    /// Reset any convergence-probing state that predates a fault event: on
    /// the hybrid engine this discards the occupancy monitor's in-progress
    /// observation streak; the other engines carry no such state and this is
    /// a no-op.  [`crate::adversary::AdversarialRun`] calls this at every
    /// injection.
    pub fn reset_monitor(&mut self) {
        if let DenseSimulator::Hybrid(s) = self {
            s.reset_monitor();
        }
    }

    /// Execute `budget` further interactions unconditionally.
    pub fn run(&mut self, budget: u64) {
        match self {
            DenseSimulator::Sequential(s) => s.stint.run(budget),
            DenseSimulator::Batched(s) => s.run(budget),
            DenseSimulator::Sharded(s) => s.run(budget),
            DenseSimulator::Hybrid(s) => s.run(budget),
        }
    }

    /// Run until `pred` holds (checked every `check_every` interactions, and
    /// once before the first step) or until `max_interactions` *total*
    /// interactions have been executed — the shared `run_until` contract of
    /// the four engines.
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

/// The sequential engine of [`DenseSimulator`], whose methods forward to
/// it: a dense protocol and the one per-agent stint it runs for the whole
/// run, built as the hybrid engine builds its per-agent legs (see
/// [`crate::stint`]).  For an interned protocol with a codec, states reach
/// the interner only at the stint's boundaries (`counts`, `transfer`,
/// `set_counts`, `corrupt`), not at every interaction.
#[derive(Debug, Clone)]
pub struct DenseSequential<P: DenseProtocol + Clone + Send> {
    protocol: P,
    stint: BoxedAgentStint<P::Output>,
}

impl<P: DenseProtocol + Clone + Send + 'static> DenseSequential<P> {
    /// `n` agents, all in the protocol's initial state, with the schedule
    /// RNG seeded by `seed`.
    fn new(protocol: P, n: usize, seed: u64) -> Result<Self, SimError> {
        if n < 2 {
            return Err(SimError::PopulationTooSmall { n });
        }
        // Indices past the initial one hold no agents, so the vector stops
        // there instead of spanning the state space.
        let mut counts = vec![0u64; protocol.initial_state() + 1];
        counts[protocol.initial_state()] = n as u64;
        let stint = build_stint(
            &protocol,
            StintSource::Counts {
                counts: &counts,
                seed,
            },
        )?;
        Ok(DenseSequential { protocol, stint })
    }
}

/// Checkpointing for the sequential engine, under engine tag
/// [`ENGINE_DENSE_SEQUENTIAL`]:
///
/// ```text
/// Vec<u8>   protocol state (DenseProtocol::save_protocol_state)
/// Vec<u8>   the stint (AgentStint::save_stint): u64 interactions, RNG, agents
/// ```
///
/// A restore installs the protocol state, rebuilds the stint the way
/// construction builds it, then checks the population.
impl<P: DenseProtocol + Clone + Send + 'static> Checkpointable for DenseSequential<P> {
    fn save_state(&self) -> EngineSnapshot {
        let mut payload = Vec::new();
        self.protocol.save_protocol_state().persist(&mut payload);
        let mut stint = Vec::new();
        self.stint.save_stint(&mut stint);
        stint.persist(&mut payload);
        EngineSnapshot::new(ENGINE_DENSE_SEQUENTIAL, payload)
    }

    fn restore_state(&mut self, snapshot: &EngineSnapshot) -> Result<(), SimError> {
        snapshot.expect_engine(ENGINE_DENSE_SEQUENTIAL, "the sequential engine")?;
        let mut r = snapshot.reader();
        let protocol_bytes = r.read::<Vec<u8>>()?;
        let stint_bytes = r.read::<Vec<u8>>()?;
        r.finish()?;
        self.protocol.restore_protocol_state(&protocol_bytes)?;
        let stint = build_stint(&self.protocol, StintSource::Saved(&stint_bytes))?;
        if stint.population() != self.stint.population() {
            return Err(SimError::SnapshotMismatch {
                reason: format!(
                    "snapshot population {} != simulator population {}",
                    stint.population(),
                    self.stint.population()
                ),
            });
        }
        self.stint = stint;
        Ok(())
    }
}

/// Checkpointing through the engine-dispatch layer: each variant forwards to
/// its engine's [`Checkpointable`] implementation, so a `DenseSimulator`
/// snapshot carries the underlying engine's tag — restoring it into a
/// `DenseSimulator` running a *different* engine fails with
/// [`SimError::SnapshotMismatch`] (trajectories are engine-specific, so a
/// cross-engine restore could never replay bit-identically).
///
/// The sequential variant's layout is on [`DenseSequential`]'s
/// `Checkpointable` impl.
///
/// Every engine (the sequential one, the count-based ones and both modes of
/// the hybrid engine) rejects a snapshot naming a state index the restored
/// protocol state never assigned — an interned protocol's index beyond its
/// census — with [`SimError::SnapshotCorrupt`], instead of accepting it and
/// panicking at the next interaction that reads the index.
impl<P: DenseProtocol + Clone + Send + 'static> Checkpointable for DenseSimulator<P> {
    fn save_state(&self) -> EngineSnapshot {
        match self {
            DenseSimulator::Sequential(s) => s.save_state(),
            DenseSimulator::Batched(s) => s.save_state(),
            DenseSimulator::Sharded(s) => s.save_state(),
            DenseSimulator::Hybrid(s) => s.save_state(),
        }
    }

    fn restore_state(&mut self, snapshot: &EngineSnapshot) -> Result<(), SimError> {
        match self {
            DenseSimulator::Sequential(s) => s.restore_state(snapshot),
            DenseSimulator::Batched(s) => s.restore_state(snapshot),
            DenseSimulator::Sharded(s) => s.restore_state(snapshot),
            DenseSimulator::Hybrid(s) => s.restore_state(snapshot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn auto_picks_sequential_below_the_crossover_and_batched_above() {
        // Pins the measured heuristic: BENCH_batched.json has batched at
        // 0.99× sequential at n = 10³ and 5.17× at n = 10⁴.
        assert_eq!(Engine::Auto.resolve(1_000), Engine::Sequential);
        assert_eq!(
            Engine::Auto.resolve(SEQUENTIAL_CROSSOVER - 1),
            Engine::Sequential
        );
        assert_eq!(Engine::Auto.resolve(SEQUENTIAL_CROSSOVER), Engine::Batched);
        assert_eq!(Engine::Auto.resolve(1_000_000), Engine::Batched);
        // Concrete engines pass through untouched.
        assert_eq!(Engine::Batched.resolve(10), Engine::Batched);
        let sharded = Engine::Sharded {
            shards: 4,
            threads: 2,
        };
        assert_eq!(sharded.resolve(10_000_000), sharded);
    }

    #[test]
    fn auto_resolution_matrix_is_protocol_aware() {
        // The full (n, dynamic) → engine matrix of Engine::Auto:
        //
        //                  | static          | dynamic
        //   n < crossover  | Sequential      | Sequential
        //   n ≥ crossover  | Batched         | Hybrid
        for dynamic in [false, true] {
            assert_eq!(
                Engine::Auto.resolve_for(SEQUENTIAL_CROSSOVER - 1, dynamic),
                Engine::Sequential,
                "below the crossover the per-agent engine always wins"
            );
        }
        assert_eq!(
            Engine::Auto.resolve_for(SEQUENTIAL_CROSSOVER, false),
            Engine::Batched
        );
        assert_eq!(
            Engine::Auto.resolve_for(SEQUENTIAL_CROSSOVER, true),
            Engine::Hybrid
        );
        assert_eq!(Engine::Auto.resolve_for(1_000_000, true), Engine::Hybrid);
        // `resolve` is the static-protocol shorthand.
        assert_eq!(Engine::Auto.resolve(1_000_000), Engine::Batched);
        // Concrete engines ignore the dynamic flag entirely.
        for engine in [
            Engine::Sequential,
            Engine::Batched,
            Engine::Hybrid,
            Engine::Sharded {
                shards: 2,
                threads: 1,
            },
        ] {
            assert_eq!(engine.resolve_for(1_000_000, true), engine);
            assert_eq!(engine.resolve_for(100, false), engine);
        }
    }

    #[test]
    fn auto_constructs_the_resolved_engine() {
        let small = DenseSimulator::new(Engine::Auto, Rumor, 100, 0).unwrap();
        assert_eq!(small.engine_name(), "sequential");
        let big = DenseSimulator::new(Engine::Auto, Rumor, 100_000, 0).unwrap();
        assert_eq!(big.engine_name(), "batched");
    }

    /// A dynamic shim over the two-state rumour: same transitions, but
    /// flagged as interned so Auto resolution routes it to the hybrid engine.
    #[derive(Debug, Clone, Copy)]
    struct DynamicRumor;
    impl DenseProtocol for DynamicRumor {
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
        fn dynamic(&self) -> bool {
            true
        }
    }

    #[test]
    fn auto_routes_dynamic_protocols_to_the_hybrid_engine() {
        let sim = DenseSimulator::new(Engine::Auto, DynamicRumor, 100_000, 0).unwrap();
        assert_eq!(sim.engine_name(), "hybrid");
        let small = DenseSimulator::new(Engine::Auto, DynamicRumor, 100, 0).unwrap();
        assert_eq!(small.engine_name(), "sequential");
    }

    #[test]
    fn switch_points_are_empty_off_the_hybrid_engine() {
        let sim = DenseSimulator::new(Engine::Batched, Rumor, 5_000, 0).unwrap();
        assert!(sim.switch_points().is_empty());
        let mut hybrid = DenseSimulator::new(Engine::Hybrid, Rumor, 5_000, 0).unwrap();
        hybrid.transfer(0, 1, 1).unwrap();
        hybrid.run(10_000);
        assert!(
            hybrid.switch_points().is_empty(),
            "the two-state epidemic never leaves dense mode"
        );
    }

    #[test]
    fn every_engine_runs_the_same_epidemic_to_saturation() {
        for engine in [
            Engine::Sequential,
            Engine::Batched,
            Engine::Sharded {
                shards: 4,
                threads: 1,
            },
            Engine::Hybrid,
        ] {
            let mut sim = DenseSimulator::new(engine, Rumor, 2000, 7).unwrap();
            assert_eq!(sim.population(), 2000);
            sim.transfer(0, 1, 1).unwrap();
            assert_eq!(sim.count_of(1), 1);
            let outcome = sim.run_until(|s| s.count_of(1) == 2000, 2000, u64::MAX >> 1);
            assert!(outcome.converged(), "{} failed", engine.name());
            assert_eq!(sim.counts(), vec![0, 2000]);
            assert_eq!(sim.output_stats().count_of(&true), 2000);
        }
    }

    #[test]
    fn transfer_validates_on_every_engine() {
        for engine in [Engine::Sequential, Engine::Batched] {
            let mut sim = DenseSimulator::new(engine, Rumor, 10, 0).unwrap();
            assert!(sim.transfer(0, 1, 11).is_err(), "{}", engine.name());
            assert!(sim.transfer(0, 7, 1).is_err(), "{}", engine.name());
            assert!(sim.transfer(0, 1, 3).is_ok());
            assert_eq!(sim.count_of(1), 3);
        }
    }

    #[test]
    fn snapshots_round_trip_on_every_engine_and_reject_cross_engine_restores() {
        let engines = [
            Engine::Sequential,
            Engine::Batched,
            Engine::Sharded {
                shards: 4,
                threads: 1,
            },
            Engine::Hybrid,
        ];
        for engine in engines {
            let mut reference = DenseSimulator::new(engine, Rumor, 2_000, 7).unwrap();
            reference.transfer(0, 1, 1).unwrap();
            reference.run(5_000);
            reference.run(2_003);

            let mut victim = DenseSimulator::new(engine, Rumor, 2_000, 7).unwrap();
            victim.transfer(0, 1, 1).unwrap();
            victim.run(5_000);
            let bytes = victim.save_state().to_bytes();
            drop(victim);

            let mut resumed = DenseSimulator::new(engine, Rumor, 2_000, 0).unwrap();
            let snap = EngineSnapshot::from_bytes(&bytes).unwrap();
            resumed.restore_state(&snap).unwrap();
            resumed.run(2_003);
            assert_eq!(
                resumed.save_state().to_bytes(),
                reference.save_state().to_bytes(),
                "{} resume diverged",
                engine.name()
            );
        }

        // Cross-engine restores are rejected: the tags differ.
        let sequential = DenseSimulator::new(Engine::Sequential, Rumor, 2_000, 7).unwrap();
        let snap = sequential.save_state();
        let mut batched = DenseSimulator::new(Engine::Batched, Rumor, 2_000, 7).unwrap();
        assert!(matches!(
            batched.restore_state(&snap),
            Err(SimError::SnapshotMismatch { .. })
        ));
    }

    /// A corruption that fails part-way leaves the agents it already moved
    /// where they are, and every engine reports that configuration.
    #[test]
    fn a_failed_corrupt_reports_the_agents_it_moved_on_every_engine() {
        for engine in [
            Engine::Sequential,
            Engine::Batched,
            Engine::Sharded {
                shards: 4,
                threads: 1,
            },
            Engine::Hybrid,
        ] {
            let mut sim = DenseSimulator::new(engine, Rumor, 4_000, 3).unwrap();
            // The first victim moves to state 1; the second target is invalid.
            let mut targets = [1, 99].into_iter();
            let mut new_state = |_: usize, _: &mut SmallRng| targets.next().unwrap_or(99);
            let result = sim.corrupt(2, &mut crate::rng::seeded_rng(8), &mut new_state);
            assert!(result.is_err(), "{}", engine.name());
            assert_eq!(sim.counts(), vec![3_999, 1], "{}", engine.name());
        }
    }

    #[test]
    fn run_until_checks_before_the_first_step() {
        let mut sim = DenseSimulator::new(Engine::Sequential, Rumor, 50, 1).unwrap();
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
}
