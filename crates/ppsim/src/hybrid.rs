//! The hybrid dense ↔ per-agent simulation engine.
//!
//! [`HybridSimulator`] runs a [`DenseProtocol`] on the batched (or sharded)
//! count-based substrate and **migrates to per-agent simulation — and back —
//! when an occupancy monitor detects that the count representation has gone
//! degenerate**.  It generalises the one-shot `CountExact` stage hand-off
//! that PR 3 validated: the refinement stage of that protocol mints `Θ(n)`
//! live states (Lemma 11 of the paper forces per-agent loads of magnitude
//! `≈ 4n`), at which point a counts vector holds mostly 1s and every
//! `O(q_occ²)` block costs more than stepping agents one by one.
//!
//! # The occupancy signal
//!
//! A collision-free block advances `Θ(√n)` interactions for `O(q_occ²)` work
//! (`q_occ` = occupied states), so the dense engine's per-interaction cost is
//! `≈ q_occ²/√n` against the per-agent engine's `O(1)`.  The monitor
//! observes `q_occ` every `max(n/4, 256)` interactions, in either mode, and
//! compares `q_occ²` with multiples of `√n`:
//!
//! * **dense → per-agent** when `q_occ² > 64·√n` holds for 2 consecutive
//!   observations;
//! * **per-agent → dense** when `q_occ² < 8·√n` holds for 2 consecutive
//!   observations.
//!
//! The rule is fixed: its four numbers are constants of this module, and
//! the only choice a caller makes is the dense substrate
//! ([`HybridSubstrate`]).  The down-threshold sits well below the
//! up-threshold, so a workload whose occupancy oscillates inside the band
//! between them never switches at all, and one that crosses a threshold
//! must *sustain* the crossing for a full window — two independent
//! hysteresis mechanisms that keep oscillating workloads from thrashing (see
//! [`OccupancyMonitor`] for the isolated, property-tested decision rule).
//!
//! # The per-agent stint: decoded structs, not interned indices
//!
//! The per-agent leg is a [`stint`](crate::stint): a `Vec` of **native
//! per-agent structs** stepped with the protocol's monomorphic
//! [`Protocol::interact`](crate::Protocol::interact), obtained through the
//! protocol's [`AgentCodec`](crate::stint::AgentCodec) (the
//! [`DenseProtocol::agent_stint`] hook).  For interned protocols this keeps
//! the state interner **out of the hot loop entirely**: it is consulted only
//! at the migration boundaries — decode each occupied index once on
//! dense → agent, tally + intern once per distinct state on agent → dense —
//! instead of four locked probes per interaction, which cost a stint over
//! interned indices a measured ~40 % of the `CountExact` refinement leg at
//! `n = 10⁵`.  Protocols without a codec fall back to stepping `u32`
//! indices through [`DenseProtocol::transition`].  Every stint — at a
//! migration, on a per-agent-mode `set_counts`, on restore — is built where
//! the sequential engine builds its own, from the hook or that fallback, so
//! a protocol's stints are always of one kind.  An agent-mode observation
//! counts distinct states on demand, up to [`OccupancyMonitor::count_limit`].
//!
//! # Exactness
//!
//! Migration is the Markov-in-configuration hand-off: the population process
//! is a Markov chain in the *configuration* (the multiset of states), which
//! both representations encode losslessly.  Dense → per-agent expands the
//! counts into a native-state vector (in state-index order); per-agent →
//! dense tallies the vector back into counts.  Only the schedule's
//! randomness source changes at a switch — exactly as it does between the
//! batched and sequential engines in the equivalence suites — so a hybrid
//! run samples the same stochastic process, and trajectories are
//! `(protocol, n, seed)`-deterministic for a fixed substrate and driving
//! pattern.
//!
//! # Example
//!
//! ```rust
//! use ppsim::{DenseProtocol, HybridSimulator};
//!
//! /// One-way epidemic: two states, occupancy never grows — the monitor
//! /// keeps the run dense from start to finish.
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
//! let mut sim = HybridSimulator::new(Rumor, 50_000, 7)?;
//! sim.transfer(0, 1, 1)?;
//! let outcome = sim.run_until(|s| s.count_of(1) == s.population(), 50_000, u64::MAX >> 1);
//! assert!(outcome.converged());
//! assert_eq!(sim.switches().len(), 0, "a two-state epidemic stays dense");
//! assert!(sim.is_dense());
//! # Ok(())
//! # }
//! ```

use std::time::Instant;

use crate::batched::BatchedSimulator;
use crate::config::ConfigurationStats;
use crate::convergence::{self, RunOutcome};
use crate::dense::{check_counts, DenseProtocol};
use crate::error::SimError;
use crate::rng::derive_seed;
use crate::sharded::{ShardedBatchedSimulator, ShardedConfig};
use crate::snapshot::{
    Checkpointable, EngineSnapshot, PersistState, SnapshotReader, ENGINE_HYBRID,
};
use crate::stint::{build_stint, BoxedAgentStint, StintSource};

use rand::rngs::SmallRng;

/// Seed-derivation salt for the engine constructed at the `k`-th migration
/// (the initial engine uses the caller's seed verbatim).
const SWITCH_SALT: u64 = 0x48_59_42;

/// Seed-derivation salt for the per-agent stint rebuilt by
/// [`HybridSimulator::set_counts`] in agent mode, mixed with the interaction
/// count at replacement time so repeated replacements get distinct streams
/// while staying a pure function of snapshot-persisted state.
const SETCOUNT_SALT: u64 = 0x53_43_43;

/// Migrate dense → per-agent once `q_occ² > SWITCH_UP · √n` is sustained.
/// 64 places the switch where a block's `O(q_occ²)` class work costs ~64
/// evaluations per interaction advanced — conservatively past the measured
/// per-agent cost of interned protocols.
const SWITCH_UP: f64 = 64.0;

/// Migrate per-agent → dense once `q_occ² < SWITCH_DOWN · √n` is sustained.
/// The gap to [`SWITCH_UP`] is the hysteresis band.
const SWITCH_DOWN: f64 = 8.0;

/// Consecutive observations a threshold crossing must persist for before a
/// migration fires.
const WINDOW: u32 = 2;

/// Interactions between occupancy observations, `max(n/4, 256)`, in both
/// modes: `O(q_occ)` on the dense engines' occupied-state list, a count up
/// to [`OccupancyMonitor::count_limit`] on the per-agent stint.
fn monitor_every(n: u64) -> u64 {
    (n / 4).max(256)
}

/// Which count-based substrate the hybrid engine's dense mode runs on — the
/// engine's one setting ([`HybridSimulator::with_substrate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridSubstrate {
    /// The single-threaded batched engine ([`BatchedSimulator`]).
    Batched,
    /// The sharded batched engine ([`ShardedBatchedSimulator`]).
    Sharded {
        /// Number of shards (see [`ShardedConfig::shards`]).
        shards: usize,
        /// Worker threads; `0` = available parallelism.
        threads: usize,
    },
}

/// Which representation the hybrid engine migrated *to*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchDirection {
    /// Counts expanded into a per-agent state vector.
    ToAgent,
    /// Per-agent states tallied back into counts.
    ToDense,
}

/// Per-leg accounting of a hybrid run: how many interactions each
/// representation executed and how long it took, plus which stepping
/// representation the per-agent stints used.  Returned by
/// [`HybridSimulator::legs`] and
/// [`DenseSimulator::hybrid_legs`](crate::DenseSimulator::hybrid_legs); the
/// bench tooling derives its `dense_mips` / `agent_mips` columns from it.
///
/// The interaction totals cover the whole run, restored history included.
/// The seconds cover only what this process timed, so each is paired with
/// the interactions executed during it, and throughput divides those two.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridLegs {
    /// Interactions executed on the count-based substrate.
    pub dense_interactions: u64,
    /// Wall-clock seconds this process spent on the count-based substrate
    /// (zero right after a restore).
    pub dense_seconds: f64,
    /// Interactions executed on the count-based substrate during
    /// [`dense_seconds`](Self::dense_seconds).
    pub dense_timed_interactions: u64,
    /// Interactions executed on per-agent stints.
    pub agent_interactions: u64,
    /// Wall-clock seconds this process spent on per-agent stints (zero
    /// right after a restore).
    pub agent_seconds: f64,
    /// Interactions executed on per-agent stints during
    /// [`agent_seconds`](Self::agent_seconds).
    pub agent_timed_interactions: u64,
    /// The most recent stint's stepping representation (`"decoded"` or
    /// `"interned"`); `None` if the run never left dense mode.
    pub stint_kind: Option<&'static str>,
}

impl HybridLegs {
    /// Per-agent-leg throughput in interactions per second over the time
    /// this process measured (`0.0` when it timed no stint).
    #[must_use]
    pub fn agent_throughput(&self) -> f64 {
        if self.agent_seconds > 0.0 {
            self.agent_timed_interactions as f64 / self.agent_seconds
        } else {
            0.0
        }
    }

    /// Dense-leg throughput in interactions per second over the time this
    /// process measured (`0.0` when it timed no dense leg).
    #[must_use]
    pub fn dense_throughput(&self) -> f64 {
        if self.dense_seconds > 0.0 {
            self.dense_timed_interactions as f64 / self.dense_seconds
        } else {
            0.0
        }
    }
}

/// One recorded representation migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchEvent {
    /// Total interactions executed when the migration happened.
    pub interactions: u64,
    /// The representation migrated to.
    pub direction: SwitchDirection,
    /// Occupied states (`q_occ`) observed at the migration.
    pub occupied: usize,
    /// The protocol's interned-state census at the migration, if it reports
    /// one ([`DenseProtocol::discovered_states`]).
    pub discovered_states: Option<usize>,
}

/// The hysteresis decision rule of the hybrid engine, isolated from the
/// simulators so the no-thrash property can be tested directly: feed it a
/// sequence of occupancy observations and it says when to migrate.
///
/// The rule is the module's fixed one: up at `q_occ² > 64·√n`, down at
/// `q_occ² < 8·√n`, each after 2 consecutive observations.  Invariants
/// (property-tested in this module and in
/// `crates/core/tests/dense_equivalence.rs`):
///
/// * an occupancy sequence that stays inside the `(down, up]` thresholds
///   band never triggers a migration, whatever came before;
/// * a migration requires 2 *consecutive* observations beyond the relevant
///   threshold, so a single outlier observation never switches;
/// * in per-agent mode, observing `min(q_occ, c)` with `c` =
///   [`Self::count_limit`] decides exactly as observing `q_occ` does.
#[derive(Debug, Clone)]
pub struct OccupancyMonitor {
    up_threshold: f64,
    down_threshold: f64,
    count_limit: usize,
    dense: bool,
    streak: u32,
}

impl OccupancyMonitor {
    /// A monitor for population size `n` starting in dense mode.
    #[must_use]
    pub fn new(n: u64) -> Self {
        let sqrt_n = (n as f64).sqrt();
        let down_threshold = SWITCH_DOWN * sqrt_n;
        // The smallest c with c² ≥ down_threshold, in the f64 arithmetic
        // the down test itself uses.
        let count_limit = (0usize..)
            .find(|&c| (c as f64) * (c as f64) >= down_threshold)
            .unwrap_or(usize::MAX);
        OccupancyMonitor {
            up_threshold: SWITCH_UP * sqrt_n,
            down_threshold,
            count_limit,
            dense: true,
            streak: 0,
        }
    }

    /// The smallest occupancy `c` with `c² ≥ 8·√n` (19 at `n = 2000`, 29 at
    /// `10⁴`, 51 at `10⁵`).  In per-agent mode every count below `c` must be
    /// exact, and every count of `c` or more fails the down test alike, so
    /// the hybrid engine stops counting its agents' states at `c`.
    #[must_use]
    pub fn count_limit(&self) -> usize {
        self.count_limit
    }

    /// Whether the monitor currently believes the run is in dense mode.
    #[must_use]
    pub fn is_dense(&self) -> bool {
        self.dense
    }

    /// Record one occupancy observation; returns the migration to perform
    /// now, if the streak just completed a full window.
    pub fn observe(&mut self, occupied: usize) -> Option<SwitchDirection> {
        let pressure = (occupied as f64) * (occupied as f64);
        let crossing = if self.dense {
            pressure > self.up_threshold
        } else {
            pressure < self.down_threshold
        };
        if !crossing {
            self.streak = 0;
            return None;
        }
        self.streak += 1;
        if self.streak < WINDOW {
            return None;
        }
        self.streak = 0;
        self.dense = !self.dense;
        Some(if self.dense {
            SwitchDirection::ToDense
        } else {
            SwitchDirection::ToAgent
        })
    }

    /// Discard the in-progress observation streak without touching the mode
    /// belief.  Called at fault injection ([`crate::adversary`]): the
    /// streak's observations describe the pre-fault configuration, so
    /// letting them complete a migration window against the post-fault one
    /// would switch representations on stale evidence.
    pub fn reset_window(&mut self) {
        self.streak = 0;
    }

    /// Whether a single occupancy reading already exceeds the
    /// dense → per-agent threshold.  The windowed [`Self::observe`] protects
    /// against *sampled* noise; a discrete configuration replacement
    /// (`set_counts`, fault injection) is exact evidence, so the hybrid
    /// engine consults this to migrate immediately instead of burning
    /// `O(q_occ²)` blocks until the next scheduled observation.
    #[must_use]
    pub fn over_up_threshold(&self, occupied: usize) -> bool {
        (occupied as f64) * (occupied as f64) > self.up_threshold
    }
}

/// The two representations a hybrid run alternates between.
#[derive(Debug, Clone)]
enum Mode<P: DenseProtocol + Clone + Send> {
    Batched(BatchedSimulator<P>),
    Sharded(ShardedBatchedSimulator<P>),
    Agent(BoxedAgentStint<<P as DenseProtocol>::Output>),
}

/// A dense protocol on the auto-switching hybrid engine: count-based blocks
/// while the occupancy is low, per-agent steps while it is degenerate, exact
/// configuration hand-offs in between (see the module docs).
///
/// Mirrors the driving surface of the other engines (`run`, `run_until`,
/// `transfer`, `output_stats`, seeded construction) and additionally exposes
/// the switch log ([`Self::switches`]) and per-representation interaction
/// counters ([`Self::dense_interactions`], [`Self::agent_interactions`]),
/// which always sum to [`Self::interactions`].
#[derive(Debug, Clone)]
pub struct HybridSimulator<P: DenseProtocol + Clone + Send> {
    protocol: P,
    n: u64,
    seed: u64,
    substrate: HybridSubstrate,
    monitor: OccupancyMonitor,
    mode: Mode<P>,
    /// Interactions accumulated by representations already retired; the live
    /// counter is `completed + mode.interactions()`.  Each migration folds
    /// the retiring engine's counter in here exactly once — the partial
    /// block in flight at switch time is never re-counted because engines
    /// only ever run to exact slice boundaries.
    completed: u64,
    dense_total: u64,
    agent_total: u64,
    /// Wall-clock seconds this process spent in each representation, and
    /// the interactions executed during them (per-leg throughput accounting
    /// for the bench tooling).  Not persisted; zeroed on restore.
    dense_secs: f64,
    agent_secs: f64,
    dense_timed: u64,
    agent_timed: u64,
    /// Absolute interaction count of the next occupancy observation.
    next_observation: u64,
    switches: Vec<SwitchEvent>,
    /// The stepping representation of the most recent per-agent stint
    /// (`"decoded"` or `"interned"`); `None` before the first migration.
    stint_kind: Option<&'static str>,
    /// The first error a monitor-driven migration hit (see [`Self::fault`]).
    fault: Option<SimError>,
}

impl<P: DenseProtocol + Clone + Send + 'static> HybridSimulator<P> {
    /// Create a hybrid simulator on the batched substrate.
    ///
    /// # Errors
    ///
    /// Propagates the substrate constructor's errors
    /// ([`SimError::PopulationTooSmall`], [`SimError::InvalidParameter`]).
    pub fn new(protocol: P, n: usize, seed: u64) -> Result<Self, SimError> {
        Self::with_substrate(protocol, n, seed, HybridSubstrate::Batched)
    }

    /// Create a hybrid simulator whose dense mode runs on `substrate`.
    ///
    /// # Errors
    ///
    /// Propagates the substrate constructor's errors
    /// ([`SimError::PopulationTooSmall`], [`SimError::InvalidParameter`]).
    pub fn with_substrate(
        protocol: P,
        n: usize,
        seed: u64,
        substrate: HybridSubstrate,
    ) -> Result<Self, SimError> {
        let mode = Self::dense_mode(&protocol, n, seed, substrate, None)?;
        Ok(HybridSimulator {
            monitor: OccupancyMonitor::new(n as u64),
            protocol,
            n: n as u64,
            seed,
            substrate,
            mode,
            completed: 0,
            dense_total: 0,
            agent_total: 0,
            dense_secs: 0.0,
            agent_secs: 0.0,
            dense_timed: 0,
            agent_timed: 0,
            next_observation: monitor_every(n as u64),
            switches: Vec::new(),
            stint_kind: None,
            fault: None,
        })
    }

    /// Construct the chosen dense substrate, optionally seeded with an
    /// existing configuration.
    fn dense_mode(
        protocol: &P,
        n: usize,
        seed: u64,
        substrate: HybridSubstrate,
        counts: Option<Vec<u64>>,
    ) -> Result<Mode<P>, SimError> {
        Ok(match substrate {
            HybridSubstrate::Batched => {
                let mut sim = BatchedSimulator::new(protocol.clone(), n, seed)?;
                if let Some(counts) = counts {
                    sim.set_counts(counts)?;
                }
                Mode::Batched(sim)
            }
            HybridSubstrate::Sharded { shards, threads } => {
                let mut sim = ShardedBatchedSimulator::new(
                    protocol.clone(),
                    n,
                    seed,
                    ShardedConfig {
                        shards,
                        threads,
                        epoch_interactions: None,
                    },
                )?;
                if let Some(counts) = counts {
                    sim.set_counts(counts)?;
                }
                Mode::Sharded(sim)
            }
        })
    }

    /// The population size `n`.
    #[must_use]
    pub fn population(&self) -> u64 {
        self.n
    }

    /// The protocol being executed.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The number of states `q` of the protocol (the index-space capacity
    /// for interned protocols).
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.protocol.num_states()
    }

    /// The number of interactions executed so far, across both
    /// representations.
    #[must_use]
    pub fn interactions(&self) -> u64 {
        self.completed + self.mode_interactions()
    }

    /// Interactions executed on the count-based substrate so far.
    #[must_use]
    pub fn dense_interactions(&self) -> u64 {
        self.dense_total
            + match &self.mode {
                Mode::Batched(_) | Mode::Sharded(_) => self.mode_interactions(),
                Mode::Agent(_) => 0,
            }
    }

    /// Interactions executed on the per-agent engine so far.
    #[must_use]
    pub fn agent_interactions(&self) -> u64 {
        self.agent_total
            + match &self.mode {
                Mode::Agent(_) => self.mode_interactions(),
                Mode::Batched(_) | Mode::Sharded(_) => 0,
            }
    }

    fn mode_interactions(&self) -> u64 {
        match &self.mode {
            Mode::Batched(s) => s.interactions(),
            Mode::Sharded(s) => s.interactions(),
            Mode::Agent(s) => s.interactions(),
        }
    }

    /// Wall-clock seconds this simulator has spent executing on the
    /// count-based substrate since construction or the last restore
    /// (per-leg throughput accounting).
    #[must_use]
    pub fn dense_seconds(&self) -> f64 {
        self.dense_secs
    }

    /// Wall-clock seconds this simulator has spent executing per-agent
    /// stints since construction or the last restore.
    #[must_use]
    pub fn agent_seconds(&self) -> f64 {
        self.agent_secs
    }

    /// The per-leg accounting in one struct (interaction counts, wall-clock
    /// seconds with the interactions they timed, and the stint kind — see
    /// [`HybridLegs`]).
    #[must_use]
    pub fn legs(&self) -> HybridLegs {
        HybridLegs {
            dense_interactions: self.dense_interactions(),
            dense_seconds: self.dense_secs,
            dense_timed_interactions: self.dense_timed,
            agent_interactions: self.agent_interactions(),
            agent_seconds: self.agent_secs,
            agent_timed_interactions: self.agent_timed,
            stint_kind: self.stint_kind,
        }
    }

    /// Whether the run is currently on the count-based substrate.
    #[must_use]
    pub fn is_dense(&self) -> bool {
        !matches!(self.mode, Mode::Agent(_))
    }

    /// The stepping representation of the most recent per-agent stint
    /// (`"decoded"` for native-struct stints, `"interned"` for the `u32`
    /// index fallback), or `None` if the run has never left dense mode.
    #[must_use]
    pub fn stint_kind(&self) -> Option<&'static str> {
        self.stint_kind
    }

    /// The representation migrations performed so far, in order.
    #[must_use]
    pub fn switches(&self) -> &[SwitchEvent] {
        &self.switches
    }

    /// The number of currently occupied states `q_occ` (distinct states
    /// holding ≥ 1 agent), exact in both modes.  `O(q_occ)` in dense mode;
    /// `O(n)` in per-agent mode, where the stint counts its states on demand
    /// (the monitor's own observations stop at
    /// [`OccupancyMonitor::count_limit`] instead).
    #[must_use]
    pub fn occupied_states(&self) -> usize {
        match &self.mode {
            Mode::Batched(s) => s.occupied_states(),
            Mode::Sharded(s) => s.occupied_states(),
            Mode::Agent(s) => s.occupied_states(usize::MAX),
        }
    }

    /// Borrow the counts vector while the run is on the count-based
    /// substrate (`None` in per-agent mode).  Convergence predicates use
    /// this to inspect the dense configuration without the `O(q)` copy of
    /// [`Self::counts`].
    #[must_use]
    pub fn as_dense_counts(&self) -> Option<&[u64]> {
        match &self.mode {
            Mode::Batched(s) => Some(s.counts()),
            Mode::Sharded(s) => Some(s.counts()),
            Mode::Agent(_) => None,
        }
    }

    /// The current configuration as state counts, owned: in dense mode a
    /// copy of the substrate's vector, as long as the state space (borrow it
    /// with [`Self::as_dense_counts`] instead); in per-agent mode the stint
    /// tallies its native states back through the codec into a vector of
    /// that length, interning any state minted since the stint began.
    #[must_use]
    pub fn counts(&self) -> Vec<u64> {
        match &self.mode {
            Mode::Batched(s) => s.counts().to_vec(),
            Mode::Sharded(s) => s.counts().to_vec(),
            Mode::Agent(s) => s.counts(),
        }
    }

    /// Run `f` over the configuration's state counts: borrowed from the
    /// substrate in dense mode, tallied by the stint in per-agent mode.
    pub(crate) fn with_counts<R>(&self, f: impl FnOnce(&[u64]) -> R) -> R {
        match self.as_dense_counts() {
            Some(counts) => f(counts),
            None => f(&self.counts()),
        }
    }

    /// Number of agents currently in state `state`.
    #[must_use]
    pub fn count_of(&self, state: usize) -> u64 {
        match &self.mode {
            Mode::Batched(s) => s.count_of(state),
            Mode::Sharded(s) => s.count_of(state),
            Mode::Agent(s) => s.count_of(state),
        }
    }

    /// Output histogram of the current configuration.
    #[must_use]
    pub fn output_stats(&self) -> ConfigurationStats<P::Output> {
        match &self.mode {
            Mode::Batched(s) => s.output_stats(),
            Mode::Sharded(s) => s.output_stats(),
            Mode::Agent(s) => s.output_stats(),
        }
    }

    /// Move `k` agents from state `from` to state `to` (experiment setup).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if either state is out of
    /// range or fewer than `k` agents are in `from`.
    pub fn transfer(&mut self, from: usize, to: usize, k: u64) -> Result<(), SimError> {
        match &mut self.mode {
            Mode::Batched(s) => s.transfer(from, to, k),
            Mode::Sharded(s) => s.transfer(from, to, k),
            Mode::Agent(s) => s.transfer(from, to, k),
        }
    }

    /// Replace the whole configuration.  In dense mode this delegates to the
    /// substrate; in per-agent mode the running stint is retired (its
    /// interaction count folded into the per-leg totals, exactly like a
    /// migration) and a fresh stint is expanded from `counts`, seeded as a
    /// pure function of snapshot-persisted state so a restored run replaces
    /// identically.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if `counts` has the wrong
    /// length or does not sum to the population size.
    pub fn set_counts(&mut self, counts: Vec<u64>) -> Result<(), SimError> {
        match &mut self.mode {
            Mode::Batched(s) => s.set_counts(counts)?,
            Mode::Sharded(s) => s.set_counts(counts)?,
            Mode::Agent(_) => {
                check_counts(&counts, self.protocol.num_states(), self.n)?;
                let seed = derive_seed(self.seed, SETCOUNT_SALT + self.interactions());
                let stint = build_stint(
                    &self.protocol,
                    StintSource::Counts {
                        counts: &counts,
                        seed,
                    },
                )?;
                let executed = self.mode_interactions();
                self.completed += executed;
                self.agent_total += executed;
                self.stint_kind = Some(stint.kind());
                self.mode = Mode::Agent(stint);
                self.monitor.reset_window();
                return Ok(());
            }
        }
        // A replacement is a discrete event: discard the monitor's stale
        // streak and, if the new configuration is already degenerate, leave
        // the dense representation right away (see
        // `flee_degenerate_configuration`).
        self.monitor.reset_window();
        self.flee_degenerate_configuration();
        Ok(())
    }

    /// Migrate dense → per-agent immediately when the live configuration's
    /// occupancy already exceeds the monitor's switch-up threshold.
    ///
    /// The windowed monitor protects against sampled noise, but a discrete
    /// configuration replacement ([`Self::set_counts`], [`Self::corrupt`] —
    /// in particular an adversarial initialization at `n ≥ 10⁵`, which
    /// occupies `Θ(n)` of the `Θ(n)` states) is exact evidence; waiting
    /// `max(n/4, 256)` interactions for the next scheduled observation would
    /// cost `O(q_occ²)` per `Θ(√n)`-interaction block in
    /// the meantime — an effective hang, not a slowdown.  A migration
    /// failure parks in [`Self::fault`], exactly like a monitor-driven one.
    fn flee_degenerate_configuration(&mut self) {
        if !self.is_dense() {
            return;
        }
        let occupied = self.occupied_states();
        if !self.monitor.over_up_threshold(occupied) {
            return;
        }
        if let Err(e) = self.migrate(SwitchDirection::ToAgent, occupied) {
            if self.fault.is_none() {
                self.fault = Some(e);
            }
        }
    }

    /// Corrupt `k` agents chosen uniformly without replacement, in whichever
    /// representation is live: count mass moves on the dense substrate,
    /// native structs are overwritten through the codec in per-agent mode
    /// (see [`crate::adversary`]).  The monitor's in-progress streak is
    /// discarded either way — its observations describe the pre-fault
    /// configuration — and a fault that leaves the dense occupancy past the
    /// switch-up threshold migrates to per-agent mode immediately (exact
    /// evidence needs no observation window).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if `k` exceeds the population
    /// or `new_state` returns a state outside the assigned state space.
    pub fn corrupt(
        &mut self,
        k: u64,
        rng: &mut SmallRng,
        new_state: &mut dyn FnMut(usize, &mut SmallRng) -> usize,
    ) -> Result<(), SimError> {
        let result = match &mut self.mode {
            Mode::Batched(s) => s.corrupt(k, rng, new_state),
            Mode::Sharded(s) => s.corrupt(k, rng, new_state),
            Mode::Agent(s) => s.corrupt(k, rng, new_state),
        };
        self.monitor.reset_window();
        if result.is_ok() {
            self.flee_degenerate_configuration();
        }
        result
    }

    /// Discard the occupancy monitor's in-progress observation streak
    /// ([`OccupancyMonitor::reset_window`]) — restart-safe probing after a
    /// fault event.
    pub fn reset_monitor(&mut self) {
        self.monitor.reset_window();
    }

    /// Migrate to the per-agent representation now, regardless of the
    /// monitor (no-op when already per-agent).  Exposed for the round-trip
    /// tests and for timing a migration in the benchmark; the monitor keeps
    /// running afterwards and may migrate back.
    ///
    /// # Errors
    ///
    /// Propagates the migration's [`SimError`]; the simulator keeps running
    /// in its current representation when that happens.
    pub fn switch_to_agent(&mut self) -> Result<(), SimError> {
        if !self.is_dense() {
            return Ok(());
        }
        let occupied = self.occupied_states();
        self.migrate(SwitchDirection::ToAgent, occupied)
    }

    /// Migrate to the count-based representation now, regardless of the
    /// monitor (no-op when already dense).
    ///
    /// # Errors
    ///
    /// Propagates the migration's [`SimError`] (e.g. a substrate
    /// reconstruction failure); the simulator keeps running per-agent when
    /// that happens.
    pub fn switch_to_dense(&mut self) -> Result<(), SimError> {
        if self.is_dense() {
            return Ok(());
        }
        let occupied = self.occupied_states();
        self.migrate(SwitchDirection::ToDense, occupied)
    }

    /// Perform one migration: build the successor engine, then fold the
    /// retiring engine's interaction counter into the phase totals exactly
    /// once, transfer the configuration, and record the event.  The
    /// monitor's mode flag is forced to match (manual switches bypass its
    /// streak logic).
    ///
    /// Construction happens *before* any accounting mutates, so a failed
    /// migration leaves the simulator exactly as it was — still consistent,
    /// still runnable in its current representation.
    fn migrate(&mut self, direction: SwitchDirection, occupied: usize) -> Result<(), SimError> {
        let switch_seed = derive_seed(self.seed, SWITCH_SALT + 1 + self.switches.len() as u64);
        let successor = match direction {
            SwitchDirection::ToAgent => {
                // The stint expands in state-index order: a fixed,
                // representation-independent layout, so the hand-off is a
                // pure function of the configuration.  It reads the
                // substrate's counts in place: a copy would cost a vector as
                // long as the state space at every switch.
                let stint = self.with_counts(|counts| {
                    build_stint(
                        &self.protocol,
                        StintSource::Counts {
                            counts,
                            seed: switch_seed,
                        },
                    )
                })?;
                debug_assert_eq!(
                    stint.population() as u64,
                    self.n,
                    "the expansion must cover the population"
                );
                Mode::Agent(stint)
            }
            SwitchDirection::ToDense => {
                let counts = self.counts();
                Self::dense_mode(
                    &self.protocol,
                    self.n as usize,
                    switch_seed,
                    self.substrate,
                    Some(counts),
                )?
            }
        };
        let executed = self.mode_interactions();
        self.completed += executed;
        match &self.mode {
            Mode::Batched(_) | Mode::Sharded(_) => self.dense_total += executed,
            Mode::Agent(_) => self.agent_total += executed,
        }
        if let Mode::Agent(stint) = &successor {
            self.stint_kind = Some(stint.kind());
        }
        self.mode = successor;
        self.monitor.dense = matches!(direction, SwitchDirection::ToDense);
        self.monitor.streak = 0;
        self.switches.push(SwitchEvent {
            interactions: self.interactions(),
            direction,
            occupied,
            discovered_states: self.protocol.discovered_states(),
        });
        Ok(())
    }

    /// The first error a *monitor-driven* migration hit, if any.
    ///
    /// [`Self::run`] promises to execute its exact budget, so an automatic
    /// migration that fails mid-run cannot propagate an error without
    /// breaking that contract.  Instead the engine stays in its current
    /// (still consistent) representation, keeps executing, and parks the
    /// error here for the driver to inspect.  Manual switches
    /// ([`Self::switch_to_agent`], [`Self::switch_to_dense`]) and snapshot
    /// restores return their errors directly and never set this.
    #[must_use]
    pub fn fault(&self) -> Option<&SimError> {
        self.fault.as_ref()
    }

    /// One monitor observation at the current interaction count; schedules
    /// the next one.  In per-agent mode the count stops at
    /// [`OccupancyMonitor::count_limit`], which moves no decision, and a
    /// migration's recorded occupancy (then below the limit) stays exact.
    fn observe(&mut self) {
        let occupied = match &self.mode {
            Mode::Agent(s) => s.occupied_states(self.monitor.count_limit),
            Mode::Batched(_) | Mode::Sharded(_) => self.occupied_states(),
        };
        if let Some(direction) = self.monitor.observe(occupied) {
            if let Err(e) = self.migrate(direction, occupied) {
                // The monitor already flipped its mode flag when it asked for
                // the migration; snap it back to the representation we are
                // actually still in and park the error (see `fault`).
                self.monitor.dense = self.is_dense();
                self.monitor.streak = 0;
                if self.fault.is_none() {
                    self.fault = Some(e);
                }
            }
        }
        self.next_observation = self.interactions() + monitor_every(self.n);
    }

    /// Execute `budget` further interactions unconditionally, observing the
    /// occupancy (and possibly migrating) every `max(n/4, 256)` interactions.
    pub fn run(&mut self, budget: u64) {
        let target = self.interactions() + budget;
        while self.interactions() < target {
            let slice = (target - self.interactions())
                .min(self.next_observation.saturating_sub(self.interactions()))
                .max(1);
            let started = Instant::now();
            let dense_leg = match &mut self.mode {
                Mode::Batched(s) => {
                    s.run(slice);
                    true
                }
                Mode::Sharded(s) => {
                    s.run(slice);
                    true
                }
                Mode::Agent(s) => {
                    s.run(slice);
                    false
                }
            };
            let elapsed = started.elapsed().as_secs_f64();
            if dense_leg {
                self.dense_secs += elapsed;
                self.dense_timed += slice;
            } else {
                self.agent_secs += elapsed;
                self.agent_timed += slice;
            }
            if self.interactions() >= self.next_observation {
                self.observe();
            }
        }
    }

    /// Run until `pred` holds (checked every `check_every` interactions, and
    /// once before the first step) or until `max_interactions` *total*
    /// interactions have been executed — the shared `run_until` contract of
    /// the engines.
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
        match self.mode {
            Mode::Batched(s) => s.into_counts(),
            Mode::Sharded(s) => s.into_counts(),
            Mode::Agent(_) => self.counts(),
        }
    }
}

/// Stint-kind tags in hybrid snapshots.
const STINT_NONE: u8 = 0;
const STINT_DECODED: u8 = 1;
const STINT_INTERNED: u8 = 2;

/// Mode tags in hybrid snapshots.
const MODE_DENSE: u8 = 0;
const MODE_AGENT: u8 = 1;

fn stint_kind_tag(kind: Option<&'static str>) -> u8 {
    match kind {
        None => STINT_NONE,
        Some("decoded") => STINT_DECODED,
        _ => STINT_INTERNED,
    }
}

fn stint_kind_from_tag(tag: u8) -> Result<Option<&'static str>, SimError> {
    match tag {
        STINT_NONE => Ok(None),
        STINT_DECODED => Ok(Some("decoded")),
        STINT_INTERNED => Ok(Some("interned")),
        other => Err(SimError::SnapshotCorrupt {
            reason: format!("unknown stint-kind tag {other}"),
        }),
    }
}

/// Checkpointing for the hybrid engine.
///
/// Payload layout (engine tag
/// [`ENGINE_HYBRID`]):
///
/// ```text
/// u64            population n
/// u64            seed (drives future switch-seed derivation)
/// u8             substrate tag (0 batched, 1 sharded) [+ u64 shards, u64 threads]
/// u64 × 4        completed, dense_total, agent_total, next_observation
/// bool, u32      monitor mode flag, monitor streak
/// switch log     count + (interactions, direction, occupied, discovered?) each
/// u8             stint-kind tag (0 none / 1 decoded / 2 interned)
/// Vec<u8>        protocol state (interner contents for dynamic protocols)
/// u8 + Vec<u8>   mode tag (0 dense / 1 agent) + inner bytes: in dense mode
///                the batched or sharded engine core *without* protocol
///                bytes (the protocol state above is the only copy), in
///                agent mode the stint
/// ```
///
/// Wall-clock accounting (`dense_seconds`, `agent_seconds` and the
/// interactions timed alongside them) is deliberately **not** persisted — it
/// is the one piece of state that is not a pure function of the trajectory —
/// and is zeroed on restore.  That exclusion is what makes snapshot-byte
/// equality a valid trajectory-equality check (the fault-injection harness
/// relies on it).
///
/// A dense-mode snapshot is restored into the live batched or sharded
/// engine **in place**: its state-space-long buffers are reused, so the
/// restore costs what the snapshot holds (the interner contents and the
/// occupied list), not what the state space reserves.  Only a simulator in
/// per-agent mode builds a substrate to restore into.
///
/// The header checks (engine tag, population, substrate) run before
/// anything changes, so a snapshot of another simulator leaves this one as
/// it was.  A snapshot that fails a later check, once its protocol state
/// (the interner contents) is installed, leaves the simulator unfit to run
/// until a good snapshot is restored into it.
///
/// The fields that shape the trajectory (population and substrate, with its
/// shard count) are validated against the restore target; the thread budget
/// is not (it never shapes the trajectory).  A
/// per-agent snapshot must hold the kind of stint this protocol builds
/// (`"decoded"` through its codec, `"interned"` without one); a stint of
/// the other kind fails with [`SimError::SnapshotMismatch`] once its bytes
/// decode.
impl<P: DenseProtocol + Clone + Send + 'static> Checkpointable for HybridSimulator<P> {
    fn save_state(&self) -> EngineSnapshot {
        let mut payload = Vec::new();
        self.n.persist(&mut payload);
        self.seed.persist(&mut payload);
        match self.substrate {
            HybridSubstrate::Batched => 0u8.persist(&mut payload),
            HybridSubstrate::Sharded { shards, threads } => {
                1u8.persist(&mut payload);
                shards.persist(&mut payload);
                threads.persist(&mut payload);
            }
        }
        self.completed.persist(&mut payload);
        self.dense_total.persist(&mut payload);
        self.agent_total.persist(&mut payload);
        self.next_observation.persist(&mut payload);
        self.monitor.dense.persist(&mut payload);
        self.monitor.streak.persist(&mut payload);
        self.switches.len().persist(&mut payload);
        for e in &self.switches {
            e.interactions.persist(&mut payload);
            match e.direction {
                SwitchDirection::ToAgent => 0u8.persist(&mut payload),
                SwitchDirection::ToDense => 1u8.persist(&mut payload),
            }
            e.occupied.persist(&mut payload);
            e.discovered_states.persist(&mut payload);
        }
        stint_kind_tag(self.stint_kind).persist(&mut payload);
        self.protocol.save_protocol_state().persist(&mut payload);
        let mut inner = Vec::new();
        match &self.mode {
            Mode::Batched(s) => {
                MODE_DENSE.persist(&mut payload);
                s.save_core(false, &mut inner);
            }
            Mode::Sharded(s) => {
                MODE_DENSE.persist(&mut payload);
                s.save_core(false, &mut inner);
            }
            Mode::Agent(s) => {
                MODE_AGENT.persist(&mut payload);
                s.save_stint(&mut inner);
            }
        }
        inner.persist(&mut payload);
        EngineSnapshot::new(ENGINE_HYBRID, payload)
    }

    fn restore_state(&mut self, snapshot: &EngineSnapshot) -> Result<(), SimError> {
        snapshot.expect_engine(ENGINE_HYBRID, "the hybrid engine")?;
        let mut r = snapshot.reader();
        let n = r.read::<u64>()?;
        let seed = r.read::<u64>()?;
        let substrate_tag = r.read::<u8>()?;
        let substrate = match substrate_tag {
            0 => HybridSubstrate::Batched,
            1 => HybridSubstrate::Sharded {
                shards: r.read::<usize>()?,
                threads: r.read::<usize>()?,
            },
            other => {
                return Err(SimError::SnapshotCorrupt {
                    reason: format!("unknown hybrid substrate tag {other}"),
                })
            }
        };
        let completed = r.read::<u64>()?;
        let dense_total = r.read::<u64>()?;
        let agent_total = r.read::<u64>()?;
        let next_observation = r.read::<u64>()?;
        let monitor_dense = r.read::<bool>()?;
        let monitor_streak = r.read::<u32>()?;
        let num_switches = r.read::<usize>()?;
        let mut switches = Vec::with_capacity(num_switches.min(1024));
        for _ in 0..num_switches {
            let interactions = r.read::<u64>()?;
            let direction = match r.read::<u8>()? {
                0 => SwitchDirection::ToAgent,
                1 => SwitchDirection::ToDense,
                other => {
                    return Err(SimError::SnapshotCorrupt {
                        reason: format!("unknown switch-direction tag {other}"),
                    })
                }
            };
            let occupied = r.read::<usize>()?;
            let discovered_states = r.read::<Option<usize>>()?;
            switches.push(SwitchEvent {
                interactions,
                direction,
                occupied,
                discovered_states,
            });
        }
        let stint_kind = stint_kind_from_tag(r.read::<u8>()?)?;
        // The two byte fields are read in place, as `Vec<u8>` encodings
        // (length prefix, then the bytes), rather than copied out.
        let protocol_len = r.read::<usize>()?;
        let protocol_bytes = r.take(protocol_len)?;
        let mode_tag = r.read::<u8>()?;
        let mode_len = r.read::<usize>()?;
        let mode_bytes = r.take(mode_len)?;
        r.finish()?;

        if n != self.n {
            return Err(SimError::SnapshotMismatch {
                reason: format!("snapshot population {n} != simulator population {}", self.n),
            });
        }
        let substrate_matches = match (substrate, self.substrate) {
            (HybridSubstrate::Batched, HybridSubstrate::Batched) => true,
            // The shard partition shapes the trajectory; the thread budget
            // does not.
            (
                HybridSubstrate::Sharded { shards: a, .. },
                HybridSubstrate::Sharded { shards: b, .. },
            ) => a == b,
            _ => false,
        };
        if !substrate_matches {
            return Err(SimError::SnapshotMismatch {
                reason: format!(
                    "snapshot was taken on a different hybrid substrate: snapshot \
                     {substrate:?} vs simulator {:?}",
                    self.substrate
                ),
            });
        }

        // Protocol state before any engine is touched: rebuilt δ-tables,
        // the occupied-list checks and restored stints must see the
        // checkpoint's interner contents.
        self.protocol.restore_protocol_state(protocol_bytes)?;
        match mode_tag {
            MODE_DENSE => {
                // A dense simulator restores its live substrate in place;
                // only a per-agent one needs a substrate built first.
                if !self.is_dense() {
                    self.mode = Self::dense_mode(
                        &self.protocol,
                        self.n as usize,
                        seed,
                        self.substrate,
                        None,
                    )?;
                }
                let mut core = SnapshotReader::new(mode_bytes);
                match &mut self.mode {
                    Mode::Batched(s) => s.restore_core(&mut core, false)?,
                    Mode::Sharded(s) => s.restore_core(&mut core, false)?,
                    Mode::Agent(_) => unreachable!("the simulator is in dense mode"),
                }
                core.finish()?;
            }
            MODE_AGENT => {
                let stint = build_stint(&self.protocol, StintSource::Saved(mode_bytes))?;
                if stint_kind != Some(stint.kind()) {
                    return Err(SimError::SnapshotMismatch {
                        reason: format!(
                            "snapshot holds a {} per-agent stint but protocol `{}` builds \
                             {} stints",
                            stint_kind.unwrap_or("missing"),
                            self.protocol.name(),
                            stint.kind()
                        ),
                    });
                }
                self.mode = Mode::Agent(stint);
            }
            other => {
                return Err(SimError::SnapshotCorrupt {
                    reason: format!("unknown hybrid mode tag {other}"),
                })
            }
        }

        self.seed = seed;
        self.completed = completed;
        self.dense_total = dense_total;
        self.agent_total = agent_total;
        // Wall-clock is not part of the trajectory and was not persisted;
        // the interactions it timed restart with it.
        self.dense_secs = 0.0;
        self.agent_secs = 0.0;
        self.dense_timed = 0;
        self.agent_timed = 0;
        self.next_observation = next_observation;
        self.monitor.dense = monitor_dense;
        self.monitor.streak = monitor_streak;
        self.switches = switches;
        self.stint_kind = stint_kind;
        self.fault = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stint::{DecodedStint, IndexCodec};
    use proptest::prelude::*;

    /// One-way epidemic on two dense states: occupancy never exceeds 2.
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

    /// A state-minting protocol: the initiator walks to a fresh state on
    /// (almost) every interaction, scattering the population over `Θ(n)`
    /// distinct states — the degenerate regime the hybrid engine exists for.
    #[derive(Debug, Clone, Copy)]
    struct Scatter {
        q: usize,
    }
    impl DenseProtocol for Scatter {
        type Output = usize;
        fn num_states(&self) -> usize {
            self.q
        }
        fn initial_state(&self) -> usize {
            0
        }
        fn transition(&self, u: usize, v: usize) -> (usize, usize) {
            (((u + v + 1) * 2) % self.q, v)
        }
        fn output(&self, s: usize) -> usize {
            s
        }
    }

    #[test]
    fn narrow_workload_never_leaves_dense_mode() {
        let mut sim = HybridSimulator::new(Rumor, 20_000, 3).unwrap();
        sim.transfer(0, 1, 1).unwrap();
        let outcome = sim.run_until(|s| s.count_of(1) == 20_000, 20_000, u64::MAX >> 1);
        assert!(outcome.converged());
        assert!(sim.is_dense());
        assert!(sim.switches().is_empty());
        assert_eq!(sim.agent_interactions(), 0);
        assert_eq!(sim.dense_interactions(), sim.interactions());
    }

    #[test]
    fn scattering_workload_migrates_to_per_agent() {
        let n = 4_000usize;
        let mut sim = HybridSimulator::new(Scatter { q: 1 << 14 }, n, 9).unwrap();
        sim.run(20 * n as u64);
        assert!(
            sim.switches()
                .iter()
                .any(|e| e.direction == SwitchDirection::ToAgent),
            "Θ(n) occupancy must trigger the dense → per-agent migration \
             (switches: {:?})",
            sim.switches()
        );
        assert!(sim.agent_interactions() > 0);
        assert_eq!(
            sim.dense_interactions() + sim.agent_interactions(),
            sim.interactions(),
            "phase counters must partition the total"
        );
    }

    #[test]
    fn run_executes_exactly_the_budget_across_migrations() {
        let n = 3_000usize;
        let mut sim = HybridSimulator::new(Scatter { q: 1 << 14 }, n, 5).unwrap();
        for chunk in [1_234u64, 17, 50_000, 1, 99_999] {
            let before = sim.interactions();
            sim.run(chunk);
            assert_eq!(sim.interactions(), before + chunk);
        }
        assert_eq!(
            sim.dense_interactions() + sim.agent_interactions(),
            sim.interactions()
        );
    }

    #[test]
    fn migration_round_trip_preserves_the_configuration_exactly() {
        let n = 5_000usize;
        let mut sim = HybridSimulator::new(Scatter { q: 1 << 13 }, n, 21).unwrap();
        sim.run(10_000);
        let before = sim.counts();
        let interactions = sim.interactions();
        sim.switch_to_agent().unwrap();
        assert!(!sim.is_dense());
        assert_eq!(sim.counts(), before, "dense → agent must be lossless");
        assert_eq!(sim.interactions(), interactions);
        sim.switch_to_dense().unwrap();
        assert!(sim.is_dense());
        assert_eq!(sim.counts(), before, "agent → dense must be lossless");
        assert_eq!(sim.interactions(), interactions);
        assert_eq!(sim.switches().len(), 2);
        // Manual switches are no-ops when already in the target mode.
        sim.switch_to_dense().unwrap();
        assert_eq!(sim.switches().len(), 2);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let run = || {
            let mut sim = HybridSimulator::new(Scatter { q: 1 << 14 }, 2_500, 77).unwrap();
            sim.run(60_000);
            (sim.counts(), sim.interactions(), sim.switches().to_vec())
        };
        let (ca, ia, sa) = run();
        let (cb, ib, sb) = run();
        assert_eq!(ca, cb);
        assert_eq!(ia, ib);
        assert_eq!(sa, sb, "switch points are seed-deterministic");
    }

    /// The sharded substrate the tests run on.
    const SHARDED: HybridSubstrate = HybridSubstrate::Sharded {
        shards: 2,
        threads: 1,
    };

    #[test]
    fn sharded_substrate_drives_the_same_process() {
        let mut sim = HybridSimulator::with_substrate(Rumor, 10_000, 11, SHARDED).unwrap();
        sim.transfer(0, 1, 1).unwrap();
        let outcome = sim.run_until(|s| s.count_of(1) == 10_000, 10_000, u64::MAX >> 1);
        assert!(outcome.converged());
        assert!(sim.switches().is_empty());
    }

    #[test]
    fn exhaustion_reports_actual_interactions() {
        let mut sim = HybridSimulator::new(Rumor, 1_000, 1).unwrap();
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
    fn snapshot_round_trip_replays_bit_identically_across_a_migration() {
        // Scatter migrates dense → per-agent mid-run; cut the run at chunk
        // boundaries on both sides of the switch and check each resume
        // replays bit-identically against the uninterrupted reference.
        let n = 3_000usize;
        let chunks = [1_009u64, 40_013, 25_057];
        let mut reference = HybridSimulator::new(Scatter { q: 1 << 14 }, n, 5).unwrap();
        for &c in &chunks {
            reference.run(c);
        }
        assert!(
            reference
                .switches()
                .iter()
                .any(|e| e.direction == SwitchDirection::ToAgent),
            "the workload must migrate for this test to bite"
        );
        let reference_bytes = reference.save_state().to_bytes();

        for cut in 1..chunks.len() {
            let mut victim = HybridSimulator::new(Scatter { q: 1 << 14 }, n, 5).unwrap();
            for &c in &chunks[..cut] {
                victim.run(c);
            }
            if cut == 2 {
                assert!(!victim.is_dense(), "the second cut should land mid-stint");
            }
            let bytes = victim.save_state().to_bytes();
            drop(victim);

            // A fresh simulator with a different seed: restore must overwrite
            // every trajectory-relevant field, including the seed that drives
            // future switch-seed derivation.
            let mut resumed = HybridSimulator::new(Scatter { q: 1 << 14 }, n, 999).unwrap();
            resumed.run(137);
            let snap = EngineSnapshot::from_bytes(&bytes).unwrap();
            resumed.restore_state(&snap).unwrap();
            for &c in &chunks[cut..] {
                resumed.run(c);
            }
            assert_eq!(resumed.interactions(), chunks.iter().sum::<u64>());
            assert_eq!(
                resumed.save_state().to_bytes(),
                reference_bytes,
                "resume from cut {cut} diverged from the uninterrupted run"
            );
        }
    }

    #[test]
    fn snapshot_round_trip_works_on_the_sharded_substrate() {
        // Trajectories are a function of the chunk schedule too, so the
        // reference replays the exact `run` calls the victim + resumed pair
        // make between them.
        let mut reference = HybridSimulator::with_substrate(Rumor, 4_096, 11, SHARDED).unwrap();
        reference.transfer(0, 1, 1).unwrap();
        reference.run(10_000);
        reference.run(20_000);

        let mut victim = HybridSimulator::with_substrate(Rumor, 4_096, 11, SHARDED).unwrap();
        victim.transfer(0, 1, 1).unwrap();
        victim.run(10_000);
        let snap = victim.save_state();
        let mut resumed = HybridSimulator::with_substrate(Rumor, 4_096, 11, SHARDED).unwrap();
        resumed.restore_state(&snap).unwrap();
        resumed.run(20_000);
        assert_eq!(
            resumed.save_state().to_bytes(),
            reference.save_state().to_bytes()
        );
    }

    #[test]
    fn leg_throughput_counts_only_what_this_process_timed() {
        let n = 3_000usize;
        let mut victim = HybridSimulator::new(Scatter { q: 1 << 14 }, n, 5).unwrap();
        victim.run(1_009);
        victim.run(40_013);
        assert!(!victim.is_dense(), "the restore should land mid-stint");
        // The target has timed work of its own, which the restore discards.
        let mut resumed = HybridSimulator::new(Scatter { q: 1 << 14 }, n, 5).unwrap();
        resumed.run(137);
        resumed.restore_state(&victim.save_state()).unwrap();

        // The restored totals cover the whole run, but no second of it was
        // timed here, so neither leg reports a throughput yet.
        let legs = resumed.legs();
        assert_eq!(legs.dense_interactions + legs.agent_interactions, 41_022);
        assert_eq!(legs.dense_timed_interactions, 0);
        assert_eq!(legs.agent_timed_interactions, 0);
        assert_eq!(legs.dense_throughput(), 0.0);
        assert_eq!(legs.agent_throughput(), 0.0);

        let k = 25_057;
        resumed.run(k);
        let legs = resumed.legs();
        assert_eq!(
            legs.dense_timed_interactions + legs.agent_timed_interactions,
            k
        );
        assert_eq!(
            legs.dense_interactions + legs.agent_interactions,
            41_022 + k
        );
    }

    #[test]
    fn snapshot_restore_validates_population_and_configuration() {
        let sim = HybridSimulator::new(Rumor, 1_000, 1).unwrap();
        let snap = sim.save_state();

        let mut other_n = HybridSimulator::new(Rumor, 2_000, 1).unwrap();
        assert!(matches!(
            other_n.restore_state(&snap),
            Err(SimError::SnapshotMismatch { .. })
        ));

        let mut other_substrate =
            HybridSimulator::with_substrate(Rumor, 1_000, 1, SHARDED).unwrap();
        assert!(matches!(
            other_substrate.restore_state(&snap),
            Err(SimError::SnapshotMismatch { .. })
        ));

        // A failed restore leaves the target runnable.
        other_substrate.run(500);
        assert_eq!(other_substrate.interactions(), 500);
        assert!(other_substrate.fault().is_none());
    }

    /// The two-state rumour again, but carrying an agent-state codec whose
    /// native state is the `u32` index itself: its stints are `"decoded"`,
    /// and their saved bytes read as well as the `"interned"` ones.
    #[derive(Debug, Clone, Copy)]
    struct CodedRumor;
    impl DenseProtocol for CodedRumor {
        type Output = bool;
        fn num_states(&self) -> usize {
            2
        }
        fn initial_state(&self) -> usize {
            0
        }
        fn transition(&self, u: usize, v: usize) -> (usize, usize) {
            Rumor.transition(u, v)
        }
        fn output(&self, s: usize) -> bool {
            s == 1
        }
        fn agent_stint(
            &self,
            source: StintSource<'_>,
        ) -> Option<Result<BoxedAgentStint<bool>, SimError>> {
            Some(DecodedStint::boxed(*self, source))
        }
    }
    impl crate::stint::AgentCodec for CodedRumor {
        type Native = IndexCodec<Rumor>;
        fn native(&self) -> IndexCodec<Rumor> {
            IndexCodec(Rumor)
        }
        fn decode_agent(&self, index: usize) -> u32 {
            index as u32
        }
        fn encode_agent(&self, state: &u32) -> usize {
            *state as usize
        }
    }

    /// A per-agent snapshot restores only into a protocol that builds the
    /// same kind of stint, in either direction.
    #[test]
    fn restoring_a_stint_of_another_kind_is_a_mismatch() {
        fn mid_stint<P: DenseProtocol + Clone + Send + 'static>(proto: P) -> EngineSnapshot {
            let mut sim = HybridSimulator::new(proto, 1_000, 4).unwrap();
            sim.transfer(0, 1, 10).unwrap();
            sim.switch_to_agent().unwrap();
            sim.run(500);
            sim.save_state()
        }
        let interned = mid_stint(Rumor);
        let decoded = mid_stint(CodedRumor);

        let mut coded = HybridSimulator::new(CodedRumor, 1_000, 4).unwrap();
        assert!(matches!(
            coded.restore_state(&interned),
            Err(SimError::SnapshotMismatch { .. })
        ));
        coded.restore_state(&decoded).unwrap();
        assert_eq!(coded.stint_kind(), Some("decoded"));

        let mut plain = HybridSimulator::new(Rumor, 1_000, 4).unwrap();
        assert!(matches!(
            plain.restore_state(&decoded),
            Err(SimError::SnapshotMismatch { .. })
        ));
        plain.restore_state(&interned).unwrap();
        assert_eq!(plain.stint_kind(), Some("interned"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Hysteresis no-thrash: occupancy sequences confined to the band
        /// between the thresholds never migrate, whatever their shape.
        #[test]
        fn monitor_never_switches_inside_the_hysteresis_band(
            seed in any::<u64>(),
            observations in 1usize..200,
        ) {
            let n = 1_000_000u64; // √n = 1000: band is q_occ ∈ (√8000, √64000] ≈ (89, 253]
            let mut monitor = OccupancyMonitor::new(n);
            let mut x = seed;
            for _ in 0..observations {
                // xorshift; occupancy confined to [90, 253]
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let occ = 90 + (x % 164) as usize;
                prop_assert_eq!(monitor.observe(occ), None);
                prop_assert!(monitor.is_dense());
            }
        }

        /// A single outlier observation never migrates, and sustained
        /// crossings migrate at the second observation, once per direction.
        #[test]
        fn monitor_needs_a_sustained_crossing(
            high in 81usize..100_000,
            band in 29usize..81,
            low in 0usize..29,
        ) {
            // √n = 100: up at q² > 6400 (q ≥ 81), down at q² < 800 (q ≤ 28).
            let mut monitor = OccupancyMonitor::new(10_000);
            // Outlier, then back in band: no switch.
            prop_assert_eq!(monitor.observe(high), None);
            prop_assert_eq!(monitor.observe(band), None);
            // Sustained: switches at the second observation of the window.
            prop_assert_eq!(monitor.observe(high), None);
            prop_assert_eq!(monitor.observe(high), Some(SwitchDirection::ToAgent));
            prop_assert!(!monitor.is_dense());
            // Same discipline on the way back down.
            prop_assert_eq!(monitor.observe(low), None);
            prop_assert_eq!(monitor.observe(band), None);
            prop_assert_eq!(monitor.observe(low), None);
            prop_assert_eq!(monitor.observe(low), Some(SwitchDirection::ToDense));
            prop_assert!(monitor.is_dense());
        }
    }
}
