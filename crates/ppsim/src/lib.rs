//! # `ppsim` — a simulator for the probabilistic population-protocol model
//!
//! This crate implements the computation model used by the paper
//! *On Counting the Population Size* (Berenbrink, Kaaser, Radzik — PODC 2019):
//! a population of `n` anonymous agents, each holding a state from a common state
//! space, interacting in ordered pairs `(initiator, responder)` chosen independently
//! and uniformly at random in every discrete time step.  During an interaction both
//! agents update their states according to a transition function that is *common to
//! all agents* and — for uniform protocols — does not depend on `n`.
//!
//! The crate provides:
//!
//! * the [`Protocol`] trait describing a population protocol (transition function,
//!   initial state, output function),
//! * [`Scheduler`] implementations, most importantly the uniformly random scheduler
//!   of the probabilistic model ([`UniformScheduler`]),
//! * the [`Simulator`] driving a single execution, with convergence detection,
//! * the **batched count-based engine** [`BatchedSimulator`] for protocols with an
//!   enumerable state space ([`DenseProtocol`]): it stores the configuration as
//!   state counts and advances whole collision-free blocks of `Θ(√n)` interactions
//!   in `O(q²)` work via exact hypergeometric sampling ([`sample`]) — the engine of
//!   choice for populations of 10⁵ agents and beyond,
//! * the **sharded batched engine** [`ShardedBatchedSimulator`]: the counts split
//!   over `S` shards advancing epoch-parallel on worker threads, with exact bulk
//!   resolution of cross-shard interactions and uniform rebalancing — the engine
//!   for populations of 10⁷ to 10⁹ agents (see [`sharded`] for the exactness
//!   discussion),
//! * the **hybrid engine** [`HybridSimulator`]: the batched/sharded substrate
//!   while the occupancy stays low, transparent migration to per-agent
//!   simulation (and back) when an occupancy monitor with hysteresis detects
//!   that the count representation has gone degenerate — the engine for
//!   dynamic (interned) protocols whose state census blows up mid-run, such
//!   as the `CountExact` refinement stage ([`hybrid`]); protocols carrying a
//!   typed agent-state codec ([`AgentCodec`], [`stint`]) run their per-agent
//!   stints on **native structs** with no interner traffic in the hot loop,
//! * an engine-selection layer ([`Engine`], [`DenseSimulator`]) with a
//!   measured, protocol-aware auto heuristic, so harness code picks engines
//!   by argument, not by code path,
//! * a **checkpoint/resume layer** ([`snapshot`]): a versioned, CRC-checked
//!   binary snapshot format and the [`Checkpointable`] trait implemented by
//!   all four engines, with bit-identical deterministic replay after restore,
//!   plus the fault-injection harness ([`faultsim`]) that verifies it,
//! * an **adversarial fault model** ([`adversary`]): arbitrary and worst-case
//!   initializations, deterministic fault plans (state corruption, agent
//!   silencing) injected exactly in every representation, and recovery-time
//!   probing for self-stabilization experiments,
//! * measurement utilities ([`metrics`]) such as empirical state-space tracking,
//! * a multi-threaded independent-trial runner ([`parallel`]) for parameter sweeps.
//!
//! # Quick example
//!
//! ```rust
//! use ppsim::{Protocol, Simulator};
//! use rand::rngs::SmallRng;
//!
//! /// One-way epidemic: a single `1` spreads to the whole population.
//! struct Epidemic;
//!
//! impl Protocol for Epidemic {
//!     type State = u8;
//!     type Output = u8;
//!     fn initial_state(&self) -> u8 { 0 }
//!     fn interact(&self, u: &mut u8, v: &mut u8, _rng: &mut SmallRng) {
//!         let m = (*u).max(*v);
//!         *u = m;
//!         *v = m;
//!     }
//!     fn output(&self, s: &u8) -> u8 { *s }
//! }
//!
//! # fn main() -> Result<(), ppsim::SimError> {
//! let mut sim = Simulator::new(Epidemic, 100, 42)?;
//! sim.states_mut()[0] = 1; // plant the rumour
//! let outcome = sim.run_until(|sim| sim.states().iter().all(|&s| s == 1), 100, 1_000_000);
//! assert!(outcome.converged());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod batched;
mod block;
pub mod config;
pub mod conformance;
pub mod convergence;
pub mod dense;
pub mod engine;
pub mod error;
pub mod faultsim;
pub mod hybrid;
pub mod interned;
pub mod metrics;
pub mod parallel;
pub mod protocol;
pub mod rng;
pub mod sample;
pub mod scheduler;
pub mod sharded;
pub mod simulator;
pub mod snapshot;
pub mod stint;

pub use adversary::{
    reconvergence_time, AdversarialRun, CorruptionTarget, FaultEvent, FaultKind, FaultPlan,
    InitStrategy, RecoveryRecord, WorstCaseReport, WorstCaseSearch,
};
pub use batched::BatchedSimulator;
pub use config::ConfigurationStats;
pub use conformance::{
    pair_quantity, run_cell, run_matrix, BoundCell, CellResult, ConservationLaw, ConservedQuantity,
    MatrixSummary, ProtocolInvariants, Scenario,
};
pub use convergence::RunOutcome;
pub use dense::DenseProtocol;
pub use engine::{DenseSequential, DenseSimulator, Engine, SEQUENTIAL_CROSSOVER};
pub use error::SimError;
pub use hybrid::{
    HybridLegs, HybridSimulator, HybridSubstrate, OccupancyMonitor, SwitchDirection, SwitchEvent,
};
pub use interned::StateInterner;
pub use metrics::StateSpaceTracker;
pub use parallel::run_trials_with_threads;
pub use protocol::Protocol;
pub use rng::{derive_seed, seeded_rng};
pub use scheduler::{AllPairsScheduler, Scheduler, UniformScheduler};
pub use sharded::{ShardedBatchedSimulator, ShardedConfig};
pub use simulator::Simulator;
pub use snapshot::{
    Checkpointable, EngineSnapshot, PersistState, SnapshotReader, SNAPSHOT_VERSION,
};
pub use stint::{AgentCodec, AgentStint, BoxedAgentStint, DecodedStint, IndexCodec, StintSource};
