//! Adversarial initializations, transient fault injection, and recovery
//! probing — the layer self-stabilization experiments run on.
//!
//! The paper analyses its protocols from the clean all-`q₀` configuration
//! under a fault-free uniform scheduler.  Self-stabilizing protocols
//! (Herman's protocol, the space–time leader election of Austin–Berenbrink
//! et al.; see `PAPERS.md`) are instead *defined* by recovery from arbitrary
//! configurations, so measuring them needs three things the engines alone
//! do not provide:
//!
//! 1. **[`InitStrategy`]** — adversary-chosen starting configurations:
//!    a fixed count vector, a seeded uniform-random configuration, a
//!    seeded "arbitrary" configuration (random occupied set, random
//!    composition), and [`WorstCaseSearch`], a random-restart hill-climb
//!    over configurations maximizing observed reconvergence time.
//! 2. **[`FaultPlan`]** — a deterministic schedule of transient faults
//!    fired at absolute interaction counts: corrupt `k` agents to
//!    adversary-chosen states ([`FaultKind::Corrupt`]) or silence `k`
//!    agents for a window of interactions ([`FaultKind::Silence`]).
//!    Injection is exact in every representation — dense counts move mass
//!    between states, sharded runs split the victim draw
//!    hypergeometrically across shards, hybrid per-agent stints overwrite
//!    native structs through the [`AgentCodec`](crate::AgentCodec) — and
//!    all fault randomness comes from a dedicated plan RNG, so a plan
//!    perturbs the engine's scheduled trajectory only through the faults
//!    themselves.
//! 3. **[`AdversarialRun`]** — an engine wrapper that fires the plan at
//!    its scheduled times, resets convergence-probing state at each
//!    injection ([`DenseSimulator::reset_monitor`]), and records a
//!    [`RecoveryRecord`] per event with the reconvergence time observed by
//!    [`AdversarialRun::run_until`].  The fault cursor (next event, plan
//!    RNG, recovery records) is carried through [`crate::snapshot`], so a
//!    kill/resume mid-plan replays the remaining faults bit-identically.
//!
//! # Silence faults are exact
//!
//! Silencing `k` agents for `W` interactions does **not** run the main
//! engine with rejection: the victims are stashed (a multivariate
//! hypergeometric draw from the plan RNG), and the remaining `n − k` agents
//! run on a *window engine* of the same kind for `E ~ Binomial(W, p)`
//! effective interactions, where `p = (n−k)(n−k−1) / (n(n−1))` is the
//! probability that a uniform ordered pair avoids the victims.  The window
//! then merges back via [`DenseSimulator::set_counts`].  The window is
//! atomic within one [`AdversarialRun::run`] call (the clock may overshoot
//! a budget boundary by the remainder of a window), so a snapshot never
//! observes a half-executed silence window.
//!
//! # Example: one corruption mid-epidemic
//!
//! ```rust
//! use ppsim::adversary::{AdversarialRun, CorruptionTarget, FaultEvent, FaultKind, FaultPlan, InitStrategy};
//! use ppsim::{DenseProtocol, Engine};
//!
//! /// One-way epidemic: rumour state 1 spreads to the whole population.
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
//! // Knock 100 informed agents back to ignorance after 5 000 interactions.
//! let plan = FaultPlan::new(vec![FaultEvent {
//!     at: 5_000,
//!     kind: FaultKind::Corrupt { agents: 100, target: CorruptionTarget::State(0) },
//! }])?;
//! let mut run = AdversarialRun::new(Engine::Batched, Rumor, 2_000, 42, InitStrategy::Clean, plan)?;
//! run.inner_mut().transfer(0, 1, 1)?; // plant the rumour
//!
//! let outcome = run.run_until(|s| s.count_of(1) == s.population(), 1_000, 10_000_000)?;
//! assert!(outcome.converged(), "the epidemic must recover from the corruption");
//! let record = &run.records()[0];
//! assert_eq!(record.injected_at, 5_000);
//! assert!(record.recovery_time().is_some());
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::convergence::RunOutcome;
use crate::dense::DenseProtocol;
use crate::engine::{DenseSimulator, Engine};
use crate::error::SimError;
use crate::rng::{derive_seed, seeded_rng};
use crate::sample::{binomial, multinomial, multivariate_hypergeometric_sparse};
use crate::snapshot::{
    persist_rng, unpersist_rng, Checkpointable, EngineSnapshot, PersistState, SnapshotReader,
    ENGINE_ADVERSARY,
};

/// Seed-derivation salt for the plan RNG (fault randomness), keeping it a
/// separate stream from the engine's schedule RNG built on the same master
/// seed.
const PLAN_SALT: u64 = 0x41_44_56;

/// What a corrupted agent's state is overwritten with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionTarget {
    /// Every victim is set to this dense state index.
    State(usize),
    /// Each victim is set independently uniformly over `0..states` (drawn
    /// from the plan RNG).
    Uniform {
        /// Exclusive upper bound of the target state range.
        states: usize,
    },
}

impl PersistState for CorruptionTarget {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            CorruptionTarget::State(s) => {
                0u8.persist(out);
                s.persist(out);
            }
            CorruptionTarget::Uniform { states } => {
                1u8.persist(out);
                states.persist(out);
            }
        }
    }

    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        match u8::unpersist(r)? {
            0 => Ok(CorruptionTarget::State(usize::unpersist(r)?)),
            1 => Ok(CorruptionTarget::Uniform {
                states: usize::unpersist(r)?,
            }),
            tag => Err(SimError::SnapshotCorrupt {
                reason: format!("unknown corruption-target tag {tag}"),
            }),
        }
    }
}

/// One kind of transient fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrite the states of `agents` victims chosen uniformly without
    /// replacement.  Instantaneous (consumes no interactions).
    Corrupt {
        /// Number of victims.
        agents: u64,
        /// What each victim's state becomes.
        target: CorruptionTarget,
    },
    /// Remove `agents` victims from the interaction schedule for the next
    /// `window` interactions (they keep their states and rejoin afterwards).
    Silence {
        /// Number of victims (must leave at least 2 active agents).
        agents: u64,
        /// Length of the silence window in interactions (the window
        /// executes atomically; see the module docs).
        window: u64,
    },
}

impl PersistState for FaultKind {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            FaultKind::Corrupt { agents, target } => {
                0u8.persist(out);
                agents.persist(out);
                target.persist(out);
            }
            FaultKind::Silence { agents, window } => {
                1u8.persist(out);
                agents.persist(out);
                window.persist(out);
            }
        }
    }

    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        match u8::unpersist(r)? {
            0 => Ok(FaultKind::Corrupt {
                agents: u64::unpersist(r)?,
                target: CorruptionTarget::unpersist(r)?,
            }),
            1 => Ok(FaultKind::Silence {
                agents: u64::unpersist(r)?,
                window: u64::unpersist(r)?,
            }),
            tag => Err(SimError::SnapshotCorrupt {
                reason: format!("unknown fault-kind tag {tag}"),
            }),
        }
    }
}

/// One scheduled fault: `kind` fires when the run's logical clock reaches
/// the absolute interaction count `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Absolute interaction count at which the fault fires.
    pub at: u64,
    /// The fault to inject.
    pub kind: FaultKind,
}

impl PersistState for FaultEvent {
    fn persist(&self, out: &mut Vec<u8>) {
        self.at.persist(out);
        self.kind.persist(out);
    }

    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        Ok(FaultEvent {
            at: u64::unpersist(r)?,
            kind: FaultKind::unpersist(r)?,
        })
    }
}

/// A deterministic schedule of transient faults, sorted by firing time.
///
/// The plan is immutable after validation; together with a master seed it
/// pins the entire faulty execution, which is what makes (seed, plan) pairs
/// replayable across kill/resume ([`AdversarialRun`]'s [`Checkpointable`]
/// implementation embeds the plan bytes and refuses to restore into a run
/// built over a different plan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Validate and sort a fault schedule.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if a silence window has zero
    /// length or would end past `u64::MAX`, or if any event is scheduled
    /// inside an earlier event's silence window (the window executes
    /// atomically, so the clock could never stop at the inner event's time).
    pub fn new(mut events: Vec<FaultEvent>) -> Result<Self, SimError> {
        events.sort_by_key(|e| e.at);
        let mut blocked_until: Option<(u64, u64)> = None;
        for event in &events {
            if let Some((start, end)) = blocked_until {
                if event.at < end {
                    return Err(SimError::InvalidParameter {
                        name: "fault_plan",
                        reason: format!(
                            "event at {} falls inside the silence window ({start}, {end}) of an \
                             earlier event",
                            event.at
                        ),
                    });
                }
            }
            if let FaultKind::Silence { window, .. } = event.kind {
                if window == 0 {
                    return Err(SimError::InvalidParameter {
                        name: "fault_plan",
                        reason: "a silence window must span at least one interaction".to_string(),
                    });
                }
                let Some(end) = event.at.checked_add(window) else {
                    return Err(SimError::InvalidParameter {
                        name: "fault_plan",
                        reason: format!("the silence window at {} overflows the clock", event.at),
                    });
                };
                blocked_until = Some((event.at, end));
            }
        }
        Ok(FaultPlan { events })
    }

    /// An empty plan (the wrapped run degenerates to the plain engine).
    #[must_use]
    pub fn empty() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// The validated events in firing order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The plan's canonical byte encoding — embedded in snapshots so a
    /// restore into a run built over a different plan fails loudly.
    #[must_use]
    pub fn fingerprint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.events.persist(&mut out);
        out
    }
}

/// How the starting configuration is chosen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InitStrategy {
    /// The protocol's own initial configuration (all agents in `q₀`).
    Clean,
    /// A fixed count vector (shorter than `q` is zero-padded; must sum to
    /// the population).
    Fixed(Vec<u64>),
    /// Each agent's state drawn independently uniformly over `0..states`.
    Uniform {
        /// Exclusive upper bound of the state range agents are thrown into.
        states: usize,
        /// Seed of the draw (independent of the run's master seed).
        seed: u64,
    },
    /// A seeded "arbitrary" configuration: a uniformly chosen occupied-set
    /// size `m`, a uniform `m`-subset of `0..states`, and a uniform random
    /// composition of the population over those `m` states — unlike
    /// [`InitStrategy::Uniform`] this reaches lopsided configurations
    /// (one giant block, a few singletons) with non-vanishing probability.
    SeededArbitrary {
        /// Exclusive upper bound of the state range agents are thrown into.
        states: usize,
        /// Seed of the draw (independent of the run's master seed).
        seed: u64,
    },
}

impl InitStrategy {
    /// The configuration this strategy produces for a population of `n`
    /// over a state space of size `q`, or `None` for [`InitStrategy::Clean`]
    /// (keep the engine's own initial configuration).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if the strategy's state range
    /// is empty or exceeds `q`, or a fixed configuration does not fit.
    pub fn counts(&self, n: u64, q: usize) -> Result<Option<Vec<u64>>, SimError> {
        match self {
            InitStrategy::Clean => Ok(None),
            InitStrategy::Fixed(counts) => {
                if counts.len() > q {
                    return Err(SimError::InvalidParameter {
                        name: "init",
                        reason: format!(
                            "fixed configuration spans {} states, the state space has {q}",
                            counts.len()
                        ),
                    });
                }
                let mut full = counts.clone();
                full.resize(q, 0);
                Ok(Some(full))
            }
            InitStrategy::Uniform { states, seed } => {
                let states = check_range(*states, q)?;
                let mut rng = seeded_rng(*seed);
                let mut drawn = Vec::new();
                multinomial(&mut rng, n, &vec![1u128; states], &mut drawn);
                drawn.resize(q, 0);
                Ok(Some(drawn))
            }
            InitStrategy::SeededArbitrary { states, seed } => {
                let states = check_range(*states, q)?;
                let mut rng = seeded_rng(*seed);
                let mut counts = vec![0u64; q];
                arbitrary_composition(&mut counts, n, states, &mut rng);
                Ok(Some(counts))
            }
        }
    }

    /// Apply this strategy to a freshly constructed simulator.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::counts`] and
    /// [`DenseSimulator::set_counts`] errors.
    pub fn apply<P: DenseProtocol + Clone + Send + 'static>(
        &self,
        sim: &mut DenseSimulator<P>,
    ) -> Result<(), SimError> {
        match self.counts(sim.population(), sim.num_states())? {
            Some(counts) => sim.set_counts(counts),
            None => Ok(()),
        }
    }
}

fn check_range(states: usize, q: usize) -> Result<usize, SimError> {
    if states == 0 || states > q {
        return Err(SimError::InvalidParameter {
            name: "init",
            reason: format!("state range {states} outside 1..={q}"),
        });
    }
    Ok(states)
}

/// Fill `counts` with an arbitrary composition: a uniform occupied-set size
/// `m ∈ 1..=min(states, n)`, a uniform `m`-subset of `0..states` (partial
/// Fisher–Yates), and a uniform composition of `n` into `m` positive parts
/// (`m − 1` distinct cut points in `1..n`, stars and bars).
fn arbitrary_composition(counts: &mut [u64], n: u64, states: usize, rng: &mut SmallRng) {
    let m = rng.gen_range(1..=states.min(n as usize).max(1));
    let mut slots: Vec<usize> = (0..states).collect();
    for v in 0..m {
        let swap = v + rng.gen_range(0..states - v);
        slots.swap(v, swap);
    }
    let mut cuts = BTreeSet::new();
    while cuts.len() < m - 1 {
        cuts.insert(rng.gen_range(1..n));
    }
    let mut prev = 0u64;
    let mut slot = 0usize;
    for cut in cuts {
        counts[slots[slot]] = cut - prev;
        prev = cut;
        slot += 1;
    }
    counts[slots[slot]] = n - prev;
}

/// Observed reconvergence time of `protocol` on `engine` from the
/// configuration `configuration` (zero-padded to the state space): the
/// interaction count at which `pred` first held (up to `check_every`
/// granularity), or `None` if the budget ran out — the objective
/// [`WorstCaseSearch`] maximizes.
///
/// # Errors
///
/// Propagates engine construction and [`DenseSimulator::set_counts`] errors.
#[allow(clippy::too_many_arguments)] // mirrors the full (engine, protocol, n, seed, init, pred, cadence, budget) tuple
pub fn reconvergence_time<P, F>(
    engine: Engine,
    protocol: &P,
    n: usize,
    seed: u64,
    configuration: &[u64],
    mut pred: F,
    check_every: u64,
    max_interactions: u64,
) -> Result<Option<u64>, SimError>
where
    P: DenseProtocol + Clone + Send + 'static,
    F: FnMut(&DenseSimulator<P>) -> bool,
{
    let mut sim = DenseSimulator::new(engine, protocol.clone(), n, seed)?;
    let mut counts = configuration.to_vec();
    if counts.len() > sim.num_states() {
        return Err(SimError::InvalidParameter {
            name: "configuration",
            reason: format!(
                "configuration spans {} states, the state space has {}",
                counts.len(),
                sim.num_states()
            ),
        });
    }
    counts.resize(sim.num_states(), 0);
    sim.set_counts(counts)?;
    match sim.run_until(|s| pred(s), check_every, max_interactions) {
        RunOutcome::Converged { interactions } => Ok(Some(interactions)),
        RunOutcome::Exhausted { .. } => Ok(None),
    }
}

/// Random-restart hill-climb over starting configurations, maximizing the
/// observed reconvergence time — the worst-case-init search driver.
///
/// Every candidate is evaluated with the same `eval_seeds` engine seeds
/// (all derived from [`Self::seed`]), so the objective is a deterministic
/// function of the configuration and the search — including its reported
/// worst init and that init's objective value — is reproducible from
/// [`Self::seed`] alone.  An exhausted budget ranks above every finite
/// time (the adversary found a configuration the protocol could not
/// recover from within the budget).
///
/// With `eval_seeds = 1` (the classical search) a candidate's badness is
/// its recovery time under a single schedule, which can overfit to one
/// lucky or unlucky interaction sequence.  With more seeds the objective
/// is **maximin**: the candidate's badness is its *minimum* badness across
/// the derived schedules, so a reported worst case must be slow to recover
/// under every probed schedule, not a fluke of one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorstCaseSearch {
    /// The adversary may populate states `0..states`.
    pub states: usize,
    /// Number of independent random restarts.
    pub restarts: usize,
    /// Coordinate-wise perturbation steps per restart.
    pub steps: usize,
    /// Fraction of the population moved per perturbation (at least one
    /// agent always moves).
    pub move_fraction: f64,
    /// Master seed of the search (candidate draws and evaluation seeds).
    pub seed: u64,
    /// Independent engine seeds per candidate (the multi-seed objective);
    /// `1` reproduces the classical single-schedule search exactly.
    pub eval_seeds: usize,
}

/// The outcome of a [`WorstCaseSearch`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use]
pub struct WorstCaseReport {
    /// The worst configuration found (zero-padded to the state space).
    pub configuration: Vec<u64>,
    /// Its reconvergence time; `None` means the convergence budget ran out.
    pub interactions: Option<u64>,
    /// Total configurations evaluated.
    pub evaluations: usize,
}

impl WorstCaseSearch {
    /// Run the search against `pred` (the convergence predicate) with the
    /// given probing granularity and per-evaluation interaction budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for a degenerate search space
    /// and propagates engine construction errors.
    pub fn run<P, F>(
        &self,
        engine: Engine,
        protocol: &P,
        n: usize,
        pred: F,
        check_every: u64,
        max_interactions: u64,
    ) -> Result<WorstCaseReport, SimError>
    where
        P: DenseProtocol + Clone + Send + 'static,
        F: Fn(&DenseSimulator<P>) -> bool,
    {
        if self.states == 0 || self.restarts == 0 || self.eval_seeds == 0 {
            return Err(SimError::InvalidParameter {
                name: "worst_case_search",
                reason: "need at least one state, one restart and one eval seed".to_string(),
            });
        }
        // Exhausted budgets sort above every finite time.
        let badness = |t: Option<u64>| t.map_or(u128::MAX, u128::from);
        // Seed 0 is the classical single-schedule eval seed, so
        // `eval_seeds: 1` reproduces the historical search bit for bit.
        let eval_seed = |j: u64| derive_seed(self.seed, 0xE7A1 + j);
        let mut rng = seeded_rng(derive_seed(self.seed, 0x5EED));
        let mut evaluations = 0usize;
        // The maximin aggregate: a candidate's objective is its *minimum*
        // recovery time across the derived schedules (`None` only if every
        // schedule exhausted the budget).
        let evaluate =
            |configuration: &[u64], evaluations: &mut usize| -> Result<Option<u64>, SimError> {
                let mut worst: Option<u64> = None;
                for j in 0..self.eval_seeds as u64 {
                    *evaluations += 1;
                    let t = reconvergence_time(
                        engine,
                        protocol,
                        n,
                        eval_seed(j),
                        configuration,
                        &pred,
                        check_every,
                        max_interactions,
                    )?;
                    worst = match (worst, t) {
                        (cur, None) => cur,
                        (None, Some(t)) => Some(t),
                        (Some(cur), Some(t)) => Some(cur.min(t)),
                    };
                }
                Ok(worst)
            };
        let move_k = ((n as f64 * self.move_fraction) as u64).max(1);
        let mut best: Option<(Vec<u64>, Option<u64>)> = None;
        for _ in 0..self.restarts {
            let mut current = vec![0u64; self.states];
            arbitrary_composition(&mut current, n as u64, self.states, &mut rng);
            let mut current_time = evaluate(&current, &mut evaluations)?;
            for _ in 0..self.steps {
                let mut candidate = current.clone();
                perturb(&mut candidate, move_k, &mut rng);
                let t = evaluate(&candidate, &mut evaluations)?;
                if badness(t) >= badness(current_time) {
                    current = candidate;
                    current_time = t;
                }
            }
            if best
                .as_ref()
                .is_none_or(|(_, t)| badness(current_time) > badness(*t))
            {
                best = Some((current, current_time));
            }
        }
        let Some((configuration, interactions)) = best else {
            return Err(SimError::InvalidParameter {
                name: "restarts",
                reason: "the worst-case search needs at least one restart".to_string(),
            });
        };
        Ok(WorstCaseReport {
            configuration,
            interactions,
            evaluations,
        })
    }
}

/// Move up to `k` agents from one occupied coordinate to another coordinate
/// — a single hill-climb step.
fn perturb(counts: &mut [u64], k: u64, rng: &mut SmallRng) {
    let occupied: Vec<usize> = (0..counts.len()).filter(|&s| counts[s] > 0).collect();
    let from = occupied[rng.gen_range(0..occupied.len())];
    let to = rng.gen_range(0..counts.len());
    let amount = k.min(counts[from]);
    counts[from] -= amount;
    counts[to] += amount;
}

/// One fault event's recovery bookkeeping: when it was injected and when
/// the convergence predicate next held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Index of the event in the plan.
    pub event_index: usize,
    /// Logical clock at injection (the event's scheduled time).
    pub injected_at: u64,
    /// Logical clock at the first [`AdversarialRun::run_until`] check at
    /// which the predicate held again; `None` while still recovering.
    pub reconverged_at: Option<u64>,
}

impl RecoveryRecord {
    /// Interactions from injection to reconvergence, if reconverged.
    #[must_use]
    pub fn recovery_time(&self) -> Option<u64> {
        self.reconverged_at.map(|t| t - self.injected_at)
    }
}

impl PersistState for RecoveryRecord {
    fn persist(&self, out: &mut Vec<u8>) {
        self.event_index.persist(out);
        self.injected_at.persist(out);
        self.reconverged_at.persist(out);
    }

    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        Ok(RecoveryRecord {
            event_index: usize::unpersist(r)?,
            injected_at: u64::unpersist(r)?,
            reconverged_at: Option::<u64>::unpersist(r)?,
        })
    }
}

/// A [`DenseSimulator`] wrapped in a [`FaultPlan`]: runs the engine, fires
/// each fault exactly when the logical clock reaches its scheduled time,
/// and records recovery times (see the module docs).
///
/// The logical clock is the engine's interaction count plus the summed
/// silence windows (a silence window advances time without the main engine
/// executing — its survivors run on a window engine; see the module docs).
#[derive(Debug, Clone)]
pub struct AdversarialRun<P: DenseProtocol + Clone + Send + 'static> {
    sim: DenseSimulator<P>,
    engine: Engine,
    protocol: P,
    n: u64,
    plan: FaultPlan,
    plan_rng: SmallRng,
    /// Logical time contributed by completed silence windows.
    silenced: u64,
    next_event: usize,
    records: Vec<RecoveryRecord>,
}

impl<P: DenseProtocol + Clone + Send + 'static> AdversarialRun<P> {
    /// Wrap a fresh engine in a fault plan, applying `init` first.
    ///
    /// The engine is seeded with `seed` verbatim (so the fault-free prefix
    /// matches a plain `DenseSimulator::new(engine, …, seed)` run); the
    /// plan RNG derives from it on a salted stream.
    ///
    /// # Errors
    ///
    /// Propagates engine construction and [`InitStrategy`] errors.
    pub fn new(
        engine: Engine,
        protocol: P,
        n: usize,
        seed: u64,
        init: InitStrategy,
        plan: FaultPlan,
    ) -> Result<Self, SimError> {
        let mut sim = DenseSimulator::new(engine, protocol.clone(), n, seed)?;
        init.apply(&mut sim)?;
        Ok(AdversarialRun {
            sim,
            engine,
            protocol,
            n: n as u64,
            plan,
            plan_rng: seeded_rng(derive_seed(seed, PLAN_SALT)),
            silenced: 0,
            next_event: 0,
            records: Vec::new(),
        })
    }

    /// The wrapped engine (convergence predicates receive this reference).
    #[must_use]
    pub fn inner(&self) -> &DenseSimulator<P> {
        &self.sim
    }

    /// Mutable access to the wrapped engine (experiment setup between
    /// construction and the first [`Self::run`]).
    #[must_use]
    pub fn inner_mut(&mut self) -> &mut DenseSimulator<P> {
        &mut self.sim
    }

    /// The fault plan driving this run.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The logical clock: engine interactions plus completed silence
    /// windows.
    #[must_use]
    pub fn interactions(&self) -> u64 {
        self.sim.interactions() + self.silenced
    }

    /// The population size `n`.
    #[must_use]
    pub fn population(&self) -> u64 {
        self.n
    }

    /// Number of plan events already fired.
    #[must_use]
    pub fn events_fired(&self) -> usize {
        self.next_event
    }

    /// Per-event recovery bookkeeping, in firing order.
    #[must_use]
    pub fn records(&self) -> &[RecoveryRecord] {
        &self.records
    }

    /// Advance the logical clock by `budget` interactions, firing every
    /// plan event whose time is crossed.  A silence window that starts
    /// inside the budget executes atomically, so the clock may end past
    /// `budget` (see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates injection errors ([`DenseSimulator::corrupt`], window
    /// engine construction).  An injection error leaves the event unfired;
    /// the plan cannot make progress past it.
    pub fn run(&mut self, budget: u64) -> Result<(), SimError> {
        let target = self.interactions().saturating_add(budget);
        while self.interactions() < target {
            while let Some(event) = self.plan.events.get(self.next_event) {
                if event.at > self.interactions() {
                    break;
                }
                self.fire()?;
            }
            if self.interactions() >= target {
                break;
            }
            let until = match self.plan.events.get(self.next_event) {
                Some(event) => target.min(event.at),
                None => target,
            };
            let step = until.saturating_sub(self.interactions());
            if step > 0 {
                self.sim.run(step);
            }
        }
        Ok(())
    }

    /// Run until `pred` holds on the wrapped engine **and** every plan
    /// event has fired (checked every `check_every` interactions, and once
    /// before the first step), or until `max_interactions` total logical
    /// interactions.  Each check at which `pred` holds marks every
    /// still-recovering [`RecoveryRecord`] as reconverged at the current
    /// clock.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::run`] errors.
    pub fn run_until<F>(
        &mut self,
        mut pred: F,
        check_every: u64,
        max_interactions: u64,
    ) -> Result<RunOutcome, SimError>
    where
        F: FnMut(&DenseSimulator<P>) -> bool,
    {
        let check_every = check_every.max(1);
        loop {
            if pred(&self.sim) {
                let now = self.interactions();
                for record in &mut self.records {
                    record.reconverged_at.get_or_insert(now);
                }
                if self.next_event >= self.plan.events.len() {
                    return Ok(RunOutcome::Converged { interactions: now });
                }
            }
            if self.interactions() >= max_interactions {
                return Ok(RunOutcome::Exhausted {
                    interactions: self.interactions(),
                    budget: max_interactions,
                });
            }
            let chunk = check_every.min(max_interactions - self.interactions());
            self.run(chunk)?;
        }
    }

    /// Fire the next plan event now.
    fn fire(&mut self) -> Result<(), SimError> {
        let index = self.next_event;
        let event = self.plan.events[index];
        match event.kind {
            FaultKind::Corrupt { agents, target } => {
                #[allow(clippy::type_complexity)]
                let mut overwrite: Box<dyn FnMut(usize, &mut SmallRng) -> usize> = match target {
                    CorruptionTarget::State(s) => Box::new(move |_, _: &mut SmallRng| s),
                    CorruptionTarget::Uniform { states } => {
                        Box::new(move |_, rng: &mut SmallRng| rng.gen_range(0..states))
                    }
                };
                self.sim
                    .corrupt(agents, &mut self.plan_rng, &mut overwrite)?;
            }
            FaultKind::Silence { agents, window } => self.silence(agents, window)?,
        }
        self.sim.reset_monitor();
        self.next_event = index + 1;
        self.records.push(RecoveryRecord {
            event_index: index,
            injected_at: event.at,
            reconverged_at: None,
        });
        Ok(())
    }

    /// Execute one atomic silence window (see the module docs): stash the
    /// victims, run the survivors on a window engine for the binomially
    /// thinned effective interaction count, merge back, advance the clock
    /// by the full window.
    fn silence(&mut self, agents: u64, window: u64) -> Result<(), SimError> {
        if agents.checked_add(2).is_none_or(|needed| needed > self.n) {
            return Err(SimError::InvalidParameter {
                name: "silence",
                reason: format!(
                    "silencing {agents} of {} agents leaves fewer than 2 active",
                    self.n
                ),
            });
        }
        let counts = self.sim.counts();
        let occupied: Vec<u32> = (0..counts.len())
            .filter(|&s| counts[s] > 0)
            .map(|s| s as u32)
            .collect();
        let mut stash = Vec::new();
        multivariate_hypergeometric_sparse(
            &mut self.plan_rng,
            &counts,
            &occupied,
            self.n,
            agents,
            &mut stash,
        );
        let mut active = counts;
        for &(state, c) in &stash {
            active[state as usize] -= c;
        }
        let survivors = self.n - agents;
        let window_seed = self.plan_rng.gen::<u64>();
        let mut window_sim = DenseSimulator::new(
            self.engine,
            self.protocol.clone(),
            survivors as usize,
            window_seed,
        )?;
        active.resize(window_sim.num_states(), 0);
        window_sim.set_counts(active)?;
        // Effective interactions: both endpoints of a uniform ordered pair
        // must avoid the victims.
        let p = (survivors as f64 * (survivors - 1) as f64) / (self.n as f64 * (self.n - 1) as f64);
        let effective = binomial(&mut self.plan_rng, window, p);
        window_sim.run(effective);
        let mut merged = window_sim.counts();
        merged.resize(merged.len().max(self.sim.num_states()), 0);
        for (state, c) in stash {
            merged[state as usize] += c;
        }
        merged.truncate(self.sim.num_states());
        self.silenced += window;
        self.sim.set_counts(merged)
    }
}

/// Snapshot layout under [`ENGINE_ADVERSARY`]:
///
/// ```text
/// Vec<u8>              fault-plan fingerprint (restore must match)
/// u64                  silenced (logical time from completed windows)
/// u64                  next_event
/// [u64; 4]             plan RNG
/// Vec<RecoveryRecord>  per-event recovery bookkeeping
/// Vec<u8>              inner engine snapshot (framed bytes)
/// ```
///
/// The restore target must be constructed over the same engine, protocol,
/// population, and plan; a plan mismatch fails with
/// [`SimError::SnapshotMismatch`] before anything is mutated.
impl<P: DenseProtocol + Clone + Send + 'static> Checkpointable for AdversarialRun<P> {
    fn save_state(&self) -> EngineSnapshot {
        let mut payload = Vec::new();
        self.plan.fingerprint().persist(&mut payload);
        self.silenced.persist(&mut payload);
        (self.next_event as u64).persist(&mut payload);
        persist_rng(&self.plan_rng, &mut payload);
        self.records.persist(&mut payload);
        self.sim.save_state().to_bytes().persist(&mut payload);
        EngineSnapshot::new(ENGINE_ADVERSARY, payload)
    }

    fn restore_state(&mut self, snapshot: &EngineSnapshot) -> Result<(), SimError> {
        snapshot.expect_engine(ENGINE_ADVERSARY, "an adversarial run")?;
        let mut r = snapshot.reader();
        let fingerprint = r.read::<Vec<u8>>()?;
        if fingerprint != self.plan.fingerprint() {
            return Err(SimError::SnapshotMismatch {
                reason: "snapshot was taken under a different fault plan".to_string(),
            });
        }
        let silenced = r.read::<u64>()?;
        let next_event = r.read::<u64>()? as usize;
        let plan_rng = unpersist_rng(&mut r)?;
        let records = r.read::<Vec<RecoveryRecord>>()?;
        let inner_bytes = r.read::<Vec<u8>>()?;
        r.finish()?;
        if next_event > self.plan.events.len() {
            return Err(SimError::SnapshotCorrupt {
                reason: format!(
                    "fault cursor {next_event} past the plan's {} events",
                    self.plan.events.len()
                ),
            });
        }
        let inner = EngineSnapshot::from_bytes(&inner_bytes)?;
        self.sim.restore_state(&inner)?;
        self.silenced = silenced;
        self.next_event = next_event;
        self.plan_rng = plan_rng;
        self.records = records;
        Ok(())
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

    const ALL_ENGINES: [Engine; 4] = [
        Engine::Sequential,
        Engine::Batched,
        Engine::Sharded {
            shards: 4,
            threads: 1,
        },
        Engine::Hybrid,
    ];

    fn corrupt_plan(at: u64, agents: u64) -> FaultPlan {
        FaultPlan::new(vec![FaultEvent {
            at,
            kind: FaultKind::Corrupt {
                agents,
                target: CorruptionTarget::State(0),
            },
        }])
        .unwrap()
    }

    fn silence_at(at: u64, agents: u64, window: u64) -> Vec<FaultEvent> {
        vec![FaultEvent {
            at,
            kind: FaultKind::Silence { agents, window },
        }]
    }

    #[test]
    fn plan_validation_sorts_and_rejects_overlaps() {
        // Out-of-order events are sorted.
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 500,
                kind: FaultKind::Corrupt {
                    agents: 1,
                    target: CorruptionTarget::State(0),
                },
            },
            FaultEvent {
                at: 100,
                kind: FaultKind::Corrupt {
                    agents: 1,
                    target: CorruptionTarget::State(0),
                },
            },
        ])
        .unwrap();
        assert_eq!(plan.events()[0].at, 100);
        // An event inside an earlier silence window is rejected.
        let overlapping = FaultPlan::new(vec![
            FaultEvent {
                at: 100,
                kind: FaultKind::Silence {
                    agents: 10,
                    window: 1_000,
                },
            },
            FaultEvent {
                at: 600,
                kind: FaultKind::Corrupt {
                    agents: 1,
                    target: CorruptionTarget::State(0),
                },
            },
        ]);
        assert!(overlapping.is_err());
        // Zero-length silence windows are rejected.
        assert!(FaultPlan::new(silence_at(0, 1, 0)).is_err());
    }

    #[test]
    fn init_strategies_produce_valid_configurations() {
        let n = 10_000u64;
        let q = 64usize;
        for init in [
            InitStrategy::Uniform {
                states: 16,
                seed: 3,
            },
            InitStrategy::SeededArbitrary {
                states: 16,
                seed: 3,
            },
        ] {
            let counts = init.counts(n, q).unwrap().unwrap();
            assert_eq!(counts.len(), q);
            assert_eq!(counts.iter().sum::<u64>(), n);
            assert!(counts[16..].iter().all(|&c| c == 0));
            // Seeded draws are reproducible.
            assert_eq!(init.counts(n, q).unwrap().unwrap(), counts);
        }
        assert!(InitStrategy::Clean.counts(n, q).unwrap().is_none());
        let fixed = InitStrategy::Fixed(vec![n - 7, 7]);
        assert_eq!(fixed.counts(n, q).unwrap().unwrap()[1], 7);
        assert!(InitStrategy::Uniform {
            states: 65,
            seed: 0
        }
        .counts(n, q)
        .is_err());
        assert!(InitStrategy::Fixed(vec![0; 65]).counts(n, q).is_err());
    }

    #[test]
    fn corruption_fires_at_its_exact_time_on_every_engine() {
        for engine in ALL_ENGINES {
            let mut run = AdversarialRun::new(
                engine,
                Rumor,
                2_000,
                42,
                InitStrategy::Clean,
                corrupt_plan(5_000, 100),
            )
            .unwrap();
            run.inner_mut().transfer(0, 1, 1).unwrap();
            let outcome = run
                .run_until(|s| s.count_of(1) == s.population(), 1_000, 50_000_000)
                .unwrap();
            assert!(outcome.converged(), "{} failed", engine.name());
            assert_eq!(run.records().len(), 1);
            let record = run.records()[0];
            assert_eq!(record.injected_at, 5_000);
            let recovery = record.recovery_time().expect("recovered");
            assert!(
                recovery > 0,
                "{}: corruption must undo convergence",
                engine.name()
            );
        }
    }

    #[test]
    fn trajectories_are_seed_and_plan_deterministic_per_engine() {
        for engine in ALL_ENGINES {
            let run_once = || {
                let mut run = AdversarialRun::new(
                    engine,
                    Rumor,
                    2_000,
                    7,
                    InitStrategy::SeededArbitrary { states: 2, seed: 9 },
                    corrupt_plan(3_000, 50),
                )
                .unwrap();
                run.run(20_000).unwrap();
                (run.inner().counts(), run.interactions())
            };
            assert_eq!(run_once(), run_once(), "{}", engine.name());
        }
    }

    #[test]
    fn silence_preserves_mass_and_advances_the_clock_without_the_main_engine() {
        let plan = FaultPlan::new(silence_at(1_000, 500, 4_000)).unwrap();
        let mut run =
            AdversarialRun::new(Engine::Batched, Rumor, 2_000, 11, InitStrategy::Clean, plan)
                .unwrap();
        run.inner_mut().transfer(0, 1, 1).unwrap();
        run.run(10_000).unwrap();
        assert_eq!(run.interactions(), 10_000);
        // The main engine executed everything except the silence window.
        assert_eq!(run.inner().interactions(), 6_000);
        assert_eq!(run.inner().counts().iter().sum::<u64>(), 2_000);
        assert_eq!(run.records().len(), 1);
    }

    #[test]
    fn silence_cannot_empty_the_population() {
        let plan = FaultPlan::new(silence_at(0, 1_999, 100)).unwrap();
        let mut run =
            AdversarialRun::new(Engine::Batched, Rumor, 2_000, 0, InitStrategy::Clean, plan)
                .unwrap();
        assert!(run.run(10).is_err());
    }

    #[test]
    fn a_silence_window_past_the_end_of_the_clock_is_rejected() {
        assert!(matches!(
            FaultPlan::new(silence_at(5, 1, u64::MAX)),
            Err(SimError::InvalidParameter {
                name: "fault_plan",
                ..
            })
        ));
    }

    #[test]
    fn silencing_more_agents_than_exist_is_an_error() {
        let plan = FaultPlan::new(silence_at(0, u64::MAX, 100)).unwrap();
        let mut run =
            AdversarialRun::new(Engine::Batched, Rumor, 2_000, 0, InitStrategy::Clean, plan)
                .unwrap();
        assert!(matches!(
            run.run(10),
            Err(SimError::InvalidParameter {
                name: "silence",
                ..
            })
        ));
    }

    #[test]
    fn worst_case_search_is_reproducible_and_finds_a_harder_init_than_clean() {
        // On the epidemic with pred = "everyone informed", the clean
        // configuration (no rumour at all) never converges — so seed one
        // informed agent into every candidate via the predicate domain:
        // search over both states; a configuration with fewer informed
        // agents takes longer.
        let search = WorstCaseSearch {
            states: 2,
            restarts: 2,
            steps: 3,
            move_fraction: 0.25,
            seed: 13,
            eval_seeds: 1,
        };
        let pred = |s: &DenseSimulator<Rumor>| s.count_of(1) == s.population();
        let run = |_: ()| {
            search
                .run(Engine::Batched, &Rumor, 2_000, pred, 1_000, 1_000_000)
                .unwrap()
        };
        let a = run(());
        let b = run(());
        assert_eq!(a.configuration, b.configuration);
        assert_eq!(a.interactions, b.interactions);
        assert_eq!(a.evaluations, 2 * (3 + 1));
        assert_eq!(a.configuration.iter().sum::<u64>(), 2_000);
    }

    #[test]
    fn multi_seed_search_reports_a_worst_init_reproducible_from_its_seed() {
        let search = WorstCaseSearch {
            states: 2,
            restarts: 2,
            steps: 3,
            move_fraction: 0.25,
            seed: 13,
            eval_seeds: 3,
        };
        let pred = |s: &DenseSimulator<Rumor>| s.count_of(1) == s.population();
        let run = |_: ()| {
            search
                .run(Engine::Batched, &Rumor, 2_000, pred, 1_000, 1_000_000)
                .unwrap()
        };
        let a = run(());
        let b = run(());
        assert_eq!(a, b, "the search must be a pure function of its seed");
        assert_eq!(
            a.evaluations,
            2 * (3 + 1) * 3,
            "restarts × (steps+1) × eval seeds"
        );
        assert_eq!(a.configuration.iter().sum::<u64>(), 2_000);

        // The reported objective re-derives from the single search seed: the
        // maximin aggregate over the documented eval-seed stream, evaluated
        // directly against the reported configuration, must reproduce it.
        let mut reproduced: Option<u64> = None;
        for j in 0..3u64 {
            let t = reconvergence_time(
                Engine::Batched,
                &Rumor,
                2_000,
                derive_seed(13, 0xE7A1 + j),
                &a.configuration,
                pred,
                1_000,
                1_000_000,
            )
            .unwrap();
            reproduced = match (reproduced, t) {
                (cur, None) => cur,
                (None, Some(t)) => Some(t),
                (Some(cur), Some(t)) => Some(cur.min(t)),
            };
        }
        assert_eq!(
            reproduced, a.interactions,
            "the worst init's objective must reproduce outside the search"
        );
    }

    #[test]
    fn snapshot_mid_plan_replays_the_remaining_faults_bit_identically() {
        for engine in ALL_ENGINES {
            let make = || {
                let plan = FaultPlan::new(vec![
                    FaultEvent {
                        at: 2_000,
                        kind: FaultKind::Corrupt {
                            agents: 100,
                            target: CorruptionTarget::Uniform { states: 2 },
                        },
                    },
                    FaultEvent {
                        at: 6_000,
                        kind: FaultKind::Silence {
                            agents: 200,
                            window: 1_500,
                        },
                    },
                    FaultEvent {
                        at: 9_000,
                        kind: FaultKind::Corrupt {
                            agents: 50,
                            target: CorruptionTarget::State(0),
                        },
                    },
                ])
                .unwrap();
                AdversarialRun::new(engine, Rumor, 2_000, 17, InitStrategy::Clean, plan).unwrap()
            };
            // Reference: straight through.
            let mut reference = make();
            reference.run(4_500).unwrap();
            reference.run(8_000).unwrap();
            // Victim: snapshot between the first and second events.
            let mut victim = make();
            victim.run(4_500).unwrap();
            let bytes = victim.save_state().to_bytes();
            drop(victim);
            let mut resumed = make();
            let snap = EngineSnapshot::from_bytes(&bytes).unwrap();
            resumed.restore_state(&snap).unwrap();
            resumed.run(8_000).unwrap();
            assert_eq!(
                resumed.save_state().to_bytes(),
                reference.save_state().to_bytes(),
                "{}: mid-plan resume diverged",
                engine.name()
            );
            assert_eq!(resumed.events_fired(), 3);
        }
    }

    #[test]
    fn restoring_under_a_different_plan_is_rejected() {
        let mut run = AdversarialRun::new(
            Engine::Batched,
            Rumor,
            2_000,
            1,
            InitStrategy::Clean,
            corrupt_plan(1_000, 10),
        )
        .unwrap();
        run.run(2_000).unwrap();
        let snap = run.save_state();
        let mut other = AdversarialRun::new(
            Engine::Batched,
            Rumor,
            2_000,
            1,
            InitStrategy::Clean,
            corrupt_plan(1_000, 11),
        )
        .unwrap();
        assert!(matches!(
            other.restore_state(&snap),
            Err(SimError::SnapshotMismatch { .. })
        ));
    }
}
