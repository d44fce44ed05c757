//! Protocol `Approximate` — Algorithm 2, Theorem 1.1 of the paper.
//!
//! `Approximate` is a uniform population protocol whose agents all output either
//! `⌊log₂ n⌋` or `⌈log₂ n⌉` w.h.p., converging within `O(n log² n)` interactions and
//! using `O(log n · log log n)` states.  It is the composition of
//!
//! 1. the junta process and the phase clocks ([`ppproto::junta`],
//!    [`ppproto::phase_clock`]), which every agent runs all the time,
//! 2. the leader election of \[18\] ([`ppproto::leader_election`]) — *Stage 1*,
//! 3. the Search Protocol ([`crate::search`], Algorithm 1) — *Stage 2*,
//! 4. a broadcasting stage in which the leader's estimate spreads by one-way
//!    epidemics — *Stage 3*.
//!
//! Whenever an agent meets a partner on a higher junta level (or advances its own
//! level), it re-initialises the phase clock, the leader election and the Search
//! Protocol, so that eventually all agents run the composition on the maximal junta
//! level from a clean state.

use rand::rngs::SmallRng;

use ppproto::composition::{
    DenseComposition, SyncComposition, SyncCtx, SyncedAgent, SyncedComponent,
};
use ppproto::leader_election::{LeaderElection, LeaderState};
use ppsim::{PersistState, Protocol, SnapshotReader};

use crate::params::ApproximateParams;
use crate::search::{search_interact, SearchContext, SearchState};

/// Per-agent state of protocol `Approximate` (Figure 2 of the paper): the
/// junta process and phase clock in `sync`, the election and the search in
/// `inner`.
pub type ApproximateAgent = SyncedAgent<ApproximateCore>;

/// Result of the shared stage-1/2 dispatch, consumed by the broadcasting stage of
/// the plain protocol or the error-detection stage of the stable variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StagePass {
    /// The initiator was re-initialised (met or created a higher junta level).
    pub u_reset: bool,
    /// The responder was re-initialised.
    pub v_reset: bool,
    /// The initiator's pending `firstTick` flag (not yet cleared).
    pub u_first_tick: bool,
    /// The initiator has completed stages 1 and 2 (`leaderDone ∧ searchDone`).
    pub stage3: bool,
}

/// The component state of protocol `Approximate` below the synchronisation
/// base: the leader election (Stage 1) and the Search Protocol (Stage 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ApproximateCore {
    /// Leader-election component (`leader_v`, `leaderDone_v`, …).
    pub election: LeaderState,
    /// Search Protocol component (`k_v`, `searchDone_v`).
    pub search: SearchState,
}

impl ApproximateCore {
    /// Whether this agent currently considers itself the leader.
    #[must_use]
    pub fn is_leader(&self) -> bool {
        self.election.contender
    }

    /// The agent's current estimate of `log₂ n`, if the search has concluded and
    /// the estimate has reached it.
    #[must_use]
    pub fn estimate(&self) -> Option<i32> {
        if self.search.done {
            Some(self.search.k)
        } else {
            None
        }
    }
}

/// Snapshot codec: fields in declaration order (see [`ppsim::snapshot`]).
impl PersistState for ApproximateCore {
    fn persist(&self, out: &mut Vec<u8>) {
        self.election.persist(out);
        self.search.persist(out);
    }

    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, ppsim::SimError> {
        Ok(ApproximateCore {
            election: LeaderState::unpersist(r)?,
            search: SearchState::unpersist(r)?,
        })
    }
}

/// The stages of protocol `Approximate` as a [`SyncedComponent`]: the part of
/// Algorithm 2 below lines 1–4, driven by the shared synchronisation base
/// ([`SyncComposition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproximateComponent {
    election: LeaderElection,
}

impl ApproximateComponent {
    /// Stages 1 and 2 of Algorithm 2, dispatched on the initiator's progress.
    /// Returns `true` when the initiator has completed both (stage 3 —
    /// broadcasting, or error detection in the stable variant — is due).
    pub(crate) fn stages_1_2(
        &self,
        u: &mut ApproximateCore,
        v: &mut ApproximateCore,
        ctx: &SyncCtx,
    ) -> bool {
        if !u.election.done {
            // Stage 1: leader election [18].
            SyncedComponent::interact(&self.election, &mut u.election, &mut v.election, ctx);
            false
        } else if !u.search.done {
            // Stage 2: the Search Protocol (Algorithm 1).
            let sctx = SearchContext {
                u_leader: u.election.contender,
                v_leader: v.election.contender,
                u_phase: ctx.u_phase,
                v_phase: ctx.v_phase,
                u_first_tick: ctx.u_first_tick,
            };
            search_interact(&mut u.search, &mut v.search, &sctx);
            false
        } else {
            true
        }
    }
}

impl SyncedComponent for ApproximateComponent {
    type State = ApproximateCore;
    type Output = Option<i32>;

    fn initial_state(&self) -> ApproximateCore {
        ApproximateCore::default()
    }

    fn reset(&self, state: &mut ApproximateCore) {
        state.election.reset();
        state.search.reset();
    }

    fn interact(&self, u: &mut ApproximateCore, v: &mut ApproximateCore, ctx: &SyncCtx) {
        if self.stages_1_2(u, v, ctx) {
            // Stage 3: broadcasting stage — the initiator pushes the estimate.
            v.search.k = u.search.k;
            v.search.done = true;
        }
    }

    fn output(&self, state: &ApproximateCore) -> Option<i32> {
        state.estimate()
    }

    fn name(&self) -> &'static str {
        "approximate"
    }
}

/// Protocol `Approximate` (Algorithm 2).
///
/// # Examples
///
/// ```rust,no_run
/// use popcount::{Approximate, ApproximateParams};
/// use ppsim::Simulator;
///
/// # fn main() -> Result<(), ppsim::SimError> {
/// let n = 1000;
/// let protocol = Approximate::new(ApproximateParams::default());
/// let mut sim = Simulator::new(protocol, n, 7)?;
/// let outcome = sim.run_until(
///     |s| s.states().iter().all(|a| a.inner.estimate().is_some()),
///     n as u64,
///     200_000_000,
/// );
/// assert!(outcome.converged());
/// // All agents now output ⌊log₂ n⌋ or ⌈log₂ n⌉ w.h.p.
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Approximate {
    composition: SyncComposition<ApproximateComponent>,
    params: ApproximateParams,
}

impl Approximate {
    /// Create the protocol from its parameters.
    #[must_use]
    pub fn new(params: ApproximateParams) -> Self {
        Approximate {
            composition: SyncComposition::new(
                params.clock_hours,
                ApproximateComponent {
                    election: LeaderElection::new(params.leader_election()),
                },
            ),
            params,
        }
    }

    /// The parameters this instance runs with.
    #[must_use]
    pub fn params(&self) -> &ApproximateParams {
        &self.params
    }

    /// The composed synchronisation base + stage component this protocol runs
    /// (shared with [`DenseApproximate`], which executes the identical
    /// transition system on the count-based engines).
    pub(crate) fn composition(&self) -> &SyncComposition<ApproximateComponent> {
        &self.composition
    }

    /// Per-interaction preamble (re-initialisation, junta, clocks) and dispatch of
    /// stages 1 and 2.  Stage 3 — the broadcasting stage, or error detection in the
    /// stable variant — is left to the caller, who must also clear the initiator's
    /// `firstTick` flag afterwards.
    pub(crate) fn dispatch_stages_1_2(
        &self,
        initiator: &mut ApproximateAgent,
        responder: &mut ApproximateAgent,
    ) -> StagePass {
        // Lines 1–4 of Algorithm 2: re-initialisation, junta process, phase clocks.
        let ctx = self.composition.preamble(initiator, responder);
        let stage3 = self.composition.component().stages_1_2(
            &mut initiator.inner,
            &mut responder.inner,
            &ctx,
        );
        StagePass {
            u_reset: ctx.u_reset,
            v_reset: ctx.v_reset,
            u_first_tick: ctx.u_first_tick,
            stage3,
        }
    }
}

impl Default for Approximate {
    fn default() -> Self {
        Self::new(ApproximateParams::default())
    }
}

impl Protocol for Approximate {
    type State = ApproximateAgent;
    type Output = Option<i32>;

    fn initial_state(&self) -> ApproximateAgent {
        self.composition.initial_state()
    }

    fn interact(
        &self,
        initiator: &mut ApproximateAgent,
        responder: &mut ApproximateAgent,
        _rng: &mut SmallRng,
    ) {
        self.composition.interact_pair(initiator, responder);
    }

    fn output(&self, state: &ApproximateAgent) -> Option<i32> {
        state.inner.estimate()
    }

    fn name(&self) -> &'static str {
        "approximate"
    }
}

/// Convergence predicate: every agent outputs an estimate (the broadcasting stage
/// has reached everyone).
#[must_use]
pub fn all_estimated(states: &[ApproximateAgent]) -> bool {
    states.iter().all(|a| a.inner.estimate().is_some())
}

/// The valid outputs for a population of size `n`: `⌊log₂ n⌋` and `⌈log₂ n⌉`.
#[must_use]
pub fn valid_estimates(n: usize) -> (i32, i32) {
    let log = (n as f64).log2();
    (log.floor() as i32, log.ceil() as i32)
}

/// Protocol `Approximate` on an interned dense state space, for the
/// count-based engines: the [`DenseComposition`] of the same
/// [`SyncComposition`] value [`Approximate::new`] builds.
///
/// This is an **exact encoding** of [`Approximate`]: every dense transition
/// decodes the two agents, applies the identical composed interaction, and
/// re-encodes — so both forms simulate the same stochastic process and
/// differ only in how the engines sample the schedule.  Build it with
/// `DenseApproximate::with_capacity(params, capacity)`
/// ([`DenseComposition::with_capacity`], which takes the parameters through
/// `From<ApproximateParams>`).  Per-agent stints of the hybrid engine step
/// native [`ApproximateAgent`] structs through the composition's
/// [`AgentCodec`](ppsim::stint::AgentCodec) and consult the interner only
/// at migration boundaries.
///
/// # State-space accounting (the bound on `q`)
///
/// Theorem 1 bounds `Approximate` by `O(log n · log log n)` states — but per
/// *constant-size counter window*: the implementation keeps the absolute
/// phase counter the paper reduces modulo small constants, so each of the
/// `O(log n)` phases of a run contributes its own copies.  The distinct
/// states a run visits are therefore `O(log² n · log log n)` — tens of
/// thousands at `n = 10⁸` — which is what the interner actually allocates
/// indices for.  A capacity of 2²⁰ leaves several times that headroom (a
/// converged `n = 10⁶` run interns ≈ 2·10⁵ states);
/// [`DenseComposition::states_discovered`] reports the realised count
/// (experiment E19 tabulates it).
///
/// # Examples
///
/// ```rust,no_run
/// use popcount::{DenseApproximate, ApproximateParams};
/// use ppsim::{DenseSimulator, Engine};
///
/// # fn main() -> Result<(), ppsim::SimError> {
/// let n = 1_000_000;
/// let proto = DenseApproximate::with_capacity(ApproximateParams::default(), 1 << 20);
/// let mut sim = DenseSimulator::new(Engine::Auto, proto, n, 7)?;
/// let outcome = sim.run_until(
///     |s| matches!(s.output_stats().unanimous(), Some(Some(k)) if (19..=20).contains(k)),
///     n as u64,
///     u64::MAX >> 1,
/// );
/// assert!(outcome.converged()); // ⌊log₂ 10⁶⌋ = 19, ⌈log₂ 10⁶⌉ = 20
/// # Ok(())
/// # }
/// ```
///
/// A run discovers states as the junta race and the clocks unfold; clones
/// share the interner, so the census is visible through any of them:
///
/// ```rust
/// use popcount::{ApproximateParams, DenseApproximate};
/// use ppsim::{BatchedSimulator, DenseProtocol};
///
/// # fn main() -> Result<(), ppsim::SimError> {
/// let proto = DenseApproximate::with_capacity(ApproximateParams::default(), 1 << 20);
/// assert_eq!(proto.states_discovered(), 1); // only the initial state so far
///
/// let mut sim = BatchedSimulator::new(proto.clone(), 10_000, 7)?;
/// sim.run(50_000);
/// assert!(proto.states_discovered() > 10);
/// assert!(proto.states_discovered() <= proto.num_states());
/// # Ok(())
/// # }
/// ```
pub type DenseApproximate = DenseComposition<ApproximateComponent>;

/// The composition [`Approximate::new`] builds from `params`, so that
/// [`DenseApproximate::with_capacity`](DenseComposition::with_capacity)
/// takes the parameters directly.
impl From<ApproximateParams> for SyncComposition<ApproximateComponent> {
    fn from(params: ApproximateParams) -> Self {
        *Approximate::new(params).composition()
    }
}

/// Convergence predicate on a counts configuration of [`DenseApproximate`]:
/// every agent outputs an estimate.
#[must_use]
pub fn dense_all_estimated(protocol: &DenseApproximate, counts: &[u64]) -> bool {
    counts
        .iter()
        .enumerate()
        .all(|(s, &c)| c == 0 || protocol.decode(s).inner.estimate().is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::Simulator;

    #[test]
    fn valid_estimates_are_floor_and_ceil() {
        assert_eq!(valid_estimates(1000), (9, 10));
        assert_eq!(valid_estimates(1024), (10, 10));
        assert_eq!(valid_estimates(100), (6, 7));
    }

    #[test]
    fn initial_agent_has_no_estimate_and_is_contender() {
        let a = Approximate::default().initial_state();
        assert!(a.inner.is_leader());
        assert_eq!(a.inner.estimate(), None);
    }

    #[test]
    fn broadcast_stage_pushes_the_estimate() {
        let proto = Approximate::default();
        let mut done = proto.initial_state();
        done.sync.junta.active = false;
        done.inner.election.done = true;
        done.inner.search.done = true;
        done.inner.search.k = 9;
        let mut fresh = proto.initial_state();
        fresh.sync.junta.active = false;
        fresh.inner.election.done = true;
        let mut rng = ppsim::seeded_rng(0);
        proto.interact(&mut done, &mut fresh, &mut rng);
        assert_eq!(fresh.inner.estimate(), Some(9));
    }

    #[test]
    fn approximate_converges_to_floor_or_ceil_of_log_n() {
        let n = 300usize;
        let proto = Approximate::default();
        let mut sim = Simulator::new(proto, n, 20_240_601).unwrap();
        let outcome = sim.run_until(|s| all_estimated(s.states()), (n * 50) as u64, 60_000_000);
        assert!(
            outcome.converged(),
            "Approximate did not converge within the budget"
        );

        let (floor, ceil) = valid_estimates(n);
        let stats = sim.output_stats();
        let unanimous = stats.unanimous().cloned().flatten();
        assert!(
            unanimous == Some(floor) || unanimous == Some(ceil),
            "expected a unanimous estimate of {floor} or {ceil}, got {:?}",
            sim.output_stats().plurality()
        );
    }

    #[test]
    fn approximate_exercises_exactly_one_leader_at_convergence() {
        let n = 300usize;
        let proto = Approximate::default();
        let mut sim = Simulator::new(proto, n, 77).unwrap();
        let outcome = sim.run_until(|s| all_estimated(s.states()), (n * 50) as u64, 60_000_000);
        assert!(outcome.converged());
        let leaders = sim.states().iter().filter(|a| a.inner.is_leader()).count();
        assert_eq!(leaders, 1);
    }

    /// The native trajectory at `n = 500`, seed 7: when it converges and the
    /// bytes of its final snapshot.
    #[test]
    fn native_trajectory_is_pinned() {
        use ppsim::Checkpointable;
        let n = 500usize;
        let mut sim = Simulator::new(Approximate::default(), n, 7).unwrap();
        let outcome = sim.run_until(|s| all_estimated(s.states()), (20 * n) as u64, 80_000_000);
        assert_eq!(outcome.interactions(), Some(4_590_000));
        let bytes = sim.save_state().to_bytes();
        assert_eq!(bytes.len(), 13_069);
        assert_eq!(crate::fnv1a(&bytes), 0xb185_e490_3fa8_b190);
    }

    /// The dense trajectory on the sequential engine at `n = 1000`, seed 7:
    /// when every agent first outputs the same estimate, and the bytes of the
    /// final snapshot.
    #[test]
    fn dense_sequential_trajectory_is_pinned() {
        use ppsim::{Checkpointable, DenseSimulator, Engine};
        let n = 1000usize;
        let proto = DenseApproximate::with_capacity(ApproximateParams::default(), 1 << 20);
        let mut sim = DenseSimulator::new(Engine::Sequential, proto, n, 7).unwrap();
        let outcome = sim.run_until(
            |s| matches!(s.output_stats().unanimous(), Some(Some(_))),
            (20 * n) as u64,
            80_000_000,
        );
        assert_eq!(outcome.interactions(), Some(9_160_000));
        assert_eq!(sim.output_stats().unanimous(), Some(&Some(10)));
        let bytes = sim.save_state().to_bytes();
        assert_eq!(bytes.len(), 26_119);
        assert_eq!(crate::fnv1a(&bytes), 0x9f1b_a6f1_c033_036a);
    }

    /// The dense trajectory on the hybrid engine at `n = 1000`, seed 7: its
    /// switch points, the states it interned and the bytes of its snapshot
    /// after 6.2·10⁶ interactions.
    #[test]
    fn dense_hybrid_trajectory_is_pinned() {
        use ppsim::{Checkpointable, DenseSimulator, Engine};
        let proto = DenseApproximate::with_capacity(ApproximateParams::default(), 1 << 20);
        let mut sim = DenseSimulator::new(Engine::Hybrid, proto.clone(), 1000, 7).unwrap();
        sim.run(6_200_000);
        assert_eq!(sim.switch_points(), [358_144, 1_432_064]);
        assert_eq!(proto.states_discovered(), 17_671);
        let bytes = sim.save_state().to_bytes();
        assert_eq!(bytes.len(), 459_818);
        assert_eq!(crate::fnv1a(&bytes), 0xd8be_1403_8997_60e7);
    }
}
