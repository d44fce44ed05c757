//! Protocol `CountExact` — Algorithm 3, Theorem 2 of the paper.
//!
//! `CountExact` is a uniform population protocol in which every agent outputs the
//! exact population size `n`.  It stabilises within the asymptotically optimal
//! `O(n log n)` interactions and uses `Õ(n)` states, w.h.p.  The composition
//! (Algorithm 3):
//!
//! 1. junta process + phase clocks (lines 1–4),
//! 2. `FastLeaderElection` (Stage 1, lines 5–6),
//! 3. the approximation stage (Stage 2, lines 7–8) computing `log₂ n ± 3`,
//! 4. the refinement stage (Stage 3, lines 9–10) computing the exact `n`.

use rand::rngs::SmallRng;

use ppproto::composition::{
    DenseComposition, SyncComposition, SyncCtx, SyncedAgent, SyncedComponent,
};
use ppproto::fast_leader_election::{FastLeaderElection, FastLeaderState};
use ppsim::{PersistState, Protocol, SnapshotReader};

use crate::params::CountExactParams;

use super::approximation_stage::{approximation_interact, ApproximationContext, ExactStageState};
use super::refinement_stage::{refinement_interact, refinement_output, RefinementContext};

/// Per-agent state of protocol `CountExact` (Figure 3 of the paper): the
/// junta process and phase clock in `sync`, the election and the stages in
/// `inner`.
pub type CountExactAgent = SyncedAgent<CountExactCore>;

/// Protocol `CountExact` (Algorithm 3).
///
/// # Examples
///
/// ```rust,no_run
/// use popcount::{CountExact, CountExactParams};
/// use ppsim::Simulator;
///
/// # fn main() -> Result<(), ppsim::SimError> {
/// let n = 1000;
/// let protocol = CountExact::new(CountExactParams::default());
/// let mut sim = Simulator::new(protocol, n, 3)?;
/// let outcome = sim.run_until(
///     |s| {
///         let p = s.protocol().clone();
///         s.states().iter().all(|a| p.agent_output(a) == Some(1000))
///     },
///     n as u64,
///     500_000_000,
/// );
/// assert!(outcome.converged());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountExact {
    composition: SyncComposition<CountExactComponent>,
    params: CountExactParams,
}

/// The component state of protocol `CountExact` below the synchronisation
/// base: the fast leader election (Stage 1) and the approximation/refinement
/// stage bookkeeping (Stages 2–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CountExactCore {
    /// Fast leader-election component.
    pub election: FastLeaderState,
    /// Approximation- and refinement-stage state (`i_u`, `k_u`, `ℓ_u`, `ApxDone_u`).
    pub stage: ExactStageState,
}

impl CountExactCore {
    /// Whether this agent currently considers itself the leader.
    #[must_use]
    pub fn is_leader(&self) -> bool {
        self.election.contender
    }

    /// The leader's approximation of `log₂ n` (Lemma 10), once the approximation
    /// stage has concluded.
    #[must_use]
    pub fn approximation(&self) -> Option<i64> {
        if self.stage.apx_done {
            Some(self.stage.k)
        } else {
            None
        }
    }
}

/// Snapshot codec: fields in declaration order (see [`ppsim::snapshot`]).
impl PersistState for CountExactCore {
    fn persist(&self, out: &mut Vec<u8>) {
        self.election.persist(out);
        self.stage.persist(out);
    }

    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, ppsim::SimError> {
        Ok(CountExactCore {
            election: FastLeaderState::unpersist(r)?,
            stage: ExactStageState::unpersist(r)?,
        })
    }
}

/// The stages of protocol `CountExact` as a [`SyncedComponent`]: the part of
/// Algorithm 3 below lines 1–4, driven by the shared synchronisation base
/// ([`SyncComposition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountExactComponent {
    election: FastLeaderElection,
    level_offset: u8,
    constant: u64,
}

impl SyncedComponent for CountExactComponent {
    type State = CountExactCore;
    type Output = Option<u64>;

    fn initial_state(&self) -> CountExactCore {
        CountExactCore::default()
    }

    fn reset(&self, state: &mut CountExactCore) {
        state.election.reset();
        state.stage.reset();
    }

    fn interact(&self, u: &mut CountExactCore, v: &mut CountExactCore, ctx: &SyncCtx) {
        if !u.election.done {
            // Stage 1: fast leader election (lines 5–6).
            SyncedComponent::interact(&self.election, &mut u.election, &mut v.election, ctx);
        } else if !u.stage.apx_done {
            // Stage 2: approximation stage (Algorithm 4, lines 7–8).
            let actx = ApproximationContext {
                u_leader: u.election.contender,
                u_level: ctx.u_level,
                level_offset: self.level_offset,
                u_phase: ctx.u_phase,
                v_phase: ctx.v_phase,
            };
            approximation_interact(&mut u.stage, &mut v.stage, &actx);
        } else {
            // Stage 3: refinement stage (Algorithm 5, lines 9–10).
            let rctx = RefinementContext {
                u_leader: u.election.contender,
                u_first_tick: ctx.u_first_tick,
                u_phase: ctx.u_phase,
                v_phase: ctx.v_phase,
                constant: self.constant,
            };
            refinement_interact(&mut u.stage, &mut v.stage, &rctx);
        }
    }

    fn output(&self, state: &CountExactCore) -> Option<u64> {
        refinement_output(&state.stage, self.constant)
    }

    fn name(&self) -> &'static str {
        "count-exact"
    }
}

impl CountExact {
    /// Create the protocol from its parameters.
    #[must_use]
    pub fn new(params: CountExactParams) -> Self {
        CountExact {
            composition: SyncComposition::new(
                params.clock_hours,
                CountExactComponent {
                    election: FastLeaderElection::new(params.fast_leader_election()),
                    level_offset: params.level_offset,
                    constant: params.refinement_constant(),
                },
            ),
            params,
        }
    }

    /// The parameters this instance runs with.
    #[must_use]
    pub fn params(&self) -> &CountExactParams {
        &self.params
    }

    /// The composed synchronisation base + stage component this protocol runs
    /// (shared with [`DenseCountExact`], which executes the identical
    /// transition system on the count-based engines, and with the stable
    /// variant, which steps it under its error checks).
    pub(crate) fn composition(&self) -> &SyncComposition<CountExactComponent> {
        &self.composition
    }

    /// The output function applied to a single agent (exposed so that harness code
    /// can inspect outputs without constructing the protocol's associated type).
    #[must_use]
    pub fn agent_output(&self, agent: &CountExactAgent) -> Option<u64> {
        refinement_output(&agent.inner.stage, self.params.refinement_constant())
    }
}

impl Default for CountExact {
    fn default() -> Self {
        Self::new(CountExactParams::default())
    }
}

impl Protocol for CountExact {
    type State = CountExactAgent;
    type Output = Option<u64>;

    fn initial_state(&self) -> CountExactAgent {
        self.composition.initial_state()
    }

    fn interact(
        &self,
        initiator: &mut CountExactAgent,
        responder: &mut CountExactAgent,
        _rng: &mut SmallRng,
    ) {
        self.composition.interact_pair(initiator, responder);
    }

    fn output(&self, state: &CountExactAgent) -> Option<u64> {
        self.agent_output(state)
    }

    fn name(&self) -> &'static str {
        "count-exact"
    }
}

/// Convergence predicate for a population of size `n`: every agent outputs exactly
/// `n`.
#[must_use]
pub fn all_counted(protocol: &CountExact, states: &[CountExactAgent], n: usize) -> bool {
    states
        .iter()
        .all(|a| protocol.agent_output(a) == Some(n as u64))
}

/// Protocol `CountExact` on an interned dense state space, for the
/// count-based engines: the [`DenseComposition`] of the same
/// [`SyncComposition`] value [`CountExact::new`] builds.
///
/// This is an **exact encoding** of [`CountExact`]: every dense transition
/// decodes the two agents, applies the identical composed interaction, and
/// re-encodes.  Build it with `DenseCountExact::with_capacity(params,
/// capacity)` ([`DenseComposition::with_capacity`], which takes the
/// parameters through `From<CountExactParams>`).  The hybrid engine's
/// refinement-leg stints step native [`CountExactAgent`] structs through the
/// composition's [`AgentCodec`](ppsim::stint::AgentCodec) and consult the
/// interner only at migration boundaries (the refinement leg at `n = 10⁵`
/// measured 6.97 M interactions/s decoded against 3.15 M/s over interned
/// indices; see the note in `BENCH_batched.json` and the module docs of
/// [`staged`](crate::exact::staged)).
///
/// # State-space accounting (the bound on `q`)
///
/// Theorem 2 trades states for time: `CountExact` uses `Õ(n)` states, and
/// the diversity is real, in two distinct ways:
///
/// * **Election values.**  `FastLeaderElection` contenders sample
///   `2^{level−γ}`-bit random values; with the practical default `γ = 2` a
///   population of 10⁶ scatters over up to `2^{16}`-value election rounds.
///   Cure: [`CountExactParams::dense_at_scale`] (the paper's `γ = 8`, 1-bit
///   rounds) keeps the election's live value classes `O(log n)` — stages
///   1–2 then batch beautifully at any size (≈ 7·10⁴ distinct states over
///   the whole `n = 10⁶` window).
/// * **Refinement loads.**  Lemma 11 requires per-agent loads of magnitude
///   `C·2^{2k}/n ≈ 4n`, so the stage-3 balancing transient spreads the
///   population over `Θ(n)` distinct loads — no parameter choice removes
///   this, and a count-based representation degenerates to worse than
///   per-agent execution.  Cure:
///   [`count_exact_dense_staged`](crate::count_exact_dense_staged) runs
///   stages 1–2 dense and hands the configuration to the per-agent engine
///   for the refinement (exact: the process is Markov in the
///   configuration).
///
/// Small populations (`n ≲ 3·10⁴`, any parameters) fit end to end in the
/// dense form — the regime the equivalence tests pin at `n = 10⁴`.
/// [`DenseComposition::states_discovered`] reports the realised census
/// either way.
///
/// # Capacity
///
/// [`CountExactParams::dense_capacity`] sizes the index space for a run of
/// population `n`: 2²² for every `n ≤ 262 144`, `16n` above.  Stages 1–2
/// stay narrow at any simulable size, and small populations fit end to end
/// (≈ 1.6·10⁵ states for a converged `n = 10⁴` run).  The **refinement
/// stage** at large `n` does not: its `Θ(n)` live loads mint new states
/// nearly every interaction (> 4·10⁶ observed at `n = 10⁶` before the
/// balancing transient ends) — run it per-agent via
/// [`count_exact_dense_staged`](crate::count_exact_dense_staged), which is
/// how experiment E19 executes Theorem 2 at scale.  Flat engine buffers
/// cost ~17 bytes per slot (≈ 70 MB at 2²²); small-`n` studies can pass
/// less.
///
/// # Examples
///
/// ```rust,no_run
/// use popcount::{CountExactParams, DenseCountExact};
/// use ppsim::{DenseSimulator, Engine};
///
/// # fn main() -> Result<(), ppsim::SimError> {
/// let n = 10_000;
/// let proto = DenseCountExact::with_capacity(
///     CountExactParams::default(),
///     CountExactParams::dense_capacity(n),
/// );
/// let mut sim = DenseSimulator::new(Engine::Auto, proto, n, 3)?;
/// let outcome = sim.run_until(
///     |s| s.output_stats().unanimous() == Some(&Some(n as u64)),
///     n as u64,
///     u64::MAX >> 1,
/// );
/// assert!(outcome.converged());
/// # Ok(())
/// # }
/// ```
///
/// States are interned as a run discovers them, and decoding is total on
/// every discovered index:
///
/// ```rust
/// use popcount::{CountExactParams, DenseCountExact};
/// use ppsim::{BatchedSimulator, DenseProtocol};
///
/// # fn main() -> Result<(), ppsim::SimError> {
/// let n = 10_000;
/// let proto = DenseCountExact::with_capacity(
///     CountExactParams::dense_at_scale(n),
///     CountExactParams::dense_capacity(n),
/// );
/// let mut sim = BatchedSimulator::new(proto.clone(), n, 3)?;
/// sim.run(50_000);
/// let agent = proto.decode(0);
/// assert_eq!(proto.encode(agent), 0);
/// assert!(proto.states_discovered() <= proto.num_states());
/// # Ok(())
/// # }
/// ```
pub type DenseCountExact = DenseComposition<CountExactComponent>;

/// The composition [`CountExact::new`] builds from `params`, so that
/// [`DenseCountExact::with_capacity`](DenseComposition::with_capacity)
/// takes the parameters directly.
impl From<CountExactParams> for SyncComposition<CountExactComponent> {
    fn from(params: CountExactParams) -> Self {
        *CountExact::new(params).composition()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::Simulator;

    #[test]
    fn initial_agent_has_no_output() {
        let p = CountExact::default();
        let a = p.initial_state();
        assert_eq!(p.agent_output(&a), None);
        assert_eq!(a.inner.approximation(), None);
        assert!(a.inner.is_leader());
    }

    #[test]
    fn count_exact_outputs_the_exact_population_size() {
        for &(n, seed) in &[(200usize, 11u64), (300, 12)] {
            let proto = CountExact::default();
            let mut sim = Simulator::new(proto, n, seed).unwrap();
            let outcome = sim.run_until(
                move |s| all_counted(s.protocol(), s.states(), n),
                (n * 50) as u64,
                80_000_000,
            );
            assert!(
                outcome.converged(),
                "CountExact did not converge to {n} (seed {seed}); outputs: {:?}",
                sim.output_stats().plurality()
            );
        }
    }

    #[test]
    fn approximation_stage_result_is_within_three_of_log_n() {
        let n = 400usize;
        let proto = CountExact::default();
        let mut sim = Simulator::new(proto, n, 99).unwrap();
        let outcome = sim.run_until(
            |s| s.states().iter().any(|a| a.inner.stage.apx_done),
            (n * 10) as u64,
            80_000_000,
        );
        assert!(
            outcome.converged(),
            "the approximation stage never concluded"
        );
        let k = sim
            .states()
            .iter()
            .find_map(|a| a.inner.approximation())
            .expect("some agent finished the approximation stage");
        let log_n = (n as f64).log2();
        assert!(
            (k as f64 - log_n).abs() <= 3.0,
            "approximation k = {k} is more than 3 away from log2 n = {log_n:.2}"
        );
    }

    #[test]
    fn exactly_one_leader_at_convergence() {
        let n = 250usize;
        let proto = CountExact::default();
        let mut sim = Simulator::new(proto, n, 5).unwrap();
        let outcome = sim.run_until(
            move |s| all_counted(s.protocol(), s.states(), n),
            (n * 50) as u64,
            80_000_000,
        );
        assert!(outcome.converged());
        assert_eq!(
            sim.states().iter().filter(|a| a.inner.is_leader()).count(),
            1
        );
    }

    /// The native trajectory at `n = 500`, seed 7: when it converges and the
    /// bytes of its final snapshot.
    #[test]
    fn native_trajectory_is_pinned() {
        use ppsim::Checkpointable;
        let n = 500usize;
        let mut sim = Simulator::new(CountExact::default(), n, 7).unwrap();
        let outcome = sim.run_until(
            move |s| all_counted(s.protocol(), s.states(), n),
            (20 * n) as u64,
            80_000_000,
        );
        assert_eq!(outcome.interactions(), Some(1_940_000));
        let bytes = sim.save_state().to_bytes();
        assert_eq!(bytes.len(), 33_569);
        assert_eq!(crate::fnv1a(&bytes), 0xd187_8227_ca52_8622);
    }
}
