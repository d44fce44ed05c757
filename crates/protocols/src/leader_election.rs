//! Stable uniform leader election — Lemma 6 of the paper, following \[18\].
//!
//! The protocol of Gąsieniec & Stachowiak elects a unique leader in `O(n log² n)`
//! interactions with `O(log log n)` states, w.h.p.  Its structure, as summarised in
//! Section 2 of the reproduced paper:
//!
//! * all agents run the junta process and an (inner) phase clock;
//! * every agent starts as a **contender**; in every inner phase each contender
//!   draws one random bit (a synthetic coin); contenders that drew `0` while some
//!   contender drew `1` become followers at the end of the phase — so the set of
//!   contenders roughly halves per phase while never becoming empty;
//! * agents additionally run an **outer phase clock** which advances only once per
//!   inner phase (at the agent's `firstTick`); when the outer clock completes a
//!   revolution — after `Θ(log n)` inner phases, i.e. `Θ(n log² n)` interactions —
//!   the agent sets `leaderDone`, at which time exactly one contender remains
//!   w.h.p.
//!
//! This module implements the election as a **component** ([`LeaderElection`] +
//! [`LeaderState`]) that a composed protocol drives with its own junta/phase-clock
//! information (this is how `popcount::Approximate` uses it).  The same component
//! under the shared synchronisation base ([`SyncComposition`]) is the standalone
//! [`LeaderElectionProtocol`], which validates Lemma 6 in isolation (experiment
//! E04).

use ppsim::{PersistState, SimError, SnapshotReader};

use crate::composition::{SyncComposition, SyncCtx, SyncedAgent, SyncedComponent};
use crate::phase_clock::{PhaseClock, PhaseClockState};
use crate::synthetic_coin::{coin_interact, CoinState};

/// Tunable constants of the leader-election component.
///
/// The paper treats both as unspecified constants; they trade reliability against
/// running time.  The defaults are calibrated for populations up to ~10⁶ agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderElectionConfig {
    /// Number of hours `m` of the *outer* phase clock.  One revolution of the outer
    /// clock takes `Θ(m · log n)` inner phases; it must be long enough for the
    /// contender set to shrink to a single agent (≈ `3 log₂ n` phases).
    pub outer_hours: u8,
}

impl Default for LeaderElectionConfig {
    fn default() -> Self {
        LeaderElectionConfig { outer_hours: 48 }
    }
}

/// Per-agent state of the leader-election component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeaderState {
    /// Whether this agent is still a leader contender (`leader_v` in the paper).
    pub contender: bool,
    /// Whether this agent has concluded the election (`leaderDone_v`).
    pub done: bool,
    /// Synthetic-coin parity bit.
    pub coin: CoinState,
    /// The outer phase clock (advanced once per inner phase).
    pub outer: PhaseClockState,
    /// The random bit this contender drew for the current inner phase.
    pub bit: bool,
    /// Epidemic flag: some contender drew `1` in the inner phase with parity
    /// [`heads_parity`](Self::heads_parity).
    pub heads_seen: bool,
    /// Parity (inner phase number modulo 2) that [`heads_seen`](Self::heads_seen)
    /// refers to, so that flags from the previous phase are not confused with the
    /// current one.
    pub heads_parity: bool,
}

impl LeaderState {
    /// The common initial state: everyone is a contender.
    #[must_use]
    pub fn new() -> Self {
        LeaderState {
            contender: true,
            done: false,
            coin: CoinState::new(),
            outer: PhaseClockState::new(),
            bit: false,
            heads_seen: false,
            heads_parity: false,
        }
    }

    /// Re-initialise the election state (used when an agent meets a higher junta
    /// level, Algorithm 2 line 1–2).
    pub fn reset(&mut self) {
        *self = LeaderState::new();
    }
}

impl Default for LeaderState {
    fn default() -> Self {
        Self::new()
    }
}

/// The leader-election transition rule (component form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderElection {
    outer_clock: PhaseClock,
}

impl LeaderElection {
    /// Create the component from its configuration.
    #[must_use]
    pub fn new(config: LeaderElectionConfig) -> Self {
        LeaderElection {
            outer_clock: PhaseClock::new(config.outer_hours),
        }
    }

    /// Apply one interaction of the leader-election component.
    ///
    /// * `u` is the initiator, `v` the responder.
    /// * `u_first_tick` — whether this is the initiator's first initiated
    ///   interaction of a new inner phase (the consumed `firstTick_u` flag).
    /// * `u_phase` / `v_phase` — the agents' current inner-phase numbers.
    /// * `u_level` / `v_level` — the agents' junta levels; all cross-agent exchanges
    ///   are restricted to agents on the same level so that stale information from
    ///   superseded levels cannot influence the election on the maximal level.
    /// * `u_junta` / `v_junta` — junta belief bits, used to drive the outer clock.
    #[allow(clippy::too_many_arguments)]
    pub fn interact(
        &self,
        u: &mut LeaderState,
        v: &mut LeaderState,
        u_first_tick: bool,
        u_phase: u32,
        v_phase: u32,
        u_level: u8,
        v_level: u8,
        u_junta: bool,
        v_junta: bool,
    ) {
        // Synthetic coin: both agents flip; the initiator's random bit is the
        // responder's previous parity.
        let (u_bit, _v_bit) = coin_interact(&mut u.coin, &mut v.coin);
        let same_level = u_level == v_level;

        if u_first_tick {
            // End of the previous inner phase for u: contenders that drew 0 while
            // some contender drew 1 become followers.  A contender that drew 1 never
            // becomes a follower, so at least one contender always survives.
            if u.contender && !u.bit && u.heads_seen {
                u.contender = false;
            }
            // Start of the new phase: draw a fresh bit and reset the heads flag.
            u.bit = u.contender && u_bit;
            u.heads_seen = u.bit;
            u.heads_parity = u_phase % 2 == 1;

            // One step of the outer phase clock per inner phase.
            if same_level {
                self.outer_clock
                    .interact(&mut u.outer, u_junta, &mut v.outer, v_junta);
            }
            if u.outer.phase >= 1 {
                u.done = true;
            }
        }

        // Within the phase: spread the "some contender drew 1" flag by one-way
        // epidemics, guarded by the phase parity so that flags do not leak into the
        // next phase.
        if same_level {
            let u_parity = u_phase % 2 == 1;
            let v_parity = v_phase % 2 == 1;
            let u_heads = u.heads_seen && u.heads_parity == u_parity;
            let v_heads = v.heads_seen && v.heads_parity == v_parity;
            if v_heads && v_parity == u_parity && !u_heads {
                u.heads_seen = true;
                u.heads_parity = u_parity;
            }
            if u_heads && u_parity == v_parity && !v_heads {
                v.heads_seen = true;
                v.heads_parity = v_parity;
            }

            // `leaderDone` spreads by one-way epidemics so that all agents learn the
            // election has concluded within O(n log n) further interactions.
            if u.done || v.done {
                u.done = true;
                v.done = true;
            }
        }
    }
}

impl Default for LeaderElection {
    fn default() -> Self {
        Self::new(LeaderElectionConfig::default())
    }
}

/// Number of remaining contenders in a slice of leader states.
#[must_use]
pub fn contender_count(states: &[LeaderState]) -> usize {
    states.iter().filter(|s| s.contender).count()
}

/// The election as a [`SyncedComponent`]: [`SyncComposition`] runs it below
/// the junta process and the inner phase clock, which is the standalone
/// [`LeaderElectionProtocol`].
impl SyncedComponent for LeaderElection {
    type State = LeaderState;
    type Output = bool;

    fn initial_state(&self) -> LeaderState {
        LeaderState::new()
    }

    fn reset(&self, state: &mut LeaderState) {
        state.reset();
    }

    fn interact(&self, u: &mut LeaderState, v: &mut LeaderState, ctx: &SyncCtx) {
        if !u.done {
            LeaderElection::interact(
                self,
                u,
                v,
                ctx.u_first_tick,
                ctx.u_phase,
                ctx.v_phase,
                ctx.u_level,
                ctx.v_level,
                ctx.u_junta,
                ctx.v_junta,
            );
        }
    }

    /// `true` iff the agent currently considers itself a leader contender.
    fn output(&self, state: &LeaderState) -> bool {
        state.contender
    }

    fn name(&self) -> &'static str {
        "leader-election"
    }
}

/// Standalone leader-election protocol (junta + inner clock + election component),
/// used to validate Lemma 6 in isolation (experiment E04).  Built as
/// `SyncComposition::new(inner_hours, LeaderElection::new(config))`: `inner_hours`
/// is the number of hours of the inner phase clock (the paper's `m`); the election
/// configuration provides the outer clock length.
pub type LeaderElectionProtocol = SyncComposition<LeaderElection>;

/// Per-agent state of the standalone [`LeaderElectionProtocol`]: junta + inner
/// phase clock in `sync`, the election component state in `inner`.
pub type LeaderElectionAgent = SyncedAgent<LeaderState>;

/// Snapshot codec: fields in declaration order (see [`ppsim::snapshot`]).
impl PersistState for LeaderState {
    fn persist(&self, out: &mut Vec<u8>) {
        self.contender.persist(out);
        self.done.persist(out);
        self.coin.persist(out);
        self.outer.persist(out);
        self.bit.persist(out);
        self.heads_seen.persist(out);
        self.heads_parity.persist(out);
    }

    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        Ok(LeaderState {
            contender: bool::unpersist(r)?,
            done: bool::unpersist(r)?,
            coin: CoinState::unpersist(r)?,
            outer: PhaseClockState::unpersist(r)?,
            bit: bool::unpersist(r)?,
            heads_seen: bool::unpersist(r)?,
            heads_parity: bool::unpersist(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::Simulator;

    #[test]
    fn initial_state_is_contender_and_not_done() {
        let s = LeaderState::new();
        assert!(s.contender);
        assert!(!s.done);
        assert!(!s.heads_seen);
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let mut s = LeaderState::new();
        s.contender = false;
        s.done = true;
        s.heads_seen = true;
        s.reset();
        assert_eq!(s, LeaderState::new());
    }

    #[test]
    fn tails_contender_dies_only_when_heads_was_seen() {
        let le = LeaderElection::default();
        // Contender that drew 0 and saw heads: becomes a follower at its next tick.
        let mut u = LeaderState {
            bit: false,
            heads_seen: true,
            heads_parity: false,
            ..LeaderState::new()
        };
        let mut v = LeaderState::new();
        le.interact(&mut u, &mut v, true, 1, 1, 0, 0, false, false);
        assert!(!u.contender);

        // Contender that drew 1: survives even if heads was seen.
        let mut u = LeaderState {
            bit: true,
            heads_seen: true,
            heads_parity: false,
            ..LeaderState::new()
        };
        let mut v = LeaderState::new();
        le.interact(&mut u, &mut v, true, 1, 1, 0, 0, false, false);
        assert!(u.contender);

        // Contender that drew 0 but heads was never seen: survives.
        let mut u = LeaderState {
            bit: false,
            heads_seen: false,
            ..LeaderState::new()
        };
        let mut v = LeaderState::new();
        le.interact(&mut u, &mut v, true, 1, 1, 0, 0, false, false);
        assert!(u.contender);
    }

    #[test]
    fn heads_flag_spreads_only_within_matching_phase_parity() {
        let le = LeaderElection::default();
        // Partner carries a heads flag for parity 1 while we are in a parity-0 phase:
        // the flag must not be adopted.
        let mut u = LeaderState::new();
        let mut v = LeaderState {
            heads_seen: true,
            heads_parity: true,
            ..LeaderState::new()
        };
        le.interact(&mut u, &mut v, false, 2, 2, 0, 0, false, false);
        assert!(!u.heads_seen);

        // Matching parity: the flag is adopted.
        let mut u = LeaderState::new();
        let mut v = LeaderState {
            heads_seen: true,
            heads_parity: true,
            ..LeaderState::new()
        };
        le.interact(&mut u, &mut v, false, 3, 3, 0, 0, false, false);
        assert!(u.heads_seen);
        assert!(u.heads_parity);
    }

    #[test]
    fn done_flag_spreads_by_epidemic() {
        let le = LeaderElection::default();
        let mut u = LeaderState::new();
        let mut v = LeaderState {
            done: true,
            ..LeaderState::new()
        };
        le.interact(&mut u, &mut v, false, 0, 0, 0, 0, false, false);
        assert!(u.done);
    }

    #[test]
    fn election_produces_a_unique_leader_and_all_agents_finish() {
        let n = 600usize;
        let proto = SyncComposition::new(
            16,
            LeaderElection::new(LeaderElectionConfig { outer_hours: 32 }),
        );
        let mut sim = Simulator::new(proto, n, 4242).unwrap();
        let budget = 80_000_000u64;
        let outcome = sim.run_until(
            |s| s.states().iter().all(|a| a.inner.done),
            (n * 10) as u64,
            budget,
        );
        assert!(outcome.converged(), "leader election did not finish");
        let leaders = sim.states().iter().filter(|a| a.inner.contender).count();
        assert_eq!(leaders, 1, "expected a unique leader, found {leaders}");
    }

    #[test]
    fn there_is_always_at_least_one_contender() {
        let n = 200usize;
        let proto = SyncComposition::new(16, LeaderElection::default());
        let mut sim = Simulator::new(proto, n, 9).unwrap();
        for _ in 0..100 {
            sim.run(20_000);
            let contenders = sim.states().iter().filter(|a| a.inner.contender).count();
            assert!(contenders >= 1, "the contender set must never become empty");
        }
    }

    /// The standalone trajectory at `n = 256`, seed 7: when every agent is
    /// done, and the one contender left.
    #[test]
    fn standalone_trajectory_is_pinned() {
        let n = 256usize;
        let proto = SyncComposition::new(
            16,
            LeaderElection::new(LeaderElectionConfig { outer_hours: 32 }),
        );
        let mut sim = Simulator::new(proto, n, 7).unwrap();
        let outcome = sim.run_until(
            |s| s.states().iter().all(|a| a.inner.done),
            (n * 10) as u64,
            80_000_000,
        );
        assert_eq!(outcome.interactions(), Some(197_120));
        assert_eq!(sim.states().iter().filter(|a| a.inner.contender).count(), 1);
    }
}
