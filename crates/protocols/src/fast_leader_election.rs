//! Fast leader election — Lemma 7 and Appendix D of the paper, following \[8\].
//!
//! `FastLeaderElection` trades states for time: using `Õ(n)` states it elects a
//! unique leader within `O(n log n)` interactions w.h.p. (instead of `O(n log² n)`
//! for the election of \[18\]).  The idea (Algorithm 8 of the paper):
//!
//! * the protocol runs in a *constant* number of phases measured by the phase clock;
//! * in **even** phases every remaining contender samples `Θ(log n)` random bits
//!   (one synthetic-coin bit per initiated interaction, up to `2^{level−γ}` bits,
//!   where `level` comes from the junta process and is `log log n ± O(1)` so that
//!   `2^{level−γ} = Θ(log n)`);
//! * in **odd** phases the maximum sampled value spreads by one-way epidemics and
//!   every contender that observes a strictly larger value becomes a follower;
//! * after a fixed number of phases (the paper uses `2¹³`; the constant is
//!   configurable here) each agent sets `leaderDone`.
//!
//! There is always at least one contender (the maximum-value holder never drops
//! out); w.h.p. exactly one remains when `leaderDone` is raised.

use ppsim::{PersistState, SimError, SnapshotReader};

use crate::composition::{SyncComposition, SyncCtx, SyncedAgent, SyncedComponent};
use crate::synthetic_coin::{coin_interact, CoinState};

/// Tunable constants of `FastLeaderElection`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastLeaderElectionConfig {
    /// Offset `γ` subtracted from the junta level when computing the number of
    /// random bits per sampling phase (`bits = 2^{level − γ}`, clamped to
    /// `[1, 48]`).  The paper uses `γ = 8`, which is tuned for asymptotically large
    /// populations; the practical default is `2`.
    pub level_offset: u8,
    /// Total number of phases after which `leaderDone` is raised.  The paper uses
    /// `2¹³` to make the w.h.p. union bounds go through at astronomic sizes; the
    /// practical default of `20` already pushes the collision probability below
    /// `n⁻²` for every population that fits in memory.
    pub total_phases: u32,
}

impl Default for FastLeaderElectionConfig {
    fn default() -> Self {
        FastLeaderElectionConfig {
            level_offset: 2,
            total_phases: 32,
        }
    }
}

impl FastLeaderElectionConfig {
    /// The constants exactly as stated in the paper (Appendix D): `γ = 8`,
    /// `2¹³` phases.
    #[must_use]
    pub fn paper() -> Self {
        FastLeaderElectionConfig {
            level_offset: 8,
            total_phases: 1 << 13,
        }
    }

    /// Number of random bits a contender samples per even phase, given its junta
    /// level.
    #[must_use]
    pub fn bits_for_level(&self, level: u8) -> u32 {
        let exp = level.saturating_sub(self.level_offset);
        // 2^{level-γ}, clamped so the sampled value always fits in a u64.
        1u32 << u32::from(exp).min(5) // 2^5 = 32 bits per phase at most
    }
}

/// Per-agent state of the fast leader-election component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FastLeaderState {
    /// Whether this agent is still a leader contender (`leader_u`).
    pub contender: bool,
    /// Whether this agent has concluded the election (`leaderDone_u`).
    pub done: bool,
    /// Synthetic-coin parity bit.
    pub coin: CoinState,
    /// The random value sampled this round (`l_u`), built bit by bit.
    pub value: u64,
    /// Number of bits of [`value`](Self::value) sampled so far this round (`j_u`).
    pub bits_sampled: u32,
    /// The (even) phase in which [`value`](Self::value) was sampled.  Values from
    /// older rounds are treated as stale: they are never used to eliminate a
    /// contender, which is what makes the "at least one contender" invariant robust
    /// against an agent missing the start of a round.
    pub round: u32,
}

impl FastLeaderState {
    /// The common initial state: everyone is a contender.
    #[must_use]
    pub fn new() -> Self {
        FastLeaderState {
            contender: true,
            done: false,
            coin: CoinState::new(),
            value: 0,
            bits_sampled: 0,
            round: 0,
        }
    }

    /// Re-initialise the election state (used when an agent meets a higher junta
    /// level, Algorithm 3 line 1–2).
    pub fn reset(&mut self) {
        *self = FastLeaderState::new();
    }
}

impl Default for FastLeaderState {
    fn default() -> Self {
        Self::new()
    }
}

/// The fast leader-election transition rule (component form), Algorithm 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastLeaderElection {
    config: FastLeaderElectionConfig,
}

impl FastLeaderElection {
    /// Create the component from its configuration.
    #[must_use]
    pub fn new(config: FastLeaderElectionConfig) -> Self {
        FastLeaderElection { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &FastLeaderElectionConfig {
        &self.config
    }

    /// Apply one interaction of the component.
    ///
    /// * `u` is the initiator, `v` the responder;
    /// * `u_first_tick` — the initiator's consumed `firstTick` flag;
    /// * `u_phase` / `v_phase` — current phase numbers of the two agents;
    /// * `u_level` / `v_level` — junta levels.  The level of the initiator
    ///   determines the number of random bits sampled per round; all cross-agent
    ///   exchanges are restricted to agents on the same level so that stale values
    ///   from superseded levels cannot eliminate contenders on the maximal level.
    #[allow(clippy::too_many_arguments)]
    pub fn interact(
        &self,
        u: &mut FastLeaderState,
        v: &mut FastLeaderState,
        u_first_tick: bool,
        u_phase: u32,
        v_phase: u32,
        u_level: u8,
        v_level: u8,
    ) {
        let (u_bit, _v_bit) = coin_interact(&mut u.coin, &mut v.coin);
        let same_level = u_level == v_level;

        // Even phases: the initiator samples random bits for the current round.  A
        // round is identified by its (even) phase number; the sampled value is reset
        // lazily when the round tag is out of date (Algorithm 8 resets at the
        // firstTick — the lazy reset is equivalent but does not depend on the
        // partner being synchronised).
        if u_phase.is_multiple_of(2) {
            if u.round != u_phase {
                u.value = 0;
                u.bits_sampled = 0;
                u.round = u_phase;
            }
            let bits = self.config.bits_for_level(u_level);
            if u.contender && u.bits_sampled < bits {
                u.value = (u.value << 1) | u64::from(u_bit);
                u.bits_sampled += 1;
            }
        }

        // Odd phases: spread the maximum value sampled in the round that just ended;
        // contenders observing a strictly larger *fresh* value become followers.
        // Stale values (from older rounds) are adopted for broadcasting but never
        // eliminate anyone, so the maximum-holder of the current round always
        // survives and the contender set can never become empty.
        if u_phase % 2 == 1 && u_phase == v_phase && same_level {
            let u_fresh = u.round + 1 == u_phase;
            let v_fresh = v.round + 1 == v_phase;
            if v_fresh && (!u_fresh || u.value < v.value) {
                if u_fresh {
                    u.contender = false;
                }
                u.value = v.value;
                u.round = v.round;
            } else if u_fresh && (!v_fresh || v.value < u.value) {
                if v_fresh {
                    v.contender = false;
                }
                v.value = u.value;
                v.round = u.round;
            }
        }

        if u_first_tick && u_phase >= self.config.total_phases {
            u.done = true;
        }
        // `leaderDone` spreads by one-way epidemics (between agents on the same
        // level, so that a superseded level cannot terminate the election early).
        if same_level && (u.done || v.done) {
            u.done = true;
            v.done = true;
        }
    }
}

impl Default for FastLeaderElection {
    fn default() -> Self {
        Self::new(FastLeaderElectionConfig::default())
    }
}

/// The election as a [`SyncedComponent`]: [`SyncComposition`] runs it below
/// the junta process and the phase clock, which is the standalone
/// [`FastLeaderElectionProtocol`].
impl SyncedComponent for FastLeaderElection {
    type State = FastLeaderState;
    type Output = bool;

    fn initial_state(&self) -> FastLeaderState {
        FastLeaderState::new()
    }

    fn reset(&self, state: &mut FastLeaderState) {
        state.reset();
    }

    fn interact(&self, u: &mut FastLeaderState, v: &mut FastLeaderState, ctx: &SyncCtx) {
        if !u.done {
            FastLeaderElection::interact(
                self,
                u,
                v,
                ctx.u_first_tick,
                ctx.u_phase,
                ctx.v_phase,
                ctx.u_level,
                ctx.v_level,
            );
        }
    }

    /// `true` iff the agent currently considers itself a contender.
    fn output(&self, state: &FastLeaderState) -> bool {
        state.contender
    }

    fn name(&self) -> &'static str {
        "fast-leader-election"
    }
}

/// Standalone fast leader-election protocol (junta + clock + Algorithm 8), used to
/// validate Lemma 7 in isolation (experiment E05).  Built as
/// `SyncComposition::new(hours, FastLeaderElection::new(config))` over a phase
/// clock of `hours` positions.
pub type FastLeaderElectionProtocol = SyncComposition<FastLeaderElection>;

/// Per-agent state of the standalone [`FastLeaderElectionProtocol`]: junta +
/// phase clock in `sync`, the election component state in `inner`.
pub type FastLeaderAgent = SyncedAgent<FastLeaderState>;

/// Snapshot codec: fields in declaration order (see [`ppsim::snapshot`]).
impl PersistState for FastLeaderState {
    fn persist(&self, out: &mut Vec<u8>) {
        self.contender.persist(out);
        self.done.persist(out);
        self.coin.persist(out);
        self.value.persist(out);
        self.bits_sampled.persist(out);
        self.round.persist(out);
    }

    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        Ok(FastLeaderState {
            contender: bool::unpersist(r)?,
            done: bool::unpersist(r)?,
            coin: CoinState::unpersist(r)?,
            value: u64::unpersist(r)?,
            bits_sampled: u32::unpersist(r)?,
            round: u32::unpersist(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase_clock::PhaseClock;
    use ppsim::Simulator;

    #[test]
    fn bits_per_phase_follow_the_junta_level() {
        let cfg = FastLeaderElectionConfig {
            level_offset: 2,
            total_phases: 32,
        };
        assert_eq!(cfg.bits_for_level(2), 1);
        assert_eq!(cfg.bits_for_level(3), 2);
        assert_eq!(cfg.bits_for_level(4), 4);
        assert_eq!(cfg.bits_for_level(5), 8);
        // Clamped so that one round never exceeds 32 bits.
        assert_eq!(cfg.bits_for_level(20), 32);
        // Levels below the offset still give one bit.
        assert_eq!(cfg.bits_for_level(0), 1);
    }

    #[test]
    fn paper_constants_are_preserved() {
        let cfg = FastLeaderElectionConfig::paper();
        assert_eq!(cfg.level_offset, 8);
        assert_eq!(cfg.total_phases, 1 << 13);
    }

    #[test]
    fn even_phase_samples_bits_only_for_contenders() {
        let fle = FastLeaderElection::default();
        let mut u = FastLeaderState::new();
        let mut v = FastLeaderState::new();
        v.coin.parity = true; // the initiator's synthetic bit will be 1
        fle.interact(&mut u, &mut v, true, 2, 2, 4, 4);
        assert_eq!(u.bits_sampled, 1);
        assert_eq!(u.value, 1);

        let mut f = FastLeaderState {
            contender: false,
            ..FastLeaderState::new()
        };
        let mut w = FastLeaderState::new();
        fle.interact(&mut f, &mut w, true, 2, 2, 4, 4);
        assert_eq!(f.bits_sampled, 0, "followers do not sample");
    }

    #[test]
    fn odd_phase_comparison_kills_the_smaller_value() {
        let fle = FastLeaderElection::default();
        let mut u = FastLeaderState {
            value: 3,
            round: 2,
            ..FastLeaderState::new()
        };
        let mut v = FastLeaderState {
            value: 9,
            round: 2,
            ..FastLeaderState::new()
        };
        fle.interact(&mut u, &mut v, false, 3, 3, 4, 4);
        assert!(!u.contender);
        assert!(v.contender);
        assert_eq!(
            u.value, 9,
            "the larger value is adopted for further broadcasting"
        );
    }

    #[test]
    fn odd_phase_comparison_never_kills_with_a_stale_value() {
        let fle = FastLeaderElection::default();
        // The partner carries a larger value, but from an older round: it must be
        // adopted for broadcasting without eliminating the fresh contender.
        let mut u = FastLeaderState {
            value: 3,
            round: 2,
            ..FastLeaderState::new()
        };
        let mut v = FastLeaderState {
            value: 9,
            round: 0,
            ..FastLeaderState::new()
        };
        fle.interact(&mut u, &mut v, false, 3, 3, 4, 4);
        assert!(
            u.contender,
            "a stale value must not eliminate a fresh contender"
        );
        assert!(v.contender);
        assert_eq!(v.value, 3, "the stale agent adopts the fresh value");
        assert_eq!(v.round, 2);
    }

    #[test]
    fn mismatched_phases_do_nothing() {
        let fle = FastLeaderElection::default();
        let mut u = FastLeaderState {
            value: 3,
            ..FastLeaderState::new()
        };
        let mut v = FastLeaderState {
            value: 9,
            ..FastLeaderState::new()
        };
        fle.interact(&mut u, &mut v, false, 3, 4, 4, 4);
        assert!(u.contender && v.contender);
        assert_eq!(u.value, 3);
    }

    #[test]
    fn done_is_raised_after_the_configured_number_of_phases_and_spreads() {
        let fle = FastLeaderElection::new(FastLeaderElectionConfig {
            level_offset: 2,
            total_phases: 6,
        });
        let mut u = FastLeaderState::new();
        let mut v = FastLeaderState::new();
        fle.interact(&mut u, &mut v, true, 6, 6, 4, 4);
        assert!(u.done);
        assert!(v.done, "done spreads to the partner immediately");
    }

    #[test]
    fn fast_election_produces_a_unique_leader() {
        let n = 800usize;
        let proto = SyncComposition::new(
            16,
            FastLeaderElection::new(FastLeaderElectionConfig {
                level_offset: 2,
                total_phases: 32,
            }),
        );
        let mut sim = Simulator::new(proto, n, 2024).unwrap();
        let outcome = sim.run_until(
            |s| s.states().iter().all(|a| a.inner.done),
            (n * 10) as u64,
            80_000_000,
        );
        assert!(outcome.converged(), "fast leader election did not finish");
        let leaders = sim.states().iter().filter(|a| a.inner.contender).count();
        assert_eq!(leaders, 1, "expected a unique leader, found {leaders}");
    }

    #[test]
    fn there_is_always_at_least_one_contender() {
        let n = 300usize;
        let proto = SyncComposition::new(PhaseClock::DEFAULT_HOURS, FastLeaderElection::default());
        let mut sim = Simulator::new(proto, n, 31).unwrap();
        for _ in 0..60 {
            sim.run(20_000);
            assert!(sim.states().iter().any(|a| a.inner.contender));
        }
    }

    /// The standalone trajectory at `n = 256`, seed 7: when every agent is
    /// done, and the one contender left.
    #[test]
    fn standalone_trajectory_is_pinned() {
        let n = 256usize;
        let proto = SyncComposition::new(
            16,
            FastLeaderElection::new(FastLeaderElectionConfig {
                level_offset: 2,
                total_phases: 32,
            }),
        );
        let mut sim = Simulator::new(proto, n, 7).unwrap();
        let outcome = sim.run_until(
            |s| s.states().iter().all(|a| a.inner.done),
            (n * 10) as u64,
            80_000_000,
        );
        assert_eq!(outcome.interactions(), Some(168_960));
        assert_eq!(sim.states().iter().filter(|a| a.inner.contender).count(), 1);
    }
}
