//! Self-stabilizing ranking: `n` agents converge to `n` pairwise-distinct
//! ranks `0..n` from **any** starting configuration.
//!
//! This is the standing workload of the adversarial fault model
//! ([`ppsim::adversary`]): unlike the paper's counting protocols — which are
//! analysed from the all-`q₀` initial configuration — ranking is *defined* by
//! recovery from arbitrary configurations.  Its legitimate configurations are
//! exactly those with all ranks distinct, and from every other configuration
//! the protocol makes progress, so any transient fault (adversarial
//! initialization, in-run corruption of `k` agents) is eventually repaired.
//! That makes "interactions until all ranks are distinct again" a
//! well-defined recovery metric, measured by experiment E21.
//!
//! # The rule
//!
//! Each agent holds a rank `r ∈ {0, …, n−1}` and one synthetic-coin bit
//! (Appendix D of the source paper: transition-level randomness is recovered
//! from the schedule by flipping a bit on every interaction, see
//! [`crate::synthetic_coin`]).  On an interaction between initiator `u` and
//! responder `v`:
//!
//! * if `rank(u) == rank(v)` (a **collision**), the initiator re-ranks to
//!   `rank(u) + 1 + coin(v)·stride (mod n)` — a short probe or a long probe,
//!   selected by the responder's coin;
//! * both agents flip their coin (so the coin stream keeps mixing and the
//!   probe choice is unbiased in the long run).
//!
//! The transition is a pure function `δ(u, v)` of the two states, so the
//! protocol runs unchanged on all four engines.
//!
//! # Why it self-stabilizes
//!
//! While a rank is duplicated, some rank in `0..n` is free (pigeonhole), and
//! a colliding pair has positive probability of meeting; the `+1` probe alone
//! walks the full cycle `Z_n`, so a sequence of collisions reaching a free
//! rank always exists and the all-distinct configurations are the only
//! absorbing ones (ranks never change once all are distinct — coins keep
//! flipping, but the *output* is silent).  The long probe (`stride ≈ n/2`)
//! cuts the expected walk length to a free rank roughly in half on adversarial
//! "one big block" configurations; convergence from the clean all-zero
//! configuration still costs `Θ(n³)` interactions in the worst tail (the last
//! duplicate must meet **and** land), which is why E21 runs ranking at small
//! `n` and why the count-based engines — whose block cost grows with the
//! occupancy `q_occ ≈ n` — are exercised at `n ≤ 256`.
//!
//! # Representations
//!
//! The state space is statically encoded (`q = 2n`, index = `2·rank + coin`),
//! so the protocol is *count-hostile by design*: a converged configuration
//! occupies `n` of the `2n` indices, the exact regime where the hybrid
//! engine's occupancy monitor abandons the dense representation.  The
//! [`AgentCodec`] implementation lets hybrid per-agent stints step native
//! [`RankAgent`] structs instead of interned indices.

use ppsim::snapshot::{PersistState, SnapshotReader};
use ppsim::stint::{AgentCodec, BoxedAgentStint, DecodedStint, StintSource};
use ppsim::{DenseProtocol, Protocol, SimError};
use rand::rngs::SmallRng;

/// The native per-agent state of the ranking protocol: a rank plus one
/// synthetic-coin bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RankAgent {
    /// The agent's current rank, in `0..n`.
    pub rank: u32,
    /// The synthetic-coin bit, flipped on every interaction.
    pub coin: bool,
}

impl PersistState for RankAgent {
    fn persist(&self, out: &mut Vec<u8>) {
        self.rank.persist(out);
        self.coin.persist(out);
    }

    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        Ok(RankAgent {
            rank: u32::unpersist(r)?,
            coin: bool::unpersist(r)?,
        })
    }
}

/// Apply one ranking interaction to a decoded pair — the single transition
/// rule both representations share (the dense `δ` decodes, calls this, and
/// re-encodes; the native stint calls it directly).
#[inline]
fn rank_interact(u: &mut RankAgent, v: &mut RankAgent, ranks: u32, stride: u32) {
    if u.rank == v.rank {
        // The responder's *pre-flip* coin picks the probe length.
        let jump = if v.coin { 1 + stride } else { 1 };
        u.rank = (u.rank + jump) % ranks;
    }
    u.coin = !u.coin;
    v.coin = !v.coin;
}

/// The native stepper for per-agent stints: identical `δ` to
/// [`SelfStabRanking`], monomorphised over [`RankAgent`] structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankingNative {
    ranks: u32,
    stride: u32,
}

impl Protocol for RankingNative {
    type State = RankAgent;
    type Output = u32;

    fn initial_state(&self) -> RankAgent {
        RankAgent {
            rank: 0,
            coin: false,
        }
    }

    fn interact(&self, u: &mut RankAgent, v: &mut RankAgent, _rng: &mut SmallRng) {
        rank_interact(u, v, self.ranks, self.stride);
    }

    fn output(&self, s: &RankAgent) -> u32 {
        s.rank
    }

    fn name(&self) -> &'static str {
        "self-stab-ranking"
    }
}

/// Self-stabilizing ranking over `n` ranks as a statically encoded
/// [`DenseProtocol`] (`q = 2n`, index = `2·rank + coin`) with a typed
/// [`AgentCodec`] for hybrid per-agent stints.
///
/// # Examples
///
/// Reconvergence from an adversarial all-same configuration:
///
/// ```rust
/// use ppproto::SelfStabRanking;
/// use ppsim::{DenseProtocol, IndexCodec, Simulator};
///
/// # fn main() -> Result<(), ppsim::SimError> {
/// let n = 32;
/// let proto = SelfStabRanking::new(n);
/// let mut sim = Simulator::new(IndexCodec(proto.clone()), n, 7)?;
/// // Every agent already starts at rank 0 — the worst legal pile-up.
/// let outcome = sim.run_until(
///     |s| {
///         let mut counts = vec![0u64; proto.num_states()];
///         for &st in s.states() { counts[st as usize] += 1; }
///         proto.is_ranked(&counts)
///     },
///     (n * n) as u64,
///     1_000_000_000,
/// );
/// assert!(outcome.converged());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfStabRanking {
    ranks: u32,
    stride: u32,
}

impl SelfStabRanking {
    /// A ranking protocol for a population of `n` agents (`n` ranks).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `2n` does not fit the dense index space.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "ranking needs at least two agents, got {n}");
        let ranks = u32::try_from(n).expect("rank space must fit u32");
        assert!(ranks <= u32::MAX / 2, "state space 2n must fit u32");
        // Long-probe displacement: about half the cycle, made odd so short
        // and long probes never alias on even n.
        let stride = (ranks / 2) | 1;
        SelfStabRanking { ranks, stride }
    }

    /// The number of ranks `n`.
    #[must_use]
    pub fn ranks(&self) -> usize {
        self.ranks as usize
    }

    /// Decode a dense index into its [`RankAgent`].
    #[must_use]
    fn decode(&self, index: usize) -> RankAgent {
        debug_assert!(index < self.num_states());
        RankAgent {
            rank: (index / 2) as u32,
            coin: index % 2 == 1,
        }
    }

    /// Encode a [`RankAgent`] as its dense index.
    #[must_use]
    fn encode(&self, s: RankAgent) -> usize {
        s.rank as usize * 2 + usize::from(s.coin)
    }

    /// The number of distinct ranks held by the configuration `counts`
    /// (indexed over the `2n` dense states; the coin bit is marginalised
    /// out).
    #[must_use]
    pub fn distinct_ranks(&self, counts: &[u64]) -> usize {
        counts
            .chunks(2)
            .filter(|pair| pair.iter().sum::<u64>() > 0)
            .count()
    }

    /// Whether `counts` is a legitimate (all-ranks-distinct) configuration —
    /// the convergence predicate of every ranking experiment and recovery
    /// probe.
    #[must_use]
    pub fn is_ranked(&self, counts: &[u64]) -> bool {
        counts.chunks(2).all(|pair| pair.iter().sum::<u64>() <= 1)
    }
}

impl DenseProtocol for SelfStabRanking {
    type Output = u32;

    fn num_states(&self) -> usize {
        self.ranks as usize * 2
    }

    fn initial_state(&self) -> usize {
        0
    }

    fn transition(&self, initiator: usize, responder: usize) -> (usize, usize) {
        let mut u = self.decode(initiator);
        let mut v = self.decode(responder);
        rank_interact(&mut u, &mut v, self.ranks, self.stride);
        (self.encode(u), self.encode(v))
    }

    fn output(&self, state: usize) -> u32 {
        (state / 2) as u32
    }

    fn name(&self) -> &'static str {
        "self-stab-ranking"
    }

    fn invariants(&self) -> ppsim::ProtocolInvariants {
        ppsim::ProtocolInvariants {
            // Ranks move on collisions, so no additive quantity survives —
            // the protocol's structure lives in its legitimate set instead.
            conserved: Vec::new(),
            // Only the initiator re-ranks; the responder's coin picks the
            // probe, so δ is deliberately role-asymmetric.
            role_symmetric: Some(false),
        }
    }

    fn legitimate(&self, counts: &[u64]) -> Option<bool> {
        Some(self.is_ranked(counts))
    }

    fn agent_stint(
        &self,
        source: StintSource<'_>,
    ) -> Option<Result<BoxedAgentStint<u32>, SimError>> {
        Some(DecodedStint::boxed(*self, source))
    }
}

impl AgentCodec for SelfStabRanking {
    type Native = RankingNative;

    fn native(&self) -> RankingNative {
        RankingNative {
            ranks: self.ranks,
            stride: self.stride,
        }
    }

    fn decode_agent(&self, index: usize) -> RankAgent {
        self.decode(index)
    }

    fn try_decode_agent(&self, index: usize) -> Option<RankAgent> {
        (index < self.num_states()).then(|| self.decode(index))
    }

    fn encode_agent(&self, state: &RankAgent) -> usize {
        self.encode(*state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::{seeded_rng, BatchedSimulator, DenseSimulator, Engine};
    use rand::Rng;

    #[test]
    fn transition_bumps_only_collisions_and_always_flips_coins() {
        let p = SelfStabRanking::new(8);
        // Distinct ranks: ranks unchanged, both coins flip.
        let (a, b) = p.transition(
            p.encode(RankAgent {
                rank: 3,
                coin: false,
            }),
            p.encode(RankAgent {
                rank: 5,
                coin: true,
            }),
        );
        assert_eq!(
            p.decode(a),
            RankAgent {
                rank: 3,
                coin: true
            }
        );
        assert_eq!(
            p.decode(b),
            RankAgent {
                rank: 5,
                coin: false
            }
        );
        // Collision, responder coin 0: short probe (+1).
        let (a, _) = p.transition(
            p.encode(RankAgent {
                rank: 7,
                coin: false,
            }),
            p.encode(RankAgent {
                rank: 7,
                coin: false,
            }),
        );
        assert_eq!(p.decode(a).rank, 0, "short probe wraps mod n");
        // Collision, responder coin 1: long probe (+1 + stride).
        let (a, _) = p.transition(
            p.encode(RankAgent {
                rank: 0,
                coin: false,
            }),
            p.encode(RankAgent {
                rank: 0,
                coin: true,
            }),
        );
        // Long probe = (rank + 1 + stride) mod n with stride = (n/2)|1 = 5.
        assert_eq!(p.decode(a).rank, 6);
    }

    #[test]
    fn dense_delta_and_native_interact_are_the_same_function() {
        let p = SelfStabRanking::new(13);
        let native = p.native();
        let mut rng = seeded_rng(5);
        for _ in 0..500 {
            let i = rng.gen_range(0..p.num_states());
            let j = rng.gen_range(0..p.num_states());
            let (a, b) = p.transition(i, j);
            let mut u = p.decode_agent(i);
            let mut v = p.decode_agent(j);
            native.interact(&mut u, &mut v, &mut rng);
            assert_eq!((p.encode_agent(&u), p.encode_agent(&v)), (a, b));
        }
    }

    #[test]
    fn ranked_predicate_marginalises_the_coin() {
        let p = SelfStabRanking::new(3);
        // Ranks {0, 1, 2} once each, arbitrary coins: legitimate.
        assert!(p.is_ranked(&[1, 0, 0, 1, 1, 0]));
        assert_eq!(p.distinct_ranks(&[1, 0, 0, 1, 1, 0]), 3);
        // Rank 1 duplicated across the two coin values: not legitimate.
        assert!(!p.is_ranked(&[1, 0, 1, 1, 0, 0]));
        assert_eq!(p.distinct_ranks(&[1, 0, 1, 1, 0, 0]), 2);
    }

    #[test]
    fn converges_from_the_all_zero_pileup_on_the_batched_engine() {
        let n = 48;
        let p = SelfStabRanking::new(n);
        let mut sim = BatchedSimulator::new(p, n, 11).unwrap();
        let outcome = sim.run_until(|s| p.is_ranked(s.counts()), (n * n) as u64, 1_000_000_000);
        assert!(outcome.converged(), "ranking must self-stabilize");
        assert_eq!(p.distinct_ranks(sim.counts()), n);
    }

    #[test]
    fn every_engine_reconverges_from_an_adversarial_block() {
        // All agents piled on a single rank with mixed coins — the worst
        // "one big block" configuration — on all four engines.
        let n = 48usize;
        let p = SelfStabRanking::new(n);
        for engine in [
            Engine::Sequential,
            Engine::Batched,
            Engine::Sharded {
                shards: 2,
                threads: 1,
            },
            Engine::Hybrid,
        ] {
            let mut counts = vec![0u64; p.num_states()];
            counts[2 * 7] = (n as u64) / 2;
            counts[2 * 7 + 1] = (n as u64) - (n as u64) / 2;
            let mut sim = DenseSimulator::new(engine, p, n, 23).unwrap();
            sim.set_counts(counts).unwrap();
            let outcome = sim.run_until(
                |s| s.with_counts(|c| p.is_ranked(c)),
                (n * n) as u64,
                2_000_000_000,
            );
            assert!(outcome.converged(), "{} failed to recover", engine.name());
        }
    }
}
