//! Self-stabilizing leader election with a **space–time trade-off knob**:
//! a rank-based silent protocol whose probe alphabet of size `K` trades
//! state space (`q = K·n`) against recovery time.
//!
//! # The source result and the adaptation
//!
//! Austin, Berenbrink et al. 2025 (*Self-Stabilizing Leader Election:
//! Time–Space Trade-offs*, PAPERS.md) give silent self-stabilizing leader
//! election protocols whose stabilization time improves as the per-agent
//! state space grows.  This module ports the *shape* of that trade-off onto
//! the ranking machinery this repository already validates
//! ([`crate::ranking`]): each agent holds a rank `r ∈ {0, …, n−1}` plus a
//! probe tag `t ∈ {0, …, K−1}`, and on a rank **collision** the initiator
//! re-ranks by
//!
//! ```text
//! rank(u) ← rank(u) + 1 + tag(v)·stride   (mod n),   stride = (n/K) | 1
//! ```
//!
//! while both tags advance (`t ← t + 1 mod K`) on *every* interaction — the
//! tag is a `K`-valued synthetic coin (Appendix D of the source paper),
//! deriving its randomness from each agent's participation count.  The `K`
//! probe displacements `{1, 1 + s, …, 1 + (K−1)s}` spread a collision's
//! escape targets over `K` interleaved lattices of the cycle `Z_n`, and
//! that is exactly what the space buys: **dispersal from an adversarial
//! pile-up accelerates monotonically with `K`** (measured at `n = 256`,
//! interactions until half the ranks are occupied from a single-rank
//! block: ≈ 442k at `K = 2`, ≈ 135k at `K = 4`, ≈ 69k at `K = 8` — the
//! curve E22 tabulates).  The *total* silent-stabilization time is
//! `K`-independent in this variant: every interaction offers exactly one
//! tag-selected landing target, so the final duplicate's per-collision
//! probability of hitting the free rank is `≈ 1/n` for every `K`, and the
//! end-game rendezvous dominates.  The port therefore reproduces the
//! source result's *shape* — extra per-agent space purchases faster
//! recovery from adversarial configurations — in the transient phase that
//! the fault-model experiments actually measure.  At `K = 2` the protocol
//! *is* [`crate::ranking::SelfStabRanking`] up to the tag/coin renaming.
//!
//! # Why it elects a leader
//!
//! The absorbing configurations are exactly the all-ranks-distinct ones
//! (ranks never change once collisions are gone; tags keep cycling but are
//! not part of the output), and by pigeonhole every such configuration has
//! **exactly one agent at rank 0 — the leader**.  Self-stabilization is the
//! ranking argument verbatim: while a rank is duplicated some rank is free,
//! the `+1` probe (available whenever the responder's tag is 0, which
//! recurs since tags cycle) walks the full cycle, so from every
//! configuration a path to all-distinct exists and is eventually taken.
//! The protocol is *silent*: after stabilization the output
//! ([`DenseProtocol::output`] = "is my rank 0?") never changes again.
//!
//! # Representations
//!
//! The state space is statically encoded (`q = K·n`,
//! index = `rank·K + tag`).  Like ranking, the protocol is count-hostile
//! (converged occupancy is `n` of the `K·n` indices), so the count-based
//! engines are exercised at small `n` and the large-`n` cells of the
//! scenario matrix run on the per-agent representations; the
//! [`AgentCodec`] implementation covers hybrid per-agent stints.

use ppsim::snapshot::{PersistState, SnapshotReader};
use ppsim::stint::{AgentCodec, BoxedAgentStint, DecodedStint, StintSource};
use ppsim::{DenseProtocol, Protocol, SimError};
use rand::rngs::SmallRng;

/// The native per-agent state of the trade-off election: a rank plus a
/// `K`-valued probe tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElectionAgent {
    /// The agent's current rank, in `0..n`; rank 0 marks the leader once
    /// all ranks are distinct.
    pub rank: u32,
    /// The probe tag, in `0..K`, advanced by one on every interaction.
    pub tag: u32,
}

impl PersistState for ElectionAgent {
    fn persist(&self, out: &mut Vec<u8>) {
        self.rank.persist(out);
        self.tag.persist(out);
    }

    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        Ok(ElectionAgent {
            rank: u32::unpersist(r)?,
            tag: u32::unpersist(r)?,
        })
    }
}

/// Apply one election interaction to a decoded pair — the single
/// transition rule both representations share.
#[inline]
fn elect_interact(
    u: &mut ElectionAgent,
    v: &mut ElectionAgent,
    ranks: u32,
    tags: u32,
    stride: u32,
) {
    if u.rank == v.rank {
        // The responder's *pre-advance* tag picks the probe lattice.
        u.rank = (u.rank + 1 + v.tag * stride) % ranks;
    }
    u.tag = (u.tag + 1) % tags;
    v.tag = (v.tag + 1) % tags;
}

/// The native stepper for per-agent stints: identical `δ` to
/// [`TradeoffElection`], monomorphised over [`ElectionAgent`] structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElectionNative {
    ranks: u32,
    tags: u32,
    stride: u32,
}

impl Protocol for ElectionNative {
    type State = ElectionAgent;
    type Output = bool;

    fn initial_state(&self) -> ElectionAgent {
        ElectionAgent { rank: 0, tag: 0 }
    }

    fn interact(&self, u: &mut ElectionAgent, v: &mut ElectionAgent, _rng: &mut SmallRng) {
        elect_interact(u, v, self.ranks, self.tags, self.stride);
    }

    fn output(&self, s: &ElectionAgent) -> bool {
        s.rank == 0
    }

    fn name(&self) -> &'static str {
        "tradeoff-leader-election"
    }
}

/// Space–time trade-off self-stabilizing leader election as a statically
/// encoded [`DenseProtocol`] (`q = K·n`, index = `rank·K + tag`) with a
/// typed [`AgentCodec`] for hybrid per-agent stints.
///
/// # Examples
///
/// Electing a unique leader from the clean all-rank-0 pile-up:
///
/// ```rust
/// use ppproto::TradeoffElection;
/// use ppsim::BatchedSimulator;
///
/// # fn main() -> Result<(), ppsim::SimError> {
/// let n = 32;
/// let p = TradeoffElection::new(n, 4);
/// let mut sim = BatchedSimulator::new(p, n, 7)?;
/// let outcome = sim.run_until(|s| p.is_stable(s.counts()), 1024, 1_000_000_000);
/// assert!(outcome.converged());
/// assert_eq!(p.leaders(sim.counts()), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TradeoffElection {
    ranks: u32,
    tags: u32,
    stride: u32,
}

impl TradeoffElection {
    /// An election protocol for a population of `n` agents with a probe
    /// alphabet of size `k` (the space knob: `q = k·n`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `k < 2`, `k > 64`, or `k·n` does not fit the
    /// dense index space.
    #[must_use]
    pub fn new(n: usize, k: usize) -> Self {
        assert!(n >= 2, "election needs at least two agents, got {n}");
        assert!(
            (2..=64).contains(&k),
            "probe alphabet must be 2..=64, got {k}"
        );
        let ranks = u32::try_from(n).expect("rank space must fit u32");
        let tags = k as u32;
        assert!(ranks <= u32::MAX / tags, "state space k·n must fit u32");
        // One probe lattice per tag value, spaced n/k apart and made odd so
        // the lattices never alias on even n.
        let stride = (ranks / tags).max(1) | 1;
        TradeoffElection {
            ranks,
            tags,
            stride,
        }
    }

    /// The number of ranks `n`.
    #[must_use]
    pub fn ranks(&self) -> usize {
        self.ranks as usize
    }

    /// The probe-alphabet size `K` (the space knob).
    #[must_use]
    pub fn probe_alphabet(&self) -> usize {
        self.tags as usize
    }

    /// Decode a dense index into its [`ElectionAgent`].
    #[must_use]
    fn decode(&self, index: usize) -> ElectionAgent {
        debug_assert!(index < self.num_states());
        ElectionAgent {
            rank: (index / self.tags as usize) as u32,
            tag: (index % self.tags as usize) as u32,
        }
    }

    /// Encode an [`ElectionAgent`] as its dense index.
    #[must_use]
    fn encode(&self, s: ElectionAgent) -> usize {
        s.rank as usize * self.tags as usize + s.tag as usize
    }

    /// The number of agents currently at rank 0 (the tag is marginalised
    /// out).  Exactly one in every absorbing configuration.
    #[must_use]
    pub fn leaders(&self, counts: &[u64]) -> u64 {
        counts[..self.tags as usize].iter().sum()
    }

    /// The number of distinct ranks held by the configuration `counts`.
    #[must_use]
    pub fn distinct_ranks(&self, counts: &[u64]) -> usize {
        counts
            .chunks(self.tags as usize)
            .filter(|group| group.iter().sum::<u64>() > 0)
            .count()
    }

    /// Whether `counts` is an absorbing (all-ranks-distinct) configuration,
    /// in which exactly one agent — the leader — holds rank 0.
    #[must_use]
    pub fn is_stable(&self, counts: &[u64]) -> bool {
        counts
            .chunks(self.tags as usize)
            .all(|group| group.iter().sum::<u64>() <= 1)
    }
}

impl DenseProtocol for TradeoffElection {
    type Output = bool;

    fn num_states(&self) -> usize {
        self.ranks as usize * self.tags as usize
    }

    fn initial_state(&self) -> usize {
        0
    }

    fn transition(&self, initiator: usize, responder: usize) -> (usize, usize) {
        let mut u = self.decode(initiator);
        let mut v = self.decode(responder);
        elect_interact(&mut u, &mut v, self.ranks, self.tags, self.stride);
        (self.encode(u), self.encode(v))
    }

    fn output(&self, state: usize) -> bool {
        state < self.tags as usize
    }

    fn name(&self) -> &'static str {
        "tradeoff-leader-election"
    }

    fn invariants(&self) -> ppsim::ProtocolInvariants {
        ppsim::ProtocolInvariants {
            // Ranks move on collisions and tags cycle, so no additive
            // quantity survives; the structure lives in the absorbing set.
            conserved: Vec::new(),
            // Only the initiator re-ranks, on the responder's probe
            // lattice, so δ is deliberately role-asymmetric.
            role_symmetric: Some(false),
        }
    }

    fn legitimate(&self, counts: &[u64]) -> Option<bool> {
        Some(self.is_stable(counts))
    }

    fn agent_stint(
        &self,
        source: StintSource<'_>,
    ) -> Option<Result<BoxedAgentStint<bool>, SimError>> {
        Some(DecodedStint::boxed(*self, source))
    }
}

impl AgentCodec for TradeoffElection {
    type Native = ElectionNative;

    fn native(&self) -> ElectionNative {
        ElectionNative {
            ranks: self.ranks,
            tags: self.tags,
            stride: self.stride,
        }
    }

    fn decode_agent(&self, index: usize) -> ElectionAgent {
        self.decode(index)
    }

    fn encode_agent(&self, state: &ElectionAgent) -> usize {
        self.encode(*state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::{seeded_rng, DenseSimulator, Engine};
    use rand::Rng;

    #[test]
    fn collisions_probe_on_the_responder_lattice_and_tags_always_advance() {
        let n = 16;
        let p = TradeoffElection::new(n, 4);
        let stride = p.stride;
        let a = |rank, tag| ElectionAgent { rank, tag };
        // Distinct ranks: ranks unchanged, both tags advance mod K.
        let (x, y) = p.transition(p.encode(a(3, 0)), p.encode(a(5, 3)));
        assert_eq!(p.decode(x), a(3, 1));
        assert_eq!(p.decode(y), a(5, 0));
        // Collision: initiator jumps 1 + tag(v)·stride on the cycle.
        for vtag in 0..4 {
            let (x, _) = p.transition(p.encode(a(7, 2)), p.encode(a(7, vtag)));
            assert_eq!(p.decode(x).rank, (7 + 1 + vtag * stride) % n as u32);
            assert_eq!(p.decode(x).tag, 3);
        }
    }

    #[test]
    fn k_equals_2_matches_self_stab_ranking() {
        // At K = 2 the probe rule degenerates to ranking's short/long coin
        // probe: same stride, same jumps, tag ≡ coin.
        let n = 24usize;
        let p = TradeoffElection::new(n, 2);
        let r = crate::ranking::SelfStabRanking::new(n);
        for i in 0..p.num_states() {
            for j in 0..p.num_states() {
                assert_eq!(p.transition(i, j), r.transition(i, j), "({i}, {j})");
            }
        }
    }

    #[test]
    fn dense_delta_and_native_interact_are_the_same_function() {
        let p = TradeoffElection::new(13, 8);
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
    fn stable_configurations_have_exactly_one_leader() {
        let p = TradeoffElection::new(3, 2);
        // Ranks {0, 1, 2} once each, arbitrary tags: stable, one leader.
        assert!(p.is_stable(&[1, 0, 0, 1, 1, 0]));
        assert_eq!(p.leaders(&[1, 0, 0, 1, 1, 0]), 1);
        assert_eq!(p.distinct_ranks(&[1, 0, 0, 1, 1, 0]), 3);
        // Rank 0 duplicated across tags: not stable, two "leaders".
        assert!(!p.is_stable(&[1, 1, 0, 1, 0, 0]));
        assert_eq!(p.leaders(&[1, 1, 0, 1, 0, 0]), 2);
    }

    #[test]
    fn every_engine_elects_from_the_clean_pileup() {
        let n = 48usize;
        let p = TradeoffElection::new(n, 4);
        for engine in [
            Engine::Sequential,
            Engine::Batched,
            Engine::Sharded {
                shards: 2,
                threads: 1,
            },
            Engine::Hybrid,
        ] {
            let mut sim = DenseSimulator::new(engine, p, n, 23).unwrap();
            let outcome = sim.run_until(
                |s| s.with_counts(|c| p.is_stable(c)),
                (n * n) as u64,
                2_000_000_000,
            );
            assert!(outcome.converged(), "{} failed to elect", engine.name());
            assert_eq!(sim.with_counts(|c| p.leaders(c)), 1, "{}", engine.name());
        }
    }

    /// The space knob buys dispersal speed: from the adversarial
    /// single-rank block, a larger probe alphabet reaches half-occupancy of
    /// the rank space in far fewer interactions (the module docs' measured
    /// curve; E22 tabulates it across `K ∈ {2, 4, 8}`).  Seeds are fixed,
    /// so the comparison is deterministic.
    #[test]
    fn larger_probe_alphabets_disperse_pileups_faster() {
        let n = 256usize;
        let trials = 6u64;
        let mean_spread_time = |k: usize| -> f64 {
            let p = TradeoffElection::new(n, k);
            let mut total = 0u64;
            for t in 0..trials {
                let mut counts = vec![0u64; p.num_states()];
                // All agents piled on rank 7, tags spread over the alphabet.
                for a in 0..n {
                    counts[7 * k + a % k] += 1;
                }
                let mut sim =
                    DenseSimulator::new(Engine::Sequential, p, n, ppsim::derive_seed(99, t))
                        .unwrap();
                sim.set_counts(counts).unwrap();
                let outcome = sim.run_until(
                    |s| s.with_counts(|c| p.distinct_ranks(c) >= n / 2),
                    64,
                    2_000_000_000,
                );
                assert!(outcome.converged());
                total += sim.interactions();
            }
            total as f64 / trials as f64
        };
        let slow = mean_spread_time(2);
        let fast = mean_spread_time(8);
        assert!(
            2.0 * fast < slow,
            "K = 8 dispersal ({fast:.0}) should clearly beat K = 2 ({slow:.0})"
        );
    }
}
