//! Stochastic coalescence: every agent is a cluster, merges are pairwise
//! and coin-lazy, and the **total mass is conserved** — the scenario
//! matrix's conservation-law workload.
//!
//! # The source process and the adaptation
//!
//! Loh and Lubetzky (*Stochastic coalescence in logarithmic time*,
//! PAPERS.md) study `n` clusters that repeatedly merge in parallel rounds
//! and show that a size-biased merge rule coalesces to a single cluster in
//! `O(log n)` rounds.  Ported to the uniform pairwise scheduler the process
//! loses the parallel rounds and the size bias — every ordered pair is
//! equally likely — which is exactly the Kingman (mean-field) regime: with
//! `a` live clusters an interaction merges two of them with probability
//! `a(a−1)/(n(n−1)) · 1/2` (the responder's synthetic-coin bit approves the
//! merge, as in [`crate::herman`]), so full coalescence from the
//! all-singleton configuration telescopes to
//!
//! ```text
//! E[T] = Σ_{a=2}^{n} 2n(n−1)/(a(a−1)) = 2n(n−1)·(1 − 1/n) ≈ 2n²
//! ```
//!
//! interactions — the protocol-specific bound its matrix cells and E22
//! tables are checked against.  What survives the port is the state shape
//! (every agent carries a cluster **size**, dead clusters carry zero), the
//! merge asymmetry (the responder absorbs the initiator), and the defining
//! invariant: **merges conserve the total mass `Σ size`**.
//!
//! # Saturation
//!
//! The dense encoding bounds sizes by `max_size` (clean runs start from
//! all-singletons, whose total mass `n` no merge can exceed), but the
//! adversarial harness can inject configurations with mass far above `n`.
//! Merges therefore saturate at `max_size`; mass is exactly conserved
//! whenever no merge saturates (in particular from every configuration with
//! mass `≤ max_size`) and never *increases* otherwise.  [`StochasticCoalescence::mass`]
//! exposes the conserved quantity to the conformance checks.
//!
//! # Representations
//!
//! The state space is statically encoded (`q = 2(max_size + 1)`,
//! index = `2·size + coin`).  Occupancy tracks the number of *distinct live
//! sizes*, which stays `O(√n)` along clean runs (sizes sum to `n`), so the
//! count-based engines remain usable far longer than for the
//! full-occupancy ranking workloads; the [`AgentCodec`] implementation
//! covers the hybrid engine's per-agent stints.

use std::sync::Arc;

use ppsim::snapshot::{PersistState, SnapshotReader};
use ppsim::stint::{AgentCodec, BoxedAgentStint, DecodedStint, StintSource};
use ppsim::{
    ConservationLaw, ConservedQuantity, DenseProtocol, Protocol, ProtocolInvariants, SimError,
};
use rand::rngs::SmallRng;

/// The native per-agent state of the coalescence protocol: a cluster size
/// (zero = dead, absorbed into another cluster) plus one synthetic-coin bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterAgent {
    /// The size of the cluster this agent represents; `0` once absorbed.
    pub size: u32,
    /// The synthetic-coin bit, flipped on every interaction.
    pub coin: bool,
}

impl PersistState for ClusterAgent {
    fn persist(&self, out: &mut Vec<u8>) {
        self.size.persist(out);
        self.coin.persist(out);
    }

    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        Ok(ClusterAgent {
            size: u32::unpersist(r)?,
            coin: bool::unpersist(r)?,
        })
    }
}

/// Apply one coalescence interaction to a decoded pair — the single
/// transition rule both representations share.
#[inline]
fn coalesce_interact(u: &mut ClusterAgent, v: &mut ClusterAgent, max_size: u32) {
    // The responder's *pre-flip* coin approves the merge; the responder
    // absorbs the initiator (Loh–Lubetzky's asymmetric merge).
    if u.size > 0 && v.size > 0 && v.coin {
        // Sizes are at most `max_size < u32::MAX / 2`, so the sum cannot
        // overflow before the cap is applied.
        v.size = u.size.saturating_add(v.size).min(max_size);
        u.size = 0;
    }
    u.coin = !u.coin;
    v.coin = !v.coin;
}

/// The native stepper for per-agent stints: identical `δ` to
/// [`StochasticCoalescence`], monomorphised over [`ClusterAgent`] structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescenceNative {
    max_size: u32,
}

impl Protocol for CoalescenceNative {
    type State = ClusterAgent;
    type Output = u32;

    fn initial_state(&self) -> ClusterAgent {
        ClusterAgent {
            size: 1,
            coin: false,
        }
    }

    fn interact(&self, u: &mut ClusterAgent, v: &mut ClusterAgent, _rng: &mut SmallRng) {
        coalesce_interact(u, v, self.max_size);
    }

    fn output(&self, s: &ClusterAgent) -> u32 {
        s.size
    }

    fn name(&self) -> &'static str {
        "stochastic-coalescence"
    }
}

/// Uniform-scheduler stochastic coalescence as a statically encoded
/// [`DenseProtocol`] (`q = 2(max_size + 1)`, index = `2·size + coin`) with
/// a typed [`AgentCodec`] for hybrid per-agent stints.
///
/// # Examples
///
/// Full coalescence from the all-singleton configuration conserves the
/// total mass:
///
/// ```rust
/// use ppproto::StochasticCoalescence;
/// use ppsim::BatchedSimulator;
///
/// # fn main() -> Result<(), ppsim::SimError> {
/// let n = 64;
/// let p = StochasticCoalescence::new(n);
/// let mut sim = BatchedSimulator::new(p, n, 7)?;
/// let outcome = sim.run_until(|s| p.is_coalesced(s.counts()), 1024, 100_000_000);
/// assert!(outcome.converged());
/// assert_eq!(p.alive_clusters(sim.counts()), 1);
/// assert_eq!(p.mass(sim.counts()), n as u64); // one cluster of size n
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StochasticCoalescence {
    max_size: u32,
}

impl StochasticCoalescence {
    /// A coalescence protocol for a population of `n` agents: sizes live in
    /// `0..=n`, so the clean all-singleton run can never saturate.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the state space `2(n+1)` does not fit the dense
    /// index space.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "coalescence needs at least two agents, got {n}");
        let max_size = u32::try_from(n).expect("cluster-size space must fit u32");
        assert!(max_size < u32::MAX / 2, "state space 2(n+1) must fit u32");
        StochasticCoalescence { max_size }
    }

    /// The size cap (`= n` at construction).
    #[must_use]
    pub fn max_size(&self) -> usize {
        self.max_size as usize
    }

    /// Decode a dense index into its [`ClusterAgent`].
    #[must_use]
    fn decode(&self, index: usize) -> ClusterAgent {
        debug_assert!(index < self.num_states());
        ClusterAgent {
            // Fits by construction: `index < 2(max_size + 1)` and
            // `max_size < u32::MAX / 2`.
            size: (index / 2) as u32, // ppcheck: allow(narrowing-cast)
            coin: index % 2 == 1,
        }
    }

    /// Encode a [`ClusterAgent`] as its dense index.
    #[must_use]
    fn encode(&self, s: ClusterAgent) -> usize {
        s.size as usize * 2 + usize::from(s.coin)
    }

    /// The number of live clusters (`size > 0`) in the configuration
    /// `counts` (the coin bit is marginalised out).
    #[must_use]
    pub fn alive_clusters(&self, counts: &[u64]) -> u64 {
        counts[2..].iter().sum()
    }

    /// The total mass `Σ size · count` of the configuration `counts` — the
    /// conserved quantity of every merge that does not saturate.
    #[must_use]
    pub fn mass(&self, counts: &[u64]) -> u64 {
        counts
            .chunks(2)
            .enumerate()
            .map(|(size, pair)| size as u64 * pair.iter().sum::<u64>())
            .sum()
    }

    /// Whether `counts` has coalesced to at most one live cluster — the
    /// convergence predicate of the coalescence experiments.  (At most,
    /// not exactly: the adversary can inject all-dead configurations,
    /// which are already absorbing.)
    #[must_use]
    pub fn is_coalesced(&self, counts: &[u64]) -> bool {
        self.alive_clusters(counts) <= 1
    }
}

impl DenseProtocol for StochasticCoalescence {
    type Output = u32;

    fn num_states(&self) -> usize {
        (self.max_size as usize + 1) * 2
    }

    fn initial_state(&self) -> usize {
        // size = 1, coin = 0: the clean configuration is all-singletons.
        2
    }

    fn transition(&self, initiator: usize, responder: usize) -> (usize, usize) {
        let mut u = self.decode(initiator);
        let mut v = self.decode(responder);
        coalesce_interact(&mut u, &mut v, self.max_size);
        (self.encode(u), self.encode(v))
    }

    fn output(&self, state: usize) -> u32 {
        (state / 2) as u32
    }

    fn name(&self) -> &'static str {
        "stochastic-coalescence"
    }

    fn invariants(&self) -> ProtocolInvariants {
        let p = *self;
        ProtocolInvariants {
            // Mass is exactly conserved below the saturation cap, but the
            // encoding admits oversized configurations whose merges
            // saturate — so only the non-increasing law holds on *every*
            // pair, which is what ppcheck verifies exhaustively.
            conserved: vec![ConservedQuantity {
                name: "mass",
                law: ConservationLaw::NonIncreasing,
                value: Arc::new(move |c: &[u64]| p.mass(c)),
            }],
            // The responder absorbs the initiator (Loh–Lubetzky's
            // asymmetric merge), so δ is deliberately role-asymmetric.
            role_symmetric: Some(false),
        }
    }

    fn legitimate(&self, counts: &[u64]) -> Option<bool> {
        Some(self.is_coalesced(counts))
    }

    fn agent_stint(
        &self,
        source: StintSource<'_>,
    ) -> Option<Result<BoxedAgentStint<u32>, SimError>> {
        Some(DecodedStint::boxed(*self, source))
    }
}

impl AgentCodec for StochasticCoalescence {
    type Native = CoalescenceNative;

    fn native(&self) -> CoalescenceNative {
        CoalescenceNative {
            max_size: self.max_size,
        }
    }

    fn decode_agent(&self, index: usize) -> ClusterAgent {
        self.decode(index)
    }

    fn try_decode_agent(&self, index: usize) -> Option<ClusterAgent> {
        (index < self.num_states()).then(|| self.decode(index))
    }

    fn encode_agent(&self, state: &ClusterAgent) -> usize {
        self.encode(*state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::{seeded_rng, DenseSimulator, Engine};
    use rand::Rng;

    #[test]
    fn merges_conserve_mass_and_need_the_responder_coin() {
        let p = StochasticCoalescence::new(16);
        let c = |size, coin| ClusterAgent { size, coin };
        // Responder coin heads: responder absorbs the initiator.
        let (a, b) = p.transition(p.encode(c(3, false)), p.encode(c(5, true)));
        assert_eq!(p.decode(a), c(0, true));
        assert_eq!(p.decode(b), c(8, false));
        // Responder coin tails: no merge, coins still flip.
        let (a, b) = p.transition(p.encode(c(3, true)), p.encode(c(5, false)));
        assert_eq!(p.decode(a), c(3, false));
        assert_eq!(p.decode(b), c(5, true));
        // Dead clusters never merge.
        let (a, b) = p.transition(p.encode(c(0, false)), p.encode(c(5, true)));
        assert_eq!((p.decode(a).size, p.decode(b).size), (0, 5));
        let (a, b) = p.transition(p.encode(c(5, false)), p.encode(c(0, true)));
        assert_eq!((p.decode(a).size, p.decode(b).size), (5, 0));
    }

    #[test]
    fn oversized_merges_saturate_at_the_cap() {
        let p = StochasticCoalescence::new(16);
        let c = |size, coin| ClusterAgent { size, coin };
        let (a, b) = p.transition(p.encode(c(12, false)), p.encode(c(9, true)));
        assert_eq!(p.decode(a).size, 0);
        assert_eq!(p.decode(b).size, 16, "merge must saturate at max_size");
    }

    #[test]
    fn mass_is_never_created_by_any_transition() {
        let p = StochasticCoalescence::new(8);
        for i in 0..p.num_states() {
            for j in 0..p.num_states() {
                let (a, b) = p.transition(i, j);
                let before = i / 2 + j / 2;
                let after = a / 2 + b / 2;
                assert!(after <= before, "mass grew on ({i}, {j})");
                // Below the cap the merge is exactly conservative.
                if before <= p.max_size() {
                    assert_eq!(after, before, "mass leaked on ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn dense_delta_and_native_interact_are_the_same_function() {
        let p = StochasticCoalescence::new(13);
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
    fn every_engine_coalesces_fully_and_conserves_mass() {
        let n = 48usize;
        let p = StochasticCoalescence::new(n);
        for engine in [
            Engine::Sequential,
            Engine::Batched,
            Engine::Sharded {
                shards: 2,
                threads: 1,
            },
            Engine::Hybrid,
        ] {
            let mut sim = DenseSimulator::new(engine, p, n, 29).unwrap();
            let outcome = sim.run_until(
                |s| s.with_counts(|c| p.is_coalesced(c)),
                (n * n) as u64,
                500_000_000,
            );
            assert!(outcome.converged(), "{} failed to coalesce", engine.name());
            let counts = sim.counts();
            assert_eq!(p.alive_clusters(&counts), 1, "{}", engine.name());
            assert_eq!(p.mass(&counts), n as u64, "{} leaked mass", engine.name());
        }
    }

    #[test]
    fn coalesces_from_an_arbitrary_overweight_configuration() {
        // Mass above n: merges saturate, the run still coalesces, and the
        // mass never increases along the way.
        let n = 32usize;
        let p = StochasticCoalescence::new(n);
        let mut counts = vec![0u64; p.num_states()];
        counts[2 * n] = 20; // twenty clusters already at the cap
        counts[2 * 5 + 1] = 10;
        counts[0] = 2;
        let m0 = p.mass(&counts);
        let mut sim = DenseSimulator::new(Engine::Sequential, p, n, 31).unwrap();
        sim.set_counts(counts).unwrap();
        let outcome = sim.run_until(
            |s| s.with_counts(|c| p.is_coalesced(c)),
            (n * n) as u64,
            100_000_000,
        );
        assert!(outcome.converged());
        let counts = sim.counts();
        assert!(p.mass(&counts) <= m0);
        assert_eq!(p.alive_clusters(&counts), 1);
    }
}
