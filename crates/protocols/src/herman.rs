//! Herman's self-stabilizing token protocol, adapted to the uniform
//! pairwise scheduler: coin-lazy token **annihilation** with the
//! `Θ(n²)` expected stabilization time as a tolerance-banded assertion.
//!
//! # The source protocol and the adaptation
//!
//! Herman's protocol (1990) runs on an odd-size unidirectional ring: each
//! process either holds a token or not, and on every synchronous step a
//! token-holder flips a fair coin to either keep its token or pass it to its
//! ring neighbour; two tokens meeting on one process annihilate.  From *any*
//! configuration the token count only ever decreases (by two at a time, so
//! its **parity is invariant**), and the protocol stabilizes to the legitimate
//! configurations with at most one token.  Bruna et al. 2015 (*Proving the
//! Herman-Protocol Conjecture*, PAPERS.md) settled the worst-case expected
//! stabilization time at `αN²` with `α = 4/27`, attained by three
//! equidistant tokens.
//!
//! A population protocol has no ring: the scheduler draws ordered pairs
//! uniformly, so "two tokens meet" becomes "two token-holders are scheduled
//! together", and the ring's lazy coin becomes a synthetic-coin bit
//! ([`crate::synthetic_coin`], Appendix D of the source paper) carried by
//! every agent and flipped on every interaction.  The pair rule is:
//!
//! * if both agents hold tokens **and** the responder's pre-flip coin is
//!   heads, both tokens are destroyed;
//! * both agents flip their coin (participation parity keeps the coin
//!   stream mixing, exactly as in [`crate::ranking`]).
//!
//! This preserves the protocol's defining structure — anonymous token
//! holders, pairwise annihilation, coin-lazy progress, parity-invariant
//! token count, legitimacy = "at most one token" — while replacing ring
//! adjacency by uniform pairing.
//!
//! # The quantitative target
//!
//! With `k` tokens among `n` agents, a uniformly scheduled interaction pairs
//! two token-holders with probability `k(k−1)/(n(n−1))` and the responder's
//! coin approves the annihilation with probability `1/2`, so the expected
//! interactions for `k → k−2` are `2n(n−1)/(k(k−1))`.  Starting from an odd
//! token count near `n` (the measured configuration of E22 and the band
//! test below) the expected stabilization time telescopes to
//!
//! ```text
//! E[T] = Σ_{odd j ≥ 3} 2n(n−1)/(j(j−1)) = 2(1 − ln 2)·n(n−1) ≈ 0.6137·n²
//! ```
//!
//! which falls inside the issue's 15% tolerance band around `0.64n²` — the
//! banded assertion checked at `n = 10³` in this module's tests and at
//! `n ∈ {10³, 10⁴}` by experiment E22.  (From the clean all-token
//! configuration at even `n` the parity invariant forces the run down to
//! zero tokens and the even-index telescope gives `2 ln 2·n(n−1) ≈ 1.386n²`
//! instead — the scenario matrix budgets its clean-init cells accordingly.)
//!
//! # Representations
//!
//! The state space is four dense indices (`index = 2·token + coin`), so the
//! protocol is *count-friendly* on every engine at every population size —
//! the matrix's `n = 10⁴` all-engine rows are Herman cells.  The
//! [`AgentCodec`] implementation additionally lets hybrid per-agent stints
//! step native [`HermanAgent`] structs.

use std::sync::Arc;

use ppsim::snapshot::{PersistState, SnapshotReader};
use ppsim::stint::{AgentCodec, BoxedAgentStint, DecodedStint, StintSource};
use ppsim::{
    ConservationLaw, ConservedQuantity, DenseProtocol, Protocol, ProtocolInvariants, SimError,
};
use rand::rngs::SmallRng;

/// The native per-agent state of the adapted Herman protocol: a token bit
/// plus one synthetic-coin bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HermanAgent {
    /// Whether the agent currently holds a token.
    pub token: bool,
    /// The synthetic-coin bit, flipped on every interaction.
    pub coin: bool,
}

impl PersistState for HermanAgent {
    fn persist(&self, out: &mut Vec<u8>) {
        self.token.persist(out);
        self.coin.persist(out);
    }

    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        Ok(HermanAgent {
            token: bool::unpersist(r)?,
            coin: bool::unpersist(r)?,
        })
    }
}

/// Apply one adapted-Herman interaction to a decoded pair — the single
/// transition rule both representations share.
#[inline]
fn herman_interact(u: &mut HermanAgent, v: &mut HermanAgent) {
    // The responder's *pre-flip* coin approves the annihilation.
    if u.token && v.token && v.coin {
        u.token = false;
        v.token = false;
    }
    u.coin = !u.coin;
    v.coin = !v.coin;
}

/// The native stepper for per-agent stints: identical `δ` to
/// [`HermanTokens`], monomorphised over [`HermanAgent`] structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HermanNative;

impl Protocol for HermanNative {
    type State = HermanAgent;
    type Output = bool;

    fn initial_state(&self) -> HermanAgent {
        HermanAgent {
            token: true,
            coin: false,
        }
    }

    fn interact(&self, u: &mut HermanAgent, v: &mut HermanAgent, _rng: &mut SmallRng) {
        herman_interact(u, v);
    }

    fn output(&self, s: &HermanAgent) -> bool {
        s.token
    }

    fn name(&self) -> &'static str {
        "herman-tokens"
    }
}

/// Herman's protocol adapted to the uniform scheduler as a statically
/// encoded [`DenseProtocol`] (`q = 4`, index = `2·token + coin`) with a
/// typed [`AgentCodec`] for hybrid per-agent stints.
///
/// # Examples
///
/// Stabilization to at most one token from the all-token configuration
/// (odd `n`, so the parity invariant leaves exactly one):
///
/// ```rust
/// use ppproto::HermanTokens;
/// use ppsim::BatchedSimulator;
///
/// # fn main() -> Result<(), ppsim::SimError> {
/// let p = HermanTokens::new();
/// let n = 101;
/// let mut sim = BatchedSimulator::new(p, n, 7)?;
/// let outcome = sim.run_until(|s| p.is_stable(s.counts()), 1024, 100_000_000);
/// assert!(outcome.converged());
/// assert_eq!(p.tokens(sim.counts()), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HermanTokens;

impl HermanTokens {
    /// The adapted Herman protocol (population-size independent: `q = 4`).
    #[must_use]
    pub fn new() -> Self {
        HermanTokens
    }

    /// Decode a dense index into its [`HermanAgent`].
    #[must_use]
    fn decode(&self, index: usize) -> HermanAgent {
        debug_assert!(index < self.num_states());
        HermanAgent {
            token: index / 2 == 1,
            coin: index % 2 == 1,
        }
    }

    /// Encode a [`HermanAgent`] as its dense index.
    #[must_use]
    fn encode(&self, s: HermanAgent) -> usize {
        usize::from(s.token) * 2 + usize::from(s.coin)
    }

    /// The number of tokens held by the configuration `counts` (indexed over
    /// the four dense states; the coin bit is marginalised out).
    #[must_use]
    pub fn tokens(&self, counts: &[u64]) -> u64 {
        counts[2] + counts[3]
    }

    /// Whether `counts` is a legitimate (at most one token) configuration —
    /// the stabilization predicate of every Herman experiment and recovery
    /// probe.  Annihilation destroys tokens in pairs, so legitimacy is
    /// reached from every starting parity.
    #[must_use]
    pub fn is_stable(&self, counts: &[u64]) -> bool {
        self.tokens(counts) <= 1
    }
}

impl DenseProtocol for HermanTokens {
    type Output = bool;

    fn num_states(&self) -> usize {
        4
    }

    fn initial_state(&self) -> usize {
        // token = 1, coin = 0: the clean configuration gives every agent a
        // token, the densest starting point for annihilation.
        2
    }

    fn transition(&self, initiator: usize, responder: usize) -> (usize, usize) {
        let mut u = self.decode(initiator);
        let mut v = self.decode(responder);
        herman_interact(&mut u, &mut v);
        (self.encode(u), self.encode(v))
    }

    fn output(&self, state: usize) -> bool {
        state / 2 == 1
    }

    fn name(&self) -> &'static str {
        "herman-tokens"
    }

    fn invariants(&self) -> ProtocolInvariants {
        let p = *self;
        ProtocolInvariants {
            conserved: vec![
                ConservedQuantity {
                    name: "tokens",
                    law: ConservationLaw::NonIncreasing,
                    value: Arc::new(move |c: &[u64]| p.tokens(c)),
                },
                ConservedQuantity {
                    name: "token-parity",
                    law: ConservationLaw::Exact,
                    value: Arc::new(move |c: &[u64]| p.tokens(c) % 2),
                },
            ],
            // The responder's pre-flip coin approves the annihilation, so δ
            // is deliberately role-asymmetric.
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

impl AgentCodec for HermanTokens {
    type Native = HermanNative;

    fn native(&self) -> HermanNative {
        HermanNative
    }

    fn decode_agent(&self, index: usize) -> HermanAgent {
        self.decode(index)
    }

    fn try_decode_agent(&self, index: usize) -> Option<HermanAgent> {
        (index < self.num_states()).then(|| self.decode(index))
    }

    fn encode_agent(&self, state: &HermanAgent) -> usize {
        self.encode(*state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::{derive_seed, seeded_rng, BatchedSimulator, DenseSimulator, Engine};
    use rand::Rng;

    #[test]
    fn annihilation_needs_two_tokens_and_the_responder_coin() {
        let p = HermanTokens::new();
        let t = |token, coin| HermanAgent { token, coin };
        // Both tokens, responder coin heads: annihilate, coins flip.
        let (a, b) = p.transition(p.encode(t(true, false)), p.encode(t(true, true)));
        assert_eq!(p.decode(a), t(false, true));
        assert_eq!(p.decode(b), t(false, false));
        // Both tokens, responder coin tails: tokens survive.
        let (a, b) = p.transition(p.encode(t(true, true)), p.encode(t(true, false)));
        assert_eq!(p.decode(a), t(true, false));
        assert_eq!(p.decode(b), t(true, true));
        // One token: never destroyed, whatever the coins say.
        for (uc, vc) in [(false, false), (false, true), (true, false), (true, true)] {
            let (a, b) = p.transition(p.encode(t(true, uc)), p.encode(t(false, vc)));
            assert!(p.decode(a).token && !p.decode(b).token);
            let (a, b) = p.transition(p.encode(t(false, uc)), p.encode(t(true, vc)));
            assert!(!p.decode(a).token && p.decode(b).token);
        }
    }

    #[test]
    fn token_parity_is_invariant_under_every_transition() {
        let p = HermanTokens::new();
        for i in 0..4 {
            for j in 0..4 {
                let (a, b) = p.transition(i, j);
                let before = i / 2 + j / 2;
                let after = a / 2 + b / 2;
                assert_eq!(before % 2, after % 2, "parity broke on ({i}, {j})");
                assert!(after <= before, "tokens were created on ({i}, {j})");
            }
        }
    }

    #[test]
    fn dense_delta_and_native_interact_are_the_same_function() {
        let p = HermanTokens::new();
        let native = p.native();
        let mut rng = seeded_rng(5);
        for _ in 0..200 {
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
    fn every_engine_stabilizes_from_the_all_token_configuration() {
        let n = 48usize;
        let p = HermanTokens::new();
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
                500_000_000,
            );
            assert!(outcome.converged(), "{} failed to stabilize", engine.name());
            // Even population, even parity: annihilation runs down to zero.
            assert_eq!(sim.with_counts(|c| p.tokens(c)), 0, "{}", engine.name());
        }
    }

    /// The tolerance-banded assertion of ISSUE 8: the measured expected
    /// stabilization time from an odd near-full token load at `n = 10³`
    /// falls within 15% of `0.64n²` (the mean-field telescope predicts
    /// `2(1 − ln 2)·n(n−1) ≈ 0.614n²`, see the module docs).  Seeds are
    /// fixed, so the measurement — and hence the assertion — is
    /// deterministic; E22 repeats it at `n = 10⁴`.
    #[test]
    fn expected_stabilization_time_is_within_the_band_at_n_1000() {
        let n = 1000usize;
        let p = HermanTokens::new();
        let trials = 40u64;
        let mut total = 0u64;
        for t in 0..trials {
            let mut sim = BatchedSimulator::new(p, n, derive_seed(0x4E12_3A77, t)).unwrap();
            // n − 1 tokens: odd count on even n, so the run ends at exactly
            // one token instead of paying the Θ(n²) final even-parity step.
            let mut counts = vec![0u64; 4];
            counts[2] = n as u64 - 1;
            counts[0] = 1;
            sim.set_counts(counts).unwrap();
            let outcome = sim.run_until(|s| p.is_stable(s.counts()), 2048, 10 * (n * n) as u64);
            assert!(outcome.converged(), "trial {t} blew the 10n² budget");
            assert_eq!(p.tokens(sim.counts()), 1);
            total += sim.interactions();
        }
        let mean = total as f64 / trials as f64;
        let target = 0.64 * (n * n) as f64;
        assert!(
            (mean - target).abs() <= 0.15 * target,
            "measured mean {mean:.0} outside the 15% band around {target:.0}"
        );
    }
}
