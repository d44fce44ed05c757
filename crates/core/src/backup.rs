//! Slow, always-correct backup protocols — Appendix C of the paper.
//!
//! The stable variants of `Approximate` and `CountExact` are hybrid protocols: the
//! fast protocol runs first and an error-detection stage validates its result; if an
//! error is detected, the agents fall back to one of the backup protocols defined
//! here, which are slow (`Θ(n² polylog n)` interactions) but correct with
//! probability 1.
//!
//! * [`ApproximateBackup`] (Appendix C.1) computes `⌊log₂ n⌋` with at most
//!   `(log n + 1)²` states, stabilising within `O(n² log² n)` interactions w.h.p.
//!   (Lemma 12).
//! * [`ExactBackup`] (Appendix C.2) computes the exact size `n` and stabilises
//!   within `O(n² log n)` interactions w.h.p. (Lemma 13).

use rand::rngs::SmallRng;

use ppsim::{PersistState, Protocol, SimError, SnapshotReader};

/// Per-agent state of the approximate backup protocol (Appendix C.1):
/// `(k_v, kmax_v)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ApproximateBackupState {
    /// Logarithm of the number of tokens held (`−1` = no tokens).
    pub k: i32,
    /// The largest `k` this agent is aware of; the agent's output.
    pub k_max: i32,
}

impl ApproximateBackupState {
    /// The common initial state `(0, 0)`: every agent holds one token.
    #[must_use]
    pub fn new() -> Self {
        ApproximateBackupState { k: 0, k_max: 0 }
    }
}

impl Default for ApproximateBackupState {
    fn default() -> Self {
        Self::new()
    }
}

/// Snapshot codec: fields in declaration order (see [`ppsim::snapshot`]).
impl PersistState for ApproximateBackupState {
    fn persist(&self, out: &mut Vec<u8>) {
        self.k.persist(out);
        self.k_max.persist(out);
    }

    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        Ok(ApproximateBackupState {
            k: i32::unpersist(r)?,
            k_max: i32::unpersist(r)?,
        })
    }
}

/// One interaction of the approximate backup protocol (Equation (3) of the paper).
///
/// If both agents hold the same number of tokens (`k_u = k_v ≥ 0`), the initiator
/// takes all of them (its `k` increases by one) and the responder becomes empty.
/// Both agents always propagate the maximum `k` they have seen.
pub fn approximate_backup_interact(u: &mut ApproximateBackupState, v: &mut ApproximateBackupState) {
    let merged = u.k == v.k && u.k >= 0;
    if merged {
        u.k += 1;
        v.k = -1;
    }
    let k_max = u.k_max.max(v.k_max).max(u.k).max(v.k);
    u.k_max = k_max;
    v.k_max = k_max;
}

/// The approximate backup protocol (Appendix C.1) as a standalone protocol.
///
/// Output: the agent's `kmax`, which converges to `⌊log₂ n⌋`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApproximateBackup;

impl ApproximateBackup {
    /// Create the protocol.
    #[must_use]
    pub fn new() -> Self {
        ApproximateBackup
    }
}

impl Protocol for ApproximateBackup {
    type State = ApproximateBackupState;
    type Output = i32;

    fn initial_state(&self) -> ApproximateBackupState {
        ApproximateBackupState::new()
    }

    fn interact(
        &self,
        initiator: &mut ApproximateBackupState,
        responder: &mut ApproximateBackupState,
        _rng: &mut SmallRng,
    ) {
        approximate_backup_interact(initiator, responder);
    }

    fn output(&self, state: &ApproximateBackupState) -> i32 {
        state.k_max
    }

    fn name(&self) -> &'static str {
        "approximate-backup"
    }
}

/// Per-agent state of the exact backup protocol (Appendix C.2): `(c_u, n_u)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExactBackupState {
    /// Whether this agent's token has already been counted (`c_u`).
    pub counted: bool,
    /// The largest count this agent is aware of (`n_u`); the agent's output.
    pub count: u64,
}

impl ExactBackupState {
    /// The common initial state `(false, 1)`.
    #[must_use]
    pub fn new() -> Self {
        ExactBackupState {
            counted: false,
            count: 1,
        }
    }
}

impl Default for ExactBackupState {
    fn default() -> Self {
        Self::new()
    }
}

/// One interaction of the exact backup protocol (Equation (4) of the paper).
///
/// Two uncounted agents combine their token counts (the initiator keeps collecting,
/// the responder is marked as counted); **counted** agents propagate the maximum
/// count they have observed.
///
/// Equation (4) of the paper lets an *uncounted* agent also overwrite its value with
/// the observed maximum; taken literally that loses track of how many tokens the
/// agent actually holds and can over-count (the adopted maximum would be added to
/// another uncounted agent's tokens in a later merge).  This implementation keeps an
/// uncounted agent's token count untouched, which preserves the intended invariant
/// that the uncounted agents jointly hold exactly `n` tokens, and still converges to
/// every agent outputting `n` (the last uncounted agent holds all `n` tokens and
/// every counted agent adopts that maximum).
pub fn exact_backup_interact(u: &mut ExactBackupState, v: &mut ExactBackupState) {
    if !u.counted && !v.counted {
        let total = u.count + v.count;
        u.count = total;
        v.count = total;
        v.counted = true;
    } else {
        let m = u.count.max(v.count);
        if u.counted {
            u.count = m;
        }
        if v.counted {
            v.count = m;
        }
    }
}

/// The exact backup protocol (Appendix C.2) as a standalone protocol.
///
/// Output: the agent's `n_u`, which converges to the exact population size `n`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactBackup;

impl ExactBackup {
    /// Create the protocol.
    #[must_use]
    pub fn new() -> Self {
        ExactBackup
    }
}

impl Protocol for ExactBackup {
    type State = ExactBackupState;
    type Output = u64;

    fn initial_state(&self) -> ExactBackupState {
        ExactBackupState::new()
    }

    fn interact(
        &self,
        initiator: &mut ExactBackupState,
        responder: &mut ExactBackupState,
        _rng: &mut SmallRng,
    ) {
        exact_backup_interact(initiator, responder);
    }

    fn output(&self, state: &ExactBackupState) -> u64 {
        state.count
    }

    fn name(&self) -> &'static str {
        "exact-backup"
    }
}

/// Total number of tokens represented in a configuration of the approximate backup
/// protocol (must always equal `n`).
#[must_use]
pub fn approximate_backup_tokens(states: &[ApproximateBackupState]) -> u64 {
    states
        .iter()
        .filter(|s| s.k >= 0)
        .map(|s| 1u64 << u32::try_from(s.k).expect("token exponents stay small"))
        .sum()
}

/// Total number of tokens still held by *uncounted* agents in a configuration of
/// the exact backup protocol (must always equal `n`: counted agents have handed
/// their tokens over, so the uncounted agents jointly hold all of them).
#[must_use]
pub fn exact_backup_tokens(states: &[ExactBackupState]) -> u64 {
    states.iter().filter(|s| !s.counted).map(|s| s.count).sum()
}

/// The approximate backup counter over an enumerated state space, for the
/// batched count-based engine ([`BatchedSimulator`](ppsim::BatchedSimulator)).
///
/// This is the counting protocol best suited to the count-based
/// representation: Appendix C.1 bounds its state space by `(log n + 1)²`
/// states *total*, so even populations of 10⁹ agents fit in a few thousand
/// counts.  An [`ApproximateBackupState`] `(k, k_max)` with `k ∈ {−1, …, K}`
/// and `k_max ∈ {0, …, K}` is encoded as `(k + 1)·(K + 1) + k_max`, giving
/// `q = (K + 2)(K + 1)` for the exponent cap `K = max_k`.
///
/// The cap only matters for populations of at least `2^K` agents (a bag of
/// `2^K` tokens would need `k = K + 1` after a merge); the default
/// [`DenseApproximateBackup::DEFAULT_MAX_K`] = 48 is beyond any simulable
/// population, making the dense process exactly the protocol of Appendix C.1.
///
/// Output: `k_max`, which converges to `⌊log₂ n⌋`.
///
/// ```rust
/// use popcount::DenseApproximateBackup;
/// use ppsim::BatchedSimulator;
///
/// # fn main() -> Result<(), ppsim::SimError> {
/// let n = 6_000usize;
/// let proto = DenseApproximateBackup::new();
/// let mut sim = BatchedSimulator::new(proto, n, 7)?;
/// let expected = (n as f64).log2().floor() as i32;
/// let outcome = sim.run_until(
///     |s| s.output_stats().unanimous() == Some(&expected),
///     (n * n / 4) as u64,
///     u64::MAX >> 1,
/// );
/// assert!(outcome.converged());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseApproximateBackup {
    max_k: i32,
}

impl DenseApproximateBackup {
    /// Default exponent cap: reachable only by populations of ≥ 2⁴⁸ agents.
    pub const DEFAULT_MAX_K: i32 = 48;

    /// Create the dense approximate backup counter with the default cap.
    #[must_use]
    pub fn new() -> Self {
        Self::with_max_k(Self::DEFAULT_MAX_K)
    }

    /// Create the dense approximate backup counter with exponent cap `max_k`
    /// (tokens per bag up to `2^max_k`).
    ///
    /// # Panics
    ///
    /// Panics if `max_k < 1`.
    #[must_use]
    pub fn with_max_k(max_k: i32) -> Self {
        assert!(max_k >= 1, "the exponent cap must be positive, got {max_k}");
        DenseApproximateBackup { max_k }
    }

    /// The exponent cap `K`.
    #[must_use]
    pub fn max_k(&self) -> i32 {
        self.max_k
    }

    /// Decode a dense index into an [`ApproximateBackupState`].
    #[must_use]
    pub fn decode(&self, index: usize) -> ApproximateBackupState {
        let stride = (self.max_k + 1) as usize;
        ApproximateBackupState {
            k: (index / stride) as i32 - 1,
            k_max: (index % stride) as i32,
        }
    }

    /// Encode an [`ApproximateBackupState`] as a dense index, saturating both
    /// exponents at the cap.
    #[must_use]
    pub fn encode(&self, state: ApproximateBackupState) -> usize {
        let stride = (self.max_k + 1) as usize;
        let k = state.k.clamp(-1, self.max_k);
        let k_max = state.k_max.clamp(0, self.max_k);
        (k + 1) as usize * stride + k_max as usize
    }
}

impl Default for DenseApproximateBackup {
    fn default() -> Self {
        Self::new()
    }
}

impl ppsim::DenseProtocol for DenseApproximateBackup {
    type Output = i32;

    fn num_states(&self) -> usize {
        ((self.max_k + 2) * (self.max_k + 1)) as usize
    }

    fn initial_state(&self) -> usize {
        self.encode(ApproximateBackupState::new())
    }

    fn transition(&self, initiator: usize, responder: usize) -> (usize, usize) {
        let mut u = self.decode(initiator);
        let mut v = self.decode(responder);
        approximate_backup_interact(&mut u, &mut v);
        (self.encode(u), self.encode(v))
    }

    fn output(&self, state: usize) -> i32 {
        self.decode(state).k_max
    }

    fn name(&self) -> &'static str {
        "dense-approximate-backup"
    }

    fn invariants(&self) -> ppsim::ProtocolInvariants {
        let p = *self;
        ppsim::ProtocolInvariants {
            // The merged bag holds exactly the tokens of its two halves, so
            // the total token mass `Σ 2^k` over non-empty agents is exact —
            // except at the encoding cap `k = K`, where a merge clamps and
            // sheds tokens.  Only the non-increasing law holds on *every*
            // index pair, which is what ppcheck verifies exhaustively.
            conserved: vec![ppsim::ConservedQuantity {
                name: "tokens",
                law: ppsim::ConservationLaw::NonIncreasing,
                value: std::sync::Arc::new(move |c: &[u64]| {
                    c.iter()
                        .enumerate()
                        .map(|(s, &n)| {
                            u32::try_from(p.decode(s).k).map_or(0, |k| {
                                n.saturating_mul(1u64.checked_shl(k).unwrap_or(u64::MAX))
                            })
                        })
                        .fold(0u64, u64::saturating_add)
                }),
            }],
            // The initiator takes the merged bag; the responder empties.
            role_symmetric: Some(false),
        }
    }

    fn legitimate(&self, counts: &[u64]) -> Option<bool> {
        // Silent configurations: every exponent `k ≥ 0` is held by at most
        // one agent (no merge can fire) and all agents already agree on a
        // `k_max` that dominates every held exponent (no update spreads).
        let mut holders = vec![0u64; usize::try_from(self.max_k + 2).unwrap_or(0)];
        let mut k_max: Option<i32> = None;
        let mut top_held = -1i32;
        for (s, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let st = self.decode(s);
            if let Ok(slot) = usize::try_from(st.k + 1) {
                holders[slot] += n;
            }
            top_held = top_held.max(st.k);
            match k_max {
                None => k_max = Some(st.k_max),
                Some(m) if m != st.k_max => return Some(false),
                Some(_) => {}
            }
        }
        let no_merges = holders.iter().skip(1).all(|&h| h <= 1);
        Some(no_merges && k_max.is_none_or(|m| m >= top_held))
    }

    fn agent_stint(
        &self,
        source: ppsim::stint::StintSource<'_>,
    ) -> Option<Result<ppsim::stint::BoxedAgentStint<i32>, SimError>> {
        // No interner here, so the default (empty) protocol-state hooks
        // apply; a saved stint restores from its own bytes alone.
        Some(ppsim::stint::DecodedStint::boxed(*self, source))
    }
}

/// The typed agent-state codec of the dense backup counter: the decode /
/// encode pair is pure index arithmetic (no interner exists here at all), so
/// a hybrid per-agent stint steps bare [`ApproximateBackupState`] structs
/// with [`approximate_backup_interact`] — the same native transition the
/// sequential [`ApproximateBackup`] protocol applies.
///
/// `encode` saturates both exponents at the cap `K`, so the codec round-trip
/// is the identity on the whole index space `0..q` while out-of-range states
/// (unreachable for populations below `2^K`) clamp.
impl ppsim::stint::AgentCodec for DenseApproximateBackup {
    type Native = ApproximateBackup;

    fn native(&self) -> ApproximateBackup {
        ApproximateBackup
    }

    fn decode_agent(&self, index: usize) -> ApproximateBackupState {
        self.decode(index)
    }

    fn encode_agent(&self, state: &ApproximateBackupState) -> usize {
        self.encode(*state)
    }
}

/// Total number of tokens represented in a counts configuration of
/// [`DenseApproximateBackup`] (must always equal `n`).
#[must_use]
pub fn dense_approximate_backup_tokens(protocol: &DenseApproximateBackup, counts: &[u64]) -> u64 {
    counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(s, &c)| {
            let k = protocol.decode(s).k;
            if k >= 0 {
                c * (1u64 << u32::try_from(k).expect("token exponents stay small"))
            } else {
                0
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::{BatchedSimulator, DenseProtocol, Simulator};

    #[test]
    fn equal_bags_merge_and_unequal_bags_do_not() {
        let mut u = ApproximateBackupState { k: 2, k_max: 2 };
        let mut v = ApproximateBackupState { k: 2, k_max: 3 };
        approximate_backup_interact(&mut u, &mut v);
        assert_eq!(u.k, 3);
        assert_eq!(v.k, -1);
        assert_eq!(u.k_max, 3);
        assert_eq!(v.k_max, 3);

        let mut a = ApproximateBackupState { k: 1, k_max: 1 };
        let mut b = ApproximateBackupState { k: 2, k_max: 2 };
        approximate_backup_interact(&mut a, &mut b);
        assert_eq!(a.k, 1);
        assert_eq!(b.k, 2);
        assert_eq!(a.k_max, 2);
    }

    #[test]
    fn empty_agents_do_not_merge() {
        let mut u = ApproximateBackupState { k: -1, k_max: 4 };
        let mut v = ApproximateBackupState { k: -1, k_max: 2 };
        approximate_backup_interact(&mut u, &mut v);
        assert_eq!(u.k, -1);
        assert_eq!(v.k, -1);
        assert_eq!(u.k_max, 4);
        assert_eq!(v.k_max, 4);
    }

    #[test]
    fn approximate_backup_converges_to_floor_log_n() {
        for &n in &[64usize, 100, 200] {
            let mut sim = Simulator::new(ApproximateBackup::new(), n, n as u64).unwrap();
            let expected = (n as f64).log2().floor() as i32;
            // Lemma 12: in the stable configuration every agent outputs ⌊log₂ n⌋ and
            // the multiset of bag sizes matches the binary representation of n.
            let stable = move |states: &[ApproximateBackupState]| {
                states.iter().all(|st| st.k_max == expected)
                    && (0..=expected)
                        .all(|bit| states.iter().filter(|s| s.k == bit).count() == (n >> bit) & 1)
            };
            let outcome =
                sim.run_until(move |s| stable(s.states()), (n * n / 4) as u64, 500_000_000);
            assert!(
                outcome.converged(),
                "approximate backup did not stabilise for n = {n}"
            );
            assert_eq!(
                approximate_backup_tokens(sim.states()),
                n as u64,
                "tokens conserved"
            );
        }
    }

    #[test]
    fn dense_backup_encoding_roundtrips_and_matches_the_component() {
        let d = DenseApproximateBackup::with_max_k(6);
        for index in 0..d.num_states() {
            assert_eq!(d.encode(d.decode(index)), index, "roundtrip at {index}");
        }
        assert_eq!(d.num_states(), 8 * 7);
        for i in 0..d.num_states() {
            for j in 0..d.num_states() {
                let (a, b) = d.transition(i, j);
                let mut u = d.decode(i);
                let mut v = d.decode(j);
                approximate_backup_interact(&mut u, &mut v);
                u.k = u.k.clamp(-1, 6);
                u.k_max = u.k_max.clamp(0, 6);
                v.k = v.k.clamp(-1, 6);
                v.k_max = v.k_max.clamp(0, 6);
                assert_eq!(d.decode(a), u, "initiator mismatch at ({i}, {j})");
                assert_eq!(d.decode(b), v, "responder mismatch at ({i}, {j})");
            }
        }
    }

    #[test]
    fn dense_backup_codec_round_trips_and_bisimulates_the_dense_delta() {
        // The AgentCodec surface on pure index arithmetic: exhaustive over
        // the whole (reachable) index space — encode(decode(i)) == i, and
        // decode → native Protocol::interact → encode equals `transition`.
        use ppsim::stint::AgentCodec;
        use ppsim::DenseProtocol;
        let d = DenseApproximateBackup::with_max_k(5);
        let q = DenseProtocol::num_states(&d);
        for i in 0..q {
            assert_eq!(d.encode_agent(&d.decode_agent(i)), i);
            assert_eq!(d.try_decode_agent(i), Some(d.decode_agent(i)));
        }
        assert_eq!(d.try_decode_agent(q), None);
        let native = d.native();
        let mut rng = ppsim::seeded_rng(0);
        for i in 0..q {
            for j in 0..q {
                let mut u = d.decode_agent(i);
                let mut v = d.decode_agent(j);
                ppsim::Protocol::interact(&native, &mut u, &mut v, &mut rng);
                assert_eq!(
                    (d.encode_agent(&u), d.encode_agent(&v)),
                    d.transition(i, j),
                    "codec path diverged from δ at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn dense_backup_hands_the_hybrid_engine_a_decoded_stint() {
        use ppsim::DenseProtocol;
        let d = DenseApproximateBackup::with_max_k(8);
        let counts = {
            let mut c = vec![0u64; DenseProtocol::num_states(&d)];
            c[DenseProtocol::initial_state(&d)] = 600;
            c
        };
        let source = ppsim::stint::StintSource::Counts {
            counts: &counts,
            seed: 3,
        };
        let mut stint = d
            .agent_stint(source)
            .expect("the dense backup counter carries a codec")
            .unwrap();
        assert_eq!(stint.kind(), "decoded");
        stint.run(20_000);
        let tallied = stint.counts();
        assert_eq!(tallied.iter().sum::<u64>(), 600);
        assert_eq!(
            dense_approximate_backup_tokens(&d, &tallied),
            600,
            "tokens conserved through the decoded stint"
        );
    }

    #[test]
    fn dense_backup_counts_on_the_batched_engine() {
        // Lemma 12 on the batched engine, at a size the sequential test
        // cannot afford (Θ(n² log² n) interactions): every agent converges to
        // ⌊log₂ n⌋ and the bag multiset encodes n in binary.
        let n = 3000usize;
        let d = DenseApproximateBackup::new();
        let mut sim = BatchedSimulator::new(d, n, 5).unwrap();
        let expected = (n as f64).log2().floor() as i32;
        let stable = move |s: &BatchedSimulator<DenseApproximateBackup>| {
            s.output_stats().unanimous() == Some(&expected)
                && (0..=expected).all(|bit| {
                    let holders: u64 = s
                        .counts()
                        .iter()
                        .enumerate()
                        .filter(|(idx, &c)| c > 0 && s.protocol().decode(*idx).k == bit)
                        .map(|(_, &c)| c)
                        .sum();
                    holders == ((n >> bit) & 1) as u64
                })
        };
        let outcome = sim.run_until(stable, (n * n / 4) as u64, u64::MAX >> 1);
        assert!(
            outcome.converged(),
            "dense approximate backup did not stabilise"
        );
        assert_eq!(
            dense_approximate_backup_tokens(sim.protocol(), sim.counts()),
            n as u64,
            "tokens conserved"
        );
    }

    #[test]
    fn exact_backup_counts_and_broadcasts() {
        let mut u = ExactBackupState {
            counted: false,
            count: 3,
        };
        let mut v = ExactBackupState {
            counted: false,
            count: 4,
        };
        exact_backup_interact(&mut u, &mut v);
        assert_eq!(u.count, 7);
        assert_eq!(v.count, 7);
        assert!(!u.counted);
        assert!(v.counted);

        let mut a = ExactBackupState {
            counted: true,
            count: 3,
        };
        let mut b = ExactBackupState {
            counted: false,
            count: 5,
        };
        exact_backup_interact(&mut a, &mut b);
        assert_eq!(a.count, 5, "counted agents track the maximum they observe");
        assert_eq!(b.count, 5, "uncounted agents keep their own token count");
        assert!(!b.counted, "a counted agent never absorbs further tokens");
    }

    #[test]
    fn exact_backup_converges_to_n() {
        for &n in &[50usize, 128, 333] {
            let mut sim = Simulator::new(ExactBackup::new(), n, 3 * n as u64).unwrap();
            let expected = n as u64;
            let outcome = sim.run_until(
                move |s| s.states().iter().all(|st| st.count == expected),
                (n * n / 4) as u64,
                2_000_000_000,
            );
            assert!(
                outcome.converged(),
                "exact backup did not converge for n = {n}"
            );
        }
    }

    #[test]
    fn exact_backup_never_overcounts() {
        let n = 200usize;
        let mut sim = Simulator::new(ExactBackup::new(), n, 1).unwrap();
        for _ in 0..50 {
            sim.run(10_000);
            assert!(sim.states().iter().all(|s| s.count <= n as u64));
        }
    }
}
