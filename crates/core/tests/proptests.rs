//! Property-based tests for the counting protocols' core invariants.

use proptest::prelude::*;

use popcount::backup::{
    approximate_backup_interact, exact_backup_interact, ApproximateBackupState, ExactBackupState,
};
use popcount::exact::refinement_stage::refinement_output;
use popcount::search::{search_interact, SearchContext, SearchState};
use popcount::{ApproximateParams, CountExactParams, ExactStageState};

fn search_state() -> impl Strategy<Value = SearchState> {
    (-1i32..20, any::<bool>()).prop_map(|(k, done)| SearchState { k, done })
}

proptest! {
    /// The Search Protocol's follower phases never create load out of thin air: the
    /// total number of tokens represented by the two agents never increases.
    #[test]
    fn search_followers_never_create_tokens(
        u in search_state(),
        v in search_state(),
        phase in 0u32..20,
        first in any::<bool>(),
    ) {
        let tokens = |s: &SearchState| if s.k >= 0 { 1u128 << s.k.min(40) } else { 0 };
        let before = tokens(&u) + tokens(&v);
        let mut a = u;
        let mut b = v;
        let ctx = SearchContext {
            u_leader: false,
            v_leader: false,
            u_phase: phase,
            v_phase: phase,
            u_first_tick: first,
        };
        search_interact(&mut a, &mut b, &ctx);
        // Phase 0 resets and phase 3 epidemics may *drop* or *copy* logical loads
        // (they are bookkeeping, not token moves), but the powers-of-two balancing
        // phase (phase mod 5 == 2) must conserve tokens exactly.
        if phase % 5 == 2 && !u.done && !v.done {
            prop_assert_eq!(tokens(&a) + tokens(&b), before);
        }
        // A done agent's estimate is never altered by follower actions.
        if u.done {
            prop_assert_eq!(a.k, u.k);
        }
    }

    /// The leader's search exponent only ever grows, and only by one per decision.
    #[test]
    fn search_leader_decision_is_monotone(
        k in -1i32..20,
        partner_k in -1i32..5,
        first in any::<bool>(),
    ) {
        let mut leader = SearchState { k, done: false };
        let mut follower = SearchState { k: partner_k, done: false };
        let ctx = SearchContext {
            u_leader: true,
            v_leader: false,
            u_phase: 4,
            v_phase: 4,
            u_first_tick: first,
        };
        search_interact(&mut leader, &mut follower, &ctx);
        prop_assert!(leader.k == k || leader.k == k + 1);
        if leader.done {
            prop_assert_eq!(leader.k, k, "the concluding round does not bump the exponent");
            prop_assert!(partner_k > 0, "the search only stops when an overloaded agent was observed");
        }
    }

    /// The approximate backup conserves its tokens and its output never exceeds the
    /// largest bag that can exist.
    #[test]
    fn approximate_backup_conserves_tokens(
        ku in -1i32..12, kmu in 0i32..12,
        kv in -1i32..12, kmv in 0i32..12,
    ) {
        let tokens = |k: i32| if k >= 0 { 1u64 << k } else { 0 };
        let mut u = ApproximateBackupState { k: ku, k_max: kmu };
        let mut v = ApproximateBackupState { k: kv, k_max: kmv };
        let before = tokens(ku) + tokens(kv);
        approximate_backup_interact(&mut u, &mut v);
        prop_assert_eq!(tokens(u.k) + tokens(v.k), before);
        prop_assert_eq!(u.k_max, v.k_max);
        prop_assert!(u.k_max >= kmu.max(kmv));
        prop_assert!(u.k_max <= kmu.max(kmv).max(ku + 1).max(kv + 1));
    }

    /// The exact backup never loses uncounted tokens and never invents counts larger
    /// than the combined holdings.
    #[test]
    fn exact_backup_conserves_uncounted_tokens(
        cu in any::<bool>(), nu in 1u64..1_000,
        cv in any::<bool>(), nv in 1u64..1_000,
    ) {
        let mut u = ExactBackupState { counted: cu, count: nu };
        let mut v = ExactBackupState { counted: cv, count: nv };
        let uncounted_before = (if !cu { nu } else { 0 }) + if !cv { nv } else { 0 };
        exact_backup_interact(&mut u, &mut v);
        let uncounted_after = (if !u.counted { u.count } else { 0 })
            + if !v.counted { v.count } else { 0 };
        prop_assert_eq!(uncounted_after, uncounted_before);
        prop_assert!(u.count <= nu.max(nv).max(nu + nv));
        prop_assert!(v.count <= nu.max(nv).max(nu + nv));
    }

    /// The refinement output function inverts a perfectly balanced load exactly:
    /// for any population size and any admissible approximation k (log₂ n − 3 ≤ k),
    /// a per-agent load within ±1 of the balanced value yields exactly n.
    #[test]
    fn refinement_output_recovers_n(n in 8u64..200_000, delta in -1i64..=1) {
        let k = (n as f64).log2().ceil() as i64; // within the Lemma 10 band
        let constant = 256u64;
        let total = u128::from(constant) << (2 * k as u32);
        let per_agent = (total / u128::from(n)) as i64 + delta;
        prop_assume!(per_agent > 0);
        let state = ExactStageState {
            k,
            l: per_agent as u64,
            apx_done: true,
            multiplied: true,
            ..ExactStageState::new()
        };
        prop_assert_eq!(refinement_output(&state, constant), Some(n));
    }

    /// The output function is absent exactly when it would be meaningless.
    #[test]
    fn refinement_output_gating(l in 0u64..1000, apx in any::<bool>(), mult in any::<bool>()) {
        let state = ExactStageState {
            k: 5,
            l,
            apx_done: apx,
            multiplied: mult,
            ..ExactStageState::new()
        };
        let out = refinement_output(&state, 256);
        prop_assert_eq!(out.is_some(), apx && mult && l > 0);
    }

    /// Killing a sequential `CountExact` run at a random budget and
    /// resuming it from the serialized snapshot reproduces the
    /// uninterrupted trajectory bit for bit — the full composed protocol
    /// (junta + clock + election + stages) round-trips through the codec.
    /// A sequential `Approximate` run on the same inputs must do the same.
    #[test]
    fn count_exact_saved_at_a_random_budget_resumes_bit_identically(
        n in 8usize..120,
        seed in any::<u64>(),
        kill_at in 0u64..20_000,
        rest in 1u64..20_000,
    ) {
        let verdict = ppsim::faultsim::kill_and_resume(
            || ppsim::Simulator::new(popcount::CountExact::new(CountExactParams::default()), n, seed),
            |s, b| s.run(b),
            &[kill_at, rest],
            1,
        ).unwrap();
        prop_assert!(verdict.bit_identical());
        let verdict = ppsim::faultsim::kill_and_resume(
            || ppsim::Simulator::new(popcount::Approximate::new(ApproximateParams::default()), n, seed),
            |s, b| s.run(b),
            &[kill_at, rest],
            1,
        ).unwrap();
        prop_assert!(verdict.bit_identical());
    }

    /// The same property for `DenseCountExact` and `DenseApproximate` on the
    /// batched engine: the interned state space (rebuilt from the snapshot's
    /// interner contents) must reproduce the same dense indices in the same
    /// discovery order.  Each engine is built over a protocol value of its
    /// own, so the resumed run's interner holds only what the snapshot
    /// restored (clones of one value would share the reference run's).
    #[test]
    fn dense_count_exact_resumes_bit_identically(
        n in 8usize..120,
        seed in any::<u64>(),
        kill_at in 0u64..20_000,
        rest in 1u64..20_000,
    ) {
        let verdict = ppsim::faultsim::kill_and_resume(
            || {
                let proto = popcount::DenseCountExact::with_capacity(CountExactParams::default(), 1 << 22);
                ppsim::BatchedSimulator::new(proto, n, seed)
            },
            |s, b| s.run(b),
            &[kill_at, rest],
            1,
        ).unwrap();
        prop_assert!(verdict.bit_identical());
        let verdict = ppsim::faultsim::kill_and_resume(
            || {
                let proto = popcount::DenseApproximate::with_capacity(ApproximateParams::default(), 1 << 20);
                ppsim::BatchedSimulator::new(proto, n, seed)
            },
            |s, b| s.run(b),
            &[kill_at, rest],
            1,
        ).unwrap();
        prop_assert!(verdict.bit_identical());
    }
}
