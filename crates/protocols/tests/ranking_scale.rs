//! ISSUE 8 satellite: `SelfStabRanking` at `n ≥ 10⁵` — the `q = 2n` state
//! space against the engines' dense-index ceiling, and the hybrid sizing
//! regression that scaling it surfaced.
//!
//! The sizing issue: a configuration replacement (`set_counts`, fault
//! injection) used to leave the hybrid engine on its dense substrate until
//! the occupancy monitor's *sampled* window confirmed the degeneracy —
//! `max(n/4, 256)` interactions away.  With an adversarial `Θ(n)`-occupancy
//! configuration at `n = 10⁵` each `Θ(√n)`-interaction block costs
//! `O(q_occ²) ≈ 10¹⁰` class evaluations, so the run effectively hung long
//! before the first observation.  The fix treats a replacement as exact
//! evidence and migrates to the per-agent representation immediately;
//! these tests pin that behaviour (and would time out without it).

use ppproto::SelfStabRanking;
use ppsim::{DenseProtocol, DenseSimulator, Engine, HybridSimulator, SwitchDirection};

#[test]
fn q_2n_fits_the_dense_index_space_at_n_100k() {
    let n = 100_000usize;
    let p = SelfStabRanking::new(n);
    assert_eq!(p.num_states(), 2 * n);
    // Count-engine construction is O(q) vectors, not O(q²) tables: building
    // the batched engine at q = 2·10⁵ and running a short clean-init leg
    // (occupancy grows from 1, so blocks stay cheap) must just work.
    let mut sim = DenseSimulator::new(Engine::Batched, p, n, 7).unwrap();
    sim.run(5_000);
    assert_eq!(sim.interactions(), 5_000);
    assert_eq!(sim.population(), n as u64);
}

#[test]
#[should_panic(expected = "state space 2n")]
fn rank_spaces_past_the_u32_index_ceiling_are_rejected() {
    // The engines' dense tables index states with u32s; a q = 2n that
    // cannot fit must be rejected at construction, not corrupt a run.
    let _ = SelfStabRanking::new(u32::MAX as usize / 2 + 1);
}

#[test]
fn hybrid_flees_a_degenerate_replacement_immediately_at_n_100k() {
    let n = 100_000usize;
    let p = SelfStabRanking::new(n);
    let mut sim = HybridSimulator::new(p, n, 7).unwrap();
    assert!(sim.is_dense());

    // Adversarial scatter: every rank below n/2 holds two agents (one per
    // coin value) — Θ(n) occupied states, the exact shape that used to
    // hang the dense substrate.
    let mut counts = vec![0u64; p.num_states()];
    for i in 0..n {
        counts[i % (2 * n)] += 1;
    }
    sim.set_counts(counts).unwrap();

    // The replacement itself must have migrated the run — no interactions
    // executed, no monitor window waited for.
    assert!(
        !sim.is_dense(),
        "a Θ(n)-occupancy replacement must leave dense mode at once"
    );
    assert_eq!(sim.switches().len(), 1);
    assert_eq!(sim.switches()[0].direction, SwitchDirection::ToAgent);
    assert_eq!(sim.switches()[0].interactions, 0);
    assert_eq!(sim.switches()[0].occupied, n);
    assert_eq!(
        sim.legs().stint_kind,
        Some("decoded"),
        "the codec stint steps native structs"
    );

    // And the per-agent leg actually makes progress at n = 10⁵: a million
    // interactions complete (they would not, dense) with the population and
    // state space intact and collisions being repaired.
    let before = sim.as_dense_counts().is_none();
    assert!(before);
    let distinct_before = p.distinct_ranks(&sim.counts());
    sim.run(1_000_000);
    assert_eq!(sim.interactions(), 1_000_000);
    assert!(
        sim.fault().is_none(),
        "no parked migration fault: {:?}",
        sim.fault()
    );
    let counts = sim.counts();
    assert_eq!(counts.iter().sum::<u64>(), n as u64);
    let distinct_after = p.distinct_ranks(&counts);
    assert!(
        distinct_after > distinct_before,
        "collision repair must make progress ({distinct_before} → {distinct_after})"
    );
}
