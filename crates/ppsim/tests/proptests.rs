//! Property-based tests for the simulation engine.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

use ppsim::faultsim::kill_and_resume;
use ppsim::scheduler::{AllPairsScheduler, Scheduler, UniformScheduler};
use ppsim::{
    derive_seed, seeded_rng, AdversarialRun, AgentStint, BatchedSimulator, Checkpointable,
    CorruptionTarget, DecodedStint, DenseProtocol, Engine, EngineSnapshot, FaultEvent, FaultKind,
    FaultPlan, HybridSimulator, IndexCodec, InitStrategy, OccupancyMonitor, Protocol,
    ShardedBatchedSimulator, ShardedConfig, Simulator, StateSpaceTracker, StintSource,
};

/// One-way epidemic on two dense states, for the count-based engines.
#[derive(Debug, Clone, Copy)]
struct DenseRumor;

impl DenseProtocol for DenseRumor {
    type Output = bool;
    fn num_states(&self) -> usize {
        2
    }
    fn initial_state(&self) -> usize {
        0
    }
    fn transition(&self, u: usize, v: usize) -> (usize, usize) {
        (u.max(v), v)
    }
    fn output(&self, s: usize) -> bool {
        s == 1
    }
}

/// Assert `restore(save(sim))` is the identity on observable state: the
/// restored engine's own snapshot reproduces the original bytes exactly
/// (snapshot bytes are a pure function of the trajectory, so byte equality
/// is observable-state equality — see `ppsim::faultsim`).
fn assert_roundtrip_identity<S: Checkpointable>(sim: &S, mut fresh: S) {
    let bytes = sim.save_state().to_bytes();
    let snapshot = EngineSnapshot::from_bytes(&bytes).unwrap();
    fresh.restore_state(&snapshot).unwrap();
    assert_eq!(fresh.save_state().to_bytes(), bytes);
}

/// A protocol that conserves the sum of its (numeric) states: tokens are moved from
/// the responder to the initiator, one at a time.
#[derive(Debug, Clone, Copy)]
struct TokenDrift;

impl Protocol for TokenDrift {
    type State = u64;
    type Output = u64;
    fn initial_state(&self) -> u64 {
        1
    }
    fn interact(&self, u: &mut u64, v: &mut u64, _rng: &mut SmallRng) {
        if *v > 0 {
            *v -= 1;
            *u += 1;
        }
    }
    fn output(&self, s: &u64) -> u64 {
        *s
    }
}

proptest! {
    /// The uniform scheduler only ever returns ordered pairs of distinct, in-range indices.
    #[test]
    fn uniform_scheduler_pairs_valid(n in 2usize..200, seed in any::<u64>(), draws in 1usize..500) {
        let mut sched = UniformScheduler::new();
        let mut rng = seeded_rng(seed);
        for _ in 0..draws {
            let (i, j) = sched.next_pair(n, &mut rng);
            prop_assert!(i < n);
            prop_assert!(j < n);
            prop_assert_ne!(i, j);
        }
    }

    /// A full cycle of the all-pairs scheduler visits each ordered pair exactly once.
    #[test]
    fn all_pairs_cycle_is_a_permutation(n in 2usize..30) {
        let mut sched = AllPairsScheduler::new();
        let mut rng = seeded_rng(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..AllPairsScheduler::cycle_len(n) {
            let p = sched.next_pair(n, &mut rng);
            prop_assert!(seen.insert(p));
        }
        prop_assert_eq!(seen.len() as u64, AllPairsScheduler::cycle_len(n));
    }

    /// Simulation preserves protocol-level invariants: the total token count is conserved
    /// by a conserving transition function, regardless of seed and schedule length.
    #[test]
    fn simulation_conserves_conserved_quantities(
        n in 2usize..100,
        seed in any::<u64>(),
        steps in 0u64..5_000,
    ) {
        let mut sim = Simulator::new(TokenDrift, n, seed).unwrap();
        sim.run(steps);
        let total: u64 = sim.states().iter().sum();
        prop_assert_eq!(total, n as u64);
        prop_assert_eq!(sim.interactions(), steps);
    }

    /// Two simulators with the same seed and population evolve identically.
    #[test]
    fn runs_are_reproducible(n in 2usize..64, seed in any::<u64>(), steps in 0u64..2_000) {
        let mut a = Simulator::new(TokenDrift, n, seed).unwrap();
        let mut b = Simulator::new(TokenDrift, n, seed).unwrap();
        a.run(steps);
        b.run(steps);
        prop_assert_eq!(a.states(), b.states());
    }

    /// Seed derivation is injective in practice over small index ranges.
    #[test]
    fn derived_seeds_do_not_collide(master in any::<u64>()) {
        let mut seen = std::collections::HashSet::new();
        for stream in 0..256u64 {
            prop_assert!(seen.insert(derive_seed(master, stream)));
        }
    }

    /// The state-space tracker never reports more distinct states than states recorded,
    /// and recording is idempotent.
    #[test]
    fn tracker_bounds(states in proptest::collection::vec(0u32..50, 0..200)) {
        let mut t = StateSpaceTracker::new();
        t.record(&states);
        let first = t.distinct_states();
        prop_assert!(first <= states.len());
        prop_assert!(first <= 50);
        t.record(&states);
        prop_assert_eq!(t.distinct_states(), first);
    }

    /// The parallel trial runner returns exactly the same results as a sequential map.
    #[test]
    fn parallel_trials_match_sequential(trials in 0usize..40, threads in 1usize..8) {
        let par = ppsim::run_trials_with_threads(trials, threads, |i| derive_seed(1, i as u64));
        let seq: Vec<u64> = (0..trials).map(|i| derive_seed(1, i as u64)).collect();
        prop_assert_eq!(par, seq);
    }

    /// `restore(save)` is the identity on observable state for all four
    /// engines, at arbitrary points of arbitrary trajectories.
    #[test]
    fn snapshot_roundtrip_is_identity_on_every_engine(
        n in 3usize..400,
        seed in any::<u64>(),
        steps in 0u64..3_000,
    ) {
        let mut seq = Simulator::new(TokenDrift, n, seed).unwrap();
        seq.run(steps);
        assert_roundtrip_identity(&seq, Simulator::new(TokenDrift, n, seed).unwrap());

        let mut batched = BatchedSimulator::new(DenseRumor, n, seed).unwrap();
        batched.transfer(0, 1, 1).unwrap();
        batched.run(steps);
        assert_roundtrip_identity(&batched, BatchedSimulator::new(DenseRumor, n, seed).unwrap());

        let config = ShardedConfig { shards: 2, threads: 1, epoch_interactions: Some(512) };
        let mut sharded = ShardedBatchedSimulator::new(DenseRumor, n.max(4), seed, config).unwrap();
        sharded.run(steps);
        assert_roundtrip_identity(
            &sharded,
            ShardedBatchedSimulator::new(DenseRumor, n.max(4), seed, config).unwrap(),
        );

        let mut hybrid = HybridSimulator::new(DenseRumor, n, seed).unwrap();
        hybrid.run(steps);
        assert_roundtrip_identity(&hybrid, HybridSimulator::new(DenseRumor, n, seed).unwrap());
    }

    /// Saving the epidemic at a random budget and resuming from the
    /// serialized snapshot yields the bit-identical trajectory the
    /// uninterrupted run (over the same chunk schedule) produces.
    #[test]
    fn epidemic_saved_at_a_random_budget_resumes_bit_identically(
        n in 4usize..500,
        seed in any::<u64>(),
        kill_at in 0u64..4_000,
        rest in 1u64..4_000,
    ) {
        let verdict = kill_and_resume(
            || {
                let mut sim = BatchedSimulator::new(DenseRumor, n, seed)?;
                sim.transfer(0, 1, 1)?;
                Ok(sim)
            },
            |s, b| s.run(b),
            &[kill_at, rest],
            1,
        ).unwrap();
        prop_assert!(verdict.bit_identical());
    }

    /// Fault injection moves mass between states but never creates or
    /// destroys it, in every representation: dense counts (batched), shard
    /// splits (sharded), and decoded per-agent stints.
    #[test]
    fn corruption_conserves_mass_in_every_representation(
        n in 4usize..1_500,
        seed in any::<u64>(),
        steps in 0u64..2_000,
        k_raw in 0u64..2_000,
        shards in 1usize..5,
    ) {
        let k = k_raw % (n as u64 + 1);
        let mut rng = seeded_rng(derive_seed(seed, 0xFA));
        let mut scribble = |_: usize, r: &mut SmallRng| r.gen_range(0..2usize);

        let mut batched = BatchedSimulator::new(DenseRumor, n, seed).unwrap();
        batched.transfer(0, 1, 1).unwrap();
        batched.run(steps);
        batched.corrupt(k, &mut rng, &mut scribble).unwrap();
        prop_assert_eq!(batched.counts().iter().sum::<u64>(), n as u64);

        let config = ShardedConfig { shards, threads: 1, epoch_interactions: Some(256) };
        let mut sharded = ShardedBatchedSimulator::new(DenseRumor, n, seed, config).unwrap();
        sharded.transfer(0, 1, 1).unwrap();
        sharded.run(steps);
        sharded.corrupt(k, &mut rng, &mut scribble).unwrap();
        prop_assert_eq!(sharded.counts().iter().sum::<u64>(), n as u64);

        let counts = vec![n as u64 - 1, 1];
        let source = StintSource::Counts { counts: &counts, seed };
        let mut stint = DecodedStint::boxed(IndexCodec(DenseRumor), source).unwrap();
        stint.run(steps);
        stint.corrupt(k, &mut rng, &mut scribble).unwrap();
        prop_assert_eq!(stint.counts().iter().sum::<u64>(), n as u64);
    }

    /// Killing an adversarial run at an arbitrary point of its fault plan —
    /// before, between, or inside fault events — and resuming from the
    /// snapshot replays the identical fault sequence bit-for-bit.
    #[test]
    fn fault_plan_saved_mid_plan_resumes_bit_identically(
        n in 20usize..400,
        seed in any::<u64>(),
        kill_at in 0u64..6_000,
        rest in 1u64..6_000,
        kill_after in 0usize..3,
        engine_pick in 0usize..3,
    ) {
        let engine = [Engine::Sequential, Engine::Batched, Engine::Hybrid][engine_pick];
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 900,
                kind: FaultKind::Corrupt { agents: 7, target: CorruptionTarget::Uniform { states: 2 } },
            },
            FaultEvent {
                at: 2_500,
                kind: FaultKind::Silence { agents: 4, window: 600 },
            },
            FaultEvent {
                at: 4_800,
                kind: FaultKind::Corrupt { agents: 3, target: CorruptionTarget::State(0) },
            },
        ]).unwrap();
        let verdict = kill_and_resume(
            || AdversarialRun::new(
                engine,
                DenseRumor,
                n,
                seed,
                InitStrategy::SeededArbitrary { states: 2, seed: derive_seed(seed, 21) },
                plan.clone(),
            ),
            |r, b| r.run(b).unwrap(),
            &[kill_at, rest],
            kill_after,
        ).unwrap();
        prop_assert!(verdict.bit_identical(), "{}", verdict.describe());
    }
}

/// Twelve states stepped as dense indices: the initiator advances by one,
/// so agents spread over every state.
#[derive(Debug, Clone, Copy)]
struct Cycle;
impl DenseProtocol for Cycle {
    type Output = usize;
    fn num_states(&self) -> usize {
        12
    }
    fn initial_state(&self) -> usize {
        0
    }
    fn transition(&self, u: usize, v: usize) -> (usize, usize) {
        ((u + 1) % 12, v)
    }
    fn output(&self, s: usize) -> usize {
        s
    }
}

proptest! {
    /// A stint's bounded occupancy count is `min(distinct, limit)` for every
    /// limit from 0 past the population, against a sort-and-dedup
    /// reference, also after interactions moved the agents the last count
    /// stopped at.
    #[test]
    fn occupied_states_is_the_distinct_count_capped_at_the_limit(
        counts in proptest::collection::vec(0u64..6, 12..13),
        seed in any::<u64>(),
    ) {
        let n = counts.iter().sum::<u64>() as usize;
        prop_assume!(n >= 2);
        let mut stint = DecodedStint::from_counts(IndexCodec(Cycle), &counts, seed);
        for _ in 0..4 {
            let mut distinct = stint.states().to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            for limit in (0..=n + 1).rev().chain(0..=n + 1) {
                prop_assert_eq!(stint.occupied_states(limit), distinct.len().min(limit));
            }
            prop_assert_eq!(stint.occupied_states(usize::MAX), distinct.len());
            stint.run(n as u64 / 3 + 1);
        }
    }

    /// In per-agent mode, an occupancy count capped at the monitor's count
    /// limit decides exactly as the exact count does, in every population,
    /// and the limit is the smallest `c` with `c² ≥ 8·√n`.
    #[test]
    fn a_count_capped_at_the_limit_decides_as_the_exact_count(
        n in 2u64..10_000_000,
        seed in any::<u64>(),
        observations in 1usize..200,
    ) {
        let mut exact = OccupancyMonitor::new(n);
        let mut capped = OccupancyMonitor::new(n);
        let c = exact.count_limit();
        let down = 8.0 * (n as f64).sqrt();
        prop_assert!((c as f64) * (c as f64) >= down);
        prop_assert!(c == 0 || ((c - 1) as f64) * ((c - 1) as f64) < down);
        // Occupancies spanning both thresholds (up at q² > 64·√n), so runs
        // switch both ways.
        let span = 3 * (64.0 * (n as f64).sqrt()).sqrt() as u64 + 2;
        let mut x = seed | 1;
        for _ in 0..observations {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let occ = (x % span) as usize;
            let seen = if capped.is_dense() { occ } else { occ.min(c) };
            prop_assert_eq!(exact.observe(occ), capped.observe(seen));
            prop_assert_eq!(exact.is_dense(), capped.is_dense());
        }
    }
}

#[test]
fn the_count_limit_is_pinned_at_three_sizes() {
    for (n, c) in [(2_000, 19), (10_000, 29), (100_000, 51)] {
        assert_eq!(OccupancyMonitor::new(n).count_limit(), c, "n = {n}");
    }
}
