//! Equivalence of the dense (interned) counting protocols and their
//! sequential implementations.
//!
//! [`DenseApproximate`] and [`DenseCountExact`] claim to be **exact
//! encodings** of [`Approximate`] and [`CountExact`]: every dense transition
//! decodes the interned agents, applies the identical composed interaction,
//! and re-encodes.  Three layers of evidence, mirroring the engine-equivalence
//! suite (`crates/protocols/tests/engine_equivalence.rs`):
//!
//! * **Lockstep bisimulation at `n = 10⁴`** (the strongest statement): under
//!   the same seed the sequential engine picks the same agent pairs whether
//!   the states are structs or interned indices, and the transitions are
//!   deterministic — so the trajectories must agree *state by state*, with
//!   the paper's default parameters.
//! * **KS + mean-ratio at `n = 10⁴`**: the dense protocol on the **batched**
//!   engine against the native sequential implementation, two-sample
//!   Kolmogorov–Smirnov on the convergence-time distribution plus a
//!   mean-ratio band.  These runs use reduced clock constants — the constants
//!   scale phase *lengths*, not the composition being pinned, and the
//!   sequential side must stay affordable at `n = 10⁴` in debug builds.
//! * **Proptest round-trips**: along random interaction sequences, every
//!   dense index round-trips through decode/encode and every reachable
//!   encoded state decodes back to itself.

use proptest::prelude::*;

use popcount::{
    count_exact_dense_staged, Approximate, ApproximateParams, CountExact, CountExactParams,
    DenseApproximate, DenseCountExact,
};
use ppsim::{
    derive_seed, BatchedSimulator, Engine, HybridSimulator, IndexCodec, OccupancyMonitor,
    Simulator, SwitchDirection,
};

/// Reduced-constant parameters for the distributional runs: shorter phases
/// (8-hour clocks) keep a sequential `n = 10⁴` run affordable in debug
/// builds.  The constants scale phase lengths, not the composition being
/// pinned — both sides of every comparison run the identical instance.
fn quick_approximate_params() -> ApproximateParams {
    ApproximateParams {
        clock_hours: 8,
        outer_clock_hours: 8,
    }
}

fn quick_count_exact_params() -> CountExactParams {
    CountExactParams {
        clock_hours: 8,
        election_phases: 12,
        ..CountExactParams::default()
    }
}

/// Two-sample Kolmogorov–Smirnov statistic.
fn ks_statistic(a: &mut [u64], b: &mut [u64]) -> f64 {
    a.sort_unstable();
    b.sort_unstable();
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let mut d: f64 = 0.0;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            i += 1;
        } else {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    d
}

fn mean(xs: &[u64]) -> f64 {
    xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64
}

#[test]
fn dense_approximate_is_a_bisimulation_of_the_sequential_protocol() {
    // Default (paper-practical) parameters at n = 10⁴, 2·10⁶ interactions in
    // lockstep: the decoded dense trajectory must equal the struct trajectory
    // agent by agent.
    let n = 10_000usize;
    let params = ApproximateParams::default();
    let dense = DenseApproximate::with_capacity(params, 1 << 20);
    let mut plain = Simulator::new(Approximate::new(params), n, 0xA11CE).unwrap();
    let mut interned = Simulator::new(IndexCodec(dense.clone()), n, 0xA11CE).unwrap();
    for step in 0..8 {
        plain.run(250_000);
        interned.run(250_000);
        for (agent, &idx) in plain.states().iter().zip(interned.states()) {
            assert_eq!(
                *agent,
                dense.decode(idx as usize),
                "trajectories diverged at checkpoint {step}"
            );
        }
    }
    assert!(dense.states_discovered() > 100);
}

#[test]
fn dense_count_exact_is_a_bisimulation_of_the_sequential_protocol() {
    let n = 10_000usize;
    let params = CountExactParams::default();
    let dense = DenseCountExact::with_capacity(params, CountExactParams::dense_capacity(n));
    let mut plain = Simulator::new(CountExact::new(params), n, 0xC0DE).unwrap();
    let mut interned = Simulator::new(IndexCodec(dense.clone()), n, 0xC0DE).unwrap();
    for step in 0..8 {
        plain.run(250_000);
        interned.run(250_000);
        for (agent, &idx) in plain.states().iter().zip(interned.states()) {
            assert_eq!(
                *agent,
                dense.decode(idx as usize),
                "trajectories diverged at checkpoint {step}"
            );
        }
    }
    assert!(dense.states_discovered() > 100);
}

/// Interactions until every agent has concluded the leader election
/// (`leaderDone` everywhere) — the end of Stage 1, rich enough to expose any
/// schedule distortion yet far cheaper than the full broadcast (the lockstep
/// bisimulation tests cover stages 2–3 transition by transition).
fn approximate_time_batched(n: usize, seed: u64) -> u64 {
    let dense = DenseApproximate::with_capacity(quick_approximate_params(), 1 << 20);
    let mut sim = BatchedSimulator::new(dense, n, seed).unwrap();
    sim.run_until(
        |s| {
            let proto = s.protocol();
            s.counts()
                .iter()
                .enumerate()
                .all(|(st, &c)| c == 0 || proto.decode(st).inner.election.done)
        },
        (n as u64) * 4,
        u64::MAX >> 1,
    )
    .expect_converged("batched dense approximate (leaderDone)")
}

/// The same observable on the native sequential implementation.
fn approximate_time_sequential(n: usize, seed: u64) -> u64 {
    let mut sim = Simulator::new(Approximate::new(quick_approximate_params()), n, seed).unwrap();
    sim.run_until(
        |s| s.states().iter().all(|a| a.inner.election.done),
        (n as u64) * 4,
        u64::MAX >> 1,
    )
    .expect_converged("sequential approximate (leaderDone)")
}

/// Interactions until every agent has concluded the approximation stage
/// (`ApxDone` everywhere) — a convergence observable that is reached for any
/// parameter choice, unlike exact-count unanimity which needs full-length
/// phases.
fn count_exact_apx_time_batched(n: usize, seed: u64) -> u64 {
    let dense = DenseCountExact::with_capacity(
        quick_count_exact_params(),
        CountExactParams::dense_capacity(n),
    );
    let mut sim = BatchedSimulator::new(dense, n, seed).unwrap();
    sim.run_until(
        |s| {
            let proto = s.protocol();
            s.counts()
                .iter()
                .enumerate()
                .all(|(st, &c)| c == 0 || proto.decode(st).inner.stage.apx_done)
        },
        (n as u64) * 4,
        u64::MAX >> 1,
    )
    .expect_converged("batched dense count-exact (ApxDone)")
}

fn count_exact_apx_time_sequential(n: usize, seed: u64) -> u64 {
    let mut sim = Simulator::new(CountExact::new(quick_count_exact_params()), n, seed).unwrap();
    sim.run_until(
        |s| s.states().iter().all(|a| a.inner.stage.apx_done),
        (n as u64) * 4,
        u64::MAX >> 1,
    )
    .expect_converged("sequential count-exact (ApxDone)")
}

#[test]
fn dense_approximate_passes_kolmogorov_smirnov_at_ten_thousand() {
    let n = 10_000usize;
    let samples = 10usize;
    let mut batched: Vec<u64> = (0..samples)
        .map(|t| approximate_time_batched(n, derive_seed(0xDA19, t as u64)))
        .collect();
    let mut sequential: Vec<u64> = (0..samples)
        .map(|t| approximate_time_sequential(n, derive_seed(0xDA20, t as u64)))
        .collect();
    let ratio = mean(&batched) / mean(&sequential);
    assert!(
        (0.7..1.43).contains(&ratio),
        "mean convergence diverges: batched {:.0} vs sequential {:.0}",
        mean(&batched),
        mean(&sequential)
    );
    let d = ks_statistic(&mut batched, &mut sequential);
    // Critical value at α ≈ 0.001 for two samples of 10: 1.95·sqrt(2/10) ≈ 0.87.
    // (The sample count is bounded by the sequential side's debug-build cost;
    // the lockstep bisimulation test above is the sharp instrument.)
    assert!(
        d < 0.87,
        "KS statistic {d:.3} exceeds the α=0.001 critical value — the dense \
         encoding distorts the Approximate convergence-time distribution"
    );
}

#[test]
fn dense_count_exact_passes_kolmogorov_smirnov_at_ten_thousand() {
    let n = 10_000usize;
    let samples = 10usize;
    let mut batched: Vec<u64> = (0..samples)
        .map(|t| count_exact_apx_time_batched(n, derive_seed(0xCE19, t as u64)))
        .collect();
    let mut sequential: Vec<u64> = (0..samples)
        .map(|t| count_exact_apx_time_sequential(n, derive_seed(0xCE20, t as u64)))
        .collect();
    let ratio = mean(&batched) / mean(&sequential);
    assert!(
        (0.7..1.43).contains(&ratio),
        "mean ApxDone time diverges: batched {:.0} vs sequential {:.0}",
        mean(&batched),
        mean(&sequential)
    );
    let d = ks_statistic(&mut batched, &mut sequential);
    assert!(
        d < 0.87,
        "KS statistic {d:.3} exceeds the α=0.001 critical value — the dense \
         encoding distorts the CountExact ApxDone-time distribution"
    );
}

#[test]
fn hybrid_round_trip_preserves_the_count_exact_configuration_at_ten_thousand() {
    // Dense ↔ per-agent ↔ dense on the real protocol at n = 10⁴: both
    // migrations must be lossless in the configuration (the multiset of
    // states — the process is Markov in it), outputs included, and the run
    // must keep executing cleanly afterwards.
    let n = 10_000usize;
    let proto = DenseCountExact::with_capacity(
        quick_count_exact_params(),
        CountExactParams::dense_capacity(n),
    );
    let mut sim = HybridSimulator::new(proto, n, 0xB15).unwrap();
    sim.run(200_000);
    let counts = sim.counts();
    let distinct = sim.output_stats().distinct_outputs();
    let interactions = sim.interactions();

    sim.switch_to_agent().unwrap();
    assert!(!sim.is_dense());
    assert_eq!(sim.counts(), counts, "dense → per-agent must be lossless");
    assert_eq!(sim.output_stats().distinct_outputs(), distinct);
    assert_eq!(
        sim.interactions(),
        interactions,
        "no interaction double-counted"
    );

    sim.switch_to_dense().unwrap();
    assert!(sim.is_dense());
    assert_eq!(sim.counts(), counts, "per-agent → dense must be lossless");
    assert_eq!(sim.output_stats().distinct_outputs(), distinct);
    assert_eq!(sim.interactions(), interactions);

    sim.run(50_000);
    assert_eq!(sim.interactions(), interactions + 50_000);
    let legs = sim.legs();
    assert_eq!(
        legs.dense_interactions + legs.agent_interactions,
        sim.interactions(),
        "phase counters partition the total across manual migrations"
    );
}

#[test]
fn hybrid_phase_counters_match_a_lockstep_budget() {
    // The accounting regression the one-shot hand-off motivated: drive the
    // hybrid engine through arbitrary chunk boundaries (the same chunks a
    // lockstep sequential run would execute) and check that the summed phase
    // counters agree with the driven budget exactly — no partial block at a
    // switch is counted twice or dropped.
    let n = 4_000usize;
    let proto = DenseCountExact::with_capacity(
        quick_count_exact_params(),
        CountExactParams::dense_capacity(n),
    );
    let mut sim = HybridSimulator::new(proto, n, 0xACC7).unwrap();
    let mut reference =
        Simulator::new(CountExact::new(quick_count_exact_params()), n, 0xACC7).unwrap();
    let mut driven = 0u64;
    for chunk in [3u64, 1_000, 77_777, 12, 250_000, 1] {
        sim.run(chunk);
        reference.run(chunk);
        driven += chunk;
        assert_eq!(sim.interactions(), driven);
        assert_eq!(
            sim.interactions(),
            reference.interactions(),
            "hybrid and lockstep sequential runs must count the same schedule"
        );
        let legs = sim.legs();
        assert_eq!(
            legs.dense_interactions + legs.agent_interactions,
            driven,
            "phase counters must sum to the driven budget at every boundary"
        );
    }
}

#[test]
fn hybrid_does_not_thrash_on_a_full_count_exact_run() {
    // The integration side of the hysteresis property (the pure monitor is
    // property-tested in ppsim): a complete CountExact execution crosses the
    // occupancy threshold once on the way into the refinement and possibly
    // once back out — never repeatedly.
    let n = 4_000usize;
    let outcome = count_exact_dense_staged(
        CountExactParams::dense_at_scale(n),
        n,
        19,
        Engine::Batched,
        u64::MAX >> 1,
    )
    .unwrap();
    assert!(outcome.converged);
    assert_eq!(outcome.output, Some(n as u64));
    assert!(
        (1..=8).contains(&outcome.switch_interactions.len()),
        "expected a handful of monitor-spaced migrations around the \
         refinement, not a thrash storm; got {:?}",
        outcome.switch_interactions
    );
    // Consecutive migrations must be separated by real work (the monitor
    // observes every n/4 interactions at the earliest) — never back-to-back.
    for pair in outcome.switch_interactions.windows(2) {
        assert!(
            pair[1] - pair[0] >= (n as u64) / 4,
            "migrations {} and {} are closer than one monitor interval",
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn monitor_hysteresis_band_is_quiet_under_oscillating_occupancy() {
    // Occupancy oscillating anywhere inside the (down·√n, up·√n] pressure
    // band — however violently — never migrates.
    let n = 10_000u64; // √n = 100: band is q_occ² ∈ (800, 6400], q_occ ∈ (29, 80]
    let mut monitor = OccupancyMonitor::new(n);
    for i in 0..10_000usize {
        let occ = if i % 2 == 0 { 30 } else { 80 };
        assert_eq!(monitor.observe(occ), None);
    }
    assert!(monitor.is_dense());
    // And a sustained crossing still migrates afterwards.
    assert_eq!(monitor.observe(500), None);
    assert_eq!(monitor.observe(500), Some(SwitchDirection::ToAgent));
}

#[test]
fn hybrid_and_sequential_count_exact_pass_kolmogorov_smirnov() {
    // KS equivalence of full-convergence interaction counts: the hybrid
    // engine (auto-switching, formerly the bespoke staged hand-off) against
    // the native sequential implementation — the gold standard both switch
    // policies must sample.  Full convergence needs full-length phases (the
    // refinement's load balancing stalls under the reduced 8-hour clocks the
    // ApxDone observables tolerate), so this test runs the default
    // parameters at the small n the sequential unit tests already converge.
    let n = 300usize;
    let samples = 6usize;
    let budget = 400_000_000u64;
    let mut hybrid: Vec<u64> = (0..samples)
        .map(|t| {
            let outcome = count_exact_dense_staged(
                CountExactParams::default(),
                n,
                derive_seed(0x4B21, t as u64),
                Engine::Batched, // explicit: stay on the hybrid path below the crossover
                budget,
            )
            .unwrap();
            assert!(outcome.converged, "hybrid trial {t} must converge");
            assert_eq!(outcome.output, Some(n as u64));
            outcome.interactions
        })
        .collect();
    let mut sequential: Vec<u64> = (0..samples)
        .map(|t| {
            let mut sim = Simulator::new(
                CountExact::new(CountExactParams::default()),
                n,
                derive_seed(0x4B22, t as u64),
            )
            .unwrap();
            let outcome = sim.run_until(
                |s| s.output_stats().unanimous().is_some_and(|o| o.is_some()),
                (n as u64) * 20,
                budget,
            );
            assert!(outcome.converged(), "sequential trial {t} must converge");
            sim.interactions()
        })
        .collect();
    let ratio = mean(&hybrid) / mean(&sequential);
    assert!(
        (0.7..1.43).contains(&ratio),
        "mean convergence diverges: hybrid {:.0} vs sequential {:.0}",
        mean(&hybrid),
        mean(&sequential)
    );
    let d = ks_statistic(&mut hybrid, &mut sequential);
    // Critical value at α ≈ 0.001 for two samples of 6: 1.95·sqrt(2/6) ≈ 1.13
    // — vacuous, so use the α ≈ 0.05 value 1.36·sqrt(2/6) ≈ 0.79 instead
    // (sample count bounded by the sequential side's debug-build cost).
    assert!(
        d < 0.79,
        "KS statistic {d:.3} exceeds the α=0.05 critical value — the hybrid \
         engine distorts the CountExact convergence-time distribution"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Along random schedules, every state index the dense Approximate
    /// discovers round-trips through decode/encode, and the decoded agents
    /// re-encode to the index the engine holds.
    #[test]
    fn dense_approximate_indices_roundtrip(seed in any::<u64>(), steps in 1u64..60_000) {
        let dense = DenseApproximate::with_capacity(ApproximateParams::default(), 1 << 20);
        let mut sim = Simulator::new(IndexCodec(dense.clone()), 512, seed).unwrap();
        sim.run(steps);
        for &idx in sim.states() {
            let agent = dense.decode(idx as usize);
            prop_assert_eq!(dense.encode(agent), idx as usize);
            prop_assert_eq!(dense.decode(dense.encode(agent)), agent);
        }
        // Every index below the discovery watermark round-trips, reachable or
        // retired.
        for idx in 0..dense.states_discovered() {
            prop_assert_eq!(dense.encode(dense.decode(idx)), idx);
        }
    }

    /// The same round-trip law for the dense CountExact.
    #[test]
    fn dense_count_exact_indices_roundtrip(seed in any::<u64>(), steps in 1u64..60_000) {
        let dense = DenseCountExact::with_capacity(CountExactParams::default(), 1 << 22);
        let mut sim = Simulator::new(IndexCodec(dense.clone()), 512, seed).unwrap();
        sim.run(steps);
        for &idx in sim.states() {
            let agent = dense.decode(idx as usize);
            prop_assert_eq!(dense.encode(agent), idx as usize);
            prop_assert_eq!(dense.decode(dense.encode(agent)), agent);
        }
        for idx in 0..dense.states_discovered() {
            prop_assert_eq!(dense.encode(dense.decode(idx)), idx);
        }
    }

    /// Codec bisimulation for the dense Approximate: over reachable indices,
    /// `encode(decode(i)) == i` through the `AgentCodec` surface, and
    /// decode → native `Protocol::interact` → encode agrees with the interned
    /// δ path — the law that makes the hybrid engine's decoded per-agent
    /// stint an exact substitute for interned stepping.
    #[test]
    fn dense_approximate_codec_bisimulates_the_interned_delta(
        seed in any::<u64>(),
        steps in 1_000u64..40_000,
        pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 32..33),
    ) {
        use ppsim::AgentCodec;
        let dense = DenseApproximate::with_capacity(ApproximateParams::default(), 1 << 20);
        let mut sim = Simulator::new(IndexCodec(dense.clone()), 512, seed).unwrap();
        sim.run(steps);
        let discovered = dense.states_discovered();
        for idx in 0..discovered {
            prop_assert_eq!(dense.encode_agent(&dense.decode_agent(idx)), idx);
            prop_assert_eq!(dense.try_decode_agent(idx), Some(dense.decode_agent(idx)));
        }
        let native = dense.native();
        let mut rng = ppsim::seeded_rng(seed);
        for (a, b) in pairs {
            let (i, j) = ((a % discovered as u64) as usize, (b % discovered as u64) as usize);
            let mut u = dense.decode_agent(i);
            let mut v = dense.decode_agent(j);
            ppsim::Protocol::interact(&native, &mut u, &mut v, &mut rng);
            let codec_path = (dense.encode_agent(&u), dense.encode_agent(&v));
            prop_assert_eq!(codec_path, ppsim::DenseProtocol::transition(&dense, i, j));
        }
    }

    /// The same codec bisimulation law for the dense CountExact.
    #[test]
    fn dense_count_exact_codec_bisimulates_the_interned_delta(
        seed in any::<u64>(),
        steps in 1_000u64..40_000,
        pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 32..33),
    ) {
        use ppsim::AgentCodec;
        let dense = DenseCountExact::with_capacity(CountExactParams::default(), 1 << 22);
        let mut sim = Simulator::new(IndexCodec(dense.clone()), 512, seed).unwrap();
        sim.run(steps);
        let discovered = dense.states_discovered();
        for idx in 0..discovered {
            prop_assert_eq!(dense.encode_agent(&dense.decode_agent(idx)), idx);
        }
        let native = dense.native();
        let mut rng = ppsim::seeded_rng(seed);
        for (a, b) in pairs {
            let (i, j) = ((a % discovered as u64) as usize, (b % discovered as u64) as usize);
            let mut u = dense.decode_agent(i);
            let mut v = dense.decode_agent(j);
            ppsim::Protocol::interact(&native, &mut u, &mut v, &mut rng);
            let codec_path = (dense.encode_agent(&u), dense.encode_agent(&v));
            prop_assert_eq!(codec_path, ppsim::DenseProtocol::transition(&dense, i, j));
        }
    }

    /// Decoded vs interned stints on the real protocol: starting from the
    /// same mid-run configuration and stint seed, the native-struct stint and
    /// the interned-index stint must advance the *identical* trajectory (the
    /// pair schedule is a pure function of the seed, and the codec
    /// bisimulates δ), so their tallied configurations agree interaction for
    /// interaction.
    #[test]
    fn decoded_and_index_codec_stints_advance_the_same_trajectory(
        seed in any::<u64>(),
        warmup in 10_000u64..100_000,
    ) {
        let n = 2_000usize;
        let proto = DenseCountExact::with_capacity(
            quick_count_exact_params(),
            CountExactParams::dense_capacity(n),
        );
        let mut warm = HybridSimulator::new(proto.clone(), n, seed).unwrap();
        warm.run(warmup);
        let counts = warm.counts();
        let source = ppsim::StintSource::Counts {
            counts: &counts,
            seed: seed ^ 0xDEC0,
        };
        let mut decoded = ppsim::DenseProtocol::agent_stint(&proto, source)
            .expect("DenseCountExact carries a codec")
            .unwrap();
        prop_assert_eq!(decoded.kind(), "decoded");
        let mut interned = ppsim::DecodedStint::boxed(IndexCodec(proto.clone()), source).unwrap();
        prop_assert_eq!(interned.kind(), "interned");
        for _ in 0..4 {
            decoded.run(2_500);
            interned.run(2_500);
            prop_assert_eq!(decoded.counts(), interned.counts());
            prop_assert_eq!(
                decoded.occupied_states(usize::MAX),
                interned.occupied_states(usize::MAX)
            );
        }
    }
}
