//! Distributional equivalence of the two simulation engines.
//!
//! The batched count-based engine ([`BatchedSimulator`]) claims to simulate
//! *exactly* the same stochastic process as the sequential per-agent engine
//! ([`Simulator`]) — batching is a sampling technique, not an approximation.
//! These tests pin that claim for the protocols the paper's experiments rely
//! on:
//!
//! * **epidemic** — convergence-time (all agents informed) distributions must
//!   agree: mean comparison across random `(n, seed)` pairs (properties) and a
//!   two-sample Kolmogorov–Smirnov bound on the full distribution (fixed test);
//! * **junta** — stabilisation time and the Lemma 4 observables (maximal
//!   level, junta size) must agree in distribution.
//!
//! Both engines run the *identical* transition system: the dense protocols
//! drive the sequential engine through [`IndexCodec`], so any discrepancy is
//! attributable to the schedule sampling, which is exactly what is under test.
//!
//! The sharded engine ([`ShardedBatchedSimulator`]) is additionally held to
//! the batched engine's distribution at 2, 4 and 8 shards — this is the
//! empirical validation the `ppsim::sharded` module docs lean on for the
//! epoch approximation — plus a determinism check (same seed and shard count
//! ⇒ identical trajectory, independent of the worker-thread count).

use proptest::prelude::*;

use ppproto::{dense_all_inactive, dense_junta_size, dense_max_level, DenseEpidemic, DenseJunta};
use ppsim::{
    derive_seed, BatchedSimulator, IndexCodec, ShardedBatchedSimulator, ShardedConfig, Simulator,
};

/// A sharded run configuration with `shards` shards on one worker thread
/// (thread count never affects trajectories; the determinism test pins that).
fn sharded_config(shards: usize) -> ShardedConfig {
    ShardedConfig {
        shards,
        threads: 1,
        epoch_interactions: None,
    }
}

/// Convergence time of a batched epidemic run: interactions until all `n`
/// agents are informed (checked every `n/8` interactions for resolution).
fn epidemic_time_batched(n: usize, seed: u64) -> u64 {
    let mut sim = BatchedSimulator::new(DenseEpidemic, n, seed).unwrap();
    sim.transfer(0, 1, 1).unwrap();
    sim.run_until(
        |s| s.count_of(1) == s.population(),
        (n as u64 / 8).max(1),
        u64::MAX >> 1,
    )
    .expect_converged("batched epidemic")
}

/// The same run on the sequential engine via the adapter.
fn epidemic_time_sequential(n: usize, seed: u64) -> u64 {
    let mut sim = Simulator::new(IndexCodec(DenseEpidemic), n, seed).unwrap();
    sim.states_mut()[0] = 1;
    sim.run_until(
        |s| s.states().iter().all(|&x| x == 1),
        (n as u64 / 8).max(1),
        u64::MAX >> 1,
    )
    .expect_converged("sequential epidemic")
}

/// Junta stabilisation on the batched engine:
/// `(all-inactive time, max level, junta size)`.
fn junta_run_batched(n: usize, seed: u64) -> (u64, u8, u64) {
    let d = DenseJunta::new();
    let mut sim = BatchedSimulator::new(d, n, seed).unwrap();
    let t = sim
        .run_until(
            |s| dense_all_inactive(s.protocol(), s.counts()),
            (n as u64 / 4).max(1),
            u64::MAX >> 1,
        )
        .expect_converged("batched junta");
    let level = dense_max_level(sim.protocol(), sim.counts());
    let junta = dense_junta_size(sim.protocol(), sim.counts());
    (t, level, junta)
}

/// The same junta run on the sequential engine via the adapter.
fn junta_run_sequential(n: usize, seed: u64) -> (u64, u8, u64) {
    let d = DenseJunta::new();
    let mut sim = Simulator::new(IndexCodec(d), n, seed).unwrap();
    let t = sim
        .run_until(
            |s| s.states().iter().all(|&idx| !d.decode(idx as usize).active),
            (n as u64 / 4).max(1),
            u64::MAX >> 1,
        )
        .expect_converged("sequential junta");
    let decoded: Vec<_> = sim.states().iter().map(|&i| d.decode(i as usize)).collect();
    let top = decoded.iter().map(|s| s.level).max().unwrap();
    let junta = decoded.iter().filter(|s| s.junta && s.level == top).count() as u64;
    (t, top, junta)
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mean epidemic convergence times agree across engines for random
    /// populations and seed streams (15 trials per engine per case; the
    /// tolerance is ~5 standard errors of the mean).
    #[test]
    fn epidemic_convergence_distributions_agree(n in 150usize..500, master in any::<u64>()) {
        let trials = 15u64;
        let batched: Vec<f64> =
            (0..trials).map(|t| epidemic_time_batched(n, derive_seed(master, t)) as f64).collect();
        let sequential: Vec<f64> = (0..trials)
            .map(|t| epidemic_time_sequential(n, derive_seed(master, 1000 + t)) as f64)
            .collect();
        let (mb, ms) = (mean(&batched), mean(&sequential));
        let ratio = mb / ms;
        prop_assert!(
            (0.7..1.43).contains(&ratio),
            "epidemic mean convergence diverges at n = {}: batched {:.0} vs sequential {:.0}",
            n, mb, ms
        );
    }

    /// Junta stabilisation statistics agree across engines: mean all-inactive
    /// time within tolerance, and the Lemma 4 observables overlap.
    #[test]
    fn junta_stabilisation_distributions_agree(n in 150usize..500, master in any::<u64>()) {
        let trials = 12u64;
        let b: Vec<(u64, u8, u64)> =
            (0..trials).map(|t| junta_run_batched(n, derive_seed(master, t))).collect();
        let s: Vec<(u64, u8, u64)> =
            (0..trials).map(|t| junta_run_sequential(n, derive_seed(master, 1000 + t))).collect();

        let mb = mean(&b.iter().map(|r| r.0 as f64).collect::<Vec<_>>());
        let ms = mean(&s.iter().map(|r| r.0 as f64).collect::<Vec<_>>());
        let ratio = mb / ms;
        prop_assert!(
            (0.6..1.67).contains(&ratio),
            "junta mean stabilisation diverges at n = {}: batched {:.0} vs sequential {:.0}",
            n, mb, ms
        );

        // Maximal levels live in the same narrow Lemma 4 band for both engines.
        let lvl_b = mean(&b.iter().map(|r| f64::from(r.1)).collect::<Vec<_>>());
        let lvl_s = mean(&s.iter().map(|r| f64::from(r.1)).collect::<Vec<_>>());
        prop_assert!(
            (lvl_b - lvl_s).abs() <= 1.5,
            "mean maximal junta levels diverge at n = {}: batched {:.2} vs sequential {:.2}",
            n, lvl_b, lvl_s
        );
    }
}

/// Full-distribution check: the empirical convergence-time distributions of
/// the two engines pass a two-sample KS test at a conservative threshold.
#[test]
fn epidemic_convergence_passes_kolmogorov_smirnov() {
    let n = 400usize;
    let samples = 120usize;
    let mut batched: Vec<u64> = (0..samples)
        .map(|t| epidemic_time_batched(n, derive_seed(0x4B53, t as u64)))
        .collect();
    let mut sequential: Vec<u64> = (0..samples)
        .map(|t| epidemic_time_sequential(n, derive_seed(0xFACE, t as u64)))
        .collect();
    let d = ks_statistic(&mut batched, &mut sequential);
    // Critical value at α ≈ 0.001 for two samples of 120: 1.95·sqrt(2/120) ≈ 0.252.
    assert!(
        d < 0.252,
        "KS statistic {d:.3} exceeds the α=0.001 critical value — the engines \
         sample different convergence-time distributions"
    );
}

/// Convergence time of a sharded epidemic run (same observable as the
/// batched/sequential helpers above).
fn epidemic_time_sharded(n: usize, seed: u64, shards: usize) -> u64 {
    let mut sim =
        ShardedBatchedSimulator::new(DenseEpidemic, n, seed, sharded_config(shards)).unwrap();
    sim.transfer(0, 1, 1).unwrap();
    sim.run_until(
        |s| s.count_of(1) == s.population(),
        (n as u64 / 8).max(1),
        u64::MAX >> 1,
    )
    .expect_converged("sharded epidemic")
}

/// Junta stabilisation on the sharded engine:
/// `(all-inactive time, max level, junta size)`.
fn junta_run_sharded(n: usize, seed: u64, shards: usize) -> (u64, u8, u64) {
    let d = DenseJunta::new();
    let mut sim = ShardedBatchedSimulator::new(d, n, seed, sharded_config(shards)).unwrap();
    let t = sim
        .run_until(
            |s| dense_all_inactive(s.protocol(), s.counts()),
            (n as u64 / 4).max(1),
            u64::MAX >> 1,
        )
        .expect_converged("sharded junta");
    let level = dense_max_level(sim.protocol(), sim.counts());
    let junta = dense_junta_size(sim.protocol(), sim.counts());
    (t, level, junta)
}

/// Sharded vs batched, epidemic at n = 10⁵: the convergence-time
/// distributions pass a two-sample KS test at 2, 4 and 8 shards.
///
/// This is the headline fidelity check for the sharded engine's epoch
/// approximation (see `ppsim::sharded`): the n is large enough for the
/// default epoch window (`n/4`) and per-shard sub-populations down to
/// `n/8 ≈ 10⁴` to be in their production regime.
#[test]
fn sharded_epidemic_passes_kolmogorov_smirnov() {
    let n = 100_000usize;
    let samples = 80usize;
    let mut batched: Vec<u64> = (0..samples)
        .map(|t| epidemic_time_batched(n, derive_seed(0x5EED, t as u64)))
        .collect();
    for shards in [2usize, 4, 8] {
        let mut sharded: Vec<u64> = (0..samples)
            .map(|t| {
                epidemic_time_sharded(n, derive_seed(0x5AAD + shards as u64, t as u64), shards)
            })
            .collect();
        let d = ks_statistic(&mut sharded, &mut batched);
        // Critical value at α ≈ 0.001 for two samples of 80: 1.95·sqrt(2/80) ≈ 0.308.
        assert!(
            d < 0.308,
            "KS statistic {d:.3} at {shards} shards exceeds the α=0.001 critical value — \
             the sharded engine distorts the epidemic convergence-time distribution"
        );
    }
}

/// Sharded vs batched, junta at n = 10⁵: stabilisation-time KS plus the
/// Lemma 4 observables (maximal level within one unit on average).
#[test]
fn sharded_junta_passes_kolmogorov_smirnov() {
    let n = 100_000usize;
    let samples = 60usize;
    let batched_runs: Vec<(u64, u8, u64)> = (0..samples)
        .map(|t| junta_run_batched(n, derive_seed(0x71A5, t as u64)))
        .collect();
    let mut batched: Vec<u64> = batched_runs.iter().map(|r| r.0).collect();
    let lvl_batched = batched_runs.iter().map(|r| f64::from(r.1)).sum::<f64>() / samples as f64;
    for shards in [2usize, 4, 8] {
        let sharded_runs: Vec<(u64, u8, u64)> = (0..samples)
            .map(|t| junta_run_sharded(n, derive_seed(0x71A6 + shards as u64, t as u64), shards))
            .collect();
        let mut sharded: Vec<u64> = sharded_runs.iter().map(|r| r.0).collect();
        let d = ks_statistic(&mut sharded, &mut batched);
        // Critical value at α ≈ 0.001 for two samples of 60: 1.95·sqrt(2/60) ≈ 0.356.
        assert!(
            d < 0.356,
            "KS statistic {d:.3} at {shards} shards exceeds the α=0.001 critical value — \
             the sharded engine distorts the junta stabilisation-time distribution"
        );
        let lvl_sharded = sharded_runs.iter().map(|r| f64::from(r.1)).sum::<f64>() / samples as f64;
        assert!(
            (lvl_sharded - lvl_batched).abs() <= 1.0,
            "mean maximal junta levels diverge at {shards} shards: \
             sharded {lvl_sharded:.2} vs batched {lvl_batched:.2}"
        );
    }
}

/// Same seed and shard count ⇒ identical trajectory, whatever the thread
/// count: worker threads advance disjoint shards under shard-private RNGs,
/// so scheduling cannot leak into results.
#[test]
fn sharded_runs_are_deterministic_across_thread_counts() {
    let n = 50_000usize;
    let d = DenseJunta::new();
    let mut reference: Option<(Vec<u64>, u64)> = None;
    for threads in [1usize, 2, 4, 8] {
        let cfg = ShardedConfig {
            shards: 4,
            threads,
            epoch_interactions: None,
        };
        let mut sim = ShardedBatchedSimulator::new(d, n, 0xD37, cfg).unwrap();
        let outcome = sim.run_until(
            |s| dense_all_inactive(s.protocol(), s.counts()),
            (n as u64 / 4).max(1),
            u64::MAX >> 1,
        );
        let t = outcome.expect_converged("deterministic junta");
        let counts = sim.into_counts();
        match &reference {
            None => reference = Some((counts, t)),
            Some((ref_counts, ref_t)) => {
                assert_eq!(&counts, ref_counts, "threads = {threads} diverged");
                assert_eq!(
                    t, *ref_t,
                    "threads = {threads} converged at a different time"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Mean epidemic convergence times also agree between the sharded and
    /// batched engines for random populations, seeds and shard counts.
    #[test]
    fn sharded_epidemic_means_agree(n in 2_000usize..8_000, shards in 2usize..9, master in any::<u64>()) {
        let trials = 12u64;
        let sharded: Vec<f64> = (0..trials)
            .map(|t| epidemic_time_sharded(n, derive_seed(master, t), shards) as f64)
            .collect();
        let batched: Vec<f64> = (0..trials)
            .map(|t| epidemic_time_batched(n, derive_seed(master, 1000 + t)) as f64)
            .collect();
        let (ms, mb) = (mean(&sharded), mean(&batched));
        let ratio = ms / mb;
        prop_assert!(
            (0.7..1.43).contains(&ratio),
            "epidemic mean convergence diverges at n = {} / {} shards: sharded {:.0} vs batched {:.0}",
            n, shards, ms, mb
        );
    }
}

/// The junta observables also pass a KS check on the stabilisation time.
#[test]
fn junta_stabilisation_passes_kolmogorov_smirnov() {
    let n = 300usize;
    let samples = 80usize;
    let mut batched: Vec<u64> = (0..samples)
        .map(|t| junta_run_batched(n, derive_seed(0xBEEF, t as u64)).0)
        .collect();
    let mut sequential: Vec<u64> = (0..samples)
        .map(|t| junta_run_sequential(n, derive_seed(0xCAFE, t as u64)).0)
        .collect();
    let d = ks_statistic(&mut batched, &mut sequential);
    // Critical value at α ≈ 0.001 for two samples of 80: 1.95·sqrt(2/80) ≈ 0.308.
    assert!(
        d < 0.308,
        "KS statistic {d:.3} exceeds the α=0.001 critical value — the engines \
         sample different stabilisation-time distributions"
    );
}
