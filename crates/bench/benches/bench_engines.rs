//! Sequential vs batched vs sharded vs hybrid engine: epidemic convergence
//! wall-clock at growing population sizes and shard counts.
//!
//! The protocols are the *same transition system* (the dense epidemic run via
//! `IndexCodec` on the sequential engine), so differences are pure engine
//! overhead — for the hybrid engine, the cost of its occupancy monitor on a
//! workload that never migrates.  `bench_batched_json` (a `ppbench` binary)
//! emits the same comparisons as machine-readable `BENCH_batched.json` /
//! `BENCH_sharded.json` / `BENCH_hybrid.ci.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use popcount::{ApproximateParams, CountExactParams, DenseApproximate, DenseCountExact};
use ppproto::DenseEpidemic;
use ppsim::{
    BatchedSimulator, HybridSimulator, IndexCodec, ShardedBatchedSimulator, ShardedConfig,
    Simulator,
};

fn epidemic_batched(n: usize, seed: u64) -> u64 {
    let mut sim = BatchedSimulator::new(DenseEpidemic, n, seed).unwrap();
    sim.transfer(0, 1, 1).unwrap();
    sim.run_until(|s| s.count_of(1) == s.population(), n as u64, u64::MAX >> 1)
        .expect_converged("batched epidemic")
}

fn epidemic_sequential(n: usize, seed: u64) -> u64 {
    let mut sim = Simulator::new(IndexCodec(DenseEpidemic), n, seed).unwrap();
    sim.states_mut()[0] = 1;
    sim.run_until(
        |s| s.states().iter().all(|&x| x == 1),
        n as u64,
        u64::MAX >> 1,
    )
    .expect_converged("sequential epidemic")
}

fn epidemic_sharded(n: usize, seed: u64, shards: usize, threads: usize) -> u64 {
    let config = ShardedConfig {
        shards,
        threads,
        epoch_interactions: None,
    };
    let mut sim = ShardedBatchedSimulator::new(DenseEpidemic, n, seed, config).unwrap();
    sim.transfer(0, 1, 1).unwrap();
    sim.run_until(|s| s.count_of(1) == s.population(), n as u64, u64::MAX >> 1)
        .expect_converged("sharded epidemic")
}

fn epidemic_hybrid(n: usize, seed: u64) -> u64 {
    let mut sim = HybridSimulator::new(DenseEpidemic, n, seed).unwrap();
    sim.transfer(0, 1, 1).unwrap();
    let t = sim
        .run_until(|s| s.count_of(1) == s.population(), n as u64, u64::MAX >> 1)
        .expect_converged("hybrid epidemic");
    assert!(
        sim.switches().is_empty(),
        "a two-state epidemic stays dense"
    );
    t
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_epidemic_convergence");
    group.sample_size(5);
    for &n in &[1_000usize, 10_000, 100_000, 1_000_000] {
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, &n| {
            b.iter(|| epidemic_batched(n, 1));
        });
        // Hybrid vs batched on the same workload isolates the occupancy
        // monitor's overhead (the epidemic never leaves dense mode).
        group.bench_with_input(BenchmarkId::new("hybrid", n), &n, |b, &n| {
            b.iter(|| epidemic_hybrid(n, 1));
        });
        // The sequential engine is benchmarked up to 10⁵ only; at 10⁶ a single
        // converged run costs ~10⁸ scheduler draws and dominates the suite
        // (that point lives in BENCH_batched.json, measured once).
        if n <= 100_000 {
            group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, &n| {
                b.iter(|| epidemic_sequential(n, 1));
            });
        }
    }
    group.finish();
}

/// The sharded engine across shard counts at a fixed large population
/// (single worker thread, so the numbers isolate the algorithmic effect of
/// sharding — longer per-shard blocks, bulk cross-shard resolution — from
/// hardware parallelism).
fn bench_sharded(c: &mut Criterion) {
    let n = 1_000_000usize;
    let mut group = c.benchmark_group("engine_epidemic_sharded");
    group.sample_size(5);
    group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, &n| {
        b.iter(|| epidemic_batched(n, 1));
    });
    for &shards in &[2usize, 4, 8, 16] {
        group.bench_with_input(
            BenchmarkId::new(format!("sharded{shards}x1"), n),
            &n,
            |b, &n| {
                b.iter(|| epidemic_sharded(n, 1, shards, 1));
            },
        );
    }
    group.finish();
}

/// The interned dense counting protocols (Theorems 1/2) on the batched
/// engine: throughput over a fixed interaction budget (full convergence at
/// these sizes is minutes of wall-clock and lives in E19 / the
/// `bench_batched_json --workload` snapshots, not in the smoke suite).
fn bench_dense_counting(c: &mut Criterion) {
    let n = 100_000usize;
    let budget = 20_000_000u64;
    let mut group = c.benchmark_group("engine_dense_counting");
    group.sample_size(5);
    group.bench_with_input(BenchmarkId::new("approximate_batched", n), &n, |b, &n| {
        b.iter(|| {
            let proto = DenseApproximate::with_capacity(ApproximateParams::default(), 1 << 20);
            let mut sim = BatchedSimulator::new(proto, n, 1).unwrap();
            sim.run(budget);
            sim.interactions()
        });
    });
    group.bench_with_input(BenchmarkId::new("count_exact_batched", n), &n, |b, &n| {
        b.iter(|| {
            let proto = DenseCountExact::with_capacity(
                CountExactParams::dense_at_scale(n),
                CountExactParams::dense_capacity(n),
            );
            let mut sim = BatchedSimulator::new(proto, n, 1).unwrap();
            sim.run(budget);
            sim.interactions()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_engines, bench_sharded, bench_dense_counting);
criterion_main!(benches);
