//! E04/E05 — Lemmas 6 and 7: leader election of \[18\] vs FastLeaderElection.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppproto::{
    FastLeaderElection, FastLeaderElectionConfig, LeaderElection, LeaderElectionConfig,
    SyncComposition,
};
use ppsim::Simulator;

fn bench_leader_election(c: &mut Criterion) {
    let mut group = c.benchmark_group("leader_election");
    group.sample_size(10);
    for &n in &[256usize, 1024] {
        group.bench_with_input(BenchmarkId::new("slow_lemma6", n), &n, |b, &n| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let proto = SyncComposition::new(
                    16,
                    LeaderElection::new(LeaderElectionConfig { outer_hours: 32 }),
                );
                let mut sim = Simulator::new(proto, n, seed).unwrap();
                sim.run_until(
                    |s| s.states().iter().all(|a| a.inner.done),
                    (n * 10) as u64,
                    u64::MAX,
                )
                .expect_converged("leader election")
            });
        });
        group.bench_with_input(BenchmarkId::new("fast_lemma7", n), &n, |b, &n| {
            let mut seed = 100u64;
            b.iter(|| {
                seed += 1;
                let proto = SyncComposition::new(
                    16,
                    FastLeaderElection::new(FastLeaderElectionConfig {
                        level_offset: 2,
                        total_phases: 32,
                    }),
                );
                let mut sim = Simulator::new(proto, n, seed).unwrap();
                sim.run_until(
                    |s| s.states().iter().all(|a| a.inner.done),
                    (n * 10) as u64,
                    u64::MAX,
                )
                .expect_converged("fast leader election")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_leader_election);
criterion_main!(benches);
