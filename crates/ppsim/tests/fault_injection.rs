//! Fault-injection integration suite: SIGKILL-style interruption of every
//! engine at every chunk boundary of a coprime schedule, resume from the
//! serialized snapshot, and verify the trajectory is bit-identical to the
//! uninterrupted run (see `ppsim::faultsim` for why snapshot-byte equality
//! is the right equivalence).
//!
//! The chunk sizes are primes (499, 1009, 4999, 7919), so boundaries never
//! align with an engine's internal grid: kills land *inside* sharded epoch
//! windows, hybrid occupancy-monitor cadences and — with the state-minting
//! workload — between hybrid representation migrations.

use ppsim::faultsim::{coprime_chunks, kill_and_resume, sweep_kill_points};
use ppsim::{
    BatchedSimulator, DenseProtocol, DenseSimulator, Engine, HybridSimulator, HybridSubstrate,
    Protocol, ShardedBatchedSimulator, ShardedConfig, Simulator, SwitchDirection,
};
use rand::rngs::SmallRng;

/// One-way epidemic on two dense states (occupancy ≤ 2, stays dense).
#[derive(Debug, Clone, Copy)]
struct Rumor;
impl DenseProtocol for Rumor {
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

/// A state-minting protocol scattering the population over `Θ(n)` states —
/// drives the hybrid engine across its dense → per-agent migration.
#[derive(Debug, Clone, Copy)]
struct Scatter {
    q: usize,
}
impl DenseProtocol for Scatter {
    type Output = usize;
    fn num_states(&self) -> usize {
        self.q
    }
    fn initial_state(&self) -> usize {
        0
    }
    fn transition(&self, u: usize, v: usize) -> (usize, usize) {
        (((u + v + 1) * 2) % self.q, v)
    }
    fn output(&self, s: usize) -> usize {
        s
    }
}

/// Token-conserving sequential protocol with RNG-dependent transitions, so
/// a resume that mishandled the RNG state would diverge immediately.
#[derive(Debug, Clone, Copy)]
struct TokenDrift;
impl Protocol for TokenDrift {
    type State = u64;
    type Output = u64;
    fn initial_state(&self) -> u64 {
        1
    }
    fn interact(&self, u: &mut u64, v: &mut u64, rng: &mut SmallRng) {
        use rand::Rng;
        if *v > 0 && rng.gen_bool(0.75) {
            *v -= 1;
            *u += 1;
        }
    }
    fn output(&self, s: &u64) -> u64 {
        *s
    }
}

#[test]
fn sequential_engine_survives_kills_at_every_chunk_boundary() {
    let chunks = coprime_chunks(6_000, 499);
    let diverged = sweep_kill_points(
        || Simulator::new(TokenDrift, 300, 0xFA117),
        |s, b| s.run(b),
        &chunks,
    )
    .unwrap();
    assert_eq!(diverged, None, "sequential resume must be bit-identical");
}

#[test]
fn batched_engine_survives_kills_at_every_chunk_boundary() {
    let chunks = coprime_chunks(12_000, 1_009);
    let diverged = sweep_kill_points(
        || {
            let mut sim = BatchedSimulator::new(Rumor, 5_000, 0xBA7C4)?;
            sim.transfer(0, 1, 1)?;
            Ok(sim)
        },
        |s, b| s.run(b),
        &chunks,
    )
    .unwrap();
    assert_eq!(diverged, None, "batched resume must be bit-identical");
}

#[test]
fn sharded_engine_kills_land_inside_epoch_windows() {
    // Prime chunks against a 2048-interaction epoch grid: every kill point
    // lands mid-window, so the restored epoch bookkeeping is exercised.
    let config = ShardedConfig {
        shards: 4,
        threads: 2,
        epoch_interactions: Some(2_048),
    };
    let chunks = coprime_chunks(12_000, 1_009);
    assert!(
        chunks[..chunks.len() - 1].iter().all(|c| c % 2_048 != 0),
        "chunk schedule must straddle the epoch grid"
    );
    let diverged = sweep_kill_points(
        || {
            let mut sim = ShardedBatchedSimulator::new(Rumor, 6_000, 0x54A2D, config)?;
            sim.transfer(0, 1, 1)?;
            Ok(sim)
        },
        |s, b| s.run(b),
        &chunks,
    )
    .unwrap();
    assert_eq!(diverged, None, "sharded resume must be bit-identical");
}

#[test]
fn hybrid_engine_kills_land_around_representation_migrations() {
    let n = 4_000usize;
    let total = 20 * n as u64;
    let chunks = coprime_chunks(total, 7_919);
    let make = || HybridSimulator::new(Scatter { q: 1 << 14 }, n, 0x4B12D);

    // The schedule must actually cross a migration, otherwise this test
    // would silently degrade into the batched case.
    let mut probe = make().unwrap();
    for &c in &chunks {
        probe.run(c);
    }
    assert!(
        probe
            .switches()
            .iter()
            .any(|e| e.direction == SwitchDirection::ToAgent),
        "the Θ(n)-occupancy workload must migrate dense → per-agent \
         (switches: {:?})",
        probe.switches()
    );
    drop(probe);

    let diverged = sweep_kill_points(make, |s, b| s.run(b), &chunks).unwrap();
    assert_eq!(
        diverged, None,
        "hybrid resume must replay migrations bit-identically"
    );
}

#[test]
fn hybrid_on_sharded_substrate_survives_kills() {
    // The gnarliest path: epoch windows *and* representation migrations
    // under the same kill schedule.
    let substrate = HybridSubstrate::Sharded {
        shards: 2,
        threads: 1,
    };
    let n = 3_000usize;
    let chunks = coprime_chunks(15 * n as u64, 4_999);
    let diverged = sweep_kill_points(
        || HybridSimulator::with_substrate(Scatter { q: 1 << 13 }, n, 0x5EED5, substrate),
        |s, b| s.run(b),
        &chunks,
    )
    .unwrap();
    assert_eq!(diverged, None);
}

#[test]
fn dense_facade_survives_kills_for_every_resolved_engine() {
    for engine in [
        Engine::Sequential,
        Engine::Batched,
        Engine::Sharded {
            shards: 2,
            threads: 1,
        },
        Engine::Hybrid,
        Engine::Auto,
    ] {
        let chunks = coprime_chunks(8_000, 1_009);
        let diverged = sweep_kill_points(
            || {
                let mut sim = DenseSimulator::new(engine, Rumor, 2_000, 0xD15C)?;
                sim.transfer(0, 1, 1)?;
                Ok(sim)
            },
            |s, b| s.run(b),
            &chunks,
        )
        .unwrap();
        assert_eq!(
            diverged, None,
            "DenseSimulator({engine:?}) resume must be bit-identical"
        );
    }
}

#[test]
fn killed_before_the_first_and_after_the_last_interaction() {
    // The degenerate kill points: a snapshot of the initial configuration
    // and a snapshot of the finished run both restore exactly.
    let chunks = coprime_chunks(5_000, 997);
    for kill_after in [0, chunks.len()] {
        let verdict = kill_and_resume(
            || {
                let mut sim = BatchedSimulator::new(Rumor, 2_000, 13)?;
                sim.transfer(0, 1, 1)?;
                Ok(sim)
            },
            |s, b| s.run(b),
            &chunks,
            kill_after,
        )
        .unwrap();
        assert!(verdict.bit_identical());
    }
}
