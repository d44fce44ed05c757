//! The sequential dense engine is the hybrid engine's per-agent stint: for
//! a protocol without a codec it is a `DecodedStint` over `IndexCodec`,
//! built from the same configuration and seed.  Driven alike — replacing
//! the configuration, corrupting a uniform subset of agents, moving agents
//! between states, running — the two must save the same stint bytes
//! (interaction count, schedule RNG, agents in order).

use ppsim::stint::{AgentStint, DecodedStint, IndexCodec};
use ppsim::{seeded_rng, Checkpointable, DenseProtocol, DenseSimulator, Engine, SnapshotReader};
use rand::rngs::SmallRng;
use rand::Rng;

/// An eight-state walk: the initiator steps by the responder's state plus
/// one, so every state is reachable from every other.
#[derive(Debug, Clone, Copy)]
struct Octet;
impl DenseProtocol for Octet {
    type Output = bool;
    fn num_states(&self) -> usize {
        8
    }
    fn initial_state(&self) -> usize {
        0
    }
    fn transition(&self, u: usize, v: usize) -> (usize, usize) {
        ((u + v + 1) % 8, v)
    }
    fn output(&self, s: usize) -> bool {
        s % 2 == 1
    }
}

/// The stint bytes of a sequential-engine snapshot: the payload's second
/// field, after the (empty) protocol state.
fn sequential_stint_bytes(sim: &DenseSimulator<Octet>) -> Vec<u8> {
    let snapshot = sim.save_state();
    let mut r = SnapshotReader::new(snapshot.payload());
    assert!(
        r.read::<Vec<u8>>().unwrap().is_empty(),
        "Octet has no state"
    );
    let stint = r.read::<Vec<u8>>().unwrap();
    r.finish().unwrap();
    stint
}

fn stint_bytes(stint: &DecodedStint<IndexCodec<Octet>>) -> Vec<u8> {
    let mut bytes = Vec::new();
    stint.save_stint(&mut bytes);
    bytes
}

#[test]
fn sequential_engine_and_stint_save_equal_bytes() {
    let seed = 3;
    let counts = vec![40, 0, 25, 10, 0, 0, 24, 1];
    let mut seq = DenseSimulator::new(Engine::Sequential, Octet, 100, seed).unwrap();
    seq.set_counts(counts.clone()).unwrap();
    let mut stint = DecodedStint::from_counts(IndexCodec(Octet), &counts, seed);
    assert_eq!(sequential_stint_bytes(&seq), stint_bytes(&stint));

    // The replacement draws from the caller's RNG too, so both engines must
    // also consume that stream identically.
    let mut new_state =
        |current: usize, rng: &mut SmallRng| (current + rng.gen_range(1usize..8)) % 8;
    seq.corrupt(30, &mut seeded_rng(17), &mut new_state)
        .unwrap();
    stint
        .corrupt(30, &mut seeded_rng(17), &mut new_state)
        .unwrap();
    assert_eq!(sequential_stint_bytes(&seq), stint_bytes(&stint));

    seq.transfer(2, 5, 7).unwrap();
    stint.transfer(2, 5, 7).unwrap();
    assert_eq!(sequential_stint_bytes(&seq), stint_bytes(&stint));

    seq.run(1_000);
    stint.run(1_000);
    assert_eq!(sequential_stint_bytes(&seq), stint_bytes(&stint));

    let counts = seq.counts();
    assert_eq!(counts, stint.counts());
    assert_eq!(counts.iter().sum::<u64>(), 100);
    for (state, &count) in counts.iter().enumerate() {
        assert_eq!(seq.count_of(state), count, "state {state}");
        assert_eq!(stint.count_of(state), count, "state {state}");
    }
    let occupied = counts.iter().filter(|&&c| c > 0).count();
    assert_eq!(stint.occupied_states(usize::MAX), occupied);

    for (from, to) in [(0, 8), (8, 0)] {
        assert!(seq.transfer(from, to, 1).is_err(), "{from} -> {to}");
        assert!(stint.transfer(from, to, 1).is_err(), "{from} -> {to}");
    }
    // A replacement keeps the schedule RNG and the interaction count.
    seq.set_counts(vec![100, 0, 0, 0, 0, 0, 0, 0]).unwrap();
    stint.set_counts(&[100, 0, 0, 0, 0, 0, 0, 0]).unwrap();
    assert_eq!(seq.interactions(), 1_000);
    assert_eq!(sequential_stint_bytes(&seq), stint_bytes(&stint));
}
