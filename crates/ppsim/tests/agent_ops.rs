//! The sequential dense engine and the hybrid engine's per-agent stint act
//! on the same configuration Markov chain with the same per-agent
//! operations: expanding counts into agents in state-index order, counting
//! agents in a state, moving agents between states and corrupting a uniform
//! subset of agents.  Driven alike, they must hold equal agent vectors.

use ppsim::stint::{AgentStint, DecodedStint, IndexCodec};
use ppsim::{seeded_rng, DenseProtocol, DenseSimulator, Engine};
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

fn sequential_states(sim: &DenseSimulator<Octet>) -> Vec<u32> {
    match sim {
        DenseSimulator::Sequential(s) => s.states().to_vec(),
        _ => unreachable!("the test builds the sequential engine"),
    }
}

#[test]
fn sequential_engine_and_stint_hold_equal_agent_vectors() {
    let counts = vec![40, 0, 25, 10, 0, 0, 24, 1];
    let mut seq = DenseSimulator::new(Engine::Sequential, Octet, 100, 3).unwrap();
    seq.set_counts(counts.clone()).unwrap();
    let mut stint = DecodedStint::from_counts(IndexCodec(Octet), &counts, 5);
    assert_eq!(sequential_states(&seq), stint.states());

    // The replacement draws from the caller's RNG too, so both engines must
    // also consume that stream identically.
    let mut new_state =
        |current: usize, rng: &mut SmallRng| (current + rng.gen_range(1usize..8)) % 8;
    seq.corrupt(30, &mut seeded_rng(17), &mut new_state)
        .unwrap();
    stint
        .corrupt(30, &mut seeded_rng(17), &mut new_state)
        .unwrap();
    assert_eq!(sequential_states(&seq), stint.states());

    seq.transfer(2, 5, 7).unwrap();
    stint.transfer(2, 5, 7).unwrap();
    assert_eq!(sequential_states(&seq), stint.states());

    let counts = seq.counts();
    assert_eq!(counts, stint.counts());
    assert_eq!(counts.iter().sum::<u64>(), 100);
    for (state, &count) in counts.iter().enumerate() {
        assert_eq!(seq.count_of(state), count, "state {state}");
        assert_eq!(stint.count_of(state), count, "state {state}");
    }
    let occupied = counts.iter().filter(|&&c| c > 0).count();
    assert_eq!(stint.occupied_states(), occupied);

    for (from, to) in [(0, 8), (8, 0)] {
        assert!(seq.transfer(from, to, 1).is_err(), "{from} -> {to}");
        assert!(stint.transfer(from, to, 1).is_err(), "{from} -> {to}");
    }
    assert_eq!(sequential_states(&seq), stint.states());
}
