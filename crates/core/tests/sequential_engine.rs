//! The sequential engine of `DenseSimulator` runs the same configuration
//! trajectory on every codec protocol, whatever per-agent representation it
//! steps.
//!
//! The reference is `Simulator<IndexCodec<P>>`: `u32` dense indices stepped
//! through `DenseProtocol::transition`.  `DenseSimulator` with
//! `Engine::Sequential` is built from the same protocol, population and
//! seed.  Both pick their agent pairs from the same scheduler stream and
//! apply the same deterministic transition, so at every checkpoint they
//! must hold the same multiset of decoded states.  The two sides run on
//! separate interners, so the multisets are compared as decoded states,
//! never as indices.

use std::collections::HashMap;

use popcount::{
    ApproximateParams, CountExactParams, DenseApproximate, DenseApproximateBackup, DenseCountExact,
};
use ppproto::{HermanTokens, SelfStabRanking, StochasticCoalescence, TradeoffElection};
use ppsim::stint::{AgentCodec, IndexCodec};
use ppsim::{DenseSimulator, Engine, Protocol, Simulator};

/// Population of every pinned run.
const N: usize = 300;
/// Checkpoints per run, and interactions between two of them.
const CHECKPOINTS: usize = 20;
const CHUNK: u64 = 5_000;

/// The configuration as decoded states with their multiplicities.
type Multiset<C> = HashMap<<<C as AgentCodec>::Native as Protocol>::State, u64>;

/// The decoded multiset of a configuration given as occupied `(index,
/// count)` pairs.
fn decoded<C: AgentCodec>(codec: &C, occupied: impl Iterator<Item = (usize, u64)>) -> Multiset<C> {
    let mut multiset = HashMap::new();
    for (index, count) in occupied {
        *multiset.entry(codec.decode_agent(index)).or_insert(0) += count;
    }
    multiset
}

/// Run `DenseSimulator` on the sequential engine against the `IndexCodec`
/// reference for seeds 1 and 2, comparing decoded multisets at every
/// checkpoint.  `make` builds a fresh protocol value, with an interner of
/// its own for interned protocols.
fn pin_sequential_trajectory<C: AgentCodec>(make: impl Fn() -> C) {
    for seed in 1..=2 {
        let reference_codec = make();
        let mut reference = Simulator::new(IndexCodec(reference_codec.clone()), N, seed).unwrap();
        let codec = make();
        let mut sim = DenseSimulator::new(Engine::Sequential, codec.clone(), N, seed).unwrap();
        assert_eq!(sim.engine_name(), "sequential");
        for checkpoint in 1..=CHECKPOINTS {
            reference.run(CHUNK);
            sim.run(CHUNK);
            assert_eq!(sim.interactions(), reference.interactions());
            let expected = decoded(
                &reference_codec,
                reference.states().iter().map(|&s| (s as usize, 1)),
            );
            let actual = sim.with_counts(|counts| {
                decoded(
                    &codec,
                    counts
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(i, &c)| (i, c)),
                )
            });
            assert!(
                expected == actual,
                "{}: seed {seed} diverged from the reference at checkpoint {checkpoint}",
                codec.name()
            );
        }
    }
}

#[test]
fn herman_sequential_trajectory_is_pinned() {
    pin_sequential_trajectory(HermanTokens::new);
}

#[test]
fn coalescence_sequential_trajectory_is_pinned() {
    pin_sequential_trajectory(|| StochasticCoalescence::new(N));
}

#[test]
fn ranking_sequential_trajectory_is_pinned() {
    pin_sequential_trajectory(|| SelfStabRanking::new(N));
}

#[test]
fn election_sequential_trajectory_is_pinned() {
    pin_sequential_trajectory(|| TradeoffElection::new(N, 4));
}

#[test]
fn approximate_backup_sequential_trajectory_is_pinned() {
    pin_sequential_trajectory(DenseApproximateBackup::new);
}

#[test]
fn approximate_sequential_trajectory_is_pinned() {
    pin_sequential_trajectory(|| {
        DenseApproximate::with_capacity(ApproximateParams::default(), 1 << 16)
    });
}

#[test]
fn count_exact_sequential_trajectory_is_pinned() {
    pin_sequential_trajectory(|| {
        DenseCountExact::with_capacity(CountExactParams::dense_at_scale(N), 1 << 16)
    });
}
