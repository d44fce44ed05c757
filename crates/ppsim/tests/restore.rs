//! Restores of an interned protocol's snapshots: a dense-mode hybrid
//! snapshot replays alike whatever simulator it is restored into, and a
//! snapshot naming states its interner never assigned — on the dense
//! substrate, or in a per-agent stint of dense indices on the hybrid or
//! sequential engine — is refused with a typed error instead of being
//! accepted and panicking at the next run.

use popcount::{CountExactParams, DenseCountExact};
use ppsim::snapshot::{ENGINE_DENSE_SEQUENTIAL, ENGINE_HYBRID};
use ppsim::{
    derive_seed, Checkpointable, DenseProtocol, DenseSimulator, Engine, EngineSnapshot,
    HybridSimulator, HybridSubstrate, PersistState, ProtocolInvariants, SimError, SnapshotReader,
};

/// `CountExact` tuned for population `n`, on an interner of its own.
fn count_exact(n: usize, capacity: usize) -> DenseCountExact {
    DenseCountExact::with_capacity(CountExactParams::dense_at_scale(n), capacity)
}

/// `DenseCountExact` without its codec: every `DenseProtocol` method but
/// `agent_stint` forwards, so its per-agent stints step `u32` dense indices
/// through the interner instead of native structs.
#[derive(Debug, Clone)]
struct CodecLess(DenseCountExact);
impl DenseProtocol for CodecLess {
    type Output = Option<u64>;
    fn num_states(&self) -> usize {
        self.0.num_states()
    }
    fn initial_state(&self) -> usize {
        self.0.initial_state()
    }
    fn transition(&self, u: usize, v: usize) -> (usize, usize) {
        self.0.transition(u, v)
    }
    fn output(&self, s: usize) -> Option<u64> {
        self.0.output(s)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn invariants(&self) -> ProtocolInvariants {
        self.0.invariants()
    }
    fn legitimate(&self, counts: &[u64]) -> Option<bool> {
        self.0.legitimate(counts)
    }
    fn dynamic(&self) -> bool {
        self.0.dynamic()
    }
    fn discovered_states(&self) -> Option<usize> {
        self.0.discovered_states()
    }
    fn save_protocol_state(&self) -> Vec<u8> {
        self.0.save_protocol_state()
    }
    fn restore_protocol_state(&self, bytes: &[u8]) -> Result<(), SimError> {
        self.0.restore_protocol_state(bytes)
    }
}

/// One dense-mode snapshot restored into a dense simulator holding a run of
/// its own, into one in per-agent mode and into a freshly built one: after
/// the same further `run`, all three save the same bytes as the run the
/// snapshot was taken from.  The first restores into the live substrate in
/// place, the other two into a substrate built for it.
#[test]
fn a_dense_snapshot_restores_alike_into_live_per_agent_and_fresh_simulators() {
    let n = 1_000;
    for substrate in [
        HybridSubstrate::Batched,
        HybridSubstrate::Sharded {
            shards: 2,
            threads: 1,
        },
    ] {
        // Each simulator owns its protocol value, so each has an interner
        // of its own to be rewound by the restore.
        let build = |seed| {
            HybridSimulator::with_substrate(count_exact(n, 1 << 16), n, seed, substrate).unwrap()
        };
        let mut source = build(3);
        for _ in 0..20 {
            source.run(n as u64);
        }
        assert!(
            source.is_dense(),
            "{substrate:?}: the snapshot must be dense"
        );
        let snapshot = source.save_state();
        source.run(20 * n as u64);
        let reference = source.save_state().to_bytes();

        // A run of its own long enough that its interner assigned indices
        // to other states than the snapshot's did: any δ-memo entry or
        // occupied-list entry the restore kept would replay wrongly.
        let mut live = build(7);
        for _ in 0..20 {
            live.run(n as u64);
        }
        assert!(live.is_dense(), "{substrate:?}");
        let mut agent = build(5);
        agent.run(300);
        agent.switch_to_agent().unwrap();
        let fresh = build(6);
        for (name, mut sim) in [("live", live), ("per-agent", agent), ("fresh", fresh)] {
            sim.restore_state(&snapshot).unwrap();
            assert!(sim.is_dense(), "{substrate:?}, {name}");
            sim.run(20 * n as u64);
            assert!(
                sim.save_state().to_bytes() == reference,
                "{substrate:?}: the restore into the {name} simulator diverged"
            );
        }
    }
}

/// The bytes of `payload` with the `Vec<u8>` field starting at byte
/// `start` replaced by `field`.
fn replace_field(payload: &[u8], start: usize, field: &[u8]) -> Vec<u8> {
    let mut r = SnapshotReader::new(&payload[start..]);
    let old = r.read::<Vec<u8>>().unwrap();
    let end = start + 8 + old.len();
    let mut out = payload[..start].to_vec();
    field.to_vec().persist(&mut out);
    out.extend_from_slice(&payload[end..]);
    out
}

/// Where the protocol-state field of a batched-substrate hybrid payload
/// starts (the layout on `HybridSimulator`'s `Checkpointable` impl).
fn hybrid_protocol_field(payload: &[u8]) -> usize {
    let mut r = SnapshotReader::new(payload);
    let _population = r.read::<u64>().unwrap();
    let _seed = r.read::<u64>().unwrap();
    assert_eq!(r.read::<u8>().unwrap(), 0, "the batched substrate");
    for _counter in 0..3 {
        r.read::<u64>().unwrap();
    }
    let _streak = r.read::<u32>().unwrap();
    for _ in 0..r.read::<usize>().unwrap() {
        let _switch = r.read::<((u64, u8), (usize, Option<usize>))>().unwrap();
    }
    let _stint_kind = r.read::<u8>().unwrap();
    payload.len() - r.remaining()
}

/// The repro: the benchmark's `countexact` run at its first seed, in dense
/// mode after 2 000 000 interactions with 2 731 interned states, saved and
/// re-framed (with a valid checksum) around the protocol state of a freshly
/// built `DenseCountExact`, which holds one state.  The occupied list then
/// names indices that interner never assigned.  A restore that accepted it
/// would leave the next `run` to panic with "dense index … has no interned
/// state".
#[test]
fn a_hybrid_snapshot_naming_unassigned_states_is_refused() {
    let n = 2_000;
    // The benchmark reserves `dense_capacity(n)`, 2²² states.  The capacity
    // does not shape the trajectory, and a smaller one keeps the test cheap
    // under `strict-invariants`, which sums the counts after every block.
    let capacity = 1 << 14;
    let proto = count_exact(n, capacity);
    let mut sim = HybridSimulator::new(proto.clone(), n, derive_seed(7, 0)).unwrap();
    // Driven as the benchmark drives it: probes of 20n interactions.
    for _ in 0..50 {
        sim.run(20 * n as u64);
    }
    assert_eq!(sim.interactions(), 2_000_000);
    assert!(sim.is_dense());
    assert_eq!(proto.states_discovered(), 2_731);

    let empty = count_exact(n, capacity).save_protocol_state();
    let payload = sim.save_state().payload().to_vec();
    let forged = replace_field(&payload, hybrid_protocol_field(&payload), &empty);
    let bytes = EngineSnapshot::new(ENGINE_HYBRID, forged).to_bytes();
    let snapshot = EngineSnapshot::from_bytes(&bytes).expect("the frame's checksum is valid");

    let mut target = HybridSimulator::new(count_exact(n, capacity), n, derive_seed(7, 0)).unwrap();
    let refused = target.restore_state(&snapshot);
    assert!(
        matches!(refused, Err(SimError::SnapshotCorrupt { .. })),
        "{refused:?}"
    );
}

/// The same forgery on a per-agent hybrid snapshot of a protocol without a
/// codec, whose stint agents are `u32` dense indices: the re-framed payload
/// names indices a fresh interner never assigned.  A restore that accepted
/// it would leave the next `run` to panic with "dense index … has no
/// interned state".
#[test]
fn a_per_agent_hybrid_snapshot_naming_unassigned_states_is_refused() {
    let n = 500;
    let capacity = 1 << 16;
    let proto = CodecLess(count_exact(n, capacity));
    let mut sim = HybridSimulator::new(proto.clone(), n, 3).unwrap();
    sim.run(2_000);
    sim.switch_to_agent().unwrap();
    sim.run(200);
    assert_eq!(sim.legs().stint_kind, Some("interned"));
    assert!(proto.0.states_discovered() > 1);

    let snapshot = sim.save_state();
    let empty = count_exact(n, capacity).save_protocol_state();
    let payload = snapshot.payload().to_vec();
    let forged = replace_field(&payload, hybrid_protocol_field(&payload), &empty);
    let forged = EngineSnapshot::new(ENGINE_HYBRID, forged);

    let build = || HybridSimulator::new(CodecLess(count_exact(n, capacity)), n, 3).unwrap();
    let refused = build().restore_state(&forged);
    assert!(
        matches!(refused, Err(SimError::SnapshotCorrupt { .. })),
        "{refused:?}"
    );
    // The genuine snapshot still restores.
    build().restore_state(&snapshot).unwrap();
}

/// The same forgery on the sequential engine, whose agents are `u32` dense
/// indices for a protocol without a codec.
#[test]
fn a_sequential_snapshot_naming_unassigned_states_is_refused() {
    let n = 200;
    let proto = CodecLess(count_exact(n, 1 << 16));
    let mut sim = DenseSimulator::new(Engine::Sequential, proto.clone(), n, 11).unwrap();
    sim.run(20 * n as u64);
    assert!(proto.0.states_discovered() > 1);

    let empty = count_exact(n, 1 << 16).save_protocol_state();
    let payload = sim.save_state().payload().to_vec();
    let forged = replace_field(&payload, 0, &empty);
    let snapshot = EngineSnapshot::new(ENGINE_DENSE_SEQUENTIAL, forged);

    let mut target = DenseSimulator::new(
        Engine::Sequential,
        CodecLess(count_exact(n, 1 << 16)),
        n,
        11,
    )
    .unwrap();
    let refused = target.restore_state(&snapshot);
    assert!(
        matches!(refused, Err(SimError::SnapshotCorrupt { .. })),
        "{refused:?}"
    );
}
