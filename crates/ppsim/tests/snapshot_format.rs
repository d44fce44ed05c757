//! Golden-file tests pinning the `ppsim::snapshot` binary format (v6).
//!
//! These bytes are a compatibility contract: checkpoints written by one
//! build must restore in the next.  If a change here is intentional, bump
//! [`SNAPSHOT_VERSION`] with it (`EngineSnapshot::from_bytes` refuses every
//! version but its own) — never silently repin the golden bytes.

use popcount::{CountExactParams, DenseCountExact};
use ppsim::snapshot::{crc32, ENGINE_BATCHED, ENGINE_SEQUENTIAL, SNAPSHOT_MAGIC};
use ppsim::{
    seeded_rng, BatchedSimulator, Checkpointable, DenseProtocol, DenseSimulator, Engine,
    EngineSnapshot, HybridSimulator, HybridSubstrate, Protocol, ShardedBatchedSimulator,
    ShardedConfig, SimError, Simulator, SNAPSHOT_VERSION,
};
use rand::rngs::SmallRng;

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

/// A five-state max-epidemic: states only grow, so low states can empty and
/// a corruption can re-occupy them.
#[derive(Debug, Clone, Copy)]
struct Max5;
impl DenseProtocol for Max5 {
    type Output = usize;
    fn num_states(&self) -> usize {
        5
    }
    fn initial_state(&self) -> usize {
        0
    }
    fn transition(&self, u: usize, v: usize) -> (usize, usize) {
        (u.max(v), v)
    }
    fn output(&self, s: usize) -> usize {
        s
    }
}

#[derive(Debug, Clone, Copy)]
struct Flip;
impl Protocol for Flip {
    type State = u8;
    type Output = u8;
    fn initial_state(&self) -> u8 {
        0
    }
    fn interact(&self, u: &mut u8, _v: &mut u8, _rng: &mut SmallRng) {
        *u ^= 1;
    }
    fn output(&self, s: &u8) -> u8 {
        *s
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The full serialized frame of a tiny batched run, byte for byte, except
/// for the version field, which must read `SNAPSHOT_VERSION`: everything
/// else must survive a version bump unchanged.  The trajectory is
/// deterministic (fixed protocol, n, seed, budget), so any deviation is a
/// format change, not noise.
#[test]
fn golden_batched_snapshot_bytes_are_pinned() {
    let mut sim = BatchedSimulator::new(Rumor, 4, 1).unwrap();
    sim.transfer(0, 1, 1).unwrap();
    sim.run(7);
    let bytes = sim.save_state().to_bytes();
    assert_eq!(bytes[4..8], SNAPSHOT_VERSION.to_le_bytes());
    assert_eq!(
        format!("{}{}", hex(&bytes[..4]), hex(&bytes[8..])),
        "50505353\
         02540000000000000004000000000000000200000000000000\
         c3dd56fdc1235e8d08856fa2f7082263d0f294247e8601088c51c766153e44b3\
         070000000000000000000000000000000100000000000000010000000400000000000000401433f7"
    );
}

/// The batched frame after `transfer`, `run`, `set_counts` (occupied list
/// rebuilt in index order), `corrupt` into a state it left empty (appended
/// in discovery order) and `run`, pinned as above, list order included.
#[test]
fn golden_batched_mutated_snapshot_bytes_are_pinned() {
    let mut sim = BatchedSimulator::new(Max5, 20, 3).unwrap();
    sim.transfer(0, 2, 3).unwrap();
    sim.run(20);
    sim.set_counts(vec![8, 0, 6, 6, 0]).unwrap();
    sim.corrupt(3, &mut seeded_rng(5), &mut |_, _| 1).unwrap();
    sim.run(12);
    let bytes = sim.save_state().to_bytes();
    assert_eq!(bytes[4..8], SNAPSHOT_VERSION.to_le_bytes());
    assert_eq!(
        format!("{}{}", hex(&bytes[..4]), hex(&bytes[8..])),
        "50505353\
         02780000000000000014000000000000000500000000000000de1b744ca27afa22b91b4f050dfb59614a9df7\
         3151ff627f0940a50f898853df20000000000000000000000000000000040000000000000000000000030000\
         0000000000020000000300000000000000030000000b00000000000000010000000300000000000000e4c4ce\
         42"
    );
}

/// The sharded frame after the same five steps on two shards with a short
/// epoch window (master state, both shard cores, aggregate list).
#[test]
fn golden_sharded_snapshot_bytes_are_pinned() {
    let config = ShardedConfig {
        shards: 2,
        threads: 1,
        epoch_interactions: Some(8),
    };
    let mut sim = ShardedBatchedSimulator::new(Max5, 20, 3, config).unwrap();
    sim.transfer(0, 2, 3).unwrap();
    sim.run(20);
    sim.set_counts(vec![8, 0, 6, 6, 0]).unwrap();
    sim.corrupt(3, &mut seeded_rng(5), &mut |_, _| 1).unwrap();
    sim.run(12);
    let bytes = sim.save_state().to_bytes();
    assert_eq!(bytes[4..8], SNAPSHOT_VERSION.to_le_bytes());
    assert_eq!(
        format!("{}{}", hex(&bytes[..4]), hex(&bytes[8..])),
        "50505353\
         035c0100000000000014000000000000000500000000000000020000000000000008000000000000009248e3\
         2d0c82c12b1e5924bc79866490e96a2713ce1e228ae4977b2929a7d6e2200000000000000000000000000000\
         000a000000000000000500000000000000d280310d4e383423825e1636dbf4e9011a254c29efb95200ab5365\
         2454083b66090000000000000003000000000000000200000004000000000000000300000004000000000000\
         000100000002000000000000000a000000000000000500000000000000402703284bfa8c5038055b00b28b55\
         37037aba512d82e8c0cb12487f39471e7f060000000000000004000000000000000000000004000000000000\
         0002000000020000000000000003000000020000000000000001000000020000000000000004000000000000\
         0000000000040000000000000002000000060000000000000003000000060000000000000001000000040000\
         0000000000ca9a0a0f"
    );
}

/// The sequential engine's frame, pinned the same way.
#[test]
fn golden_sequential_snapshot_bytes_are_pinned() {
    let mut sim = Simulator::new(Flip, 3, 2).unwrap();
    sim.run(5);
    let bytes = sim.save_state().to_bytes();
    assert_eq!(bytes[4..8], SNAPSHOT_VERSION.to_le_bytes());
    assert_eq!(
        format!("{}{}", hex(&bytes[..4]), hex(&bytes[8..])),
        "50505353\
         0133000000000000008f436e9f7f8923b7242c7e619ea14086\
         8a485b8924b6737ea2782fa36be47f9905000000000000000300000000000000010000703754fb"
    );
}

/// The sequential variant of `DenseSimulator` (protocol state plus the
/// per-agent stint: interaction count, RNG, agents), pinned the same way.
#[test]
fn golden_dense_sequential_snapshot_bytes_are_pinned() {
    let mut sim = DenseSimulator::new(Engine::Sequential, Rumor, 4, 1).unwrap();
    sim.transfer(0, 1, 1).unwrap();
    sim.run(7);
    let bytes = sim.save_state().to_bytes();
    assert_eq!(bytes[4..8], SNAPSHOT_VERSION.to_le_bytes());
    assert_eq!(
        format!("{}{}", hex(&bytes[..4]), hex(&bytes[8..])),
        "50505353\
         055000000000000000000000000000000040000000000000000700000000000000\
         515afa1e8c3cda2ceac288561db0ed7e63ef39218ed02a8159df41396a99c22f\
         0400000000000000010000000000000000000000000000007d587c72"
    );
}

/// The hybrid engine's frame in per-agent mode, pinned byte for byte: the
/// population, seed and substrate, the two leg totals, the next
/// observation and the monitor's streak, the one-entry switch log, the
/// stint kind, and the stint itself (interaction count, RNG, agent states).
/// The switch rule is fixed, so no threshold, window or cadence is stored;
/// the total interaction count and the monitor's mode are derived, so
/// neither is stored either.
#[test]
fn golden_hybrid_snapshot_bytes_are_pinned() {
    let mut sim = HybridSimulator::new(Rumor, 4, 1).unwrap();
    sim.transfer(0, 1, 1).unwrap();
    sim.run(3);
    sim.switch_to_agent().unwrap();
    sim.run(4);
    let bytes = sim.save_state().to_bytes();
    assert_eq!(
        hex(&bytes),
        "5050535306000000049900000000000000040000000000000001000000000000\
         0000030000000000000000000000000000000001000000000000000000000100\
         0000000000000300000000000000000200000000000000000200000000000000\
         000140000000000000000400000000000000c228400a6ddd3554954e431f5279\
         8a899f2e82c8b7eabcc1dc37877729e713960400000000000000010000000100\
         0000010000000100000055348860"
    );
}

/// The frame layout: magic, little-endian version, engine tag, u64 payload
/// length, payload, trailing CRC32 of the payload.
#[test]
fn frame_layout_is_the_documented_one() {
    let snapshot = EngineSnapshot::new(ENGINE_BATCHED, vec![0xAB, 0xCD, 0xEF]);
    let bytes = snapshot.to_bytes();
    assert_eq!(&bytes[0..4], &SNAPSHOT_MAGIC);
    assert_eq!(
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        SNAPSHOT_VERSION
    );
    assert_eq!(bytes[8], ENGINE_BATCHED);
    assert_eq!(u64::from_le_bytes(bytes[9..17].try_into().unwrap()), 3);
    assert_eq!(&bytes[17..20], &[0xAB, 0xCD, 0xEF]);
    let crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    assert_eq!(crc, crc32(&bytes[17..20]));
    assert_eq!(bytes.len(), 24);
}

/// Every single-byte corruption of a frame is rejected, except the engine
/// tag — which the CRC deliberately does not cover (it is validated by
/// `expect_engine` against what the *caller* expects, a stronger check
/// than self-consistency).
#[test]
fn any_flipped_byte_is_detected() {
    let bytes = EngineSnapshot::new(ENGINE_SEQUENTIAL, vec![1, 2, 3, 4]).to_bytes();
    assert!(EngineSnapshot::from_bytes(&bytes).is_ok());
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x40;
        if i == 8 {
            // The engine-tag byte: decodes, but no longer passes the
            // caller-side engine check.
            let decoded = EngineSnapshot::from_bytes(&corrupt).unwrap();
            assert!(decoded
                .expect_engine(ENGINE_SEQUENTIAL, "sequential")
                .is_err());
        } else {
            assert!(
                EngineSnapshot::from_bytes(&corrupt).is_err(),
                "flipping byte {i} must not decode"
            );
        }
    }
}

/// Truncations at every length are rejected, never panicking.
#[test]
fn truncations_are_rejected() {
    let bytes = EngineSnapshot::new(ENGINE_BATCHED, vec![9; 16]).to_bytes();
    for len in 0..bytes.len() {
        assert!(EngineSnapshot::from_bytes(&bytes[..len]).is_err());
    }
}

/// A well-formed frame carrying `version` in its header, with the payload
/// CRC recomputed so that only the version can be wrong.
fn frame_with_version(version: u32) -> Vec<u8> {
    let mut bytes = EngineSnapshot::new(ENGINE_BATCHED, vec![7; 8]).to_bytes();
    bytes[4..8].copy_from_slice(&version.to_le_bytes());
    let crc_at = bytes.len() - 4;
    let crc = crc32(&bytes[17..crc_at]).to_le_bytes();
    bytes[crc_at..].copy_from_slice(&crc);
    bytes
}

/// A frame from a future format version is refused up front (with a
/// version-mismatch error, not a CRC or decode failure downstream).
#[test]
fn future_versions_are_refused() {
    match EngineSnapshot::from_bytes(&frame_with_version(SNAPSHOT_VERSION + 1)) {
        Err(SimError::SnapshotVersion { found, .. }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
        }
        other => panic!("expected a version mismatch, got {other:?}"),
    }
}

/// Frames from earlier format versions are refused the same way: a reader
/// accepts only its own version, so no v1 checkpoint (whose hybrid payload
/// held the interner twice), v2 one (whose hybrid and staged payloads
/// carried a stint-mode flag), v3 one (whose hybrid payload carried the
/// switch thresholds, window and cadence), v4 one (whose sequential payload
/// wrapped a `Simulator` frame, RNG ahead of the interaction count) or v5
/// one (whose hybrid payload carried its total interaction count and the
/// monitor's mode flag, and whose staged payload an engine-kind byte)
/// reaches a v6 decoder.
#[test]
fn past_versions_are_refused() {
    for version in [1, 2, 3, 4, 5] {
        match EngineSnapshot::from_bytes(&frame_with_version(version)) {
            Err(SimError::SnapshotVersion { found, supported }) => {
                assert_eq!(found, version);
                assert_eq!(supported, SNAPSHOT_VERSION);
            }
            other => panic!("expected a version mismatch for v{version}, got {other:?}"),
        }
    }
}

/// A dense-mode hybrid snapshot of an interned protocol stores the
/// protocol's state (its interner) once on either substrate: the inner
/// batched or sharded core goes in without protocol bytes, so the whole
/// payload stays below two copies of the interner.
#[test]
fn dense_hybrid_snapshots_carry_the_interner_once() {
    let n = 1_000;
    for substrate in [
        HybridSubstrate::Batched,
        HybridSubstrate::Sharded {
            shards: 2,
            threads: 1,
        },
    ] {
        let proto = DenseCountExact::with_capacity(
            CountExactParams::dense_at_scale(n),
            CountExactParams::dense_capacity(n),
        );
        let mut sim = HybridSimulator::with_substrate(proto.clone(), n, 3, substrate).unwrap();
        // Twenty probes of n interactions: past the early per-agent
        // transient of the leader election and back on the dense substrate.
        for _ in 0..20 {
            sim.run(n as u64);
        }
        assert!(sim.is_dense(), "{substrate:?}: the run must be dense again");
        let interner = proto.save_protocol_state().len();
        let payload = sim.save_state().payload().len();
        assert!(
            interner < payload && payload < 2 * interner,
            "{substrate:?}: payload {payload} B against {interner} B of protocol state"
        );
    }
}
