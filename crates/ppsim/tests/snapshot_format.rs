//! Golden-file tests pinning the `ppsim::snapshot` binary format (v3).
//!
//! These bytes are a compatibility contract: checkpoints written by one
//! build must restore in the next.  If a change here is intentional, bump
//! [`SNAPSHOT_VERSION`] with it (`EngineSnapshot::from_bytes` refuses every
//! version but its own) — never silently repin the golden bytes.

use popcount::{CountExactParams, DenseCountExact};
use ppsim::snapshot::{crc32, ENGINE_BATCHED, ENGINE_SEQUENTIAL, SNAPSHOT_MAGIC};
use ppsim::{
    BatchedSimulator, Checkpointable, DenseProtocol, DenseSimulator, Engine, EngineSnapshot,
    HybridConfig, HybridSimulator, HybridSubstrate, Protocol, SimError, Simulator,
    SNAPSHOT_VERSION,
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

/// The full serialized frame of a tiny batched run, byte for byte.  The
/// trajectory is deterministic (fixed protocol, n, seed, budget), so any
/// deviation is a format change, not noise.
#[test]
fn golden_batched_snapshot_bytes_are_pinned() {
    let mut sim = BatchedSimulator::new(Rumor, 4, 1).unwrap();
    sim.transfer(0, 1, 1).unwrap();
    sim.run(7);
    let bytes = sim.save_state().to_bytes();
    assert_eq!(
        hex(&bytes),
        "505053530300000002540000000000000004000000000000000200000000000000\
         c3dd56fdc1235e8d08856fa2f7082263d0f294247e8601088c51c766153e44b3\
         070000000000000000000000000000000100000000000000010000000400000000000000401433f7"
    );
}

/// The sequential engine's frame, pinned the same way.
#[test]
fn golden_sequential_snapshot_bytes_are_pinned() {
    let mut sim = Simulator::new(Flip, 3, 2).unwrap();
    sim.run(5);
    let bytes = sim.save_state().to_bytes();
    assert_eq!(
        hex(&bytes),
        "50505353030000000133000000000000008f436e9f7f8923b7242c7e619ea14086\
         8a485b8924b6737ea2782fa36be47f9905000000000000000300000000000000010000703754fb"
    );
}

/// The sequential variant of `DenseSimulator` (protocol state plus the
/// inner per-agent payload), pinned the same way except for the version
/// field, which must read `SNAPSHOT_VERSION`: everything else must survive
/// a version bump unchanged.
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
         05500000000000000000000000000000004000000000000000\
         515afa1e8c3cda2ceac288561db0ed7e63ef39218ed02a8159df41396a99c22f\
         0700000000000000040000000000000001000000000000000000000000000000807df4e9"
    );
}

/// The hybrid engine's frame in per-agent mode, pinned the same way: the
/// configuration and monitor bookkeeping, the one-entry switch log, the
/// stint kind, and the stint itself (interaction count, RNG, agent states).
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
        "505053530300000004be00000000000000040000000000000001000000000000\
         0000000000000000504000000000000020400200000000010000000000000300\
         0000000000000300000000000000000000000000000000010000000000000000\
         0000000100000000000000030000000000000000020000000000000000020000\
         0000000000000140000000000000000400000000000000c228400a6ddd355495\
         4e431f52798a899f2e82c8b7eabcc1dc37877729e71396040000000000000001\
         000000010000000100000001000000559c4f9c"
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
/// accepts only its own version, so neither a v1 checkpoint (whose hybrid
/// payload held the interner twice) nor a v2 one (whose hybrid and staged
/// payloads carried a stint-mode flag) reaches a v3 decoder.
#[test]
fn past_versions_are_refused() {
    for version in [1, 2] {
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
        let config = HybridConfig {
            substrate,
            ..HybridConfig::default()
        };
        let mut sim = HybridSimulator::with_config(proto.clone(), n, 3, config).unwrap();
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
