//! Versioned engine snapshots: save/restore simulator state for crash
//! recovery with **bit-identical** deterministic replay.
//!
//! # Why replay-verification is sound
//!
//! Every engine in this crate is a pure function of `(protocol, n, seed,
//! engine parameters)` *and the sequence of `run` budgets it is driven with*:
//! all randomness flows through explicitly seeded [`SmallRng`] streams, all
//! iteration orders are over vectors (never hash maps), and no wall-clock
//! input reaches a trajectory decision.  A snapshot therefore only has to
//! capture the *mutable* state — configuration, RNG streams, interaction
//! counters, and (for the hybrid engine) the representation bookkeeping —
//! for a resumed run to retrace the uninterrupted run exactly, provided the
//! driver replays the same chunk schedule.  The fault-injection harness
//! ([`crate::faultsim`]) asserts exactly that: kill at an arbitrary chunk
//! boundary, resume from the snapshot, compare final snapshot bytes.
//!
//! Conversely, everything *derivable* is deliberately **not** serialized and
//! is rebuilt on restore: collision samplers (a pure function of `n`),
//! transition tables and δ-memos (functions of the protocol; memos may hold
//! stale state indices from another process and must be rebuilt), output
//! caches, occupancy flag vectors (derivable from the occupied list), the
//! hybrid engine's total interaction count (its two per-leg totals plus the
//! inner engine's count) and its monitor's mode belief (the mode tag), and
//! scratch buffers.  A composite frame (the staged `CountExact` runner's)
//! tells which engine it wraps only through the inner frame's own engine
//! tag.  Wall-clock accounting (the hybrid engine's per-leg seconds) is also
//! excluded — so snapshot bytes are a pure function of the trajectory and
//! byte equality is a valid trajectory-equality check.
//!
//! # Format layout (version 6)
//!
//! All integers are little-endian; there is no padding.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"PPSS"
//! 4       4     u32    format version (currently 6)
//! 8       1     u8     engine tag (see the ENGINE_* constants)
//! 9       8     u64    payload length L
//! 17      L     [u8]   payload (engine-specific, see each engine's docs)
//! 17+L    4     u32    CRC-32 (IEEE) over the payload bytes only
//! ```
//!
//! Payloads are built from the primitive codec of [`PersistState`]: fixed
//! little-endian integers, `bool` as one byte, `f64` as its IEEE-754 bit
//! pattern, and `Vec<T>` as a `u64` length prefix followed by the elements.
//! A `Vec<u8>` (a nested payload) is copied in and out whole; the bytes are
//! the same as element by element.
//! Nothing in a payload is positional beyond this — every engine reads its
//! payload back with a [`SnapshotReader`] and rejects trailing garbage.
//!
//! A dynamic protocol's state (its interner) appears once per snapshot:
//! engines built from other engines (sharded over its shards, hybrid over
//! its batched or sharded substrate) store it at their own level and persist
//! the inner engine cores without it.
//!
//! # Versioning policy
//!
//! The version number covers the whole format: header *and* every engine
//! payload layout.  Any change to any engine's payload bumps
//! [`SNAPSHOT_VERSION`].  A reader accepts only its own version: a snapshot
//! of any other version, older or newer, is refused with
//! [`SimError::SnapshotVersion`] rather than guessed at.  Golden-file tests
//! pin the byte layout so an accidental change fails loudly instead of
//! silently orphaning old checkpoints.
//!
//! # Atomicity
//!
//! [`EngineSnapshot::write_atomic`] writes to a sibling temp file, fsyncs
//! it, and renames it over the destination, so a crash mid-checkpoint never
//! corrupts the last good snapshot — at worst it leaves a stale temp file.
//!
//! [`SmallRng`]: rand::rngs::SmallRng

use std::fs;
use std::io::Write as _;
use std::path::Path;

use rand::rngs::SmallRng;

use crate::error::SimError;

/// The four magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PPSS";

/// The format version this build writes, and the only one it reads.
pub const SNAPSHOT_VERSION: u32 = 6;

/// Engine tag: [`crate::Simulator`] (per-agent sequential).
pub const ENGINE_SEQUENTIAL: u8 = 1;
/// Engine tag: [`crate::BatchedSimulator`].
pub const ENGINE_BATCHED: u8 = 2;
/// Engine tag: [`crate::ShardedBatchedSimulator`].
pub const ENGINE_SHARDED: u8 = 3;
/// Engine tag: [`crate::HybridSimulator`].
pub const ENGINE_HYBRID: u8 = 4;
/// Engine tag: [`crate::DenseSimulator`] running its sequential variant
/// ([`crate::DenseSequential`]: the protocol's own state, so dynamic
/// protocols restore their interner, then the per-agent stint's bytes).
pub const ENGINE_DENSE_SEQUENTIAL: u8 = 5;
/// Engine tag: [`crate::adversary::AdversarialRun`] (a fault-plan cursor
/// wrapped around an inner engine snapshot).
pub const ENGINE_ADVERSARY: u8 = 6;

/// First engine tag reserved for composite snapshots defined by downstream
/// crates (staged runners, sweep drivers).  Tags below this value belong to
/// `ppsim` engines.
pub const ENGINE_COMPOSITE_BASE: u8 = 0x10;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) over `bytes`.
///
/// Slicing-by-16 and dependency-free: sixteen lookup tables fold sixteen
/// input bytes per step, and a byte-at-a-time loop finishes the tail.  This
/// is the checksum in every snapshot trailer.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = u32::MAX;
    let mut words = bytes.chunks_exact(16);
    for w in &mut words {
        let [a, b, c, d] = (crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).to_le_bytes();
        crc = t[15][usize::from(a)]
            ^ t[14][usize::from(b)]
            ^ t[13][usize::from(c)]
            ^ t[12][usize::from(d)]
            ^ t[11][usize::from(w[4])]
            ^ t[10][usize::from(w[5])]
            ^ t[9][usize::from(w[6])]
            ^ t[8][usize::from(w[7])]
            ^ t[7][usize::from(w[8])]
            ^ t[6][usize::from(w[9])]
            ^ t[5][usize::from(w[10])]
            ^ t[4][usize::from(w[11])]
            ^ t[3][usize::from(w[12])]
            ^ t[2][usize::from(w[13])]
            ^ t[1][usize::from(w[14])]
            ^ t[0][usize::from(w[15])];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc.to_le_bytes()[0] ^ b)];
    }
    !crc
}

/// `CRC32_TABLES[k][i]` advances the CRC register over byte `i` followed by
/// `k` zero bytes; row 0 is the classic byte-at-a-time table.
static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// A cursor over a snapshot payload, yielding typed fields and rejecting
/// truncation.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Start reading `bytes` from the beginning.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        SnapshotReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consume exactly `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotCorrupt`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SimError> {
        if self.remaining() < n {
            return Err(SimError::SnapshotCorrupt {
                reason: format!(
                    "payload truncated: wanted {n} bytes at offset {}, {} remain",
                    self.pos,
                    self.remaining()
                ),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Decode one `T` at the cursor.
    ///
    /// # Errors
    ///
    /// Propagates the field's decoding error.
    pub fn read<T: PersistState>(&mut self) -> Result<T, SimError> {
        T::unpersist(self)
    }

    /// Assert the payload has been fully consumed.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotCorrupt`] if trailing bytes remain — a decoder
    /// that leaves bytes behind has misread the layout.
    pub fn finish(self) -> Result<(), SimError> {
        if self.remaining() != 0 {
            return Err(SimError::SnapshotCorrupt {
                reason: format!("{} trailing bytes after payload", self.remaining()),
            });
        }
        Ok(())
    }
}

/// A type that can serialize itself into a snapshot payload and decode
/// itself back.
///
/// This is the element codec used for agent-state vectors, counters, and
/// everything else inside an [`EngineSnapshot`] payload.  Implementations
/// must be *canonical*: `unpersist(persist(x)) == x` and equal values
/// produce equal bytes, so snapshot-byte equality is state equality.
pub trait PersistState: Sized {
    /// Append this value's canonical encoding to `out`.
    fn persist(&self, out: &mut Vec<u8>);

    /// Decode one value at the reader's cursor.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotCorrupt`] on truncation or an invalid encoding.
    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError>;

    /// Append the encodings of `items`, back to back, to `out`: the body of
    /// a `Vec<Self>` after its length prefix.
    ///
    /// The default persists the items one by one.  An override must write
    /// exactly the same bytes, only faster (`u8` copies the slice whole).
    fn persist_slice(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.persist(out);
        }
    }

    /// Decode `len` values written by [`persist_slice`](Self::persist_slice).
    ///
    /// The default decodes them one by one; `u8` takes all `len` bytes in a
    /// single [`SnapshotReader::take`].
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotCorrupt`] on truncation or an invalid encoding.
    fn unpersist_vec(len: usize, r: &mut SnapshotReader<'_>) -> Result<Vec<Self>, SimError> {
        // Every encoding is at least one byte, so the remaining payload
        // bounds how many values can follow.
        let mut items = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            items.push(Self::unpersist(r)?);
        }
        Ok(items)
    }
}

impl PersistState for u8 {
    fn persist(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        Ok(r.take(1)?[0])
    }
    fn persist_slice(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn unpersist_vec(len: usize, r: &mut SnapshotReader<'_>) -> Result<Vec<u8>, SimError> {
        Ok(r.take(len)?.to_vec())
    }
}

macro_rules! persist_int {
    ($($t:ty),*) => {$(
        impl PersistState for $t {
            fn persist(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
                let raw = r.take(std::mem::size_of::<$t>())?;
                // `take` returned exactly `size_of::<$t>()` bytes. ppcheck: allow(no-unwrap)
                Ok(<$t>::from_le_bytes(raw.try_into().expect("exact-size slice")))
            }
        }
    )*};
}

persist_int!(u16, u32, u64, u128, i8, i16, i32, i64);

impl PersistState for usize {
    fn persist(&self, out: &mut Vec<u8>) {
        (*self as u64).persist(out);
    }
    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        let v = u64::unpersist(r)?;
        usize::try_from(v).map_err(|_| SimError::SnapshotCorrupt {
            reason: format!("value {v} exceeds this platform's usize"),
        })
    }
}

impl PersistState for bool {
    fn persist(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        match u8::unpersist(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SimError::SnapshotCorrupt {
                reason: format!("invalid bool byte {b:#04x}"),
            }),
        }
    }
}

impl PersistState for f64 {
    fn persist(&self, out: &mut Vec<u8>) {
        self.to_bits().persist(out);
    }
    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        Ok(f64::from_bits(u64::unpersist(r)?))
    }
}

impl<A: PersistState, B: PersistState> PersistState for (A, B) {
    fn persist(&self, out: &mut Vec<u8>) {
        self.0.persist(out);
        self.1.persist(out);
    }
    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        Ok((A::unpersist(r)?, B::unpersist(r)?))
    }
}

impl<A: PersistState, B: PersistState, C: PersistState> PersistState for (A, B, C) {
    fn persist(&self, out: &mut Vec<u8>) {
        self.0.persist(out);
        self.1.persist(out);
        self.2.persist(out);
    }
    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        Ok((A::unpersist(r)?, B::unpersist(r)?, C::unpersist(r)?))
    }
}

impl<T: PersistState> PersistState for Vec<T> {
    fn persist(&self, out: &mut Vec<u8>) {
        (self.len() as u64).persist(out);
        T::persist_slice(self, out);
    }
    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        let len = usize::unpersist(r)?;
        // Elements occupy at least one byte each; reject length prefixes the
        // remaining payload cannot possibly satisfy before allocating.
        if len > r.remaining() {
            return Err(SimError::SnapshotCorrupt {
                reason: format!(
                    "vector length {len} exceeds {} remaining payload bytes",
                    r.remaining()
                ),
            });
        }
        T::unpersist_vec(len, r)
    }
}

impl PersistState for [u64; 4] {
    fn persist(&self, out: &mut Vec<u8>) {
        for w in self {
            w.persist(out);
        }
    }
    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        Ok([
            u64::unpersist(r)?,
            u64::unpersist(r)?,
            u64::unpersist(r)?,
            u64::unpersist(r)?,
        ])
    }
}

impl<T: PersistState> PersistState for Option<T> {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.persist(out);
            }
        }
    }
    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        match u8::unpersist(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::unpersist(r)?)),
            b => Err(SimError::SnapshotCorrupt {
                reason: format!("invalid Option tag {b:#04x}"),
            }),
        }
    }
}

impl PersistState for String {
    fn persist(&self, out: &mut Vec<u8>) {
        (self.len() as u64).persist(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        let len = usize::unpersist(r)?;
        let raw = r.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| SimError::SnapshotCorrupt {
            reason: "string field is not valid UTF-8".into(),
        })
    }
}

/// Serialize a [`SmallRng`]'s full internal state (xoshiro256++, four 64-bit
/// words) so a restored run continues the identical random stream.
pub fn persist_rng(rng: &SmallRng, out: &mut Vec<u8>) {
    rng.state().persist(out);
}

/// Decode a [`SmallRng`] previously written by [`persist_rng`].
///
/// # Errors
///
/// [`SimError::SnapshotCorrupt`] on truncation.
pub fn unpersist_rng(r: &mut SnapshotReader<'_>) -> Result<SmallRng, SimError> {
    Ok(SmallRng::from_state(r.read::<[u64; 4]>()?))
}

/// One engine's complete serialized state: an engine tag plus an opaque,
/// engine-defined payload, framed by the versioned header documented at the
/// [module level](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    engine: u8,
    payload: Vec<u8>,
}

impl EngineSnapshot {
    /// Wrap an engine payload under the given engine tag.
    #[must_use]
    pub fn new(engine: u8, payload: Vec<u8>) -> Self {
        EngineSnapshot { engine, payload }
    }

    /// The engine tag (one of the `ENGINE_*` constants, or a composite tag
    /// at or above [`ENGINE_COMPOSITE_BASE`]).
    #[must_use]
    pub fn engine(&self) -> u8 {
        self.engine
    }

    /// The raw payload bytes.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// A reader positioned at the start of the payload.
    #[must_use]
    pub fn reader(&self) -> SnapshotReader<'_> {
        SnapshotReader::new(&self.payload)
    }

    /// Check the engine tag against the engine attempting the restore.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotMismatch`] naming both tags.
    pub fn expect_engine(&self, expected: u8, name: &str) -> Result<(), SimError> {
        if self.engine != expected {
            return Err(SimError::SnapshotMismatch {
                reason: format!(
                    "snapshot carries engine tag {} but is being restored into {name} (tag {expected})",
                    self.engine
                ),
            });
        }
        Ok(())
    }

    /// Frame this snapshot as the full on-disk byte stream (header, payload,
    /// CRC trailer).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(21 + self.payload.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        SNAPSHOT_VERSION.persist(&mut out);
        self.engine.persist(&mut out);
        (self.payload.len() as u64).persist(&mut out);
        out.extend_from_slice(&self.payload);
        crc32(&self.payload).persist(&mut out);
        out
    }

    /// Parse and validate a byte stream produced by [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotCorrupt`] on truncation, bad magic, a length
    /// field disagreeing with the stream, trailing bytes, or a CRC
    /// mismatch; [`SimError::SnapshotVersion`] for any format version other
    /// than [`SNAPSHOT_VERSION`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SimError> {
        let mut r = SnapshotReader::new(bytes);
        let magic = r.take(4)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SimError::SnapshotCorrupt {
                reason: format!("bad magic {magic:02x?}, expected b\"PPSS\""),
            });
        }
        let version = r.read::<u32>()?;
        if version != SNAPSHOT_VERSION {
            return Err(SimError::SnapshotVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let engine = r.read::<u8>()?;
        let len = r.read::<usize>()?;
        let payload = r.take(len)?.to_vec();
        let stored_crc = r.read::<u32>()?;
        r.finish()?;
        let actual_crc = crc32(&payload);
        if stored_crc != actual_crc {
            return Err(SimError::SnapshotCorrupt {
                reason: format!(
                    "CRC mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
                ),
            });
        }
        Ok(EngineSnapshot { engine, payload })
    }

    /// Write the framed snapshot to `path` atomically: the bytes go to a
    /// sibling `<name>.tmp` file, which is fsynced and then renamed over
    /// `path`.  A crash at any point leaves either the previous snapshot or
    /// the new one — never a torn file.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotIo`] carrying the failing path and OS error.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SimError> {
        write_bytes_atomic(path, &self.to_bytes())
    }

    /// Read and validate a snapshot file written by [`Self::write_atomic`].
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotIo`] if the file cannot be read, plus every
    /// validation error of [`Self::from_bytes`].
    pub fn read_file(path: &Path) -> Result<Self, SimError> {
        let bytes = fs::read(path).map_err(|e| SimError::SnapshotIo {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Self::from_bytes(&bytes)
    }
}

/// Write `bytes` to `path` atomically (temp file + fsync + rename).  This is
/// the same primitive [`EngineSnapshot::write_atomic`] uses, exposed for
/// result tables and other artifacts that want crash-safe replacement.
///
/// # Errors
///
/// [`SimError::SnapshotIo`] carrying the failing path and OS error.
pub fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> Result<(), SimError> {
    let io_err = |reason: std::io::Error| SimError::SnapshotIo {
        path: path.display().to_string(),
        reason: reason.to_string(),
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut file = fs::File::create(&tmp).map_err(io_err)?;
    file.write_all(bytes).map_err(io_err)?;
    file.sync_all().map_err(io_err)?;
    drop(file);
    fs::rename(&tmp, path).map_err(io_err)?;
    // Make the rename itself durable where the filesystem supports opening
    // directories; failure here cannot tear the file, so it is best-effort.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        }) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Engines that can serialize their complete mutable state and later restore
/// it — the capability behind checkpoint/resume and the fault-injection
/// harness.
///
/// # Contract
///
/// * `restore_state(save_state())` is the identity on all observable state.
/// * After a restore, driving the simulator with the same chunk schedule as
///   the original run reproduces the original trajectory bit-identically.
/// * `restore_state` validates before mutating where practical, and returns
///   a typed [`SimError`] (never panics) on corrupt, version-skewed, or
///   mismatched snapshots.  A failed restore may leave the simulator in an
///   unspecified (but memory-safe) state; callers should discard it.
pub trait Checkpointable {
    /// Serialize the engine's complete mutable state.
    fn save_state(&self) -> EngineSnapshot;

    /// Restore state previously produced by [`Self::save_state`] on a
    /// compatible simulator (same protocol, population, and engine
    /// configuration).
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotMismatch`] if the snapshot does not fit this
    /// simulator, [`SimError::SnapshotCorrupt`] if the payload does not
    /// decode.
    fn restore_state(&mut self, snapshot: &EngineSnapshot) -> Result<(), SimError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The CRC-32 register advanced one bit at a time, one byte at a time:
    /// the definition the sliced tables must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_offset() {
        let mut rng = crate::rng::seeded_rng(32);
        let buf: Vec<u8> = (0..72).map(|_| rng.gen()).collect();
        // Offsets 0..8 put the 8-byte steps at every alignment; lengths up
        // to 64 cover empty input, tails alone, and several whole steps.
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn byte_vectors_encode_exactly_as_element_by_element() {
        let v: Vec<u8> = vec![0x00, 0x7F, 0x80, 0xFF, 0x01];
        let mut bulk = Vec::new();
        v.persist(&mut bulk);
        let mut each = Vec::new();
        (v.len() as u64).persist(&mut each);
        for b in &v {
            b.persist(&mut each);
        }
        assert_eq!(bulk, each);
        assert_eq!(hex(&bulk), "0500000000000000007f80ff01");
        // A nested payload decodes back whole, leaving the cursor after it.
        let nested = vec![v.clone(), Vec::new()];
        let mut out = Vec::new();
        nested.persist(&mut out);
        7u8.persist(&mut out);
        let mut r = SnapshotReader::new(&out);
        assert_eq!(r.read::<Vec<Vec<u8>>>().unwrap(), nested);
        assert_eq!(r.read::<u8>().unwrap(), 7);
        r.finish().unwrap();
    }

    #[test]
    fn oversized_length_prefixes_are_refused_before_allocating() {
        // One byte short of the declared length: refused by the prefix check,
        // not by a truncated read after the vector was allocated.
        let mut out = Vec::new();
        4u64.persist(&mut out);
        out.extend_from_slice(&[1, 2, 3]);
        let err = SnapshotReader::new(&out).read::<Vec<u8>>().unwrap_err();
        assert!(matches!(err, SimError::SnapshotCorrupt { ref reason }
            if reason.contains("vector length 4 exceeds 3")));
        // A prefix no allocation could satisfy is refused the same way (an
        // attempted allocation would abort the test process instead).
        for huge in [u64::MAX, 1 << 62] {
            let mut out = Vec::new();
            huge.persist(&mut out);
            out.push(0);
            assert!(matches!(
                SnapshotReader::new(&out).read::<Vec<u64>>(),
                Err(SimError::SnapshotCorrupt { .. })
            ));
            assert!(matches!(
                SnapshotReader::new(&out).read::<Vec<u8>>(),
                Err(SimError::SnapshotCorrupt { .. })
            ));
        }
    }

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        0xABu8.persist(&mut out);
        0xBEEFu16.persist(&mut out);
        0xDEAD_BEEFu32.persist(&mut out);
        u64::MAX.persist(&mut out);
        (7u128 << 100).persist(&mut out);
        (-3i32).persist(&mut out);
        (-9i64).persist(&mut out);
        true.persist(&mut out);
        1.5f64.persist(&mut out);
        42usize.persist(&mut out);
        let mut r = SnapshotReader::new(&out);
        assert_eq!(r.read::<u8>().unwrap(), 0xAB);
        assert_eq!(r.read::<u16>().unwrap(), 0xBEEF);
        assert_eq!(r.read::<u32>().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read::<u64>().unwrap(), u64::MAX);
        assert_eq!(r.read::<u128>().unwrap(), 7u128 << 100);
        assert_eq!(r.read::<i32>().unwrap(), -3);
        assert_eq!(r.read::<i64>().unwrap(), -9);
        assert!(r.read::<bool>().unwrap());
        assert_eq!(r.read::<f64>().unwrap(), 1.5);
        assert_eq!(r.read::<usize>().unwrap(), 42);
        r.finish().unwrap();
    }

    #[test]
    fn compound_values_round_trip() {
        let mut out = Vec::new();
        let v: Vec<(u32, u64)> = vec![(1, 10), (2, 20), (3, 30)];
        v.persist(&mut out);
        Some(5u64).persist(&mut out);
        Option::<u64>::None.persist(&mut out);
        [1u64, 2, 3, 4].persist(&mut out);
        "hello".to_string().persist(&mut out);
        let mut r = SnapshotReader::new(&out);
        assert_eq!(r.read::<Vec<(u32, u64)>>().unwrap(), v);
        assert_eq!(r.read::<Option<u64>>().unwrap(), Some(5));
        assert_eq!(r.read::<Option<u64>>().unwrap(), None);
        assert_eq!(r.read::<[u64; 4]>().unwrap(), [1, 2, 3, 4]);
        assert_eq!(r.read::<String>().unwrap(), "hello");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let mut r = SnapshotReader::new(&[1, 2]);
        assert!(matches!(
            r.read::<u32>(),
            Err(SimError::SnapshotCorrupt { .. })
        ));
        let mut r = SnapshotReader::new(&[7]);
        assert!(matches!(
            r.read::<bool>(),
            Err(SimError::SnapshotCorrupt { .. })
        ));
        // A vector length prefix the payload cannot satisfy is rejected
        // before allocation.
        let mut out = Vec::new();
        u64::MAX.persist(&mut out);
        let mut r = SnapshotReader::new(&out);
        assert!(matches!(
            r.read::<Vec<u8>>(),
            Err(SimError::SnapshotCorrupt { .. })
        ));
        // Trailing bytes are an error through finish().
        let r = SnapshotReader::new(&[0]);
        assert!(matches!(r.finish(), Err(SimError::SnapshotCorrupt { .. })));
    }

    #[test]
    fn rng_round_trip_resumes_the_stream() {
        let mut rng = crate::rng::seeded_rng(1234);
        let _: u64 = rng.gen();
        let mut out = Vec::new();
        persist_rng(&rng, &mut out);
        let mut copy = unpersist_rng(&mut SnapshotReader::new(&out)).unwrap();
        let a: Vec<u64> = (0..8).map(|_| rng.gen()).collect();
        let b: Vec<u64> = (0..8).map(|_| copy.gen()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_frame_round_trips() {
        let snap = EngineSnapshot::new(ENGINE_BATCHED, vec![1, 2, 3, 4, 5]);
        let bytes = snap.to_bytes();
        assert_eq!(&bytes[..4], b"PPSS");
        let back = EngineSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.engine(), ENGINE_BATCHED);
        assert_eq!(back.payload(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn frame_validation_rejects_each_kind_of_damage() {
        let snap = EngineSnapshot::new(ENGINE_HYBRID, vec![9; 32]);
        let good = snap.to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            EngineSnapshot::from_bytes(&bad_magic),
            Err(SimError::SnapshotCorrupt { .. })
        ));

        for other in [0, SNAPSHOT_VERSION - 1, SNAPSHOT_VERSION + 1] {
            let mut skewed = good.clone();
            skewed[4..8].copy_from_slice(&other.to_le_bytes());
            assert!(matches!(
                EngineSnapshot::from_bytes(&skewed),
                Err(SimError::SnapshotVersion { found, supported })
                    if found == other && supported == SNAPSHOT_VERSION
            ));
        }

        let mut flipped = good.clone();
        let mid = 17 + 16;
        flipped[mid] ^= 0x01;
        assert!(matches!(
            EngineSnapshot::from_bytes(&flipped),
            Err(SimError::SnapshotCorrupt { reason }) if reason.contains("CRC")
        ));

        let truncated = &good[..good.len() - 1];
        assert!(matches!(
            EngineSnapshot::from_bytes(truncated),
            Err(SimError::SnapshotCorrupt { .. })
        ));

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            EngineSnapshot::from_bytes(&trailing),
            Err(SimError::SnapshotCorrupt { reason }) if reason.contains("trailing")
        ));
    }

    #[test]
    fn expect_engine_names_both_tags() {
        let snap = EngineSnapshot::new(ENGINE_SHARDED, Vec::new());
        snap.expect_engine(ENGINE_SHARDED, "sharded").unwrap();
        let err = snap.expect_engine(ENGINE_BATCHED, "batched").unwrap_err();
        assert!(matches!(err, SimError::SnapshotMismatch { ref reason }
            if reason.contains("tag 3") && reason.contains("batched")));
    }

    #[test]
    fn atomic_write_then_read_round_trips() {
        let dir = std::env::temp_dir().join(format!("ppss-atomic-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.ppss");
        let snap = EngineSnapshot::new(ENGINE_SEQUENTIAL, (0u8..100).collect());
        snap.write_atomic(&path).unwrap();
        // Overwriting is atomic too: the temp file must not linger.
        snap.write_atomic(&path).unwrap();
        assert!(!dir.join("snap.ppss.tmp").exists());
        assert_eq!(EngineSnapshot::read_file(&path).unwrap(), snap);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_file_missing_is_an_io_error() {
        let err = EngineSnapshot::read_file(Path::new("/nonexistent/dir/x.ppss")).unwrap_err();
        assert!(matches!(err, SimError::SnapshotIo { ref path, .. }
            if path.contains("x.ppss")));
    }
}
