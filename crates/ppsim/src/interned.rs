//! On-the-fly state enumeration for dense protocols with large or unbounded
//! state spaces.
//!
//! The batched engines index configurations by dense state indices `0..q`.
//! For the simple auxiliary protocols (epidemic, junta, phase clock) a fixed
//! product encoding is easy to write down, but the paper's *composed* counting
//! protocols carry per-agent state a fixed encoding cannot hold: an absolute
//! phase counter (the sequential implementations keep it unbounded and reduce
//! it modulo small constants where the paper does), `u64` token loads in the
//! `CountExact` stages, and per-round random values in the leader elections.
//! The product of those ranges is astronomically larger than the number of
//! states that ever *occur* — which Theorem 1 of the paper bounds by
//! `O(log n · log log n)` for `Approximate` (per phase of the run; ~2·10⁵
//! over a full `n = 10⁶` execution) and Theorem 2 by `Õ(n)` for `CountExact`
//! (~1.5·10⁶ at `n = 10⁶`, dominated by refinement-stage load values).
//!
//! [`StateInterner`] closes that gap: it assigns dense indices to rich state
//! structs **in order of first appearance**.  A protocol built on an interner
//! reports a fixed index-space *capacity* as its `num_states()` (which only
//! sizes the engines' flat per-state buffers) while the set of live indices
//! grows lazily.
//!
//! The engines iterate occupied states only, so a block's work does not grow
//! with the capacity.  The flat buffers do, and every step that allocates,
//! fills, copies or scans one costs `O(capacity)`:
//!
//! * building a dense substrate, at construction and at a hybrid migration
//!   back to counts, whose agents are first tallied into a capacity-long
//!   vector;
//! * `set_counts`, which checks the vector and rebuilds the occupancy from
//!   it;
//! * an owned `counts()` copy;
//! * a hybrid migration to per-agent mode, which reads the counts in place
//!   but scans all of them for the occupied states.
//!
//! A restore into a live dense simulator touches none of them: it reuses
//! the buffers and visits only the old and the new occupied states.
//!
//! Interners are shared behind [`Arc`](std::sync::Arc), so cloning a protocol (as the sharded
//! engine does for its per-shard copies) keeps all copies in one consistent
//! index space.  Protocols that intern must return `true` from
//! [`DenseProtocol::dynamic`](crate::DenseProtocol::dynamic) so the engines
//! skip eager per-state precomputation and keep the interning order — and with
//! it the trajectory — a pure function of the seed.
//!
//! # The index
//!
//! Each state is stored once, in index order in a `Vec`: that vector is all
//! a snapshot records.  The reverse index is derived from it: an
//! open-addressing table of `u32` positions into the vector, of power-of-two
//! length, at most half full, probed linearly, with `u32::MAX` marking a
//! free slot (no index can take that value, see
//! [`StateInterner::with_capacity`]).  A state's home slot is the top bits
//! of its hash under the crate's Fx-style word hasher.  At the 30 840 states
//! of a converged `CountExact` run at `n = 2000` the table takes 256 KB.
//!
//! The hasher is not keyed, and a snapshot's states come from outside the
//! process.  A crafted snapshot whose states collide in the hash can only
//! slow down its own restore (and the lookups of the run restored from it):
//! every probe compares the states themselves, so a collision costs a probe,
//! never a wrong index.
//!
//! ```rust
//! use ppsim::StateInterner;
//!
//! let my_states = StateInterner::with_capacity(16);
//! let a = my_states.intern((3u32, false));
//! let b = my_states.intern((7u32, true));
//! assert_eq!(a, 0, "indices are assigned in order of first appearance");
//! assert_eq!(b, 1);
//! assert_eq!(my_states.intern((3u32, false)), a, "re-interning is stable");
//! assert_eq!(my_states.get(b), (7u32, true));
//! assert_eq!(my_states.len(), 2);
//! ```

use std::fmt::Debug;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::error::SimError;
use crate::snapshot::PersistState;

/// The crate's one multiplicative word hasher (FxHash-style).  The
/// interner's index, the per-agent stint's occupancy count and tally, and
/// the δ-memo's pair keys all hash with it: one rotate, xor and multiply
/// per word, far faster than SipHash.  It is not keyed, so it is only used where a collision
/// costs time, never a wrong answer.
#[derive(Debug, Default, Clone)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            // `chunks_exact(8)` yields 8-byte slices only. ppcheck: allow(no-unwrap)
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(b) << (8 * i);
        }
        if !chunks.remainder().is_empty() {
            self.write_u64(tail);
        }
    }
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }
    fn write_u64(&mut self, i: u64) {
        // Rotate + xor + multiply by 2⁶⁴/φ: the classic Fx mixing step.
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// Build-hasher for the crate's `HashMap`s keyed by [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Hash `value` with [`FxHasher`].
pub(crate) fn fx_hash<T: Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// Marks a free slot of an [`IndexTable`].
const EMPTY: u32 = u32::MAX;

/// The smallest [`IndexTable`], in slots.
const MIN_SLOTS: usize = 16;

/// An interner's reverse index: positions into its state vector, in an
/// open-addressing table (see the module docs).
#[derive(Debug)]
struct IndexTable {
    slots: Vec<u32>,
    /// `64 − log₂(slots.len())`: shifts a hash down to its top bits.
    shift: u32,
}

impl IndexTable {
    /// An empty table that holds `len` states at most half full.
    fn with_room_for(len: usize) -> Self {
        let slots = (2 * len).next_power_of_two().max(MIN_SLOTS);
        IndexTable {
            slots: vec![EMPTY; slots],
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// Whether `len` states keep the table at most half full.
    fn has_room_for(&self, len: usize) -> bool {
        2 * len <= self.slots.len()
    }

    /// `Ok(i)` if the table holds a position `i` with `states[i] == *state`,
    /// else `Err(slot)`: the free slot where `state`'s position belongs.
    fn find<S: Hash + Eq>(&self, states: &[S], state: &S) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = (fx_hash(state) >> self.shift) as usize;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                i if states[i as usize] == *state => return Ok(i),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Index every position of `states`; `Err(i)` if `states[i]` repeats
    /// an earlier state.
    fn build<S: Hash + Eq>(states: &[S]) -> Result<Self, usize> {
        let mut table = Self::with_room_for(states.len());
        for (i, state) in states.iter().enumerate() {
            match table.find(states, state) {
                Ok(_) => return Err(i),
                Err(slot) => table.slots[slot] = i as u32,
            }
        }
        Ok(table)
    }
}

/// A bijection between rich state values and dense indices `0..len`, grown on
/// first use and shared (behind an [`Arc`](std::sync::Arc)) by every clone of
/// a dynamic protocol.
///
/// `capacity` is the fixed ceiling the owning protocol reports as its
/// `num_states()`; [`StateInterner::intern`] panics when a run discovers more
/// distinct states than that, with a message naming the fix (construct the
/// protocol with a larger capacity).
#[derive(Debug)]
pub struct StateInterner<S> {
    capacity: usize,
    inner: RwLock<Inner<S>>,
}

#[derive(Debug)]
struct Inner<S> {
    /// Index → state.
    states: Vec<S>,
    /// State → index, as positions into `states`.
    index: IndexTable,
}

impl<S: Copy + Eq + Hash + Debug> StateInterner<S> {
    /// An empty interner whose owning protocol will report `capacity` as its
    /// `num_states()`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `capacity >= u32::MAX` (dense indices are
    /// 32-bit in the engines' tables, which index `0..capacity` and reserve
    /// `u32::MAX` itself as a never-valid index — so the ceiling is
    /// `u32::MAX − 1` distinct states, rejected here at construction instead
    /// of overflowing deep inside a run).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "an interner needs room for at least one state"
        );
        // Strictly below u32::MAX, not `<=`: the engines' delta/occupancy
        // tables index `0..capacity` with u32 entries and `capacity` itself
        // must stay representable next to them.  Accepting `capacity ==
        // u32::MAX` used to pass construction and could only fail mid-run
        // once the interner approached the ceiling.
        assert!(
            (capacity as u64) < u64::from(u32::MAX),
            "dense state indices are 32-bit (ceiling {} states); capacity \
             {capacity} is out of range",
            u32::MAX - 1
        );
        StateInterner {
            capacity,
            inner: RwLock::new(Inner {
                states: Vec::new(),
                index: IndexTable::with_room_for(0),
            }),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Inner<S>> {
        // A poisoned lock means another thread already panicked mid-intern;
        // propagating the panic is the only sound response.
        // ppcheck: allow(no-unwrap)
        self.inner.read().expect("interner lock poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner<S>> {
        // As in `read`. ppcheck: allow(no-unwrap)
        self.inner.write().expect("interner lock poisoned")
    }

    /// The fixed index-space size the owning protocol reports as `num_states()`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of distinct states interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.read().states.len()
    }

    /// Whether no state has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dense index of `state`, assigning the next free index on first
    /// appearance.
    ///
    /// # Panics
    ///
    /// Panics if the state is new and the interner already holds `capacity`
    /// distinct states.
    #[must_use]
    pub fn intern(&self, state: S) -> usize {
        {
            let inner = self.read();
            if let Ok(i) = inner.index.find(&inner.states, &state) {
                return i as usize;
            }
        }
        let mut inner = self.write();
        // Re-check under the write lock: another thread may have interned the
        // state between our read and write acquisitions.
        let slot = match inner.index.find(&inner.states, &state) {
            Ok(i) => return i as usize,
            Err(slot) => slot,
        };
        let i = inner.states.len();
        assert!(
            i < self.capacity,
            "state interner exhausted its capacity of {} distinct states \
             (while interning {state:?}); construct the protocol with a larger \
             capacity",
            self.capacity
        );
        inner.states.push(state);
        if inner.index.has_room_for(i + 1) {
            inner.index.slots[slot] = i as u32;
        } else {
            let Ok(index) = IndexTable::build(&inner.states) else {
                unreachable!("interned states are pairwise distinct");
            };
            inner.index = index;
        }
        i
    }

    /// The state behind a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has not been assigned yet.
    #[must_use]
    pub fn get(&self, index: usize) -> S {
        let inner = self.read();
        *inner.states.get(index).unwrap_or_else(|| {
            panic!(
                "dense index {index} has no interned state (only {} assigned)",
                inner.states.len()
            )
        })
    }

    /// The state behind a dense index, or `None` if the index has not been
    /// assigned yet — the non-panicking decode the agent-state codecs
    /// ([`AgentCodec`](crate::stint::AgentCodec)) build their
    /// `try_decode_agent` on.
    #[must_use]
    pub fn try_get(&self, index: usize) -> Option<S> {
        self.read().states.get(index).copied()
    }

    /// Append all interned states, in index order, to `out` in the encoding
    /// of a `Vec<S>` — the interner's part of a snapshot
    /// ([`ppsim::snapshot`](crate::snapshot)), written under the read lock
    /// without copying the states first.  [`Self::replace_contents`]
    /// installs the vector a reader decodes from these bytes.
    pub fn persist_contents(&self, out: &mut Vec<u8>)
    where
        S: PersistState,
    {
        let inner = self.read();
        (inner.states.len() as u64).persist(out);
        S::persist_slice(&inner.states, out);
    }

    /// Replace the interner's entire contents with `states` (state `i` gets
    /// dense index `i`), discarding everything currently interned.
    ///
    /// This is the restore half of checkpointing: a snapshot records the
    /// interner as of the checkpoint, and rewinding a run must also *forget*
    /// states discovered after it — otherwise a replay would find different
    /// indices already assigned and diverge.  The replacement propagates to
    /// every clone of the owning protocol, since all clones share this
    /// interner behind an `Arc` — which is exactly the whole-process rewind
    /// semantics a restore wants.  The new index is built next to the live
    /// one and swapped in only once it is complete, so a rejected `states`
    /// leaves the interner untouched.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotMismatch`] if `states` is larger than this
    /// interner's capacity or contains a duplicate state (snapshots written
    /// by this crate contain neither).
    pub fn replace_contents(&self, states: Vec<S>) -> Result<(), SimError> {
        if states.len() > self.capacity {
            return Err(SimError::SnapshotMismatch {
                reason: format!(
                    "snapshot interned {} states but this interner's capacity is {}",
                    states.len(),
                    self.capacity
                ),
            });
        }
        let index = IndexTable::build(&states).map_err(|i| SimError::SnapshotMismatch {
            reason: format!(
                "snapshot interner contents repeat state {:?} at index {i}",
                states[i]
            ),
        })?;
        *self.write() = Inner { states, index };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn interning_assigns_indices_in_first_appearance_order() {
        let interner = StateInterner::with_capacity(8);
        assert!(interner.is_empty());
        assert_eq!(interner.intern('x'), 0);
        assert_eq!(interner.intern('y'), 1);
        assert_eq!(interner.intern('x'), 0);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.get(0), 'x');
        assert_eq!(interner.get(1), 'y');
        assert_eq!(interner.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "exhausted its capacity")]
    fn interning_beyond_capacity_panics_with_guidance() {
        let interner = StateInterner::with_capacity(2);
        let _ = interner.intern(0u8);
        let _ = interner.intern(1u8);
        let _ = interner.intern(2u8);
    }

    #[test]
    #[should_panic(expected = "has no interned state")]
    fn reading_an_unassigned_index_panics() {
        let interner = StateInterner::<u8>::with_capacity(4);
        let _ = interner.get(0);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn zero_capacity_is_rejected() {
        let _ = StateInterner::<u8>::with_capacity(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn capacity_at_the_u32_sentinel_is_rejected_up_front() {
        // `u32::MAX` used to be accepted and only blow up mid-run; the bound
        // is now enforced at construction.
        let _ = StateInterner::<u64>::with_capacity(u32::MAX as usize);
    }

    #[test]
    fn capacity_just_below_the_ceiling_constructs_and_interns() {
        // The interner itself allocates nothing proportional to the capacity,
        // so the largest legal index space is cheap to hold.
        let interner = StateInterner::<u64>::with_capacity(u32::MAX as usize - 1);
        assert_eq!(interner.capacity(), u32::MAX as usize - 1);
        assert_eq!(interner.intern(7), 0);
        assert_eq!(interner.get(0), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn capacity_beyond_u32_is_rejected() {
        let _ = StateInterner::<u64>::with_capacity(u32::MAX as usize + 10);
    }

    #[test]
    fn contents_round_trip_through_replace() {
        let interner = StateInterner::with_capacity(8);
        let _ = interner.intern('c');
        let _ = interner.intern('a');
        let _ = interner.intern('b');
        let saved: Vec<char> = (0..interner.len()).map(|i| interner.get(i)).collect();
        assert_eq!(saved, vec!['c', 'a', 'b'], "contents are in index order");

        // A later run discovers more states...
        let _ = interner.intern('z');
        assert_eq!(interner.len(), 4);

        // ...and restoring rewinds the index space, forgetting 'z'.
        let fresh = StateInterner::with_capacity(8);
        fresh.replace_contents(saved).unwrap();
        assert_eq!(fresh.len(), 3);
        assert_eq!(fresh.get(0), 'c');
        assert_eq!(fresh.get(2), 'b');
        assert_eq!(fresh.intern('a'), 1, "restored index map is consistent");
        assert_eq!(
            fresh.intern('z'),
            3,
            "new states continue after the restored ones"
        );
    }

    #[test]
    fn persisted_contents_decode_as_the_state_vector() {
        use crate::snapshot::SnapshotReader;
        let interner = StateInterner::with_capacity(64);
        for s in [5u64, 3, 9, 3, 1] {
            let _ = interner.intern(s);
        }
        let mut bytes = Vec::new();
        interner.persist_contents(&mut bytes);
        let mut expected = Vec::new();
        vec![5u64, 3, 9, 1].persist(&mut expected);
        assert_eq!(bytes, expected, "the bytes of the Vec<S> encoding");
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.read::<Vec<u64>>().unwrap(), vec![5, 3, 9, 1]);
    }

    #[test]
    fn replace_contents_validates_capacity_and_duplicates() {
        let interner = StateInterner::with_capacity(2);
        assert!(interner.replace_contents(vec![1u8, 2, 3]).is_err());
        let interner = StateInterner::with_capacity(8);
        assert!(interner.replace_contents(vec![1u8, 2, 1]).is_err());
        // A failed replace leaves the interner untouched.
        let _ = interner.intern(9u8);
        assert!(interner.replace_contents(vec![5u8, 5]).is_err());
        assert_eq!(interner.get(0), 9);
    }

    #[test]
    fn shared_interner_is_consistent_across_clones_of_the_handle() {
        use std::sync::Arc;
        let interner = Arc::new(StateInterner::with_capacity(16));
        let other = Arc::clone(&interner);
        let a = interner.intern(41u64);
        assert_eq!(other.intern(41u64), a);
        assert_eq!(other.get(a), 41);
        assert_eq!(other.len(), 1);
    }

    #[test]
    fn fx_hasher_distinguishes_field_orderings() {
        // Sanity: the word-mixer is order-sensitive (rotate before xor).
        assert_ne!(fx_hash(&(1u64, 2u64)), fx_hash(&(2u64, 1u64)));
        assert_ne!(fx_hash(&[0u8; 16]), fx_hash(&[0u8; 24]));
    }

    /// Everything the interner answers, checked against `reference`
    /// (state → index) and `order` (index → state).
    fn agrees(
        interner: &StateInterner<(u16, u8)>,
        reference: &HashMap<(u16, u8), usize>,
        order: &[(u16, u8)],
    ) -> Result<(), String> {
        prop_assert_eq!(interner.len(), order.len());
        for (i, &s) in order.iter().enumerate() {
            prop_assert_eq!(interner.get(i), s);
            prop_assert_eq!(interner.try_get(i), Some(s));
            prop_assert_eq!(reference[&s], i);
        }
        prop_assert_eq!(interner.try_get(order.len()), None);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The compact index agrees with a `HashMap` reference over random
        /// intern sequences with repeats and at least four table growths
        /// (16 → 32 → 64 → 128 → 256 slots by 65 distinct states), and
        /// `replace_contents` either installs a whole state vector or
        /// rejects it and leaves the interner as it was.
        #[test]
        fn interner_matches_a_hashmap_reference(
            draws in proptest::collection::vec((0u16..120, 0u8..2), 300..600),
            cut in 0usize..64,
            duplicate in any::<bool>(),
        ) {
            let capacity = 400;
            let interner = StateInterner::with_capacity(capacity);
            let mut reference: HashMap<(u16, u8), usize> = HashMap::new();
            let mut order = Vec::new();
            for &s in &draws {
                let next = order.len();
                let expected = *reference.entry(s).or_insert_with(|| {
                    order.push(s);
                    next
                });
                prop_assert_eq!(interner.intern(s), expected);
            }
            prop_assert!(order.len() > 64, "only {} distinct states", order.len());
            agrees(&interner, &reference, &order)?;

            // A rejected replacement leaves every answer unchanged: one that
            // repeats a state, and one just over capacity.
            let mut bad: Vec<(u16, u8)> = order[..cut].to_vec();
            if duplicate && cut > 0 {
                bad.push(order[cut / 2]);
            } else {
                bad = (0..=capacity as u16).map(|k| (k, 7)).collect();
            }
            prop_assert!(interner.replace_contents(bad).is_err());
            agrees(&interner, &reference, &order)?;

            // A successful one installs the prefix, and interning carries on
            // at the next index.
            let kept = order[..cut].to_vec();
            interner.replace_contents(kept.clone()).map_err(|e| e.to_string())?;
            let reference: HashMap<(u16, u8), usize> =
                kept.iter().enumerate().map(|(i, &s)| (s, i)).collect();
            agrees(&interner, &reference, &kept)?;
            for &s in &order[cut..] {
                prop_assert_eq!(interner.try_get(interner.len()), None);
                let i = interner.intern(s);
                prop_assert_eq!(i, interner.len() - 1, "a forgotten state is new again");
            }
            prop_assert_eq!(interner.len(), order.len());
            for &s in &order {
                prop_assert!(interner.intern(s) < order.len());
            }
        }
    }
}
