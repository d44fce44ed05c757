//! Typed agent-state codecs and the decoded per-agent stint engine.
//!
//! The hybrid engine ([`HybridSimulator`](crate::HybridSimulator)) migrates a
//! run to per-agent simulation when the count representation degenerates.
//! Stepping **dense `u32` indices** there would walk every interaction of a
//! dynamic protocol through decode → interact → re-encode in the
//! [`StateInterner`](crate::StateInterner) (two `RwLock`ed map probes and two
//! SipHash evaluations per interaction), which cost a measured ~40 % of the
//! `CountExact` refinement leg at `n = 10⁵` — exactly the `Θ(n)`-live-loads
//! regime where per-agent simulation carries the run.
//!
//! This module keeps the interner out of that hot loop:
//!
//! * [`AgentCodec`] is an optional extension of
//!   [`DenseProtocol`]: a bijection
//!   `decode: index → native state` / `encode: state → index` (interning only
//!   on encode) plus a **native protocol** ([`AgentCodec::Native`]) whose
//!   monomorphic [`Protocol::interact`] steps the decoded structs directly.
//! * [`DecodedStint`] is the per-agent engine the hybrid engine runs between
//!   migrations: it holds a `Vec` of native structs, steps them with
//!   `Protocol::interact` — no interner lookup, no δ-memo probe — and
//!   consults the codec only at the migration boundaries (expand on
//!   dense → agent, tally + intern on agent → dense), so the hand-off stays
//!   the exact Markov-in-configuration transfer.
//! * [`IndexCodec`] is the fallback codec for protocols without a native
//!   decoding: the "native" state is the dense index itself, and stepping
//!   goes through [`DenseProtocol::transition`](crate::DenseProtocol).  As a
//!   plain [`Protocol`] it also runs dense protocols on the sequential
//!   [`Simulator`](crate::Simulator).
//! * [`StintSource`] says where a stint starts — a configuration to expand
//!   or bytes a checkpoint saved — so one hook,
//!   [`DenseProtocol::agent_stint`], covers both construction and restore.
//!
//! # The incremental census
//!
//! The hybrid monitor needs the occupancy `q_occ` (distinct live states) in
//! per-agent mode too.  Instead of sorting a copy of the state vector at
//! every observation (`O(n log n)`), the stint maintains the census
//! **incrementally**: a per-agent vector of 64-bit state hashes and a
//! hash-keyed multiplicity map are updated as interactions change states, so
//! an observation reads a counter in `O(1)`.  Keying by hash makes the
//! census an undercount when two distinct states collide in 64 bits — a
//! `~q_occ²/2⁶⁴` event that can only nudge the monitor's signal, never the
//! simulated process.
//!
//! # Example
//!
//! A protocol whose dense indices decode into a native struct; the stint
//! steps the structs and round-trips exactly:
//!
//! ```rust
//! use ppsim::stint::{AgentCodec, AgentStint, DecodedStint};
//! use ppsim::snapshot::SnapshotReader;
//! use ppsim::{DenseProtocol, PersistState, Protocol};
//! use rand::rngs::SmallRng;
//!
//! /// Parity counter: dense index = (count, flag) packed as 2*count + flag.
//! #[derive(Debug, Clone, Copy)]
//! struct Packed;
//! #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
//! struct Native { count: u8, flag: bool }
//!
//! // Native states are checkpointable field-by-field, so stints taken
//! // mid-run can be persisted (see `ppsim::snapshot`).
//! impl PersistState for Native {
//!     fn persist(&self, out: &mut Vec<u8>) {
//!         self.count.persist(out);
//!         self.flag.persist(out);
//!     }
//!     fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, ppsim::SimError> {
//!         Ok(Native { count: r.read()?, flag: r.read()? })
//!     }
//! }
//!
//! impl Protocol for Packed {
//!     type State = Native;
//!     type Output = bool;
//!     fn initial_state(&self) -> Native { Native { count: 0, flag: false } }
//!     fn interact(&self, u: &mut Native, v: &mut Native, _rng: &mut SmallRng) {
//!         u.count = (u.count + 1) % 8;
//!         u.flag = v.flag;
//!     }
//!     fn output(&self, s: &Native) -> bool { s.flag }
//! }
//!
//! impl DenseProtocol for Packed {
//!     type Output = bool;
//!     fn num_states(&self) -> usize { 16 }
//!     fn initial_state(&self) -> usize { 0 }
//!     fn transition(&self, u: usize, v: usize) -> (usize, usize) {
//!         let (mut a, mut b) = (self.decode_agent(u), self.decode_agent(v));
//!         let mut rng = ppsim::seeded_rng(0);
//!         Protocol::interact(self, &mut a, &mut b, &mut rng);
//!         (self.encode_agent(&a), self.encode_agent(&b))
//!     }
//!     fn output(&self, s: usize) -> bool { s % 2 == 1 }
//! }
//!
//! impl AgentCodec for Packed {
//!     type Native = Packed;
//!     fn native(&self) -> Packed { *self }
//!     fn decode_agent(&self, index: usize) -> Native {
//!         Native { count: (index / 2) as u8, flag: index % 2 == 1 }
//!     }
//!     fn encode_agent(&self, s: &Native) -> usize {
//!         2 * s.count as usize + usize::from(s.flag)
//!     }
//! }
//!
//! // decode → encode round-trips over the whole index space …
//! for i in 0..16 {
//!     assert_eq!(Packed.encode_agent(&Packed.decode_agent(i)), i);
//! }
//! // … and the stint steps native structs, tallying back to counts on demand.
//! let counts = vec![5, 3, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
//! let mut stint = DecodedStint::from_counts(Packed, &counts, 7);
//! stint.run(1_000);
//! assert_eq!(stint.counts().iter().sum::<u64>(), 10);
//! ```

// Deterministic build hashers throughout; maps are lookup-only and
// never iterated in replay-sensitive paths. ppcheck: allow(hashmap-iter)
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::config::ConfigurationStats;
use crate::dense::DenseProtocol;
use crate::error::SimError;
use crate::protocol::Protocol;
use crate::rng::seeded_rng;
use crate::scheduler::{Scheduler, UniformScheduler};
use crate::snapshot::{persist_rng, unpersist_rng, PersistState, SnapshotReader};

use rand::rngs::SmallRng;
use rand::Rng;

/// A multiplicative word hasher (FxHash-style) for the stint's census: state
/// structs are hashed word-at-a-time far faster than SipHash, and the census
/// is engine-private so no untrusted keys reach it.
#[derive(Debug, Default, Clone)]
pub(crate) struct StateHasher(u64);

impl Hasher for StateHasher {
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

/// Hash a state value with the census hasher.
fn state_hash<S: Hash>(state: &S) -> u64 {
    let mut h = StateHasher::default();
    state.hash(&mut h);
    h.finish()
}

/// The census multiplicity map: 64-bit state hash → number of agents.
type Census = HashMap<u64, u64, BuildHasherDefault<StateHasher>>;

/// An optional extension of [`DenseProtocol`]: a typed codec between dense
/// state indices and **native per-agent structs**, plus a native protocol
/// stepping those structs with the monomorphic [`Protocol::interact`].
///
/// Implementing this trait lets the hybrid engine run its per-agent stints on
/// [`DecodedStint`] — native structs in a `Vec`, zero interner traffic per
/// interaction — instead of the interned `u32` fallback.  Implementers also
/// override [`DenseProtocol::agent_stint`] to hand the engine the stint
/// (one line: `Some(DecodedStint::boxed(self.clone(), source))`).
///
/// # Contract
///
/// * `encode_agent(&decode_agent(i)) == i` for every assigned index `i`
///   (assigned = any index the protocol has handed out; for interned
///   protocols that is `0..discovered`, for arithmetic packings `0..q`).
/// * `decode → Native::interact → encode` must agree with
///   [`DenseProtocol::transition`] on assigned indices — the decoded stint
///   and the interned path must bisimulate (property-tested per protocol in
///   this workspace).
/// * `Native::output(decode_agent(i)) == DenseProtocol::output(i)`.
///
/// Encoding may **intern**: for interner-backed protocols `encode_agent`
/// assigns fresh indices on first appearance.  The decoded stint encodes
/// only at migration boundaries, so a stint that mints `Θ(n)` transient
/// states never pushes them through the interner.
pub trait AgentCodec: DenseProtocol + Clone + Send + 'static {
    /// The native protocol stepping decoded states; its `State` is the
    /// decoded per-agent struct and its `Output` matches the dense output.
    type Native: Protocol<Output = <Self as DenseProtocol>::Output> + Clone + Send;

    /// The native protocol value (shares any interner/parameters with
    /// `self`).
    fn native(&self) -> Self::Native;

    /// Decode a dense index into the native per-agent state.
    ///
    /// # Panics
    ///
    /// May panic if `index` has not been assigned to any state (interned
    /// protocols assign lazily).
    fn decode_agent(&self, index: usize) -> <Self::Native as Protocol>::State;

    /// Decode a dense index, returning `None` when the index has no state
    /// behind it (unassigned interned index or out of range).
    ///
    /// The default bounds-checks against [`num_states`](DenseProtocol::num_states)
    /// and decodes — correct only for **total** encodings where every index
    /// below `num_states()` is assigned (arithmetic packings like the dense
    /// backup counter).  Interner-backed codecs report their *capacity* as
    /// `num_states()`, so they **must** override this with a non-panicking
    /// lookup (e.g. [`StateInterner::try_get`](crate::StateInterner::try_get),
    /// as every interned codec in this workspace does) — otherwise
    /// [`AgentStint::count_of`] on an unassigned index would panic instead
    /// of returning 0.
    fn try_decode_agent(&self, index: usize) -> Option<<Self::Native as Protocol>::State> {
        if index < self.num_states() {
            Some(self.decode_agent(index))
        } else {
            None
        }
    }

    /// Encode a native state as its dense index, interning it on first
    /// appearance for interner-backed protocols.
    fn encode_agent(&self, state: &<Self::Native as Protocol>::State) -> usize;

    /// A short label for reports: which representation the stint steps.
    fn stint_label(&self) -> &'static str {
        "decoded"
    }
}

/// Where a per-agent stint starts: the input of
/// [`DenseProtocol::agent_stint`] and [`DecodedStint::boxed`].
#[derive(Debug, Clone, Copy)]
pub enum StintSource<'a> {
    /// Expand this dense configuration into agents (in state-index order),
    /// seeding the stint's schedule RNG with `seed`.
    Counts {
        /// The configuration's state counts.
        counts: &'a [u64],
        /// Seed of the stint's schedule RNG.
        seed: u64,
    },
    /// Rebuild the stint whose replay state [`AgentStint::save_stint`]
    /// wrote into these bytes.
    Saved(&'a [u8]),
}

/// The driving surface the hybrid engine needs from a per-agent stint,
/// object-safe so protocols can hand back their own monomorphised stint
/// ([`DenseProtocol::agent_stint`]) without the engine naming the state type.
pub trait AgentStint<O>: fmt::Debug + Send {
    /// Execute `budget` further interactions.
    fn run(&mut self, budget: u64);
    /// Interactions executed by this stint so far.
    fn interactions(&self) -> u64;
    /// The population size `n`.
    fn population(&self) -> usize;
    /// Distinct live states (the monitor's occupancy signal), maintained
    /// incrementally — `O(1)` to read.  An undercount by the number of
    /// 64-bit state-hash collisions (`~q_occ²/2⁶⁴`, negligible).
    fn occupied_states(&self) -> usize;
    /// Tally the configuration back into dense state counts, interning any
    /// states minted since the stint began (the agent → dense boundary).
    fn counts(&self) -> Vec<u64>;
    /// Number of agents currently in the state behind dense index `state`
    /// (`0` if the index has no state behind it).
    fn count_of(&self, state: usize) -> u64;
    /// Output histogram of the current configuration.
    fn output_stats(&self) -> ConfigurationStats<O>;
    /// Move `k` agents from the state behind index `from` to the state
    /// behind index `to` (experiment setup).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if either index has no state
    /// behind it or fewer than `k` agents are in `from`.
    fn transfer(&mut self, from: usize, to: usize, k: u64) -> Result<(), SimError>;
    /// Corrupt `k` agents chosen uniformly without replacement: each
    /// victim's state is replaced by the state behind the dense index
    /// `new_state(current_index, rng)`, decoded through the codec — the
    /// per-agent arm of [`crate::adversary`] fault injection.  All
    /// randomness comes from the caller's `rng`, never from the stint's
    /// schedule RNG.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if `k` exceeds the population
    /// or `new_state` returns an index with no state behind it (the
    /// configuration may be partially corrupted in that case).
    fn corrupt(
        &mut self,
        k: u64,
        rng: &mut SmallRng,
        new_state: &mut dyn FnMut(usize, &mut SmallRng) -> usize,
    ) -> Result<(), SimError>;
    /// Which representation this stint steps (`"decoded"` or `"interned"`).
    fn kind(&self) -> &'static str;
    /// Clone into a fresh box (object-safe `Clone`).
    fn box_clone(&self) -> BoxedAgentStint<O>;
    /// Append this stint's full replay state — interaction count, schedule
    /// RNG, per-agent native states — to `out` (see [`crate::snapshot`]).
    ///
    /// The bytes are restored through [`DenseProtocol::agent_stint`] with
    /// [`StintSource::Saved`] (for codec-bearing protocols, via
    /// [`DecodedStint::boxed`]).
    /// The census and hashes are *not* serialized: they are pure functions of
    /// the state vector and are rebuilt on restore.
    fn save_stint(&self, out: &mut Vec<u8>);
}

/// A boxed per-agent stint, the form [`DenseProtocol::agent_stint`] returns
/// and the hybrid engine drives.
pub type BoxedAgentStint<O> = Box<dyn AgentStint<O>>;

impl<O> Clone for BoxedAgentStint<O> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// A per-agent stint over **native structs**: a `Vec` of decoded states
/// stepped by the codec's native [`Protocol::interact`], with the occupancy
/// census maintained incrementally (see the module docs).
///
/// Construction decodes each occupied index once and fans the struct out by
/// its multiplicity (the dense → agent boundary); [`Self::counts`] encodes
/// each agent back (the agent → dense boundary, deduplicated so each
/// distinct state hits the interner once).  In between, the codec is never
/// consulted.
pub struct DecodedStint<P: AgentCodec> {
    codec: P,
    native: P::Native,
    states: Vec<<P::Native as Protocol>::State>,
    /// Census hash of each agent's current state (avoids re-hashing the
    /// pre-interaction state on updates).
    hashes: Vec<u64>,
    census: Census,
    occupied: usize,
    scheduler: UniformScheduler,
    rng: SmallRng,
    interactions: u64,
}

impl<P: AgentCodec> DecodedStint<P> {
    /// Expand a dense counts configuration into a per-agent stint, seeding
    /// the schedule RNG with `seed`.  Agents are laid out in state-index
    /// order — a fixed, representation-independent layout, so the hand-off
    /// is a pure function of the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the population (the sum of `counts`) is below 2 or if an
    /// occupied index has no state behind it.
    #[must_use]
    pub fn from_counts(codec: P, counts: &[u64], seed: u64) -> Self {
        let n: u64 = counts.iter().sum();
        assert!(n >= 2, "a population needs at least two agents, got {n}");
        let mut states = Vec::with_capacity(n as usize);
        for (s, &c) in counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
            let state = codec.decode_agent(s);
            states.extend(std::iter::repeat_n(state, c as usize));
        }
        Self::from_states(codec, states, seeded_rng(seed), 0)
    }

    /// A stint over `states` that resumes the schedule from `rng` after
    /// `interactions` steps; the census, hashes and occupancy counter are
    /// computed from the states.
    fn from_states(
        codec: P,
        states: Vec<<P::Native as Protocol>::State>,
        rng: SmallRng,
        interactions: u64,
    ) -> Self {
        let hashes: Vec<u64> = states.iter().map(state_hash).collect();
        let mut census = Census::default();
        for &h in &hashes {
            *census.entry(h).or_insert(0) += 1;
        }
        DecodedStint {
            native: codec.native(),
            codec,
            states,
            hashes,
            occupied: census.len(),
            census,
            scheduler: UniformScheduler::new(),
            rng,
            interactions,
        }
    }

    /// Build a boxed stint from `source` — the one-line body of
    /// [`DenseProtocol::agent_stint`] overrides.  [`StintSource::Counts`]
    /// expands the configuration ([`Self::from_counts`]);
    /// [`StintSource::Saved`] rebuilds a stint from
    /// [`AgentStint::save_stint`] bytes, recomputing the census, hashes and
    /// occupancy counter from the state vector rather than trusting them.
    ///
    /// # Errors
    ///
    /// [`SimError`] variants describing truncated, trailing, or
    /// population-degenerate saved bytes (a `Counts` source never fails).
    ///
    /// # Panics
    ///
    /// As [`Self::from_counts`] for a `Counts` source.
    pub fn boxed(
        codec: P,
        source: StintSource<'_>,
    ) -> Result<BoxedAgentStint<<P as DenseProtocol>::Output>, SimError>
    where
        <P as DenseProtocol>::Output: 'static,
        P::Native: 'static,
        <P::Native as Protocol>::State: PersistState,
    {
        let bytes = match source {
            StintSource::Counts { counts, seed } => {
                return Ok(Box::new(Self::from_counts(codec, counts, seed)))
            }
            StintSource::Saved(bytes) => bytes,
        };
        let mut r = SnapshotReader::new(bytes);
        let interactions = r.read::<u64>()?;
        let rng = unpersist_rng(&mut r)?;
        let states = r.read::<Vec<<P::Native as Protocol>::State>>()?;
        r.finish()?;
        if states.len() < 2 {
            return Err(SimError::SnapshotCorrupt {
                reason: format!("per-agent stint population {} is below 2", states.len()),
            });
        }
        Ok(Box::new(Self::from_states(
            codec,
            states,
            rng,
            interactions,
        )))
    }

    /// The codec this stint decodes/encodes through.
    #[must_use]
    pub fn codec(&self) -> &P {
        &self.codec
    }

    /// Borrow the native per-agent states.
    #[must_use]
    pub fn states(&self) -> &[<P::Native as Protocol>::State] {
        &self.states
    }

    /// Execute exactly one interaction and maintain the census.
    pub fn step(&mut self) {
        let n = self.states.len();
        let (i, j) = self.scheduler.next_pair(n, &mut self.rng);
        debug_assert_ne!(i, j);
        let (a, b) = if i < j {
            let (lo, hi) = self.states.split_at_mut(j);
            (&mut lo[i], &mut hi[0])
        } else {
            let (lo, hi) = self.states.split_at_mut(i);
            (&mut hi[0], &mut lo[j])
        };
        self.native.interact(a, b, &mut self.rng);
        self.interactions += 1;
        self.refresh_census(i);
        self.refresh_census(j);
    }

    /// Re-census agent `idx` after a possible state change.
    fn refresh_census(&mut self, idx: usize) {
        let new_hash = state_hash(&self.states[idx]);
        let old_hash = self.hashes[idx];
        if new_hash == old_hash {
            return;
        }
        match self.census.entry(old_hash) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                *e.get_mut() -= 1;
                if *e.get() == 0 {
                    e.remove();
                    self.occupied -= 1;
                }
            }
            std::collections::hash_map::Entry::Vacant(_) => {
                unreachable!("census lost track of a live state hash")
            }
        }
        let slot = self.census.entry(new_hash).or_insert(0);
        if *slot == 0 {
            self.occupied += 1;
        }
        *slot += 1;
        self.hashes[idx] = new_hash;
    }
}

impl<P: AgentCodec> Clone for DecodedStint<P>
where
    P::Native: Clone,
{
    fn clone(&self) -> Self {
        DecodedStint {
            codec: self.codec.clone(),
            native: self.native.clone(),
            states: self.states.clone(),
            hashes: self.hashes.clone(),
            census: self.census.clone(),
            occupied: self.occupied,
            scheduler: self.scheduler,
            rng: self.rng.clone(),
            interactions: self.interactions,
        }
    }
}

impl<P: AgentCodec> fmt::Debug for DecodedStint<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DecodedStint")
            .field("kind", &self.codec.stint_label())
            .field("population", &self.states.len())
            .field("interactions", &self.interactions)
            .field("occupied", &self.occupied)
            .finish_non_exhaustive()
    }
}

impl<P> AgentStint<<P as DenseProtocol>::Output> for DecodedStint<P>
where
    P: AgentCodec,
    P::Native: 'static,
    <P as DenseProtocol>::Output: 'static,
    <P::Native as Protocol>::State: PersistState,
{
    fn run(&mut self, budget: u64) {
        for _ in 0..budget {
            self.step();
        }
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn population(&self) -> usize {
        self.states.len()
    }

    fn occupied_states(&self) -> usize {
        self.occupied
    }

    fn counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.codec.num_states()];
        // Deduplicate through a local index cache so each distinct state
        // hits the (locked, SipHashed) interner once, not once per agent.
        let mut index_of: HashMap<
            <P::Native as Protocol>::State,
            usize,
            BuildHasherDefault<StateHasher>,
        > = HashMap::default();
        for state in &self.states {
            let idx = *index_of
                .entry(state.clone())
                .or_insert_with(|| self.codec.encode_agent(state));
            counts[idx] += 1;
        }
        counts
    }

    fn count_of(&self, state: usize) -> u64 {
        match self.codec.try_decode_agent(state) {
            Some(target) => self.states.iter().filter(|&s| *s == target).count() as u64,
            None => 0,
        }
    }

    fn output_stats(&self) -> ConfigurationStats<<P as DenseProtocol>::Output> {
        ConfigurationStats::from_states(&self.native, &self.states)
    }

    fn transfer(&mut self, from: usize, to: usize, k: u64) -> Result<(), SimError> {
        let from_state = self.codec.try_decode_agent(from);
        let to_state = self.codec.try_decode_agent(to);
        let (Some(from_state), Some(to_state)) = (from_state, to_state) else {
            return Err(SimError::InvalidParameter {
                name: "transfer",
                reason: format!(
                    "states ({from}, {to}) outside the assigned state space 0..{}",
                    self.codec.num_states()
                ),
            });
        };
        let available = self.states.iter().filter(|&s| *s == from_state).count() as u64;
        if available < k {
            return Err(SimError::InvalidParameter {
                name: "transfer",
                reason: format!("cannot move {k} agents out of state {from} holding {available}"),
            });
        }
        let mut moved = 0u64;
        for idx in 0..self.states.len() {
            if moved == k {
                break;
            }
            if self.states[idx] == from_state {
                self.states[idx] = to_state.clone();
                moved += 1;
                self.refresh_census(idx);
            }
        }
        Ok(())
    }

    fn corrupt(
        &mut self,
        k: u64,
        rng: &mut SmallRng,
        new_state: &mut dyn FnMut(usize, &mut SmallRng) -> usize,
    ) -> Result<(), SimError> {
        let n = self.states.len();
        if k > n as u64 {
            return Err(SimError::InvalidParameter {
                name: "corrupt",
                reason: format!("cannot corrupt {k} of {n} agents"),
            });
        }
        // Partial Fisher–Yates: after `k` swap steps the prefix of `idx` is
        // a uniform k-subset of the agents, in a uniform order.
        let mut idx: Vec<usize> = (0..n).collect();
        for v in 0..k as usize {
            let swap = v + rng.gen_range(0..n - v);
            idx.swap(v, swap);
            let victim = idx[v];
            let current = self.codec.encode_agent(&self.states[victim]);
            let target = new_state(current, rng);
            let state =
                self.codec
                    .try_decode_agent(target)
                    .ok_or_else(|| SimError::InvalidParameter {
                        name: "corrupt",
                        reason: format!(
                            "target state {target} outside the assigned state space 0..{}",
                            self.codec.num_states()
                        ),
                    })?;
            self.states[victim] = state;
            self.refresh_census(victim);
        }
        Ok(())
    }

    fn kind(&self) -> &'static str {
        self.codec.stint_label()
    }

    fn box_clone(&self) -> BoxedAgentStint<<P as DenseProtocol>::Output> {
        Box::new(self.clone())
    }

    fn save_stint(&self, out: &mut Vec<u8>) {
        self.interactions.persist(out);
        persist_rng(&self.rng, out);
        self.states.persist(out);
    }
}

/// The identity codec over dense indices: the "native" state *is* the `u32`
/// index and stepping goes through [`DenseProtocol::transition`] — for
/// interned protocols, straight through the interner.
///
/// It serves two engines.  The hybrid engine falls back to
/// `DecodedStint<IndexCodec<P>>` for protocols that do not override
/// [`DenseProtocol::agent_stint`] (stint kind `"interned"`), and the
/// sequential variant of [`DenseSimulator`](crate::DenseSimulator) is a
/// `Simulator<IndexCodec<P>>`: a `Simulator` over this codec executes
/// exactly the transition system a `BatchedSimulator<P>` does, so the two
/// engines differ only in how they sample the schedule, which is what the
/// equivalence tests exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexCodec<P>(pub P);

impl<P: DenseProtocol> Protocol for IndexCodec<P> {
    type State = u32;
    type Output = <P as DenseProtocol>::Output;

    fn initial_state(&self) -> u32 {
        // Dense index spaces are bounded well below u32::MAX. ppcheck: allow(no-unwrap)
        u32::try_from(self.0.initial_state()).expect("dense state spaces fit in u32")
    }

    fn interact(&self, initiator: &mut u32, responder: &mut u32, _rng: &mut SmallRng) {
        let (a, b) = self.0.transition(*initiator as usize, *responder as usize);
        *initiator = a as u32;
        *responder = b as u32;
    }

    fn output(&self, state: &u32) -> Self::Output {
        self.0.output(*state as usize)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl<P: DenseProtocol> DenseProtocol for IndexCodec<P> {
    type Output = <P as DenseProtocol>::Output;

    fn num_states(&self) -> usize {
        self.0.num_states()
    }
    fn initial_state(&self) -> usize {
        self.0.initial_state()
    }
    fn transition(&self, initiator: usize, responder: usize) -> (usize, usize) {
        self.0.transition(initiator, responder)
    }
    fn output(&self, state: usize) -> Self::Output {
        self.0.output(state)
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn dynamic(&self) -> bool {
        self.0.dynamic()
    }
    fn discovered_states(&self) -> Option<usize> {
        self.0.discovered_states()
    }
}

impl<P: DenseProtocol + Clone + Send + 'static> AgentCodec for IndexCodec<P> {
    type Native = IndexCodec<P>;

    fn native(&self) -> Self::Native {
        self.clone()
    }

    fn decode_agent(&self, index: usize) -> u32 {
        // Dense index spaces are bounded well below u32::MAX. ppcheck: allow(no-unwrap)
        u32::try_from(index).expect("dense state spaces fit in u32")
    }

    fn encode_agent(&self, state: &u32) -> usize {
        *state as usize
    }

    fn stint_label(&self) -> &'static str {
        "interned"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-state one-way epidemic on dense indices.
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

    #[test]
    fn index_codec_round_trips_and_steps_the_dense_transition() {
        let codec = IndexCodec(Rumor);
        for i in 0..2 {
            assert_eq!(codec.encode_agent(&codec.decode_agent(i)), i);
        }
        let mut u = 0u32;
        let mut v = 1u32;
        let mut rng = seeded_rng(0);
        Protocol::interact(&codec, &mut u, &mut v, &mut rng);
        assert_eq!((u, v), (1, 1));
    }

    #[test]
    fn stint_preserves_the_configuration_mass_and_counts_interactions() {
        let counts = vec![9_999u64, 1];
        let mut stint = DecodedStint::from_counts(IndexCodec(Rumor), &counts, 3);
        assert_eq!(stint.population(), 10_000);
        assert_eq!(stint.occupied_states(), 2);
        stint.run(5_000);
        assert_eq!(stint.interactions(), 5_000);
        let tallied = stint.counts();
        assert_eq!(tallied.iter().sum::<u64>(), 10_000);
        assert_eq!(tallied.len(), 2);
    }

    #[test]
    fn census_tracks_occupancy_to_saturation() {
        let counts = vec![499u64, 1];
        let mut stint = DecodedStint::from_counts(IndexCodec(Rumor), &counts, 11);
        // Run the epidemic to saturation: occupancy collapses 2 → 1.
        while stint.count_of(1) < 500 {
            stint.run(1_000);
        }
        assert_eq!(stint.occupied_states(), 1);
        assert_eq!(stint.counts(), vec![0, 500]);
        assert_eq!(stint.output_stats().count_of(&true), 500);
    }

    #[test]
    fn stint_matches_the_sequential_simulator_trajectory_exactly() {
        // Same seed, same scheduler, same RNG consumption: the decoded stint
        // over the identity codec must replicate Simulator<IndexCodec<_>>
        // (the sequential dense engine) bit for bit.
        use crate::simulator::Simulator;
        let n = 300usize;
        let mut reference = Simulator::new(IndexCodec(Rumor), n, 42).unwrap();
        // The stint lays agents out in state-index order, so the one infected
        // agent sits at the *end* of its vector — lay the reference out the
        // same way so the two per-agent vectors can be compared directly.
        reference.states_mut()[n - 1] = 1;
        let counts = vec![n as u64 - 1, 1];
        let mut stint = DecodedStint::from_counts(IndexCodec(Rumor), &counts, 42);
        for _ in 0..50 {
            reference.run(100);
            stint.run(100);
            assert_eq!(reference.states(), stint.states());
        }
    }

    #[test]
    fn transfer_moves_agents_and_validates() {
        let counts = vec![10u64, 0];
        let mut stint = DecodedStint::from_counts(IndexCodec(Rumor), &counts, 0);
        assert!(stint.transfer(0, 1, 11).is_err());
        assert!(stint.transfer(0, 5, 1).is_err());
        stint.transfer(0, 1, 4).unwrap();
        assert_eq!(stint.count_of(1), 4);
        assert_eq!(stint.occupied_states(), 2);
        assert_eq!(stint.counts(), vec![6, 4]);
    }

    #[test]
    fn boxed_stints_clone_and_report_their_kind() {
        let counts = vec![5u64, 5];
        let source = StintSource::Counts {
            counts: &counts,
            seed: 1,
        };
        let stint: BoxedAgentStint<bool> = DecodedStint::boxed(IndexCodec(Rumor), source).unwrap();
        assert_eq!(stint.kind(), "interned");
        let mut copy = stint.clone();
        copy.run(100);
        assert_eq!(stint.interactions(), 0, "clone is independent");
        assert_eq!(copy.interactions(), 100);
    }

    #[test]
    fn saved_stints_restore_and_replay_bit_identically() {
        let counts = vec![499u64, 1];
        let mut reference = DecodedStint::from_counts(IndexCodec(Rumor), &counts, 11);
        reference.run(1_000);
        let mut bytes = Vec::new();
        reference.save_stint(&mut bytes);

        let mut restored =
            DecodedStint::boxed(IndexCodec(Rumor), StintSource::Saved(&bytes)).unwrap();
        assert_eq!(restored.interactions(), 1_000);
        assert_eq!(restored.occupied_states(), reference.occupied_states());
        assert_eq!(restored.counts(), reference.counts());

        reference.run(2_000);
        restored.run(2_000);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        reference.save_stint(&mut a);
        restored.save_stint(&mut b);
        assert_eq!(a, b, "resumed stint diverged from the uninterrupted one");
    }

    #[test]
    fn saved_stints_reject_truncated_and_degenerate_payloads() {
        let counts = vec![3u64, 1];
        let stint = DecodedStint::from_counts(IndexCodec(Rumor), &counts, 0);
        let mut bytes = Vec::new();
        stint.save_stint(&mut bytes);
        let truncated = StintSource::Saved(&bytes[..bytes.len() - 1]);
        assert!(DecodedStint::boxed(IndexCodec(Rumor), truncated).is_err());

        let lonely = DecodedStint::from_states(IndexCodec(Rumor), vec![0u32], seeded_rng(0), 0);
        let mut bytes = Vec::new();
        lonely.save_stint(&mut bytes);
        assert!(matches!(
            DecodedStint::boxed(IndexCodec(Rumor), StintSource::Saved(&bytes)),
            Err(SimError::SnapshotCorrupt { .. })
        ));
    }

    #[test]
    fn state_hasher_distinguishes_field_orderings() {
        // Sanity: the word-mixer is order-sensitive (rotate before xor).
        assert_ne!(state_hash(&(1u64, 2u64)), state_hash(&(2u64, 1u64)));
        assert_ne!(state_hash(&[0u8; 16]), state_hash(&[0u8; 24]));
    }
}
