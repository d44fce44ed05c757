//! Collision-free block primitives shared by the batched and sharded engines.
//!
//! Both [`BatchedSimulator`](crate::BatchedSimulator) and
//! [`ShardedBatchedSimulator`](crate::ShardedBatchedSimulator) advance a
//! counts-vector configuration by blocks of interactions on pairwise-distinct
//! agents.  The pieces they share live here:
//!
//! * [`DeltaTable`] — the validated, optionally precomputed transition table;
//! * [`CountConfig`] — the configuration (counts, occupied list, outputs),
//!   its validated mutations and snapshot codec: a batched engine's and the
//!   sharded aggregate's;
//! * [`Occupancy`] — the duplicate-free list of possibly-occupied states that
//!   keeps every per-block loop `O(q_occupied)` instead of `O(q)`;
//! * [`TouchSet`] — a flat per-state accumulator for the agents a block has
//!   already touched, merged back into the configuration once per block;
//! * [`draw_one`] / [`pair_classes`] — categorical draws against a sparse
//!   multiset and the random-contingency-table pairing of initiator classes
//!   with responder classes.
//!
//! The application path is deliberately branch-light: transitions write into
//! the flat `TouchSet` accumulator indexed by state, and the occupied /
//! touched index lists confine all scans to live states, so the `O(q²)` class
//! pairing compiles to tight index arithmetic over contiguous buffers.

use std::cell::RefCell;
// Keyed memo lookups only, with a deterministic hasher; iteration
// order never feeds a simulation decision. ppcheck: allow(hashmap-iter)
use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::config::ConfigurationStats;
use crate::dense::{check_counts, DenseProtocol};
use crate::error::SimError;
use crate::interned::FxBuildHasher;
use crate::sample::{conditional_class_draw, multivariate_hypergeometric_sparse};
use crate::snapshot::{PersistState, SnapshotReader};

/// Precompute the `q × q` transition table only while it stays comfortably in
/// cache; beyond this, transitions are evaluated on the fly for the occupied
/// state pairs only.
pub(crate) const TABLE_MAX_STATES: usize = 256;

/// The `δ`-memo, keyed by `initiator << 32 | responder`.  The memo is
/// engine-private, so no untrusted keys reach its unkeyed hasher.
type PairMemo = HashMap<u64, (u32, u32), FxBuildHasher>;

/// Entry cap for the δ-pair memo.  Hits come from the small *currently
/// occupied* pair set (a few thousand entries); protocols whose state churn
/// mints fresh pairs indefinitely (e.g. a wide balancing transient) would
/// otherwise grow the map without bound.  Clearing on overflow keeps memory
/// bounded (~tens of MB) and the hot working set repopulates within a block.
const DELTA_MEMO_MAX_ENTRIES: usize = 1 << 20;

/// The transition function `δ` of a dense protocol, validated once and — for
/// table-sized state spaces — precomputed into a flat `q × q` lookup table.
///
/// Dynamic (interned) protocols get a lazily filled per-pair memo instead:
/// their `transition` walks decode → interact → re-encode through the state
/// interner, which costs hundreds of nanoseconds, while the occupied-pair
/// working set repeats heavily across consecutive blocks.  The memo is sound
/// because `δ` is pure and interned indices are stable for the lifetime of a
/// run.
#[derive(Debug, Clone)]
pub(crate) struct DeltaTable {
    q: usize,
    table: Option<Vec<(u32, u32)>>,
    memo: Option<RefCell<PairMemo>>,
}

impl DeltaTable {
    /// Validate the protocol's declared state space and build the table.
    ///
    /// Returns the same [`SimError::InvalidParameter`] diagnoses as the
    /// engines' constructors: empty state space, out-of-range initial state,
    /// or (for eagerly tabled spaces) a transition leaving `0..q`.
    pub(crate) fn new<P: DenseProtocol>(protocol: &P) -> Result<Self, SimError> {
        let q = protocol.num_states();
        if q == 0 {
            return Err(SimError::InvalidParameter {
                name: "num_states",
                reason: "the state space must not be empty".into(),
            });
        }
        let q0 = protocol.initial_state();
        if q0 >= q {
            return Err(SimError::InvalidParameter {
                name: "initial_state",
                reason: format!("initial state {q0} outside the state space 0..{q}"),
            });
        }
        // Dynamic (interned) protocols have no states behind most indices at
        // construction time, so their δ can only ever be evaluated lazily.
        let table = if q <= TABLE_MAX_STATES && !protocol.dynamic() {
            let mut t = Vec::with_capacity(q * q);
            for i in 0..q {
                for j in 0..q {
                    let (a, b) = protocol.transition(i, j);
                    if a >= q || b >= q {
                        return Err(SimError::InvalidParameter {
                            name: "transition",
                            reason: format!(
                                "δ({i}, {j}) = ({a}, {b}) leaves the state space 0..{q}"
                            ),
                        });
                    }
                    t.push((a as u32, b as u32));
                }
            }
            Some(t)
        } else {
            None
        };
        let memo = protocol
            .dynamic()
            .then(|| RefCell::new(PairMemo::default()));
        Ok(DeltaTable { q, table, memo })
    }

    /// The number of states `q` the table was validated against.
    pub(crate) fn num_states(&self) -> usize {
        self.q
    }

    /// `δ(i, j)`, via the precomputed table or the dynamic-protocol memo when
    /// available.
    #[inline]
    pub(crate) fn eval<P: DenseProtocol>(
        &self,
        protocol: &P,
        i: usize,
        j: usize,
    ) -> (usize, usize) {
        if let Some(t) = &self.table {
            let (a, b) = t[i * self.q + j];
            return (a as usize, b as usize);
        }
        if let Some(memo) = &self.memo {
            let key = (i as u64) << 32 | j as u64;
            let mut memo = memo.borrow_mut();
            if let Some(&(a, b)) = memo.get(&key) {
                return (a as usize, b as usize);
            }
            let (a, b) = protocol.transition(i, j);
            assert!(
                a < self.q && b < self.q,
                "δ({i}, {j}) = ({a}, {b}) leaves the state space 0..{}",
                self.q
            );
            if memo.len() >= DELTA_MEMO_MAX_ENTRIES {
                memo.clear();
            }
            memo.insert(key, (a as u32, b as u32));
            return (a, b);
        }
        let (a, b) = protocol.transition(i, j);
        assert!(
            a < self.q && b < self.q,
            "δ({i}, {j}) = ({a}, {b}) leaves the state space 0..{}",
            self.q
        );
        (a, b)
    }
}

/// The duplicate-free superset of `{s : counts[s] > 0}`: a dense membership
/// bitmap plus an index list, so per-block work never scans empty regions of
/// large state spaces.
#[derive(Debug, Clone)]
pub(crate) struct Occupancy {
    list: Vec<u32>,
    flags: Vec<bool>,
}

impl Occupancy {
    /// An occupancy set over `q` states with `initial` marked occupied.
    pub(crate) fn new(q: usize, initial: usize) -> Self {
        let mut flags = vec![false; q];
        flags[initial] = true;
        Occupancy {
            list: vec![initial as u32],
            flags,
        }
    }

    /// The possibly-occupied state indices (may include states whose count
    /// has dropped to zero since the last [`Self::compact`]).
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u32] {
        &self.list
    }

    /// Mark `s` as possibly occupied.
    #[inline]
    pub(crate) fn mark(&mut self, s: usize) {
        if !self.flags[s] {
            self.flags[s] = true;
            self.list.push(s as u32);
        }
    }

    /// Unmark every state, in `O(|list|)`.
    pub(crate) fn clear(&mut self) {
        for &s in &self.list {
            self.flags[s as usize] = false;
        }
        self.list.clear();
    }

    /// Drop list entries whose count is zero.
    pub(crate) fn compact(&mut self, counts: &[u64]) {
        let flags = &mut self.flags;
        self.list.retain(|&s| {
            let keep = counts[s as usize] > 0;
            if !keep {
                flags[s as usize] = false;
            }
            keep
        });
    }

    /// Rebuild from scratch to match `counts` exactly.
    pub(crate) fn rebuild(&mut self, counts: &[u64]) {
        self.list.clear();
        self.flags.fill(false);
        for (s, &c) in counts.iter().enumerate() {
            if c > 0 {
                self.list.push(s as u32);
                self.flags[s] = true;
            }
        }
    }

    /// Replace the occupied list **verbatim**, in the given order, and
    /// return the list it replaced.  The membership bitmap follows in
    /// `O(old list + new list)`, never `O(q)`.
    ///
    /// [`Self::rebuild`] orders the list by state index, but the engines'
    /// categorical draws ([`draw_one`], the hypergeometric splits) iterate
    /// the list in *discovery* order — so the list order is part of the
    /// trajectory, and a snapshot restore has to reproduce it exactly rather
    /// than re-derive a sorted one.
    ///
    /// # Errors
    ///
    /// [`SimError::SnapshotCorrupt`] if an entry is not below `assigned`
    /// (at most `q`: a dynamic protocol has no state behind an index its
    /// interner never assigned) or appears twice.  The occupancy is then
    /// left as it was.
    pub(crate) fn restore_list(
        &mut self,
        list: Vec<u32>,
        assigned: usize,
    ) -> Result<Vec<u32>, SimError> {
        debug_assert!(assigned <= self.flags.len());
        for &s in &self.list {
            self.flags[s as usize] = false;
        }
        for (k, &s) in list.iter().enumerate() {
            let reason = if s as usize >= assigned {
                format!("occupied state {s} outside the assigned states 0..{assigned}")
            } else if self.flags[s as usize] {
                format!("occupied list repeats state {s}")
            } else {
                self.flags[s as usize] = true;
                continue;
            };
            // Rejected: put the bitmap back the way the current list has it.
            for &t in &list[..k] {
                self.flags[t as usize] = false;
            }
            for &t in &self.list {
                self.flags[t as usize] = true;
            }
            return Err(SimError::SnapshotCorrupt { reason });
        }
        Ok(std::mem::replace(&mut self.list, list))
    }
}

/// The multiset of agents a block has already touched, as a flat per-state
/// accumulator plus the index list of non-zero entries.
///
/// Transitions add into `acc[state]` unconditionally-cheaply; the merge back
/// into the configuration visits exactly the touched states.
#[derive(Debug, Clone)]
pub(crate) struct TouchSet {
    acc: Vec<u64>,
    list: Vec<u32>,
}

impl TouchSet {
    /// An empty touch set over `q` states.
    pub(crate) fn new(q: usize) -> Self {
        TouchSet {
            acc: vec![0; q],
            list: Vec::new(),
        }
    }

    /// Add `k` agents in state `s`.
    #[inline]
    pub(crate) fn add(&mut self, s: usize, k: u64) {
        if self.acc[s] == 0 {
            self.list.push(s as u32);
        }
        self.acc[s] += k;
    }

    /// Remove one uniformly random agent from the touched multiset holding
    /// `total` agents, returning its state.
    pub(crate) fn draw_one(&mut self, rng: &mut SmallRng, total: u64) -> usize {
        draw_one(rng, &mut self.acc, &self.list, total)
    }

    /// Merge the accumulated agents back into `config` and reset to empty.
    pub(crate) fn merge_into<O: Clone + PartialEq>(&mut self, config: &mut CountConfig<O>) {
        for &s in &self.list {
            let s = s as usize;
            config.add(s, self.acc[s]);
            self.acc[s] = 0;
        }
        self.list.clear();
    }
}

/// A configuration of `n` agents over `q` states stored as state counts: the
/// batched engine's configuration and the sharded engine's aggregate.  The
/// occupied list keeps discovery order (new states are appended), which is
/// part of the trajectory: categorical draws iterate it.
#[derive(Debug, Clone)]
pub(crate) struct CountConfig<O> {
    q: usize,
    n: u64,
    counts: Vec<u64>,
    occupied: Occupancy,
    /// Precomputed `ω` per state; `None` for dynamic (interned) protocols,
    /// whose outputs are evaluated lazily on occupied states.
    outputs: Option<Vec<O>>,
}

impl<O: Clone + PartialEq> CountConfig<O> {
    /// `n` agents in the initial state of a protocol whose `q` states a
    /// [`DeltaTable`] validated.
    pub(crate) fn new<P: DenseProtocol<Output = O>>(protocol: &P, q: usize, n: u64) -> Self {
        let q0 = protocol.initial_state();
        let mut counts = vec![0u64; q];
        counts[q0] = n;
        CountConfig {
            q,
            n,
            counts,
            occupied: Occupancy::new(q, q0),
            outputs: (!protocol.dynamic()).then(|| (0..q).map(|s| protocol.output(s)).collect()),
        }
    }

    pub(crate) fn num_states(&self) -> usize {
        self.q
    }

    pub(crate) fn population(&self) -> u64 {
        self.n
    }

    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The possibly-occupied states, in discovery order.
    pub(crate) fn occupied(&self) -> &[u32] {
        self.occupied.as_slice()
    }

    pub(crate) fn count_of(&self, state: usize) -> u64 {
        self.counts.get(state).copied().unwrap_or(0)
    }

    /// The number of states holding at least one agent.
    pub(crate) fn occupied_states(&self) -> usize {
        self.occupied()
            .iter()
            .filter(|&&s| self.counts[s as usize] > 0)
            .count()
    }

    /// The output histogram, in `O(q_occ)`.
    pub(crate) fn output_stats<P: DenseProtocol<Output = O>>(
        &self,
        protocol: &P,
    ) -> ConfigurationStats<O> {
        ConfigurationStats::from_counts(self.occupied().iter().filter_map(|&s| {
            let c = self.counts[s as usize];
            (c > 0).then(|| {
                let out = match &self.outputs {
                    Some(outputs) => outputs[s as usize].clone(),
                    None => protocol.output(s as usize),
                };
                (out, c as usize)
            })
        }))
    }

    /// The checks of a `transfer` of `k` agents from `from` to `to`.
    pub(crate) fn check_transfer(&self, from: usize, to: usize, k: u64) -> Result<(), SimError> {
        let q = self.q;
        if from >= q || to >= q {
            return Err(SimError::InvalidParameter {
                name: "transfer",
                reason: format!("states ({from}, {to}) outside the state space 0..{q}"),
            });
        }
        let held = self.counts[from];
        if held < k {
            return Err(SimError::InvalidParameter {
                name: "transfer",
                reason: format!("cannot move {k} agents out of state {from} holding {held}"),
            });
        }
        Ok(())
    }

    /// Move `k` agents from `from` to `to`, unchecked.
    pub(crate) fn move_agents(&mut self, from: usize, to: usize, k: u64) {
        self.counts[from] -= k;
        self.add(to, k);
    }

    #[inline]
    pub(crate) fn add(&mut self, s: usize, k: u64) {
        self.counts[s] += k;
        self.occupied.mark(s);
    }

    /// Replace the configuration; the occupied list is rebuilt in index order.
    pub(crate) fn set_counts(&mut self, counts: Vec<u64>) -> Result<(), SimError> {
        check_counts(&counts, self.q, self.n)?;
        self.counts = counts;
        self.occupied.rebuild(&self.counts);
        Ok(())
    }

    /// The check of a `corrupt` of `k` agents.
    pub(crate) fn check_victims(&self, k: u64) -> Result<(), SimError> {
        if k > self.n {
            return Err(SimError::InvalidParameter {
                name: "corrupt",
                reason: format!("cannot corrupt {k} of {} agents", self.n),
            });
        }
        Ok(())
    }

    /// Move `k` agents drawn without replacement to `new_state(current,
    /// rng)` each; on an error the victims moved so far stay moved.
    pub(crate) fn corrupt(
        &mut self,
        k: u64,
        rng: &mut SmallRng,
        new_state: &mut dyn FnMut(usize, &mut SmallRng) -> usize,
    ) -> Result<(), SimError> {
        self.check_victims(k)?;
        let mut victims = Vec::new();
        multivariate_hypergeometric_sparse(
            rng,
            &self.counts,
            self.occupied(),
            self.n,
            k,
            &mut victims,
        );
        for (state, hit) in victims {
            let from = state as usize;
            for _ in 0..hit {
                let to = new_state(from, rng);
                if to >= self.q {
                    return Err(SimError::InvalidParameter {
                        name: "corrupt",
                        reason: format!("target state {to} outside the state space 0..{}", self.q),
                    });
                }
                self.move_agents(from, to, 1);
            }
        }
        Ok(())
    }

    /// Take `draws` agents drawn without replacement out of the `total` held,
    /// reported as `(state, k)` pairs in `out`.
    #[inline]
    pub(crate) fn take_sample(
        &mut self,
        rng: &mut SmallRng,
        total: u64,
        draws: u64,
        out: &mut Vec<(u32, u64)>,
    ) {
        multivariate_hypergeometric_sparse(rng, &self.counts, self.occupied(), total, draws, out);
        for &(s, k) in out.iter() {
            self.counts[s as usize] -= k;
        }
    }

    /// Take one uniformly random agent out of the `total` held.
    #[inline]
    pub(crate) fn take_one(&mut self, rng: &mut SmallRng, total: u64) -> usize {
        draw_one(rng, &mut self.counts, self.occupied.as_slice(), total)
    }

    pub(crate) fn compact(&mut self) {
        self.occupied.compact(&self.counts);
    }

    /// Empty the configuration, then add the `(state, count)` pairs in order.
    pub(crate) fn refill(&mut self, pairs: &[(u32, u64)]) {
        for &s in self.occupied.as_slice() {
            self.counts[s as usize] = 0;
        }
        self.occupied.clear();
        for &(s, c) in pairs {
            self.add(s as usize, c);
        }
    }

    /// Recount as the sum of `parts`, keeping this list's order.
    pub(crate) fn aggregate<'a>(&mut self, parts: impl Iterator<Item = &'a Self>)
    where
        O: 'a,
    {
        for &s in self.occupied.as_slice() {
            self.counts[s as usize] = 0;
        }
        for part in parts {
            for &s in part.occupied() {
                let c = part.counts[s as usize];
                if c > 0 {
                    self.add(s as usize, c);
                }
            }
        }
        self.compact();
    }

    /// Under `strict-invariants`: assert the configuration still holds `n`
    /// agents after a block's deltas, which catches any draw/merge
    /// bookkeeping bug that loses or duplicates an agent, at `O(q)`.
    #[cfg(feature = "strict-invariants")]
    pub(crate) fn assert_mass_conserved(&self, context: &str) {
        let total: u64 = self.counts.iter().sum();
        let n = self.n;
        assert!(
            total == n,
            "strict-invariants: {context} lost or duplicated agents ({total} != {n})"
        );
    }

    /// Write the occupied list as a `Vec<(u32, u64)>` of `(state, count)`
    /// in list order, zero counts included.
    pub(crate) fn save_occupied(&self, out: &mut Vec<u8>) {
        let occ: Vec<(u32, u64)> = self
            .occupied()
            .iter()
            .map(|&s| (s, self.counts[s as usize]))
            .collect();
        occ.persist(out);
    }

    /// Check a snapshot's population and state-space size against ours.
    pub(crate) fn check_shape(&self, n: u64, q: usize) -> Result<(), SimError> {
        let reason = if n != self.n {
            format!("snapshot population {n} != simulator population {}", self.n)
        } else if q != self.q {
            format!(
                "snapshot state space {q} != simulator state space {}",
                self.q
            )
        } else {
            return Ok(());
        };
        Err(SimError::SnapshotMismatch { reason })
    }

    /// Read what [`Self::save_occupied`] wrote for a snapshot of `n` agents
    /// over `q` states, check it, and install it verbatim in
    /// `O(old list + new list)`.  `assigned` bounds the state indices the
    /// list may name (see [`Occupancy::restore_list`]).  On an error the
    /// configuration is left as it was.
    pub(crate) fn restore_occupied(
        &mut self,
        r: &mut SnapshotReader<'_>,
        n: u64,
        q: usize,
        assigned: usize,
    ) -> Result<(), SimError> {
        let occ = r.read::<Vec<(u32, u64)>>()?;
        self.check_shape(n, q)?;
        let total: u64 = occ.iter().map(|&(_, c)| c).sum();
        if total != n {
            return Err(SimError::SnapshotCorrupt {
                reason: format!("occupied counts sum to {total}, population is {n}"),
            });
        }
        let previous = self
            .occupied
            .restore_list(occ.iter().map(|&(s, _)| s).collect(), assigned)?;
        // Every non-zero count is on the previous list, so this zeroes them all.
        for s in previous {
            self.counts[s as usize] = 0;
        }
        for &(s, c) in &occ {
            self.counts[s as usize] = c;
        }
        Ok(())
    }

    pub(crate) fn into_counts(self) -> Vec<u64> {
        self.counts
    }
}

/// Remove one uniformly random agent from the multiset `counts` restricted to
/// `list` (with total mass `total`) and return its state.
pub(crate) fn draw_one(rng: &mut SmallRng, counts: &mut [u64], list: &[u32], total: u64) -> usize {
    debug_assert!(total > 0);
    let mut x = rng.gen_range(0..total);
    for &s in list {
        let c = counts[s as usize];
        if x < c {
            counts[s as usize] -= 1;
            return s as usize;
        }
        x -= c;
    }
    unreachable!("categorical draw beyond total mass");
}

/// Pair initiator classes with responder classes uniformly at random — a
/// random contingency table with the given margins — and report each
/// `(initiator_state, responder_state, multiplicity)` cell to `apply`.
///
/// `resp_pairs` holds `total_responders = Σ init multiplicities` responders
/// and is consumed (multiplicities drained to zero).  The scan start advances
/// past exhausted leading responder classes, so the loop cost is `O(q_occ²)`
/// worst case but `O(q_occ)` amortised once early classes drain.
pub(crate) fn pair_classes(
    rng: &mut SmallRng,
    init_pairs: &[(u32, u64)],
    resp_pairs: &mut [(u32, u64)],
    total_responders: u64,
    mut apply: impl FnMut(usize, usize, u64),
) {
    let mut resp_left = total_responders;
    let mut start = 0usize;
    for &(i, di) in init_pairs {
        while start < resp_pairs.len() && resp_pairs[start].1 == 0 {
            start += 1;
        }
        // Invariant: the responder pool still holds exactly `resp_left`
        // agents, of which this initiator class draws `di ≤ resp_left`.
        let mut rem_total = resp_left;
        let mut need = di;
        for pair in resp_pairs[start..].iter_mut() {
            if need == 0 {
                break;
            }
            let (j, rj) = *pair;
            if rj == 0 {
                continue;
            }
            let k = conditional_class_draw(rng, rj, rem_total, need);
            rem_total -= rj;
            if k > 0 {
                pair.1 -= k;
                need -= k;
                apply(i as usize, j as usize, k);
            }
        }
        debug_assert_eq!(need, 0);
        resp_left -= di;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    /// Three states; the transition swaps the pair.
    struct Swap;
    impl DenseProtocol for Swap {
        type Output = usize;
        fn num_states(&self) -> usize {
            3
        }
        fn initial_state(&self) -> usize {
            0
        }
        fn transition(&self, u: usize, v: usize) -> (usize, usize) {
            (v, u)
        }
        fn output(&self, s: usize) -> usize {
            s
        }
    }

    #[test]
    fn occupancy_marks_compacts_and_rebuilds() {
        let mut occ = Occupancy::new(5, 2);
        assert_eq!(occ.as_slice(), &[2]);
        occ.mark(4);
        occ.mark(4); // idempotent
        assert_eq!(occ.as_slice(), &[2, 4]);
        let counts = [0u64, 0, 0, 0, 7];
        occ.compact(&counts);
        assert_eq!(occ.as_slice(), &[4]);
        occ.rebuild(&[1, 0, 3, 0, 0]);
        assert_eq!(occ.as_slice(), &[0, 2]);
        occ.mark(0); // still marked after rebuild: no duplicate
        assert_eq!(occ.as_slice(), &[0, 2]);
    }

    #[test]
    fn occupancy_restores_a_verbatim_list_order() {
        let mut occ = Occupancy::new(6, 0);
        assert_eq!(occ.restore_list(vec![4, 1, 3], 6).unwrap(), vec![0]);
        assert_eq!(occ.as_slice(), &[4, 1, 3], "discovery order is preserved");
        occ.mark(1); // already present: no duplicate
        assert_eq!(occ.as_slice(), &[4, 1, 3]);
        occ.mark(5);
        assert_eq!(occ.as_slice(), &[4, 1, 3, 5]);

        let mut occ = Occupancy::new(4, 0);
        assert!(occ.restore_list(vec![1, 9], 4).is_err(), "out of range");
        let mut occ = Occupancy::new(4, 0);
        assert!(occ.restore_list(vec![1, 2, 1], 4).is_err(), "duplicate");
        let mut occ = Occupancy::new(4, 0);
        assert!(occ.restore_list(vec![1, 3], 3).is_err(), "never assigned");
    }

    /// The bitmap marks exactly the list's states.
    fn assert_flags_match_list(occ: &Occupancy) {
        for (s, &flag) in occ.flags.iter().enumerate() {
            assert_eq!(
                flag,
                occ.list.contains(&(s as u32)),
                "state {s}: flag {flag} disagrees with list {:?}",
                occ.list
            );
        }
    }

    #[test]
    fn occupancy_restore_keeps_flags_and_list_in_agreement() {
        let mut occ = Occupancy::new(64, 7);
        for s in [40, 3, 63, 12, 7, 29] {
            occ.mark(s);
        }
        let before = occ.as_slice().to_vec();
        assert_flags_match_list(&occ);

        // Rejected lists: one that repeats a state after marking several,
        // one that runs past the assigned states.  Neither may leave a flag
        // behind or drop one of the current list's.
        for (bad, assigned) in [(vec![5, 40, 9, 5], 64), (vec![1, 2, 50], 48)] {
            assert!(occ.restore_list(bad, assigned).is_err());
            assert_eq!(occ.as_slice(), &before[..]);
            assert_flags_match_list(&occ);
        }

        // An accepted list overlapping the previous one replaces it whole.
        let previous = occ.restore_list(vec![63, 0, 12, 50], 64).unwrap();
        assert_eq!(previous, before);
        assert_eq!(occ.as_slice(), &[63, 0, 12, 50]);
        assert_flags_match_list(&occ);
        occ.mark(3);
        occ.mark(12);
        assert_eq!(occ.as_slice(), &[63, 0, 12, 50, 3]);
        assert_flags_match_list(&occ);
    }

    #[test]
    fn touch_set_accumulates_and_merges() {
        let mut touched = TouchSet::new(3);
        touched.add(2, 3);
        touched.add(1, 2);
        touched.add(2, 1);
        let mut config = CountConfig::new(&Swap, 3, 10);
        touched.merge_into(&mut config);
        assert_eq!(config.counts(), &[10, 2, 4]);
        assert_eq!(config.occupied(), &[0, 2, 1], "merged in touch order");
        // Reset: a second merge adds nothing.
        touched.merge_into(&mut config);
        assert_eq!(config.counts(), &[10, 2, 4]);
    }

    #[test]
    fn pair_classes_preserves_margins() {
        let mut rng = seeded_rng(11);
        for _ in 0..200 {
            let init = vec![(0u32, 5u64), (2, 3)];
            let mut resp = vec![(1u32, 4u64), (3, 4)];
            let mut row = [0u64; 4];
            let mut col = [0u64; 4];
            pair_classes(&mut rng, &init, &mut resp, 8, |i, j, k| {
                row[i] += k;
                col[j] += k;
            });
            assert_eq!(row, [5, 0, 3, 0]);
            assert_eq!(col, [0, 4, 0, 4]);
            assert!(resp.iter().all(|&(_, r)| r == 0));
        }
    }

    #[test]
    fn pair_classes_margins_are_uniformly_random() {
        // 2×2 table with margins (2, 2) / (2, 2): the (0,0) cell is
        // Hypergeometric(4, 2, 2) with mean 1.
        let mut rng = seeded_rng(13);
        let trials = 20_000;
        let mut sum = 0u64;
        for _ in 0..trials {
            let init = vec![(0u32, 2u64), (1, 2)];
            let mut resp = vec![(0u32, 2u64), (1, 2)];
            let mut cell = 0u64;
            pair_classes(&mut rng, &init, &mut resp, 4, |i, j, k| {
                if i == 0 && j == 0 {
                    cell += k;
                }
            });
            sum += cell;
        }
        let mean = sum as f64 / trials as f64;
        // σ ≈ 0.58, standard error ≈ 0.004: ±0.025 is ~6σ.
        assert!(
            (mean - 1.0).abs() < 0.025,
            "contingency cell mean {mean:.3} too far from 1.0"
        );
    }

    #[test]
    fn delta_table_validates_and_evaluates() {
        let delta = DeltaTable::new(&Swap).unwrap();
        assert_eq!(delta.num_states(), 3);
        assert_eq!(delta.eval(&Swap, 1, 2), (2, 1));
    }
}
