//! The shared synchronisation base of the composed counting protocols —
//! Algorithms 2 and 3, lines 1–4 — factored into a reusable layer.
//!
//! Both `Approximate` (Theorem 1) and `CountExact` (Theorem 2) are built the
//! same way: every agent runs the junta process and a junta-driven phase
//! clock *all the time*; whenever an agent meets a strictly higher junta
//! level (or advances its own), its clock **and all downstream protocol
//! state** are re-initialised; on top of that base a protocol-specific
//! *component* (leader election, search, approximation/refinement stages)
//! dispatches on the synchronised phases.  The composition diagram:
//!
//! ```text
//!                 ┌──────────────────────────────────────────┐
//!  every          │  SyncState = junta (level, active, junta)│
//!  interaction ──▶│            + phase clock (hour, phase,   │  lines 1–4:
//!                 │              first_tick)                 │  sync_interact
//!                 └───────────────┬──────────────────────────┘
//!                                 │ resets, SyncCtx (phases, levels, junta
//!                                 │ bits, consumed firstTick)
//!                 ┌───────────────▼──────────────────────────┐
//!                 │  SyncedComponent::interact               │  lines 5+:
//!                 │  (election / search / stages …)          │  the protocol
//!                 └──────────────────────────────────────────┘
//! ```
//!
//! [`SyncComposition`] drives a [`SyncedComponent`] on per-agent
//! [`SyncedAgent`] states and implements [`Protocol`] for the sequential
//! engine.  Every protocol that runs a component below lines 1–4 steps its
//! agents: the native counting protocols do so directly, and the standalone
//! elections of experiments E04/E05
//! ([`LeaderElectionProtocol`](crate::LeaderElectionProtocol),
//! [`FastLeaderElectionProtocol`](crate::FastLeaderElectionProtocol)) are
//! this composition over the election alone.
//!
//! [`DenseComposition`] runs the *same* transition system on the
//! count-based engines by interning the `(SyncState, component)` pairs into
//! dense indices on first appearance ([`ppsim::StateInterner`]) — an exact
//! bisimulation of the sequential protocol, because the transition applied to
//! the interned structs is the identical [`SyncComposition::interact_pair`].
//! It is the one dense form of every composed protocol: `popcount`'s
//! `DenseApproximate` and `DenseCountExact` are aliases of it, not types of
//! their own.  Every composition is role-asymmetric by construction —
//! `interact_pair` consumes the initiator's `firstTick` — so
//! [`DenseComposition`] declares that invariant once for all of them.
//!
//! Why interning rather than a fixed product encoding (as
//! [`DenseSyncClock`](crate::DenseSyncClock) uses for the standalone clock):
//! the composed protocols carry an absolute phase counter, `u64` token loads
//! and per-round election values whose *ranges* multiply out to an
//! astronomically large product, while the states that actually occur are few
//! — Theorem 1 bounds `Approximate` by `O(log n · log log n)` states per
//! phase.  The interner's capacity only sizes flat per-state buffers; see
//! [`ppsim::interned`] for the cost model.

use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;

use rand::rngs::SmallRng;

use ppsim::stint::{AgentCodec, BoxedAgentStint, DecodedStint, StintSource};
use ppsim::{
    DenseProtocol, PersistState, Protocol, ProtocolInvariants, SimError, SnapshotReader,
    StateInterner,
};

use crate::phase_clock::{sync_interact, PhaseClock, SyncState};

/// Context handed to the downstream component of one composed interaction:
/// everything the synchronisation preamble (junta + clocks + resets) learned.
///
/// All fields are read **after** the junta process and the phase clocks have
/// acted, exactly as the composed protocols of the paper dispatch on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncCtx {
    /// The initiator was re-initialised (met or created a higher junta level).
    pub u_reset: bool,
    /// The responder was re-initialised.
    pub v_reset: bool,
    /// The initiator's pending `firstTick` flag (consumed by this interaction).
    pub u_first_tick: bool,
    /// The initiator's current phase number.
    pub u_phase: u32,
    /// The responder's current phase number.
    pub v_phase: u32,
    /// The initiator's junta level.
    pub u_level: u8,
    /// The responder's junta level.
    pub v_level: u8,
    /// Whether the initiator still believes it belongs to the junta.
    pub u_junta: bool,
    /// Whether the responder still believes it belongs to the junta.
    pub v_junta: bool,
}

/// A protocol component driven by the shared synchronisation base: the part
/// of a composed counting protocol that sits below lines 1–4 of
/// Algorithms 2/3.
pub trait SyncedComponent {
    /// Per-agent component state (election flags, search exponent, stage
    /// loads, …).  `Copy + Eq + Hash` so the dense composition can intern it;
    /// `Send + Sync` so shard copies can ride along to worker threads;
    /// [`PersistState`] so engine snapshots can carry interner contents and
    /// per-agent stints across a crash (see [`ppsim::snapshot`]).
    type State: Copy + Eq + Hash + Debug + Send + Sync + PersistState;
    /// The output domain of the composed protocol.
    type Output: Clone + Debug + PartialEq + Send;

    /// The common initial component state.
    fn initial_state(&self) -> Self::State;

    /// Re-initialise an agent's component state (the agent met or created a
    /// higher junta level — Algorithm 2/3, lines 1–2).
    fn reset(&self, state: &mut Self::State);

    /// One component interaction, dispatched with the synchronised context.
    /// `u` is the initiator, `v` the responder.
    fn interact(&self, u: &mut Self::State, v: &mut Self::State, ctx: &SyncCtx);

    /// The output function `ω` on component states.
    fn output(&self, state: &Self::State) -> Self::Output;

    /// A short protocol name for reports.
    fn name(&self) -> &'static str;
}

/// Per-agent state of a composed protocol: the synchronisation base plus the
/// component state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SyncedAgent<S> {
    /// Junta process + phase clock (lines 1–4 of Algorithms 2/3).
    pub sync: SyncState,
    /// The component state (lines 5+).
    pub inner: S,
}

/// Snapshot codec: synchronisation base, then component state (see
/// [`ppsim::snapshot`]).
impl<S: PersistState> PersistState for SyncedAgent<S> {
    fn persist(&self, out: &mut Vec<u8>) {
        self.sync.persist(out);
        self.inner.persist(out);
    }

    fn unpersist(r: &mut SnapshotReader<'_>) -> Result<Self, SimError> {
        Ok(SyncedAgent {
            sync: SyncState::unpersist(r)?,
            inner: S::unpersist(r)?,
        })
    }
}

/// A composed protocol: the shared synchronisation base driving a
/// [`SyncedComponent`].  Implements [`Protocol`] for the sequential engine;
/// [`DenseComposition`] lifts the same transition system onto the count-based
/// engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncComposition<C> {
    clock: PhaseClock,
    component: C,
}

impl<C: SyncedComponent> SyncComposition<C> {
    /// Compose `component` over a junta-driven phase clock of `hours`
    /// positions.
    ///
    /// # Panics
    ///
    /// Panics if `hours < 4` (see [`PhaseClock::new`]).
    #[must_use]
    pub fn new(hours: u8, component: C) -> Self {
        SyncComposition {
            clock: PhaseClock::new(hours),
            component,
        }
    }

    /// The shared phase-clock rule.
    #[must_use]
    pub fn clock(&self) -> &PhaseClock {
        &self.clock
    }

    /// The composed component.
    #[must_use]
    pub fn component(&self) -> &C {
        &self.component
    }

    /// Run **only** the synchronisation preamble: junta process, clocks,
    /// component re-initialisation on resets.  Returns the component context.
    ///
    /// The caller performs its own staged dispatch afterwards and must clear
    /// the initiator's `sync.clock.first_tick` once the tick is consumed —
    /// this is the hook the stable protocol variants use to substitute their
    /// own final stage (error detection) for the component's.
    pub fn preamble(
        &self,
        u: &mut SyncedAgent<C::State>,
        v: &mut SyncedAgent<C::State>,
    ) -> SyncCtx {
        let outcome = sync_interact(&self.clock, &mut u.sync, &mut v.sync);
        if outcome.u_reset {
            self.component.reset(&mut u.inner);
        }
        if outcome.v_reset {
            self.component.reset(&mut v.inner);
        }
        SyncCtx {
            u_reset: outcome.u_reset,
            v_reset: outcome.v_reset,
            u_first_tick: u.sync.clock.first_tick,
            u_phase: u.sync.clock.phase,
            v_phase: v.sync.clock.phase,
            u_level: u.sync.junta.level,
            v_level: v.sync.junta.level,
            u_junta: u.sync.junta.junta,
            v_junta: v.sync.junta.junta,
        }
    }

    /// One full composed interaction: preamble, component dispatch, and the
    /// consumption of the initiator's `firstTick` flag.  Deterministic — the
    /// composed protocols draw their random bits from the schedule itself
    /// (synthetic coins), never from an RNG.
    pub fn interact_pair(
        &self,
        u: &mut SyncedAgent<C::State>,
        v: &mut SyncedAgent<C::State>,
    ) -> SyncCtx {
        let ctx = self.preamble(u, v);
        self.component.interact(&mut u.inner, &mut v.inner, &ctx);
        u.sync.clock.first_tick = false;
        ctx
    }
}

impl<C: SyncedComponent> Protocol for SyncComposition<C> {
    type State = SyncedAgent<C::State>;
    type Output = C::Output;

    fn initial_state(&self) -> SyncedAgent<C::State> {
        SyncedAgent {
            sync: SyncState::new(),
            inner: self.component.initial_state(),
        }
    }

    fn interact(
        &self,
        initiator: &mut SyncedAgent<C::State>,
        responder: &mut SyncedAgent<C::State>,
        _rng: &mut SmallRng,
    ) {
        self.interact_pair(initiator, responder);
    }

    fn output(&self, state: &SyncedAgent<C::State>) -> C::Output {
        self.component.output(&state.inner)
    }

    fn name(&self) -> &'static str {
        self.component.name()
    }
}

/// A composed protocol on an interned dense state space: the **same**
/// transition system as [`SyncComposition`] (every transition goes through
/// [`SyncComposition::interact_pair`] on the decoded structs), indexed for
/// the count-based engines by assigning dense indices to `(sync, component)`
/// states on first appearance.
///
/// Clones share the interner (via [`Arc`]), so the sharded engine's per-shard
/// copies agree on every index.  [`DenseProtocol::dynamic`] returns `true`:
/// the engines evaluate transitions and outputs lazily on occupied states and
/// pin the sharded within-shard phase to one worker thread (see
/// [`ppsim::interned`]).
#[derive(Debug, Clone)]
pub struct DenseComposition<C: SyncedComponent> {
    base: SyncComposition<C>,
    interner: Arc<StateInterner<SyncedAgent<C::State>>>,
}

impl<C: SyncedComponent + Clone> DenseComposition<C> {
    /// Lift a composed protocol onto an interned dense state space with room
    /// for `capacity` distinct states.  `base` is the composition itself or
    /// anything that converts into it, such as a protocol's parameters.
    ///
    /// `capacity` only sizes the engines' flat per-state buffers (a few bytes
    /// per slot, reported as `num_states()`); the distinct states actually
    /// interned are the ones the run visits.  A run that discovers more than
    /// `capacity` states panics with a message pointing here.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `capacity >= u32::MAX` (dense indices
    /// are 32-bit and `u32::MAX` is reserved; see
    /// [`StateInterner::with_capacity`](ppsim::StateInterner::with_capacity)).
    #[must_use]
    pub fn with_capacity(base: impl Into<SyncComposition<C>>, capacity: usize) -> Self {
        let base = base.into();
        let interner = Arc::new(StateInterner::with_capacity(capacity));
        let q0 = interner.intern(SyncedAgent {
            sync: SyncState::new(),
            inner: base.component.initial_state(),
        });
        debug_assert_eq!(q0, 0, "the initial state takes index 0");
        DenseComposition { base, interner }
    }

    /// Decode a dense index into the full per-agent state.
    ///
    /// # Panics
    ///
    /// Panics if `index` has not been assigned to any state yet.
    #[must_use]
    pub fn decode(&self, index: usize) -> SyncedAgent<C::State> {
        self.interner.get(index)
    }

    /// Encode a per-agent state as its dense index, interning it on first
    /// appearance.
    ///
    /// # Panics
    ///
    /// Panics if the state is new and the capacity is exhausted.
    #[must_use]
    pub fn encode(&self, state: SyncedAgent<C::State>) -> usize {
        self.interner.intern(state)
    }

    /// How many distinct states the runs sharing this protocol value have
    /// discovered so far — the empirical state-space size the paper's
    /// theorems bound.
    #[must_use]
    pub fn states_discovered(&self) -> usize {
        self.interner.len()
    }
}

impl<C: SyncedComponent + Clone + Send + Sync + 'static> DenseProtocol for DenseComposition<C> {
    type Output = C::Output;

    fn num_states(&self) -> usize {
        self.interner.capacity()
    }

    fn initial_state(&self) -> usize {
        0
    }

    fn transition(&self, initiator: usize, responder: usize) -> (usize, usize) {
        let mut u = self.interner.get(initiator);
        let mut v = self.interner.get(responder);
        self.base.interact_pair(&mut u, &mut v);
        (self.interner.intern(u), self.interner.intern(v))
    }

    fn output(&self, state: usize) -> C::Output {
        self.base.component.output(&self.interner.get(state).inner)
    }

    fn name(&self) -> &'static str {
        self.base.component.name()
    }

    fn invariants(&self) -> ProtocolInvariants {
        ProtocolInvariants {
            // Interned indices carry no fixed meaning across instances, so
            // no count-indexed quantity is declarable; the structure lives
            // in the component and is exercised dynamically.
            conserved: Vec::new(),
            // `interact_pair` consumes the initiator's firstTick flag, so δ
            // is role-asymmetric whatever the component.
            role_symmetric: Some(false),
        }
    }

    fn dynamic(&self) -> bool {
        true
    }

    fn discovered_states(&self) -> Option<usize> {
        // The occupancy-reporting hook the hybrid engine's switch log reads:
        // the interner census attributes an occupancy blow-up to the protocol
        // stage that minted the states.
        Some(self.interner.len())
    }

    fn agent_stint(
        &self,
        source: StintSource<'_>,
    ) -> Option<Result<BoxedAgentStint<C::Output>, SimError>> {
        Some(DecodedStint::boxed(self.clone(), source))
    }

    fn save_protocol_state(&self) -> Vec<u8> {
        // The interner's discovery order IS protocol state: dense indices in
        // a snapshot are meaningless without the exact index → state table
        // that minted them.
        let mut out = Vec::new();
        self.interner.persist_contents(&mut out);
        out
    }

    fn restore_protocol_state(&self, bytes: &[u8]) -> Result<(), SimError> {
        let mut r = SnapshotReader::new(bytes);
        let states = Vec::<SyncedAgent<C::State>>::unpersist(&mut r)?;
        r.finish()?;
        self.interner.replace_contents(states)
    }
}

/// The typed agent-state codec of a composed protocol: per-agent stints of
/// the hybrid engine decode each occupied index **once** at the migration
/// boundary and then step native [`SyncedAgent`] structs with the identical
/// [`SyncComposition::interact_pair`] — no interner probe per interaction.
/// States minted during the stint reach the interner only if the run
/// migrates back to the count-based substrate (or tallies its final
/// configuration), so a refinement-style transient that scatters the
/// population over `Θ(n)` loads no longer floods the index space.
impl<C: SyncedComponent + Clone + Send + Sync + 'static> AgentCodec for DenseComposition<C> {
    type Native = SyncComposition<C>;

    fn native(&self) -> SyncComposition<C> {
        self.base.clone()
    }

    fn decode_agent(&self, index: usize) -> SyncedAgent<C::State> {
        self.decode(index)
    }

    fn try_decode_agent(&self, index: usize) -> Option<SyncedAgent<C::State>> {
        self.interner.try_get(index)
    }

    fn encode_agent(&self, state: &SyncedAgent<C::State>) -> usize {
        self.encode(*state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppsim::{BatchedSimulator, Simulator};

    /// A toy component: remember the highest phase at which this agent ever
    /// consumed a firstTick (a "phase odometer").
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Odometer;

    impl SyncedComponent for Odometer {
        type State = u32;
        type Output = u32;
        fn initial_state(&self) -> u32 {
            0
        }
        fn reset(&self, state: &mut u32) {
            *state = 0;
        }
        fn interact(&self, u: &mut u32, _v: &mut u32, ctx: &SyncCtx) {
            if ctx.u_first_tick {
                *u = (*u).max(ctx.u_phase);
            }
        }
        fn output(&self, state: &u32) -> u32 {
            *state
        }
        fn name(&self) -> &'static str {
            "phase-odometer"
        }
    }

    #[test]
    fn sequential_and_dense_compositions_are_the_same_process() {
        // Same seed ⇒ identical trajectories: the sequential engine picks the
        // same agent pairs for both, and the transitions are deterministic.
        let n = 400usize;
        let base = SyncComposition::new(8, Odometer);
        let dense = DenseComposition::with_capacity(base, 1 << 16);

        let mut plain = Simulator::new(base, n, 99).unwrap();
        let mut interned = Simulator::new(ppsim::IndexCodec(dense.clone()), n, 99).unwrap();
        for _ in 0..20 {
            plain.run(5_000);
            interned.run(5_000);
            for (a, &idx) in plain.states().iter().zip(interned.states()) {
                assert_eq!(*a, dense.decode(idx as usize), "trajectories diverged");
            }
        }
        assert!(dense.states_discovered() > 1);
    }

    #[test]
    fn dense_composition_runs_on_the_batched_engine() {
        let base = SyncComposition::new(8, Odometer);
        let dense = DenseComposition::with_capacity(base, 1 << 16);
        let mut sim = BatchedSimulator::new(dense.clone(), 5_000, 3).unwrap();
        // The odometer advances once phases start ticking.
        let outcome = sim.run_until(
            |s| s.output_stats().iter().any(|(&o, _)| o >= 2),
            5_000,
            u64::MAX >> 1,
        );
        assert!(outcome.converged(), "phases must keep ticking");
        assert_eq!(sim.counts().iter().sum::<u64>(), 5_000);
        assert!(dense.states_discovered() <= dense.num_states());
    }

    #[test]
    fn preamble_resets_the_component_of_a_superseded_agent() {
        let base = SyncComposition::new(8, Odometer);
        let mut u = SyncedAgent {
            sync: SyncState::new(),
            inner: 7u32,
        };
        let mut v = SyncedAgent {
            sync: SyncState::new(),
            inner: 0u32,
        };
        v.sync.junta.level = 3;
        let ctx = base.preamble(&mut u, &mut v);
        assert!(ctx.u_reset);
        assert_eq!(u.inner, 0, "the superseded initiator's component resets");
        assert_eq!(ctx.u_level, u.sync.junta.level);
    }

    #[test]
    fn codec_round_trips_and_bisimulates_the_interned_delta_path() {
        // Populate the interner with genuinely reachable states.
        let dense = DenseComposition::with_capacity(SyncComposition::new(8, Odometer), 1 << 16);
        let mut sim = Simulator::new(ppsim::IndexCodec(dense.clone()), 300, 5).unwrap();
        sim.run(30_000);
        let discovered = dense.states_discovered();
        assert!(discovered > 10);
        use ppsim::stint::AgentCodec;
        for i in 0..discovered {
            // encode(decode(i)) == i over the whole reachable index range.
            assert_eq!(dense.encode_agent(&dense.decode_agent(i)), i);
            assert_eq!(dense.try_decode_agent(i), Some(dense.decode_agent(i)));
        }
        assert_eq!(dense.try_decode_agent(discovered + 7), None);
        // decode → native interact → encode agrees with the interned δ.
        let native = dense.native();
        let mut rng = ppsim::seeded_rng(9);
        for k in 0..200usize {
            let (i, j) = ((k * 13) % discovered, (k * 29 + 1) % discovered);
            let mut u = dense.decode_agent(i);
            let mut v = dense.decode_agent(j);
            ppsim::Protocol::interact(&native, &mut u, &mut v, &mut rng);
            let via_codec = (dense.encode_agent(&u), dense.encode_agent(&v));
            assert_eq!(
                via_codec,
                dense.transition(i, j),
                "δ diverged at ({i}, {j})"
            );
        }
    }

    #[test]
    fn composed_protocols_hand_the_hybrid_engine_a_decoded_stint() {
        let dense = DenseComposition::with_capacity(SyncComposition::new(8, Odometer), 1 << 16);
        let counts_probe = {
            // Reach a non-trivial configuration first.
            let mut sim = BatchedSimulator::new(dense.clone(), 4_000, 3).unwrap();
            sim.run(20_000);
            sim.into_counts()
        };
        let source = StintSource::Counts {
            counts: &counts_probe,
            seed: 11,
        };
        let mut stint = dense
            .agent_stint(source)
            .expect("composed protocols carry a codec")
            .unwrap();
        assert_eq!(stint.kind(), "decoded");
        assert_eq!(stint.population(), 4_000);
        let interned_before = dense.states_discovered();
        stint.run(50_000);
        assert_eq!(
            dense.states_discovered(),
            interned_before,
            "a decoded stint must not touch the interner while stepping"
        );
        let tallied = stint.counts(); // the agent → dense boundary interns
        assert_eq!(tallied.iter().sum::<u64>(), 4_000);
        assert!(dense.states_discovered() >= interned_before);
    }

    #[test]
    fn clones_share_one_index_space() {
        let dense = DenseComposition::with_capacity(SyncComposition::new(8, Odometer), 64);
        let clone = dense.clone();
        let s = SyncedAgent {
            sync: SyncState::new(),
            inner: 41u32,
        };
        let i = dense.encode(s);
        assert_eq!(clone.encode(s), i);
        assert_eq!(clone.decode(i), s);
    }
}
