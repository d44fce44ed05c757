//! Staged execution of `CountExact` at population scale, as a thin wrapper
//! over the hybrid engine.
//!
//! Theorem 2 trades states for time, and the state count is precisely the
//! complexity parameter of the count-based engines.  Measured at `n = 10⁶`
//! (`dense_at_scale` parameters):
//!
//! * **Stages 1–2** (fast leader election + approximation — the `O(n log n)`
//!   bulk, ≈ `1.6·10¹⁰` interactions) stay *narrow*: ≈ 7·10⁴ distinct states
//!   over the whole window, a few dozen occupied at a time.  The batched
//!   engine executes them an order of magnitude faster than the per-agent
//!   engine could.
//! * **Stage 3** (refinement, ≈ `3.4·10⁸` interactions) is *wide* by design:
//!   Lemma 11 needs per-agent loads of magnitude `C·2^{2k}/n ≈ 4n`, so the
//!   balancing transient scatters the population over `Θ(n)` distinct loads
//!   — nearly every interaction mints two new states (> 4·10⁶ observed
//!   before the transient ends), occupancy approaches the population size,
//!   and *any* count-based representation degenerates below per-agent
//!   speed.
//!
//! Earlier revisions implemented the hand-off by hand: run the dense engine
//! until every agent had concluded the approximation stage, then copy the
//! configuration into the per-agent engine — a one-shot, protocol-specific
//! switch that lived in this file.  That mechanism is now the general
//! [`HybridSimulator`]: its occupancy monitor detects the refinement
//! transient by its `q_occ² > c·√n` signature (no knowledge of `ApxDone`
//! required), performs the same Markov-in-configuration migration, and can
//! even migrate *back* once the balancing transient collapses the census
//! again.  [`count_exact_dense_staged`] just parameterises that engine for
//! `CountExact` and reports the phase accounting.
//!
//! The hand-off is **exact** either way: the population process is Markov in
//! the *configuration* (the multiset of states), which is transferred
//! verbatim; only the schedule's randomness source changes, exactly as it
//! does between the batched and sequential engines in the equivalence suite.
//!
//! The per-agent leg steps **native structs**: `DenseCountExact` hands the
//! hybrid engine a decoded stint through its agent-state codec
//! ([`ppsim::stint`]), so the refinement loop carries no interner traffic at
//! all (a stint over interned indices cost a measured ~40 % of that leg at
//! `n = 10⁵`, 3.15 against 6.97 M interactions/s).

use std::path::{Path, PathBuf};

use ppsim::snapshot::ENGINE_COMPOSITE_BASE;
use ppsim::{
    Checkpointable, Engine, EngineSnapshot, HybridSimulator, HybridSubstrate, PersistState,
    SimError, Simulator,
};

use crate::params::CountExactParams;

use super::count_exact::{CountExact, DenseCountExact};

/// Engine tag of the composite staged-runner snapshot: a
/// [`count_exact_dense_staged`] checkpoint wraps the inner engine snapshot
/// together with the run parameters that shape its trajectory.
pub const ENGINE_STAGED: u8 = ENGINE_COMPOSITE_BASE;

/// Outcome of a staged (hybrid) dense `CountExact` run.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct StagedCountOutcome {
    /// Total interactions executed across the run.
    pub interactions: u64,
    /// Interactions executed on the count-based substrate.
    pub dense_interactions: u64,
    /// Interactions executed on the per-agent engine.  Always
    /// `interactions - dense_interactions`: the phase counters partition the
    /// total exactly (no interaction is counted in both phases at a switch).
    pub agent_interactions: u64,
    /// Wall-clock seconds this process spent on the count-based substrate
    /// (per-leg throughput accounting; 0 for runs that resolved to the
    /// sequential engine).  A resumed run times only what ran after the
    /// resume.
    pub dense_seconds: f64,
    /// Wall-clock seconds this process spent on per-agent stints.
    pub agent_seconds: f64,
    /// Total-interaction counts at which the hybrid engine migrated between
    /// representations (the measured switch points; empty when the run never
    /// left the dense substrate or ran entirely per-agent).
    pub switch_interactions: Vec<u64>,
    /// Distinct dense states the run interned (0 when the whole run stayed
    /// on the per-agent engine with struct states).  Decoded stints intern
    /// only at migration boundaries, so this census covers the dense legs
    /// plus each boundary configuration — far below the `Θ(n)` transient
    /// states the refinement mints.
    pub states_discovered: usize,
    /// The per-agent stepping representation the hybrid engine used
    /// (`Some("decoded")` through the protocol's codec, `None` if no stint
    /// ran).
    pub stint_kind: Option<&'static str>,
    /// The unanimous output, if the run converged (`Some(n)` when correct).
    pub output: Option<u64>,
    /// Whether a unanimous output was reached within the budget.
    pub converged: bool,
}

/// Run `CountExact` to a unanimous output at population scale on the hybrid
/// engine: the count-based substrate while the configuration stays narrow
/// (stages 1–2), per-agent execution while the refinement's `Θ(n)` live
/// loads keep it degenerate, automatic migration in between (see the module
/// docs for why the switch happens at the refinement transient).
///
/// `engine` selects the dense substrate: [`Engine::Batched`] and
/// [`Engine::Hybrid`] run it batched, [`Engine::Sharded`] sharded.  If
/// `engine` resolves to [`Engine::Sequential`] (small populations under
/// [`Engine::Auto`]), the whole run stays per-agent on struct states and no
/// hand-off machinery is involved.  `budget` caps the *total* interactions.
///
/// # Errors
///
/// Propagates the engine constructors' errors
/// ([`SimError::PopulationTooSmall`], [`SimError::InvalidParameter`]).
///
/// # Examples
///
/// ```rust,no_run
/// use popcount::exact::staged::count_exact_dense_staged;
/// use popcount::CountExactParams;
/// use ppsim::Engine;
///
/// # fn main() -> Result<(), ppsim::SimError> {
/// let n = 1_000_000;
/// let outcome = count_exact_dense_staged(
///     CountExactParams::dense_at_scale(n),
///     n,
///     42,
///     Engine::Batched,
///     u64::MAX >> 1,
/// )?;
/// assert!(outcome.converged);
/// assert_eq!(outcome.output, Some(n as u64));
/// assert!(!outcome.switch_interactions.is_empty(), "the refinement forces a hand-off");
/// # Ok(())
/// # }
/// ```
pub fn count_exact_dense_staged(
    params: CountExactParams,
    n: usize,
    seed: u64,
    engine: Engine,
    budget: u64,
) -> Result<StagedCountOutcome, SimError> {
    count_exact_dense_staged_checkpointed(params, n, seed, engine, budget, None, None)
}

/// Autosave policy for [`count_exact_dense_staged_checkpointed`]: write an
/// atomic checkpoint to `path` whenever at least `every` interactions have
/// elapsed since the last save (checked at the runner's convergence-probe
/// boundaries, so the cadence is rounded up to the probe granularity
/// `n · 20`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedCheckpoint {
    /// Where to write the snapshot (atomically: temp + fsync + rename).
    pub path: PathBuf,
    /// Minimum interactions between consecutive autosaves.
    pub every: u64,
}

/// [`count_exact_dense_staged`] plus crash recovery: optional periodic
/// autosaves and an optional snapshot to resume from.
///
/// Determinism: `run_until` chunks its work at **absolute** interaction
/// counts (`min(check_every, budget − interactions())`), so a resumed run —
/// whose restored interaction counter sits on a probe boundary — issues
/// exactly the chunk sequence the uninterrupted run would have issued from
/// that point, and the continued trajectory is bit-identical.  Checkpoints
/// are taken only at those probe boundaries, never mid-chunk.
///
/// The snapshot is a composite frame (tag [`ENGINE_STAGED`]) wrapping the
/// inner engine snapshot with the run parameters that shape the trajectory
/// (`params`, `n`, `seed`, engine kind); `resume` fails with
/// [`SimError::SnapshotMismatch`] when those disagree with the arguments.
///
/// # Errors
///
/// Propagates the engine constructors' errors, snapshot decode/IO errors
/// from `resume`, and the first autosave write failure (a long run silently
/// losing its checkpoints would defeat the point).
pub fn count_exact_dense_staged_checkpointed(
    params: CountExactParams,
    n: usize,
    seed: u64,
    engine: Engine,
    budget: u64,
    autosave: Option<&StagedCheckpoint>,
    resume: Option<&Path>,
) -> Result<StagedCountOutcome, SimError> {
    let check_every = (n as u64).max(1) * 20;

    let resumed = match resume {
        Some(path) => Some(read_staged_snapshot(path, &params, n, seed)?),
        None => None,
    };

    let substrate = match engine.resolve(n) {
        Engine::Sequential => {
            // Small populations: the per-agent engine serves every stage.
            let mut sim = Simulator::new(CountExact::new(params), n, seed)?;
            if let Some((kind, inner)) = &resumed {
                expect_kind(*kind, KIND_SEQUENTIAL)?;
                sim.restore_state(inner)?;
            }
            let started = std::time::Instant::now();
            let mut saver = Autosaver::new(autosave, sim.interactions());
            let outcome = sim.run_until(
                |s| {
                    saver.observe(s, s.interactions(), &params, n, seed, KIND_SEQUENTIAL)
                        || s.output_stats().unanimous().is_some_and(|o| o.is_some())
                },
                check_every,
                budget,
            );
            saver.into_result()?;
            let output = sim.output_stats().unanimous().cloned().flatten();
            return Ok(StagedCountOutcome {
                interactions: sim.interactions(),
                dense_interactions: 0,
                agent_interactions: sim.interactions(),
                dense_seconds: 0.0,
                agent_seconds: started.elapsed().as_secs_f64(),
                switch_interactions: Vec::new(),
                states_discovered: 0,
                stint_kind: None,
                output,
                converged: outcome.converged(),
            });
        }
        Engine::Sharded { shards, threads } => HybridSubstrate::Sharded { shards, threads },
        Engine::Batched | Engine::Hybrid => HybridSubstrate::Batched,
        Engine::Auto => unreachable!("resolve() never returns Auto"),
    };

    let proto = DenseCountExact::with_capacity(params, CountExactParams::dense_capacity(n));
    let handle = proto.clone(); // shares the interner: state census + decode
    let mut sim = HybridSimulator::with_substrate(proto, n, seed, substrate)?;
    if let Some((kind, inner)) = &resumed {
        expect_kind(*kind, KIND_HYBRID)?;
        sim.restore_state(inner)?;
    }
    let mut saver = Autosaver::new(autosave, sim.interactions());
    let outcome = sim.run_until(
        |s| {
            saver.observe(s, s.interactions(), &params, n, seed, KIND_HYBRID)
                || s.output_stats().unanimous().is_some_and(|o| o.is_some())
        },
        check_every,
        budget,
    );
    saver.into_result()?;
    let output = sim.output_stats().unanimous().cloned().flatten();
    debug_assert_eq!(
        sim.dense_interactions() + sim.agent_interactions(),
        sim.interactions(),
        "phase counters must partition the total exactly"
    );
    Ok(StagedCountOutcome {
        interactions: sim.interactions(),
        dense_interactions: sim.dense_interactions(),
        agent_interactions: sim.agent_interactions(),
        dense_seconds: sim.dense_seconds(),
        agent_seconds: sim.agent_seconds(),
        switch_interactions: sim.switches().iter().map(|e| e.interactions).collect(),
        states_discovered: handle.states_discovered(),
        stint_kind: sim.stint_kind(),
        output,
        converged: outcome.converged(),
    })
}

/// Engine-resolution kind recorded in the composite frame: per-agent
/// [`Simulator`] (small populations under [`Engine::Auto`]).
const KIND_SEQUENTIAL: u8 = 0;
/// Engine-resolution kind recorded in the composite frame: [`HybridSimulator`].
const KIND_HYBRID: u8 = 1;

fn expect_kind(found: u8, expected: u8) -> Result<(), SimError> {
    if found == expected {
        return Ok(());
    }
    let name = |k| match k {
        KIND_SEQUENTIAL => "sequential",
        KIND_HYBRID => "hybrid",
        _ => "unknown",
    };
    Err(SimError::SnapshotMismatch {
        reason: format!(
            "staged snapshot was taken on the {} engine but this run resolved to the {} engine \
             (same n and engine selection reproduce the original resolution)",
            name(found),
            name(expected)
        ),
    })
}

/// Wrap the inner engine snapshot in the composite staged frame together
/// with every run parameter that shapes the trajectory.
fn staged_snapshot<S: Checkpointable>(
    sim: &S,
    params: &CountExactParams,
    n: usize,
    seed: u64,
    kind: u8,
) -> EngineSnapshot {
    let mut payload = Vec::new();
    params.clock_hours.persist(&mut payload);
    params.level_offset.persist(&mut payload);
    params.election_phases.persist(&mut payload);
    params.refinement_constant_log2.persist(&mut payload);
    n.persist(&mut payload);
    seed.persist(&mut payload);
    kind.persist(&mut payload);
    sim.save_state().to_bytes().persist(&mut payload);
    EngineSnapshot::new(ENGINE_STAGED, payload)
}

/// Read a composite staged checkpoint, validate the trajectory-shaping
/// parameters against the caller's, and hand back `(kind, inner snapshot)`.
fn read_staged_snapshot(
    path: &Path,
    params: &CountExactParams,
    n: usize,
    seed: u64,
) -> Result<(u8, EngineSnapshot), SimError> {
    let snap = EngineSnapshot::read_file(path)?;
    snap.expect_engine(ENGINE_STAGED, "staged CountExact runner")?;
    let mut r = snap.reader();
    let saved = CountExactParams {
        clock_hours: u8::unpersist(&mut r)?,
        level_offset: u8::unpersist(&mut r)?,
        election_phases: u32::unpersist(&mut r)?,
        refinement_constant_log2: u8::unpersist(&mut r)?,
    };
    let saved_n = usize::unpersist(&mut r)?;
    let saved_seed = u64::unpersist(&mut r)?;
    let kind = u8::unpersist(&mut r)?;
    let inner_bytes = Vec::<u8>::unpersist(&mut r)?;
    r.finish()?;
    if saved != *params || saved_n != n || saved_seed != seed {
        return Err(SimError::SnapshotMismatch {
            reason: format!(
                "staged snapshot was taken with (params {saved:?}, n {saved_n}, seed \
                 {saved_seed}) but this run asked for (params {params:?}, n {n}, seed {seed})"
            ),
        });
    }
    Ok((kind, EngineSnapshot::from_bytes(&inner_bytes)?))
}

/// Periodic autosave state threaded through `run_until`'s convergence probe:
/// saves at probe boundaries once `every` interactions have elapsed, stashes
/// the first write error, and asks the run to stop when one occurred (its
/// `observe` return value is or-ed into the predicate).
struct Autosaver<'a> {
    spec: Option<&'a StagedCheckpoint>,
    last_saved: u64,
    error: Option<SimError>,
}

impl<'a> Autosaver<'a> {
    fn new(spec: Option<&'a StagedCheckpoint>, interactions_now: u64) -> Self {
        Autosaver {
            spec,
            last_saved: interactions_now,
            error: None,
        }
    }

    fn observe<S: Checkpointable>(
        &mut self,
        sim: &S,
        interactions: u64,
        params: &CountExactParams,
        n: usize,
        seed: u64,
        kind: u8,
    ) -> bool {
        let Some(spec) = self.spec else { return false };
        if self.error.is_some() {
            return true;
        }
        if interactions.saturating_sub(self.last_saved) < spec.every.max(1) {
            return false;
        }
        match staged_snapshot(sim, params, n, seed, kind).write_atomic(&spec.path) {
            Ok(()) => {
                self.last_saved = interactions;
                false
            }
            Err(e) => {
                self.error = Some(e);
                true
            }
        }
    }

    fn into_result(self) -> Result<(), SimError> {
        self.error.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_run_counts_exactly_at_small_scale() {
        // Cross-over covered end to end: stages 1–2 batched, refinement
        // per-agent via the hybrid monitor, exact output.
        let n = 3_000usize;
        let outcome = count_exact_dense_staged(
            CountExactParams::dense_at_scale(n),
            n,
            11,
            Engine::Batched,
            u64::MAX >> 1,
        )
        .unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.output, Some(n as u64));
        assert!(outcome.dense_interactions > 0);
        assert!(
            outcome.agent_interactions > 0,
            "the refinement transient must trigger the per-agent migration"
        );
        assert_eq!(
            outcome.dense_interactions + outcome.agent_interactions,
            outcome.interactions
        );
        assert!(!outcome.switch_interactions.is_empty());
        assert!(outcome.states_discovered > 100);
    }

    /// The first `countexact` seed of the repository benchmark: its
    /// trajectory (length, switch points, output) is pinned exactly, so a
    /// refactor of the engines or the stint plumbing cannot move it.
    #[test]
    fn benchmark_seed_trajectory_is_pinned() {
        let n = 2_000usize;
        let outcome = count_exact_dense_staged(
            CountExactParams::dense_at_scale(n),
            n,
            ppsim::derive_seed(7, 0),
            Engine::Batched,
            u64::MAX >> 1,
        )
        .unwrap();
        assert_eq!(outcome.interactions, 25_840_000);
        assert_eq!(outcome.switch_interactions, vec![2_000, 18_000, 22_855_500]);
        assert_eq!(outcome.output, Some(2_000));
    }

    #[test]
    fn sequential_resolution_skips_the_hand_off() {
        let n = 500usize;
        let outcome = count_exact_dense_staged(
            CountExactParams::default(),
            n,
            7,
            Engine::Auto, // resolves to Sequential below the crossover
            u64::MAX >> 1,
        )
        .unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.output, Some(n as u64));
        assert_eq!(outcome.dense_interactions, 0);
        assert_eq!(outcome.agent_interactions, outcome.interactions);
        assert!(outcome.switch_interactions.is_empty());
    }

    fn scratch_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ppsim-staged-{tag}-{}.ppss", std::process::id()))
    }

    /// The CI smoke scenario in miniature: cap the budget (the "kill"),
    /// resume from the autosave, and compare every trajectory-determined
    /// field against an uninterrupted run.
    #[test]
    fn killed_run_resumes_to_the_uninterrupted_trajectory() {
        let n = 3_000usize;
        let params = CountExactParams::dense_at_scale(n);
        let budget = u64::MAX >> 1;
        let reference = count_exact_dense_staged(params, n, 21, Engine::Batched, budget).unwrap();
        assert!(reference.converged);
        assert_eq!(reference.output, Some(n as u64));

        // The victim autosaves at every probe boundary and dies (budget
        // exhaustion stands in for SIGKILL — same observable: the process
        // stops, only the snapshot file survives) somewhere mid-run.
        let path = scratch_path("kill-resume");
        let check_every = (n as u64) * 20;
        let spec = StagedCheckpoint {
            path: path.clone(),
            every: 1,
        };
        let killed = count_exact_dense_staged_checkpointed(
            params,
            n,
            21,
            Engine::Batched,
            check_every * 7,
            Some(&spec),
            None,
        )
        .unwrap();
        assert!(!killed.converged, "the kill must land mid-run");

        let resumed = count_exact_dense_staged_checkpointed(
            params,
            n,
            21,
            Engine::Batched,
            budget,
            None,
            Some(&path),
        )
        .unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(resumed.interactions, reference.interactions);
        assert_eq!(resumed.dense_interactions, reference.dense_interactions);
        assert_eq!(resumed.agent_interactions, reference.agent_interactions);
        assert_eq!(resumed.switch_interactions, reference.switch_interactions);
        assert_eq!(resumed.output, reference.output);
        assert_eq!(resumed.converged, reference.converged);
    }

    #[test]
    fn sequential_resolution_is_checkpointable_too() {
        let n = 400usize;
        let params = CountExactParams::default();
        let budget = u64::MAX >> 1;
        let reference = count_exact_dense_staged(params, n, 5, Engine::Auto, budget).unwrap();
        assert!(reference.converged);

        let path = scratch_path("sequential");
        let spec = StagedCheckpoint {
            path: path.clone(),
            every: 1,
        };
        let killed = count_exact_dense_staged_checkpointed(
            params,
            n,
            5,
            Engine::Auto,
            (n as u64) * 20 * 3,
            Some(&spec),
            None,
        )
        .unwrap();
        assert!(!killed.converged);
        let resumed = count_exact_dense_staged_checkpointed(
            params,
            n,
            5,
            Engine::Auto,
            budget,
            None,
            Some(&path),
        )
        .unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(resumed.interactions, reference.interactions);
        assert_eq!(resumed.output, reference.output);
    }

    #[test]
    fn resume_validates_parameters_and_engine_resolution() {
        let n = 2_000usize;
        let params = CountExactParams::dense_at_scale(n);
        let path = scratch_path("validate");
        let spec = StagedCheckpoint {
            path: path.clone(),
            every: 1,
        };
        // Only the snapshot written as a side effect matters here.
        let _ = count_exact_dense_staged_checkpointed(
            params,
            n,
            9,
            Engine::Batched,
            (n as u64) * 20 * 2,
            Some(&spec),
            None,
        )
        .unwrap();

        // Different seed: the snapshot is for another trajectory.
        let err = count_exact_dense_staged_checkpointed(
            params,
            n,
            10,
            Engine::Batched,
            u64::MAX >> 1,
            None,
            Some(&path),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::SnapshotMismatch { .. }), "{err}");

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn budget_exhaustion_is_reported_not_hidden() {
        let n = 5_000usize;
        let outcome = count_exact_dense_staged(
            CountExactParams::dense_at_scale(n),
            n,
            3,
            Engine::Batched,
            10_000, // far too small
        )
        .unwrap();
        assert!(!outcome.converged);
        assert_eq!(outcome.output, None);
        assert_eq!(
            outcome.interactions, 10_000,
            "an exhausted run reports the interactions actually executed"
        );
        assert_eq!(
            outcome.dense_interactions + outcome.agent_interactions,
            outcome.interactions
        );
    }
}
