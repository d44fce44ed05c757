//! Experiments E01–E22: one per quantitative claim of the paper, plus the
//! engine experiments (E16 batched scale, E17 engine equivalence, E18
//! sharded scale, E19 dense counting — Theorems 1/2 on the count-based
//! engines, E20 hybrid engine switch points, E21 adversarial recovery —
//! reconvergence time after in-run fault injection on all four engines,
//! E22 scenario-matrix conformance — the ported related-work protocols,
//! Herman's tolerance-banded stabilization time, and the standard
//! protocol × engine × fault matrix).
//!
//! Each experiment sweeps population sizes, runs several seeded trials per size on
//! worker threads and renders a markdown [`Table`] comparing the measurement with
//! the paper's claim.  The exact sizes and trial counts depend on the [`Effort`]
//! level; `EXPERIMENTS.md` records a full run.

use std::path::PathBuf;
use std::sync::OnceLock;

use popcount::{
    all_counted, all_estimated, all_estimates_valid, all_exact, all_output_n,
    count_exact_dense_staged, count_exact_dense_staged_checkpointed, valid_estimates, Approximate,
    ApproximateBackup, ApproximateParams, CountExact, CountExactParams, DenseApproximate,
    ExactBackup, StableApproximate, StableCountExact, StagedCheckpoint, TokenMergingCounter,
};
use ppproto::junta::{all_inactive, junta_size, max_level, JuntaProtocol};
use ppproto::scenarios::{standard_matrix, MatrixConfig};
use ppproto::{
    dense_all_inactive, dense_max_level, DenseEpidemic, DenseJunta, FastLeaderElection,
    FastLeaderElectionConfig, LeaderElection, LeaderElectionConfig, OneWayEpidemic,
    PowersOfTwoLoadBalancing, SyncComposition, SynchronizedClockProtocol,
};
use ppproto::{HermanTokens, SelfStabRanking, StochasticCoalescence, TradeoffElection};
use ppsim::{
    derive_seed, run_matrix, AdversarialRun, BatchedSimulator, CorruptionTarget, DenseSimulator,
    Engine, FaultEvent, FaultKind, FaultPlan, IndexCodec, InitStrategy, Simulator,
    StateSpaceTracker,
};

use crate::fit::{n_log2_n, n_log_n, n_squared};
use crate::stats::Summary;
use crate::sweep::{sweep, sweep_with_threads, sweep_with_threads_checkpointed, TrialResult};
use crate::table::Table;

/// Crash-recovery policy for the long E-series runs (E19/E20), set once by
/// the CLI's `--checkpoint-dir` / `--checkpoint-every` flags: completed
/// sweep trials and mid-trial staged-runner snapshots land in `dir`, and a
/// re-run with the same flags resumes from whatever survived.
#[derive(Debug, Clone)]
pub struct CheckpointPlan {
    /// Directory holding the autosave snapshot files (created on first use).
    pub dir: PathBuf,
    /// Minimum interactions between staged-runner autosaves.
    pub every: u64,
}

static CHECKPOINTS: OnceLock<CheckpointPlan> = OnceLock::new();

/// Install the checkpoint plan for this process (first caller wins; the
/// E-series runners pick it up on their next sweep).
pub fn configure_checkpoints(plan: CheckpointPlan) {
    let _ = CHECKPOINTS.set(plan);
}

fn checkpoint_plan() -> Option<&'static CheckpointPlan> {
    CHECKPOINTS.get()
}

/// One-worker sweep, checkpointed at trial granularity when a
/// [`CheckpointPlan`] is installed (`tag` + master seed name the file).
fn sweep_serial_maybe_checkpointed<F>(
    tag: &str,
    sizes: &[usize],
    trials: usize,
    master: u64,
    job: F,
) -> Vec<Vec<TrialResult>>
where
    F: Fn(usize, u64) -> TrialResult + Sync,
{
    match checkpoint_plan() {
        Some(plan) => {
            let _ = std::fs::create_dir_all(&plan.dir);
            let path = plan.dir.join(format!("{tag}-m{master:x}.ppss"));
            sweep_with_threads_checkpointed(sizes, trials, master, 1, &path, job)
                .expect("sweep checkpoint read/write failed")
        }
        None => sweep_with_threads(sizes, trials, master, 1, job),
    }
}

/// Staged `CountExact` trial with mid-run autosave/resume when a
/// [`CheckpointPlan`] is installed; the snapshot is deleted once the trial
/// completes (the sweep-level checkpoint then carries its result).
fn staged_trial_maybe_checkpointed(
    tag: &str,
    params: CountExactParams,
    n: usize,
    seed: u64,
    engine: Engine,
    budget: u64,
) -> popcount::StagedCountOutcome {
    let Some(plan) = checkpoint_plan() else {
        return count_exact_dense_staged(params, n, seed, engine, budget).unwrap();
    };
    let _ = std::fs::create_dir_all(&plan.dir);
    let path = plan.dir.join(format!("{tag}-n{n}-s{seed:x}.ppss"));
    let spec = StagedCheckpoint {
        path: path.clone(),
        every: plan.every,
    };
    let resume = path.exists().then_some(path.as_path());
    let outcome =
        count_exact_dense_staged_checkpointed(params, n, seed, engine, budget, Some(&spec), resume)
            .unwrap();
    let _ = std::fs::remove_file(&path);
    outcome
}

/// How much work to spend per experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Small sizes, few trials — minutes for the whole suite.
    Quick,
    /// The sizes used for `EXPERIMENTS.md`.
    Full,
}

impl Effort {
    fn sizes(self, quick: &[usize], full: &[usize]) -> Vec<usize> {
        match self {
            Effort::Quick => quick.to_vec(),
            Effort::Full => full.to_vec(),
        }
    }

    fn trials(self, quick: usize, full: usize) -> usize {
        match self {
            Effort::Quick => quick,
            Effort::Full => full,
        }
    }
}

/// An experiment identifier together with its generated report table.
#[derive(Debug, Clone)]
#[must_use]
pub struct ExperimentReport {
    /// Experiment id, e.g. `"E01"`.
    pub id: &'static str,
    /// The paper claim being checked.
    pub claim: &'static str,
    /// The generated table.
    pub table: Table,
}

fn summarise_ratio(rows: &mut Table, results: &[Vec<TrialResult>], reference: fn(usize) -> f64) {
    for group in results {
        let n = group[0].n;
        let interactions: Vec<u64> = group.iter().map(|r| r.interactions).collect();
        let s = Summary::of_u64(&interactions);
        let converged = group.iter().filter(|r| r.converged).count();
        rows.push_row(vec![
            n.to_string(),
            format!("{}/{}", converged, group.len()),
            format!("{:.0}", s.median),
            format!("{:.2}", s.median / reference(n)),
            format!("{:.0}", s.min),
            format!("{:.0}", s.max),
        ]);
    }
}

/// E01 — Lemma 3: one-way epidemics complete within `O(n log n)` interactions.
pub fn e01_broadcast(effort: Effort) -> ExperimentReport {
    let sizes = effort.sizes(&[256, 1024, 4096], &[256, 1024, 4096, 16384, 65536]);
    let trials = effort.trials(5, 10);
    let results = sweep(&sizes, trials, 0xE01, |n, seed| {
        let mut sim = Simulator::new(OneWayEpidemic::new(), n, seed).unwrap();
        sim.states_mut()[0] = 1;
        let outcome = sim.run_until(
            |s| s.states().iter().all(|&x| x == 1),
            n as u64,
            (200.0 * n_log_n(n)) as u64,
        );
        TrialResult {
            n,
            seed,
            converged: outcome.converged(),
            interactions: outcome.interactions().unwrap_or(u64::MAX),
            metric: 0.0,
        }
    });
    let mut table = Table::new(
        "E01 — one-way epidemics (Lemma 3): interactions to inform all agents",
        &[
            "n",
            "converged",
            "median interactions",
            "median / (n log2 n)",
            "min",
            "max",
        ],
    );
    summarise_ratio(&mut table, &results, n_log_n);
    ExperimentReport {
        id: "E01",
        claim: "broadcast completes in O(n log n) interactions w.h.p.",
        table,
    }
}

/// E02 — Lemma 4: junta levels and junta size.
pub fn e02_junta(effort: Effort) -> ExperimentReport {
    let sizes = effort.sizes(&[512, 2048, 8192], &[512, 2048, 8192, 32768, 131072]);
    let trials = effort.trials(5, 10);
    let results = sweep(&sizes, trials, 0xE02, |n, seed| {
        let mut sim = Simulator::new(JuntaProtocol::new(), n, seed).unwrap();
        let outcome = sim.run_until(
            |s| all_inactive(s.states()),
            n as u64,
            (100.0 * n_log_n(n)) as u64,
        );
        let level = max_level(sim.states());
        let size = junta_size(sim.states());
        TrialResult {
            n,
            seed,
            converged: outcome.converged(),
            interactions: outcome.interactions().unwrap_or(u64::MAX),
            metric: f64::from(level) + size as f64 / 1e9, // packed; unpacked below
        }
    });
    let mut table = Table::new(
        "E02 — junta process (Lemma 4): stabilisation time, maximal level, junta size",
        &[
            "n",
            "log2 log2 n",
            "median interactions / (n log2 n)",
            "levels (min..max)",
            "junta size (median)",
            "sqrt(n)·log2 n",
        ],
    );
    for group in &results {
        let n = group[0].n;
        let inter = Summary::of_u64(&group.iter().map(|r| r.interactions).collect::<Vec<_>>());
        let levels: Vec<f64> = group.iter().map(|r| r.metric.floor()).collect();
        let sizes_j: Vec<f64> = group
            .iter()
            .map(|r| (r.metric.fract() * 1e9).round())
            .collect();
        let lv = Summary::of(&levels);
        let js = Summary::of(&sizes_j);
        let n_f = n as f64;
        table.push_row(vec![
            n.to_string(),
            format!("{:.2}", n_f.log2().log2()),
            format!("{:.2}", inter.median / n_log_n(n)),
            format!("{:.0}..{:.0}", lv.min, lv.max),
            format!("{:.0}", js.median),
            format!("{:.0}", n_f.sqrt() * n_f.log2()),
        ]);
    }
    ExperimentReport {
        id: "E02",
        claim: "junta stabilises in O(n log n); log log n − 4 ≤ level* ≤ log log n + 8; junta = O(√n log n)",
        table,
    }
}

/// E03 — Lemma 5: phase lengths of the junta-driven phase clock.
pub fn e03_phase_clock(effort: Effort) -> ExperimentReport {
    let sizes = effort.sizes(&[512, 2048], &[512, 2048, 8192, 32768]);
    let trials = effort.trials(3, 8);
    let results = sweep(&sizes, trials, 0xE03, |n, seed| {
        let proto = SynchronizedClockProtocol::new(16);
        let mut sim = Simulator::new(proto, n, seed).unwrap();
        // Let the clock start running, then measure the time for every agent to
        // advance by three further phases.
        sim.run((20.0 * n_log_n(n)) as u64);
        let base = sim.states().iter().map(|s| s.clock.phase).min().unwrap();
        let start = sim.interactions();
        let target = base + 3;
        let outcome = sim.run_until(
            move |s| s.states().iter().all(|st| st.clock.phase >= target),
            n as u64,
            start + (300.0 * n_log_n(n)) as u64,
        );
        let per_phase = (outcome
            .interactions()
            .unwrap_or(u64::MAX)
            .saturating_sub(start))
            / 3;
        TrialResult {
            n,
            seed,
            converged: outcome.converged(),
            interactions: per_phase,
            metric: 0.0,
        }
    });
    let mut table = Table::new(
        "E03 — phase clock (Lemma 5): interactions per phase (m = 16 hours)",
        &[
            "n",
            "converged",
            "median per-phase interactions",
            "median / (n log2 n)",
            "min",
            "max",
        ],
    );
    summarise_ratio(&mut table, &results, n_log_n);
    ExperimentReport {
        id: "E03",
        claim: "every phase spans Θ(n log n) interactions",
        table,
    }
}

/// E04 — Lemma 6: leader election of \[18\].
pub fn e04_leader_election(effort: Effort) -> ExperimentReport {
    let sizes = effort.sizes(&[256, 1024], &[256, 1024, 4096, 16384]);
    let trials = effort.trials(3, 8);
    let results = sweep(&sizes, trials, 0xE04, |n, seed| {
        let proto = SyncComposition::new(
            16,
            LeaderElection::new(LeaderElectionConfig { outer_hours: 32 }),
        );
        let mut sim = Simulator::new(proto, n, seed).unwrap();
        let outcome = sim.run_until(
            |s| s.states().iter().all(|a| a.inner.done),
            (n * 10) as u64,
            (300.0 * n_log2_n(n)) as u64,
        );
        let leaders = sim.states().iter().filter(|a| a.inner.contender).count();
        TrialResult {
            n,
            seed,
            converged: outcome.converged() && leaders == 1,
            interactions: outcome.interactions().unwrap_or(u64::MAX),
            metric: leaders as f64,
        }
    });
    let mut table = Table::new(
        "E04 — leader election of [18] (Lemma 6): interactions until every agent sets leaderDone",
        &[
            "n",
            "unique leader",
            "median interactions",
            "median / (n log2^2 n)",
            "min",
            "max",
        ],
    );
    summarise_ratio(&mut table, &results, n_log2_n);
    ExperimentReport {
        id: "E04",
        claim: "unique leader within O(n log² n) interactions, O(log log n) states",
        table,
    }
}

/// E05 — Lemma 7: `FastLeaderElection`.
pub fn e05_fast_leader_election(effort: Effort) -> ExperimentReport {
    let sizes = effort.sizes(&[256, 1024], &[256, 1024, 4096, 16384, 65536]);
    let trials = effort.trials(3, 8);
    let results = sweep(&sizes, trials, 0xE05, |n, seed| {
        let proto = SyncComposition::new(
            16,
            FastLeaderElection::new(FastLeaderElectionConfig {
                level_offset: 2,
                total_phases: 32,
            }),
        );
        let mut sim = Simulator::new(proto, n, seed).unwrap();
        let outcome = sim.run_until(
            |s| s.states().iter().all(|a| a.inner.done),
            (n * 10) as u64,
            (2_000.0 * n_log_n(n)) as u64,
        );
        let leaders = sim.states().iter().filter(|a| a.inner.contender).count();
        TrialResult {
            n,
            seed,
            converged: outcome.converged() && leaders == 1,
            interactions: outcome.interactions().unwrap_or(u64::MAX),
            metric: leaders as f64,
        }
    });
    let mut table = Table::new(
        "E05 — FastLeaderElection (Lemma 7): interactions until every agent sets leaderDone",
        &[
            "n",
            "unique leader",
            "median interactions",
            "median / (n log2 n)",
            "min",
            "max",
        ],
    );
    summarise_ratio(&mut table, &results, n_log_n);
    ExperimentReport {
        id: "E05",
        claim: "unique leader within O(n log n) interactions, Õ(n) states",
        table,
    }
}

/// E06 — Lemma 8: powers-of-two load balancing.
pub fn e06_load_balancing(effort: Effort) -> ExperimentReport {
    let sizes = effort.sizes(&[1024, 4096], &[1024, 4096, 16384, 65536]);
    let trials = effort.trials(5, 10);
    let results = sweep(&sizes, trials, 0xE06, |n, seed| {
        // Inject 2^κ ≤ 3n/4 tokens on a single agent (the largest admissible power).
        let kappa = ((0.75 * n as f64).log2().floor()) as i32;
        let mut sim = Simulator::new(PowersOfTwoLoadBalancing::new(), n, seed).unwrap();
        sim.states_mut()[0] = kappa;
        let budget = (16.0 * n_log_n(n)) as u64;
        let outcome = sim.run_until(|s| s.states().iter().all(|&k| k <= 0), n as u64, budget);
        TrialResult {
            n,
            seed,
            converged: outcome.converged(),
            interactions: outcome.interactions().unwrap_or(budget),
            metric: f64::from(kappa),
        }
    });
    let mut table = Table::new(
        "E06 — powers-of-two load balancing (Lemma 8): interactions until max load 1 (2^κ ≈ 3n/4 tokens)",
        &["n", "within 16·n·log2 n", "median interactions", "median / (n log2 n)", "min", "max"],
    );
    summarise_ratio(&mut table, &results, n_log_n);
    ExperimentReport {
        id: "E06",
        claim: "a single pile of ≤ 3n/4 tokens spreads to unit loads within 16·n·log n interactions w.h.p.",
        table,
    }
}

/// Shared runner for E07/E08: the full `Approximate` protocol.
fn run_approximate(n: usize, seed: u64) -> (bool, u64, Option<i32>) {
    let proto = Approximate::new(ApproximateParams::default());
    let mut sim = Simulator::new(proto, n, seed).unwrap();
    let outcome = sim.run_until(
        |s| all_estimated(s.states()),
        (n * 20) as u64,
        (3_000.0 * n_log2_n(n)) as u64,
    );
    let estimate = sim.output_stats().unanimous().cloned().flatten();
    (
        outcome.converged(),
        outcome.interactions().unwrap_or(u64::MAX),
        estimate,
    )
}

/// E07 — Lemma 9: the Search Protocol stops with `3n/4 < 2^k ≤ 2^⌈log n⌉`.
pub fn e07_search(effort: Effort) -> ExperimentReport {
    let sizes = effort.sizes(&[200, 500, 1000], &[200, 500, 1000, 2000, 5000]);
    let trials = effort.trials(3, 8);
    let results = sweep(&sizes, trials, 0xE07, |n, seed| {
        let (converged, interactions, estimate) = run_approximate(n, seed);
        let in_range = estimate.is_some_and(|k| {
            let load = 2f64.powi(k);
            load > 0.75 * n as f64 && k <= (n as f64).log2().ceil() as i32
        });
        TrialResult {
            n,
            seed,
            converged: converged && in_range,
            interactions,
            metric: estimate.map_or(f64::NAN, f64::from),
        }
    });
    let mut table = Table::new(
        "E07 — Search Protocol (Lemma 9): the search stops with 3n/4 < 2^k ≤ 2^⌈log2 n⌉",
        &[
            "n",
            "k in range",
            "observed k values",
            "⌊log2 n⌋ / ⌈log2 n⌉",
        ],
    );
    for group in &results {
        let n = group[0].n;
        let mut ks: Vec<i32> = group.iter().map(|r| r.metric as i32).collect();
        ks.sort_unstable();
        ks.dedup();
        let ok = group.iter().filter(|r| r.converged).count();
        let (floor, ceil) = valid_estimates(n);
        table.push_row(vec![
            n.to_string(),
            format!("{}/{}", ok, group.len()),
            format!("{ks:?}"),
            format!("{floor} / {ceil}"),
        ]);
    }
    ExperimentReport {
        id: "E07",
        claim: "search stops after ≤ ⌈log n⌉ rounds with 3n/4 < 2^k ≤ 2^⌈log n⌉",
        table,
    }
}

/// E08 — Theorem 1.1: protocol `Approximate`.
pub fn e08_approximate(effort: Effort) -> ExperimentReport {
    let sizes = effort.sizes(&[200, 500, 1000], &[200, 500, 1000, 2000, 5000, 10000]);
    let trials = effort.trials(3, 8);
    let results = sweep(&sizes, trials, 0xE08, |n, seed| {
        let (converged, interactions, estimate) = run_approximate(n, seed);
        let (floor, ceil) = valid_estimates(n);
        let valid = estimate == Some(floor) || estimate == Some(ceil);
        TrialResult {
            n,
            seed,
            converged: converged && valid,
            interactions,
            metric: estimate.map_or(f64::NAN, f64::from),
        }
    });
    let mut table = Table::new(
        "E08 — protocol Approximate (Theorem 1.1): output ∈ {⌊log2 n⌋, ⌈log2 n⌉}, convergence in O(n log² n)",
        &["n", "valid output", "median interactions", "median / (n log2^2 n)", "min", "max"],
    );
    summarise_ratio(&mut table, &results, n_log2_n);
    ExperimentReport {
        id: "E08",
        claim:
            "Approximate outputs ⌊log n⌋ or ⌈log n⌉ and converges within O(n log² n) interactions",
        table,
    }
}

/// Shared runner for E09–E11: the full `CountExact` protocol.
fn run_count_exact(n: usize, seed: u64) -> (bool, u64, Option<i64>, Option<u64>) {
    let proto = CountExact::new(CountExactParams::default());
    let mut sim = Simulator::new(proto, n, seed).unwrap();
    let outcome = sim.run_until(
        move |s| all_counted(s.protocol(), s.states(), n),
        (n * 20) as u64,
        (6_000.0 * n_log_n(n)) as u64,
    );
    let approx = sim.states().iter().find_map(|a| a.inner.approximation());
    let output = sim.output_stats().unanimous().cloned().flatten();
    (
        outcome.converged(),
        outcome.interactions().unwrap_or(u64::MAX),
        approx,
        output,
    )
}

/// E09 — Lemma 10: the approximation stage computes `log₂ n ± 3`.
pub fn e09_approx_stage(effort: Effort) -> ExperimentReport {
    let sizes = effort.sizes(&[300, 1000], &[300, 1000, 3000, 10000]);
    let trials = effort.trials(3, 8);
    let results = sweep(&sizes, trials, 0xE09, |n, seed| {
        let (converged, interactions, approx, _) = run_count_exact(n, seed);
        let err = approx.map_or(f64::NAN, |k| k as f64 - (n as f64).log2());
        TrialResult {
            n,
            seed,
            converged: converged && err.abs() <= 3.0,
            interactions,
            metric: err,
        }
    });
    let mut table = Table::new(
        "E09 — approximation stage (Lemma 10): error of k against log2 n",
        &["n", "|k − log2 n| ≤ 3", "errors k − log2 n (min..max)"],
    );
    for group in &results {
        let n = group[0].n;
        let errs: Vec<f64> = group.iter().map(|r| r.metric).collect();
        let s = Summary::of(&errs);
        let ok = group.iter().filter(|r| r.converged).count();
        table.push_row(vec![
            n.to_string(),
            format!("{}/{}", ok, group.len()),
            format!("{:.2}..{:.2}", s.min, s.max),
        ]);
    }
    ExperimentReport {
        id: "E09",
        claim: "the approximation stage computes log n ± 3",
        table,
    }
}

/// E10/E11 — Lemma 11 and Theorem 2: `CountExact` outputs exactly `n` within
/// `O(n log n)` interactions.
pub fn e11_count_exact(effort: Effort) -> ExperimentReport {
    let sizes = effort.sizes(&[300, 1000], &[300, 1000, 3000, 10000, 30000]);
    let trials = effort.trials(3, 8);
    let results = sweep(&sizes, trials, 0xE11, |n, seed| {
        let (converged, interactions, _, output) = run_count_exact(n, seed);
        TrialResult {
            n,
            seed,
            converged: converged && output == Some(n as u64),
            interactions,
            metric: output.map_or(f64::NAN, |o| o as f64),
        }
    });
    let mut table = Table::new(
        "E10/E11 — CountExact (Lemma 11, Theorem 2): exact output and O(n log n) interactions",
        &[
            "n",
            "exact output",
            "median interactions",
            "median / (n log2 n)",
            "min",
            "max",
        ],
    );
    summarise_ratio(&mut table, &results, n_log_n);
    ExperimentReport {
        id: "E11",
        claim: "CountExact outputs exactly n within O(n log n) interactions",
        table,
    }
}

/// E12 — Lemmas 12/13: the backup protocols.
pub fn e12_backup(effort: Effort) -> ExperimentReport {
    let sizes = effort.sizes(&[64, 128, 256], &[64, 128, 256, 512, 1024]);
    let trials = effort.trials(3, 8);
    let approx = sweep(&sizes, trials, 0xE12, |n, seed| {
        let mut sim = Simulator::new(ApproximateBackup::new(), n, seed).unwrap();
        let expected = (n as f64).log2().floor() as i32;
        let outcome = sim.run_until(
            move |s| s.states().iter().all(|st| st.k_max == expected),
            (n * n / 8).max(100) as u64,
            (100.0 * n_squared(n) * (n as f64).log2()) as u64,
        );
        TrialResult {
            n,
            seed,
            converged: outcome.converged(),
            interactions: outcome.interactions().unwrap_or(u64::MAX),
            metric: 0.0,
        }
    });
    let exact = sweep(&sizes, trials, 0xE12 + 1, |n, seed| {
        let mut sim = Simulator::new(ExactBackup::new(), n, seed).unwrap();
        let outcome = sim.run_until(
            move |s| s.states().iter().all(|st| st.count == n as u64),
            (n * n / 8).max(100) as u64,
            (100.0 * n_squared(n) * (n as f64).log2()) as u64,
        );
        TrialResult {
            n,
            seed,
            converged: outcome.converged(),
            interactions: outcome.interactions().unwrap_or(u64::MAX),
            metric: 0.0,
        }
    });
    let mut table = Table::new(
        "E12 — backup protocols (Lemmas 12/13): interactions to converge, divided by n²",
        &[
            "n",
            "approx backup: median / n²",
            "exact backup: median / n²",
            "all correct",
        ],
    );
    for (ga, ge) in approx.iter().zip(&exact) {
        let n = ga[0].n;
        let sa = Summary::of_u64(&ga.iter().map(|r| r.interactions).collect::<Vec<_>>());
        let se = Summary::of_u64(&ge.iter().map(|r| r.interactions).collect::<Vec<_>>());
        let ok = ga.iter().chain(ge).filter(|r| r.converged).count();
        table.push_row(vec![
            n.to_string(),
            format!("{:.2}", sa.median / n_squared(n)),
            format!("{:.2}", se.median / n_squared(n)),
            format!("{}/{}", ok, ga.len() + ge.len()),
        ]);
    }
    ExperimentReport {
        id: "E12",
        claim: "backup protocols converge to ⌊log n⌋ / exact n within O(n² log² n) / O(n² log n) interactions",
        table,
    }
}

/// E13 — baseline comparison: the `Θ(n²)` token-merging counter versus `CountExact`.
pub fn e13_baseline_comparison(effort: Effort) -> ExperimentReport {
    let sizes = effort.sizes(&[128, 256, 512], &[128, 256, 512, 1024, 2048]);
    let trials = effort.trials(3, 6);
    let baseline = sweep(&sizes, trials, 0xE13, |n, seed| {
        let mut sim = Simulator::new(TokenMergingCounter::new(), n, seed).unwrap();
        let outcome = sim.run_until(
            move |s| all_output_n(s.states(), n),
            (n * n / 8).max(100) as u64,
            (200.0 * n_squared(n)) as u64,
        );
        TrialResult {
            n,
            seed,
            converged: outcome.converged(),
            interactions: outcome.interactions().unwrap_or(u64::MAX),
            metric: 0.0,
        }
    });
    let fast = sweep(&sizes, trials, 0xE13 + 1, |n, seed| {
        let (converged, interactions, _, output) = run_count_exact(n, seed);
        TrialResult {
            n,
            seed,
            converged: converged && output == Some(n as u64),
            interactions,
            metric: 0.0,
        }
    });
    let mut table = Table::new(
        "E13 — who wins: Θ(n²) token-merging baseline vs CountExact (median interactions)",
        &[
            "n",
            "baseline",
            "CountExact",
            "speed-up",
            "baseline / n²",
            "CountExact / (n log2 n)",
        ],
    );
    for (gb, gf) in baseline.iter().zip(&fast) {
        let n = gb[0].n;
        let sb = Summary::of_u64(&gb.iter().map(|r| r.interactions).collect::<Vec<_>>());
        let sf = Summary::of_u64(&gf.iter().map(|r| r.interactions).collect::<Vec<_>>());
        table.push_row(vec![
            n.to_string(),
            format!("{:.0}", sb.median),
            format!("{:.0}", sf.median),
            format!("{:.2}×", sb.median / sf.median),
            format!("{:.2}", sb.median / n_squared(n)),
            format!("{:.0}", sf.median / n_log_n(n)),
        ]);
    }
    ExperimentReport {
        id: "E13",
        claim:
            "the uniform baseline needs Θ(n²) interactions; CountExact wins by a factor ≈ n / log n",
        table,
    }
}

/// E14 — Theorem 1.2/1.3 and Appendix F: the stable variants.
pub fn e14_stable(effort: Effort) -> ExperimentReport {
    let sizes = effort.sizes(&[200, 400], &[200, 400, 800, 1600]);
    let trials = effort.trials(3, 6);
    let approx = sweep(&sizes, trials, 0xE14, |n, seed| {
        let proto = StableApproximate::default();
        let mut sim = Simulator::new(proto, n, seed).unwrap();
        let outcome = sim.run_until(
            move |s| all_estimates_valid(s.protocol(), s.states(), n),
            (n * 20) as u64,
            (5_000.0 * n_log2_n(n)) as u64,
        );
        let errors = sim.states().iter().filter(|a| a.error).count();
        TrialResult {
            n,
            seed,
            converged: outcome.converged(),
            interactions: outcome.interactions().unwrap_or(u64::MAX),
            metric: errors as f64,
        }
    });
    let exact = sweep(&sizes, trials, 0xE14 + 1, |n, seed| {
        let proto = StableCountExact::default();
        let mut sim = Simulator::new(proto, n, seed).unwrap();
        let outcome = sim.run_until(
            move |s| all_exact(s.protocol(), s.states(), n),
            (n * 20) as u64,
            (6_000.0 * n_log_n(n)) as u64,
        );
        let errors = sim.states().iter().filter(|a| a.error).count();
        TrialResult {
            n,
            seed,
            converged: outcome.converged(),
            interactions: outcome.interactions().unwrap_or(u64::MAX),
            metric: errors as f64,
        }
    });
    let mut table = Table::new(
        "E14 — stable variants: correct output of the hybrid protocols (error path taken when detection fires)",
        &["n", "stable Approximate correct", "fallbacks", "stable CountExact correct", "fallbacks"],
    );
    for (ga, ge) in approx.iter().zip(&exact) {
        let n = ga[0].n;
        table.push_row(vec![
            n.to_string(),
            format!("{}/{}", ga.iter().filter(|r| r.converged).count(), ga.len()),
            format!("{}", ga.iter().filter(|r| r.metric > 0.0).count()),
            format!("{}/{}", ge.iter().filter(|r| r.converged).count(), ge.len()),
            format!("{}", ge.iter().filter(|r| r.metric > 0.0).count()),
        ]);
    }
    ExperimentReport {
        id: "E14",
        claim: "the hybrid protocols always reach a correct output, falling back to the backup when error detection fires",
        table,
    }
}

/// E15 — state-space accounting (Figures 1–3): distinct states used per protocol.
pub fn e15_state_space(effort: Effort) -> ExperimentReport {
    let sizes = effort.sizes(&[200, 500], &[200, 500, 1000, 2000, 5000]);
    let trials = effort.trials(2, 4);
    let approx = sweep(&sizes, trials, 0xE15, |n, seed| {
        let proto = Approximate::new(ApproximateParams::default());
        let mut sim = Simulator::new(proto, n, seed).unwrap();
        let mut tracker = StateSpaceTracker::new();
        // The tracker records the configuration at every check, before the
        // convergence test.
        let outcome = sim.run_until(
            |s| {
                // Normalise the unbounded book-keeping fields (absolute phase
                // counters) the way the paper's constant-size counters would.
                for a in s.states() {
                    let mut key = *a;
                    key.sync.clock.phase %= 5;
                    key.inner.election.outer.phase = 0;
                    tracker.record_state(&key);
                }
                all_estimated(s.states())
            },
            (n * 5) as u64,
            (3_000.0 * n_log2_n(n)) as u64,
        );
        TrialResult {
            n,
            seed,
            converged: outcome.converged(),
            interactions: outcome.interactions().unwrap_or(u64::MAX),
            metric: tracker.distinct_states() as f64,
        }
    });
    let exact = sweep(&sizes, trials, 0xE15 + 1, |n, seed| {
        let proto = CountExact::new(CountExactParams::default());
        let mut sim = Simulator::new(proto, n, seed).unwrap();
        let mut tracker = StateSpaceTracker::new();
        let outcome = sim.run_until(
            |s| {
                for a in s.states() {
                    let mut key = *a;
                    key.sync.clock.phase %= 8;
                    key.inner.stage.tag = 0;
                    key.inner.stage.origin_phase = 0;
                    key.inner.stage.start_phase = 0;
                    tracker.record_state(&key);
                }
                all_counted(s.protocol(), s.states(), n)
            },
            (n * 5) as u64,
            (6_000.0 * n_log_n(n)) as u64,
        );
        TrialResult {
            n,
            seed,
            converged: outcome.converged(),
            interactions: outcome.interactions().unwrap_or(u64::MAX),
            metric: tracker.distinct_states() as f64,
        }
    });
    let mut table = Table::new(
        "E15 — empirical state usage (sampled every n/5 interactions, phase counters normalised)",
        &[
            "n",
            "Approximate distinct states",
            "log2 n · log2 log2 n",
            "CountExact distinct states",
            "n",
        ],
    );
    for (ga, ge) in approx.iter().zip(&exact) {
        let n = ga[0].n;
        let sa = Summary::of(&ga.iter().map(|r| r.metric).collect::<Vec<_>>());
        let se = Summary::of(&ge.iter().map(|r| r.metric).collect::<Vec<_>>());
        let n_f = n as f64;
        table.push_row(vec![
            n.to_string(),
            format!("{:.0}", sa.median),
            format!("{:.0}", n_f.log2() * n_f.log2().log2()),
            format!("{:.0}", se.median),
            n.to_string(),
        ]);
    }
    ExperimentReport {
        id: "E15",
        claim: "Approximate uses O(log n log log n) states, CountExact Õ(n) states (empirical count of distinct sampled states)",
        table,
    }
}

/// E16 — the batched count-based engine at population sizes the sequential
/// engine cannot serve: Lemma 3 (epidemics) and Lemma 4 (junta levels) at
/// `n` up to 10⁶/10⁷.
///
/// Every trial uses [`BatchedSimulator`]; the interesting column is the
/// flat `median / (n log₂ n)` ratio persisting two to three orders of
/// magnitude beyond the sequential experiments E01/E02 — the regime the
/// related space–time-trade-off and coalescence reproductions need.
pub fn e16_batched_scale(effort: Effort) -> ExperimentReport {
    let sizes = effort.sizes(
        &[10_000, 100_000, 1_000_000],
        &[10_000, 100_000, 1_000_000, 10_000_000],
    );
    let trials = effort.trials(3, 5);
    let results = sweep(&sizes, trials, 0xE16, |n, seed| {
        let mut sim = BatchedSimulator::new(DenseEpidemic, n, seed).unwrap();
        sim.transfer(0, 1, 1).unwrap();
        let outcome = sim.run_until(
            |s| s.count_of(1) == s.population(),
            n as u64,
            (200.0 * n_log_n(n)) as u64,
        );
        TrialResult {
            n,
            seed,
            converged: outcome.converged(),
            interactions: outcome.interactions().unwrap_or(u64::MAX),
            metric: 0.0,
        }
    });
    let mut table = Table::new(
        "E16 — batched engine at scale: epidemic completion up to n = 10⁷ (Lemma 3 regime)",
        &[
            "n",
            "converged",
            "median interactions",
            "median / (n log2 n)",
            "min",
            "max",
        ],
    );
    summarise_ratio(&mut table, &results, n_log_n);

    // Lemma 4 observable at scale: the maximal junta level tracks log log n.
    let junta_sizes: Vec<usize> = sizes.iter().copied().filter(|&n| n <= 1_000_000).collect();
    let junta_results = sweep(&junta_sizes, trials, 0xE16 + 1, |n, seed| {
        let d = DenseJunta::new();
        let mut sim = BatchedSimulator::new(d, n, seed).unwrap();
        let outcome = sim.run_until(
            |s| dense_all_inactive(s.protocol(), s.counts()),
            n as u64,
            (200.0 * n_log_n(n)) as u64,
        );
        let level = dense_max_level(sim.protocol(), sim.counts());
        TrialResult {
            n,
            seed,
            converged: outcome.converged(),
            interactions: outcome.interactions().unwrap_or(u64::MAX),
            metric: f64::from(level),
        }
    });
    for group in &junta_results {
        let n = group[0].n;
        let levels: Vec<f64> = group.iter().map(|r| r.metric).collect();
        let s = Summary::of(&levels);
        table.push_row(vec![
            format!("{n} (junta)"),
            format!(
                "{}/{}",
                group.iter().filter(|r| r.converged).count(),
                group.len()
            ),
            format!("max level {:.1}", s.median),
            format!("log2 log2 n = {:.2}", (n as f64).log2().log2()),
            format!("{:.0}", s.min),
            format!("{:.0}", s.max),
        ]);
    }
    ExperimentReport {
        id: "E16",
        claim: "the batched engine sustains the paper's asymptotics at n = 10⁶–10⁷, far beyond the sequential engine's practical range",
        table,
    }
}

/// E17 — engine equivalence: the batched and sequential engines produce the
/// same convergence-time distribution for the identical dense transition
/// system.
pub fn e17_engine_equivalence(effort: Effort) -> ExperimentReport {
    let sizes = effort.sizes(&[512, 2048], &[512, 2048, 8192]);
    let trials = effort.trials(8, 20);

    let batched = sweep(&sizes, trials, 0xE17, |n, seed| {
        let mut sim = BatchedSimulator::new(DenseEpidemic, n, seed).unwrap();
        sim.transfer(0, 1, 1).unwrap();
        let outcome = sim.run_until(
            |s| s.count_of(1) == s.population(),
            (n / 8).max(1) as u64,
            u64::MAX >> 1,
        );
        TrialResult {
            n,
            seed,
            converged: outcome.converged(),
            interactions: outcome.interactions().unwrap_or(u64::MAX),
            metric: 0.0,
        }
    });
    let sequential = sweep(&sizes, trials, 0xE17 + 1, |n, seed| {
        let mut sim = Simulator::new(IndexCodec(DenseEpidemic), n, seed).unwrap();
        sim.states_mut()[0] = 1;
        let outcome = sim.run_until(
            |s| s.states().iter().all(|&x| x == 1),
            (n / 8).max(1) as u64,
            u64::MAX >> 1,
        );
        TrialResult {
            n,
            seed,
            converged: outcome.converged(),
            interactions: outcome.interactions().unwrap_or(u64::MAX),
            metric: 0.0,
        }
    });

    let mut table = Table::new(
        "E17 — engine equivalence: epidemic convergence times, batched vs sequential",
        &[
            "n",
            "batched median",
            "sequential median",
            "ratio",
            "batched IQR-ish",
            "sequential IQR-ish",
        ],
    );
    for (bg, sg) in batched.iter().zip(&sequential) {
        let n = bg[0].n;
        let b: Vec<u64> = bg.iter().map(|r| r.interactions).collect();
        let s: Vec<u64> = sg.iter().map(|r| r.interactions).collect();
        let (bs, ss) = (Summary::of_u64(&b), Summary::of_u64(&s));
        table.push_row(vec![
            n.to_string(),
            format!("{:.0}", bs.median),
            format!("{:.0}", ss.median),
            format!("{:.3}", bs.median / ss.median),
            format!("[{:.0}, {:.0}]", bs.min, bs.max),
            format!("[{:.0}, {:.0}]", ss.min, ss.max),
        ]);
    }
    ExperimentReport {
        id: "E17",
        claim: "batched and sequential engines draw from the same convergence-time distribution (median ratio ≈ 1)",
        table,
    }
}

/// E18 — the sharded engine at scale: epidemic convergence wall-clock for
/// the batched engine versus the sharded engine (8 shards) across thread
/// counts, at `n` up to 10⁹.
///
/// Every trial drives the same dense epidemic through the [`Engine`] /
/// [`DenseSimulator`] selection layer, so the rows differ only in the engine
/// configuration.  Trials run serially ([`sweep_with_threads`] with one
/// trial-level worker): the sharded engine brings its own threads, and
/// nesting the two parallelism levels would corrupt the wall-clock column.
pub fn e18_sharded_scale(effort: Effort) -> ExperimentReport {
    use std::time::Instant;

    let sizes = effort.sizes(
        &[100_000, 1_000_000],
        &[1_000_000, 10_000_000, 100_000_000, 1_000_000_000],
    );
    let trials = effort.trials(2, 3);
    let thread_counts: &[usize] = match effort {
        Effort::Quick => &[1, 2],
        Effort::Full => &[1, 2, 4, 8, 16],
    };

    let mut table = Table::new(
        "E18 — sharded engine at scale: epidemic convergence, batched vs sharded (8 shards), threads 1–16",
        &[
            "n",
            "engine",
            "converged",
            "median seconds",
            "G interactions/s",
            "speedup vs batched",
        ],
    );

    let run_config = |engine: Engine, n: usize, master: u64| -> Vec<TrialResult> {
        sweep_with_threads(&[n], trials, master, 1, |n, seed| {
            let start = Instant::now();
            let mut sim = DenseSimulator::new(engine, DenseEpidemic, n, seed).unwrap();
            sim.transfer(0, 1, 1).unwrap();
            let outcome = sim.run_until(
                |s| s.count_of(1) == s.population(),
                n as u64,
                (200.0 * n_log_n(n)) as u64,
            );
            TrialResult {
                n,
                seed,
                converged: outcome.converged(),
                interactions: outcome.interactions().unwrap_or(u64::MAX),
                metric: start.elapsed().as_secs_f64(),
            }
        })
        .remove(0)
    };
    let push_row =
        |table: &mut Table, label: String, group: &[TrialResult], base: Option<f64>| -> f64 {
            let secs = Summary::of(&group.iter().map(|r| r.metric).collect::<Vec<_>>());
            let inter = Summary::of(
                &group
                    .iter()
                    .map(|r| r.interactions as f64)
                    .collect::<Vec<_>>(),
            );
            let n = group[0].n;
            table.push_row(vec![
                n.to_string(),
                label,
                format!(
                    "{}/{}",
                    group.iter().filter(|r| r.converged).count(),
                    group.len()
                ),
                format!("{:.3}", secs.median),
                format!("{:.2}", inter.median / secs.median / 1e9),
                base.map_or_else(
                    || "1.00× (baseline)".into(),
                    |b| format!("{:.2}×", b / secs.median),
                ),
            ]);
            secs.median
        };

    for (si, &n) in sizes.iter().enumerate() {
        let batched = run_config(Engine::Batched, n, 0xE18 + 100 * si as u64);
        let base = push_row(&mut table, "batched".into(), &batched, None);
        for (ti, &threads) in thread_counts.iter().enumerate() {
            let engine = Engine::Sharded { shards: 8, threads };
            let group = run_config(engine, n, 0xE18 + 100 * si as u64 + 1 + ti as u64);
            push_row(
                &mut table,
                format!("sharded s=8 t={threads}"),
                &group,
                Some(base),
            );
        }
    }
    ExperimentReport {
        id: "E18",
        claim: "the sharded engine sustains epidemic convergence to n = 10⁹ and beats the batched engine wherever n ≥ 10⁷",
        table,
    }
}

/// E19 — Theorems 1/2 on the count-based engines: the composed counting
/// protocols (`DenseApproximate`, `DenseCountExact`) run to a unanimous valid
/// output on the batched engine and one sharded configuration.
///
/// This is the experiment the dense encodings exist for: before them, E08 and
/// E11 capped at `n ≈ 10⁴` on the sequential engine.  The dense encodings are
/// exact (`crates/core/tests/dense_equivalence.rs` pins dense ↔ sequential
/// bisimulation and KS equivalence), so the numbers here are Theorem 1/2
/// measurements, not approximations.  `CountExact` runs with
/// [`CountExactParams::dense_at_scale`] — the paper's `γ = 8` election offset
/// (1-bit rounds), which keeps the election's live value classes `O(log n)`
/// so the configuration stays batchable; the `dense states` column reports
/// the distinct states each run discovered (the empirical side of the
/// `O(log n · log log n)` / `Õ(n)` state bounds, cf. E15).
///
/// Trials run serially: a single dense trial at `n = 10⁶` is minutes of
/// wall-clock (see the README's reproducing table), and the sharded engine
/// brings its own worker threads.
pub fn e19_dense_counting(effort: Effort) -> ExperimentReport {
    use std::time::Instant;

    // One seeded trial per engine at the headline size: a single converged
    // Approximate run at n = 10⁶ is ≈ 10¹¹ interactions (phase lengths grow
    // with n/|junta| ~ √n, so ~200 phases of ~6·10⁸ each) — about an hour of
    // single-core wall-clock.  The Quick tier runs n = 10⁴ with two trials
    // for a distributional sanity check; larger sweeps (10⁷⁺) go through
    // `bench_batched_json --workload approximate --sizes ...` on real
    // multicore hardware.
    let approx_sizes = effort.sizes(&[10_000], &[1_000_000]);
    let exact_sizes = effort.sizes(&[10_000], &[1_000_000]);
    let trials = effort.trials(2, 1);

    let mut table = Table::new(
        "E19 — dense counting (Theorems 1/2): Approximate and CountExact on the count-based engines",
        &[
            "n",
            "protocol @ engine",
            "valid output",
            "median interactions",
            "median / reference",
            "dense states",
            "median seconds",
        ],
    );

    // Both runners stop at the first *unanimous* output (all agents agree on
    // some value — the composition's stable configuration) and record whether
    // that value is valid separately: waiting for a unanimous *valid* value
    // would spin forever on the rare run whose search overshoots.
    let run_approximate = |engine: Engine, n: usize, master: u64, trials: usize| {
        sweep_serial_maybe_checkpointed("e19-approximate", &[n], trials, master, |n, seed| {
            let start = Instant::now();
            let proto = DenseApproximate::with_capacity(ApproximateParams::default(), 1 << 20);
            let handle = proto.clone(); // shares the interner: reads the state census
            let mut sim = DenseSimulator::new(engine, proto, n, seed).unwrap();
            let (floor, ceil) = valid_estimates(n);
            let outcome = sim.run_until(
                |s| matches!(s.output_stats().unanimous(), Some(&Some(_))),
                (n as u64) * 50,
                (n as u64).saturating_mul(400_000),
            );
            let valid = matches!(sim.output_stats().unanimous(),
                                 Some(&Some(k)) if k == floor || k == ceil);
            TrialResult {
                n,
                seed,
                converged: outcome.converged() && valid,
                interactions: outcome.interactions().unwrap_or(u64::MAX),
                metric: handle.states_discovered() as f64 + start.elapsed().as_secs_f64() / 1e9,
            }
        })
        .remove(0)
    };
    // CountExact runs on the hybrid engine (`count_exact_dense_staged`):
    // count-based while the census stays narrow (stages 1–2), per-agent
    // through the refinement, automatic migration in between — Theorem 2's
    // Õ(n) states are real, and the refinement's Θ(n) live loads degenerate
    // any count-based representation (see `popcount::exact::staged`).  Note
    // the `dense states` column counts the *whole run's* interned census:
    // the stage-1–2 window plus every configuration a decoded per-agent
    // stint hands back to the dense substrate (≈ 0.5n at n = 10⁵).
    let run_count_exact = |engine: Engine, n: usize, master: u64, trials: usize| {
        sweep_serial_maybe_checkpointed("e19-countexact", &[n], trials, master, |n, seed| {
            let start = Instant::now();
            let outcome = staged_trial_maybe_checkpointed(
                "e19-countexact-staged",
                CountExactParams::dense_at_scale(n),
                n,
                seed,
                engine,
                (n as u64).saturating_mul(300_000),
            );
            TrialResult {
                n,
                seed,
                converged: outcome.converged && outcome.output == Some(n as u64),
                interactions: outcome.interactions,
                metric: outcome.states_discovered as f64 + start.elapsed().as_secs_f64() / 1e9,
            }
        })
        .remove(0)
    };

    let push = |table: &mut Table,
                label: String,
                group: &[TrialResult],
                reference: fn(usize) -> f64,
                elapsed: &[f64]| {
        let n = group[0].n;
        let inter = Summary::of_u64(&group.iter().map(|r| r.interactions).collect::<Vec<_>>());
        let states = Summary::of(&group.iter().map(|r| r.metric.floor()).collect::<Vec<_>>());
        let secs = Summary::of(elapsed);
        table.push_row(vec![
            n.to_string(),
            label,
            format!(
                "{}/{}",
                group.iter().filter(|r| r.converged).count(),
                group.len()
            ),
            format!("{:.3e}", inter.median),
            format!("{:.1}", inter.median / reference(n)),
            format!("{:.0}", states.median),
            format!("{:.1}", secs.median),
        ]);
    };

    // The wall-clock rides in the metric's fractional part (seconds / 1e9
    // never collides with the integer state census).
    let secs_of = |group: &[TrialResult]| -> Vec<f64> {
        group.iter().map(|r| r.metric.fract() * 1e9).collect()
    };

    let sharded = Engine::Sharded {
        shards: 2,
        threads: 1,
    };
    for (si, &n) in approx_sizes.iter().enumerate() {
        let g = run_approximate(Engine::Batched, n, 0xE19 + 10 * si as u64, trials);
        push(
            &mut table,
            "Approximate @ batched".into(),
            &g,
            n_log2_n,
            &secs_of(&g),
        );
        if si == 0 {
            let g = run_approximate(sharded, n, 0xE19 + 10 * si as u64 + 5, 1);
            push(
                &mut table,
                "Approximate @ sharded s=2".into(),
                &g,
                n_log2_n,
                &secs_of(&g),
            );
        }
    }
    for (si, &n) in exact_sizes.iter().enumerate() {
        let g = run_count_exact(Engine::Batched, n, 0xE19 + 100 + 10 * si as u64, trials);
        push(
            &mut table,
            "CountExact @ batched staged".into(),
            &g,
            n_log_n,
            &secs_of(&g),
        );
        if si == 0 {
            let g = run_count_exact(sharded, n, 0xE19 + 100 + 10 * si as u64 + 5, 1);
            push(
                &mut table,
                "CountExact @ sharded s=2 staged".into(),
                &g,
                n_log_n,
                &secs_of(&g),
            );
        }
    }

    ExperimentReport {
        id: "E19",
        claim: "the composed counting protocols converge to valid outputs at n = 10⁶⁺ on the \
                batched and sharded engines (Theorems 1/2 beyond the sequential range)",
        table,
    }
}

/// E20 — the hybrid engine on the composed counting protocols: switch
/// points and interaction counts of the automatic dense ↔ per-agent
/// migration.
///
/// Two workloads:
///
/// * **CountExact @ hybrid (auto)** — `count_exact_dense_staged`: the
///   occupancy monitor detects the refinement transient by its
///   `q_occ² > c·√n` signature and migrates on its own, with no knowledge of
///   the protocol's stages; per-agent stints step **native structs**
///   through the protocol's agent-state codec (no interner traffic in the
///   hot loop).  Dividing a row's agent interactions by its *agent-leg s*
///   gives the refinement-leg throughput; the *dense states* column counts
///   only the boundary configurations the stints intern, not the `Θ(n)`
///   transient.
/// * **Approximate @ hybrid** — a dynamic protocol whose census stays
///   `O(log n · log log n)`: nothing here *forces* a migration.  At the
///   quick-tier `n = 10⁴` the occupancy-to-`√n` ratio is borderline
///   (`√n = 100` against a transient census of a few hundred), so the
///   monitor may take a handful of monitor-spaced round trips; the
///   hysteresis keeps them bounded, and at full-tier sizes `√n` outgrows
///   the census and the run stays dense.
///
/// The migration is exact, so a row's output must be the exact count
/// (resp. a valid estimate) whatever the switch points.  Trials run
/// serially ([`sweep_with_threads`] with one worker): the hybrid engine
/// brings its own representation churn and the wall-clocks are the
/// measurement.
pub fn e20_hybrid_counting(effort: Effort) -> ExperimentReport {
    use std::sync::Mutex;
    use std::time::Instant;

    // Quick tier pins the acceptance row: CountExact exact at n = 10⁵.
    let exact_sizes = effort.sizes(&[100_000], &[100_000, 1_000_000]);
    let approx_sizes = effort.sizes(&[10_000], &[100_000, 1_000_000]);

    let mut table = Table::new(
        "E20 — hybrid engine (dense ↔ per-agent): switch points and interaction counts",
        &[
            "n",
            "workload",
            "valid output",
            "interactions",
            "dense / agent",
            "switch points",
            "dense states",
            "agent-leg s",
            "seconds",
        ],
    );

    /// Everything one hybrid trial reports beyond the `TrialResult` shape.
    struct RichOutcome {
        n: usize,
        converged: bool,
        interactions: u64,
        dense: u64,
        agent: u64,
        switches: Vec<u64>,
        states: usize,
        agent_seconds: f64,
        seconds: f64,
    }

    let push = |table: &mut Table, label: &str, r: &RichOutcome| {
        table.push_row(vec![
            r.n.to_string(),
            label.to_string(),
            if r.converged { "yes" } else { "NO" }.to_string(),
            format!("{:.3e}", r.interactions as f64),
            format!("{:.3e} / {:.3e}", r.dense as f64, r.agent as f64),
            if r.switches.is_empty() {
                "none".to_string()
            } else {
                r.switches
                    .iter()
                    .map(|s| format!("{:.3e}", *s as f64))
                    .collect::<Vec<_>>()
                    .join(", ")
            },
            r.states.to_string(),
            format!("{:.1}", r.agent_seconds),
            format!("{:.1}", r.seconds),
        ]);
    };

    // One serial seeded trial through the sweep plumbing
    // ([`sweep_with_threads`] with one worker, consistent with the other
    // engine experiments), carrying the rich hybrid outcome out past
    // `TrialResult`'s flat shape.
    let run_rich =
        |n: usize, master: u64, job: &(dyn Fn(usize, u64) -> RichOutcome + Sync)| -> RichOutcome {
            let rich: Mutex<Option<RichOutcome>> = Mutex::new(None);
            sweep_with_threads(&[n], 1, master, 1, |n, seed| {
                let r = job(n, seed);
                let trial = TrialResult {
                    n,
                    seed,
                    converged: r.converged,
                    interactions: r.interactions,
                    metric: r.states as f64,
                };
                *rich.lock().unwrap() = Some(r);
                trial
            });
            rich.into_inner().unwrap().expect("one trial ran")
        };

    // CountExact, automatic switch (the staged entry point).
    let run_auto = |n: usize, master: u64| -> RichOutcome {
        run_rich(n, master, &|n, seed| {
            let start = Instant::now();
            let o = staged_trial_maybe_checkpointed(
                "e20-auto",
                CountExactParams::dense_at_scale(n),
                n,
                seed,
                Engine::Batched,
                (n as u64).saturating_mul(300_000),
            );
            RichOutcome {
                n,
                converged: o.converged && o.output == Some(n as u64),
                interactions: o.interactions,
                dense: o.dense_interactions,
                agent: o.agent_interactions,
                switches: o.switch_interactions.clone(),
                states: o.states_discovered,
                agent_seconds: o.agent_seconds,
                seconds: start.elapsed().as_secs_f64(),
            }
        })
    };

    // Approximate on the hybrid engine: nothing forces a migration here —
    // the monitor's behaviour near the occupancy/sqrt(n) boundary is the
    // measurement (see the experiment docs).
    let run_approximate = |n: usize, master: u64| -> RichOutcome {
        run_rich(n, master, &|n, seed| {
            let start = Instant::now();
            let proto = DenseApproximate::with_capacity(ApproximateParams::default(), 1 << 20);
            let handle = proto.clone();
            let mut sim = ppsim::HybridSimulator::new(proto, n, seed).unwrap();
            let (floor, ceil) = valid_estimates(n);
            let outcome = sim.run_until(
                |s| matches!(s.output_stats().unanimous(), Some(&Some(_))),
                (n as u64) * 50,
                (n as u64).saturating_mul(400_000),
            );
            let valid = matches!(sim.output_stats().unanimous(),
                                 Some(&Some(k)) if k == floor || k == ceil);
            let legs = sim.legs();
            RichOutcome {
                n,
                converged: outcome.converged() && valid,
                interactions: sim.interactions(),
                dense: legs.dense_interactions,
                agent: legs.agent_interactions,
                switches: sim.switches().iter().map(|e| e.interactions).collect(),
                states: handle.states_discovered(),
                agent_seconds: legs.agent_seconds,
                seconds: start.elapsed().as_secs_f64(),
            }
        })
    };

    for (si, &n) in exact_sizes.iter().enumerate() {
        let auto = run_auto(n, 0xE20 + 10 * si as u64);
        push(&mut table, "CountExact @ hybrid (auto)", &auto);
    }
    for (si, &n) in approx_sizes.iter().enumerate() {
        let approx = run_approximate(n, 0xE20 + 100 + 10 * si as u64);
        push(&mut table, "Approximate @ hybrid", &approx);
    }

    ExperimentReport {
        id: "E20",
        claim: "the hybrid engine finds the CountExact refinement hand-off on its own — the \
                output is the exact count, with the switch points where the monitor saw the \
                refinement transient — and its hysteresis keeps every migration bounded and \
                monitor-spaced",
        table,
    }
}

/// E21 — the adversarial fault model ([`ppsim::adversary`]): time to
/// reconverge after a transient in-run corruption, as a function of fault
/// size and `n`, on all four engines.
///
/// Two workloads:
///
/// * **epidemic** — converge, then knock 1% / 10% / 50% of the agents back
///   to susceptible ([`CorruptionTarget::State`]); recovery is re-infection,
///   reference `n·ln n` (the fault-free completion time, Lemma 3).  The
///   sequential engine is skipped above `n = 10⁴` (per-agent stepping at
///   these budgets is prohibitive; the other engines sample the identical
///   process — E17).
/// * **ranking (self-stabilizing)** — start from a *seeded-arbitrary*
///   configuration ([`InitStrategy::SeededArbitrary`]), then pile a quarter
///   of the population onto one rank mid-run; recovery is collision-driven
///   re-ranking, reference `n²`.
///
/// Recovery time is [`ppsim::RecoveryRecord::recovery_time`]: logical
/// interactions from the injection to the first convergence check that
/// holds.
pub fn e21_adversarial_recovery(effort: Effort) -> ExperimentReport {
    let epidemic_sizes = effort.sizes(&[1_000, 10_000], &[10_000, 100_000]);
    let ranking_sizes = effort.sizes(&[48], &[64, 128]);
    let trials = effort.trials(3, 5);
    let fracs: [f64; 3] = [0.01, 0.10, 0.50];

    const ENGINES: [(Engine, &str); 4] = [
        (Engine::Sequential, "sequential"),
        (Engine::Batched, "batched"),
        (
            Engine::Sharded {
                shards: 4,
                threads: 1,
            },
            "sharded",
        ),
        (Engine::Hybrid, "hybrid"),
    ];

    let mut table = Table::new(
        "E21 — adversarial recovery: interactions from fault injection back to convergence \
         (epidemic reference n·ln n, ranking reference n²)",
        &[
            "workload",
            "engine",
            "n",
            "fault",
            "recovered",
            "median recovery",
            "recovery / ref",
            "min",
            "max",
        ],
    );

    let mut push_row = |workload: &str,
                        label: &str,
                        n: usize,
                        fault: String,
                        recovered: usize,
                        total: usize,
                        recoveries: &[u64],
                        reference: f64| {
        let (median, ratio, min, max) = if recoveries.is_empty() {
            ("—".into(), "—".into(), "—".into(), "—".into())
        } else {
            let s = Summary::of_u64(recoveries);
            (
                format!("{:.0}", s.median),
                format!("{:.2}", s.median / reference),
                format!("{:.0}", s.min),
                format!("{:.0}", s.max),
            )
        };
        table.push_row(vec![
            workload.to_string(),
            label.to_string(),
            n.to_string(),
            fault,
            format!("{recovered}/{total}"),
            median,
            ratio,
            min,
            max,
        ]);
    };

    for (ei, &(engine, label)) in ENGINES.iter().enumerate() {
        for &n in &epidemic_sizes {
            if matches!(engine, Engine::Sequential) && n > 10_000 {
                continue;
            }
            for &frac in &fracs {
                let agents = ((n as f64) * frac).round().max(1.0) as u64;
                let fault_at = (3.0 * n_log_n(n)) as u64;
                let cap = fault_at + (40.0 * n_log_n(n)) as u64;
                let check = (n as u64 / 4).max(256);
                let mut recoveries: Vec<u64> = Vec::new();
                for t in 0..trials {
                    let seed = derive_seed(0xE21, (ei * 1000 + t) as u64 * 100 + n as u64 % 97);
                    let plan = FaultPlan::new(vec![FaultEvent {
                        at: fault_at,
                        kind: FaultKind::Corrupt {
                            agents,
                            target: CorruptionTarget::State(0),
                        },
                    }])
                    .unwrap();
                    let mut run = AdversarialRun::new(
                        engine,
                        DenseEpidemic,
                        n,
                        seed,
                        InitStrategy::Clean,
                        plan,
                    )
                    .unwrap();
                    run.inner_mut().transfer(0, 1, 1).unwrap();
                    let outcome = run
                        .run_until(|s| s.count_of(1) == s.population(), check, cap)
                        .unwrap();
                    if outcome.converged() {
                        recoveries.push(run.records()[0].recovery_time().unwrap());
                    }
                }
                push_row(
                    "epidemic",
                    label,
                    n,
                    format!("{:.0}%", frac * 100.0),
                    recoveries.len(),
                    trials,
                    &recoveries,
                    n_log_n(n),
                );
            }
        }
    }

    for (ei, &(engine, label)) in ENGINES.iter().enumerate() {
        for &n in &ranking_sizes {
            let protocol = SelfStabRanking::new(n);
            let agents = (n as u64 / 4).max(1);
            let fault_at = 8 * (n as u64) * (n as u64);
            let cap = fault_at + 600 * (n as u64) * (n as u64);
            let check = ((n * n) as u64 / 8).max(64);
            let mut recoveries: Vec<u64> = Vec::new();
            for t in 0..trials {
                let seed = derive_seed(0xE21 + 1, (ei * 1000 + t) as u64 * 100 + n as u64 % 89);
                let plan = FaultPlan::new(vec![FaultEvent {
                    at: fault_at,
                    kind: FaultKind::Corrupt {
                        agents,
                        // Dense index 2 = (rank 1, heads): a pile-up, the
                        // worst shape for the collision rule.
                        target: CorruptionTarget::State(2),
                    },
                }])
                .unwrap();
                let mut run = AdversarialRun::new(
                    engine,
                    protocol,
                    n,
                    seed,
                    InitStrategy::SeededArbitrary {
                        states: 2 * n,
                        seed: derive_seed(seed, 3),
                    },
                    plan,
                )
                .unwrap();
                let outcome = run
                    .run_until(|s| s.with_counts(|c| protocol.is_ranked(c)), check, cap)
                    .unwrap();
                if outcome.converged() {
                    recoveries.push(run.records()[0].recovery_time().unwrap());
                }
            }
            push_row(
                "ranking (arbitrary init)",
                label,
                n,
                "25% pile-up".to_string(),
                recoveries.len(),
                trials,
                &recoveries,
                (n * n) as f64,
            );
        }
    }

    ExperimentReport {
        id: "E21",
        claim: "after transient corruption the protocols reconverge on every engine — epidemic \
                recovery scales with n·ln n across 1%-50% fault sizes, and the self-stabilizing \
                ranking protocol recovers from arbitrary initializations and mid-run pile-ups",
        table,
    }
}

/// E22 — scenario-matrix conformance: Herman's tolerance-banded expected
/// stabilization, coalescence recovery from a resurrection fault, election
/// dispersal across the probe-alphabet trade-off `K`, and the standard
/// protocol × engine × fault matrix of [`ppproto::scenarios`].
pub fn e22_scenario_matrix(effort: Effort) -> ExperimentReport {
    const ENGINES: [(Engine, &str); 4] = [
        (Engine::Sequential, "sequential"),
        (Engine::Batched, "batched"),
        (
            Engine::Sharded {
                shards: 4,
                threads: 1,
            },
            "sharded",
        ),
        (Engine::Hybrid, "hybrid"),
    ];

    let mut table = Table::new(
        "E22 — scenario-matrix conformance: Herman's expected stabilization (reference \
         0.64n², the issue's 15% band; the mean-field telescope predicts 0.614n²), \
         coalescence recovery from a resurrection fault (reference n²), election \
         dispersal milestones across the probe-alphabet trade-off K (reference n²/64), \
         and the standard protocol × engine × fault matrix, one row per cell",
        &[
            "workload",
            "engine",
            "n",
            "detail",
            "ok",
            "interactions",
            "reference",
            "ratio",
        ],
    );

    // Herman: the measured expected stabilization from an odd near-full
    // token load (n − 1 tokens on even n, so annihilation ends at exactly
    // one token) against the 0.64n² target.  The chain is identical on
    // every engine, so the acceptance quantity is the per-n mean pooled
    // across all four engines; the per-engine rows show the (noisier)
    // per-engine sample means for cross-engine sanity.
    let herman_sizes = effort.sizes(&[1_000], &[1_000, 10_000]);
    let herman_trials = effort.trials(8, 32);
    for &n in &herman_sizes {
        let reference = 0.64 * n_squared(n);
        let mut pooled: Vec<u64> = Vec::new();
        let mut pooled_trials = 0usize;
        for (ei, &(engine, label)) in ENGINES.iter().enumerate() {
            let p = HermanTokens::new();
            let cap = 10 * (n as u64) * (n as u64);
            let mut times: Vec<u64> = Vec::new();
            for t in 0..herman_trials {
                let seed = derive_seed(0xE2201, (ei * 1_000 + t) as u64 * 100 + n as u64 % 97);
                let mut sim = DenseSimulator::new(engine, p, n, seed).unwrap();
                let mut counts = vec![0u64; 4];
                counts[2] = n as u64 - 1;
                counts[0] = 1;
                sim.set_counts(counts).unwrap();
                let outcome = sim.run_until(|s| s.with_counts(|c| p.is_stable(c)), 2_048, cap);
                if outcome.converged() {
                    times.push(sim.interactions());
                }
            }
            let mean = times.iter().sum::<u64>() as f64 / times.len().max(1) as f64;
            table.push_row(vec![
                "herman stabilization".into(),
                label.to_string(),
                n.to_string(),
                format!("mean of {herman_trials} odd near-full starts"),
                format!("{}/{herman_trials}", times.len()),
                format!("{mean:.0}"),
                format!("{reference:.0}"),
                format!("{:.2}", mean / reference),
            ]);
            pooled_trials += herman_trials;
            pooled.extend(times);
        }
        let pooled_mean = pooled.iter().sum::<u64>() as f64 / pooled.len().max(1) as f64;
        table.push_row(vec![
            "herman stabilization".into(),
            "all engines".into(),
            n.to_string(),
            format!("pooled mean, {pooled_trials} starts (15% band check)"),
            format!("{}/{pooled_trials}", pooled.len()),
            format!("{pooled_mean:.0}"),
            format!("{reference:.0}"),
            format!("{:.2}", pooled_mean / reference),
        ]);
    }

    // Coalescence: recovery after resurrecting n/8 singletons near full
    // coalescence — the merge telescope makes reconvergence Θ(n²).  The
    // resurrected soup occupies Θ(k) distinct sizes, so the count engines
    // stay on the population where their dense blocks are affordable.
    let coalescence_sizes = effort.sizes(&[1_000], &[1_000, 10_000]);
    let coalescence_trials = effort.trials(3, 5);
    for (ei, &(engine, label)) in ENGINES.iter().enumerate() {
        for &n in &coalescence_sizes {
            if n > 2_000 && !matches!(engine, Engine::Sequential | Engine::Hybrid) {
                continue;
            }
            let p = StochasticCoalescence::new(n);
            let nn = (n as u64) * (n as u64);
            let fault_at = nn;
            let cap = fault_at + 16 * nn;
            let check = (nn / 64).max(256);
            let mut recoveries: Vec<u64> = Vec::new();
            for t in 0..coalescence_trials {
                let seed = derive_seed(0xE2202, (ei * 1_000 + t) as u64 * 100 + n as u64 % 89);
                let plan = FaultPlan::new(vec![FaultEvent {
                    at: fault_at,
                    kind: FaultKind::Corrupt {
                        agents: (n as u64 / 8).max(1),
                        // Dense index 2 = (size 1, tails): resurrect singletons.
                        target: CorruptionTarget::State(2),
                    },
                }])
                .unwrap();
                let mut run =
                    AdversarialRun::new(engine, p, n, seed, InitStrategy::Clean, plan).unwrap();
                let outcome = run
                    .run_until(|s| s.with_counts(|c| p.is_coalesced(c)), check, cap)
                    .unwrap();
                if outcome.converged() {
                    recoveries.push(run.records()[0].recovery_time().unwrap());
                }
            }
            let (median, ratio) = if recoveries.is_empty() {
                ("—".to_string(), "—".to_string())
            } else {
                let s = Summary::of_u64(&recoveries);
                (
                    format!("{:.0}", s.median),
                    format!("{:.2}", s.median / n_squared(n)),
                )
            };
            table.push_row(vec![
                "coalescence recovery".into(),
                label.to_string(),
                n.to_string(),
                "n/8 resurrected at n²".into(),
                format!("{}/{coalescence_trials}", recoveries.len()),
                median,
                format!("{:.0}", n_squared(n)),
                ratio,
            ]);
        }
    }

    // Election: interactions until n/64 distinct ranks are occupied from
    // the clean pile, across the probe-alphabet trade-off K — the cascade
    // out of the pile costs Θ(n·K^g) per generation, so the milestone is
    // affordable while full stabilization is ω(n²).  The dispersed soup is
    // occupancy-hostile (q = 8K live indices per rank), hence the
    // per-agent engines.
    let election_sizes = effort.sizes(&[1_000], &[10_000]);
    let election_trials = effort.trials(3, 8);
    for (ei, &(engine, label)) in [
        (Engine::Sequential, "sequential"),
        (Engine::Hybrid, "hybrid"),
    ]
    .iter()
    .enumerate()
    {
        for &n in &election_sizes {
            for &k in &[2usize, 4, 8] {
                let p = TradeoffElection::new(n, k);
                let milestone = (n as u64 / 64).max(2);
                let nn = (n as u64) * (n as u64);
                let mut times: Vec<u64> = Vec::new();
                for t in 0..election_trials {
                    let seed = derive_seed(
                        0xE2203,
                        ((ei * 10 + k) * 1_000 + t) as u64 * 100 + n as u64 % 83,
                    );
                    let mut sim = DenseSimulator::new(engine, p, n, seed).unwrap();
                    let outcome = sim.run_until(
                        |s| s.with_counts(|c| p.distinct_ranks(c) as u64 >= milestone),
                        4 * n as u64,
                        4 * nn,
                    );
                    if outcome.converged() {
                        times.push(sim.interactions());
                    }
                }
                let (median, ratio) = if times.is_empty() {
                    ("—".to_string(), "—".to_string())
                } else {
                    let s = Summary::of_u64(&times);
                    (
                        format!("{:.0}", s.median),
                        format!("{:.2}", s.median / (n_squared(n) / 64.0)),
                    )
                };
                table.push_row(vec![
                    format!("election dispersal K={k}"),
                    label.to_string(),
                    n.to_string(),
                    "distinct ranks ≥ n/64".into(),
                    format!("{}/{election_trials}", times.len()),
                    median,
                    format!("{:.0}", n_squared(n) / 64.0),
                    ratio,
                ]);
            }
        }
    }

    // The standard conformance matrix: Quick runs the debug tier
    // (n_big = 10³), Full the CI release tier (n_big = 10⁴).  Every cell
    // carries the full invariant battery — mass conservation at each grid
    // point, reconvergence within the scenario bound with every fault
    // fired, and a mid-run checkpoint round-trip replaying the reference
    // trajectory bit-identically.
    let cfg = match effort {
        Effort::Quick => MatrixConfig::test_tier(),
        Effort::Full => MatrixConfig::quick(),
    };
    let cells = standard_matrix(&cfg);
    let summary = run_matrix(&cells, |_| {});
    for cell in &summary.cells {
        table.push_row(vec![
            cell.scenario.clone(),
            cell.engine.to_string(),
            cell.n.to_string(),
            "matrix cell".into(),
            if cell.passed() {
                "pass".into()
            } else {
                format!("FAIL: {}", cell.failures.join("; "))
            },
            cell.converged_at
                .map_or_else(|| "—".to_string(), |t| t.to_string()),
            "—".into(),
            "—".into(),
        ]);
    }
    let passed = summary.cells.iter().filter(|c| c.passed()).count();
    table.push_row(vec![
        "matrix total".into(),
        "all".into(),
        format!("{}/{}", cfg.n_small, cfg.n_big),
        "protocol × engine × fault".into(),
        format!("{passed}/{}", summary.cells.len()),
        "—".into(),
        "—".into(),
        "—".into(),
    ]);

    ExperimentReport {
        id: "E22",
        claim: "the ported related-work protocols behave like their analyses on every engine — \
                Herman's expected stabilization lands within 15% of 0.64n², coalescence \
                recovers from resurrection faults in Θ(n²), election dispersal milestones \
                track the K-cascade — and the standard scenario matrix (protocol × engine × \
                init × fault, with conservation, reconvergence, and checkpoint-replay checks \
                per cell) passes wall to wall",
        table,
    }
}

/// An experiment entry point: takes the effort level, returns the report.
type ExperimentFn = fn(Effort) -> ExperimentReport;

/// The experiment registry: `(canonical id, runner)` in report order.
///
/// `run_all` and `run_one` both read this table, so an experiment cannot be
/// reachable from one entry point but not the other.
const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("e01", e01_broadcast),
    ("e02", e02_junta),
    ("e03", e03_phase_clock),
    ("e04", e04_leader_election),
    ("e05", e05_fast_leader_election),
    ("e06", e06_load_balancing),
    ("e07", e07_search),
    ("e08", e08_approximate),
    ("e09", e09_approx_stage),
    ("e11", e11_count_exact),
    ("e12", e12_backup),
    ("e13", e13_baseline_comparison),
    ("e14", e14_stable),
    ("e15", e15_state_space),
    ("e16", e16_batched_scale),
    ("e17", e17_engine_equivalence),
    ("e18", e18_sharded_scale),
    ("e19", e19_dense_counting),
    ("e20", e20_hybrid_counting),
    ("e21", e21_adversarial_recovery),
    ("e22", e22_scenario_matrix),
];

/// Resolve a lower-case experiment id to its runner without executing it.
fn resolve(id: &str) -> Option<ExperimentFn> {
    // Historical alias: E10/E11 were merged into one exact-counting experiment.
    let id = if id == "e10" { "e11" } else { id };
    EXPERIMENTS
        .iter()
        .find(|(canonical, _)| *canonical == id)
        .map(|&(_, run)| run)
}

/// Run every experiment at the given effort level.
#[must_use]
pub fn run_all(effort: Effort) -> Vec<ExperimentReport> {
    EXPERIMENTS.iter().map(|&(_, run)| run(effort)).collect()
}

/// Look up a single experiment by its lower-case id (e.g. `"e08"`).
#[must_use]
pub fn run_one(id: &str, effort: Effort) -> Option<ExperimentReport> {
    resolve(id).map(|run| run(effort))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_id_is_resolvable() {
        // Resolution only; not executed here (the heavy work is covered by the
        // integration tests and by the experiments binary).
        for id in [
            "e01", "e02", "e03", "e04", "e05", "e06", "e07", "e08", "e09", "e10", "e11", "e12",
            "e13", "e14", "e15", "e16", "e17", "e18", "e19", "e20", "e21", "e22",
        ] {
            assert!(resolve(id).is_some(), "experiment id {id} must resolve");
        }
        assert!(resolve("zzz").is_none());
        assert!(resolve("E01").is_none(), "ids are matched lower-case");
        assert_eq!(EXPERIMENTS.len(), 21, "one registry entry per experiment");
        assert!(run_one("zzz", Effort::Quick).is_none());
    }
}
