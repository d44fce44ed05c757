//! Command-line entry point regenerating every table of `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p ppanalysis --bin experiments -- --quick        # all, small sizes
//! cargo run --release -p ppanalysis --bin experiments                   # all, full sizes
//! cargo run --release -p ppanalysis --bin experiments -- e08 e11        # selected experiments
//! cargo run --release -p ppanalysis --bin experiments -- --quick e13    # selected, small sizes
//! ```
//!
//! # Crash recovery for the long runs
//!
//! The multi-hour E19/E20 rows checkpoint themselves when given a scratch
//! directory; re-running the identical command after a crash resumes from
//! whatever survived (completed sweep trials, plus mid-trial staged-runner
//! snapshots every `--checkpoint-every` interactions):
//!
//! ```text
//! cargo run --release -p ppanalysis --bin experiments -- \
//!     e19 e20 --checkpoint-dir ckpt/ --checkpoint-every 1000000000 --out EXPERIMENTS.tmp.md
//! ```
//!
//! `--out` writes the report atomically (temp + fsync + rename), so a kill
//! mid-write never leaves a truncated report behind.
//!
//! # Standalone staged run (the CI kill/resume smoke test)
//!
//! ```text
//! experiments --staged-n 10000 --seed 42 --checkpoint ckpt.ppss --checkpoint-every 200000
//! experiments --staged-n 10000 --seed 42 --resume ckpt.ppss   # after a SIGKILL
//! ```
//!
//! Runs a single staged `CountExact` trial (`count_exact_dense_staged`),
//! prints `output=<count> interactions=<total>`, and exits 0 iff the run
//! converged to the exact population size — resuming from a snapshot yields
//! the bit-identical trajectory, so both invocations print the same line.
//!
//! # Standalone adversarial runs (the CI fault-recovery smoke tests)
//!
//! ```text
//! experiments --adversarial-n 10000 --seed 42
//! ```
//!
//! Corrupts 10% of the agents back to susceptible mid-epidemic on **all
//! four engines** (several seeded trials each), prints each engine's median
//! recovery time, and exits 0 iff every trial reconverged *and* every
//! engine's median lies within a factor of two of the cross-engine median —
//! the distributional-agreement gate (the engines sample the same process,
//! so their recovery-time distributions must agree).
//!
//! ```text
//! experiments --adversarial-resume-n 20000 --seed 7 --budget 800000        # reference
//! experiments --adversarial-resume-n 20000 --seed 7 --budget 800000 \
//!     --checkpoint adv.ppss --checkpoint-every 50000                        # kill this one
//! experiments --adversarial-resume-n 20000 --seed 7 --budget 800000 \
//!     --resume adv.ppss                                                     # after SIGKILL
//! ```
//!
//! Runs one epidemic under a three-event fault plan (corrupt, silence
//! window, corrupt), autosaving the full [`AdversarialRun`] snapshot —
//! fault cursor, plan RNG, recovery records and all — every
//! `--checkpoint-every` logical interactions.  Killing the checkpointing
//! run mid-plan and resuming replays the identical fault sequence: all
//! three invocations print the same final line.
//!
//! # The scenario-matrix conformance gate
//!
//! ```text
//! experiments --scenario-matrix --out matrix.md           # CI tier, n_big = 10^4
//! experiments --scenario-matrix --quick                   # debug tier, n_big = 10^3
//! ```
//!
//! Runs the standard conformance matrix (`ppproto::scenarios`): every
//! ported protocol × engine × init × fault-plan cell, each checked for
//! population/mass conservation, reconvergence within the scenario bound
//! with every fault fired, and a mid-run checkpoint round-trip that must
//! replay the reference trajectory bit-identically.  Prints one line per
//! cell as it completes, writes the per-cell markdown table to `--out`
//! when given, and exits non-zero unless every cell passes.

use std::path::{Path, PathBuf};
use std::time::Instant;

use popcount::{count_exact_dense_staged_checkpointed, CountExactParams, StagedCheckpoint};
use ppanalysis::experiments::{configure_checkpoints, run_all, run_one, CheckpointPlan, Effort};
use ppproto::scenarios::{standard_matrix, MatrixConfig};
use ppproto::DenseEpidemic;
use ppsim::run_matrix;
use ppsim::snapshot::write_bytes_atomic;
use ppsim::{
    derive_seed, AdversarialRun, Checkpointable, CorruptionTarget, Engine, EngineSnapshot,
    FaultEvent, FaultKind, FaultPlan, InitStrategy,
};

/// Flags that consume the following argument (kept in sync with `main`'s
/// dispatch so flag values are never mistaken for experiment ids).
const VALUE_FLAGS: &[&str] = &[
    "--checkpoint-dir",
    "--checkpoint-every",
    "--out",
    "--staged-n",
    "--seed",
    "--engine",
    "--budget",
    "--checkpoint",
    "--resume",
    "--adversarial-n",
    "--adversarial-resume-n",
];

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    flag_value(args, name).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value `{v}` for {name}");
            std::process::exit(2);
        })
    })
}

fn staged_main(args: &[String], n: usize) -> ! {
    let seed = parsed_flag(args, "--seed").unwrap_or(42u64);
    let budget = parsed_flag(args, "--budget").unwrap_or((n as u64).saturating_mul(300_000));
    let engine = match flag_value(args, "--engine").unwrap_or("batched") {
        "batched" => Engine::Batched,
        "auto" => Engine::Auto,
        "sharded" => Engine::Sharded {
            shards: 2,
            threads: 1,
        },
        other => {
            eprintln!("unknown --engine `{other}` (expected batched|sharded|auto)");
            std::process::exit(2);
        }
    };
    let every = parsed_flag(args, "--checkpoint-every").unwrap_or((n as u64).max(1) * 20);
    let autosave = flag_value(args, "--checkpoint").map(|p| StagedCheckpoint {
        path: PathBuf::from(p),
        every,
    });
    let resume = flag_value(args, "--resume").map(PathBuf::from);

    let outcome = count_exact_dense_staged_checkpointed(
        CountExactParams::dense_at_scale(n),
        n,
        seed,
        engine,
        budget,
        autosave.as_ref(),
        resume.as_deref(),
    )
    .unwrap_or_else(|e| {
        eprintln!("staged run failed: {e}");
        std::process::exit(2);
    });
    println!(
        "staged CountExact n={n} seed={seed}: output={} interactions={} converged={}",
        outcome
            .output
            .map_or_else(|| "none".into(), |o| o.to_string()),
        outcome.interactions,
        outcome.converged,
    );
    let exact = outcome.converged && outcome.output == Some(n as u64);
    std::process::exit(i32::from(!exact));
}

const ADVERSARIAL_ENGINES: [(Engine, &str); 4] = [
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

/// The four-engine fault-recovery smoke test behind `--adversarial-n`:
/// corrupt 10% of the agents back to susceptible mid-epidemic, on every
/// engine, several seeded trials each; gate on reconvergence and on
/// cross-engine agreement of the median recovery time.
fn adversarial_smoke_main(args: &[String], n: usize) -> ! {
    let seed = parsed_flag(args, "--seed").unwrap_or(42u64);
    let trials = 5usize;
    let agents = (n as u64 / 10).max(1);
    let fault_at = (3.0 * (n as f64) * (n as f64).ln()) as u64;
    let cap = fault_at + 40 * fault_at;
    let check = (n as u64 / 4).max(256);

    let mut ok = true;
    let mut medians: Vec<u64> = Vec::new();
    for (ei, &(engine, label)) in ADVERSARIAL_ENGINES.iter().enumerate() {
        let mut recoveries: Vec<u64> = Vec::new();
        for t in 0..trials {
            let trial_seed = derive_seed(seed, (ei * 100 + t) as u64);
            let plan = FaultPlan::new(vec![FaultEvent {
                at: fault_at,
                kind: FaultKind::Corrupt {
                    agents,
                    target: CorruptionTarget::State(0),
                },
            }])
            .expect("static fault plan is valid");
            let mut run = AdversarialRun::new(
                engine,
                DenseEpidemic,
                n,
                trial_seed,
                InitStrategy::Clean,
                plan,
            )
            .unwrap_or_else(|e| {
                eprintln!("{label}: construction failed: {e}");
                std::process::exit(2);
            });
            run.inner_mut().transfer(0, 1, 1).unwrap();
            let outcome = run
                .run_until(|s| s.count_of(1) == s.population(), check, cap)
                .unwrap_or_else(|e| {
                    eprintln!("{label}: trial {t} failed: {e}");
                    std::process::exit(2);
                });
            if outcome.converged() {
                recoveries.push(run.records()[0].recovery_time().expect("record closed"));
            } else {
                eprintln!("{label}: trial {t} did not reconverge within {cap} interactions");
                ok = false;
            }
        }
        recoveries.sort_unstable();
        let median = recoveries.get(recoveries.len() / 2).copied().unwrap_or(0);
        println!(
            "adversarial n={n} engine={label}: reconverged={}/{trials} median_recovery={median}",
            recoveries.len(),
        );
        medians.push(median);
    }

    // Distributional agreement: all four engines sample the same stochastic
    // process (E17), so their median recovery times must lie within a
    // factor of two of the cross-engine median.
    let mut sorted = medians.clone();
    sorted.sort_unstable();
    let pooled = sorted[sorted.len() / 2];
    for (&median, &(_, label)) in medians.iter().zip(ADVERSARIAL_ENGINES.iter()) {
        if median.saturating_mul(2) < pooled || median > pooled.saturating_mul(2) {
            eprintln!(
                "{label}: median recovery {median} disagrees with the cross-engine median {pooled}"
            );
            ok = false;
        }
    }
    std::process::exit(i32::from(!ok));
}

/// One epidemic under a three-event fault plan (corrupt at 25%, silence
/// window at 50%, corrupt at 75% of the budget), checkpointing the full
/// [`AdversarialRun`] snapshot every `--checkpoint-every` logical
/// interactions — the CI kill/resume smoke for fault plans
/// (`--adversarial-resume-n`).
fn adversarial_resume_main(args: &[String], n: usize) -> ! {
    let seed = parsed_flag(args, "--seed").unwrap_or(7u64);
    let budget: u64 = parsed_flag(args, "--budget").unwrap_or(n as u64 * 40);
    let every: u64 = parsed_flag(args, "--checkpoint-every")
        .unwrap_or(budget / 16)
        .max(1);
    let autosave = flag_value(args, "--checkpoint").map(PathBuf::from);
    let resume = flag_value(args, "--resume").map(PathBuf::from);
    let fail = |context: &str, e: ppsim::SimError| -> ! {
        eprintln!("adversarial resume run: {context}: {e}");
        std::process::exit(2);
    };

    let plan = FaultPlan::new(vec![
        FaultEvent {
            at: budget / 4,
            kind: FaultKind::Corrupt {
                agents: (n as u64 / 10).max(1),
                target: CorruptionTarget::State(0),
            },
        },
        FaultEvent {
            at: budget / 2,
            kind: FaultKind::Silence {
                agents: (n as u64 / 20).max(1),
                window: (budget / 8).max(1),
            },
        },
        FaultEvent {
            at: budget * 3 / 4,
            kind: FaultKind::Corrupt {
                agents: (n as u64 / 10).max(1),
                target: CorruptionTarget::Uniform { states: 2 },
            },
        },
    ])
    .unwrap_or_else(|e| fail("plan", e));
    let events = plan.events().len();
    let mut run = AdversarialRun::new(
        Engine::Batched,
        DenseEpidemic,
        n,
        seed,
        InitStrategy::Clean,
        plan,
    )
    .unwrap_or_else(|e| fail("construction", e));
    run.inner_mut()
        .transfer(0, 1, 1)
        .unwrap_or_else(|e| fail("setup", e));

    if let Some(path) = &resume {
        let bytes = std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("cannot read snapshot {}: {e}", path.display());
            std::process::exit(2);
        });
        let snapshot =
            EngineSnapshot::from_bytes(&bytes).unwrap_or_else(|e| fail("snapshot decode", e));
        run.restore_state(&snapshot)
            .unwrap_or_else(|e| fail("restore", e));
    }

    // Chunked advance with autosave.  The trajectory is a pure function of
    // the total budget — chunk boundaries never change it (deterministic
    // replay), so reference, killed, and resumed runs all print the same
    // final line.
    while run.interactions() < budget {
        let chunk = every.min(budget - run.interactions());
        run.run(chunk).unwrap_or_else(|e| fail("run", e));
        if let Some(path) = &autosave {
            write_bytes_atomic(path, &run.save_state().to_bytes())
                .unwrap_or_else(|e| fail("autosave", e));
        }
    }

    // FNV-1a over the final counts: a trajectory digest runs can `diff`.
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for count in run.inner().counts() {
        for byte in count.to_le_bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!(
        "adversarial n={n} seed={seed}: interactions={} events_fired={} digest={digest:016x}",
        run.interactions(),
        run.events_fired(),
    );
    std::process::exit(i32::from(run.events_fired() != events));
}

/// The conformance gate behind `--scenario-matrix`: run the standard
/// protocol × engine × fault matrix (CI tier by default, the debug tier
/// under `--quick`), print one line per cell, optionally write the
/// markdown table, and exit 0 iff every cell passed.
fn scenario_matrix_main(args: &[String]) -> ! {
    let cfg = if args.iter().any(|a| a == "--quick") {
        MatrixConfig::test_tier()
    } else {
        MatrixConfig::quick()
    };
    println!(
        "scenario matrix: n_big={} n_small={} seed={:#x}",
        cfg.n_big, cfg.n_small, cfg.seed
    );
    let start = Instant::now();
    let cells = standard_matrix(&cfg);
    let total = cells.len();
    let mut done = 0usize;
    let summary = run_matrix(&cells, |cell| {
        done += 1;
        println!(
            "[{done}/{total}] {}/{} n={} … {}",
            cell.scenario,
            cell.engine,
            cell.n,
            if cell.passed() {
                "pass".to_string()
            } else {
                format!("FAIL: {}", cell.failures.join("; "))
            }
        );
    });
    println!(
        "{} in {:.1} s",
        summary.summary_line(),
        start.elapsed().as_secs_f64()
    );
    if let Some(path) = flag_value(args, "--out") {
        write_bytes_atomic(Path::new(path), summary.markdown().as_bytes()).unwrap_or_else(|e| {
            eprintln!("failed to write matrix report: {e}");
            std::process::exit(2);
        });
    }
    std::process::exit(i32::from(!summary.passed()));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--scenario-matrix") {
        scenario_matrix_main(&args);
    }
    if let Some(n) = parsed_flag(&args, "--staged-n") {
        staged_main(&args, n);
    }
    if let Some(n) = parsed_flag(&args, "--adversarial-n") {
        adversarial_smoke_main(&args, n);
    }
    if let Some(n) = parsed_flag(&args, "--adversarial-resume-n") {
        adversarial_resume_main(&args, n);
    }

    if let Some(dir) = flag_value(&args, "--checkpoint-dir") {
        configure_checkpoints(CheckpointPlan {
            dir: PathBuf::from(dir),
            every: parsed_flag(&args, "--checkpoint-every").unwrap_or(1_000_000_000),
        });
    }

    let effort = if args.iter().any(|a| a == "--quick") {
        Effort::Quick
    } else {
        Effort::Full
    };
    // Experiment ids are the positional arguments: everything that is not a
    // flag and not the value of a value-taking flag.
    let mut selected: Vec<&String> = Vec::new();
    let mut skip_next = false;
    for arg in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if VALUE_FLAGS.contains(&arg.as_str()) {
            skip_next = true;
        } else if !arg.starts_with("--") {
            selected.push(arg);
        }
    }

    let start = Instant::now();
    let reports = if selected.is_empty() {
        run_all(effort)
    } else {
        selected
            .iter()
            .filter_map(|id| {
                let r = run_one(&id.to_lowercase(), effort);
                if r.is_none() {
                    eprintln!("unknown experiment id `{id}` (expected e01..e22)");
                }
                r
            })
            .collect()
    };

    let mut out = String::new();
    out.push_str(&format!("# Experiment report ({effort:?} effort)\n\n"));
    for report in &reports {
        out.push_str(&format!(
            "**{} — paper claim:** {}\n\n",
            report.id, report.claim
        ));
        out.push_str(&format!("{}\n", report.table.to_markdown()));
    }
    out.push_str(&format!(
        "_Generated by `cargo run -p ppanalysis --bin experiments` in {:.1} s._\n",
        start.elapsed().as_secs_f64()
    ));

    match flag_value(&args, "--out") {
        // Atomic write: a crash mid-report never clobbers the previous one.
        Some(path) => write_bytes_atomic(Path::new(path), out.as_bytes()).unwrap_or_else(|e| {
            eprintln!("failed to write report: {e}");
            std::process::exit(2);
        }),
        None => print!("{out}"),
    }
}
