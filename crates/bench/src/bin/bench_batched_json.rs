//! Emit machine-readable engine benchmarks (`BENCH_batched.json`,
//! `BENCH_sharded.json`): wall-clock comparison of the simulation engines on
//! the epidemic workload across population sizes.
//!
//! ```text
//! # Legacy snapshot (BENCH_batched.json): sequential vs batched.
//! cargo run --release -p ppbench --bin bench_batched_json [--full] > BENCH_batched.json
//!
//! # Engine/size/thread selection from the CLI (BENCH_sharded.json):
//! cargo run --release -p ppbench --bin bench_batched_json -- \
//!     --name epidemic_batched_vs_sharded \
//!     --engines batched,sharded,hybrid --sizes 1e6,1e7,1e8,1e9 \
//!     --shards 8 --threads 8 > BENCH_sharded.json
//!
//! # Counting workloads (Theorems 1/2 on the dense engines):
//! cargo run --release -p ppbench --bin bench_batched_json -- \
//!     --workload approximate --engines batched --sizes 1e5,1e6 > BENCH_counting.json
//!
//! # Staged CountExact (hybrid per-agent legs):
//! cargo run --release -p ppbench --bin bench_batched_json -- \
//!     --workload countexact --engines hybrid --sizes 1e5 > BENCH_countexact.json
//!
//! # Crash-safe output: write the JSON atomically (temp + fsync + rename)
//! # instead of redirecting stdout, so a kill mid-write never truncates a
//! # checked-in benchmark file:
//! cargo run --release -p ppbench --bin bench_batched_json -- \
//!     --full --out BENCH_batched.json
//! ```
//!
//! Hybrid rows additionally emit `dense_mips` / `agent_mips` (per-leg
//! throughput in millions of interactions per second) and the stint kind, so
//! the refinement-leg win of the decoded stint is tracked per PR.
//!
//! The default workload is the one-way epidemic run to full convergence —
//! the same transition system on every engine (`DenseSimulator` dispatch),
//! so the ratio columns are pure engine speedup.  `--workload approximate`
//! and `--workload countexact` run the composed counting protocols
//! (`DenseApproximate` / `DenseCountExact`, interned dense encodings) to a
//! unanimous valid output instead — the Theorem 1/2 experiments E19 report
//! as tables.  `--trials` overrides the per-size default (5 below 10⁶, 3
//! below 10⁸, 2 below 10⁹, then 1); the sequential engine is skipped above
//! 2·10⁶ where a single converged run takes minutes.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use popcount::{
    count_exact_dense_staged, valid_estimates, ApproximateParams, CountExactParams,
    DenseApproximate,
};
use ppproto::DenseEpidemic;
use ppsim::snapshot::write_bytes_atomic;
use ppsim::{derive_seed, DenseSimulator, Engine, HybridLegs};

/// Which protocol the benchmark drives to convergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Epidemic,
    Approximate,
    CountExact,
}

impl Workload {
    fn parse(raw: &str) -> Self {
        match raw {
            "epidemic" => Workload::Epidemic,
            "approximate" => Workload::Approximate,
            "countexact" => Workload::CountExact,
            other => panic!("unknown workload `{other}` (epidemic|approximate|countexact)"),
        }
    }

    fn describe(self) -> &'static str {
        match self {
            Workload::Epidemic => "one-way epidemic (DenseEpidemic) run until all agents informed",
            Workload::Approximate => {
                "Approximate (Theorem 1, DenseApproximate) run until a unanimous \
                 floor/ceil log2 n estimate"
            }
            Workload::CountExact => {
                "CountExact (Theorem 2, dense_at_scale params) run on the hybrid engine \
                 until every agent outputs exactly n: count-based while the census stays \
                 narrow, per-agent through the refinement (count_exact_dense_staged); \
                 hybrid rows report switch_interactions"
            }
        }
    }

    fn default_name(self) -> &'static str {
        match self {
            Workload::Epidemic => "epidemic_convergence_seq_vs_batched",
            Workload::Approximate => "approximate_convergence_dense",
            Workload::CountExact => "count_exact_convergence_dense",
        }
    }
}

struct Measurement {
    n: usize,
    engine: Engine,
    trials: usize,
    mean_seconds: f64,
    min_seconds: f64,
    mean_interactions: f64,
    interactions_per_second: f64,
    /// Hybrid-engine representation migrations of the last trial, as
    /// total-interaction counts (empty off the hybrid path).
    switch_points: Vec<u64>,
    /// Best-of-N per-leg accounting of the hybrid trials (the trial with
    /// the highest agent-leg throughput — the same less-noise-sensitive
    /// choice as `min_seconds`, which the CI regression gate reads).
    /// `None` off the hybrid path.
    legs: Option<HybridLegs>,
}

/// Per-leg accounting emitted on hybrid rows: throughput of each
/// representation in millions of interactions per second, so the
/// refinement-leg win of the decoded stint is tracked per PR.
fn legs_json(legs: Option<HybridLegs>) -> String {
    let Some(legs) = legs else {
        return String::new();
    };
    format!(
        ", \"dense_mips\": {:.2}, \"agent_mips\": {:.2}, \"stint\": \"{}\"",
        legs.dense_throughput() / 1e6,
        legs.agent_throughput() / 1e6,
        legs.stint_kind.unwrap_or("none")
    )
}

/// Wall-clock, interaction count, hybrid switch points and per-leg
/// accounting of one run to convergence.
type TimedRun = (f64, u64, Vec<u64>, Option<HybridLegs>);

fn time_engine(workload: Workload, engine: Engine, n: usize, seed: u64) -> TimedRun {
    match workload {
        Workload::Epidemic => {
            let start = Instant::now();
            let mut sim = DenseSimulator::new(engine, DenseEpidemic, n, seed)
                .expect("engine construction must succeed");
            sim.transfer(0, 1, 1).expect("plant the rumour");
            let t = sim
                .run_until(|s| s.count_of(1) == s.population(), n as u64, u64::MAX >> 1)
                .expect_converged("epidemic");
            (
                start.elapsed().as_secs_f64(),
                t,
                sim.switch_points(),
                sim.hybrid_legs(),
            )
        }
        Workload::Approximate => {
            let start = Instant::now();
            let proto = DenseApproximate::with_capacity(ApproximateParams::default(), 1 << 20);
            let mut sim = DenseSimulator::new(engine, proto, n, seed)
                .expect("engine construction must succeed");
            // Stop at the first unanimous output (the stable configuration);
            // validity is reported, not awaited — a rare overshot search
            // would otherwise spin forever.
            let t = sim
                .run_until(
                    |s| matches!(s.output_stats().unanimous(), Some(&Some(_))),
                    (n as u64) * 8,
                    u64::MAX >> 1,
                )
                .expect_converged("dense approximate");
            let (floor, ceil) = valid_estimates(n);
            if !matches!(sim.output_stats().unanimous(), Some(&Some(k)) if k == floor || k == ceil)
            {
                eprintln!(
                    "note: run at n = {n} (seed {seed}) reached unanimity on an \
                     out-of-range estimate"
                );
            }
            (
                start.elapsed().as_secs_f64(),
                t,
                sim.switch_points(),
                sim.hybrid_legs(),
            )
        }
        Workload::CountExact => {
            // Staged: stages 1–2 on the dense engine, refinement per-agent
            // (see `popcount::exact::staged` for the Õ(n)-states rationale).
            let start = Instant::now();
            let outcome = count_exact_dense_staged(
                CountExactParams::dense_at_scale(n),
                n,
                seed,
                engine,
                u64::MAX >> 1,
            )
            .expect("engine construction must succeed");
            assert!(outcome.converged, "staged dense count-exact must converge");
            if outcome.output != Some(n as u64) {
                eprintln!("note: run at n = {n} (seed {seed}) counted a wrong total");
            }
            (
                start.elapsed().as_secs_f64(),
                outcome.interactions,
                outcome.switch_interactions,
                // A fresh (never resumed) run timed every interaction.
                Some(HybridLegs {
                    dense_interactions: outcome.dense_interactions,
                    dense_seconds: outcome.dense_seconds,
                    dense_timed_interactions: outcome.dense_interactions,
                    agent_interactions: outcome.agent_interactions,
                    agent_seconds: outcome.agent_seconds,
                    agent_timed_interactions: outcome.agent_interactions,
                    stint_kind: outcome.stint_kind,
                }),
            )
        }
    }
}

fn measure(workload: Workload, engine: Engine, n: usize, trials: usize) -> Measurement {
    // Warm-up run (page faults, branch predictors), then timed trials.
    let _ = time_engine(workload, engine, n, derive_seed(0xBEEF, 999));
    let mut secs = Vec::with_capacity(trials);
    let mut inters = Vec::with_capacity(trials);
    let mut switch_points = Vec::new();
    let mut legs: Option<HybridLegs> = None;
    for t in 0..trials {
        let (s, i, switches, l) = time_engine(workload, engine, n, derive_seed(0xBEEF, t as u64));
        secs.push(s);
        inters.push(i as f64);
        switch_points = switches;
        // Keep the best-of-N agent-leg throughput: a single scheduler
        // hiccup in one trial must not tank the gated metric.
        if let Some(l) = l {
            let better = legs
                .as_ref()
                .is_none_or(|prev| l.agent_throughput() > prev.agent_throughput());
            if better {
                legs = Some(l);
            }
        }
    }
    let mean_seconds = secs.iter().sum::<f64>() / trials as f64;
    let mean_interactions = inters.iter().sum::<f64>() / trials as f64;
    Measurement {
        n,
        engine,
        trials,
        mean_seconds,
        min_seconds: secs.iter().copied().fold(f64::INFINITY, f64::min),
        mean_interactions,
        interactions_per_second: mean_interactions / mean_seconds,
        switch_points,
        legs,
    }
}

fn default_trials(n: usize) -> usize {
    match n {
        0..=999_999 => 5,
        1_000_000..=99_999_999 => 3,
        100_000_000..=999_999_999 => 2,
        _ => 1,
    }
}

/// Parse a population size, accepting `1000000`, `1_000_000` and `1e6`.
fn parse_size(raw: &str) -> usize {
    let cleaned = raw.replace('_', "");
    if cleaned.contains(['e', 'E']) {
        let f: f64 = cleaned
            .parse()
            .unwrap_or_else(|_| panic!("bad size `{raw}`"));
        assert!(f.fract() == 0.0 && f >= 0.0, "bad size `{raw}`");
        f as usize
    } else {
        cleaned
            .parse()
            .unwrap_or_else(|_| panic!("bad size `{raw}`"))
    }
}

/// The value following a `--flag` argument, if the flag is present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .map_or_else(|| panic!("{flag} needs a value"), String::as_str)
    })
}

fn engine_json_fields(engine: Engine) -> String {
    match engine {
        Engine::Sharded { shards, threads } => {
            format!("\"engine\": \"sharded\", \"shards\": {shards}, \"threads\": {threads}")
        }
        e => format!("\"engine\": \"{}\"", e.name()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let shards: usize = flag_value(&args, "--shards").map_or(8, |v| v.parse().expect("--shards"));
    let threads: usize =
        flag_value(&args, "--threads").map_or(8, |v| v.parse().expect("--threads"));
    let trials_override: Option<usize> =
        flag_value(&args, "--trials").map(|v| v.parse().expect("--trials"));

    let engines: Vec<Engine> = match flag_value(&args, "--engines") {
        None => vec![Engine::Batched, Engine::Sequential],
        Some(list) => list
            .split(',')
            .map(|name| match name.trim() {
                "sequential" => Engine::Sequential,
                "batched" => Engine::Batched,
                "sharded" => Engine::Sharded { shards, threads },
                "hybrid" => Engine::Hybrid,
                "auto" => Engine::Auto,
                other => {
                    panic!("unknown engine `{other}` (sequential|batched|sharded|hybrid|auto)")
                }
            })
            .collect(),
    };

    let sizes: Vec<usize> = match flag_value(&args, "--sizes") {
        Some(list) => list.split(',').map(parse_size).collect(),
        None => {
            if full {
                vec![1_000, 10_000, 100_000, 1_000_000, 10_000_000]
            } else {
                vec![1_000, 10_000, 100_000, 1_000_000]
            }
        }
    };

    let workload = flag_value(&args, "--workload").map_or(Workload::Epidemic, Workload::parse);
    let name = flag_value(&args, "--name").unwrap_or_else(|| workload.default_name());
    let note = flag_value(&args, "--note");

    let mut measurements: Vec<Measurement> = Vec::new();
    for &n in &sizes {
        let trials = trials_override.unwrap_or_else(|| default_trials(n));
        for &engine in &engines {
            if engine.resolve(n) == Engine::Sequential && n > 2_000_000 {
                eprintln!("skipping sequential engine at n = {n} (a converged run takes minutes)");
                continue;
            }
            eprintln!("measuring {} engine at n = {n} ...", engine.name());
            measurements.push(measure(workload, engine, n, trials));
        }
    }

    // Hand-rolled JSON (the workspace deliberately carries no serde),
    // buffered so `--out` can land it atomically in one rename.
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"benchmark\": \"{name}\",");
    if let Some(note) = note {
        let _ = writeln!(out, "  \"note\": \"{note}\",");
    }
    let _ = writeln!(out, "  \"workload\": \"{}\",", workload.describe());
    let _ = writeln!(
        out,
        "  \"units\": {{ \"time\": \"seconds\", \"throughput\": \"interactions/second\" }},"
    );
    let _ = writeln!(out, "  \"results\": [");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 == measurements.len() { "" } else { "," };
        // Switch points ride along as a note field on hybrid rows: the
        // interaction counts at which the engine migrated representation in
        // the last trial (the measured dense -> per-agent crossover).
        let switches = if m.switch_points.is_empty() {
            String::new()
        } else {
            format!(
                ", \"switch_interactions\": [{}]",
                m.switch_points
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        let _ = writeln!(
            out,
            "    {{ \"n\": {}, {}, \"trials\": {}, \"mean_seconds\": {:.6}, \
             \"min_seconds\": {:.6}, \"mean_interactions\": {:.0}, \
             \"interactions_per_second\": {:.0}{}{} }}{}",
            m.n,
            engine_json_fields(m.engine),
            m.trials,
            m.mean_seconds,
            m.min_seconds,
            m.mean_interactions,
            m.interactions_per_second,
            legs_json(m.legs),
            switches,
            comma
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"speedups\": [");
    let find = |n: usize, name: &str| {
        measurements
            .iter()
            .find(|m| m.n == n && m.engine.name() == name)
    };
    let mut speedups: Vec<String> = Vec::new();
    for &n in &sizes {
        if let (Some(b), Some(s)) = (find(n, "batched"), find(n, "sequential")) {
            speedups.push(format!(
                "    {{ \"n\": {n}, \"batched_over_sequential\": {:.2} }}",
                s.mean_seconds / b.mean_seconds
            ));
        }
        if let (Some(sh), Some(b)) = (find(n, "sharded"), find(n, "batched")) {
            speedups.push(format!(
                "    {{ \"n\": {n}, \"sharded_over_batched\": {:.2} }}",
                b.mean_seconds / sh.mean_seconds
            ));
        }
        if let (Some(h), Some(b)) = (find(n, "hybrid"), find(n, "batched")) {
            speedups.push(format!(
                "    {{ \"n\": {n}, \"hybrid_over_batched\": {:.2} }}",
                b.mean_seconds / h.mean_seconds
            ));
        }
    }
    let _ = writeln!(out, "{}", speedups.join(",\n"));
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");

    match flag_value(&args, "--out") {
        // Atomic write: a kill mid-write never leaves a truncated JSON file.
        Some(path) => write_bytes_atomic(Path::new(path), out.as_bytes())
            .unwrap_or_else(|e| panic!("failed to write {path}: {e}")),
        None => print!("{out}"),
    }
}
