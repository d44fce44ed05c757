//! The repository benchmark: million interactions simulated per wall-clock
//! second on three workloads, every result checked, plus a traced run that
//! splits each workload's time by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload countexact --seed 7 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
//! metrics are the end-to-end ones (`mips`, `setup_s`, `peak_rss_mb`); with
//! `--trace 1` they are the per-layer ones, computed from spans this file
//! records around its calls into each layer's public functions.  A
//! human-readable summary, with `failed_frac` and on `countexact-ckpt` the
//! checkpoint pause percentiles, goes to standard error.
//!
//! Every workload derives its seeds from `--seed`, times its set-up, runs
//! untimed warm-up seeds for 3 s, then runs seeds to their result, one after
//! another, for about `--seconds`.  Only finished seeds count, and each
//! one's result is checked; a seed that errors, panics, misses its deadline
//! or gives a wrong result counts as failed.

mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use popcount::{count_exact_dense_staged, CountExactParams, DenseCountExact};
use ppproto::DenseEpidemic;
use ppsim::sample::{multivariate_hypergeometric_sparse, CollisionSampler};
use ppsim::{
    derive_seed, seeded_rng, Checkpointable, DenseProtocol, DenseSimulator, Engine, EngineSnapshot,
    SimError,
};

use trace::Tracer;

/// Population of the sharded epidemic.
const EPIDEMIC_N: usize = 1_000_000_000;
/// Shards of the sharded epidemic.
const EPIDEMIC_SHARDS: usize = 8;
/// Worker threads of the sharded epidemic (the machine has two cores).
const EPIDEMIC_THREADS: usize = 2;
/// Population of the `countexact` workloads: small enough that several
/// seeds finish in one run, large enough that every seed migrates to the
/// per-agent leg and back.
const COUNT_N: usize = 2_000;

/// A seed still running after this long is abandoned and counts as failed,
/// so one stuck seed cannot hold the process past its time limit.
const SEED_DEADLINE: Duration = Duration::from_secs(60);
/// How long the untimed warm-up runs.
const WARMUP: Duration = Duration::from_secs(3);
/// Engine constructions per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 64;
/// Sampler replays per replayed dense probe.
const REPLAY_BLOCKS: usize = 64;
/// Replay the sampler on every this-many-th dense probe.
const REPLAY_EVERY: u64 = 4;
/// Interned indices replayed through `decode` → `encode` per seed.
const CODEC_SAMPLES: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    EpidemicSharded,
    CountExact,
    CountExactCkpt,
}

impl Workload {
    fn parse(raw: &str) -> Option<Self> {
        Some(match raw {
            "epidemic-sharded" => Workload::EpidemicSharded,
            "countexact" => Workload::CountExact,
            "countexact-ckpt" => Workload::CountExactCkpt,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        format!(
            "unknown workload `{workload}` \
             (epidemic-sharded|countexact|countexact-ckpt)"
        )
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// How one workload builds, drives and checks a seed.
trait Job {
    type P: DenseProtocol + Clone + Send + 'static;

    /// Interactions between convergence checks: the cadence of the library
    /// driver this workload stands for.
    fn check_every(&self) -> u64;
    /// Protocol, interner and engine construction plus input planting:
    /// everything before the first interaction.  Also returns a protocol
    /// handle that shares the engine's interner.
    fn build(&self, seed: u64) -> Result<(DenseSimulator<Self::P>, Self::P), SimError>;
    /// The convergence predicate.
    fn done(&self, sim: &DenseSimulator<Self::P>) -> bool;
    /// The result check on a converged run.
    fn correct(&self, sim: &DenseSimulator<Self::P>) -> bool;
    /// Replay `decode` → `encode` on already interned indices: the number
    /// of interned states and the nanoseconds per round trip, or `None`
    /// when the protocol has no interner.
    fn codec(&self, _proto: &Self::P) -> Option<(usize, f64)> {
        None
    }
    /// Run the seed through the library's own driver and return its
    /// interactions, switch points and whether its result is correct.
    fn reference(&self, seed: u64) -> Result<(u64, Vec<u64>, bool), SimError>;
    /// The same job on one worker thread, for the thread-scaling check.
    fn single_thread(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

/// Run `job`'s seed through `DenseSimulator::run_until`, the library
/// driver users call directly.
fn run_until_reference<J: Job>(job: &J, seed: u64) -> Result<(u64, Vec<u64>, bool), SimError> {
    let (mut sim, _) = job.build(seed)?;
    let outcome = sim.run_until(|s| job.done(s), job.check_every(), u64::MAX >> 1);
    let correct = outcome.converged() && job.correct(&sim);
    Ok((sim.interactions(), sim.switch_points(), correct))
}

/// `DenseEpidemic` on the sharded engine, run until every agent is informed.
struct EpidemicJob {
    threads: usize,
}

impl Job for EpidemicJob {
    type P = DenseEpidemic;

    fn check_every(&self) -> u64 {
        EPIDEMIC_N as u64
    }

    fn build(&self, seed: u64) -> Result<(DenseSimulator<DenseEpidemic>, DenseEpidemic), SimError> {
        let engine = Engine::Sharded {
            shards: EPIDEMIC_SHARDS,
            threads: self.threads,
        };
        let mut sim = DenseSimulator::new(engine, DenseEpidemic, EPIDEMIC_N, seed)?;
        sim.transfer(0, 1, 1)?;
        Ok((sim, DenseEpidemic))
    }

    fn done(&self, sim: &DenseSimulator<DenseEpidemic>) -> bool {
        sim.count_of(1) == sim.population()
    }

    fn correct(&self, sim: &DenseSimulator<DenseEpidemic>) -> bool {
        sim.count_of(0) == 0 && sim.count_of(1) == EPIDEMIC_N as u64
    }

    fn reference(&self, seed: u64) -> Result<(u64, Vec<u64>, bool), SimError> {
        run_until_reference(self, seed)
    }

    fn single_thread(&self) -> Option<Self> {
        Some(EpidemicJob { threads: 1 })
    }
}

/// `DenseCountExact` on the hybrid engine, driven the way
/// `count_exact_dense_staged` drives it; correct when every agent outputs n.
/// `countexact-ckpt` runs the same job with a checkpoint round trip at
/// every probe.
struct CountJob;

impl Job for CountJob {
    type P = DenseCountExact;

    fn check_every(&self) -> u64 {
        20 * COUNT_N as u64
    }

    fn build(
        &self,
        seed: u64,
    ) -> Result<(DenseSimulator<DenseCountExact>, DenseCountExact), SimError> {
        let proto = DenseCountExact::with_capacity(
            CountExactParams::dense_at_scale(COUNT_N),
            CountExactParams::dense_capacity(COUNT_N),
        );
        let sim = DenseSimulator::new(Engine::Hybrid, proto.clone(), COUNT_N, seed)?;
        Ok((sim, proto))
    }

    fn done(&self, sim: &DenseSimulator<DenseCountExact>) -> bool {
        sim.output_stats().unanimous().is_some_and(Option::is_some)
    }

    fn correct(&self, sim: &DenseSimulator<DenseCountExact>) -> bool {
        sim.output_stats().unanimous() == Some(&Some(COUNT_N as u64))
    }

    fn codec(&self, proto: &DenseCountExact) -> Option<(usize, f64)> {
        let states = proto.states_discovered();
        Some((
            states,
            codec_round_trips(states, |i| proto.encode(proto.decode(i))),
        ))
    }

    fn reference(&self, seed: u64) -> Result<(u64, Vec<u64>, bool), SimError> {
        let out = count_exact_dense_staged(
            CountExactParams::dense_at_scale(COUNT_N),
            COUNT_N,
            seed,
            Engine::Batched,
            u64::MAX >> 1,
        )?;
        let correct = out.converged && out.output == Some(COUNT_N as u64);
        Ok((out.interactions, out.switch_interactions, correct))
    }
}

/// Nanoseconds per `decode` → `encode` round trip over the first interned
/// indices; `f64::NAN` if any index fails to come back to itself.
fn codec_round_trips(states: usize, round_trip: impl Fn(usize) -> usize) -> f64 {
    let k = states.min(CODEC_SAMPLES);
    if k == 0 {
        return 0.0;
    }
    let started = Instant::now();
    let mut exact = true;
    for i in 0..k {
        exact &= std::hint::black_box(round_trip(i)) == i;
    }
    let ns = started.elapsed().as_secs_f64() * 1e9 / k as f64;
    if exact {
        ns
    } else {
        f64::NAN
    }
}

fn is_dense<P: DenseProtocol + Clone + Send + 'static>(sim: &DenseSimulator<P>) -> bool {
    match sim {
        DenseSimulator::Hybrid(h) => h.is_dense(),
        DenseSimulator::Sequential(_) => false,
        DenseSimulator::Batched(_) | DenseSimulator::Sharded(_) => true,
    }
}

fn occupied_states<P: DenseProtocol + Clone + Send + 'static>(sim: &DenseSimulator<P>) -> usize {
    match sim {
        DenseSimulator::Batched(s) => s.occupied_states(),
        DenseSimulator::Sharded(s) => s.occupied_states(),
        DenseSimulator::Hybrid(h) => h.occupied_states(),
        DenseSimulator::Sequential(_) => 0,
    }
}

fn switch_count<P: DenseProtocol + Clone + Send + 'static>(sim: &DenseSimulator<P>) -> usize {
    match sim {
        DenseSimulator::Hybrid(h) => h.switches().len(),
        _ => 0,
    }
}

/// One finished seed.
struct SeedRun {
    interactions: u64,
    /// Wall-clock of the driving loop (runs, checks and checkpoints), not
    /// counting the traced run's replays.
    seconds: f64,
    switches: Vec<u64>,
    converged: bool,
    correct: bool,
}

/// What the runs of one process accumulate besides their seeds.
#[derive(Default)]
struct Samples {
    ckpt_save_ms: Vec<f64>,
    ckpt_restore_ms: Vec<f64>,
    ckpt_bytes: Vec<f64>,
    /// Per-layer counters, filled only while tracing.
    layers: Layers,
}

#[derive(Default)]
struct Layers {
    dense_probes: u64,
    q_occ_sum: f64,
    q_occ_max: usize,
    epochs: u64,
    dense_interactions: u64,
    dense_s: f64,
    agent_interactions: u64,
    agent_s: f64,
    replay_blocks: u64,
    replay_len: u64,
    replay_s: f64,
    migrations_ms: Vec<f64>,
    interned_states: usize,
    codec_ns: Vec<f64>,
    codec_mismatch: bool,
}

/// Median construction time over `SETUP_SAMPLES` builds.  Taken first thing
/// in the process, so that every run builds from the same heap state: later
/// in a run, how much freed memory the allocator holds makes the same build
/// take either about 0.2 or 0.4 ms.
fn setup_median<J: Job>(job: &J, seed: u64) -> f64 {
    let samples: Vec<f64> = (0..SETUP_SAMPLES as u64)
        .map(|i| {
            let started = Instant::now();
            let built = job.build(derive_seed(seed, i));
            let elapsed = started.elapsed().as_secs_f64();
            drop(built);
            elapsed
        })
        .collect();
    median(&samples)
}

/// Drive one seed to its result the way the library driver does: check
/// once, then `run(check_every)` and check again until converged.  With
/// `checkpoint`, every probe first round-trips the engine through
/// `save_state` → `to_bytes` → `from_bytes` → `restore_state`, as the
/// staged runner's autosave does before its convergence check.
fn run_seed<J: Job>(
    job: &J,
    seed: u64,
    checkpoint: bool,
    deadline: Duration,
    samples: &mut Samples,
    tr: &mut Tracer,
) -> Result<SeedRun, SimError> {
    tr.begin("seed");
    tr.begin("setup");
    let built = job.build(seed);
    tr.end();
    let (mut sim, proto) = built?;
    let check_every = job.check_every();
    let started = Instant::now();
    let mut excluded = 0.0;
    let mut probe = 0u64;
    tr.begin("engine.check");
    let mut converged = job.done(&sim);
    tr.end();
    while !converged && started.elapsed() < deadline {
        let dense = is_dense(&sim);
        let before = sim.interactions();
        let switches_before = switch_count(&sim);
        tr.begin("engine.run");
        sim.run(check_every);
        let chunk_s = tr.end();
        if tr.enabled() {
            excluded += trace_chunk(
                job,
                seed,
                &sim,
                dense,
                sim.interactions() - before,
                chunk_s,
                switches_before,
                probe,
                &mut samples.layers,
                tr,
            )?;
        }
        probe += 1;
        if checkpoint {
            round_trip(&mut sim, samples, tr)?;
        }
        tr.begin("engine.check");
        converged = job.done(&sim);
        tr.end();
    }
    let seconds = started.elapsed().as_secs_f64() - excluded;
    if tr.enabled() {
        tr.begin("replay.codec");
        if let Some((states, ns)) = job.codec(&proto) {
            let layers = &mut samples.layers;
            layers.interned_states = layers.interned_states.max(states);
            if ns.is_nan() {
                layers.codec_mismatch = true;
            } else {
                layers.codec_ns.push(ns);
            }
        }
        tr.end();
    }
    tr.end();
    Ok(SeedRun {
        interactions: sim.interactions(),
        seconds,
        switches: sim.switch_points(),
        converged,
        correct: converged && job.correct(&sim),
    })
}

/// One in-memory checkpoint round trip; the save half is the pause a
/// checkpoint imposes on the run.
fn round_trip<P: DenseProtocol + Clone + Send + 'static>(
    sim: &mut DenseSimulator<P>,
    samples: &mut Samples,
    tr: &mut Tracer,
) -> Result<(), SimError> {
    tr.begin("snapshot.save");
    let started = Instant::now();
    let bytes = sim.save_state().to_bytes();
    let saved = Instant::now();
    tr.end();
    tr.begin("snapshot.restore");
    let snapshot = EngineSnapshot::from_bytes(&bytes)?;
    sim.restore_state(&snapshot)?;
    let restored = Instant::now();
    tr.end();
    samples
        .ckpt_save_ms
        .push((saved - started).as_secs_f64() * 1e3);
    samples
        .ckpt_restore_ms
        .push((restored - saved).as_secs_f64() * 1e3);
    samples.ckpt_bytes.push(bytes.len() as f64);
    Ok(())
}

/// Per-layer bookkeeping after one traced chunk.  Returns the seconds spent
/// in replays, which the seed's timed seconds leave out.
#[allow(clippy::too_many_arguments)]
fn trace_chunk<J: Job>(
    job: &J,
    seed: u64,
    sim: &DenseSimulator<J::P>,
    dense: bool,
    executed: u64,
    chunk_s: f64,
    switches_before: usize,
    probe: u64,
    layers: &mut Layers,
    tr: &mut Tracer,
) -> Result<f64, SimError> {
    let mut excluded = 0.0;
    match sim {
        // The leg is the one the chunk started on (a chunk that migrates
        // midway counts whole); the engine's own leg clocks are not used,
        // since they restart from zero after `restore_state`.
        DenseSimulator::Hybrid(_) if dense => {
            layers.dense_interactions += executed;
            layers.dense_s += chunk_s;
        }
        DenseSimulator::Hybrid(_) => {
            layers.agent_interactions += executed;
            layers.agent_s += chunk_s;
        }
        DenseSimulator::Sharded(s) => layers.epochs += executed.div_ceil(s.epoch_interactions()),
        _ => {}
    }
    if is_dense(sim) {
        let q_occ = occupied_states(sim);
        layers.dense_probes += 1;
        layers.q_occ_sum += q_occ as f64;
        layers.q_occ_max = layers.q_occ_max.max(q_occ);
        // The sharded engine's blocks run inside shards on worker threads,
        // so its wall-clock does not split into blocks; only the batched
        // legs are replayed.
        if probe.is_multiple_of(REPLAY_EVERY) && !matches!(sim, DenseSimulator::Sharded(_)) {
            tr.begin("replay.sample");
            replay_sampler(sim, seed ^ probe, layers);
            excluded += tr.end();
        }
    }
    if switch_count(sim) > switches_before {
        tr.begin("replay.migration");
        replay_migration(job, seed, sim, layers)?;
        excluded += tr.end();
    }
    Ok(excluded)
}

/// Replay the batched engine's per-block sampling on a copy of the current
/// counts with an RNG of its own: `CollisionSampler::sample` plus the two
/// `multivariate_hypergeometric_sparse` draws (initiators, then responders).
fn replay_sampler<P: DenseProtocol + Clone + Send + 'static>(
    sim: &DenseSimulator<P>,
    seed: u64,
    layers: &mut Layers,
) {
    let mut counts: Vec<u64> = sim.with_counts(|c| c.iter().copied().filter(|&k| k > 0).collect());
    let population: u64 = counts.iter().sum();
    if population < 4 {
        return;
    }
    let occupied: Vec<u32> = (0..counts.len() as u32).collect();
    let sampler = CollisionSampler::new(population);
    let mut rng = seeded_rng(derive_seed(seed, 0x5245_504C));
    let (mut initiators, mut responders) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for _ in 0..REPLAY_BLOCKS {
        let draw = sampler.sample(&mut rng, u64::MAX);
        let clean = draw.clean.min(population / 2);
        multivariate_hypergeometric_sparse(
            &mut rng,
            &counts,
            &occupied,
            population,
            clean,
            &mut initiators,
        );
        for &(s, k) in &initiators {
            counts[s as usize] -= k;
        }
        multivariate_hypergeometric_sparse(
            &mut rng,
            &counts,
            &occupied,
            population - clean,
            clean,
            &mut responders,
        );
        for &(s, k) in &initiators {
            counts[s as usize] += k;
        }
        std::hint::black_box(&responders);
        layers.replay_len += clean + u64::from(draw.collision.is_some());
    }
    layers.replay_s += started.elapsed().as_secs_f64();
    layers.replay_blocks += REPLAY_BLOCKS as u64;
}

/// Time one migration each way on an independent copy of the engine,
/// restored from a snapshot into a freshly built engine so the copy has an
/// interner of its own (a migration back to counts interns states, which
/// on a shared interner would change the measured run's trajectory).
fn replay_migration<J: Job>(
    job: &J,
    seed: u64,
    sim: &DenseSimulator<J::P>,
    layers: &mut Layers,
) -> Result<(), SimError> {
    let (mut copy, _) = job.build(seed)?;
    copy.restore_state(&sim.save_state())?;
    let DenseSimulator::Hybrid(h) = &mut copy else {
        return Ok(());
    };
    for _ in 0..2 {
        let started = Instant::now();
        if h.is_dense() {
            h.switch_to_agent()?;
        } else {
            h.switch_to_dense()?;
        }
        layers
            .migrations_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
    }
    Ok(())
}

/// Seeds of one process and how they went; the `i`-th measured seed is
/// `derive_seed(--seed, i)`.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    finished: Vec<(u64, SeedRun)>,
}

impl Tally {
    fn interactions(&self) -> u64 {
        self.finished.iter().map(|(_, r)| r.interactions).sum()
    }

    fn seconds(&self) -> f64 {
        self.finished.iter().map(|(_, r)| r.seconds).sum()
    }

    fn mips(&self) -> f64 {
        self.interactions() as f64 / self.seconds() / 1e6
    }

    fn fail(&mut self, seed: u64, why: &str) {
        eprintln!("seed {seed}: {why}");
        self.failed += 1;
    }
}

/// Run one seed to its result, counting an error, a panic, a missed
/// deadline or a wrong result as a failure.  Returns the run only when it
/// finished correctly.
fn attempt<J: Job>(
    job: &J,
    seed: u64,
    checkpoint: bool,
    samples: &mut Samples,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Option<SeedRun> {
    tally.attempted += 1;
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_seed(job, seed, checkpoint, SEED_DEADLINE, samples, tr)
    }));
    tr.reset_stack();
    match result {
        Ok(Ok(run)) if run.correct => {
            eprintln!(
                "seed {seed}: {} interactions in {:.3} s",
                run.interactions, run.seconds
            );
            return Some(run);
        }
        Ok(Ok(run)) => tally.fail(
            seed,
            &format!("wrong or no result after {} interactions", run.interactions),
        ),
        Ok(Err(e)) => tally.fail(seed, &e.to_string()),
        Err(_) => tally.fail(seed, "panicked"),
    }
    None
}

/// The untimed warm-up: seeds driven like the measured ones, for `WARMUP`
/// in all (the last one cut off there).  A warm-up seed fails on an error,
/// a panic or a wrong result.
fn warm_up<J: Job>(job: &J, seed: u64, checkpoint: bool, tally: &mut Tally) {
    let started = Instant::now();
    let mut i = 0;
    while let Some(left) = WARMUP.checked_sub(started.elapsed()) {
        let seed = derive_seed(seed ^ 0x5741_524D_5550, i);
        tally.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut samples = Samples::default();
            run_seed(
                job,
                seed,
                checkpoint,
                left,
                &mut samples,
                &mut Tracer::new(false),
            )
        }));
        match result {
            Ok(Ok(run)) if run.correct || !run.converged => {}
            Ok(Ok(_)) => tally.fail(seed, "warm-up gave a wrong result"),
            Ok(Err(e)) => tally.fail(seed, &e.to_string()),
            Err(_) => tally.fail(seed, "warm-up panicked"),
        }
        i += 1;
    }
}

/// Run the workload's seeds in order for about `budget` seconds: the first
/// always, each further one only while the mean seed time so far still fits.
fn run_for<J: Job>(
    job: &J,
    args: &Args,
    checkpoint: bool,
    budget: f64,
    samples: &mut Samples,
    tally: &mut Tally,
) {
    let mut off = Tracer::new(false);
    let started = Instant::now();
    for i in 0.. {
        let elapsed = started.elapsed().as_secs_f64();
        if i > 0 && elapsed + elapsed / i as f64 > budget {
            break;
        }
        let seed = derive_seed(args.seed, i);
        if let Some(run) = attempt(job, seed, checkpoint, samples, &mut off, tally) {
            tally.finished.push((seed, run));
        }
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The untraced run: end-to-end metrics.
fn measure<J: Job>(job: &J, args: &Args, checkpoint: bool) -> (bool, Tally, Vec<Metric>) {
    let setup_s = setup_median(job, args.seed);
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    warm_up(job, args.seed, checkpoint, &mut tally);
    run_for(
        job,
        args,
        checkpoint,
        args.seconds,
        &mut samples,
        &mut tally,
    );

    let rss = peak_rss_mb();
    let ok = !tally.finished.is_empty() && rss.is_some();
    let metrics = vec![
        ("mips", tally.mips(), "M/s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", rss.unwrap_or(0.0), "MB"),
    ];
    if checkpoint {
        // Checkpoint pauses exist only here, so they are reported with the
        // traced run's per-layer metrics and printed, not gated.
        eprintln!(
            "checkpoint pause over {} samples: ckpt_save_ms_p50 = {} ms, ckpt_save_ms_p98 = {} ms",
            samples.ckpt_save_ms.len(),
            percentile(&samples.ckpt_save_ms, 0.50),
            percentile(&samples.ckpt_save_ms, 0.98)
        );
    }
    eprintln!(
        "{} seeds finished, failed_frac = {} ({} of {} seeded runs)",
        tally.finished.len(),
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    );
    (ok, tally, metrics)
}

/// The traced run: per-layer metrics.  After the warm-up, the first seed
/// runs through the library's own driver; a third of the time then runs
/// seeds untraced, and the first must match the library's run; the same
/// seeds then run traced and must repeat their trajectories exactly.
#[allow(clippy::too_many_lines)]
fn measure_traced<J: Job>(job: &J, args: &Args, checkpoint: bool) -> (bool, Tally, Vec<Metric>) {
    let mut samples = Samples::default();
    let mut tally = Tally::default();
    let mut ok = true;
    warm_up(job, args.seed, checkpoint, &mut tally);

    let first = derive_seed(args.seed, 0);
    tally.attempted += 1;
    let reference = catch_unwind(AssertUnwindSafe(|| job.reference(first)));
    let reference = match reference {
        Ok(Ok(reference)) => Some(reference),
        Ok(Err(e)) => {
            tally.fail(first, &e.to_string());
            None
        }
        Err(_) => {
            tally.fail(first, "library driver panicked");
            None
        }
    };

    let mut untraced = Tally::default();
    run_for(
        job,
        args,
        checkpoint,
        args.seconds / 3.0,
        &mut Samples::default(),
        &mut untraced,
    );
    tally.attempted += untraced.attempted;
    tally.failed += untraced.failed;
    match (&reference, untraced.finished.first()) {
        (Some((interactions, switches, correct)), Some((seed, run))) if *seed == first => {
            if *interactions != run.interactions || *switches != run.switches || !correct {
                tally.fail(
                    first,
                    &format!(
                        "library driver took {interactions} interactions (switches \
                         {switches:?}), the benchmark {} (switches {:?})",
                        run.interactions, run.switches
                    ),
                );
            }
        }
        _ => ok = false,
    }

    let mut tr = Tracer::new(true);
    let mut traced = Tally::default();
    for (seed, plain) in &untraced.finished {
        if let Some(run) = attempt(job, *seed, checkpoint, &mut samples, &mut tr, &mut traced) {
            if run.interactions != plain.interactions || run.switches != plain.switches {
                traced.fail(
                    *seed,
                    &format!(
                        "traced run took {} interactions, untraced {}",
                        run.interactions, plain.interactions
                    ),
                );
            }
            traced.finished.push((*seed, run));
        }
    }
    tally.attempted += traced.attempted;
    tally.failed += traced.failed;

    // Thread scaling: the same seeds on one worker thread must repeat
    // their trajectories.
    let mut speedup = 0.0;
    if let Some(single) = job.single_thread() {
        let started = Instant::now();
        let (mut one, mut two) = (0.0, 0.0);
        let mut off = Tracer::new(false);
        for (seed, plain) in &untraced.finished {
            if started.elapsed().as_secs_f64() > args.seconds / 3.0 {
                break;
            }
            tr.begin("rerun.1thread");
            let run = attempt(
                &single,
                *seed,
                false,
                &mut Samples::default(),
                &mut off,
                &mut tally,
            );
            tr.end();
            match run {
                Some(run) if run.interactions == plain.interactions => {
                    one += run.seconds;
                    two += plain.seconds;
                }
                Some(_) => tally.fail(*seed, "one thread took another trajectory"),
                None => {}
            }
        }
        speedup = one / two;
    }
    ok &= !samples.layers.codec_mismatch && !traced.finished.is_empty();

    let seeds = traced.finished.len().max(1) as f64;
    let l = &samples.layers;
    let replay_len_mean = ratio(l.replay_len as f64, l.replay_blocks as f64);
    let blocks_est = ratio(l.dense_interactions as f64, replay_len_mean);
    let block_ns = ratio(l.dense_s * 1e9, blocks_est);
    let sample_ns = ratio(l.replay_s * 1e9, l.replay_blocks as f64);
    let metrics = vec![
        ("engine.run_s", tr.total("engine.run") / seeds, "s"),
        ("engine.check_s", tr.total("engine.check") / seeds, "s"),
        (
            "engine.chunks",
            tr.count("engine.run") as f64 / seeds,
            "count",
        ),
        (
            "batched.q_occ_mean",
            l.q_occ_sum / l.dense_probes.max(1) as f64,
            "count",
        ),
        ("batched.q_occ_max", l.q_occ_max as f64, "count"),
        ("batched.blocks_est", blocks_est / seeds, "count"),
        ("batched.block_ns", block_ns, "ns"),
        ("sample.block_len_mean", replay_len_mean, "count"),
        ("sample.block_ns", sample_ns, "ns"),
        ("sample.share", ratio(sample_ns, block_ns), "frac"),
        ("sharded.epochs", l.epochs as f64 / seeds, "count"),
        ("sharded.speedup_2t", speedup, "x"),
        (
            "hybrid.switches",
            traced
                .finished
                .iter()
                .map(|(_, r)| r.switches.len())
                .sum::<usize>() as f64
                / seeds,
            "count",
        ),
        (
            "hybrid.agent_frac",
            ratio(
                l.agent_interactions as f64,
                (l.dense_interactions + l.agent_interactions) as f64,
            ),
            "frac",
        ),
        (
            "hybrid.dense_mips",
            ratio(l.dense_interactions as f64 / 1e6, l.dense_s),
            "M/s",
        ),
        (
            "hybrid.agent_mips",
            ratio(l.agent_interactions as f64 / 1e6, l.agent_s),
            "M/s",
        ),
        ("hybrid.migration_ms", mean(&l.migrations_ms), "ms"),
        ("interner.states", l.interned_states as f64, "count"),
        ("interner.codec_ns", mean(&l.codec_ns), "ns"),
        ("snapshot.save_ms", mean(&samples.ckpt_save_ms), "ms"),
        (
            "ckpt_save_ms_p50",
            percentile(&samples.ckpt_save_ms, 0.50),
            "ms",
        ),
        (
            "ckpt_save_ms_p98",
            percentile(&samples.ckpt_save_ms, 0.98),
            "ms",
        ),
        ("snapshot.restore_ms", mean(&samples.ckpt_restore_ms), "ms"),
        ("snapshot.bytes", mean(&samples.ckpt_bytes), "B"),
        (
            "snapshot.share",
            ratio(
                tr.total("snapshot.save") + tr.total("snapshot.restore"),
                traced.seconds(),
            ),
            "frac",
        ),
        (
            "protocol.interactions",
            traced
                .finished
                .first()
                .map_or(0.0, |(_, r)| r.interactions as f64),
            "count",
        ),
        (
            "trace.overhead_frac",
            1.0 - traced.mips() / untraced.mips(),
            "frac",
        ),
    ];
    eprint!("{}", tr.summary());
    (ok, tally, metrics)
}

fn run<J: Job>(job: &J, args: &Args, checkpoint: bool) -> (bool, Tally, Vec<Metric>) {
    if args.trace {
        measure_traced(job, args, checkpoint)
    } else {
        measure(job, args, checkpoint)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let (ok, tally, metrics) = match args.workload {
        Workload::EpidemicSharded => run(
            &EpidemicJob {
                threads: EPIDEMIC_THREADS,
            },
            &args,
            false,
        ),
        Workload::CountExact => run(&CountJob, &args, false),
        Workload::CountExactCkpt => run(&CountJob, &args, true),
    };

    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        eprintln!("{name:>24} = {value} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = ok && tally.failed == 0 && metrics.iter().all(|m| m.1.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.attempted, tally.failed
    );
    ExitCode::SUCCESS
}
