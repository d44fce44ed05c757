//! Diagnostic runner for CountExact (not part of the public API).
//!
//! Drives the **dense** protocol through the canonical entry point —
//! [`DenseSimulator`] with [`Engine::Auto`] — with
//! [`CountExactParams::dense_at_scale`], so the stage-by-stage trace works
//! from a few hundred agents (sequential engine) into the dense regime
//! (batched engine): `cargo run --release -p popcount --example
//! debug_count_exact -- <n> <seed>`.
//!
//! This example watches the *stages* unfold; it stops reporting at its
//! interaction bailout rather than insisting on convergence.  For running
//! `CountExact` to its exact output at population scale, the entry point is
//! [`popcount::count_exact_dense_staged`] — the refinement stage's `Θ(n)`
//! live loads want the per-agent engine (see `popcount::exact::staged`).

use popcount::{CountExactParams, DenseCountExact};
use ppsim::{DenseSimulator, Engine};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    let seed: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    let proto = DenseCountExact::with_capacity(
        CountExactParams::dense_at_scale(n),
        CountExactParams::dense_capacity(n),
    );
    let mut sim = DenseSimulator::new(Engine::Auto, proto.clone(), n, seed).unwrap();
    eprintln!(
        "engine = {} (Engine::Auto at n = {n}), capacity = {} dense states",
        sim.engine_name(),
        ppsim::DenseProtocol::num_states(&proto),
    );
    for _ in 0..4000 {
        sim.run(50_000);
        // Decode the occupied dense states into full agents once per report.
        // Indices are interned in first-appearance order, so everything at
        // or beyond the census watermark is guaranteed empty — borrow the
        // counts in place and scan only the discovered prefix instead of
        // copying and walking the full capacity-sized vector per report.
        let census = proto.states_discovered();
        let occupied: Vec<(popcount::CountExactAgent, u64)> = sim.with_counts(|counts| {
            counts[..census.min(counts.len())]
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(s, &c)| (proto.decode(s), c))
                .collect()
        });
        let tally = |pred: &dyn Fn(&popcount::CountExactAgent) -> bool| -> u64 {
            occupied
                .iter()
                .filter(|(a, _)| pred(a))
                .map(|(_, c)| c)
                .sum()
        };
        let leaders = tally(&|a| a.inner.is_leader());
        let done = tally(&|a| a.inner.election.done);
        let apx = tally(&|a| a.inner.stage.apx_done);
        let mult = tally(&|a| a.inner.stage.multiplied);
        let phase = occupied
            .iter()
            .map(|(a, _)| a.sync.clock.phase)
            .max()
            .unwrap();
        let level = occupied
            .iter()
            .map(|(a, _)| a.sync.junta.level)
            .max()
            .unwrap();
        let k = occupied
            .iter()
            .find(|(a, _)| a.inner.stage.apx_done)
            .map(|(a, _)| a.inner.stage.k);
        let leader = occupied.iter().find(|(a, _)| a.inner.is_leader());
        let (li, ll) = leader.map_or((0, 0), |(a, _)| {
            (a.inner.stage.explosions(), a.inner.stage.l)
        });
        let total_l: u128 = occupied
            .iter()
            .map(|(a, c)| u128::from(a.inner.stage.l) * u128::from(*c))
            .sum();
        let stats = sim.output_stats();
        println!(
            "t={:>9} phase={:>3} lvl={} leaders={} eldone={:>4} apx={:>4} mult={:>4} \
             leader(i={},l={}) k={:?} totalL={} states(occ={},seen={})",
            sim.interactions(),
            phase,
            level,
            leaders,
            done,
            apx,
            mult,
            li,
            ll,
            k,
            total_l,
            occupied.len(),
            proto.states_discovered(),
        );
        if stats.unanimous() == Some(&Some(n as u64)) {
            println!(
                "CONVERGED to {n} at {} interactions ({} distinct dense states discovered)",
                sim.interactions(),
                proto.states_discovered()
            );
            break;
        }
        if sim.interactions() > 400_000_000 {
            break;
        }
    }
}
