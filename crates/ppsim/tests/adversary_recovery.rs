//! Restart-safe recovery probing around fault injection (ISSUE 7,
//! satellite 2).
//!
//! Two regressions pinned here:
//!
//! * the hybrid engine's [`OccupancyMonitor`] must *discard* its in-progress
//!   observation streak when a fault is injected — the streak's observations
//!   describe the pre-fault configuration, so completing a migration window
//!   against the post-fault one would switch representations on stale
//!   evidence;
//! * fault injection must land correctly **mid-agent-stint**: when the
//!   hybrid engine is in per-agent mode the corruption overwrites native
//!   structs through the codec, conserves mass exactly, leaves the
//!   representation where it was, and the run continues to reconvergence.

use rand::rngs::SmallRng;

use ppsim::{
    seeded_rng, AdversarialRun, CorruptionTarget, DenseProtocol, DenseSimulator, Engine,
    FaultEvent, FaultKind, FaultPlan, HybridSimulator, InitStrategy, OccupancyMonitor,
    SwitchDirection,
};

/// One-way epidemic on two dense states (local copy: integration tests keep
/// their own fixtures so the library's test protocols stay private).
#[derive(Debug, Clone, Copy)]
struct DenseRumor;

impl DenseProtocol for DenseRumor {
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

/// `reset_window` restarts the migration streak without flipping the mode
/// belief: an observation streak interrupted by a fault must start over.
#[test]
fn reset_window_discards_streak_without_flipping_mode() {
    // n = 100 → √n = 10, so the up-threshold is 64·10 = 640.  An occupancy
    // of 26 has pressure 676 > 640, so every observation below crosses.
    let mut monitor = OccupancyMonitor::new(100);
    assert!(monitor.is_dense());

    // First crossing observation: streak 1 of 2, no migration yet.
    assert_eq!(monitor.observe(26), None);

    // Fault injected here — the streak is stale evidence.
    monitor.reset_window();

    // Without the reset this observation would complete the window and
    // migrate; with it, the streak restarts at 1.
    assert_eq!(monitor.observe(26), None);
    assert!(monitor.is_dense(), "reset_window must not flip the mode");

    // The streak completes against post-fault observations only.
    assert_eq!(monitor.observe(26), Some(SwitchDirection::ToAgent));
    assert!(!monitor.is_dense());
}

/// Corrupting the hybrid engine while a per-agent stint is mid-flight:
/// mass is conserved, the representation stays per-agent, and the epidemic
/// still reconverges afterwards.
#[test]
fn hybrid_fault_mid_agent_stint_conserves_mass_and_reconverges() {
    let n = 300usize;
    let mut sim = HybridSimulator::new(DenseRumor, n, 7).unwrap();
    sim.transfer(0, 1, 1).unwrap();
    sim.switch_to_agent().unwrap();
    assert!(!sim.is_dense());

    // A budget that is not a multiple of any internal cadence: the stint is
    // genuinely mid-flight when the fault lands.
    sim.run(137);
    assert_eq!(sim.interactions(), 137);

    // Knock 30 agents (some already infected) back to susceptible.
    let mut rng: SmallRng = seeded_rng(99);
    sim.corrupt(30, &mut rng, &mut |_, _| 0).unwrap();

    let counts = sim.counts();
    assert_eq!(
        counts.iter().sum::<u64>(),
        n as u64,
        "corruption moved mass"
    );
    assert!(
        !sim.is_dense(),
        "fault injection must not migrate the representation"
    );

    let outcome = sim.run_until(|s| s.count_of(1) == n as u64, 64, 50_000_000);
    assert!(
        outcome.converged(),
        "epidemic failed to reconverge after mid-stint corruption: {outcome:?}"
    );
}

/// End-to-end through [`AdversarialRun`]: a fault plan fires while the
/// hybrid engine is in per-agent mode, the recovery record closes, and the
/// occupancy monitor's post-fault window starts fresh (the run neither
/// panics nor stalls on stale-streak migrations).
#[test]
fn adversarial_run_fires_fault_inside_an_agent_stint() {
    let n = 400usize;
    let plan = FaultPlan::new(vec![FaultEvent {
        at: 4_000,
        kind: FaultKind::Corrupt {
            agents: 40,
            target: CorruptionTarget::State(0),
        },
    }])
    .unwrap();
    let mut run =
        AdversarialRun::new(Engine::Hybrid, DenseRumor, n, 11, InitStrategy::Clean, plan).unwrap();
    run.inner_mut().transfer(0, 1, 1).unwrap();
    let DenseSimulator::Hybrid(h) = run.inner_mut() else {
        panic!("Engine::Hybrid must build the hybrid engine");
    };
    h.switch_to_agent().unwrap();
    assert!(!h.is_dense());

    let outcome = run
        .run_until(|s| s.count_of(1) == s.population(), 128, 20_000_000)
        .unwrap();
    assert!(outcome.converged(), "no reconvergence: {outcome:?}");
    assert_eq!(run.events_fired(), 1);
    let record = &run.records()[0];
    assert_eq!(record.injected_at, 4_000);
    assert!(
        record.recovery_time().is_some(),
        "recovery record never closed: {record:?}"
    );
}
