//! Tunable protocol constants.
//!
//! The paper fixes several constants purely for the benefit of its asymptotic
//! union bounds (e.g. the `−8` junta-level offset, `2¹³` leader-election phases, or
//! the unspecified number `m = m(c)` of phase-clock hours).  At simulable population
//! sizes those values would multiply running times by large constants without
//! changing the shape of any result, so every such constant is exposed here with
//! both the **paper value** and a **practical default**.  Experiments record which
//! values they ran with (see `EXPERIMENTS.md`).

use ppproto::{FastLeaderElectionConfig, LeaderElectionConfig};

/// Parameters of protocol `Approximate` (Algorithm 2, Theorem 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproximateParams {
    /// Number of hours `m` of the phase clock.  The paper leaves `m = m(c)`
    /// unspecified; a phase must be long enough for one-way epidemics (Lemma 3) and
    /// powers-of-two load balancing (Lemma 8) to complete, which at simulable sizes
    /// requires roughly `m ≥ 48`.
    pub clock_hours: u8,
    /// Number of hours of the *outer* phase clock used by the leader election of
    /// \[18\]; one outer revolution must span at least ≈ `3 log₂ n` inner phases.
    pub outer_clock_hours: u8,
}

impl Default for ApproximateParams {
    fn default() -> Self {
        ApproximateParams {
            clock_hours: 64,
            outer_clock_hours: 48,
        }
    }
}

impl ApproximateParams {
    /// Leader-election configuration derived from these parameters.
    #[must_use]
    pub fn leader_election(&self) -> LeaderElectionConfig {
        LeaderElectionConfig {
            outer_hours: self.outer_clock_hours,
        }
    }
}

/// Parameters of protocol `CountExact` (Algorithm 3, Theorem 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountExactParams {
    /// Number of hours `m` of the phase clock (see [`ApproximateParams::clock_hours`]).
    pub clock_hours: u8,
    /// Offset `γ` subtracted from the junta level wherever the paper subtracts `8`:
    /// the approximation stage injects `2^(2^(level−γ))` tokens per phase and
    /// `FastLeaderElection` samples `2^(level−γ)` bits per round.  The paper value
    /// `8` is tuned for asymptotic populations; at simulable sizes the junta level
    /// is 2–5, so the practical default is `2`.
    pub level_offset: u8,
    /// Number of phases after which `FastLeaderElection` declares the election
    /// finished (paper value: `2¹³`).
    pub election_phases: u32,
    /// Base-2 logarithm of the constant `C` used by the refinement stage
    /// (`C = 2⁸ = 256` in the paper).
    pub refinement_constant_log2: u8,
}

impl Default for CountExactParams {
    fn default() -> Self {
        CountExactParams {
            clock_hours: 64,
            level_offset: 2,
            election_phases: 32,
            refinement_constant_log2: 8,
        }
    }
}

impl CountExactParams {
    /// The constants exactly as stated in the paper.
    ///
    /// Only use this for illustration: with the paper's `2¹³` election phases a
    /// single execution needs billions of interactions even for tiny populations.
    #[must_use]
    pub fn paper() -> Self {
        CountExactParams {
            clock_hours: 64,
            level_offset: 8,
            election_phases: 1 << 13,
            refinement_constant_log2: 8,
        }
    }

    /// Parameters tuned for **dense** (count-based) execution at population
    /// size `n`.
    ///
    /// The practical default (`level_offset = 2`) lets election contenders
    /// sample `2^{level−2}`-bit values per round — fast sequentially, but at
    /// `n ≥ 10⁶` the junta level reaches 5–6 and the value diversity
    /// scatters the population over up to `2^{16}` election states, which
    /// defeats a count-based representation (Theorem 2's `Õ(n)` state bound
    /// is real).  This constructor uses the **paper's** offset `γ = 8`
    /// (1-bit rounds, so the live election states stay `O(log n)`) and
    /// scales the election length to keep the unique-leader guarantee:
    /// contenders halve per 1-bit round, so `2·(⌈log₂ n⌉ + 16)` phases push
    /// the collision probability below `n · 2⁻¹⁶`.
    ///
    /// Experiment E19 runs `DenseCountExact` with these parameters at
    /// `n = 10⁶`.
    #[must_use]
    pub fn dense_at_scale(n: usize) -> Self {
        let log_n = (n.max(2) as f64).log2().ceil() as u32;
        CountExactParams {
            level_offset: 8,
            election_phases: 2 * (log_n + 16),
            ..CountExactParams::default()
        }
    }

    /// Interner capacity for a `CountExact` run of population `n` on the
    /// count-based or hybrid engines.
    ///
    /// Stages 1–2 stay narrow (≈ 7·10⁴ distinct states over a full
    /// `n = 10⁶` window with [`Self::dense_at_scale`]), but the refinement
    /// stage mints `Θ(n)` live load values (Lemma 11).  The hybrid engine's
    /// decoded per-agent stint interns none of them while it steps, yet every
    /// configuration it hands back to the dense substrate is interned whole,
    /// and so is every state the dense blocks mint before the occupancy
    /// monitor's window completes — each of these can add up to `n` states,
    /// and a run may migrate several times (a converged run at `n = 10⁵`
    /// interns ≈ `0.5n` distinct states).  So the index space must scale
    /// with `n`: `16n` with a `2²²` floor, clamped to the interner's `u32`
    /// ceiling.  Capacity only sizes flat engine buffers (see
    /// [`ppsim::interned`]), so the headroom costs memory, never time.
    #[must_use]
    pub fn dense_capacity(n: usize) -> usize {
        n.saturating_mul(16).max(1 << 22).min(u32::MAX as usize - 1)
    }

    /// Fast-leader-election configuration derived from these parameters.
    #[must_use]
    pub fn fast_leader_election(&self) -> FastLeaderElectionConfig {
        FastLeaderElectionConfig {
            level_offset: self.level_offset,
            total_phases: self.election_phases,
        }
    }

    /// The refinement-stage constant `C`.
    #[must_use]
    pub fn refinement_constant(&self) -> u64 {
        1u64 << u32::from(self.refinement_constant_log2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_practical() {
        let a = ApproximateParams::default();
        assert!(a.clock_hours >= 48);
        assert!(a.outer_clock_hours >= 32);
        let c = CountExactParams::default();
        assert_eq!(c.refinement_constant(), 256);
        assert!(c.election_phases >= 20);
    }

    #[test]
    fn paper_constants_are_the_paper_constants() {
        let c = CountExactParams::paper();
        assert_eq!(c.level_offset, 8);
        assert_eq!(c.election_phases, 8192);
        assert_eq!(c.refinement_constant(), 256);
    }

    #[test]
    fn dense_capacity_scales_with_n_and_respects_the_interner_ceiling() {
        assert_eq!(CountExactParams::dense_capacity(10_000), 1 << 22);
        assert_eq!(CountExactParams::dense_capacity(1_000_000), 16_000_000);
        assert_eq!(
            CountExactParams::dense_capacity(usize::MAX / 2),
            u32::MAX as usize - 1,
            "clamped to the largest capacity StateInterner accepts"
        );
    }

    #[test]
    fn derived_configs_propagate_fields() {
        let c = CountExactParams {
            level_offset: 3,
            election_phases: 10,
            ..CountExactParams::default()
        };
        let fle = c.fast_leader_election();
        assert_eq!(fle.level_offset, 3);
        assert_eq!(fle.total_phases, 10);
        let a = ApproximateParams {
            outer_clock_hours: 24,
            ..ApproximateParams::default()
        };
        assert_eq!(a.leader_election().outer_hours, 24);
    }
}
