//! # `popcount` — uniform population protocols for counting the population size
//!
//! This crate implements the protocols of *On Counting the Population Size*
//! (Berenbrink, Kaaser, Radzik — PODC 2019): uniform population protocols with
//! which `n` anonymous, randomly interacting agents learn how many of them there
//! are.
//!
//! | protocol | paper | output | interactions | states |
//! |---|---|---|---|---|
//! | [`Approximate`] | Algorithm 2, Theorem 1.1 | `⌊log₂ n⌋` or `⌈log₂ n⌉` w.h.p. | `O(n log² n)` | `O(log n · log log n)` |
//! | [`StableApproximate`] | Appendix B, Theorem 1.2/1.3 | `⌊log₂ n⌋` or `⌈log₂ n⌉`, correct with probability 1 | `O(n log² n)` | `O(log² n · log log n)` |
//! | [`CountExact`] | Algorithm 3, Theorem 2 | exactly `n` w.h.p. | `O(n log n)` | `Õ(n)` |
//! | [`StableCountExact`] | Appendix F | exactly `n`, correct with probability 1 | `O(n log n)` | `Õ(n)` |
//! | [`ApproximateBackup`] | Appendix C.1 | `⌊log₂ n⌋`, probability 1 | `O(n² log² n)` | `≤ (log n + 1)²` |
//! | [`ExactBackup`] | Appendix C.2 | exactly `n`, probability 1 | `O(n² log n)` | `O(n log n)` |
//! | [`TokenMergingCounter`] | Section 1 (baseline) | exactly `n`, probability 1 | `Θ(n²)` | `Θ(n²)` |
//!
//! [`DenseApproximate`], [`DenseCountExact`] and [`DenseApproximateBackup`]
//! are the same protocols on enumerated (dense) state spaces, for the
//! count-based engines — see *Dense encodings* below.
//!
//! All protocols are **uniform**: their transition functions do not depend on `n`.
//! They are executed on the probabilistic population model implemented by the
//! [`ppsim`] crate and are composed from the auxiliary protocols of the
//! [`ppproto`] crate (junta process, phase clocks, leader election, load
//! balancing).
//!
//! # Theorems 1 and 2, mapped to types
//!
//! Both headline protocols are instances of one composition pattern
//! (Algorithms 2 and 3, [`ppproto::composition`]):
//!
//! ```text
//!                      every interaction, all the time
//!          ┌────────────────────────────────────────────────────┐
//!          │ SyncState: junta process (Lemma 4) + junta-driven  │ lines 1–4 —
//!          │ phase clock (Lemma 5); meeting a higher junta      │ ppproto::
//!          │ level resets the clock AND the stages below        │ sync_interact
//!          └──────────────────────┬─────────────────────────────┘
//!                                 │ SyncCtx (phases, levels, junta bits, firstTick)
//!       Theorem 1 (Approximate)   │            Theorem 2 (CountExact)
//!   ┌─────────────────────────────▼──┐   ┌─────────────────────────────────┐
//!   │ Stage 1  LeaderElection        │   │ Stage 1  FastLeaderElection     │
//!   │          (Lemma 6, \[18\])       │   │          (Lemma 7, Appendix D)  │
//!   │ Stage 2  Search Protocol       │   │ Stage 2  approximation stage    │
//!   │          (Algorithm 1, Lemma 9)│   │          (Algorithm 4, Lemma 10)│
//!   │ Stage 3  one-way broadcast of  │   │ Stage 3  refinement stage       │
//!   │          the estimate          │   │          (Algorithm 5, Lemma 11)│
//!   └─────────────┬──────────────────┘   └──────────────┬──────────────────┘
//!   output: ⌊log₂ n⌋ or ⌈log₂ n⌉ w.h.p.      output: exactly n w.h.p.
//! ```
//!
//! Concretely: [`Approximate`] = `SyncComposition<`[`ApproximateComponent`]`>`
//! over per-agent state [`ApproximateAgent`] `= SyncedAgent<`[`ApproximateCore`]`>`,
//! where the core is `(LeaderState, SearchState)`; [`CountExact`] =
//! `SyncComposition<`[`CountExactComponent`]`>` over [`CountExactAgent`] `=
//! SyncedAgent<`[`CountExactCore`]`>`, where the core is `(FastLeaderState,
//! ExactStageState)`.  The `SyncedAgent`'s `sync` field holds the `SyncState`
//! of lines 1–4, its `inner` field the core; every engine steps this one
//! layout.
//! The stable variants ([`StableApproximate`], [`StableCountExact`]) reuse the
//! same base and stages 1–2, swapping stage 3 for error detection
//! (Algorithms 6/7, Appendix F) with the Appendix C backups running alongside.
//!
//! # Dense encodings and their state-space accounting
//!
//! [`DenseApproximate`] and [`DenseCountExact`] run the **identical**
//! transition systems on the count-based engines
//! ([`ppsim::BatchedSimulator`], [`ppsim::ShardedBatchedSimulator`]) by
//! interning each `(sync, stages)` struct into a dense index on first
//! appearance ([`ppsim::StateInterner`]).  How the realised index space `q`
//! grows with `n` is exactly the paper's state-space story:
//!
//! * **`DenseApproximate`** — Theorem 1 bounds the protocol by
//!   `O(log n · log log n)` states per constant-size counter window; the
//!   implementation keeps the absolute phase counter (reduced modulo small
//!   constants where the paper does), so a run of `O(log n)` phases interns
//!   `O(log² n · log log n)` distinct states — `1.9·10⁵` over a full
//!   converged `n = 10⁶` execution (measured; experiment E19 tabulates the
//!   census per run).
//! * **`DenseCountExact`** — Theorem 2's `Õ(n)` state bound is real.  Dense
//!   runs at `n ≥ 10⁶` use [`CountExactParams::dense_at_scale`] (the paper's
//!   `γ = 8`: 1-bit election rounds, `O(log n)` live value classes, an
//!   election lengthened to `2(⌈log₂ n⌉ + 16)` phases to keep the
//!   unique-leader guarantee), which makes stages 1–2 — the `O(n log n)`
//!   bulk — batch at any size.  The refinement stage's `Θ(n)` live loads are
//!   irreducible, so at scale it runs per-agent:
//!   [`count_exact_dense_staged`] hands the configuration across engines
//!   exactly (see [`exact::staged`]).  The simpler
//!   [`DenseApproximateBackup`] (Appendix C.1) has a closed-form product
//!   encoding with `q = (K+2)(K+1)` — no interning needed.
//!
//! Equivalence of the dense and sequential forms is pinned by
//! `crates/core/tests/dense_equivalence.rs`: lockstep bisimulation at
//! `n = 10⁴` plus Kolmogorov–Smirnov and mean-ratio checks, the same pattern
//! the engine-equivalence suite uses.
//!
//! # Quick start
//!
//! ```rust,no_run
//! use popcount::{CountExact, CountExactParams};
//! use ppsim::Simulator;
//!
//! # fn main() -> Result<(), ppsim::SimError> {
//! let n = 5_000;
//! let protocol = CountExact::new(CountExactParams::default());
//! let mut sim = Simulator::new(protocol, n, 42)?;
//! let outcome = sim.run_until(
//!     |s| {
//!         s.output_stats().unanimous().cloned().flatten() == Some(n as u64)
//!     },
//!     n as u64,
//!     2_000_000_000,
//! );
//! println!(
//!     "counted {n} agents after {} interactions",
//!     outcome.interactions().unwrap()
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approximate;
pub mod approximate_stable;
pub mod backup;
pub mod baseline;
pub mod error_detection;
pub mod exact;
pub mod params;
pub mod search;

/// FNV-1a over a byte string: the digest the trajectory pins compare
/// snapshot bytes with.
#[cfg(test)]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |digest, &byte| {
        (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

pub use approximate::{
    all_estimated, dense_all_estimated, valid_estimates, Approximate, ApproximateAgent,
    ApproximateComponent, ApproximateCore, DenseApproximate,
};
pub use approximate_stable::{all_estimates_valid, StableApproximate, StableApproximateAgent};
pub use backup::{
    approximate_backup_interact, approximate_backup_tokens, dense_approximate_backup_tokens,
    exact_backup_interact, exact_backup_tokens, ApproximateBackup, ApproximateBackupState,
    DenseApproximateBackup, ExactBackup, ExactBackupState,
};
pub use baseline::{all_output_n, TokenMergingCounter, TokenMergingState};
pub use error_detection::{ErrorDetectionContext, ErrorDetectionState};
pub use exact::approximation_stage::ExactStageState;
pub use exact::count_exact::{
    all_counted, CountExact, CountExactAgent, CountExactComponent, CountExactCore, DenseCountExact,
};
pub use exact::stable::{all_exact, StableCountExact, StableCountExactAgent};
pub use exact::staged::{
    count_exact_dense_staged, count_exact_dense_staged_checkpointed, StagedCheckpoint,
    StagedCountOutcome,
};
pub use params::{ApproximateParams, CountExactParams};
pub use search::{search_interact, SearchContext, SearchState};
