//! The standard protocol registry: every [`DenseProtocol`] in the
//! workspace at parameters small enough for exhaustive verification,
//! type-erased behind a uniform runner so the binary and the CI job can
//! iterate `ppcheck verify --all` without naming concrete types.
//!
//! [`DenseProtocol`]: ppsim::DenseProtocol

use crate::verify::{verify_protocol, verify_with_codec, ProtocolReport, VerifyOptions};
use ppsim::stint::AgentCodec;
use ppsim::DenseProtocol;

/// One protocol under verification: a display name plus a runner that
/// builds the protocol and executes the full battery.
pub struct RegisteredProtocol {
    name: &'static str,
    runner: Box<dyn Fn() -> ProtocolReport + Send + Sync>,
}

impl RegisteredProtocol {
    /// Register a plain dense protocol.
    pub fn new<P, F>(name: &'static str, opts: VerifyOptions, build: F) -> Self
    where
        P: DenseProtocol,
        F: Fn() -> P + Send + Sync + 'static,
    {
        RegisteredProtocol {
            name,
            runner: Box::new(move || verify_protocol(&build(), &opts)),
        }
    }

    /// Register a codec-bearing protocol; the battery additionally checks
    /// `encode ∘ decode` identity and native/δ bisimulation.
    pub fn with_codec<P, F>(name: &'static str, opts: VerifyOptions, build: F) -> Self
    where
        P: AgentCodec,
        F: Fn() -> P + Send + Sync + 'static,
    {
        RegisteredProtocol {
            name,
            runner: Box::new(move || verify_with_codec(&build(), &opts)),
        }
    }

    /// The registry name (what `ppcheck verify <name>` matches).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Run the verification battery.
    pub fn run(&self) -> ProtocolReport {
        (self.runner)()
    }
}

/// Closure populations sized so the multiset enumeration stays well under
/// the default budget for each protocol's state-space size.
fn opts(closure_population: usize) -> VerifyOptions {
    VerifyOptions {
        closure_population,
        ..VerifyOptions::default()
    }
}

/// Interner-backed compositions have unbounded phase counters, so their
/// reachability closure is truncated at a prefix deep enough to exercise
/// the codec and symmetry checks without chasing the counters forever.
fn dynamic_opts() -> VerifyOptions {
    VerifyOptions {
        max_reachable: 600,
        ..VerifyOptions::default()
    }
}

/// All ten registered protocols at their verification parameters.
#[must_use]
pub fn standard_registry() -> Vec<RegisteredProtocol> {
    vec![
        RegisteredProtocol::with_codec("herman-tokens", opts(5), ppproto::HermanTokens::new),
        RegisteredProtocol::with_codec("stochastic-coalescence", opts(4), || {
            ppproto::StochasticCoalescence::new(8)
        }),
        RegisteredProtocol::with_codec("self-stab-ranking", opts(5), || {
            ppproto::SelfStabRanking::new(5)
        }),
        RegisteredProtocol::with_codec("tradeoff-election", opts(5), || {
            ppproto::TradeoffElection::new(5, 3)
        }),
        // The epidemic only moves once a source is informed, so the
        // reachability closure is seeded with the informed state.
        RegisteredProtocol::new(
            "dense-epidemic",
            VerifyOptions {
                seed_states: vec![1],
                ..opts(6)
            },
            || ppproto::DenseEpidemic,
        ),
        RegisteredProtocol::new("dense-junta", opts(4), || {
            ppproto::DenseJunta::with_max_level(4)
        }),
        RegisteredProtocol::new("dense-sync-clock", opts(4), || {
            ppproto::DenseSyncClock::new(4, 3, 3)
        }),
        RegisteredProtocol::with_codec("dense-approximate", dynamic_opts(), || {
            popcount::DenseApproximate::with_capacity(
                popcount::ApproximateParams::default(),
                1 << 20,
            )
        }),
        RegisteredProtocol::with_codec("dense-count-exact", dynamic_opts(), || {
            popcount::DenseCountExact::with_capacity(popcount::CountExactParams::default(), 1 << 22)
        }),
        RegisteredProtocol::with_codec("approximate-backup", opts(3), || {
            popcount::DenseApproximateBackup::with_max_k(6)
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_registry_covers_all_ten_protocols_with_unique_names() {
        let registry = standard_registry();
        assert_eq!(registry.len(), 10);
        let mut names: Vec<_> = registry.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10, "registry names must be unique");
    }
}
