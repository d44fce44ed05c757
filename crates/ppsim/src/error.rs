//! Error type of the simulator.

use std::error::Error;
use std::fmt;

/// Errors produced when constructing or driving a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The population must contain at least two agents so that an ordered pair of
    /// distinct agents can be selected by the scheduler.
    PopulationTooSmall {
        /// The offending population size.
        n: usize,
    },
    /// A parameter was outside its valid range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A snapshot failed structural validation: truncated, bad magic, CRC
    /// mismatch, or a payload that does not decode.
    SnapshotCorrupt {
        /// What failed to validate.
        reason: String,
    },
    /// A snapshot was written by an unsupported format version.
    SnapshotVersion {
        /// The version found in the header.
        found: u32,
        /// The one version this build reads (and writes).
        supported: u32,
    },
    /// A structurally valid snapshot does not fit the simulator it is being
    /// restored into (wrong engine, population size, state space, or engine
    /// configuration).
    SnapshotMismatch {
        /// Which invariant the snapshot violated.
        reason: String,
    },
    /// Reading or writing a snapshot file failed.
    SnapshotIo {
        /// The file involved.
        path: String,
        /// The underlying I/O error, rendered to text (the variant stays
        /// `Clone + Eq`).
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PopulationTooSmall { n } => {
                write!(
                    f,
                    "population size {n} is too small, at least 2 agents are required"
                )
            }
            SimError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            SimError::SnapshotCorrupt { reason } => {
                write!(f, "corrupt snapshot: {reason}")
            }
            SimError::SnapshotVersion { found, supported } => {
                write!(
                    f,
                    "unsupported snapshot format version {found} (this build reads only version {supported})"
                )
            }
            SimError::SnapshotMismatch { reason } => {
                write!(f, "snapshot does not fit this simulator: {reason}")
            }
            SimError::SnapshotIo { path, reason } => {
                write!(f, "snapshot I/O on `{path}`: {reason}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_population_too_small() {
        let e = SimError::PopulationTooSmall { n: 1 };
        assert!(e.to_string().contains("population size 1"));
    }

    #[test]
    fn display_invalid_parameter() {
        let e = SimError::InvalidParameter {
            name: "m",
            reason: "must be positive".into(),
        };
        assert!(e.to_string().contains("`m`"));
        assert!(e.to_string().contains("must be positive"));
    }

    #[test]
    fn display_snapshot_variants() {
        let e = SimError::SnapshotCorrupt {
            reason: "truncated header".into(),
        };
        assert!(e.to_string().contains("corrupt snapshot"));
        let e = SimError::SnapshotVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
        assert!(e.to_string().contains("only version 1"));
        let e = SimError::SnapshotMismatch {
            reason: "population 10 != 20".into(),
        };
        assert!(e.to_string().contains("does not fit"));
        let e = SimError::SnapshotIo {
            path: "/tmp/x.ppss".into(),
            reason: "permission denied".into(),
        };
        assert!(e.to_string().contains("/tmp/x.ppss"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
