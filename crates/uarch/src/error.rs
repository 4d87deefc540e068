//! Typed errors for simulator construction and batch execution.
//!
//! The low-level structures (`Cache`, `Tournament`, `Btb`, …) assert on
//! geometry they cannot represent; those asserts are unreachable once a
//! configuration has passed [`crate::CoreConfig::validate`]. Everything
//! reachable from experiment input — a hand-built `CoreConfig`, a core
//! count, a batch point — reports through this type instead of panicking.

use std::fmt;

/// Why a simulator (or batch point) could not be built or run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A multicore was requested with zero cores.
    ZeroCores,
    /// More cores than the 32-bit barrier/directory masks can track.
    TooManyCores {
        /// Requested core count.
        n_cores: usize,
        /// Supported maximum ([`crate::MAX_CORES`]).
        max: usize,
    },
    /// A parameter that must be strictly positive was zero or negative.
    NonPositive {
        /// Which parameter.
        what: &'static str,
    },
    /// A floating-point parameter was NaN or infinite.
    NonFinite {
        /// Which parameter.
        what: &'static str,
    },
    /// A cache's set count is not a power of two (or is zero).
    CacheGeometry {
        /// Which cache (`"il1"`, `"dl1"`, `"l2"`, `"l3"`).
        cache: &'static str,
        /// The offending set count.
        sets: usize,
    },
    /// BTB entries do not divide into ways, or the set count is not a
    /// power of two.
    BtbGeometry {
        /// Total BTB entries.
        entries: usize,
        /// Associativity.
        ways: usize,
    },
    /// Branch-predictor table entries are not a power of two.
    PredictorGeometry {
        /// Requested table entries.
        entries: usize,
    },
    /// A batch deadline expired before this point's group was simulated
    /// (see [`crate::batch::SimBatch::with_deadline`]). The point was
    /// cancelled, not truncated: no partial result exists.
    DeadlineExceeded,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ZeroCores => write!(f, "need at least one core"),
            SimError::TooManyCores { n_cores, max } => write!(
                f,
                "{n_cores} cores exceed the {max}-core limit of the \
                 barrier/directory bitmasks"
            ),
            SimError::NonPositive { what } => {
                write!(f, "{what} must be strictly positive")
            }
            SimError::NonFinite { what } => write!(f, "{what} must be finite"),
            SimError::CacheGeometry { cache, sets } => {
                write!(f, "{cache} cache set count {sets} is not a power of two")
            }
            SimError::BtbGeometry { entries, ways } => write!(
                f,
                "BTB geometry {entries} entries / {ways} ways needs a \
                 power-of-two set count"
            ),
            SimError::PredictorGeometry { entries } => write!(
                f,
                "branch predictor entries {entries} must be a power of two"
            ),
            SimError::DeadlineExceeded => {
                write!(f, "batch deadline expired before the point ran")
            }
        }
    }
}

impl std::error::Error for SimError {}
