//! Typed errors for malformed platform descriptors.
//!
//! The state-space machinery used to `assert!` its invariants, which
//! turned a bad [`mpsoc::Platform`] into a process abort. Its
//! constructors return [`CoreError`] instead, and have no panicking
//! twins: tests call them too, e.g.
//! `StateEncoder::for_platform(&Platform::exynos9810(), bins)`.

use std::fmt;

/// Error produced when building Next's state machinery from a platform
/// descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A platform domain declared an empty OPP table (zero frequency
    /// levels), which would give the encoder a zero-cardinality digit.
    EmptyOppTable {
        /// Index of the offending domain in the platform's domain list.
        domain: usize,
    },
    /// The FPS quantiser was configured with zero bins.
    ZeroBins,
    /// A state space was declared with no dimensions at all.
    EmptyStateSpace,
    /// A state-space dimension has zero cardinality.
    ZeroCardinality {
        /// Index of the offending dimension.
        dim: usize,
    },
    /// The product of the dimension cardinalities overflows the `u64`
    /// key space.
    StateSpaceTooLarge,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::EmptyOppTable { domain } => {
                write!(f, "platform domain {domain} has an empty OPP table")
            }
            CoreError::ZeroBins => write!(f, "FPS quantiser needs at least one bin"),
            CoreError::EmptyStateSpace => {
                write!(f, "state space needs at least one dimension")
            }
            CoreError::ZeroCardinality { dim } => {
                write!(f, "state-space dimension {dim} has zero cardinality")
            }
            CoreError::StateSpaceTooLarge => {
                write!(f, "state space size overflows the u64 key space")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        assert!(CoreError::EmptyOppTable { domain: 2 }
            .to_string()
            .contains("domain 2"));
        assert!(CoreError::ZeroCardinality { dim: 5 }
            .to_string()
            .contains("dimension 5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
