use std::fmt;

/// Error type for all fallible operations in the `mpsoc` crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A configuration value failed validation.
    InvalidConfig(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soc::{Soc, SocConfig};

    #[test]
    fn display_mentions_domain_and_value() {
        let mut config = SocConfig::exynos9810();
        config.thermal.nodes[0].capacitance_j_per_k = -2.5;
        let msg = Soc::try_new(config).expect_err("bad node").to_string();
        assert!(msg.contains("-2.5"), "{msg}");
        assert!(msg.contains("big"), "{msg}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
