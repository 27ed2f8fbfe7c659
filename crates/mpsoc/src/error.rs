use std::fmt;

/// Error type for all fallible operations in the `mpsoc` crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A frequency-level index outside the OPP table was requested.
    LevelOutOfRange {
        /// Name of the DVFS domain the request targeted.
        domain: String,
        /// The requested level index.
        level: usize,
        /// Number of levels in the table.
        len: usize,
    },
    /// A configuration value failed validation.
    InvalidConfig(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::LevelOutOfRange { domain, level, len } => {
                write!(
                    f,
                    "level {level} out of range for domain {domain} ({len} levels)"
                )
            }
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_domain_and_value() {
        let err = Error::LevelOutOfRange {
            domain: "big".to_owned(),
            level: 123,
            len: 18,
        };
        let msg = err.to_string();
        assert!(msg.contains("123"));
        assert!(msg.contains("big"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
