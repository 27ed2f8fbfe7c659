//! Digests of simulated outputs, and the benchmark's seed derivation.
//!
//! A digest covers decoded values only (summary floats, day reports,
//! merged Q-values and visit counts), never encoded bytes or rendered
//! text: a change of wire format leaves every digest as it was, while
//! any change to what was simulated changes it.

/// Digest of a job's simulated output.
pub type Digest = u64;

/// FNV-1a, 64 bit, over the little-endian bytes of each value fed in.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes());
        self
    }

    /// Feeds a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Feeds a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
        self
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64 finaliser.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of input `index` of stream `stream`, derived from the
/// benchmark seed: every session, plan and campaign seed comes from
/// here.
#[must_use]
pub fn derive_seed(seed: u64, stream: &str, index: u64) -> u64 {
    let tag = Fnv::new().str(stream).finish();
    mix(mix(seed ^ tag).wrapping_add(index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a 64 of the single byte 'a'.
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn floats_hash_by_bits() {
        let a = Fnv::new().f64(0.0).finish();
        let b = Fnv::new().f64(-0.0).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn derived_seeds_depend_on_every_input() {
        let base = derive_seed(1, "grid", 0);
        assert_eq!(base, derive_seed(1, "grid", 0));
        assert_ne!(base, derive_seed(2, "grid", 0));
        assert_ne!(base, derive_seed(1, "day", 0));
        assert_ne!(base, derive_seed(1, "grid", 1));
    }
}
