//! Dense state-space descriptor: dimension cardinalities → flat index.
//!
//! The Next observation is a tuple of small discrete digits (OPP cap
//! levels, quantiser bins). Packing that tuple mixed-radix yields a
//! **compact** key space `0..size` with no holes between adjacent
//! states, which is exactly what the dense-indexed Q-table backend
//! ([`qlearn::DenseQTable`]) wants: nearby observations land in nearby
//! rows, and the whole space has a known size for capacity planning.
//!
//! [`StateSpace`] replaces the ad-hoc packing arithmetic that used to
//! live inside the state encoder: the radices are declared once — one
//! frequency digit per platform DVFS domain plus the quantised signals
//! — and pack/unpack/size all derive from the same declaration.

use qlearn::qtable::StateKey;

use crate::error::CoreError;

/// Descriptor of a discretised state space: one cardinality (radix) per
/// observation dimension, most-significant dimension first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSpace {
    dims: Vec<usize>,
}

impl StateSpace {
    /// Creates a descriptor from per-dimension cardinalities
    /// (most-significant first).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyStateSpace`] for an empty dimension
    /// list, [`CoreError::ZeroCardinality`] if any cardinality is zero,
    /// and [`CoreError::StateSpaceTooLarge`] if the total size
    /// overflows `u64`.
    pub fn new(dims: &[usize]) -> Result<Self, CoreError> {
        if dims.is_empty() {
            return Err(CoreError::EmptyStateSpace);
        }
        if let Some(dim) = dims.iter().position(|&d| d == 0) {
            return Err(CoreError::ZeroCardinality { dim });
        }
        let mut size: u64 = 1;
        for &d in dims {
            size = size
                .checked_mul(d as u64)
                .ok_or(CoreError::StateSpaceTooLarge)?;
        }
        Ok(StateSpace {
            dims: dims.to_vec(),
        })
    }

    /// Number of dimensions.
    #[must_use]
    pub fn n_dims(&self) -> usize {
        self.dims.len()
    }

    /// The per-dimension cardinalities, most-significant first.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of distinct states (the product of the radices).
    /// Every key produced by [`StateSpace::flat_index`] is `< size()`.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.dims.iter().map(|&d| d as u64).product()
    }

    /// Packs one digit per dimension into the dense flat index
    /// (mixed-radix, first digit most significant).
    ///
    /// # Panics
    ///
    /// Panics if `digits.len() != n_dims()` or any digit reaches its
    /// radix.
    #[must_use]
    pub fn flat_index(&self, digits: &[usize]) -> StateKey {
        assert_eq!(
            digits.len(),
            self.dims.len(),
            "digit count must match dimensions"
        );
        let mut key: u64 = 0;
        for (&digit, &radix) in digits.iter().zip(&self.dims) {
            assert!(digit < radix, "digit {digit} exceeds radix {radix}");
            key = key * radix as u64 + digit as u64;
        }
        key
    }

    /// Unpacks a flat index back into one digit per dimension (inverse
    /// of [`StateSpace::flat_index`]).
    ///
    /// # Panics
    ///
    /// Panics if `digits.len() != n_dims()` or `key >= size()`.
    pub fn unpack_into(&self, key: StateKey, digits: &mut [usize]) {
        assert_eq!(
            digits.len(),
            self.dims.len(),
            "digit count must match dimensions"
        );
        assert!(key < self.size(), "key {key} outside the state space");
        let mut rest = key;
        for i in (0..self.dims.len()).rev() {
            let r = self.dims[i] as u64;
            digits[i] = (rest % r) as usize;
            rest /= r;
        }
    }

    /// Unpacks a flat index, allocating the digit vector.
    ///
    /// # Panics
    ///
    /// Panics if `key >= size()`.
    #[must_use]
    pub fn unpack(&self, key: StateKey) -> Vec<usize> {
        let mut digits = vec![0; self.dims.len()];
        self.unpack_into(key, &mut digits);
        digits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_index_is_mixed_radix_msd_first() {
        let space = StateSpace::new(&[3, 4, 5]).unwrap();
        assert_eq!(space.size(), 60);
        assert_eq!(space.flat_index(&[0, 0, 0]), 0);
        assert_eq!(space.flat_index(&[0, 0, 1]), 1);
        assert_eq!(space.flat_index(&[0, 1, 0]), 5);
        assert_eq!(space.flat_index(&[1, 0, 0]), 20);
        assert_eq!(space.flat_index(&[2, 3, 4]), 59);
    }

    #[test]
    fn pack_unpack_roundtrip_covers_the_space() {
        let space = StateSpace::new(&[2, 3, 2]).unwrap();
        let mut seen = std::collections::HashSet::new();
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..2 {
                    let key = space.flat_index(&[a, b, c]);
                    assert!(key < space.size());
                    assert_eq!(space.unpack(key), vec![a, b, c]);
                    seen.insert(key);
                }
            }
        }
        assert_eq!(
            seen.len() as u64,
            space.size(),
            "packing must be a bijection"
        );
    }

    #[test]
    fn unpack_into_avoids_allocation() {
        let space = StateSpace::new(&[7, 11]).unwrap();
        let mut digits = [0usize; 2];
        space.unpack_into(38, &mut digits);
        assert_eq!(space.flat_index(&digits), 38);
    }

    #[test]
    #[should_panic(expected = "exceeds radix")]
    fn digit_at_radix_panics() {
        let _ = StateSpace::new(&[3, 3]).unwrap().flat_index(&[0, 3]);
    }

    #[test]
    #[should_panic(expected = "outside the state space")]
    fn unpack_out_of_range_panics() {
        let _ = StateSpace::new(&[2, 2]).unwrap().unpack(4);
    }

    #[test]
    fn zero_cardinality_is_a_typed_error() {
        assert_eq!(
            StateSpace::new(&[3, 0]),
            Err(CoreError::ZeroCardinality { dim: 1 })
        );
        assert_eq!(StateSpace::new(&[]), Err(CoreError::EmptyStateSpace));
    }

    #[test]
    fn overflowing_space_is_a_typed_error() {
        assert_eq!(
            StateSpace::new(&[usize::MAX, usize::MAX]),
            Err(CoreError::StateSpaceTooLarge)
        );
    }
}
