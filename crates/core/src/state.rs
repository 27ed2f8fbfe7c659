//! RL state encoding (§IV-B).
//!
//! The observed state of the Next environment consists of the signals
//! the paper lists: one operating-frequency digit per DVFS domain
//! (`big CPUfreq`, `LITTLE CPUfreq`, `GPUfreq` on the Exynos 9810 —
//! however many domains the platform declares in general),
//! `FPS_current`, `Target FPS`, `Power_current`, the hot-spot
//! temperature (`Temperature_big`) and `Temperature_device`.
//! Frequencies are already discrete (OPP levels); the continuous
//! signals are quantised, and the whole tuple is packed into a single
//! mixed-radix [`StateKey`] for the Q-table.

use mpsoc::platform::{Platform, MAX_DOMAINS};
use mpsoc::soc::SocState;
use qlearn::discretize::Quantizer;
use qlearn::qtable::StateKey;

use crate::error::CoreError;
use crate::space::StateSpace;

/// Quantised signals beyond the per-domain frequency digits: current
/// FPS, target FPS, power, hot-spot temperature, device temperature.
const SIGNAL_DIMS: usize = 5;

/// Packs the paper's observation tuple into Q-table state keys.
///
/// The mixed-radix packing itself lives in [`StateSpace`]; the encoder
/// only quantises the continuous signals into digits. Keys are compact
/// (`0..state_space_size()`), but the space is large — 139,968,000
/// states on the Exynos 9810 at the paper's 30 FPS bins, 2,015,539,200
/// on the Exynos 9820 — so the Q-table's hashed row index holds only
/// the states an agent visits. The number of frequency digits — and so
/// the key space — follows the platform's DVFS-domain count.
#[derive(Debug, Clone, PartialEq)]
pub struct StateEncoder {
    space: StateSpace,
    n_domains: usize,
    fps_quant: Quantizer,
    power_quant: Quantizer,
    temp_quant: Quantizer,
}

/// A decoded state, for diagnostics and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedState {
    /// OPP cap level per DVFS domain, in platform order.
    pub freq_level: Vec<usize>,
    /// Quantised current-FPS bin.
    pub fps_bin: usize,
    /// Quantised target-FPS bin.
    pub target_bin: usize,
    /// Quantised power bin.
    pub power_bin: usize,
    /// Quantised hot-spot temperature bin.
    pub temp_hot_bin: usize,
    /// Quantised device temperature bin.
    pub temp_device_bin: usize,
}

impl StateEncoder {
    /// Creates an encoder for the given per-domain OPP table sizes and
    /// FPS quantisation bin count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyOppTable`] if any table size is zero,
    /// [`CoreError::ZeroBins`] if `fps_bins` is zero, and propagates
    /// [`StateSpace::new`] errors for degenerate shapes.
    pub fn new(freq_levels: &[usize], fps_bins: usize) -> Result<Self, CoreError> {
        if let Some(domain) = freq_levels.iter().position(|&n| n == 0) {
            return Err(CoreError::EmptyOppTable { domain });
        }
        if fps_bins == 0 {
            return Err(CoreError::ZeroBins);
        }
        let fps_quant = Quantizer::fps(fps_bins);
        let power_quant = Quantizer::power();
        let temp_quant = Quantizer::temperature();
        let mut dims: Vec<usize> = freq_levels.to_vec();
        dims.extend([
            fps_quant.bins(),
            fps_quant.bins(),
            power_quant.bins(),
            temp_quant.bins(),
            temp_quant.bins(),
        ]);
        let space = StateSpace::new(&dims)?;
        Ok(StateEncoder {
            space,
            n_domains: freq_levels.len(),
            fps_quant,
            power_quant,
            temp_quant,
        })
    }

    /// Encoder for a platform's declared domain ladders.
    ///
    /// # Errors
    ///
    /// Propagates [`StateEncoder::new`] errors.
    pub fn for_platform(platform: &Platform, fps_bins: usize) -> Result<Self, CoreError> {
        StateEncoder::new(&platform.freq_levels(), fps_bins)
    }

    /// Number of DVFS-domain frequency digits in the encoding.
    #[must_use]
    pub fn n_domains(&self) -> usize {
        self.n_domains
    }

    /// The FPS quantiser in use.
    #[must_use]
    pub fn fps_quantizer(&self) -> &Quantizer {
        &self.fps_quant
    }

    /// The dense state-space descriptor behind the encoding.
    #[must_use]
    pub fn space(&self) -> &StateSpace {
        &self.space
    }

    /// Total number of distinct encodable states.
    #[must_use]
    pub fn state_space_size(&self) -> u64 {
        self.space.size()
    }

    /// Encodes an observed SoC state plus the frame-window target FPS.
    ///
    /// The frequency digits are the **`maxfreq` cap levels** — the
    /// operating-frequency settings the agent itself writes. The
    /// instantaneous frequency bounces between OPPs every scheduling
    /// period under the kernel's boost/decay policy, which would turn
    /// the frequency digits into high-entropy noise; the cap is the
    /// stable, Markovian part of the frequency state (§IV-A: "setting
    /// operating frequency means to set the maxfreq").
    ///
    /// # Panics
    ///
    /// Panics if the state's domain count differs from the encoder's or
    /// a cap level exceeds its declared table size.
    #[must_use]
    pub fn encode(&self, state: &SocState, target_fps: f64) -> StateKey {
        assert_eq!(
            state.max_cap_level.len(),
            self.n_domains,
            "state domain count must match the encoder's platform"
        );
        let mut digits = [0usize; MAX_DOMAINS + SIGNAL_DIMS];
        let n = self.n_domains;
        digits[..n].copy_from_slice(&state.max_cap_level);
        digits[n] = self.fps_quant.index(state.fps);
        digits[n + 1] = self.fps_quant.index(target_fps);
        digits[n + 2] = self.power_quant.index(state.power_w);
        digits[n + 3] = self.temp_quant.index(state.temp_hot_c);
        digits[n + 4] = self.temp_quant.index(state.temp_device_c);
        self.space.flat_index(&digits[..n + SIGNAL_DIMS])
    }

    /// Decodes a key back into its components (inverse of
    /// [`StateEncoder::encode`] at bin resolution).
    #[must_use]
    pub fn decode(&self, key: StateKey) -> DecodedState {
        let mut digits = vec![0usize; self.space.n_dims()];
        self.space.unpack_into(key, &mut digits);
        let n = self.n_domains;
        DecodedState {
            freq_level: digits[..n].to_vec(),
            fps_bin: digits[n],
            target_bin: digits[n + 1],
            power_bin: digits[n + 2],
            temp_hot_bin: digits[n + 3],
            temp_device_bin: digits[n + 4],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc::platform::PerDomain;

    fn exynos9810(fps_bins: usize) -> StateEncoder {
        StateEncoder::for_platform(&Platform::exynos9810(), fps_bins).unwrap()
    }

    fn sample_state(fps: f64, power: f64, th: f64, td: f64, levels: &[usize]) -> SocState {
        let n = levels.len();
        SocState {
            time_s: 0.0,
            freq_khz: PerDomain::new(n),
            freq_level: PerDomain::from_slice(levels),
            max_cap_level: PerDomain::from_slice(levels),
            fps,
            power_w: power,
            temp_domain_c: PerDomain::from_fn(n, |_| th),
            temp_hot_c: th,
            temp_device_c: td,
            temp_battery_c: td - 1.0,
            util: PerDomain::from_fn(n, |_| 0.5),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let enc = exynos9810(30);
        let state = sample_state(43.0, 5.5, 61.0, 44.0, &[17, 9, 5]);
        let key = enc.encode(&state, 30.0);
        let dec = enc.decode(key);
        assert_eq!(dec.freq_level, vec![17, 9, 5]);
        assert_eq!(dec.fps_bin, enc.fps_quantizer().index(43.0));
        assert_eq!(dec.target_bin, enc.fps_quantizer().index(30.0));
    }

    #[test]
    fn four_domain_encoder_roundtrips() {
        let platform = Platform::exynos9820();
        let enc = StateEncoder::for_platform(&platform, 30).unwrap();
        assert_eq!(enc.n_domains(), 4);
        let expect = 16u64 * 12 * 9 * 9 * 30 * 30 * 4 * 6 * 6;
        assert_eq!(enc.state_space_size(), expect);
        let state = sample_state(25.0, 4.0, 55.0, 40.0, &[15, 11, 8, 8]);
        let key = enc.encode(&state, 60.0);
        let dec = enc.decode(key);
        assert_eq!(dec.freq_level, vec![15, 11, 8, 8]);
        assert_eq!(dec.target_bin, enc.fps_quantizer().index(60.0));
    }

    #[test]
    fn distinct_observations_distinct_keys() {
        let enc = exynos9810(30);
        let a = enc.encode(&sample_state(60.0, 3.0, 40.0, 35.0, &[0, 0, 0]), 60.0);
        let b = enc.encode(&sample_state(60.0, 3.0, 40.0, 35.0, &[1, 0, 0]), 60.0);
        let c = enc.encode(&sample_state(10.0, 3.0, 40.0, 35.0, &[0, 0, 0]), 60.0);
        let d = enc.encode(&sample_state(60.0, 3.0, 40.0, 35.0, &[0, 0, 0]), 30.0);
        let keys = [a, b, c, d];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} collide");
            }
        }
    }

    #[test]
    fn nearby_values_in_same_bin_share_key() {
        let enc = exynos9810(30);
        let a = enc.encode(&sample_state(30.2, 5.0, 50.0, 40.0, &[4, 4, 2]), 60.0);
        let b = enc.encode(&sample_state(31.0, 5.1, 50.4, 40.3, &[4, 4, 2]), 60.0);
        assert_eq!(
            a, b,
            "quantisation should coalesce near-identical observations"
        );
    }

    #[test]
    fn state_space_size_matches_paper_scale() {
        let enc = exynos9810(30);
        let expect = 18u64 * 10 * 6 * 30 * 30 * 4 * 6 * 6;
        assert_eq!(enc.state_space_size(), expect);
        // Fewer FPS bins shrink the space quadratically (both the
        // current-FPS and target-FPS dimensions).
        let small = exynos9810(10);
        assert_eq!(small.state_space_size(), 18 * 10 * 6 * 10 * 10 * 4 * 6 * 6);
    }

    #[test]
    fn keys_fit_in_u64_headroom() {
        let enc = exynos9810(60);
        assert!(enc.state_space_size() < u64::MAX / 1024);
    }

    #[test]
    fn extreme_observations_clamp_not_panic() {
        let enc = exynos9810(30);
        let state = sample_state(500.0, 100.0, 200.0, -10.0, &[17, 9, 5]);
        let key = enc.encode(&state, 1e9);
        let dec = enc.decode(key);
        assert_eq!(dec.fps_bin, 29);
        assert_eq!(dec.power_bin, 3);
        assert_eq!(dec.temp_hot_bin, 5);
        assert_eq!(dec.temp_device_bin, 0);
    }

    #[test]
    fn malformed_shapes_are_typed_errors() {
        assert_eq!(
            StateEncoder::new(&[18, 0, 6], 30),
            Err(CoreError::EmptyOppTable { domain: 1 })
        );
        assert_eq!(StateEncoder::new(&[18, 10, 6], 0), Err(CoreError::ZeroBins));
        assert!(StateEncoder::new(&[], 30).is_ok_and(|e| e.n_domains() == 0));
    }

    #[test]
    #[should_panic(expected = "exceeds radix")]
    fn out_of_range_level_panics() {
        let enc = exynos9810(30);
        let state = sample_state(30.0, 3.0, 40.0, 35.0, &[18, 0, 0]);
        let _ = enc.encode(&state, 30.0);
    }

    #[test]
    #[should_panic(expected = "must match the encoder's platform")]
    fn mismatched_domain_count_panics() {
        let enc = exynos9810(30);
        let state = sample_state(30.0, 3.0, 40.0, 35.0, &[0, 0, 0, 0]);
        let _ = enc.encode(&state, 30.0);
    }
}
