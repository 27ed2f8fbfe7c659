//! Hardware thermal throttling (the IPA/thermal-governor layer).
//!
//! Real Exynos devices clamp domain frequencies when die sensors cross
//! trip points, independently of (and *below*) any software policy. The
//! throttler steps a per-domain thermal clamp down one OPP per control
//! interval while the sensor is above the trip temperature and relaxes
//! it one OPP per interval once the sensor falls below
//! `trip − hysteresis`.
//!
//! The clamp composes with the DVFS policy caps: the effective level is
//! `min(policy level, thermal clamp)`. Software governors (including
//! Next) never see or control the clamp — exactly like on the phone,
//! where the kernel thermal framework overrides userspace.
//!
//! The clamp state lives in [`crate::SocBatch`], one per `domain × lane`;
//! this module holds its configuration and the transition rule.

use crate::platform::Platform;
use crate::{Error, Result};

/// Configuration of the thermal throttler.
#[derive(Debug, Clone, PartialEq)]
pub struct ThrottleConfig {
    /// Whether throttling is active.
    pub enabled: bool,
    /// Trip temperature per domain sensor, °C, in platform order.
    /// Domains beyond the list, and entries of `+inf`, never trip.
    pub trip_c: Vec<f64>,
    /// Hysteresis below the trip before the clamp relaxes, °C (finite
    /// and non-negative).
    pub hysteresis_c: f64,
}

impl ThrottleConfig {
    /// Trip points declared by a platform descriptor (5 °C hysteresis,
    /// the Exynos thermal-framework default).
    #[must_use]
    pub fn for_platform(platform: &Platform) -> Self {
        ThrottleConfig {
            enabled: true,
            trip_c: platform.domains().iter().map(|d| d.trip_c).collect(),
            hysteresis_c: 5.0,
        }
    }

    /// Throttling disabled (useful for controlled experiments).
    #[must_use]
    pub fn disabled() -> Self {
        ThrottleConfig {
            enabled: false,
            trip_c: Vec::new(),
            hysteresis_c: 0.0,
        }
    }

    /// Rejects a NaN trip point and a hysteresis that is NaN, infinite
    /// or negative. An infinite trip point is legal: the domain never
    /// trips.
    pub(crate) fn validate(&self) -> Result<()> {
        if let Some(i) = self.trip_c.iter().position(|t| t.is_nan()) {
            return Err(Error::InvalidConfig(format!(
                "throttle trip_c[{i}] must be a temperature, got NaN"
            )));
        }
        if !(self.hysteresis_c >= 0.0 && self.hysteresis_c.is_finite()) {
            return Err(Error::InvalidConfig(format!(
                "throttle hysteresis_c must be finite and non-negative, got {}",
                self.hysteresis_c
            )));
        }
        Ok(())
    }

    /// Trip temperature of the domain at platform index `domain`, °C
    /// (infinite for domains beyond the list: they never trip).
    pub(crate) fn trip_of(&self, domain: usize) -> f64 {
        self.trip_c.get(domain).copied().unwrap_or(f64::INFINITY)
    }
}

/// One control-interval clamp transition for a single domain: step down
/// one OPP above `trip_c`, relax one OPP below `trip_c − hysteresis_c`
/// (never past `top`), hold inside the hysteresis band.
pub(crate) fn clamp_transition(
    clamp: usize,
    top: usize,
    trip_c: f64,
    hysteresis_c: f64,
    temp_c: f64,
) -> usize {
    if temp_c > trip_c {
        clamp.saturating_sub(1)
    } else if temp_c < trip_c - hysteresis_c {
        (clamp + 1).min(top)
    } else {
        clamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::FrameDemand;
    use crate::platform::DomainId;
    use crate::soc::SocConfig;
    use crate::SocBatch;

    /// Top level of each Exynos 9810 ladder (big, LITTLE, GPU).
    const TOPS: [usize; 3] = [17, 9, 5];

    /// One control interval of every domain's clamp — the kernel's
    /// throttle stage for one lane.
    fn step(config: &ThrottleConfig, clamps: &mut [usize], tops: &[usize], temps_c: &[f64]) {
        for (i, clamp) in clamps.iter_mut().enumerate() {
            *clamp = clamp_transition(
                *clamp,
                tops[i],
                config.trip_of(i),
                config.hysteresis_c,
                temps_c[i],
            );
        }
    }

    /// A one-lane 9810 device under `throttle`, every domain pinned to
    /// its top OPP, after `ticks` ticks of a heavy game.
    fn pinned_heavy_batch(throttle: ThrottleConfig, ticks: usize) -> SocBatch {
        let mut cfg = SocConfig::exynos9810();
        cfg.throttle = throttle;
        let mut batch = SocBatch::replicate(&cfg, 1).unwrap();
        for (i, d) in cfg.platform.domains().iter().enumerate() {
            batch
                .dvfs_mut(0)
                .domain_mut(DomainId::new(i))
                .pin_level(d.table.len() - 1);
        }
        let demand = FrameDemand::new(22.0e6, 6.0e6, 30.0e6).with_background(0.3e9, 0.1e9, 0.0);
        for _ in 0..ticks {
            batch.tick(0.025, &[demand]);
        }
        batch
    }

    #[test]
    fn starts_unclamped() {
        let batch = SocBatch::replicate(&SocConfig::exynos9810(), 2).unwrap();
        assert!(!batch.is_throttling(0));
        assert!(!batch.is_throttling(1));
    }

    #[test]
    fn hot_sensor_steps_clamp_down() {
        let config = ThrottleConfig::for_platform(&Platform::exynos9810());
        let mut clamps = TOPS;
        step(&config, &mut clamps, &TOPS, &[80.0, 30.0, 30.0]);
        assert_eq!(clamps[0], 16);
        assert_eq!(clamps[1], 9, "cool domains untouched");
        for _ in 0..40 {
            step(&config, &mut clamps, &TOPS, &[80.0, 30.0, 30.0]);
        }
        assert_eq!(clamps[0], 0, "clamp saturates at the floor");
    }

    #[test]
    fn hysteresis_gates_recovery() {
        let config = ThrottleConfig::for_platform(&Platform::exynos9810());
        let mut clamps = TOPS;
        for _ in 0..3 {
            step(&config, &mut clamps, &TOPS, &[80.0, 30.0, 30.0]);
        }
        assert_eq!(clamps[0], 14);
        // Inside the hysteresis band: hold.
        step(&config, &mut clamps, &TOPS, &[72.0, 30.0, 30.0]);
        assert_eq!(clamps[0], 14);
        // Below trip − hysteresis: relax one per interval.
        step(&config, &mut clamps, &TOPS, &[69.0, 30.0, 30.0]);
        assert_eq!(clamps[0], 15);
        for _ in 0..10 {
            step(&config, &mut clamps, &TOPS, &[60.0, 30.0, 30.0]);
        }
        assert_eq!(clamps, TOPS);
    }

    #[test]
    fn disabled_config_never_clamps() {
        // Trips far below the die temperature: the clamp engages only
        // when throttling is enabled.
        let trips = |enabled| ThrottleConfig {
            enabled,
            trip_c: vec![40.0; 3],
            hysteresis_c: 3.0,
        };
        let off = pinned_heavy_batch(trips(false), 8_000);
        assert!(off.state(0).temp_hot_c > 45.0);
        assert!(!off.is_throttling(0));
        assert!(pinned_heavy_batch(trips(true), 8_000).is_throttling(0));
    }

    #[test]
    fn gpu_trips_earlier_than_cpu() {
        let config = ThrottleConfig::for_platform(&Platform::exynos9810());
        let mut clamps = TOPS;
        step(&config, &mut clamps, &TOPS, &[73.0, 73.0, 73.0]);
        assert_eq!(clamps[0], 17, "73 C below CPU trip");
        assert_eq!(clamps[2], 4, "73 C above GPU trip");
    }

    #[test]
    fn four_domain_platform_throttles_every_domain() {
        let platform = Platform::exynos9820();
        let config = ThrottleConfig::for_platform(&platform);
        let tops: Vec<usize> = platform.freq_levels().iter().map(|&n| n - 1).collect();
        let mut clamps = tops.clone();
        step(&config, &mut clamps, &tops, &[90.0, 90.0, 90.0, 90.0]);
        for (i, &top) in tops.iter().enumerate() {
            assert_eq!(clamps[i], top - 1, "domain {i}");
        }
    }
}
