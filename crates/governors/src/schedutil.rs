//! The stock Android `schedutil` baseline.
//!
//! On the real Note 9 (Android 9, kernel 4.9.59) the only available
//! governor is schedutil, driven by Energy Aware Scheduling: it tracks
//! per-cluster utilisation and selects `f ≈ 1.25 · util · f_cur` every
//! scheduling period. Our [`mpsoc::Soc`] embeds exactly that policy, so
//! the baseline governor's entire job is to keep the policy caps wide
//! open and let the kernel do its thing — mirroring a phone with no
//! user-space agent installed.

use mpsoc::dvfs::DvfsController;
use mpsoc::soc::SocState;

use crate::Governor;

/// The stock-Android baseline governor.
#[derive(Debug, Clone, Default)]
pub struct Schedutil {
    opened: bool,
}

impl Schedutil {
    /// Creates the baseline governor.
    #[must_use]
    pub fn new() -> Self {
        Schedutil::default()
    }
}

impl Governor for Schedutil {
    fn name(&self) -> &str {
        "schedutil"
    }

    fn control(&mut self, _state: &SocState, dvfs: &mut DvfsController) {
        // Open the caps once; afterwards the in-kernel util tracking
        // inside `Soc::tick` performs all frequency selection.
        if !self.opened {
            dvfs.reset_caps();
            self.opened = true;
        }
    }

    fn reset(&mut self) {
        self.opened = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc::perf::FrameDemand;
    use mpsoc::platform::DomainId;
    use mpsoc::soc::{Soc, SocConfig};

    fn big() -> DomainId {
        DomainId::new(0)
    }
    fn gpu() -> DomainId {
        DomainId::new(2)
    }

    #[test]
    fn opens_caps_and_lets_util_tracking_ramp() {
        let mut soc = Soc::new(SocConfig::exynos9810());
        // Pre-constrain, as if a previous agent left caps behind.
        soc.dvfs_mut().domain_mut(big()).set_max_level(3);
        let mut gov = Schedutil::new();
        let heavy = FrameDemand::new(25.0e6, 6.0e6, 30.0e6).with_background(0.5e9, 0.2e9, 0.0);
        for _ in 0..200 {
            let state = soc.state();
            gov.control(&state, soc.dvfs_mut());
            soc.tick(0.025, &heavy);
        }
        // Util tracking settles where utilisation ≈ 1/margin, which on
        // this load is well above the 962 MHz cap the foreign agent
        // left behind — proving the caps were re-opened.
        assert!(
            soc.dvfs().current_khz(big()) > 962_000,
            "schedutil should let the big cluster ramp past the stale cap: {} kHz",
            soc.dvfs().current_khz(big())
        );
        assert_eq!(
            soc.dvfs().domain(big()).max_cap().freq_khz,
            2_704_000,
            "caps must be fully open"
        );
    }

    #[test]
    fn reset_reopens_caps_next_control() {
        let mut soc = Soc::new(SocConfig::exynos9810());
        let mut gov = Schedutil::new();
        gov.control(&soc.state(), soc.dvfs_mut());
        soc.dvfs_mut().domain_mut(gpu()).set_max_level(1);
        // Without reset, the governor leaves foreign caps alone.
        gov.control(&soc.state(), soc.dvfs_mut());
        assert_eq!(soc.dvfs().domain(gpu()).max_cap().freq_khz, 299_000);
        // After reset it re-opens them.
        gov.reset();
        gov.control(&soc.state(), soc.dvfs_mut());
        assert_eq!(soc.dvfs().domain(gpu()).max_cap().freq_khz, 572_000);
    }

    #[test]
    fn name_is_schedutil() {
        assert_eq!(Schedutil::new().name(), "schedutil");
    }
}
