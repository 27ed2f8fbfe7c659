//! Classic reference governors: `performance`, `powersave`, `ondemand`.
//!
//! They are not evaluated in the paper but give the test-suite and the
//! ablation benches fixed reference points at the two extremes of the
//! power/performance trade-off, plus the historical load-threshold
//! policy.

use mpsoc::dvfs::DvfsController;
use mpsoc::platform::DomainId;
use mpsoc::soc::SocState;

use crate::Governor;

/// Pins every cluster to its fastest OPP.
#[derive(Debug, Clone, Default)]
pub struct Performance;

impl Performance {
    /// Creates the governor.
    #[must_use]
    pub fn new() -> Self {
        Performance
    }
}

impl Governor for Performance {
    fn name(&self) -> &str {
        "performance"
    }

    fn control(&mut self, _state: &SocState, dvfs: &mut DvfsController) {
        for i in 0..dvfs.n_domains() {
            let dom = dvfs.domain_mut(DomainId::new(i));
            dom.pin_level(dom.table().len() - 1);
        }
    }
}

/// Pins every cluster to its slowest OPP.
#[derive(Debug, Clone, Default)]
pub struct Powersave;

impl Powersave {
    /// Creates the governor.
    #[must_use]
    pub fn new() -> Self {
        Powersave
    }
}

impl Governor for Powersave {
    fn name(&self) -> &str {
        "powersave"
    }

    fn control(&mut self, _state: &SocState, dvfs: &mut DvfsController) {
        for i in 0..dvfs.n_domains() {
            dvfs.domain_mut(DomainId::new(i)).pin_level(0);
        }
    }
}

/// The classic `ondemand` policy: jump to the top OPP when utilisation
/// exceeds the up-threshold, otherwise step down one level per period.
#[derive(Debug, Clone)]
pub struct Ondemand {
    /// Utilisation above which the governor jumps to max (default 0.8).
    pub up_threshold: f64,
}

impl Ondemand {
    /// Creates the governor with the classic 80 % up-threshold.
    #[must_use]
    pub fn new() -> Self {
        Ondemand { up_threshold: 0.8 }
    }
}

impl Default for Ondemand {
    fn default() -> Self {
        Ondemand::new()
    }
}

impl Governor for Ondemand {
    fn name(&self) -> &str {
        "ondemand"
    }

    fn control(&mut self, state: &SocState, dvfs: &mut DvfsController) {
        for i in 0..dvfs.n_domains() {
            let dom = dvfs.domain_mut(DomainId::new(i));
            let level = if state.util[i] > self.up_threshold {
                dom.table().len() - 1
            } else {
                dom.current_level().saturating_sub(1)
            };
            dom.pin_level(level);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc::perf::FrameDemand;
    use mpsoc::soc::{Soc, SocConfig};

    fn big() -> DomainId {
        DomainId::new(0)
    }
    fn gpu() -> DomainId {
        DomainId::new(2)
    }

    fn run<G: Governor>(gov: &mut G, demand: &FrameDemand, seconds: f64) -> (Soc, f64) {
        let mut soc = Soc::new(SocConfig::exynos9810());
        let mut pow = 0.0;
        let ticks = (seconds / 0.025) as usize;
        let gov_every = (gov.period_s() / 0.025).round().max(1.0) as usize;
        for t in 0..ticks {
            if t % gov_every == 0 {
                let s = soc.state();
                gov.control(&s, soc.dvfs_mut());
            }
            pow += soc.tick(0.025, demand).power_w;
        }
        (soc, pow / ticks as f64)
    }

    #[test]
    fn performance_pins_top() {
        let demand = FrameDemand::new(5.0e6, 2.0e6, 6.0e6);
        let (soc, _) = run(&mut Performance::new(), &demand, 1.0);
        assert_eq!(soc.dvfs().current_khz(big()), 2_704_000);
        assert_eq!(soc.dvfs().current_khz(gpu()), 572_000);
    }

    #[test]
    fn powersave_pins_bottom() {
        let demand = FrameDemand::new(25.0e6, 6.0e6, 30.0e6);
        let (soc, _) = run(&mut Powersave::new(), &demand, 1.0);
        assert_eq!(soc.dvfs().current_khz(big()), 650_000);
        assert_eq!(soc.dvfs().current_khz(gpu()), 260_000);
    }

    #[test]
    fn powersave_cheaper_than_performance() {
        let demand = FrameDemand::new(10.0e6, 3.0e6, 9.0e6).with_background(0.3e9, 0.1e9, 0.0);
        let (_, p_hi) = run(&mut Performance::new(), &demand, 10.0);
        let (_, p_lo) = run(&mut Powersave::new(), &demand, 10.0);
        assert!(
            p_lo < p_hi,
            "powersave {p_lo} W must undercut performance {p_hi} W"
        );
    }

    #[test]
    fn ondemand_jumps_under_load_and_decays_when_idle() {
        let mut gov = Ondemand::new();
        let heavy = FrameDemand::new(25.0e6, 8.0e6, 30.0e6).with_background(0.8e9, 0.4e9, 0.1e9);
        let (soc, _) = run(&mut gov, &heavy, 5.0);
        assert!(
            soc.dvfs().current_khz(big()) >= 2_000_000,
            "ondemand should be near top under load"
        );
        let idle = FrameDemand::default();
        let (soc, _) = run(&mut gov, &idle, 10.0);
        assert_eq!(soc.dvfs().current_khz(big()), 650_000);
    }

    #[test]
    fn governor_names() {
        assert_eq!(Performance::new().name(), "performance");
        assert_eq!(Powersave::new().name(), "powersave");
        assert_eq!(Ondemand::new().name(), "ondemand");
    }
}
