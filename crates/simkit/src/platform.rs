//! Named platform presets for the experiment layers.
//!
//! A [`PlatformPreset`] bundles everything the sweep, perf, day and
//! campaign front ends need to run a named platform end to end: the device
//! ([`SocConfig`]) and the matching agent configuration
//! ([`NextConfig`], whose action and state spaces are shaped by the
//! same platform descriptor).
//!
//! `PRESETS` is the one registry of shipped platforms: the
//! `--platform` CLI flag, campaigns, replay, the HTML report and the
//! benchmark resolve names through [`PlatformPreset::by_name`], and
//! [`PlatformPreset::names`] lists it. The preset constructors are
//! compiled in and cannot fail; this module's preset test asserts, for
//! every registered preset, each invariant a validating constructor
//! would check.

use mpsoc::platform::Platform;
use mpsoc::soc::SocConfig;
use next_core::NextConfig;

/// A named, ready-to-run platform: device config + agent config.
#[derive(Debug, Clone)]
pub struct PlatformPreset {
    /// Preset name (`"exynos9810"`, `"exynos9820"`).
    pub name: String,
    /// The simulated device.
    pub soc: SocConfig,
    /// The Next agent configuration shaped for the device's platform.
    pub next: NextConfig,
}

impl PlatformPreset {
    /// The paper's Galaxy Note 9 (`m = 3`, 9 actions).
    #[must_use]
    pub fn exynos9810() -> Self {
        PlatformPreset {
            name: "exynos9810".to_owned(),
            soc: SocConfig::exynos9810(),
            next: NextConfig::paper(),
        }
    }

    /// The Galaxy-S10-class tri-cluster preset (`m = 4`, 12 actions).
    #[must_use]
    pub fn exynos9820() -> Self {
        PlatformPreset {
            name: "exynos9820".to_owned(),
            soc: SocConfig::exynos9820(),
            next: NextConfig::paper_on(Platform::exynos9820()),
        }
    }

    /// Looks a preset up by name in `PRESETS`.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        PRESETS
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, build)| build())
    }

    /// Names of the shipped presets, in `PRESETS` order.
    #[must_use]
    pub fn names() -> Vec<&'static str> {
        PRESETS.iter().map(|&(name, _)| name).collect()
    }
}

/// Every shipped platform preset, by name. Adding a SoC means adding
/// its constructor here; nothing else lists presets.
const PRESETS: [(&str, Build); 2] = [
    ("exynos9810", PlatformPreset::exynos9810),
    ("exynos9820", PlatformPreset::exynos9820),
];

/// A preset constructor.
type Build = fn() -> PlatformPreset;

impl Default for PlatformPreset {
    fn default() -> Self {
        PlatformPreset::exynos9810()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc::platform::{DomainId, DomainSpec, MAX_DOMAINS};
    use mpsoc::soc::Soc;

    /// Each invariant a validating `Platform` constructor would check,
    /// over a platform's domains, base power and hot domain: the first
    /// one they break, if any.
    fn platform_fault(
        domains: &[DomainSpec],
        base_power_w: f64,
        hot: DomainId,
    ) -> Result<(), String> {
        if !(1..=MAX_DOMAINS).contains(&domains.len()) {
            return Err(format!("{} domains", domains.len()));
        }
        for (j, d) in domains.iter().enumerate() {
            let at = &d.name;
            if domains[..j].iter().any(|o| o.name == d.name) {
                return Err(format!("{at}: repeated domain name"));
            }
            if !(d.channel_share > 0.0 && d.channel_share.is_finite()) {
                return Err(format!("{at}: channel share {}", d.channel_share));
            }
            let opps: Vec<_> = d.table.iter().collect();
            if opps.is_empty() {
                return Err(format!("{at}: empty ladder"));
            }
            if !opps.windows(2).all(|w| w[0].freq_khz < w[1].freq_khz) {
                return Err(format!("{at}: ladder not strictly ascending"));
            }
            if !opps.iter().all(|o| o.volt_v > 0.0) {
                return Err(format!("{at}: non-positive voltage"));
            }
        }
        if !(base_power_w >= 0.0 && base_power_w.is_finite()) {
            return Err(format!("base power {base_power_w}"));
        }
        if hot.index() >= domains.len() {
            return Err(format!("hot {hot} out of range"));
        }
        Ok(())
    }

    /// The preset test: every preset the registry names satisfies each
    /// invariant a validating constructor would check, which is why the
    /// compiled-in ladders and presets are built without one.
    #[test]
    fn every_registered_preset_is_well_formed() {
        let names = PlatformPreset::names();
        for (i, &name) in names.iter().enumerate() {
            assert!(!names[..i].contains(&name), "registry repeats {name}");
            let preset = PlatformPreset::by_name(name).unwrap();
            let p = &preset.soc.platform;
            if let Err(e) = platform_fault(p.domains(), p.base_power_w(), p.hot_domain()) {
                panic!("{name}: {e}");
            }
            if let Err(e) = Soc::try_new(preset.soc.clone()) {
                panic!("{name}: {e}");
            }
        }
    }

    /// The preset test's checks reject each broken platform a
    /// validating constructor would have refused.
    #[test]
    fn invalid_platforms_rejected() {
        let rejects = |domains: &[DomainSpec], base_power_w: f64, hot: usize, fault: &str| {
            match platform_fault(domains, base_power_w, DomainId::new(hot)) {
                Err(e) => assert!(e.contains(fault), "{e} is not {fault}"),
                Ok(()) => panic!("{fault} accepted"),
            }
        };
        let base = Platform::exynos9810();
        rejects(&[], 0.9, 0, "0 domains");

        let mut dup = base.domains().to_vec();
        dup[1].name = "big".to_owned();
        rejects(&dup, 0.9, 0, "repeated domain name");

        let mut bad_share = base.domains().to_vec();
        bad_share[0].channel_share = 0.0;
        rejects(&bad_share, 0.9, 0, "channel share");

        rejects(base.domains(), 0.9, 5, "out of range");
        rejects(base.domains(), f64::NAN, 0, "base power");
        assert_eq!(
            platform_fault(base.domains(), 0.9, DomainId::new(0)),
            Ok(())
        );
    }

    #[test]
    fn presets_resolve_by_name() {
        for name in PlatformPreset::names() {
            let p = PlatformPreset::by_name(name).expect("preset exists");
            assert_eq!(p.name, name);
            assert_eq!(p.soc.platform.name(), name);
        }
        assert!(PlatformPreset::by_name("apple-a13").is_none());
    }

    #[test]
    fn presets_are_internally_consistent() {
        for (name, build) in PRESETS {
            let p = build();
            assert_eq!(
                p.next.platform.freq_levels(),
                p.soc.platform.freq_levels(),
                "{name}: agent and device must describe the same platform"
            );
        }
    }

    #[test]
    fn exynos9820_preset_has_twelve_actions() {
        let p = PlatformPreset::exynos9820();
        assert_eq!(p.next.platform.action_count(), 12);
        assert_eq!(p.soc.platform.n_domains(), 4);
    }
}
