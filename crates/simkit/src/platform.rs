//! Named platform presets for the experiment layers.
//!
//! A [`PlatformPreset`] bundles everything the sweep, perf, day and
//! campaign front ends need to run a named platform end to end: the device
//! ([`SocConfig`]) and the matching agent configuration
//! ([`NextConfig`], whose action and state spaces are shaped by the
//! same platform descriptor). The `--platform` CLI flag resolves
//! through [`PlatformPreset::by_name`].

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

    /// Looks a preset up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "exynos9810" => Some(PlatformPreset::exynos9810()),
            "exynos9820" => Some(PlatformPreset::exynos9820()),
            _ => None,
        }
    }

    /// Names of the shipped presets.
    #[must_use]
    pub fn names() -> &'static [&'static str] {
        Platform::preset_names()
    }
}

impl Default for PlatformPreset {
    fn default() -> Self {
        PlatformPreset::exynos9810()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_internally_consistent() {
        for &name in PlatformPreset::names() {
            let p = PlatformPreset::by_name(name).expect("preset exists");
            assert_eq!(p.name, name);
            assert_eq!(p.soc.platform.name(), name);
            assert_eq!(
                p.next.platform.freq_levels(),
                p.soc.platform.freq_levels(),
                "agent and device must describe the same platform"
            );
        }
        assert!(PlatformPreset::by_name("apple-a13").is_none());
    }

    #[test]
    fn exynos9820_preset_has_twelve_actions() {
        let p = PlatformPreset::exynos9820();
        assert_eq!(p.next.platform.action_count(), 12);
        assert_eq!(p.soc.platform.n_domains(), 4);
    }
}
