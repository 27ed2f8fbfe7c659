//! Domain-wise DVFS control.
//!
//! The controller owns one [`FreqDomain`] per platform DVFS domain and
//! exposes the two interfaces the paper distinguishes:
//!
//! 1. the *policy caps* (`minfreq`/`maxfreq`) that an application-layer
//!    agent such as Next writes — the hardware then "is free to operate
//!    between the minimum allowed frequency and the set maxfreq" (§IV-A),
//! 2. the kernel's utilisation-tracking frequency selection (the
//!    schedutil policy) that picks the operating point *within* those
//!    caps each scheduling period.
//!
//! Governors actuate through [`DvfsController::domain_mut`] and name
//! every frequency by its ladder level: they borrow a domain's
//! [`crate::freq::OppTable`], pick levels, then set caps or pin a level
//! on the [`FreqDomain`]. The setters saturate and clamp, so actuation
//! cannot fail.

use crate::freq::{FreqDomain, KiloHertz, OppTable};
use crate::platform::{DomainId, Platform, MAX_DOMAINS};

/// Default schedutil-style headroom: the kernel targets
/// `next_f = 1.25 · f_cur · util`.
pub const DEFAULT_UTIL_MARGIN: f64 = 1.25;

/// Utilisation at which the stock policy boosts straight to the top of
/// the allowed range. Android's schedutil couples with touch/iowait
/// boosting and top-app util clamps that slam the frequency to the
/// policy maximum whenever a domain stays busy — the "operating
/// frequency remains relatively very high yet generating less FPS"
/// behaviour the paper documents in Fig. 1. The default sits below the
/// `1/margin = 0.8` tracking equilibrium (which ladder quantisation
/// lands anywhere in ≈[0.73, 0.80]), so any domain that stays busy is
/// boosted while genuinely light load is left alone.
pub const DEFAULT_BOOST_THRESHOLD: f64 = 0.72;

/// DVFS state and policy for every domain of a platform.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsController {
    domains: Vec<FreqDomain>,
    util_margin: f64,
    boost_threshold: f64,
}

impl DvfsController {
    /// Creates a controller from the per-domain OPP tables, in platform
    /// order.
    ///
    /// # Panics
    ///
    /// Panics on an empty table list or more than [`MAX_DOMAINS`]
    /// tables.
    #[must_use]
    pub fn new(tables: Vec<OppTable>) -> Self {
        assert!(!tables.is_empty(), "controller needs at least one domain");
        assert!(
            tables.len() <= MAX_DOMAINS,
            "controller supports at most {MAX_DOMAINS} domains"
        );
        DvfsController {
            domains: tables.into_iter().map(FreqDomain::new).collect(),
            util_margin: DEFAULT_UTIL_MARGIN,
            boost_threshold: DEFAULT_BOOST_THRESHOLD,
        }
    }

    /// Controller over a platform's declared domain ladders.
    #[must_use]
    pub fn for_platform(platform: &Platform) -> Self {
        DvfsController::new(platform.domains().iter().map(|d| d.table.clone()).collect())
    }

    /// Number of DVFS domains.
    #[must_use]
    pub fn n_domains(&self) -> usize {
        self.domains.len()
    }

    /// All domain ids in platform order.
    pub fn ids(&self) -> impl Iterator<Item = DomainId> + '_ {
        (0..self.domains.len()).map(DomainId::new)
    }

    /// The frequency domain of one DVFS domain.
    #[must_use]
    pub fn domain(&self, id: DomainId) -> &FreqDomain {
        &self.domains[id.index()]
    }

    /// Mutable access to one DVFS domain.
    pub fn domain_mut(&mut self, id: DomainId) -> &mut FreqDomain {
        &mut self.domains[id.index()]
    }

    /// Current frequency of one domain in kHz.
    #[must_use]
    pub fn current_khz(&self, id: DomainId) -> KiloHertz {
        self.domain(id).current().freq_khz
    }

    /// Restores full frequency ranges on every domain.
    pub fn reset_caps(&mut self) {
        for d in &mut self.domains {
            d.reset_caps();
        }
    }

    /// The schedutil headroom multiplier of the in-kernel
    /// utilisation-tracking selection.
    #[must_use]
    pub fn util_margin(&self) -> f64 {
        self.util_margin
    }

    /// Overrides the schedutil headroom multiplier.
    pub fn set_util_margin(&mut self, margin: f64) {
        self.util_margin = margin.max(1.0);
    }

    /// Boost threshold of the stock policy (see
    /// [`DEFAULT_BOOST_THRESHOLD`]). Values ≥ 1 disable boosting.
    #[must_use]
    pub fn boost_threshold(&self) -> f64 {
        self.boost_threshold
    }

    /// Overrides the boost threshold (≥ 1 disables boosting).
    pub fn set_boost_threshold(&mut self, threshold: f64) {
        self.boost_threshold = threshold.max(0.0);
    }
}

/// The scalar statement of the in-kernel utilisation-tracking policy,
/// kept as the reference the batched kernel's lane-wise selection is
/// tested against.
#[cfg(test)]
impl DvfsController {
    /// Runs one round of utilisation-tracking frequency selection, the
    /// in-kernel policy that operates *within* the caps:
    ///
    /// * a domain whose utilisation reaches the boost threshold is
    ///   slammed to the top of its allowed range (Android touch/iowait
    ///   boosting — the over-provisioning the paper exploits),
    /// * otherwise the target is `margin · util · f_cur`; ramp-up picks
    ///   the slowest OPP at or above the target, while ramp-down is rate
    ///   limited to one OPP per invocation (the stock policy holds
    ///   frequency after bursts),
    /// * everything is clamped to the policy caps.
    ///
    /// `utils` is in platform order and clamped to `[0, 1]`; missing
    /// entries read 0.
    pub(crate) fn select_by_util(&mut self, utils: &[f64]) {
        let margin = self.util_margin;
        let boost_threshold = self.boost_threshold;
        for (i, dom) in self.domains.iter_mut().enumerate() {
            let util = utils.get(i).copied().unwrap_or(0.0).clamp(0.0, 1.0);
            let boost = util >= boost_threshold;
            let cur_level = dom.current_level();
            let level = if boost {
                dom.table().len() - 1
            } else {
                let cur_hz = dom.current().freq_hz();
                let target_hz = margin * util * cur_hz;
                let want = ceil_level_hz(dom.table(), target_hz);
                if want < cur_level {
                    cur_level - 1
                } else {
                    want
                }
            };
            dom.set_level(level);
        }
    }
}

/// Lowest level whose frequency is at least `target_hz`; the top level
/// when every OPP is below the target.
#[cfg(test)]
fn ceil_level_hz(table: &OppTable, target_hz: f64) -> usize {
    table
        .iter()
        .position(|o| o.freq_hz() >= target_hz)
        .unwrap_or(table.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exynos9810() -> DvfsController {
        DvfsController::for_platform(&Platform::exynos9810())
    }

    fn big() -> DomainId {
        DomainId::new(0)
    }
    fn little() -> DomainId {
        DomainId::new(1)
    }
    fn gpu() -> DomainId {
        DomainId::new(2)
    }

    #[test]
    fn controller_starts_at_min_levels() {
        let ctl = exynos9810();
        assert_eq!(ctl.n_domains(), 3);
        assert_eq!(ctl.current_khz(big()), 650_000);
        assert_eq!(ctl.current_khz(little()), 455_000);
        assert_eq!(ctl.current_khz(gpu()), 260_000);
    }

    #[test]
    fn four_domain_controller_from_platform() {
        let ctl = DvfsController::for_platform(&Platform::exynos9820());
        assert_eq!(ctl.n_domains(), 4);
        assert_eq!(ctl.domain(DomainId::new(1)).name(), "mid");
        assert_eq!(ctl.ids().count(), 4);
    }

    #[test]
    fn util_selection_ramps_up_under_load() {
        let mut ctl = exynos9810();
        // Saturated big cluster: repeated selection climbs the ladder to
        // the top.
        for _ in 0..40 {
            ctl.select_by_util(&[1.0, 0.0, 0.0]);
        }
        assert_eq!(ctl.current_khz(big()), 2_704_000);
        assert_eq!(
            ctl.current_khz(little()),
            455_000,
            "idle domain stays at floor"
        );
    }

    #[test]
    fn util_selection_ramps_down_when_idle() {
        let mut ctl = exynos9810();
        for _ in 0..40 {
            ctl.select_by_util(&[1.0, 1.0, 1.0]);
        }
        for _ in 0..60 {
            ctl.select_by_util(&[0.05, 0.05, 0.05]);
        }
        assert_eq!(ctl.current_khz(big()), 650_000);
        assert_eq!(ctl.current_khz(gpu()), 260_000);
    }

    #[test]
    fn util_selection_respects_max_cap() {
        let mut ctl = exynos9810();
        ctl.domain_mut(big()).set_max_level(5);
        for _ in 0..40 {
            ctl.select_by_util(&[1.0, 1.0, 1.0]);
        }
        assert_eq!(ctl.current_khz(big()), 1_170_000);
    }

    #[test]
    fn util_selection_respects_min_cap() {
        let mut ctl = exynos9810();
        ctl.domain_mut(gpu()).set_min_level(3);
        for _ in 0..40 {
            ctl.select_by_util(&[0.0, 0.0, 0.0]);
        }
        assert_eq!(ctl.current_khz(gpu()), 455_000);
    }

    #[test]
    fn pin_level_collapses_caps_in_both_directions() {
        let mut ctl = exynos9810();
        ctl.domain_mut(big()).pin_level(14);
        assert_eq!(ctl.current_khz(big()), 2_314_000);
        // Pin downwards from a high pin.
        ctl.domain_mut(big()).pin_level(2);
        assert_eq!(ctl.current_khz(big()), 858_000);
        for _ in 0..10 {
            ctl.select_by_util(&[1.0, 1.0, 1.0]);
        }
        assert_eq!(
            ctl.current_khz(big()),
            858_000,
            "pinned freq immune to util policy"
        );
    }

    #[test]
    fn reset_caps_unpins() {
        let mut ctl = exynos9810();
        ctl.domain_mut(big()).pin_level(2);
        ctl.reset_caps();
        for _ in 0..40 {
            ctl.select_by_util(&[1.0, 0.0, 0.0]);
        }
        assert_eq!(ctl.current_khz(big()), 2_704_000);
    }

    #[test]
    fn margin_floor_is_one() {
        let mut ctl = exynos9810();
        ctl.set_util_margin(0.2);
        assert_eq!(ctl.util_margin(), 1.0);
    }

    #[test]
    fn short_util_slice_reads_zero_for_missing_domains() {
        let mut ctl = exynos9810();
        for _ in 0..40 {
            ctl.select_by_util(&[1.0]);
        }
        assert_eq!(ctl.current_khz(big()), 2_704_000);
        assert_eq!(ctl.current_khz(gpu()), 260_000);
    }

    #[test]
    fn ceil_level_hz_boundaries() {
        let table = OppTable::exynos9810_gpu();
        assert_eq!(ceil_level_hz(&table, 0.0), 0);
        assert_eq!(ceil_level_hz(&table, 260.0e6), 0);
        assert_eq!(ceil_level_hz(&table, 260.1e6), 1);
        assert_eq!(ceil_level_hz(&table, 1e12), table.len() - 1);
    }
}
