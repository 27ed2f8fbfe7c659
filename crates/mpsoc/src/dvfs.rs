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
//! A controller is a device's one DVFS state, like one cpufreq policy
//! per cluster: governors write its caps between ticks, and the tick
//! kernel ([`crate::SocBatch`]) selects, throttles and reads its levels
//! in place.
//!
//! Governors actuate through [`DvfsController::domain_mut`] and name
//! every frequency by its ladder level: they borrow a domain's
//! [`crate::freq::OppTable`], pick levels, then set caps or pin a level
//! on the [`FreqDomain`]. The setters saturate and clamp, so actuation
//! cannot fail.

use crate::freq::{FreqDomain, KiloHertz, Opp, OppTable};
use crate::platform::{DomainId, Platform, MAX_DOMAINS};

/// Schedutil-style headroom: the kernel targets
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

    /// Runs one round of utilisation-tracking frequency selection, the
    /// in-kernel policy that operates *within* the caps:
    ///
    /// * a domain whose utilisation reaches the boost threshold goes to
    ///   the top of its allowed range (Android touch/iowait boosting —
    ///   the over-provisioning the paper exploits),
    /// * otherwise the target is [`DEFAULT_UTIL_MARGIN`]` · util · f_cur`;
    ///   ramp-up picks the slowest OPP at or above the target, while
    ///   ramp-down is rate limited to one OPP per invocation (the stock
    ///   policy holds frequency after bursts),
    /// * [`FreqDomain::set_level`] clamps the choice into the policy
    ///   caps.
    ///
    /// `utils` is in platform order and clamped to `[0, 1]`; missing
    /// entries read 0. `hz` is every domain's OPP ladder in Hz
    /// ([`hz_ladders`]), which a batch builds once and shares among its
    /// lanes.
    pub(crate) fn select_by_util(&mut self, utils: &[f64], hz: &[Vec<f64>]) {
        let boost_threshold = self.boost_threshold;
        for ((i, dom), ladder) in self.domains.iter_mut().enumerate().zip(hz) {
            let util = utils.get(i).copied().unwrap_or(0.0).clamp(0.0, 1.0);
            let top = ladder.len() - 1;
            let cur_level = dom.current_level();
            let level = if util >= boost_threshold {
                top
            } else {
                let target_hz = DEFAULT_UTIL_MARGIN * util * ladder[cur_level];
                // First ladder index at or above the target. The ladder
                // is strictly ascending, so that index equals the number
                // of entries below the target — counted branchlessly
                // (when no entry qualifies the count is the length, and
                // the `min` falls back to the top level; a NaN target
                // counts none, so it wants level 0).
                let below = ladder.iter().map(|&h| usize::from(h < target_hz)).sum();
                let want = usize::min(below, top);
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

/// Every domain's OPP frequencies in Hz, in platform order: the ladder
/// [`DvfsController::select_by_util`] scans, built once per batch
/// instead of converting kHz per probe.
pub(crate) fn hz_ladders(platform: &Platform) -> Vec<Vec<f64>> {
    platform
        .domains()
        .iter()
        .map(|d| d.table.iter().map(Opp::freq_hz).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn exynos9810() -> DvfsController {
        DvfsController::for_platform(&Platform::exynos9810())
    }

    /// One selection round over the Exynos 9810's Hz ladders.
    fn select(ctl: &mut DvfsController, utils: &[f64]) {
        ctl.select_by_util(utils, &hz_ladders(&Platform::exynos9810()));
    }

    /// Lowest level whose frequency is at least `target_hz`; the top
    /// level when every OPP is below the target.
    fn ceil_level_hz(table: &OppTable, target_hz: f64) -> usize {
        table
            .iter()
            .position(|o| o.freq_hz() >= target_hz)
            .unwrap_or(table.len() - 1)
    }

    /// A second, scalar statement of the selection policy for one
    /// domain: the OPP table's own frequencies, searched with
    /// [`ceil_level_hz`], clamped into the caps by hand.
    fn oracle_level(dom: &FreqDomain, util: f64, boost_threshold: f64) -> usize {
        let util = util.clamp(0.0, 1.0);
        let cur_level = dom.current_level();
        let level = if util >= boost_threshold {
            dom.table().len() - 1
        } else {
            let target_hz = DEFAULT_UTIL_MARGIN * util * dom.current().freq_hz();
            let want = ceil_level_hz(dom.table(), target_hz);
            if want < cur_level {
                cur_level - 1
            } else {
                want
            }
        };
        level.clamp(dom.min_cap_level(), dom.max_cap_level())
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
            select(&mut ctl, &[1.0, 0.0, 0.0]);
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
            select(&mut ctl, &[1.0, 1.0, 1.0]);
        }
        for _ in 0..60 {
            select(&mut ctl, &[0.05, 0.05, 0.05]);
        }
        assert_eq!(ctl.current_khz(big()), 650_000);
        assert_eq!(ctl.current_khz(gpu()), 260_000);
    }

    #[test]
    fn util_selection_respects_max_cap() {
        let mut ctl = exynos9810();
        ctl.domain_mut(big()).set_max_level(5);
        for _ in 0..40 {
            select(&mut ctl, &[1.0, 1.0, 1.0]);
        }
        assert_eq!(ctl.current_khz(big()), 1_170_000);
    }

    #[test]
    fn util_selection_respects_min_cap() {
        let mut ctl = exynos9810();
        ctl.domain_mut(gpu()).set_min_level(3);
        for _ in 0..40 {
            select(&mut ctl, &[0.0, 0.0, 0.0]);
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
            select(&mut ctl, &[1.0, 1.0, 1.0]);
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
            select(&mut ctl, &[1.0, 0.0, 0.0]);
        }
        assert_eq!(ctl.current_khz(big()), 2_704_000);
    }

    #[test]
    fn short_util_slice_reads_zero_for_missing_domains() {
        let mut ctl = exynos9810();
        for _ in 0..40 {
            select(&mut ctl, &[1.0]);
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

    proptest! {
        /// On either preset, the selection picks on every domain the
        /// level the scalar statement of the policy picks, and never
        /// leaves the caps — for any utilisation, cap range (its ends
        /// drawn in either order), current level (the throttle's
        /// `force_level` may leave it below the floor) and boost
        /// threshold. Half the draws sit on an edge of the policy: a
        /// utilisation of 0.8 puts the target exactly on the current
        /// OPP (`1.25 · 0.8` rounds to 1) and, against a threshold of
        /// 0.8, exactly on the boost edge; an over-full 1.25 must track
        /// as 1, also against a threshold of 1.25.
        #[test]
        fn selection_matches_the_scalar_policy(
            preset in 0usize..2,
            utils in proptest::collection::vec(
                (0usize..4, -0.25f64..1.25).prop_map(|(k, u)| [0.8, 1.25, u, u][k]),
                4..5,
            ),
            levels in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64), 4..5),
            boost in (0usize..4, 0.0f64..1.5).prop_map(|(k, b)| [0.8, 1.25, b, b][k]),
        ) {
            let platform = if preset == 0 {
                Platform::exynos9810()
            } else {
                Platform::exynos9820()
            };
            let n = platform.n_domains();
            let mut ctl = DvfsController::for_platform(&platform);
            ctl.set_boost_threshold(boost);
            for (d, &(cur, a, b)) in levels.iter().take(n).enumerate() {
                let dom = ctl.domain_mut(DomainId::new(d));
                let len = dom.table().len();
                let (lo, hi) = ((a % len).min(b % len), (a % len).max(b % len));
                dom.set_max_level(hi);
                dom.set_min_level(lo);
                dom.force_level(cur % len);
            }
            let want: Vec<usize> = ctl
                .ids()
                .map(|id| oracle_level(ctl.domain(id), utils[id.index()], ctl.boost_threshold()))
                .collect();
            ctl.select_by_util(&utils[..n], &hz_ladders(&platform));
            for (d, &want) in want.iter().enumerate() {
                let dom = ctl.domain(DomainId::new(d));
                let level = dom.current_level();
                prop_assert_eq!(level, want, "domain {}", d);
                prop_assert!(
                    (dom.min_cap_level()..=dom.max_cap_level()).contains(&level),
                    "domain {} left its caps", d
                );
            }
        }
    }
}
