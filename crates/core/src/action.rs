//! The `3m`-action space of Next (§IV-B).
//!
//! With `m` PE clusters and cluster-wise DVFS there are `3m` actions:
//! frequency up, frequency down, or do nothing, per DVFS domain. On the
//! Exynos 9810 (`m = 3`) that yields the paper's 9 actions; the
//! 9820-class preset (`m = 4`) yields 12. "Setting operating frequency
//! means to set the maxfreq of the respective PE to that operating
//! frequency" — actions move the cap, and the hardware stays free to
//! run anywhere between `minfreq` and the cap.
//!
//! Actions are indexed domain-major (`index = 3·domain + direction`),
//! so for `m = 3` the layout is bit-compatible with the seed's fixed
//! 9-action table.

use mpsoc::dvfs::DvfsController;
use mpsoc::platform::DomainId;

/// Directions per domain (up / down / hold).
pub const DIRECTIONS: usize = 3;

/// Direction of a frequency-cap move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Raise the cap one OPP.
    Up,
    /// Lower the cap one OPP.
    Down,
    /// Leave the cap unchanged.
    Hold,
}

impl Direction {
    /// All directions in index order.
    pub const ALL: [Direction; DIRECTIONS] = [Direction::Up, Direction::Down, Direction::Hold];

    /// Stable index of the direction within [`Direction::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Direction::Up => 0,
            Direction::Down => 1,
            Direction::Hold => 2,
        }
    }
}

/// One Next action: a direction applied to one domain's `maxfreq` cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Action {
    /// DVFS domain whose cap the action moves.
    pub domain: DomainId,
    /// The move.
    pub direction: Direction,
}

impl Action {
    /// Size of the action space for a platform with `n_domains` DVFS
    /// domains: `3m`.
    #[must_use]
    pub fn count(n_domains: usize) -> usize {
        DIRECTIONS * n_domains
    }

    /// The action at table index `idx` of an `n_domains`-domain
    /// platform.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= Action::count(n_domains)`.
    #[must_use]
    pub fn from_index(idx: usize, n_domains: usize) -> Self {
        assert!(
            idx < Action::count(n_domains),
            "action index {idx} out of range for {n_domains} domains"
        );
        Action {
            domain: DomainId::new(idx / DIRECTIONS),
            direction: Direction::ALL[idx % DIRECTIONS],
        }
    }

    /// The table index of this action (domain-major).
    #[must_use]
    pub fn index(self) -> usize {
        self.domain.index() * DIRECTIONS + self.direction.index()
    }

    /// All actions of an `n_domains`-domain platform, in index order.
    pub fn all(n_domains: usize) -> impl Iterator<Item = Action> {
        (0..Action::count(n_domains)).map(move |i| Action::from_index(i, n_domains))
    }

    /// Applies the action to the DVFS controller by stepping the
    /// domain's `maxfreq` cap.
    pub fn apply(self, dvfs: &mut DvfsController) {
        let dom = dvfs.domain_mut(self.domain);
        match self.direction {
            Direction::Up => {
                dom.step_max_up();
            }
            Direction::Down => {
                dom.step_max_down();
            }
            Direction::Hold => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc::platform::Platform;

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
    fn three_domains_give_the_papers_nine_actions() {
        assert_eq!(Action::count(3), 9);
        let mut seen = std::collections::HashSet::new();
        for a in Action::all(3) {
            seen.insert((a.domain, a.direction));
        }
        assert_eq!(seen.len(), 9);
    }

    #[test]
    fn four_domains_give_twelve_actions() {
        assert_eq!(Action::count(4), 12);
        assert_eq!(Action::all(4).count(), 12);
        let last = Action::from_index(11, 4);
        assert_eq!(last.domain.index(), 3);
        assert_eq!(last.direction, Direction::Hold);
    }

    #[test]
    fn index_roundtrip_for_any_m() {
        for m in 1..=6 {
            for i in 0..Action::count(m) {
                assert_eq!(Action::from_index(i, m).index(), i);
            }
        }
    }

    #[test]
    fn seed_compatible_ordering_for_m3() {
        // The seed's fixed table was big(Up,Down,Hold), little(...),
        // gpu(...); the computed indexing must match it exactly.
        let expect = [
            (big(), Direction::Up),
            (big(), Direction::Down),
            (big(), Direction::Hold),
            (little(), Direction::Up),
            (little(), Direction::Down),
            (little(), Direction::Hold),
            (gpu(), Direction::Up),
            (gpu(), Direction::Down),
            (gpu(), Direction::Hold),
        ];
        for (i, &(domain, direction)) in expect.iter().enumerate() {
            assert_eq!(Action::from_index(i, 3), Action { domain, direction });
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let _ = Action::from_index(9, 3);
    }

    #[test]
    fn up_down_move_the_cap() {
        let mut dvfs = DvfsController::for_platform(&Platform::exynos9810());
        let start = dvfs.domain(big()).max_cap().freq_khz;
        Action {
            domain: big(),
            direction: Direction::Down,
        }
        .apply(&mut dvfs);
        let lowered = dvfs.domain(big()).max_cap().freq_khz;
        assert!(lowered < start);
        Action {
            domain: big(),
            direction: Direction::Up,
        }
        .apply(&mut dvfs);
        assert_eq!(dvfs.domain(big()).max_cap().freq_khz, start);
    }

    #[test]
    fn hold_changes_nothing() {
        let mut dvfs = DvfsController::for_platform(&Platform::exynos9810());
        let before: Vec<u32> = dvfs
            .ids()
            .map(|c| dvfs.domain(c).max_cap().freq_khz)
            .collect();
        for c in dvfs.ids().collect::<Vec<_>>() {
            Action {
                domain: c,
                direction: Direction::Hold,
            }
            .apply(&mut dvfs);
        }
        let after: Vec<u32> = dvfs
            .ids()
            .map(|c| dvfs.domain(c).max_cap().freq_khz)
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn actions_only_touch_their_domain() {
        let mut dvfs = DvfsController::for_platform(&Platform::exynos9810());
        Action {
            domain: gpu(),
            direction: Direction::Down,
        }
        .apply(&mut dvfs);
        assert_eq!(dvfs.domain(big()).max_cap().freq_khz, 2_704_000);
        assert_eq!(dvfs.domain(little()).max_cap().freq_khz, 1_794_000);
        assert_eq!(dvfs.domain(gpu()).max_cap().freq_khz, 546_000);
    }

    #[test]
    fn actions_drive_a_four_domain_platform() {
        let mut dvfs = DvfsController::for_platform(&Platform::exynos9820());
        let mid = DomainId::new(1);
        let start = dvfs.domain(mid).max_cap().freq_khz;
        Action::from_index(mid.index() * DIRECTIONS + 1, 4).apply(&mut dvfs); // mid Down
        assert!(dvfs.domain(mid).max_cap().freq_khz < start);
        assert_eq!(
            dvfs.domain(big()).max_cap().freq_khz,
            2_730_000,
            "other domains untouched"
        );
    }

    #[test]
    fn repeated_down_saturates_at_bottom() {
        let mut dvfs = DvfsController::for_platform(&Platform::exynos9810());
        for _ in 0..50 {
            Action {
                domain: big(),
                direction: Direction::Down,
            }
            .apply(&mut dvfs);
        }
        assert_eq!(dvfs.domain(big()).max_cap().freq_khz, 650_000);
    }
}
