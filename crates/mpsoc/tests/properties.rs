//! Property-based tests of the platform substrates.

use proptest::prelude::*;

use mpsoc::freq::OppTable;
use mpsoc::perf::{self, FrameDemand};
use mpsoc::platform::{DomainId, Platform};
use mpsoc::vsync::VsyncPipeline;
use mpsoc::{Soc, SocConfig};

proptest! {
    /// VSync accounting always balances and never exceeds the refresh
    /// rate, for any frame period and tick slicing.
    #[test]
    fn vsync_accounting_balances(
        period_ms in 1.0..200.0f64,
        tick_ms in 1.0..100.0f64,
        ticks in 1usize..200,
    ) {
        let mut pipe = VsyncPipeline::new(60.0);
        let mut presented = 0u64;
        let mut vsyncs = 0u64;
        for _ in 0..ticks {
            let out = pipe.tick(tick_ms / 1e3, Some(period_ms / 1e3));
            prop_assert_eq!(out.presented + out.repeated, out.vsyncs);
            presented += u64::from(out.presented);
            vsyncs += u64::from(out.vsyncs);
        }
        prop_assert!(presented <= vsyncs);
        let duration = tick_ms / 1e3 * ticks as f64;
        // Queue depth can only smooth, not create, frames.
        prop_assert!(presented as f64 <= duration * 60.0 + 3.0);
    }

    /// The execution plan is well-formed for arbitrary demands.
    #[test]
    fn execution_plan_well_formed(
        big in 0.0..1e8f64,
        little in 0.0..1e8f64,
        gpu in 0.0..1e8f64,
        bg_big in 0.0..4e9f64,
        bg_little in 0.0..2e9f64,
        level_big in 0usize..18,
        level_little in 0usize..10,
        level_gpu in 0usize..6,
        fps in 0.0..60.0f64,
    ) {
        let demand = FrameDemand::new(big, little, gpu).with_background(bg_big, bg_little, 0.0);
        let opps = [
            OppTable::exynos9810_big().opp(level_big).unwrap(),
            OppTable::exynos9810_little().opp(level_little).unwrap(),
            OppTable::exynos9810_gpu().opp(level_gpu).unwrap(),
        ];
        let platform = Platform::exynos9810();
        let plan = perf::plan(&demand, &opps, &platform);
        if let Some(p) = plan.frame_period_s {
            prop_assert!(p > 0.0 && p.is_finite());
        }
        for id in platform.ids() {
            let u = plan.utilization(id, fps);
            prop_assert!((0.0..=1.0).contains(&u), "util out of range: {u}");
        }
    }

    /// Power evaluation is finite, non-negative and monotone in util.
    #[test]
    fn power_model_sane(
        level_big in 0usize..18,
        level_little in 0usize..10,
        level_gpu in 0usize..6,
        u in 0.0..1.0f64,
        t in -20.0..120.0f64,
    ) {
        let platform = Platform::exynos9810();
        let levels = [level_big, level_little, level_gpu];
        let total_w = |util: f64| {
            let domains: f64 = platform
                .domains()
                .iter()
                .zip(levels)
                .map(|(d, level)| d.power.total_w(d.table.opp(level).unwrap(), util, t))
                .sum();
            domains + platform.base_power_w()
        };
        let (lo, hi) = (total_w(u * 0.5), total_w(u));
        prop_assert!(lo.is_finite() && lo >= 0.0);
        prop_assert!(hi >= lo - 1e-12);
    }

    /// Cap navigation never leaves the table and caps stay ordered,
    /// under arbitrary sequences of cap movements.
    #[test]
    fn dvfs_caps_always_consistent(moves in proptest::collection::vec(0u8..6, 1..200)) {
        let mut soc = Soc::new(SocConfig::exynos9810());
        for m in moves {
            let id = DomainId::new(usize::from(m % 3));
            if m < 3 {
                soc.dvfs_mut().domain_mut(id).step_max_down();
            } else {
                soc.dvfs_mut().domain_mut(id).step_max_up();
            }
            let dom = soc.dvfs().domain(id);
            prop_assert!(dom.min_cap().freq_khz <= dom.max_cap().freq_khz);
            prop_assert!(dom.table().iter().any(|o| *o == dom.current()));
        }
    }

    /// A full SoC tick never produces non-physical observables, for any
    /// demand mix and tick length.
    #[test]
    fn soc_tick_outputs_physical(
        big in 0.0..5e7f64,
        gpu in 0.0..5e7f64,
        bg in 0.0..3e9f64,
        dt in 0.005..0.5f64,
        ticks in 1usize..100,
    ) {
        let mut soc = Soc::new(SocConfig::exynos9810());
        let demand = FrameDemand::new(big, big / 3.0, gpu).with_background(bg, bg / 2.0, 0.0);
        for _ in 0..ticks {
            let out = soc.tick(dt, &demand);
            prop_assert!(out.power_w.is_finite() && out.power_w > 0.0);
            prop_assert!(out.fps >= 0.0);
            let s = soc.state();
            prop_assert!(s.fps <= 60.0 + 1e-6, "windowed fps {}", s.fps);
            prop_assert!(s.temp_hot_c >= 21.0 - 1e-9 && s.temp_hot_c < 200.0);
        }
    }
}
