//! Contract tests every governor must satisfy: frequencies always come
//! from the OPP tables, policy caps stay ordered, and the platform
//! never reads a nonsensical state, no matter which governor drives it.

use next_mpsoc::governors::{Governor, IntQosPm, Ondemand, Performance, Powersave, Schedutil};
use next_mpsoc::mpsoc::{Soc, SocConfig};
use next_mpsoc::next_core::{NextAgent, NextConfig};
use next_mpsoc::simkit::Engine;
use next_mpsoc::workload::{SessionPlan, SessionSim};

fn governors() -> Vec<Box<dyn Governor>> {
    vec![
        Box::new(Schedutil::new()),
        Box::new(IntQosPm::new()),
        Box::new(Performance::new()),
        Box::new(Powersave::new()),
        Box::new(Ondemand::new()),
        Box::new(NextAgent::new(NextConfig::paper())),
    ]
}

#[test]
fn invariants_hold_under_every_governor() {
    for mut gov in governors() {
        let engine = Engine::new();
        let mut soc = Soc::new(SocConfig::exynos9810());
        let mut session = SessionSim::new(SessionPlan::paper_fig1(), 55);
        let duration = 60.0;
        let ticks = (duration / engine.tick_s()) as usize;
        let control_every = (gov.period_s() / engine.tick_s()).round().max(1.0) as usize;
        for t in 0..ticks {
            let demand = session.advance(engine.tick_s());
            let out = soc.tick(engine.tick_s(), &demand);
            let state = soc.state();
            gov.observe(&state);
            if (t + 1) % control_every == 0 {
                gov.control(&state, soc.dvfs_mut());
            }

            // Frequency comes from the table and respects the caps.
            for id in soc.dvfs().ids().collect::<Vec<_>>() {
                let dom = soc.dvfs().domain(id);
                let cur = dom.current().freq_khz;
                assert!(
                    dom.table().iter().any(|o| o.freq_khz == cur),
                    "{}: {id} frequency {cur} not an OPP",
                    gov.name()
                );
                assert!(dom.min_cap().freq_khz <= dom.max_cap().freq_khz);
                assert!(cur >= dom.min_cap().freq_khz && cur <= dom.max_cap().freq_khz);
            }
            // Physical sanity.
            assert!(
                out.power_w.is_finite() && out.power_w >= 0.0,
                "{}",
                gov.name()
            );
            assert!(
                state.temp_hot_c >= 20.9 && state.temp_hot_c < 150.0,
                "{}",
                gov.name()
            );
            assert!(state.fps >= 0.0 && state.fps <= 61.0, "{}", gov.name());
            for &u in state.util.iter() {
                assert!((0.0..=1.0).contains(&u), "{}", gov.name());
            }
        }
    }
}

#[test]
fn governors_report_distinct_names() {
    let names: Vec<String> = governors().iter().map(|g| g.name().to_owned()).collect();
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(
        unique.len(),
        names.len(),
        "duplicate governor names: {names:?}"
    );
}

#[test]
fn reset_lets_a_governor_be_reused_across_sessions() {
    let engine = Engine::new();
    for mut gov in governors() {
        let mut soc = Soc::new(SocConfig::exynos9810());
        let mut s1 = SessionSim::new(SessionPlan::single("facebook", 20.0), 1);
        engine.run(&mut soc, gov.as_mut(), &mut s1, 20.0);
        gov.reset();
        let mut soc = Soc::new(SocConfig::exynos9810());
        let mut s2 = SessionSim::new(SessionPlan::single("spotify", 20.0), 2);
        let out = engine.run(&mut soc, gov.as_mut(), &mut s2, 20.0);
        assert!(out.trace.summary().avg_power_w > 0.0, "{}", gov.name());
    }
}
