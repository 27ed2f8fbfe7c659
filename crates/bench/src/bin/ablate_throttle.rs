//! **Extension** — interaction with hardware thermal throttling.
//!
//! A key practical payoff of the paper's peak-temperature reductions:
//! a governor that runs cooler never hands control to the hardware
//! throttler, so QoS stays under *software* control. This bench runs
//! PubG on a thermally constrained device (low trip points, e.g. a
//! phone in a case in the sun) and reports how much time each governor
//! spends throttled.

use governors::{Governor, IntQosPm, Schedutil};
use mpsoc::throttle::ThrottleConfig;
use mpsoc::{Soc, SocConfig};
use simkit::report::Table;
use simkit::Engine;
use workload::{SessionPlan, SessionSim};

/// A hot environment: 35 °C ambient and trips 10 °C lower than stock.
fn constrained_soc() -> Soc {
    let mut cfg = SocConfig::exynos9810().with_ambient(35.0);
    cfg.throttle = ThrottleConfig {
        enabled: true,
        trip_c: vec![65.0, 65.0, 61.0],
        hysteresis_c: 5.0,
    };
    Soc::new(cfg)
}

fn run(gov: &mut dyn Governor) -> (simkit::Summary, f64) {
    let engine = Engine::new();
    let mut soc = constrained_soc();
    let mut session = SessionSim::new(SessionPlan::single("pubg", 300.0), bench::EVAL_SEED);
    gov.reset();
    let mut trace = simkit::Trace::new();
    let mut throttled_ticks = 0u64;
    let total_ticks = (300.0 / engine.tick_s()) as u64;
    let control_every = (gov.period_s() / engine.tick_s()).round() as u64;
    for t in 0..total_ticks {
        let demand = session.advance(engine.tick_s());
        let out = soc.tick(engine.tick_s(), &demand);
        let state = soc.state();
        gov.observe(&state);
        if (t + 1) % control_every == 0 {
            gov.control(&state, soc.dvfs_mut());
        }
        if soc.batch_mut().is_throttling(0) {
            throttled_ticks += 1;
        }
        trace.push(simkit::Sample {
            time_s: state.time_s,
            fps: out.fps,
            power_w: out.power_w,
            temp_hot_c: state.temp_hot_c,
            temp_device_c: state.temp_device_c,
            freq_khz: state.freq_khz,
        });
    }
    (
        trace.summary(),
        throttled_ticks as f64 / total_ticks as f64 * 100.0,
    )
}

fn main() {
    let mut table = Table::new(
        "thermal throttling under a hot environment (pubg, 35 C ambient, low trips)",
        &[
            "governor",
            "power_w",
            "avg_fps",
            "peak_big_c",
            "throttled_%",
        ],
    );

    let (s, pct) = run(&mut Schedutil::new());
    table.push_row(vec![
        "schedutil".into(),
        format!("{:.2}", s.avg_power_w),
        format!("{:.1}", s.avg_fps),
        format!("{:.1}", s.peak_temp_hot_c),
        format!("{pct:.1}"),
    ]);

    let (s, pct) = run(&mut IntQosPm::new());
    table.push_row(vec![
        "int-qos-pm".into(),
        format!("{:.2}", s.avg_power_w),
        format!("{:.1}", s.avg_fps),
        format!("{:.1}", s.peak_temp_hot_c),
        format!("{pct:.1}"),
    ]);

    let train = bench::trained_next("pubg");
    let mut agent = train.agent;
    let (s, pct) = run(&mut agent);
    table.push_row(vec![
        "next".into(),
        format!("{:.2}", s.avg_power_w),
        format!("{:.1}", s.avg_fps),
        format!("{:.1}", s.peak_temp_hot_c),
        format!("{pct:.1}"),
    ]);

    println!("{}", table.render());
    println!("# a cooler governor spends less of the session at the mercy of the");
    println!("# hardware throttler — the practical payoff of Fig. 8's reductions.");
}
