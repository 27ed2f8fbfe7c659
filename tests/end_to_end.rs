//! End-to-end integration tests: the paper's headline claims, asserted
//! on short (CI-friendly) versions of the §V protocol.

use next_mpsoc::governors::{IntQosPm, Schedutil};
use next_mpsoc::next_core::NextConfig;
use next_mpsoc::simkit::experiment::{evaluate_governor, train_next_for_app};
use next_mpsoc::workload::SessionPlan;

const SEED: u64 = 1000;

#[test]
fn trained_next_saves_power_on_facebook() {
    let plan = SessionPlan::single("facebook", 120.0);
    let sched = evaluate_governor(&mut Schedutil::new(), &plan, SEED);
    let out = train_next_for_app("facebook", NextConfig::paper(), 7, 400.0);
    let mut agent = out.agent;
    let next = evaluate_governor(&mut agent, &plan, SEED);
    let saving = next.summary.power_saving_vs(&sched.summary);
    assert!(saving > 5.0, "expected a real saving, got {saving:.1} %");
    assert!(
        next.summary.avg_fps > sched.summary.avg_fps * 0.8,
        "QoS sacrificed: {:.1} vs {:.1} fps",
        next.summary.avg_fps,
        sched.summary.avg_fps
    );
}

#[test]
fn trained_next_cools_the_big_cluster_on_spotify() {
    let plan = SessionPlan::single("spotify", 120.0);
    let sched = evaluate_governor(&mut Schedutil::new(), &plan, SEED);
    let out = train_next_for_app("spotify", NextConfig::paper(), 7, 400.0);
    let mut agent = out.agent;
    let next = evaluate_governor(&mut agent, &plan, SEED);
    assert!(
        next.summary.peak_temp_hot_c <= sched.summary.peak_temp_hot_c + 0.1,
        "next must not run hotter: {:.1} vs {:.1} C",
        next.summary.peak_temp_hot_c,
        sched.summary.peak_temp_hot_c
    );
    assert!(next.summary.avg_power_w < sched.summary.avg_power_w);
}

#[test]
fn intqos_sits_between_schedutil_and_top_pinning_on_a_game() {
    // Int. QoS PM right-sizes the CPU/GPU pair: cheaper than schedutil's
    // boosting on a sustained game, while keeping a playable frame rate.
    let plan = SessionPlan::single("lineage", 180.0);
    let sched = evaluate_governor(&mut Schedutil::new(), &plan, SEED);
    let qos = evaluate_governor(&mut IntQosPm::new(), &plan, SEED);
    assert!(
        qos.summary.avg_power_w < sched.summary.avg_power_w,
        "Int. QoS PM should undercut schedutil: {:.2} vs {:.2} W",
        qos.summary.avg_power_w,
        sched.summary.avg_power_w
    );
    assert!(
        qos.summary.avg_fps > 25.0,
        "unplayable: {:.1} fps",
        qos.summary.avg_fps
    );
}

#[test]
fn fig1_session_shows_intra_app_fps_variation() {
    // The paper's Fig. 1 premise: FPS varies widely within one session
    // while frequencies stay high during Spotify playback.
    let plan = SessionPlan::paper_fig1();
    let result = evaluate_governor(&mut Schedutil::new(), &plan, SEED);
    let resampled = result.outcome.trace.resampled(3.0);
    let fps_min = resampled
        .iter()
        .map(|s| s.fps)
        .fold(f64::INFINITY, f64::min);
    let fps_max = resampled.iter().map(|s| s.fps).fold(0.0f64, f64::max);
    assert!(
        fps_max > 50.0,
        "some 60 fps bursts expected, max {fps_max:.1}"
    );
    assert!(
        fps_min < 10.0,
        "near-zero fps phases expected, min {fps_min:.1}"
    );
    // During the zero-fps tail (Spotify playback) the big cluster must
    // still be clocked well above its floor — the inefficiency Next
    // exploits.
    let quiet: Vec<_> = resampled.iter().filter(|s| s.fps < 5.0).collect();
    assert!(!quiet.is_empty());
    let avg_big_khz: f64 =
        quiet.iter().map(|s| f64::from(s.freq_khz[0])).sum::<f64>() / quiet.len() as f64;
    assert!(
        avg_big_khz > 800_000.0,
        "big cluster should stay clocked during frameless phases: {avg_big_khz:.0} kHz"
    );
}

#[test]
fn evaluation_protocol_is_deterministic() {
    let plan = SessionPlan::single("pubg", 60.0);
    let a = evaluate_governor(&mut Schedutil::new(), &plan, 77);
    let b = evaluate_governor(&mut Schedutil::new(), &plan, 77);
    assert_eq!(a.summary, b.summary);
    let c = evaluate_governor(&mut IntQosPm::new(), &plan, 77);
    let d = evaluate_governor(&mut IntQosPm::new(), &plan, 77);
    assert_eq!(c.summary, d.summary);
}

#[test]
fn next_training_is_deterministic_per_seed() {
    let run = || {
        let out = train_next_for_app("home", NextConfig::paper(), 3, 120.0);
        next_mpsoc::qlearn::encode_table(out.agent.table())
    };
    assert_eq!(run(), run());
}
