//! Acceptance tests for the day-scale scenario engine.
//!
//! 1. **Worker-count invariance**: the rendered `day.json` document —
//!    the exact bytes `next-sim day` writes — is identical for any
//!    worker count (the sweep/campaign 1-vs-N guarantee extended to the
//!    day horizon).
//! 2. **Battery-day comparison**: `next` and `schedutil` replay the
//!    identical plan and produce a non-zero battery-drain delta.
//! 3. **Continuity**: the day runs on one device state — pickups start
//!    warm, and screen-off gaps burn idle (not zero) energy.

use next_mpsoc::bench::day::days_to_json;
use next_mpsoc::bench::json::{Json, SCHEMA_VERSION};
use next_mpsoc::simkit::day::run_days;
use next_mpsoc::simkit::PlatformPreset;
use next_mpsoc::workload::{DayPlan, DayPlanConfig, Persona};

fn test_plans() -> Vec<DayPlan> {
    let cfg = DayPlanConfig {
        pickups: 6,
        day_length_s: 900.0,
        session_scale: 0.1,
        min_session_s: 15.0,
    };
    vec![
        DayPlan::generate(&Persona::gamer(), &cfg, 7),
        DayPlan::generate(&Persona::reader(), &cfg, 8),
    ]
}

fn governors() -> Vec<String> {
    vec!["next".to_owned(), "schedutil".to_owned()]
}

#[test]
fn day_json_is_byte_identical_across_worker_counts() {
    let plans = test_plans();
    let preset = PlatformPreset::default();
    let doc = days_to_json(
        &run_days(&plans, &governors(), &preset, 1.0, 30.0, 1),
        "test",
    );
    let one = doc.render();
    let many = days_to_json(
        &run_days(&plans, &governors(), &preset, 1.0, 30.0, 4),
        "test",
    )
    .render();
    assert_eq!(one, many, "day.json must not depend on parallelism");

    // And it is a current-schema document with the promised sections.
    assert_eq!(
        doc.get("schema").and_then(Json::as_u64),
        Some(u64::from(SCHEMA_VERSION))
    );
    let day = doc.get("day").expect("day section");
    let runs = day.get("runs").and_then(Json::as_array).expect("runs");
    assert_eq!(runs.len(), 4, "2 plans x 2 governors");
    for run in runs {
        assert_eq!(run.get("pickups").and_then(Json::as_f64), Some(6.0));
        assert!(run.get("battery_drain_pct").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(run.get("energy_gap_j").and_then(Json::as_f64).unwrap() > 0.0);
    }
}

#[test]
fn governors_produce_a_battery_day_delta_on_the_same_plan() {
    let plans = vec![test_plans().remove(0)];
    let reports = run_days(
        &plans,
        &governors(),
        &PlatformPreset::default(),
        1.0,
        30.0,
        2,
    );
    let next = &reports[0];
    let sched = &reports[1];
    assert_eq!(next.governor, "next");
    assert_eq!(sched.governor, "schedutil");
    assert_eq!(next.plan, sched.plan, "both governors replay the same day");
    assert!(
        (next.battery_drain_pct - sched.battery_drain_pct).abs() > 1e-9,
        "battery-day drain delta must be non-zero: {} vs {}",
        next.battery_drain_pct,
        sched.battery_drain_pct
    );
    // Continuity: later pickups start above ambient on both days.
    for report in &reports {
        for s in &report.sessions[1..] {
            assert!(
                s.start_temp_hot_c > next_mpsoc::mpsoc::DEFAULT_AMBIENT_C,
                "pickup started cold"
            );
        }
    }
}

#[test]
fn day_seed_and_persona_change_the_document() {
    let cfg = DayPlanConfig {
        pickups: 3,
        day_length_s: 400.0,
        session_scale: 0.1,
        min_session_s: 15.0,
    };
    let preset = PlatformPreset::default();
    let govs = vec!["schedutil".to_owned()];
    let render = |plan: DayPlan| {
        days_to_json(&run_days(&[plan], &govs, &preset, 1.0, 30.0, 2), "test").render()
    };
    let a = render(DayPlan::generate(&Persona::gamer(), &cfg, 1));
    let b = render(DayPlan::generate(&Persona::gamer(), &cfg, 2));
    let c = render(DayPlan::generate(&Persona::commuter(), &cfg, 1));
    assert_ne!(a, b, "seed must change the day");
    assert_ne!(a, c, "persona must change the day");
}

#[test]
fn day_runs_on_the_non_paper_platform() {
    let cfg = DayPlanConfig {
        pickups: 3,
        day_length_s: 400.0,
        session_scale: 0.1,
        min_session_s: 15.0,
    };
    let plans = vec![DayPlan::generate(&Persona::socialite(), &cfg, 4)];
    let preset = PlatformPreset::by_name("exynos9820").expect("shipped preset");
    let reports = run_days(&plans, &governors(), &preset, 1.0, 30.0, 2);
    assert_eq!(reports.len(), 2);
    for report in &reports {
        assert_eq!(report.platform, "exynos9820");
        assert!(report.energy_total_j() > 0.0);
        assert_eq!(report.pickup_count(), 3);
    }
    let doc = days_to_json(&reports, "test");
    assert_eq!(
        doc.get("platform").and_then(Json::as_str),
        Some("exynos9820")
    );
}
