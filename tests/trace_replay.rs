//! Record/replay byte-identity and bisect acceptance tests.
//!
//! A recorded day trace carries its own regeneration recipe
//! ([`TraceMeta`]): plan from `(persona, config, seed)`, Q-tables from
//! `(governor, budget, preset)`, ticks from the deterministic engine.
//! `replay_day` must therefore rebuild the **exact bytes** of the
//! original recording — on both platform presets, for a learning
//! governor (`next`) and a baseline — and `bisect` must pinpoint an
//! injected divergence at the precise tick and field.

use next_mpsoc::simkit::day::{replay_day, run_days_traced};
use next_mpsoc::simkit::trace::{bisect, TickTrace, TraceMeta};
use next_mpsoc::simkit::PlatformPreset;
use next_mpsoc::workload::{DayPlan, DayPlanConfig, Persona};

/// A tiny but real day: two pickups over five simulated minutes.
fn tiny_cfg() -> DayPlanConfig {
    DayPlanConfig {
        pickups: 2,
        day_length_s: 300.0,
        session_scale: 0.1,
        min_session_s: 15.0,
    }
}

/// Records one (persona, seed, governor, platform) day cell.
fn record(governor: &str, platform: &str, seed: u64) -> TickTrace {
    let preset = PlatformPreset::by_name(platform).expect("shipped preset");
    let plan = DayPlan::generate(&Persona::socialite(), &tiny_cfg(), seed);
    let cells = run_days_traced(
        &[plan],
        &[governor.to_owned()],
        &preset,
        1.0,
        30.0, // tiny training budget keeps the test fast
        2,
    );
    assert_eq!(cells.len(), 1);
    cells.into_iter().next().expect("one cell").1
}

/// Replays `trace` from its metadata and asserts byte-identity.
fn assert_replays(trace: &TickTrace) {
    let bytes = trace.encode();
    let (_report, replayed) = replay_day(&trace.meta, 2).expect("metadata must replay");
    let replayed_bytes = replayed.encode();
    if replayed_bytes != bytes {
        let report = bisect(trace, &replayed);
        panic!("replay diverged from recording:\n{}", report.render());
    }
}

#[test]
fn next_replays_byte_identical_on_exynos9810() {
    let trace = record("next", "exynos9810", 7);
    assert!(!trace.records.is_empty(), "day must record ticks");
    assert_eq!(trace.meta.n_domains, 3);
    assert!(
        trace.records.iter().any(|r| r.action.is_some()),
        "the next agent must record decisions"
    );
    assert_replays(&trace);
}

#[test]
fn baseline_replays_byte_identical_on_exynos9820() {
    let trace = record("schedutil", "exynos9820", 11);
    assert_eq!(trace.meta.n_domains, 4);
    assert!(
        trace.records.iter().all(|r| r.action.is_none()),
        "baselines expose no decisions"
    );
    assert_replays(&trace);
}

#[test]
fn replay_survives_codec_roundtrip() {
    // The CLI path: the replayed metadata comes from a decoded file,
    // not the in-memory recorder.
    let trace = record("schedutil", "exynos9810", 3);
    let decoded = TickTrace::decode(&trace.encode()).expect("own encoding decodes");
    assert_replays(&decoded);
}

#[test]
fn bisect_pinpoints_injected_divergence() {
    let trace = record("schedutil", "exynos9810", 5);
    let mut perturbed = trace.clone();
    let tick = perturbed.records.len() / 2;
    perturbed.records[tick].power_w += 0.125;
    perturbed.records[tick].freq_level[0] ^= 1;
    let report = bisect(&trace, &perturbed);
    assert!(!report.is_identical());
    let div = report.divergence.as_ref().expect("must diverge");
    assert_eq!(div.tick, tick, "first divergent tick");
    let fields: Vec<&str> = div.fields.iter().map(|d| d.field).collect();
    assert!(fields.contains(&"power_w"), "fields: {fields:?}");
    assert!(fields.contains(&"freq_level"), "fields: {fields:?}");
    // Every tick before the injection is untouched and must not be
    // reported: the rendered diff names exactly one tick.
    assert!(report.render().contains(&format!("tick {tick}")));
}

#[test]
fn replay_rejects_foreign_metadata() {
    let trace = record("schedutil", "exynos9810", 2);
    let mut meta = trace.meta.clone();
    meta.platform = "imaginary-soc".to_owned();
    assert!(replay_day(&meta, 2).is_err(), "unknown platform must fail");
    let mut meta = trace.meta.clone();
    meta.n_domains = 4; // exynos9810 has 3
    assert!(replay_day(&meta, 2).is_err(), "domain mismatch must fail");
    let mut meta = trace.meta.clone();
    meta.tick_s = 0.5;
    assert!(replay_day(&meta, 2).is_err(), "foreign base tick must fail");
}

/// A corrupt or absurd day recipe in a trace header fails cleanly, with
/// an error naming the field: no panic, and no gap loop that never
/// ends.
#[test]
fn replay_rejects_absurd_recipes_naming_the_field() {
    type Mutate = fn(&mut TraceMeta);
    let trace = record("schedutil", "exynos9810", 2);
    let cases: [(&str, Mutate); 11] = [
        ("pickups", |m| m.plan.pickups = 0),
        ("day length", |m| m.plan.day_length_s = f64::NAN),
        ("day length", |m| m.plan.day_length_s = f64::INFINITY),
        ("day length", |m| m.plan.day_length_s = 1e300),
        ("session scale", |m| m.plan.session_scale = f64::NAN),
        ("minimum session", |m| m.plan.min_session_s = f64::NAN),
        ("minimum session", |m| {
            m.plan.min_session_s = 0.0;
            m.plan.session_scale = 0.0;
        }),
        ("minimum session", |m| m.plan.min_session_s = 0.01),
        // Bit 61 of 1.0 flipped: a 7.46e-155 s gap tick.
        ("gap tick", |m| {
            m.gap_tick_s = f64::from_bits(1.0f64.to_bits() ^ (1 << 61));
        }),
        ("training budget", |m| m.train_budget_s = f64::NAN),
        ("battery capacity", |m| m.battery.capacity_mah = f64::NAN),
    ];
    for (field, mutate) in cases {
        let mut meta = trace.meta.clone();
        mutate(&mut meta);
        let err = replay_day(&meta, 2).expect_err(field);
        assert!(err.contains(field), "{field}: {err}");
    }
}
