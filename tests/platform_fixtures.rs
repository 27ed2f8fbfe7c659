//! Acceptance tests for the platform-generic DVFS refactor.
//!
//! 1. **No behavioural drift on the paper's platform**: the sweep
//!    report produced on `--platform exynos9810` must be byte-identical
//!    to the fixture captured from the pre-refactor tree
//!    (`tests/fixtures/sweep_exynos9810.txt`).
//! 2. **`m` really varies**: the `exynos9820` preset runs end to end
//!    with `Action::count == 12` and a dense Q-table sized to the
//!    4-domain state space.
//! 3. **Mixed-platform campaigns stay put**: a campaign over both
//!    presets renders byte-identically to
//!    `tests/fixtures/campaign_mixed.json`.

use next_mpsoc::bench::campaign::campaign_to_json;
use next_mpsoc::next_core::{Action, NextAgent, StateEncoder};
use next_mpsoc::simkit::campaign::{run_campaign, CampaignConfig};
use next_mpsoc::simkit::experiment::evaluate_governor_on;
use next_mpsoc::simkit::{sweep, PlatformPreset, StandardEvaluator, TrainSpec, Trainer};
use next_mpsoc::workload::SessionPlan;

/// The exact grid the sweep fixture was captured with:
/// `next-sim sweep --apps facebook,spotify --governors schedutil,next
///  --seeds 1000 --duration 30 --train-budget 60`.
#[test]
fn sweep_on_exynos9810_is_byte_identical_to_the_seed_fixture() {
    let fixture = include_str!("fixtures/sweep_exynos9810.txt");
    let apps = vec!["facebook".to_owned(), "spotify".to_owned()];
    let governors = vec!["schedutil".to_owned(), "next".to_owned()];
    let cells = sweep::grid(&apps, &governors, &[1000], Some(30.0));
    let evaluator = StandardEvaluator::prepare_on(&cells, 60.0, 4, PlatformPreset::exynos9810());
    let rows = sweep::run_cells(&cells, 4, |cell| evaluator.eval(cell));
    assert_eq!(
        sweep::report(&rows),
        fixture,
        "exynos9810 sweep output drifted from the pre-refactor fixture"
    );
}

/// The four-domain counterpart of the sweep fixture, pinned before the
/// scalar tick kernel was folded into the batched one:
/// `next-sim sweep --platform exynos9820 --apps facebook,spotify
///  --governors schedutil,intqos,next --seeds 1000 --duration 30
///  --train-budget 60`.
#[test]
fn sweep_on_exynos9820_is_byte_identical_to_the_pinned_fixture() {
    let fixture = include_str!("fixtures/sweep_exynos9820.txt");
    let apps = vec!["facebook".to_owned(), "spotify".to_owned()];
    let governors = vec![
        "schedutil".to_owned(),
        "intqos".to_owned(),
        "next".to_owned(),
    ];
    let cells = sweep::grid(&apps, &governors, &[1000], Some(30.0));
    let evaluator = StandardEvaluator::prepare_on(&cells, 60.0, 4, PlatformPreset::exynos9820());
    let rows = sweep::run_cells(&cells, 4, |cell| evaluator.eval(cell));
    assert_eq!(
        sweep::report(&rows),
        fixture,
        "exynos9820 sweep output drifted from the pinned fixture"
    );
}

/// The exact campaign the JSON fixture was captured with:
/// `next-sim campaign --devices 8 --rounds 2 --quick --seed 7
///  --platform exynos9810,exynos9820`. Eight devices cover all four
/// hardware bins on both presets, and the rounds ledger carries the
/// link model's payload-priced `comm_s`.
#[test]
fn mixed_campaign_is_byte_identical_to_the_pinned_fixture() {
    let fixture = include_str!("fixtures/campaign_mixed.json");
    let config = CampaignConfig::quick(8, 2, 7).with_platforms(&["exynos9810", "exynos9820"]);
    let rendered = format!(
        "{}\n",
        campaign_to_json(&run_campaign(&config, 2), "quick").render()
    );
    assert_eq!(
        rendered, fixture,
        "mixed-platform campaign.json drifted from the pinned fixture"
    );
}

#[test]
fn exynos9820_runs_end_to_end_with_twelve_actions() {
    let preset = PlatformPreset::by_name("exynos9820").expect("shipped preset");
    let platform = &preset.soc.platform;
    assert_eq!(platform.n_domains(), 4);
    assert_eq!(Action::count(platform.n_domains()), 12);
    assert_eq!(platform.action_count(), 12);

    // The agent's dense Q-table is shaped by the 4-domain platform:
    // 12 actions over the 16·12·9·9-level frequency digits times the
    // quantised signals.
    let encoder = StateEncoder::for_platform(platform, preset.next.fps_bins).unwrap();
    let expect_states = 16u64 * 12 * 9 * 9 * 30 * 30 * 4 * 6 * 6;
    assert_eq!(encoder.state_space_size(), expect_states);
    let agent = NextAgent::new(preset.next.clone());
    assert_eq!(agent.table().n_actions(), 12);

    // Train briefly on the 9820 device and evaluate the result — the
    // full loop (platform → soc → governor → encoder → Q-table) works.
    let spec =
        TrainSpec::new("facebook", preset.next.clone(), 5, 60.0).with_soc(preset.soc.clone());
    let out = Trainer::new().train(spec);
    assert!(!out.agent.table().is_empty());
    assert_eq!(out.agent.table().n_actions(), 12);

    let mut agent = out.agent;
    let plan = SessionPlan::single("facebook", 20.0);
    let result = evaluate_governor_on(&mut agent, &plan, 9_001, &preset.soc);
    assert!(result.summary.avg_power_w > 0.5);
    assert!(result.summary.avg_fps > 0.0);
    assert!(result.summary.peak_temp_hot_c > 21.0);
}
