//! Federated-fleet integration: several simulated devices train on the
//! same app with different users, the cloud merges their tables, and
//! the merged table drives a working greedy agent (§IV-C end to end).

use next_mpsoc::next_core::{NextAgent, NextConfig};
use next_mpsoc::qlearn::federated::{merge, CloudModel};
use next_mpsoc::simkit::experiment::{evaluate_governor, train_next_for_app};
use next_mpsoc::workload::SessionPlan;

#[test]
fn fleet_merge_produces_a_working_agent() {
    let mut tables = Vec::new();
    for device in 0..3u64 {
        let out = train_next_for_app(
            "facebook",
            NextConfig::paper().with_seed(200 + device),
            200 + device,
            150.0,
        );
        tables.push(out.agent.into_table());
    }
    let refs: Vec<&_> = tables.iter().collect();
    let merged = merge(&refs).unwrap();

    // The union covers at least as many states as any single device.
    // Integration tests of the facade crate only see the workspace
    // members through `next_mpsoc::*`, so path the methods accordingly.
    let max_single = tables
        .iter()
        .map(next_mpsoc::qlearn::DenseQTable::len)
        .max()
        .unwrap();
    assert!(merged.len() >= max_single, "merge must not lose states");
    let visit_sum: u64 = tables
        .iter()
        .map(next_mpsoc::qlearn::DenseQTable::total_visits)
        .sum();
    assert_eq!(merged.total_visits(), visit_sum);

    // The merged table drives greedy inference without issue.
    let mut agent = NextAgent::with_table(NextConfig::paper(), merged, false);
    let plan = SessionPlan::single("facebook", 60.0);
    let result = evaluate_governor(&mut agent, &plan, 4321);
    assert!(result.summary.avg_power_w > 0.5);
    assert!(
        result.summary.avg_fps > 20.0,
        "fleet agent unusable: {:.1} fps",
        result.summary.avg_fps
    );
}

#[test]
fn cloud_model_matches_fig6_shape() {
    let cloud = CloudModel::xeon_e7_8860v3();
    // Paper: 207 s online at 30 bins maps to ~27 s in the cloud
    // (roughly an order of magnitude, plus the 4 s round trip).
    let t = cloud.cloud_time_s(207.0);
    assert!(
        t > 4.0 && t < 207.0 / 4.0,
        "cloud time {t} out of the paper's band"
    );
    // Monotone in online time; overhead-dominated at zero.
    assert!(cloud.cloud_time_s(60.0) < cloud.cloud_time_s(300.0));
    assert_eq!(cloud.cloud_time_s(0.0), 4.0);
}

#[test]
fn merging_identical_tables_is_idempotent_on_values() {
    let out = train_next_for_app("home", NextConfig::paper(), 9, 120.0);
    let table = out.agent.into_table();
    let merged = merge(&[&table, &table]).unwrap();
    for state in table.state_keys() {
        for action in 0..9 {
            let a = table.q(state, action);
            let b = merged.q(state, action);
            assert!(
                (a - b).abs() < 1e-12,
                "value changed by self-merge: {a} vs {b}"
            );
        }
    }
}
