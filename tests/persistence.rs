//! Q-table persistence across "reboots": train, encode the table as the
//! CLI's `NXQT` table files hold it, decode it into a fresh agent, and
//! verify behaviour is preserved (§IV-B's train-once / reuse-forever
//! lifecycle); and the in-memory per-app store the day runner uses.

use next_mpsoc::next_core::{NextAgent, NextConfig, QTableStore};
use next_mpsoc::qlearn::{decode_table, encode_table, DenseQTable};
use next_mpsoc::simkit::experiment::{evaluate_governor, train_next_for_app};
use next_mpsoc::workload::SessionPlan;

#[test]
fn trained_table_survives_reboot_and_reproduces_behaviour() {
    let out = train_next_for_app("facebook", NextConfig::paper(), 7, 300.0);
    let table = out.agent.into_table();

    // "Reboot": all that survives is the encoded table file.
    let bytes = encode_table(&table);
    let reloaded: DenseQTable = decode_table(&bytes).expect("own encoding decodes");
    assert_eq!(reloaded, table, "codec must round-trip the learned table");

    // Same table + same seed -> identical greedy evaluation.
    let plan = SessionPlan::single("facebook", 60.0);
    let mut agent_a = NextAgent::with_table(NextConfig::paper(), table, false);
    let mut agent_b = NextAgent::with_table(NextConfig::paper(), reloaded, false);
    let a = evaluate_governor(&mut agent_a, &plan, 123);
    let b = evaluate_governor(&mut agent_b, &plan, 123);
    assert_eq!(a.summary, b.summary);
}

#[test]
fn store_keeps_apps_separate() {
    let mut store = QTableStore::in_memory();

    let fb = train_next_for_app("facebook", NextConfig::paper(), 7, 120.0);
    let sp = train_next_for_app("spotify", NextConfig::paper(), 7, 120.0);
    let Ok(()) = store.save("facebook", fb.agent.table());
    let Ok(()) = store.save("spotify", sp.agent.table());

    let fb_loaded = store.load("facebook").expect("facebook stored");
    let sp_loaded = store.load("spotify").expect("spotify stored");
    assert_ne!(fb_loaded, sp_loaded, "per-app tables must differ");
    assert_eq!(&fb_loaded, fb.agent.table());
    assert_eq!(&sp_loaded, sp.agent.table());
}

#[test]
fn continued_training_resumes_from_stored_table() {
    let out = train_next_for_app("home", NextConfig::paper(), 7, 120.0);
    let states_before = out.agent.table().len();
    let visits_before = out.agent.table().total_visits();

    // Resume training from the stored table.
    let mut agent = NextAgent::with_table(NextConfig::paper(), out.agent.into_table(), true);
    assert!(agent.is_training());
    let mut soc = next_mpsoc::mpsoc::Soc::new(next_mpsoc::mpsoc::SocConfig::exynos9810());
    let engine = next_mpsoc::simkit::Engine::new();
    let mut session = next_mpsoc::workload::SessionSim::new(SessionPlan::single("home", 60.0), 11);
    engine.run(&mut soc, &mut agent, &mut session, 60.0);

    assert!(
        agent.table().total_visits() > visits_before,
        "resumed training must learn"
    );
    assert!(agent.table().len() >= states_before);
}
