//! **Ablation** — reward composition and safety mechanisms.
//!
//! Compares, on PubG (the hardest workload):
//!
//! * the full Next reward (PPDW + target attainment + headroom shaping,
//!   QoS guard on),
//! * pure PPDW (the paper's literal Eq. 4 reward, no target term),
//! * no headroom shaping,
//! * no QoS guard,
//! * no target hysteresis (`target_decay = 0`: the target follows the
//!   window mode down as well as up).

use governors::Schedutil;
use next_core::NextConfig;
use simkit::experiment::{evaluate_governor, train_next_for_app};
use simkit::report::Table;

fn run(label: &str, config: NextConfig, table: &mut Table, sched: &simkit::Summary) {
    let plan = bench::paper_plan("pubg");
    let out = train_next_for_app(
        "pubg",
        config,
        bench::TRAIN_SEED,
        bench::train_budget_s("pubg"),
    );
    let mut agent = out.agent;
    let next = evaluate_governor(&mut agent, &plan, bench::EVAL_SEED);
    table.push_row(vec![
        label.to_owned(),
        format!("{:.2}", next.summary.avg_power_w),
        format!("{:.1}", next.summary.power_saving_vs(sched)),
        format!("{:.1}", next.summary.avg_fps),
        format!("{:.1}", next.summary.peak_temp_hot_c),
    ]);
}

fn main() {
    let plan = bench::paper_plan("pubg");
    let sched = evaluate_governor(&mut Schedutil::new(), &plan, bench::EVAL_SEED);

    let mut table = Table::new(
        "ablation: reward terms and safety mechanisms (pubg)",
        &["variant", "power_w", "saving_%", "avg_fps", "peak_big_c"],
    );
    table.push_row(vec![
        "schedutil".to_owned(),
        format!("{:.2}", sched.summary.avg_power_w),
        "0.0".to_owned(),
        format!("{:.1}", sched.summary.avg_fps),
        format!("{:.1}", sched.summary.peak_temp_hot_c),
    ]);

    run("full", NextConfig::paper(), &mut table, &sched.summary);
    run(
        "pure-ppdw",
        NextConfig::paper().pure_ppdw(),
        &mut table,
        &sched.summary,
    );

    let mut no_headroom = NextConfig::paper();
    no_headroom.headroom_weight = 0.0;
    run("no-headroom", no_headroom, &mut table, &sched.summary);

    let mut no_guard = NextConfig::paper();
    no_guard.qos_guard_s = f64::INFINITY;
    run("no-qos-guard", no_guard, &mut table, &sched.summary);

    let mut no_hysteresis = NextConfig::paper();
    no_hysteresis.target_decay = 0.0;
    run("no-hysteresis", no_hysteresis, &mut table, &sched.summary);

    println!("{}", table.render());
    println!("# expected shape: pure-ppdw and no-qos-guard sacrifice FPS for power;");
    println!("# no-headroom caps less aggressively (smaller saving); the full");
    println!("# configuration balances saving against the user-derived target.");
}
