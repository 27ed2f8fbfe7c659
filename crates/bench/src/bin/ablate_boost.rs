//! **Sensitivity** — how much of the result depends on the stock
//! policy's boost modelling.
//!
//! Our schedutil baseline models Android's touch/top-app boosting: a
//! cluster whose utilisation stays above the boost threshold is slammed
//! to the top of its range (see `DvfsController::boost_threshold`).
//! This sweep reruns the schedutil baseline with boosting disabled,
//! default (0.72) and aggressive (0.60) to show how the baseline's
//! wastefulness — and therefore the headroom any manager can harvest —
//! depends on that single knob.

use governors::Schedutil;
use mpsoc::{Soc, SocConfig};
use simkit::report::Table;
use simkit::Engine;
use workload::{SessionPlan, SessionSim};

fn run_with_boost(app: &str, threshold: f64) -> simkit::Summary {
    let mut soc = Soc::new(SocConfig::exynos9810());
    soc.dvfs_mut().set_boost_threshold(threshold);
    let duration_s = SessionPlan::paper_session_length_s(app);
    let mut session = SessionSim::new(SessionPlan::single(app, duration_s), bench::EVAL_SEED);
    Engine::new()
        .run(&mut soc, &mut Schedutil::new(), &mut session, duration_s)
        .trace
        .summary()
}

fn main() {
    let mut table = Table::new(
        "schedutil baseline vs boost threshold (power W / avg fps)",
        &["app", "no boost", "default 0.72", "aggressive 0.60"],
    );
    for app in ["facebook", "spotify", "pubg", "youtube"] {
        let mut cells = vec![app.to_owned()];
        for &thr in &[2.0f64, 0.72, 0.60] {
            let s = run_with_boost(app, thr);
            cells.push(format!("{:.2} / {:.1}", s.avg_power_w, s.avg_fps));
        }
        table.push_row(cells);
    }
    println!("{}", table.render());
    println!("# the gap between 'no boost' and 'default' is the waste Android's");
    println!("# boosting adds — the headroom the paper's Fig. 1 observation points at");
    println!("# and that Next harvests by capping maxfreq.");
}
