//! **Fig. 4** — PPDW value trend as FPS, big-CPU peak temperature and
//! power scale, on the Lineage 2 Revolution workload.
//!
//! Like the paper's measurement, the trend comes from *gameplay
//! segments of varying intensity* executed under the stock governor:
//! heavy scenes deliver few FPS at high power and temperature (low
//! PPDW), light scenes deliver 60 FPS while the fixed platform overhead
//! dominates (high PPDW). The red *worst-case* points pin every cluster
//! to its maximum frequency while producing almost no frames — maximum
//! power and peak temperature for the least performance.

use mpsoc::perf::FrameDemand;
use mpsoc::{Soc, SocConfig};
use next_core::ppdw::ppdw;
use simkit::report::Table;
use workload::apps;

const AMBIENT_C: f64 = 21.0;

/// Runs `demand` for `warm_s + measure_s` and returns
/// `(fps, power_w, peak_big_temp_c)` over the measurement window.
fn run_point(soc: &mut Soc, demand: &FrameDemand, warm_s: f64, measure_s: f64) -> (f64, f64, f64) {
    let tick = 0.025;
    for _ in 0..(warm_s / tick) as usize {
        soc.tick(tick, demand);
    }
    let mut fps = 0.0;
    let mut pow = 0.0;
    let mut peak_t: f64 = 0.0;
    let n = (measure_s / tick) as usize;
    for _ in 0..n {
        let out = soc.tick(tick, demand);
        fps += out.fps;
        pow += out.power_w;
        peak_t = peak_t.max(soc.state().temp_hot_c);
    }
    (fps / n as f64, pow / n as f64, peak_t)
}

fn gameplay_demand() -> FrameDemand {
    let app = apps::lineage();
    app.phases()
        .iter()
        .find(|p| p.name == "gameplay")
        .expect("lineage has a gameplay phase")
        .demand
}

fn main() {
    let demand = gameplay_demand();
    let mut table = Table::new(
        "fig4: PPDW vs FPS on Lineage 2 Revolution (worst-case points marked *)",
        &["fps", "power_w", "peak_big_c", "ppdw", "kind"],
    );
    let mut points: Vec<(f64, f64, bool)> = Vec::new();

    // Gameplay segments of varying intensity under the stock governor
    // (content difficulty scaled around the nominal gameplay demand).
    for &intensity in &[3.0f64, 2.4, 2.0, 1.6, 1.3, 1.0, 0.8, 0.6] {
        let mut soc = Soc::new(SocConfig::exynos9810().with_ambient(AMBIENT_C));
        let scaled = demand.scaled(intensity);
        let (fps, pow, peak) = run_point(&mut soc, &scaled, 120.0, 60.0);
        let value = ppdw(fps, pow, peak, AMBIENT_C);
        table.push_row(vec![
            format!("{fps:.1}"),
            format!("{pow:.2}"),
            format!("{peak:.1}"),
            format!("{value:.4}"),
            format!("scene x{intensity:.2}"),
        ]);
        points.push((fps, value, false));
    }

    // Worst-case points: everything pinned at maximum frequency while
    // the content is paced to produce almost no frames (splash screens,
    // loading): FPS ≈ {0, 1, 10} at maximum power and temperature.
    for &paced_fps in &[0.0, 1.0, 10.0] {
        let mut soc = Soc::new(SocConfig::exynos9810().with_ambient(AMBIENT_C));
        for id in soc.platform().ids().collect::<Vec<_>>() {
            let dom = soc.dvfs_mut().domain_mut(id);
            dom.pin_level(dom.table().len() - 1);
        }
        // Heavy background burn mimics the loading-screen computation.
        let mut d = demand.with_background(2.2e9, 0.8e9, 0.3e9);
        if paced_fps == 0.0 {
            d.frame_cycles = [0.0; 3];
        } else {
            d = d.with_pacing(paced_fps);
        }
        let (fps, pow, peak) = run_point(&mut soc, &d, 120.0, 60.0);
        let value = ppdw(fps, pow, peak, AMBIENT_C);
        table.push_row(vec![
            format!("{fps:.1}"),
            format!("{pow:.2}"),
            format!("{peak:.1}"),
            format!("{value:.4}"),
            "worst*".to_owned(),
        ]);
        points.push((fps, value, true));
    }

    println!("{}", table.render());
    // Shape check mirroring the figure.
    let frontier_max = points
        .iter()
        .filter(|p| !p.2)
        .map(|p| p.1)
        .fold(0.0f64, f64::max);
    let worst_max = points
        .iter()
        .filter(|p| p.2)
        .map(|p| p.1)
        .fold(0.0f64, f64::max);
    println!("# frontier PPDW rises with FPS up to {frontier_max:.4} (paper: up to 0.5316)");
    println!("# worst-case points stay near zero, max {worst_max:.4} (paper: 0.0039-0.0395)");
}
