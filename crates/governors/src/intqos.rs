//! Reimplementation of **Int. QoS PM** — Pathania et al., *"Integrated
//! CPU-GPU power management for 3D mobile games"* (DAC 2014) — the
//! state-of-the-art comparator of the paper's §V.
//!
//! The scheme targets 3D games: it averages the observed frame rate over
//! a sliding window and treats that average as the required QoS, builds
//! an online model of the game's CPU and GPU cost, and then picks the
//! *cheapest* CPU/GPU frequency pair whose predicted frame rate meets
//! the target according to a power cost model. Frequencies are pinned
//! (min = max), so unlike Next the hardware cannot idle below the chosen
//! point.
//!
//! The cost model is an online regression per managed domain,
//! `busy_hz = bg + c·fps`, separating constant background cycles `bg`
//! from per-frame cycles `c`; the achievable frame rate at a candidate
//! frequency `f` is then `(f − bg) / c`.
//!
//! The original scheme manages exactly one CPU and one GPU frequency
//! domain. On an N-domain platform the governor therefore *binds* to
//! the domain registry ([`Governor::bind`]): the fastest CPU-role
//! domain becomes the managed CPU, the first GPU-role domain the
//! managed GPU, and every remaining CPU-role domain is treated as a
//! helper cluster and held at a fixed mid-ladder frequency floor so the
//! render pipeline is never starved (on big.LITTLE, the LITTLE cores
//! carry the frame's helper threads).
//!
//! Two limitations the paper calls out are faithfully preserved:
//!
//! 1. the averaged-FPS target lags the user's true, rapidly varying QoS
//!    need (§II), and
//! 2. the method is only applicable to games, so the evaluation
//!    restricts it to Lineage and PubG (§V).

use mpsoc::dvfs::DvfsController;
use mpsoc::freq::Opp;
use mpsoc::platform::{DomainId, DomainRole, Platform};
use mpsoc::power::DomainPowerModel;
use mpsoc::soc::SocState;

use crate::Governor;

/// Samples retained in the FPS averaging window.
const WINDOW_LEN: usize = 8;

/// Safety margin applied to the averaged-FPS target (the original
/// scheme provisions for the windowed average with a small cushion).
const FPS_MARGIN: f64 = 1.05;

/// QoS targets are capped at the display refresh rate.
const MAX_TARGET_FPS: f64 = 60.0;

/// Minimum QoS requirement for a 3D game (the original scheme is handed
/// a fixed QoS constraint; 30 FPS is the customary playability floor).
/// Without a floor the self-referential averaged target can spiral down.
const MIN_TARGET_FPS: f64 = 30.0;

/// Ladder position of the helper-cluster frequency floor, as a fraction
/// of the ladder length. On the Exynos 9810's 10-level LITTLE ladder
/// this lands on level 4 = 949 MHz, the floor the original evaluation
/// used.
const HELPER_FLOOR_FRACTION: f64 = 0.4;

/// Exponentially-smoothed estimate of the amortised cycles one frame
/// costs on a domain (`util · f / fps`).
///
/// Background work is amortised into the per-frame cost at the observed
/// frame rate, which slightly over-provisions at lower targets — the
/// safe direction for a QoS governor. Under closed-loop feedback the
/// delivered-equals-target point is a stable fixed point of this
/// estimator.
#[derive(Debug, Clone, Default)]
struct FrameCost {
    cycles: f64,
}

impl FrameCost {
    fn observe(&mut self, busy_hz: f64, fps: f64) {
        if fps < 1.0 {
            return;
        }
        let sample = busy_hz / fps;
        self.cycles = if self.cycles <= 0.0 {
            sample
        } else {
            0.7 * self.cycles + 0.3 * sample
        };
    }

    fn get(&self) -> Option<f64> {
        (self.cycles > 0.0).then_some(self.cycles)
    }

    fn reset(&mut self) {
        self.cycles = 0.0;
    }
}

/// How the governor maps onto a platform's domain registry.
#[derive(Debug, Clone, PartialEq)]
struct Binding {
    /// Name and ladder shape of the platform the binding was derived
    /// from — enough to make [`Governor::bind`] idempotent without
    /// carrying a whole descriptor copy.
    platform_name: String,
    freq_levels: Vec<usize>,
    /// The managed CPU domain (fastest CPU-role domain).
    cpu: DomainId,
    /// The managed GPU domain (first GPU-role domain; falls back to the
    /// managed CPU on GPU-less platforms).
    gpu: DomainId,
    /// Remaining CPU-role domains with their frequency-floor levels.
    helper_floors: Vec<(DomainId, usize)>,
    power_cpu: DomainPowerModel,
    power_gpu: DomainPowerModel,
}

impl Binding {
    fn for_platform(platform: &Platform) -> Self {
        let cpu = platform
            .ids()
            .filter(|&id| platform.domain(id).role == DomainRole::Cpu)
            .max_by_key(|&id| platform.domain(id).table.max().freq_khz)
            .unwrap_or_else(|| DomainId::new(0));
        let gpu = platform
            .ids()
            .find(|&id| platform.domain(id).role == DomainRole::Gpu)
            .unwrap_or(cpu);
        let helper_floors = platform
            .ids()
            .filter(|&id| id != cpu && platform.domain(id).role == DomainRole::Cpu)
            .map(|id| {
                let levels = platform.domain(id).table.len();
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let level = ((levels as f64 * HELPER_FLOOR_FRACTION) as usize).min(levels - 1);
                (id, level)
            })
            .collect();
        Binding {
            cpu,
            gpu,
            helper_floors,
            power_cpu: platform.domain(cpu).power,
            power_gpu: platform.domain(gpu).power,
            platform_name: platform.name().to_owned(),
            freq_levels: platform.freq_levels(),
        }
    }

    fn matches(&self, platform: &Platform) -> bool {
        self.platform_name == platform.name() && self.freq_levels == platform.freq_levels()
    }
}

/// The Int. QoS PM governor.
#[derive(Debug, Clone)]
pub struct IntQosPm {
    window: Vec<f64>,
    cpu_cost: FrameCost,
    gpu_cost: FrameCost,
    binding: Binding,
}

impl IntQosPm {
    /// Creates the governor, initially bound to the Exynos 9810
    /// registry; [`Governor::bind`] re-binds it to whatever platform it
    /// actually runs on.
    #[must_use]
    pub fn new() -> Self {
        IntQosPm {
            window: Vec::with_capacity(WINDOW_LEN),
            cpu_cost: FrameCost::default(),
            gpu_cost: FrameCost::default(),
            binding: Binding::for_platform(&Platform::exynos9810()),
        }
    }

    /// Current averaged-FPS QoS target (0 until the window has data).
    #[must_use]
    pub fn target_fps(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.window.iter().sum::<f64>() / self.window.len() as f64
        }
    }

    #[allow(clippy::similar_names)]
    fn observe(&mut self, state: &SocState) {
        // Only rendered frames calibrate the cost model: loading
        // screens burn CPU at zero FPS under a different cost relation
        // entirely (the frame-free pathology §II of the Dey paper
        // points out).
        if state.fps < 5.0 {
            return;
        }
        let ci = self.binding.cpu.index();
        let gi = self.binding.gpu.index();
        let f_cpu = f64::from(state.freq_khz[ci]) * 1e3;
        let f_gpu = f64::from(state.freq_khz[gi]) * 1e3;
        self.cpu_cost.observe(state.util[ci] * f_cpu, state.fps);
        self.gpu_cost.observe(state.util[gi] * f_gpu, state.fps);
    }

    /// Predicted achievable FPS for a candidate frequency pair under the
    /// amortised cost model `f / c` per domain.
    #[allow(clippy::similar_names)]
    fn predict_fps(&self, cpu: Opp, gpu: Opp) -> Option<f64> {
        let c_cpu = self.cpu_cost.get()?;
        let c_gpu = self.gpu_cost.get()?;
        let by_cpu = cpu.freq_hz() / c_cpu;
        let by_gpu = gpu.freq_hz() / c_gpu;
        Some(by_cpu.min(by_gpu).min(MAX_TARGET_FPS))
    }

    /// Power cost of a candidate pair under the cost model (full
    /// utilisation at a nominal 50 °C die — only the ordering matters).
    fn cost(&self, cpu: Opp, gpu: Opp) -> f64 {
        self.binding.power_cpu.total_w(cpu, 1.0, 50.0)
            + self.binding.power_gpu.total_w(gpu, 1.0, 50.0)
    }
}

impl Default for IntQosPm {
    fn default() -> Self {
        IntQosPm::new()
    }
}

impl Governor for IntQosPm {
    fn name(&self) -> &str {
        "int-qos-pm"
    }

    /// The original scheme re-evaluates once per epoch (500 ms).
    fn period_s(&self) -> f64 {
        0.5
    }

    fn bind(&mut self, platform: &Platform) {
        if self.binding.matches(platform) {
            return;
        }
        // A different device invalidates the learned cost model.
        self.binding = Binding::for_platform(platform);
        self.window.clear();
        self.cpu_cost.reset();
        self.gpu_cost.reset();
    }

    fn control(&mut self, state: &SocState, dvfs: &mut DvfsController) {
        if self.window.len() == WINDOW_LEN {
            self.window.remove(0);
        }
        self.window.push(state.fps);
        self.observe(state);

        for &(id, floor) in &self.binding.helper_floors {
            dvfs.domain_mut(id).set_min_level(floor);
        }

        let target = (self.target_fps() * FPS_MARGIN).clamp(MIN_TARGET_FPS, MAX_TARGET_FPS);

        // Exhaustive search over the CPU×GPU level pairs (108 candidates
        // on the 9810 — cheap) for the minimum-cost pair meeting the
        // target.
        let cpu_table = dvfs.domain(self.binding.cpu).table();
        let gpu_table = dvfs.domain(self.binding.gpu).table();
        let top = (cpu_table.len() - 1, gpu_table.len() - 1);
        let mut meeting: Option<(f64, usize, usize)> = None;
        let mut fps_star: Option<(f64, f64, usize, usize)> = None; // (pred, cost, …)
        let mut have_model = true;
        for (ci, &cpu) in cpu_table.iter().enumerate() {
            for (gi, &gpu) in gpu_table.iter().enumerate() {
                let Some(pred) = self.predict_fps(cpu, gpu) else {
                    have_model = false;
                    continue;
                };
                let c = self.cost(cpu, gpu);
                if pred >= target && meeting.is_none_or(|(bc, _, _)| c < bc) {
                    meeting = Some((c, ci, gi));
                }
                // Track the cheapest pair within half a frame of the
                // best achievable rate, for the unreachable-target case.
                match fps_star {
                    None => fps_star = Some((pred, c, ci, gi)),
                    Some((fs, fc, _, _)) => {
                        if pred > fs + 0.5 || (pred >= fs - 0.5 && c < fc) {
                            fps_star = Some((pred.max(fs), c, ci, gi));
                        }
                    }
                }
            }
        }
        let (cpu, gpu) = if !have_model {
            // No model yet (game still loading): run at the top so QoS
            // is never sacrificed — the bootstrap behaviour of the
            // original.
            top
        } else if let Some((_, b, g)) = meeting {
            (b, g)
        } else if let Some((_, _, b, g)) = fps_star {
            // Target unreachable: deliver the maximum achievable frame
            // rate at the least cost (over-clocking the non-bottleneck
            // domain buys nothing).
            (b, g)
        } else {
            top
        };
        dvfs.domain_mut(self.binding.cpu).pin_level(cpu);
        dvfs.domain_mut(self.binding.gpu).pin_level(gpu);
    }

    fn reset(&mut self) {
        self.window.clear();
        self.cpu_cost.reset();
        self.gpu_cost.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc::perf::FrameDemand;
    use mpsoc::soc::{Soc, SocConfig};

    fn big() -> DomainId {
        DomainId::new(0)
    }
    fn gpu() -> DomainId {
        DomainId::new(2)
    }

    fn drive(gov: &mut IntQosPm, soc: &mut Soc, demand: &FrameDemand, seconds: f64) -> f64 {
        let ticks = (seconds / 0.025) as usize;
        let gov_every = (gov.period_s() / 0.025).round() as usize;
        let mut pow = 0.0;
        for t in 0..ticks {
            if t % gov_every == 0 {
                let s = soc.state();
                gov.control(&s, soc.dvfs_mut());
            }
            pow += soc.tick(0.025, demand).power_w;
        }
        pow / ticks as f64
    }

    fn game_demand() -> FrameDemand {
        // Lineage-class gameplay.
        FrameDemand::new(12.0e6, 3.2e6, 8.2e6).with_background(0.45e9, 0.2e9, 0.0)
    }

    #[test]
    fn bootstraps_at_top_frequencies() {
        let mut soc = Soc::new(SocConfig::exynos9810());
        let mut gov = IntQosPm::new();
        gov.control(&soc.state(), soc.dvfs_mut());
        assert_eq!(soc.dvfs().current_khz(big()), 2_704_000);
        assert_eq!(soc.dvfs().current_khz(gpu()), 572_000);
    }

    #[test]
    fn binding_picks_fastest_cpu_and_floors_helpers() {
        let b = Binding::for_platform(&Platform::exynos9810());
        assert_eq!(b.cpu, big());
        assert_eq!(b.gpu, gpu());
        assert_eq!(b.helper_floors, vec![(DomainId::new(1), 4)]);
        let little = mpsoc::freq::OppTable::exynos9810_little();
        assert_eq!(little.opp(4).unwrap().freq_khz, 949_000);

        let b = Binding::for_platform(&Platform::exynos9820());
        assert_eq!(b.cpu.index(), 0, "big M4 cluster is the managed CPU");
        assert_eq!(b.gpu.index(), 3);
        assert_eq!(b.helper_floors.len(), 2, "mid and LITTLE are helpers");
    }

    #[test]
    fn rebinding_to_another_platform_resets_the_model() {
        let mut soc = Soc::new(SocConfig::exynos9810());
        let mut gov = IntQosPm::new();
        drive(&mut gov, &mut soc, &game_demand(), 20.0);
        assert!(gov.target_fps() > 0.0);
        gov.bind(&Platform::exynos9820());
        assert_eq!(gov.target_fps(), 0.0, "stale model must be dropped");
        assert!(gov.cpu_cost.get().is_none());
        // Re-binding to the same platform is a no-op.
        let before = gov.binding.clone();
        gov.bind(&Platform::exynos9820());
        assert_eq!(gov.binding, before);
    }

    #[test]
    fn drives_a_four_domain_platform() {
        let mut soc = Soc::new(SocConfig::exynos9820());
        let mut gov = IntQosPm::new();
        gov.bind(soc.platform());
        let p = drive(&mut gov, &mut soc, &game_demand(), 30.0);
        assert!(p > 1.0 && p.is_finite());
        assert!(gov.target_fps() > 25.0, "target fps {}", gov.target_fps());
    }

    #[test]
    fn settles_below_top_on_sustainable_load() {
        let mut soc = Soc::new(SocConfig::exynos9810());
        let mut gov = IntQosPm::new();
        drive(&mut gov, &mut soc, &game_demand(), 60.0);
        let big_khz = soc.dvfs().current_khz(big());
        assert!(
            big_khz < 2_704_000,
            "should back off from the top once the model converges: {big_khz}"
        );
        assert!(gov.target_fps() > 25.0, "target fps {}", gov.target_fps());
    }

    #[test]
    fn saves_power_versus_performance_pinning() {
        let mut soc_qos = Soc::new(SocConfig::exynos9810());
        let mut gov = IntQosPm::new();
        let p_qos = drive(&mut gov, &mut soc_qos, &game_demand(), 60.0);

        let mut soc_perf = Soc::new(SocConfig::exynos9810());
        let mut perf = crate::Performance::new();
        let mut p_perf = 0.0;
        for _ in 0..2_400 {
            let s = soc_perf.state();
            perf.control(&s, soc_perf.dvfs_mut());
            p_perf += soc_perf.tick(0.025, &game_demand()).power_w;
        }
        p_perf /= 2_400.0;
        assert!(
            p_qos < p_perf,
            "IntQos {p_qos} W must undercut performance {p_perf} W"
        );
    }

    #[test]
    fn maintains_playable_fps() {
        let mut soc = Soc::new(SocConfig::exynos9810());
        let mut gov = IntQosPm::new();
        drive(&mut gov, &mut soc, &game_demand(), 30.0);
        // Measure fps over the next 10 s.
        let mut fps = 0.0;
        let ticks = 400;
        for t in 0..ticks {
            if t % 20 == 0 {
                let s = soc.state();
                gov.control(&s, soc.dvfs_mut());
            }
            fps += soc.tick(0.025, &game_demand()).fps;
        }
        fps /= f64::from(ticks);
        // The averaged-FPS target settles at the 30 FPS QoS floor (the
        // reduced-QoS behaviour the paper criticises in §II); the
        // delivered rate must stay in that playable band.
        assert!(fps > 25.0, "Int. QoS PM sacrificed too much QoS: {fps} fps");
    }

    #[test]
    fn reset_clears_model() {
        let mut soc = Soc::new(SocConfig::exynos9810());
        let mut gov = IntQosPm::new();
        drive(&mut gov, &mut soc, &game_demand(), 10.0);
        assert!(gov.target_fps() > 0.0);
        gov.reset();
        assert_eq!(gov.target_fps(), 0.0);
        assert!(gov.cpu_cost.get().is_none());
    }

    #[test]
    fn averaging_lags_fps_collapse() {
        // The documented weakness: when FPS collapses (loading screen),
        // the windowed average still reports a stale nonzero target for
        // several epochs.
        let mut soc = Soc::new(SocConfig::exynos9810());
        let mut gov = IntQosPm::new();
        drive(&mut gov, &mut soc, &game_demand(), 30.0);
        let before = gov.target_fps();
        assert!(
            before > 25.0,
            "converged target should be playable: {before}"
        );
        // One epoch of zero-FPS loading.
        let loading = FrameDemand::new(0.0, 0.0, 0.0).with_background(2.0e9, 0.5e9, 0.0);
        drive(&mut gov, &mut soc, &loading, 1.0);
        assert!(
            gov.target_fps() > before * 0.5,
            "average should lag: {} vs {}",
            gov.target_fps(),
            before
        );
    }

    #[test]
    fn frame_cost_smooths_towards_samples() {
        let mut cost = FrameCost::default();
        assert!(cost.get().is_none());
        for _ in 0..50 {
            cost.observe(48.0 * 12.0e6, 48.0);
        }
        let c = cost.get().expect("model present");
        assert!((c - 12.0e6).abs() / 12.0e6 < 1e-9, "cost {c}");
    }

    #[test]
    fn frame_cost_ignores_degenerate_fps() {
        let mut cost = FrameCost::default();
        cost.observe(1.0e9, 0.5);
        assert!(cost.get().is_none(), "sub-1-FPS samples must not calibrate");
    }
}
