//! Cycle-budget frame execution model.
//!
//! Every UI/game frame costs a number of *effective cycles* on each
//! workload channel (IPC and core-level parallelism are folded into the
//! cycle count, which is how trace-driven mobile performance models are
//! usually calibrated). On top of the per-frame cost, an application
//! demands *background* cycles per second — audio decode, network, game
//! AI — that consume capacity without producing frames. This is what
//! makes the paper's Spotify observation possible: FPS near zero while
//! the CPUs are busy and clocked high (§I, Fig. 1).
//!
//! Demands are expressed in three **channels** — heavy CPU work, light
//! CPU work, GPU work — so application models stay platform-independent;
//! the [`Platform`] declares which DVFS domain executes which share of
//! each channel. On the Exynos 9810 the mapping is one-to-one (big,
//! LITTLE, GPU); the 9820-class preset splits the heavy-CPU channel
//! between its big and middle clusters.
//!
//! Rendering is pipelined in the usual Android way: the CPU stages
//! prepare frame *N+1* while the GPU draws frame *N*, so the
//! steady-state frame period is `max(Σ t_cpu, Σ t_gpu)`.

use crate::freq::Opp;
use crate::platform::{DomainId, DomainRole, PerDomain, Platform};

/// One of the three workload channels an application's demand is
/// calibrated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// The heavy CPU work stream (render threads, game logic). Lands on
    /// big/prime — and, where present, middle — clusters.
    BigCpu,
    /// The light CPU work stream (helper threads, audio, I/O).
    LittleCpu,
    /// The GPU work stream (draw calls, composition).
    Gpu,
}

impl Channel {
    /// All channels in index order.
    pub const ALL: [Channel; 3] = [Channel::BigCpu, Channel::LittleCpu, Channel::Gpu];

    /// Stable index of the channel within [`Channel::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Channel::BigCpu => 0,
            Channel::LittleCpu => 1,
            Channel::Gpu => 2,
        }
    }
}

/// Work demanded by the running application over a simulation interval.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrameDemand {
    /// Effective cycles each frame costs per channel
    /// (indexed by [`Channel::index`]).
    pub frame_cycles: [f64; 3],
    /// Background (non-frame) cycles per second per channel.
    pub background_hz: [f64; 3],
    /// Native content pacing in frames per second (0 = unpaced). Video
    /// players present at the content's native rate (24/30 FPS)
    /// regardless of how fast the hardware could render.
    pub pacing_hz: f64,
}

impl FrameDemand {
    /// Demand with per-frame costs only (no background work).
    #[must_use]
    pub fn new(big_cycles: f64, little_cycles: f64, gpu_cycles: f64) -> Self {
        FrameDemand {
            frame_cycles: [big_cycles, little_cycles, gpu_cycles],
            background_hz: [0.0; 3],
            pacing_hz: 0.0,
        }
    }

    /// Adds background cycles per second on each channel.
    #[must_use]
    pub fn with_background(mut self, big_hz: f64, little_hz: f64, gpu_hz: f64) -> Self {
        self.background_hz = [big_hz, little_hz, gpu_hz];
        self
    }

    /// Caps frame production at the content's native rate (video).
    #[must_use]
    pub fn with_pacing(mut self, pacing_hz: f64) -> Self {
        self.pacing_hz = pacing_hz.max(0.0);
        self
    }

    /// True when the demand produces no frames (all per-frame costs are
    /// zero); the display then repeats the front buffer and measured FPS
    /// drops to zero.
    #[must_use]
    pub fn is_frameless(&self) -> bool {
        self.frame_cycles.iter().all(|&c| c <= 0.0)
    }

    /// Per-frame cycles of one channel.
    #[must_use]
    pub fn frame_cycles_of(&self, channel: Channel) -> f64 {
        self.frame_cycles[channel.index()]
    }

    /// Background cycles per second of one channel.
    #[must_use]
    pub fn background_hz_of(&self, channel: Channel) -> f64 {
        self.background_hz[channel.index()]
    }

    /// Scales every per-frame and background cost by `k` (≥ 0); the
    /// pacing rate is a content property and does not scale.
    #[must_use]
    pub fn scaled(&self, k: f64) -> Self {
        let k = k.max(0.0);
        FrameDemand {
            frame_cycles: self.frame_cycles.map(|c| c * k),
            background_hz: self.background_hz.map(|c| c * k),
            pacing_hz: self.pacing_hz,
        }
    }
}

/// Result of evaluating a demand against a set of operating points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionPlan {
    /// Steady-state frame period in seconds; `None` when the demand is
    /// frameless or some domain is saturated by background work.
    pub frame_period_s: Option<f64>,
    /// Time each domain spends on one frame, in seconds
    /// (0 for domains with no per-frame cost).
    pub stage_time_s: PerDomain<f64>,
    /// Fraction of each domain's capacity eaten by background work
    /// (clamped to `[0, 1]`).
    pub background_util: PerDomain<f64>,
    /// Capacity fraction one produced frame per second costs on each
    /// domain (`frame_cycles / f`).
    pub frame_util_per_fps: PerDomain<f64>,
}

impl ExecutionPlan {
    /// Unbounded renderer frame rate implied by the period (frames/s);
    /// 0 when no frames can be produced.
    #[must_use]
    pub fn render_rate_hz(&self) -> f64 {
        match self.frame_period_s {
            Some(p) if p > 0.0 => 1.0 / p,
            _ => 0.0,
        }
    }

    /// Total utilisation of domain `id` when frames are actually being
    /// produced at `fps` per second: the background share plus the
    /// capacity the frame work consumes.
    #[must_use]
    pub fn utilization(&self, id: DomainId, fps: f64) -> f64 {
        let i = id.index();
        (self.background_util[i] + fps.max(0.0) * self.frame_util_per_fps[i]).clamp(0.0, 1.0)
    }
}

/// Evaluates how `demand` executes at the given per-domain operating
/// points (`opps` in platform order) on `platform`.
///
/// Each domain executes its declared share of its workload channel; the
/// pipeline period is the longer of the serialised CPU stages and the
/// serialised GPU stages.
///
/// # Panics
///
/// Panics if `opps` is shorter than the platform's domain count.
#[must_use]
#[inline]
pub fn plan(demand: &FrameDemand, opps: &[Opp], platform: &Platform) -> ExecutionPlan {
    let n = platform.n_domains();
    let mut stage_time_s = PerDomain::new(n);
    let mut background_util = PerDomain::new(n);
    let mut frame_util_per_fps = PerDomain::new(n);
    let mut saturated = false;
    // The serialised per-role stage sums accumulate in the same single
    // pass (identical values in identical domain order, so the result
    // is bit-for-bit what a separate summation loop would produce).
    let mut cpu = 0.0f64;
    let mut gpu = 0.0f64;
    for (i, spec) in platform.domains().iter().enumerate() {
        let f = opps[i].freq_hz();
        let share = spec.channel_share;
        let bg = (demand.background_hz[spec.channel.index()] * share).max(0.0);
        // Zero numerators skip their division: `0.0 / f` is exactly
        // `+0.0` for every `f > 0`, so the branch is unobservable and
        // idle channels (most of a typical demand) avoid the divider.
        background_util[i] = if f > 0.0 {
            if bg > 0.0 {
                (bg / f).min(1.0)
            } else {
                0.0
            }
        } else {
            1.0
        };
        let headroom_hz = (f - bg).max(0.0);
        let cycles = (demand.frame_cycles[spec.channel.index()] * share).max(0.0);
        if f > 0.0 && cycles > 0.0 {
            frame_util_per_fps[i] = cycles / f;
        }
        if cycles > 0.0 {
            if headroom_hz <= 0.0 {
                saturated = true;
            } else {
                stage_time_s[i] = cycles / headroom_hz;
            }
        }
        match spec.role {
            DomainRole::Cpu => cpu += stage_time_s[i],
            DomainRole::Gpu => gpu += stage_time_s[i],
        }
    }
    let frame_period_s = if demand.is_frameless() || saturated {
        None
    } else {
        let mut period = cpu.max(gpu).max(1e-9);
        if demand.pacing_hz > 0.0 {
            period = period.max(1.0 / demand.pacing_hz);
        }
        Some(period)
    };
    ExecutionPlan {
        frame_period_s,
        stage_time_s,
        background_util,
        frame_util_per_fps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::OppTable;

    fn p9810() -> Platform {
        Platform::exynos9810()
    }

    fn opps_max() -> Vec<Opp> {
        p9810().domains().iter().map(|d| d.table.max()).collect()
    }

    fn opps_min() -> Vec<Opp> {
        p9810().domains().iter().map(|d| d.table.min()).collect()
    }

    #[test]
    fn light_frames_render_fast() {
        // 2 M big cycles + 1 M LITTLE + 3 M GPU at max clocks → well
        // above 60 fps renderer rate.
        let demand = FrameDemand::new(2.0e6, 1.0e6, 3.0e6);
        let p = plan(&demand, &opps_max(), &p9810());
        assert!(p.render_rate_hz() > 60.0, "rate {}", p.render_rate_hz());
    }

    #[test]
    fn heavy_frames_render_slow_at_min_clocks() {
        let demand = FrameDemand::new(20.0e6, 5.0e6, 9.0e6);
        let fast = plan(&demand, &opps_max(), &p9810()).render_rate_hz();
        let slow = plan(&demand, &opps_min(), &p9810()).render_rate_hz();
        assert!(fast > slow * 2.0, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn frameless_demand_has_no_period() {
        let demand = FrameDemand::new(0.0, 0.0, 0.0).with_background(1.0e9, 0.2e9, 0.0);
        let p = plan(&demand, &opps_max(), &p9810());
        assert_eq!(p.frame_period_s, None);
        assert_eq!(p.render_rate_hz(), 0.0);
        assert!(p.background_util[0] > 0.3);
    }

    #[test]
    fn background_saturation_blocks_frames() {
        // Background demand above the little cluster's capacity at min
        // clock: frames cannot complete.
        let little_min_hz = OppTable::exynos9810_little().min().freq_hz();
        let demand =
            FrameDemand::new(1.0e6, 1.0e6, 1.0e6).with_background(0.0, little_min_hz * 2.0, 0.0);
        let p = plan(&demand, &opps_min(), &p9810());
        assert_eq!(p.frame_period_s, None);
        assert_eq!(p.background_util[1], 1.0);
    }

    #[test]
    fn pipeline_period_is_max_of_cpu_and_gpu() {
        let opps = opps_max();
        // GPU-bound: huge GPU cost.
        let gpu_bound = FrameDemand::new(1.0e6, 0.5e6, 50.0e6);
        let p = plan(&gpu_bound, &opps, &p9810());
        let expect = 50.0e6 / opps[2].freq_hz();
        assert!((p.frame_period_s.unwrap() - expect).abs() / expect < 1e-9);

        // CPU-bound: big + LITTLE dominate.
        let cpu_bound = FrameDemand::new(40.0e6, 10.0e6, 1.0e6);
        let p = plan(&cpu_bound, &opps, &p9810());
        let expect = 40.0e6 / opps[0].freq_hz() + 10.0e6 / opps[1].freq_hz();
        assert!((p.frame_period_s.unwrap() - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn channel_shares_split_work_across_domains() {
        // On the 9820 preset the heavy-CPU channel splits 0.65/0.35
        // between big and mid; the CPU pipeline time is the sum of the
        // partial stages.
        let platform = Platform::exynos9820();
        let opps: Vec<Opp> = platform.domains().iter().map(|d| d.table.max()).collect();
        let demand = FrameDemand::new(40.0e6, 10.0e6, 1.0e6);
        let p = plan(&demand, &opps, &platform);
        let expect = 40.0e6 * 0.65 / opps[0].freq_hz()
            + 40.0e6 * 0.35 / opps[1].freq_hz()
            + 10.0e6 / opps[2].freq_hz();
        assert!((p.frame_period_s.unwrap() - expect).abs() / expect < 1e-9);
        assert!(p.stage_time_s[1] > 0.0, "mid cluster carries its share");
    }

    #[test]
    fn utilization_combines_background_and_frames() {
        let opps = opps_max();
        let demand = FrameDemand::new(2.0e6, 0.0, 0.0).with_background(0.5e9, 0.0, 0.0);
        let p = plan(&demand, &opps, &p9810());
        let u = p.utilization(DomainId::new(0), 60.0);
        let expect = 0.5e9 / opps[0].freq_hz() + 60.0 * 2.0e6 / opps[0].freq_hz();
        assert!((u - expect).abs() < 1e-12);
        assert!(p.utilization(DomainId::new(2), 60.0) < 1e-12);
    }

    #[test]
    fn utilization_clamped_to_one() {
        let opps = opps_min();
        let demand = FrameDemand::new(1.0e9, 1.0e9, 1.0e9);
        let p = plan(&demand, &opps, &p9810());
        for id in p9810().ids() {
            assert!(p.utilization(id, 60.0) <= 1.0);
        }
    }

    #[test]
    fn scaled_demand_scales_linearly() {
        let base = FrameDemand::new(4.0e6, 2.0e6, 8.0e6).with_background(1.0e8, 0.0, 0.0);
        let double = base.scaled(2.0);
        assert_eq!(double.frame_cycles[0], 8.0e6);
        assert_eq!(double.background_hz[0], 2.0e8);
        let neg = base.scaled(-5.0);
        assert!(neg.is_frameless());
    }

    #[test]
    fn channel_indices_are_stable() {
        for (i, c) in Channel::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
