//! The closed-loop simulation engine.
//!
//! One run advances the platform in 25 ms base ticks (the paper's frame
//! sampling period). Each tick:
//!
//! 1. the session produces the user-driven [`mpsoc::perf::FrameDemand`],
//! 2. the SoC executes it (one tick of the batched kernel),
//! 3. the governor's high-rate `observe` hook sees the new state (this
//!    is where Next fills its frame window),
//! 4. when the governor's control period has elapsed, `control` runs
//!    and actuates the DVFS caps.
//!
//! There is one tick loop, [`Engine::run_lanes_traced`], which steps N
//! devices in lockstep; a single-device run is its one-lane call over
//! the [`Soc`]'s width-1 batch. Every run ticks at [`TICK_S`].

use governors::Governor;
use mpsoc::soc::Soc;
use workload::SessionSim;

use crate::batch::BatchLane;
use crate::metrics::Trace;
use crate::trace::NullSink;

/// The engine's base tick, seconds: the paper's 25 ms frame-sampling
/// period.
pub const TICK_S: f64 = 0.025;

/// The simulation engine. It has no settings: every run ticks at
/// [`TICK_S`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Engine;

/// Result of one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The full 25 ms-resolution trace.
    pub trace: Trace,
    /// Total presented frames.
    pub presented_frames: u64,
    /// Total repeated (dropped) VSyncs.
    pub repeated_vsyncs: u64,
}

impl Engine {
    /// The engine.
    #[must_use]
    pub fn new() -> Self {
        Engine
    }

    /// Base tick in seconds: [`TICK_S`].
    #[must_use]
    pub fn tick_s(&self) -> f64 {
        TICK_S
    }

    /// Number of base ticks a run of `duration_s` executes — the exact
    /// count [`Engine::run`] uses (perf accounting reads this instead
    /// of re-deriving it).
    #[must_use]
    pub fn ticks_for(&self, duration_s: f64) -> u64 {
        let ticks = (duration_s / TICK_S).round().max(0.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            ticks as u64
        }
    }

    /// Base ticks between control invocations for a governor period —
    /// the exact cadence [`Engine::run`] uses (at least 1).
    #[must_use]
    pub fn control_every_ticks(&self, period_s: f64) -> u64 {
        let every = (period_s / TICK_S).round().max(1.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            every as u64
        }
    }

    /// Runs `session` on `soc` under `governor` for `duration_s`
    /// simulated seconds (or until the session plan ends, whichever is
    /// later — pass the plan duration to stop with it).
    pub fn run(
        &self,
        soc: &mut Soc,
        governor: &mut dyn Governor,
        session: &mut SessionSim,
        duration_s: f64,
    ) -> RunOutcome {
        let mut outcome = RunOutcome {
            trace: Trace::new(),
            presented_frames: 0,
            repeated_vsyncs: 0,
        };
        self.run_into(soc, governor, session, duration_s, &mut outcome);
        outcome
    }

    /// Like [`Engine::run`], but writes into a caller-owned
    /// [`RunOutcome`], reusing its trace allocation. Training loops and
    /// the perf harness run many back-to-back sessions; recycling the
    /// multi-thousand-sample trace buffer keeps those loops off the
    /// allocator.
    ///
    /// The outcome is fully overwritten — any previous contents are
    /// discarded. This is the one-lane call of
    /// [`Engine::run_lanes_traced`] on the device's batch, with the
    /// zero-sized [`NullSink`], so the recording branches fold away and
    /// the tick loop is exactly the untraced one.
    pub fn run_into(
        &self,
        soc: &mut Soc,
        governor: &mut dyn Governor,
        session: &mut SessionSim,
        duration_s: f64,
        outcome: &mut RunOutcome,
    ) {
        self.run_lanes_traced(
            soc.batch_mut(),
            &mut [BatchLane { governor, session }],
            duration_s,
            std::slice::from_mut(outcome),
            &mut [NullSink],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use governors::Schedutil;
    use mpsoc::soc::SocConfig;
    use workload::SessionPlan;

    #[test]
    fn run_produces_full_trace() {
        let engine = Engine::new();
        let mut soc = Soc::new(SocConfig::exynos9810());
        let mut gov = Schedutil::new();
        let mut session = SessionSim::new(SessionPlan::single("facebook", 10.0), 42);
        let out = engine.run(&mut soc, &mut gov, &mut session, 10.0);
        assert_eq!(out.trace.len(), 400, "10 s at 25 ms ticks");
        let s = out.trace.summary();
        assert!(s.avg_power_w > 0.5);
        assert!(out.presented_frames > 0);
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let engine = Engine::new();
            let mut soc = Soc::new(SocConfig::exynos9810());
            let mut gov = Schedutil::new();
            let mut session = SessionSim::new(SessionPlan::paper_fig1(), 7);
            engine.run(&mut soc, &mut gov, &mut session, 30.0)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_into_reuses_outcome_and_matches_run() {
        let engine = Engine::new();
        let fresh = {
            let mut soc = Soc::new(SocConfig::exynos9810());
            let mut gov = Schedutil::new();
            let mut session = SessionSim::new(SessionPlan::single("facebook", 10.0), 42);
            engine.run(&mut soc, &mut gov, &mut session, 10.0)
        };
        // Same run through run_into, into an outcome polluted by a
        // previous (different) run.
        let mut reused = {
            let mut soc = Soc::new(SocConfig::exynos9810());
            let mut gov = Schedutil::new();
            let mut session = SessionSim::new(SessionPlan::single("spotify", 5.0), 7);
            engine.run(&mut soc, &mut gov, &mut session, 5.0)
        };
        let mut soc = Soc::new(SocConfig::exynos9810());
        let mut gov = Schedutil::new();
        let mut session = SessionSim::new(SessionPlan::single("facebook", 10.0), 42);
        engine.run_into(&mut soc, &mut gov, &mut session, 10.0, &mut reused);
        assert_eq!(reused, fresh, "reused outcome must be fully overwritten");
    }

    #[test]
    fn zero_duration_runs_empty() {
        let engine = Engine::new();
        let mut soc = Soc::new(SocConfig::exynos9810());
        let mut gov = Schedutil::new();
        let mut session = SessionSim::new(SessionPlan::single("home", 5.0), 1);
        let out = engine.run(&mut soc, &mut gov, &mut session, 0.0);
        assert!(out.trace.is_empty());
    }

    /// Byte pins of every baseline governor's trajectory on both
    /// presets: a 30 s PubG session then a 30 s Facebook session at
    /// seed 1000, each under a fresh governor, digested as the length
    /// and FNV-1a 64 of every `Sample` field's bits. Any change to
    /// what schedutil, Int. QoS PM, performance, powersave or ondemand
    /// do to the device fails here.
    #[test]
    fn baseline_governor_runs_are_pinned() {
        let pins: [(&str, &str, (usize, u64)); 10] = [
            ("exynos9810", "schedutil", (124_800, 0x9e8d_9ea2_b2fd_096d)),
            ("exynos9810", "intqos", (124_800, 0x4ada_9f3c_efa3_630d)),
            (
                "exynos9810",
                "performance",
                (124_800, 0x2a15_f734_36a8_12ff),
            ),
            ("exynos9810", "powersave", (124_800, 0x0850_9deb_e4f3_dce6)),
            ("exynos9810", "ondemand", (124_800, 0xea6b_9e30_b456_c5d3)),
            ("exynos9820", "schedutil", (134_400, 0x16be_2a60_f401_d878)),
            ("exynos9820", "intqos", (134_400, 0xbf37_209d_839f_272b)),
            (
                "exynos9820",
                "performance",
                (134_400, 0x1f32_b057_e21b_7dc4),
            ),
            ("exynos9820", "powersave", (134_400, 0xdbac_8de9_e7aa_d391)),
            ("exynos9820", "ondemand", (134_400, 0xcccd_b0e7_ffe5_7a24)),
        ];
        for (preset, governor, pin) in pins {
            let soc = crate::PlatformPreset::by_name(preset).unwrap().soc;
            let mut bytes = Vec::new();
            for app in ["pubg", "facebook"] {
                let mut gov = governors::by_name(governor).unwrap();
                let plan = SessionPlan::single(app, 30.0);
                let run = crate::experiment::evaluate_governor_on(gov.as_mut(), &plan, 1000, &soc);
                for s in run.outcome.trace.samples() {
                    for x in [s.time_s, s.fps, s.power_w, s.temp_hot_c, s.temp_device_c] {
                        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
                    }
                    for khz in s.freq_khz.iter() {
                        bytes.extend_from_slice(&khz.to_le_bytes());
                    }
                }
            }
            assert_eq!(
                (bytes.len(), crate::fnv1a64(&bytes)),
                pin,
                "{governor} on {preset}"
            );
        }
    }
}
