//! Batched engine entry point: N devices' sessions in lockstep.
//!
//! [`Engine::run_lanes_traced`] is the engine's one tick loop: every
//! 25 ms base tick advances all lanes' sessions, steps the whole
//! [`SocBatch`] through the structure-of-arrays physics kernel, and
//! then runs each lane's governor hooks (`observe` at tick rate,
//! `control` at the governor's own cadence) against that lane's state
//! and DVFS controller, and hands each lane's ticks to its
//! [`TraceSink`]; an untraced run passes the zero-sized
//! [`NullSink`](crate::trace::NullSink).
//! [`Engine::run_into`] is its one-lane call.
//!
//! Lanes never observe each other — batching only interleaves
//! independent lanes — so lane `l`'s trace, learned Q-table and summary
//! are bit-identical to a one-lane run on lane `l`'s inputs. The day
//! runner drives wide batches for its governor fan-out.
//!
//! # Example
//!
//! Two governors race the same 5-second Facebook session on one
//! two-lane batch:
//!
//! ```
//! use governors::by_name;
//! use mpsoc::soc::SocConfig;
//! use mpsoc::SocBatch;
//! use simkit::{BatchLane, Engine, NullSink, RunOutcome, Trace};
//! use workload::{SessionPlan, SessionSim};
//!
//! let engine = Engine::new();
//! let mut batch = SocBatch::replicate(&SocConfig::exynos9810(), 2).unwrap();
//! let mut governors = vec![by_name("schedutil").unwrap(), by_name("powersave").unwrap()];
//! let mut sessions: Vec<SessionSim> = (0..2)
//!     .map(|_| SessionSim::new(SessionPlan::single("facebook", 5.0), 42))
//!     .collect();
//! let mut lanes: Vec<BatchLane<'_>> = governors
//!     .iter_mut()
//!     .zip(sessions.iter_mut())
//!     .map(|(g, s)| BatchLane { governor: g.as_mut(), session: s })
//!     .collect();
//! let mut outcomes = vec![
//!     RunOutcome { trace: Trace::new(), presented_frames: 0, repeated_vsyncs: 0 };
//!     2
//! ];
//! engine.run_lanes_traced(&mut batch, &mut lanes, 5.0, &mut outcomes, &mut [NullSink; 2]);
//! let (sched, save) = (outcomes[0].trace.summary(), outcomes[1].trace.summary());
//! assert!(save.avg_power_w <= sched.avg_power_w, "powersave cannot burn more");
//! ```

use governors::Governor;
use mpsoc::perf::FrameDemand;
use mpsoc::SocBatch;
use workload::SessionSim;

use crate::engine::{Engine, RunOutcome, TICK_S};
use crate::metrics::Sample;
use crate::trace::{TickView, TraceSink};

/// One device lane of a batched run: its governor and its session.
pub struct BatchLane<'a> {
    /// The governor closing this lane's control loop.
    pub governor: &'a mut dyn Governor,
    /// The session producing this lane's frame demand.
    pub session: &'a mut SessionSim,
}

impl std::fmt::Debug for BatchLane<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchLane")
            .field("governor", &self.governor.name())
            .field("session", &self.session)
            .finish()
    }
}

impl Engine {
    /// Runs every lane's session on the batch for `duration_s`
    /// simulated seconds, writing lane `l`'s results into
    /// `outcomes[l]` (fully overwritten; trace allocations are reused,
    /// as in [`Engine::run_into`]) and handing its ticks to `sinks[l]`.
    /// This is the engine's one tick loop; [`Engine::run_into`] is its
    /// one-lane call.
    ///
    /// # Panics
    ///
    /// Panics unless `lanes`, `outcomes` and `sinks` all match the
    /// batch width.
    pub fn run_lanes_traced<S: TraceSink>(
        &self,
        batch: &mut SocBatch,
        lanes: &mut [BatchLane<'_>],
        duration_s: f64,
        outcomes: &mut [RunOutcome],
        sinks: &mut [S],
    ) {
        assert_eq!(lanes.len(), batch.width(), "one lane per batch column");
        assert_eq!(outcomes.len(), lanes.len(), "one outcome per lane");
        assert_eq!(sinks.len(), lanes.len(), "one sink per lane");
        let ticks = self.ticks_for(duration_s);
        let dt = TICK_S;
        let mut control_every = Vec::with_capacity(lanes.len());
        for (lane, outcome) in lanes.iter_mut().zip(outcomes.iter_mut()) {
            outcome.trace.clear();
            outcome.presented_frames = 0;
            outcome.repeated_vsyncs = 0;
            #[allow(clippy::cast_possible_truncation)]
            outcome.trace.reserve(ticks as usize);
            // Hand the governor the device's domain registry before the
            // run: per-domain governors (Int. QoS PM, Next) resolve
            // their domain references against the platform here.
            lane.governor.bind(batch.platform());
            control_every.push(self.control_every_ticks(lane.governor.period_s()));
        }
        let mut until_control = control_every.clone();
        let mut demands = vec![FrameDemand::default(); lanes.len()];
        for _ in 0..ticks {
            for (lane, demand) in lanes.iter_mut().zip(demands.iter_mut()) {
                *demand = lane.session.advance(dt);
            }
            batch.tick(dt, &demands);
            for (l, lane) in lanes.iter_mut().enumerate() {
                let out = batch.tick_output(l);
                let (fps, power_w) = (out.fps, out.power_w);
                let outcome = &mut outcomes[l];
                outcome.presented_frames += u64::from(out.vsync.presented);
                outcome.repeated_vsyncs += u64::from(out.vsync.repeated);
                lane.governor.observe(batch.state(l));
                until_control[l] -= 1;
                let controlled = until_control[l] == 0;
                if controlled {
                    let (state, dvfs) = batch.state_and_dvfs_mut(l);
                    lane.governor.control(state, dvfs);
                    until_control[l] = control_every[l];
                }
                // Actuation reaches the kernel at the next tick; the
                // state snapshot stays the one the governor saw.
                let state = batch.state(l);
                if sinks[l].enabled() {
                    sinks[l].record(&TickView {
                        state,
                        dt_s: dt,
                        decision: if controlled {
                            lane.governor.last_decision()
                        } else {
                            None
                        },
                    });
                }
                outcome.trace.push(Sample {
                    time_s: state.time_s,
                    fps,
                    power_w,
                    temp_hot_c: state.temp_hot_c,
                    temp_device_c: state.temp_device_c,
                    freq_khz: state.freq_khz,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NullSink;
    use governors::by_name;
    use mpsoc::soc::{Soc, SocConfig};
    use mpsoc::SocBatch;
    use workload::SessionPlan;

    fn outcome_buf(n: usize) -> Vec<RunOutcome> {
        (0..n)
            .map(|_| RunOutcome {
                trace: crate::metrics::Trace::new(),
                presented_frames: 0,
                repeated_vsyncs: 0,
            })
            .collect()
    }

    /// Lockstep lanes under different governors must reproduce
    /// one-lane runs bit for bit, lane by lane.
    #[test]
    fn batched_run_matches_scalar_runs_per_lane() {
        let engine = Engine::new();
        let names = ["schedutil", "ondemand", "powersave", "performance"];
        let config = SocConfig::exynos9810();
        let plan = SessionPlan::paper_fig1();

        let scalar: Vec<RunOutcome> = names
            .iter()
            .map(|name| {
                let mut soc = Soc::new(config.clone());
                let mut gov = by_name(name).unwrap();
                let mut session = SessionSim::new(plan.clone(), 42);
                engine.run(&mut soc, gov.as_mut(), &mut session, 30.0)
            })
            .collect();

        let mut batch = SocBatch::replicate(&config, names.len()).unwrap();
        let mut governors: Vec<_> = names.iter().map(|n| by_name(n).unwrap()).collect();
        let mut sessions: Vec<_> = (0..names.len())
            .map(|_| SessionSim::new(plan.clone(), 42))
            .collect();
        let mut lanes: Vec<BatchLane<'_>> = governors
            .iter_mut()
            .zip(sessions.iter_mut())
            .map(|(g, s)| BatchLane {
                governor: g.as_mut(),
                session: s,
            })
            .collect();
        let mut outcomes = outcome_buf(names.len());
        let mut sinks = vec![NullSink; names.len()];
        engine.run_lanes_traced(&mut batch, &mut lanes, 30.0, &mut outcomes, &mut sinks);
        for (l, name) in names.iter().enumerate() {
            assert_eq!(outcomes[l], scalar[l], "lane {l} ({name}) diverged");
        }
    }

    /// Different per-lane seeds (distinct users on identical hardware).
    #[test]
    fn per_lane_seeds_stay_independent() {
        let engine = Engine::new();
        let config = SocConfig::exynos9820();
        let seeds = [1u64, 2, 3];
        let scalar: Vec<RunOutcome> = seeds
            .iter()
            .map(|&seed| {
                let mut soc = Soc::new(config.clone());
                let mut gov = by_name("schedutil").unwrap();
                let mut session = SessionSim::new(SessionPlan::single("facebook", 20.0), seed);
                engine.run(&mut soc, gov.as_mut(), &mut session, 20.0)
            })
            .collect();
        let mut batch = SocBatch::replicate(&config, seeds.len()).unwrap();
        let mut governors: Vec<_> = seeds
            .iter()
            .map(|_| by_name("schedutil").unwrap())
            .collect();
        let mut sessions: Vec<_> = seeds
            .iter()
            .map(|&seed| SessionSim::new(SessionPlan::single("facebook", 20.0), seed))
            .collect();
        let mut lanes: Vec<BatchLane<'_>> = governors
            .iter_mut()
            .zip(sessions.iter_mut())
            .map(|(g, s)| BatchLane {
                governor: g.as_mut(),
                session: s,
            })
            .collect();
        let mut outcomes = outcome_buf(seeds.len());
        let mut sinks = vec![NullSink; seeds.len()];
        engine.run_lanes_traced(&mut batch, &mut lanes, 20.0, &mut outcomes, &mut sinks);
        for l in 0..seeds.len() {
            assert_eq!(outcomes[l], scalar[l], "lane {l} diverged");
        }
        assert_ne!(outcomes[0], outcomes[1], "seeds must differ");
    }

    #[test]
    #[should_panic(expected = "one lane per batch column")]
    fn lane_count_mismatch_panics() {
        let engine = Engine::new();
        let mut batch = SocBatch::replicate(&SocConfig::exynos9810(), 2).unwrap();
        let mut outcomes = outcome_buf(0);
        engine.run_lanes_traced(&mut batch, &mut [], 1.0, &mut outcomes, &mut [NullSink; 0]);
    }
}
