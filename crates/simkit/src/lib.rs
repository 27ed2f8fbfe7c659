//! Closed-loop simulation engine and experiment protocol.
//!
//! Ties the substrates together the way the paper's testbed does: a
//! [`workload::SessionSim`] produces the user-driven frame demand, the
//! [`mpsoc::Soc`] executes it, and a [`governors::Governor`] (schedutil,
//! Int. QoS PM, or the Next agent) closes the loop through the DVFS
//! policy caps. Everything advances on a 25 ms base tick — the paper's
//! frame-sampling period — with governors invoked at their own control
//! periods.
//!
//! * [`engine`] — the simulation loop,
//! * [`batch`] — the lockstep multi-device entry point over
//!   [`mpsoc::SocBatch`] (bit-identical to lane-sequential runs),
//! * [`metrics`] — time-series recording and summaries (average power,
//!   peak temperatures, FPS statistics — the quantities of Figs. 3, 7
//!   and 8),
//! * [`experiment`] — the paper's evaluation protocol: train Next once
//!   per app, then measure per-governor sessions,
//! * [`trainer`] — the reusable training loop (fixed-length episodes,
//!   a budget, a convergence stop, per-device SoC configs) behind the
//!   experiment protocol and the warm-seed tables,
//! * [`day`] — battery-day simulation: a whole [`workload::DayPlan`]
//!   of pickups and screen-off gaps executed on one continuous device
//!   state, with per-app Q-tables fetched/stored through the §IV-B
//!   store,
//! * [`campaign`] — the federated runner (§IV-C at production scale):
//!   sharded, checkpointed rounds of whole battery-days over seeded
//!   device cohorts (persona × platform × hardware bin), binary
//!   Q-table deltas pricing the uplink, and an atomically-written
//!   `NXCP` checkpoint that resumes byte-identically,
//! * [`report`] — plain-text tables and series for the bench harness,
//! * [`sweep`] — the work-stealing parallel runner for governor×app×seed
//!   grids, with deterministic row merging,
//! * [`trace`] — the compact per-tick binary trace format plus the
//!   zero-cost [`trace::TraceSink`] hook, the recorder behind
//!   `next-sim replay`/`bisect`, and the field-level trace differ.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod campaign;
pub mod day;
pub mod engine;
pub mod experiment;
pub mod metrics;
pub mod platform;
pub mod report;
pub mod sweep;
pub mod trace;
pub mod trainer;

pub use batch::BatchLane;
pub use campaign::{
    run_campaign, run_campaign_from_seed, run_campaign_with, warm_seed, CampaignConfig,
    CampaignOptions, CampaignOutcome, CampaignReport, CampaignRound, CampaignWarmSeed,
    CohortSummary, MetricSummary, TableArtifact,
};
pub use day::{
    replay_day, run_day, run_day_lanes, run_day_lanes_traced, run_day_traced, run_days,
    run_days_traced, DayReport, DaySpec, SessionReport,
};
pub use engine::{Engine, RunOutcome};
pub use experiment::{train_next_for_app, EvalResult};
pub use metrics::{Battery, Sample, Summary, Trace};
pub use platform::PlatformPreset;
pub use sweep::{parallel_map, run_cells, StandardEvaluator, SweepCell, SweepRow};
pub use trace::{
    bisect, BisectReport, NullSink, SegmentKind, TickRecord, TickTrace, TraceError, TraceMeta,
    TraceRecorder, TraceSink,
};
pub use trainer::{TrainOutcome, TrainSpec, Trainer};
