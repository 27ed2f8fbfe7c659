//! The benchmark's one adapter onto the program.
//!
//! Every call from the benchmark into the workspace goes through this
//! module, and every program type stays behind it: the rest of the
//! benchmark sees only the plain structs and opaque handles defined
//! here. A change to the program's API breaks this file and no other.
//!
//! Entry points used:
//!
//! * `workload`: `apps::by_name`, `apps::is_game`,
//!   `SessionPlan::{single, paper_session_length_s}`,
//!   `SessionSim::{new, advance}`, `idle_demand`,
//!   `Persona::{by_name, names, apps}`, `DayPlanConfig::quick`,
//!   `DayPlan::{generate, distinct_apps}`.
//! * `mpsoc`: `Soc::{new, tick, state}`, `SocBatch::{replicate, tick, state}`.
//! * `governors`: `by_name`, the `Governor` trait.
//! * `next_core`: `NextAgent::{with_table, warm_start}`,
//!   `QTableStore::{in_memory, save, take}`.
//! * `qlearn`: `QTable::{overlay, best_action, state_keys, q, visits,
//!   len, n_actions, default_q, touched_rows, delta_bytes}`,
//!   `QLearning::update`, `MergeAccumulator::{new, fold_overlay,
//!   finish_normalized}`, `encode_table`, `decode_table`.
//! * `simkit`: `Engine::{new, run_into, ticks_for, control_every_ticks,
//!   tick_s}`, `Trainer::train`, `TrainSpec`,
//!   `StandardEvaluator::{train_budget_for, TRAIN_SEED,
//!   BASE_TRAIN_BUDGET_S}`, `PlatformPreset::by_name`, `DaySpec`,
//!   `run_day`, `run_day_lanes_traced`, `TraceSink`,
//!   `CampaignConfig::{quick, with_platforms}`, `warm_seed`,
//!   `run_campaign_from_seed`.
//!
//! Not used, on purpose: `HashStore`, the text table codec,
//! `simkit::fleet`, checkpoints and the trace codec.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

use governors::Governor;
use mpsoc::dvfs::DvfsController;
use mpsoc::soc::{Soc, SocState};
use mpsoc::{FrameDemand, Platform, SocBatch};
use next_core::{NextAgent, QTableStore};
use qlearn::{DenseQTable, DenseStore, MergeAccumulator, OverlayStore, QLearning, QStore, QTable};
use simkit::trace::TickView;
use simkit::{
    CampaignConfig, CampaignReport, CampaignWarmSeed, DayReport, DaySpec, Engine, PlatformPreset,
    RunOutcome, SegmentKind, StandardEvaluator, Summary, TraceSink, TrainSpec, Trainer,
};
use workload::{DayPlan, DayPlanConfig, Persona, SessionPlan, SessionSim};

use crate::digest::{Digest, Fnv};
use crate::estimator::{now, secs_between, Probe};

/// The six applications of the paper's Figs. 7 and 8.
pub const PAPER_APPS: [&str; 6] = [
    "facebook",
    "lineage",
    "pubg",
    "spotify",
    "web-browser",
    "youtube",
];

/// The §V base training budget per app, simulated seconds.
pub const BASE_TRAIN_BUDGET_S: f64 = StandardEvaluator::BASE_TRAIN_BUDGET_S;

/// Length of one engine tick, seconds.
#[must_use]
pub fn tick_s() -> f64 {
    Engine::new().tick_s()
}

/// Engine ticks a session of `duration_s` runs.
#[must_use]
pub fn ticks_for(duration_s: f64) -> u64 {
    Engine::new().ticks_for(duration_s)
}

/// Whether `app` is one of the games (longer sessions, larger budget).
#[must_use]
pub fn is_game(app: &str) -> bool {
    workload::apps::is_game(app)
}

/// The paper's session length for `app`, simulated seconds.
#[must_use]
pub fn paper_session_length_s(app: &str) -> f64 {
    SessionPlan::paper_session_length_s(app)
}

/// Fails unless `app` names a shipped application model.
///
/// # Errors
///
/// Returns a message naming the unknown app.
pub fn check_app(app: &str) -> Result<(), String> {
    workload::apps::by_name(app)
        .map(|_| ())
        .ok_or_else(|| format!("unknown app '{app}'"))
}

/// A simulated device: SoC configuration plus the Next configuration
/// shaped for its platform.
#[derive(Debug, Clone)]
pub struct Device {
    preset: PlatformPreset,
}

impl Device {
    /// Looks a platform preset up by name.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown preset.
    pub fn by_name(name: &str) -> Result<Self, String> {
        PlatformPreset::by_name(name)
            .map(|preset| Device { preset })
            .ok_or_else(|| format!("unknown platform '{name}'"))
    }
}

/// Run statistics of one session, in the program's summary terms.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Stats {
    /// Simulated seconds.
    pub duration_s: f64,
    /// Mean power, watts.
    pub avg_power_w: f64,
    /// Peak power, watts.
    pub peak_power_w: f64,
    /// Mean presented FPS.
    pub avg_fps: f64,
    /// FPS standard deviation.
    pub fps_std: f64,
    /// Mean hot-spot temperature, °C.
    pub avg_temp_hot_c: f64,
    /// Peak hot-spot temperature, °C.
    pub peak_temp_hot_c: f64,
    /// Peak device temperature, °C.
    pub peak_temp_device_c: f64,
    /// Energy, joules.
    pub energy_j: f64,
}

impl Stats {
    fn of(s: &Summary) -> Self {
        Stats {
            duration_s: s.duration_s,
            avg_power_w: s.avg_power_w,
            peak_power_w: s.peak_power_w,
            avg_fps: s.avg_fps,
            fps_std: s.fps_std,
            avg_temp_hot_c: s.avg_temp_hot_c,
            peak_temp_hot_c: s.peak_temp_hot_c,
            peak_temp_device_c: s.peak_temp_device_c,
            energy_j: s.energy_j,
        }
    }

    /// Feeds every field into `h`.
    pub fn hash(&self, h: &mut Fnv) {
        for v in [
            self.duration_s,
            self.avg_power_w,
            self.peak_power_w,
            self.avg_fps,
            self.fps_std,
            self.avg_temp_hot_c,
            self.peak_temp_hot_c,
            self.peak_temp_device_c,
            self.energy_j,
        ] {
            h.f64(v);
        }
    }
}

fn hash_state(h: &mut Fnv, s: &SocState) {
    h.f64(s.time_s)
        .f64(s.fps)
        .f64(s.power_w)
        .f64(s.temp_hot_c)
        .f64(s.temp_device_c)
        .f64(s.temp_battery_c);
}

// ---------------------------------------------------------------------------
// Trained tables
// ---------------------------------------------------------------------------

/// A trained Next Q-table.
#[derive(Debug, Clone)]
pub struct Table {
    dense: Arc<DenseQTable>,
}

/// Result of one training run.
#[derive(Debug)]
pub struct Trained {
    /// The trained table.
    pub table: Table,
    /// Engine ticks the training ran.
    pub ticks: u64,
}

/// Trains Next on `app` at the §V protocol (fixed training seed,
/// 60 s episodes, games at twice `base_budget_s`) on `device`.
#[must_use]
pub fn train(device: &Device, app: &str, base_budget_s: f64) -> Trained {
    let budget = StandardEvaluator::train_budget_for(base_budget_s, app);
    let spec = TrainSpec::new(
        app,
        device.preset.next.clone(),
        StandardEvaluator::TRAIN_SEED,
        budget,
    )
    .with_soc(device.preset.soc.clone());
    let out = Trainer::new().train(spec);
    let sim_s = out.agent.stats().sim_time_s;
    Trained {
        table: Table {
            dense: Arc::new(out.agent.into_table()),
        },
        ticks: ticks_for(sim_s),
    }
}

fn hash_table<S: QStore>(h: &mut Fnv, t: &QTable<S>) {
    h.u64(t.len() as u64).u64(t.n_actions() as u64);
    for key in t.state_keys() {
        h.u64(key);
        for a in 0..t.n_actions() {
            h.f64(t.q(key, a)).u64(t.visits(key, a));
        }
    }
}

impl Table {
    /// Visited states.
    #[must_use]
    pub fn states(&self) -> usize {
        self.dense.len()
    }

    /// Digest of every Q-value and visit count.
    #[must_use]
    pub fn digest(&self) -> Digest {
        let mut h = Fnv::new();
        hash_table(&mut h, &self.dense);
        h.finish()
    }

    /// The table's state keys, sorted.
    #[must_use]
    pub fn keys(&self) -> Vec<u64> {
        self.dense.state_keys()
    }

    /// Calls `QTable::best_action` on every key; returns a digest of
    /// the chosen actions.
    #[must_use]
    pub fn argmax_all(&self, keys: &[u64]) -> Digest {
        let mut acc = 0u64;
        for &k in keys {
            let (a, _) = black_box(self.dense.best_action(black_box(k)));
            acc = acc.wrapping_mul(31).wrapping_add(a as u64);
        }
        acc
    }

    /// A private dense copy to apply updates to.
    #[must_use]
    pub fn scratch_copy(&self) -> ScratchTable {
        ScratchTable {
            dense: (*self.dense).clone(),
        }
    }
}

/// A writable copy of a trained table.
#[derive(Debug)]
pub struct ScratchTable {
    dense: DenseQTable,
}

impl ScratchTable {
    /// Applies one `QLearning::update` per key (action `i % n`,
    /// bootstrapping from the next key); returns a digest of the new
    /// values.
    #[must_use]
    pub fn update_all(&mut self, keys: &[u64], learner: Learner) -> Digest {
        let n_actions = self.dense.n_actions();
        let mut h = Fnv::new();
        for (i, &k) in keys.iter().enumerate() {
            let next = keys[(i + 1) % keys.len()];
            let q = learner
                .inner
                .update(&mut self.dense, k, i % n_actions, 0.5, next);
            h.f64(q);
        }
        h.finish()
    }
}

/// The Q-learning rule with the paper's hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct Learner {
    inner: QLearning,
}

impl Learner {
    /// The learner of `device`'s Next configuration.
    #[must_use]
    pub fn of(device: &Device) -> Self {
        Learner {
            inner: QLearning::new(device.preset.next.alpha, device.preset.next.gamma),
        }
    }
}

// ---------------------------------------------------------------------------
// Sessions on the scalar engine
// ---------------------------------------------------------------------------

/// The governor of one session.
#[derive(Debug, Clone, Copy)]
pub enum Policy<'t> {
    /// A stock baseline governor, by name (`schedutil`, `intqos`).
    Baseline(&'static str),
    /// Next in greedy inference on a trained table.
    NextGreedy(&'t Table),
    /// Next still learning, warm-started on a copy-on-write view of a
    /// trained table (the device side of a federated round).
    NextLearning(&'t Table),
}

/// Host time a [`Timed`] wrapper spent inside the governor.
#[derive(Debug, Clone, Copy, Default)]
pub struct GovTimes {
    /// Seconds inside `observe` (timed for Next only).
    pub observe_s: f64,
    /// Timed `observe` calls.
    pub observe_calls: u64,
    /// Seconds inside `control`.
    pub control_s: f64,
    /// `control` calls.
    pub control_calls: u64,
}

/// Timing wrapper around a governor: delegates every call and clocks
/// `control` (and, when asked, `observe`).
struct Timed<'g> {
    inner: Box<dyn Governor + 'g>,
    time_observe: bool,
    times: GovTimes,
}

impl Governor for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn bind(&mut self, platform: &Platform) {
        self.inner.bind(platform);
    }

    fn period_s(&self) -> f64 {
        self.inner.period_s()
    }

    fn control(&mut self, state: &SocState, dvfs: &mut DvfsController) {
        let t0 = now();
        self.inner.control(state, dvfs);
        self.times.control_s += secs_between(t0, now());
        self.times.control_calls += 1;
    }

    fn observe(&mut self, state: &SocState) {
        if self.time_observe {
            let t0 = now();
            self.inner.observe(state);
            self.times.observe_s += secs_between(t0, now());
            self.times.observe_calls += 1;
        } else {
            self.inner.observe(state);
        }
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn last_decision(&self) -> Option<governors::ControlDecision> {
        self.inner.last_decision()
    }
}

fn build_governor<'t>(
    device: &Device,
    policy: Policy<'t>,
) -> Result<Box<dyn Governor + 't>, String> {
    Ok(match policy {
        Policy::Baseline(name) => {
            governors::by_name(name).ok_or_else(|| format!("unknown governor '{name}'"))?
        }
        Policy::NextGreedy(table) => Box::new(NextAgent::with_table(
            device.preset.next.clone(),
            (*table.dense).clone(),
            false,
        )),
        Policy::NextLearning(table) => Box::new(NextAgent::<OverlayStore>::warm_start(
            device.preset.next.clone(),
            QTable::overlay(Arc::clone(&table.dense)),
        )),
    })
}

/// One finished session.
#[derive(Debug, Clone, Copy)]
pub struct SessionRun {
    /// Summary statistics.
    pub stats: Stats,
    /// Presented frames.
    pub presented: u64,
    /// Repeated VSyncs.
    pub repeated: u64,
    /// Engine ticks.
    pub ticks: u64,
    /// Governor control steps.
    pub control_steps: u64,
    /// Host seconds of the `Engine::run_into` call (traced runs only).
    pub engine_s: f64,
    /// Host time inside the governor (traced runs only).
    pub gov: GovTimes,
}

impl SessionRun {
    /// Digest of the simulated outcome.
    #[must_use]
    pub fn digest(&self) -> Digest {
        let mut h = Fnv::new();
        self.stats.hash(&mut h);
        h.u64(self.presented).u64(self.repeated).finish()
    }
}

/// Runs one session of `app` for `duration_s` on a fresh `device`
/// under `policy`, through `Engine::run_into`, and summarises it. With
/// `timed`, the governor is wrapped in a timing wrapper and the engine
/// call is clocked.
///
/// # Errors
///
/// Returns a message for an unknown app or governor.
pub fn run_session(
    device: &Device,
    policy: Policy<'_>,
    app: &str,
    duration_s: f64,
    seed: u64,
    timed: bool,
) -> Result<SessionRun, String> {
    check_app(app)?;
    let engine = Engine::new();
    let mut soc = Soc::new(device.preset.soc.clone());
    let mut governor = build_governor(device, policy)?;
    let mut session = SessionSim::new(SessionPlan::single(app, duration_s), seed);
    let mut outcome = RunOutcome {
        trace: simkit::Trace::new(),
        presented_frames: 0,
        repeated_vsyncs: 0,
    };
    let ticks = engine.ticks_for(duration_s);
    let control_steps = ticks / engine.control_every_ticks(governor.period_s());
    governor.reset();
    let (engine_s, gov) = if timed {
        let mut wrapped = Timed {
            time_observe: !matches!(policy, Policy::Baseline(_)),
            inner: governor,
            times: GovTimes::default(),
        };
        let t0 = now();
        engine.run_into(
            &mut soc,
            &mut wrapped,
            &mut session,
            duration_s,
            &mut outcome,
        );
        (secs_between(t0, now()), wrapped.times)
    } else {
        engine.run_into(
            &mut soc,
            governor.as_mut(),
            &mut session,
            duration_s,
            &mut outcome,
        );
        (0.0, GovTimes::default())
    };
    Ok(SessionRun {
        stats: Stats::of(&outcome.trace.summary()),
        presented: outcome.presented_frames,
        repeated: outcome.repeated_vsyncs,
        ticks,
        control_steps,
        engine_s,
        gov,
    })
}

// ---------------------------------------------------------------------------
// Demand replays (single-layer timings)
// ---------------------------------------------------------------------------

/// The frame demand of one session, recorded tick by tick.
#[derive(Debug, Clone)]
pub struct DemandTrace {
    demands: Vec<FrameDemand>,
}

impl DemandTrace {
    /// Records the demand `SessionSim::advance` produces for a session
    /// of `app`, `duration_s` long, seeded `seed`.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown app.
    pub fn record(app: &str, duration_s: f64, seed: u64) -> Result<Self, String> {
        check_app(app)?;
        let dt = tick_s();
        let mut session = SessionSim::new(SessionPlan::single(app, duration_s), seed);
        let demands = (0..ticks_for(duration_s))
            .map(|_| session.advance(dt))
            .collect();
        Ok(DemandTrace { demands })
    }

    /// Ticks recorded.
    #[must_use]
    pub fn ticks(&self) -> usize {
        self.demands.len()
    }
}

/// Calls `SessionSim::advance` once per tick of a fresh session;
/// returns a digest of the last demand and the number of calls.
///
/// # Errors
///
/// Returns a message for an unknown app.
pub fn advance_session(app: &str, duration_s: f64, seed: u64) -> Result<(Digest, u64), String> {
    check_app(app)?;
    let dt = tick_s();
    let ticks = ticks_for(duration_s);
    let mut session = SessionSim::new(SessionPlan::single(app, duration_s), seed);
    let mut last = FrameDemand::default();
    for _ in 0..ticks {
        last = black_box(session.advance(dt));
    }
    let mut h = Fnv::new();
    for v in last.frame_cycles.iter().chain(&last.background_hz) {
        h.f64(*v);
    }
    Ok((h.f64(last.pacing_hz).finish(), ticks))
}

/// Ticks a fresh scalar `Soc` through `trace`; returns a digest of the
/// final state.
#[must_use]
pub fn tick_scalar(device: &Device, trace: &DemandTrace) -> Digest {
    let dt = tick_s();
    let mut soc = Soc::new(device.preset.soc.clone());
    for d in &trace.demands {
        black_box(soc.tick(dt, d));
    }
    let mut h = Fnv::new();
    hash_state(&mut h, &soc.state());
    h.finish()
}

/// A batch of identical devices stepped through recorded demand.
#[derive(Debug)]
pub struct BatchReplay {
    batch: SocBatch,
    row: Vec<FrameDemand>,
    idle: Vec<FrameDemand>,
}

impl BatchReplay {
    /// A fresh batch of `width` copies of `device`.
    ///
    /// # Errors
    ///
    /// Returns the kernel's message for an invalid configuration.
    pub fn new(device: &Device, width: usize) -> Result<Self, String> {
        let batch = SocBatch::replicate(&device.preset.soc, width).map_err(|e| e.to_string())?;
        Ok(BatchReplay {
            batch,
            row: vec![FrameDemand::default(); width],
            idle: vec![workload::idle_demand(); width],
        })
    }

    /// Every lane runs `trace` in lockstep; returns the `SocBatch::tick`
    /// calls made.
    pub fn session(&mut self, trace: &DemandTrace) -> u64 {
        let dt = tick_s();
        for d in &trace.demands {
            self.row.fill(*d);
            self.batch.tick(dt, &self.row);
        }
        trace.demands.len() as u64
    }

    /// Every lane idles through the screen-off gap ticks `gap_dts`;
    /// returns the calls made.
    pub fn gap(&mut self, gap_dts: &[f64]) -> u64 {
        for &dt in gap_dts {
            self.batch.tick(dt, &self.idle);
        }
        gap_dts.len() as u64
    }

    /// Digest of every lane's state.
    #[must_use]
    pub fn digest(&self) -> Digest {
        let mut h = Fnv::new();
        for lane in 0..self.batch.width() {
            hash_state(&mut h, &self.batch.state(lane));
        }
        h.finish()
    }
}

// ---------------------------------------------------------------------------
// Battery days
// ---------------------------------------------------------------------------

/// Names of the shipped personas.
#[must_use]
pub fn persona_names() -> Vec<String> {
    Persona::names().iter().map(|&n| n.to_owned()).collect()
}

/// Sorted union of every shipped persona's apps.
#[must_use]
pub fn persona_app_union() -> Vec<String> {
    let mut apps: Vec<String> = Persona::names()
        .iter()
        .filter_map(|n| Persona::by_name(n))
        .flat_map(|p| p.apps().to_vec())
        .collect();
    apps.sort();
    apps.dedup();
    apps
}

/// A generated day.
#[derive(Debug, Clone)]
pub struct Plan {
    plan: DayPlan,
}

/// Splits a gap into the ticks the day engine steps it in.
fn gap_ticks(gap_s: f64, tick_s: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut left = gap_s;
    while left > 1e-9 {
        let dt = tick_s.min(left);
        out.push(dt);
        left -= dt;
    }
    out
}

/// One pickup's inputs, for replays.
#[derive(Debug, Clone)]
pub struct PickupInputs {
    /// Gap ticks before the pickup, seconds each.
    pub gap_dts: Vec<f64>,
    /// The session's recorded demand.
    pub demand: DemandTrace,
}

impl Plan {
    /// Generates the quick day (52 pickups over 2 h) of `persona`.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown persona or an infeasible plan.
    pub fn quick(persona: &str, seed: u64) -> Result<Self, String> {
        Self::with_config(persona, DayPlanConfig::quick(), seed)
    }

    fn with_config(persona: &str, config: DayPlanConfig, seed: u64) -> Result<Self, String> {
        let p = Persona::by_name(persona).ok_or_else(|| format!("unknown persona '{persona}'"))?;
        config.validate()?;
        Ok(Plan {
            plan: DayPlan::generate(&p, &config, seed),
        })
    }

    /// Digest of the schedule: every pickup's app, gap, start, length
    /// and session seed.
    #[must_use]
    pub fn digest(&self) -> Digest {
        let mut h = Fnv::new();
        h.str(&self.plan.persona).f64(self.plan.tail_gap_s);
        for p in &self.plan.pickups {
            h.str(&p.app)
                .f64(p.gap_before_s)
                .f64(p.start_s)
                .f64(p.duration_s)
                .u64(p.session_seed);
        }
        h.finish()
    }

    /// Apps the day opens, sorted.
    #[must_use]
    pub fn apps(&self) -> Vec<String> {
        self.plan.distinct_apps()
    }

    /// Simulated length of the day, seconds.
    #[must_use]
    pub fn day_length_s(&self) -> f64 {
        self.plan.day_length_s
    }

    /// Per-pickup replay inputs, plus the tail gap's ticks.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown app in the plan.
    pub fn replay_inputs(&self) -> Result<(Vec<PickupInputs>, Vec<f64>), String> {
        let gap_tick = DaySpec::new(self.plan.clone(), "schedutil").gap_tick_s;
        let pickups = self
            .plan
            .pickups
            .iter()
            .map(|p| {
                Ok(PickupInputs {
                    gap_dts: gap_ticks(p.gap_before_s, gap_tick),
                    demand: DemandTrace::record(&p.app, p.duration_s, p.session_seed)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok((pickups, gap_ticks(self.plan.tail_gap_s, gap_tick)))
    }
}

/// Marks a [`Probe`] at every day segment boundary. `enabled()` is a
/// constant `false`, so the tick loops stay the untraced ones.
struct SegmentMarks<'p> {
    probe: Option<&'p mut Probe>,
}

impl TraceSink for SegmentMarks<'_> {
    fn enabled(&self) -> bool {
        false
    }

    fn begin_segment(&mut self, _kind: SegmentKind, _index: usize) {
        if let Some(p) = self.probe.as_mut() {
            p.mark();
        }
    }

    fn record(&mut self, _view: &TickView<'_>) {}
}

/// One governor's day.
#[derive(Debug, Clone, PartialEq)]
pub struct DayOutcome {
    /// Governor name.
    pub governor: String,
    /// Screen-on mean power, watts.
    pub avg_power_w: f64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Peak hot-spot temperature over the day, °C.
    pub peak_temp_hot_c: f64,
}

/// The reports of one lockstep day.
#[derive(Debug)]
pub struct DayRun {
    reports: Vec<DayReport>,
}

impl DayRun {
    /// Digest of every lane's report, sessions included.
    #[must_use]
    pub fn digest(&self) -> Digest {
        let mut h = Fnv::new();
        for r in &self.reports {
            h.str(&r.governor).u64(u64::from(r.trainings));
            for v in [
                r.screen_on_s,
                r.screen_off_s,
                r.energy_screen_on_j,
                r.energy_gap_j,
                r.avg_fps,
                r.avg_power_w,
                r.peak_temp_hot_c,
                r.battery_drain_pct,
                r.charges_used,
            ] {
                h.f64(v);
            }
            for s in &r.sessions {
                h.u64(s.pickup as u64).str(&s.app);
                Stats::of(&s.summary).hash(&mut h);
                h.f64(s.ppdw).f64(s.start_temp_hot_c);
            }
        }
        h.finish()
    }

    /// Per-governor headline numbers, in lane order.
    #[must_use]
    pub fn outcomes(&self) -> Vec<DayOutcome> {
        self.reports
            .iter()
            .map(|r| DayOutcome {
                governor: r.governor.clone(),
                avg_power_w: r.avg_power_w,
                energy_j: r.energy_total_j(),
                peak_temp_hot_c: r.peak_temp_hot_c,
            })
            .collect()
    }
}

/// Runs `plan` on `device` with one lockstep lane per governor through
/// `run_day_lanes_traced`. `next` lanes start from a store seeded with
/// `tables`. When `probe` is given, it is marked at every segment
/// boundary.
///
/// # Errors
///
/// Returns a message when a `next` lane lacks a table for a planned app.
pub fn run_day_lanes(
    device: &Device,
    plan: &Plan,
    governors: &[&str],
    tables: &BTreeMap<String, Table>,
    probe: Option<&mut Probe>,
) -> Result<DayRun, String> {
    let specs: Vec<DaySpec> = governors
        .iter()
        .map(|g| DaySpec::new(plan.plan.clone(), g).with_preset(device.preset.clone()))
        .collect();
    let mut stores: Vec<QTableStore<DenseStore>> = Vec::with_capacity(governors.len());
    for g in governors {
        let mut store = QTableStore::in_memory();
        if *g == "next" {
            for app in plan.plan.distinct_apps() {
                let table = tables
                    .get(&app)
                    .ok_or_else(|| format!("no trained table for '{app}'"))?;
                store.save(&app, &table.dense).map_err(|e| e.to_string())?;
            }
        }
        stores.push(store);
    }
    let mut store_refs: Vec<&mut QTableStore<DenseStore>> = stores.iter_mut().collect();
    let mut sinks: Vec<SegmentMarks<'_>> = Vec::with_capacity(governors.len());
    sinks.push(SegmentMarks { probe });
    sinks.extend((1..governors.len()).map(|_| SegmentMarks { probe: None }));
    let reports = simkit::run_day_lanes_traced(&specs, &mut store_refs, &mut sinks);
    Ok(DayRun { reports })
}

// ---------------------------------------------------------------------------
// Federated campaigns
// ---------------------------------------------------------------------------

/// The platforms campaign devices alternate between.
pub const CAMPAIGN_PLATFORMS: [&str; 2] = ["exynos9810", "exynos9820"];

/// A small federated campaign on quick (4-pickup) days.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
}

/// The trained warm-seed tables of a campaign.
#[derive(Debug, Clone)]
pub struct WarmSeed {
    seed: CampaignWarmSeed,
}

/// Counts a campaign reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignCounts {
    /// Uplink bytes over all rounds.
    pub uplink_bytes: u64,
    /// Downlink bytes over all rounds.
    pub downlink_bytes: u64,
    /// States of the final merged tables.
    pub merged_states: u64,
    /// Peak per-round resident table bytes.
    pub peak_table_bytes: u64,
}

/// A finished campaign.
#[derive(Debug)]
pub struct CampaignRun {
    report: CampaignReport,
}

impl Campaign {
    /// `devices` devices alternating over [`CAMPAIGN_PLATFORMS`], for
    /// `rounds` rounds, seeded `seed`.
    #[must_use]
    pub fn quick(devices: usize, rounds: usize, seed: u64) -> Self {
        Campaign {
            config: CampaignConfig::quick(devices, rounds, seed)
                .with_platforms(&CAMPAIGN_PLATFORMS),
        }
    }

    /// Simulated device-seconds the campaign runs.
    #[must_use]
    pub fn device_seconds(&self) -> f64 {
        (self.config.devices * self.config.rounds) as f64 * self.config.plan.day_length_s
    }

    /// Trains the campaign's warm-seed tables on one worker.
    ///
    /// # Errors
    ///
    /// Returns the program's message for an invalid configuration.
    pub fn warm_seed(&self) -> Result<WarmSeed, String> {
        simkit::warm_seed(&self.config, 1).map(|seed| WarmSeed { seed })
    }

    /// Runs every round from a copy of `seed` on `workers` threads.
    #[must_use]
    pub fn run(&self, seed: &WarmSeed, workers: usize) -> CampaignRun {
        CampaignRun {
            report: simkit::run_campaign_from_seed(&self.config, seed.seed.clone(), workers),
        }
    }

    /// Generates the quick campaign day of `persona` seeded `seed`.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown persona.
    pub fn day_plan(&self, persona: &str, seed: u64) -> Result<Plan, String> {
        Plan::with_config(persona, self.config.plan, seed)
    }
}

impl CampaignRun {
    /// Digest of the ledger's learning counts, every cohort statistic
    /// and the decoded merged tables' Q-values and visit counts. Byte
    /// counts are left out, so a codec change does not move it.
    ///
    /// # Errors
    ///
    /// Returns the codec's message if a merged table does not decode.
    pub fn digest(&self) -> Result<Digest, String> {
        let mut h = Fnv::new();
        for r in &self.report.rounds {
            h.u64(r.round as u64).u64(r.states).u64(r.visits);
        }
        for c in &self.report.cohorts {
            h.str(&c.persona).str(&c.platform).str(&c.bin).u64(c.count);
            for m in &c.metrics {
                h.str(m.name);
                for v in [m.min, m.max, m.mean, m.p50, m.p90, m.p99] {
                    h.f64(v);
                }
            }
        }
        for t in &self.report.tables {
            h.str(&t.platform).str(&t.app).u64(t.states).u64(t.visits);
            let table: DenseQTable = qlearn::decode_table(&t.encoded).map_err(|e| e.to_string())?;
            hash_table(&mut h, &table);
        }
        Ok(h.finish())
    }

    /// The campaign's byte and state counts.
    #[must_use]
    pub fn counts(&self) -> CampaignCounts {
        CampaignCounts {
            uplink_bytes: self.report.total_uplink_bytes(),
            downlink_bytes: self.report.total_downlink_bytes(),
            merged_states: self.report.tables.iter().map(|t| t.states).sum(),
            peak_table_bytes: self
                .report
                .rounds
                .iter()
                .map(|r| r.table_bytes)
                .max()
                .unwrap_or(0),
        }
    }
}

/// Tables every campaign device starts a round from, one per
/// (platform, app), trained like a campaign warm seed.
#[derive(Debug, Clone)]
pub struct RoundBases {
    bases: BTreeMap<(usize, String), Table>,
}

impl RoundBases {
    /// Trains one table per platform of [`CAMPAIGN_PLATFORMS`] and app
    /// of the persona union at `campaign`'s budget.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown platform.
    pub fn train(campaign: &Campaign) -> Result<Self, String> {
        let mut bases = BTreeMap::new();
        for (p, name) in CAMPAIGN_PLATFORMS.iter().enumerate() {
            let device = Device::by_name(name)?;
            for app in persona_app_union() {
                let trained = train(&device, &app, campaign.config.train_budget_s);
                bases.insert((p, app), trained.table);
            }
        }
        Ok(RoundBases { bases })
    }
}

/// One device's day of online learning: the copy-on-write views of the
/// round's tables it wrote to.
#[derive(Debug)]
pub struct DeviceDay {
    platform: usize,
    overlays: Vec<(String, QTable<OverlayStore>)>,
}

impl DeviceDay {
    /// Lives `plan` on platform `platform` of [`CAMPAIGN_PLATFORMS`]
    /// with online learning, starting from overlays of `bases`, through
    /// `run_day`, and keeps the overlays.
    ///
    /// # Errors
    ///
    /// Returns a message when a base table is missing.
    pub fn live(
        campaign: &Campaign,
        bases: &RoundBases,
        platform: usize,
        plan: &Plan,
        agent_seed: u64,
    ) -> Result<Self, String> {
        let name = CAMPAIGN_PLATFORMS
            .get(platform)
            .ok_or_else(|| format!("no platform {platform}"))?;
        let mut device = Device::by_name(name)?;
        device.preset.next = device.preset.next.clone().with_seed(agent_seed);
        let apps = plan.plan.distinct_apps();
        let mut store: QTableStore<OverlayStore> = QTableStore::in_memory();
        for app in &apps {
            let base = bases
                .bases
                .get(&(platform, app.clone()))
                .ok_or_else(|| format!("no base table for '{app}'"))?;
            store
                .save(app, &QTable::overlay(Arc::clone(&base.dense)))
                .map_err(|e| e.to_string())?;
        }
        let mut spec = DaySpec::new(plan.plan.clone(), "next")
            .with_preset(device.preset)
            .with_train_budget_s(campaign.config.train_budget_s)
            .with_train_online(true);
        spec.gap_tick_s = campaign.config.gap_tick_s;
        spec.battery = campaign.config.battery;
        let _ = simkit::run_day(&spec, &mut store);
        let mut overlays = Vec::with_capacity(apps.len());
        for app in apps {
            let table = store
                .take(&app)
                .ok_or_else(|| format!("the day store lost '{app}'"))?;
            overlays.push((app, table));
        }
        Ok(DeviceDay { platform, overlays })
    }

    /// Rows the day wrote, over all apps.
    #[must_use]
    pub fn touched_rows(&self) -> u64 {
        self.overlays
            .iter()
            .map(|(_, t)| t.touched_rows() as u64)
            .sum()
    }

    /// Encodes every overlay's uplink delta; returns the total bytes.
    #[must_use]
    pub fn encode_deltas(&self) -> u64 {
        self.overlays
            .iter()
            .map(|(_, t)| black_box(t.delta_bytes()).len() as u64)
            .sum()
    }
}

/// The cloud side of a round: one accumulator per (platform, app).
#[derive(Debug, Default)]
pub struct Merge {
    accs: BTreeMap<(usize, String), MergeAccumulator<DenseStore>>,
}

/// The merged tables of a round.
#[derive(Debug)]
pub struct Merged {
    tables: Vec<DenseQTable>,
}

impl Merge {
    /// Folds every overlay of `day` (`MergeAccumulator::fold_overlay`).
    ///
    /// # Errors
    ///
    /// Returns the merge's message for overlays of different bases.
    pub fn fold(&mut self, day: &DeviceDay) -> Result<(), String> {
        for (app, table) in &day.overlays {
            let acc = self
                .accs
                .entry((day.platform, app.clone()))
                .or_insert_with(|| MergeAccumulator::new(table.n_actions(), table.default_q()));
            acc.fold_overlay(table).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Finishes every accumulator (`finish_normalized`).
    ///
    /// # Errors
    ///
    /// Returns the merge's message for an empty accumulator.
    pub fn finish(self) -> Result<Merged, String> {
        let tables = self
            .accs
            .into_values()
            .map(|acc| acc.finish_normalized().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Merged { tables })
    }
}

impl Merged {
    /// States over every merged table.
    #[must_use]
    pub fn states(&self) -> u64 {
        self.tables.iter().map(|t| t.len() as u64).sum()
    }

    /// Encodes every merged table (`encode_table`); returns the bytes.
    #[must_use]
    pub fn encode(&self) -> u64 {
        self.tables
            .iter()
            .map(|t| black_box(qlearn::encode_table(t)).len() as u64)
            .sum()
    }

    /// Digest of every merged Q-value and visit count.
    #[must_use]
    pub fn digest(&self) -> Digest {
        let mut h = Fnv::new();
        for t in &self.tables {
            hash_table(&mut h, t);
        }
        h.finish()
    }
}
