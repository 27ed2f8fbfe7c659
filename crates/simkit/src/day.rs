//! Day-scale simulation: a whole waking day as one continuous run.
//!
//! The paper argues at the *battery-day* horizon — 52 pickups,
//! Deloitte session lengths, one stored Q-table per app reused across
//! sessions (§IV-B) — but a per-session comparison cannot see it. This
//! module executes a [`workload::DayPlan`] end to end on **one
//! physical device state**:
//!
//! ```text
//!  ┌ gap ┐┌─ session 1 ─┐┌ gap ┐┌─ session 2 ─┐     ┌ tail gap ┐
//!  │ idle ││ app A, real ││ idle ││ app B, real │ ... │   idle    │
//!  │ tick ││ Engine run  ││ tick ││ Engine run  │     │   tick    │
//!  └──────┘└─────────────┘└──────┘└─────────────┘     └───────────┘
//!     └────────── one Soc: thermal state carries through ──────────┘
//! ```
//!
//! * sessions run through the real [`Engine`] under the chosen
//!   governor,
//! * screen-off gaps keep ticking the SoC with idle (zero) demand at a
//!   coarse tick, so each pickup starts from a physically-warm device
//!   instead of the cold-boot state a per-session harness fakes; no
//!   governor runs in a gap, so the caps and floors it set last stay
//!   in force (only `schedutil`, `next` and `powersave` leave every
//!   domain free to fall to its lowest OPP),
//! * for the `next` governor, per-app Q-tables are fetched and stored
//!   through [`QTableStore`] exactly as §IV-B prescribes: the first
//!   pickup of an unseen app trains once on a dedicated training
//!   device (or warm-starts from a pre-seeded fleet table), every
//!   later pickup reuses the stored table.
//!
//! Everything in a [`DayReport`] is a pure function of the
//! [`DaySpec`] plus the store's initial contents — [`run_days`] fans
//! plans × governors out on the shared-cursor
//! [`crate::sweep::parallel_map`] and is byte-identical for any worker
//! count, the same 1-vs-N guarantee the sweep and campaign engines give.
//!
//! Each lane of a day is one value holding its spec, its store, its
//! governor (the per-app `next` agents, or one baseline governor), its
//! session reports and its running sums, which it turns into its
//! report; one private loop steps the lanes of a batch. [`run_day`] and
//! [`run_day_traced`] run one lane, [`run_day_lanes_traced`] several.
//! A day needs a recipe [`workload::DayPlanConfig::validate`] accepts
//! and a gap tick and minimum session of at least one engine tick
//! ([`crate::engine::TICK_S`]): [`replay_day`] and
//! [`crate::campaign::CampaignConfig::validate`] return an error naming
//! the field otherwise, and the runners panic.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use governors::Governor;
use mpsoc::perf::FrameDemand;
use mpsoc::SocBatch;
use next_core::ppdw::ppdw;
use next_core::{NextAgent, QTableStore};
use qlearn::qtable::QTable;
use qlearn::{DenseQTable, DenseStore, QStore};
use workload::{idle_demand, DayPlan, Persona, PickupPlan, SessionPlan, SessionSim};

use crate::batch::BatchLane;
use crate::engine::{Engine, RunOutcome, TICK_S};
use crate::metrics::{Battery, Summary, Trace};
use crate::platform::PlatformPreset;
use crate::sweep::{parallel_map, StandardEvaluator};
use crate::trace::{
    NullSink, SegmentKind, TickTrace, TickView, TraceMeta, TraceRecorder, TraceSink,
};
use crate::trainer::{TrainSpec, Trainer};

/// One fully-specified day simulation.
#[derive(Debug, Clone)]
pub struct DaySpec {
    /// The generated day to execute.
    pub plan: DayPlan,
    /// Governor name (see [`StandardEvaluator::GOVERNORS`]).
    pub governor: String,
    /// Platform preset the day runs on.
    pub preset: PlatformPreset,
    /// Tick length during screen-off gaps, seconds. The thermal network
    /// sub-steps internally, so a coarse gap tick is stable; 1 s keeps
    /// a 16 h day cheap while still resolving the cool-down curves.
    pub gap_tick_s: f64,
    /// Base training budget for first-use Q-table training, simulated
    /// seconds (games get twice the base, as in §V).
    pub train_budget_s: f64,
    /// Battery pack the drain is reported against.
    pub battery: Battery,
    /// When true, `next` lanes **keep learning during the day**: agents
    /// are warm-started from the stored table (§IV-C device-side hook,
    /// scaled exploration) and the updated per-app tables are written
    /// back to the lane's store when the day ends. When false (the
    /// default, and the behaviour of every pre-campaign artifact) the
    /// day runs greedy inference and never mutates the store beyond
    /// first-use training.
    pub train_online: bool,
}

impl DaySpec {
    /// A day of `plan` under `governor` on the paper's defaults: stock
    /// platform preset, 1 s gap ticks, §V training budget, Note 9 pack.
    #[must_use]
    pub fn new(plan: DayPlan, governor: &str) -> Self {
        DaySpec {
            plan,
            governor: governor.to_owned(),
            preset: PlatformPreset::default(),
            gap_tick_s: 1.0,
            train_budget_s: StandardEvaluator::BASE_TRAIN_BUDGET_S,
            battery: Battery::note9(),
            train_online: false,
        }
    }

    /// Runs on a different platform preset.
    #[must_use]
    pub fn with_preset(mut self, preset: PlatformPreset) -> Self {
        self.preset = preset;
        self
    }

    /// Overrides the base training budget.
    #[must_use]
    pub fn with_train_budget_s(mut self, budget_s: f64) -> Self {
        self.train_budget_s = budget_s;
        self
    }

    /// Enables online learning during the day (see
    /// [`DaySpec::train_online`]) — the campaign runner's federated
    /// local-round mode.
    #[must_use]
    pub fn with_train_online(mut self, train_online: bool) -> Self {
        self.train_online = train_online;
        self
    }

    /// The trace metadata describing this day — the regeneration
    /// recipe [`replay_day`] consumes. Everything in it pins the run:
    /// the plan is regenerated from `(persona, config, seed)` and the
    /// store contents from `(governor, train_budget_s, preset)`.
    ///
    /// # Panics
    ///
    /// Panics for an online-training day: the trace header does not
    /// carry `train_online`, so such a day could not be replayed from
    /// its metadata (campaign rounds are reproduced from the campaign
    /// checkpoint recipe instead).
    #[must_use]
    pub fn trace_meta(&self) -> TraceMeta {
        assert!(
            !self.train_online,
            "online-training days are not traceable: the trace header \
             cannot express train_online"
        );
        #[allow(clippy::cast_possible_truncation)]
        TraceMeta {
            platform: self.preset.name.clone(),
            governor: self.governor.clone(),
            persona: self.plan.persona.clone(),
            seed: self.plan.seed,
            plan: self.plan.config,
            gap_tick_s: self.gap_tick_s,
            train_budget_s: self.train_budget_s,
            battery: self.battery,
            tick_s: TICK_S,
            n_domains: self.preset.soc.platform.n_domains() as u8,
        }
    }
}

/// Outcome of one pickup's session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Pickup index within the day (0-based).
    pub pickup: usize,
    /// Application of the session.
    pub app: String,
    /// Simulated day time the session started, seconds.
    pub start_s: f64,
    /// Executed session length, seconds (the plan duration rounded to
    /// whole engine ticks).
    pub duration_s: f64,
    /// Run summary (power/FPS/thermals/energy).
    pub summary: Summary,
    /// PPDW (Eq. 1) of the session's mean operating point.
    pub ppdw: f64,
    /// Hot-spot temperature when the session began, °C — shows the
    /// warm-start the preceding gap left behind.
    pub start_temp_hot_c: f64,
}

/// Aggregates of one simulated day — the battery-day quantities the
/// paper's premise is about.
#[derive(Debug, Clone, PartialEq)]
pub struct DayReport {
    /// The day that ran (plan metadata: persona, seed, schedule).
    pub plan: DayPlan,
    /// Governor that ran the day.
    pub governor: String,
    /// Platform preset name.
    pub platform: String,
    /// Per-pickup session outcomes, in pickup order.
    pub sessions: Vec<SessionReport>,
    /// Executed screen-on time, seconds.
    pub screen_on_s: f64,
    /// Executed screen-off time, seconds.
    pub screen_off_s: f64,
    /// Energy consumed while the screen was on, joules.
    pub energy_screen_on_j: f64,
    /// Energy consumed during screen-off gaps, joules.
    pub energy_gap_j: f64,
    /// Session-length-weighted mean FPS over the day's screen-on time.
    pub avg_fps: f64,
    /// Screen-on mean power, watts.
    pub avg_power_w: f64,
    /// Peak hot-spot temperature over the whole day (sessions and
    /// gaps), °C.
    pub peak_temp_hot_c: f64,
    /// One-time Q-table trainings performed during the day (`next`
    /// only; 0 when every app was already in the store).
    pub trainings: u32,
    /// Battery drain over the day, percent of the pack, saturating at
    /// 100 (see [`Battery::drain_percent`]).
    pub battery_drain_pct: f64,
    /// Full charges the day consumed (unclamped; > 1 means the day
    /// needs a recharge).
    pub charges_used: f64,
}

impl DayReport {
    /// Total energy over the day, joules.
    #[must_use]
    pub fn energy_total_j(&self) -> f64 {
        self.energy_screen_on_j + self.energy_gap_j
    }

    /// Number of pickups the day executed.
    #[must_use]
    pub fn pickup_count(&self) -> usize {
        self.sessions.len()
    }
}

/// Builds a baseline governor by name (the `next` agent is constructed
/// per app from its stored table instead).
fn baseline_governor(name: &str) -> Box<dyn Governor> {
    // qlint::allow(PN01, reason = "run_day documents the panic; governor names come from validated specs")
    governors::by_name(name).unwrap_or_else(|| panic!("unknown governor '{name}'"))
}

/// Checks that a day's screen-off gaps tick, and its sessions last, at
/// least one engine tick. A gap tick below the precision of the time
/// left in a gap never ends the gap, and a session shorter than half a
/// tick runs no tick at all.
///
/// # Errors
///
/// Returns a message naming the gap tick or the minimum session.
pub(crate) fn check_ticks(gap_tick_s: f64, min_session_s: f64) -> Result<(), String> {
    if !(gap_tick_s >= TICK_S && gap_tick_s.is_finite()) {
        return Err(format!(
            "gap tick must be finite and at least one {TICK_S} s engine tick, got {gap_tick_s} s"
        ));
    }
    if !(min_session_s >= TICK_S && min_session_s.is_finite()) {
        return Err(format!(
            "minimum session must be finite and at least one {TICK_S} s engine tick, got \
             {min_session_s} s"
        ));
    }
    Ok(())
}

/// Fetches the app's table from the store, training once on first use
/// (§IV-B). Returns the table and whether a training actually ran.
///
/// Training always runs on the dense backend (the [`Trainer`]'s native
/// layout) and converts into the store's backend afterwards; campaign
/// stores are pre-seeded with every app's overlay, so the train branch
/// never fires there.
fn fetch_or_train<B: QStore>(
    store: &mut QTableStore<B>,
    app: &str,
    spec: &DaySpec,
) -> (QTable<B>, bool) {
    if let Some(table) = store.load(app) {
        return (table, false);
    }
    let budget = StandardEvaluator::train_budget_for(spec.train_budget_s, app);
    let train_spec = TrainSpec::new(
        app,
        spec.preset.next.clone(),
        StandardEvaluator::TRAIN_SEED,
        budget,
    )
    .with_soc(spec.preset.soc.clone());
    let out = Trainer::new().train(train_spec);
    let table = out.agent.into_table().to_backend::<B>();
    let Ok(()) = store.save(app, &table);
    (table, true)
}

/// Ticks every lane of the batch through a screen-off gap with idle
/// demand, writing `(energy_j, peak_temp_hot_c, elapsed_s)` into
/// `acc[lane]`. The display is off: no frames and no governor control
/// steps, so the caps and floors a lane's governor set before the gap
/// stay in force through it, and the kernel's util tracking picks
/// levels within them. Under `schedutil`, `next` and `powersave` every
/// domain reaches level 0 within a few ticks; `performance` holds
/// every domain at its top OPP, and `intqos` and `ondemand` hold the
/// raised floors they set.
fn run_gap_lanes<S: TraceSink>(
    batch: &mut SocBatch,
    gap_s: f64,
    tick_s: f64,
    idle: &[FrameDemand],
    acc: &mut [(f64, f64, f64)],
    sinks: &mut [S],
) {
    for a in acc.iter_mut() {
        *a = (0.0, f64::MIN, 0.0);
    }
    let mut left = gap_s;
    while left > 1e-9 {
        let dt = tick_s.min(left);
        batch.tick(dt, idle);
        for (l, a) in acc.iter_mut().enumerate() {
            let state = batch.state(l);
            a.0 += batch.tick_output(l).power_w * dt;
            a.1 = a.1.max(state.temp_hot_c);
            a.2 += dt;
            if sinks[l].enabled() {
                sinks[l].record(&TickView {
                    state,
                    dt_s: dt,
                    decision: None,
                });
            }
        }
        left -= dt;
    }
}

/// What closes a day lane's control loop.
enum LaneGovernor<B: QStore> {
    /// `next`: one persistent inference agent per app for the whole day
    /// (the §IV-B deployment shape), made from the lane's store on the
    /// app's first pickup. The table is fetched and the dense arena
    /// allocated once per distinct app, not once per pickup — a
    /// 52-pickup day would otherwise clone tens of MB of Q-table 52
    /// times.
    Next(BTreeMap<String, NextAgent<B>>),
    /// A baseline governor, reset before every session.
    Baseline(Box<dyn Governor>),
}

/// One lane of a lockstep day: its spec, its store, its governor, the
/// sessions it ran and the running sums its [`DayReport`] is made of.
struct DayLane<'a, B: QStore> {
    spec: &'a DaySpec,
    store: &'a mut QTableStore<B>,
    governor: LaneGovernor<B>,
    sessions: Vec<SessionReport>,
    screen_on_s: f64,
    screen_off_s: f64,
    energy_screen_on_j: f64,
    energy_gap_j: f64,
    peak_temp_hot_c: f64,
    fps_weighted: f64,
    trainings: u32,
}

impl<'a, B: QStore> DayLane<'a, B> {
    /// The lane of `spec` over `store`, before its day starts.
    ///
    /// # Panics
    ///
    /// Panics on an unknown governor.
    fn new(spec: &'a DaySpec, store: &'a mut QTableStore<B>) -> Self {
        let governor = if spec.governor == "next" {
            LaneGovernor::Next(BTreeMap::new())
        } else {
            LaneGovernor::Baseline(baseline_governor(&spec.governor))
        };
        DayLane {
            spec,
            store,
            governor,
            sessions: Vec::with_capacity(spec.plan.pickups.len()),
            screen_on_s: 0.0,
            screen_off_s: 0.0,
            energy_screen_on_j: 0.0,
            energy_gap_j: 0.0,
            peak_temp_hot_c: f64::MIN,
            fps_weighted: 0.0,
            trainings: 0,
        }
    }

    /// Adds one gap's `(energy_j, peak_temp_hot_c, elapsed_s)`.
    fn add_gap(&mut self, &(energy_j, peak_temp_hot_c, elapsed_s): &(f64, f64, f64)) {
        self.energy_gap_j += energy_j;
        self.screen_off_s += elapsed_s;
        self.peak_temp_hot_c = self.peak_temp_hot_c.max(peak_temp_hot_c);
    }

    /// The governor for a session of `app`, ready to run it: a `next`
    /// lane's agent for the app, made on the app's first pickup
    /// (training once through the lane's store on first use), with a
    /// fresh frame window; or the baseline governor, reset.
    fn session_governor(&mut self, app: &str) -> &mut dyn Governor {
        match &mut self.governor {
            LaneGovernor::Next(agents) => {
                let agent = match agents.entry(app.to_owned()) {
                    Entry::Occupied(slot) => slot.into_mut(),
                    Entry::Vacant(slot) => {
                        let (table, trained) = fetch_or_train(self.store, app, self.spec);
                        self.trainings += u32::from(trained);
                        let config = self.spec.preset.next.clone();
                        slot.insert(if self.spec.train_online {
                            // Federated local round: keep learning from
                            // the stored (fleet-merged) table with the
                            // §IV-C warm-start exploration scale.
                            NextAgent::warm_start(config, table)
                        } else {
                            NextAgent::with_table(config, table, false)
                        })
                    }
                };
                agent.start_session();
                agent
            }
            LaneGovernor::Baseline(governor) => {
                governor.reset();
                governor.as_mut()
            }
        }
    }

    /// Adds the session of pickup `i`, which ran `duration_s` from a
    /// hot spot at `start_temp_hot_c` and is summarised by `summary`.
    fn add_session(
        &mut self,
        i: usize,
        pickup: &PickupPlan,
        duration_s: f64,
        start_temp_hot_c: f64,
        summary: Summary,
    ) {
        self.energy_screen_on_j += summary.energy_j;
        self.screen_on_s += duration_s;
        self.peak_temp_hot_c = self.peak_temp_hot_c.max(summary.peak_temp_hot_c);
        self.fps_weighted += summary.avg_fps * duration_s;
        let next = &self.spec.preset.next;
        self.sessions.push(SessionReport {
            pickup: i,
            app: pickup.app.clone(),
            start_s: pickup.start_s,
            duration_s,
            ppdw: ppdw(
                summary.avg_fps.max(next.bounds.fps_least),
                summary.avg_power_w,
                summary.avg_temp_hot_c,
                next.ambient_c,
            ),
            start_temp_hot_c,
            summary,
        });
    }

    /// Ends the lane's day: an online-training lane writes the updated
    /// per-app tables back into its store (in app-name order, so the
    /// store contents are deterministic), and the sums become the
    /// lane's report.
    fn finish(self) -> DayReport {
        let spec = self.spec;
        if spec.train_online {
            if let LaneGovernor::Next(agents) = self.governor {
                for (app, agent) in agents {
                    let Ok(()) = self.store.save(&app, &agent.into_table());
                }
            }
        }
        let energy_total = self.energy_screen_on_j + self.energy_gap_j;
        let per_screen_on_s = |x: f64| {
            if self.screen_on_s > 0.0 {
                x / self.screen_on_s
            } else {
                0.0
            }
        };
        DayReport {
            plan: spec.plan.clone(),
            governor: spec.governor.clone(),
            platform: spec.preset.name.clone(),
            sessions: self.sessions,
            screen_on_s: self.screen_on_s,
            screen_off_s: self.screen_off_s,
            energy_screen_on_j: self.energy_screen_on_j,
            energy_gap_j: self.energy_gap_j,
            avg_fps: per_screen_on_s(self.fps_weighted),
            avg_power_w: per_screen_on_s(self.energy_screen_on_j),
            peak_temp_hot_c: self.peak_temp_hot_c,
            trainings: self.trainings,
            battery_drain_pct: spec.battery.drain_percent(energy_total),
            charges_used: spec.battery.charges_used(energy_total),
        }
    }
}

/// The one day loop: runs `lanes` through their shared day in lockstep
/// on one batch, lane `l` announcing its segments and ticks to
/// `sinks[l]`.
///
/// # Panics
///
/// As [`run_day_lanes_traced`].
fn run_lanes<B: QStore, S: TraceSink>(lanes: &mut [DayLane<'_, B>], sinks: &mut [S]) {
    assert!(!lanes.is_empty(), "day batch needs at least one lane");
    assert_eq!(lanes.len(), sinks.len(), "one sink per lane");
    let first = lanes[0].spec;
    let ticks = check_ticks(first.gap_tick_s, first.plan.config.min_session_s);
    assert!(ticks.is_ok(), "{ticks:?}");
    for lane in lanes.iter() {
        let spec = lane.spec;
        assert!(
            spec.plan == first.plan
                && spec.preset.name == first.preset.name
                && spec.gap_tick_s == first.gap_tick_s
                && spec.train_budget_s == first.train_budget_s
                && spec.battery == first.battery
                && spec.train_online == first.train_online,
            "day lanes must share the plan and device; only the governor may differ"
        );
    }
    let n = lanes.len();
    let engine = Engine::new();
    // qlint::allow(PN01, reason = "every registered preset's SocConfig builds, which the preset test in simkit::platform asserts")
    let mut batch = SocBatch::replicate(&first.preset.soc, n).expect("preset SoC config is valid");
    let mut outcomes: Vec<RunOutcome> = (0..n)
        .map(|_| RunOutcome {
            trace: Trace::new(),
            presented_frames: 0,
            repeated_vsyncs: 0,
        })
        .collect();
    let idle = vec![idle_demand(); n];
    let mut gap_acc = vec![(0.0f64, 0.0f64, 0.0f64); n];

    for (i, pickup) in first.plan.pickups.iter().enumerate() {
        // Screen-off before the pickup: the device keeps cooling (or
        // holding its warmth) between sessions.
        for sink in sinks.iter_mut() {
            sink.begin_segment(SegmentKind::Gap, i);
        }
        run_gap_lanes(
            &mut batch,
            pickup.gap_before_s,
            first.gap_tick_s,
            &idle,
            &mut gap_acc,
            sinks,
        );
        let mut start_temp_hot_c = Vec::with_capacity(n);
        for (l, (lane, gap)) in lanes.iter_mut().zip(&gap_acc).enumerate() {
            lane.add_gap(gap);
            start_temp_hot_c.push(batch.state(l).temp_hot_c);
        }

        // The pickup: a real lockstep engine run on the warm devices —
        // every lane replays the identical session seed.
        let duration_s = engine.ticks_for(pickup.duration_s) as f64 * TICK_S;
        let mut sessions: Vec<SessionSim> = (0..n)
            .map(|_| {
                SessionSim::new(
                    SessionPlan::single(&pickup.app, pickup.duration_s),
                    pickup.session_seed,
                )
            })
            .collect();
        let mut batch_lanes: Vec<BatchLane<'_>> = lanes
            .iter_mut()
            .zip(sessions.iter_mut())
            .map(|(lane, session)| BatchLane {
                governor: lane.session_governor(&pickup.app),
                session,
            })
            .collect();
        for sink in sinks.iter_mut() {
            sink.begin_segment(SegmentKind::Session, i);
        }
        engine.run_lanes_traced(
            &mut batch,
            &mut batch_lanes,
            pickup.duration_s,
            &mut outcomes,
            sinks,
        );
        for ((lane, outcome), &start) in lanes.iter_mut().zip(&outcomes).zip(&start_temp_hot_c) {
            lane.add_session(i, pickup, duration_s, start, outcome.trace.summary());
        }
    }
    // Tail of the day after the last session.
    for sink in sinks.iter_mut() {
        sink.begin_segment(SegmentKind::Gap, first.plan.pickups.len());
    }
    run_gap_lanes(
        &mut batch,
        first.plan.tail_gap_s,
        first.gap_tick_s,
        &idle,
        &mut gap_acc,
        sinks,
    );
    for (lane, gap) in lanes.iter_mut().zip(&gap_acc) {
        lane.add_gap(gap);
    }
}

/// Runs one whole day: sessions through the engine, gaps through the
/// idle ticker, Q-tables through `store` (pre-seed it to model a
/// device that already has fleet tables; leave it empty for the
/// train-once-on-first-use story).
///
/// Deterministic: the report is a pure function of `(spec, store
/// contents)`.
///
/// # Panics
///
/// Panics on an unknown governor, an unknown app in the plan, or a gap
/// tick or minimum session shorter than one engine tick.
#[must_use]
pub fn run_day<B: QStore>(spec: &DaySpec, store: &mut QTableStore<B>) -> DayReport {
    let mut lanes = [DayLane::new(spec, store)];
    run_lanes(&mut lanes, &mut [NullSink]);
    let [lane] = lanes;
    lane.finish()
}

/// [`run_day`] with per-tick trace recording: returns the report plus
/// the finished [`TickTrace`] (metadata from [`DaySpec::trace_meta`],
/// one record per engine/gap tick).
///
/// # Panics
///
/// As [`run_day`], and as [`DaySpec::trace_meta`].
#[must_use]
pub fn run_day_traced<B: QStore>(
    spec: &DaySpec,
    store: &mut QTableStore<B>,
) -> (DayReport, TickTrace) {
    let mut sinks = [TraceRecorder::new(spec.trace_meta())];
    let mut lanes = [DayLane::new(spec, store)];
    run_lanes(&mut lanes, &mut sinks);
    let ([lane], [sink]) = (lanes, sinks);
    (lane.finish(), sink.finish())
}

/// Runs one day for several governors **in lockstep on the batched
/// kernel**, with one [`TraceSink`] per lane observing every tick of
/// that lane's day (gap ticks included, with no decision). Every lane
/// replays the identical plan (same pickups, same session seeds) on its
/// own device column, so governors are compared on the same day at a
/// fraction of the lane-sequential cost. Lane `l` uses
/// `specs[l].governor`, `stores[l]` and `sinks[l]`.
///
/// Per lane, results are bit-identical to [`run_day`] — batching is
/// unobservable in the reports. Segment boundaries are announced
/// through [`TraceSink::begin_segment`]: the gap before pickup `i` and
/// the session of pickup `i` both carry index `i`; the tail gap carries
/// the pickup count.
///
/// # Panics
///
/// As [`run_day`], plus mismatched `specs`, `stores` and `sinks`
/// lengths, or specs that do not share the same plan, preset, gap tick,
/// training budget, and battery.
#[must_use]
pub fn run_day_lanes_traced<B: QStore, S: TraceSink>(
    specs: &[DaySpec],
    stores: &mut [&mut QTableStore<B>],
    sinks: &mut [S],
) -> Vec<DayReport> {
    assert_eq!(specs.len(), stores.len(), "one store per lane");
    let mut lanes: Vec<DayLane<'_, B>> = specs
        .iter()
        .zip(stores.iter_mut())
        .map(|(spec, store)| DayLane::new(spec, store))
        .collect();
    run_lanes(&mut lanes, sinks);
    lanes.into_iter().map(DayLane::finish).collect()
}

/// Fans `plans × governors` out on the parallel runner
/// ([`crate::sweep::parallel_map`]):
/// one day cell per (plan, governor), every cell replaying the
/// identical plan so governors are compared on the same day.
///
/// `next` cells share Q-tables trained **once per distinct app** up
/// front (themselves in parallel), modelling devices whose store
/// already holds the per-app tables — so a day's `trainings` count is
/// 0 here; use [`run_day`] with an empty store for the first-boot
/// train-on-first-use story.
///
/// Deterministic: the returned reports — every float — are identical
/// for any `workers` value.
///
/// # Panics
///
/// Panics on unknown governor or app names.
#[must_use]
pub fn run_days(
    plans: &[DayPlan],
    governors: &[String],
    preset: &PlatformPreset,
    gap_tick_s: f64,
    train_budget_s: f64,
    workers: usize,
) -> Vec<DayReport> {
    let cells = run_cells(
        plans,
        governors,
        preset,
        gap_tick_s,
        train_budget_s,
        workers,
        |_| NullSink,
    );
    cells.into_iter().map(|(report, _)| report).collect()
}

/// [`run_days`] with per-cell trace recording: every `(plan, governor)`
/// cell returns its report paired with the lane's [`TickTrace`].
/// Recorders live inside the parallel cells, so the traces — like the
/// reports — are byte-identical for any `workers` value.
///
/// # Panics
///
/// Panics on unknown governor or app names.
#[must_use]
pub fn run_days_traced(
    plans: &[DayPlan],
    governors: &[String],
    preset: &PlatformPreset,
    gap_tick_s: f64,
    train_budget_s: f64,
    workers: usize,
) -> Vec<(DayReport, TickTrace)> {
    let cells = run_cells(
        plans,
        governors,
        preset,
        gap_tick_s,
        train_budget_s,
        workers,
        |spec| TraceRecorder::new(spec.trace_meta()),
    );
    cells
        .into_iter()
        .map(|(report, recorder)| (report, recorder.finish()))
        .collect()
}

/// The cell runner of [`run_days`] and [`run_days_traced`]: one batched
/// cell per plan, all governors riding the same [`SocBatch`] in
/// lockstep, one lane each, every `next` lane's store pre-seeded with
/// the plan's tables. Lane sinks come from `sink_for`.
fn run_cells<S: TraceSink + Send>(
    plans: &[DayPlan],
    governors: &[String],
    preset: &PlatformPreset,
    gap_tick_s: f64,
    train_budget_s: f64,
    workers: usize,
    sink_for: fn(&DaySpec) -> S,
) -> Vec<(DayReport, S)> {
    let store_seed = seeded_tables(plans, governors, preset, train_budget_s, workers);
    let cells: Vec<usize> = (0..plans.len()).collect();
    let per_plan = parallel_map(&cells, workers, |&pi| {
        let plan = &plans[pi];
        let specs: Vec<DaySpec> = governors
            .iter()
            .map(|governor| DaySpec {
                plan: plan.clone(),
                governor: governor.clone(),
                preset: preset.clone(),
                gap_tick_s,
                train_budget_s,
                battery: Battery::note9(),
                train_online: false,
            })
            .collect();
        let mut stores: Vec<QTableStore> = governors
            .iter()
            .map(|governor| {
                let mut store = QTableStore::in_memory();
                if governor == "next" {
                    for app in plan.distinct_apps() {
                        let Ok(()) = store.save(&app, &store_seed[&app]);
                    }
                }
                store
            })
            .collect();
        let mut sinks: Vec<S> = specs.iter().map(sink_for).collect();
        let mut lanes: Vec<DayLane<'_, DenseStore>> = specs
            .iter()
            .zip(stores.iter_mut())
            .map(|(spec, store)| DayLane::new(spec, store))
            .collect();
        run_lanes(&mut lanes, &mut sinks);
        lanes
            .into_iter()
            .map(DayLane::finish)
            .zip(sinks)
            .collect::<Vec<_>>()
    });
    per_plan.into_iter().flatten().collect()
}

/// Trains each distinct app of `plans` once (in parallel) when the
/// grid includes the `next` governor — the store-seeding phase shared
/// by [`run_days`], [`run_days_traced`] and [`replay_day`].
fn seeded_tables(
    plans: &[DayPlan],
    governors: &[String],
    preset: &PlatformPreset,
    train_budget_s: f64,
    workers: usize,
) -> BTreeMap<String, DenseQTable> {
    let mut train_apps: Vec<String> = Vec::new();
    if governors.iter().any(|g| g == "next") {
        for plan in plans {
            train_apps.extend(plan.distinct_apps());
        }
        train_apps.sort();
        train_apps.dedup();
    }
    let outcomes = StandardEvaluator::train_for_apps(&train_apps, train_budget_s, workers, preset);
    train_apps
        .into_iter()
        .zip(outcomes.into_iter().map(|out| out.agent.into_table()))
        .collect()
}

/// Re-executes a recorded day from its [`TraceMeta`] alone and returns
/// the regenerated report and trace. Because every stage is
/// deterministic — plan generation from `(persona, config, seed)`,
/// Q-table training from `(governor, budget, preset)`, and the tick
/// loop itself — the regenerated trace is byte-identical to the
/// original recording; `next-sim replay` asserts exactly that.
///
/// # Errors
///
/// Returns a message for unknown platform/persona/governor names, a
/// foreign engine tick, a domain count that does not match the named
/// platform, a plan recipe [`workload::DayPlanConfig::validate`]
/// rejects, a gap tick or minimum session shorter than one engine tick,
/// or a training budget or battery field that is not positive and
/// finite; each message names the field.
pub fn replay_day(meta: &TraceMeta, workers: usize) -> Result<(DayReport, TickTrace), String> {
    let preset = PlatformPreset::by_name(&meta.platform)
        .ok_or_else(|| format!("unknown platform '{}'", meta.platform))?;
    let persona = Persona::by_name(&meta.persona)
        .ok_or_else(|| format!("unknown persona '{}'", meta.persona))?;
    if !StandardEvaluator::GOVERNORS.contains(&meta.governor.as_str()) {
        return Err(format!("unknown governor '{}'", meta.governor));
    }
    if meta.tick_s != TICK_S {
        return Err(format!(
            "trace was recorded at a {} s base tick; this engine runs {TICK_S} s",
            meta.tick_s
        ));
    }
    if usize::from(meta.n_domains) != preset.soc.platform.n_domains() {
        return Err(format!(
            "trace records {} domains but platform '{}' has {}",
            meta.n_domains,
            meta.platform,
            preset.soc.platform.n_domains()
        ));
    }
    meta.plan.validate()?;
    check_ticks(meta.gap_tick_s, meta.plan.min_session_s)?;
    for (field, value) in [
        ("training budget", meta.train_budget_s),
        ("battery capacity", meta.battery.capacity_mah),
        ("battery voltage", meta.battery.nominal_v),
    ] {
        if !(value > 0.0 && value.is_finite()) {
            return Err(format!("{field} must be positive and finite, got {value}"));
        }
    }
    let plan = DayPlan::generate(&persona, &meta.plan, meta.seed);
    let mut store = QTableStore::in_memory();
    let governors = [meta.governor.clone()];
    let tables = seeded_tables(
        std::slice::from_ref(&plan),
        &governors,
        &preset,
        meta.train_budget_s,
        workers,
    );
    for (app, table) in &tables {
        let Ok(()) = store.save(app, table);
    }
    let mut spec = DaySpec::new(plan, &meta.governor)
        .with_preset(preset)
        .with_train_budget_s(meta.train_budget_s);
    spec.gap_tick_s = meta.gap_tick_s;
    spec.battery = meta.battery;
    Ok(run_day_traced(&spec, &mut store))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlearn::encode_table;
    use workload::{DayPlanConfig, Persona};

    /// Default-backend store — the tests exercise the dense path; the
    /// overlay backend is covered by the campaign and store tests.
    fn dense_store() -> QTableStore {
        QTableStore::in_memory()
    }

    fn tiny_plan(seed: u64) -> DayPlan {
        let cfg = DayPlanConfig {
            pickups: 4,
            day_length_s: 400.0,
            session_scale: 0.1,
            min_session_s: 15.0,
        };
        DayPlan::generate(&Persona::socialite(), &cfg, seed)
    }

    fn tiny_spec(governor: &str) -> DaySpec {
        DaySpec::new(tiny_plan(7), governor).with_train_budget_s(30.0)
    }

    #[test]
    fn day_accounts_time_and_energy() {
        let spec = tiny_spec("schedutil");
        let report = run_day(&spec, &mut dense_store());
        assert_eq!(report.pickup_count(), 4);
        // Executed time matches the plan up to the per-session tick
        // rounding (≤ half a tick per session).
        let total = report.screen_on_s + report.screen_off_s;
        assert!(
            (total - spec.plan.day_length_s).abs() < 4.0 * 0.0125 + 1e-6,
            "day lost time: {total} vs {}",
            spec.plan.day_length_s
        );
        assert!(report.energy_screen_on_j > 0.0);
        assert!(report.energy_gap_j > 0.0, "idle gaps still burn power");
        assert!(report.battery_drain_pct > 0.0);
        assert!(report.charges_used > 0.0);
        assert_eq!(report.trainings, 0, "baselines never train");
        assert!(report.avg_fps > 0.0);
    }

    #[test]
    fn next_trains_once_per_app_and_reuses_the_store() {
        let spec = tiny_spec("next");
        let mut store = dense_store();
        let report = run_day(&spec, &mut store);
        let distinct = spec.plan.distinct_apps().len() as u32;
        assert_eq!(
            report.trainings, distinct,
            "first boot trains each app exactly once"
        );
        // A second identical day on the now-populated store trains
        // nothing and reproduces the day bit for bit.
        let again = run_day(&spec, &mut store);
        assert_eq!(again.trainings, 0);
        assert_eq!(again.sessions, report.sessions);
    }

    #[test]
    fn train_online_updates_the_store_deterministically() {
        let base_spec = tiny_spec("next");
        let mut seed_store = QTableStore::in_memory();
        // Populate the store once (train-on-first-use), then snapshot.
        let _ = run_day(&base_spec, &mut seed_store);
        let apps = base_spec.plan.distinct_apps();
        let before: Vec<Vec<u8>> = apps
            .iter()
            .map(|a| encode_table(&seed_store.load(a).expect("seeded")))
            .collect();

        // An inference day leaves the store untouched.
        let mut store = clone_store(&seed_store, &apps);
        let inference = run_day(&base_spec, &mut store);
        for (a, b) in apps.iter().zip(&before) {
            assert_eq!(&encode_table(&store.load(a).expect("kept")), b);
        }

        // An online-training day writes updated tables back…
        let online_spec = base_spec.clone().with_train_online(true);
        let mut store1 = clone_store(&seed_store, &apps);
        let online = run_day(&online_spec, &mut store1);
        let changed = apps
            .iter()
            .zip(&before)
            .any(|(a, b)| &encode_table(&store1.load(a).expect("kept")) != b);
        assert!(changed, "online day must update at least one table");
        assert_eq!(online.trainings, 0, "warm start is not a training");
        assert_eq!(online.pickup_count(), inference.pickup_count());

        // …and is itself deterministic: same spec + store, same bytes.
        let mut store2 = clone_store(&seed_store, &apps);
        let online2 = run_day(&online_spec, &mut store2);
        assert_eq!(online2.sessions, online.sessions);
        for a in &apps {
            assert_eq!(
                encode_table(&store1.load(a).expect("kept")),
                encode_table(&store2.load(a).expect("kept"))
            );
        }
    }

    fn clone_store(from: &QTableStore, apps: &[String]) -> QTableStore {
        let mut out = QTableStore::in_memory();
        for a in apps {
            let Ok(()) = out.save(a, &from.load(a).expect("app seeded"));
        }
        out
    }

    #[test]
    fn pickups_start_warm_after_busy_gaps() {
        let report = run_day(&tiny_spec("schedutil"), &mut dense_store());
        // Every pickup after the first starts above ambient: the gap
        // cooled the device but never back to cold-boot state.
        let ambient = mpsoc::DEFAULT_AMBIENT_C;
        for s in &report.sessions[1..] {
            assert!(
                s.start_temp_hot_c > ambient,
                "pickup {} started cold: {:.2} °C",
                s.pickup,
                s.start_temp_hot_c
            );
        }
    }

    /// Governors that leave the floors at level 0 (schedutil, next)
    /// let the kernel's util tracking take every domain to the bottom
    /// of its ladder before each screen-off gap ends.
    #[test]
    fn util_tracking_governors_end_every_gap_at_level_zero() {
        for preset in [PlatformPreset::exynos9810(), PlatformPreset::exynos9820()] {
            for governor in ["schedutil", "next"] {
                let mut spec = tiny_spec(governor);
                spec.preset = preset.clone();
                let (_, trace) = run_day_traced(&spec, &mut dense_store());
                let records = &trace.records;
                let mut gaps = 0;
                for (i, r) in records.iter().enumerate() {
                    let gap_ends = r.kind == SegmentKind::Gap
                        && records
                            .get(i + 1)
                            .is_none_or(|n| n.kind != SegmentKind::Gap || n.pickup != r.pickup);
                    if gap_ends {
                        gaps += 1;
                        assert!(
                            r.freq_level.iter().all(|&l| l == 0),
                            "{governor} on {}: gap {} ends at levels {:?}",
                            preset.name,
                            r.pickup,
                            r.freq_level
                        );
                    }
                }
                assert_eq!(gaps, spec.plan.pickups.len() + 1, "{governor}");
            }
        }
    }

    #[test]
    fn run_days_is_worker_count_invariant() {
        let plans = vec![tiny_plan(7), tiny_plan(8)];
        let governors = vec!["schedutil".to_owned(), "next".to_owned()];
        let preset = PlatformPreset::default();
        let one = run_days(&plans, &governors, &preset, 1.0, 30.0, 1);
        let many = run_days(&plans, &governors, &preset, 1.0, 30.0, 4);
        assert_eq!(one, many, "day reports must not depend on parallelism");
        assert_eq!(one.len(), 4);
    }

    #[test]
    fn governors_differ_over_the_same_day() {
        let plans = vec![tiny_plan(7)];
        let governors = vec!["next".to_owned(), "schedutil".to_owned()];
        let reports = run_days(&plans, &governors, &PlatformPreset::default(), 1.0, 30.0, 2);
        let next = &reports[0];
        let sched = &reports[1];
        assert_eq!(next.governor, "next");
        assert_eq!(sched.governor, "schedutil");
        assert!(
            (next.energy_total_j() - sched.energy_total_j()).abs() > 1e-9,
            "governors must produce a battery-day delta"
        );
        // Both replayed the identical plan.
        assert_eq!(next.plan, sched.plan);
    }

    #[test]
    #[should_panic(expected = "unknown governor")]
    fn unknown_governor_rejected() {
        let _ = run_day(&tiny_spec("warpdrive"), &mut dense_store());
    }

    /// Every float and count of `report` and its sessions, as
    /// little-endian bits; strings are length-prefixed.
    fn report_bytes(report: &DayReport, out: &mut Vec<u8>) {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
            for x in xs {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        put_str(out, &report.governor);
        put_str(out, &report.platform);
        out.extend_from_slice(&u64::from(report.trainings).to_le_bytes());
        out.extend_from_slice(&(report.pickup_count() as u64).to_le_bytes());
        put_f64s(
            out,
            &[
                report.screen_on_s,
                report.screen_off_s,
                report.energy_screen_on_j,
                report.energy_gap_j,
                report.avg_fps,
                report.avg_power_w,
                report.peak_temp_hot_c,
                report.battery_drain_pct,
                report.charges_used,
            ],
        );
        for s in &report.sessions {
            out.extend_from_slice(&(s.pickup as u64).to_le_bytes());
            put_str(out, &s.app);
            let m = &s.summary;
            put_f64s(
                out,
                &[
                    s.start_s,
                    s.duration_s,
                    m.duration_s,
                    m.avg_power_w,
                    m.peak_power_w,
                    m.avg_fps,
                    m.fps_std,
                    m.avg_temp_hot_c,
                    m.peak_temp_hot_c,
                    m.peak_temp_device_c,
                    m.energy_j,
                    s.ppdw,
                    s.start_temp_hot_c,
                ],
            );
        }
    }

    /// Byte pins of the day runner on both presets, each the length
    /// and FNV-1a 64 of the bytes: every lane's NXTR trace of a
    /// 4-pickup, 400 s gamer day with all six governors in one
    /// lockstep batch; the NXTR trace of a first-boot `next` day on an
    /// empty store, which trains each app on first use; and every
    /// float and count of those seven reports. Any change to what a
    /// day lane computes, or to the order it sums in, fails here.
    #[test]
    fn day_runs_are_pinned() {
        type Pin = (usize, u64);
        let pins: [(&str, [Pin; 6], Pin, Pin); 2] = [
            (
                "exynos9810",
                [
                    (142_758, 0xe0c7_e041_3ceb_12d1),
                    (142_755, 0x54ec_37cf_5935_3cd2),
                    (142_753, 0x5b42_4a87_baee_fd7a),
                    (142_760, 0x6c18_be3b_7424_fd1e),
                    (142_758, 0xc961_85d4_31c7_5af7),
                    (142_757, 0xf16c_3062_ae77_dd17),
                ],
                (142_753, 0x5b42_4a87_baee_fd7a),
                (4_384, 0x81d5_9411_6099_6803),
            ),
            (
                "exynos9820",
                [
                    (156_473, 0x487e_492f_1c3f_7b32),
                    (156_470, 0xd3fd_be7c_96b8_6f41),
                    (156_468, 0x4e35_4081_a151_4a77),
                    (156_475, 0x0f6b_9121_e54f_957b),
                    (156_473, 0xa09c_4a09_ff45_0973),
                    (156_472, 0x8f5e_513d_a27f_3556),
                ],
                (156_468, 0x4e35_4081_a151_4a77),
                (4_384, 0x182d_0c43_6e64_53d1),
            ),
        ];
        let cfg = DayPlanConfig {
            pickups: 4,
            day_length_s: 400.0,
            session_scale: 0.1,
            min_session_s: 15.0,
        };
        let plan = DayPlan::generate(&Persona::gamer(), &cfg, 11);
        let governors: Vec<String> = StandardEvaluator::GOVERNORS
            .iter()
            .map(|&g| g.to_owned())
            .collect();
        let pin_of = |bytes: &[u8]| (bytes.len(), crate::fnv1a64(bytes));
        for (preset, lane_pins, first_boot_pin, report_pin) in pins {
            let preset = PlatformPreset::by_name(preset).unwrap();
            let cells = run_days_traced(
                std::slice::from_ref(&plan),
                &governors,
                &preset,
                1.0,
                30.0,
                2,
            );
            let spec = DaySpec::new(plan.clone(), "next")
                .with_preset(preset.clone())
                .with_train_budget_s(30.0);
            let (first_boot, first_trace) = run_day_traced(&spec, &mut dense_store());
            assert_eq!(
                first_boot.trainings as usize,
                plan.distinct_apps().len(),
                "first boot trains each app"
            );
            let lanes: Vec<Pin> = cells.iter().map(|(_, t)| pin_of(&t.encode())).collect();
            let mut reports = Vec::new();
            for (report, _) in &cells {
                report_bytes(report, &mut reports);
            }
            report_bytes(&first_boot, &mut reports);
            let got = (lanes, pin_of(&first_trace.encode()), pin_of(&reports));
            assert_eq!(
                got,
                (lane_pins.to_vec(), first_boot_pin, report_pin),
                "day runs on {}",
                preset.name
            );
        }
    }
}
