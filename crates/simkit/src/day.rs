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
//!   instead of the cold-boot state a per-session harness fakes,
//! * for the `next` governor, per-app Q-tables are fetched and stored
//!   through [`QTableStore`] exactly as §IV-B prescribes: the first
//!   pickup of an unseen app trains once on a dedicated training
//!   device (or warm-starts from a pre-seeded fleet table), every
//!   later pickup reuses the stored table.
//!
//! Everything in a [`DayReport`] is a pure function of the
//! [`DaySpec`] plus the store's initial contents — [`run_days`] fans
//! plans × governors out on the work-stealing
//! [`crate::sweep::parallel_map`] and is byte-identical for any worker
//! count, the same 1-vs-N guarantee the sweep and campaign engines give.

use std::collections::BTreeMap;

use governors::Governor;
use mpsoc::perf::FrameDemand;
use mpsoc::SocBatch;
use next_core::ppdw::ppdw;
use next_core::{NextAgent, QTableStore};
use qlearn::qtable::QTable;
use qlearn::{DenseQTable, QStore};
use workload::{idle_demand, DayPlan, Persona, SessionPlan, SessionSim};

use crate::batch::BatchLane;
use crate::engine::{Engine, RunOutcome};
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
            tick_s: Engine::new().tick_s(),
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
    store
        .save(app, &table)
        // qlint::allow(PN01, reason = "a store without a directory performs no I/O")
        .expect("in-memory day store cannot fail");
    (table, true)
}

/// Ticks every lane of the batch through a screen-off gap with idle
/// demand, writing `(energy_j, peak_temp_hot_c, elapsed_s)` into
/// `acc[lane]`. The display is off: no frames, no governor — the
/// kernel's util tracking drops every domain to its floor within a few
/// ticks.
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
                    state: &state,
                    dt_s: dt,
                    decision: None,
                });
            }
        }
        left -= dt;
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
/// Panics on an unknown governor, an unknown app in the plan, or a
/// non-positive gap tick.
#[must_use]
pub fn run_day<B: QStore>(spec: &DaySpec, store: &mut QTableStore<B>) -> DayReport {
    run_day_lanes(std::slice::from_ref(spec), &mut [store])
        .pop()
        // qlint::allow(PN01, reason = "run_day_lanes returns exactly one report per spec")
        .expect("one lane, one report")
}

/// [`run_day`] with per-tick trace recording: returns the report plus
/// the finished [`TickTrace`] (metadata from [`DaySpec::trace_meta`],
/// one record per engine/gap tick).
#[must_use]
pub fn run_day_traced<B: QStore>(
    spec: &DaySpec,
    store: &mut QTableStore<B>,
) -> (DayReport, TickTrace) {
    let mut sinks = vec![TraceRecorder::new(spec.trace_meta())];
    let report = run_day_lanes_traced(std::slice::from_ref(spec), &mut [store], &mut sinks)
        .pop()
        // qlint::allow(PN01, reason = "run_day_lanes_traced returns exactly one report per spec")
        .expect("one lane, one report");
    // qlint::allow(PN01, reason = "sinks was built with exactly one recorder above")
    let trace = sinks.pop().expect("one lane, one sink").finish();
    (report, trace)
}

/// Runs one day for several governors **in lockstep on the batched
/// kernel**: every lane replays the identical plan (same pickups, same
/// session seeds) on its own device column, so governors are compared
/// on the same day at a fraction of the lane-sequential cost. Lane `l`
/// uses `specs[l].governor` and `stores[l]`.
///
/// Per lane, results are bit-identical to [`run_day`] — batching is
/// unobservable in the reports.
///
/// # Panics
///
/// Panics on an unknown governor, an unknown app, a non-positive gap
/// tick, mismatched `specs`/`stores` lengths, or specs that do not
/// share the same plan, preset, gap tick, training budget, and battery.
#[must_use]
pub fn run_day_lanes<B: QStore>(
    specs: &[DaySpec],
    stores: &mut [&mut QTableStore<B>],
) -> Vec<DayReport> {
    let mut sinks = vec![NullSink; specs.len()];
    run_day_lanes_traced(specs, stores, &mut sinks)
}

/// [`run_day_lanes`] with one [`TraceSink`] per lane observing every
/// tick of that lane's day (gap ticks included, with no decision).
/// Segment boundaries are announced through
/// [`TraceSink::begin_segment`]: the gap before pickup `i` and the
/// session of pickup `i` both carry index `i`; the tail gap carries the
/// pickup count.
///
/// # Panics
///
/// As [`run_day_lanes`], plus mismatched `sinks` length.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_day_lanes_traced<B: QStore, S: TraceSink>(
    specs: &[DaySpec],
    stores: &mut [&mut QTableStore<B>],
    sinks: &mut [S],
) -> Vec<DayReport> {
    assert!(!specs.is_empty(), "day batch needs at least one lane");
    assert_eq!(specs.len(), stores.len(), "one store per lane");
    assert_eq!(specs.len(), sinks.len(), "one sink per lane");
    let first = &specs[0];
    assert!(
        first.gap_tick_s > 0.0 && first.gap_tick_s.is_finite(),
        "gap tick must be positive"
    );
    for spec in specs {
        assert!(
            StandardEvaluator::GOVERNORS.contains(&spec.governor.as_str()),
            "unknown governor '{}'",
            spec.governor
        );
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
    let n = specs.len();
    let engine = Engine::new();
    // qlint::allow(PN01, reason = "the spec's preset was validated when it was built")
    let mut batch = SocBatch::replicate(&first.preset.soc, n).expect("preset SoC config is valid");
    let is_next: Vec<bool> = specs.iter().map(|s| s.governor == "next").collect();
    let mut baselines: Vec<Option<Box<dyn Governor>>> = specs
        .iter()
        .zip(&is_next)
        .map(|(s, &nx)| (!nx).then(|| baseline_governor(&s.governor)))
        .collect();
    // One persistent inference agent per app per lane for the whole day
    // (the §IV-B deployment shape): the table is fetched from the store
    // and the dense arena allocated once per distinct app, not once per
    // pickup — a 52-pickup day would otherwise clone tens of MB of
    // Q-table 52 times.
    let mut agents: Vec<BTreeMap<String, NextAgent<B>>> = (0..n).map(|_| BTreeMap::new()).collect();

    let mut session_reports: Vec<Vec<SessionReport>> = (0..n)
        .map(|_| Vec::with_capacity(first.plan.pickups.len()))
        .collect();
    let mut outcomes: Vec<RunOutcome> = (0..n)
        .map(|_| RunOutcome {
            trace: Trace::new(),
            presented_frames: 0,
            repeated_vsyncs: 0,
        })
        .collect();
    let mut screen_on_s = vec![0.0f64; n];
    let mut screen_off_s = vec![0.0f64; n];
    let mut energy_screen_on_j = vec![0.0f64; n];
    let mut energy_gap_j = vec![0.0f64; n];
    let mut peak_temp_hot_c = vec![f64::MIN; n];
    let mut trainings = vec![0u32; n];
    let mut fps_weighted = vec![0.0f64; n];
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
        let mut start_temp_hot_c = vec![0.0f64; n];
        for l in 0..n {
            energy_gap_j[l] += gap_acc[l].0;
            screen_off_s[l] += gap_acc[l].2;
            peak_temp_hot_c[l] = peak_temp_hot_c[l].max(gap_acc[l].1);
            start_temp_hot_c[l] = batch.state(l).temp_hot_c;
        }

        // Make sure every `next` lane has the app's inference agent
        // (training once through its own store on first use).
        for (l, spec) in specs.iter().enumerate() {
            if is_next[l] && !agents[l].contains_key(&pickup.app) {
                let (table, trained) = fetch_or_train(stores[l], &pickup.app, spec);
                trainings[l] += u32::from(trained);
                let agent = if spec.train_online {
                    // Federated local round: keep learning from the
                    // stored (fleet-merged) table with the §IV-C
                    // warm-start exploration scale.
                    NextAgent::warm_start(spec.preset.next.clone(), table)
                } else {
                    NextAgent::with_table(spec.preset.next.clone(), table, false)
                };
                agents[l].insert(pickup.app.clone(), agent);
            }
        }

        // The pickup: a real lockstep engine run on the warm devices —
        // every lane replays the identical session seed.
        let duration_s = engine.ticks_for(pickup.duration_s) as f64 * engine.tick_s();
        let mut sessions: Vec<SessionSim> = (0..n)
            .map(|_| {
                SessionSim::new(
                    SessionPlan::single(&pickup.app, pickup.duration_s),
                    pickup.session_seed,
                )
            })
            .collect();
        let mut lanes: Vec<BatchLane<'_>> = Vec::with_capacity(n);
        for (((baseline, agent_map), session), &nx) in baselines
            .iter_mut()
            .zip(agents.iter_mut())
            .zip(sessions.iter_mut())
            .zip(&is_next)
        {
            let governor: &mut dyn Governor = if nx {
                // qlint::allow(PN01, reason = "the loop above inserted an agent for every planned app")
                let agent = agent_map.get_mut(&pickup.app).expect("agent ensured above");
                agent.start_session();
                agent
            } else {
                // qlint::allow(PN01, reason = "non-next lanes always carry a baseline governor")
                let governor = baseline.as_mut().expect("baseline governor");
                governor.reset();
                governor.as_mut()
            };
            lanes.push(BatchLane { governor, session });
        }
        for sink in sinks.iter_mut() {
            sink.begin_segment(SegmentKind::Session, i);
        }
        engine.run_lanes_traced(
            &mut batch,
            &mut lanes,
            pickup.duration_s,
            &mut outcomes,
            sinks,
        );

        for (l, spec) in specs.iter().enumerate() {
            let summary = outcomes[l].trace.summary();
            energy_screen_on_j[l] += summary.energy_j;
            screen_on_s[l] += duration_s;
            peak_temp_hot_c[l] = peak_temp_hot_c[l].max(summary.peak_temp_hot_c);
            fps_weighted[l] += summary.avg_fps * duration_s;
            let next = &spec.preset.next;
            session_reports[l].push(SessionReport {
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
                start_temp_hot_c: start_temp_hot_c[l],
                summary,
            });
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
    for l in 0..n {
        energy_gap_j[l] += gap_acc[l].0;
        screen_off_s[l] += gap_acc[l].2;
        peak_temp_hot_c[l] = peak_temp_hot_c[l].max(gap_acc[l].1);
    }

    // Online-training lanes persist what the day taught: the updated
    // per-app tables go back into the lane's store (BTreeMap order, so
    // the store contents are deterministic).
    for (l, spec) in specs.iter().enumerate() {
        if spec.train_online {
            for (app, agent) in std::mem::take(&mut agents[l]) {
                stores[l]
                    .save(&app, &agent.into_table())
                    // qlint::allow(PN01, reason = "a store without a directory performs no I/O")
                    .expect("in-memory day store cannot fail");
            }
        }
    }

    specs
        .iter()
        .enumerate()
        .map(|(l, spec)| {
            let avg_power_w = if screen_on_s[l] > 0.0 {
                energy_screen_on_j[l] / screen_on_s[l]
            } else {
                0.0
            };
            let energy_total = energy_screen_on_j[l] + energy_gap_j[l];
            DayReport {
                plan: spec.plan.clone(),
                governor: spec.governor.clone(),
                platform: spec.preset.name.clone(),
                sessions: std::mem::take(&mut session_reports[l]),
                screen_on_s: screen_on_s[l],
                screen_off_s: screen_off_s[l],
                energy_screen_on_j: energy_screen_on_j[l],
                energy_gap_j: energy_gap_j[l],
                avg_fps: if screen_on_s[l] > 0.0 {
                    fps_weighted[l] / screen_on_s[l]
                } else {
                    0.0
                },
                avg_power_w,
                peak_temp_hot_c: peak_temp_hot_c[l],
                trainings: trainings[l],
                battery_drain_pct: spec.battery.drain_percent(energy_total),
                charges_used: spec.battery.charges_used(energy_total),
            }
        })
        .collect()
}

/// Fans `plans × governors` out on the work-stealing parallel runner:
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
    let store_seed = seeded_tables(plans, governors, preset, train_budget_s, workers);
    // One batched cell per plan: all governors ride the same
    // [`SocBatch`] in lockstep, one lane each.
    let cells: Vec<usize> = (0..plans.len()).collect();
    let per_plan = parallel_map(&cells, workers, |&pi| {
        let (specs, mut lane_stores) = cell_setup(
            &plans[pi],
            governors,
            preset,
            gap_tick_s,
            train_budget_s,
            &store_seed,
        );
        let mut store_refs: Vec<&mut QTableStore> = lane_stores.iter_mut().collect();
        run_day_lanes(&specs, &mut store_refs)
    });
    per_plan.into_iter().flatten().collect()
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
    let store_seed = seeded_tables(plans, governors, preset, train_budget_s, workers);
    let cells: Vec<usize> = (0..plans.len()).collect();
    let per_plan = parallel_map(&cells, workers, |&pi| {
        let (specs, mut lane_stores) = cell_setup(
            &plans[pi],
            governors,
            preset,
            gap_tick_s,
            train_budget_s,
            &store_seed,
        );
        let mut store_refs: Vec<&mut QTableStore> = lane_stores.iter_mut().collect();
        let mut sinks: Vec<TraceRecorder> = specs
            .iter()
            .map(|spec| TraceRecorder::new(spec.trace_meta()))
            .collect();
        let reports = run_day_lanes_traced(&specs, &mut store_refs, &mut sinks);
        reports
            .into_iter()
            .zip(sinks.into_iter().map(TraceRecorder::finish))
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

/// Builds one plan-cell's per-governor specs and pre-seeded stores.
fn cell_setup(
    plan: &DayPlan,
    governors: &[String],
    preset: &PlatformPreset,
    gap_tick_s: f64,
    train_budget_s: f64,
    store_seed: &BTreeMap<String, DenseQTable>,
) -> (Vec<DaySpec>, Vec<QTableStore>) {
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
    let lane_stores: Vec<QTableStore> = governors
        .iter()
        .map(|governor| {
            let mut store = QTableStore::in_memory();
            if governor == "next" {
                for app in plan.distinct_apps() {
                    store
                        .save(&app, &store_seed[&app])
                        // qlint::allow(PN01, reason = "a store without a directory performs no I/O")
                        .expect("in-memory save cannot fail");
                }
            }
            store
        })
        .collect();
    (specs, lane_stores)
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
/// Returns a message for unknown platform/persona/governor names, an
/// infeasible plan configuration, a foreign engine tick, or a domain
/// count that does not match the named platform.
pub fn replay_day(meta: &TraceMeta, workers: usize) -> Result<(DayReport, TickTrace), String> {
    let preset = PlatformPreset::by_name(&meta.platform)
        .ok_or_else(|| format!("unknown platform '{}'", meta.platform))?;
    let persona = Persona::by_name(&meta.persona)
        .ok_or_else(|| format!("unknown persona '{}'", meta.persona))?;
    if !StandardEvaluator::GOVERNORS.contains(&meta.governor.as_str()) {
        return Err(format!("unknown governor '{}'", meta.governor));
    }
    if meta.tick_s != Engine::new().tick_s() {
        return Err(format!(
            "trace was recorded at a {} s base tick; this engine runs {} s",
            meta.tick_s,
            Engine::new().tick_s()
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
    if !(meta.gap_tick_s > 0.0 && meta.gap_tick_s.is_finite()) {
        return Err(format!("invalid gap tick {}", meta.gap_tick_s));
    }
    meta.plan.validate()?;
    let plan = DayPlan::generate(&persona, &meta.plan, meta.seed);
    let governors = vec![meta.governor.clone()];
    let store_seed = seeded_tables(
        std::slice::from_ref(&plan),
        &governors,
        &preset,
        meta.train_budget_s,
        workers,
    );
    let (mut specs, mut stores) = cell_setup(
        &plan,
        &governors,
        &preset,
        meta.gap_tick_s,
        meta.train_budget_s,
        &store_seed,
    );
    // qlint::allow(PN01, reason = "built above from a one-governor slice")
    let mut spec = specs.pop().expect("one governor, one spec");
    spec.battery = meta.battery;
    // qlint::allow(PN01, reason = "built above from a one-governor slice")
    let mut store = stores.pop().expect("one governor, one store");
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
        let mut store = clone_store(&mut seed_store, &apps);
        let inference = run_day(&base_spec, &mut store);
        for (a, b) in apps.iter().zip(&before) {
            assert_eq!(&encode_table(&store.load(a).expect("kept")), b);
        }

        // An online-training day writes updated tables back…
        let online_spec = base_spec.clone().with_train_online(true);
        let mut store1 = clone_store(&mut seed_store, &apps);
        let online = run_day(&online_spec, &mut store1);
        let changed = apps
            .iter()
            .zip(&before)
            .any(|(a, b)| &encode_table(&store1.load(a).expect("kept")) != b);
        assert!(changed, "online day must update at least one table");
        assert_eq!(online.trainings, 0, "warm start is not a training");
        assert_eq!(online.pickup_count(), inference.pickup_count());

        // …and is itself deterministic: same spec + store, same bytes.
        let mut store2 = clone_store(&mut seed_store, &apps);
        let online2 = run_day(&online_spec, &mut store2);
        assert_eq!(online2.sessions, online.sessions);
        for a in &apps {
            assert_eq!(
                encode_table(&store1.load(a).expect("kept")),
                encode_table(&store2.load(a).expect("kept"))
            );
        }
    }

    fn clone_store(from: &mut QTableStore, apps: &[String]) -> QTableStore {
        let mut out = QTableStore::in_memory();
        for a in apps {
            out.save(a, &from.load(a).expect("app seeded"))
                .expect("in-memory save");
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
}
