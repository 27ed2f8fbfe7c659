//! The traced run: the per-layer ledger of all three workloads.
//!
//! For each workload the run times the workload's units untraced (the
//! denominator of every share), then again traced, then replays single
//! layers on the workload's own inputs. Every time comes from the
//! fastest-repetition estimator. Spans wrap only the benchmark's own
//! calls into the program:
//!
//! * `session_grid`: the `Engine::run_into` call, and the governor's
//!   `control`/`observe` calls through a timing wrapper. `SessionSim::
//!   advance`, `Soc::tick`, `SocBatch::tick` at width 1,
//!   `QTable::best_action` and `QLearning::update` are replayed on the
//!   grid's sessions and trained tables; a warm-started, still learning
//!   agent replays the Next sessions.
//! * `battery_day`: the day's segment marks (already the units of the
//!   untraced run), plus a width-3 `SocBatch::tick` replay of each
//!   day's session and idle demand.
//! * `campaign`: campaign units and the warm seed as spans, plus a
//!   replay of a round's device side (online-learning days on
//!   copy-on-write overlays) and cloud side (delta encoding, merge
//!   folds, merge finish, table encoding).
//!
//! A time is reported per call (`*_ns`) and, where the workload's call
//! count is known, as a share of the workload's untraced time
//! (`*_share`). Each workload also reports its tracing overhead
//! (traced over untraced unit time) and the share of its untraced time
//! no measured layer accounts for.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::api::{self, BatchReplay, DemandTrace, DeviceDay, Learner, Merge, Policy, RoundBases};
use crate::campaign::{Campaigns, DEVICES, ROUNDS};
use crate::day::{Days, GOVERNORS};
use crate::digest::{derive_seed, Fnv};
use crate::estimator::{Estimate, Job, Probe};
use crate::grid::{self, Gov, Grid};
use crate::report::{interleaved, Metric, Tally};

/// Whole passes every traced-run phase runs at least.
const MIN_PASSES: u32 = 2;

/// Span slot of a learning agent's `control` calls.
const SPAN_LEARN_CONTROL: usize = 0;

/// Devices whose days the campaign replay builds.
const REPLAY_DEVICES: usize = 8;

/// The ledger being written.
struct Ledger {
    metrics: Vec<Metric>,
}

impl Ledger {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
        });
    }

    /// `name_ns` per call and, when `workload_s` is given, `name_share`.
    fn time(&mut self, layer: &str, total_s: f64, calls: f64, workload_s: Option<f64>) {
        self.put(&format!("{layer}_ns"), "ns", ratio(total_s * 1e9, calls));
        if let Some(w) = workload_s {
            self.put(&format!("{layer}_share"), "ratio", ratio(total_s, w));
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The traced run over all three workloads.
///
/// # Errors
///
/// Returns a message when a workload's inputs cannot be built.
pub fn run(seed: u64, seconds: f64, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let mut ledger = Ledger {
        metrics: Vec::new(),
    };
    grid_layers(seed, seconds, tally, &mut ledger)?;
    day_layers(seed, seconds, tally, &mut ledger)?;
    campaign_layers(seed, seconds, tally, &mut ledger)?;
    Ok(ledger.metrics)
}

/// The fastest time of each job, by job name.
fn by_name(est: &Estimate) -> BTreeMap<String, f64> {
    est.jobs
        .iter()
        .map(|j| (j.name.clone(), j.sum_fastest()))
        .collect()
}

#[allow(clippy::too_many_lines)]
fn grid_layers(
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let grid = Grid::new(seed)?;
    let (tables, train_ticks) = grid.train_tables();

    // One session (app, length, seed) per app, shared by its governors.
    let mut sessions: Vec<(String, f64, u64)> = grid
        .cells
        .iter()
        .map(|c| (c.app.clone(), c.duration_s, c.seed))
        .collect();
    sessions.dedup();
    let demand: Vec<DemandTrace> = sessions
        .iter()
        .map(|(app, d, s)| DemandTrace::record(app, *d, *s))
        .collect::<Result<_, _>>()?;
    let keys: BTreeMap<&String, Vec<u64>> = tables.iter().map(|(a, t)| (a, t.keys())).collect();
    let learner = Learner::of(&grid.device);

    let mut replay_jobs: Vec<Job<'_>> = Vec::new();
    for ((app, duration, session_seed), trace) in sessions.iter().zip(&demand) {
        let device = &grid.device;
        replay_jobs.push(Job::new(format!("advance/{app}"), move |p: &mut Probe| {
            let (d, _) = api::advance_session(app, *duration, *session_seed)?;
            p.stop();
            Ok(d)
        }));
        replay_jobs.push(Job::new(format!("tick/{app}"), move |p: &mut Probe| {
            let d = api::tick_scalar(device, trace);
            p.stop();
            Ok(d)
        }));
        replay_jobs.push(Job::new(format!("batch_w1/{app}"), move |p: &mut Probe| {
            let mut batch = BatchReplay::new(device, 1)?;
            batch.session(trace);
            p.stop();
            Ok(batch.digest())
        }));
    }
    for (app, table) in &tables {
        let k = keys
            .get(app)
            .ok_or_else(|| format!("no keys for '{app}'"))?;
        replay_jobs.push(Job::new(format!("argmax/{app}"), move |p: &mut Probe| {
            let d = table.argmax_all(k);
            p.stop();
            Ok(d)
        }));
        replay_jobs.push(Job::new(format!("update/{app}"), move |p: &mut Probe| {
            let mut scratch = table.scratch_copy();
            p.mark();
            let d = scratch.update_all(k, learner);
            p.stop();
            Ok(d)
        }));
    }
    for cell in grid.cells.iter().filter(|c| c.gov == Gov::Next) {
        let table = tables
            .get(&cell.app)
            .ok_or_else(|| format!("no trained table for '{}'", cell.app))?;
        let device = &grid.device;
        replay_jobs.push(Job::new(
            format!("learn/{}", cell.app),
            move |p: &mut Probe| {
                let run = api::run_session(
                    device,
                    Policy::NextLearning(table),
                    &cell.app,
                    cell.duration_s,
                    cell.seed,
                    true,
                )?;
                p.stop();
                p.add_span(SPAN_LEARN_CONTROL, run.gov.control_s);
                Ok(run.digest())
            },
        ));
    }
    let first = RefCell::new(Vec::new());
    let first_traced = RefCell::new(Vec::new());
    let [setup, untraced, traced, replays] = interleaved(
        tally,
        "session_grid",
        [
            ("setup", grid.setup_jobs()),
            ("untraced", grid.cell_jobs(&tables, &first, false)),
            ("traced", grid.cell_jobs(&tables, &first_traced, true)),
            ("replays", replay_jobs),
        ],
        seconds / 3.0,
        MIN_PASSES,
    );
    let runs: Vec<api::SessionRun> = first_traced.into_inner().into_iter().flatten().collect();
    if runs.len() != grid.cells.len() {
        return Err("a traced session never completed".to_owned());
    }
    let fastest = by_name(&replays);
    let job = |prefix: &str, app: &str| {
        fastest
            .get(&format!("{prefix}/{app}"))
            .copied()
            .unwrap_or(0.0)
    };

    let untraced_s = untraced.sum_fastest();
    let traced_s = traced.sum_fastest();
    let ticks: u64 = runs.iter().map(|r| r.ticks).sum();
    let steps: u64 = runs.iter().map(|r| r.control_steps).sum();
    let is_next: Vec<bool> = grid.cells.iter().map(|c| c.gov == Gov::Next).collect();
    let sum_where = |want_next: bool, f: &dyn Fn(&api::SessionRun) -> f64| -> f64 {
        runs.iter()
            .zip(&is_next)
            .filter(|(_, &n)| n == want_next)
            .map(|(r, _)| f(r))
            .sum()
    };

    // Replays run each app's session once; the grid runs it once per
    // governor.
    let (mut advance_s, mut soc_tick_s, mut advance_calls) = (0.0, 0.0, 0.0);
    for (cell, run) in grid.cells.iter().zip(&runs) {
        advance_s += job("advance", &cell.app);
        soc_tick_s += job("tick", &cell.app);
        advance_calls += run.ticks as f64;
    }
    ledger.time(
        "workload.advance",
        advance_s,
        advance_calls,
        Some(untraced_s),
    );
    ledger.time("mpsoc.tick", soc_tick_s, advance_calls, Some(untraced_s));
    let (w1_s, w1_calls) = sessions
        .iter()
        .zip(&demand)
        .fold((0.0, 0.0), |(s, c), ((app, _, _), t)| {
            (s + job("batch_w1", app), c + t.ticks() as f64)
        });
    ledger.time("mpsoc.batch_w1_tick", w1_s, w1_calls, None);

    let control_base = traced.span_ns(grid::SPAN_BASELINE_CONTROL) * 1e-9;
    let observe_next = traced.span_ns(grid::SPAN_NEXT_OBSERVE) * 1e-9;
    let control_next = traced.span_ns(grid::SPAN_NEXT_CONTROL) * 1e-9;
    let engine = traced.span_ns(grid::SPAN_ENGINE) * 1e-9;
    ledger.time(
        "governors.control",
        control_base,
        sum_where(false, &|r| r.gov.control_calls as f64),
        Some(untraced_s),
    );
    ledger.time(
        "core.observe",
        observe_next,
        sum_where(true, &|r| r.gov.observe_calls as f64),
        Some(untraced_s),
    );
    let next_steps = sum_where(true, &|r| r.gov.control_calls as f64);
    ledger.time(
        "core.control_greedy",
        control_next,
        next_steps,
        Some(untraced_s),
    );

    // The learning replays run the Next cells' sessions: same control
    // cadence, same call count.
    let learn_s: f64 = replays
        .jobs
        .iter()
        .filter(|j| j.name.starts_with("learn/"))
        .map(|j| j.spans_ns[SPAN_LEARN_CONTROL] * 1e-9)
        .sum();
    ledger.time("core.control_learn", learn_s, next_steps, None);

    let (mut argmax_total_s, mut update_total_s, mut n_keys) = (0.0, 0.0, 0.0);
    for j in &replays.jobs {
        if let Some(app) = j.name.strip_prefix("argmax/") {
            argmax_total_s += j.sum_fastest();
            n_keys += keys
                .iter()
                .find(|(a, _)| a.as_str() == app)
                .map_or(0, |(_, k)| k.len()) as f64;
        } else if j.name.starts_with("update/") {
            update_total_s += j.fastest.get(1).copied().unwrap_or(0.0);
        }
    }
    let argmax_ns = ratio(argmax_total_s * 1e9, n_keys);
    ledger.put("qlearn.argmax_ns", "ns", argmax_ns);
    ledger.put(
        "qlearn.argmax_share",
        "ratio",
        ratio(argmax_ns * 1e-9 * next_steps, untraced_s),
    );
    let update_ns = ratio(update_total_s * 1e9, n_keys);
    ledger.put("qlearn.update_ns", "ns", update_ns);
    // Training updates the table once per control step (every fourth
    // tick at the 100 ms period).
    ledger.put(
        "qlearn.update_setup_share",
        "ratio",
        ratio(
            update_ns * 1e-9 * train_ticks as f64 / 4.0,
            setup.sum_fastest(),
        ),
    );

    let self_s = engine - control_base - observe_next - control_next - advance_s - soc_tick_s;
    ledger.put(
        "simkit.engine.self_ns_per_tick",
        "ns",
        ratio(self_s * 1e9, ticks as f64),
    );
    ledger.put(
        "simkit.engine.self_share",
        "ratio",
        ratio(self_s, untraced_s),
    );
    ledger.put(
        "simkit.engine.ns_per_control_step",
        "ns",
        ratio(untraced_s * 1e9, steps as f64),
    );
    let fb = grid
        .cells
        .iter()
        .position(|c| c.app == "facebook" && c.gov == Gov::Schedutil)
        .and_then(|i| {
            Some((
                untraced.jobs.get(i)?.sum_fastest(),
                runs.get(i)?.control_steps,
            ))
        });
    if let Some((t, n)) = fb {
        ledger.put(
            "simkit.engine.ns_per_control_step_facebook_schedutil",
            "ns",
            ratio(t * 1e9, n as f64),
        );
    }
    ledger.put("simkit.engine.ticks", "count", ticks as f64);
    ledger.put("simkit.engine.control_steps", "count", steps as f64);
    ledger.put(
        "simkit.trainer.ticks_per_s",
        "1/s",
        ratio(train_ticks as f64, setup.sum_fastest()),
    );
    ledger.put(
        "qlearn.trained_states",
        "count",
        tables.values().map(|t| t.states() as f64).sum(),
    );

    let firsts: Vec<api::SessionRun> = first.into_inner().into_iter().flatten().collect();
    let (saving, drop_c) = grid::paper_result(&grid.cells, &firsts);
    tally.check(
        saving > 0.0,
        "session_grid: Next mean power below schedutil's",
    );
    tally.check(
        drop_c > 0.0,
        "session_grid: Next mean peak temperature below schedutil's",
    );
    ledger.put("simkit.metrics.next_power_saving_pct", "%", saving);
    ledger.put("simkit.metrics.next_peak_temp_drop_c", "C", drop_c);
    ledger.put(
        "session_grid.trace_overhead",
        "ratio",
        ratio(traced_s, untraced_s),
    );
    ledger.put(
        "session_grid.unattributed_share",
        "ratio",
        ratio(traced_s - engine, traced_s),
    );
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn day_layers(
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let days = Days::new(seed)?;
    let tables = days.train_tables();
    let inputs: Vec<(Vec<api::PickupInputs>, Vec<f64>)> = days
        .plans
        .iter()
        .map(api::Plan::replay_inputs)
        .collect::<Result<_, _>>()?;
    let device = &days.device;
    let replay_jobs: Vec<Job<'_>> = inputs
        .iter()
        .zip(&days.recipes)
        .map(|((pickups, tail), (persona, _))| {
            Job::new(format!("kernel/{persona}"), move |p: &mut Probe| {
                let mut batch = BatchReplay::new(device, GOVERNORS.len())?;
                for pickup in pickups {
                    p.mark();
                    batch.gap(&pickup.gap_dts);
                    p.mark();
                    batch.session(&pickup.demand);
                }
                p.mark();
                batch.gap(tail);
                p.stop();
                Ok(batch.digest())
            })
        })
        .collect();
    let first = RefCell::new(Vec::new());
    let again = RefCell::new(Vec::new());
    let [_, untraced, traced, replays] = interleaved(
        tally,
        "battery_day",
        [
            ("setup", days.setup_jobs()),
            ("untraced", days.day_jobs(&tables, &first)),
            ("traced", days.day_jobs(&tables, &again)),
            ("replays", replay_jobs),
        ],
        seconds / 3.0,
        MIN_PASSES,
    );

    // Segments: [prologue, gap 0, session 0, ..., gap n-1, session n-1,
    // tail gap]; the replay has the same layout.
    let split = |est: &Estimate| -> (f64, f64, f64) {
        let (mut gap, mut session, mut other) = (0.0, 0.0, 0.0);
        for j in &est.jobs {
            let n = j.fastest.len();
            for (i, &t) in j.fastest.iter().enumerate() {
                if i == 0 {
                    other += t;
                } else if i % 2 == 1 || i + 1 == n {
                    gap += t;
                } else {
                    session += t;
                }
            }
        }
        (gap, session, other)
    };
    let (gap_seg, session_seg, _) = split(&traced);
    let (gap_kernel, session_kernel, _) = split(&replays);
    let lanes = GOVERNORS.len() as f64;
    let (mut session_ticks, mut gap_ticks) = (0.0, 0.0);
    for (pickups, tail) in &inputs {
        for p in pickups {
            session_ticks += p.demand.ticks() as f64;
            gap_ticks += p.gap_dts.len() as f64;
        }
        gap_ticks += tail.len() as f64;
    }
    let untraced_s = untraced.sum_fastest();
    let traced_s = traced.sum_fastest();
    ledger.time(
        "mpsoc.batch_lane_tick",
        gap_kernel + session_kernel,
        (session_ticks + gap_ticks) * lanes,
        Some(untraced_s),
    );
    ledger.put(
        "simkit.day.session_ns_per_lane_tick",
        "ns",
        ratio(session_seg * 1e9, session_ticks * lanes),
    );
    ledger.put(
        "simkit.day.session_share",
        "ratio",
        ratio(session_seg, untraced_s),
    );
    ledger.put(
        "simkit.day.gap_ns_per_lane_tick",
        "ns",
        ratio(gap_seg * 1e9, gap_ticks * lanes),
    );
    ledger.put("simkit.day.gap_share", "ratio", ratio(gap_seg, untraced_s));
    ledger.put(
        "simkit.day.orchestration_share",
        "ratio",
        ratio(traced_s - session_seg - gap_kernel, traced_s),
    );
    ledger.put(
        "simkit.day.lane_ticks",
        "count",
        (session_ticks + gap_ticks) * lanes,
    );

    let (saving, drop_c) = crate::day::paper_result(&first.into_inner());
    tally.check(
        saving > 0.0,
        "battery_day: Next uses less energy than schedutil",
    );
    tally.check(
        drop_c > 0.0,
        "battery_day: Next's mean day peak below schedutil's",
    );
    ledger.put("simkit.metrics.day_next_energy_saving_pct", "%", saving);
    ledger.put("simkit.metrics.day_next_peak_temp_drop_c", "C", drop_c);
    ledger.put(
        "battery_day.trace_overhead",
        "ratio",
        ratio(traced_s, untraced_s),
    );
    ledger.put(
        "battery_day.unattributed_share",
        "ratio",
        ratio(session_seg - session_kernel, traced_s),
    );
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn campaign_layers(
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let campaigns = Campaigns::new(seed);
    let warm = campaigns.warm_seed()?;

    // A replayed round: online-learning device days on overlays of
    // warm-seed-like tables, then the cloud side.
    let template = campaigns
        .campaigns
        .first()
        .ok_or_else(|| "no campaign".to_owned())?;
    let bases = RoundBases::train(template)?;
    let personas = api::persona_names();
    let plans: Vec<(usize, api::Plan, u64)> = (0..REPLAY_DEVICES)
        .map(|d| {
            let persona = &personas[d % personas.len()];
            let plan =
                template.day_plan(persona, derive_seed(seed, "campaign_replay", d as u64))?;
            Ok((
                d % api::CAMPAIGN_PLATFORMS.len(),
                plan,
                derive_seed(seed, "campaign_agent", d as u64),
            ))
        })
        .collect::<Result<_, String>>()?;
    let device_days: Vec<DeviceDay> = plans
        .iter()
        .map(|(platform, plan, agent_seed)| {
            DeviceDay::live(template, &bases, *platform, plan, *agent_seed)
        })
        .collect::<Result<_, _>>()?;
    let touched: f64 = device_days.iter().map(|d| d.touched_rows() as f64).sum();
    let merged_states = {
        let mut m = Merge::default();
        for d in &device_days {
            m.fold(d)?;
        }
        m.finish()?.states() as f64
    };

    let mut jobs: Vec<Job<'_>> = plans
        .iter()
        .enumerate()
        .map(|(d, (platform, plan, agent_seed))| {
            let bases = &bases;
            Job::new(format!("device_day/{d}"), move |p: &mut Probe| {
                let day = DeviceDay::live(template, bases, *platform, plan, *agent_seed)?;
                p.stop();
                Ok(day.touched_rows())
            })
        })
        .collect();
    let days_ref = &device_days;
    jobs.push(Job::new("delta", move |p: &mut Probe| {
        let bytes: u64 = days_ref.iter().map(DeviceDay::encode_deltas).sum();
        p.stop();
        Ok(bytes)
    }));
    jobs.push(Job::new("merge", move |p: &mut Probe| {
        let mut m = Merge::default();
        for d in days_ref {
            m.fold(d)?;
        }
        p.mark();
        let merged = m.finish()?;
        p.mark();
        let bytes = merged.encode();
        p.stop();
        let mut h = Fnv::new();
        h.u64(merged.digest()).u64(bytes);
        Ok(h.finish())
    }));
    let first = RefCell::new(Vec::new());
    let again = RefCell::new(Vec::new());
    let [setup, untraced, traced, replays] = interleaved(
        tally,
        "campaign",
        [
            ("setup", campaigns.setup_jobs()),
            ("untraced", campaigns.unit_jobs(&warm, &first)),
            ("traced", campaigns.unit_jobs(&warm, &again)),
            ("replays", jobs),
        ],
        seconds / 3.0,
        MIN_PASSES,
    );
    let counts: Vec<api::CampaignCounts> = first.into_inner().into_iter().flatten().collect();

    let fastest = by_name(&replays);
    let live_s: f64 = replays
        .jobs
        .iter()
        .filter(|j| j.name.starts_with("device_day/"))
        .map(crate::estimator::JobStats::sum_fastest)
        .sum();
    let delta_s = fastest.get("delta").copied().unwrap_or(0.0);
    let merge = replays.jobs.iter().find(|j| j.name == "merge");
    let seg = |i: usize| merge.and_then(|j| j.fastest.get(i).copied()).unwrap_or(0.0);
    let (fold_s, finish_s, encode_s) = (seg(0), seg(1), seg(2));

    let untraced_s = untraced.sum_fastest();
    let traced_s = traced.sum_fastest();
    let campaign_days = (campaigns.campaigns.len() * DEVICES * ROUNDS) as f64;
    let rounds = (campaigns.campaigns.len() * ROUNDS) as f64;
    let replay_days = REPLAY_DEVICES as f64;
    // Scale the replayed round to the campaign: device-side costs per
    // device-day, cloud-side costs per round.
    let per_day = campaign_days / replay_days;
    ledger.put(
        "simkit.day.learning_ns_per_device_day",
        "ns",
        ratio(live_s * 1e9, replay_days),
    );
    ledger.put(
        "simkit.day.learning_share",
        "ratio",
        ratio(live_s * per_day, untraced_s),
    );
    ledger.put(
        "qlearn.delta_encode_ns_per_row",
        "ns",
        ratio(delta_s * 1e9, touched),
    );
    ledger.put(
        "qlearn.delta_encode_share",
        "ratio",
        ratio(delta_s * per_day, untraced_s),
    );
    ledger.put(
        "qlearn.merge_fold_ns_per_row",
        "ns",
        ratio(fold_s * 1e9, touched),
    );
    ledger.put(
        "qlearn.merge_fold_share",
        "ratio",
        ratio(fold_s * per_day, untraced_s),
    );
    ledger.put(
        "qlearn.merge_finish_ns_per_state",
        "ns",
        ratio(finish_s * 1e9, merged_states),
    );
    ledger.put(
        "qlearn.merge_finish_share",
        "ratio",
        ratio(finish_s * rounds, untraced_s),
    );
    ledger.put(
        "qlearn.table_encode_ns_per_state",
        "ns",
        ratio(encode_s * 1e9, merged_states),
    );
    ledger.put(
        "qlearn.table_encode_share",
        "ratio",
        ratio(encode_s * rounds, untraced_s),
    );
    ledger.put(
        "simkit.campaign.ns_per_device_day",
        "ns",
        ratio(traced_s * 1e9, campaign_days),
    );
    ledger.put("simkit.campaign.warm_seed_s", "s", setup.sum_fastest());
    let total = |f: fn(&api::CampaignCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    ledger.put(
        "simkit.campaign.uplink_bytes",
        "count",
        total(|c| c.uplink_bytes),
    );
    ledger.put(
        "simkit.campaign.downlink_bytes",
        "count",
        total(|c| c.downlink_bytes),
    );
    ledger.put(
        "simkit.campaign.merged_states",
        "count",
        total(|c| c.merged_states),
    );
    ledger.put(
        "simkit.campaign.peak_table_bytes",
        "count",
        counts.iter().map(|c| c.peak_table_bytes).max().unwrap_or(0) as f64,
    );
    ledger.put(
        "campaign.trace_overhead",
        "ratio",
        ratio(traced_s, untraced_s),
    );
    let attributed =
        live_s * per_day + (delta_s + fold_s) * per_day + (finish_s + encode_s) * rounds;
    ledger.put(
        "campaign.unattributed_share",
        "ratio",
        1.0 - ratio(attributed, untraced_s),
    );
    Ok(())
}
