//! The machine-readable performance harness behind `next-sim perf`.
//!
//! Runs a fixed governor×app×seed grid through the parallel sweep
//! engine with per-cell wall-clock timing, microbenches the dense
//! Q-table's argmax+update loop on a fully-populated synthetic table,
//! and emits everything as a `BENCH.json` artifact —
//! the document the CI `perf-smoke` job gates on and the repo's
//! `BENCH_*.json` trajectory entries consume.
//!
//! Everything in the artifact except wall-clock readings is
//! deterministic: the grid, tick counts and summaries are pure
//! functions of the config, so two runs differ only in their `*_s`,
//! `*_ns` and `*_per_sec` fields.

use std::time::Instant;

use mpsoc::perf::FrameDemand;
use mpsoc::soc::Soc;
use mpsoc::SocBatch;
use next_core::NextConfig;
use qlearn::{DenseQTable, DenseStore, QLearning, QStore, QTable};
use simkit::sweep::{self, StandardEvaluator, SweepCell};
use simkit::{Engine, PlatformPreset, Summary};
use workload::{SessionPlan, SessionSim};

use crate::json::Json;

/// Version of the `BENCH.json` schema family: `BENCH.json`, `day.json`
/// and `campaign.json` all declare it, and [`parse_document`] reads no
/// other. Bump it when a field is added or changes meaning. v7 split
/// the campaign probe's warm-seed training out of its round wall-clock
/// (so `devices_per_sec` measures steady-state rounds only), added
/// per-round `table_bytes` to campaign documents, and added the
/// `overlay` section — copy-on-write warm-start and delta-extraction
/// latencies (`warm_start_ns`, `delta_extract_ns`).
pub const SCHEMA_VERSION: u32 = 7;

/// Parses a `BENCH.json`-family document (`BENCH.json`, `day.json` or
/// `campaign.json`) and checks that it declares [`SCHEMA_VERSION`].
///
/// # Errors
///
/// Returns a human-readable description on malformed JSON or a
/// missing or different `schema` field.
pub fn parse_document(text: &str) -> Result<Json, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_f64)
        .ok_or("missing numeric 'schema' field")?;
    if schema != f64::from(SCHEMA_VERSION) {
        return Err(format!(
            "unsupported schema version {schema} (this build reads {SCHEMA_VERSION})"
        ));
    }
    Ok(doc)
}

/// Configuration of one perf-harness run.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Label recorded in the artifact (`"quick"` / `"full"` / custom).
    pub mode: String,
    /// Platform preset the whole grid (and the probes' action count)
    /// runs on.
    pub platform: String,
    /// Applications of the grid.
    pub apps: Vec<String>,
    /// Governors of the grid.
    pub governors: Vec<String>,
    /// Session seeds of the grid.
    pub seeds: Vec<u64>,
    /// Session length per cell, simulated seconds.
    pub duration_s: f64,
    /// Next training budget per app, simulated seconds.
    pub train_budget_s: f64,
    /// Worker threads for the grid.
    pub workers: usize,
    /// States populated in the Q-table backend microbenchmark.
    pub probe_states: usize,
    /// Device lanes of the batched tick-kernel probe.
    pub batch_width: usize,
    /// Devices of the end-to-end campaign probe (quick-plan days).
    pub campaign_devices: usize,
    /// Rounds of the end-to-end campaign probe.
    pub campaign_rounds: usize,
}

impl PerfConfig {
    /// The CI smoke grid: small but exercising every layer (training,
    /// the RL governor, a baseline governor, the sweep engine).
    #[must_use]
    pub fn quick() -> Self {
        PerfConfig {
            mode: "quick".to_owned(),
            platform: "exynos9810".to_owned(),
            apps: vec!["facebook".to_owned(), "spotify".to_owned()],
            governors: vec!["schedutil".to_owned(), "next".to_owned()],
            seeds: vec![1000],
            duration_s: 60.0,
            train_budget_s: 120.0,
            workers: sweep::default_workers(),
            probe_states: 20_000,
            // Half a fleet round: comfortably past the width where the
            // lane-contiguous arrays amortise the shared per-tick
            // costs, while keeping the probe in the milliseconds.
            batch_width: 64,
            // Big enough that the per-round fixed costs (warm seed,
            // merges) amortise AND the overlay memory claim is
            // visible: by round three the trained bases dwarf the
            // touched sets, so `table_bytes_reduction` crosses 10x.
            // Still well under a second of wall clock.
            campaign_devices: 48,
            campaign_rounds: 3,
        }
    }

    /// The full grid: the six paper apps under the three §V governors.
    #[must_use]
    pub fn full() -> Self {
        PerfConfig {
            mode: "full".to_owned(),
            platform: "exynos9810".to_owned(),
            apps: crate::PAPER_APPS.iter().map(|&a| a.to_owned()).collect(),
            governors: vec![
                "schedutil".to_owned(),
                "intqos".to_owned(),
                "next".to_owned(),
            ],
            seeds: vec![1000],
            duration_s: 120.0,
            train_budget_s: 300.0,
            workers: sweep::default_workers(),
            probe_states: 100_000,
            batch_width: 64,
            campaign_devices: 64,
            campaign_rounds: 3,
        }
    }
}

/// Timing and outcome of one measured grid cell.
#[derive(Debug, Clone)]
pub struct CellPerf {
    /// The grid point.
    pub cell: SweepCell,
    /// Run summary (power/fps/thermals) of the cell.
    pub summary: Summary,
    /// Wall-clock seconds the cell took on its worker.
    pub wall_s: f64,
    /// 25 ms engine ticks executed.
    pub ticks: u64,
    /// Simulated ticks per wall-clock second.
    pub ticks_per_sec: f64,
    /// Governor control invocations during the run.
    pub control_steps: u64,
    /// Wall-clock nanoseconds per control step (includes the platform
    /// simulation between steps — an upper bound on governor overhead).
    pub ns_per_control_step: f64,
}

/// Microbenchmark of the Q-table storage backend: a fully-populated
/// table driven through the hot argmax + Q-update loop.
#[derive(Debug, Clone)]
pub struct BackendProbe {
    /// Backend name (`"dense"`).
    pub backend: String,
    /// States populated (each with every action visited).
    pub states: usize,
    /// Actions per state.
    pub actions: usize,
    /// Mean nanoseconds per `best_action` (argmax) probe.
    pub argmax_ns: f64,
    /// Mean nanoseconds per Q-learning update (read + bootstrap + set).
    pub update_ns: f64,
}

/// Microbenchmark of the federated streaming merge on fully-populated
/// dense tables — the fleet's cloud-side throughput.
#[derive(Debug, Clone)]
pub struct MergeProbe {
    /// Tables merged per pass.
    pub tables: usize,
    /// States per table (every one populated).
    pub states: usize,
    /// Actions per state.
    pub actions: usize,
    /// Nanoseconds per full streaming merge pass.
    pub streaming_ns: f64,
}

/// Throughput probe of the structure-of-arrays tick kernel: the same
/// cohort of devices replaying the same pre-computed frame-demand
/// traces, once as one N-lane batch ([`SocBatch::tick`], all lanes per
/// step) and once as N one-lane devices ([`Soc::tick`], a width-1
/// batch each) stepped one after another. Both sides run the same
/// kernel and must land on bit-identical final states — the probe
/// asserts it — so the wall-clock ratio prices what lane-contiguous
/// arrays save over N separate batches.
#[derive(Debug, Clone)]
pub struct BatchProbe {
    /// Device lanes stepped in lockstep.
    pub width: usize,
    /// Simulated seconds per device.
    pub duration_s: f64,
    /// 25 ms ticks per device.
    pub ticks: u64,
    /// Best-of-three wall-clock seconds for the batched kernel.
    pub batched_wall_s: f64,
    /// Best-of-three wall-clock seconds stepping the cohort as one-lane
    /// devices, one at a time.
    pub sequential_wall_s: f64,
    /// Simulated device-days per wall-clock second, batched. This is
    /// the number the CI floor gates on.
    pub device_days_per_sec: f64,
    /// Simulated device-days per wall-clock second, one-lane devices one
    /// at a time.
    pub sequential_device_days_per_sec: f64,
}

impl BatchProbe {
    /// How much faster one N-lane batch stepped the cohort than N
    /// one-lane devices (`sequential wall / batched wall`).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.batched_wall_s > 0.0 {
            self.sequential_wall_s / self.batched_wall_s
        } else {
            0.0
        }
    }
}

/// Throughput probe of the end-to-end campaign runner: a small
/// quick-plan campaign (whole online-learning days, overlay warm
/// starts, delta encoding, normalized merges — every layer `next-sim
/// campaign` exercises) run once, wall-clocked. The warm-seed training
/// is timed separately from round execution, so `devices_per_sec`
/// counts simulated device-days per **steady-state round** wall-clock
/// second — the campaign-scale sizing number the CI floor gates on.
#[derive(Debug, Clone)]
pub struct CampaignProbe {
    /// Devices simulated.
    pub devices: usize,
    /// Federated rounds (days per device).
    pub rounds: usize,
    /// Wall-clock seconds for the whole campaign (seed + rounds).
    pub wall_s: f64,
    /// Wall-clock seconds of the one-off warm-seed training.
    pub seed_wall_s: f64,
    /// Wall-clock seconds of round execution only.
    pub round_wall_s: f64,
    /// Simulated device-days per round-execution wall-clock second.
    pub devices_per_sec: f64,
    /// Total uplink payload the probe campaign produced, bytes
    /// (deterministic — a sanity anchor for the artifact).
    pub uplink_bytes: u64,
    /// Peak per-round resident table bytes (merged globals + every
    /// device's copy-on-write overlay) over the campaign.
    pub peak_table_bytes: u64,
    /// Peak per-round resident bytes the pre-overlay scheme would have
    /// needed (a full dense clone per device-day per app).
    pub dense_clone_bytes: u64,
}

impl CampaignProbe {
    /// Memory win of the overlay scheme: dense-clone resident bytes
    /// over actual resident bytes at the per-round peak.
    #[must_use]
    pub fn table_bytes_reduction(&self) -> f64 {
        if self.peak_table_bytes > 0 {
            self.dense_clone_bytes as f64 / self.peak_table_bytes as f64
        } else {
            0.0
        }
    }
}

/// Runs the campaign throughput probe on quick-plan days.
///
/// # Panics
///
/// Panics if the derived campaign config is invalid (zero devices or
/// rounds) or `platform` names an unknown preset.
#[must_use]
pub fn probe_campaign(
    devices: usize,
    rounds: usize,
    workers: usize,
    platform: &str,
) -> CampaignProbe {
    let config = simkit::CampaignConfig::quick(devices, rounds, 4242).with_platforms(&[platform]);
    // qlint::allow(ND01, reason = "wall-clock timing of the probe itself; reported as measurement, never fed to simulation")
    let started = Instant::now();
    // qlint::allow(PN01, reason = "probe config is built from literals two lines up")
    let seed = simkit::warm_seed(&config, workers).expect("probe campaign config is valid");
    let seed_wall_s = started.elapsed().as_secs_f64();
    // qlint::allow(ND01, reason = "wall-clock timing of the probe itself; reported as measurement, never fed to simulation")
    let round_started = Instant::now();
    let report = simkit::run_campaign_from_seed(&config, seed, workers);
    let round_wall_s = round_started.elapsed().as_secs_f64();
    let device_days = (devices * rounds) as f64;
    CampaignProbe {
        devices,
        rounds,
        wall_s: seed_wall_s + round_wall_s,
        seed_wall_s,
        round_wall_s,
        devices_per_sec: if round_wall_s > 0.0 {
            device_days / round_wall_s
        } else {
            0.0
        },
        uplink_bytes: report.total_uplink_bytes(),
        peak_table_bytes: report
            .rounds
            .iter()
            .map(|r| r.table_bytes)
            .max()
            .unwrap_or(0),
        dense_clone_bytes: report
            .rounds
            .iter()
            .map(|r| r.dense_clone_bytes)
            .max()
            .unwrap_or(0),
    }
}

/// Microbenchmark of the copy-on-write overlay hot paths against their
/// dense equivalents on a fully-populated base table: warm start (an
/// `Arc` clone vs a full dense clone) and delta extraction after a
/// day's worth of row touches (encode the overlay vs a full-space
/// diff). `warm_start_ns` and `delta_extract_ns` are the numbers the
/// CI ceiling gates on.
#[derive(Debug, Clone)]
pub struct OverlayProbe {
    /// States populated in the base table.
    pub states: usize,
    /// Actions per state.
    pub actions: usize,
    /// Rows touched before delta extraction.
    pub touched: usize,
    /// Mean nanoseconds to warm-start an overlay view of the base.
    pub warm_start_ns: f64,
    /// Mean nanoseconds to warm-start by dense-cloning the base.
    pub dense_clone_ns: f64,
    /// Mean nanoseconds to extract the uplink delta off the overlay.
    pub delta_extract_ns: f64,
    /// Mean nanoseconds for the equivalent full-space dense diff.
    pub dense_delta_ns: f64,
}

impl OverlayProbe {
    /// How much faster the overlay warm start ran than a dense clone.
    #[must_use]
    pub fn warm_start_speedup(&self) -> f64 {
        if self.warm_start_ns > 0.0 {
            self.dense_clone_ns / self.warm_start_ns
        } else {
            0.0
        }
    }

    /// How much faster overlay delta extraction ran than the
    /// full-space diff.
    #[must_use]
    pub fn delta_speedup(&self) -> f64 {
        if self.delta_extract_ns > 0.0 {
            self.dense_delta_ns / self.delta_extract_ns
        } else {
            0.0
        }
    }
}

/// Times a closure until ≥ 3 passes and ≥ 20 ms have accumulated,
/// returning mean nanoseconds per pass.
fn time_pass_ns<F: FnMut()>(mut f: F) -> f64 {
    f();
    // qlint::allow(ND01, reason = "benchmark stopwatch; throughput output only")
    let started = Instant::now();
    let mut passes = 0u32;
    while passes < 3 || started.elapsed().as_secs_f64() < 0.02 {
        f();
        passes += 1;
    }
    started.elapsed().as_secs_f64() * 1e9 / f64::from(passes)
}

/// Runs the overlay hot-path probe on a fully-populated
/// `states`-state, `actions`-action dense base.
#[must_use]
pub fn probe_overlay(states: usize, actions: usize) -> OverlayProbe {
    use std::sync::Arc;

    let mut base = qlearn::DenseQTable::dense_for_space(actions, 0.0, states as u64);
    populate(&mut base, states);
    let base = Arc::new(base);

    let warm_start_ns = time_pass_ns(|| {
        std::hint::black_box(QTable::overlay(Arc::clone(&base)));
    });
    let dense_clone_ns = time_pass_ns(|| {
        std::hint::black_box((*base).clone());
    });

    // A day touches a small fraction of the space; 1% (≥ 16 rows)
    // mirrors the campaign's observed touch rate.
    let touched = (states / 100).max(16).min(states);
    let keys = probe_sequence(states);
    let mut overlay = QTable::overlay(Arc::clone(&base));
    let mut dense = (*base).clone();
    for &k in &keys[..touched] {
        overlay.set(k, 0, 1.25);
        dense.set(k, 0, 1.25);
    }

    let delta_extract_ns = time_pass_ns(|| {
        std::hint::black_box(overlay.delta_bytes());
    });
    let dense_delta_ns = time_pass_ns(|| {
        // qlint::allow(PN01, reason = "both tables were just built over the same space, so the delta cannot fail")
        std::hint::black_box(qlearn::delta_between(&*base, &dense).expect("same space and rows"));
    });

    OverlayProbe {
        states,
        actions,
        touched,
        warm_start_ns,
        dense_clone_ns,
        delta_extract_ns,
        dense_delta_ns,
    }
}

const SECONDS_PER_DAY: f64 = 86_400.0;

/// Runs the batched-kernel throughput probe: `width` devices running
/// `apps` round-robin (seeds `1000 + lane`) for `duration_s` simulated
/// seconds on `preset`'s SoC, with the in-SoC utilization governor as
/// the only control loop. Demand traces are generated **outside** the
/// timed region and shared by both paths, so the probe times the
/// physics kernel, not the workload model.
///
/// # Panics
///
/// Panics on unknown app names, on a zero `width`, or if a lane of the
/// batch diverges bit-wise from its one-lane device (which would be a
/// kernel bug, not a measurement artifact).
#[must_use]
pub fn probe_batch(
    width: usize,
    duration_s: f64,
    apps: &[String],
    preset: &PlatformPreset,
) -> BatchProbe {
    assert!(width > 0, "batch probe needs at least one lane");
    let engine = Engine::new();
    let dt = engine.tick_s();
    let ticks = engine.ticks_for(duration_s);
    #[allow(clippy::cast_possible_truncation)]
    let n_ticks = ticks as usize;

    // Tick-major demand traces: demands[t][lane].
    let mut demands: Vec<Vec<FrameDemand>> = vec![Vec::with_capacity(width); n_ticks];
    for lane in 0..width {
        let app = &apps[lane % apps.len()];
        let plan = SessionPlan::single(app, duration_s);
        let mut session = SessionSim::new(plan, 1000 + lane as u64);
        for row in &mut demands {
            row.push(session.advance(dt));
        }
    }

    // Best-of-N wall clock on both paths: a pass is milliseconds, so
    // scheduler noise only ever inflates a measurement and the minimum
    // is the robust estimate of the true cost. The passes alternate
    // batched/sequential so clock-speed drift across the probe (turbo
    // decay, thermal throttling of the host) hits both paths alike
    // instead of biasing their ratio.
    let passes = 5;
    let config = &preset.soc;
    let mut batched_wall_s = f64::INFINITY;
    let mut sequential_wall_s = f64::INFINITY;
    // qlint::allow(PN01, reason = "preset configs ship with the crate and are covered by tests")
    let mut batch = SocBatch::replicate(config, width).expect("preset SoC config is valid");
    let mut socs: Vec<Soc> = Vec::new();
    for _ in 0..passes {
        // qlint::allow(PN01, reason = "preset configs ship with the crate and are covered by tests")
        batch = SocBatch::replicate(config, width).expect("preset SoC config is valid");
        // qlint::allow(ND01, reason = "benchmark stopwatch around the batched tick loop; ratio output only")
        let started = Instant::now();
        for row in &demands {
            batch.tick(dt, row);
        }
        batched_wall_s = batched_wall_s.min(started.elapsed().as_secs_f64());

        socs = (0..width).map(|_| Soc::new(config.clone())).collect();
        // qlint::allow(ND01, reason = "benchmark stopwatch around the sequential tick loop; ratio output only")
        let started = Instant::now();
        for (lane, soc) in socs.iter_mut().enumerate() {
            for row in &demands {
                soc.tick(dt, &row[lane]);
            }
        }
        sequential_wall_s = sequential_wall_s.min(started.elapsed().as_secs_f64());
    }

    // The probe doubles as an end-to-end equivalence check on real
    // workload traces: batching must be unobservable.
    for (lane, soc) in socs.iter().enumerate() {
        assert!(
            batch.state(lane) == soc.state(),
            "batched lane {lane} diverged from its one-lane device"
        );
    }

    let device_days = width as f64 * duration_s / SECONDS_PER_DAY;
    BatchProbe {
        width,
        duration_s,
        ticks,
        batched_wall_s,
        sequential_wall_s,
        device_days_per_sec: if batched_wall_s > 0.0 {
            device_days / batched_wall_s
        } else {
            0.0
        },
        sequential_device_days_per_sec: if sequential_wall_s > 0.0 {
            device_days / sequential_wall_s
        } else {
            0.0
        },
    }
}

/// A finished perf run, renderable as `BENCH.json`.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// The configuration that ran.
    pub config: PerfConfig,
    /// Wall-clock seconds spent training Next tables (all apps).
    pub train_wall_s: f64,
    /// Wall-clock seconds of the measured grid phase (parallel).
    pub grid_wall_s: f64,
    /// Per-cell results, in grid order.
    pub cells: Vec<CellPerf>,
    /// Dense Q-table argmax+update microbenchmark.
    pub qtable: BackendProbe,
    /// Federated merge throughput probe (fleet cloud path).
    pub merge: MergeProbe,
    /// Batched tick-kernel throughput probe (`device_days_per_sec`).
    pub batch: BatchProbe,
    /// End-to-end campaign throughput probe (`devices_per_sec`).
    pub campaign: CampaignProbe,
    /// Copy-on-write overlay hot-path probe (`warm_start_ns`,
    /// `delta_extract_ns`).
    pub overlay: OverlayProbe,
}

/// Wall-clock period of governor `name`, seconds.
///
/// # Panics
///
/// Panics on an unknown governor name.
#[must_use]
pub fn governor_period_s(name: &str) -> f64 {
    if name == "next" {
        return NextConfig::paper().control_period_s;
    }
    governors::by_name(name)
        // qlint::allow(PN01, reason = "documented panicking lookup; config names are validated against the registry up front")
        .unwrap_or_else(|| panic!("unknown governor '{name}'"))
        .period_s()
}

/// Runs the harness: trains, measures the grid, runs the probes.
///
/// # Panics
///
/// Panics on unknown app, governor or platform names in the config.
#[must_use]
pub fn run(config: &PerfConfig) -> PerfReport {
    let preset = PlatformPreset::by_name(&config.platform)
        // qlint::allow(PN01, reason = "documented panicking lookup; an unknown platform is an unusable config")
        .unwrap_or_else(|| panic!("unknown platform '{}'", config.platform));
    let probe_actions = preset.soc.platform.action_count();
    let cells = sweep::grid(
        &config.apps,
        &config.governors,
        &config.seeds,
        Some(config.duration_s),
    );

    // qlint::allow(ND01, reason = "wall-clock section timing for the perf artifact; simulation time is driven by the deterministic tick")
    let train_started = Instant::now();
    let evaluator = StandardEvaluator::prepare_on(
        &cells,
        config.train_budget_s,
        config.workers,
        preset.clone(),
    );
    let train_wall_s = train_started.elapsed().as_secs_f64();

    // qlint::allow(ND01, reason = "wall-clock section timing for the perf artifact; simulation time is driven by the deterministic tick")
    let grid_started = Instant::now();
    let timed: Vec<(Summary, f64)> = sweep::parallel_map(&cells, config.workers, |cell| {
        // qlint::allow(ND01, reason = "per-cell wall time reported in the artifact; the cell's simulation is seed-driven")
        let started = Instant::now();
        let summary = evaluator.eval(cell);
        (summary, started.elapsed().as_secs_f64())
    });
    let grid_wall_s = grid_started.elapsed().as_secs_f64();

    // Tick accounting comes from the same Engine the evaluator runs
    // cells on, so BENCH.json cannot drift from what actually executed.
    let engine = Engine::new();
    let cells = cells
        .into_iter()
        .zip(timed)
        .map(|(cell, (summary, wall_s))| {
            let ticks = engine.ticks_for(cell.duration_s);
            let period = governor_period_s(&cell.governor);
            let control_every = engine.control_every_ticks(period);
            let control_steps = ticks / control_every;
            CellPerf {
                ticks,
                ticks_per_sec: if wall_s > 0.0 {
                    ticks as f64 / wall_s
                } else {
                    0.0
                },
                control_steps,
                ns_per_control_step: if control_steps > 0 {
                    wall_s * 1e9 / control_steps as f64
                } else {
                    0.0
                },
                cell,
                summary,
                wall_s,
            }
        })
        .collect();

    let qtable = probe_qtable(config.probe_states, probe_actions);
    let merge = probe_merge(
        config.probe_states.min(MERGE_PROBE_MAX_STATES),
        16,
        probe_actions,
    );
    let batch = probe_batch(config.batch_width, config.duration_s, &config.apps, &preset);
    let campaign = probe_campaign(
        config.campaign_devices,
        config.campaign_rounds,
        config.workers,
        &config.platform,
    );
    let overlay = probe_overlay(config.probe_states, probe_actions);

    PerfReport {
        config: config.clone(),
        train_wall_s,
        grid_wall_s,
        cells,
        qtable,
        merge,
        batch,
        campaign,
        overlay,
    }
}

/// Total simulated ticks across the grid.
#[must_use]
pub fn total_ticks(report: &PerfReport) -> u64 {
    report.cells.iter().map(|c| c.ticks).sum()
}

/// Aggregate throughput of the measured grid phase: simulated ticks per
/// wall-clock second, all workers combined. This is the number the CI
/// floor gates on.
#[must_use]
pub fn throughput_ticks_per_sec(report: &PerfReport) -> f64 {
    if report.grid_wall_s > 0.0 {
        total_ticks(report) as f64 / report.grid_wall_s
    } else {
        0.0
    }
}

fn populate(table: &mut QTable<impl QStore>, states: usize) {
    populate_salted(table, states, 0);
}

fn populate_salted(table: &mut QTable<impl QStore>, states: usize, salt: u64) {
    let actions = table.n_actions();
    for s in 0..states as u64 {
        for a in 0..actions {
            // Any finite value pattern works; vary it so argmax has no
            // degenerate all-equal rows (the salt makes tables differ).
            // qlint::allow(PN01, reason = "value is taken mod 13 on the previous expression, so it always fits u32")
            let v = f64::from(u32::try_from((s + salt + a as u64 * 7) % 13).expect("small")) - 6.0;
            table.set(s, a, v);
        }
    }
}

/// A deterministic, hash-scattering permutation of `0..states`, so the
/// probe loop does not walk the table in its insertion order.
fn probe_sequence(states: usize) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..states as u64).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..keys.len()).rev() {
        // xorshift64* for the shuffle.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let j = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % (i as u64 + 1)) as usize;
        keys.swap(i, j);
    }
    keys
}

fn time_per_op<F: FnMut(u64)>(keys: &[u64], mut op: F) -> f64 {
    // Warm-up pass, then measure whole passes until ≥ 20 ms and ≥ 3
    // passes have accumulated.
    for &k in keys {
        op(k);
    }
    // qlint::allow(ND01, reason = "benchmark stopwatch; ns-per-op output only")
    let started = Instant::now();
    let mut ops = 0u64;
    let mut passes = 0u32;
    while passes < 3 || started.elapsed().as_secs_f64() < 0.02 {
        for &k in keys {
            op(k);
        }
        ops += keys.len() as u64;
        passes += 1;
    }
    started.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// Benchmarks the argmax + update hot loop on a fully-populated
/// `states`-state dense table of `actions` actions (compact keys, as
/// produced by the dense `StateSpace` encoding; the table declares the
/// space so it gets its direct slot-table index, exactly as the agent
/// does).
#[must_use]
pub fn probe_qtable(states: usize, actions: usize) -> BackendProbe {
    let mut table = DenseQTable::dense_for_space(actions, 0.0, states as u64);
    populate(&mut table, states);
    let keys = probe_sequence(states);
    let learner = QLearning::new(0.25, 0.5);

    let argmax_ns = time_per_op(&keys, |k| {
        std::hint::black_box(table.best_action(std::hint::black_box(k)));
    });
    let mut i = 0usize;
    let update_ns = time_per_op(&keys, |k| {
        let next = keys[i];
        i = (i + 1) % keys.len();
        let (a, _) = table.best_action(k);
        std::hint::black_box(learner.update(&mut table, k, a, 0.5, next));
    });

    BackendProbe {
        backend: DenseStore::backend_name().to_owned(),
        states,
        actions: table.n_actions(),
        argmax_ns,
        update_ns,
    }
}

/// Cap on the merge-probe table size, keeping the probe's transient
/// memory (a handful of fully-populated tables) in the tens of MB.
const MERGE_PROBE_MAX_STATES: usize = 50_000;

/// Measures one full streaming federated merge of `tables`
/// fully-populated `states`-state dense tables of `actions` actions
/// (the platform's `3m`), in nanoseconds per pass. Two distinct tables
/// are cycled so every fold sees real data without holding `tables`
/// copies in memory.
#[must_use]
pub fn probe_merge(states: usize, tables: usize, actions: usize) -> MergeProbe {
    let build = |salt: u64| {
        let mut t = DenseQTable::dense_for_space(actions, 0.0, states as u64);
        populate_salted(&mut t, states, salt);
        t
    };
    let distinct = [build(0), build(5)];
    let refs: Vec<&DenseQTable> = (0..tables).map(|i| &distinct[i % 2]).collect();

    // At least 2 passes and 20 ms, like the Q-table probe.
    // qlint::allow(ND01, reason = "benchmark stopwatch; merge-throughput output only")
    let started = Instant::now();
    let mut passes = 0u32;
    while passes < 2 || started.elapsed().as_secs_f64() < 0.02 {
        std::hint::black_box(qlearn::federated::merge(&refs));
        passes += 1;
    }
    MergeProbe {
        tables,
        states,
        actions,
        streaming_ns: started.elapsed().as_secs_f64() * 1e9 / f64::from(passes),
    }
}

impl PerfReport {
    /// The `BENCH.json` document.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn to_json(&self) -> Json {
        let cfg = &self.config;
        let grid = Json::Obj(vec![
            (
                "apps".into(),
                Json::Arr(cfg.apps.iter().map(Json::str).collect()),
            ),
            (
                "governors".into(),
                Json::Arr(cfg.governors.iter().map(Json::str).collect()),
            ),
            (
                "seeds".into(),
                Json::Arr(cfg.seeds.iter().map(|&s| Json::num(s as f64)).collect()),
            ),
            ("duration_s".into(), Json::num(cfg.duration_s)),
            ("train_budget_s".into(), Json::num(cfg.train_budget_s)),
            ("workers".into(), Json::num(cfg.workers as f64)),
        ]);
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("app".into(), Json::str(&c.cell.app)),
                    ("governor".into(), Json::str(&c.cell.governor)),
                    ("seed".into(), Json::num(c.cell.seed as f64)),
                    ("duration_s".into(), Json::num(c.cell.duration_s)),
                    ("ticks".into(), Json::num(c.ticks as f64)),
                    ("wall_s".into(), Json::num(c.wall_s)),
                    ("ticks_per_sec".into(), Json::num(c.ticks_per_sec)),
                    ("control_steps".into(), Json::num(c.control_steps as f64)),
                    (
                        "ns_per_control_step".into(),
                        Json::num(c.ns_per_control_step),
                    ),
                    ("avg_power_w".into(), Json::num(c.summary.avg_power_w)),
                    ("avg_fps".into(), Json::num(c.summary.avg_fps)),
                ])
            })
            .collect();
        let p = &self.qtable;
        let qtable = Json::Obj(vec![
            ("backend".into(), Json::str(&p.backend)),
            ("states".into(), Json::num(p.states as f64)),
            ("actions".into(), Json::num(p.actions as f64)),
            ("argmax_ns".into(), Json::num(p.argmax_ns)),
            ("update_ns".into(), Json::num(p.update_ns)),
        ]);
        let merge = Json::Obj(vec![
            ("tables".into(), Json::num(self.merge.tables as f64)),
            ("states".into(), Json::num(self.merge.states as f64)),
            ("actions".into(), Json::num(self.merge.actions as f64)),
            ("streaming_ns".into(), Json::num(self.merge.streaming_ns)),
        ]);
        let batch = Json::Obj(vec![
            ("width".into(), Json::num(self.batch.width as f64)),
            ("duration_s".into(), Json::num(self.batch.duration_s)),
            ("ticks".into(), Json::num(self.batch.ticks as f64)),
            (
                "batched_wall_s".into(),
                Json::num(self.batch.batched_wall_s),
            ),
            (
                "sequential_wall_s".into(),
                Json::num(self.batch.sequential_wall_s),
            ),
            (
                "device_days_per_sec".into(),
                Json::num(self.batch.device_days_per_sec),
            ),
            (
                "sequential_device_days_per_sec".into(),
                Json::num(self.batch.sequential_device_days_per_sec),
            ),
            ("speedup".into(), Json::num(self.batch.speedup())),
        ]);
        let campaign = Json::Obj(vec![
            ("devices".into(), Json::num(self.campaign.devices as f64)),
            ("rounds".into(), Json::num(self.campaign.rounds as f64)),
            ("wall_s".into(), Json::num(self.campaign.wall_s)),
            ("seed_wall_s".into(), Json::num(self.campaign.seed_wall_s)),
            ("round_wall_s".into(), Json::num(self.campaign.round_wall_s)),
            (
                "devices_per_sec".into(),
                Json::num(self.campaign.devices_per_sec),
            ),
            (
                "uplink_bytes".into(),
                Json::num_u64(self.campaign.uplink_bytes),
            ),
            (
                "peak_table_bytes".into(),
                Json::num_u64(self.campaign.peak_table_bytes),
            ),
            (
                "dense_clone_bytes".into(),
                Json::num_u64(self.campaign.dense_clone_bytes),
            ),
            (
                "table_bytes_reduction".into(),
                Json::num(self.campaign.table_bytes_reduction()),
            ),
        ]);
        let overlay = Json::Obj(vec![
            ("states".into(), Json::num(self.overlay.states as f64)),
            ("actions".into(), Json::num(self.overlay.actions as f64)),
            ("touched".into(), Json::num(self.overlay.touched as f64)),
            (
                "warm_start_ns".into(),
                Json::num(self.overlay.warm_start_ns),
            ),
            (
                "dense_clone_ns".into(),
                Json::num(self.overlay.dense_clone_ns),
            ),
            (
                "warm_start_speedup".into(),
                Json::num(self.overlay.warm_start_speedup()),
            ),
            (
                "delta_extract_ns".into(),
                Json::num(self.overlay.delta_extract_ns),
            ),
            (
                "dense_delta_ns".into(),
                Json::num(self.overlay.dense_delta_ns),
            ),
            (
                "delta_speedup".into(),
                Json::num(self.overlay.delta_speedup()),
            ),
        ]);
        Json::Obj(vec![
            ("schema".into(), Json::num(f64::from(SCHEMA_VERSION))),
            ("harness".into(), Json::str("next-sim perf")),
            ("mode".into(), Json::str(&cfg.mode)),
            ("platform".into(), Json::str(&cfg.platform)),
            ("grid".into(), grid),
            (
                "train".into(),
                Json::Obj(vec![("wall_s".into(), Json::num(self.train_wall_s))]),
            ),
            ("cells".into(), Json::Arr(cells)),
            (
                "totals".into(),
                Json::Obj(vec![
                    ("cells".into(), Json::num(self.cells.len() as f64)),
                    ("ticks".into(), Json::num(total_ticks(self) as f64)),
                    ("grid_wall_s".into(), Json::num(self.grid_wall_s)),
                    (
                        "ticks_per_sec".into(),
                        Json::num(throughput_ticks_per_sec(self)),
                    ),
                ]),
            ),
            ("qtable".into(), Json::Arr(vec![qtable])),
            ("merge".into(), merge),
            ("batch".into(), batch),
            ("campaign".into(), campaign),
            ("overlay".into(), overlay),
        ])
    }
}

/// Why the CI performance gate could not pass: every way the gate math
/// can go wrong is its own variant, so callers (and CI logs) can tell a
/// broken baseline from a genuine regression. Nothing in the gate
/// panics or silently coerces to 0 any more.
#[derive(Debug, Clone, PartialEq)]
pub enum GateError {
    /// The baseline file is not parseable JSON.
    BaselineUnreadable(String),
    /// The baseline lacks the named numeric metric.
    MissingMetric(&'static str),
    /// The baseline metric is NaN or infinite.
    NonFiniteMetric {
        /// The offending baseline field.
        metric: &'static str,
        /// Its value.
        value: f64,
    },
    /// The baseline metric is zero or negative — a floor of nothing.
    NonPositiveMetric {
        /// The offending baseline field.
        metric: &'static str,
        /// Its value.
        value: f64,
    },
    /// The report's own measurement is empty or non-finite (e.g. a
    /// zero-wall-clock grid), so no ratio can be formed.
    EmptyMeasurement(&'static str),
    /// The measurement is sound but fell below the floor.
    FloorViolated {
        /// The gated metric.
        metric: &'static str,
        /// What the report measured.
        measured: f64,
        /// The floor it had to reach (`min_ratio` × baseline).
        floor: f64,
        /// The configured ratio.
        min_ratio: f64,
        /// The baseline value the floor derives from.
        baseline: f64,
    },
    /// A latency measurement rose above its ceiling (latency metrics
    /// gate downward: smaller is better).
    CeilingViolated {
        /// The gated metric.
        metric: &'static str,
        /// What the report measured.
        measured: f64,
        /// The ceiling it had to stay under (baseline / `min_ratio`).
        ceiling: f64,
        /// The configured ratio.
        min_ratio: f64,
        /// The baseline value the ceiling derives from.
        baseline: f64,
    },
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::BaselineUnreadable(e) => write!(f, "baseline: {e}"),
            GateError::MissingMetric(metric) => {
                write!(f, "baseline: missing numeric '{metric}'")
            }
            GateError::NonFiniteMetric { metric, value } => {
                write!(f, "baseline: '{metric}' must be finite, got {value}")
            }
            GateError::NonPositiveMetric { metric, value } => {
                write!(f, "baseline: '{metric}' must be positive, got {value}")
            }
            GateError::EmptyMeasurement(metric) => {
                write!(
                    f,
                    "report measured no usable '{metric}' (empty or zero-wall run)"
                )
            }
            GateError::FloorViolated {
                metric,
                measured,
                floor,
                min_ratio,
                baseline,
            } => write!(
                f,
                "{metric} {measured:.0} fell below the floor {floor:.0} \
                 (= {min_ratio} x baseline {baseline:.0})"
            ),
            GateError::CeilingViolated {
                metric,
                measured,
                ceiling,
                min_ratio,
                baseline,
            } => write!(
                f,
                "{metric} {measured:.0} rose above the ceiling {ceiling:.0} \
                 (= baseline {baseline:.0} / {min_ratio})"
            ),
        }
    }
}

impl std::error::Error for GateError {}

/// Reads the named numeric metric out of the baseline document,
/// classifying every failure mode.
fn baseline_metric(baseline: &Json, metric: &'static str) -> Result<f64, GateError> {
    let value = baseline
        .get(metric)
        .and_then(Json::as_f64)
        .ok_or(GateError::MissingMetric(metric))?;
    if !value.is_finite() {
        return Err(GateError::NonFiniteMetric { metric, value });
    }
    if value <= 0.0 {
        return Err(GateError::NonPositiveMetric { metric, value });
    }
    Ok(value)
}

/// Gates one measured metric against `min_ratio` × its baseline,
/// returning the human-readable pass line.
fn gate_metric(
    metric: &'static str,
    measured: f64,
    baseline: f64,
    min_ratio: f64,
) -> Result<String, GateError> {
    if !measured.is_finite() || measured <= 0.0 {
        return Err(GateError::EmptyMeasurement(metric));
    }
    let floor = baseline * min_ratio;
    if measured < floor {
        return Err(GateError::FloorViolated {
            metric,
            measured,
            floor,
            min_ratio,
            baseline,
        });
    }
    Ok(format!(
        "{metric} {measured:.0} >= floor {floor:.0} ({:.1}x the gated minimum)",
        measured / floor
    ))
}

/// Gates one measured latency against its ceiling, baseline /
/// `min_ratio` — the downward mirror of [`gate_metric`], with the same
/// slack factor: at `min_ratio` 0.5 a latency may double before the
/// gate trips.
fn gate_ceiling(
    metric: &'static str,
    measured: f64,
    baseline: f64,
    min_ratio: f64,
) -> Result<String, GateError> {
    if !measured.is_finite() || measured <= 0.0 {
        return Err(GateError::EmptyMeasurement(metric));
    }
    let ceiling = baseline / min_ratio;
    if measured > ceiling {
        return Err(GateError::CeilingViolated {
            metric,
            measured,
            ceiling,
            min_ratio,
            baseline,
        });
    }
    Ok(format!(
        "{metric} {measured:.0} <= ceiling {ceiling:.0} ({:.1}x headroom)",
        ceiling / measured
    ))
}

/// Signature shared by [`gate_metric`] and [`gate_ceiling`].
type Gate = fn(&'static str, f64, f64, f64) -> Result<String, GateError>;

/// Applies the CI performance gates. The baseline must carry all five
/// gated fields. Three are throughput **floors** the report must reach
/// `min_ratio` of: the aggregate `ticks_per_sec`, the batched
/// tick-kernel probe's `device_days_per_sec` and the end-to-end
/// campaign probe's `devices_per_sec`. Two are overlay-probe latency
/// **ceilings** (baseline / `min_ratio` — smaller is better):
/// `warm_start_ns` and `delta_extract_ns`.
///
/// `baseline_text` is the checked-in baseline JSON (see
/// `ci/perf-baseline.json`).
///
/// # Errors
///
/// Returns a typed [`GateError`] — distinguishing an unreadable,
/// incomplete or degenerate baseline from a genuine floor violation —
/// which renders as the human-readable gate message via `Display`.
pub fn check_floor(
    report: &PerfReport,
    baseline_text: &str,
    min_ratio: f64,
) -> Result<String, GateError> {
    let baseline =
        Json::parse(baseline_text).map_err(|e| GateError::BaselineUnreadable(e.to_string()))?;
    let gates: [(&'static str, f64, Gate); 5] = [
        (
            "ticks_per_sec",
            throughput_ticks_per_sec(report),
            gate_metric,
        ),
        (
            "device_days_per_sec",
            report.batch.device_days_per_sec,
            gate_metric,
        ),
        (
            "devices_per_sec",
            report.campaign.devices_per_sec,
            gate_metric,
        ),
        ("warm_start_ns", report.overlay.warm_start_ns, gate_ceiling),
        (
            "delta_extract_ns",
            report.overlay.delta_extract_ns,
            gate_ceiling,
        ),
    ];
    let mut lines = Vec::with_capacity(gates.len());
    for (metric, measured, gate) in gates {
        let base = baseline_metric(&baseline, metric)?;
        lines.push(gate(metric, measured, base, min_ratio)?);
    }
    Ok(lines.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> PerfConfig {
        PerfConfig {
            mode: "test".to_owned(),
            platform: "exynos9810".to_owned(),
            apps: vec!["facebook".to_owned()],
            governors: vec!["schedutil".to_owned(), "next".to_owned()],
            seeds: vec![1],
            duration_s: 5.0,
            train_budget_s: 10.0,
            workers: 2,
            probe_states: 500,
            batch_width: 4,
            campaign_devices: 2,
            campaign_rounds: 1,
        }
    }

    #[test]
    #[allow(clippy::too_many_lines)]
    fn report_renders_valid_json_with_expected_fields() {
        let report = run(&tiny_config());
        assert_eq!(report.cells.len(), 2);
        let text = report.to_json().render();
        let doc = Json::parse(&text).expect("BENCH.json must be valid JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_f64), Some(7.0));
        assert_eq!(doc.get("mode").and_then(Json::as_str), Some("test"));
        assert_eq!(
            doc.get("platform").and_then(Json::as_str),
            Some("exynos9810")
        );
        let cells = doc
            .get("cells")
            .and_then(Json::as_array)
            .expect("cells array");
        assert_eq!(cells.len(), 2);
        for cell in cells {
            assert_eq!(
                cell.get("ticks").and_then(Json::as_f64),
                Some(200.0),
                "5 s grid"
            );
            assert!(cell.get("wall_s").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(
                cell.get("ns_per_control_step")
                    .and_then(Json::as_f64)
                    .unwrap()
                    > 0.0
            );
        }
        let probes = doc.get("qtable").and_then(Json::as_array).expect("probes");
        assert_eq!(probes.len(), 1);
        assert_eq!(
            probes[0].get("backend").and_then(Json::as_str),
            Some("dense")
        );
        assert!(doc
            .get("totals")
            .and_then(|t| t.get("ticks_per_sec"))
            .is_some());
        let merge = doc.get("merge").expect("merge probe section");
        assert_eq!(merge.get("tables").and_then(Json::as_f64), Some(16.0));
        assert!(merge.get("streaming_ns").and_then(Json::as_f64).unwrap() > 0.0);
        let batch = doc.get("batch").expect("batch probe section");
        assert_eq!(batch.get("width").and_then(Json::as_f64), Some(4.0));
        assert_eq!(batch.get("ticks").and_then(Json::as_f64), Some(200.0));
        assert!(
            batch
                .get("device_days_per_sec")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(
            batch
                .get("sequential_device_days_per_sec")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(batch.get("speedup").and_then(Json::as_f64).unwrap() > 0.0);
        let campaign = doc.get("campaign").expect("campaign probe section");
        assert_eq!(campaign.get("devices").and_then(Json::as_f64), Some(2.0));
        assert_eq!(campaign.get("rounds").and_then(Json::as_f64), Some(1.0));
        assert!(
            campaign
                .get("devices_per_sec")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(campaign.get("uplink_bytes").and_then(Json::as_u64).unwrap() > 0);
        assert!(campaign.get("seed_wall_s").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(campaign.get("round_wall_s").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(
            campaign
                .get("peak_table_bytes")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        assert!(
            campaign
                .get("table_bytes_reduction")
                .and_then(Json::as_f64)
                .unwrap()
                > 1.0,
            "overlays must beat dense clones even at test scale"
        );
        let overlay = doc.get("overlay").expect("overlay probe section");
        assert!(overlay.get("warm_start_ns").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(
            overlay
                .get("delta_extract_ns")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(
            overlay
                .get("warm_start_speedup")
                .and_then(Json::as_f64)
                .unwrap()
                > 1.0,
            "an Arc clone must beat a dense copy"
        );
    }

    #[test]
    fn overlay_probe_measures_both_hot_paths() {
        let probe = probe_overlay(2_000, 9);
        assert_eq!(probe.states, 2_000);
        assert_eq!(probe.actions, 9);
        assert!(probe.touched >= 16 && probe.touched <= 2_000);
        assert!(probe.warm_start_ns > 0.0 && probe.dense_clone_ns > 0.0);
        assert!(probe.delta_extract_ns > 0.0 && probe.dense_delta_ns > 0.0);
        // The structural claim, not a tight wall-clock one: sharing a
        // base is faster than copying 2 000 rows.
        assert!(probe.warm_start_speedup() > 1.0);
    }

    #[test]
    fn batch_probe_measures_and_matches_scalar() {
        // The probe itself asserts per-lane bit-equality with the
        // one-lane devices, so reaching the return value at all is the
        // lane-independence check; here we verify the accounting.
        let apps = vec!["facebook".to_owned(), "youtube".to_owned()];
        let preset = PlatformPreset::by_name("exynos9820").unwrap();
        let probe = probe_batch(3, 10.0, &apps, &preset);
        assert_eq!(probe.width, 3);
        assert_eq!(probe.ticks, 400);
        assert!(probe.batched_wall_s > 0.0 && probe.sequential_wall_s > 0.0);
        assert!(probe.device_days_per_sec > 0.0);
        assert!(probe.sequential_device_days_per_sec > 0.0);
        assert!(probe.speedup() > 0.0);
    }

    #[test]
    fn merge_probe_measures_streaming_merge() {
        // Structural checks only — wall-clock numbers live in the
        // `federated_merge` criterion bench and the BENCH.json artifact,
        // where noise doesn't fail `cargo test`.
        let probe = probe_merge(2_000, 8, 9);
        assert_eq!(probe.tables, 8);
        assert_eq!(probe.states, 2_000);
        assert_eq!(probe.actions, 9);
        assert!(probe.streaming_ns > 0.0);
    }

    #[test]
    fn control_step_accounting_follows_governor_period() {
        let report = run(&tiny_config());
        for cell in &report.cells {
            let expect = match cell.cell.governor.as_str() {
                "schedutil" | "next" => 50, // 5 s / 100 ms
                other => panic!("unexpected governor {other}"),
            };
            assert_eq!(cell.control_steps, expect);
        }
    }

    /// Renders a baseline carrying all five gated fields with 10×
    /// slack over what `report` measured. Each override replaces one
    /// field's value, or drops the field when the value is `None`.
    fn baseline_with(report: &PerfReport, overrides: &[(&str, Option<f64>)]) -> String {
        let generous = [
            ("ticks_per_sec", throughput_ticks_per_sec(report) / 10.0),
            (
                "device_days_per_sec",
                report.batch.device_days_per_sec / 10.0,
            ),
            ("devices_per_sec", report.campaign.devices_per_sec / 10.0),
            ("warm_start_ns", report.overlay.warm_start_ns * 10.0),
            ("delta_extract_ns", report.overlay.delta_extract_ns * 10.0),
        ];
        let fields = generous
            .into_iter()
            .filter_map(|(name, value)| {
                let value = match overrides.iter().find(|(n, _)| *n == name) {
                    Some(&(_, replaced)) => replaced?,
                    None => value,
                };
                Some((name.to_owned(), Json::num(value)))
            })
            .collect();
        Json::Obj(fields).render()
    }

    #[test]
    fn floor_check_passes_and_fails_correctly() {
        let report = run(&tiny_config());
        let tps = throughput_ticks_per_sec(&report);
        assert!(tps > 0.0);
        assert!(check_floor(&report, &baseline_with(&report, &[]), 0.5).is_ok());
        let impossible = baseline_with(&report, &[("ticks_per_sec", Some(tps * 1e6))]);
        assert!(matches!(
            check_floor(&report, &impossible, 0.5),
            Err(GateError::FloorViolated {
                metric: "ticks_per_sec",
                ..
            })
        ));
    }

    #[test]
    fn floor_check_gates_device_days_when_baseline_carries_it() {
        let report = run(&tiny_config());
        let ddps = report.batch.device_days_per_sec;
        assert!(ddps > 0.0);
        let verdict =
            check_floor(&report, &baseline_with(&report, &[]), 0.5).expect("all gates pass");
        assert!(verdict.contains("device_days_per_sec"));
        let batch_fails = baseline_with(&report, &[("device_days_per_sec", Some(ddps * 1e6))]);
        assert!(matches!(
            check_floor(&report, &batch_fails, 0.5),
            Err(GateError::FloorViolated {
                metric: "device_days_per_sec",
                ..
            })
        ));
    }

    #[test]
    fn floor_check_gates_campaign_throughput_when_baseline_carries_it() {
        let report = run(&tiny_config());
        let dps = report.campaign.devices_per_sec;
        assert!(dps > 0.0);
        let verdict =
            check_floor(&report, &baseline_with(&report, &[]), 0.5).expect("all gates pass");
        assert!(verdict.contains("devices_per_sec"));
        let campaign_fails = baseline_with(&report, &[("devices_per_sec", Some(dps * 1e6))]);
        assert!(matches!(
            check_floor(&report, &campaign_fails, 0.5),
            Err(GateError::FloorViolated {
                metric: "devices_per_sec",
                ..
            })
        ));
    }

    #[test]
    fn floor_check_gates_overlay_latency_ceilings_when_baseline_carries_them() {
        let report = run(&tiny_config());
        let warm = report.overlay.warm_start_ns;
        let delta = report.overlay.delta_extract_ns;
        assert!(warm > 0.0 && delta > 0.0);
        let verdict =
            check_floor(&report, &baseline_with(&report, &[]), 0.5).expect("ceilings pass");
        assert!(verdict.contains("warm_start_ns"));
        assert!(verdict.contains("delta_extract_ns"));
        // A latency regression trips the ceiling.
        let warm_fails = baseline_with(&report, &[("warm_start_ns", Some(warm / 1e6))]);
        assert!(matches!(
            check_floor(&report, &warm_fails, 0.5),
            Err(GateError::CeilingViolated {
                metric: "warm_start_ns",
                ..
            })
        ));
    }

    #[test]
    fn gate_error_on_unreadable_baseline() {
        let report = run(&tiny_config());
        assert!(matches!(
            check_floor(&report, "not json", 0.5),
            Err(GateError::BaselineUnreadable(_))
        ));
    }

    #[test]
    fn gate_error_on_missing_metric() {
        let report = run(&tiny_config());
        assert_eq!(
            check_floor(&report, "{}", 0.5),
            Err(GateError::MissingMetric("ticks_per_sec"))
        );
        // A non-numeric field is "missing" as a metric too.
        assert_eq!(
            check_floor(&report, "{\"ticks_per_sec\": \"fast\"}", 0.5),
            Err(GateError::MissingMetric("ticks_per_sec"))
        );
        // Every gated field is required: a baseline without the
        // campaign floor is rejected, not skipped.
        let no_campaign = baseline_with(&report, &[("devices_per_sec", None)]);
        assert_eq!(
            check_floor(&report, &no_campaign, 0.5),
            Err(GateError::MissingMetric("devices_per_sec"))
        );
    }

    #[test]
    fn gate_error_on_non_finite_metric() {
        // `Json::parse` refuses non-finite literals outright (that
        // path is `BaselineUnreadable`), so exercise the gate math on
        // a programmatically-built document.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let baseline = Json::Obj(vec![("ticks_per_sec".into(), Json::Num(bad))]);
            let err = baseline_metric(&baseline, "ticks_per_sec").unwrap_err();
            assert!(
                matches!(
                    err,
                    GateError::NonFiniteMetric {
                        metric: "ticks_per_sec",
                        ..
                    }
                ),
                "baseline {bad} gave {err:?}"
            );
        }
        // Through the text path an overflowing literal is unreadable,
        // never a silent infinity.
        let report = run(&tiny_config());
        let inf = format!("{{\"ticks_per_sec\": 1{}}}", "0".repeat(400));
        assert!(matches!(
            check_floor(&report, &inf, 0.5),
            Err(GateError::BaselineUnreadable(_))
        ));
    }

    #[test]
    fn gate_error_on_non_positive_metric() {
        let report = run(&tiny_config());
        for bad in ["0", "-125000"] {
            let text = format!("{{\"ticks_per_sec\": {bad}}}");
            assert!(
                matches!(
                    check_floor(&report, &text, 0.5),
                    Err(GateError::NonPositiveMetric {
                        metric: "ticks_per_sec",
                        ..
                    })
                ),
                "baseline {bad} must be rejected as non-positive"
            );
        }
    }

    #[test]
    fn gate_error_on_empty_measurement() {
        let mut report = run(&tiny_config());
        // A zero-wall grid used to gate as a silent throughput of 0;
        // now it is its own typed error.
        report.grid_wall_s = 0.0;
        assert_eq!(
            check_floor(&report, "{\"ticks_per_sec\": 1000}", 0.5),
            Err(GateError::EmptyMeasurement("ticks_per_sec"))
        );
    }

    #[test]
    fn gate_errors_render_via_display() {
        let cases: Vec<(GateError, &str)> = vec![
            (
                GateError::BaselineUnreadable("bad token".into()),
                "baseline",
            ),
            (GateError::MissingMetric("ticks_per_sec"), "missing"),
            (
                GateError::NonFiniteMetric {
                    metric: "ticks_per_sec",
                    value: f64::INFINITY,
                },
                "finite",
            ),
            (
                GateError::NonPositiveMetric {
                    metric: "device_days_per_sec",
                    value: -1.0,
                },
                "positive",
            ),
            (GateError::EmptyMeasurement("ticks_per_sec"), "no usable"),
            (
                GateError::FloorViolated {
                    metric: "ticks_per_sec",
                    measured: 10.0,
                    floor: 100.0,
                    min_ratio: 0.5,
                    baseline: 200.0,
                },
                "below the floor",
            ),
            (
                GateError::CeilingViolated {
                    metric: "warm_start_ns",
                    measured: 500.0,
                    ceiling: 100.0,
                    min_ratio: 0.5,
                    baseline: 50.0,
                },
                "above the ceiling",
            ),
        ];
        for (err, needle) in cases {
            let text = format!("{err}");
            assert!(text.contains(needle), "{text:?} lacks {needle:?}");
        }
    }

    #[test]
    fn governor_periods_are_positive() {
        for gov in StandardEvaluator::GOVERNORS {
            assert!(governor_period_s(gov) > 0.0, "{gov}");
        }
    }

    #[test]
    fn parser_rejects_bad_documents() {
        assert!(parse_document("not json").is_err());
        assert!(
            parse_document("{\"mode\":\"quick\"}").is_err(),
            "missing schema"
        );
        for other in [1, 6, 8] {
            assert!(
                parse_document(&format!("{{\"schema\":{other}}}")).is_err(),
                "schema {other} must be rejected"
            );
        }
        let doc = parse_document("{\"schema\":7,\"campaign\":{}}").expect("schema 7 parses");
        assert!(doc.get("campaign").is_some());
    }

    #[test]
    fn probe_sequence_is_a_permutation() {
        let mut seq = probe_sequence(1000);
        seq.sort_unstable();
        assert_eq!(seq, (0..1000).collect::<Vec<u64>>());
    }
}
