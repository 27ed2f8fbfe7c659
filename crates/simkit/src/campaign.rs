//! Million-device campaign runner: sharded, checkpointed federated
//! battery-days (§IV-C run at production scale and day granularity).
//!
//! A campaign federates **whole days**: every federated round, every
//! device lives one full [`workload::DayPlan`] — persona-driven
//! pickups, screen-off cooling, per-app Q-tables — with online learning
//! enabled ([`DaySpec::train_online`]), uploads the **binary delta** of
//! what it learned (`qlearn::codec`), and receives the merged
//! per-platform tables back:
//!
//! ```text
//!         ┌──────────────── one campaign round ────────────────┐
//!         │ shard 0: devices 0..S     (parallel_map, W workers)│
//!         │ shard 1: devices S..2S    … one full day each …    │
//!         │   …        memory ∝ shard size, never fleet size   │
//!         │ cloud: fold shards in device order,                │
//!         │        finish_normalized() per (platform, app)     │
//!         │ uplink = Σ encoded delta bytes (NXQT kind-2)       │
//!         │ downlink = Σ merged table bytes (NXQT kind-1)      │
//!         └──────────── checkpoint (NXCP) ▶ next round ────────┘
//! ```
//!
//! **Memory.** Devices never clone the merged tables. Each round's
//! merged per-platform tables live behind `Arc`s, and every device day
//! runs on [`qlearn::OverlayStore`] views of them: warm start is an
//! `Arc` clone (O(1)), the day's resident footprint is the rows it
//! actually touched, and the uplink delta is read straight off the
//! overlay ([`QTable::delta_bytes`]) instead of a full-space diff. The
//! cloud folds only touched rows per device and applies a closed-form
//! correction for the untouched remainder
//! ([`MergeAccumulator::fold_overlay`]), so round cost scales with
//! what the fleet learned, not with the state space.
//!
//! **Cohorts.** Devices are drawn from seeded cohorts — persona ×
//! platform × hardware bin ([`SOC_BINS`]) — and the campaign keeps
//! streaming per-cohort statistics (count, min/max/mean and a 64-bin
//! histogram per metric) so the artifact reports PPDW/FPS/power/drain
//! quantiles per cohort without retaining any per-device series.
//!
//! **Checkpoints.** After every round the full campaign state — the
//! regeneration recipe, per-round ledger, cohort accumulators and the
//! merged per-platform tables (NXQT-encoded) — is written atomically
//! to `<dir>/campaign.nxcp`. A killed campaign resumes from it and
//! produces **byte-identical** artifacts: every quantity is a pure
//! function of the [`CampaignConfig`], independent of worker count,
//! shard boundaries or where the kill happened.
//!
//! Round timing is *modeled* from the actual encoded payload sizes via
//! [`LinkModel::uplink_time_s`]/[`LinkModel::downlink_time_s`]; no wall
//! clock ever enters the artifact.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mpsoc::soc::SocConfig;
use next_core::QTableStore;
use qlearn::{decode_table, encode_table, DenseQTable, DenseStore, OverlayStore};
use qlearn::{MergeAccumulator, QTable};
use workload::scenario::{splitmix64, DayPlanConfig};
use workload::{DayPlan, Persona};

use crate::day::{run_day, DaySpec};
use crate::metrics::Battery;
use crate::platform::PlatformPreset;
use crate::sweep::{parallel_map, StandardEvaluator};

/// Salt mixing the round number into a device's per-round seed (the
/// same constant the day-scale scenario engine uses), so every round
/// sees fresh but reproducible user behaviour.
const ROUND_SALT: u64 = 0xff51_afd7_ed55_8ccd;

/// Number of per-device-day metrics a cohort tracks.
pub const METRIC_COUNT: usize = 4;

/// Names of the tracked metrics, in storage order.
pub const METRIC_NAMES: [&str; METRIC_COUNT] =
    ["ppdw", "avg_fps", "avg_power_w", "battery_drain_pct"];

/// Histogram range per metric. PPDW is capped well above the paper
/// space's practical ceiling (~120 at the ΔT/power floors), FPS above
/// any panel rate, power above [`next_core::ppdw::PpdwBounds`]'s 16 W,
/// drain at the saturating 100 %. Out-of-range samples clamp into the
/// end bins; exact min/max/mean are tracked separately.
const METRIC_RANGES: [(f64, f64); METRIC_COUNT] =
    [(0.0, 200.0), (0.0, 120.0), (0.0, 16.0), (0.0, 100.0)];

/// Bins per metric histogram.
pub const HIST_BINS: usize = 64;

/// Checkpoint file name inside the checkpoint directory.
pub const CHECKPOINT_FILE: &str = "campaign.nxcp";

const CKPT_MAGIC: [u8; 4] = *b"NXCP";
/// Version history: 1 = PR 8 layout; 2 = adds per-round `table_bytes`
/// to the ledger records (overlay working-set accounting).
const CKPT_VERSION: u16 = 2;

/// Up-/down-link latency of one federated round — the configurable
/// generalisation of Fig. 6's measured ≤4 s round-trip overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Device → cloud table upload latency, seconds.
    pub uplink_s: f64,
    /// Cloud → device merged-table push latency, seconds.
    pub downlink_s: f64,
}

impl LinkModel {
    /// The paper's measured round trip: ≤4 s, split evenly.
    #[must_use]
    pub fn paper() -> Self {
        LinkModel {
            uplink_s: 2.0,
            downlink_s: 2.0,
        }
    }

    /// Modeled device uplink throughput, bytes per second (~8 Mbit/s,
    /// a conservative mobile uplink).
    pub const UPLINK_BYTES_PER_S: f64 = 1_000_000.0;

    /// Modeled device downlink throughput, bytes per second
    /// (~32 Mbit/s; downlinks are typically several times faster).
    pub const DOWNLINK_BYTES_PER_S: f64 = 4_000_000.0;

    /// Time to upload a payload of `bytes`: the fixed uplink latency
    /// plus the transfer at [`LinkModel::UPLINK_BYTES_PER_S`].
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn uplink_time_s(&self, bytes: u64) -> f64 {
        self.uplink_s + bytes as f64 / Self::UPLINK_BYTES_PER_S
    }

    /// Time to download a payload of `bytes`: the fixed downlink
    /// latency plus the transfer at [`LinkModel::DOWNLINK_BYTES_PER_S`].
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn downlink_time_s(&self, bytes: u64) -> f64 {
        self.downlink_s + bytes as f64 / Self::DOWNLINK_BYTES_PER_S
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::paper()
    }
}

/// One hardware bin of the fleet: the silicon/thermal lottery a real
/// production run exhibits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocBin {
    /// Bin label (recorded as a cohort's `bin` in the campaign
    /// artifact).
    pub name: &'static str,
    /// Ambient temperature the device lives at, °C (thermal bin).
    pub ambient_c: f64,
    /// Multiplier on the platform's base power floor (power bin:
    /// leakier or better-binned silicon).
    pub power_scale: f64,
}

/// The fleet's hardware bins; devices are assigned round-robin.
pub const SOC_BINS: [SocBin; 4] = [
    SocBin {
        name: "typical",
        ambient_c: 21.0,
        power_scale: 1.0,
    },
    SocBin {
        name: "warm-climate",
        ambient_c: 27.0,
        power_scale: 1.0,
    },
    SocBin {
        name: "leaky-silicon",
        ambient_c: 21.0,
        power_scale: 1.15,
    },
    SocBin {
        name: "cool-efficient",
        ambient_c: 15.0,
        power_scale: 0.9,
    },
];

/// Builds the simulated device for a hardware bin: the given platform's
/// stock device at the bin's ambient with its base-power scale applied.
#[must_use]
pub fn soc_config_for(base: &SocConfig, bin: &SocBin) -> SocConfig {
    let mut cfg = base.clone().with_ambient(bin.ambient_c);
    cfg.platform.scale_base_power(bin.power_scale);
    cfg
}

/// One device of the simulated fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Device number (stable across rounds).
    pub id: usize,
    /// Index into [`SOC_BINS`].
    pub bin: usize,
    /// Index into [`CampaignConfig::platforms`] — which platform this
    /// device is.
    pub platform: usize,
    /// Base seed of this device's user (per-round seeds derive from
    /// it, so every round sees fresh but reproducible behaviour).
    pub user_seed: u64,
}

/// Derives the deterministic device roster of a fleet: bins and
/// platforms assigned round-robin, user seeds split from the master
/// seed (platform assignment does not perturb the seed stream).
#[must_use]
pub fn device_profiles(devices: usize, seed: u64, platforms: usize) -> Vec<DeviceProfile> {
    (0..devices)
        .map(|id| DeviceProfile {
            id,
            bin: id % SOC_BINS.len(),
            platform: id % platforms.max(1),
            user_seed: splitmix64(seed ^ (id as u64).wrapping_mul(0xa076_1d64_78bd_642f)),
        })
        .collect()
}

/// Configuration of a campaign — the complete regeneration recipe.
/// Every quantity in a [`CampaignReport`] is a pure function of this
/// struct; the checkpoint embeds it verbatim and a resume validates it
/// field by field.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Number of devices in the campaign.
    pub devices: usize,
    /// Number of federated rounds (= days per device).
    pub rounds: usize,
    /// Master seed: device roster, personas and per-round day plans
    /// all derive from it.
    pub seed: u64,
    /// Devices simulated per shard. Peak memory is proportional to the
    /// shard size (trained tables in flight), never the fleet size.
    pub shard_size: usize,
    /// Platform presets, assigned round-robin by device id. The cloud
    /// keeps one merged table per (platform, app), so a name may appear
    /// only once.
    pub platforms: Vec<String>,
    /// Shape of every simulated day.
    pub plan: DayPlanConfig,
    /// Screen-off gap tick, seconds.
    pub gap_tick_s: f64,
    /// Base training budget for the warm-seed tables, simulated
    /// seconds (games get twice the base, as in §V).
    pub train_budget_s: f64,
    /// Battery pack drain is reported against.
    pub battery: Battery,
    /// Link model pricing the encoded payloads.
    pub link: LinkModel,
}

impl CampaignConfig {
    /// Full-scale defaults: the paper's 52-pickup 16 h day, §V training
    /// budget, Note 9 pack, 1024-device shards.
    #[must_use]
    pub fn new(devices: usize, rounds: usize, seed: u64) -> Self {
        CampaignConfig {
            devices,
            rounds,
            seed,
            shard_size: 1024,
            platforms: vec!["exynos9810".to_owned()],
            plan: DayPlanConfig::paper(),
            gap_tick_s: 1.0,
            train_budget_s: StandardEvaluator::BASE_TRAIN_BUDGET_S,
            battery: Battery::note9(),
            link: LinkModel::paper(),
        }
    }

    /// CI-smoke defaults: a 4-pickup compressed day and short warm-seed
    /// training so a multi-round multi-device campaign finishes in
    /// seconds.
    #[must_use]
    pub fn quick(devices: usize, rounds: usize, seed: u64) -> Self {
        CampaignConfig {
            shard_size: 16,
            plan: DayPlanConfig {
                pickups: 4,
                day_length_s: 400.0,
                session_scale: 0.1,
                min_session_s: 15.0,
            },
            train_budget_s: 30.0,
            ..CampaignConfig::new(devices, rounds, seed)
        }
    }

    /// Replaces the platform mix.
    #[must_use]
    pub fn with_platforms(mut self, platforms: &[&str]) -> Self {
        self.platforms = platforms.iter().map(|&p| p.to_owned()).collect();
        self
    }

    /// Checks the campaign is runnable.
    ///
    /// # Errors
    ///
    /// Returns the human-readable violation: zero devices/rounds/shard,
    /// an unknown or repeated platform, an infeasible day plan, or a
    /// non-positive gap tick or training budget.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices == 0 {
            return Err("campaign needs at least one device".to_owned());
        }
        if self.rounds == 0 {
            return Err("campaign needs at least one round".to_owned());
        }
        if self.shard_size == 0 {
            return Err("shard size must be at least one".to_owned());
        }
        if self.platforms.is_empty() {
            return Err("campaign needs at least one platform".to_owned());
        }
        for (i, p) in self.platforms.iter().enumerate() {
            if PlatformPreset::by_name(p).is_none() {
                return Err(format!("unknown platform preset '{p}'"));
            }
            if self.platforms[..i].contains(p) {
                return Err(format!("platform '{p}' is listed twice"));
            }
        }
        self.plan.validate()?;
        if !(self.gap_tick_s > 0.0 && self.gap_tick_s.is_finite()) {
            return Err("gap tick must be positive and finite".to_owned());
        }
        if !(self.train_budget_s > 0.0 && self.train_budget_s.is_finite()) {
            return Err("training budget must be positive and finite".to_owned());
        }
        Ok(())
    }

    /// Number of cohorts: persona × platform × hardware bin.
    #[must_use]
    pub fn cohort_count(&self) -> usize {
        Persona::names().len() * self.platforms.len() * SOC_BINS.len()
    }
}

/// Streaming min/max/sum plus a fixed-range histogram — one metric of
/// one cohort. Quantiles come from the histogram (linear interpolation
/// within a bin, clamped to the exact observed [min, max]).
#[derive(Debug, Clone, PartialEq)]
struct MetricStat {
    min: f64,
    max: f64,
    sum: f64,
    bins: Vec<u64>,
}

impl MetricStat {
    fn new() -> Self {
        MetricStat {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            bins: vec![0; HIST_BINS],
        }
    }

    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)]
    fn record(&mut self, v: f64, lo: f64, hi: f64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        let t = ((v - lo) / (hi - lo) * HIST_BINS as f64).floor();
        let idx = if t.is_nan() || t < 0.0 { 0 } else { t as usize };
        self.bins[idx.min(HIST_BINS - 1)] += 1;
    }

    /// Quantile `q` ∈ [0, 1] of the recorded samples via the histogram.
    #[allow(clippy::cast_precision_loss)]
    fn quantile(&self, q: f64, count: u64, lo: f64, hi: f64) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let target = q * count as f64;
        let width = (hi - lo) / HIST_BINS as f64;
        let mut cum = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (cum + n) as f64 >= target {
                let within = ((target - cum as f64) / n as f64).clamp(0.0, 1.0);
                let v = lo + (i as f64 + within) * width;
                return v.clamp(self.min, self.max);
            }
            cum += n;
        }
        self.max
    }

    #[allow(clippy::cast_precision_loss)]
    fn mean(&self, count: u64) -> f64 {
        if count == 0 {
            0.0
        } else {
            self.sum / count as f64
        }
    }
}

/// Accumulated statistics of one cohort (persona × platform × bin).
#[derive(Debug, Clone, PartialEq)]
struct CohortAcc {
    /// Device-days recorded (each device contributes one sample per
    /// round to each metric).
    count: u64,
    stats: Vec<MetricStat>,
}

impl CohortAcc {
    fn new() -> Self {
        CohortAcc {
            count: 0,
            stats: (0..METRIC_COUNT).map(|_| MetricStat::new()).collect(),
        }
    }
}

/// Cohort index of (persona, platform, bin): persona-major, then
/// platform, then hardware bin.
fn cohort_index(persona: usize, platform: usize, bin: usize, n_platforms: usize) -> usize {
    (persona * n_platforms + platform) * SOC_BINS.len() + bin
}

/// Persona index of a device — [`Persona::sample`]'s draw on the
/// device's user seed.
#[allow(clippy::cast_possible_truncation)]
fn persona_index(user_seed: u64) -> usize {
    (splitmix64(user_seed) % Persona::names().len() as u64) as usize
}

/// One closed round of the campaign ledger. All byte counts are the
/// *actual encoded payload sizes* (NXQT deltas up, NXQT tables down).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRound {
    /// Round number (0-based).
    pub round: usize,
    /// Total uplink payload across the fleet, bytes (encoded per-app
    /// table deltas).
    pub uplink_bytes: u64,
    /// Total downlink payload across the fleet, bytes (merged tables
    /// pushed back to every device of each platform).
    pub downlink_bytes: u64,
    /// Modeled communication time of the round, seconds: the slowest
    /// device's uplink plus the slowest device's downlink at the
    /// [`LinkModel`] throughputs.
    pub comm_s: f64,
    /// Total visited states across the merged per-platform tables
    /// after this round.
    pub states: u64,
    /// Total visit count across the merged per-platform tables after
    /// this round (normalized merge: per-cell mean over contributors).
    pub visits: u64,
    /// Resident table bytes of the round: the merged per-platform
    /// tables after the fold plus every device's end-of-day overlay
    /// footprint ([`QTable::resident_bytes`]). This is the campaign's
    /// working-set proxy — with copy-on-write overlays it scales with
    /// rows *touched*, not devices × state space.
    pub table_bytes: u64,
    /// What the same round would have held resident under the
    /// pre-overlay scheme: a full dense clone of each merged table per
    /// device-day that warm-started from it. The ratio against
    /// [`CampaignRound::table_bytes`] is the overlay's memory win.
    pub dense_clone_bytes: u64,
}

/// Summary quantiles of one metric of one cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Metric name (one of [`METRIC_NAMES`]).
    pub name: &'static str,
    /// Exact minimum over the cohort's device-days.
    pub min: f64,
    /// Exact maximum.
    pub max: f64,
    /// Exact mean.
    pub mean: f64,
    /// Median (histogram-interpolated).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Final statistics of one cohort.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortSummary {
    /// Persona name.
    pub persona: String,
    /// Platform preset name.
    pub platform: String,
    /// Hardware bin name (see [`SOC_BINS`]).
    pub bin: String,
    /// Device-days recorded into this cohort over the whole campaign.
    pub count: u64,
    /// Per-metric summaries, in [`METRIC_NAMES`] order (all-zero when
    /// the cohort is empty).
    pub metrics: Vec<MetricSummary>,
}

/// One merged per-platform per-app table at campaign end.
#[derive(Debug, Clone, PartialEq)]
pub struct TableArtifact {
    /// Platform preset name.
    pub platform: String,
    /// Application the table controls.
    pub app: String,
    /// Visited states.
    pub states: u64,
    /// Total visit count.
    pub visits: u64,
    /// The NXQT-encoded table — the exact bytes a device would
    /// download, and the bytes the resume-equality contract is stated
    /// over.
    pub encoded: Vec<u8>,
}

/// Outcome of a completed campaign — a pure function of the
/// [`CampaignConfig`], byte-identical for any worker count, shard size
/// boundary effects excluded by construction (folds happen in device
/// order).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The recipe that produced this report.
    pub config: CampaignConfig,
    /// Per-round ledger, in round order.
    pub rounds: Vec<CampaignRound>,
    /// Cohort statistics, persona-major × platform × bin.
    pub cohorts: Vec<CohortSummary>,
    /// Final merged tables, ordered by (platform index, app).
    pub tables: Vec<TableArtifact>,
}

impl CampaignReport {
    /// Total uplink bytes over all rounds.
    #[must_use]
    pub fn total_uplink_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.uplink_bytes).sum()
    }

    /// Total downlink bytes over all rounds.
    #[must_use]
    pub fn total_downlink_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.downlink_bytes).sum()
    }

    /// Device-days simulated (devices × rounds).
    #[must_use]
    pub fn device_days(&self) -> u64 {
        (self.config.devices * self.config.rounds) as u64
    }
}

/// Checkpoint/kill options of [`run_campaign_with`].
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Directory the checkpoint is written to after every round
    /// (atomic temp-file + rename). `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from `checkpoint_dir`'s checkpoint instead of starting
    /// fresh. The checkpoint's embedded recipe must match `config`
    /// exactly.
    pub resume: bool,
    /// Stop (gracefully) once this many rounds are complete — the
    /// kill-and-resume test hook. The checkpoint for the last finished
    /// round is on disk when this returns.
    pub stop_after: Option<usize>,
}

/// Outcome of [`run_campaign_with`].
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignOutcome {
    /// The campaign ran to its configured round count.
    Complete(CampaignReport),
    /// The campaign stopped early at a round boundary
    /// ([`CampaignOptions::stop_after`]); resume to continue.
    Paused {
        /// Rounds complete (and checkpointed, when a directory was
        /// given) at the stop.
        rounds_done: usize,
    },
}

/// In-flight campaign state — everything a checkpoint persists.
#[derive(Debug)]
struct CampaignState {
    rounds: Vec<CampaignRound>,
    cohorts: Vec<CohortAcc>,
    /// Merged table per (platform index, app), shared with every
    /// in-flight device day as the immutable overlay base.
    globals: BTreeMap<(usize, String), Arc<DenseQTable>>,
}

/// What one device brings back from one simulated day.
struct DeviceDay {
    platform: usize,
    cohort: usize,
    metrics: [f64; METRIC_COUNT],
    uplink_bytes: u64,
    /// End-of-day resident footprint of the device's overlays, bytes
    /// (touched rows only — the shared base is not counted).
    table_bytes: u64,
    /// Bytes a dense warm start would have cloned for this day (the
    /// full base table per app).
    dense_clone_bytes: u64,
    /// Copy-on-write views of the round's merged tables, one per app
    /// the day touched, carrying exactly the rows the day wrote.
    tables: Vec<(String, QTable<OverlayStore>)>,
}

/// Union of every shipped persona's app list, sorted — the app set the
/// warm seed must cover so any sampled device finds its tables.
fn persona_app_union() -> Vec<String> {
    let mut apps = BTreeSet::new();
    for name in Persona::names() {
        // qlint::allow(PN01, reason = "iterating Persona::names(), so every lookup hits")
        let persona = Persona::by_name(name).expect("shipped persona resolves");
        for app in persona.apps() {
            apps.insert(app.clone());
        }
    }
    apps.into_iter().collect()
}

/// Trains the warm-seed tables: one table per (platform, app) over the
/// persona app union. Deterministic for any worker count (fixed
/// training seed, per-app budgets), so a resume — which recomputes
/// nothing — and a fresh run agree on round 0's starting point.
fn seed_tables(
    config: &CampaignConfig,
    presets: &[PlatformPreset],
    workers: usize,
) -> BTreeMap<(usize, String), Arc<DenseQTable>> {
    let apps = persona_app_union();
    let mut globals = BTreeMap::new();
    for (p, preset) in presets.iter().enumerate() {
        let outs = StandardEvaluator::train_for_apps(&apps, config.train_budget_s, workers, preset);
        for (app, out) in apps.iter().zip(outs) {
            globals.insert((p, app.clone()), Arc::new(out.agent.into_table()));
        }
    }
    globals
}

/// Simulates one device's day of `round`: regenerate the plan from the
/// device's per-round seed, pre-seed the store with **overlay views**
/// of the platform's merged tables (an `Arc` clone each — no rows are
/// copied until the day writes them), run the day with online
/// learning, and return the overlays plus the encoded-delta uplink
/// cost read straight off their touched rows.
fn run_device_day(
    config: &CampaignConfig,
    presets: &[PlatformPreset],
    globals: &BTreeMap<(usize, String), Arc<DenseQTable>>,
    dev: &DeviceProfile,
    round: usize,
) -> DeviceDay {
    let round_seed = splitmix64(dev.user_seed ^ (round as u64).wrapping_mul(ROUND_SALT));
    let persona_idx = persona_index(dev.user_seed);
    // qlint::allow(PN01, reason = "index comes from persona_index, bounded by Persona::names()")
    let persona = Persona::by_name(Persona::names()[persona_idx]).expect("shipped persona");
    let plan = DayPlan::generate(&persona, &config.plan, round_seed);
    let apps = plan.distinct_apps();

    let base = &presets[dev.platform];
    let mut preset = base.clone();
    preset.soc = soc_config_for(&base.soc, &SOC_BINS[dev.bin]);
    preset.next = base.next.clone().with_seed(round_seed);

    let mut store: QTableStore<OverlayStore> = QTableStore::in_memory();
    for app in &apps {
        let base = globals
            .get(&(dev.platform, app.clone()))
            // qlint::allow(PN01, reason = "the warm seed is built over persona_app_union, a superset of any day plan")
            .expect("warm seed covers every persona app");
        store
            .save(app, &QTable::overlay(Arc::clone(base)))
            // qlint::allow(PN01, reason = "a store without a directory performs no I/O")
            .expect("in-memory store cannot fail");
    }

    let mut spec = DaySpec::new(plan, "next")
        .with_preset(preset)
        .with_train_budget_s(config.train_budget_s)
        .with_train_online(true);
    spec.gap_tick_s = config.gap_tick_s;
    spec.battery = config.battery;
    let report = run_day(&spec, &mut store);

    let (mut weighted, mut duration) = (0.0, 0.0);
    for s in &report.sessions {
        weighted += s.ppdw * s.duration_s;
        duration += s.duration_s;
    }
    let ppdw = if duration > 0.0 {
        weighted / duration
    } else {
        0.0
    };

    let mut uplink_bytes = 0u64;
    let mut table_bytes = 0u64;
    let mut dense_clone_bytes = 0u64;
    let mut tables = Vec::with_capacity(apps.len());
    for app in &apps {
        // qlint::allow(PN01, reason = "every app was saved into the store before the day ran")
        let trained = store.take(app).expect("day store keeps every app");
        uplink_bytes += trained.delta_bytes().len() as u64;
        table_bytes += trained.resident_bytes() as u64;
        dense_clone_bytes += trained.base().resident_bytes() as u64;
        tables.push((app.clone(), trained));
    }

    DeviceDay {
        platform: dev.platform,
        cohort: cohort_index(persona_idx, dev.platform, dev.bin, presets.len()),
        metrics: [
            ppdw,
            report.avg_fps,
            report.avg_power_w,
            report.battery_drain_pct,
        ],
        uplink_bytes,
        table_bytes,
        dense_clone_bytes,
        tables,
    }
}

/// Runs one federated round in place: shards over `parallel_map`,
/// device-order folds, normalized merges, payload-priced comms.
fn run_round(
    config: &CampaignConfig,
    presets: &[PlatformPreset],
    profiles: &[DeviceProfile],
    state: &mut CampaignState,
    round: usize,
    workers: usize,
) {
    let mut accs: BTreeMap<(usize, String), MergeAccumulator<DenseStore>> = BTreeMap::new();
    let mut uplink_total = 0u64;
    let mut uplink_max = 0u64;
    let mut overlay_bytes = 0u64;
    let mut dense_clone_bytes = 0u64;

    for shard in profiles.chunks(config.shard_size) {
        let outs = parallel_map(shard, workers, |dev| {
            run_device_day(config, presets, &state.globals, dev, round)
        });
        // Fold in device order: `parallel_map` returns results in item
        // order, and shards iterate the roster front to back, so the
        // merge stream is identical for any worker count or shard size.
        for out in outs {
            let cohort = &mut state.cohorts[out.cohort];
            cohort.count += 1;
            for (m, &v) in out.metrics.iter().enumerate() {
                cohort.stats[m].record(v, METRIC_RANGES[m].0, METRIC_RANGES[m].1);
            }
            uplink_total += out.uplink_bytes;
            uplink_max = uplink_max.max(out.uplink_bytes);
            overlay_bytes += out.table_bytes;
            dense_clone_bytes += out.dense_clone_bytes;
            for (app, table) in out.tables {
                let acc = accs
                    .entry((out.platform, app))
                    .or_insert_with(|| MergeAccumulator::new(table.n_actions(), table.default_q()));
                // Overlay fast path: fold only the rows this device
                // touched; the untouched remainder is applied in one
                // closed-form correction at finish time.
                acc.fold_overlay(&table)
                    // qlint::allow(PN01, reason = "all overlays of one (platform, app) pair were cloned from the same round global")
                    .expect("platform tables share one space and one base");
            }
        }
    }

    for (key, acc) in accs {
        let merged = acc
            .finish_normalized()
            // qlint::allow(PN01, reason = "accumulators are created by or_insert_with immediately before a fold")
            .expect("an accumulator exists only after a fold");
        state.globals.insert(key, Arc::new(merged));
    }

    let mut platform_bytes = vec![0u64; presets.len()];
    for ((p, _), table) in &state.globals {
        platform_bytes[*p] += encode_table(&**table).len() as u64;
    }
    let mut downlink_total = 0u64;
    let mut downlink_max = 0u64;
    for dev in profiles {
        let b = platform_bytes[dev.platform];
        downlink_total += b;
        downlink_max = downlink_max.max(b);
    }

    let states: u64 = state.globals.values().map(|t| t.len() as u64).sum();
    let visits: u64 = state.globals.values().map(|t| t.total_visits()).sum();
    let merged_bytes: u64 = state
        .globals
        .values()
        .map(|t| t.resident_bytes() as u64)
        .sum();

    state.rounds.push(CampaignRound {
        round,
        uplink_bytes: uplink_total,
        downlink_bytes: downlink_total,
        comm_s: config.link.uplink_time_s(uplink_max) + config.link.downlink_time_s(downlink_max),
        states,
        visits,
        table_bytes: merged_bytes + overlay_bytes,
        dense_clone_bytes: merged_bytes + dense_clone_bytes,
    });
}

fn build_report(
    config: &CampaignConfig,
    presets: &[PlatformPreset],
    state: CampaignState,
) -> CampaignReport {
    let mut cohorts = Vec::with_capacity(state.cohorts.len());
    for (pi, persona) in Persona::names().iter().enumerate() {
        for (fi, platform) in config.platforms.iter().enumerate() {
            for (bi, bin) in SOC_BINS.iter().enumerate() {
                let acc = &state.cohorts[cohort_index(pi, fi, bi, presets.len())];
                let metrics = (0..METRIC_COUNT)
                    .map(|m| {
                        let stat = &acc.stats[m];
                        let (lo, hi) = METRIC_RANGES[m];
                        if acc.count == 0 {
                            MetricSummary {
                                name: METRIC_NAMES[m],
                                min: 0.0,
                                max: 0.0,
                                mean: 0.0,
                                p50: 0.0,
                                p90: 0.0,
                                p99: 0.0,
                            }
                        } else {
                            MetricSummary {
                                name: METRIC_NAMES[m],
                                min: stat.min,
                                max: stat.max,
                                mean: stat.mean(acc.count),
                                p50: stat.quantile(0.50, acc.count, lo, hi),
                                p90: stat.quantile(0.90, acc.count, lo, hi),
                                p99: stat.quantile(0.99, acc.count, lo, hi),
                            }
                        }
                    })
                    .collect();
                cohorts.push(CohortSummary {
                    persona: (*persona).to_owned(),
                    platform: platform.clone(),
                    bin: bin.name.to_owned(),
                    count: acc.count,
                    metrics,
                });
            }
        }
    }

    let tables = state
        .globals
        .iter()
        .map(|((p, app), table)| TableArtifact {
            platform: config.platforms[*p].clone(),
            app: app.clone(),
            states: table.len() as u64,
            visits: table.total_visits(),
            encoded: encode_table(&**table),
        })
        .collect();

    CampaignReport {
        config: config.clone(),
        rounds: state.rounds,
        cohorts,
        tables,
    }
}

// ---------------------------------------------------------------------------
// NXCP checkpoint codec
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    #[allow(clippy::cast_possible_truncation)]
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct CkptReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CkptReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err("checkpoint truncated".to_owned());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, String> {
        // qlint::allow(PN01, reason = "take(2) returned exactly 2 bytes")
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, String> {
        // qlint::allow(PN01, reason = "take(4) returned exactly 4 bytes")
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        // qlint::allow(PN01, reason = "take(8) returned exactly 8 bytes")
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "checkpoint string not UTF-8".to_owned())
    }

    fn done(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err("checkpoint has trailing bytes".to_owned())
        }
    }
}

/// Serializes the full campaign state. The header embeds the complete
/// regeneration recipe so a resume can refuse a mismatched config
/// field by field; f64s are stored as raw bits, so the round trip is
/// exact.
fn encode_checkpoint(config: &CampaignConfig, state: &CampaignState) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&CKPT_MAGIC);
    put_u16(&mut out, CKPT_VERSION);

    put_u64(&mut out, config.devices as u64);
    put_u64(&mut out, config.rounds as u64);
    put_u64(&mut out, config.seed);
    put_u64(&mut out, config.shard_size as u64);
    #[allow(clippy::cast_possible_truncation)]
    put_u32(&mut out, config.platforms.len() as u32);
    for p in &config.platforms {
        put_str(&mut out, p);
    }
    put_u32(&mut out, config.plan.pickups);
    put_f64(&mut out, config.plan.day_length_s);
    put_f64(&mut out, config.plan.session_scale);
    put_f64(&mut out, config.plan.min_session_s);
    put_f64(&mut out, config.gap_tick_s);
    put_f64(&mut out, config.train_budget_s);
    put_f64(&mut out, config.battery.capacity_mah);
    put_f64(&mut out, config.battery.nominal_v);
    put_f64(&mut out, config.link.uplink_s);
    put_f64(&mut out, config.link.downlink_s);

    put_u64(&mut out, state.rounds.len() as u64);
    for r in &state.rounds {
        put_u64(&mut out, r.round as u64);
        put_u64(&mut out, r.uplink_bytes);
        put_u64(&mut out, r.downlink_bytes);
        put_f64(&mut out, r.comm_s);
        put_u64(&mut out, r.states);
        put_u64(&mut out, r.visits);
        put_u64(&mut out, r.table_bytes);
        put_u64(&mut out, r.dense_clone_bytes);
    }

    put_u64(&mut out, state.cohorts.len() as u64);
    for c in &state.cohorts {
        put_u64(&mut out, c.count);
        for stat in &c.stats {
            put_f64(&mut out, stat.min);
            put_f64(&mut out, stat.max);
            put_f64(&mut out, stat.sum);
            for &b in &stat.bins {
                put_u64(&mut out, b);
            }
        }
    }

    put_u64(&mut out, state.globals.len() as u64);
    for ((p, app), table) in &state.globals {
        #[allow(clippy::cast_possible_truncation)]
        put_u16(&mut out, *p as u16);
        put_str(&mut out, app);
        let encoded = encode_table(&**table);
        put_u64(&mut out, encoded.len() as u64);
        out.extend_from_slice(&encoded);
    }

    out
}

/// Compares one recipe field, naming it in the error.
///
/// Takes operands by value: every recipe field is either `Copy` or a
/// freshly-decoded `String` consumed by the comparison's error path.
#[allow(clippy::needless_pass_by_value)]
fn check_field<T: PartialEq + std::fmt::Debug>(
    name: &str,
    stored: T,
    expected: T,
) -> Result<(), String> {
    if stored == expected {
        Ok(())
    } else {
        Err(format!(
            "checkpoint was written by a different campaign: {name} is {stored:?}, \
             config says {expected:?}"
        ))
    }
}

/// Parses and validates a checkpoint against `config`, restoring the
/// campaign state it froze.
#[allow(clippy::too_many_lines)]
fn decode_checkpoint(bytes: &[u8], config: &CampaignConfig) -> Result<CampaignState, String> {
    let mut r = CkptReader { buf: bytes, pos: 0 };
    if r.take(4)? != CKPT_MAGIC {
        return Err("not an NXCP checkpoint (bad magic)".to_owned());
    }
    let version = r.u16()?;
    if version != CKPT_VERSION {
        return Err(format!(
            "unsupported checkpoint version {version} (this build reads {CKPT_VERSION})"
        ));
    }

    check_field("devices", r.u64()?, config.devices as u64)?;
    check_field("rounds", r.u64()?, config.rounds as u64)?;
    check_field("seed", r.u64()?, config.seed)?;
    check_field("shard_size", r.u64()?, config.shard_size as u64)?;
    let n_platforms = r.u32()? as usize;
    check_field(
        "platform count",
        n_platforms as u64,
        config.platforms.len() as u64,
    )?;
    for expected in &config.platforms {
        check_field("platform", r.str()?, expected.clone())?;
    }
    check_field("plan.pickups", r.u32()?, config.plan.pickups)?;
    check_field(
        "plan.day_length_s",
        r.f64()?.to_bits(),
        config.plan.day_length_s.to_bits(),
    )?;
    check_field(
        "plan.session_scale",
        r.f64()?.to_bits(),
        config.plan.session_scale.to_bits(),
    )?;
    check_field(
        "plan.min_session_s",
        r.f64()?.to_bits(),
        config.plan.min_session_s.to_bits(),
    )?;
    check_field(
        "gap_tick_s",
        r.f64()?.to_bits(),
        config.gap_tick_s.to_bits(),
    )?;
    check_field(
        "train_budget_s",
        r.f64()?.to_bits(),
        config.train_budget_s.to_bits(),
    )?;
    check_field(
        "battery.capacity_mah",
        r.f64()?.to_bits(),
        config.battery.capacity_mah.to_bits(),
    )?;
    check_field(
        "battery.nominal_v",
        r.f64()?.to_bits(),
        config.battery.nominal_v.to_bits(),
    )?;
    check_field(
        "link.uplink_s",
        r.f64()?.to_bits(),
        config.link.uplink_s.to_bits(),
    )?;
    check_field(
        "link.downlink_s",
        r.f64()?.to_bits(),
        config.link.downlink_s.to_bits(),
    )?;

    let rounds_done = r.u64()? as usize;
    if rounds_done > config.rounds {
        return Err(format!(
            "checkpoint claims {rounds_done} rounds done of a {}-round campaign",
            config.rounds
        ));
    }
    let mut rounds = Vec::with_capacity(rounds_done);
    for i in 0..rounds_done {
        let round = r.u64()? as usize;
        if round != i {
            return Err(format!("checkpoint round ledger out of order at {i}"));
        }
        rounds.push(CampaignRound {
            round,
            uplink_bytes: r.u64()?,
            downlink_bytes: r.u64()?,
            comm_s: r.f64()?,
            states: r.u64()?,
            visits: r.u64()?,
            table_bytes: r.u64()?,
            dense_clone_bytes: r.u64()?,
        });
    }

    let n_cohorts = r.u64()? as usize;
    if n_cohorts != config.cohort_count() {
        return Err(format!(
            "checkpoint has {n_cohorts} cohorts, config implies {}",
            config.cohort_count()
        ));
    }
    let mut cohorts = Vec::with_capacity(n_cohorts);
    for _ in 0..n_cohorts {
        let count = r.u64()?;
        let mut stats = Vec::with_capacity(METRIC_COUNT);
        for _ in 0..METRIC_COUNT {
            let (min, max, sum) = (r.f64()?, r.f64()?, r.f64()?);
            let mut bins = vec![0u64; HIST_BINS];
            for b in &mut bins {
                *b = r.u64()?;
            }
            stats.push(MetricStat {
                min,
                max,
                sum,
                bins,
            });
        }
        cohorts.push(CohortAcc { count, stats });
    }

    let n_tables = r.u64()? as usize;
    let mut globals = BTreeMap::new();
    for _ in 0..n_tables {
        let p = r.u16()? as usize;
        if p >= config.platforms.len() {
            return Err(format!("checkpoint table references platform index {p}"));
        }
        let app = r.str()?;
        let len = r.u64()? as usize;
        let table_bytes = r.take(len)?;
        let table = decode_table::<DenseStore>(table_bytes).map_err(|e| {
            format!(
                "checkpoint table ({}, {app}) corrupt: {e}",
                config.platforms[p]
            )
        })?;
        if globals.insert((p, app.clone()), Arc::new(table)).is_some() {
            return Err(format!("checkpoint repeats table ({p}, {app})"));
        }
    }
    r.done()?;

    Ok(CampaignState {
        rounds,
        cohorts,
        globals,
    })
}

/// Atomically replaces `<dir>/campaign.nxcp`: write to a temp file in
/// the same directory, then rename over the target, so a kill
/// mid-write never leaves a torn checkpoint behind.
fn write_checkpoint(dir: &Path, bytes: &[u8]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, dir.join(CHECKPOINT_FILE))
}

/// Runs a campaign end to end with the default options (no
/// checkpointing).
///
/// # Panics
///
/// Panics on an invalid [`CampaignConfig`].
#[must_use]
pub fn run_campaign(config: &CampaignConfig, workers: usize) -> CampaignReport {
    match run_campaign_with(config, workers, &CampaignOptions::default()) {
        Ok(CampaignOutcome::Complete(report)) => report,
        Ok(CampaignOutcome::Paused { .. }) => {
            unreachable!("no stop_after was set, the campaign cannot pause")
        }
        // qlint::allow(PN01, reason = "documented panicking convenience wrapper; fallible callers use run_campaign_with")
        Err(e) => panic!("{e}"),
    }
}

/// The trained warm-seed tables of a campaign — the expensive,
/// round-independent half of a fresh start, split out so callers (the
/// benchmark harness in particular) can time seeding and steady-state
/// round execution separately. Opaque: produced by [`warm_seed`],
/// consumed by [`run_campaign_from_seed`].
#[derive(Debug, Clone)]
pub struct CampaignWarmSeed {
    globals: BTreeMap<(usize, String), Arc<DenseQTable>>,
}

/// Resolves the validated platform list into presets.
fn resolve_presets(config: &CampaignConfig) -> Vec<PlatformPreset> {
    config
        .platforms
        .iter()
        // qlint::allow(PN01, reason = "config.validate() has already resolved every platform name")
        .map(|p| PlatformPreset::by_name(p).expect("validated platform"))
        .collect()
}

fn fresh_state(
    config: &CampaignConfig,
    globals: BTreeMap<(usize, String), Arc<DenseQTable>>,
) -> CampaignState {
    CampaignState {
        rounds: Vec::new(),
        cohorts: (0..config.cohort_count())
            .map(|_| CohortAcc::new())
            .collect(),
        globals,
    }
}

/// Trains the warm-seed tables of `config` without running any rounds.
/// Deterministic for any worker count, so
/// [`run_campaign_from_seed`] on the result reproduces
/// [`run_campaign`] exactly.
///
/// # Errors
///
/// Returns the human-readable violation of an unrunnable config.
pub fn warm_seed(config: &CampaignConfig, workers: usize) -> Result<CampaignWarmSeed, String> {
    config.validate()?;
    let presets = resolve_presets(config);
    Ok(CampaignWarmSeed {
        globals: seed_tables(config, &presets, workers),
    })
}

/// Runs every round of `config` from a pre-trained warm seed and
/// returns the completed report — byte-identical to [`run_campaign`]
/// on the same config, minus the seed-training cost.
///
/// # Panics
///
/// Panics on an invalid [`CampaignConfig`].
#[must_use]
pub fn run_campaign_from_seed(
    config: &CampaignConfig,
    seed: CampaignWarmSeed,
    workers: usize,
) -> CampaignReport {
    if let Err(e) = config.validate() {
        // qlint::allow(PN01, reason = "documented panicking entry point; fallible callers use run_campaign_with")
        panic!("{e}");
    }
    let presets = resolve_presets(config);
    let profiles = device_profiles(config.devices, config.seed, config.platforms.len());
    let mut state = fresh_state(config, seed.globals);
    for round in 0..config.rounds {
        run_round(config, &presets, &profiles, &mut state, round, workers);
    }
    build_report(config, &presets, state)
}

/// Runs (or resumes) a campaign with checkpointing and kill simulation.
///
/// Fresh runs train the warm-seed tables, then execute rounds; resumed
/// runs restore the ledger, cohort accumulators and merged tables from
/// the checkpoint and continue at the next round. Either path yields
/// byte-identical artifacts for the same config, for any worker count
/// and any kill point at a round boundary.
///
/// # Errors
///
/// Returns a human-readable error on an invalid config, a missing or
/// corrupt checkpoint, a recipe mismatch, or a checkpoint I/O failure.
pub fn run_campaign_with(
    config: &CampaignConfig,
    workers: usize,
    options: &CampaignOptions,
) -> Result<CampaignOutcome, String> {
    config.validate()?;
    let presets = resolve_presets(config);
    let profiles = device_profiles(config.devices, config.seed, config.platforms.len());

    let mut state = if options.resume {
        let dir = options
            .checkpoint_dir
            .as_ref()
            .ok_or_else(|| "resume needs a checkpoint directory".to_owned())?;
        let path = dir.join(CHECKPOINT_FILE);
        let bytes = fs::read(&path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        decode_checkpoint(&bytes, config)?
    } else {
        fresh_state(config, seed_tables(config, &presets, workers))
    };

    let start = state.rounds.len();
    for round in start..config.rounds {
        run_round(config, &presets, &profiles, &mut state, round, workers);
        if let Some(dir) = &options.checkpoint_dir {
            let bytes = encode_checkpoint(config, &state);
            write_checkpoint(dir, &bytes)
                .map_err(|e| format!("cannot write checkpoint in {}: {e}", dir.display()))?;
        }
        let done = state.rounds.len();
        if options.stop_after.is_some_and(|n| done >= n) && done < config.rounds {
            return Ok(CampaignOutcome::Paused { rounds_done: done });
        }
    }

    Ok(CampaignOutcome::Complete(build_report(
        config, &presets, state,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nx-campaign-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn tiny(devices: usize, rounds: usize, seed: u64) -> CampaignConfig {
        let mut config = CampaignConfig::quick(devices, rounds, seed);
        // Shards smaller than the roster so shard boundaries are
        // exercised even at test scale.
        config.shard_size = 3;
        config
    }

    #[test]
    fn config_validation_names_the_violation() {
        assert!(CampaignConfig::quick(0, 1, 1)
            .validate()
            .unwrap_err()
            .contains("device"));
        assert!(CampaignConfig::quick(1, 0, 1)
            .validate()
            .unwrap_err()
            .contains("round"));
        let mut bad = CampaignConfig::quick(1, 1, 1);
        bad.platforms = vec!["pixel-9000".to_owned()];
        assert!(bad.validate().unwrap_err().contains("pixel-9000"));
        let mut bad = CampaignConfig::quick(1, 1, 1);
        bad.shard_size = 0;
        assert!(bad.validate().unwrap_err().contains("shard"));
        // A repeated platform would split its devices into disjoint
        // merged tables.
        let err = CampaignConfig::quick(4, 1, 7)
            .with_platforms(&["exynos9810", "exynos9810"])
            .validate()
            .unwrap_err();
        assert!(err.contains("exynos9810") && err.contains("twice"), "{err}");
    }

    #[test]
    fn metric_stat_quantiles_interpolate_and_clamp() {
        let mut stat = MetricStat::new();
        for i in 0..100 {
            stat.record(f64::from(i), 0.0, 100.0);
        }
        let p50 = stat.quantile(0.50, 100, 0.0, 100.0);
        assert!((p50 - 50.0).abs() < 2.0, "p50 = {p50}");
        let p99 = stat.quantile(0.99, 100, 0.0, 100.0);
        assert!((p99 - 99.0).abs() < 2.0, "p99 = {p99}");
        // Out-of-range samples clamp into the end bins and quantiles
        // clamp to the exact observed extrema.
        let mut wild = MetricStat::new();
        wild.record(-5.0, 0.0, 10.0);
        wild.record(1e9, 0.0, 10.0);
        assert_eq!(wild.min, -5.0);
        assert_eq!(wild.max, 1e9);
        let p50 = wild.quantile(0.5, 2, 0.0, 10.0);
        assert!((-5.0..=1e9).contains(&p50));
    }

    #[test]
    fn campaign_is_worker_count_invariant() {
        let config = tiny(5, 2, 42);
        let one = run_campaign(&config, 1);
        let many = run_campaign(&config, 4);
        assert_eq!(one, many);
        assert_eq!(one.rounds.len(), 2);
        assert_eq!(one.device_days(), 10);
        // Learning actually happened: uplink deltas are non-trivial
        // and the merged tables grew visits.
        assert!(one.total_uplink_bytes() > 0);
        assert!(one.rounds[1].visits > 0);
        let total: u64 = one.cohorts.iter().map(|c| c.count).sum();
        assert_eq!(total, one.device_days());
        // The working-set ledger is populated and bounded: every round
        // holds far less resident than the dense per-device clones the
        // pre-overlay scheme required.
        for r in &one.rounds {
            assert!(r.table_bytes > 0);
            assert!(
                r.table_bytes < r.dense_clone_bytes,
                "round {}: overlays ({} B) must beat dense clones ({} B)",
                r.round,
                r.table_bytes,
                r.dense_clone_bytes
            );
        }
    }

    #[test]
    fn warm_seed_then_rounds_reproduces_the_one_shot_run() {
        let config = tiny(4, 2, 21);
        let baseline = run_campaign(&config, 2);
        let seed = warm_seed(&config, 2).expect("valid config");
        let split = run_campaign_from_seed(&config, seed, 3);
        assert_eq!(split, baseline);
        assert!(warm_seed(&CampaignConfig::quick(0, 1, 1), 1).is_err());
    }

    #[test]
    fn kill_and_resume_is_bitwise_identical_across_workers_and_platforms() {
        for (platforms, seed) in [
            (vec!["exynos9810"], 7u64),
            (vec!["exynos9820"], 8u64),
            (vec!["exynos9810", "exynos9820"], 9u64),
        ] {
            let config = tiny(4, 2, seed).with_platforms(&platforms);
            let baseline = run_campaign(&config, 2);

            let dir = temp_dir(&format!("resume-{seed}"));
            let paused = run_campaign_with(
                &config,
                1,
                &CampaignOptions {
                    checkpoint_dir: Some(dir.clone()),
                    resume: false,
                    stop_after: Some(1),
                },
            )
            .expect("first leg runs");
            assert_eq!(paused, CampaignOutcome::Paused { rounds_done: 1 });

            let resumed = run_campaign_with(
                &config,
                3,
                &CampaignOptions {
                    checkpoint_dir: Some(dir.clone()),
                    resume: true,
                    stop_after: None,
                },
            )
            .expect("resume runs");
            let CampaignOutcome::Complete(resumed) = resumed else {
                panic!("resume must complete");
            };

            assert_eq!(resumed, baseline, "platforms {platforms:?}");
            // The contract the acceptance criteria state: the final
            // encoded table bytes are identical too (covered by the
            // report equality, asserted explicitly for clarity).
            for (a, b) in resumed.tables.iter().zip(&baseline.tables) {
                assert_eq!(a.encoded, b.encoded, "table {}/{}", a.platform, a.app);
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resume_rejects_a_mismatched_recipe() {
        let config = tiny(3, 2, 11);
        let dir = temp_dir("mismatch");
        let paused = run_campaign_with(
            &config,
            2,
            &CampaignOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: false,
                stop_after: Some(1),
            },
        )
        .expect("first leg runs");
        assert!(matches!(paused, CampaignOutcome::Paused { rounds_done: 1 }));

        let mut other = config.clone();
        other.seed = 12;
        let err = run_campaign_with(
            &other,
            2,
            &CampaignOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                stop_after: None,
            },
        )
        .unwrap_err();
        assert!(err.contains("seed"), "error should name the field: {err}");

        let mut other = config.clone();
        other.train_budget_s = 31.0;
        let err = run_campaign_with(
            &other,
            2,
            &CampaignOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                stop_after: None,
            },
        )
        .unwrap_err();
        assert!(err.contains("train_budget_s"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_a_checkpoint_is_a_clean_error() {
        let config = tiny(2, 1, 5);
        let dir = temp_dir("missing");
        let err = run_campaign_with(
            &config,
            1,
            &CampaignOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                stop_after: None,
            },
        )
        .unwrap_err();
        assert!(err.contains("cannot read checkpoint"), "{err}");
        let err = run_campaign_with(
            &config,
            1,
            &CampaignOptions {
                checkpoint_dir: None,
                resume: true,
                stop_after: None,
            },
        )
        .unwrap_err();
        assert!(err.contains("checkpoint directory"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_corrupt_checkpoints_are_rejected() {
        let config = tiny(2, 1, 6);
        let state = CampaignState {
            rounds: Vec::new(),
            cohorts: (0..config.cohort_count())
                .map(|_| CohortAcc::new())
                .collect(),
            globals: BTreeMap::new(),
        };
        let bytes = encode_checkpoint(&config, &state);
        let roundtrip = decode_checkpoint(&bytes, &config).expect("round trip");
        assert_eq!(roundtrip.rounds.len(), 0);
        assert_eq!(roundtrip.cohorts.len(), config.cohort_count());

        for cut in [0, 3, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_checkpoint(&bytes[..cut], &config).is_err(),
                "cut {cut}"
            );
        }
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decode_checkpoint(&bad, &config)
            .unwrap_err()
            .contains("magic"));
        let mut trailing = bytes;
        trailing.push(0);
        assert!(decode_checkpoint(&trailing, &config)
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn device_roster_is_deterministic_and_heterogeneous() {
        let a = device_profiles(8, 42, 1);
        let b = device_profiles(8, 42, 1);
        assert_eq!(a, b);
        let bins: std::collections::HashSet<usize> = a.iter().map(|d| d.bin).collect();
        assert_eq!(bins.len(), SOC_BINS.len(), "8 devices cover all 4 bins");
        let seeds: std::collections::HashSet<u64> = a.iter().map(|d| d.user_seed).collect();
        assert_eq!(seeds.len(), 8, "every device gets its own user");
        assert_ne!(device_profiles(8, 43, 1), a, "master seed matters");
        // Platform assignment does not perturb user seeds.
        let mixed = device_profiles(8, 42, 2);
        for (x, y) in a.iter().zip(&mixed) {
            assert_eq!(x.user_seed, y.user_seed);
        }
    }

    #[test]
    fn link_bytes_model_extends_the_fixed_constant() {
        let link = LinkModel::paper();
        // Zero payload costs exactly the fixed latencies.
        assert_eq!(link.uplink_time_s(0), link.uplink_s);
        assert_eq!(link.downlink_time_s(0), link.downlink_s);
        // Payload time adds on top, asymmetrically per direction.
        let t = link.uplink_time_s(1_000_000) + link.downlink_time_s(4_000_000);
        let fixed = link.uplink_s + link.downlink_s;
        assert!((t - (fixed + 2.0)).abs() < 1e-12, "got {t}");
        assert!(link.uplink_time_s(500_000) > link.uplink_s);
        assert!(
            link.uplink_time_s(1_000_000) > link.downlink_time_s(1_000_000),
            "uplink is the slow direction"
        );
    }

    #[test]
    fn soc_bins_shape_the_device() {
        let base = SocConfig::exynos9810();
        let leaky = soc_config_for(&base, &SOC_BINS[2]);
        assert!(leaky.platform.base_power_w() > base.platform.base_power_w());
        let warm = soc_config_for(&base, &SOC_BINS[1]);
        assert!(warm.thermal.ambient_c > base.thermal.ambient_c);
    }

    #[test]
    fn cohort_assignment_matches_persona_sampling() {
        let profiles = device_profiles(32, 99, 2);
        for dev in &profiles {
            let idx = persona_index(dev.user_seed);
            let sampled = Persona::sample(dev.user_seed);
            assert_eq!(Persona::names()[idx], sampled.name());
            let cohort = cohort_index(idx, dev.platform, dev.bin, 2);
            assert!(cohort < Persona::names().len() * 2 * SOC_BINS.len());
        }
    }
}
