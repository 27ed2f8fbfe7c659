//! Fleet-scale federated training (§IV-C at production scale).
//!
//! The paper's deployment story: a manufacturer ships a fleet of
//! devices that train per-application Q-tables locally and federate
//! them through the cloud. This module simulates that story end to end
//! as **R federated rounds over D heterogeneous devices**:
//!
//! ```text
//!            ┌────────────── one federated round ──────────────┐
//!            │                                                 │
//!  fleet ────┤ downlink ─▶ device 0 (bin A, user u₀) ─ train ─┐│
//!  table     │ downlink ─▶ device 1 (bin B, user u₁) ─ train ─┤│
//!  (round    │      …                                         ├┼─▶ uplink
//!  r − 1)    │ downlink ─▶ device D−1 (bin …, user …) ─ train ┘│    │
//!            │                                                 │    ▼
//!            │        cloud: streaming visit-weighted merge ◀──┘
//!            │        held-out eval: PPDW / FPS / power on the
//!            │        merged table (seeds disjoint from training)
//!            └─────────────────────────────────────────────────┘
//! ```
//!
//! Devices are heterogeneous on two axes. Every device is assigned an
//! [`SocBin`] (ambient temperature and platform-power variation — the
//! silicon/thermal lottery of a real fleet), and fleets may mix
//! **platforms**: [`FleetConfig::platforms`] assigns each device a
//! platform preset round-robin, and because Q-tables of different
//! platforms are not interchangeable (different action counts and
//! state spaces), the cloud keeps one federated table *per platform* —
//! devices only ever merge with, and warm-start from, their own
//! platform group. Local training runs through
//! [`crate::trainer::Trainer`], executed across devices with the
//! work-stealing [`crate::sweep::parallel_map`]; the cloud merge
//! streams each group's tables through
//! `qlearn::federated::MergeAccumulator` in device order. Every
//! quantity in a [`FleetReport`] is a pure function of the
//! [`FleetConfig`] — identical for any worker count — so the
//! `next-sim fleet` JSON artifact is byte-identical across machines'
//! parallelism. Round timing is *modeled* (slowest device's simulated
//! training time plus the configurable up/down-link latencies of the
//! Fig. 6 communication-overhead measurement), never wall clock.

use mpsoc::soc::SocConfig;
use next_core::ppdw::ppdw;
use next_core::{NextAgent, NextConfig};
use qlearn::federated::MergeAccumulator;
use qlearn::{DenseQTable, DenseStore};
use workload::scenario::splitmix64;
use workload::{apps, SessionPlan};

use crate::experiment::evaluate_governor_on;
use crate::platform::PlatformPreset;
use crate::sweep::parallel_map;
use crate::trainer::{TrainOutcome, TrainSpec, Trainer};

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

    /// Total per-round communication overhead, seconds.
    ///
    /// This is the **legacy fixed-cost model** (payload size ignored):
    /// `simkit::fleet` keeps using it so the byte-frozen schema-v2/v3
    /// `fleet.json` fixtures stay identical. The campaign runner
    /// computes communication time from the *actual encoded delta
    /// bytes* instead — see [`LinkModel::round_trip_bytes_s`].
    #[must_use]
    pub fn round_trip_s(&self) -> f64 {
        self.uplink_s + self.downlink_s
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

    /// Per-round communication time for actual payloads: uploading
    /// `uplink_bytes` (the device's encoded Q-table delta) and
    /// downloading `downlink_bytes` (the merged table pushed back).
    /// Degenerates to [`LinkModel::round_trip_s`] at zero bytes, so the
    /// fixed model is exactly the empty-payload case.
    #[must_use]
    pub fn round_trip_bytes_s(&self, uplink_bytes: u64, downlink_bytes: u64) -> f64 {
        self.uplink_time_s(uplink_bytes) + self.downlink_time_s(downlink_bytes)
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
    /// Bin label (recorded in the fleet artifact).
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
    /// Index into [`FleetConfig::platforms`] — which platform this
    /// device is.
    pub platform: usize,
    /// Base seed of this device's user (per-round seeds derive from
    /// it, so every round sees fresh but reproducible behaviour).
    pub user_seed: u64,
}

/// Derives the deterministic device roster of a fleet: bins and
/// platforms assigned round-robin, user seeds split from the master
/// seed (platform assignment does not perturb the seed stream, so a
/// single-platform fleet matches the historical roster exactly).
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

/// Configuration of a fleet simulation.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Application the fleet trains (the paper federates per-app
    /// tables).
    pub app: String,
    /// Number of devices.
    pub devices: usize,
    /// Number of federated rounds.
    pub rounds: usize,
    /// Master seed: device roster, user seeds and the held-out eval
    /// grid all derive from it.
    pub seed: u64,
    /// Local training budget per device per round, simulated seconds.
    pub round_budget_s: f64,
    /// Agent hyper-parameters shared by the fleet (the per-device
    /// platform comes from [`FleetConfig::platforms`], which overrides
    /// `next.platform`).
    pub next: NextConfig,
    /// Platform presets of the fleet's devices, assigned round-robin by
    /// device id. One entry = a homogeneous fleet.
    pub platforms: Vec<String>,
    /// Up-/down-link latency model.
    pub link: LinkModel,
    /// Held-out session seeds the merged table is evaluated on after
    /// every round (disjoint from training seeds by construction).
    pub eval_seeds: Vec<u64>,
    /// Session length of each held-out evaluation, simulated seconds.
    pub eval_duration_s: f64,
}

impl FleetConfig {
    /// Full-scale defaults: §V training budgets, paper link model, a
    /// 3-session held-out grid, a homogeneous Exynos 9810 fleet.
    #[must_use]
    pub fn new(app: &str, devices: usize, rounds: usize, seed: u64) -> Self {
        FleetConfig {
            app: app.to_owned(),
            devices,
            rounds,
            seed,
            round_budget_s: 300.0,
            next: NextConfig::paper(),
            platforms: vec!["exynos9810".to_owned()],
            link: LinkModel::paper(),
            eval_seeds: vec![9_001, 9_002, 9_003],
            eval_duration_s: 120.0,
        }
    }

    /// CI-smoke defaults: short local rounds and evaluations.
    #[must_use]
    pub fn quick(app: &str, devices: usize, rounds: usize, seed: u64) -> Self {
        FleetConfig {
            round_budget_s: 90.0,
            eval_seeds: vec![9_001, 9_002],
            eval_duration_s: 40.0,
            ..FleetConfig::new(app, devices, rounds, seed)
        }
    }

    /// Sets the fleet's platform mix.
    ///
    /// # Panics
    ///
    /// Panics on an empty list or a repeated platform name (groups are
    /// keyed by list position, so a duplicate would silently split one
    /// platform's devices into disjoint federated tables).
    #[must_use]
    pub fn with_platforms(mut self, platforms: Vec<String>) -> Self {
        assert!(!platforms.is_empty(), "fleet needs at least one platform");
        for (i, name) in platforms.iter().enumerate() {
            assert!(
                !platforms[..i].contains(name),
                "platform '{name}' listed twice"
            );
        }
        self.platforms = platforms;
        self
    }

    /// Whether the fleet is the historical homogeneous-9810 deployment
    /// (whose JSON artifact predates the `platform` fields).
    #[must_use]
    pub fn is_default_platform(&self) -> bool {
        self.platforms == ["exynos9810"]
    }
}

/// Held-out quality of the fleet's merged tables (means over the eval
/// grid; for mixed fleets, the unweighted mean over platform groups).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundEval {
    /// Mean presented FPS.
    pub avg_fps: f64,
    /// Mean FPS standard deviation (QoS stability).
    pub fps_std: f64,
    /// Mean platform power, watts.
    pub avg_power_w: f64,
    /// PPDW (Eq. 1) of the mean operating point, against the agent's
    /// ambient.
    pub ppdw: f64,
}

/// Telemetry of one federated round (summed / maxed across the
/// fleet's platform groups).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetRound {
    /// Round number, 0-based.
    pub round: usize,
    /// Visited states across the merged tables after this round.
    pub states: usize,
    /// Total visits across the merged tables after this round.
    pub visits: u64,
    /// Devices whose local training converged this round.
    pub converged_devices: usize,
    /// Slowest device's simulated local training time, seconds
    /// (devices train in parallel, so the round waits for the slowest).
    pub local_train_s: f64,
    /// Modeled communication overhead of the round, seconds.
    pub comm_s: f64,
    /// Modeled wall time of the round: slowest local training plus the
    /// communication round trip.
    pub round_time_s: f64,
    /// Held-out quality of the merged tables.
    pub eval: RoundEval,
}

/// One platform group's merged fleet table.
#[derive(Debug, Clone)]
pub struct PlatformTable {
    /// Platform preset name.
    pub platform: String,
    /// The group's final merged table.
    pub table: DenseQTable,
}

/// Result of a fleet simulation.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The configuration that ran.
    pub config: FleetConfig,
    /// The device roster.
    pub devices: Vec<DeviceProfile>,
    /// Per-round telemetry, in round order.
    pub rounds: Vec<FleetRound>,
    /// The final merged fleet table of every platform group, in
    /// [`FleetConfig::platforms`] order.
    pub tables: Vec<PlatformTable>,
}

impl FleetReport {
    /// Total visited states across the platform groups' final tables.
    #[must_use]
    pub fn total_states(&self) -> usize {
        self.tables.iter().map(|t| t.table.len()).sum()
    }

    /// Total visits across the platform groups' final tables.
    #[must_use]
    pub fn total_visits(&self) -> u64 {
        self.tables.iter().map(|t| t.table.total_visits()).sum()
    }
}

/// The agent configuration a platform group's devices train with: the
/// fleet's shared hyper-parameters on the group's platform.
fn group_next(config: &FleetConfig, preset: &PlatformPreset) -> NextConfig {
    NextConfig {
        platform: preset.next.platform.clone(),
        ..config.next.clone()
    }
}

/// Evaluates one platform group's merged table on the held-out session
/// grid.
fn evaluate_group(
    config: &FleetConfig,
    preset: &PlatformPreset,
    table: &DenseQTable,
    workers: usize,
) -> RoundEval {
    let next = group_next(config, preset);
    let summaries = parallel_map(&config.eval_seeds, workers, |&seed| {
        let mut agent = NextAgent::with_table(next.clone(), table.clone(), false);
        let plan = SessionPlan::single(&config.app, config.eval_duration_s);
        evaluate_governor_on(&mut agent, &plan, seed, &preset.soc).summary
    });
    let n = summaries.len() as f64;
    let avg_fps = summaries.iter().map(|s| s.avg_fps).sum::<f64>() / n;
    let fps_std = summaries.iter().map(|s| s.fps_std).sum::<f64>() / n;
    let avg_power_w = summaries.iter().map(|s| s.avg_power_w).sum::<f64>() / n;
    let avg_temp_hot_c = summaries.iter().map(|s| s.avg_temp_hot_c).sum::<f64>() / n;
    RoundEval {
        avg_fps,
        fps_std,
        avg_power_w,
        ppdw: ppdw(
            avg_fps.max(config.next.bounds.fps_least),
            avg_power_w,
            avg_temp_hot_c,
            config.next.ambient_c,
        ),
    }
}

/// Runs the fleet simulation: R federated rounds over D heterogeneous
/// devices, local training via the work-stealing parallel runner, one
/// streaming merge per platform group and one held-out evaluation per
/// round.
///
/// Deterministic for a fixed config: the report — including every
/// float — is identical for any `workers` value (the 1-vs-N guarantee
/// the sweep engine already gives).
///
/// # Panics
///
/// Panics if the config names an unknown app or platform, or
/// `devices`, `rounds`, or the eval grid is empty.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_fleet(config: &FleetConfig, workers: usize) -> FleetReport {
    assert!(
        apps::by_name(&config.app).is_some(),
        "unknown app '{}'",
        config.app
    );
    assert!(config.devices > 0, "fleet needs at least one device");
    assert!(config.rounds > 0, "fleet needs at least one round");
    assert!(
        !config.eval_seeds.is_empty(),
        "fleet needs a held-out eval grid"
    );
    assert!(
        !config.platforms.is_empty(),
        "fleet needs at least one platform"
    );
    let presets: Vec<PlatformPreset> = config
        .platforms
        .iter()
        .map(|name| {
            // qlint::allow(PN01, reason = "run_fleet documents the panic; an unknown platform is an unusable config")
            PlatformPreset::by_name(name).unwrap_or_else(|| panic!("unknown platform '{name}'"))
        })
        .collect();

    let devices = device_profiles(config.devices, config.seed, presets.len());
    let trainer = Trainer::new();
    // One federated table per platform group — Q-tables of different
    // platforms are not interchangeable.
    let mut fleet_tables: Vec<Option<DenseQTable>> = vec![None; presets.len()];
    let mut rounds = Vec::with_capacity(config.rounds);

    for round in 0..config.rounds {
        // Local training on every device. Each device's run is a pure
        // function of (profile, round, its group table); devices of one
        // platform group train in lockstep through the batched
        // structure-of-arrays kernel (bit-identical to one-at-a-time
        // runs), and groups fan out on the parallel runner.
        let specs: Vec<TrainSpec> = devices
            .iter()
            .map(|dev| {
                let preset = &presets[dev.platform];
                let round_seed =
                    splitmix64(dev.user_seed ^ (round as u64).wrapping_mul(0xff51_afd7_ed55_8ccd));
                let mut spec = TrainSpec::new(
                    &config.app,
                    group_next(config, preset).with_seed(round_seed),
                    round_seed,
                    config.round_budget_s,
                )
                .with_soc(soc_config_for(&preset.soc, &SOC_BINS[dev.bin]));
                if let Some(table) = &fleet_tables[dev.platform] {
                    spec = spec.with_warm_start(table.clone());
                }
                spec
            })
            .collect();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); presets.len()];
        for (i, dev) in devices.iter().enumerate() {
            groups[dev.platform].push(i);
        }
        let group_outcomes: Vec<Vec<TrainOutcome>> = parallel_map(&groups, workers, |idxs| {
            trainer.train_batch(idxs.iter().map(|&i| specs[i].clone()).collect())
        });
        // Scatter the group results back into device order (the merge
        // below folds uploads in device order).
        let mut slots: Vec<Option<TrainOutcome>> = (0..devices.len()).map(|_| None).collect();
        for (idxs, outs) in groups.iter().zip(group_outcomes) {
            for (&i, out) in idxs.iter().zip(outs) {
                slots[i] = Some(out);
            }
        }
        let outcomes: Vec<TrainOutcome> = slots
            .into_iter()
            // qlint::allow(PN01, reason = "parallel_map fills every slot exactly once by index")
            .map(|s| s.expect("every device trained"))
            .collect();

        // Cloud-side streaming merge, per platform group, in device
        // order: each uploaded table is folded and released — the
        // accumulators are the only fleet-sized state.
        let mut converged_devices = 0usize;
        let mut local_train_s = 0.0f64;
        for outcome in &outcomes {
            converged_devices += usize::from(outcome.converged);
            local_train_s = local_train_s.max(outcome.training_time_s);
        }
        let mut accs: Vec<Option<MergeAccumulator<DenseStore>>> =
            (0..presets.len()).map(|_| None).collect();
        for (dev, outcome) in devices.iter().zip(outcomes) {
            let table = outcome.agent.into_table();
            let acc = accs[dev.platform]
                .get_or_insert_with(|| MergeAccumulator::new(table.n_actions(), table.default_q()));
            acc.fold(&table)
                // qlint::allow(PN01, reason = "all tables of a platform group come from the same preset's action count")
                .expect("a platform group shares one action space");
        }
        let merged: Vec<Option<DenseQTable>> = accs
            .into_iter()
            // qlint::allow(PN01, reason = "an accumulator is Some only after at least one fold")
            .map(|acc| acc.map(|a| a.finish().expect("non-empty group folded")))
            .collect();

        // Held-out evaluation per populated group; the round's eval is
        // the unweighted mean over groups.
        let mut evals: Vec<RoundEval> = Vec::new();
        let mut states = 0usize;
        let mut visits = 0u64;
        for (pi, table) in merged.iter().enumerate() {
            if let Some(table) = table {
                states += table.len();
                visits += table.total_visits();
                evals.push(evaluate_group(config, &presets[pi], table, workers));
            }
        }
        let n = evals.len() as f64;
        let eval = RoundEval {
            avg_fps: evals.iter().map(|e| e.avg_fps).sum::<f64>() / n,
            fps_std: evals.iter().map(|e| e.fps_std).sum::<f64>() / n,
            avg_power_w: evals.iter().map(|e| e.avg_power_w).sum::<f64>() / n,
            ppdw: evals.iter().map(|e| e.ppdw).sum::<f64>() / n,
        };

        let comm_s = config.link.round_trip_s();
        rounds.push(FleetRound {
            round,
            states,
            visits,
            converged_devices,
            local_train_s,
            comm_s,
            round_time_s: local_train_s + comm_s,
            eval,
        });
        for (slot, table) in fleet_tables.iter_mut().zip(merged) {
            if table.is_some() {
                *slot = table;
            }
        }
    }

    let tables = config
        .platforms
        .iter()
        .zip(fleet_tables)
        .filter_map(|(name, table)| {
            table.map(|table| PlatformTable {
                platform: name.clone(),
                table,
            })
        })
        .collect();
    FleetReport {
        config: config.clone(),
        devices,
        rounds,
        tables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetConfig {
        FleetConfig {
            round_budget_s: 40.0,
            eval_seeds: vec![9_001],
            eval_duration_s: 20.0,
            ..FleetConfig::new("facebook", 3, 2, 7)
        }
    }

    #[test]
    fn fleet_runs_and_accumulates_knowledge() {
        let report = run_fleet(&tiny(), 2);
        assert_eq!(report.rounds.len(), 2);
        assert_eq!(report.devices.len(), 3);
        let (r0, r1) = (&report.rounds[0], &report.rounds[1]);
        assert!(r0.states > 0);
        assert!(
            r1.visits > r0.visits,
            "later rounds accumulate visits: {} vs {}",
            r1.visits,
            r0.visits
        );
        assert!(r0.eval.avg_power_w > 0.5);
        assert!(r0.eval.ppdw > 0.0);
        assert_eq!(r0.comm_s, LinkModel::paper().round_trip_s());
        assert!(r0.round_time_s > r0.comm_s);
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.total_states(), r1.states);
    }

    #[test]
    fn fleet_is_worker_count_invariant() {
        let config = tiny();
        let a = run_fleet(&config, 1);
        let b = run_fleet(&config, 4);
        assert_eq!(a.rounds, b.rounds, "telemetry must not depend on workers");
        assert_eq!(
            qlearn::encode_table(&a.tables[0].table),
            qlearn::encode_table(&b.tables[0].table),
            "merged table must be byte-identical across worker counts"
        );
    }

    #[test]
    fn mixed_platform_fleet_keeps_per_platform_tables() {
        let config = FleetConfig {
            round_budget_s: 30.0,
            eval_seeds: vec![9_001],
            eval_duration_s: 15.0,
            ..FleetConfig::new("facebook", 4, 1, 11)
        }
        .with_platforms(vec!["exynos9810".to_owned(), "exynos9820".to_owned()]);
        let report = run_fleet(&config, 2);
        assert_eq!(report.tables.len(), 2);
        assert_eq!(report.tables[0].platform, "exynos9810");
        assert_eq!(report.tables[1].platform, "exynos9820");
        assert_eq!(
            report.tables[0].table.n_actions(),
            9,
            "9810 group keeps the 9-action table"
        );
        assert_eq!(
            report.tables[1].table.n_actions(),
            12,
            "9820 group gets the 12-action table"
        );
        assert!(report.rounds[0].eval.avg_power_w > 0.5);
        // Devices alternate platforms round-robin.
        let plats: Vec<usize> = report.devices.iter().map(|d| d.platform).collect();
        assert_eq!(plats, vec![0, 1, 0, 1]);
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
        // Zero payload degenerates to the legacy fixed round trip, the
        // fallback the fleet schema keeps.
        assert_eq!(link.round_trip_bytes_s(0, 0), link.round_trip_s());
        // Payload time adds on top, asymmetrically per direction.
        let t = link.round_trip_bytes_s(1_000_000, 4_000_000);
        assert!((t - (link.round_trip_s() + 2.0)).abs() < 1e-12, "got {t}");
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
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        let mut config = tiny();
        config.devices = 0;
        let _ = run_fleet(&config, 1);
    }

    #[test]
    #[should_panic(expected = "unknown platform")]
    fn unknown_platform_rejected() {
        let config = tiny().with_platforms(vec!["vaporware9000".to_owned()]);
        let _ = run_fleet(&config, 1);
    }
}
