//! Structure-of-arrays batch of SoCs stepped in lockstep.
//!
//! [`SocBatch`] simulates `width` devices that share one platform
//! *structure* (domains, OPP ladders, thermal network topology, power
//! models, throttle trips) while every per-device *state* — node
//! temperatures, throttle clamps, utilisations — lives in contiguous
//! arrays keyed `domain × lane`, `node × lane` or `lane × domain`.
//! The throttle transitions and the node power injection run as tight
//! lane-inner loops over those arrays with no per-lane heap allocation
//! and no `dyn` dispatch; the thermal RC update walks each lane's
//! network in turn, which is cheaper at the widths the simulator runs.
//!
//! Each lane's DVFS state — its policy caps and current levels — lives
//! in one place, the lane's [`DvfsController`], as one cpufreq policy
//! per cluster does on the phone: governors write its caps between
//! ticks, and the tick selects, clamps and reads its levels in place.
//!
//! # Arena layout
//!
//! ```text
//! temps_c      [node0: l0 l1 … lW | node1: l0 l1 … lW | …]   (f64)
//! node_power   [node0: l0 l1 … lW | node1: l0 l1 … lW | …]   (f64)
//! domain_w     [dom0:  l0 l1 … lW | dom1:  l0 l1 … lW | …]   (f64)
//! clamp_level  [dom0:  l0 l1 … lW | dom1:  l0 l1 … lW | …]   (usize)
//! last_utils   [l0: dom0 dom1 … | l1: dom0 dom1 … | …]        (f64)
//! ambient_c    [l0 l1 … lW]                                   (f64)
//! base_w       [l0 l1 … lW]                                   (f64)
//! ```
//!
//! Each lane owns a disjoint column (or, in `last_utils`, a disjoint
//! row: the utilisations one lane's selection reads), so the loops are
//! free of cross-lane dependencies; structure-level constants (trip
//! points, capacitances, conductances, the per-domain Hz ladder) are
//! built once and shared by every device.
//!
//! # A tick, stage by stage
//!
//! - Utilisation-tracking selection within each lane's caps
//!   (`DvfsController::select_by_util`), from the lane's previous-tick
//!   utilisations.
//! - Throttle transitions on the pre-step die temperatures, over
//!   `domain × lane`.
//! - Per lane: the throttle clamp, execution planning ([`perf::plan`]),
//!   VSync ([`VsyncPipeline::tick`]) and the domain powers at the
//!   pre-step die temperatures.
//! - Node power injection, then the thermal network's forward-Euler
//!   step in sub-steps no longer than its stable step. The sub-step
//!   count and length depend only on the tick length, so the batch
//!   keeps them for the last tick length it saw: a run of session ticks
//!   or of whole screen-off seconds computes them once.
//! - Per-lane power accounting, the clock and the shared FPS window.
//! - The refresh of every lane's [`SocState`] snapshot.
//!
//! # Observable state
//!
//! Every lane's [`SocState`] is kept inside the batch: the constructor
//! materialises it and [`SocBatch::tick`] refreshes it in place as its
//! last stage, so [`SocBatch::state`] is a reference into that snapshot
//! and reading it costs nothing. Governor actuation between ticks
//! (through [`SocBatch::dvfs_mut`] or [`SocBatch::state_and_dvfs_mut`])
//! reaches the kernel at the next tick and never changes the snapshot.
//!
//! # Lane independence
//!
//! Batching is a pure interleaving: every lane performs the same
//! floating-point operation sequence, in the same order, whatever the
//! other lanes hold, so lane `l` of an N-lane batch is bit-identical to
//! a one-lane device on lane `l`'s inputs. [`crate::Soc`] is that
//! one-lane device — a width-1 batch — so this is the only tick
//! implementation, and a lone device and a batch lane agree by
//! construction. The lane-independence tests in this module and the
//! cross-crate proptests pin the contract for widths above one.
//!
//! Lanes may differ in ambient temperature and platform base power (the
//! fleet's device bins); everything structural must match across lanes
//! or [`SocBatch::try_from_configs`] rejects the cohort.
//!
//! # Example
//!
//! Two idle devices tick in lockstep and match a one-lane
//! [`crate::Soc`] bit for bit:
//!
//! ```
//! use mpsoc::perf::FrameDemand;
//! use mpsoc::soc::{Soc, SocConfig};
//! use mpsoc::SocBatch;
//!
//! let config = SocConfig::exynos9810();
//! let mut batch = SocBatch::replicate(&config, 2).unwrap();
//! let mut single = Soc::new(config);
//! let idle = FrameDemand::default();
//! for _ in 0..40 {
//!     batch.tick(0.025, &[idle, idle]);
//!     single.tick(0.025, &idle);
//! }
//! assert_eq!(batch.state(0), batch.state(1), "identical lanes stay identical");
//! assert_eq!(*batch.state(0), single.state(), "batching is unobservable");
//! ```

use std::collections::VecDeque;

use crate::dvfs::{hz_ladders, DvfsController};
use crate::perf::{self, FrameDemand};
use crate::platform::{DomainId, PerDomain, Platform};
use crate::power::DomainPowerModel;
use crate::soc::{SocConfig, SocState, TickOutput};
use crate::thermal::{self, NodeId, ThermalConfig};
use crate::vsync::VsyncPipeline;
use crate::{Error, Result};

/// Length of the rolling window behind [`SocState::fps`], seconds.
/// Instantaneous per-tick rates quantise to multiples of the tick/VSync
/// ratio (e.g. 40/80 FPS at 25 ms ticks); half a second of history is
/// what Android's frame-rate instrumentation effectively reports.
const FPS_WINDOW_S: f64 = 0.5;

/// A batch of `width` devices stepped in lockstep through the one
/// physics kernel ([`Soc`](crate::Soc) is its width-1 view).
#[derive(Debug, Clone)]
pub struct SocBatch {
    platform: Platform,
    width: usize,
    refresh_hz: f64,
    util_selection: bool,
    /// DVFS controller per lane: the lane's one DVFS state (policy caps
    /// and current levels), exactly the object a [`crate::Soc`] exposes.
    dvfs: Vec<DvfsController>,
    /// VSync/triple-buffer pipeline per lane (render phase is
    /// per-device state).
    vsync: Vec<VsyncPipeline>,
    /// Frequency of every OPP in Hz, per domain — the ladder every
    /// lane's utilisation-tracking selection scans, built once instead
    /// of converting kHz per probe, per lane, per tick.
    hz_ladder: Vec<Vec<f64>>,
    // --- throttle (SoA) ---
    throttle_enabled: bool,
    hysteresis_c: f64,
    /// Trip temperature per domain (∞ where the config lists none).
    trip_c: PerDomain<f64>,
    top_level: PerDomain<usize>,
    /// Thermal clamp per `domain × lane`.
    clamp_level: Vec<usize>,
    // --- thermal (SoA) ---
    /// Shared network structure (its `ambient_c` field is unused; the
    /// per-lane `ambient_c` array below is authoritative).
    thermal_config: ThermalConfig,
    max_stable_dt_s: f64,
    /// `(tick length bits, (steps, h))`: the forward-Euler sub-steps of
    /// the last tick length, reused while ticks keep that length (every
    /// session tick, every whole gap second).
    substep_memo: (u64, (usize, f64)),
    /// Ambient temperature per lane, °C.
    ambient_c: Vec<f64>,
    /// Node temperature per `node × lane`, °C.
    temps_c: Vec<f64>,
    /// Forward-Euler scratch per `node × lane` (persistent, never
    /// reallocated in the tick path).
    flux: Vec<f64>,
    /// Injected power per `node × lane`, watts.
    node_power: Vec<f64>,
    // --- power ---
    /// Per-domain power models, shared across lanes.
    domain_models: PerDomain<DomainPowerModel>,
    /// Platform floor power per lane, watts (fleet bins scale it).
    base_w: Vec<f64>,
    /// Domain power per `domain × lane`, watts (scratch).
    domain_w: Vec<f64>,
    die_nodes: PerDomain<NodeId>,
    // --- per-lane rolling state ---
    /// Previous-tick utilisation per `lane × domain` (what the next
    /// tick's in-kernel selection tracks; each lane reads its own row).
    last_utils: Vec<f64>,
    /// Simulated time, seconds: one clock, since every lane ticks by the
    /// same `dt_s`.
    time_s: f64,
    /// Per-lane output of the most recent tick.
    last_tick: Vec<TickOutput>,
    /// Per-lane observable state as of the end of the most recent tick,
    /// refreshed in place by the tick's last stage, so actuation between
    /// ticks leaves it alone.
    states: Vec<SocState>,
    // --- shared FPS window ---
    /// Tick lengths of the rolling window — one entry per tick, shared
    /// by every lane (lockstep means identical dt history).
    window_dt: VecDeque<f64>,
    /// Presented frames per window slot × lane, slot-major.
    window_frames: VecDeque<u32>,
    /// Presented frames in the window per lane: the lane's column sum
    /// of `window_frames`, updated as slots enter and leave, so reading
    /// a lane's FPS does not walk the window.
    window_frame_sum: Vec<u32>,
    /// Window length: the sum of `window_dt` minus the fronts popped
    /// since, in that order of operations.
    window_total_dt_s: f64,
    /// How many of the newest `window_dt` entries are bit-equal to the
    /// newest one; the window is uniform when this equals its length.
    window_run: usize,
    /// `(tick length bits, entry count, sum)` of the last uniform window
    /// that was summed. A uniform window's sum is the same fold of the
    /// same values, so a matching key reuses it bit for bit.
    window_sum_memo: (u64, usize, f64),
}

impl SocBatch {
    /// A batch of `width` identical devices.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on an invalid configuration
    /// (see [`SocBatch::try_from_configs`]).
    pub fn replicate(config: &SocConfig, width: usize) -> Result<Self> {
        let configs = vec![config.clone(); width];
        SocBatch::try_from_configs(&configs)
    }

    /// A batch over per-lane configurations.
    ///
    /// Lanes may differ in thermal ambient temperature and platform
    /// base power; every structural parameter (platform domains, OPP
    /// ladders, thermal topology, refresh rate, throttle, util
    /// selection) must match across lanes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on an empty cohort, a
    /// non-positive refresh rate, an invalid thermal network, a
    /// non-finite ambient temperature, a NaN throttle trip point, a
    /// negative or non-finite throttle hysteresis or a negative or
    /// non-finite platform base power on any lane (the error names the
    /// lane), a domain referencing a thermal node outside the network,
    /// or when the lanes diverge structurally.
    #[allow(clippy::too_many_lines)]
    pub fn try_from_configs(configs: &[SocConfig]) -> Result<Self> {
        let first = configs
            .first()
            .ok_or_else(|| Error::InvalidConfig("batch needs at least one lane".to_owned()))?;
        for (lane, cfg) in configs.iter().enumerate() {
            if !(cfg.refresh_hz > 0.0 && cfg.refresh_hz.is_finite()) {
                return Err(Error::InvalidConfig(
                    "refresh rate must be positive".to_owned(),
                ));
            }
            // Every lane's network and throttle are checked, not only
            // lane 0's: ambient varies per lane, and the structural
            // comparison below would misreport a NaN parameter as a
            // divergence.
            let in_lane =
                |Error::InvalidConfig(msg)| Error::InvalidConfig(format!("lane {lane}: {msg}"));
            cfg.thermal.validate().map_err(in_lane)?;
            cfg.throttle.validate().map_err(in_lane)?;
            let base_w = cfg.platform.base_power_w();
            if !(base_w >= 0.0 && base_w.is_finite()) {
                return Err(Error::InvalidConfig(format!(
                    "lane {lane}: platform base power must be finite and non-negative, got {base_w}"
                )));
            }
            for d in cfg.platform.domains() {
                if d.thermal_node >= cfg.thermal.nodes.len() {
                    return Err(Error::InvalidConfig(format!(
                        "domain '{}' references thermal node {} outside the network",
                        d.name, d.thermal_node
                    )));
                }
            }
            let mismatch = |what: &str| {
                Err(Error::InvalidConfig(format!(
                    "lane {lane} diverges from lane 0 in {what}; batch lanes must share \
                     the platform structure"
                )))
            };
            if cfg.platform.name() != first.platform.name()
                || cfg.platform.domains() != first.platform.domains()
            {
                return mismatch("platform domains");
            }
            if cfg.thermal.nodes != first.thermal.nodes
                || cfg.thermal.edges != first.thermal.edges
                || cfg.thermal.board_node != first.thermal.board_node
                || cfg.thermal.skin_node != first.thermal.skin_node
            {
                return mismatch("thermal network structure");
            }
            if cfg.refresh_hz != first.refresh_hz {
                return mismatch("refresh rate");
            }
            if cfg.util_selection != first.util_selection {
                return mismatch("util selection");
            }
            if cfg.throttle != first.throttle {
                return mismatch("throttle configuration");
            }
        }

        let width = configs.len();
        let platform = first.platform.clone();
        let n = platform.n_domains();
        let n_nodes = first.thermal.nodes.len();
        let sizes = platform.freq_levels();
        let hz_ladder = hz_ladders(&platform);
        let top_level = PerDomain::from_fn(n, |i| sizes[i].saturating_sub(1));
        let trip_c = PerDomain::from_fn(n, |i| first.throttle.trip_of(i));
        let die_nodes = PerDomain::from_fn(n, |i| platform.domains()[i].thermal_node);
        let domain_models = PerDomain::from_fn(n, |i| platform.domains()[i].power);
        let dvfs: Vec<DvfsController> = configs
            .iter()
            .map(|c| DvfsController::for_platform(&c.platform))
            .collect();
        let ambient_c: Vec<f64> = configs.iter().map(|c| c.thermal.ambient_c).collect();
        let base_w: Vec<f64> = configs.iter().map(|c| c.platform.base_power_w()).collect();
        let max_stable_dt_s = thermal::max_stable_dt(&first.thermal);
        let mut temps_c = vec![0.0; n_nodes * width];
        for node in 0..n_nodes {
            temps_c[node * width..(node + 1) * width].copy_from_slice(&ambient_c);
        }
        let blank_state = SocState {
            time_s: 0.0,
            freq_khz: PerDomain::new(n),
            freq_level: PerDomain::new(n),
            max_cap_level: PerDomain::new(n),
            fps: 0.0,
            power_w: 0.0,
            temp_domain_c: PerDomain::new(n),
            temp_hot_c: 0.0,
            temp_device_c: 0.0,
            temp_battery_c: 0.0,
            util: PerDomain::new(n),
        };
        let mut batch = SocBatch {
            width,
            refresh_hz: first.refresh_hz,
            util_selection: first.util_selection,
            dvfs,
            vsync: vec![VsyncPipeline::new(first.refresh_hz); width],
            hz_ladder,
            throttle_enabled: first.throttle.enabled,
            hysteresis_c: first.throttle.hysteresis_c,
            trip_c,
            top_level,
            clamp_level: vec![0; n * width],
            max_stable_dt_s,
            substep_memo: (0.0f64.to_bits(), thermal::substeps(max_stable_dt_s, 0.0)),
            thermal_config: first.thermal.clone(),
            ambient_c,
            temps_c,
            flux: vec![0.0; n_nodes * width],
            node_power: vec![0.0; n_nodes * width],
            domain_models,
            base_w,
            domain_w: vec![0.0; n * width],
            die_nodes,
            last_utils: vec![0.0; width * n],
            time_s: 0.0,
            last_tick: vec![TickOutput::default(); width],
            states: vec![blank_state; width],
            window_dt: VecDeque::new(),
            window_frames: VecDeque::new(),
            window_frame_sum: vec![0; width],
            window_total_dt_s: 0.0,
            window_run: 0,
            window_sum_memo: (0, 0, 0.0),
            platform,
        };
        for d in 0..n {
            for l in 0..width {
                batch.clamp_level[d * width + l] = batch.top_level[d];
            }
        }
        batch.refresh_states();
        Ok(batch)
    }

    /// Number of device lanes.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The shared platform descriptor.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// DVFS controller of one lane (read access).
    #[must_use]
    pub fn dvfs(&self, lane: usize) -> &DvfsController {
        &self.dvfs[lane]
    }

    /// DVFS controller of one lane — the governor's actuator, applied
    /// between ticks; the next tick selects within the caps it sets.
    pub fn dvfs_mut(&mut self, lane: usize) -> &mut DvfsController {
        &mut self.dvfs[lane]
    }

    /// One lane's state next to its DVFS controller: what a governor's
    /// control step reads and actuates, borrowed together. The state is
    /// the end-of-tick snapshot of [`SocBatch::state`].
    pub fn state_and_dvfs_mut(&mut self, lane: usize) -> (&SocState, &mut DvfsController) {
        (&self.states[lane], &mut self.dvfs[lane])
    }

    /// Full output of the most recent tick for one lane.
    #[must_use]
    pub fn tick_output(&self, lane: usize) -> &TickOutput {
        &self.last_tick[lane]
    }

    /// The governor-visible state of one lane after the most recent
    /// tick: the snapshot the tick refreshed as its last stage, so
    /// control actuation between ticks does not leak into the
    /// observation.
    #[must_use]
    pub fn state(&self, lane: usize) -> &SocState {
        &self.states[lane]
    }

    /// Refreshes every lane's state snapshot from the arenas (the
    /// tick's last stage, and construction).
    #[inline]
    fn refresh_states(&mut self) {
        let n = self.platform.n_domains();
        let w = self.width;
        let hot = self.platform.hot_domain().index();
        let skin_base = self.thermal_config.skin_node * w;
        let board_base = self.thermal_config.board_node * w;
        for (l, (s, ctl)) in self.states.iter_mut().zip(&self.dvfs).enumerate() {
            let utils = &self.last_utils[l * n..(l + 1) * n];
            s.time_s = self.time_s;
            // Die temperatures fold into their maximum in platform
            // order, from `f64::MIN`.
            let mut die_max = f64::MIN;
            for (d, &util) in utils.iter().enumerate() {
                let dom = ctl.domain(DomainId::new(d));
                let temp_c = self.temps_c[self.die_nodes[d] * w + l];
                s.freq_level[d] = dom.current_level();
                s.max_cap_level[d] = dom.max_cap_level();
                s.freq_khz[d] = dom.current().freq_khz;
                s.temp_domain_c[d] = temp_c;
                s.util[d] = util;
                die_max = f64::max(die_max, temp_c);
            }
            let board = self.temps_c[board_base + l];
            s.fps = windowed_fps(
                self.window_frame_sum[l],
                self.window_total_dt_s,
                self.refresh_hz,
            );
            s.power_w = self.last_tick[l].power_w;
            s.temp_hot_c = s.temp_domain_c[hot];
            s.temp_device_c =
                thermal::virtual_sensor_c(self.temps_c[skin_base + l], board, die_max);
            s.temp_battery_c = board;
        }
    }

    /// Whether the hardware thermal throttle currently clamps any
    /// domain of `lane` below its top OPP.
    #[must_use]
    pub fn is_throttling(&self, lane: usize) -> bool {
        let w = self.width;
        (0..self.platform.n_domains()).any(|d| self.clamp_level[d * w + lane] < self.top_level[d])
    }

    /// Advances every lane by `dt_s` seconds; `demands[lane]` is the
    /// frame demand lane `lane` executes. Performs, per lane: in-kernel
    /// frequency selection from the previous tick's utilisation,
    /// throttle transition, frame execution + VSync, power integration
    /// at the pre-step die temperatures, thermal update, and finally
    /// the refresh of the lane's [`SocState`] snapshot.
    ///
    /// # Panics
    ///
    /// Panics unless `demands.len()` equals the batch width, and unless
    /// `dt_s` is finite and non-negative (an infinite tick would never
    /// finish its VSync slicing, and a NaN one would poison every
    /// temperature from the next tick on).
    #[allow(clippy::too_many_lines)]
    pub fn tick(&mut self, dt_s: f64, demands: &[FrameDemand]) {
        let w = self.width;
        let n = self.platform.n_domains();
        assert_eq!(demands.len(), w, "one FrameDemand per lane");
        assert!(
            dt_s.is_finite() && dt_s >= 0.0,
            "tick length must be finite and non-negative, got {dt_s}"
        );

        // 1. In-kernel utilisation-tracking selection, within each
        //    lane's caps, from the lane's previous-tick utilisations.
        if self.util_selection {
            for (l, ctl) in self.dvfs.iter_mut().enumerate() {
                ctl.select_by_util(&self.last_utils[l * n..(l + 1) * n], &self.hz_ladder);
            }
        }

        // 2. Throttle transitions on the pre-step die temperatures —
        //    the SoA loop over `domain × lane`.
        if self.throttle_enabled {
            for d in 0..n {
                let trip = self.trip_c[d];
                let top = self.top_level[d];
                let tbase = self.die_nodes[d] * w;
                let cbase = d * w;
                for l in 0..w {
                    self.clamp_level[cbase + l] = crate::throttle::clamp_transition(
                        self.clamp_level[cbase + l],
                        top,
                        trip,
                        self.hysteresis_c,
                        self.temps_c[tbase + l],
                    );
                }
            }
        }

        // 3.–5. Per lane: the throttle clamp lowers any level above it (a
        //    hardware override, which may leave a level below the
        //    governor's floor), then execution planning, VSync, and the
        //    domain powers at the pre-step die temperatures, all at the
        //    lane's operating points.
        let lanes = demands.iter().zip(&mut self.dvfs);
        for (l, (demand, ctl)) in lanes.enumerate() {
            if self.throttle_enabled {
                for d in 0..n {
                    let clamp = self.clamp_level[d * w + l];
                    let dom = ctl.domain_mut(DomainId::new(d));
                    if dom.current_level() > clamp {
                        dom.force_level(clamp);
                    }
                }
            }
            let opps = PerDomain::from_fn(n, |d| ctl.domain(DomainId::new(d)).current());
            let plan = perf::plan(demand, &opps, &self.platform);
            let vout = self.vsync[l].tick(dt_s, plan.frame_period_s);
            // The renderer runs at its natural rate until the display
            // caps it at the refresh rate; that achieved production
            // rate — not the presented FPS — is what loads the domains.
            let produced_rate = plan.render_rate_hz().min(self.refresh_hz);
            let utils = &mut self.last_utils[l * n..(l + 1) * n];
            for (d, util) in utils.iter_mut().enumerate() {
                *util = plan.utilization(DomainId::new(d), produced_rate);
                self.domain_w[d * w + l] = self.domain_models[d].total_w(
                    opps[d],
                    *util,
                    self.temps_c[self.die_nodes[d] * w + l],
                );
            }
            let out = &mut self.last_tick[l];
            out.fps = vout.fps(dt_s);
            out.vsync = vout;
        }

        // 6. Node power injection (domain heat onto die nodes, floor
        //    power onto the board), then the shared thermal kernel.
        self.node_power.fill(0.0);
        for d in 0..n {
            let npbase = self.die_nodes[d] * w;
            let dbase = d * w;
            for l in 0..w {
                self.node_power[npbase + l] += self.domain_w[dbase + l];
            }
        }
        let bbase = self.thermal_config.board_node * w;
        for l in 0..w {
            self.node_power[bbase + l] += self.base_w[l];
        }
        let dt_bits = dt_s.to_bits();
        if self.substep_memo.0 != dt_bits {
            self.substep_memo = (dt_bits, thermal::substeps(self.max_stable_dt_s, dt_s));
        }
        thermal::step_lanes(
            &self.thermal_config,
            w,
            &mut self.temps_c,
            &self.node_power,
            &self.ambient_c,
            &mut self.flux,
            self.substep_memo.1,
        );

        // 7. Per-lane accounting: domain powers in platform order, then
        //    the floor power.
        for l in 0..w {
            let mut total_w = 0.0;
            for d in 0..n {
                total_w += self.domain_w[d * w + l];
            }
            total_w += self.base_w[l];
            self.last_tick[l].power_w = total_w;
        }
        self.time_s += dt_s;

        // 8. Shared FPS window: one dt history for the whole batch
        //    (lockstep), per-lane presented counts per slot.
        if dt_s > 0.0 {
            let repeat = self.window_dt.back().map(|b| b.to_bits()) == Some(dt_s.to_bits());
            self.window_run = if repeat { self.window_run + 1 } else { 1 };
            self.window_dt.push_back(dt_s);
            for (out, sum) in self.last_tick.iter().zip(&mut self.window_frame_sum) {
                self.window_frames.push_back(out.vsync.presented);
                *sum += out.vsync.presented;
            }
        }
        let mut total_dt = self.window_dt_sum();
        while let Some(&front_dt) = self.window_dt.front() {
            if total_dt - front_dt >= FPS_WINDOW_S {
                self.window_dt.pop_front();
                for sum in &mut self.window_frame_sum {
                    *sum -= self.window_frames.pop_front().unwrap_or(0);
                }
                total_dt -= front_dt;
            } else {
                break;
            }
        }
        self.window_run = self.window_run.min(self.window_dt.len());
        self.window_total_dt_s = total_dt;

        // 9. The observable state every lane reads until the next tick.
        self.refresh_states();
    }

    /// `window_dt.iter().sum()`, reused from the memo when the window
    /// holds `len` copies of one tick length (the session engine's
    /// steady state).
    fn window_dt_sum(&mut self) -> f64 {
        let len = self.window_dt.len();
        let uniform = match self.window_dt.back() {
            Some(&dt) if self.window_run == len => dt.to_bits(),
            _ => return self.window_dt.iter().sum(),
        };
        let (bits, memo_len, memo_sum) = self.window_sum_memo;
        if bits == uniform && memo_len == len {
            return memo_sum;
        }
        let sum = self.window_dt.iter().sum();
        self.window_sum_memo = (uniform, len, sum);
        sum
    }
}

/// Rolling-window FPS: presented frames over the shared window's
/// length.
fn windowed_fps(frames: u32, window_s: f64, refresh_hz: f64) -> f64 {
    if window_s <= 0.0 {
        return 0.0;
    }
    // VSync boundaries need not align with the window edge, so the raw
    // quotient can exceed the refresh rate by a fraction of a frame;
    // clamp to the physical maximum.
    (f64::from(frames) / window_s).min(refresh_hz)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::soc::Soc;
    use crate::throttle::ThrottleConfig;

    impl SocBatch {
        /// One lane's state built from scratch out of the arenas: the
        /// reference the in-tick snapshot is checked against.
        fn materialise_state(&self, lane: usize) -> SocState {
            let n = self.platform.n_domains();
            let w = self.width;
            let ctl = &self.dvfs[lane];
            let freq_level =
                PerDomain::from_fn(n, |d| ctl.domain(DomainId::new(d)).current_level());
            let max_cap_level =
                PerDomain::from_fn(n, |d| ctl.domain(DomainId::new(d)).max_cap_level());
            let freq_khz = PerDomain::from_fn(n, |d| ctl.current_khz(DomainId::new(d)));
            let temp_domain_c =
                PerDomain::from_fn(n, |d| self.temps_c[self.die_nodes[d] * w + lane]);
            let skin = self.temps_c[self.thermal_config.skin_node * w + lane];
            let board = self.temps_c[self.thermal_config.board_node * w + lane];
            let die_max = temp_domain_c.iter().copied().fold(f64::MIN, f64::max);
            SocState {
                time_s: self.time_s,
                freq_khz,
                freq_level,
                max_cap_level,
                fps: windowed_fps(
                    self.window_frame_sum[lane],
                    self.window_total_dt_s,
                    self.refresh_hz,
                ),
                power_w: self.last_tick[lane].power_w,
                temp_domain_c,
                temp_hot_c: temp_domain_c[self.platform.hot_domain().index()],
                temp_device_c: thermal::virtual_sensor_c(skin, board, die_max),
                temp_battery_c: board,
                util: PerDomain::from_slice(&self.last_utils[lane * n..(lane + 1) * n]),
            }
        }

        /// Whether every lane's snapshot equals its materialisation.
        fn snapshots_current(&self) -> bool {
            (0..self.width).all(|l| *self.state(l) == self.materialise_state(l))
        }
    }

    /// Deterministic demand schedule mixing idle, UI and game phases.
    fn demand_at(tick: usize, lane: usize) -> FrameDemand {
        let phase = (tick / 40 + lane) % 4;
        match phase {
            0 => FrameDemand::default(),
            1 => FrameDemand::new(3.0e6, 1.5e6, 4.0e6).with_background(0.05e9, 0.05e9, 0.0),
            2 => FrameDemand::new(22.0e6, 6.0e6, 30.0e6).with_background(0.3e9, 0.1e9, 0.0),
            _ => FrameDemand::new(0.0, 0.0, 0.0).with_background(1.2e9, 0.6e9, 0.0),
        }
    }

    /// Runs `ticks` 25 ms steps of one batch over `configs` next to one
    /// one-lane device per lane, and asserts every step that lane `l`
    /// of the batch is bit-identical to the one-lane device on lane
    /// `l`'s inputs.
    fn assert_lanes_independent(configs: &[SocConfig], ticks: usize) {
        let singles: Vec<Soc> = configs.iter().map(|c| Soc::new(c.clone())).collect();
        let batch = SocBatch::try_from_configs(configs).expect("valid batch");
        let steps =
            (0..ticks).map(|t| (0.025, (0..configs.len()).map(|l| demand_at(t, l)).collect()));
        assert_lanes_match_singles(batch, singles, steps);
    }

    /// Steps `batch` and one one-lane device per lane through `steps`
    /// of (tick length, per-lane demands), and asserts every step that
    /// lane `l` of the batch is bit-identical to device `l`.
    fn assert_lanes_match_singles(
        mut batch: SocBatch,
        mut singles: Vec<Soc>,
        steps: impl IntoIterator<Item = (f64, Vec<FrameDemand>)>,
    ) {
        assert_eq!(batch.width(), singles.len());
        for (t, (dt, demands)) in steps.into_iter().enumerate() {
            batch.tick(dt, &demands);
            for (l, single) in singles.iter_mut().enumerate() {
                let out = single.tick(dt, &demands[l]);
                let bout = batch.tick_output(l);
                assert_eq!(
                    out.fps.to_bits(),
                    bout.fps.to_bits(),
                    "tick {t} lane {l} fps"
                );
                assert_eq!(
                    out.power_w.to_bits(),
                    bout.power_w.to_bits(),
                    "tick {t} lane {l} power"
                );
                assert_eq!(out.vsync, bout.vsync, "tick {t} lane {l} vsync");
                assert!(
                    single.state() == *batch.state(l),
                    "tick {t} lane {l} state drifted:\n one-lane {:?}\n batch    {:?}",
                    single.state(),
                    batch.state(l)
                );
            }
        }
    }

    /// A day's lockstep lanes between pickups: a game burst at 25 ms
    /// session ticks, then screen-off seconds of idle demand, a gap
    /// tail and the next session. Lane 1 stays pinned at its top OPPs
    /// and lane 2 on raised floors, as `performance` and `intqos` leave
    /// them, so the idle seconds present, repeat and cool differently
    /// on each lane.
    #[test]
    fn idle_seconds_after_a_game_burst_match_scalars() {
        let cfg = SocConfig::exynos9810();
        let mut batch = SocBatch::replicate(&cfg, 3).unwrap();
        let mut singles = vec![Soc::new(cfg.clone()); 3];
        for id in cfg.platform.ids() {
            let top = cfg.platform.domain(id).table.len() - 1;
            batch.dvfs_mut(1).domain_mut(id).pin_level(top);
            singles[1].dvfs_mut().domain_mut(id).pin_level(top);
            batch.dvfs_mut(2).domain_mut(id).set_min_level(top / 2);
            singles[2].dvfs_mut().domain_mut(id).set_min_level(top / 2);
        }
        let game = FrameDemand::new(22.0e6, 6.0e6, 30.0e6).with_background(0.3e9, 0.1e9, 0.0);
        let idle = FrameDemand::default();
        let mut steps = vec![(0.025, vec![game; 3]); 400];
        steps.extend(vec![(1.0, vec![idle; 3]); 180]);
        steps.push((0.3725, vec![idle; 3]));
        steps.extend(vec![(0.025, vec![game; 3]); 40]);
        assert_lanes_match_singles(batch, singles, steps);
    }

    #[test]
    fn width_four_9820_matches_soc_bit_for_bit() {
        assert_lanes_independent(&vec![SocConfig::exynos9820(); 4], 400);
    }

    #[test]
    fn heterogeneous_ambient_and_base_power_lanes_match_scalars() {
        // The fleet's device bins: per-lane ambient and base power.
        let bins = [(21.0, 1.0), (27.0, 1.0), (21.0, 1.15), (15.0, 0.9)];
        let configs: Vec<SocConfig> = bins
            .iter()
            .map(|&(ambient, scale)| {
                let mut cfg = SocConfig::exynos9810().with_ambient(ambient);
                cfg.platform.scale_base_power(scale);
                cfg
            })
            .collect();
        assert_lanes_independent(&configs, 400);
    }

    #[test]
    fn initial_state_matches_scalar() {
        let single = Soc::new(SocConfig::exynos9810());
        let batch = SocBatch::replicate(&SocConfig::exynos9810(), 3).unwrap();
        for l in 0..3 {
            assert!(single.state() == *batch.state(l), "lane {l}");
        }
    }

    #[test]
    fn throttling_lanes_match_scalar() {
        let mut cfg = SocConfig::exynos9810();
        cfg.throttle = ThrottleConfig {
            enabled: true,
            trip_c: vec![40.0, 40.0, 40.0],
            hysteresis_c: 3.0,
        };
        let mut single = Soc::new(cfg.clone());
        let mut batch = SocBatch::replicate(&cfg, 2).unwrap();
        let demand = FrameDemand::new(22.0e6, 6.0e6, 30.0e6).with_background(0.3e9, 0.1e9, 0.0);
        let demands = [demand, demand];
        // Pin every domain to its top OPP on every device so the clamp
        // must engage.
        for id in single.platform().ids().collect::<Vec<_>>() {
            let top = single.dvfs().domain(id).table().len() - 1;
            single.dvfs_mut().domain_mut(id).pin_level(top);
            for l in 0..2 {
                batch.dvfs_mut(l).domain_mut(id).pin_level(top);
            }
        }
        for _ in 0..8_000 {
            single.tick(0.025, &demand);
            batch.tick(0.025, &demands);
        }
        for l in 0..2 {
            assert!(batch.is_throttling(l), "lane {l}");
            assert!(single.state() == *batch.state(l), "lane {l}");
        }
    }

    #[test]
    fn governor_style_cap_actuation_stays_identical() {
        // Emulate cap-twiddling governors: every 4 ticks, move the big
        // cluster's maxfreq cap, in a different pattern on each lane.
        // Actuating one lane must never leak into the other.
        let cfg = SocConfig::exynos9810();
        let mut singles = [Soc::new(cfg.clone()), Soc::new(cfg.clone())];
        let mut batch = SocBatch::replicate(&cfg, 2).unwrap();
        let big = DomainId::new(0);
        let levels = cfg.platform.domains()[0].table.len();
        for t in 0..800usize {
            let demands = [demand_at(t, 0), demand_at(t, 1)];
            batch.tick(0.025, &demands);
            for (l, single) in singles.iter_mut().enumerate() {
                single.tick(0.025, &demands[l]);
            }
            if t % 4 == 3 {
                for (l, single) in singles.iter_mut().enumerate() {
                    let level = (t / 4 + 7 * l) % levels;
                    single.dvfs_mut().domain_mut(big).set_max_level(level);
                    batch.dvfs_mut(l).domain_mut(big).set_max_level(level);
                }
            }
            for (l, single) in singles.iter().enumerate() {
                assert!(single.state() == *batch.state(l), "tick {t} lane {l}");
            }
        }
    }

    #[test]
    fn state_time_accumulates_tick_lengths() {
        let mut batch = SocBatch::replicate(&SocConfig::exynos9810(), 1).unwrap();
        let demand = FrameDemand::new(8.0e6, 3.0e6, 10.0e6);
        for _ in 0..400 {
            batch.tick(0.025, &[demand]);
        }
        assert!((batch.state(0).time_s - 10.0).abs() < 1e-9);
    }

    #[test]
    fn structural_mismatch_rejected() {
        let base = SocConfig::exynos9810();
        let other_platform = SocConfig::exynos9820();
        assert!(SocBatch::try_from_configs(&[base.clone(), other_platform]).is_err());

        let mut other_refresh = SocConfig::exynos9810();
        other_refresh.refresh_hz = 90.0;
        assert!(SocBatch::try_from_configs(&[base.clone(), other_refresh]).is_err());

        let mut other_throttle = SocConfig::exynos9810();
        other_throttle.throttle = ThrottleConfig::disabled();
        assert!(SocBatch::try_from_configs(&[base.clone(), other_throttle]).is_err());

        // Ambient and base-power divergence is allowed.
        let mut binned = SocConfig::exynos9810().with_ambient(27.0);
        binned.platform.scale_base_power(1.15);
        assert!(SocBatch::try_from_configs(&[base, binned]).is_ok());

        assert!(SocBatch::try_from_configs(&[]).is_err());
    }

    /// Non-finite thermal parameters and a non-finite or negative base
    /// power fail at construction, for a lone device and for any lane of
    /// a batch, instead of turning every temperature NaN a second into
    /// the run (or, for a NaN power scale, silently zeroing the floor).
    #[test]
    fn non_finite_thermal_configs_are_rejected() {
        type Mutate = fn(&mut SocConfig);
        let cases: [(&str, Mutate); 10] = [
            ("NaN ambient", |c| c.thermal.ambient_c = f64::NAN),
            ("+inf ambient", |c| c.thermal.ambient_c = f64::INFINITY),
            ("-inf ambient", |c| c.thermal.ambient_c = f64::NEG_INFINITY),
            ("NaN capacitance", |c| {
                c.thermal.nodes[0].capacitance_j_per_k = f64::NAN;
            }),
            ("NaN edge conductance", |c| {
                c.thermal.edges[0].conductance_w_per_k = f64::NAN;
            }),
            ("NaN ambient conductance", |c| {
                c.thermal.nodes[4].to_ambient_w_per_k = f64::NAN;
            }),
            ("+inf base power", |c| {
                c.platform.scale_base_power(f64::INFINITY);
            }),
            ("NaN base power", |c| c.platform.scale_base_power(f64::NAN)),
            ("-inf base power", |c| {
                c.platform.scale_base_power(f64::NEG_INFINITY);
            }),
            ("negative base power", |c| c.platform.scale_base_power(-0.5)),
        ];
        for (what, mutate) in cases {
            let mut bad = SocConfig::exynos9810();
            mutate(&mut bad);
            let err = Soc::try_new(bad.clone()).expect_err(what).to_string();
            assert!(!err.contains("diverges"), "{what}: misreported: {err}");
            let err = SocBatch::try_from_configs(&[SocConfig::exynos9810(), bad])
                .expect_err(what)
                .to_string();
            assert!(err.contains("lane 1"), "{what}: must name lane 1: {err}");
            assert!(!err.contains("diverges"), "{what}: misreported: {err}");
        }
    }

    /// A NaN trip point, or a NaN, infinite or negative hysteresis,
    /// fails at construction with an error naming the lane and the
    /// field, not as a lane diverging from itself. An infinite trip
    /// point is legal: the domain never trips.
    #[test]
    fn invalid_throttle_configs_are_rejected() {
        type Mutate = fn(&mut SocConfig);
        let cases: [(&str, Mutate, &str); 5] = [
            (
                "NaN trip point",
                |c| c.throttle.trip_c[1] = f64::NAN,
                "trip_c[1]",
            ),
            (
                "NaN hysteresis",
                |c| c.throttle.hysteresis_c = f64::NAN,
                "hysteresis_c",
            ),
            (
                "+inf hysteresis",
                |c| c.throttle.hysteresis_c = f64::INFINITY,
                "hysteresis_c",
            ),
            (
                "-inf hysteresis",
                |c| c.throttle.hysteresis_c = f64::NEG_INFINITY,
                "hysteresis_c",
            ),
            (
                "negative hysteresis",
                |c| c.throttle.hysteresis_c = -0.5,
                "hysteresis_c",
            ),
        ];
        for (what, mutate, field) in cases {
            let mut bad = SocConfig::exynos9810();
            mutate(&mut bad);
            let err = Soc::try_new(bad.clone()).expect_err(what).to_string();
            assert!(err.contains(field), "{what}: must name {field}: {err}");
            let err = SocBatch::try_from_configs(&[SocConfig::exynos9810(), bad])
                .expect_err(what)
                .to_string();
            assert!(err.contains("lane 1"), "{what}: must name lane 1: {err}");
            assert!(err.contains(field), "{what}: must name {field}: {err}");
        }

        let mut never_trips = SocConfig::exynos9810();
        never_trips.throttle.trip_c = vec![f64::INFINITY; 3];
        assert!(Soc::try_new(never_trips.clone()).is_ok());
        assert!(SocBatch::replicate(&never_trips, 2).is_ok());
    }

    #[test]
    #[should_panic(expected = "one FrameDemand per lane")]
    fn wrong_demand_width_panics() {
        let mut batch = SocBatch::replicate(&SocConfig::exynos9810(), 2).unwrap();
        batch.tick(0.025, &[FrameDemand::default()]);
    }

    /// One tick of `dt_s` on a fresh one-lane batch.
    fn tick_once(dt_s: f64) {
        let mut batch = SocBatch::replicate(&SocConfig::exynos9810(), 1).unwrap();
        batch.tick(dt_s, &[FrameDemand::new(3.0e6, 1.5e6, 4.0e6)]);
    }

    #[test]
    #[should_panic(expected = "tick length must be finite and non-negative")]
    fn nan_tick_panics() {
        tick_once(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "tick length must be finite and non-negative")]
    fn infinite_tick_panics() {
        tick_once(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "tick length must be finite and non-negative")]
    fn negative_infinite_tick_panics() {
        tick_once(f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "tick length must be finite and non-negative")]
    fn negative_tick_panics() {
        tick_once(-0.025);
    }

    proptest! {
        /// After construction and after every tick, each lane's cached
        /// state is the end-of-tick snapshot: equal to a from-scratch
        /// materialisation, and left alone by actuation between ticks.
        #[test]
        fn cached_state_is_the_end_of_tick_snapshot(
            preset in 0usize..2,
            width in 1usize..5,
            steps in proptest::collection::vec(
                (
                    (0.0f64..3.0e7, 0.0f64..2.0e9),
                    proptest::collection::vec((0usize..4, 0u8..2, 0usize..64), 0..5),
                ),
                1..60,
            ),
        ) {
            let config = if preset == 0 {
                SocConfig::exynos9810()
            } else {
                SocConfig::exynos9820()
            };
            let n = config.platform.n_domains();
            let mut batch = SocBatch::replicate(&config, width).unwrap();
            prop_assert!(batch.snapshots_current(), "stale after construction");
            let mut demands = vec![FrameDemand::default(); width];
            for (t, ((cycles, bg), actuations)) in steps.iter().enumerate() {
                for (l, d) in demands.iter_mut().enumerate() {
                    let k = 1.0 / (l + 1) as f64;
                    *d = FrameDemand::new(cycles * k, cycles / 3.0, *cycles)
                        .with_background(bg * k, bg / 2.0, 0.0);
                }
                batch.tick(0.025, &demands);
                prop_assert!(batch.snapshots_current(), "stale after tick {}", t);
                let before: Vec<SocState> = (0..width).map(|l| *batch.state(l)).collect();
                for &(lane, pin, level) in actuations {
                    let id = DomainId::new(level % n);
                    let dom = batch.dvfs_mut(lane % width).domain_mut(id);
                    let level = level % dom.table().len();
                    // A cap below a pinned floor clamps to it; either
                    // way, actuation must leave the snapshot alone.
                    if pin == 1 { dom.pin_level(level) } else { dom.set_max_level(level) }
                }
                for (l, state) in before.iter().enumerate() {
                    prop_assert!(batch.state(l) == state, "tick {} lane {}: actuation leaked", t, l);
                }
            }
        }

        /// The windowed FPS equals, bit for bit, a window re-summed from
        /// scratch every tick, over mixed tick lengths: runs of session
        /// ticks, gap tails, 2e-9 s slivers and over-long ticks.
        #[test]
        fn windowed_fps_matches_a_resummed_window(
            runs in proptest::collection::vec((0usize..4, 1usize..30), 1..12),
        ) {
            let mut soc = Soc::new(SocConfig::exynos9810());
            let demand = FrameDemand::new(3.0e6, 1.5e6, 4.0e6);
            let mut slots: VecDeque<(f64, u32)> = VecDeque::new();
            for (kind, len) in runs {
                // Session ticks, gap tails, gap-ticker slivers, and (one
                // at a time) a tick longer than the window.
                let dt = [0.025, 0.0137, 2e-9, 0.75][kind];
                for _ in 0..if kind == 3 { 1 } else { len } {
                    slots.push_back((dt, soc.tick(dt, &demand).vsync.presented));
                    let mut total: f64 = slots.iter().map(|s| s.0).sum();
                    while slots.front().is_some_and(|s| total - s.0 >= FPS_WINDOW_S) {
                        total -= slots.pop_front().unwrap().0;
                    }
                    let want = windowed_fps(slots.iter().map(|s| s.1).sum(), total, 60.0);
                    prop_assert_eq!(soc.state().fps.to_bits(), want.to_bits(), "dt {}", dt);
                }
            }
        }
    }
}
