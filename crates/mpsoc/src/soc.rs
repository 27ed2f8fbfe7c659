//! The assembled system-on-chip: DVFS + execution + VSync + power +
//! thermal, advanced in lockstep by [`Soc::tick`].
//!
//! One tick simulates `dt` seconds of the platform running a given
//! [`FrameDemand`]: the kernel's utilisation-tracking policy picks
//! frequencies within the policy caps, the frame pipeline renders and
//! presents frames through VSync, the power model integrates the
//! resulting utilisation, and the thermal network absorbs the dissipated
//! heat. The output mirrors exactly what the paper's agent can observe
//! on the real device: frequencies, FPS, power and sensor temperatures.
//!
//! Which — and how many — DVFS domains exist is entirely a property of
//! the [`Platform`] descriptor in the [`SocConfig`]; nothing in this
//! module assumes the paper's big/LITTLE/GPU triple.
//!
//! [`Soc`] is the width-1 view of [`SocBatch`]: a device's state lives in
//! a one-lane batch and every tick runs the batched kernel, so there is
//! exactly one tick implementation. This module owns the types the two
//! share: the configuration, the observable state and the tick output.
//! The kernel refreshes each lane's [`SocState`] in place at the end of
//! every tick, so reading it costs a copy ([`Soc::state`]) or nothing
//! ([`SocBatch::state`] hands out a reference).

use crate::batch::SocBatch;
use crate::dvfs::DvfsController;
use crate::freq::KiloHertz;
use crate::perf::FrameDemand;
use crate::platform::{DomainId, PerDomain, Platform};
use crate::thermal::{ThermalConfig, DEFAULT_AMBIENT_C};
use crate::throttle::ThrottleConfig;
use crate::vsync::VsyncOutput;
use crate::Result;

/// Configuration of a simulated SoC platform.
#[derive(Debug, Clone)]
pub struct SocConfig {
    /// The platform descriptor: ordered DVFS domains with their OPP
    /// ladders, power models and thermal coupling.
    pub platform: Platform,
    /// Thermal network description.
    pub thermal: ThermalConfig,
    /// Display refresh rate in Hz.
    pub refresh_hz: f64,
    /// Whether the in-kernel utilisation-tracking frequency selection
    /// runs every tick (disable to drive levels fully externally).
    pub util_selection: bool,
    /// Hardware thermal throttling configuration.
    pub throttle: ThrottleConfig,
}

impl SocConfig {
    /// The Galaxy Note 9 configuration used throughout the paper:
    /// Exynos 9810 ladders, calibrated power/thermal models, 60 Hz
    /// display, [`DEFAULT_AMBIENT_C`] ambient, util-tracking enabled.
    #[must_use]
    pub fn exynos9810() -> Self {
        SocConfig::device(
            Platform::exynos9810(),
            ThermalConfig::exynos9810(DEFAULT_AMBIENT_C),
        )
    }

    /// The Galaxy-S10-class tri-cluster-CPU + GPU configuration
    /// (`m = 4`, see [`Platform::exynos9820`]).
    #[must_use]
    pub fn exynos9820() -> Self {
        SocConfig::device(
            Platform::exynos9820(),
            ThermalConfig::exynos9820(DEFAULT_AMBIENT_C),
        )
    }

    /// A preset device: 60 Hz display, util tracking on, and throttling
    /// at the trip points the platform's domains declare.
    fn device(platform: Platform, thermal: ThermalConfig) -> Self {
        SocConfig {
            throttle: ThrottleConfig::for_platform(&platform),
            platform,
            thermal,
            refresh_hz: 60.0,
            util_selection: true,
        }
    }

    /// The same device at a different ambient temperature (the
    /// thermostat of §V).
    #[must_use]
    pub fn with_ambient(mut self, ambient_c: f64) -> Self {
        self.thermal.ambient_c = ambient_c;
        self
    }
}

/// Everything a governor can observe after a tick — the paper's state
/// vector (§IV-B): per-domain frequencies, current FPS, power, and the
/// hot-spot and device temperatures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocState {
    /// Simulated wall-clock time in seconds.
    pub time_s: f64,
    /// Current frequency per domain in kHz, in platform order.
    pub freq_khz: PerDomain<KiloHertz>,
    /// Current OPP level per domain.
    pub freq_level: PerDomain<usize>,
    /// Current `maxfreq` cap level per domain.
    pub max_cap_level: PerDomain<usize>,
    /// Presented frames per second over the rolling FPS window
    /// (≈0.5 s) — the rate frame-rate instrumentation reports.
    pub fps: f64,
    /// Total platform power over the last tick, in watts.
    pub power_w: f64,
    /// Die sensor temperature of every domain, °C, in platform order.
    pub temp_domain_c: PerDomain<f64>,
    /// Temperature of the platform's designated hot-spot domain, °C —
    /// the paper's `Temperature_big` observation (the big cluster on
    /// both shipped presets).
    pub temp_hot_c: f64,
    /// Virtual device sensor temperature, °C.
    pub temp_device_c: f64,
    /// Battery/board sensor temperature, °C.
    pub temp_battery_c: f64,
    /// Per-domain utilisation over the last tick.
    pub util: PerDomain<f64>,
}

impl SocState {
    /// Frequency of one domain in kHz.
    #[must_use]
    pub fn freq_of(&self, id: DomainId) -> KiloHertz {
        self.freq_khz[id.index()]
    }

    /// Number of DVFS domains observed.
    #[must_use]
    pub fn n_domains(&self) -> usize {
        self.freq_khz.len()
    }
}

/// Per-interval result of one [`Soc::tick`]: what the state's rolling
/// window does not carry. Levels, frequencies and utilisations are in
/// [`SocState`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TickOutput {
    /// Presented frames per second over the interval.
    pub fps: f64,
    /// Raw VSync accounting.
    pub vsync: VsyncOutput,
    /// Total platform power over the interval, in watts: the domain
    /// powers in platform order, then the platform floor.
    pub power_w: f64,
}

/// The simulated SoC platform: the one-device view of the batched
/// tick kernel.
///
/// A `Soc` is a width-1 [`SocBatch`], so a lone device and every lane
/// of a wider batch run the same floating-point sequence by
/// construction.
#[derive(Debug, Clone)]
pub struct Soc {
    batch: SocBatch,
}

impl Soc {
    /// Builds the platform from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (the presets never are);
    /// use [`Soc::try_new`] to handle that case.
    #[must_use]
    pub fn new(config: SocConfig) -> Self {
        // qlint::allow(PN01, reason = "documented panicking constructor; fallible callers use Soc::try_new")
        Soc::try_new(config).expect("invalid SocConfig")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`](crate::Error::InvalidConfig)
    /// when the thermal network, ambient temperature or refresh rate is
    /// invalid, or a domain references a thermal node outside the
    /// network.
    pub fn try_new(config: SocConfig) -> Result<Self> {
        let batch = SocBatch::try_from_configs(&[config])?;
        Ok(Soc { batch })
    }

    /// The platform descriptor this device runs.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        self.batch.platform()
    }

    /// DVFS controller (read access).
    #[must_use]
    pub fn dvfs(&self) -> &DvfsController {
        self.batch.dvfs(0)
    }

    /// DVFS controller (the governor's actuator).
    pub fn dvfs_mut(&mut self) -> &mut DvfsController {
        self.batch.dvfs_mut(0)
    }

    /// The governor-visible state after the most recent tick (a copy
    /// of the snapshot the tick kept up to date).
    #[must_use]
    pub fn state(&self) -> SocState {
        *self.batch.state(0)
    }

    /// The underlying one-lane batch (the simulation engine drives
    /// single devices through its lane loop).
    pub fn batch_mut(&mut self) -> &mut SocBatch {
        &mut self.batch
    }

    /// Advances the platform by `dt_s` seconds of `demand`.
    ///
    /// Steps, in order: kernel frequency selection (if enabled) based on
    /// the previous interval's utilisation, hardware thermal throttling,
    /// frame execution + VSync, power integration at the resulting
    /// utilisation, thermal update.
    ///
    /// # Panics
    ///
    /// Panics unless `dt_s` is finite and non-negative (see
    /// [`SocBatch::tick`]).
    pub fn tick(&mut self, dt_s: f64, demand: &FrameDemand) -> TickOutput {
        self.batch.tick(dt_s, std::slice::from_ref(demand));
        *self.batch.tick_output(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big() -> DomainId {
        DomainId::new(0)
    }
    fn gpu() -> DomainId {
        DomainId::new(2)
    }

    fn light_ui() -> FrameDemand {
        FrameDemand::new(3.0e6, 1.5e6, 4.0e6).with_background(0.05e9, 0.05e9, 0.0)
    }

    fn heavy_game() -> FrameDemand {
        FrameDemand::new(22.0e6, 6.0e6, 30.0e6).with_background(0.3e9, 0.1e9, 0.0)
    }

    fn run(soc: &mut Soc, demand: &FrameDemand, seconds: f64) -> (f64, f64) {
        let mut fps_sum = 0.0;
        let mut pow_sum = 0.0;
        let ticks = (seconds / 0.025) as usize;
        for _ in 0..ticks {
            let o = soc.tick(0.025, demand);
            fps_sum += o.fps;
            pow_sum += o.power_w;
        }
        (fps_sum / ticks as f64, pow_sum / ticks as f64)
    }

    #[test]
    fn light_ui_reaches_60fps_under_util_tracking() {
        let mut soc = Soc::new(SocConfig::exynos9810());
        let (fps, power) = run(&mut soc, &light_ui(), 10.0);
        assert!(fps > 50.0, "avg fps {fps}");
        assert!(power > 0.9, "power {power} must exceed the platform floor");
    }

    #[test]
    fn heavy_game_draws_more_power_and_heat_than_light_ui() {
        let mut a = Soc::new(SocConfig::exynos9810());
        let mut b = Soc::new(SocConfig::exynos9810());
        let (_, p_light) = run(&mut a, &light_ui(), 30.0);
        let (_, p_heavy) = run(&mut b, &heavy_game(), 30.0);
        assert!(
            p_heavy > p_light * 1.5,
            "heavy {p_heavy} W vs light {p_light} W"
        );
        assert!(b.state().temp_hot_c > a.state().temp_hot_c);
    }

    #[test]
    fn frameless_audio_keeps_cpu_busy_with_zero_fps() {
        // The paper's Spotify observation: FPS ≈ 0, frequency and power
        // stay high.
        let mut soc = Soc::new(SocConfig::exynos9810());
        let audio = FrameDemand::new(0.0, 0.0, 0.0).with_background(1.2e9, 0.6e9, 0.0);
        let (fps, power) = run(&mut soc, &audio, 10.0);
        assert_eq!(fps, 0.0);
        assert!(power > 1.5, "background work must burn power: {power} W");
        assert!(
            soc.state().freq_of(big()) > 650_000,
            "util tracking must raise freq"
        );
    }

    #[test]
    fn maxfreq_cap_reduces_power_on_heavy_load() {
        let mut free = Soc::new(SocConfig::exynos9810());
        let mut capped = Soc::new(SocConfig::exynos9810());
        capped.dvfs_mut().domain_mut(big()).set_max_level(5);
        capped.dvfs_mut().domain_mut(gpu()).set_max_level(2);
        let (fps_free, p_free) = run(&mut free, &heavy_game(), 20.0);
        let (fps_capped, p_capped) = run(&mut capped, &heavy_game(), 20.0);
        assert!(
            p_capped < p_free,
            "cap must save power: {p_capped} vs {p_free}"
        );
        assert!(
            fps_capped < fps_free,
            "cap trades FPS: {fps_capped} vs {fps_free}"
        );
    }

    #[test]
    fn state_reflects_sensors_and_freqs() {
        let mut soc = Soc::new(SocConfig::exynos9810());
        run(&mut soc, &heavy_game(), 5.0);
        let s = soc.state();
        assert!(s.temp_hot_c > 21.0);
        assert!(s.temp_device_c > 21.0);
        assert!(
            s.temp_hot_c >= s.temp_device_c,
            "hot spot above blended device sensor"
        );
        assert!(s.power_w > 1.0);
        assert_eq!(s.freq_khz[0], soc.dvfs().current_khz(big()));
        assert_eq!(s.temp_hot_c, s.temp_domain_c[0]);
        assert!(s.time_s > 4.9);
    }

    #[test]
    fn disabled_util_selection_keeps_levels() {
        let mut cfg = SocConfig::exynos9810();
        cfg.util_selection = false;
        let mut soc = Soc::new(cfg);
        let before = soc.dvfs().current_khz(big());
        run(&mut soc, &heavy_game(), 2.0);
        assert_eq!(soc.dvfs().current_khz(big()), before);
    }

    #[test]
    fn invalid_refresh_rejected() {
        let mut cfg = SocConfig::exynos9810();
        cfg.refresh_hz = 0.0;
        assert!(Soc::try_new(cfg).is_err());
    }

    #[test]
    fn dangling_thermal_node_rejected() {
        let mut cfg = SocConfig::exynos9820();
        // The 9810 thermal network has only 5 nodes; the 9820 platform
        // maps its GPU to node 3 and board to 4, but its domains expect
        // nodes the smaller network does provide — so cross the configs
        // the other way round to produce a dangling reference.
        cfg.thermal = ThermalConfig {
            nodes: cfg.thermal.nodes[..3].to_vec(),
            edges: vec![],
            ambient_c: 21.0,
            board_node: 0,
            skin_node: 1,
        };
        cfg.thermal.nodes[0].to_ambient_w_per_k = 0.1;
        assert!(Soc::try_new(cfg).is_err());
    }

    #[test]
    fn exynos9820_runs_end_to_end() {
        let mut soc = Soc::new(SocConfig::exynos9820());
        assert_eq!(soc.platform().n_domains(), 4);
        let (fps, power) = run(&mut soc, &light_ui(), 10.0);
        assert!(fps > 50.0, "avg fps {fps}");
        assert!(power > 0.9, "power {power}");
        let s = soc.state();
        assert_eq!(s.n_domains(), 4);
        assert!(s.temp_hot_c > 21.0);
        assert!(s.temp_device_c > 21.0);
        assert!(s.temp_domain_c.iter().all(|t| t.is_finite()));
    }

    #[test]
    fn with_ambient_shifts_the_whole_device() {
        let mut warm = Soc::new(SocConfig::exynos9810().with_ambient(35.0));
        let mut cool = Soc::new(SocConfig::exynos9810());
        run(&mut warm, &light_ui(), 5.0);
        run(&mut cool, &light_ui(), 5.0);
        assert!(warm.state().temp_hot_c > cool.state().temp_hot_c + 10.0);
    }

    #[test]
    fn thermal_throttle_caps_sustained_heat() {
        // A low trip point plus a performance-pinned heavy load: the
        // clamp must engage and hold the die near the trip.
        let mut cfg = SocConfig::exynos9810();
        cfg.throttle = crate::throttle::ThrottleConfig {
            enabled: true,
            trip_c: vec![40.0, 40.0, 40.0],
            hysteresis_c: 3.0,
        };
        let mut soc = Soc::new(cfg);
        for id in [big(), DomainId::new(1), gpu()] {
            let dom = soc.dvfs_mut().domain_mut(id);
            dom.pin_level(dom.table().len() - 1);
        }
        let demand = heavy_game();
        for _ in 0..(600.0 / 0.025) as usize {
            soc.tick(0.025, &demand);
        }
        assert!(soc.batch_mut().is_throttling(0), "clamp should be engaged");
        assert!(
            soc.state().temp_hot_c < 48.0,
            "throttle must bound the die temperature: {:.1} C",
            soc.state().temp_hot_c
        );
        // An unthrottled twin runs hotter.
        let mut cfg = SocConfig::exynos9810();
        cfg.throttle = crate::throttle::ThrottleConfig::disabled();
        let mut hot = Soc::new(cfg);
        for id in [big(), DomainId::new(1), gpu()] {
            let dom = hot.dvfs_mut().domain_mut(id);
            dom.pin_level(dom.table().len() - 1);
        }
        for _ in 0..(600.0 / 0.025) as usize {
            hot.tick(0.025, &demand);
        }
        assert!(hot.state().temp_hot_c > soc.state().temp_hot_c + 3.0);
    }

    #[test]
    fn fps_never_exceeds_refresh_rate() {
        let mut soc = Soc::new(SocConfig::exynos9810());
        let tiny = FrameDemand::new(1.0e4, 1.0e4, 1.0e4);
        let (fps, _) = run(&mut soc, &tiny, 5.0);
        assert!(fps <= 60.0 + 1e-9, "fps {fps}");
    }
}
