//! Simulated CPU-GPU mobile MPSoC platforms, modelled after the Samsung
//! Exynos 9810 used by the DATE 2020 paper *"User Interaction Aware
//! Reinforcement Learning for Power and Thermal Efficiency of CPU-GPU
//! Mobile MPSoCs"* (Dey et al.) — generalised to any number of DVFS
//! domains through [`platform::Platform`] descriptors.
//!
//! The crate provides everything a DVFS governor can observe and actuate
//! on the real device:
//!
//! * [`platform`] — the platform descriptor: an ordered registry of
//!   named DVFS domains (OPP ladder, power model, thermal coupling,
//!   `cpu`/`gpu` role, workload-channel mapping) plus the two shipped
//!   presets (Exynos 9810, `m = 3`; Exynos-9820-class, `m = 4`),
//! * [`freq`] — per-domain operating-performance-point (OPP) tables
//!   with the paper's exact frequency ladders,
//! * [`power`] — dynamic `C·V²·f` plus temperature-dependent leakage
//!   power,
//! * [`thermal`] — a lumped RC thermal network with per-die, board and
//!   skin nodes and the phone's sensor layout (hot-spot sensor plus a
//!   "virtual" whole-device sensor),
//! * [`perf`] — a cycle-budget frame execution model over three
//!   platform-independent workload channels,
//! * [`vsync`] — 60 Hz VSync with triple buffering and frame-drop
//!   semantics,
//! * [`dvfs`] — domain-wise DVFS control (`minfreq`/`maxfreq` caps, as a
//!   governor in the Android application layer would set them),
//! * [`batch`] — the tick kernel: a structure-of-arrays batch of SoCs
//!   stepped in lockstep (each lane independent of the others, lane
//!   loops vectorizable),
//! * [`soc`] — the assembled system-on-chip with a `tick(dt)` simulation
//!   step: the width-1 view of a [`batch::SocBatch`], plus the
//!   configuration, state and tick-output types both share.
//!
//! # Example
//!
//! ```
//! use mpsoc::{DomainId, Soc, SocConfig, perf::FrameDemand};
//!
//! let mut soc = Soc::new(SocConfig::exynos9810());
//! // Cap the big cluster at 1794 MHz the way the Next agent would.
//! let big = soc.platform().domain_named("big").unwrap();
//! soc.dvfs_mut().set_max_freq(big, 1_794_000)?;
//! // Run 100 ms of a moderate workload.
//! let demand = FrameDemand::new(4.0e6, 2.0e6, 8.0e6);
//! let out = soc.tick(0.1, &demand);
//! assert!(out.power_w > 0.0);
//! assert_eq!(big, DomainId::new(0));
//! # Ok::<(), mpsoc::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod dvfs;
pub mod freq;
pub mod perf;
pub mod platform;
pub mod power;
pub mod soc;
pub mod thermal;
pub mod throttle;
pub mod vsync;

mod error;

pub use batch::SocBatch;
pub use dvfs::DvfsController;
pub use error::Error;
pub use freq::{FreqDomain, KiloHertz, Opp, OppTable};
pub use perf::{Channel, FrameDemand};
pub use platform::{DomainId, DomainRole, DomainSpec, PerDomain, Platform, MAX_DOMAINS};
pub use soc::{Soc, SocConfig, SocState, TickOutput};
pub use thermal::DEFAULT_AMBIENT_C;
pub use throttle::ThrottleConfig;
pub use vsync::VsyncPipeline;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;
