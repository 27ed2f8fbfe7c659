//! **Next** — the user-interaction-aware reinforcement-learning DVFS
//! agent of Dey et al., *"User Interaction Aware Reinforcement Learning
//! for Power and Thermal Efficiency of CPU-GPU Mobile MPSoCs"*
//! (DATE 2020).
//!
//! Next runs in the application layer (on the LITTLE cluster of the real
//! device) and closes a loop around the platform every 100 ms:
//!
//! 1. the [`frame_window`] samples the presented frame rate every 25 ms
//!    over a 4 s window and takes the **mode** — the frame rate the
//!    user's current interaction pattern actually asks for — as the
//!    *target FPS*;
//! 2. the RL module observes the state (per-cluster frequencies, current
//!    FPS, target FPS, power, big-cluster and device temperatures),
//!    earns a reward built from the paper's new **PPDW** metric
//!    ([`mod@ppdw`], performance per degree watt) plus target-FPS
//!    attainment, and Q-learns over 9 actions (frequency up / down /
//!    hold per cluster, [`action`]);
//! 3. the chosen action moves the corresponding cluster's `maxfreq` cap
//!    — the hardware stays free to idle below it.
//!
//! Trained Q-tables are kept in memory, one per application, in a
//! [`store::QTableStore`] and reused on later launches, so training
//! happens once per app (§IV-B); [`qlearn::federated`] covers the
//! cloud/federated variant.
//!
//! # Example
//!
//! ```
//! use mpsoc::{Soc, SocConfig};
//! use next_core::{NextAgent, NextConfig};
//!
//! let mut soc = Soc::new(SocConfig::exynos9810());
//! let mut agent = NextAgent::new(NextConfig::default());
//! // Engine loop: sample FPS every 25 ms, control every 100 ms.
//! let demand = mpsoc::perf::FrameDemand::new(4.0e6, 2.0e6, 6.0e6);
//! for tick in 0..400 {
//!     let out = soc.tick(0.025, &demand);
//!     agent.observe_frame_sample(out.fps);
//!     if tick % 4 == 0 {
//!         let state = soc.state();
//!         agent.step(&state, soc.dvfs_mut());
//!     }
//! }
//! assert!(agent.stats().updates > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod agent;
mod error;
pub mod frame_window;
pub mod ppdw;
pub mod space;
pub mod state;
pub mod store;

pub use action::{Action, Direction};
pub use agent::{NextAgent, NextConfig, TrainingStats};
pub use error::CoreError;
pub use frame_window::FrameWindow;
pub use ppdw::{ppdw, PpdwBounds};
pub use space::StateSpace;
pub use state::StateEncoder;
pub use store::QTableStore;
