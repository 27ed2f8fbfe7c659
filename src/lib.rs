//! **next-mpsoc** — a full-system reproduction of Dey et al., *"User
//! Interaction Aware Reinforcement Learning for Power and Thermal
//! Efficiency of CPU-GPU Mobile MPSoCs"* (DATE 2020), in Rust.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`mpsoc`] — the simulated Exynos 9810 platform (OPP ladders, power,
//!   RC thermal network, VSync frame pipeline, cluster-wise DVFS),
//! * [`workload`] — phase-based application models and the stochastic
//!   user-interaction process,
//! * [`governors`] — the baselines: stock `schedutil`, Pathania et
//!   al.'s Int. QoS PM, and classic reference governors,
//! * [`qlearn`] — the tabular Q-learning toolkit (tables, policies,
//!   quantisers, federated merging),
//! * [`next_core`] — **Next**, the paper's user-interaction-aware RL
//!   DVFS agent (frame window, PPDW metric, 9-action Q-learning),
//! * [`simkit`] — the closed-loop simulation engine, metrics, the
//!   §V evaluation protocol, the reusable trainer layer, battery days
//!   and the federated campaign runner behind `next-sim campaign`,
//! * [`bench`](mod@bench) — the figure-reproduction protocol plus the
//!   machine-readable day and campaign documents behind `next-sim day`
//!   and `next-sim campaign` (the `day.json`/`campaign.json` artifacts
//!   CI compares and archives),
//! * [`qlint`] — the static determinism lint behind `next-sim lint`:
//!   a dep-free token scanner and rule engine that enforces the
//!   invariants of `docs/ARCHITECTURE.md` at the source line (see
//!   `docs/LINT.md` for the rule catalog).
//!
//! # Quickstart
//!
//! ```
//! use next_mpsoc::governors::Schedutil;
//! use next_mpsoc::simkit::experiment::evaluate_governor;
//! use next_mpsoc::workload::SessionPlan;
//!
//! // Measure the stock governor on a 30-second Facebook session.
//! let plan = SessionPlan::single("facebook", 30.0);
//! let result = evaluate_governor(&mut Schedutil::new(), &plan, 42);
//! assert!(result.summary.avg_power_w > 0.5);
//! ```
//!
//! See `examples/` for end-to-end scenarios (training Next, comparing
//! governors on a gaming session, a full synthetic day of usage, and
//! federated training across a device fleet) and `crates/bench` for the
//! binaries that regenerate every figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ::bench;
pub use governors;
pub use mpsoc;
pub use next_core;
pub use qlearn;
pub use qlint;
pub use simkit;
pub use workload;
