//! Reusable training layer: episode-chunked Q-learning runs with a
//! budget and a convergence stop.
//!
//! The §V protocol trains Next by leaving an app open on a dedicated
//! simulated device while the agent explores: training runs as a
//! sequence of fixed-length episodes (app sessions) until either the
//! TD-error convergence criterion fires or the simulated-time budget
//! is spent. [`Trainer`] owns that loop; the single-device protocol
//! ([`crate::experiment::train_next_for_app`]), the sweep evaluator's
//! per-app tables and the day runner's train-on-first-use tables are
//! all thin clients of it.

use mpsoc::soc::{Soc, SocConfig};
use next_core::{NextAgent, NextConfig};
use workload::{SessionPlan, SessionSim};

use crate::engine::{Engine, RunOutcome};

/// Episode length, simulated seconds: training is chunked into app
/// sessions of this length (the paper leaves the app open; 60 s
/// episodes reproduce the seed protocol).
pub const EPISODE_S: f64 = 60.0;

/// Result of one training run.
#[derive(Debug)]
pub struct TrainOutcome {
    /// The agent, already switched to greedy inference.
    pub agent: NextAgent,
    /// Simulated seconds of training actually spent.
    pub training_time_s: f64,
    /// Whether the TD-error convergence criterion fired (as opposed to
    /// hitting the training budget).
    pub converged: bool,
}

/// One fully-specified training run: what to train, for how long, and
/// on which simulated device.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Application to train on (must resolve via `workload::apps`).
    pub app: String,
    /// Agent configuration (the agent's exploration seed lives here).
    pub config: NextConfig,
    /// Seed driving the training sessions' user behaviour.
    pub session_seed: u64,
    /// Total simulated-seconds budget.
    pub budget_s: f64,
    /// The simulated device to train on.
    pub soc: SocConfig,
}

impl TrainSpec {
    /// Spec on the seed protocol's device, the stock Exynos 9810. The
    /// agent starts from an empty table.
    #[must_use]
    pub fn new(app: &str, config: NextConfig, session_seed: u64, budget_s: f64) -> Self {
        TrainSpec {
            app: app.to_owned(),
            config,
            session_seed,
            budget_s,
            soc: SocConfig::exynos9810(),
        }
    }

    /// Trains on a specific simulated device (SoC bin).
    #[must_use]
    pub fn with_soc(mut self, soc: SocConfig) -> Self {
        self.soc = soc;
        self
    }
}

/// The training loop: runs a [`TrainSpec`] to completion.
#[derive(Debug, Clone, Copy, Default)]
pub struct Trainer {
    engine: Engine,
}

impl Trainer {
    /// Trainer on the paper's 25 ms base tick.
    #[must_use]
    pub fn new() -> Self {
        Trainer {
            engine: Engine::new(),
        }
    }

    /// Runs one training job: episodes of [`EPISODE_S`] until the
    /// agent converges or the budget is spent, then switches the agent
    /// to greedy inference.
    ///
    /// Deterministic: the outcome is a pure function of the spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec references an unknown application.
    #[must_use]
    pub fn train(&self, spec: TrainSpec) -> TrainOutcome {
        let TrainSpec {
            app,
            config,
            session_seed,
            budget_s,
            soc,
        } = spec;
        let mut agent = NextAgent::new(config);
        let mut soc = Soc::new(soc);
        let mut spent = 0.0;
        let mut episode = 0u64;
        // One outcome buffer for the whole training run: each episode
        // reuses the previous episode's trace allocation.
        let mut outcome = RunOutcome {
            trace: crate::metrics::Trace::new(),
            presented_frames: 0,
            repeated_vsyncs: 0,
        };
        while spent < budget_s && !agent.is_converged() {
            let chunk = EPISODE_S.min(budget_s - spent);
            let mut session = SessionSim::new(
                SessionPlan::single(&app, chunk),
                session_seed.wrapping_add(episode),
            );
            agent.start_session();
            self.engine
                .run_into(&mut soc, &mut agent, &mut session, chunk, &mut outcome);
            spent += chunk;
            episode += 1;
        }
        let converged = agent.is_converged();
        let training_time_s = agent.stats().converged_at_s.unwrap_or(spent);
        agent.set_training(false);
        TrainOutcome {
            agent,
            training_time_s,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlearn::encode_table;

    #[test]
    fn trainer_matches_seed_protocol_wrapper() {
        // The experiment-layer wrapper is a thin client of the trainer:
        // same spec, same table bytes.
        let direct = Trainer::new().train(TrainSpec::new("facebook", NextConfig::paper(), 3, 90.0));
        let wrapped =
            crate::experiment::train_next_for_app("facebook", NextConfig::paper(), 3, 90.0);
        assert_eq!(
            encode_table(direct.agent.table()),
            encode_table(wrapped.agent.table())
        );
        assert_eq!(direct.training_time_s, wrapped.training_time_s);
        assert_eq!(direct.converged, wrapped.converged);
    }

    #[test]
    fn soc_bin_changes_the_learned_table() {
        let base = TrainSpec::new("facebook", NextConfig::paper(), 11, 60.0);
        let stock = Trainer::new().train(base.clone());
        let hot = Trainer::new().train(base.with_soc(SocConfig::exynos9810_at_ambient(35.0)));
        assert_ne!(
            encode_table(stock.agent.table()),
            encode_table(hot.agent.table()),
            "a hotter device must experience different transitions"
        );
    }
}
