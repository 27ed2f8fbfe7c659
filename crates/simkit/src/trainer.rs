//! Reusable training layer: episode-chunked Q-learning runs with a
//! budget, a convergence stop, and warm starts from a fleet table.
//!
//! The §V protocol trains Next by leaving an app open on a dedicated
//! simulated device while the agent explores: training runs as a
//! sequence of fixed-length episodes (app sessions) until either the
//! TD-error convergence criterion fires or the simulated-time budget
//! is spent. [`Trainer`] owns that loop; the single-device protocol
//! ([`crate::experiment::train_next_for_app`]) and the federated fleet
//! rounds ([`crate::fleet`]) are both thin clients of it — the fleet
//! additionally warm-starts every round from the merged cloud table
//! and trains on per-device SoC bins.

use mpsoc::soc::{Soc, SocConfig};
use mpsoc::SocBatch;
use next_core::{NextAgent, NextConfig};
use qlearn::DenseQTable;
use workload::{SessionPlan, SessionSim};

use crate::batch::BatchLane;
use crate::engine::{Engine, RunOutcome};

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

/// One fully-specified training run: what to train, for how long, on
/// which simulated device, and from which starting table.
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
    /// Episode length, simulated seconds: training is chunked into app
    /// sessions of this length (the paper leaves the app open; 60 s
    /// episodes reproduce the seed protocol).
    pub episode_s: f64,
    /// The simulated device to train on — fleet devices pass their own
    /// SoC power/thermal bin here.
    pub soc: SocConfig,
    /// Warm-start table (e.g. the merged fleet table pushed down from
    /// the cloud); `None` trains from scratch.
    pub warm_start: Option<DenseQTable>,
}

impl TrainSpec {
    /// Spec with the seed protocol's defaults: 60 s episodes on the
    /// stock Exynos 9810, training from scratch.
    #[must_use]
    pub fn new(app: &str, config: NextConfig, session_seed: u64, budget_s: f64) -> Self {
        TrainSpec {
            app: app.to_owned(),
            config,
            session_seed,
            budget_s,
            episode_s: 60.0,
            soc: SocConfig::exynos9810(),
            warm_start: None,
        }
    }

    /// Overrides the episode length.
    ///
    /// # Panics
    ///
    /// Panics unless `episode_s` is positive and finite.
    #[must_use]
    pub fn with_episode_s(mut self, episode_s: f64) -> Self {
        assert!(
            episode_s > 0.0 && episode_s.is_finite(),
            "episode length must be positive"
        );
        self.episode_s = episode_s;
        self
    }

    /// Trains on a specific simulated device (SoC bin).
    #[must_use]
    pub fn with_soc(mut self, soc: SocConfig) -> Self {
        self.soc = soc;
        self
    }

    /// Warm-starts from a previously learned table.
    #[must_use]
    pub fn with_warm_start(mut self, table: DenseQTable) -> Self {
        self.warm_start = Some(table);
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

    /// Runs one training job: episodes of `spec.episode_s` until the
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
            episode_s,
            soc,
            warm_start,
        } = spec;
        let mut agent = match warm_start {
            Some(table) => NextAgent::warm_start(config, table),
            None => NextAgent::new(config),
        };
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
            let chunk = episode_s.min(budget_s - spent);
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

    /// Runs many training jobs in lockstep through the batched
    /// structure-of-arrays kernel, one device lane per spec.
    ///
    /// Outcomes are **bit-identical** to calling [`Trainer::train`] on
    /// each spec: lanes share the episode chunk sequence (the specs'
    /// budgets and episode lengths must match for lockstep), each lane
    /// keeps its own agent, session seed, and SoC bin, and a lane drops
    /// out of the batch at the episode boundary where its single-device
    /// run would have stopped (convergence). Specs that genuinely
    /// diverge — different budgets or episode chunking, or structurally
    /// incompatible SoC bins — fall back to training one device at a
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if a spec references an unknown application.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn train_batch(&self, specs: Vec<TrainSpec>) -> Vec<TrainOutcome> {
        if specs.len() < 2 {
            return specs.into_iter().map(|s| self.train(s)).collect();
        }
        let lockstep = specs
            .iter()
            .all(|s| s.budget_s == specs[0].budget_s && s.episode_s == specs[0].episode_s);
        let soc_configs: Vec<SocConfig> = specs.iter().map(|s| s.soc.clone()).collect();
        let batch = if lockstep {
            SocBatch::try_from_configs(&soc_configs).ok()
        } else {
            None
        };
        let Some(mut batch) = batch else {
            // Genuinely divergent plans: lane-sequential fallback.
            return specs.into_iter().map(|s| self.train(s)).collect();
        };

        let budget_s = specs[0].budget_s;
        let episode_s = specs[0].episode_s;
        let width = specs.len();
        let mut agents: Vec<NextAgent> = specs
            .iter()
            .map(|s| match &s.warm_start {
                Some(table) => NextAgent::warm_start(s.config.clone(), table.clone()),
                None => NextAgent::new(s.config.clone()),
            })
            .collect();
        // Lane → original spec index (sorted ascending): the batch
        // compacts as lanes converge and drop out.
        let mut lane_spec: Vec<usize> = (0..width).collect();
        // Training reuses run outcomes purely as trace buffers, exactly
        // like the single-device loop — nothing reads them afterwards.
        let mut episode_buf: Vec<RunOutcome> = (0..width)
            .map(|_| RunOutcome {
                trace: crate::metrics::Trace::new(),
                presented_frames: 0,
                repeated_vsyncs: 0,
            })
            .collect();
        let mut spent_at_stop = vec![budget_s; width];
        let mut spent = 0.0;
        let mut episode = 0u64;
        while spent < budget_s && !lane_spec.is_empty() {
            // `train` checks convergence before every episode:
            // converged lanes leave the batch at exactly that boundary.
            let keep: Vec<bool> = lane_spec
                .iter()
                .map(|&si| !agents[si].is_converged())
                .collect();
            if keep.iter().any(|&k| !k) {
                for (slot, &k) in keep.iter().enumerate() {
                    if !k {
                        spent_at_stop[lane_spec[slot]] = spent;
                    }
                }
                batch.retain_lanes(&keep);
                let mut it = keep.iter();
                // qlint::allow(PN01, reason = "keep was sized to the lane count just above")
                lane_spec.retain(|_| *it.next().expect("flag per lane"));
                if lane_spec.is_empty() {
                    break;
                }
            }
            let chunk = episode_s.min(budget_s - spent);
            let mut sessions: Vec<SessionSim> = lane_spec
                .iter()
                .map(|&si| {
                    SessionSim::new(
                        SessionPlan::single(&specs[si].app, chunk),
                        specs[si].session_seed.wrapping_add(episode),
                    )
                })
                .collect();
            let mut lanes: Vec<BatchLane<'_>> = agents
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| lane_spec.binary_search(i).is_ok())
                .map(|(_, a)| a)
                .zip(sessions.iter_mut())
                .map(|(agent, session)| {
                    agent.start_session();
                    BatchLane {
                        governor: agent,
                        session,
                    }
                })
                .collect();
            let n_live = lanes.len();
            self.engine
                .run_lanes_into(&mut batch, &mut lanes, chunk, &mut episode_buf[..n_live]);
            spent += chunk;
            episode += 1;
        }
        // Lanes that ran out the budget stopped at the accumulated
        // `spent` (the same float `train` ends with).
        for &si in &lane_spec {
            spent_at_stop[si] = spent;
        }
        agents
            .into_iter()
            .zip(spent_at_stop)
            .map(|(mut agent, lane_spent)| {
                let converged = agent.is_converged();
                let training_time_s = agent.stats().converged_at_s.unwrap_or(lane_spent);
                agent.set_training(false);
                TrainOutcome {
                    agent,
                    training_time_s,
                    converged,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trainer_matches_seed_protocol_wrapper() {
        // The experiment-layer wrapper is a thin client of the trainer:
        // same spec, same table bytes.
        let direct = Trainer::new().train(TrainSpec::new("facebook", NextConfig::paper(), 3, 90.0));
        let wrapped =
            crate::experiment::train_next_for_app("facebook", NextConfig::paper(), 3, 90.0);
        assert_eq!(
            direct.agent.table().encode(),
            wrapped.agent.table().encode()
        );
        assert_eq!(direct.training_time_s, wrapped.training_time_s);
        assert_eq!(direct.converged, wrapped.converged);
    }

    #[test]
    fn warm_start_resumes_from_the_given_table() {
        let cold = Trainer::new().train(TrainSpec::new("spotify", NextConfig::paper(), 5, 60.0));
        let states_before = cold.agent.table().len();
        let visits_before = cold.agent.table().total_visits();
        assert!(states_before > 0);

        let warm = Trainer::new().train(
            TrainSpec::new("spotify", NextConfig::paper(), 6, 60.0)
                .with_warm_start(cold.agent.into_table()),
        );
        assert!(
            warm.agent.table().total_visits() > visits_before,
            "continued training must add visits"
        );
        assert!(warm.agent.table().len() >= states_before);
    }

    #[test]
    fn soc_bin_changes_the_learned_table() {
        let base = TrainSpec::new("facebook", NextConfig::paper(), 11, 60.0);
        let stock = Trainer::new().train(base.clone());
        let hot = Trainer::new().train(base.with_soc(SocConfig::exynos9810_at_ambient(35.0)));
        assert_ne!(
            stock.agent.table().encode(),
            hot.agent.table().encode(),
            "a hotter device must experience different transitions"
        );
    }

    #[test]
    fn episode_length_is_respected_deterministically() {
        let spec =
            |ep: f64| TrainSpec::new("home", NextConfig::paper(), 2, 50.0).with_episode_s(ep);
        let a = Trainer::new().train(spec(25.0));
        let b = Trainer::new().train(spec(25.0));
        assert_eq!(a.agent.table().encode(), b.agent.table().encode());
        // Different chunking changes session boundaries, hence the run.
        let c = Trainer::new().train(spec(10.0));
        assert_ne!(a.agent.table().encode(), c.agent.table().encode());
    }

    #[test]
    #[should_panic(expected = "episode length must be positive")]
    fn zero_episode_rejected() {
        let _ = TrainSpec::new("home", NextConfig::paper(), 1, 10.0).with_episode_s(0.0);
    }

    #[test]
    fn train_batch_is_bit_identical_to_sequential_training() {
        // Heterogeneous lanes: different apps, seeds, and SoC bins
        // (fleet shape) under one shared budget.
        let specs = vec![
            TrainSpec::new("facebook", NextConfig::paper(), 3, 90.0),
            TrainSpec::new("spotify", NextConfig::paper().with_seed(17), 5, 90.0),
            TrainSpec::new("facebook", NextConfig::paper(), 9, 90.0)
                .with_soc(SocConfig::exynos9810_at_ambient(27.0)),
        ];
        let trainer = Trainer::new();
        let sequential: Vec<TrainOutcome> =
            specs.iter().cloned().map(|s| trainer.train(s)).collect();
        let batched = trainer.train_batch(specs);
        assert_eq!(batched.len(), sequential.len());
        for (l, (b, s)) in batched.iter().zip(&sequential).enumerate() {
            assert_eq!(
                b.agent.table().encode(),
                s.agent.table().encode(),
                "lane {l} learned a different table"
            );
            assert_eq!(b.training_time_s, s.training_time_s, "lane {l}");
            assert_eq!(b.converged, s.converged, "lane {l}");
        }
    }

    #[test]
    fn train_batch_divergent_budgets_fall_back_and_still_match() {
        let specs = vec![
            TrainSpec::new("home", NextConfig::paper(), 2, 50.0),
            TrainSpec::new("home", NextConfig::paper(), 4, 30.0),
        ];
        let trainer = Trainer::new();
        let sequential: Vec<TrainOutcome> =
            specs.iter().cloned().map(|s| trainer.train(s)).collect();
        let batched = trainer.train_batch(specs);
        for (b, s) in batched.iter().zip(&sequential) {
            assert_eq!(b.agent.table().encode(), s.agent.table().encode());
            assert_eq!(b.training_time_s, s.training_time_s);
        }
    }
}
