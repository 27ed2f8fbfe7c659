//! The Next agent: frame-window target extraction + Q-learning control
//! loop (§IV).
//!
//! Every 25 ms engine tick the agent records an FPS sample into its
//! [`FrameWindow`] (through [`Governor::observe`]); every 100 ms it is
//! invoked to act: it refreshes the target FPS from the window mode
//! (once per window length), encodes the observation, applies the
//! Eq. 3 Q-update for the previous transition with a PPDW-based reward,
//! picks the next of the 9 actions ε-greedily, and moves the
//! corresponding cluster's `maxfreq` cap.
//!
//! Training happens once per application: the agent tracks an
//! exponential moving average of its temporal-difference error and
//! declares convergence when the average settles, after which the
//! caller typically switches the agent to greedy inference
//! ([`NextAgent::set_training`]) and persists the table
//! ([`crate::store::QTableStore`]).

use governors::{ControlDecision, Governor};
use mpsoc::dvfs::DvfsController;
use mpsoc::platform::Platform;
use mpsoc::soc::SocState;
use qlearn::backend::{DenseStore, QStore};
use qlearn::policy::EpsilonGreedy;
use qlearn::qtable::{DenseQTable, QTable, StateKey};
use qlearn::QLearning;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::action::Action;
use crate::frame_window::FrameWindow;
use crate::ppdw::{ppdw, PpdwBounds};
use crate::state::StateEncoder;

/// Configuration of a [`NextAgent`].
#[derive(Debug, Clone, PartialEq)]
pub struct NextConfig {
    /// The platform the agent controls: its DVFS-domain list sizes the
    /// action space (`3m`) and the frequency digits of the state
    /// encoding.
    pub platform: Platform,
    /// FPS quantisation bins for the state encoding (paper: 30).
    pub fps_bins: usize,
    /// Frame-window capacity in samples (paper: 160 = 4 s of 25 ms).
    /// The window takes one sample per engine tick, through
    /// [`Governor::observe`].
    pub window_samples: usize,
    /// How often the target FPS is refreshed from the window mode,
    /// seconds (paper: once per 4 s frame window).
    pub target_refresh_s: f64,
    /// Downward hysteresis of the target: when the new window mode is
    /// *below* the current target, the target falls to at most
    /// `target_decay · target` per refresh instead of jumping straight
    /// down. The mode of the agent's own delivered FPS is
    /// self-referential — without damping, a transient dip can drag the
    /// target (and then the caps) into a death spiral. Raising is
    /// instant. 0.0 disables damping (the target follows the mode; the
    /// ablation case), and 1.0 damps fully (the target never falls).
    pub target_decay: f64,
    /// Q-learning rate α.
    pub alpha: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// Initial exploration rate during training.
    pub epsilon0: f64,
    /// Multiplicative ε decay per control step.
    pub epsilon_decay: f64,
    /// Exploration floor during training.
    pub epsilon_min: f64,
    /// PPDW normalisation envelope (Eq. 2).
    pub bounds: PpdwBounds,
    /// Ambient temperature used in PPDW, °C.
    pub ambient_c: f64,
    /// Weight of the target-FPS attainment term in the reward, next to
    /// the PPDW term's weight of 1 (0 reduces the reward to pure PPDW —
    /// the ablation case).
    pub fps_weight: f64,
    /// Weight of the cap-headroom shaping term: a small penalty on the
    /// summed `maxfreq` cap levels. Without it the reward is flat while
    /// a cap sits above the frequencies the kernel actually uses, so
    /// the learner has no gradient towards tighter caps until a cap
    /// happens to bind. Set 0 to disable (ablation).
    pub headroom_weight: f64,
    /// QoS guard: when the delivered FPS stays below `0.7 · target` for
    /// `qos_guard_s` seconds (and the target is a real QoS demand,
    /// ≥ 15 FPS), every `maxfreq` cap is re-opened and learning resumes
    /// from full service. This is the watchdog that breaks the
    /// coordinated-caps local optimum: from a deep cap configuration,
    /// restoring QoS needs several *joint* up moves through a
    /// reward-flat region that a myopic learner cannot cross on its
    /// own. Set `qos_guard_s` to infinity to disable (ablation).
    pub qos_guard_s: f64,
    /// RNG seed for exploration.
    pub seed: u64,
}

impl NextConfig {
    /// The paper's configuration: 30 FPS bins, 4 s window of 25 ms
    /// samples, 100 ms control period, 21 °C ambient.
    #[must_use]
    pub fn paper() -> Self {
        NextConfig {
            platform: Platform::exynos9810(),
            fps_bins: 30,
            window_samples: 160,
            target_refresh_s: 4.0,
            target_decay: 0.7,
            alpha: 0.25,
            gamma: 0.5,
            epsilon0: 0.5,
            epsilon_decay: 0.998,
            epsilon_min: 0.05,
            bounds: PpdwBounds::exynos9810(),
            ambient_c: mpsoc::DEFAULT_AMBIENT_C,
            fps_weight: 2.0,
            headroom_weight: 0.4,
            qos_guard_s: 3.0,
            seed: 0x5eed,
        }
    }

    /// The paper's hyper-parameters applied to a different platform:
    /// the action space and state encoding follow the platform's
    /// DVFS-domain list.
    #[must_use]
    pub fn paper_on(platform: Platform) -> Self {
        NextConfig {
            platform,
            ..NextConfig::paper()
        }
    }

    /// Same as [`NextConfig::paper`] with a different FPS bin count
    /// (the Fig. 6 sweep).
    #[must_use]
    pub fn with_fps_bins(mut self, bins: usize) -> Self {
        self.fps_bins = bins;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disables the target-FPS reward term (pure-PPDW ablation).
    #[must_use]
    pub fn pure_ppdw(mut self) -> Self {
        self.fps_weight = 0.0;
        self
    }
}

impl Default for NextConfig {
    fn default() -> Self {
        NextConfig::paper()
    }
}

/// Counters describing training progress.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TrainingStats {
    /// Q-updates applied so far.
    pub updates: u64,
    /// Simulated control time accumulated, seconds.
    pub sim_time_s: f64,
    /// Current TD-error EMA (relative).
    pub td_ema: f64,
    /// Simulated time at which convergence was declared, if yet.
    pub converged_at_s: Option<f64>,
    /// Cumulative reward collected.
    pub total_reward: f64,
}

/// The Next agent.
///
/// The Q-table is generic over the [`QStore`] backend. The default is
/// the dense-indexed arena: the control loop's argmax and update cost
/// one row-index probe and touch one contiguous row per invocation,
/// instead of probing once per action, and the index grows with the
/// states visited, not with the encoder's state space. The campaign
/// runner instead drives agents over [`qlearn::OverlayStore`] tables so
/// a warm start shares the round's merged global by `Arc` instead of
/// cloning it.
#[derive(Debug, Clone)]
pub struct NextAgent<S: QStore = DenseStore> {
    config: NextConfig,
    encoder: StateEncoder,
    /// The platform's DVFS-domain count (`m`).
    n_domains: usize,
    /// Sum of the platform's top cap levels — normalises the headroom
    /// shaping term.
    headroom_norm: f64,
    window: FrameWindow,
    table: QTable<S>,
    learner: QLearning,
    policy: EpsilonGreedy,
    rng: StdRng,
    target_fps: f64,
    since_target_refresh_s: f64,
    prev: Option<(StateKey, usize)>,
    training: bool,
    below_tol_streak: u32,
    /// EMA of the rate at which brand-new states are being discovered;
    /// convergence requires this to die out.
    explore_ema: f64,
    /// Consecutive control steps spent in deep undershoot (QoS guard).
    guard_steps: u32,
    /// Running mean reward, used to scale prior initialisation.
    reward_ema: f64,
    /// Action/reward of the most recent control step, exposed to the
    /// trace recorder (None after a QoS-guard pop or session start).
    last_decision: Option<ControlDecision>,
    stats: TrainingStats,
}

impl NextAgent {
    /// Creates an untrained agent (training mode on, empty table with
    /// neutral initial Q-values) on the default dense backend.
    #[must_use]
    pub fn new(config: NextConfig) -> Self {
        let table = DenseQTable::with_default_q(config.platform.action_count(), Self::OPTIMISTIC_Q);
        NextAgent::with_table(config, table, true)
    }
}

impl<S: QStore> NextAgent<S> {
    /// Creates an agent from a previously-trained table. `training`
    /// selects between continued learning and greedy inference. The
    /// table's row index is keyed by state and bounded by nothing but
    /// the rows it holds, so a table learned under another encoding
    /// (e.g. coarser FPS bins) keeps learning here unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the table's action count does not match the platform,
    /// or with the encoder's error, as "invalid NextConfig: …", if the
    /// configuration yields no state encoding (`fps_bins` is 0).
    #[must_use]
    pub fn with_table(config: NextConfig, table: QTable<S>, training: bool) -> Self {
        let encoder = StateEncoder::for_platform(&config.platform, config.fps_bins)
            // qlint::allow(PN01, reason = "a zero fps_bins is the one encoder error a preset platform leaves; the panic names it and is documented under # Panics")
            .unwrap_or_else(|e| panic!("invalid NextConfig: {e}"));
        NextAgent::from_parts(config, encoder, table, training)
    }

    /// Fraction of `epsilon0` a warm-started agent explores with: the
    /// fleet table already encodes the fleet's experience, so local
    /// rounds refine it instead of re-exploring from scratch.
    pub const WARM_START_EPSILON_SCALE: f64 = 0.3;

    /// Control period, seconds (paper: Next is invoked every 100 ms).
    const CONTROL_PERIOD_S: f64 = 0.1;
    /// Weight of the PPDW term in the reward.
    const PPDW_WEIGHT: f64 = 1.0;
    /// Initial Q-value for unvisited state-action pairs: neutral, since
    /// the agent already explores untried actions first (directed
    /// exploration).
    const OPTIMISTIC_Q: f64 = 0.0;
    /// Undershoot ratio that arms the QoS guard (see
    /// [`NextConfig::qos_guard_s`]).
    const QOS_GUARD_RATIO: f64 = 0.7;
    /// Convergence: TD-error EMA threshold (relative).
    const TD_TOLERANCE: f64 = 0.10;
    /// Convergence: consecutive below-threshold updates required.
    const CONVERGENCE_UPDATES: u32 = 100;
    /// Minimum updates before convergence may be declared.
    const MIN_UPDATES: u64 = 400;

    /// Creates a **training** agent warm-started from a previously
    /// learned table — the §IV-C device-side hook: the cloud pushes the
    /// merged fleet table down and the device continues learning from
    /// it. Unlike a fresh agent, exploration restarts at
    /// [`NextAgent::WARM_START_EPSILON_SCALE`]`·epsilon0` (floored at
    /// `epsilon_min`), while convergence tracking starts clean so a
    /// fleet round re-converges on its own evidence.
    ///
    /// # Panics
    ///
    /// Panics if the table's action count does not match the platform or
    /// the configuration is invalid.
    #[must_use]
    pub fn warm_start(config: NextConfig, table: QTable<S>) -> Self {
        let eps = (config.epsilon0 * Self::WARM_START_EPSILON_SCALE).max(config.epsilon_min);
        let mut agent = NextAgent::with_table(config, table, true);
        agent.policy.reset_epsilon(eps);
        agent
    }

    /// The exploration rate currently in effect (0 in greedy mode).
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.policy.epsilon()
    }

    fn from_parts(
        config: NextConfig,
        encoder: StateEncoder,
        table: QTable<S>,
        training: bool,
    ) -> Self {
        assert_eq!(
            table.n_actions(),
            config.platform.action_count(),
            "table action count mismatch"
        );
        let policy = if training {
            EpsilonGreedy::new(config.epsilon0, config.epsilon_decay, config.epsilon_min)
        } else {
            EpsilonGreedy::greedy()
        };
        // A platform of single-level ladders has zero steppable cap
        // range; floor at 1 so the (always-zero) headroom term divides
        // cleanly instead of poisoning the reward with NaN.
        let headroom_norm = config.platform.cap_level_sum().max(1) as f64;
        NextAgent {
            encoder,
            n_domains: config.platform.n_domains(),
            headroom_norm,
            window: FrameWindow::new(config.window_samples),
            table,
            learner: QLearning::new(config.alpha, config.gamma),
            policy,
            rng: StdRng::seed_from_u64(config.seed),
            target_fps: 0.0,
            since_target_refresh_s: f64::INFINITY, // refresh at first chance
            prev: None,
            training,
            below_tol_streak: 0,
            explore_ema: 1.0,
            guard_steps: 0,
            reward_ema: 2.0,
            last_decision: None,
            stats: TrainingStats::default(),
            config,
        }
    }

    /// The agent's configuration.
    #[must_use]
    pub fn config(&self) -> &NextConfig {
        &self.config
    }

    /// Whether the agent is learning (vs. greedy inference).
    #[must_use]
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Switches between training and greedy inference.
    pub fn set_training(&mut self, training: bool) {
        if training == self.training {
            return;
        }
        self.training = training;
        self.policy = if training {
            EpsilonGreedy::new(
                self.config.epsilon0,
                self.config.epsilon_decay,
                self.config.epsilon_min,
            )
        } else {
            EpsilonGreedy::greedy()
        };
        self.prev = None;
    }

    /// The current target FPS derived from the frame window's mode.
    #[must_use]
    pub fn target_fps(&self) -> f64 {
        self.target_fps
    }

    /// Training progress counters.
    #[must_use]
    pub fn stats(&self) -> TrainingStats {
        self.stats
    }

    /// Whether the TD-error EMA has settled (§IV-B's "fully trained").
    #[must_use]
    pub fn is_converged(&self) -> bool {
        self.stats.converged_at_s.is_some()
    }

    /// Read access to the learned Q-table (persist via
    /// [`crate::store::QTableStore`]).
    #[must_use]
    pub fn table(&self) -> &QTable<S> {
        &self.table
    }

    /// Consumes the agent, returning the learned table.
    #[must_use]
    pub fn into_table(self) -> QTable<S> {
        self.table
    }

    /// Records one 25 ms FPS sample into the frame window.
    pub fn observe_frame_sample(&mut self, fps: f64) {
        self.window.push(fps);
    }

    /// Clears session-local state (frame window, pending transition) as
    /// on an app switch; the learned table is retained.
    pub fn start_session(&mut self) {
        self.window.clear();
        self.prev = None;
        self.last_decision = None;
        self.target_fps = 0.0;
        self.since_target_refresh_s = f64::INFINITY;
    }

    /// The reward function: normalised PPDW plus target-FPS attainment.
    ///
    /// `R(s, a) = w_p · PPDW_norm + w_f · (1 − miss / 60)`, where
    /// `miss = (Target − FPS)⁺ + ½·(FPS − Target)⁺`.
    ///
    /// Undershooting the user-derived target costs full weight (QoS is
    /// sacred); overshooting costs half weight (rendering frames the
    /// interaction pattern does not ask for wastes power, which the PPDW
    /// term also punishes through its denominator). The agent therefore
    /// maximises PPDW *subject to* tracking the target, the §IV-B
    /// objective (`FPS_current = Target FPS` with the best PPDW).
    #[must_use]
    pub fn reward(&self, state: &SocState) -> f64 {
        // FPS is floored at the envelope's FPS_least (Eq. 2 uses 1 FPS
        // as the least frame rate): a frameless interval — music
        // playing on a static screen — must still reward drawing less
        // power and running cooler, otherwise the agent has no gradient
        // during exactly the sessions the paper showcases (Spotify).
        let fps_floored = state.fps.max(self.config.bounds.fps_least);
        let raw = ppdw(
            fps_floored,
            state.power_w,
            state.temp_hot_c,
            self.config.ambient_c,
        );
        let ppdw_term = self.config.bounds.soft_normalize(raw);
        let undershoot = (self.target_fps - state.fps).max(0.0);
        let overshoot = (state.fps - self.target_fps).max(0.0);
        let miss = (undershoot + 0.5 * overshoot) / 60.0;
        // Attainment is worth more at higher targets: meeting a 60 FPS
        // demand earns the full term, meeting a 15 FPS demand a quarter
        // of it. Without this, the agent can *create* an easy target by
        // under-serving (the mode follows delivered FPS) and then be
        // fully rewarded for meeting it.
        let demand_scale = (self.target_fps / 60.0).clamp(0.0, 1.0);
        let fps_term = (1.0 - miss.min(1.0)) * demand_scale;
        // Headroom shaping: unused cap range is latent boost power,
        // normalised by the platform's summed top cap levels
        // (17 + 9 + 5 = 31 on the Exynos 9810).
        let cap_sum: usize = state.max_cap_level.iter().sum();
        let headroom_term = cap_sum as f64 / self.headroom_norm;
        Self::PPDW_WEIGHT * ppdw_term + self.config.fps_weight * fps_term
            - self.config.headroom_weight * headroom_term
    }

    fn refresh_target(&mut self) {
        self.since_target_refresh_s += Self::CONTROL_PERIOD_S;
        if self.since_target_refresh_s >= self.config.target_refresh_s {
            if let Some(mode) = self.window.mode() {
                let mode = f64::from(mode);
                self.target_fps = if mode >= self.target_fps {
                    mode
                } else {
                    // Damped descent (see NextConfig::target_decay).
                    mode.max(self.config.target_decay * self.target_fps)
                };
                self.since_target_refresh_s = 0.0;
            }
        }
    }

    /// Heuristic action preference used to *initialise* the Q-values of
    /// a newly encountered state (and as the fallback policy for states
    /// never seen during training).
    ///
    /// It is a proportional base controller over the observable error:
    /// when undershooting the target, raising a busy cluster's cap is
    /// preferred; otherwise shedding slack (cap far above the used
    /// frequency, or a mostly idle cluster) is preferred; holding earns
    /// a small default preference. Q-learning then *refines* these
    /// priors with real returns — the priors only decide what gets
    /// tried first, which is what makes tabular learning converge
    /// within the paper's minutes-long training budget.
    fn prior_bias(action: Action, state: &SocState, target_fps: f64) -> f64 {
        use crate::action::Direction;
        let i = action.domain.index();
        let util = state.util[i];
        let slack = state.max_cap_level[i] as f64 - state.freq_level[i] as f64;
        let undershooting = state.fps < target_fps - 2.0;
        match action.direction {
            Direction::Up => {
                if undershooting && util > 0.6 {
                    0.12
                } else {
                    -0.12
                }
            }
            Direction::Down => {
                if undershooting && util > 0.6 {
                    -0.12
                } else if slack > 1.0 || util < 0.5 {
                    0.12
                } else {
                    -0.04
                }
            }
            Direction::Hold => 0.05,
        }
    }

    /// Seeds the Q-values of a state on first encounter: every action
    /// starts at `(1 + bias) · V̂`, where `V̂` is the running value-scale
    /// estimate. Consistent-scale initialisation keeps the first real
    /// TD errors small, so convergence tracking measures learning, not
    /// initialisation shock.
    fn ensure_state_initialized(&mut self, key: StateKey, state: &SocState) -> bool {
        if self.table.contains(key) {
            return false;
        }
        let v_hat = self.value_scale();
        for action in Action::all(self.n_domains) {
            let bias = Self::prior_bias(action, state, self.target_fps);
            self.table.set(key, action.index(), v_hat * (1.0 + bias));
        }
        true
    }

    /// Running estimate of the value scale `r̄ / (1 − γ)`.
    fn value_scale(&self) -> f64 {
        (self.reward_ema / (1.0 - self.learner.gamma())).max(0.5)
    }

    /// One 100 ms control invocation: learn from the previous
    /// transition, choose the next action and apply it to the DVFS caps.
    pub fn step(&mut self, state: &SocState, dvfs: &mut DvfsController) {
        self.refresh_target();

        // QoS guard (see NextConfig::qos_guard_s). A frameless interval
        // (fps < 1) is not cap starvation — loading screens and music
        // playback render nothing no matter the frequency — so it never
        // arms the guard.
        if self.target_fps >= 15.0
            && state.fps >= 1.0
            && state.fps < Self::QOS_GUARD_RATIO * self.target_fps
        {
            self.guard_steps += 1;
        } else {
            self.guard_steps = 0;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let guard_limit = (self.config.qos_guard_s / Self::CONTROL_PERIOD_S)
            .round()
            .max(1.0) as u32;
        if self.guard_steps >= guard_limit {
            dvfs.reset_caps();
            self.guard_steps = 0;
            // The pop is an external intervention: do not credit the
            // previous action with its outcome, and skip this period's
            // action (the observed state no longer matches the caps).
            self.prev = None;
            self.last_decision = None;
            self.stats.sim_time_s += Self::CONTROL_PERIOD_S;
            return;
        }

        let key = self.encoder.encode(state, self.target_fps);
        let reward = self.reward(state);
        self.stats.total_reward += reward;
        self.reward_ema = 0.98 * self.reward_ema + 0.02 * reward;

        let action_idx = if self.training {
            let fresh = self.ensure_state_initialized(key, state);
            self.explore_ema = 0.98 * self.explore_ema + if fresh { 0.02 } else { 0.0 };
            if let Some((ps, pa)) = self.prev {
                // Robbins-Monro style visit-adaptive learning rate:
                // well-visited pairs average over more experience, so
                // their estimates (and the TD noise) settle.
                let visits = self.table.visits(ps, pa) as f64;
                let alpha = (self.config.alpha / (1.0 + 0.05 * visits)).max(0.02);
                let q_before = self.table.q(ps, pa);
                let td = reward + self.learner.gamma() * self.table.max_q(key) - q_before;
                self.learner
                    .update_with_alpha(&mut self.table, ps, pa, reward, key, alpha);
                self.track_convergence(td, q_before);
            }
            let a = self.policy.choose(&mut self.rng, &self.table, key);
            self.policy.step();
            a
        } else if self.table.contains(key) {
            self.policy.choose(&mut self.rng, &self.table, key)
        } else {
            // State never met during training: fall back to the
            // heuristic base controller (argmax of the priors).
            Action::all(self.n_domains)
                .map(|a| (a, Self::prior_bias(a, state, self.target_fps)))
                .max_by(|x, y| x.1.total_cmp(&y.1))
                .map(|(a, _)| a.index())
                // qlint::allow(PN01, reason = "Action::all always yields at least the no-op action")
                .expect("action set non-empty")
        };
        Action::from_index(action_idx, self.n_domains).apply(dvfs);
        self.prev = Some((key, action_idx));
        #[allow(clippy::cast_possible_truncation)]
        {
            self.last_decision = Some(ControlDecision {
                action: action_idx as u16,
                reward,
            });
        }
        self.stats.sim_time_s += Self::CONTROL_PERIOD_S;
    }

    fn track_convergence(&mut self, td: f64, q_before: f64) {
        self.stats.updates += 1;
        let rel = td.abs() / (q_before.abs() + 1.0);
        let beta = 0.01;
        self.stats.td_ema = (1.0 - beta) * self.stats.td_ema + beta * rel;
        if self.stats.updates >= Self::MIN_UPDATES
            && self.stats.td_ema < Self::TD_TOLERANCE
            && self.explore_ema < 0.05
        {
            self.below_tol_streak += 1;
            if self.below_tol_streak >= Self::CONVERGENCE_UPDATES
                && self.stats.converged_at_s.is_none()
            {
                self.stats.converged_at_s = Some(self.stats.sim_time_s);
            }
        } else {
            self.below_tol_streak = 0;
        }
    }
}

impl<S: QStore> Governor for NextAgent<S> {
    fn name(&self) -> &str {
        "next"
    }

    /// The agent's table and encoder are shaped by its configured
    /// platform; driving a structurally different device would silently
    /// corrupt the key space, so binding asserts compatibility.
    fn bind(&mut self, platform: &Platform) {
        assert_eq!(
            platform.freq_levels(),
            self.config.platform.freq_levels(),
            "NextAgent configured for '{}' cannot drive platform '{}'",
            self.config.platform.name(),
            platform.name()
        );
    }

    fn period_s(&self) -> f64 {
        Self::CONTROL_PERIOD_S
    }

    fn control(&mut self, state: &SocState, dvfs: &mut DvfsController) {
        self.step(state, dvfs);
    }

    fn observe(&mut self, state: &SocState) {
        self.observe_frame_sample(state.fps);
    }

    fn reset(&mut self) {
        self.start_session();
    }

    fn last_decision(&self) -> Option<ControlDecision> {
        self.last_decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc::perf::FrameDemand;
    use mpsoc::platform::PerDomain;
    use mpsoc::soc::{Soc, SocConfig};

    fn run_loop(agent: &mut NextAgent, soc: &mut Soc, demand: &FrameDemand, seconds: f64) -> f64 {
        let ticks = (seconds / 0.025) as usize;
        let mut power = 0.0;
        for t in 0..ticks {
            let out = soc.tick(0.025, demand);
            agent.observe_frame_sample(out.fps);
            power += out.power_w;
            if (t + 1) % 4 == 0 {
                let s = soc.state();
                agent.step(&s, soc.dvfs_mut());
            }
        }
        power / ticks as f64
    }

    fn ui_demand() -> FrameDemand {
        FrameDemand::new(4.0e6, 2.0e6, 5.0e6).with_background(0.1e9, 0.05e9, 0.0)
    }

    #[test]
    fn target_follows_window_mode() {
        let mut agent = NextAgent::new(NextConfig::paper());
        for _ in 0..160 {
            agent.observe_frame_sample(42.0);
        }
        let mut soc = Soc::new(SocConfig::exynos9810());
        let s = soc.state();
        agent.step(&s, soc.dvfs_mut());
        assert_eq!(agent.target_fps(), 42.0);
    }

    #[test]
    fn target_refresh_respects_window_period() {
        let mut agent = NextAgent::new(NextConfig::paper());
        for _ in 0..160 {
            agent.observe_frame_sample(42.0);
        }
        let mut soc = Soc::new(SocConfig::exynos9810());
        let s = soc.state();
        agent.step(&s, soc.dvfs_mut());
        assert_eq!(agent.target_fps(), 42.0);
        // New samples immediately: target must NOT change until 4 s of
        // control steps have elapsed.
        for _ in 0..160 {
            agent.observe_frame_sample(10.0);
        }
        for _ in 0..39 {
            let s = soc.state();
            agent.step(&s, soc.dvfs_mut());
        }
        assert_eq!(agent.target_fps(), 42.0, "target refreshed too early");
        let s = soc.state();
        agent.step(&s, soc.dvfs_mut());
        // Downward moves are damped: one refresh drops at most to
        // target_decay · 42.
        let expect = 0.7 * 42.0;
        assert!(
            (agent.target_fps() - expect).abs() < 1e-9,
            "damped refresh expected {expect}, got {}",
            agent.target_fps()
        );
        // Raising is instant.
        for _ in 0..160 {
            agent.observe_frame_sample(55.0);
        }
        for _ in 0..40 {
            let s = soc.state();
            agent.step(&s, soc.dvfs_mut());
        }
        assert_eq!(agent.target_fps(), 55.0, "upward refresh is undamped");
    }

    #[test]
    fn reward_prefers_meeting_target_efficiently() {
        let mut agent = NextAgent::new(NextConfig::paper());
        agent.target_fps = 60.0;
        let mk = |fps: f64, p: f64, t: f64| SocState {
            time_s: 0.0,
            freq_khz: PerDomain::new(3),
            freq_level: PerDomain::new(3),
            max_cap_level: PerDomain::new(3),
            fps,
            power_w: p,
            temp_domain_c: PerDomain::from_fn(3, |_| t),
            temp_hot_c: t,
            temp_device_c: t - 5.0,
            temp_battery_c: t - 5.0,
            util: PerDomain::from_fn(3, |_| 0.5),
        };
        let on_target_cheap = agent.reward(&mk(60.0, 2.0, 35.0));
        let on_target_hot = agent.reward(&mk(60.0, 8.0, 70.0));
        let off_target = agent.reward(&mk(10.0, 2.0, 35.0));
        assert!(
            on_target_cheap > on_target_hot,
            "cooler/cheaper must score higher"
        );
        assert!(
            on_target_cheap > off_target,
            "missing the target must cost reward"
        );
    }

    #[test]
    fn pure_ppdw_ablation_ignores_target() {
        let mut agent = NextAgent::new(NextConfig::paper().pure_ppdw());
        agent.target_fps = 60.0;
        let mk = |fps: f64| SocState {
            time_s: 0.0,
            freq_khz: PerDomain::new(3),
            freq_level: PerDomain::new(3),
            max_cap_level: PerDomain::new(3),
            fps,
            power_w: 3.0,
            temp_domain_c: PerDomain::from_fn(3, |_| 43.0),
            temp_hot_c: 45.0,
            temp_device_c: 38.0,
            temp_battery_c: 37.0,
            util: PerDomain::from_fn(3, |_| 0.5),
        };
        // With the same power/temperature inputs, reward grows with fps
        // (the PPDW numerator) and ignores the distance to target.
        let r30 = agent.reward(&mk(30.0));
        let r60 = agent.reward(&mk(60.0));
        assert!(
            r60 > r30,
            "higher FPS at equal power/temp must raise pure-PPDW reward"
        );
    }

    #[test]
    fn training_updates_table_and_accumulates_stats() {
        let mut agent = NextAgent::new(NextConfig::paper());
        let mut soc = Soc::new(SocConfig::exynos9810());
        run_loop(&mut agent, &mut soc, &ui_demand(), 20.0);
        let stats = agent.stats();
        assert!(stats.updates > 150, "updates {}", stats.updates);
        assert!(!agent.table().is_empty());
        assert!(stats.sim_time_s > 19.0);
    }

    #[test]
    fn inference_mode_never_updates_table() {
        let mut trained = NextAgent::new(NextConfig::paper());
        let mut soc = Soc::new(SocConfig::exynos9810());
        run_loop(&mut trained, &mut soc, &ui_demand(), 10.0);
        let table = trained.into_table();
        let before = table.total_visits();

        let mut agent = NextAgent::with_table(NextConfig::paper(), table, false);
        let mut soc2 = Soc::new(SocConfig::exynos9810());
        run_loop(&mut agent, &mut soc2, &ui_demand(), 10.0);
        assert_eq!(agent.stats().updates, 0);
        assert_eq!(
            agent.table().total_visits(),
            before,
            "greedy mode must not learn"
        );
    }

    #[test]
    fn agent_moves_caps() {
        let mut agent = NextAgent::new(NextConfig::paper());
        let mut soc = Soc::new(SocConfig::exynos9810());
        run_loop(&mut agent, &mut soc, &ui_demand(), 30.0);
        let dvfs = soc.dvfs();
        let caps: Vec<usize> = dvfs.ids().map(|c| dvfs.domain(c).max_cap_level()).collect();
        let tops: Vec<usize> = dvfs
            .ids()
            .map(|c| dvfs.domain(c).table().len() - 1)
            .collect();
        assert_ne!(
            caps, tops,
            "after 30 s of light UI the agent should have lowered some cap"
        );
    }

    #[test]
    fn trained_agent_saves_power_vs_schedutil_on_light_ui() {
        // Train on the light UI workload, then compare steady power.
        let mut agent = NextAgent::new(NextConfig::paper());
        let mut soc = Soc::new(SocConfig::exynos9810());
        run_loop(&mut agent, &mut soc, &ui_demand(), 120.0);
        agent.set_training(false);
        let mut soc_next = Soc::new(SocConfig::exynos9810());
        let p_next = run_loop(&mut agent, &mut soc_next, &ui_demand(), 30.0);

        let mut soc_sched = Soc::new(SocConfig::exynos9810());
        let mut p_sched = 0.0;
        let ticks = (30.0 / 0.025) as usize;
        for _ in 0..ticks {
            p_sched += soc_sched.tick(0.025, &ui_demand()).power_w;
        }
        p_sched /= ticks as f64;
        assert!(
            p_next <= p_sched * 1.05,
            "trained Next ({p_next} W) should not exceed schedutil ({p_sched} W)"
        );
    }

    #[test]
    fn start_session_clears_window_but_keeps_table() {
        let mut agent = NextAgent::new(NextConfig::paper());
        let mut soc = Soc::new(SocConfig::exynos9810());
        run_loop(&mut agent, &mut soc, &ui_demand(), 10.0);
        let states = agent.table().len();
        assert!(states > 0);
        agent.start_session();
        assert_eq!(agent.target_fps(), 0.0);
        assert_eq!(agent.table().len(), states);
    }

    #[test]
    fn deterministic_under_seed() {
        let mk = || {
            let mut agent = NextAgent::new(NextConfig::paper().with_seed(11));
            let mut soc = Soc::new(SocConfig::exynos9810());
            run_loop(&mut agent, &mut soc, &ui_demand(), 10.0);
            qlearn::encode_table(agent.table())
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn warm_start_across_fps_bin_configs_does_not_outgrow_the_index() {
        // Train at 2 FPS bins (a 622,080-state space), then keep
        // learning under the paper's 30-bin config, whose keys run up to
        // 139,968,000: the one row index takes both key ranges, and the
        // coarse rows survive.
        let mut coarse = NextAgent::new(NextConfig::paper().with_fps_bins(2));
        let mut soc = Soc::new(SocConfig::exynos9810());
        run_loop(&mut coarse, &mut soc, &ui_demand(), 10.0);
        let table = coarse.into_table();
        let states = table.len();
        assert!(states > 0);

        let mut warm = NextAgent::with_table(NextConfig::paper(), table, true);
        let mut soc2 = Soc::new(SocConfig::exynos9810());
        run_loop(&mut warm, &mut soc2, &ui_demand(), 10.0);
        assert!(warm.stats().updates > 0);
        assert!(
            warm.table().len() >= states,
            "rows must survive the warm start"
        );
    }

    #[test]
    #[should_panic(expected = "action count mismatch")]
    fn wrong_table_arity_panics() {
        let _ = NextAgent::with_table(NextConfig::paper(), DenseQTable::new(4), true);
    }

    #[test]
    #[should_panic(expected = "FPS quantiser needs at least one bin")]
    fn zero_fps_bins_panics_with_the_encoder_error() {
        let _ = NextAgent::new(NextConfig::paper().with_fps_bins(0));
    }

    #[test]
    fn warm_start_trains_with_reduced_exploration() {
        let mut donor = NextAgent::new(NextConfig::paper());
        let mut soc = Soc::new(SocConfig::exynos9810());
        run_loop(&mut donor, &mut soc, &ui_demand(), 10.0);
        let table = donor.into_table();
        let states = table.len();

        let config = NextConfig::paper();
        let warm = NextAgent::warm_start(config.clone(), table);
        assert!(warm.is_training(), "warm start must keep learning");
        assert!(
            warm.epsilon() < config.epsilon0,
            "warm start explores less than a cold start: {} vs {}",
            warm.epsilon(),
            config.epsilon0
        );
        assert!(warm.epsilon() >= config.epsilon_min);
        assert_eq!(warm.stats(), TrainingStats::default(), "fresh telemetry");
        assert_eq!(warm.table().len(), states, "fleet knowledge retained");

        // And it keeps learning: updates accumulate on the warm table.
        let mut warm = warm;
        let mut soc2 = Soc::new(SocConfig::exynos9810());
        run_loop(&mut warm, &mut soc2, &ui_demand(), 10.0);
        assert!(warm.stats().updates > 0);
    }
}
