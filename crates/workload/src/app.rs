//! Phase-based application demand model.
//!
//! An application is a continuous-time Markov chain over *phases*
//! (splash screen, scrolling, reading, gameplay, …). Each phase carries
//! a nominal [`FrameDemand`]; while the phase is active the demand is
//! modulated by the user's interaction intensity and a deterministic
//! seeded jitter, producing the irregular FPS traces of the paper's
//! Fig. 1.

use mpsoc::perf::FrameDemand;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::user::InteractionIntensity;

/// One behavioural phase of an application.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseModel {
    /// Human-readable phase name (e.g. `"scroll"`).
    pub name: String,
    /// Mean dwell time in the phase, seconds (exponential distribution).
    pub mean_dwell_s: f64,
    /// Nominal demand while in the phase.
    pub demand: FrameDemand,
    /// Relative amplitude of the multiplicative demand jitter (0 = no
    /// jitter; 0.3 = ±30 % swings).
    pub jitter: f64,
    /// How strongly user interaction scales the demand: 0 = insensitive
    /// (video playback), 1 = fully interaction-driven (scrolling).
    pub interaction_gain: f64,
}

impl PhaseModel {
    /// Creates a phase.
    #[must_use]
    pub fn new(name: &str, mean_dwell_s: f64, demand: FrameDemand) -> Self {
        PhaseModel {
            name: name.to_owned(),
            mean_dwell_s,
            demand,
            jitter: 0.2,
            interaction_gain: 0.5,
        }
    }

    /// Sets the jitter amplitude.
    #[must_use]
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.max(0.0);
        self
    }

    /// Sets the interaction gain.
    #[must_use]
    pub fn with_interaction_gain(mut self, gain: f64) -> Self {
        self.interaction_gain = gain.clamp(0.0, 1.0);
        self
    }
}

/// A static description of an application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppModel {
    name: String,
    phases: Vec<PhaseModel>,
    /// Row-stochastic phase transition matrix.
    transitions: Vec<Vec<f64>>,
    initial_phase: usize,
}

impl AppModel {
    /// Builds an application model.
    ///
    /// `transitions[i][j]` is the probability of entering phase `j` when
    /// phase `i` ends; each row must sum to ≈1.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent, a row does not sum to ~1, or
    /// `initial_phase` is out of range.
    #[must_use]
    pub fn new(
        name: &str,
        phases: Vec<PhaseModel>,
        transitions: Vec<Vec<f64>>,
        initial_phase: usize,
    ) -> Self {
        assert!(!phases.is_empty(), "app must have phases");
        assert_eq!(
            transitions.len(),
            phases.len(),
            "transition rows must match phase count"
        );
        for (i, row) in transitions.iter().enumerate() {
            assert_eq!(
                row.len(),
                phases.len(),
                "transition row {i} has wrong width"
            );
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "transition row {i} sums to {sum}, expected 1"
            );
            assert!(
                row.iter().all(|&p| p >= 0.0),
                "negative probability in row {i}"
            );
        }
        assert!(initial_phase < phases.len(), "initial phase out of range");
        AppModel {
            name: name.to_owned(),
            phases,
            transitions,
            initial_phase,
        }
    }

    /// The application's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The phases of the application.
    #[must_use]
    pub fn phases(&self) -> &[PhaseModel] {
        &self.phases
    }

    /// Index of the phase a fresh launch starts in.
    #[must_use]
    pub fn initial_phase(&self) -> usize {
        self.initial_phase
    }

    /// Starts a session of this application seeded deterministically.
    #[must_use]
    pub fn start_session(&self, seed: u64) -> AppSession {
        AppSession::new(self.clone(), seed)
    }
}

/// A running instance of an [`AppModel`] producing demand over time.
#[derive(Debug, Clone)]
pub struct AppSession {
    model: AppModel,
    rng: StdRng,
    phase: usize,
    phase_left_s: f64,
    /// Low-pass-filtered jitter state in `[-1, 1]`.
    jitter_state: f64,
}

impl AppSession {
    fn new(model: AppModel, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let phase = model.initial_phase;
        let dwell = sample_dwell(&mut rng, model.phases[phase].mean_dwell_s);
        AppSession {
            model,
            rng,
            phase,
            phase_left_s: dwell,
            jitter_state: 0.0,
        }
    }

    /// The application model this session runs.
    #[must_use]
    pub fn model(&self) -> &AppModel {
        &self.model
    }

    /// Index of the currently active phase.
    #[must_use]
    pub fn phase_index(&self) -> usize {
        self.phase
    }

    /// Advances the session by `dt_s` seconds under the given user
    /// interaction intensity and returns the demand for the interval.
    pub fn advance(&mut self, dt_s: f64, intensity: InteractionIntensity) -> FrameDemand {
        // Phase transitions.
        self.phase_left_s -= dt_s;
        while self.phase_left_s <= 0.0 {
            self.phase = self.next_phase();
            let dwell = sample_dwell(&mut self.rng, self.model.phases[self.phase].mean_dwell_s);
            self.phase_left_s += dwell;
        }
        let phase = &self.model.phases[self.phase];

        // AR(1) jitter keeps consecutive ticks correlated like real
        // frame-cost traces.
        let innovation: f64 = self.rng.gen_range(-1.0..=1.0);
        self.jitter_state = 0.9 * self.jitter_state + 0.1 * innovation;
        let jitter_mult = 1.0 + phase.jitter * self.jitter_state * 3.0;

        // Interaction scales demand between (1-g)·nominal at Idle and
        // (1+g/2)·nominal at Intense.
        let g = phase.interaction_gain;
        let interact_mult = match intensity {
            InteractionIntensity::Idle => 1.0 - g,
            InteractionIntensity::Light => 1.0 - 0.4 * g,
            InteractionIntensity::Active => 1.0,
            InteractionIntensity::Intense => 1.0 + 0.5 * g,
        };

        phase.demand.scaled((jitter_mult * interact_mult).max(0.0))
    }

    fn next_phase(&mut self) -> usize {
        let row = &self.model.transitions[self.phase];
        let draw: f64 = self.rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        for (j, &p) in row.iter().enumerate() {
            acc += p;
            if draw < acc {
                return j;
            }
        }
        row.len() - 1
    }
}

fn sample_dwell(rng: &mut StdRng, mean_s: f64) -> f64 {
    // Exponential dwell via inverse CDF, floored to one tick to make
    // progress even for tiny means.
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-mean_s * u.ln()).max(0.025)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc::perf::Channel;

    fn two_phase_app() -> AppModel {
        let busy = PhaseModel::new("busy", 2.0, FrameDemand::new(5.0e6, 2.0e6, 8.0e6));
        let idle = PhaseModel::new("idle", 2.0, FrameDemand::default())
            .with_interaction_gain(0.0)
            .with_jitter(0.0);
        AppModel::new(
            "test",
            vec![busy, idle],
            vec![vec![0.0, 1.0], vec![1.0, 0.0]],
            0,
        )
    }

    #[test]
    fn session_visits_both_phases() {
        let app = two_phase_app();
        let mut sess = app.start_session(7);
        let mut seen = [false, false];
        for _ in 0..4_000 {
            sess.advance(0.025, InteractionIntensity::Active);
            seen[sess.phase_index()] = true;
        }
        assert!(seen[0] && seen[1], "both phases should occur over 100 s");
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let app = two_phase_app();
        let mut a = app.start_session(42);
        let mut b = app.start_session(42);
        for _ in 0..1_000 {
            let da = a.advance(0.025, InteractionIntensity::Active);
            let db = b.advance(0.025, InteractionIntensity::Active);
            assert_eq!(da, db);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let app = two_phase_app();
        let mut a = app.start_session(1);
        let mut b = app.start_session(2);
        let mut differed = false;
        for _ in 0..1_000 {
            let da = a.advance(0.025, InteractionIntensity::Active);
            let db = b.advance(0.025, InteractionIntensity::Active);
            if da != db {
                differed = true;
            }
        }
        assert!(differed);
    }

    #[test]
    fn intensity_scales_interactive_demand() {
        let phase = PhaseModel::new("scroll", 1e9, FrameDemand::new(4.0e6, 2.0e6, 6.0e6))
            .with_jitter(0.0)
            .with_interaction_gain(1.0);
        let app = AppModel::new("x", vec![phase], vec![vec![1.0]], 0);
        let mut sess = app.start_session(3);
        let idle = sess.advance(0.025, InteractionIntensity::Idle);
        let intense = sess.advance(0.025, InteractionIntensity::Intense);
        assert!(
            idle.frame_cycles_of(Channel::BigCpu) < 1e-6,
            "gain 1 idles demand fully"
        );
        assert!(intense.frame_cycles_of(Channel::BigCpu) > 4.0e6);
    }

    #[test]
    fn zero_gain_phase_ignores_intensity() {
        let phase = PhaseModel::new("video", 1e9, FrameDemand::new(2.0e6, 1.0e6, 3.0e6))
            .with_jitter(0.0)
            .with_interaction_gain(0.0);
        let app = AppModel::new("x", vec![phase], vec![vec![1.0]], 0);
        let mut sess = app.start_session(3);
        let idle = sess.advance(0.025, InteractionIntensity::Idle);
        let intense = sess.advance(0.025, InteractionIntensity::Intense);
        assert_eq!(idle.frame_cycles, intense.frame_cycles);
    }

    #[test]
    fn jitter_stays_bounded() {
        let phase = PhaseModel::new("p", 1e9, FrameDemand::new(4.0e6, 2.0e6, 6.0e6))
            .with_jitter(0.3)
            .with_interaction_gain(0.0);
        let app = AppModel::new("x", vec![phase], vec![vec![1.0]], 0);
        let mut sess = app.start_session(11);
        for _ in 0..10_000 {
            let d = sess.advance(0.025, InteractionIntensity::Active);
            let c = d.frame_cycles_of(Channel::BigCpu);
            assert!(c >= 0.0 && c < 4.0e6 * 2.2, "jitter out of bounds: {c}");
        }
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn bad_transition_row_panics() {
        let p = PhaseModel::new("p", 1.0, FrameDemand::default());
        let _ = AppModel::new("x", vec![p], vec![vec![0.5]], 0);
    }

    #[test]
    #[should_panic(expected = "initial phase")]
    fn bad_initial_phase_panics() {
        let p = PhaseModel::new("p", 1.0, FrameDemand::default());
        let _ = AppModel::new("x", vec![p], vec![vec![1.0]], 5);
    }
}
