//! Day-scale usage scenarios: personas and pickup schedules.
//!
//! The paper's premise (§I) is *day-level* behaviour: an average user
//! picks the phone up 52 times a day, with Deloitte-distributed session
//! lengths, and the agent reuses one stored Q-table per application
//! across all of those sessions (§IV-B). This module generates that
//! day synthetically:
//!
//! * a [`Persona`] is an app-choice Markov chain over the preset app
//!   catalog — a `gamer` chains game sessions with YouTube breaks, a
//!   `commuter` alternates Spotify and the browser, …
//! * a [`DayPlan`] is a concrete seeded schedule for one waking day:
//!   an alternating sequence of screen-off gaps and app sessions whose
//!   durations sum *exactly* to the configured day length, so a day
//!   runner that honours the plan accounts for every simulated second.
//!
//! Plans are pure functions of `(persona, config, seed)` — the
//! campaign's determinism contract extended to the day horizon.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::apps;
use crate::user::{SessionLengthStats, UserModel};

/// SplitMix64 — derives independent, well-mixed seed streams from one
/// master seed. The day generator's RNG streams and the campaign's
/// device roster (`simkit::campaign::device_profiles`) both split their
/// seeds through this one function, so the two layers cannot drift
/// apart.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A user archetype: which apps they reach for, and how one session's
/// app biases the next (people chain related activities — a game ends
/// in a YouTube clip of the same game, a feed scroll leads to the
/// browser).
#[derive(Debug, Clone, PartialEq)]
pub struct Persona {
    name: String,
    apps: Vec<String>,
    /// Row-stochastic matrix: `transitions[i][j]` is the probability
    /// the session after an `apps[i]` session opens `apps[j]`.
    transitions: Vec<Vec<f64>>,
    /// Index of the day's first app.
    first: usize,
    /// Session-length statistics of this archetype.
    stats: SessionLengthStats,
}

impl Persona {
    /// Builds a persona over `apps` with the given first-app index and
    /// transition matrix, on the stock Deloitte session statistics.
    ///
    /// # Panics
    ///
    /// Panics when an app does not resolve via [`apps::by_name`], the
    /// matrix shape does not match the app list, a row does not sum to
    /// ≈1, or `first` is out of range.
    #[must_use]
    pub fn new(name: &str, app_names: &[&str], transitions: Vec<Vec<f64>>, first: usize) -> Self {
        assert!(!app_names.is_empty(), "persona needs at least one app");
        for app in app_names {
            assert!(
                apps::by_name(app).is_some(),
                "persona '{name}' references unknown app '{app}'"
            );
        }
        assert_eq!(
            transitions.len(),
            app_names.len(),
            "persona '{name}': one transition row per app"
        );
        for (i, row) in transitions.iter().enumerate() {
            assert_eq!(
                row.len(),
                app_names.len(),
                "persona '{name}': transition row {i} has wrong width"
            );
            assert!(
                row.iter().all(|&p| p >= 0.0 && p.is_finite()),
                "persona '{name}': negative probability in row {i}"
            );
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "persona '{name}': transition row {i} sums to {sum}, expected 1"
            );
        }
        assert!(first < app_names.len(), "first app index out of range");
        Persona {
            name: name.to_owned(),
            apps: app_names.iter().map(|&a| a.to_owned()).collect(),
            transitions,
            first,
            stats: SessionLengthStats::deloitte(),
        }
    }

    /// Overrides the persona's session-length statistics (normalised,
    /// see [`SessionLengthStats::normalized`]).
    #[must_use]
    pub fn with_stats(mut self, stats: SessionLengthStats) -> Self {
        self.stats = stats.normalized();
        self
    }

    /// The persona's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The apps this persona uses.
    #[must_use]
    pub fn apps(&self) -> &[String] {
        &self.apps
    }

    /// The persona's session-length statistics.
    #[must_use]
    pub fn stats(&self) -> SessionLengthStats {
        self.stats
    }

    /// Heavy mobile gamer: long Lineage/PubG sessions chained with
    /// YouTube clips, the home screen as connective tissue.
    #[must_use]
    pub fn gamer() -> Self {
        Persona::new(
            "gamer",
            &["lineage", "pubg", "youtube", "home", "web-browser"],
            vec![
                vec![0.35, 0.20, 0.25, 0.15, 0.05],
                vec![0.20, 0.35, 0.25, 0.15, 0.05],
                vec![0.30, 0.25, 0.20, 0.20, 0.05],
                vec![0.30, 0.30, 0.20, 0.10, 0.10],
                vec![0.25, 0.25, 0.20, 0.20, 0.10],
            ],
            3,
        )
    }

    /// Feed-and-messaging heavy user: Facebook dominates, with YouTube
    /// embeds and browser tangents.
    #[must_use]
    pub fn socialite() -> Self {
        Persona::new(
            "socialite",
            &["facebook", "youtube", "web-browser", "home", "spotify"],
            vec![
                vec![0.45, 0.20, 0.15, 0.10, 0.10],
                vec![0.35, 0.25, 0.15, 0.15, 0.10],
                vec![0.40, 0.15, 0.20, 0.15, 0.10],
                vec![0.50, 0.15, 0.15, 0.10, 0.10],
                vec![0.40, 0.20, 0.15, 0.15, 0.10],
            ],
            3,
        )
    }

    /// Commute pattern: Spotify playback bookending the day, podcasts
    /// and browsing in between, short home-screen glances.
    #[must_use]
    pub fn commuter() -> Self {
        Persona::new(
            "commuter",
            &["spotify", "web-browser", "facebook", "home", "youtube"],
            vec![
                vec![0.40, 0.20, 0.15, 0.15, 0.10],
                vec![0.30, 0.25, 0.20, 0.15, 0.10],
                vec![0.30, 0.20, 0.25, 0.15, 0.10],
                vec![0.45, 0.20, 0.15, 0.10, 0.10],
                vec![0.35, 0.20, 0.15, 0.15, 0.15],
            ],
            0,
        )
    }

    /// Long-form reader: browser and feed reading with music in the
    /// background slots, barely any games.
    #[must_use]
    pub fn reader() -> Self {
        Persona::new(
            "reader",
            &["web-browser", "facebook", "home", "spotify", "youtube"],
            vec![
                vec![0.45, 0.20, 0.15, 0.10, 0.10],
                vec![0.35, 0.25, 0.15, 0.10, 0.15],
                vec![0.40, 0.25, 0.10, 0.15, 0.10],
                vec![0.40, 0.20, 0.15, 0.15, 0.10],
                vec![0.35, 0.20, 0.15, 0.10, 0.20],
            ],
            2,
        )
    }

    /// Looks a shipped persona up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "gamer" => Some(Persona::gamer()),
            "socialite" => Some(Persona::socialite()),
            "commuter" => Some(Persona::commuter()),
            "reader" => Some(Persona::reader()),
            _ => None,
        }
    }

    /// Names of the shipped personas.
    #[must_use]
    pub fn names() -> &'static [&'static str] {
        &["gamer", "socialite", "commuter", "reader"]
    }

    /// Draws a shipped persona deterministically from a seed — the
    /// cohort assignment used at campaign scale, where each device's
    /// persona is a pure function of its user seed. Uniform over
    /// [`Persona::names`] via one [`splitmix64`] mix.
    #[must_use]
    pub fn sample(seed: u64) -> Self {
        let names = Persona::names();
        #[allow(clippy::cast_possible_truncation)]
        let idx = (splitmix64(seed) % names.len() as u64) as usize;
        // qlint::allow(PN01, reason = "idx is reduced mod names.len(), so the lookup always hits")
        Persona::by_name(names[idx]).expect("shipped persona name resolves")
    }

    /// Samples the day's app sequence: `pickups` apps starting from the
    /// persona's first app, walking the transition matrix.
    fn sample_apps(&self, pickups: u32, rng: &mut StdRng) -> Vec<String> {
        let mut out = Vec::with_capacity(pickups as usize);
        let mut current = self.first;
        for pickup in 0..pickups {
            if pickup > 0 {
                let row = &self.transitions[current];
                let total: f64 = row.iter().sum();
                let mut draw: f64 = rng.gen_range(0.0..total);
                current = row.len() - 1;
                for (j, &p) in row.iter().enumerate() {
                    if draw < p {
                        current = j;
                        break;
                    }
                    draw -= p;
                }
            }
            out.push(self.apps[current].clone());
        }
        out
    }
}

/// Shape of one generated day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayPlanConfig {
    /// Number of phone pickups (the paper cites 52 per day).
    pub pickups: u32,
    /// Waking-day length, seconds (default 16 h).
    pub day_length_s: f64,
    /// Multiplier applied to every sampled session length (1.0 = the
    /// real distribution; CI smoke runs compress it).
    pub session_scale: f64,
    /// Floor on a scaled session length, seconds.
    pub min_session_s: f64,
}

impl DayPlanConfig {
    /// Fraction of the day sessions may occupy; the rest stays
    /// screen-off so gaps exist and the thermal state genuinely cools
    /// between pickups. [`DayPlan::generate`] scales sessions down to
    /// this budget when the sampled lengths exceed it.
    pub const SCREEN_ON_FRACTION: f64 = 0.75;

    /// The screen-on budget of this day, seconds.
    #[must_use]
    pub fn screen_on_budget_s(&self) -> f64 {
        Self::SCREEN_ON_FRACTION * self.day_length_s
    }

    /// Checks that the configured pickups can fit the screen-on budget
    /// at their minimum session length — the feasibility precondition
    /// of [`DayPlan::generate`].
    ///
    /// # Errors
    ///
    /// Returns the human-readable violation when the day is too short.
    pub fn validate(&self) -> Result<(), String> {
        if f64::from(self.pickups) * self.min_session_s > self.screen_on_budget_s() {
            return Err(format!(
                "day too short: {} pickups x {} s minimum sessions cannot fit {:.0} % of a \
                 {} s day (needs at least {:.0} s)",
                self.pickups,
                self.min_session_s,
                Self::SCREEN_ON_FRACTION * 100.0,
                self.day_length_s,
                f64::from(self.pickups) * self.min_session_s / Self::SCREEN_ON_FRACTION
            ));
        }
        Ok(())
    }

    /// The paper's full day: 52 pickups over a 16 h waking day,
    /// uncompressed Deloitte sessions.
    #[must_use]
    pub fn paper() -> Self {
        DayPlanConfig {
            pickups: UserModel::pickups_per_day(),
            day_length_s: 16.0 * 3_600.0,
            session_scale: 1.0,
            min_session_s: 10.0,
        }
    }

    /// CI-smoke day: still 52 pickups, but sessions compressed 6× over
    /// a 2 h day so a full day simulates in well under a minute.
    #[must_use]
    pub fn quick() -> Self {
        DayPlanConfig {
            day_length_s: 2.0 * 3_600.0,
            session_scale: 1.0 / 6.0,
            ..DayPlanConfig::paper()
        }
    }
}

impl Default for DayPlanConfig {
    fn default() -> Self {
        DayPlanConfig::paper()
    }
}

/// One scheduled pickup: a screen-off gap, then an app session.
#[derive(Debug, Clone, PartialEq)]
pub struct PickupPlan {
    /// Application opened (resolves via [`apps::by_name`]).
    pub app: String,
    /// Screen-off time before this pickup, seconds.
    pub gap_before_s: f64,
    /// Time into the day the session starts, seconds.
    pub start_s: f64,
    /// Session length, seconds.
    pub duration_s: f64,
    /// Seed for the pickup's session simulation (user behaviour).
    pub session_seed: u64,
}

/// A full generated day: gaps and sessions summing exactly to the day
/// length.
#[derive(Debug, Clone, PartialEq)]
pub struct DayPlan {
    /// Persona the plan was generated for.
    pub persona: String,
    /// Master seed of the generation.
    pub seed: u64,
    /// The configuration the plan was generated from — carried along so
    /// a plan can be regenerated bit-for-bit from `(persona, config,
    /// seed)` alone (the record/replay contract).
    pub config: DayPlanConfig,
    /// Waking-day length, seconds.
    pub day_length_s: f64,
    /// The pickups, in time order.
    pub pickups: Vec<PickupPlan>,
    /// Screen-off time after the last session until the day ends,
    /// seconds.
    pub tail_gap_s: f64,
}

/// Scales `durations` down so they sum to at most `budget`, without
/// pushing any below `floor`: a proportional rescale where durations
/// that would cross the floor are pinned to it and the rest share the
/// remaining budget (repeated until stable — at most `n` rounds, since
/// each round pins at least one more duration).
///
/// Requires `durations.len() as f64 * floor <= budget` (asserted by
/// the caller) and every input `>= floor`.
fn shrink_to_budget(durations: &mut [f64], budget: f64, floor: f64) {
    if durations.iter().sum::<f64>() <= budget {
        return;
    }
    let mut pinned = vec![false; durations.len()];
    loop {
        let pinned_total = pinned.iter().filter(|&&p| p).count() as f64 * floor;
        let free_total: f64 = durations
            .iter()
            .zip(&pinned)
            .filter(|(_, &p)| !p)
            .map(|(d, _)| d)
            .sum();
        if free_total <= 0.0 {
            // Float-safety net: everything pinned — settle on the floor.
            for (d, p) in durations.iter_mut().zip(&pinned) {
                if *p {
                    *d = floor;
                }
            }
            break;
        }
        let scale = (budget - pinned_total) / free_total;
        let mut newly_pinned = false;
        for (d, p) in durations.iter().zip(&mut pinned) {
            if !*p && d * scale < floor {
                *p = true;
                newly_pinned = true;
            }
        }
        if newly_pinned {
            continue;
        }
        for (d, p) in durations.iter_mut().zip(&pinned) {
            if *p {
                *d = floor;
            } else {
                *d *= scale;
            }
        }
        break;
    }
}

impl DayPlan {
    /// Generates the day for `(persona, config, seed)` — deterministic:
    /// identical inputs give an identical plan, bit for bit.
    ///
    /// The invariant `Σ gap_before + Σ duration + tail_gap ==
    /// day_length_s` holds exactly (up to float addition error): when
    /// the sampled sessions would not leave at least 25 % of the day
    /// screen-off, sessions are scaled down — sessions at the
    /// `min_session_s` floor are pinned there and the rest share the
    /// remaining budget, so the floor is never violated.
    ///
    /// # Panics
    ///
    /// Panics on zero pickups, a non-positive day length, or a day too
    /// short to fit `pickups × min_session_s` in the screen-on budget
    /// (see [`DayPlanConfig::validate`]).
    #[must_use]
    pub fn generate(persona: &Persona, config: &DayPlanConfig, seed: u64) -> Self {
        assert!(config.pickups > 0, "a day needs at least one pickup");
        assert!(
            config.day_length_s > 0.0 && config.day_length_s.is_finite(),
            "day length must be positive"
        );
        if let Err(violation) = config.validate() {
            // qlint::allow(PN01, reason = "documented panic on invalid DayPlanConfig; generation has no error channel")
            panic!("{violation}");
        }
        let screen_on_budget = config.screen_on_budget_s();
        let mut rng_len =
            UserModel::new(splitmix64(seed ^ 0x5e55_10e5)).with_session_stats(persona.stats());
        let mut rng_app = StdRng::seed_from_u64(splitmix64(seed ^ 0xa995));
        let mut rng_gap = StdRng::seed_from_u64(splitmix64(seed ^ 0x6a95));

        let apps = persona.sample_apps(config.pickups, &mut rng_app);
        let mut durations: Vec<f64> = (0..config.pickups)
            .map(|_| {
                (rng_len.sample_session_length_s() * config.session_scale).max(config.min_session_s)
            })
            .collect();

        // Keep at least a quarter of the day screen-off, so gaps exist
        // and the thermal state genuinely cools between pickups.
        shrink_to_budget(&mut durations, screen_on_budget, config.min_session_s);
        let gap_total = config.day_length_s - durations.iter().sum::<f64>();

        // Raw gap weights (one per pickup plus the tail), normalised to
        // the remaining screen-off budget.
        let raw: Vec<f64> = (0..=config.pickups)
            .map(|_| rng_gap.gen_range(0.2..1.0f64))
            .collect();
        let raw_sum: f64 = raw.iter().sum();
        let gaps: Vec<f64> = raw.iter().map(|w| w / raw_sum * gap_total).collect();

        let mut pickups = Vec::with_capacity(apps.len());
        let mut clock = 0.0f64;
        for (i, (app, duration_s)) in apps.into_iter().zip(durations).enumerate() {
            let gap_before_s = gaps[i];
            clock += gap_before_s;
            pickups.push(PickupPlan {
                app,
                gap_before_s,
                start_s: clock,
                duration_s,
                session_seed: splitmix64(seed ^ (i as u64).wrapping_mul(0xff51_afd7_ed55_8ccd)),
            });
            clock += duration_s;
        }
        DayPlan {
            persona: persona.name().to_owned(),
            seed,
            config: *config,
            day_length_s: config.day_length_s,
            pickups,
            tail_gap_s: gaps[config.pickups as usize],
        }
    }

    /// Total planned screen-on time, seconds.
    #[must_use]
    pub fn screen_on_s(&self) -> f64 {
        self.pickups.iter().map(|p| p.duration_s).sum()
    }

    /// Total planned screen-off time, seconds.
    #[must_use]
    pub fn screen_off_s(&self) -> f64 {
        self.pickups.iter().map(|p| p.gap_before_s).sum::<f64>() + self.tail_gap_s
    }

    /// The distinct apps the day opens, sorted.
    #[must_use]
    pub fn distinct_apps(&self) -> Vec<String> {
        let mut apps: Vec<String> = self.pickups.iter().map(|p| p.app.clone()).collect();
        apps.sort();
        apps.dedup();
        apps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_personas_construct_and_lookup() {
        for &name in Persona::names() {
            let p = Persona::by_name(name).expect("shipped persona");
            assert_eq!(p.name(), name);
            assert!(!p.apps().is_empty());
        }
        assert!(Persona::by_name("astronaut").is_none());
    }

    #[test]
    fn persona_sampling_is_deterministic_and_covers_all() {
        assert_eq!(Persona::sample(7).name(), Persona::sample(7).name());
        let mut seen: Vec<&str> = (0..64u64)
            .map(|s| {
                let p = Persona::sample(s);
                Persona::names()
                    .iter()
                    .find(|&&n| n == p.name())
                    .expect("sampled persona is a shipped one")
            })
            .copied()
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            Persona::names().len(),
            "64 seeds should hit every persona"
        );
    }

    #[test]
    fn generation_is_deterministic_per_persona_and_seed() {
        let cfg = DayPlanConfig::quick();
        let a = DayPlan::generate(&Persona::gamer(), &cfg, 7);
        let b = DayPlan::generate(&Persona::gamer(), &cfg, 7);
        assert_eq!(a, b);
        let c = DayPlan::generate(&Persona::gamer(), &cfg, 8);
        assert_ne!(a, c, "seed must matter");
        let d = DayPlan::generate(&Persona::reader(), &cfg, 7);
        assert_ne!(a.pickups, d.pickups, "persona must matter");
    }

    #[test]
    fn day_accounts_for_every_second() {
        let cfg = DayPlanConfig::paper();
        let plan = DayPlan::generate(&Persona::socialite(), &cfg, 42);
        assert_eq!(plan.pickups.len(), 52);
        let total = plan.screen_on_s() + plan.screen_off_s();
        assert!(
            (total - cfg.day_length_s).abs() < 1e-6,
            "gaps + sessions must sum to the day: {total}"
        );
        // Start times are consistent with the gap/duration chain.
        let mut clock = 0.0;
        for p in &plan.pickups {
            clock += p.gap_before_s;
            assert!((p.start_s - clock).abs() < 1e-6);
            clock += p.duration_s;
        }
    }

    #[test]
    fn gamer_days_are_game_heavy() {
        let plan = DayPlan::generate(&Persona::gamer(), &DayPlanConfig::paper(), 3);
        let games = plan
            .pickups
            .iter()
            .filter(|p| apps::is_game(&p.app))
            .count();
        assert!(
            games > plan.pickups.len() / 3,
            "gamer persona opened games only {games}/52 times"
        );
    }

    #[test]
    fn compressed_days_leave_screen_off_time() {
        let cfg = DayPlanConfig::quick();
        let plan = DayPlan::generate(&Persona::gamer(), &cfg, 11);
        assert!(
            plan.screen_off_s() >= cfg.day_length_s - cfg.screen_on_budget_s() - 1e-6,
            "the screen-off share of the day must survive compression"
        );
        for p in &plan.pickups {
            assert!(p.duration_s >= cfg.min_session_s - 1e-9);
        }
    }

    #[test]
    fn tight_days_rescale_without_violating_the_session_floor() {
        // 20 pickups x 10 s floor = 200 s, against a 300 s budget
        // (0.75 x 400): the sampled sessions vastly exceed the budget,
        // so the waterfill must pin short sessions at the floor and
        // shrink only the long ones.
        let cfg = DayPlanConfig {
            pickups: 20,
            day_length_s: 400.0,
            session_scale: 1.0,
            min_session_s: 10.0,
        };
        let plan = DayPlan::generate(&Persona::socialite(), &cfg, 13);
        for p in &plan.pickups {
            assert!(
                p.duration_s >= cfg.min_session_s - 1e-9,
                "session shrunk below the floor: {} s",
                p.duration_s
            );
        }
        let screen_on = plan.screen_on_s();
        assert!(
            screen_on <= cfg.screen_on_budget_s() + 1e-6,
            "screen-on exceeds the budget: {screen_on}"
        );
        let total = screen_on + plan.screen_off_s();
        assert!((total - cfg.day_length_s).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "day too short")]
    fn impossible_pickup_density_rejected() {
        let cfg = DayPlanConfig {
            pickups: 52,
            day_length_s: 600.0,
            session_scale: 1.0,
            min_session_s: 10.0,
        };
        let _ = DayPlan::generate(&Persona::gamer(), &cfg, 1);
    }

    #[test]
    #[should_panic(expected = "unknown app")]
    fn unknown_app_in_persona_rejected() {
        let _ = Persona::new("broken", &["tiktok"], vec![vec![1.0]], 0);
    }
}
