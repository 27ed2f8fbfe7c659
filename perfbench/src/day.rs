//! `battery_day`: every persona's quick days, governors in lockstep.
//!
//! Each persona lives two `DayPlanConfig::quick` days (52 pickups over
//! 2 h each) with schedutil, Int. QoS PM and Next as three lockstep
//! lanes of `run_day_lanes`. The batched `SocBatch` kernel at width 3,
//! screen-off gap ticking and day orchestration do the work; the
//! scalar kernel runs only in set-up. A benchmark `TraceSink` whose
//! `enabled()` is a constant `false` marks the day's segment
//! boundaries, so the tick loops stay the untraced ones and every gap
//! and session is a unit of its own (106 per day, 848 per pass).
//! Set-up generates the plans and trains Next on the plans' apps.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::api::{self, DayOutcome, Device, Plan, Table};
use crate::digest::{derive_seed, Digest};
use crate::estimator::{Estimate, Job, Probe};
use crate::report::{interleaved, Metric, Tally};

/// Platform the days run on.
pub const DEVICE: &str = "exynos9810";

/// The lockstep lanes.
pub const GOVERNORS: [&str; 3] = ["schedutil", "intqos", "next"];

/// Quick days per persona. A day's cost is set by its screen-on share,
/// which one plan seed moves by ±20 %; two days per persona halve the
/// variance between benchmark seeds.
pub const DAYS_PER_PERSONA: usize = 2;

/// Digest of the default seed's plans.
const PINNED_PLANS: Digest = 0xed89_65dd_ecb5_3da3;

/// Digests of the default seed's days, in recipe order.
const PINNED_DAYS: [Digest; 8] = [
    0xdc97_f960_b5a1_c0d8,
    0xcc83_6a59_63e4_84fa,
    0xb01c_aca0_4933_521f,
    0x4932_fe06_aa4b_8b2f,
    0xfd1c_7ddf_1737_6fa6,
    0x8768_6bce_fa4d_db8b,
    0x43c8_8624_399b_fe76,
    0xbf85_ccb2_e9e6_d257,
];

/// The generated inputs of one `battery_day` run.
#[derive(Debug)]
pub struct Days {
    /// The device.
    pub device: Device,
    /// `(persona, seed)` of every day, persona-major.
    pub recipes: Vec<(String, u64)>,
    /// The generated plans, in recipe order.
    pub plans: Vec<Plan>,
    /// Apps to train, sorted.
    pub apps: Vec<String>,
    pinned: bool,
}

fn generate(recipes: &[(String, u64)]) -> Result<Vec<Plan>, String> {
    recipes.iter().map(|(p, s)| Plan::quick(p, *s)).collect()
}

impl Days {
    /// Builds the days; every plan seed derives from `seed`.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown platform or persona.
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut recipes = Vec::new();
        for persona in api::persona_names() {
            for _ in 0..DAYS_PER_PERSONA {
                let index = recipes.len() as u64;
                recipes.push((persona.clone(), derive_seed(seed, "battery_day", index)));
            }
        }
        let plans = generate(&recipes)?;
        let mut apps: Vec<String> = plans.iter().flat_map(Plan::apps).collect();
        apps.sort();
        apps.dedup();
        Ok(Days {
            device: Device::by_name(DEVICE)?,
            recipes,
            plans,
            apps,
            pinned: seed == crate::DEFAULT_SEED,
        })
    }

    /// Simulated lane-seconds of one pass.
    #[must_use]
    pub fn sim_seconds(&self) -> f64 {
        self.plans.iter().map(Plan::day_length_s).sum::<f64>() * GOVERNORS.len() as f64
    }

    /// The set-up, run once: one trained table per planned app.
    #[must_use]
    pub fn train_tables(&self) -> BTreeMap<String, Table> {
        self.apps
            .iter()
            .map(|app| {
                let trained = api::train(&self.device, app, api::BASE_TRAIN_BUDGET_S);
                (app.clone(), trained.table)
            })
            .collect()
    }

    /// The set-up as units: plan generation, and one training run per
    /// planned app.
    #[must_use]
    pub fn setup_jobs(&self) -> Vec<Job<'_>> {
        let mut jobs = vec![Job::new("plans", move |probe: &mut Probe| {
            let plans = generate(&self.recipes)?;
            probe.stop();
            let mut h = crate::digest::Fnv::new();
            for p in &plans {
                h.u64(p.digest());
            }
            Ok(h.finish())
        })
        .pinned(self.pinned.then_some(PINNED_PLANS))];
        for app in &self.apps {
            jobs.push(
                Job::new(format!("train/{app}"), move |probe: &mut Probe| {
                    let trained = api::train(&self.device, app, api::BASE_TRAIN_BUDGET_S);
                    probe.stop();
                    Ok(trained.table.digest())
                })
                .pinned(crate::grid::trained_table_digest(app)),
            );
        }
        jobs
    }

    /// One job per day; each gap and session is a unit.
    pub fn day_jobs<'a>(
        &'a self,
        tables: &'a BTreeMap<String, Table>,
        first: &'a RefCell<Vec<Vec<DayOutcome>>>,
    ) -> Vec<Job<'a>> {
        first.borrow_mut().resize(self.plans.len(), Vec::new());
        self.plans
            .iter()
            .zip(&self.recipes)
            .enumerate()
            .map(|(i, (plan, (persona, _)))| {
                Job::new(format!("day/{persona}/{i}"), move |probe: &mut Probe| {
                    let run = api::run_day_lanes(
                        &self.device,
                        plan,
                        &GOVERNORS,
                        tables,
                        Some(&mut *probe),
                    )?;
                    probe.stop();
                    let mut slot = first.borrow_mut();
                    if slot[i].is_empty() {
                        slot[i] = run.outcomes();
                    }
                    Ok(run.digest())
                })
                .pinned(self.pinned.then(|| PINNED_DAYS[i]))
            })
            .collect()
    }
}

/// Everything a `battery_day` run measured.
#[derive(Debug)]
pub struct DayRun {
    /// The inputs.
    pub days: Days,
    /// The set-up units.
    pub setup: Estimate,
    /// The day units.
    pub estimate: Estimate,
    /// The first run of every day, one outcome per lane.
    pub outcomes: Vec<Vec<DayOutcome>>,
}

/// Trains once, then times set-up and day units round-robin for
/// `seconds`.
///
/// # Errors
///
/// Returns a message when the inputs cannot be built.
pub fn measure(seed: u64, seconds: f64, tally: &mut Tally) -> Result<DayRun, String> {
    let days = Days::new(seed)?;
    let tables = days.train_tables();
    let first = RefCell::new(Vec::new());
    let [setup, estimate] = interleaved(
        tally,
        "battery_day",
        [
            ("setup", days.setup_jobs()),
            ("days", days.day_jobs(&tables, &first)),
        ],
        seconds,
        crate::MIN_PASSES,
    );
    Ok(DayRun {
        days,
        setup,
        estimate,
        outcomes: first.into_inner(),
    })
}

/// Next's energy saving against schedutil summed over the days,
/// percent, and the mean drop of the day's peak temperature, °C, from
/// each day's lane outcomes.
#[must_use]
pub fn paper_result(outcomes: &[Vec<DayOutcome>]) -> (f64, f64) {
    let (mut sched_j, mut next_j, mut drop) = (0.0, 0.0, 0.0);
    for lanes in outcomes {
        let find = |g: &str| lanes.iter().find(|o| o.governor == g);
        if let (Some(s), Some(n)) = (find("schedutil"), find("next")) {
            sched_j += s.energy_j;
            next_j += n.energy_j;
            drop += s.peak_temp_hot_c - n.peak_temp_hot_c;
        }
    }
    let saving = if sched_j > 0.0 {
        (1.0 - next_j / sched_j) * 100.0
    } else {
        0.0
    };
    (saving, drop / outcomes.len().max(1) as f64)
}

/// The untraced `battery_day` run: end-to-end metrics and checks.
///
/// # Errors
///
/// Returns a message when the run could not be measured.
pub fn run(seed: u64, seconds: f64, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let run = measure(seed, seconds, tally)?;
    let rss = crate::report::peak_rss_mb()?;
    for (lanes, (persona, _)) in run.outcomes.iter().zip(&run.days.recipes) {
        let find = |g: &str| lanes.iter().find(|o| o.governor == g);
        let ok = match (find("schedutil"), find("next")) {
            (Some(s), Some(n)) => {
                n.avg_power_w < s.avg_power_w && n.peak_temp_hot_c < s.peak_temp_hot_c
            }
            _ => false,
        };
        tally.check(
            ok,
            &format!(
                "battery_day/{persona}: Next mean power and peak temperature below schedutil's"
            ),
        );
    }
    Ok(crate::end_to_end(
        run.days.sim_seconds(),
        &run.estimate,
        &run.setup,
        rss,
    ))
}
