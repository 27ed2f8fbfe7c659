//! `session_grid`: the paper's §V protocol on the scalar engine.
//!
//! The six paper apps under schedutil, Int. QoS PM on the two games,
//! and greedy Next, at the paper's session lengths: 14 sessions and
//! 120 k engine ticks through `Engine::run_into`. Only the scalar tick
//! path works here (`SessionSim::advance`, `Soc::tick`, governor and
//! agent inference); no batching, learning or codec runs. Each session
//! is one unit. Set-up trains Next on each app at the §V budget, one
//! unit per app.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::api::{self, Device, Policy, SessionRun, Table};
use crate::digest::{derive_seed, Digest};
use crate::estimator::{Estimate, Job, Probe};
use crate::report::{interleaved, Metric, Tally};

/// Platform of the §V protocol.
pub const DEVICE: &str = "exynos9810";

/// Governor of one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gov {
    /// Stock schedutil.
    Schedutil,
    /// Int. QoS PM (games only).
    IntQos,
    /// Next, greedy, on the app's trained table.
    Next,
}

impl Gov {
    fn label(self) -> &'static str {
        match self {
            Gov::Schedutil => "schedutil",
            Gov::IntQos => "intqos",
            Gov::Next => "next",
        }
    }
}

/// One session of the grid.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Application.
    pub app: String,
    /// Governor.
    pub gov: Gov,
    /// Session length, simulated seconds.
    pub duration_s: f64,
    /// Session seed, shared by every governor of the app.
    pub seed: u64,
}

impl Cell {
    /// `app/governor`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{}/{}", self.app, self.gov.label())
    }
}

/// Digest of every table the §V training produces (the training seed
/// is the protocol's, so these hold for every benchmark seed), by app.
pub const TRAINED_TABLES: [(&str, Digest); 7] = [
    ("facebook", 0x566d_370b_373f_913b),
    ("home", 0x4247_35fd_0374_ed1d),
    ("lineage", 0x32f8_9f06_f17b_fc89),
    ("pubg", 0x9746_705a_e589_d367),
    ("spotify", 0xd353_ddd0_0fed_aaa2),
    ("web-browser", 0x151f_3d8c_0a06_7170),
    ("youtube", 0x87ec_d9a4_5a89_5a2d),
];

/// The pinned digest of `app`'s trained table.
#[must_use]
pub fn trained_table_digest(app: &str) -> Option<Digest> {
    TRAINED_TABLES
        .iter()
        .find(|(a, _)| *a == app)
        .map(|(_, d)| *d)
}

/// Digests of the default seed's 14 sessions, in cell order.
const PINNED_CELLS: [Digest; 14] = [
    0x369f_09e8_952d_3876,
    0xc315_da44_8e86_4fe0,
    0x297e_e5a1_e02a_b58e,
    0x4fc7_0c70_bc2a_159b,
    0x7e69_37c6_9a66_1a26,
    0x1ba9_42e9_f57f_c3a0,
    0x5798_039e_7950_8d63,
    0xa024_a8fb_12f6_7b1e,
    0x9cdc_3229_e173_e084,
    0x1783_0f66_9b4f_fbd6,
    0x7198_2bca_fc8e_1ac8,
    0xc26b_3738_b48f_4e36,
    0x30a9_674d_5298_923e,
    0xeb06_0a02_6d32_1506,
];

/// The generated inputs of one `session_grid` run.
#[derive(Debug)]
pub struct Grid {
    /// The device every session runs on.
    pub device: Device,
    /// The cells, app-major.
    pub cells: Vec<Cell>,
    pinned: bool,
}

impl Grid {
    /// Builds the grid; every session seed derives from `seed`.
    ///
    /// # Errors
    ///
    /// Returns a message when the platform or an app is unknown.
    pub fn new(seed: u64) -> Result<Self, String> {
        let device = Device::by_name(DEVICE)?;
        let mut cells = Vec::new();
        for (i, app) in api::PAPER_APPS.iter().enumerate() {
            api::check_app(app)?;
            let session_seed = derive_seed(seed, "session_grid", i as u64);
            let mut govs = vec![Gov::Schedutil];
            if api::is_game(app) {
                govs.push(Gov::IntQos);
            }
            govs.push(Gov::Next);
            for gov in govs {
                cells.push(Cell {
                    app: (*app).to_owned(),
                    gov,
                    duration_s: api::paper_session_length_s(app),
                    seed: session_seed,
                });
            }
        }
        Ok(Grid {
            device,
            cells,
            pinned: seed == crate::DEFAULT_SEED,
        })
    }

    /// Simulated seconds of one pass over the cells.
    #[must_use]
    pub fn sim_seconds(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| api::ticks_for(c.duration_s) as f64 * api::tick_s())
            .sum()
    }

    /// The set-up, run once: one trained table per paper app, and the
    /// engine ticks the training ran.
    #[must_use]
    pub fn train_tables(&self) -> (BTreeMap<String, Table>, u64) {
        let mut ticks = 0;
        let tables = api::PAPER_APPS
            .iter()
            .map(|&app| {
                let trained = api::train(&self.device, app, api::BASE_TRAIN_BUDGET_S);
                ticks += trained.ticks;
                (app.to_owned(), trained.table)
            })
            .collect();
        (tables, ticks)
    }

    /// The set-up as units: one training run per paper app.
    #[must_use]
    pub fn setup_jobs(&self) -> Vec<Job<'_>> {
        api::PAPER_APPS
            .iter()
            .map(|&app| {
                Job::new(format!("train/{app}"), move |probe: &mut Probe| {
                    let trained = api::train(&self.device, app, api::BASE_TRAIN_BUDGET_S);
                    probe.stop();
                    Ok(trained.table.digest())
                })
                .pinned(trained_table_digest(app))
            })
            .collect()
    }

    /// The governor of `cell`.
    ///
    /// # Errors
    ///
    /// Returns a message when a Next cell has no trained table.
    pub fn policy<'t>(
        cell: &Cell,
        tables: &'t BTreeMap<String, Table>,
    ) -> Result<Policy<'t>, String> {
        Ok(match cell.gov {
            Gov::Schedutil => Policy::Baseline("schedutil"),
            Gov::IntQos => Policy::Baseline("intqos"),
            Gov::Next => Policy::NextGreedy(
                tables
                    .get(&cell.app)
                    .ok_or_else(|| format!("no trained table for '{}'", cell.app))?,
            ),
        })
    }

    /// One unit per cell. The first run of each cell is kept in
    /// `first`; with `timed`, the engine call and the governor's calls
    /// are recorded as spans (the `SPAN_*` slots).
    pub fn cell_jobs<'a>(
        &'a self,
        tables: &'a BTreeMap<String, Table>,
        first: &'a RefCell<Vec<Option<SessionRun>>>,
        timed: bool,
    ) -> Vec<Job<'a>> {
        first.borrow_mut().resize(self.cells.len(), None);
        self.cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                Job::new(cell.name(), move |probe: &mut Probe| {
                    let policy = Self::policy(cell, tables)?;
                    let run = api::run_session(
                        &self.device,
                        policy,
                        &cell.app,
                        cell.duration_s,
                        cell.seed,
                        timed,
                    )?;
                    probe.stop();
                    if timed {
                        probe.add_span(SPAN_ENGINE, run.engine_s);
                        let (control, observe) = if cell.gov == Gov::Next {
                            (SPAN_NEXT_CONTROL, SPAN_NEXT_OBSERVE)
                        } else {
                            (SPAN_BASELINE_CONTROL, SPAN_NEXT_OBSERVE)
                        };
                        probe.add_span(control, run.gov.control_s);
                        probe.add_span(observe, run.gov.observe_s);
                    }
                    let mut slot = first.borrow_mut();
                    if slot[i].is_none() {
                        slot[i] = Some(run);
                    }
                    Ok(run.digest())
                })
                .pinned(self.pinned.then(|| PINNED_CELLS[i]))
            })
            .collect()
    }
}

/// Span slot of the `Engine::run_into` call.
pub const SPAN_ENGINE: usize = 0;
/// Span slot of baseline governors' `control` calls.
pub const SPAN_BASELINE_CONTROL: usize = 1;
/// Span slot of Next's `observe` calls (baselines' are not timed).
pub const SPAN_NEXT_OBSERVE: usize = 2;
/// Span slot of Next's `control` calls.
pub const SPAN_NEXT_CONTROL: usize = 3;

/// Everything a `session_grid` run measured.
#[derive(Debug)]
pub struct GridRun {
    /// The inputs.
    pub grid: Grid,
    /// The set-up units.
    pub setup: Estimate,
    /// The session units.
    pub cells: Estimate,
    /// The first run of every cell.
    pub runs: Vec<SessionRun>,
}

/// Trains once, then times set-up and session units round-robin for
/// `seconds`.
///
/// # Errors
///
/// Returns a message when the inputs cannot be built or a session
/// never completed.
pub fn measure(seed: u64, seconds: f64, tally: &mut Tally) -> Result<GridRun, String> {
    let grid = Grid::new(seed)?;
    let (tables, _) = grid.train_tables();
    let first = RefCell::new(Vec::new());
    let [setup, cells] = interleaved(
        tally,
        "session_grid",
        [
            ("setup", grid.setup_jobs()),
            ("sessions", grid.cell_jobs(&tables, &first, false)),
        ],
        seconds,
        crate::MIN_PASSES,
    );
    let runs = first
        .into_inner()
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "a session never completed".to_owned())?;
    Ok(GridRun {
        grid,
        setup,
        cells,
        runs,
    })
}

/// Mean power saving of Next against schedutil over the apps, percent,
/// and mean drop of the peak hot-spot temperature, °C, from each cell's
/// run.
#[must_use]
pub fn paper_result(cells: &[Cell], runs: &[SessionRun]) -> (f64, f64) {
    let mut savings = Vec::new();
    let mut drops = Vec::new();
    for app in api::PAPER_APPS {
        let find = |gov: Gov| {
            cells
                .iter()
                .zip(runs)
                .find(|(c, _)| c.app == app && c.gov == gov)
                .map(|(_, r)| r.stats)
        };
        if let (Some(s), Some(n)) = (find(Gov::Schedutil), find(Gov::Next)) {
            savings.push((1.0 - n.avg_power_w / s.avg_power_w) * 100.0);
            drops.push(s.peak_temp_hot_c - n.peak_temp_hot_c);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (mean(&savings), mean(&drops))
}

/// The untraced `session_grid` run: end-to-end metrics and checks.
///
/// # Errors
///
/// Returns a message when the run could not be measured.
pub fn run(seed: u64, seconds: f64, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let run = measure(seed, seconds, tally)?;
    let rss = crate::report::peak_rss_mb()?;
    let (saving, drop) = paper_result(&run.grid.cells, &run.runs);
    tally.check(
        saving > 0.0,
        &format!("session_grid: Next mean power below schedutil's (saving {saving:.2} %)"),
    );
    tally.check(
        drop > 0.0,
        &format!("session_grid: Next mean peak temperature below schedutil's (drop {drop:.3} C)"),
    );
    Ok(crate::end_to_end(
        run.grid.sim_seconds(),
        &run.cells,
        &run.setup,
        rss,
    ))
}
