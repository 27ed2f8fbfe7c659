//! Parallel governor×app×seed sweeps.
//!
//! The paper's §V evaluation protocol measures every governor on every
//! application over seeded sessions — an embarrassingly parallel grid of
//! fully independent simulations. This module runs that grid across
//! scoped `std::thread` workers that claim cells from one shared atomic
//! cursor (no external dependencies) and merges the per-cell
//! [`Summary`] rows **deterministically**: the output is a pure function
//! of the cell list, identical for any worker count.
//!
//! Three layers, each usable on its own:
//!
//! * [`parallel_map`] — generic ordered parallel map over a slice,
//! * [`grid`] / [`run_cells`] — sweep cells and their parallel execution
//!   with a caller-supplied evaluator,
//! * [`StandardEvaluator`] — the stock evaluator covering every governor
//!   this workspace ships (training Next once per app, in parallel,
//!   before the measurement grid runs).
//!
//! Determinism argument: every cell is evaluated by a *pure* function of
//! the cell itself (fresh SoC, fresh governor, fixed seeds — see
//! [`crate::experiment::evaluate_governor`]), results are written back
//! by cell index, and [`report`] sorts rows by key before rendering.
//! Thread scheduling can change only *when* a cell runs, never its
//! result or its place in the output.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::{panic, thread};

use governors::Governor;
use next_core::NextAgent;
use qlearn::DenseQTable;
use workload::{apps, SessionPlan};

use crate::experiment::evaluate_governor_on;
use crate::metrics::Summary;
use crate::platform::PlatformPreset;
use crate::report::Table;
use crate::trainer::{TrainSpec, Trainer};

/// One point of the sweep grid: a governor measured on an app session.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Application name (see `workload::apps`).
    pub app: String,
    /// Governor name (see [`StandardEvaluator::GOVERNORS`]).
    pub governor: String,
    /// Session seed.
    pub seed: u64,
    /// Session length, simulated seconds.
    pub duration_s: f64,
}

/// One finished cell: the cell plus its run summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The grid point that was measured.
    pub cell: SweepCell,
    /// Summary statistics of the run.
    pub summary: Summary,
}

/// Builds the full `apps × governors × seeds` cell list in deterministic
/// (app-major, then governor, then seed) order.
///
/// `duration_s` of `None` uses the paper's per-app session length
/// (games 5 min, other apps 2.5 min).
#[must_use]
pub fn grid(
    apps: &[String],
    governors: &[String],
    seeds: &[u64],
    duration_s: Option<f64>,
) -> Vec<SweepCell> {
    let mut cells = Vec::with_capacity(apps.len() * governors.len() * seeds.len());
    for app in apps {
        let duration = duration_s.unwrap_or_else(|| SessionPlan::paper_session_length_s(app));
        for governor in governors {
            for &seed in seeds {
                cells.push(SweepCell {
                    app: app.clone(),
                    governor: governor.clone(),
                    seed,
                    duration_s: duration,
                });
            }
        }
    }
    cells
}

/// Default worker count for a sweep: every available core.
#[must_use]
pub fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Applies `f` to every item on `workers` threads and returns the
/// results **in item order**, whatever order the threads ran in.
///
/// Every worker claims the next unclaimed index from one shared atomic
/// cursor, so a run of slow cells (e.g. the 5-minute game sessions)
/// cannot serialise the sweep behind one worker.
///
/// # Panics
///
/// Re-raises the first worker panic (in worker order) with its own
/// payload, so the caller sees the message the failing item panicked
/// with.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(n);
    if workers == 1 {
        return items.iter().map(f).collect();
    }

    // `Relaxed` suffices: the cursor publishes no data. The atomic add
    // alone hands each index to exactly one worker, and results reach
    // this thread through `join`.
    let cursor = AtomicUsize::new(0);
    let mut pairs: Vec<(usize, R)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return out;
                        };
                        out.push((i, f(item)));
                    }
                })
            })
            .collect();
        let mut pairs = Vec::with_capacity(n);
        for handle in handles {
            match handle.join() {
                Ok(out) => pairs.extend(out),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        pairs
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Runs `cells` on `workers` threads with a caller-supplied evaluator
/// and returns one row per cell, in cell order.
pub fn run_cells<F>(cells: &[SweepCell], workers: usize, eval: F) -> Vec<SweepRow>
where
    F: Fn(&SweepCell) -> Summary + Sync,
{
    let summaries = parallel_map(cells, workers, eval);
    cells
        .iter()
        .cloned()
        .zip(summaries)
        .map(|(cell, summary)| SweepRow { cell, summary })
        .collect()
}

/// The stock cell evaluator: measures any governor this workspace ships
/// on a fresh, deterministically seeded device.
///
/// `next` cells need a trained agent; [`StandardEvaluator::prepare`]
/// trains one table per app up front (itself in parallel) so each `next`
/// cell only pays a table clone, and repeated seeds of the same app
/// reuse the same trained policy — the paper's train-once / measure-many
/// protocol.
#[derive(Debug)]
pub struct StandardEvaluator {
    tables: BTreeMap<String, TrainedApp>,
    preset: PlatformPreset,
}

/// A per-app trained Next policy plus its training telemetry.
#[derive(Debug, Clone)]
struct TrainedApp {
    table: DenseQTable,
    telemetry: TrainTelemetry,
}

/// Training telemetry for one app, kept for report footers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainTelemetry {
    /// Simulated seconds of training actually spent.
    pub training_time_s: f64,
    /// Whether the TD-error convergence criterion fired.
    pub converged: bool,
    /// Number of visited states in the trained table.
    pub states: usize,
}

impl StandardEvaluator {
    /// Every governor name the evaluator accepts.
    pub const GOVERNORS: [&'static str; 6] = [
        "schedutil",
        "intqos",
        "next",
        "performance",
        "powersave",
        "ondemand",
    ];

    /// Training seed for the per-app Next tables (the bench protocol's
    /// dedicated training device).
    pub const TRAIN_SEED: u64 = 7;

    /// The §V base training budget per app, simulated seconds.
    pub const BASE_TRAIN_BUDGET_S: f64 = 600.0;

    /// The training budget for `app` given a base budget: games get
    /// twice the base (their FPS spans the whole 0–60 range, so they
    /// explore a much larger state region).
    #[must_use]
    pub fn train_budget_for(base_budget_s: f64, app: &str) -> f64 {
        if apps::is_game(app) {
            2.0 * base_budget_s
        } else {
            base_budget_s
        }
    }

    /// Prepares an evaluator for `cells` on the paper's stock Exynos
    /// 9810 (see [`StandardEvaluator::prepare_on`]).
    #[must_use]
    pub fn prepare(cells: &[SweepCell], train_budget_s: f64, workers: usize) -> Self {
        Self::prepare_on(cells, train_budget_s, workers, PlatformPreset::exynos9810())
    }

    /// Prepares an evaluator for `cells` on a platform preset: trains a
    /// Next table for every distinct app that appears in a `next` cell,
    /// running the training jobs themselves on `workers` threads. Every
    /// cell — training and measurement — runs on the preset's device.
    ///
    /// `train_budget_s` is the per-app base training budget in
    /// simulated seconds (see [`StandardEvaluator::train_budget_for`]).
    #[must_use]
    pub fn prepare_on(
        cells: &[SweepCell],
        train_budget_s: f64,
        workers: usize,
        preset: PlatformPreset,
    ) -> Self {
        let mut train_apps: Vec<String> = cells
            .iter()
            .filter(|c| c.governor == "next")
            .map(|c| c.app.clone())
            .collect();
        train_apps.sort();
        train_apps.dedup();

        let outcomes = Self::train_for_apps(&train_apps, train_budget_s, workers, &preset);
        let tables = outcomes.into_iter().map(|out| {
            let table = out.agent.into_table();
            let telemetry = TrainTelemetry {
                training_time_s: out.training_time_s,
                converged: out.converged,
                states: table.len(),
            };
            TrainedApp { table, telemetry }
        });
        StandardEvaluator {
            tables: train_apps.into_iter().zip(tables).collect(),
            preset,
        }
    }

    /// Trains one Next policy per app (in order), in parallel, on the
    /// preset's device with the protocol seed and per-app budget — the
    /// §V train-once fan-out shared by this evaluator and the day
    /// engine, so the two layers cannot train differently.
    #[must_use]
    pub fn train_for_apps(
        apps: &[String],
        base_budget_s: f64,
        workers: usize,
        preset: &PlatformPreset,
    ) -> Vec<crate::trainer::TrainOutcome> {
        let trainer = Trainer::new();
        parallel_map(apps, workers, |app| {
            let budget = Self::train_budget_for(base_budget_s, app);
            let spec = TrainSpec::new(app, preset.next.clone(), Self::TRAIN_SEED, budget)
                .with_soc(preset.soc.clone());
            trainer.train(spec)
        })
    }

    /// The platform preset this evaluator measures on.
    #[must_use]
    pub fn preset(&self) -> &PlatformPreset {
        &self.preset
    }

    /// Training telemetry for `app`, if a Next table was trained for it.
    #[must_use]
    pub fn telemetry(&self, app: &str) -> Option<TrainTelemetry> {
        self.tables.get(app).map(|t| t.telemetry)
    }

    /// Evaluates one cell. Pure: identical cells give identical
    /// summaries regardless of which thread runs them, or when.
    ///
    /// # Panics
    ///
    /// Panics on an unknown governor name or a `next` cell whose app was
    /// not covered by [`StandardEvaluator::prepare`].
    #[must_use]
    pub fn eval(&self, cell: &SweepCell) -> Summary {
        let plan = SessionPlan::single(&cell.app, cell.duration_s);
        let mut governor: Box<dyn Governor> = if cell.governor == "next" {
            let table = self
                .tables
                .get(&cell.app)
                // qlint::allow(PN01, reason = "prepare_on trained a table for every app in the grid")
                .unwrap_or_else(|| panic!("no trained table for app '{}'", cell.app))
                .table
                .clone();
            Box::new(NextAgent::with_table(
                self.preset.next.clone(),
                table,
                false,
            ))
        } else {
            governors::by_name(&cell.governor)
                // qlint::allow(PN01, reason = "documented panicking lookup; grid cells are built from validated names")
                .unwrap_or_else(|| panic!("unknown governor '{}'", cell.governor))
        };
        evaluate_governor_on(governor.as_mut(), &plan, cell.seed, &self.preset.soc).summary
    }
}

/// Renders sweep rows as a deterministic plain-text report: one aligned
/// table sorted by (app, governor, seed), then per-governor mean power
/// with savings versus `schedutil` where both were measured.
///
/// The output is byte-identical for a given row set — it carries no
/// wall-clock times, worker counts or any other run-dependent data.
#[must_use]
pub fn report(rows: &[SweepRow]) -> String {
    let mut sorted: Vec<&SweepRow> = rows.iter().collect();
    sorted.sort_by(|a, b| {
        (&a.cell.app, &a.cell.governor, a.cell.seed).cmp(&(
            &b.cell.app,
            &b.cell.governor,
            b.cell.seed,
        ))
    });

    let mut table = Table::new(
        "sweep: governor x app x seed",
        &[
            "app",
            "governor",
            "seed",
            "dur_s",
            "avg_w",
            "peak_w",
            "avg_fps",
            "fps_std",
            "peak_big_c",
            "peak_dev_c",
            "energy_j",
        ],
    );
    for row in &sorted {
        let s = &row.summary;
        table.push_row(vec![
            row.cell.app.clone(),
            row.cell.governor.clone(),
            row.cell.seed.to_string(),
            format!("{:.0}", row.cell.duration_s),
            format!("{:.3}", s.avg_power_w),
            format!("{:.3}", s.peak_power_w),
            format!("{:.2}", s.avg_fps),
            format!("{:.2}", s.fps_std),
            format!("{:.2}", s.peak_temp_hot_c),
            format!("{:.2}", s.peak_temp_device_c),
            format!("{:.1}", s.energy_j),
        ]);
    }
    let mut out = table.render();

    // Per-governor aggregate: mean of per-cell average power, and the
    // mean saving versus the schedutil cell with the same (app, seed).
    let mut by_gov: BTreeMap<&str, Vec<&SweepRow>> = BTreeMap::new();
    for row in &sorted {
        by_gov.entry(&row.cell.governor).or_default().push(row);
    }
    let sched_power: BTreeMap<(&str, u64), f64> = sorted
        .iter()
        .filter(|r| r.cell.governor == "schedutil")
        .map(|r| ((r.cell.app.as_str(), r.cell.seed), r.summary.avg_power_w))
        .collect();
    out.push('\n');
    for (gov, rows) in &by_gov {
        let mean_w = rows.iter().map(|r| r.summary.avg_power_w).sum::<f64>() / rows.len() as f64;
        let savings: Vec<f64> = rows
            .iter()
            .filter_map(|r| {
                sched_power
                    .get(&(r.cell.app.as_str(), r.cell.seed))
                    .map(|&base| (1.0 - r.summary.avg_power_w / base) * 100.0)
            })
            .collect();
        if *gov == "schedutil" || savings.is_empty() {
            let _ = writeln!(
                out,
                "# {gov}: mean power {mean_w:.3} W over {} cells",
                rows.len()
            );
        } else {
            let mean_saving = savings.iter().sum::<f64>() / savings.len() as f64;
            let _ = writeln!(
                out,
                "# {gov}: mean power {mean_w:.3} W over {} cells, mean saving vs schedutil {mean_saving:.1} %",
                rows.len()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_app_major_and_sized() {
        let cells = grid(
            &["facebook".into(), "spotify".into()],
            &["schedutil".into(), "powersave".into()],
            &[1, 2, 3],
            Some(10.0),
        );
        assert_eq!(cells.len(), 12);
        assert_eq!(cells[0].app, "facebook");
        assert_eq!(cells[0].governor, "schedutil");
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[11].app, "spotify");
        assert_eq!(cells[11].governor, "powersave");
        assert_eq!(cells[11].seed, 3);
    }

    #[test]
    fn grid_defaults_to_paper_session_lengths() {
        let cells = grid(&["pubg".into()], &["schedutil".into()], &[1], None);
        assert!((cells[0].duration_s - 300.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..203).collect();
        let doubled = parallel_map(&items, 7, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[5u32], 4, |&x| x + 1), vec![6]);
    }

    #[test]
    fn parallel_map_balances_skewed_work() {
        // Front-loaded work: worker 0 would own all the heavy items
        // under static partitioning; the shared cursor must still
        // complete and preserve order.
        let items: Vec<u64> = (0..64)
            .map(|i| if i < 8 { 2_000_000 } else { 10 })
            .collect();
        let spin = |&n: &u64| -> u64 {
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.wrapping_add(i ^ acc.rotate_left(7));
            }
            acc
        };
        assert_eq!(
            parallel_map(&items, 8, spin),
            items.iter().map(spin).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "cell 3 failed")]
    fn parallel_map_reraises_the_worker_panic_message() {
        let items: Vec<u32> = (0..8).collect();
        let _ = parallel_map(&items, 3, |&i| {
            assert!(i != 3, "cell {i} failed");
            i
        });
    }

    #[test]
    fn standard_evaluator_is_pure_per_cell() {
        let cell = SweepCell {
            app: "facebook".into(),
            governor: "schedutil".into(),
            seed: 42,
            duration_s: 10.0,
        };
        let eval = StandardEvaluator::prepare(std::slice::from_ref(&cell), 30.0, 1);
        assert_eq!(eval.eval(&cell), eval.eval(&cell));
    }

    #[test]
    fn report_sorts_rows_regardless_of_input_order() {
        let mk = |app: &str, gov: &str, seed| SweepRow {
            cell: SweepCell {
                app: app.into(),
                governor: gov.into(),
                seed,
                duration_s: 10.0,
            },
            summary: Summary {
                avg_power_w: 1.0,
                ..Summary::default()
            },
        };
        let fwd = vec![mk("a", "next", 1), mk("b", "schedutil", 1)];
        let rev = vec![mk("b", "schedutil", 1), mk("a", "next", 1)];
        assert_eq!(report(&fwd), report(&rev));
    }
}
