//! `day.json` rendering — the battery-day document of `next-sim day`.
//!
//! One document carries every day cell of a run (persona × seed ×
//! governor on one platform), each with its per-session log, plus a
//! `deltas` section comparing each governor's battery day against the
//! `schedutil` run of the *identical* plan (falling back to the first
//! run's governor when `schedutil` was not in the grid) — the
//! horizon-level comparison the paper's §I premise actually calls for.
//!
//! A schema-versioned document (see [`crate::json::parse_document`]).
//! Everything rendered here is a pure function of the [`DayReport`]s —
//! no wall clock — so a day document is **byte-identical** for fixed
//! inputs across worker counts and machines.

use simkit::day::DayReport;

use crate::json::{Json, SCHEMA_VERSION};

/// Governor preferred as the comparison baseline in the `deltas`
/// section. When the grid did not run it, the first run's governor
/// serves as baseline instead, so a multi-governor day always gets its
/// comparison rows.
pub const BASELINE_GOVERNOR: &str = "schedutil";

/// The baseline governor of a report set: [`BASELINE_GOVERNOR`] when
/// present, otherwise the first run's governor.
fn baseline_of(reports: &[DayReport]) -> Option<&str> {
    if reports.iter().any(|r| r.governor == BASELINE_GOVERNOR) {
        return Some(BASELINE_GOVERNOR);
    }
    reports.first().map(|r| r.governor.as_str())
}

fn session_json(report: &DayReport) -> Json {
    Json::Arr(
        report
            .sessions
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("pickup".into(), Json::num(s.pickup as f64)),
                    ("app".into(), Json::str(&s.app)),
                    ("start_s".into(), Json::num(s.start_s)),
                    ("duration_s".into(), Json::num(s.duration_s)),
                    ("avg_fps".into(), Json::num(s.summary.avg_fps)),
                    ("fps_std".into(), Json::num(s.summary.fps_std)),
                    ("avg_power_w".into(), Json::num(s.summary.avg_power_w)),
                    ("energy_j".into(), Json::num(s.summary.energy_j)),
                    ("ppdw".into(), Json::num(s.ppdw)),
                    (
                        "peak_temp_hot_c".into(),
                        Json::num(s.summary.peak_temp_hot_c),
                    ),
                    ("start_temp_hot_c".into(), Json::num(s.start_temp_hot_c)),
                ])
            })
            .collect(),
    )
}

fn run_json(report: &DayReport) -> Json {
    Json::Obj(vec![
        ("persona".into(), Json::str(&report.plan.persona)),
        // Seeds are full-range u64s; JSON numbers (f64) round above
        // 2^53, so they travel as strings (the campaign convention).
        ("seed".into(), Json::str(report.plan.seed.to_string())),
        ("governor".into(), Json::str(&report.governor)),
        ("platform".into(), Json::str(&report.platform)),
        ("pickups".into(), Json::num(report.pickup_count() as f64)),
        ("day_length_s".into(), Json::num(report.plan.day_length_s)),
        ("screen_on_s".into(), Json::num(report.screen_on_s)),
        ("screen_off_s".into(), Json::num(report.screen_off_s)),
        ("avg_fps".into(), Json::num(report.avg_fps)),
        ("avg_power_w".into(), Json::num(report.avg_power_w)),
        ("peak_temp_hot_c".into(), Json::num(report.peak_temp_hot_c)),
        (
            "energy_screen_on_j".into(),
            Json::num(report.energy_screen_on_j),
        ),
        ("energy_gap_j".into(), Json::num(report.energy_gap_j)),
        ("energy_total_j".into(), Json::num(report.energy_total_j())),
        (
            "battery_drain_pct".into(),
            Json::num(report.battery_drain_pct),
        ),
        ("charges_used".into(), Json::num(report.charges_used)),
        ("trainings".into(), Json::num(f64::from(report.trainings))),
        ("sessions".into(), session_json(report)),
    ])
}

/// The `deltas` rows: every non-baseline run compared against the
/// baseline-governor run (see [`baseline_of`]) of the same
/// (persona, seed) day.
fn delta_json(reports: &[DayReport]) -> Json {
    let Some(baseline) = baseline_of(reports) else {
        return Json::Arr(Vec::new());
    };
    let mut rows = Vec::new();
    for report in reports {
        if report.governor == baseline {
            continue;
        }
        let Some(base) = reports.iter().find(|r| {
            r.governor == baseline
                && r.plan.persona == report.plan.persona
                && r.plan.seed == report.plan.seed
        }) else {
            continue;
        };
        let saving_pct = if base.energy_total_j() > 0.0 {
            (1.0 - report.energy_total_j() / base.energy_total_j()) * 100.0
        } else {
            0.0
        };
        rows.push(Json::Obj(vec![
            ("persona".into(), Json::str(&report.plan.persona)),
            ("seed".into(), Json::str(report.plan.seed.to_string())),
            ("governor".into(), Json::str(&report.governor)),
            ("vs".into(), Json::str(baseline)),
            (
                "energy_delta_j".into(),
                Json::num(report.energy_total_j() - base.energy_total_j()),
            ),
            // Derived from the *unclamped* charges, not the saturating
            // battery_drain_pct: a full day can exceed one pack under
            // both governors, which would mask the comparison as
            // 100 − 100 = 0.
            (
                "battery_drain_delta_pct".into(),
                Json::num((report.charges_used - base.charges_used) * 100.0),
            ),
            ("energy_saving_pct".into(), Json::num(saving_pct)),
            (
                "avg_fps_delta".into(),
                Json::num(report.avg_fps - base.avg_fps),
            ),
        ]));
    }
    Json::Arr(rows)
}

/// Renders a set of day cells (one platform) as a schema-v4 document.
#[must_use]
pub fn days_to_json(reports: &[DayReport], mode: &str) -> Json {
    let platform = reports
        .first()
        .map_or("unknown", |r| r.platform.as_str())
        .to_owned();
    let day = Json::Obj(vec![
        (
            "runs".into(),
            Json::Arr(reports.iter().map(run_json).collect()),
        ),
        ("deltas".into(), delta_json(reports)),
    ]);
    Json::Obj(vec![
        ("schema".into(), Json::num(f64::from(SCHEMA_VERSION))),
        ("harness".into(), Json::str("next-sim day")),
        ("mode".into(), Json::str(mode)),
        ("platform".into(), Json::str(&platform)),
        ("day".into(), day),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_document;
    use simkit::day::run_days;
    use simkit::PlatformPreset;
    use workload::{DayPlan, DayPlanConfig, Persona};

    fn tiny_reports() -> Vec<DayReport> {
        let cfg = DayPlanConfig {
            pickups: 3,
            day_length_s: 300.0,
            session_scale: 0.1,
            min_session_s: 15.0,
        };
        let plans = vec![DayPlan::generate(&Persona::commuter(), &cfg, 5)];
        run_days(
            &plans,
            &["next".to_owned(), "schedutil".to_owned()],
            &PlatformPreset::default(),
            1.0,
            30.0,
            2,
        )
    }

    #[test]
    fn day_document_is_a_render_parse_fixpoint() {
        let reports = tiny_reports();
        let text = days_to_json(&reports, "test").render();
        let parsed = parse_document(&text).expect("own rendering parses");
        let day = parsed.get("day").expect("day section present");
        let runs = day.get("runs").and_then(Json::as_array).expect("runs");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("governor").and_then(Json::as_str), Some("next"));
        assert_eq!(runs[0].get("pickups").and_then(Json::as_f64), Some(3.0));
        let sessions = runs[0]
            .get("sessions")
            .and_then(Json::as_array)
            .expect("per-session log");
        assert_eq!(sessions.len(), 3);
        assert!(sessions[0].get("ppdw").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(parsed.render(), text, "render ∘ parse must be a fixpoint");
    }

    #[test]
    fn deltas_compare_next_against_schedutil_on_the_same_day() {
        let reports = tiny_reports();
        let doc = days_to_json(&reports, "test");
        let deltas = doc
            .get("day")
            .and_then(|d| d.get("deltas"))
            .and_then(Json::as_array)
            .expect("deltas");
        assert_eq!(deltas.len(), 1, "one non-baseline governor");
        let row = &deltas[0];
        assert_eq!(row.get("governor").and_then(Json::as_str), Some("next"));
        assert_eq!(row.get("vs").and_then(Json::as_str), Some("schedutil"));
        let delta = row
            .get("energy_delta_j")
            .and_then(Json::as_f64)
            .expect("numeric energy delta");
        assert!(delta.abs() > 1e-9, "the battery-day delta must be non-zero");
    }

    #[test]
    fn drain_delta_survives_days_that_exceed_one_pack() {
        // Both governors drain past 100 % (battery_drain_pct saturates
        // for each), so the delta must come from the unclamped charges
        // or the headline comparison would read 0.
        let plan = DayPlan {
            persona: "gamer".to_owned(),
            seed: 1,
            config: DayPlanConfig {
                pickups: 1,
                day_length_s: 57_600.0,
                session_scale: 1.0,
                min_session_s: 10.0,
            },
            day_length_s: 57_600.0,
            pickups: Vec::new(),
            tail_gap_s: 57_600.0,
        };
        let mk = |governor: &str, charges: f64| DayReport {
            plan: plan.clone(),
            governor: governor.to_owned(),
            platform: "exynos9810".to_owned(),
            sessions: Vec::new(),
            screen_on_s: 10_000.0,
            screen_off_s: 47_600.0,
            energy_screen_on_j: charges * 55_440.0,
            energy_gap_j: 0.0,
            avg_fps: 40.0,
            avg_power_w: 3.0,
            peak_temp_hot_c: 50.0,
            trainings: 0,
            battery_drain_pct: 100.0,
            charges_used: charges,
        };
        let reports = vec![mk("next", 1.2), mk("schedutil", 1.5)];
        let doc = days_to_json(&reports, "test");
        let deltas = doc
            .get("day")
            .and_then(|d| d.get("deltas"))
            .and_then(Json::as_array)
            .expect("deltas");
        let drain_delta = deltas[0]
            .get("battery_drain_delta_pct")
            .and_then(Json::as_f64)
            .expect("numeric drain delta");
        assert!(
            (drain_delta - -30.0).abs() < 1e-9,
            "unclamped delta expected -30 points, got {drain_delta}"
        );
    }

    #[test]
    fn deltas_fall_back_to_the_first_governor_without_schedutil() {
        // A grid without schedutil must still get its comparison rows,
        // baselined on the grid's first governor.
        let cfg = DayPlanConfig {
            pickups: 2,
            day_length_s: 200.0,
            session_scale: 0.1,
            min_session_s: 15.0,
        };
        let plans = vec![DayPlan::generate(&Persona::reader(), &cfg, 6)];
        let reports = run_days(
            &plans,
            &["powersave".to_owned(), "performance".to_owned()],
            &PlatformPreset::default(),
            1.0,
            30.0,
            2,
        );
        let doc = days_to_json(&reports, "test");
        let deltas = doc
            .get("day")
            .and_then(|d| d.get("deltas"))
            .and_then(Json::as_array)
            .expect("deltas");
        assert_eq!(deltas.len(), 1, "one non-baseline governor");
        assert_eq!(
            deltas[0].get("governor").and_then(Json::as_str),
            Some("performance")
        );
        assert_eq!(
            deltas[0].get("vs").and_then(Json::as_str),
            Some("powersave"),
            "first governor becomes the baseline"
        );
    }

    #[test]
    fn day_seeds_survive_the_artifact_exactly() {
        let reports = tiny_reports();
        let doc = days_to_json(&reports, "test");
        let runs = doc
            .get("day")
            .and_then(|d| d.get("runs"))
            .and_then(Json::as_array)
            .expect("runs");
        for (run, report) in runs.iter().zip(&reports) {
            let seed: u64 = run
                .get("seed")
                .and_then(Json::as_str)
                .expect("seed string")
                .parse()
                .expect("decimal u64");
            assert_eq!(seed, report.plan.seed);
        }
    }
}
