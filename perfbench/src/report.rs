//! What a run reports: metrics, the failure tally, the run log, and
//! the result line the benchmark prints last.

use std::fmt::Write as _;
use std::time::Duration;

use crate::estimator::{estimate, now, Estimate, Job};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Operations attempted and failed over a run, with the log lines
/// that explain them.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: job repetitions plus output checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Human-readable log, printed before the result line.
    pub log: Vec<String>,
}

impl Tally {
    /// Counts an estimator phase's repetitions and failures.
    pub fn absorb(&mut self, phase: &str, est: &Estimate) {
        self.attempted += est.attempted();
        self.failed += est.failed();
        self.log.push(format!(
            "{phase}: {} units, {} passes, fastest sum {:.6} s, median pass {:.6} s, median pass / fastest sum {:.3}",
            est.units(),
            est.passes(),
            est.sum_fastest(),
            est.median_pass_s(),
            est.noise_ratio()
        ));
        for f in est.failures() {
            self.log.push(format!("FAILED {phase}: {f}"));
        }
        for j in &est.jobs {
            if let Some(d) = j.digest {
                self.log.push(format!(
                    "digest {phase} {} {d:#018x} ({} reps, fastest {:.6} s)",
                    j.name,
                    j.reps(),
                    j.sum_fastest()
                ));
            }
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if ok {
            self.log.push(format!("check ok: {what}"));
        } else {
            self.failed += 1;
            self.log.push(format!("FAILED check: {what}"));
        }
    }
}

/// Runs the jobs of every part round-robin for `seconds` (and at least
/// `min_passes` whole passes), so every part samples the same stretch
/// of host time; logs each part as `<workload> <part>` and returns its
/// estimate.
pub fn interleaved<const N: usize>(
    tally: &mut Tally,
    workload: &str,
    parts: [(&str, Vec<Job<'_>>); N],
    seconds: f64,
    min_passes: u32,
) -> [Estimate; N] {
    let mut jobs = Vec::new();
    let ranges = parts.map(|(name, part)| {
        let start = jobs.len();
        jobs.extend(part);
        (name, start..jobs.len())
    });
    let deadline = now() + Duration::from_secs_f64(seconds.max(0.0));
    let est = estimate(&mut jobs, deadline, min_passes);
    ranges.map(|(name, range)| {
        let part = est.part(range);
        tally.absorb(&format!("{workload} {name}"), &part);
        part
    })
}

/// The process's peak resident set (`VmHWM`), MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or lacks
/// the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())?;
    Ok(kib / 1024.0)
}

/// Renders the result line: one JSON object with `correct`,
/// `attempted`, `failed` and every metric with its unit.
///
/// # Errors
///
/// Returns a message naming a metric whose value is not finite.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let mut tally = Tally::default();
        tally.check(true, "a");
        tally.check(false, "b");
        let line = result_line(
            &tally,
            &[
                Metric {
                    name: "setup_s".into(),
                    unit: "s",
                    value: 0.25,
                },
                Metric {
                    name: "n".into(),
                    unit: "count",
                    value: 3.0,
                },
            ],
        )
        .expect("finite metrics render");
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"n\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn non_finite_metrics_are_refused() {
        let m = Metric {
            name: "x".into(),
            unit: "s",
            value: f64::NAN,
        };
        assert!(result_line(&Tally::default(), &[m]).is_err());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }
}
