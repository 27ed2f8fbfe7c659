//! Noise-resistant benchmark of the Next MPSoC simulator.
//!
//! ```text
//! perfbench --workload <session_grid|battery_day|campaign>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the run times one workload and prints its
//! end-to-end metrics (`sim_s_per_s`, `setup_s`, `peak_rss_mb`). With
//! `--trace 1` it prints the per-layer ledger instead, measured over
//! all three workloads. Log lines come first; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `README.md` for the estimator.

#![forbid(unsafe_code)]

mod api;
mod campaign;
mod day;
mod digest;
mod estimator;
mod grid;
mod layers;
mod report;

use std::process::ExitCode;

use estimator::Estimate;
use report::{result_line, Metric, Tally};

/// The pinned default workload seed.
pub const DEFAULT_SEED: u64 = 2020;

/// Whole passes over a phase's jobs, however short the run.
pub const MIN_PASSES: u32 = 3;

/// The three end-to-end metrics of a workload.
#[must_use]
pub fn end_to_end(sim_seconds: f64, main: &Estimate, setup: &Estimate, rss_mb: f64) -> Vec<Metric> {
    let fastest = main.sum_fastest();
    vec![
        Metric {
            name: "sim_s_per_s".into(),
            unit: "1/s",
            value: if fastest > 0.0 {
                sim_seconds / fastest
            } else {
                0.0
            },
        },
        Metric {
            name: "setup_s".into(),
            unit: "s",
            value: setup.sum_fastest(),
        },
        Metric {
            name: "peak_rss_mb".into(),
            unit: "MB",
            value: rss_mb,
        },
    ]
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const WORKLOADS: [&str; 3] = ["session_grid", "battery_day", "campaign"];

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => value.clone_into(&mut out.workload),
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(out)
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let mut tally = Tally::default();
    let metrics = if args.trace {
        layers::run(args.seed, args.seconds, &mut tally)?
    } else {
        match args.workload.as_str() {
            "session_grid" => grid::run(args.seed, args.seconds, &mut tally)?,
            "battery_day" => day::run(args.seed, args.seconds, &mut tally)?,
            _ => campaign::run(args.seed, args.seconds, &mut tally)?,
        }
    };
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args).and_then(|(tally, metrics)| {
        let line = result_line(&tally, &metrics)?;
        Ok((tally, metrics, line))
    });
    match outcome {
        Ok((tally, metrics, line)) => {
            println!(
                "workload {} seed {} seconds {} trace {}",
                args.workload,
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            for l in &tally.log {
                println!("{l}");
            }
            for m in &metrics {
                println!("metric {} = {} {}", m.name, m.value, m.unit);
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv("--workload campaign --seed 7 --seconds 12 --trace 1"))
            .expect("valid command line");
        assert_eq!(
            a,
            Args {
                workload: "campaign".into(),
                seed: 7,
                seconds: 12.0,
                trace: true
            }
        );
        let d = parse_args(&argv("--workload battery_day")).expect("defaults");
        assert_eq!(d.seed, DEFAULT_SEED);
        assert!(!d.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload campaign --seconds 0",
            "--workload campaign --trace 2",
            "--workload campaign --seed",
            "--workload campaign --frobnicate 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
