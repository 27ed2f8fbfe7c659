//! `next-sim` — command-line front end for the simulated platform.
//!
//! ```text
//! next-sim run     --app <name> --governor <schedutil|intqos|next|performance|powersave|ondemand>
//!                  [--duration <s>] [--seed <n>] [--train-budget <s>] [--table <file.qtable>]
//! next-sim train   --app <name> [--budget <s>] [--seed <n>] [--out <file.qtable>]
//! next-sim compare --app <name> [--duration <s>] [--seed <n>] [--train-budget <s>]
//!                  [--table <file.qtable>]
//! next-sim sweep   [--apps <a,b,..|all>] [--governors <g,h,..>] [--seeds <n,m,..>]
//!                  [--duration <s>] [--train-budget <s>] [--workers <n>]
//! next-sim campaign --devices <D> --rounds <R> --seed <S> [--checkpoint <dir> [--resume]]
//!                  [--stop-after <n>] [--shard-size <n>] [--platform <name>[,<name>..]]
//!                  [--quick] [--workers <n>] [--out <campaign.json>]
//! next-sim day     [--persona <p,q,..>] [--governors <g,h,..>] [--seed <n>|--seeds <n,m,..>]
//!                  [--pickups <n>] [--day-length <s>] [--train-budget <s>]
//!                  [--platform <name>] [--quick] [--workers <n>] [--out <day.json>]
//!                  [--trace <day.trace>] [--report <day.html>]
//! next-sim replay  --trace <day.trace> [--workers <n>]
//! next-sim bisect  --a <one.trace> --b <other.trace>
//! next-sim lint    [--format text|json] [--out <lint.json>] [--root <dir>]
//! next-sim apps
//! ```
//!
//! Each command accepts only its own flags: any other flag is a usage
//! error, as is a duration or budget that is not a finite, positive
//! number of seconds.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use next_mpsoc::bench::json::{parse_document, Json};
use next_mpsoc::bench::{campaign as bench_campaign, day as bench_day, report};
use next_mpsoc::governors::{self, IntQosPm, Schedutil};
use next_mpsoc::next_core::{NextAgent, NextConfig};
use next_mpsoc::qlearn::{decode_table, encode_table, DenseQTable};
use next_mpsoc::simkit::campaign::{
    run_campaign_with, CampaignConfig, CampaignOptions, CampaignOutcome,
};
use next_mpsoc::simkit::experiment::{evaluate_governor, train_next_for_app};
use next_mpsoc::simkit::trace::{bisect, TickTrace};
use next_mpsoc::simkit::{day, sweep, Battery, Engine, PlatformPreset, StandardEvaluator, Summary};
use next_mpsoc::workload::{apps, DayPlan, DayPlanConfig, Persona, SessionPlan};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let command = match command.as_str() {
        "--help" | "-h" => "help",
        other => other,
    };
    let Some(&(_, accepted, handler)) = COMMANDS.iter().find(|(name, _, _)| *name == command)
    else {
        eprintln!("error: unknown command '{command}'\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(command, accepted, &args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match handler(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        // Runtime failures (a lint finding, a replay divergence, a bad
        // flag value) are not usage errors: keep the log readable.
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type Handler = fn(&Flags) -> Result<(), String>;

/// Every command with the flags it accepts and its handler. A flag
/// that is not in its command's list is a usage error.
const COMMANDS: [(&str, &[&str], Handler); 13] = [
    (
        "run",
        &[
            "app",
            "governor",
            "duration",
            "seed",
            "train-budget",
            "table",
        ],
        cmd_run,
    ),
    ("train", &["app", "budget", "seed", "out"], cmd_train),
    (
        "compare",
        &["app", "duration", "seed", "train-budget", "table"],
        cmd_compare,
    ),
    (
        "sweep",
        &[
            "apps",
            "governors",
            "seeds",
            "duration",
            "train-budget",
            "workers",
            "platform",
        ],
        cmd_sweep,
    ),
    (
        "campaign",
        &[
            "devices",
            "rounds",
            "seed",
            "checkpoint",
            "resume",
            "stop-after",
            "shard-size",
            "platform",
            "quick",
            "workers",
            "out",
        ],
        cmd_campaign,
    ),
    (
        "day",
        &[
            "persona",
            "governors",
            "seed",
            "seeds",
            "pickups",
            "day-length",
            "train-budget",
            "platform",
            "quick",
            "workers",
            "out",
            "trace",
            "report",
        ],
        cmd_day,
    ),
    ("replay", &["trace", "workers"], cmd_replay),
    ("bisect", &["a", "b"], cmd_bisect),
    ("lint", &["format", "out", "root"], cmd_lint),
    ("personas", &[], |_| {
        print_personas();
        Ok(())
    }),
    ("apps", &[], |_| {
        print_apps();
        Ok(())
    }),
    ("platforms", &[], |_| {
        print_platforms();
        Ok(())
    }),
    ("help", &[], |_| {
        println!("{USAGE}");
        Ok(())
    }),
];

const USAGE: &str = "next-sim: simulate DVFS governors on the Exynos 9810 platform

USAGE:
  next-sim run     --app <name> --governor <gov> [--duration <s>] [--seed <n>]
                   [--train-budget <s>] [--table <file.qtable>]
  next-sim train   --app <name> [--budget <s>] [--seed <n>] [--out <file.qtable>]
  next-sim compare --app <name> [--duration <s>] [--seed <n>] [--train-budget <s>]
                   [--table <file.qtable>]
  next-sim sweep   [--apps <a,b,..|all>] [--governors <g,h,..>] [--seeds <n,m,..>]
                   [--duration <s>] [--train-budget <s>] [--workers <n>]
                   [--platform <name>]
  next-sim campaign [--devices <D>] [--rounds <R>] [--seed <S>]
                   [--checkpoint <dir> [--resume]] [--stop-after <n>]
                   [--shard-size <n>] [--platform <name>[,<name>..]]
                   [--quick] [--workers <n>] [--out <campaign.json>]
  next-sim day     [--persona <p,q,..>] [--governors <g,h,..>] [--seed <n>|--seeds <n,m,..>]
                   [--pickups <n>] [--day-length <s>] [--train-budget <s>]
                   [--platform <name>] [--quick] [--workers <n>] [--out <day.json>]
                   [--trace <day.trace>] [--report <day.html>]
  next-sim replay  --trace <day.trace> [--workers <n>]
  next-sim bisect  --a <one.trace> --b <other.trace>
  next-sim lint    [--format text|json] [--out <lint.json>] [--root <dir>]
  next-sim apps
  next-sim platforms
  next-sim personas

governors: schedutil | intqos | next | performance | powersave | ondemand
platforms: exynos9810 (default, m=3, 9 actions) | exynos9820 (m=4, 12 actions)
personas: gamer | socialite | commuter | reader

train --out writes the trained Q-table as an NXQT binary file; run
--table loads one, whose action count must match the platform's.

sweep runs the full governor x app x seed grid in parallel (defaults:
the six paper apps, schedutil+intqos+next, seed 1000, paper session
lengths, all CPU cores) and prints a deterministic report — identical
bytes for any --workers value.

campaign simulates federated training (§IV-C at scale) over whole
days: every round each device lives its persona's full day (pickups,
session plans, screen-off cooling) on its own SoC power/thermal bin
while training online, uploads its binary Q-table delta (the NXQT
codec — uplink cost is the actual encoded bytes), and the cloud merges
per (platform, app). --platform takes a comma list of distinct names:
devices are assigned platforms round-robin and the cloud keeps one
federated table per platform and app. Devices run in shards so memory
stays bounded at any fleet size. With --checkpoint a versioned NXCP
checkpoint is written after every round; --resume continues a killed
campaign from it, and the final campaign.json (schema v7: rounds
ledger, persona x platform x thermal-bin cohort quantiles,
merged-table artifacts) is byte-identical to an uninterrupted run for
any --workers value. --stop-after N exits gracefully at a round
boundary (the kill half of kill-and-resume); --quick shrinks days for
CI smoke runs. See docs/CAMPAIGN.md.

day simulates a whole waking day (default: 52 pickups, the paper's
Deloitte statistic) as one continuous device: persona-driven app
choices, Deloitte session lengths, screen-off gaps that keep the
thermal model ticking, and per-app Q-tables trained once and reused
(SS IV-B). Every governor replays the identical day, so the JSON
artifact's deltas section is a true battery-day comparison (defaults:
persona gamer, governors next+schedutil, seed 42). Byte-identical
across --workers values. --quick compresses sessions 6x over a 2 h
day for CI smoke runs.

day can also record per-tick traces: --trace writes the first
(plan, governor) cell's binary trace (docs/TRACE_FORMAT.md) and
--report renders every cell into one self-contained HTML viewer
(timeline, thermal traces, per-session PPDW, action heatmap).

replay re-executes a recorded day from the trace's metadata alone and
exits non-zero unless the regenerated trace is byte-identical to the
file — the repository's determinism gate. bisect compares two traces
and reports the first divergent tick with a field-level diff.

lint statically checks every non-vendored .rs file of the workspace
against the determinism rule catalog (docs/LINT.md): ambient time and
entropy, unordered iteration in artifact-producing crates,
completion-order harvesting, panics in library code, unsafe blocks.
Exemptions need an inline `// qlint::allow(RULE, reason = \"...\")`
marker. Exits non-zero on any unsuppressed finding; --format json
writes the versioned lint.json CI archives. Deterministic: identical
bytes for identical trees.

sweep/campaign/day accept --platform to run on a different SoC preset;
run/train/compare always use the paper's exynos9810.

Durations and budgets are seconds: finite and positive, and a session
(--duration) lasts at least one 0.025 s tick. A flag the command does
not accept is an error.";

type Flags = HashMap<String, String>;

/// Flags that take no value; every other flag still requires one, so a
/// forgotten value stays a hard usage error.
const BOOLEAN_FLAGS: [&str; 2] = ["quick", "resume"];

fn parse_flags(command: &str, accepted: &[&str], args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, got '{flag}'"));
        };
        if !accepted.contains(&name) {
            return Err(format!("{command} does not accept --{name}"));
        }
        let value = if BOOLEAN_FLAGS.contains(&name) {
            "true".to_owned()
        } else {
            it.next()
                .ok_or_else(|| format!("--{name} needs a value"))?
                .clone()
        };
        flags.insert(name.to_owned(), value);
    }
    Ok(flags)
}

fn get_f64(flags: &Flags, name: &str, default: f64) -> Result<f64, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: '{v}' is not a number")),
    }
}

/// Reads `--name` as seconds (`default` when absent): finite, positive
/// and at least `min_s`. Session durations pass one engine tick as
/// `min_s`, since a shorter session has no trace to summarise.
fn get_seconds(flags: &Flags, name: &str, default: f64, min_s: f64) -> Result<f64, String> {
    let s = get_f64(flags, name, default)?;
    if s.is_finite() && s > 0.0 && s >= min_s {
        Ok(s)
    } else if min_s > 0.0 {
        Err(format!("--{name} must be at least {min_s} s, got {s}"))
    } else {
        Err(format!(
            "--{name} must be a positive number of seconds, got {s}"
        ))
    }
}

/// The shortest session `--duration` accepts: one engine tick.
fn min_session_s() -> f64 {
    Engine::new().tick_s()
}

fn get_u64(flags: &Flags, name: &str, default: u64) -> Result<u64, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: '{v}' is not an integer")),
    }
}

fn require_platform(flags: &Flags) -> Result<PlatformPreset, String> {
    match flags.get("platform") {
        None => Ok(PlatformPreset::default()),
        Some(name) => PlatformPreset::by_name(name).ok_or_else(|| {
            format!(
                "unknown platform '{name}' (available: {})",
                PlatformPreset::names().join(", ")
            )
        }),
    }
}

fn require_app(flags: &Flags) -> Result<String, String> {
    let app = flags.get("app").ok_or("--app is required")?;
    if apps::by_name(app).is_none() {
        return Err(format!("unknown app '{app}' (see `next-sim apps`)"));
    }
    Ok(app.clone())
}

fn print_summary(label: &str, s: &Summary) {
    let battery = Battery::note9();
    println!(
        "{label:12} {:6.2} W avg | {:5.1} fps | peak big {:5.1} C, device {:5.1} C | \
         {:6.0} J ({:.2} % battery)",
        s.avg_power_w,
        s.avg_fps,
        s.peak_temp_hot_c,
        s.peak_temp_device_c,
        s.energy_j,
        battery.drain_percent(s.energy_j)
    );
}

fn make_next_agent(app: &str, flags: &Flags) -> Result<NextAgent, String> {
    if let Some(path) = flags.get("table") {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        let table: DenseQTable =
            decode_table(&bytes).map_err(|e| format!("parsing {path}: {e}"))?;
        let config = NextConfig::paper();
        let want = config.platform.action_count();
        if table.n_actions() != want {
            return Err(format!(
                "{path}: table has {} actions, the {} platform has {want}",
                table.n_actions(),
                config.platform.name()
            ));
        }
        return Ok(NextAgent::with_table(config, table, false));
    }
    let budget = get_seconds(flags, "train-budget", 600.0, 0.0)?;
    let seed = get_u64(flags, "seed", 7)?;
    eprintln!("training next on {app} (budget {budget} simulated s) ...");
    let out = train_next_for_app(app, NextConfig::paper(), seed, budget);
    eprintln!(
        "trained {:.0} s (converged: {}), {} states",
        out.training_time_s,
        out.converged,
        out.agent.table().len()
    );
    Ok(out.agent)
}

fn cmd_run(flags: &Flags) -> Result<(), String> {
    let app = require_app(flags)?;
    let duration = get_seconds(
        flags,
        "duration",
        SessionPlan::paper_session_length_s(&app),
        min_session_s(),
    )?;
    let seed = get_u64(flags, "seed", 1000)?;
    let plan = SessionPlan::single(&app, duration);
    let gov_name = flags.get("governor").map_or("schedutil", String::as_str);

    let summary = if gov_name == "next" {
        let mut agent = make_next_agent(&app, flags)?;
        evaluate_governor(&mut agent, &plan, seed).summary
    } else {
        let mut governor =
            governors::by_name(gov_name).ok_or_else(|| format!("unknown governor '{gov_name}'"))?;
        evaluate_governor(governor.as_mut(), &plan, seed).summary
    };
    println!("app {app}, {duration:.0} s session, seed {seed}");
    print_summary(gov_name, &summary);
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let app = require_app(flags)?;
    let budget = get_seconds(flags, "budget", 600.0, 0.0)?;
    let seed = get_u64(flags, "seed", 7)?;
    let out = train_next_for_app(&app, NextConfig::paper(), seed, budget);
    println!(
        "trained {app}: {:.0} simulated s, converged: {}, {} states, {} visits",
        out.training_time_s,
        out.converged,
        out.agent.table().len(),
        out.agent.table().total_visits()
    );
    if let Some(path) = flags.get("out") {
        std::fs::write(path, encode_table(out.agent.table()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("table written to {path}");
    }
    Ok(())
}

/// Parses the comma-separated `--seeds` list, falling back to
/// `default` when the flag is absent.
fn parse_seeds(flags: &Flags, default: Vec<u64>) -> Result<Vec<u64>, String> {
    match flags.get("seeds") {
        None => Ok(default),
        Some(v) => v
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("--seeds: '{s}' is not an integer"))
            })
            .collect(),
    }
}

fn parse_list(flags: &Flags, name: &str, default: Vec<String>) -> Vec<String> {
    match flags.get(name) {
        None => default,
        Some(v) => v
            .split(',')
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .collect(),
    }
}

fn cmd_sweep(flags: &Flags) -> Result<(), String> {
    // `apps::all()` is exactly the paper's Fig. 7 grid; `all` also
    // includes the home screen.
    let paper_apps: Vec<String> = apps::all().iter().map(|a| a.name().to_owned()).collect();
    let apps_list: Vec<String> = match flags.get("apps").map(String::as_str) {
        Some("all") => std::iter::once("home".to_owned())
            .chain(paper_apps)
            .collect(),
        _ => parse_list(flags, "apps", paper_apps),
    };
    for app in &apps_list {
        if apps::by_name(app).is_none() {
            return Err(format!("unknown app '{app}' (see `next-sim apps`)"));
        }
    }
    let default_governors = ["schedutil", "intqos", "next"].map(str::to_owned).to_vec();
    let governors = parse_list(flags, "governors", default_governors);
    for gov in &governors {
        if !StandardEvaluator::GOVERNORS.contains(&gov.as_str()) {
            return Err(format!("unknown governor '{gov}'"));
        }
    }
    let seeds = parse_seeds(flags, vec![1000])?;
    let duration = if flags.contains_key("duration") {
        Some(get_seconds(flags, "duration", 0.0, min_session_s())?)
    } else {
        None
    };
    let train_budget = get_seconds(
        flags,
        "train-budget",
        StandardEvaluator::BASE_TRAIN_BUDGET_S,
        0.0,
    )?;
    let workers = usize::try_from(get_u64(flags, "workers", sweep::default_workers() as u64)?)
        .map_err(|_| "--workers out of range".to_owned())?;
    if workers == 0 {
        return Err("--workers must be at least 1".to_owned());
    }

    let preset = require_platform(flags)?;
    let cells = sweep::grid(&apps_list, &governors, &seeds, duration);
    eprintln!(
        "sweeping {} cells ({} apps x {} governors x {} seeds) on {workers} workers, \
         platform {} ...",
        cells.len(),
        apps_list.len(),
        governors.len(),
        seeds.len(),
        preset.name
    );
    // qlint::allow(ND01, reason = "wall-clock progress reporting on stderr; artifacts never contain it")
    let started = std::time::Instant::now();
    let evaluator = StandardEvaluator::prepare_on(&cells, train_budget, workers, preset);
    let rows = sweep::run_cells(&cells, workers, |cell| evaluator.eval(cell));
    eprintln!(
        "sweep finished in {:.1} s wall clock",
        started.elapsed().as_secs_f64()
    );
    print!("{}", sweep::report(&rows));
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn cmd_campaign(flags: &Flags) -> Result<(), String> {
    let devices = usize::try_from(get_u64(flags, "devices", 64)?)
        .map_err(|_| "--devices out of range".to_owned())?;
    let rounds = usize::try_from(get_u64(flags, "rounds", 2)?)
        .map_err(|_| "--rounds out of range".to_owned())?;
    if devices == 0 || rounds == 0 {
        return Err("--devices and --rounds must be at least 1".to_owned());
    }
    let seed = get_u64(flags, "seed", 42)?;
    let quick = flags.contains_key("quick");
    let mut config = if quick {
        CampaignConfig::quick(devices, rounds, seed)
    } else {
        CampaignConfig::new(devices, rounds, seed)
    };
    if let Some(list) = flags.get("platform") {
        let platforms: Vec<String> = list
            .split(',')
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .collect();
        if platforms.is_empty() {
            return Err("--platform needs at least one name".to_owned());
        }
        for name in &platforms {
            if PlatformPreset::by_name(name).is_none() {
                return Err(format!(
                    "unknown platform '{name}' (available: {})",
                    PlatformPreset::names().join(", ")
                ));
            }
        }
        let refs: Vec<&str> = platforms.iter().map(String::as_str).collect();
        config = config.with_platforms(&refs);
    }
    if flags.contains_key("shard-size") {
        let shard = usize::try_from(get_u64(flags, "shard-size", config.shard_size as u64)?)
            .map_err(|_| "--shard-size out of range".to_owned())?;
        if shard == 0 {
            return Err("--shard-size must be at least 1".to_owned());
        }
        config.shard_size = shard;
    }
    let workers = usize::try_from(get_u64(flags, "workers", sweep::default_workers() as u64)?)
        .map_err(|_| "--workers out of range".to_owned())?;
    if workers == 0 {
        return Err("--workers must be at least 1".to_owned());
    }
    let options = CampaignOptions {
        checkpoint_dir: flags.get("checkpoint").map(PathBuf::from),
        resume: flags.contains_key("resume"),
        stop_after: if flags.contains_key("stop-after") {
            let n = usize::try_from(get_u64(flags, "stop-after", 0)?)
                .map_err(|_| "--stop-after out of range".to_owned())?;
            if n == 0 {
                return Err("--stop-after must be at least 1".to_owned());
            }
            Some(n)
        } else {
            None
        },
    };
    if options.resume && options.checkpoint_dir.is_none() {
        return Err("--resume needs --checkpoint <dir>".to_owned());
    }
    if options.stop_after.is_some() && options.checkpoint_dir.is_none() {
        return Err(
            "--stop-after needs --checkpoint <dir> (there is nothing to resume from \
                    otherwise)"
                .to_owned(),
        );
    }
    config.validate()?;

    eprintln!(
        "campaign: {devices} devices x {rounds} rounds on {} ({} cohorts, shard {}), \
         {workers} workers{} ...",
        config.platforms.join("+"),
        config.cohort_count(),
        config.shard_size,
        if options.resume { ", resuming" } else { "" }
    );
    // qlint::allow(ND01, reason = "wall-clock progress reporting on stderr; artifacts never contain it")
    let started = std::time::Instant::now();
    let report = match run_campaign_with(&config, workers, &options)? {
        CampaignOutcome::Paused { rounds_done } => {
            eprintln!(
                "campaign: paused after {rounds_done}/{rounds} round(s), checkpoint on disk; \
                 rerun with --resume to continue"
            );
            return Ok(());
        }
        CampaignOutcome::Complete(report) => report,
    };
    eprintln!(
        "campaign: finished in {:.1} s wall clock; {} device-days, {} merged tables",
        started.elapsed().as_secs_f64(),
        report.device_days(),
        report.tables.len()
    );
    for round in &report.rounds {
        eprintln!(
            "campaign: round {}: {} states / {} visits merged, {} B up / {} B down \
             ({:.1} s comm)",
            round.round,
            round.states,
            round.visits,
            round.uplink_bytes,
            round.downlink_bytes,
            round.comm_s
        );
    }

    let mode = if quick { "quick" } else { "full" };
    let text = bench_campaign::campaign_to_json(&report, mode).render();
    debug_assert!(
        parse_document(&text).is_ok(),
        "campaign.json must round-trip its own schema"
    );
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, format!("{text}\n"))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("campaign: wrote {path}");
        }
        None => println!("{text}"),
    }
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn cmd_day(flags: &Flags) -> Result<(), String> {
    let personas = parse_list(flags, "persona", vec!["gamer".to_owned()]);
    for persona in &personas {
        if Persona::by_name(persona).is_none() {
            return Err(format!(
                "unknown persona '{persona}' (available: {})",
                Persona::names().join(", ")
            ));
        }
    }
    let default_governors = ["next", "schedutil"].map(str::to_owned).to_vec();
    let governors = parse_list(flags, "governors", default_governors);
    for gov in &governors {
        if !StandardEvaluator::GOVERNORS.contains(&gov.as_str()) {
            return Err(format!("unknown governor '{gov}'"));
        }
    }
    let seeds = parse_seeds(flags, vec![get_u64(flags, "seed", 42)?])?;
    let quick = flags.contains_key("quick");
    let mut plan_cfg = if quick {
        DayPlanConfig::quick()
    } else {
        DayPlanConfig::paper()
    };
    if flags.contains_key("pickups") {
        let pickups = get_u64(flags, "pickups", u64::from(plan_cfg.pickups))?;
        plan_cfg.pickups = u32::try_from(pickups).map_err(|_| "--pickups out of range")?;
        if plan_cfg.pickups == 0 {
            return Err("--pickups must be at least 1".to_owned());
        }
    }
    plan_cfg.day_length_s = get_seconds(flags, "day-length", plan_cfg.day_length_s, 0.0)?;
    // Same feasibility rule DayPlan::generate enforces, surfaced as a
    // usage error instead of a panic.
    plan_cfg.validate()?;
    let train_budget = get_seconds(
        flags,
        "train-budget",
        if quick {
            120.0
        } else {
            StandardEvaluator::BASE_TRAIN_BUDGET_S
        },
        0.0,
    )?;
    let preset = require_platform(flags)?;
    let workers = usize::try_from(get_u64(flags, "workers", sweep::default_workers() as u64)?)
        .map_err(|_| "--workers out of range".to_owned())?;
    if workers == 0 {
        return Err("--workers must be at least 1".to_owned());
    }

    let plans: Vec<DayPlan> = personas
        .iter()
        .flat_map(|persona| {
            let persona = Persona::by_name(persona).expect("validated above");
            seeds
                .iter()
                .map(move |&seed| DayPlan::generate(&persona, &plan_cfg, seed))
                .collect::<Vec<_>>()
        })
        .collect();
    eprintln!(
        "day: {} plan(s) x {} governor(s) on {}: {} pickups over {:.1} h, {workers} workers ...",
        plans.len(),
        governors.len(),
        preset.name,
        plan_cfg.pickups,
        plan_cfg.day_length_s / 3_600.0
    );
    // qlint::allow(ND01, reason = "wall-clock progress reporting on stderr; artifacts never contain it")
    let started = std::time::Instant::now();
    // Tracing is opt-in: without --trace/--report the untraced path
    // runs and the recording hook compiles down to nothing.
    let tracing = flags.contains_key("trace") || flags.contains_key("report");
    let (reports, traces) = if tracing {
        let cells = day::run_days_traced(&plans, &governors, &preset, 1.0, train_budget, workers);
        let (reports, traces): (Vec<_>, Vec<_>) = cells.into_iter().unzip();
        (reports, Some(traces))
    } else {
        let reports = day::run_days(&plans, &governors, &preset, 1.0, train_budget, workers);
        (reports, None)
    };
    eprintln!(
        "day: finished in {:.1} s wall clock",
        started.elapsed().as_secs_f64()
    );
    if let Some(traces) = &traces {
        if let Some(path) = flags.get("trace") {
            // One file, one scenario: the first (plan, governor) cell.
            let trace = traces.first().expect("at least one cell");
            std::fs::write(path, trace.encode()).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "day: wrote {path} ({} ticks, cell {} seed {} under {})",
                trace.records.len(),
                trace.meta.persona,
                trace.meta.seed,
                trace.meta.governor
            );
        }
        if let Some(path) = flags.get("report") {
            let cells: Vec<(day::DayReport, TickTrace)> = reports
                .iter()
                .cloned()
                .zip(traces.iter().cloned())
                .collect();
            let html = report::day_html(&cells);
            std::fs::write(path, html).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("day: wrote {path} ({} cells)", cells.len());
        }
    }
    for report in &reports {
        eprintln!(
            "day: {} seed {} {:<10} | {:5.1} min screen-on over {} pickups | \
             {:6.0} J ({:5.2} % battery) | {:4.1} fps | peak {:4.1} C",
            report.plan.persona,
            report.plan.seed,
            report.governor,
            report.screen_on_s / 60.0,
            report.pickup_count(),
            report.energy_total_j(),
            report.battery_drain_pct,
            report.avg_fps,
            report.peak_temp_hot_c
        );
    }

    let mode = if quick { "quick" } else { "full" };
    let text = bench_day::days_to_json(&reports, mode).render();
    debug_assert!(
        parse_document(&text).is_ok(),
        "day.json must round-trip its own schema"
    );
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, format!("{text}\n"))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("day: wrote {path}");
        }
        None => println!("{text}"),
    }
    Ok(())
}

/// Reads and decodes a binary trace file.
fn read_trace(path: &str) -> Result<(Vec<u8>, TickTrace), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let trace = TickTrace::decode(&bytes).map_err(|e| format!("parsing {path}: {e}"))?;
    Ok((bytes, trace))
}

fn cmd_replay(flags: &Flags) -> Result<(), String> {
    let path = flags.get("trace").ok_or("--trace is required")?;
    let (bytes, recorded) = read_trace(path)?;
    let workers = usize::try_from(get_u64(flags, "workers", sweep::default_workers() as u64)?)
        .map_err(|_| "--workers out of range".to_owned())?;
    if workers == 0 {
        return Err("--workers must be at least 1".to_owned());
    }
    eprintln!(
        "replay: {} ticks — {} day, seed {}, {} on {} ...",
        recorded.records.len(),
        recorded.meta.persona,
        recorded.meta.seed,
        recorded.meta.governor,
        recorded.meta.platform
    );
    // qlint::allow(ND01, reason = "wall-clock progress reporting on stderr; artifacts never contain it")
    let started = std::time::Instant::now();
    let (_report, replayed) = day::replay_day(&recorded.meta, workers)?;
    eprintln!(
        "replay: re-executed in {:.1} s wall clock",
        started.elapsed().as_secs_f64()
    );
    let replayed_bytes = replayed.encode();
    if replayed_bytes == bytes {
        println!(
            "replay: OK — {} ticks byte-identical to {path}",
            replayed.records.len()
        );
        return Ok(());
    }
    // Show where it went wrong before failing.
    let report = bisect(&recorded, &replayed);
    eprintln!("{}", report.render());
    Err(format!("replay diverged from {path}"))
}

fn cmd_bisect(flags: &Flags) -> Result<(), String> {
    let path_a = flags.get("a").ok_or("--a is required")?;
    let path_b = flags.get("b").ok_or("--b is required")?;
    let (_, trace_a) = read_trace(path_a)?;
    let (_, trace_b) = read_trace(path_b)?;
    let report = bisect(&trace_a, &trace_b);
    println!("{}", report.render());
    if report.is_identical() {
        Ok(())
    } else {
        Err(format!("{path_a} and {path_b} diverge"))
    }
}

fn cmd_lint(flags: &Flags) -> Result<(), String> {
    let root = flags.get("root").map_or(".", String::as_str);
    let format = flags.get("format").map_or("text", String::as_str);
    if !matches!(format, "text" | "json") {
        return Err(format!("--format must be 'text' or 'json', got '{format}'"));
    }
    let report = next_mpsoc::qlint::lint_workspace(std::path::Path::new(root))
        .map_err(|e| format!("walking {root}: {e}"))?;
    let text = match format {
        "json" => {
            let json = report.to_json().render();
            debug_assert!(Json::parse(&json).is_ok(), "lint.json must be valid JSON");
            format!("{json}\n")
        }
        _ => report.render_text(),
    };
    // The artifact (or text report) is written even when the gate
    // fails, so CI can archive the findings it is failing on.
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("lint: wrote {path}");
        }
        None => print!("{text}"),
    }
    if report.is_clean() {
        eprintln!(
            "lint: clean — {} file(s), {} suppression(s)",
            report.files_scanned, report.suppressed
        );
        Ok(())
    } else {
        // On JSON-to-file runs the findings are only in the artifact;
        // repeat them on stderr so the CI log names the lines.
        if flags.get("out").is_some() || format == "json" {
            eprint!("{}", report.render_text());
        }
        Err(format!("lint: {} finding(s)", report.findings.len()))
    }
}

fn cmd_compare(flags: &Flags) -> Result<(), String> {
    let app = require_app(flags)?;
    let duration = get_seconds(
        flags,
        "duration",
        SessionPlan::paper_session_length_s(&app),
        min_session_s(),
    )?;
    let seed = get_u64(flags, "seed", 1000)?;
    let plan = SessionPlan::single(&app, duration);

    println!("app {app}, {duration:.0} s session, seed {seed}\n");
    let sched = evaluate_governor(&mut Schedutil::new(), &plan, seed).summary;
    print_summary("schedutil", &sched);
    if apps::is_game(&app) {
        let qos = evaluate_governor(&mut IntQosPm::new(), &plan, seed).summary;
        print_summary("int-qos-pm", &qos);
    }
    let mut agent = make_next_agent(&app, flags)?;
    let next = evaluate_governor(&mut agent, &plan, seed).summary;
    print_summary("next", &next);
    println!(
        "\nnext saves {:.1} % vs schedutil",
        next.power_saving_vs(&sched)
    );
    Ok(())
}

fn print_personas() {
    for &name in Persona::names() {
        let persona = Persona::by_name(name).expect("shipped persona");
        println!("{name}: apps=[{}]", persona.apps().join(", "));
    }
}

fn print_apps() {
    println!("home");
    for app in apps::all() {
        println!("{}", app.name());
    }
}

fn print_platforms() {
    for &name in PlatformPreset::names() {
        let preset = PlatformPreset::by_name(name).expect("shipped preset");
        let platform = &preset.soc.platform;
        let domains: Vec<String> = platform
            .domains()
            .iter()
            .map(|d| format!("{}({})", d.name, d.table.len()))
            .collect();
        println!(
            "{name}: m={} actions={} domains=[{}]",
            platform.n_domains(),
            platform.action_count(),
            domains.join(", ")
        );
    }
}
