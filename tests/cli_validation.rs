//! Usage errors through the built binary. A flag the command does not
//! accept, a duration or budget that is not a finite, positive number
//! of seconds (a session: at least one 0.025 s tick), and a day longer
//! than 24 h exit 1 with a message naming the flag or the field: never
//! a panic, never a silent run, never a run that does not end.

use std::process::Command;

#[test]
fn bad_flags_and_seconds_exit_1_naming_the_flag() {
    let cases: [(&[&str], &str); 16] = [
        (
            &[
                "run",
                "--app",
                "spotify",
                "--governor",
                "schedutil",
                "--duraton",
                "5",
            ],
            "--duraton",
        ),
        (
            &["run", "--app", "spotify", "--duration", "inf"],
            "--duration",
        ),
        (
            &["run", "--app", "spotify", "--duration", "NaN"],
            "--duration",
        ),
        (
            &["run", "--app", "spotify", "--duration", "-5"],
            "--duration",
        ),
        (
            &["run", "--app", "spotify", "--duration", "0.01"],
            "--duration",
        ),
        (
            &["compare", "--app", "spotify", "--duration", "0"],
            "--duration",
        ),
        (
            &["train", "--app", "spotify", "--budget", "NaN"],
            "--budget",
        ),
        (&["train", "--app", "spotify", "--budget", "-1"], "--budget"),
        (
            &[
                "run",
                "--app",
                "spotify",
                "--governor",
                "next",
                "--train-budget",
                "NaN",
            ],
            "--train-budget",
        ),
        (&["sweep", "--train-budget", "-5"], "--train-budget"),
        (&["sweep", "--duration", "0.01"], "--duration"),
        (
            &["day", "--quick", "--train-budget", "inf"],
            "--train-budget",
        ),
        (&["day", "--day-length", "0"], "--day-length"),
        (&["day", "--day-length", "1e300"], "day length"),
        (&["apps", "--quick"], "--quick"),
        (&["perf", "--quick"], "unknown command 'perf'"),
    ];
    for (args, needle) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_next-sim"))
            .args(args)
            .output()
            .expect("next-sim starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.contains(needle),
            "{args:?} must name {needle}: {stderr}"
        );
    }
}

#[test]
fn one_tick_is_the_shortest_session() {
    let out = Command::new(env!("CARGO_BIN_EXE_next-sim"))
        .args(["run", "--app", "spotify", "--duration", "0.025"])
        .output()
        .expect("next-sim starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
