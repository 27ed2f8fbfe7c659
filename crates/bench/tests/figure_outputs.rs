//! Byte pins of the figure and ablation binaries.
//!
//! Every `fig*` and `ablate_*` binary prints its tables on stdout (its
//! training telemetry goes to stderr) and is deterministic, in debug
//! and release alike. Each test runs one binary and compares its stdout
//! byte for byte with the copy under `tests/fixtures/`, so a change that
//! moves any figure or ablation number fails here. Re-capture a fixture
//! only on purpose:
//! `cargo run --release --bin <name> > crates/bench/tests/fixtures/<name>.txt`.

use std::process::Command;

fn assert_stdout_pinned(name: &str, exe: &str, fixture: &str) {
    let out = Command::new(exe).output().expect("binary starts");
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        stdout == fixture,
        "{name} stdout differs from tests/fixtures/{name}.txt:\n{stdout}"
    );
}

macro_rules! pinned_binaries {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        fn $bin() {
            assert_stdout_pinned(
                stringify!($bin),
                env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
                include_str!(concat!("fixtures/", stringify!($bin), ".txt")),
            );
        }
    )*};
}

pinned_binaries!(
    fig1_schedutil_trace,
    fig3_next_vs_schedutil,
    fig4_ppdw_trend,
    fig6_training_time,
    fig7_power_comparison,
    fig8_thermal_comparison,
    ablate_boost,
    ablate_epsilon,
    ablate_reward,
    ablate_throttle,
    ablate_transfer,
    ablate_window,
);
