//! `next-sim train --out` and `run --table` through the built binary:
//! table files are `NXQT`, and a table whose action count does not
//! match the platform is refused with an error, not a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

use next_mpsoc::qlearn::{encode_table, DenseQTable};

fn next_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_next-sim"))
        .args(args)
        .output()
        .expect("next-sim starts")
}

fn temp_table(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("next-cli-{tag}-{}.qtable", std::process::id()))
}

#[test]
fn trained_table_file_is_nxqt_and_drives_run() {
    let path = temp_table("train");
    let file = path.to_str().expect("UTF-8 temp path");
    let train = next_sim(&[
        "train", "--app", "facebook", "--budget", "60", "--out", file,
    ]);
    assert!(
        train.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&train.stderr)
    );
    let bytes = std::fs::read(&path).expect("table file written");
    assert_eq!(&bytes[..4], b"NXQT");

    let run = next_sim(&[
        "run",
        "--app",
        "facebook",
        "--governor",
        "next",
        "--duration",
        "20",
        "--table",
        file,
    ]);
    std::fs::remove_file(&path).expect("remove table file");
    assert!(
        run.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
}

#[test]
fn table_with_wrong_action_count_is_an_error_not_a_panic() {
    let path = temp_table("wrong-actions");
    let file = path.to_str().expect("UTF-8 temp path");
    // A 12-action table (the m=4 preset's action set) for the m=3 run.
    let mut table = DenseQTable::new(12);
    table.set(3, 11, 1.0);
    std::fs::write(&path, encode_table(&table)).expect("write table file");

    let run = next_sim(&[
        "run",
        "--app",
        "facebook",
        "--governor",
        "next",
        "--duration",
        "20",
        "--table",
        file,
    ]);
    std::fs::remove_file(&path).expect("remove table file");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!(
            "{file}: table has 12 actions, the exynos9810 platform has 9"
        )),
        "stderr: {stderr}"
    );
}
