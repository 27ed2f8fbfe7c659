//! Workspace file discovery and classification.
//!
//! Files are walked in **sorted path order** and reported with
//! workspace-relative, forward-slash paths, so the findings list — and
//! therefore `lint.json` — is byte-identical across runs, machines and
//! environment variation. `vendor/` (offline dependency stand-ins),
//! `target/` and dot-directories are never entered.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::engine::{FileContext, FileKind};

/// Crates whose output bytes CI pins (fixtures, day/campaign
/// artifacts): `HashMap`/`HashSet` iteration inside them is an ND03
/// hazard. Directory names under `crates/`.
pub const ARTIFACT_CRATES: [&str; 4] = ["bench", "core", "qlearn", "simkit"];

/// Directory names never entered during the walk.
const SKIP_DIRS: [&str; 2] = ["target", "vendor"];

/// Recursively collects every `.rs` file under `root`, skipping
/// vendored and generated trees, as sorted workspace-relative paths.
///
/// # Errors
///
/// Returns any I/O error from reading a directory.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    files.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Derives the linting context for one workspace-relative path.
#[must_use]
pub fn classify(rel_path: &str) -> FileContext {
    // `crates/<name>/<rest>` → member crate; anything else → facade.
    let (crate_dir, rest) = match rel_path.strip_prefix("crates/") {
        Some(tail) => match tail.split_once('/') {
            Some((name, rest)) => (name, rest),
            None => (tail, ""),
        },
        None => ("", rel_path),
    };
    let kind = if rest.starts_with("tests/") {
        FileKind::Test
    } else if rest.starts_with("benches/") {
        FileKind::Bench
    } else if rest.starts_with("examples/") {
        FileKind::Example
    } else if rest.starts_with("src/bin/") {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    FileContext {
        kind,
        artifact: ARTIFACT_CRATES.contains(&crate_dir),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_layout() {
        let cases = [
            ("crates/qlearn/src/backend.rs", FileKind::Lib, true),
            (
                "crates/bench/src/bin/fig4_ppdw_trend.rs",
                FileKind::Bin,
                true,
            ),
            (
                "crates/bench/benches/qtable_backends.rs",
                FileKind::Bench,
                true,
            ),
            ("crates/mpsoc/tests/properties.rs", FileKind::Test, false),
            ("crates/governors/src/intqos.rs", FileKind::Lib, false),
            ("src/lib.rs", FileKind::Lib, false),
            ("src/bin/next_sim.rs", FileKind::Bin, false),
            ("tests/end_to_end.rs", FileKind::Test, false),
            ("examples/quickstart.rs", FileKind::Example, false),
        ];
        for (path, kind, artifact) in cases {
            let ctx = classify(path);
            assert_eq!(ctx.kind, kind, "{path}");
            assert_eq!(ctx.artifact, artifact, "{path}");
        }
    }
}
