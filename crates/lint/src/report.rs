//! Lint report rendering: deterministic text and versioned
//! `lint.json` (via [`bench::json`], the house JSON emitter).

use bench::json::Json;

use crate::engine::Finding;
use crate::rules::ALL_RULES;

/// `lint.json` schema version. Bump on any structural change and keep
/// the parser accepting older versions.
pub const SCHEMA_VERSION: u64 = 1;

/// The outcome of linting a workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Unsuppressed findings, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of findings suppressed by `qlint::allow` markers.
    pub suppressed: usize,
}

impl Report {
    /// Whether the tree is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Plain-text rendering: one `file:line:col: RULE: message` row per
    /// finding plus a one-line summary. Byte-identical for a given
    /// tree — no wall-clock times or environment data.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write;

        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}:{}: {}: {}",
                f.file,
                f.line,
                f.col,
                f.rule.code(),
                f.message
            );
        }
        let _ = writeln!(
            out,
            "lint: {} file(s) scanned, {} finding(s), {} suppressed by qlint::allow",
            self.files_scanned,
            self.findings.len(),
            self.suppressed
        );
        out
    }

    /// The versioned `lint.json` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let rules = ALL_RULES
            .into_iter()
            .map(|r| {
                Json::Obj(vec![
                    ("id".into(), Json::str(r.code())),
                    ("summary".into(), Json::str(r.summary())),
                    ("invariant".into(), Json::str(r.invariant())),
                ])
            })
            .collect();
        let findings = self
            .findings
            .iter()
            .map(|f| {
                Json::Obj(vec![
                    ("rule".into(), Json::str(f.rule.code())),
                    ("file".into(), Json::str(f.file.clone())),
                    ("line".into(), Json::num(f64::from(f.line))),
                    ("col".into(), Json::num(f64::from(f.col))),
                    ("message".into(), Json::str(f.message.clone())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema_version".into(), Json::num_u64(SCHEMA_VERSION)),
            ("tool".into(), Json::str("qlint")),
            (
                "summary".into(),
                Json::Obj(vec![
                    (
                        "files_scanned".into(),
                        Json::num_u64(self.files_scanned as u64),
                    ),
                    ("findings".into(), Json::num_u64(self.findings.len() as u64)),
                    ("suppressed".into(), Json::num_u64(self.suppressed as u64)),
                ]),
            ),
            ("rules".into(), Json::Arr(rules)),
            ("findings".into(), Json::Arr(findings)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    fn sample() -> Report {
        Report {
            findings: vec![Finding {
                rule: RuleId::Nd01,
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                col: 14,
                message: "`Instant::now` reads the wall clock".into(),
            }],
            files_scanned: 2,
            suppressed: 1,
        }
    }

    #[test]
    fn text_rows_carry_position_and_rule() {
        let text = sample().render_text();
        assert!(text.contains("crates/x/src/lib.rs:3:14: ND01:"), "{text}");
        assert!(text.contains("2 file(s) scanned, 1 finding(s), 1 suppressed"));
    }

    #[test]
    fn json_is_valid_and_versioned() {
        let json = sample().to_json();
        let text = json.render();
        let back = Json::parse(&text).expect("own rendering parses");
        assert_eq!(back, json, "render∘parse fixpoint");
        assert_eq!(
            back.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(
            back.get("rules")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(ALL_RULES.len())
        );
        let findings = back
            .get("findings")
            .and_then(Json::as_array)
            .expect("findings");
        assert_eq!(findings[0].get("rule").and_then(Json::as_str), Some("ND01"));
        assert_eq!(findings[0].get("line").and_then(Json::as_u64), Some(3));
    }
}
