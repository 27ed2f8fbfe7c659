//! Minimal JSON tree and emitter (no external dependencies).
//!
//! `day.json`, `campaign.json` and qlint's `lint.json` are rendered
//! through it; the build has no crates.io access, so this module
//! implements the small JSON subset they need: objects, arrays,
//! strings, finite numbers, booleans and null. The program writes JSON
//! and never reads it back.
//!
//! Emission always goes through [`Json::render`], so an artifact built
//! as a [`Json`] tree is valid JSON by construction. Tests read the
//! tree through the accessors ([`Json::get`], [`Json::as_f64`], …)
//! before it renders.

use std::fmt::Write as _;

/// A JSON value. Object keys keep insertion order so rendered
/// artifacts are deterministic and diff-friendly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has no NaN/infinity).
    Num(f64),
    /// An unsigned integer that is *not* exactly representable as an
    /// `f64` (above 2^53 and off the even grid). Kept as a separate
    /// variant so device/state totals at 10⁶-campaign scale render
    /// digit for digit instead of being rounded at an `as f64` cast.
    /// Construct via [`Json::num_u64`], which picks `Num` whenever the
    /// value is exactly representable — so existing artifacts never
    /// change.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor: a number.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not finite (JSON cannot represent it).
    #[must_use]
    pub fn num(n: f64) -> Json {
        assert!(n.is_finite(), "JSON numbers must be finite, got {n}");
        Json::Num(n)
    }

    /// Convenience constructor: a string.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor: an unsigned integer count.
    ///
    /// Values that survive an `f64` round-trip exactly become
    /// [`Json::Num`] (identical bytes to every pre-existing artifact);
    /// only values that `f64` would round — above 2^53 and between the
    /// representable even multiples — get the lossless [`Json::Int`]
    /// variant.
    #[must_use]
    pub fn num_u64(v: u64) -> Json {
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        {
            let f = v as f64;
            // `u64::MAX as f64` rounds up to 2^64; the float→int cast
            // back would *saturate* to u64::MAX and fake a match, so
            // values that round to 2^64 are excluded before the cast.
            if f < u64::MAX as f64 && f as u64 == v {
                Json::Num(f)
            } else {
                Json::Int(v)
            }
        }
    }

    /// Member of an object by key (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one. [`Json::Int`]
    /// values above 2^53 are rounded to the nearest `f64`; use
    /// [`Json::as_u64`] when exactness matters.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer, if it is one: either an
    /// [`Json::Int`], or a [`Json::Num`] holding a non-negative value
    /// with no fractional part.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        #[allow(clippy::cast_precision_loss)]
        match self {
            Json::Int(v) => Some(*v),
            // `u64::MAX as f64` rounds up to 2^64, which does not fit;
            // the strict `<` keeps the cast in range.
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact JSON (no insignificant whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                debug_assert!(n.is_finite());
                // Integral values print without a fraction; everything
                // else uses shortest-roundtrip f64 formatting.
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{n:.0}");
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Version of the schema family of `day.json` and `campaign.json`:
/// both declare it in their `schema` field. Bump it when a field is
/// added or changes meaning.
pub const SCHEMA_VERSION: u32 = 7;

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_fixpoint() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::num(1.0)),
            ("name".into(), Json::str("perf \"smoke\"\nline2")),
            ("ok".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
            (
                "cells".into(),
                Json::Arr(vec![
                    Json::num(1200.0),
                    Json::num(0.025),
                    Json::num(-3.5e-7),
                ]),
            ),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"schema":1,"name":"perf \"smoke\"\nline2","ok":true,"nothing":null,"cells":[1200,0.025,-0.00000035]}"#
        );
        assert_eq!(doc.get("schema").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            doc.get("cells").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn integral_numbers_render_without_fraction() {
        assert_eq!(Json::num(1200.0).render(), "1200");
        assert_eq!(Json::num(0.5).render(), "0.5");
        assert_eq!(Json::num(-7.0).render(), "-7");
    }

    #[test]
    fn large_integer_counts_roundtrip_exactly() {
        // 2^53 is the last contiguous f64 integer; 2^53 + 1 is the
        // first count an `as f64` cast silently rounds. Campaign
        // totals (visits across 10⁶ device-days) live beyond it.
        const EXACT: u64 = 1 << 53;
        for v in [EXACT + 1, EXACT + 123_457, u64::MAX - 1, u64::MAX] {
            let json = Json::num_u64(v);
            assert_eq!(json, Json::Int(v), "{v} is not f64-exact");
            assert_eq!(json.render(), v.to_string(), "raw digits, no rounding");
            assert_eq!(json.as_u64(), Some(v), "{v} must survive the trip");
        }
        // Exactly representable values keep the historical Num form —
        // byte-for-byte identical artifacts.
        for v in [0u64, 1, 1_000_000, EXACT, EXACT + 2] {
            #[allow(clippy::cast_precision_loss)]
            let expected = Json::Num(v as f64);
            assert_eq!(Json::num_u64(v), expected);
            assert_eq!(Json::num_u64(v).as_u64(), Some(v));
            assert_eq!(Json::num_u64(v).render(), v.to_string());
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "tab\there \\ \"quoted\" ctrl:\u{1} nl\n";
        assert_eq!(
            Json::str(s).render(),
            r#""tab\there \\ \"quoted\" ctrl:\u0001 nl\n""#
        );
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_numbers_rejected_at_construction() {
        let _ = Json::num(f64::NAN);
    }
}
