//! Hand-rolled JSON string escaping and value formatting.
//!
//! The build environment has no registry access, so the exporters write
//! JSON by hand; this module keeps the escaping rules in one place.

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with quotes),
/// escaping quotes, backslashes, and control characters per RFC 8259.
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an `f64` as a JSON number (JSON has no NaN/Infinity; those
/// degrade to `0`).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{:.1}", v)
        } else {
            format!("{v}")
        }
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let literal = |s: &str| {
            let mut out = String::new();
            push_json_string(&mut out, s);
            out
        };
        assert_eq!(literal("plain"), r#""plain""#);
        assert_eq!(literal("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(literal("line\nbreak\ttab"), r#""line\nbreak\ttab""#);
        assert_eq!(literal("\u{01}"), "\"\\u0001\"");
        assert_eq!(literal("héllo"), "\"héllo\"");
    }

    #[test]
    fn numbers_are_json_safe() {
        assert_eq!(json_f64(3.0), "3.0");
        assert_eq!(json_f64(3.25), "3.25");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
    }
}
