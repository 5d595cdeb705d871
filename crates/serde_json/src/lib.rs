//! Offline, deterministic subset of the
//! [serde_json](https://docs.rs/serde_json) API.
//!
//! Backed by the vendored `serde` stub's [`Value`] data model. It
//! serializes only: nothing in the workspace parses JSON.
//!
//! Output is **byte-stable**, which the golden-snapshot suite depends
//! on. Object keys keep insertion order and floats render via Rust's
//! shortest-round-trip formatter (with a `.0` suffix forced onto
//! integral values, so they still read as floats), so equal `Value`
//! trees always produce identical text.
//!
//! Non-finite floats are rejected at serialization time (JSON has no
//! representation for them), matching real serde_json's behaviour.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use serde::Serialize;
pub use serde::{Error, Value};

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Serializes to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    emit(&value.to_value(), None, 0, &mut out)?;
    Ok(out)
}

/// Serializes to human-readable JSON text (two-space indent, trailing
/// newline — the artifact format under `results/`).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    emit(&value.to_value(), Some(2), 0, &mut out)?;
    out.push('\n');
    Ok(out)
}

fn emit(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => {
            if !x.is_finite() {
                return Err(Error::msg(format!("non-finite float {x} has no JSON form")));
            }
            let s = format!("{x}");
            out.push_str(&s);
            // Keep the float-ness visible in the text.
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Value::Str(s) => emit_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                emit(item, indent, depth + 1, out)?;
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                emit_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                emit(item, indent, depth + 1, out)?;
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn emit_string(s: &str, out: &mut String) {
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

    fn sample() -> Value {
        Value::Object(vec![
            ("name".into(), Value::Str("fig09 \"quoted\"\n".into())),
            ("count".into(), Value::U64(18446744073709551615)),
            ("delta".into(), Value::I64(-42)),
            ("ratio".into(), Value::F64(0.1)),
            ("whole".into(), Value::F64(2.0)),
            ("flag".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            (
                "rows".into(),
                Value::Array(vec![Value::U64(1), Value::F64(1.5)]),
            ),
            ("empty".into(), Value::Array(vec![])),
        ])
    }

    #[test]
    fn output_is_stable() {
        let a = to_string_pretty(&sample()).unwrap();
        let b = to_string_pretty(&sample()).unwrap();
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        assert_eq!(
            to_string(&sample()).unwrap(),
            r#"{"name":"fig09 \"quoted\"\n","count":18446744073709551615,"delta":-42,"ratio":0.1,"whole":2.0,"flag":true,"none":null,"rows":[1,1.5],"empty":[]}"#
        );
    }

    #[test]
    fn integral_floats_stay_floats() {
        assert_eq!(to_string(&Value::F64(2.0)).unwrap(), "2.0");
        assert_eq!(
            to_string(&Value::F64(6.02e23)).unwrap(),
            format!("{}.0", 6.02e23)
        );
    }

    #[test]
    fn shortest_float_text_matches_display() {
        for &x in &[0.1, 1.0 / 3.0, 5e-324, 2.5e-7, -1.25] {
            let text = to_string(&Value::F64(x)).unwrap();
            assert_eq!(text, format!("{x}"));
            assert_eq!(text.parse::<f64>().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        assert!(to_string(&Value::F64(f64::NAN)).is_err());
        assert!(to_string(&Value::F64(f64::INFINITY)).is_err());
    }
}
