//! A minimal owned JSON value.
//!
//! [`Json`] is enough to render the registry dump
//! ([`crate::Registry::render_json`]) and the incident reports built on
//! it (stamped with [`SCHEMA_VERSION`]) without pulling a serde
//! dependency into the workspace.

/// Version stamp of the incident-report envelope.
pub const SCHEMA_VERSION: i64 = 1;

/// A minimal owned JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (rendered without a decimal point).
    Int(i64),
    /// A float (rendered via `{}`; NaN/inf degrade to `null`).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An ordered object (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Renders compact-but-readable JSON (two-space indent).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 1e15 {
                        out.push_str(&format!("{n:.1}"));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.render_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    Json::Str(key.clone()).render_into(out, depth + 1);
                    out.push_str(": ");
                    value.render_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let j = Json::str("a\"b\\c\nd");
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn nested_values_render_deterministically() {
        let j = Json::Obj(vec![
            ("arr".to_owned(), Json::Arr(vec![Json::Int(1), Json::Null])),
            ("empty".to_owned(), Json::Obj(vec![])),
            ("flag".to_owned(), Json::Bool(true)),
        ]);
        let text = j.render();
        assert_eq!(
            text,
            "{\n  \"arr\": [\n    1,\n    null\n  ],\n  \"empty\": {},\n  \"flag\": true\n}"
        );
    }
}
