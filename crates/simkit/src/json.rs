//! Minimal JSON emission for machine-readable artifacts (metrics
//! registries, Chrome trace files). Numbers use Rust's
//! shortest-roundtrip float formatting; non-finite floats become `null`.
//! Used by the trace exporter ([`crate::trace::chrome_trace_json`]) and
//! the metrics registry ([`crate::stats::MetricsRegistry`]).

/// Escape a string for a JSON string literal (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON value.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Incrementally built JSON object.
#[derive(Debug, Default)]
pub struct Obj {
    fields: Vec<String>,
}

impl Obj {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a pre-rendered JSON value.
    pub fn raw(mut self, key: &str, value: &str) -> Self {
        self.fields.push(format!("\"{}\": {value}", escape(key)));
        self
    }

    /// Add a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        let v = format!("\"{}\"", escape(value));
        self.raw(key, &v)
    }

    /// Add an integer field.
    pub fn int(self, key: &str, value: u64) -> Self {
        let v = value.to_string();
        self.raw(key, &v)
    }

    /// Add a float field.
    pub fn num(self, key: &str, value: f64) -> Self {
        let v = num(value);
        self.raw(key, &v)
    }

    /// Add an array of pre-rendered values.
    pub fn arr(self, key: &str, values: &[String]) -> Self {
        let v = format!("[{}]", values.join(", "));
        self.raw(key, &v)
    }

    /// Render as `{...}`.
    pub fn build(&self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }

    /// Render indented at top level (one field per line).
    pub fn build_pretty(&self) -> String {
        let mut out = String::from("{\n");
        for (i, f) in self.fields.iter().enumerate() {
            out.push_str("  ");
            out.push_str(f);
            if i + 1 < self.fields.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_object_renders() {
        let o = Obj::new()
            .str("name", "fig7 \"sweep\"")
            .int("threads", 8)
            .num("speedup", 3.5)
            .arr("xs", &[num(1.0), num(2.5)]);
        assert_eq!(
            o.build(),
            r#"{"name": "fig7 \"sweep\"", "threads": 8, "speedup": 3.5, "xs": [1, 2.5]}"#
        );
        assert!(o.build_pretty().contains("\n  \"threads\": 8,\n"));
    }

    #[test]
    fn json_non_finite_is_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
