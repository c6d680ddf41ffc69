//! Named metrics and the two output lines: a detail line (environment
//! header, every metric with its base and sample count, workload
//! properties, unavailable numbers, tracing overhead) and the final
//! result line, whose format `BENCHMARK.json` consumers read.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// What the number is a share, ratio or count of — e.g. `"per
    /// flow"`, `"4 flows"`, `"18 points / 6 checkpoints"`.
    pub base: String,
    /// How many measurements the value summarizes.
    pub samples: usize,
}

impl Metric {
    pub fn new(
        name: &str,
        value: f64,
        unit: &'static str,
        base: impl Into<String>,
        samples: usize,
    ) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            base: base.into(),
            samples,
        }
    }
}

/// Whether `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok_char)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// A number as JSON: shortest round-trip digits, non-finite as `null`.
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u, "base": b, "samples": n}, ...}`.
pub fn detailed(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"base\": {}, \"samples\": {}}}",
                quote(&m.name),
                num(m.value),
                quote(m.unit),
                quote(&m.base),
                m.samples
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The final result line: exactly `correct`, `attempted`, `failed`
/// and `metrics` (each metric as `{"value", "unit"}`).
///
/// # Panics
///
/// Panics on an illegal metric name — a bug in this benchmark.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(valid_name(&m.name), "illegal metric name {:?}", m.name);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_restricted() {
        for ok in [
            "setup_s",
            "place.legalize_s",
            "router.builds_per_key",
            "p-99",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "serve p99",
            "a/b",
            "lat(ms)",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let line = result_line(
            true,
            12,
            0,
            &[Metric::new("latency_p50_ms", 1.25, "ms", "per request", 12)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \
             \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "illegal metric name")]
    fn result_line_refuses_illegal_names() {
        let _ = result_line(true, 1, 0, &[Metric::new("a b", 1.0, "s", "", 1)]);
    }
}
