//! Output formats: the one-line JSON result the runner prints last, and
//! the line protocol a probe process uses to hand its metrics and spans to
//! the runner.

use crate::trace::Tracer;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run's result object. A non-finite value cannot be written as JSON;
/// it makes the run incorrect and is written as 0.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                if m.value.is_finite() { m.value } else { 0.0 },
                json_string(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && finite,
        body.join(", ")
    )
}

/// Print a probe's metrics and spans, one per line:
/// `M <name> <value> <unit>` and `S <name> <start_ns> <end_ns>`.
pub fn emit_probe(metrics: &[Metric], tracer: &Tracer) {
    for s in tracer.spans() {
        println!("S {} {} {}", s.name, s.start_ns, s.end_ns);
    }
    for m in metrics {
        println!("M {} {} {}", m.name, m.value, m.unit);
    }
}

/// A probe's output, parsed back: metrics and `(name, start, end)` spans.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ProbeOutput {
    /// Metrics the probe measured.
    pub metrics: Vec<Metric>,
    /// Spans, ns since the probe's own start.
    pub spans: Vec<(String, u64, u64)>,
}

/// Parse probe stdout; lines that are not protocol lines are ignored.
pub fn parse_probe(stdout: &str) -> ProbeOutput {
    let mut out = ProbeOutput::default();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["M", name, value, unit] => {
                if let Ok(v) = value.parse::<f64>() {
                    out.metrics.push(Metric::new(name, v, unit));
                }
            }
            ["S", name, start, end] => {
                if let (Ok(s), Ok(e)) = (start.parse(), end.parse()) {
                    out.spans.push((name.to_string(), s, e));
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[
                Metric::new("latency_ms", 1.25, "ms"),
                Metric::new("n", 3.0, "count"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"n\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let line = result_line(true, 1, 0, &[Metric::new("x", f64::NAN, "s")]);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(line.contains("\"value\": 0"));
    }

    #[test]
    fn probe_protocol_round_trips() {
        let text = "noise\nS probe.x 5 9\nM ps.kv_pull_us_per_batch 12.5 us\n";
        let p = parse_probe(text);
        assert_eq!(p.spans, vec![("probe.x".to_string(), 5, 9)]);
        assert_eq!(
            p.metrics,
            vec![Metric::new("ps.kv_pull_us_per_batch", 12.5, "us")]
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
