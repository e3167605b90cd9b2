//! Prometheus text exposition (format version 0.0.4).
//!
//! Hand-rolled like the workspace's JSON writer: the output is a plain
//! string, one metric per line, `# TYPE` comments per family. Names
//! and label names are sanitized to the Prometheus grammar and label
//! values are backslash-escaped, so arbitrary registered names (e.g. a
//! route path used as a label) cannot corrupt the exposition.

use crate::metrics::{HistogramSnapshot, MetricValue, MetricsSnapshot};
use std::fmt::Write;

/// Maps `name` onto the Prometheus metric-name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` by replacing invalid characters with
/// `_` (and prefixing `_` if the first character is a digit).
#[must_use]
pub(crate) fn sanitize_metric_name(name: &str) -> String {
    sanitize(name, true)
}

/// Maps `name` onto the label-name grammar `[a-zA-Z_][a-zA-Z0-9_]*`
/// (like [`sanitize_metric_name`] but `:` is not allowed).
#[must_use]
pub(crate) fn sanitize_label_name(name: &str) -> String {
    sanitize(name, false)
}

fn sanitize(name: &str, allow_colon: bool) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let valid = c.is_ascii_alphabetic()
            || c == '_'
            || (allow_colon && c == ':')
            || (i > 0 && c.is_ascii_digit());
        if c.is_ascii_digit() && i == 0 {
            out.push('_');
            out.push(c);
        } else if valid {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value for `name{key="value"}` position: backslash,
/// double quote and newline are backslash-escaped.
#[must_use]
pub(crate) fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders a snapshot as Prometheus text exposition.
#[must_use]
pub(crate) fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_family: Option<(String, &'static str)> = None;
    for entry in &snapshot.entries {
        let name = sanitize_metric_name(&entry.name);
        let kind = match &entry.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        if last_family.as_ref().map(|(n, k)| (n.as_str(), *k)) != Some((name.as_str(), kind)) {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_family = Some((name.clone(), kind));
        }
        match &entry.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                let labels = render_labels(&entry.labels, None);
                let _ = writeln!(out, "{name}{labels} {v}");
            }
            MetricValue::Histogram(h) => render_histogram(&mut out, &name, &entry.labels, h),
        }
    }
    out
}

/// Emits the `_bucket`/`_sum`/`_count` series of one histogram. Empty
/// buckets are skipped (the `le` bounds need not be dense), but the
/// mandatory `+Inf` bucket always appears and cumulative counts stay
/// non-decreasing.
fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    h: &HistogramSnapshot,
) {
    let mut cumulative = 0u64;
    let last = h.buckets.len() - 1;
    for (i, &bucket) in h.buckets.iter().enumerate() {
        cumulative = cumulative.wrapping_add(bucket);
        if bucket == 0 && i != last {
            continue;
        }
        let le = if i == last {
            "+Inf".to_string()
        } else {
            // Bucket i holds values of bit length i: upper bound 2^i - 1.
            ((1u128 << i) - 1).to_string()
        };
        let labels = render_labels(labels, Some(&le));
        let _ = writeln!(out, "{name}_bucket{labels} {cumulative}");
    }
    let plain = render_labels(labels, None);
    let _ = writeln!(out, "{name}_sum{plain} {}", h.sum);
    let _ = writeln!(out, "{name}_count{plain} {}", h.count);
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}=\"{}\"",
            sanitize_label_name(k),
            escape_label_value(v)
        );
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_metric_name("dd.apply-time"), "dd_apply_time");
        assert_eq!(sanitize_metric_name("0weird"), "_0weird");
        assert_eq!(sanitize_metric_name("ok:name_9"), "ok:name_9");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_label_name("a:b"), "a_b");
        assert_eq!(sanitize_label_name("phase"), "phase");
    }

    #[test]
    fn escapes_label_values() {
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_label_value("plain"), "plain");
    }

    #[test]
    fn renders_counters_gauges_and_type_lines() {
        let registry = MetricsRegistry::new();
        registry
            .counter_with("reqs_total", &[("route", "/jobs")])
            .add(2);
        registry
            .counter_with("reqs_total", &[("route", "/stats")])
            .inc();
        registry.gauge("queue_depth").set(4);
        let text = registry.render_prometheus();
        // One TYPE line per family even with two label sets.
        assert_eq!(text.matches("# TYPE reqs_total counter").count(), 1);
        assert!(text.contains("reqs_total{route=\"/jobs\"} 2"));
        assert!(text.contains("reqs_total{route=\"/stats\"} 1"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth 4"));
    }

    #[test]
    fn renders_histogram_cumulative_buckets() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram_with("lat", &[("phase", "x")]);
        h.observe(0);
        h.observe(1);
        h.observe(5); // bucket 3 (le 7)
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains("lat_bucket{phase=\"x\",le=\"0\"} 1"));
        assert!(text.contains("lat_bucket{phase=\"x\",le=\"1\"} 2"));
        assert!(text.contains("lat_bucket{phase=\"x\",le=\"7\"} 3"));
        assert!(text.contains("lat_bucket{phase=\"x\",le=\"+Inf\"} 3"));
        assert!(text.contains("lat_sum{phase=\"x\"} 6"));
        assert!(text.contains("lat_count{phase=\"x\"} 3"));
        // Empty intermediate buckets are skipped.
        assert!(!text.contains("le=\"3\""));
    }

    #[test]
    fn invalid_name_cannot_corrupt_exposition() {
        let registry = MetricsRegistry::new();
        registry
            .counter_with("bad name\n# TYPE", &[("k\"ey", "v\"al\nue")])
            .inc();
        let text = registry.render_prometheus();
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE") || line.starts_with("bad_name"),
                "unexpected line: {line}"
            );
        }
        assert!(text.contains("bad_name___TYPE{k_ey=\"v\\\"al\\nue\"} 1"));
    }
}
