//! Percentiles, medians and the tiny JSON writer the benchmark reports with (the workspace
//! carries no serde).

/// One reported metric: a value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The median of `values` (the mean of the middle two for an even count); `0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The `q` quantile of `values` (`0 <= q <= 1`), interpolated between the two nearest ranks;
/// `0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// A latency summary: the median and a tail percentile, over `n` samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    /// The tail value: the requested percentile when at least ten samples lie beyond it,
    /// otherwise the highest percentile that still has ten samples beyond it.
    pub tail: f64,
    /// The percentile `tail` was read at (e.g. `0.99`).
    pub tail_q: f64,
}

/// Summarizes `samples` (any unit) with the median and the `want` percentile, backed off to
/// the highest percentile with at least ten samples beyond it (never below the median).
pub fn latency(samples: &mut [u64], want: f64) -> Latency {
    let n = samples.len();
    if n == 0 {
        return Latency::default();
    }
    samples.sort_unstable();
    let at = |q: f64| samples[((q * (n - 1) as f64).round() as usize).min(n - 1)] as f64;
    let tail_q = want.min(1.0 - 10.0 / n as f64).max(0.5);
    Latency { n, p50: at(0.5), tail: at(tail_q), tail_q }
}

/// Renders a JSON string literal.
pub fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
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

/// Renders a finite number for JSON (non-finite values, which JSON cannot carry, become `0`).
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_backs_off_to_what_the_sample_supports() {
        let mut samples: Vec<u64> = (1..=2000).collect();
        let l = latency(&mut samples, 0.99);
        assert_eq!((l.n, l.tail_q), (2000, 0.99));
        assert_eq!(l.p50, 1001.0);
        let mut few: Vec<u64> = (1..=100).collect();
        let l = latency(&mut few, 0.99);
        assert!((l.tail_q - 0.9).abs() < 1e-9, "100 samples support p90, not p99");
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
    }

    #[test]
    fn json_escapes_and_drops_non_finite_numbers() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(f64::NAN), "0");
        let m = metrics_json(&[metric("x", 1.5, "ms")]);
        assert_eq!(m, "{\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}");
    }
}
