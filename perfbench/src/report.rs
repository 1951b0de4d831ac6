//! Percentiles and the result line.

/// Nearest-rank percentile `p` (0 < p ≤ 1) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// A tail percentile is reported only where at least ten samples lie
/// beyond it; otherwise it is one or two unlucky samples.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= 10
}

/// The median of an unsorted sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
    /// Printed beside the value: what it should move, or a caveat.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// A latency percentile as a metric, with a caveat when the sample does
/// not support it.
pub fn latency(name: &'static str, sorted_ms: &[f64], p: f64) -> Metric {
    let m = Metric::new(name, percentile(sorted_ms, p), "ms", sorted_ms.len());
    if p < 1.0 && p > 0.5 && !supports(sorted_ms.len(), p) {
        let got = beyond(sorted_ms.len(), p);
        m.note(format!(
            "only {got} samples beyond p{:.0}; the rule asks for ten",
            p * 100.0
        ))
    } else {
        m
    }
}

/// The human-readable line for one metric.
pub fn describe(m: &Metric) -> String {
    let mut s = format!(
        "{:<28} {:>14.4} {:<6} n={}",
        m.name, m.value, m.unit, m.samples
    );
    if !m.note.is_empty() {
        s.push_str("  ");
        s.push_str(&m.note);
    }
    s
}

/// Render a finite number as JSON (non-finite values become 0, which the
/// caller's checks never produce for a measured quantity).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p99 needs 1000 samples, p90 needs 100.
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(100, 0.90));
        assert!(!supports(99, 0.90));
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(12, 0.99), 0);
        assert!(latency("x", &[1.0; 12], 0.99)
            .note
            .contains("only 0 samples"));
        assert!(latency("x", &vec![1.0; 2000], 0.99).note.is_empty());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            12,
            0,
            &[
                Metric::new("ops_per_s", 1234.5, "1/s", 12),
                Metric::new("setup_s", 0.25, "s", 5),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(result_line(false, 1, 1, &[Metric::new("m", f64::NAN, "ms", 0)]).contains("0.0"));
    }
}
