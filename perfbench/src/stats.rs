//! Order statistics and the result line.

use std::fmt::Write;

/// The median (mean of the two middle values for an even count); 0 for no
/// samples.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, `100 * (n - 10) / n`; 100 when fewer than twenty
    /// samples exist and the value is the maximum.
    pub percentile: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The tail of `values`: the eleventh-largest sample.  Below twenty
/// samples that percentile would sit at or under the median, so the
/// maximum is reported instead.
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    if n >= 20 {
        Tail {
            value: sorted[n - 11],
            percentile: 100.0 * (n - 10) as f64 / n as f64,
            samples: n,
        }
    } else {
        Tail {
            value: sorted.last().copied().unwrap_or(0.0),
            percentile: 100.0,
            samples: n,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (index, metric) in metrics.iter().enumerate() {
        let separator = if index == 0 { "" } else { ", " };
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        write!(
            line,
            "{separator}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        )
        .expect("writing to a String cannot fail");
    }
    line.push_str("}}");
    line
}
