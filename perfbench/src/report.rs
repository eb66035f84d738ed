//! Sample statistics, metric records and the result lines the benchmark
//! prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples` by linear interpolation
/// between closest ranks, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it (so the median needs 20 samples and the 90th
/// percentile 100).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let beyond = (samples.len() as f64 * (1.0 - q) + 1e-9).floor() as usize;
    if beyond < MIN_BEYOND {
        return None;
    }
    Some(quantile(samples, q))
}

/// The `q`-quantile of `samples` with no sample-count rule; `NaN` when
/// `samples` is empty.  Used for robust summaries inside the benchmark
/// (medians of per-scenario samples), never for a reported percentile.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples` (`NaN` when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and holds at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// An ordered set of named metrics, each with a unit.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    entries: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`, replacing an earlier value.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or unit, or a non-finite value: these
    /// are bugs in the benchmark.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} for {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.insert(name, (value, unit));
    }

    /// Records the `q`-quantile of `samples` as `name` when the
    /// sample-count rule allows it; returns whether it did.
    pub fn set_percentile(
        &mut self,
        name: &str,
        samples: &[f64],
        q: f64,
        unit: &'static str,
    ) -> bool {
        match percentile(samples, q) {
            Some(value) => {
                self.set(name, value, unit);
                true
            }
            None => false,
        }
    }

    /// The unit `name` was recorded in, if it was recorded.
    pub fn unit(&self, name: &str) -> Option<&'static str> {
        self.entries.get(name).map(|(_, unit)| *unit)
    }

    /// Moves the metrics named in `names` into a new set, leaving the
    /// rest here.
    pub fn split_off(&mut self, names: &[&str]) -> Metrics {
        let mut picked = Metrics::default();
        for name in names {
            if let Some(entry) = self.entries.remove(*name) {
                picked.entries.insert((*name).to_owned(), entry);
            }
        }
        picked
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (value, unit))) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples() {
        let samples: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), None);
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        let p90 = percentile(&samples, 0.9).expect("100 samples leave 10 beyond p90");
        assert!((p90 - 89.1).abs() < 1e-9, "{p90}");
        assert!(samples.iter().filter(|s| **s > p90).count() >= MIN_BEYOND);
    }

    #[test]
    fn the_median_needs_twenty_samples() {
        let samples: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), None);
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(10.5));
    }

    #[test]
    fn set_percentile_skips_thin_tails() {
        let mut metrics = Metrics::default();
        let samples: Vec<f64> = (0..50).map(f64::from).collect();
        assert!(metrics.set_percentile("op_ms.p50", &samples, 0.5, "ms"));
        assert!(!metrics.set_percentile("op_ms.p90", &samples, 0.9, "ms"));
        assert_eq!(metrics.unit("op_ms.p50"), Some("ms"));
        assert_eq!(metrics.unit("op_ms.p90"), None);
    }

    #[test]
    fn names_and_units_follow_the_rules() {
        for good in ["setup_s", "op_ms.p50", "core.study_ms.mesi-ring4", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".hidden", "has space", "slash/name", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "s", "1/s", "count", "%", "MB", "ratio"] {
            assert!(valid_unit(good), "{good}");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 0.5, "s");
        metrics.set("ops_per_s", 12.25, "1/s");
        let line = result_line(true, 3, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 12.25, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
