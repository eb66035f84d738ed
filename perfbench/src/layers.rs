//! Layer attribution for traced runs: the build layers timed from
//! outside around their public entry points, the spans the program
//! already emits, and per-class medians that add up to one unit of a
//! workload.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::time::Instant;

use advocat::prelude::*;

use crate::report::{median, Metrics};

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Samples grouped by class (a scenario, a tile, a job case).  A metric's
/// value is the sum over classes of the per-class median: one unit of
/// the workload, robust to slow host phases hitting single samples.
#[derive(Clone, Debug, Default)]
pub struct PerClass {
    samples: BTreeMap<String, BTreeMap<&'static str, Vec<f64>>>,
}

impl PerClass {
    /// Adds one sample of `metric` for `class`.
    pub fn add(&mut self, class: &str, metric: &'static str, value: f64) {
        self.samples
            .entry(class.to_owned())
            .or_default()
            .entry(metric)
            .or_default()
            .push(value);
    }

    /// Σ over classes of the median of `metric` (classes without samples
    /// of it count zero).
    pub fn unit_sum(&self, metric: &str) -> f64 {
        self.samples
            .values()
            .filter_map(|m| m.get(metric))
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .sum()
    }

    /// The median of `metric` for one class, if it has samples.
    pub fn class_median(&self, class: &str, metric: &str) -> Option<f64> {
        let samples = self.samples.get(class)?.get(metric)?;
        (!samples.is_empty()).then(|| median(samples))
    }
}

/// Wall time of each build layer for one fabric, timed around its public
/// entry point, plus the sizes they produced.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildLayers {
    /// `build_fabric_for_sweep` / `build_tile_fabric`.
    pub noc_ms: f64,
    /// `derive_colors`.
    pub colors_ms: f64,
    /// `derive_invariants`.
    pub invariants_ms: f64,
    /// `EncodingTemplate::build`, when the template was built.
    pub template_ms: Option<f64>,
    /// Invariants derived.
    pub invariants: usize,
}

impl BuildLayers {
    /// Times the layers below `QueryEngine::with_config` for a system
    /// produced by `build`, with the encoding template over `capacities`
    /// when they are given.
    pub fn measure(
        build: impl FnOnce() -> Result<System, FabricError>,
        capacities: Option<RangeInclusive<usize>>,
    ) -> Result<BuildLayers, FabricError> {
        let start = Instant::now();
        let system = build()?;
        let noc_ms = ms_since(start);
        let start = Instant::now();
        let colors = derive_colors(&system);
        let colors_ms = ms_since(start);
        let start = Instant::now();
        let invariants = derive_invariants(&system, &colors);
        let invariants_ms = ms_since(start);
        let template_ms = capacities.map(|capacities| {
            let start = Instant::now();
            let template = EncodingTemplate::build(&system, &colors, &invariants, capacities);
            let ms = ms_since(start);
            std::hint::black_box(&template);
            ms
        });
        Ok(BuildLayers {
            noc_ms,
            colors_ms,
            invariants_ms,
            template_ms,
            invariants: invariants.len(),
        })
    }

    /// Adds this fabric's timings to `class` of `per_class`.
    pub fn record(&self, per_class: &mut PerClass, class: &str) {
        per_class.add(class, "noc.build_ms", self.noc_ms);
        per_class.add(class, "automata.colors_ms", self.colors_ms);
        per_class.add(class, "invariants.derive_ms", self.invariants_ms);
        if let Some(ms) = self.template_ms {
            per_class.add(class, "deadlock.template_ms", ms);
        }
    }
}

/// The build-layer metrics of one unit, from per-class medians.
pub fn build_metrics(per_class: &PerClass, metrics: &mut Metrics) {
    for name in [
        "noc.build_ms",
        "automata.colors_ms",
        "invariants.derive_ms",
        "deadlock.template_ms",
    ] {
        metrics.set(name, per_class.unit_sum(name), "ms");
    }
}

/// One closed span read back from a JSON-lines trace.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Span name (`query.check`, `job.execute`, ...).
    pub name: String,
    /// Span id.
    pub id: u64,
    /// Parent span id, when the span had one on its thread.
    pub parent: Option<u64>,
    /// Duration in milliseconds.
    pub ms: f64,
}

/// The `"key":<number>` value of a raw trace line.
fn num_field(line: &str, key: &str) -> Option<u64> {
    let rest = line.split(&format!("\"{key}\":")).nth(1)?;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// The `"key":"<text>"` value of a raw trace line.
pub fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.split(&format!("\"{key}\":\"")).nth(1)?;
    rest.split('"').next()
}

/// The closed spans of `lines`, in exit order, with the parent links
/// their `enter` records carry.
pub fn closed_spans(lines: &[String]) -> Vec<SpanRecord> {
    let enters = entered(lines);
    lines
        .iter()
        .filter(|line| line.starts_with("{\"type\":\"exit\""))
        .filter_map(|line| {
            let id = num_field(line, "span")?;
            Some(SpanRecord {
                name: str_field(line, "name")?.to_owned(),
                id,
                parent: enters.get(&id).and_then(|enter| num_field(enter, "parent")),
                ms: num_field(line, "dur_us")? as f64 / 1e3,
            })
        })
        .collect()
}

/// The `enter` lines of `lines` keyed by span id, for reading a span's
/// parent and fields.
pub fn entered(lines: &[String]) -> BTreeMap<u64, &str> {
    lines
        .iter()
        .filter(|line| line.starts_with("{\"type\":\"enter\""))
        .filter_map(|line| Some((num_field(line, "span")?, line.as_str())))
        .collect()
}

/// Total SAT-phase time of a solver profile, in milliseconds.
pub fn sat_ms(profile: Option<&SolverProfile>) -> f64 {
    profile.map_or(0.0, |p| p.attributed_time().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_sums_add_class_medians() {
        let mut per_class = PerClass::default();
        for v in [1.0, 100.0, 3.0] {
            per_class.add("a", "x_ms", v);
        }
        per_class.add("b", "x_ms", 10.0);
        assert_eq!(per_class.unit_sum("x_ms"), 13.0);
        assert_eq!(per_class.class_median("a", "x_ms"), Some(3.0));
        assert_eq!(per_class.unit_sum("missing"), 0.0);
    }

    #[test]
    fn spans_parse_from_the_trace_schema() {
        let (telemetry, trace) = Telemetry::ring(64);
        {
            let _outer = telemetry.span_with("job.execute", || vec![("name", "n".to_owned())]);
            let _inner = telemetry.span("query.check");
        }
        telemetry.flush();
        let lines = trace.lines();
        let spans = closed_spans(&lines);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "query.check");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, None);
        let enters = entered(&lines);
        assert_eq!(str_field(enters[&spans[1].id], "name"), Some("job.execute"));
    }
}
