//! End-to-end and per-layer benchmark of the ADVOCAT verifier.
//!
//! ```text
//! perfbench --workload <compose-8x8|service-http|sizing> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of a separate traced run.  The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it is a detail
//! object with everything else the run measured (sample counts, the
//! 90th percentile where it has ten samples beyond it, workload-specific
//! layer metrics).  See `README.md` next to this file.

mod compose;
mod host;
mod jobs;
mod layers;
mod oracle;
mod report;
mod service;
mod sizing;

use report::{median, result_line, Metrics};

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.ref_ms", "ms"),
    ("telemetry.overhead", "ratio"),
    ("noc.build_ms", "ms"),
    ("automata.colors_ms", "ms"),
    ("invariants.derive_ms", "ms"),
    ("invariants.count", "count"),
    ("deadlock.template_ms", "ms"),
    ("deadlock.check_ms", "ms"),
    ("logic.sat_conflicts", "count"),
    ("logic.sat_propagations", "count"),
];

/// The workloads `BENCHMARK.json` declares, in its order.
pub const DECLARED: &[&str] = &["compose-8x8", "service-http"];

/// Every workload the benchmark runs: the declared ones plus `sizing`,
/// which is left out of `BENCHMARK.json` because its run-to-run spread on
/// the 2-core machine it was measured on exceeds the widest bound
/// `BENCHMARK.json` may set (see `README.md`), but stays runnable by hand.
pub const WORKLOADS: &[&str] = &["compose-8x8", "service-http", "sizing"];

/// The command-line arguments of one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl RunConfig {
    /// Parses `--workload w --seed n --seconds s --trace 0|1`.
    pub fn parse(args: &[String]) -> Result<RunConfig, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
            ));
        }
        Ok(RunConfig {
            workload,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10).max(1),
            trace: trace.unwrap_or(false),
        })
    }
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured part.
    pub attempted: u64,
    /// Operations that failed: a wrong verdict, an error, a refused or
    /// timed-out request.
    pub failed: u64,
    /// Timing samples behind the percentiles.
    pub samples: usize,
    /// Everything the run measured; the metrics of the contract list go
    /// on the result line, the rest on the detail line.
    pub metrics: Metrics,
    /// Reference-loop readings taken through the run.
    pub ref_ms: Vec<f64>,
    /// Peak resident memory, when the workload reads it before the end of
    /// the run (after its first segment); otherwise read at the end.
    pub peak_rss_mb: Option<f64>,
}

impl Outcome {
    /// Records the end-to-end metrics shared by every workload from the
    /// set-up samples (seconds), the per-operation times (ms) and the
    /// throughput.
    pub fn set_end_to_end(&mut self, setup_s: &[f64], op_ms: &[f64], ops_per_s: f64) {
        self.samples = op_ms.len();
        self.metrics.set("setup_s", median(setup_s), "s");
        self.metrics.set("ops_per_s", ops_per_s, "1/s");
        self.metrics.set_percentile("op_ms.p50", op_ms, 0.5, "ms");
        self.metrics.set_percentile("op_ms.p90", op_ms, 0.9, "ms");
        self.metrics
            .set("setup.samples", setup_s.len() as f64, "count");
    }
}

fn run(config: &RunConfig) -> Outcome {
    let mut outcome = match (config.workload.as_str(), config.trace) {
        ("sizing", false) => sizing::run(config),
        ("sizing", true) => sizing::run_traced(config),
        ("compose-8x8", false) => compose::run(config),
        ("compose-8x8", true) => compose::run_traced(config),
        ("service-http", false) => service::run(config),
        ("service-http", true) => service::run_traced(config),
        _ => unreachable!("workload names are checked by RunConfig::parse"),
    };
    outcome.ref_ms.push(host::ref_loop_ms());
    let ref_ms = median(&outcome.ref_ms);
    let attempted = outcome.attempted.max(1) as f64;
    let m = &mut outcome.metrics;
    m.set("samples", outcome.samples as f64, "count");
    m.set("fail_ratio", outcome.failed as f64 / attempted, "ratio");
    m.set("host.cores", host::cores() as f64, "count");
    m.set("host.ref_ms", ref_ms, "ms");
    if !config.trace {
        if let Some(mb) = outcome.peak_rss_mb.or_else(host::peak_rss_mb) {
            m.set("peak_rss_mb", mb, "MB");
        }
    }
    outcome
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match RunConfig::parse(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let outcome = run(&config);
    let expected = if config.trace { PER_LAYER } else { END_TO_END };
    let names: Vec<&str> = expected.iter().map(|(name, _)| *name).collect();
    // The contract metrics go on the result line; whatever else the run
    // measured goes on the detail line, so nothing measured is lost.
    let mut detail = outcome.metrics;
    let metrics = detail.split_off(&names);
    // A declared metric the run did not measure, or measured in another
    // unit, is a bug in the benchmark: no result line then.
    let missing: Vec<&str> = expected
        .iter()
        .filter(|(name, unit)| metrics.unit(name) != Some(*unit))
        .map(|(name, _)| *name)
        .collect();
    println!(
        "{{\"detail\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"metrics\": {}}}}}",
        config.workload,
        config.seed,
        config.trace,
        detail.to_json(),
    );
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not measured as declared: {missing:?}");
        std::process::exit(1);
    }
    let correct = outcome.failed == 0;
    println!(
        "{}",
        result_line(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
    if !correct {
        eprintln!("perfbench: {} operations failed", outcome.failed);
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{valid_name, valid_unit};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn arguments_parse_as_benchmark_json_passes_them() {
        let config = RunConfig::parse(&args(&[
            "--workload",
            "sizing",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(config.workload, "sizing");
        assert_eq!((config.seed, config.seconds, config.trace), (7, 15, true));
        assert!(RunConfig::parse(&args(&["--workload", "nope"])).is_err());
        assert!(RunConfig::parse(&args(&["--workload", "sizing", "--trace", "2"])).is_err());
        assert!(RunConfig::parse(&args(&["--seed", "1"])).is_err());
    }

    #[test]
    fn every_declared_metric_has_a_valid_name_and_unit() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
        }
    }

    /// The metric lists here and in `BENCHMARK.json` at the repository
    /// root agree, names and units.
    #[test]
    fn the_declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |name: &str, unit: &str| {
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                declared(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for workload in DECLARED {
            assert!(
                json.contains(&format!("\"name\": \"{workload}\"")),
                "{workload}"
            );
        }
        let entries = json.matches("\"name\": ").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len() + DECLARED.len());
    }
}
