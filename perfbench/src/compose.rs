//! `compose-8x8`: the 8×8 mesh (directory 9, queue 2) cut one tile per
//! node and checked compositionally, flat fallback off.
//!
//! Set-up is `QueryEngine::compose` plus the first (cold) check.  One
//! operation is one warm `Composition::check` at capacity 2: 64 tile
//! certifications through the composition's warm-engine pool plus the
//! boundary check.  The run is split into segments, each with its own
//! set-up, so set-up and operations both sample the host's speed phases.

use std::sync::Arc;
use std::time::{Duration, Instant};

use advocat::prelude::*;

use crate::layers::{self, ms_since, BuildLayers, PerClass};
use crate::oracle::COMPOSED_8X8;
use crate::report::median;
use crate::sizing::check_config;
use crate::{host, Outcome, RunConfig};

/// Set-up segments of an untraced run.
const SEGMENTS: usize = 2;
/// Fewest warm checks an untraced run makes: twenty, so the median has
/// ten samples beyond it.
const MIN_OPS: usize = 20;
/// Fewest warm checks in each half of a traced run (per-layer values are
/// medians per check; no percentile is reported from them).
const TRACED_MIN_OPS: usize = 8;
/// Worker threads for tile certification.  Set explicitly because peak
/// memory grows with the worker count.
const WORKERS: usize = 2;

/// The 8×8 fabric: directory at node 9, an interior node, so the cut has
/// exactly four structural tile classes.
fn fabric() -> FabricConfig {
    FabricConfig::new(Topology::mesh(8, 8).expect("8x8 mesh"), 2).with_directory(9)
}

fn options(telemetry: &Telemetry) -> ComposeOptions {
    ComposeOptions::new(2..=2)
        .with_check(check_config(telemetry))
        .with_flat_fallback(0)
        .with_workers(host::workers(WORKERS))
}

/// Whether a composed report and the session counters after `checks`
/// composed checks match the oracle.
fn is_expected(report: &Report, stats: &ComposeStats, checks: u64) -> bool {
    report.is_deadlock_free() == COMPOSED_8X8.free
        && !matches!(report.verdict(), Verdict::Unknown)
        && report.attribution().is_some() == COMPOSED_8X8.attributed
        && stats.tiles == COMPOSED_8X8.tiles
        && stats.distinct_classes == COMPOSED_8X8.classes
        && stats.engines_built == COMPOSED_8X8.cold_builds
        && stats.warm_hits == checks * COMPOSED_8X8.tiles as u64 - COMPOSED_8X8.cold_builds
        && stats.flat_fallbacks == 0
}

/// A composition with its first check done: the set-up of a segment.
struct Session {
    composition: Composition,
    checks: u64,
    setup_s: f64,
}

impl Session {
    fn open(telemetry: &Telemetry, outcome: &mut Outcome) -> Session {
        let start = Instant::now();
        let partition = Arc::new(Partition::per_node(&fabric().topology));
        let mut composition =
            QueryEngine::compose(fabric(), partition, options(telemetry)).expect("8x8 tiles build");
        let report = composition.check(&Query::new().capacity(2));
        let setup_s = start.elapsed().as_secs_f64();
        outcome.attempted += 1;
        if !is_expected(&report, &composition.stats(), 1) {
            outcome.failed += 1;
        }
        Session {
            composition,
            checks: 1,
            setup_s,
        }
    }

    /// One warm check: its wall time in ms and its report.
    fn check(&mut self, outcome: &mut Outcome) -> (f64, Report) {
        let start = Instant::now();
        let report = self.composition.check(&Query::new().capacity(2));
        let ms = ms_since(start);
        self.checks += 1;
        outcome.attempted += 1;
        if !is_expected(&report, &self.composition.stats(), self.checks) {
            outcome.failed += 1;
        }
        (ms, report)
    }
}

/// Runs `segments` segments of set-up plus warm checks for `seconds` and
/// at least `min_ops` checks in all, returning the set-up samples (s)
/// and operation times (ms).
fn measure(
    seconds: u64,
    segments: usize,
    min_ops: usize,
    telemetry: &Telemetry,
    outcome: &mut Outcome,
    mut opened: impl FnMut(),
    mut each: impl FnMut(&Session, &Report),
) -> (Vec<f64>, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut op_ms = Vec::new();
    let per_segment = Duration::from_secs(seconds).div_f64(segments as f64);
    let min_ops = min_ops.div_ceil(segments);
    for _ in 0..segments {
        let mut session = Session::open(telemetry, outcome);
        setup_s.push(session.setup_s);
        opened();
        let start = Instant::now();
        let mut ops = 0;
        while ops < min_ops || start.elapsed() < per_segment {
            let (ms, report) = session.check(outcome);
            each(&session, &report);
            op_ms.push(ms);
            ops += 1;
            if ops == min_ops {
                // Peak memory over a fixed amount of work: set-up plus
                // `min_ops` checks of the first composition (later ones
                // reuse the heap the first one freed).
                outcome.peak_rss_mb = outcome.peak_rss_mb.or_else(host::peak_rss_mb);
            }
        }
        outcome.ref_ms.push(host::ref_loop_ms());
    }
    (setup_s, op_ms)
}

/// The untraced run: end-to-end metrics.
pub fn run(config: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let disabled = Telemetry::disabled();
    let (setup_s, op_ms) = measure(
        config.seconds,
        SEGMENTS,
        MIN_OPS,
        &disabled,
        &mut outcome,
        || {},
        |_, _| {},
    );
    let ops_per_s = op_ms.len() as f64 / (op_ms.iter().sum::<f64>() / 1e3);
    outcome.set_end_to_end(&setup_s, &op_ms, ops_per_s);
    outcome
}

/// The traced run: per-layer metrics.  An untraced segment and a traced
/// one each take half the time; the build layers are timed from outside
/// for all 64 tiles before and after them.
pub fn run_traced(config: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let mut per_class = PerClass::default();
    let invariants = time_tiles(&mut per_class);

    let disabled = Telemetry::disabled();
    let mut counts = Vec::new();
    let (_, untraced) = measure(
        config.seconds / 2,
        1,
        TRACED_MIN_OPS,
        &disabled,
        &mut outcome,
        || {},
        // Counts of the first warm check, untraced (an enabled telemetry
        // handle changes the solver's search path): the engines' query
        // sequence is fixed by the pool's ticket turnstile, so they repeat.
        |session, report| {
            if counts.is_empty() {
                let stats = &report.analysis().stats;
                let pool = session.composition.stats();
                counts = vec![
                    ("logic.sat_conflicts", stats.sat_conflicts),
                    ("logic.sat_propagations", stats.sat_propagations),
                    ("logic.refinements", stats.refinements),
                    ("deadlock.linear_atoms", stats.linear_atoms as u64),
                    ("compose.engines_built", pool.engines_built),
                    ("compose.warm_hits", pool.warm_hits),
                ];
            }
        },
    );

    let (telemetry, trace) = Telemetry::ring(1 << 20);
    let (_, traced) = measure(
        config.seconds.div_ceil(2),
        1,
        TRACED_MIN_OPS,
        &telemetry,
        &mut outcome,
        // The set-up's spans are not an operation's.
        || drop(trace.drain()),
        |_, _| {
            telemetry.flush();
            let spans = layers::closed_spans(&trace.drain());
            let total =
                |name: &str| -> f64 { spans.iter().filter(|s| s.name == name).map(|s| s.ms).sum() };
            per_class.add("check", "deadlock.check_ms", total("query.check"));
            per_class.add("check", "compose.certify_ms", total("compose.certify"));
            per_class.add("check", "compose.boundary_ms", total("compose.boundary"));
        },
    );
    time_tiles(&mut per_class);

    let m = &mut outcome.metrics;
    layers::build_metrics(&per_class, m);
    m.set("invariants.count", invariants as f64, "count");
    for name in [
        "deadlock.check_ms",
        "compose.certify_ms",
        "compose.boundary_ms",
    ] {
        m.set(name, per_class.unit_sum(name), "ms");
    }
    for (name, value) in counts {
        m.set(name, value as f64, "count");
    }
    m.set(
        "telemetry.overhead",
        median(&untraced) / median(&traced),
        "ratio",
    );
    outcome.samples = traced.len();
    outcome
}

/// Times the build layers from outside, as the composition does them:
/// fabric, colors and invariants for all 64 tiles (`QueryEngine::compose`),
/// an encoding template for one tile per structural class (the pool's
/// cold engines).  One class per tile; returns the invariants derived
/// over all tiles.
fn time_tiles(per_class: &mut PerClass) -> usize {
    let config = fabric();
    let partition = Partition::per_node(&config.topology);
    let mut classes = Vec::new();
    let mut invariants = 0;
    for tile in 0..partition.num_tiles() {
        let class = partition.tile_class_digest(&config, tile);
        let template = (!classes.contains(&class)).then_some(2..=2);
        classes.push(class);
        let layers =
            BuildLayers::measure(|| build_tile_fabric(&config, &partition, tile), template)
                .expect("8x8 tiles build");
        layers.record(per_class, &format!("tile{tile}"));
        invariants += layers.invariants;
    }
    invariants
}
