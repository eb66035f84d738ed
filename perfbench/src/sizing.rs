//! `sizing`: cold capacity studies on one thread, as a closed loop.
//!
//! Each study builds `QueryEngine::for_fabric`, checks every capacity of
//! its range, then runs `minimal_capacity`.  One operation is one check;
//! the engine build is charged to the study's first check, so operation
//! times include the cold time to a first verdict.  Studies cycle
//! round-robin through the fixed scenario set (the seed picks the
//! starting scenario), and the run ends on a pass boundary, so every run
//! measures the same mix of checks.

use std::ops::RangeInclusive;
use std::time::Instant;

use advocat::prelude::*;

use crate::layers::{self, ms_since, BuildLayers, PerClass};
use crate::oracle::{self, Fabric, Protocol, Shape, Target};
use crate::report::Metrics;
use crate::{host, Outcome, RunConfig};

/// One capacity study of the fixed scenario set.
pub struct Scenario {
    /// Metric-safe name.
    pub name: &'static str,
    /// The fabric (and its pinned threshold in the oracle table).
    pub fabric: Fabric,
    /// The capacities the study checks and sizes over.
    pub range: RangeInclusive<usize>,
}

/// The fixed scenario set, in round-robin order.
pub const SCENARIOS: [Scenario; 7] = [
    Scenario {
        name: "ami-mesh2x2",
        fabric: oracle::AMI_MESH_2X2,
        range: 1..=4,
    },
    Scenario {
        name: "fullmi-mesh2x2",
        fabric: oracle::FULL_MI_MESH_2X2,
        range: 1..=8,
    },
    Scenario {
        name: "mesi-mesh2x2",
        fabric: oracle::MESI_MESH_2X2,
        range: 1..=4,
    },
    Scenario {
        name: "mesi-ring4",
        fabric: oracle::MESI_RING_4,
        range: 1..=4,
    },
    Scenario {
        name: "mesi-torus2x2",
        fabric: oracle::MESI_TORUS_2X2,
        range: 1..=4,
    },
    Scenario {
        name: "ami-torus2x2",
        fabric: oracle::AMI_TORUS_2X2,
        range: 1..=4,
    },
    Scenario {
        name: "ami-mesh3x3",
        fabric: oracle::AMI_MESH_3X3,
        range: 1..=6,
    },
];

/// Fewest complete passes a run makes.  Two passes already give more
/// than 100 checks (so the 90th percentile has ten samples beyond it);
/// three make every per-scenario median robust to one slow sample.
const MIN_PASSES: usize = 3;

/// Whether a run that started at `start` is over after `passes` passes:
/// at least [`MIN_PASSES`], then at the pass boundary nearest to
/// `seconds` (runs only end on pass boundaries, so every run measures the
/// same mix of checks).
fn done(passes: usize, start: Instant, seconds: u64) -> bool {
    if passes < MIN_PASSES {
        return false;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let per_pass = elapsed / passes as f64;
    elapsed + per_pass / 2.0 >= seconds as f64
}

/// The program's fabric configuration for an oracle fabric.
pub fn fabric_config(fabric: Fabric) -> FabricConfig {
    let topology = match fabric.shape {
        Shape::Mesh(w, h) => Topology::mesh(w, h),
        Shape::Torus(w, h) => Topology::torus(w, h),
        Shape::Ring(n) => Topology::ring(n),
        Shape::FatTree(k, l) => Topology::fat_tree(k, l),
    }
    .expect("oracle topologies are valid");
    let protocol = match fabric.protocol {
        Protocol::AbstractMi => ProtocolKind::AbstractMi,
        Protocol::FullMi => ProtocolKind::FullMi,
        Protocol::Mesi => ProtocolKind::Mesi,
    };
    FabricConfig::new(topology, 1)
        .with_directory(fabric.directory)
        .with_protocol(protocol)
}

/// Check configuration carrying `telemetry` (disabled for untraced work).
pub fn check_config(telemetry: &Telemetry) -> CheckConfig {
    CheckConfig {
        solver: SolverConfig {
            telemetry: telemetry.clone(),
            ..SolverConfig::default()
        },
        ..CheckConfig::default()
    }
}

/// What one study measured.
#[derive(Debug, Default)]
pub struct Study {
    /// Per-check wall times in ms; the first includes the engine build,
    /// `minimal_capacity` probes share its time equally.
    pub op_ms: Vec<f64>,
    /// Whole-study wall time in ms.
    pub study_ms: f64,
    /// Checks whose verdict disagreed with the oracle (or was unknown).
    pub wrong: u64,
    /// Per-check verdicts (`true` = free) with their capacity, in order.
    pub verdicts: Vec<(usize, bool)>,
    /// Theory refinements of the sweep checks (`minimal_capacity` does
    /// not hand its reports out).
    pub refinements: u64,
    /// SAT conflicts of the whole study.
    pub conflicts: u64,
    /// SAT propagations of the whole study.
    pub propagations: u64,
    /// Linear atoms of the study's encoding.
    pub linear_atoms: u64,
    /// SAT-phase time of the whole study (traced studies only).
    pub sat_ms: f64,
}

impl Study {
    fn account(&mut self, scenario: &Scenario, capacity: usize, report: &Report) {
        let free = report.is_deadlock_free();
        let expected = oracle::expected(scenario.fabric, Target::Any, true, capacity);
        if matches!(report.verdict(), Verdict::Unknown) || expected != Some(free) {
            self.wrong += 1;
        }
        self.verdicts.push((capacity, free));
        let stats = &report.analysis().stats;
        self.refinements += stats.refinements;
        self.linear_atoms = stats.linear_atoms as u64;
        self.sat_ms += layers::sat_ms(report.solver_profile());
    }
}

/// Runs one cold study of `scenario` under `telemetry`.
pub fn run_study(scenario: &Scenario, telemetry: &Telemetry) -> Study {
    let mut study = Study::default();
    let start = Instant::now();
    let mut engine = QueryEngine::for_fabric_with(
        &fabric_config(scenario.fabric),
        check_config(telemetry),
        scenario.range.clone(),
    )
    .expect("oracle fabrics build");
    let mut last = start;
    for capacity in scenario.range.clone() {
        let report = engine.check(&Query::new().capacity(capacity));
        study.op_ms.push(ms_since(last));
        last = Instant::now();
        study.account(scenario, capacity, &report);
    }
    let sizing = engine.minimal_capacity(&Query::new());
    let probes = sizing.evaluations.len().max(1);
    let share = ms_since(last) / probes as f64;
    study.op_ms.extend(std::iter::repeat_n(share, probes));
    study.study_ms = ms_since(start);
    let expected = oracle::threshold(scenario.fabric).expect("scenario is in the oracle table");
    if sizing.minimal_queue_size != expected || sizing.evaluations.is_empty() {
        study.wrong += 1;
    }
    for &(capacity, free) in &sizing.evaluations {
        if oracle::expected(scenario.fabric, Target::Any, true, capacity) != Some(free) {
            study.wrong += 1;
        }
        study.verdicts.push((capacity, free));
    }
    let stats = engine.stats();
    study.conflicts = stats.sat_conflicts;
    study.propagations = stats.sat_propagations;
    study
}

/// Builds the engine of every scenario once: the workload's set-up unit.
fn setup_unit() -> f64 {
    let start = Instant::now();
    for scenario in &SCENARIOS {
        let engine =
            QueryEngine::for_fabric(&fabric_config(scenario.fabric), scenario.range.clone())
                .expect("oracle fabrics build");
        std::hint::black_box(&engine);
    }
    start.elapsed().as_secs_f64()
}

/// The untraced run: end-to-end metrics.
pub fn run(config: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setup_s = vec![setup_unit()];
    let offset = (config.seed % SCENARIOS.len() as u64) as usize;
    let disabled = Telemetry::disabled();
    let mut op_ms = Vec::new();
    let mut per_class = PerClass::default();
    let mut passes = 0;
    let start = Instant::now();
    while !done(passes, start, config.seconds) {
        for i in 0..SCENARIOS.len() {
            let scenario = &SCENARIOS[(offset + i) % SCENARIOS.len()];
            let study = run_study(scenario, &disabled);
            outcome.attempted += study.op_ms.len() as u64;
            outcome.failed += study.wrong;
            op_ms.extend_from_slice(&study.op_ms);
            per_class.add(scenario.name, "study_ms", study.study_ms);
            per_class.add(scenario.name, "ops", study.op_ms.len() as f64);
            // Set-up samples are spread over the run so they see the same
            // host phases as the operations.
            setup_s.push(setup_unit());
        }
        passes += 1;
        outcome.ref_ms.push(host::ref_loop_ms());
    }
    // Checks of one pass over the sum of per-scenario median study times.
    let ops_per_s = per_class.unit_sum("ops") / (per_class.unit_sum("study_ms") / 1e3);
    outcome.set_end_to_end(&setup_s, &op_ms, ops_per_s);
    for scenario in &SCENARIOS {
        if let Some(ms) = per_class.class_median(scenario.name, "study_ms") {
            outcome
                .metrics
                .set(format!("core.study_ms.{}", scenario.name), ms, "ms");
        }
    }
    outcome
}

/// The traced run: per-layer metrics.  Studies alternate between traced
/// and untraced, so the tracing overhead is measured over the same host
/// phases; layer times are per-scenario medians summed over one pass, and
/// solver counts are one untraced study per scenario.
pub fn run_traced(config: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let offset = (config.seed % SCENARIOS.len() as u64) as usize;
    let disabled = Telemetry::disabled();
    let mut per_class = PerClass::default();
    let mut counts: Vec<Option<Study>> = SCENARIOS.iter().map(|_| None).collect();
    let mut invariants = vec![0usize; SCENARIOS.len()];
    let mut passes = 0;
    let mut traced = false;
    let start = Instant::now();
    while !done(passes, start, config.seconds) {
        for i in 0..SCENARIOS.len() {
            let slot = (offset + i) % SCENARIOS.len();
            let scenario = &SCENARIOS[slot];
            traced = !traced;
            let study = if traced {
                let layers = BuildLayers::measure(
                    || {
                        build_fabric_for_sweep(
                            &fabric_config(scenario.fabric),
                            *scenario.range.end(),
                        )
                    },
                    Some(scenario.range.clone()),
                )
                .expect("oracle fabrics build");
                layers.record(&mut per_class, scenario.name);
                invariants[slot] = layers.invariants;
                let (telemetry, trace) = Telemetry::ring(1 << 16);
                let study = run_study(scenario, &telemetry);
                telemetry.flush();
                let checks: Vec<f64> = layers::closed_spans(&trace.lines())
                    .into_iter()
                    .filter(|s| s.name == "query.check")
                    .map(|s| s.ms)
                    .collect();
                record_checks(&mut per_class, scenario.name, &study, &checks);
                per_class.add(scenario.name, "traced_ms", study.study_ms);
                study
            } else {
                let study = run_study(scenario, &disabled);
                per_class.add(scenario.name, "untraced_ms", study.study_ms);
                study
            };
            outcome.attempted += study.op_ms.len() as u64;
            outcome.failed += study.wrong;
            // Counts come from untraced studies: an enabled telemetry
            // handle changes the solver's search path (deterministically),
            // so traced counts differ from the end-to-end runs' work.
            if !traced {
                counts[slot].get_or_insert(study);
            }
        }
        passes += 1;
        outcome.ref_ms.push(host::ref_loop_ms());
    }
    let counts: Vec<Study> = counts.into_iter().flatten().collect();
    let sum = |f: fn(&Study) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let m = &mut outcome.metrics;
    m.set("logic.refinements", sum(|s| s.refinements), "count");
    m.set("logic.sat_conflicts", sum(|s| s.conflicts), "count");
    m.set("logic.sat_propagations", sum(|s| s.propagations), "count");
    m.set("deadlock.linear_atoms", sum(|s| s.linear_atoms), "count");
    m.set(
        "invariants.count",
        invariants.iter().sum::<usize>() as f64,
        "count",
    );
    set_check_metrics(m, &per_class);
    layers::build_metrics(&per_class, m);
    m.set(
        "telemetry.overhead",
        per_class.unit_sum("untraced_ms") / per_class.unit_sum("traced_ms"),
        "ratio",
    );
    for scenario in &SCENARIOS {
        if let Some(ms) = per_class.class_median(scenario.name, "traced_ms") {
            outcome
                .metrics
                .set(format!("core.study_ms.{}", scenario.name), ms, "ms");
        }
    }
    outcome.samples = passes * SCENARIOS.len();
    outcome
}

/// Splits a traced study's `query.check` span times by verdict and adds
/// the study's SAT time, as samples of `class`.
fn record_checks(per_class: &mut PerClass, class: &str, study: &Study, checks: &[f64]) {
    let (mut free, mut candidate) = (0.0, 0.0);
    // One `query.check` span per check, in check order (one thread).
    for (ms, (_, is_free)) in checks.iter().zip(&study.verdicts) {
        if *is_free {
            free += ms;
        } else {
            candidate += ms;
        }
    }
    per_class.add(class, "check_free_ms", free);
    per_class.add(class, "check_candidate_ms", candidate);
    per_class.add(class, "check_ms", checks.iter().sum());
    per_class.add(class, "sat_ms", study.sat_ms);
}

/// `deadlock.check_ms.*`, `logic.sat_ms` and `logic.theory_ms` of one
/// unit, from per-class medians recorded by [`record_checks`].
fn set_check_metrics(m: &mut Metrics, per_class: &PerClass) {
    let check = per_class.unit_sum("check_ms");
    let sat = per_class.unit_sum("sat_ms");
    m.set("deadlock.check_ms", check, "ms");
    m.set(
        "deadlock.check_ms.free",
        per_class.unit_sum("check_free_ms"),
        "ms",
    );
    m.set(
        "deadlock.check_ms.candidate",
        per_class.unit_sum("check_candidate_ms"),
        "ms",
    );
    m.set("logic.sat_ms", sat, "ms");
    m.set("logic.theory_ms", check - sat, "ms");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-layer counts of one small scenario repeat exactly across
    /// two runs, untraced and traced alike.
    #[test]
    fn per_layer_counts_repeat_exactly() {
        let scenario = &SCENARIOS[0];
        let counts = |telemetry: &Telemetry| {
            let s = run_study(scenario, telemetry);
            assert_eq!(s.wrong, 0, "{:?}", s.verdicts);
            assert!(s.conflicts > 0 && s.refinements > 0);
            (
                s.refinements,
                s.conflicts,
                s.propagations,
                s.linear_atoms,
                s.verdicts,
                s.sat_ms > 0.0,
            )
        };
        let disabled = Telemetry::disabled();
        let untraced = counts(&disabled);
        assert_eq!(untraced, counts(&disabled));
        assert!(!untraced.5, "no solver profile without telemetry");
        let (telemetry, _trace) = Telemetry::ring(1 << 16);
        let traced = counts(&telemetry);
        assert_eq!(traced, counts(&telemetry));
        assert!(traced.5, "tracing fills the solver profile");
    }
}
