//! Boundary-level deadlock reasoning: explicit interface bindings for
//! tile encodings, and the composition check over contract variables.
//!
//! A composed verification never encodes the whole fabric.  Each tile is
//! certified on its own small encoding (an [`crate::EncodingTemplate`]
//! built over an explicit [`Boundary`] naming its cut queues), and the
//! global question is asked over **contract variables only**: one
//! occupancy integer and one `blocked` indicator per cut port, related by
//! the waiting dependencies of the boundary graph and constrained by the
//! tiles' exported interface contracts.
//!
//! The check is the waiting-graph argument of Verbeek–Schmaltz: in a
//! global deadlock of a fabric whose tiles are internally live, some cut
//! queue must be full with its head packet waiting on other cut queues,
//! transitively forming a cycle of full, mutually-dependent boundary
//! ports.  [`check_composition`] searches for exactly that configuration;
//! `Unsat` therefore certifies the composition deadlock-free, while `Sat`
//! yields a *candidate* set of blocked interfaces (the abstraction is
//! deliberately coarse, so candidates are attributed, then either refuted
//! by a flat fallback run or reported).

use std::time::{Duration, Instant};

use advocat_invariants::ContractRow;
use advocat_logic::{BoolVar, CheckConfig, Formula, IntVar, LinExpr, SmtResult, SmtSolver};

/// The named boundary interface an encoding is built over: the cut-queue
/// names the template binds to occupancy variables so contracts can be
/// imported by name.  [`Boundary::flat`] — no ports — is the whole-fabric
/// case: the classic flat encoding, verdicts unchanged.
#[derive(Clone, Debug, Default)]
pub struct Boundary {
    ports: Vec<String>,
}

impl Boundary {
    /// The empty boundary of a flat (whole-fabric) encoding.
    pub fn flat() -> Self {
        Boundary::default()
    }

    /// A boundary over the given cut-queue names.
    pub fn over<I: IntoIterator<Item = String>>(ports: I) -> Self {
        Boundary {
            ports: ports.into_iter().collect(),
        }
    }

    /// The bound port names.
    pub fn ports(&self) -> &[String] {
        &self.ports
    }

    /// `true` for the whole-fabric (empty) boundary.
    pub fn is_flat(&self) -> bool {
        self.ports.is_empty()
    }
}

/// One cut port in the composition check: its queue name, its capacity at
/// the queried sizing, and the ports its head packet may wait on.
#[derive(Clone, Debug)]
pub struct InterfacePort {
    /// The cut queue's name.
    pub name: String,
    /// Queue capacity at the queried sizing.
    pub capacity: usize,
    /// Indices (into the model's port list) this port can wait on.
    pub deps: Vec<usize>,
}

/// The contract-level abstraction of a partitioned fabric: cut ports with
/// waiting dependencies, plus the rows of every tile's exported
/// [`advocat_invariants::InterfaceContract`].
#[derive(Clone, Debug, Default)]
pub struct CompositionModel {
    /// The cut ports.
    pub ports: Vec<InterfacePort>,
    /// Imported contract rows (over port names).
    pub constraints: Vec<ContractRow>,
}

/// What the composition check concluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundaryOutcome {
    /// No cycle of full, waiting boundary ports exists: the composition
    /// is deadlock-free (given certified tiles).
    Free,
    /// A candidate configuration was found; the named ports are blocked
    /// in it.  Candidates are over-approximate and need attribution or a
    /// flat refutation.
    Candidate {
        /// Names of the blocked ports, sorted.
        ports: Vec<String>,
    },
    /// The solver exhausted its budget.
    Unknown,
}

/// The result of a composition check.
#[derive(Clone, Debug)]
pub struct BoundaryAnalysis {
    /// The outcome.
    pub outcome: BoundaryOutcome,
    /// Contract rows asserted.
    pub imported: usize,
    /// Contract rows skipped (a term's port was absent from the model or
    /// a coefficient exceeded the solver's integer width) — skipping only
    /// drops constraints, so it errs towards `Candidate`, never `Free`.
    pub skipped: usize,
    /// SAT/theory refinement iterations of the boundary solver.
    pub refinements: u64,
    /// Theory conflicts (blocking clauses) of the boundary solver.
    pub theory_conflicts: u64,
    /// Wall-clock time of the check.
    pub elapsed: Duration,
}

impl BoundaryAnalysis {
    /// `true` when the composition was certified deadlock-free.
    pub fn is_free(&self) -> bool {
        self.outcome == BoundaryOutcome::Free
    }
}

/// Searches the boundary abstraction for a deadlock candidate: a nonempty
/// set of full cut queues whose head packets wait on each other, subject
/// to the imported contracts.
///
/// The encoding is tiny — two variables per cut port — which is the whole
/// point: its size is the *surface* of the partition, independent of the
/// tiles' interiors.
pub fn check_composition(model: &CompositionModel, config: &CheckConfig) -> BoundaryAnalysis {
    let start = Instant::now();
    let mut encoding = encode(model);
    let outcome = match encoding.smt.check_with(config) {
        SmtResult::Unsat => BoundaryOutcome::Free,
        SmtResult::Unknown => BoundaryOutcome::Unknown,
        SmtResult::Sat(witness) => {
            let mut ports: Vec<String> = model
                .ports
                .iter()
                .zip(&encoding.blocked)
                .filter(|(_, &b)| witness.bool_value(b))
                .map(|(p, _)| p.name.clone())
                .collect();
            ports.sort();
            BoundaryOutcome::Candidate { ports }
        }
    };
    let stats = encoding.smt.stats();
    BoundaryAnalysis {
        outcome,
        imported: encoding.imported,
        skipped: encoding.skipped,
        refinements: stats.refinements,
        theory_conflicts: stats.theory_conflicts,
        elapsed: start.elapsed(),
    }
}

/// The boundary query of a [`CompositionModel`], asserted but not yet
/// checked.
struct Encoding {
    smt: SmtSolver,
    /// Occupancy of each port, in the model's port order.
    #[cfg_attr(not(test), allow(dead_code))]
    occ: Vec<IntVar>,
    /// `blocked` indicator of each port, in the model's port order.
    blocked: Vec<BoolVar>,
    imported: usize,
    skipped: usize,
}

fn encode(model: &CompositionModel) -> Encoding {
    let mut smt = SmtSolver::new();
    let occ: Vec<_> = model
        .ports
        .iter()
        .map(|p| smt.new_int_var(format!("occ({})", p.name), 0, p.capacity as i64))
        .collect();
    let blocked: Vec<_> = model
        .ports
        .iter()
        .map(|p| smt.new_bool_var(format!("blocked({})", p.name)))
        .collect();

    for (i, port) in model.ports.iter().enumerate() {
        // A blocked port is full … stated as `occ ≥ cap` alone: inside the
        // domain `[0, cap]` that is exactly `occ = cap`, and it is one
        // theory atom.  The equality would add the bound-implied half
        // `occ ≤ cap` as an atom of its own, which the SAT search is free
        // to set false — each such guess costs a theory conflict and a
        // refinement round trip, one per port.
        smt.assert(Formula::implies(
            Formula::bool_var(blocked[i]),
            Formula::ge(
                LinExpr::var(occ[i]),
                LinExpr::constant(port.capacity as i64),
            ),
        ));
        // … and waits on a blocked dependency (no dependencies: the
        // environment always drains it, so it can never be blocked).
        smt.assert(Formula::implies(
            Formula::bool_var(blocked[i]),
            Formula::or(port.deps.iter().map(|&d| Formula::bool_var(blocked[d]))),
        ));
    }

    let mut imported = 0usize;
    let mut skipped = 0usize;
    'rows: for row in &model.constraints {
        let mut expr = LinExpr::zero();
        for (queue, coef) in &row.terms {
            let Some(index) = model.ports.iter().position(|p| &p.name == queue) else {
                skipped += 1;
                continue 'rows;
            };
            let Ok(coef) = i64::try_from(*coef) else {
                skipped += 1;
                continue 'rows;
            };
            expr.add_term(coef, occ[index]);
        }
        let Ok(constant) = i64::try_from(row.constant) else {
            skipped += 1;
            continue;
        };
        expr.add_constant(constant);
        smt.assert(Formula::le(expr, LinExpr::zero()));
        imported += 1;
    }

    smt.assert(Formula::or(blocked.iter().map(|&b| Formula::bool_var(b))));
    Encoding {
        smt,
        occ,
        blocked,
        imported,
        skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_port_cycle(capacity: usize) -> CompositionModel {
        CompositionModel {
            ports: vec![
                InterfacePort {
                    name: "qA".into(),
                    capacity,
                    deps: vec![1],
                },
                InterfacePort {
                    name: "qB".into(),
                    capacity,
                    deps: vec![0],
                },
            ],
            constraints: Vec::new(),
        }
    }

    #[test]
    fn a_dependency_cycle_is_a_candidate() {
        let analysis = check_composition(&two_port_cycle(2), &CheckConfig::default());
        match analysis.outcome {
            BoundaryOutcome::Candidate { ports } => {
                assert_eq!(ports, vec!["qA".to_string(), "qB".to_string()]);
            }
            other => panic!("expected a candidate, got {other:?}"),
        }
    }

    #[test]
    fn blocked_ports_of_a_candidate_are_exactly_full() {
        // A 3-port cycle at capacity k: the `occ ≥ cap` atom must still
        // pin every blocked port at occupancy k, and find the candidate
        // without a single theory conflict.
        for k in 1..=4 {
            let model = CompositionModel {
                ports: (0..3)
                    .map(|i| InterfacePort {
                        name: format!("q{i}"),
                        capacity: k,
                        deps: vec![(i + 1) % 3],
                    })
                    .collect(),
                constraints: Vec::new(),
            };
            let mut encoding = encode(&model);
            let witness = encoding.smt.check().expect_sat();
            let mut blocked = 0;
            for (&b, &occ) in encoding.blocked.iter().zip(&encoding.occ) {
                if witness.bool_value(b) {
                    blocked += 1;
                    assert_eq!(witness.int_value(occ), k as i64, "capacity {k}");
                }
            }
            assert!(blocked > 0, "capacity {k}: a candidate blocks some port");
            let analysis = check_composition(&model, &CheckConfig::default());
            assert!(matches!(
                analysis.outcome,
                BoundaryOutcome::Candidate { .. }
            ));
            assert_eq!(analysis.theory_conflicts, 0, "capacity {k}");
        }
    }

    #[test]
    fn contracts_can_refute_the_cycle() {
        // The cycle needs both queues full (occ = 2 each); a contract
        // bounding their sum below 4 rules it out.
        let mut model = two_port_cycle(2);
        model.constraints.push(ContractRow {
            terms: vec![("qA".into(), 1), ("qB".into(), 1)],
            constant: -3,
        });
        let analysis = check_composition(&model, &CheckConfig::default());
        assert!(analysis.is_free());
        assert_eq!(analysis.imported, 1);
        assert_eq!(analysis.skipped, 0);
    }

    #[test]
    fn dependency_free_ports_never_block() {
        let mut model = two_port_cycle(1);
        model.ports[0].deps.clear();
        model.ports[1].deps.clear();
        let analysis = check_composition(&model, &CheckConfig::default());
        assert!(analysis.is_free());
    }

    #[test]
    fn unresolvable_contract_rows_are_skipped_not_asserted() {
        let mut model = two_port_cycle(2);
        model.constraints.push(ContractRow {
            terms: vec![("q-not-here".into(), 1)],
            constant: 10, // would be unsatisfiable if asserted
        });
        let analysis = check_composition(&model, &CheckConfig::default());
        assert_eq!(analysis.skipped, 1);
        assert!(matches!(
            analysis.outcome,
            BoundaryOutcome::Candidate { .. }
        ));
    }

    #[test]
    fn the_flat_boundary_is_empty() {
        assert!(Boundary::flat().is_flat());
        let b = Boundary::over(vec!["q(0,0)→(1,0)".to_string()]);
        assert!(!b.is_flat());
        assert_eq!(b.ports().len(), 1);
    }
}
