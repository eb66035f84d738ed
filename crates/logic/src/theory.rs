//! Bounded linear integer arithmetic: feasibility of conjunctions of
//! `Σ aᵢ·xᵢ ≤ b` constraints over finite integer domains.
//!
//! Because every SMT integer variable produced by the deadlock encoding has
//! static bounds (queue occupancies are bounded by the queue size, state
//! indicators by one), a complete decision procedure only needs
//!
//! 1. **interval propagation** — repeatedly tighten variable domains from
//!    the constraints until a fixpoint or an empty domain is reached, and
//! 2. **branch & bound** — split the domain of an undetermined variable and
//!    recurse, lower half first.  A node whose lower bounds already
//!    satisfy every constraint answers them at once: that point survives
//!    every propagation below, so the descent would end there anyway.
//!
//! The solver returns an integer model when feasible.  When propagation
//! refutes a constraint set, [`explain_refutation`] names the constraints
//! the refutation rests on: every bound tightening records the constraint
//! that made it and the bounds that constraint read, and the reason
//! closure of the emptied domain (or violated constraint) is the core.
//! The SMT loop ([`crate::smt`]) turns that core into a blocking clause,
//! after shrinking it further with the cheap [`refuted_by_propagation`]
//! check.
//!
//! All arithmetic on coefficients and bounds is checked.  A product or
//! sum that leaves `i64` stops propagation without a refutation, so
//! [`refuted_by_propagation`] answers `false`, [`explain_refutation`]
//! `None` and [`solve`] [`TheoryVerdict::Unknown`] — never a wrong
//! `Unsat`.

/// A single theory constraint `Σ terms ≤ bound` over integer variables
/// identified by their index in the domain vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constraint {
    /// `(coefficient, variable index)` pairs.
    pub terms: Vec<(i64, usize)>,
    /// Inclusive upper bound on the weighted sum.
    pub bound: i64,
}

impl Constraint {
    /// Creates a constraint `Σ terms ≤ bound`.
    pub fn new(terms: Vec<(i64, usize)>, bound: i64) -> Self {
        Constraint { terms, bound }
    }

    /// Evaluates whether the constraint holds under the given assignment.
    pub fn holds(&self, assignment: &[i64]) -> bool {
        // Exact in i128: each product fits, and so does any sum of fewer
        // than 2^63 of them.
        let sum: i128 = self
            .terms
            .iter()
            .map(|&(c, v)| i128::from(c) * i128::from(assignment[v]))
            .sum();
        sum <= i128::from(self.bound)
    }
}

/// Result of a feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryVerdict {
    /// The constraints are satisfiable; a witness assignment is returned.
    Sat(Vec<i64>),
    /// The constraints are unsatisfiable.
    Unsat,
    /// The search budget was exhausted, or the arithmetic left `i64`,
    /// before a verdict was reached.
    Unknown,
}

#[derive(Clone, Debug)]
struct Domains {
    lo: Vec<i64>,
    hi: Vec<i64>,
}

impl Domains {
    fn new(bounds: &[(i64, i64)]) -> Self {
        Domains {
            lo: bounds.iter().map(|b| b.0).collect(),
            hi: bounds.iter().map(|b| b.1).collect(),
        }
    }

    fn is_fixed(&self, v: usize) -> bool {
        self.lo[v] == self.hi[v]
    }

    /// The smallest value `a·x` takes over the domain of `x`, `None` when
    /// it leaves `i64`.
    fn term_min(&self, a: i64, v: usize) -> Option<i64> {
        a.checked_mul(if a > 0 { self.lo[v] } else { self.hi[v] })
    }
}

/// How a propagation run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Propagation {
    /// No constraint tightens any domain further.
    Fixpoint,
    /// A domain became empty, or a constraint's minimal sum exceeds its
    /// bound: a sound proof of infeasibility.
    Refuted,
    /// A product or sum left `i64`; nothing is concluded.
    Overflow,
}

/// Tightens the domains using interval propagation to a fixpoint,
/// recording why each bound moved when `reasons` is given.
fn propagate(
    domains: &mut Domains,
    constraints: &[Constraint],
    mut reasons: Option<&mut Reasons>,
) -> Propagation {
    loop {
        let mut changed = false;
        for (ci, c) in constraints.iter().enumerate() {
            // Minimal possible value of the weighted sum.
            let mut min_sum: i64 = 0;
            for &(a, v) in &c.terms {
                match domains.term_min(a, v).and_then(|m| min_sum.checked_add(m)) {
                    Some(sum) => min_sum = sum,
                    None => return Propagation::Overflow,
                }
            }
            if min_sum > c.bound {
                if let Some(r) = reasons {
                    r.violated(ci, c);
                }
                return Propagation::Refuted;
            }
            for (ti, &(a, v)) in c.terms.iter().enumerate() {
                // What the other terms leave for this one.
                let budget = domains
                    .term_min(a, v)
                    .and_then(|own_min| min_sum.checked_sub(own_min))
                    .and_then(|others_min| c.bound.checked_sub(others_min));
                let Some(budget) = budget else {
                    return Propagation::Overflow;
                };
                let upper = a > 0;
                let moved = if upper {
                    // a·x ≤ budget  =>  x ≤ floor(budget / a)
                    let new_hi = budget.div_euclid(a);
                    let moved = new_hi < domains.hi[v];
                    if moved {
                        domains.hi[v] = new_hi;
                    }
                    moved
                } else {
                    // a·x ≤ budget with a < 0  =>  x ≥ ceil(budget / a)
                    let Some(new_lo) = ceil_div(budget, a) else {
                        return Propagation::Overflow;
                    };
                    let moved = new_lo > domains.lo[v];
                    if moved {
                        domains.lo[v] = new_lo;
                    }
                    moved
                };
                if !moved {
                    continue;
                }
                changed = true;
                if let Some(r) = reasons.as_deref_mut() {
                    r.tightened(ci, c, ti, upper);
                }
                if domains.hi[v] < domains.lo[v] {
                    if let Some(r) = reasons {
                        r.emptied(v);
                    }
                    return Propagation::Refuted;
                }
            }
        }
        if !changed {
            return Propagation::Fixpoint;
        }
    }
}

/// Rounds `a / b` towards positive infinity; `b` may be negative.  `None`
/// only for `i64::MIN / -1`.
fn ceil_div(a: i64, b: i64) -> Option<i64> {
    // `div_euclid` leaves a non-negative remainder, so it floors for b > 0
    // and already computes the ceiling for b < 0.
    let q = a.checked_div_euclid(b)?;
    let r = a.rem_euclid(b);
    Some(if r == 0 || b < 0 { q } else { q + 1 })
}

/// Why every current bound holds, recorded during an explaining
/// propagation run.
///
/// Each tightening is a step: the constraint that made it, plus the steps
/// that justified the bounds it read (the other terms' minimising bounds).
/// A bound without a step is an initial variable bound, which needs no
/// constraint.
#[derive(Default)]
struct Reasons {
    /// Step justifying the current lower / upper bound of each variable.
    lo: Vec<Option<usize>>,
    hi: Vec<Option<usize>>,
    /// Per step, its constraint and where its antecedent steps begin in
    /// `antecedents`; they run up to where the next step's begin.
    steps: Vec<(usize, usize)>,
    antecedents: Vec<usize>,
    /// Steps the refutation reads directly, and the violated constraint
    /// (if the refutation was a violated sum rather than an empty domain).
    conflict: Vec<usize>,
    violated: Option<usize>,
}

impl Reasons {
    fn new(vars: usize) -> Self {
        Reasons {
            lo: vec![None; vars],
            hi: vec![None; vars],
            ..Reasons::default()
        }
    }

    /// The step behind the bound that minimises `a·x`.
    fn minimising(&self, a: i64, v: usize) -> Option<usize> {
        if a > 0 {
            self.lo[v]
        } else {
            self.hi[v]
        }
    }

    /// Indices (ascending) of the constraints the refutation rests on:
    /// the constraints of every step reachable from the conflict.
    fn core(&self) -> Vec<usize> {
        let mut seen = vec![false; self.steps.len()];
        let mut stack = self.conflict.clone();
        let mut core: Vec<usize> = self.violated.into_iter().collect();
        while let Some(step) = stack.pop() {
            if std::mem::replace(&mut seen[step], true) {
                continue;
            }
            let (constraint, start) = self.steps[step];
            let end = self
                .steps
                .get(step + 1)
                .map_or(self.antecedents.len(), |s| s.1);
            core.push(constraint);
            stack.extend_from_slice(&self.antecedents[start..end]);
        }
        core.sort_unstable();
        core.dedup();
        core
    }

    /// Constraint `c` tightened the upper (`upper`) or lower bound of its
    /// `term`-th variable, reading the other terms' minimising bounds.
    fn tightened(&mut self, c: usize, constraint: &Constraint, term: usize, upper: bool) {
        let step = self.steps.len();
        self.steps.push((c, self.antecedents.len()));
        for (ti, &(a, v)) in constraint.terms.iter().enumerate() {
            if ti != term {
                self.antecedents.extend(self.minimising(a, v));
            }
        }
        let (_, v) = constraint.terms[term];
        if upper {
            self.hi[v] = Some(step);
        } else {
            self.lo[v] = Some(step);
        }
    }

    /// Constraint `c` cannot hold under the current bounds of its terms.
    fn violated(&mut self, c: usize, constraint: &Constraint) {
        self.violated = Some(c);
        for &(a, v) in &constraint.terms {
            self.conflict.extend(self.minimising(a, v));
        }
    }

    /// The domain of `v` became empty.
    fn emptied(&mut self, v: usize) {
        self.conflict.extend(self.lo[v]);
        self.conflict.extend(self.hi[v]);
    }
}

/// Returns `true` when interval propagation alone refutes the constraints.
///
/// This is a cheap, sound (but incomplete) infeasibility check used for
/// conflict-core minimisation.  Short of overflow it is monotone in the
/// constraint set: a superset of a refuted set is refuted.
pub fn refuted_by_propagation(bounds: &[(i64, i64)], constraints: &[Constraint]) -> bool {
    propagate(&mut Domains::new(bounds), constraints, None) == Propagation::Refuted
}

/// Explains a refutation by interval propagation: returns the indices
/// (ascending) of the constraints the refutation rests on, or `None`
/// when propagation reaches a fixpoint (or overflows) instead.
///
/// The core is the reason closure of the conflict, so propagation over
/// it alone re-derives every bound the refutation read and (short of
/// overflow) refutes it again.  It is usually far smaller than `constraints`, but not minimal:
/// it keeps every tightening on the way, including ones a shorter
/// derivation would skip.
pub fn explain_refutation(bounds: &[(i64, i64)], constraints: &[Constraint]) -> Option<Vec<usize>> {
    let mut reasons = Reasons::new(bounds.len());
    match propagate(&mut Domains::new(bounds), constraints, Some(&mut reasons)) {
        Propagation::Refuted => Some(reasons.core()),
        Propagation::Fixpoint | Propagation::Overflow => None,
    }
}

/// Decides feasibility of `constraints` over variables with the given
/// inclusive `bounds`.
///
/// `node_budget` bounds the number of search nodes explored; when exhausted
/// the verdict is [`TheoryVerdict::Unknown`], as it is when the
/// arithmetic leaves `i64`.
pub fn solve(bounds: &[(i64, i64)], constraints: &[Constraint], node_budget: u64) -> TheoryVerdict {
    for c in constraints {
        for &(_, v) in &c.terms {
            assert!(v < bounds.len(), "constraint mentions undeclared variable");
        }
    }
    let mut budget = node_budget;
    search(Domains::new(bounds), constraints, &mut budget)
}

fn search(mut domains: Domains, constraints: &[Constraint], budget: &mut u64) -> TheoryVerdict {
    if *budget == 0 {
        return TheoryVerdict::Unknown;
    }
    *budget -= 1;
    match propagate(&mut domains, constraints, None) {
        Propagation::Fixpoint => {}
        Propagation::Refuted => return TheoryVerdict::Unsat,
        Propagation::Overflow => return TheoryVerdict::Unknown,
    }
    // Propagation never removes a solution, so when the point of lower
    // bounds is one, the lower-half-first descent below keeps it in every
    // domain and ends exactly there: answer it without descending (one
    // O(terms) pass instead of a node per unfixed variable).
    if constraints.iter().all(|c| c.holds(&domains.lo)) {
        return TheoryVerdict::Sat(domains.lo);
    }
    // Pick the unfixed variable with the smallest domain.
    let mut pick: Option<(usize, u64)> = None;
    for v in 0..domains.lo.len() {
        if !domains.is_fixed(v) {
            let width = domains.hi[v].abs_diff(domains.lo[v]);
            match pick {
                Some((_, w)) if w <= width => {}
                _ => pick = Some((v, width)),
            }
        }
    }
    let Some((v, width)) = pick else {
        unreachable!("with every domain fixed, the lower bounds are the model checked above")
    };
    // lo ≤ mid < hi, so neither `mid` nor `mid + 1` overflows.
    let mid = domains.lo[v].wrapping_add_unsigned(width / 2);

    // Lower half first: flow-style systems usually admit small solutions.
    let mut lower = domains.clone();
    lower.hi[v] = mid;
    match search(lower, constraints, budget) {
        TheoryVerdict::Sat(model) => return TheoryVerdict::Sat(model),
        TheoryVerdict::Unknown => return TheoryVerdict::Unknown,
        TheoryVerdict::Unsat => {}
    }
    let mut upper = domains;
    upper.lo[v] = mid + 1;
    search(upper, constraints, budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(terms: Vec<(i64, usize)>, bound: i64) -> Constraint {
        Constraint::new(terms, bound)
    }

    fn eq(terms: Vec<(i64, usize)>, value: i64) -> Vec<Constraint> {
        let neg: Vec<(i64, usize)> = terms.iter().map(|(c, v)| (-c, *v)).collect();
        vec![le(terms, value), le(neg, -value)]
    }

    #[test]
    fn empty_constraint_set_is_feasible() {
        let verdict = solve(&[(0, 3), (0, 3)], &[], 100);
        match verdict {
            TheoryVerdict::Sat(model) => assert_eq!(model.len(), 2),
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn simple_equality_is_solved() {
        // x + y = 4, x >= 3, domains [0, 5].
        let mut cs = eq(vec![(1, 0), (1, 1)], 4);
        cs.push(le(vec![(-1, 0)], -3));
        match solve(&[(0, 5), (0, 5)], &cs, 1_000) {
            TheoryVerdict::Sat(m) => {
                assert_eq!(m[0] + m[1], 4);
                assert!(m[0] >= 3);
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_bounds_are_unsat() {
        // x <= 1 and x >= 2 on domain [0, 5].
        let cs = vec![le(vec![(1, 0)], 1), le(vec![(-1, 0)], -2)];
        assert_eq!(solve(&[(0, 5)], &cs, 1_000), TheoryVerdict::Unsat);
        assert!(refuted_by_propagation(&[(0, 5)], &cs));
    }

    #[test]
    fn infeasible_sum_over_binary_variables() {
        // x0 + x1 + x2 = 5 with all domains {0, 1}.
        let cs = eq(vec![(1, 0), (1, 1), (1, 2)], 5);
        assert_eq!(solve(&[(0, 1); 3], &cs, 1_000), TheoryVerdict::Unsat);
    }

    #[test]
    fn negative_coefficients_propagate_lower_bounds() {
        // y - x <= -2  =>  x >= y + 2; with y >= 3 we need x >= 5.
        let cs = vec![le(vec![(1, 1), (-1, 0)], -2), le(vec![(-1, 1)], -3)];
        match solve(&[(0, 10), (0, 10)], &cs, 1_000) {
            TheoryVerdict::Sat(m) => {
                assert!(m[0] >= m[1] + 2);
                assert!(m[1] >= 3);
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn a_lower_bound_model_answers_without_descending() {
        // The boundary check's shape: one unary atom per port, half of
        // them "full" (x ≥ 2), half "not full" (x ≤ 1).  A single node
        // answers; a descent would need one node per undecided port.
        let cs: Vec<Constraint> = (0..224)
            .map(|v| match v % 2 {
                0 => le(vec![(-1, v)], -2),
                _ => le(vec![(1, v)], 1),
            })
            .collect();
        match solve(&[(0, 2); 224], &cs, 1) {
            TheoryVerdict::Sat(m) => {
                for (v, &x) in m.iter().enumerate() {
                    assert_eq!(x, if v % 2 == 0 { 2 } else { 0 }, "x{v}");
                }
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    /// The branch-and-bound descent without the lower-bound shortcut.
    fn descend(mut domains: Domains, constraints: &[Constraint]) -> TheoryVerdict {
        match propagate(&mut domains, constraints, None) {
            Propagation::Fixpoint => {}
            Propagation::Refuted => return TheoryVerdict::Unsat,
            Propagation::Overflow => return TheoryVerdict::Unknown,
        }
        let pick = (0..domains.lo.len())
            .filter(|&v| !domains.is_fixed(v))
            .min_by_key(|&v| domains.hi[v].abs_diff(domains.lo[v]));
        let Some(v) = pick else {
            return TheoryVerdict::Sat(domains.lo);
        };
        let mid = domains.lo[v] + (domains.hi[v] - domains.lo[v]) / 2;
        let mut lower = domains.clone();
        lower.hi[v] = mid;
        match descend(lower, constraints) {
            TheoryVerdict::Unsat => {}
            answer => return answer,
        }
        let mut upper = domains;
        upper.lo[v] = mid + 1;
        descend(upper, constraints)
    }

    #[test]
    fn the_shortcut_answers_what_the_descent_answers() {
        // Same verdict and the very same model on random small systems.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound) as i64
        };
        let mut sat = 0;
        for round in 0..3000 {
            let vars = 2 + next(3) as usize;
            let bounds: Vec<(i64, i64)> = (0..vars).map(|_| (next(2), 2 + next(3))).collect();
            let cs: Vec<Constraint> = (0..1 + next(4))
                .map(|_| {
                    let terms = (0..vars)
                        .filter_map(|v| match next(7) - 3 {
                            0 => None,
                            c => Some((c, v)),
                        })
                        .collect();
                    le(terms, next(9) - 4)
                })
                .collect();
            let answer = solve(&bounds, &cs, u64::MAX);
            assert_eq!(
                answer,
                descend(Domains::new(&bounds), &cs),
                "round {round}: {bounds:?} {cs:?}"
            );
            sat += usize::from(matches!(answer, TheoryVerdict::Sat(_)));
        }
        assert!((300..2700).contains(&sat), "both verdicts occur: {sat} Sat");
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let cs = eq(vec![(1, 0), (1, 1), (1, 2)], 3);
        assert_eq!(solve(&[(0, 3); 3], &cs, 0), TheoryVerdict::Unknown);
    }

    #[test]
    fn model_satisfies_every_constraint() {
        // A slightly larger random-ish system with a known solution.
        let cs = vec![
            le(vec![(2, 0), (3, 1), (-1, 2)], 10),
            le(vec![(-1, 0), (1, 3)], 2),
            le(vec![(1, 2), (1, 3)], 7),
            le(vec![(-2, 1), (-1, 3)], -3),
        ];
        match solve(&[(0, 6); 4], &cs, 10_000) {
            TheoryVerdict::Sat(m) => {
                for c in &cs {
                    assert!(c.holds(&m), "violated constraint {c:?} by model {m:?}");
                }
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn ceil_div_matches_mathematical_ceiling() {
        assert_eq!(ceil_div(7, 2), Some(4));
        assert_eq!(ceil_div(6, 2), Some(3));
        assert_eq!(ceil_div(-7, 2), Some(-3));
        assert_eq!(ceil_div(7, -2), Some(-3));
        assert_eq!(ceil_div(-7, -2), Some(4));
        assert_eq!(ceil_div(6, -2), Some(-3));
        assert_eq!(ceil_div(i64::MIN, -1), None);
    }

    #[test]
    fn coefficients_near_half_of_i64_never_give_a_wrong_unsat() {
        const HALF: i64 = i64::MAX / 2;
        // -HALF·x ≤ 0 holds for every x ≥ 0, but -HALF·3 leaves i64:
        // wrapped arithmetic would see a huge positive minimum and refute.
        let cs = vec![le(vec![(-HALF, 0)], 0)];
        assert_eq!(solve(&[(0, 3)], &cs, 1_000), TheoryVerdict::Unknown);
        assert!(!refuted_by_propagation(&[(0, 3)], &cs));
        assert_eq!(explain_refutation(&[(0, 3)], &cs), None);

        // HALF·x + HALF·y ≤ 0 with x, y ≥ 2: each product fits, their
        // sum does not.  Infeasible, but only Unknown is a safe answer.
        let cs = vec![le(vec![(HALF, 0), (HALF, 1)], 0)];
        assert_eq!(solve(&[(2, 3), (2, 3)], &cs, 1_000), TheoryVerdict::Unknown);

        // Where every sum fits, the big coefficients still decide exactly.
        let cs = vec![le(vec![(HALF, 0), (HALF, 1)], HALF)];
        assert_eq!(
            solve(&[(1, 1), (0, 1)], &cs, 1_000),
            TheoryVerdict::Sat(vec![1, 0])
        );
        assert_eq!(solve(&[(1, 1), (1, 1)], &cs, 1_000), TheoryVerdict::Unsat);
        assert_eq!(explain_refutation(&[(1, 1), (1, 1)], &cs), Some(vec![0]));
    }

    #[test]
    fn explanation_follows_the_chain_of_tightenings() {
        // x0 ≥ 2 (c0), an unrelated x3 ≤ 1 (c1), x1 ≥ x0 (c2), x2 ≥ x1 (c3),
        // x2 ≤ 1 (c4): the refutation reads c0, c2, c3 and c4, not c1.
        let cs = vec![
            le(vec![(-1, 0)], -2),
            le(vec![(1, 3)], 1),
            le(vec![(1, 0), (-1, 1)], 0),
            le(vec![(1, 1), (-1, 2)], 0),
            le(vec![(1, 2)], 1),
        ];
        assert_eq!(
            explain_refutation(&[(0, 5); 4], &cs),
            Some(vec![0, 2, 3, 4])
        );
        assert_eq!(explain_refutation(&[(0, 5); 4], &cs[1..]), None);
    }
}
