//! An independent check of theory lemmas.
//!
//! Every blocking clause the SMT loop adds claims that its own linear
//! atoms cannot hold together within the variable bounds.  [`refutes`]
//! re-derives that claim with a separate, deliberately plain interval
//! propagation — exact `i128` arithmetic, no reason tracking, no shared
//! code with [`crate::theory`] — and bisects domains when propagation
//! alone stops short (lemmas found by the theory solver's branching).
//! The SMT loop runs it on every lemma in debug builds and tests.

use crate::theory::Constraint;

/// `true` when no integer point within `bounds` satisfies every
/// constraint of `lemma`.
pub fn refutes(bounds: &[(i64, i64)], lemma: &[&Constraint]) -> bool {
    let lo = bounds.iter().map(|b| i128::from(b.0)).collect();
    let hi = bounds.iter().map(|b| i128::from(b.1)).collect();
    empty(lo, hi, lemma)
}

fn empty(mut lo: Vec<i128>, mut hi: Vec<i128>, lemma: &[&Constraint]) -> bool {
    let mut changed = true;
    while changed {
        changed = false;
        for c in lemma {
            let min = |lo: &[i128], hi: &[i128], a: i64, v: usize| {
                i128::from(a) * if a > 0 { lo[v] } else { hi[v] }
            };
            let slack = i128::from(c.bound)
                - c.terms
                    .iter()
                    .map(|&(a, v)| min(&lo, &hi, a, v))
                    .sum::<i128>();
            if slack < 0 {
                return true;
            }
            for &(a, v) in &c.terms {
                if a == 0 {
                    continue;
                }
                // a·x may grow by at most `slack` above its minimum.
                let room = (min(&lo, &hi, a, v) + slack).div_euclid(i128::from(a).abs());
                if a > 0 && room < hi[v] {
                    hi[v] = room;
                } else if a < 0 && -room > lo[v] {
                    lo[v] = -room;
                } else {
                    continue;
                }
                if lo[v] > hi[v] {
                    return true;
                }
                changed = true;
            }
        }
    }
    // Only the lemma's own variables are split: the others are free.
    let unfixed = lemma
        .iter()
        .flat_map(|c| &c.terms)
        .map(|&(_, v)| v)
        .find(|&v| lo[v] < hi[v]);
    match unfixed {
        // Every lemma variable fixed and no constraint violated: a model.
        None => false,
        Some(v) => {
            let mid = lo[v] + (hi[v] - lo[v]) / 2;
            let (mut lower_hi, mut upper_lo) = (hi.clone(), lo.clone());
            lower_hi[v] = mid;
            upper_lo[v] = mid + 1;
            empty(lo, lower_hi, lemma) && empty(upper_lo, hi, lemma)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refutes_infeasible_and_accepts_feasible_lemmas() {
        // x + y ≥ 3 over binary x, y is infeasible only with x ≤ 0.
        let sum = Constraint::new(vec![(-1, 0), (-1, 1)], -2);
        let x_zero = Constraint::new(vec![(1, 0)], 0);
        assert!(refutes(&[(0, 1), (0, 1)], &[&sum, &x_zero]));
        assert!(!refutes(&[(0, 1), (0, 1)], &[&sum]));
    }

    #[test]
    fn bisects_where_propagation_stops_short() {
        // x + y = 1 and x = y over [0, 1]: propagation alone fixes nothing.
        let cs = [
            Constraint::new(vec![(1, 0), (1, 1)], 1),
            Constraint::new(vec![(-1, 0), (-1, 1)], -1),
            Constraint::new(vec![(1, 0), (-1, 1)], 0),
            Constraint::new(vec![(-1, 0), (1, 1)], 0),
        ];
        let lemma: Vec<&Constraint> = cs.iter().collect();
        // Forty more variables the lemma never mentions are not split.
        let mut bounds = vec![(0, 1); 42];
        assert!(refutes(&bounds, &lemma));
        bounds[0] = (0, 0);
        assert!(refutes(&bounds, &lemma));
    }
}
