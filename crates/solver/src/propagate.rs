//! Bounds propagation.
//!
//! Before and during search, the solver tightens variable domains by
//! propagating the linear and implication constraints. Propagation is the
//! workhorse that lets OPG instances with thousands of chunk variables stay
//! tractable: most `x_{w,ℓ}` variables are fixed to zero by the capacity and
//! completeness constraints long before branching touches them.
//!
//! The propagator keeps, per variable, the list of constraints that mention
//! it and runs a work queue: only constraints watching a variable whose bounds
//! just moved are revisited. Every constraint step is monotone, so the queue
//! reaches the same fixed point as sweeping every constraint until nothing
//! changes, whatever order it visits them in.

use crate::model::{Constraint, CpModel, Domain, LinearExpr};

/// Result of a propagation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropagationResult {
    /// Domains are consistent (possibly tightened).
    Consistent,
    /// Some domain became empty — the current subproblem is infeasible.
    Conflict,
}

/// Propagate all constraints of `model` to a fixed point over `domains`.
///
/// Returns [`PropagationResult::Conflict`] as soon as any domain empties.
/// The procedure is sound (never removes a feasible value) and terminates
/// because every tightening strictly shrinks a finite domain.
pub fn propagate(model: &CpModel, domains: &mut [Domain]) -> PropagationResult {
    Propagator::new(model).propagate_all(domains)
}

/// A domain emptied: the subproblem has no solution.
struct Conflict;

/// Queue-driven propagator over per-variable watch lists, built once per
/// model and reused for every search node.
pub(crate) struct Propagator<'m> {
    constraints: &'m [Constraint],
    /// `watches[v]`: indices of the constraints that mention variable `v`.
    watches: Vec<Vec<usize>>,
    pending: Vec<usize>,
    queued: Vec<bool>,
}

impl<'m> Propagator<'m> {
    pub(crate) fn new(model: &'m CpModel) -> Self {
        let constraints = model.constraints();
        let mut watches = vec![Vec::new(); model.num_vars()];
        for (idx, constraint) in constraints.iter().enumerate() {
            // Domains only shrink, so a constraint that every value of the
            // initial domains satisfies can never tighten or fail.
            if entailed(constraint, model.domains()) {
                continue;
            }
            let mut watch = |v: usize| {
                if watches[v].last() != Some(&idx) {
                    watches[v].push(idx);
                }
            };
            match constraint {
                Constraint::LinearLe { expr, .. }
                | Constraint::LinearGe { expr, .. }
                | Constraint::LinearEq { expr, .. } => {
                    expr.terms.iter().for_each(|(v, _)| watch(v.0))
                }
                Constraint::IfGeThenLe { cond, then, .. } => {
                    watch(cond.0);
                    watch(then.0);
                }
            }
        }
        Propagator {
            constraints,
            watches,
            pending: Vec::with_capacity(constraints.len()),
            queued: vec![false; constraints.len()],
        }
    }

    /// Propagate every constraint to a fixed point.
    pub(crate) fn propagate_all(&mut self, domains: &mut [Domain]) -> PropagationResult {
        for idx in 0..self.constraints.len() {
            self.enqueue(idx);
        }
        self.run(domains)
    }

    /// Restore the fixed point after the bounds of `var` alone were narrowed
    /// in domains that were at a fixed point before.
    pub(crate) fn propagate_from(
        &mut self,
        var: usize,
        domains: &mut [Domain],
    ) -> PropagationResult {
        self.touch(var);
        self.run(domains)
    }

    fn enqueue(&mut self, idx: usize) {
        if !self.queued[idx] {
            self.queued[idx] = true;
            self.pending.push(idx);
        }
    }

    fn touch(&mut self, var: usize) {
        for i in 0..self.watches[var].len() {
            self.enqueue(self.watches[var][i]);
        }
    }

    fn run(&mut self, domains: &mut [Domain]) -> PropagationResult {
        while let Some(idx) = self.pending.pop() {
            self.queued[idx] = false;
            if self.step(idx, domains).is_err() {
                for idx in self.pending.drain(..) {
                    self.queued[idx] = false;
                }
                return PropagationResult::Conflict;
            }
        }
        PropagationResult::Consistent
    }

    /// Narrow `var` to `[lo, hi]`, queueing its watchers if it moved.
    fn tighten(
        &mut self,
        domains: &mut [Domain],
        var: usize,
        lo: i64,
        hi: i64,
    ) -> Result<(), Conflict> {
        let d = domains[var];
        let nd = d.clamp_to(lo, hi);
        domains[var] = nd;
        if nd.is_empty() {
            return Err(Conflict);
        }
        if nd != d {
            self.touch(var);
        }
        Ok(())
    }

    fn step(&mut self, idx: usize, domains: &mut [Domain]) -> Result<(), Conflict> {
        let constraints = self.constraints;
        match &constraints[idx] {
            Constraint::LinearLe { expr, bound } => self.linear_le(expr, 1, *bound, domains),
            Constraint::LinearGe { expr, bound } => self.linear_le(expr, -1, -*bound, domains),
            Constraint::LinearEq { expr, bound } => {
                self.linear_le(expr, 1, *bound, domains)?;
                self.linear_le(expr, -1, -*bound, domains)
            }
            Constraint::IfGeThenLe {
                cond,
                threshold,
                then,
                bound,
            } => {
                // If the condition must hold, enforce the consequent.
                if domains[cond.0].lo >= *threshold {
                    return self.tighten(domains, then.0, i64::MIN, *bound);
                }
                // If the consequent cannot hold, the condition must be false.
                if domains[then.0].lo > *bound {
                    return self.tighten(domains, cond.0, i64::MIN, threshold - 1);
                }
                Ok(())
            }
        }
    }

    /// Propagate `sign · expr ≤ bound`; `sign` is `-1` for a `≥` constraint
    /// read as `-expr ≤ -bound`.
    fn linear_le(
        &mut self,
        expr: &LinearExpr,
        sign: i64,
        bound: i64,
        domains: &mut [Domain],
    ) -> Result<(), Conflict> {
        let lo = sign * expr.constant
            + expr
                .terms
                .iter()
                .map(|(v, c)| term_min(sign * c, domains[v.0]))
                .sum::<i64>();
        if lo > bound {
            return Err(Conflict);
        }
        // For each term, the slack left by the others at their minimum
        // determines its tightest bound.
        for (v, c) in &expr.terms {
            let c = sign * c;
            if c == 0 {
                continue;
            }
            let slack = bound - (lo - term_min(c, domains[v.0]));
            if c > 0 {
                // c*x <= slack  =>  x <= floor(slack / c)
                self.tighten(domains, v.0, i64::MIN, slack.div_euclid(c))?;
            } else {
                // c*x <= slack with c < 0  =>  x >= slack / c. Rounding down
                // keeps the bound sound but can leave one value the exact
                // ceiling would remove.
                self.tighten(domains, v.0, (-slack).div_euclid(-c), i64::MAX)?;
            }
        }
        Ok(())
    }
}

/// True if every assignment within `domains` satisfies `constraint`.
fn entailed(constraint: &Constraint, domains: &[Domain]) -> bool {
    let max = |expr: &LinearExpr, sign: i64| {
        sign * expr.constant
            - expr
                .terms
                .iter()
                .map(|(v, c)| term_min(-sign * c, domains[v.0]))
                .sum::<i64>()
    };
    match constraint {
        Constraint::LinearLe { expr, bound } => max(expr, 1) <= *bound,
        Constraint::LinearGe { expr, bound } => max(expr, -1) <= -*bound,
        Constraint::LinearEq { .. } => false,
        Constraint::IfGeThenLe {
            cond,
            threshold,
            then,
            bound,
        } => domains[cond.0].hi < *threshold || domains[then.0].hi <= *bound,
    }
}

/// Smallest value of `c · x` over `d`.
pub(crate) fn term_min(c: i64, d: Domain) -> i64 {
    if c >= 0 {
        c * d.lo
    } else {
        c * d.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinearExpr;

    #[test]
    fn le_tightens_upper_bounds() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 100, "x");
        let y = m.new_int_var(0, 100, "y");
        m.add_le(LinearExpr::sum(&[x, y]), 10);
        let mut domains = m.domains().to_vec();
        assert_eq!(propagate(&m, &mut domains), PropagationResult::Consistent);
        assert_eq!(domains[x.0].hi, 10);
        assert_eq!(domains[y.0].hi, 10);
    }

    #[test]
    fn ge_tightens_lower_bounds() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 100, "x");
        m.add_ge(LinearExpr::var(x), 40);
        let mut domains = m.domains().to_vec();
        propagate(&m, &mut domains);
        assert_eq!(domains[x.0].lo, 40);
    }

    #[test]
    fn eq_fixes_single_variable() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 100, "x");
        m.add_eq(LinearExpr::var(x).plus_const(5), 12);
        let mut domains = m.domains().to_vec();
        propagate(&m, &mut domains);
        assert!(domains[x.0].is_fixed());
        assert_eq!(domains[x.0].lo, 7);
    }

    #[test]
    fn conflict_detected_when_bounds_cross() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 5, "x");
        m.add_ge(LinearExpr::var(x), 10);
        let mut domains = m.domains().to_vec();
        assert_eq!(propagate(&m, &mut domains), PropagationResult::Conflict);
    }

    #[test]
    fn implication_fires_when_condition_certain() {
        let mut m = CpModel::new();
        let x = m.new_int_var(2, 5, "x"); // always >= 1
        let z = m.new_int_var(0, 100, "z");
        m.add_if_ge_then_le(x, 1, z, 7);
        let mut domains = m.domains().to_vec();
        propagate(&m, &mut domains);
        assert_eq!(domains[z.0].hi, 7);
    }

    #[test]
    fn implication_contrapositive() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 5, "x");
        let z = m.new_int_var(50, 100, "z"); // consequent impossible (bound 7)
        m.add_if_ge_then_le(x, 3, z, 7);
        let mut domains = m.domains().to_vec();
        propagate(&m, &mut domains);
        assert_eq!(domains[x.0].hi, 2);
    }

    #[test]
    fn negative_coefficients_handled() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 10, "x");
        let y = m.new_int_var(0, 10, "y");
        // x - y <= 2  combined with  x >= 9  forces  y >= 7.
        m.add_le(LinearExpr::var(x).plus(y, -1), 2);
        m.add_ge(LinearExpr::var(x), 9);
        let mut domains = m.domains().to_vec();
        assert_eq!(propagate(&m, &mut domains), PropagationResult::Consistent);
        assert!(domains[y.0].lo >= 7, "y domain {:?}", domains[y.0]);
    }

    #[test]
    fn chained_propagation_reaches_fixed_point() {
        let mut m = CpModel::new();
        let a = m.new_int_var(0, 100, "a");
        let b = m.new_int_var(0, 100, "b");
        let c = m.new_int_var(0, 100, "c");
        m.add_eq(LinearExpr::var(a), 3);
        m.add_le(LinearExpr::var(b).plus(a, -1), 0); // b <= a
        m.add_le(LinearExpr::var(c).plus(b, -1), 0); // c <= b
        let mut domains = m.domains().to_vec();
        propagate(&m, &mut domains);
        assert_eq!(domains[a.0], Domain::new(3, 3));
        assert_eq!(domains[b.0].hi, 3);
        assert_eq!(domains[c.0].hi, 3);
    }

    #[test]
    fn propagation_never_removes_feasible_solutions() {
        // Sound w.r.t. a brute-force check on a small model.
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 6, "x");
        let y = m.new_int_var(0, 6, "y");
        m.add_le(LinearExpr::sum(&[x, y]), 7);
        m.add_ge(LinearExpr::var(x).plus(y, 2), 6);
        m.add_if_ge_then_le(x, 4, y, 2);
        let mut domains = m.domains().to_vec();
        assert_eq!(propagate(&m, &mut domains), PropagationResult::Consistent);
        for xv in 0..=6i64 {
            for yv in 0..=6i64 {
                if m.is_feasible(&[xv, yv]) {
                    assert!(
                        xv >= domains[x.0].lo
                            && xv <= domains[x.0].hi
                            && yv >= domains[y.0].lo
                            && yv <= domains[y.0].hi,
                        "feasible point ({xv},{yv}) pruned"
                    );
                }
            }
        }
    }
}
