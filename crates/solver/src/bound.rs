//! Objective values and lower bounds for branch and bound.
//!
//! [`Objective`] holds the model's objective normalised so that smaller is
//! better. Its [`lower_bound`](Objective::lower_bound) under the current
//! domains is the larger of two bounds:
//!
//! * the box bound — every term at its cheapest end of its domain;
//! * for each `Σ a_i·x_i = b` with every `a_i > 0`, the LP relaxation of
//!   minimising the objective subject to that equality and the domains. In
//!   the variables `w_i = a_i·(x_i − lo_i)` this is a fractional knapsack
//!   that must be filled exactly, so filling the items in ascending
//!   cost/coefficient order is optimal. Only the last item filled may be
//!   fractional.
//!
//! The arithmetic is exact: sums in `i128` and the fractional item rounded
//! up, which is valid because every integer solution's objective is an
//! integer no smaller than the LP optimum.

use crate::model::{Constraint, CpModel, Domain, Sense};
use crate::propagate::term_min;

/// One variable of an equality: its coefficient there and its objective cost.
#[derive(Debug, Clone, Copy)]
struct Item {
    var: usize,
    coeff: i64,
    cost: i64,
}

/// An all-positive equality `Σ coeff·x = rhs`, items in ascending
/// cost/coefficient order.
#[derive(Debug, Clone)]
struct Knapsack {
    items: Vec<Item>,
    rhs: i64,
}

/// The objective normalised to minimisation, plus what its bound needs.
#[derive(Debug, Clone)]
pub(crate) struct Objective {
    sense: Sense,
    constant: i64,
    /// `(var, cost)` with every variable once and every cost non-zero.
    terms: Vec<(usize, i64)>,
    knapsacks: Vec<Knapsack>,
}

impl Objective {
    /// Normalise `model`'s objective; a model without one has the constant
    /// objective 0, so any solution is optimal.
    pub(crate) fn new(model: &CpModel) -> Self {
        let mut cost = vec![0i64; model.num_vars()];
        let (sense, constant) = match model.objective() {
            Some((expr, sense)) => {
                let sign = if *sense == Sense::Maximize { -1 } else { 1 };
                for (v, c) in &expr.terms {
                    cost[v.0] += sign * c;
                }
                (*sense, sign * expr.constant)
            }
            None => (Sense::Minimize, 0),
        };
        let terms = (0..cost.len())
            .filter(|&v| cost[v] != 0)
            .map(|v| (v, cost[v]))
            .collect();
        let knapsacks = model
            .constraints()
            .iter()
            .filter_map(|c| knapsack(c, &cost))
            .collect();
        Objective {
            sense,
            constant,
            terms,
            knapsacks,
        }
    }

    /// Normalised objective value of a full assignment.
    pub(crate) fn value(&self, assignment: &[i64]) -> i64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|&(v, c)| c * assignment[v])
                .sum::<i64>()
    }

    /// The objective value in the model's own sense.
    pub(crate) fn denormalise(&self, value: i64) -> i64 {
        match self.sense {
            Sense::Minimize => value,
            Sense::Maximize => -value,
        }
    }

    /// A lower bound on the normalised objective over every integer
    /// assignment within `domains` that satisfies the model's all-positive
    /// equalities; `i128::MAX` when one of those equalities cannot be met.
    pub(crate) fn lower_bound(&self, domains: &[Domain]) -> i128 {
        let box_sum: i128 = self
            .terms
            .iter()
            .map(|&(v, c)| i128::from(term_min(c, domains[v])))
            .sum();
        let mut bound = i128::from(self.constant) + box_sum;
        for knapsack in &self.knapsacks {
            let Some(lp) = knapsack.lp_min(domains) else {
                return i128::MAX;
            };
            let box_part: i128 = knapsack
                .items
                .iter()
                .map(|it| i128::from(term_min(it.cost, domains[it.var])))
                .sum();
            bound = bound.max(i128::from(self.constant) + box_sum - box_part + lp);
        }
        bound
    }
}

/// The knapsack of an equality whose merged coefficients are all positive,
/// if it has any variable the objective charges for.
fn knapsack(constraint: &Constraint, cost: &[i64]) -> Option<Knapsack> {
    let Constraint::LinearEq { expr, bound } = constraint else {
        return None;
    };
    let mut items: Vec<Item> = Vec::new();
    for (v, c) in &expr.terms {
        match items.iter_mut().find(|it| it.var == v.0) {
            Some(it) => it.coeff += c,
            None => items.push(Item {
                var: v.0,
                coeff: *c,
                cost: cost[v.0],
            }),
        }
    }
    if items.iter().any(|it| it.coeff <= 0) || items.iter().all(|it| it.cost == 0) {
        return None;
    }
    // a_i > 0, so c_i/a_i < c_j/a_j  ⇔  c_i·a_j < c_j·a_i.
    items.sort_by(|x, y| {
        (i128::from(x.cost) * i128::from(y.coeff)).cmp(&(i128::from(y.cost) * i128::from(x.coeff)))
    });
    Some(Knapsack {
        items,
        rhs: bound - expr.constant,
    })
}

impl Knapsack {
    /// The LP minimum of the items' cost, or `None` if the equality cannot be
    /// met within `domains`.
    fn lp_min(&self, domains: &[Domain]) -> Option<i128> {
        let mut value: i128 = 0;
        let mut room = i128::from(self.rhs);
        for it in &self.items {
            let lo = domains[it.var].lo;
            value += i128::from(it.cost) * i128::from(lo);
            room -= i128::from(it.coeff) * i128::from(lo);
        }
        if room < 0 {
            return None;
        }
        for it in &self.items {
            if room == 0 {
                break;
            }
            let d = domains[it.var];
            let span = i128::from(d.hi - d.lo);
            let weight = i128::from(it.coeff) * span;
            if weight <= room {
                value += i128::from(it.cost) * span;
                room -= weight;
            } else {
                value += div_ceil(i128::from(it.cost) * room, i128::from(it.coeff));
                room = 0;
            }
        }
        (room == 0).then_some(value)
    }
}

/// `⌈n / d⌉` for `d > 0`.
fn div_ceil(n: i128, d: i128) -> i128 {
    -(-n).div_euclid(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinearExpr;

    #[test]
    fn div_ceil_rounds_up_for_both_signs() {
        assert_eq!(div_ceil(7, 2), 4);
        assert_eq!(div_ceil(6, 2), 3);
        assert_eq!(div_ceil(-7, 2), -3);
        assert_eq!(div_ceil(-6, 2), -3);
    }

    #[test]
    fn knapsack_bound_fills_cheapest_ratio_first() {
        // minimise 5a + 2b + 9p  s.t.  a + b + 4p = 4, a,b ∈ [0,2], p ∈ [0,1].
        // LP: b = 2 (ratio 2), a = 2 (ratio 5) → 14; the box bound is 0.
        let mut m = CpModel::new();
        let a = m.new_int_var(0, 2, "a");
        let b = m.new_int_var(0, 2, "b");
        let p = m.new_bool_var("p");
        m.add_eq(LinearExpr::sum(&[a, b]).plus(p, 4), 4);
        m.minimize(LinearExpr::var(a).plus(a, 4).plus(b, 2).plus(p, 9));
        let objective = Objective::new(&m);
        assert_eq!(objective.lower_bound(m.domains()), 9);
        // With the preload escape p fixed off, the bound is exact.
        let mut domains = m.domains().to_vec();
        domains[p.0] = Domain::new(0, 0);
        assert_eq!(objective.lower_bound(&domains), 14);
    }

    #[test]
    fn fractional_item_is_rounded_up() {
        // minimise 3x  s.t.  2x = 3 has LP optimum 4.5, so the bound is 5.
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 5, "x");
        m.add_eq(LinearExpr::new().plus(x, 2), 3);
        m.minimize(LinearExpr::new().plus(x, 3));
        assert_eq!(Objective::new(&m).lower_bound(m.domains()), 5);
    }

    #[test]
    fn unmeetable_equality_bounds_at_infinity() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 2, "x");
        m.add_eq(LinearExpr::var(x), 5);
        m.minimize(LinearExpr::var(x));
        assert_eq!(Objective::new(&m).lower_bound(m.domains()), i128::MAX);
    }

    #[test]
    fn mixed_sign_equalities_use_the_box_bound() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 5, "x");
        let y = m.new_int_var(0, 5, "y");
        m.add_eq(LinearExpr::var(x).plus(y, -1), 3);
        m.minimize(LinearExpr::sum(&[x, y]));
        assert_eq!(Objective::new(&m).lower_bound(m.domains()), 0);
    }

    #[test]
    fn maximisation_is_normalised() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 4, "x");
        m.maximize(LinearExpr::var(x).plus_const(1));
        let objective = Objective::new(&m);
        assert_eq!(objective.value(&[3]), -4);
        assert_eq!(objective.denormalise(-4), 4);
        assert_eq!(objective.lower_bound(m.domains()), -5);
    }
}
