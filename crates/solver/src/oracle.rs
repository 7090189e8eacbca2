//! Brute-force oracles for the search and its objective bound.
//!
//! Seeded random models over up to four small-domain variables mix every
//! constraint kind, including all-positive equalities (the ones the LP bound
//! uses) and mixed-sign ones. Enumerating every assignment gives the true
//! optimum to check the solver against at several node limits, and the true
//! minimum over random sub-boxes to check the bound against.

use crate::bound::Objective;
use crate::model::{CpModel, Domain, LinearExpr, VarId};
use crate::search::{CpSolver, SolverConfig};
use crate::solution::SolveStatus;

/// SplitMix64, inlined so the oracle needs no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

fn random_expr(rng: &mut Rng, vars: &[VarId], coeffs: (i64, i64)) -> LinearExpr {
    let mut expr = LinearExpr::new().plus_const(rng.range(-2, 2));
    for v in vars {
        if rng.range(0, 3) > 0 {
            expr = expr.plus(*v, rng.range(coeffs.0, coeffs.1));
        }
    }
    expr
}

/// A random model whose linear constraints all hold at one random point of
/// the box, so most models are feasible.
fn random_model(rng: &mut Rng) -> CpModel {
    let mut m = CpModel::new();
    let n = rng.range(2, 4) as usize;
    let vars: Vec<VarId> = (0..n)
        .map(|i| {
            let lo = rng.range(-2, 2);
            m.new_int_var(lo, lo + rng.range(0, 4), &format!("v{i}"))
        })
        .collect();
    let point: Vec<i64> = vars
        .iter()
        .map(|v| rng.range(m.domain(*v).lo, m.domain(*v).hi))
        .collect();
    for _ in 0..rng.range(1, 4) {
        let kind = rng.range(0, 4);
        let coeffs = if kind == 0 { (1, 4) } else { (-3, 3) };
        let expr = random_expr(rng, &vars, coeffs);
        let at_point = CpModel::eval_expr(&expr, &point);
        match kind {
            0 | 1 => m.add_eq(expr, at_point),
            2 => m.add_le(expr, at_point + rng.range(0, 3)),
            _ => m.add_ge(expr, at_point - rng.range(0, 3)),
        }
    }
    if rng.range(0, 1) == 1 {
        let cond = vars[rng.range(0, n as i64 - 1) as usize];
        let then = vars[rng.range(0, n as i64 - 1) as usize];
        let threshold = rng.range(m.domain(cond).lo, m.domain(cond).hi);
        let bound = rng.range(m.domain(then).lo, m.domain(then).hi);
        m.add_if_ge_then_le(cond, threshold, then, bound);
    }
    let objective = random_expr(rng, &vars, (-5, 5));
    if rng.range(0, 3) == 0 {
        m.maximize(objective);
    } else {
        m.minimize(objective);
    }
    m
}

/// Every assignment within `domains`.
fn assignments(domains: &[Domain]) -> Vec<Vec<i64>> {
    domains.iter().fold(vec![Vec::new()], |acc, d| {
        acc.into_iter()
            .flat_map(|prefix| {
                (d.lo..=d.hi).map(move |x| {
                    let mut next = prefix.clone();
                    next.push(x);
                    next
                })
            })
            .collect()
    })
}

/// The smallest normalised objective of a feasible assignment in `domains`.
fn enumerated_min(m: &CpModel, objective: &Objective, domains: &[Domain]) -> Option<i64> {
    assignments(domains)
        .iter()
        .filter(|a| m.is_feasible(a))
        .map(|a| objective.value(a))
        .min()
}

#[test]
fn optimal_outcomes_match_enumeration_at_every_node_limit() {
    let mut rng = Rng(0x0_0c1e);
    let (mut optimal, mut limited) = (0, 0);
    for case in 0..400 {
        let m = random_model(&mut rng);
        let objective = Objective::new(&m);
        let truth = enumerated_min(&m, &objective, m.domains());
        let hint = assignments(m.domains())
            .into_iter()
            .rfind(|a| m.is_feasible(a));
        for max_nodes in [0, 1, 3, 10, 2_000_000] {
            let solver = CpSolver::with_config(SolverConfig { max_nodes });
            for hint in [None, hint.as_deref()] {
                let out = solver.solve_with_hint(&m, hint);
                assert!(out.nodes_explored <= max_nodes, "case {case}");
                let found = out.objective.map(|o| objective.denormalise(o));
                match out.status {
                    SolveStatus::Optimal => {
                        optimal += 1;
                        assert_eq!(found, truth, "case {case} limit {max_nodes}: {m:?}");
                    }
                    SolveStatus::Feasible => {
                        limited += 1;
                        assert!(found >= truth && truth.is_some(), "case {case}: {m:?}");
                    }
                    SolveStatus::Infeasible => assert_eq!(truth, None, "case {case}: {m:?}"),
                    SolveStatus::Unknown => assert!(hint.is_none() || truth.is_none()),
                }
                if let Some(solution) = &out.solution {
                    assert!(m.is_feasible(solution.values()), "case {case}: {m:?}");
                }
            }
        }
        // Unlimited, the search always proves its answer.
        let out = CpSolver::new().solve(&m);
        let expected = if truth.is_some() {
            SolveStatus::Optimal
        } else {
            SolveStatus::Infeasible
        };
        assert_eq!(out.status, expected, "case {case}: {m:?}");
    }
    assert!(
        optimal > 1_000 && limited > 50,
        "{optimal} optimal, {limited} limited"
    );
}

#[test]
fn objective_bound_never_exceeds_the_minimum_over_a_sub_box() {
    let mut rng = Rng(0xb0_0d);
    let mut checked = 0;
    for case in 0..400 {
        let m = random_model(&mut rng);
        let objective = Objective::new(&m);
        for _ in 0..8 {
            let sub_box: Vec<Domain> = m
                .domains()
                .iter()
                .map(|d| {
                    let lo = rng.range(d.lo, d.hi);
                    Domain::new(lo, rng.range(lo, d.hi))
                })
                .collect();
            if let Some(min) = enumerated_min(&m, &objective, &sub_box) {
                checked += 1;
                let bound = objective.lower_bound(&sub_box);
                assert!(
                    bound <= i128::from(min),
                    "case {case}: bound {bound} > minimum {min} on {sub_box:?} of {m:?}"
                );
            }
        }
    }
    assert!(checked > 300, "only {checked} feasible sub-boxes");
}
