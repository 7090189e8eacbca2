//! Branch-and-bound search.
//!
//! [`CpSolver`] combines the bounds propagator with depth-first branch and
//! bound: pick the unfixed variable with the smallest domain, try its lower
//! half first (OPG variables prefer "load as little as possible as late as
//! possible"), and prune every subtree whose objective lower bound cannot
//! beat the incumbent. The bound is the larger of the box bound and, for
//! each equality with all-positive coefficients, its LP relaxation.
//!
//! The only stopping rule is a node budget, [`SolverConfig::max_nodes`], so
//! the outcome is a function of the model and hint alone: the same status,
//! solution and node count on any host under any load. A search that runs
//! out of nodes returns `Feasible` (or `Unknown` without a solution) rather
//! than `Optimal`, like the CP-SAT statuses reported in Table 4 of the paper.
//! The incumbent only changes on a strictly better solution and pruning only
//! drops subtrees that hold none, so an `Optimal` result is the solution an
//! unbounded search without the objective bound would return.

use serde::{Deserialize, Serialize};

use crate::bound::Objective;
use crate::model::{CpModel, Domain};
use crate::propagate::{PropagationResult, Propagator};
use crate::solution::{Solution, SolveOutcome, SolveStatus};

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Most branch-and-bound nodes one solve may explore. Reaching it ends
    /// the search without an optimality proof.
    pub max_nodes: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_nodes: 2_000_000,
        }
    }
}

/// The branch-and-bound CP solver.
#[derive(Debug, Clone, Default)]
pub struct CpSolver {
    config: SolverConfig,
}

struct SearchState<'a> {
    model: &'a CpModel,
    propagator: Propagator<'a>,
    objective: Objective,
    /// Incumbent: normalised objective (smaller is better) and assignment.
    best: Option<(i64, Vec<i64>)>,
    nodes: u64,
    max_nodes: u64,
    hit_limit: bool,
}

impl CpSolver {
    /// Create a solver with the default configuration.
    pub fn new() -> Self {
        CpSolver::default()
    }

    /// Create a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        CpSolver { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Solve `model`, optionally warm-starting from `hint` (a full assignment
    /// that, if feasible, immediately bounds the objective — this is how the
    /// LC-OPG greedy fallback seeds the exact search).
    pub fn solve_with_hint(&self, model: &CpModel, hint: Option<&[i64]>) -> SolveOutcome {
        let mut domains: Vec<Domain> = model.domains().to_vec();
        let mut propagator = Propagator::new(model);

        // Root propagation.
        if propagator.propagate_all(&mut domains) == PropagationResult::Conflict {
            return SolveOutcome {
                status: SolveStatus::Infeasible,
                solution: None,
                objective: None,
                nodes_explored: 0,
            };
        }

        let objective = Objective::new(model);
        let best = hint
            .filter(|h| model.is_feasible(h))
            .map(|h| (objective.value(h), h.to_vec()));
        let mut state = SearchState {
            model,
            propagator,
            objective,
            best,
            nodes: 0,
            max_nodes: self.config.max_nodes,
            hit_limit: false,
        };

        dfs(&mut state, domains, None);

        match state.best {
            Some((obj, assignment)) => SolveOutcome {
                status: if state.hit_limit {
                    SolveStatus::Feasible
                } else {
                    SolveStatus::Optimal
                },
                solution: Some(Solution::new(assignment)),
                objective: Some(state.objective.denormalise(obj)),
                nodes_explored: state.nodes,
            },
            None => SolveOutcome {
                status: if state.hit_limit {
                    SolveStatus::Unknown
                } else {
                    SolveStatus::Infeasible
                },
                solution: None,
                objective: None,
                nodes_explored: state.nodes,
            },
        }
    }

    /// Solve `model` without a warm start.
    pub fn solve(&self, model: &CpModel) -> SolveOutcome {
        self.solve_with_hint(model, None)
    }
}

/// Explore the subtree of `domains`, whose bounds are at a propagation fixed
/// point except for the variable `branched` that was just split.
fn dfs(state: &mut SearchState<'_>, mut domains: Vec<Domain>, branched: Option<usize>) {
    if state.nodes >= state.max_nodes {
        state.hit_limit = true;
        return;
    }
    state.nodes += 1;

    if let Some(var) = branched {
        if state.propagator.propagate_from(var, &mut domains) == PropagationResult::Conflict {
            return;
        }
    }

    // Objective pruning.
    if let Some((best, _)) = &state.best {
        if state.objective.lower_bound(&domains) >= i128::from(*best) {
            return;
        }
    }

    // Pick the unfixed variable with the smallest domain (fail-first).
    let mut branch_var: Option<(usize, u64)> = None;
    for (idx, d) in domains.iter().enumerate() {
        if !d.is_fixed() {
            let size = d.size();
            match branch_var {
                Some((_, best_size)) if best_size <= size => {}
                _ => branch_var = Some((idx, size)),
            }
        }
    }

    let Some((var, _)) = branch_var else {
        // All variables fixed: a complete assignment (propagation already
        // verified bounds; re-check the full model for safety).
        let assignment: Vec<i64> = domains.iter().map(|d| d.lo).collect();
        if !state.model.is_feasible(&assignment) {
            return;
        }
        let obj = state.objective.value(&assignment);
        if state.best.as_ref().is_none_or(|(b, _)| obj < *b) {
            state.best = Some((obj, assignment));
        }
        return;
    };

    // Branch: split the domain at its midpoint, exploring the lower half first
    // (prefer small loads / early-zero chunk allocations).
    let d = domains[var];
    let mid = d.lo + (d.hi - d.lo) / 2;

    let mut lower = domains.clone();
    lower[var] = Domain::new(d.lo, mid);
    dfs(state, lower, Some(var));

    if state.hit_limit {
        return;
    }

    let mut upper = domains;
    upper[var] = Domain::new(mid + 1, d.hi);
    dfs(state, upper, Some(var));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinearExpr;

    #[test]
    fn simple_minimisation_finds_optimum() {
        // minimise x + y  s.t.  x + 2y >= 7, x,y in [0,10]
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 10, "x");
        let y = m.new_int_var(0, 10, "y");
        m.add_ge(LinearExpr::var(x).plus(y, 2), 7);
        m.minimize(LinearExpr::sum(&[x, y]));
        let out = CpSolver::new().solve(&m);
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.objective, Some(4)); // y=4 wait: x=1,y=3 -> 4; or x=0,y=4 -> 4
        let s = out.solution.unwrap();
        assert!(m.is_feasible(s.values()));
    }

    #[test]
    fn maximisation_supported() {
        // maximise 3x + y  s.t.  x + y <= 6
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 10, "x");
        let y = m.new_int_var(0, 10, "y");
        m.add_le(LinearExpr::sum(&[x, y]), 6);
        m.maximize(LinearExpr::var(x).plus(x, 2).plus(y, 1));
        let out = CpSolver::new().solve(&m);
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.objective, Some(18)); // x=6, y=0
    }

    #[test]
    fn infeasible_model_detected() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 3, "x");
        m.add_ge(LinearExpr::var(x), 10);
        let out = CpSolver::new().solve(&m);
        assert_eq!(out.status, SolveStatus::Infeasible);
        assert!(out.solution.is_none());
    }

    #[test]
    fn satisfaction_problem_without_objective() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 5, "x");
        let y = m.new_int_var(0, 5, "y");
        m.add_eq(LinearExpr::sum(&[x, y]), 7);
        let out = CpSolver::new().solve(&m);
        assert_eq!(out.status, SolveStatus::Optimal);
        let s = out.solution.unwrap();
        assert_eq!(s.value(x) + s.value(y), 7);
    }

    #[test]
    fn implication_respected_in_solutions() {
        // Chunks assigned to a layer force the earliest-load index down: the
        // shape of constraint C1.
        let mut m = CpModel::new();
        let chunks = m.new_int_var(0, 4, "x_w_l");
        let earliest = m.new_int_var(0, 9, "z_w");
        m.add_ge(LinearExpr::var(chunks), 1);
        m.add_if_ge_then_le(chunks, 1, earliest, 3);
        m.maximize(LinearExpr::var(earliest));
        let out = CpSolver::new().solve(&m);
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.solution.unwrap().value(earliest), 3);
    }

    #[test]
    fn warm_start_hint_is_used_as_bound() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 50, "x");
        m.add_ge(LinearExpr::var(x), 5);
        m.minimize(LinearExpr::var(x));
        let out = CpSolver::new().solve_with_hint(&m, Some(&[7]));
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.objective, Some(5));
    }

    #[test]
    fn infeasible_hint_is_ignored() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 50, "x");
        m.add_ge(LinearExpr::var(x), 5);
        m.minimize(LinearExpr::var(x));
        let out = CpSolver::new().solve_with_hint(&m, Some(&[2]));
        assert_eq!(out.objective, Some(5));
    }

    #[test]
    fn node_limit_yields_feasible_not_optimal() {
        // A knapsack-ish model large enough that 64 nodes cannot prove
        // optimality. The limit is exact, and a rerun repeats the outcome.
        let mut m = CpModel::new();
        let vars: Vec<_> = (0..30)
            .map(|i| m.new_int_var(0, 20, &format!("v{i}")))
            .collect();
        // Σ v_i >= 100
        m.add_ge(LinearExpr::sum(&vars), 100);
        m.minimize(LinearExpr::sum(&vars));
        let solver = CpSolver::with_config(SolverConfig { max_nodes: 64 });
        let out = solver.solve(&m);
        assert!(
            matches!(out.status, SolveStatus::Feasible | SolveStatus::Unknown),
            "status {:?}",
            out.status
        );
        assert_eq!(out.nodes_explored, 64);
        assert_eq!(solver.solve(&m), out);
    }

    #[test]
    fn zero_node_limit_returns_the_hint_unproved() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 50, "x");
        m.add_ge(LinearExpr::var(x), 5);
        m.minimize(LinearExpr::var(x));
        let solver = CpSolver::with_config(SolverConfig { max_nodes: 0 });
        let out = solver.solve_with_hint(&m, Some(&[7]));
        assert_eq!(out.status, SolveStatus::Feasible);
        assert_eq!(out.objective, Some(7));
        assert_eq!(out.nodes_explored, 0);
        assert_eq!(solver.solve(&m).status, SolveStatus::Unknown);
    }

    #[test]
    fn optimal_solutions_are_feasible_under_model_check() {
        let mut m = CpModel::new();
        let a = m.new_int_var(0, 8, "a");
        let b = m.new_int_var(0, 8, "b");
        let c = m.new_int_var(0, 8, "c");
        m.add_le(LinearExpr::sum(&[a, b, c]), 12);
        m.add_ge(LinearExpr::var(a).plus(b, 1), 5);
        m.add_if_ge_then_le(a, 4, c, 2);
        m.minimize(LinearExpr::var(a).plus(b, 3).plus(c, 1));
        let out = CpSolver::new().solve(&m);
        let sol = out.solution.expect("solution");
        assert!(m.is_feasible(sol.values()));
        assert_eq!(out.status, SolveStatus::Optimal);
    }

    #[test]
    fn node_count_reported() {
        let mut m = CpModel::new();
        let x = m.new_int_var(0, 3, "x");
        m.minimize(LinearExpr::var(x));
        let out = CpSolver::new().solve(&m);
        assert!(out.nodes_explored >= 1);
    }
}
